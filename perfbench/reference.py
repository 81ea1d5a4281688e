"""The reference computation that rescales every timed interval.

This machine's speed drifts by up to half within seconds: other tenants
share its cores, and CPU time drifts as much as wall time. A fixed
reference computation timed right before every operation drifts with
it, so every latency is rescaled to a machine on which the reference
takes REF_S (what it takes on the machine the README describes). The
reference is a unit-capacity max flow on a 7x7 grid with dict-keyed
capacities: graph code in the style of nstree's own, which tracks the
drift of nstree's operations far better than a plain arithmetic loop
(see the README), but shares no code with it.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.0003
REF_WINDOW = 2  # reference samples on each side of an operation
_GRID = 7
_EDGES = [(x * _GRID + y, (x + dx) * _GRID + y + dy)
          for x in range(_GRID) for y in range(_GRID) for dx, dy in ((1, 0), (0, 1))
          if x + dx < _GRID and y + dy < _GRID]


def reference_work() -> int:
    """Vertex-disjoint paths between opposite corners of the grid."""
    n = _GRID * _GRID
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {x: [] for x in range(2 * n)}

    def arc(a: int, b: int) -> None:
        cap[(a, b)] = 1
        cap.setdefault((b, a), 0)
        adj[a].append(b)
        adj[b].append(a)

    for u, v in _EDGES:
        arc(2 * u + 1, 2 * v)
        arc(2 * v + 1, 2 * u)
    for v in range(n):
        arc(2 * v, 2 * v + 1)
    source, sink = 1, 2 * (n - 1)
    flow = 0
    while True:
        prev = {source: source}
        frontier = [source]
        while frontier and sink not in prev:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in prev and cap[(x, y)] > 0:
                        prev[y] = x
                        nxt.append(y)
            frontier = nxt
        if sink not in prev:
            return flow
        x = sink
        while x != source:
            p = prev[x]
            cap[(p, x)] -= 1
            cap[(x, p)] += 1
            x = p
        flow += 1


def reference_s() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scales(refs: list[float]) -> list[float]:
    """Per sample, REF_S over the median reference time around it."""
    w = REF_WINDOW
    return [REF_S / statistics.median(refs[max(0, i - w): i + w + 1]) for i in range(len(refs))]
