"""Count the flow work of one round of a perfbench workload.

    python tools/work_counts.py --workload {sweep,order,fattk} --seed N [--root DIR]

The inputs are built by perfbench/workloads.py from the seed, as a
benchmark run builds them. One round of every operation warms up, then
one more round is counted, and one JSON line is printed: the flow
networks built, the pair flows (and how many of them were blocked or
limited), the paths they found (the sum of their values, so that paths
minus searches_found is the number of paths taken without a search),
the augmenting searches that found a path and those that failed, the
decompositions of pair flows into paths, the hits and misses of the
sweeps' family memo, the flows run for a cut and the cuts read from
pair flows. A third round drops the held flow network
(connectivity._last = None) before each operation, so that each one
builds its network and fills its family memo as the first call on its
graph does; its counts are printed as the object `first_touch`. The
counters wrap FlowNetwork's methods and connectivity._search from
outside, so the library runs unchanged.

DIR is the checkout whose src/ and perfbench/ are used (default: this
one); give an unpacked copy of another commit, for example
`git archive REV | tar -x -C DIR`, to count that commit's work.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _install(connectivity, counts: dict[str, int]) -> None:
    """Wrap the flow engine so that every call bumps its counters."""
    net_cls = connectivity.FlowNetwork
    init, pair_flow, decompose = net_cls.__init__, net_cls._pair_flow, net_cls._decompose
    sweep_paths, cut, pair_cut = net_cls._sweep_paths, net_cls._cut, net_cls._pair_cut
    search = connectivity._search

    def counted_init(self, g):
        counts["networks"] += 1
        init(self, g)

    def counted_pair_flow(self, v, w, limit, blocked=frozenset()):
        counts["pair_flows"] += 1
        counts["blocked"] += bool(blocked)
        counts["limited"] += limit is not None
        flow = pair_flow(self, v, w, limit, blocked)
        counts["paths"] += flow[0]
        return flow

    def counted_decompose(self, *args):
        counts["decompositions"] += 1
        return decompose(self, *args)

    def counted_sweep_paths(self, v, w, limit):
        counts["memo_hits" if (v, w, limit) in self._families else "memo_misses"] += 1
        return sweep_paths(self, v, w, limit)

    def counted_cut(self, *args):
        counts["cuts"] += 1
        return cut(self, *args)

    def counted_pair_cut(self, *args):
        counts["pair_cuts"] += 1
        return pair_cut(self, *args)

    def counted_search(*args):
        found = search(*args)
        counts["searches_found" if found else "searches_failed"] += 1
        return found

    net_cls.__init__ = counted_init
    net_cls._pair_flow = counted_pair_flow
    net_cls._decompose = counted_decompose
    net_cls._sweep_paths = counted_sweep_paths
    net_cls._cut = counted_cut
    net_cls._pair_cut = counted_pair_cut
    connectivity._search = counted_search


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "order", "fattk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from nstree import connectivity

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.WORKLOADS[args.workload](random.Random(args.seed), Path(tmp))
        for op in wl.ops:
            op.call()
        counts = dict.fromkeys((
            "networks", "pair_flows", "blocked", "limited", "paths", "searches_found", "searches_failed",
            "decompositions", "memo_hits", "memo_misses", "cuts", "pair_cuts",
        ), 0)
        _install(connectivity, counts)
        for op in wl.ops:
            op.call()
        warm = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        for op in wl.ops:
            connectivity._last = None
            op.call()
    print(json.dumps({"workload": args.workload, "seed": args.seed, **warm, "first_touch": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
