"""Run one perfbench workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; nstree is imported
from its `src/` directory. With --trace 0 the workload runs with no
instrumentation and the end-to-end metrics are printed; with --trace 1
spans are recorded around every call into an nstree layer and the
per-layer metrics are printed instead. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; a copy goes to
.perfbench/, and a traced run also writes the spans of its first traced
round there. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import REF_S, reference_s, scales
from tracer import EXACT, METRICS, Tracer, round_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7  # imports and input building are each timed this often; setup_s adds medians
MIN_ROUNDS = 3  # every operation's median needs a few samples
MIN_SAMPLES = 100  # op_p90_ms needs ten samples beyond it
CLI_PROBES = 5  # interpreter and import start-ups timed per traced cli run
REF_SETUP = 5  # reference samples on each side of a timed set-up


class Checker:
    """The independent checker, running as a child process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "checker.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def check(self, graphs: dict, items: list) -> list[str]:
        pickle.dump((graphs, items), self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self) -> None:
        try:
            pickle.dump(None, self.proc.stdin)
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Tally:
    """Samples of the timed rounds, and what went wrong in them."""

    def __init__(self, n_ops: int) -> None:
        self.lat: list[list[float]] = [[] for _ in range(n_ops)]  # rescaled seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0


def run_op(op, call, tally: Tally, expected) -> float | None:
    """Time one operation; its output must equal the checked one."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception:  # a failed operation is counted, and the run goes on
        tally.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None
    took = time.perf_counter() - t0
    if op.plain(out) != expected:
        tally.problems.append(f"{op.label}: output differs from the checked first round")
    return took


def timed_rounds(ops, calls, expected, seconds: float, tally: Tally, after_round=None) -> None:
    """Whole rounds of every operation until `seconds` have passed and
    enough samples are in."""
    start = time.perf_counter()
    while True:
        gc.collect()
        refs, took = [], []
        for op, call, want in zip(ops, calls, expected):
            refs.append(reference_s())
            took.append(run_op(op, call, tally, want))
        for i, (t, k) in enumerate(zip(took, scales(refs))):
            if t is not None:
                tally.lat[i].append(t * k)
        tally.rounds += 1
        if after_round is not None:
            after_round()
        if (
            time.perf_counter() - start >= seconds
            and tally.rounds >= MIN_ROUNDS
            and tally.rounds * len(ops) >= MIN_SAMPLES
        ):
            return


def warm_up(wl, ops, checker: Checker) -> tuple[list, list[str]]:
    """One untimed round; every output goes to the checker.

    Returns the checked outputs and the checker's problems. An operation
    that raises has no output; the timed rounds count it as failed.
    """
    expected, items = [], []
    for op in ops:
        try:
            out = op.call()
        except Exception:  # reported here, counted in the timed rounds
            traceback.print_exc(file=sys.stderr)
            expected.append(None)
            continue
        plain = op.plain(out)
        expected.append(plain)
        payload = plain if op.extra is None else {**plain, **op.extra(out)}
        items.append((op.label, op.kind, op.graph, op.params, payload))
    used = {op.graph for op in ops if op.graph is not None}
    graphs = {name: (g.vertices, g.edges) for name, g in wl.graphs.items() if name in used}
    return expected, checker.check(graphs, items)


IMPORT_PROBE = """
import statistics, sys, time
sys.path[:0] = [{src!r}, {here!r}]
import reference
refs = [reference.reference_s() for _ in range({n})]
t0 = time.perf_counter()
import nstree.cli, workloads
took = time.perf_counter() - t0
refs += [reference.reference_s() for _ in range({n})]
print(took * reference.REF_S / statistics.median(refs))
"""


def import_s() -> float:
    """Median time to import nstree and the workloads in a fresh interpreter."""
    code = IMPORT_PROBE.format(src=str(ROOT / "src"), here=str(HERE), n=REF_SETUP)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(SETUP_REPEATS)
    )


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def round_s(tally: Tally) -> float:
    """One round at every operation's median (rescaled) time."""
    return sum(statistics.median(x) for x in tally.lat if x)


def end_to_end(tally: Tally, setups: list[float]) -> dict:
    peak = peak_rss_mb()  # before the import probes, which are children too
    pooled = [t for x in tally.lat for t in x]
    return {
        "setup_s": (import_s() + statistics.median(setups), "s"),
        "ops_per_s": (sum(1 for x in tally.lat if x) / round_s(tally), "1/s"),
        "op_p50_ms": (1000 * statistics.median(pooled), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(pooled, n=10)[8], "ms"),
        "peak_rss_mb": (peak, "MB"),
    }


def sweep_steps(expected) -> list[list[int]]:
    """Sweep index of every extension, per sweep run of a round."""
    out = []
    for plain in expected:
        if isinstance(plain, dict) and isinstance(plain.get("out"), dict):
            plain = plain["out"]
        if isinstance(plain, dict) and "steps" in plain:
            out.append([s["step"] for s in plain["steps"]])
    return out


def cli_startup_ms() -> tuple[float, float]:
    """Median start-up of a bare interpreter and of one importing nstree.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = {}
    for name, code in (("interp", "pass"), ("import", "import nstree.cli")):
        samples = []
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            samples.append(time.perf_counter() - t0)
        times[name] = 1000 * statistics.median(samples)
    return times["interp"], times["import"] - times["interp"]


def traced(ops, expected, seconds: float, tracer, setup_stats: list[dict], tally: Tally,
           cli: bool) -> tuple[dict, dict]:
    """Untraced rounds for a third of the time, traced rounds for the rest.

    Returns the per-layer metrics and the spans of the first traced round.
    """
    base = Tally(len(ops))
    timed_rounds(ops, [op.call for op in ops], expected, seconds / 3, base)
    tally.problems += base.problems
    tracer.install()
    calls = [tracer.wrap(op.call, "op") for op in ops]
    steps = sweep_steps(expected)
    rounds: list[dict] = []
    first_spans: list[dict] = []

    def after_round() -> None:
        if not first_spans:
            first_spans.append(tracer.spans())
        rounds.append(round_metrics(tracer.summary(), steps))
        tracer.clear()

    gc.collect()
    tracer.clear()
    timed_rounds(ops, calls, expected, seconds * 2 / 3, tally, after_round)
    tracer.uninstall()
    for r in rounds[1:]:
        for name in EXACT & r.keys():
            if r[name] != rounds[0][name]:
                tally.problems.append(f"{name} differs between traced rounds")
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics.update({name: rounds[0][name] for name in EXACT & rounds[0].keys()})
    metrics["trace.round_s"] = round_s(tally)
    metrics["trace.overhead_s"] = metrics["trace.round_s"] - round_s(base)
    for name in ("graph.build", "generators.truncate"):
        metrics[f"{name}.self_s"] = statistics.median(s["self_s"][name] for s in setup_stats)
    interp = imp = main_ms = 0.0
    if cli:
        interp, imp = cli_startup_ms()
        main_ms = metrics["cli.main_ms"]
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = imp
    metrics["cli.startup_share"] = (interp + imp) / (interp + imp + main_ms) if cli else 0.0
    return metrics, first_spans[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import nstree.cli  # imports every layer
        import workloads
    except ImportError as exc:
        print(f"error: cannot import nstree from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(nstree.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: nstree was imported from {nstree.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    checker = Checker()
    try:
        tracer = Tracer() if args.trace else None
        setups, setup_stats = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            if tracer:
                tracer.install()
            refs = [reference_s() for _ in range(REF_SETUP)]
            t = time.perf_counter()
            wl = build(random.Random(args.seed), tmp)
            took = time.perf_counter() - t
            refs += [reference_s() for _ in range(REF_SETUP)]
            setups.append(took * REF_S / statistics.median(refs))
            if tracer:
                tracer.uninstall()
                setup_stats.append(tracer.summary())
                tracer.clear()
        ops = wl.in_process if args.trace and wl.in_process else wl.ops
        expected, problems = warm_up(wl, ops, checker)
        tally = Tally(len(ops))
        if tracer:
            layers, spans = traced(ops, expected, args.seconds, tracer, setup_stats, tally,
                                   bool(wl.in_process))
            metrics = {name: (layers[name], unit) for name, (unit, _b) in METRICS.items()}
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            timed_rounds(ops, [op.call for op in ops], expected, args.seconds, tally)
            metrics = end_to_end(tally, setups)
    finally:
        checker.close()
        shutil.rmtree(tmp, ignore_errors=True)

    problems += tally.problems
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
