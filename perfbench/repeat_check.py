"""Run each workload traced twice with one seed; every count must repeat.

    python3 perfbench/repeat_check.py [--seed 1] [--seconds 6] [workload ...]

Counts (calls, builds, extensions, kappa calls, distinct pairs, bytes
out) are per round and depend only on the seeded inputs, so two traced
runs must report them identically. Exits 1 and names the metric when
one differs, or when a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import EXACT  # noqa: E402

WORKLOADS = ("sweep", "order", "fattk", "cli")


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differences(workload: str, seed: int, seconds: float) -> list[str]:
    first, second = (traced_run(workload, seed, seconds) for _ in range(2))
    out = [f"{workload}: run {i} not correct" for i, r in enumerate((first, second), 1)
           if not r["correct"] or r["failed"]]
    for name in sorted(EXACT):
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            out.append(f"{workload}: {name} {a} != {b}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    bad = []
    for w in args.workloads:
        diff = differences(w, args.seed, args.seconds)
        print(f"{w}: {'counts repeat' if not diff else 'MISMATCH'}")
        bad += diff
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
