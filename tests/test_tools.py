"""The repository's measuring tools count what they say they count."""

from __future__ import annotations

import functools
import json
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os


def f(x):
    """Function docstring."""
    y = (x +
         1)  # a trailing comment

    return y


class C:
    """Class docstring."""

    s = """a string
that is data"""
'''


def test_code_lines_leaves_out_docstrings_comments_and_blank_lines(tmp_path):
    count = runpy.run_path(str(TOOLS / "code_lines.py"))["count"]
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the two lines of y, return, class and the two of s
    assert count(path) == (8, 20)


@functools.cache
def _work_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(TOOLS / "work_counts.py"), "--workload", workload, "--seed", "7"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out)


def test_work_counts_reads_the_fattk_figures():
    counts = _work_counts("fattk")
    assert (counts["networks"], counts["pair_flows"]) == (124, 854)
    assert (counts["searches_found"], counts["searches_failed"], counts["paths"]) == (691, 103, 2767)


def test_work_counts_reads_the_sweep_figures():
    counts = _work_counts("sweep")
    assert (counts["networks"], counts["pair_flows"]) == (282, 5289)
    assert (counts["searches_found"], counts["searches_failed"], counts["paths"]) == (8662, 446, 17287)


def test_work_counts_reads_the_first_touch_sweep_figures():
    # a network per operation: more pair flows and searches, fewer memo hits
    counts = _work_counts("sweep")
    first = counts["first_touch"]
    assert (first["networks"], first["pair_flows"]) == (400, 7102)
    assert (first["searches_found"], first["searches_failed"]) == (10235, 678)
    assert (first["memo_hits"], counts["memo_hits"]) == (384, 2197)


def test_work_counts_reads_the_first_touch_fattk_figures():
    # fattk keeps no family memo: only the networks change
    first = _work_counts("fattk")["first_touch"]
    assert (first["networks"], first["pair_flows"]) == (208, 854)
