"""Byte-for-byte checks against the golden corpus (see make_golden.py)."""

from __future__ import annotations

import logging

import pytest

from make_golden import (
    CLI_CASES,
    GOLDEN,
    LOG_CASES,
    cli_argv,
    cuts_text,
    dispersed_text,
    family_graphs,
    family_text,
    fattk_text,
    log_stderr,
    order_text,
    scale_text,
    trace_digest_text,
)
from nstree import omega_nst, truncate
from nstree.cli import main
from nstree.generators import grid

GRAPHS = family_graphs()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_pair_family_matches_golden(name):
    expected = (GOLDEN / "families" / f"{name}.txt").read_text()
    assert family_text(GRAPHS[name]) == expected


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, capsys, tmp_path):
    code = main(cli_argv(name, tmp_path))
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "cli" / f"{name}.json").read_text()


@pytest.mark.parametrize("mode", ["steps", "full"])
@pytest.mark.parametrize("name", sorted(LOG_CASES))
def test_log_output_matches_golden(name, mode):
    expected = (GOLDEN / "cli" / f"{name}.{mode}.log").read_text()
    assert log_stderr(LOG_CASES[name], mode) == expected


def test_library_logs_the_cli_full_log_lines(caplog):
    # no CLI and no basicConfig: the program only enables the logger
    caplog.set_level(logging.DEBUG, logger="nstree.construct")
    omega_nst(truncate(grid(), 4), 0)
    lines = "".join(f"{r.getMessage()}\n" for r in caplog.records if r.name == "nstree.construct")
    assert lines == (GOLDEN / "cli" / "omega-grid-r4.full.log").read_text()


def test_trace_digests_match_golden():
    assert trace_digest_text() == (GOLDEN / "traces.txt").read_text()


def test_tree_order_digests_match_golden():
    assert order_text() == (GOLDEN / "order.txt").read_text()


def test_fat_tk_digests_match_golden():
    assert fattk_text() == (GOLDEN / "fattk.txt").read_text()


def test_dispersed_digests_match_golden():
    assert dispersed_text() == (GOLDEN / "dispersed.txt").read_text()


def test_cut_digests_match_golden():
    assert cuts_text() == (GOLDEN / "cuts.txt").read_text()


def test_scale_digests_match_golden():
    assert scale_text() == (GOLDEN / "scale.txt").read_text()
