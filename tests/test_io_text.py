"""What the io readers make of the text around the JSON: a leading
byte-order mark, and integers past Python's digit limit."""

from __future__ import annotations

import sys

import pytest

from nstree.io import loads_cert, loads_cover, loads_graph, loads_tree

BOM = "﻿"

READERS = {
    "graph JSON": (loads_graph, '{"vertices": [0], "edges": [[0, 1]]}'),
    "edge list": (loads_graph, "0 1\n2\n"),
    "tree": (loads_tree, '{"root": 0, "parent": {"1": 0, "2": 1}}'),
    "certificate": (loads_cert, '{"branch": [0, 1], "m": 2, "paths": {"0,1": [[0, 1], [0, 2, 1]]}}'),
    "cover": (loads_cover, "[[0], [1, 2]]"),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_every_reader_drops_one_leading_byte_order_mark(reader):
    load, text = READERS[reader]
    assert load(BOM + text) == load(text)


@pytest.mark.parametrize("reader", list(READERS))
def test_a_second_byte_order_mark_is_not_dropped(reader):
    load, text = READERS[reader]
    with pytest.raises(ValueError):
        load(BOM + BOM + text)


def test_a_byte_order_mark_inside_the_text_is_not_dropped():
    with pytest.raises(ValueError, match="expected decimal ids"):
        loads_graph("0 1\n" + BOM + "2 3\n")


def test_an_integer_past_the_digit_limit_is_reported_without_python_advice():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer digit limit")
    big = "9" * (limit + 1)
    for text in (f'{{"vertices": [{big}], "edges": []}}', f'{{"vertices": [-{big}], "edges": []}}'):
        with pytest.raises(ValueError) as info:
            loads_graph(text)
        assert str(info.value) == f"invalid JSON: an integer has more than {limit} digits"
    # at the limit the id reads, and other decoder messages are Python's own
    assert loads_graph(f'{{"vertices": [{"9" * limit}], "edges": []}}').vertices == (int("9" * limit),)
    with pytest.raises(ValueError, match=r"^invalid JSON: Expecting value: line 1 column 2 \(char 1\)$"):
        loads_tree("[")
    with pytest.raises(ValueError, match="^invalid JSON: duplicate key 'root'$"):
        loads_tree('{"root": 0, "root": 1, "parent": {}}')
