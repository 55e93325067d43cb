"""Untrusted text inputs fail only with ValueError, whatever they hold."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gamelab.engine import MoveLog
from gamelab.graph import cycle, read_edge_list

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(0, 3) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)
RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "r": st.integers(0, 4) | JSON_VALUES,
        "p": st.sampled_from(["M", "B", "X"]) | JSON_VALUES,
        "e": st.lists(st.integers(-1, 6), max_size=3) | JSON_VALUES,
        "c": st.integers(-1, 4) | JSON_VALUES,
        "skip": JSON_VALUES,
        "ann": st.dictionaries(st.sampled_from(["v", "box"]), JSON_VALUES) | JSON_VALUES,
    },
)
LOG_LINES = st.one_of(
    RECORDS.map(json.dumps), JSON_VALUES.map(json.dumps), st.text(max_size=20)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(LOG_LINES, max_size=5))
def test_from_jsonl_raises_only_value_error(lines):
    try:
        MoveLog.from_jsonl("\n".join(lines), cycle(5))
    except ValueError:
        pass


EDGE_LIST_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.integers(-2, 10**12).map(str),
    st.sampled_from(["x", "#", "1.5", "0x1", "-", ""]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(EDGE_LIST_TOKENS, max_size=3).map(" ".join), max_size=6))
def test_read_edge_list_raises_only_value_error(lines):
    try:
        read_edge_list("\n".join(lines))
    except ValueError:
        pass
