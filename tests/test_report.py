"""Canonical JSON: the class-row template against its definition, json.dumps."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot import analyze, close_group, rep_from_dict, sympower
from symquot.plurigenera import KodairaDim, kodaira_scale, plurigenus_table
from symquot.report import (
    analyze_payload,
    canonical_json,
    plurigenera_payload,
    sympower_payload,
)


def assert_canonical(payload):
    text = canonical_json(payload)
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert json.loads(text) == payload


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 15))
def test_sympower_payload_is_json_dumps(n, d):
    v = sympower.verdict(n, d)
    assert_canonical(sympower_payload(n, d, v))
    assert_canonical(sympower_payload(n, d, v, sympower.class_table(n, d)))


def test_empty_class_list_is_json_dumps():
    payload = sympower_payload(2, 1, sympower.verdict(2, 1), [])
    assert canonical_json(payload).count('"classes": []') == 1
    assert_canonical(payload)


def test_class_rows_escape_strings_like_json_dumps():
    row = {"age": 'é"\\\n', "class_size": 10**40, "cycle_type": [3, 1], "det": -1,
           "order": 3, "s_sum": 0}
    assert_canonical({"classes": [row, row], "meta": {"classes": None}})


def generator(perm, exponents):
    return {"perm": perm, "exponents": exponents}


ANALYZE_REPS = {
    "trivial": {"dimension": 2, "root_order": 1, "generators": []},
    "half-1-1-1": {"dimension": 3, "root_order": 2,
                   "generators": [generator([1, 2, 3], [1, 1, 1])]},
    "zeta4-swap": {"dimension": 2, "root_order": 4,
                   "generators": [generator([2, 1], [1, 0])]},
    "diag-6-1-5": {"dimension": 2, "root_order": 6,
                   "generators": [generator([1, 2], [1, 5])]},
    "sl-4": {"dimension": 3, "root_order": 4, "generators": [
        generator([1, 2, 3], [1, 3, 0]),
        generator([1, 2, 3], [0, 1, 3]),
        generator([2, 3, 1], [0, 0, 0]),
    ]},
    "wreath-3": {"dimension": 4, "root_order": 3, "generators": [
        generator([3, 4, 1, 2], [0, 0, 0, 0]),
        generator([1, 2, 3, 4], [1, 2, 0, 0]),
    ]},
    "sym-2-3": {"dimension": 6, "root_order": 1, "generators": [
        generator([2, 1, 3, 5, 4, 6], [0] * 6),
        generator([1, 3, 2, 4, 6, 5], [0] * 6),
    ]},
}


@pytest.mark.parametrize("name", sorted(ANALYZE_REPS))
def test_analyze_payload_is_json_dumps(name):
    closed = close_group(rep_from_dict(ANALYZE_REPS[name]))
    assert_canonical(analyze_payload(closed, analyze(closed)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 6),
    d=st.integers(1, 40),
    rows=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 30)), min_size=1, max_size=6),
    kappa=st.none() | st.integers(-1, 6),
)
def test_plurigenera_payload_is_json_dumps(n, d, rows, kappa):
    table = plurigenus_table(n, d, rows)
    if kappa is None:
        payload = plurigenera_payload(table)
    else:
        k = KodairaDim(None) if kappa < 0 else KodairaDim(kappa)
        payload = plurigenera_payload(table, k)
        assert payload["kodaira"] == {"input": str(k), "scaled": str(kodaira_scale(k, d))}
    assert_canonical(payload)
