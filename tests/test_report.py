"""Reports against their definitions: canonical JSON against json.dumps,
the record-driven markdown class table against a renderer of payload rows.

A sympower payload's ``classes`` holds the class records; the reference
spelling of each one as a row dict is ``reference_rows``."""

import gc
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot import analyze, close_group, rep_from_dict, sympower
from symquot.combinatorics import CycleType
from symquot.plurigenera import KodairaDim, kodaira_scale, plurigenus_table
from symquot.report import (
    analyze_payload,
    canonical_json,
    fraction_str,
    markdown,
    plurigenera_payload,
    render,
    sympower_markdown,
    sympower_payload,
)
from symquot.sympower import AgeRecord


def reference_rows(records):
    """Each class record as the row dict that a JSON report parses back to."""
    return [
        {"cycle_type": list(t.parts), "class_size": size, "order": order, "s_sum": s_sum,
         "age": fraction_str(age), "det": 1 if plus_one else -1}
        for t, size, order, s_sum, age, plus_one in records
    ]


def assert_canonical(payload):
    """``canonical_json(payload)`` is ``json.dumps`` of the payload with its rows spelled out."""
    text = canonical_json(payload)
    if "classes" in payload:
        payload = {**payload, "classes": reference_rows(payload["classes"])}
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert json.loads(text) == payload


def unreachable_after(work):
    """Objects that ``work`` leaves behind in reference cycles, found by one collection."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


def test_class_table_and_its_reports_leave_no_garbage():
    # A cycle that holds a finished table keeps it alive until the cyclic
    # collector runs, which raises the peak memory of back-to-back tables.
    n, d = 3, 26

    def table_and_markdown():
        sympower_markdown(n, d, sympower.verdict(n, d), sympower.class_table(n, d))

    def table_and_json():
        canonical_json(sympower_payload(n, d, sympower.verdict(n, d), sympower.class_table(n, d)))

    assert unreachable_after(table_and_markdown) == 0
    # json's indenting encoder is built from closures that refer to one
    # another and leaves a cycle on every call; canonical_json leaves none
    assert unreachable_after(table_and_json) == 0


def test_analyze_and_plurigenera_reports_leave_no_garbage():
    closed = close_group(rep_from_dict(ANALYZE_REPS["sl-4"]))
    verdict = analyze(closed)
    table = plurigenus_table(3, 4, [(1, 2), (2, 5)])
    assert unreachable_after(lambda: canonical_json(analyze_payload(closed, verdict))) == 0
    assert unreachable_after(
        lambda: canonical_json(plurigenera_payload(table, KodairaDim(2)))
    ) == 0


def payload_markdown(payload):
    """Markdown of a sympower payload with the class table drawn from its reference rows.

    The reference for ``markdown``, which writes the same table from the
    class records without building the rows.
    """
    text = markdown({k: v for k, v in payload.items() if k != "classes"})
    if "classes" not in payload:
        return text
    lines = [
        "| cycle type | class size | order | S | age | det |",
        "| --- | --- | --- | --- | --- | --- |",
        *(
            f"| ({','.join(map(str, c['cycle_type']))}) | {c['class_size']} "
            f"| {c['order']} | {c['s_sum']} | {c['age']} | {c['det']:+d} |"
            for c in reference_rows(payload["classes"])
        ),
    ]
    return text + "\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 15))
def test_sympower_markdown_matches_payload_rows(n, d):
    v = sympower.verdict(n, d)
    records = sympower.class_table(n, d)
    for rows in (None, records, []):
        payload = sympower_payload(n, d, v, rows)
        assert markdown(payload) == sympower_markdown(n, d, v, rows) == payload_markdown(payload)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 15))
def test_sympower_payload_is_json_dumps(n, d):
    v = sympower.verdict(n, d)
    assert_canonical(sympower_payload(n, d, v))
    assert_canonical(sympower_payload(n, d, v, sympower.class_table(n, d)))


def test_sympower_payload_holds_the_records_themselves():
    records = sympower.class_table(3, 5)
    assert sympower_payload(3, 5, sympower.verdict(3, 5), records)["classes"] is records
    assert "classes" not in sympower_payload(3, 5, sympower.verdict(3, 5))


def test_empty_class_list_is_json_dumps():
    payload = sympower_payload(2, 1, sympower.verdict(2, 1), [])
    assert canonical_json(payload).count('"classes": []') == 1
    assert_canonical(payload)


def test_class_rows_escape_strings_like_json_dumps():
    # a class size past any float, and a nested "classes" key that is not the class table
    record = AgeRecord(CycleType((3, 1)), 10**40, 3, 3, Fraction(1, 1), True)
    odd = AgeRecord(CycleType((2, 1, 1)), 6, 2, 3, Fraction(3, 2), False)
    assert_canonical({"classes": [record, odd, record], "meta": {"classes": None}})


@pytest.mark.parametrize("fmt", ["json", "md"])
def test_class_table_render_stays_within_three_times_its_text(fmt):
    # n = 3, d = 40: 37 338 rows; payload and render may hold little beyond the output
    n, d = 3, 40
    v, records = sympower.verdict(n, d), sympower.class_table(n, d)
    tracemalloc.start()
    try:
        text = render(sympower_payload(n, d, v, records), fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text), f"traced peak {peak} B for {len(text)} B of {fmt}"


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
    rows=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 30)), min_size=1, max_size=6,
                  unique_by=lambda r: r[0]),
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
