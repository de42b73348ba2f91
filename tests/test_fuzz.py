"""Fuzzed command lines and representation files: no input gives a traceback.

Every run must exit 0, 2, 3 or 4, print nothing on stderr when it exits
0, and otherwise print exactly one ``error: <code>: <message>`` line,
never Python's own "Exceeds the limit" text for integers past 4300
digits. Integer flags draw values at that limit too.
Draws are bounded so that each run stays fast: points stay off the
range 13..50 that would build a large class table, and the group
closure cap is small.
"""

import contextlib
import io
import json

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from symquot import cli

FUZZ_CLOSURE_CAP = "64"


def run_quietly(argv):
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_clean_outcome(argv):
    code, out, err = run_quietly(argv)
    event(f"exit {code}")  # --hypothesis-show-statistics shows how the draws split
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in out + err
    assert "Exceeds the limit" not in err, (argv, err)  # Python's int->str text names no flag
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (
            argv, err,
        )


def outside_the_slow_table_range(text):
    try:
        value = int(text)
    except ValueError:
        return True
    return not 13 <= value <= 50


def mostly(good, bad):
    """Draw from ``good`` three times in four, else from ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: bad if k == 0 else good)


integer_text = st.one_of(
    st.integers(-3, 12),
    st.sampled_from([51, 52, 999, 1000, 1001, 10**6]),
    st.sampled_from([10**4299 - 1, 10**4299]),  # 4299 nines and 4300 digits: at the str limit
    st.integers(-(10**30), 10**30),
).map(str)
junk_text = st.one_of(
    st.sampled_from(["", "x", "1.5", "-inf", "nan", "9" * 5000, "1=2", "a=b,c"]),
    st.text(max_size=8).filter(outside_the_slow_table_range),
)
flag_value = mostly(integer_text, junk_text)
pm_value = mostly(
    st.lists(
        st.tuples(st.integers(-1, 6), st.integers(-1, 40)).map(lambda mp: f"{mp[0]}={mp[1]}"),
        min_size=1,
        max_size=4,
    ).map(",".join),
    junk_text,
)
extra_tokens = mostly(
    st.just([]),
    st.lists(
        st.one_of(st.sampled_from(["--table", "--format", "json", "--dim", "--x", "-"]), flag_value),
        min_size=1,
        max_size=2,
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    dim=flag_value,
    points=flag_value,
    table=st.booleans(),
    fmt=st.sampled_from(["json", "md", "pdf"]),
    extra=extra_tokens,
)
# n * d and the class table's s_sum pass 4300 digits here unless --dim is capped
@example(dim="9" * 4299, points="1000", table=False, fmt="json", extra=[])
@example(dim="9" * 4299, points="12", table=True, fmt="md", extra=[])
def test_sympower_argv(dim, points, table, fmt, extra):
    argv = ["sympower", "--dim", dim, "--points", points, "--format", fmt, *extra]
    if table:
        argv.append("--table")
    assert_clean_outcome(argv)


@settings(max_examples=150, deadline=None)
@given(dim=flag_value, points=flag_value, pm=pm_value, kappa=st.none() | flag_value, extra=extra_tokens)
def test_plurigenera_argv(dim, points, pm, kappa, extra):
    argv = ["plurigenera", "--dim", dim, "--points", points, "--pm", pm, *extra]
    if kappa is not None:
        argv.append(f"--kappa={kappa}")
    assert_clean_outcome(argv)


@settings(max_examples=100, deadline=None)
@given(regime=st.sampled_from(["nonneg", "general", "ruled"]), points=flag_value, extra=extra_tokens)
def test_genus_bound_argv(regime, points, extra):
    assert_clean_outcome(["genus-bound", "--regime", regime, "--points", points, *extra])


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 300), st.floats(allow_nan=False), st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=10), inner, max_size=4),
    max_leaves=12,
)
entries = st.one_of(
    st.integers(-2, 6), st.sampled_from([True, 1.0, "1", None, 10**40]), json_values
)


@st.composite
def rep_shapes(draw):
    """Mostly near-valid representation documents, sometimes any JSON value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    dimension = draw(mostly(st.integers(1, 4), st.integers(-1, 300) | entries))
    size = dimension if isinstance(dimension, int) and 0 <= dimension <= 5 else 3
    generator = st.fixed_dictionaries(
        {"perm": mostly(st.permutations(range(1, size + 1)).map(list), st.lists(entries, max_size=6))},
        optional={
            "exponents": mostly(st.lists(st.integers(-3, 20), min_size=size, max_size=size), entries)
        },
    )
    doc = {
        "dimension": dimension,
        "root_order": draw(mostly(st.integers(1, 12), st.integers(-1, 0) | entries)),
        "generators": draw(mostly(st.lists(mostly(generator, entries), max_size=3), entries)),
    }
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@pytest.fixture(scope="module")
def rep_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "rep.json"


@settings(max_examples=200, deadline=None)
@given(doc=rep_shapes(), fmt=st.sampled_from(["json", "md"]))
def test_analyze_representation_files(rep_path, doc, fmt):
    rep_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QC_CLOSURE_CAP", FUZZ_CLOSURE_CAP)
        assert_clean_outcome(["analyze", "--rep", str(rep_path), "--format", fmt])
