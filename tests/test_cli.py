"""CLI behavior: subcommands, formats, exit codes, and determinism."""

import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

from symquot import cli, monomial
from symquot.monomial import GENERATORS_CAP, ROOT_ORDER_BITS_CAP
from symquot.report import canonical_json
from symquot.sympower import DIM_BITS_CAP


def test_sympower_markdown_verdict(run_cli):
    code, out, err = run_cli("sympower", "--dim", "2", "--points", "3")
    assert code == 0 and err == ""
    assert "canonical: true" in out
    assert "gorenstein: true" in out
    assert "index: 1" in out


def test_sympower_json_roundtrips_byte_identically(run_cli):
    code, out, _ = run_cli(
        "sympower", "--dim", "3", "--points", "3", "--table", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert canonical_json(payload) == out
    assert payload["verdict"]["index"] == 2
    assert payload["verdict"]["min_age"] == "3/2"
    assert payload["meta"] == {"version": "0.1.0"}


def test_sympower_table_rows_in_canonical_order(run_cli):
    code, out, _ = run_cli("sympower", "--dim", "2", "--points", "4", "--table")
    assert code == 0
    positions = [out.index(f"| {label} |") for label in ["(4)", "(3,1)", "(2,2)", "(2,1,1)", "(1,1,1,1)"]]
    assert positions == sorted(positions)


def test_sympower_rejects_dim_one_as_domain_error(run_cli):
    code, out, err = run_cli("sympower", "--dim", "1", "--points", "3")
    assert code == 3
    assert err.startswith("error: unsupported-dimension:")
    assert "quasi-reflection" in err
    assert err.count("\n") == 1  # single machine-parsable line


def test_sympower_rejects_zero_points_as_usage_error(run_cli):
    code, _, err = run_cli("sympower", "--dim", "2", "--points", "0")
    assert code == 2
    assert err.startswith("error: usage:")


def test_sympower_large_points_answers_without_a_scan(run_cli):
    code, out, err = run_cli("sympower", "--dim", "2", "--points", "100")
    assert code == 0 and err == ""
    assert "min age: 1/1 at (2," in out


@pytest.mark.parametrize(
    "argv",
    [
        ("--points", "51", "--table"),
        ("--points", "1001"),
        ("--points", "1000000"),
        ("--points", "1000000", "--table"),
    ],
)
def test_sympower_points_caps_are_domain_errors(run_cli, argv):
    code, out, err = run_cli("sympower", "--dim", "2", *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: too-many-points:")
    assert err.count("\n") == 1


def test_sympower_at_the_verdict_cap_prints_the_group_order(run_cli):
    code, out, err = run_cli("sympower", "--dim", "2", "--points", "1000", "--format", "json")
    assert code == 0 and err == ""
    assert len(str(json.loads(out)["verdict"]["group_order"])) == 2568  # digits of 1000!


@pytest.mark.parametrize(
    "argv",
    [
        ("--points", "1000", "--format", "json"),
        ("--points", "50", "--table"),
    ],
)
def test_sympower_dim_past_its_bit_cap_is_one_domain_line(run_cli, argv):
    code, out, err = run_cli("sympower", "--dim", "9" * 4299, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: matrix-too-large:") and err.count("\n") == 1
    assert "--dim has 14281 bits" in err and "Exceeds the limit" not in err


def test_sympower_at_the_dim_cap_prints_every_integer(run_cli):
    n = 2**DIM_BITS_CAP - 1
    code, out, err = run_cli("sympower", "--dim", str(n), "--points", "1000", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["model"]["matrix_size"] == n * 1000
    code, out, err = run_cli("sympower", "--dim", str(n), "--points", "4", "--table")
    assert code == 0 and err == ""
    assert f"| (2,2) | 3 | 2 | {n * 2} |" in out
    # the largest s_sum at the table cap: d - #parts <= 49, order <= g(50) = 180180
    assert len(str(n * 49 * 180180 // 2)) < sys.get_int_max_str_digits()


def test_missing_required_flag_is_usage_error(run_cli):
    code, _, _ = run_cli("sympower", "--dim", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv,reason",
    [
        (("sympower", "--dim", "x", "--points", "3"), "argument --dim: invalid int value: 'x'"),
        (("sympower", "--dim", "2"), "the following arguments are required: --points"),
        (("sympower", "--dim", "2", "--points", "3", "--format", "pdf"), "argument --format"),
        (("sympower", "--dim", "2", "--points", "3", "--extra"), "unrecognized arguments"),
        (("bogus",), "invalid choice: 'bogus'"),
        ((), "the following arguments are required: command"),
        (("genus-bound", "--regime", "nonneg", "--points", "9" * 5000), "invalid int value"),
    ],
)
def test_argparse_errors_are_one_usage_line(run_cli, argv, reason):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: usage: ") and reason in err
    assert err.count("\n") == 1


def test_help_flag_prints_usage_and_exits_zero(run_cli):
    code, out, err = run_cli("sympower", "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: symquot sympower")


@pytest.mark.parametrize(
    "flags,flag",
    [
        (("--pm", "1=" + "9" * 5000), "--pm"),
        (("--pm", "a=2"), "--pm"),
        (("--pm", "1=1", "--kappa", "9" * 5000), "--kappa"),
        (("--pm", "1=1", "--kappa", "two"), "--kappa"),
    ],
)
def test_plurigenera_non_integer_flag_is_one_usage_line_naming_the_flag(run_cli, flags, flag):
    code, out, err = run_cli("plurigenera", "--dim", "2", "--points", "2", *flags)
    assert code == 2 and out == ""
    assert err.startswith(f"error: usage: {flag} takes integers")
    assert "invalid literal" not in err and "Exceeds the limit" not in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0", "0.5"])
def test_selftest_rejects_a_tolerance_that_disables_the_check(run_cli, tolerance):
    # the tolerance is a constant, so no value of it can be passed at all
    code, out, err = run_cli("selftest", "--tolerance", tolerance)
    assert code == 2 and out == ""
    assert err == f"error: usage: unrecognized arguments: --tolerance {tolerance}\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--max-dim", "1", "--max-points", "65"),  # the range is checked before the matrix cap
        ("--max-dim", "1", "--max-points", "0"),
        ("--max-dim", "1"),
        ("--max-points", "0"),
        ("--max-dim", "-3", "--max-points", "-3"),
    ],
)
def test_selftest_rejects_a_range_with_nothing_to_check(run_cli, flags):
    code, out, err = run_cli("selftest", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: usage: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "max_dim, max_points", [("8", "9"), ("2", "33"), ("65", "1"), ("9" * 3000, "9" * 3000)]
)
def test_selftest_past_the_matrix_cap_fails_before_any_output(run_cli, max_dim, max_points):
    code, out, err = run_cli("selftest", "--max-dim", max_dim, "--max-points", max_points)
    assert code == 3 and out == ""
    assert err.startswith("error: matrix-too-large: selftest range needs brute-force matrices")
    assert f"= {max_dim} * {max_points}, over the cap of 64" in err
    assert err.count("\n") == 1


def test_selftest_at_the_matrix_cap_runs(run_cli):
    code, out, err = run_cli("selftest", "--max-dim", "64", "--max-points", "1")
    assert code == 0 and err == ""
    assert "selftest: oracle n=64, d=1..1: 1 classes" in out


@pytest.mark.parametrize("buffered", [False, True])
def test_closed_stdout_is_one_io_line_and_exit_5(buffered):
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        result = subprocess.run(
            [sys.executable, "-m", "symquot", "sympower", "--dim", "2", "--points", "5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 5
    assert result.stderr == "error: io: stdout closed\n"


def test_analyze_reads_rep_file(run_cli, tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(
        json.dumps(
            {
                "dimension": 3,
                "root_order": 2,
                "generators": [{"perm": [1, 2, 3], "exponents": [1, 1, 1]}],
            }
        )
    )
    code, out, _ = run_cli("analyze", "--rep", str(rep), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["terminal"] is True
    assert payload["verdict"]["index"] == 2
    assert payload["verdict"]["min_age"] == "3/2"
    assert canonical_json(payload) == out


def test_analyze_quasi_reflection_is_domain_error(run_cli, tmp_path):
    rep = tmp_path / "reflection.json"
    rep.write_text(
        json.dumps(
            {"dimension": 2, "root_order": 1, "generators": [{"perm": [2, 1]}]}
        )
    )
    code, _, err = run_cli("analyze", "--rep", str(rep))
    assert code == 3
    assert err.startswith("error: quasi-reflection:")
    assert "perm[2,1]" in err


def test_analyze_closure_cap_is_domain_error(run_cli, tmp_path, monkeypatch):
    monkeypatch.setenv("QC_CLOSURE_CAP", "10")
    rep = tmp_path / "s4.json"
    rep.write_text(
        json.dumps(
            {
                "dimension": 4,
                "root_order": 1,
                "generators": [
                    {"perm": [2, 1, 3, 4]},
                    {"perm": [1, 3, 2, 4]},
                    {"perm": [1, 2, 4, 3]},
                ],
            }
        )
    )
    code, _, err = run_cli("analyze", "--rep", str(rep))
    assert code == 3
    assert err.startswith("error: group-too-large:")
    assert "10" in err


@pytest.mark.parametrize(
    "value",
    [
        "0",
        "-5",
        "abc",
        "1.5",
        pytest.param("9" * 5000, id="5000-digits"),  # past int()'s digit limit
        pytest.param("\u0663", id="arabic-indic-3"),  # a decimal digit outside ASCII
    ],
)
def test_analyze_bad_closure_cap_is_usage_error(run_cli, tmp_path, monkeypatch, value):
    monkeypatch.setenv("QC_CLOSURE_CAP", value)
    rep = tmp_path / "rep.json"
    rep.write_text('{"dimension": 2, "root_order": 2, "generators": []}')
    code, out, err = run_cli("analyze", "--rep", str(rep))
    assert code == 2 and out == ""
    assert err.startswith("error: usage: QC_CLOSURE_CAP must be an integer >= 1")
    assert err.count("\n") == 1


def test_analyze_dimension_cap_is_domain_error(run_cli, tmp_path):
    rep = tmp_path / "wide.json"
    rep.write_text('{"dimension": 200000, "root_order": 1, "generators": []}')
    code, out, err = run_cli("analyze", "--rep", str(rep))
    assert code == 3 and out == ""
    assert err.startswith("error: matrix-too-large:")
    assert err.count("\n") == 1


def test_analyze_generators_past_their_cap_is_one_domain_line(run_cli, tmp_path):
    # malformed generators too: the count is checked before any generator is read
    gens = [{"perm": [2, 3, 1]}] * GENERATORS_CAP + [{"perm": [1, 1, 3]}]
    rep = tmp_path / "many-generators.json"
    rep.write_text(json.dumps({"dimension": 3, "root_order": 1, "generators": gens}))
    code, out, err = run_cli("analyze", "--rep", str(rep))
    assert code == 3 and out == ""
    assert err == "error: group-too-large: 65 generators exceed the cap of 64\n"
    rep.write_text(json.dumps({"dimension": 3, "root_order": 1, "generators": gens[:-1]}))
    code, out, err = run_cli("analyze", "--rep", str(rep), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["model"]["num_generators"] == GENERATORS_CAP


def test_analyze_root_order_past_its_bit_cap_is_one_domain_line(run_cli, tmp_path):
    m = int("9" * 4300)  # as many digits as an integer string may have
    rep = tmp_path / "huge-root-order.json"
    rep.write_text(json.dumps({
        "dimension": 8,
        "root_order": m,
        "generators": [{"perm": list(range(1, 9)), "exponents": [m - 1] * 8}],
    }))
    started = time.monotonic()
    code, out, err = run_cli("analyze", "--rep", str(rep))
    assert time.monotonic() - started < 0.5
    assert code == 3 and out == ""
    assert err == (
        f"error: matrix-too-large: root_order has {m.bit_length()} bits, "
        f"over the cap of {ROOT_ORDER_BITS_CAP}\n"
    )


def test_analyze_malformed_file_is_usage_error(run_cli, tmp_path):
    rep = tmp_path / "broken.json"
    rep.write_text("{not json")
    code, _, err = run_cli("analyze", "--rep", str(rep))
    assert code == 2
    assert err.startswith("error: usage:")


@pytest.mark.parametrize(
    "text",
    [
        '{"dimension": 2, "root_order": 0, "generators": [{"perm": [2, 1], "exponents": [1, 1]}]}',
        '{"dimension": 2, "root_order": 2, "generators": [{"perm": ["a", 2], "exponents": [1, 1]}]}',
        '{"dimension": 2, "root_order": 2, "generators": [{"perm": [1.0, 2], "exponents": [1, 1]}]}',
        '{"dimension": 2, "root_order": 2, "generators": 5}',
        "[]",
        "5",
        '"x"',
        "null",
    ],
)
def test_analyze_ill_typed_file_is_one_usage_line(run_cli, tmp_path, text):
    rep = tmp_path / "ill-typed.json"
    rep.write_text(text)
    code, out, err = run_cli("analyze", "--rep", str(rep))
    assert code == 2 and out == ""
    assert err.startswith("error: usage:")
    assert err.count("\n") == 1
    if not text.startswith("{"):
        assert "must hold a JSON object" in err and "missing field" not in err


def test_analyze_file_past_its_character_cap_is_one_domain_line(run_cli, tmp_path, monkeypatch):
    monkeypatch.setattr(monomial, "REP_FILE_CHARS_CAP", 100)
    text = '{"dimension": 1, "root_order": 1, "generators": []}'
    rep = tmp_path / "padded.json"
    rep.write_text(text + " " * (100 - len(text)))  # exactly at the cap
    code, out, err = run_cli("analyze", "--rep", str(rep), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["model"]["dimension"] == 1
    rep.write_text(text + " " * (101 - len(text)))  # one past it
    code, out, err = run_cli("analyze", "--rep", str(rep))
    assert code == 3 and out == ""
    assert err == (
        f"error: matrix-too-large: representation file {rep} is longer than "
        "the cap of 100 characters\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_analyze_endless_file_stops_at_the_character_cap(run_cli):
    code, out, err = run_cli("analyze", "--rep", "/dev/zero")
    assert code == 3 and out == ""
    assert err == (
        "error: matrix-too-large: representation file /dev/zero is longer than "
        f"the cap of {monomial.REP_FILE_CHARS_CAP} characters\n"
    )


def test_analyze_deeply_nested_file_is_one_usage_line(run_cli, tmp_path):
    rep = tmp_path / "deep.json"
    rep.write_text("[" * 200000)
    code, out, err = run_cli("analyze", "--rep", str(rep))
    assert code == 2 and out == ""
    assert err.startswith("error: usage:") and "nested too deeply" in err
    assert err.count("\n") == 1


def test_analyze_overlong_integer_is_one_usage_line(run_cli, tmp_path):
    rep = tmp_path / "long.json"
    rep.write_text(
        '{"dimension": 1, "root_order": 2, "generators": '
        '[{"perm": [1], "exponents": [%s]}]}' % ("9" * 5001)
    )
    code, out, err = run_cli("analyze", "--rep", str(rep))
    assert code == 2 and out == ""
    assert err.startswith("error: usage:")
    assert str(rep) in err and "4300-digit limit" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("exc", [RuntimeError("boom\nsecond line"), KeyError("missing")])
def test_unexpected_exception_is_one_internal_line(run_cli, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_sympower", fail)
    code, out, err = run_cli("sympower", "--dim", "2", "--points", "3")
    assert code == 4 and out == ""
    assert err.startswith(f"error: internal: {type(exc).__name__}: ")
    assert err.count("\n") == 1


def test_analyze_missing_file_is_usage_error(run_cli, tmp_path):
    code, _, _ = run_cli("analyze", "--rep", str(tmp_path / "nope.json"))
    assert code == 2


def test_plurigenera_markdown(run_cli):
    code, out, _ = run_cli(
        "plurigenera", "--dim", "3", "--points", "2", "--pm", "1=5,2=3"
    )
    assert code == 0
    assert "| 1 | 5 | 15 | false |" in out
    assert "| 2 | 3 | 6 | true |" in out


def test_plurigenera_with_kodaira_scaling(run_cli):
    code, out, _ = run_cli(
        "plurigenera",
        "--dim", "2", "--points", "3", "--pm", "1=2", "--kappa", "2",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kodaira"] == {"input": "2", "scaled": "6"}
    assert payload["rows"] == [{"m": 1, "p_m_sigma": 4, "p_m_x": 2, "valid": True}]


def test_plurigenera_minus_infinity_kappa(run_cli):
    code, out, _ = run_cli(
        "plurigenera", "--dim", "2", "--points", "4", "--pm", "1=0", "--kappa=-inf"
    )
    assert code == 0
    assert "-inf scales to -inf" in out


def test_plurigenera_kappa_above_dim_is_usage_error(run_cli):
    code, _, err = run_cli(
        "plurigenera", "--dim", "2", "--points", "2", "--pm", "1=1", "--kappa", "5"
    )
    assert code == 2
    assert err == "error: usage: Kodaira dimension 5 exceeds the ambient dimension 2\n"
    code, _, err = run_cli(
        "plurigenera", "--dim", "2", "--points", "2", "--pm", "1=1", "--kappa", "-1"
    )
    assert code == 2
    assert err == "error: usage: finite Kodaira dimension cannot be negative: -1\n"


def test_plurigenera_rejects_dim_one_as_sympower_does(run_cli):
    plurigenera = run_cli("plurigenera", "--dim", "1", "--points", "3", "--pm", "1=1")
    sympower = run_cli("sympower", "--dim", "1", "--points", "3")
    assert plurigenera == sympower
    assert plurigenera[0] == 3 and plurigenera[2].startswith("error: unsupported-dimension:")


def test_plurigenera_at_the_bit_cap_prints_the_value(run_cli):
    code, out, _ = run_cli(
        "plurigenera", "--dim", "2", "--points", "1000", "--pm", "2=8000", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["rows"][0]["p_m_sigma"] == math.comb(8999, 1000)


@pytest.mark.parametrize("points,pm", [("1001", "2=8000"), ("10000", "2=10000")])
def test_plurigenera_past_the_bit_cap_is_one_domain_line(run_cli, points, pm):
    started = time.perf_counter()
    code, out, err = run_cli("plurigenera", "--dim", "2", "--points", points, "--pm", pm)
    assert time.perf_counter() - started < 0.5
    assert code == 3
    assert out == ""
    assert err.startswith("error: too-many-points:") and err.count("\n") == 1
    assert "--points" in err and "--pm" in err


def test_genus_bound_past_the_bit_cap_is_one_domain_line(run_cli):
    code, out, err = run_cli("genus-bound", "--regime", "general", "--points", "9" * 4300)
    assert code == 3 and out == ""
    assert err.startswith("error: too-many-points:") and err.count("\n") == 1
    assert "--points" in err


def test_plurigenera_scaled_kappa_past_the_bit_cap_is_one_domain_line(run_cli):
    huge = "9" * 4300
    code, out, err = run_cli(
        "plurigenera", "--dim", huge, "--points", huge, "--pm", "2=1", "--kappa", "9" * 4299
    )
    assert code == 3 and out == ""
    assert err.startswith("error: too-many-points:") and err.count("\n") == 1
    assert "--points" in err and "--kappa" in err


def test_plurigenera_bad_pm_is_usage_error(run_cli):
    code, _, err = run_cli(
        "plurigenera", "--dim", "2", "--points", "2", "--pm", "nonsense"
    )
    assert code == 2
    assert err.startswith("error: usage:")


SYMPOWER_TABLE_MD = """\
# Symmetric-power model: 3 copies of the S_3 permutation action

- canonical: true
- terminal: true
- gorenstein: false
- index: 2
- group order: 6
- min age: 3/2 at (2,1)

| cycle type | class size | order | S | age | det |
| --- | --- | --- | --- | --- | --- |
| (3) | 2 | 3 | 9 | 3/1 | +1 |
| (2,1) | 3 | 2 | 3 | 3/2 | -1 |
| (1,1,1) | 1 | 1 | 0 | 0/1 | +1 |
"""

TRIVIAL_GROUP_MD = """\
# Monomial group on C^2 (root order 1)

- canonical: true
- terminal: true
- gorenstein: true
- index: 1
- group order: 1
- min age: inf (trivial group, smooth point)
"""

PLURIGENERA_KAPPA_MD = """\
# Plurigenera of the degree-2 symmetric power (dim 3)

| m | P_m(X) | P_m(sym^d) | parity valid |
| --- | --- | --- | --- |
| 1 | 5 | 15 | false |
| 2 | 3 | 6 | true |

- Kodaira dimension: 2 scales to 4
"""


def test_sympower_table_markdown_layout(run_cli):
    assert run_cli("sympower", "--dim", "3", "--points", "3", "--table") == (
        0, SYMPOWER_TABLE_MD, ""
    )


def test_analyze_trivial_group_markdown_layout(run_cli, tmp_path):
    rep = tmp_path / "trivial.json"
    rep.write_text('{"dimension": 2, "root_order": 1, "generators": []}')
    assert run_cli("analyze", "--rep", str(rep)) == (0, TRIVIAL_GROUP_MD, "")


def test_plurigenera_kodaira_markdown_layout(run_cli):
    assert run_cli(
        "plurigenera", "--dim", "3", "--points", "2", "--pm", "1=5,2=3", "--kappa=2"
    ) == (0, PLURIGENERA_KAPPA_MD, "")


def test_json_reports_hold_no_float(run_cli, tmp_path):
    def refuse(text):
        raise AssertionError(f"float {text} in a JSON report")

    rep = tmp_path / "cyclic.json"
    rep.write_text(
        '{"dimension": 3, "root_order": 2, "generators": [{"perm": [1, 2, 3], "exponents": [1, 1, 1]}]}'
    )
    for argv in (
        ("sympower", "--dim", "3", "--points", "4", "--table"),
        ("analyze", "--rep", str(rep)),
        ("plurigenera", "--dim", "2", "--points", "3", "--pm", "1=2,2=5,4=14", "--kappa", "2"),
    ):
        code, out, err = run_cli(*argv, "--format", "json")
        assert code == 0 and err == ""
        json.loads(out, parse_float=refuse)


def test_genus_bound_output(run_cli):
    code, out, _ = run_cli("genus-bound", "--regime", "general", "--points", "4")
    assert code == 0
    assert out == "minimal genus: 5\n"
    code, out, _ = run_cli("genus-bound", "--regime", "nonneg", "--points", "5")
    assert code == 0
    assert out == "minimal genus: 5\n"


def test_selftest_small_range_passes(run_cli):
    code, out, _ = run_cli("selftest", "--max-dim", "2", "--max-points", "4")
    assert code == 0
    assert "selftest: OK" in out


def test_selftest_prints_every_section_line(run_cli):
    code, out, err = run_cli("selftest", "--max-dim", "3", "--max-points", "3")
    assert (code, err) == (0, "")
    assert re.sub(r"\(\d+\.\d+s\)", "(<t>s)", out).splitlines() == [
        "selftest: oracle n=2, d=1..3: 6 classes",
        "selftest: oracle n=3, d=1..3: 6 classes",
        "selftest: verdict scan n=2..3, d=2..3",
        "selftest: cross-engine agreement on materialized groups",
        "selftest: Terminal Lemma 1/r(a,b,c), r=2..19: 14825 cases",
        "selftest: Burnside identity p=0..10, d=1..10",
        "selftest: plurigenus growth exponents",
        "selftest: OK (<t>s)",
    ]


def test_selftest_reports_both_verdicts_when_the_engines_disagree(run_cli, monkeypatch):
    from symquot import monomial

    analyze = monomial.analyze
    monkeypatch.setattr(monomial, "analyze", lambda rep: analyze(rep)._replace(index=7))
    code, out, _ = run_cli("selftest", "--max-dim", "2", "--max-points", "2")
    assert code == 1
    (line,) = [line for line in out.splitlines() if "cross-engine n=2 d=2" in line]
    assert "index=7" in line and "index=1" in line
    assert "FAILED with 1 discrepancies" in out


def test_selftest_reports_each_failing_oracle_row(run_cli, monkeypatch):
    from symquot import oracle

    monkeypatch.setattr(oracle, "numeric_exponents", lambda matrix, order: (0,) * len(matrix))
    code, out, _ = run_cli("selftest", "--max-dim", "2", "--max-points", "2")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("selftest FAILURE")] == [
        "selftest FAILURE: oracle n=2 d=2 class (2): exponent multisets differ: "
        "numeric (0, 0, 0, 0) vs constructed (0, 0, 1, 1)"
    ]
    assert "FAILED with 1 discrepancies" in out


def test_identical_invocations_produce_identical_output(run_cli):
    first = run_cli("sympower", "--dim", "4", "--points", "4", "--table", "--format", "json")
    second = run_cli("sympower", "--dim", "4", "--points", "4", "--table", "--format", "json")
    assert first == second


def test_version_flag(run_cli):
    code, out, _ = run_cli("--version")
    assert code == 0
    assert out.startswith("symquot ")


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "symquot", "genus-bound", "--regime", "nonneg", "--points", "5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "minimal genus: 5\n"


def test_cli_import_leaves_dataclasses_inspect_and_oracle_unloaded():
    # the oracle, and numpy behind it, load for selftest and nothing else
    script = (
        "import sys\n"
        "import symquot.cli\n"
        "heavy = ('dataclasses', 'inspect', 'symquot.oracle', 'numpy')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "symquot.cli.run(['selftest', '--max-dim', '2', '--max-points', '1'])\n"
        "print('symquot.oracle' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "[]"
    assert "selftest: OK" in lines[-2]
    assert lines[-1] == "True"


def test_import_leaves_numpy_unloaded():
    # numpy is only for the numeric oracle; CLI start-up must not pay for it
    result = subprocess.run(
        [sys.executable, "-c", "import symquot, sys; assert 'numpy' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
