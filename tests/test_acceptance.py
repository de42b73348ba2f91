"""Acceptance suite: one test per release criterion, with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import json
import time
from fractions import Fraction

from symquot import analyze, close_group, oracle, sym_dim, verdict
from symquot.combinatorics import CycleType
from symquot.monomial import MonomialElement, MonomialRep
from symquot.oracle import (
    bruteforce_check,
    growth_exponent_check,
    invariant_dim_burnside,
    materialize_rep,
)
from symquot import cli

DIM_RANGE = range(2, 7)
POINT_RANGE = range(2, 10)


def test_criterion_1_proposition_reproduction():
    started = time.monotonic()
    for n in DIM_RANGE:
        for d in POINT_RANGE:
            v = verdict(n, d)
            assert v.canonical, f"n={n} d={d} must be canonical"
            expected_index = 1 if n % 2 == 0 else 2
            assert v.index == expected_index, f"n={n} d={d} index {v.index}"
            assert v.gorenstein == (expected_index == 1)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"verdict sweep took {elapsed:.1f}s, budget 10s"
    print(
        f"\n[criterion 1] PASS: canonical everywhere, index 1 for even dim and 2 "
        f"for odd dim over n=2..6, d=2..9 ({elapsed:.2f}s)"
    )


def test_criterion_2_oracle_equivalence(capsys):
    started = time.monotonic()
    for n in DIM_RANGE:
        for d in POINT_RANGE:
            failures = [row for row in bruteforce_check(n, d) if not row.passed]
            assert failures == [], f"n={n} d={d}: {failures}"
    assert oracle.TOLERANCE == 1e-6
    code = cli.run(["selftest", "--max-dim", "6", "--max-points", "9"])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert code == 0, "selftest reported discrepancies"
    assert "selftest: OK" in out
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s, budget 60s"
    with capsys.disabled():
        print(
            f"\n[criterion 2] PASS: numeric oracle, exact element exponents, and "
            f"closed form agree on every class, selftest exit 0 ({elapsed:.2f}s)"
        )


def test_criterion_3_minimal_age_law():
    for n in DIM_RANGE:
        for d in POINT_RANGE:
            v = verdict(n, d)
            assert v.min_age == Fraction(n, 2), f"n={n} d={d} min age {v.min_age}"
            transposition = CycleType((2,) + (1,) * (d - 2))
            assert v.witness == str(transposition)
            # canonical bound is attained exactly at n = 2
            assert (v.min_age == 1) == (n == 2)
    print(
        "\n[criterion 3] PASS: minimal non-identity age is n/2 at the "
        "transposition class; equality with the canonical bound only at n=2"
    )


def test_criterion_4_cross_engine_agreement():
    pairs = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))
    for n, d in pairs:
        closed = close_group(materialize_rep(n, d))
        assert len(closed.flat_elements) <= 24
        via_group = analyze(closed)
        via_classes = verdict(n, d)
        assert via_group.canonical == via_classes.canonical
        assert via_group.terminal == via_classes.terminal
        assert via_group.gorenstein == via_classes.gorenstein
        assert via_group.index == via_classes.index
        assert via_group.group_order == via_classes.group_order
        assert via_group.min_age == via_classes.min_age
    print(
        "\n[criterion 4] PASS: materialized-group analyzer and closed-form "
        "engine give identical verdicts on all six model cases"
    )


def test_criterion_5_burnside_identity():
    checked = 0
    for p in range(0, 11):
        for d in range(1, 11):
            assert invariant_dim_burnside(p, d) == sym_dim(p, d)
            checked += 1
    assert checked == 110
    print("\n[criterion 5] PASS: Burnside average equals the binomial on all 110 pairs")


def test_criterion_6_growth_exponents():
    for kappa in (0, 1, 2):
        for d in (2, 3):
            rows = [(m, m**kappa) for m in range(2, 61, 2)]
            slope = growth_exponent_check(rows, d)
            assert abs(slope - d * kappa) < 0.2, (
                f"kappa={kappa} d={d}: slope {slope:.4f} vs target {d * kappa}"
            )
    print(
        "\n[criterion 6] PASS: fitted log-log growth exponents within 0.2 of "
        "d*kappa for kappa in {0,1,2}, d in {2,3}"
    )


def test_criterion_7_classical_spot_checks():
    def cyclic_quotient(exps, m=2):
        gen = MonomialElement(tuple(range(len(exps))), tuple(exps))
        return analyze(
            close_group(MonomialRep(dimension=len(exps), root_order=m, generators=(gen,)))
        )

    half_11 = cyclic_quotient((1, 1))
    assert half_11.canonical and not half_11.terminal
    assert half_11.min_age == 1
    # index per the determinant character: det(-id on C^2) = +1, so 1
    assert half_11.index == 1 and half_11.gorenstein

    half_111 = cyclic_quotient((1, 1, 1))
    assert half_111.terminal
    assert half_111.index == 2 and not half_111.gorenstein

    trivial = analyze(close_group(MonomialRep(dimension=3, root_order=1, generators=())))
    assert trivial.index == 1 and trivial.gorenstein
    print(
        "\n[criterion 7] PASS: 1/2(1,1) canonical non-terminal with age 1 and "
        "trivial determinant character; 1/2(1,1,1) terminal of index 2; "
        "trivial group has index 1"
    )


def test_criterion_8_error_paths(tmp_path, monkeypatch, capsys):
    code = cli.run(["sympower", "--dim", "1", "--points", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "quasi-reflection" in err

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
    code = cli.run(["analyze", "--rep", str(rep)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: group-too-large:")
    with capsys.disabled():
        print(
            "\n[criterion 8] PASS: dim 1 rejected with the quasi-reflection "
            "diagnosis and closure-cap overflow rejected, both exit code 3"
        )
