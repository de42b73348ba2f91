"""Deterministic JSON and markdown emitters.

JSON output is canonical: sorted keys, two-space indent, a trailing
newline, exact rationals rendered as "p/q" strings (with "inf" for the
no-witness sentinel), so parsing a report and re-serializing it is
byte-identical. The only floats ever emitted are growth-fit slopes.
Payloads carry a metadata block with the package version and nothing
time-dependent, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._version import __version__
from .ages import AgeRecord
from .monomial import MonomialRep, SingularityVerdict
from .plurigenera import KodairaDim, PlurigenusTable


def fraction_str(value: Fraction | None) -> str:
    """Exact rational as "p/q"; None (no witness) as "inf"."""
    if value is None:
        return "inf"
    return f"{value.numerator}/{value.denominator}"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def meta_block() -> dict:
    return {"version": __version__}


def verdict_dict(v: SingularityVerdict) -> dict:
    return {
        "canonical": v.canonical,
        "terminal": v.terminal,
        "gorenstein": v.gorenstein,
        "index": v.index,
        "group_order": v.group_order,
        "min_age": fraction_str(v.min_age),
        "witness": v.witness,
    }


def class_row_dict(rec: AgeRecord) -> dict:
    return {
        "cycle_type": list(rec.cycle_type.parts),
        "class_size": rec.class_size,
        "order": rec.order,
        "s_sum": rec.s_sum,
        "age": fraction_str(rec.age),
        "det": 1 if rec.det_is_plus_one else -1,
    }


def sympower_payload(
    n: int, d: int, v: SingularityVerdict, records: list[AgeRecord] | None = None
) -> dict:
    payload = {
        "meta": meta_block(),
        "model": {"kind": "sympower", "dim": n, "points": d, "matrix_size": n * d},
        "verdict": verdict_dict(v),
    }
    if records is not None:
        payload["classes"] = [class_row_dict(r) for r in records]
    return payload


def analyze_payload(rep: MonomialRep, v: SingularityVerdict) -> dict:
    return {
        "meta": meta_block(),
        "model": {
            "kind": "monomial",
            "dimension": rep.dimension,
            "root_order": rep.root_order,
            "num_generators": len(rep.generators),
        },
        "verdict": verdict_dict(v),
    }


def plurigenera_payload(
    table: PlurigenusTable,
    kappa: KodairaDim | None = None,
    kappa_scaled: KodairaDim | None = None,
) -> dict:
    payload = {
        "meta": meta_block(),
        "model": {"kind": "plurigenera", "dim": table.n, "points": table.d},
        "rows": [
            {
                "m": row.m,
                "p_m_x": row.p_m_x,
                "p_m_sigma": row.p_m_sigma,
                "valid": row.valid,
            }
            for row in table.rows
        ],
    }
    if kappa is not None and kappa_scaled is not None:
        payload["kodaira"] = {
            "input": str(kappa),
            "scaled": str(kappa_scaled),
        }
    return payload


def _verdict_lines(v: SingularityVerdict) -> list[str]:
    lines = [
        f"- canonical: {str(v.canonical).lower()}",
        f"- terminal: {str(v.terminal).lower()}",
        f"- gorenstein: {str(v.gorenstein).lower()}",
        f"- index: {v.index}",
        f"- group order: {v.group_order}",
    ]
    if v.min_age is None:
        lines.append("- min age: inf (trivial group, smooth point)")
    else:
        lines.append(f"- min age: {fraction_str(v.min_age)} at {v.witness}")
    return lines


def class_table_markdown(records: list[AgeRecord]) -> list[str]:
    lines = [
        "| cycle type | class size | order | S | age | det |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for rec in records:
        det = "+1" if rec.det_is_plus_one else "-1"
        lines.append(
            f"| {rec.cycle_type} | {rec.class_size} | {rec.order} "
            f"| {rec.s_sum} | {fraction_str(rec.age)} | {det} |"
        )
    return lines


def sympower_markdown(
    n: int, d: int, v: SingularityVerdict, records: list[AgeRecord] | None = None
) -> str:
    lines = [f"# Symmetric-power model: {n} copies of the S_{d} permutation action", ""]
    lines.extend(_verdict_lines(v))
    if records is not None:
        lines.append("")
        lines.extend(class_table_markdown(records))
    return "\n".join(lines) + "\n"


def analyze_markdown(rep: MonomialRep, v: SingularityVerdict) -> str:
    lines = [
        f"# Monomial group on C^{rep.dimension} (root order {rep.root_order})",
        "",
    ]
    lines.extend(_verdict_lines(v))
    return "\n".join(lines) + "\n"


def plurigenera_markdown(
    table: PlurigenusTable,
    kappa: KodairaDim | None = None,
    kappa_scaled: KodairaDim | None = None,
) -> str:
    lines = [
        f"# Plurigenera of the degree-{table.d} symmetric power (dim {table.n})",
        "",
        "| m | P_m(X) | P_m(sym^d) | parity valid |",
        "| --- | --- | --- | --- |",
    ]
    for row in table.rows:
        lines.append(
            f"| {row.m} | {row.p_m_x} | {row.p_m_sigma} "
            f"| {str(row.valid).lower()} |"
        )
    if kappa is not None and kappa_scaled is not None:
        lines.extend(["", f"- Kodaira dimension: {kappa} scales to {kappa_scaled}"])
    return "\n".join(lines) + "\n"
