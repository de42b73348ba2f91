"""Deterministic reports: one payload per command, rendered as JSON or markdown.

The ``*_payload`` functions alone decide a report's fields and values;
``render`` writes a payload as canonical JSON or as markdown. Canonical
JSON is byte-for-byte ``json.dumps(payload, sort_keys=True, indent=2)``
plus a newline, so re-serializing a parsed report is byte-identical.
``canonical_json`` writes the rows of a ``classes`` list from one fixed
template, ``CLASS_ROW_TEMPLATE``, which the tests pin to that definition
byte for byte; ``json.dumps`` encodes the rest. Exact rationals are
"p/q" strings ("inf" for the no-witness sentinel), so no payload holds
a float. Payloads hold the package version and nothing time-dependent.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from ._version import __version__
from .monomial import MonomialRep, SingularityVerdict
from .plurigenera import KodairaDim, PlurigenusTable, kodaira_scale
from .sympower import AgeRecord


def fraction_str(value: Fraction | None) -> str:
    """Exact rational as "p/q"; None (no witness) as "inf"."""
    if value is None:
        return "inf"
    return f"{value.numerator}/{value.denominator}"


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


# One ``class_row_dict`` row as ``canonical_json`` indents it inside the
# payload's ``classes`` list: keys sorted, two spaces per level.
CLASS_ROW_TEMPLATE = """\
    {
      "age": %s,
      "class_size": %s,
      "cycle_type": [
        %s
      ],
      "det": %s,
      "order": %s,
      "s_sum": %s
    }"""


def canonical_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    That call is the definition of the format, and the tests hold this
    function to it. ``indent`` sends ``json`` to its pure-Python encoder,
    so the rows of a payload's ``classes`` list are written from
    ``CLASS_ROW_TEMPLATE`` (strings through the C escaper of ``json``,
    integers through ``str``) and spliced into the encoding of the rest.
    """
    classes = payload.get("classes")
    if classes is None:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    rows = ",\n".join(
        CLASS_ROW_TEMPLATE % (
            encode_basestring_ascii(c["age"]),
            c["class_size"],
            ",\n        ".join(map(str, c["cycle_type"])),
            c["det"],
            c["order"],
            c["s_sum"],
        )
        for c in classes
    )
    listing = f"[\n{rows}\n  ]" if rows else "[]"
    rest = json.dumps({**payload, "classes": None}, sort_keys=True, indent=2)
    # only a top-level key sits at a two-space indent
    return rest.replace('\n  "classes": null', f'\n  "classes": {listing}', 1) + "\n"


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


def plurigenera_payload(table: PlurigenusTable, kappa: KodairaDim | None = None) -> dict:
    """The plurigenus rows, and with ``kappa`` its scaling ``kodaira_scale(kappa, d)``."""
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
    if kappa is not None:
        payload["kodaira"] = {"input": str(kappa), "scaled": str(kodaira_scale(kappa, table.d))}
    return payload


HEADINGS = {
    "sympower": "# Symmetric-power model: {dim} copies of the S_{points} permutation action",
    "monomial": "# Monomial group on C^{dimension} (root order {root_order})",
    "plurigenera": "# Plurigenera of the degree-{points} symmetric power (dim {dim})",
}
VERDICT_KEYS = ("canonical", "terminal", "gorenstein", "index", "group_order")


def markdown(payload: dict) -> str:
    """A heading from the ``model`` block, then one section per block present.

    Values appear as JSON spells them, so booleans read true/false.
    """
    sections = [[HEADINGS[payload["model"]["kind"]].format(**payload["model"])]]
    if "verdict" in payload:
        v = payload["verdict"]
        lines = [f"- {key.replace('_', ' ')}: {json.dumps(v[key])}" for key in VERDICT_KEYS]
        if v["min_age"] == "inf":
            lines.append("- min age: inf (trivial group, smooth point)")
        else:
            lines.append(f"- min age: {v['min_age']} at {v['witness']}")
        sections.append(lines)
    if "classes" in payload:
        sections.append([
            "| cycle type | class size | order | S | age | det |",
            "| --- | --- | --- | --- | --- | --- |",
            *(
                f"| ({','.join(map(str, c['cycle_type']))}) | {c['class_size']} "
                f"| {c['order']} | {c['s_sum']} | {c['age']} | {c['det']:+d} |"
                for c in payload["classes"]
            ),
        ])
    if "rows" in payload:
        sections.append([
            "| m | P_m(X) | P_m(sym^d) | parity valid |",
            "| --- | --- | --- | --- |",
            *(
                f"| {r['m']} | {r['p_m_x']} | {r['p_m_sigma']} | {json.dumps(r['valid'])} |"
                for r in payload["rows"]
            ),
        ])
    if "kodaira" in payload:
        k = payload["kodaira"]
        sections.append([f"- Kodaira dimension: {k['input']} scales to {k['scaled']}"])
    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


def render(payload: dict, fmt: str) -> str:
    """The report text: canonical JSON for ``fmt == "json"``, else markdown."""
    return canonical_json(payload) if fmt == "json" else markdown(payload)


def sympower_markdown(
    n: int, d: int, v: SingularityVerdict, records: list[AgeRecord] | None = None
) -> str:
    """Markdown of ``sympower_payload(n, d, v, records)``."""
    return markdown(sympower_payload(n, d, v, records))
