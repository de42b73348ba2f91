"""Deterministic reports: one payload per command, rendered as JSON or markdown.

The ``*_payload`` functions alone decide a report's fields and values;
``render`` writes a payload as canonical JSON or as markdown. Canonical
JSON is byte-for-byte ``json.dumps(payload, sort_keys=True, indent=2)``
plus a newline, so re-serializing a parsed report is byte-identical. A
sympower payload's ``classes`` holds the ``AgeRecord``s themselves, which
``CLASS_ROW_TEMPLATE`` and the markdown table spell as rows, with no
per-row dict. ``canonical_json`` writes the layout without json's
indenting encoder; the tests pin it byte for byte. Exact rationals are
"p/q" strings ("inf" for the no-witness sentinel), so no report holds a
float. Payloads hold the package version and nothing time-dependent.
"""

from __future__ import annotations

import json
from collections.abc import Callable
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


# A ``classes`` row as ``canonical_json`` indents it: keys sorted, two spaces per level.
# The age is ``fraction_str`` text, ASCII "p/q", so it needs no escaping.
CLASS_ROW_TEMPLATE = """\
    {
      "age": "%s",
      "class_size": %s,
      "cycle_type": [
        %s
      ],
      "det": %s,
      "order": %s,
      "s_sum": %s
    }"""
_SEPARATED_CLASS_ROW = ",\n" + CLASS_ROW_TEMPLATE


class _PartText(dict):
    """Cycle-type part -> its decimal text; one per render, so each part converts once."""

    __slots__ = ()

    def __missing__(self, part: int) -> str:
        text = self[part] = str(part)
        return text


def _age_text() -> Callable[[Fraction], str]:
    """``fraction_str`` memoized for one render, so each distinct age formats once.

    ``class_table`` shares one Fraction per distinct age. The memo is keyed
    by ``id``: a Fraction hashes in Python code, dearer than formatting it.
    Each entry holds its age, so no id is reused while the memo lives.
    """
    memo: dict[int, tuple[Fraction, str]] = {}

    def age_text(age: Fraction) -> str:
        hit = memo.get(id(age))
        if hit is None:
            hit = memo[id(age)] = (age, fraction_str(age))
        return hit[1]

    return age_text


def _json_block(value, indent: str) -> str:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` writes it ``indent`` deep."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [
            f"{encode_basestring_ascii(k)}: {_json_block(value[k], inner)}" for k in sorted(value)
        ]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, list) and value:
        items = [_json_block(item, inner) for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    return json.dumps(value)


def canonical_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    That call is the definition of the format, with each class record
    of a top-level ``classes`` list read as its row dict, and the tests
    hold this function to it. ``classes`` is written from
    ``CLASS_ROW_TEMPLATE``, every other field by ``_json_block``. Each
    field and each row comes after the ",\\n" that parts it from the one
    before, or after its opening bracket, so one join makes the whole text.
    """
    out, separator = [], "{\n"
    for key in sorted(payload):
        value = payload[key]
        out.append(f"{separator}  {encode_basestring_ascii(key)}: ")
        separator = ",\n"
        if key != "classes" or not value:
            out.append(_json_block(value, "  "))
            continue
        part_text, age_text = _PartText().__getitem__, _age_text()
        first = len(out)
        out += (
            _SEPARATED_CLASS_ROW % (
                age_text(age), size, ",\n        ".join(map(part_text, t.parts)),
                1 if plus_one else -1, order, s_sum,
            )
            for t, size, order, s_sum, age, plus_one in value
        )
        out[first] = "[" + out[first][1:]
        out.append("\n  ]")
    out.append("\n}\n" if out else "{}\n")
    return "".join(out)


def sympower_payload(
    n: int, d: int, v: SingularityVerdict, records: list[AgeRecord] | None = None
) -> dict:
    payload = {
        "meta": {"version": __version__},
        "model": {"kind": "sympower", "dim": n, "points": d, "matrix_size": n * d},
        "verdict": verdict_dict(v),
    }
    if records is not None:
        payload["classes"] = records
    return payload


def analyze_payload(rep: MonomialRep, v: SingularityVerdict) -> dict:
    return {
        "meta": {"version": __version__},
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
        "meta": {"version": __version__},
        "model": {"kind": "plurigenera", "dim": table.n, "points": table.d},
        "rows": [row._asdict() for row in table.rows],
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
    Every line goes into one list joined once, so a long class table is
    copied only into the final text.
    """
    lines = [HEADINGS[payload["model"]["kind"]].format(**payload["model"])]
    if "verdict" in payload:
        v = payload["verdict"]
        lines.append("")
        lines += [f"- {key.replace('_', ' ')}: {json.dumps(v[key])}" for key in VERDICT_KEYS]
        if v["min_age"] == "inf":
            lines.append("- min age: inf (trivial group, smooth point)")
        else:
            lines.append(f"- min age: {v['min_age']} at {v['witness']}")
    if "classes" in payload:
        part_text, age_text = _PartText().__getitem__, _age_text()
        lines += ("", "| cycle type | class size | order | S | age | det |",
                  "| --- | --- | --- | --- | --- | --- |")
        lines += (
            f"| ({','.join(map(part_text, t.parts))}) | {size} | {order} | {s_sum} "
            f"| {age_text(age)} | {'+1' if plus_one else '-1'} |"
            for t, size, order, s_sum, age, plus_one in payload["classes"]
        )
    if "rows" in payload:
        lines += ("", "| m | P_m(X) | P_m(sym^d) | parity valid |", "| --- | --- | --- | --- |")
        lines += (
            f"| {r['m']} | {r['p_m_x']} | {r['p_m_sigma']} | {json.dumps(r['valid'])} |"
            for r in payload["rows"]
        )
    if "kodaira" in payload:
        k = payload["kodaira"]
        lines += ("", f"- Kodaira dimension: {k['input']} scales to {k['scaled']}")
    lines.append("")
    return "\n".join(lines)


def render(payload: dict, fmt: str) -> str:
    """The report text: canonical JSON for ``fmt == "json"``, else markdown."""
    return canonical_json(payload) if fmt == "json" else markdown(payload)


def sympower_markdown(
    n: int, d: int, v: SingularityVerdict, records: list[AgeRecord] | None = None
) -> str:
    """``markdown(sympower_payload(n, d, v, records))``."""
    return markdown(sympower_payload(n, d, v, records))
