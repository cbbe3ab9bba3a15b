"""Canonical report rows and their serializations.

A report is a plain dict: a config echo under ``config`` and the
``minima``, ``exceptions``, ``violations`` and ``verdicts`` row lists (the
oracle command adds ``oracle``), all pre-sorted with every rational
rendered as "num/den".
Identical configs therefore produce byte-identical output; timing never
enters the canonical form.

Chart rows arrive as integers over N (``criterion`` records) and become
strings here: each entry or age x/N is read from a lazily filled table,
built only for the x a report shows.  The JSON writer knows the report's
fixed schema and produces the text of
``json.dumps(report, sort_keys=True, indent=2)`` with the C encoder's leaf
functions.
"""

from __future__ import annotations

import json
from functools import lru_cache

from .criterion import (
    ExceptionRecord,
    InteriorSummary,
    SweepResult,
    TorusSummary,
    ViolationRecord,
    age_kind,
)
from .rotations import Spectrum, Table, residue_keys

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


def spectrum_strs(s: Spectrum) -> list[str]:
    """The entries of a Sym^2 or torus witness (the r = 0 rows)."""
    return [str(q) for q in s.entries]


@lru_cache(maxsize=None)
def _texts(n: int) -> Table:
    """x/n in lowest terms as "num/den": an entry (x < n) or an age."""
    keys = residue_keys(n)
    return Table(lambda x: "%d/%d" % keys[x][::-1])


def _entries(nums: tuple[int, ...], n: int) -> list[str]:
    """Spectrum entries x/n as "num/den"."""
    return list(map(_texts(n).__getitem__, nums))


def _age(x: int | None, n: int) -> str | None:
    """The age x/n (n > 0, None for none) as "num/den"."""
    return None if x is None else _texts(n)[x]


def fraction_str(value: Fraction | None) -> str | None:
    """A Fraction age (a Sym^2 or interior row) through the same table."""
    return None if value is None else _age(value.numerator, value.denominator)


def exception_row(rec: ExceptionRecord) -> dict:
    key, xs, ys, n, a2, av, matches_iii = rec
    text = _texts(n).__getitem__  # one table lookup per row
    return {
        "h": key[0],
        "r": key[1],
        "w_spec": list(map(text, xs)),
        "lambda_spec": list(map(text, ys)),
        "age_sym2": text(a2),
        "age_tensor": text(av - a2),
        "age_v": text(av),
        "matches_iii": matches_iii,
    }


def violation_row(v: ViolationRecord) -> dict:
    rule, key, xs, ys, n, av, v_order = v
    text = _texts(n).__getitem__
    return {
        "rule": rule,
        "h": key[0],
        "r": key[1],
        "w_spec": list(map(text, xs)),
        "lambda_spec": list(map(text, ys)),
        "age_v": text(av),
        "v_order": v_order,
    }


def sweep_rows(result: SweepResult) -> tuple[dict, list[dict], list[dict]]:
    """Minima row, exception rows and violation rows for one chart sweep,
    built from its integer records: no class, spectrum or Fraction."""
    n = result.n
    minima = {
        "h": result.h,
        "r": result.r,
        "classes": result.classes_seen,
        "min_age": _age(result.best, n),
        "witnesses": [
            {"w_spec": _entries(xs, n), "lambda_spec": _entries(ys, n)}
            for _, xs, ys in result.witness_rows
        ],
    }
    return (
        minima,
        [exception_row(rec) for rec in result.exceptions],
        [violation_row(v) for v in result.violations],
    )


def sym2_minima_row(
    h: int, min_age: Fraction | None, witnesses: tuple[Spectrum, ...]
) -> dict:
    return {
        "h": h,
        "r": None,
        "min_age": fraction_str(min_age),
        "witnesses": [{"w_spec": spectrum_strs(a)} for a in witnesses],
    }


def interior_verdict_row(summary: InteriorSummary) -> dict:
    return {
        "stratum": "interior",
        "g": summary.g,
        "kind": summary.kind,
        "min_age": fraction_str(summary.min_age),
    }


def torus_rows(summary: TorusSummary) -> tuple[dict, dict]:
    """Verdict row and minima row for the h = 0 stratum."""
    verdict = {
        "stratum": "torus",
        "r": summary.r,
        "kind": "informational",
        "min_age": fraction_str(summary.min_age),
    }
    minima = {
        "h": 0,
        "r": summary.r,
        "min_age": fraction_str(summary.min_age),
        "witnesses": [{"lambda_spec": spectrum_strs(b)} for b in summary.witnesses],
    }
    return verdict, minima


def chart_verdict_row(result: SweepResult) -> dict:
    """Informational age classification of one boundary chart."""
    return {
        "stratum": "boundary-chart",
        "h": result.h,
        "r": result.r,
        "kind": age_kind(result.best, result.n),
        "min_age": _age(result.best, result.n),
    }


# The JSON writer.  Leaves go through the C encoder's own functions; each
# exception, violation and oracle-case row is one template at its fixed
# depth in the report (row at 4 spaces, keys at 6, list items at 8), and
# every other object through _object, keys sorted as json.dumps sorts them.
_quote = json.encoder.encode_basestring_ascii  # the C function; loaded by json
_LEAVES = {
    str: _quote,
    int: int.__repr__,
    float: float.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _leaf(value: str | int | float | bool | None) -> str:
    return _LEAVES[type(value)](value)


def _items(values: list, pad: str, item=None) -> str:
    """A JSON list, its items at pad plus two spaces: leaves, or written by
    item(value, item pad)."""
    if not values:
        return "[]"
    inner = pad + "  "
    parts = map(_leaf, values) if item is None else [item(v, inner) for v in values]
    return f"[\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}]"


def _object(obj: dict, pad: str, fields: dict | None = None) -> str:
    """A JSON object, keys sorted; fields maps a key to its writer."""
    if not obj:
        return "{}"
    inner = pad + "  "
    fields = fields or {}
    return "{\n" + ",\n".join([
        f"{inner}{_quote(key)}: {fields.get(key, _value)(obj[key], inner)}"
        for key in sorted(obj)
    ]) + f"\n{pad}}}"


def _value(value, pad: str) -> str:
    if type(value) is dict:
        return _object(value, pad)
    if type(value) is list:
        return _items(value, pad, _value)
    return _leaf(value)


def _strings(values: list[str]) -> str:
    """A row's spectrum entries, at 8 spaces."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_quote, values)) + "\n      ]"


_EXCEPTION = """{{
      "age_sym2": {},
      "age_tensor": {},
      "age_v": {},
      "h": {},
      "lambda_spec": {},
      "matches_iii": {},
      "r": {},
      "w_spec": {}
    }}"""


def _exception(row: dict, pad: str) -> str:
    return _EXCEPTION.format(
        _leaf(row["age_sym2"]), _leaf(row["age_tensor"]), _leaf(row["age_v"]),
        _leaf(row["h"]), _strings(row["lambda_spec"]), _leaf(row["matches_iii"]),
        _leaf(row["r"]), _strings(row["w_spec"]),
    )


_VIOLATION = """{{
      "age_v": {},
      "h": {},
      "lambda_spec": {},
      "r": {},
      "rule": {},
      "v_order": {},
      "w_spec": {}
    }}"""


def _violation(row: dict, pad: str) -> str:
    return _VIOLATION.format(
        _leaf(row["age_v"]), _leaf(row["h"]), _strings(row["lambda_spec"]),
        _leaf(row["r"]), _leaf(row["rule"]), _leaf(row["v_order"]),
        _strings(row["w_spec"]),
    )


_CASE = """{{
        "a_signature": {},
        "b_signature": {},
        "index": {},
        "ok": {}
      }}"""


def _case(case: dict, pad: str) -> str:
    return _CASE.format(
        _items(case["a_signature"], "        "), _items(case["b_signature"], "        "),
        _leaf(case["index"]), _leaf(case["ok"]),
    )


_SECTIONS = {
    "exceptions": lambda rows, pad: _items(rows, pad, _exception),
    "violations": lambda rows, pad: _items(rows, pad, _violation),
    "oracle": lambda oracle, pad: _object(
        oracle, pad, {"cases": lambda cases, pad: _items(cases, pad, _case)}
    ),
}


def render_json(report: dict) -> str:
    """The report as ``json.dumps(report, sort_keys=True, indent=2)`` would
    write it, plus a newline, in one pass over the report's fixed schema:
    config, minima and verdicts as sorted objects, exception, violation and
    oracle-case rows as templates, and every leaf through the C encoder's
    functions (``encode_basestring_ascii``, ``int.__repr__``,
    ``float.__repr__``)."""
    return _object(report, "", _SECTIONS) + "\n"


def render_csv(report: dict) -> str:
    """Exception catalog as CSV (the other sections live in json/text)."""
    import csv  # only this format needs it
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    columns = ["h", "r", "w_spec", "lambda_spec", "age_sym2", "age_tensor", "age_v"]
    writer.writerow([*columns, "matches_iii"])
    for row in report["exceptions"]:
        cells = [" ".join(v) if isinstance(v, list) else v for v in map(row.get, columns)]
        writer.writerow([*cells, "true" if row["matches_iii"] else "false"])
    return out.getvalue()


def _spec_text(entries: list[str]) -> str:
    return "[" + " ".join(entries) + "]"


def render_text(report: dict) -> str:
    lines: list[str] = []
    config = report["config"]
    lines.append(
        "config: "
        + " ".join(f"{key}={config[key]}" for key in sorted(config))
    )
    if report["verdicts"]:
        lines.append("verdicts:")
        for v in report["verdicts"]:
            detail = " ".join(
                f"{key}={v[key]}" for key in sorted(v) if key != "stratum"
            )
            lines.append(f"  [{v['stratum']}] {detail}")
    if report["minima"]:
        lines.append("minima:")
        for row in report["minima"]:
            r_part = "-" if row.get("r") is None else str(row["r"])
            lines.append(
                f"  h={row['h']} r={r_part} min_age={row['min_age']}"
                f" witnesses={len(row['witnesses'])}"
            )
    lines.append(f"exceptions: {len(report['exceptions'])}")
    for row in report["exceptions"]:
        lines.append(
            f"  h={row['h']} r={row['r']}"
            f" w={_spec_text(row['w_spec'])} lambda={_spec_text(row['lambda_spec'])}"
            f" age_sym2={row['age_sym2']} age_tensor={row['age_tensor']}"
            f" age_v={row['age_v']}"
            f" matches_iii={'yes' if row['matches_iii'] else 'no'}"
        )
    if report["violations"]:
        lines.append(f"violations: {len(report['violations'])}")
        for row in report["violations"]:
            lines.append(
                f"  rule={row['rule']} h={row['h']} r={row['r']}"
                f" w={_spec_text(row['w_spec'])} lambda={_spec_text(row['lambda_spec'])}"
                f" age_v={row['age_v']} v_order={row['v_order']}"
            )
    else:
        lines.append("violations: none")
    oracle = report.get("oracle")
    if oracle is not None:
        lines.append(f"oracle: {oracle['passes']} passed, {oracle['failures']} failed")
        for case in oracle["cases"]:
            status = "ok" if case["ok"] else "FAIL"
            lines.append(
                f"  case {case['index']}: a={case['a_signature']}"
                f" b={case['b_signature']} {status}"
            )
    return "\n".join(lines) + "\n"


RENDERERS = {
    "json": render_json,
    "csv": render_csv,
    "text": render_text,
}
