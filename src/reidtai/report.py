"""Canonical report objects and their serializations.

Reports are plain data: a config echo, min-age rows, exception rows and
violation rows, all pre-sorted with every rational rendered as "num/den".
Identical configs therefore produce byte-identical output; timing never
enters the canonical form.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .criterion import (
    ExceptionRecord,
    InteriorSummary,
    SweepResult,
    TorusSummary,
    ViolationRecord,
    age_kind,
)
from .rotations import Spectrum


def fraction_str(value: Fraction | None) -> str | None:
    if value is None:
        return None
    return f"{value.numerator}/{value.denominator}"


def spectrum_strs(s: Spectrum) -> list[str]:
    return [str(q) for q in s.entries]


@dataclass
class Report:
    config: dict
    minima: list[dict] = field(default_factory=list)
    exceptions: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    verdicts: list[dict] = field(default_factory=list)
    oracle: dict | None = None

    def to_dict(self) -> dict:
        data = {
            "config": self.config,
            "minima": self.minima,
            "exceptions": self.exceptions,
            "violations": self.violations,
            "verdicts": self.verdicts,
        }
        if self.oracle is not None:
            data["oracle"] = self.oracle
        return data


def exception_row(rec: ExceptionRecord) -> dict:
    return {
        "h": rec.element.h,
        "r": rec.element.r,
        "w_spec": spectrum_strs(rec.element.w_spec),
        "lambda_spec": spectrum_strs(rec.element.lambda_spec),
        "age_sym2": fraction_str(rec.age_sym2),
        "age_tensor": fraction_str(rec.age_tensor),
        "age_v": fraction_str(rec.age_v),
        "matches_iii": rec.matches_iii,
    }


def violation_row(v: ViolationRecord) -> dict:
    return {
        "rule": v.rule,
        "h": v.element.h,
        "r": v.element.r,
        "w_spec": spectrum_strs(v.element.w_spec),
        "lambda_spec": spectrum_strs(v.element.lambda_spec),
        "age_v": fraction_str(v.age_v),
        "v_order": v.v_order,
    }


def sweep_rows(result: SweepResult) -> tuple[dict, list[dict], list[dict]]:
    """Minima row, exception rows and violation rows for one chart sweep."""
    minima = {
        "h": result.h,
        "r": result.r,
        "classes": result.classes_seen,
        "min_age": fraction_str(result.min_age),
        "witnesses": [
            {
                "w_spec": spectrum_strs(c.w_spec),
                "lambda_spec": spectrum_strs(c.lambda_spec),
            }
            for c in result.witnesses
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
        "kind": age_kind(result.min_age),
        "min_age": fraction_str(result.min_age),
    }


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def parse_json(text: str) -> Report:
    data = json.loads(text)
    return Report(
        config=data["config"],
        minima=data["minima"],
        exceptions=data["exceptions"],
        violations=data["violations"],
        verdicts=data["verdicts"],
        oracle=data.get("oracle"),
    )


def render_csv(report: Report) -> str:
    """Exception catalog as CSV (the other sections live in json/text)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    columns = ["h", "r", "w_spec", "lambda_spec", "age_sym2", "age_tensor", "age_v"]
    writer.writerow([*columns, "matches_iii"])
    for row in report.exceptions:
        cells = [" ".join(v) if isinstance(v, list) else v for v in map(row.get, columns)]
        writer.writerow([*cells, "true" if row["matches_iii"] else "false"])
    return out.getvalue()


def _spec_text(entries: list[str]) -> str:
    return "[" + " ".join(entries) + "]"


def render_text(report: Report) -> str:
    lines: list[str] = []
    config = report.config
    lines.append(
        "config: "
        + " ".join(f"{key}={config[key]}" for key in sorted(config))
    )
    if report.verdicts:
        lines.append("verdicts:")
        for v in report.verdicts:
            detail = " ".join(
                f"{key}={v[key]}" for key in sorted(v) if key != "stratum"
            )
            lines.append(f"  [{v['stratum']}] {detail}")
    if report.minima:
        lines.append("minima:")
        for row in report.minima:
            r_part = "-" if row.get("r") is None else str(row["r"])
            lines.append(
                f"  h={row['h']} r={r_part} min_age={row['min_age']}"
                f" witnesses={len(row['witnesses'])}"
            )
    lines.append(f"exceptions: {len(report.exceptions)}")
    for row in report.exceptions:
        lines.append(
            f"  h={row['h']} r={row['r']}"
            f" w={_spec_text(row['w_spec'])} lambda={_spec_text(row['lambda_spec'])}"
            f" age_sym2={row['age_sym2']} age_tensor={row['age_tensor']}"
            f" age_v={row['age_v']}"
            f" matches_iii={'yes' if row['matches_iii'] else 'no'}"
        )
    if report.violations:
        lines.append(f"violations: {len(report.violations)}")
        for row in report.violations:
            lines.append(
                f"  rule={row['rule']} h={row['h']} r={row['r']}"
                f" w={_spec_text(row['w_spec'])} lambda={_spec_text(row['lambda_spec'])}"
                f" age_v={row['age_v']} v_order={row['v_order']}"
            )
    else:
        lines.append("violations: none")
    if report.oracle is not None:
        lines.append(
            f"oracle: {report.oracle['passes']} passed,"
            f" {report.oracle['failures']} failed"
        )
        for case in report.oracle["cases"]:
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
