"""Command-line driver: chart sweeps, exception catalogs, numeric audits.

Exit codes: 0 success, 2 usage error, 3 machine-checked proposition
violation (the violating classes are reported), 4 numeric-oracle failure.
Reports are deterministic; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from collections.abc import Callable

from . import criterion
from .enumeration import CONSTRAINT_MODES
from .report import (
    RENDERERS,
    Report,
    chart_verdict_row,
    interior_verdict_row,
    sweep_rows,
    sym2_minima_row,
    torus_rows,
    violation_row,
)
from .rotations import (
    DEFAULT_TOLERANCE, MAX_DENOMINATOR, MAX_MATCH_TOLERANCE, MIN_DEGREE,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_ORACLE = 4


def _in_range(
    convert: Callable[[str], object], accepts: Callable[[object], bool], rule: str
) -> Callable[[str], object]:
    """An argparse type: convert the text, then reject values outside the
    rule, so a bad value is a usage error (exit 2)."""

    def parse(text: str) -> object:
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    return parse


_order_bound = _in_range(
    int, lambda n: 1 <= n <= MAX_DENOMINATOR, f"must be in 1..{MAX_DENOMINATOR}"
)
# the file a path names, as pathlib reads it: trailing "/" and "/." dropped
_out_path = _in_range(
    lambda text: re.sub(r"(/\.?)+$", "", text),
    lambda p: os.path.isdir(os.path.dirname(p) or ".") and not os.path.isdir(p or "."),
    "must name a file in an existing directory",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reidtai",
        description="Exact age sweeps over boundary-chart spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--order-divides", type=_order_bound, default=12, metavar="N",
        help=f"restrict element orders to divisors of N, 1..{MAX_DENOMINATOR} (default 12)",
    )
    common.add_argument(
        "--mode", choices=CONSTRAINT_MODES, default="integral-both",
        help="which integrality filters to apply (default integral-both)",
    )
    common.add_argument(
        "--threshold", choices=("canonical", "terminal"), default="canonical",
        help="report ages < 1, or also the exact-1 boundary rows",
    )
    common.add_argument(
        "--out", type=_out_path, metavar="PATH", help="also write the report here"
    )
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
    )
    common.add_argument(
        "--jobs", type=_in_range(int, lambda k: k >= 1, "must be >= 1"),
        default=1, metavar="K", help="worker processes (default 1)",
    )

    p_sweep = sub.add_parser(
        "sweep", parents=[common],
        help="sweep one chart (--h/--r), one Sym^2 table (--h), or the interior (--interior --g)",
    )
    p_sweep.add_argument("--h", type=int, help="abelian-factor dimension")
    p_sweep.add_argument("--r", type=int, help="lattice rank")
    p_sweep.add_argument("--g", type=int, help="genus (with --interior)")
    p_sweep.add_argument(
        "--interior", action="store_true",
        help="classify the moduli interior at genus --g",
    )

    p_exc = sub.add_parser(
        "exceptions", parents=[common],
        help="catalog every below-1 class over all charts with h + r = g",
    )
    p_exc.add_argument("--g", type=int, required=True, help="total genus")

    p_orc = sub.add_parser(
        "oracle", help="numeric eigenvalue audit of the exact calculus",
    )
    p_orc.add_argument("--samples", type=int, default=100)
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.add_argument(
        "--max-degree", default=8,
        type=_in_range(int, lambda d: d >= MIN_DEGREE, f"must be >= {MIN_DEGREE}"),
    )
    p_orc.add_argument("--order-divides", type=_order_bound, default=36, metavar="N")
    p_orc.add_argument(
        "--tol", default=DEFAULT_TOLERANCE,
        type=_in_range(
            float,
            lambda t: 0 < t <= MAX_MATCH_TOLERANCE,
            f"must be in (0, {MAX_MATCH_TOLERANCE}]",
        ),
    )
    p_orc.add_argument("--out", type=_out_path, metavar="PATH")
    p_orc.add_argument("--format", choices=("json", "csv", "text"), default="text")
    return parser


def _chart(task: tuple) -> criterion.SweepResult:
    """Sweep one chart; a violating chart returns its result instead of
    raising, so the other charts still run and the report lists every row
    (the exception does not survive pickling back from a worker).  The
    result holds integer records only, so a worker sends back tuples of
    ints, not Fractions, spectra or classes."""
    try:
        return criterion.sweep_v(*task)
    except criterion.PropositionViolation as exc:
        return exc.result


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_charts(tasks: list[tuple], jobs: int) -> list[criterion.SweepResult]:
    """Sweep each (h, r, order_divides, mode, include_age_one) chart, in
    task order, on at most one forked worker per job, chart and usable CPU
    (:func:`reidtai.fanout.fork_map`: charts handed out one at a time, the
    first task first).  One worker, or a platform without ``os.fork``,
    sweeps the charts here instead."""
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [_chart(task) for task in tasks]
    from .fanout import fork_map  # loaded, with pickle, only by a fanned-out run

    return fork_map(_chart, tasks, workers)


def _echo_config(args: argparse.Namespace, command: str) -> dict:
    config = {
        "command": command,
        "order_divides": args.order_divides,
        "mode": args.mode,
        "threshold": args.threshold,
    }
    for key in ("h", "r", "g"):
        config[key] = getattr(args, key, None)
    config["interior"] = bool(getattr(args, "interior", False))
    return config


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[Report, int]:
    include_age_one = args.threshold == "terminal"
    report = Report(config=_echo_config(args, "sweep"))
    if (args.interior or args.r is None) and args.mode != "integral-both":
        parser.error("the interior and the Sym^2 table (--h without --r) are integral-both only")
    if (args.interior or args.r is None or args.h == 0) and include_age_one:
        # these sweeps report a minimum, no rows, so the threshold has no effect
        parser.error("--threshold terminal applies to the boundary charts (--h >= 1 --r R) only")

    if args.interior:
        if args.g is None:
            parser.error("--interior requires --g")
        if args.h is not None or args.r is not None:
            parser.error("--interior takes --g, not --h/--r")
        if args.g < 1:
            parser.error("--g must be >= 1")
        summary = criterion.interior_verdict(args.g, args.order_divides)
        report.verdicts.append(interior_verdict_row(summary))
        report.minima.append(
            sym2_minima_row(summary.g, summary.min_age, summary.witnesses)
        )
        return report, EXIT_OK

    if args.h is None:
        parser.error("sweep needs --h (with optional --r) or --interior --g")
    if args.g is not None:
        parser.error("--g is only used with --interior or the exceptions command")
    if args.h < 0 or (args.r is not None and args.r < 0):
        parser.error("--h and --r must be non-negative")

    if args.r is None:
        if args.h < 1:
            parser.error("the Sym^2 sweep needs --h >= 1")
        min_age, witnesses = criterion.sweep_sym2(args.h, args.order_divides)
        report.minima.append(sym2_minima_row(args.h, min_age, witnesses))
        return report, EXIT_OK

    if args.h == 0:
        summary = criterion.torus_summary(args.r, args.order_divides, args.mode)
        verdict, minima = torus_rows(summary)
        report.verdicts.append(verdict)
        report.minima.append(minima)
        return report, EXIT_OK

    [result] = sweep_charts(
        [(args.h, args.r, args.order_divides, args.mode, include_age_one)], args.jobs
    )
    minima, exceptions, violations = sweep_rows(result)
    report.minima.append(minima)
    report.exceptions.extend(exceptions)
    report.violations.extend(violations)
    report.verdicts.append(chart_verdict_row(result))
    return report, EXIT_VIOLATION if violations else EXIT_OK


def _cmd_exceptions(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[Report, int]:
    if args.g < 1:
        parser.error("--g must be >= 1")
    include_age_one = args.threshold == "terminal"
    report = Report(config=_echo_config(args, "exceptions"))
    tasks = [
        (h, args.g - h, args.order_divides, args.mode, include_age_one)
        for h in range(1, args.g + 1)
    ]
    for result in sweep_charts(tasks, args.jobs):
        result = criterion.check_exception_catalog(result)
        minima, exceptions, violations = sweep_rows(result)
        report.minima.append(minima)
        report.exceptions.extend(exceptions)
        report.violations.extend(violations)
        report.verdicts.append(chart_verdict_row(result))
    return report, EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_oracle(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[Report, int]:
    if args.samples < 0:
        parser.error("--samples must be >= 0")
    config = {
        "command": "oracle",
        "samples": args.samples,
        "seed": args.seed,
        "max_degree": args.max_degree,
        "order_divides": args.order_divides,
        "tol": args.tol,
    }
    report = Report(config=config)
    from . import oracle  # numpy is imported only when the oracle runs

    try:
        cases = oracle.run_oracle_cases(
            args.samples, args.seed, args.max_degree, args.order_divides, args.tol
        )
    except oracle.OracleFailure as exc:
        report.oracle = {"cases": [], "passes": 0, "failures": 1, "error": str(exc)}
        print(f"oracle failure: {exc}", file=sys.stderr)
        return report, EXIT_ORACLE
    passes = sum(1 for c in cases if c["ok"])
    failures = len(cases) - passes
    report.oracle = {"cases": cases, "passes": passes, "failures": failures}
    return report, EXIT_ORACLE if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    command = {"sweep": _cmd_sweep, "exceptions": _cmd_exceptions, "oracle": _cmd_oracle}
    try:
        report, code = command[args.command](args, parser)
    except criterion.PropositionViolation as exc:
        # the r = 0 folds of sweep raise on a kernel violation: list it as a chart would
        report = Report(config=_echo_config(args, args.command))
        report.violations.extend(map(violation_row, exc.result.violations))
        code = EXIT_VIOLATION
    rendered = RENDERERS[args.format](report)
    sys.stdout.write(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(rendered)
    if code == EXIT_VIOLATION:
        for row in report.violations:
            print(
                f"proposition violation [{row['rule']}]: h={row['h']} r={row['r']}"
                f" w={row['w_spec']} lambda={row['lambda_spec']}"
                f" age_v={row['age_v']} order-on-chart={row['v_order']}",
                file=sys.stderr,
            )
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
