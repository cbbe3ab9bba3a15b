"""Command-line driver: chart sweeps, exception catalogs, numeric audits.

Exit codes: 0 success, 2 usage error, 3 machine-checked proposition
violation (the violating classes are reported), 4 numeric-oracle failure.
Reports are deterministic; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import os
import re
import shutil
import sys
import time
from collections.abc import Callable

from .report import (
    RENDERERS,
    _spec_text,
    chart_verdict_row,
    interior_verdict_row,
    sweep_rows,
    sym2_minima_row,
    torus_rows,
    violation_row,
)
from .rotations import (
    CONSTRAINT_MODES, DEFAULT_TOLERANCE, MAX_DEGREE, MAX_DENOMINATOR, MAX_MATCH_TOLERANCE,
    MAX_SAMPLES, MIN_DEGREE,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .criterion import SweepResult

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
    # argparse's default width, read once: left to itself, each of the
    # parser's formatters (one per argument added) asks for the terminal size
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="reidtai",
        description="Exact age sweeps over boundary-chart spectra.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False, formatter_class=formatter)
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
        default=1, metavar="K",
        help="sweep the exceptions charts on K processes, this one included"
        " (default 1); a sweep runs in one process",
    )

    p_sweep = sub.add_parser(
        "sweep", parents=[common], formatter_class=formatter,
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
        "exceptions", parents=[common], formatter_class=formatter,
        help="catalog every below-1 class over all charts with h + r = g",
    )
    p_exc.add_argument("--g", type=int, required=True, help="total genus")

    p_orc = sub.add_parser(
        "oracle", formatter_class=formatter,
        help="numeric eigenvalue audit of the exact calculus",
    )
    p_orc.add_argument(
        "--samples", default=100,
        type=_in_range(int, lambda n: 0 <= n <= MAX_SAMPLES, f"must be in 0..{MAX_SAMPLES}"),
    )
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.add_argument(
        "--max-degree", default=8,
        type=_in_range(
            int,
            lambda d: MIN_DEGREE <= d <= MAX_DEGREE,
            f"must be in {MIN_DEGREE}..{MAX_DEGREE}",
        ),
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
    # the CSV format holds the exception table only, which an audit has not
    p_orc.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _chart(task: tuple) -> SweepResult:
    """Sweep one chart; a violating chart returns its result instead of
    raising, so the other charts still run and the report lists every row.
    The result holds integer records only: tuples of ints, strings and
    bools, no Fraction, spectrum or class."""
    from . import criterion  # the chart sweeps, which the oracle never loads

    try:
        return criterion.sweep_v(*task)
    except criterion.PropositionViolation as exc:
        return exc.result


def _catalog_chart(task: tuple) -> tuple[dict, list[dict], list[dict], dict]:
    """One ``exceptions`` chart, catalog-checked, as its report rows:
    minima, exception rows, violation rows and verdict.  The rows are dicts,
    lists, strings, ints, bools and None, so a forked child sends them
    through ``marshal`` as they are."""
    from . import criterion

    result = criterion.check_exception_catalog(_chart(task))
    return (*sweep_rows(result), chart_verdict_row(result))


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_charts(tasks: list[tuple], jobs: int) -> list[tuple]:
    """The :func:`_catalog_chart` rows of each (h, r, order_divides, mode,
    include_age_one) chart, in task order, swept on at most one process per
    job, chart and usable CPU, this one included
    (:func:`reidtai.fanout.fork_map`): each of the last ``workers - 1``
    charts runs in a forked child of its own, which sends its finished rows
    back through ``marshal``, and this process sweeps the other charts.
    The tasks come in order of h, and the W stream grows with h, so in the
    integral catalogs the children take the costliest charts (at g = 12
    the h = 12 chart is over two fifths of the chart time).  With one process, or on a platform
    without ``os.fork``, every chart is swept here."""
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork"):
        return [_catalog_chart(task) for task in tasks]
    from .fanout import fork_map  # loaded only by a fanned-out run

    return fork_map(_catalog_chart, tasks, workers)


def _report(config: dict) -> dict:
    """An empty report: the config echo and its row sections.  The oracle
    command adds an ``oracle`` section."""
    return {"config": config, "minima": [], "exceptions": [], "violations": [], "verdicts": []}


def _add_chart(
    report: dict, minima: dict, exceptions: list, violations: list, verdict: dict
) -> None:
    """Append one boundary chart's rows to the report."""
    report["minima"].append(minima)
    report["exceptions"] += exceptions
    report["violations"] += violations
    report["verdicts"].append(verdict)


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


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> tuple[dict, int]:
    include_age_one = args.threshold == "terminal"
    report = _report(_echo_config(args, "sweep"))
    if (args.interior or args.r is None) and args.mode != "integral-both":
        parser.error("the interior and the Sym^2 table (--h without --r) are integral-both only")
    if (args.interior or args.r is None or args.h == 0) and include_age_one:
        # these sweeps report a minimum, no rows, so the threshold has no effect
        parser.error("--threshold terminal applies to the boundary charts (--h >= 1 --r R) only")
    from . import criterion  # the sweeps, which the oracle never loads

    try:
        if args.interior:
            if args.g is None:
                parser.error("--interior requires --g")
            if args.h is not None or args.r is not None:
                parser.error("--interior takes --g, not --h/--r")
            if args.g < 1:
                parser.error("--g must be >= 1")
            summary = criterion.interior_verdict(args.g, args.order_divides)
            report["verdicts"].append(interior_verdict_row(summary))
            report["minima"].append(
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
            report["minima"].append(sym2_minima_row(args.h, min_age, witnesses))
            return report, EXIT_OK

        if args.h == 0:
            summary = criterion.torus_summary(args.r, args.order_divides, args.mode)
            verdict, minima = torus_rows(summary)
            report["verdicts"].append(verdict)
            report["minima"].append(minima)
            return report, EXIT_OK

        # one chart, so --jobs has nothing to fan out: it runs here, unchecked
        # against the catalog
        result = _chart((args.h, args.r, args.order_divides, args.mode, include_age_one))
        _add_chart(report, *sweep_rows(result), chart_verdict_row(result))
        return report, EXIT_VIOLATION if report["violations"] else EXIT_OK
    except criterion.PropositionViolation as exc:
        # the r = 0 folds raise on a kernel violation: list it as a chart would
        report = _report(_echo_config(args, "sweep"))
        report["violations"] += map(violation_row, exc.result.violations)
        return report, EXIT_VIOLATION


def _cmd_exceptions(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[dict, int]:
    if args.g < 1:
        parser.error("--g must be >= 1")
    include_age_one = args.threshold == "terminal"
    report = _report(_echo_config(args, "exceptions"))
    # loaded before sweep_charts forks, so that every child inherits the
    # module rather than loading it again
    from . import criterion  # noqa: F401

    tasks = [
        (h, args.g - h, args.order_divides, args.mode, include_age_one)
        for h in range(1, args.g + 1)
    ]
    for rows in sweep_charts(tasks, args.jobs):
        _add_chart(report, *rows)
    return report, EXIT_VIOLATION if report["violations"] else EXIT_OK


def _cmd_oracle(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[dict, int]:
    config = {
        "command": "oracle",
        "samples": args.samples,
        "seed": args.seed,
        "max_degree": args.max_degree,
        "order_divides": args.order_divides,
        "tol": args.tol,
    }
    report = _report(config)
    from . import oracle  # numpy is imported only when the oracle runs

    try:
        cases = oracle.run_oracle_cases(
            args.samples, args.seed, args.max_degree, args.order_divides, args.tol
        )
    except oracle.OracleFailure as exc:
        report["oracle"] = {"cases": [], "passes": 0, "failures": 1, "error": str(exc)}
        print(f"oracle failure: {exc}", file=sys.stderr)
        return report, EXIT_ORACLE
    passes = sum(1 for c in cases if c["ok"])
    failures = len(cases) - passes
    report["oracle"] = {"cases": cases, "passes": passes, "failures": failures}
    return report, EXIT_ORACLE if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    command = {"sweep": _cmd_sweep, "exceptions": _cmd_exceptions, "oracle": _cmd_oracle}
    report, code = command[args.command](args, parser)
    rendered = RENDERERS[args.format](report)
    sys.stdout.write(rendered)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(rendered)
        except OSError as exc:  # the path parsed, but the file cannot be written
            print(f"reidtai: error: cannot write --out {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    if code == EXIT_VIOLATION:
        sys.stderr.write("".join(
            f"proposition violation [{row['rule']}]: h={row['h']} r={row['r']}"
            f" w={_spec_text(row['w_spec'])} lambda={_spec_text(row['lambda_spec'])}"
            f" age_v={row['age_v']} order-on-chart={row['v_order']}\n"
            for row in report["violations"]
        ))
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def _observed() -> bool:
    """Whether a profiler or tracer watches this process: one set with
    ``sys.setprofile`` or ``sys.settrace``, or (Python 3.12 and later, where
    cProfile and coverage can use it) a ``sys.monitoring`` tool."""
    monitoring = getattr(sys, "monitoring", None)
    return (
        sys.getprofile() is not None
        or sys.gettrace() is not None
        # sys.monitoring has six tool ids, 0 to 5
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    )


def run() -> None:
    """The process entry point (``python -m reidtai.cli`` and the ``reidtai``
    script): ``main()`` with the cyclic garbage collector off, then an exit
    without the interpreter's teardown.

    Off, the collector makes none of its young-generation passes during the
    run, numpy's import among them.  It would find nothing to free: a run's
    data are integer tuples and lists that reference counting frees, and
    each ``main()`` leaves the same few hundred objects of cyclic garbage
    (its argparse parser), whatever the run's size.

    Once ``main()`` returns, the exit handlers run and stdout and stderr are
    flushed, in the interpreter's own shutdown order, and ``os._exit`` ends
    the process.  That skips the final collection, the teardown of every
    module and the freeing of the run's tables, rows and numpy: memory the
    operating system takes back anyway.  Nothing else is lost, because
    ``main()`` has closed the ``--out`` file and reaped every ``--jobs``
    child, and the command starts no Python thread.  The usual ``sys.exit``
    is kept when ``main()`` raises (a usage error among them), when a flush
    fails, so that the interpreter reports it, and under a profiler or
    tracer, so that ``python -m cProfile -m reidtai.cli`` and coverage
    write their reports.  Forked children inherit the disabled collector
    and leave through ``os._exit`` too.  ``main()`` does neither, so tests
    and library callers keep the collector and the interpreter's exit as
    they are.
    """
    gc.disable()
    code = main()
    if not _observed():
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (OSError, ValueError):
            pass  # sys.exit reports the failed flush and sets the status
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
