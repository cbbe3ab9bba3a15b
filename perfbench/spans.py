"""Per-module spans recorded from outside the program.

The traced run imports ``reidtai`` from the checkout, replaces public
functions of each module with timing wrappers, replays one workload through
``reidtai.cli.main(argv)`` and restores the originals.  The benchmark runs
each replay in a fresh process (``python3 spans.py TRACE_JSON ARGS...``), so
its own memory and imports stay out of the measurements.  Nothing in the
program changes.  Every span carries a layer label; a label's self time is
the time its spans ran minus the time covered by their child spans, so the
self times of all labels add up to the replay's own span.

Generators (the W, Lambda and pair streams) are timed one ``next()`` at a
time, so time the consumer spends between items is not charged to them.
The ``rotations`` primitives run millions of times and are not wrapped:
their time lands in the span that calls them.

``criterion``, ``enumeration`` and ``oracle`` bind ``sym2``, ``tensor``,
``age``, ``v_spectrum`` and ``ppav_classes`` by name, so those names are
patched where they are used as well as where they are defined.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = "cli.main"


class Tracer:
    """Stack of open spans; accumulates self time, calls and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        # Sizes of each stream the program opened, keyed like "w h=3".
        self.streams: defaultdict[str, list[int]] = defaultdict(list)
        self.stack: list[list[Any]] = []  # [label, child seconds]

    def enter(self, label: str) -> float:
        self.stack.append([label, 0.0])
        return self.clock()

    def leave(self, started: float) -> float:
        elapsed = self.clock() - started
        label, child = self.stack.pop()
        self.self_s[label] += elapsed - child
        if self.stack:
            self.stack[-1][1] += elapsed
        return elapsed

    def active(self, label: str) -> bool:
        return any(frame[0] == label for frame in self.stack)


def wrap_call(
    tracer: Tracer,
    fn: Callable,
    label: str,
    on_result: Callable[[Tracer, Any], None] | None = None,
) -> Callable:
    # Tracer.enter/leave inlined: these wrappers run hundreds of thousands
    # of times per replay, and every microsecond lands in the split.
    stack, clock, self_s, calls = tracer.stack, tracer.clock, tracer.self_s, tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[label] += 1
        frame = [label, 0.0]
        stack.append(frame)
        started = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - started
            stack.pop()
            self_s[label] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def wrap_gen(
    tracer: Tracer,
    fn: Callable,
    label: str,
    stream_key: Callable[..., str] | None = None,
    on_item: Callable[[Tracer, Any], None] | None = None,
) -> Callable:
    """Time each ``next()`` of a generator as a span of ``label``.

    Items are counted only by the outermost generator of a label, so
    ``abelian_factor_classes`` yielding from ``ppav_classes`` counts once.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[label] += 1
        outermost = not tracer.active(label)
        it = fn(*args, **kwargs)
        count = 0
        while True:
            started = tracer.enter(label)
            try:
                item = next(it)
            except StopIteration:
                break
            finally:
                tracer.leave(started)
            if outermost:
                count += 1
                if on_item is not None:
                    on_item(tracer, item)
            yield item
        if outermost and stream_key is not None:
            tracer.streams[stream_key(*args, **kwargs)].append(count)

    return wrapper


def _w_key(cfg_or_h, *args, **kwargs) -> str:
    return f"w h={getattr(cfg_or_h, 'h', cfg_or_h)}"


def _lambda_key(cfg, *args, **kwargs) -> str:
    return f"lambda r={cfg.r}"


def _count_pair(tracer: Tracer, element) -> None:
    tracer.counters["pairs_folded"] += 1
    if element.kernel_on_v:
        tracer.counters["kernel_skips"] += 1


def _count_raw(tracer: Tracer, result) -> None:
    tracer.counters["exceptions_raw"] += len(result.exceptions)


def _count_kept(tracer: Tracer, records) -> None:
    tracer.counters["exceptions_kept"] += len(records)


@dataclass
class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def set(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            self.saved.append((owner, name, owner[name]))
            owner[name] = value
        else:
            # Read from __dict__ so a classmethod is saved as the descriptor.
            original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            self.saved.append((owner, name, original))
            setattr(owner, name, value)

    def restore(self) -> None:
        while self.saved:
            owner, name, value = self.saved.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions of each ``reidtai`` module.

    A name a later version of the program no longer has is skipped; the
    layers it fed then read zero and the stream checks report what is
    missing.
    """
    from reidtai import cli, criterion, enumeration, functors, oracle

    patches = Patches()

    def patch(owners, name, make):
        wrapped = None
        for owner in owners:
            if not hasattr(owner, name):
                continue
            if wrapped is None:
                wrapped = make(getattr(owner, name))
            patches.set(owner, name, wrapped)

    def calls(label, on_result=None):
        return lambda fn: wrap_call(tracer, fn, label, on_result)

    def gens(label, stream_key=None, on_item=None):
        return lambda fn: wrap_gen(tracer, fn, label, stream_key, on_item)

    # enumeration
    patch([enumeration], "abelian_factor_classes", gens("enumeration.w_stream", _w_key))
    patch([enumeration, criterion], "ppav_classes", gens("enumeration.w_stream", _w_key))
    patch(
        [enumeration, criterion],
        "lattice_factor_classes",
        gens("enumeration.lambda_stream", _lambda_key),
    )
    patch(
        [enumeration, criterion],
        "element_classes",
        gens("enumeration.pairs", on_item=_count_pair),
    )
    patch([enumeration], "element_classes_for", gens("enumeration.pairs", on_item=_count_pair))
    element_class = getattr(enumeration, "ElementClass", None)
    if element_class is not None and "build" in vars(element_class):
        build = vars(element_class)["build"].__func__
        patches.set(
            element_class,
            "build",
            classmethod(wrap_call(tracer, build, "enumeration.class_build")),
        )

    # functors, under every name that binds them
    for name in ("sym2", "tensor", "age", "v_spectrum"):
        patch(
            [functors, criterion, enumeration, oracle],
            name,
            calls(f"functors.{name}"),
        )

    # criterion
    patch([criterion], "sweep_over", calls("criterion.fold", _count_raw))
    patch([criterion], "sweep_sym2", calls("criterion.sym2_sweep"))
    patch([criterion], "dedupe_exceptions", calls("criterion.dedupe", _count_kept))
    patch([criterion], "check_exception_catalog", calls("criterion.catalog_check"))
    patch([criterion], "merge_sweeps", calls("criterion.merge"))

    # cli: the fan-out parent and the pools it starts
    patch([cli], "run_chart_sweep", calls("cli.fanout"))

    def count_pool(pool_class):
        def pool(*args, **kwargs):
            workers = kwargs.get("max_workers", args[0] if args else 0) or 0
            tracer.counters["pools"] += 1
            tracer.counters["workers"] = max(tracer.counters["workers"], workers)
            return pool_class(*args, **kwargs)

        return pool

    patch([cli], "ProcessPoolExecutor", count_pool)

    # report
    renderers = getattr(cli, "RENDERERS", None)
    if isinstance(renderers, dict):
        for fmt in list(renderers):
            patches.set(renderers, fmt, wrap_call(tracer, renderers[fmt], "report.render"))
    patch([cli], "sweep_rows", calls("report.render"))

    # oracle
    patch([oracle], "realize", calls("oracle.realize"))
    patch([oracle], "sym2_matrix", calls("oracle.sym2_matrix"))
    patch([oracle], "numeric_angles", calls("oracle.eig"))
    patch([oracle], "match_angles", calls("oracle.match"))
    patch([oracle], "crosscheck_functor", calls("oracle.crosscheck"))
    return patches


@dataclass
class Replay:
    """One traced run of the CLI: its outcome, self times and counters."""

    exit_code: int
    stdout: bytes
    wall_s: float  # the root span: reidtai.cli.main(argv), import excluded
    import_s: float  # time to import reidtai.cli, 0 if it was imported already
    self_s: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, int]
    streams: dict[str, list[int]]


def replay(argv: list[str]) -> Replay:
    """Run ``reidtai.cli.main(argv)`` in this process with every layer wrapped."""
    started = time.perf_counter()
    from reidtai import cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    out, err = io.StringIO(), io.StringIO()
    patches = install(tracer)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            started = tracer.enter(ROOT)
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
            finally:
                wall = tracer.leave(started)
    finally:
        patches.restore()
    tracer.calls[ROOT] += 1
    return Replay(
        code,
        out.getvalue().encode("utf-8"),
        wall,
        import_s,
        dict(tracer.self_s),
        dict(tracer.calls),
        dict(tracer.counters),
        dict(tracer.streams),
    )


def main(argv: list[str]) -> int:
    """``spans.py TRACE_JSON ARGS...``: replay ``reidtai ARGS`` in a fresh
    process, write the report to stdout and the spans to TRACE_JSON."""
    trace_path, cli_argv = Path(argv[0]), argv[1:]
    result = replay(cli_argv)
    fields = {k: v for k, v in vars(result).items() if k != "stdout"}
    trace_path.write_text(json.dumps(fields))
    sys.stdout.buffer.write(result.stdout)
    return 0


def load(trace_path: Path, stdout: bytes) -> Replay:
    return Replay(stdout=stdout, **json.loads(trace_path.read_text()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
