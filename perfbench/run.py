"""Benchmark of the ``reidtai`` CLI: end-to-end metrics and a per-module split.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` spawns the CLI once at a time for ``--seconds`` (at least
twice), with four spawns of the bare import after each invocation, and
reports, as medians over those runs:

- ``wall_s``: spawn to exit of one invocation;
- ``cpu_s``: user + sys of the child and its reaped workers (``os.wait4``);
- ``peak_rss_mb``: ``ru_maxrss`` from the same rusage;
- ``setup_s``: spawn to exit of ``python -c "import reidtai.cli"``.

The times are scaled to a reference host speed measured alongside each
spawn (``hostspeed.py``), wall times after the hypervisor's steal on the
spawn's cores is taken off them; the raw medians are printed with them.  A
workload without ``--jobs`` fan-out, and every set-up spawn, is pinned to
one core, the core the host speed is sampled on; a fanned-out workload runs
on all cores and is scaled by samples from all of them.

``--trace 1`` replays the workload in a fresh process through
``reidtai.cli.main(argv)`` with every module's public functions wrapped (see
``spans.py``), then spawns untraced runs for the rest of ``--seconds`` to
measure the tracing overhead, and reports the per-layer split and the
deterministic counters.  Forked ``--jobs`` workers do not return their
spans, so for a fanned-out workload the split comes from a ``--jobs 1``
replay and ``cli.fanout_wait_s``, ``criterion.merge_s`` and ``cli.workers``
from the parent of a replay with the workload's own ``--jobs``.

Every run's exit code and report are checked (``workloads.py``); a run that
fails counts in ``failed``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload, check_output, sha256  # noqa: E402

MIN_RUNS = 2
SETUP_PER_CYCLE = 4  # timed spawns of the import after each workload invocation
SETUP_ARGV = ["-c", "import reidtai.cli"]

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics: every "_s" is a self time (children excluded).
PER_LAYER = {
    "enumeration.w_stream_s": "s",
    "enumeration.w_stream_count": "count",
    "enumeration.lambda_stream_s": "s",
    "enumeration.lambda_stream_count": "count",
    "enumeration.class_build_s": "s",
    "enumeration.classes_built": "count",
    "enumeration.pairs_self_s": "s",
    "functors.sym2_s": "s",
    "functors.sym2_calls": "count",
    "functors.tensor_s": "s",
    "functors.tensor_calls": "count",
    "functors.age_s": "s",
    "functors.age_calls": "count",
    "functors.v_spectrum_s": "s",
    "functors.v_spectrum_calls": "count",
    "criterion.fold_self_s": "s",
    "criterion.pairs_folded": "count",
    "criterion.kernel_skips": "count",
    "criterion.sym2_sweep_self_s": "s",
    "criterion.dedupe_s": "s",
    "criterion.exceptions_raw": "count",
    "criterion.exceptions_kept": "count",
    "criterion.catalog_check_s": "s",
    "criterion.merge_s": "s",
    "cli.import_s": "s",
    "cli.main_self_s": "s",
    "cli.fanout_wait_s": "s",
    "cli.workers": "count",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "oracle.realize_s": "s",
    "oracle.sym2_matrix_s": "s",
    "oracle.eig_s": "s",
    "oracle.match_s": "s",
    "oracle.crosscheck_self_s": "s",
    "oracle.cases": "count",
    "trace.replay_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
    "trace.overhead_flagged": "count",
}

# Self-time label behind each per-layer "_s" metric of the split replay.
LAYER_LABELS = {
    "enumeration.w_stream_s": "enumeration.w_stream",
    "enumeration.lambda_stream_s": "enumeration.lambda_stream",
    "enumeration.class_build_s": "enumeration.class_build",
    "enumeration.pairs_self_s": "enumeration.pairs",
    "functors.sym2_s": "functors.sym2",
    "functors.tensor_s": "functors.tensor",
    "functors.age_s": "functors.age",
    "functors.v_spectrum_s": "functors.v_spectrum",
    "criterion.fold_self_s": "criterion.fold",
    "criterion.sym2_sweep_self_s": "criterion.sym2_sweep",
    "criterion.dedupe_s": "criterion.dedupe",
    "criterion.catalog_check_s": "criterion.catalog_check",
    "cli.main_self_s": spans.ROOT,
    "report.render_s": "report.render",
    "oracle.realize_s": "oracle.realize",
    "oracle.sym2_matrix_s": "oracle.sym2_matrix",
    "oracle.eig_s": "oracle.eig",
    "oracle.match_s": "oracle.match",
    "oracle.crosscheck_self_s": "oracle.crosscheck",
}


@dataclass
class Sample:
    exit_code: int
    started: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    steal_s: float  # hypervisor steal on the spawn's cores, averaged over them


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("REIDTAI_JOBS", None)  # the workload's argv sets --jobs
    env["OPENBLAS_NUM_THREADS"] = "1"  # one thread per process, as pinned
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(
    args: list[str], workdir: Path, env: dict[str, str], core: int | None = None
) -> Sample:
    """Run ``python <args>`` to exit, pinned to ``core`` if given; time it,
    read its rusage and the steal on the cores it ran on."""
    out, err = workdir / "stdout", workdir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    affinity = os.sched_getaffinity(0)
    cores = sorted(affinity) if core is None else [core]
    steal_before = hostspeed.steal_s()
    if core is not None:
        os.sched_setaffinity(0, {core})  # this thread's; the child inherits it
    try:
        started = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *args], env, file_actions=actions, setpgroup=0
        )
    finally:
        os.sched_setaffinity(0, affinity)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - started
    steal_after = hostspeed.steal_s()
    return Sample(
        os.waitstatus_to_exitcode(status),
        started,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        out.read_bytes(),
        statistics.fmean(steal_after.get(c, 0.0) - steal_before.get(c, 0.0) for c in cores),
    )


def summary(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def code_hash() -> str:
    """Digest of the program and benchmark sources, keying counter snapshots."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def host_info() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "commit": git_commit(),
        "code_sha256": code_hash(),
    }


class Run:
    """Attempts and failures of one benchmark run."""

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.first_digest: str | None = None

    def check(self, what: str, exit_code: int, stdout: bytes) -> None:
        self.attempted += 1
        errors = check_output(self.wl, self.seed, exit_code, stdout)
        digest = sha256(stdout)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            errors.append("report differs from the first run with this seed")
        if errors:
            self.failed += 1
            self.problems += [f"{self.wl.name} {what}: {e}" for e in errors]


@dataclass
class Place:
    """Where spawns run: scratch directory, environment, and the core that
    set-up spawns (and the workload's, unless it fans out) are pinned to."""

    workdir: Path
    env: dict[str, str]
    core: int
    pinned: bool  # the workload's spawns are pinned to ``core``

    @property
    def run_core(self) -> int | None:
        return self.core if self.pinned else None


def measure_setup(place: Place, run: Run, count: int) -> list[Sample]:
    samples = [spawn(SETUP_ARGV, place.workdir, place.env, place.core) for _ in range(count)]
    if any(s.exit_code != 0 for s in samples):
        stderr = (place.workdir / "stderr").read_text()
        run.problems.append(f"import of reidtai.cli failed: {stderr}")
    return samples


def measure_runs(
    run: Run, place: Place, seconds: float, min_runs: int
) -> tuple[list[Sample], list[Sample]]:
    """Workload invocations, each followed by a few set-up spawns, until the
    next cycle would end more than half a cycle past ``seconds``.

    Contention from other tenants comes in phases of seconds, so set-up is
    sampled across the whole run rather than in one burst.
    """
    argv = ["-m", "reidtai.cli", *run.wl.argv(run.seed)]
    samples: list[Sample] = []
    setup: list[Sample] = []
    started = time.perf_counter()
    while True:
        cycle_started = time.perf_counter()
        sample = spawn(argv, place.workdir, place.env, place.run_core)
        run.check(f"run {len(samples)}", sample.exit_code, sample.stdout)
        samples.append(sample)
        setup += measure_setup(place, run, SETUP_PER_CYCLE)
        now = time.perf_counter()
        if len(samples) >= min_runs and now - started + (now - cycle_started) / 2 >= seconds:
            return samples, setup


def end_to_end(
    samples: list[Sample], setup: list[Sample], speed: hostspeed.HostSpeed, place: Place
) -> tuple[dict[str, dict], dict[str, dict]]:
    """The end-to-end metrics at the reference host speed, and the raw
    times with the invocations' steal and scale factors.

    Wall times lose the hypervisor's steal before they are scaled: the
    reference mix is timed in thread CPU time, which steal does not reach.
    """

    table = speed.samples()

    def scales(group: list[Sample], cores: list[int]) -> list[float]:
        return [hostspeed.scale(table, s.started, s.started + s.wall_s, cores) for s in group]

    run_scale = scales(samples, speed.cores)
    setup_scale = scales(setup, [place.core])
    scaled = {
        "wall_s": summary([(s.wall_s - s.steal_s) * k for s, k in zip(samples, run_scale)]),
        "cpu_s": summary([s.cpu_s * k for s, k in zip(samples, run_scale)]),
        "peak_rss_mb": summary([s.rss_mb for s in samples]),
        "setup_s": summary([(s.wall_s - s.steal_s) * k for s, k in zip(setup, setup_scale)]),
    }
    raw = {
        "wall_s": summary([s.wall_s for s in samples]),
        "cpu_s": summary([s.cpu_s for s in samples]),
        "setup_s": summary([s.wall_s for s in setup]),
        "steal_s": summary([s.steal_s for s in samples]),
        "scale": summary(run_scale),
    }
    return scaled, raw


def check_streams(wl: Workload, observed: dict[str, list[int]], complete: bool) -> list[str]:
    """Compare every stream the replay opened with the generating functions.

    ``complete`` also requires every expected stream to have been opened
    (false for the parent of a fanned-out replay, whose workers open the
    Lambda streams).
    """
    expected = wl.expected_streams()
    errors = []
    for key, sizes in sorted(observed.items()):
        if key not in expected:
            errors.append(f"stream {key} opened, not expected")
        elif any(size != expected[key] for size in sizes):
            errors.append(f"stream {key} yielded {sizes}, generating functions give {expected[key]}")
    if complete:
        errors += [f"stream {key} never opened" for key in sorted(set(expected) - set(observed))]
    return errors


def counters_of(split: spans.Replay, fanout: spans.Replay) -> dict:
    """The deterministic counters of a traced run (no timings)."""
    counters = {
        "streams": dict(sorted(split.streams.items())),
        "counters": dict(sorted(split.counters.items())),
        "calls": dict(sorted(split.calls.items())),
    }
    if fanout is not split:
        counters["fanout"] = {
            "counters": dict(sorted(fanout.counters.items())),
            "calls": dict(sorted(fanout.calls.items())),
        }
    return counters


def check_snapshot(wl: Workload, seed: int, counters: dict) -> list[str]:
    """Counters must repeat exactly across runs of the same code."""
    key = sha256(json.dumps([wl.argv(seed), code_hash()]).encode())[:24]
    path = STATE / f"counters-{wl.name}-{key}.json"
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous != counters:
            diff = sorted(k for k in counters if previous.get(k) != counters[k])
            return [f"counters differ from an earlier run of the same code in {diff}"]
        return []
    path.write_text(json.dumps(counters, sort_keys=True))
    return []


def layer_metrics(split: spans.Replay, fanout: spans.Replay, overhead_s: float) -> dict[str, float]:
    metrics = {name: split.self_s.get(label, 0.0) for name, label in LAYER_LABELS.items()}
    largest = max(v for name, v in metrics.items() if name != "cli.main_self_s")

    def stream_total(prefix: str) -> int:
        return sum(sum(sizes) for key, sizes in split.streams.items() if key.startswith(prefix))

    metrics.update(
        {
            "enumeration.w_stream_count": stream_total("w "),
            "enumeration.lambda_stream_count": stream_total("lambda "),
            "enumeration.classes_built": split.calls.get("enumeration.class_build", 0),
            "criterion.pairs_folded": split.counters.get("pairs_folded", 0),
            "criterion.kernel_skips": split.counters.get("kernel_skips", 0),
            "criterion.exceptions_raw": split.counters.get("exceptions_raw", 0),
            "criterion.exceptions_kept": split.counters.get("exceptions_kept", 0),
            "criterion.merge_s": fanout.self_s.get("criterion.merge", 0.0),
            "cli.import_s": split.import_s,
            "cli.fanout_wait_s": fanout.self_s.get("cli.fanout", 0.0),
            "cli.workers": fanout.counters.get("workers", 0),
            "report.bytes": len(split.stdout),
            "oracle.cases": split.calls.get("oracle.crosscheck", 0),
            "trace.replay_s": split.wall_s,
            "trace.overhead_s": overhead_s,
            "trace.accounted_share": 1 - split.self_s[spans.ROOT] / split.wall_s,
            "trace.overhead_flagged": int(overhead_s > largest),
        }
    )
    for name in ("sym2", "tensor", "age", "v_spectrum"):
        metrics[f"functors.{name}_calls"] = split.calls.get(f"functors.{name}", 0)
    return metrics


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns metrics and bookkeeping."""
    run = Run(wl, seed)
    STATE.mkdir(exist_ok=True)
    result: dict = {"workload": wl.name, "argv": wl.argv(seed)}
    cores = sorted(os.sched_getaffinity(0))
    pinned = wl.jobs == 1
    env = child_env()
    with (
        tempfile.TemporaryDirectory(dir=STATE) as tmp,
        hostspeed.HostSpeed(cores[-1:] if pinned else cores, Path(tmp) / "speed", env) as speed,
    ):
        place = Place(Path(tmp), env, cores[-1], pinned)
        measure_setup(place, run, 1)  # writes the bytecode caches
        if not trace:
            samples, setup = measure_runs(run, place, seconds, MIN_RUNS)
            result["end_to_end"], result["raw"] = end_to_end(samples, setup, speed, place)
        else:
            started = time.perf_counter()
            split, fanout, traced_wall = traced_replays(run, place)
            remaining = seconds - (time.perf_counter() - started)
            samples, setup = measure_runs(run, place, remaining, 1)
            result["end_to_end"], result["raw"] = end_to_end(samples, setup, speed, place)
            # Both raw: the per-layer times are not scaled either.
            overhead = traced_wall - result["raw"]["wall_s"]["median"]
            result["per_layer"] = layer_metrics(split, fanout, overhead)
            result["counters"] = counters_of(split, fanout)
            run.problems += check_streams(wl, split.streams, complete=True)
            if fanout is not split:
                run.problems += check_streams(wl, fanout.streams, complete=False)
            run.problems += check_snapshot(wl, seed, result["counters"])
    result["attempted"], result["failed"] = run.attempted, run.failed
    result["problems"] = run.problems
    return result


def traced_replays(run: Run, place: Place) -> tuple[spans.Replay, spans.Replay, float]:
    """The split replay, the fan-out replay (the same one unless the
    workload fans out) and the fan-out replay's wall time, spawn to exit."""
    trace_path = place.workdir / "trace.json"

    def traced(what: str, argv: list[str], core: int | None) -> tuple[spans.Replay, float]:
        args = [str(HERE / "spans.py"), str(trace_path), *argv]
        sample = spawn(args, place.workdir, place.env, core)
        if sample.exit_code != 0:
            stderr = (place.workdir / "stderr").read_text()
            raise RuntimeError(f"traced replay failed: {stderr}")
        replay = spans.load(trace_path, sample.stdout)
        run.check(what, replay.exit_code, replay.stdout)
        return replay, sample.wall_s

    split, wall = traced("traced replay", run.wl.argv(run.seed, jobs=1), place.core)
    if run.wl.jobs == 1:
        return split, split, wall
    fanout, wall = traced("traced fan-out replay", run.wl.argv(run.seed), None)
    return split, fanout, wall


def print_result(result: dict) -> None:
    print(f"== {result['workload']}: reidtai {' '.join(result['argv'])}")
    for name, stats in result["end_to_end"].items():
        print(
            f"  {name:<12} median={stats['median']:.4f} q1={stats['q1']:.4f}"
            f" q3={stats['q3']:.4f} n={stats['n']} {END_TO_END[name]}"
        )
    print("  raw, before scaling to the reference host speed:")
    for name, stats in result["raw"].items():
        unit = "x" if name == "scale" else "s"
        print(
            f"    {name:<10} median={stats['median']:.4f} q1={stats['q1']:.4f}"
            f" q3={stats['q3']:.4f} n={stats['n']} {unit}"
        )
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  failed_ratio={ratio:.4f} ({result['failed']} of {result['attempted']} runs)")
    if "per_layer" in result:
        layers = result["per_layer"]
        replay_s = layers["trace.replay_s"]
        print(f"  per-layer self time of the traced replay ({replay_s:.3f} s in process):")
        times = sorted((v, n) for n, v in layers.items() if n in LAYER_LABELS)
        for value, name in reversed(times):
            if value > 0:
                print(f"    {name:<32} {value:9.4f} s  {value / replay_s:6.1%}")
        core = layers["enumeration.class_build_s"] + layers["criterion.fold_self_s"] + sum(
            v for n, v in layers.items() if n.startswith("functors.") and n.endswith("_s")
        )
        print(f"    class_build + fold_self + functors: {core / replay_s:.1%} of the replay")
        for name, value in layers.items():
            if name not in LAYER_LABELS:
                print(f"    {name:<32} {value:.6g} {PER_LAYER[name]}")
        if layers["trace.overhead_flagged"]:
            print("  warning: tracing overhead exceeds the largest layer; the split is unreliable")
        print("  counters: " + json.dumps(result["counters"], sort_keys=True))
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def metrics_line(result: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {
            prefix + n: {"value": result["per_layer"][n], "unit": u} for n, u in PER_LAYER.items()
        }
    return {
        prefix + n: {"value": result["end_to_end"][n]["median"], "unit": u}
        for n, u in END_TO_END.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a spawned child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "reidtai" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'reidtai'}", file=sys.stderr)
        return 2

    host = host_info()
    cores = host["affinity"]
    if host["loadavg_start"] and host["loadavg_start"][0] > cores:
        print(
            f"warning: 1-minute load {host['loadavg_start'][0]} exceeds {cores} cores;"
            " expect noisy timings",
            file=sys.stderr,
        )
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names
    ]
    host["loadavg_end"] = loadavg()
    for result in results:
        print_result(result)
    print("host: " + json.dumps(host, sort_keys=True))

    metrics: dict = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        metrics.update(metrics_line(result, bool(args.trace), prefix))
    line = {
        "correct": not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
