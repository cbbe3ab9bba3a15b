"""Host speed, sampled alongside every timed spawn, to correct timings for it.

The benchmark runs on a few cores of a shared machine whose speed drifts by
up to 2x over tens of seconds as other tenants come and go.  Most of the
drift is lost throughput, which CPU time shows as much as wall time; in some
phases the hypervisor also keeps a core off for a while (steal, read from
/proc/stat by ``steal_s``), which only wall time shows.  No run length
averages either out.  While the benchmark measures, a sampler process
runs one thread per core the workload runs on; each executes a fixed
reference mix (a frozen copy of the program's class construction and age
fold, about a millisecond) every ``PERIOD_S`` and records the thread CPU
time it took.  A time measured over an interval is then reported at the
reference speed:

    scaled = raw * REFERENCE_S / mean(reference-mix time within the interval)

with the steal on the interval's cores taken off a raw wall time first.

The mean, not the median: the workload pays for the host's brief slow
spells as well as its typical speed.  Only the slowest and fastest tenth of
the samples are dropped, as a guard against a stray one.

The mix is frozen in the benchmark's own code, so it is the same on every
commit: a change to the program moves the scaled times exactly as it moves
the raw ones, while a slow phase of the host moves the mix and the workload
together.

The sampler is a process of its own so that the benchmark process, which
spawns the workload, stays small: a spawned child's ``ru_maxrss`` starts
from the spawning process's peak.  Run alone it samples until its stdin
closes:

    python3 hostspeed.py SAMPLES_FILE CORE [CORE ...]
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PERIOD_S = 0.05
# About the median time of one reference mix on the 2-core Xeon VM (Python
# 3.11.7) the benchmark was tuned on; it only sets the scale of the reported
# times.
REFERENCE_S = 0.001
MIN_SAMPLES = 5

Samples = list[tuple[float, int, float]]  # (end of the mix, core, seconds)


class HostSpeed:
    """The sampler process on ``cores``, as a context manager."""

    def __init__(self, cores: list[int], path: Path, env: dict[str, str]):
        self.cores, self.path, self.env = cores, path, env
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> HostSpeed:
        argv = [sys.executable, __file__, str(self.path), *map(str, self.cores)]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, env=self.env)
        return self

    def __exit__(self, *exc) -> None:
        assert self.proc is not None
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def samples(self) -> Samples:
        """Every sample taken so far."""
        lines = self.path.read_text().split("\n")[:-1]  # drop a line being written
        return [(float(t), int(core), float(dt)) for t, core, dt in map(str.split, lines)]


def scale(samples: Samples, start: float, end: float, cores: list[int]) -> float:
    """REFERENCE_S over the trimmed mean reference-mix time in ``[start,
    end]`` on ``cores``, widened to the ``MIN_SAMPLES`` samples nearest the
    interval's middle when it holds fewer."""
    mine = [(t, dt) for t, core, dt in samples if core in cores]
    if not mine:
        raise RuntimeError(f"no host speed samples on cores {cores}")
    inside = [dt for t, dt in mine if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(mine, key=lambda sample: abs(sample[0] - middle))
        inside = [dt for _, dt in nearest[:MIN_SAMPLES]]
    inside.sort()
    trim = len(inside) // 10
    return REFERENCE_S / statistics.fmean(inside[trim : len(inside) - trim])


def steal_s() -> dict[int, float]:
    """Seconds each CPU has spent runnable but kept off by the hypervisor
    (the ``steal`` column of /proc/stat); empty where it is not reported."""
    try:
        lines = Path("/proc/stat").read_text().splitlines()
    except OSError:
        return {}
    tick = os.sysconf("SC_CLK_TCK")
    return {
        int(f[0][3:]): int(f[8]) / tick
        for f in map(str.split, lines)
        if f and f[0].startswith("cpu") and f[0] != "cpu" and len(f) > 8
    }


@dataclass(frozen=True, slots=True)
class _Rot:
    """Frozen copy of the program's rotation number, checks included."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0 or self.den > 360 or not 0 <= self.num < self.den:
            raise ValueError(f"{self.num}/{self.den} out of range")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not in lowest terms")

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.den, self.num)

    def __add__(self, other: _Rot) -> _Rot:
        l = math.lcm(self.den, other.den)
        return _rot(self.num * (l // self.den) + other.num * (l // other.den), l)


def _rot(num: int, den: int) -> _Rot:
    num %= den
    g = math.gcd(num, den)
    return _Rot(num // g, den // g)


@dataclass(frozen=True, slots=True)
class _Spectrum:
    entries: tuple[_Rot, ...]

    def __post_init__(self) -> None:
        keys = [q.sort_key for q in self.entries]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise ValueError("entries not canonically sorted")

    @classmethod
    def of(cls, entries) -> _Spectrum:
        return cls(tuple(sorted(entries, key=lambda q: q.sort_key)))


def reference_mix_factory():
    """The reference mix: a frozen copy of the program's class construction
    and age fold (sym2, tensor, direct sum, element order, age as a sum of
    Fractions) on six fixed (W, Lambda) pairs.

    Host contention slows the interpreter's object and Fraction churn more
    than it slows, say, integer loops or memory reads, so a mix made of the
    program's own kind of work tracks the workloads' slow phases best.  It
    is frozen here, not imported, so that a faster program does not also
    make the reference faster.
    """
    ws = [(1, 2), (1, 3), (2, 3)], [(1, 4), (3, 4), (1, 6)], [(1, 12), (5, 12), (7, 12)]
    ls = [(0, 1), (1, 2), (1, 2)], [(1, 3), (2, 3), (1, 4), (3, 4)]
    pairs = [
        (_Spectrum.of(_rot(*q) for q in w), _Spectrum.of(_rot(*q) for q in lam))
        for w in ws
        for lam in ls
    ]

    def reference_mix() -> int:
        total = 0
        for w, lam in pairs:
            e = w.entries
            sym2 = _Spectrum.of(e[i] + e[j] for i in range(len(e)) for j in range(i, len(e)))
            tensor = _Spectrum.of(x + y for x in e for y in lam.entries)
            v = _Spectrum.of([*sym2.entries, *tensor.entries])
            order = math.lcm(*(q.den for q in w.entries), *(q.den for q in lam.entries))
            kernel = all(q.num == 0 for q in v.entries)
            age = sum((Fraction(q.num, q.den) for q in v.entries), Fraction(0))
            total += order + kernel + age.denominator
        return total

    return reference_mix


def sample(out, lock: threading.Lock, stop: threading.Event, core: int, offset: float) -> None:
    os.sched_setaffinity(threading.get_native_id(), {core})
    mix = reference_mix_factory()
    mix()
    # Stagger the threads so they do not queue on the GIL together.
    if stop.wait(offset):
        return
    while not stop.wait(PERIOD_S):
        started = time.thread_time()
        mix()
        took = time.thread_time() - started
        with lock:
            out.write(f"{time.perf_counter():.6f} {core} {took:.9f}\n")
            out.flush()


def main(argv: list[str]) -> int:
    path, cores = argv[0], [int(core) for core in argv[1:]]
    stop, lock = threading.Event(), threading.Lock()
    with open(path, "w") as out:
        offsets = [PERIOD_S * n / len(cores) for n in range(len(cores))]
        threads = [
            threading.Thread(target=sample, args=(out, lock, stop, core, offset))
            for core, offset in zip(cores, offsets)
        ]
        for thread in threads:
            thread.start()
        sys.stdin.read()  # until the benchmark closes it, or exits
        stop.set()
        for thread in threads:
            thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
