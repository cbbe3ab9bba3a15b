"""The benchmark's own tests, at small sizes so they run in seconds.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gencount  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Workload  # noqa: E402

# The workloads at small sizes: the same code paths in seconds.
SMALL = {
    "catalog": Workload("catalog", "", "exceptions", 4, exit_code=3),
    "interior": Workload("interior", "", "interior", 5),
    "relaxed": Workload(
        "relaxed", "", "exceptions", 3, mode="unconstrained", terminal=True, jobs=2, exit_code=3
    ),
    "oracle": Workload("oracle", "", "oracle", 20),
}


def test_generating_functions_match_hand_counts():
    assert [gencount.ppav_count(h, 12) for h in range(1, 9)] == [
        8, 40, 152, 483, 1344, 3376, 7808, 16870,
    ]
    assert [gencount.lattice_count(r, 12) for r in range(1, 7)] == [2, 6, 10, 21, 32, 56]
    assert [gencount.multiset_count(d, 12) for d in range(5)] == [1, 12, 78, 364, 1365]
    assert gencount.catalog_pairs(7, "integral-both") == 32367
    assert gencount.catalog_pairs(5, "unconstrained") == 93907


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = spans.wrap_call(tracer, lambda: None, "inner")
    outer = spans.wrap_call(tracer, lambda: inner(), "outer")
    outer()  # outer spans 0..10, inner spans 1..4
    assert tracer.self_s == {"inner": 3.0, "outer": 7.0}
    assert tracer.calls == {"inner": 1, "outer": 1}


def test_host_speed_scale_uses_samples_in_the_interval_on_its_cores():
    ref = hostspeed.REFERENCE_S
    samples = [(t, 0, ref * 2) for t in range(10)] + [(t + 0.5, 1, ref) for t in range(10)]
    assert hostspeed.scale(samples, 2, 8, [0]) == 0.5  # the host ran at half speed
    assert hostspeed.scale(samples, 2, 8, [1]) == 1.0
    # Too few samples inside: the nearest ones stand in.
    assert hostspeed.scale(samples, 4.1, 4.2, [1]) == 1.0
    with pytest.raises(RuntimeError):
        hostspeed.scale(samples, 0, 9, [5])


def test_wall_times_lose_steal_before_scaling():
    ref = hostspeed.REFERENCE_S

    class HalfSpeed:  # the reference mix took twice its reference time
        cores = [0]

        def samples(self):
            return [(t / 10, 0, ref * 2) for t in range(100)]

    sample = run.Sample(0, 1.0, 3.0, 2.0, 30.0, b"", steal_s=1.0)
    place = run.Place(Path("."), {}, 0, True)
    scaled, raw = run.end_to_end([sample], [sample], HalfSpeed(), place)
    assert scaled["wall_s"]["median"] == scaled["setup_s"]["median"] == 1.0  # (3 - 1) / 2
    assert scaled["cpu_s"]["median"] == 1.0  # CPU time holds no steal
    assert (raw["wall_s"]["median"], raw["steal_s"]["median"]) == (3.0, 1.0)


def test_generator_spans_count_items_once():
    tracer = spans.Tracer()

    def inner(n):
        yield from range(n)

    inner_wrapped = spans.wrap_gen(tracer, inner, "stream", lambda n: f"n={n}")

    def outer(n):
        yield from inner_wrapped(n)

    outer_wrapped = spans.wrap_gen(tracer, outer, "stream", lambda n: f"n={n}")
    assert list(outer_wrapped(5)) == [0, 1, 2, 3, 4]
    assert tracer.streams == {"n=5": [5]}
    assert tracer.calls["stream"] == 2
    assert tracer.stack == []


def _assert_spans_add_up(replay: spans.Replay) -> None:
    assert all(v > -1e-9 for v in replay.self_s.values())
    assert sum(replay.self_s.values()) == pytest.approx(replay.wall_s, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", ["catalog", "interior", "oracle"])
def test_replay_small_workloads(name):
    from reidtai import functors

    sym2 = functors.sym2
    wl = SMALL[name]
    replay = spans.replay(wl.argv(seed=5))
    assert functors.sym2 is sym2, "patches must be restored"
    assert workloads.check_output(wl, 5, replay.exit_code, replay.stdout) == []
    assert run.check_streams(wl, replay.streams, complete=True) == []
    _assert_spans_add_up(replay)
    if name == "catalog":
        assert replay.counters["pairs_folded"] == gencount.catalog_pairs(4, wl.mode)
        assert replay.self_s["enumeration.class_build"] > 0
        assert replay.self_s["criterion.fold"] > 0
    if name == "interior":
        assert replay.streams == {"w h=5": [1344]}
        assert replay.self_s["criterion.sym2_sweep"] > 0
    if name == "oracle":
        assert replay.calls["oracle.crosscheck"] == 20


def test_dropped_class_fails_stream_check():
    wl = SMALL["catalog"]
    streams = {key: [n] for key, n in wl.expected_streams().items()}
    assert run.check_streams(wl, streams, complete=True) == []
    streams["w h=3"] = [151]
    assert run.check_streams(wl, streams, complete=True) != []
    del streams["w h=3"]
    assert run.check_streams(wl, streams, complete=True) != []
    assert run.check_streams(wl, streams, complete=False) == []


def test_wrong_report_counts_as_failed():
    wl = workloads.WORKLOADS["interior"]
    bad = b'{"verdicts": [], "minima": []}'
    assert workloads.check_output(wl, 0, 0, bad) != []
    attempt = run.Run(wl, 0)
    attempt.check("run", 0, bad)
    assert (attempt.attempted, attempt.failed) == (1, 1)


def test_fanned_out_run_reports_every_metric():
    wl = SMALL["relaxed"]
    result = run.run_workload(wl, 1, 0.1, trace=True)
    assert result["problems"] == []
    assert (result["attempted"], result["failed"]) == (3, 0)
    layers = result["per_layer"]
    assert set(layers) == set(run.PER_LAYER)
    assert layers["cli.workers"] == 2
    assert layers["criterion.merge_s"] > 0
    assert layers["criterion.exceptions_kept"] * 2 == layers["criterion.exceptions_raw"]
    assert result["counters"]["streams"]["lambda r=2"] == [78]


def test_counters_must_repeat():
    wl = Workload("snapshot-test", "", "interior", 5)
    counters = {"counters": {"pairs_folded": 3}}
    key = run.sha256(json.dumps([wl.argv(0), run.code_hash()]).encode())[:24]
    path = run.STATE / f"counters-{wl.name}-{key}.json"
    run.STATE.mkdir(exist_ok=True)
    path.unlink(missing_ok=True)
    try:
        assert run.check_snapshot(wl, 0, counters) == []
        assert run.check_snapshot(wl, 0, counters) == []
        assert run.check_snapshot(wl, 0, {"counters": {"pairs_folded": 2}}) != []
    finally:
        path.unlink(missing_ok=True)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workloads.WORKLOADS[name].why for name in workloads.GATED
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program():
    bare = run.STATE / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
