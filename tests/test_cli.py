"""Driver behavior: flags, exit codes, report formats, determinism."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reidtai.cli
import reidtai.oracle
from reidtai.cli import main, sweep_charts
from reidtai.report import Report, parse_json, render_json

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_exception_chart(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--h", "1", "--r", "4", "--order-divides", "12",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["exceptions"]) == 1
    row = data["exceptions"][0]
    assert row["age_v"] == "1/2"
    assert row["matches_iii"] is True
    assert row["w_spec"] == ["1/2"]
    assert data["violations"] == []


def test_sweep_interior(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--interior", "--g", "6", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdicts"] == [
        {"stratum": "interior", "g": 6, "kind": "terminal", "min_age": "7/6"}
    ]


def test_sweep_no_exceptions(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--h", "2", "--r", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["exceptions"] == []


def test_sweep_sym2_only(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--h", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["minima"][0]["min_age"] == "1/1"
    assert data["minima"][0]["r"] is None


def test_sweep_torus_heading(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--h", "0", "--r", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdicts"][0]["stratum"] == "torus"
    assert data["exceptions"] == []


def test_exceptions_catalog(capsys):
    code, out, _ = run_cli(capsys, "exceptions", "--g", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["exceptions"]) == 1
    assert data["exceptions"][0]["h"] == 1
    assert data["exceptions"][0]["r"] == 4
    assert len(data["minima"]) == 5


def test_exceptions_stable_under_larger_bound(capsys):
    code, out12, _ = run_cli(capsys, "exceptions", "--g", "6", "--format", "json")
    assert code == 0
    code, out24, _ = run_cli(
        capsys, "exceptions", "--g", "6", "--order-divides", "24", "--format", "json"
    )
    assert code == 0
    assert json.loads(out12)["exceptions"] == json.loads(out24)["exceptions"]


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep",),
        ("sweep", "--interior"),
        ("sweep", "--interior", "--g", "5", "--h", "2"),
        ("sweep", "--g", "5"),
        ("sweep", "--h", "-1", "--r", "2"),
        ("sweep", "--h", "1", "--r", "2", "--jobs", "0"),
        ("sweep", "--h", "0"),
        ("exceptions",),
        ("exceptions", "--g", "0"),
        ("sweep", "--h", "1", "--r", "2", "--mode", "bogus"),
        ("oracle", "--samples", "-3"),
        ("exceptions", "--g", "5", "--order-divides", "720"),
        ("exceptions", "--g", "5", "--order-divides", "0"),
        ("sweep", "--h", "1", "--r", "2", "--order-divides", "-5"),
        ("sweep", "--h", "1", "--r", "2", "--order-divides", "twelve"),
        ("oracle", "--order-divides", "720"),
        ("oracle", "--tol", "0"),
        ("oracle", "--tol", "-1e-9"),
        ("oracle", "--tol", "1e-3"),
        ("oracle", "--tol", "nan"),
        ("oracle", "--max-degree", "0"),
        ("exceptions", "--g", "2", "--out", "/nonexistent/d/x.json"),
        ("exceptions", "--g", "2", "--out", str(Path(__file__).parent)),
        ("oracle", "--samples", "1", "--out", str(Path(__file__).parent)),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2


def test_violation_exit_3(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--h", "1", "--r", "2", "--format", "json"
    )
    assert code == 3
    data = json.loads(out)
    assert data["violations"]
    assert all(row["rule"] == "order-2" for row in data["violations"])
    assert "proposition violation" in err


def test_exceptions_below_hypothesis_exit_3(capsys):
    code, out, _ = run_cli(capsys, "exceptions", "--g", "4", "--format", "json")
    assert code == 3
    assert json.loads(out)["violations"]


def test_oracle_command(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--samples", "5", "--seed", "7", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["oracle"]["passes"] == 5
    assert data["oracle"]["failures"] == 0

    code, out, _ = run_cli(capsys, "oracle", "--samples", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["oracle"]["cases"] == []


def test_oracle_failure_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise reidtai.oracle.OracleFailure("forced")

    monkeypatch.setattr(reidtai.oracle, "run_oracle_cases", broken)
    code, out, err = run_cli(capsys, "oracle", "--samples", "1", "--format", "json")
    assert code == 4
    assert "forced" in err


def test_oracle_mismatch_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(
        reidtai.oracle, "crosscheck_functor", lambda *a, **k: False
    )
    code, out, _ = run_cli(capsys, "oracle", "--samples", "2", "--format", "json")
    assert code == 4
    assert json.loads(out)["oracle"]["failures"] == 2


def test_threshold_terminal_reports_boundary_rows(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--h", "2", "--r", "4", "--threshold", "terminal",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["exceptions"]
    assert rows
    assert all(row["age_v"] == "1/1" for row in rows)


def test_relaxed_mode_breaks_order_two_claim(capsys):
    # dropping the abelian-side integrality admits {1/12}, whose chart
    # action has order 12 at age 1/2: the machine check must trip
    code, out, _ = run_cli(
        capsys, "sweep", "--h", "1", "--r", "4",
        "--mode", "integral-lambda-only", "--format", "json",
    )
    assert code == 3
    data = json.loads(out)
    assert any(
        row["w_spec"] == ["1/12"] and row["age_v"] == "1/2"
        for row in data["violations"]
    )


def test_unconstrained_mode_small(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--h", "1", "--r", "0", "--order-divides", "2",
        "--mode", "unconstrained", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["exceptions"] == []


def test_report_round_trip():
    report = Report(
        config={"command": "sweep", "h": 1, "r": 4},
        minima=[{"h": 1, "r": 4, "min_age": "1/2", "witnesses": []}],
        exceptions=[],
        violations=[],
        verdicts=[{"stratum": "interior", "g": 5, "kind": "canonical",
                   "min_age": "1/1"}],
    )
    assert parse_json(render_json(report)) == report


def test_deterministic_outputs(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code = main(
            ["exceptions", "--g", "5", "--format", "json", "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_jobs_do_not_change_bytes(tmp_path, capsys):
    # the exceptions run fans its five charts out over a real pool, and
    # its violation rows come back through it
    cases = [
        (("sweep", "--h", "1", "--r", "4"), "3", 0),
        (("exceptions", "--g", "5", "--mode", "unconstrained",
          "--threshold", "terminal"), "2", 3),
    ]
    for argv, jobs, expected in cases:
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        code = main([*argv, "--format", "json", "--jobs", "1", "--out", str(serial)])
        capsys.readouterr()
        assert code == expected
        code = main([*argv, "--format", "json", "--jobs", jobs, "--out", str(parallel)])
        capsys.readouterr()
        assert code == expected
        assert serial.read_bytes() == parallel.read_bytes(), argv


def test_oracle_accepts_the_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--samples", "3", "--tol", "1e-6", "--max-degree", "1",
        "--order-divides", "360", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["oracle"]["failures"] == 0


@pytest.mark.parametrize("cpus, expected", [(2, 2), (None, 1), (64, 8)])
def test_fan_out_capped_at_cpu_count(monkeypatch, cpus, expected):
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the pool size and
        runs the tasks in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    # eight small charts, the four with r < 4 violating the order-2 claim
    tasks = [(1, r, 12, "integral-both", False) for r in range(8)]
    # sweep_charts imports the pool from here only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(reidtai.cli.os, "cpu_count", lambda: cpus)
    serial = sweep_charts(tasks, 1)
    assert sweep_charts(tasks, 1000) == serial
    # a pool of min(jobs, charts, cpus), and none when that is 1
    assert sizes == ([] if expected == 1 else [expected])
    assert sweep_charts(tasks[:1], 1000) == serial[:1]
    assert sizes == ([] if expected == 1 else [expected])


def test_jobs_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REIDTAI_JOBS", "2")
    viaenv = tmp_path / "viaenv.json"
    code = main(["sweep", "--h", "2", "--r", "3", "--format", "json",
                 "--out", str(viaenv)])
    capsys.readouterr()
    assert code == 0
    monkeypatch.delenv("REIDTAI_JOBS")
    plain = tmp_path / "plain.json"
    code = main(["sweep", "--h", "2", "--r", "3", "--format", "json",
                 "--out", str(plain)])
    capsys.readouterr()
    assert code == 0
    assert viaenv.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_jobs_env_rejects_bad_values(capsys, monkeypatch, value):
    monkeypatch.setenv("REIDTAI_JOBS", value)
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--h", "1", "--r", "4"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("sweep_h1_r4.json",
         ("sweep", "--h", "1", "--r", "4", "--order-divides", "12",
          "--format", "json")),
        ("exceptions_g5.json", ("exceptions", "--g", "5", "--format", "json")),
        ("exceptions_g5.csv", ("exceptions", "--g", "5", "--format", "csv")),
        ("interior_g5.txt", ("sweep", "--interior", "--g", "5",
                             "--format", "text")),
        ("exceptions_g8.json", ("exceptions", "--g", "8", "--format", "json")),
        ("oracle_s200_seed3.json", ("oracle", "--samples", "200", "--seed", "3",
                                    "--format", "json")),
    ],
)
def test_golden_reports(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_cli_import_leaves_numpy_out():
    # only the oracle needs numpy; the sweeps must not pay for its import
    script = "import sys, reidtai.cli; sys.exit('numpy' in sys.modules)"
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr or "numpy was imported"


def test_cli_import_leaves_the_process_pool_out():
    # only sweep_charts with more than one worker starts a pool
    script = (
        "import sys, reidtai.cli; "
        "sys.exit(bool({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr or "the process pool was imported"


# SHA-256 of the benchmark's oracle reports (oracle --samples 1000 --format
# json) at the first three seeds, as pinned in perfbench/workloads.py.
ORACLE_DIGESTS = {
    0: "af24f73e2561fc513293d708eb6114ec697f3b1bffa7f4cdf724504947b58096",
    1: "4b11a4aa1a414fd4ad40460555bacb1ebec61683fb7e15ff545ed29e7f462bf7",
    2: "d6b55305cc69519c3730d62959e374ed1a1ce8fb042f47331c171395dc39b3a2",
}


@pytest.mark.parametrize("seed", sorted(ORACLE_DIGESTS))
def test_oracle_reports_match_the_pinned_digests(capsys, seed):
    code, out, _ = run_cli(
        capsys, "oracle", "--samples", "1000", "--seed", str(seed), "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_DIGESTS[seed]
