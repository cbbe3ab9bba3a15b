"""Driver behavior: flags, exit codes, report formats, determinism."""

import argparse
import ast
import gc
import hashlib
import itertools
import json
import marshal
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reidtai.cli
import reidtai.oracle
from reidtai.cli import main, sweep_charts
from reidtai.report import render_json

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_process(*argv):
    """``python -m reidtai.cli ARGV`` in a subprocess, through ``run()``."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-m", "reidtai.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )


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
        ("oracle", "--samples", "100001"),
        ("oracle", "--samples", "1000000000"),
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
        ("oracle", "--max-degree", "25"),
        ("exceptions", "--g", "2", "--out", "/nonexistent/d/x.json"),
        ("exceptions", "--g", "2", "--out", str(Path(__file__).parent)),
        ("oracle", "--samples", "1", "--out", str(Path(__file__).parent)),
        # the interior, the Sym^2 table and the torus report no rows
        ("sweep", "--interior", "--g", "3", "--threshold", "terminal"),
        ("sweep", "--h", "2", "--threshold", "terminal"),
        ("sweep", "--h", "0", "--r", "3", "--threshold", "terminal"),
        ("sweep", "--h", "0", "--r", "2", "--mode", "unconstrained", "--threshold", "terminal"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2


def test_samples_bound_is_accepted():
    # 100,000 parses; one more is a usage error (above)
    assert reidtai.cli.MAX_SAMPLES == 100_000
    args = reidtai.cli.build_parser().parse_args(["oracle", "--samples", "100000"])
    assert args.samples == 100_000


@pytest.mark.parametrize("mode", ["integral-lambda-only", "unconstrained"])
@pytest.mark.parametrize("argv", [("sweep", "--h", "2"), ("sweep", "--interior", "--g", "3")])
def test_integral_only_sweeps_reject_other_modes(capsys, monkeypatch, argv, mode):
    # the interior and the Sym^2 table sweep the integral W stream only, so
    # another --mode is a usage error, raised before any sweep runs
    assert run_cli(capsys, *argv, "--mode", "integral-both")[0] == 0

    def ran(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(reidtai.criterion, "sweep_sym2", ran)
    monkeypatch.setattr(reidtai.criterion, "interior_verdict", ran)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--mode", mode])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "text",
    [
        "", ".", "/", "dir/", "dir/.", "dir/x.json", "dir/./x.json", "dir/x.json/",
        "dir/../x.json", "missing/", "missing/x.json", "missing/../x.json",
        "file", "file/", "file/.", "/nonexistent/d/x.json",
    ],
)
def test_out_path_follows_the_pathlib_rule(tmp_path, monkeypatch, text):
    # --out takes what pathlib.Path(text) reads as a file in an existing
    # directory, and names the file that Path would write
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    path = Path(text)
    if path.parent.is_dir() and not path.is_dir():
        got = reidtai.cli._out_path(text)
        assert os.path.normpath(got) == os.path.normpath(path)
    else:
        with pytest.raises(argparse.ArgumentTypeError):
            reidtai.cli._out_path(text)


def test_unwritable_out_exits_2(tmp_path):
    # a name in an existing directory parses, but one too long for the file
    # system fails at open: a usage error with one line, and stdout still
    # carries the report
    argv = ["sweep", "--h", "1", "--r", "1", "--format", "json"]
    target = tmp_path / ("a" * 300 + ".json")
    done = [cli_process(*args) for args in (argv, [*argv, "--out", str(target)])]
    assert done[1].returncode == 2
    assert "Traceback" not in done[1].stderr
    assert "reidtai: error: cannot write --out" in done[1].stderr
    assert done[1].stdout == done[0].stdout


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
    report = {
        "config": {"command": "sweep", "h": 1, "r": 4},
        "minima": [{"h": 1, "r": 4, "min_age": "1/2", "witnesses": []}],
        "exceptions": [],
        "violations": [],
        "verdicts": [{"stratum": "interior", "g": 5, "kind": "canonical",
                      "min_age": "1/1"}],
    }
    assert json.loads(render_json(report)) == report


def test_every_package_export_is_run_by_the_program_or_the_gate():
    # a name reidtai re-exports is referenced in code by another module of
    # the package, or imported by the acceptance gate; a docstring mention
    # is not a reference, and a route only the tests run lives in tests/
    package = SRC / "reidtai"
    exported = {
        alias.asname or alias.name
        for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    referenced = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    gate = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    gate_imports = {
        alias.asname or alias.name
        for node in ast.walk(gate)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(exported - referenced - gate_imports) == []


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
    # the exceptions run fans its five charts out over forked workers, and
    # its violation rows come back through their pipes; every renderer,
    # the text one reading the rebuilt records' fields, writes the same bytes
    cases = [
        (("sweep", "--h", "1", "--r", "4"), "3", 0),
        (("exceptions", "--g", "5", "--mode", "unconstrained",
          "--threshold", "terminal"), "2", 3),
    ]
    for (argv, jobs, expected), fmt in itertools.product(cases, ("json", "text", "csv")):
        serial = tmp_path / f"serial.{fmt}"
        parallel = tmp_path / f"parallel.{fmt}"
        code = main([*argv, "--format", fmt, "--jobs", "1", "--out", str(serial)])
        capsys.readouterr()
        assert code == expected
        code = main([*argv, "--format", fmt, "--jobs", jobs, "--out", str(parallel)])
        capsys.readouterr()
        assert code == expected
        assert serial.read_bytes() == parallel.read_bytes(), (argv, fmt)


def test_oracle_accepts_the_bounds(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--samples", "3", "--tol", "1e-6", "--max-degree", "1",
        "--order-divides", "360", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["oracle"]["failures"] == 0


@pytest.mark.parametrize("cpus, expected", [(2, 2), (None, 1), (64, 8)])
def test_fan_out_capped_at_cpu_count(monkeypatch, cpus, expected):
    # eight small charts, the four with r < 4 violating the order-2 claim
    tasks = [(1, r, 12, "integral-both", False) for r in range(8)]
    serial = sweep_charts(tasks, 1)
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert sweep_charts(tasks, 1000) == serial
    # min(jobs, charts, usable cpus) workers, and no fork when that is 1
    assert len(forks) == (0 if expected == 1 else expected)
    assert sweep_charts(tasks[:1], 1000) == serial[:1]
    assert len(forks) == (0 if expected == 1 else expected)


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    # pinned to one core of many: one worker, not one per core
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert reidtai.cli._usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert reidtai.cli._usable_cpus() == 64


def test_fan_out_without_fork_runs_serially(monkeypatch):
    tasks = [(1, r, 12, "integral-both", False) for r in range(3)]
    serial = sweep_charts(tasks, 1)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(reidtai.cli, "_usable_cpus", lambda: 2)
    assert sweep_charts(tasks, 2) == serial


def test_fan_out_returns_payloads_larger_than_a_pipe_buffer():
    # chart (1, 3) at N = 24 marshals to about 762 KB of rows, over eleven
    # 64 KiB pipe buffers
    tasks = [(1, 3, 24, "unconstrained", True), (2, 2, 24, "unconstrained", True)]
    assert sweep_charts(tasks, 2) == sweep_charts(tasks, 1)


# Ways a fanned-out sweep fails: a worker raises on one chart, a worker is
# killed outright, a chart's rows hold an object marshal refuses, or this
# process is interrupted while a worker is stuck.
_FAILURES = {
    "raises": ("raise RuntimeError('chart failed on purpose')", "", "RuntimeError"),
    "killed": ("os.kill(os.getpid(), signal.SIGKILL)", "", "RuntimeError"),
    "unmarshallable": (
        "return chart(task).replace(classes_seen=object())", "", "RuntimeError"
    ),
    "interrupted": ("time.sleep(30)", """
def interrupted(fd, *size):
    if os.getpid() == parent:
        raise KeyboardInterrupt
    return read(fd, *size)

fanout._read = interrupted
""", "KeyboardInterrupt"),
}


@pytest.mark.parametrize("failure", sorted(_FAILURES))
def test_fan_out_failure_raises_and_reaps_every_worker(failure):
    # in a subprocess, so a hang fails the test through the timeout
    in_worker, in_parent, expected = _FAILURES[failure]
    script = f"""
import os, signal, sys, time
import reidtai.cli as cli
import reidtai.fanout as fanout

chart, read, parent = cli._chart, fanout._read, os.getpid()

def failing(task):
    if task[1] == 2:
        {in_worker}
    return chart(task)

cli._chart = failing
cli._usable_cpus = lambda: 2
{in_parent}
tasks = [(1, r, 12, "integral-both", False) for r in range(4)]
started = time.monotonic()
try:
    cli.sweep_charts(tasks, 2)
except {expected} as exc:
    print(exc)
else:
    sys.exit("no error raised")
# a stuck worker is killed, not waited for
assert time.monotonic() - started < 15, "waited for a stuck worker"
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    sys.exit("a worker was left unreaped")
"""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    if failure == "raises":
        assert "worker failed: exited with 1" in done.stdout
        assert "chart failed on purpose" in done.stderr
    elif failure == "killed":
        assert f"worker failed: got signal {signal.SIGKILL:d}" in done.stdout
    elif failure == "unmarshallable":
        assert "worker failed: exited with 1" in done.stdout
        assert "unmarshallable object" in done.stderr


def test_jobs_env_var_is_not_read(tmp_path, capsys, monkeypatch):
    # --jobs is the only way to set the worker count: a value in the
    # environment, even one --jobs would refuse, changes nothing
    monkeypatch.setenv("REIDTAI_JOBS", "abc")
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
        ("exceptions_g12.json", ("exceptions", "--g", "12", "--format", "json")),
        ("oracle_s3.txt", ("oracle", "--samples", "3", "--format", "text")),
    ],
)
def test_golden_reports(capsys, golden, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_cli_import_leaves_numpy_out():
    # only the oracle needs numpy; the sweeps must not pay for its import,
    # nor for dataclasses (with inspect) or fractions: the value classes are
    # plain slots classes, and a catalog run reads its ages as integers.
    # Nor for the json package: the JSON writer takes its C string encoder
    # from _json.  pathlib and typing are left out too; -S keeps site's .pth
    # files from importing them.
    script = """
import contextlib, io, sys
import reidtai.cli
loaded = {"numpy", "dataclasses", "fractions", "inspect", "json", "pathlib", "typing"}
loaded &= set(sys.modules)
assert not loaded, loaded
with contextlib.redirect_stdout(io.StringIO()):
    assert reidtai.cli.main(["exceptions", "--g", "7", "--format", "json"]) == 0
assert "fractions" not in sys.modules, "the catalog run built a Fraction"
assert "json" not in sys.modules, "the catalog run loaded the json package"
"""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_the_process_pool_out():
    # neither the import nor a fanned-out run loads a process pool or
    # pickle (the workers' results come back through marshal), and the run
    # leaves no worker behind; only a fanned-out run loads the fan-out
    script = """
import contextlib, io, os, sys
import reidtai.cli
assert not {"pickle", "reidtai.fanout"} & set(sys.modules)
argv = ["exceptions", "--g", "5", "--mode", "unconstrained", "--threshold",
        "terminal", "--jobs", "2", "--format", "json"]
with contextlib.redirect_stdout(io.StringIO()):
    assert reidtai.cli.main(argv) == 3
assert "reidtai.fanout" in sys.modules, "the run did not fan out"
loaded = {"concurrent.futures.process", "multiprocessing", "pickle"} & set(sys.modules)
assert not loaded, loaded
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    pass
else:
    sys.exit("a worker was left unreaped")
"""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


# SHA-256 of the benchmark's oracle reports (oracle --samples 1000 --format
# json) at every seed it checks, 0-19, as pinned in perfbench/workloads.py.
ORACLE_DIGESTS = {
    0: "af24f73e2561fc513293d708eb6114ec697f3b1bffa7f4cdf724504947b58096",
    1: "4b11a4aa1a414fd4ad40460555bacb1ebec61683fb7e15ff545ed29e7f462bf7",
    2: "d6b55305cc69519c3730d62959e374ed1a1ce8fb042f47331c171395dc39b3a2",
    3: "3b2eee4d36ba7a70072dba2606af002667b4702f53c8e6a903728fd9cb007ae4",
    4: "83a9e395c447495cd2ad42da556a6491419c05d4b3e3cb3a5f7e9b134dfd00e6",
    5: "fc9faffa31f36f76e4b80d2f7a4f32a78d6ebbad54b0d272b9a674d1b1c2d378",
    6: "41e893ee7ff6bb18103fe2d07b8995e6d2c1e9c5393cf46d3ef8904b0e1fb3d9",
    7: "31578f9cdcdf50daceb64c5cd0c58fbe6d9bc2d10df0e741661bb59ff08705c9",
    8: "0f23d5f1ee7e46c8a3c4eae3e38383d0ade2b09f26d62bf9eeb6ebb888cc17ba",
    9: "a2b78941b20e7be0add389ce5e9e4ea28bfd8943296dfbd836a48163ac4e710f",
    10: "ad2d1b0fed1153492139dd938e1ca5bded9411247470f8d97c9989d5048c1476",
    11: "0a3838f2eb2d44925abcdc7f55d2ca51e2338009e0f10252dd7168f4a12231af",
    12: "e17402b5db6fecdfcb3de7d7c8c0a3dca910ee627c9832a78d180f47b88d0c00",
    13: "f53d2506987e741ea8bbaa19a815cf359680c9886771257b3b4e2d0b0e13b2d1",
    14: "b39a5992adf9ee14cef5a044dd712756795470ca8541682239e5d488e895b76a",
    15: "615c45e166d1aaef0bcfd7793e86d86c9c7a5cde4f2ba0fbfde6f4d2fc24ba9f",
    16: "08ec0cfe8b9df98362f0d0c071d24b60f539995de2f11239d7dd3072a2bc1a50",
    17: "91892447e7d5c13ddcdb0fe8083d9a22222a67810876a10d9f8f3b946c8a58d7",
    18: "8b1bfbcc646d84dc1e439c00a6f010b6d40e5fff1ba009535061e6de885c2543",
    19: "f6d1381b21145ec1ab382861106a1e82613504a733068c46ce09755a1e3fa2ed",
}


@pytest.mark.parametrize("seed", sorted(ORACLE_DIGESTS))
def test_oracle_reports_match_the_pinned_digests(capsys, seed):
    code, out, _ = run_cli(
        capsys, "oracle", "--samples", "1000", "--seed", str(seed), "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_DIGESTS[seed]


# SHA-256 of the benchmark's two sweep reports, as pinned in
# perfbench/workloads.py: the catalog (exceptions --g 7) and the relaxed
# run (exceptions --g 5, unconstrained, terminal), which exits 3.
CATALOG_DIGEST = "2252619f8dfbbd8ce82034a9726548355082146cc37330828599edc3f469869b"
RELAXED_DIGEST = "1291ff37c433d19883cb5856a9b55ca826a0d5a56d38e7ab5ee33ba10868da2e"
RELAXED = ("exceptions", "--g", "5", "--mode", "unconstrained", "--threshold", "terminal")


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (("exceptions", "--g", "7"), 0, CATALOG_DIGEST),
        ((*RELAXED, "--jobs", "1"), 3, RELAXED_DIGEST),
        ((*RELAXED, "--jobs", "2"), 3, RELAXED_DIGEST),
    ],
    ids=["catalog", "relaxed-jobs1", "relaxed-jobs2"],
)
def test_sweep_reports_match_the_pinned_digests(capsys, argv, code, digest):
    got, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# run() turns the cyclic collector off for the command and freezes the heap
# before the interpreter exits; main() leaves the collector alone.
@pytest.mark.parametrize("fails", [False, True])
def test_run_turns_the_collector_off_and_freezes_the_heap(monkeypatch, fails):
    seen = []

    def entry():
        seen.append(gc.isenabled())
        if fails:
            raise RuntimeError("main failed on purpose")
        return 3

    monkeypatch.setattr(reidtai.cli, "main", entry)
    monkeypatch.setattr(gc, "freeze", lambda: seen.append("frozen"))
    enabled = gc.isenabled()
    try:
        with pytest.raises(RuntimeError if fails else SystemExit) as exc:
            reidtai.cli.run()
    finally:
        if enabled:
            gc.enable()
    assert seen == [False, "frozen"]
    if not fails:
        assert exc.value.code == 3


@pytest.mark.parametrize(
    "argv",
    [("sweep", "--h", "1", "--r", "4"), (*RELAXED, "--jobs", "2"), ("oracle", "--samples", "50")],
    ids=["chart", "relaxed-jobs2", "oracle"],
)
def test_main_leaves_the_collector_as_it_found_it(capsys, argv):
    before = gc.isenabled(), gc.get_freeze_count()
    run_cli(capsys, *argv, "--format", "json")
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize(
    "argv, code",
    [
        (("exceptions", "--g", "7"), 0),
        ((*RELAXED, "--jobs", "2"), 3),
        (("oracle", "--samples", "50"), 0),
    ],
    ids=["catalog", "relaxed-jobs2", "oracle"],
)
def test_process_writes_what_main_writes(capsys, tmp_path, argv, code):
    # the relaxed run also writes --out, and its violation lines go to stderr
    argv = [*argv, "--format", "json"]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    target = tmp_path / "report.json"
    done = cli_process(*argv, *(["--out", str(target)] if code == 3 else []))
    assert (done.returncode, done.stdout) == (code, out)
    *lines, elapsed = done.stderr.splitlines()
    assert lines == err.splitlines()[:-1]
    assert elapsed.startswith("elapsed: ")
    if code == 3:
        # spectra are written as the text report writes them: w=[2/3] lambda=[1/2 1/2]
        shape = (r"proposition violation \[[a-z0-9-]+\]: h=\d+ r=\d+"
                 r" w=\[[0-9/ ]*\] lambda=\[[0-9/ ]*\] age_v=\d+/\d+ order-on-chart=\d+")
        assert lines and all(re.fullmatch(shape, line) for line in lines), lines
        assert target.read_text() == done.stdout


def test_cyclic_garbage_does_not_grow_with_the_run(capsys):
    # with the collector off, what a run leaves for it is the same for a
    # small and a large run, so running without it cannot grow memory with
    # the input
    def garbage(argv):
        gc.collect()
        run_cli(capsys, *argv, "--format", "json")
        return gc.collect()

    pairs = [
        (("exceptions", "--g", "3"), ("exceptions", "--g", "8")),
        (("oracle", "--samples", "10"), ("oracle", "--samples", "1000")),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for small, large in pairs:
            garbage(small), garbage(large)  # warm: imports and lazy tables
            assert garbage(small) == garbage(large), (small, large)
    finally:
        if enabled:
            gc.enable()


def test_worker_rows_survive_marshal():
    # a --jobs worker sends a chart's finished report rows, which marshal
    # takes as they are (it refuses any other class, a tuple subclass
    # included), and they are the rows this process builds for the chart
    task = (1, 4, 12, "unconstrained", True)
    result = reidtai.criterion.check_exception_catalog(reidtai.cli._chart(task))
    assert result.exceptions and result.violations
    with pytest.raises(ValueError):
        marshal.dumps(result)
    rows = reidtai.cli._catalog_chart(task)
    assert marshal.loads(marshal.dumps(rows)) == rows
    assert rows == (
        *reidtai.cli.sweep_rows(result), reidtai.cli.chart_verdict_row(result)
    )


# Reports of the fixed schema, for the writer against json.dumps.  Strings
# cover quotes, backslashes, control and non-ASCII characters.
_text = st.text(max_size=12)
_entry = st.one_of(st.sampled_from(["0/1", "1/2", "5/6", "1/1"]), _text)
_age = st.one_of(st.none(), _entry)
_spec = st.lists(_entry, max_size=4)
_config = st.one_of(
    st.fixed_dictionaries({
        "command": st.sampled_from(["sweep", "exceptions"]),
        "order_divides": st.integers(1, 360),
        "mode": _text,
        "threshold": _text,
        "h": st.one_of(st.none(), st.integers(0, 9)),
        "r": st.one_of(st.none(), st.integers(0, 9)),
        "g": st.one_of(st.none(), st.integers(-3, 9)),
        "interior": st.booleans(),
    }),
    st.fixed_dictionaries({
        "command": st.just("oracle"),
        "samples": st.integers(0, 10**6),
        "seed": st.integers(-(2**70), 2**70),
        "max_degree": st.integers(1, 9),
        "order_divides": st.integers(1, 360),
        "tol": st.one_of(st.just(1e-09), st.floats(5e-324, 1e-6)),
    }),
)
_witness = st.one_of(
    st.fixed_dictionaries({"w_spec": _spec, "lambda_spec": _spec}),
    st.fixed_dictionaries({"w_spec": _spec}),
    st.fixed_dictionaries({"lambda_spec": _spec}),
)
_minimum = st.fixed_dictionaries(
    {
        "h": st.integers(0, 9),
        "r": st.one_of(st.none(), st.integers(0, 9)),
        "min_age": _age,
        "witnesses": st.lists(_witness, max_size=3),
    },
    optional={"classes": st.integers(0, 10**7)},
)
_exception = st.fixed_dictionaries({
    "h": st.integers(1, 9),
    "r": st.integers(0, 9),
    "w_spec": _spec,
    "lambda_spec": _spec,
    "age_sym2": _age,
    "age_tensor": _age,
    "age_v": _age,
    "matches_iii": st.booleans(),
})
_violation = st.fixed_dictionaries({
    "rule": st.sampled_from(["kernel", "order-2", "exception-shape"]),
    "h": st.integers(1, 9),
    "r": st.integers(0, 9),
    "w_spec": _spec,
    "lambda_spec": _spec,
    "age_v": _age,
    "v_order": st.integers(1, 360),
})
_verdict = st.one_of(
    st.fixed_dictionaries({
        "stratum": st.just("boundary-chart"), "h": st.integers(1, 9),
        "r": st.integers(0, 9), "kind": _text, "min_age": _age,
    }),
    st.fixed_dictionaries({
        "stratum": st.just("interior"), "g": st.integers(1, 9), "kind": _text, "min_age": _age,
    }),
)
_case = st.fixed_dictionaries({
    "index": st.integers(0, 10**4),
    "a_signature": st.lists(st.integers(1, 360), max_size=5),
    "b_signature": st.lists(st.integers(1, 360), max_size=5),
    "ok": st.booleans(),
})
_oracle = st.fixed_dictionaries(
    {
        "cases": st.lists(_case, max_size=3),
        "passes": st.integers(0, 10**4),
        "failures": st.integers(0, 10**4),
    },
    optional={"error": _text},
)
_reports = st.fixed_dictionaries(
    {
        "config": _config,
        "minima": st.lists(_minimum, max_size=3),
        "exceptions": st.lists(_exception, max_size=3),
        "violations": st.lists(_violation, max_size=3),
        "verdicts": st.lists(_verdict, max_size=3),
    },
    optional={"oracle": _oracle},
)


@settings(max_examples=150, deadline=None)
@given(report=_reports)
def test_json_writer_matches_json_dumps(report):
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert render_json(report) == expected


def test_json_writer_escapes_an_oracle_error():
    report = {
        "config": {"command": "oracle", "tol": 1e-09},
        "minima": [], "exceptions": [], "violations": [], "verdicts": [],
        "oracle": {
            "cases": [], "passes": 0, "failures": 1,
            "error": 'angle "3/7" off by 1e-3 \\ ¿qué? \u2603\n\t\U0001f600',
        },
    }
    expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert render_json(report) == expected
    assert json.loads(render_json(report)) == report
