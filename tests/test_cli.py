"""Driver behavior: flags, exit codes, report formats, determinism."""

import argparse
import ast
import hashlib
import json
import os
import pickle
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
from reidtai.report import Report, render_json

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(text):
    """A JSON report read back into a ``Report``."""
    data = json.loads(text)
    return Report(
        config=data["config"],
        minima=data["minima"],
        exceptions=data["exceptions"],
        violations=data["violations"],
        verdicts=data["verdicts"],
        oracle=data.get("oracle"),
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
    # its violation rows come back through their pipes
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
    # chart (1, 3) at N = 24 pickles to about 273 KB, four 64 KiB pipe buffers
    tasks = [(1, 3, 24, "unconstrained", True), (2, 2, 24, "unconstrained", True)]
    assert sweep_charts(tasks, 2) == sweep_charts(tasks, 1)


# Ways a fanned-out sweep fails: a worker raises on one chart, a worker is
# killed outright, or this process is interrupted while a worker is stuck.
_FAILURES = {
    "raises": ("raise RuntimeError('chart failed on purpose')", "", "RuntimeError"),
    "killed": ("os.kill(os.getpid(), signal.SIGKILL)", "", "RuntimeError"),
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
    # pathlib and typing are left out too; -S keeps site's .pth files from
    # importing them.
    script = """
import contextlib, io, sys
import reidtai.cli
loaded = {"numpy", "dataclasses", "fractions", "inspect", "pathlib", "typing"} & set(sys.modules)
assert not loaded, loaded
with contextlib.redirect_stdout(io.StringIO()):
    assert reidtai.cli.main(["exceptions", "--g", "7", "--format", "json"]) == 0
assert "fractions" not in sys.modules, "the catalog run built a Fraction"
"""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_the_process_pool_out():
    # neither the import nor a fanned-out run loads a process pool, and the
    # run leaves no worker behind; only a fanned-out run loads the fan-out
    script = """
import contextlib, io, os, sys
import reidtai.cli
assert not {"pickle", "reidtai.fanout"} & set(sys.modules)
argv = ["exceptions", "--g", "5", "--mode", "unconstrained", "--threshold",
        "terminal", "--jobs", "2", "--format", "json"]
with contextlib.redirect_stdout(io.StringIO()):
    assert reidtai.cli.main(argv) == 3
loaded = {"concurrent.futures.process", "multiprocessing"} & set(sys.modules)
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


def test_pool_results_carry_no_objects():
    # a chart's result comes back from a --jobs worker as integers: its
    # pickle names no Fraction, rotation number, spectrum or class
    result = reidtai.cli._chart((1, 4, 12, "unconstrained", True))
    assert result.exceptions and result.violations
    data = pickle.dumps(result)
    for name in (b"fractions", b"RotationNumber", b"Spectrum", b"ElementClass"):
        assert name not in data
    assert pickle.loads(data) == result


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
_reports = st.builds(
    Report,
    config=_config,
    minima=st.lists(_minimum, max_size=3),
    exceptions=st.lists(_exception, max_size=3),
    violations=st.lists(_violation, max_size=3),
    verdicts=st.lists(_verdict, max_size=3),
    oracle=st.one_of(st.none(), _oracle),
)


@settings(max_examples=150, deadline=None)
@given(report=_reports)
def test_json_writer_matches_json_dumps(report):
    expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert render_json(report) == expected


def test_json_writer_escapes_an_oracle_error():
    report = Report(config={"command": "oracle", "tol": 1e-09})
    report.oracle = {
        "cases": [], "passes": 0, "failures": 1,
        "error": 'angle "3/7" off by 1e-3 \\ ¿qué? \u2603\n\t\U0001f600',
    }
    expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    assert render_json(report) == expected
    assert parse_json(render_json(report)) == report
