"""The benchmark's workloads and the checks every run's output must pass.

Every workload runs the real ``reidtai`` CLI with ``--format json`` and the
default ``--order-divides 12``, one invocation at a time (a closed loop with
one client).  The sweep workloads are exhaustive and take no seed; only
``oracle`` receives the benchmark's seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import gencount

ORDER_DIVIDES = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "exceptions" | "interior" | "oracle"
    size: int  # genus for the sweeps, sample count for the oracle
    mode: str = "integral-both"
    terminal: bool = False
    jobs: int = 1
    exit_code: int = 0
    # SHA-256 of the --format json report; oracle reports depend on the
    # seed, so they are recorded per seed.
    digest: str | None = None
    seed_digests: dict[int, str] = field(default_factory=dict)
    # Facts pinned at this size, checked on every run's report.
    facts: Callable[[dict], list[str]] | None = None

    def argv(self, seed: int, jobs: int | None = None) -> list[str]:
        if self.command == "oracle":
            return ["oracle", "--samples", str(self.size), "--seed", str(seed), "--format", "json"]
        if self.command == "interior":
            argv = ["sweep", "--interior", "--g", str(self.size)]
        else:
            argv = ["exceptions", "--g", str(self.size)]
        if self.mode != "integral-both":
            argv += ["--mode", self.mode]
        if self.terminal:
            argv += ["--threshold", "terminal"]
        jobs = self.jobs if jobs is None else jobs
        if jobs != 1:
            argv += ["--jobs", str(jobs)]
        return argv + ["--format", "json"]

    def expected_streams(self) -> dict[str, int]:
        """Size of every stream the workload opens, from generating functions."""
        if self.command == "oracle":
            return {}
        if self.command == "interior":
            return {f"w h={self.size}": gencount.w_count(self.size, self.mode, ORDER_DIVIDES)}
        streams = {}
        for h in range(1, self.size + 1):
            r = self.size - h
            streams[f"w h={h}"] = gencount.w_count(h, self.mode, ORDER_DIVIDES)
            streams[f"lambda r={r}"] = gencount.lambda_count(r, self.mode, ORDER_DIVIDES)
        return streams

    def expected_digest(self, seed: int) -> str | None:
        return self.seed_digests.get(seed) if self.command == "oracle" else self.digest


def _catalog_facts(report: dict) -> list[str]:
    errors = []
    expected_row = {
        "h": 1,
        "r": 6,
        "w_spec": ["1/2"],
        "lambda_spec": ["0/1"] + ["1/2"] * 5,
        "age_v": "1/2",
        "matches_iii": True,
    }
    rows = report["exceptions"]
    if len(rows) != 1 or any(rows[0].get(k) != v for k, v in expected_row.items()):
        errors.append(f"catalog rows {rows}, expected exactly {expected_row}")
    if report["violations"]:
        errors.append(f"{len(report['violations'])} violations, expected none")
    classes = sum(row["classes"] for row in report["minima"])
    if classes != 32367:
        errors.append(f"sum of classes {classes}, expected 32367")
    return errors


def _interior_facts(report: dict) -> list[str]:
    verdicts = report["verdicts"]
    if [(v.get("kind"), v.get("min_age")) for v in verdicts] != [("terminal", "3/2")]:
        return [f"interior verdicts {verdicts}, expected terminal with min_age 3/2"]
    return []


def _relaxed_facts(report: dict) -> list[str]:
    got = (len(report["exceptions"]), len(report["violations"]))
    if got != (407, 868):
        return [f"(exceptions, violations) = {got}, expected (407, 868)"]
    return []



# Oracle reports at --samples 1000 for seeds 0..19; other seeds are checked
# structurally and for repeating exactly within a run.
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

# Why each workload was chosen; BENCHMARK.json carries the same lines.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog",
            "exceptions --g 7: folds 32,367 (W, Lambda) pairs, mostly class construction"
            " and the age fold; where an integer-native fold must show its gain.",
            "exceptions",
            7,
            digest="2252619f8dfbbd8ce82034a9726548355082146cc37330828599edc3f469869b",
            facts=_catalog_facts,
        ),
        Workload(
            "interior",
            "sweep --interior --g 8: 16,870 W spectra through sweep_sym2 with no Lambda"
            " stream, class construction or fold; a fold-only change leaves it unchanged.",
            "interior",
            8,
            digest="f33e037d3f493839ded401552c2081d0e0284dc36bf1f78393990778e28e7e14",
            facts=_interior_facts,
        ),
        Workload(
            "relaxed",
            "exceptions --g 5 unconstrained, terminal, --jobs 2: 93,907 pairs with many rows"
            " at or below 1, so dedupe, claim checks, merge and the fan-out do real work.",
            "exceptions",
            5,
            mode="unconstrained",
            terminal=True,
            jobs=2,
            exit_code=3,
            digest="1291ff37c433d19883cb5856a9b55ca826a0d5a56d38e7ab5ee33ba10868da2e",
            facts=_relaxed_facts,
        ),
        Workload(
            "oracle",
            "oracle --samples 1000 --seed <seed>: the only workload that runs oracle.py"
            " (companion realization, Sym^2 matrices, numpy eigvals, angle matching).",
            "oracle",
            1000,
            seed_digests=ORACLE_DIGESTS,
        ),
    )
}

# The workloads BENCHMARK.json lists.  Each is run 22 times at about 32 s a
# run within a fixed time limit for all runs, which three workloads meet with
# room for the host's slow phases and four would not.  ``interior`` stays
# runnable by name; its layers (the W stream, sym2 and age) are also measured
# on ``catalog``.
GATED = ("catalog", "relaxed", "oracle")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(wl: Workload, seed: int, exit_code: int, stdout: bytes) -> list[str]:
    """Everything wrong with one run's exit code and report; empty if correct."""
    errors = []
    if exit_code != wl.exit_code:
        errors.append(f"exit code {exit_code}, expected {wl.exit_code}")
    digest = wl.expected_digest(seed)
    if digest is not None and sha256(stdout) != digest:
        errors.append(f"report sha256 {sha256(stdout)[:16]}..., expected {digest[:16]}...")
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return errors + [f"report is not JSON: {exc}"]
    if wl.command == "oracle":
        errors += _check_oracle(wl, seed, report)
    elif wl.command == "exceptions":
        errors += _check_exceptions(wl, report)
    if wl.facts is not None:
        errors += wl.facts(report)
    return errors


def _check_exceptions(wl: Workload, report: dict) -> list[str]:
    classes = sum(row["classes"] for row in report["minima"])
    expected = gencount.catalog_pairs(wl.size, wl.mode, ORDER_DIVIDES)
    if classes != expected:
        return [f"sum of classes {classes}, generating functions give {expected}"]
    return []


def _check_oracle(wl: Workload, seed: int, report: dict) -> list[str]:
    errors = []
    oracle = report.get("oracle") or {}
    cases = oracle.get("cases", [])
    if report["config"].get("seed") != seed or report["config"].get("samples") != wl.size:
        errors.append(f"config echo {report['config']} does not match the run")
    if oracle.get("passes") != wl.size or oracle.get("failures") != 0:
        errors.append(f"oracle passes={oracle.get('passes')} failures={oracle.get('failures')}")
    if [c["index"] for c in cases] != list(range(wl.size)) or not all(c["ok"] for c in cases):
        errors.append("oracle cases are not 0..samples-1, all ok")
    degrees = {d: gencount.totient(d) for d in gencount.divisors(36)}
    for case in cases:
        for sig in (case["a_signature"], case["b_signature"]):
            if not sig or any(n not in degrees for n in sig) or sum(degrees[n] for n in sig) > 8:
                errors.append(f"case {case['index']}: signature {sig} out of range")
                return errors
    return errors
