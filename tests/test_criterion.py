"""Germ verdicts, sweeps, the moved-forms count and reduction evidence."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import pytest

from reference_enumeration import (
    lattice_series,
    multiset_count,
    ppav_series,
    rotation_universe,
    spectrum_state,
)
from reference_fold import central_twin, exception_record, exceptional_shape
from reidtai import cli, criterion, enumeration, functors
from reidtai.cli import main
from reidtai.criterion import (
    PropositionViolation,
    SweepResult,
    boundary_moved_count,
    check_exception_catalog,
    dedupe_exceptions,
    interior_verdict,
    reduction_support,
    rst_verdict,
    sweep_sym2,
    sweep_v,
    torus_summary,
)
from reidtai.enumeration import ElementClass, EnumerationConfig
from reidtai.functors import age, power, sym2, tensor, v_spectrum
from reidtai.report import sweep_rows
from reidtai.rotations import (
    RotationNumber,
    Spectrum,
    element_order,
    galois_orbit,
    parse_spectrum,
    totient,
)

S = parse_spectrum
F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def cyclic_germ(text):
    """(tangent_of, order) pair for the cyclic germ of one spectrum."""
    s = S(text)
    return (lambda k: power(s, k)), element_order(s)


def oracle_verdict_kind(text):
    """Independent double-loop reimplementation of the germ classification."""
    s = S(text)
    order = element_order(s)
    ages = []
    for k in range(1, order):
        entries = [(k * q.num) % q.den / q.den for q in s.entries]  # floats ok here
        nonzero = sum(1 for e in entries if e != 0)
        if nonzero == 1:
            return "quasi-reflection"
        if nonzero > 0:
            ages.append(sum(F((k * q.num) % q.den, q.den) for q in s.entries))
    low = min(ages)
    if low > 1:
        return "terminal"
    if low == 1:
        return "canonical-not-terminal"
    return "not-canonical"


def test_rst_classical_germs():
    v = rst_verdict(*cyclic_germ("1/2, 1/2"))
    assert (v.kind, v.witness_age) == ("canonical-not-terminal", F(1))
    v = rst_verdict(*cyclic_germ("1/3, 1/3"))
    assert (v.kind, v.witness_age) == ("not-canonical", F(2, 3))
    v = rst_verdict(*cyclic_germ("1/2, 1/2, 1/2"))
    assert (v.kind, v.witness_age) == ("terminal", F(3, 2))


def test_rst_quasi_reflection():
    v = rst_verdict(*cyclic_germ("1/2, 0"))
    assert v.kind == "quasi-reflection"
    # a quasi-reflection hiding in a power: squaring {1/4, 1/2} leaves a
    # single moved coordinate
    v = rst_verdict(*cyclic_germ("1/4, 1/2"))
    assert v.kind == "quasi-reflection"
    assert v.witness_power == 2


def test_rst_errors():
    with pytest.raises(ValueError):
        rst_verdict(*cyclic_germ("0, 0"))
    with pytest.raises(ValueError):
        rst_verdict(lambda k: S("0"), 3)


def test_rst_against_double_loop():
    rng = random.Random(424242)
    universe = rotation_universe(12)
    checked = 0
    while checked < 200:
        s = Spectrum.of(rng.choices(universe, k=rng.randrange(1, 6)))
        if s.is_identity():
            continue
        checked += 1
        verdict = rst_verdict(lambda k: power(s, k), element_order(s))
        assert verdict.kind == oracle_verdict_kind(str(s).strip("{}"))


def test_sweep_sym2_h1():
    # six non-(+-1) classes; ages 2/3, 1/3, 1/2, 1/2, 1/3, 2/3
    min_age, minimizers = sweep_sym2(1, 12)
    assert min_age == F(1, 3)
    assert [str(s) for s in minimizers] == ["{2/3}", "{1/6}"]
    by_hand = min(
        age(sym2(S(t))) for t in ("1/3", "2/3", "1/4", "3/4", "1/6", "5/6")
    )
    assert by_hand == min_age


def test_sweep_sym2_rejects_h0():
    with pytest.raises(ValueError):
        sweep_sym2(0, 12)


def test_sweep_v_unique_exception_at_g5():
    res = sweep_v(1, 4, 12)
    assert len(res.exceptions) == 1
    rec = res.exceptions[0]
    assert rec.element.w_spec == S("1/2")
    assert rec.element.lambda_spec == S("0, 1/2, 1/2, 1/2")
    assert rec.age_v == F(1, 2)
    assert rec.age_sym2 == 0 and rec.age_tensor == F(1, 2)
    assert rec.matches_iii
    # both central lifts of the germ witness the minimum
    assert res.min_age == F(1, 2)
    assert len(res.witnesses) == 2


def test_sweep_v_examples():
    assert sweep_v(2, 3, 12).exceptions == ()
    res = sweep_v(1, 5, 12)
    assert len(res.exceptions) == 1
    assert res.exceptions[0].age_v == F(1, 2)
    assert res.exceptions[0].element.lambda_spec == S("0, 1/2, 1/2, 1/2, 1/2")


def test_sweep_v_rejects_h0():
    with pytest.raises(ValueError):
        sweep_v(0, 3, 12)


def test_sweep_v_below_hypothesis_raises():
    # at g = 3 an order-6 germ ages below 1, so the order-2 claim fails
    with pytest.raises(PropositionViolation) as info:
        sweep_v(1, 2, 12)
    violations = info.value.result.violations
    assert violations
    assert all(v.rule == "order-2" for v in violations)
    assert all(v.age_v < 1 and v.v_order != 2 for v in violations)
    # shown as one line per violation, joined with "; "
    assert str(info.value).split("; ") == [
        "order-2: (h=1, r=2, w={2/3}, lambda={1/2, 1/2}) age_v=2/3 order-on-chart=6",
        "order-2: (h=1, r=2, w={2/3}, lambda={1/3, 2/3}) age_v=2/3 order-on-chart=3",
        "order-2: (h=1, r=2, w={1/6}, lambda={0/1, 0/1}) age_v=2/3 order-on-chart=6",
        "order-2: (h=1, r=2, w={1/6}, lambda={1/6, 5/6}) age_v=2/3 order-on-chart=3",
    ]


def test_sweep_result_replace_takes_only_its_fields():
    result = sweep_v(2, 4, 12)
    assert result.replace(best=None) == (*result[:4], None, *result[5:])
    with pytest.raises(TypeError) as info:
        result.replace(best=None, bogus=1)
    assert str(info.value) == f"SweepResult fields are {result._fields}, got ['best', 'bogus']"


def test_sweep_threshold_terminal_rows():
    # h=2, r=4 bottoms out exactly at 1: the boundary rows appear only
    # when age-one rows are requested, and they trip no checks
    strict = sweep_v(2, 4, 12)
    assert strict.exceptions == ()
    wide = sweep_v(2, 4, 12, include_age_one=True)
    assert wide.exceptions
    assert all(rec.age_v == 1 for rec in wide.exceptions)
    assert not any(rec.matches_iii for rec in wide.exceptions)


def test_central_twin():
    c = ElementClass.build(S("1/2"), S("0, 1/2, 1/2, 1/2"))
    twin = central_twin(c)
    assert twin.w_spec == S("0")
    assert twin.lambda_spec == S("0, 0, 0, 1/2")
    assert central_twin(twin) == c
    assert age(v_spectrum(c.w_spec, c.lambda_spec)) == age(
        v_spectrum(twin.w_spec, twin.lambda_spec)
    )


def test_dedupe_prefers_canonical_shape():
    shaped = ElementClass.build(S("1/2"), S("0, 1/2, 1/2, 1/2"))
    other = central_twin(shaped)
    records = [
        exception_record(other, age(sym2(other.w_spec)), F(1, 2), exceptional_shape(other)),
        exception_record(shaped, F(0), F(1, 2), exceptional_shape(shaped)),
    ]
    kept = dedupe_exceptions(records)
    assert len(kept) == 1
    assert kept[0].element == shaped
    assert age(tensor(other.w_spec, other.lambda_spec)) == records[0].age_tensor


def _unequal_lifts():
    shaped = ElementClass.build(S("1/2"), S("0, 1/2, 1/2, 1/2"))
    other = central_twin(shaped)
    return [
        exception_record(shaped, F(0), F(1, 2), True),
        exception_record(other, F(0), F(3, 4), False),
    ]


def test_dedupe_rejects_lifts_aging_differently():
    records = _unequal_lifts()
    with pytest.raises(ValueError) as info:
        dedupe_exceptions(records)
    message = str(info.value)
    for rec in records:
        assert f"{rec.element} ages {rec.age_v}" in message


def test_dedupe_check_survives_optimized_python():
    # the check must not be an assert, which python -O strips
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from test_criterion import _unequal_lifts\n"
        "from reidtai.criterion import dedupe_exceptions\n"
        "try:\n"
        "    dedupe_exceptions(_unequal_lifts())\n"
        "except ValueError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script, str(Path(__file__).parent)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_check_exception_catalog():
    clean = check_exception_catalog(sweep_v(1, 4, 12))
    assert clean.violations == ()
    # a crafted off-shape record must be flagged
    bad_element = ElementClass.build(S("1/2"), S("1/3, 2/3, 0"))
    rec = exception_record(bad_element, F(0), F(5, 6), False)
    bad = SweepResult((1, 3, 1, rec.n, rec.av, (rec[:3],), (rec,), ()))
    assert (bad.min_age, bad.witnesses) == (F(5, 6), (bad_element,))
    flagged = check_exception_catalog(bad)
    assert len(flagged.violations) == 1
    assert flagged.violations[0].rule == "exception-shape"
    # on the chart: Sym^2 {0} and tensor {5/6, 1/6, 1/2}
    assert flagged.violations[0].v_order == 6


@pytest.mark.parametrize(
    "g, kind, min_age",
    [
        (3, "not-canonical", F(2, 3)),
        (5, "canonical", F(1)),
        (6, "terminal", F(7, 6)),
        (1, "not-canonical", F(1, 3)),
        (2, "not-canonical", F(1, 2)),
        (4, "not-canonical", F(5, 6)),
        (7, "terminal", F(4, 3)),
        (8, "terminal", F(3, 2)),
        (9, "terminal", F(5, 3)),
        (10, "terminal", F(11, 6)),
        (11, "terminal", F(2)),
    ],
)
def test_interior_verdicts(g, kind, min_age):
    summary = interior_verdict(g, 12)
    assert summary.kind == kind
    assert summary.min_age == min_age
    # the interior minimum is (g + 1)/6
    assert summary.min_age == F(g + 1, 6)


def test_interior_minimizer_shape():
    # the order-6 class moving one coordinate attains the g = 5 minimum
    summary = interior_verdict(5, 12)
    assert [str(w) for w in summary.witnesses] == [
        "{0/1, 0/1, 0/1, 0/1, 1/6}",
        "{1/2, 1/2, 1/2, 1/2, 2/3}",
    ]


def catalog_rows(g, n):
    """Each chart's (minima, exception, violation, verdict) rows of the
    genus-g catalog over n, as ``exceptions --g g`` builds them."""
    return [cli._catalog_chart((h, g - h, n, "integral-both", False)) for h in range(1, g + 1)]


def without_classes(rows):
    minima, *rest = rows
    return {k: v for k, v in minima.items() if k != "classes"}, *rest


@pytest.mark.parametrize("g", [8, 9, 10, 11])
def test_catalog_is_the_single_germ_up_to_genus_11(g):
    # the unique age-1/2 germ, and the chart minima min(h/2, (g + 1)/6)
    charts = catalog_rows(g, 12)
    assert [row for _, exceptions, _, _ in charts for row in exceptions] == [{
        "h": 1, "r": g - 1, "w_spec": ["1/2"], "lambda_spec": ["0/1"] + ["1/2"] * (g - 2),
        "age_sym2": "0/1", "age_tensor": "1/2", "age_v": "1/2", "matches_iii": True,
    }]
    assert not any(violations for _, _, violations, _ in charts)
    for h, (minima, _, _, _) in enumerate(charts, 1):
        assert F(minima["min_age"]) == min(F(h, 2), F(g + 1, 6))


def all_orders(g):
    """L(g) = lcm{n : phi(n) <= 2g}: phi(n) >= sqrt(n/2), so n <= 8g^2."""
    return math.lcm(*(n for n in range(1, 8 * g * g + 1) if totient(n) <= 2 * g))


@pytest.mark.parametrize("g, n", [(5, 55440), (6, 720720), (7, 720720)])
def test_orders_dividing_12_lose_nothing(g, n):
    # Tai's reduction, checked exhaustively: over every order that fits the
    # genus, each chart's minimum, witnesses, exception and violation rows
    # are those over the divisors of 12
    assert all_orders(g) == n
    assert list(map(without_classes, catalog_rows(g, n))) == list(
        map(without_classes, catalog_rows(g, 12))
    )


def test_chart_at_all_orders_builds_no_table_sized_by_n():
    # a chart over N = L(7) reads only the residues it reports: a fresh
    # process peaks far below one entry per residue mod N
    script = """
import tracemalloc
from reidtai import cli
from reidtai.report import sweep_rows
tracemalloc.start()
sweep_rows(cli._chart((1, 4, 720720, "integral-both", False)))
print(tracemalloc.get_traced_memory()[1])
"""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 5 * 2**20
    at_all_orders, at_12 = (
        without_classes(sweep_rows(cli._chart((1, 4, n, "integral-both", False))))
        for n in (720720, 12)
    )
    assert at_all_orders == at_12


def test_torus_summary():
    summary = torus_summary(3, 12)
    assert summary.min_age == F(1)
    assert [str(b) for b in summary.witnesses] == [
        "{0/1, 0/1, 1/2}",
        "{0/1, 1/2, 1/2}",
    ]
    empty = torus_summary(0, 12)
    assert empty.min_age is None


def brute_moved_pairs(entries):
    moved = 0
    for i in range(len(entries)):
        for j in range(i, len(entries)):
            if (entries[i].fraction + entries[j].fraction).denominator != 1:
                moved += 1
    return moved


def test_boundary_moved_count_examples():
    assert boundary_moved_count(S("0, 1/2, 1/2, 1/2, 1/2")) == 4
    assert boundary_moved_count(S("0, 1/2, 1/2, 1/2")) == 3
    assert boundary_moved_count(S("0, 0, 0, 0")) == 0


def test_boundary_moved_count_vs_pair_enumeration():
    rng = random.Random(31)
    universe = rotation_universe(12)
    for _ in range(200):
        b = Spectrum.of(rng.choices(universe, k=rng.randrange(0, 7)))
        assert boundary_moved_count(b) == brute_moved_pairs(b.entries)
    # order-2 classes: moved dimension is (#halves) * (#zeros)
    for zeros in range(5):
        for halves in range(5):
            b = Spectrum.of([S("0").entries[0]] * zeros + [S("1/2").entries[0]] * halves)
            assert boundary_moved_count(b) == zeros * halves


def brute_reduction_minimum(n):
    orbit = galois_orbit(n)
    best = None
    for subset in combinations(orbit.entries, orbit.dim // 2):
        cand = Spectrum.of(subset)
        if Spectrum.of(cand.entries + cand.negated().entries) == orbit:
            value = age(sym2(cand))
            if best is None or value < best:
                best = value
    return best


@pytest.mark.parametrize("n, expected", [(5, F(6, 5)), (7, F(18, 7)), (8, F(5, 4))])
def test_reduction_support_examples(n, expected):
    assert brute_reduction_minimum(n) == expected
    assert reduction_support(n, 6) == expected
    assert expected >= 1


def test_reduction_support_errors():
    with pytest.raises(ValueError):
        reduction_support(6, 6)  # divides 12
    with pytest.raises(ValueError):
        reduction_support(13, 5)  # degree 12 over the budget 10
    with pytest.raises(ValueError):
        reduction_support(0, 6)


@pytest.mark.parametrize("n", [n for n in range(3, 31) if 12 % n])
def test_reduction_candidates_are_the_conjugate_choices(monkeypatch, n):
    # the candidates reduction_support folds are the choices of q or -q
    # from each conjugate pair of the order-n orbit, each once, with the
    # Sym^2 age of the whole spectrum
    folded = []

    def recording(*args):
        for state in enumeration._assemble(*args):
            folded.append(state)
            yield state

    monkeypatch.setattr(criterion, "_assemble", recording)
    reduction_support(n, n)
    pairs = [(x, n - x) for x in range(1, n) if gcd(x, n) == 1 and 2 * x < n]
    choices = sorted(tuple(sorted(c)) for c in product(*pairs))
    assert sorted(xs for xs, _ in folded) == choices
    for xs, a2 in folded:
        assert a2 == spectrum_state(xs, n)[1]


def test_reduction_support_without_candidates_raises(monkeypatch):
    # unreachable with a real orbit; an empty candidate stream must raise,
    # not return None
    monkeypatch.setattr(criterion, "_assemble", lambda *args: iter(()))
    with pytest.raises(ValueError, match="no candidate"):
        reduction_support(5, 6)


def test_reduction_support_check_survives_optimized_python():
    # the check must not be an assert, which python -O strips
    script = (
        "import sys\n"
        "import reidtai.criterion as criterion\n"
        "criterion._assemble = lambda *args: iter(())\n"
        "try:\n"
        "    criterion.reduction_support(5, 6)\n"
        "except ValueError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_tensor_padding_additivity():
    # appending a fixed lattice direction adds exactly one abelian block
    rng = random.Random(8)
    universe = rotation_universe(12)
    zero = S("0").entries[0]
    for _ in range(200):
        a = Spectrum.of(rng.choices(universe, k=rng.randrange(0, 4)))
        b = Spectrum.of(rng.choices(universe, k=rng.randrange(0, 4)))
        padded = Spectrum.of(b.entries + (zero,))
        assert age(v_spectrum(a, padded)) == age(v_spectrum(a, b)) + age(a)


# The benchmark's traced replay counts the W stream by wrapping
# ``enumeration.abelian_factor_classes`` on the module, and the Lambda
# stream by wrapping ``lattice_factor_classes`` both there and where
# ``criterion`` binds it.  A sweep that reaches a stream under another name
# (an imported alias, a renamed stream) or stops a stream early would drop
# out of that count or fail it, so the contract is held here: one open per
# chart and stream, with that chart's config, yielding exactly the
# generating-function count.


def _w_count(cfg):
    if cfg.constraint_mode == "integral-both":
        return ppav_series(cfg.order_divides, cfg.h)[cfg.h]
    return multiset_count(cfg.h, cfg.order_divides)


def _lambda_count(cfg):
    if cfg.constraint_mode == "unconstrained":
        return multiset_count(cfg.r, cfg.order_divides)
    return lattice_series(cfg.order_divides, cfg.r)[cfg.r]


def _streams(cfg):
    return [["w", cfg, _w_count(cfg)], ["lambda", cfg, _lambda_count(cfg)]]


@pytest.fixture
def opened_w_streams(monkeypatch):
    """Every W and Lambda stream opened, in call order, as
    [kind, config, items yielded]."""
    opened = []

    def counting(kind, stream):
        def wrapper(cfg):
            entry = [kind, cfg, 0]
            opened.append(entry)

            def items():
                for item in stream(cfg):
                    entry[2] += 1
                    yield item

            return items()

        return wrapper

    w_stream = counting("w", enumeration.abelian_factor_classes)
    monkeypatch.setattr(enumeration, "abelian_factor_classes", w_stream)
    lambda_stream = counting("lambda", enumeration.lattice_factor_classes)
    for owner in (enumeration, criterion):
        monkeypatch.setattr(owner, "lattice_factor_classes", lambda_stream)
    return opened


@pytest.mark.parametrize("mode", ["integral-both", "integral-lambda-only", "unconstrained"])
@pytest.mark.parametrize("h, r, n", [(1, 3, 12), (3, 2, 12), (2, 2, 24)])
def test_sweep_v_opens_the_w_stream_once(opened_w_streams, h, r, n, mode):
    try:
        sweep_v(h, r, n, mode)
    except PropositionViolation:
        pass  # the relaxed modes meet below-1 classes of other orders
    assert opened_w_streams == _streams(EnumerationConfig(h, r, n, mode))


@pytest.mark.parametrize("h, n", [(1, 12), (5, 12), (3, 36)])
def test_sweep_sym2_opens_the_w_stream_once(opened_w_streams, h, n):
    sweep_sym2(h, n)
    interior_verdict(h, n)
    cfg = EnumerationConfig(h, 0, n)
    assert opened_w_streams == [["w", cfg, _w_count(cfg)]] * 2


def test_catalog_opens_one_w_stream_per_chart(opened_w_streams):
    assert main(["exceptions", "--g", "5", "--format", "json"]) == 0
    assert opened_w_streams == [
        stream for h in range(1, 6) for stream in _streams(EnumerationConfig(h, 5 - h))
    ]


def test_catalog_g7_opens_every_stream_once_in_full(opened_w_streams, capsys):
    # the benchmark's catalog workload: each W and Lambda stream of
    # h + r = 7 opens once and yields its generating-function count
    assert main(["exceptions", "--g", "7", "--format", "json"]) == 0
    capsys.readouterr()
    expected = [stream for h in range(1, 8) for stream in _streams(EnumerationConfig(h, 7 - h))]
    assert opened_w_streams == expected
    sizes = [count for _, _, count in expected]
    assert sum(w * lam - 1 for w, lam in zip(sizes[::2], sizes[1::2])) == 32367


# The r = 0 folds (interior, Sym^2 table, torus) check the kernel law too:
# a forged zero-age state that is not +-1 must reach the report as a
# ``kernel`` violation with exit 3, as it does on a chart.  The state
# W = {1/4, 3/4} (numerators 3, 9 over 12) claims Sym^2 age 0.
FORGED = ((3, 9), 0)


@pytest.mark.parametrize(
    "argv, owner, name",
    [
        (["sweep", "--interior", "--g", "2"], enumeration, "abelian_factor_classes"),
        (["sweep", "--h", "2"], enumeration, "abelian_factor_classes"),
        (
            ["sweep", "--h", "0", "--r", "2", "--mode", "unconstrained"],
            criterion,
            "multiset_states",
        ),
    ],
)
def test_r0_sweeps_report_kernel_violations(monkeypatch, capsys, argv, owner, name):
    stream = getattr(owner, name)

    def forged(*args):
        yield from stream(*args)
        yield FORGED

    monkeypatch.setattr(owner, name, forged)
    assert main([*argv, "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [
        {
            "rule": "kernel", "h": 2, "r": 0, "w_spec": ["1/4", "3/4"],
            "lambda_spec": [], "age_v": "0/1", "v_order": 1,
        }
    ]


def test_r0_sweeps_do_not_claim_the_order_two_law(capsys):
    # the interior at g = 2 has rows below 1 of order 4 and 6 on Sym^2: the
    # fold records them, and the r = 0 sweeps do not report them
    cfg = EnumerationConfig(2, 0, 12)
    result = criterion.fold_chart(cfg, enumeration.abelian_factor_classes(cfg), [()])
    assert {(v.rule, v.v_order) for v in result.violations} == {("order-2", 4), ("order-2", 6)}
    assert interior_verdict(2).min_age == Fraction(1, 2)
    assert main(["sweep", "--interior", "--g", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["violations"] == []


def test_catalog_builds_no_chart_spectrum_or_class(monkeypatch):
    # every reported row's chart order, kernel flag and twin come from
    # integers: neither v_spectrum (under any name binding it) nor
    # ElementClass.build runs on a catalog with violations; and once a
    # warm-up run has read its reported entries into the lazy per-residue
    # tables, the relaxed and catalog chart paths build no Spectrum or
    # RotationNumber and call no as_spectrum, since both fold inputs are
    # numerators over N
    calls = dict.fromkeys(["v_spectrum", "build", "Spectrum", "RotationNumber", "as_spectrum"], 0)

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch_everywhere(name, fn):
        owners = [
            module for module_name, module in list(sys.modules.items())
            if module_name.split(".")[0] == "reidtai" and getattr(module, name, None) is fn
        ]
        for owner in owners:
            monkeypatch.setattr(owner, name, counting(name, fn))
        return set(owners)

    assert {functors, enumeration} <= patch_everywhere("v_spectrum", functors.v_spectrum)
    build = vars(ElementClass)["build"].__func__
    monkeypatch.setattr(ElementClass, "build", classmethod(counting("build", build)))
    relaxed = ["exceptions", "--g", "5", "--mode", "unconstrained", "--threshold", "terminal"]
    runs = [([*relaxed, "--jobs", "1"], 3), (["exceptions", "--g", "7"], 0)]
    for argv, code in runs:
        assert main(argv) == code
    assert not any(calls.values())
    for cls in (Spectrum, RotationNumber):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
    assert {enumeration, criterion} <= patch_everywhere("as_spectrum", enumeration.as_spectrum)
    for argv, code in runs:
        assert main(argv) == code
    assert not any(calls.values()), calls
    # the wrappers are live: a record's class reads its spectra through
    # as_spectrum, and the reference twin builds a class, spectra and entries
    rec = sweep_v(1, 4).exceptions[0]
    central_twin(rec.element)
    assert calls["v_spectrum"] == calls["build"] == 1
    assert calls["as_spectrum"] == 2
    assert calls["Spectrum"] and calls["RotationNumber"]
