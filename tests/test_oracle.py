"""Numeric eigenvalue cross-checks of the exact calculus."""

import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_functors as ref_functors
import reference_oracle as ref
from reidtai import oracle
from reidtai.functors import sym2, tensor
from reidtai.oracle import (
    DEFAULT_TOLERANCE,
    MAX_MATCH_TOLERANCE,
    OracleFailure,
    companion,
    crosscheck_functor,
    cyclotomic_polynomial,
    kron_matrix,
    match_angles,
    numeric_angles,
    random_signature,
    realize,
    run_oracle_cases,
    sym2_matrix,
)
from reidtai.rotations import (
    OrbitSignature,
    Spectrum,
    divisors,
    element_order,
    parse_spectrum,
    rot,
    totient,
)

S = parse_spectrum
SRC = Path(__file__).parents[1] / "src"


def _match_one(angles, exact, tol=DEFAULT_TOLERANCE):
    """The verdict of one row of angles, as a stack of one row; None where
    its grid is too fine for the tolerance."""
    [verdict] = match_angles(np.asarray(angles, dtype=np.float64)[None], [exact], tol)
    return verdict


@pytest.mark.parametrize(
    "n, coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_polynomials(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


def test_cyclotomic_product_recovers_power_minus_one():
    # the product over divisors of n rebuilds x^n - 1
    for n in range(1, 37):
        product = np.array([1], dtype=object)
        for d in divisors(n):
            product = np.polymul(
                product, np.array(cyclotomic_polynomial(d)[::-1], dtype=object)
            )
        expected = [1] + [0] * (n - 1) + [-1]
        assert list(product) == expected
        assert len(cyclotomic_polynomial(n)) == totient(n) + 1


def test_realize_examples():
    m = realize(OrbitSignature.of([2]))
    assert m.dtype == np.int64
    assert m.tolist() == [[-1]]
    m = realize(OrbitSignature.of([1, 1]))
    assert m.tolist() == [[1, 0], [0, 1]]
    m = realize(OrbitSignature.of([3]))
    assert np.array_equal(np.linalg.matrix_power(m, 3), np.eye(2, dtype=np.int64))
    assert not np.array_equal(m, np.eye(2, dtype=np.int64))
    assert realize(OrbitSignature()).shape == (0, 0)


def test_forged_companion_fails_every_signature_holding_its_part(monkeypatch):
    # the block of part 3 forged as the companion of Phi_6, whose cube is -I:
    # every signature holding 3 fails its realization, by name, also where
    # an even part makes the lcm of the parts a multiple of 6, so that the
    # whole matrix to that power is I; no other signature fails
    original = oracle.companion
    phi3, phi6 = cyclotomic_polynomial(3), cyclotomic_polynomial(6)
    drawn = _drawn(200, 0)
    signatures = {sig for pair in drawn for sig in pair}
    holding = {sig for sig in signatures if 3 in sig.parts}
    assert any(sig.order % 6 == 0 for sig in holding)
    with monkeypatch.context() as patched:
        patched.setattr(oracle, "companion", lambda c: original(phi6 if c == phi3 else c))
        oracle._part_block.cache_clear()  # the blocks are cached per part order
        try:
            memo = {}
            oracle.solve_stacked(drawn, DEFAULT_TOLERANCE, memo)
            for sig in signatures:
                step = memo[("realize", sig)]
                if sig in holding:
                    message = f"realization of {sig} is not of order {sig.order}"
                    assert isinstance(step, OracleFailure) and str(step) == message
                    with pytest.raises(OracleFailure) as raised:
                        realize(sig)
                    assert str(raised.value) == message
                else:
                    assert not isinstance(step, Exception)
            for a, b in drawn:
                if a in holding or b in holding:
                    with pytest.raises(OracleFailure, match="is not of order"):
                        crosscheck_functor(a, b, memo=memo)
                else:
                    assert crosscheck_functor(a, b, memo=memo)
            with pytest.raises(OracleFailure, match="is not of order"):
                run_oracle_cases(200, seed=0)
        finally:
            oracle._part_block.cache_clear()


@pytest.mark.parametrize("n", [3, 4, 12])
def test_numeric_angles_single_orbits(n):
    angles = numeric_angles(realize(OrbitSignature.of([n])))
    assert _match_one(angles, S(", ".join(f"{k}/{n}" for k in range(1, n + 1)
                                          if np.gcd(k, n) == 1)))


def test_match_angles_guards():
    with pytest.raises(ValueError):
        _match_one((0.0,), S("0"), tol=1e-3)
    with pytest.raises(ValueError):
        _match_one((0.0,), S("0"), tol=0.0)
    assert _match_one((0.0, 0.5), S("0")) is False
    # circular wrap: an angle just below 1 still matches the entry 0
    assert _match_one((1.0 - 1e-12,), S("0"))
    # a case with its tolerance out of range raises that failure
    with pytest.raises(ValueError, match="tolerance must be in"):
        crosscheck_functor(OrbitSignature.of([2]), OrbitSignature.of([1]), 0.0)
    # each row needs its own spectrum: a count mismatch either way raises
    rows = np.zeros((2, 1))
    with pytest.raises(ValueError):
        match_angles(rows, [S("0")])
    with pytest.raises(ValueError):
        match_angles(rows, [S("0")] * 3)


def test_companion_rejects_non_monic():
    with pytest.raises(ValueError):
        companion((2, 2))
    with pytest.raises(ValueError):
        companion((1,))


def test_sym2_matrix_small():
    # rotation by a quarter turn: the induced symmetric square fixes one
    # line and flips a plane
    induced = sym2_matrix(realize(OrbitSignature.of([4])))
    assert induced.shape == (3, 3)
    angles = numeric_angles(induced)
    assert _match_one(angles, S("1/2, 0, 1/2"))


def test_crosscheck_examples():
    assert crosscheck_functor(OrbitSignature.of([2]), OrbitSignature.of([1]))
    assert crosscheck_functor(OrbitSignature.of([3]), OrbitSignature.of([2]))
    assert crosscheck_functor(OrbitSignature.of([4]), OrbitSignature.of([4, 1]))
    assert crosscheck_functor(OrbitSignature.of([12, 2]), OrbitSignature.of([9]))


def test_crosscheck_dimensions():
    other_sig = OrbitSignature.of([2])
    other = realize(other_sig)
    for sig in (OrbitSignature.of([3, 4]), OrbitSignature.of([1, 2, 6])):
        m = realize(sig)
        n = len(m)
        assert n == sig.total_degree
        assert sym2_matrix(m).shape[0] == n * (n + 1) // 2
        assert sym2(sig.spectrum()).dim == n * (n + 1) // 2
        assert np.kron(m, other).shape[0] == n * len(other)
        assert tensor(sig.spectrum(), other_sig.spectrum()).dim == n * len(other)


def test_random_signature_degrees():
    rng = random.Random(3)
    for _ in range(200):
        sig = random_signature(rng, 8, 36)
        assert 1 <= sig.total_degree <= 8
        assert all(36 % n == 0 for n in sig.parts)


@pytest.mark.parametrize("order_divides", [1, 12, 36, 360])
@pytest.mark.parametrize("max_degree", [1, 8, 24])
def test_random_signature_matches_the_reference_draw(max_degree, order_divides):
    # the cached tables of fitting orders leave every draw as the filtering
    # loop makes it, and the generator in the same state
    for seed in range(20):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(50):
            got = random_signature(rng, max_degree, order_divides)
            assert got == ref.random_signature(ref_rng, max_degree, order_divides)
        assert rng.getstate() == ref_rng.getstate()


def test_hundred_random_cases():
    cases = run_oracle_cases(100, seed=7, max_degree=8, order_divides=36)
    assert len(cases) == 100
    assert all(case["ok"] for case in cases)


def test_zero_samples():
    assert run_oracle_cases(0, seed=1) == []


def test_numeric_angles_rejects_non_unit_matrix():
    stretched = np.array([[2]], dtype=np.int64)
    with pytest.raises(OracleFailure):
        numeric_angles(stretched)


# Differential checks of the array forms against the loop forms kept in
# tests/reference_oracle.py.


@pytest.mark.parametrize("n", range(9))
def test_sym2_matrix_matches_reference_on_random_matrices(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        m = rng.integers(-4, 5, size=(n, n), dtype=np.int64)
        got = sym2_matrix(m)
        assert got.dtype == np.int64
        assert np.array_equal(got, ref.sym2_matrix(m))


def test_sym2_matrix_matches_reference_on_realizations():
    rng = random.Random(11)
    sigs = [OrbitSignature()] + [random_signature(rng, 8, 36) for _ in range(40)]
    for sig in sigs:
        m = realize(sig)
        assert np.array_equal(sym2_matrix(m), ref.sym2_matrix(m))


# Offsets in units of tol: inside the tolerance (up to its edge) and outside.
INSIDE = st.one_of(st.sampled_from((0.0, 0.999, -0.999)), st.floats(-0.999, 0.999))
OUTSIDE = st.one_of(st.sampled_from((1.01, -1.01, 2.0, -2.0)), st.floats(1.01, 3.0))


@st.composite
def angle_cases(draw):
    """An exact spectrum over the divisors of 360 and angles derived from
    it, each within tol of its entry and wrapped into [0, 1) or not, with at
    most one fault: an angle past the tolerance edge, an entry swapped for
    another grid value (a wrong multiplicity), an angle dropped or added."""
    tol = draw(st.sampled_from((DEFAULT_TOLERANCE, 1e-7, MAX_MATCH_TOLERANCE)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 359), st.sampled_from(divisors(360))), max_size=10
    ))
    exact = Spectrum.of(rot(num, den) for num, den in pairs)
    values = [q.num / q.den for q in exact.entries]
    offsets = [draw(INSIDE) for _ in values]
    fault = draw(st.sampled_from(("none", "outside", "swap", "drop", "add")))
    if values and fault in ("outside", "swap", "drop"):
        i = draw(st.integers(0, len(values) - 1))
        if fault == "outside":
            offsets[i] = draw(OUTSIDE) * draw(st.sampled_from((1, -1)))
        elif fault == "swap":
            values[i] = draw(st.integers(0, 359)) / 360
        else:
            del values[i], offsets[i]
    elif fault == "add":
        values.append(draw(st.sampled_from(values or [0.0])))
        offsets.append(draw(INSIDE))
    angles = []
    for v, offset in zip(values, offsets):
        x = v + offset * tol
        angles.append(x % 1.0 if draw(st.booleans()) else x)
    return tuple(draw(st.permutations(angles))), exact, tol


@settings(max_examples=200, deadline=None)
@given(angle_cases())
@example(((1.0 - 1e-12,), parse_spectrum("0"), DEFAULT_TOLERANCE))
@example(((0.0, 1.0 - 0.999e-9), parse_spectrum("0, 0"), DEFAULT_TOLERANCE))
@example(((0.5, 0.5), parse_spectrum("0, 1/2"), DEFAULT_TOLERANCE))
@example(((0.25, 0.75), parse_spectrum("1/4, 1/4"), DEFAULT_TOLERANCE))
@example(((0.0, 0.5), parse_spectrum("0"), DEFAULT_TOLERANCE))
@example(((), parse_spectrum(""), DEFAULT_TOLERANCE))
@example(((), parse_spectrum("1/3"), DEFAULT_TOLERANCE))
def test_match_angles_matches_greedy_reference(case):
    angles, exact, tol = case
    assert _match_one(angles, exact, tol) == ref.match_angles(angles, exact, tol)


def test_match_angles_refuses_grid_finer_than_tolerance():
    # pairwise coprime orders: the grid 1/L has L = 359*358*357 ~ 4.6e7
    exact = parse_spectrum("1/359, 1/358, 1/357")
    angles = tuple(float(q.fraction) for q in exact.entries)
    assert element_order(exact) == 359 * 358 * 357
    assert _match_one(angles, exact, MAX_MATCH_TOLERANCE) is None
    # at a tolerance the grid still resolves, the snap agrees with greedy
    assert _match_one(angles, exact) == ref.match_angles(angles, exact) is True


@pytest.mark.parametrize(
    "seed, tol",
    [
        (0, DEFAULT_TOLERANCE),
        (1, 3e-16),
        (2, 1e-16),
        (3, DEFAULT_TOLERANCE),
        (3, 3e-16),
        (3, 2e-16),
        (4, DEFAULT_TOLERANCE),
        (4, 3e-16),
    ],
)
def test_oracle_cases_match_reference_crosscheck(seed, tol):
    # the tight tolerances sit at the floating-point noise of the
    # eigenvalues, where a verdict follows the rounding of the eigenproblems
    # solved, so there the reference solves the same diagonal blocks as the
    # oracle; at the default tolerance it solves each matrix whole
    blocks = tol < DEFAULT_TOLERANCE
    cases = run_oracle_cases(200, seed=seed, tol=tol)
    rng = random.Random(seed)
    for case in cases:
        a_sig = random_signature(rng, 8, 36)
        b_sig = random_signature(rng, 8, 36)
        assert case["a_signature"] == list(a_sig.parts)
        assert case["b_signature"] == list(b_sig.parts)
        assert case["ok"] == ref.crosscheck_functor(a_sig, b_sig, tol, blocks)


def test_numeric_angles_returns_sorted_float64_array():
    m = realize(OrbitSignature.of([12, 5, 1]))
    angles = numeric_angles(m)
    assert isinstance(angles, np.ndarray)
    assert angles.dtype == np.float64
    assert angles.shape == (len(m),)
    assert np.all(np.diff(angles) >= 0)
    assert np.all((0.0 <= angles) & (angles <= 1.0))
    empty = numeric_angles(realize(OrbitSignature()))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


# The memo table of run_oracle_cases: each distinct eigenvalue problem
# (a signature's own spectrum, the Sym^2 of a first signature, the tensor
# of an ordered pair) is solved once per run and stores its verdict or its
# first failure, and every case keeps the verdict, and the first failure,
# of a call with a fresh table.


def _drawn(samples, seed, max_degree=8, order_divides=36):
    rng = random.Random(seed)
    return [
        (random_signature(rng, max_degree, order_divides),
         random_signature(rng, max_degree, order_divides))
        for _ in range(samples)
    ]


def _count_calls(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    return counts


def _distinct_blocks(drawn):
    """The distinct diagonal blocks, as (size, bytes), of every problem of
    the drawn pairs, cut from the oracle's matrices along the reference's
    index sets, each of whose matrices has nothing outside its blocks."""
    realized = {sig: realize(sig) for pair in drawn for sig in pair}
    problems = [("spectrum", sig, None, mat) for sig, mat in realized.items()]
    problems += [("sym2", a, None, sym2_matrix(realized[a])) for a in {a for a, _ in drawn}]
    problems += [
        ("tensor", a, b, kron_matrix(realized[a], realized[b])) for a, b in set(drawn)
    ]
    blocks = set()
    for kind, a, b, mat in problems:
        sets = ref.block_sets(kind, a, b)
        assert sum(len(s) for s in sets) == len(mat)
        inside = sum(np.count_nonzero(mat[np.ix_(s, s)]) for s in sets)
        assert inside == np.count_nonzero(mat)
        blocks.update((len(s), mat[np.ix_(s, s)].tobytes()) for s in sets)
    return blocks


def _count_rows(monkeypatch):
    """The number of dimensions, the length and the bytes of each array
    numeric_angles receives, one entry per call."""
    solved = []
    original = oracle.numeric_angles

    def counted(m):
        solved.append((m.ndim, len(m), m.tobytes()))
        return original(m)

    monkeypatch.setattr(oracle, "numeric_angles", counted)
    return solved


@pytest.mark.parametrize("seed", [3, 8])
def test_memo_checks_each_signature_and_pair_once(monkeypatch, seed):
    counts = _count_calls(
        monkeypatch,
        ["crosscheck_functor", "realize", "sym2_matrix", "sym2_sums", "tensor_sums"],
    )
    solved = _count_rows(monkeypatch)
    cases = run_oracle_cases(200, seed=seed)
    assert all(case["ok"] for case in cases)  # so no check short-circuits
    drawn = _drawn(200, seed)
    signatures = {sig for pair in drawn for sig in pair}
    firsts = {a for a, _ in drawn}
    pairs = set(drawn)
    assert len(signatures) < 400 and len(pairs) < 200  # the draws repeat
    assert counts["crosscheck_functor"] == 200
    assert counts["realize"] == len(signatures)
    assert counts["sym2_matrix"] == counts["sym2_sums"] == len(firsts)
    assert counts["tensor_sums"] == len(pairs)
    # what is solved is each distinct diagonal block of those problems, once
    problems = len(signatures) + len(firsts) + len(pairs)
    blocks = _distinct_blocks(drawn)
    assert len(solved) == len(blocks) < problems
    assert {ndim for ndim, _, _ in solved} == {2}  # each block alone, as one matrix
    assert {(side, data) for _, side, data in solved} == blocks


def _spectrum_of(key):
    """The exact spectrum of the problem under a memo key, by the public
    functors."""
    kind, a, *b = key
    if kind == "spectrum":
        return a.spectrum()
    if kind == "sym2":
        return sym2(a.spectrum())
    return tensor(a.spectrum(), b[0].spectrum())


def _problem_rows(drawn):
    """Each distinct problem of the drawn pairs as (memo key, the sorted row
    of its blocks' angles, solved by the reference along its own index
    sets, its exact spectrum)."""
    realized = {sig: oracle._realized(sig) for pair in drawn for sig in pair}
    return [
        (key, ref.block_angles(matrix(), ref.block_sets(*key)), _spectrum_of(key))
        for problems in oracle._problems(drawn, realized).values()
        for key, matrix, _ in problems
    ]


@pytest.mark.parametrize("seed", [3, 8])
def test_each_block_is_solved_once_and_snapped_once_per_grid(monkeypatch, seed):
    # every case passes, so every block of every problem is snapped to its
    # problem's grid: once per distinct (block, L), and never twice
    solved = _count_rows(monkeypatch)
    snap = oracle._snap
    snapped = []

    def recorded(x, big, tol):
        snapped.append((id(x), big))
        return snap(x, big, tol)

    monkeypatch.setattr(oracle, "_snap", recorded)
    cases = run_oracle_cases(200, seed=seed)
    assert all(case["ok"] for case in cases)
    drawn = _drawn(200, seed)
    blocks = _distinct_blocks(drawn)
    assert len(solved) == len({(side, data) for _, side, data in solved}) == len(blocks)
    realized = {sig: oracle._realized(sig) for pair in drawn for sig in pair}
    grids = set()  # each distinct block, by its entries, with each grid it meets
    for problems in oracle._problems(drawn, realized).values():
        for key, matrix, _ in problems:
            mat, big = matrix(), element_order(_spectrum_of(key))
            grids.update((mat[np.ix_(s, s)].tobytes(), big) for s in ref.block_sets(*key))
    assert len(snapped) == len(set(snapped)) == len(grids)


def test_seed_3_run_solves_56_blocks_and_snaps_165_grids(monkeypatch):
    solved = _count_rows(monkeypatch)
    snap = oracle._snap
    snapped = []
    monkeypatch.setattr(oracle, "_snap", lambda *args: snapped.append(args) or snap(*args))
    run_oracle_cases(1000, seed=3)
    assert (len(solved), len(snapped)) == (56, 165)


@pytest.fixture(scope="module")
def rows_of_seeds():
    """The problems of 50 draws of degree up to 12 at each seed 0-19, whose
    blocks reach side 144, so that 3e-16 already fails a few."""
    return {seed: _problem_rows(_drawn(50, seed, max_degree=12)) for seed in range(20)}


@pytest.mark.parametrize("tol", [MAX_MATCH_TOLERANCE, DEFAULT_TOLERANCE, 3e-16, 1e-16])
def test_memo_verdicts_match_whole_rows(rows_of_seeds, tol):
    # the run's verdict of every problem, decided block by block on integer
    # numerators, is what match_angles gives the problem's whole sorted row;
    # match_angles decides a row by the run's own rule, so at seeds 0-2 the
    # greedy reference, which shares no code with it, must agree too
    verdicts = []
    for seed, rows in rows_of_seeds.items():
        memo = {}
        oracle.solve_stacked(_drawn(50, seed, max_degree=12), tol, memo)
        for key, row, exact in rows:
            [want] = match_angles(row[None], [exact], tol)
            assert memo[key] == want, (seed, key)
            if seed < 3:
                assert ref.match_angles(tuple(row), exact, tol) == want, (seed, key)
            verdicts.append(want)
    assert True in verdicts
    assert all(verdicts) == (tol >= DEFAULT_TOLERANCE)


def test_crosscheck_order_and_short_circuit():
    # a case reads realize a, realize b, the two own spectra, Sym^2 of a and
    # a (x) b in that order: a failure stored at a step raises before any
    # later step is read, and a False step hides a failure stored later
    a, b = OrbitSignature.of([6]), OrbitSignature.of([12])
    steps = [("realize", a), ("realize", b), ("spectrum", a), ("spectrum", b),
             ("sym2", a), ("tensor", a, b)]
    memo = {}
    oracle.solve_stacked([(a, b)], DEFAULT_TOLERANCE, memo)
    assert set(memo) == set(steps)
    assert crosscheck_functor(a, b, memo=memo)
    for i, step in enumerate(steps):
        table = dict(memo)
        table[step] = OracleFailure(f"failure stored at {step}")
        for later in steps[i + 1 :]:
            if later[0] != "realize":
                table[later] = False
        with pytest.raises(OracleFailure) as info:
            crosscheck_functor(a, b, memo=table)
        assert info.value is table[step]
        if step[0] != "realize":
            table = dict(memo)
            table[step] = False
            for later in steps[i + 1 :]:
                table[later] = OracleFailure("failure stored after a mismatch")
            assert crosscheck_functor(a, b, memo=table) is False


def _first_failure(run):
    try:
        run()
    except OracleFailure as exc:
        return str(exc)
    raise AssertionError("no OracleFailure raised")


def _recurring(drawn):
    """A signature that recurs in the draws, first met as the b side of a
    case and later as the a side."""
    seen = [sig for a, b in drawn for sig in (a, b)]
    firsts = {a for a, _ in drawn}
    return next(
        sig for sig in seen
        if seen.count(sig) > 2 and seen.index(sig) % 2 == 1 and sig in firsts
    )


def _on_matrix(build, arg, entries, change):
    """``build``, with ``change`` applied to its result when its argument
    number ``arg`` equals ``entries``."""

    def faulty(*args):
        out = build(*args)
        return change(out) if np.array_equal(args[arg], entries) else out

    return faulty


FAULTS = ["realize", "sym2_matrix", "kron", "sym2 off circle"]


def _inject(monkeypatch, fault, bad):
    """Make one step of signature ``bad`` fail in reidtai.oracle and in the
    reference alike: its realization raises, its Sym^2 or Kronecker matrix
    (as the b factor) loses a row, or its Sym^2 matrix is scaled off the
    unit circle.  The reference binds ``realize`` by name and builds its
    Kronecker product with ``np.kron``."""
    if fault == "realize":
        original = oracle.realize

        def faulty(sig):
            if sig == bad:
                raise OracleFailure(f"forced failure realizing {sig}")
            return original(sig)

        monkeypatch.setattr(oracle, "realize", faulty)
        monkeypatch.setattr(ref, "realize", faulty)
        return
    entries = realize(bad)
    if fault == "kron":
        drop = lambda out: out[:-1]
        monkeypatch.setattr(oracle, "kron_matrix", _on_matrix(oracle.kron_matrix, 1, entries, drop))
        monkeypatch.setattr(np, "kron", _on_matrix(np.kron, 1, entries, drop))
        return
    change = (lambda out: out[:-1]) if fault == "sym2_matrix" else (lambda out: 2 * out)
    for module in (oracle, ref):
        monkeypatch.setattr(module, "sym2_matrix", _on_matrix(module.sym2_matrix, 0, entries, change))


@pytest.mark.parametrize("step", FAULTS[:3])
def test_memo_keeps_the_first_failure(monkeypatch, step):
    # a fault tied to one signature that recurs in the draws, first met as
    # the b side of a case, and later as the a side
    drawn = _drawn(200, 4)
    _inject(monkeypatch, step, _recurring(drawn))
    calls = _count_calls(monkeypatch, ["crosscheck_functor"])

    def per_case():
        for a, b in drawn:
            oracle.crosscheck_functor(a, b)

    plain = _first_failure(per_case)
    plain_calls = calls["crosscheck_functor"]
    calls["crosscheck_functor"] = 0
    memoized = _first_failure(lambda: run_oracle_cases(200, seed=4))
    assert memoized == plain
    assert calls["crosscheck_functor"] == plain_calls


@pytest.mark.parametrize("fault", FAULTS)
def test_first_failure_matches_the_reference(monkeypatch, fault):
    # the same fault in the oracle and in the loop-form reference: the run
    # raises the exception the reference raises, at the same case
    drawn = _drawn(200, 4)
    _inject(monkeypatch, fault, _recurring(drawn))
    calls = _count_calls(monkeypatch, ["crosscheck_functor"])
    reached = 0
    with pytest.raises((OracleFailure, ValueError)) as want:
        for a, b in drawn:
            reached += 1
            ref.crosscheck_functor(a, b)
    with pytest.raises((OracleFailure, ValueError)) as got:
        run_oracle_cases(200, seed=4)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert calls["crosscheck_functor"] == reached


@pytest.mark.parametrize("fault", [None] + FAULTS)
def test_no_solving_after_solve_stacked(monkeypatch, fault):
    # the table holds every verdict and every failure, so reading the cases
    # from it realizes, builds and solves nothing, and a failed case raises
    # from it
    drawn = _drawn(200, 4)
    if fault is not None:
        _inject(monkeypatch, fault, _recurring(drawn))
    memo = {}
    oracle.solve_stacked(drawn, DEFAULT_TOLERANCE, memo)
    counts = _count_calls(
        monkeypatch, ["realize", "sym2_matrix", "kron_matrix", "numeric_angles"]
    )
    raised = 0
    for a, b in drawn:
        try:
            crosscheck_functor(a, b, DEFAULT_TOLERANCE, memo)
        except OracleFailure:
            raised += 1
    assert not any(counts.values()), counts
    assert (raised > 0) == (fault is not None)


# The block solve: each distinct diagonal block is solved once per run, on
# its own, and snapped once to each exact grid its problems need; no problem
# row is built, so none waits for a match.


def test_each_solve_is_one_distinct_block_and_no_row_is_matched(monkeypatch):
    # a larger run than the memo test, with Kronecker matrices of side up to
    # 144: every eigvals call gets one square block, each distinct block of
    # the run exactly once, and match_angles, which snaps rows, never runs
    original = np.linalg.eigvals
    shapes = []

    def counted(a):
        shapes.append(a.shape)
        return original(a)

    matched = []
    monkeypatch.setattr(oracle.np.linalg, "eigvals", counted)
    monkeypatch.setattr(oracle, "match_angles", lambda *args: matched.append(args))
    solved = _count_rows(monkeypatch)
    cases = run_oracle_cases(4000, seed=3, max_degree=12)
    assert all(case["ok"] for case in cases)
    blocks = _distinct_blocks(_drawn(4000, 3, max_degree=12))
    assert {(side, data) for _, side, data in solved} == blocks
    assert len(solved) == len(blocks) == len(shapes)
    assert all(len(shape) == 2 and shape[0] == shape[1] for shape in shapes)
    assert not matched


@pytest.mark.parametrize("kind", ["sym2", "tensor"])
def test_entry_outside_the_blocks_is_solved_whole(monkeypatch, kind):
    # one recurring problem's matrix, the Sym^2 of a first signature or the
    # Kronecker product of a pair, gains one nonzero entry between two of
    # its claimed blocks, in the oracle and in the reference alike: the
    # exact check sends that matrix to one whole solve, and every case
    # keeps the verdict of the whole-matrix reference
    drawn = _drawn(200, 4)
    if kind == "sym2":
        firsts = [a for a, _ in drawn]
        bad = (next(a for a in firsts if firsts.count(a) > 1 and len(a.parts) > 1),)
        builds = [(oracle, "sym2_matrix"), (ref, "sym2_matrix")]
    else:
        bad = next(
            pair for pair in drawn
            if drawn.count(pair) > 1 and len(pair[0].parts) * len(pair[1].parts) > 1
        )
        builds = [(oracle, "kron_matrix"), (np, "kron")]
    sets = ref.block_sets(kind, *bad)
    row, col = sets[0][0], sets[-1][-1]
    entries = [realize(sig) for sig in bad]

    def forge(build):
        def forged(*args):
            out = build(*args)
            if all(map(np.array_equal, args, entries)):
                out = out.copy()
                out[row, col] = 1
            return out

        return forged

    forged = forge(sym2_matrix if kind == "sym2" else kron_matrix)(*entries)
    for module, name in builds:
        monkeypatch.setattr(module, name, forge(getattr(module, name)))
    solve = oracle.numeric_angles
    seen = []

    def recorded(m):
        seen.extend(m if m.ndim == 3 else [m])
        return solve(m)

    monkeypatch.setattr(oracle, "numeric_angles", recorded)
    cases = run_oracle_cases(200, seed=4)
    assert sum(np.array_equal(m, forged) for m in seen) == 1
    for case, (a, b) in zip(cases, drawn):
        assert case["ok"] == ref.crosscheck_functor(a, b)


def test_entry_past_int8_keys_its_blocks_one_by_one(monkeypatch):
    # one recurring pair's Kronecker matrix gets an entry of 300 in its last
    # block, in the oracle and in the reference alike: that matrix is not
    # narrowed to int8, so its blocks are keyed one by one, and its other
    # blocks still meet their int8 keys, so no block is solved twice; the
    # forged block fails off the unit circle, at the reference's case
    drawn = _drawn(200, 4)
    bad = next(
        pair for pair in drawn
        if drawn.count(pair) > 1 and len(pair[0].parts) * len(pair[1].parts) > 1
    )
    last = ref.block_sets("tensor", *bad)[-1]
    entries = [realize(sig) for sig in bad]

    def forge(build):
        def forged(*args):
            out = build(*args)
            if all(map(np.array_equal, args, entries)):
                out = out.copy()
                out[last[0], last[-1]] = 300
            return out

        return forged

    monkeypatch.setattr(oracle, "kron_matrix", forge(oracle.kron_matrix))
    monkeypatch.setattr(np, "kron", forge(np.kron))
    solved = _count_rows(monkeypatch)

    def per_case():
        for a, b in drawn:
            ref.crosscheck_functor(a, b)

    want = _first_failure(per_case)
    assert _first_failure(lambda: run_oracle_cases(200, seed=4)) == want
    assert len(solved) == len({(side, data) for _, side, data in solved})
    assert any(300 in np.frombuffer(data, dtype=np.int64) for _, _, data in solved)


@pytest.mark.parametrize("order", ["reversed", "shuffled", "sorted"])
def test_problem_order_leaves_the_verdicts_unchanged(order):
    # which problem first meets a block, and a block a grid, follows the
    # order of the draws; at 2e-16 the verdicts split between pass and fail
    # on rounding, and every one of them stays as in draw order
    drawn = _drawn(200, 6)
    expected = _memo_of(drawn, 2e-16)
    assert 0 < sum(v is True for v in expected.values()) < len(expected)
    if order == "reversed":
        moved = drawn[::-1]
    elif order == "shuffled":
        moved = random.Random(6).sample(drawn, len(drawn))
    else:
        moved = sorted(drawn, key=lambda pair: (pair[0].parts, pair[1].parts))
    assert _memo_of(moved, 2e-16) == expected


def test_failed_block_keeps_the_first_failure(monkeypatch):
    # one recurring first signature's Sym^2 matrix is scaled off the unit
    # circle, so the one solve of its block fails, no later solve meets that
    # block again, and the failure lands on the problems holding it
    drawn = _drawn(200, 4)
    firsts = [a for a, _ in drawn]
    bad = next(a for a in firsts if firsts.count(a) > 2 and len(realize(a)) > 1)
    _inject(monkeypatch, "sym2 off circle", bad)
    solve = oracle.numeric_angles
    solves = []

    def recorded(m):
        try:
            rows = solve(m)
        except OracleFailure:
            solves.append((m.ndim, m.tobytes(), False))
            raise
        solves.append((m.ndim, m.tobytes(), True))
        return rows

    monkeypatch.setattr(oracle, "numeric_angles", recorded)
    calls = _count_calls(monkeypatch, ["crosscheck_functor"])

    def per_case():
        for a, b in drawn:
            oracle.crosscheck_functor(a, b)

    plain = _first_failure(per_case)
    plain_calls = calls["crosscheck_functor"]
    assert "off the unit circle" in plain
    calls["crosscheck_functor"] = 0
    solves.clear()
    run = _first_failure(lambda: run_oracle_cases(200, seed=4))
    assert run == plain
    assert calls["crosscheck_functor"] == plain_calls
    failed = [i for i, (_, _, ok) in enumerate(solves) if not ok]
    assert len(failed) == 1
    ndim, data, _ = solves[failed[0]]
    later = [m for _, m, _ in solves[failed[0] + 1 :]]
    assert ndim == 2 and later  # so the run goes on past the failed block
    assert data not in later


# The stacked snap: one match_angles call per stack gives each row the
# verdict it gets alone, and the broadcast Kronecker product is np.kron.


@functools.cache
def _stacks_of_seeds():
    """Every distinct problem of the 200-case runs at seeds 0-4, as one
    stack of angle rows of the whole matrices, one of the rows solved block
    by block, and their exact spectra, per layout (so per matrix size)."""
    drawn = [pair for seed in range(5) for pair in _drawn(200, seed)]
    realized = {sig: oracle._realized(sig) for pair in drawn for sig in pair}
    return [
        (numeric_angles(np.stack([matrix() for _, matrix, _ in problems])),
         np.array([ref.block_angles(matrix(), ref.block_sets(*key))
                   for key, matrix, _ in problems]),
         [_spectrum_of(key) for key, _, _ in problems])
        for problems in oracle._problems(drawn, realized).values()
    ]


def _snapped(rows, spectra):
    """Each row's angles snapped to its exact grid 1/L, as a sorted row of
    numerators, and the angles in that order."""
    big = np.array([element_order(e) for e in spectra], dtype=np.float64)[:, None]
    numerators = np.rint(rows * big) % big
    order = np.argsort(numerators, axis=1, kind="stable")
    return (np.take_along_axis(numerators, order, axis=1),
            np.take_along_axis(rows, order, axis=1))


def test_block_route_matches_whole_matrix_route():
    # the angles of every problem solved block by block and solved whole
    # snap to the same exact numerators and lie within 1e-12 of each other,
    # and each problem's verdict is the same at the loose tolerances
    problems = 0
    for whole, blocks, spectra in _stacks_of_seeds():
        whole_k, whole_x = _snapped(whole, spectra)
        block_k, block_x = _snapped(blocks, spectra)
        assert np.array_equal(whole_k, block_k)
        d = np.abs(whole_x - block_x) % 1.0
        assert np.all(np.minimum(d, 1.0 - d) < 1e-12)
        for tol in (MAX_MATCH_TOLERANCE, DEFAULT_TOLERANCE):
            assert match_angles(blocks, spectra, tol) == match_angles(whole, spectra, tol)
        problems += len(spectra)
    assert problems > 1000


@pytest.mark.parametrize("tol", [MAX_MATCH_TOLERANCE, DEFAULT_TOLERANCE, 3e-16, 1e-16])
def test_stacked_snap_matches_rows_alone(tol):
    verdicts = []
    for rows, _, spectra in _stacks_of_seeds():
        stacked = match_angles(rows, spectra, tol)
        assert stacked == [_match_one(r, e, tol) for r, e in zip(rows, spectra)]
        assert stacked == [ref.match_angles(tuple(r), e, tol) for r, e in zip(rows, spectra)]
        verdicts += stacked
    # the two loose tolerances pass every problem, the two tight ones split
    assert True in verdicts
    assert all(verdicts) == (tol >= DEFAULT_TOLERANCE)


def test_stacked_snap_edge_rows():
    # a matching row, a grid too fine to snap, a length mismatch, a wrong
    # multiplicity and a row off its grid, in one stack of three angles
    fine = parse_spectrum("1/359, 1/358, 1/357")
    spectra = [S("0, 1/3, 2/3"), fine, S("0, 1/2"), S("0, 0, 1/3"), S("0, 1/3, 2/3")]
    rows = np.array([
        [0.0, 1 / 3, 2 / 3],
        [float(q.fraction) for q in fine.entries],
        [0.0, 0.5, 0.5],
        [0.0, 1 / 3, 2 / 3],
        [0.0, 1 / 3 + 1e-5, 2 / 3],
    ])
    got = match_angles(rows, spectra, MAX_MATCH_TOLERANCE)
    assert got == [True, None, False, False, False]
    for row, exact, verdict in zip(rows, spectra, got):
        assert _match_one(row, exact, MAX_MATCH_TOLERANCE) == verdict
    assert match_angles(rows[:0], [], DEFAULT_TOLERANCE) == []
    with pytest.raises(ValueError):
        match_angles(rows, spectra, 0.0)


@pytest.mark.parametrize("max_degree", [8, 12])
def test_cut_matches_the_reference_block_sets(max_degree):
    # every layout of the 200-case runs at seeds 0-4: each block's side is
    # its reference index set's size, in order, and the flat index lists
    # each set's entries row-major, set after set
    drawn = [pair for seed in range(5) for pair in _drawn(200, seed, max_degree)]
    realized = {sig: oracle._realized(sig) for pair in drawn for sig in pair}
    layouts = oracle._problems(drawn, realized)
    for shape, problems in layouts.items():
        index, spans = oracle._cut(*shape)
        sets = ref.block_sets(*problems[0][0])
        n = sum(map(len, sets))
        assert [side for side, _, _ in spans] == list(map(len, sets))
        assert [start for _, start, _ in spans] == [0] + [stop for _, _, stop in spans[:-1]]
        grid = np.arange(n * n).reshape(n, n)
        want = np.concatenate([grid[np.ix_(s, s)].ravel() for s in sets])
        got = np.arange(n * n) if index is None else index
        assert (index is None) == (len(sets) == 1)
        assert np.array_equal(got, want) and spans[-1][2] == len(want)
    # one-part signatures, and tensors whose b side has one part and whose
    # a side has more (a run of labels already in order), are among them
    kinds = {(shape[0], len(shape[1]) == 1) for shape in layouts}
    assert kinds >= {("spectrum", True), ("spectrum", False), ("sym2", True)}
    assert any(s[0] == "tensor" and len(s[1]) > 1 and len(s[2]) == 1 for s in layouts)


def _memo_of(drawn, tol):
    memo = {}
    oracle.solve_stacked(drawn, tol, memo)
    return {key: verdict for key, verdict in memo.items() if key[0] != "realize"}


@pytest.mark.parametrize("fault", ["raises", "too fine"])
def test_exact_side_fault_is_stored_on_its_problem(monkeypatch, fault):
    # one first signature's exact Sym^2 raises in the kernel, or lands on a
    # grid too fine for the tolerance: the ValueError is stored under its
    # problem, every other problem keeps its clean verdict, and the case
    # raises it.  A kernel's sums lie on the signature's own grid, so the
    # too-fine side is forged one step later, where the sums are reduced.
    drawn = _drawn(200, 2)
    clean = _memo_of(drawn, MAX_MATCH_TOLERANCE)
    bad = next(a for a, _ in drawn if len(realize(a)) == 2)
    big = element_order(bad.spectrum())
    side = (big, [q.num * (big // q.den) for q in bad.spectrum().entries])
    name = "sym2_sums" if fault == "raises" else "_sym2_exact"
    original = getattr(oracle, name)

    def faulty(*args):
        if args in (side, side[::-1]):  # the kernel takes (x, big)
            if fault == "raises":
                raise ValueError("forced exact-side failure")
            fine, x = oracle._over_order(parse_spectrum("1/359, 1/358, 1/357"))
            return fine, sorted(x)
        return original(*args)

    monkeypatch.setattr(oracle, name, faulty)
    memo = _memo_of(drawn, MAX_MATCH_TOLERANCE)
    message = "forced exact-side failure" if fault == "raises" else "too fine to snap"
    assert clean[("sym2", bad)] is True
    stored = memo.pop(("sym2", bad))
    assert isinstance(stored, ValueError) and message in str(stored)
    assert memo == {key: v for key, v in clean.items() if key != ("sym2", bad)}
    b = next(b for a, b in drawn if a == bad)
    with pytest.raises(ValueError, match=message):
        crosscheck_functor(bad, b, MAX_MATCH_TOLERANCE)


def _order_and_numerators(spectrum):
    """The order of a spectrum and its sorted numerators over it, from its
    rotation numbers."""
    big = element_order(spectrum)
    return big, sorted(q.num * (big // q.den) for q in spectrum.entries)


@pytest.mark.parametrize("order_divides", [36, 360])
@pytest.mark.parametrize("max_degree", [8, 12])
def test_exact_sides_match_the_reference_functors(max_degree, order_divides):
    # every problem of the 200-case runs at seeds 0-19: its exact side is the
    # order and sorted numerators of its spectrum, summed for Sym^2 and the
    # tensor by the rotation-number sums of the reference
    kinds, orders = set(), set()
    for seed in range(20):
        drawn = _drawn(200, seed, max_degree, order_divides)
        realized = {sig: oracle._realized(sig) for pair in drawn for sig in pair}
        for problems in oracle._problems(drawn, realized).values():
            for key, _, exact in problems:
                kind, a, *b = key
                if kind == "spectrum":
                    want = a.spectrum()
                elif kind == "sym2":
                    want = ref_functors.sym2(a.spectrum())
                else:
                    want = ref_functors.tensor(a.spectrum(), b[0].spectrum())
                side = exact()
                assert side == _order_and_numerators(want), (seed, key)
                kinds.add(kind)
                orders.add(side[0])
    assert kinds == {"spectrum", "sym2", "tensor"}
    assert max(orders) > 36 or order_divides == 36


def _outcome(side):
    try:
        return side()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("a, b, raises", [
    ("1/16, 1/45", "0", [True, False, False]),
    ("0, 0", "1/16, 1/45", [False, False, False]),
    ("1/16, 1/45", "1/16, 15/16", [True, True, True]),
    ("1/16", "1/45", [False, True, True]),
    ("1/80, 3/16, 1/45", "1/9, 1/16", [True, True, True]),
])
def test_exact_side_over_an_order_above_the_cap(a, b, raises):
    # orders whose lcm is 720, for Sym^2 of a and the tensors a.b and b.a:
    # where every sum reduces to a denominator <= 360 the oracle's exact
    # side is the public spectrum's order and numerators, and where one
    # does not, both routes raise the same ValueError, as the
    # rotation-number sums do
    a, b = S(a), S(b)
    a_side, b_side = oracle._over_order(a), oracle._over_order(b)
    assert math.lcm(a_side[0], b_side[0]) == 720
    routes = [
        (lambda: oracle._sym2_exact(*a_side), sym2, ref_functors.sym2, (a,)),
        (lambda: oracle._tensor_exact(*a_side, *b_side), tensor, ref_functors.tensor, (a, b)),
        (lambda: oracle._tensor_exact(*b_side, *a_side), tensor, ref_functors.tensor, (b, a)),
    ]
    for (side, public, reference, spectra), raising in zip(routes, raises, strict=True):
        want = _outcome(lambda: _order_and_numerators(reference(*spectra)))
        assert _outcome(lambda: _order_and_numerators(public(*spectra))) == want
        assert _outcome(side) == want
        assert isinstance(want, str) == raising


SQUARES = st.integers(0, 5).flatmap(
    lambda n: hnp.arrays(np.int64, (n, n), elements=st.integers(-(2**63), 2**63 - 1))
)


@settings(max_examples=100, deadline=None)
@given(SQUARES, SQUARES)
def test_kron_matrix_is_np_kron(a, b):
    got, want = kron_matrix(a, b), np.kron(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# tracemalloc's peak over run_oracle_cases(1000, seed=3) in a fresh process
# with numpy and reidtai.oracle imported: 2,142,262 bytes before the block
# solve (Python 3.11, numpy 2.4).  A run holds one problem matrix at a
# time, the layouts it has met, each distinct block's int8 entries and
# angles, and each block's numerators per grid, so the guard allows 10 %
# over that (the run peaks near 1.4 MB).
PARENT_ORACLE_PEAK = 2_142_262


def test_oracle_run_peak_memory_stays_near_the_whole_matrix_route():
    script = """
import tracemalloc
import numpy
from reidtai.oracle import run_oracle_cases
tracemalloc.start()
run_oracle_cases(1000, seed=3)
print(tracemalloc.get_traced_memory()[1])
"""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 1.10 * PARENT_ORACLE_PEAK
