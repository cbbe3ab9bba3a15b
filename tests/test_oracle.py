"""Numeric eigenvalue cross-checks of the exact calculus."""

import functools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
        (4, DEFAULT_TOLERANCE),
        (4, 3e-16),
    ],
)
def test_oracle_cases_match_reference_crosscheck(seed, tol):
    # the two tight tolerances sit at the floating-point noise of the
    # eigenvalues, so the cases split between pass and fail
    cases = run_oracle_cases(200, seed=seed, tol=tol)
    rng = random.Random(seed)
    for case in cases:
        a_sig = random_signature(rng, 8, 36)
        b_sig = random_signature(rng, 8, 36)
        assert case["a_signature"] == list(a_sig.parts)
        assert case["b_signature"] == list(b_sig.parts)
        assert case["ok"] == ref.crosscheck_functor(a_sig, b_sig, tol)


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


def _drawn(samples, seed):
    rng = random.Random(seed)
    return [
        (random_signature(rng, 8, 36), random_signature(rng, 8, 36))
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


def _count_rows(monkeypatch):
    """Count the matrices numeric_angles solves, one per row of a stack."""
    solved = {"rows": 0}
    original = oracle.numeric_angles

    def counted(m):
        solved["rows"] += len(m) if m.ndim == 3 else 1
        return original(m)

    monkeypatch.setattr(oracle, "numeric_angles", counted)
    return solved


@pytest.mark.parametrize("seed", [3, 8])
def test_memo_checks_each_signature_and_pair_once(monkeypatch, seed):
    counts = _count_calls(
        monkeypatch, ["crosscheck_functor", "realize", "sym2_matrix", "sym2", "tensor"]
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
    assert counts["sym2_matrix"] == counts["sym2"] == len(firsts)
    assert counts["tensor"] == len(pairs)
    assert solved["rows"] == len(signatures) + len(firsts) + len(pairs)


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


# The stacked solve: same-size problems share one eigvals call of at most
# STACK_ENTRIES matrix entries, with rows equal to the single-matrix solves.


def test_stacked_rows_equal_single_matrix_solves(monkeypatch):
    original = oracle.numeric_angles
    stacked = {"calls": 0, "rows": 0}

    def compared(m):
        rows = original(m)
        if m.ndim == 3:
            stacked["calls"] += 1
            stacked["rows"] += len(m)
            eigenvalues = np.linalg.eigvals(m.astype(np.float64))
            for i, single in enumerate(m):
                assert np.array_equal(
                    np.linalg.eigvals(single.astype(np.float64)), eigenvalues[i]
                )
                assert np.array_equal(original(single), rows[i])
        return rows

    monkeypatch.setattr(oracle, "numeric_angles", compared)
    problems = 0
    for seed in range(5):
        drawn = _drawn(200, seed)
        problems += (len({sig for pair in drawn for sig in pair})
                     + len({a for a, _ in drawn}) + len(set(drawn)))
        run_oracle_cases(200, seed=seed)
    assert stacked["rows"] == problems
    assert stacked["calls"] < problems // 10


def test_no_stack_exceeds_the_entry_cap(monkeypatch):
    original = np.linalg.eigvals
    sizes = []

    def counted(a):
        sizes.append(a.size)
        return original(a)

    monkeypatch.setattr(oracle.np.linalg, "eigvals", counted)
    run_oracle_cases(300, seed=3, max_degree=12)
    assert max(sizes) <= oracle.STACK_ENTRIES
    assert sum(sizes) > 4 * oracle.STACK_ENTRIES  # so the cap splits stacks


@pytest.mark.parametrize("cap", [1, 50, 400])
def test_stack_cap_leaves_the_cases_unchanged(monkeypatch, cap):
    # matrices larger than a small cap are solved one per stack
    expected = run_oracle_cases(200, seed=6, tol=3e-16)
    monkeypatch.setattr(oracle, "STACK_ENTRIES", cap)
    assert run_oracle_cases(200, seed=6, tol=3e-16) == expected


def test_failed_stack_keeps_the_first_failure(monkeypatch):
    # one recurring first signature's Sym^2 matrix is scaled off the unit
    # circle, so the one stack holding it fails and its matrices are solved
    # again one at a time, where the failure lands on that problem alone
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
            solves.append((m.shape, False))
            raise
        solves.append((m.shape, True))
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
    stacked = _first_failure(lambda: run_oracle_cases(200, seed=4))
    assert stacked == plain
    assert calls["crosscheck_functor"] == plain_calls
    failed = [i for i, (shape, ok) in enumerate(solves) if len(shape) == 3 and not ok]
    assert len(failed) == 1
    (rows, *size), _ = solves[failed[0]]
    alone = solves[failed[0] + 1 : failed[0] + 1 + rows]
    assert rows > 1
    assert [shape for shape, _ in alone] == [tuple(size)] * rows
    assert [ok for _, ok in alone].count(False) == 1


# The stacked snap: one match_angles call per stack gives each row the
# verdict it gets alone, and the broadcast Kronecker product is np.kron.


@functools.cache
def _stacks_of_seeds():
    """Every distinct problem of the 200-case runs at seeds 0-4, as one
    stack of angle rows and its exact spectra per matrix size."""
    drawn = [pair for seed in range(5) for pair in _drawn(200, seed)]
    realized = {sig: oracle._realized(sig) for pair in drawn for sig in pair}
    return [
        (numeric_angles(np.stack([matrix() for _, matrix, _ in problems])),
         [exact() for _, _, exact in problems])
        for problems in oracle._problems(drawn, realized).values()
    ]


@pytest.mark.parametrize("tol", [MAX_MATCH_TOLERANCE, DEFAULT_TOLERANCE, 3e-16, 1e-16])
def test_stacked_snap_matches_rows_alone(tol):
    verdicts = []
    for rows, spectra in _stacks_of_seeds():
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


def _memo_of(drawn, tol):
    memo = {}
    oracle.solve_stacked(drawn, tol, memo)
    return {key: verdict for key, verdict in memo.items() if key[0] != "realize"}


@pytest.mark.parametrize("fault", ["raises", "too fine"])
def test_exact_side_fault_is_stored_on_its_problem(monkeypatch, fault):
    # one first signature's exact Sym^2 raises, or lands on a grid too fine
    # for the tolerance: the ValueError is stored under its problem, every
    # other problem keeps its clean verdict, and the case raises it
    drawn = _drawn(200, 2)
    clean = _memo_of(drawn, MAX_MATCH_TOLERANCE)
    bad = next(a for a, _ in drawn if len(realize(a)) == 2)
    original = oracle.sym2

    def faulty(exact):
        if exact == bad.spectrum():
            if fault == "raises":
                raise ValueError("forced exact-side failure")
            return parse_spectrum("1/359, 1/358, 1/357")
        return original(exact)

    monkeypatch.setattr(oracle, "sym2", faulty)
    memo = _memo_of(drawn, MAX_MATCH_TOLERANCE)
    message = "forced exact-side failure" if fault == "raises" else "too fine to snap"
    assert clean[("sym2", bad)] is True
    stored = memo.pop(("sym2", bad))
    assert isinstance(stored, ValueError) and message in str(stored)
    assert memo == {key: v for key, v in clean.items() if key != ("sym2", bad)}
    b = next(b for a, b in drawn if a == bad)
    with pytest.raises(ValueError, match=message):
        crosscheck_functor(bad, b, MAX_MATCH_TOLERANCE)


SQUARES = st.integers(0, 5).flatmap(
    lambda n: hnp.arrays(np.int64, (n, n), elements=st.integers(-(2**63), 2**63 - 1))
)


@settings(max_examples=100, deadline=None)
@given(SQUARES, SQUARES)
def test_kron_matrix_is_np_kron(a, b):
    got, want = kron_matrix(a, b), np.kron(a, b)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
