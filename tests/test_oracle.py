"""Numeric eigenvalue cross-checks of the exact calculus."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_oracle as ref
from reidtai import oracle
from reidtai.functors import sym2, tensor
from reidtai.oracle import (
    DEFAULT_TOLERANCE,
    MAX_MATCH_TOLERANCE,
    IntegerMatrix,
    OracleFailure,
    companion,
    crosscheck_functor,
    cyclotomic_polynomial,
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
    assert m.entries.tolist() == [[-1]]
    m = realize(OrbitSignature.of([1, 1]))
    assert m.entries.tolist() == [[1, 0], [0, 1]]
    m = realize(OrbitSignature.of([3]))
    assert np.array_equal(
        np.linalg.matrix_power(m.entries, 3), np.eye(2, dtype=np.int64)
    )
    assert not np.array_equal(m.entries, np.eye(2, dtype=np.int64))
    assert realize(OrbitSignature()).n == 0


@pytest.mark.parametrize("n", [3, 4, 12])
def test_numeric_angles_single_orbits(n):
    angles = numeric_angles(realize(OrbitSignature.of([n])))
    assert match_angles(angles, S(", ".join(f"{k}/{n}" for k in range(1, n + 1)
                                            if np.gcd(k, n) == 1)))


def test_match_angles_guards():
    with pytest.raises(ValueError):
        match_angles((0.0,), S("0"), tol=1e-3)
    with pytest.raises(ValueError):
        match_angles((0.0,), S("0"), tol=0.0)
    assert not match_angles((0.0, 0.5), S("0"))
    # circular wrap: an angle just below 1 still matches the entry 0
    assert match_angles((1.0 - 1e-12,), S("0"))


def test_companion_rejects_non_monic():
    with pytest.raises(ValueError):
        companion((2, 2))
    with pytest.raises(ValueError):
        companion((1,))


def test_sym2_matrix_small():
    # rotation by a quarter turn: the induced symmetric square fixes one
    # line and flips a plane
    m = realize(OrbitSignature.of([4])).entries
    induced = sym2_matrix(m)
    assert induced.shape == (3, 3)
    angles = numeric_angles(IntegerMatrix(3, induced, 2))
    assert match_angles(angles, S("1/2, 0, 1/2"))


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
        assert m.n == sig.total_degree
        assert sym2_matrix(m.entries).shape[0] == m.n * (m.n + 1) // 2
        assert sym2(sig.spectrum()).dim == m.n * (m.n + 1) // 2
        assert np.kron(m.entries, other.entries).shape[0] == m.n * other.n
        assert tensor(sig.spectrum(), other_sig.spectrum()).dim == m.n * other.n


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
    stretched = IntegerMatrix(1, np.array([[2]], dtype=np.int64), 1)
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
        m = realize(sig).entries
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
    assert match_angles(angles, exact, tol) == ref.match_angles(angles, exact, tol)


def test_match_angles_refuses_grid_finer_than_tolerance():
    # pairwise coprime orders: the grid 1/L has L = 359*358*357 ~ 4.6e7
    exact = parse_spectrum("1/359, 1/358, 1/357")
    angles = tuple(float(q.fraction) for q in exact.entries)
    assert element_order(exact) == 359 * 358 * 357
    with pytest.raises(ValueError):
        match_angles(angles, exact, MAX_MATCH_TOLERANCE)
    # at a tolerance the grid still resolves, the snap agrees with greedy
    assert match_angles(angles, exact) == ref.match_angles(angles, exact) is True


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
    assert angles.shape == (m.n,)
    assert np.all(np.diff(angles) >= 0)
    assert np.all((0.0 <= angles) & (angles <= 1.0))
    empty = numeric_angles(realize(OrbitSignature()))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


# The memo table of run_oracle_cases: each distinct signature and ordered
# pair is checked once per run, and every case keeps the verdict, and the
# first OracleFailure, of a call with a fresh table.


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


@pytest.mark.parametrize("seed", [3, 8])
def test_memo_checks_each_signature_and_pair_once(monkeypatch, seed):
    counts = _count_calls(
        monkeypatch,
        ["crosscheck_functor", "realize", "sym2_matrix", "numeric_angles",
         "sym2", "tensor"],
    )
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
    assert counts["numeric_angles"] == len(signatures) + len(firsts) + len(pairs)


def _log_steps(monkeypatch):
    """Record each realize (by signature), sym2_matrix and numeric_angles
    call (by matrix size), in call order."""
    log = []
    describe = {
        "realize": lambda sig: sig,
        "sym2_matrix": lambda m: len(m),
        "numeric_angles": lambda m: m.n,
    }
    for name, key in describe.items():
        original = getattr(oracle, name)

        def logged(arg, _name=name, _key=key, _original=original):
            log.append((_name, _key(arg)))
            return _original(arg)

        monkeypatch.setattr(oracle, name, logged)
    return log


def test_crosscheck_order_and_short_circuit(monkeypatch):
    a, b = OrbitSignature.of([3]), OrbitSignature.of([4, 1])
    log = _log_steps(monkeypatch)
    assert crosscheck_functor(a, b)
    assert log == [
        ("realize", a), ("realize", b),
        ("numeric_angles", 2), ("numeric_angles", 3),
        ("sym2_matrix", 2), ("numeric_angles", 3), ("numeric_angles", 6),
    ]
    # a mismatch on the second signature's own spectrum stops the case
    # before Sym^2 and tensor
    log.clear()
    verdicts = iter([True, False])
    monkeypatch.setattr(oracle, "match_angles", lambda *args: next(verdicts))
    c, d = OrbitSignature.of([6]), OrbitSignature.of([12])
    assert not crosscheck_functor(c, d)
    assert log == [
        ("realize", c), ("realize", d), ("numeric_angles", 2), ("numeric_angles", 4),
    ]


def _first_failure(run):
    try:
        run()
    except OracleFailure as exc:
        return str(exc)
    raise AssertionError("no OracleFailure raised")


@pytest.mark.parametrize("step", ["realize", "sym2_matrix", "kron"])
def test_memo_keeps_the_first_failure(monkeypatch, step):
    # a fault tied to one signature that recurs in the draws, first met as
    # the b side of a case, and later as the a side
    drawn = _drawn(200, 4)
    seen = [sig for a, b in drawn for sig in (a, b)]
    bad = next(
        sig for sig in seen
        if seen.count(sig) > 2 and seen.index(sig) % 2 == 1
    )
    bad_entries = realize(bad).entries
    calls = _count_calls(monkeypatch, ["crosscheck_functor"])

    if step == "realize":
        original = oracle.realize

        def faulty(sig):
            if sig == bad:
                raise OracleFailure(f"forced failure realizing {sig}")
            return original(sig)

        monkeypatch.setattr(oracle, "realize", faulty)
    elif step == "sym2_matrix":
        original = oracle.sym2_matrix

        def faulty(m):
            out = original(m)
            return out[:-1] if np.array_equal(m, bad_entries) else out

        monkeypatch.setattr(oracle, "sym2_matrix", faulty)
    else:
        original = np.kron

        def faulty(x, y):
            out = original(x, y)
            return out[:-1] if np.array_equal(y, bad_entries) else out

        monkeypatch.setattr(oracle.np, "kron", faulty)

    def per_case():
        for a, b in drawn:
            oracle.crosscheck_functor(a, b)

    plain = _first_failure(per_case)
    plain_calls = calls["crosscheck_functor"]
    calls["crosscheck_functor"] = 0
    memoized = _first_failure(lambda: run_oracle_cases(200, seed=4))
    assert memoized == plain
    assert calls["crosscheck_functor"] == plain_calls
