"""Numeric cross-check of the exact spectrum calculus.

Orbit signatures are realized as block companion matrices of cyclotomic
polynomials; eigenvalue angles extracted numerically must land within
tolerance of the exact rotation numbers, both for the realized matrix and
for the induced symmetric-square and tensor operators built from it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .functors import sym2, tensor
from .rotations import (
    DEFAULT_TOLERANCE, MAX_MATCH_TOLERANCE, MIN_DEGREE,
    OrbitSignature, Spectrum, divisors, element_order, totient,
)


class OracleFailure(RuntimeError):
    """Numeric eigenvalue extraction failed; the check aborts, never passes."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n < 1:
        raise ValueError("polynomial index must be positive")
    if n == 1:
        return (-1, 1)
    poly: list[int] = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n)[:-1]:
        poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _exact_div(dividend: list[int], divisor: tuple[int, ...]) -> list[int]:
    """Long division of integer polynomials; the divisor is monic and must
    divide exactly."""
    out = list(dividend)
    deg_q = len(dividend) - len(divisor)
    quotient = [0] * (deg_q + 1)
    for i in range(deg_q, -1, -1):
        coeff = out[i + len(divisor) - 1]
        quotient[i] = coeff
        for j, c in enumerate(divisor):
            out[i + j] -= coeff * c
    if any(out):
        raise ArithmeticError("non-exact polynomial division")
    return quotient


def companion(coeffs: tuple[int, ...]) -> np.ndarray:
    """Companion matrix of a monic integer polynomial (ascending coeffs)."""
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        raise ValueError("need a monic polynomial of positive degree")
    m = np.zeros((d, d), dtype=np.int64)
    for i in range(1, d):
        m[i, i - 1] = 1
    for i in range(d):
        m[i, d - 1] = -coeffs[i]
    return m


@dataclass(frozen=True, eq=False)
class IntegerMatrix:
    """A square integer matrix certified to have finite order."""

    n: int
    entries: np.ndarray
    order: int


def realize(sig: OrbitSignature) -> IntegerMatrix:
    """Block-diagonal companion realization of a signature.

    The matrix has size total_degree and exact order lcm of the parts;
    the order is verified by exact integer powering.
    """
    size = sig.total_degree
    m = np.zeros((size, size), dtype=np.int64)
    pos = 0
    for n in sig.parts:
        d = totient(n)
        m[pos : pos + d, pos : pos + d] = companion(cyclotomic_polynomial(n))
        pos += d
    order = sig.order
    if size and not np.array_equal(
        np.linalg.matrix_power(m, order), np.eye(size, dtype=np.int64)
    ):
        raise OracleFailure(f"realization of {sig} is not of order {order}")
    return IntegerMatrix(size, m, order)


def numeric_angles(m: IntegerMatrix) -> np.ndarray:
    """Eigenvalue arguments over 2*pi, each folded into [0, 1), as a sorted
    float64 array."""
    if m.n == 0:
        return np.empty(0)
    try:
        eigenvalues = np.linalg.eigvals(m.entries.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise OracleFailure(f"eigenvalue extraction failed: {exc}") from exc
    if np.any(np.abs(np.abs(eigenvalues) - 1.0) > 1e-6):
        raise OracleFailure("eigenvalue off the unit circle; not finite order")
    return np.sort(np.mod(np.angle(eigenvalues) / (2.0 * math.pi), 1.0))


def match_angles(
    angles: Sequence[float] | np.ndarray,
    exact: Spectrum,
    tol: float = DEFAULT_TOLERANCE,
) -> bool:
    """True iff the numeric angles pair off one-to-one with the exact entries,
    each within tol under circular distance.

    Every exact entry lies on the grid k/L, L = element_order(exact).  Each
    angle is snapped to its nearest grid point; the match holds iff every
    snap is within tol and the snapped numerators equal the exact ones as a
    multiset.  Distinct exact values lie more than 2*tol apart (see
    MAX_MATCH_TOLERANCE), so an angle has at most one exact value within
    tol, and the snap finds it while the grid spacing 1/L stays well above
    2*tol.  A grid finer than that (tol*L > 1/4, so L above 250 000; the
    CLI's order bound keeps L <= 360) raises ValueError.
    """
    if not 0.0 < tol <= MAX_MATCH_TOLERANCE:
        raise ValueError(
            f"tolerance must be in (0, {MAX_MATCH_TOLERANCE}], got {tol}"
        )
    if len(angles) != exact.dim:
        return False
    big = element_order(exact)
    if 4 * tol * big > 1:
        raise ValueError(f"grid 1/{big} too fine to snap angles at tolerance {tol}")
    x = np.asarray(angles, dtype=np.float64)
    k = np.rint(x * big) % big
    d = np.abs(x - k / big) % 1.0
    if not np.all(np.minimum(d, 1.0 - d) <= tol):
        return False
    return np.array_equal(
        np.sort(k.astype(np.int64)),
        sorted(q.num * (big // q.den) for q in exact.entries),
    )


def sym2_matrix(m: np.ndarray) -> np.ndarray:
    """Induced matrix on the symmetric square, in the basis e_i.e_j, i <= j.

    The coefficient of e_k.e_l in the image of e_i.e_j is
    m[k,i]*m[l,j], plus m[l,i]*m[k,j] when k < l.
    """
    m = np.asarray(m, dtype=np.int64)
    k, l = np.triu_indices(m.shape[0])
    out = m[k][:, k] * m[l][:, l]
    off = k < l
    out[off] += m[l[off]][:, k] * m[k[off]][:, l]
    return out


def _realized(sig: OrbitSignature) -> tuple[IntegerMatrix, Spectrum]:
    return realize(sig), sig.spectrum()


def check_spectrum(mat: IntegerMatrix, exact: Spectrum, tol: float) -> bool:
    """The realized matrix's own eigenvalues match its exact spectrum."""
    return match_angles(numeric_angles(mat), exact, tol)


def check_sym2(mat: IntegerMatrix, exact: Spectrum, tol: float) -> bool:
    """The induced symmetric square matches the exact sym2 spectrum."""
    sym = sym2_matrix(mat.entries)
    expected_dim = mat.n * (mat.n + 1) // 2
    if sym.shape != (expected_dim, expected_dim):
        raise OracleFailure("symmetric-square dimension mismatch")
    sym_exact = sym2(exact)
    return match_angles(
        numeric_angles(IntegerMatrix(expected_dim, sym, element_order(sym_exact))),
        sym_exact,
        tol,
    )


def check_tensor(
    a_mat: IntegerMatrix,
    a_exact: Spectrum,
    b_mat: IntegerMatrix,
    b_exact: Spectrum,
    tol: float,
) -> bool:
    """The Kronecker product matches the exact tensor spectrum."""
    kron = np.kron(a_mat.entries, b_mat.entries)
    if kron.shape != (a_mat.n * b_mat.n, a_mat.n * b_mat.n):
        raise OracleFailure("tensor-product dimension mismatch")
    tens = tensor(a_exact, b_exact)
    return match_angles(
        numeric_angles(IntegerMatrix(kron.shape[0], kron, element_order(tens))),
        tens,
        tol,
    )


def crosscheck_functor(
    a_sig: OrbitSignature,
    b_sig: OrbitSignature,
    tol: float = DEFAULT_TOLERANCE,
    memo: dict | None = None,
) -> bool:
    """Numeric agreement for one signature pair.

    Realizes a, then b, and checks the realized matrices themselves, the
    induced symmetric square of a and the tensor product of the two, in
    that order, stopping at the first mismatch.  Convergence failures
    propagate as OracleFailure.

    Each step is a pure function of the signatures it names, so a ``memo``
    table shared by several calls runs each realization and check once per
    signature (per ordered pair for the tensor check) and later cases reuse
    its result; the verdict and the first OracleFailure raised are those of
    a call with a fresh table.  A table belongs to one tolerance and only
    stores successful results.
    """
    if memo is None:
        memo = {}

    def once(key: tuple, step: Callable, *args):
        if key not in memo:
            memo[key] = step(*args)
        return memo[key]

    a_mat, a_exact = once(("realize", a_sig), _realized, a_sig)
    b_mat, b_exact = once(("realize", b_sig), _realized, b_sig)
    return (
        once(("spectrum", a_sig), check_spectrum, a_mat, a_exact, tol)
        and once(("spectrum", b_sig), check_spectrum, b_mat, b_exact, tol)
        and once(("sym2", a_sig), check_sym2, a_mat, a_exact, tol)
        and once(
            ("tensor", a_sig, b_sig),
            check_tensor, a_mat, a_exact, b_mat, b_exact, tol,
        )
    )


def random_signature(
    rng: random.Random,
    max_degree: int,
    order_divides: int,
    min_degree: int = MIN_DEGREE,
) -> OrbitSignature:
    """A random signature with total degree in [min_degree, max_degree]."""
    if max_degree < min_degree:
        raise ValueError("max_degree below min_degree")
    parts: list[int] = []
    degree = 0
    while True:
        fits = [d for d in divisors(order_divides) if degree + totient(d) <= max_degree]
        if not fits:
            break
        if degree >= min_degree and rng.random() < 0.35:
            break
        pick = rng.choice(fits)
        parts.append(pick)
        degree += totient(pick)
    return OrbitSignature.of(parts)


def run_oracle_cases(
    samples: int,
    seed: int = 0,
    max_degree: int = 8,
    order_divides: int = 36,
    tol: float = DEFAULT_TOLERANCE,
) -> list[dict]:
    """Seeded batch of functor cross-checks; one result dict per case.

    The run shares one memo table among its cases, so each distinct
    signature and ordered pair is checked once while every case still
    reports its own verdict.
    """
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    rng = random.Random(seed)
    cases = []
    memo: dict = {}
    for i in range(samples):
        a_sig = random_signature(rng, max_degree, order_divides)
        b_sig = random_signature(rng, max_degree, order_divides)
        ok = crosscheck_functor(a_sig, b_sig, tol, memo)
        cases.append(
            {
                "index": i,
                "a_signature": list(a_sig.parts),
                "b_signature": list(b_sig.parts),
                "ok": ok,
            }
        )
    return cases
