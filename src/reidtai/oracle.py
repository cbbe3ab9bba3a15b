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

import numpy as np

from .functors import sym2, tensor
from .rotations import OrbitSignature, Spectrum, divisors, totient

# The closest two distinct rationals with denominator <= 360 can get is
# 1/(359*360) ~ 7.7e-6, so any matching tolerance at or below 1e-6 assigns
# angles unambiguously.
MAX_MATCH_TOLERANCE = 1e-6
DEFAULT_TOLERANCE = 1e-9
# Smallest total degree of a sampled signature; --max-degree may not go below.
MIN_DEGREE = 1


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


def numeric_angles(m: IntegerMatrix) -> tuple[float, ...]:
    """Eigenvalue arguments over 2*pi, each folded into [0, 1), sorted."""
    if m.n == 0:
        return ()
    try:
        eigenvalues = np.linalg.eigvals(m.entries.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise OracleFailure(f"eigenvalue extraction failed: {exc}") from exc
    if np.any(np.abs(np.abs(eigenvalues) - 1.0) > 1e-6):
        raise OracleFailure("eigenvalue off the unit circle; not finite order")
    angles = np.mod(np.angle(eigenvalues) / (2.0 * math.pi), 1.0)
    return tuple(sorted(float(x) for x in angles))


def _circular_distance(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def match_angles(
    angles: tuple[float, ...], exact: Spectrum, tol: float = DEFAULT_TOLERANCE
) -> bool:
    """Greedy unique assignment of numeric angles to exact entries under
    circular distance; True iff every angle finds its own entry within tol."""
    if not 0.0 < tol <= MAX_MATCH_TOLERANCE:
        raise ValueError(
            f"tolerance must be in (0, {MAX_MATCH_TOLERANCE}], got {tol}"
        )
    if len(angles) != exact.dim:
        return False
    remaining = [float(q.fraction) for q in exact.entries]
    for x in angles:
        best = min(range(len(remaining)), key=lambda i: _circular_distance(x, remaining[i]))
        if _circular_distance(x, remaining[best]) > tol:
            return False
        remaining.pop(best)
    return True


def sym2_matrix(m: np.ndarray) -> np.ndarray:
    """Induced matrix on the symmetric square, in the basis e_i.e_j, i <= j."""
    n = m.shape[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pairs)}
    out = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
    for (i, j), col in index.items():
        for k in range(n):
            for l in range(k, n):
                if k == l:
                    coeff = m[k, i] * m[k, j]
                else:
                    coeff = m[k, i] * m[l, j] + m[l, i] * m[k, j]
                out[index[(k, l)], col] += coeff
    return out


def crosscheck_functor(
    a_sig: OrbitSignature,
    b_sig: OrbitSignature,
    tol: float = DEFAULT_TOLERANCE,
) -> bool:
    """Numeric agreement for one signature pair.

    Checks the realized matrices themselves, the induced symmetric square
    of the first and the tensor product of the two, after structural
    dimension checks.  Convergence failures propagate as OracleFailure.
    """
    a_mat = realize(a_sig)
    b_mat = realize(b_sig)
    a_exact = a_sig.spectrum()
    b_exact = b_sig.spectrum()

    if not match_angles(numeric_angles(a_mat), a_exact, tol):
        return False
    if not match_angles(numeric_angles(b_mat), b_exact, tol):
        return False

    sym = sym2_matrix(a_mat.entries)
    expected_dim = a_mat.n * (a_mat.n + 1) // 2
    if sym.shape != (expected_dim, expected_dim):
        raise OracleFailure("symmetric-square dimension mismatch")
    sym_order = math.lcm(1, *(q.den for q in sym2(a_exact).entries))
    if not match_angles(
        numeric_angles(IntegerMatrix(expected_dim, sym, sym_order)),
        sym2(a_exact),
        tol,
    ):
        return False

    kron = np.kron(a_mat.entries, b_mat.entries)
    if kron.shape != (a_mat.n * b_mat.n, a_mat.n * b_mat.n):
        raise OracleFailure("tensor-product dimension mismatch")
    tens = tensor(a_exact, b_exact)
    tens_order = math.lcm(1, *(q.den for q in tens.entries))
    if not match_angles(
        numeric_angles(IntegerMatrix(kron.shape[0], kron, tens_order)), tens, tol
    ):
        return False
    return True


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
    """Seeded batch of functor cross-checks; one result dict per case."""
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    rng = random.Random(seed)
    cases = []
    for i in range(samples):
        a_sig = random_signature(rng, max_degree, order_divides)
        b_sig = random_signature(rng, max_degree, order_divides)
        ok = crosscheck_functor(a_sig, b_sig, tol)
        cases.append(
            {
                "index": i,
                "a_signature": list(a_sig.parts),
                "b_signature": list(b_sig.parts),
                "ok": ok,
            }
        )
    return cases
