"""The loop forms of the numeric oracle, kept as references for the
vectorized ones.

``match_angles`` assigns angles greedily, each to its nearest remaining
exact entry, and ``sym2_matrix`` builds the induced matrix coefficient by
coefficient.  Both are slow but a direct reading of their definitions;
``reidtai.oracle`` must agree with them result for result.
"""

from __future__ import annotations

import math

import numpy as np

from reidtai.functors import sym2, tensor
from reidtai.oracle import (
    DEFAULT_TOLERANCE,
    MAX_MATCH_TOLERANCE,
    IntegerMatrix,
    OracleFailure,
    numeric_angles,
    realize,
)
from reidtai.rotations import OrbitSignature, Spectrum


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
    """The cross-check of one signature pair, built on the loop forms above."""
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
