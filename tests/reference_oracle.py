"""The loop forms of the numeric oracle, kept as references for the
vectorized ones.

``match_angles`` assigns angles greedily, each to its nearest remaining
exact entry, ``sym2_matrix`` builds the induced matrix coefficient by
coefficient, and ``random_signature`` filters its orbit orders afresh at
every step.  ``block_sets`` lists the diagonal blocks a realization, its
Sym^2 matrix and a Kronecker matrix split into, and ``block_angles`` solves
a matrix block by block after checking with loops that nothing lies
outside its blocks.  All are slow but a direct reading of their
definitions; ``reidtai.oracle`` must agree with them result for result.
"""

from __future__ import annotations

import random

import numpy as np

from reidtai.functors import sym2, tensor
from reidtai.oracle import (
    DEFAULT_TOLERANCE,
    MAX_MATCH_TOLERANCE,
    OracleFailure,
    numeric_angles,
    realize,
)
from reidtai.rotations import MIN_DEGREE, OrbitSignature, Spectrum, divisors, totient


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


def random_signature(
    rng: random.Random,
    max_degree: int,
    order_divides: int,
) -> OrbitSignature:
    """A random signature with total degree in [MIN_DEGREE, max_degree],
    drawn from the list of orbit orders that still fit, filtered at each
    step."""
    if max_degree < MIN_DEGREE:
        raise ValueError("max_degree below MIN_DEGREE")
    parts: list[int] = []
    degree = 0
    options = [(d, totient(d)) for d in divisors(order_divides)]
    while True:
        # degree only grows, so the orders that still fit only shrink
        options = [(d, phi) for d, phi in options if degree + phi <= max_degree]
        if not options:
            break
        if degree >= MIN_DEGREE and rng.random() < 0.35:
            break
        pick, phi = rng.choice(options)
        parts.append(pick)
        degree += phi
    return OrbitSignature.of(parts)


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


def _part_of(sig: OrbitSignature) -> list[int]:
    """The part (its position in sig.parts) of each basis vector of the
    realization."""
    out = []
    for p, n in enumerate(sig.parts):
        out += [p] * totient(n)
    return out


def block_sets(kind: str, a_sig: OrbitSignature, b_sig: OrbitSignature | None = None):
    """The index sets of the diagonal blocks of a problem's matrix: one per
    part of a realization ("spectrum"); one per pair of parts p <= q of the
    Sym^2 matrix, holding the basis pairs e_i.e_j with i in p and j in q
    ("sym2"); one per part p of a and q of b of the Kronecker matrix,
    holding the indices i*m + k with i in p and k in q ("tensor")."""
    part = _part_of(a_sig)
    n = len(part)
    sets = []
    if kind == "spectrum":
        for p in range(len(a_sig.parts)):
            sets.append([i for i in range(n) if part[i] == p])
    elif kind == "sym2":
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for p in range(len(a_sig.parts)):
            for q in range(p, len(a_sig.parts)):
                sets.append([
                    x for x, (i, j) in enumerate(pairs) if part[i] == p and part[j] == q
                ])
    else:
        b_part = _part_of(b_sig)
        m = len(b_part)
        for p in range(len(a_sig.parts)):
            for q in range(len(b_sig.parts)):
                sets.append([
                    i * m + k for i in range(n) for k in range(m)
                    if part[i] == p and b_part[k] == q
                ])
    return [s for s in sets if s]


def block_angles(mat: np.ndarray, sets) -> np.ndarray:
    """The sorted angles of ``mat`` solved block by block over the index
    sets, or solved whole when an entry outside the blocks is nonzero."""
    block = {}
    for b, s in enumerate(sets):
        for i in s:
            block[i] = b
    for r, row in enumerate(mat.tolist()):
        for c, entry in enumerate(row):
            if block[r] != block[c] and entry != 0:
                return numeric_angles(mat)
    angles = [numeric_angles(mat[np.ix_(s, s)]) for s in sets]
    return np.sort(np.concatenate([np.empty(0)] + angles))


def crosscheck_functor(
    a_sig: OrbitSignature,
    b_sig: OrbitSignature,
    tol: float = DEFAULT_TOLERANCE,
    blocks: bool = False,
) -> bool:
    """The cross-check of one signature pair, built on the loop forms above.

    Each matrix is solved whole, or, with ``blocks``, block by block as
    :func:`block_angles` solves it."""

    def angles(mat, kind, a, b=None):
        return block_angles(mat, block_sets(kind, a, b)) if blocks else numeric_angles(mat)

    a_mat = realize(a_sig)
    b_mat = realize(b_sig)
    a_exact = a_sig.spectrum()
    b_exact = b_sig.spectrum()

    if not match_angles(angles(a_mat, "spectrum", a_sig), a_exact, tol):
        return False
    if not match_angles(angles(b_mat, "spectrum", b_sig), b_exact, tol):
        return False

    sym = sym2_matrix(a_mat)
    expected_dim = len(a_mat) * (len(a_mat) + 1) // 2
    if sym.shape != (expected_dim, expected_dim):
        raise OracleFailure("symmetric-square dimension mismatch")
    if not match_angles(angles(sym, "sym2", a_sig), sym2(a_exact), tol):
        return False

    kron = np.kron(a_mat, b_mat)
    if kron.shape != (len(a_mat) * len(b_mat),) * 2:
        raise OracleFailure("tensor-product dimension mismatch")
    if not match_angles(angles(kron, "tensor", a_sig, b_sig), tensor(a_exact, b_exact), tol):
        return False
    return True
