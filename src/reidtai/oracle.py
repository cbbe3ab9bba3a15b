"""Numeric cross-check of the exact spectrum calculus.

Orbit signatures are realized as block companion matrices of cyclotomic
polynomials; eigenvalue angles extracted numerically must land within
tolerance of the exact rotation numbers, both for the realized matrix and
for the induced symmetric-square and tensor operators built from it.

A run solves each distinct eigenvalue problem once, in stacks of
same-size matrices, snaps each stack's angles to their exact grids in one
pass and stores each problem's verdict, or the first failure of its steps,
in one table; each case then reads its steps from that table.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from collections.abc import Callable, Sequence
from functools import lru_cache, partial

import numpy as np

from .functors import sym2, tensor
from .rotations import (
    DEFAULT_TOLERANCE, MAX_MATCH_TOLERANCE, MIN_DEGREE,
    OrbitSignature, Spectrum, divisors, element_order, totient,
)


# Most matrix entries one stacked eigenvalue solve receives; a run builds
# each stack only when it solves it, so this bounds the memory of a solve.
STACK_ENTRIES = 1 << 15


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


def realize(sig: OrbitSignature) -> np.ndarray:
    """Block-diagonal companion realization of a signature, as an int64
    array.

    The matrix has size total_degree; its exact order, the lcm of the
    parts, is verified by exact integer powering.
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
    return m


def numeric_angles(m: np.ndarray) -> np.ndarray:
    """Eigenvalue arguments over 2*pi, each folded into [0, 1), as a sorted
    float64 array.

    ``m`` is one integer matrix, or an integer array of k same-size square
    matrices whose angles come back as k sorted rows; one failed extraction
    or one eigenvalue off the unit circle fails the whole stack.
    """
    if m.shape[-1] == 0:
        return np.empty(m.shape[:-1])
    try:
        eigenvalues = np.linalg.eigvals(m.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise OracleFailure(f"eigenvalue extraction failed: {exc}") from exc
    if np.any(np.abs(np.abs(eigenvalues) - 1.0) > 1e-6):
        raise OracleFailure("eigenvalue off the unit circle; not finite order")
    return np.sort(np.mod(np.angle(eigenvalues) / (2.0 * math.pi), 1.0), axis=-1)


def match_angles(
    angles: np.ndarray,
    exact: Sequence[Spectrum],
    tol: float = DEFAULT_TOLERANCE,
) -> list[bool | None]:
    """For each of k rows of numeric angles, as :func:`numeric_angles`
    returns them for a stack of k matrices, and its exact spectrum: True iff
    the row's angles pair off one-to-one with the spectrum's entries, each
    within tol under circular distance.

    Every exact entry lies on the grid k/L, L = element_order(exact).  Each
    angle is snapped to its nearest grid point; the match holds iff every
    snap is within tol and the snapped numerators equal the exact ones as a
    multiset.  Distinct exact values lie more than 2*tol apart (see
    MAX_MATCH_TOLERANCE), so an angle has at most one exact value within
    tol, and the snap finds it while the grid spacing 1/L stays well above
    2*tol.  A row whose grid is finer than that (tol*L > 1/4, so L above
    250 000; the CLI's order bound keeps L <= 360) gets None.  The stack is
    snapped in one pass, each row against its own L, and each verdict
    depends on its own row and spectrum only.  A tolerance out of range
    raises ValueError.
    """
    if not 0.0 < tol <= MAX_MATCH_TOLERANCE:
        raise ValueError(
            f"tolerance must be in (0, {MAX_MATCH_TOLERANCE}], got {tol}"
        )
    x = np.asarray(angles, dtype=np.float64)
    verdicts: list[bool | None] = [None] * len(exact)
    snapped, orders, numerators = [], [], []
    for i, spectrum in enumerate(exact):
        if spectrum.dim != x.shape[1]:
            verdicts[i] = False
            continue
        big = element_order(spectrum)
        if 4 * tol * big > 1:
            continue
        snapped.append(i)
        orders.append(big)
        numerators.append(sorted(q.num * (big // q.den) for q in spectrum.entries))
    if not snapped:
        return verdicts
    x = x[snapped]
    big = np.array(orders, dtype=np.float64)[:, None]
    k = np.rint(x * big) % big
    d = np.abs(x - k / big) % 1.0
    close = np.all(np.minimum(d, 1.0 - d) <= tol, axis=1)
    same = np.zeros_like(close)
    # orders past int64 make the exact numerators an object array
    same[close] = np.all(
        np.sort(k[close].astype(np.int64), axis=1) == np.array(numerators)[close],
        axis=1,
    )
    for i, ok in zip(snapped, same):
        verdicts[i] = bool(ok)
    return verdicts


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


def kron_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices: entry (i*m + k, j*m + l)
    is a[i,j]*b[k,l], for b of size m."""
    n, m = len(a), len(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


def _realized(sig: OrbitSignature) -> tuple[np.ndarray, Spectrum]:
    return realize(sig), sig.spectrum()


def _sym2_entries(mat: np.ndarray) -> np.ndarray:
    sym = sym2_matrix(mat)
    expected_dim = len(mat) * (len(mat) + 1) // 2
    if sym.shape != (expected_dim, expected_dim):
        raise OracleFailure("symmetric-square dimension mismatch")
    return sym


def _kron_entries(a_mat: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    kron = kron_matrix(a_mat, b_mat)
    if kron.shape != (len(a_mat) * len(b_mat),) * 2:
        raise OracleFailure("tensor-product dimension mismatch")
    return kron


def crosscheck_functor(
    a_sig: OrbitSignature,
    b_sig: OrbitSignature,
    tol: float = DEFAULT_TOLERANCE,
    memo: dict | None = None,
) -> bool:
    """Numeric agreement for one signature pair.

    Reads the steps of the pair from the ``memo`` table that
    :func:`solve_stacked` fills, in order: the realization of a, then of b,
    the realized matrices' own spectra, the induced symmetric square of a
    and the tensor product of the two.  It returns False at the first
    mismatch and raises the first stored failure (an OracleFailure, or a
    ValueError from the exact side or the tolerance), so a failure stored
    after a mismatch never surfaces.  A step missing from the table is
    first solved by ``solve_stacked([(a_sig, b_sig)], tol, memo)``; without
    a table the call is that one-pair solve.  A table belongs to one
    tolerance.
    """
    if memo is None:
        memo = {}
    for key in (
        ("realize", a_sig), ("realize", b_sig), ("spectrum", a_sig),
        ("spectrum", b_sig), ("sym2", a_sig), ("tensor", a_sig, b_sig),
    ):
        if key not in memo:
            solve_stacked([(a_sig, b_sig)], tol, memo)
        if isinstance(memo[key], Exception):
            raise memo[key]
        if memo[key] is False:
            return False
    return True


@lru_cache(maxsize=None)
def _orbit_degrees(order_divides: int) -> tuple[tuple[int, int], ...]:
    """(d, phi(d)) for every orbit order d dividing the bound."""
    return tuple((d, totient(d)) for d in divisors(order_divides))


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
    options = _orbit_degrees(order_divides)
    while True:
        # degree only grows, so the orders that still fit only shrink
        options = [(d, phi) for d, phi in options if degree + phi <= max_degree]
        if not options:
            break
        if degree >= min_degree and rng.random() < 0.35:
            break
        pick, phi = rng.choice(options)
        parts.append(pick)
        degree += phi
    return OrbitSignature.of(parts)


def _problems(
    drawn: Sequence[tuple[OrbitSignature, OrbitSignature]],
    realized: dict[OrbitSignature, tuple[np.ndarray, Spectrum]],
) -> dict[int, list[tuple[tuple, Callable, Callable]]]:
    """Each distinct eigenvalue problem of the drawn pairs whose signatures
    are realized, once, as (memo key, a function making its matrix, one
    making its exact spectrum), grouped by matrix size."""
    by_size: dict[int, list] = defaultdict(list)
    for sig, (mat, exact) in realized.items():
        by_size[len(mat)].append((("spectrum", sig), lambda m=mat: m, lambda e=exact: e))
    for a in dict.fromkeys(a for a, _ in drawn):
        if a in realized:
            mat, exact = realized[a]
            by_size[len(mat) * (len(mat) + 1) // 2].append(
                (("sym2", a), partial(_sym2_entries, mat), partial(sym2, exact))
            )
    for a, b in dict.fromkeys(drawn):
        if a in realized and b in realized:
            (a_mat, a_exact), (b_mat, b_exact) = realized[a], realized[b]
            by_size[len(a_mat) * len(b_mat)].append((
                ("tensor", a, b),
                partial(_kron_entries, a_mat, b_mat),
                partial(tensor, a_exact, b_exact),
            ))
    return by_size


def solve_stacked(
    drawn: Sequence[tuple[OrbitSignature, OrbitSignature]],
    tol: float,
    memo: dict,
) -> None:
    """Realize every signature of the drawn pairs and check each distinct
    problem of theirs (own spectrum, Sym^2 of a first signature, tensor of a
    pair) once, storing in ``memo``, under the keys
    :func:`crosscheck_functor` reads, each realization and each problem's
    verdict, or else the first failure of its steps.

    The failures, in the order a problem meets them: an OracleFailure from
    :func:`realize` (stored under the realization, so no problem of that
    signature is posed), a dimension mismatch of the Sym^2 or Kronecker
    matrix, a failed eigenvalue solve, a ValueError from the exact side, a
    tolerance out of range, and a grid too fine for the tolerance, stored
    as a ValueError.

    The problems of one matrix size are solved in chunks of at most
    STACK_ENTRIES matrix entries (one matrix if it alone is larger), and
    each chunk's matrices are built only when it is solved.  A chunk takes
    one :func:`numeric_angles` call for its angle rows and one
    :func:`match_angles` call that snaps them all to their exact grids.
    When the stacked solve fails, the chunk's matrices are solved one at a
    time, so each failure is stored on the problem that caused it.
    """
    realized = {}
    for sig in dict.fromkeys(sig for pair in drawn for sig in pair):
        try:
            realized[sig] = memo[("realize", sig)] = _realized(sig)
        except OracleFailure as exc:
            memo[("realize", sig)] = exc
    for size, problems in sorted(_problems(drawn, realized).items()):
        per_chunk = max(1, STACK_ENTRIES // max(1, size * size))
        for start in range(0, len(problems), per_chunk):
            _solve_chunk(problems[start : start + per_chunk], tol, memo)


def _solve_chunk(chunk: list, tol: float, memo: dict) -> None:
    built = []
    for key, matrix, exact in chunk:
        try:
            built.append((key, matrix(), exact))
        except OracleFailure as exc:
            memo[key] = exc
    if not built:
        return
    stack = np.stack([mat for _, mat, _ in built])
    try:
        rows = numeric_angles(stack)
    except OracleFailure:  # solve each matrix alone below, to find the culprit
        rows = None
    solved, spectra = [], []
    for i, (key, _, exact) in enumerate(built):
        try:
            row = numeric_angles(stack[i]) if rows is None else rows[i]
        except OracleFailure as exc:
            memo[key] = exc
            continue
        try:
            spectra.append(exact())
        except ValueError as exc:
            memo[key] = exc
            continue
        solved.append((key, row))
    try:
        verdicts = match_angles(np.array([row for _, row in solved]), spectra, tol)
    except ValueError as exc:  # a tolerance out of range
        verdicts = [exc] * len(solved)
    for (key, _), spectrum, verdict in zip(solved, spectra, verdicts):
        if verdict is None:
            verdict = ValueError(
                f"grid 1/{element_order(spectrum)} too fine to snap angles"
                f" at tolerance {tol}"
            )
        memo[key] = verdict


def run_oracle_cases(
    samples: int,
    seed: int = 0,
    max_degree: int = 8,
    order_divides: int = 36,
    tol: float = DEFAULT_TOLERANCE,
) -> list[dict]:
    """Seeded batch of functor cross-checks; one result dict per case.

    The run draws all its signature pairs first, solves each distinct
    eigenvalue problem of theirs once in same-size stacks
    (:func:`solve_stacked`), and then calls :func:`crosscheck_functor` on
    every case in order with the shared memo table, which solves nothing
    more.  Every case reports its own verdict, and a failure surfaces at
    the same case, with the same exception, as when each case is checked
    alone.
    """
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    rng = random.Random(seed)
    drawn = [
        (random_signature(rng, max_degree, order_divides),
         random_signature(rng, max_degree, order_divides))
        for _ in range(samples)
    ]
    memo: dict = {}
    solve_stacked(drawn, tol, memo)
    cases = []
    for i, (a_sig, b_sig) in enumerate(drawn):
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
