"""Numeric cross-check of the exact spectrum calculus.

Orbit signatures are realized as block companion matrices of cyclotomic
polynomials; eigenvalue angles extracted numerically must land within
tolerance of the exact rotation numbers, both for the realized matrix and
for the induced symmetric-square and tensor operators built from it.

A run checks each distinct eigenvalue problem once, in three passes.  It
first poses every problem: it builds the problem's integer matrix whole,
which is block diagonal along the realization's parts (one companion block
per part, one Sym^2 block per pair of parts p <= q, one Kronecker block per
part of each factor), and one ``take`` along the layout's flat in-block
index cuts it into those blocks, after an exact check that nothing lies
outside them (a matrix that fails it is one block, itself).  It then
solves each distinct block once, on its own, and last decides each
problem: its blocks' angles are snapped once to each exact grid 1/L, into
integer numerators, and a problem matches iff those numerators, sorted,
equal the ones of its exact spectrum over L, which the kernels of
``functors`` sum from each signature's numerators, with no spectrum built
per problem.  Each problem's verdict, or the first failure of its steps,
is stored in one table; each case then reads its steps from that table.
Only this module, the functors and the rotations are loaded: an audit
imports no chart sweep.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from collections.abc import Callable, Sequence
from functools import lru_cache, partial
from itertools import accumulate

import numpy as np

from .functors import check_cap, numerators, sym2_sums, tensor_sums
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


@lru_cache(maxsize=None)
def _part_block(n: int) -> tuple[np.ndarray, bool]:
    """The companion block of the n-th cyclotomic polynomial, read-only,
    and whether its n-th power, by exact integer powering, is I."""
    block = companion(cyclotomic_polynomial(n))
    block.setflags(write=False)
    power = np.linalg.matrix_power(block, n)
    return block, np.array_equal(power, np.eye(len(block), dtype=np.int64))


def realize(sig: OrbitSignature) -> np.ndarray:
    """Block-diagonal companion realization of a signature, as an int64
    array.

    The matrix has size total_degree.  Its exact order is the lcm of the
    parts iff each part's block C_n has C_n^n = I, which is checked once
    per part order n (:func:`_part_block`).
    """
    size = sig.total_degree
    m = np.zeros((size, size), dtype=np.int64)
    pos = 0
    for n in sig.parts:
        block, of_order = _part_block(n)
        if not of_order:
            raise OracleFailure(f"realization of {sig} is not of order {sig.order}")
        d = totient(n)
        m[pos : pos + d, pos : pos + d] = block
        pos += d
    return m


def numeric_angles(m: np.ndarray) -> np.ndarray:
    """Eigenvalue arguments over 2*pi, each folded into [0, 1), as a sorted
    float64 array.

    ``m`` is one integer matrix (the library passes one block), or a stack of
    k same-size matrices (the tests' whole-matrix reference) whose k sorted
    rows fail together on one failed extraction or off-circle eigenvalue.
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


def _tolerance_error(tol: float) -> ValueError | None:
    """The error a tolerance out of (0, MAX_MATCH_TOLERANCE] raises."""
    if not 0.0 < tol <= MAX_MATCH_TOLERANCE:
        return ValueError(f"tolerance must be in (0, {MAX_MATCH_TOLERANCE}], got {tol}")
    return None


def _snap(x: np.ndarray, big: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The snap rule: each angle's nearest grid numerator k (k/big, as
    floats) and whether every angle lies within tol of its grid point, in
    circular distance."""
    k = np.rint(x * big) % big
    d = np.abs(x - k / big) % 1.0
    return k, np.all(np.minimum(d, 1.0 - d) <= tol, axis=-1)


def match_angles(
    angles: np.ndarray,
    exact: Sequence[Spectrum],
    tol: float = DEFAULT_TOLERANCE,
) -> list[bool | None]:
    """For each of k rows of numeric angles, as :func:`numeric_angles`
    returns them for a stack of k matrices, and its exact spectrum: True iff
    the row's angles pair off one-to-one with the spectrum's entries, each
    within tol under circular distance.

    Each row is decided by :func:`_verdict`, as one block of its own, on
    its spectrum's order and sorted numerators: the rule every run applies
    block by block.  A row whose grid is too fine for the tolerance gets
    None.  A tolerance out of range, or a number of rows other than the
    number of spectra, raises ValueError.
    """
    if (error := _tolerance_error(tol)) is not None:
        raise error
    verdicts: list[bool | None] = []
    for row, spectrum in zip(np.asarray(angles, dtype=np.float64), exact, strict=True):
        big, x = _over_order(spectrum)
        verdict = _verdict((big, sorted(x)), [0], [row], {}, len(row), tol)
        verdicts.append(None if isinstance(verdict, ValueError) else verdict)
    return verdicts


@lru_cache(maxsize=None)
def _square_basis(n: int) -> tuple[np.ndarray, ...]:
    """The Sym^2 basis e_k.e_l, k <= l, of an n-space as the index arrays
    k and l, the mask of its pairs with k < l, and k and l at those pairs."""
    k, l = np.triu_indices(n)
    off = k < l
    arrays = k, l, off, k[off], l[off]
    for a in arrays:
        a.setflags(write=False)  # shared by every caller of the cache
    return arrays


def sym2_matrix(m: np.ndarray) -> np.ndarray:
    """Induced matrix on the symmetric square, in the basis e_i.e_j, i <= j.

    The coefficient of e_k.e_l in the image of e_i.e_j is
    m[k,i]*m[l,j], plus m[l,i]*m[k,j] when k < l.
    """
    m = np.asarray(m, dtype=np.int64)
    k, l, off, k_off, l_off = _square_basis(m.shape[0])
    out = m[k][:, k] * m[l][:, l]
    out[off] += m[l_off][:, k] * m[k_off][:, l]
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
        step = memo.get(key)  # no step is stored as None
        if step is None:
            solve_stacked([(a_sig, b_sig)], tol, memo)
            step = memo[key]
        if step is False:
            return False
        if isinstance(step, Exception):
            raise step
    return True


@lru_cache(maxsize=None)
def _fitting(order_divides: int, room: int) -> tuple[tuple[int, int], ...]:
    """(d, phi(d)) for every orbit order d dividing the bound with
    phi(d) <= room, in increasing order of d."""
    return tuple(
        (d, phi) for d in divisors(order_divides) if (phi := totient(d)) <= room
    )


@lru_cache(maxsize=None)
def _signature(parts: tuple[int, ...]) -> OrbitSignature:
    """The signature of these sorted parts, one object per parts, kept for
    the process: equal draws are the same object, so the run's tables meet
    them by identity, and each is checked once."""
    return OrbitSignature(parts)


def random_signature(
    rng: random.Random,
    max_degree: int,
    order_divides: int,
) -> OrbitSignature:
    """A random signature with total degree in [MIN_DEGREE, max_degree].

    Until it stops, each step draws one orbit order uniformly from those
    that still fit in the remaining degree (a tuple cached per bound and
    remaining degree); once the degree reaches MIN_DEGREE, each step first
    stops with probability 0.35.  It stops when no order fits."""
    if max_degree < MIN_DEGREE:
        raise ValueError("max_degree below MIN_DEGREE")
    parts: list[int] = []
    room = max_degree
    while options := _fitting(order_divides, room):
        if max_degree - room >= MIN_DEGREE and rng.random() < 0.35:
            break
        pick, phi = rng.choice(options)
        parts.append(pick)
        room -= phi
    return _signature(tuple(sorted(parts)))


def _over_order(spectrum: Spectrum) -> tuple[int, list[int]]:
    """The order L of a spectrum and its entries as numerators over L, in
    the spectrum's order."""
    big = element_order(spectrum)
    return big, numerators(spectrum, big)


def _reduced(sums: list[int], big: int) -> tuple[int, list[int]]:
    """The order L of the spectrum {k/big : k in sums} (L = big // gcd(big,
    *sums), its element_order) and its sorted numerators over L, after the
    cap check that building it makes."""
    check_cap(sums, big)
    g = math.gcd(big, *sums)
    if g > 1:
        sums = [k // g for k in sums]
    sums.sort()
    return big // g, sums


def _sym2_exact(big: int, x: list[int]) -> tuple[int, list[int]]:
    """The Sym^2 problem's exact side, from the signature's entries x/big."""
    return _reduced(sym2_sums(x, big), big)


def _tensor_exact(
    a_big: int, x: list[int], b_big: int, y: list[int]
) -> tuple[int, list[int]]:
    """The tensor problem's exact side, from the entries x/a_big and
    y/b_big, summed over the lcm of the two orders."""
    big = math.lcm(a_big, b_big)
    if big != a_big:
        x = [k * (big // a_big) for k in x]
    if big != b_big:
        y = [k * (big // b_big) for k in y]
    return _reduced(tensor_sums(x, y, big), big)


def _problems(
    drawn: Sequence[tuple[OrbitSignature, OrbitSignature]],
    realized: dict[OrbitSignature, tuple[np.ndarray, Spectrum]],
) -> dict[tuple, list[tuple[tuple, Callable, Callable]]]:
    """Each distinct eigenvalue problem of the drawn pairs whose signatures
    are realized, once, as (memo key, a function making its matrix, one
    making its exact side), grouped by layout: the problem's kind and the
    degrees of its factors' parts, all a :func:`_cut` needs.  The tables
    are keyed by parts, whose tuples hash in C.

    An exact side is the order L of the problem's exact spectrum and its
    sorted numerators over L.  Each signature's spectrum is read once as
    its order and numerators; its Sym^2 and tensor problems sum those by
    the ``functors`` kernels, the sums ``sym2`` and ``tensor`` make."""
    by_shape: dict[tuple, list] = defaultdict(list)
    by_parts = {}
    for sig, (mat, spectrum) in realized.items():
        degrees = tuple(map(totient, sig.parts))
        exact = _over_order(spectrum)
        by_parts[sig.parts] = mat, exact, degrees
        by_shape["spectrum", degrees].append(
            (("spectrum", sig), lambda m=mat: m, lambda e=exact: (e[0], sorted(e[1])))
        )
    for a in {a.parts: a for a, _ in drawn}.values():
        if a.parts in by_parts:
            mat, exact, degrees = by_parts[a.parts]
            by_shape["sym2", degrees].append(
                (("sym2", a), partial(_sym2_entries, mat), partial(_sym2_exact, *exact))
            )
    for a, b in {(a.parts, b.parts): (a, b) for a, b in drawn}.values():
        if a.parts in by_parts and b.parts in by_parts:
            (a_mat, a_exact, a_degrees), (b_mat, b_exact, b_degrees) = (
                by_parts[a.parts], by_parts[b.parts]
            )
            by_shape["tensor", a_degrees, b_degrees].append((
                ("tensor", a, b),
                partial(_kron_entries, a_mat, b_mat),
                partial(_tensor_exact, *a_exact, *b_exact),
            ))
    return by_shape


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

    It runs in three passes.
    - Pose.  The problems come grouped by layout (:func:`_problems`), and
      each layout's :func:`_cut` is made once per run.  Each problem matrix
      is built whole, narrowed to int8 when every entry fits (exactly: the
      cast refuses any entry it would change), and cut by one ``take`` along
      the cut's flat in-block index; a matrix with a nonzero entry outside
      its blocks is one block, itself.  Each block is keyed by its side and
      its entries' bytes, and a new key only gets an index, so the run holds
      one problem matrix at a time.
    - Solve.  Each distinct block is rebuilt from its key's bytes (int8
      when they number side**2, else int64) and solved alone, once per run,
      in first-seen order.
    - Decide.  Each problem, in posing order, stores the failure of its
      first failed block, else a ValueError of its exact side, else one of
      the tolerance, else its verdict (or the ValueError of a grid too
      fine).  Its exact side, the order L of its exact spectrum and its
      sorted numerators over L, fixes its grid 1/L, and :func:`_verdict`
      snaps each distinct block to each grid once per run.  Snapping goes
      angle by angle, so each verdict is the one :func:`match_angles`, the
      same rule on one row, gives the problem's whole sorted row, at every
      tolerance.
    """
    realized = {}
    for sig in {sig.parts: sig for pair in drawn for sig in pair}.values():
        try:
            realized[sig] = memo[("realize", sig)] = _realized(sig)
        except OracleFailure as exc:
            memo[("realize", sig)] = exc
    # pose: each problem's blocks, cut and keyed; a new block only gets an index
    blocks: dict = {}  # (side, entries) -> the block's index, in first-seen order
    posed = []  # (memo key, its blocks' indexes, its exact side, its size)
    for shape, problems in _problems(drawn, realized).items():
        index, spans = _cut(*shape)
        for key, matrix, exact in problems:
            try:
                mat = matrix()
            except OracleFailure as exc:
                memo[key] = exc
                continue
            flat = mat.ravel()
            try:  # the int8 entries, exact and an eighth of the int64 bytes
                flat = flat.astype(np.int8, casting="same_value")
            except ValueError:  # an entry past int8 (or a numpy before 2.3)
                pass
            kept, cut = flat, spans
            if index is not None:
                kept = flat.take(index)
                if np.count_nonzero(kept) != np.count_nonzero(flat):
                    kept, cut = flat, ((len(mat), 0, flat.size),)
            data, narrow = kept.tobytes(), kept.itemsize == 1
            ids = [
                blocks.setdefault(
                    (side, data[start:stop]) if narrow else _block_key(kept[start:stop], side),
                    len(blocks),
                )
                for side, start, stop in cut
            ]
            posed.append((key, ids, exact, len(mat)))
    # solve: each distinct block once, rebuilt from its key's bytes
    angles: list = []  # each distinct block's sorted angles, or its solve's failure
    failed: set = set()  # the indexes of the failed solves
    for i, (side, data) in enumerate(blocks):
        entries = np.frombuffer(data, np.int8 if len(data) == side * side else np.int64)
        try:
            angles.append(numeric_angles(entries.astype(np.int64).reshape(side, side)))
        except OracleFailure as exc:
            angles.append(exc)
            failed.add(i)
    # decide: a failed block, then the exact side, the tolerance and the grid
    out_of_range = _tolerance_error(tol)
    snaps: dict = {}  # L -> block index -> its numerators over L, or False
    for key, ids, exact, size in posed:
        if failed and not failed.isdisjoint(ids):
            memo[key] = angles[next(i for i in ids if i in failed)]
            continue
        try:
            side = exact()
        except ValueError as exc:
            memo[key] = exc
            continue
        memo[key] = out_of_range or _verdict(side, ids, angles, snaps, size, tol)


def _block_key(entries: np.ndarray, side: int) -> tuple[int, bytes]:
    """A block's side and its int64 entries, as int8 bytes if they all fit,
    else as their own bytes: two blocks get equal keys iff they are equal,
    and the length of the bytes, side**2 or eight times that, tells which."""
    try:
        return side, entries.astype(np.int8, casting="same_value").tobytes()
    except ValueError:
        return side, entries.tobytes()


def _verdict(
    exact: tuple[int, list[int]], ids: list[int], angles: list, snaps: dict, size: int,
    tol: float,
) -> bool | ValueError:
    """A problem's match against its exact side (L, the exact spectrum's
    sorted numerators over its order L): False if its size is not the
    spectrum's, a ValueError if the grid 1/L is too fine for the tolerance,
    else whether each of its blocks' angles (``angles[i]`` for i in
    ``ids``) snaps within tol and their numerators over L, sorted, equal the
    spectrum's.  Each block is snapped to each grid once, into ``snaps``.

    Every exact entry lies on the grid k/L.  Distinct exact values lie more
    than 2*tol apart (see MAX_MATCH_TOLERANCE), so an angle has at most one
    exact value within tol, and :func:`_snap`'s nearest grid point finds it
    while the spacing 1/L stays well above 2*tol.  A grid finer than that
    (tol*L > 1/4, so L above 250 000; the CLI's order bound keeps L <= 360)
    is refused.  So the verdict is a one-to-one pairing of the angles with
    the entries, each within tol."""
    big, want = exact
    if len(want) != size:
        return False
    if 4 * tol * big > 1:
        return ValueError(f"grid 1/{big} too fine to snap angles at tolerance {tol}")
    grid = snaps.get(big)
    if grid is None:
        grid = snaps[big] = {}
    numerators = []
    for i in ids:
        snap = grid.get(i)
        if snap is None:
            k, close = _snap(angles[i], float(big), tol)
            snap = grid[i] = bool(close) and k.astype(np.int64).tolist()
        if snap is False:
            return False
        numerators += snap
    numerators.sort()
    return numerators == want


def _cut(
    kind: str, degrees: tuple[int, ...], b_degrees: tuple[int, ...] = ()
) -> tuple[np.ndarray | None, tuple[tuple[int, int, int], ...]]:
    """The diagonal blocks of a problem matrix of this kind whose factors'
    parts have these degrees: one per part of a realization, per pair of
    parts p <= q of a Sym^2 matrix (e_i.e_j, i in p, j in q) or per part p
    of a and q of b of a Kronecker matrix (i*m + k, i in p, k in q), in
    that order.

    Returns the flat index of the in-block entries, block after block, each
    row-major (None when the matrix is one block, itself), and each block's
    (side, start, stop) in that index.  Each basis vector is labelled by its
    block, in block order; a block's side is the count of its label.  With
    the basis ordered stably by label, the in-block entries of each row are
    its block's row, so one mask over the reordered index grid lists them in
    turn."""
    labels = np.repeat(np.arange(len(degrees)), degrees)
    if kind == "sym2":
        i, j = _square_basis(len(labels))[:2]
        labels = labels[i] * len(degrees) + labels[j]
    elif kind == "tensor":
        b_labels = np.repeat(np.arange(len(b_degrees)), b_degrees)
        labels = (labels[:, None] * len(b_degrees) + b_labels).ravel()
    counts = np.bincount(labels)
    sides = counts[counts > 0].tolist()  # no Sym^2 pair p > q
    stops = list(accumulate(side * side for side in sides))
    spans = tuple(zip(sides, [0, *stops], stops))
    if len(sides) < 2:
        return None, spans
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    return (order[:, None] * len(labels) + order)[ranked[:, None] == ranked], spans


def run_oracle_cases(
    samples: int,
    seed: int = 0,
    max_degree: int = 8,
    order_divides: int = 36,
    tol: float = DEFAULT_TOLERANCE,
) -> list[dict]:
    """Seeded batch of functor cross-checks; one result dict per case.

    The run draws all its signature pairs first, checks each distinct
    eigenvalue problem of theirs once, solving each distinct diagonal block
    once (:func:`solve_stacked`), and then calls :func:`crosscheck_functor` on
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
