"""Reference routes for the W and Lambda streams of ``reidtai.enumeration``.

- ``rotation_universe`` and ``all_spectra``: the rotation numbers of order
  dividing the bound, and every multiset over them read off the assembled
  ``multiset_states``;
- ``all_spectra_by_combinations``: every multiset straight from
  ``itertools.combinations_with_replacement``, the reference for the
  assembled ``all_spectra``;
- ``validate_integral`` and ``validate_ppav``: the integrality tests,
  whether a multiset (or it with its negation) splits into complete Galois
  orbits;
- ``ppav_classes_by_filter``: every multiset through the doubled-spectrum
  integrality test, exhaustive but exponential in h, the reference for the
  orbit assembly in ``ppav_classes``;
- ``cyclotomic_signatures`` and ``signature_residues``: every multiset of
  orbit orders of a given total degree, by its own recursion over the
  divisors, and its spectrum's numerators, the reference for the integral
  lattice stream assembled in ``lattice_states``;
- ``spectrum_state``: a spectrum's state read off its entry pairs, the
  reference for the Sym^2 ages the assembly builds block by block;
- stream sizes from generating functions, sharing no code with the
  enumerators (not even their totient or divisor helpers).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Iterator

from reidtai.enumeration import as_spectrum, keyed_residues, multiset_states
from reidtai.rotations import OrbitSignature, RotationNumber, Spectrum, galois_orbit, rot


def rotation_universe(order_divides: int) -> tuple[RotationNumber, ...]:
    """All rotation numbers with denominator dividing the bound, sorted."""
    return tuple(rot(x, order_divides) for x in keyed_residues(order_divides))


def all_spectra(dim: int, order_divides: int) -> Iterator[Spectrum]:
    """Every multiset of the given size over the rotation universe, in
    lexicographic order, from the assembled states."""
    for entries, _ in multiset_states(dim, order_divides):
        yield as_spectrum(entries, order_divides)


def validate_integral(s: Spectrum) -> bool:
    """True iff the multiset splits into complete Galois orbits.

    A finite-order integer matrix has characteristic polynomial a product
    of cyclotomics, so each primitive n-th root must appear with the same
    multiplicity as all of its conjugates.  An entry of denominator n can
    only belong to the order-n orbit, which makes the check local to each
    denominator.
    """
    counts = s.counts()
    for n in {q.den for q in s.entries}:
        orbit = galois_orbit(n).entries
        m = counts[orbit[0]]
        if any(counts[q] != m for q in orbit[1:]):
            return False
    return True


def validate_ppav(a: Spectrum) -> bool:
    """True iff a, together with its negation, is integral.

    A finite-order automorphism of an abelian h-fold acts on the rank-2h
    integral homology with spectrum a plus its complex conjugate, so the
    doubled multiset must split into complete Galois orbits.
    """
    return validate_integral(Spectrum.of(a.entries + a.negated().entries))


def all_spectra_by_combinations(dim: int, order_divides: int) -> Iterator[Spectrum]:
    """Every dim-multiset over the rotation universe, lexicographically."""
    for combo in combinations_with_replacement(rotation_universe(order_divides), dim):
        yield Spectrum(combo)


def ppav_classes_by_filter(h: int, order_divides: int) -> Iterator[Spectrum]:
    """Direct route: filter every h-multiset through the doubled-spectrum
    integrality test."""
    for s in all_spectra_by_combinations(h, order_divides):
        if validate_ppav(s):
            yield s


def cyclotomic_signatures(dim: int, order_divides: int) -> Iterator[OrbitSignature]:
    """All orbit-order multisets {n_j} with n_j | bound and total degree dim,
    emitted once each in lexicographic order of the sorted parts."""
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    divs = [d for d in range(1, order_divides + 1) if order_divides % d == 0]

    def rec(start: int, remaining: int, acc: tuple[int, ...]) -> Iterator[OrbitSignature]:
        if remaining == 0:
            yield OrbitSignature(acc)
            return
        for i in range(start, len(divs)):
            if _phi(divs[i]) <= remaining:
                yield from rec(i, remaining - _phi(divs[i]), acc + (divs[i],))

    yield from rec(0, dim, ())


def signature_residues(sig: OrbitSignature, order_divides: int) -> tuple[int, ...]:
    """The numerators over the bound of the signature's spectrum, in its
    canonical order."""
    return tuple(q.num * (order_divides // q.den) for q in sig.spectrum())


def spectrum_state(entries: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """The state (entries, a2) of a spectrum given by its numerators over
    n: a2 sums (x + x') mod n over the pairs of entries i <= j."""
    return entries, sum((x + z) % n for x, z in combinations_with_replacement(entries, 2))


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _series_product(factors, top):
    """Coefficients x^0..x^top of the product of the given power series."""
    out = [1] + [0] * top
    for f in factors:
        out = [sum(out[i] * f[k - i] for i in range(k + 1)) for k in range(top + 1)]
    return out


def lattice_series(n_bound, top):
    """prod over n | N of 1 / (1 - x^phi(n)): one geometric series per order."""
    factors = []
    for n in range(1, n_bound + 1):
        if n_bound % n == 0:
            step = _phi(n)
            factors.append([int(k % step == 0) for k in range(top + 1)])
    return _series_product(factors, top)


def ppav_series(n_bound, top):
    """prod over n | N of F_n, with F_n = 1 / (1 - x) for n <= 2 and
    F_n = sum over m of (m + 1)^(phi(n)/2) x^(m phi(n)/2) otherwise."""
    factors = []
    for n in range(1, n_bound + 1):
        if n_bound % n:
            continue
        if n <= 2:
            factors.append([1] * (top + 1))
        else:
            half = _phi(n) // 2
            factors.append(
                [(k // half + 1) ** half if k % half == 0 else 0 for k in range(top + 1)]
            )
    return _series_product(factors, top)


def multiset_count(dim, n_bound):
    """Multisets of size dim over the n_bound rotation numbers k/N."""
    return math.comb(n_bound - 1 + dim, dim)
