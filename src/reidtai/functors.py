"""Age and the induced-operator calculus on spectra.

Everything here is exact: spectra in, spectra out, ages as Fractions.
Threshold comparisons downstream (age vs 1 or 1/2) must never go through
floats, because the boundary cases sit exactly on the thresholds.
"""

from __future__ import annotations

import math

from .rotations import (
    MAX_DENOMINATOR, RotationNumber, Spectrum, element_order, residue_keys, residues,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


def age(s: Spectrum) -> Fraction:
    """Sum of the rotation numbers in [0, 1); eigenvalue 1 contributes 0."""
    from fractions import Fraction  # imported here: the chart path reads no age
    return sum((q.fraction for q in s.entries), Fraction(0))


def _numerators(s: Spectrum, big: int) -> list[int]:
    """Entries of s as numerators over big, which each denominator divides."""
    return [q.num * (big // q.den) for q in s.entries]


def _spectrum_over(sums: list[int], big: int) -> Spectrum:
    """The spectrum {k/big : k in sums}, for sums already reduced mod big.

    The sums are sorted once, in place, keyed by ``residue_keys(big)``, and
    mapped through ``residues(big)``.  Over a denominator above the cap the
    distinct sums are read first in order of first occurrence, so a sum
    whose reduced denominator exceeds it raises the ValueError that adding
    the entries one pair at a time raises first."""
    entries = residues(big)
    if big > MAX_DENOMINATOR:
        for k in dict.fromkeys(sums):
            entries[k]  # builds the entry, or raises
    sums.sort(key=residue_keys(big).__getitem__)
    return Spectrum(tuple(map(entries.__getitem__, sums)))


def sym2(a: Spectrum) -> Spectrum:
    """Spectrum of the induced operator on the symmetric square.

    For |a| = h this is the multiset {a_i + a_j : i <= j}, of size
    h*(h+1)/2, summed as integer numerators over the order of a.
    """
    big = element_order(a)
    x = _numerators(a, big)
    return _spectrum_over([(xi + y) % big for i, xi in enumerate(x) for y in x[i:]], big)


def tensor(a: Spectrum, b: Spectrum) -> Spectrum:
    """Spectrum of the induced operator on the tensor product (size |a|*|b|),
    summed as integer numerators over the lcm of the two orders."""
    big = math.lcm(element_order(a), element_order(b))
    y = _numerators(b, big)
    return _spectrum_over([(x + z) % big for x in _numerators(a, big) for z in y], big)


def direct_sum(*summands: Spectrum) -> Spectrum:
    """Multiset union; dimensions add."""
    entries: list[RotationNumber] = []
    for s in summands:
        entries.extend(s.entries)
    return Spectrum.of(entries)


def power(s: Spectrum, k: int) -> Spectrum:
    """Spectrum of the k-th power of the operator: {k*q mod 1}."""
    if k < 0:
        raise ValueError(f"power exponent must be >= 0, got {k}")
    return Spectrum.of(q.times(k) for q in s.entries)


def fixed_multiplicity(s: Spectrum) -> int:
    """Multiplicity of the eigenvalue 1 (dimension of the fixed subspace)."""
    return sum(1 for q in s.entries if q.is_zero)


def v_spectrum(w_spec: Spectrum, lambda_spec: Spectrum) -> Spectrum:
    """Boundary-chart spectrum: Sym^2 of the abelian factor plus the mixed
    abelian-by-lattice tensor block; dimension h*(h+1)/2 + h*r.
    """
    return direct_sum(sym2(w_spec), tensor(w_spec, lambda_spec))


def forms_spectrum(lambda_spec: Spectrum) -> Spectrum:
    """Induced spectrum on symmetric bilinear forms on the lattice
    (dimension r*(r+1)/2): the symmetric square of the lattice action.
    """
    return sym2(lambda_spec)
