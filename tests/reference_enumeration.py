"""Reference routes for the W and Lambda streams of ``reidtai.enumeration``.

- ``all_spectra_by_combinations``: every multiset straight from
  ``itertools.combinations_with_replacement``, the reference for the
  assembled ``all_spectra``;
- ``ppav_classes_by_filter``: every multiset through the doubled-spectrum
  integrality test, exhaustive but exponential in h, the reference for the
  orbit assembly in ``ppav_classes``;
- stream sizes from generating functions, sharing no code with the
  enumerators (not even their totient or divisor helpers).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Iterator

from reidtai.enumeration import rotation_universe
from reidtai.rotations import Spectrum, validate_ppav


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
