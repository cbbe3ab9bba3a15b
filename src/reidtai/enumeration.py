"""Exhaustive generation of conjugacy-class spectra for given (h, r).

Streams are lazy, deterministic and duplicate-free.  The identity class is
never emitted; classes that act trivially on the boundary chart carry a
kernel flag instead of being dropped, so downstream code can tell "acts
trivially" apart from "not enumerated".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Iterable, Iterator

from .functors import v_spectrum
from .rotations import (
    OrbitSignature,
    RotationNumber,
    Spectrum,
    divisors,
    element_order,
    galois_orbit,
    rot,
    totient,
    validate_ppav,
)

CONSTRAINT_MODES = ("integral-both", "integral-lambda-only", "unconstrained")

# Above this abelian-factor dimension the direct filter over all multisets
# is replaced by per-orbit assembly; both must agree where both run.
_PPAV_FILTER_MAX_DIM = 3


@dataclass(frozen=True, slots=True)
class EnumerationConfig:
    """Shape of one enumeration run: dimensions, order bound, filters."""

    h: int
    r: int
    order_divides: int = 12
    constraint_mode: str = "integral-both"

    def __post_init__(self) -> None:
        if self.h < 0 or self.r < 0:
            raise ValueError("dimensions must be non-negative")
        if self.order_divides < 1:
            raise ValueError("order bound must be >= 1")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"unknown constraint mode {self.constraint_mode!r}")


@dataclass(frozen=True, slots=True)
class ElementClass:
    """A conjugacy-class candidate: spectra on the abelian factor (dim h)
    and on the complexified lattice (rank r), with the combined order and
    a flag marking classes that act trivially on the boundary chart."""

    h: int
    r: int
    w_spec: Spectrum
    lambda_spec: Spectrum
    order: int
    kernel_on_v: bool

    @classmethod
    def build(cls, w_spec: Spectrum, lambda_spec: Spectrum) -> ElementClass:
        order = math.lcm(element_order(w_spec), element_order(lambda_spec))
        kernel = v_spectrum(w_spec, lambda_spec).is_identity()
        return cls(w_spec.dim, lambda_spec.dim, w_spec, lambda_spec, order, kernel)

    @property
    def sort_key(self) -> tuple:
        return (
            self.h,
            self.r,
            tuple(q.sort_key for q in self.w_spec.entries),
            tuple(q.sort_key for q in self.lambda_spec.entries),
        )

    def __str__(self) -> str:
        return f"(h={self.h}, r={self.r}, w={self.w_spec}, lambda={self.lambda_spec})"


def rotation_universe(order_divides: int) -> tuple[RotationNumber, ...]:
    """All rotation numbers with denominator dividing the bound, sorted."""
    if order_divides < 1:
        raise ValueError("order bound must be >= 1")
    seen = {rot(k, order_divides) for k in range(order_divides)}
    return tuple(sorted(seen, key=lambda q: q.sort_key))


def all_spectra(dim: int, order_divides: int) -> Iterator[Spectrum]:
    """Every multiset of the given size over the rotation universe."""
    universe = rotation_universe(order_divides)
    for combo in combinations_with_replacement(universe, dim):
        yield Spectrum(combo)


def cyclotomic_signatures(dim: int, order_divides: int) -> Iterator[OrbitSignature]:
    """All orbit-order multisets {n_j} with n_j | bound and total degree dim,
    emitted once each in lexicographic order of the sorted parts."""
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    divs = divisors(order_divides)

    def rec(start: int, remaining: int, acc: list[int]) -> Iterator[OrbitSignature]:
        if remaining == 0:
            yield OrbitSignature(tuple(acc))
            return
        for i in range(start, len(divs)):
            n = divs[i]
            if totient(n) <= remaining:
                acc.append(n)
                yield from rec(i, remaining - totient(n), acc)
                acc.pop()

    yield from rec(0, dim, [])


def lattice_classes(r: int, order_divides: int) -> Iterator[Spectrum]:
    """Integral rank-r spectra: one per cyclotomic signature of degree r."""
    for sig in cyclotomic_signatures(r, order_divides):
        yield sig.spectrum()


def ppav_classes_by_filter(h: int, order_divides: int) -> Iterator[Spectrum]:
    """Direct route: filter every h-multiset through the doubled-spectrum
    integrality test.  Exhaustive but exponential in h."""
    for s in all_spectra(h, order_divides):
        if validate_ppav(s):
            yield s


def ppav_classes_by_assembly(h: int, order_divides: int) -> Iterator[Spectrum]:
    """Orbit route: choose, for each order n | bound, how many copies of the
    order-n orbit the doubled spectrum contains, then split each conjugate
    pair {q, -q} between the spectrum and its negation.

    Orders 1 and 2 are self-conjugate, so their doubled multiplicity is
    forced even and they contribute plain copies of 0 and 1/2.
    """
    if h < 0:
        raise ValueError("dimension must be non-negative")
    divs = divisors(order_divides)

    def rec(i: int, remaining: int, acc: list[RotationNumber]) -> Iterator[Spectrum]:
        if i == len(divs):
            if remaining == 0:
                yield Spectrum.of(acc)
            return
        n = divs[i]
        if n <= 2:
            q = rot(n - 1, n)  # 0/1 or 1/2
            for j in range(remaining + 1):
                yield from rec(i + 1, remaining - j, acc + [q] * j)
            return
        half_dim = totient(n) // 2
        pairs = [(q, -q) for q in galois_orbit(n).entries if 2 * q.num < q.den]
        m = 0
        while m * half_dim <= remaining:
            if m == 0:
                yield from rec(i + 1, remaining, acc)
            else:
                for split in product(range(m + 1), repeat=len(pairs)):
                    extra: list[RotationNumber] = []
                    for (q, nq), x in zip(pairs, split):
                        extra.extend([q] * x + [nq] * (m - x))
                    yield from rec(i + 1, remaining - m * half_dim, acc + extra)
            m += 1

    yield from rec(0, h, [])


def ppav_classes(h: int, order_divides: int) -> Iterator[Spectrum]:
    """All dimension-h spectra of order dividing the bound that extend to an
    integral action on the doubled homology; duplicate-free."""
    if h <= _PPAV_FILTER_MAX_DIM:
        yield from ppav_classes_by_filter(h, order_divides)
    else:
        yield from ppav_classes_by_assembly(h, order_divides)


def abelian_factor_classes(cfg: EnumerationConfig) -> Iterator[Spectrum]:
    """The W-side stream for a config (validity filter per mode)."""
    if cfg.constraint_mode == "integral-both":
        yield from ppav_classes(cfg.h, cfg.order_divides)
    else:
        yield from all_spectra(cfg.h, cfg.order_divides)


def lattice_factor_classes(cfg: EnumerationConfig) -> Iterator[Spectrum]:
    """The lattice-side stream for a config (validity filter per mode)."""
    if cfg.constraint_mode == "unconstrained":
        yield from all_spectra(cfg.r, cfg.order_divides)
    else:
        yield from lattice_classes(cfg.r, cfg.order_divides)


def element_classes_for(
    w_subset: Iterable[Spectrum], cfg: EnumerationConfig
) -> Iterator[ElementClass]:
    """Classes for an explicit W-side subset, so one part of a partitioned
    W stream can be enumerated on its own.  Skips the identity pair."""
    lams = list(lattice_factor_classes(cfg))
    for w in w_subset:
        for b in lams:
            if w.is_identity() and b.is_identity():
                continue
            yield ElementClass.build(w, b)


def element_classes(cfg: EnumerationConfig) -> Iterator[ElementClass]:
    """Every non-identity class for the config, kernel classes flagged."""
    yield from element_classes_for(abelian_factor_classes(cfg), cfg)
