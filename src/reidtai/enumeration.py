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
from typing import Iterator

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
)

CONSTRAINT_MODES = ("integral-both", "integral-lambda-only", "unconstrained")


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


def _orbit_blocks(n: int, room: int) -> list[tuple[RotationNumber, ...]]:
    """The order-n entries a spectrum with room entries left can take, each
    block sorted, in the lexicographic order of ``all_spectra``.

    Orders 1 and 2 are self-conjugate, so their doubled multiplicity is
    forced even and they contribute plain copies of 0 and 1/2.  For n > 2
    the doubled spectrum holds m copies of the order-n orbit, and each
    conjugate pair {q, -q} splits as x copies of q and m - x of -q.  The
    entries run q_1 < ... < q_k < -q_k < ... < -q_1, and lexicographic order
    takes the most copies of each entry first, so the x_j count down first
    and m, which fixes the counts m - x_j of the -q_j, last.
    """
    if n <= 2:
        q = rot(n - 1, n)  # 0/1 or 1/2
        return [(q,) * j for j in range(room, -1, -1)]
    low = [q for q in galois_orbit(n).entries if 2 * q.num < q.den]
    high = [-q for q in reversed(low)]
    top = room // (totient(n) // 2)
    out = []
    for split in product(range(top, -1, -1), repeat=len(low)):
        for m in range(top, max(split) - 1, -1):
            out.append(
                tuple(q for q, x in zip(low, split) for _ in range(x))
                + tuple(q for q, x in zip(high, reversed(split)) for _ in range(m - x))
            )
    return out


def ppav_classes(h: int, order_divides: int) -> Iterator[Spectrum]:
    """All dimension-h spectra of order dividing the bound that extend to an
    integral action on the doubled homology; duplicate-free.

    Assembled orbit by orbit, orders ascending, from the blocks of
    :func:`_orbit_blocks`; a block is tried only if the higher orders can
    fill the remaining entries exactly, so no branch dead-ends.  The stream
    keeps the order of ``all_spectra`` (lexicographic in the sorted
    entries).
    """
    if h < 0:
        raise ValueError("dimension must be non-negative")
    divs = divisors(order_divides)
    memo: dict[tuple[int, int], list[tuple[RotationNumber, ...]]] = {}

    def blocks(i: int, room: int) -> list[tuple[RotationNumber, ...]]:
        if (i, room) not in memo:
            memo[i, room] = [
                b
                for b in _orbit_blocks(divs[i], room)
                if len(b) == room or (i + 1 < len(divs) and blocks(i + 1, room - len(b)))
            ]
        return memo[i, room]

    def rec(i: int, room: int, acc: tuple[RotationNumber, ...]) -> Iterator[Spectrum]:
        if room == 0:
            yield Spectrum(acc)
            return
        for b in blocks(i, room):
            yield from rec(i + 1, room - len(b), acc + b)

    yield from rec(0, h, ())


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


def element_classes(cfg: EnumerationConfig) -> Iterator[ElementClass]:
    """Every non-identity class for the config, kernel classes flagged."""
    lams = list(lattice_factor_classes(cfg))
    for w in abelian_factor_classes(cfg):
        for b in lams:
            if w.is_identity() and b.is_identity():
                continue
            yield ElementClass.build(w, b)
