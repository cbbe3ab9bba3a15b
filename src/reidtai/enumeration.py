"""Exhaustive generation of conjugacy-class spectra for given (h, r).

Streams are lazy, deterministic and duplicate-free.  The identity class is
never emitted; classes that act trivially on the boundary chart carry a
kernel flag instead of being dropped, so downstream code can tell "acts
trivially" apart from "not enumerated".
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from operator import add

from .functors import v_spectrum
from .rotations import (
    CONSTRAINT_MODES,
    Frozen,
    Spectrum,
    divisors,
    element_order,
    residue_keys,
    residues,
    totient,
)


class EnumerationConfig(Frozen):
    """Shape of one enumeration run: dimensions, order bound, filters."""

    __slots__ = ("h", "r", "order_divides", "constraint_mode")
    _defaults = (12, "integral-both")

    def __post_init__(self) -> None:
        if self.h < 0 or self.r < 0:
            raise ValueError("dimensions must be non-negative")
        if self.order_divides < 1:
            raise ValueError("order bound must be >= 1")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"unknown constraint mode {self.constraint_mode!r}")


class ElementClass(Frozen):
    """A conjugacy-class candidate: spectra on the abelian factor (dim h)
    and on the complexified lattice (rank r), with the combined order and
    a flag marking classes that act trivially on the boundary chart."""

    __slots__ = ("h", "r", "w_spec", "lambda_spec", "order", "kernel_on_v")

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


# An integer state (entries, a2) stands for one spectrum W over the order
# bound N: entries are its numerators over N in canonical order, and a2 is
# N * age(Sym^2 W).  Over a split W = a + b,
#   a2(a + b) = a2(a) + a2(b) + sum over x in b of cost_a[x],
# where cost_a[y] = N * age(a (x) y), the sum over z in a of (z + y) mod N,
# is additive too; so the streams build every state from its prefix (which
# alone carries costs) and one memoized block.
State = tuple[tuple[int, ...], int]
Levels = tuple[tuple[int, ...], ...]


def as_spectrum(entries: tuple[int, ...], n: int) -> Spectrum:
    """The spectrum of a state's entries (numerators over n, canonical order)."""
    return Spectrum(tuple(map(residues(n).__getitem__, entries)))


@lru_cache(maxsize=None)
def keyed_residues(n: int) -> tuple[int, ...]:
    """Every residue mod n, in the canonical (den, num) order of x/n."""
    if n < 1:
        raise ValueError("order bound must be >= 1")
    return tuple(sorted(range(n), key=residue_keys(n).__getitem__))


@lru_cache(maxsize=None)
def orbit_residues(d: int, n: int) -> tuple[int, ...]:
    """The order-d residues over n (d | n), ascending: the numerators of
    the Galois orbit of order d."""
    return tuple(k * (n // d) for k in range(d) if math.gcd(k, d) == 1)


def _orbit_levels(n: int, budget: int) -> Levels:
    """The Galois orbits over n of the orders d | n with phi(d) <= budget,
    ascending: the only place in the enumeration that decides which orders
    fit a budget (``oracle._fitting`` decides it for the oracle's draws)."""
    return tuple(orbit_residues(d, n) for d in divisors(n) if totient(d) <= budget)


def lattice_residues(cfg: EnumerationConfig) -> tuple[int, ...]:
    """The numerators over N that the config's lattice stream can contain,
    ascending: every residue when unconstrained, else the orders n | N with
    phi(n) <= r.  The chart fold computes the tensor costs of each W state
    it opens at them."""
    n = cfg.order_divides
    if cfg.r == 0:
        return ()
    if cfg.constraint_mode == "unconstrained":
        return tuple(range(n))
    return tuple(sorted(x for level in _orbit_levels(n, cfg.r) for x in level))


def _tensor_costs(xs: tuple[int, ...], ys: Sequence[int], n: int) -> list[int]:
    """n times the age of W (x) y at each residue y, the sum over x in W of
    (x + y) mod n: for each block step, and for each W the fold opens."""
    return [sum((x + y) % n for x in xs) for y in ys]


def _blocks(level: tuple[int, ...], room: int, whole: bool = False) -> list[tuple[int, ...]]:
    """The non-empty blocks a spectrum with room entries left can take at
    one level, each sorted, in the lexicographic order of the sorted entries.

    Under the whole-orbit rule (the integral lattice) a block is m copies
    of the whole orbit, most copies first.  A single-residue level (orders
    1 and 2 of the integral streams, every entry of the unconstrained one)
    takes the same plain copies under either rule.  Under the W rule an
    order-n orbit level, n > 2, comes from m copies of the orbit in the
    doubled spectrum: each conjugate pair {q, -q} splits as x copies of q
    and m - x of -q.  The entries run q_1 < ... < q_k < -q_k < ... < -q_1,
    and lexicographic order takes the most copies of each entry first, so
    the x_j count down first and m, which fixes the counts m - x_j of the
    -q_j, last.
    """
    if whole or len(level) == 1:
        copies = range(room // len(level), 0, -1)
        return [tuple(x for x in level for _ in range(m)) for m in copies]
    half = len(level) // 2
    low, high = level[:half], level[half:]
    top = room // half
    out = []
    for split in product(range(top, -1, -1), repeat=half):
        for m in range(top, max(split) - 1, -1):
            block = tuple(x for x, c in zip(low, split) for _ in range(c)) + tuple(
                x for x, c in zip(high, reversed(split)) for _ in range(m - c)
            )
            if block:
                out.append(block)
    return out


# (levels, n, whole) -> (step rows, steps by (level, block)), kept for the process
_tables: dict[tuple, tuple[list, dict]] = {}


def _steps(levels: Levels, dim: int, n: int, whole: bool) -> list[list[list[tuple]]]:
    """steps[room][i] for every room <= dim: the blocks at levels >= i that
    fit room and leave a fillable remainder, in stream order, as (next
    level, block, block positions, block a2, block cost).  Rows are added
    one room at a time, as streams first need them, and a row reads only
    the rows below it, so the table does not depend on the order of calls.
    A prefix carries its costs at the residues later levels can still add
    (their Sym^2 cross terms need them), in reverse level order: a block at
    level i, at the residues of the levels after i."""
    steps, made = _tables.setdefault((levels, n, whole), ([[[]] * (len(levels) + 1)], {}))
    order = [x for level in reversed(levels) for x in reversed(level)]
    position = {x: k for k, x in enumerate(order)}
    cut = [len(order) - k for k in accumulate(map(len, levels))]

    def step(i: int, block: tuple[int, ...], leaf: bool) -> tuple:
        # a block fits many rooms: build its step once; a leaf needs no costs
        if (i, block, leaf) not in made:
            a2 = sum((x + block[k]) % n for j, x in enumerate(block) for k in range(j, len(block)))
            cost = _tensor_costs(block, () if leaf else order[: cut[i]], n)
            made[i, block, leaf] = (i + 1, block, tuple(map(position.__getitem__, block)), a2, cost)
        return made[i, block, leaf]

    for room in range(len(steps), dim + 1):
        row: list[list[tuple]] = [[] for _ in range(len(levels) + 1)]
        for i in range(len(levels) - 1, -1, -1):
            row[i] = [
                step(i, b, len(b) == room)
                for b in _blocks(levels[i], room, whole)
                if len(b) == room or steps[room - len(b)][i + 1]
            ] + row[i + 1]
        steps.append(row)
    return steps


def _assemble(
    levels: Sequence[tuple[int, ...]], dim: int, n: int, whole: bool = False
) -> Iterator[State]:
    """Every dim-entry state (entries, a2) built from at most one block per
    level, levels in order, in the lexicographic order of the spectra;
    duplicate-free.  Each level's blocks follow the whole-orbit rule of
    :func:`_blocks` if whole (the integral lattice), else the W rule.

    A block is tried only if the later levels can fill the remaining
    entries exactly, so no branch dead-ends.  One loop walks the level
    set's shared step table (:func:`_steps`) depth first on a stack of at
    most dim frames, each adding one non-empty block.  A finished state
    carries no costs: the chart fold computes those of the W it opens.
    """
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    if dim == 0:
        yield (), 0
        return
    rows = _steps(tuple(levels), dim, n, whole)
    cost = [0] * sum(map(len, levels))
    stack = [(iter(rows[dim][0]), dim, (), 0, cost)]
    while stack:
        steps, room, entries, a2, cost = stack[-1]
        cost_at = cost.__getitem__
        for j, block, pos, b2, bcost in steps:
            age = a2 + b2 + sum(map(cost_at, pos))
            if len(block) == room:
                yield entries + block, age
                continue
            left = room - len(block)
            # truncated to bcost's width; a list, as tuple(map(...)) grows by resizing
            cost = list(map(add, cost, bcost))
            stack.append((iter(rows[left][j]), left, entries + block, age, cost))
            break
        else:
            stack.pop()


def ppav_states(h: int, order_divides: int) -> Iterator[State]:
    """The states of every dimension-h spectrum of order dividing the bound
    that extends to an integral action on the doubled homology: one level
    per orbit order, ascending."""
    # an order-d orbit fills phi(d)/2 entries of W (the doubled homology
    # holds the whole orbit), so orders with phi(d) > 2h cannot occur
    return _assemble(_orbit_levels(order_divides, 2 * h), h, order_divides)


def lattice_states(r: int, order_divides: int) -> Iterator[State]:
    """The states of every integral rank-r spectrum of order dividing the
    bound, a multiset of whole Galois orbits: one level per orbit order,
    ascending, in whole copies."""
    return _assemble(_orbit_levels(order_divides, r), r, order_divides, whole=True)


def multiset_states(dim: int, order_divides: int) -> Iterator[State]:
    """The states of every dim-multiset over the rotation universe: one
    level per universe entry."""
    levels = tuple((x,) for x in keyed_residues(order_divides))
    return _assemble(levels, dim, order_divides)


def _spectra(states: Iterator[State], n: int) -> Iterator[Spectrum]:
    for entries, _ in states:
        yield as_spectrum(entries, n)


def ppav_classes(h: int, order_divides: int) -> Iterator[Spectrum]:
    """All dimension-h spectra of order dividing the bound that extend to an
    integral action on the doubled homology; duplicate-free, in the
    lexicographic order of the sorted entries."""
    return _spectra(ppav_states(h, order_divides), order_divides)


def lattice_classes(r: int, order_divides: int) -> Iterator[Spectrum]:
    """Integral rank-r spectra: every multiset of whole Galois orbits of
    total degree r, in the lexicographic order of the sorted orbit orders."""
    return _spectra(lattice_states(r, order_divides), order_divides)


def abelian_factor_classes(cfg: EnumerationConfig) -> Iterator[State]:
    """The W-side stream for a config (validity filter per mode), as states
    (entries, a2); the chart fold computes the tensor costs of the states
    it opens."""
    states = ppav_states if cfg.constraint_mode == "integral-both" else multiset_states
    return states(cfg.h, cfg.order_divides)


def lattice_factor_classes(cfg: EnumerationConfig) -> Iterator[tuple[int, ...]]:
    """The lattice-side stream for a config (validity filter per mode): each
    spectrum as its numerators over N = cfg.order_divides in canonical
    order, in the lexicographic order of the sorted entries (unconstrained)
    or of ``lattice_classes`` (integral modes: the entries of
    :func:`lattice_states`)."""
    n = cfg.order_divides
    if cfg.constraint_mode == "unconstrained":
        return combinations_with_replacement(keyed_residues(n), cfg.r)
    return (entries for entries, _ in lattice_states(cfg.r, n))


def element_classes(cfg: EnumerationConfig) -> Iterator[ElementClass]:
    """Every non-identity class for the config, kernel classes flagged."""
    lams = [as_spectrum(ys, cfg.order_divides) for ys in lattice_factor_classes(cfg)]
    for w in _spectra(abelian_factor_classes(cfg), cfg.order_divides):
        for b in lams:
            if w.is_identity() and b.is_identity():
                continue
            yield ElementClass.build(w, b)
