"""The object-level chart fold, kept as the reference for the integer fold.

It builds a class, the symmetric-square and tensor spectra and their
Fraction ages for every (W, Lambda) pair: slow, but a direct reading of
V = Sym^2 W + W (x) Lambda.  ``reidtai.criterion.fold_chart`` must agree
with it result for result.

The reference builds its results from the public fields alone (``Row``,
``Violation``, ``Sweep``); :func:`public` reads the same fields off a
library result, whose records are integers over N, so the two compare
field for field.

:func:`full_fold` is the integer fold that reads the costs of every pair,
with no bound: ``fold_chart`` must return its result tuple for tuple.  It
computes each W's tensor costs from its entries, so it takes nothing from
a state but its entries and its Sym^2 age.

The per-W integer ages below recompute, for one whole spectrum, what the
W stream builds block by block (the Sym^2 age) and what the fold computes
for each W it opens (the tensor costs): the reference for both.  The chart
order, the exceptional shape, the central twin and the lift pairing are
read off built spectra and twin classes here; the library reads them off
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from reidtai.criterion import (
    ExceptionRecord,
    SweepResult,
    ViolationRecord,
    _exceptional,
    _plus_minus_one,
)
from reidtai.criterion import chart_order as integer_chart_order  # chart_order is below
from reidtai.enumeration import (
    ElementClass,
    EnumerationConfig,
    State,
    as_spectrum,
    lattice_factor_classes,
    lattice_residues,
)
from reidtai.functors import age, sym2, tensor, v_spectrum
from reidtai.rotations import Spectrum, element_order, residue_keys, rot

ZERO = rot(0, 1)
HALF = rot(1, 2)


@dataclass(frozen=True)
class Row:
    """The public fields of an ``ExceptionRecord``."""

    element: ElementClass
    age_sym2: Fraction
    age_tensor: Fraction
    age_v: Fraction
    matches_iii: bool


@dataclass(frozen=True)
class Violation:
    """The public fields of a ``ViolationRecord``."""

    rule: str
    element: ElementClass
    age_v: Fraction
    v_order: int


@dataclass(frozen=True)
class Sweep:
    """The public fields of a ``SweepResult``."""

    h: int
    r: int
    classes_seen: int
    min_age: Fraction | None
    witnesses: tuple[ElementClass, ...]
    exceptions: tuple[Row, ...]
    violations: tuple[Violation, ...]


def public(result: SweepResult) -> Sweep:
    """Every public field of a library sweep result, its records' included."""
    return Sweep(
        result.h,
        result.r,
        result.classes_seen,
        result.min_age,
        result.witnesses,
        tuple(
            Row(e.element, e.age_sym2, e.age_tensor, e.age_v, e.matches_iii)
            for e in result.exceptions
        ),
        tuple(Violation(v.rule, v.element, v.age_v, v.v_order) for v in result.violations),
    )


def exception_record(
    element: ElementClass, age_sym2: Fraction, age_v: Fraction, matches_iii: bool
) -> ExceptionRecord:
    """The integer record of an object-built row, over the least N that
    holds the class's entries and both ages."""
    n = math.lcm(element.order, age_sym2.denominator, age_v.denominator)
    xs, ys = spectrum_numerators(element.w_spec, n), spectrum_numerators(element.lambda_spec, n)
    a2, av = int(age_sym2 * n), int(age_v * n)
    return ExceptionRecord(element.sort_key, xs, ys, n, a2, av, matches_iii)


def spectrum_numerators(s: Spectrum, n: int) -> tuple[int, ...]:
    """The entries of s as numerators over the common denominator n."""
    if any(n % q.den for q in s.entries):
        raise ValueError(f"{s} has an order not dividing {n}")
    return tuple(q.num * (n // q.den) for q in s.entries)


def exceptional_shape(element: ElementClass) -> bool:
    """The unique below-1 shape: h = 1, the abelian factor acting by -1,
    the lattice fixing one basis vector and negating the other r-1; the
    reference for ``reidtai.criterion._exceptional``."""
    if element.h != 1 or element.r < 1:
        return False
    if element.w_spec != Spectrum.of([HALF]):
        return False
    counts = element.lambda_spec.counts()
    return counts[ZERO] == 1 and counts[HALF] == element.r - 1


def _shifted(s: Spectrum) -> Spectrum:
    return Spectrum.of(q + HALF for q in s.entries)


def central_twin(element: ElementClass) -> ElementClass:
    """The other lift of the same chart transformation, built as a class;
    the reference for ``reidtai.criterion.twin_sort_key``.

    Multiplying a class by the central involution shifts every eigenvalue
    by 1/2 on both factors and leaves the induced chart action unchanged,
    so classes come in lift pairs inducing identical germs.
    """
    return ElementClass.build(_shifted(element.w_spec), _shifted(element.lambda_spec))


def full_fold(
    cfg: EnumerationConfig,
    w_states: Iterable[State],
    lams: Iterable[tuple[int, ...]],
    include_age_one: bool = False,
    costs: Callable[[tuple[int, ...], Sequence[int], int], list[int]] | None = None,
) -> SweepResult:
    """The integer chart fold that reads the costs of every (W, Lambda)
    pair, with no bound: the reference for ``reidtai.criterion.fold_chart``,
    which skips the W states whose Sym^2 age alone exceeds max(best,
    limit).  Same inputs, same result, tuple for tuple.

    Each W's costs at the lattice residues come from :func:`tensor_costs`
    on its entries, or from costs(xs, residues, n) when given: a test that
    forges costs hands the fold's cost helper and this fold the same one."""
    n = cfg.order_divides
    lams = list(lams)
    lattice = lattice_residues(cfg)
    costs = costs or (lambda xs, ys, n: list(tensor_costs(xs, ys, n).values()))
    position = {y: k for k, y in enumerate(lattice)}
    lam_cols = [tuple(map(position.__getitem__, ys)) for ys in lams]
    identity_lam = any(not any(ys) for ys in lams)
    limit = n if include_age_one else n - 1
    seen = 0
    best: int | None = None
    # Reported rows stay integer references until the fold is done:
    # witnesses and zero-age pairs as (entries, lattice index), threshold
    # rows with their sym2 and chart ages appended.
    witnesses: list[tuple[tuple[int, ...], int]] = []
    kernel: list[tuple[tuple[int, ...], int]] = []
    rows: list[tuple[tuple[int, ...], int, int, int]] = []
    for xs, a2 in w_states:
        cost_at = costs(xs, lattice, n).__getitem__
        ages = [a2 + sum(map(cost_at, cols)) for cols in lam_cols]
        seen += len(ages)
        if identity_lam and not any(xs):
            seen -= 1
        if 0 in ages:
            kernel.extend((xs, j) for j, av in enumerate(ages) if av == 0)
        low = min(filter(None, ages), default=None)
        if low is None:
            continue
        if best is None or low < best:
            best, witnesses = low, []
        if low == best:
            witnesses.extend((xs, j) for j, av in enumerate(ages) if av == low)
        if low <= limit:
            rows.extend((xs, j, a2, av) for j, av in enumerate(ages) if 0 < av <= limit)

    keys = residue_keys(n).__getitem__
    w_keys: dict[tuple[int, ...], tuple] = {}  # one per W, shared by its rows
    lam_keys: dict[int, tuple] = {}  # one per Lambda index

    def head(xs: tuple[int, ...], j: int) -> tuple:
        """(sort key, xs, ys) of a reported pair, its key parts shared."""
        ys = lams[j]
        if j not in lam_keys:
            lam_keys[j] = tuple(map(keys, ys))
        if xs not in w_keys:
            w_keys[xs] = tuple(map(keys, xs))
        return (len(xs), len(ys), w_keys[xs], lam_keys[j]), xs, ys

    violations = []
    for xs, j in kernel:
        key, _, ys = head(xs, j)
        if not _plus_minus_one(xs, ys, n):
            violations.append(ViolationRecord("kernel", key, xs, ys, n, 0, 1))
    exceptions = []
    for xs, j, a2, av in rows:
        key, _, ys = head(xs, j)
        exceptions.append(ExceptionRecord(key, xs, ys, n, a2, av, _exceptional(xs, ys, n)))
        if av < n:
            v_order = integer_chart_order(xs, ys, n)
            if v_order != 2:
                violations.append(ViolationRecord("order-2", key, xs, ys, n, av, v_order))
    return SweepResult(
        cfg.h,
        cfg.r,
        seen,
        n,
        best,
        tuple(sorted(head(xs, j) for xs, j in witnesses)),
        tuple(sorted(exceptions)),
        tuple(sorted(violations)),
    )


def sym2_age_num(xs: tuple[int, ...], n: int) -> int:
    """n times the age of the symmetric square: sum over i <= j of
    (x_i + x_j) mod n."""
    return sum((x + xs[j]) % n for i, x in enumerate(xs) for j in range(i, len(xs)))


def tensor_costs(xs: tuple[int, ...], ys: Iterable[int], n: int) -> dict[int, int]:
    """For each lattice numerator y, n times the age of W tensored with the
    single eigenvalue y/n: sum over x of (x + y) mod n."""
    return {y: sum((x + y) % n for x in xs) for y in ys}


def classes_for(
    w_subset: Iterable[Spectrum], cfg: EnumerationConfig
) -> list[ElementClass]:
    """The classes of the chart whose W lies in w_subset, with every Lambda
    of the config's lattice stream; the identity pair is skipped."""
    lams = [as_spectrum(ys, cfg.order_divides) for ys in lattice_factor_classes(cfg)]
    return [
        ElementClass.build(w, b)
        for w in w_subset
        for b in lams
        if not (w.is_identity() and b.is_identity())
    ]


def sweep_over(
    h: int,
    r: int,
    classes: Iterable[ElementClass],
    include_age_one: bool = False,
) -> Sweep:
    """Fold ages over an explicit class stream.

    Kernel-flagged classes are skipped.  Violations are collected, not
    raised.
    """
    min_age: Fraction | None = None
    witnesses: list[ElementClass] = []
    exceptions: list[Row] = []
    violations: list[Violation] = []
    seen = 0
    for c in classes:
        seen += 1
        if c.kernel_on_v:
            continue
        sym2_spec = sym2(c.w_spec)
        tensor_spec = tensor(c.w_spec, c.lambda_spec)
        a2 = age(sym2_spec)
        at = age(tensor_spec)
        av = a2 + at
        if min_age is None or av < min_age:
            min_age = av
            witnesses = [c]
        elif av == min_age:
            witnesses.append(c)
        if av < 1 or (include_age_one and av == 1):
            exceptions.append(Row(c, a2, at, av, exceptional_shape(c)))
        if av < 1:
            v_order = math.lcm(element_order(sym2_spec), element_order(tensor_spec))
            if v_order != 2:
                violations.append(Violation("order-2", c, av, v_order))
    return Sweep(
        h,
        r,
        seen,
        min_age,
        tuple(sorted(witnesses, key=lambda c: c.sort_key)),
        tuple(sorted(exceptions, key=lambda e: e.element.sort_key)),
        tuple(sorted(violations, key=lambda v: (v.rule, v.element.sort_key))),
    )


def chart_order(element: ElementClass) -> int:
    """The order of the class on the chart, read off its chart spectrum."""
    return element_order(v_spectrum(element.w_spec, element.lambda_spec))


def dedupe_exceptions(records: Iterable[Row]) -> tuple[Row, ...]:
    """One row per lift pair, each twin built as a class by ``central_twin``
    (through ``ElementClass.build``): the shaped lift if either has the
    shape, else the one sorting first."""
    groups: dict[tuple, list[Row]] = {}
    for rec in records:
        key = min(rec.element.sort_key, central_twin(rec.element).sort_key)
        groups.setdefault(key, []).append(rec)
    kept = []
    for group in groups.values():
        if len({r.age_v for r in group}) > 1:
            raise ValueError(f"central lifts age differently: {group}")
        shaped = [r for r in group if r.matches_iii]
        kept.append(shaped[0] if shaped else min(group, key=lambda r: r.element.sort_key))
    return tuple(sorted(kept, key=lambda r: r.element.sort_key))


def finalize_sweep(result: Sweep) -> Sweep:
    return replace(result, exceptions=dedupe_exceptions(result.exceptions))
