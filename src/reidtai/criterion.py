"""Age-criterion verdicts and the exhaustive sweeps.

A cyclic quotient germ is terminal when every nontrivial power has age
strictly above 1, canonical when the minimum is exactly 1, and neither when
some power dips below; an element whose fixed locus has codimension one
(exactly one nonzero eigenvalue) invalidates the test and is reported as a
quasi-reflection.

The sweeps fold those ages over the enumeration streams.  Three facts are
machine-checked while folding, not merely reported: a class acting
trivially on the chart must be +-1, every below-1 class must act with
order exactly 2 on the chart, and (at the catalog level) must have the
unique exceptional shape.  A failed check raises
:class:`PropositionViolation` rather than producing a report row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

from . import enumeration
from .enumeration import (
    ElementClass,
    EnumerationConfig,
    State,
    as_spectrum,
    lattice_factor_classes,
    lattice_residues,
    multiset_states,
    numerators,
    spectrum_state,
)
from .functors import age, fixed_multiplicity, forms_spectrum, v_spectrum
from .rotations import (
    HALF,
    ZERO,
    Spectrum,
    element_order,
    galois_orbit,
    totient,
)

ONE = Fraction(1)


def age_kind(min_age: Fraction | None) -> str:
    """The age criterion on a minimum age: above 1 is terminal, exactly 1
    canonical, below 1 neither; no age at all is empty."""
    if min_age is None:
        return "empty"
    if min_age > ONE:
        return "terminal"
    if min_age == ONE:
        return "canonical"
    return "not-canonical"


@dataclass(frozen=True, slots=True)
class Verdict:
    """Classification of a cyclic germ with the witnessing power and age."""

    kind: str  # terminal | canonical-not-terminal | not-canonical | quasi-reflection
    witness_power: int
    witness_age: Fraction


def rst_verdict(tangent_of: Callable[[int], Spectrum], order: int) -> Verdict:
    """Classify the germ whose k-th power acts with spectrum tangent_of(k).

    Ages are taken over every k in [1, order) whose spectrum is not the
    identity (powers acting trivially carry no information).  Quasi-
    reflections are detected first; otherwise the minimum age decides.
    """
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if order == 1:
        raise ValueError("identity germ: smooth point, no verdict")
    quasi: tuple[int, Fraction] | None = None
    best: tuple[Fraction, int] | None = None
    for k in range(1, order):
        spec = tangent_of(k)
        if spec.is_identity():
            continue
        a = age(spec)
        if spec.dim - fixed_multiplicity(spec) == 1 and quasi is None:
            quasi = (k, a)
        if best is None or a < best[0]:
            best = (a, k)
    if quasi is not None:
        return Verdict("quasi-reflection", quasi[0], quasi[1])
    if best is None:
        raise ValueError("every power acts trivially: no germ to classify")
    min_age, k = best
    kind = age_kind(min_age)
    if kind == "canonical":
        kind = "canonical-not-terminal"
    return Verdict(kind, k, min_age)


@dataclass(frozen=True, slots=True)
class ExceptionRecord:
    """One class at or below the age threshold, with its component ages."""

    element: ElementClass
    age_sym2: Fraction
    age_tensor: Fraction
    age_v: Fraction
    matches_iii: bool


@dataclass(frozen=True, slots=True)
class ViolationRecord:
    """A machine-checked claim that failed, with the offending class."""

    rule: str  # "kernel" | "order-2" | "exception-shape"
    element: ElementClass
    age_v: Fraction
    v_order: int


class PropositionViolation(Exception):
    """Raised when a sweep meets a class that contradicts a checked claim."""

    def __init__(self, result: SweepResult):
        self.result = result
        lines = [
            f"{v.rule}: {v.element} age_v={v.age_v} order-on-chart={v.v_order}"
            for v in result.violations
        ]
        super().__init__("; ".join(lines) or "proposition violation")


@dataclass(frozen=True, slots=True)
class SweepResult:
    """Result of a chart sweep: the minimum age with its witnesses and the
    rows at or below the threshold."""

    h: int
    r: int
    classes_seen: int
    min_age: Fraction | None
    witnesses: tuple[ElementClass, ...]
    exceptions: tuple[ExceptionRecord, ...]
    violations: tuple[ViolationRecord, ...]


def exceptional_shape(element: ElementClass) -> bool:
    """The unique below-1 shape: h = 1, the abelian factor acting by -1,
    the lattice fixing one basis vector and negating the other r-1."""
    if element.h != 1 or element.r < 1:
        return False
    if element.w_spec != Spectrum.of([HALF]):
        return False
    counts = element.lambda_spec.counts()
    return counts[ZERO] == 1 and counts[HALF] == element.r - 1


def _shifted(s: Spectrum) -> Spectrum:
    return Spectrum.of(q + HALF for q in s.entries)


def central_twin(element: ElementClass) -> ElementClass:
    """The other lift of the same chart transformation.

    Multiplying a class by the central involution shifts every eigenvalue
    by 1/2 on both factors and leaves the induced chart action unchanged,
    so classes come in lift pairs inducing identical germs.
    """
    return ElementClass.build(_shifted(element.w_spec), _shifted(element.lambda_spec))


def dedupe_exceptions(
    records: Iterable[ExceptionRecord],
) -> tuple[ExceptionRecord, ...]:
    """One exception record per chart germ.

    The two central lifts of a class always score the same ages, so the
    catalog keeps a single row per lift pair: the lift with the canonical
    below-1 shape when one of the two has it, otherwise the lift that
    sorts first.  Lifts that age differently raise ValueError.
    """
    groups: dict[tuple, list[ExceptionRecord]] = {}
    for rec in records:
        key = min(rec.element.sort_key, central_twin(rec.element).sort_key)
        groups.setdefault(key, []).append(rec)
    out = []
    for group in groups.values():
        if len({r.age_v for r in group}) > 1:
            raise ValueError(
                "central lifts must age equally: "
                + "; ".join(f"{r.element} ages {r.age_v}" for r in group)
            )
        shaped = [r for r in group if r.matches_iii]
        out.append(shaped[0] if shaped else min(group, key=lambda r: r.element.sort_key))
    return tuple(sorted(out, key=lambda r: r.element.sort_key))


def finalize_sweep(result: SweepResult) -> SweepResult:
    """Collapse central-lift duplicates among the exception rows.

    The enumeration stream itself stays two-to-one per germ; only the
    reported catalog is folded down.
    """
    return replace(result, exceptions=dedupe_exceptions(result.exceptions))


def _chart_order(element: ElementClass) -> int:
    return element_order(v_spectrum(element.w_spec, element.lambda_spec))


def _plus_minus_one(xs: tuple[int, ...], ys: tuple[int, ...], n: int) -> bool:
    """True iff the pair acts as +1 or -1: one common entry, 0 or 1/2."""
    values = set(xs).union(ys)
    return len(values) <= 1 and all(2 * v % n == 0 for v in values)


def fold_chart(
    cfg: EnumerationConfig,
    w_states: Iterable[State],
    lams: Iterable[Spectrum],
    include_age_one: bool = False,
) -> SweepResult:
    """Fold chart ages over every (W, Lambda) pair, W from the integer
    states w_states (costs indexed by ``lattice_residues(cfg)``, as
    ``enumeration.abelian_factor_classes(cfg)`` yields them) and Lambda
    from lams.

    Ages are integers over N = cfg.order_divides: a pair's chart age is
    the state's Sym^2 age plus its tensor costs at Lambda's entries.  Age 0
    means the pair acts trivially on the chart (the kernel) and is skipped;
    the identity pair is not counted.  The kernel must be +-1: a zero-age
    pair that is not becomes a ``kernel`` violation.  Spectra, classes,
    Fractions and the order-2 check are built only for the rows the result
    reports: the minimum's witnesses and the rows below 1 (or at 1 with
    include_age_one).  Violations are collected, not raised;
    :func:`sweep_v` decides.

    With lams = [Spectrum()] the chart is Sym^2 W alone and the kernel is
    +-1: the interior, the Sym^2 table and the torus forms space.
    """
    n = cfg.order_divides
    lams = list(lams)
    position = {y: k for k, y in enumerate(lattice_residues(cfg))}
    lam_cols = [tuple(position[y] for y in numerators(b, n)) for b in lams]
    identity_lam = any(b.is_identity() for b in lams)
    limit = n if include_age_one else n - 1
    seen = 0
    best: int | None = None
    # Reported rows stay integer references until the fold is done:
    # witnesses and zero-age pairs as (entries, lattice index), threshold
    # rows with their sym2 and chart ages appended.
    witnesses: list[tuple[tuple[int, ...], int]] = []
    kernel: list[tuple[tuple[int, ...], int]] = []
    rows: list[tuple[tuple[int, ...], int, int, int]] = []
    for xs, a2, cost in w_states:
        cost_at = cost.__getitem__
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

    spectra: dict[tuple[int, ...], Spectrum] = {}  # one per W, shared by its rows

    def element(xs: tuple[int, ...], j: int) -> ElementClass:
        if xs not in spectra:
            spectra[xs] = as_spectrum(xs, n)
        return ElementClass.build(spectra[xs], lams[j])

    exceptions: list[ExceptionRecord] = []
    violations = [
        ViolationRecord("kernel", element(xs, j), Fraction(0), 1)
        for xs, j in kernel
        if not _plus_minus_one(xs, numerators(lams[j], n), n)
    ]
    for xs, j, a2, av in rows:
        c = element(xs, j)
        age_v = Fraction(av, n)
        exceptions.append(
            ExceptionRecord(
                c, Fraction(a2, n), Fraction(av - a2, n), age_v, exceptional_shape(c)
            )
        )
        if av < n:
            v_order = _chart_order(c)
            if v_order != 2:
                violations.append(ViolationRecord("order-2", c, age_v, v_order))
    return SweepResult(
        cfg.h,
        cfg.r,
        seen,
        None if best is None else Fraction(best, n),
        tuple(sorted((element(xs, j) for xs, j in witnesses), key=lambda c: c.sort_key)),
        tuple(sorted(exceptions, key=lambda e: e.element.sort_key)),
        tuple(sorted(violations, key=lambda v: (v.rule, v.element.sort_key))),
    )


def sweep_v(
    h: int,
    r: int,
    order_divides: int = 12,
    constraint_mode: str = "integral-both",
    include_age_one: bool = False,
) -> SweepResult:
    """Sweep every non-kernel class on the (h, r) boundary chart.

    Returns the fold result with all below-1 classes as exception records;
    raises :class:`PropositionViolation` if any of them acts with order
    other than 2 on the chart.
    """
    if h < 1:
        raise ValueError("the chart sweep needs an abelian factor (h >= 1)")
    cfg = EnumerationConfig(h, r, order_divides, constraint_mode)
    # Looked up on the module, where perfbench/spans.py wraps the W stream.
    w_specs = enumeration.abelian_factor_classes(cfg)
    lams = lattice_factor_classes(cfg)
    result = finalize_sweep(fold_chart(cfg, w_specs, lams, include_age_one))
    if result.violations:
        raise PropositionViolation(result)
    return result


def check_exception_catalog(result: SweepResult) -> SweepResult:
    """Re-check a sweep's exception rows against the unique below-1 shape.

    Every strict exception must match the shape and have age exactly 1/2;
    rows sitting exactly at 1 (threshold=terminal runs) are exempt.
    Returns the result with any failures appended as violations.
    """
    bad = [
        ViolationRecord(
            "exception-shape",
            rec.element,
            rec.age_v,
            _chart_order(rec.element),
        )
        for rec in result.exceptions
        if rec.age_v < ONE and not (rec.matches_iii and rec.age_v == Fraction(1, 2))
    ]
    if not bad:
        return result
    merged = tuple(
        sorted(
            result.violations + tuple(bad),
            key=lambda v: (v.rule, v.element.sort_key),
        )
    )
    return replace(result, violations=merged)


def _sym2_minimum(
    dim: int, order_divides: int, states: Iterable[State]
) -> tuple[Fraction | None, tuple[Spectrum, ...]]:
    """Minimum symmetric-square age over the states of dimension-dim
    spectra other than +-1, with the sorted minimizers: the chart fold at
    r = 0, which reads no costs, so none are needed."""
    result = fold_chart(EnumerationConfig(dim, 0, order_divides), states, [Spectrum()])
    return result.min_age, tuple(c.w_spec for c in result.witnesses)


def sweep_sym2(
    h: int, order_divides: int = 12
) -> tuple[Fraction | None, tuple[Spectrum, ...]]:
    """Minimum symmetric-square age over abelian-factor classes other than
    +-1, with the list of minimizers."""
    if h < 1:
        raise ValueError("symmetric-square sweep needs h >= 1")
    # Looked up on the module, where perfbench/spans.py wraps the W stream.
    states = enumeration.abelian_factor_classes(EnumerationConfig(h, 0, order_divides))
    return _sym2_minimum(h, order_divides, states)


@dataclass(frozen=True, slots=True)
class InteriorSummary:
    """Verdict for the moduli interior at genus g via the tangent action."""

    g: int
    min_age: Fraction | None
    kind: str  # terminal | canonical | not-canonical | empty
    witnesses: tuple[Spectrum, ...]


def interior_verdict(g: int, order_divides: int = 12) -> InteriorSummary:
    """Classify the interior at genus g: the tangent space at an abelian
    g-fold is the symmetric square of the abelian factor, and +-1 acts
    trivially on it, so the sweep runs over the remaining classes."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    min_age, witnesses = sweep_sym2(g, order_divides)
    return InteriorSummary(g, min_age, age_kind(min_age), witnesses)


@dataclass(frozen=True, slots=True)
class TorusSummary:
    """Ages on the bilinear-forms space for the h = 0 stratum.

    Reported separately: with no abelian factor the chart carries no
    age test of its own, and these numbers are informational only.
    """

    r: int
    min_age: Fraction | None
    witnesses: tuple[Spectrum, ...]


def torus_summary(
    r: int, order_divides: int = 12, constraint_mode: str = "integral-both"
) -> TorusSummary:
    """Minimum forms-space age over lattice classes that act effectively
    there (+-1 on the lattice is the kernel of the forms action)."""
    if constraint_mode == "unconstrained":
        states = multiset_states(r, order_divides)
    else:
        cfg = EnumerationConfig(0, r, order_divides, constraint_mode)
        states = (spectrum_state(s, order_divides) for s in lattice_factor_classes(cfg))
    min_age, witnesses = _sym2_minimum(r, order_divides, states)
    return TorusSummary(r, min_age, witnesses)


def boundary_moved_count(lambda_spec: Spectrum) -> int:
    """Dimension of the part of the bilinear-forms space the class moves:
    r*(r+1)/2 minus the fixed multiplicity of the induced action."""
    forms = forms_spectrum(lambda_spec)
    return forms.dim - fixed_multiplicity(forms)


def reduction_support(n: int, h_max: int) -> Fraction:
    """Minimum symmetric-square age over operators whose doubled homology
    spectrum is exactly one order-n Galois orbit.

    Single-orbit evidence for restricting sweeps to orders dividing 12:
    for each admissible n not dividing 12 the minimum is at least 1.
    The spectrum picks one of {q, -q} from each conjugate pair, so there
    are 2^(phi(n)/2) candidates of dimension phi(n)/2.
    """
    if n < 1:
        raise ValueError("orbit order must be positive")
    if 12 % n == 0:
        raise ValueError(f"order {n} divides 12; no reduction evidence needed")
    degree = totient(n)
    if degree % 2 == 1 and n > 2:
        raise ValueError(f"impossible embedding: orbit degree {degree} is odd")
    if degree > 2 * h_max:
        raise ValueError(
            f"orbit degree {degree} exceeds the homology budget {2 * h_max}"
        )
    pairs = [(q, -q) for q in galois_orbit(n).entries if 2 * q.num < q.den]
    states = (spectrum_state(Spectrum.of(c), n) for c in product(*pairs))
    best, _ = _sym2_minimum(degree // 2, n, states)
    if best is None:
        raise ValueError(f"order {n} yields no candidate spectrum")
    return best
