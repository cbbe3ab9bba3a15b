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

from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from itertools import compress, count, repeat
from math import gcd
from operator import add, not_

from . import enumeration
from .enumeration import (
    ElementClass,
    EnumerationConfig,
    State,
    _assemble,
    _tensor_costs,
    as_spectrum,
    lattice_factor_classes,
    lattice_residues,
    lattice_states,
    multiset_states,
    orbit_residues,
)
from .functors import age, fixed_multiplicity, forms_spectrum
from .rotations import Frozen, Spectrum, residue_keys, totient

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


def age_kind(x: Fraction | int | None, n: int = 1) -> str:
    """The age criterion on a minimum age x/n: above 1 is terminal, exactly
    1 canonical, below 1 neither; no age at all is empty.  x is a chart's
    integer over N or a Fraction over 1: either compares exactly, no float."""
    if x is None:
        return "empty"
    if x > n:
        return "terminal"
    if x == n:
        return "canonical"
    return "not-canonical"


class Verdict(Frozen):
    """Classification of a cyclic germ with the witnessing power and age."""

    # kind: terminal | canonical-not-terminal | not-canonical | quasi-reflection
    __slots__ = ("kind", "witness_power", "witness_age")


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


def _element(
    xs: tuple[int, ...], ys: tuple[int, ...], n: int, kernel: bool = False
) -> ElementClass:
    """The class of a pair given by its numerators over n.  The kernel flag
    is the pair's age (zero), not the +-1 rule it is checked against."""
    order = n // gcd(n, *xs, *ys)
    return ElementClass(len(xs), len(ys), as_spectrum(xs, n), as_spectrum(ys, n), order, kernel)


class _Pair:
    """The attributes shared by the records of a reported (W, Lambda) pair:
    a mixin in front of each record's ``namedtuple`` base, which names the
    fields.  A record is a tuple of integers over N and sorts as a plain
    tuple; xs and ys are the W and Lambda numerators over n in canonical
    order, and av is n times the chart age.

    Each record leads with its ordering key, ``ElementClass.sort_key`` of
    the pair, so records sort by it.  The class and the Fraction ages are
    built only when read.
    """

    __slots__ = ()

    h = property(lambda self: self.sort_key[0])
    r = property(lambda self: self.sort_key[1])

    @property
    def element(self) -> ElementClass:
        return _element(self.xs, self.ys, self.n, self.av == 0)

    @property
    def age_v(self) -> Fraction:
        from fractions import Fraction  # built only when an age is read
        return Fraction(self.av, self.n)


class ExceptionRecord(_Pair, namedtuple("ExceptionRecord", "sort_key xs ys n a2 av matches_iii")):
    """One class at or below the age threshold, with its component ages:
    (sort key, xs, ys, n, n * Sym^2 age, n * chart age, shape flag)."""

    __slots__ = ()

    @property
    def age_sym2(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.a2, self.n)

    @property
    def age_tensor(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.av - self.a2, self.n)


class ViolationRecord(_Pair, namedtuple("ViolationRecord", "rule sort_key xs ys n av v_order")):
    """A machine-checked claim that failed, with the offending class:
    (rule, sort key, xs, ys, n, n * chart age, order on the chart), so
    violations sort by rule, then by class.  The rule is "kernel",
    "order-2" or "exception-shape"."""

    __slots__ = ()


class PropositionViolation(Exception):
    """Raised when a sweep meets a class that contradicts a checked claim."""

    def __init__(self, result: SweepResult):
        super().__init__(result)
        self.result = result

    def __str__(self) -> str:
        # built when shown: the CLI reads .result and never shows it
        lines = [
            f"{v.rule}: {v.element} age_v={v.age_v} order-on-chart={v.v_order}"
            for v in self.result.violations
        ]
        return "; ".join(lines) or "proposition violation"


class SweepResult(
    namedtuple("SweepResult", "h r classes_seen n best witness_rows exceptions violations")
):
    """Result of a chart sweep: the minimum age with its witnesses and the
    rows at or below the threshold, as integers over N = n.

    best is n times the minimum age (None when no pair moves the chart),
    and each witness row is (sort key, xs, ys) like a record's head.  The
    records are :class:`ExceptionRecord` and :class:`ViolationRecord`
    named tuples of integers, rule names and shape flags, which ``report``
    turns into rows; a fan-out worker sends those rows, not the result
    (``cli._catalog_chart``).  ``min_age`` and ``witnesses`` build the
    Fraction and the classes when read.
    """

    __slots__ = ()

    @property
    def min_age(self) -> Fraction | None:
        from fractions import Fraction  # built only when an age is read
        return None if self.best is None else Fraction(self.best, self.n)

    @property
    def witnesses(self) -> tuple[ElementClass, ...]:
        return tuple(_element(xs, ys, self.n) for _, xs, ys in self.witness_rows)

    def replace(self, **fields: object) -> SweepResult:
        """This result with the named fields replaced."""
        if not fields.keys() <= set(self._fields):
            raise TypeError(f"SweepResult fields are {self._fields}, got {sorted(fields)}")
        return self._replace(**fields)


def twin_sort_key(rec: ExceptionRecord) -> tuple:
    """The sort key of the record's central twin, the other lift of the
    same chart transformation (every eigenvalue shifted by 1/2 on both
    factors), without building the twin: each entry x/n is keyed as
    x/n + 1/2 by ``residue_keys(n, True)``.  The twin's orders may exceed
    MAX_DENOMINATOR.  ``central_twin`` in ``tests/reference_fold.py``
    builds the twin as a class."""
    keys = residue_keys(rec.n, True).__getitem__
    return (*rec.sort_key[:2], tuple(sorted(map(keys, rec.xs))), tuple(sorted(map(keys, rec.ys))))


def dedupe_exceptions(records: Iterable[ExceptionRecord]) -> tuple[ExceptionRecord, ...]:
    """One exception record per chart germ, in sort-key order.

    The two central lifts of a class always score the same ages, so the
    catalog keeps a single row per lift pair: the lift with the canonical
    below-1 shape when one of the two has it, otherwise the lift that
    sorts first.  A pair is grouped by the smaller of its sort key and its
    twin's, both read off the integer records.  Lifts that age differently
    raise ValueError.
    """
    groups: dict[tuple, list[ExceptionRecord]] = {}
    for rec in records:
        groups.setdefault(min(rec.sort_key, twin_sort_key(rec)), []).append(rec)
    out = []
    for group in groups.values():
        first = group[0]
        if any(r.av * first.n != first.av * r.n for r in group):
            raise ValueError(
                "central lifts must age equally: "
                + "; ".join(f"{r.element} ages {r.age_v}" for r in group)
            )
        shaped = [r for r in group if r.matches_iii]
        out.append(shaped[0] if shaped else min(group))
    return tuple(sorted(out))


def chart_order(xs: Sequence[int], ys: Sequence[int], n: int) -> int:
    """The order of a pair's action on the chart Sym^2 W + W (x) Lambda,
    from its numerators over n: n // gcd(n, {x_i + x_j}, {x + y})."""
    return n // gcd(
        n,
        *(x + xs[j] for i, x in enumerate(xs) for j in range(i, len(xs))),
        *(x + y for x in xs for y in ys),
    )


def _plus_minus_one(xs: tuple[int, ...], ys: tuple[int, ...], n: int) -> bool:
    """True iff the pair acts as +1 or -1: one common entry, 0 or 1/2."""
    values = set(xs).union(ys)
    return len(values) <= 1 and all(2 * v % n == 0 for v in values)


def _exceptional(xs: tuple[int, ...], ys: tuple[int, ...], n: int) -> bool:
    """The unique below-1 shape on numerators over n: h = 1 with W = {1/2}
    (the abelian factor acting by -1), and Lambda one 0 with r - 1 halves.
    ``exceptional_shape`` in ``tests/reference_fold.py`` reads it off a
    class."""
    half = n // 2
    return n % 2 == 0 and xs == (half,) and ys.count(0) == 1 and ys.count(half) == len(ys) - 1


def fold_chart(
    cfg: EnumerationConfig,
    w_states: Iterable[State],
    lams: Iterable[tuple[int, ...]],
    include_age_one: bool = False,
) -> SweepResult:
    """Fold chart ages over every (W, Lambda) pair, both sides integer: W
    from the states (entries, a2) of w_states, Lambda from lams, numerators
    over N in canonical order (as ``enumeration.abelian_factor_classes``
    and ``lattice_factor_classes`` yield them for cfg).

    Each Lambda tuple has cfg.r entries (else ValueError).  Ages are
    integers over N = cfg.order_divides: a pair's chart age is the state's
    Sym^2 age plus its tensor costs at Lambda's entries, which
    ``enumeration._tensor_costs`` computes at ``lattice_residues(cfg)``.
    The Lambda stream is read once as r columns of lattice indices, and an
    opened state's ages are summed column by column, r C-level adds per
    pair (``full_fold`` sums each pair's costs on its own).  Age 0
    means the pair acts trivially on the chart (the kernel) and is skipped;
    the identity pair is not counted.  The kernel must be +-1: a zero-age
    pair that is not becomes a ``kernel`` violation.  The result reports
    the minimum's witnesses and the rows below 1 (or at 1 with
    include_age_one) as integer records over N, each with its sort key
    computed once from the lazy key table ``residue_keys(N)``; the order-2
    check runs on those rows only, and no spectrum, class or Fraction is
    built.  Violations are collected, not raised; :func:`sweep_v` decides.

    Every tensor cost is a sum of residues mod N, so it is >= 0, and a
    state's Sym^2 age a2 bounds the age of each of its pairs from below.
    Once best is set, a state with a2 > max(best, limit) is counted
    (|Lambda| pairs) and its costs are never computed: none of its pairs is
    a witness, a row at or below the threshold, or a kernel pair (age 0
    needs a2 = 0), and the identity pair has a2 = 0.  The result is the
    full visit's, tuple for tuple (``full_fold`` in
    ``tests/reference_fold.py``); the streams still yield every state.

    With lams = [()] the chart is Sym^2 W alone and the kernel is +-1:
    the interior and the Sym^2 table (W states), the torus forms space
    (lattice or multiset states) and the reduction evidence (single-orbit
    states), every one a stream of ``enumeration._assemble``.
    """
    n = cfg.order_divides
    lams = list(lams)
    if any(map(cfg.r.__ne__, map(len, lams))):
        raise ValueError(f"every Lambda tuple of the chart must have r = {cfg.r} entries")
    lattice = lattice_residues(cfg)
    position = {y: k for k, y in enumerate(lattice)}
    # the lattice indices column by column: columns[i][j] indexes lams[j][i]
    columns = list(zip(*(map(position.__getitem__, ys) for ys in lams)))
    width = len(lams)
    identity_lam = any(not any(ys) for ys in lams)
    limit = n if include_age_one else n - 1
    seen = 0
    best: int | None = None
    cut: float = float("inf")  # max(best, limit) once best is set
    # Reported rows stay integer references until the fold is done:
    # witnesses and zero-age pairs as (entries, lattice index), threshold
    # rows with their sym2 and chart ages appended.
    witnesses: list[tuple[tuple[int, ...], int]] = []
    kernel: list[tuple[tuple[int, ...], int]] = []
    rows: list[tuple[tuple[int, ...], int, int, int]] = []
    for xs, a2 in w_states:
        if a2 > cut:
            # every pair of this W ages at least a2 > best, limit and 0
            seen += width
            continue
        cost_at = _tensor_costs(xs, lattice, n).__getitem__
        ages = repeat(a2, width)
        for col in columns:
            ages = map(add, ages, map(cost_at, col))
        ages = list(ages)
        seen += width
        if identity_lam and not any(xs):
            seen -= 1
        if 0 in ages:
            kernel.extend((xs, j) for j in compress(count(), map(not_, ages)))
        low = min(filter(None, ages), default=None)
        if low is None:
            continue
        if best is None or low < best:
            best, witnesses = low, []
            cut = max(best, limit)
        if low == best:
            witnesses.extend((xs, j) for j in compress(count(), map(low.__eq__, ages)))
        if low <= limit:
            rows.extend(
                (xs, j, a2, ages[j])
                for j in compress(count(), map(limit.__ge__, ages)) if ages[j]
            )

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
            v_order = chart_order(xs, ys, n)
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
    result = fold_chart(cfg, w_specs, lams, include_age_one)
    result = result.replace(exceptions=dedupe_exceptions(result.exceptions))
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
        ViolationRecord("exception-shape", key, xs, ys, n, av, chart_order(xs, ys, n))
        for key, xs, ys, n, _, av, shaped in result.exceptions
        if av < n and not (shaped and 2 * av == n)
    ]
    if not bad:
        return result
    return result.replace(violations=tuple(sorted(result.violations + tuple(bad))))


def _sym2_minimum(
    dim: int, order_divides: int, states: Iterable[State]
) -> tuple[Fraction | None, tuple[Spectrum, ...]]:
    """Minimum symmetric-square age over the states of dimension-dim
    spectra other than +-1, with the sorted minimizers: the chart fold at
    r = 0, which has no lattice residues, so no costs.  A zero-age state
    that is not +-1 raises :class:`PropositionViolation` with its
    ``kernel`` records; the order-2 law is not claimed at r = 0."""
    result = fold_chart(EnumerationConfig(dim, 0, order_divides), states, [()])
    kernel = tuple(v for v in result.violations if v.rule == "kernel")
    if kernel:
        raise PropositionViolation(result.replace(violations=kernel))
    return result.min_age, tuple(as_spectrum(xs, result.n) for _, xs, _ in result.witness_rows)


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


class InteriorSummary(Frozen):
    """Verdict for the moduli interior at genus g via the tangent action."""

    # kind: terminal | canonical | not-canonical | empty
    __slots__ = ("g", "min_age", "kind", "witnesses")


def interior_verdict(g: int, order_divides: int = 12) -> InteriorSummary:
    """Classify the interior at genus g: the tangent space at an abelian
    g-fold is the symmetric square of the abelian factor, and +-1 acts
    trivially on it, so the sweep runs over the remaining classes."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    min_age, witnesses = sweep_sym2(g, order_divides)
    return InteriorSummary(g, min_age, age_kind(min_age), witnesses)


class TorusSummary(Frozen):
    """Ages on the bilinear-forms space for the h = 0 stratum.

    Reported separately: with no abelian factor the chart carries no
    age test of its own, and these numbers are informational only.
    """

    __slots__ = ("r", "min_age", "witnesses")


def torus_summary(
    r: int, order_divides: int = 12, constraint_mode: str = "integral-both"
) -> TorusSummary:
    """Minimum forms-space age over lattice classes that act effectively
    there (+-1 on the lattice is the kernel of the forms action)."""
    cfg = EnumerationConfig(0, r, order_divides, constraint_mode)
    states = multiset_states if cfg.constraint_mode == "unconstrained" else lattice_states
    min_age, witnesses = _sym2_minimum(r, order_divides, states(r, order_divides))
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
    The spectrum picks one of {q, -q} from each conjugate pair (the W
    rule on one orbit level): 2^(phi(n)/2) candidates of dimension phi(n)/2.
    """
    if n < 1:
        raise ValueError("orbit order must be positive")
    if 12 % n == 0:
        raise ValueError(f"order {n} divides 12; no reduction evidence needed")
    degree = totient(n)  # even, as n > 2 here
    if degree > 2 * h_max:
        raise ValueError(
            f"orbit degree {degree} exceeds the homology budget {2 * h_max}"
        )
    states = _assemble((orbit_residues(n, n),), degree // 2, n)
    best, _ = _sym2_minimum(degree // 2, n, states)
    if best is None:
        raise ValueError(f"order {n} yields no candidate spectrum")
    return best
