"""The integer chart fold against the object-level reference fold.

``fold_chart`` computes every age as an integer over N and builds objects
only for the rows it reports; ``reference_fold.sweep_over`` builds them for
every pair.  The two must return equal ``SweepResult``s on every chart,
order bound, mode and threshold checked here.  The Sym^2 table and the
torus run the same fold at r = 0, so they are checked against the
reference on the r = 0 chart.  The W stream's integer states, built block
by block, are checked against the per-W ages of ``reference_fold``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fold import (
    classes_for,
    spectrum_numerators,
    sweep_over,
    sym2_age_num,
    tensor_costs,
)
from reidtai.criterion import (
    ViolationRecord,
    finalize_sweep,
    fold_chart,
    sweep_sym2,
    torus_summary,
)
from reidtai.enumeration import (
    CONSTRAINT_MODES,
    ElementClass,
    EnumerationConfig,
    abelian_factor_classes,
    as_spectrum,
    lattice_factor_classes,
    lattice_residues,
    numerators,
    ppav_classes,
    spectrum_state,
)
from reidtai.functors import age, sym2, tensor, v_spectrum
from reidtai.rotations import Spectrum, rot

# (order bound, largest genus).  The reference costs about 0.1 ms per pair,
# so charts with more pairs than this are checked on an every-k-th slice
# of their W stream; the Lambda stream is always complete.
GRID = ((12, 5), (24, 3), (36, 3))
PAIRS_PER_CHART = 600


def _charts():
    for n, g_max in GRID:
        for mode in CONSTRAINT_MODES:
            for g in range(1, g_max + 1):
                for h in range(1, g + 1):
                    yield EnumerationConfig(h, g - h, n, mode)


def _w_sample(cfg):
    states = list(abelian_factor_classes(cfg))
    lam_count = sum(1 for _ in lattice_factor_classes(cfg))
    stride = max(1, -(-len(states) * lam_count // PAIRS_PER_CHART))
    return states[::stride]


@pytest.mark.parametrize(
    "cfg",
    list(_charts()),
    ids=lambda c: f"N{c.order_divides}-{c.constraint_mode}-h{c.h}r{c.r}",
)
def test_fold_matches_object_route(cfg):
    states = _w_sample(cfg)
    classes = classes_for((as_spectrum(xs, cfg.order_divides) for xs, _, _ in states), cfg)
    for include_age_one in (False, True):
        expected = sweep_over(cfg.h, cfg.r, classes, include_age_one)
        folded = fold_chart(cfg, states, lattice_factor_classes(cfg), include_age_one)
        assert folded == expected
        assert finalize_sweep(folded) == finalize_sweep(expected)


def _reference_sym2_minimum(dim, spectra):
    # the r = 0 chart: V = Sym^2, whose kernel is +-1
    classes = [ElementClass.build(s, Spectrum()) for s in spectra]
    result = sweep_over(dim, 0, classes)
    return result.min_age, tuple(c.w_spec for c in result.witnesses)


@pytest.mark.parametrize(
    "n, h", [(12, h) for h in range(1, 7)] + [(n, h) for n in (24, 36) for h in (1, 2, 3, 4)]
)
def test_sym2_table_matches_object_route(n, h):
    assert sweep_sym2(h, n) == _reference_sym2_minimum(h, ppav_classes(h, n))


@pytest.mark.parametrize("n, r_max", [(12, 5), (24, 3), (36, 3)])
@pytest.mark.parametrize("mode", CONSTRAINT_MODES)
def test_torus_matches_object_route(n, r_max, mode):
    # the forms space is Sym^2 of the lattice, so the fold runs on lattice
    # spectra; unconstrained rank 5 at N = 36 alone has 658,008 of them
    for r in range(r_max + 1):
        lams = lattice_factor_classes(EnumerationConfig(0, r, n, mode))
        summary = torus_summary(r, n, mode)
        assert (summary.min_age, summary.witnesses) == _reference_sym2_minimum(r, lams)


def _spectra(n, min_size=0):
    # Entries 0 and 1/2 are drawn often, so +-1 pairs (the chart's kernel)
    # come up as well as generic ones.
    entry = st.one_of(st.integers(0, n - 1), st.sampled_from((0, n // 2)))
    return st.lists(entry, min_size=min_size, max_size=5).map(
        lambda ks: Spectrum.of(rot(k, n) for k in ks)
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integer_ages_match_fraction_ages(data):
    n = data.draw(st.sampled_from((12, 24, 36)))
    a = data.draw(_spectra(n, min_size=1))
    b = data.draw(_spectra(n))
    # a whole spectrum is one block of the W stream
    ys = numerators(b, n)
    xs, a2, cost = spectrum_state(a, n, tuple(range(n)))
    at = sum(cost[y] for y in ys)
    assert xs == spectrum_numerators(a, n)
    assert Fraction(a2, n) == age(sym2(a))
    assert Fraction(at, n) == age(tensor(a, b))
    assert (a2 + at == 0) == v_spectrum(a, b).is_identity()


def test_numerators_reject_orders_outside_the_bound():
    with pytest.raises(ValueError):
        numerators(Spectrum.of([rot(1, 5)]), 12)
    with pytest.raises(ValueError):
        spectrum_state(Spectrum.of([rot(1, 5)]), 12)


# (h, r) charts per order bound: every state of their W streams is checked.
STATE_CHARTS = {
    12: ((1, 3), (2, 2), (3, 1), (4, 1), (5, 0), (6, 2)),
    24: ((1, 2), (2, 2), (3, 1), (4, 0)),
    36: ((1, 2), (2, 2), (3, 1)),
}


@pytest.mark.parametrize("mode", CONSTRAINT_MODES)
@pytest.mark.parametrize("n", STATE_CHARTS)
def test_states_carry_reference_ages(n, mode):
    # the block-by-block a2 and cost equal the per-W recomputation
    for h, r in STATE_CHARTS[n]:
        cfg = EnumerationConfig(h, r, n, mode)
        ys = lattice_residues(cfg)
        for xs, a2, cost in abelian_factor_classes(cfg):
            assert xs == spectrum_numerators(as_spectrum(xs, n), n)
            assert a2 == sym2_age_num(xs, n)
            costs = tensor_costs(xs, ys, n)
            assert list(cost) == [costs[y] for y in ys]


def test_fold_records_a_zero_age_pair_that_is_not_plus_minus_one():
    # A hand-built state claims age 0 for W = {1/4} against Lambda = {1/2}:
    # that pair moves the chart, so the kernel law must flag it.
    cfg = EnumerationConfig(1, 1, 12)
    assert lattice_residues(cfg) == (0, 6)
    w, lam = Spectrum.of([rot(1, 4)]), Spectrum.of([rot(1, 2)])
    result = fold_chart(cfg, [((3,), 0, (0, 0))], [lam])
    c = ElementClass.build(w, lam)
    assert result.violations == (ViolationRecord("kernel", c, Fraction(0), 1),)
    assert result.min_age is None
    # the true -1 pair has age 0 too, and is the kernel: no violation
    result = fold_chart(cfg, [((6,), 0, (6, 0))], [lam])
    assert result.violations == ()
    assert result.min_age is None
    assert result.classes_seen == 1
