"""The integer chart fold against the object-level reference fold.

``fold_chart`` computes every age as an integer over N and builds objects
only for the rows it reports; ``reference_fold.sweep_over`` builds them for
every pair.  The two must return equal ``SweepResult``s on every chart,
order bound, mode and threshold checked here, also when the W stream is
partitioned the way ``--jobs`` partitions it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fold import sweep_over
from reidtai.cli import partition_w
from reidtai.criterion import (
    finalize_sweep,
    fold_chart,
    merge_sweeps,
    spectrum_numerators,
    sym2_age_num,
    tensor_costs,
)
from reidtai.enumeration import (
    CONSTRAINT_MODES,
    EnumerationConfig,
    abelian_factor_classes,
    element_classes_for,
    lattice_factor_classes,
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
    ws = list(abelian_factor_classes(cfg))
    lam_count = sum(1 for _ in lattice_factor_classes(cfg))
    stride = max(1, -(-len(ws) * lam_count // PAIRS_PER_CHART))
    return ws[::stride]


@pytest.mark.parametrize(
    "cfg",
    list(_charts()),
    ids=lambda c: f"N{c.order_divides}-{c.constraint_mode}-h{c.h}r{c.r}",
)
def test_fold_matches_object_route(cfg):
    ws = _w_sample(cfg)
    classes = list(element_classes_for(ws, cfg))
    for include_age_one in (False, True):
        expected = sweep_over(cfg.h, cfg.r, classes, include_age_one)
        folded = fold_chart(cfg, ws, include_age_one)
        assert folded == expected
        assert finalize_sweep(folded) == finalize_sweep(expected)


@pytest.mark.parametrize(
    "cfg, include_age_one",
    [
        (EnumerationConfig(1, 4, 12), False),
        (EnumerationConfig(2, 1, 12, "unconstrained"), True),
        (EnumerationConfig(2, 1, 24, "integral-lambda-only"), True),
    ],
)
def test_partitioned_fold_matches_object_route(cfg, include_age_one):
    ws = list(abelian_factor_classes(cfg))
    expected = finalize_sweep(
        sweep_over(cfg.h, cfg.r, element_classes_for(ws, cfg), include_age_one)
    )
    for jobs in (2, 3, 5):
        parts = [fold_chart(cfg, chunk, include_age_one) for chunk in partition_w(ws, jobs)]
        merged = parts[0]
        for part in parts[1:]:
            merged = merge_sweeps(merged, part)
        assert finalize_sweep(merged) == expected


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
    xs = spectrum_numerators(a, n)
    ys = spectrum_numerators(b, n)
    a2 = sym2_age_num(xs, n)
    cost = tensor_costs(xs, set(ys), n)
    at = sum(cost[y] for y in ys)
    assert Fraction(a2, n) == age(sym2(a))
    assert Fraction(at, n) == age(tensor(a, b))
    assert (a2 + at == 0) == v_spectrum(a, b).is_identity()


def test_numerators_reject_orders_outside_the_bound():
    with pytest.raises(ValueError):
        spectrum_numerators(Spectrum.of([rot(1, 5)]), 12)


# A chart with rows below and at 1 and with order-2 violations, so every
# field of a SweepResult is exercised by the merge.
_MERGE_CFG = EnumerationConfig(1, 2, 12, "unconstrained")
_MERGE_W = list(abelian_factor_classes(_MERGE_CFG))
_MERGE_ALL = fold_chart(_MERGE_CFG, _MERGE_W, True)


@settings(max_examples=30, deadline=None)
@given(labels=st.lists(st.integers(0, 2), min_size=len(_MERGE_W), max_size=len(_MERGE_W)))
def test_merge_sweeps_commutative_and_associative(labels):
    a, b, c = (
        fold_chart(_MERGE_CFG, [w for w, k in zip(_MERGE_W, labels) if k == part], True)
        for part in range(3)
    )
    assert merge_sweeps(a, b) == merge_sweeps(b, a)
    assert merge_sweeps(merge_sweeps(a, b), c) == merge_sweeps(a, merge_sweeps(b, c))
    assert merge_sweeps(merge_sweeps(a, b), c) == _MERGE_ALL
