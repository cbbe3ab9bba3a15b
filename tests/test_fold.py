"""The integer chart fold against the object-level reference fold.

``fold_chart`` computes every age as an integer over N and builds objects
only for the rows it reports; ``reference_fold.sweep_over`` builds them for
every pair.  The two must agree on every public field of the result and
of its records (``reference_fold.public``) on every chart, order bound,
mode and threshold checked here.  The Sym^2 table and the
torus run the same fold at r = 0, so they are checked against the
reference on the r = 0 chart.  The W stream's integer states, built block
by block, and the tensor costs the fold computes for each W it opens are
checked against the per-W ages of ``reference_fold``, and
the facts each reported row carries (chart order, kernel flag, twin sort
key) against the spectrum and twin-class route kept there.  On complete
streams the fold, which skips the W states whose Sym^2 age alone exceeds
max(best, limit), must return the full-visit fold's result tuple for
tuple (``reference_fold.full_fold``).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_fold
from reference_enumeration import spectrum_state
from reference_fold import (
    Violation,
    central_twin,
    classes_for,
    exceptional_shape,
    full_fold,
    public,
    spectrum_numerators,
    sweep_over,
    sym2_age_num,
    tensor_costs,
)
from reidtai import criterion
from reidtai.criterion import (
    ExceptionRecord,
    _tensor_costs,
    chart_order,
    check_exception_catalog,
    dedupe_exceptions,
    fold_chart,
    sweep_sym2,
    torus_summary,
    twin_sort_key,
)
from reidtai.enumeration import (
    CONSTRAINT_MODES,
    ElementClass,
    EnumerationConfig,
    _assemble,
    abelian_factor_classes,
    as_spectrum,
    lattice_factor_classes,
    lattice_residues,
    lattice_states,
    multiset_states,
    orbit_residues,
    ppav_classes,
)
from reidtai.functors import age, sym2, tensor, v_spectrum
from reidtai.rotations import Spectrum, residue_keys, rot, totient

# (order bound, largest genus).  The reference costs about 0.1 ms per pair,
# so charts with more pairs than this are checked on an every-k-th slice
# of their W stream; the Lambda stream is always complete.  At the odd
# bound 9 a central twin's entries have order 18, off the N-grid.
GRID = ((12, 5), (24, 3), (36, 3), (9, 3))
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
    classes = classes_for((as_spectrum(xs, cfg.order_divides) for xs, _ in states), cfg)
    for include_age_one in (False, True):
        expected = sweep_over(cfg.h, cfg.r, classes, include_age_one)
        folded = fold_chart(cfg, states, lattice_factor_classes(cfg), include_age_one)
        assert public(folded) == expected
        deduped = folded.replace(exceptions=dedupe_exceptions(folded.exceptions))
        assert public(deduped) == reference_fold.finalize_sweep(expected)
        # each row's integer key is its class's key, so the sorts agree too
        keyed = [*folded.exceptions, *folded.violations]
        assert all(rec.sort_key == rec.element.sort_key for rec in keyed)
        assert [key for key, _, _ in folded.witness_rows] == [
            c.sort_key for c in folded.witnesses
        ]


# Largest genus per order bound and mode of the complete-stream check
# against the full-visit fold: every chart of every genus up to it, each
# W and Lambda stream whole.
FULL_GRID = {
    12: {"integral-both": 8, "integral-lambda-only": 6, "unconstrained": 5},
    24: {"integral-both": 6, "integral-lambda-only": 4, "unconstrained": 4},
    36: {"integral-both": 6, "integral-lambda-only": 4, "unconstrained": 3},
}


def _assert_folds_agree(cfg, w_states, lams):
    # the whole SweepResult: best, witness rows, every row, violations and
    # classes_seen, under both thresholds
    w_states, lams = list(w_states), list(lams)
    for include_age_one in (False, True):
        folded = fold_chart(cfg, w_states, lams, include_age_one)
        assert folded == full_fold(cfg, w_states, lams, include_age_one), (cfg, include_age_one)


@pytest.mark.parametrize(
    "n, mode, g",
    [(n, mode, g) for n, caps in FULL_GRID.items() for mode, cap in caps.items()
     for g in range(1, cap + 1)],
)
def test_fold_matches_full_visit_fold(n, mode, g):
    for h in range(1, g + 1):
        cfg = EnumerationConfig(h, g - h, n, mode)
        _assert_folds_agree(cfg, abelian_factor_classes(cfg), lattice_factor_classes(cfg))


@pytest.mark.parametrize("n, h_max, r_max", [(12, 8, 6), (24, 6, 4), (36, 6, 3)])
def test_r0_folds_match_full_visit_fold(n, h_max, r_max):
    # the Sym^2 table and the interior (W states), the torus in every mode
    # (lattice and multiset states); at N = 12 the interior minimum passes
    # the limit from g = 6, so the cut is the best age there
    for h in range(1, h_max + 1):
        cfg = EnumerationConfig(h, 0, n)
        _assert_folds_agree(cfg, abelian_factor_classes(cfg), [()])
    for r in range(1, r_max + 1):
        cfg = EnumerationConfig(r, 0, n)
        _assert_folds_agree(cfg, lattice_states(r, n), [()])
        _assert_folds_agree(cfg, multiset_states(r, n), [()])


def test_reduction_folds_match_full_visit_fold():
    # the single-orbit candidates of reduction_support, up to degree 12
    for m in range(3, 43):
        degree = totient(m)
        if 12 % m and degree % 2 == 0 and degree <= 12:
            cfg = EnumerationConfig(degree // 2, 0, m)
            _assert_folds_agree(cfg, _assemble((orbit_residues(m, m),), degree // 2, m), [()])


def _chart(h, r, n=12):
    cfg = EnumerationConfig(h, r, n)
    return cfg, list(abelian_factor_classes(cfg)), list(lattice_factor_classes(cfg))


def _forge_costs(monkeypatch, forged_xs, costs_of_forged):
    """Make the fold's cost helper return costs_of_forged(ys) for the tuple
    forged_xs (told apart by identity from the stream's equal entries) and
    the reference costs for every other W, recording the entries of every
    call in ``opened``.  Returns the helper, which the test hands to
    ``full_fold`` too."""

    def costs(xs, ys, n):
        costs.opened.append(xs)
        if xs is forged_xs:
            return costs_of_forged(ys)
        return list(reference_fold.tensor_costs(xs, ys, n).values())

    costs.opened = []
    monkeypatch.setattr(criterion, "_tensor_costs", costs)
    return costs


def _zero_costs(ys):
    return [0] * len(ys)


@pytest.mark.parametrize("include_age_one", (False, True))
def test_fold_skips_a_state_past_the_cut_unread(monkeypatch, include_age_one):
    # chart (2, 3) reaches its best, 1/2, early; a state whose Sym^2 age
    # alone is above max(best, limit) is counted without its costs computed
    cfg, w_states, lams = _chart(2, 3)
    late = next(state for state in w_states if state[1] > 12)
    skipped = tuple(list(late[0]))  # equal to late's entries, not the same tuple
    costs = _forge_costs(monkeypatch, skipped, _zero_costs)
    folded = fold_chart(cfg, [*w_states, (skipped, late[1])], lams, include_age_one)
    assert costs.opened and not any(xs is skipped for xs in costs.opened)
    assert folded == full_fold(cfg, [*w_states, late], lams, include_age_one)
    whole = fold_chart(cfg, w_states, lams, include_age_one)
    assert folded.classes_seen == whole.classes_seen + len(lams)
    assert folded.replace(classes_seen=whole.classes_seen) == whole


def test_fold_reports_a_forged_kernel_state_after_the_best(monkeypatch):
    # best (1/2) is at or below the limit before the forged state comes: it
    # claims age 0 for W = {1/4} against every Lambda, and is still folded
    cfg, w_states, lams = _chart(1, 4)
    forged = (tuple([3]), 0)
    costs = _forge_costs(monkeypatch, forged[0], _zero_costs)
    folded = fold_chart(cfg, [*w_states, forged], lams)
    assert folded == full_fold(cfg, [*w_states, forged], lams, costs=costs)
    kernel = [v for v in folded.violations if v.rule == "kernel"]
    assert len(kernel) == len(lams)
    assert {(v.xs, v.ys) for v in kernel} == {((3,), ys) for ys in lams}
    assert fold_chart(cfg, w_states, lams).violations == ()


def test_fold_keeps_a_state_at_the_cut(monkeypatch):
    # a state whose Sym^2 age equals the cut is folded: under the terminal
    # threshold the cut is 1 once best is below it, and zero tensor costs
    # put every pair of it at exactly age 1, a reported row
    cfg, w_states, lams = _chart(2, 3)
    at_cut = next(state for state in w_states if state[1] == 12)
    state = (tuple(list(at_cut[0])), 12)
    costs = _forge_costs(monkeypatch, state[0], _zero_costs)
    folded = fold_chart(cfg, [*w_states, state], lams, include_age_one=True)
    assert folded == full_fold(cfg, [*w_states, state], lams, include_age_one=True, costs=costs)
    whole = fold_chart(cfg, w_states, lams, include_age_one=True)
    new_rows = set(folded.exceptions) - set(whole.exceptions)
    assert {(rec.xs, rec.ys, rec.av) for rec in new_rows} == {(state[0], ys, 12) for ys in lams}
    # on the interior at g = 6 the best (7/6) is above the limit, so the cut
    # is the best: a second state at it adds witnesses
    cfg = EnumerationConfig(6, 0, 12)
    w_states = list(abelian_factor_classes(cfg))
    best = fold_chart(cfg, w_states, [()]).best
    assert best == 14
    first = next(state for state in w_states if state[1] == best)
    folded = fold_chart(cfg, [*w_states, first], [()])
    assert folded == full_fold(cfg, [*w_states, first], [()])
    assert len(folded.witness_rows) == len(fold_chart(cfg, w_states, [()]).witness_rows) + 1


@pytest.mark.parametrize("ragged", [(0,), (0, 6, 6), (0, 6, 0, 6)])
def test_fold_rejects_a_lambda_tuple_of_another_rank(ragged):
    # the fold sums costs column by column over the Lambda tuples, and a
    # short tuple would silently drop columns: every tuple must have r entries
    cfg, w_states, lams = _chart(1, 2)
    assert {len(ys) for ys in lams} == {2}
    with pytest.raises(ValueError, match="r = 2"):
        fold_chart(cfg, w_states, [*lams[:3], ragged, *lams[3:]])
    # the r = 0 folds pass one empty tuple
    cfg = EnumerationConfig(2, 0, 12)
    w_states = list(abelian_factor_classes(cfg))
    with pytest.raises(ValueError, match="r = 0"):
        fold_chart(cfg, w_states, [(6,)])
    assert fold_chart(cfg, w_states, [()]) == full_fold(cfg, w_states, [()])


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
        lams = [as_spectrum(ys, n) for ys in lams]
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
    # a whole spectrum is one block of the W stream; the fold's cost helper
    # at every residue is indexed by the residue
    xs, ys = spectrum_numerators(a, n), spectrum_numerators(b, n)
    _, a2 = spectrum_state(xs, n)
    cost = _tensor_costs(xs, range(n), n)
    at = sum(cost[y] for y in ys)
    assert Fraction(a2, n) == age(sym2(a))
    assert Fraction(at, n) == age(tensor(a, b))
    assert (a2 + at == 0) == v_spectrum(a, b).is_identity()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_facts_match_the_spectrum_route(data):
    # the fold reads each reported row's chart order, kernel flag and twin
    # key off integers; the reference reads them off spectra and classes
    n = data.draw(st.sampled_from((9, 12, 24, 36)))
    w = data.draw(_spectra(n, min_size=1))
    lam = data.draw(_spectra(n))
    xs, ys = spectrum_numerators(w, n), spectrum_numerators(lam, n)
    c = ElementClass.build(w, lam)
    assert chart_order(xs, ys, n) == reference_fold.chart_order(c)
    _, a2 = spectrum_state(xs, n)
    av = a2 + sum(_tensor_costs(xs, ys, n))
    assert (av == 0) == v_spectrum(w, lam).is_identity() == c.kernel_on_v
    # the fold's lazy key table gives the class's key, and a record over n
    # gives back the class and its twin's key
    keys = residue_keys(n)
    assert (c.h, c.r, tuple(keys[x] for x in xs), tuple(keys[y] for y in ys)) == c.sort_key
    rec = ExceptionRecord(c.sort_key, xs, ys, n, a2, av, exceptional_shape(c))
    assert rec.element == ElementClass(c.h, c.r, c.w_spec, c.lambda_spec, c.order, av == 0)
    assert twin_sort_key(rec) == central_twin(c).sort_key


@pytest.mark.parametrize("n", (9, 12, 24))
def test_violation_orders_match_the_spectrum_route(n):
    # the fold's order-2 rows and the catalog check's exception-shape rows
    # carry the integer chart order
    rules = set()
    for h in range(1, 5):
        cfg = EnumerationConfig(h, 4 - h, n, "unconstrained")
        folded = fold_chart(cfg, abelian_factor_classes(cfg), lattice_factor_classes(cfg))
        result = folded.replace(exceptions=dedupe_exceptions(folded.exceptions))
        result = check_exception_catalog(result)
        for v in result.violations:
            rules.add(v.rule)
            assert v.v_order == reference_fold.chart_order(v.element), v
    assert rules == {"order-2", "exception-shape"}


def test_twin_key_leaves_the_rotation_cap():
    # at an odd bound above 180 a twin has order 2N > 360, which no
    # RotationNumber can hold; the key needs no twin, so dedupe still pairs
    c = ElementClass.build(Spectrum.of([rot(1, 359)]), Spectrum.of([rot(0, 1)]))
    rec = ExceptionRecord(c.sort_key, (1,), (0,), 359, 2, 3, False)
    assert twin_sort_key(rec) == (1, 1, ((718, 361),), ((2, 1),))
    with pytest.raises(ValueError):
        central_twin(c)


def test_numerators_reject_orders_outside_the_bound():
    with pytest.raises(ValueError):
        spectrum_numerators(Spectrum.of([rot(1, 5)]), 12)


# (h, r) charts per order bound: every state of their W streams is checked.
STATE_CHARTS = {
    12: ((1, 3), (2, 2), (3, 1), (4, 1), (5, 0), (6, 2)),
    24: ((1, 2), (2, 2), (3, 1), (4, 0)),
    36: ((1, 2), (2, 2), (3, 1)),
}


@pytest.mark.parametrize("mode", CONSTRAINT_MODES)
@pytest.mark.parametrize("n", STATE_CHARTS)
def test_states_carry_reference_ages(n, mode):
    # the block-by-block a2 and the fold's tensor costs at the lattice
    # residues equal the per-W recomputation
    for h, r in STATE_CHARTS[n]:
        cfg = EnumerationConfig(h, r, n, mode)
        ys = lattice_residues(cfg)
        for xs, a2 in abelian_factor_classes(cfg):
            assert xs == spectrum_numerators(as_spectrum(xs, n), n)
            assert a2 == sym2_age_num(xs, n)
            costs = tensor_costs(xs, ys, n)
            assert _tensor_costs(xs, ys, n) == [costs[y] for y in ys]


def test_fold_records_a_zero_age_pair_that_is_not_plus_minus_one(monkeypatch):
    # A hand-built state claims age 0 for W = {1/4} against Lambda = {1/2}:
    # that pair moves the chart, so the kernel law must flag it.
    cfg = EnumerationConfig(1, 1, 12)
    assert lattice_residues(cfg) == (0, 6)
    w, lam = Spectrum.of([rot(1, 4)]), Spectrum.of([rot(1, 2)])
    forged = (tuple([3]), 0)
    _forge_costs(monkeypatch, forged[0], _zero_costs)
    result = fold_chart(cfg, [forged], [(6,)])
    # the class carries the fold's kernel flag (its age is 0), not the
    # spectrum route's, which knows the pair moves the chart
    c = ElementClass(1, 1, w, lam, 4, True)
    assert ElementClass.build(w, lam) == ElementClass(1, 1, w, lam, 4, False)
    assert public(result).violations == (Violation("kernel", c, Fraction(0), 1),)
    assert result.min_age is None
    # the true -1 pair has age 0 too (its costs at 0 and 1/2 are 1/2 and
    # 0), and is the kernel: no violation
    assert _tensor_costs((6,), (0, 6), 12) == [6, 0]
    result = fold_chart(cfg, [((6,), 0)], [(6,)])
    assert result.violations == ()
    assert result.min_age is None
    assert result.classes_seen == 1
