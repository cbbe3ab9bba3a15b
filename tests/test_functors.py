"""Age and the symmetric-square / tensor calculus."""

import cmath
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reidtai.criterion import central_twin
from reidtai.enumeration import (
    ElementClass,
    lattice_classes,
    ppav_classes,
    rotation_universe,
)
from reidtai.functors import (
    age,
    direct_sum,
    fixed_multiplicity,
    forms_spectrum,
    power,
    sym2,
    tensor,
    v_spectrum,
)
from reidtai.rotations import Spectrum, parse_spectrum, rot


F = Fraction
S = parse_spectrum


def brute_pair_count_zero(entries):
    """Count unordered index pairs (i <= j) summing to an integer."""
    count = 0
    for i in range(len(entries)):
        for j in range(i, len(entries)):
            total = entries[i].fraction + entries[j].fraction
            if total.denominator == 1:
                count += 1
    return count


def all_small_spectra(max_dim, order_divides):
    universe = rotation_universe(order_divides)
    for dim in range(max_dim + 1):
        for combo in combinations_with_replacement(universe, dim):
            yield Spectrum(combo)


@pytest.mark.parametrize(
    "text, expected",
    [("1/2", F(1, 2)), ("1/3, 2/3", F(1)), ("", F(0))],
)
def test_age_examples(text, expected):
    assert age(S(text)) == expected


@pytest.mark.parametrize(
    "a, expected",
    [
        ("1/2", "0"),
        ("1/3, 2/3", "2/3, 0, 1/3"),
        ("1/4, 3/4", "1/2, 0, 1/2"),
    ],
)
def test_sym2_examples(a, expected):
    # the {1/4, 3/4} case is cross-checked numerically in test_oracle
    assert sym2(S(a)) == S(expected)


def test_tensor_examples():
    # dimension-1 abelian factor acting by -1 against rank 5: four of the
    # five products cancel to 1, one stays at -1, so the block ages 1/2
    t = tensor(S("1/2"), S("0, 1/2, 1/2, 1/2, 1/2"))
    assert t == S("1/2, 0, 0, 0, 0")
    assert age(t) == F(1, 2)
    b = S("1/3, 1/4, 0")
    assert tensor(S("0"), b) == b
    assert tensor(S("1/3"), S("1/2")) == S("5/6")


def test_direct_sum_examples():
    assert direct_sum(S("0"), S("1/2")) == S("0, 1/2")
    assert direct_sum(Spectrum(), S("1/6")) == S("1/6")
    v = direct_sum(sym2(S("1/2")), tensor(S("1/2"), S("0, 1/2, 1/2, 1/2")))
    assert v == S("0, 1/2, 0, 0, 0")
    assert age(v) == F(1, 2)


def test_power_examples():
    assert power(S("1/3, 2/3"), 3) == S("0, 0")
    assert power(S("1/4"), 2) == S("1/2")
    assert power(S("1/12, 5/12"), 5) == S("5/12, 1/12")
    with pytest.raises(ValueError):
        power(S("1/2"), -1)


def test_power_against_unit_circle():
    # raise the actual roots of unity to the k-th power numerically;
    # match angles circularly (0.999... and 0 are the same angle)
    s = S("1/12, 5/12, 7/12, 1/3")
    for k in range(13):
        remaining = [float(q.fraction) for q in power(s, k)]
        for q in s:
            x = (
                cmath.phase(cmath.exp(2j * cmath.pi * float(q.fraction)) ** k)
                / (2 * cmath.pi)
            ) % 1.0
            def circ(i):
                d = abs(x - remaining[i]) % 1.0
                return min(d, 1.0 - d)
            best = min(range(len(remaining)), key=circ)
            assert circ(best) < 1e-9
            remaining.pop(best)


def test_fixed_multiplicity():
    assert fixed_multiplicity(S("0, 1/2, 0")) == 2
    big = sym2(S("0, 1/2, 1/2, 1/2, 1/2"))
    assert big.dim == 15
    assert fixed_multiplicity(big) == 11
    assert fixed_multiplicity(big) == brute_pair_count_zero(
        S("0, 1/2, 1/2, 1/2, 1/2").entries
    )
    assert fixed_multiplicity(Spectrum()) == 0


def test_v_spectrum_examples():
    assert age(v_spectrum(S("1/2"), S("0, 1/2, 1/2, 1/2"))) == F(1, 2)
    # identity on the abelian factor kills the Sym^2 block only; each of
    # the h tensor copies still carries the lattice ages
    assert age(v_spectrum(S("0, 0, 0"), S("1/3, 2/3, 1/2"))) == 3 * age(
        S("1/3, 2/3, 1/2")
    )
    assert age(v_spectrum(S("0, 0, 0"), S("0, 0"))) == 0
    assert v_spectrum(S("1/3, 2/3"), Spectrum()) == S("2/3, 0, 1/3")
    assert age(v_spectrum(S("1/3, 2/3"), Spectrum())) == 1


def test_forms_spectrum_examples():
    forms = forms_spectrum(S("0, 1/2, 1/2, 1/2, 1/2"))
    assert forms.dim == 15
    assert fixed_multiplicity(forms) == 11
    assert forms_spectrum(S("0")) == S("0")
    assert forms_spectrum(S("1/2, 1/2")) == S("0, 0, 0")


def test_age_additive_over_direct_sum():
    rng = random.Random(7)
    universe = rotation_universe(12)
    for _ in range(300):
        x = Spectrum.of(rng.choices(universe, k=rng.randrange(0, 6)))
        y = Spectrum.of(rng.choices(universe, k=rng.randrange(0, 6)))
        assert age(direct_sum(x, y)) == age(x) + age(y)


def test_age_plus_negated_age_counts_moved_dimension():
    # q + (1 - q) = 1 for each nonzero entry, exhaustively at dim <= 6
    for s in all_small_spectra(6, 12):
        assert age(s) + age(s.negated()) == s.dim - fixed_multiplicity(s)


def test_functors_commute_with_power():
    # exhaustive at dim <= 2 over denominators dividing 6
    small = list(all_small_spectra(2, 6))
    for a in small:
        for k in range(7):
            assert power(sym2(a), k) == sym2(power(a, k))
        for b in small:
            for k in range(7):
                assert power(tensor(a, b), k) == tensor(power(a, k), power(b, k))
    # seeded random layer over denominators dividing 12
    rng = random.Random(99)
    universe = rotation_universe(12)
    for _ in range(200):
        a = Spectrum.of(rng.choices(universe, k=rng.randrange(0, 4)))
        b = Spectrum.of(rng.choices(universe, k=rng.randrange(0, 4)))
        k = rng.randrange(0, 13)
        assert power(sym2(a), k) == sym2(power(a, k))
        assert power(tensor(a, b), k) == tensor(power(a, k), power(b, k))


@pytest.mark.parametrize("h, r", [(0, 0), (0, 3), (1, 0), (1, 4), (2, 3), (3, 2), (4, 0)])
def test_dimension_bookkeeping(h, r, seed=5):
    rng = random.Random(seed + h * 10 + r)
    universe = rotation_universe(12)
    a = Spectrum.of(rng.choices(universe, k=h))
    b = Spectrum.of(rng.choices(universe, k=r))
    g = h + r
    assert v_spectrum(a, b).dim == h * (h + 1) // 2 + h * r
    assert v_spectrum(a, b).dim + forms_spectrum(b).dim == g * (g + 1) // 2


def test_kernel_law_small():
    # v_spectrum vanishes identically only for +-1, here at h + r <= 4
    half = rot(1, 2)
    for h in range(1, 5):
        for r in range(0, 5 - h):
            for a in ppav_classes(h, 12):
                for b in lattice_classes(r, 12):
                    trivial = v_spectrum(a, b).is_identity()
                    plus = a.is_identity() and b.is_identity()
                    minus = all(q == half for q in a.entries) and all(
                        q == half for q in b.entries
                    )
                    assert trivial == (plus or minus), (a, b)


# Identities of the calculus as hypothesis properties, over spectra with
# orders dividing 12, 24 or 36 (the order bounds the sweeps use).


@st.composite
def spectra_pairs(draw, max_dim=5):
    universe = rotation_universe(draw(st.sampled_from((12, 24, 36))))
    spectra = st.lists(st.sampled_from(universe), max_size=max_dim).map(Spectrum.of)
    return draw(spectra), draw(spectra)


@settings(max_examples=100, deadline=None)
@given(spectra_pairs())
def test_sym2_of_direct_sum_splits(pair):
    a, b = pair
    assert sym2(direct_sum(a, b)) == direct_sum(sym2(a), sym2(b), tensor(a, b))


@settings(max_examples=100, deadline=None)
@given(spectra_pairs(max_dim=8))
def test_age_plus_negated_age_is_moved_dimension(pair):
    for s in pair:
        assert age(s) + age(s.negated()) == s.dim - fixed_multiplicity(s)


@settings(max_examples=100, deadline=None)
@given(spectra_pairs(), st.integers(0, 40), st.integers(0, 40))
def test_power_composes(pair, j, k):
    s, _ = pair
    assert power(power(s, j), k) == power(s, j * k)
    assert power(s, 1) == s
    assert power(s, 0) == Spectrum.of(rot(0, 1) for _ in s.entries)


@settings(max_examples=100, deadline=None)
@given(spectra_pairs())
def test_central_twin_is_an_involution_keeping_chart_ages(pair):
    w, lam = pair
    element = ElementClass.build(w, lam)
    twin = central_twin(element)
    assert central_twin(twin) == element
    assert (twin.h, twin.r, twin.kernel_on_v) == (
        element.h, element.r, element.kernel_on_v
    )
    assert age(sym2(twin.w_spec)) == age(sym2(w))
    assert age(tensor(twin.w_spec, twin.lambda_spec)) == age(tensor(w, lam))
    assert v_spectrum(twin.w_spec, twin.lambda_spec) == v_spectrum(w, lam)
