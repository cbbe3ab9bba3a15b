"""Rotation-number arithmetic and Galois-orbit certification."""

import copy
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from reference_enumeration import (
    cyclotomic_signatures,
    rotation_universe,
    validate_integral,
    validate_ppav,
)
from reidtai.criterion import InteriorSummary, TorusSummary, Verdict
from reidtai.enumeration import ElementClass, EnumerationConfig
from reidtai.functors import power
from reidtai.rotations import (
    MAX_DENOMINATOR,
    OrbitSignature,
    RotationNumber,
    Spectrum,
    divisors,
    element_order,
    galois_orbit,
    parse_spectrum,
    residue_keys,
    residues,
    rot,
    rot_from_str,
    totient,
)


def orbit_peel_integral(s: Spectrum) -> bool:
    """Reference integrality check: greedily subtract whole Galois orbits."""
    remaining = Counter(s.entries)
    while remaining:
        q = max(remaining, key=lambda x: x.sort_key)
        for e in galois_orbit(q.den):
            if remaining[e] < 1:
                return False
            remaining[e] -= 1
        remaining = +remaining
    return True


def orbit_peel_ppav(a: Spectrum) -> bool:
    return orbit_peel_integral(Spectrum.of(a.entries + a.negated().entries))


def test_rot_reduces_mod_one():
    assert rot(7, 6) == rot(1, 6)
    assert rot(-1, 3) == rot(2, 3)
    assert rot(4, 2) == rot(0, 1)
    assert rot(3, -6) == rot(1, 2)
    assert rot(0, 5) == RotationNumber(0, 1)


def test_rot_rejects_invalid():
    with pytest.raises(ValueError):
        rot(1, 0)
    with pytest.raises(ValueError):
        RotationNumber(2, 4)  # not reduced
    with pytest.raises(ValueError):
        RotationNumber(5, 3)  # not in [0, 1)
    with pytest.raises(ValueError):
        RotationNumber(1, MAX_DENOMINATOR + 1)
    with pytest.raises(ValueError):
        RotationNumber(1, -2)


def test_arithmetic():
    assert rot(1, 3) + rot(1, 2) == rot(5, 6)
    assert rot(2, 3) + rot(2, 3) == rot(1, 3)
    assert -rot(1, 4) == rot(3, 4)
    assert -rot(0, 1) == rot(0, 1)
    assert rot(5, 12).times(5) == rot(1, 12)
    assert rot(1, 6).times(0) == rot(0, 1)


def test_string_round_trip():
    assert str(rot(1, 2)) == "1/2"
    assert str(rot(0, 7)) == "0/1"
    assert rot_from_str("7/12") == rot(7, 12)
    assert rot_from_str("3") == rot(0, 1)
    s = parse_spectrum("0, 1/2, 1/2, 5/6")
    assert [str(q) for q in s] == ["0/1", "1/2", "1/2", "5/6"]
    assert parse_spectrum("").dim == 0


def test_spectrum_canonical_form():
    a = Spectrum.of([rot(5, 6), rot(0, 1), rot(1, 2)])
    b = Spectrum.of([rot(1, 2), rot(5, 6), rot(0, 1)])
    assert a == b
    assert a.entries[0] == rot(0, 1)  # (den, num) order puts 0/1 first
    with pytest.raises(ValueError):
        Spectrum((rot(1, 2), rot(0, 1)))


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, "0/1"),
        (2, "1/2"),
        (12, "1/12, 5/12, 7/12, 11/12"),
    ],
)
def test_galois_orbit_examples(n, expected):
    assert galois_orbit(n) == parse_spectrum(expected)


def test_galois_orbit_rejects_zero():
    with pytest.raises(ValueError):
        galois_orbit(0)


def test_orbit_cardinality_and_galois_stability():
    for n in range(1, 37):
        orbit = galois_orbit(n)
        assert orbit.dim == totient(n)
        for k in range(1, n + 1):
            if math.gcd(k, n) == 1:
                assert Spectrum.of(q.times(k) for q in orbit) == orbit


def test_totient_and_divisors():
    assert [totient(n) for n in (1, 2, 3, 4, 6, 12, 36)] == [1, 1, 2, 2, 2, 4, 12]
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    with pytest.raises(ValueError):
        totient(0)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("1/3, 2/3", True),
        ("1/3", False),
        ("0, 1/2, 1/2", True),
    ],
)
def test_validate_integral_examples(text, expected):
    assert validate_integral(parse_spectrum(text)) is expected


def test_validate_integral_matches_orbit_peel():
    # every multiset of dimension <= 3 over denominators dividing 12
    universe = rotation_universe(12)
    for dim in range(4):
        for combo in combinations_with_replacement(universe, dim):
            s = Spectrum(combo)
            assert validate_integral(s) == orbit_peel_integral(s), s
    # and every true orbit union of degree <= 6
    for dim in range(7):
        for sig in cyclotomic_signatures(dim, 12):
            assert validate_integral(sig.spectrum())
            assert orbit_peel_integral(sig.spectrum())


def test_validate_ppav_examples():
    # the -1 action on a one-dimensional abelian factor is legal
    assert validate_ppav(parse_spectrum("1/2")) is True
    # half of the order-5 orbit whose doubling fills it completely
    assert orbit_peel_ppav(parse_spectrum("1/5, 2/5")) is True
    assert validate_ppav(parse_spectrum("1/5, 2/5")) is True
    # doubling {1/5, 4/5} hits 1/5 and 4/5 twice but 2/5 and 3/5 never
    assert orbit_peel_ppav(parse_spectrum("1/5, 4/5")) is False
    assert validate_ppav(parse_spectrum("1/5, 4/5")) is False


def test_element_order():
    assert element_order(parse_spectrum("1/2, 1/3")) == 6
    assert element_order(parse_spectrum("0, 0")) == 1
    assert element_order(parse_spectrum("1/12, 5/12, 7/12, 11/12")) == 12
    assert element_order(Spectrum()) == 1


def test_integral_power_closure():
    # integrality survives every power: exhaustive over orbit unions of
    # degree <= 6 with parts dividing 12
    for dim in range(7):
        for sig in cyclotomic_signatures(dim, 12):
            s = sig.spectrum()
            for k in range(13):
                assert validate_integral(power(s, k)), (sig, k)


def test_integral_negation_closure():
    for dim in range(7):
        for sig in cyclotomic_signatures(dim, 12):
            s = sig.spectrum()
            assert s.negated() == s, sig


def test_random_arithmetic_round_trip():
    # in-scope pairs share a common order bound N <= 360
    rng = random.Random(20240)
    zero = rot(0, 1)
    for _ in range(10_000):
        bound = rng.randrange(1, MAX_DENOMINATOR + 1)
        den1, den2 = rng.choice(divisors(bound)), rng.choice(divisors(bound))
        q = rot(rng.randrange(0, 10 * den1), den1)
        other = rot(rng.randrange(0, 10 * den2), den2)
        assert q + (-q) == zero
        total = q + other
        assert 0 <= total.num < total.den
        assert total.den <= bound
        assert math.gcd(total.num, total.den) == 1


def test_orbit_signature():
    sig = OrbitSignature.of([6, 1, 2, 1])
    assert sig.parts == (1, 1, 2, 6)
    assert sig.total_degree == 5
    assert sig.order == 6
    assert sig.spectrum() == parse_spectrum("0, 0, 1/2, 1/6, 5/6")
    assert OrbitSignature().total_degree == 0
    assert OrbitSignature().spectrum() == Spectrum()
    with pytest.raises(ValueError):
        OrbitSignature((3, 2))
    with pytest.raises(ValueError):
        OrbitSignature((0,))


@pytest.mark.parametrize("n", [1, 2, 9, 12, 35, 36, 359, 360])
def test_residue_keys_are_rotation_sort_keys(n):
    # the lazy tables behind the integer records' keys and twin keys
    assert [residue_keys(n)[x] for x in range(n)] == [rot(x, n).sort_key for x in range(n)]
    assert [residues(n)[x] for x in range(n)] == [rot(x, n) for x in range(n)]
    twin = [(Fraction(x, n) + Fraction(1, 2)) % 1 for x in range(n)]
    assert [residue_keys(n, True)[x] for x in range(n)] == [
        (f.denominator, f.numerator) for f in twin
    ]


def test_residue_tables_fill_only_the_entries_read():
    # at N = L(7) = 720,720 a table holds what was read, nothing sized by N;
    # the plain keys give x/N in lowest terms for any x >= 0 (an age too)
    n = 720720
    keys, twins = residue_keys(n), residue_keys(n, True)
    xs = random.Random(7).sample(range(3 * n), 500) + [0, n // 2, n, 2 * n + 1]
    for x in xs:
        f = Fraction(x, n)
        assert keys[x] == (f.denominator, f.numerator)
        twin = (f + Fraction(1, 2)) % 1
        if x < n:
            assert twins[x] == (twin.denominator, twin.numerator)
    assert len(keys) < n // 100 and len(twins) < n // 100
    assert residues(n)[n // 6] == rot(1, 6)
    with pytest.raises(ValueError, match="exceeds the cap"):
        residues(n)[1]
    assert 1 not in residues(n)


def test_divisors_match_the_brute_force_list():
    for n in [*range(1, 2001), 55440, 720720]:
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)
    assert len(divisors(720720)) == 240


_HALF_SPEC = Spectrum.of([rot(1, 2)])
# (class, field names, field values) of one instance of each immutable class
VALUE_CLASSES = [
    (RotationNumber, ("num", "den"), (1, 6)),
    (Spectrum, ("entries",), ((rot(0, 1), rot(1, 2)),)),
    (OrbitSignature, ("parts",), ((1, 2, 6),)),
    (
        EnumerationConfig,
        ("h", "r", "order_divides", "constraint_mode"),
        (1, 4, 12, "unconstrained"),
    ),
    (
        ElementClass,
        ("h", "r", "w_spec", "lambda_spec", "order", "kernel_on_v"),
        (1, 1, _HALF_SPEC, _HALF_SPEC, 2, True),
    ),
    (Verdict, ("kind", "witness_power", "witness_age"), ("terminal", 3, Fraction(7, 6))),
    (
        InteriorSummary,
        ("g", "min_age", "kind", "witnesses"),
        (2, Fraction(1, 2), "not-canonical", (_HALF_SPEC,)),
    ),
    (TorusSummary, ("r", "min_age", "witnesses"), (1, None, ())),
]


@pytest.mark.parametrize(
    "cls, names, values", VALUE_CLASSES, ids=[cls.__name__ for cls, _, _ in VALUE_CLASSES]
)
def test_value_class_semantics(cls, names, values):
    value = cls(*values)
    assert tuple(getattr(value, name) for name in names) == values
    # equality and hash go by exact type and fields
    twin = cls(*values)
    assert value == twin and hash(value) == hash(twin)
    assert value != values and values != value
    other = SimpleNamespace(**dict(zip(names, values)))
    assert value != other and other != value
    assert Spectrum() != OrbitSignature() and OrbitSignature() != Spectrum()
    # immutable
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, values[0])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == values
    # pickling and copying give back an equal value
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value
    fields = ", ".join(f"{name}={v!r}" for name, v in zip(names, values))
    assert repr(value) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RotationNumber(1, 0), "denominator must be positive, got 0"),
        (lambda: RotationNumber(1, 361), "denominator 361 exceeds the cap 360"),
        (lambda: RotationNumber(3, 2), "3/2 is not reduced mod 1"),
        (lambda: RotationNumber(2, 4), "2/4 is not in lowest terms"),
        (
            lambda: Spectrum((rot(1, 2), rot(0, 1))),
            "entries not canonically sorted; use Spectrum.of",
        ),
        (lambda: OrbitSignature((0,)), "orbit orders must be positive"),
        (lambda: OrbitSignature((3, 2)), "parts not sorted; use OrbitSignature.of"),
        (lambda: EnumerationConfig(1, -1), "dimensions must be non-negative"),
        (lambda: EnumerationConfig(1, 1, 0), "order bound must be >= 1"),
        (lambda: EnumerationConfig(1, 1, 12, "nonsense"), "unknown constraint mode 'nonsense'"),
    ],
)
def test_value_class_validation(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
