"""Class-stream generation: completeness, canonicity, closure."""

import math
from itertools import combinations_with_replacement

import pytest

from reference_enumeration import (
    all_spectra_by_combinations,
    lattice_series,
    ppav_classes_by_filter,
    ppav_series,
)
from reidtai.enumeration import (
    CONSTRAINT_MODES,
    ElementClass,
    EnumerationConfig,
    abelian_factor_classes,
    all_spectra,
    as_spectrum,
    cyclotomic_signatures,
    element_classes,
    lattice_classes,
    lattice_factor_classes,
    lattice_residues,
    ppav_classes,
    rotation_universe,
)
from reidtai.functors import power, v_spectrum
from reidtai.rotations import (
    OrbitSignature,
    Spectrum,
    divisors,
    element_order,
    galois_orbit,
    parse_spectrum,
    rot,
    totient,
    validate_integral,
    validate_ppav,
)

S = parse_spectrum


def brute_signatures(dim, order_divides):
    """Independent route: bounded-length combinations over the divisors."""
    out = set()
    for length in range(dim + 1):
        for parts in combinations_with_replacement(divisors(order_divides), length):
            if sum(totient(n) for n in parts) == dim:
                out.add(parts)
    return sorted(out)


def galois_stable(s: Spectrum) -> bool:
    """Multiset invariance under every unit: the other face of integrality."""
    n = element_order(s)
    return all(
        Spectrum.of(q.times(k) for q in s) == s
        for k in range(1, n + 1)
        if math.gcd(k, n) == 1
    )


def brute_ppav_stream(h, order_divides):
    for s in all_spectra_by_combinations(h, order_divides):
        if galois_stable(Spectrum.of(s.entries + s.negated().entries)):
            yield s


def test_rotation_universe():
    assert len(rotation_universe(12)) == 12
    assert len(rotation_universe(1)) == 1
    assert rotation_universe(2) == (rot(0, 1), rot(1, 2))


def test_signature_examples():
    assert [str(s) for s in cyclotomic_signatures(1, 12)] == ["{1}", "{2}"]
    assert [str(s) for s in cyclotomic_signatures(2, 12)] == [
        "{1, 1}", "{1, 2}", "{2, 2}", "{3}", "{4}", "{6}",
    ]
    assert list(cyclotomic_signatures(0, 12)) == [OrbitSignature()]


@pytest.mark.parametrize("dim", range(7))
def test_signatures_match_bruteforce(dim):
    produced = sorted(sig.parts for sig in cyclotomic_signatures(dim, 12))
    assert produced == brute_signatures(dim, 12)
    assert len(set(produced)) == len(produced)


def test_signature_count_rank_four():
    # brute-pinned count over partitions with parts dividing 12
    assert len(list(cyclotomic_signatures(4, 12))) == 21


def test_lattice_classes():
    assert sorted(str(s) for s in lattice_classes(1, 12)) == ["{0/1}", "{1/2}"]
    rank2 = list(lattice_classes(2, 12))
    assert len(rank2) == 6
    for s in rank2:
        assert s.dim == 2
        assert validate_integral(s)
    assert len(list(lattice_classes(4, 12))) == 21


def test_ppav_classes_h1():
    # the eight order-1,2,3,4,6 classes of a one-dimensional abelian factor
    got = sorted(str(s) for s in ppav_classes(1, 12))
    brute = sorted(str(s) for s in brute_ppav_stream(1, 12))
    assert got == brute
    assert got == sorted(
        ["{0/1}", "{1/2}", "{1/3}", "{2/3}", "{1/4}", "{3/4}", "{1/6}", "{5/6}"]
    )
    assert [str(s) for s in ppav_classes(1, 2)] == ["{0/1}", "{1/2}"]


def test_ppav_order_bound_filter():
    # order-5 halves need the bound to admit 5
    assert S("1/5, 2/5") not in set(ppav_classes(2, 12))
    assert S("1/5, 2/5") in set(ppav_classes(2, 60))


@pytest.mark.parametrize("h", [0, 1, 2, 3, 4])
def test_ppav_filter_vs_assembly(h):
    by_filter = sorted(str(s) for s in ppav_classes_by_filter(h, 12))
    by_assembly = sorted(str(s) for s in ppav_classes(h, 12))
    assert by_filter == by_assembly


@pytest.mark.parametrize("order_divides, max_h", [(12, 5), (24, 3), (36, 3)])
def test_ppav_assembly_emits_in_filter_order(order_divides, max_h):
    # not only the same set: the same sequence, so the W stream and the
    # rows built from it keep the filter's order
    for h in range(max_h + 1):
        assert list(ppav_classes(h, order_divides)) == list(
            ppav_classes_by_filter(h, order_divides)
        )


@pytest.mark.parametrize(
    "order_divides, max_dim", [(1, 4), (2, 4), (5, 4), (12, 4), (24, 3), (36, 3)]
)
def test_all_spectra_emits_combinations_in_order(order_divides, max_dim):
    for dim in range(max_dim + 1):
        assert list(all_spectra(dim, order_divides)) == list(
            all_spectra_by_combinations(dim, order_divides)
        )


_REFERENCE_W = {
    "integral-both": ppav_classes_by_filter,
    "integral-lambda-only": all_spectra_by_combinations,
    "unconstrained": all_spectra_by_combinations,
}


@pytest.mark.parametrize("mode", CONSTRAINT_MODES)
@pytest.mark.parametrize("order_divides, max_h", [(12, 4), (24, 3), (36, 3)])
def test_state_stream_views_match_reference_streams(order_divides, max_h, mode):
    # the W stream's states, read as spectra, are the reference stream
    # element by element, whatever lattice residues their costs carry
    for h in range(max_h + 1):
        for r in (0, 2):
            cfg = EnumerationConfig(h, r, order_divides, mode)
            states = abelian_factor_classes(cfg)
            assert [as_spectrum(xs, order_divides) for xs, _, _ in states] == list(
                _REFERENCE_W[mode](h, order_divides)
            )


def test_lattice_residues():
    assert lattice_residues(EnumerationConfig(3, 0, 12)) == ()
    # orders 1, 2 at rank 1; orders 3, 4, 6 join at rank 2
    assert lattice_residues(EnumerationConfig(1, 1, 12)) == (0, 6)
    assert lattice_residues(EnumerationConfig(1, 2, 12)) == (0, 2, 3, 4, 6, 8, 9, 10)
    assert lattice_residues(EnumerationConfig(1, 1, 12, "unconstrained")) == tuple(range(12))


def test_ppav_stream_counts_and_validity():
    expected = {0: 1, 1: 8, 2: 40, 3: 152, 4: 483, 5: 1344}
    for h, count in expected.items():
        stream = list(ppav_classes(h, 12))
        assert len(stream) == count
        assert len(set(stream)) == count
        for s in stream:
            assert s.dim == h
            assert 12 % element_order(s) == 0
            assert validate_ppav(s)


def test_config_validation():
    with pytest.raises(ValueError):
        EnumerationConfig(-1, 0)
    with pytest.raises(ValueError):
        EnumerationConfig(1, 1, 0)
    with pytest.raises(ValueError):
        EnumerationConfig(1, 1, 12, "nonsense")


def test_element_class_build():
    c = ElementClass.build(S("1/2"), S("0, 1/2, 1/2, 1/2"))
    assert (c.h, c.r, c.order) == (1, 4, 2)
    assert not c.kernel_on_v
    minus_one = ElementClass.build(S("1/2, 1/2"), S("1/2, 1/2, 1/2"))
    assert minus_one.kernel_on_v
    assert minus_one.order == 2


def test_element_classes_completeness():
    # the stream equals the brute-force all-pairs enumeration through the
    # validity filters, for every h + r <= 4 at N <= 12
    for order_divides in (2, 4, 12):
        for h in range(0, 5):
            for r in range(0, 5 - h):
                cfg = EnumerationConfig(h, r, order_divides)
                stream = list(element_classes(cfg))
                brute = []
                for a in brute_ppav_stream(h, order_divides):
                    for b in all_spectra_by_combinations(r, order_divides):
                        if not galois_stable(b):
                            continue
                        if a.is_identity() and b.is_identity():
                            continue
                        brute.append(
                            (a, b, v_spectrum(a, b).is_identity())
                        )
                def key(row):
                    a, b, flag = row
                    return (
                        tuple(q.sort_key for q in a.entries),
                        tuple(q.sort_key for q in b.entries),
                        flag,
                    )

                got = sorted(
                    ((c.w_spec, c.lambda_spec, c.kernel_on_v) for c in stream), key=key
                )
                assert got == sorted(brute, key=key), (h, r, order_divides)
                assert len(set(stream)) == len(stream)


def test_element_classes_examples():
    # r = 0 at order bound 2: only the -1 class remains, flagged not dropped
    stream = list(element_classes(EnumerationConfig(1, 0, 2)))
    assert len(stream) == 1
    assert stream[0].w_spec == S("1/2")
    assert stream[0].kernel_on_v

    # pure torus side: the six rank-2 classes minus the identity
    stream = list(element_classes(EnumerationConfig(0, 2, 12)))
    assert len(stream) == 5

    # the known exceptional class is present
    cfg = EnumerationConfig(1, 4, 12)
    pairs = {(c.w_spec, c.lambda_spec) for c in element_classes(cfg)}
    assert (S("1/2"), S("0, 1/2, 1/2, 1/2")) in pairs


def test_kernel_flag_matches_lemma():
    # within the stream (identity excluded), the flag marks exactly -1
    for h in range(1, 4):
        for r in range(0, 3):
            for c in element_classes(EnumerationConfig(h, r, 12)):
                minus_one = all(q == rot(1, 2) for q in c.w_spec.entries) and all(
                    q == rot(1, 2) for q in c.lambda_spec.entries
                )
                assert c.kernel_on_v == minus_one


def test_power_closure():
    # powers of emitted classes are themselves emitted, except the identity
    for h in range(0, 6):
        for r in range(0, 6 - h):
            cfg = EnumerationConfig(h, r, 12)
            stream = list(element_classes(cfg))
            seen = {(c.w_spec, c.lambda_spec) for c in stream}
            for c in stream:
                for k in range(1, c.order + 1):
                    w, b = power(c.w_spec, k), power(c.lambda_spec, k)
                    if w.is_identity() and b.is_identity():
                        continue
                    assert (w, b) in seen, (c, k)


def test_constraint_modes():
    # unconstrained: all pairs over the universe minus the identity
    stream = list(element_classes(EnumerationConfig(1, 1, 2, "unconstrained")))
    assert len(stream) == 3
    # relaxing only the abelian side admits non-doubling spectra there
    cfg = EnumerationConfig(1, 0, 12, "integral-lambda-only")
    ws = {c.w_spec for c in element_classes(cfg)}
    assert S("1/12") in ws
    assert not validate_ppav(S("1/12"))
    # but the lattice side stays integral
    cfg = EnumerationConfig(0, 2, 12, "integral-lambda-only")
    for c in element_classes(cfg):
        assert validate_integral(c.lambda_spec)


# Stream sizes against generating functions computed in
# reference_enumeration, sharing no code with the enumerators (not even
# their totient or divisor helpers).


def test_generating_series_examples():
    # 1 / ((1-x)^2 (1-x^2)^3 (1-x^4)) at N = 12: {1}, {2} at degree 1 and
    # {1,1}, {1,2}, {2,2}, {3}, {4}, {6} at degree 2
    assert lattice_series(12, 2) == [1, 2, 6]
    assert ppav_series(12, 3) == [1, 8, 40, 152]
    assert ppav_series(1, 4) == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("order_divides, top", [(12, 10), (24, 6), (36, 6)])
def test_stream_sizes_match_generating_functions(order_divides, top):
    w_sizes = [
        sum(1 for _ in abelian_factor_classes(EnumerationConfig(h, 0, order_divides)))
        for h in range(top + 1)
    ]
    lambda_sizes = [
        sum(1 for _ in lattice_factor_classes(EnumerationConfig(0, r, order_divides)))
        for r in range(top + 1)
    ]
    assert w_sizes == ppav_series(order_divides, top)
    assert lambda_sizes == lattice_series(order_divides, top)
    if order_divides == 12:
        assert w_sizes[1:4] == [8, 40, 152]
        assert w_sizes[10] == 66_848
