import time

import pytest
from hypothesis import given, settings, strategies as st

from lpolydiv import sympoly
from lpolydiv.sympoly import (
    MAX_LEVEL,
    SparsePoly,
    _trace_sum,
    artin_schreier_image,
    build_f,
    build_g,
    covering_defect,
    format_terms,
    frobenius,
    involution_search,
    parse_terms,
    tower_obstruction,
    verify_covering,
    verify_trace_morphism,
    x_pow,
)
from helpers import (
    build_g_fixed_scale,
    involution_scan,
    peel_artin_schreier,
    schoolbook_covering_defect,
    tower_g_formula,
)


def test_frobenius_square_char2():
    a = SparsePoly(2, {1: 1, 2: 1})  # x + x^2
    assert a * a == SparsePoly(2, {2: 1, 4: 1})
    assert a * a == frobenius(a)


def test_freshmans_dream_char3():
    a = SparsePoly(3, {1: 1, 0: 1})  # x + 1
    assert a**3 == SparsePoly(3, {3: 1, 0: 1})


def test_characteristic_mismatch():
    with pytest.raises(ValueError):
        SparsePoly(2, {1: 1}) + SparsePoly(3, {1: 1})
    with pytest.raises(ValueError):
        SparsePoly(5, {1: 1}) * SparsePoly(3, {1: 1})


def test_exponent_bound():
    with pytest.raises(ValueError, match="negative exponent"):
        SparsePoly(3, {-1: 1})
    with pytest.raises(ValueError, match="negative power"):
        x_pow(3, 2) ** -1


@pytest.mark.parametrize(
    "p, terms",
    [
        (2, [(1.5, 1), (True, 3)]),
        (3, [(2, 1.5)]),
        (3, {1: True}),
        (2.0, [(1, 1)]),  # 2.0 == 2, so the p != 2 test alone lets it through
        (3.0, []),
        (True, []),
    ],
    ids=["exponent-float", "coefficient-float", "coefficient-bool", "p-2.0", "p-3.0", "p-True"],
)
def test_sparse_poly_takes_only_ints(p, terms):
    with pytest.raises(TypeError, match="expected an integer"):
        SparsePoly(p, terms)


def test_zero_coefficients_dropped():
    assert SparsePoly(3, {4: 3, 1: 2}) == SparsePoly(3, {1: 2})
    assert (SparsePoly(2, {1: 1}) + SparsePoly(2, {1: 1})).is_zero()
    assert SparsePoly(2, {}).degree() == -1
    # comparing with an int is left to the int (NotImplemented), so no SparsePoly equals one
    assert (x_pow(2, 1) == 1) is False and (x_pow(2, 0) == 1) is False


_PRIMES = (2, 3, 5)


def _polys(p, max_size=12):
    return st.dictionaries(
        st.integers(0, 1 << 20), st.integers(1, p - 1) if p > 2 else st.just(1), max_size=max_size
    ).map(lambda d: SparsePoly(p, d))


@settings(max_examples=120, deadline=None)
@given(pi=st.integers(0, len(_PRIMES) - 1), data=st.data())
def test_ring_laws(pi, data):
    p = _PRIMES[pi]
    a, b, c = (data.draw(_polys(p)) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a * SparsePoly(p, {0: 1}) == a


@settings(max_examples=120, deadline=None)
@given(pi=st.integers(0, len(_PRIMES) - 1), data=st.data())
def test_frobenius_is_a_homomorphism(pi, data):
    p = _PRIMES[pi]
    a, b = data.draw(_polys(p)), data.draw(_polys(p))
    assert frobenius(a + b) == frobenius(a) + frobenius(b)
    assert frobenius(a * b) == frobenius(a) * frobenius(b)
    assert frobenius(a) == a**p


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), data=st.data())
def test_power_matches_repeated_products(p, data):
    # few terms: a^e has up to C(e + 3, 3) of them
    a = data.draw(_polys(p, max_size=4))
    e = data.draw(st.integers(0, 3 * p + 2))
    expected = SparsePoly(p, {0: 1})
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


def test_power_is_exact_past_64_bits():
    assert x_pow(3, 1 << 63) ** 3 == x_pow(3, 3 << 63)
    assert x_pow(2, 1 << 62) ** 2 == x_pow(2, 1 << 63)
    assert x_pow(2, 1 << 63) * x_pow(2, 1 << 63) == frobenius(x_pow(2, 1 << 63)) == x_pow(2, 1 << 64)


def test_covering_defect_sees_a_perturbed_g_past_64_bits():
    assert not covering_defect(128, 1, build_g(128, 1) + x_pow(2, 1 << 127)).is_zero()


def test_build_f_examples():
    assert build_f(2, 1) == SparsePoly(2, {1: 1, 2: 1})
    assert build_f(4, 2) == SparsePoly(2, {1: 1, 4: 1})
    with pytest.raises(ValueError):
        build_f(3, 3)
    with pytest.raises(ValueError):
        build_f(4, 3)


def test_build_g_examples():
    assert build_g(2, 1) == SparsePoly(2, {2: 1, 3: 1})
    assert build_g(4, 2) == SparsePoly(2, {4: 1, 5: 1, 10: 1})
    assert sorted(build_g(6, 2).terms) == [4, 5, 10, 16, 17, 20, 34, 40]


def test_build_g_matches_the_hand_formula():
    pairs = [(k, l) for k in range(2, 97) for l in range(1, k) if k % l == 0] + [(256, 2), (300, 3)]
    assert len(pairs) == 365
    for k, l in pairs:
        assert build_g(k, l) == tower_g_formula(k, l), (k, l)


def test_covering_defect_without_g_is_the_tower_obstruction():
    # with g = 0 the defect is the covering image h, and for (2, 1) that is the p = 2 obstruction
    assert covering_defect(2, 1, SparsePoly(2)) == tower_obstruction(2)
    assert artin_schreier_image(tower_obstruction(2)).witness == build_g(2, 1)


@pytest.mark.parametrize("k, l", [(2, 1), (4, 2), (6, 3), (12, 1), (12, 4)])
def test_verify_covering_fails_for_an_f_missing_a_term(monkeypatch, k, l):
    full = build_f(k, l)
    for e in full.terms:
        monkeypatch.setattr(sympoly, "build_f", lambda k, l, e=e: full + x_pow(2, e))
        assert not verify_covering(k, l), e
        assert build_g(k, l) is None
        assert not covering_defect(k, l).is_zero()


def test_covering_identity_examples():
    assert verify_covering(2, 1)
    assert verify_covering(4, 2)
    assert verify_covering(6, 2)
    assert verify_covering(6, 3)


def test_covering_sides_match_known_expansion():
    # both sides of the (2, 1) identity sum to x + x^2 + ... + x^6
    f = build_f(2, 1)
    lhs = f**3 + f
    assert lhs == SparsePoly(2, {e: 1 for e in range(1, 7)})


def test_covering_defect_matches_schoolbook():
    pairs = [(k, l) for k in range(2, 17) for l in range(1, k) if k % l == 0]
    for k, l in pairs:
        assert covering_defect(k, l) == schoolbook_covering_defect(k, l), (k, l)
        g = build_g_fixed_scale(k, l)
        assert covering_defect(k, l, g) == schoolbook_covering_defect(k, l, g), (k, l)


def test_covering_identity_every_pair_to_63():
    pairs = [(k, l) for k in range(2, 64) for l in range(1, k) if k % l == 0]
    assert len(pairs) == 210
    for k, l in pairs:
        assert verify_covering(k, l), (k, l)


def test_fixed_scale_variant_fails():
    assert build_g_fixed_scale(2, 1) == SparsePoly(2, {2: 1, 6: 1})
    assert not covering_defect(2, 1, build_g_fixed_scale(2, 1)).is_zero()
    assert not covering_defect(4, 2, build_g_fixed_scale(4, 2)).is_zero()


def test_trace_morphism():
    assert verify_trace_morphism(2, 1)
    assert verify_trace_morphism(3, 1)
    assert verify_trace_morphism(2, 4)
    assert verify_trace_morphism(5, 3)
    with pytest.raises(ValueError):
        verify_trace_morphism(1, 1)
    assert verify_trace_morphism(8, 8)  # x^(2^64): past 64 bits
    with pytest.raises(ValueError, match="level bound"):
        verify_trace_morphism(27, 19)  # n s = 513 = MAX_LEVEL + 1


def test_artin_schreier_obstruction_char3():
    result = artin_schreier_image(tower_obstruction(3))
    assert not result.in_image
    assert result.stuck_degree == 4  # p + 1, reached after peeling degrees 12 and 6


def test_artin_schreier_witness_char2():
    h = SparsePoly(2, {6: 1, 3: 1, 2: 1, 1: 1})  # (x^3 + x)^2 + (x^3 + x)
    result = artin_schreier_image(h)
    assert result.in_image
    assert result.witness == SparsePoly(2, {3: 1, 1: 1})


def test_artin_schreier_degree_one():
    for p in (2, 3, 5):
        result = artin_schreier_image(x_pow(p, 1))
        assert not result.in_image
        assert result.stuck_degree == 1


def test_artin_schreier_nonzero_constant():
    h = SparsePoly(3, {6: 1, 2: 2, 0: 1})
    result = artin_schreier_image(h)
    assert not result.in_image
    assert result.stuck_degree == 0


@settings(max_examples=80, deadline=None)
@given(pi=st.integers(0, len(_PRIMES) - 1), data=st.data())
def test_artin_schreier_roundtrip(pi, data):
    p = _PRIMES[pi]
    g = data.draw(
        st.dictionaries(
            st.integers(1, 200), st.integers(1, p - 1) if p > 2 else st.just(1), max_size=8
        ).map(lambda d: SparsePoly(p, d))
    )
    h = frobenius(g) - g
    result = artin_schreier_image(h)
    assert result.in_image
    assert frobenius(result.witness) - result.witness == h
    assert result.witness == g  # g drawn without constant term, so unique


def _chain_exponents(p):
    """Exponents p^j u, so that terms share chains; u = 0 gives the constant."""
    return st.builds(lambda u, j: p**j * u, st.integers(0, 40), st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 11, 13)), kind=st.sampled_from(("image", "perturbed", "arbitrary")),
       data=st.data())
def test_artin_schreier_criterion_matches_the_peel(p, kind, data):
    coeffs = st.integers(1, p - 1)
    h = SparsePoly(p, data.draw(st.dictionaries(_chain_exponents(p), coeffs, max_size=10)))
    if kind != "arbitrary":
        h = frobenius(h) - h
    if kind == "perturbed":
        h = h + x_pow(p, data.draw(_chain_exponents(p)), data.draw(coeffs))
    decision = artin_schreier_image(h)
    assert tuple(decision) == peel_artin_schreier(h)
    if decision.in_image:
        assert frobenius(decision.witness) - decision.witness == h


def test_artin_schreier_decision_is_linear():
    # 32,000 terms over GF(3): the chain criterion reads each once, where the peel took a max()
    # over the remaining terms per step
    g = SparsePoly(3, ((3 * i + 1, 1) for i in range(16000)))
    h = frobenius(g) - g
    assert len(h.terms) == 32000
    start = time.perf_counter()
    decision = artin_schreier_image(h)
    assert time.perf_counter() - start < 1
    assert decision.in_image and decision.witness == g


def test_artin_schreier_chain_length_is_bounded_by_the_level():
    # 3^512 * 2 and 2 share the chain of u = 2 and sum to 0: the witness has one term per j < 512
    h = SparsePoly(3, {2 * 3**MAX_LEVEL: 1, 2: 2})
    decision = artin_schreier_image(h)
    assert decision.in_image and len(decision.witness.terms) == MAX_LEVEL
    # one more step along the chain is refused, whether or not h is an image
    for terms in ({2 * 3 ** (MAX_LEVEL + 1): 1, 2: 2}, {3 ** (MAX_LEVEL + 1): 1, 5: 1}):
        with pytest.raises(ValueError, match="is past the level bound MAX_LEVEL = 512"):
            artin_schreier_image(SparsePoly(3, terms))


def test_involution_examples():
    assert involution_search(2) == SparsePoly(2, {1: 1, 2: 1})
    assert involution_search(3) is None
    assert involution_search(4) == SparsePoly(2, {1: 1, 2: 1, 4: 1, 8: 1})
    with pytest.raises(ValueError, match="k must be >= 1"):
        involution_search(0)
    # an odd k has no B whatever its size, so only an even k past MAX_LEVEL is refused
    assert involution_search(63) is None
    assert involution_search(10**9 + 1) is None
    assert involution_search(64) == _trace_sum(64, 1)
    with pytest.raises(ValueError, match="level bound MAX_LEVEL = 512"):
        involution_search(MAX_LEVEL + 2)


@pytest.mark.parametrize("k", range(1, 17))
def test_involution_matches_exhaustive_scan(k):
    hits = involution_scan(k)
    assert len(hits) <= 1
    b = involution_search(k)
    if not hits:
        assert b is None
    else:
        assert b == SparsePoly(2, {1 << i: 1 for i in range(k) if (hits[0] >> i) & 1})


@pytest.mark.parametrize("k", range(1, 13))
def test_involution_parity(k):
    b = involution_search(k)
    if k % 2 == 0:
        assert b == SparsePoly(2, {1 << i: 1 for i in range(k)})
    else:
        assert b is None


def test_tower_obstruction_terms():
    h = tower_obstruction(5)
    assert dict(h.terms) == {30: 1, 10: 1, 6: 1, 5: 1}


def test_format_and_parse():
    a = SparsePoly(2, {6: 1, 3: 1, 2: 1, 1: 1})
    assert format_terms(a) == "x^6+x^3+x^2+x"
    b = SparsePoly(3, {4: 2, 1: 1, 0: 2})
    assert format_terms(b) == "2*x^4+x+2"
    assert format_terms(SparsePoly(5)) == "0"
    assert repr(b) == "SparsePoly(p=3, 2*x^4+x+2)"
    for poly in (a, b, SparsePoly(5), x_pow(7, 0, 3), SparsePoly(3, {1: 2})):
        assert parse_terms(format_terms(poly), poly.p) == poly
    assert parse_terms("1*x^2 + x + 1", 2) == SparsePoly(2, {2: 1, 1: 1, 0: 1})
    # digits of other scripts, which int() and \d take, and a final newline, which "$" takes
    for text in ("x^-1", "\u0663*x^\u0661\u0662+x", "x^\uff12", "\u0661", "x\n", "x+1\n"):
        with pytest.raises(ValueError, match="cannot parse term"):
            parse_terms(text, 5)
