import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lpolydiv import lseries
from lpolydiv.curves import CurveSpec, PointCounts, count_series, hasse_weil_ok
from lpolydiv.lseries import (
    LPolynomial,
    LSeriesError,
    _gcd,
    base_change,
    divides,
    format_int_poly,
    hasse_weil_check,
    int_from_decimal,
    int_to_decimal,
    lpoly_from_counts,
    lpoly_from_line,
    lpoly_from_record,
    lpoly_to_line,
    lpoly_to_record,
    power_sums,
    predicted_count,
    squarefree,
)
from lpolydiv.sympoly import verify_covering
from helpers import expand_factors, frac_gcd, fraction_long_division, zeta_oracle_counts

C1 = LPolynomial(2, 1, (1, 2, 2))
C2 = LPolynomial(2, 2, (1, 2, 4, 4, 4))


def test_from_counts_examples():
    assert lpoly_from_counts([5], g=1, q=2) == C1
    assert lpoly_from_counts([5, 9], g=2, q=2) == C2
    assert lpoly_from_counts([3], g=0, q=2).coeffs == (1,)


def test_from_counts_accepts_point_counts():
    series = count_series(CurveSpec("ck", 2), 2)
    assert lpoly_from_counts(series) == C2


def test_from_counts_errors():
    with pytest.raises(LSeriesError):
        lpoly_from_counts([5], g=2, q=2)  # too few counts
    with pytest.raises(LSeriesError):
        lpoly_from_counts([100], g=1, q=2)  # Hasse-Weil violation
    with pytest.raises(LSeriesError):
        lpoly_from_counts([5, 8], g=2, q=2)  # Newton division with remainder
    with pytest.raises(LSeriesError):
        lpoly_from_counts([5, 9, 8], g=2, q=2)  # surplus count inconsistent
    with pytest.raises(LSeriesError):
        lpoly_from_counts([5], None, None)
    # too few counts for a genus (3^10^7) that is refused without being formed
    start = time.perf_counter()
    with pytest.raises(LSeriesError, match="need at least g counts"):
        lpoly_from_counts(PointCounts(CurveSpec("ckp", 10**7, 3), (4,), ("fresh",)))
    assert time.perf_counter() - start < 2


def test_surplus_counts_accepted_when_consistent():
    series = count_series(CurveSpec("ck", 2), 4)
    assert lpoly_from_counts(series) == C2


@pytest.mark.parametrize("spec", [CurveSpec("ck", 2), CurveSpec("ckp", 1, 3)], ids=lambda spec: spec.label)
def test_each_surplus_count_is_checked(spec):
    # A surplus N_m moved one step toward q^m + 1 stays within Hasse-Weil, yet breaks the
    # functional equation (g < m <= 2g) or the degree (m > 2g) of the polynomial from N_1..N_g.
    g, q = spec.genus, spec.p
    counts = count_series(spec, 2 * g + 2).counts
    assert lpoly_from_counts(counts, g=g, q=q) == lpoly_from_counts(counts[:g], g=g, q=q)
    for m in range(g + 1, 2 * g + 3):
        changed = list(counts)
        changed[m - 1] += 1 if counts[m - 1] <= q**m + 1 else -1
        assert hasse_weil_ok(changed[m - 1], q, m, g)
        with pytest.raises(LSeriesError, match=rf"^s_{m} is inconsistent with s_1\.\.s_{g} at genus {g}: "):
            lpoly_from_counts(changed, g=g, q=q)


def test_surplus_counts_are_checked_only_when_there_are_any(monkeypatch):
    counts = count_series(CurveSpec("ck", 3), 6).counts
    lp = lpoly_from_counts(counts[:4], g=4, q=2)
    # the first mismatch is named, however many follow it
    changed = list(counts[:4]) + [counts[4] + 2, counts[5] + 2]
    with pytest.raises(LSeriesError, match=r"^s_5 is inconsistent with s_1\.\.s_4 at genus 4: "):
        lpoly_from_counts(changed, g=4, q=2)

    def refuse(*args):
        raise AssertionError("the power sums of L ran with no surplus count")

    monkeypatch.setattr(lseries, "_power_sums", refuse)
    assert lpoly_from_counts(counts[:4], g=4, q=2) == lp
    with pytest.raises(AssertionError, match="no surplus count"):
        lpoly_from_counts(counts, g=4, q=2)


IN_REACH = (
    [CurveSpec("ck", k) for k in range(1, 7)] + [CurveSpec("ek", k) for k in range(1, 6)]
    + [CurveSpec("ckp", k, 3) for k in (1, 2)]
)


@pytest.mark.parametrize("spec", IN_REACH, ids=lambda spec: spec.label)
def test_every_curve_in_reach_has_its_p_rank(spec):
    # Deuring-Shafarevich: deg(L mod p) = (p - 1)(r - 1), r the poles of f; only ek has two
    assert spec.p_rank == (spec.family == "ek")
    lp = lpoly_from_counts(count_series(spec))
    assert max(i for i, a in enumerate(lp.coeffs) if a % spec.p) == spec.p_rank


def test_the_p_rank_refuses_corrupted_counts_that_pass_newton():
    # One N_m, m <= g, moved by +-p, +-2p or +-3p keeps the fiber rule.  53 of these series pass
    # Hasse-Weil and exact Newton as bare counts; as a curve's counts, 23 give L a degree mod p
    # off the p-rank and are refused, and the other 30 still build an L.
    passed = refused = 0
    for spec in [spec for spec in IN_REACH if spec.label not in ("C_1", "C_6", "E_1")]:
        series, g, p = count_series(spec), spec.genus, spec.p
        for m in range(1, g + 1):
            for delta in (-3 * p, -2 * p, -p, p, 2 * p, 3 * p):
                counts = list(series.counts)
                counts[m - 1] += delta
                try:
                    lpoly_from_counts(counts, g=g, q=p)
                except LSeriesError:
                    continue
                passed += 1
                try:
                    lpoly_from_counts(PointCounts(spec, tuple(counts), series.provenance))
                except LSeriesError as exc:
                    assert f"{spec.label}'s p-rank {spec.p_rank}" in str(exc)
                    refused += 1
    assert (passed, refused) == (53, 23)


def test_constructor_validation():
    for args, message in [
        ((1, 1, (1, 0, 1)), "bad parameters q=1, g=1"),
        ((2, -1, ()), "bad parameters q=2, g=-1"),
        ((2, 1, (2, 2, 2)), "constant term must be 1, got 2"),
        ((2, 1, (1, 2)), "genus 1 needs 3 coefficients, got 2"),
        ((2, 1, (1, 2, 3)), "functional equation fails at index 0"),
    ]:
        with pytest.raises(LSeriesError) as caught:
            LPolynomial(*args)
        assert str(caught.value) == message


def test_genus_zero():
    for q in (2, 3, 4, 5):
        trivial = LPolynomial(q, 0, (1,))
        for s in range(1, 6):
            assert base_change(trivial, s) == LPolynomial(q**s, 0, (1,))
        assert [predicted_count(trivial, m) for m in range(1, 6)] == [q**m + 1 for m in range(1, 6)]
        assert power_sums(trivial, 5) == [0] * 5


def test_predicted_count_examples():
    assert predicted_count(C1, 3) == 5
    assert predicted_count(C1, 5) == 25
    trivial = LPolynomial(2, 0, (1,))
    assert [predicted_count(trivial, m) for m in (1, 2, 5)] == [3, 5, 33]
    with pytest.raises(ValueError, match="extension degree"):
        predicted_count(C1, 0)


def test_power_sums_hand_values():
    # reciprocal roots of C1 are -1 +- i: s_m = (-1+i)^m + (-1-i)^m
    assert power_sums(C1, 5) == [-2, 0, 4, -8, 8]


def test_power_sums_match_zeta_oracle():
    for lp in (C1, C2):
        oracle = zeta_oracle_counts(lp.coeffs, lp.q, 10)
        assert [predicted_count(lp, m) for m in range(1, 11)] == oracle


def test_base_change_examples():
    assert base_change(C1, 1) == C1
    assert base_change(C1, 2) == LPolynomial(4, 1, (1, 0, 4))
    assert base_change(C1, 4) == LPolynomial(16, 1, (1, 8, 16))
    with pytest.raises(ValueError, match="extension degree"):
        base_change(C1, 0)


def test_base_change_composes():
    for lp in (C1, C2):
        for s in (2, 3, 4):
            for t in (2, 3, 4):
                assert base_change(base_change(lp, s), t) == base_change(lp, s * t)


def test_base_change_repeated_roots_contrast():
    # the ck base polynomial picks up repeated roots over extensions, the ek
    # one does not: exactly the dichotomy the divisibility route cares about
    assert not squarefree(base_change(C1, 4))
    e1 = lpoly_from_counts(count_series(CurveSpec("ek", 1), 2))
    for s in range(1, 7):
        assert squarefree(base_change(e1, s)), s


def test_base_change_counts_align():
    # counts over GF(q^s) are the s-strided counts of the original curve
    series = count_series(CurveSpec("ck", 1), 8)
    lp2 = base_change(C1, 2)
    assert [predicted_count(lp2, m) for m in (1, 2, 3, 4)] == [series.counts[1], series.counts[3], series.counts[5], series.counts[7]]
    # base_change rebuilds a_1..a_g and takes the upper half from the functional equation;
    # the counts N_(sj), j <= 2g, read that half back
    for spec, s in [(CurveSpec("ck", 3), 2), (CurveSpec("ck", 3), 3), (CurveSpec("ek", 2), 2), (CurveSpec("ckp", 1, 3), 2)]:
        g = spec.genus
        counts = count_series(spec, 2 * g * s).counts
        lifted = base_change(lpoly_from_counts(counts[:g], g=g, q=spec.p), s)
        assert [predicted_count(lifted, j) for j in range(1, 2 * g + 1)] == list(counts[s - 1 :: s]), (spec, s)


def test_base_change_counts_align_odd_characteristic():
    spec = CurveSpec("ckp", 1, 3)
    series = count_series(spec, 6)
    lp = lpoly_from_counts(series.counts[:3], g=3, q=3)
    lifted = base_change(lp, 2)
    assert lifted.q == 9
    assert [predicted_count(lifted, m) for m in (1, 2, 3)] == [series.counts[1], series.counts[3], series.counts[5]]


def test_divides_examples():
    ok, quotient, _ = divides(C1, C2)
    assert ok and quotient == (1, 0, 2)
    ok, quotient, _ = divides(C1, C1)
    assert ok and quotient == (1,)
    result = divides((1, 2), C1)
    assert not result.divides
    assert result.fail_index is not None


def test_divides_product_exact():
    ok, quotient, _ = divides(C1, C2)
    prod = [0] * 5
    for i, a in enumerate(C1.coeffs):
        for j, b in enumerate(quotient):
            prod[i + j] += a * b
    assert tuple(prod) == C2.coeffs


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_divides_recovers_random_products(data):
    coeff = st.integers(-9, 9)
    d = [data.draw(st.sampled_from([1, -1, 2, 3]))] + [data.draw(coeff) for _ in range(data.draw(st.integers(0, 4)))]
    q = [data.draw(coeff) for _ in range(data.draw(st.integers(1, 5)))]
    if not any(q):
        q[0] = 1
    n = [0] * (len(d) + len(q) - 1)
    for i, a in enumerate(d):
        for j, b in enumerate(q):
            n[i + j] += a * b
    result = divides(d, n)
    assert result.divides
    # quotient is unique once trailing zeros go
    qq = list(q)
    while len(qq) > 1 and qq[-1] == 0:
        qq.pop()
    assert list(result.quotient) == qq
    # perturbing one coefficient of the product must break divisibility
    idx = data.draw(st.integers(0, len(n) - 1))
    broken = list(n)
    broken[idx] += data.draw(st.sampled_from([-1, 1]))
    wrong = divides(d, broken)
    if wrong.divides:
        # still divisible is only possible with a different quotient
        assert list(wrong.quotient) != qq


def test_divides_degenerate():
    with pytest.raises(ZeroDivisionError):
        divides((0,), C1)
    with pytest.raises(ValueError, match="nonzero constant term"):
        divides((0, 1), C1)
    assert not divides(C2, C1).divides  # degree too large
    # zero is d * 0 for every divisor, whatever the degrees
    for d in ((1,), (3,), C1, C2, (2, 0, 0, 5)):
        assert divides(d, (0,)) == (True, (0,), None)
        assert divides(d, (0, 0)) == (True, (0,), None)


def _trimmed(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return tuple(coeffs)


@pytest.mark.parametrize(
    "d,n,fail_index",
    [
        ((2, 1), (1, 1, 1), 0),  # quotient coefficient 1/2 at index 0
        ((1, 1), (1, 0, 1), 2),  # quotient (1, -1) exact, remainder 2 t^2
        ((1, 2, 2), (1, 2), 0),  # numerator shorter than the divisor
        ((1, 2, 2), (0, 1), 0),
        ((3, 1), (3, 5, 2), 1),  # quotient coefficient 4/3 at index 1
        ((1, 1, 1), (1, 1, 2, 2, 1), 3),  # quotient (1, 0, 1), remainder t^3
        ((2, 1), (2, 1, 1), 2),  # quotient (1, 0), then 1/2 at index 2, past the quotient
    ],
)
def test_divides_failure_index_matches_fraction_division(d, n, fail_index):
    assert fraction_long_division(d, n) == (None, fail_index)
    assert divides(d, n) == (False, None, fail_index)


def test_l_of_c_l_divides_l_of_c_k_exactly_when_l_divides_k():
    lpolys = {k: lpoly_from_counts(count_series(CurveSpec("ck", k))) for k in range(1, 7)}
    for k in range(2, 7):
        for l in range(1, k):
            assert divides(lpolys[l], lpolys[k]).divides == (k % l == 0), (l, k)
            # a tower morphism C_k -> C_l exists wherever counting says "divides"
            if k % l == 0:
                assert verify_covering(k, l), (l, k)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_divides_matches_fraction_division(data):
    coeff = st.integers(-6, 6)
    d = [data.draw(st.sampled_from([1, -1, 2, -3, 4]))]
    d += data.draw(st.lists(coeff, max_size=4))
    n = data.draw(st.lists(coeff, min_size=1, max_size=8))
    if data.draw(st.booleans()):
        # a multiple of d, perhaps off by one in one coefficient, so that
        # draws reach the product test at or above qlen, not only low failures
        q = data.draw(st.lists(coeff, min_size=1, max_size=5))
        n = [0] * (len(d) + len(q) - 1)
        for i, a in enumerate(d):
            for j, b in enumerate(q):
                n[i + j] += a * b
        n[data.draw(st.integers(0, len(n) - 1))] += data.draw(st.sampled_from([0, 0, 1, -1]))
    d, n = _trimmed(d), _trimmed(n)
    quotient, fail_index = fraction_long_division(d, n)
    assert divides(d, n) == (quotient is not None, quotient, fail_index)


def test_squarefree_examples():
    assert squarefree(C1)
    assert not squarefree((1, 8, 16))  # (4t + 1)^2
    assert squarefree((1,))
    assert not squarefree((0, 0, 1))  # t^2
    assert squarefree((0, 1))
    assert squarefree((-3,)) and squarefree((7, 0))  # a nonzero constant has no square factor
    for zero in ((0,), (), (0, 0, 0), ["0", 0]):  # every square divides 0
        with pytest.raises(ValueError, match="zero polynomial"):
            squarefree(zero)


def _squarefree_reference(coeffs):
    c = _trimmed(coeffs)
    return len(c) <= 1 or len(frac_gcd(c, [i * c[i] for i in range(1, len(c))])) == 1


def _monic(coeffs):
    return [Fraction(c) / coeffs[-1] for c in coeffs]


_SMALL_POLYS = st.lists(st.integers(-6, 6), min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(f=_SMALL_POLYS, g=_SMALL_POLYS, u=_SMALL_POLYS, shift=st.integers(0, 2))
def test_integer_gcd_matches_the_rational_reference(f, g, u, shift):
    x_shift = ((0,) * shift + (1,), 1)  # x^shift: f(0) = 0 for shift > 0
    for h in (expand_factors([x_shift, (f, 1)]), expand_factors([x_shift, (f, 1), (g, 2)])):
        if not any(h):  # f = 0: every square divides h
            with pytest.raises(ValueError, match="zero polynomial"):
                squarefree(h)
            continue
        assert squarefree(h) == _squarefree_reference(h), h
    a, b = expand_factors([(f, 1), (g, 1)]), expand_factors([x_shift, (f, 1), (u, 1)])
    got, want = _gcd(a, b), frac_gcd(a, b)
    assert all(type(c) is int for c in got)
    assert len(got) == len(want)
    assert not got or _monic(got) == _monic(want)


@pytest.mark.parametrize("spec", IN_REACH, ids=lambda spec: spec.label)
def test_squarefree_of_every_l_in_reach_matches_the_rational_reference(spec):
    lp = lpoly_from_counts(count_series(spec))
    for s in (1, 2, 3, 4):
        coeffs = base_change(lp, s).coeffs
        derivative = [i * coeffs[i] for i in range(1, len(coeffs))]
        assert _monic(_gcd(coeffs, derivative)) == _monic(frac_gcd(coeffs, derivative)), s
        assert squarefree(coeffs) == _squarefree_reference(coeffs), s


def test_hasse_weil_check():
    ok, _ = hasse_weil_check(count_series(CurveSpec("ck", 1), 3))
    assert ok
    fake = count_series(CurveSpec("ck", 1), 1)
    broken = type(fake)(fake.spec, (100,), ("fresh",))
    ok, idx = hasse_weil_check(broken)
    assert not ok and idx == 0
    genus0 = count_series(CurveSpec("ak", 1), 3)
    assert hasse_weil_check(genus0).ok
    # the bound is decided without forming the genus 3^10^7
    start = time.perf_counter()
    assert hasse_weil_check(PointCounts(CurveSpec("ckp", 10**7, 3), (4,), ("fresh",))).ok
    assert time.perf_counter() - start < 2


def test_hasse_weil_check_refuses_a_count_past_the_genus_cap():
    # the genus of C_(10^8) is past the cap; N_1 = 2^70 is not a count of GF(2),
    # while N_1 = 3 (|s_1| = 0) is within the bound
    spec = CurveSpec("ck", 10**8)
    assert hasse_weil_check(PointCounts(spec, (1 << 70, 3), ("cached", "fresh"))) == (False, 0)
    assert hasse_weil_check(PointCounts(spec, (3, 1 << 70), ("fresh", "cached"))) == (False, 1)
    assert hasse_weil_check(PointCounts(spec, (3,), ("fresh",))).ok


@pytest.mark.parametrize(
    "family,k,p",
    [("ck", 1, 2), ("ck", 2, 2), ("ck", 3, 2), ("ek", 1, 2), ("ek", 2, 2), ("ckp", 1, 3)],
)
def test_round_trip(family, k, p):
    spec = CurveSpec(family, k, p)
    g = spec.genus
    series = count_series(spec, 2 * g)
    lp = lpoly_from_counts(series.counts[:g], g=g, q=p)
    for m in range(g + 1, 2 * g + 1):
        assert predicted_count(lp, m) == series.counts[m - 1]
    # and the zeta expansion of the result reproduces every direct count
    assert zeta_oracle_counts(lp.coeffs, p, 2 * g) == list(series.counts)


def test_serialization_round_trip():
    for lp in (C1, C2, base_change(C1, 4), LPolynomial(2, 0, (1,))):
        line = lpoly_to_line(lp)
        assert lpoly_from_line(line) == lp
    rec = lpoly_to_record(C2)
    assert rec == {"q": 2, "g": 2, "coeffs": ["1", "2", "4", "4", "4"]}


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4]),
    g=st.integers(1, 4),
    data=st.data(),
)
def test_serialization_round_trip_random(q, g, data):
    half = [data.draw(st.integers(-20, 20)) for _ in range(g)]
    coeffs = [1] + half
    for i in range(g + 1, 2 * g + 1):
        coeffs.append(q ** (i - g) * coeffs[2 * g - i])
    lp = LPolynomial(q, g, tuple(coeffs))
    assert lpoly_from_line(lpoly_to_line(lp)) == lp


def test_serialization_past_the_int_str_digit_limit():
    # str(int) and int(str) refuse past 4300 digits by default; q = 2^16000 has 4817
    lp = base_change(lpoly_from_counts(count_series(CurveSpec("ck", 1), 1)), 16000)
    assert max(c.bit_length() for c in lp.coeffs) == 16001
    line = lpoly_to_line(lp)
    assert lpoly_from_line(line) == lp
    assert json.loads(line, parse_int=int_from_decimal) == lpoly_to_record(lp)
    assert lpoly_from_record(lpoly_to_record(lp)) == lp
    head, _, rest = str(lp).partition("t^2")
    assert int_from_decimal(head) == lp.coeffs[2]
    assert int_from_decimal(rest.removesuffix("t+1")) == lp.coeffs[1]
    a0, a1, a2 = map(int_to_decimal, lp.coeffs)
    assert repr(lp) == f"LPolynomial(q={int_to_decimal(lp.q)}, g=1, coeffs=({a0}, {a1}, {a2}))"


@pytest.mark.parametrize(
    "n", [0, -1, 10**600 - 1, 10**600, -(10**600), 10**1200 + 7, 3**8000, -(7**5000)]
)
def test_decimal_conversion_matches_str_below_the_limit(n):
    # every n here fits the default limit but spans more than one 600-digit chunk
    assert int_to_decimal(n) == str(n)
    assert int_from_decimal(str(n)) == n
    assert int_from_decimal("+" + str(abs(n))) == abs(n)


# the short forms int() would take are refused too: one rule at every length
@pytest.mark.parametrize(
    "text",
    [
        "1" * 700 + "x", " " + "1" * 700, "--" + "1" * 700, "1_0" * 300, "1_000", " 7 ", "7\n", "", "+-1",
        # digits of other scripts, which int() and str.isdecimal() take
        "\u0661\u0662", "-\u0661", "\uff12", "12\u0663",
    ],
)
def test_long_decimal_text_must_be_sign_and_digits(text):
    with pytest.raises(ValueError, match="invalid decimal integer"):
        int_from_decimal(text)
    with pytest.raises(ValueError, match="invalid decimal integer"):
        LPolynomial(text, 1, ["1", "2", "2"])


@pytest.mark.parametrize(
    "call",
    [
        lambda: divides([1, 0.5], [1, 1]),
        lambda: squarefree([1, 2.9, 1]),
        lambda: lpoly_from_record({"q": 2.0, "g": 1.9, "coeffs": ["1", "2", "2"]}),
        lambda: int_from_decimal(True),
        lambda: base_change(C1, True),
        lambda: base_change(C1, 2.0),
        lambda: predicted_count(C1, True),
        lambda: predicted_count(C1, 2.0),
    ],
    ids=[
        "divides", "squarefree", "lpoly_from_record", "int_from_decimal", "base_change-bool",
        "base_change-float", "predicted_count-bool", "predicted_count-float",
    ],
)
def test_integer_inputs_refuse_every_other_type(call):
    with pytest.raises(TypeError, match="expected an int or a decimal string"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: divides((1, 2), "12"),
        lambda: squarefree("121"),
        lambda: LPolynomial(2, 1, "122"),
        lambda: lpoly_from_counts("5", g=1, q=2),
        lambda: divides(b"12", (1, 2)),
    ],
    ids=["divides", "squarefree", "LPolynomial", "lpoly_from_counts", "divides-bytes"],
)
def test_a_string_is_not_a_sequence_of_integers(call):
    # each was read one character (or byte) at a time: "12" as (1, 2), b"12" as (49, 50)
    with pytest.raises(TypeError, match="expected a sequence of integers, got (str|bytes)"):
        call()


def test_integer_inputs_take_ints_and_decimal_strings():
    assert LPolynomial("2", "+1", ["1", "2", "2"]) == C1
    assert lpoly_from_record({"q": "2", "g": 1, "coeffs": [1, "2", "2"]}) == C1
    assert divides(["1", "2", "2"], ["1", "4", "8", "8", "4"]) == (True, (1, 2, 2), None)
    assert lpoly_from_counts(["5"], g="1", q="2") == C1
    assert base_change(C1, "2") == base_change(C1, 2)
    assert predicted_count(C1, "2") == predicted_count(C1, 2) == 5


def test_format_int_poly():
    assert format_int_poly((1, 2, 2)) == "2t^2+2t+1"
    assert format_int_poly((1, -2, 2)) == "2t^2-2t+1"
    assert format_int_poly((1, 0, 2)) == "2t^2+1"
    assert format_int_poly((0,)) == "0"
    assert format_int_poly((1, 1, 1)) == "t^2+t+1"
    assert format_int_poly((-1, -1, 3)) == "3t^2-t-1"
    assert str(C1) == "2t^2+2t+1"
