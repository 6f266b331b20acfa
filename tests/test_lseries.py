import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from lpolydiv.curves import CurveSpec, PointCounts, count_series
from lpolydiv.lseries import (
    LPolynomial,
    LSeriesError,
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
from helpers import fraction_long_division, zeta_oracle_counts

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
        lpoly_from_counts(PointCounts(CurveSpec("ckp", 10**7, 3), (4,), ("counted",)))
    assert time.perf_counter() - start < 2


def test_surplus_counts_accepted_when_consistent():
    series = count_series(CurveSpec("ck", 2), 4)
    assert lpoly_from_counts(series) == C2


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


def test_hasse_weil_check():
    ok, _ = hasse_weil_check(count_series(CurveSpec("ck", 1), 3))
    assert ok
    fake = count_series(CurveSpec("ck", 1), 1)
    broken = type(fake)(fake.spec, (100,), ("counted",))
    ok, idx = hasse_weil_check(broken)
    assert not ok and idx == 0
    genus0 = count_series(CurveSpec("ak", 1), 3)
    assert hasse_weil_check(genus0).ok
    # the bound is decided without forming the genus 3^10^7
    start = time.perf_counter()
    assert hasse_weil_check(PointCounts(CurveSpec("ckp", 10**7, 3), (4,), ("counted",))).ok
    assert time.perf_counter() - start < 2


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
    ["1" * 700 + "x", " " + "1" * 700, "--" + "1" * 700, "1_0" * 300, "1_000", " 7 ", "7\n", "", "+-1"],
)
def test_long_decimal_text_must_be_sign_and_digits(text):
    with pytest.raises(ValueError):
        int_from_decimal(text)


@pytest.mark.parametrize(
    "call",
    [
        lambda: divides([1, 0.5], [1, 1]),
        lambda: squarefree([1, 2.9, 1]),
        lambda: lpoly_from_record({"q": 2.0, "g": 1.9, "coeffs": ["1", "2", "2"]}),
        lambda: int_from_decimal(True),
    ],
    ids=["divides", "squarefree", "lpoly_from_record", "int_from_decimal"],
)
def test_integer_inputs_refuse_every_other_type(call):
    with pytest.raises(TypeError, match="expected an int or a decimal string"):
        call()


def test_integer_inputs_take_ints_and_decimal_strings():
    assert LPolynomial("2", "+1", ["1", "2", "2"]) == C1
    assert lpoly_from_record({"q": "2", "g": 1, "coeffs": [1, "2", "2"]}) == C1
    assert divides(["1", "2", "2"], ["1", "4", "8", "8", "4"]) == (True, (1, 2, 2), None)
    assert lpoly_from_counts(["5"], g="1", q="2") == C1


def test_format_int_poly():
    assert format_int_poly((1, 2, 2)) == "2t^2+2t+1"
    assert format_int_poly((1, -2, 2)) == "2t^2-2t+1"
    assert format_int_poly((1, 0, 2)) == "2t^2+1"
    assert format_int_poly((0,)) == "0"
    assert format_int_poly((1, 1, 1)) == "t^2+t+1"
    assert format_int_poly((-1, -1, 3)) == "3t^2-t-1"
    assert str(C1) == "2t^2+2t+1"
