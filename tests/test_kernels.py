"""The rank-based (qf) and recurrence counts against enumeration.

Enumeration stays the oracle: the bit oracle in ``helpers`` visits every
element of GF(2^m), with a trace form built from field arithmetic alone, and
the walk oracle visits every nonzero element of GF(p^m) through discrete-log
tables; both kernels must agree with them wherever they are affordable.  The
form oracle evaluates a random quadratic form at every point of GF(p)^m.
"""

import itertools
import math
import random

import pytest

from lpolydiv import _kernels
from lpolydiv._kernels import (
    _diagonal_count,
    _min_poly,
    _qf_count,
    _recurrence_count,
    _trace_form,
    choose_kernel,
    trace_zero_count,
)
from lpolydiv.curves import CurveSpec, count_series, lmw_formula, point_count
from lpolydiv.gf import FieldContext, FieldLimitError, check_field_limits, make_field
from lpolydiv.lseries import lpoly_from_counts, predicted_count
from helpers import bit_zero_count, form_zero_count, trace_form_by_entries, walk_zero_count

CK_TERMS = [((1 << k) + 1, 1) for k in range(1, 7)]
AK_TERMS = [(1 << k, 1) for k in (1, 2)]
# (2^k + 1, 2^j + 1) for (k, j) = (1, 0), (3, 1), (4, 2)
LMW_TERMS = [(3, 2), (9, 3), (17, 5)]


@pytest.mark.parametrize("terms", CK_TERMS + AK_TERMS + LMW_TERMS)
def test_qf_matches_bit_enumeration(terms):
    for m in range(1, 21):
        expected = bit_zero_count(m, terms)
        assert trace_zero_count(make_field(2, m), terms) == expected, m
        if m <= 8:  # a context from the public constructor computes on digit lists
            assert trace_zero_count(FieldContext(2, m, make_field(2, m).modulus), terms) == expected, m


@pytest.mark.parametrize("terms", [CK_TERMS[5], LMW_TERMS[1]])
def test_qf_matches_bit_enumeration_to_2_24(terms):
    for m in range(21, 25):
        assert trace_zero_count(make_field(2, m), terms) == bit_zero_count(m, terms), m


def test_bit_oracle_refuses_a_degree_past_its_32_bit_elements():
    with pytest.raises(ValueError, match="bit oracle packs elements into 32 bits"):
        bit_zero_count(33, CK_TERMS[0])


def test_ck_counts_take_the_values_of_their_quadratic_form():
    """Past enumeration (m = 25..32): the zero count z of Tr(x^(2^k + 1) + x) in GF(2^m).

    The form's radical is GF(2^h), h = gcd(2k, m), so its Walsh sum 2z - 2^m is 0 or
    +-2^((m+h)/2).
    """
    for m in range(1, 33):
        for k in range(1, 8):
            zeros = trace_zero_count(make_field(2, m), ((1 << k) + 1, 1))
            walsh = 2 * zeros - (1 << m)
            assert walsh == 0 or walsh * walsh == 1 << (m + math.gcd(2 * k, m)), (m, k)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_qf_matches_table_walk_odd(p):
    term_lists = [
        (p + 1, 1),  # ckp, k = 1
        (p * p + 1, 1),  # ckp, k = 2
        (2,),  # x^2: the twist a = 0
        (p + 1, p * p + 1),  # two quadratic terms
        (p, 1),  # linear only, the trace counted twice
        (2, p + 1, p),
        (p,) * p,  # p times the trace is 0: every element is a zero
    ]
    for m in itertools.count(1):
        ctx = make_field(p, m)
        if ctx.order > 3**8:
            break
        for terms in term_lists:
            walk = walk_zero_count(ctx, terms) + 1
            assert trace_zero_count(ctx, terms) == walk, (m, terms)


def test_qf_count_matches_evaluation_on_random_forms():
    """_qf_count against the form evaluated at every point of GF(p)^m, p^m <= 4096.

    g is random and need not be symmetric; its diagonal is zero half the time,
    so odd p also meets forms whose first step is a plane, and the linear part
    is zero or random.  Trace forms never take most of these shapes.
    """
    rng = random.Random(2024)
    cases = 0
    for p in (2, 3, 5, 7, 11, 13):
        m = 1
        while p**m <= 4096:
            for _ in range(8):
                fill = rng.random()  # the share of nonzero entries
                g = [[rng.randrange(p) * (rng.random() < fill) for _ in range(m)] for _ in range(m)]
                if rng.random() < 0.5:
                    for i in range(m):
                        g[i][i] = 0
                for lin in ([0] * m, [rng.randrange(p) for _ in range(m)]):
                    assert _qf_count(p, g, lin) == form_zero_count(p, g, lin), (p, g, lin)
                    cases += 1
            m += 1
    assert cases == 544


def _supported_degrees(p):
    for m in itertools.count(1):
        try:
            check_field_limits(p, m)
        except FieldLimitError:
            return
        yield m


def test_trace_form_matches_the_per_entry_builder():
    """The Hankel product W H equals the Gram matrix built one ctx.mul and ctx.trace per entry.

    Every supported degree for six primes, with nine twist lists each: no twist,
    single twists (a = m is the twist a = 0), and pairs.
    """
    cases = 0
    for p in (2, 3, 5, 7, 11, 13):
        for m in _supported_degrees(p):
            ctx = make_field(p, m)
            for quads in ((), (0,), (1,), (2,), (5,), (m,), (m + 1, 2), (0, 1), (1, 3)):
                assert _trace_form(ctx, quads) == trace_form_by_entries(ctx, quads), (p, m, quads)
                cases += 1
    assert cases == 837


def test_diagonal_count_matches_brute_force():
    for p in (3, 5):
        for r in range(4):
            for d in itertools.product(range(1, p), repeat=r):
                delta = 1
                for c in d:
                    delta = delta * c % p
                values = [
                    sum(c * y * y for c, y in zip(d, ys)) % p
                    for ys in itertools.product(range(p), repeat=r)
                ]
                for b in range(p):
                    assert _diagonal_count(p, r, delta, b) == values.count(b), (p, d, b)


def test_qf_dispatch_visits_no_elements(monkeypatch):
    def refuse(*args):
        raise AssertionError("the recurrence kernel ran")

    monkeypatch.setattr(_kernels, "_recurrence_count", refuse)
    # far past what enumeration reaches in a test run, checked against the closed form
    for n, k, j in ((31, 1, 0), (29, 3, 1)):
        terms = ((1 << k) + 1, (1 << j) + 1)
        assert trace_zero_count(make_field(2, n), terms) == lmw_formula(n, k, j)
    # GF(3^13) lies past the table limit; N_13 must agree with the
    # L-polynomial rebuilt from N_1..N_3
    spec = CurveSpec("ckp", 1, 3)
    lp = lpoly_from_counts(count_series(spec, spec.genus))
    assert point_count(spec, 13) == predicted_count(lp, 13)


# ek's terms (2^k + 1, -1) for k = 1..6, and three terms at once
EK_TERMS = [((1 << k) + 1, -1) for k in range(1, 7)] + [(5, 3, -1)]


@pytest.mark.parametrize("terms", EK_TERMS)
def test_recurrence_matches_walk_binary(terms):
    for m in range(1, 21):
        ctx = make_field(2, m)
        assert _recurrence_count(ctx, terms) == walk_zero_count(ctx, terms), m


@pytest.mark.parametrize("p", (3, 5, 7))
def test_recurrence_refuses_odd_characteristic(p):
    """The recurrence counts over GF(2) alone: odd p takes only the qf shapes, refused before any field."""
    for terms in ((p + 1, -1), (p + 2,), (p + 1, 1, -1)):
        for m in (1, 2, 100):
            with pytest.raises(ValueError, match="odd p takes only"):
                choose_kernel(p, m, terms)
        with pytest.raises(ValueError, match="odd p takes only"):
            trace_zero_count(make_field(p, 2), terms)
    assert choose_kernel(p, 100, (p + 1, 1)) == ([1], 1)


def test_min_poly():
    for m in range(2, 33):
        ctx = make_field(2, m)
        assert _min_poly(ctx, 2) == ctx._mod_bits, m  # X is a root of the modulus
    assert _min_poly(make_field(2, 5), 1) == 0b11  # z + 1
    # g^((2^12 - 1) / (2^4 - 1)) generates the subfield GF(2^4) of GF(2^12)
    ctx = make_field(2, 12)
    assert _min_poly(ctx, ctx.pow(ctx.generator(), 273)).bit_length() - 1 == 4


def test_recurrence_count_checks_its_expansion(monkeypatch):
    ctx = make_field(2, 10)
    expand = _kernels._expand_binary
    # a wrong bit at i = n: the computed terms still match, the wrap-around does not
    monkeypatch.setattr(
        _kernels, "_expand_binary", lambda *args: expand(*args) ^ (1 << (ctx.order - 1))
    )
    with pytest.raises(AssertionError, match="does not reproduce"):
        _recurrence_count(ctx, EK_TERMS[0])
    # (z + 1)^2 for the two terms: w_(i+2) = w_i holds for no ek trace sequence on GF(2^10)
    monkeypatch.setattr(_kernels, "_min_poly", lambda ctx, h: 0b11)
    with pytest.raises(AssertionError, match="does not reproduce"):
        _recurrence_count(ctx, EK_TERMS[0])
