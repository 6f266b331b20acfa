"""The rank-based quadratic-form count (qf) against enumeration.

Enumeration stays the oracle: the bit oracle in ``helpers`` visits every
element of GF(2^m), with a trace form built from field arithmetic alone, and
the table kernel walks every nonzero element of GF(p^m); qf must agree with
them wherever they are affordable.
"""

import itertools

import pytest

from lpolydiv import _kernels
from lpolydiv._kernels import _diagonal_count, _table_count, trace_zero_count
from lpolydiv.curves import CurveSpec, count_series, lmw_formula, point_count
from lpolydiv.gf import make_field
from lpolydiv.lseries import lpoly_from_counts, predicted_count
from helpers import bit_zero_count

CK_TERMS = [((1 << k) + 1, 1) for k in range(1, 7)]
AK_TERMS = [(1 << k, 1) for k in (1, 2)]
# (2^k + 1, 2^j + 1) for (k, j) = (1, 0), (3, 1), (4, 2)
LMW_TERMS = [(3, 2), (9, 3), (17, 5)]


@pytest.mark.parametrize("terms", CK_TERMS + AK_TERMS + LMW_TERMS)
def test_qf_matches_bit_enumeration(terms):
    for m in range(1, 21):
        assert trace_zero_count(make_field(2, m), terms) == bit_zero_count(m, terms), m


@pytest.mark.parametrize("terms", [CK_TERMS[5], LMW_TERMS[1]])
def test_qf_matches_bit_enumeration_to_2_24(terms):
    for m in range(21, 25):
        assert trace_zero_count(make_field(2, m), terms) == bit_zero_count(m, terms), m


@pytest.mark.parametrize("p", (3, 5, 7))
def test_qf_matches_table_walk_odd(p):
    term_lists = [
        (p + 1, 1),  # ckp, k = 1
        (p * p + 1, 1),  # ckp, k = 2
        (2,),  # x^2: the twist a = 0
        (p + 1, p * p + 1),  # two quadratic terms
        (p, 1),  # linear only, the trace counted twice
        (2, p + 1, p),
    ]
    for m in itertools.count(1):
        ctx = make_field(p, m)
        if ctx.order > 3**8:
            break
        for terms in term_lists:
            walk = _table_count(ctx, terms) + 1
            assert trace_zero_count(ctx, terms) == walk, (m, terms)


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
        raise AssertionError("an enumeration kernel ran")

    monkeypatch.setattr(_kernels, "_table_count", refuse)
    # far past what enumeration reaches in a test run, checked against the closed form
    for n, k, j in ((31, 1, 0), (29, 3, 1)):
        terms = ((1 << k) + 1, (1 << j) + 1)
        assert trace_zero_count(make_field(2, n), terms) == lmw_formula(n, k, j)
    # GF(3^13) lies past the table limit; N_13 must agree with the
    # L-polynomial rebuilt from N_1..N_3
    spec = CurveSpec("ckp", 1, 3)
    lp = lpoly_from_counts(count_series(spec, spec.genus))
    assert point_count(spec, 13) == predicted_count(lp, 13)
