"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 1 covers k = 1..5; the k = 6 run (fields up to 2^32) takes
a few seconds, since its counts come from the quadratic-form rank rather than
enumeration.
"""

import json
import math
import random
from contextlib import contextmanager

import pytest

from lpolydiv import cli
from lpolydiv._kernels import trace_zero_count
from lpolydiv.curves import (
    CurveSpec,
    count_series,
    lmw_formula,
    lmw_zero_count,
)
from lpolydiv.gf import make_field
from lpolydiv.lseries import (
    LSeriesError,
    base_change,
    divides,
    hasse_weil_check,
    lpoly_from_counts,
    predicted_count,
    squarefree,
)
from lpolydiv.sympoly import (
    SparsePoly,
    artin_schreier_image,
    covering_defect,
    frobenius,
    involution_search,
    tower_obstruction,
    verify_covering,
    x_pow,
)
from helpers import CK_FACTORED, build_g_fixed_scale, expand_factors, oracle_affine_count


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def ck_lpolys():
    out = {}
    for k in range(1, 6):
        spec = CurveSpec("ck", k)
        out[k] = lpoly_from_counts(count_series(spec, spec.genus))
    return out


def _cli_lpoly_coeffs(tmp_path, capsys, family, k, p=2):
    code = cli.main(
        ["lpoly", "--family", family, "--k", str(k), "--p", str(p),
         "--format", "records", "--cache-dir", str(tmp_path)]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    return tuple(int(c) for c in record["coeffs"])


def test_criterion_1_printed_table(tmp_path, capsys):
    with criterion(1, "printed L-polynomial table, k=1..5"):
        for k in range(1, 6):
            got = _cli_lpoly_coeffs(tmp_path, capsys, "ck", k)
            expected = expand_factors(CK_FACTORED[k])
            assert got == expected, f"k={k}"


def test_criterion_2_divisibility(ck_lpolys):
    with criterion(2, "L(C_1) divides L(C_k), k=2..5"):
        base = ck_lpolys[1]
        for k in range(2, 6):
            ok, quotient, _ = divides(base, ck_lpolys[k])
            assert ok, f"k={k}"
            assert all(isinstance(c, int) for c in quotient)


def test_criterion_3_lmw():
    with criterion(3, "trace-form zero counts match the closed formula"):
        checked = 0
        for n in range(1, 16, 2):
            for k in range(1, 7):
                if math.gcd(k, n) == 1:
                    assert lmw_zero_count(n, k, 0) == lmw_formula(n, k, 0), (n, k, 0)
                    checked += 1
        for n in range(1, 14, 2):
            for k in range(2, 7):
                for j in range(1, k):
                    if math.gcd(k + j, n) == 1 and math.gcd(k - j, n) == 1:
                        assert lmw_zero_count(n, k, j) == lmw_formula(n, k, j), (n, k, j)
                        checked += 1
        assert checked > 100


def test_criterion_4_morphism_identity():
    with criterion(4, "covering identity for every tower pair l | k <= 16"):
        pairs = [(k, l) for k in range(2, 17) for l in range(1, k) if k % l == 0]
        assert len(pairs) >= 30
        for k, l in pairs:
            assert verify_covering(k, l), (k, l)
        # regression pin: constant cross-term scale breaks the identity
        assert not covering_defect(2, 1, build_g_fixed_scale(2, 1)).is_zero()


@pytest.mark.parametrize(
    "family,k,p",
    [("ck", 3, 2), ("ek", 2, 2), ("ckp", 1, 3)],
)
def test_criterion_5_round_trip(family, k, p):
    spec = CurveSpec(family, k, p)
    g = spec.genus
    with criterion(5, f"functional-equation round trip for {spec.label}"):
        series = count_series(spec, 2 * g)
        lp = lpoly_from_counts(series.counts[:g], g=g, q=p)
        for m in range(g + 1, 2 * g + 1):
            assert predicted_count(lp, m) == series.counts[m - 1], m


def test_criterion_6_repeated_roots(ck_lpolys):
    with criterion(6, "repeated roots appear after base change"):
        lp = ck_lpolys[1]
        lifted = base_change(lp, 4)
        assert lifted.coeffs == (1, 8, 16)  # (4t + 1)^2
        assert squarefree(lp)
        assert not squarefree(lifted)


def test_criterion_7_odd_characteristic_divisibility():
    with criterion(7, "odd-characteristic divisibility evidence (p=3)"):
        c13 = CurveSpec("ckp", 1, 3)
        c23 = CurveSpec("ckp", 2, 3)
        assert (c13.genus, c23.genus) == (3, 9)
        l13 = lpoly_from_counts(count_series(c13, c13.genus))
        l23 = lpoly_from_counts(count_series(c23, c23.genus))
        result = divides(l13, l23)
        print(f"  L(C_1^(3)) | L(C_2^(3)): {result.divides}")
        if not result.divides:
            pytest.fail(
                "notable finding: L(C_1^(3)) does NOT divide L(C_2^(3)); "
                f"division fails at coefficient {result.fail_index}"
            )


def test_criterion_8_obstruction_procedure():
    with criterion(8, "additive-image obstruction dichotomy"):
        for p in (3, 5, 7):
            decision = artin_schreier_image(tower_obstruction(p))
            assert not decision.in_image, p
            assert decision.stuck_degree == p + 1
        witness_source = x_pow(2, 3) + x_pow(2, 1)  # x^3 + x
        h = frobenius(witness_source) + witness_source
        decision = artin_schreier_image(h)
        assert decision.in_image
        assert decision.witness == witness_source


def test_criterion_9_involutions():
    with criterion(9, "translation involutions exist exactly for even k"):
        for k in range(1, 21):
            b = involution_search(k)
            if k % 2 == 0:
                assert b is not None, k
                # re-verify both defining conditions independently
                assert b * b + b == x_pow(2, 1 << k) + x_pow(2, 1)
                assert len(b.terms) % 2 == 0  # B(1) = 0 over GF(2)
                assert b == SparsePoly(2, {1 << i: 1 for i in range(k)})
            else:
                assert b is None, k


def test_criterion_10_property_suites():
    rng = random.Random(20150901)
    with criterion(10, "field axioms, trace laws, bounds, and the pair oracle"):
        # field axioms and trace laws on random triples in mixed fields
        for p, m in ((2, 9), (2, 16), (3, 5), (5, 3), (7, 2)):
            ctx = make_field(p, m)
            for _ in range(60):
                a, b, c = (rng.randrange(ctx.order) for _ in range(3))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % p
                assert ctx.trace(ctx.pow(a, p)) == ctx.trace(a)
                if a:
                    assert ctx.mul(a, ctx.inv(a)) == 1

        # trace-zero cardinality p^(m-1), including a 2^20 field
        for p, m in ((2, 12), (2, 20), (3, 9), (5, 5)):
            ctx = make_field(p, m)
            assert trace_zero_count(ctx, (1,)) == p ** (m - 1), (p, m)

        # Hasse-Weil bound on every counted series used by this suite
        for family, k, p, upto in (
            ("ck", 1, 2, 8), ("ck", 2, 2, 6), ("ck", 3, 2, 8), ("ck", 4, 2, 8),
            ("ek", 1, 2, 4), ("ek", 2, 2, 6), ("ak", 2, 2, 6),
            ("ckp", 1, 3, 6), ("ckp", 2, 3, 9),
        ):
            series = count_series(CurveSpec(family, k, p), upto)
            assert hasse_weil_check(series).ok, (family, k, p)

        # Newton division exactness: corrupted counts must raise, never round
        with pytest.raises(LSeriesError):
            lpoly_from_counts([5, 8], g=2, q=2)
        with pytest.raises(LSeriesError):
            lpoly_from_counts([5, 9, 7], g=2, q=2)  # surplus count contradicts N_1, N_2

        # literal (x, y) oracle agreement at the 2^12 scale, every family
        for family, k, p, m in (
            ("ck", 1, 2, 12), ("ek", 1, 2, 12), ("ak", 3, 2, 12), ("ckp", 1, 3, 7),
        ):
            spec = CurveSpec(family, k, p)
            from lpolydiv.curves import affine_count

            assert affine_count(spec, m) == oracle_affine_count(spec, m), (family, m)


def test_criterion_1_and_2_gated_c6(tmp_path, capsys):
    with criterion("1+2 (C_6)", "C_6 table entry and divisibility, fields to 2^32"):
        spec = CurveSpec("ck", 6)
        series = count_series(spec, spec.genus)
        lp = lpoly_from_counts(series)
        assert lp.coeffs == expand_factors(CK_FACTORED[6])
        base = lpoly_from_counts(count_series(CurveSpec("ck", 1), 1))
        ok, quotient, _ = divides(base, lp)
        assert ok and quotient is not None
