import copy
import json
import math
import os
import pickle

import pytest

from lpolydiv._kernels import trace_zero_count
from lpolydiv.cache import CountCache
from lpolydiv.curves import (
    CurveSpec,
    PointCounts,
    affine_count,
    count_field,
    count_series,
    lmw_formula,
    lmw_zero_count,
    point_count,
)
from lpolydiv.gf import GENUS_CAP, FieldLimitError, make_field
from lpolydiv.lseries import LPolynomial, LSeriesError, lpoly_from_counts, predicted_count
from helpers import bit_zero_count, closed_form_count, oracle_affine_count, walk_zero_count


def test_spec_validation():
    for args, message in [
        (("xx", 1), "unknown family 'xx'; expected one of ('ck', 'ek', 'ak', 'ckp')"),
        (("ck", 0), "k must be >= 1, got 0"),
        (("ck", 1, 3), "family ck is defined over GF(2), got p=3"),
        (("ckp", 1, 2), "family ckp needs an odd prime p, got 2"),
        (("ckp", 1), "family ckp needs an odd prime p, got 2"),
        (("ckp", 1, 9), "family ckp needs an odd prime p, got 9"),
    ]:
        with pytest.raises(ValueError) as caught:
            CurveSpec(*args)
        assert str(caught.value) == message


@pytest.mark.parametrize("args", [("ck", True), ("ck", 1.5), ("ckp", 1, 3.0), ("ck", 2, 2.0)])
def test_spec_refuses_a_k_or_p_that_is_not_an_int(args):
    # refused at construction, not by a bare TypeError deep in a count or as a cache record
    with pytest.raises(TypeError, match="expected an integer"):
        CurveSpec(*args)


@pytest.mark.parametrize("counts", [(True,), (5.0,), (5, "9"), (5, 9.0)])
def test_point_counts_refuse_a_count_that_is_not_an_int(counts):
    # not read as N_1 = 1 by lpoly_from_counts, nor failing inside hasse_weil_check
    with pytest.raises(TypeError, match="expected an integer"):
        PointCounts(CurveSpec("ck", 1), counts, ("fresh",) * len(counts))
    assert PointCounts(CurveSpec("ck", 1), [5], ("fresh",)).counts == (5,)


def test_point_counts_hold_one_provenance_per_count():
    spec = CurveSpec("ck", 1)
    listed = PointCounts(spec, (3, 5), ["fresh", "cached"])
    assert listed.provenance == ("fresh", "cached")
    assert listed == PointCounts(spec, (3, 5), ("fresh", "cached"))
    assert hash(listed) == hash(PointCounts(spec, (3, 5), ("fresh", "cached")))
    for provenance in (("fresh",), ("fresh",) * 4, ("fresh", "fresh", "stale"), ("cached", None, "fresh")):
        with pytest.raises(ValueError, match="one provenance, 'fresh' or 'cached', per count"):
            PointCounts(spec, (3, 5, 9), provenance)


_C1_3 = CurveSpec("ckp", 1, 3)


@pytest.mark.parametrize(
    "cls, fields, other, text",
    [
        (CurveSpec, {"family": "ck", "k": 3, "p": 2}, ("ck", 4), "CurveSpec(family='ck', k=3, p=2)"),
        (
            PointCounts,
            {"spec": _C1_3, "counts": (3, 9), "provenance": ("fresh", "cached")},
            (_C1_3, (3, 9), ("fresh", "fresh")),
            "PointCounts(spec=CurveSpec(family='ckp', k=1, p=3), counts=(3, 9), "
            "provenance=('fresh', 'cached'))",
        ),
        (
            LPolynomial,
            {"q": 2, "g": 1, "coeffs": (1, 2, 2)},
            (2, 1, (1, 0, 2)),
            "LPolynomial(q=2, g=1, coeffs=(1, 2, 2))",
        ),
    ],
)
def test_value_classes_are_frozen_records(cls, fields, other, text):
    value = cls(*fields.values())
    assert value == cls(**fields) and hash(value) == hash(cls(**fields))
    assert len({value, cls(**fields), cls(*other)}) == 2
    assert value != cls(*other)
    assert value != tuple(fields.values())
    assert value != type("Sub", (cls,), {})(**fields)
    assert repr(value) == text
    for name in fields:
        assert getattr(value, name) == fields[name]
        with pytest.raises(AttributeError):
            setattr(value, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert copy.copy(value) == value and pickle.loads(pickle.dumps(value)) == value


def test_value_class_defaults_and_derived_fields():
    assert CurveSpec("ck", 3) == CurveSpec(family="ck", k=3, p=2)
    assert CurveSpec(k=3, family="ck").p == 2
    counts = PointCounts(_C1_3, (3, 9, 27), ("fresh",) * 3)
    assert len(counts) == 3 and counts.spec.p == 3


def test_genus_examples():
    assert CurveSpec("ck", 3).genus == 4
    assert CurveSpec("ek", 2).genus == 3
    assert CurveSpec("ckp", 2, 3).genus == 9
    assert CurveSpec("ak", 5).genus == 0
    assert CurveSpec("ck", 1).genus == 1


def test_capped_genus_is_the_genus_up_to_the_cap(monkeypatch):
    specs = [CurveSpec(f, k) for f in ("ck", "ek", "ak") for k in range(1, 12)]
    specs += [CurveSpec("ckp", k, p) for p in (3, 5) for k in range(1, 12)]
    # either side of the cap: 2^63, 2^64 and 2^65; 2^63 + 1 and 2^64 + 1; 3^40 and 3^41
    specs += [CurveSpec(f, k) for f in ("ck", "ek") for k in (64, 65, 66)]
    specs += [CurveSpec("ckp", k, 3) for k in (40, 41)]
    assert GENUS_CAP == 1 << 64
    for spec in specs:
        assert spec.capped_genus == min(spec.genus, GENUS_CAP), spec

    def refuse(self):
        raise AssertionError("genus formed")

    # p^k for k = 10^8 has tens of millions of digits: the cap is read off k alone
    monkeypatch.setattr(CurveSpec, "genus", property(refuse))
    for spec in (CurveSpec("ck", 10**8), CurveSpec("ek", 10**8), CurveSpec("ckp", 10**8, 3)):
        assert spec.capped_genus == GENUS_CAP, spec


GENUS_SPECS = (
    [CurveSpec("ck", k) for k in range(1, 5)] + [CurveSpec("ek", k) for k in range(1, 4)]
    + [CurveSpec("ak", k) for k in range(1, 4)] + [CurveSpec("ckp", 1, 3)]
)


def _accepted_genera(counts, p, genera):
    accepted = set()
    for h in genera:
        try:
            lpoly_from_counts(counts, g=h, q=p)
        except LSeriesError:
            continue
        accepted.add(h)
    return accepted


@pytest.mark.parametrize("spec", GENUS_SPECS, ids=lambda spec: spec.label)
def test_counts_pin_the_genus_rule(spec):
    # N_1..N_(2g+1) rebuild an L-polynomial at the rule's genus g, and their g + 1 surplus counts
    # refuse every other h in [g - 3, g + 3] below 2g + 1; at h = 2g + 1 no count is left over.
    g = spec.genus
    counts = count_series(spec, 2 * g + 1).counts
    genera = range(g - 3, min(g + 4, 2 * g + 1))
    assert _accepted_genera(counts, spec.p, genera) == {g}


def test_two_surplus_counts_do_not_pin_the_genus():
    # The check above is blind with fewer surplus counts: given N_1..N_(g+2), these curves pass at
    # a wrong genus too.  Surplus counts check consistency, not the genus.
    for spec, also in [(CurveSpec("ck", 4), {6, 7, 9}), (CurveSpec("ck", 5), {17}), (CurveSpec("ckp", 1, 3), {4})]:
        g = spec.genus
        counts = count_series(spec, g + 2).counts
        assert _accepted_genera(counts, spec.p, range(g - 3, g + 2)) == {g} | also, spec


def test_labels():
    assert CurveSpec("ck", 2).label == "C_2"
    assert CurveSpec("ckp", 1, 3).label == "C_1^(3)"


def test_affine_count_examples():
    assert affine_count(CurveSpec("ck", 1), 1) == 4
    assert affine_count(CurveSpec("ek", 1), 1) == 3
    assert affine_count(CurveSpec("ckp", 1, 3), 1) == 6


def test_ckp_nine_pair_enumeration():
    # all 9 pairs over GF(3): y^3 - y = x^4 + x literally
    ctx = make_field(3, 1)
    hits = 0
    for x in range(3):
        for y in range(3):
            if ctx.sub(ctx.pow(y, 3), y) == ctx.add(ctx.pow(x, 4), x):
                hits += 1
    assert hits == 6
    assert affine_count(CurveSpec("ckp", 1, 3), 1) == hits


def test_point_count_examples():
    assert point_count(CurveSpec("ck", 1), 1) == 5
    assert point_count(CurveSpec("ck", 1), 3) == 5
    assert point_count(CurveSpec("ek", 1), 1) == 4


# The largest qf field of each characteristic, more odd-p qf counts (one over a large prime)
# and the largest recurrence field, each counted on no cache.  A curve whose genus is within
# the field limits has its count predicted by its own L-polynomial; past them the pinned
# number is the only check.  C_6's N_32, the largest p = 2 qf count, is fixed by
# test_acceptance's L(C_6).
@pytest.mark.parametrize(
    "spec, m, n, from_lpoly",
    [
        (CurveSpec("ckp", 2, 3), 13, 1596511, True),
        (CurveSpec("ek", 5), 20, 1047584, True),
        (CurveSpec("ckp", 1, 5), 8, 393751, False),
        (CurveSpec("ckp", 1, 2039), 2, 4159561, False),
        (CurveSpec("ckp", 2, 13), 5, 369097, False),
    ],
    ids=["C_2^(3)-N_13", "E_5-N_20", "C_1^(5)-N_8", "C_1^(2039)-N_2", "C_2^(13)-N_5"],
)
def test_largest_field_counts(spec, m, n, from_lpoly):
    assert count_field(spec, m) == (n, "fresh")
    if from_lpoly:
        assert predicted_count(lpoly_from_counts(count_series(spec)), m) == n


ORACLE_GRID = (
    [("ck", k, 2, m) for k in (1, 2, 3) for m in range(1, 7)]
    + [("ek", k, 2, m) for k in (1, 2) for m in range(1, 6)]
    + [("ak", k, 2, m) for k in (1, 2, 3) for m in range(1, 6)]
    + [("ckp", 1, 3, m) for m in range(1, 4)]
    + [("ckp", 2, 3, m) for m in range(1, 3)]
    + [("ckp", 1, 5, m) for m in range(1, 3)]
    + [("ckp", 1, 7, 1)]
)


@pytest.mark.parametrize("family,k,p,m", ORACLE_GRID)
def test_trace_counting_matches_pair_oracle(family, k, p, m):
    spec = CurveSpec(family, k, p)
    assert affine_count(spec, m) == oracle_affine_count(spec, m)


@pytest.mark.parametrize("family, p", [("ck", 2), ("ek", 2), ("ak", 2), ("ckp", 3)])
def test_twist_counts_equal_mod_the_degree(family, p):
    # x^(p^m) = x on GF(p^m): k and k + 10^8 m count alike, and the pair
    # oracle, which raises x to the unreduced p^k, agrees, k = m and 2m included
    for m in range(1, 5 if p == 2 else 3):
        for k in range(1, 2 * m + 1):
            spec = CurveSpec(family, k, p)
            count = affine_count(spec, m)
            assert count == affine_count(CurveSpec(family, k + 10**8 * m, p), m), (k, m)
            assert count == oracle_affine_count(spec, m), (k, m)


def test_lmw_twists_equal_mod_the_degree():
    for n in (1, 3, 5, 7):
        for k in range(1, 2 * n + 1):
            for j in {0, min(n, k) - 1, k - 1}:
                terms = ((1 << k) + 1, (1 << j) + 1)
                assert lmw_zero_count(n, k, j) == bit_zero_count(n, terms), (n, k, j)
    assert lmw_zero_count(7, 1 + 7 * 10**8) == lmw_zero_count(7, 1)


def test_count_series_examples():
    series = count_series(CurveSpec("ck", 2), 2)
    assert series.counts == (5, 9)
    assert series.provenance == ("fresh", "fresh")
    assert len(count_series(CurveSpec("ek", 1), 1)) == 1
    with pytest.raises(ValueError, match="extension degree must be >= 1, got 0"):
        count_series(CurveSpec("ck", 2), 0)


def test_count_series_defaults_to_the_genus():
    specs = [CurveSpec("ck", k) for k in range(1, 5)] + [CurveSpec("ek", k) for k in range(1, 4)]
    for spec in specs + [CurveSpec("ckp", k, 3) for k in (1, 2)]:
        assert count_series(spec) == count_series(spec, spec.genus), spec


def test_count_series_of_genus_zero_is_empty_and_gives_l_1():
    spec = CurveSpec("ak", 3)
    assert count_series(spec) == PointCounts(spec, (), ())
    assert lpoly_from_counts(count_series(spec)) == LPolynomial(2, 0, (1,))


def test_count_series_refuses_an_oversize_genus_before_any_count(tmp_path):
    import time

    path = tmp_path / "counts.jsonl"
    start = time.perf_counter()
    with pytest.raises(FieldLimitError, match="order limit 2\\^32"):
        count_series(CurveSpec("ckp", 10**7, 3), cache=CountCache(path))
    assert time.perf_counter() - start < 1.0
    assert not path.exists()


def test_count_series_refuses_an_explicit_upto_past_the_recurrence_bound_before_any_count(tmp_path):
    path = tmp_path / "counts.jsonl"
    # GF(2^21) fits the field limits; only the recurrence kernel's order bound refuses it
    with pytest.raises(FieldLimitError, match="MAX_RECURRENCE_ORDER"):
        count_series(CurveSpec("ek", 1), 21, cache=CountCache(path))
    assert not path.exists()


def test_count_series_hasse_weil():
    spec = CurveSpec("ck", 3)
    series = count_series(spec, 8)
    g, q = spec.genus, 2
    for m, n in enumerate(series.counts, start=1):
        assert (n - q**m - 1) ** 2 <= 4 * g * g * q**m


def test_ck_counts_are_odd():
    for k in (1, 2, 3, 4):
        for m in range(1, 9):
            assert point_count(CurveSpec("ck", k), m) % 2 == 1


def test_ck_matches_c1_on_coprime_odd_extensions():
    c1 = {m: point_count(CurveSpec("ck", 1), m) for m in (1, 3, 5, 7, 9)}
    for k in (2, 3, 4, 5):
        for m in (1, 3, 5, 7, 9):
            if math.gcd(k, m) == 1:
                assert point_count(CurveSpec("ck", k), m) == c1[m]


def test_ck_counts_match_the_closed_form():
    # up to GF(2^32), past the bit oracle's GF(2^24)
    cases = [(CurveSpec("ck", k), m) for k in range(1, 41) for m in range(1, 33)]
    assert len(cases) == 1280
    assert [(spec.k, m) for spec, m in cases if point_count(spec, m) != closed_form_count(spec, m)] == []


def test_ckp_counts_match_the_closed_form():
    # every field within the order limit 2^32; count_field checks each count against
    # Hasse-Weil and the fiber rule before the closed form sees it
    cases = [
        (CurveSpec("ckp", k, p), m)
        for p in (3, 5, 7, 11, 13)
        for m in range(1, 33)
        if p**m <= 1 << 32
        for k in range(1, 2 * m + 3)
    ]
    assert len(cases) == 1018
    assert [
        (spec.p, spec.k, m) for spec, m in cases if count_field(spec, m)[0] != closed_form_count(spec, m)
    ] == []


def test_ak_is_rational():
    for k in (1, 2, 3):
        for m in range(1, 9):
            assert point_count(CurveSpec("ak", k), m) == 2**m + 1


def test_ak_counts_build_no_field(monkeypatch):
    # genus 0: L = 1 gives N_m = 2^m + 1, so no field is built and no kernel runs
    def refuse(p, m):
        raise AssertionError("field built")

    monkeypatch.setattr("lpolydiv.curves.make_field", refuse)
    for k in (1, 2, 3):
        for m in (1, 5, 32):
            assert point_count(CurveSpec("ak", k), m) == 2**m + 1
        with pytest.raises(FieldLimitError):
            point_count(CurveSpec("ak", k), 33)


def test_lmw_zero_count_examples():
    assert lmw_zero_count(3, 1, 0) == 2
    assert lmw_zero_count(1, 1, 0) == 2
    assert lmw_zero_count(5, 1, 0) == 12


def test_lmw_formula_examples():
    assert lmw_formula(3, 1, 0) == 2
    assert lmw_formula(5, 1, 0) == 12
    assert lmw_formula(7, 1, 0) == 72
    assert lmw_zero_count(7, 1, 0) == 72


def test_lmw_validation():
    with pytest.raises(ValueError):
        lmw_zero_count(4, 1, 0)
    with pytest.raises(ValueError):
        lmw_zero_count(3, 1, 1)
    with pytest.raises(ValueError):
        lmw_formula(3, 3, 0)  # gcd(3, 3) != 1: hypothesis violated, not computed
    with pytest.raises(ValueError):
        lmw_formula(5, 3, 2)  # gcd(3 - 2, 5) = 1 but gcd(3 + 2, 5) = 5


def test_lmw_formula_refuses_past_the_field_limits():
    # n and j first, then the field before 2^(n-1) is formed, then the hypothesis
    for n in (33, 100001):
        with pytest.raises(FieldLimitError, match="order limit 2\\^32"):
            lmw_formula(n, 1)
    with pytest.raises(FieldLimitError):
        lmw_formula(33, 3)  # gcd(3, 33) = 3 fails the hypothesis too
    with pytest.raises(ValueError, match="odd and positive"):
        lmw_formula(34, 1)
    with pytest.raises(ValueError, match="0 <= j < k"):
        lmw_formula(33, 1, 1)


def test_lmw_equality_small_grid():
    for n in (1, 3, 5, 7, 9, 11):
        for k in range(1, 5):
            for j in range(0, k):
                if math.gcd(k + j, n) == 1 and math.gcd(k - j, n) == 1:
                    assert lmw_zero_count(n, k, j) == lmw_formula(n, k, j), (n, k, j)


def test_kernel_paths_agree():
    ctx = make_field(2, 10)
    terms = (2**3 + 1, 1)
    bit = bit_zero_count(10, terms)
    table = walk_zero_count(ctx, terms) + 1
    assert bit == table == trace_zero_count(ctx, terms)


def test_field_gate():
    # the field limits of make_field bound every family
    with pytest.raises(FieldLimitError):
        point_count(CurveSpec("ck", 1), 33)
    with pytest.raises(FieldLimitError):
        point_count(CurveSpec("ckp", 1, 3), 21)  # GF(3^20) is the largest within 2^32
    # ek's recurrence kernel has its own order limit
    with pytest.raises(FieldLimitError):
        affine_count(CurveSpec("ek", 1), 21)


def test_trace_zero_count_validation():
    ctx = make_field(2, 4)
    with pytest.raises(ValueError):
        trace_zero_count(ctx, (0, 1))
    # an inverse power leaves x = 0 out: nonzero x with Tr(1/x) = 0
    assert trace_zero_count(ctx, (-1,)) == 7


def test_count_cache_round_trip(tmp_path):
    cache = CountCache(tmp_path / "counts.jsonl")
    spec = CurveSpec("ck", 2)
    first = count_series(spec, 3, cache=cache)
    assert first.provenance == ("fresh",) * 3
    second = count_series(spec, 3, cache=cache)
    assert second.provenance == ("cached",) * 3
    assert second.counts == first.counts
    # a fresh handle re-reads the same integers bit for bit
    reread = CountCache(tmp_path / "counts.jsonl")
    for m in (1, 2, 3):
        assert reread.lookup(spec, m) == first.counts[m - 1]
    records = [json.loads(line) for line in (tmp_path / "counts.jsonl").read_text().splitlines()]
    assert [r["n"] for r in records] == list(first.counts)
    assert all(r["family"] == "ck" and r["k"] == 2 and r["p"] == 2 for r in records)
    assert all(set(r) == {"family", "k", "p", "m", "n", "timestamp"} for r in records)


def test_warm_cache_leaves_file_untouched(tmp_path):
    cache = CountCache(tmp_path / "counts.jsonl")
    spec = CurveSpec("ek", 1)
    count_series(spec, 2, cache=cache)
    before = (tmp_path / "counts.jsonl").read_bytes()
    count_series(spec, 2, cache=CountCache(tmp_path / "counts.jsonl"))
    assert (tmp_path / "counts.jsonl").read_bytes() == before


def test_count_cache_keys_on_curve_and_degree(tmp_path):
    from lpolydiv.curves import CountIntegrityError

    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    cache.store(CurveSpec("ckp", 1, 3), 2, 5)
    assert cache.lookup(CurveSpec("ckp", 1, 3), 2) == 5
    for family, k, p, m in [("ckp", 1, 3, 1), ("ckp", 2, 3, 2), ("ckp", 1, 5, 2), ("ck", 1, 2, 2)]:
        assert cache.lookup(CurveSpec(family, k, p), m) is None
    # Records of earlier versions also carry a modulus; it is no part of the key.
    old = b'{"family":"ck","k":1,"p":2,"m":2,"modulus":[%s],"n":%d}\n'
    path.write_bytes(old % (b"1,1,1", 5))
    assert CountCache(path).lookup(CurveSpec("ck", 1), 2) == 5
    # a blank line between records is skipped
    path.write_bytes(old % (b"1,1,1", 5) + b" \n" + old.replace(b'"m":2', b'"m":3') % (b"1,1,1", 9))
    assert [CountCache(path).lookup(CurveSpec("ck", 1), m) for m in (2, 3)] == [5, 9]
    path.write_bytes(old % (b"1,1,1", 5) + old % (b"0,0,1", 7))
    with pytest.raises(CountIntegrityError, match="lines 1 and 2 store different counts"):
        CountCache(path).lookup(CurveSpec("ck", 1), 2)


def test_corrupted_cache_entry_rejected(tmp_path):
    from lpolydiv.curves import CountIntegrityError

    cache = CountCache(tmp_path / "counts.jsonl")
    spec = CurveSpec("ck", 1)
    cache.store(spec, 1, 500)  # far outside Hasse-Weil
    with pytest.raises(CountIntegrityError):
        count_series(spec, 1, cache=cache)


@pytest.mark.parametrize("m, n", [(True, 3), (1.0, 3), (1, True), (1, 3.0)])
def test_store_refuses_a_record_its_reader_would_refuse(tmp_path, m, n):
    path = tmp_path / "counts.jsonl"
    with pytest.raises(TypeError, match="expected an integer"):
        CountCache(path).store(CurveSpec("ck", 1), m, n)
    assert not path.exists()


def test_count_field_leaves_the_cache_readable_after_a_bool_degree(tmp_path, capsys):
    from lpolydiv import cli

    with pytest.raises(TypeError, match="expected an integer"):
        count_field(CurveSpec("ck", 1), True, cache=CountCache(tmp_path / "counts.jsonl"))
    code = cli.main(["count", "--family", "ck", "--k", "2", "--m", "1", "--cache-dir", str(tmp_path)])
    assert code == 0 and "N_1 = 5 (fresh)" in capsys.readouterr().out


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("m", [True, 2.0])
def test_count_field_refuses_a_degree_that_is_not_an_int(tmp_path, m, cached):
    cache = None
    if cached:  # a lookup keys True like 1 and 2.0 like 2
        cache = CountCache(tmp_path / "counts.jsonl")
        count_field(CurveSpec("ck", 1), int(m), cache=cache)
    with pytest.raises(TypeError, match=f"expected an integer, got {m!r}$"):
        count_field(CurveSpec("ck", 1), m, cache=cache)


def _store_records(path, family, k, count):
    cache = CountCache(path)
    for m in range(1, count + 1):
        cache.store(CurveSpec(family, k), m, m)


def test_torn_final_cache_line_is_ignored_with_a_warning(tmp_path, capsys, monkeypatch):
    path = tmp_path / "counts.jsonl"
    spec = CurveSpec("ck", 1)
    count_series(spec, 2, cache=CountCache(path))
    intact = path.read_bytes()
    path.write_bytes(intact + intact.splitlines(keepends=True)[0][:25])  # killed mid-write
    again = count_series(spec, 3, cache=CountCache(path))
    assert again.provenance == ("cached", "cached", "fresh")
    assert "torn final line" in capsys.readouterr().err
    # the store cut the torn fragment off before appending
    lines = path.read_bytes().splitlines(keepends=True)
    assert b"".join(lines[:2]) == intact and len(lines) == 3
    assert all(json.loads(line)["family"] == "ck" for line in lines)
    # a short write raises, and the torn line it leaves is cut off by the next store
    with monkeypatch.context() as patch:
        patch.setattr(os, "write", lambda fd, data, write=os.write: write(fd, data[:25]))
        with pytest.raises(OSError, match="short write"):
            CountCache(path).store(spec, 4, 17)
    again = count_series(spec, 4, cache=CountCache(path))
    assert again.provenance == ("cached",) * 3 + ("fresh",)
    assert len(path.read_bytes().splitlines()) == 4


_RECORD_M1 = b'{"family":"ck","k":1,"p":2,"m":1,"modulus":[0,1],"n":%s}\n'


@pytest.mark.parametrize(
    "bad",
    [
        b"{\"family\": \"ck\", \"k\"\n",
        b"{\"family\": \"ck\"}\n",
        b"[1, 2]\n",
        # int() would read each of these as a count
        _RECORD_M1 % b"2.9",
        _RECORD_M1 % b'"2"',
        _RECORD_M1 % b"true",
    ],
)
def test_malformed_interior_cache_record_is_an_integrity_error(tmp_path, bad):
    from lpolydiv.curves import CountIntegrityError

    path = tmp_path / "counts.jsonl"
    count_series(CurveSpec("ck", 1), 2, cache=CountCache(path))
    first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(first + bad + second)
    with pytest.raises(CountIntegrityError, match=r"counts\.jsonl:2: malformed"):
        CountCache(path).lookup(CurveSpec("ck", 1), 1)


@pytest.mark.parametrize(
    "line",
    [
        # no writer stores a family that is not a string
        *(b'{"family":%s,"k":1,"p":2,"m":1,"n":5}\n' % family for family in (b'["ck"]', b'{"a":1}', b"7", b"null")),
        b"[" * 100_000 + b"]" * 100_000 + b"\n",  # too deep for the json module
    ],
    ids=["list", "dict", "int", "null", "nested"],
)
def test_cache_reader_refuses_every_record_its_writer_could_not_write(tmp_path, capsys, line):
    from lpolydiv import cli
    from lpolydiv.curves import CountIntegrityError

    path = tmp_path / "counts.jsonl"
    path.write_bytes(line)
    with pytest.raises(CountIntegrityError, match=r"counts\.jsonl:1: malformed count record$"):
        CountCache(path).lookup(CurveSpec("ck", 1), 1)
    assert cli.main(["count", "--family", "ck", "--k", "1", "--m", "1", "--cache-dir", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {path}:1: malformed count record\n")
    assert path.read_bytes() == line


@pytest.mark.parametrize(
    "m, forged, argv",
    [
        # Both forged counts lie inside the Hasse-Weil bound, so only the conflict shows them.
        (3, 9, ["count", "--family", "ck", "--k", "1", "--m", "3"]),
        (1, 1, ["lpoly", "--family", "ck", "--k", "1"]),
    ],
)
def test_conflicting_cache_records_are_an_integrity_error(tmp_path, capsys, m, forged, argv):
    from lpolydiv import cli
    from lpolydiv.curves import CountIntegrityError

    path, argv = tmp_path / "counts.jsonl", argv + ["--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    (line,) = path.read_bytes().splitlines(keepends=True)
    rec = json.loads(line)
    path.write_bytes(line * 2)  # one count stored twice, as concurrent writers can leave it
    assert cli.main(argv) == 0
    path.write_bytes(line * 2 + json.dumps({**rec, "n": forged}).encode() + b"\n")
    capsys.readouterr()
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"lines 1 and 3 store different counts ({rec['n']} and {forged})" in err
    cache = CountCache(path)
    for _ in range(2):  # a failed read is not kept, so the next lookup fails too
        with pytest.raises(CountIntegrityError, match="lines 1 and 3"):
            cache.lookup(CurveSpec("ck", 1), m)


def test_concurrent_writers_append_whole_records(tmp_path):
    import sys
    import threading

    # one handle, hence one open file per store, per writer; more writers
    # than cores, switching often, so unlocked appends would interleave
    path = tmp_path / "counts.jsonl"
    families = ("ck", "ek", "ak", "ck")
    writers = [
        threading.Thread(target=_store_records, args=(path, family, k, 200))
        for k, family in enumerate(families, start=1)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in writers)
    records = [json.loads(line) for line in path.read_bytes().splitlines()]
    assert len(records) == 800
    for k, family in enumerate(families, start=1):
        mine = [r["m"] for r in records if (r["family"], r["k"]) == (family, k)]
        assert sorted(mine) == list(range(1, 201))
