import random

import pytest
from hypothesis import given, settings, strategies as st

from lpolydiv.gf import (
    MAX_PRIME_TEST,
    FieldContext,
    FieldLimitError,
    _is_irreducible,
    check_field_limits,
    is_prime,
    jacobi_symbol,
    make_field,
)
from helpers import (
    DigitField,
    ben_or_is_irreducible,
    brute_smallest_irreducible,
    digit_field,
    monic_polys,
    oracle_field,
    trial_division_is_irreducible,
    trial_division_is_prime,
)

# Odd p has no field in lpolydiv; those cases check the oracle's digit field in helpers,
# which keeps the modulus rule and the arithmetic lpolydiv once ran for every p.


def test_modulus_examples():
    assert make_field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert digit_field(3, 2).modulus == (1, 0, 1)  # x^2 + 1


@pytest.mark.parametrize(
    "p,m",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)],
)
def test_modulus_matches_bruteforce(p, m):
    assert oracle_field(p, m).modulus == brute_smallest_irreducible(p, m)


# The modulus for m = 1, 2, ... up to the field limit, as the packed int sum
# c_i p^i: make_field's for p = 2, the digit field's for odd p.  Cache records of
# earlier versions carry the modulus; test_cli writes such records through oracle_field.
_PINNED_MODULI = {
    2: (
        0x2, 0x7, 0xB, 0x13, 0x25, 0x43, 0x83, 0x11B, 0x203, 0x409, 0x805, 0x1009,
        0x201B, 0x4021, 0x8003, 0x1002B, 0x20009, 0x40009, 0x80027, 0x100009,
        0x200005, 0x400003, 0x800021, 0x100001B, 0x2000009, 0x400001B, 0x8000027,
        0x10000003, 0x20000005, 0x40000003, 0x80000009, 0x10000008D,
    ),
    3: (
        3, 10, 34, 86, 250, 734, 2198, 6572, 19747, 59068, 177158, 531452, 1594330,
        4782974, 14348918, 43046758, 129140170, 387420523, 1162261478, 3486784435,
    ),
    5: (5, 27, 131, 627, 3146, 15632, 78131, 390627, 1953163, 9765658, 48828136, 244140634, 1220703167),
    7: (7, 50, 345, 2409, 16817, 117651, 823586, 5764811, 40353609, 282475266, 1977326753),
}


@pytest.mark.parametrize("p", sorted(_PINNED_MODULI))
def test_modulus_pinned_for_every_supported_degree(p):
    pinned = _PINNED_MODULI[p]
    moduli = [oracle_field(p, m).modulus for m in range(1, len(pinned) + 1)]
    assert tuple(sum(c * p**i for i, c in enumerate(f)) for f in moduli) == pinned
    with pytest.raises(FieldLimitError):
        oracle_field(p, len(pinned) + 1)


def _mobius(n):
    out = 1
    for f in range(2, n + 1):
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            out = -out
    return out


def _ben_or(f, p, n):
    return _is_irreducible(f, n) if p == 2 else ben_or_is_irreducible(f, p, n)


# Every monic candidate of each degree, not only those below the smallest
# irreducible that the modulus search reaches.
@pytest.mark.parametrize("p, nmax", [(2, 12), (3, 6)])
def test_ben_or_accepts_gauss_count_of_monic_irreducibles(p, nmax):
    for n in range(1, nmax + 1):
        accepted = sum(_ben_or(f, p, n) for f in range(p**n, 2 * p**n))
        gauss = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert accepted == gauss, n


@pytest.mark.parametrize("p, nmax", [(2, 8), (3, 6)])
def test_ben_or_agrees_with_trial_division(p, nmax):
    for n in range(1, nmax + 1):
        for f, digits in enumerate(monic_polys(p, n), start=p**n):
            assert _ben_or(f, p, n) == trial_division_is_irreducible(digits, p), digits


def test_gf4_multiplication():
    f4 = make_field(2, 2)
    w = 2  # residue class of x
    assert f4.mul(w, w) == w ^ 1  # x^2 reduces to x + 1
    assert f4.mul(w, f4.inv(w)) == 1


def test_char2_addition():
    f2 = make_field(2, 1)
    assert f2.add(1, 1) == 0


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2)])
def test_inverse_roundtrip_exhaustive(p, m):
    ctx = oracle_field(p, m)
    for a in ctx.elements(1):
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(2, 4).inv(0)


@pytest.mark.parametrize("p,m", [(2, 5), (3, 3)])
def test_frobenius_order(p, m):
    ctx = oracle_field(p, m)
    q = ctx.order
    for a in ctx.elements():
        assert ctx.pow(a, q) == a
        if a:
            assert ctx.pow(a, q - 1) == 1


_FIELDS = [(2, 8), (2, 13), (3, 5), (5, 3), (7, 2)]


@settings(max_examples=150, deadline=None)
@given(
    idx=st.integers(0, len(_FIELDS) - 1),
    data=st.data(),
)
def test_field_axioms(idx, data):
    p, m = _FIELDS[idx]
    ctx = oracle_field(p, m)
    el = st.integers(0, ctx.order - 1)
    a, b, c = data.draw(el), data.draw(el), data.draw(el)
    assert ctx.add(a, b) == ctx.add(b, a)
    assert ctx.mul(a, b) == ctx.mul(b, a)
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(a, 0) == a
    assert ctx.mul(a, 1) == a
    assert ctx.add(a, ctx.neg(a)) == 0


def test_make_field_picks_the_context_class_by_characteristic():
    # one packed-bit class for p = 2; odd p, which only ckp reaches, builds no field
    assert type(make_field(2, 5)) is FieldContext
    assert [repr(make_field(2, m)) for m in (1, 5)] == ["GF(2)", "GF(2^5)"]
    for p, m in [(3, 2), (5, 1), (4294967291, 1)]:
        with pytest.raises(ValueError, match=r"make_field builds GF\(2\^m\) alone, got GF\("):
            make_field(p, m)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 16), data=st.data())
def test_binary_field_matches_the_digit_codec(m, data):
    # The oracle's DigitField computes GF(2^m) on base-2 digit lists, sharing no
    # element arithmetic with the packed-bit context that make_field returns.
    bits = make_field(2, m)
    digits = DigitField(2, m, bits.modulus)
    el = st.integers(0, bits.order - 1)
    a, b, e = data.draw(el), data.draw(el), data.draw(st.integers(0, 2 * bits.order))
    for op, args in [
        ("add", (a, b)), ("sub", (a, b)), ("neg", (a,)), ("mul", (a, b)), ("pow", (a, e)), ("trace", (a,)),
    ]:
        assert getattr(bits, op)(*args) == getattr(digits, op)(*args), (op, args)
    if a:
        assert bits.inv(a) == digits.inv(a)


def test_trace_examples():
    f4 = make_field(2, 2)
    assert f4.trace(2) == 1  # Tr(w) = w + w^2 = 1
    assert f4.trace(0) == 0
    f8 = make_field(2, 3)
    assert f8.trace(1) == 1  # 1 + 1 + 1 in characteristic 2


@settings(max_examples=150, deadline=None)
@given(idx=st.integers(0, len(_FIELDS) - 1), data=st.data())
def test_trace_linearity_and_frobenius(idx, data):
    p, m = _FIELDS[idx]
    ctx = oracle_field(p, m)
    el = st.integers(0, ctx.order - 1)
    a, b = data.draw(el), data.draw(el)
    lam = data.draw(st.integers(0, p - 1))
    assert ctx.trace(ctx.add(a, b)) == (ctx.trace(a) + ctx.trace(b)) % p
    scaled = 0
    for _ in range(lam):
        scaled = ctx.add(scaled, a)
    assert ctx.trace(scaled) == (lam * ctx.trace(a)) % p
    assert ctx.trace(ctx.pow(a, p)) == ctx.trace(a)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 6), (2, 10), (3, 4), (5, 3), (7, 2)])
def test_trace_zero_cardinality(p, m):
    ctx = oracle_field(p, m)
    zeros = sum(1 for a in ctx.elements() if ctx.trace(a) == 0)
    assert zeros == p ** (m - 1)


def _frobenius_sum(ctx, a):
    """a + a^p + ... + a^(p^(m-1)), the definition of the trace."""
    total = term = a
    for _ in range(ctx.m - 1):
        term = ctx.pow(term, ctx.p)
        total = ctx.add(total, term)
    return total


_TRACE_BASIS_FIELDS = (
    [(2, m) for m in range(1, 33)]
    + [(3, m) for m in range(1, 14)]
    + [(5, m) for m in range(1, 10)]
    + [(7, m) for m in range(1, 8)]
    + [(11, m) for m in range(1, 6)]
    + [(13, m) for m in range(1, 5)]
)


def test_trace_matches_frobenius_sum():
    for p, m in _TRACE_BASIS_FIELDS:
        ctx = oracle_field(p, m)
        for i in range(m):
            assert ctx.trace(p**i) == _frobenius_sum(ctx, p**i), (p, m, i)
        # the trace vector runs on to n = 2m - 2 for the qf kernel's Hankel matrix
        x = p if m > 1 else -ctx.modulus[0] % p  # the residue class of X
        assert len(ctx._traces) == 2 * m - 1, (p, m)
        for n in range(2 * m - 1):
            assert ctx._traces[n] == _frobenius_sum(ctx, ctx.pow(x, n)), (p, m, n)
    for p, m in [(2, 8), (3, 5), (5, 3), (7, 2)]:
        ctx = oracle_field(p, m)
        for a in ctx.elements():
            assert ctx.trace(a) == _frobenius_sum(ctx, a), (p, m, a)


def test_pow_matches_repeated_multiplication():
    for p, m in [(2, 5), (3, 3)]:
        ctx = oracle_field(p, m)
        for a in ctx.elements():
            expected = 1
            for e in range(40):
                assert ctx.pow(a, e) == expected, (p, m, a, e)
                expected = ctx.mul(expected, a)
    with pytest.raises(ValueError):
        make_field(2, 5).pow(3, -1)


def test_enumerate():
    f4 = make_field(2, 2)
    assert list(f4.elements()) == [0, 1, 2, 3]
    big = make_field(2, 20)
    assert len(big.elements()) == 1 << 20
    assert list(big.elements(5, 9)) == [5, 6, 7, 8]


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(FieldLimitError):
        make_field(2, 33)
    with pytest.raises(FieldLimitError):
        make_field(3, 21)
    with pytest.raises(ValueError, match="make_field builds GF"):
        make_field(3, 2)
    # 4294967311 is the smallest prime above 2^32; a degree-1 field is named as its repr names it
    with pytest.raises(FieldLimitError) as refused:
        check_field_limits(4294967311, 1)
    assert str(refused.value) == "GF(4294967311) exceeds the order limit 2^32"
    with pytest.raises(FieldLimitError) as refused:
        check_field_limits(2, 33)
    assert str(refused.value) == "GF(2^33) exceeds the order limit 2^32"


@pytest.mark.parametrize("p, m, bad", [(2, True, "True"), (2, 1.0, "1.0"), (2.0, 1, "2.0")])
def test_make_field_refuses_a_non_int_equal_to_a_cached_int(p, m, bad):
    make_field(2, 1)
    with pytest.raises(TypeError, match=f"expected an integer, got {bad}$"):
        make_field(p, m)


@pytest.mark.parametrize(
    "context, p, m, modulus",
    [
        (FieldContext, 3, 2, (1, 0, 2)),  # 2x^2 + 1 is not monic: x * x read 2, not 1
        (FieldContext, 2, 4, (1, 1, 0, 1)),  # degree 3: 8 residues, not order 16
        (FieldContext, 3, 2, (1, 0, 1, 0)),  # a trailing zero digit
        (FieldContext, 3, 2, (3, 0, 1)),  # a digit outside [0, p)
        (FieldContext, 5, 1, (-1, 1)),
        (FieldContext, 2, 3, (1, 1, 0, 2)),  # a digit outside GF(2)
        (FieldContext, 3, 2, (2, 0, 1)),  # monic over GF(3), but FieldContext is GF(2) alone
    ],
)
def test_field_context_refuses_a_bad_modulus(context, p, m, modulus):
    with pytest.raises(ValueError, match="not a monic polynomial of degree"):
        context(p, m, modulus)


def test_make_field_admits_documented_limits():
    big = make_field(2, 32)
    assert len(big.modulus) == 33
    assert big.mul(big.inv(12345), 12345) == 1
    # one order limit for every p: the largest primes p with p, p^2 and p^3 within 2^32, and
    # 1613 = 2 mod 3, for which no x^3 + c is irreducible, so the modulus search scans them all;
    # the oracle's digit fields of these orders serve the ckp sweep
    for p, m in ((4294967291, 1), (65521, 2), (1621, 3), (1613, 3)):
        check_field_limits(p, m)
        ctx = digit_field(p, m)
        assert ctx.order <= 1 << 32 and ctx.mul(ctx.inv(12345), 12345) == 1
    with pytest.raises(FieldLimitError):
        check_field_limits(1627, 3)
    odd = digit_field(3, 9)
    assert odd.order == 3**9


def test_jacobi_examples():
    assert jacobi_symbol(2, 3) == -1
    assert jacobi_symbol(2, 7) == 1
    for a in (-5, 0, 1, 17):
        assert jacobi_symbol(a, 1) == 1
    with pytest.raises(ValueError):
        jacobi_symbol(2, 6)
    with pytest.raises(ValueError):
        jacobi_symbol(2, -3)


def _jacobi_oracle(a, n):
    # Euler's criterion on each prime factor of n.
    out = 1
    for p in range(3, n + 1, 2):
        while n % p == 0:
            n //= p
            legendre = pow(a % p, (p - 1) // 2, p)
            out *= -1 if legendre == p - 1 else legendre
    return out


def test_jacobi_against_euler_criterion():
    for n in range(1, 100, 2):
        for a in range(0, n + 3):
            assert jacobi_symbol(a, n) == _jacobi_oracle(a, n), (a, n)


def test_jacobi_two_closed_form():
    for n in range(1, 200, 2):
        assert jacobi_symbol(2, n) == (-1) ** ((n * n - 1) // 8)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division():
    for n in range(10**5):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # smallest strong pseudoprimes to the prime bases 2; 2..7; 2..23; and 2..37
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n
    assert is_prime((1 << 61) - 1)
    with pytest.raises(ValueError):
        is_prime(MAX_PRIME_TEST)


def test_multiplicative_tables_consistency():
    ctx = make_field(2, 6)
    exp, tr_exp = ctx.multiplicative_tables()
    g = ctx.generator()
    n = ctx.order - 1
    assert exp[0] == 1
    for i in range(1, n):
        assert exp[i] == ctx.mul(int(exp[i - 1]), g)
    assert len(set(exp.tolist())) == n
    for i in range(n):
        assert tr_exp[i] == ctx.trace(int(exp[i]))


def test_multiplicative_tables_odd_p():
    ctx = digit_field(3, 4)  # FieldContext's tables over the oracle's digit arithmetic
    exp, tr_exp = ctx.multiplicative_tables()
    for i in (0, 1, 17, 50):
        assert tr_exp[i] == ctx.trace(int(exp[i]))


def test_tables_are_rebuilt_equal_on_each_call():
    ctx = make_field(2, 6)
    first, second = ctx.multiplicative_tables(), ctx.multiplicative_tables()
    assert first == second
    assert first[0] is not second[0]  # the context keeps no table state


def test_tables_refused_above_the_order_limit():
    # refused before the generator search or any power is taken
    with pytest.raises(FieldLimitError, match=r"order limit 2\^20"):
        make_field(2, 21).multiplicative_tables()


@pytest.mark.parametrize("m", range(1, 21))
def test_doubling_tables_match_sequential_powers(m):
    ctx = make_field(2, m)
    exp, tr_exp = ctx.multiplicative_tables()
    g = ctx.generator()
    n = ctx.order - 1
    assert len(exp) == n
    indices = sorted(random.Random(m).sample(range(n), min(n, 64)))
    if m <= 16:
        v = 1
        for i in range(n):
            assert exp[i] == v, i
            v = ctx.mul(v, g)
        assert v == 1
    else:
        for i in indices:
            assert exp[i] == ctx.pow(g, i), i
    assert len(set(exp.tolist())) == n
    for i in indices:
        assert tr_exp[i] == ctx.trace(int(exp[i]))
