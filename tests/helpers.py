"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles, staying off
the code paths under test: solution counting enumerates (x, y) pairs against
the raw curve equations, the bit oracle enumerates GF(2^m) against trace
forms built from field arithmetic alone, the form oracle evaluates a
quadratic form at every point of GF(p)^m, the trace-form oracle builds the qf
kernel's Gram matrix one field product and trace per entry, count prediction
expands the zeta function's logarithmic derivative as a power series,
polynomial division is ascending long division over the rationals, the
polynomial gcd is Euclid over the rationals with each divisor made monic,
irreducibility is decided by trial division over all low-degree monic
polynomials, and so is primality.  The ck and ckp counts also have Coulter's
closed forms, which read k only through gcd(k, m).  The covering-defect oracle takes every
power by SparsePoly's schoolbook product, the involution oracle scans all
2^k candidates, and the additive-image oracle is the greedy leading-term peel
that the chain criterion replaced.
The command-line oracle is the argparse parser the CLI's table parser replaced,
reading an int option by a regular expression: an optional sign, then ASCII digits.

The table walk and the wide ek pair check read the field's discrete-log
tables (a stdlib array and bytes) through zero-copy numpy views, built once
per field by ``dlog_tables``; the field context keeps none.  numpy is a
test dependency only, from the ``test`` extra; the package itself needs none.
"""

import argparse
import functools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np

from lpolydiv import cli
from lpolydiv.gf import make_field
from lpolydiv.sympoly import SparsePoly, build_f, build_g, x_pow

_BATCH = 1 << 20


def oracle_affine_count(spec, m):
    """Affine solutions by checking the curve equation on every (x, y) pair."""
    ctx = make_field(spec.p, m)
    q = ctx.order
    k, p = spec.k, spec.p
    if spec.family == "ek":
        if q <= 1 << 10:
            count = 0
            for x in ctx.elements():
                rhs = ctx.add(ctx.pow(x, (1 << k) + 3), x)
                for y in ctx.elements():
                    if (ctx.mul(y, y) ^ ctx.mul(x, y)) == rhs:
                        count += 1
            return count
        return _oracle_ek_wide(ctx, k)
    # y^p - y is a function of y alone, so tallying its values once and
    # reading each fiber off the tally counts exactly the solution pairs.
    lhs = Counter(ctx.sub(ctx.pow(y, p), y) for y in ctx.elements())
    if spec.family == "ck":
        exp = (1 << k) + 1
    elif spec.family == "ak":
        exp = 1 << k
    else:
        exp = p**k + 1
    return sum(lhs[ctx.add(ctx.pow(x, exp), x)] for x in ctx.elements())


def _oracle_ek_wide(ctx, k):
    # Same literal pair check, vectorized over y for each x.
    q = ctx.order
    n = q - 1
    exp_t, _ = dlog_tables(ctx)
    log_t = np.full(q, -1, dtype=np.int64)
    log_t[exp_t] = np.arange(n, dtype=np.int64)
    ysqr = np.fromiter((ctx.mul(y, y) for y in range(q)), dtype=np.int64, count=q)
    log_nz = log_t[1:]
    count = 0
    xy = np.empty(q, dtype=np.int64)
    for x in range(q):
        rhs = ctx.add(ctx.pow(x, (1 << k) + 3), x)
        if x == 0:
            xy[:] = 0
        else:
            xy[0] = 0
            xy[1:] = exp_t[(int(log_t[x]) + log_nz) % n]
        count += int(np.count_nonzero((ysqr ^ xy) == rhs))
    return count


def _bit_tables(ctx, exponents):
    """Byte lookup tables for u(x) with Tr(f(x)) = parity(x & u(x)), p = 2.

    f is a sum of terms x^(2^a) (each contributes Tr(x)) and x^(2^a + 1)
    (each contributes sum_ij x_i x_j Tr(e_i^(2^a) e_j)), so u is GF(2)-linear
    with u(e_i) the packed row i of that Gram matrix, plus the trace mask
    when the count of linear terms is odd.  Every entry comes from ctx.pow,
    ctx.mul and ctx.trace.
    """
    m = ctx.m
    basis = [1 << i for i in range(m)]
    twists = []
    linear = 0
    for e in exponents:
        if e > 0 and e & (e - 1) == 0:
            linear += 1
        elif e > 1 and (e - 1) & (e - 2) == 0:
            twists.append(e - 1)
        else:
            raise ValueError(f"term exponent {e} is neither 2^a nor 2^a + 1")
    rows = []
    for ei in basis:
        w = 0
        for q in twists:
            w ^= ctx.pow(ei, q)
        rows.append(sum(ctx.trace(ctx.mul(w, ej)) << j for j, ej in enumerate(basis)))
    const = sum(ctx.trace(ej) << j for j, ej in enumerate(basis)) if linear % 2 else 0
    tables = []
    for b in range((m + 7) // 8):
        tab = np.zeros(256, dtype=np.uint32)
        for v in range(1, 256):
            bit = 8 * b + (v & -v).bit_length() - 1
            tab[v] = tab[v & (v - 1)] ^ np.uint32(rows[bit] if bit < m else 0)
        tables.append(tab)
    tables[0] ^= np.uint32(const)
    return tables


def bit_zero_count(m, exponents):
    """Elements x of GF(2^m), m <= 32, with Tr(f(x)) = 0, by enumerating them all."""
    if m > 32:  # refused here, whatever limit make_field has
        raise ValueError(f"the bit oracle packs elements into 32 bits, got m = {m}")
    ctx = make_field(2, m)
    tables = _bit_tables(ctx, exponents)
    zeros = 0
    for start in range(0, ctx.order, _BATCH):
        stop = min(ctx.order, start + _BATCH)
        # elements fit in 32 bits; byte b of x is column b of the view
        x = np.arange(start, stop, dtype="<u4")
        xbytes = x.view(np.uint8).reshape(-1, 4)
        u = tables[0][xbytes[:, 0]]
        for b in range(1, len(tables)):
            u ^= tables[b][xbytes[:, b]]
        odd = np.count_nonzero(np.bitwise_count(x & u) & np.uint8(1))
        zeros += (stop - start) - int(odd)
    return zeros


@functools.cache
def dlog_tables(ctx):
    """ctx's tables (exp, tr_exp) as numpy views, built once per field."""
    exp, tr_exp = ctx.multiplicative_tables()
    return np.frombuffer(exp, dtype=f"u{exp.itemsize}"), np.frombuffer(tr_exp, dtype=np.uint8)


def walk_zero_count(ctx, exponents):
    """Nonzero x = g^i with Tr(sum_e x^e) = 0, by walking the discrete-log tables.

    One vectorized pass over every i in [0, order - 1), g the table generator.
    """
    _, tr_exp = dlog_tables(ctx)
    n = ctx.order - 1
    idx = np.arange(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    for e in exponents:
        stride = e % n if n > 1 else 0
        acc += tr_exp[(idx * stride) % n]
    return int(np.count_nonzero(acc % ctx.p == 0))


def form_zero_count(p, g, lin):
    """Points of GF(p)^m where sum_ij g_ij x_i x_j + sum_i lin_i x_i = 0, by evaluating at each.

    The points are the rows of one integer array, in one vectorized pass.
    """
    m = len(g)
    points = np.indices((p,) * m, dtype=np.int64).reshape(m, -1).T
    values = np.einsum("ni,ij,nj->n", points, np.array(g, dtype=np.int64), points)
    values += points @ np.array(lin, dtype=np.int64)
    return int(np.count_nonzero(values % p == 0))


def trace_form_by_entries(ctx, quads):
    """G[i][j] = sum_a Tr(e_i^(p^a) e_j) mod p, basis e_i = x^i, one entry at a time.

    Each twisted basis element comes from ctx.pow, and each entry from one
    ctx.mul and one ctx.trace, as the qf kernel built its form before it read
    the Hankel matrix of the trace vector.
    """
    p, m = ctx.p, ctx.m
    basis = [p**i for i in range(m)]
    form = []
    for e in basis:
        w = 0
        for a in quads:
            w = ctx.add(w, ctx.pow(e, p ** (a % m)))
        form.append([ctx.trace(ctx.mul(w, f)) for f in basis])
    return form


def build_g_fixed_scale(k, l):
    """build_g with every cross term scaled by the constant 2^l, not the telescoping 2^s.

    It fails the covering identity: the regression anchor for the choice of scale.
    """
    q, r = 1 << l, k // l
    terms = [(q**j, 1) for j in range(1, r)]
    for i in range(r):
        for j in range(i + 1, r):
            terms.append(((1 << l) * (q**i + q**j), 1))
    return SparsePoly(2, terms)


def schoolbook_covering_defect(k, l, g=None):
    """covering_defect with g * g and f^(q+1) as q + 1 repeated products."""
    q, r = 1 << l, k // l
    f = build_f(k, l)
    if g is None:
        g = build_g(k, l)
    f_power = SparsePoly(2, {0: 1})
    for _ in range(q + 1):
        f_power = f_power * f
    return f_power + f + x_pow(2, q**r + 1) + x_pow(2, 1) + g * g + g


def involution_scan(k):
    """Every mask with (mask << 1) ^ mask == 2^k + 1 and even popcount, of all 2^k."""
    target = (1 << k) | 1
    return [
        mask
        for mask in range(1 << k)
        if ((mask << 1) ^ mask) == target and mask.bit_count() % 2 == 0
    ]


def peel_artin_schreier(h):
    """(in_image, witness, stuck_degree) for h = g^p - g, by greedy leading-term peeling.

    A top term c x^d with p | d is killed by subtracting (c x^(d/p))^p - c x^(d/p),
    since c^(1/p) = c in GF(p); a top term whose degree p does not divide, or a
    leftover nonzero constant, is unreachable.  One max() per step.
    """
    p = h.p
    work = dict(h.terms)
    witness = []
    while work:
        d = max(work)
        if d == 0 or d % p:
            return False, None, d
        c = work.pop(d)
        e = d // p
        witness.append((e, c))
        c = (work.get(e, 0) + c) % p
        if c:
            work[e] = c
        else:
            work.pop(e, None)
    return True, SparsePoly(p, witness), None


def _v2(n):
    return (n & -n).bit_length() - 1


def closed_form_count(spec, m):
    """N_m = q + 1 + S_m of ck or ckp over GF(q), q = p^m, by Coulter's closed forms.

    With d = gcd(k, m) and r = m/d, ck (Coulter, New Zealand J. Math. 28, 1999) has
      r odd:                       S_m = (2/r)^d 2^((m+d)/2), (2/r) the Jacobi symbol;
      r even, v2(m) = v2(k) + 1:   S_m = 0;
      otherwise:                   S_m = eps 2^(m/2+d), eps = +1 if d is odd and r = 4 mod 8,
                                   else -1.
    The even-r sign eps was fitted to counts, not derived from the theorem's b != 0 case.
    ckp (derived from Coulter, Acta Arith. 83, 1998), with f = p - 1 if p | m, else -1:
      r even, m = 2u:              S_m = -p^(u+d) f if u/d is even, -p^u f if u/d is odd;
      r odd, m even:               S_m = -s p^(m/2) f, s = 1 if p = 1 mod 4, else (-1)^(m/2);
      m odd, p | m:                S_m = 0;
      m odd, p not dividing m:     S_m = (-m/p) t p^((m+1)/2), t = 1 if p = 1 mod 4,
                                   else (-1)^((m+1)/2).
    One ckp sign was likewise fixed against counts.
    """
    k, p = spec.k, spec.p
    d = math.gcd(k, m)
    r = m // d
    if spec.family == "ck":
        if r % 2:
            s = (1 if r % 8 in (1, 7) else -1) ** d * 2 ** ((m + d) // 2)
        elif _v2(m) == _v2(k) + 1:
            s = 0
        else:
            s = (1 if d % 2 and r % 8 == 4 else -1) * 2 ** (m // 2 + d)
        return 2**m + 1 + s
    assert spec.family == "ckp"
    f = p - 1 if m % p == 0 else -1
    quarter = p % 4 == 1
    if r % 2 == 0:
        u = m // 2
        s = -(p ** (u + d) if (u // d) % 2 == 0 else p**u) * f
    elif m % 2 == 0:
        s = -(1 if quarter else (-1) ** (m // 2)) * p ** (m // 2) * f
    elif m % p == 0:
        s = 0
    else:
        legendre = 1 if pow(-m % p, (p - 1) // 2, p) == 1 else -1
        s = legendre * (1 if quarter else (-1) ** ((m + 1) // 2)) * p ** ((m + 1) // 2)
    return p**m + 1 + s


def trial_division_is_prime(n):
    """Primality by trying every factor up to sqrt(n)."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def zeta_oracle_counts(coeffs, q, upto):
    """N_1..N_upto read off the zeta function: N_m = q^m + 1 + [t^(m-1)] L'(t)/L(t)."""
    lp = [Fraction(c) for c in coeffs]
    dl = [Fraction(i * coeffs[i]) for i in range(1, len(coeffs))]
    series = []
    for m in range(upto):
        acc = dl[m] if m < len(dl) else Fraction(0)
        for i in range(1, min(m, len(lp) - 1) + 1):
            acc -= lp[i] * series[m - i]
        series.append(acc / lp[0])
    out = []
    for m in range(1, upto + 1):
        val = series[m - 1]
        assert val.denominator == 1
        out.append(q**m + 1 + int(val))
    return out


def fraction_long_division(d, n):
    """(quotient, fail_index) of n / d by ascending long division over the rationals.

    d and n are ascending integer coefficients without trailing zeros, d[0] != 0.
    Each quotient coefficient is the running remainder's lowest open
    coefficient over d[0], and d times it is subtracted from the remainder;
    the first index holding a non-integral quotient coefficient, or a nonzero
    remainder coefficient once the quotient is complete, is where division
    fails.  The zero numerator divides with quotient (0,), and any other
    numerator of lower degree than d fails at index 0.
    """
    if not any(n):
        return (0,), None
    qlen = len(n) - len(d) + 1
    if qlen <= 0:
        return None, 0
    rem = [Fraction(c) for c in n]
    quotient = []
    for i in range(qlen):
        c = rem[i] / d[0]
        if c.denominator != 1:
            return None, i
        quotient.append(int(c))
        for j, dj in enumerate(d):
            rem[i + j] -= c * dj
    bad = [i for i, r in enumerate(rem) if r]
    return (None, bad[0]) if bad else (tuple(quotient), None)


def frac_gcd(a, b):
    """A gcd of two integer polynomials, ascending, by Euclid over the rationals: a monic
    list of Fractions, or a itself, trimmed, when b is zero."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim([Fraction(c) for c in a]), trim([Fraction(c) for c in b])
    while b:
        inv = 1 / b[-1]
        b = [c * inv for c in b]
        while len(a) >= len(b):
            lead = a[-1]
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] -= lead * b[i]
            trim(a)
        a, b = b, a
    return a


def expand_factors(factors):
    """Multiply (coefficients, multiplicity) pairs into one integer polynomial."""
    out = [1]
    for coeffs, mult in factors:
        for _ in range(mult):
            new = [0] * (len(out) + len(coeffs) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(coeffs):
                    new[i + j] += a * b
            out = new
    return tuple(out)


# Printed irreducible factor lists for the first six ck L-polynomials,
# coefficients ascending, with multiplicities.
CK_FACTORED = {
    1: [((1, 2, 2), 1)],
    2: [((1, 2, 2), 1), ((1, 0, 2), 1)],
    3: [((1, 2, 2), 1), ((1, -2, 2), 1), ((1, 2, 2, 4, 4), 1)],
    4: [((1, 2, 2), 2), ((1, -2, 2), 1), ((1, 0, 2), 1), ((1, 0, 0, 0, 0, 0, 0, 0, 16), 1)],
    5: [
        ((1, 2, 2), 2),
        ((1, -2, 2), 2),
        ((1, -2, 2, 0, -4, 0, 8, -16, 16), 1),
        ((1, 2, 2, 0, -4, 0, 8, 16, 16), 2),
    ],
    6: [
        ((-1, 0, 2), 2),
        ((1, 0, 2), 4),
        ((1, 0, -2, 0, 4), 3),
        ((1, 0, 2, 0, 4), 2),
        ((1, -2, 2), 3),
        ((1, 2, 2), 3),
        ((1, -2, 2, -4, 4), 2),
        ((1, 2, 2, 4, 4), 3),
    ],
}


def monic_polys(p, d):
    """Monic degree-d polynomials over GF(p), as ascending digit lists in packed-int order."""
    for v in range(p**d):
        coeffs = []
        for _ in range(d):
            v, r = divmod(v, p)
            coeffs.append(r)
        yield coeffs + [1]


def trial_division_is_irreducible(f, p):
    """Whether monic f (ascending digit list) has no monic factor of degree 1..deg(f)/2."""

    def rem(a, g):
        a = a[:]
        while len(a) >= len(g) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(g):
                break
            c = a[-1]
            off = len(a) - len(g)
            for i in range(len(g)):
                a[off + i] = (a[off + i] - c * g[i]) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    m = len(f) - 1
    return all(rem(f, g) for d in range(1, m // 2 + 1) for g in monic_polys(p, d))


def brute_smallest_irreducible(p, m):
    """Lex-smallest monic irreducible by trial division against all low degrees."""
    for f in monic_polys(p, m):
        if trial_division_is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible found")


def _ascii_int(value):
    if not re.fullmatch(r"[+-]?[0-9]+", value):
        raise ValueError(value)
    return int(value)


_ascii_int.__name__ = "int"  # argparse's usage error names it: "invalid int value"


def _add_common(parser):
    parser.add_argument("--workers", type=_ascii_int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--format", choices=("table", "records"), default="table")


def _add_family(parser):
    parser.add_argument("--family", required=True, choices=("ck", "ek", "ak", "ckp"))
    parser.add_argument("--k", required=True, type=_ascii_int)
    parser.add_argument("--p", type=_ascii_int, default=2)


def build_parser():
    """The argparse grammar of the CLI, which cli.parse_args must read argv as."""
    parser = argparse.ArgumentParser(prog="lpolydiv")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count")
    _add_family(p_count)
    p_count.add_argument("--m", required=True, type=_ascii_int)
    _add_common(p_count)
    p_count.set_defaults(func=cli.cmd_count)

    p_lpoly = sub.add_parser("lpoly")
    _add_family(p_lpoly)
    _add_common(p_lpoly)
    p_lpoly.set_defaults(func=cli.cmd_lpoly)

    p_conj = sub.add_parser("conjecture")
    p_conj.add_argument("--family", required=True, choices=("ck", "ek", "ckp"))
    p_conj.add_argument("--kmax", required=True, type=_ascii_int)
    p_conj.add_argument("--p", type=_ascii_int, default=2)
    _add_common(p_conj)
    p_conj.set_defaults(func=cli.cmd_conjecture)

    p_verify = sub.add_parser("verify")
    vsub = p_verify.add_subparsers(dest="check", required=True)

    v_mor = vsub.add_parser("morphism")
    v_mor.add_argument("--k", required=True, type=_ascii_int)
    v_mor.add_argument("--l", required=True, type=_ascii_int)
    _add_common(v_mor)
    v_mor.set_defaults(func=cli.cmd_verify_morphism)

    v_lmw = vsub.add_parser("lmw")
    v_lmw.add_argument("--n", required=True, type=_ascii_int)
    v_lmw.add_argument("--k", required=True, type=_ascii_int)
    v_lmw.add_argument("--j", type=_ascii_int, default=0)
    _add_common(v_lmw)
    v_lmw.set_defaults(func=cli.cmd_verify_lmw)

    v_inv = vsub.add_parser("involution")
    v_inv.add_argument("--k", required=True, type=_ascii_int)
    _add_common(v_inv)
    v_inv.set_defaults(func=cli.cmd_verify_involution)

    v_asi = vsub.add_parser("as-image")
    v_asi.add_argument("--p", type=_ascii_int, default=3)
    v_asi.add_argument("--poly", default=None)
    _add_common(v_asi)
    v_asi.set_defaults(func=cli.cmd_verify_as_image)

    return parser
