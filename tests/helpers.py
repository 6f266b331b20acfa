"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles, staying off
the code paths under test: solution counting enumerates (x, y) pairs against
the raw curve equations, count prediction expands the zeta function's
logarithmic derivative as a power series, and irreducibility is decided by
trial division over all low-degree monic polynomials.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from lpolydiv.gf import make_field


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
                    if (ctx.sqr(y) ^ ctx.mul(x, y)) == rhs:
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
    exp_t = ctx.multiplicative_tables().exp
    log_t = np.full(q, -1, dtype=np.int64)
    log_t[exp_t] = np.arange(n, dtype=np.int64)
    ysqr = np.fromiter((ctx.sqr(y) for y in range(q)), dtype=np.int64, count=q)
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


def brute_smallest_irreducible(p, m):
    """Lex-smallest monic irreducible by trial division against all low degrees."""

    def mulmod(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
        return out

    def rem(a, f):
        a = a[:]
        while len(a) >= len(f) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(f):
                break
            c = a[-1]
            off = len(a) - len(f)
            for i in range(len(f)):
                a[off + i] = (a[off + i] - c * f[i]) % p
            while a and a[-1] == 0:
                a.pop()
        return a

    def monics(d):
        for v in range(p**d):
            coeffs = []
            w = v
            for _ in range(d):
                w, r = divmod(w, p)
                coeffs.append(r)
            yield coeffs + [1]

    for v in range(p**m):
        coeffs = []
        w = v
        for _ in range(m):
            w, r = divmod(w, p)
            coeffs.append(r)
        f = coeffs + [1]
        reducible = False
        for d in range(1, m // 2 + 1):
            for g in monics(d):
                if not rem(f, g):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(f)
    raise AssertionError("no irreducible found")
