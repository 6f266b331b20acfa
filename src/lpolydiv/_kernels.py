"""Counting kernels behind the point counters.

Every kernel counts field elements x with Tr(f(x)) = 0 for f(x) = sum of
x**e over a term list, and :func:`choose_kernel` makes the one choice
between them from p, m and the terms, so a count is refused before its field:

* ``qf`` when every exponent is p^a (a linear term) or p^a + 1 (a quadratic
  term).  Then Tr(f(x)) is a quadratic form plus a linear form over GF(p) in
  the coordinates of x.  One elimination, the same for every p, splits the
  form into squares (odd p only) and hyperbolic planes until an affine part
  is left, and reads its number of zeros off them in O(m^3) operations,
  without visiting a single element (Lidl-Niederreiter, *Finite Fields*,
  ch. 6 §2, Thms 6.26-6.27).  ck, ckp, the lmw check and ak's *affine*
  count take this path.  Its Gram matrix comes from :func:`_trace_form`, the
  one builder of it: the digits of the twisted powers times the Hankel
  matrix of the trace vector.
* ``recurrence`` for any other term list over GF(2) (ek's 1/x term): along
  the powers of a generator g, Tr(f(g^i)) is a linear recurring sequence of
  order at most r m for r terms, annihilated by the product of the terms'
  minimal polynomials over GF(2).  That product expands the sequence over the
  whole multiplicative group by doubling a packed prefix, checked against
  2 r m computed terms, with the carry-less multiply and reduce of
  :mod:`gf`, up to order :data:`MAX_RECURRENCE_ORDER`.
  No table is built.  No family needs it in odd characteristic, so odd p
  with such terms is refused.
"""

import functools
import operator
from typing import Sequence

from .gf import FieldContext, FieldLimitError, _clmod, _clmul, _digits, _field_name, _undigits, jacobi_symbol

MAX_RECURRENCE_ORDER = 1 << 20  # the recurrence expands one term per nonzero element


def _log_exact(p: int, n: int) -> int | None:
    """a with p**a == n, or None when n is not a power of p."""
    if n < 1:
        return None
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a if n == 1 else None


def _trace_form(ctx: FieldContext, quads: Sequence[int]) -> list[list[int]]:
    """G[i][j] = sum_a Tr(e_i^(p^a) e_j) mod p over the twists a, basis e_i = x^i.

    sum_a Tr(x^(p^a + 1)) = sum_ij x_i x_j G[i][j] in the coordinates of x.
    As Tr(w_i x^j) = sum_l digit_l(w_i) t_(l+j) for w_i = sum_a (x^(p^a))^i and
    t_n = Tr(x^n), G is the digit matrix of w times the Hankel matrix t_(l+j).
    """
    p, m, t = ctx.p, ctx.m, ctx._traces
    x = p  # the residue class of X; at m = 1 no power of it is read
    w = [0] * m
    for a in quads:
        y, powers = ctx.pow(x, p ** (a % m)), [1]
        for _ in range(m - 1):
            powers.append(ctx.mul(powers[-1], y))
        w = list(map(ctx.add, w, powers))
    if p == 2:  # digits are bits: G[i][j] is the parity of w_i & (t_j, ..., t_(j+m-1))
        packed = _undigits(t, 2)
        return [[(v & packed >> j).bit_count() & 1 for j in range(m)] for v in w]
    rows = [_digits(v, p, m) for v in w]
    return [[sum(map(operator.mul, d, t[j : j + m])) % p for j in range(m)] for d in rows]


def _diagonal_count(p: int, r: int, delta: int, b: int) -> int:
    """Solutions y in GF(p)^r of d_1 y_1^2 + ... + d_r y_r^2 = b, prod d_t = delta.

    Lidl-Niederreiter Thm 6.26 (r odd) and Thm 6.27 (r even), with eta the
    quadratic character of GF(p).
    """
    if r == 0:
        return 1 if b == 0 else 0
    if r % 2:
        sign = -1 if (r - 1) // 2 % 2 else 1
        return p ** (r - 1) + p ** ((r - 1) // 2) * jacobi_symbol(sign * b * delta, p)
    nu = p - 1 if b == 0 else -1
    sign = -1 if r // 2 % 2 else 1
    return p ** (r - 1) + nu * p ** ((r - 2) // 2) * jacobi_symbol(sign * delta, p)


def _qf_count(p: int, g: Sequence[Sequence[int]], lin: Sequence[int]) -> int:
    """Zeros over GF(p)^m of Q(x) = sum_ij g_ij x_i x_j + sum_i lin_i x_i, for every p.

    Q has square coefficients d_i = g_ii and cross coefficients b_ij = g_ij + g_ji,
    held in one symmetric matrix a with a_ij = b_ij and a_ii = 2 d_i.  Over
    GF(2), x_i^2 = x_i moves each d_i into the linear part, and a_ii = 0.
    Each step takes variables off Q, with U and V affine in the others:

    * a square, while some d_i != 0 (odd p only):
      d_i x_i^2 + x_i U = d_i (x_i + U/2d_i)^2 - U^2/4d_i;
    * else a hyperbolic plane, c = b_ij != 0:
      c x_i x_j + x_i U + x_j V = c (x_i + V/c)(x_j + U/c) - UV/c.

    Either way the other variables gain -UV/c, with V = U and c = 4 d_i for
    a square.  After r squares, of product delta, and h planes, Q is affine
    in the rest with constant const.  A nonzero linear part takes every
    value equally often.  Otherwise Q = 0 where the squares sum to
    -const - s and the planes to s, which they do at p^(2h-1) - p^(h-1)
    points for s != 0 and at p^h more for s = 0 (Lidl-Niederreiter,
    *Finite Fields*, ch. 6 §2).
    """
    m, fold = len(g), p == 2
    a = [[(x + y) % p for x, y in zip(row, col)] for row, col in zip(g, zip(*g))]
    lin = [(l + fold * g[i][i]) % p for i, l in enumerate(lin)]
    live = set(range(m))
    const, delta, r, h = 0, 1, 0, 0
    while True:
        if (i := next((i for i in live if a[i][i]), None)) is not None:
            j, c = i, 2 * a[i][i]
            delta, r = delta * a[i][i] * (p + 1) // 2 % p, r + 1  # d_i = a_ii / 2
        elif (pair := next(((i, j) for i in live for j in live if a[i][j]), None)) is not None:
            (i, j), h = pair, h + 1
            c = a[i][j]
        else:
            break
        live -= {i, j}
        cinv = pow(c, -1, p)
        u, v, li, lj = a[i], a[j], lin[i], lin[j]
        for k in live:
            uk, vk = u[k] * cinv % p, v[k] * cinv % p
            if uk or vk:  # over GF(2), the square U_k V_k x_k^2 / c is linear
                a[k] = [(x - uk * y - vk * z) % p for x, y, z in zip(a[k], v, u)]
                lin[k] = (lin[k] - uk * lj - vk * li - fold * uk * v[k]) % p
        const = (const - li * lj * cinv) % p
    if any(lin[k] for k in live):
        return p ** (m - 1)
    planes = (p**h - 1) * p ** (h + r) // p  # p^r square sums, p^(2h-1) - p^(h-1) plane points each
    return p ** (m - r - 2 * h) * (planes + p**h * _diagonal_count(p, r, delta, -const % p))


def _min_poly(ctx: FieldContext, h: int) -> int:
    """The minimal polynomial of h over GF(2), packed with bit j <-> z^j.

    It is the first GF(2)-linear relation among 1, h, h^2, ...: each power, an
    m-bit int, is reduced by XOR against the earlier ones, at most m products.
    """
    rows = {}  # leading bit -> (reduced power, its sum of powers packed as a polynomial)
    power, poly = 1, 1
    while True:
        v, c = power, poly
        while v and v.bit_length() in rows:
            w, d = rows[v.bit_length()]
            v, c = v ^ w, c ^ d
        if not v:
            return c
        rows[v.bit_length()] = v, c
        power, poly = ctx.mul(power, h), poly << 1


def _expand_binary(poly: int, start: int, total: int) -> int:
    """w_0..w_(total-1) of a GF(2) recurrence packed into an int, bit i = w_i.

    poly packs P(z) of degree L >= 1, bit j <-> z^j, with sum_j P_j w_(i+j) = 0,
    and start holds w_0..w_(L-1).  Then w_(i+t) = sum_k a_k w_(i+k) for
    z^t = sum_k a_k z^k mod P.  Once the first s = u + L - 1 terms are known,
    t = s gives the next u of them as an XOR of shifted copies of the known
    prefix, one per nonzero a_k, so u doubles each round and z^u mod P is
    updated by squaring.
    """
    size = poly.bit_length() - 1
    bits, known, step = start, size, 1
    z_step = _clmod(0b10, poly)
    while known < total:
        width = min(step, total - known)
        a = _clmod(z_step << (size - 1), poly)  # z^known
        block = 0
        while a:
            block ^= bits >> ((a & -a).bit_length() - 1)
            a &= a - 1
        bits |= (block & ((1 << width) - 1)) << known
        known += width
        step *= 2
        z_step = _clmod(_clmul(z_step, z_step), poly)
    return bits


def _recurrence_count(ctx: FieldContext, exponents: Sequence[int]) -> int:
    """Count i in [0, order - 1) with Tr(sum_e g^(i*e)) = 0, g = ctx.generator(), over GF(2^m).

    w_i = Tr(f(g^i)) = sum_e Tr(h_e^i) with h_e = g^e, and i -> Tr(h^i) is
    annihilated by the minimal polynomial of h over GF(2), of degree <= m
    (Lidl-Niederreiter, *Finite Fields*, ch. 8), so w is annihilated by the
    product P of the terms' minimal polynomials, of degree L <= r m for r
    terms.  The first 2 r m terms are computed with r running products, and
    P expands the first L of them to all n = order - 1, packed into the bits
    of one int.  The expansion must reproduce the computed terms and, as
    g^n = 1, repeat its first L terms after n.
    """
    n = ctx.order - 1
    g = ctx.generator()
    steps = [ctx.pow(g, e % n) for e in exponents]
    poly = functools.reduce(_clmul, (_min_poly(ctx, h) for h in steps))
    count, head, powers = 2 * len(steps) * ctx.m, 0, [1] * len(steps)
    for i in range(count):
        head |= (sum(ctx.trace(x) for x in powers) & 1) << i
        powers = [ctx.mul(x, h) for x, h in zip(powers, steps)]
    size = poly.bit_length() - 1
    start = head & ((1 << size) - 1)
    bits = _expand_binary(poly, start, max(n + size, count))
    if bits & ((1 << count) - 1) != head or (bits >> n) & ((1 << size) - 1) != start:
        raise AssertionError(f"{ctx!r}: the recurrence does not reproduce the trace sequence")
    return n - (bits & ((1 << n) - 1)).bit_count()


def choose_kernel(p: int, m: int, exponents: Sequence[int]) -> tuple[list[int], int] | None:
    """The qf split of the terms over GF(p^m), or None for the recurrence, refused past its bound.

    The recurrence counts over GF(2) alone, so odd p with other terms is refused.
    """
    if 0 in exponents:
        raise ValueError("constant terms are not supported")
    quads: list[int] = []
    linear = 0
    for e in exponents:  # a negative exponent fits neither quadratic-form shape
        if _log_exact(p, e) is not None:
            linear += 1
        elif (a := _log_exact(p, e - 1)) is not None:
            quads.append(a)
        elif p != 2:
            raise ValueError(f"odd p takes only terms x^(p^a) and x^(p^a + 1), got p = {p}")
        elif p**m > MAX_RECURRENCE_ORDER:
            raise FieldLimitError(
                f"{_field_name(p, m)} is too large for these terms: the recurrence kernel stops at "
                f"order 2^{MAX_RECURRENCE_ORDER.bit_length() - 1} (MAX_RECURRENCE_ORDER)"
            )
        else:
            return None
    return quads, linear


def trace_zero_count(ctx: FieldContext, exponents: Sequence[int]) -> int:
    """Number of x in the field with Tr(sum_e x**e) = 0.

    Negative exponents mean inverse powers, and then x = 0 is left out.
    """
    exponents = tuple(exponents)
    classified = choose_kernel(ctx.p, ctx.m, exponents)
    if classified is not None:
        quads, linear = classified
        return _qf_count(ctx.p, _trace_form(ctx, quads), [linear * t for t in ctx._traces[: ctx.m]])
    # the kernel counts the nonzero x; x = 0 is a zero when f(0) = 0
    return _recurrence_count(ctx, exponents) + all(e > 0 for e in exponents)
