"""Counting kernels behind the point counters.

Every kernel counts field elements x with Tr(f(x)) = 0 for f(x) = sum of
x**e over a term list, and :func:`choose_kernel` makes the one choice
between them from p, m and the terms, so a count is refused before its field:

* ``qf`` when every exponent is p^a (a linear term) or p^a + 1 (a quadratic
  term).  Then Tr(f(x)) is a quadratic form plus a linear form over GF(p) in
  the coordinates of x, and its number of zeros follows from the form's rank
  and type in O(m^3) operations, without visiting a single element
  (Lidl-Niederreiter, *Finite Fields*, ch. 6 §2, Thms 6.26-6.27; for p = 2,
  the Walsh sum of the form).  ck, ak, ckp and the lmw check take this path.
  Its Gram matrix comes from :func:`_trace_form`, the one builder of it: the
  digits of the twisted powers times the Hankel matrix of the trace vector.
* ``recurrence`` for any other term list over GF(2) (ek's 1/x term): along
  the powers of a generator g, Tr(f(g^i)) is a linear recurring sequence of
  order at most r m for r terms.  Berlekamp-Massey finds its recurrence from
  2 r m computed terms, and the recurrence expands it over the whole
  multiplicative group by doubling a packed prefix, with the carry-less
  multiply and reduce of :mod:`gf`, up to order :data:`MAX_RECURRENCE_ORDER`.
  No table is built.  No family needs it in odd characteristic, so odd p
  with such terms is refused.
"""

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


def _classify_terms(p: int, exponents: Sequence[int]) -> tuple[list[int], int] | None:
    """Split exponents into Frobenius twists for the quadratic-form kernels.

    Returns (quadratic twist orders a of the p^a + 1 terms, number of p^a
    terms), or None if some exponent fits neither shape.
    """
    quads: list[int] = []
    linear = 0
    for e in exponents:
        if _log_exact(p, e) is not None:
            linear += 1
        elif (a := _log_exact(p, e - 1)) is not None:
            quads.append(a)
        else:
            return None
    return quads, linear


def _trace_form(ctx: FieldContext, quads: Sequence[int]) -> list[list[int]]:
    """G[i][j] = sum_a Tr(e_i^(p^a) e_j) mod p over the twists a, basis e_i = x^i.

    sum_a Tr(x^(p^a + 1)) = sum_ij x_i x_j G[i][j] in the coordinates of x.
    As Tr(w_i x^j) = sum_l digit_l(w_i) t_(l+j) for w_i = sum_a (x^(p^a))^i and
    t_n = Tr(x^n), G is the digit matrix of w times the Hankel matrix t_(l+j).
    """
    p, m, t = ctx.p, ctx.m, ctx._traces
    x = p if m > 1 else -ctx.modulus[0] % p  # the residue class of X
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


def _qf_binary_count(ctx: FieldContext, quads: Sequence[int], linear: int) -> int:
    """Zeros of Q(x) = x^T M x + l.x over GF(2)^m, from the Walsh sum of Q.

    Over GF(2) the diagonal of M is linear (x_i^2 = x_i) and the pair i < j
    carries M_ij + M_ji, so Q is an alternating matrix A plus a linear mask.
    Each elimination of a pair (i, j) with A_ij = 1 rewrites
    x_i x_j + x_i u + x_j v = (x_i + v)(x_j + u) + uv, where u, v are affine
    in the other variables; summing x_i, x_j out doubles the Walsh sum and
    leaves the form Q' + uv on m - 2 variables.  After h eliminations A is
    zero: the sum is 0 if a linear term is left (the linear part does not
    vanish on the radical), else (-1)^c 2^(m-h) with c the constant.
    """
    m = ctx.m
    g = _trace_form(ctx, quads)
    alt = [sum((g[i][j] ^ g[j][i]) << j for j in range(m)) for i in range(m)]
    lin = sum((linear * ctx._traces[i] + g[i][i]) % 2 << i for i in range(m))
    const = h = 0
    for i in range(m):
        if not alt[i]:
            continue
        j = (alt[i] & -alt[i]).bit_length() - 1
        keep = ~((1 << i) | (1 << j))
        u, v = alt[i] & keep, alt[j] & keep
        li, lj = (lin >> i) & 1, (lin >> j) & 1
        for k in range(m):
            row = alt[k] & keep
            if (u >> k) & 1:
                row ^= v
            if (v >> k) & 1:
                row ^= u
            alt[k] = row
        alt[i] = alt[j] = 0
        lin = (lin & keep) ^ (u & v) ^ (u if lj else 0) ^ (v if li else 0)
        const ^= li & lj
        h += 1
    if lin:
        return 1 << (m - 1)
    half = 1 << (m - h - 1)
    return (1 << (m - 1)) + (-half if const else half)


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


def _qf_odd_count(ctx: FieldContext, quads: Sequence[int], linear: int) -> int:
    """Zeros of Q(x) = x^T S x + l.x over GF(p)^m, p odd, by completing squares.

    S_ij = (Tr(e_i^(p^a) e_j) + Tr(e_i e_j^(p^a))) / 2 summed over the twists
    a, and l_i = (number of linear terms) Tr(e_i).  Each pivot d = S_ii != 0
    is split off as d y^2, leaving a form on the other variables; a zero
    diagonal with S_ij != 0 is first made a pivot by x_j -> x_j + x_i.  After
    r pivots what is left is linear plus a constant c: a nonzero linear part
    is balanced, otherwise the diagonal form of rank r must equal -c.
    """
    p, m = ctx.p, ctx.m
    half = (p + 1) // 2
    g = _trace_form(ctx, quads)
    s = [[(g[i][j] + g[j][i]) * half % p for j in range(m)] for i in range(m)]
    lin = [linear * t % p for t in ctx._traces[:m]]
    const, delta, rank = 0, 1, 0
    live = list(range(m))
    while True:
        piv = next((i for i in live if s[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in live for j in live if i != j and s[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            for k in live:
                s[piv][k] = (s[piv][k] + s[j][k]) % p
            for k in live:
                s[k][piv] = (s[k][piv] + s[k][j]) % p
            lin[piv] = (lin[piv] + lin[j]) % p
        d = s[piv][piv]
        dinv = pow(d, -1, p)
        live.remove(piv)
        col = [s[k][piv] for k in range(m)]
        for k in live:
            if col[k]:
                f = col[k] * dinv
                for l in live:
                    s[k][l] = (s[k][l] - f * col[l]) % p
                lin[k] = (lin[k] - f * lin[piv]) % p
        const = (const - lin[piv] * lin[piv] * dinv * half * half) % p
        delta = delta * d % p
        rank += 1
    if any(lin[k] for k in live):
        return p ** (m - 1)
    return p ** (m - rank) * _diagonal_count(p, rank, delta, -const % p)


def _berlekamp_massey(seq: Sequence[int], p: int) -> list[int]:
    """Shortest recurrence s_i = sum_(j=1..L) c_j s_(i-j) mod p generating seq.

    Returns [c_1, ..., c_L], L = 0 for an all-zero seq (Massey, IEEE Trans.
    IT-15, 1969).  conn holds the connection polynomial 1 - sum c_j z^j and
    prev the one before the last length change, with its discrepancy prev_d.
    """
    conn, prev = [1], [1]
    length, shift, prev_d = 0, 1, 1
    for n in range(len(seq)):
        d = sum(c * seq[n - j] for j, c in enumerate(conn[: length + 1])) % p
        if d == 0:
            shift += 1
            continue
        coef = d * pow(prev_d, -1, p) % p
        new = conn + [0] * (len(prev) + shift - len(conn))
        for j, c in enumerate(prev):
            new[j + shift] = (new[j + shift] - coef * c) % p
        if 2 * length <= n:
            prev, prev_d, length, shift = conn, d, n + 1 - length, 1
        else:
            shift += 1
        conn = new
    conn += [0] * (length + 1 - len(conn))
    return [-c % p for c in conn[1 : length + 1]]


def _expand_binary(rec: Sequence[int], start: int, total: int) -> int:
    """w_0..w_(total-1) of a GF(2) recurrence packed into an int, bit i = w_i.

    start holds w_0..w_(L-1).  With P(z) = z^L + c_1 z^(L-1) + ... + c_L,
    w_(i+t) = sum_k a_k w_(i+k) for z^t = sum_k a_k z^k mod P.  Once the first
    s = u + L - 1 terms are known, t = s gives the next u of them as an XOR
    of shifted copies of the known prefix, one per nonzero a_k, so u doubles
    each round and z^u mod P is updated by squaring.
    """
    size = len(rec)
    if size == 0:
        return 0
    poly = (1 << size) | sum(c << (size - j) for j, c in enumerate(rec, 1))
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
    annihilated by the minimal polynomial of h over GF(2), of degree <= m, so
    w is a linear recurring sequence of order L <= r m for r terms
    (Lidl-Niederreiter, *Finite Fields*, ch. 8).  Berlekamp-Massey recovers
    its minimal recurrence from the first 2 r m terms, computed with r
    running products, and the recurrence expands the first L terms to all
    n = order - 1, packed into the bits of one int.  The expansion must
    reproduce the computed terms and, as g^n = 1, repeat its first L terms
    after n.
    """
    n = ctx.order - 1
    g = ctx.generator()
    steps = [ctx.pow(g, e % n) for e in exponents]
    powers = [1] * len(steps)
    known = []
    for _ in range(2 * len(steps) * ctx.m):
        known.append(sum(ctx.trace(x) for x in powers) % 2)
        powers = [ctx.mul(x, h) for x, h in zip(powers, steps)]
    rec = _berlekamp_massey(known, 2)
    head, start = _undigits(known, 2), _undigits(known[: len(rec)], 2)
    bits = _expand_binary(rec, start, max(n + len(rec), len(known)))
    if bits & ((1 << len(known)) - 1) != head or (bits >> n) & ((1 << len(rec)) - 1) != start:
        raise AssertionError(f"{ctx!r}: the recurrence does not reproduce the trace sequence")
    return n - (bits & ((1 << n) - 1)).bit_count()


def choose_kernel(p: int, m: int, exponents: Sequence[int]) -> tuple[list[int], int] | None:
    """The qf split of the terms over GF(p^m), or None for the recurrence, refused past its bound.

    The recurrence counts over GF(2) alone, so odd p with other terms is refused.
    """
    if 0 in exponents:
        raise ValueError("constant terms are not supported")
    # a negative exponent fits neither quadratic-form shape
    classified = _classify_terms(p, exponents)
    if classified is None and p != 2:
        raise ValueError(f"odd p takes only terms x^(p^a) and x^(p^a + 1), got p = {p}")
    if classified is None and p**m > MAX_RECURRENCE_ORDER:
        raise FieldLimitError(
            f"{_field_name(p, m)} is too large for these terms: the recurrence kernel stops at "
            f"order 2^{MAX_RECURRENCE_ORDER.bit_length() - 1} (MAX_RECURRENCE_ORDER)"
        )
    return classified


def trace_zero_count(ctx: FieldContext, exponents: Sequence[int]) -> int:
    """Number of x in the field with Tr(sum_e x**e) = 0.

    Negative exponents mean inverse powers, and then x = 0 is left out.
    """
    exponents = tuple(exponents)
    classified = choose_kernel(ctx.p, ctx.m, exponents)
    if classified is not None:
        qf_count = _qf_binary_count if ctx.p == 2 else _qf_odd_count
        return qf_count(ctx, *classified)
    # the kernel counts the nonzero x; x = 0 is a zero when f(0) = 0
    return _recurrence_count(ctx, exponents) + all(e > 0 for e in exponents)
