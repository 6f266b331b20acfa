"""Exact arithmetic in small finite fields GF(p^m).

A field element is a plain Python int in [0, p**m): its base-p digits are the
coefficients of the residue polynomial, least significant digit first.  For
p = 2 this is the usual packed-bit representation.  All operations hang off an
immutable context, one class per characteristic and picked by :func:`make_field`
alone: :class:`FieldContext` on base-p digits, or for p = 2 its subclass on
packed bits.  Elements are freely copyable plain data; every operation is pure.

The reduction modulus is the lexicographically smallest monic irreducible of
its degree, comparing coefficients from degree m-1 down to the constant term.
That ordering coincides with the numeric order of the packed-int encoding, so
the modulus (and therefore every computation) is reproducible across runs and
machines.  Each candidate is tested by Ben-Or's criterion (FOCS 1981): for
p = 2 on packed ints, powers and gcd alike by shift-XOR; for odd p with the
powers x^(p^i) taken by a context over the candidate itself.

The absolute trace is GF(p)-linear, so each field keeps one vector
t_n = Tr(x^n), n < 2m - 1, and Tr(a) = sum_(i<m) digit_i(a) t_i mod p (for
p = 2, the parity of a & trace_mask, the vector packed into bits).  The t_n
are the power sums of the modulus's roots, so Newton's identities give them
from its coefficients with no field multiplication (Lidl-Niederreiter, *Finite
Fields*, ch. 1 §4 and ch. 2 §3), by :func:`_power_sums`, the package's one
power-sum function, which :mod:`lpolydiv.lseries` also runs for an
L-polynomial.  The vector is built on first use.

Supported sizes: every prime p and m >= 1 with p**m <= 2**32; terms that need
the recurrence kernel, p = 2 up to order 2**20 (:func:`choose_kernel`).
Discrete-log tables, which only the test oracles read, stop at order 2**20.
Element enumeration order is the packed-int encoding, ascending.

The package's integer rules live here too, below every other module: :func:`_int` takes
an int alone, :func:`int_from_decimal` reads an int or a decimal string of any length,
and :func:`int_to_decimal` writes one past Python's digit limit.
"""

import functools
import operator
from typing import Sequence

MAX_ORDER_BITS = 32  # every field order p**m is at most 2**MAX_ORDER_BITS
MAX_RECURRENCE_ORDER = 1 << 20  # the recurrence expands one term per nonzero element

# Discrete-log tables above this size would dominate memory and build time.
MAX_TABLE_ORDER = 1 << 20

# Every genus is read at most this large, so p^k for a huge k is not formed.  A count over
# GF(q) that passes the fiber rule is within p q <= 2^64 < 2^65 sqrt(q) of q + 1, so it
# passes Hasse-Weil at the capped genus too.
GENUS_CAP = 1 << 64


class FieldLimitError(ValueError):
    """Field parameters outside the supported size limits."""


# Miller-Rabin with every prime base up to 41 is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME_TEST = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality by Miller-Rabin on the prime bases up to 41.

    Raises ValueError for n >= MAX_PRIME_TEST, where those bases no longer
    decide primality.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41
        return True
    if n >= MAX_PRIME_TEST:
        raise ValueError(f"primality of a number >= {MAX_PRIME_TEST} is not decided")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over F_p, for modulus construction and field multiplication.
# Dense ones are lists of ints in [0, p), ascending degree, no trailing zeros;
# over GF(2) they are also packed into the bits of an int, bit i <-> x^i.


def _digits(v: int, p: int, m: int) -> list[int]:
    """The m base-p digits of v, least significant first."""
    out = []
    for _ in range(m):
        v, d = divmod(v, p)
        out.append(d)
    return out


def _undigits(digits: Sequence[int], p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _clmul(a: int, b: int) -> int:
    """Product in GF(2)[x] of packed a and b (carry-less multiplication)."""
    r = 0
    while b:
        r ^= a * (b & -b)
        b &= b - 1
    return r


def _clmod(a: int, f: int) -> int:
    """a mod f in GF(2)[x], both packed, f nonzero."""
    deg = f.bit_length() - 1
    while a.bit_length() > deg:
        a ^= f << (a.bit_length() - 1 - deg)
    return a


def _ptrim(a: list[int]) -> list[int]:  # drops trailing zeros in place, mod p here or over Z in lseries
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _ptrim(out)


def _pmod(a: list[int], f: Sequence[int], p: int) -> list[int]:
    # f must be monic
    a = a[:]
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            off = len(a) - 1 - df
            for j in range(df + 1):
                a[off + j] = (a[off + j] - c * f[j]) % p
        a.pop()
    return _ptrim(a)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    return a


# Over the integers, not F_p: the package's one exact ascending series division,
# for the power sums below and for the divisibility of lseries.
def _series_quotient(numer: Sequence[int], denom: Sequence[int]) -> list[int]:
    """The first len(numer) coefficients of the power series numer/denom (denom[0] != 0),
    by exact ascending division; the list stops short at the first step that leaves the integers."""
    quo: list[int] = []
    for i, acc in enumerate(numer):
        for j in range(1, min(i, len(denom) - 1) + 1):
            acc -= denom[j] * quo[i - j]
        c, rem = divmod(acc, denom[0])
        if rem:
            break
        quo.append(c)
    return quo


def _power_sums(coeffs: Sequence[int], upto: int) -> list[int]:
    """s_1..s_upto of the reciprocal roots of 1 + c_1 T + c_2 T^2 + ... (coeffs[0] = 1):
    the series -T c'(T) / c(T), Newton's identities, every step exact."""
    c = tuple(coeffs) + (0,) * (upto + 1 - len(coeffs))
    return _series_quotient([-n * c[n] for n in range(upto + 1)], coeffs)[1:]


def _is_irreducible(f: int, p: int, m: int) -> bool:
    """Ben-Or: monic f of degree m is irreducible iff gcd(x^(p^i) - x, f) = 1 for i <= m/2.

    f is packed with its leading digit.  For p = 2 powers and gcd are shift-XOR
    on packed ints; odd p takes x^(p^i) by a context over f, gcd on digit lists.
    """
    if p == 2:
        r = 2  # the residue class of x
        for _ in range(m // 2):
            r = _clmod(_clmul(r, r), f)
            a, b = f, r ^ 2
            while b:
                a, b = b, _clmod(a, b)
            if a != 1:
                return False
        return True
    coeffs = _digits(f, p, m + 1)
    ring = FieldContext(p, m, tuple(coeffs))
    x = r = p  # the residue class of x
    for _ in range(m // 2):
        r = ring.pow(r, p)
        if len(_pgcd(coeffs, _ptrim(_digits(ring.sub(r, x), p, m)), p)) != 1:
            return False
    return True


def _lex_smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    # Scanning the packed encoding in ascending numeric order compares the
    # coefficient tuple (a_{m-1}, ..., a_0) lexicographically.
    for f in range(p**m, 2 * p**m):
        if _is_irreducible(f, p, m):
            return tuple(_digits(f, p, m + 1))
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")


# ---------------------------------------------------------------------------


class FieldContext:
    """Immutable arithmetic context for GF(p)[x]/(f), f the monic modulus.

    Any monic f of degree m, and no other, gives ring arithmetic (add, mul,
    pow) on the base-p digits of the residues.  Only :func:`make_field`, which
    picks an irreducible f, promises the field GF(p^m) that inv, trace,
    generator and the tables need.  Use it rather than the constructor: it
    also caches contexts, so repeated lookups share one modulus search and one
    trace vector, and takes the packed-bit subclass for p = 2.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        if len(modulus) != m + 1 or modulus[m] != 1 or not all(0 <= c < p for c in modulus):
            raise ValueError(f"modulus {modulus} is not a monic polynomial of degree {m} over GF({p})")
        self.p = p
        self.m = m
        self.order = p**m
        self.modulus = modulus

    def __repr__(self) -> str:
        return _field_name(self.p, self.m)

    # -- element arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        return _undigits([(x + y) % p for x, y in zip(_digits(a, p, m), _digits(b, p, m))], p)

    def neg(self, a: int) -> int:
        return _undigits([-d % self.p for d in _digits(a, self.p, self.m)], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        return _undigits(_pmod(_pmul(_digits(a, p, m), _digits(b, p, m), p), self.modulus, p), p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent; use inv() for inverses")
        result = None
        while e:
            if e & 1:
                result = a if result is None else self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return 1 if result is None else result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.order - 2)

    def trace(self, a: int) -> int:
        """Absolute trace into GF(p), an int in [0, p): the m digits of a against t_0..t_(m-1)."""
        return sum(map(operator.mul, _digits(a, self.p, self.m), self._traces)) % self.p

    def elements(self, start: int = 0, stop: int | None = None) -> range:
        """Elements in packed-int order, all of them or those in [start, stop)."""
        return range(start, self.order if stop is None else stop)

    # -- internals ----------------------------------------------------------

    @functools.cached_property
    def _traces(self) -> tuple[int, ...]:
        """t_n = Tr(x^n) for n < 2m - 1, x the residue class of X.

        t_0 = m, and for n >= 1 Tr(x^n) is the n-th power sum of the modulus's
        roots, :func:`_power_sums` of the reversed modulus T^m f(1/T) =
        1 + c_(m-1) T + ... + c_0 T^m, taken over the integers and reduced mod p.
        """
        p, m = self.p, self.m
        return (m % p, *(s % p for s in _power_sums(self.modulus[::-1], 2 * m - 2)))

    def generator(self) -> int:
        """Smallest multiplicative generator in packed-int order."""
        n = self.order - 1
        if n == 1:
            return 1
        factors = _prime_factors(n)
        for cand in range(2, self.order):
            if all(self.pow(cand, n // f) != 1 for f in factors):
                return cand
        raise AssertionError("no multiplicative generator found")

    def multiplicative_tables(self) -> tuple:
        """Build and return (exp, tr_exp), anew on every call.

        exp[i] = g**i in a stdlib ``array("L")``, g the smallest generator, i in
        [0, order-1); tr_exp[i] = trace(exp[i]) in ``bytes``.  Test oracles read them.
        """
        if self.order > MAX_TABLE_ORDER:
            raise FieldLimitError(
                f"{self!r} is too large for discrete-log tables "
                f"(order limit 2^{MAX_TABLE_ORDER.bit_length() - 1})"
            )
        import array

        g = self.generator()
        # "L" items are at least 32 bits wide, and every element is below MAX_TABLE_ORDER
        exp = array.array("L")
        v = 1
        for _ in range(self.order - 1):
            exp.append(v)
            v = self.mul(v, g)
        if v != 1:
            raise AssertionError("generator order mismatch")
        return exp, bytes(map(self.trace, exp))


class _BinaryField(FieldContext):
    """GF(2)[x]/(f) on packed bits: addition is XOR, multiplication carry-less."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        super().__init__(p, m, modulus)
        self._mod_bits = _undigits(modulus, 2)

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        return _clmod(_clmul(a, b), self._mod_bits)

    def trace(self, a: int) -> int:
        return (a & self.trace_mask).bit_count() & 1

    @functools.cached_property
    def trace_mask(self) -> int:
        """The trace vector packed into bits: trace(a) is the parity of a & trace_mask."""
        return _undigits(self._traces, 2)


def _field_name(p: int, m: int) -> str:
    # Python refuses to format ints past 4300 decimal digits, and a series for a huge
    # genus asks for its field at GENUS_CAP; a degree that large is named by the cap.
    if m >= GENUS_CAP:
        return f"GF({p}^m), m >= 2^{GENUS_CAP.bit_length() - 1},"
    return f"GF({p})" if m == 1 else f"GF({p}^{m})"


def _int(value) -> int:
    """value itself if it is an int; int() would accept 7.9, "7" and True."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


# Python refuses str(n) and int(text) past a digit limit (4300 by default, at least
# 640), which a base change soon passes; these convert 600 digits at a time.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def int_to_decimal(n: int) -> str:
    """str(n), for an int of any length."""
    rest, chunks = abs(n), []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    return "-" * (n < 0) + str(rest) + "".join(reversed(chunks))


def int_from_decimal(text) -> int:
    """The one rule for an integer input: an int, or a decimal string of any length.

    A string is an optional sign, then ASCII digits, judged the same way at every
    length; a float, a bool, or a string with spaces or underscores is refused.
    """
    if type(text) is int:
        return text
    if type(text) is not str:
        raise TypeError(f"expected an int or a decimal string, got {type(text).__name__}")
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"invalid decimal integer of {len(text)} characters")
    value = 0
    for start in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[start : start + _CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text[0] == "-" else value


def check_field_limits(p: int, m: int) -> None:
    """Refuse GF(p^m) past the order limit p**m <= 2**MAX_ORDER_BITS, searching no modulus.

    p and m must be ints: a bool, a float or a string raises TypeError.
    """
    if not is_prime(_int(p)):
        raise ValueError(f"characteristic {p} is not prime")
    if _int(m) < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    # p**m >= 2**m, so the degree test keeps a huge m from forming p**m
    if m > MAX_ORDER_BITS or p**m > 1 << MAX_ORDER_BITS:
        raise FieldLimitError(f"{_field_name(p, m)} exceeds the order limit 2^{MAX_ORDER_BITS}")


def _log_exact(p: int, n: int) -> int | None:
    """a with p**a == n, or None when n is not a power of p."""
    if n < 1:
        return None
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a if n == 1 else None


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


# typed: True and 1 are equal keys, and a cached GF(2) must not answer make_field(2, True)
@functools.lru_cache(maxsize=None, typed=True)
def make_field(p: int, m: int) -> FieldContext:
    """Field context for GF(p^m) with the canonical (lex-smallest) modulus.

    Only counts build one: size checks and cached counts search no modulus.
    """
    check_field_limits(p, m)
    context = _BinaryField if p == 2 else FieldContext
    return context(p, m, _lex_smallest_irreducible(p, m))
