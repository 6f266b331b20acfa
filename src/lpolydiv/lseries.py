"""L-polynomials: reconstruction from counts, prediction, base change, division.

An L-polynomial of a genus-g curve over GF(q) has integer coefficients
a_0..a_2g with a_0 = 1 and the functional-equation symmetry
a_(2g-i) = q^(g-i) a_i.  Writing N_m = q^m + 1 - s_m, the s_m are the power
sums of the reciprocal roots.  One Newton recurrence, with a_m = 0 past 2g,
links the two for every m >= 1:

    s_m = -(m a_m + s_1 a_(m-1) + ... + s_(m-1) a_1)

Solved for a_m it rebuilds the coefficients, and that division by m must be
exact; a remainder signals a wrong genus, a wrong infinity count, or
corrupted input, and raises.  The same recurrence read as the power series
-t L'(t) / L(t) gives the power sums, by the one exact ascending series division
that also decides divisibility: one pass over the numerator and one check
that the quotient's tail is zero.
All arithmetic is arbitrary-precision integer (or exact rational), never float.
"""

import json
from typing import NamedTuple, Sequence

from .curves import PointCounts, _Value, _within_hasse_weil, hasse_weil_ok


class LSeriesError(ValueError):
    """Inconsistent counts, non-exact Newton division, or a bad polynomial."""


class LPolynomial(_Value):
    """Degree-2g integer polynomial over ground size q, coefficients ascending.

    q, g and each coefficient are read by :func:`int_from_decimal`.
    """

    __slots__ = ("q", "g", "coeffs")

    def __init__(self, q: int, g: int, coeffs: Sequence[int]):
        self._set(int_from_decimal(q), int_from_decimal(g), tuple(map(int_from_decimal, coeffs)))
        if self.g < 0 or self.q < 2:
            raise LSeriesError(f"bad parameters q={self.q}, g={self.g}")
        if len(self.coeffs) != 2 * self.g + 1:
            raise LSeriesError(
                f"genus {self.g} needs {2 * self.g + 1} coefficients, got {len(self.coeffs)}"
            )
        if self.coeffs[0] != 1:
            raise LSeriesError(f"constant term must be 1, got {self.coeffs[0]}")
        for i in range(self.g + 1):
            if self.coeffs[2 * self.g - i] != self.q ** (self.g - i) * self.coeffs[i]:
                raise LSeriesError(f"functional equation fails at index {i}")

    def __str__(self) -> str:
        return format_int_poly(self.coeffs)


def _as_counts(counts) -> tuple[Sequence[int], int | None, int | None]:
    if isinstance(counts, PointCounts):
        # a genus past the counts is refused, so it is capped there: p^k for a huge k is never formed
        return counts.counts, counts.spec.genus_at_most(len(counts) + 1), counts.base_q
    return tuple(map(int_from_decimal, counts)), None, None


def _newton_coeffs(sums: Sequence[int], diagnosis: str) -> list[int]:
    """a_0..a_n from the power sums s_1..s_n, by exact Newton division."""
    a = [1]
    for m in range(1, len(sums) + 1):
        quot, rem = divmod(-sum(sums[i - 1] * a[m - i] for i in range(1, m + 1)), m)
        if rem:
            raise LSeriesError(f"Newton division not exact at m={m}: {diagnosis}")
        a.append(quot)
    return a


def lpoly_from_counts(counts, g: int | None = None, q: int | None = None) -> LPolynomial:
    """Reconstruct the L-polynomial from N_1..N_M, M >= g.

    Only the first g counts determine the coefficients (the functional
    equation supplies the upper half); surplus counts are replayed through
    the finished polynomial as a consistency check.
    """
    seq, auto_g, auto_q = _as_counts(counts)
    g = auto_g if g is None else int_from_decimal(g)
    q = auto_q if q is None else int_from_decimal(q)
    if g is None or q is None:
        raise LSeriesError("genus and ground size are required with a bare count sequence")
    if len(seq) < g:
        raise LSeriesError(f"need at least g counts, got {len(seq)} for a genus of at least {g}")
    for m, n in enumerate(seq, start=1):
        if not hasse_weil_ok(n, q, m, g):
            raise LSeriesError(f"count N_{m} = {n} violates the Hasse-Weil bound")
    s = [q**m + 1 - seq[m - 1] for m in range(1, g + 1)]
    a = _newton_coeffs(s, "wrong genus, wrong point at infinity, or corrupted counts")
    a += [q ** (i - g) * a[2 * g - i] for i in range(g + 1, 2 * g + 1)]
    lpoly = LPolynomial(q, g, tuple(a))
    if len(seq) > g:
        sums = power_sums(lpoly, len(seq))
        for m in range(g + 1, len(seq) + 1):
            expected = q**m + 1 - sums[m - 1]
            if expected != seq[m - 1]:
                raise LSeriesError(
                    f"count N_{m} = {seq[m - 1]} is inconsistent with the polynomial "
                    f"built from N_1..N_{g} (expected {expected})"
                )
    return lpoly


def power_sums(lpoly: LPolynomial, upto: int) -> list[int]:
    """s_1..s_upto of the reciprocal roots: the power series -t L'(t) / L(t).

    That is Newton's recurrence with a_m = 0 past 2g, run as one exact
    ascending division, every step exact because a_0 = 1.
    """
    a = lpoly.coeffs + (0,) * (upto - 2 * lpoly.g)
    return _series_quotient([-m * a[m] for m in range(upto + 1)], lpoly.coeffs)[1:]


def predicted_count(lpoly: LPolynomial, m: int) -> int:
    """N_m implied by the polynomial: q^m + 1 - s_m."""
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    return lpoly.q**m + 1 - power_sums(lpoly, m)[-1]


def base_change(lpoly: LPolynomial, s: int) -> LPolynomial:
    """L-polynomial over GF(q^s): reciprocal roots raised to the s-th power."""
    if s < 1:
        raise ValueError(f"extension degree must be >= 1, got {s}")
    sp = power_sums(lpoly, 2 * lpoly.g * s)[s - 1 :: s]
    a = _newton_coeffs(sp, "base change of an invalid L-polynomial")
    return LPolynomial(lpoly.q**s, lpoly.g, tuple(a))


class DivisionResult(NamedTuple):
    divides: bool
    quotient: tuple[int, ...] | None
    fail_index: int | None


def _as_coeffs(poly) -> tuple[int, ...]:
    if isinstance(poly, LPolynomial):
        return poly.coeffs
    c = tuple(map(int_from_decimal, poly))
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    return c


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


def divides(denom, numer) -> DivisionResult:
    """Exact integer polynomial division, as one ascending power-series division.

    The series numer/denom runs over all of numer's coefficients.  numer is
    divisible iff every coefficient is an integer and every one from the
    quotient's length on is zero, since then denom times the quotient is numer;
    zero is, with quotient (0,).  A failure carries the first index where a
    coefficient left the integers or past the quotient is nonzero (0 for a
    nonzero numer of lower degree).
    """
    d = _as_coeffs(denom)
    n = _as_coeffs(numer)
    if not any(d):
        raise ZeroDivisionError("zero divisor polynomial")
    if d[0] == 0:
        raise ValueError("divisor needs a nonzero constant term for ascending division")
    if not any(n):
        return DivisionResult(True, (0,), None)
    qlen = len(n) - len(d) + 1
    if qlen <= 0:
        return DivisionResult(False, None, 0)
    series = _series_quotient(n, d)
    fail = next((i for i in range(qlen, len(series)) if series[i]), len(series))
    if fail < len(n):
        return DivisionResult(False, None, fail)
    return DivisionResult(True, tuple(series[:qlen]), None)


def _frac_gcd(a: list, b: list) -> list:
    """A gcd of two polynomials given as ascending lists of Fractions."""

    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a, b = trim(a[:]), trim(b[:])
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


def squarefree(poly) -> bool:
    """True iff gcd(f, f') is constant, over the rationals with exact arithmetic."""
    from fractions import Fraction

    c = _as_coeffs(poly)
    if len(c) <= 1:
        return True
    f = [Fraction(v) for v in c]
    fprime = [Fraction(i * c[i]) for i in range(1, len(c))]
    return len(_frac_gcd(f, fprime)) == 1


class HasseWeilResult(NamedTuple):
    ok: bool
    bad_index: int | None


def hasse_weil_check(counts: PointCounts) -> HasseWeilResult:
    """Verify |N_m - q^m - 1| <= 2 g q^(m/2) for every entry; exact arithmetic."""
    for i, n in enumerate(counts.counts):
        if not _within_hasse_weil(counts.spec, n, i + 1):
            return HasseWeilResult(False, i)
    return HasseWeilResult(True, None)


# -- serialization ----------------------------------------------------------

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

    A string is an optional sign, then digits, judged the same way at every
    length; a float, a bool, or a string with spaces or underscores is refused.
    """
    if type(text) is int:
        return text
    if type(text) is not str:
        raise TypeError(f"expected an int or a decimal string, got {type(text).__name__}")
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits.isdecimal():
        raise ValueError(f"invalid decimal integer of {len(text)} characters")
    value = 0
    for start in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[start : start + _CHUNK_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text[0] == "-" else value


def lpoly_to_record(lpoly: LPolynomial) -> dict:
    return {"q": lpoly.q, "g": lpoly.g, "coeffs": [int_to_decimal(c) for c in lpoly.coeffs]}


def lpoly_from_record(record: dict) -> LPolynomial:
    return LPolynomial(record["q"], record["g"], record["coeffs"])


def lpoly_to_line(lpoly: LPolynomial) -> str:
    # json writes the number q through str(), so it is put in by hand
    coeffs = json.dumps(lpoly_to_record(lpoly)["coeffs"], separators=(",", ":"))
    return f'{{"q":{int_to_decimal(lpoly.q)},"g":{lpoly.g},"coeffs":{coeffs}}}'


def lpoly_from_line(line: str) -> LPolynomial:
    return lpoly_from_record(json.loads(line, parse_int=int_from_decimal))


def format_int_poly(coeffs: Sequence[int]) -> str:
    """Human form, descending powers: (1, 2, 2) -> '2t^2+2t+1'."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if e == 0:
            body = int_to_decimal(mag)
        else:
            head = "" if mag == 1 else int_to_decimal(mag)
            body = f"{head}t" if e == 1 else f"{head}t^{e}"
        parts.append(f"{sign}{body}")
    return "".join(parts) if parts else "0"
