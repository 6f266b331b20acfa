"""L-polynomials: reconstruction from counts, prediction, base change, division.

An L-polynomial of a genus-g curve over GF(q) has integer coefficients
a_0..a_2g with a_0 = 1 and the functional-equation symmetry
a_(2g-i) = q^(g-i) a_i.  Writing N_m = q^m + 1 - s_m, the s_m are the power
sums of the reciprocal roots.  One Newton recurrence, with a_m = 0 past 2g,
links the two for every m >= 1:

    s_m = -(m a_m + s_1 a_(m-1) + ... + s_(m-1) a_1)

One builder, for counts and base changes alike, solves it for a_1..a_g, each
division by m exact, takes a_(g+1)..a_(2g) from the functional equation, and
requires every further s_m to equal the power sum of the L so built; a remainder
or a mismatch signals a wrong genus, a wrong infinity count, or corrupted input,
and raises naming m.
The L built from a curve's counts must then have that curve's p-rank as its
degree mod p.
The power sums of an L-polynomial come from :func:`lpolydiv.gf._power_sums`, the
package's one power-sum function, which also builds each field's trace vector.
It runs the exact ascending series division :func:`lpolydiv.gf._series_quotient`
that also decides divisibility: one pass over the numerator and one check that
the quotient's tail is zero.
All arithmetic is arbitrary-precision integer, never float.
Integers are read and written by :func:`lpolydiv.gf.int_from_decimal` and
:func:`lpolydiv.gf.int_to_decimal`, imported here, so they resolve from this module too.
"""

import json
import math
from typing import NamedTuple, Sequence

from .curves import PointCounts, _Value, hasse_weil_ok
from .gf import _power_sums, _ptrim, _series_quotient, int_from_decimal, int_to_decimal


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


def _from_power_sums(q: int, g: int, sums: Sequence[int], diagnosis: str) -> LPolynomial:
    """The genus-g L-polynomial over GF(q) with power sums s_1, s_2, ... (module docstring):
    Newton for a_1..a_g, the functional equation for the rest, and any surplus s_m, m > g,
    compared with the power sums of that L by :func:`lpolydiv.gf._power_sums`."""
    a = [1]
    for m in range(1, g + 1):
        a_m, rem = divmod(-sum(sums[i - 1] * a[m - i] for i in range(1, m + 1)), m)
        if rem:
            raise LSeriesError(f"Newton division not exact at m={m}: {diagnosis}")
        a.append(a_m)
    a += [q ** (m - g) * a[2 * g - m] for m in range(g + 1, 2 * g + 1)]
    if len(sums) > g:
        bad = next((m for m, (s, t) in enumerate(zip(sums, _power_sums(a, len(sums))), 1) if s != t), None)
        if bad:
            raise LSeriesError(f"s_{bad} is inconsistent with s_1..s_{g} at genus {g}: {diagnosis}")
    return LPolynomial(q, g, a)


def lpoly_from_counts(counts, g: int | None = None, q: int | None = None) -> LPolynomial:
    """Reconstruct the L-polynomial from N_1..N_M, M >= g, g by default the spec's capped genus.

    Only the first g counts determine the coefficients; each surplus count must
    be the count that L predicts, a consistency check, not a check of g: given N_1..N_(g+2),
    C_4 (g = 8) also passes at 6, 7 and 9, C_5 (g = 16) at 17, and C_1^(3) at 4.
    The counts of a PointCounts must also give L the curve's p-rank: by
    Deuring-Shafarevich the degree of L mod p, the largest i with p not dividing
    a_i, is :attr:`~lpolydiv.curves.CurveSpec.p_rank`.  A bare count sequence names
    no curve and skips that check.
    """
    if isinstance(counts, PointCounts):
        seq, auto_g, auto_q, rank = counts.counts, counts.spec.capped_genus, counts.spec.p, counts.spec.p_rank
    else:
        seq, auto_g, auto_q, rank = tuple(map(int_from_decimal, counts)), None, None, None
    g = auto_g if g is None else int_from_decimal(g)
    q = auto_q if q is None else int_from_decimal(q)
    if g is None or q is None:
        raise LSeriesError("genus and ground size are required with a bare count sequence")
    if len(seq) < g:
        raise LSeriesError(f"need at least g counts, got {len(seq)} for a genus of at least {g}")
    for m, n in enumerate(seq, start=1):
        if not hasse_weil_ok(n, q, m, g):
            raise LSeriesError(f"count N_{m} = {n} violates the Hasse-Weil bound")
    sums = [q**m + 1 - n for m, n in enumerate(seq, start=1)]
    lpoly = _from_power_sums(q, g, sums, "wrong genus, wrong point at infinity, or corrupted counts")
    if rank is not None and rank != (d := max(i for i, a in enumerate(lpoly.coeffs) if a % auto_q)):
        raise LSeriesError(f"L mod {auto_q} has degree {d}, not {counts.spec.label}'s p-rank {rank}: corrupted counts")
    return lpoly


def power_sums(lpoly: LPolynomial, upto: int) -> list[int]:
    """s_1..s_upto of the reciprocal roots, by :func:`lpolydiv.gf._power_sums`."""
    return _power_sums(lpoly.coeffs, upto)


def predicted_count(lpoly: LPolynomial, m: int) -> int:
    """N_m implied by the polynomial: q^m + 1 - s_m; m is read by :func:`int_from_decimal`."""
    m = int_from_decimal(m)
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    return lpoly.q**m + 1 - power_sums(lpoly, m)[-1]


def base_change(lpoly: LPolynomial, s: int) -> LPolynomial:
    """L-polynomial over GF(q^s): reciprocal roots raised to the s-th power; s is read by
    :func:`int_from_decimal`."""
    s = int_from_decimal(s)
    if s < 1:
        raise ValueError(f"extension degree must be >= 1, got {s}")
    sums = power_sums(lpoly, lpoly.g * s)[s - 1 :: s]
    return _from_power_sums(lpoly.q**s, lpoly.g, sums, "base change of an invalid L-polynomial")


class DivisionResult(NamedTuple):
    divides: bool
    quotient: tuple[int, ...] | None
    fail_index: int | None


def _as_coeffs(poly) -> tuple[int, ...]:
    if isinstance(poly, LPolynomial):
        return poly.coeffs
    return tuple(_ptrim(list(map(int_from_decimal, poly)))) or (0,)


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


def _gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A gcd over the rationals of two integer polynomials, ascending, as an integer list.

    Euclid by primitive pseudo-remainders (Knuth, TAOCP vol. 2, 4.6.1): each step
    replaces a by lc(b) a - lc(a) x^(deg a - deg b) b divided by its content, which
    changes a only by a rational unit, so every step stays in the integers.
    """
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        while len(a) >= len(b):
            off, la, lb = len(a) - len(b), a[-1], b[-1]
            a = _ptrim([lb * c - (la * b[i - off] if i >= off else 0) for i, c in enumerate(a)])
            content = math.gcd(*a) or 1
            a = [c // content for c in a]
        a, b = b, a
    return a


def squarefree(poly) -> bool:
    """True iff gcd(f, f') is constant, by the exact integer :func:`_gcd`.

    Every square divides 0, so the zero polynomial raises ValueError, much as
    :func:`divides` refuses a zero divisor.
    """
    c = _as_coeffs(poly)
    if not any(c):
        raise ValueError("the zero polynomial is divisible by every square")
    return len(c) <= 1 or len(_gcd(c, [i * c[i] for i in range(1, len(c))])) == 1


class HasseWeilResult(NamedTuple):
    ok: bool
    bad_index: int | None


def hasse_weil_check(counts: PointCounts) -> HasseWeilResult:
    """Verify |N_m - q^m - 1| <= 2 g q^(m/2), g the capped genus, for every entry; exact arithmetic."""
    p, g = counts.spec.p, counts.spec.capped_genus
    bad = next((i for i, n in enumerate(counts.counts) if not hasse_weil_ok(n, p, i + 1, g)), None)
    return HasseWeilResult(bad is None, bad)


# -- serialization ----------------------------------------------------------

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
