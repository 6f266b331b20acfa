"""Curve families and exact point counting over extension towers.

Each family is a preset of one curve y^p - y = x^(p^k + c) + x^e, a row of ``_PRESETS``:

  ck   y^2 + y  = x^(2^k + 1) + x   over GF(2)         (c, e) = (1, 1)
  ek   y^2 + xy = x^(2^k + 3) + x   over GF(2)         (c, e) = (1, -1), after y = xz
  ak   y^2 + y  = x^(2^k) + x       over GF(2)         (c, e) = (0, 1)
  ckp  y^p - y  = x^(p^k + 1) + x   over GF(p), p odd  (c, e) = (1, 1)

Every fact of a curve is read off its row.  One rule gives the genus (Stichtenoth, Algebraic
Function Fields and Codes, Prop. 3.7.8): g = (p - 1)/2 (sum over the poles P of f of (d_P + 1) - 2).
The pole at infinity has d = p^k + 1 and, for e = -1, the pole at 0 has d = 1, so
g = (p - 1)(p^k + 2 [e = -1])/2; c = 0 reduces f to 0, g = 0, and L = 1 gives N_m = p^m + 1.
Every check reads the genus capped at :data:`lpolydiv.gf.GENUS_CAP` (``capped_genus``).
So is the p-rank (Deuring-Shafarevich; Subrao, Manuscripta Math. 16, 1975):
gamma = (p - 1)(r - 1) for the r poles of f, which is p - 1 for e = -1 and 0 otherwise.
A fiber above x has p points when the absolute trace Tr(f(x)) = 0, else none; e = -1 adds (0, 0).
Three methods count, and no count of odd characteristic builds a field: ak reads N_m off
L = 1, ckp takes Coulter's closed form (:func:`_ckp_surplus`), and ck and ek count those
fibers over GF(2^m) by the kernel :func:`lpolydiv.gf.choose_kernel` picks.
"""

import math

from .gf import (
    GENUS_CAP, IntegrityError, _int, check_field_limits, choose_kernel, int_to_decimal, is_prime, jacobi_symbol,
    make_field,
)
from . import _kernels  # by module, so that reading cached counts never runs it

# family -> (label pattern, p: 2 or None for any odd prime, c, e)
_PRESETS = {
    "ck": ("C_{k}", 2, 1, 1),
    "ek": ("E_{k}", 2, 1, -1),
    "ak": ("A_{k}", 2, 0, 1),
    "ckp": ("C_{k}^({p})", None, 1, 1),
}


class _Value:
    """Immutable record of its ``__slots__``: equal and hashed by field tuple, within one class.

    Not a frozen dataclass, which would load ``dataclasses`` and ``inspect`` in every command.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def _repr(value) -> str:
    """repr(value), with each int, alone or in a tuple, written past Python's digit limit."""
    if type(value) is int:
        return int_to_decimal(value)
    if type(value) is tuple:  # (1,) keeps its comma
        return f"({', '.join(map(_repr, value))}{',' * (len(value) == 1)})"
    return repr(value)


class CurveSpec(_Value):
    """One curve of the four families: family tag, parameter k, characteristic p.

    k and p must be ints, as the cache reads them: anything else, a bool
    included, raises TypeError "expected an integer".
    """

    __slots__ = ("family", "k", "p")

    def __init__(self, family: str, k: int, p: int = 2):
        self._set(family, _int(k), _int(p))
        if self.family not in _PRESETS:
            raise ValueError(f"unknown family {self.family!r}; expected one of {tuple(_PRESETS)}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        p = _PRESETS[self.family][1]
        if p is None:
            if self.p == 2 or not is_prime(self.p):
                raise ValueError(f"family {self.family} needs an odd prime p, got {self.p}")
        elif self.p != p:
            raise ValueError(f"family {self.family} is defined over GF({p}), got p={self.p}")

    @property
    def genus(self) -> int:
        _, _, c, e = _PRESETS[self.family]
        return (self.p - 1) * (self.p**self.k + 2 * (e == -1)) // 2 if c else 0

    @property
    def p_rank(self) -> int:
        """gamma = (p - 1)(r - 1), r the number of poles of f (Deuring-Shafarevich): p - 1 for e = -1, else 0."""
        return (self.p - 1) * (_PRESETS[self.family][3] == -1)

    @property
    def capped_genus(self) -> int:
        """min(genus, GENUS_CAP), the genus every check reads, without forming p^k for a huge k."""
        if _PRESETS[self.family][2] and self.k >= GENUS_CAP.bit_length():
            return GENUS_CAP  # every genus with c = 1 is at least 2^(k-1)
        return min(self.genus, GENUS_CAP)

    @property
    def label(self) -> str:
        return _PRESETS[self.family][0].format(k=self.k, p=self.p)


class PointCounts(_Value):
    """N_1..N_M for one curve, with per-entry provenance: 'fresh' (counted now) or 'cached'.

    Each count must be an int, bools refused, as the cache reads them, with one provenance.
    """

    __slots__ = ("spec", "counts", "provenance")

    def __init__(self, spec: CurveSpec, counts: tuple[int, ...], provenance: tuple[str, ...]):
        self._set(spec, tuple(map(_int, counts)), tuple(provenance))
        if len(self.provenance) != len(self.counts) or any(h not in ("fresh", "cached") for h in self.provenance):
            raise ValueError(f"need one provenance, 'fresh' or 'cached', per count, got {self.provenance!r}")

    def __len__(self) -> int:
        return len(self.counts)


class CountIntegrityError(IntegrityError, RuntimeError):
    """A computed or cached count violates the Hasse-Weil bound or the fiber rule, a cache
    record is malformed, or two cache records store different counts for one key."""


def _fiber_terms(spec: CurveSpec, m: int) -> tuple[int, int]:
    """Exponents of f over GF(p^m), whose fiber above x has points iff Tr(f(x)) = 0.

    The one refusal of every count, cached or fresh: the field limits, then choose_kernel."""
    check_field_limits(spec.p, m)
    _, _, c, e = _PRESETS[spec.family]
    # x^(p^m) = x on GF(p^m), so the twist p^k acts as p^(k mod m)
    terms = (spec.p ** (spec.k % m) + c, e)
    choose_kernel(spec.p, m, terms)
    return terms


def _ckp_surplus(p: int, k: int, m: int) -> int:
    """S_m = N_m - p^m - 1 of C_k^(p) over GF(q), q = p^m, by its closed form.

    N_m = q + 1 + S_m with S_m = sum over c in GF(p)* of the Weil sums
    sum_x psi(c x^(p^k + 1) + c x), psi the canonical additive character of GF(q),
    which Coulter evaluates (Acta Arith. 83, 1998).  They read k only through
    d = gcd(k, m).  With r = m/d, f = p - 1 if p | m and f = -1 otherwise, and
    chi = (-1/p):

      r even, m = 2u:          S_m = -f p^(u+d) if u/d is even, -f p^u if u/d is odd;
      r odd, m even:           S_m = -f chi^(m/2) p^(m/2);
      m odd, p | m:            S_m = 0;
      m odd, p not dividing m: S_m = (-m/p) chi^((m+1)/2) p^((m+1)/2).

    One sign was fixed against counts.  The rule equals the qf elimination on every
    odd p and every m >= 2 with p^m <= 2^32, at every k mod m (tests/sweep_ckp_closed_form.py),
    and gives 2p + 1 at m = 1, where x^(p^k + 1) + x reduces to x^2 + x over GF(p).
    """
    d = math.gcd(k, m)
    r, f, chi = m // d, p - 1 if m % p == 0 else -1, jacobi_symbol(-1, p)
    if r % 2 == 0:  # u/d = r/2
        return -f * p ** (m // 2 + d * (r % 4 == 0))
    if m % 2 == 0:
        return -f * chi ** (m // 2) * p ** (m // 2)
    if m % p == 0:
        return 0
    return jacobi_symbol(-m, p) * chi ** ((m + 1) // 2) * p ** ((m + 1) // 2)


def affine_count(spec: CurveSpec, m: int) -> int:
    """Solutions of the affine model over GF(p^m): ckp by its closed form, the rest by
    trace-based fiber counting over GF(2^m)."""
    terms = _fiber_terms(spec, m)  # before make_field's modulus search
    if spec.p != 2:  # choose_kernel takes odd p only in ckp's shape
        return spec.p**m + _ckp_surplus(spec.p, spec.k, m)
    zeros = _kernels.trace_zero_count(make_field(2, m), terms)
    return 2 * zeros + (terms[1] == -1)  # e = -1: (0, 0), where 1/x is not defined


def point_count(spec: CurveSpec, m: int) -> int:
    """N_m: points of the smooth model over GF(p^m)."""
    if not _PRESETS[spec.family][2]:  # c = 0 (ak): genus 0, so L = 1 and N_m = p^m + 1
        _fiber_terms(spec, m)
        return spec.p**m + 1
    # one degree-1 place at infinity on the smooth model of every other curve
    return affine_count(spec, m) + 1


def hasse_weil_ok(n: int, q: int, m: int, g: int) -> bool:
    """|N_m - q^m - 1| <= 2 g q^(m/2), decided in exact integer arithmetic."""
    return (n - q**m - 1) ** 2 <= 4 * g * g * q**m


def count_field(spec: CurveSpec, m: int, *, cache=None) -> tuple[int, str]:
    """N_m with its provenance, 'fresh' or 'cached', consulting and filling the cache.

    Every count, cached or fresh, must pass the Hasse-Weil bound at the capped
    genus, then the fiber rule, before it is returned or stored: with b = 1 + [e = -1],
    N_m = b mod p and b <= N_m <= p^(m+1) + b, since each fiber has 0 or p points,
    e = -1 adds (0, 0) and one point is at infinity.  The rule reads no genus, so it
    also holds past the cap.  A cached count builds no field.
    """
    terms = _fiber_terms(spec, m)
    n = cache.lookup(spec, m) if cache is not None else None
    provenance = "cached"
    if n is None:
        n = point_count(spec, m)
        provenance = "fresh"
    if not hasse_weil_ok(n, spec.p, m, spec.capped_genus):
        raise CountIntegrityError(f"N_{m} = {n} for {spec.label} violates the Hasse-Weil bound")
    base = 1 + (terms[1] == -1)
    if (n - base) % spec.p or not base <= n <= spec.p ** (m + 1) + base:
        raise CountIntegrityError(
            f"N_{m} = {n} for {spec.label} violates the fiber rule N = {base} mod p, {base} <= N <= p^(m+1) + {base}"
        )
    if provenance == "fresh" and cache is not None:
        cache.store(spec, m, n)
    return n, provenance


def series_length(spec: CurveSpec, upto: int | None = None) -> int:
    """upto, by default the genus g: the counts N_1..N_g an L-polynomial needs, none for g = 0.

    A series is refused by its largest field, as :func:`count_field` would refuse it.  The
    genus is read capped (:data:`lpolydiv.gf.GENUS_CAP`), far above every field limit.
    """
    if upto is None and not (upto := spec.capped_genus):
        return 0
    _fiber_terms(spec, upto)
    return upto


def count_series(spec: CurveSpec, upto: int | None = None, *, cache=None) -> PointCounts:
    """N_1..N_upto by :func:`count_field`, one extension at a time.

    upto defaults to the genus; :func:`series_length` refuses an oversize series
    before any count.
    """
    upto = series_length(spec, upto)
    results = [count_field(spec, m, cache=cache) for m in range(1, upto + 1)]
    return PointCounts(spec, tuple(n for n, _ in results), tuple(how for _, how in results))


def _check_lmw(n: int, k: int, j: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be odd and positive, got {n}")
    if not 0 <= j < k:
        raise ValueError(f"need 0 <= j < k, got k={k}, j={j}")


def lmw_zero_count(n: int, k: int, j: int = 0) -> int:
    """Zeros of Tr(x^(2^k + 1) + x^(2^j + 1)) in GF(2^n), counted from the quadratic form."""
    _check_lmw(n, k, j)
    # x^(2^n) = x on GF(2^n), so only the twists mod n matter
    return _kernels.trace_zero_count(make_field(2, n), ((1 << (k % n)) + 1, (1 << (j % n)) + 1))


def lmw_formula(n: int, k: int, j: int = 0) -> int:
    """Predicted zero count 2^(n-1) + (2/n) 2^((n-1)/2), n odd, gcd(k +- j, n) = 1.

    n and j are refused first, then GF(2^n) past the field limits, before 2^(n-1)
    is formed, then the hypothesis.
    """
    _check_lmw(n, k, j)
    check_field_limits(2, n)
    if math.gcd(k + j, n) != 1 or math.gcd(k - j, n) != 1:
        raise ValueError(
            f"hypothesis gcd(k+j, n) = gcd(k-j, n) = 1 fails for k={k}, j={j}, n={n}; "
            "the closed form does not apply"
        )
    return (1 << (n - 1)) + jacobi_symbol(2, n) * (1 << ((n - 1) // 2))
