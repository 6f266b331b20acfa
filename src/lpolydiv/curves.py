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
A fiber above x has p points when the absolute trace Tr(f(x)) = 0, else none; e = -1 adds (0, 0).
"""

import math

from .gf import _int, check_field_limits, is_prime, jacobi_symbol, make_field
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
    from .lseries import int_to_decimal  # lseries imports this module

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

    def genus_at_most(self, cap: int) -> int:
        """min(genus, cap), without forming a genus past cap (p^k for a huge k)."""
        if _PRESETS[self.family][2] and self.k - 1 > cap.bit_length():
            return cap  # every genus with c = 1 is at least 2^(k-1)
        return min(self.genus, cap)

    @property
    def label(self) -> str:
        return _PRESETS[self.family][0].format(k=self.k, p=self.p)


class PointCounts(_Value):
    """N_1..N_M for one curve, with per-entry provenance: 'fresh' (counted now) or 'cached'.

    Each count must be an int, bools refused, as the cache reads them.
    """

    __slots__ = ("spec", "counts", "provenance")

    def __init__(self, spec: CurveSpec, counts: tuple[int, ...], provenance: tuple[str, ...]):
        self._set(spec, tuple(map(_int, counts)), provenance)

    def __len__(self) -> int:
        return len(self.counts)


class CountIntegrityError(RuntimeError):
    """A computed or cached count violates the Hasse-Weil bound, a cache record is malformed,
    or two cache records store different counts for one key."""


def _fiber_terms(spec: CurveSpec, m: int) -> tuple[int, int]:
    """Exponents of f over GF(p^m), whose fiber above x has points iff Tr(f(x)) = 0; limits checked."""
    check_field_limits(spec.p, m)
    _, _, c, e = _PRESETS[spec.family]
    # x^(p^m) = x on GF(p^m), so the twist p^k acts as p^(k mod m)
    terms = (spec.p ** (spec.k % m) + c, e)
    _kernels.choose_kernel(spec.p, m, terms)
    return terms


def affine_count(spec: CurveSpec, m: int) -> int:
    """Solutions of the affine model over GF(p^m), by trace-based fiber counting."""
    terms = _fiber_terms(spec, m)  # before make_field's modulus search
    zeros = _kernels.trace_zero_count(make_field(spec.p, m), terms)
    return spec.p * zeros + (terms[1] == -1)  # e = -1: (0, 0), where 1/x is not defined


def point_count(spec: CurveSpec, m: int) -> int:
    """N_m: points of the smooth model over GF(p^m)."""
    if not _PRESETS[spec.family][2]:  # c = 0 (ak): genus 0, so L = 1 and N_m = p^m + 1
        check_field_limits(spec.p, m)
        return spec.p**m + 1
    # one degree-1 place at infinity on the smooth model of every other curve
    return affine_count(spec, m) + 1


def hasse_weil_ok(n: int, q: int, m: int, g: int) -> bool:
    """|N_m - q^m - 1| <= 2 g q^(m/2), decided in exact integer arithmetic."""
    return (n - q**m - 1) ** 2 <= 4 * g * g * q**m


def _within_hasse_weil(spec: CurveSpec, n: int, m: int) -> bool:
    """hasse_weil_ok for the curve's genus.

    Any genus of at least |N - q^m - 1| passes, so the bound is decided at
    that cap without forming a huge genus.
    """
    return hasse_weil_ok(n, spec.p, m, spec.genus_at_most(abs(n - spec.p**m - 1)))


def count_field(spec: CurveSpec, m: int, *, cache=None) -> tuple[int, str]:
    """N_m with its provenance, 'fresh' or 'cached', consulting and filling the cache.

    Every count, cached or fresh, must pass the Hasse-Weil bound before it is
    returned or stored.  A cached count builds no field.
    """
    check_field_limits(spec.p, m)
    n = cache.lookup(spec, m) if cache is not None else None
    provenance = "cached"
    if n is None:
        n = point_count(spec, m)
        provenance = "fresh"
    if not _within_hasse_weil(spec, n, m):
        raise CountIntegrityError(
            f"N_{m} = {n} for {spec.label} violates the Hasse-Weil bound"
        )
    if provenance == "fresh" and cache is not None:
        cache.store(spec, m, n)
    return n, provenance


def series_length(spec: CurveSpec) -> int:
    """The genus g, for the counts N_1..N_g an L-polynomial needs; refused past the field limits.

    The genus is capped at 2^64, far above every limit, so p^k for a huge k is never formed.
    """
    g = spec.genus_at_most(1 << 64)
    if g:
        check_field_limits(spec.p, g)
    return g


def count_series(spec: CurveSpec, upto: int | None = None, *, cache=None) -> PointCounts:
    """N_1..N_upto by :func:`count_field`, one extension at a time.

    upto defaults to :func:`series_length`: the genus, none for genus 0.  An
    oversize series is refused by its largest field, before any count.
    """
    if upto is None:
        upto = series_length(spec)
    else:
        _fiber_terms(spec, upto)
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
    """Predicted zero count 2^(n-1) + (2/n) 2^((n-1)/2), n odd, gcd(k +- j, n) = 1."""
    _check_lmw(n, k, j)
    if math.gcd(k + j, n) != 1 or math.gcd(k - j, n) != 1:
        raise ValueError(
            f"hypothesis gcd(k+j, n) = gcd(k-j, n) = 1 fails for k={k}, j={j}, n={n}; "
            "the closed form does not apply"
        )
    return (1 << (n - 1)) + jacobi_symbol(2, n) * (1 << ((n - 1) // 2))
