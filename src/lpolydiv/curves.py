"""Curve families and exact point counting over extension towers.

Four families over the prime field:

  ck   y^2 + y  = x^(2^k + 1) + x   over GF(2), genus 2^(k-1)
  ek   y^2 + xy = x^(2^k + 3) + x   over GF(2), genus 2^(k-1) + 1
  ak   y^2 + y  = x^(2^k) + x      over GF(2), genus 0
  ckp  y^p - y  = x^(p^k + 1) + x   over GF(p), p odd, genus (p-1) p^k / 2

Counting is trace-based: a fiber above x has p points when the absolute
trace of the defining value vanishes, else none (with the x = 0 fiber of ek
contributing the single point y = 0).  For ek and x != 0, substituting
y = xz turns the fiber condition into Tr(x^(2^k + 1) + 1/x) = 0.
"""

import math

from .gf import check_field_limits, is_prime, jacobi_symbol, make_field
from . import _kernels  # by module, so that reading cached counts never runs it

FAMILIES = ("ck", "ek", "ak", "ckp")


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
    """One curve of the four families: family tag, parameter k, characteristic p."""

    __slots__ = ("family", "k", "p")

    def __init__(self, family: str, k: int, p: int = 2):
        self._set(family, k, p)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.family == "ckp":
            if self.p == 2 or not is_prime(self.p):
                raise ValueError(f"family ckp needs an odd prime p, got {self.p}")
        elif self.p != 2:
            raise ValueError(f"family {self.family} is defined over GF(2), got p={self.p}")

    @property
    def genus(self) -> int:
        if self.family == "ck":
            return 1 << (self.k - 1)
        if self.family == "ek":
            return (1 << (self.k - 1)) + 1
        if self.family == "ak":
            return 0
        return (self.p - 1) * self.p**self.k // 2

    def genus_at_most(self, cap: int) -> int:
        """min(genus, cap), without forming a genus past cap (p^k for a huge k)."""
        if self.family != "ak" and self.k - 1 > cap.bit_length():
            return cap  # every other genus is at least 2^(k-1)
        return min(self.genus, cap)

    @property
    def label(self) -> str:
        if self.family == "ck":
            return f"C_{self.k}"
        if self.family == "ek":
            return f"E_{self.k}"
        if self.family == "ak":
            return f"A_{self.k}"
        return f"C_{self.k}^({self.p})"


class PointCounts(_Value):
    """N_1..N_M for one curve, with per-entry provenance ('counted'/'cached')."""

    __slots__ = ("spec", "counts", "provenance")

    def __init__(self, spec: CurveSpec, counts: tuple[int, ...], provenance: tuple[str, ...]):
        self._set(spec, counts, provenance)

    @property
    def base_q(self) -> int:
        return self.spec.p

    def __len__(self) -> int:
        return len(self.counts)


class CountIntegrityError(RuntimeError):
    """A computed or cached count violates the Hasse-Weil bound, a cache record is malformed,
    or two cache records store different counts for one key."""


def affine_count(spec: CurveSpec, m: int) -> int:
    """Solutions of the affine model over GF(p^m), by trace-based fiber counting."""
    check_field_limits(spec.p, m)
    # x^(p^m) = x on GF(p^m), so the twist p^k acts as p^(k mod m)
    twist = spec.p ** (spec.k % m)
    # ek: x = 0 gives y^2 = 0, exactly one point; x != 0 gives two points
    # iff Tr(x^(2^k + 1) + 1/x) = 0 (substitute y = xz).
    quad = (twist + 1, 1)
    terms = {"ck": quad, "ak": (twist, 1), "ckp": quad, "ek": (twist + 1, -1)}[spec.family]
    _kernels.choose_kernel(spec.p, m, terms)  # refuse an oversize count before the modulus search
    zeros = _kernels.trace_zero_count(make_field(spec.p, m), terms)
    return 1 + 2 * zeros if spec.family == "ek" else spec.p * zeros


def point_count(spec: CurveSpec, m: int) -> int:
    """N_m: points of the smooth model over GF(p^m)."""
    n = affine_count(spec, m)
    if spec.family == "ak":
        # The ak affine model factors as (y + B(x))(y + B(x) + 1) with
        # B(x) = x + x^2 + ... + x^(2^(k-1)), two disjoint rational components
        # each isomorphic to the x-line.  The smooth model is one component,
        # a projective line, hence half the affine solutions plus one.
        return n // 2 + 1
    # one degree-1 place at infinity on the smooth model of every family
    return n + 1


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
    """N_m with its provenance ('counted' or 'cached'), consulting/filling the cache.

    Every count, cached or fresh, must pass the Hasse-Weil bound before it is
    returned or stored.  A cached count builds no field.
    """
    check_field_limits(spec.p, m)
    n = cache.lookup(spec, m) if cache is not None else None
    provenance = "cached"
    if n is None:
        n = point_count(spec, m)
        provenance = "counted"
    if not _within_hasse_weil(spec, n, m):
        raise CountIntegrityError(
            f"N_{m} = {n} for {spec.label} violates the Hasse-Weil bound"
        )
    if provenance == "counted" and cache is not None:
        cache.store(spec, m, n)
    return n, provenance


def count_series(spec: CurveSpec, upto: int, *, cache=None) -> PointCounts:
    """N_1..N_upto by :func:`count_field`, one extension at a time."""
    if upto < 1:
        raise ValueError(f"need at least one extension, got {upto}")
    check_field_limits(spec.p, upto)  # refuse an oversize series by its largest field, before any count
    counts, provenance = zip(*(count_field(spec, m, cache=cache) for m in range(1, upto + 1)))
    return PointCounts(spec, counts, provenance)


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
