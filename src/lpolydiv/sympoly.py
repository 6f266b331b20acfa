"""Sparse polynomials over prime fields, and the symbolic identity checks.

Terms live in a dict from exponent to nonzero coefficient mod p, so a
polynomial with a handful of monomials of astronomically high degree costs
nothing.  Exponents are capped at the 64-bit range; builders reject
parameters that would overflow it.

On top of the ring arithmetic sit the checks this package exists for: the
covering identity f^(q+1) + f = x^(q^r + 1) + x + g^2 + g behind the tower
morphisms of the ck family, the trace morphism identity for the ak family,
the additive-image decision procedure for h = g^p - g, and the translation
involutions (x, y) -> (x + 1, y + B(x)), which have a closed form and are
not searched.

Powers are taken by the base-p digits of the exponent: a^p is the Frobenius
image sum of c x^(p e), exact over GF(p), so only the digits cost schoolbook
products.  The covering identity's g^2 and f^(q+1) are one dict pass and one
r x r product rather than a square of g's O(r^2 l) terms.
"""

import re
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from . import gf

MAX_EXPONENT = (1 << 64) - 1


class SparsePoly:
    """Polynomial over GF(p) as an exponent -> coefficient map."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if p != 2 and not gf.is_prime(p):  # 2 is prime: GF(2) checks never run gf
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for e, _ in items:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if e > MAX_EXPONENT:
                raise OverflowError(f"exponent {e} exceeds the 64-bit term bound")
        self._terms = _add_terms({}, items, p)

    @property
    def terms(self) -> Mapping[int, int]:
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest exponent, or -1 for the zero polynomial."""
        return max(self._terms) if self._terms else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.p == other.p and self._terms == other._terms

    __hash__ = None

    def _check_char(self, other: "SparsePoly"):
        if self.p != other.p:
            raise ValueError(f"characteristic mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_char(other)
        return _raw(self.p, _add_terms(dict(self._terms), other._terms.items(), self.p))

    def __neg__(self) -> "SparsePoly":
        p = self.p
        return _raw(p, {e: p - c for e, c in self._terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_char(other)
        top = self.degree() + other.degree()
        if top > MAX_EXPONENT:
            raise OverflowError(f"product exponent {top} exceeds the 64-bit term bound")
        b = other._terms.items()
        products = ((e1 + e2, c1 * c2) for e1, c1 in self._terms.items() for e2, c2 in b)
        return _raw(self.p, _add_terms({}, products, self.p))

    def __pow__(self, e: int) -> "SparsePoly":
        """a^e from the base-p digits of e: a^(sum d_i p^i) = prod_i Frob^i(a)^(d_i).

        Frobenius is exact over GF(p), so only the digit powers take
        schoolbook products.
        """
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return _raw(self.p, {0: 1})
        result, base = None, self
        while True:
            e, digit = divmod(e, self.p)
            if digit:
                power = _digit_power(base, digit)
                result = power if result is None else result * power
            if not e:
                return result
            base = frobenius(base)

    def __repr__(self) -> str:
        return f"SparsePoly(p={self.p}, {format_terms(self)})"


def _add_terms(terms: dict[int, int], items: Iterable[tuple[int, int]], p: int) -> dict[int, int]:
    """Add each c x^e of items into terms over GF(p), dropping what cancels; returns terms."""
    for e, c in items:
        c = (terms.get(e, 0) + c) % p
        if c:
            terms[e] = c
        elif e in terms:
            del terms[e]
    return terms


def _raw(p: int, terms: dict[int, int]) -> SparsePoly:
    poly = SparsePoly.__new__(SparsePoly)
    poly.p = p
    poly._terms = terms
    return poly


def x_pow(p: int, e: int, coeff: int = 1) -> SparsePoly:
    return SparsePoly(p, ((e, coeff),))


def frobenius(a: SparsePoly) -> SparsePoly:
    """a(x)^p: every exponent multiplied by p, coefficients fixed in GF(p)."""
    out = {}
    for e, c in a.terms.items():
        ep = e * a.p
        if ep > MAX_EXPONENT:
            raise OverflowError(f"Frobenius exponent {ep} exceeds the 64-bit term bound")
        out[ep] = c
    return _raw(a.p, out)


def _digit_power(a: SparsePoly, d: int) -> SparsePoly:
    """a^d for a base-p digit 0 < d < p, by schoolbook square-and-multiply."""
    result = a
    for bit in bin(d)[3:]:
        result = result * result
        if bit == "1":
            result = result * a
    return result


# -- tower morphism identity --------------------------------------------------


def _tower(k: int, l: int) -> tuple[int, int]:
    if l < 1 or k <= l or k % l:
        raise ValueError(f"need 1 <= l < k with l | k, got k={k}, l={l}")
    if k > 63:
        raise ValueError(f"k = {k} would overflow the 64-bit exponent bound")
    return 1 << l, k // l


def build_f(k: int, l: int) -> SparsePoly:
    """x-coordinate map of the tower morphism: sum of x^(q^j), j < r."""
    q, r = _tower(k, l)
    return SparsePoly(2, ((q**j, 1) for j in range(r)))


def build_g(k: int, l: int) -> SparsePoly:
    """y-shift of the tower morphism.

    Cross terms carry the scale 2^s for s = 0..l-1: squaring then shifts s by
    one and the pair sums telescope, which is what makes the covering identity
    close.  A constant scale in its place does not (see tests).
    """
    q, r = _tower(k, l)
    terms = [(q**j, 1) for j in range(1, r)]
    for i in range(r):
        for j in range(i + 1, r):
            base = q**i + q**j
            for s in range(l):
                terms.append(((1 << s) * base, 1))
    return SparsePoly(2, terms)


def covering_defect(k: int, l: int, g: SparsePoly | None = None) -> SparsePoly:
    """f^(q+1) + f + x^(q^r + 1) + x + g^2 + g over GF(2); zero iff the identity holds."""
    q, r = _tower(k, l)
    f = build_f(k, l)
    if g is None:
        g = build_g(k, l)
    lhs = f ** (q + 1) + f
    rhs = x_pow(2, q**r + 1) + x_pow(2, 1) + g**2 + g
    return lhs + rhs


def verify_covering(k: int, l: int) -> bool:
    """True iff the tower morphism identity holds for the pair (k, l)."""
    return covering_defect(k, l).is_zero()


def verify_trace_morphism(n: int, k: int) -> bool:
    """Check T^(2^k) + T = x^(2^(n k)) + x for T = sum of x^(2^(i k)), i < n."""
    if n <= 1 or k < 1:
        raise ValueError(f"need n > 1 and k >= 1, got n={n}, k={k}")
    if n * k > 63:
        raise ValueError(f"n*k = {n * k} would overflow the 64-bit exponent bound")
    t = SparsePoly(2, ((1 << (i * k), 1) for i in range(n)))
    lhs = t ** (1 << k) + t
    rhs = x_pow(2, 1 << (n * k)) + x_pow(2, 1)
    return lhs == rhs


# -- additive image decision --------------------------------------------------


class ArtinSchreierDecision(NamedTuple):
    """Outcome of deciding h = g^p - g for g in GF(p)[x]."""

    in_image: bool
    witness: SparsePoly | None = None
    stuck_degree: int | None = None


def tower_obstruction(p: int) -> SparsePoly:
    """x^(p^2+p) + x^(2p) + x^(p+1) + x^p over GF(p).

    Substituting f = x + x^p into the degree-p tower identity forces exactly
    this polynomial to be an additive image g^p - g; deciding that is where
    odd characteristic gets stuck (and p = 2 does not).
    """
    return SparsePoly(p, ((p * p + p, 1), (2 * p, 1), (p + 1, 1), (p, 1)))


def artin_schreier_image(h: SparsePoly) -> ArtinSchreierDecision:
    """Decide whether h = g^p - g for some polynomial g over GF(p).

    Greedy leading-term peeling: a top term c x^d with p | d is killed by
    subtracting (c x^(d/p))^p - c x^(d/p), since c^(1/p) = c in GF(p).  A top
    term whose degree p does not divide (or a leftover nonzero constant) is
    unreachable.  A returned witness has been re-verified exactly.
    """
    p = h.p
    work = dict(h.terms)
    witness = []
    while work:
        d = max(work)
        if d == 0 or d % p:
            return ArtinSchreierDecision(False, None, d)
        c = work.pop(d)
        e = d // p
        witness.append((e, c))
        _add_terms(work, ((e, c),), p)
    g = SparsePoly(p, witness)
    if frobenius(g) - g != h:
        raise AssertionError("peeling produced a witness that does not re-verify")
    return ArtinSchreierDecision(True, g, None)


# -- involution search ---------------------------------------------------------


def involution_search(k: int) -> SparsePoly | None:
    """Linearized B with B^2 + B = x^(2^k) + x and B(1) = 0, or None.

    In the bit mask encoding of B = sum of a_i x^(2^i), i < k (bit i <-> a_i),
    the first condition reads (mask << 1) ^ mask == 2^k + 1: the product of
    mask by 1 + x in GF(2)[x] is x^k + 1.  That product is injective and
    x^k + 1 = (1 + x)(1 + x + ... + x^(k-1)), so mask = 2^k - 1 is the only
    solution: B = sum of x^(2^i), i < k.  B(1) = k mod 2, so B exists iff k
    is even, and an odd k of any size gives None without building a polynomial.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % 2:
        return None
    if k > 62:
        raise ValueError(f"k = {k} would overflow the 64-bit exponent bound")
    b = SparsePoly(2, ((1 << i, 1) for i in range(k)))
    if b**2 + b != x_pow(2, 1 << k) + x_pow(2, 1):
        raise AssertionError("involution candidate does not re-verify")
    return b


# -- text format ----------------------------------------------------------------

_TERM_RE = re.compile(r"(?:([0-9]+)\*)?x(?:\^([0-9]+))?|([0-9]+)")  # by fullmatch: "$" would pass a final "\n"


def format_terms(a: SparsePoly) -> str:
    """Terms joined by '+', descending exponents: 'c*x^e', with unit c elided."""
    if a.is_zero():
        return "0"
    parts = []
    for e in sorted(a.terms, reverse=True):
        c = a.terms[e]
        if e == 0:
            parts.append(str(c))
            continue
        head = "" if c == 1 else f"{c}*"
        parts.append(f"{head}x" if e == 1 else f"{head}x^{e}")
    return "+".join(parts)


def parse_terms(text: str, p: int) -> SparsePoly:
    text = text.replace(" ", "")
    if text == "0":
        return SparsePoly(p)
    terms = []
    for chunk in text.split("+"):
        match = _TERM_RE.fullmatch(chunk)
        if match is None:
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff, exp, const = match.groups()
        if const is not None:
            terms.append((0, int(const)))
        else:
            terms.append((1 if exp is None else int(exp), 1 if coeff is None else int(coeff)))
    return SparsePoly(p, terms)
