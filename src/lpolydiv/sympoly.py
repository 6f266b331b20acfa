"""Sparse polynomials over prime fields, and the symbolic identity checks.

Terms live in a dict from exponent to nonzero coefficient mod p, so a
polynomial with a handful of monomials of astronomically high degree costs
nothing.  The ring is as unbounded as the ints it holds.  Each check bounds
the bit level of what it builds once, where its parameters enter: the tower
refuses k > MAX_LEVEL and the trace sum n s > MAX_LEVEL before any term exists,
so no exponent a tower or trace check forms has more than MAX_LEVEL + 1 bits.
:func:`parse_terms` takes any exponent int() reads, so Python's 4,300-digit
limit on int text bounds its input, and the additive-image decision refuses a
term x^(p^i u) with i > MAX_LEVEL before its chain is walked, so each term adds
at most MAX_LEVEL terms to the witness.

On top of the ring arithmetic sit the checks this package exists for: the
covering identity f^(q+1) + f = x^(q^r + 1) + x + g^2 + g behind the tower
morphisms of the ck family, the trace morphism identity for the ak family,
the additive-image decision for h = g^p - g, and the translation involutions
(x, y) -> (x + 1, y + B(x)).  No check searches.  The additive image is read off
a chain criterion (Stichtenoth, Algebraic Function Fields and Codes, Sec. 3.7):
h = g^p - g has a solution iff, for each p-free u and for the constant, the
coefficients of h at x^(p^j u), j >= 0, sum to 0 mod p.  The degree-p tower
obstruction x^(p^2+p) + x^(2p) + x^(p+1) + x^p fails it for odd p at u = p + 1,
whose chain holds x^(p(p+1)) and x^(p+1) and sums to 2; for p = 2 every chain
sums to 0.  The involution has a closed form.

Powers are taken by the base-p digits of the exponent: a^p is the Frobenius
image sum of c x^(p e), exact over GF(p), so only the digits cost schoolbook
products.  The covering identity's g^2 and f^(q+1) are one dict pass and one
r x r product rather than a square of g's O(r^2 l) terms.
"""

import re
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from . import gf

MAX_LEVEL = 512  # the largest k of a tower, n s of a trace sum, and chain length of an additive image


class SparsePoly:
    """Polynomial over GF(p) as an exponent -> coefficient map."""

    __slots__ = ("p", "_terms")

    def __init__(self, p: int, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if type(p) is not int:  # gf._int's rule, kept here so that GF(2) checks never run gf
            raise TypeError(f"expected an integer, got {p!r}")
        if p != 2 and not gf.is_prime(p):  # 2 is prime
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for e, c in items:
            if type(e) is not int or type(c) is not int:
                raise TypeError(f"expected an integer exponent and coefficient, got {(e, c)!r}")
            if e < 0:
                raise ValueError(f"negative exponent {e}")
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
    return _raw(a.p, {e * a.p: c for e, c in a.terms.items()})


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
    if k > MAX_LEVEL:  # g would hold about k^2/(2 l) terms of up to k bits
        raise ValueError(f"k = {k} is past the level bound MAX_LEVEL = {MAX_LEVEL}")
    return 1 << l, k // l


def _trace_sum(n: int, s: int) -> SparsePoly:
    """T = sum of x^(2^(i s)), i < n, over GF(2), refused for n s > MAX_LEVEL: it holds about n^2 s/2 bits."""
    if n * s > MAX_LEVEL:
        raise ValueError(f"x^(2^{n * s}) is past the level bound MAX_LEVEL = {MAX_LEVEL}")
    return SparsePoly(2, ((1 << (i * s), 1) for i in range(n)))


def build_f(k: int, l: int) -> SparsePoly:
    """x-coordinate map of the tower morphism: sum of x^(q^j), j < r, the trace sum with s = l."""
    _, r = _tower(k, l)
    return _trace_sum(r, l)


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
    """Check T^(2^k) + T = x^(2^(n k)) + x for the trace sum T = sum of x^(2^(i k)), i < n."""
    if n <= 1 or k < 1:
        raise ValueError(f"need n > 1 and k >= 1, got n={n}, k={k}")
    t = _trace_sum(n, k)
    return t ** (1 << k) + t == x_pow(2, 1 << (n * k)) + x_pow(2, 1)


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
    """Decide whether h = g^p - g for some polynomial g over GF(p), by the chain criterion.

    Over GF(p), g^p - g = sum of g_e (x^(p e) - x^e), so h moves coefficients only
    along the chains u, p u, p^2 u, ... with u free of p, and along each chain they
    telescope: h is an image iff, for every p-free u and for the constant (u = 0),
    the coefficients of h at the exponents p^j u sum to 0 mod p.  Then the witness
    has coefficient sum_(i>j) h_(p^i u) at p^j u, and no constant term; it is
    re-verified exactly.  Otherwise stuck_degree is the largest u whose chain sum is
    nonzero, the degree at which leading-term peeling stops.  A term x^(p^i u) with
    i > MAX_LEVEL, which alone would add i terms to the witness, is refused first.

    In :func:`tower_obstruction`, x^(p^2+p) = x^(p (p+1)) and x^(p+1) share the chain
    of u = p + 1 and sum to 2, nonzero for odd p, so odd p is stuck at p + 1.  For
    p = 2 the chains of 3 (x^6, x^3) and of 1 (x^4, x^2) each sum to 0, and the
    witness is x^3 + x^2.
    """
    p = h.p
    chains, witness, past = {}, [], p ** (MAX_LEVEL + 1)
    for e, c in h.terms.items():
        if e and e % past == 0:
            raise ValueError(f"x^({p}^i u) with i > {MAX_LEVEL} is past the level bound MAX_LEVEL = {MAX_LEVEL}")
        while e and e % p == 0:  # c x^(p^i u) feeds the witness at p^j u for every j < i
            e //= p
            witness.append((e, c))
        _add_terms(chains, ((e, c),), p)
    if chains:
        return ArtinSchreierDecision(False, None, max(chains))
    g = SparsePoly(p, witness)
    if frobenius(g) - g != h:
        raise AssertionError("the chain criterion produced a witness that does not re-verify")
    return ArtinSchreierDecision(True, g, None)


# -- involution search ---------------------------------------------------------


def involution_search(k: int) -> SparsePoly | None:
    """Linearized B with B^2 + B = x^(2^k) + x and B(1) = 0, or None.

    In the bit mask encoding of B = sum of a_i x^(2^i), i < k (bit i <-> a_i),
    the first condition reads (mask << 1) ^ mask == 2^k + 1: the product of
    mask by 1 + x in GF(2)[x] is x^k + 1.  That product is injective and
    x^k + 1 = (1 + x)(1 + x + ... + x^(k-1)), so mask = 2^k - 1 is the only
    solution: B = sum of x^(2^i), i < k, the trace sum with s = 1.  B(1) = k mod 2,
    so B exists iff k is even, and an odd k of any size gives None without building
    a polynomial.  B is re-verified by :func:`verify_trace_morphism` (k, 1).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % 2:
        return None
    if not verify_trace_morphism(k, 1):
        raise AssertionError("involution candidate does not re-verify")
    return _trace_sum(k, 1)


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
