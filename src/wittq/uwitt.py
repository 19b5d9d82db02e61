"""The characteristic-0 Witt enveloping algebra over Q.

Generators L_k (k in Z) obey [L_r, L_s] = (s - r) L_{r+s}.  Elements are
finitely supported maps from normal-ordered monomials to Fractions; a monomial
is a word of generators with strictly ascending indices, stored run-length
encoded as ((index, exponent), ...).  Element adds this monomial rule and a
pairwise multiply to the sparse tensors of tensor.py.

Straightening rewrites L_a L_b -> L_b L_a + (b - a) L_{a+b} whenever a > b,
one inserted generator at a time; monomial products are memoized because the
tensor series computations multiply the same small monomials over and over.
Their structure constants are integers, so the multiply kernel runs on
integers too: it scales each operand once to integer numerators over the lcm
of its denominators, sums numerator products times the monomial constants in
plain ints per output key, and divides by the product of the two
denominators once per key at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial, lcm

from .tensor import TensorElement, commutator

Mono = tuple[tuple[int, int], ...]
Word = tuple[int, ...]

ONE_MONO: Mono = ()


def word_of(mono: Mono) -> Word:
    return tuple(k for k, m in mono for _ in range(m))


def mono_of(word: Word) -> Mono:
    """Run-length encode an ascending word."""
    out = []
    for k in word:
        if out and out[-1][0] == k:
            out[-1][1] += 1
        else:
            out.append([k, 1])
    return tuple((k, m) for k, m in out)


def mono_degree(mono: Mono) -> int:
    return sum(k * m for k, m in mono)


@lru_cache(maxsize=None)
def _times_gen(word: Word, g: int) -> tuple[tuple[Word, int], ...]:
    # word is ascending; result is the normal form of word * L_g.
    if not word or word[-1] <= g:
        return ((word + (g,), 1),)
    head, a = word[:-1], word[-1]
    acc: dict[Word, int] = {}
    for w1, c1 in _times_gen(head, g):
        for w2, c2 in _times_gen(w1, a):
            acc[w2] = acc.get(w2, 0) + c1 * c2
    for w1, c1 in _times_gen(head, g + a):
        acc[w1] = acc.get(w1, 0) + (g - a) * c1
    return tuple(sorted((w, c) for w, c in acc.items() if c))


def _fold(acc: dict[Word, int], gens) -> tuple[tuple[Mono, int], ...]:
    """Normal form of (sum of c * w over acc, w ascending words) * L_g for g in gens."""
    for g in gens:
        nxt: dict[Word, int] = {}
        for w, c in acc.items():
            for w2, c2 in _times_gen(w, g):
                nxt[w2] = nxt.get(w2, 0) + c * c2
        acc = {w: c for w, c in nxt.items() if c}
    return tuple(sorted((mono_of(w), c) for w, c in acc.items()))


@lru_cache(maxsize=None)
def straighten(word: Word) -> tuple[tuple[Mono, int], ...]:
    """Normal form of the product L_{word[0]} ... L_{word[-1]}."""
    return _fold({(): 1}, word)


@lru_cache(maxsize=None)
def mono_mul(a: Mono, b: Mono) -> tuple[tuple[Mono, int], ...]:
    return _fold({word_of(a): 1}, word_of(b))


class Element(TensorElement):
    """A finitely supported Q-linear combination of (tensors of) monomials."""

    __slots__ = ()

    char = 0

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        clean = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[key] = c
        self.terms = clean

    def _like(self, rank: int, terms: dict) -> "Element":
        out = Element.__new__(Element)
        out.rank = rank
        out.terms = terms
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rank: int = 1) -> "Element":
        return Element(rank, {})

    @staticmethod
    def one(rank: int = 1) -> "Element":
        return Element(rank, {(ONE_MONO,) * rank: Fraction(1)})

    @staticmethod
    def gen(k: int) -> "Element":
        return Element(1, {(((k, 1),),): Fraction(1)})

    @staticmethod
    def from_mono(mono: Mono, coeff=1) -> "Element":
        return Element(1, {(mono,): Fraction(coeff)})

    # -- the ring and the monomial rule ------------------------------------------

    def from_sums(self, rank: int, sums: dict) -> "Element":
        """The element with the given Fraction coefficient sums, zeros dropped."""
        return self._like(rank, {key: c for key, c in sums.items() if c})

    def _scalar(self, x):
        return Fraction(x) if isinstance(x, (int, Fraction)) else NotImplemented

    def unit_mono(self) -> Mono:
        return ONE_MONO

    def runs(self, mono: Mono) -> Mono:
        return mono

    def mono_str(self, mono: Mono) -> str:
        if not mono:
            return "1"
        parts = []
        for k, m in mono:
            name = f"L_{{{k}}}" if k < 0 else f"L_{k}"
            parts.append(name if m == 1 else f"{name}^{m}")
        return "*".join(parts)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.__rmul__(other)
        self._check(other)
        # integer numerators over one common denominator per operand
        da = lcm(*(c.denominator for c in self.terms.values()))
        db = lcm(*(c.denominator for c in other.terms.values()))
        right = [(kb, cb.numerator * (db // cb.denominator)) for kb, cb in other.terms.items()]
        out: dict = {}
        for ka, ca in self.terms.items():
            na = ca.numerator * (da // ca.denominator)
            for kb, nb in right:
                # a product with a unit slot is answered here, not cached
                parts = [mono_mul(ma, mb) if ma and mb else ((ma or mb, 1),) for ma, mb in zip(ka, kb)]
                for combo in iproduct(*parts):
                    n = na * nb
                    for _, ci in combo:
                        n *= ci
                    key = tuple(m for m, _ in combo)
                    out[key] = out.get(key, 0) + n
        d = da * db
        return self._like(self.rank, {key: Fraction(n, d) for key, n in out.items() if n})

    def degree(self):
        """Common degree under |L_k| = k, or None if inhomogeneous."""
        if not self.terms:
            return 0
        degs = {sum(mono_degree(m) for m in key) for key in self.terms}
        return degs.pop() if len(degs) == 1 else None


# -- public operation surface ------------------------------------------------


def bracket(r: int, s: int) -> Element:
    """[L_r, L_s] = (s - r) L_{r+s}."""
    return Element(1, {(((r + s, 1),),): Fraction(s - r)})


def normal_order(word) -> Element:
    """Canonical form of the product of generators listed by index."""
    return Element(1, {(m,): Fraction(c) for m, c in straighten(tuple(word))})


def e_element(i: int, n: int = 1) -> Element:
    """The n-th power of e = i*L_i (a single monomial, i^n * L_i^n)."""
    if i == 0:
        raise ValueError("i must be nonzero")
    if n == 0:
        return Element.one()
    return Element.from_mono(((i, n),), Fraction(i) ** n)


def ad_power(x: Element, l: int, i: int) -> Element:
    """(1/l!) ad(e)^l (x) with e = i*L_i: l nested brackets, divided exactly."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    if i == 0:
        raise ValueError("i must be nonzero")
    e = e_element(i)
    out = x
    for _ in range(l):
        out = commutator(e, out)
    return Fraction(1, factorial(l)) * out


def ad_power_closed(k: int, l: int, i: int) -> Element:
    """Closed form of ad_power on a generator: a single multiple of L_{k+li}.

    The coefficient is evaluated as the rational i^l * (k-i)(k)...(k+(l-2)i)/l!
    directly, independent of the integer-coefficient path, so the two can be
    cross-checked.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if i == 0:
        raise ValueError("i must be nonzero")
    num = Fraction(i) ** l
    for j in range(-1, l - 1):
        num *= k + j * i
    return Element.from_mono(((k + l * i, 1),), num / factorial(l))


def act_on_laurent(k: int, m: int) -> tuple[int, int]:
    """Action of L_k = x^{k+1} d/dx on the Laurent monomial x^m."""
    return (m, m + k)
