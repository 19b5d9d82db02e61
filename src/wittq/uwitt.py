"""The characteristic-0 Witt enveloping algebra over Q.

Generators L_k (k in Z) obey [L_r, L_s] = (s - r) L_{r+s}.  Elements are
finitely supported maps from normal-ordered monomials to Fractions; a monomial
is a word of generators with strictly ascending indices, stored run-length
encoded as ((index, exponent), ...).  The same Element class also carries
rank-2 and rank-3 tensors (keys are tuples of monomials), which keeps one
multiplication routine for the whole char-0 side.

Straightening rewrites L_a L_b -> L_b L_a + (b - a) L_{a+b} whenever a > b,
leftmost pair first; it is memoized at the word level because the tensor
series computations multiply the same small monomials over and over.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial

from .scalars import rising

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


@lru_cache(maxsize=None)
def straighten(word: Word) -> tuple[tuple[Mono, int], ...]:
    """Normal form of the product L_{word[0]} ... L_{word[-1]}."""
    acc: dict[Word, int] = {(): 1}
    for g in word:
        nxt: dict[Word, int] = {}
        for w, c in acc.items():
            for w2, c2 in _times_gen(w, g):
                nxt[w2] = nxt.get(w2, 0) + c * c2
        acc = {w: c for w, c in nxt.items() if c}
    return tuple(sorted((mono_of(w), c) for w, c in acc.items()))


@lru_cache(maxsize=None)
def mono_mul(a: Mono, b: Mono) -> tuple[tuple[Mono, int], ...]:
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    acc: dict[Word, int] = {word_of(a): 1}
    for g in word_of(b):
        nxt: dict[Word, int] = {}
        for w, c in acc.items():
            for w2, c2 in _times_gen(w, g):
                nxt[w2] = nxt.get(w2, 0) + c * c2
        acc = {w: c for w, c in nxt.items() if c}
    return tuple(sorted((mono_of(w), c) for w, c in acc.items()))


def _mono_str(mono: Mono) -> str:
    if not mono:
        return "1"
    parts = []
    for k, m in mono:
        name = f"L_{{{k}}}" if k < 0 else f"L_{k}"
        parts.append(name if m == 1 else f"{name}^{m}")
    return "*".join(parts)


class Element:
    """A finitely supported Q-linear combination of (tensors of) monomials."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        clean = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[key] = c
        self.terms = clean

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

    # -- ring hooks of the shared t-series layer ------------------------------

    def zero_of(self, rank: int) -> "Element":
        return Element(rank)

    def one_of(self, rank: int) -> "Element":
        return Element.one(rank)

    def unit_mono(self) -> Mono:
        return ONE_MONO

    def monomial(self, mono: Mono) -> "Element":
        return Element.from_mono(mono)

    def runs(self, mono: Mono) -> Mono:
        return mono

    def from_sums(self, rank: int, sums: dict) -> "Element":
        """The element with the given Fraction coefficient sums, zeros dropped."""
        out = Element.__new__(Element)
        out.rank = rank
        out.terms = {key: c for key, c in sums.items() if c}
        return out

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "Element"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Element.one(self.rank) * other
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return Element(self.rank, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element(self.rank, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return Element(self.rank, {k: scalar * c for k, c in self.terms.items()})
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__rmul__(other)
        self._check(other)
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                parts = [mono_mul(ma, mb) for ma, mb in zip(ka, kb)]
                for combo in iproduct(*parts):
                    c = ca * cb
                    for _, ci in combo:
                        c *= ci
                    key = tuple(m for m, _ in combo)
                    out[key] = out.get(key, 0) + c
        return Element(self.rank, out)

    def __pow__(self, n: int):
        out = Element.one(self.rank)
        for _ in range(n):
            out = out * self
        return out

    def tensor(self, other: "Element") -> "Element":
        out: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                out[ka + kb] = out.get(ka + kb, 0) + ca * cb
        return Element(self.rank + other.rank, out)

    def swap(self) -> "Element":
        """Flip the two factors of a rank-2 tensor."""
        if self.rank != 2:
            raise ValueError("swap needs rank 2")
        return Element(2, {(b, a): c for (a, b), c in self.terms.items()})

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Common degree under |L_k| = k, or None if inhomogeneous."""
        if not self.terms:
            return 0
        degs = {sum(mono_degree(m) for m in key) for key in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def coeff(self, key) -> Fraction:
        """Coefficient at a key (a tuple of rank many monomials)."""
        return self.terms.get(key, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            c = self.terms[key]
            mono = " (x) ".join(_mono_str(m) for m in key)
            bits.append(f"{c} * {mono}")
        return " + ".join(bits)

    __repr__ = __str__


# -- public operation surface ------------------------------------------------


def bracket(r: int, s: int) -> Element:
    """[L_r, L_s] = (s - r) L_{r+s}."""
    return Element(1, {(((r + s, 1),),): Fraction(s - r)})


def normal_order(word) -> Element:
    """Canonical form of the product of generators listed by index."""
    return Element(1, {(m,): Fraction(c) for m, c in straighten(tuple(word))})


def commutator(x: Element, y: Element) -> Element:
    return x * y - y * x


def e_element(i: int, n: int = 1) -> Element:
    """The n-th power of e = i*L_i (a single monomial, i^n * L_i^n)."""
    if i == 0:
        raise ValueError("i must be nonzero")
    if n == 0:
        return Element.one()
    return Element.from_mono(((i, n),), Fraction(i) ** n)


def h_element(i: int) -> Element:
    """h = (1/i) L_0."""
    if i == 0:
        raise ValueError("i must be nonzero")
    return Element.from_mono(((0, 1),), Fraction(1, i))


@lru_cache(maxsize=None)
def _h_rising(l: int, i: int) -> Element:
    return rising(h_element(i), l)


def h_rising(l: int, i: int) -> Element:
    """(h)(h+1)...(h+l-1) for h = (1/i)L_0, expanded in the PBW basis."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    return _h_rising(l, i)


@lru_cache(maxsize=None)
def h_plus_one_rising(l: int, i: int) -> Element:
    """(h+1)(h+2)...(h+l) for h = (1/i)L_0."""
    return rising(h_element(i) + 1, l)


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
