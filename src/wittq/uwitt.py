"""The characteristic-0 Witt enveloping algebra over Q.

Generators L_k (k in Z) obey [L_r, L_s] = (s - r) L_{r+s}.  Elements are
finitely supported maps from normal-ordered monomials to Fractions; a monomial
is a word of generators with strictly ascending indices, stored run-length
encoded as ((index, exponent), ...).  Element adds this monomial rule and its
multiply kernel to the sparse tensors of tensor.py.

Straightening rewrites L_a L_b -> L_b L_a + (b - a) L_{a+b} whenever a > b,
one inserted generator at a time; monomial products are memoized because the
tensor series computations multiply the same small monomials over and over.
Their structure constants are integers, so the multiply kernel runs on
integers too, over whole truncated t-series (series_mul, the ring hook of the
series product; an element product is the degree-0 case): it scales each
operand series once to integer numerators over the lcm of all its
denominators, sums numerator products times the monomial constants in plain
ints per (degree, output key) for every pair of degrees the product keeps,
and divides by the product of the two denominators once per key at the end.
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


def is_normal(mono: Mono) -> bool:
    """A PBW normal monomial: strictly ascending indices, exponents >= 1."""
    return all(m >= 1 for _, m in mono) and all(a < b for (a, _), (b, _) in zip(mono, mono[1:]))


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
    """A finitely supported Q-linear combination of (tensors of) monomials.
    The constructor refuses a key that is not rank PBW normal monomials, as
    ElementP's does; _like, the kernel's path, trusts its keys."""

    __slots__ = ()

    char = 0

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        clean = {}
        for key, c in (terms or {}).items():
            if len(key) != rank or not all(map(is_normal, key)):
                raise ValueError(f"key {key!r} is not {rank} PBW normal monomials")
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

    def series_mul(self, a_coeffs, b_coeffs, n: int) -> list:
        """The coefficients of t^0 .. t^(n-1) in the product of the t-series
        with coefficients a_coeffs and b_coeffs, in integers: each series is
        scaled once to numerators over the lcm of its denominators, and each
        output key of each degree becomes one reduced Fraction."""
        a_coeffs, b_coeffs = a_coeffs[:n], b_coeffs[:n]
        da = lcm(*(c.denominator for x in a_coeffs for c in x.terms.values()))
        db = lcm(*(c.denominator for y in b_coeffs for c in y.terms.values()))
        right = [[(kb, cb.numerator * (db // cb.denominator)) for kb, cb in y.terms.items()] for y in b_coeffs]
        out: list[dict] = [{} for _ in range(n)]
        for a, x in enumerate(a_coeffs):
            if not x.terms:
                continue
            left = [(ka, ca.numerator * (da // ca.denominator)) for ka, ca in x.terms.items()]
            for b, rb in enumerate(right[: n - a]):
                tgt = out[a + b]
                for ka, na in left:
                    for kb, nb in rb:
                        # a product with a unit slot is answered here, not cached
                        parts = [mono_mul(ma, mb) if ma and mb else ((ma or mb, 1),) for ma, mb in zip(ka, kb)]
                        for combo in iproduct(*parts):
                            m = na * nb
                            for _, ci in combo:
                                m *= ci
                            key = tuple(mono for mono, _ in combo)
                            tgt[key] = tgt.get(key, 0) + m
        d = da * db
        return [self._like(self.rank, {key: Fraction(m, d) for key, m in sums.items() if m}) for sums in out]

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
