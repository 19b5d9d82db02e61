"""The characteristic-0 Witt enveloping algebra over Q.

Generators L_k (k in Z) obey [L_r, L_s] = (s - r) L_{r+s}.  Elements are
finitely supported maps from normal-ordered monomials to Fractions; a monomial
is a word of generators with strictly ascending indices, stored run-length
encoded as ((index, exponent), ...).  Element adds this monomial rule and its
multiply kernel to the sparse tensors of tensor.py.

Straightening rewrites L_a L_b -> L_b L_a + (b - a) L_{a+b} whenever a > b,
one inserted generator at a time.

The multiply kernel works on interned monomials: each monomial the kernel
meets gets a small int id once, in module-level tables from the monomial and
from its ascending word to the id and back, and the products of monomials
are memoized on pairs of ids, because the tensor series computations
multiply the same small monomials over and over.  An id's word and
run-length monomial are both built once, when the id is made.  A missing
product (_id_mul) folds id a's word through the letters of id b's word, one
memoized generator insertion (_times_gen) at a time, and looks each word of
the result up in the word table, so it builds a monomial only for a word
that has no id yet.

The structure constants of monomial products are integers, so the kernel
runs on integers too, over whole truncated t-series (series_mul, the ring
hook of the series product; an element product is the degree-0 case): it
turns each key into a tuple of ids and scales each operand series once to
integer numerators over the lcm of all its denominators, sums numerator
products times the monomial constants in plain ints per (degree, output id
key) for every pair of degrees the product keeps, with flat loops at ranks 1
and 2, and on exit turns the ids back into monomials and divides by the
product of the two denominators once per key.

An id says only in which order the process first met its monomial, and a
product lists its terms in the order its fold meets them.  The kernel's
output keys follow the order of its terms and of the memoized products,
never the order of ids, and no output depends on either order: the JSON and
text writers and the witnesses sort their keys, and element equality ignores
key order.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
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
            out[-1] = (k, out[-1][1] + 1)
        else:
            out.append((k, 1))
    return tuple(out)


def is_normal(mono: Mono) -> bool:
    """A PBW normal monomial: strictly ascending indices, exponents >= 1."""
    return all(m >= 1 for _, m in mono) and all(a < b for (a, _), (b, _) in zip(mono, mono[1:]))


def mono_degree(mono: Mono) -> int:
    return sum(k * m for k, m in mono)


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

_TIMES: dict[tuple[Word, int], tuple[tuple[Word, int], ...]] = {}
_TIMES_HITS = [0]


def _times_gen(word: Word, g: int) -> tuple[tuple[Word, int], ...]:
    """The normal form of word * L_g for an ascending word, memoized on
    (word, g): with word = head + (a,) and a > g, it is (head * L_g) * L_a +
    (g - a) head * L_{g+a}.  A missing product is built from an explicit stack
    of the products it needs, so the call stack does not grow with the word."""
    out = _TIMES.get((word, g))
    if out is not None:
        _TIMES_HITS[0] += 1
        return out
    stack = [(word, g)]
    while stack:
        w, h = key = stack.pop()
        if key in _TIMES:
            continue
        if not w or w[-1] <= h:
            _TIMES[key] = ((w + (h,), 1),)
            continue
        head, a = w[:-1], w[-1]
        parts = [(head, h), (head, h + a), *((w1, a) for w1, _ in _TIMES.get((head, h), ()))]
        need = [part for part in parts if part not in _TIMES]
        if need:
            stack += [key, *need]
            continue
        acc: dict[Word, int] = {}
        for w1, c1 in _TIMES[head, h]:
            for w2, c2 in _TIMES[w1, a]:
                acc[w2] = acc.get(w2, 0) + c1 * c2
        for w1, c1 in _TIMES[head, h + a]:
            acc[w1] = acc.get(w1, 0) + (h - a) * c1
        _TIMES[key] = tuple(sorted((w, c) for w, c in acc.items() if c))
    return _TIMES[word, g]


# each entry is computed once, on a miss, and kept
_times_gen.cache_info = lambda: CacheInfo(_TIMES_HITS[0], len(_TIMES), None, len(_TIMES))


# -- the multiply kernel on interned monomial ids ------------------------------

# an id names one ascending word and its run-length monomial, both built once,
# when the id is made; the unit is 0, the empty word and the empty monomial
_IDS: dict[Mono, int] = {ONE_MONO: 0}
_WORD_IDS: dict[Word, int] = {(): 0}
_MONOS: list[Mono] = [ONE_MONO]
_WORDS: list[Word] = [()]


def _new_id(mono: Mono, word: Word) -> int:
    i = _IDS[mono] = _WORD_IDS[word] = len(_MONOS)
    _MONOS.append(mono)
    _WORDS.append(word)
    return i


def _intern(mono: Mono) -> int:
    """The id of mono, assigned when the kernel first meets it."""
    i = _IDS.get(mono)
    return _new_id(mono, word_of(mono)) if i is None else i


def _word_id(word: Word) -> int:
    """The id of an ascending word, assigned when the kernel first meets it."""
    i = _WORD_IDS.get(word)
    return _new_id(mono_of(word), word) if i is None else i


@lru_cache(maxsize=None)
def _id_mul(a: int, b: int) -> tuple[tuple[int, int], ...]:
    """The normal form of the product of the monomials with ids a and b, as
    ((id, integer constant), ...): id a's word times L_g for each letter g of
    id b's word in turn (_times_gen), each word of the result then looked up
    in the word table (_word_id)."""
    if not a or not b:
        return ((a or b, 1),)
    acc = {_WORDS[a]: 1}
    for g in _WORDS[b]:
        nxt: dict[Word, int] = {}
        get = nxt.get
        for w, c in acc.items():
            for w2, c2 in _times_gen(w, g):
                nxt[w2] = get(w2, 0) + c * c2
        acc = nxt
    return tuple((_word_id(w), c) for w, c in acc.items() if c)


def _scaled(x: "Element", d: int, rank: int) -> list:
    """(id key, integer numerator over d) per term of x; an id key is one id
    at rank 1 and a tuple of ids above."""
    if rank == 1:
        return [(_intern(m), c.numerator * (d // c.denominator)) for (m,), c in x.terms.items()]
    return [(tuple(map(_intern, key)), c.numerator * (d // c.denominator)) for key, c in x.terms.items()]


# _pairs_<rank>: for every pair of a left and a right term (see _scaled), add
# its numerator product times the monomial constants into tgt, per output id
# key; flat loops at ranks 1 and 2, slot by slot above (and at rank 0)


def _pairs_1(tgt: dict, left: list, right: list) -> None:
    get = tgt.get
    for ia, na in left:
        for ib, nb in right:
            m = na * nb
            for k, c in _id_mul(ia, ib):
                tgt[k] = get(k, 0) + m * c


def _pairs_2(tgt: dict, left: list, right: list) -> None:
    get = tgt.get
    for (a1, a2), na in left:
        for (b1, b2), nb in right:
            second = _id_mul(a2, b2)
            m = na * nb
            for k1, c1 in _id_mul(a1, b1):
                m1 = m * c1
                for k2, c2 in second:
                    key = (k1, k2)
                    tgt[key] = get(key, 0) + m1 * c2


def _pairs_n(tgt: dict, left: list, right: list) -> None:
    get = tgt.get
    for ka, na in left:
        for kb, nb in right:
            combos = [((), na * nb)]
            for ia, ib in zip(ka, kb):
                combos = [(key + (k,), m * c) for key, m in combos for k, c in _id_mul(ia, ib)]
            for key, m in combos:
                tgt[key] = get(key, 0) + m


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
            if (s := self._scalar(c)) is NotImplemented:
                raise TypeError(f"coefficient {c!r} is not rational")
            if s:
                clean[key] = s
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
        return Element(1, {(mono,): coeff})

    # -- the ring and the monomial rule ------------------------------------------

    def from_sums(self, rank: int, sums: dict) -> "Element":
        """The element with the given Fraction coefficient sums, zeros dropped."""
        return self._like(rank, {key: c for key, c in sums.items() if c})

    def _scalar(self, x):
        return Fraction(x) if isinstance(x, (int, Fraction)) and not isinstance(x, bool) else NotImplemented

    def unit_mono(self) -> Mono:
        return ONE_MONO

    def split_letter(self, mono: Mono, first: bool) -> tuple[int, Mono]:
        """(k, rest): the first (or last) letter L_k of mono, which is not the
        unit, and the monomial rest that is left without it."""
        (k, m), rest = (mono[0], mono[1:]) if first else (mono[-1], mono[:-1])
        if m == 1:
            return k, rest
        return k, ((k, m - 1),) + rest if first else rest + ((k, m - 1),)

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
        with coefficients a_coeffs and b_coeffs, in integers on interned
        monomial ids: each series is scaled once to numerators over the lcm
        of its denominators, every pair of terms adds its numerator product
        times the memoized monomial constants (_id_mul) to its output id key,
        and each output key of each degree becomes one reduced Fraction."""
        rank = self.rank
        a_coeffs, b_coeffs = a_coeffs[:n], b_coeffs[:n]
        da = lcm(*(c.denominator for x in a_coeffs for c in x.terms.values()))
        db = lcm(*(c.denominator for y in b_coeffs for c in y.terms.values()))
        pairs = _pairs_1 if rank == 1 else _pairs_2 if rank == 2 else _pairs_n
        right = [_scaled(y, db, rank) for y in b_coeffs]
        out: list[dict] = [{} for _ in range(n)]
        for a, x in enumerate(a_coeffs):
            if x.terms:
                left = _scaled(x, da, rank)
                for b, rb in enumerate(right[: n - a]):
                    pairs(out[a + b], left, rb)
        d, monos = da * db, _MONOS
        if rank == 1:
            return [self._like(1, {(monos[k],): Fraction(m, d) for k, m in sums.items() if m}) for sums in out]
        return [
            self._like(rank, {tuple([monos[i] for i in k]): Fraction(m, d) for k, m in sums.items() if m})
            for sums in out
        ]

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
