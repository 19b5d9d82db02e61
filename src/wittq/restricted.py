"""The Witt algebra in characteristic p and its restricted enveloping algebra.

Generators D_0 .. D_{p-1} obey [D_k, D_l] = (l - k) D_{(k+l) mod p}; the
restricted enveloping algebra is cut out by D_0^p = D_0 and D_k^p = 0 for
k != 0, so the basis is the p^p exponent vectors (a_0, ..., a_{p-1}) with all
entries below p.  Coefficients are residues mod p, stored as plain ints in
[0, p); FpElem appears at API boundaries.

Multiplication inserts one generator at a time into canonical monomials,
applying the p-power reductions as exponents fill up.  The memo for that step
(mono_times_gen_p) is one plain dict per (generator, p), keyed on the packed
monomial, so it never grows past the p^p basis; a kernel pass binds its
generator's dict once and straightens only on a miss.  An entry is the sorted
tuple of the product's (monomial, coefficient) pairs, and every pair comes
from one pool, so equal pairs are one object: after Delta(D_2)^7 and
S(D_2)^7 at p = 7, t = 1, the 36,417 entries hold 117,392 pairs but 40,821
pair objects.  mono_times_gen_p.cache_info() counts as an lru_cache does,
and cache_clear() also empties the pool.

The multiply kernel works on packed monomials: an exponent vector is one
base-p integer (a_j is the digit of p^j), so inserting a generator is integer
arithmetic on the code.  A rank-1 product folds the word of each right key
(its letters are generators) across the whole left element; the words go into
a trie, so a prefix that several keys share is folded once, depth first, so
that only the products of one root-to-node path are alive.  Only a word that
another word extends needs a product of its own.  A leaf word w D_g with
coefficient c at label l is deferred: c (x w) goes into a bucket keyed (g, l),
and when the walk ends each bucket is reduced mod p and multiplied by D_g once,
which by linearity is the sum of the leaves' products.  S(D_2) at p = 7, i = 1
has 112 words, 81 of them leaves ending in 6 letters, so at t = 1 its 81 leaf
passes become 6 (31 at symbolic t, one per letter and degree).

A tensor product goes slot by slot: with X = sum m (x) X_m and Y = sum n (x)
Y_n grouped by first-slot monomial, X Y is the sum over pairs of (m n) (x)
(X_m Y_n), merged by first-slot monomial.  The right factor keeps a trie of
its first-slot words and one trie of the other slots for all of them, whose
values carry the label (n, l) of the word n and the label l they came with.
For each left first-slot monomial m, one walk of m through the words gives
every product m n, and one fold of X_m through the shared inner trie gives
every X_m Y_n; each (n, l) result is joined to m n, and is dropped where m n
is zero.  The first slot of Delta(D_k) has at most p + 1 monomials (8 for the
78 terms of Delta(D_2) at p = 7, whose inner parts take 33 trie nodes as one
trie and took 95 as eight) and its powers stay within the p^2 monomials
D_0^a D_k^b, so the long inner words are folded through the small X_m, never
through all of X.  Keys are packed on entry and unpacked on exit; `terms`
keeps tuple keys everywhere else.

The kernel multiplies t-polynomials whole (series_mul, the ring hook of the
series product): the top labels are the right factor's t-degrees, so a word
that several degrees share, or a prefix of it, is folded once.  Each nonzero
left coefficient is packed and grouped once and folded through the right
factor, its products summed into degree da + db; each output degree is
reduced mod p and unpacked once.  An element product is the degree-0 case.
Besides the monomial rule and the kernel, only the Witt-algebra presentation
lives here: every other element operation (tensor.py) and every map on the
algebra, phi_m among them (series.py), is shared with characteristic 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .report import VerificationReport
from .scalars import FpElem, check_odd_prime
from .tensor import TensorElement, commutator
from .uwitt import CacheInfo

MonoP = tuple[int, ...]


def one_mono(p: int) -> MonoP:
    return (0,) * p


def gen_mono(k: int, p: int) -> MonoP:
    return tuple(1 if j == k % p else 0 for j in range(p))


def _pack(mono: MonoP, p: int) -> int:
    """The exponent vector as one base-p integer: a_j is the digit of p^j."""
    code = 0
    for e in reversed(mono):
        code = code * p + e
    return code


@lru_cache(maxsize=None)
def _unpack(code: int, p: int) -> MonoP:
    # cached so that equal monomials share one tuple across all the elements
    # that the structure-map memos keep
    digits = []
    for _ in range(p):
        code, e = divmod(code, p)
        digits.append(e)
    return tuple(digits)


# mono_times_gen_p's memo: one table per (g, p), from a packed monomial to
# its product with D_g.  Every stored pair comes from one pool, so equal pairs,
# and the codes inside them, are one object.
_TABLES: dict[tuple[int, int], dict[int, tuple[tuple[int, int], ...]]] = {}
_POOL: dict = {}
_COUNTS = [0, 0]  # lookups, misses


def _table(g: int, p: int) -> dict:
    tab = _TABLES.get((g, p))
    if tab is None:
        tab = _TABLES[g, p] = {}
    return tab


def _pair(code: int, c: int) -> tuple[int, int]:
    pair = (code, c)
    return _POOL.setdefault(pair, pair)


def mono_times_gen_p(code: int, g: int, p: int) -> tuple[tuple[int, int], ...]:
    """Canonical form of mono * D_g on packed monomials (see _pack), as sorted
    (monomial, coefficient) pairs.  Keyed on canonical monomials so the memo
    stays within the p^p basis instead of the space of arbitrary words."""
    _COUNTS[0] += 1
    row = _table(g, p).get(code)
    return _straighten(code, g, p) if row is None else row


def _straighten(code: int, g: int, p: int) -> tuple[tuple[int, int], ...]:
    """mono_times_gen_p(code, g, p) on a miss, stored in the table of (g, p)."""
    _COUNTS[1] += 1
    top = -1
    rest = code
    while rest:
        rest //= p
        top += 1
    if top <= g:
        # append D_g; at exponent p - 1 the p-power reductions apply:
        # D_0^(p-1) D_0 = D_0 (the code drops by p - 2), D_g^(p-1) D_g = 0
        if code // p**g % p < p - 1:
            row = (_pair(code + p**g, 1),)
        else:
            row = (_pair(code - (p - 2), 1),) if g == 0 else ()
    else:
        m1 = code - p**top
        acc: dict[int, int] = {}
        for n, c in mono_times_gen_p(m1, g, p):
            for n2, c2 in mono_times_gen_p(n, top, p):
                acc[n2] = (acc.get(n2, 0) + c * c2) % p
        merge_c = (g - top) % p
        if merge_c:
            for n, c in mono_times_gen_p(m1, (g + top) % p, p):
                acc[n] = (acc.get(n, 0) + merge_c * c) % p
        row = tuple(sorted(_pair(m, c) for m, c in acc.items() if c))
    _table(g, p)[code] = row
    return row


def _cache_info() -> CacheInfo:
    lookups, misses = _COUNTS
    return CacheInfo(lookups - misses, misses, None, sum(map(len, _TABLES.values())))


def _cache_clear() -> None:
    _TABLES.clear()
    _POOL.clear()
    _COUNTS[:] = [0, 0]


mono_times_gen_p.cache_info = _cache_info
mono_times_gen_p.cache_clear = _cache_clear


def _times_gen(acc: dict, g: int, p: int) -> dict:
    """acc * D_g on packed monomials; residues reduced and zeros dropped."""
    row_of = _table(g, p).get
    _COUNTS[0] += len(acc)
    nxt: dict = {}
    get = nxt.get
    for m, c in acc.items():
        row = row_of(m)
        if row is None:
            row = _straighten(m, g, p)
        for m2, c2 in row:
            nxt[m2] = get(m2, 0) + c * c2
    return {m: r for m, v in nxt.items() if (r := v % p)}


class _Trie:
    """Words of generators, with the value of the word that ends at each node
    (None where none does).  In a trie that _fold folds, the words that end
    in a leaf are not children but the parent's leaves: a pair ((g, label),
    c) per label of a leaf word w D_g, c the word's coefficient there."""

    __slots__ = ("children", "value", "leaves")

    def __init__(self):
        self.children: dict[int, _Trie] = {}
        self.value = None
        self.leaves: list = []


def _node(root: _Trie, mono: MonoP) -> _Trie:
    """The node of mono's word D_0^a_0 D_1^a_1 ..., made where missing."""
    node = root
    for g, e in enumerate(mono):
        for _ in range(e):
            node = node.children.setdefault(g, _Trie())
    return node


def _split_leaves(node: _Trie) -> None:
    """Make the childless children below node leaves (see _Trie)."""
    for g, child in list(node.children.items()):
        if child.children:
            _split_leaves(child)
        else:
            del node.children[g]
            node.leaves += [((g, label), c) for label, c in child.value.items()]


def _left(terms: dict, rank: int):
    """The left factor of a product, from terms keyed on tuples of packed
    monomials.  At rank 1 it is {monomial: coefficient}; above, a list of pairs
    (first, inner), one per first-slot monomial m: first is {m: 1} and inner
    the left form of the other slots of m's terms, whose tensor products sum
    to the factor."""
    if rank == 1:
        return {key[0]: c for key, c in terms.items()}
    groups: dict = {}
    for key, c in terms.items():
        groups.setdefault(key[0], {})[key[1:]] = c
    return [({m: 1}, _left(rest, rank - 1)) for m, rest in groups.items()]


def _trie(terms: dict, rank: int):
    """The right factor of a product, from {key: {label: coefficient}} (the
    labels are t-degrees at the top).  At rank 1, the trie of the keys'
    words, valued by their {label: coefficient}, its leaves split off for
    _fold.  Above, a pair (words, inner): words the trie of the first-slot
    words, each valued by its monomial n, and inner the right factor of the
    other slots, where n's inner part at label l has label (n, l), so that
    one inner trie serves every first-slot word."""
    if rank == 1:
        root = _Trie()
        for (mono,), labels in terms.items():
            _node(root, mono).value = labels
        _split_leaves(root)
        return root
    words, inner = _Trie(), {}
    for key, labels in terms.items():
        n = key[0]
        _node(words, n).value = n
        tgt = inner.setdefault(key[1:], {})
        for label, c in labels.items():
            tgt[n, label] = c
    return words, _trie(inner, rank - 1)


def _walk(acc: dict, trie: _Trie, p: int):
    """(node, acc * w) for every node of the trie, w the node's word, except
    where acc * w is zero (and below it).  Depth first, and a node's product
    is made when the node is popped, not when its parent is, so each shared
    prefix is folded once and only the products of the current root-to-node
    path are alive."""
    stack = [(trie, acc, None)]
    while stack:
        node, acc, g = stack.pop()
        if g is not None:
            acc = _times_gen(acc, g, p)
            if not acc:
                continue
        yield node, acc
        for h, child in node.children.items():
            stack.append((child, acc, h))


def _add_into(out: dict, x: dict, c: int, rank: int) -> None:
    """out += c * x on sums (see _product)."""
    if rank == 1:
        get = out.get
        for m, v in x.items():
            out[m] = get(m, 0) + c * v
    else:
        for m, xm in x.items():
            _add_into(out.setdefault(m, {}), xm, c, rank - 1)


def _merge(out: dict, key, x: dict, rank: int) -> None:
    """out[key] += x on sums, taking x itself where out has no key."""
    if key in out:
        _add_into(out[key], x, 1, rank)
    else:
        out[key] = x


def _fold(x: dict, trie: _Trie, p: int) -> dict:
    """{label: x * y_label} at rank 1, y_label the sum of c w over the words
    w of the trie valued c at label; sums unreduced.  The walk makes x w only
    for the words that other words extend.  A leaf word w D_g is deferred:
    c (x w) goes into a bucket keyed (g, label), and when the walk ends each
    bucket is reduced mod p and multiplied by D_g once, which by linearity is
    the sum of its leaves' products: one D_g pass per (g, label), not one per
    leaf."""
    out: dict = {}
    buckets: dict = {}
    for node, acc in _walk(x, trie, p):
        for label, c in (node.value or {}).items():
            _add_into(out.setdefault(label, {}), acc, c, 1)
        for key, c in node.leaves:
            _add_into(buckets.setdefault(key, {}), acc, c, 1)
    for (g, label), acc in buckets.items():
        acc = {m: r for m, v in acc.items() if (r := v % p)}
        _merge(out, label, _times_gen(acc, g, p), 1)
    return out


def _product(x, y, rank: int, p: int) -> dict:
    """{label: x * y_label} for x a left factor (_left) and y a right factor
    (_trie), y_label its coefficient at each label; each product as sums,
    {first-slot monomial: sums of the other slots} down to {monomial:
    coefficient}, coefficients unreduced.  Above rank 1, x is the sum of
    first (x) inner over its pairs and y_l = sum n (x) y_(n, l) by first-slot
    monomial n, so x y_l is the sum over pairs and n of (first n) (x) (inner
    y_(n, l)): one walk of first through the first-slot words gives every
    first n, and one fold of inner through the shared inner trie every inner
    y_(n, l)."""
    if rank == 1:
        return _fold(x, y, p)
    words, inner_y = y
    out: dict = {}
    for first, inner in x:
        fns = {node.value: fn for node, fn in _walk(first, words, p) if node.value is not None}
        if not fns:
            continue
        for (n, label), prod in _product(inner, inner_y, rank - 1, p).items():
            fn = fns.get(n)
            if fn is not None:
                tgt = out.setdefault(label, {})
                for m, c in fn.items():
                    _add_into(tgt.setdefault(m, {}), prod, c, rank - 1)
    return out


def _terms(sums: dict, rank: int, p: int) -> dict:
    """Tensor terms of sums (see _product), residues reduced and zeros dropped."""
    if rank == 1:
        return {(_unpack(m, p),): r for m, v in sums.items() if (r := v % p)}
    return {(_unpack(m, p),) + key: c for m, xm in sums.items() for key, c in _terms(xm, rank - 1, p).items()}


class ElementP(TensorElement):
    """Sparse F_p-linear combination of (tensors of) restricted monomials."""

    __slots__ = ("p",)

    def __init__(self, p: int, rank: int = 1, terms: dict | None = None):
        check_odd_prime(p)
        self.p = p
        self.rank = rank
        clean = {}
        for key, c in (terms or {}).items():
            if len(key) != rank or any(
                len(m) != p or any(not 0 <= e < p for e in m) for m in key
            ):
                raise ValueError(f"non-canonical monomial key {key!r} for p={p}, rank={rank}")
            if (s := self._scalar(c)) is NotImplemented:
                raise TypeError(f"coefficient {c!r} is not a scalar of F_{p}")
            if s:
                clean[key] = s
        self.terms = clean

    def _like(self, rank: int, terms: dict) -> "ElementP":
        # fast path: residues already reduced, zeros already pruned
        out = ElementP.__new__(ElementP)
        out.p = self.p
        out.rank = rank
        out.terms = terms
        return out

    @staticmethod
    def zero(p: int, rank: int = 1) -> "ElementP":
        return ElementP(p, rank)

    @staticmethod
    def one(p: int, rank: int = 1) -> "ElementP":
        return ElementP(p, rank, {(one_mono(p),) * rank: 1})

    @staticmethod
    def gen(k: int, p: int) -> "ElementP":
        return ElementP(p, 1, {(gen_mono(k, p),): 1})

    @staticmethod
    def from_mono(p: int, mono: MonoP, coeff: int = 1) -> "ElementP":
        return ElementP(p, 1, {(mono,): coeff})

    # -- the ring and the monomial rule ------------------------------------------

    @property
    def char(self) -> int:
        return self.p

    def from_sums(self, rank: int, sums: dict) -> "ElementP":
        """The element with the given integer coefficient sums, reduced mod p
        and with zeros dropped."""
        p = self.p
        return self._like(rank, {key: c % p for key, c in sums.items() if c % p})

    def _scalar(self, x):
        if isinstance(x, FpElem):
            if x.p != self.p:
                raise ValueError(f"mismatched moduli {self.p} and {x.p}")
            return x.residue
        if isinstance(x, Fraction):
            # a p-integral rational reduces to one residue; any other has none
            if x.denominator % self.p == 0:
                raise ValueError(f"{x} is not p-integral for p={self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p if isinstance(x, int) and not isinstance(x, bool) else NotImplemented

    def unit_mono(self) -> MonoP:
        return one_mono(self.p)

    def split_letter(self, mono: MonoP, first: bool) -> tuple[int, MonoP]:
        """(k, rest): the first (or last) letter D_k of mono, which is not the
        unit, and the monomial rest that is left without it."""
        k = next(j for j in (range(self.p) if first else reversed(range(self.p))) if mono[j])
        return k, mono[:k] + (mono[k] - 1,) + mono[k + 1 :]

    def mono_str(self, mono: MonoP) -> str:
        parts = [f"D_{k}" if m == 1 else f"D_{k}^{m}" for k, m in enumerate(mono) if m]
        return "*".join(parts) if parts else "1"

    def series_mul(self, a_coeffs, b_coeffs, n: int) -> list:
        """The coefficients of t^0 .. t^(n-1) in the product of the
        t-polynomials with coefficients a_coeffs and b_coeffs.  The right
        factor goes into one trie for all its degrees, and each nonzero left
        coefficient is packed, grouped and folded through it once."""
        p, rank = self.p, self.rank
        right: dict = {}
        for d, c in enumerate(b_coeffs[:n]):
            for key, v in c.terms.items():
                right.setdefault(key, {})[d] = v
        y = _trie(right, rank)
        out: dict = {}
        for a, c in enumerate(a_coeffs[:n]):
            if c.terms:
                x = _left({tuple([_pack(m, p) for m in key]): v for key, v in c.terms.items()}, rank)
                for d, sums in _product(x, y, rank, p).items():
                    _merge(out, a + d, sums, rank)
        return [self._like(rank, _terms(out[d], rank, p) if d in out else {}) for d in range(n)]


# -- public operation surface ------------------------------------------------


def _residue(x, p=None) -> tuple[int, int]:
    if isinstance(x, FpElem):
        if p is not None and x.p != p:
            raise ValueError("mismatched moduli")
        return x.residue, x.p
    if p is None:
        raise ValueError("modulus required for plain int arguments")
    return x % p, p


def e_element_p(p: int, i: int, n: int = 1) -> ElementP:
    """e^n with e = i D_i, as one monomial; zero once n reaches p."""
    if n >= p:
        return ElementP.zero(p)
    return ElementP.from_mono(p, tuple(n if j == i % p else 0 for j in range(p)), pow(i, n, p))


def embed_witt(k: int, p: int) -> ElementP:
    """Image of the truncated-basis generator e_k, k in {-1, ..., p-2}."""
    check_odd_prime(p)
    if not -1 <= k <= p - 2:
        raise ValueError(f"index {k} outside {{-1, ..., {p - 2}}}")
    terms: dict = {}
    for l in range(-1, k + 1):
        sign = -1 if l % 2 else 1  # (-1)^l, with (-1)^(-1) = -1
        c = (sign * comb(k + 1, l + 1)) % p
        if c:
            terms[(gen_mono(l % p, p),)] = c
    return ElementP(p, 1, terms)


def _fp_rank(rows: list[list[int]], p: int) -> int:
    m = [row[:] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(v * inv) % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] % p:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def verify_witt_iso(p: int) -> VerificationReport:
    """Check the truncated-basis presentation maps isomorphically onto the
    periodic one: bracket relations on all index pairs, plus linear
    independence of the images."""
    check_odd_prime(p)
    rep = VerificationReport()
    phi = {k: embed_witt(k, p) for k in range(-1, p - 1)}

    for k in range(-1, p - 1):
        for l in range(-1, p - 1):
            lhs = commutator(phi[k], phi[l])
            if (l - k) % p and -1 <= k + l <= p - 2:
                rhs = ((l - k) % p) * phi[k + l]
            else:
                rhs = ElementP.zero(p)
            rep.add(
                "witt-embedding-bracket",
                {"p": p, "k": k, "l": l},
                lhs == rhs,
                None if lhs == rhs else f"{lhs} != {rhs}",
            )

    rows = []
    for k in range(-1, p - 1):
        row = [0] * p
        for (mono,), c in phi[k].terms.items():
            idx = next(j for j, m in enumerate(mono) if m)
            row[idx] = c
        rows.append(row)
    rep.add("witt-embedding-independent", {"p": p}, _fp_rank(rows, p) == p)
    return rep
