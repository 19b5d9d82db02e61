import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from oracles import act_derivation, basis_size, bracket_p, p_power_map
from wittq import restricted
from wittq.hopfp import HopfParamsP, antipode_p, coproduct_p
from wittq.restricted import (
    ElementP,
    embed_witt,
    e_element_p,
    gen_mono,
    mono_times_gen_p,
    one_mono,
    verify_witt_iso,
    _pack,
    _unpack,
)
from wittq.scalars import FpElem
from wittq.series import Deformation, PolyP, phi
from wittq.tensor import commutator

D = ElementP.gen


# -- word-level straightening: the confluence oracle for the multiply kernel --


def _word_of(mono):
    """The generator indices of a monomial in ascending order, with repeats."""
    return tuple(k for k, m in enumerate(mono) for _ in range(m))


@lru_cache(maxsize=None)
def _times_gen_p(word, g, p):
    # word ascending (indices in [0, p)); result: normal form of word * D_g, no
    # exponent reduction yet.
    if not word or word[-1] <= g:
        return ((word + (g,), 1),)
    head, a = word[:-1], word[-1]
    acc = {}
    for w1, c1 in _times_gen_p(head, g, p):
        for w2, c2 in _times_gen_p(w1, a, p):
            acc[w2] = (acc.get(w2, 0) + c1 * c2) % p
    merge_c = (g - a) % p
    if merge_c:
        for w1, c1 in _times_gen_p(head, (g + a) % p, p):
            acc[w1] = (acc.get(w1, 0) + merge_c * c1) % p
    return tuple(sorted((w, c) for w, c in acc.items() if c))


def _reduce_word(word, p):
    counts = [0] * p
    for k in word:
        counts[k] += 1
    while counts[0] >= p:
        counts[0] -= p - 1
    for k in range(1, p):
        if counts[k] >= p:
            return None
    return tuple(counts)


@lru_cache(maxsize=None)
def straighten_p(word, p):
    """Normal form of the product D_{word[0]} ... D_{word[-1]} in U_c,
    straightening the whole word first and reducing p-th powers only at the end."""
    acc = {(): 1}
    for g in word:
        nxt = {}
        for w, c in acc.items():
            for w2, c2 in _times_gen_p(w, g % p, p):
                nxt[w2] = (nxt.get(w2, 0) + c * c2) % p
        acc = {w: c for w, c in nxt.items() if c}
    out = {}
    for w, c in acc.items():
        mono = _reduce_word(w, p)
        if mono is not None:
            out[mono] = (out.get(mono, 0) + c) % p
    return tuple(sorted((m, c) for m, c in out.items() if c))


def test_bracket_p_examples():
    assert bracket_p(1, 2, 5) == D(3, 5)
    assert bracket_p(2, 2, 5) == ElementP.zero(5)
    assert bracket_p(3, 4, 5) == D(2, 5)  # index wraps: 3+4 = 7 = 2 mod 5
    assert bracket_p(FpElem(1, 5), FpElem(2, 5)) == D(3, 5)


def test_bracket_p_needs_modulus():
    with pytest.raises(ValueError):
        bracket_p(1, 2)
    with pytest.raises(ValueError):
        bracket_p(FpElem(1, 3), FpElem(2, 5))


def test_multiply_p_examples():
    # D_3 D_1 = D_1 D_3 + 3 D_4 over F_5
    got = D(3, 5) * D(1, 5)
    want = ElementP(5, 1, {(gen_mono(4, 5),): 3, ((0, 1, 0, 1, 0),): 1})
    assert got == want
    assert D(0, 5) ** 4 * D(0, 5) == D(0, 5)
    assert D(1, 5) ** 4 * D(1, 5) == ElementP.zero(5)


def test_multiply_p_associative_random():
    random.seed(13)
    for p in (3, 5, 7):
        for _ in range(25):
            monos = []
            for _ in range(3):
                v = [0] * p
                for _ in range(random.randint(1, 3)):
                    v[random.randrange(p)] = random.randrange(p)
                monos.append(ElementP(p, 1, {(tuple(v),): random.randrange(1, p)}))
            x, y, z = monos
            assert (x * y) * z == x * (y * z)


def test_canonical_exponents_below_p():
    random.seed(14)
    for p in (3, 5):
        for _ in range(40):
            word = tuple(random.randrange(p) for _ in range(random.randint(0, 2 * p)))
            prod = ElementP.one(p)
            for g in word:
                prod = prod * D(g, p)
            for (mono,), c in prod.terms.items():
                assert all(0 <= e < p for e in mono)
                assert 0 < c < p
            assert prod == ElementP(p, 1, {(m,): c for m, c in straighten_p(word, p)})


def oracle_reduce_then_straighten(word, p):
    """Alternative reduction order: contract adjacent p-blocks first, then
    straighten (and reduce anything the straightening creates)."""
    word = list(word)
    changed = True
    while changed:
        changed = False
        for start in range(len(word) - p + 1):
            block = word[start : start + p]
            if all(g == block[0] for g in block):
                if block[0] == 0:
                    word = word[:start] + [0] + word[start + p :]
                else:
                    return ()
                changed = True
                break
    return straighten_p(tuple(word), p)


def test_reduction_order_confluent():
    random.seed(15)
    for p in (3, 5, 7):
        for _ in range(60):
            word = tuple(random.randrange(p) for _ in range(4))
            assert straighten_p(word, p) == oracle_reduce_then_straighten(word, p)
    # length-4 words exercise reductions only at p=3; force longer runs there
    for _ in range(40):
        word = tuple(random.randrange(3) for _ in range(6))
        assert straighten_p(word, 3) == oracle_reduce_then_straighten(word, 3)


def test_mono_mul_matches_word_straightening():
    random.seed(16)
    for p in (3, 5, 7):
        for _ in range(60):
            # canonical monomials: a few indices, exponents below p
            a = [0] * p
            b = [0] * p
            for _ in range(random.randrange(3)):
                a[random.randrange(p)] = random.randrange(p)
            for _ in range(random.randrange(3)):
                b[random.randrange(p)] = random.randrange(p)
            a, b = tuple(a), tuple(b)
            want = ElementP(p, 1, {(m,): c for m, c in straighten_p(_word_of(a) + _word_of(b), p)})
            assert ElementP.from_mono(p, a) * ElementP.from_mono(p, b) == want


# -- the insertion memo on packed monomials ------------------------------------


def _memo_product(mono, g, p):
    return {_unpack(code, p): c for code, c in mono_times_gen_p(_pack(mono, p), g, p)}


def test_insertion_memo_exhaustive_p3():
    p = 3
    for mono in itertools.product(range(p), repeat=p):
        assert _unpack(_pack(mono, p), p) == mono
        for g in range(p):
            assert _memo_product(mono, g, p) == dict(straighten_p(_word_of(mono) + (g,), p))


def test_insertion_memo_sampled_p5_p7():
    rng = random.Random(17)
    for p in (5, 7):
        for _ in range(80):
            mono = [0] * p
            for _ in range(rng.randint(1, 3)):
                mono[rng.randrange(p)] = rng.randrange(p)
            mono = tuple(mono)
            g = rng.randrange(p)
            assert _unpack(_pack(mono, p), p) == mono
            assert _memo_product(mono, g, p) == dict(straighten_p(_word_of(mono) + (g,), p))


def test_insertion_memo_p_power_boundaries():
    for p in (3, 5, 7):
        # D_0^{p-1} * D_0 = D_0: the packed code drops by p - 2
        top0 = (p - 1,) + (0,) * (p - 1)
        assert mono_times_gen_p(_pack(top0, p), 0, p) == ((_pack(top0, p) - (p - 2), 1),)
        assert _memo_product(top0, 0, p) == {gen_mono(0, p): 1}
        for k in range(1, p):
            # D_k^{p-1} * D_k = 0, also behind lower generators
            topk = tuple(p - 1 if j == k else 0 for j in range(p))
            assert mono_times_gen_p(_pack(topk, p), k, p) == ()
            lower = tuple(1 if j < k else e for j, e in enumerate(topk))
            assert mono_times_gen_p(_pack(lower, p), k, p) == ()
            assert straighten_p(_word_of(lower) + (k,), p) == ()


def test_insertion_memo_accounting_and_sharing():
    # from an empty memo, the p = 7 powers: every stored entry is one miss,
    # equal stored pairs are one object, and cache_clear empties the tables
    # and the pair pool
    mono_times_gen_p.cache_clear()
    pp = HopfParamsP(7, 1, 1)
    assert (coproduct_p(2, pp) ** 7).is_zero()
    assert (antipode_p(2, pp) ** 7).is_zero()
    info = mono_times_gen_p.cache_info()
    rows = [row for tab in restricted._TABLES.values() for row in tab.values()]
    assert info.currsize == info.misses == len(rows) > 1000
    assert info.hits > info.misses and info.maxsize is None
    pairs: dict = {}
    for row in rows:
        assert list(row) == sorted(row)
        for pair in row:
            assert pairs.setdefault(pair, pair) is pair
    assert len(pairs) < sum(map(len, rows))
    assert all(restricted._POOL[pair] is pair for pair in pairs)

    # a stored entry hits, and is the stored tuple itself; a kernel pass over
    # stored monomials is one hit per monomial
    g, tab = next((g, tab) for (g, q), tab in restricted._TABLES.items() if q == 7)
    code, row = next(iter(tab.items()))
    assert mono_times_gen_p(code, g, 7) is row
    restricted._times_gen(dict.fromkeys(itertools.islice(tab, 5), 1), g, 7)
    after = mono_times_gen_p.cache_info()
    assert (after.hits, after.misses, after.currsize) == (info.hits + 6, info.misses, info.currsize)

    mono_times_gen_p.cache_clear()
    assert mono_times_gen_p.cache_info() == (0, 0, None, 0)
    assert not restricted._TABLES and not restricted._POOL
    # refilled from empty, the entry is equal but newly made
    assert mono_times_gen_p(code, g, 7) == row
    assert mono_times_gen_p.cache_info().misses >= 1


# -- the shared-prefix fold of the multiply kernel ------------------------------


def _mono(p, *runs):
    """The monomial with the given (index, exponent) runs."""
    exps = dict(runs)
    return tuple(exps.get(j, 0) for j in range(p))


def _random_element(rng, p, rank, n_terms):
    terms = {}
    for _ in range(n_terms):
        key = []
        for _ in range(rank):
            mono = [0] * p
            for _ in range(rng.randint(0, 2)):
                mono[rng.randrange(p)] = rng.randrange(p)
            key.append(tuple(mono))
        terms[tuple(key)] = rng.randrange(1, p)
    return ElementP(p, rank, terms)


def _sum_of_single_term_products(x, y):
    total = ElementP.zero(x.p, x.rank)
    for key, c in y.terms.items():
        total = total + x * ElementP(y.p, y.rank, {key: c})
    return total


def _has_proper_prefix(words):
    return any(a != b and b[: len(a)] == a for a in words for b in words)


@pytest.mark.parametrize("rank", [2, 3])
def test_prefix_fold_matches_single_term_products(rank):
    p = 5
    u = one_mono(p)
    d1, d2, d12, d1sq = _mono(p, (1, 1)), _mono(p, (2, 1)), _mono(p, (1, 1), (2, 1)), _mono(p, (1, 2))
    if rank == 2:
        keys = [(u, u), (d1, u), (d1, d2), (d12, u), (d12, d2), (u, d2), (u, _mono(p, (2, 2))), (d1sq, d2)]
    else:
        keys = [(u, u, u), (d1, u, u), (d1, u, d2), (d1, d2, d2), (u, u, d2), (u, d1, u), (d12, u, u), (d1sq, u, d1)]
    y = ElementP(p, rank, {key: 1 + n % (p - 1) for n, key in enumerate(keys)})
    # the operand exercises what the tries share: a first-slot word that is a
    # proper prefix of another, and one in the second slot under the unit
    # first slot; and unit slots, including the all-unit key
    assert (u,) * rank in keys
    assert _has_proper_prefix({_word_of(key[0]) for key in keys})
    assert _has_proper_prefix({_word_of(key[1]) for key in keys if key[0] == u})
    rng = random.Random(31 + rank)
    for _ in range(6):
        x = _random_element(rng, p, rank, 4)
        assert x * y == _sum_of_single_term_products(x, y)


def _pairwise_product(x, y):
    """x * y key pair by key pair, each slot straightened as one word: the
    tensor product rule with no grouping, no trie and no packed keys."""
    sums = {}
    for ka, ca in x.terms.items():
        for kb, cb in y.terms.items():
            slots = [straighten_p(_word_of(ma) + _word_of(mb), x.p) for ma, mb in zip(ka, kb)]
            for combo in itertools.product(*slots):
                key = tuple(m for m, _ in combo)
                c = ca * cb
                for _, ci in combo:
                    c *= ci
                sums[key] = sums.get(key, 0) + c
    return ElementP(x.p, x.rank, sums)


@pytest.mark.parametrize("rank", [2, 3])
def test_tensor_product_matches_pairwise_straightening(rank):
    p = 5
    u = one_mono(p)
    d1, d2, d3, d1top = _mono(p, (1, 1)), _mono(p, (2, 1)), _mono(p, (3, 1)), _mono(p, (1, p - 1))
    d0d2, d1d2 = _mono(p, (0, 1), (2, 1)), _mono(p, (1, 1), (2, 1))

    def el(*terms):
        return ElementP(p, rank, {(first,) + (inner,) * (rank - 1): c for first, inner, c in terms})

    # D_1^(p-1) D_1 = 0 in the first slot, while D_2 D_3 is not zero
    vanish = (el((d1top, d2, 1)), el((d1, d3, 2)))
    assert not (ElementP.from_mono(p, d2) * ElementP.from_mono(p, d3)).is_zero()
    assert (vanish[0] * vanish[1]).is_zero()
    # (D_1 + D_2) (x) D_3 times (D_2 - D_1) (x) 1: the D_1 D_2 terms of the
    # pairs (D_1, D_2) and (D_2, D_1) cancel
    cancel = (el((d1, d3, 1), (d2, d3, 1)), el((d2, u, 1), (d1, u, p - 1)))
    key = (d1d2,) + (d3,) * (rank - 1)
    assert _pairwise_product(el((d1, d3, 1)), el((d2, u, 1))).coeff(key) == 1
    assert _pairwise_product(el((d2, d3, 1)), el((d1, u, p - 1))).coeff(key) == p - 1
    assert (cancel[0] * cancel[1]).coeff(key) == 0
    # several first-slot monomials, some with inner parts that agree up to a
    # scalar, with unit slots and the all-unit key on both sides
    scaled = (
        el((u, u, 1), (d1, u, 3), (d2, u, 2), (d0d2, d3, 1), (d1top, d3, 4)),
        el((u, u, 2), (d0d2, u, 1), (d2, d1, 3), (d1, d1, 1), (d3, u, 4)),
    )
    cases = [vanish, cancel, scaled]
    rng = random.Random(51 + rank)
    cases += [(_random_element(rng, p, rank, 6), _random_element(rng, p, rank, 6)) for _ in range(8)]
    for x, y in cases:
        assert x * y == _pairwise_product(x, y)
        assert y * x == _pairwise_product(y, x)


def _pairwise_series(x, y):
    """x * y on t-polynomials, each pair of nonzero degrees through
    _pairwise_product."""
    p, rank = x._zero.p, x.rank
    coeffs = [ElementP.zero(p, rank) for _ in range(len(x.coeffs) + len(y.coeffs) - 1)]
    for a, ca in enumerate(x.coeffs):
        for b, cb in enumerate(y.coeffs):
            coeffs[a + b] = coeffs[a + b] + _pairwise_product(ca, cb)
    return PolyP(p, rank, coeffs)


def _random_series(rng, p, rank):
    return PolyP(p, rank, [_random_element(rng, p, rank, rng.randint(0, 4)) for _ in range(rng.randint(1, 3))])


def _kernel_cases(p, rank):
    """(name, x, y) products that exercise the shared inner trie and the
    deferred leaf letters of the kernel; the last slot of each key carries
    the case, the first slots (from rank 2) the first-slot words."""
    u, g = one_mono(p), p - 1
    d0, d1, d2, d01 = _mono(p, (0, 1)), _mono(p, (1, 1)), _mono(p, (2, 1)), _mono(p, (0, 1), (1, 1))

    def key(last, *front):
        return (tuple(front) + (u,) * rank)[: rank - 1] + (last,)

    def poly(*degrees):
        return PolyP(p, rank, [ElementP(p, rank, terms) for terms in degrees])

    w = _mono(p, (1, 1), (g, 1))
    return [
        # one inner word under two first-slot words, at degrees 0, 1 and 3
        (
            "inner-words-shared-across-degrees",
            poly({key(d0, d1): 1, key(u): 2}, {key(d2, d0): 1}),
            poly({key(w, d1): 1, key(u): 1}, {key(w, d2): 2}, {}, {key(w, d1): 1, key(d1, d2): p - 1}),
        ),
        # first = D_1^(p-1): first * D_1 = 0, while the inner D_1 D_2 is not
        (
            "first-slot-product-zero",
            poly({key(d1, _mono(p, (1, p - 1))): 1}),
            poly({key(d2, d1): 1, key(d2, d2): 3}, {key(d1, d1): 1}),
        ),
        # the leaf words D_0 D_g, D_1 D_g, D_0 D_1 D_g and D_g end in one
        # generator, under different prefixes, degrees and first slots
        (
            "leaves-sharing-a-last-letter",
            poly({key(d2): 1, key(d0, d1): 1}),
            poly(
                {key(_mono(p, (0, 1), (g, 1))): 1, key(w): 2, key(w, d1): 1},
                {key(_mono(p, (0, 1), (1, 1), (g, 1))): 1, key(_mono(p, (g, 1))): 3},
                {key(w): p - 1, key(_mono(p, (0, 1), (g, 1)), d1): 1},
            ),
        ),
        # D_1 is a proper prefix of D_1 D_g and of D_1^2, and both are words
        (
            "word-a-proper-prefix-of-another",
            poly({key(d01): 1, key(d2, d1): 2}),
            poly({key(d1): 1, key(w): 1, key(_mono(p, (1, 2))): 2}, {key(d1): 1}),
        ),
        # D_0 D_0^(p-1) = D_0^p = D_0: the leaves D_0^(p-1) D_g and (p-1) D_g
        # put D_0 and (p-1) D_0 into one bucket, which cancels mod p
        (
            "deferred-bucket-cancels",
            poly({key(d0): 1}),
            poly({key(_mono(p, (0, p - 1), (g, 1))): 1, key(_mono(p, (g, 1))): p - 1}),
        ),
    ]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_kernel_paths_match_pairwise_straightening(p, rank):
    rng = random.Random(70 * p + rank)
    for name, x, y in _kernel_cases(p, rank):
        assert x * y == _pairwise_series(x, y), name
        assert y * x == _pairwise_series(y, x), name
        for _ in range(3):
            z = _random_series(rng, p, rank)
            assert z * y == _pairwise_series(z, y), name
            assert y * z == _pairwise_series(y, z), name
        if name == "deferred-bucket-cancels":
            assert (x * y).is_zero()


def test_basis_size():
    assert basis_size(3) == 27
    assert basis_size(5) == 3125
    assert basis_size(7) == 823543  # arithmetic count, not materialized
    with pytest.raises(ValueError):
        basis_size(4)


def test_embed_witt_examples():
    p = 5
    assert embed_witt(-1, p) == -D(p - 1, p)
    assert embed_witt(0, p) == D(0, p) - D(p - 1, p)
    with pytest.raises(ValueError):
        embed_witt(p - 1, p)
    with pytest.raises(ValueError):
        embed_witt(-2, p)


def test_embed_witt_bracket_example():
    # [phi(e_-1), phi(e_0)] = phi(e_-1)
    for p in (3, 5, 7):
        lhs = commutator(embed_witt(-1, p), embed_witt(0, p))
        assert lhs == embed_witt(-1, p)


def test_embed_witt_truncation_zero_branch():
    # k + l > p - 2 collapses to zero in the truncated presentation
    for p in (5, 7):
        lhs = commutator(embed_witt(p - 2, p), embed_witt(p - 3, p))
        assert lhs == ElementP.zero(p)


def test_verify_witt_iso():
    for p in (3, 5, 7):
        rep = verify_witt_iso(p)
        assert rep.ok, rep.summary()


def test_act_derivation_examples():
    c, e = act_derivation(4, 1, 5)
    assert c == FpElem(1, 5) and e == 0  # X^5 = 1
    c, e = act_derivation(2, 0, 5)
    assert c == FpElem(0, 5)


def test_act_derivation_reproduces_structure_constants():
    for p in (3, 5, 7):
        for k in range(p):
            for l in range(p):
                for m in range(p):
                    c1, e1 = act_derivation(l, m, p)
                    c2, e2 = act_derivation(k, e1, p)
                    d1, f1 = act_derivation(k, m, p)
                    d2, f2 = act_derivation(l, f1, p)
                    assert e2 == f2
                    comm = (c1.residue * c2.residue - d1.residue * d2.residue) % p
                    want_c, want_e = act_derivation((k + l) % p, m, p)
                    want = (((l - k) % p) * want_c.residue) % p
                    assert comm == want
                    if comm:
                        assert e2 == want_e


def test_p_power_map():
    assert p_power_map(0, 5) == D(0, 5)
    assert p_power_map(1, 5) == ElementP.zero(5)
    assert p_power_map(FpElem(3, 5)) == ElementP.zero(5)
    # consistency with repeated multiplication
    for p in (3, 5):
        for k in range(p):
            assert D(k, p) ** p == p_power_map(k, p)


def _matmul(a, b, p):
    n = len(a)
    return [[sum(a[r][j] * b[j] [c] for j in range(n)) % p for c in range(n)] for r in range(n)]


def _rep_matrix(x, p):
    """Matrix of an element in the p-dim derivation representation.

    D_k acts on X^m as m X^{m+k mod p}; the action kills both D_0^p - D_0 and
    D_k^p, so it factors through the restricted algebra and gives an algebra
    morphism into p x p matrices: an oracle for the whole multiplication, not
    just the brackets.
    """
    gens = []
    for k in range(p):
        m = [[0] * p for _ in range(p)]
        for col in range(p):
            m[(col + k) % p][col] = col % p
        gens.append(m)
    out = [[0] * p for _ in range(p)]
    for (mono,), c in x.terms.items():
        term = [[int(r == col) for col in range(p)] for r in range(p)]
        for k in range(p):
            for _ in range(mono[k]):
                term = _matmul(term, gens[k], p)
        for r in range(p):
            for col in range(p):
                out[r][col] = (out[r][col] + c * term[r][col]) % p
    return out


def _random_sparse_element(p, max_terms, max_letters):
    terms = {}
    for _ in range(random.randint(1, max_terms)):
        v = [0] * p
        for _ in range(random.randint(1, max_letters)):
            v[random.randrange(p)] += 1
        if all(e < p for e in v):
            terms[(tuple(v),)] = random.randrange(1, p)
    return ElementP(p, 1, terms)


def test_multiplication_against_matrix_representation():
    random.seed(21)
    for p in (3, 5, 7):
        for _ in range(25):
            x = _random_sparse_element(p, 3, 4)
            y = _random_sparse_element(p, 2, 4)
            lhs = _rep_matrix(x * y, p)
            rhs = _matmul(_rep_matrix(x, p), _rep_matrix(y, p), p)
            assert lhs == rhs


def test_element_p_scalar_and_fp():
    x = D(1, 5)
    assert 7 * x == 2 * x
    assert FpElem(3, 5) * x == 3 * x
    assert (x - x).is_zero()
    with pytest.raises(ValueError):
        x + D(1, 7)


def test_element_p_p_integral_fraction_scalar():
    # a p-integral rational a/b acts as a * b^{-1} mod p
    for p in (3, 5, 7):
        for a in range(-4, 5):
            for b in range(1, 3 * p):
                if b % p == 0:
                    continue
                for k in range(p):
                    want = (a * pow(b, -1, p)) * D(k, p)
                    assert Fraction(a, b) * D(k, p) == want
                    assert D(k, p) * Fraction(a, b) == want
    # one whose denominator p divides has no residue
    for p in (3, 5):
        for b in (p, 2 * p, p * p):
            with pytest.raises(ValueError):
                Fraction(1, b) * D(1, p)
            with pytest.raises(ValueError):
                D(0, p) + Fraction(1, b)


def test_element_p_str():
    x = ElementP(5, 1, {((0, 2, 0, 1, 0),): 3})
    assert str(x) == "3 * D_1^2*D_3"
    assert str(ElementP.one(5)) == "1 * 1"
    assert str(ElementP.zero(5)) == "0"


# -- phi_m: D_k -> m^-1 D_{mk}, and the involution sigma = phi_-1 ----------------


def phi_image(m, x):
    """series.phi on every tensor factor of the element x."""
    d = Deformation(x.p, None, 1)
    return phi(d, m, d.series(x.rank, [x])).coeff(0)


def involution(x):
    """sigma: D_k -> -D_{-k}, i.e. phi_-1, on every tensor factor of x."""
    return phi_image(-1, x)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_involution_is_an_automorphism(p):
    sigma = {k: involution(D(k, p)) for k in range(p)}
    for k in range(p):
        assert sigma[k] == -D(-k, p)
        for l in range(p):
            assert involution(bracket_p(k, l, p)) == commutator(sigma[k], sigma[l])
        assert sigma[k] ** p == involution(p_power_map(k, p))


@pytest.mark.parametrize("p", (5, 7))
def test_phi_is_a_restricted_automorphism(p):
    # every m other than 1 and the involution's -1
    for m in range(2, p - 1):
        image = {k: phi_image(m, D(k, p)) for k in range(p)}
        for k in range(p):
            assert image[k] == Fraction(1, m) * D(m * k, p)
            for l in range(p):
                assert phi_image(m, bracket_p(k, l, p)) == commutator(image[k], image[l]), (m, k, l)
            assert image[k] ** p == phi_image(m, p_power_map(k, p)), (m, k)


def _seeded_p5_elements():
    # p = 5: seeded monomials of degree at most 8 (sigma of a generic one of
    # the 3125 straightens into thousands of terms), alone and in pairs
    rng = random.Random(5)

    def mono():
        exps = [0] * 5
        for _ in range(rng.randrange(1, 9)):
            exps[rng.randrange(5)] += 1
        return tuple(min(e, 4) for e in exps)

    for rank in (1, 2):
        for _ in range(30):
            yield ElementP(5, rank, {tuple(mono() for _ in range(rank)): rng.randrange(1, 5)})


def test_involution_squares_to_the_identity():
    for mono in itertools.product(range(3), repeat=3):
        x = ElementP.from_mono(3, mono)
        assert involution(involution(x)) == x
    for x in _seeded_p5_elements():
        assert involution(involution(x)) == x


def test_phi_is_inverted_by_phi_of_the_inverse():
    # phi_2 and phi_3 are inverse to each other mod 5
    for x in _seeded_p5_elements():
        assert phi_image(3, phi_image(2, x)) == x


def test_involution_maps_h_and_e_of_i_to_those_of_minus_i():
    from wittq.series import Deformation, h_rising

    for p in (3, 5, 7):
        for i in range(1, p):
            h = h_rising(Deformation(p, None, i), 0, 1)
            assert involution(h) == h_rising(Deformation(p, None, -i), 0, 1)
            assert involution(e_element_p(p, i)) == e_element_p(p, -i)


def test_phi_maps_h_and_e_of_i_to_those_of_mi():
    # phi_m(h_i) = h_{mi} and phi_m(e_i) = m^-2 e_{mi}
    from wittq.series import h_rising

    for p in (5, 7):
        for i in range(1, p):
            for m in range(2, p - 1):
                h = h_rising(Deformation(p, None, i), 0, 1)
                assert phi_image(m, h) == h_rising(Deformation(p, None, m * i), 0, 1)
                assert phi_image(m, e_element_p(p, i)) == Fraction(1, m * m) * e_element_p(p, m * i)


def _unsigned(m):
    # D_k -> D_{mk}, without the m^-1: at m = -1, D_k -> D_{-k}, not an
    # automorphism, [D_{-k}, D_{-l}] = (k - l) D_{-k-l}
    return lambda d, k: d.series(1, [d.gen(m * k)])


def _fixed_index(m):
    # D_k -> m^-1 D_k: at m = -1, D_k -> -D_k
    return lambda d, k: d.series(1, [Fraction(1, m) * d.gen(k)])


@pytest.mark.parametrize("mutant", [_unsigned, _fixed_index], ids=["no-sign", "k-to-k"])
def test_equivariance_check_refuses_a_wrong_involution(mutant, monkeypatch):
    from wittq import series
    from wittq.hopfp import HopfParamsP, phi_equivariant

    cells = [(p, i) for p in (3, 5) for i in range(1, p)]
    assert all(phi_equivariant(HopfParamsP(p, i), -1) for p, i in cells)
    monkeypatch.setattr(series, "phi_mono", lambda m: series._extension(1, anti=False)(mutant(m)))
    assert not any(phi_equivariant(HopfParamsP(p, i), -1) for p, i in cells)
