import random
import sys
from fractions import Fraction
from itertools import product as iproduct
from math import gcd

import pytest

from oracles import act_on_laurent, normal_order
from wittq import uwitt
from wittq.uwitt import (
    Element,
    ad_power,
    ad_power_closed,
    bracket,
    commutator,
    is_normal,
    mono_of,
)
from wittq.scalars import rising
from wittq.series import Deformation, Series, h_rising

L = Element.gen


def _word(mono):
    return tuple(k for k, m in mono for _ in range(m))


def kernel_order(word):
    """The product of the generators listed by index, through the kernel."""
    out = Element.one()
    for k in word:
        out = out * L(k)
    return out


def oracle_mul(x, y):
    """Pairwise Fraction product, term by term, each slot's monomial product
    straightened by the rewriting oracle: the reference for the
    integer-numerator kernel of Element.series_mul."""
    out = {}
    for ka, ca in x.terms.items():
        for kb, cb in y.terms.items():
            parts = [normal_order(_word(ma) + _word(mb)).terms.items() for ma, mb in zip(ka, kb)]
            for combo in iproduct(*parts):
                c = ca * cb
                for _, ci in combo:
                    c *= ci
                key = tuple(m for (m,), _ in combo)
                out[key] = out.get(key, 0) + c
    return Element(x.rank, out)


COEFFS = [Fraction(n, d) for n in (1, -1, 2, -5, 7) for d in (1, 3, -4, 6)]


def _random_element(rng, rank):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = []
        for _ in range(rank):
            ks = sorted(rng.sample(range(-3, 4), rng.randint(0, 2)))
            key.append(tuple((k, rng.randint(1, 2)) for k in ks))
        terms[tuple(key)] = rng.choice(COEFFS)
    return Element(rank, terms)


def _assert_reduced(x):
    for c in x.terms.values():
        assert type(c) is Fraction and c != 0
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_kernel_matches_pairwise_fraction_oracle(rank):
    rng = random.Random(70 + rank)
    for _ in range(25):
        x, y = _random_element(rng, rank), _random_element(rng, rank)
        got = x * y
        assert got == oracle_mul(x, y)
        _assert_reduced(got)
    zero = Element.zero(rank)
    assert (x * zero).is_zero() and (zero * y).is_zero() and (zero * zero).is_zero()


def oracle_series_mul(x, y):
    """Series product one pair of coefficients at a time: the Fraction sums of
    oracle_mul over every degree pair that the smaller order keeps."""
    order = min(x.order, y.order)
    coeffs = []
    for d in range(order + 1):
        sums = {}
        for a in range(d + 1):
            for key, c in oracle_mul(x.coeff(a), y.coeff(d - a)).terms.items():
                sums[key] = sums.get(key, 0) + c
        coeffs.append(Element(x.rank, sums))
    return Series(order, x.rank, coeffs)


def _random_series(rng, rank, order):
    # each coefficient is zero with probability 1/3, so zeros sit between terms
    coeffs = [_random_element(rng, rank) if rng.random() < 2 / 3 else Element.zero(rank) for _ in range(order + 1)]
    return Series(order, rank, coeffs)


@pytest.mark.parametrize("rank", [1, 2])
def test_series_kernel_matches_per_degree_oracle(rank):
    rng = random.Random(90 + rank)
    for _ in range(12):
        x = _random_series(rng, rank, rng.randint(0, 4))
        y = _random_series(rng, rank, rng.randint(0, 4))
        got = x * y
        assert got.order == min(x.order, y.order)
        assert got == oracle_series_mul(x, y)
        for c in got.coeffs:
            _assert_reduced(c)
    zero = Series.zero(3, rank)
    assert (x * zero).is_zero() and (zero * y).is_zero() and (zero * zero).is_zero()


def test_kernel_cancels_exactly():
    # (h/3 + 5/4)(h/3 - 5/4) = h^2/9 - 25/16: the h terms cancel
    h = L(0)
    got = (Fraction(1, 3) * h + Fraction(5, 4)) * (Fraction(1, 3) * h - Fraction(5, 4))
    assert got == Element(1, {(((0, 2),),): Fraction(1, 9), ((),): Fraction(-25, 16)})
    _assert_reduced(got)
    # (a (x) 1 + 1 (x) b)(a (x) 1 - 1 (x) b) = a^2 (x) 1 - 1 (x) b^2 when a, b commute
    one = Element.one()
    a, b = Fraction(-5, 4) * h, Fraction(7, 6) * h
    got = (a.tensor(one) + one.tensor(b)) * (a.tensor(one) - one.tensor(b))
    assert got == (a * a).tensor(one) - one.tensor(b * b)
    assert got == oracle_mul(a.tensor(one) + one.tensor(b), a.tensor(one) - one.tensor(b))
    assert len(got.terms) == 2
    _assert_reduced(got)


def test_bracket_examples():
    assert bracket(1, 2) == L(3)
    assert bracket(4, 4) == Element.zero()
    assert bracket(2, -1) == -3 * L(1)


def test_normal_order_examples():
    assert normal_order([0, 1]) == L(0) * L(1)
    assert normal_order([2, -1]) == Element(1, {(((-1, 1), (2, 1)),): 1, (((1, 1),),): -3})
    # frozen from the oracle: L_1 L_1 L_0 = L_0 L_1^2 - 2 L_1^2
    expect = Element(1, {(((0, 1), (1, 2)),): 1, (((1, 2),),): -2})
    assert kernel_order([1, 1, 0]) == expect
    assert normal_order([1, 1, 0]) == expect


def test_normal_order_against_oracle_random():
    random.seed(5)
    for _ in range(120):
        word = [random.randint(-4, 4) for _ in range(random.randint(0, 5))]
        assert kernel_order(word) == normal_order(word)


def test_multiply_examples():
    x = Element(1, {(((0, 1), (2, 1)),): Fraction(3, 2)})
    assert Element.one() * x == x
    assert x * Element.one() == x
    # [L_1, L_-1] = -2 L_0, so L_1 L_-1 = L_-1 L_1 - 2 L_0
    assert L(1) * L(-1) == Element(1, {(((-1, 1), (1, 1)),): 1, (((0, 1),),): -2})
    assert L(0) * L(0) == Element(1, {(((0, 2),),): 1})


def _l1_power_times_lm1(n):
    """L_1^n L_{-1} = L_{-1} L_1^n - 2n L_0 L_1^(n-1) + n(n-1) L_1^(n-1)."""

    def word(*w):
        return Element.from_mono(mono_of(w))

    ones = (1,) * (n - 1)
    return word(-1, 1, *ones) - 2 * n * word(0, *ones) + n * (n - 1) * word(*ones)


def test_straightening_a_long_monomial_does_not_recurse():
    # the closed form agrees with the worklist oracle on short words; with n
    # above the recursion limit, inserting L_{-1} into L_1^n is straightened
    # from an explicit work stack, not one call per letter
    for n in range(1, 8):
        assert Element.from_mono(((1, n),)) * L(-1) == normal_order([1] * n + [-1]) == _l1_power_times_lm1(n)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit, n = sys.getrecursionlimit(), depth + 150
    sys.setrecursionlimit(depth + 100)
    try:
        got = Element.from_mono(((1, n),)) * L(-1)
    finally:
        sys.setrecursionlimit(limit)
    assert got == _l1_power_times_lm1(n)


def test_multiply_associative_random():
    random.seed(6)
    for _ in range(40):
        words = [tuple(random.randint(-4, 4) for _ in range(random.randint(1, 3))) for _ in range(3)]
        x, y, z = (normal_order(w) for w in words)
        assert (x * y) * z == x * (y * z)


def test_bracket_of_elements_jacobi():
    for a in range(-5, 6, 2):
        for b in range(-3, 4, 3):
            for c in range(-5, 6, 5):
                x, y, z = L(a), L(b), L(c)
                jac = (
                    commutator(x, commutator(y, z))
                    + commutator(y, commutator(z, x))
                    + commutator(z, commutator(x, y))
                )
                assert jac.is_zero()


def test_commutator_matches_bracket_on_generators():
    for r in range(-4, 5):
        for s in range(-4, 5):
            assert commutator(L(r), L(s)) == bracket(r, s)


def test_ad_power_examples():
    x = Element(1, {(((2, 1), (3, 1)),): 2})
    assert ad_power(x, 0, 5) == x
    assert ad_power(L(2), 2, 1) == L(4)
    assert ad_power(L(0), 1, 2) == -4 * L(2)


def test_ad_power_closed_examples():
    assert ad_power_closed(7, 0, 3) == L(7)
    assert ad_power_closed(2, 2, 1) == L(4)
    assert ad_power_closed(0, 1, 2) == -4 * L(2)


def test_ad_power_matches_closed_form():
    for i in (1, 2, 3):
        for k in range(-6, 7):
            for l in range(7):
                assert ad_power(L(k), l, i) == ad_power_closed(k, l, i)


def test_ad_power_shifts_degree():
    for i in (1, 2):
        for k in (-3, 0, 2):
            for l in (1, 2, 3):
                out = ad_power(L(k), l, i)
                if not out.is_zero():
                    assert out.degree() == k + l * i


def test_h_rising_examples():
    # h_rising(d, a, l) = (h+a)^(l); char 0 at order 4
    assert h_rising(Deformation(0, 4, 3), 0, 0) == Element.one()
    assert h_rising(Deformation(0, 4, 2), 0, 1) == Fraction(1, 2) * L(0)
    assert h_rising(Deformation(0, 4, 1), 0, 2) == Element(1, {(((0, 2),),): 1, (((0, 1),),): 1})


def test_h_plus_one_rising():
    # (h+1)^(2) = (h+1)(h+2) = h^2 + 3h + 2 for i = 1
    got = h_rising(Deformation(0, 4, 1), 1, 2)
    want = Element(1, {(((0, 2),),): 1, (((0, 1),),): 3, ((),): 2})
    assert got == want
    assert rising(L(0) + 1, 2) == want


def test_grading():
    assert L(3).degree() == 3
    assert Element(1, {(((-1, 2), (4, 1)),): 1}).degree() == 2
    assert (L(1) + L(2)).degree() is None
    for _ in range(20):
        random.seed(_)
        a = normal_order([random.randint(-3, 3) for _ in range(2)])
        b = normal_order([random.randint(-3, 3) for _ in range(2)])
        da, db = a.degree(), b.degree()
        prod = a * b
        if da is not None and db is not None and not prod.is_zero():
            assert prod.degree() == da + db


def test_act_on_laurent_examples():
    assert act_on_laurent(1, 2) == (2, 3)
    assert act_on_laurent(7, 0) == (0, 7)
    assert act_on_laurent(-2, 5) == (5, 3)


def test_act_on_laurent_commutator_oracle():
    # operator composition on x^m recovers the defining structure constants
    for k in range(-4, 5):
        for l in range(-4, 5):
            for m in range(-6, 7):
                c1, e1 = act_on_laurent(l, m)
                c2, e2 = act_on_laurent(k, e1)
                d1, f1 = act_on_laurent(k, m)
                d2, f2 = act_on_laurent(l, f1)
                assert e2 == f2 == m + k + l
                lhs = c1 * c2 - d1 * d2
                want, exp = act_on_laurent(k + l, m)
                assert lhs == (l - k) * want and exp == m + k + l


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        L(0).tensor(L(1)) * L(2)


def test_element_str():
    assert str(L(-1) * Element(1, {(((2, 3),),): 1})) == "1 * L_{-1}*L_2^3"
    assert str(Element.zero()) == "0"
    assert str(Element.one()) == "1 * 1"


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_series_kernel_below_both_lengths_matches_pairwise_oracle(rank):
    # the ring hook itself, asked for fewer degrees than either operand has:
    # every kept coefficient is the oracle's pairwise Fraction sum
    rng = random.Random(130 + rank)
    for _ in range(6):
        a = [_random_element(rng, rank) if rng.random() < 0.8 else Element.zero(rank) for _ in range(rng.randint(3, 5))]
        b = [_random_element(rng, rank) if rng.random() < 0.8 else Element.zero(rank) for _ in range(rng.randint(3, 5))]
        n = rng.randint(1, min(len(a), len(b)) - 1)
        got = Element.zero(rank).series_mul(a, b, n)
        assert len(got) == n
        for d, coeff in enumerate(got):
            want = Element.zero(rank)
            for j in range(d + 1):
                want = want + oracle_mul(a[j], b[d - j])
            assert coeff == want
            _assert_reduced(coeff)
            # keys are canonical monomials, and the kernel's element equals
            # and hashes as the one the validating constructor builds
            assert all(len(key) == rank and all(map(is_normal, key)) for key in coeff.terms)
            built = Element(rank, dict(coeff.terms))
            assert coeff == built and hash(coeff) == hash(built)


def test_kernel_memo_is_keyed_on_monomial_ids():
    # a repeated product finds every monomial pair in the id-pair memo
    x = L(2) * L(-1) + Fraction(1, 3) * L(0)
    y = L(1) * L(1) - 2 * L(-3)
    first = x * y
    before = uwitt._id_mul.cache_info()
    assert x * y == first
    after = uwitt._id_mul.cache_info()
    assert after.hits >= before.hits + len(x.terms) * len(y.terms)
    assert after.misses == before.misses


def _random_mono(rng):
    ks = sorted(rng.sample(range(-4, 5), rng.randint(0, 3)))
    return tuple((k, rng.randint(1, 3)) for k in ks)


def _miss_product(a, b):
    """The memo-miss path of the kernel (_id_mul unmemoized) on the ids of
    the monomials a and b, read back as an element; each id it returns is
    listed once, with a nonzero integer constant, and names one ascending
    word and that word's run-length monomial in both id tables."""
    out = uwitt._id_mul.__wrapped__(uwitt._intern(a), uwitt._intern(b))
    assert len({i for i, _ in out}) == len(out)
    for i, c in out:
        mono, word = uwitt._MONOS[i], uwitt._WORDS[i]
        assert type(c) is int and c
        assert word == _word(mono) and is_normal(mono)
        assert uwitt._IDS[mono] == uwitt._WORD_IDS[word] == i
    return Element(1, {(uwitt._MONOS[i],): c for i, c in out})


def test_id_products_match_the_rewriting_oracle():
    # indices -4 .. 4 and exponents up to 3, the unit on either side, each
    # pair both ways; the leading monomials of ab and ba cancel in ab - ba.
    # The oracle's rewriting grows exponentially in the inversions, so a
    # pair has at most 8 letters
    rng = random.Random(31)
    pairs = [((), ()), ((), ((2, 3),)), (((-4, 3), (4, 1)), ()), (((1, 1),), ((-1, 1),))]
    while len(pairs) < 124:
        a, b = _random_mono(rng), _random_mono(rng)
        if len(_word(a) + _word(b)) <= 8:
            pairs.append((a, b))
    for a, b in pairs:
        ab, ba = _miss_product(a, b), _miss_product(b, a)
        assert ab == normal_order(_word(a) + _word(b)), (a, b)
        assert ba == normal_order(_word(b) + _word(a)), (b, a)
        leading = mono_of(tuple(sorted(_word(a) + _word(b))))
        assert ab.coeff((leading,)) == ba.coeff((leading,)) == 1
        assert (leading,) not in (ab - ba).terms
        # the memoized product is the unmemoized one
        assert uwitt._id_mul(uwitt._intern(a), uwitt._intern(b)) == uwitt._id_mul.__wrapped__(
            uwitt._intern(a), uwitt._intern(b)
        )
