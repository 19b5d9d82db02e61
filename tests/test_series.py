import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement

import pytest

from wittq import restricted
from wittq.restricted import ElementP, one_mono
from wittq.scalars import FpElem
from wittq.series import (
    Deformation,
    PolyP,
    Series,
    _meet,
    delta0_mono,
    first_mismatch,
    gen_antipode,
    gen_coproduct,
    mono_antipode,
    mono_coproduct,
    run_checks,
    phi,
    phi_mono,
    s0_mono,
)
from wittq.tensor import commutator
from wittq.uwitt import Element, mono_of

L = Element.gen


def test_const_and_coeff():
    s = Series.const(L(2), 3)
    assert s.coeff(0) == L(2)
    assert s.coeff(1).is_zero()
    assert s.coeff(9).is_zero()


def test_arithmetic_and_shift():
    s = Series(2, 1, [L(0), L(1)])
    t = s.shift(1)
    assert t.coeff(0).is_zero()
    assert t.coeff(1) == L(0)
    assert t.coeff(2) == L(1)
    assert (s + s).coeff(1) == 2 * L(1)
    assert (s - s).is_zero()
    assert (s * 3).coeff(0) == 3 * L(0)
    assert (Fraction(1, 2) * s).coeff(0) == Fraction(1, 2) * L(0)


def test_multiplication_truncates():
    s = Series(2, 1, [Element.one(), L(1)])
    sq = s * s
    assert sq.coeff(0) == Element.one()
    assert sq.coeff(1) == 2 * L(1)
    assert sq.coeff(2) == L(1) * L(1)
    assert sq.order == 2


def test_invert_unit():
    one = Series.one(4, 2)
    assert one.invert() == one


def test_invert_geometric():
    # (1 - (L_1 x 1) t)^{-1} = sum (L_1^n x 1) t^n
    x = L(1).tensor(Element.one())
    f = Series.one(4, 2) - Series.const(x, 4).shift(1)
    inv = f.invert()
    for n in range(5):
        want = Element(2, {(((1, n),) if n else (), ()): 1})
        assert inv.coeff(n) == want
    assert f * inv == Series.one(4, 2)
    assert inv * f == Series.one(4, 2)


def test_invert_requires_unit_leading():
    with pytest.raises(ValueError):
        Series.const(L(1), 2).invert()


def test_first_mismatch_reports_degree_and_key():
    a = Series(2, 1, [L(0)])
    b = Series(2, 1, [L(0), L(3)])
    msg = first_mismatch(a, b)
    assert msg is not None and "t^1" in msg
    assert first_mismatch(a, a) is None


def _evaluate_per_degree(s, c):
    """The sum of c^d times the t^d coefficient, one element sum per degree."""
    out, power = s._zero, c**0
    for coeff in s.coeffs:
        out = out + power * coeff
        power = power * c
    return out


@pytest.mark.parametrize(
    "s, points",
    [
        (Series(3, 1, [L(1), L(2), 2 * L(1), L(-1)]), (0, 2, Fraction(-1, 3))),
        (Series(2, 2, [L(1).tensor(L(2)), Element.one(2), L(2).tensor(L(1))]), (0, 1, Fraction(3, 2))),
        (PolyP(5, 1, [ElementP.gen(1, 5), ElementP.gen(2, 5), 3 * ElementP.gen(1, 5)]), (0, 3, FpElem(4, 5))),
        (PolyP(5, 2, [ElementP.gen(1, 5).tensor(ElementP.one(5)), ElementP.one(5, 2)]), (0, 2, FpElem(2, 5))),
    ],
    ids=["Series-r1", "Series-r2", "PolyP-r1", "PolyP-r2"],
)
def test_evaluate_matches_per_degree_sum(s, points):
    for c in points:
        got = s.evaluate(c)
        assert got == _evaluate_per_degree(s, c)
        assert got.rank == s.rank
    assert s.evaluate(0) == s.coeff(0)


def test_evaluate_cancels_across_degrees():
    # D_1 + 4 D_1 t at t = 1 is 5 D_1 = 0; L_1 - L_1 t at t = 1 is 0
    assert PolyP(5, 1, [ElementP.gen(1, 5), 4 * ElementP.gen(1, 5)]).evaluate(1).is_zero()
    assert Series(2, 1, [L(1), -L(1)]).evaluate(1).is_zero()
    s = PolyP(5, 1, [ElementP.gen(1, 5), ElementP.gen(1, 5)])
    assert s.evaluate(FpElem(4, 5)).is_zero() and s.evaluate(4) == _evaluate_per_degree(s, 4)
    with pytest.raises(TypeError):
        Series(2, 1, [L(1)]).evaluate(FpElem(1, 5))


def test_sum_with_a_zero_series():
    # a zero that does not truncate hands back the other operand; one of
    # lower order truncates it; subtraction equals adding the negation
    s, z3, z1 = Series(3, 1, [L(1), L(2)]), Series.zero(3), Series.zero(1)
    assert s + z3 is s and z3 + s is s and s - z3 is s
    assert z3 - s == -s and s - s == z3
    assert s + z1 == z1 + s == s - z1 == Series(1, 1, [L(1), L(2)])
    assert (s - z1).order == 1
    f, zf = PolyP(5, 1, [ElementP.gen(1, 5), ElementP.gen(2, 5)]), PolyP.zero(5)
    assert f + zf is f and zf + f is f and f - zf is f
    assert zf - f == -f and (f - f).coeffs == ()
    assert f - 2 * f == f + (-2) * f


def test_swap():
    s = Series.const(L(1).tensor(L(2)), 1)
    assert s.swap().coeff(0) == L(2).tensor(L(1))


def test_series_of_different_rings_do_not_mix():
    from wittq.hopfp import PolyP

    s, f = Series.one(2, 1), PolyP.one(5, 1)
    for op in (lambda: s + f, lambda: s * f, lambda: f - s, lambda: f * s):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError):
        PolyP.one(7, 1) + f
    with pytest.raises(ValueError):
        f.invert()



@pytest.mark.parametrize("char, order", [(0, 3), (5, None)])
def test_mono_images_of_unit_and_generators(char, order):
    # the empty monomial maps to the unit series, a generator to its own image,
    # L_1 L_2 to Delta(L_1) Delta(L_2) and S(L_2) S(L_1)
    if char:
        unit, g2, g12 = (0,) * 5, (0, 0, 1, 0, 0), (0, 1, 1, 0, 0)
        one = partial(PolyP.one, char)
    else:
        unit, g2, g12 = (), ((2, 1),), ((1, 1), (2, 1))
        one = partial(Series.one, order)
    d = Deformation(char, order, 1)
    cp = partial(gen_coproduct, d)
    ap = partial(gen_antipode, d)
    assert mono_coproduct(d, unit) == one(2)
    assert mono_antipode(d, unit) == one(1)
    assert mono_coproduct(d, g2) == cp(2)
    assert mono_antipode(d, g2) == ap(2)
    assert mono_coproduct(d, g12) == cp(1) * cp(2)
    assert mono_antipode(d, g12) == ap(2) * ap(1)


# -- the series product -------------------------------------------------------


def oracle_mul(self, other):
    """self * other with one element product per pair of nonzero
    coefficients, the raw sums of each degree normalized once: the reference
    the series kernel is checked against."""
    other = self._promote(other)
    order = _meet(self.order, other.order)
    n = len(self.coeffs) + len(other.coeffs) - 1
    if order is not None:
        n = min(n, order + 1)
    acc = [{} for _ in range(max(n, 0))]
    for a, ca in enumerate(self.coeffs[:n]):
        if not ca.terms:
            continue
        for b, cb in enumerate(other.coeffs[: n - a]):
            if not cb.terms:
                continue
            tgt = acc[a + b]
            for key, v in (ca * cb).terms.items():
                tgt[key] = tgt.get(key, 0) + v
    zero = self._zero
    return self._like(order, self.rank, [zero.from_sums(self.rank, sums) for sums in acc])


def _mono(p, *runs):
    """The monomial with the given (index, exponent) runs."""
    exps = dict(runs)
    return tuple(exps.get(j, 0) for j in range(p))


def _random_key(rng, p, rank):
    key = []
    for _ in range(rank):
        mono = [0] * p
        for _ in range(rng.randint(0, 2)):
            mono[rng.randrange(p)] = rng.randrange(p)
        key.append(tuple(mono))
    return tuple(key)


def _random_poly(rng, p, rank, degree):
    """Coefficients of t^0 .. t^degree, about one in three of them zero
    below the top, the top nonzero; keys drawn from a small pool, so that one
    key recurs at several degrees."""
    pool = [_random_key(rng, p, rank) for _ in range(6)]
    coeffs = []
    for d in range(degree + 1):
        if d < degree and rng.random() < 0.35:
            coeffs.append(ElementP.zero(p, rank))
            continue
        terms = {key: rng.randrange(1, p) for key in rng.sample(pool, rng.randint(1, 4))}
        coeffs.append(ElementP(p, rank, terms))
    return PolyP(p, rank, coeffs)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_series_product_matches_pairwise_oracle(p, rank):
    rng = random.Random(100 * p + rank)
    for _ in range(8):
        x = _random_poly(rng, p, rank, rng.randint(0, 3))
        y = _random_poly(rng, p, rank, rng.randint(0, 3))
        assert x * y == oracle_mul(x, y)
        assert y * x == oracle_mul(y, x)

    u, d1, d12 = one_mono(p), _mono(p, (1, 1)), _mono(p, (1, 1), (2, 1))
    tail = (u,) * (rank - 1)
    x = PolyP(p, rank, [ElementP.one(p, rank), ElementP.zero(p, rank), ElementP(p, rank, {(d1,) + tail: 2})])
    # zeros between nonzero degrees on both sides, the key d1 at degrees 0 and
    # 3 and d12 at 1 and 3, and the first-slot word of d1 a proper prefix of
    # the word of d12, which sits at another degree
    y = PolyP(
        p,
        rank,
        [
            ElementP(p, rank, {(d1,) + tail: 1, (u,) * rank: 1}),
            ElementP(p, rank, {(d12,) + tail: p - 1}),
            ElementP.zero(p, rank),
            ElementP(p, rank, {(d1,) + tail: 1, (d12,) + tail: 2}),
        ],
    )
    assert x * y == oracle_mul(x, y)
    assert y * x == oracle_mul(y, x)
    assert (x * y).degree == 5


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_series_product_prunes_a_cancelled_top_degree(p, rank):
    # D_1^(p-1) D_1 = D_1^p = 0, so (1 + D_1^(p-1) t)(1 + D_1 t) has degree 1
    tail = (one_mono(p),) * (rank - 1)
    one = ElementP.one(p, rank)
    x = PolyP(p, rank, [one, ElementP(p, rank, {(_mono(p, (1, p - 1)),) + tail: 1})])
    y = PolyP(p, rank, [one, ElementP(p, rank, {(_mono(p, (1, 1)),) + tail: 1})])
    prod = x * y
    assert prod == oracle_mul(x, y)
    assert prod.degree == 1
    assert len(prod.coeffs) == 2


def test_series_product_still_checks_ring_and_rank():
    f = PolyP.one(5, 1)
    for other in (PolyP.one(5, 2), PolyP.one(3, 1), ElementP.one(5, 2), ElementP.one(7, 1)):
        with pytest.raises(ValueError):
            f * other
    with pytest.raises(TypeError):
        f * Series.one(2, 1)


def test_truncated_series_product_matches_pairwise_oracle():
    # the shared per-degree-pair hook, cut at the order
    s = Series(3, 2, [L(1).tensor(L(2)), Element.one(2), Element.zero(2), L(-1).tensor(Element.one())])
    for a, b in ((s, s), (s, s.swap()), (s.shift(2), s)):
        assert a * b == oracle_mul(a, b)


@pytest.mark.parametrize(
    "x",
    [L(1), ElementP.gen(1, 5), PolyP.const(ElementP.gen(1, 5)), Series.const(L(1), 2)],
    ids=["Element", "ElementP", "PolyP", "Series"],
)
def test_negative_powers_raise(x):
    assert x**1 == x
    with pytest.raises(ValueError):
        x**-1
    with pytest.raises(ValueError):
        x**-2


@pytest.mark.parametrize(
    "x, unit",
    [
        (L(1) + 2 * L(-1), Element.one()),
        (ElementP.gen(1, 5) + 2 * ElementP.gen(3, 5), ElementP.one(5)),
        (PolyP(5, 1, [ElementP.gen(1, 5), ElementP.gen(2, 5)]), PolyP.one(5)),
        (Series(2, 1, [L(1), L(0)]), Series.one(2)),
    ],
    ids=["Element", "ElementP", "PolyP", "Series"],
)
def test_small_powers(x, unit):
    assert x**0 == unit
    assert x**1 == x
    assert x**3 == x * x * x


def test_series_product_packs_each_left_coefficient_once(monkeypatch):
    # warm the structure-map memo, then count the kernel steps of one product
    p = 5
    d2 = gen_coproduct(Deformation(p, None, 1), 2)
    want = d2 * d2
    nonzero = [c for c in d2.coeffs if c.terms]
    assert len(nonzero) > 1
    calls = {"trie": [], "left": [], "pack": 0}
    trie, left, pack = restricted._trie, restricted._left, restricted._pack

    def counted_trie(series, rank):
        calls["trie"].append(rank)
        return trie(series, rank)

    def counted_left(terms, rank):
        calls["left"].append(rank)
        return left(terms, rank)

    def counted_pack(mono, p):
        calls["pack"] += 1
        return pack(mono, p)

    def no_element_mul(self, other):
        raise AssertionError("a series product went through ElementP.__mul__")

    monkeypatch.setattr(restricted, "_trie", counted_trie)
    monkeypatch.setattr(restricted, "_left", counted_left)
    monkeypatch.setattr(restricted, "_pack", counted_pack)
    monkeypatch.setattr(ElementP, "__mul__", no_element_mul)
    assert d2 * d2 == want
    # one right trie for all the degrees of the right factor, and each nonzero
    # left coefficient packed and grouped once; per degree pair it was
    # len(nonzero) ** 2 of each
    assert calls["trie"].count(2) == 1
    assert calls["left"].count(2) == len(nonzero)
    assert calls["pack"] == 2 * sum(len(c.terms) for c in nonzero)


def test_series_product_applies_each_last_letter_once_per_label(monkeypatch):
    # the right factor's words: D_a D_4 for a = 0 .. 3 and D_0 D_1 D_4 at
    # t^0, D_a D_4 for a = 0 .. 2 at t^1; five leaves end in D_4, under five
    # inner nodes (D_0 .. D_3, D_0 D_1) and two labels (the degrees)
    p = 5
    words = [_mono(p, (a, 1), (4, 1)) for a in range(4)] + [_mono(p, (0, 1), (1, 1), (4, 1))]
    deg0 = ElementP(p, 1, {(w,): 1 + n % 3 for n, w in enumerate(words)})
    deg1 = ElementP(p, 1, {(w,): 2 for w in words[:3]})
    y = PolyP(p, 1, [deg0, deg1])
    x = PolyP.const(ElementP.one(p) + ElementP.gen(4, p))
    want = x * y  # warms the memo
    assert want == oracle_mul(x, y)
    passes = []
    times_gen = restricted._times_gen

    def counted(acc, g, p):
        passes.append(g)
        return times_gen(acc, g, p)

    monkeypatch.setattr(restricted, "_times_gen", counted)
    assert x * y == want
    # one D_4 pass per label, not one per leaf word; one pass per inner node
    assert passes.count(4) == 2
    assert len(passes) == 5 + 2


# -- the injected fault ---------------------------------------------------------


@pytest.mark.parametrize("char, order", [(0, 3), (5, None)])
def test_fault_must_name_a_summand(char, order):
    # the summed degrees are 0 .. order in characteristic 0, 0 .. p-1 in
    # characteristic p: both ends are faults, one past either end is refused
    top = 3 if char == 0 else 4
    for fault in (0, top):
        assert Deformation(char, order, 1, fault=fault).fault == fault
    for fault in (-1, top + 1, 99):
        with pytest.raises(ValueError, match="names no summand"):
            Deformation(char, order, 1, fault=fault)


def test_fault_is_kept_by_at_and_left_out_of_point():
    d = Deformation(5, None, 2, fault=1)
    assert d.at(3).fault == 1 and d.at(3).at(None) == d
    assert d.at(3).point == Deformation(5, None, 2, 3).point
    assert Deformation(0, 3, 1, fault=2).point == Deformation(0, 3, 1).point


@pytest.mark.parametrize("char, order", [(0, 3), (5, None)])
def test_faulty_map_stays_out_of_the_clean_memo_entry(char, order):
    # the faulty value is computed first, so a fault that compared and hashed
    # like no fault would hand it back for the clean deformation
    clean, faulty = Deformation(char, order, 1), Deformation(char, order, 1, fault=1)
    changed = 0
    for k in range(-1, 3):
        ((mono,),) = clean.gen(k).terms
        bad, bad_mono = gen_coproduct(faulty, k), mono_coproduct(faulty, mono)
        good = gen_coproduct.__wrapped__(clean, k)
        assert gen_coproduct(clean, k) == mono_coproduct(clean, mono) == good
        assert bad == bad_mono
        changed += bad != good
    assert changed


def test_sigma_in_characteristic_0():
    # sigma = phi_-1: L_k -> -L_{-k} is an automorphism of U(W) and carries direction i to -i
    d = Deformation(0, 0, 1)

    def sig(x):
        return phi(d, -1, d.series(x.rank, [x])).coeff(0)

    for a in range(-3, 4):
        assert sig(L(a)) == -L(-a)
        for b in range(-3, 4):
            assert sig(commutator(L(a), L(b))) == commutator(sig(L(a)), sig(L(b)))
    for i in (1, 2, 3):
        d, mirror = Deformation(0, 4, i), Deformation(0, 4, -i)
        for k in range(-3, 4):
            assert phi(d, -1, gen_coproduct(d, k)) == -gen_coproduct(mirror, -k), (i, k)
            assert phi(d, -1, gen_antipode(d, k)) == -gen_antipode(mirror, -k), (i, k)


@pytest.mark.parametrize("m", (2, -2, 3))
def test_phi_in_characteristic_0(m):
    # phi_m: L_k -> m^-1 L_{mk} is an injective Lie map of W, and it carries
    # direction i at m^2 t to direction mi at t, up to t^order
    d = Deformation(0, 3, 1)

    def image(x):
        return phi(d, m, d.series(x.rank, [x])).coeff(0)

    def rescaled(s):
        return s._like(s.order, s.rank, [c * Fraction(m) ** (2 * n) for n, c in enumerate(s.coeffs)])

    for a in range(-3, 4):
        assert image(L(a)) == Fraction(1, m) * L(m * a)
        for b in range(-3, 4):
            assert image(commutator(L(a), L(b))) == commutator(image(L(a)), image(L(b)))
    for i in (1, 2, -1):
        d, target = Deformation(0, 3, i), Deformation(0, 3, m * i)
        for k in range(-2, 3):
            assert phi(d, m, rescaled(gen_coproduct(d, k))) == gen_coproduct(target, m * k) * Fraction(1, m), (i, k)
            assert phi(d, m, rescaled(gen_antipode(d, k))) == gen_antipode(target, m * k) * Fraction(1, m), (i, k)


def test_run_checks_enters_each_verdict_once_per_mode():
    # one pass at symbolic t serves every mode, in request order: a recorded
    # verdict is entered as it is, a checked identity is judged at each
    # mode's t; a residue-only request runs the block once too, at symbolic t
    p, one = 5, ElementP.one(5)
    passes = []

    def block(verdicts, d):
        passes.append(d.t)
        verdicts.record("recorded", d.point, False, "no t in it")
        verdicts.check("t-is-one", d.point, PolyP(p, 1, [ElementP.zero(p), one]), PolyP.const(one))

    rep = run_checks(Deformation(p, None, 2), (None, 1, 2), block)
    assert passes == [None]
    assert [(e.identity, dict(e.params)["t"], e.passed) for e in rep.entries] == [
        ("recorded", "symbolic", False),
        ("t-is-one", "symbolic", False),
        ("recorded", "1", False),
        ("t-is-one", "1", True),
        ("recorded", "2", False),
        ("t-is-one", "2", False),
    ]
    assert [e.witness for e in rep.entries if e.identity == "recorded"] == ["no t in it"] * 3

    passes.clear()
    rep = run_checks(Deformation(p, None, 2), (1, 7), block)
    assert passes == [None]
    assert [(e.identity, dict(e.params)["t"], e.passed) for e in rep.entries] == [
        ("recorded", "1", False),
        ("t-is-one", "1", True),
        ("recorded", "2", False),
        ("t-is-one", "2", False),
    ]


# -- the multiplicative extension to monomials ----------------------------------


def _image_by_generators(d, word, gen, anti):
    """The image of the monomial with ascending word under the algebra
    morphism (antimorphism, when anti is set) that sends x_k to the series
    gen(d, k), multiplied generator by generator: the reference the
    prefix-built extension is checked against."""
    out = None
    for k in reversed(word) if anti else word:
        g = gen(d, k)
        out = g if out is None else out * g
    return out


def _delta0_gen(d, k):
    one = d.zero.one_of(1)
    return d.series(2, [d.gen(k).tensor(one) + one.tensor(d.gen(k))])


# each monomial map with the generator map it extends and whether it is an
# antimorphism: Delta, S, Delta_0: x_k -> x_k (x) 1 + 1 (x) x_k, S_0: x_k ->
# -x_k, sigma = phi_-1: x_k -> -x_{-k} and phi_2: x_k -> x_{2k} / 2
EXTENSIONS = [
    (mono_coproduct, gen_coproduct, False),
    (mono_antipode, gen_antipode, True),
    (delta0_mono, _delta0_gen, False),
    (s0_mono, lambda d, k: d.series(1, [-d.gen(k)]), True),
    (phi_mono(-1), lambda d, k: d.series(1, [-d.gen(-k)]), False),
    (phi_mono(2), lambda d, k: d.series(1, [Fraction(1, 2) * d.gen(2 * k)]), False),
]


def _mono_of_word(d, word):
    if d.char:
        return tuple(word.count(j) for j in range(d.char))
    return mono_of(word)


@pytest.mark.parametrize(
    "d, gens, longest",
    [
        (Deformation(0, 3, 1), range(-1, 3), 4),
        (Deformation(0, 3, 2), range(-1, 3), 4),
        (Deformation(3, None, 1), range(3), 4),
        (Deformation(3, None, 2, t=2), range(3), 4),
        (Deformation(5, None, 2), range(5), 3),
        (Deformation(5, None, 1, t=3), range(5), 3),
    ],
    ids=["c0-i1", "c0-i2", "p3", "p3-t2", "p5", "p5-t3"],
)
def test_prefix_extension_matches_generator_products(d, gens, longest):
    # every monomial up to the given length, longest first so that images are
    # built through several unmemoized parts, clean and with one fault, under
    # each monomial map of EXTENSIONS
    words = [w for n in range(longest, 0, -1) for w in combinations_with_replacement(gens, n)]
    for dd in (d, replace(d, fault=1)):
        for word in words:
            mono = _mono_of_word(dd, word)
            for mono_map, gen, anti in EXTENSIONS:
                assert mono_map(dd, mono) == _image_by_generators(dd, word, gen, anti), (mono_map.__name__, word)


def test_extension_of_a_long_monomial_does_not_recurse():
    # L_1^n with n above the recursion limit: its image is built in a loop
    # over its letters, not one call per letter, under all five monomial maps
    d = Deformation(0, 0, 1)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit, n = sys.getrecursionlimit(), depth + 150
    sys.setrecursionlimit(depth + 100)
    try:
        cp, ap = mono_coproduct(d, ((1, n),)), mono_antipode(d, ((1, n),))
        d0, s0, sg = delta0_mono(d, ((1, n),)), s0_mono(d, ((1, n),)), phi_mono(-1)(d, ((1, n),))
    finally:
        sys.setrecursionlimit(limit)
    one, x = Element.one(), L(1)
    assert cp.coeff(0) == d0.coeff(0) == (x.tensor(one) + one.tensor(x)) ** n
    assert ap.coeff(0) == s0.coeff(0) == (-x) ** n
    assert sg.coeff(0) == (-L(-1)) ** n
