from fractions import Fraction
from functools import partial

import pytest

from wittq.series import (
    PolyP,
    Series,
    first_mismatch,
    gen_antipode,
    gen_coproduct,
    mono_antipode,
    mono_coproduct,
)
from wittq.uwitt import Element

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
    cp = partial(gen_coproduct, char, order, 1, None, None)
    ap = partial(gen_antipode, char, order, 1, None)
    assert mono_coproduct(char, order, 1, None, None, unit) == one(2)
    assert mono_antipode(char, order, 1, None, unit) == one(1)
    assert mono_coproduct(char, order, 1, None, None, g2) == cp(2)
    assert mono_antipode(char, order, 1, None, g2) == ap(2)
    assert mono_coproduct(char, order, 1, None, None, g12) == cp(1) * cp(2)
    assert mono_antipode(char, order, 1, None, g12) == ap(2) * ap(1)
