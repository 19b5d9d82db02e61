"""The sparse tensor layer both characteristics share: products of tensors,
and the ring that every element carries."""

import random
from fractions import Fraction
from functools import reduce

import pytest

from wittq.restricted import ElementP
from wittq.scalars import FpElem
from wittq.uwitt import Element


def _random_element_0(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        ks = sorted(rng.sample(range(-2, 3), rng.randint(0, 2)))
        terms[(tuple((k, rng.randint(1, 2)) for k in ks),)] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return Element(1, terms)


def _random_element_p(rng, p):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        v = [0] * p
        for _ in range(rng.randint(0, 3)):
            v[rng.randrange(p)] = rng.randint(1, 3)
        terms[(tuple(v),)] = rng.randrange(1, p)
    return ElementP(p, 1, terms)


RANDOM_ELEMENT = {
    "Q": _random_element_0,
    "F5": lambda rng: _random_element_p(rng, 5),
    "F7": lambda rng: _random_element_p(rng, 7),
}


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("ring", sorted(RANDOM_ELEMENT))
def test_tensor_products_multiply_factorwise(ring, rank):
    # (a (x) b (x) ...) * (c (x) d (x) ...) == (a c) (x) (b d) (x) ...
    rng = random.Random(41 + rank)
    make = RANDOM_ELEMENT[ring]
    for _ in range(10):
        xs = [make(rng) for _ in range(rank)]
        ys = [make(rng) for _ in range(rank)]
        lhs = reduce(lambda a, b: a.tensor(b), xs) * reduce(lambda a, b: a.tensor(b), ys)
        rhs = reduce(lambda a, b: a.tensor(b), [x * y for x, y in zip(xs, ys)])
        assert lhs.rank == rank
        assert lhs == rhs


def test_elements_of_different_rings_differ():
    q, f5, f7 = Element.zero(1), ElementP.zero(5, 1), ElementP.zero(7, 1)
    assert q != f5
    assert f5 != f7
    assert hash(q) != hash(f5)
    assert hash(f5) != hash(f7)
    assert len({q, f5, f7, Element.zero(1)}) == 3


@pytest.mark.parametrize(
    "x, y",
    [
        (Element.gen(1), ElementP.gen(1, 5)),
        (ElementP.gen(1, 5), Element.gen(1)),
        (ElementP.gen(1, 5), ElementP.gen(1, 7)),
    ],
)
def test_operations_across_rings_raise(x, y):
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x.tensor(y)):
        with pytest.raises(ValueError, match="mismatched rings"):
            op()


D1_KEY_5 = next(iter(ElementP.gen(1, 5).terms))


def test_constructor_reads_a_fraction_as_its_residue():
    # 1/2 is 3 mod 5 in the constructor as in a scalar product
    assert ElementP(5, 1, {D1_KEY_5: Fraction(1, 2)}) == Fraction(1, 2) * ElementP.gen(1, 5) == 3 * ElementP.gen(1, 5)
    assert ElementP(5, 1, {D1_KEY_5: FpElem(2, 5)}) == 2 * ElementP.gen(1, 5)
    with pytest.raises(ValueError, match="not p-integral"):
        ElementP(5, 1, {D1_KEY_5: Fraction(1, 5)})
    with pytest.raises(ValueError, match="mismatched moduli"):
        ElementP(5, 1, {D1_KEY_5: FpElem(1, 7)})


def test_constructor_refuses_a_float_coefficient_mod_p():
    with pytest.raises(TypeError):
        ElementP(5, 1, {D1_KEY_5: 2.9})


def test_constructor_refuses_a_float_coefficient_in_characteristic_0():
    key = next(iter(Element.gen(1).terms))
    with pytest.raises(TypeError):
        Element(1, {key: 0.1})
    with pytest.raises(TypeError):
        Element.from_mono(key[0], 0.1)
    assert Element(1, {key: Fraction(1, 10)}) == Fraction(1, 10) * Element.gen(1)


def test_scalars_of_another_ring_raise():
    with pytest.raises(ValueError):
        FpElem(1, 7) * ElementP.gen(1, 5)
    with pytest.raises(ValueError):
        ElementP.gen(1, 5) + FpElem(1, 7)
    with pytest.raises(TypeError):
        FpElem(1, 5) * Element.gen(1)


@pytest.mark.parametrize("char", [0, 5])
def test_subtraction_and_zero_operands(char):
    # x - y subtracts directly and equals x + (-y), cancelled keys dropped;
    # a zero operand hands back the other one, and ring and rank still count
    rng = random.Random(20 + char)
    make = _random_element_0 if char == 0 else lambda rng: _random_element_p(rng, 5)
    zero = Element.zero() if char == 0 else ElementP.zero(5)
    for _ in range(20):
        x, y = make(rng), make(rng)
        assert x - y == x + (-y)
        assert (x - x).is_zero() and (x - x).terms == {}
        assert x + zero is x and zero + x is x and x - zero is x
        assert zero - x == -x
    with pytest.raises(ValueError):
        x + zero.zero_of(2)
    with pytest.raises(ValueError):
        x - (Element.zero() if char else ElementP.zero(5))
