"""Seeded property tests of the multiply kernels of both characteristics on
random elements of every rank they serve, and of the streamed JSON writer.
Derandomized with fixed small budgets, so every run draws the same
examples."""

import io
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittq import jsonio
from wittq.restricted import ElementP
from wittq.uwitt import Element

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def _elements(p: int, rank: int, n: int):
    """Strategy for n ElementPs of one rank over F_p: at most three terms each,
    every monomial a product of at most two generator powers."""
    mono = st.dictionaries(st.integers(0, p - 1), st.integers(1, p - 1), max_size=2).map(
        lambda exps: tuple(exps.get(j, 0) for j in range(p))
    )
    terms = st.dictionaries(st.tuples(*[mono] * rank), st.integers(1, p - 1), max_size=3)
    element = terms.map(lambda t: ElementP(p, rank, t))
    return st.tuples(*[element] * n)


@st.composite
def _triples(draw):
    p = draw(st.sampled_from((3, 5)))
    rank = draw(st.integers(1, 3))
    return draw(_elements(p, rank, 3))


@st.composite
def _split_pairs(draw):
    p = draw(st.sampled_from((3, 5)))
    left = draw(st.integers(1, 2))
    right = draw(st.integers(1, 3 - left))
    a, c = draw(_elements(p, left, 2))
    b, d = draw(_elements(p, right, 2))
    return a, b, c, d


@PROPERTY
@given(_triples())
def test_multiply_associative(xyz):
    x, y, z = xyz
    assert (x * y) * z == x * (y * z)


@PROPERTY
@given(_split_pairs())
def test_multiply_factorwise_on_tensors(abcd):
    a, b, c, d = abcd
    assert a.tensor(b) * c.tensor(d) == (a * c).tensor(b * d)


# -- characteristic 0: Fraction coefficients ------------------------------------


def _elements_q(rank: int, n: int):
    """Strategy for n Elements of one rank over Q: at most three terms each,
    every monomial a product of at most two generator powers, coefficients
    with small mixed-sign numerators and denominators."""
    mono = st.dictionaries(st.integers(-3, 3), st.integers(1, 2), max_size=2).map(lambda exps: tuple(sorted(exps.items())))
    coeff = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 6))
    terms = st.dictionaries(st.tuples(*[mono] * rank), coeff, max_size=3)
    element = terms.map(lambda t: Element(rank, t))
    return st.tuples(*[element] * n)


@st.composite
def _triples_q(draw):
    return draw(_elements_q(draw(st.integers(1, 3)), 3))


@st.composite
def _split_pairs_q(draw):
    left = draw(st.integers(1, 2))
    right = draw(st.integers(1, 3 - left))
    a, c = draw(_elements_q(left, 2))
    b, d = draw(_elements_q(right, 2))
    return a, b, c, d


@PROPERTY
@given(_triples_q())
def test_multiply_associative_q(xyz):
    x, y, z = xyz
    assert (x * y) * z == x * (y * z)


@PROPERTY
@given(_split_pairs_q())
def test_multiply_factorwise_on_tensors_q(abcd):
    a, b, c, d = abcd
    assert a.tensor(b) * c.tensor(d) == (a * c).tensor(b * d)


# -- the JSON writer -------------------------------------------------------------

_LEAVES = st.none() | st.booleans() | st.integers() | st.text()
_DOCS = st.recursive(_LEAVES, lambda docs: st.lists(docs) | st.dictionaries(st.text(), docs), max_leaves=40)
_DEEP = [{"ä": [[[[[[[[[[{}, [], "ε ⊗ 1"]]]]]]]]]]}]


@PROPERTY
@given(_DOCS)
@example(_DEEP)
def test_dump_streams_the_bytes_of_dumps(doc):
    stream = io.StringIO()
    jsonio.dump(doc, stream)
    assert stream.getvalue() == jsonio.dumps(doc)
