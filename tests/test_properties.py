"""Seeded property tests of the multiply kernels of both characteristics on
random elements of every rank they serve, and of the streamed JSON writer.
Derandomized with fixed small budgets, so every run draws the same
examples."""

import io
import json
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittq import cli, jsonio
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


def _tables_doc(p: int) -> dict:
    """The document `wittq tables --p p --i 1` writes, as the CLI builds it."""
    docs = []
    with mock.patch.object(jsonio, "dump", lambda doc, stream: docs.append(doc)):
        cli.main(["tables", "--p", str(p), "--i", "1", "--out", os.devnull])
    return docs[0]


_TEXT = st.text(st.sampled_from('"\\/\b\n\t\x00\x1f\x7f\u2028ä𝔽') | st.characters(), max_size=6)
_ORACLE_LEAVES = st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _TEXT
_TREES = st.recursive(
    _ORACLE_LEAVES,
    lambda docs: st.lists(docs) | st.lists(docs).map(tuple) | st.dictionaries(_TEXT, docs),
    max_leaves=40,
)


@st.composite
def _shared_tuple(draw):
    """One tuple object at three depths of a document."""
    t = draw(st.lists(_TREES, max_size=4).map(tuple))
    return [t, [t, {"t": t}], draw(_TREES)]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_TREES | _shared_tuple())
@example(_tables_doc(5))
@example([0, ({"big": [0, True, -1] * jsonio._CHUNK},)])  # a tuple past one write
@example([(1, 0), (True, False), [1, True]])  # equal tuples, different text
def test_writer_matches_the_stdlib_encoder(doc):
    oracle = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    stream = io.StringIO()
    jsonio.dump(doc, stream)
    assert stream.getvalue() == jsonio.dumps(doc) == oracle


@pytest.mark.parametrize(
    "doc",
    [1.5, [0, 0.0], {1, 2}, Fraction(1, 2), {"a": {1: "b"}}, [(1,), (1.0,)]],
    ids=["float", "float-in-list", "set", "fraction", "int-key", "float-tuple-equal-to-int-tuple"],
)
def test_writer_refuses_types_outside_the_schema(doc):
    with pytest.raises(TypeError):
        jsonio.dumps(doc)
