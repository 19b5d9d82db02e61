"""Canonical JSON encoding of elements, series and reports.

Scalars are strings (exact decimal integer or "num/den") so nothing ever
rounds; a characteristic-0 monomial is a list of [index, exponent] pairs, a
characteristic-p monomial is its exponent vector; a tensor term is
{"coeff": ..., "factors": [monomial, ...]}, and a series/polynomial is a
{degree: term-list} map.  Term lists and degree keys are emitted in sorted
order, so identical inputs always produce byte-identical documents.

One writer renders every document: dump streams it in bounded chunks and
dumps returns the same text.  Its bytes are exactly
json.dumps(doc, indent=2, ensure_ascii=False) followed by a newline (tests
hold it to the stdlib encoder), for documents of str, int, bool, None, lists,
tuples and dicts with str keys; any other value, a float, a set or a non-str
key among them, is a TypeError.

The parsers accept only what the writer emits and refuse, with ValueError, a
document of another shape (a series not an object, a term list not an array,
a term not an object of exactly coeff and factors, a key not nested as deep
as its characteristic's monomials), a char-0 scalar not written as
scalar_str writes it, a char-p coefficient not a nonzero residue so written,
a zero coefficient, a degree with no terms, a factor entry not a JSON integer
(a bool or float included), a degree key not written as series_doc writes
it or above the order, a key given twice, a key whose factor count is not
the rank, and a characteristic-0 monomial not in PBW normal form.
"""

from __future__ import annotations

import io
import re
from fractions import Fraction
from json.encoder import encode_basestring  # the C function where it is built

from .report import VerificationReport
from .restricted import ElementP
from .series import PolyP, Series
from .uwitt import Element


def scalar_str(c) -> str:
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return str(int(c))


def _read(s, pattern: str, read, what: str):
    """read(s) if s is a string matching pattern that scalar_str writes back."""
    c = read(s) if isinstance(s, str) and re.fullmatch(pattern, s) else None
    if c is None or scalar_str(c) != s:
        raise ValueError(f"{what} {s!r} is not written as the schema writes it")
    return c


def parse_scalar(s: str) -> Fraction:
    """A decimal integer or "num/den" string as scalar_str writes it, nothing else."""
    return _read(s, r"-?[0-9]+(/[1-9][0-9]*)?", Fraction, "scalar")


def element_doc(x) -> list:
    """Sorted term list for an Element or ElementP of any rank; dump renders
    a monomial tuple as the list of the schema."""
    return [{"coeff": scalar_str(x.terms[key]), "factors": list(key)} for key in sorted(x.terms)]


def series_doc(s) -> dict:
    """Degree -> term-list map for a Series or PolyP."""
    return {str(d): element_doc(c) for d, c in enumerate(s.coeffs) if c.terms}


def _ints(doc, depth: int):
    """A JSON key (arrays nested depth deep around integers) as tuples of
    ints; any other shape or entry, a bool or a float included, is a
    ValueError."""
    if depth:
        if not isinstance(doc, list):
            raise ValueError(f"factor entry {doc!r} is not an array")
        return tuple(_ints(x, depth - 1) for x in doc)
    if type(doc) is int:
        return doc
    raise ValueError(f"factor entry {doc!r} is not an integer")


def _terms(doc: list, rank: int, scalar, depth: int) -> dict:
    """The {key: coefficient} map of a term list, each term an object of
    exactly coeff and factors, each key rank factors (see _ints), once."""
    if not isinstance(doc, list):
        raise ValueError(f"term list {doc!r} is not an array")
    terms = {}
    for term in doc:
        if not isinstance(term, dict) or term.keys() != {"coeff", "factors"}:
            raise ValueError(f"term {term!r} is not an object of coeff and factors")
        key = _ints(term["factors"], depth)
        if len(key) != rank:
            raise ValueError(f"key {key!r} has {len(key)} factors, not {rank}")
        if key in terms:
            raise ValueError(f"repeated key {key!r}")
        terms[key] = scalar(term["coeff"])
        if not terms[key]:
            raise ValueError(f"zero coefficient at {key!r}")
    return terms


def _coeffs(doc: dict, order, zero, parse) -> list:
    """The coefficients of a {degree: term-list} map, each degree key in the
    form series_doc writes (so no degree is given twice) and at most order
    (any degree when order is None)."""
    if not isinstance(doc, dict):
        raise ValueError(f"series {doc!r} is not an object")
    out = {}
    for d, terms in doc.items():
        n = _read(d, "[0-9]+", int, "degree")
        if order is not None and n > order:
            raise ValueError(f"degree {d} out of range")
        out[n] = parse(terms)
        if not out[n].terms:
            raise ValueError(f"degree {d} has no terms")
    return [out.get(n, zero) for n in range(max(out, default=-1) + 1)]


def parse_element(doc: list, rank: int) -> Element:
    # a key is rank monomials, each a list of [index, exponent] pairs
    return Element(rank, _terms(doc, rank, parse_scalar, 3))


def parse_element_p(doc: list, p: int, rank: int) -> ElementP:
    # a key is rank exponent vectors, a coefficient a residue as scalar_str writes it
    return ElementP(p, rank, _terms(doc, rank, lambda c: _read(c, "[0-9]+", lambda s: int(s) % p, "coefficient"), 2))


def parse_series(doc: dict, order: int, rank: int) -> Series:
    coeffs = _coeffs(doc, order, Element.zero(rank), lambda terms: parse_element(terms, rank))
    return Series(order, rank, coeffs)


def parse_poly(doc: dict, p: int, rank: int) -> PolyP:
    coeffs = _coeffs(doc, None, ElementP.zero(p, rank), lambda terms: parse_element_p(terms, p, rank))
    return PolyP(p, rank, coeffs)


def report_doc(rep: VerificationReport) -> dict:
    return rep.to_dict()


# Pieces held before one write, whatever the document's shape, so the text in
# memory stays small: with 65,536 the peak RSS of `wittq tables --p 19` was
# 41.7 MB against 36.1 MB, for no gain in wall time.
_CHUNK = 1024


def dump(doc, stream) -> None:
    """Write json.dumps(doc, indent=2, ensure_ascii=False) and a newline to
    stream, _CHUNK pieces per write, never holding the whole text.  A tuple is
    rendered once per indent and call, keyed on its identity (a monomial
    recurs across terms; equal tuples may differ, as (1,) == (True,)), into
    its own pieces, so no write splits it."""
    pieces, done = [], {}

    def put(x, indent, out):
        if isinstance(x, str):
            out.append(encode_basestring(x))
        elif x is None:
            out.append("null")
        elif x is True:
            out.append("true")
        elif x is False:
            out.append("false")
        elif isinstance(x, int):
            out.append(int.__repr__(x))
        elif isinstance(x, tuple):
            key = (id(x), indent)
            if key not in done:
                part = []
                put(list(x), indent, part)
                done[key] = "".join(part)
            out.append(done[key])
        elif isinstance(x, (list, dict)) and not x:
            out.append("[]" if isinstance(x, list) else "{}")
        elif isinstance(x, list):
            inner = indent + "  "
            sep = "[" + inner
            for v in x:
                out.append(sep)
                put(v, inner, out)
                sep = "," + inner
            out.append(indent + "]")
        elif isinstance(x, dict):
            inner = indent + "  "
            sep = "{" + inner
            for k, v in x.items():
                if not isinstance(k, str):
                    raise TypeError(f"key {k!r} is not a string")
                out.append(sep + encode_basestring(k) + ": ")
                put(v, inner, out)
                sep = "," + inner
            out.append(indent + "}")
        else:
            raise TypeError(f"{type(x).__name__} {x!r} has no JSON form in the schema")
        if len(out) >= _CHUNK and out is pieces:
            stream.write("".join(out))
            out.clear()

    put(doc, "\n", pieces)
    pieces.append("\n")
    stream.write("".join(pieces))


def dumps(doc) -> str:
    """The text dump(doc) writes."""
    stream = io.StringIO()
    dump(doc, stream)
    return stream.getvalue()
