"""Canonical JSON encoding of elements, series and reports.

Scalars are strings (exact decimal integer or "num/den") so nothing ever
rounds; a characteristic-0 monomial is a list of [index, exponent] pairs, a
characteristic-p monomial is its exponent vector; a tensor term is
{"coeff": ..., "factors": [monomial, ...]}, and a series/polynomial is a
{degree: term-list} map.  Term lists and degree keys are emitted in sorted
order, so identical inputs always produce byte-identical documents.  The
parsers refuse, with ValueError, a scalar not of that form, a negative degree
or one above the order, a degree or key given twice, a key whose factor count
is not the rank, and a characteristic-0 monomial not in PBW normal form.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .report import VerificationReport
from .restricted import ElementP
from .series import PolyP, Series
from .uwitt import Element


def scalar_str(c) -> str:
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return str(int(c))


def parse_scalar(s: str) -> Fraction:
    """A decimal integer or "num/den" string of the schema, nothing else."""
    if isinstance(s, str) and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", s):
        return Fraction(s)
    raise ValueError(f"scalar {s!r} is not a decimal integer or num/den string")


def element_doc(x) -> list:
    """Sorted term list for an Element or ElementP of any rank; json renders a
    monomial tuple as the list of the schema."""
    return [{"coeff": scalar_str(x.terms[key]), "factors": list(key)} for key in sorted(x.terms)]


def series_doc(s) -> dict:
    """Degree -> term-list map for a Series or PolyP."""
    return {str(d): element_doc(c) for d, c in enumerate(s.coeffs) if c.terms}


def _ints(doc):
    """A JSON monomial (nested arrays of integers) as tuples of ints."""
    return tuple(map(_ints, doc)) if isinstance(doc, list) else int(doc)


def _terms(doc: list, rank: int, scalar) -> dict:
    """The {key: coefficient} map of a term list, each key rank factors, once."""
    terms = {}
    for term in doc:
        key = _ints(term["factors"])
        if len(key) != rank:
            raise ValueError(f"key {key!r} has {len(key)} factors, not {rank}")
        if key in terms:
            raise ValueError(f"repeated key {key!r}")
        terms[key] = scalar(term["coeff"])
    return terms


def _coeffs(doc: dict, order, zero, parse) -> list:
    """The coefficients of a {degree: term-list} map: each degree at most once,
    in 0 .. order (any degree >= 0 when order is None)."""
    out = {}
    for d, terms in doc.items():
        n = int(d)
        if n < 0 or (order is not None and n > order):
            raise ValueError(f"degree {d} out of range")
        if n in out:
            raise ValueError(f"repeated degree {d}")
        out[n] = parse(terms)
    return [out.get(n, zero) for n in range(max(out, default=-1) + 1)]


def parse_element(doc: list, rank: int) -> Element:
    return Element(rank, _terms(doc, rank, parse_scalar))


def parse_element_p(doc: list, p: int, rank: int) -> ElementP:
    return ElementP(p, rank, _terms(doc, rank, int))


def parse_series(doc: dict, order: int, rank: int) -> Series:
    coeffs = _coeffs(doc, order, Element.zero(rank), lambda terms: parse_element(terms, rank))
    return Series(order, rank, coeffs)


def parse_poly(doc: dict, p: int, rank: int) -> PolyP:
    coeffs = _coeffs(doc, None, ElementP.zero(p, rank), lambda terms: parse_element_p(terms, p, rank))
    return PolyP(p, rank, coeffs)


def report_doc(rep: VerificationReport) -> dict:
    return rep.to_dict()


# the one stable rendering: fixed separators, no key re-sorting (documents are
# built in canonical order already)
_ENCODER = json.JSONEncoder(indent=2, ensure_ascii=False)


def dumps(doc) -> str:
    return _ENCODER.encode(doc) + "\n"


def dump(doc, stream) -> None:
    """Write dumps(doc) to stream chunk by chunk, never holding it whole."""
    stream.writelines(_ENCODER.iterencode(doc))
    stream.write("\n")
