"""Canonical JSON encoding of elements, series and reports.

Scalars are strings (exact decimal integer or "num/den") so nothing ever
rounds; a characteristic-0 monomial is a list of [index, exponent] pairs, a
characteristic-p monomial is its exponent vector; a tensor term is
{"coeff": ..., "factors": [monomial, ...]}, and a series/polynomial is a
{degree: term-list} map.  Term lists and degree keys are emitted in sorted
order, so identical inputs always produce byte-identical documents.
"""

from __future__ import annotations

import json
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
    return Fraction(s)


def mono0_doc(mono) -> list:
    return [[k, m] for k, m in mono]


def monop_doc(mono) -> list:
    return list(mono)


def element_doc(x) -> list:
    """Sorted term list for an Element or ElementP of any rank."""
    char_p = isinstance(x, ElementP)
    out = []
    for key in sorted(x.terms):
        factors = [monop_doc(m) if char_p else mono0_doc(m) for m in key]
        out.append({"coeff": scalar_str(x.terms[key]), "factors": factors})
    return out


def series_doc(s) -> dict:
    """Degree -> term-list map for a Series or PolyP."""
    out = {}
    for d, c in enumerate(s.coeffs):
        if not c.terms:
            continue
        out[str(d)] = element_doc(c)
    return out


def parse_element(doc: list, rank: int) -> Element:
    terms = {}
    for term in doc:
        key = tuple(tuple((int(k), int(m)) for k, m in mono) for mono in term["factors"])
        terms[key] = parse_scalar(term["coeff"])
    return Element(rank, terms)


def parse_element_p(doc: list, p: int, rank: int) -> ElementP:
    terms = {}
    for term in doc:
        key = tuple(tuple(int(e) for e in mono) for mono in term["factors"])
        terms[key] = int(term["coeff"])
    return ElementP(p, rank, terms)


def parse_series(doc: dict, order: int, rank: int) -> Series:
    coeffs = [Element.zero(rank) for _ in range(order + 1)]
    for d, terms in doc.items():
        coeffs[int(d)] = parse_element(terms, rank)
    return Series(order, rank, coeffs)


def parse_poly(doc: dict, p: int, rank: int) -> PolyP:
    top = max((int(d) for d in doc), default=-1)
    coeffs = [ElementP.zero(p, rank) for _ in range(top + 1)]
    for d, terms in doc.items():
        coeffs[int(d)] = parse_element_p(terms, p, rank)
    return PolyP(p, rank, coeffs)


def report_doc(rep: VerificationReport) -> dict:
    return rep.to_dict()


def dumps(doc) -> str:
    """Stable rendering: fixed separators, no key re-sorting (documents are
    built in canonical order already), trailing newline."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
