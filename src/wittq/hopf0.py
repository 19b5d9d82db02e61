"""Characteristic-0 quantization of the Taft bialgebra structure on U(W).

The twisting element F = sum_r (1/r!) h^(r) (x) e^r t^r (h = L_0/i, e = i L_i)
satisfies the cocycle identity, and conjugating the undeformed coproduct by it
yields closed-form structure maps on generators:

    coproduct(L_k) = L_k (x) (1-et)^(k/i)
                     + sum_l (-1)^l C_l h^(l) (x) (1-et)^(-l) L_{k+li} t^l
    antipode(L_k)  = -(1-et)^(-k/i) sum_l C_l L_{k+li} (h+1)^(l) t^l

with C_l = int_coeff(i, k-i, l), an integer.  The closed forms are written once
for both characteristics in series.py (the characteristic-p maps are these
formulas read mod p), over a Deformation(0, order, i), and HopfParams(i, order)
is that value.  Every map here exists in two independently computed routes
(closed form vs. twist conjugation), and the verifiers check them against
each other and against the Hopf axioms, up to the caller-chosen truncation
order.

Fractional powers (1-et)^(k/i) with i not dividing k are the generalized
binomial series with exponent k/i in Q, the unique t-adically continuous
reading.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .report import VerificationReport
from .scalars import int_coeff
from .series import (
    Deformation,
    Series,
    Verdicts,
    _element_image,
    _mono_image,
    binomial_series,
    check_hopf,
    convolve,
    counit_slot,
    element_antipode,
    element_coproduct,
    gen_antipode,
    gen_coproduct,
    h_rising,
    slot_apply,
)
from .uwitt import Element, Mono, ONE_MONO, ad_power, ad_power_closed


class CrossRouteMismatch(ArithmeticError):
    """Two independent computations of the same object disagreed."""


def HopfParams(i: int, order: int = 4) -> Deformation:
    """The characteristic-0 deformation in direction i, truncated after t^order."""
    return Deformation(0, order, i)


# -- undeformed structure maps ------------------------------------------------


def _primitive(k: int) -> Element:
    """L_k (x) 1 + 1 (x) L_k."""
    g = Element.gen(k)
    return g.tensor(Element.one()) + Element.one().tensor(g)


@lru_cache(maxsize=None)
def _delta0_mono(mono: Mono) -> Element:
    return _mono_image(mono, _primitive, Element.one(2), False)


def undeformed_coproduct(x: Element) -> Element:
    """Delta_0: L_k -> L_k (x) 1 + 1 (x) L_k, extended as an algebra map."""
    return _element_image(x, _delta0_mono, Element.zero(2))


@lru_cache(maxsize=None)
def _s0_mono(mono: Mono) -> Element:
    return _mono_image(mono, lambda k: -Element.gen(k), Element.one(), True)


def undeformed_antipode(x: Element) -> Element:
    """S_0: L_k -> -L_k, extended as an algebra antimorphism."""
    return _element_image(x, _s0_mono, Element.zero(1))


def counit(x: Element) -> Fraction:
    """The algebra morphism to Q killing every generator (unchanged by the twist)."""
    if x.rank != 1:
        raise ValueError("counit takes rank-1 elements")
    return x.terms.get((ONE_MONO,), Fraction(0))


# -- twist and fractional powers ----------------------------------------------


@lru_cache(maxsize=None)
def _twist(params: Deformation) -> Series:
    coeffs = []
    for r in range(params.order + 1):
        coeffs.append(Fraction(1, factorial(r)) * h_rising(params, 0, r).tensor(params.e_power(r)))
    return params.series(2, coeffs)


def twist(params: Deformation) -> Series:
    """F = sum_r (1/r!) h^(r) (x) e^r t^r, truncated."""
    return _twist(params)


@lru_cache(maxsize=None)
def _twist_inverse(params: Deformation) -> Series:
    return _twist(params).invert()


@lru_cache(maxsize=None)
def _u_series(params: Deformation) -> Series:
    """u = m o (S_0 (x) Id)(F)."""
    return convolve(_twist(params), lambda mono: params.series(1, [_s0_mono(mono)]), "left")


@lru_cache(maxsize=None)
def _u_inverse(params: Deformation) -> Series:
    return _u_series(params).invert()


# -- deformed structure maps ---------------------------------------------------


def coproduct_closed(k: int, params: Deformation) -> Series:
    """Closed-form deformed coproduct of L_k, with the sign of the degree-l
    summand flipped at l = params.fault if the params carry one."""
    return gen_coproduct(params, k)


def coproduct_twist(x: Element, params: Deformation) -> Series:
    """Twist-conjugation route F^{-1} Delta_0(x) F; independent of the closed form."""
    mid = params.series(2, [undeformed_coproduct(x)])
    return _twist_inverse(params) * mid * _twist(params)


def antipode_closed(k: int, params: Deformation) -> Series:
    """Closed-form deformed antipode of L_k, operand order as in the defining formula."""
    return gen_antipode(params, k)


def antipode_twist(x: Element, params: Deformation) -> Series:
    """Conjugation route u^{-1} S_0(x) u with u = m(S_0 (x) Id)(F)."""
    mid = params.series(1, [undeformed_antipode(x)])
    return _u_inverse(params) * mid * _u_series(params)


def antipode_general(x: Element, params: Deformation) -> Series:
    """Antipode of a homogeneous element via the degree-graded formula.

    S(x) = (1-et)^(-|x|/i) * sum_n ad_power(S_0(x), n) (h+1)^(n) t^n.
    """
    deg = x.degree()
    if deg is None:
        raise ValueError("antipode_general needs a homogeneous element")
    s0x = undeformed_antipode(x)
    pre = binomial_series(params, Fraction(-deg, params.i))
    tail = params.series(1)
    for n in range(params.order + 1):
        elem = ad_power(s0x, n, params.i) * h_rising(params, 1, n)
        if elem.terms:
            tail = tail + params.series(1, [elem]).shift(n)
    return pre * tail


# -- multiplicative/antimultiplicative extension --------------------------------


def coproduct_element(x: Element, params: Deformation) -> Series:
    """Deformed coproduct extended to arbitrary elements (algebra morphism)."""
    return element_coproduct(params, x)


def antipode_element(x: Element, params: Deformation) -> Series:
    """Deformed antipode extended to arbitrary elements (algebra antimorphism)."""
    return element_antipode(params, x)


# -- verifiers -------------------------------------------------------------------


def cocycle_check(params: Deformation) -> VerificationReport:
    """Cocycle identity and counit normalization of the twisting element.

    The convention here conjugates as F^{-1} Delta_0 F, so the cocycle reads
    (Delta_0 (x) Id)(F) . (F (x) 1) = (Id (x) Delta_0)(F) . (1 (x) F);
    equivalently, F^{-1} satisfies the familiar mirrored form.  With the
    factors transposed the displayed identity already fails at t^2, so the
    orientation is forced by coassociativity of the conjugated coproduct.
    """
    order = params.order
    F = _twist(params)
    pt = params.point
    verdicts = Verdicts()

    d0 = lambda mono: Series.const(_delta0_mono(mono), order)
    one_F = F.tensor_left(Element.one(1))
    F_one = Series(order, 3, [c.tensor(Element.one(1)) for c in F.coeffs])
    verdicts.check("twist-cocycle", pt, slot_apply(F, 0, d0) * F_one, slot_apply(F, 1, d0) * one_F)

    unit = Series.one(order, 1)
    verdicts.check("twist-counit-left", pt, counit_slot(F, 0), unit)
    verdicts.check("twist-counit-right", pt, counit_slot(F, 1), unit)
    return verdicts.reports[0]


def cobracket_semiclassical(k: int, i: int) -> Element:
    """Order-t cobracket of L_k, computed two ways and asserted equal.

    Route (a): the degree-1 coefficient of coproduct - opposite coproduct.
    Route (b): the adjoint action of L_k on L_0 (x) L_i minus its flip.
    """
    dk = coproduct_closed(k, Deformation(0, 1, i))
    route_a = (dk - dk.swap()).coeff(1)

    r = Element.gen(0).tensor(Element.gen(i))
    rm = r - r.swap()
    d0k = _primitive(k)
    route_b = d0k * rm - rm * d0k

    if route_a != route_b:
        raise CrossRouteMismatch(f"cobracket routes differ at k={k}, i={i}")
    return route_a


def verify_hopf0(params: Deformation, k_range, corrupt_term: int | None = None) -> VerificationReport:
    """Hopf axiom suite on generators: coassociativity, counit, antipode
    convolution, and well-definedness (multiplicativity + bracket compatibility)
    on generator pairs.  Failures are reported, never raised.  A fault given
    here becomes the fault of the params checked (see Deformation)."""
    verdicts = Verdicts()
    check_hopf(verdicts, replace(params, fault=corrupt_term), k_range, True)
    return verdicts.reports[0]


def verify_all0(params: Deformation, k_range) -> VerificationReport:
    """Full characteristic-0 suite: cocycle, cross-route equalities,
    semiclassical limit, cocommutativity witness, and the Hopf axioms."""
    i, order = params.i, params.order
    ks = list(k_range)
    verdicts = Verdicts()
    rep = verdicts.reports[0].extend(cocycle_check(params))

    for k in ks:
        pt = dict(params.point, k=k)
        gk = Element.gen(k)
        verdicts.check("coproduct-cross-route", pt, coproduct_closed(k, params), coproduct_twist(gk, params))
        a_closed = antipode_closed(k, params)
        verdicts.check("antipode-closed-vs-twist", pt, a_closed, antipode_twist(gk, params))
        verdicts.check("antipode-closed-vs-general", pt, a_closed, antipode_general(gk, params))

        try:
            delta = cobracket_semiclassical(k, i)
            rep.add("cobracket-semiclassical", pt, True)
        except CrossRouteMismatch as exc:
            rep.add("cobracket-semiclassical", pt, False, str(exc))
            delta = None
        if delta is not None:
            # the order-t cobracket vanishes exactly at k = i
            rep.add("cocommutativity-witness", pt, delta.is_zero() == (k == i))

        # the rational closed form of (1/l!) ad(e)^l L_k is C_l L_{k+li}, C_l an integer
        closed_ad = [ad_power_closed(k, l, i) for l in range(order + 1)]
        ok_int = all(c == int_coeff(i, k - i, l) * Element.gen(k + l * i) for l, c in enumerate(closed_ad))
        rep.add("structure-coefficient-integrality", pt, ok_int)

    rep.extend(verify_hopf0(params, ks))
    return rep
