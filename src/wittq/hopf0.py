"""Characteristic-0 quantization of the Taft bialgebra structure on U(W).

The twisting element F = sum_r (1/r!) h^(r) (x) e^r t^r (h = L_0/i, e = i L_i)
satisfies the cocycle identity, and conjugating the undeformed coproduct by it
yields closed-form structure maps on generators:

    coproduct(L_k) = L_k (x) (1-et)^(k/i)
                     + sum_l (-1)^l C_l h^(l) (x) (1-et)^(-l) L_{k+li} t^l
    antipode(L_k)  = -(1-et)^(-k/i) sum_l C_l L_{k+li} (h+1)^(l) t^l

with C_l = int_coeff(i, k-i, l), an integer.  The closed forms, the undeformed
maps Delta_0 and S_0, F, u = m(S_0 (x) Id)(F) and the cocycle block are written
once for both characteristics in series.py, over a Deformation(0, order, i);
HopfParams(i, order) is that value.  What is characteristic-0 specific stays
here: the inverses of the truncated F and u, the twist-conjugation routes
F^{-1} Delta_0 F and u^{-1} S_0 u, the degree-graded antipode, the
semiclassical cobracket, and the verifiers that check the closed forms against
these routes and against the Hopf axioms, up to the caller-chosen truncation
order.

Fractional powers (1-et)^(k/i) with i not dividing k are the generalized
binomial series with exponent k/i in Q, the unique t-adically continuous
reading.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial

from .report import VerificationReport
from .scalars import int_coeff
from .series import (
    Deformation,
    Series,
    Verdicts,
    binomial_series,
    check_hopf,
    check_twist,
    element_antipode,
    element_coproduct,
    gen_antipode,
    gen_coproduct,
    h_rising,
    run_checks,
    twist,
    u_series,
    undeformed_antipode,
    undeformed_coproduct,
)
from .uwitt import Element, ad_power, ad_power_closed


class CrossRouteMismatch(ArithmeticError):
    """Two independent computations of the same object disagreed."""


def HopfParams(i: int, order: int = 4) -> Deformation:
    """The characteristic-0 deformation in direction i, truncated after t^order."""
    return Deformation(0, order, i)


# -- inverses of the truncated twist and u --------------------------------------


@lru_cache(maxsize=None)
def _twist_inverse(params: Deformation) -> Series:
    return twist(params).invert()


@lru_cache(maxsize=None)
def _u_inverse(params: Deformation) -> Series:
    return u_series(params).invert()


# -- deformed structure maps ---------------------------------------------------


def coproduct_closed(k: int, params: Deformation) -> Series:
    """Closed-form deformed coproduct of L_k, with the sign of the degree-l
    summand flipped at l = params.fault if the params carry one."""
    return gen_coproduct(params, k)


def coproduct_twist(x: Element, params: Deformation) -> Series:
    """Twist-conjugation route F^{-1} Delta_0(x) F; independent of the closed form."""
    return _twist_inverse(params) * undeformed_coproduct(params, x) * twist(params)


def antipode_closed(k: int, params: Deformation) -> Series:
    """Closed-form deformed antipode of L_k, operand order as in the defining formula."""
    return gen_antipode(params, k)


def antipode_twist(x: Element, params: Deformation) -> Series:
    """Conjugation route u^{-1} S_0(x) u with u = m(S_0 (x) Id)(F)."""
    return _u_inverse(params) * undeformed_antipode(params, x) * u_series(params)


def antipode_general(x: Element, params: Deformation) -> Series:
    """Antipode of a homogeneous element via the degree-graded formula.

    S(x) = (1-et)^(-|x|/i) * sum_n ad_power(S_0(x), n) (h+1)^(n) t^n.
    """
    deg = x.degree()
    if deg is None:
        raise ValueError("antipode_general needs a homogeneous element")
    s0x = undeformed_antipode(params, x).coeff(0)
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
    """Cocycle identity and counit normalization of the twisting element
    (series.check_twist)."""
    return run_checks(params, (None,), check_twist)


def cobracket_semiclassical(k: int, i: int) -> Element:
    """Order-t cobracket of L_k, computed two ways and asserted equal.

    Route (a): the degree-1 coefficient of coproduct - opposite coproduct.
    Route (b): the adjoint action of L_k on L_0 (x) L_i minus its flip.
    """
    d = Deformation(0, 1, i)
    dk = coproduct_closed(k, d)
    route_a = (dk - dk.swap()).coeff(1)

    r = Element.gen(0).tensor(Element.gen(i))
    rm = r - r.swap()
    d0k = undeformed_coproduct(d, d.gen(k)).coeff(0)
    route_b = d0k * rm - rm * d0k

    if route_a != route_b:
        raise CrossRouteMismatch(f"cobracket routes differ at k={k}, i={i}")
    return route_a


def verify_hopf0(params: Deformation, k_range) -> VerificationReport:
    """Hopf axiom suite on generators: coassociativity, counit, antipode
    convolution, and well-definedness (multiplicativity + bracket compatibility)
    on generator pairs.  Failures are reported, never raised.  A fault of the
    params is checked as it is (see Deformation)."""
    return run_checks(params, (None,), partial(check_hopf, ks=k_range, bracket=True))


def _check_routes(verdicts: Verdicts, params: Deformation, ks) -> None:
    """Per generator L_k, k in ks: the closed forms against the twist and
    graded routes, the semiclassical limit, the cocommutativity witness and
    the integrality of the structure coefficients."""
    i, order = params.i, params.order
    for k in ks:
        pt = dict(params.point, k=k)
        gk = Element.gen(k)
        verdicts.check("coproduct-cross-route", pt, coproduct_closed(k, params), coproduct_twist(gk, params))
        a_closed = antipode_closed(k, params)
        verdicts.check("antipode-closed-vs-twist", pt, a_closed, antipode_twist(gk, params))
        verdicts.check("antipode-closed-vs-general", pt, a_closed, antipode_general(gk, params))

        try:
            delta = cobracket_semiclassical(k, i)
            verdicts.record("cobracket-semiclassical", pt, True)
        except CrossRouteMismatch as exc:
            verdicts.record("cobracket-semiclassical", pt, False, str(exc))
            delta = None
        if delta is not None:
            # the order-t cobracket vanishes exactly at k = i
            verdicts.record("cocommutativity-witness", pt, delta.is_zero() == (k == i))

        # the rational closed form of (1/l!) ad(e)^l L_k is C_l L_{k+li}, C_l an integer
        closed_ad = [ad_power_closed(k, l, i) for l in range(order + 1)]
        ok_int = all(c == int_coeff(i, k - i, l) * Element.gen(k + l * i) for l, c in enumerate(closed_ad))
        verdicts.record("structure-coefficient-integrality", pt, ok_int)


def verify_all0(params: Deformation, k_range) -> VerificationReport:
    """Full characteristic-0 suite: cocycle, cross-route equalities,
    semiclassical limit, cocommutativity witness, and the Hopf axioms."""
    ks = list(k_range)
    rep = cocycle_check(params)
    rep.extend(run_checks(params, (None,), partial(_check_routes, ks=ks)))
    return rep.extend(verify_hopf0(params, ks))
