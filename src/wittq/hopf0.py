"""Characteristic-0 quantization of the Taft bialgebra structure on U(W).

The twisting element F = sum_r (1/r!) h^(r) (x) e^r t^r (h = L_0/i, e = i L_i)
satisfies the cocycle identity, and conjugating the undeformed coproduct by it
yields closed-form structure maps on generators:

    coproduct(L_k) = L_k (x) (1-et)^(k/i)
                     + sum_l (-1)^l C_l h^(l) (x) (1-et)^(-l) L_{k+li} t^l
    antipode(L_k)  = -(1-et)^(-k/i) sum_l C_l L_{k+li} (h+1)^(l) t^l

with C_l = int_coeff(i, k-i, l), an integer.  The closed forms are written once
for both characteristics in series.py (the characteristic-p maps are these
formulas read mod p); the public functions here bind them to characteristic 0
and the truncation order.  Every map here exists in two independently computed
routes (closed form vs. twist conjugation), and the verifiers check them
against each other and against the Hopf axioms, up to the caller-chosen
truncation order.

Fractional powers (1-et)^(k/i) with i not dividing k are the generalized
binomial series with exponent k/i in Q, the unique t-adically continuous
reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .report import VerificationReport
from .scalars import int_coeff
from .series import (
    Series,
    Verdicts,
    binomial_series,
    check_hopf,
    counit_slot,
    element_antipode,
    element_coproduct,
    first_mismatch,
    gen_antipode,
    gen_coproduct,
    h_rising,
    slot_apply,
)
from .uwitt import Element, Mono, ONE_MONO, ad_power, e_element, word_of


class CrossRouteMismatch(ArithmeticError):
    """Two independent computations of the same object disagreed."""


@dataclass(frozen=True)
class HopfParams:
    """Deformation direction i (nonzero) and t-adic truncation order."""

    i: int
    order: int = 4

    def __post_init__(self):
        if self.i == 0:
            raise ValueError("i must be nonzero")
        if self.order < 0:
            raise ValueError("order must be >= 0")


# -- undeformed structure maps ------------------------------------------------


@lru_cache(maxsize=None)
def _delta0_mono(mono: Mono) -> Element:
    out = Element.one(2)
    for k, m in mono:
        g = Element.gen(k)
        prim = g.tensor(Element.one()) + Element.one().tensor(g)
        for _ in range(m):
            out = out * prim
    return out


def undeformed_coproduct(x: Element) -> Element:
    """Delta_0: L_k -> L_k (x) 1 + 1 (x) L_k, extended as an algebra map."""
    out = Element.zero(2)
    for (mono,), c in x.terms.items():
        out = out + c * _delta0_mono(mono)
    return out


@lru_cache(maxsize=None)
def _s0_mono(mono: Mono) -> Element:
    word = word_of(mono)
    sign = -1 if len(word) % 2 else 1
    out = Element.one()
    for k in reversed(word):
        out = out * Element.gen(k)
    return sign * out


def undeformed_antipode(x: Element) -> Element:
    """S_0: L_k -> -L_k, extended as an algebra antimorphism."""
    out = Element.zero(1)
    for (mono,), c in x.terms.items():
        out = out + c * _s0_mono(mono)
    return out


def counit(x: Element) -> Fraction:
    """The algebra morphism to Q killing every generator (unchanged by the twist)."""
    if x.rank != 1:
        raise ValueError("counit takes rank-1 elements")
    return x.terms.get((ONE_MONO,), Fraction(0))


# -- twist and fractional powers ----------------------------------------------


@lru_cache(maxsize=None)
def _twist(i: int, order: int) -> Series:
    coeffs = []
    for r in range(order + 1):
        coeffs.append(Fraction(1, factorial(r)) * h_rising(0, order, i, 0, r).tensor(e_element(i, r)))
    return Series(order, 2, coeffs)


def twist(params: HopfParams) -> Series:
    """F = sum_r (1/r!) h^(r) (x) e^r t^r, truncated."""
    return _twist(params.i, params.order)


@lru_cache(maxsize=None)
def _twist_inverse(i: int, order: int) -> Series:
    return _twist(i, order).invert()


def one_minus_et_power(q, params: HopfParams) -> Series:
    """(1 - et)^q for rational q, as a truncated binomial series."""
    return binomial_series(0, params.order, params.i, Fraction(q))


@lru_cache(maxsize=None)
def _u_series(i: int, order: int) -> Series:
    # u = m o (S_0 (x) Id)(F)
    F = _twist(i, order)
    coeffs = []
    for d in range(order + 1):
        acc = Element.zero(1)
        for (m1, m2), c in F.coeffs[d].terms.items():
            acc = acc + c * (_s0_mono(m1) * Element.from_mono(m2))
        coeffs.append(acc)
    return Series(order, 1, coeffs)


@lru_cache(maxsize=None)
def _u_inverse(i: int, order: int) -> Series:
    return _u_series(i, order).invert()


def u_series(params: HopfParams) -> Series:
    return _u_series(params.i, params.order)


# -- deformed structure maps ---------------------------------------------------


def coproduct_closed(k: int, params: HopfParams, corrupt_term: int | None = None) -> Series:
    """Closed-form deformed coproduct of L_k.

    corrupt_term deliberately flips the sign of the degree-l summand; it exists
    so the verification harness can prove it would notice a wrong formula.
    """
    return gen_coproduct(0, params.order, params.i, None, corrupt_term, k)


def coproduct_twist(x: Element, params: HopfParams) -> Series:
    """Twist-conjugation route F^{-1} Delta_0(x) F; independent of the closed form."""
    i, order = params.i, params.order
    mid = Series.const(undeformed_coproduct(x), order)
    return _twist_inverse(i, order) * mid * _twist(i, order)


def antipode_closed(k: int, params: HopfParams) -> Series:
    """Closed-form deformed antipode of L_k, operand order as in the defining formula."""
    return gen_antipode(0, params.order, params.i, None, k)


def antipode_twist(x: Element, params: HopfParams) -> Series:
    """Conjugation route u^{-1} S_0(x) u with u = m(S_0 (x) Id)(F)."""
    i, order = params.i, params.order
    mid = Series.const(undeformed_antipode(x), order)
    return _u_inverse(i, order) * mid * _u_series(i, order)


def antipode_general(x: Element, params: HopfParams) -> Series:
    """Antipode of a homogeneous element via the degree-graded formula.

    S(x) = (1-et)^(-|x|/i) * sum_n ad_power(S_0(x), n) (h+1)^(n) t^n.
    """
    deg = x.degree()
    if deg is None:
        raise ValueError("antipode_general needs a homogeneous element")
    i, order = params.i, params.order
    s0x = undeformed_antipode(x)
    pre = binomial_series(0, order, i, Fraction(-deg, i))
    tail = Series.zero(order, 1)
    for n in range(order + 1):
        elem = ad_power(s0x, n, i) * h_rising(0, order, i, 1, n)
        if elem.terms:
            tail = tail + Series.const(elem, order).shift(n)
    return pre * tail


# -- multiplicative/antimultiplicative extension --------------------------------


def coproduct_element(x: Element, params: HopfParams, corrupt_term: int | None = None) -> Series:
    """Deformed coproduct extended to arbitrary elements (algebra morphism)."""
    return element_coproduct(0, params.order, params.i, None, corrupt_term, x)


def antipode_element(x: Element, params: HopfParams) -> Series:
    """Deformed antipode extended to arbitrary elements (algebra antimorphism)."""
    return element_antipode(0, params.order, params.i, None, x)


# -- verifiers -------------------------------------------------------------------


def cocycle_check(params: HopfParams) -> VerificationReport:
    """Cocycle identity and counit normalization of the twisting element.

    The convention here conjugates as F^{-1} Delta_0 F, so the cocycle reads
    (Delta_0 (x) Id)(F) . (F (x) 1) = (Id (x) Delta_0)(F) . (1 (x) F);
    equivalently, F^{-1} satisfies the familiar mirrored form.  With the
    factors transposed the displayed identity already fails at t^2, so the
    orientation is forced by coassociativity of the conjugated coproduct.
    """
    i, order = params.i, params.order
    F = _twist(i, order)
    pt = {"i": i, "order": order}
    rep = VerificationReport()

    d0 = lambda mono: Series.const(_delta0_mono(mono), order)
    one_F = F.tensor_left(Element.one(1))
    F_one = Series(order, 3, [c.tensor(Element.one(1)) for c in F.coeffs])
    lhs = slot_apply(F, 0, d0) * F_one
    rhs = slot_apply(F, 1, d0) * one_F
    rep.add("twist-cocycle", pt, lhs == rhs, first_mismatch(lhs, rhs))

    unit = Series.one(order, 1)
    left = counit_slot(F, 0)
    right = counit_slot(F, 1)
    rep.add("twist-counit-left", pt, left == unit, first_mismatch(left, unit))
    rep.add("twist-counit-right", pt, right == unit, first_mismatch(right, unit))
    return rep


def cobracket_semiclassical(k: int, i: int) -> Element:
    """Order-t cobracket of L_k, computed two ways and asserted equal.

    Route (a): the degree-1 coefficient of coproduct - opposite coproduct.
    Route (b): the adjoint action of L_k on L_0 (x) L_i minus its flip.
    """
    if i == 0:
        raise ValueError("i must be nonzero")
    params = HopfParams(i, 1)
    dk = coproduct_closed(k, params)
    route_a = (dk - dk.swap()).coeff(1)

    r = Element.gen(0).tensor(Element.gen(i))
    rm = r - r.swap()
    d0k = Element.gen(k).tensor(Element.one()) + Element.one().tensor(Element.gen(k))
    route_b = d0k * rm - rm * d0k

    if route_a != route_b:
        raise CrossRouteMismatch(f"cobracket routes differ at k={k}, i={i}")
    return route_a


def verify_hopf0(params: HopfParams, k_range, corrupt_term: int | None = None) -> VerificationReport:
    """Hopf axiom suite on generators: coassociativity, counit, antipode
    convolution, and well-definedness (multiplicativity + bracket compatibility)
    on generator pairs.  Failures are reported, never raised."""
    i, order = params.i, params.order
    verdicts = Verdicts()
    check_hopf(verdicts, {"i": i, "order": order}, 0, order, i, None, corrupt_term, k_range, True)
    return verdicts.reports[0]


def verify_all0(params: HopfParams, k_range) -> VerificationReport:
    """Full characteristic-0 suite: cocycle, cross-route equalities,
    semiclassical limit, cocommutativity witness, and the Hopf axioms."""
    i, order = params.i, params.order
    ks = list(k_range)
    rep = cocycle_check(params)

    for k in ks:
        pt = {"i": i, "order": order, "k": k}
        closed = coproduct_closed(k, params)
        twisted = coproduct_twist(Element.gen(k), params)
        rep.add("coproduct-cross-route", pt, closed == twisted, first_mismatch(closed, twisted))

        a_closed = antipode_closed(k, params)
        a_twist = antipode_twist(Element.gen(k), params)
        a_gen = antipode_general(Element.gen(k), params)
        rep.add("antipode-closed-vs-twist", pt, a_closed == a_twist, first_mismatch(a_closed, a_twist))
        rep.add("antipode-closed-vs-general", pt, a_closed == a_gen, first_mismatch(a_closed, a_gen))

        try:
            delta = cobracket_semiclassical(k, i)
            rep.add("cobracket-semiclassical", pt, True)
        except CrossRouteMismatch as exc:
            rep.add("cobracket-semiclassical", pt, False, str(exc))
            delta = None
        if delta is not None:
            # the order-t cobracket vanishes exactly at k = i
            rep.add("cocommutativity-witness", pt, delta.is_zero() == (k == i))

        ok_int = True
        for l in range(order + 1):
            num = Fraction(i) ** l
            for j in range(-1, l - 1):
                num *= k + j * i
            val = num / factorial(l)
            if val.denominator != 1 or val.numerator != int_coeff(i, k - i, l):
                ok_int = False
                break
        rep.add("structure-coefficient-integrality", pt, ok_int)

    rep.extend(verify_hopf0(params, ks))
    return rep
