from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from wittq import hopf0, series
from wittq.hopf0 import (
    HopfParams,
    antipode_closed,
    antipode_element,
    antipode_general,
    antipode_twist,
    cobracket_semiclassical,
    cocycle_check,
    coproduct_closed,
    coproduct_element,
    coproduct_twist,
    twist,
    verify_all0,
    verify_hopf0,
)
from wittq.series import (
    Deformation,
    Series,
    TSeries,
    Verdicts,
    binomial_series,
    check_hopf,
    counit,
    element_antipode,
    element_coproduct,
    gen_coproduct,
    run_checks,
    twist_certificate,
    u_series,
    undeformed_antipode,
    undeformed_coproduct,
)
from wittq.uwitt import Element

L = Element.gen


def test_params_validation():
    with pytest.raises(ValueError):
        HopfParams(0, 3)
    with pytest.raises(ValueError):
        HopfParams(1, -1)
    HopfParams(1, 0)  # order 0 is the undeformed slice and must be accepted
    # characteristic 0 truncates and keeps t formal
    with pytest.raises(ValueError):
        Deformation(0, 3, 1, 2)
    with pytest.raises(ValueError):
        Deformation(0, None, 1)
    # p = 2 is no odd prime, and characteristic p is never truncated
    with pytest.raises(ValueError):
        Deformation(2, None, 1)
    with pytest.raises(ValueError):
        Deformation(5, 3, 1)
    # one deformation, however spelled, is one memo key
    assert HopfParams(2) == Deformation(0, 4, 2)
    assert hash(HopfParams(2)) == hash(Deformation(0, 4, 2))
    assert HopfParams(2, 3) != HopfParams(2, 4)


def test_twist_low_orders():
    F = twist(HopfParams(1, 1))
    assert F.coeff(0) == Element.one(2)
    assert F.coeff(1) == L(0).tensor(L(1))
    F2 = twist(HopfParams(1, 2))
    half = Fraction(1, 2)
    want = half * Element(1, {(((0, 2),),): 1, (((0, 1),),): 1}).tensor(
        Element(1, {(((1, 2),),): 1})
    )
    assert F2.coeff(2) == want
    # degree-1 coefficient is L_0 (x) L_i for every i
    for i in (2, 3, -1):
        assert twist(HopfParams(i, 1)).coeff(1) == L(0).tensor(L(i))


def test_series_invert_of_twist():
    for i in (1, 2):
        F = twist(HopfParams(i, 4))
        G = F.invert()
        assert F * G == Series.one(4, 2)
        assert G * F == Series.one(4, 2)


def test_cocycle_and_counit_normalization():
    for i in (1, 2):
        rep = cocycle_check(HopfParams(i, 4))
        assert rep.ok, rep.summary()
    # degree-0 slice is trivially 1 (x) 1 (x) 1
    rep0 = cocycle_check(HopfParams(3, 0))
    assert rep0.ok


def test_undeformed_maps():
    d = HopfParams(1, 0)
    x = L(1) * L(2)
    dx = undeformed_coproduct(d, x)
    assert dx == undeformed_coproduct(d, L(1)) * undeformed_coproduct(d, L(2))
    assert undeformed_antipode(d, L(5)).coeff(0) == -L(5)
    assert undeformed_antipode(d, x).coeff(0) == -L(2) * -L(1)


@pytest.mark.parametrize("x", [L(3), L(1) * L(2), L(-1) * L(0) * L(2) - 3 * L(4), L(0) * L(0) + Element.one()])
def test_undeformed_maps_are_the_degree0_slice_of_the_closed_forms(x):
    # the closed forms and the twist route's Delta_0, S_0 share extension code, no formula
    d = HopfParams(2, 2)
    assert element_coproduct(d, x).coeff(0) == undeformed_coproduct(d, x).coeff(0)
    assert element_antipode(d, x).coeff(0) == undeformed_antipode(d, x).coeff(0)


def test_counit_examples():
    assert counit(L(7)) == 0
    assert counit(Element.one()) == 1
    assert counit(3 * L(0) * L(2) + 5 * Element.one()) == 5


def test_coproduct_degree0_is_undeformed():
    for k in (-2, 0, 3):
        dk = coproduct_closed(k, HopfParams(2, 3))
        assert dk.coeff(0) == L(k).tensor(Element.one()) + Element.one().tensor(L(k))


def test_coproduct_k0_shape():
    # only the first-order tail survives for k = 0
    for i in (1, 2):
        dk = coproduct_closed(0, HopfParams(i, 2))
        one = Element.one()
        assert dk.coeff(0) == L(0).tensor(one) + one.tensor(L(0))
        assert dk.coeff(1) == i * L(0).tensor(L(i))
        assert dk.coeff(2) == i * i * L(0).tensor(Element(1, {(((i, 2),),): 1}))


def test_coproduct_k_equals_i_truncates():
    # first slot-series is exactly 1 - et; every l >= 1 summand vanishes
    for i in (1, 3):
        dk = coproduct_closed(i, HopfParams(i, 4))
        one = Element.one()
        et = Fraction(i) * Element(1, {(((i, 1),),): 1})
        assert dk.coeff(0) == L(i).tensor(one) + one.tensor(L(i))
        assert dk.coeff(1) == L(i).tensor(-et)
        assert dk.coeff(2).is_zero()


def test_coproduct_cross_route():
    for i in (1, 2, 3):
        params = HopfParams(i, 4)
        for k in range(-4, 5):
            assert coproduct_closed(k, params) == coproduct_twist(L(k), params)


def test_coproduct_twist_multiplicative():
    params = HopfParams(1, 3)
    lhs = coproduct_twist(L(1) * L(2), params)
    rhs = coproduct_twist(L(1), params) * coproduct_twist(L(2), params)
    assert lhs == rhs
    assert coproduct_twist(Element.one(), params) == Series.one(3, 2)


def test_antipode_degree0_and_example():
    params = HopfParams(1, 1)
    s0 = antipode_closed(0, params)
    assert s0.coeff(0) == -L(0)
    # -L_0 + L_1 (L_0 + 1) t, normal ordered: t-coefficient is L_0 L_1
    assert s0.coeff(1) == Element(1, {(((0, 1), (1, 1)),): 1})


def test_u_series_leading_term():
    for i in (1, 2):
        assert u_series(HopfParams(i, 3)).coeff(0) == Element.one()


def test_antipode_triple_agreement():
    for i in (1, 2):
        params = HopfParams(i, 3)
        for k in range(-3, 4):
            a = antipode_closed(k, params)
            assert a == antipode_twist(L(k), params)
            assert a == antipode_general(L(k), params)


def test_antipode_general_on_products():
    params = HopfParams(1, 3)
    x = L(1) * L(1)
    assert antipode_general(x, params) == antipode_twist(x, params)
    assert antipode_general(Element.one(), params) == Series.one(3, 1)
    y = L(2) * L(-1)
    assert antipode_general(y, params) == antipode_twist(y, params)


def test_twist_route_agrees_with_the_extended_closed_forms_on_products():
    # on a generator S_0 could as well be a morphism; on L_a L_b with a != b
    # the twist route u^{-1} S_0(x) u sees the order S_0 puts the factors in
    for i in (1, 2):
        params = HopfParams(i, 3)
        for a in range(-2, 3):
            for b in range(-2, 3):
                if a != b:
                    x = L(a) * L(b)
                    assert coproduct_twist(x, params) == coproduct_element(x, params), (i, a, b)
                    assert antipode_twist(x, params) == antipode_element(x, params), (i, a, b)


def test_antipode_general_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        antipode_general(L(1) + L(2), HopfParams(1, 2))


def test_one_minus_et_power_integer_case():
    # q = 1: the honest polynomial 1 - et
    s = binomial_series(HopfParams(2, 3), Fraction(1))
    assert s.coeff(0) == Element.one()
    assert s.coeff(1) == -2 * L(2)
    assert s.coeff(2).is_zero()


def test_cobracket_examples():
    # k = 0: i (L_0 x L_i - L_i x L_0)
    for i in (1, 2, 3):
        want = i * (L(0).tensor(L(i)) - L(i).tensor(L(0)))
        assert cobracket_semiclassical(0, i) == want
    # general k: -k(L_k x L_i - swap) + (i-k)(L_0 x L_{k+i} - swap)
    for i in (1, 2):
        for k in (-3, 2, 5):
            a = L(k).tensor(L(i)) - L(i).tensor(L(k))
            b = L(0).tensor(L(k + i)) - L(k + i).tensor(L(0))
            assert cobracket_semiclassical(k, i) == -k * a + (i - k) * b


def test_cobracket_vanishes_only_at_k_equals_i():
    for i in (1, 2, 3):
        for k in range(-5, 6):
            delta = cobracket_semiclassical(k, i)
            assert delta.is_zero() == (k == i)


def test_structure_coefficients_are_integral():
    from math import factorial

    from wittq.scalars import int_coeff

    for i in (1, 2, 3):
        for k in range(-4, 5):
            for l in range(6):
                num = Fraction(i) ** l
                for j in range(-1, l - 1):
                    num *= k + j * i
                val = num / factorial(l)
                assert val.denominator == 1
                assert val.numerator == int_coeff(i, k - i, l)


def test_hopf_axioms_pass():
    for i in (1, 2):
        rep = verify_hopf0(HopfParams(i, 3), range(-2, 3))
        assert rep.ok, rep.summary()


def test_hopf_axioms_at_order_zero():
    rep = verify_hopf0(HopfParams(5, 0), range(-2, 3))
    assert rep.ok


def test_mutation_detected():
    rep = verify_hopf0(replace(HopfParams(1, 3), fault=1), range(-2, 3))
    assert not rep.ok
    assert len(rep.failures()) > 0


def test_a_faulty_deformation_fails_the_hopf_suite_of_verify_all0():
    # the fault of the params is the one checked: verify_hopf0 gives the
    # entries that a fault keyword set on clean params gave (42 of its 75
    # entries fail), and verify_all0 ends in exactly those entries
    faulty = replace(HopfParams(1, 3), fault=1)
    rep = verify_hopf0(faulty, range(-2, 3))
    assert (len(rep.entries), len(rep.failures())) == (75, 42)
    assert verify_all0(faulty, range(-2, 3)).entries[-75:] == rep.entries


def test_cobracket_route_mismatch_is_a_failing_entry(monkeypatch):
    # route (a) of cobracket_semiclassical reads the closed form through
    # coproduct_closed; with the sign of its degree-1 summand flipped, the
    # routes differ at k = -2, 0, 2, while at k = -1 and 1 the flipped t^1
    # term is symmetric and Delta - Delta^op keeps it out
    closed = hopf0.coproduct_closed
    monkeypatch.setattr(hopf0, "coproduct_closed", lambda k, params: closed(k, replace(params, fault=1)))
    rep = verify_all0(HopfParams(1, 2), range(-2, 3))
    cobracket = {dict(e.params)["k"]: e for e in rep.entries if e.identity == "cobracket-semiclassical"}
    failed = {k for k, e in cobracket.items() if not e.passed}
    assert failed == {"-2", "0", "2"} and not rep.ok
    assert all(cobracket[k].witness == f"cobracket routes differ at k={k}, i=1" for k in failed)
    # no cocommutativity witness where the cobracket is unknown
    witnessed = {dict(e.params)["k"] for e in rep.entries if e.identity == "cocommutativity-witness"}
    assert witnessed == {"-1", "1"}


def test_coproduct_element_linear():
    params = HopfParams(1, 3)
    x = 2 * L(1) + 3 * L(-2)
    lhs = coproduct_element(x, params)
    rhs = coproduct_closed(1, params) * 2 + coproduct_closed(-2, params) * 3
    assert lhs == rhs


def test_a_certified_block_multiplies_no_generator_pair(monkeypatch):
    # warm the certificate and the structure-map memos, then watch one run:
    # the certificate holds, so every Hopf entry is recorded as passing, no
    # identity is sent through Verdicts.check and no series product is made
    params, ks = HopfParams(1, 2), range(-1, 2)
    want = verify_hopf0(params, ks).entries
    assert twist_certificate(params, ks) and all(e.passed for e in want)
    calls, checked = [], []
    mul, check = TSeries.__mul__, Verdicts.check

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    def spy(self, identity, *args):
        checked.append(identity)
        return check(self, identity, *args)

    monkeypatch.setattr(TSeries, "__mul__", counted)
    monkeypatch.setattr(Verdicts, "check", spy)
    assert verify_hopf0(params, ks).entries == want
    assert calls == [] and checked == []


def test_a_faulty_block_builds_each_generator_product_once(monkeypatch):
    # the fault breaks the certificate, so every entry is computed; each of
    # the 9 pairs multiplies Delta(L_k) Delta(L_l), shared by its two
    # entries, and Delta(L_l) Delta(L_k) once, and the linear extension
    # scales 7 monomial images: 25 series products in a warm run, and no more
    params, ks = replace(HopfParams(1, 2), fault=1), range(-1, 2)
    want = verify_hopf0(params, ks).entries
    assert not twist_certificate(params, ks) and not all(e.passed for e in want)
    calls, mul = [], TSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(TSeries, "__mul__", counted)
    assert verify_hopf0(params, ks).entries == want
    assert len(calls) <= 25
    assert sum(isinstance(other, TSeries) for other in calls) == 18


def test_the_inverses_of_f_and_u_ignore_the_fault():
    # F and u do not depend on the fault, so a faulty deformation shares
    # their inverses' memo entries
    clean = HopfParams(2, 4)
    faulty = replace(clean, fault=1)
    assert hopf0._twist_inverse(faulty) is hopf0._twist_inverse(clean)
    assert hopf0._u_inverse(faulty) is hopf0._u_inverse(clean)


_HOPF_IDENTITIES = {
    "coassociativity",
    "counit-left",
    "counit-right",
    "antipode-left",
    "antipode-right",
    "coproduct-multiplicative",
    "coproduct-bracket",
}


def _hopf_entries(d, ks):
    """The Hopf block of d on ks as it runs, the identities it computed
    rather than recorded (the certificate's own twist block left out), and
    the same block with the certificate forced false, every entry computed."""
    block = partial(check_hopf, ks=ks, bracket=True)
    checked, check = [], Verdicts.check

    def spy(self, identity, *args):
        if identity in _HOPF_IDENTITIES:
            checked.append(identity)
        return check(self, identity, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Verdicts, "check", spy)
        derived = run_checks(d, (None,), block).entries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "twist_certificate", lambda d, ks: False)
        direct = run_checks(d, (None,), block).entries
    return derived, checked, direct


def _reached_letters(d, ks):
    """ks, every k + l, and every letter in the support of Delta(L_k)."""
    out = set(ks) | {k + l for k in ks for l in ks}
    for k in ks:
        for c in gen_coproduct(d, k).coeffs:
            out |= c.supported_indices()
    return out


def test_derived_hopf_entries_equal_direct_entries_in_char0():
    # every fault of every order up to 3, in four directions and on two sets
    # of generators; a fault that changes Delta of a reached letter breaks
    # the certificate, so that every entry is computed, and one that changes
    # none leaves it holding
    witnessed = 0
    for i in (-2, -1, 1, 3):
        for order in range(4):
            for ks in (range(-2, 3), range(1, 4)):
                clean = HopfParams(i, order)
                for fault in (None, *range(order + 1)):
                    d = replace(clean, fault=fault)
                    derived, checked, direct = _hopf_entries(d, ks)
                    assert derived == direct, (i, order, ks, fault)
                    changed = any(gen_coproduct(d, j) != gen_coproduct(clean, j) for j in _reached_letters(d, ks))
                    assert twist_certificate(d, ks) is not changed, (i, order, ks, fault)
                    assert checked == ([e.identity for e in direct] if changed else []), (i, order, ks, fault)
                    witnessed += sum(1 for e in direct if not e.passed and e.witness)
    assert witnessed > 0


_ROUTES = {"coproduct-cross-route", "antipode-closed-vs-twist"}


def _route_entries(d, ks):
    """The route block of d on ks as it runs, the (route, k) of each
    twist-route map it called, and the same block with the certificate
    forced false, every entry computed."""
    block = partial(hopf0._check_routes, ks=list(ks))
    calls = []

    def spy(route, fn):
        def call(x, params):
            calls.append((route, *x.supported_indices()))
            return fn(x, params)

        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopf0, "coproduct_twist", spy("coproduct", hopf0.coproduct_twist))
        mp.setattr(hopf0, "antipode_twist", spy("antipode", hopf0.antipode_twist))
        derived = run_checks(d, (None,), block).entries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopf0, "twist_certificate", lambda d, ks: False)
        direct = run_checks(d, (None,), block).entries
    return derived, calls, direct


def test_derived_route_entries_equal_direct_entries_in_char0():
    # every fault of every order up to 3, in four directions and on two sets
    # of generators: the route block equals its fully computed form, and it
    # builds the twist routes of every generator exactly when the
    # certificate fails
    failing = 0
    for i in (-2, -1, 1, 3):
        for order in range(4):
            for ks in (range(-2, 3), range(1, 4)):
                for fault in (None, *range(order + 1)):
                    d = replace(HopfParams(i, order), fault=fault)
                    derived, calls, direct = _route_entries(d, ks)
                    assert derived == direct, (i, order, ks, fault)
                    # each route verdict is the equality the route entry names
                    routes = []
                    for k in ks:
                        routes.append(coproduct_closed(k, d) == coproduct_twist(L(k), d))
                        routes.append(antipode_closed(k, d) == antipode_twist(L(k), d))
                    assert [e.passed for e in derived if e.identity in _ROUTES] == routes
                    certified = twist_certificate(d, ks)
                    want = [] if certified else [(route, k) for k in ks for route in ("coproduct", "antipode")]
                    assert calls == want, (i, order, ks, fault)
                    failing += sum(1 for e in direct if not e.passed and e.witness)
    assert failing > 0


@pytest.mark.parametrize(
    "i, ks, j, failures",
    [
        # L_4 is reached only through a slot of Delta(L_1)
        (3, range(-1, 2), 4, {"coassociativity": 1}),
        # L_{-3} is reached only through straightening L_{-1} L_{-2}
        (1, range(-2, 2), -3, {"coproduct-multiplicative": 1, "coproduct-bracket": 2}),
    ],
)
def test_the_certificate_covers_letters_outside_ks(i, ks, j, failures, monkeypatch, fresh_certificate):
    # Delta(L_j) + t Delta(L_j) for one letter j outside ks, in a fresh
    # monomial memo: the certificate fails, and the block gives the direct
    # report with the failures the corrupted letter causes
    real = series.gen_coproduct

    def corrupted(d, k):
        g = real(d, k)
        return g + g.shift(1) if k == j else g

    monkeypatch.setattr(series, "gen_coproduct", corrupted)
    monkeypatch.setattr(series, "mono_coproduct", series._extension(2, anti=False)(corrupted))
    d = HopfParams(i, 2)
    assert j not in ks and not twist_certificate(d, ks)
    derived, checked, direct = _hopf_entries(d, ks)
    assert derived == direct
    assert Counter(e.identity for e in direct if not e.passed) == failures


def test_verify_all0_checks_the_twist_once(monkeypatch, fresh_certificate):
    # the cocycle entries and the certificate share one check_twist pass per
    # fault-free deformation, and each report handed out is a new one
    params = HopfParams(2, 3)
    ks = range(-2, 3)
    want = verify_all0(params, ks).entries
    twist_certificate.cache_clear()
    passes = []
    real = series.check_twist

    def spy(verdicts, d):
        passes.append(d)
        real(verdicts, d)

    # wherever a module reads the block from
    for module in (series, hopf0):
        monkeypatch.setattr(module, "check_twist", spy, raising=False)
    assert verify_all0(params, ks).entries == want
    assert passes == [params]
    # a faulty deformation has the same F and Delta_0: no second pass
    verify_all0(replace(params, fault=1), ks)
    assert passes == [params]
    cocycle = [e for e in want if e.identity.startswith("twist-")]
    assert len(cocycle) == 3 and all(e.passed for e in cocycle)
    first, second = cocycle_check(params), cocycle_check(params)
    assert first.entries == second.entries == cocycle
    first.extend(first)
    assert first.entries is not second.entries and second.entries == cocycle
    assert cocycle_check(params).entries == cocycle
