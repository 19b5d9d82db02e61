from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from oracles import counit_p
from wittq import hopfp, series
from wittq.hopfp import (
    HopfParamsP,
    PolyP,
    _check_relations,
    antipode_element_p,
    antipode_p,
    antipode_poly,
    coproduct_element_p,
    coproduct_p,
    coproduct_poly,
    e_element_p,
    phi_equivariant,
    radford_check,
    verify_all_i,
    verify_all_p,
    verify_hopf_p,
    verify_relations_preserved,
)
from wittq.report import VerificationReport
from wittq.restricted import ElementP
from wittq.series import (
    Deformation,
    TSeries,
    Verdicts,
    _at,
    binomial_series,
    check_hopf,
    check_twist,
    convolve,
    gen_antipode,
    gen_coproduct,
    h_rising,
    mono_antipode,
    run_checks,
    twist,
    twist_certificate,
    u_series,
    undeformed_antipode,
    undeformed_coproduct,
)
from wittq.scalars import FpElem, int_coeff, n_coeff

D = ElementP.gen


def test_params_validation():
    with pytest.raises(ValueError):
        HopfParamsP(4, 1)
    with pytest.raises(ValueError):
        HopfParamsP(5, 0)
    with pytest.raises(ValueError):
        HopfParamsP(5, 10)  # 10 = 0 mod 5
    with pytest.raises(ValueError):
        HopfParamsP(2, 1)
    with pytest.raises(ValueError):
        Deformation(5, 4, 1)  # characteristic p is never truncated
    # every field is an int, a bool is not, and the message names the field
    bad = {
        "i": [(5, None, 1.5), (5, None, True)],
        "order": [(0, 2.5, 1)],
        "t": [(5, None, 1, 2.5)],
        "fault": [(5, None, 1, None, True), (0, 2, 1, None, 1.0)],
    }
    for name, cases in bad.items():
        for args in cases:
            with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
                Deformation(*args)
    # a characteristic that is not the int 0 is a modulus, under its one rule
    for char in (5.0, 0.0, False, None):
        with pytest.raises(ValueError, match=f"^p must be an odd prime, got {char}$"):
            Deformation(char, None, 1)
    pp = HopfParamsP(5, 7, t_value=-1)
    assert pp.char == 5 and pp.order is None and pp.i == 2 and pp.t == 4
    # every spelling of one deformation is one value and one memo key
    assert pp == HopfParamsP(5, 2, 4) == Deformation(5, None, 2, 4)
    assert hash(pp) == hash(HopfParamsP(5, 2, 4))
    assert pp != HopfParamsP(5, 2) and pp.at(None) == HopfParamsP(5, 2)


def test_alpha_example():
    a = binomial_series(HopfParamsP(5, 1), -1)
    assert a.degree == 4
    for n in range(5):
        want = ElementP(5, 1, {(tuple(n if j == 1 else 0 for j in range(5)),): 1})
        assert a.coeff(n) == want


def test_alpha_inverse_and_p_power():
    for p, i in ((3, 1), (3, 2), (5, 2), (7, 3)):
        pp = HopfParamsP(p, i)
        a = binomial_series(pp, -1)
        assert binomial_series(pp, 1) * a == PolyP.one(p, 1)
        assert a * binomial_series(pp, 1) == PolyP.one(p, 1)
        assert a**p == PolyP.one(p, 1)


def test_e_nilpotent():
    for p, i in ((3, 1), (5, 2)):
        e = e_element_p(p, i)
        assert (e**p).is_zero()
        assert not (e ** (p - 1)).is_zero()
        assert e_element_p(p, i, p).is_zero()


def test_power_fp_exponent_law():
    for p in (3, 5):
        for i in range(1, p):
            pp = HopfParamsP(p, i)
            for m in range(p):
                for mm in range(p):
                    want = binomial_series(pp, (m + mm) % p)
                    assert binomial_series(pp, m) * binomial_series(pp, mm) == want
                # the binomial series against the repeated product
                assert binomial_series(pp, m) == binomial_series(pp, 1) ** m


def test_power_fp_negative_one_is_alpha():
    for p, i in ((3, 2), (5, 3)):
        pp = HopfParamsP(p, i)
        # (1 - et)^p = 1, so the lifts p - 1 and 2p - 1 of -1 give alpha
        for lift in (p - 1, 2 * p - 1):
            assert binomial_series(pp, lift) == binomial_series(pp, -1)
        assert binomial_series(pp, 0) == PolyP.one(p, 1)


def test_coproduct_degree0_slice():
    for p, i in ((3, 1), (5, 2), (5, 4)):
        pp = HopfParamsP(p, i)
        one = ElementP.one(p)
        for k in range(p):
            dk = coproduct_p(k, pp)
            assert dk.coeff(0) == D(k, p).tensor(one) + one.tensor(D(k, p))


def test_coproduct_k0_shape():
    # Delta(D_0) = D_0 x 1 + 1 x D_0 + sum_{l>=1} i^l D_0 x D_i^l t^l
    for p, i in ((3, 1), (5, 2)):
        pp = HopfParamsP(p, i)
        d0 = coproduct_p(0, pp)
        one = ElementP.one(p)
        assert d0.coeff(0) == D(0, p).tensor(one) + one.tensor(D(0, p))
        for l in range(1, p):
            mono = tuple(l if j == i else 0 for j in range(p))
            want = pow(i, l, p) * D(0, p).tensor(ElementP(p, 1, {(mono,): 1}))
            assert d0.coeff(l) == want
        assert d0.degree <= p - 1


def test_coproduct_h_consequence():
    # Delta(h) = h x alpha + 1 x h
    for p, i in ((3, 1), (5, 2), (7, 3)):
        pp = HopfParamsP(p, i)
        h = h_rising(pp, 0, 1)
        dh = coproduct_poly(PolyP.const(h), pp)
        want = binomial_series(pp, -1).tensor_left(h) + PolyP(p, 2, [ElementP.one(p).tensor(h)])
        assert dh == want


def test_antipode_degree0_slice():
    for p, i in ((3, 1), (5, 3)):
        pp = HopfParamsP(p, i)
        for k in range(p):
            assert antipode_p(k, pp).coeff(0) == -D(k, p)


def test_antipode_h_consequence():
    # the convolution axiom forces S(h) = -h alpha^{-1} = -h (1 - et)
    for p, i in ((3, 1), (5, 2), (7, 3)):
        pp = HopfParamsP(p, i)
        h = PolyP.const(h_rising(pp, 0, 1))
        sh = antipode_poly(h, pp)
        assert sh == -(h * binomial_series(pp, 1))


def test_antipode_convolution_all_generators():
    # m(S x Id) Delta(D_k) = counit(D_k) 1 = 0, symbolic t, p=5, i=2
    p, i = 5, 2
    pp = HopfParamsP(p, i)
    ap = lambda mono: mono_antipode(pp, mono)
    for k in range(p):
        conv = convolve(coproduct_p(k, pp), ap, "left")
        assert conv.is_zero()


def test_counit_p_examples():
    assert counit_p(D(2, 5)) == FpElem(0, 5)
    assert counit_p(ElementP.one(5)) == FpElem(1, 5)
    x = 2 * ElementP.one(5) + 3 * (D(0, 5) * D(1, 5))
    assert counit_p(x) == FpElem(2, 5)


def test_specialize_t():
    pp = HopfParamsP(5, 1)
    a = binomial_series(pp, -1)
    assert a.evaluate(0) == ElementP.one(5)
    for c in range(5):
        ac = a.evaluate(c)
        one_minus_ec = binomial_series(pp, 1).evaluate(c)
        assert ac * one_minus_ec == ElementP.one(5)
    # specialization commutes with the structure maps on generators
    for c in (1, 3):
        ppc = HopfParamsP(5, 1, c)
        for k in range(5):
            assert coproduct_p(k, ppc).coeff(0) == coproduct_p(k, pp).evaluate(c)
            assert antipode_p(k, ppc).coeff(0) == antipode_p(k, pp).evaluate(c)


def test_relations_preserved_small():
    assert verify_relations_preserved(HopfParamsP(3, 1)).ok
    assert verify_relations_preserved(HopfParamsP(3, 2)).ok
    assert verify_relations_preserved(HopfParamsP(5, 1)).ok


def test_relations_mutation_detected():
    rep = verify_relations_preserved(HopfParamsP(3, 1), corrupt_term=1)
    assert not rep.ok
    rep5 = verify_relations_preserved(HopfParamsP(5, 2), corrupt_term=2)
    assert not rep5.ok


def test_relations_check_the_fault_of_a_faulty_deformation():
    # without the keyword the params' own fault is checked, with the entries
    # of the keyword call; the keyword still overrides it
    for p, i, fault in ((3, 1, 1), (5, 2, 2)):
        clean = HopfParamsP(p, i)
        keyword = verify_relations_preserved(clean, corrupt_term=fault)
        assert not keyword.ok
        assert verify_relations_preserved(replace(clean, fault=fault)).entries == keyword.entries
        assert verify_relations_preserved(replace(clean, fault=0), corrupt_term=fault).entries == keyword.entries


def test_hopf_axioms_p3_all_modes():
    for i in (1, 2):
        rep = verify_hopf_p(HopfParamsP(3, i), (None, 0, 1, 2))
        assert rep.ok, rep.summary()


def test_hopf_axioms_p5_symbolic():
    rep = verify_hopf_p(HopfParamsP(5, 3), (None,))
    assert rep.ok, rep.summary()


def test_hopf_axioms_p5_specialized():
    rep = verify_hopf_p(HopfParamsP(5, 3), (1,))
    assert rep.ok, rep.summary()


def test_verifiers_default_to_the_params_t_value():
    pp = HopfParamsP(3, 1, 2)
    rep = verify_hopf_p(pp)
    assert len(rep.entries) == 24
    assert all(dict(e.params)["t"] == "2" for e in rep.entries)
    assert rep.entries == verify_hopf_p(pp, (2,)).entries
    full = verify_all_p(pp)
    assert {dict(e.params).get("t") for e in full.entries} == {"2", None}
    assert full.entries == verify_all_p(pp, (2,)).entries
    assert verify_hopf_p(HopfParamsP(3, 1)).entries == verify_hopf_p(HopfParamsP(3, 1), (None,)).entries


def test_radford_check():
    for p, i in ((3, 1), (3, 2), (5, 2)):
        rep = radford_check(HopfParamsP(p, i))
        assert rep.ok, rep.summary()
        names = {e.identity for e in rep.entries}
        assert names == {
            "h-alpha-commutator",
            "h-p-power",
            "alpha-p-power",
            "coproduct-h",
            "alpha-group-like",
            "antipode-h",
            "counit-h",
            "subalgebra-closed",
        }


def test_radford_generators_invariants():
    for p, i in ((3, 2), (5, 4)):
        pp = HopfParamsP(p, i)
        h, e, a = h_rising(pp, 0, 1), e_element_p(p, i), binomial_series(pp, -1)
        assert (PolyP.const(e) ** p).is_zero()
        assert e == i * D(i, p)
        assert a * binomial_series(pp, 1) == PolyP.one(p, 1)
        # h^p = h by repeated multiplication
        hp = h
        for _ in range(p - 1):
            hp = hp * h
        assert hp == h


def test_noncocommutative_at_t1():
    for p, i in ((3, 1), (5, 2)):
        pp = HopfParamsP(p, i, 1)
        witness = False
        for k in range(p):
            dk = coproduct_p(k, pp).coeff(0)
            if dk != dk.swap():
                witness = True
        assert witness


def test_cocommutative_at_t0():
    for p, i in ((3, 1), (5, 2)):
        pp = HopfParamsP(p, i, 0)
        for k in range(p):
            dk = coproduct_p(k, pp).coeff(0)
            assert dk == dk.swap()


def test_char0_charp_bridge():
    # reduction of the integral char-0 coefficients equals the mod-p table
    for p in (3, 5, 7):
        for i in range(1, p):
            for k in range(p):
                for l in range(p):
                    lhs = int_coeff(i, k - i, l) % p
                    rhs = n_coeff(FpElem(i, p), FpElem(k - i, p), l).residue
                    assert lhs == rhs


def test_coproduct_element_multiplicative_extension():
    pp = HopfParamsP(3, 1)
    x = D(0, 3) * D(1, 3)
    lhs = coproduct_element_p(x, pp)
    rhs = coproduct_p(0, pp) * coproduct_p(1, pp)
    assert lhs == rhs


def test_antipode_element_antimultiplicative():
    pp = HopfParamsP(3, 2)
    x = D(0, 3) * D(2, 3)
    lhs = antipode_element_p(x, pp)
    rhs = antipode_p(2, pp) * antipode_p(0, pp)
    # x = D_0 D_2 exactly (already ordered), so S(x) = S(D_2) S(D_0)
    assert x == ElementP(3, 1, {((1, 0, 1),): 1})
    assert lhs == rhs


@pytest.mark.parametrize("c", range(5))
def test_poly_maps_at_a_residue_evaluate_then_multiply(c):
    # coproduct_poly/antipode_poly at t = c against sum_d c^d Delta(x_d) at t = c
    pp = HopfParamsP(5, 2, c)
    x = PolyP(5, 1, [D(1, 5), D(2, 5) * D(3, 5) + 2 * D(0, 5), ElementP.zero(5), 3 * D(4, 5) * D(4, 5)])
    want_d, want_s = PolyP.zero(5, 2), PolyP.zero(5, 1)
    for d, xd in enumerate(x.coeffs):
        want_d = want_d + coproduct_element_p(xd, pp) * pow(c, d, 5)
        want_s = want_s + antipode_element_p(xd, pp) * pow(c, d, 5)
    assert coproduct_poly(x, pp) == want_d
    assert antipode_poly(x, pp) == want_s


def test_poly_p_trailing_zeros_pruned():
    z = ElementP.zero(5)
    poly = PolyP(5, 1, [D(1, 5), z, z])
    assert poly.degree == 0
    assert PolyP(5, 1, [z]).is_zero()


def test_coproduct_accepts_fp_elem_index():
    pp = HopfParamsP(5, 2)
    assert coproduct_p(FpElem(3, 5), pp) == coproduct_p(3, pp)
    with pytest.raises(ValueError):
        coproduct_p(FpElem(1, 3), pp)


def _hopf_block(p):
    """The Hopf block of a char-p pass: check_hopf on every generator,
    without the bracket."""
    return partial(check_hopf, ks=range(p), bracket=False)


def _forced_direct(block):
    """block with the twist certificate forced false in every module that
    reads it, so that _check_relations computes every commutator and raises
    every p-power directly, and check_hopf computes every Hopf entry: the
    independent oracle of the derivation."""

    def run(verdicts, d):
        with pytest.MonkeyPatch.context() as mp:
            for mod in (series, hopfp):
                mp.setattr(mod, "twist_certificate", lambda d, ks: False)
            block(verdicts, d)

    return run


def _direct(block, p, i, t_values, fault=None):
    """A check block's report built one t at a time, each pass computed at its
    own t, with every entry computed directly."""
    rep = VerificationReport()
    for tv in t_values:
        verdicts = Verdicts()
        _forced_direct(block)(verdicts, Deformation(p, None, i, tv, fault))
        rep.extend(verdicts.reports[0])
    return rep


def _derived_and_direct(p, i, block, fault):
    """The entries of one check block over symbolic t and every residue: from
    the one pass at symbolic t, and from a direct pass per t."""
    ts = (None, *range(p))
    return run_checks(Deformation(p, None, i, None, fault), ts, block).entries, _direct(block, p, i, ts, fault).entries


@pytest.mark.parametrize("p", (3, 5))
def test_derived_entries_equal_direct(p, map_cells):
    # every i, every t, clean and with each corrupted coefficient; the cells
    # are independent, so they run side by side
    cells = [
        (p, i, block, fault)
        for fault in (None, 0, 1, 2)
        for i in range(1, p)
        for block in (_check_relations, _hopf_block(p))
    ]
    witnessed = 0
    for derived, direct in map_cells(_derived_and_direct, cells):
        assert derived == direct
        witnessed += sum(1 for e in direct if not e.passed and e.witness)
    assert witnessed > 0


def test_verify_all_p_t_values_unnormalized_and_repeated():
    p, i, ts = 5, 2, (None, 6, 1, -4)
    rep = verify_all_p(HopfParamsP(p, i), ts)
    want = _direct(_check_relations, p, i, ts)
    want.extend(_direct(_hopf_block(p), p, i, ts))
    want.extend(radford_check(HopfParamsP(p, i)))
    assert rep.entries == want.entries
    labels = [dict(e.params)["t"] for e in rep.entries if e.identity == "coassociativity" and dict(e.params)["k"] == "0"]
    assert labels == ["symbolic", "1", "1", "1"]


def test_every_request_computes_at_symbolic_t_only(monkeypatch):
    # with or without symbolic t, a request asks the structure maps for
    # symbolic t only, and a residue's entries evaluate the symbolic sides; a
    # fault has every entry computed, so both show, and a clean request
    # computes nothing but the twist certificate
    seen, depth = set(), [0]

    def recorder(name, fn):
        def rec(*args):
            if not depth[0]:
                seen.add("evaluated" if name == "_at" else args[0].t)
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1

        return rec

    for name in ("gen_coproduct", "gen_antipode", "mono_coproduct", "mono_antipode", "_at"):
        rec = recorder(name, getattr(series, name))
        for mod in (series, hopfp):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, rec)
    monkeypatch.setattr(hopfp, "radford_check", lambda params: VerificationReport())

    for t_values in ((1, 3), (None, 1)):
        seen.clear()
        assert not verify_all_p(Deformation(5, None, 2, fault=1), t_values).ok
        assert seen == {None, "evaluated"}, t_values
        seen.clear()
        assert verify_all_p(HopfParamsP(5, 2), t_values).ok
        assert seen <= {None}, t_values


@pytest.mark.parametrize("p", (3, 5, 7))
def test_sigma_is_equivariant_for_every_direction(p):
    # sigma = phi_-1 carries direction i to direction -i, t unchanged
    assert all(phi_equivariant(HopfParamsP(p, i), -1) for i in range(1, p))


@pytest.mark.parametrize("p", (5, 7))
def test_phi_is_equivariant_for_every_direction(p):
    # phi_m carries direction i at m^2 t to direction mi at t, for every i
    # and every m other than 1 and -1
    for i in range(1, p):
        assert all(phi_equivariant(HopfParamsP(p, i), m) for m in range(2, p - 1)), i


@pytest.mark.parametrize("p", (3, 5))
def test_pair_reports_equal_direct_reports(p):
    # every direction i and its mirror p - i, from verify_all_i started at
    # direction 1 or at p - 1: at symbolic t with a residue, at symbolic t
    # and at a residue alone
    for t_values in ((None, 1), (None,), (2,)):
        want = [verify_all_p(HopfParamsP(p, i), t_values).entries for i in range(1, p)]
        for start in (1, p - 1):
            got = verify_all_i(HopfParamsP(p, start), t_values)
            assert [rep.entries for rep in got] == want, (t_values, start)


def test_pair_keeps_the_fault_in_the_mirror_direction():
    # a faulty direction 1 never passes, so its mirror and every other
    # direction are checked directly, and with the same fault
    reps = verify_all_i(Deformation(5, None, 1, fault=1), (None,))
    assert not any(rep.ok for rep in reps)
    for i, rep in enumerate(reps[1:], 2):
        assert rep.entries == verify_all_p(Deformation(5, None, i, fault=1)).entries, i


def test_faulty_run_shares_the_maps_no_fault_changes():
    # the fault changes only the coproduct maps: a faulty deformation is
    # handed the clean memo entry of every other map, the same object
    clean, faulty = HopfParamsP(5, 1), Deformation(5, None, 1, fault=1)
    samples = [
        (h_rising, (0, 2)),
        (h_rising, (1, 3)),
        (binomial_series, (Fraction(3),)),
        (binomial_series, (-1,)),
        (series.gen_antipode, (2,)),
        (mono_antipode, ((1, 2, 0, 0, 1),)),
    ]
    for fn, args in samples:
        assert fn(faulty, *args) is fn(clean, *args), (fn.__name__, args)
    assert not verify_all_p(faulty).ok


# -- the twist route mod p ------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_twist_conjugates_the_undeformed_maps_mod_p(p):
    # F Delta(D_k) = Delta_0(D_k) F and u S(D_k) = S_0(D_k) u, exactly at symbolic t
    for i in range(1, p):
        d = Deformation(p, None, i)
        rep = run_checks(d, (None,), check_twist)
        assert rep.ok and len(rep.entries) == 3, rep.summary()
        F, u = twist(d), u_series(d)
        for k in range(p):
            assert F * gen_coproduct(d, k) == undeformed_coproduct(d, d.gen(k)) * F, (i, k)
            assert u * gen_antipode(d, k) == undeformed_antipode(d, d.gen(k)) * u, (i, k)


@pytest.mark.parametrize("p", [3, 5])
def test_every_fault_breaks_the_twist_conjugation(p):
    for i in range(1, p):
        d = Deformation(p, None, i)
        F = twist(d)
        for fault in range(p):
            bad = replace(d, fault=fault)
            for k in range(p):
                assert F * gen_coproduct(bad, k) != undeformed_coproduct(d, d.gen(k)) * F, (i, fault, k)


def test_twist_at_a_residue_is_the_symbolic_twist_evaluated():
    for p, i in ((3, 2), (5, 1), (7, 3)):
        d = Deformation(p, None, i)
        for c in range(p):
            assert twist(d.at(c)) == _at(twist(d), c), (p, i, c)
            assert u_series(d.at(c)) == _at(u_series(d), c), (p, i, c)


# -- the relation entries derived from the twist ----------------------------------


_TWIST_IDENTITIES = {"twist-cocycle", "twist-counit-left", "twist-counit-right"}


def _checked_identities(monkeypatch):
    """The relation and Hopf identities that go through Verdicts.check from
    now on, i.e. are computed rather than recorded, in call order; the twist
    certificate's own check_twist block is left out."""
    seen, check = [], Verdicts.check

    def spy(self, identity, *args):
        if identity not in _TWIST_IDENTITIES:
            seen.append(identity)
        return check(self, identity, *args)

    monkeypatch.setattr(Verdicts, "check", spy)
    return seen


def _blocks_derived_and_direct(d, t_values, blocks=None):
    """The entries of each block of d over t_values (by default the relation
    entries, then the Hopf entries), as the blocks give them and with every
    entry computed directly, and the identities the first run computed."""
    blocks = blocks or (_check_relations, _hopf_block(d.char))
    with pytest.MonkeyPatch.context() as mp:
        checked = _checked_identities(mp)
        derived = [e for block in blocks for e in run_checks(d, t_values, block).entries]
    direct = [e for block in blocks for e in run_checks(d, t_values, _forced_direct(block)).entries]
    return derived, direct, checked


_RELATION_IDENTITIES = {"coproduct-commutator", "antipode-commutator", "coproduct-p-power", "antipode-p-power"}
_HOPF_IDENTITIES = {"coassociativity", "counit-left", "counit-right", "antipode-left", "antipode-right", "coproduct-multiplicative"}


@pytest.mark.parametrize("p", (3, 5))
def test_derived_p_powers_equal_direct_p_powers(p, map_cells):
    # every i, symbolic t with every residue and residues alone; the
    # certificate holds, so no relation or Hopf entry is computed on the
    # derived side
    requests = ((None, *range(p)), (1, 3))
    cells = [(Deformation(p, None, i), ts) for i in range(1, p) for ts in requests]
    for derived, direct, checked in map_cells(_blocks_derived_and_direct, cells):
        assert derived == direct
        assert len(derived) == len(direct) > 0 and all(e.passed for e in derived)
        assert {e.identity for e in derived} == _RELATION_IDENTITIES | _HOPF_IDENTITIES
        assert checked == []
    for i in range(1, p):
        for t in (None, *range(p)):
            assert twist_certificate(Deformation(p, None, i, t), range(p)), (i, t)


def test_a_warm_certified_pass_computes_nothing(monkeypatch):
    # the char-p twin of test_hopf0's certified-block test: after a warm-up
    # run the certificate holds, so neither block multiplies, raises a power,
    # maps a tensor slot or convolves, not even for a side it then discards
    d, ts = Deformation(5, None, 2), (None, 1, 3)
    blocks = (_check_relations, _hopf_block(5))
    want = [run_checks(d, ts, block).entries for block in blocks]
    assert twist_certificate(d, range(5)) and all(e.passed for entries in want for e in entries)
    calls = []

    def spy(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(TSeries, "__mul__", spy("mul", TSeries.__mul__))
    monkeypatch.setattr(TSeries, "__pow__", spy("pow", TSeries.__pow__))
    for name in ("slot_apply", "convolve"):
        monkeypatch.setattr(series, name, spy(name, getattr(series, name)))
    assert [run_checks(d, ts, block).entries for block in blocks] == want
    assert calls == []


def test_derived_relations_equal_direct_relations_at_p7(map_cells):
    # p = 7 over symbolic t and every residue: both blocks at i = 1 and the
    # Hopf block at every other i.  The forced direct relations (6-14 s a
    # direction) are the slow side; the verify-p7-* goldens, recorded from
    # direct passes, pin both blocks at every i
    ts = (None, *range(7))
    cells = [(Deformation(7, None, 1), ts)] + [(Deformation(7, None, i), ts, (_hopf_block(7),)) for i in range(2, 7)]
    sizes = []
    for derived, direct, checked in map_cells(_blocks_derived_and_direct, cells):
        assert derived == direct and checked == [] and all(e.passed for e in derived)
        sizes.append(len(derived))
    assert sizes == [8 * (2 * 7 * 7 + 2 * 7 + 5 * 7 + 7 * 7)] + [8 * (5 * 7 + 7 * 7)] * 5


@pytest.mark.parametrize("p", (3, 5))
def test_every_fault_takes_the_direct_power_path(p, map_cells):
    # the certificate fails for every fault and direction, whatever the t of
    # the deformation it is asked about (a fault of degree l falsifies a
    # summand of t^l)
    for i in range(1, p):
        for fault in range(p):
            for t in (None, 1):
                assert not twist_certificate(Deformation(p, None, i, t, fault), range(p)), (i, fault, t)
    # so every relation and Hopf entry is computed directly, with the witness
    # it had before
    cells = [(Deformation(p, None, 1, None, fault), (None, *range(p))) for fault in range(p)]
    for derived, direct, checked in map_cells(_blocks_derived_and_direct, cells):
        assert derived == direct
        assert any(not e.passed and e.witness for e in derived if e.identity.endswith("p-power"))
        # one Verdicts.check per entry at symbolic t, the pass's own t
        assert checked == [e.identity for e in derived if dict(e.params)["t"] == "symbolic"]


def _assert_direct_in_both_blocks(d):
    """Every relation and Hopf entry of d is computed, once, at symbolic t and
    at t = 1, and equals the forced-direct entry; return the entries."""
    derived, direct, checked = _blocks_derived_and_direct(d, (None, 1))
    assert derived == direct
    assert checked == [e.identity for e in derived if dict(e.params)["t"] == "symbolic"]
    assert set(checked) == _RELATION_IDENTITIES | _HOPF_IDENTITIES
    return derived


@pytest.mark.parametrize("name", ("twist", "u_series"))
def test_corrupted_twist_takes_the_direct_power_path(name, monkeypatch, fresh_certificate):
    # 2F - 1 (or 2u - 1) is still 1 at t^0 and unipotent, but conjugates no
    # more; the corruption reaches the certificate only, not the maps it
    # checks, so every entry still passes, computed.  u is built from F, so
    # its memo entry is filled first, from the real F
    u_series(HopfParamsP(3, 1))
    real = getattr(series, name)
    monkeypatch.setattr(series, name, lambda d: real(d) * 2 - 1)
    for t in (None, 1):
        assert not twist_certificate(HopfParamsP(3, 1, t), range(3)), t
    assert all(e.passed for e in _assert_direct_in_both_blocks(HopfParamsP(3, 1)))


def test_failing_cocycle_takes_the_direct_path(monkeypatch, fresh_certificate):
    # the conjugation holds, but a check_twist block forced to fail breaks the
    # certificate: both blocks compute every entry
    d = HopfParamsP(3, 2)
    assert twist_certificate(d, range(3))
    twist_certificate.cache_clear()

    def failing(verdicts, d):
        verdicts.record("twist-cocycle", d.point, False, "forced")

    monkeypatch.setattr(series, "check_twist", failing)
    assert not twist_certificate(d, range(3))
    assert all(e.passed for e in _assert_direct_in_both_blocks(d))


def test_certificate_memo_keys_on_symbolic_t(fresh_certificate):
    # the certificate always checks at symbolic t, so asking about a residue
    # after symbolic t finds the memo entry the first call made
    d = HopfParamsP(7, 3)
    assert twist_certificate(d, range(7))
    before = twist_certificate.cache_info()
    assert twist_certificate(d.at(1), range(7))
    after = twist_certificate.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_p7_powers_vanish_directly():
    # criterion 8 now derives its p = 7 powers, so one is still raised here:
    # Delta(D_2)^7 = 0 and S(D_2)^7 = 0 at i = 1, t = 1
    pp = HopfParamsP(7, 1, 1)
    assert (coproduct_p(2, pp) ** 7).is_zero()
    assert (antipode_p(2, pp) ** 7).is_zero()
