"""Acceptance suite: every identity the library stands on, checked at full
scale with exact arithmetic (zero tolerance everywhere), one pass/fail line
per criterion."""

import random
import time
from dataclasses import replace

from wittq import cli, hopfp
from wittq.hopf0 import (
    HopfParams,
    antipode_closed,
    antipode_general,
    antipode_twist,
    cobracket_semiclassical,
    cocycle_check,
    coproduct_closed,
    coproduct_twist,
    verify_hopf0,
)
from wittq.hopfp import (
    HopfParamsP,
    radford_check,
    verify_relations_preserved,
)
from wittq.restricted import basis_size, verify_witt_iso, act_derivation
from wittq.scalars import FpElem, int_coeff, n_coeff
from wittq.uwitt import Element

L = Element.gen


def report(num, passed, text, t0=None):
    took = f" ({time.perf_counter() - t0:.1f}s)" if t0 is not None else ""
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {text}{took}")
    assert passed, f"criterion {num} failed: {text}"


def test_criterion_01_twist_cocycle():
    t0 = time.perf_counter()
    ok = all(cocycle_check(HopfParams(i, 6)).ok for i in (1, 2, 3))
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 60, "twist cocycle exact to t^6 for i in {1,2,3}, under 1 minute", t0)


def test_criterion_02_coproduct_cross_route():
    t0 = time.perf_counter()
    ok = True
    for i in (1, 2, 3):
        params = HopfParams(i, 5)
        for k in range(-4, 5):
            ok = ok and coproduct_closed(k, params) == coproduct_twist(L(k), params)
    report(2, ok, "closed-form coproduct == twist conjugation to t^5, k in [-4,4], i in {1,2,3}", t0)


def test_criterion_03_antipode_triple_agreement():
    t0 = time.perf_counter()
    ok = True
    for i in (1, 2, 3):
        params = HopfParams(i, 4)
        for k in range(-3, 4):
            a = antipode_closed(k, params)
            ok = ok and a == antipode_twist(L(k), params)
            ok = ok and a == antipode_general(L(k), params)
        for a_idx in range(-2, 3):
            for b_idx in range(-2, 3):
                x = L(a_idx) * L(b_idx)
                ok = ok and antipode_general(x, params) == antipode_twist(x, params)
    report(3, ok, "antipode closed == conjugation == graded formula, generators and 2-letter products, to t^4", t0)


def test_criterion_04_char0_hopf_axioms():
    t0 = time.perf_counter()
    ok = all(verify_hopf0(HopfParams(i, 4), range(-3, 4)).ok for i in (1, 2))
    report(4, ok, "char-0 Hopf axiom suite to t^4 for k in [-3,3], i in {1,2}", t0)


def test_criterion_05_semiclassical_limit():
    t0 = time.perf_counter()
    ok = True
    for i in (1, 2, 3):
        for k in range(-5, 6):
            delta = cobracket_semiclassical(k, i)  # raises on route mismatch
            want = -k * (L(k).tensor(L(i)) - L(i).tensor(L(k))) + (i - k) * (
                L(0).tensor(L(k + i)) - L(k + i).tensor(L(0))
            )
            ok = ok and delta == want
    report(5, ok, "order-t cobracket equals the r-matrix bracket for k in [-5,5], i in {1,2,3}", t0)


def test_criterion_06_integrality():
    t0 = time.perf_counter()
    ok = True
    for a in range(-20, 21):
        for k in range(-20, 21):
            for l in range(13):
                int_coeff(a, k, l)  # raises ExactDivisionError on any remainder
    elapsed = time.perf_counter() - t0
    report(6, ok and elapsed < 5.0, f"exact division holds on all {41*41*13} coefficient cases, under 5s", t0)


def test_criterion_07_mod_p_well_definedness():
    t0 = time.perf_counter()
    random.seed(97)
    ok = True
    for p in (3, 5, 7):
        base_params = []
        for _ in range(1000):
            a, k, l = random.randrange(p), random.randrange(p), random.randrange(p)
            want = n_coeff(FpElem(a, p), FpElem(k, p), l).residue
            a_lift = a + p * random.randrange(-50, 51)
            k_lift = k + p * random.randrange(-50, 51)
            ok = ok and int_coeff(a_lift, k_lift, l) % p == want
    report(7, ok, "1000 random lift pairs per p in {3,5,7} share one residue (l < p)", t0)


def test_criterion_08_charp_relations_and_axioms():
    t0 = time.perf_counter()
    # independent (p, i) cells, the slowest first, on the verify --all-i pool:
    # p=7: i in {1,3}, t in {0,1} (each t directly at its residue)
    # p=5: all i, symbolic t
    # p=3: all i, symbolic plus every specialization
    # each cell derives its p-power entries from the twist conjugation, checked
    # at its own t; tests/test_hopfp.py raises a p = 7 power directly
    cells = [(HopfParamsP(7, i), (0, 1)) for i in (1, 3)]
    cells += [(HopfParamsP(5, i), (None,)) for i in (1, 2, 3, 4)]
    cells += [(HopfParamsP(3, i), (None, 0, 1, 2)) for i in (1, 2)]
    ok = all(rep.ok for rep in cli._map_cells(hopfp.verify_all_p, cells))
    elapsed = time.perf_counter() - t0
    report(8, ok and elapsed < 600, "char-p relation preservation and Hopf axioms on the full grid, under 10 minutes", t0)


def test_criterion_09_radford_subalgebra():
    t0 = time.perf_counter()
    ok = True
    grid = [(3, (1, 2)), (5, (1, 2, 3, 4)), (7, (1, 3))]
    for p, i_values in grid:
        for i in i_values:
            ok = ok and radford_check(HopfParamsP(p, i)).ok
    report(9, ok, "distinguished (h, e, alpha) subalgebra relations for p in {3,5,7}, all tested i", t0)


def test_criterion_10_dimension():
    t0 = time.perf_counter()
    ok = basis_size(3) == 27 and basis_size(5) == 3125 and basis_size(7) == 823543
    report(10, ok, "basis enumeration gives 27 and 3125; arithmetic count gives 823543", t0)


def test_criterion_11_witt_isomorphism():
    t0 = time.perf_counter()
    ok = all(verify_witt_iso(p).ok for p in (3, 5, 7))
    for p in (3, 5, 7):
        for k in range(p):
            for l in range(p):
                for m in range(p):
                    c1, e1 = act_derivation(l, m, p)
                    c2, _ = act_derivation(k, e1, p)
                    d1, f1 = act_derivation(k, m, p)
                    d2, _ = act_derivation(l, f1, p)
                    comm = (c1.residue * c2.residue - d1.residue * d2.residue) % p
                    wc, _ = act_derivation((k + l) % p, m, p)
                    ok = ok and comm == (((l - k) % p) * wc.residue) % p
    report(11, ok, "truncated-basis embedding is a Lie isomorphism; derivation model reproduces all brackets", t0)


def test_criterion_12_char0_charp_bridge():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        for i in range(1, p):
            for k in range(p):
                for l in range(p):
                    lhs = int_coeff(i, k - i, l) % p
                    rhs = n_coeff(FpElem(i, p), FpElem(k - i, p), l).residue
                    ok = ok and lhs == rhs
    report(12, ok, "char-0 integral coefficients reduce mod p to the char-p table for all l < p", t0)


def test_criterion_13_mutation_sensitivity():
    t0 = time.perf_counter()
    clean0 = verify_hopf0(HopfParams(1, 3), range(-2, 3)).ok
    mutated0 = verify_hopf0(replace(HopfParams(1, 3), fault=1), range(-2, 3)).ok
    cleanp = verify_relations_preserved(HopfParamsP(3, 1)).ok
    mutatedp = verify_relations_preserved(HopfParamsP(3, 1), corrupt_term=1).ok
    mutatedp2 = verify_relations_preserved(HopfParamsP(5, 2), corrupt_term=2).ok
    ok = clean0 and cleanp and not mutated0 and not mutatedp and not mutatedp2
    report(13, ok, "single-sign / single-coefficient corruption makes the suites fail; clean runs pass", t0)
