import random
from fractions import Fraction
from math import comb, factorial

import pytest

from wittq.scalars import ExactDivisionError, FpElem, check_odd_prime, gen_binomial, int_coeff, is_prime, n_coeff


def brute_coeff(a, k, l):
    # independent evaluation path: exact rational, checked integral afterwards
    num = Fraction(a) ** l
    for j in range(l):
        num *= k + j * a
    return num / factorial(l)


def test_int_coeff_examples():
    assert int_coeff(2, 1, 0) == 1
    assert int_coeff(3, 0, 2) == 0
    assert int_coeff(2, 1, 2) == 6  # 4*(1*3)/2
    assert int_coeff(-1, 5, 3) == -10  # (-1)*(5*4*3)/6


def test_int_coeff_matches_rational_path():
    for a in range(-8, 9):
        for k in range(-8, 9):
            for l in range(7):
                val = brute_coeff(a, k, l)
                assert val.denominator == 1
                assert int_coeff(a, k, l) == val.numerator


def test_int_coeff_rejects_negative_l():
    with pytest.raises(ValueError):
        int_coeff(1, 1, -1)


def test_exact_division_error_is_detectable():
    # the guard itself: a deliberately broken numerator would leave a remainder
    with pytest.raises(ExactDivisionError):
        q, r = divmod(7, 2)
        if r:
            raise ExactDivisionError("sanity")


def test_n_coeff_examples():
    assert n_coeff(FpElem(2, 5), FpElem(1, 5), 2) == FpElem(1, 5)  # 6 mod 5
    # well-definedness cross-check via a different lift: 7, 6 lift 2, 1 mod 5
    assert int_coeff(7, 6, 2) == 1911
    assert 1911 % 5 == 1
    assert n_coeff(FpElem(2, 5), FpElem(1, 5), 2).residue == 1911 % 5
    for a in range(1, 5):
        assert n_coeff(FpElem(a, 5), FpElem(0, 5), 1) == FpElem(0, 5)


def test_n_coeff_mismatched_moduli():
    with pytest.raises(ValueError):
        n_coeff(FpElem(1, 3), FpElem(1, 5), 1)


def test_n_coeff_lift_independence():
    random.seed(2024)
    for p in (3, 5, 7):
        for _ in range(300):
            a = random.randrange(p)
            k = random.randrange(p)
            l = random.randrange(p)
            base = n_coeff(FpElem(a, p), FpElem(k, p), l).residue
            at = a + p * random.randrange(-6, 7)
            kt = k + p * random.randrange(-6, 7)
            assert int_coeff(at, kt, l) % p == base


def test_n_coeff_undefined_at_l_equals_p():
    # lift-independence genuinely breaks once p divides l!: these two lifts of
    # (1, 0) mod 3 disagree at l = 3, so n_coeff refuses that range
    assert int_coeff(1, 0, 3) % 3 == 0
    assert int_coeff(1, 3, 3) % 3 == 1
    with pytest.raises(ValueError):
        n_coeff(FpElem(1, 3), FpElem(0, 3), 3)


def test_gen_binomial_examples():
    assert gen_binomial(Fraction(17, 3), 0) == 1
    assert gen_binomial(3, 2) == 3
    assert gen_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)


def test_gen_binomial_matches_comb_for_integers():
    for q in range(9):
        for n in range(9):
            assert gen_binomial(q, n) == comb(q, n)


def test_gen_binomial_pascal_recurrence():
    for num in range(-6, 7):
        for den in (1, 2, 3):
            q = Fraction(num, den)
            for n in range(1, 8):
                assert gen_binomial(q, n) == gen_binomial(q - 1, n) + gen_binomial(q - 1, n - 1)


def test_gen_binomial_vs_int_coeff_combination():
    # exact cross-path identity: int_coeff(-i, k, n) = (-1)^n i^(2n) genbinom(k/i, n)
    for i in (1, 2, 3, -2):
        for k in range(-6, 7):
            for n in range(6):
                lhs = Fraction(int_coeff(-i, k, n))
                rhs = Fraction(-1) ** n * Fraction(i) ** (2 * n) * gen_binomial(Fraction(k, i), n)
                assert lhs == rhs


def test_fp_elem_arithmetic():
    a = FpElem(3, 5)
    b = FpElem(4, 5)
    assert a + b == FpElem(2, 5)
    assert a - b == FpElem(4, 5)
    assert a * b == FpElem(2, 5)
    assert -a == FpElem(2, 5)
    assert a.inverse() * a == FpElem(1, 5)
    assert (a / b) * b == a
    assert a**3 == FpElem(27 % 5, 5)
    assert a + 2 == FpElem(0, 5)
    assert a.lift() == 3


def test_fp_elem_hash_agrees_with_eq():
    # a residue equals only residues, so equal objects always hash alike
    assert FpElem(1, 3) != 4 and FpElem(0, 5) != 0
    assert len({FpElem(1, 3), 4}) == 2
    assert len({FpElem(1, 3), FpElem(4, 3)}) == 1
    assert FpElem(1, 3) != FpElem(1, 5)


def test_fp_elem_rejects_bad_modulus():
    for bad in (0, 1, 2, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            FpElem(1, bad)


def test_fp_elem_value_is_an_int():
    for bad in (2.5, 3.0, True, Fraction(1, 2)):
        with pytest.raises(ValueError, match="^value must be an int, got "):
            FpElem(bad, 5)
    # a bool is no scalar on the right of an operator either
    with pytest.raises(TypeError):
        FpElem(1, 5) + True


def test_fp_elem_mixed_moduli():
    with pytest.raises(ValueError):
        FpElem(1, 3) + FpElem(1, 5)


def test_fp_elem_zero_inverse():
    with pytest.raises(ZeroDivisionError):
        FpElem(0, 5).inverse()


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("p", [-3, 1, 2, 4, 9, 15, 7.0])
def test_one_odd_prime_rule(p):
    # FpElem, Deformation and the restricted algebra share the rule and its message
    from oracles import basis_size
    from wittq.restricted import ElementP, embed_witt, verify_witt_iso
    from wittq.series import Deformation

    with pytest.raises(ValueError) as rule:
        check_odd_prime(p)
    assert str(rule.value) == f"p must be an odd prime, got {p}"
    checks = [
        lambda: FpElem(1, p),
        lambda: Deformation(p, None, 1),
        lambda: ElementP(p),
        lambda: basis_size(p),
        lambda: embed_witt(0, p),
        lambda: verify_witt_iso(p),
    ]
    for check in checks:
        with pytest.raises(ValueError) as exc:
            check()
        assert str(exc.value) == str(rule.value)
