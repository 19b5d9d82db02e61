"""The characteristic-p structure maps are the characteristic-0 formulas read
mod p: reducing the whole char-0 coproduct and antipode of L_k (L_k to
D_{k mod p}, coefficients mod p) gives the char-p maps of D_k exactly.

The char-0 side is truncated at t^(2p-2), the top degree of the char-p maps;
up to there every char-0 coefficient is p-integral, so the reduction is
defined.  The same holds for the twist F and u = m(S_0 (x) Id)(F), whose
char-p sums stop below t^p.
"""

import pytest

from wittq.hopf0 import HopfParams, antipode_closed, coproduct_closed
from wittq.hopfp import HopfParamsP, PolyP, antipode_p, coproduct_p
from wittq.restricted import ElementP
from wittq.series import twist, u_series


def _reduce_mono(mono, p):
    """The PBW monomial L_{k1}^{m1} ... as the product D_{k1}^{m1} ... in char p."""
    out = ElementP.one(p)
    for k, m in mono:
        out = out * ElementP.gen(k, p) ** m
    return out


def _reduce(x, p):
    """Reduce a char-0 tensor element mod p, factorwise."""
    out = ElementP.zero(p, x.rank)
    for key, c in x.terms.items():
        term = _reduce_mono(key[0], p)
        for mono in key[1:]:
            term = term.tensor(_reduce_mono(mono, p))
        out = out + c * term
    return out


def _reduce_series(s, p):
    return PolyP(p, s.rank, [_reduce(c, p) for c in s.coeffs])


def _lifts(p):
    return [j for i in range(1, p) for j in (i - p, i, i + p)]


@pytest.mark.parametrize("p", [3, 5])
def test_char0_maps_reduce_to_charp_maps(p):
    for i in _lifts(p):
        params, pp = HopfParams(i, 2 * p - 2), HopfParamsP(p, i)
        for k in range(-p, 2 * p):
            assert _reduce_series(coproduct_closed(k, params), p) == coproduct_p(k, pp), (p, i, k)
            assert _reduce_series(antipode_closed(k, params), p) == antipode_p(k, pp), (p, i, k)


@pytest.mark.parametrize("p", [3, 5])
def test_char0_twist_reduces_to_charp_twist(p):
    for i in _lifts(p):
        params, pp = HopfParams(i, p - 1), HopfParamsP(p, i)
        assert _reduce_series(twist(params), p) == twist(pp), (p, i)
        assert _reduce_series(u_series(params), p) == u_series(pp), (p, i)
