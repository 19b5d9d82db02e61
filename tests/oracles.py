"""Reference maps only the tests use: the presentation of both Witt algebras
written out by hand, the oracles that wittq's kernels and structure maps are
checked against."""

from fractions import Fraction
from itertools import groupby

from wittq.restricted import ElementP, _residue, gen_mono
from wittq.scalars import FpElem, check_odd_prime
from wittq.series import counit
from wittq.uwitt import Element

# -- characteristic 0 -----------------------------------------------------------


def normal_order(word) -> Element:
    """Canonical form of the product of generators listed by index, by
    rewriting alone: the rightmost out-of-order adjacent pair L_a L_b (a > b)
    becomes L_b L_a + (b - a) L_{a+b}, worklist style, with no memo and
    nothing shared with the multiply kernel."""
    pending = [(list(word), Fraction(1))]
    acc = {}
    while pending:
        w, c = pending.pop()
        pos = next((j for j in range(len(w) - 2, -1, -1) if w[j] > w[j + 1]), None)
        if pos is None:
            key = tuple((k, len(list(run))) for k, run in groupby(w))
            acc[key] = acc.get(key, 0) + c
            continue
        a, b = w[pos], w[pos + 1]
        pending.append((w[:pos] + [b, a] + w[pos + 2 :], c))
        pending.append((w[:pos] + [a + b] + w[pos + 2 :], c * (b - a)))
    return Element(1, {(m,): v for m, v in acc.items()})


def act_on_laurent(k: int, m: int) -> tuple[int, int]:
    """Action of L_k = x^{k+1} d/dx on the Laurent monomial x^m."""
    return (m, m + k)


# -- characteristic p -----------------------------------------------------------


def bracket_p(k, l, p: int | None = None) -> ElementP:
    """[D_k, D_l] = (l - k) D_{(k+l) mod p}."""
    k, p = _residue(k, p)
    l, p = _residue(l, p)
    return ElementP(p, 1, {(gen_mono(k + l, p),): (l - k) % p})


def basis_size(p: int) -> int:
    """Dimension of the restricted enveloping algebra: p^p exponent vectors."""
    check_odd_prime(p)
    return p**p


def act_derivation(k, m: int, p: int | None = None) -> tuple[FpElem, int]:
    """D_k . X^m = m X^{(m+k) mod p} in Der(F_p[X]/(X^p - 1))."""
    k, p = _residue(k, p)
    return FpElem(m, p), (m + k) % p


def p_power_map(k, p: int | None = None) -> ElementP:
    """The restricted p-power of a generator: D_0 for k = 0, zero otherwise."""
    k, p = _residue(k, p)
    if k == 0:
        return ElementP.gen(0, p)
    return ElementP.zero(p)


def counit_p(x: ElementP) -> FpElem:
    """Algebra morphism to F_p killing every generator."""
    return FpElem(counit(x), x.p)
