"""Polynomial Hopf deformations of the restricted enveloping algebra.

For an odd prime p and i in F_p - {0}, set h = (1/i) D_0 and e = i D_i.  Since
e^p = 0, the element 1 - et is invertible with polynomial inverse
alpha = sum_{n<p} e^n t^n, and (1 - et)^p = 1 makes powers by F_p exponents
well-defined.  The deformed coalgebra maps are

    coproduct(D_k) = D_k (x) (1-et)^(k/i)
                     + sum_{l=0}^{p-1} (-1)^l N_l h^(l) (x) (1-et)^(-l) D_{k+li} t^l
    antipode(D_k)  = -(1-et)^(-k/i) sum_{l=0}^{p-1} N_l D_{k+li} (h+1)^(l) t^l

with N_l = n_coeff(i, k-i, l).  Everything is an exact polynomial in t (never
truncated), and t can be specialized to any residue.  The sums run over the
full printed range even where coefficients vanish; vanishing is a checked
property, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .report import VerificationReport
from .restricted import ElementP, MonoP, one_mono
from .scalars import FpElem, is_prime, n_coeff, rising
from .series import TSeries, check_generator, element_image, first_mismatch, mono_image
from .tensor import commutator


@dataclass(frozen=True)
class HopfParamsP:
    """Prime p, deformation direction i (nonzero mod p), and the t mode:
    t_value None keeps t symbolic, an int specializes t to that residue."""

    p: int
    i: int
    t_value: int | None = None

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.i % self.p == 0:
            raise ValueError("i must be nonzero mod p")
        object.__setattr__(self, "i", self.i % self.p)
        if self.t_value is not None:
            object.__setattr__(self, "t_value", self.t_value % self.p)


class PolyP(TSeries):
    """Exact polynomial in t with ElementP coefficients (no truncation)."""

    __slots__ = ()

    def __init__(self, p: int, rank: int, coeffs=()):
        self._init(None, rank, ElementP.zero(p, rank), coeffs, check=True)

    @staticmethod
    def zero(p: int, rank: int = 1) -> "PolyP":
        return PolyP(p, rank)

    @staticmethod
    def one(p: int, rank: int = 1) -> "PolyP":
        return PolyP(p, rank, [ElementP.one(p, rank)])

    @staticmethod
    def const(x: ElementP) -> "PolyP":
        return PolyP(x.p, x.rank, [x])


# the shared mismatch finder, under the name perfbench/spans.py times
first_mismatch_p = first_mismatch


# -- distinguished elements -----------------------------------------------------


def h_element_p(p: int, i: int) -> ElementP:
    """h = (1/i) D_0."""
    return pow(i, p - 2, p) * ElementP.gen(0, p)


def e_element_p(p: int, i: int, n: int = 1) -> ElementP:
    """e^n with e = i D_i; zero once n reaches p."""
    if n == 0:
        return ElementP.one(p)
    if n >= p:
        return ElementP.zero(p)
    mono = tuple(n if j == i % p else 0 for j in range(p))
    return ElementP.from_mono(p, mono, pow(i, n, p))


@lru_cache(maxsize=None)
def _h_rising_p(l: int, p: int, i: int) -> ElementP:
    return rising(h_element_p(p, i), l)


@lru_cache(maxsize=None)
def _h_plus_one_rising_p(l: int, p: int, i: int) -> ElementP:
    return rising(h_element_p(p, i) + 1, l)


def alpha(params: HopfParamsP) -> PolyP:
    """(1 - et)^{-1} = sum_{n<p} e^n t^n, exact because e^p = 0."""
    p, i = params.p, params.i
    return PolyP(p, 1, [e_element_p(p, i, n) for n in range(p)])


def one_minus_et(params: HopfParamsP) -> PolyP:
    p, i = params.p, params.i
    return PolyP(p, 1, [ElementP.one(p), -e_element_p(p, i)])


@lru_cache(maxsize=None)
def _power_fp(m: int, p: int, i: int) -> PolyP:
    base = one_minus_et(HopfParamsP(p, i))
    out = PolyP.one(p, 1)
    for _ in range(m % p):
        out = out * base
    return out


def power_fp(m, params: HopfParamsP) -> PolyP:
    """(1 - et)^m for an F_p exponent m, via the representative in {0..p-1};
    well-defined because (1 - et)^p = 1."""
    if isinstance(m, FpElem):
        if m.p != params.p:
            raise ValueError("mismatched moduli")
        m = m.residue
    return _power_fp(m % params.p, params.p, params.i)


# -- deformed structure maps ------------------------------------------------------


@lru_cache(maxsize=None)
def _gen_coproduct_p(k: int, p: int, i: int, corrupt_term) -> PolyP:
    k_over_i = (k * pow(i, p - 2, p)) % p
    out = _power_fp(k_over_i, p, i).tensor_left(ElementP.gen(k, p))
    for l in range(p):
        nl = n_coeff(FpElem(i, p), FpElem(k - i, p), l).residue
        if corrupt_term == l:
            nl = (nl + 1) % p
        if nl == 0:
            continue
        sign = (p - 1) if l % 2 else 1  # (-1)^l mod p
        hl = _h_rising_p(l, p, i)
        right = _power_fp((-l) % p, p, i) * ElementP.gen(k + l * i, p)
        out = out + right.tensor_left(hl).shift(l) * ((sign * nl) % p)
    return out


def coproduct_p(k, params: HopfParamsP, corrupt_term: int | None = None) -> PolyP:
    """Deformed coproduct of D_k as an exact polynomial; specialized if the
    params carry a t value.

    corrupt_term bumps the degree-l coefficient by one, existing only so the
    verifiers can demonstrate they would catch a wrong table.
    """
    if isinstance(k, FpElem):
        if k.p != params.p:
            raise ValueError("mismatched moduli")
        k = k.residue
    return _at(_gen_coproduct_p(k % params.p, params.p, params.i, corrupt_term), params.t_value)


@lru_cache(maxsize=None)
def _gen_antipode_p(k: int, p: int, i: int) -> PolyP:
    pre = _power_fp((-k * pow(i, p - 2, p)) % p, p, i)
    tail = PolyP.zero(p, 1)
    for l in range(p):
        nl = n_coeff(FpElem(i, p), FpElem(k - i, p), l).residue
        if nl == 0:
            continue
        elem = ElementP.gen(k + l * i, p) * _h_plus_one_rising_p(l, p, i)
        tail = tail + PolyP.const(elem).shift(l) * nl
    return -(pre * tail)


def antipode_p(k, params: HopfParamsP) -> PolyP:
    """Deformed antipode of D_k, operand order exactly as in the defining formula."""
    if isinstance(k, FpElem):
        if k.p != params.p:
            raise ValueError("mismatched moduli")
        k = k.residue
    return _at(_gen_antipode_p(k % params.p, params.p, params.i), params.t_value)


def counit_p(x: ElementP) -> FpElem:
    """Algebra morphism to F_p killing every generator."""
    if x.rank != 1:
        raise ValueError("counit takes rank-1 elements")
    return FpElem(x.terms.get((one_mono(x.p),), 0), x.p)


def _at(g: PolyP, t_value) -> PolyP:
    """g itself for symbolic t, else the constant polynomial g(t_value)."""
    return g if t_value is None else PolyP.const(g.evaluate(t_value))


# -- multiplicative/antimultiplicative extension ----------------------------------


@lru_cache(maxsize=None)
def _mono_coproduct_p(mono: MonoP, p: int, i: int, t_value, corrupt_term) -> PolyP:
    gen = lambda k: _at(_gen_coproduct_p(k, p, i, corrupt_term), t_value)
    return mono_image(mono, gen, PolyP.one(p, 2))


@lru_cache(maxsize=None)
def _mono_antipode_p(mono: MonoP, p: int, i: int, t_value) -> PolyP:
    gen = lambda k: _at(_gen_antipode_p(k, p, i), t_value)
    return mono_image(mono, gen, PolyP.one(p, 1), anti=True)


def coproduct_element_p(x: ElementP, params: HopfParamsP, corrupt_term: int | None = None) -> PolyP:
    p, i, tv = params.p, params.i, params.t_value
    return element_image(x, lambda mono: _mono_coproduct_p(mono, p, i, tv, corrupt_term), PolyP.zero(p, 2))


def antipode_element_p(x: ElementP, params: HopfParamsP) -> PolyP:
    p, i, tv = params.p, params.i, params.t_value
    return element_image(x, lambda mono: _mono_antipode_p(mono, p, i, tv), PolyP.zero(p, 1))


def _t_linear(x: PolyP, element_map, params: HopfParamsP, rank: int) -> PolyP:
    """Extend a map of elements t-linearly to a t-polynomial of elements."""
    out = PolyP.zero(params.p, rank)
    for d, c in enumerate(x.coeffs):
        term = element_map(c)
        out = out + (term.shift(d) if params.t_value is None else term * pow(params.t_value, d, params.p))
    return out


def coproduct_poly(x: PolyP, params: HopfParamsP, corrupt_term: int | None = None) -> PolyP:
    """Coproduct of a t-polynomial of elements, t-linearly."""
    return _t_linear(x, lambda c: coproduct_element_p(c, params, corrupt_term), params, 2)


def antipode_poly(x: PolyP, params: HopfParamsP) -> PolyP:
    return _t_linear(x, lambda c: antipode_element_p(c, params), params, 1)


# -- verifiers -----------------------------------------------------------------------


def t_label(t_value) -> str:
    return "symbolic" if t_value is None else str(t_value)


def verify_relations_preserved(params: HopfParamsP, corrupt_term: int | None = None) -> VerificationReport:
    """The deformed maps must respect the defining relations: commutators of
    generator images, and the p-power relations, for both the coproduct
    (morphism) and the antipode (antimorphism)."""
    p, i, tv = params.p, params.i, params.t_value
    rep = VerificationReport()
    base = {"p": p, "i": i, "t": t_label(tv)}
    dk = {k: coproduct_p(k, params, corrupt_term) for k in range(p)}
    sk = {k: antipode_p(k, params) for k in range(p)}

    # each unordered pair once: [x_l, x_k] = -[x_k, x_l]
    comm_d, comm_s = {}, {}
    for k in range(p):
        for l in range(k, p):
            comm_d[k, l] = commutator(dk[k], dk[l])
            comm_d[l, k] = -comm_d[k, l]
            comm_s[k, l] = commutator(sk[k], sk[l])
            comm_s[l, k] = -comm_s[k, l]

    for k in range(p):
        for l in range(p):
            pt = dict(base, k=k, l=l)
            lhs = comm_d[k, l]
            rhs = ((l - k) % p) * dk[(k + l) % p]
            rep.add("coproduct-commutator", pt, lhs == rhs, first_mismatch(lhs, rhs))
            lhs_s = comm_s[l, k]
            rhs_s = ((l - k) % p) * sk[(k + l) % p]
            rep.add("antipode-commutator", pt, lhs_s == rhs_s, first_mismatch(lhs_s, rhs_s))

    for k in range(p):
        pt = dict(base, k=k)
        dpow = dk[k] ** p
        want = dk[0] if k == 0 else PolyP.zero(p, 2)
        rep.add("coproduct-p-power", pt, dpow == want, first_mismatch(dpow, want))
        spow = sk[k] ** p
        want_s = sk[0] if k == 0 else PolyP.zero(p, 1)
        rep.add("antipode-p-power", pt, spow == want_s, first_mismatch(spow, want_s))
    return rep


def verify_hopf_p(params: HopfParamsP, t_values=(None,)) -> VerificationReport:
    """Full Hopf axiom suite on generators, once per requested t mode
    (None = symbolic, ints = specializations)."""
    p, i = params.p, params.i
    rep = VerificationReport()
    for tv in t_values:
        pp = HopfParamsP(p, i, tv)
        base = {"p": p, "i": i, "t": t_label(pp.t_value)}
        cp_mono = lambda mono: _mono_coproduct_p(mono, p, i, pp.t_value, None)
        ap_mono = lambda mono: _mono_antipode_p(mono, p, i, pp.t_value)
        dk = {k: coproduct_p(k, pp) for k in range(p)}

        for k in range(p):
            check_generator(rep, dict(base, k=k), dk[k], ElementP.gen(k, p), cp_mono, ap_mono)

        for k in range(p):
            for l in range(p):
                pt = dict(base, k=k, l=l)
                prod = ElementP.gen(k, p) * ElementP.gen(l, p)
                lhs = coproduct_element_p(prod, pp)
                rhs = dk[k] * dk[l]
                rep.add("coproduct-multiplicative", pt, lhs == rhs, first_mismatch(lhs, rhs))
    return rep


def radford_check(params: HopfParamsP) -> VerificationReport:
    """Relations of the distinguished subalgebra generated by h and e, plus its
    closure under the structure maps."""
    p, i = params.p, params.i
    pp = HopfParamsP(p, i)  # symbolic
    base = {"p": p, "i": i}
    rep = VerificationReport()

    h, e, a = h_element_p(p, i), e_element_p(p, i), alpha(pp)
    hp = PolyP.const(h)
    one = PolyP.one(p, 1)

    comm = hp * a - a * hp
    rep.add("h-alpha-commutator", base, comm == a * a - a, first_mismatch(comm, a * a - a))

    hpow = h
    for _ in range(p - 1):
        hpow = hpow * h
    rep.add("h-p-power", base, hpow == h)

    apow = a**p
    rep.add("alpha-p-power", base, apow == one, first_mismatch(apow, one))

    dh = coproduct_poly(hp, pp)
    want_dh = a.tensor_left(h) + PolyP(p, 2, [ElementP.one(p).tensor(h)])
    rep.add("coproduct-h", base, dh == want_dh, first_mismatch(dh, want_dh))

    da = coproduct_poly(a, pp)
    want_da = PolyP.zero(p, 2)
    for m, cm in enumerate(a.coeffs):
        for n, cn in enumerate(a.coeffs):
            want_da = want_da + PolyP.const(cm.tensor(cn)).shift(m + n)
    rep.add("alpha-group-like", base, da == want_da, first_mismatch(da, want_da))

    # the convolution axiom forces S(h) = -h alpha^{-1}
    sh = antipode_poly(hp, pp)
    want_sh = -(hp * one_minus_et(pp))
    rep.add("antipode-h", base, sh == want_sh, first_mismatch(sh, want_sh))

    rep.add("counit-h", base, counit_p(h) == FpElem(0, p))

    allowed = {0, i % p}
    closed = True
    for poly in (coproduct_poly(hp, pp), coproduct_poly(PolyP.const(e), pp)):
        for c in poly.coeffs:
            closed = closed and c.supported_indices() <= allowed
    for poly in (antipode_poly(hp, pp), antipode_poly(PolyP.const(e), pp)):
        for c in poly.coeffs:
            closed = closed and c.supported_indices() <= allowed
    rep.add("subalgebra-closed", base, closed)
    return rep


def verify_all_p(params: HopfParamsP, t_values=(None,)) -> VerificationReport:
    """Relations, Hopf axioms (per t mode) and the distinguished-subalgebra
    relations for one (p, i)."""
    rep = VerificationReport()
    for tv in t_values:
        rep.extend(verify_relations_preserved(HopfParamsP(params.p, params.i, tv)))
    rep.extend(verify_hopf_p(params, t_values))
    rep.extend(radford_check(params))
    return rep
