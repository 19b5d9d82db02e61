"""Polynomial Hopf deformations of the restricted enveloping algebra.

For an odd prime p and i in F_p - {0}, set h = (1/i) D_0 and e = i D_i.  Since
e^p = 0, the element 1 - et is invertible with polynomial inverse
alpha = sum_{n<p} e^n t^n, and (1 - et)^p = 1 makes powers by F_p exponents
well-defined.  The deformed coalgebra maps are

    coproduct(D_k) = D_k (x) (1-et)^(k/i)
                     + sum_{l=0}^{p-1} (-1)^l N_l h^(l) (x) (1-et)^(-l) D_{k+li} t^l
    antipode(D_k)  = -(1-et)^(-k/i) sum_{l=0}^{p-1} N_l D_{k+li} (h+1)^(l) t^l

with N_l = n_coeff(i, k-i, l), the residue of int_coeff(i, k-i, l).  These are
the characteristic-0 formulas of hopf0 read mod p: series.py writes each map
once, over a Deformation(p, None, i, t), and HopfParamsP(p, i, t_value) is that
value.  The functions here take it with a generator index, an element or a
t-polynomial, and hold the characteristic-p verifiers.  Everything is an
exact polynomial in t (never truncated), and t can be specialized to any
residue.  The sums run over the full printed range even where coefficients
vanish; vanishing is a checked property, not an assumption.

Each verifier is a check block run by series.run_checks.  A request with
symbolic t together with residues (``verify --t all``) computes each
identity's two sides once, at symbolic t, and derives every residue's entries
from them; run_checks states why that is sound.  A request without symbolic t
is checked directly at each of its residues.

The p-power entries of a pass are derived from the twist.  F = sum_r (1/r!)
h^(r) (x) e^r t^r and u = m(S_0 (x) Id)(F) (series.twist, series.u_series) are
built at the pass's own t, and twist_conjugates checks exactly, on the
generator maps of the pass (its fault included), that F and u are 1 at t^0
(at symbolic t), that (F - 1)^p = (u - 1)^p = 0, and that
F Delta(D_k) = Delta_0(D_k) F and u S(D_k) = S_0(D_k) u for every k.  Then
every p-power entry passes:

- F and u are invertible: N = F - 1 has N^p = 0, so F^{-1} = sum_{n<p} (-N)^n
  is a polynomial in t, and likewise for u.  At a residue c, F and u are the
  constants F(c) and u(c), and the same sums invert them.
- Delta_0: D_k -> D_k (x) 1 + 1 (x) D_k is an algebra morphism of u(W) and
  S_0: D_k -> -D_k an antimorphism, and both respect D_k^p = D_k^[p]: the two
  summands of Delta_0(D_k) commute, so its p-th power is
  D_k^p (x) 1 + 1 (x) D_k^p in characteristic p, and (-D_k)^p = -D_k^p for
  odd p.  So phi: x -> F^{-1} Delta_0(x) F is an algebra morphism and
  psi: x -> u^{-1} S_0(x) u an antimorphism, over the polynomials in t or at
  t = c.
- The conjugation says Delta(D_k) = phi(D_k) and S(D_k) = psi(D_k).  F
  cancels between the factors of a power, so
  Delta(D_k)^p = F^{-1} Delta_0(D_k)^p F = phi(D_k^[p]), which is Delta(D_0)
  for k = 0 and 0 otherwise, as the entry states; likewise
  S(D_k)^p = u^{-1} S_0(D_k)^p u = psi(D_k^[p]).
- Evaluation at t = c is a ring homomorphism, so what a symbolic pass
  concludes holds at every residue it fans out to; a pass at a residue alone
  checks the conjugation at that residue.

A passing entry has no witness, so the derived entries are those a direct
computation gives.  When the check fails (every fault makes it fail), every
power is raised directly, so each witness is a direct one.  The commutator
entries are always computed.

The directions i and -i = p - i are checked as a pair (verify_pair_p), the
second derived from the first through the involution sigma: D_k -> -D_{-k},
which series.sigma defines once for both characteristics.
sigma preserves the bracket, [-D_{-k}, -D_{-l}] = (l-k)(-D_{-k-l}), and the
p-power map, so it is an automorphism of u(W), and it fixes t.  The
derivation runs only when every entry of direction i passes and sigma is
equivariant on the generators, checked exactly at symbolic t for every k:
(sigma (x) sigma) Delta_i(D_k) = -Delta_{-i}(D_{-k}) and
sigma S_i(D_k) = -S_{-i}(D_{-k}), i.e. Delta_{-i} sigma = (sigma (x) sigma)
Delta_i and S_{-i} sigma = sigma S_i on generators.  Then every entry of
direction -i is sigma, on each tensor factor, of an entry of direction i, and
evaluation at t = c commutes with sigma:

- the relation entries of -i at (k, l) are sigma of those of i at (-k, -l)
  (the p-power ones at -k, since (-x)^p = -x^p for odd p); sigma is
  bijective, so an identity holds in one direction exactly when it holds in
  the other;
- the Hopf and Radford entries use the PBW extensions of Delta and S to
  monomials.  At each requested t, the passing relation entries of direction
  i make its extensions an algebra morphism (Delta) and antimorphism (S) of
  u(W); the mirror's generator maps are sigma-conjugates of i's, so its
  extensions are the sigma-conjugates of i's extensions, on every monomial;
- sigma(h_i) = h_{-i} and sigma(e_i) = e_{-i}, so sigma carries the
  distinguished subalgebra of i, with alpha = (1 - e t)^{-1}, to that of -i.

So every entry of direction -i passes.  The entries of a cell come in an
order, and with parameters, that do not depend on i, and a passing entry has
no witness, so the report of -i is that of i with the parameter i replaced.
If either precondition fails, direction -i is checked directly.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from .report import VerificationReport
from .restricted import ElementP, _residue, e_element_p
from .scalars import FpElem
from .series import (
    Deformation,
    PolyP,
    Verdicts,
    _at,
    binomial_series,
    check_hopf,
    counit,
    element_antipode,
    element_coproduct,
    first_mismatch,
    gen_antipode,
    gen_coproduct,
    h_rising,
    mono_antipode,
    mono_coproduct,
    run_checks,
    sigma,
    slot_apply,
    twist,
    u_series,
    undeformed_antipode,
    undeformed_coproduct,
)
from .tensor import commutator


def HopfParamsP(p: int, i: int, t_value: int | None = None) -> Deformation:
    """The deformation at the odd prime p in direction i; t_value None keeps t
    symbolic, an int specializes t to that residue."""
    return Deformation(p, None, i, t_value)


# the shared mismatch finder, under the name perfbench/spans.py times
first_mismatch_p = first_mismatch


# -- deformed structure maps ------------------------------------------------------


def coproduct_p(k, params: Deformation) -> PolyP:
    """Deformed coproduct of D_k as an exact polynomial; specialized if the
    params carry a t value, with N_l + 1 at l = params.fault if they carry one."""
    return gen_coproduct(params, _residue(k, params.char)[0])


def antipode_p(k, params: Deformation) -> PolyP:
    """Deformed antipode of D_k, operand order exactly as in the defining formula."""
    return gen_antipode(params, _residue(k, params.char)[0])


def counit_p(x: ElementP) -> FpElem:
    """Algebra morphism to F_p killing every generator."""
    return FpElem(counit(x), x.p)


# -- multiplicative/antimultiplicative extension ----------------------------------


def coproduct_element_p(x: ElementP, params: Deformation) -> PolyP:
    return element_coproduct(params, x)


def antipode_element_p(x: ElementP, params: Deformation) -> PolyP:
    return element_antipode(params, x)


def _t_linear(x: PolyP, mono_map, params: Deformation) -> PolyP:
    """Extend mono_map (a monomial to its image at symbolic t) t-linearly to a
    t-polynomial of elements, then specialize at the params' t, if any."""
    out = slot_apply(x, 0, mono_map)
    return out if params.t is None else _at(out, params.t)


def coproduct_poly(x: PolyP, params: Deformation) -> PolyP:
    """Coproduct of a t-polynomial of elements, t-linearly."""
    return _t_linear(x, partial(mono_coproduct, params.at(None)), params)


def antipode_poly(x: PolyP, params: Deformation) -> PolyP:
    return _t_linear(x, partial(mono_antipode, params.at(None)), params)


# -- verifiers -----------------------------------------------------------------------


def _check_relations(verdicts: Verdicts, params: Deformation) -> None:
    p, base = params.char, params.point
    dk = {k: coproduct_p(k, params) for k in range(p)}
    sk = {k: antipode_p(k, params) for k in range(p)}

    # each unordered pair once: [x_l, x_k] = -[x_k, x_l], and [x_k, x_k] = 0
    comm_d, comm_s = {}, {}
    for k in range(p):
        comm_d[k, k], comm_s[k, k] = PolyP.zero(p, 2), PolyP.zero(p, 1)
        for l in range(k + 1, p):
            comm_d[k, l] = commutator(dk[k], dk[l])
            comm_d[l, k] = -comm_d[k, l]
            comm_s[k, l] = commutator(sk[k], sk[l])
            comm_s[l, k] = -comm_s[k, l]

    for k in range(p):
        for l in range(p):
            pt = dict(base, k=k, l=l)
            verdicts.check("coproduct-commutator", pt, comm_d[k, l], ((l - k) % p) * dk[(k + l) % p])
            verdicts.check("antipode-commutator", pt, comm_s[l, k], ((l - k) % p) * sk[(k + l) % p])

    # the p-powers follow from the twist conjugation when it holds (see the
    # module docstring); otherwise each is raised directly, for its witness
    derived = twist_conjugates(params, dk, sk)
    for k in range(p):
        pt = dict(base, k=k)
        if derived:
            verdicts.record("coproduct-p-power", pt, True)
            verdicts.record("antipode-p-power", pt, True)
        else:
            verdicts.check("coproduct-p-power", pt, dk[k] ** p, dk[0] if k == 0 else PolyP.zero(p, 2))
            verdicts.check("antipode-p-power", pt, sk[k] ** p, sk[0] if k == 0 else PolyP.zero(p, 1))


def verify_relations_preserved(params: Deformation, corrupt_term: int | None = None) -> VerificationReport:
    """The deformed maps must respect the defining relations: commutators of
    generator images, and the p-power relations, for both the coproduct
    (morphism) and the antipode (antimorphism).  A fault given here becomes
    the fault of the params checked (see Deformation)."""
    return run_checks(replace(params, fault=corrupt_term), (params.t,), _check_relations)


def verify_hopf_p(params: Deformation, t_values=None) -> VerificationReport:
    """Full Hopf axiom suite on generators, once per requested t mode
    (None = symbolic, ints = specializations; by default the params' own),
    through series.run_checks."""
    checks = partial(check_hopf, ks=range(params.char), bracket=False)
    return run_checks(params, (params.t,) if t_values is None else t_values, checks)


def _check_radford(verdicts: Verdicts, pp: Deformation) -> None:
    p, i = pp.char, pp.i
    base = {"p": p, "i": i}
    h, e, a = h_rising(pp, 0, 1), e_element_p(p, i), binomial_series(pp, -1)
    hp = PolyP.const(h)

    verdicts.check("h-alpha-commutator", base, hp * a - a * hp, a * a - a)
    verdicts.check("h-p-power", base, hp**p, hp)
    verdicts.check("alpha-p-power", base, a**p, PolyP.one(p, 1))

    dh = coproduct_poly(hp, pp)
    verdicts.check("coproduct-h", base, dh, a.tensor_left(h) + PolyP(p, 2, [ElementP.one(p).tensor(h)]))

    # alpha (x) alpha: the first slot of 1 (x) alpha holds only the unit
    want_da = slot_apply(a.tensor_left(ElementP.one(p)), 0, lambda unit: a)
    verdicts.check("alpha-group-like", base, coproduct_poly(a, pp), want_da)

    # the convolution axiom forces S(h) = -h alpha^{-1}
    sh = antipode_poly(hp, pp)
    verdicts.check("antipode-h", base, sh, -(hp * binomial_series(pp, 1)))

    verdicts.record("counit-h", base, counit_p(h) == FpElem(0, p))

    allowed = {0, i % p}
    closed = True
    ep = PolyP.const(e)
    for poly in (dh, coproduct_poly(ep, pp), sh, antipode_poly(ep, pp)):
        for c in poly.coeffs:
            closed = closed and c.supported_indices() <= allowed
    verdicts.record("subalgebra-closed", base, closed)


def radford_check(params: Deformation) -> VerificationReport:
    """Relations of the distinguished subalgebra generated by h = h^(1),
    e and alpha = (1 - et)^{-1}, plus its closure under the structure maps,
    at symbolic t."""
    return run_checks(params, (None,), _check_radford)


def verify_all_p(params: Deformation, t_values=None) -> VerificationReport:
    """Relations per t mode, then the Hopf axioms per t mode (by default the
    params' own mode), then the distinguished-subalgebra relations, for one
    (p, i).  With symbolic t and more modes (``--t all``), series.run_checks
    derives every residue's entries from the one symbolic computation."""
    if t_values is None:
        t_values = (params.t,)
    rep = run_checks(params, t_values, _check_relations)
    rep.extend(verify_hopf_p(params, t_values))
    rep.extend(radford_check(params))
    return rep


def sigma_equivariant(params: Deformation) -> bool:
    """Whether sigma: D_k -> -D_{-k} carries the generator maps of direction i
    to those of direction -i, exactly at symbolic t and for every k:
    (sigma (x) sigma) Delta_i(D_k) = -Delta_{-i}(D_{-k}) and
    sigma S_i(D_k) = -S_{-i}(D_{-k})."""
    p = params.char
    d, mirror = Deformation(p, None, params.i), Deformation(p, None, -params.i)
    return all(
        sigma(d, gen_coproduct(d, k)) == -gen_coproduct(mirror, -k % p)
        and sigma(d, gen_antipode(d, k)) == -gen_antipode(mirror, -k % p)
        for k in range(p)
    )


def twist_conjugates(params: Deformation, dk: dict, sk: dict) -> bool:
    """Whether the twist F and u = m(S_0 (x) Id)(F), at the params' own t,
    conjugate the undeformed maps to dk and sk (k -> Delta(D_k), S(D_k) of the
    params, fault included), exactly: F and u are 1 at t^0 (checked at
    symbolic t; at a residue both are constants), (F - 1)^p = (u - 1)^p = 0,
    and F Delta(D_k) = Delta_0(D_k) F and u S(D_k) = S_0(D_k) u for every k."""
    p = params.char
    F, u = twist(params), u_series(params)
    if params.t is None and (F.coeff(0) != ElementP.one(p, 2) or u.coeff(0) != ElementP.one(p)):
        return False
    return (
        ((F - 1) ** p).is_zero()
        and ((u - 1) ** p).is_zero()
        and all(
            F * dk[k] == undeformed_coproduct(params, params.gen(k)) * F
            and u * sk[k] == undeformed_antipode(params, params.gen(k)) * u
            for k in range(p)
        )
    )


def verify_pair_p(params: Deformation, t_values=None) -> tuple[VerificationReport, VerificationReport]:
    """verify_all_p of direction i and of direction p - i, the second derived
    from the first through sigma when every entry of direction i passes and
    sigma_equivariant holds: then it is the report of direction i with the
    parameter i set to p - i (see the module docstring for why), and
    otherwise it is computed directly, on params with i negated and its t and
    fault kept, so every witness is a direct one."""
    rep = verify_all_p(params, t_values)
    mirror = replace(params, i=-params.i)
    if rep.ok and sigma_equivariant(params):
        label = str(mirror.i)
        entries = [replace(e, params=tuple((k, label if k == "i" else v) for k, v in e.params)) for e in rep.entries]
        return rep, VerificationReport(entries)
    return rep, verify_all_p(mirror, t_values)
