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

Each verifier is a check block run by series.run_checks, once, at symbolic t;
the entries of every requested residue are both sides of each identity
evaluated there, and run_checks states why that is sound.

One certificate decides both entry blocks of a pass, the relation entries
(commutators and p-powers) and the Hopf entries:
series.twist_certificate(d, range(p)), checked exactly at symbolic t on the
generator maps of the pass (its fault included).  The series docstring
states what it checks, and why every Hopf entry of series.check_hopf then
passes; in characteristic p its letters are every D_k.  Every relation
entry passes too:

- F and u are invertible: N = F - 1 has N^p = 0, so F^{-1} = sum_{n<p} (-N)^n
  is a polynomial in t, and likewise for u.
- Delta_0: D_k -> D_k (x) 1 + 1 (x) D_k is an algebra morphism of u(W) and
  S_0: D_k -> -D_k an antimorphism, and both respect D_k^p = D_k^[p]: the two
  summands of Delta_0(D_k) commute, so its p-th power is
  D_k^p (x) 1 + 1 (x) D_k^p in characteristic p, and (-D_k)^p = -D_k^p for
  odd p.  So phi: x -> F^{-1} Delta_0(x) F is an algebra morphism and
  psi: x -> u^{-1} S_0(x) u an antimorphism, over the polynomials in t.
- The conjugation says Delta(D_k) = phi(D_k) and S(D_k) = psi(D_k).  F
  cancels between the factors of a power, so
  Delta(D_k)^p = F^{-1} Delta_0(D_k)^p F = phi(D_k^[p]), which is Delta(D_0)
  for k = 0 and 0 otherwise, as the entry states; likewise
  S(D_k)^p = u^{-1} S_0(D_k)^p u = psi(D_k^[p]).
- F cancels in a commutator too.  The two summands of Delta_0(D_k) commute
  with those of Delta_0(D_l) across the slots, so
  [Delta_0 D_k, Delta_0 D_l] = Delta_0 [D_k, D_l] and
  [Delta(D_k), Delta(D_l)] = F^{-1} Delta_0 [D_k, D_l] F
  = (l - k) Delta(D_{k+l}).  S_0 is an antimorphism with S_0(D) = -D, so
  [S(D_l), S(D_k)] = u^{-1} [D_l, D_k] u = (l - k) S(D_{k+l}).  These are
  the two commutator entries.

Evaluation at t = c is a ring homomorphism, so what the symbolic pass
concludes holds at every residue it fans out to.  A passing entry has no
witness, so the derived entries are those a direct computation gives.  When
the certificate fails (every fault makes it fail), every relation and Hopf
entry is computed directly, so each witness is a direct one.

The p - 1 directions are one family with t rescaled: verify_all_i computes
direction 1 and derives each direction m = 2 .. p-1 from it through
phi_m: D_k -> m^-1 D_{mk} (series.phi; sigma: D_k -> -D_{-k} is phi_-1).

- phi_m is a restricted automorphism of the periodic Witt algebra, hence of
  u(W): [phi_m D_k, phi_m D_l] = m^-1 (l - k) D_{m(k+l)} = phi_m [D_k, D_l];
  phi_m(D_0) = m^-1 D_0 is toral, since m^p = m; phi_m(D_k)^[p] = 0 for
  k != 0; and phi_{1/m} inverts it.
- t -> m^2 t is a ring automorphism of F_p[t] (m^2 is a unit), and
  evaluating at c after it is evaluating at m^2 c: residue c of direction m
  is residue m^2 c of direction 1.
- phi_m(h_1) = m^-1 D_0 = h_m and phi_m(e_1) = m^-1 D_m = m^-2 e_m, so
  phi_m(alpha_1(m^2 t)) = alpha_m(t); and phi_m maps {0, 1} to {0, m}.

phi_equivariant checks exactly, at symbolic t and for every k, that
(phi_m (x) phi_m) Delta_1(D_k)(m^2 t) = m^-1 Delta_m(D_{mk})(t) and
phi_m S_1(D_k)(m^2 t) = m^-1 S_m(D_{mk})(t).  Then each entry of direction m
at t = c is phi_m, on every tensor factor, of that of direction 1 at
t = m^2 c: the relation entries at (k, l) are those of 1 at (k/m, l/m), both
sides scaled alike (by m^2 for the commutators, as l - k = m (l/m - k/m),
and by m^p = m for the p-powers); the Hopf entries use the PBW extensions,
which the passing relation entries make a morphism (Delta) and an
antimorphism (S), so those of m are phi_m-conjugates of those of 1, and
phi_m commutes with the counit and the product; the Radford entries, at
symbolic t, follow from the third fact.  phi_m is bijective, so when
direction 1 passes every entry and its twist certificate holds (so that it
passes at every residue m^2 c too), so does direction m.  The entries of a
cell come in an order, and with parameters, that do not depend on i, and a
passing entry has no witness, so the report of m is that of 1 with the
parameter i replaced.  Otherwise direction m is checked directly.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import partial

from .report import VerificationReport
from .restricted import ElementP, _residue, e_element_p
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
    phi,
    run_checks,
    slot_apply,
    twist_certificate,
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

    # every entry follows from the twist certificate when it holds (see the
    # module docstring); otherwise each is computed directly, for its witness
    derived = twist_certificate(params, range(p))
    for k in range(p):
        for l in range(p):
            pt = dict(base, k=k, l=l)
            if derived:
                verdicts.record("coproduct-commutator", pt, True)
                verdicts.record("antipode-commutator", pt, True)
            else:
                verdicts.check("coproduct-commutator", pt, commutator(dk[k], dk[l]), ((l - k) % p) * dk[(k + l) % p])
                verdicts.check("antipode-commutator", pt, commutator(sk[l], sk[k]), ((l - k) % p) * sk[(k + l) % p])
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
    (morphism) and the antipode (antimorphism).  A fault given here replaces
    the fault of the params checked (see Deformation)."""
    d = params if corrupt_term is None else replace(params, fault=corrupt_term)
    return run_checks(d, (d.t,), _check_relations)


def verify_hopf_p(params: Deformation, t_values=None) -> VerificationReport:
    """Full Hopf axiom suite on generators, over the requested t modes
    (None = symbolic, ints = specializations; by default the params' own),
    through series.run_checks."""
    block = partial(check_hopf, ks=range(params.char), bracket=False)
    return run_checks(params, (params.t,) if t_values is None else t_values, block)


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

    verdicts.record("counit-h", base, counit(h) == 0)

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
    (p, i).  series.run_checks derives every residue's entries from the one
    symbolic computation."""
    if t_values is None:
        t_values = (params.t,)
    rep = run_checks(params, t_values, _check_relations)
    rep.extend(verify_hopf_p(params, t_values))
    rep.extend(radford_check(params))
    return rep


def _t_rescaled(s: PolyP, m: int) -> PolyP:
    """s(m^2 t): the coefficient of t^n times m^(2n)."""
    return s._like(None, s.rank, [c * m ** (2 * n) for n, c in enumerate(s.coeffs)])


def phi_equivariant(d: Deformation, m: int) -> bool:
    """Whether phi_m: D_k -> m^-1 D_{mk} carries the generator maps of d's
    direction i at m^2 t to those of direction mi at t, fault kept, exactly
    at symbolic t and for every k: (phi_m (x) phi_m) Delta_i(D_k)(m^2 t) =
    m^-1 Delta_{mi}(D_{mk})(t) and phi_m S_i(D_k)(m^2 t) = m^-1 S_{mi}(D_{mk})(t)."""
    p, d = d.char, d.at(None)
    target, inv = replace(d, i=m * d.i), Fraction(1, m)
    return all(
        phi(d, m, _t_rescaled(gen_coproduct(d, k), m)) == gen_coproduct(target, m * k % p) * inv
        and phi(d, m, _t_rescaled(gen_antipode(d, k), m)) == gen_antipode(target, m * k % p) * inv
        for k in range(p)
    )


def _relabelled(rep: VerificationReport, i: int) -> VerificationReport:
    """rep with the parameter i of every entry set to i."""
    label = str(i)
    return VerificationReport(
        [replace(e, params=tuple((k, label if k == "i" else v) for k, v in e.params)) for e in rep.entries]
    )


def verify_all_i(d: Deformation, t_values) -> list[VerificationReport]:
    """verify_all_p of d in every direction i = 1 .. p-1, in i order, over
    t_values.  Direction 1 is computed, and direction m derived from it
    when the module docstring's preconditions hold; otherwise direction m is
    computed directly, with d's fault, so every witness is a direct one."""
    p, one = d.char, replace(d, i=1)
    first = verify_all_p(one, t_values)
    derive = first.ok and twist_certificate(one, range(p))
    return [first] + [
        _relabelled(first, m) if derive and phi_equivariant(one, m) else verify_all_p(replace(d, i=m), t_values)
        for m in range(2, p)
    ]
