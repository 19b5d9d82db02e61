"""Series in t over tensor elements, the Hopf plumbing both characteristics
share, and the deformed structure maps, written once for both.

A series stores the coefficients of t^0, t^1, ... as rank-homogeneous
elements.  It is either truncated, keeping t^0 .. t^order and silently
discarding anything beyond, so that every identity checked through it holds
"up to t^{order+1}" (characteristic 0, Series); or exact when order is None, a
polynomial with trailing zero coefficients pruned (characteristic p, PolyP,
where e^p = 0 makes every structure map polynomial).  Inversion uses the
unit-leading-term recursion and applies to truncated series only.

The coefficient ring enters only through methods of the element classes:
``zero_of``/``one_of`` a rank, ``unit_mono``, ``monomial`` (monomial to
element), ``split_letter`` (a monomial to its first or last letter and the
rest), ``from_sums`` (raw coefficient sums to a normalized element) and
``series_mul`` (the coefficients of a product of two series, below a
degree).

Below the classes sit the pieces the Hopf verifiers of both characteristics
share: the verdicts of a pass of checks (Verdicts) and the one function that
runs a check block over the requested t modes (run_checks, which can fan one
symbolic-t computation out to every requested t), applying a map to one
tensor slot, the counit on one slot, antipode convolution, the per-generator
axiom block (check_generator) and the whole axiom suite on generators and
generator pairs (check_hopf).  Every verifier of both characteristics is a
check block, (verdicts, deformation) -> None, and one run_checks call.

Last come the deformation and its maps.  One Deformation value names the
construction in either characteristic: (char, order, i, t, fault), validated
and normalized once, with what the characteristics differ in derived from it.
The characteristic-p maps are the characteristic-0 formulas read mod p, so each
generator map, its extension to monomials and elements, and the Hopf axiom
suite is written once and takes the Deformation first; the memoized ones are
keyed on it.  Every algebra morphism (Delta, Delta_0, phi_m) and
antimorphism (S, S_0) is fixed by where it sends the generators, and one
extension (_extension) turns each such generator map into its map on
monomials, through the monomial's memoized parts: f(m x_k) = f(m) f(x_k)
drops the last letter of a morphism's argument and f(x_k m) = f(m) f(x_k)
the first of an antimorphism's, so a monomial's image is one series product
on the image of a prefix (suffix) that other monomials share, and the image
built so far is always the left factor.  check_hopf takes
Delta(x_k) Delta(x_l) for k <= l from the coproduct's memo, since x_k x_l is
then a PBW monomial.

The twist route is written once too, through the same slot maps and the
same extension: the undeformed coproduct Delta_0 and antipode S_0, the
counit, the morphisms phi_m: x_k -> m^-1 x_{mk} that carry one direction
to another (one tensor slot at a time), the twisting element
F = sum_r (1/r!) h^(r) (x) e^r t^r, u = m(S_0 (x) Id)(F) and the check block
of F's cocycle identity and counit normalization.  They share no formula
with the closed forms, so conjugation, F Delta(x) = Delta_0(x) F and
u S(x) = S_0(x) u, is an independent route to the deformed maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial, wraps
from math import factorial

from .report import VerificationReport
from .restricted import ElementP, e_element_p
from .scalars import check_odd_prime, gen_binomial, int_coeff, rising
from .tensor import TensorElement
from .uwitt import CacheInfo, Element, e_element


def _meet(a, b):
    """Order of a combination: the smaller truncation; exact only if both are."""
    return b if a is None else a if b is None else min(a, b)


class TSeries:
    """A truncated (order >= 0) or exact (order None) series in t."""

    __slots__ = ("order", "rank", "coeffs", "_zero")

    def _init(self, order, rank: int, zero, coeffs, check: bool = False) -> None:
        cs = list(coeffs)
        if check:
            for c in cs:
                zero._check(c)
        if order is None:
            while cs and not cs[-1].terms:
                cs.pop()
        else:
            del cs[order + 1 :]
            cs += [zero] * (order + 1 - len(cs))
        self.order = order
        self.rank = rank
        self.coeffs = tuple(cs)
        self._zero = zero

    def _like(self, order, rank: int, coeffs) -> "TSeries":
        """A series of the same class and ring."""
        out = object.__new__(type(self))
        out._init(order, rank, self._zero if rank == self.rank else self._zero.zero_of(rank), coeffs)
        return out

    def _const(self, x) -> "TSeries":
        return self._like(self.order, x.rank, [x])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int):
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else self._zero

    def _promote(self, other) -> "TSeries":
        if isinstance(other, type(self)):
            self._zero._check(other._zero)
            return other
        if isinstance(other, type(self._zero)):
            self._zero._check(other)
            return self._const(other)
        if isinstance(other, TSeries):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        return self._const(self._zero.one_of(self.rank) * other)

    def _sum(self, other, sign: int) -> "TSeries":
        """self + other (sign 1) or self - other (sign -1), degree by degree.
        Adding or subtracting a zero series gives back self, and adding to a
        zero series gives back other, where the zero does not truncate it."""
        other = self._promote(other)
        order = _meet(self.order, other.order)
        if order == self.order and other.is_zero():
            return self
        if order == other.order and sign > 0 and self.is_zero():
            return other
        n = max(len(self.coeffs), len(other.coeffs))
        if order is not None:
            n = min(n, order + 1)
        if sign > 0:
            return self._like(order, self.rank, [self.coeff(d) + other.coeff(d) for d in range(n)])
        return self._like(order, self.rank, [self.coeff(d) - other.coeff(d) for d in range(n)])

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._like(self.order, self.rank, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, (TSeries, type(self._zero))):
            return self._like(self.order, self.rank, [c * other for c in self.coeffs])
        other = self._promote(other)
        order = _meet(self.order, other.order)
        n = len(self.coeffs) + len(other.coeffs) - 1
        if order is not None:
            n = min(n, order + 1)
        return self._like(order, self.rank, self._zero.series_mul(self.coeffs, other.coeffs, max(n, 0)))

    def __rmul__(self, other):
        if isinstance(other, type(self._zero)):
            return self._const(other) * self
        return self * other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        if n == 0:
            return self._const(self._zero.one_of(self.rank))
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def shift(self, d: int) -> "TSeries":
        """Multiply by t^d."""
        return self._like(self.order, self.rank, [self._zero] * d + list(self.coeffs))

    def tensor_left(self, x) -> "TSeries":
        """x (x) self, degreewise."""
        return self._like(self.order, x.rank + self.rank, [x.tensor(c) for c in self.coeffs])

    def swap(self) -> "TSeries":
        return self._like(self.order, self.rank, [c.swap() for c in self.coeffs])

    def evaluate(self, c):
        """Specialize t to the scalar c: every degree's terms, scaled by the
        power of c, summed into one dict and normalized once."""
        zero = self._zero
        point = zero._scalar(c)
        if point is NotImplemented:
            raise TypeError(f"cannot evaluate {type(self).__name__} at a {type(c).__name__}")
        sums: dict = {}
        get = sums.get
        power = zero._scalar(1)
        for coeff in self.coeffs:
            if power:
                for key, v in coeff.terms.items():
                    sums[key] = get(key, 0) + power * v
            power = zero._scalar(power * point)
        return zero.from_sums(self.rank, sums)

    def invert(self) -> "TSeries":
        """Two-sided inverse of a truncated series with leading coefficient 1."""
        if self.order is None:
            raise ValueError("only a truncated series is inverted")
        one = self._zero.one_of(self.rank)
        if self.coeffs[0] != one:
            raise ValueError("leading coefficient must be the unit")
        inv = [one]
        for n in range(1, self.order + 1):
            acc = self._zero
            for j in range(1, n + 1):
                if self.coeffs[j].terms and inv[n - j].terms:
                    acc = acc + self.coeffs[j] * inv[n - j]
            inv.append(-acc)
        return self._like(self.order, self.rank, inv)

    def is_zero(self) -> bool:
        return all(not c.terms for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self._zero == other._zero and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.rank, self.coeffs))

    def __str__(self):
        lines = [f"t^{d}: {c}" for d, c in enumerate(self.coeffs) if c.terms]
        return "\n".join(lines) if lines else "0"

    __repr__ = __str__


class Series(TSeries):
    """Truncated t-adic series with Element coefficients (characteristic 0)."""

    __slots__ = ()

    def __init__(self, order: int, rank: int, coeffs=()):
        if order < 0:
            raise ValueError("order must be >= 0")
        self._init(order, rank, Element.zero(rank), coeffs, check=True)

    @staticmethod
    def zero(order: int, rank: int = 1) -> "Series":
        return Series(order, rank)

    @staticmethod
    def one(order: int, rank: int = 1) -> "Series":
        return Series(order, rank, [Element.one(rank)])

    @staticmethod
    def const(x: Element, order: int) -> "Series":
        return Series(order, x.rank, [x])


class PolyP(TSeries):
    """Exact polynomial in t with ElementP coefficients (characteristic p)."""

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


def first_mismatch(a: TSeries, b: TSeries) -> str | None:
    """Human-readable first differing coefficient, or None if equal."""
    order = _meet(a.order, b.order)
    n = max(len(a.coeffs), len(b.coeffs))
    if order is not None:
        n = min(n, order + 1)
    for d in range(n):
        ca, cb = a.coeff(d), b.coeff(d)
        if ca != cb:
            for key in sorted(set(ca.terms) | set(cb.terms)):
                va, vb = ca.coeff(key), cb.coeff(key)
                if va != vb:
                    return f"t^{d} at {key}: {va} != {vb}"
    return None


class Verdicts:
    """The reports of one pass of checks, one per requested t mode in `at`.

    Each identity's two sides are computed once, at the pass's own t.  A mode
    None takes them as they are; a residue c evaluates both at t = c and
    labels the point t=c (see run_checks for why that is sound)."""

    __slots__ = ("at", "reports")

    def __init__(self, at=(None,)):
        self.at = tuple(at)
        self.reports = [VerificationReport() for _ in self.at]

    def judge(self, identity: str, pt: dict, lhs: TSeries, rhs: TSeries) -> list:
        """The entries of lhs == rhs, one per mode, to be added later."""
        out = []
        for c in self.at:
            a, b, point = (lhs, rhs, pt) if c is None else (_at(lhs, c), _at(rhs, c), dict(pt, t=c))
            out.append((identity, point, a == b, first_mismatch(a, b)))
        return out

    def add(self, judged: list) -> None:
        for rep, args in zip(self.reports, judged):
            rep.add(*args)

    def check(self, identity: str, pt: dict, lhs: TSeries, rhs: TSeries) -> None:
        self.add(self.judge(identity, pt, lhs, rhs))

    def record(self, identity: str, pt: dict, passed: bool, witness: str | None = None) -> None:
        """Enter a verdict that does not depend on t once per mode, each
        labelled as judge labels it."""
        self.add([(identity, pt if c is None else dict(pt, t=c), passed, witness) for c in self.at])


def run_checks(d: Deformation, t_values, block) -> VerificationReport:
    """Run the check block block(verdicts, d at t) over the requested t
    values, each normalized by d.at, and return the entries t after t in
    request order.

    When symbolic t is among the requested values, block runs once, at
    symbolic t, and every residue c takes its pass flag and witness from both
    sides of each identity evaluated at t = c.  That is sound because
    evaluation at t = c is a ring homomorphism that commutes with products,
    slot_apply, counit_slot and convolve, and every numeric-t map is _at of
    its symbolic one (by definition; F and u, built at the residue, term by
    term), so the entries equal those of a direct run at t = c.  Otherwise
    block runs once per t, directly at that t."""
    ts = [d.at(tv).t for tv in t_values]
    passes = [(None, ts)] if None in ts else [(tv, (None,)) for tv in ts]
    rep = VerificationReport()
    for t, at in passes:
        verdicts = Verdicts(at)
        block(verdicts, d.at(t))
        for mode in verdicts.reports:
            rep.extend(mode)
    return rep


# -- slot plumbing on tensor series ---------------------------------------------


def _bucket(acc: list[dict], d: int) -> dict:
    while len(acc) <= d:
        acc.append({})
    return acc[d]


def slot_apply(s: TSeries, slot: int, fn) -> TSeries:
    """Replace tensor factor `slot` of every term of s by the series fn(mono)."""
    out_rank = s.rank - 1 + fn(s._zero.unit_mono()).rank
    acc: list[dict] = []
    for d, elem in enumerate(s.coeffs):
        room = None if s.order is None else s.order + 1 - d
        for key, c in elem.terms.items():
            head, tail = key[:slot], key[slot + 1 :]
            for e, sub in enumerate(fn(key[slot]).coeffs[:room]):
                tgt = _bucket(acc, d + e)
                get = tgt.get
                for skey, sc in sub.terms.items():
                    nkey = head + skey + tail
                    tgt[nkey] = get(nkey, 0) + c * sc
    zero = s._zero.zero_of(out_rank)
    return s._like(s.order, out_rank, [zero.from_sums(out_rank, sums) for sums in acc])


def counit_slot(s: TSeries, slot: int) -> TSeries:
    """Apply the counit to tensor factor `slot`: the unit monomial maps to the
    rank-0 unit, every other monomial to zero."""
    unit = s._zero.unit_mono()
    one, zero = s._const(s._zero.one_of(0)), s._like(None, 0, ())
    return slot_apply(s, slot, lambda mono: one if mono == unit else zero)


def convolve(s: TSeries, apode, side: str) -> TSeries:
    """m o (S (x) Id) (side "left") or m o (Id (x) S) (side "right") on a
    rank-2 series; apode maps a monomial to the series of its antipode."""
    zero = s._zero.zero_of(1)
    acc: list[dict] = []
    for d, elem in enumerate(s.coeffs):
        room = None if s.order is None else s.order + 1 - d
        for (m1, m2), c in elem.terms.items():
            if side == "left":
                sub, other, other_left = apode(m1), zero.monomial(m2), False
            else:
                sub, other, other_left = apode(m2), zero.monomial(m1), True
            for e, sc_elem in enumerate(sub.coeffs[:room]):
                part = other * sc_elem if other_left else sc_elem * other
                tgt = _bucket(acc, d + e)
                get = tgt.get
                for key, sc in part.terms.items():
                    tgt[key] = get(key, 0) + c * sc
    return s._like(s.order, 1, [zero.from_sums(1, sums) for sums in acc])


# -- the per-generator Hopf axioms ------------------------------------------------


def check_generator(verdicts: Verdicts, pt: dict, dk: TSeries, x, coproduct_mono, antipode_mono) -> None:
    """Check coassociativity, counit-left/right and antipode-left/right of the
    coproduct dk of the generator x, in that order; coproduct_mono and
    antipode_mono map a monomial to its image series."""
    verdicts.check("coassociativity", pt, slot_apply(dk, 0, coproduct_mono), slot_apply(dk, 1, coproduct_mono))

    want = dk._const(x)
    for side, slot in (("left", 0), ("right", 1)):
        verdicts.check(f"counit-{side}", pt, counit_slot(dk, slot), want)

    zero = dk._like(dk.order, 1, ())
    for side in ("left", "right"):
        verdicts.check(f"antipode-{side}", pt, convolve(dk, antipode_mono, side), zero)


# -- the deformation -----------------------------------------------------------


def t_label(t) -> str:
    return "symbolic" if t is None else str(t)


@dataclass(frozen=True)
class Deformation:
    """The quantization in direction i, in characteristic char (0 or an odd
    prime p).  Characteristic 0 truncates after t^order and keeps t formal (t
    None).  Characteristic p is exact (order None), reduces i mod p, and t is
    None for symbolic t or a residue to specialize it to.  Equal values hash
    alike, so every spelling of one deformation shares the memo entries.

    It also holds what the characteristics differ in: the rank-1 zero (whose
    _scalar reduces coefficients) and the count of t-degrees the closed
    formulas sum over, which in characteristic p stops below p: e^p = 0, and
    only below p do the coefficients have one residue over all lifts.

    fault, if set, is the degree l < degrees of the one coproduct summand the
    mutation tests falsify; at() keeps it, point leaves it out, and it is
    compared and hashed, so a map the fault changes never shares a clean memo
    entry.  The maps it leaves alone are memoized without it (_fault_free)."""

    char: int
    order: int | None
    i: int
    t: int | None = None
    fault: int | None = None
    zero: TensorElement = field(init=False, repr=False, compare=False)
    degrees: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        char, order, i, t = self.char, self.order, self.i, self.t
        for name in ("order", "i", "t", "fault"):
            if type(value := getattr(self, name)) is not int and (value is not None or name == "i"):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if char or type(char) is not int:
            check_odd_prime(char)
            if i % char == 0:
                raise ValueError("i must be nonzero mod p")
            if order is not None:
                raise ValueError("characteristic p is exact: order must be None")
            derived = {"i": i % char, "t": None if t is None else t % char}
            derived.update(zero=ElementP.zero(char), degrees=char)
        else:
            if i == 0:
                raise ValueError("i must be nonzero")
            if order is None or order < 0:
                raise ValueError("order must be >= 0")
            if t is not None:
                raise ValueError("t is formal in characteristic 0")
            derived = {"zero": Element.zero(1), "degrees": order + 1}
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        if self.fault is not None and self.fault not in range(self.degrees):
            raise ValueError(f"fault {self.fault!r} names no summand: the degrees are 0 .. {self.degrees - 1}")

    def at(self, t) -> "Deformation":
        """The same deformation with t set to t (None: symbolic)."""
        return replace(self, t=t)

    @property
    def point(self) -> dict:
        """The parameters a report entry of this deformation is labelled with."""
        if self.char:
            return {"p": self.char, "i": self.i, "t": t_label(self.t)}
        return {"i": self.i, "order": self.order}

    def gen(self, k: int):
        """The generator L_k, or D_{k mod p}."""
        return ElementP.gen(k, self.char) if self.char else Element.gen(k)

    def e_power(self, n: int):
        """e^n for e = i L_i, as one monomial."""
        return e_element_p(self.char, self.i, n) if self.char else e_element(self.i, n)

    def series(self, rank: int, coeffs=()) -> TSeries:
        """The series of this characteristic with the given coefficients."""
        return PolyP(self.char, rank, coeffs) if self.char else Series(self.order, rank, coeffs)


# -- the deformed generator maps, written once ------------------------------------
#
#   coproduct(L_k) = L_k (x) (1-et)^(k/i)
#                    + sum_l (-1)^l C_l h^(l) (x) (1-et)^(-l) L_{k+li} t^l
#   antipode(L_k)  = -(1-et)^(-k/i) sum_l C_l L_{k+li} (h+1)^(l) t^l
#
# with h = (1/i) L_0, e = i L_i and C_l = int_coeff(i, k-i, l); in
# characteristic p, L_k is D_{k mod p} and every rational coefficient is
# p-integral, so the element ring reduces it.  Each map takes the Deformation
# first: its t None keeps t symbolic, a residue specializes it.


def _fault_free(fn):
    """fn memoized on its deformation with the fault left out, for a map that
    no fault changes: a faulty deformation shares the clean entries rather
    than caching a second copy of them."""
    memo = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def call(d: Deformation, *args):
        return memo(d if d.fault is None else replace(d, fault=None), *args)

    call.cache_info = memo.cache_info
    return call


@_fault_free
def h_rising(d: Deformation, a: int, l: int):
    """(h+a)(h+a+1)...(h+a+l-1) for h = (1/i) L_0: h^(l) at a = 0, (h+1)^(l) at a = 1."""
    return rising(Fraction(1, d.i) * d.gen(0) + a, l)


@_fault_free
def binomial_series(d: Deformation, q) -> TSeries:
    """(1 - et)^q = sum_n binom(q, n) (-e)^n t^n for rational q."""
    return d.series(1, [gen_binomial(q, n) * (-1) ** n * d.e_power(n) for n in range(d.degrees)])


def _at(g: TSeries, t) -> TSeries:
    """The constant series g(t): g specialized at the scalar t."""
    return g._const(g.evaluate(t))


@lru_cache(maxsize=None)
def gen_coproduct(d: Deformation, k: int) -> TSeries:
    """Coproduct of L_k.  A fault of d deliberately falsifies the degree-l
    summand, l = d.fault: a sign flip in characteristic 0, C_l + 1 in
    characteristic p."""
    if d.t is not None:
        return _at(gen_coproduct(d.at(None), k), d.t)
    out = binomial_series(d, Fraction(k, d.i)).tensor_left(d.gen(k))
    for l in range(d.degrees):
        c = int_coeff(d.i, k - d.i, l)
        if d.fault == l:
            c = c + 1 if d.char else -c
        if not d.zero._scalar(c):
            continue
        right = binomial_series(d, Fraction(-l)) * d.gen(k + l * d.i)
        out = out + right.tensor_left(h_rising(d, 0, l)).shift(l) * ((-1) ** l * c)
    return out


@_fault_free
def gen_antipode(d: Deformation, k: int) -> TSeries:
    """Antipode of L_k, operand order as in the defining formula."""
    if d.t is not None:
        return _at(gen_antipode(d.at(None), k), d.t)
    tail = d.series(1)
    for l in range(d.degrees):
        c = d.zero._scalar(int_coeff(d.i, k - d.i, l))
        if not c:
            continue
        elem = d.gen(k + l * d.i) * h_rising(d, 1, l)
        tail = tail + d.series(1, [elem]).shift(l) * c
    return -(binomial_series(d, Fraction(-k, d.i)) * tail)


# -- multiplicative extension of the generator maps ---------------------------------


def _element_image(d: Deformation, x, mono_map) -> TSeries:
    """Linear extension of the monomial map mono_map(d, monomial) to a rank-1
    element; its images have the rank of the unit monomial's."""
    out = d.series(mono_map(d, d.zero.unit_mono()).rank)
    for (mono,), c in x.terms.items():
        image = mono_map(d, mono)
        out = out + (image if c == 1 else image * c)
    return out


def _extension(rank: int, anti: bool, fault_free: bool = False):
    """Turn the generator map gen(d, k), a rank-`rank` series, into its
    extension to monomials, f(d, monomial), memoized on (d, monomial): the
    algebra morphism, built by splitting off the last letter, f(m x_k) =
    f(m) gen(k), or when anti is set the antimorphism, built by splitting off
    the first, f(x_k m) = f(m) gen(k), so that the image built so far is
    always the left factor.  Either multiplies the letters' images in the
    order that multiplying generator by generator would.

    A missing image is built up from the longest part of the monomial whose
    image is memoized, letter by letter, in a loop: each part on the way is
    memoized too, and the depth of the call stack does not grow with the
    length of the monomial.  With fault_free set the memo key leaves d's
    fault out, for a generator map that no fault changes (_fault_free)."""

    def wrap(gen):
        memo: dict = {}
        counts = [0, 0]

        @wraps(gen)
        def image(d: Deformation, mono) -> TSeries:
            if fault_free and d.fault is not None:
                d = replace(d, fault=None)
            out = memo.get((d, mono))
            if out is not None:
                counts[0] += 1
                return out
            counts[1] += 1
            zero = d.zero
            unit = zero.unit_mono()
            if mono == unit:
                out = memo[d, mono] = d.series(rank, [zero.one_of(rank)])
                return out
            chain, rest = [], mono
            while True:
                k, nxt = zero.split_letter(rest, anti)
                chain.append((rest, k))
                rest = nxt
                if rest == unit or (d, rest) in memo:
                    break
            out = None if rest == unit else memo[d, rest]
            for part, k in reversed(chain):
                g = gen(d, k)
                out = memo[d, part] = g if out is None else out * g
            return out

        image.cache_info = lambda: CacheInfo(counts[0], counts[1], None, len(memo))
        return image

    return wrap


@_extension(2, anti=False)
def mono_coproduct(d: Deformation, k: int) -> TSeries:
    """Coproduct of a monomial, an algebra morphism: Delta(m x_k) =
    Delta(m) Delta(x_k).  (This body gives the image of one letter.)"""
    return gen_coproduct(d, k)


@_extension(1, anti=True, fault_free=True)
def mono_antipode(d: Deformation, k: int) -> TSeries:
    """Antipode of a monomial, an algebra antimorphism: S(x_k m) = S(m)
    S(x_k).  (This body gives the image of one letter.)"""
    return gen_antipode(d, k)


def element_coproduct(d: Deformation, x) -> TSeries:
    return _element_image(d, x, mono_coproduct)


def element_antipode(d: Deformation, x) -> TSeries:
    return _element_image(d, x, mono_antipode)


# -- the undeformed Hopf structure, phi_m and the twist ------------------------------


def counit(x):
    """The algebra morphism to the scalars killing every generator, which the
    twist leaves unchanged: the coefficient of the unit monomial."""
    if x.rank != 1:
        raise ValueError("counit takes rank-1 elements")
    return x.coeff((x.unit_mono(),))


@_extension(2, anti=False, fault_free=True)
def delta0_mono(d: Deformation, k: int) -> TSeries:
    """Delta_0 of a monomial, an algebra morphism: x_k -> x_k (x) 1 + 1 (x)
    x_k.  (This body gives the image of one letter.)"""
    x, one = d.gen(k), d.zero.one_of(1)
    return d.series(2, [x.tensor(one) + one.tensor(x)])


@_extension(1, anti=True, fault_free=True)
def s0_mono(d: Deformation, k: int) -> TSeries:
    """S_0 of a monomial, an algebra antimorphism: x_k -> -x_k.  (This body
    gives the image of one letter.)"""
    return d.series(1, [-d.gen(k)])


def undeformed_coproduct(d: Deformation, x) -> TSeries:
    return _element_image(d, x, delta0_mono)


def undeformed_antipode(d: Deformation, x) -> TSeries:
    return _element_image(d, x, s0_mono)


@lru_cache(maxsize=None)
def phi_mono(m: int):
    """phi_m of a monomial, for an integer m != 0: the algebra morphism
    x_k -> m^-1 x_{mk}, one extension per m, made on first use."""

    @_extension(1, anti=False, fault_free=True)
    def phi_m(d: Deformation, k: int) -> TSeries:
        return d.series(1, [Fraction(1, m) * d.gen(m * k)])

    return phi_m


def phi(d: Deformation, m: int, s: TSeries) -> TSeries:
    """phi_m on every tensor factor of s; sigma: x_k -> -x_{-k} is phi_-1."""
    for slot in range(s.rank):
        s = slot_apply(s, slot, partial(phi_mono(m), d))
    return s


@_fault_free
def twist(d: Deformation) -> TSeries:
    """F = sum_r (1/r!) h^(r) (x) e^r t^r, r over the degrees of d: in
    characteristic p below p, where e^p = 0 and 1/r! is p-integral.  At a
    residue t = c it is built there, as the constant sum_r (c^r/r!) h^(r) (x) e^r."""
    scale = [Fraction(1 if d.t is None else d.t**r, factorial(r)) for r in range(d.degrees)]
    terms = [s * h_rising(d, 0, r).tensor(d.e_power(r)) for r, s in enumerate(scale)]
    return d.series(2, terms if d.t is None else [sum(terms, d.zero.zero_of(2))])


@_fault_free
def u_series(d: Deformation) -> TSeries:
    """u = m o (S_0 (x) Id)(F), at the t of d as F is."""
    return convolve(twist(d), partial(s0_mono, d), "left")


def check_twist(verdicts: Verdicts, d: Deformation) -> None:
    """Check the cocycle identity of F, then its counit normalization on
    either side, at d.point.

    F conjugates as F^{-1} Delta_0 F, so the cocycle reads
    (Delta_0 (x) Id)(F) . (F (x) 1) = (Id (x) Delta_0)(F) . (1 (x) F);
    equivalently, F^{-1} satisfies the familiar mirrored form.  With the
    factors transposed the displayed identity already fails at t^2, so the
    orientation is forced by coassociativity of the conjugated coproduct."""
    F, one, pt = twist(d), d.zero.one_of(1), d.point
    d0 = partial(delta0_mono, d)
    F_one = d.series(3, [c.tensor(one) for c in F.coeffs])
    verdicts.check("twist-cocycle", pt, slot_apply(F, 0, d0) * F_one, slot_apply(F, 1, d0) * F.tensor_left(one))
    for side, slot in (("left", 0), ("right", 1)):
        verdicts.check(f"twist-counit-{side}", pt, counit_slot(F, slot), d.series(1, [one]))


# -- the Hopf axioms on generators and generator pairs ----------------------------


def check_hopf(verdicts: Verdicts, d: Deformation, ks, bracket: bool) -> None:
    """Check the Hopf axioms of the deformation d on the generators x_k, k in
    ks: the check_generator block of each x_k, then for each ordered pair
    (k, l) that the coproduct is multiplicative on x_k x_l and, if bracket is
    set, that it maps [x_k, x_l] to [Delta(x_k), Delta(x_l)].  Each point is
    d.point with k (and l) added.

    Where x_k x_l is itself one PBW monomial (k <= l, as PBW order goes), the
    product Delta(x_k) Delta(x_l) is that monomial's mono_coproduct memo
    entry, which the PBW extension builds as exactly that product; the other
    order is multiplied directly.  Taking it from the memo changes neither
    the entries nor what they can catch: only the coproduct-multiplicative
    entries with k > l carry content.  For k <= l the left side, the
    coproduct of the monomial x_k x_l, is the same product by construction,
    so those entries check only the PBW order of the extension and no fault
    in the generator maps can make them fail."""
    base = d.point
    gen = partial(gen_coproduct, d)
    coproduct = partial(element_coproduct, d)
    cp_mono = partial(mono_coproduct, d)
    ap_mono = partial(mono_antipode, d)
    ks = list(ks)

    for k in ks:
        check_generator(verdicts, dict(base, k=k), gen(k), d.gen(k), cp_mono, ap_mono)

    def product(k, l):
        """x_k x_l and Delta(x_k) Delta(x_l)."""
        xy = d.gen(k) * d.gen(l)
        if len(xy.terms) == 1:
            ((key, c),) = xy.terms.items()
            if c == 1:
                return xy, cp_mono(key[0])
        return xy, gen(k) * gen(l)

    # each ordered product is made once: (k, l) and (l, k) together, their
    # entries kept and added in (k, l) order afterwards
    def pair_checks(k, l, xy, yx, kl, lk):
        pt = dict(base, k=k, l=l)
        out = [verdicts.judge("coproduct-multiplicative", pt, coproduct(xy), kl)]
        if bracket:
            out.append(verdicts.judge("coproduct-bracket", pt, coproduct(xy - yx), kl - lk))
        return out

    checks = {}
    for k in ks:
        for l in ks:
            if (k, l) in checks:
                continue
            xy, kl = product(k, l)
            if k == l:
                checks[k, k] = pair_checks(k, k, xy, xy, kl, kl)
            else:
                yx, lk = product(l, k)
                checks[k, l] = pair_checks(k, l, xy, yx, kl, lk)
                checks[l, k] = pair_checks(l, k, yx, xy, lk, kl)
    for k in ks:
        for l in ks:
            for judged in checks[k, l]:
                verdicts.add(judged)
