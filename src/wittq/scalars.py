"""Exact scalar arithmetic and the integral coefficient families.

Everything here is exact: arbitrary-precision integers (Python int), reduced
rationals (fractions.Fraction) and prime-field residues.  The coefficient
functions int_coeff / n_coeff / gen_binomial carry every structure constant
used by the deformed coalgebra maps, so their exactness is load-bearing: the
exact-division assertion inside int_coeff doubles as a continuously running
integrality check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class ExactDivisionError(ArithmeticError):
    """The always-exact division inside int_coeff left a remainder."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_odd_prime(p: int) -> None:
    """The one rule on a modulus: ValueError unless p is an odd prime (an
    int, not a bool)."""
    if type(p) is not int or not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


class FpElem:
    """A residue in the prime field F_p, p an odd prime.

    Immutable; all arithmetic stays inside one modulus and mixing moduli
    raises.  Plain ints are accepted on the right of arithmetic operators and
    are reduced mod p, but a residue never equals a plain int, so that equal
    objects hash alike.
    """

    __slots__ = ("residue", "p")

    def __init__(self, value: int, p: int):
        check_odd_prime(p)
        if type(value) is not int:
            raise ValueError(f"value must be an int, got {value!r}")
        object.__setattr__(self, "residue", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):
        raise AttributeError("FpElem is immutable")

    def _coerce(self, other) -> "FpElem":
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise ValueError(f"mismatched moduli {self.p} and {other.p}")
            return other
        if type(other) is int:
            return FpElem(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else FpElem(self.residue + o.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else FpElem(self.residue - o.residue, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else FpElem(o.residue - self.residue, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else FpElem(self.residue * o.residue, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return FpElem(-self.residue, self.p)

    def inverse(self) -> "FpElem":
        if self.residue == 0:
            raise ZeroDivisionError("0 has no inverse in F_p")
        return FpElem(pow(self.residue, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self * o.inverse()

    def __pow__(self, n: int):
        return FpElem(pow(self.residue, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpElem):
            return self.p == other.p and self.residue == other.residue
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.p))

    def __bool__(self):
        return self.residue != 0

    def lift(self) -> int:
        """Canonical integer representative in [0, p)."""
        return self.residue

    def __repr__(self):
        return f"FpElem({self.residue}, {self.p})"

    def __str__(self):
        return str(self.residue)


def int_coeff(a: int, k: int, l: int) -> int:
    """The integer a^l * (k)(k+a)...(k+(l-1)a) / l!.

    The division by l! is asserted exact; a nonzero remainder would mean the
    integrality guarantee underlying every structure constant is false, so it
    raises ExactDivisionError instead of silently rounding.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    num = a**l
    for j in range(l):
        num *= k + j * a
    q, r = divmod(num, factorial(l))
    if r:
        raise ExactDivisionError(f"int_coeff({a}, {k}, {l}): remainder {r}")
    return q


def n_coeff(a: FpElem, k: FpElem, l: int) -> FpElem:
    """Common residue mod p of int_coeff over all integer lifts of (a, k).

    Only defined for l < p: the division by l! destroys lift-independence as
    soon as p divides l! (e.g. lifts (1,0) and (1,3) of (1,0) mod 3 give
    int_coeff values 0 and 10 at l=3).  Every structure-map sum stays below p,
    so nothing larger is ever needed.  Computed from the canonical lifts in
    [0, p); lift-independence itself is a checked property of the test suite,
    not an assumption made here.
    """
    if a.p != k.p:
        raise ValueError(f"mismatched moduli {a.p} and {k.p}")
    if l >= a.p:
        raise ValueError(f"no common residue for l={l} >= p={a.p}")
    return FpElem(int_coeff(a.lift(), k.lift(), l), a.p)


def gen_binomial(q, n: int) -> Fraction:
    """Generalized binomial coefficient q(q-1)...(q-n+1) / n! for rational q."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = Fraction(q)
    out = Fraction(1)
    for j in range(n):
        out *= q - j
    return out / factorial(n)


def rising(x, l: int):
    """Rising factorial x(x+1)...(x+l-1) in the ring of x; empty product for l = 0."""
    out = x**0
    for j in range(l):
        out = out * (x + j)
    return out
