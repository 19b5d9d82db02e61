"""Sparse tensors of PBW monomials, the element calculus of both characteristics.

An element maps keys to nonzero coefficients; a key is a tuple of ``rank``
monomials, one per tensor factor.  Everything that does not depend on the
monomial rule or the coefficient ring lives here: addition, negation, scalar
and tensor products, powers, the factor swap, equality and printing, the hooks
``zero_of``, ``one_of`` and ``monomial`` of the shared t-series layer, and the
element product, which is the degree-0 case of the ring's series product.

A subclass supplies its ring and its monomial rule:

- ``char``: the characteristic, which names the prime field; elements over
  different fields never compare equal and never combine;
- ``_like(rank, terms)``: a same-ring element from normalized terms;
- ``from_sums(rank, sums)``: a same-ring element from raw coefficient sums;
- ``_scalar(x)``: x as a coefficient, or NotImplemented if x is no scalar of
  the ring;
- ``unit_mono()``, ``split_letter(mono, first)`` and ``mono_str(mono)``;
- ``series_mul(a_coeffs, b_coeffs, n)``, the one multiply kernel: the
  coefficients of t^0 .. t^(n-1) in the product of two t-series of its ring
  and rank.
"""

from __future__ import annotations


class TensorElement:
    """A finitely supported linear combination of (tensors of) monomials."""

    __slots__ = ("rank", "terms")

    # -- ring hooks of the shared t-series layer ------------------------------

    def zero_of(self, rank: int):
        return self._like(rank, {})

    def one_of(self, rank: int):
        return self._like(rank, {(self.unit_mono(),) * rank: self._scalar(1)})

    def monomial(self, mono):
        return self._like(1, {(mono,): self._scalar(1)})

    # -- ring structure ----------------------------------------------------

    def _same_ring(self, other) -> None:
        if self.char != other.char:
            raise ValueError(f"mismatched rings: characteristic {self.char} and {other.char}")

    def _check(self, other) -> None:
        self._same_ring(other)
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def _sum(self, other, sign: int):
        """self + other (sign 1) or self - other (sign -1), normalizing only
        the keys that other touches.  Adding or subtracting zero gives back
        self, and adding to zero gives back other."""
        if not isinstance(other, TensorElement):
            s = self._scalar(other)
            if s is NotImplemented:
                return NotImplemented
            other = self.from_sums(self.rank, {(self.unit_mono(),) * self.rank: s})
        self._check(other)
        if not other.terms:
            return self
        if not self.terms and sign > 0:
            return other
        out = dict(self.terms)
        get = out.get
        if sign > 0:
            sums = {key: get(key, 0) + c for key, c in other.terms.items()}
        else:
            sums = {key: get(key, 0) - c for key, c in other.terms.items()}
        touched = self.from_sums(self.rank, sums).terms
        for key in other.terms.keys() - touched.keys():
            out.pop(key, None)
        out.update(touched)
        return self._like(self.rank, out)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return -1 * self

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self.__rmul__(other)
        self._check(other)
        return self.series_mul((self,), (other,), 1)[0]

    def __rmul__(self, scalar):
        s = self._scalar(scalar)
        if s is NotImplemented:
            return NotImplemented
        return self.from_sums(self.rank, {k: s * c for k, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        if n == 0:
            return self.one_of(self.rank)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def tensor(self, other):
        self._same_ring(other)
        out = {ka + kb: ca * cb for ka, ca in self.terms.items() for kb, cb in other.terms.items()}
        return self.from_sums(self.rank + other.rank, out)

    def swap(self):
        """Flip the two factors of a rank-2 tensor."""
        if self.rank != 2:
            raise ValueError("swap needs rank 2")
        return self._like(2, {(b, a): c for (a, b), c in self.terms.items()})

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key):
        """Coefficient at a key (a tuple of rank many monomials)."""
        return self.terms.get(key, self._scalar(0))

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.char == other.char and self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.char, self.rank, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            mono = " (x) ".join(self.mono_str(m) for m in key)
            bits.append(f"{self.terms[key]} * {mono}")
        return " + ".join(bits)

    __repr__ = __str__


def commutator(x: TensorElement, y: TensorElement) -> TensorElement:
    return x * y - y * x
