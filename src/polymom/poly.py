"""Sparse multivariate polynomials and truncated power series over Fractions.

Terms are stored as a dict mapping exponent tuples to nonzero Fraction
coefficients.  The canonical term order used for iteration, serialization and
matrix building is graded lexicographic: ascending total degree, and within a
degree descending lexicographic exponents, so that for two variables the
order reads 1, u1, u2, u1^2, u1*u2, u2^2.

`Poly(dim, terms)` checks and coerces what it is given; the results of
arithmetic go through the unchecked `Poly._of`.  `Poly.__mul__` is the full
product; truncated products by vertex forms belong to `genfunc.FormKernel`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, index

from .errors import DimensionError
from .linalg import rat
from .value import Value

# The coefficient of an absent term, shared rather than built on every read.
ZERO = Fraction(0)


def grlex_key(exponents):
    """Sort key realizing the canonical graded-lex order."""
    return (sum(exponents), tuple(-e for e in exponents))


def monomials_of_degree(dim, degree):
    """All exponent tuples of the given total degree, one at a time, in canonical
    order: variable multisets in lexicographic order count out to exactly that."""
    for combo in combinations_with_replacement(range(dim), degree):
        yield tuple(map(combo.count, range(dim)))


def monomials_upto(dim, degree):
    """All exponent tuples of total degree <= degree, in canonical order."""
    return [e for k in range(degree + 1) for e in monomials_of_degree(dim, k)]


class Poly(Value):
    """Immutable sparse polynomial in `dim` variables over Fraction."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        clean = {}
        for exps, coef in (terms or {}).items():
            try:
                exps = tuple(map(index, exps))
            except TypeError:
                raise DimensionError(f"non-integer exponent in {exps}") from None
            if len(exps) != dim or any(e < 0 for e in exps):
                raise DimensionError(f"bad exponent tuple {exps} for dim {dim}")
            coef = rat(coef)
            if coef != 0:
                clean[exps] = clean.get(exps, ZERO) + coef
                if clean[exps] == 0:
                    del clean[exps]
        self._fill(dim, clean)

    @classmethod
    def _of(cls, dim, terms) -> "Poly":
        """Unchecked constructor for results built here: integer exponent
        tuples of length `dim` mapped to Fractions, zero coefficients dropped."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
        return p

    @classmethod
    def zero(cls, dim) -> "Poly":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, value) -> "Poly":
        return cls(dim, {(0,) * dim: rat(value)})

    @classmethod
    def monomial(cls, dim, exponents, coef=1) -> "Poly":
        return cls(dim, {tuple(exponents): rat(coef)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), ZERO)

    def sorted_terms(self):
        """Terms as (exponents, coefficient) pairs in canonical order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key)]

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionError(f"mixed dimensions {self.dim} and {other.dim}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return Poly._of(self.dim, out)

    def __neg__(self):
        return Poly._of(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product with a Poly or a scalar."""
        if not isinstance(other, Poly):
            other = Poly.constant(self.dim, other)
        self._check_dim(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly._of(self.dim, out)

    __hash__ = None

    def drop_above(self, degree) -> "Poly":
        """Discard all terms of total degree > degree."""
        return Poly._of(self.dim, {e: c for e, c in self.terms.items() if sum(e) <= degree})

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for k, p in enumerate(e):
                if p == 1:
                    factors.append(f"u{k + 1}")
                elif p > 1:
                    factors.append(f"u{k + 1}^{p}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = str(abs(c)) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


class Series(Value):
    """A polynomial together with the truncation order it is exact to."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: Poly, order: int):
        if isinstance(order, bool):
            raise TypeError("series order must be an integer, not bool")
        order = index(order)
        if order < 0:
            raise DimensionError("series order must be non-negative")
        self._fill(poly.drop_above(order), order)

    __hash__ = None

    @property
    def dim(self):
        return self.poly.dim

    def coefficient(self, exponents):
        return self.poly.coefficient(exponents)

    def truncate(self, order) -> "Series":
        if order > self.order:
            raise DimensionError(f"cannot extend a series from order {self.order} to {order}")
        return Series(self.poly, order)

    def __repr__(self):
        return f"Series({self.poly}, order={self.order})"
