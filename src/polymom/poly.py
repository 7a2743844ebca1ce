"""Sparse multivariate polynomials and truncated power series over Fractions.

Terms are stored as a dict mapping exponent tuples to nonzero Fraction
coefficients.  The canonical term order used for iteration, serialization and
matrix building is graded lexicographic: ascending total degree, and within a
degree descending lexicographic exponents, so that for two variables the
order reads 1, u1, u2, u1^2, u1*u2, u2^2.

`Poly(dim, terms)` checks and coerces what it is given; the results of
arithmetic go through the unchecked `Poly._of`.  All products come from one
kernel, `Poly.mul`, whose optional degree bound keeps it from forming any
term above the bound, so a truncated product costs only the terms it keeps.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add, index, itemgetter

from .errors import DimensionError
from .linalg import rat


def grlex_key(exponents):
    """Sort key realizing the canonical graded-lex order."""
    return (sum(exponents), tuple(-e for e in exponents))


def monomials_of_degree(dim, degree):
    """All exponent tuples of the given total degree, in canonical order."""
    out = []
    for combo in combinations_with_replacement(range(dim), degree):
        exps = [0] * dim
        for v in combo:
            exps[v] += 1
        out.append(tuple(exps))
    out.sort(key=grlex_key)
    return out


def monomials_upto(dim, degree):
    """All exponent tuples of total degree <= degree, in canonical order."""
    out = []
    for k in range(degree + 1):
        out.extend(monomials_of_degree(dim, k))
    return out


class Poly:
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
                clean[exps] = clean.get(exps, Fraction(0)) + coef
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, dim, terms) -> "Poly":
        """Unchecked constructor for results built here: integer exponent
        tuples of length `dim` mapped to Fractions, zero coefficients dropped."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, dim) -> "Poly":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim, value) -> "Poly":
        return cls(dim, {(0,) * dim: rat(value)})

    @classmethod
    def monomial(cls, dim, exponents, coef=1) -> "Poly":
        return cls(dim, {tuple(exponents): rat(coef)})

    @classmethod
    def variable(cls, dim, k) -> "Poly":
        exps = [0] * dim
        exps[k] = 1
        return cls.monomial(dim, exps)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

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
            out[e] = out.get(e, Fraction(0)) + c
        return Poly._of(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def mul(self, other, degree=None) -> "Poly":
        """Product with a Poly or a scalar, without any term of total degree
        above `degree`: each term stops at the first factor term (by ascending
        degree) that would pass the bound, so none is formed."""
        if not isinstance(other, Poly):
            other = Poly.constant(self.dim, other)
        self._check_dim(other)
        if degree is None:
            degree = self.degree() + other.degree()
        right = sorted(((sum(e), e, c) for e, c in other.terms.items()), key=itemgetter(0))
        out = {}
        for e1, c1 in self.terms.items():
            room = degree - sum(e1)
            for d2, e2, c2 in right:
                if d2 > room:
                    break
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly._of(self.dim, out)

    def __mul__(self, other):
        return self.mul(other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result = Poly.constant(self.dim, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return isinstance(other, Poly) and self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def partial(self, k) -> "Poly":
        """Exact partial derivative with respect to variable k."""
        if not 0 <= k < self.dim:
            raise DimensionError(f"variable index {k} out of range for dim {self.dim}")
        out = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            ne = list(e)
            ne[k] -= 1
            out[tuple(ne)] = c * e[k]
        return Poly._of(self.dim, out)

    def drop_above(self, degree) -> "Poly":
        """Discard all terms of total degree > degree."""
        return Poly._of(self.dim, {e: c for e, c in self.terms.items() if sum(e) <= degree})

    def truncate(self, degree) -> "Series":
        return Series(self.drop_above(degree), degree)

    def homogenize(self, total) -> "Poly":
        """Pad each term with a power of a fresh leading variable up to `total`.

        The new variable is prepended, matching the identification of degree
        <= k polynomials in d variables with homogeneous degree-k forms in
        d+1 variables.
        """
        if self.degree() > total:
            raise DimensionError(
                f"cannot homogenize degree {self.degree()} polynomial to total degree {total}"
            )
        out = {}
        for e, c in self.terms.items():
            out[(total - sum(e),) + e] = c
        return Poly._of(self.dim + 1, out)

    def dehomogenize(self) -> "Poly":
        """Set the leading variable to 1."""
        if self.dim == 0:
            raise DimensionError("cannot dehomogenize a 0-variable polynomial")
        out = {}
        for e, c in self.terms.items():
            key = e[1:]
            out[key] = out.get(key, Fraction(0)) + c
        return Poly._of(self.dim - 1, out)

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


class Series:
    """A polynomial together with the truncation order it is exact to."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: Poly, order: int):
        if order < 0:
            raise DimensionError("series order must be non-negative")
        object.__setattr__(self, "poly", poly.drop_above(order))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def dim(self):
        return self.poly.dim

    def coefficient(self, exponents):
        return self.poly.coefficient(exponents)

    def truncate(self, order) -> "Series":
        if order > self.order:
            raise DimensionError(f"cannot extend a series from order {self.order} to {order}")
        return Series(self.poly, order)

    def __eq__(self, other):
        return isinstance(other, Series) and self.order == other.order and self.poly == other.poly

    def __repr__(self):
        return f"Series({self.poly}, order={self.order})"
