"""Brute-force exact moments, used as ground truth by every other module.

A monomial is integrated over a simplex by pulling back through the affine
map onto the standard simplex and integrating term by term with the
Dirichlet formula

    integral over T_d of t^K dt  =  (prod k_i!) / (|K| + d)!

A moment table builds its pulled-back integrands degree by degree: the
integrand of x^I is that of its parent, I with the last nonzero exponent
lowered by one, times one coordinate function, and only the previous
degree's integrands are kept.  This path shares no code with the
generating-function machinery, so it can arbitrate its results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DegenerateSimplexError, DimensionError
from .geometry import VertexSet, WeightedMeasure, check_simplex, edge_det
from .linalg import rat
from .poly import Poly, grlex_key, monomials_of_degree, monomials_upto


@dataclass(frozen=True)
class MomentTable:
    """All moments m_I with |I| <= order, zeros stored explicitly."""

    dim: int
    order: int
    moments: dict

    def __post_init__(self):
        if self.order < 0:
            raise DimensionError(f"moment order must be non-negative, got {self.order}")
        expected = set(monomials_upto(self.dim, self.order))
        got = set(self.moments)
        if got != expected:
            raise DimensionError(
                f"moment table must be complete to order {self.order}; "
                f"missing {sorted(expected - got)}, extra {sorted(got - expected)}"
            )

    def __getitem__(self, index):
        return self.moments[tuple(index)]

    def sorted_items(self):
        return [(e, self.moments[e]) for e in sorted(self.moments, key=grlex_key)]

    def __eq__(self, other):
        return (
            isinstance(other, MomentTable)
            and self.dim == other.dim
            and self.order == other.order
            and self.moments == other.moments
        )


def _standard_simplex_integral(p: Poly) -> Fraction:
    """Exact integral of a polynomial over the standard simplex T_d."""
    d = p.dim
    total = Fraction(0)
    for exps, coef in p.terms.items():
        num = 1
        for k in exps:
            num *= factorial(k)
        total += coef * Fraction(num, factorial(sum(exps) + d))
    return total


def _pullback_coordinates(s, vs: VertexSet):
    """Coordinate functions x_j(t) of the affine map onto the simplex."""
    s = check_simplex(s, vs)
    d = vs.dim
    base = vs.points[s[0]]
    coords = []
    for j in range(d):
        terms = {(0,) * d: base[j]}
        for i, v in enumerate(s[1:]):
            exps = [0] * d
            exps[i] = 1
            terms[tuple(exps)] = vs.points[v][j] - base[j]
        coords.append(Poly(d, terms))
    return coords


def simplex_monomial_moment(s, vs: VertexSet, index) -> Fraction:
    """Exact integral of x^I over the simplex, Lebesgue measure."""
    dvol = edge_det(s, vs)
    if dvol == 0:
        raise DegenerateSimplexError(f"degenerate simplex {s}")
    coords = _pullback_coordinates(s, vs)
    integrand = Poly.constant(vs.dim, 1)
    for j, k in enumerate(index):
        integrand = integrand * coords[j] ** k
    return abs(dvol) * _standard_simplex_integral(integrand)


def measure_moments(m: WeightedMeasure, order: int, rho: Poly | None = None) -> MomentTable:
    """Complete moment table of the measure (times an optional polynomial density).

    Per atom, density * |det| collapses to the weight, so the contribution of
    an atom to m_I is simply  w * integral over T_d of x(t)^I rho(x(t)) dt.
    """
    vs = m.vertex_set
    d = vs.dim
    if rho is not None and rho.dim != d:
        raise DimensionError(f"density has {rho.dim} variables, measure lives in R^{d}")
    table = {e: Fraction(0) for e in monomials_upto(d, order)}
    for s, w in m.atoms:
        if edge_det(s, vs) == 0:
            raise DegenerateSimplexError(f"degenerate simplex {s}")
        coords = _pullback_coordinates(s, vs)
        rho_t = Poly.constant(d, 1)
        if rho is not None:
            rho_t = Poly.zero(d)
            for exps, coef in rho.terms.items():
                term = Poly.constant(d, coef)
                for j, k in enumerate(exps):
                    term = term * coords[j] ** k
                rho_t = rho_t + term
        level = {(0,) * d: rho_t}
        for degree in range(order + 1):
            if degree:
                level = {e: _parent_integrand(level, e, coords) for e in monomials_of_degree(d, degree)}
            for exps, integrand in level.items():
                table[exps] += w * _standard_simplex_integral(integrand)
    return MomentTable(d, order, table)


def _parent_integrand(level, exps, coords):
    """rho(x(t)) x(t)^I from the integrand one degree lower: the parent lowers
    the last nonzero exponent of I by one, so it is multiplied by that coordinate."""
    j = max(i for i, k in enumerate(exps) if k)
    parent = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
    return level[parent] * coords[j]


def axial_moment(m: WeightedMeasure, z, j: int) -> Fraction:
    """Exact integral of <x, z>^j against the measure, by multinomial expansion."""
    z = [rat(c) for c in z]
    vs = m.vertex_set
    if len(z) != vs.dim:
        raise DimensionError(f"direction of length {len(z)} in R^{vs.dim}")
    table = measure_moments(m, j)
    total = Fraction(0)
    for exps, value in table.moments.items():
        if sum(exps) != j:
            continue
        coef = factorial(j)
        zpow = Fraction(1)
        for zc, k in zip(z, exps):
            coef //= factorial(k)
            zpow *= zc**k
        total += coef * zpow * value
    return total


