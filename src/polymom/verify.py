"""Seeded property suites, shared between the CLI and the test suite.

Each suite draws its cases from a seeded generator and reports every
counterexample exactly; an empty failure list is a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial

from . import genfunc, inverse, oracle
from .errors import NotSpanningError
from .geometry import (
    Degeneracy,
    VertexSet,
    WeightedMeasure,
    classify,
    rebase,
    uniform_measure,
    volume,
)
from .genfunc import SimplePolytope, TangentCone
from .poly import Poly


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"{status} {self.name}: {self.cases} cases, {len(self.failures)} failures"]
        lines.extend(f"  counterexample: {f}" for f in self.failures)
        return "\n".join(lines)


def random_rational(rng, span=5, max_den=4) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-span * den, span * den), den)


def random_point(rng, dim, span=5, max_den=4):
    return tuple(random_rational(rng, span, max_den) for _ in range(dim))


def random_simplex_vertices(rng, dim):
    """dim+1 points in general position (non-degenerate by construction)."""
    return random_strong_set(rng, dim, dim + 1)


def random_strong_set(rng, dim, n):
    while True:
        pts = [random_point(rng, dim) for _ in range(n)]
        try:
            vs = VertexSet(dim, pts)
        except NotSpanningError:
            continue
        if classify(vs).kind is Degeneracy.STRONG:
            return vs


def _example_one_triangle():
    return VertexSet(2, [(1, 1), (2, 5), (3, 2)])


def triangle_polytope(vs: VertexSet) -> SimplePolytope:
    """Cone data of a triangle: edges from each vertex to the other two."""
    pts = vs.points
    cones = []
    for i in range(3):
        others = [j for j in range(3) if j != i]
        edges = [tuple(pts[j][k] - pts[i][k] for k in range(2)) for j in others]
        cones.append(TangentCone(pts[i], edges))
    return SimplePolytope(2, cones)


def box_polytope(dim) -> SimplePolytope:
    """The unit box with inward edge directions at each corner."""
    cones = []
    for corner in range(2**dim):
        bits = [(corner >> k) & 1 for k in range(dim)]
        vertex = tuple(Fraction(b) for b in bits)
        edges = []
        for k in range(dim):
            e = [Fraction(0)] * dim
            e[k] = Fraction(1 - 2 * bits[k])
            edges.append(tuple(e))
        cones.append(TangentCone(vertex, edges))
    return SimplePolytope(dim, cones)


def _nonzero_direction(rng, p: SimplePolytope):
    while True:
        z = random_point(rng, p.dim, span=5, max_den=3)
        try:
            genfunc.brion_identity_residuals(p, z)
        except Exception:
            continue
        return z


def suite_brion(seed: int) -> SuiteReport:
    """Vertex-sum identities: the d lower residual sums vanish identically."""
    rng = random.Random(seed)
    report = SuiteReport("brion")
    polytopes = [triangle_polytope(_example_one_triangle())]
    for _ in range(50):
        polytopes.append(triangle_polytope(random_simplex_vertices(rng, 2)))
    polytopes.append(box_polytope(2))
    polytopes.append(box_polytope(3))
    for p in polytopes:
        for _ in range(5):
            z = _nonzero_direction(rng, p)
            residuals = genfunc.brion_identity_residuals(p, z)
            report.cases += 1
            if any(r != 0 for r in residuals):
                report.failures.append(f"residuals {residuals} at z={z}")
    return report


def suite_detfactor(seed: int) -> SuiteReport:
    """Minor determinants factor into form minors with a shape-only constant."""
    rng = random.Random(seed)
    report = SuiteReport("detfactor")
    full = [c for c in combinations(range(4), 2)]  # strong basis for n=4 forms, d=2
    ratios = set()
    for _ in range(5):
        vs = random_strong_set(rng, 2, 5)
        rep = inverse.det_factor_report(vs, full)
        report.cases += 1
        if rep.ratio is None:
            report.failures.append(f"vanishing minor product on strong set {vs}")
        else:
            ratios.add(rep.ratio)
    if len(ratios) > 1:
        report.failures.append(f"ratio not constant across configurations: {sorted(ratios)}")
    collinear = VertexSet(2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 3)])
    rep = inverse.det_factor_report(collinear, full)
    report.cases += 1
    if rep.determinant != 0:
        report.failures.append("determinant did not vanish on a collinear qualifying triple")
    return report


def suite_roundtrip(seed: int, cases=200) -> SuiteReport:
    """reconstruct inverts oracle moments of random weighted measures exactly."""
    rng = random.Random(seed)
    report = SuiteReport("roundtrip")
    shapes = [(2, n) for n in (4, 5, 6, 7)] + [(3, 5), (3, 6)]
    while report.cases < cases:
        dim, n = rng.choice(shapes)
        vs = random_strong_set(rng, dim, n)
        basis = inverse.strong_basis(vs)
        weights = [random_rational(rng, span=9, max_den=3) for _ in basis.columns]
        measure = WeightedMeasure(vs, list(zip(basis.simplices(), weights)))
        table = oracle.measure_moments(measure, inverse.numerator_degree(vs))
        rec = inverse.reconstruct(table, vs)
        got = dict(((s, w) for s, w, _ in rec.weights))
        want = {}
        for s, w in zip(basis.simplices(), weights):
            want[s] = want.get(s, Fraction(0)) + w
        report.cases += 1
        if any(got.get(s, 0) != w for s, w in want.items()):
            report.failures.append(f"weights {want} came back as {got} on {vs}")
    return report


def suite_rebase(seed: int, cases=60) -> SuiteReport:
    """Rewriting a measure on pivot simplices preserves its moment table."""
    rng = random.Random(seed)
    report = SuiteReport("rebase")
    while report.cases < cases:
        dim = rng.choice([1, 2, 3])
        n = dim + 1 + rng.randint(1, 2)
        vs = random_strong_set(rng, dim, n)
        simplices = []
        for _ in range(rng.randint(1, 3)):
            idx = tuple(sorted(rng.sample(range(n), dim + 1)))
            if volume(idx, vs) != 0:
                simplices.append(idx)
        if not simplices:
            continue
        measure = WeightedMeasure(
            vs, [(s, random_rational(rng, span=6, max_den=3)) for s in simplices]
        )
        pivot = rng.randrange(n)
        order = 5 if dim == 1 else 4 if dim == 2 else 3
        rebased = rebase(measure, pivot)
        report.cases += 1
        if any(pivot not in s for s, _ in rebased.atoms):
            report.failures.append(f"pivot {pivot} missing from {rebased.atoms}")
            continue
        before = oracle.measure_moments(measure, order)
        after = oracle.measure_moments(rebased, order)
        if before != after:
            report.failures.append(f"moments changed under rebase on {vs} pivot {pivot}")
        twice = rebase(rebased, pivot)
        if twice != rebased:
            report.failures.append(f"rebase not idempotent on {vs} pivot {pivot}")
    return report


def suite_density_op(seed: int, cases=25) -> SuiteReport:
    """Differential and renormalization operators match oracle moments of rho*mu."""
    rng = random.Random(seed)
    report = SuiteReport("density-op")
    order = 4
    rhos = [
        Poly.monomial(2, (1, 0)),
        Poly.monomial(2, (1, 1)),
        Poly.monomial(2, (2, 0)),
    ]
    while report.cases < cases * len(rhos):
        vs = random_simplex_vertices(rng, 2)
        s = (0, 1, 2)
        measure = uniform_measure(vs, [s])
        weight = factorial(2) * volume(s, vs)
        f = genfunc.simplex_genfunc(s, vs, weight)
        for rho in rhos:
            delta = rho.degree()
            via_diff = genfunc.density_op(genfunc.taylor(f, order + delta), rho)
            rho_mu_moments = oracle.measure_moments(measure, order, rho)
            series_rho_mu = genfunc.moments_to_series(rho_mu_moments)
            via_euler = genfunc.euler_op(series_rho_mu, 2, delta)
            report.cases += 1
            ok = True
            for exps, value in rho_mu_moments.moments.items():
                expected = genfunc._normalizer(exps, 2, delta) * value
                if via_diff.coefficient(exps) != expected or via_euler.coefficient(exps) != expected:
                    ok = False
            if via_diff != via_euler.truncate(via_diff.order):
                ok = False
            if not ok:
                report.failures.append(f"operator mismatch on {vs} rho={rho}")
    return report


SUITES = {
    "brion": suite_brion,
    "detfactor": suite_detfactor,
    "roundtrip": suite_roundtrip,
    "rebase": suite_rebase,
    "density-op": suite_density_op,
}


def run_suite(name: str, seed: int) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)
