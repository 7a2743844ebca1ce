"""Exact rational moments of simplicial measures on polytopes.

Everything is computed in exact rational arithmetic: moment tables, the
rational moment generating functions they assemble into, and the inverse
problem of recovering a signed simplicial measure from finitely many moments
over a known vertex set, degenerate configurations included.
"""

from importlib import import_module

# The public names by the module that defines each, `mat_inverse` standing for `linalg.inverse`; a
# submodule names itself.  `import polymom` loads none of them: the first read of a name imports its
# module (PEP 562), so a CLI command compiles only the modules it runs.
_NAMES = {
    "errors": """DegenerateDirectionError DegenerateSimplexError DimensionError IncompleteMomentsError
        NotSpanningError NotStronglyNonDegenerateError NotWeaklyNonDegenerateError PolymomError
        PreconditionError SingularMatrixError""",
    "genfunc": """LinearForm RatFun SimplePolytope TangentCone brion_axial_moment brion_genfunc
        brion_identity_residuals density_op euler_op measure_genfunc moments_to_series
        series_to_moments simplex_genfunc taylor""",
    "geometry": """Classification Degeneracy VertexSet WeightedMeasure classify density rebase simplex
        uniform_measure volume""",
    "inverse": """FormBasis Reconstruction build_extended det_factor_report dimension_and_basis
        explicit_inverse extended_columns product_matrix reconstruct recover_numerator select_minor
        strong_basis""",
    "linalg": "RatMat det mat_inverse rat rat_str solve",
    "oracle": "axial_moment measure_moments simplex_monomial_moment",
    "poly": "MomentTable Poly Series monomials_of_degree monomials_upto",
    "value": "",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in [module, *names.split()]}

__all__ = [*_MODULE, "SUITE_NAMES"]


def __getattr__(name):
    """Import the module of a public name on its first read, and keep the name."""
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_MODULE[name]}", __name__)
    attr = "inverse" if name == "mat_inverse" else name
    globals()[name] = module if name in _NAMES else getattr(module, attr)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


# The seeded property suites of `polymom verify`; suite "x-y" is `verify.suite_x_y`.
# They are named here so that the CLI can list them without importing `verify`.
SUITE_NAMES = ("brion", "chambers", "density-op", "detfactor", "rebase", "roundtrip")

__version__ = "0.1.0"
