"""Exact rational moments of simplicial measures on polytopes.

Everything is computed in exact rational arithmetic: moment tables, the
rational moment generating functions they assemble into, and the inverse
problem of recovering a signed simplicial measure from finitely many moments
over a known vertex set, degenerate configurations included.
"""

from .errors import (
    DegenerateDirectionError,
    DegenerateSimplexError,
    DimensionError,
    IncompleteMomentsError,
    NotSpanningError,
    NotStronglyNonDegenerateError,
    NotWeaklyNonDegenerateError,
    PolymomError,
    PreconditionError,
    SingularMatrixError,
)
from .genfunc import (
    LinearForm,
    RatFun,
    SimplePolytope,
    TangentCone,
    brion_axial_moment,
    brion_genfunc,
    brion_identity_residuals,
    density_op,
    euler_op,
    measure_genfunc,
    moments_to_series,
    series_to_moments,
    simplex_genfunc,
    taylor,
)
from .geometry import (
    Classification,
    Degeneracy,
    VertexSet,
    WeightedMeasure,
    classify,
    density,
    rebase,
    simplex,
    uniform_measure,
    volume,
)
from .inverse import (
    FormBasis,
    Reconstruction,
    build_extended,
    det_factor_report,
    dimension_and_basis,
    explicit_inverse,
    extended_columns,
    product_matrix,
    reconstruct,
    recover_numerator,
    select_minor,
    strong_basis,
)
from .linalg import RatMat, det, rat, rat_str, solve
from .linalg import inverse as mat_inverse
from .oracle import MomentTable, axial_moment, measure_moments, simplex_monomial_moment
from .poly import Poly, Series, monomials_of_degree, monomials_upto

# The seeded property suites of `polymom verify`; suite "x-y" is `verify.suite_x_y`.
# They are named here so that the CLI can list them without importing `verify`.
SUITE_NAMES = ("brion", "chambers", "density-op", "detfactor", "rebase", "roundtrip")

__version__ = "0.1.0"
