"""Approximate Noether symmetries of perturbed Lagrangians.

Symbolic construction and verification of the order-by-order determining
equations for L = L0 + eps L1, linear-algebraic solving over declared
ansatz spaces, first integrals with formal eps bookkeeping, and numeric
drift measurement.
"""

from .conditions import (
    DeterminingSystem,
    IncompatibleError,
    build_conditions,
    noether_residuals,
    recover_boundary_terms,
    verify,
)
from .conservation import FirstIntegral, first_integral, hamiltonian, symbolic_drift, total_integral
from .context import SYMBOLIC, Context, ContextError
from .geometry import (
    HomotheticKind,
    Metric,
    SpatialVectorField,
    check_homothetic,
    lie_derivative_metric,
    solve_homothetic,
)
from .lagrangian import ApproximateGenerator, GeneratorOrder, ModelError, PerturbedLagrangian
from .normal import NormalForm, ZeroResult, ZeroStatus, is_zero, normalize
from .parsing import ParseError, UnknownIdentifierError, parse, print_expression
from .problem import Problem, ProblemError, fixture_path, load_problem
from .solver import AnsatzSpec, SolutionBasis, SolverError, contains, solve

__version__ = "0.1.0"
