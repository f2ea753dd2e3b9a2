"""Steklov eigenfunction expansions for Laplace boundary value problems on rectangles."""

from .geometry import GeometryError, Rectangle, Side, SIDES
from .spectrum import (
    FamilyTag,
    GLOBAL_SORTED,
    PER_FAMILY,
    RootFindError,
    Spectrum,
    SpectrumError,
    SteklovMode,
    build_spectrum,
    build_spectrum_by_count,
    find_roots,
    load_spectrum,
    make_mode,
    save_spectrum,
    spectrum_from_json,
    spectrum_to_json,
)
from .boundary import (
    BoundaryFunction,
    CornerMismatchError,
    QuadratureError,
    SteklovCoefficients,
    boundary_partial_sum,
    corner_bilinear_reduction,
    integrate_boundary,
    steklov_coefficients,
)
from .catalog import (
    BUILTIN_NAMES,
    ExactSolution,
    boundary_data_from_spec,
    builtin_boundary,
    exact_solution_for,
)
from .solvers import (
    BoundaryGradientWarning,
    IncompatibleDataError,
    ProblemKind,
    SteklovApproximation,
    grid_points,
    neumann_mean_tolerance,
    solve,
    solve_dirichlet,
    solve_neumann,
    solve_robin,
)
from .analysis import (
    CheckResult,
    SuiteReport,
    boundary_l2,
    boundary_sup,
    coefficient_tail,
    dnorm_sq,
    interior_l2,
    interior_sup,
    invariant_suite,
    robin_bound,
    robin_dnorm_tail_sq,
    spectral_tail,
)

__all__ = [
    "GeometryError", "Rectangle", "Side", "SIDES", "FamilyTag",
    "GLOBAL_SORTED", "PER_FAMILY", "RootFindError", "Spectrum",
    "SpectrumError", "SteklovMode", "build_spectrum",
    "build_spectrum_by_count", "find_roots",
    "load_spectrum", "make_mode", "save_spectrum",
    "spectrum_from_json", "spectrum_to_json", "BoundaryFunction",
    "CornerMismatchError", "QuadratureError", "SteklovCoefficients",
    "boundary_partial_sum", "corner_bilinear_reduction", "integrate_boundary",
    "steklov_coefficients", "BUILTIN_NAMES", "ExactSolution",
    "boundary_data_from_spec", "builtin_boundary", "exact_solution_for",
    "BoundaryGradientWarning", "IncompatibleDataError", "ProblemKind",
    "SteklovApproximation", "grid_points", "neumann_mean_tolerance", "solve",
    "solve_dirichlet", "solve_neumann", "solve_robin", "CheckResult",
    "SuiteReport", "boundary_l2", "boundary_sup", "coefficient_tail",
    "dnorm_sq", "interior_l2", "interior_sup", "invariant_suite",
    "robin_bound", "robin_dnorm_tail_sq", "spectral_tail",
]

__version__ = "0.1.0"
