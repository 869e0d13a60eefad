"""Solver and verification apparatus for the second boundary value problem
of constant mean curvature equations: find a uniformly convex potential u and
a constant c with div(Du / sqrt(1 -+ |Du|^2)) = c and gradient image
Du(Omega) = Omega_tilde, for spacelike graphs in Minkowski space and for
Euclidean graphs."""

from .assembly import (OperatorKind, ProblemSpec, jacobian, residual)
from .diagnostics import DiagnosticsReport, full_report, lambda_bounds
from .domains import Ball, ConvexDomain, Ellipse
from .duality import (FieldInterpolant, dual_residual, dual_solve,
                      legendre_transform)
from .grid import MappedGrid, SolutionField, build_grid, transfer_field
from .kernel import ModelKind
from .radial import (RadialSolution, radial_constant, radial_profile,
                     seed_field)
from .solver import (HomotopyState, NewtonInfo, SolveOptions, damped_step,
                     direct_or_walk, newton_solve, run_homotopy)

__version__ = "0.1.0"

__all__ = [
    "Ball", "ConvexDomain", "Ellipse",
    "ModelKind",
    "MappedGrid", "SolutionField", "build_grid", "transfer_field",
    "OperatorKind", "ProblemSpec", "residual", "jacobian",
    "SolveOptions", "NewtonInfo", "HomotopyState",
    "newton_solve", "damped_step", "run_homotopy", "direct_or_walk",
    "RadialSolution", "radial_constant", "radial_profile", "seed_field",
    "FieldInterpolant", "legendre_transform", "dual_residual", "dual_solve",
    "DiagnosticsReport", "full_report", "lambda_bounds",
    "__version__",
]
