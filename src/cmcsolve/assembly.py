"""Discrete nonlinear system and its analytic Jacobian.

The unknowns are the nodal potential values plus the constant c.  Rows:

  interior node k:  G(Du_k, D^2u_k) - c          (pole included, via its fit)
  boundary node k:  h_target(Du_k)               (gradient-image condition)
  last row:         sum_i w_i u_i                (discrete mean-zero)

G is either the graph mean-curvature operator (primal problem) or the
Legendre-dual operator -G(y, W), the same kernel at the node position y and
W = [D^2 u]^{-1} (dual problem); both are assembled through one dispatch so
the dual solve reuses the entire Newton machinery.

Because nodal derivatives are fixed sparse operators, the Jacobian is the
exact chain rule of the residual: rows combine the pointwise operator
derivatives with the derivative-recovery weights, so the analytic Jacobian
and the finite-difference Jacobian of the residual agree to truncation of
the differencing itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .domains import ConvexDomain, require_inside_unit_ball
from .errors import ConvexityLoss, SingularHessian, SpacelikeViolation
from .grid import MappedGrid, SolutionField
from .kernel import (EPS_SPACE, ModelKind, _coefficients, _symmetric,
                     mean_curvature, operator_derivatives)

# uniform convexity guard, relative to the largest Hessian eigenvalue so that
# dilating omega, scaling u or taking the Legendre transform leaves it alone
CONVEXITY_RTOL = 1e-8


class OperatorKind(Enum):
    GRAPH = "graph"
    INVERSE_HESSIAN = "inverse_hessian"


@dataclass
class ProblemSpec:
    """Problem instance: solve on omega for a potential whose gradient image
    is omega_tilde, under the given model and operator.

    The admissible class comes with the pair and has no settings: uniform
    convexity (lambda_min > CONVEXITY_RTOL max lambda_max over the nodes)
    and, in the Minkowski model, the spacelike bound |Du| < 1 - EPS_SPACE.
    """

    omega: ConvexDomain
    omega_tilde: ConvexDomain
    model: ModelKind
    grid: MappedGrid
    operator: OperatorKind = OperatorKind.GRAPH

    def __post_init__(self):
        if self.model is ModelKind.MINKOWSKI:
            # the kernel's gradient slot must stay strictly inside the unit
            # ball: gradient values (primal) or node positions (dual)
            constrained = (self.omega_tilde if self.operator is OperatorKind.GRAPH
                           else self.omega)
            require_inside_unit_ball(constrained)

    @property
    def half_turn(self):
        """grid.half_turn if the system is equivariant under the half turn
        about omega's peak, else None: the graph operator is even in Du, so
        the target must be centred at the origin, and the dual operator
        reads the node positions, so omega too.  Sublevel sets keep that."""
        peaks = [self.omega_tilde.peak, self.omega.peak][:2 - (self.operator is OperatorKind.GRAPH)]
        return None if np.any(peaks) else self.grid.half_turn


def _inverse_2x2(d2u):
    """Symmetric batched inverse; raises SingularHessian where |det| <=
    1e-14 |H|_F^2, a test that scaling H does not change."""
    r11, r12, r22 = d2u[..., 0, 0], d2u[..., 0, 1], d2u[..., 1, 1]
    det = r11 * r22 - r12 * r12
    norm2 = r11 * r11 + r12 * r12 + r12 * r12 + r22 * r22
    singular = np.abs(det) <= 1e-14 * norm2
    if np.any(singular):
        k = np.flatnonzero(singular)[0]
        raise SingularHessian(f"Hessian determinant {det.flat[k]:.3e} at squared "
                              f"norm {norm2.flat[k]:.3e}")
    return _symmetric(r22 / det, -r12 / det, r11 / det)


def inverse_hessian_operator(positions, d2u, model: ModelKind):
    """The Legendre-dual operator -G(y, W) = -s(y) : W, W = [D^2u]^{-1}, at node positions y."""
    return -mean_curvature(positions, _inverse_2x2(np.asarray(d2u, dtype=float)), model)


def operator_value(spec: ProblemSpec, positions, du, d2u):
    """Pointwise operator values at the given states."""
    if spec.operator is OperatorKind.GRAPH:
        return mean_curvature(du, d2u, spec.model)
    return inverse_hessian_operator(positions, d2u, spec.model)


def operator_state_derivatives(spec: ProblemSpec, positions, du, d2u):
    """(dG/d(d2u), dG/d(du)) at the given states; shapes (..., 2, 2), (..., 2).
    The dual operator's are W s W, W = [D^2u]^{-1} symmetric, and zero."""
    if spec.operator is OperatorKind.GRAPH:
        return operator_derivatives(du, d2u, spec.model)
    w = _inverse_2x2(np.asarray(d2u, dtype=float))
    a, b, d = w[..., 0, 0], w[..., 0, 1], w[..., 1, 1]
    _, _, _, s11, s12, s22 = _coefficients(positions, spec.model)
    ws1, ws2 = a * s11 + b * s12, a * s12 + b * s22     # first row of W s
    return (_symmetric(ws1 * a + ws2 * b, ws1 * b + ws2 * d,
                       b * (b * s11 + d * s12) + d * (b * s12 + d * s22)),
            np.zeros_like(np.asarray(du, float)))


def hessian_eig_bounds(d2u):
    """(lambda_min, lambda_max) of each symmetric 2x2 in a batch.

    The spread cannot overflow for finite entries; an infinite entry gives
    NaN or infinite bounds, which every guard and check counts as failing.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = 0.5 * (d2u[..., 0, 0] + d2u[..., 1, 1])
        disc = np.hypot(0.5 * (d2u[..., 0, 0] - d2u[..., 1, 1]), d2u[..., 0, 1])
        return mean - disc, mean + disc


def admissibility_violation(spec: ProblemSpec, du, d2u):
    """Return the guard violation for nodal derivatives (Du, D^2u), or None
    if admissible.

    Guards: uniform convexity, min lambda_min > CONVEXITY_RTOL max lambda_max
    over the nodes, so a zero, concave or non-finite Hessian fails; for the
    primal Minkowski operator also the spacelike bound
    max |Du| < 1 - EPS_SPACE.
    """
    lam_min, lam_max = hessian_eig_bounds(d2u)
    k = int(np.argmin(lam_min))
    if not lam_min[k] > CONVEXITY_RTOL * np.max(lam_max):
        return ConvexityLoss(float(lam_min[k]), node=k)
    if spec.operator is OperatorKind.GRAPH and spec.model is ModelKind.MINKOWSKI:
        g = np.linalg.norm(du, axis=-1)
        k = int(np.argmax(g))
        if not g[k] < 1.0 - EPS_SPACE:
            return SpacelikeViolation(float(g[k]), node=k)
    return None


def residual_from_state(spec: ProblemSpec, u, c, du, d2u, du_b):
    """Residual vector given precomputed nodal derivatives.

    du_b carries the boundary-ring gradients from the mapped per-column
    stencils (grid.boundary_gradients); the interior least-squares recovery
    feeds the operator rows only.
    """
    grid = spec.grid
    res = np.empty(grid.n_nodes + 1)
    g_val = operator_value(spec, grid.nodes, du, d2u)
    res[:grid.n_nodes] = g_val - c
    h_b, _, _ = spec.omega_tilde.defining(du_b)
    res[grid.boundary_idx] = h_b
    res[grid.n_nodes] = grid.quad_weights @ u
    return res


def residual(spec: ProblemSpec, field: SolutionField) -> np.ndarray:
    """Length N+1 residual of the discrete system at a field."""
    du, d2u = field.derivatives()
    du_b = field.grid.boundary_gradients(field.u)
    return residual_from_state(spec, field.u, field.c, du, d2u, du_b)


def jacobian(spec: ProblemSpec, du, d2u, du_b) -> sp.csr_matrix:
    """Analytic (N+1) x (N+1) Jacobian with respect to (u, c) at nodal
    derivatives (Du, D^2u) and boundary-ring gradients du_b.

    The five recovery operators share one sparsity pattern, so each interior
    row is that pattern's row with the node's operator derivatives as
    weights, followed by the -1 of the c column.  The terms are summed in
    the order dxx, dxy, dyy, dx, dy, which makes the matrix equal bit for
    bit to the sum of diagonally weighted operators it replaces (the dual
    operator's zero dx, dy terms are skipped).  Boundary rows weight the bx,
    by pattern with Dh_target(Du); the mean-zero row holds the quadrature
    weights.  The pattern is the grid's bordered_pattern, built once per
    grid, so a call only fills the entries.  Exact zeros (the pole's
    quadrature weight, sums that cancel) are dropped: a stored zero would
    change the fill-reducing ordering.
    """
    grid = spec.grid
    n = grid.n_nodes
    g_r, g_p = operator_state_derivatives(spec, grid.nodes, du, d2u)
    _, dh_b, _ = spec.omega_tilde.defining(du_b)

    ops, pattern = grid.ops, grid.bordered_pattern
    r, rb, recovery = pattern.rows, pattern.boundary_rows, pattern.recovery
    k = len(r)
    inner = (g_r[:, 0, 0][r] * ops['dxx'].data[:k] + 2.0 * g_r[:, 0, 1][r] * ops['dxy'].data[:k]
             + g_r[:, 1, 1][r] * ops['dyy'].data[:k])
    if spec.operator is OperatorKind.GRAPH:   # the dual operator's g_p is zero
        inner += g_p[:, 0][r] * ops['dx'].data[:k]
        inner += g_p[:, 1][r] * ops['dy'].data[:k]
    edge = dh_b[rb, 0] * ops['bx'].data + dh_b[rb, 1] * ops['by'].data

    data = np.empty(len(pattern.indices))
    interior = data[:len(recovery)]   # a view: the interior rows' entries
    interior[:] = -1.0
    interior[recovery] = inner
    data[len(recovery):-n] = edge
    data[-n:] = grid.quad_weights
    # copies: eliminate_zeros compacts the pattern arrays in place
    jac = sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()),
                        shape=(n + 1, n + 1))
    jac.eliminate_zeros()
    return jac
