"""Discrete nonlinear system and its analytic Jacobian.

The unknowns are the nodal potential values plus the constant c.  Rows:

  interior node k:  G(Du_k, D^2u_k) - c          (pole included, via its fit)
  boundary node k:  h_target(Du_k)               (gradient-image condition)
  last row:         sum_i w_i u_i                (discrete mean-zero)

G is either the graph mean-curvature operator (primal problem) or the
Legendre-dual operator -G(y, [D^2 u]^{-1}) whose gradient slot is the node
position (dual problem); both are assembled through one dispatch so the
dual solve reuses the entire Newton machinery.

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
from .kernel import (DEFAULT_EPS_SPACE, ModelKind, coefficient_matrix,
                     mean_curvature, operator_derivatives)


class OperatorKind(Enum):
    GRAPH = "graph"
    INVERSE_HESSIAN = "inverse_hessian"


@dataclass
class ProblemSpec:
    """Problem instance: solve on omega for a potential whose gradient image
    is omega_tilde, under the given model and operator."""

    omega: ConvexDomain
    omega_tilde: ConvexDomain
    model: ModelKind
    grid: MappedGrid
    operator: OperatorKind = OperatorKind.GRAPH
    eps_space: float = DEFAULT_EPS_SPACE

    def __post_init__(self):
        if self.model is ModelKind.MINKOWSKI:
            # the kernel's gradient slot must stay strictly inside the unit
            # ball: gradient values (primal) or node positions (dual)
            constrained = (self.omega_tilde if self.operator is OperatorKind.GRAPH
                           else self.omega)
            require_inside_unit_ball(constrained, self.eps_space)


def _inverse_2x2(d2u):
    det = d2u[..., 0, 0] * d2u[..., 1, 1] - d2u[..., 0, 1] * d2u[..., 1, 0]
    if np.any(np.abs(det) < 1e-14):
        raise SingularHessian(f"Hessian determinant {np.min(np.abs(det)):.3e}")
    w = np.empty_like(d2u)
    w[..., 0, 0] = d2u[..., 1, 1]
    w[..., 1, 1] = d2u[..., 0, 0]
    w[..., 0, 1] = -d2u[..., 0, 1]
    w[..., 1, 0] = -d2u[..., 1, 0]
    return w / det[..., None, None]


def operator_value(spec: ProblemSpec, positions, du, d2u):
    """Pointwise operator values at the given states."""
    if spec.operator is OperatorKind.GRAPH:
        return mean_curvature(du, d2u, spec.model, spec.eps_space)
    w = _inverse_2x2(np.asarray(d2u, dtype=float))
    s = coefficient_matrix(positions, spec.model, spec.eps_space)
    return -np.einsum('...kl,...kl->...', s, w)


def operator_state_derivatives(spec: ProblemSpec, positions, du, d2u):
    """(dG/d(d2u), dG/d(du)) at the given states; shapes (..., 2, 2), (..., 2)."""
    if spec.operator is OperatorKind.GRAPH:
        return operator_derivatives(du, d2u, spec.model, spec.eps_space)
    w = _inverse_2x2(np.asarray(d2u, dtype=float))
    s = coefficient_matrix(positions, spec.model, spec.eps_space)
    g_r = np.einsum('...ik,...kl,...lj->...ij', w, s, w)
    return 0.5 * (g_r + np.swapaxes(g_r, -1, -2)), np.zeros_like(np.asarray(du, float))


def hessian_eig_bounds(d2u):
    """(lambda_min, lambda_max) of each symmetric 2x2 in a batch."""
    mean = 0.5 * (d2u[..., 0, 0] + d2u[..., 1, 1])
    disc = np.sqrt((0.5 * (d2u[..., 0, 0] - d2u[..., 1, 1])) ** 2
                   + d2u[..., 0, 1] ** 2)
    return mean - disc, mean + disc


def admissibility_violation(spec: ProblemSpec, field: SolutionField,
                            eps_convexity: float = 1e-8):
    """Return the guard violation for a field, or None if admissible.

    Guards: uniform convexity at every node; for the primal Minkowski
    operator also the spacelike bound max |Du| <= 1 - eps_space.
    """
    du, d2u = field.derivatives()
    lam_min, _ = hessian_eig_bounds(d2u)
    k = int(np.argmin(lam_min))
    if lam_min[k] < eps_convexity:
        return ConvexityLoss(float(lam_min[k]), node=k)
    if spec.operator is OperatorKind.GRAPH and spec.model is ModelKind.MINKOWSKI:
        g = np.linalg.norm(du, axis=-1)
        k = int(np.argmax(g))
        if g[k] >= 1.0 - spec.eps_space:
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


def jacobian(spec: ProblemSpec, field: SolutionField) -> sp.csr_matrix:
    """Analytic (N+1) x (N+1) Jacobian with respect to (u, c)."""
    grid = spec.grid
    n = grid.n_nodes
    du, d2u = field.derivatives()
    g_r, g_p = operator_state_derivatives(spec, grid.nodes, du, d2u)

    bidx = grid.boundary_idx
    du_b = grid.boundary_gradients(field.u)
    _, dh_b, _ = spec.omega_tilde.defining(du_b)

    w_xx = g_r[:, 0, 0].copy()
    w_xy = 2.0 * g_r[:, 0, 1]
    w_yy = g_r[:, 1, 1].copy()
    w_x = g_p[:, 0].copy()
    w_y = g_p[:, 1].copy()
    w_xx[bidx] = 0.0
    w_xy[bidx] = 0.0
    w_yy[bidx] = 0.0
    w_x[bidx] = 0.0
    w_y[bidx] = 0.0
    w_bx = np.zeros(n)
    w_by = np.zeros(n)
    w_bx[bidx] = dh_b[:, 0]
    w_by[bidx] = dh_b[:, 1]

    ops = grid.ops
    m = (sp.diags(w_xx) @ ops['dxx'] + sp.diags(w_xy) @ ops['dxy']
         + sp.diags(w_yy) @ ops['dyy'] + sp.diags(w_x) @ ops['dx']
         + sp.diags(w_y) @ ops['dy'] + sp.diags(w_bx) @ ops['bx']
         + sp.diags(w_by) @ ops['by'])

    c_col = np.full(n, -1.0)
    c_col[bidx] = 0.0
    return sp.bmat([[m, sp.csr_matrix(c_col[:, None])],
                    [sp.csr_matrix(grid.quad_weights[None, :]), None]],
                   format='csr')

