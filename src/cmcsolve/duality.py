"""Legendre transform of solved fields, the dual residual, and the
independent dual solve.

For a uniformly convex u on Omega with gradient image Omega_tilde, the
transform utilde(y) = x . y - u(x), y = Du(x) satisfies D utilde(y) = x and
D^2 utilde = [D^2 u]^{-1}, and solves

    -G(y, [D^2 utilde]^{-1}) = -c   on Omega_tilde,
    h_Omega(D utilde) = 0           on the boundary,

so an independently solved dual constant must come out as -c.  The dual
solve runs the ordinary Newton machinery with the inverse-Hessian operator
and the domain roles swapped; the transform itself inverts the gradient map
pointwise with a damped Newton iteration on a smooth spline interpolant of
the primal field.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.interpolate import RectBivariateSpline
from scipy.spatial import cKDTree

from .assembly import OperatorKind, ProblemSpec
from .errors import InversionFailure, NonConvergence
from .grid import MappedGrid, SolutionField, build_grid
from .solver import SolveOptions, newton_solve, run_homotopy

logger = logging.getLogger("cmcsolve.duality")

INVERSION_TOL = 1e-12
INVERSION_MAX_NEWTON = 30
# how far (in units of radial cells) the interpolant is extended beyond the
# boundary so gradient targets on the numerical image edge stay reachable
EXTENSION_CELLS = 2.0


class FieldInterpolant:
    """Smooth evaluator of a nodal field over its domain.

    Values and first derivatives come from a bicubic spline on the (rho,
    phi) parameter lattice chained through the polar map; the map inverse is
    closed form (phi by angle, rho = |x - peak| / r_b(phi)), with r_b and
    its derivative exact from the domain.  Beyond rho = 1 the spline is
    Taylor-extended to second order so targets within a couple of cells of
    the boundary remain evaluable.
    """

    def __init__(self, field: SolutionField):
        grid = field.grid
        self.grid = grid
        self.domain = grid.domain
        self.peak = grid.domain.peak

        # parameter-space field spline, phi-padded for periodicity
        pad = 3
        arr = grid.to_param_array(field.u)
        arr_p = np.concatenate([arr[:, -pad:], arr, arr[:, :pad]], axis=1)
        phi_p = np.concatenate([grid.phi[-pad:] - 2 * np.pi, grid.phi,
                                grid.phi[:pad] + 2 * np.pi])
        self._spl = RectBivariateSpline(grid.rho, phi_p, arr_p, kx=3, ky=3)
        self.rho_max = 1.0 + EXTENSION_CELLS / grid.n_rho

        # nodal Hessians on the parameter lattice for approximate Jacobians
        _, d2u = field.derivatives()
        self._d2u_arr = np.stack([grid.to_param_array(d2u[:, 0, 0]),
                                  grid.to_param_array(d2u[:, 0, 1]),
                                  grid.to_param_array(d2u[:, 1, 1])])

    def params_of(self, x):
        d = np.asarray(x, dtype=float) - self.peak
        phi = np.mod(np.arctan2(d[..., 1], d[..., 0]), 2 * np.pi)
        rho = np.linalg.norm(d, axis=-1) / self.domain.boundary_radius(phi)
        return rho, phi

    def _spline_eval(self, rho, phi, drho=0, dphi=0):
        """Spline derivative with quadratic Taylor extension past rho = 1."""
        inside = rho <= 1.0
        rho_c = np.minimum(rho, 1.0)
        out = self._spl.ev(rho_c, phi, dx=drho, dy=dphi)
        if np.any(~inside):
            dr = (rho - 1.0)[~inside]
            p = phi[~inside]
            v0 = self._spl.ev(np.ones_like(p), p, dx=drho, dy=dphi)
            v1 = self._spl.ev(np.ones_like(p), p, dx=drho + 1, dy=dphi)
            ext = v0 + dr * v1
            if drho == 0:
                v2 = self._spl.ev(np.ones_like(p), p, dx=2, dy=dphi)
                ext = ext + 0.5 * dr ** 2 * v2
            out[~inside] = ext
        return out

    def value(self, x):
        rho, phi = self.params_of(x)
        return self._spline_eval(rho, phi)

    def gradient(self, x):
        """Cartesian gradient of the interpolant (exact chain rule)."""
        x = np.asarray(x, dtype=float)
        rho, phi = self.params_of(x)
        u_r = self._spline_eval(rho, phi, drho=1)
        u_p = self._spline_eval(rho, phi, dphi=1)
        rb = self.domain.boundary_radius(phi)
        rb_p = self.domain.boundary_radius_deriv(phi)
        e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        e_t = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        d = np.maximum(rho * rb, 1e-300)  # |x - peak|
        # drho/dx = e / rb - (rho rb'/rb) dphi/dx,  dphi/dx = e_t / d
        dphi_dx = e_t / d[..., None]
        drho_dx = e / rb[..., None] - (rho * rb_p / rb)[..., None] * dphi_dx
        grad = u_r[..., None] * drho_dx + u_p[..., None] * dphi_dx
        # the pole is a smooth point of the field but a parameter-map
        # singularity; fall back to a symmetric difference through the peak
        near_pole = rho < 1e-9
        if np.any(near_pole):
            grad[near_pole] = self._pole_gradient()
        return grad

    def _pole_gradient(self):
        if not hasattr(self, "_pole_grad_cache"):
            # gradient at the pole from the spline along two rays
            eps = 0.5 / self.grid.n_rho
            rb = self.domain.boundary_radius
            gx = (self._spl.ev(eps, 0.0) - self._spl.ev(eps, np.pi)) / (
                eps * (rb(0.0) + rb(np.pi)))
            gy = (self._spl.ev(eps, np.pi / 2) - self._spl.ev(eps, 3 * np.pi / 2)) / (
                eps * (rb(np.pi / 2) + rb(3 * np.pi / 2)))
            self._pole_grad_cache = np.array([gx, gy])
        return self._pole_grad_cache

    def hessian_approx(self, x):
        """Bilinear interpolation of the nodal Hessian (used only as the
        Jacobian of the gradient-inversion Newton iteration)."""
        rho, phi = self.params_of(x)
        g = self.grid
        ri = np.clip(rho * g.n_rho, 0, g.n_rho - 1e-12)
        i0 = np.floor(ri).astype(int)
        fr = ri - i0
        pj = phi / (2 * np.pi / g.n_phi)
        j0 = np.floor(pj).astype(int) % g.n_phi
        fp = pj - np.floor(pj)
        j1 = (j0 + 1) % g.n_phi
        comps = []
        for arr in self._d2u_arr:
            comps.append((1 - fr) * ((1 - fp) * arr[i0, j0] + fp * arr[i0, j1])
                         + fr * ((1 - fp) * arr[i0 + 1, j0] + fp * arr[i0 + 1, j1]))
        h = np.empty(np.shape(rho) + (2, 2))
        h[..., 0, 0], h[..., 0, 1], h[..., 1, 1] = comps
        h[..., 1, 0] = h[..., 0, 1]
        return h


def invert_gradient(interp: FieldInterpolant, targets, x0=None):
    """Solve interp.gradient(x) = y for each target y by damped Newton.

    Returns (points, gaps); raises InversionFailure when some target stays
    farther than the inversion tolerance from the reachable gradient image.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    grid = interp.grid
    scale = float(np.max(np.abs(targets))) + 1.0
    x = np.empty_like(targets)
    if x0 is not None:
        x[:] = x0
    else:
        # start from the primal node whose gradient is nearest the target
        tree = cKDTree(interp.gradient(grid.nodes))
        _, nearest = tree.query(targets)
        x[:] = grid.nodes[nearest]

    res = interp.gradient(x) - targets
    rn = np.linalg.norm(res, axis=-1)
    active = rn > INVERSION_TOL * scale
    for _ in range(INVERSION_MAX_NEWTON):
        if not np.any(active):
            break
        h = interp.hessian_approx(x[active])
        step = np.linalg.solve(h, res[active][..., None])[..., 0]
        xa = x[active]
        ra = rn[active]
        alpha = np.ones(len(xa))
        for _ in range(12):
            trial = xa - alpha[:, None] * step
            trial = _clamp_to_extension(interp, trial)
            rt = np.linalg.norm(interp.gradient(trial) - targets[active], axis=-1)
            better = rt <= ra
            xa = np.where(better[:, None], trial, xa)
            ra = np.where(better, rt, ra)
            alpha = np.where(better, alpha, alpha * 0.5)
            if np.all(better):
                break
        x[active] = xa
        res[active] = interp.gradient(xa) - targets[active]
        rn[active] = np.linalg.norm(res[active], axis=-1)
        active = rn > INVERSION_TOL * scale
    return x, rn


def _clamp_to_extension(interp, x):
    rho, phi = interp.params_of(x)
    over = rho > interp.rho_max
    if np.any(over):
        rb = interp.domain.boundary_radius(phi[over])
        e = np.stack([np.cos(phi[over]), np.sin(phi[over])], axis=-1)
        x = x.copy()
        x[over] = interp.peak + interp.rho_max * rb[:, None] * e
    return x


def legendre_transform(field: SolutionField, dual_grid: MappedGrid) -> SolutionField:
    """Transform a solved field onto a grid over its gradient image.

    For each dual node y the primal point x with Du(x) = y is found by
    Newton on the interpolated gradient (uniform convexity makes the root
    unique); then utilde(y) = x . y - u(x).  A gradient gap above
    1e-8 (max |y| + 1) raises InversionFailure.  The additive constant is
    inherited, not re-normalized.  The stored dual constant is -c.
    """
    interp = FieldInterpolant(field)
    y = dual_grid.nodes
    gap_tol = 1e-8 * (np.max(np.abs(y)) + 1.0)
    x, gaps = invert_gradient(interp, y)
    worst = int(np.argmax(gaps))
    if gaps[worst] > gap_tol:
        raise InversionFailure(float(gaps[worst]), point=y[worst])
    u_t = np.einsum('ij,ij->i', x, y) - interp.value(x)
    return SolutionField(dual_grid, u_t, -field.c, field.model, dual=True)


def dual_residual(dual: SolutionField) -> np.ndarray:
    """Per-node deviation of the dual operator from the stored dual
    constant: -G(y, [D^2 utilde]^{-1}) - c_dual at every dual node.

    For a transform of a primal solution (c_dual = -c) this is the
    dual-consistency profile; its max-norm is the headline metric.
    """
    from .assembly import _inverse_2x2
    from .kernel import coefficient_matrix

    _, d2u = dual.derivatives()
    w = _inverse_2x2(d2u)
    s = coefficient_matrix(dual.grid.nodes, dual.model)
    return -np.einsum('...kl,...kl->...', s, w) - dual.c


def dual_solve(spec: ProblemSpec, opts: SolveOptions | None = None):
    """Independently solve the dual problem on Omega_tilde at the primal
    grid's resolution.

    Swaps the domain roles, switches to the inverse-Hessian operator, seeds
    with the inscribed-ball quadratic, and runs the same Newton machinery
    (falling back to the homotopy on non-convergence).  Returns
    (dual_field, NewtonInfo-or-None).
    """
    from .radial import seed_field

    opts = opts or SolveOptions()
    n_rho, n_phi = spec.grid.n_rho, spec.grid.n_phi
    dual_grid = build_grid(spec.omega_tilde, n_rho, n_phi)
    dual_spec = ProblemSpec(spec.omega_tilde, spec.omega, spec.model, dual_grid,
                            operator=OperatorKind.INVERSE_HESSIAN,
                            eps_space=spec.eps_space)
    try:
        fld, info = newton_solve(dual_spec, seed_field(dual_spec), opts)
        fld.dual = True
        return fld, info
    except NonConvergence:
        logger.info("dual direct solve failed; retrying with homotopy")
        fld, history = run_homotopy(dual_spec.omega, dual_spec.omega_tilde,
                                    spec.model, n_rho, n_phi, opts=opts,
                                    operator=OperatorKind.INVERSE_HESSIAN)
        fld.dual = True
        return fld, None
