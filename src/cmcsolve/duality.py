"""Legendre transform of solved fields, the dual residual, and the
independent dual solve.

For a uniformly convex u on Omega with gradient image Omega_tilde, the
transform utilde(y) = x . y - u(x), y = Du(x) satisfies D utilde(y) = x and
D^2 utilde = [D^2 u]^{-1}, and solves

    -G(y, [D^2 utilde]^{-1}) = -c   on Omega_tilde,
    h_Omega(D utilde) = 0           on the boundary,

so an independently solved dual constant must come out as -c.  The dual
solve runs the ordinary Newton machinery with the inverse-Hessian operator
and the domain roles swapped, against Omega moved to the origin, so that it
is symmetric whenever Omega_tilde is centred (ProblemSpec.symmetry); the
transform itself inverts the gradient map pointwise with a damped Newton
iteration on one tensor cubic spline of the primal field over the polar
lattice of the unit disk, periodic in the polar angle (grid.lattice_spline,
numpy only), read through the grid's linear map x = peak + L xi; its
Jacobian is the spline's own Hessian.  An even field is inverted on half,
or with the mirrors on a quarter, of a centred dual grid.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .assembly import OperatorKind, ProblemSpec, inverse_hessian_operator
from .errors import InversionFailure
from .grid import MappedGrid, SolutionField, build_grid, lattice_spline
from .kernel import _symmetric
from .solver import SolveOptions, direct_or_walk

INVERSION_TOL = 1e-12
INVERSION_MAX_NEWTON = 30
# how far (in units of radial cells) the interpolant is extended beyond the
# boundary so gradient targets on the numerical image edge stay reachable
EXTENSION_CELLS = 2.0


class FieldInterpolant:
    """Smooth evaluator of a nodal field over its domain.

    Values and first and second derivatives come from one tensor cubic
    spline on the (rho, phi) parameter lattice of the unit disk, periodic in
    phi (lattice_spline), chained through the grid's map x = peak + L xi;
    the map inverse is closed form: xi = L^-1 (x - peak), rho = |xi| and phi
    the angle of xi.  The gradient is L^-T D_xi u and the Hessian
    L^-T D^2_xi u L^-1, each with its partials from one blocked gather.  Up to
    rho_max, a couple of cells past rho = 1, the spline's last radial piece
    continues, so targets near the boundary remain evaluable.  The nodal
    derivatives nodal_du, nodal_d2u start the gradient inversion.
    """

    def __init__(self, field: SolutionField):
        grid = field.grid
        self.grid = grid
        self.peak = grid.domain.peak
        self._inv = np.linalg.inv(grid.disk_map)   # L^-1
        self.rho_max = 1.0 + EXTENSION_CELLS / grid.n_rho
        self._spl = lattice_spline(grid, grid.to_param_array(field.u))
        self.nodal_du, self.nodal_d2u = field.derivatives()

        # the pole is a smooth point of the field but a parameter-map
        # singularity: its unit-disk gradient is a symmetric difference
        # along the xi axes
        eps = 0.5 / grid.n_rho
        ray = np.array([0.0, np.pi, np.pi / 2, 3 * np.pi / 2])
        v = self._spl(np.stack([np.full(4, eps), ray], axis=-1))
        self._pole_grad = np.array([v[0] - v[1], v[2] - v[3]]) / (2 * eps) @ self._inv

    def _polar(self, x):
        """(rho, phi, e) of points x: xi = L^-1 (x - peak), rho = |xi|,
        e = xi / rho ((1, 0) at the peak) and phi its angle."""
        xi = (np.asarray(x, dtype=float) - self.peak) @ self._inv.T
        rho = np.linalg.norm(xi, axis=-1)
        phi = np.mod(np.arctan2(xi[..., 1], xi[..., 0]), 2 * np.pi)
        with np.errstate(invalid="ignore", divide="ignore"):   # rho = 0: |xi| underflows
            e = xi / rho[..., None]
        e[rho == 0] = (1.0, 0.0)
        return rho, phi, e

    def params_of(self, x):
        """(rho, phi) of points x."""
        return self._polar(x)[:2]

    def value(self, x):
        return self._spl(np.stack(self.params_of(x), axis=-1))

    def gradient(self, x, polar=None):
        """Cartesian gradient of the interpolant (exact chain rule); polar is _polar(x)."""
        rho, phi, e = self._polar(x) if polar is None else polar
        u_r, u_p = self._spl.partials(np.stack([rho, phi], axis=-1), [(1, 0), (0, 1)])
        e_t = np.stack([-e[..., 1], e[..., 0]], axis=-1)
        # D_xi u = u_rho e + (u_phi / rho) e_t, and Du = L^-T D_xi u
        d_xi = u_r[..., None] * e + (u_p / np.maximum(rho, 1e-300))[..., None] * e_t
        grad = d_xi @ self._inv
        grad[rho < 1e-9] = self._pole_grad
        return grad

    def hessian(self, x):
        """Cartesian Hessian of the interpolant (exact chain rule); at the
        peak, where the polar map is singular, the pole node's nodal D^2u."""
        rho, phi, e = self._polar(x)
        u_r, u_p, u_rr, u_rp, u_pp = self._spl.partials(
            np.stack([rho, phi], axis=-1), [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
        peak = rho < 1e-9
        r = np.where(peak, 1.0, rho)   # the peak's entries are replaced below
        # D^2_xi u in the frame (e, e_t), carried to x by F = L^-T (e, e_t)
        f = self._inv.T @ np.stack([e, np.stack([-e[..., 1], e[..., 0]], axis=-1)], axis=-1)
        h_xi = _symmetric(u_rr, u_rp / r - u_p / r ** 2, u_pp / r ** 2 + u_r / r)
        hess = f @ h_xi @ np.swapaxes(f, -1, -2)
        hess[peak] = self.nodal_d2u[0]
        return hess


def invert_gradient(interp: FieldInterpolant, targets, nodes=None):
    """Solve interp.gradient(x) = y for each target y by damped Newton,
    starting one Newton step on the nodal derivatives away from the node,
    among nodes (default all), whose gradient is nearest the target
    (_nodal_start).  A step through a singular spline Hessian is not
    finite, and the line search refuses it.
    A target whose gap an iteration leaves unchanged is given up: no trial
    of its line search lowered it, and from an unmoved point Newton repeats.

    Returns (points, gaps): the gradient residual norm left at each point.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    scale = float(np.max(np.abs(targets))) + 1.0
    x = _nodal_start(interp, targets, nodes)

    res = interp.gradient(x) - targets
    rn = np.linalg.norm(res, axis=-1)
    active = rn > INVERSION_TOL * scale
    for _ in range(INVERSION_MAX_NEWTON):
        if not np.any(active):
            break
        step, _ = _solve_2x2(interp.hessian(x[active]), res[active])
        xa, resa, ra = x[active], res[active], rn[active]
        alpha = np.ones(len(xa))
        for _ in range(12):
            trial, polar = _clamp_to_extension(interp, xa - alpha[:, None] * step)
            rest = interp.gradient(trial, polar) - targets[active]
            rt = np.linalg.norm(rest, axis=-1)
            better = rt <= ra
            xa = np.where(better[:, None], trial, xa)
            resa = np.where(better[:, None], rest, resa)
            ra = np.where(better, rt, ra)
            alpha = np.where(better, alpha, alpha * 0.5)
            if np.all(better):
                break
        x[active], res[active] = xa, resa
        rn[active], active[active] = ra, (ra < rn[active]) & (ra > INVERSION_TOL * scale)
    return x, rn


def _nodal_start(interp, targets, nodes=None):
    """x_k + (D^2u_k)^-1 (y - Du_k) from the node k, among nodes (default
    all), with Du_k nearest each y, clamped; x_k where D^2u_k is not positive
    definite or the step not finite."""
    from scipy.spatial import cKDTree

    nodes = np.arange(len(interp.nodal_du)) if nodes is None else nodes
    _, k = cKDTree(interp.nodal_du[nodes]).query(targets)
    k = nodes[k]
    h = interp.nodal_d2u[k]
    step, det = _solve_2x2(h, targets - interp.nodal_du[k])
    ok = (h[:, 0, 0] > 0) & (det > 0) & np.all(np.isfinite(step), axis=-1)
    return _clamp_to_extension(interp, interp.grid.nodes[k] + np.where(ok[:, None], step, 0.0))[0]


def _solve_2x2(h, r):
    """(h^-1 r, det h) for symmetric (n, 2, 2) h and (n, 2) r, by the
    adjugate: the step is inf or NaN where h is singular."""
    a, b, c = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
    det = a * c - b * b
    with np.errstate(all="ignore"):
        step = np.stack([c * r[:, 0] - b * r[:, 1],
                         a * r[:, 1] - b * r[:, 0]], axis=-1) / det[:, None]
    return step, det


def _clamp_to_extension(interp, x):
    """(x pulled back along its ray from the peak to rho <= rho_max, its
    interp._polar), the polar coordinates recomputed only where x moved."""
    polar = interp._polar(x)
    rho = polar[0]
    over = rho > interp.rho_max
    if np.any(over):
        x = x.copy()
        x[over] = interp.peak + (interp.rho_max / rho[over])[:, None] * (x[over] - interp.peak)
        for a, moved in zip(polar, interp._polar(x[over])):
            a[over] = moved
    return x, polar


def legendre_transform(field: SolutionField, dual_grid: MappedGrid) -> SolutionField:
    """Transform a solved field onto a grid over its gradient image.

    For each dual node y the primal point x with Du(x) = y is found by
    Newton on the interpolated gradient (uniform convexity makes the root
    unique); then utilde(y) = x . y - u(x).  If the dual grid is centred at
    the origin and u is even bit for bit under a grid Symmetry about
    omega's peak p (as a reduced solve leaves it), Du(p + M (x - p)) = M
    Du(x) for each of its isometries M, so utilde(M y) = utilde(y) + p .
    (M y - y): only the representatives of the dual grid's quarter (if u is
    even under the mirrors too and both grids have one) or half turn are
    inverted, and each node takes utilde(y_rep) + (y - y_rep) . p from its
    representative.  On the quarter the targets and the nearest of a nodal
    gradient's mirror images lie in the first quadrant, so the starts are
    searched among the representatives of u's grid only.  Otherwise every
    node is its own.  A representative's gradient gap above 1e-8 (max |y| +
    1) raises InversionFailure.  The additive constant is inherited, not
    re-normalized.  The stored dual constant is -c.
    """
    interp, y = FieldInterpolant(field), dual_grid.nodes
    reps = fold = np.arange(len(y))
    starts = None
    if not np.any(dual_grid.domain.peak):
        for primal, dual in ((field.grid.quarter, dual_grid.quarter),
                             (field.grid.half_turn, dual_grid.half_turn)):
            if (primal is not None and dual is not None
                    and np.all(field.u[primal.image] == field.u)):
                reps, fold = dual.rows[:-1], dual.fold[:-1]   # less c's entries
                starts = primal.rows[:-1] if primal is field.grid.quarter else None
                break
    y_rep = y[reps]
    gap_tol = 1e-8 * (np.max(np.abs(y)) + 1.0)
    x, gaps = invert_gradient(interp, y_rep, starts)
    worst = int(np.argmax(gaps))
    if gaps[worst] > gap_tol:
        raise InversionFailure(float(gaps[worst]), point=y_rep[worst])
    u_rep = np.einsum('ij,ij->i', x, y_rep) - interp.value(x)
    u_t = u_rep[fold] + (y - y_rep[fold]) @ interp.peak
    return SolutionField(dual_grid, u_t, -field.c, field.model, dual=True)


def dual_residual(dual: SolutionField) -> np.ndarray:
    """Per-node deviation of the dual operator from the stored dual
    constant: -G(y, [D^2 utilde]^{-1}) - c_dual at every dual node.

    For a transform of a primal solution (c_dual = -c) this is the
    dual-consistency profile; its max-norm is the headline metric.
    """
    _, d2u = dual.derivatives()
    return inverse_hessian_operator(dual.grid.nodes, d2u, dual.model) - dual.c


def dual_solve(spec: ProblemSpec, opts: SolveOptions | None = None):
    """Independently solve the dual problem on Omega_tilde at the primal
    grid's resolution.

    Swaps the domain roles, switches to the inverse-Hessian operator, seeds
    with the transport seed of the swapped pair (Hessian M^-1, the inverse
    of the primal seed's), and solves by direct_or_walk: Newton at t = 1,
    and the homotopy walk only when that fails.  The target is Omega less
    its peak p: the dual operator reads only D^2 utilde and y, and
    h_Omega(q) = h_(Omega - p)(q - p), so a solution utilde_0 there gives
    utilde_0 + p . y, mean-zero, with the same c, and the system is half-turn
    symmetric whenever Omega_tilde is centred, and mirror symmetric too when
    both domains are axis-aligned (ProblemSpec.symmetry).  Returns
    (dual_field, NewtonInfo of the direct solve, or None when the walk took
    over).
    """
    dual_grid = build_grid(spec.omega_tilde, spec.grid.n_rho, spec.grid.n_phi)
    dual_spec = replace(spec, omega=spec.omega_tilde, grid=dual_grid,
                        omega_tilde=replace(spec.omega, center=(0.0, 0.0)),
                        operator=OperatorKind.INVERSE_HESSIAN)
    fld, history, _ = direct_or_walk(dual_spec, opts)
    fld = replace(fld, u=dual_grid.mean_zero(fld.u + dual_grid.nodes @ spec.omega.peak))
    return fld, history[0].info if len(history) == 1 else None
