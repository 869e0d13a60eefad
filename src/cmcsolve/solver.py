"""Damped Newton solve of the assembled system and the continuity-method
homotopy that grows the target from a shrunken copy to its full size.

Every accepted iterate satisfies the admissibility guards (uniform convexity
everywhere, spacelike bound in the primal Minkowski model): the guards are
invariants of the iteration, not posterior checks.  Steps are damped by
backtracking with an Armijo decrease condition on the residual 2-norm.

Each Newton system is solved by a direct sparse LU (SuperLU) after scaling
every row by its largest magnitude, which puts the curvature rows, the
boundary h(Du) rows and the quadrature-weighted mean-zero row on one scale.
The system has a dense border: the mean-zero row and the c column touch every
node.  SuperLU's default column ordering (COLAMD on A^T A) joins all columns
through that dense row and fills in badly, so the columns are ordered by
minimum degree on the symmetric pattern A + A^T, where the border costs one
dense row and column of the factor.  The pivot threshold 0.1 prefers the
diagonal that ordering planned for, but the corner entry of the border (the
mean-zero row at the c column) is zero, so off-diagonal pivots must stay
allowed.  A failed factorization or a non-finite residual or direction ends
the solve in NonConvergence.

The homotopy walks increasing t on the problem's own grid, replacing only
the target by its super-level set at t, and bisects the t increment of a
failed step before giving up.  Progress is logged one line per Newton
iteration in the format

  newton t=<t|-> iter=<k> res=<inf-norm> alpha=<step> c=<constant>
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (ProblemSpec, admissibility_violation, jacobian,
                       residual_from_state)
from .domains import ConvexDomain
from .errors import NonConvergence, StepRejection
from .grid import SolutionField

logger = logging.getLogger("cmcsolve.solver")


# backtracking: step factor, Armijo sufficient-decrease constant, and the
# smallest step tried
ARMIJO_FACTOR = 0.5
ARMIJO_C = 1e-4
ALPHA_MIN = 1e-12
# t-increment halvings the homotopy may spend before giving up
MAX_BISECTIONS = 4


@dataclass
class SolveOptions:
    tol_residual: float = 1e-10      # relative: ||res||_inf <= tol (1 + |c|)
    max_newton: int = 40
    eps_convexity: float = 1e-8
    eps_space: float = 1e-6

    def __post_init__(self):
        for name in ("tol_residual", "eps_convexity", "eps_space"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be a finite positive number, "
                                 f"got {getattr(self, name)!r}")
        if not (isinstance(self.max_newton, (int, np.integer)) and self.max_newton > 0):
            raise ValueError(f"max_newton must be a positive integer, "
                             f"got {self.max_newton!r}")


@dataclass
class NewtonInfo:
    converged: bool = False
    iterations: int = 0
    residual_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)


@dataclass
class HomotopyState:
    """Snapshot of one continuation step."""

    t: float
    omega_tilde_t: ConvexDomain
    field: SolutionField
    c_history: list  # [(t, c)] up to and including this step
    newton_iterations: int = 0


# SuperLU column ordering and diagonal pivot threshold; the module docstring
# gives the reasons for both
LU_ORDERING = "MMD_AT_PLUS_A"
LU_PIVOT_THRESH = 0.1


def _solve_linear(jac: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    row_max = np.asarray(abs(jac).max(axis=1).todense()).ravel()
    row_max[row_max == 0] = 1.0
    scale = sp.diags(1.0 / row_max)
    lu = splu((scale @ jac).tocsc(), permc_spec=LU_ORDERING,
              diag_pivot_thresh=LU_PIVOT_THRESH)
    return lu.solve(rhs / row_max)


def damped_step(spec: ProblemSpec, fld: SolutionField, state, direction: np.ndarray,
                opts: SolveOptions, res_2norm: float):
    """Largest step alpha in {1, factor, factor^2, ...} that keeps the trial
    iterate admissible and achieves Armijo decrease of ||residual||_2.

    state is the field's (Du, D2u, boundary Du).  The trial state is the
    linear combination of it and the direction's, so each trial costs no
    recovery mat-vec; a field is built only for the accepted step.  Returns
    (alpha, trial_field, trial_residual, trial_state).  Raises the violated
    guard if no admissible step exists above ALPHA_MIN, StepRejection if
    admissible steps exist but none achieves the decrease.
    """
    grid = spec.grid
    n = grid.n_nodes
    du0, d2u0, dub0 = state
    d_u = direction[:n]
    d_c = direction[n]
    ddu, dd2u = grid.derivative_arrays(d_u)
    ddub = grid.boundary_gradients(d_u)

    alpha = 1.0
    any_admissible = False
    last_guard = None
    while alpha >= ALPHA_MIN:
        du, d2u = du0 + alpha * ddu, d2u0 + alpha * dd2u
        guard = admissibility_violation(spec, du, d2u, opts.eps_convexity)
        if guard is None:
            any_admissible = True
            u, c = fld.u + alpha * d_u, fld.c + alpha * d_c
            trial = (du, d2u, dub0 + alpha * ddub)
            res = residual_from_state(spec, u, c, *trial)
            if np.linalg.norm(res) <= (1.0 - ARMIJO_C * alpha) * res_2norm:
                return alpha, SolutionField(grid, u, c, fld.model, fld.dual), res, trial
        else:
            last_guard = guard
        alpha *= ARMIJO_FACTOR
    if not any_admissible and last_guard is not None:
        raise last_guard
    raise StepRejection(f"no Armijo step above {ALPHA_MIN}")


def newton_solve(spec: ProblemSpec, initial: SolutionField,
                 opts: SolveOptions | None = None,
                 t_label: float | None = None):
    """Solve the discrete system by damped Newton from an admissible field.

    Returns (field, NewtonInfo).  Raises NonConvergence with the best
    iterate attached when the budget runs out, the line search stalls, the
    linear solve fails or the residual or direction is not finite; guard
    violations of the initial field propagate as-is.
    """
    opts = opts or SolveOptions()
    fld = initial.copy()
    fld.u = spec.grid.mean_zero(fld.u)
    # (Du, D2u, boundary Du) of the current iterate; damped_step returns the
    # accepted trial's, so no iterate is differentiated twice
    state = (*fld.derivatives(), spec.grid.boundary_gradients(fld.u))
    guard = admissibility_violation(spec, *state[:2], opts.eps_convexity)
    if guard is not None:
        raise guard

    info = NewtonInfo()
    res = residual_from_state(spec, fld.u, fld.c, *state)
    t_str = f"{t_label:.4g}" if t_label is not None else "-"

    def failure(reason, it, r_inf):
        return NonConvergence(f"{reason} at iteration {it + 1}", best_field=fld,
                              residual_norm=r_inf, iterations=it, t=t_label)

    for it in range(opts.max_newton):
        r_inf = float(np.max(np.abs(res)))
        info.residual_norms.append(r_inf)
        if not np.isfinite(r_inf):
            raise failure("non-finite residual", it, r_inf)
        if r_inf <= opts.tol_residual * (1.0 + abs(fld.c)):
            info.converged = True
            info.iterations = it
            return fld, info

        jac = jacobian(spec, *state)
        try:
            direction = _solve_linear(jac, -res)
        except RuntimeError as exc:   # SuperLU: singular factor
            raise failure(f"linear solve failed ({exc})", it, r_inf) from exc
        if not np.all(np.isfinite(direction)):
            raise failure("non-finite Newton direction", it, r_inf)
        try:
            alpha, fld, res, state = damped_step(spec, fld, state, direction, opts,
                                                 float(np.linalg.norm(res)))
        except StepRejection as exc:
            raise failure("line search stalled", it, r_inf) from exc
        info.alphas.append(alpha)
        logger.info("newton t=%s iter=%d res=%.9g alpha=%.9g c=%.9g",
                    t_str, it + 1, float(np.max(np.abs(res))), alpha, fld.c)

    r_inf = float(np.max(np.abs(res)))
    if r_inf <= opts.tol_residual * (1.0 + abs(fld.c)):
        info.converged = True
        info.iterations = opts.max_newton
        return fld, info
    raise NonConvergence(f"no convergence in {opts.max_newton} iterations "
                         f"(residual {r_inf:.3e})", best_field=fld,
                         residual_norm=r_inf, iterations=opts.max_newton,
                         t=t_label)


def auto_t_min(omega: ConvexDomain, omega_tilde: ConvexDomain, n_rho: int) -> float:
    """Smallest t on the 0.05 lattice whose super-level sets both keep a
    comfortably resolvable core: an inradius of at least six radial cells of
    the full domain, and above the sublevel floor of 1 % of its diameter.

    The super-level set at t is the sqrt(t)-scaling of the domain about its
    peak, so its inradius is sqrt(t) r_in; 1.0 when no lattice point fits.
    """
    ratio = max(r_out / r_in for r_in, r_out in (omega.radii(), omega_tilde.radii()))
    root_t = max(6.0 / n_rho, 2e-2) * ratio
    for t in np.arange(0.05, 1.0, 0.05):
        t = round(float(t), 10)
        if np.sqrt(t) >= root_t:
            return t
    return 1.0


def run_homotopy(spec: ProblemSpec, opts: SolveOptions | None = None,
                 steps: int = 12, t_min: float | None = None):
    """Continuity-method solve on spec.grid: step t solves spec with the
    target replaced by its super-level set at t, the sqrt(t)-scaling of
    omega_tilde about its peak.

    Walks `steps` uniform values of t from t_min (auto_t_min when None) to
    1, or t = 1 alone when t_min is 1.  The first step is seeded by
    seed_field; each later one starts from the previous field, with its
    gradient image scaled about the target's peak onto the new target, and
    the previous c.  For the graph operator, dilation is an exact symmetry
    (v(x) = s u(x0 + (x - x0)/s) keeps the gradient image and has constant
    c/s), so step t is the super-level pair (omega_t, omega_tilde_t) dilated
    onto omega and its c is sqrt(t) times that pair's.  For the
    inverse-Hessian operator, whose coefficients depend on node positions,
    step t is the Legendre dual of the primal problem on omega_tilde_t with
    image omega, on the fixed dual domain.  Returns (final field,
    [HomotopyState]).
    """
    from .radial import seed_field

    opts = opts or SolveOptions()
    if t_min is None:
        t_min = auto_t_min(spec.omega, spec.omega_tilde, spec.grid.n_rho)
    pending = [float(t) for t in np.linspace(t_min, 1.0, steps)] if t_min < 1.0 else [1.0]
    # the warm start scales the gradient image about this potential's gradient
    peak_potential = spec.grid.nodes @ spec.omega_tilde.peak

    history: list[HomotopyState] = []
    c_history: list[tuple[float, float]] = []
    prev_field = None
    prev_t = None
    bisections = 0

    while pending:
        t = pending[0]
        spec_t = replace(spec, omega_tilde=spec.omega_tilde.sublevel(t))
        if prev_field is None:
            initial = seed_field(spec_t)
        else:
            initial = replace(prev_field, u=peak_potential + np.sqrt(t / prev_t)
                              * (prev_field.u - peak_potential))
        try:
            fld, info = newton_solve(spec_t, initial, opts, t_label=t)
        except NonConvergence:
            if prev_t is None or bisections >= MAX_BISECTIONS:
                raise
            bisections += 1
            pending.insert(0, 0.5 * (prev_t + t))
            logger.info("homotopy bisect: inserting t=%.6g", pending[0])
            continue
        c_history.append((t, fld.c))
        history.append(HomotopyState(t=t, omega_tilde_t=spec_t.omega_tilde,
                                     field=fld, c_history=list(c_history),
                                     newton_iterations=info.iterations))
        prev_field, prev_t = fld, t
        pending.pop(0)

    return prev_field, history
