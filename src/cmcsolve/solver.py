"""Damped Newton solve of the assembled system and the continuity-method
homotopy that grows the target from a shrunken copy to its full size.
direct_or_walk, the solve of homotopy.t_min = auto and of the dual, tries
t = 1 from the seed first and walks only when that solve fails.

Every accepted iterate satisfies the admissibility guards (uniform convexity
everywhere, spacelike bound in the primal Minkowski model): the guards are
invariants of the iteration, not posterior checks.  Steps are damped by
backtracking with an Armijo decrease condition on the residual 2-norm.

The first Newton system of a walk (or of a solve handed no factor) is
solved directly after scaling every row by its largest magnitude, which
puts the curvature rows, the boundary h(Du) rows and the
quadrature-weighted mean-zero row on one scale.  The node block K of the
system (the N x N Jacobian of the node rows in u) sends constants to zero:
every recovery and boundary-gradient row cancels a constant exactly, as u
is determined only up to one.  The c column g and the mean-zero row w
border K to make the (N+1)-system nonsingular, and that border is dense.
So SuperLU factors only K^ = K - e_j e_j^T, read off the scaled matrix
with g its last column and w its last row, and a solve of the bordered
system is one triangular solve with K^ and a 2 x 2 step for (x_j, c), by
block elimination (Keller's bordering algorithm, 1977): with z_j = K^-1 e_j
(minus the constant vector, up to roundoff) and z_g = K^-1 g from one
two-column solve per factor, a right-hand side (r, s) gives z = K^-1 r,
then (a, gamma) = (-x_j, c-component) from

  (-1 - z_j[j]) a + z_g[j] gamma = z[j],
  (w^T z_j) a - (w^T z_g) gamma = s - w^T z,

and x = z + a z_j - gamma z_g.  K^ is nonsingular and the 2 x 2 regular
when K's left null vector y has y_j != 0 (then z_g[j] = -y^T g / y_j).
j = N // 2 is a node at mid radius, an interior node; on a test panel of
four pairs (concentric balls at 64 x 128, a thin ellipse to a ball, a
Euclidean ellipse pair and the dual operator) the directions agree with a
plain LU of the whole bordered matrix to 5e-12 relative.  The columns of
K^ are ordered by minimum degree on the symmetric pattern K^ + K^T, and
that ordering plans for diagonal pivots, which the pivot threshold 1e-3
keeps: a diagonal entry is taken unless it is below 1e-3 of its column's
largest (the small diagonal-preference tolerance of UMFPACK's symmetric
strategy, Davis 2004).  The scaled K[j, j] is -1, the centre weight of an
elliptic row and its largest entry, so the shift takes it to -2, and on
every seed system measured every pivot is diagonal; a shift of +1 left a
stored zero there and took two off-diagonal pivots, at j and its outward
neighbour.  SuperLU relaxes supernodes of at most LU_RELAX = 2 columns and
factors panels of LU_PANEL_SIZE = 4: that keeps the fill of its defaults in
73-84 % of their time, and it stores the CSC fill plus 141 entries, the
SuperLU.nnz that NewtonInfo.lu_fill reads in O(1) (the README's Newton
paragraph gives the fills and times).  Looser pivoting can leave a direct
solve less accurate, so where a target is given the direct direction is
held to the bound GMRES meets (below) by one step of iterative refinement,
against the bordered Jacobian it solves, on the same factor.  A failed
factorization, a 2 x 2 that is singular or not finite, or a non-finite
residual or direction ends the solve in NonConvergence.

A problem equivariant under a group of isometries about omega's peak
(ProblemSpec.symmetry: the half turn, or with the coordinate mirrors the
quarter) has a unique, so group-even, solution and even Newton corrections:
each system is solved on the representatives and c (J_r: J's rows there,
each column summed into its representative's), the pole and the rays j <
n_phi/2, or j <= n_phi // 4, so bordering, GMRES and refinement run on half
or a quarter of the unknowns, while the residual, line search, guards and
stop test stay on the whole lattice.  The start is projected onto even
fields, each node taking its orbit's mean; every row that is not a
representative's is its exact image (grid._exact_images, in stencil order),
so an even field's derivatives there are its representative's with the
image's signs, bit for bit, and the residual stays exactly even.

The factorization dominates an iteration, and the Jacobian changes little
from iteration to iteration, or from one homotopy step to the next (a
sqrt(t)-dilation of the target on the same grid), so one factor can serve
a whole homotopy walk: every later system is solved by GMRES on the same
row scaling, right-preconditioned by the first factor (a Newton-Krylov
method with a lagged preconditioner; Kelley 2003, Knoll & Keyes 2004),
which needs a few Krylov iterations.  Under right preconditioning the
residual GMRES minimises is the true residual of the scaled system, so its
tolerance bounds the direction's actual error in the Newton equation.  That
tolerance is a forcing term tied to the Newton stop test (Eisenstat &
Walker 1996, with Kelley's 1995 safeguard): a system whose residual F sits
above the stop target tol (1 + |c|) is solved until the direction leaves
||J d + F||_inf <= KRYLOV_FORCING tol (1 + |c|), in the norm the stop test
reads, so the linear error left in the direction is a fixed fraction of
what the stop test can see, and no system is solved beyond the relative
residual KRYLOV_RTOL; GMRES runs one Krylov space per system, with no
restart (see _gmres).  If GMRES misses within KRYLOV_BUDGET iterations,
breaks down or meets a non-finite vector, the current Jacobian is factored
and solved directly, and that factor serves the rest of the solve and the
next homotopy step: a fresh factor comes only from a walk's first system or
a miss.  The factor handed on lives on NewtonInfo.factor until the next
solve takes it: run_homotopy clears it from each step's record and keeps
none past its walk.

The homotopy walks increasing t on the problem's own grid, replacing only
the target by its super-level set at t, and bisects the t increment of a
failed step before giving up.  Each step after the first starts from a
predictor: the Lagrange extrapolation of the dilation-normalised field and
c through the last PREDICTOR_POINTS accepted steps (Allgower & Georg 1990,
ch. 2), so the corrector, Newton, mostly needs one iteration.  Progress
is logged one line per Newton iteration in the format

  newton t=<t|-> iter=<k> res=<inf-norm> alpha=<step> c=<constant>
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from .assembly import (OperatorKind, ProblemSpec, admissibility_violation,
                       jacobian, residual_from_state)
from .domains import SUBLEVEL_FLOOR, ConvexDomain
from .errors import GuardViolation, NonConvergence, SolveFailure
from .grid import SolutionField
from .radial import seed_field

logger = logging.getLogger("cmcsolve.solver")


# backtracking: step factor, Armijo sufficient-decrease constant, and the
# smallest step tried
ARMIJO_FACTOR = 0.5
ARMIJO_C = 1e-4
ALPHA_MIN = 1e-12
# GMRES on the later Newton systems of a walk: the floor of the relative
# residual of the row-scaled system, the fraction of the Newton stop target
# a system's residual is solved down to in the inf-norm (above that floor),
# and the GMRES iterations one system may spend
KRYLOV_RTOL = 1e-10
KRYLOV_FORCING = 0.25
KRYLOV_BUDGET = 20
# t-increment halvings the homotopy may spend before giving up
MAX_BISECTIONS = 4
# accepted homotopy steps the start of the next one is extrapolated from
PREDICTOR_POINTS = 3


@dataclass
class SolveOptions:
    """Newton controls; the admissibility guards are not options."""

    tol_residual: float = 1e-10      # relative: ||res||_inf <= tol (1 + |c|)
    max_newton: int = 40

    def __post_init__(self):
        if not 0.0 < self.tol_residual < np.inf:
            raise ValueError(f"tol_residual must be a finite positive number, "
                             f"got {self.tol_residual!r}")
        if not (isinstance(self.max_newton, (int, np.integer)) and self.max_newton > 0):
            raise ValueError(f"max_newton must be a positive integer, "
                             f"got {self.max_newton!r}")


@dataclass
class NewtonInfo:
    """The record of one Newton solve: its iterations, accepted step
    lengths and linear-algebra counts.  newton_solve returns it with a
    converged field, and a stopped solve's SolveFailure.state carries it."""

    iterations: int = 0
    alphas: list = field(default_factory=list)
    factorizations: int = 0
    krylov_iterations: int = 0
    # fresh factors made because GMRES on a given one missed its tolerance
    # or returned a non-finite vector
    krylov_misses: int = 0
    # largest SuperLU.nnz (stored L + U entries) of its factors, 0 if none
    lu_fill: int = 0
    # order of the bordered Newton systems solved: N + 1 whole, the
    # representatives and c when ProblemSpec.symmetry reduces them; 0 if none
    unknowns: int = 0
    # (BorderedLU, row scale) the solve ended with, which a later solve on
    # the same grid may reuse
    factor: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class HomotopyState:
    """t, field and record of one Newton solve: a walk step or a stopped one."""

    t: float
    field: SolutionField
    info: NewtonInfo = field(default_factory=NewtonInfo)


# SuperLU column ordering, diagonal pivot threshold, and the column limits of
# a relaxed supernode and of a panel; the module docstring gives the reasons
LU_ORDERING = "MMD_AT_PLUS_A"
LU_PIVOT_THRESH = 1e-3
LU_RELAX = 2
LU_PANEL_SIZE = 4
# the bordering step's 2 x 2 counts as singular when its determinant, the
# difference of two products, is below this fraction of their magnitudes:
# there it is roundoff
BORDER_DET_RTOL = 1e-12


def _exponent(v: np.ndarray) -> int:
    """e with max|v| in [2^(e-1), 2^e), 0 if v is zero or not finite:
    scaling by 2^-e is exact and brings every entry to at most 1."""
    return int(np.frexp(np.max(np.abs(v)))[1])


def _norm2(v: np.ndarray) -> float:
    """Euclidean norm of v computed at the exponent scale of v, so it
    overflows (to inf, silently) only past the largest float; where the
    plain dot product neither overflows nor underflows the result is the
    same to the bit."""
    e = _exponent(v)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(np.ldexp(v, -e)), e))


class BorderedLU(NamedTuple):
    """Solves of the row-scaled bordered system [K g; w^T 0] (x, gamma) =
    (r, s) through lu, the SuperLU factor of K - e_j e_j^T, and z = lu's
    solves of (e_j, g) as two columns: with y = lu.solve(r), the pair
    (a, gamma) = inverse (y[j], s - w^T y), a = -x_j, makes x = y +
    a z[:, 0] - gamma z[:, 1] (see the module docstring)."""

    lu: object
    j: int
    w: np.ndarray
    z: np.ndarray
    inverse: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self.lu.solve(rhs[:-1])
        a, gamma = self.inverse @ (y[self.j], rhs[-1] - self.w @ y)
        return np.append(y + self.z @ (a, -gamma), gamma)


def _factor(jac: sp.csr_matrix):
    """BorderedLU of jac = [K g; w^T 0] with every row scaled by its largest
    magnitude: (factor, row scale).  SuperLU factors the scaled node block
    shifted at the pivot node j = N // 2, K^ = K - e_j e_j^T, and g and w are
    the scaled matrix's last column and row (see the module docstring).
    Raises RuntimeError when SuperLU finds K^ singular or the bordering
    step's 2 x 2 is singular or not finite."""
    row_max = np.maximum.reduceat(np.abs(jac.data), jac.indptr[:-1])   # no row is empty
    row_max[row_max == 0] = 1.0
    n = jac.shape[0] - 1
    j = n // 2
    data, end = jac.data * np.repeat(1.0 / row_max, np.diff(jac.indptr)), jac.indptr[n]
    # the node rows by columns, K's then g; g and w are summed into zeros as
    # a dense copy is, and K^ = K - e_j e_j^T is as a sparse difference
    # leaves it: (j, j) stored also where K has none, exact zeros dropped
    top = sp.csr_matrix((data[:end], jac.indices[:end], jac.indptr[:-1]), shape=(n, n + 1)).tocsc()
    indptr, k = top.indptr[:-1], top.indptr[n]
    g = np.bincount(top.indices[k:], top.data[k:], minlength=n)
    w = np.bincount(jac.indices[end:], data[end:], minlength=n + 1)[:n]
    rows, vals = top.indices[:k], top.data[:k]
    at = indptr[j] + np.searchsorted(rows[indptr[j]:indptr[j + 1]], j)
    if at == indptr[j + 1] or rows[at] != j:
        rows, vals = np.insert(rows, at, j), np.insert(vals, at, 0.0)
        indptr = indptr + (np.arange(n + 1) > j)
    vals[at] -= 1.0
    k_hat = sp.csc_matrix((vals, rows, indptr), shape=(n, n))
    k_hat.eliminate_zeros()
    del data, top   # not held through the factorization
    lu = splu(k_hat, permc_spec=LU_ORDERING, diag_pivot_thresh=LU_PIVOT_THRESH,
              relax=LU_RELAX, panel_size=LU_PANEL_SIZE)
    z = lu.solve(np.stack([np.eye(1, n, j)[0], g], axis=1))   # K^-1 (e_j, g)
    m = np.array([[-1.0 - z[j, 0], z[j, 1]], [w @ z[:, 0], -(w @ z[:, 1])]])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    # not (a > b) also refuses NaN
    if not abs(det) > BORDER_DET_RTOL * (abs(m[0, 0] * m[1, 1]) + abs(m[0, 1] * m[1, 0])):
        raise RuntimeError("singular bordering step")
    inverse = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
    return BorderedLU(lu, j, w, z, inverse), row_max


def _gmres(jac: sp.csr_matrix, rhs: np.ndarray, factor, target: float):
    """Right-preconditioned GMRES (Saad & Schultz 1986) for jac d = rhs on
    the row scaling of factor = (BorderedLU, row scale), on one Krylov
    space of at most KRYLOV_BUDGET vectors.

    Arnoldi orthogonalises by classical Gram-Schmidt run twice, and Givens
    rotations keep the least-squares residual's 2-norm at hand.  Each
    preconditioned vector z_k = lu.solve(v_k) is kept, so a direction is
    the combination Z y of them: one triangular solve per iteration, none
    more.  Once the 2-norm estimate meets the relative residual of
    _solve_linear's forcing term, the direction is formed and its unscaled
    inf-norm residual checked against KRYLOV_FORCING target; on an excess
    the tolerance is tightened by it and the same Arnoldi process goes on.
    Returns (d, iterations); d is None on a miss: the budget spent, a
    breakdown or a non-finite vector.
    """
    lu, row_max = factor
    # the plain 2-norms below: scale the right-hand side exactly to at most 1
    # so they cannot overflow
    b = rhs / row_max
    e = _exponent(b)
    bound = KRYLOV_FORCING * target
    rtol = max(KRYLOV_RTOL, bound / float(np.max(np.abs(rhs))))
    v = np.empty((KRYLOV_BUDGET + 1, len(b)))   # orthonormal Arnoldi basis
    z = np.empty((KRYLOV_BUDGET, len(b)))       # lu.solve of each basis vector
    r = np.zeros((KRYLOV_BUDGET, KRYLOV_BUDGET))   # rotated Hessenberg matrix
    rotations = np.empty((KRYLOV_BUDGET, 2))
    g = np.zeros(KRYLOV_BUDGET + 1)             # rotated right-hand side
    v[0] = np.ldexp(b, -e)
    g[0] = beta = np.linalg.norm(v[0])
    v[0] /= beta
    for k in range(KRYLOV_BUDGET):
        z[k] = lu.solve(v[k])
        w = (jac @ z[k]) / row_max
        basis = v[:k + 1]
        h = basis @ w
        w -= h @ basis
        again = basis @ w
        w -= again @ basis
        h += again
        h_next = float(np.linalg.norm(w))
        for i, (cos, sin) in enumerate(rotations[:k]):
            h[i], h[i + 1] = cos * h[i] + sin * h[i + 1], cos * h[i + 1] - sin * h[i]
        rho = np.hypot(h[k], h_next)
        rotations[k] = cos, sin = h[k] / rho, h_next / rho
        h[k] = rho
        r[:k + 1, k] = h
        g[k], g[k + 1] = cos * g[k], -sin * g[k]
        if abs(g[k + 1]) <= rtol * beta:
            y = solve_triangular(r[:k + 1, :k + 1], g[:k + 1])
            direction = np.ldexp(y @ z[:k + 1], e)
            if not np.all(np.isfinite(direction)):
                return None, k + 1
            if rtol == KRYLOV_RTOL:
                return direction, k + 1
            # rtol bounds the 2-norm of the row-scaled residual, which can
            # sit on other rows than the unscaled residual's inf-norm: if
            # that exceeds the bound, Arnoldi goes on until the scaled
            # residual has shrunk by the excess
            left = jac @ direction - rhs
            excess = float(np.max(np.abs(left))) / bound
            if excess <= 1.0:
                return direction, k + 1
            rtol = max(KRYLOV_RTOL, _norm2(left / row_max) / _norm2(b) / excess)
        if not 0.0 < h_next < np.inf:
            return None, k + 1
        v[k + 1] = w / h_next
    return None, KRYLOV_BUDGET


def _solve_linear(jac: sp.csr_matrix, rhs: np.ndarray, factor=None,
                  target: float = 0.0):
    """Solve jac d = rhs, the Newton system of the residual F = -rhs.

    With a factor (from _factor, possibly of another Jacobian on the same
    grid, such as an earlier homotopy step's), _gmres solves the system on
    the factor's row scaling, right-preconditioned by it, until the
    direction leaves ||jac d - rhs||_inf <= KRYLOV_FORCING target, where
    target is the Newton stop target tol (1 + |c|), or reaches the relative
    residual KRYLOV_RTOL; target 0 asks for KRYLOV_RTOL.  Without a factor,
    or when GMRES misses that within KRYLOV_BUDGET iterations or meets a
    breakdown or a non-finite vector, jac is factored and solved directly,
    and with target > 0 a direct direction that misses the same inf-norm
    bound takes one step of iterative refinement on that factor.  Returns
    (d, the factor used, GMRES iterations spent, a miss's included).
    """
    iterations = 0
    if factor is not None:
        direction, iterations = _gmres(jac, rhs, factor, target)
        if direction is not None:
            return direction, factor, iterations
    factor = _factor(jac)
    lu, row_max = factor
    direction = lu.solve(rhs / row_max)
    if target > 0.0:
        # the direct direction is held to the bound GMRES meets: one step
        # of iterative refinement on the same factor where it misses
        left = jac @ direction - rhs
        if np.max(np.abs(left)) > KRYLOV_FORCING * target:
            direction = direction - lu.solve(left / row_max)
    return direction, factor, iterations


def damped_step(spec: ProblemSpec, fld: SolutionField, state, direction: np.ndarray,
                res_2norm: float):
    """Largest step alpha in {1, factor, factor^2, ...} that keeps the trial
    iterate admissible and achieves Armijo decrease of ||residual||_2.

    state is the field's (Du, D2u, boundary Du).  The trial state is the
    linear combination of it and the direction's, so each trial costs no
    recovery mat-vec; a field is built only for the accepted step.  Returns
    (alpha, trial_field, trial_residual, trial_state), or None if admissible
    steps exist above ALPHA_MIN but none achieves the decrease.  Raises the
    violated guard if no admissible step exists above ALPHA_MIN.
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
        guard = admissibility_violation(spec, du, d2u)
        if guard is None:
            any_admissible = True
            u, c = fld.u + alpha * d_u, fld.c + alpha * d_c
            trial = (du, d2u, dub0 + alpha * ddub)
            res = residual_from_state(spec, u, c, *trial)
            if _norm2(res) <= (1.0 - ARMIJO_C * alpha) * res_2norm:
                return alpha, SolutionField(grid, u, c, fld.model, fld.dual), res, trial
        else:
            last_guard = guard
        alpha *= ARMIJO_FACTOR
    if not any_admissible:
        raise last_guard
    return None


def newton_solve(spec: ProblemSpec, initial: SolutionField,
                 opts: SolveOptions | None = None,
                 t_label: float | None = None, factor=None):
    """Solve the discrete system by damped Newton from an admissible field.

    factor is an optional (BorderedLU, row scale) of an earlier system
    on spec.grid, such as the previous homotopy step's info.factor.  Without
    one the first Newton system is factored; every other system runs GMRES
    preconditioned by the latest factor, to a tolerance tied to the stop
    target tol_residual (1 + |c|) (see _solve_linear).  The factor the
    solve ends with is left on info.factor.  Returns (field, NewtonInfo).
    Raises NonConvergence when the budget runs out, the line search
    stalls, the linear solve fails or the residual or direction is not
    finite, and the GuardViolation when the guards refuse the initial field
    or every step the line search tries; failed() sets either's state to
    HomotopyState(t_label, 1.0 outside a walk; the last accepted iterate;
    the NewtonInfo less its factor).
    """
    opts = opts or SolveOptions()
    # only (u, c) come from the initial field; grid, model and dual tag are
    # the spec's, so a seed solved under another model leaves no trace.
    # (Du, D2u, boundary Du) of the current iterate; damped_step returns the
    # accepted trial's, so no iterate is differentiated twice
    grid, (_, rows, fold) = spec.grid, spec.symmetry or (None, None, None)
    u = grid.mean_zero(initial.u)
    if rows is not None:   # a file seed or a transferred field need not be even
        orbit = fold[:-1]
        u = (np.bincount(orbit, u) / np.bincount(orbit))[orbit]
    fld = SolutionField(grid, u, initial.c, spec.model,
                        dual=spec.operator is OperatorKind.INVERSE_HESSIAN)
    state = (*grid.derivative_arrays(u), grid.boundary_gradients(u))
    info = NewtonInfo(factor=factor)

    def failed(exc):
        info.factor = None
        exc.state = HomotopyState(1.0 if t_label is None else t_label, fld, info)
        return exc

    def failure(message, r_inf):
        return failed(NonConvergence(message, residual_norm=r_inf))

    guard = admissibility_violation(spec, *state[:2])
    if guard is not None:
        raise failed(guard)
    res = residual_from_state(spec, fld.u, fld.c, *state)
    t_str = f"{t_label:.4g}" if t_label is not None else "-"

    # max_newton steps leave max_newton + 1 residuals to test
    for it in range(opts.max_newton + 1):
        info.iterations = it
        r_inf = float(np.max(np.abs(res)))
        if not np.isfinite(r_inf):
            raise failure(f"non-finite residual at iteration {it + 1}", r_inf)
        target = opts.tol_residual * (1.0 + abs(fld.c))
        if r_inf <= target:
            return fld, info
        if it == opts.max_newton:
            raise failure(f"no convergence in {it} iterations (residual {r_inf:.3e})",
                          r_inf)

        jac, rhs = jacobian(spec, *state), -res
        if rows is not None:   # J_r: the rows kept, each column summed into fold's
            kept, rhs, n = jac[rows], rhs[rows], len(rows)
            jac = sp.csr_matrix((kept.data, fold[kept.indices], kept.indptr), shape=(n, n))
            jac.sum_duplicates()
            jac.eliminate_zeros()
        info.unknowns = len(rhs)
        try:
            direction, factor, krylov = _solve_linear(jac, rhs, info.factor, target)
        except RuntimeError as exc:   # a singular factor or bordering step
            raise failure(f"linear solve failed ({exc}) at iteration {it + 1}",
                          r_inf) from exc
        if rows is not None:
            direction = direction[fold]
        info.krylov_iterations += krylov
        if factor is not info.factor:
            info.factorizations += 1
            info.krylov_misses += info.factor is not None
            info.lu_fill = max(info.lu_fill, factor[0].lu.nnz)
        info.factor = factor
        if not np.all(np.isfinite(direction)):
            raise failure(f"non-finite Newton direction at iteration {it + 1}", r_inf)
        try:
            step = damped_step(spec, fld, state, direction, _norm2(res))
        except GuardViolation as exc:   # no admissible step
            raise failed(exc)
        if step is None:
            raise failure(f"line search stalled at iteration {it + 1}", r_inf)
        alpha, fld, res, state = step
        info.alphas.append(alpha)
        logger.info("newton t=%s iter=%d res=%.9g alpha=%.9g c=%.9g",
                    t_str, it + 1, float(np.max(np.abs(res))), alpha, fld.c)


def auto_t_min(omega: ConvexDomain, omega_tilde: ConvexDomain, n_rho: int) -> float:
    """Smallest t on the 0.05 lattice whose super-level sets both keep a
    comfortably resolvable core: an inradius of at least six radial cells of
    the full domain, and above the sublevel floor, SUBLEVEL_FLOOR times its
    diameter 2 r_out.

    The super-level set at t is the sqrt(t)-scaling of the domain about its
    peak, so its inradius is sqrt(t) r_in; 1.0 when no lattice point fits.
    """
    ratio = max(r_out / r_in for r_in, r_out in (omega.radii(), omega_tilde.radii()))
    root_t = max(6.0 / n_rho, 2.0 * SUBLEVEL_FLOOR) * ratio
    for t in np.arange(0.05, 1.0, 0.05):
        t = round(float(t), 10)
        if np.sqrt(t) >= root_t:
            return t
    return 1.0


def _predicted_start(steps: list[HomotopyState], t: float,
                     peak_potential: np.ndarray) -> SolutionField:
    """Start of the homotopy step at t: the Lagrange extrapolation to t,
    through the accepted steps given, of c and of the dilation-normalised
    field w = (u - P) / sqrt(t_k), P = peak_potential, whose gradient image
    is the same target (less its peak) at every t; u = P + sqrt(t) w.
    Through one step that is its field with the gradient image scaled about
    the target's peak onto the new target, and its c."""
    w, c = 0.0, 0.0
    for step in steps:
        weight = np.prod([(t - other.t) / (step.t - other.t)
                          for other in steps if other is not step])
        w = w + weight / np.sqrt(step.t) * (step.field.u - peak_potential)
        c += weight * step.field.c
    return replace(steps[-1].field, u=peak_potential + np.sqrt(t) * w, c=float(c))


def _schedule(steps: int, t_min: float) -> list[float]:
    """`steps` uniform values of t from t_min to 1, or 1 alone at t_min 1."""
    if steps < 2:   # a one-point schedule from t_min < 1 never reaches t = 1
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not 0.0 < t_min <= 1.0:
        raise ValueError(f"t_min must be in (0, 1], got {t_min!r}")
    return [float(t) for t in np.linspace(t_min, 1.0, steps)] if t_min < 1.0 else [1.0]


def run_homotopy(spec: ProblemSpec, opts: SolveOptions | None = None,
                 steps: int = 12, t_min: float | None = None):
    """Continuity-method solve on spec.grid: step t solves spec with the
    target replaced by its super-level set at t, omega_tilde.sublevel(t):
    the sqrt(t)-scaled copy of omega_tilde about its peak, a domain of the
    same class with the same |Dh| band.

    Walks the _schedule from t_min (auto_t_min when None).  The first step
    is seeded by seed_field; each later one starts from _predicted_start
    through the last PREDICTOR_POINTS accepted steps, at their actual t, so
    a bisected schedule needs no special case.  If the guards refuse that
    start's solve (GuardViolation), the step is retried
    once from the one-point start before any bisection.  The first Newton
    system of a step is preconditioned by the last accepted step's factor,
    which its HomotopyState.info no longer holds; a failed attempt's factor
    is dropped.  For the graph operator, dilation is an exact symmetry
    (v(x) = s u(x0 + (x - x0)/s) keeps the gradient image and has constant
    c/s), so step t is the super-level pair (omega_t, omega_tilde_t)
    dilated onto omega and its c is sqrt(t) times that pair's.  For the
    inverse-Hessian operator, whose coefficients depend on node positions,
    step t is the Legendre dual of the primal problem on omega_tilde_t with
    image omega, on the fixed dual domain.  Returns (final field,
    [HomotopyState]); raises ValueError for steps < 2 or a t_min outside
    (0, 1].
    """
    if t_min is None:
        t_min = auto_t_min(spec.omega, spec.omega_tilde, spec.grid.n_rho)
    pending = _schedule(steps, t_min)
    peak_potential = spec.grid.nodes @ spec.omega_tilde.peak

    history: list[HomotopyState] = []
    factor = None
    bisections = 0

    while pending:
        t = pending[0]
        spec_t = replace(spec, omega_tilde=spec.omega_tilde.sublevel(t))
        points = min(len(history), PREDICTOR_POINTS)
        initial = (_predicted_start(history[-points:], t, peak_potential) if history
                   else seed_field(spec_t))
        try:
            try:
                fld, info = newton_solve(spec_t, initial, opts, t_label=t, factor=factor)
            except GuardViolation:
                if points < 2:
                    raise
                logger.info("homotopy predictor refused: restarting t=%.6g from t=%.6g",
                            t, history[-1].t)
                fld, info = newton_solve(spec_t,
                                         _predicted_start(history[-1:], t, peak_potential),
                                         opts, t_label=t, factor=factor)
        except NonConvergence:
            if not history or bisections >= MAX_BISECTIONS:
                raise
            bisections += 1
            pending.insert(0, 0.5 * (history[-1].t + t))
            logger.info("homotopy bisect: inserting t=%.6g", pending[0])
            continue
        factor, info.factor = info.factor, None
        history.append(HomotopyState(t, fld, info))
        pending.pop(0)

    return history[-1].field, history


def direct_or_walk(spec: ProblemSpec, opts: SolveOptions | None = None,
                   steps: int = 12, t_min: float | None = None):
    """Newton at t = 1 from seed_field(spec), logged as t=-, and on a
    SolveFailure one INFO line and run_homotopy from auto_t_min, whose
    schedule is checked first; an explicit t_min forces the walk.  Returns
    (field, [HomotopyState], attempt): one state if direct; attempt is
    None, or the failed direct solve's SolveFailure.state (t = 1, its last
    accepted iterate and NewtonInfo) when the walk ran."""
    if t_min is not None:
        return (*run_homotopy(spec, opts, steps, t_min), None)
    t_min = auto_t_min(spec.omega, spec.omega_tilde, spec.grid.n_rho)
    _schedule(steps, t_min)   # a bad steps fails before any solve
    try:
        fld, info = newton_solve(spec, seed_field(spec), opts)
    except SolveFailure as exc:
        if t_min == 1.0:   # that walk is the same solve again
            raise
        logger.info("homotopy fallback: direct solve failed (%s); walking from t=%.6g",
                    exc, t_min)
        attempt = exc.state
    else:
        info.factor = None
        return fld, [HomotopyState(1.0, fld, info)], None
    # outside the handler, so the failed solve's frames are freed first
    return (*run_homotopy(spec, opts, steps, t_min), attempt)
