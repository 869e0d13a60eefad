"""Shared test utilities: random admissible states, the speed factor with
its spacelike check, the coefficient matrix and the shape-matrix oracles
for the curvature kernel, finite-difference oracles for the pointwise
operator derivatives, a Hypothesis strategy of quadric domains, a field's
Newton state, the per-row reference text of field.csv, the quadric
concavity and gradient-band oracles, the sampled auto_t_min reference, a
sparse-matrix dump, a grid's truncation scale, the lattice's unknown
layout, the operators' rows in stencil order, the pseudo-inverse
references of the interior and the least-squares fits, the isotropic
quadratic seed, the full-matrix LU reference of the Newton linear solve,
the sparse-slicing reference of the Newton factor's set-up, a factor
stand-in that makes the bordering step singular, the concatenating
reference of the grid's operator build, the uncapped gradient inversion,
the whole-lattice Legendre transform and Newton systems that the half-turn
reductions are checked against and the radial ODE oracle."""

from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from cmcsolve import Ball, Ellipse, ModelKind, ProblemSpec, SolutionField
from cmcsolve.assembly import admissibility_violation, operator_value
from cmcsolve.duality import (INVERSION_MAX_NEWTON, INVERSION_TOL, FieldInterpolant,
                              _clamp_to_extension, _nodal_start, _solve_2x2, invert_gradient)
from cmcsolve.errors import DegenerateSublevel, InversionFailure, SpacelikeViolation
from cmcsolve.grid import _fold_defect, _lsq_weights, _stencils
from cmcsolve.kernel import EPS_SPACE, _coefficients, _symmetric, mean_curvature
from cmcsolve.solver import LU_ORDERING, LU_PIVOT_THRESH


def random_states(rng, m, grad_max=0.9, eig_range=(0.1, 10.0)):
    """Random spacelike gradients and uniformly convex Hessians:
    |du| <= grad_max, Hessian eigenvalues log-uniform in eig_range."""
    angle = rng.uniform(0, 2 * np.pi, m)
    mag = rng.uniform(0, grad_max, m)
    du = mag[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    theta = rng.uniform(0, np.pi, m)
    c, s = np.cos(theta), np.sin(theta)
    q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    lam = np.exp(rng.uniform(np.log(eig_range[0]), np.log(eig_range[1]), (m, 2)))
    d2u = np.einsum('mij,mj,mkj->mik', q, lam, q)
    return du, d2u


def _check_spacelike(du, model):
    if model is not ModelKind.MINKOWSKI:
        return
    n2 = np.sum(du * du, axis=-1)
    bad = n2 >= (1.0 - EPS_SPACE) ** 2
    if np.any(bad):
        flat = np.argmax(np.where(bad, n2, -np.inf).ravel())
        raise SpacelikeViolation(float(np.sqrt(n2.ravel()[flat])),
                                 node=int(flat) if n2.ndim else None)


def speed_factor(du, model: ModelKind):
    """v = sqrt(1 + sigma |du|^2); raises SpacelikeViolation in the
    Minkowski model when |du| reaches 1 - EPS_SPACE."""
    du = np.asarray(du, dtype=float)
    _check_spacelike(du, model)
    return np.sqrt(1.0 + model.sigma * np.sum(du * du, axis=-1))


def coefficient_matrix(du, model: ModelKind):
    """s_kl = (1/v)(delta_kl - sigma u_k u_l / v^2), the divergence-form
    coefficients: H = s_kl u_kl.  Equals dH/du_kl and (1/v) g^kl."""
    return _symmetric(*_coefficients(du, model)[3:])


@dataclass
class PointState:
    """Gradient and Hessian of u at a single point."""

    du: np.ndarray
    d2u: np.ndarray

    def __post_init__(self):
        self.du = np.asarray(self.du, dtype=float)
        self.d2u = np.asarray(self.d2u, dtype=float)
        if self.du.shape[-1] != 2 or self.d2u.shape[-2:] != (2, 2):
            raise ValueError("PointState expects du (...,2) and d2u (...,2,2)")
        if not np.allclose(self.d2u, np.swapaxes(self.d2u, -1, -2), atol=1e-12):
            raise ValueError("d2u must be symmetric")


def metric_quantities(du, model: ModelKind):
    """Return (v, g_lo, g_up, b_lo, b_up) at each state.

    Minkowski (sigma = -1):
        v    = sqrt(1 - |Du|^2)
        g_ij = delta_ij - u_i u_j          g^ij = delta_ij + u_i u_j / v^2
        b^ij = delta_ij + u_i u_j / (v(1+v))   (positive square root of g^ij)
        b_ij = delta_ij - u_i u_j / (1+v)
    Euclidean (sigma = +1): v = sqrt(1 + |Du|^2), the rank-one signs flip.

    b_up is the positive square root of g_up and b_lo its inverse:
    b_up b_up = g_up, b_lo b_up = I.
    """
    du = np.asarray(du, dtype=float)
    v = speed_factor(du, model)
    s = model.sigma
    eye = np.broadcast_to(np.eye(2), du.shape[:-1] + (2, 2))
    pp = du[..., :, None] * du[..., None, :]
    v_ = v[..., None, None]
    g_lo = eye + s * pp
    g_up = eye - s * pp / v_ ** 2
    b_up = eye - s * pp / (v_ * (1.0 + v_))
    b_lo = eye + s * pp / (1.0 + v_)
    return v, g_lo, g_up, b_lo, b_up


def shape_matrix(du, d2u, model: ModelKind):
    """a_ij = (1/v) b^ik u_kl b^lj; symmetric, positive definite iff d2u is.
    Its eigenvalues are the principal curvatures, its trace the mean
    curvature."""
    d2u = np.asarray(d2u, dtype=float)
    v, _, _, _, b_up = metric_quantities(du, model)
    a = np.einsum('...ik,...kl,...lj->...ij', b_up, d2u, b_up) / v[..., None, None]
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def principal_curvatures(du, d2u, model: ModelKind):
    """Eigenvalues of the shape matrix, ascending."""
    a = shape_matrix(du, d2u, model)
    return np.linalg.eigvalsh(a)


def gradient_term_shape_form(du, d2u, model=ModelKind.MINKOWSKI):
    """Gradient derivative via the shape-matrix route:

      G_i = -sigma [(u_i / v^2) F_kl a_kl + (2/v) F_kl a_ml b^ik u_m],   F_kl = delta_kl,

    using b^ik u_k = u_i / v.  Independent of operator_derivatives' direct
    formula; the two must agree.
    """
    du = np.asarray(du, dtype=float)
    d2u = np.asarray(d2u, dtype=float)
    v, _, _, _, b_up = metric_quantities(du, model)
    a = shape_matrix(du, d2u, model)
    tr_a = np.trace(a, axis1=-2, axis2=-1)
    bau = np.einsum('...ik,...km,...m->...i', b_up, a, du)
    return -model.sigma * (du * (tr_a / v ** 2)[..., None] + 2.0 * bau / v[..., None])


def fd_operator_derivatives(du, d2u, model: ModelKind, step=1e-6):
    """Central finite differences of H(du, d2u) in both argument slots.

    Returns (dH/d(d2u), dH/d(du)); the off-diagonal Hessian entries are
    perturbed as a symmetric pair, so the returned (0,1) entry matches the
    symmetric-derivative convention.
    """
    m = du.shape[0]
    g_r = np.zeros((m, 2, 2))
    g_p = np.zeros((m, 2))
    for i in range(2):
        dp = np.zeros_like(du)
        dp[:, i] = step
        g_p[:, i] = (mean_curvature(du + dp, d2u, model)
                     - mean_curvature(du - dp, d2u, model)) / (2 * step)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        dr = np.zeros_like(d2u)
        dr[:, i, j] = step
        dr[:, j, i] = step
        diff = (mean_curvature(du, d2u + dr, model)
                - mean_curvature(du, d2u - dr, model)) / (2 * step)
        if i == j:
            g_r[:, i, i] = diff
        else:
            g_r[:, i, j] = g_r[:, j, i] = diff / 2.0
    return g_r, g_p


def dump_triplets(matrix, path):
    """Write a sparse matrix (or a vector) as 'row col value' text lines."""
    with open(path, "w") as fh:
        if sp.issparse(matrix):
            coo = matrix.tocoo()
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{r} {c} {float(v)!r}\n")
        else:
            for r, v in enumerate(np.asarray(matrix).ravel()):
                fh.write(f"{r} 0 {float(v)!r}\n")


@st.composite
def quadric_domains(draw):
    """A ball or an ellipse, possibly nested in one or two super-level sets."""
    center = (draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
    if draw(st.booleans()):
        dom = Ball(center, draw(st.floats(0.1, 3.0)))
    else:
        a = draw(st.floats(0.3, 2.0))
        dom = Ellipse(center, (a, a * draw(st.floats(0.15, 1.0 / 0.15))))
    for t in draw(st.lists(st.floats(0.2, 1.0), max_size=2)):
        dom = dom.sublevel(t)
    return dom


def field_state(fld):
    """(Du, D2u, boundary-ring Du) of a field: the state that
    assembly.jacobian and solver.damped_step take."""
    return (*fld.derivatives(), fld.grid.boundary_gradients(fld.u))


def csv_reference(fld):
    """The text of field.csv, one node's row formatted at a time: the header
    row, then the pole as (0, 0) and ring nodes (i, j) in unknown order,
    each float by its repr."""
    grid = fld.grid
    du, d2u = fld.derivatives()
    keys = [(0, 0)] + [(i, j) for i in range(1, grid.n_rho + 1) for j in range(grid.n_phi)]
    lines = ["rho_index,phi_index,x1,x2,u,du1,du2,d2u11,d2u12,d2u22"]
    for k, (i, j) in enumerate(keys):
        vals = (*grid.nodes[k], fld.u[k], *du[k], d2u[k, 0, 0], d2u[k, 0, 1], d2u[k, 1, 1])
        lines.append(f"{i},{j}," + ",".join(repr(float(v)) for v in vals))
    return "\n".join(lines) + "\n"


def theta(dom):
    """Uniform concavity constant: D^2 h <= -theta I everywhere, the
    smallest eigenvalue of the quadric's A."""
    return float(np.linalg.eigvalsh(dom.quadric()[1])[0])


def grad_bound_delta(dom):
    """delta > 0 with |Dh| in [delta, 1/delta] on the boundary.

    On the boundary |Dh|^2 = 2 h_max |A d|^2 / d^T A d, which ranges over
    2 h_max [lambda_min, lambda_max] of A.
    """
    lo, hi = np.linalg.eigvalsh(dom.quadric()[1])
    return min(np.sqrt(2.0 * dom.h_max * lo), 1.0 / np.sqrt(2.0 * dom.h_max * hi))


def sampled_auto_t_min(omega, omega_tilde, n_rho):
    """Reference for solver.auto_t_min: the first t on the 0.05 lattice at
    which both super-level sets exist and the 16-ray minimum of their
    boundary radius is at least six radial cells (16-ray maximum radius of
    the full domain over n_rho)."""
    phi = np.linspace(0, 2 * np.pi, 16, endpoint=False)

    def admissible(t):
        for dom in (omega, omega_tilde):
            cell = float(np.max(dom.boundary_radius(phi))) / n_rho
            try:
                sub = dom.sublevel(t)
            except DegenerateSublevel:
                return False
            if float(np.min(sub.boundary_radius(phi))) < 6 * cell:
                return False
        return True

    for t in np.arange(0.05, 1.0, 0.05):
        if admissible(round(float(t), 10)):
            return round(float(t), 10)
    return 1.0


def grid_tolerance(grid):
    """Squared maximal cell extent of a grid: the O(h^2) truncation scale."""
    r_out = grid.domain.radii()[1]
    h = max(r_out / grid.n_rho, r_out * 2 * np.pi / grid.n_phi)
    return h * h


def _pinv_fit(grid, rows, cols, phi, extra):
    """Pseudo-inverse fit of each node rows (K,) on its stencil cols (K, m)
    by the quadratics plus the monomials extra(x, y) in the unit-disk
    offsets xi = L^-1 (x - x_row) of the grid's map L, in the frame rotated
    to the angle phi (K,) and scaled per direction to the stencil's extent;
    the fitted derivatives are taken back to Cartesian axes through the
    rotation and L.  A stencil entry listed twice weighs twice.  Returns
    (rows, cols, dict of (K, m) weights for dx, dy, dxx, dxy, dyy)."""
    rotation = np.stack([np.stack([np.cos(phi), np.sin(phi)], axis=-1),
                         np.stack([-np.sin(phi), np.cos(phi)], axis=-1)], axis=1)
    frame = rotation @ np.linalg.inv(grid.disk_map)   # x offsets -> frame coordinates
    local = np.einsum('kai,kmi->kam', frame, grid.nodes[cols] - grid.nodes[rows][:, None])
    scale = np.max(np.abs(local), axis=2)  # (K, 2)
    x, y = np.moveaxis(local / scale[:, :, None], 1, 0)
    design = np.stack([np.ones_like(x), x, y, x * x / 2, x * y, y * y / 2,
                       *extra(x, y)], axis=-1)
    coef = np.linalg.pinv(design)  # (K, n basis, m nodes)
    sr, st = scale[:, 0, None], scale[:, 1, None]
    grad = np.stack([coef[:, 1] / sr, coef[:, 2] / st], axis=1)
    hrt = coef[:, 4] / (sr * st)
    hess = np.stack([np.stack([coef[:, 3] / sr ** 2, hrt], axis=1),
                     np.stack([hrt, coef[:, 5] / st ** 2], axis=1)], axis=1)
    grad = np.einsum('kam,kap->kpm', grad, frame)
    hess = np.einsum('kabm,kap,kbq->kpqm', hess, frame, frame)
    return rows, cols, {'dx': grad[:, 0], 'dy': grad[:, 1], 'dxx': hess[:, 0, 0],
                        'dxy': hess[:, 0, 1], 'dyy': hess[:, 1, 1]}


class RotatedQuadric(Ball):
    """A quadric with an xy term, peaked at the origin and mapped by a
    symmetric L off the diagonal: it keeps the half turn, not the mirrors."""

    def quadric(self):
        return np.zeros(2), np.array([[1.0, 0.6], [0.6, 2.0]])

    def _scaled(self, k):
        # the radii are sqrt(radius / lambda), lambda the eigenvalues of A
        return RotatedQuadric(self.center, k * k * self.radius)


def lattice_index(grid, i, j):
    """Unknown index of lattice node (i, j), 1 + (i - 1) n_phi + (j mod n_phi),
    and 0 (the pole) for i = 0."""
    i, j = np.broadcast_arrays(i, j)
    return np.where(i == 0, 0, 1 + (i - 1) * grid.n_phi + np.mod(j, grid.n_phi))


def mirrored_rays(grid):
    """Whether each ray's rows list their stencil in mirrored order: on a
    grid with a diagonal map L, the rays q < j mod n_phi/2, q = n_phi // 4
    (the x-mirror images of rays n_phi/2 - j, and their half-turn images)."""
    diagonal = grid.disk_map[0, 1] == 0.0 == grid.disk_map[1, 0]
    return diagonal & (np.arange(grid.n_phi) % (grid.n_phi // 2) > grid.n_phi // 4)


def stencil_rows(grid):
    """The unknowns each operator row stores, in stencil order: the lists of
    (recovery rows, bx/by rows) of every node.  The pole's row is the pole
    and the first two rings; ring 1's rows are the pole, once, then rings
    1-4 at rays j - 2 .. j + 2; an interior ring's its 3 x 3 block; the
    boundary ring's the last 4 rings at rays j - 2 .. j + 2, each block
    ring-major.  A bx/by row is the boundary node's ray from ring n_rho - 3
    outward, then its ring at rays j - 2, j - 1, j + 1, j + 2; other nodes'
    bx/by rows are empty.  The mirrored_rays list every ray offset
    reversed: j + 2 .. j - 2, and j + 2, j + 1, j - 1, j - 2."""
    n_rho, n_phi = grid.n_rho, grid.n_phi
    mirrored = mirrored_rays(grid)

    def block(i, j, dis, djs):
        djs = djs[::-1] if mirrored[j] else djs
        return [int(lattice_index(grid, i + di, j + dj)) for di in dis for dj in djs]

    recovery = [list(range(1 + 2 * n_phi))]
    boundary = [[] for _ in range(grid.n_nodes - n_phi)]
    for i in range(1, n_rho + 1):
        for j in range(n_phi):
            if i == 1:
                recovery.append([0] + block(1, j, range(4), [-2, -1, 0, 1, 2]))
            elif i < n_rho:
                recovery.append(block(i, j, range(-1, 2), [-1, 0, 1]))
            else:
                recovery.append(block(i, j, range(-3, 1), [-2, -1, 0, 1, 2]))
                boundary.append(block(i, j, range(-3, 1), [0]) + block(i, j, [0], [-2, -1, 1, 2]))
    return recovery, boundary


def interior_fit_oracle(grid):
    """Reference weights of the interior recovery rows (rings 2 .. n_rho-1).

    Each node is fitted on its 3x3 block of neighbours by the biquadratic
    tensor basis in its radial/tangential frame, scaled per direction to the
    block's extent, with np.linalg.pinv of the design matrix; the fitted
    derivatives are rotated back to Cartesian axes.  Returns (rows, cols,
    weights): the node indices (K,), each block's node indices (K, 9) in
    the order (di, dj) = (-1, -1), (-1, 0), ..., (1, 1), and a dict of (K, 9)
    weights for dx, dy, dxx, dxy, dyy.
    """
    n_rho, n_phi = grid.n_rho, grid.n_phi
    i = np.repeat(np.arange(2, n_rho), n_phi)
    j = np.tile(np.arange(n_phi), n_rho - 2)
    cols = np.stack([lattice_index(grid, i + di, j + dj)
                     for di in (-1, 0, 1) for dj in (-1, 0, 1)], axis=1)
    return _pinv_fit(grid, lattice_index(grid, i, j), cols, grid.phi[j],
                     lambda x, y: (x * x * y, x * y * y, x * x * y * y))


def lsq_fit_oracle(grid):
    """Reference weights of the least-squares recovery rows, one (rows, cols,
    weights) triple as interior_fit_oracle's per group:

      * the pole, on itself and the first two rings, by the quadratics in
        Cartesian axes;
      * the first ring, on 5 radial stations x 5 angular columns (station 0
        is the pole, listed once per column), and the boundary ring, on the
        last 4 rings x 5 angular columns, both by the quadratics and the
        four cubic monomials in the node's radial/tangential frame.

    Each fit uses np.linalg.pinv of its design matrix, scaled per direction
    to the stencil's extent.  A node listed twice in a stencil carries the
    sum of its weights.
    """
    n_rho, n_phi = grid.n_rho, grid.n_phi
    j = np.arange(n_phi)
    pole = np.concatenate([[0], lattice_index(grid, 1, j), lattice_index(grid, 2, j)])
    ring1 = np.stack([lattice_index(grid, si, j + dj)
                      for si in range(5) for dj in (-2, -1, 0, 1, 2)], axis=1)
    ring_b = np.stack([lattice_index(grid, n_rho + di, j + dj)
                       for di in (-3, -2, -1, 0) for dj in (-2, -1, 0, 1, 2)], axis=1)

    def cubic(x, y):
        return x ** 3, x * x * y, x * y * y, y ** 3

    return [_pinv_fit(grid, np.array([0]), pole[None, :], np.zeros(1), lambda x, y: ()),
            _pinv_fit(grid, lattice_index(grid, 1, j), ring1, grid.phi, cubic),
            _pinv_fit(grid, lattice_index(grid, n_rho, j), ring_b, grid.phi, cubic)]


def isotropic_seed(spec):
    """The isotropic quadratic seed (alpha/2)|x - x_p|^2 + y_c . (x - x_p)
    about the two peaks, alpha the target's inradius over Omega's outradius,
    with c the operator at the peak: an admissible start off the transport
    map, whose Newton systems ask more of the linear solve than the transport
    seed's."""
    omega, omega_tilde, grid = spec.omega, spec.omega_tilde, spec.grid
    alpha = omega_tilde.radii()[0] / omega.radii()[1]
    d = grid.nodes - omega.peak
    u = 0.5 * alpha * np.sum(d * d, axis=-1) + d @ omega_tilde.peak
    c = operator_value(spec, omega.peak[None, :], np.zeros((1, 2)),
                       alpha * np.eye(2)[None, :, :])[0]
    fld = SolutionField(grid, grid.mean_zero(u), c, spec.model)
    h_img, _, _ = omega_tilde.defining(alpha * d + omega_tilde.peak)
    assert np.min(h_img) > -omega_tilde.boundary_tol()
    assert admissibility_violation(spec, *fld.derivatives()) is None
    return fld


def full_lu_solve(jac, rhs):
    """Reference of the direct Newton solve: a plain SuperLU factor of the
    whole row-scaled bordered matrix, c column and mean-zero row included,
    and one solve.  Returns (direction, SuperLU factor, row scale)."""
    row_max = abs(jac).max(axis=1).toarray().ravel()
    row_max[row_max == 0] = 1.0
    lu = splu((sp.diags(1.0 / row_max) @ jac).tocsc(), permc_spec=LU_ORDERING,
              diag_pivot_thresh=LU_PIVOT_THRESH)
    return lu.solve(rhs / row_max), lu, row_max


def factor_every_system(jac, rhs, factor=None, target=0.0):
    """Reference for solver._solve_linear that ignores the factor and the
    stop target it is handed: every Newton system gets full_lu_solve.  Same
    return shape: (direction, (factor, row scale), 0 GMRES iterations), the
    factor carrying its SuperLU object as lu, as solver.BorderedLU does."""
    direction, lu, row_max = full_lu_solve(jac, rhs)
    return direction, (SimpleNamespace(lu=lu, solve=lu.solve), row_max), 0


def reference_factor_setup(jac):
    """The Newton factor's set-up by sparse slicing and a sparse difference:
    (K^ in CSC, g, w, row scale) of jac = [K g; w^T 0], each row scaled by
    its largest magnitude and K^ = K - e_j e_j^T at j = N // 2.  The
    difference stores (j, j) also where K has none, and drops every entry
    that is exactly zero."""
    row_max = np.asarray(abs(jac).max(axis=1).todense()).ravel()
    row_max[row_max == 0] = 1.0
    n = jac.shape[0] - 1
    j = n // 2
    scaled = sp.csr_matrix((jac.data * np.repeat(1.0 / row_max, np.diff(jac.indptr)),
                            jac.indices, jac.indptr), shape=jac.shape)
    g, w = scaled[:n, n].toarray().ravel(), scaled[n, :n].toarray().ravel()
    k_hat = (scaled[:n, :n] - sp.csr_matrix(([1.0], ([j], [j])), shape=(n, n))).tocsc()
    return k_hat, g, w, row_max


@contextmanager
def full_bordered_systems():
    """The oracle of the symmetry reductions: inside it ProblemSpec.symmetry
    reads None, so newton_solve takes its start as given and solves every
    Newton system whole, on all N nodes and c, as for a problem without a
    symmetry."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ProblemSpec, "symmetry", property(lambda self: None))
        yield


class ZeroLU:
    """A stand-in for a SuperLU factor whose every solve is zero, which
    makes the bordering step's 2 x 2 [[-1, 0], [0, 0]], singular."""

    def solve(self, rhs):
        return np.zeros_like(rhs)


# signs of (dx, dy, dxx, dxy, dyy) under the half turn x -> -x and the
# mirror (x, y) -> (-x, y)
_HALF_TURN_SIGN = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
_MIRROR_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, 1.0])


def _reference_images(w, half_turn, mirror):
    """Overwrite the rays of w (names, rays, ...), rounded on every ray: with
    mirror (the signs, or None) ray j, q < j < h, by mirror times ray h - j,
    then each ray of the second half by half_turn times ray j - h, where q =
    rays // 4 and h = rays // 2."""
    rays = w.shape[1]
    q, h = rays // 4, rays // 2
    for j in range(q + 1, h) if mirror is not None else ():
        w[:, j] = mirror.reshape((-1,) + (1,) * (w.ndim - 2)) * w[:, h - j]
    w[:, rays - h:] = half_turn.reshape((-1,) + (1,) * (w.ndim - 1)) * w[:, :h]
    return w


def _reference_stencils(rings, dis, djs, n_phi, mirror):
    """_stencils, the rows of rays q < j mod n_phi/2 replaced, with mirror,
    by the stencils with djs reversed."""
    stencil = _stencils(rings, dis, djs, n_phi).reshape(len(rings), n_phi, -1)
    if mirror:
        flipped = _stencils(rings, dis, list(djs)[::-1], n_phi).reshape(stencil.shape)
        rays = np.arange(n_phi) % (n_phi // 2) > n_phi // 4
        stencil[:, rays] = flipped[:, rays]
    return stencil.reshape(len(rings) * n_phi, -1)


def _reference_cartesian_weights(w, ell, radial, center, chain, mirror):
    """grid._cartesian_weights with the rotation frames built per call."""
    ir, it = 1.0 / ell[:, :1], 1.0 / ell[:, 1:]
    unscaled = np.stack([ir, it, ir * ir, ir * it, it * it], axis=1) * w
    c, s = radial[:, 0], radial[:, 1]
    z = np.zeros(len(radial))
    rotation = np.stack([
        c, -s, z, z, z,
        s, c, z, z, z,
        z, z, c * c, -2.0 * c * s, s * s,
        z, z, c * s, c * c - s * s, -c * s,
        z, z, s * s, 2.0 * c * s, c * c,
    ], axis=1).reshape(-1, 5, 5)
    back = np.swapaxes(chain @ rotation, 0, 1).reshape(-1, 5)
    out = back @ np.swapaxes(unscaled, 0, 1).reshape(5, -1)
    out = _fold_defect(out.reshape(5, len(radial), *w.shape[::2]), center)
    # rays q < j < h and the second half of the rays: exact images
    return _reference_images(out, _HALF_TURN_SIGN, _MIRROR_SIGN if mirror else None)


def _reference_on_one_pattern(names, groups, n):
    """CSR operators on one pattern from (stencil (G, m), weights (len(names),
    G, m)) groups in node order, each row's unknowns in stencil order: the
    stencils and the weights concatenated."""
    sizes = np.concatenate([np.full(len(stencil), stencil.shape[1]) for stencil, _ in groups])
    indptr = np.append(np.zeros(n + 1 - len(sizes), dtype=int), np.cumsum(sizes))
    vals = np.concatenate([w.reshape(len(names), -1) for _, w in groups], axis=1) + 0.0
    first = sp.csr_matrix((vals[0], np.concatenate([stencil.ravel() for stencil, _ in groups]),
                           indptr), shape=(n, n))
    return {name: sp.csr_matrix((v, first.indices, first.indptr), shape=(n, n))
            for name, v in zip(names, vals)}


def reference_derivative_ops(xi, e, chain, n_rho, n_phi, mirror):
    """grid._build_derivative_ops by full-size stencil arrays, the weights
    taken to node order and one concatenation: the reference the operators
    must equal bit for bit.  Every ray is fitted and rounded; with mirror
    the weights of rays q < j < n_phi/2 are then overwritten by the exact
    x-mirror images of rays n_phi/2 - j's, and their stencils listed with
    the ray offsets reversed, and the second half's weights by the exact
    half-turn images of the first half's."""
    groups = []

    def add_rings(rings, dis, djs, extra):
        stencil = _reference_stencils(rings, dis, djs, n_phi, mirror)
        mid = list(dis).index(0) * len(djs) + len(djs) // 2
        s = stencil[::n_phi]
        w = _reference_cartesian_weights(*_lsq_weights(xi[s] - xi[s[:, mid, None]], extra),
                                         e, mid, chain, mirror)
        w = np.swapaxes(w, 1, 2)   # (5, ring, ray, m)
        if rings[0] + dis[0] == 0:
            w = np.concatenate([sum(np.moveaxis(w[..., :len(djs)], -1, 0))[..., None],
                                w[..., len(djs):]], axis=-1)
            stencil = stencil[:, len(djs) - 1:]
        groups.append((stencil, w.reshape(5, len(stencil), -1)))

    pole_stencil = np.arange(1 + 2 * n_phi)
    w = _reference_cartesian_weights(*_lsq_weights(xi[None, pole_stencil], []), e[:1], 0, chain,
                                     False)
    # the pole's weights on the second half of each ring: the first half's
    # exact images, and the centre weight the negated sum of the others
    rings = w[..., 1:].reshape(5, 2, 2, n_phi // 2)
    w = np.concatenate([np.zeros((5, 1, 1, 1)), np.stack(
        [rings[:, :, 0], _HALF_TURN_SIGN[:, None, None] * rings[:, :, 0]], axis=2
    ).reshape(5, 1, 1, -1)], axis=-1)
    w[..., 0] = -np.sum(w, axis=-1)
    groups.append((pole_stencil[None, :], w.reshape(5, 1, -1)))
    cubics = [(3, 0), (2, 1), (1, 2), (0, 3)]
    add_rings([1], range(-1, 4), range(-2, 3), cubics)
    add_rings(np.arange(2, n_rho), range(-1, 2), range(-1, 2), [(2, 1), (1, 2), (2, 2)])
    add_rings([n_rho], range(-3, 1), range(-2, 3), cubics)
    return _reference_on_one_pattern(['dx', 'dy', 'dxx', 'dxy', 'dyy'], groups,
                                     1 + n_rho * n_phi)


def reference_boundary_gradient_ops(disk_map, e, e_t, n_rho, n_phi, mirror):
    """grid._build_boundary_gradient_ops on every ray, the weights then
    overwritten as reference_derivative_ops's are (with the signs -1, 1 of
    bx, by under the mirror), and the tangential columns listed reversed
    on the mirrored rays.  The
    tangential weights are the centred 4-point difference [1, -8, 8, -1] /
    (12 h) divided by the factor (8 sin h - sin 2h) / (6 h) it makes of the
    derivative of cos and sin."""
    drho = 1.0 / n_rho
    dphi = 2 * np.pi / n_phi
    jinv_t = np.linalg.inv(disk_map).T @ np.stack([e, e_t], axis=2)
    rad_w = np.array([-1.0 / 3.0, 1.5, -3.0, 11.0 / 6.0]) / drho
    tan_w = np.array([1.0, -8.0, 8.0, -1.0]) / (2.0 * (8.0 * np.sin(dphi) - np.sin(2.0 * dphi)))
    cols = np.concatenate([_reference_stencils([n_rho], range(-3, 1), [0], n_phi, mirror),
                           _reference_stencils([n_rho], [0], [-2, -1, 1, 2], n_phi, mirror)],
                          axis=1)
    w = _fold_defect(np.concatenate([jinv_t[:, :, :1] * rad_w,
                                     jinv_t[:, :, 1:] * tan_w], axis=2), center=3)
    w = _reference_images(np.swapaxes(w, 0, 1), -np.ones(2),
                          _MIRROR_SIGN[:2] if mirror else None)
    return _reference_on_one_pattern(['bx', 'by'], [(cols, w)], 1 + n_rho * n_phi)


def uncapped_invert_gradient(interp, targets):
    """duality.invert_gradient iterating every target above the tolerance
    through all INVERSION_MAX_NEWTON iterations, stalled or not."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    scale = float(np.max(np.abs(targets))) + 1.0
    x = _nodal_start(interp, targets)
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
        x[active], res[active], rn[active] = xa, resa, ra
        active = rn > INVERSION_TOL * scale
    return x, rn


def whole_lattice_transform(field, dual_grid):
    """duality.legendre_transform inverting the gradient at every dual node,
    the oracle of its half-turn path, which inverts the representatives
    only: the same gap check on every node, then utilde(y) = x . y - u(x)."""
    interp = FieldInterpolant(field)
    y = dual_grid.nodes
    gap_tol = 1e-8 * (np.max(np.abs(y)) + 1.0)
    x, gaps = invert_gradient(interp, y)
    worst = int(np.argmax(gaps))
    if gaps[worst] > gap_tol:
        raise InversionFailure(float(gaps[worst]), point=y[worst])
    u_t = np.einsum('ij,ij->i', x, y) - interp.value(x)
    return SolutionField(dual_grid, u_t, -field.c, field.model, dual=True)


def ode_crosscheck(sol, steps: int = 10_000) -> float:
    """Integrate p' = c - (n-1) p / r with the classical 4th-order one-step
    method and return the maximal deviation from the closed form p = (c/n) r.

    The origin is a regular singular point; the march starts one step out on
    the leading-order expansion p(r) ~ (c/n) r.
    """
    n, c, r0 = sol.n, sol.c, sol.r0
    h = r0 / steps
    r = h
    p = c / n * r

    def rhs(r, p):
        return c - (n - 1) * p / r

    dev = abs(p - c / n * r)
    for _ in range(steps - 1):
        k1 = rhs(r, p)
        k2 = rhs(r + 0.5 * h, p + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h, p + 0.5 * h * k2)
        k4 = rhs(r + h, p + h * k3)
        p += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        r += h
        dev = max(dev, abs(p - c / n * r))
    return dev
