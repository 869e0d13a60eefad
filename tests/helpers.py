"""Shared test utilities: random admissible states, the shape-matrix
oracles for the curvature kernel, finite-difference oracles for the
pointwise operator derivatives, a Hypothesis strategy of quadric domains,
a field's Newton state, the quadric concavity and gradient-band oracles,
the sampled auto_t_min reference, a sparse-matrix dump, a grid's
truncation scale, and the pseudo-inverse reference of the interior fits."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from cmcsolve import Ball, Ellipse, ModelKind
from cmcsolve.errors import DegenerateSublevel
from cmcsolve.kernel import DEFAULT_EPS_SPACE, mean_curvature, speed_factor


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


def metric_quantities(du, model: ModelKind, eps_space: float = DEFAULT_EPS_SPACE):
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
    v = speed_factor(du, model, eps_space)
    s = model.sigma
    eye = np.broadcast_to(np.eye(2), du.shape[:-1] + (2, 2))
    pp = du[..., :, None] * du[..., None, :]
    v_ = v[..., None, None]
    g_lo = eye + s * pp
    g_up = eye - s * pp / v_ ** 2
    b_up = eye - s * pp / (v_ * (1.0 + v_))
    b_lo = eye + s * pp / (1.0 + v_)
    return v, g_lo, g_up, b_lo, b_up


def shape_matrix(du, d2u, model: ModelKind, eps_space: float = DEFAULT_EPS_SPACE):
    """a_ij = (1/v) b^ik u_kl b^lj; symmetric, positive definite iff d2u is.
    Its eigenvalues are the principal curvatures, its trace the mean
    curvature."""
    d2u = np.asarray(d2u, dtype=float)
    v, _, _, _, b_up = metric_quantities(du, model, eps_space)
    a = np.einsum('...ik,...kl,...lj->...ij', b_up, d2u, b_up) / v[..., None, None]
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def principal_curvatures(du, d2u, model: ModelKind, eps_space: float = DEFAULT_EPS_SPACE):
    """Eigenvalues of the shape matrix, ascending."""
    a = shape_matrix(du, d2u, model, eps_space)
    return np.linalg.eigvalsh(a)


def gradient_term_shape_form(du, d2u, eps_space: float = DEFAULT_EPS_SPACE):
    """Minkowski gradient derivative via the shape-matrix route:

      G_i = (u_i / v^2) F_kl a_kl + (2/v) F_kl a_ml b^ik u_m,   F_kl = delta_kl.

    Independent of operator_derivatives' direct formula; the two must agree.
    """
    du = np.asarray(du, dtype=float)
    d2u = np.asarray(d2u, dtype=float)
    model = ModelKind.MINKOWSKI
    v, _, _, _, b_up = metric_quantities(du, model, eps_space)
    a = shape_matrix(du, d2u, model, eps_space)
    tr_a = np.trace(a, axis1=-2, axis2=-1)
    bau = np.einsum('...ik,...km,...m->...i', b_up, a, du)
    return du * (tr_a / v ** 2)[..., None] + 2.0 * bau / v[..., None]


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
    rb_max = float(np.max(grid.r_b))
    h = max(rb_max / grid.n_rho, rb_max * 2 * np.pi / grid.n_phi)
    return h * h


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

    def index(ii, jj):
        return 1 + (ii - 1) * n_phi + np.mod(jj, n_phi)

    rows = index(i, j)
    cols = np.stack([index(i + di, j + dj)
                     for di in (-1, 0, 1) for dj in (-1, 0, 1)], axis=1)
    phi = grid.phi[j]
    frame = np.stack([np.stack([np.cos(phi), np.sin(phi)], axis=-1),
                      np.stack([-np.sin(phi), np.cos(phi)], axis=-1)], axis=1)
    local = np.einsum('kai,kmi->kam', frame, grid.nodes[cols] - grid.nodes[rows][:, None])
    scale = np.max(np.abs(local), axis=2)  # (K, 2)
    x, y = np.moveaxis(local / scale[:, :, None], 1, 0)
    design = np.stack([np.ones_like(x), x, y, x * x / 2, x * y, y * y / 2,
                       x * x * y, x * y * y, x * x * y * y], axis=-1)
    coef = np.linalg.pinv(design)  # (K, 9 basis, 9 nodes)
    sr, st = scale[:, 0, None], scale[:, 1, None]
    grad = np.stack([coef[:, 1] / sr, coef[:, 2] / st], axis=1)
    hrt = coef[:, 4] / (sr * st)
    hess = np.stack([np.stack([coef[:, 3] / sr ** 2, hrt], axis=1),
                     np.stack([hrt, coef[:, 5] / st ** 2], axis=1)], axis=1)
    grad = np.einsum('kam,kap->kpm', grad, frame)
    hess = np.einsum('kabm,kap,kbq->kpqm', hess, frame, frame)
    return rows, cols, {'dx': grad[:, 0], 'dy': grad[:, 1], 'dxx': hess[:, 0, 0],
                        'dxy': hess[:, 0, 1], 'dyy': hess[:, 1, 1]}
