"""Boundary-fitted polar grid over a convex domain and nodal derivative
recovery.

Nodes are x(rho_i, phi_j) = peak + rho_i * r_b(phi_j) (cos phi_j, sin phi_j)
with rho uniform on [0, 1] and phi uniform periodic; r_b is the distance from
the defining-function peak to the boundary (convexity plus an interior peak
guarantee star-shapedness).  The pole rho = 0 is a single shared unknown.

Unknown layout: index 0 is the pole; node (i, j) for 1 <= i <= n_rho maps to
1 + (i-1) n_phi + j.  The rho = 1 ring lies on the boundary.

Cartesian Du and D^2 u at a node are recovered from local polynomial fits in
physical offsets, with the basis chosen per region so the fitted Hessians
stay second-order accurate on the fanned polar layout:

  * pole: quadratic fit over the (centrally symmetric) first two rings;
  * first ring: cubic fit over 5 radial stations x 5 angular columns;
  * interior rings: interpolatory biquadratic tensor fits on 3x3 blocks
    (square design matrices, solved exactly, all rings in one batch);
  * boundary ring: one-sided cubic fits over 4 x 5 blocks (used for export
    and diagnostics), while the gradient-image condition rows use mapped
    per-column differences (see _build_boundary_gradient_ops).

The pole, first-ring and boundary fits are least squares (pseudo-inverses).

Every basis contains the quadratics, so linear and quadratic potentials are
reproduced to machine precision on any of the supported domains; the
recovery is a fixed sparse linear operator, so residual linearizations stay
exactly consistent with the residual itself.

Quadrature: mapped trapezoid in rho (the integrand carries the polar factor
rho r_b^2, so the pole weight vanishes) and periodic trapezoid in phi;
boundary integrals use arc-length weights sqrt(r_b^2 + r_b'^2) dphi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .domains import ConvexDomain
from .kernel import ModelKind


def node_index(i, j, n_phi):
    """Unknown index of grid node (i, j); i = 0 is the pole for any j."""
    i = np.asarray(i)
    j = np.asarray(j)
    return np.where(i == 0, 0, 1 + (i - 1) * n_phi + np.mod(j, n_phi))


@dataclass
class MappedGrid:
    domain: ConvexDomain
    n_rho: int
    n_phi: int
    rho: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    r_b: np.ndarray = field(repr=False)
    r_b_prime: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)
    boundary_weights: np.ndarray = field(repr=False)
    # name -> CSR operator; dx, dy, dxx, dxy, dyy share one indptr/indices
    # pair, bx and by another
    ops: dict = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return 1 + self.n_rho * self.n_phi

    @property
    def boundary_idx(self) -> np.ndarray:
        j = np.arange(self.n_phi)
        return np.asarray(node_index(self.n_rho, j, self.n_phi))

    @property
    def interior_mask(self) -> np.ndarray:
        m = np.ones(self.n_nodes, dtype=bool)
        m[self.boundary_idx] = False
        return m

    def to_param_array(self, u: np.ndarray) -> np.ndarray:
        """Nodal vector -> (n_rho+1, n_phi) array on the parameter lattice
        (pole value replicated along row 0)."""
        out = np.empty((self.n_rho + 1, self.n_phi))
        out[0, :] = u[0]
        out[1:, :] = u[1:].reshape(self.n_rho, self.n_phi)
        return out

    def from_param_array(self, arr: np.ndarray) -> np.ndarray:
        u = np.empty(self.n_nodes)
        u[0] = arr[0].mean()
        u[1:] = arr[1:, :].ravel()
        return u

    def derivative_arrays(self, u: np.ndarray):
        """(Du, D2u) at every node: Du (N, 2), D2u (N, 2, 2) symmetric."""
        du = np.stack([self.ops['dx'] @ u, self.ops['dy'] @ u], axis=-1)
        uxx = self.ops['dxx'] @ u
        uxy = self.ops['dxy'] @ u
        uyy = self.ops['dyy'] @ u
        d2u = np.empty((len(u), 2, 2))
        d2u[:, 0, 0] = uxx
        d2u[:, 0, 1] = uxy
        d2u[:, 1, 0] = uxy
        d2u[:, 1, 1] = uyy
        return du, d2u

    def boundary_gradients(self, u: np.ndarray) -> np.ndarray:
        """Du on the rho = 1 ring via mapped per-column differences; shape
        (n_phi, 2).  Used by the gradient-image condition rows."""
        bidx = self.boundary_idx
        return np.stack([(self.ops['bx'] @ u)[bidx],
                         (self.ops['by'] @ u)[bidx]], axis=-1)

    def quadrature(self, values: np.ndarray) -> float:
        """Integral over the domain of a nodal integrand."""
        return float(self.quad_weights @ values)

    def boundary_integral(self, ring_values: np.ndarray) -> float:
        """Integral over the boundary of values on the rho = 1 ring."""
        return float(self.boundary_weights @ ring_values)

    def mean_zero(self, u: np.ndarray) -> np.ndarray:
        """Project onto the discrete mean-zero space."""
        w = self.quad_weights
        return u - (w @ u) / w.sum()


def _lsq_weights(offsets, radial=None, cubics=(), center=0):
    """Batched local-fit weights.

    offsets: (G, m, 2) physical offsets of each stencil from its node.
    center:  position of the node itself inside its stencil.
    radial:  (G, 2) unit directions; when given, the fit runs in the rotated
             radial/tangential frame with per-direction scaling.  Near the
             pole the stencils are extremely anisotropic (tangential arcs
             shrink like rho), and a single isotropic scale would leave the
             design matrix ill conditioned.
    cubics:  "biquadratic", or a subset of {"r3", "r2t", "rt2", "t3"} naming
             cubic monomials in the scaled frame to append to the quadratic
             basis.  Stencils on a polar lattice are not centrally symmetric
             (one-sidedness at the pole and boundary, arc spacing growing
             with radius), and unmodeled cubic Taylor terms leak into the
             fitted Hessian at first order; each appended monomial must
             remain resolvable on the stencil (enough distinct radial or
             angular stations), otherwise the fit turns near-singular.
    Returns (G, 5, m): weights for (ux, uy, uxx, uxy, uyy).

    A square (interpolatory) design matrix is solved exactly, a tall one
    by pseudo-inverse; _fold_defect makes constants cancel exactly.
    """
    g, m, _ = offsets.shape
    if radial is None:
        radial = np.broadcast_to([1.0, 0.0], (g, 2))
    c, s = radial[:, :1], radial[:, 1:]  # (G, 1) each; tangential is (-s, c)
    ox, oy = offsets[..., 0], offsets[..., 1]
    local = np.stack([c * ox + s * oy, c * oy - s * ox], axis=1)  # (G, 2, m)
    ell = np.maximum(np.abs(local).max(axis=2), 1e-300)  # per-direction scales
    rr, tt = np.swapaxes(local / ell[:, :, None], 0, 1)
    cols = [np.ones_like(rr), rr, tt, 0.5 * rr ** 2, rr * tt, 0.5 * tt ** 2]
    if cubics == "biquadratic":
        # tensor completion of the quadratic basis: interpolatory on 3x3
        # blocks (9 dof, 9 nodes), leaving no residual space for stencil
        # patterns to hide in
        cols += [rr ** 2 * tt, rr * tt ** 2, rr ** 2 * tt ** 2]
    elif cubics:
        terms = {"r3": rr ** 3, "r2t": rr ** 2 * tt, "rt2": rr * tt ** 2,
                 "t3": tt ** 3}
        cols += [terms[name] for name in cubics]
    # coefficient weights in the scaled rotated frame: rows 1-5 of the
    # design matrix's inverse (solving against its transpose, whose inverse
    # is the inverse's transpose), or of its pseudo-inverse for a tall one
    a_t = np.stack(cols, axis=1)  # (G, n_basis, m): the transposed design matrix
    if m == len(cols):
        w = np.swapaxes(np.linalg.solve(a_t, np.eye(m)[:, 1:6]), 1, 2)
    else:
        w = np.linalg.pinv(np.swapaxes(a_t, 1, 2))[:, 1:6, :]

    # chain rule back through the scaling (inverse scales ir, it) and the
    # rotation: the Cartesian weights are back @ w, with back block diagonal
    # (gradient 2x2, Hessian 3x3)
    ir, it, z = 1.0 / ell[:, :1], 1.0 / ell[:, 1:], np.zeros((g, 1))
    back = np.stack([
        c * ir, -s * it, z, z, z,
        s * ir, c * it, z, z, z,
        z, z, c * c * ir * ir, -2.0 * c * s * ir * it, s * s * it * it,
        z, z, c * s * ir * ir, (c * c - s * s) * ir * it, -c * s * it * it,
        z, z, s * s * ir * ir, 2.0 * c * s * ir * it, c * c * it * it,
    ], axis=1).reshape(g, 5, 5)
    return _fold_defect(back @ w, center)


def _fold_defect(w, center):
    """Weights w (..., m) rounded per row to multiples of the smallest power
    of two q with 2^53 q above the row's positive and negative sums (with a
    margin), then the row-sum defect folded into the center weight.  Every
    partial sum of a row is then exact, so constant fields cancel exactly in
    any summation order, keeping the roundoff of the large second-derivative
    weights tied to the local variation of u instead of its absolute values.
    """
    ones = np.ones(w.shape[-1])
    half = 0.5 * (np.abs(w) @ ones + np.abs(w @ ones))[..., None]
    q = np.ldexp(1.0, np.frexp(half * (1.0 + 2.0 ** -40))[1] - 53)
    w /= q  # in place: every caller passes a temporary
    np.rint(w, out=w)
    w *= q
    w[..., center] -= w @ ones
    return w


def build_grid(domain: ConvexDomain, n_rho: int, n_phi: int) -> MappedGrid:
    """Construct the mapped grid with precomputed derivative operators and
    quadrature weights."""
    if n_rho < 8:
        raise ValueError(f"n_rho must be >= 8, got {n_rho}")
    if n_phi < 16 or n_phi % 2:
        raise ValueError(f"n_phi must be even and >= 16, got {n_phi}")

    rho = np.linspace(0.0, 1.0, n_rho + 1)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    r_b = domain.boundary_radius(phi)
    r_b_prime = domain.boundary_radius_deriv(phi)

    peak = domain.peak
    e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    n_nodes = 1 + n_rho * n_phi
    nodes = np.empty((n_nodes, 2))
    nodes[0] = peak
    for i in range(1, n_rho + 1):
        nodes[1 + (i - 1) * n_phi: 1 + i * n_phi] = peak + rho[i] * r_b[:, None] * e

    # quadrature: trapezoid in rho of the polar integrand rho r_b^2, periodic
    # trapezoid in phi; pole weight is zero since the integrand vanishes there
    drho = 1.0 / n_rho
    dphi = 2 * np.pi / n_phi
    w = np.zeros(n_nodes)
    for i in range(1, n_rho + 1):
        frac = 0.5 if i == n_rho else 1.0
        w[1 + (i - 1) * n_phi: 1 + i * n_phi] = frac * rho[i] * r_b ** 2 * drho * dphi
    boundary_weights = np.sqrt(r_b ** 2 + r_b_prime ** 2) * dphi

    ops = _build_derivative_ops(nodes, n_rho, n_phi)
    ops.update(_build_boundary_gradient_ops(r_b, r_b_prime, phi, n_rho, n_phi))

    return MappedGrid(domain=domain, n_rho=n_rho, n_phi=n_phi, rho=rho, phi=phi,
                      r_b=r_b, r_b_prime=r_b_prime, nodes=nodes, quad_weights=w,
                      boundary_weights=boundary_weights, ops=ops)


def _on_one_pattern(names, vals, rows, cols, n):
    """CSR operators with the given values on one (row, col) list, sharing
    one indptr/indices pair: one pattern, one coefficient set per name.

    The list is sorted once; each value array is then summed onto the sorted
    unique keys (duplicates summed, explicit zeros kept).
    """
    keys, slot = np.unique(rows.astype(np.int64) * n + cols, return_inverse=True)
    first = sp.csr_matrix((np.bincount(slot, vals[0], len(keys)), keys % n,
                           np.searchsorted(keys, np.arange(n + 1) * n)), shape=(n, n))
    return {name: sp.csr_matrix((np.bincount(slot, v, len(keys)), first.indices,
                                 first.indptr), shape=(n, n))
            for name, v in zip(names, vals)}


def _build_boundary_gradient_ops(r_b, r_b_prime, phi, n_rho, n_phi):
    """Cartesian gradient operators for the boundary ring only, from mapped
    per-column differencing: a one-sided 4-point radial derivative along
    each grid ray and a 4th-order centered tangential derivative along the
    ring, pushed through the analytic map Jacobian.

    The gradient-image condition rows use these instead of the local
    least-squares fits: a least-squares patch averages out perturbations
    alternating inside it, leaving boundary-concentrated parasitic modes
    nearly invisible to the boundary equations, whereas interpolatory
    per-column differences respond to them at full strength.
    """
    n_nodes = 1 + n_rho * n_phi
    j = np.arange(n_phi)
    drho = 1.0 / n_rho
    dphi = 2 * np.pi / n_phi

    e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    e_t = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
    # grad = J^{-T} (d/drho, d/dphi) with J = [x_rho | x_phi] at rho = 1;
    # det J = r_b^2 (star-shapedness keeps it positive)
    x_rho = r_b[:, None] * e
    x_phi = r_b_prime[:, None] * e + r_b[:, None] * e_t
    det = r_b ** 2
    jinv_t = np.empty((n_phi, 2, 2))
    jinv_t[:, 0, 0] = x_phi[:, 1] / det
    jinv_t[:, 0, 1] = -x_rho[:, 1] / det
    jinv_t[:, 1, 0] = -x_phi[:, 0] / det
    jinv_t[:, 1, 1] = x_rho[:, 0] / det

    # radial: f'(rho=1) ~ (-1/3 f_{n-3} + 3/2 f_{n-2} - 3 f_{n-1} + 11/6 f_n)/drho
    rad_st = [n_rho - 3, n_rho - 2, n_rho - 1, n_rho]
    rad_w = np.array([-1.0 / 3.0, 1.5, -3.0, 11.0 / 6.0]) / drho
    # tangential: 4th-order centered along the periodic ring
    tan_st = [-2, -1, 1, 2]
    tan_w = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * dphi)

    cols = np.stack([node_index(si, j, n_phi) for si in rad_st]
                    + [node_index(n_rho, j + dj, n_phi) for dj in tan_st], axis=1)
    # (n_phi, 2, 8): rows x, y; the rho weights take J^{-T}'s first column
    w = _fold_defect(np.concatenate([jinv_t[:, :, :1] * rad_w,
                                     jinv_t[:, :, 1:] * tan_w], axis=2), center=3)
    return _on_one_pattern(['bx', 'by'], [w[:, 0].ravel(), w[:, 1].ravel()],
                           np.repeat(node_index(n_rho, j, n_phi), 8), cols.ravel(),
                           n_nodes)


def _build_derivative_ops(nodes, n_rho, n_phi):
    n_nodes = 1 + n_rho * n_phi
    rows, cols, vals = [], [], [[] for _ in range(5)]

    def add_group(center_idx, stencil_idx, radial=None, cubics=(), center=0):
        # center_idx (G,), stencil_idx (G, m)
        offsets = nodes[stencil_idx] - nodes[center_idx][:, None, :]
        wts = _lsq_weights(offsets, radial, cubics, center)  # (G, 5, m)
        g, m = stencil_idx.shape
        rows.append(np.repeat(center_idx, m))
        cols.append(stencil_idx.ravel())
        for c in range(5):
            vals[c].append(wts[:, c, :].ravel())

    j = np.arange(n_phi)
    phi = 2 * np.pi * j / n_phi
    e_rad = np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    # pole: one fit over the first two rings plus the pole itself; the rings
    # are centrally symmetric, so plain quadratic suffices
    pole_stencil = np.concatenate([[0],
                                   node_index(np.ones(n_phi, int), j, n_phi),
                                   node_index(2 * np.ones(n_phi, int), j, n_phi)])
    add_group(np.array([0]), pole_stencil[None, :])

    full = ("r3", "r2t", "rt2", "t3")

    # first ring: 5 radial stations (station 0 collapses onto the pole,
    # whose duplicated entries act as least-squares weights and are summed
    # by the sparse constructor) x 5 angular columns, with the full cubic
    # basis in the rotated frame
    idx1 = np.stack([node_index(si, j + dj, n_phi)
                     for si in range(0, 5) for dj in (-2, -1, 0, 1, 2)], axis=1)
    add_group(np.asarray(node_index(1, j, n_phi)), idx1, radial=e_rad,
              cubics=full, center=1 * 5 + 2)

    # interior rings, all in one group: centered 3x3 blocks with the
    # interpolatory biquadratic tensor basis (second-order Hessians; the
    # basis covers the cross terms induced by the fanned arc spacing)
    i, jj = np.repeat(np.arange(2, n_rho), n_phi), np.tile(j, n_rho - 2)
    idx = np.stack([node_index(i + di, jj + dj, n_phi)
                    for di in (-1, 0, 1) for dj in (-1, 0, 1)], axis=1)
    add_group(np.asarray(node_index(i, jj, n_phi)), idx,
              radial=np.tile(e_rad, (n_rho - 2, 1)), cubics="biquadratic",
              center=1 * 3 + 1)

    # boundary ring (recovery for export/diagnostics; the gradient-image
    # condition rows use the mapped per-column operators instead): one-sided
    # 4x5 blocks with the full cubic basis
    idxb = np.stack([node_index(n_rho + di, j + dj, n_phi)
                     for di in (-3, -2, -1, 0) for dj in (-2, -1, 0, 1, 2)],
                    axis=1)
    add_group(np.asarray(node_index(n_rho, j, n_phi)), idxb, radial=e_rad,
              cubics=full, center=3 * 5 + 2)

    return _on_one_pattern(['dx', 'dy', 'dxx', 'dxy', 'dyy'],
                           [np.concatenate(v) for v in vals],
                           np.concatenate(rows), np.concatenate(cols), n_nodes)


@dataclass
class SolutionField:
    """Nodal potential values, the curvature constant, and the model tag.

    The pair (u, c): u lives in the discrete mean-zero space, c is the
    constant the interior equation is solved against.  dual marks fields
    living on the gradient-image domain (Legendre side).
    """

    grid: MappedGrid
    u: np.ndarray
    c: float
    model: ModelKind
    dual: bool = False

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (self.grid.n_nodes,):
            raise ValueError(f"u must have shape ({self.grid.n_nodes},)")
        self.c = float(self.c)

    def derivatives(self):
        return self.grid.derivative_arrays(self.u)

    def mean_zero(self) -> "SolutionField":
        return SolutionField(self.grid, self.grid.mean_zero(self.u), self.c,
                             self.model, self.dual)

    def copy(self) -> "SolutionField":
        return SolutionField(self.grid, self.u.copy(), self.c, self.model, self.dual)


def transfer_field(field: SolutionField, new_grid: MappedGrid) -> SolutionField:
    """Carry a field onto a grid over a deformed domain by interpolating on
    the shared (rho, phi) parameter lattice (bilinear; index copy when the
    resolutions match), then re-projecting onto the mean-zero space."""
    g0, g1 = field.grid, new_grid
    if (g0.n_rho, g0.n_phi) == (g1.n_rho, g1.n_phi):
        u_new = field.u.copy()
    else:
        arr = g0.to_param_array(field.u)
        ri = g1.rho * g0.n_rho
        pj = g1.phi / (2 * np.pi / g0.n_phi)
        i0 = np.clip(np.floor(ri).astype(int), 0, g0.n_rho - 1)
        fr = ri - i0
        j0 = np.floor(pj).astype(int) % g0.n_phi
        fp = pj - np.floor(pj)
        j1 = (j0 + 1) % g0.n_phi
        vals = ((1 - fr)[:, None] * ((1 - fp)[None, :] * arr[i0][:, j0]
                                     + fp[None, :] * arr[i0][:, j1])
                + fr[:, None] * ((1 - fp)[None, :] * arr[i0 + 1][:, j0]
                                 + fp[None, :] * arr[i0 + 1][:, j1]))
        u_new = g1.from_param_array(vals)
    return SolutionField(g1, g1.mean_zero(u_new), field.c, field.model, field.dual)
