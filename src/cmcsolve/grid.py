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
  * interior rings: interpolatory biquadratic tensor fits on 3x3 blocks;
  * boundary ring: one-sided cubic fits over 4 x 5 blocks (used for export
    and diagnostics), while the gradient-image condition rows use mapped
    per-column differences (see _build_boundary_gradient_ops).

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
    """Batched local-fit pseudo-inverses.

    offsets: (G, m, 2) physical offsets of each stencil from its node.
    center:  position of the node itself inside its stencil.
    radial:  (G, 2) unit directions; when given, the fit runs in the rotated
             radial/tangential frame with per-direction scaling.  Near the
             pole the stencils are extremely anisotropic (tangential arcs
             shrink like rho), and a single isotropic scale would leave the
             design matrix ill conditioned.
    cubics:  subset of {"r3", "r2t", "rt2", "t3"} naming cubic monomials in
             the scaled frame to append to the quadratic basis.  Stencils on
             a polar lattice are not centrally symmetric (one-sidedness at
             the pole and boundary, arc spacing growing with radius), and
             unmodeled cubic Taylor terms leak into the fitted Hessian at
             first order; each appended monomial must remain resolvable on
             the stencil (enough distinct radial or angular stations),
             otherwise the fit turns near-singular.
    Returns (G, 5, m): weights for (ux, uy, uxx, uxy, uyy).

    Each derivative row annihilates constants up to least-squares roundoff;
    the residual sum defect (machine-epsilon scale) is folded into the
    center weight so constant fields cancel exactly in floating point,
    keeping the roundoff of the large second-derivative weights tied to the
    local variation of u instead of its absolute values.
    """
    g, m, _ = offsets.shape
    if radial is None:
        rot = np.broadcast_to(np.eye(2), (g, 2, 2))
    else:
        tang = radial[:, ::-1] * [-1.0, 1.0]
        rot = np.stack([radial, tang], axis=1)  # rows: radial, tangential
    local = np.einsum('gri,gmi->gmr', rot, offsets)  # (G, m, 2)
    ell = np.max(np.abs(local), axis=1)  # (G, 2) per-direction scales
    ell = np.maximum(ell, 1e-300)
    d = local / ell[:, None, :]
    rr, tt = d[..., 0], d[..., 1]
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
    a = np.stack(cols, axis=-1)  # (G, m, n_basis)
    w = np.linalg.pinv(a)[:, 1:6, :]  # coefficients in scaled rotated frame
    w[:, :, center] -= w.sum(axis=2)

    lr, lt = ell[:, 0, None], ell[:, 1, None]
    g1 = w[:, 0, :] / lr  # d/d(radial)
    g2 = w[:, 1, :] / lt  # d/d(tangential)
    h11 = w[:, 2, :] / lr ** 2
    h12 = w[:, 3, :] / (lr * lt)
    h22 = w[:, 4, :] / lt ** 2

    # rotate gradient and Hessian weights back to Cartesian axes
    q = np.swapaxes(rot, 1, 2)  # columns: radial, tangential
    out = np.empty((g, 5, m))
    out[:, 0] = q[:, 0, 0, None] * g1 + q[:, 0, 1, None] * g2
    out[:, 1] = q[:, 1, 0, None] * g1 + q[:, 1, 1, None] * g2
    for k, (p, s) in enumerate(((0, 0), (0, 1), (1, 1))):
        out[:, 2 + k] = (q[:, p, 0, None] * q[:, s, 0, None] * h11
                         + (q[:, p, 0, None] * q[:, s, 1, None]
                            + q[:, p, 1, None] * q[:, s, 0, None]) * h12
                         + q[:, p, 1, None] * q[:, s, 1, None] * h22)
    return out


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

    Each is converted from the same list (duplicates summed, explicit zeros
    kept), so their patterns agree and sharing the index arrays is exact.
    """
    mats = [sp.csr_matrix((v, (rows, cols)), shape=(n, n)) for v in vals]
    return {name: sp.csr_matrix((m.data, mats[0].indices, mats[0].indptr), shape=(n, n))
            for name, m in zip(names, mats)}


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

    rows, cols, vx, vy = [], [], [], []
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

    center = np.asarray(node_index(n_rho, j, n_phi))
    # radial: f'(rho=1) ~ (-1/3 f_{n-3} + 3/2 f_{n-2} - 3 f_{n-1} + 11/6 f_n)/drho
    rad_st = [n_rho - 3, n_rho - 2, n_rho - 1, n_rho]
    rad_w = np.array([-1.0 / 3.0, 1.5, -3.0, 11.0 / 6.0]) / drho
    # tangential: 4th-order centered along the periodic ring
    tan_st = [-2, -1, 1, 2]
    tan_w = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * dphi)

    for si, wgt in zip(rad_st, rad_w):
        idx = np.asarray(node_index(si, j, n_phi))
        rows.append(center)
        cols.append(idx)
        vx.append(jinv_t[:, 0, 0] * wgt)
        vy.append(jinv_t[:, 1, 0] * wgt)
    for dj, wgt in zip(tan_st, tan_w):
        idx = np.asarray(node_index(n_rho, j + dj, n_phi))
        rows.append(center)
        cols.append(idx)
        vx.append(jinv_t[:, 0, 1] * wgt)
        vy.append(jinv_t[:, 1, 1] * wgt)

    return _on_one_pattern(['bx', 'by'], [np.concatenate(vx), np.concatenate(vy)],
                           np.concatenate(rows), np.concatenate(cols), n_nodes)


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

    # interior rings: centered 3x3 blocks with the interpolatory biquadratic
    # tensor basis (second-order Hessians; the basis covers the cross terms
    # induced by the fanned arc spacing)
    for i in range(2, n_rho):
        idx = np.stack([node_index(i + di, j + dj, n_phi)
                        for di in (-1, 0, 1) for dj in (-1, 0, 1)], axis=1)
        add_group(np.asarray(node_index(i, j, n_phi)), idx, radial=e_rad,
                  cubics="biquadratic", center=1 * 3 + 1)

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
