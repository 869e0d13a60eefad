"""Boundary-fitted polar grid over a convex domain and nodal derivative
recovery.

Every domain is the image x = peak + L xi of the unit disk |xi| < 1 under its
own linear map L (ConvexDomain.disk_map).  The grid is the polar lattice of
the unit disk mapped by L: nodes are x(rho_i, phi_j) = peak + L rho_i (cos
phi_j, sin phi_j) with rho uniform on [0, 1] and phi uniform periodic.  The
pole rho = 0 is a single shared unknown.

Unknown layout: index 0 is the pole; node (i, j) for 1 <= i <= n_rho maps to
1 + (i-1) n_phi + j.  The rho = 1 ring lies on the boundary.

Cartesian Du and D^2 u at a node are recovered from local polynomial fits in
the unit-disk offsets, with the basis chosen per region (pole, first ring,
interior rings, boundary ring; see _build_derivative_ops) so the fitted
Hessians stay second-order accurate on the fanned polar layout, all through
one batched QR fit (_lsq_weights).  The fitted unit-disk derivatives go to
Cartesian ones by the constant chain rule Du = L^-T D_xi u, D^2 u = L^-T
D^2_xi u L^-1.  Every basis contains the quadratics, which an affine map
keeps, so linear and quadratic potentials are reproduced to machine
precision on any of the supported domains; the recovery is a fixed sparse
linear operator, so residual linearizations stay exactly consistent with
the residual itself.

The unit-disk lattice is symmetric under every rotation by 2 pi / n_phi, so
each node of a ring sees the same stencil in its own scaled rotated frame:
only ray 0 of each ring is fitted, and one GEMM takes its frame weights
through every ray's frame and the chain rule, for any symmetric L; the
weights are then written once, straight into the operators' CSR layout
(_on_one_pattern).  The polar frame is evaluated on the first quarter of
the rays and taken to the others by exact mirror images (_ray_images), so
the nodes and the quadrature weights are exactly symmetric under the half
turn and the mirrors phi -> pi - phi and phi -> -phi of a diagonal L.  The
weights of rays j < n_phi/2 are rounded, and the others' written as their
exact half-turn images (MappedGrid.half_turn); with a diagonal L only rays
j <= n_phi // 4 are rounded, and the rays between written as the exact
x-mirror images of rays n_phi/2 - j first (MappedGrid.quarter,
_exact_images).  Rows keep stencil order, an image row listing the images
of its representative's entries in the same order (mirrored rows their ray
offsets reversed), so a field even under the half turn, or the whole
group, has each derivative's parities bit for bit, bar the orbits of the
nodes an isometry fixes: the pole, and under the mirrors the rays on
their axes.

Quadrature: det L times the unit disk's trapezoid in rho of the polar
integrand rho (the pole weight vanishes) and periodic trapezoid in phi;
boundary integrals use arc-length weights |L e_t| dphi.

Fields move between lattices, and the Legendre transform inverts Du, on
lattice_spline, a tensor cubic spline on the (rho, phi) lattice in numpy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.sparse as sp
from scipy.linalg import solve_circulant

from .domains import ConvexDomain, polar_frame
from .kernel import ModelKind, _symmetric


HALF_TURN = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])[:, None, None, None]   # dx .. dyy at -x
MIRROR = np.array([-1.0, 1.0, 1.0, -1.0, 1.0])[:, None, None, None]   # at (-x, y)


def diagonal(m) -> bool:
    """Whether the 2 x 2 matrix m is diagonal: the coordinate mirrors keep
    it, as they keep a quadric or disk map of that form."""
    return m[0, 1] == 0.0 and m[1, 0] == 0.0


def _ray_images(n_phi):
    """(source, flip) of every ray j: the fundamental ray source <= n_phi/4
    it is the image of, and the signs (fx, fy) of that image (x, y) ->
    (fx x, fy y): the identity, the x-mirror, the half turn or the y-mirror."""
    q, half = n_phi // 4, n_phi // 2
    j = np.arange(n_phi)
    image = np.select([j <= q, j <= half, j <= half + q], [0, 1, 2], 3)
    flip = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])[image]
    return np.choose(image, [j, half - j, j - half, n_phi - j]), flip


def _stencils(rings, dis, djs, n_phi, mirror=False):
    """Unknown indices (len(rings) n_phi, len(dis) len(djs)) of the nodes
    (i + di, j + dj), di-major, about every node (i, j) of the rings: node
    (i, j) is 1 + (i - 1) n_phi + (j mod n_phi), and ring 0 the pole, 0.
    With mirror, the rays n_phi // 4 < j mod n_phi/2 (the x-mirror images of
    rays n_phi/2 - j, and their half-turn images) list djs reversed, so
    entry k of such a row is the mirror image of its representative's."""
    djs = np.asarray(djs)
    mirrored = np.arange(n_phi) % (n_phi // 2) > n_phi // 4
    dj = np.where(mirrored[:, None], djs[::-1], djs) if mirror else djs
    i = np.add.outer(rings, dis)[:, None, :, None]
    j = np.mod(np.arange(n_phi)[:, None] + dj, n_phi)[None, :, None, :]
    return np.maximum(1 + (i - 1) * n_phi + j, 0).reshape(len(rings) * n_phi, -1)


def _exact_images(w, half_turn, mirror):
    """Fill the rays of w (names, n_phi, ...), whose rays j < n_phi/2 are
    set: with mirror (the names' signs at (-x, y), or None), rays q < j <
    n_phi/2 by the x-mirror images of rays n_phi/2 - j, then rays j >=
    n_phi/2 by the half-turn images (signs half_turn) of rays j - n_phi/2."""
    q, h = w.shape[1] // 4, w.shape[1] // 2
    if mirror is not None:
        w[:, q + 1:h] = mirror * w[:, h - q - 1:0:-1]
    w[:, h:] = half_turn * w[:, :h]
    return w


class Symmetry(NamedTuple):
    """A group of node maps the operators are exactly equivariant under:
    image (k, N), the node each non-identity map sends each node to; rows,
    the bordered system's rows of the representatives (each orbit's node on
    its smallest ray) and of c, the last; fold, the representative, numbered
    among them, of every unknown and of c."""

    image: np.ndarray
    rows: np.ndarray
    fold: np.ndarray


class BorderedPattern(NamedTuple):
    """CSR pattern of the (N+1) x (N+1) bordered system matrix on a grid:
    each interior row is the shared recovery pattern's row followed by the
    c column N, each boundary row the bx/by pattern's, and the last row, the
    mean-zero row, runs over every node.  rows and boundary_rows give the
    interior row (node) and the boundary ring position of each recovery
    and bx/by entry; the interior rows' entries come first, and recovery
    marks which of them are recovery entries, the rest being c entries."""

    indices: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    boundary_rows: np.ndarray
    recovery: np.ndarray


@dataclass
class MappedGrid:
    domain: ConvexDomain
    n_rho: int
    n_phi: int
    rho: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    disk_map: np.ndarray = field(repr=False)   # L: nodes are peak + L rho e(phi)
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
        return np.arange(self.n_nodes - self.n_phi, self.n_nodes)

    @property
    def interior_mask(self) -> np.ndarray:
        return np.arange(self.n_nodes) < self.n_nodes - self.n_phi

    def lattice_indices(self):
        """(ring, ray) index arrays (i, j) of the nodes, the pole as (0, 0)."""
        i = np.repeat(np.arange(self.n_rho + 1), [1] + [self.n_phi] * self.n_rho)
        j = np.concatenate([[0], np.tile(np.arange(self.n_phi), self.n_rho)])
        return i, j

    def to_param_array(self, u: np.ndarray) -> np.ndarray:
        """Nodal array (N, ...) -> (n_rho+1, n_phi, ...) array on the
        parameter lattice (pole value replicated along row 0)."""
        out = np.empty((self.n_rho + 1, self.n_phi) + u.shape[1:])
        out[0] = u[0]
        out[1:] = u[1:].reshape(out[1:].shape)
        return out

    def derivative_arrays(self, u: np.ndarray):
        """(Du, D2u) at every node: Du (N, 2), D2u (N, 2, 2) symmetric."""
        du = np.stack([self.ops['dx'] @ u, self.ops['dy'] @ u], axis=-1)
        return du, _symmetric(self.ops['dxx'] @ u, self.ops['dxy'] @ u, self.ops['dyy'] @ u)

    def boundary_gradients(self, u: np.ndarray) -> np.ndarray:
        """Du on the rho = 1 ring via mapped per-column differences; shape
        (n_phi, 2).  Used by the gradient-image condition rows."""
        bidx = self.boundary_idx
        return np.stack([(self.ops['bx'] @ u)[bidx],
                         (self.ops['by'] @ u)[bidx]], axis=-1)

    def quadrature(self, values: np.ndarray) -> float:
        """Integral over the domain of a nodal integrand, by numpy's pairwise
        sum: a BLAS dot product's blocking, and so its bits, follow the BLAS
        thread count."""
        return float(np.sum(self.quad_weights * values))

    def boundary_integral(self, ring_values: np.ndarray) -> float:
        """Integral over the boundary of values on the rho = 1 ring."""
        return float(self.boundary_weights @ ring_values)

    def mean_zero(self, u: np.ndarray) -> np.ndarray:
        """Project onto the discrete mean-zero space."""
        return u - self.quadrature(u) / self.quad_weights.sum()

    def _symmetry(self, ray_maps) -> "Symmetry":
        """The Symmetry of the node maps that send ray j to ray_maps[k][j]
        (mod n_phi) on every ring and the pole to itself; with the identity
        they must form a group, so a node's orbit is it and its images."""
        i, j = self.lattice_indices()
        node = np.arange(self.n_nodes)
        image = np.where(i == 0, 0, node - j + np.mod(np.asarray(ray_maps), self.n_phi)[:, j])
        rep = np.minimum(node, image.min(axis=0))   # the orbit's smallest ray
        kept = rep == node
        rank = np.cumsum(kept) - 1
        return Symmetry(image, np.append(np.flatnonzero(kept), self.n_nodes),
                        np.append(rank[rep], rank[-1] + 1))

    @cached_property
    def half_turn(self) -> "Symmetry":
        """The half turn about the peak, node (i, j) to (i, j + n_phi/2),
        built on first use; its representatives are the pole and the rays
        j < n_phi/2."""
        j = np.arange(self.n_phi)
        return self._symmetry([j + self.n_phi // 2])

    @cached_property
    def quarter(self) -> "Symmetry | None":
        """The half turn and the mirrors (x, y) -> (-x, y), (x, -y) about the
        peak, rays j to n_phi/2 - j and -j, built on first use; its
        representatives are the pole and the rays j <= n_phi // 4.  None
        unless L is diagonal: only then are the nodes and the operators
        exact mirror images."""
        if not diagonal(self.disk_map):
            return None
        j, h = np.arange(self.n_phi), self.n_phi // 2
        return self._symmetry([j + h, h - j, -j])

    @cached_property
    def bordered_pattern(self) -> BorderedPattern:
        """The bordered system matrix's pattern, built on first use (see
        BorderedPattern)."""
        n = self.n_nodes
        n_in = n - self.n_phi   # the boundary ring is the last n_phi unknowns
        ptr = self.ops['dx'].indptr[:n_in + 1]
        k = ptr[-1]
        b_ptr = self.ops['bx'].indptr[n_in:]
        rows = np.repeat(np.arange(n_in), np.diff(ptr))
        indices = np.concatenate([np.insert(self.ops['dx'].indices[:k], ptr[1:], n),
                                  self.ops['bx'].indices, np.arange(n)])
        indptr = np.concatenate([ptr + np.arange(n_in + 1), k + n_in + b_ptr[1:],
                                 [len(indices)]])
        recovery = np.ones(k + n_in, dtype=bool)
        recovery[indptr[1:n_in + 1] - 1] = False
        return BorderedPattern(indices.astype(np.int32), indptr.astype(np.int32), rows,
                               np.repeat(np.arange(self.n_phi), np.diff(b_ptr)), recovery)


def _cartesian_weights(w, ell, back, center, mirror=None):
    """Coefficient weights w (G, 5, m) of (r, t, r^2/2, rt, t^2/2) in ray 0's
    frame scaled by ell (G, 2) -> Cartesian weights (5, R, G, m) for (ux, uy,
    uxx, uxy, uyy) in the frame of every ray: the scaling undone (inverse
    scales ir, it), one GEMM with back (5 R, 5), every ray's chain @ rotation
    in rows (derivative, ray).  _fold_defect rounds the rays j < R/2, or
    with the mirror signs (MIRROR, else None) j <= R // 4 (R = 1: the one),
    and _exact_images writes the rest from them."""
    ir, it = 1.0 / ell[:, :1], 1.0 / ell[:, 1:]
    unscaled = np.stack([ir, it, ir * ir, ir * it, it * it], axis=1) * w
    out = (back @ np.swapaxes(unscaled, 0, 1).reshape(5, -1)).reshape(5, -1, *w.shape[::2])
    h = (out.shape[1] + 1) // 2
    k = h if mirror is None else out.shape[1] // 4 + 1
    out[:, :k] = _fold_defect(out[:, :k], center)
    return out if h == 1 else _exact_images(out, HALF_TURN, mirror)


def _lsq_weights(offsets, extra):
    """Batched least-squares fit weights.

    offsets: (G, m, 2) unit-disk offsets of each stencil from its node.
             Every fit runs on ray 0 of its ring, whose radial/tangential
             frame is the unit disk's own axes, so r and t are the offsets'
             x and y, scaled per direction to the stencil's extent: near the
             pole the stencils are extremely anisotropic (tangential arcs
             shrink like rho), and a single isotropic scale would leave the
             fits ill conditioned.
    extra:   exponents (a, b) of the monomials r^a t^b that complete the
             quadratic basis.  Stencils on a polar lattice are not centrally
             symmetric (one-sidedness at the pole and boundary, arc spacing
             growing with radius), and unmodeled cubic Taylor terms leak
             into the fitted Hessian at first order; every extra monomial
             must remain resolvable on the stencil (enough distinct radial
             and angular stations), otherwise the fit turns near-singular.
    Returns the frame weights (G, 5, m) of (r, t, r^2/2, rt, t^2/2) and
    the scales ell (G, 2), which _cartesian_weights takes to the weights
    for (ux, uy, uxx, uxy, uyy).

    The design matrix A = QR is factored by a batched QR; the least-squares
    coefficients are R^-1 Q^T u, and as R is upper triangular rows 1.. of
    R^-1 Q^T need only the trailing block of R.  A square A interpolates,
    and a duplicated stencil entry acts as a doubled least-squares weight.
    """
    ell = np.maximum(np.abs(offsets).max(axis=1), 1e-300)
    rr, tt = np.moveaxis(offsets / ell[:, None], 2, 0)
    cols = [np.ones_like(rr), rr, tt, 0.5 * rr ** 2, rr * tt, 0.5 * tt ** 2]
    cols += [rr ** a * tt ** b for a, b in extra]
    q, r = np.linalg.qr(np.stack(cols, axis=2))  # (G, m, n), (G, n, n)
    return np.linalg.solve(r[:, 1:, 1:], np.swapaxes(q[:, :, 1:], 1, 2))[:, :5], ell


def _fold_defect(w, center):
    """Weights w (..., m) rounded per row to multiples of the smallest power
    of two q with 2^53 q above the row's positive and negative sums (with a
    margin), then the row-sum defect folded into the center weight.  Every
    partial sum of a row is then exact, so constant fields cancel exactly in
    any summation order, keeping the roundoff of the large second-derivative
    weights tied to the local variation of u instead of its absolute values.
    """
    # rows of one 2-D array: a stacked (..., m) @ (m,) product runs slice
    # by slice, the 2-D one as one matrix-vector product
    rows = w.reshape(-1, w.shape[-1])
    ones = np.ones(w.shape[-1])
    half = 0.5 * (np.abs(rows) @ ones + np.abs(rows @ ones))[:, None]
    q = np.ldexp(1.0, np.frexp(half * (1.0 + 2.0 ** -40))[1] - 53)
    rows *= 1.0 / q  # exact, q being a power of two; in place on a temporary
    np.rint(rows, out=rows)
    rows *= q
    rows[:, center] -= rows @ ones
    return rows.reshape(w.shape)


def build_grid(domain: ConvexDomain, n_rho: int, n_phi: int) -> MappedGrid:
    """Construct the mapped grid with precomputed derivative operators and
    quadrature weights.  The polar frame is evaluated on the first quarter
    of the rays and taken to the others by the mirrors and the half turn
    (_ray_images), which flip one component of e and the other of e_t, so
    every ray's frame is an exact image of a first-quarter one.  A diagonal
    L keeps the mirrors, and then the operators' rows are exact mirror
    images too (_exact_images, _stencils)."""
    if n_rho < 8:
        raise ValueError(f"n_rho must be >= 8, got {n_rho}")
    if n_phi < 16 or n_phi % 2:
        raise ValueError(f"n_phi must be even and >= 16, got {n_phi}")
    disk_map = domain.disk_map()

    rho = np.linspace(0.0, 1.0, n_rho + 1)
    phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    q = n_phi // 4
    e, e_t = polar_frame(phi[:q + 1])
    if n_phi % 4 == 0:  # cos(pi/2) is 6e-17
        e[q], e_t[q] = (0.0, 1.0), (-1.0, 0.0)
    source, flip = _ray_images(n_phi)
    e, e_t = flip * e[source], (flip[:, :1] * flip[:, 1:]) * flip * e_t[source]

    # unit-disk node positions relative to the peak, which the fits use
    n_nodes = 1 + n_rho * n_phi
    xi = np.zeros((n_nodes, 2))
    xi[1:] = (rho[1:, None, None] * e).reshape(-1, 2)
    nodes = domain.peak + xi @ disk_map.T

    # quadrature: trapezoid in rho of the polar integrand rho, periodic
    # trapezoid in phi, times the map's Jacobian det L; the pole weight is
    # zero since the integrand vanishes there
    drho = 1.0 / n_rho
    dphi = 2 * np.pi / n_phi
    frac = np.append(np.ones(n_rho - 1), 0.5)
    w = np.append(0.0, np.repeat(np.linalg.det(disk_map) * frac * rho[1:] * drho * dphi, n_phi))
    boundary_weights = np.linalg.norm(e_t @ disk_map.T, axis=1) * dphi

    # the chain rule Du = L^-T D_xi u, D^2 u = L^-T D^2_xi u L^-1, with the
    # symmetric L's inverse (a, b; b, d)
    (a, b), (_, d) = np.linalg.inv(disk_map)
    chain = np.zeros((5, 5))
    chain[:2, :2] = (a, b), (b, d)
    chain[2:, 2:] = ((a * a, 2 * a * b, b * b), (a * b, a * d + b * b, b * d),
                     (b * b, 2 * b * d, d * d))
    mirror = diagonal(disk_map)
    ops = _build_derivative_ops(xi, e, chain, n_rho, n_phi, mirror)
    ops.update(_build_boundary_gradient_ops(disk_map, e, e_t, n_rho, n_phi, mirror))

    return MappedGrid(domain=domain, n_rho=n_rho, n_phi=n_phi, rho=rho, phi=phi,
                      disk_map=disk_map, nodes=nodes, quad_weights=w,
                      boundary_weights=boundary_weights, ops=ops)


def _on_one_pattern(names, groups, n):
    """CSR operators on one read-only int32 indptr/indices pair (compacting or
    sorting one operator in place would corrupt the others), one coefficient
    set per name, from groups (cols (R, m), weights (len(names), R, G, m)) of
    G rings of R rays in node order: row (g, r) holds the unknowns cols[r] +
    g R in stencil order and the weights [:, r, g].  A group is one strided
    write into a data block, whose rows shallow copies of one matrix take
    (scipy's constructor copies a row)."""
    lengths = np.concatenate([np.full(w[0, ..., 0].size, w.shape[-1]) for _, w in groups])
    indptr = np.append(np.zeros(n + 1 - len(lengths), np.int32), np.cumsum(lengths, dtype=np.int32))
    bounds = np.cumsum([0] + [w[0].size for _, w in groups])
    data = np.empty((len(names), indptr[-1]))
    indices = np.empty(indptr[-1], dtype=np.int32)
    for (cols, w), start, stop in zip(groups, bounds, bounds[1:]):
        w = np.swapaxes(w, 1, 2)   # (names, G, R, m): rows in node order
        np.add(w, 0.0, out=data[:, start:stop].reshape(w.shape))   # -0.0 weights read 0.0
        rings = len(cols) * np.arange(w.shape[1], dtype=np.int32)[:, None, None]
        np.add(cols.astype(np.int32), rings, out=indices[start:stop].reshape(w.shape[1:]))
    indices.flags.writeable = indptr.flags.writeable = False
    first = sp.csr_matrix((data[0], indices, indptr), shape=(n, n))
    ops = {name: copy.copy(first) for name in names}
    for op, v in zip(ops.values(), data):
        op.data = v
    return ops


def _build_boundary_gradient_ops(disk_map, e, e_t, n_rho, n_phi, mirror):
    """Cartesian gradient operators for the boundary ring only, from mapped
    per-column differencing: a one-sided 4-point radial derivative along
    each grid ray and a 4th-order centered tangential derivative along the
    ring, pushed through the map Jacobian (e, e_t the rays' polar frame).

    The gradient-image condition rows use these instead of the local
    least-squares fits: a least-squares patch averages out perturbations
    alternating inside it, leaving boundary-concentrated parasitic modes
    nearly invisible to the boundary equations, whereas interpolatory
    per-column differences respond to them at full strength.
    """
    drho = 1.0 / n_rho
    dphi = 2 * np.pi / n_phi

    # grad = J^{-T} (d/drho, d/dphi) with J = [x_rho | x_phi] = L [e | e_t]
    # at rho = 1; [e | e_t] is a rotation, so J^{-T} = L^{-T} [e | e_t] (on
    # the rays j < n_phi/2: the others' rows are their exact images)
    jinv_t = np.linalg.inv(disk_map).T @ np.stack([e, e_t], axis=2)[:n_phi // 2]

    # radial: f'(rho=1) ~ (-1/3 f_{n-3} + 3/2 f_{n-2} - 3 f_{n-1} + 11/6 f_n)/drho
    rad_w = np.array([-1.0 / 3.0, 1.5, -3.0, 11.0 / 6.0]) / drho
    # tangential: 4th-order centered along the periodic ring, over its factor
    # (8 sin h - sin 2h) / (6 h) on cos' and sin', h = dphi: exact on linears
    tan_w = np.array([1.0, -8.0, 8.0, -1.0]) / (2.0 * (8.0 * np.sin(dphi) - np.sin(2.0 * dphi)))

    # column 3 is the node itself
    cols = np.concatenate([_stencils([n_rho], range(-3, 1), [0], n_phi),
                           _stencils([n_rho], [0], [-2, -1, 1, 2], n_phi, mirror)], axis=1)
    # (2, n_phi, 8): rows x, y; the rho weights take J^{-T}'s first column
    w = np.empty((2, n_phi, 8))
    w[:, :n_phi // 2] = np.swapaxes(_fold_defect(np.concatenate(
        [jinv_t[:, :, :1] * rad_w, jinv_t[:, :, 1:] * tan_w], axis=2), center=3), 0, 1)
    w = _exact_images(w, -1.0, MIRROR[:2, 0] if mirror else None)
    return _on_one_pattern(['bx', 'by'], [(cols, w[:, :, None])], 1 + n_rho * n_phi)


def _build_derivative_ops(xi, e, chain, n_rho, n_phi, mirror):
    """dx, dy, dxx, dxy, dyy from fits on ray 0 of each ring in the
    unit-disk node positions xi relative to the peak, taken through the
    rays' radial frames e and chain to Cartesian derivatives; with mirror,
    rows are exact mirror images as well as half-turn ones."""
    # every ray's chain @ rotation to its frame (block diagonal: gradient
    # 2x2, Hessian 3x3), rows (derivative, ray), shared by the groups
    c, s = e[:, 0], e[:, 1]
    z = np.zeros(n_phi)
    rotation = np.stack([
        c, -s, z, z, z,
        s, c, z, z, z,
        z, z, c * c, -2.0 * c * s, s * s,
        z, z, c * s, c * c - s * s, -c * s,
        z, z, s * s, 2.0 * c * s, c * c,
    ], axis=1).reshape(-1, 5, 5)
    back = np.swapaxes(chain @ rotation, 0, 1).reshape(-1, 5)

    # pole: one fit over the first two rings plus the pole itself, nodes 0
    # .. 2 n_phi; the rings are centrally symmetric, so plain quadratic
    # suffices; its second half of either ring: the first half's images
    pole = np.arange(1 + 2 * n_phi)[None, :]
    w = _cartesian_weights(*_lsq_weights(xi[pole], []), back[::n_phi], 0)
    ring_half = pole[:, 1:].reshape(2, 2, -1)   # (ring, half, ray)
    w[..., ring_half[:, 1]] = HALF_TURN[..., None] * w[..., ring_half[:, 0]]
    w[..., 0] -= w.sum(axis=-1)   # exact, as every partial sum of a folded row
    groups = [(pole, w)]

    def add_rings(rings, dis, djs, extra, keep=0):
        # ray 0's blocks (di, dj) of every ring, fitted by the quadratics and
        # the monomials extra (see _lsq_weights); the pole is only in ring 1's
        cols = _stencils(rings[:1], dis, djs, n_phi, mirror)
        mid = list(dis).index(0) * len(djs) + len(djs) // 2  # the node itself
        ray0 = cols[:1] + n_phi * (np.asarray(rings)[:, None] - rings[0])
        w = _cartesian_weights(*_lsq_weights(xi[ray0] - xi[ray0[:, mid, None]], extra), back, mid,
                               MIRROR if mirror else None)
        if keep:   # the first keep + 1 entries, ring 1's pole, summed into one
            w[..., keep] = sum(np.moveaxis(w[..., :keep + 1], -1, 0))
        groups.append((cols[:, keep:], w[..., keep:]))

    # first ring: 5 radial stations (station 0 collapses onto the pole,
    # whose duplicated entries act as least-squares weights and are summed
    # into one pattern entry) x 5 angular columns, with the full cubic basis
    cubics = [(3, 0), (2, 1), (1, 2), (0, 3)]
    add_rings([1], range(-1, 4), range(-2, 3), cubics, keep=4)

    # interior rings, all in one group: centered 3x3 blocks with the
    # biquadratic tensor basis, 9 functions through 9 nodes (second-order
    # Hessians; the basis covers the cross terms induced by the fanned arc
    # spacing, and interpolation leaves no residual space for stencil
    # patterns to hide in)
    add_rings(np.arange(2, n_rho), range(-1, 2), range(-1, 2), [(2, 1), (1, 2), (2, 2)])

    # boundary ring (recovery for export/diagnostics; the gradient-image
    # condition rows use the mapped per-column operators instead): one-sided
    # 4x5 blocks with the full cubic basis
    add_rings([n_rho], range(-3, 1), range(-2, 3), cubics)

    return _on_one_pattern(['dx', 'dy', 'dxx', 'dxy', 'dyy'], groups, 1 + n_rho * n_phi)


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

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name == "u":   # a new u has derivatives of its own
            self.__dict__.pop("_derivatives", None)

    def derivatives(self):
        """(Du, D2u) of u (grid.derivative_arrays), computed on the first
        call and shared, read-only, by later calls until u is rebound; an
        in-place edit of u is not seen.  Transient fields, such as Newton
        iterates and seeds, are differentiated by grid.derivative_arrays,
        so they keep no arrays alive."""
        if "_derivatives" not in self.__dict__:
            arrays = self.grid.derivative_arrays(self.u)
            for a in arrays:
                a.flags.writeable = False
            self._derivatives = arrays
        return self._derivatives


def _bspline_pieces(t):
    """Power-basis coefficients out (M, 4, 4) of the cubic B-splines on knots t over
    their M knot intervals l = 3 .. len(t) - 5, by Cox-de Boor on polynomials (de Boor
    1978, ch. IX): B_{l-3+a}(t_l + sigma (t_l+1 - t_l)) = sum_p out[m, a, p] sigma^p."""
    l = np.arange(3, len(t) - 4)
    out = np.zeros((len(l), 1, 4)) + [1.0, 0.0, 0.0, 0.0]
    for d in (1, 2, 3):
        # B_{i,d} = v_i B_{i,d-1} + (1 - v_{i+1}) B_{i+1,d-1}, v_j = (x - t_j) / (t_j+d - t_j);
        # p[..., 1:] holds B_{j,d-1}, j = l-d .. l+1, and p[..., :-1] sigma times it: it is
        # zero at both ends and where t_j+d = t_j, so any finite v_j serves there
        p = np.zeros((len(l), d + 2, 5))
        p[:, 1:-1, 1:] = out
        j = l[:, None] - d + np.arange(d + 2)
        den = np.where(t[j + d] > t[j], t[j + d] - t[j], 1.0)[..., None]
        vp = ((t[l, None] - t[j])[..., None] * p[..., 1:]
              + (t[l + 1] - t[l])[:, None, None] * p[..., :-1]) / den
        out = vp[:, :-1] + p[:, 1:, 1:] - vp[:, 1:]
    return out


def _locate(breaks, x):
    """Interval m of each x among the increasing breaks (the end ones continued past
    the ends) and the powers (1, s, s^2, s^3) of its local s in [0, 1], and their d/dx, d^2/dx^2."""
    m = np.searchsorted(breaks[1:-1], x, side="right")
    w = breaks[m + 1] - breaks[m]
    s = (x - breaks[m]) / w
    zero = np.zeros_like(s)
    return m, (np.stack([np.ones_like(s), s, s * s, s * s * s], axis=-1),
               np.stack([zero, 1.0 / w, 2.0 * s / w, 3.0 * s * s / w], axis=-1),
               np.stack([zero, zero, 2.0 / w ** 2, 6.0 * s / w ** 2], axis=-1))


class LatticeSpline(NamedTuple):
    """lattice_spline in piecewise-polynomial form: row m n_phi + j of
    pieces (rows, ..., 16) holds the coefficients of tau^q sigma^p (at
    4 q + p) on rho interval m and phi interval j of breaks, in their local
    coordinates sigma and tau in [0, 1], for each value component."""

    breaks: tuple   # (rho, phi) interval ends
    pieces: np.ndarray
    BLOCK = 4096   # points per gather of partials

    def __call__(self, points):
        """Value at (..., 2) points."""
        return self.partials(points, [(0, 0)])[0]

    def partials(self, points, nus):
        """Partials nus, each (d_rho, d_phi) of orders up to 2, at (..., 2) points, gathered
        BLOCK points at a time: the gather holds 16 pieces a point and value component."""
        flat = np.reshape(points, (-1, 2))
        out = [np.empty((len(flat),) + self.pieces.shape[1:-1]) for _ in nus]
        for k in range(0, len(flat), self.BLOCK):
            (m, s), (j, t) = map(_locate, self.breaks, flat[k:k + self.BLOCK].T)
            coef = self.pieces[m * (len(self.breaks[1]) - 1) + j]
            for o, (a, b) in zip(out, nus):
                w = np.einsum("nq,np->nqp", t[b], s[a]).reshape(-1, 16)
                o[k:k + self.BLOCK] = np.einsum("n...r,nr->n...", coef, w)
        return [o.reshape(points.shape[:-1] + o.shape[1:]) for o in out]


def lattice_spline(grid: MappedGrid, values) -> LatticeSpline:
    """Tensor cubic spline through nodal values on the (rho, phi) lattice:
    periodic in phi, not-a-knot in rho.

    values: (n_rho + 1, n_phi, ...) as grid.to_param_array lays them out;
    trailing axes make a vector-valued spline.  On the uniform periodic phi
    lattice the cubic B-splines take the values 1/6, 4/6, 1/6 at the nodes,
    so the phi coefficients solve one circulant system, and the rho ones one
    collocation system on the not-a-knot knots (0 and 1 four times each,
    rho_2 .. rho_{n_rho-2} between).  Evaluate at (..., 2) points (rho, phi)
    with phi in [0, 2 pi]; past rho = 1 the last piece continues.
    """
    n_r, n = len(grid.rho), grid.n_phi
    col = np.r_[4.0, 1.0, np.zeros(n - 3), 1.0] / 6
    d = solve_circulant(col, np.reshape(values, (n_r, n, -1)), baxis=1, outaxis=1)
    # B-spline i is centred on phi_{i-1}: wrap one coefficient before, two after
    c_phi = np.concatenate([d[:, -1:], d, d[:, :2]], axis=1)
    knots = np.concatenate([np.zeros(4), grid.rho[2:-2], np.ones(4)])
    basis, breaks = _bspline_pieces(knots), knots[3:-3]
    m, (s, *_) = _locate(breaks, grid.rho)
    colloc = np.zeros((n_r, n_r))
    np.put_along_axis(colloc, m[:, None] + np.arange(4), np.einsum("iap,ip->ia", basis[m], s), 1)
    c = np.linalg.solve(colloc, c_phi.reshape(n_r, -1)).reshape(c_phi.shape)
    # cell (m, j) takes coefficients m .. m+3 in rho, j .. j+3 in phi (uniform: knots 0 .. 7)
    by_phi = sliding_window_view(c, 4, axis=1).reshape(-1, 4) @ _bspline_pieces(np.arange(8.0))[0]
    pieces = sliding_window_view(by_phi.reshape(n_r, -1), 4, axis=0) @ basis
    return LatticeSpline((breaks, 2 * np.pi / n * np.arange(n + 1)),
                         pieces.reshape((len(basis) * n,) + np.shape(values)[2:] + (16,)))


def transfer_field(field: SolutionField, new_grid: MappedGrid) -> SolutionField:
    """Carry a field onto a grid over a deformed domain through the shared
    (rho, phi) parameter lattice (lattice_spline; index copy when the
    resolutions match), then re-project onto the mean-zero space."""
    g0, g1 = field.grid, new_grid
    if (g0.n_rho, g0.n_phi) == (g1.n_rho, g1.n_phi):
        u_new = field.u.copy()
    else:
        i, j = g1.lattice_indices()   # (rho, phi) of every new node, the pole (0, 0)
        spl = lattice_spline(g0, g0.to_param_array(field.u))
        u_new = spl(np.stack([g1.rho[i], g1.phi[j]], axis=-1))
    return SolutionField(g1, g1.mean_zero(u_new), field.c, field.model, field.dual)
