"""Pointwise operator of graph hypersurfaces from (Du, D^2 u).

Two graph models share one set of formulas through a sign sigma:
Minkowski (sigma = -1, spacelike graphs, |Du| < 1) and Euclidean
(sigma = +1), with the speed v = sqrt(1 + sigma |Du|^2).  The mean curvature
is the trace of the shape matrix (1/v) b^ik u_kl b^lj, b^ij the positive
square root of the inverse metric g^ij; it equals the divergence form

      H = div(Du / v) = s_kl u_kl,  s_kl = (1/v)(delta_kl - sigma u_k u_l / v^2).

Since the curvature function is the trace, H is linear in D^2 u and the
operator derivatives are dH/du_kl = s_kl and dH/du_i given in closed form
below, written out in 2x2 components from one coefficient pass per call.  The
coefficient matrix s as a (..., 2, 2) array, the metric, the shape matrix, the
principal curvatures and the shape-matrix route to dH/du_i are test oracles
(tests/helpers.py).  Everything is vectorized over leading axes: du has shape
(..., 2), d2u has shape (..., 2, 2); _symmetric, the package's one builder
of symmetric d2u batches, stores each [..., i, j] contiguously.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import SpacelikeViolation

# spacelike margin of the Minkowski model: every gradient the kernel takes
# must satisfy |Du| < 1 - EPS_SPACE
EPS_SPACE = 1e-6


class ModelKind(Enum):
    MINKOWSKI = "minkowski"
    EUCLIDEAN = "euclidean"

    @property
    def sigma(self) -> float:
        return -1.0 if self is ModelKind.MINKOWSKI else 1.0


def _coefficients(du, model: ModelKind):
    """(p1, p2, v, s11, s12, s22) at each state.  In the Minkowski model a
    |du| >= 1 - EPS_SPACE raises SpacelikeViolation at the worst state's flat
    index (None for a single state)."""
    du = np.asarray(du, dtype=float)
    p1, p2 = du[..., 0], du[..., 1]
    n2 = p1 * p1 + p2 * p2
    if model is ModelKind.MINKOWSKI:
        bad = n2 >= (1.0 - EPS_SPACE) ** 2
        if np.any(bad):
            flat = np.argmax(np.where(bad, n2, -np.inf).ravel())
            raise SpacelikeViolation(float(np.sqrt(n2.ravel()[flat])),
                                     node=int(flat) if n2.ndim else None)
    v2 = 1.0 + model.sigma * n2
    v, q = np.sqrt(v2), model.sigma / v2
    return p1, p2, v, (1.0 - q * p1 * p1) / v, -q * p1 * p2 / v, (1.0 - q * p2 * p2) / v


def _symmetric(a11, a12, a22):
    """Symmetric (..., 2, 2) matrices stored entry by entry: [..., i, j] is contiguous."""
    out = np.empty((2, 2) + np.shape(a11))
    out[0, 0], out[0, 1], out[1, 0], out[1, 1] = a11, a12, a12, a22
    return np.moveaxis(out, (0, 1), (-2, -1))


def mean_curvature(du, d2u, model: ModelKind):
    """H = div(du / v) evaluated through the divergence form s_kl u_kl."""
    d2u = np.asarray(d2u, dtype=float)
    _, _, _, s11, s12, s22 = _coefficients(du, model)
    return s11 * d2u[..., 0, 0] + s12 * (d2u[..., 0, 1] + d2u[..., 1, 0]) + s22 * d2u[..., 1, 1]


def operator_derivatives(du, d2u, model: ModelKind):
    """(G_ij, G_i): derivatives of H(du, d2u) with respect to the Hessian
    entries and the gradient entries.

    G_ij = s_ij (H is linear in the Hessian for the trace curvature), and

      G_i = -sigma [tr(r) p + 2 r p] / v^3 + 3 (p^T r p) p / v^5,

    obtained by differentiating H = tr(r)/v - sigma p^T r p / v^3 in p.
    G_ij is symmetric positive definite for admissible states (ellipticity).
    """
    d2u = np.asarray(d2u, dtype=float)
    p1, p2, v, s11, s12, s22 = _coefficients(du, model)
    r11, r12, r21, r22 = d2u[..., 0, 0], d2u[..., 0, 1], d2u[..., 1, 0], d2u[..., 1, 1]
    rp1, rp2 = r11 * p1 + r12 * p2, r21 * p1 + r22 * p2             # r p
    v3 = v * v * v
    a = -model.sigma / v3                            # G_i = b p_i + 2 a (r p)_i
    b = a * (r11 + r22) + 3.0 * (p1 * rp1 + p2 * rp2) / (v3 * v * v)
    g_i = np.stack([b * p1 + 2.0 * a * rp1, b * p2 + 2.0 * a * rp2])
    return _symmetric(s11, s12, s22), np.moveaxis(g_i, 0, -1)
