"""Pointwise operator of graph hypersurfaces from (Du, D^2 u).

Two graph models share one set of formulas through a sign sigma:
Minkowski (sigma = -1, spacelike graphs, |Du| < 1) and Euclidean
(sigma = +1), with the speed v = sqrt(1 + sigma |Du|^2).  The mean curvature
is the trace of the shape matrix (1/v) b^ik u_kl b^lj, b^ij the positive
square root of the inverse metric g^ij; it equals the divergence form

      H = div(Du / v) = s_kl u_kl,  s_kl = (1/v)(delta_kl - sigma u_k u_l / v^2).

Since the curvature function is the trace, H is linear in D^2 u and the
operator derivatives are dH/du_kl = s_kl and dH/du_i given in closed form
below.  This module holds only what the solver evaluates; the metric, the
shape matrix, the principal curvatures and the shape-matrix route to dH/du_i
are test oracles (tests/helpers.py).  Everything is vectorized over leading
axes: du has shape (..., 2), d2u has shape (..., 2, 2).
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


def _outer(du):
    return du[..., :, None] * du[..., None, :]


def coefficient_matrix(du, model: ModelKind):
    """s_kl = (1/v)(delta_kl - sigma u_k u_l / v^2), the divergence-form
    coefficients: H = s_kl u_kl.  Equals dH/du_kl and (1/v) g^kl."""
    du = np.asarray(du, dtype=float)
    v = speed_factor(du, model)
    eye = np.broadcast_to(np.eye(2), du.shape[:-1] + (2, 2))
    v_ = v[..., None, None]
    return (eye - model.sigma * _outer(du) / v_ ** 2) / v_


def mean_curvature(du, d2u, model: ModelKind):
    """H = div(du / v) evaluated through the divergence form s_kl u_kl."""
    d2u = np.asarray(d2u, dtype=float)
    s = coefficient_matrix(du, model)
    return np.einsum('...kl,...kl->...', s, d2u)


def operator_derivatives(du, d2u, model: ModelKind):
    """(G_ij, G_i): derivatives of H(du, d2u) with respect to the Hessian
    entries and the gradient entries.

    G_ij = s_ij (H is linear in the Hessian for the trace curvature), and

      G_i = -sigma [tr(r) p + 2 r p] / v^3 + 3 (p^T r p) p / v^5,

    obtained by differentiating H = tr(r)/v - sigma p^T r p / v^3 in p.
    G_ij is symmetric positive definite for admissible states (ellipticity).
    """
    du = np.asarray(du, dtype=float)
    d2u = np.asarray(d2u, dtype=float)
    v = speed_factor(du, model)
    g_ij = coefficient_matrix(du, model)
    tr = np.trace(d2u, axis1=-2, axis2=-1)
    rp = np.einsum('...ij,...j->...i', d2u, du)
    prp = np.einsum('...i,...i->...', du, rp)
    g_i = (-model.sigma * (tr[..., None] * du + 2.0 * rp) / v[..., None] ** 3
           + 3.0 * prp[..., None] * du / v[..., None] ** 5)
    return g_ij, g_i
