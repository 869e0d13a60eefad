"""Shared test utilities: random admissible states, finite-difference
oracles for the pointwise operator derivatives, and a sparse-matrix dump."""

import numpy as np
import scipy.sparse as sp

from cmcsolve import ModelKind
from cmcsolve.kernel import mean_curvature


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
