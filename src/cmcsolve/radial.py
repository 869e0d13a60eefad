"""Exact radially symmetric solutions on ball pairs and initial-guess
construction.

For concentric balls B(0, R0) -> B(0, t0) the flux variable
p(r) = u'(r) / sqrt(1 -+ u'(r)^2) satisfies p' + (n-1) p / r = c with
p(0) = 0, whose only smooth solution is linear: p = (c/n) r.  Matching
u'(R0) = t0 fixes the constant:

  Minkowski:  c = n t0 / (sqrt(1 - t0^2) R0),
              u(r) - u(0) = (sqrt(n^2 + c^2 r^2) - n) / c,
              u'(r) = c r / sqrt(n^2 + c^2 r^2)
  Euclidean:  c = n t0 / (sqrt(1 + t0^2) R0),
              u(r) - u(0) = (n - sqrt(n^2 - c^2 r^2)) / c,
              u'(r) = c r / sqrt(n^2 - c^2 r^2)

The Euclidean branch follows from the identical separation with the flipped
sign under the square root; the tests validate it against an ODE integrator
and the curvature kernel rather than quoting it from anywhere.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .assembly import OperatorKind, admissibility_violation, operator_value
from .domains import Ball
from .errors import SeedFailure
from .grid import SolutionField
from .kernel import ModelKind

__all__ = ["RadialSolution", "radial_constant", "radial_profile", "seed_field"]


def radial_constant(n: int, r0: float, t0: float, model: ModelKind) -> float:
    """Closed-form constant of the radial solution on B(0, r0) -> B(0, t0).

    Raises ValueError unless n >= 2, r0 and t0 are finite and positive
    (t0 < 1 in the Minkowski model), and unless n, r0, t0 and c all have
    squares that are finite normal floats: radial_profile squares each of
    them, and past that range its table would be NaN or wrong.
    """
    big = sys.float_info.max   # a Python float: compared exactly with any int n
    if not (2 <= n <= big and 0 < r0 <= big and 0 < t0 <= big):   # false for a NaN too
        raise ValueError(f"need finite n >= 2, r0 > 0, t0 > 0; got n={n}, r0={r0}, t0={t0}")
    if model is ModelKind.MINKOWSKI and t0 >= 1:
        raise ValueError(f"Minkowski gradient image radius must satisfy t0 < 1, got {t0}")
    sign = -1.0 if model is ModelKind.MINKOWSKI else 1.0
    with np.errstate(over="ignore", under="ignore"):
        n_, r0_, t0_ = np.float64(n), np.float64(r0), np.float64(t0)
        c = n_ * t0_ / (np.sqrt(1.0 + sign * t0_ ** 2) * r0_)
        squares = np.array([n_, r0_, t0_, c]) ** 2
    if not np.all((squares >= sys.float_info.min) & (squares <= big)):
        raise ValueError(f"radial solution out of floating-point range: n={n}, r0={r0}, "
                         f"t0={t0} give c={float(c)!r}")
    return float(c)


@dataclass
class RadialSolution:
    n: int
    r0: float
    t0: float
    model: ModelKind
    c: float = field(init=False)

    def __post_init__(self):
        self.c = radial_constant(self.n, self.r0, self.t0, self.model)


def radial_profile(sol: RadialSolution, r):
    """(u(r) - u(0), u'(r), u''(r)) of the closed-form radial solution."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > sol.r0 * (1 + 1e-12)):
        raise ValueError(f"r must lie in [0, {sol.r0}]")
    # the check admits roundoff past r0, where the Euclidean root turns
    # negative once t0 is large
    r = np.minimum(r, sol.r0)
    n, c = sol.n, sol.c
    if sol.model is ModelKind.MINKOWSKI:
        root = np.sqrt(n ** 2 + c ** 2 * r ** 2)
        du = c * r / root
        u = (root - n) / c
    else:
        # n^2 - c^2 r^2 = n^2 (r0^2 + t0^2 (r0^2 - r^2)) / ((1 + t0^2) r0^2),
        # which does not cancel at r = r0 when t0 is large
        r0, t0 = sol.r0, sol.t0
        root = n * np.sqrt(r0 ** 2 + t0 ** 2 * (r0 - r) * (r0 + r)) / (
            np.sqrt(1.0 + t0 ** 2) * r0)
        du = c * r / root
        u = (n - root) / c
    d2u = c * n ** 2 / root ** 3
    return u, du, d2u


def transport_hessian(omega, omega_tilde) -> np.ndarray:
    """The SPD M with M S M = T, for T = A/2h_max of omega and S of
    omega_tilde, so that y0 + M(x - x0) maps omega onto omega_tilde: the
    linear optimal-transport map of the two quadrics.  M is the geometric
    mean S^-1 # T, closed form on the unit-determinant multiples of 2x2
    matrices (Bhatia 2007, 4.1.12).  Swapping the domains gives M^-1."""
    t, s = (dom.quadric()[1] / (2.0 * dom.h_max) for dom in (omega, omega_tilde))
    # sqrt(det) through the eigenvalues: the determinant itself can overflow
    k_t, k_s = (np.prod(np.sqrt(np.linalg.eigvalsh(q))) for q in (t, s))
    s = s / k_s
    g = t / k_t + np.array([[s[1, 1], -s[0, 1]], [-s[0, 1], s[0, 0]]])   # adj s = s^-1
    return np.sqrt(k_t) / np.sqrt(k_s) * g / np.sqrt(np.linalg.det(g))


def seed_field(spec, strategy: str = "auto") -> SolutionField:
    """Admissible initial field for a problem instance.

    Ball pair under the graph operator: the exact radial profile about
    Omega's center, shifted in gradient space by Omega_tilde's center
    (adding y_c . x translates the gradient image without touching the
    Hessian).  Otherwise the transport seed (1/2) d^T M d + y0 . d,
    d = x - x0, M = transport_hessian and x0, y0 the peaks, whose gradient
    maps Omega onto Omega_tilde, with c the quadrature mean of the operator.
    The field is mean-zero projected and held to the admissibility guards,
    before any operator evaluation; a violation raises SeedFailure.

    strategy: "auto" picks the radial branch on primal ball pairs;
    "quadratic" forces the transport seed.
    """
    if strategy not in ("auto", "quadratic"):
        raise ValueError(f"unknown seed strategy {strategy!r}")
    grid, model = spec.grid, spec.model
    omega, omega_tilde = spec.omega, spec.omega_tilde
    d = grid.nodes - omega.peak

    if (strategy == "auto" and spec.operator is OperatorKind.GRAPH
            and isinstance(omega, Ball) and isinstance(omega_tilde, Ball)):
        sol = RadialSolution(2, omega.radius, omega_tilde.radius, model)
        r = np.linalg.norm(d, axis=-1)
        # far-off centres round boundary radii past radial_profile's check
        u_vals, _, _ = radial_profile(sol, np.minimum(r, omega.radius))
        field0 = SolutionField(grid, grid.mean_zero(u_vals + d @ omega_tilde.peak), sol.c,
                               model)
        if admissibility_violation(spec, *grid.derivative_arrays(field0.u)) is None:
            return field0
        raise SeedFailure("exact radial seed failed the admissibility guards")

    m = transport_hessian(omega, omega_tilde)
    u = grid.mean_zero(0.5 * np.sum(d * (d @ m), axis=-1) + d @ omega_tilde.peak)
    du, d2u = grid.derivative_arrays(u)
    violation = admissibility_violation(spec, du, d2u)
    if violation is not None:
        raise SeedFailure(f"transport seed failed the admissibility guards: {violation}")
    c = grid.quadrature(operator_value(spec, grid.nodes, du, d2u)) / np.sum(grid.quad_weights)
    return SolutionField(grid, u, c, model)
