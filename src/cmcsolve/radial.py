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


def seed_field(spec, strategy: str = "auto") -> SolutionField:
    """Admissible initial field for a problem instance.

    Ball pair: the exact radial profile about Omega's center, shifted in
    gradient space by Omega_tilde's center (adding y_c . x translates the
    gradient image without touching the Hessian).  Otherwise: the quadratic
    (alpha/2)|x - x_p|^2 + y_c . (x - x_p) with alpha, from the target's
    inradius over Omega's outradius, stepped down until its gradient image
    sits strictly inside the target; x_p, y_c are the defining-function
    peaks.  The result is mean-zero projected and checked against the
    admissibility guards on the grid.

    strategy: "auto" picks the radial branch on primal ball pairs;
    "quadratic" forces the quadratic branch.
    """
    if strategy not in ("auto", "quadratic"):
        raise ValueError(f"unknown seed strategy {strategy!r}")
    grid = spec.grid
    omega, omega_tilde, model = spec.omega, spec.omega_tilde, spec.model
    nodes = grid.nodes

    radial_ok = (strategy == "auto" and spec.operator is OperatorKind.GRAPH
                 and isinstance(omega, Ball) and isinstance(omega_tilde, Ball))
    if radial_ok:
        x_p = np.asarray(omega.center, dtype=float)
        y_c = np.asarray(omega_tilde.center, dtype=float)
        sol = RadialSolution(2, omega.radius, omega_tilde.radius, model)
        d = nodes - x_p
        r = np.linalg.norm(d, axis=-1)
        # far-off centres round boundary radii past radial_profile's check
        u_vals, _, _ = radial_profile(sol, np.minimum(r, omega.radius))
        u = u_vals + d @ y_c
        c = sol.c
        field0 = SolutionField(grid, grid.mean_zero(u), c, model)
        if admissibility_violation(spec, *field0.derivatives()) is None:
            return field0
        raise SeedFailure("exact radial seed failed the admissibility guards")

    x_p = omega.peak
    y_c = omega_tilde.peak
    alpha = omega_tilde.radii()[0] / omega.radii()[1]
    d = nodes - x_p
    tol_b = omega_tilde.boundary_tol()
    while alpha >= 1e-4:
        u = 0.5 * alpha * np.sum(d * d, axis=-1) + d @ y_c
        du_exact = alpha * d + y_c
        h_img, _, _ = omega_tilde.defining(du_exact)
        field0 = SolutionField(grid, grid.mean_zero(u), _seed_constant(spec, alpha),
                               model)
        if (np.min(h_img) > -tol_b
                and admissibility_violation(spec, *field0.derivatives()) is None):
            return field0
        alpha *= 0.5
    raise SeedFailure("no admissible quadratic seed with alpha >= 1e-4")


def _seed_constant(spec, alpha: float) -> float:
    """Curvature value of the quadratic seed at the peak, as a starting c."""
    du0 = np.zeros((1, 2))
    d2u0 = alpha * np.eye(2)[None, :, :]
    pos0 = np.asarray(spec.omega.peak, dtype=float)[None, :]
    return float(operator_value(spec, pos0, du0, d2u0)[0])
