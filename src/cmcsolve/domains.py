"""Uniformly convex planar domains as super-level sets of quadrics.

A domain is the super-level set {h > 0} of a concave quadric

  h(x) = h_max - (1/2) (x - x0)^T A (x - x0),   A symmetric positive definite,

with h = 0 on the boundary and D^2 h = -A <= -theta I, theta the smallest
eigenvalue of A.  The gradient Dh points inward, so Dh/|Dh| is the inner unit
normal on the boundary.  Each class states its quadric once, through
quadric() -> (x0, A) and h_max; everything else (defining function, boundary
radius along a ray, the extremal radii, the map of the unit disk) is derived
here from that quadric:

  * Ball(center, R):       A = I/R, h_max = R/2, so |Dh| = 1 on the boundary.
  * Ellipse(center, a, b): A = s diag(1/a^2, 1/b^2), h_max = s/2, with s
    chosen so the boundary gradient magnitude stays within a band
    [delta, 1/delta]; exact unit gradient is not needed because the boundary
    condition h(Du) = 0 and the obliqueness direction are invariant under
    positive scaling of h.

The super-level set {h >= (1-t) h_max} is the sqrt(t)-scaled copy of the
domain about its peak, and sublevel(t) returns it as a domain of the same
class: its defining function (h - (1-t) h_max)/sqrt(t) has the same zero set
and keeps the |Dh| band of the class.

Every radius is measured from the peak: along the unit vector e the boundary
lies at r = sqrt(2 h_max / e^T A e), so the inradius and outradius about the
peak are sqrt(2 h_max / lambda) at the largest and smallest eigenvalue of A.
The domain is the image x = x0 + L xi of the unit disk under the linear map
L = (A / 2 h_max)^(-1/2) (disk_map), on which every grid is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSublevel, NotOnBoundary
from .kernel import EPS_SPACE

# Relative tolerance (times domain diameter) for "x is on the boundary".
BOUNDARY_RTOL = 1e-9

# Admissible distances from the peak to the boundary: the cube roots of the
# normal float range.  The quadrature weights scale like r^2 and the
# potentials they integrate (the mean-zero row) like r |Du|, so a radius
# cubed must stay a normal float; that also keeps the Hessian recovery
# weights, which scale like 1/(r h)^2 for a relative cell size h, finite.
# Outside it Ball(0, 1e-160) underflows r^2 in the recovery fits and
# Ball(0, 1e150) overflows the mean-zero sum.
RADIUS_RANGE = (np.finfo(float).tiny ** (1 / 3), np.finfo(float).max ** (1 / 3))

# Farthest a peak may lie from the origin, in inradii.  Node coordinates
# then resolve the inradius to 2^-26 of itself, so grid offsets stay
# distinct; at 2^51 (Ball((0, 2.25e15), 1)) the first-ring nodes of an 8x16
# grid round onto one another and the recovery fit is singular.
CENTER_REACH = 2.0 ** 26

# Resolvability floor of a super-level set: smallest inradius, as a fraction
# of the full domain's diameter, that keeps grids well conditioned.
SUBLEVEL_FLOOR = 1e-2


def polar_frame(phi):
    """(cos phi, sin phi) and its counter-clockwise normal, shape (..., 2)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)


class ConvexDomain:
    """Base class; subclasses provide quadric() and h_max."""

    def quadric(self) -> tuple[np.ndarray, np.ndarray]:
        """(x0, A): the peak and the constant Hessian -D^2 h."""
        raise NotImplementedError

    @property
    def h_max(self) -> float:
        """Maximum of h, attained at the unique interior peak."""
        raise NotImplementedError

    def defining(self, x):
        """Evaluate (h, Dh, D2h) at points x of shape (..., 2).

        Defined on all of R^2 by the same smooth formula; h > 0 strictly
        inside, h = 0 on the boundary, h < 0 outside.
        """
        x0, a = self.quadric()
        d = np.asarray(x, dtype=float) - x0
        g = d @ a
        h = self.h_max - 0.5 * np.sum(d * g, axis=-1)
        return h, -g, np.broadcast_to(-a, d.shape[:-1] + (2, 2)).copy()

    @property
    def peak(self) -> np.ndarray:
        """Interior maximizer of h."""
        return self.quadric()[0]

    def radii(self) -> tuple[float, float]:
        """(r_in, r_out): the smallest and largest distance from the peak to
        the boundary, sqrt(2 h_max / lambda) at the largest and smallest
        eigenvalue lambda of A."""
        r_out, r_in = np.sqrt(2.0 * self.h_max / np.linalg.eigvalsh(self.quadric()[1]))
        return float(r_in), float(r_out)

    def diameter(self) -> float:
        """Twice the outradius: the length of the major axis."""
        return 2.0 * self.radii()[1]

    # -- derived geometry ---------------------------------------------------

    def boundary_tol(self) -> float:
        return BOUNDARY_RTOL * self.diameter()

    def inward_normal(self, x) -> np.ndarray:
        """Unit inward normal at a boundary point (Dh/|Dh|)."""
        x = np.asarray(x, dtype=float)
        h, dh, _ = self.defining(x)
        if np.any(np.abs(h) > self.boundary_tol()):
            raise NotOnBoundary(f"|h(x)| = {np.max(np.abs(h)):.3e} exceeds "
                                f"boundary tolerance {self.boundary_tol():.3e}")
        return dh / np.linalg.norm(dh, axis=-1, keepdims=True)

    def boundary_radius(self, phi):
        """Distance R(phi) from the peak to the boundary along e = (cos phi,
        sin phi): R = sqrt(2 h_max / e^T A e).  A scalar phi gives a float, an
        array phi an array of its shape."""
        e = polar_frame(np.asarray(phi, dtype=float))[0]
        r = np.sqrt(2.0 * self.h_max / np.sum(e * (e @ self.quadric()[1]), axis=-1))
        return float(r) if r.ndim == 0 else r

    def disk_map(self) -> np.ndarray:
        """L = (A / 2 h_max)^(-1/2), symmetric positive definite: the domain
        is the image x = x0 + L xi of the unit disk |xi| < 1 (diag(a, b) for
        an ellipse, R I for a ball).  Inverting the eigenvalues of A / 2 h_max
        recovers exact semi-axes more often (90 % of random ones) than taking
        those of 2 h_max A^-1 (87 %)."""
        lam, q = np.linalg.eigh(self.quadric()[1] / (2.0 * self.h_max))
        return (q * np.sqrt(1.0 / lam)) @ q.T

    def max_boundary_norm(self) -> float:
        """max |y| over the boundary, to roundoff.  In the eigenframe of A
        the boundary is b + (alpha cos t, beta sin t); the stationary points
        of |y|^2 are t = pi and t = 2 arctan(s) at the roots s of a quartic.
        Every root's real part gives a boundary point, so spurious ones only
        add candidates below the maximum."""
        x0, a = self.quadric()
        lam, q = np.linalg.eigh(a)
        alpha, beta = np.sqrt(2.0 * self.h_max / lam)
        b1, b2 = x0 @ q
        k = beta ** 2 - alpha ** 2
        coeffs = np.array([-beta * b2, -2.0 * (alpha * b1 + k), 0.0,
                           2.0 * (k - alpha * b1), beta * b2])
        # a coefficient below roundoff of the largest one is noise; as the
        # leading one it only sends a root towards s = inf (t = pi), and
        # np.roots would overflow dividing by it
        coeffs[np.abs(coeffs) <= np.finfo(float).eps * np.max(np.abs(coeffs))] = 0.0
        roots = np.roots(coeffs)
        t = np.append(2.0 * np.arctan(roots.real), np.pi)
        y = x0 + np.stack([alpha * np.cos(t), beta * np.sin(t)], axis=-1) @ q.T
        return float(np.max(np.linalg.norm(y, axis=-1)))

    def sublevel(self, t: float) -> "ConvexDomain":
        """The super-level set {h >= (1-t) h_max} for t in (0, 1]: the
        sqrt(t)-scaled copy of the domain about its peak, of the same class.

        Returns self at t = 1.  Raises DegenerateSublevel when the copy is
        too small to resolve or cannot be represented (RADIUS_RANGE,
        CENTER_REACH).
        """
        if not 0.0 < t <= 1.0:
            raise ValueError(f"t must be in (0, 1], got {t}")
        if t == 1.0:
            return self
        k = np.sqrt(t)
        r_in = k * self.radii()[0]
        if r_in < SUBLEVEL_FLOOR * self.diameter():
            raise DegenerateSublevel(f"super-level set at t={t} has inradius "
                                     f"{r_in:.3e}, below the resolvable floor")
        try:
            return self._scaled(k)
        except ValueError as exc:
            raise DegenerateSublevel(f"super-level set at t={t}: {exc}") from exc

    def _scaled(self, k: float) -> "ConvexDomain":
        """The copy scaled by k about the peak."""
        raise NotImplementedError

    def measures(self) -> tuple[float, float]:
        """(area, perimeter)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _require_finite(self) -> None:
        """Raise ValueError unless the peak is finite and within CENTER_REACH
        inradii of the origin, A positive definite and both radii about the
        peak within RADIUS_RANGE (which makes h_max positive and the area
        finite)."""
        with np.errstate(all="ignore"):
            x0, a = self.quadric()
            lam = np.linalg.eigvalsh(a) if np.all(np.isfinite(a)) else np.array([np.nan])
            radii = np.sqrt(2.0 * self.h_max / lam)
            reach = np.max(np.abs(x0)) / radii[-1]
        lo, hi = RADIUS_RANGE
        if not (np.all(np.isfinite(x0)) and lam[0] > 0
                and np.all((lo <= radii) & (radii <= hi)) and reach <= CENTER_REACH):
            raise ValueError(f"{self!r} cannot be represented: its center must be "
                             f"finite and within {CENTER_REACH:.3g} inradii of the "
                             f"origin, its quadric positive definite and its radii "
                             f"within [{lo:.3g}, {hi:.3g}]")


def require_inside_unit_ball(domain: ConvexDomain) -> None:
    """Raise ConfigError unless the boundary of domain stays within
    |y| <= 1 - EPS_SPACE: the Minkowski kernel's gradient slot must stay
    strictly inside the unit ball."""
    worst = domain.max_boundary_norm()
    if worst > 1.0 - EPS_SPACE:
        raise ConfigError(f"Minkowski model needs the gradient-image domain strictly "
                          f"inside the unit ball: max boundary |y| = {worst:.9g}")


@dataclass(eq=True)
class Ball(ConvexDomain):
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        self.center = (float(self.center[0]), float(self.center[1]))
        self.radius = float(self.radius)
        self._require_finite()

    def quadric(self):
        return np.asarray(self.center), np.eye(2) / self.radius

    @property
    def h_max(self):
        return self.radius / 2.0

    def _scaled(self, k):
        return Ball(self.center, k * self.radius)

    def measures(self):
        return float(np.pi * self.radius ** 2), float(2 * np.pi * self.radius)

    def to_dict(self):
        return {"kind": "ball", "center": list(self.center), "radius": self.radius}


@dataclass(eq=True)
class Ellipse(ConvexDomain):
    center: tuple[float, float]
    semi_axes: tuple[float, float]

    def __post_init__(self):
        self.center = (float(self.center[0]), float(self.center[1]))
        a, b = self.semi_axes = (float(self.semi_axes[0]), float(self.semi_axes[1]))
        if not min(a, b) > 0:
            raise ValueError(f"semi-axes must be positive, got {self.semi_axes}")
        # scale keeping boundary |Dh| = s*sqrt(cos^2/a^2 + sin^2/b^2) within
        # [1/2, 2]-ish: geometric-mean normalization, floored so min |Dh| >= 1/2
        self._scale = max(np.sqrt(a * b), max(a, b) / 2.0)
        self._require_finite()

    def quadric(self):
        # numpy scalars: an extreme axis overflows to inf instead of raising
        a, b = np.asarray(self.semi_axes)
        return np.asarray(self.center), self._scale * np.diag([1.0 / a ** 2, 1.0 / b ** 2])

    @property
    def h_max(self):
        return self._scale / 2.0

    def _scaled(self, k):
        return Ellipse(self.center, (k * self.semi_axes[0], k * self.semi_axes[1]))

    def measures(self):
        """Area pi a b and perimeter 4 a E(1 - b^2/a^2) by the
        arithmetic-geometric mean: 2 pi / M(a, b) times
        (a^2 + b^2)/2 - sum_{n >= 1} 2^(n-1) c_n^2, c_n = (a_{n-1} - b_{n-1})/2.
        The mean converges quadratically, so the terms left once a and b
        agree to 1e-15 are below roundoff; RADIUS_RANGE keeps every square
        a normal float."""
        a, b = self.semi_axes
        area = math.pi * a * b
        total, weight = 0.5 * (a * a + b * b), 1.0
        while abs(a - b) > 1e-15 * a:
            a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
            total -= weight * c * c
            weight *= 2.0
        return area, 2.0 * math.pi * total / (0.5 * (a + b))

    def to_dict(self):
        return {"kind": "ellipse", "center": list(self.center),
                "semi_axes": list(self.semi_axes)}


def _pair(value) -> tuple:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"expected a pair of numbers, got {value!r}")
    return tuple(value)


def domain_from_dict(d: dict) -> ConvexDomain:
    kind = d.get("kind")
    if kind == "ball":
        return Ball(_pair(d["center"]), d["radius"])
    if kind == "ellipse":
        return Ellipse(_pair(d["center"]), _pair(d["semi_axes"]))
    if kind == "sublevel":
        # written (never nested) by earlier versions: the set {h_base >= level}
        base, level = domain_from_dict(d["base"]), d["level"]
        if not 0.0 < level < base.h_max:
            raise ValueError(f"level must be in (0, h_max), got {level}")
        return base.sublevel(1.0 - level / base.h_max)
    raise ValueError(f"unknown domain kind {kind!r}")
