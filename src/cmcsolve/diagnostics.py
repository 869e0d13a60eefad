"""Checkable a-priori quantities for a solved instance and the pass/fail
report.

The checks mirror what the theory pins down without constants that cannot be
computed:

  * integral bounds on the solved constant,
        Lambda_1 = n (|Omega_tilde| / |Omega|)^{1/n},
        Lambda_2 = (|bd Omega| / |Omega|) max_{y in bd Omega_tilde} |y| w(y),
    with the model weight w(y) = 1/sqrt(1 - |y|^2) (Minkowski) or
    1/sqrt(1 + |y|^2) (Euclidean); the solved c must satisfy
    Lambda_1 - delta_h <= c <= Lambda_2 + delta_h up to discretization slack.
  * mass balance |Omega_tilde| = integral of det D^2 u (the gradient map is
    a diffeomorphism onto the target).
  * the flux identity c = (1/|Omega|) boundary-integral of Du . nu_out w(Du)
    (divergence theorem; the outward normal makes both sides positive for
    convex solutions, and the concentric-ball case fixes the sign).
  * strict obliqueness: min over the boundary of <beta, nu> with
    beta = Dh_target(Du)/|.| and nu the unit inward normal; positivity is
    the checkable content.
  * Hessian pinching: the solved field stays uniformly convex with bounded
    Hessian; the spacelike bound holds in the Minkowski model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .assembly import OperatorKind, ProblemSpec, hessian_eig_bounds
from .grid import SolutionField
from .kernel import ModelKind


@dataclass
class Tolerances:
    mass_balance: float = 0.02
    flux_identity: float = 0.02
    obliqueness_min: float = 0.05
    lambda_slack_factor: float = 3.0   # delta_h = factor * |c - flux average|
    convexity_min: float = 0.0
    dual_slack_factor: float = 2.0     # on |c_dual + c| vs flux discrepancy


def lambda_bounds(omega, omega_tilde, model: ModelKind = ModelKind.MINKOWSKI):
    """(Lambda_1, Lambda_2) integral bounds for the solved constant in the
    plane."""
    area, perim = omega.measures()
    area_t, _ = omega_tilde.measures()
    lam1 = 2 * (area_t / area) ** 0.5
    y = np.linalg.norm(omega_tilde.boundary_points(512), axis=-1)
    if model is ModelKind.MINKOWSKI:
        w = y / np.sqrt(1.0 - y ** 2)
    else:
        w = y / np.sqrt(1.0 + y ** 2)
    lam2 = perim / area * float(np.max(w))
    return float(lam1), float(lam2)


def obliqueness_profile(spec: ProblemSpec, fld: SolutionField):
    """(per-boundary-node <beta, nu>, minimum) with unit-normalized beta.

    Reports violations rather than raising: a non-convex test field may
    produce non-positive values, which is itself the diagnostic signal.
    """
    grid = fld.grid
    du, _ = fld.derivatives()
    bidx = grid.boundary_idx
    _, dh, _ = spec.omega_tilde.defining(du[bidx])
    beta = dh / np.linalg.norm(dh, axis=-1, keepdims=True)
    vals = np.einsum('ij,ij->i', beta, spec.omega.inward_normal(grid.nodes[bidx]))
    return vals, float(np.min(vals))


def mass_balance(spec: ProblemSpec, fld: SolutionField) -> float:
    """Relative error of integral(det D^2 u) against |Omega_tilde|."""
    _, d2u = fld.derivatives()
    det = d2u[:, 0, 0] * d2u[:, 1, 1] - d2u[:, 0, 1] ** 2
    vol = fld.grid.quadrature(det)
    area_t, _ = spec.omega_tilde.measures()
    return abs(vol - area_t) / area_t


def flux_identity(spec: ProblemSpec, fld: SolutionField) -> float:
    """Relative error of c against the boundary flux average
    (1/|Omega|) * boundary-integral of Du . nu_out * w(Du)."""
    grid = fld.grid
    du_b = grid.boundary_gradients(fld.u)
    nu_out = -spec.omega.inward_normal(grid.nodes[grid.boundary_idx])
    g2 = np.sum(du_b * du_b, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        if spec.model is ModelKind.MINKOWSKI:
            w = 1.0 / np.sqrt(1.0 - g2)
        else:
            w = 1.0 / np.sqrt(1.0 + g2)
    flux = grid.boundary_integral(np.einsum('ij,ij->i', du_b, nu_out) * w)
    area, _ = spec.omega.measures()
    err = abs(fld.c - flux / area) / max(abs(fld.c), 1e-300)
    # a field outside the model's gradient range has no finite flux; report
    # an unambiguous failing value instead of NaN
    return err if np.isfinite(err) else float("inf")


def hessian_pinching(fld: SolutionField):
    """(min eig, max eig over interior nodes, max |Du| over all nodes)."""
    du, d2u = fld.derivatives()
    mask = fld.grid.interior_mask
    lam_min, lam_max = hessian_eig_bounds(d2u[mask])
    grad_max = float(np.max(np.linalg.norm(du, axis=-1)))
    return float(np.min(lam_min)), float(np.max(lam_max)), grad_max


@dataclass
class DiagnosticsReport:
    """All checkable quantities for a solved instance, with pass flags."""

    model: str
    c: float
    lambda1: float
    lambda2: float
    delta_h: float
    obliqueness_min: float
    hessian_eig_min: float
    hessian_eig_max: float
    grad_max: float
    mass_balance_rel_err: float
    flux_identity_rel_err: float
    dual_consistency: float | None
    checks: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "model": self.model, "c": self.c,
            "lambda1": self.lambda1, "lambda2": self.lambda2,
            "delta_h": self.delta_h,
            "obliqueness_min": self.obliqueness_min,
            "hessian_eig_min": self.hessian_eig_min,
            "hessian_eig_max": self.hessian_eig_max,
            "grad_max": self.grad_max,
            "mass_balance_rel_err": self.mass_balance_rel_err,
            "flux_identity_rel_err": self.flux_identity_rel_err,
            "dual_consistency": self.dual_consistency,
            "checks": self.checks, "all_pass": self.all_pass,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def table(self) -> str:
        lines = [f"{'check':<22} {'value':>15} {'bound':>15}  status"]
        for name, c in self.checks.items():
            lines.append(f"{name:<22} {c['value']:>15.9g} {c['bound']:>15.9g}  "
                         f"{'pass' if c['passed'] else 'FAIL'}")
        return "\n".join(lines)


def full_report(spec: ProblemSpec, fld: SolutionField,
                dual: SolutionField | None = None,
                tol: Tolerances | None = None) -> DiagnosticsReport:
    """Run every check against its tolerance and aggregate the report."""
    tol = tol or Tolerances()
    lam1, lam2 = lambda_bounds(spec.omega, spec.omega_tilde, spec.model)
    _, obliq_min = obliqueness_profile(spec, fld)
    mass_err = mass_balance(spec, fld)
    flux_err = flux_identity(spec, fld)
    eig_min, eig_max, grad_max = hessian_pinching(fld)
    delta_h = tol.lambda_slack_factor * flux_err * abs(fld.c)
    dual_gap = None if dual is None else abs(dual.c + fld.c)

    checks = {
        "lambda_lower": {"value": fld.c, "bound": lam1 - delta_h,
                         "passed": bool(fld.c >= lam1 - delta_h)},
        "lambda_upper": {"value": fld.c, "bound": lam2 + delta_h,
                         "passed": bool(fld.c <= lam2 + delta_h)},
        "mass_balance": {"value": mass_err, "bound": tol.mass_balance,
                         "passed": bool(mass_err <= tol.mass_balance)},
        "flux_identity": {"value": flux_err, "bound": tol.flux_identity,
                          "passed": bool(flux_err <= tol.flux_identity)},
        "obliqueness": {"value": obliq_min, "bound": tol.obliqueness_min,
                        "passed": bool(obliq_min >= tol.obliqueness_min)},
        "convexity": {"value": eig_min, "bound": tol.convexity_min,
                      "passed": bool(eig_min > tol.convexity_min)},
    }
    if spec.model is ModelKind.MINKOWSKI and spec.operator is OperatorKind.GRAPH:
        bound = 1.0 - spec.eps_space
        checks["spacelike"] = {"value": grad_max, "bound": bound,
                               "passed": bool(grad_max <= bound)}
    if dual_gap is not None:
        bound = tol.dual_slack_factor * max(flux_err * abs(fld.c), 1e-8)
        checks["dual_consistency"] = {"value": dual_gap, "bound": bound,
                                      "passed": bool(dual_gap <= bound)}

    return DiagnosticsReport(
        model=spec.model.value, c=fld.c, lambda1=lam1, lambda2=lam2,
        delta_h=delta_h, obliqueness_min=obliq_min,
        hessian_eig_min=eig_min, hessian_eig_max=eig_max, grad_max=grad_max,
        mass_balance_rel_err=mass_err, flux_identity_rel_err=flux_err,
        dual_consistency=dual_gap, checks=checks)
