import json
from dataclasses import replace

import numpy as np
import pytest

from cmcsolve import (Ball, Ellipse, ModelKind, ProblemSpec, SolutionField,
                      build_grid, diagnostics, lambda_bounds, radial_constant)
from cmcsolve.diagnostics import (flux_identity, full_report, hessian_pinching,
                                  mass_balance, obliqueness_profile)
from cmcsolve.duality import dual_solve
from cmcsolve.kernel import mean_curvature
from cmcsolve.radial import RadialSolution, radial_profile
from conftest import C_RADIAL, MINK
from helpers import grid_tolerance


class TestLambdaBounds:
    def test_concentric_values(self):
        lam1, lam2 = lambda_bounds(Ball((0, 0), 1.0), Ball((0, 0), 0.5))
        assert lam1 == pytest.approx(1.0, abs=1e-12)
        assert lam2 == pytest.approx(1.1547005383792517, abs=1e-9)

    def test_saturation_radial_case(self, radial_32):
        # boundary |Du| is constant for the radial solution, so the flux
        # bound is attained: c = Lambda_2
        spec, fld, _ = radial_32
        _, lam2 = lambda_bounds(spec.omega, spec.omega_tilde)
        assert abs(fld.c - lam2) <= 2e-3

    def test_shrinking_image_limit(self):
        lam1, _ = lambda_bounds(Ball((0, 0), 1.0), Ball((0, 0), 0.05))
        assert lam1 == pytest.approx(0.1, abs=1e-12)
        assert radial_constant(2, 1.0, 0.05, MINK) < 0.11

    def test_ordering(self):
        for omt in (Ball((0, 0), 0.5), Ball((0.2, 0), 0.3),
                    Ellipse((0, 0), (0.4, 0.3))):
            lam1, lam2 = lambda_bounds(Ball((0, 0), 1.0), omt)
            assert lam1 <= lam2

    @pytest.mark.parametrize("t0", [0.05, 0.5, 2.0, 10.0])
    def test_euclidean_lower_bound_below_radial_constant(self, t0):
        # the Euclidean coefficient matrix is only >= w^3 I on the image,
        # w = 1/sqrt(1 + t0^2) at its edge: Lambda_1 carries that factor
        lam1, _ = lambda_bounds(Ball((0, 0), 1.0), Ball((0, 0), t0), ModelKind.EUCLIDEAN)
        assert lam1 == pytest.approx(2.0 * t0 / (1.0 + t0 ** 2) ** 1.5, rel=1e-12)
        assert lam1 <= radial_constant(2, 1.0, t0, ModelKind.EUCLIDEAN)


class TestObliqueness:
    def test_concentric_is_one(self, radial_32):
        spec, fld, _ = radial_32
        vals, vmin = obliqueness_profile(spec, fld)
        assert vmin == pytest.approx(1.0, abs=1e-3)
        assert np.max(vals) <= 1.0 + 1e-12

    def test_ellipse_instances_strictly_positive(self, ci_instances):
        for name in ("ellipse_ball", "ball_ellipse"):
            spec, fld, _ = ci_instances[name]
            _, vmin = obliqueness_profile(spec, fld)
            assert vmin >= 0.05

    def test_nonconvex_field_reported_not_raised(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        u = grid.mean_zero(-0.3 * grid.nodes[:, 0] ** 2
                           + 0.35 * grid.nodes[:, 1] ** 2)
        vals, vmin = obliqueness_profile(
            spec, SolutionField(grid, u, 0.0, ModelKind.MINKOWSKI))
        assert np.isfinite(vmin)
        assert vmin < 0.5  # the flipped gradient breaks alignment somewhere


class TestMassBalance:
    def test_radial_instance(self, radial_32):
        spec, fld, _ = radial_32
        assert mass_balance(spec, fld) <= 0.02

    def test_pure_quadrature_case(self):
        # u = lam |x|^2 / 2 with target lam Omega: det D^2 u is exactly
        # constant, so only quadrature error remains
        lam = 0.45
        om = Ball((0, 0), 1.0)
        grid = build_grid(om, 32, 64)
        spec = ProblemSpec(om, Ball((0, 0), lam), MINK, grid)
        u = grid.mean_zero(0.5 * lam * np.sum(grid.nodes ** 2, axis=-1))
        fld = SolutionField(grid, u, 2 * lam, MINK)
        assert mass_balance(spec, fld) <= 1e-3


class TestFluxIdentity:
    def test_radial_instance(self, radial_32):
        spec, fld, _ = radial_32
        assert flux_identity(spec, fld) <= 0.01

    def test_ellipse_instance(self, ci_instances):
        spec, fld, _ = ci_instances["ellipse_ball"]
        assert flux_identity(spec, fld) <= 0.02

    def test_divergence_theorem_on_non_solution(self):
        # for a field that solves nothing, the boundary flux still matches
        # the volume integral of the curvature integrand
        lam = 0.45
        om = Ball((0, 0), 1.0)
        grid = build_grid(om, 32, 64)
        spec = ProblemSpec(om, Ball((0, 0), lam), MINK, grid)
        u = grid.mean_zero(0.5 * lam * np.sum(grid.nodes ** 2, axis=-1))
        fld = SolutionField(grid, u, 1.0, MINK)
        du, d2u = fld.derivatives()
        vol = grid.quadrature(mean_curvature(du, d2u, MINK))
        du_b = grid.boundary_gradients(fld.u)
        bidx = grid.boundary_idx
        _, dh, _ = om.defining(grid.nodes[bidx])
        nu_out = -dh / np.linalg.norm(dh, axis=-1, keepdims=True)
        w = 1.0 / np.sqrt(1.0 - np.sum(du_b ** 2, axis=-1))
        flux = grid.boundary_integral(np.einsum('ij,ij->i', du_b, nu_out) * w)
        assert abs(flux - vol) / abs(vol) <= 1e-2


class TestHessianPinching:
    def test_radial_matches_closed_form(self, radial_32):
        spec, fld, _ = radial_32
        eig_min, eig_max, grad_max = hessian_pinching(fld)
        sol = RadialSolution(2, 1.0, 0.5, MINK)
        r = np.linalg.norm(spec.grid.nodes[spec.grid.interior_mask], axis=-1)
        _, up, upp = radial_profile(sol, r)
        tangential = np.where(r > 1e-14, up / np.maximum(r, 1e-14), sol.c / 2)
        exact_min = min(np.min(upp), np.min(tangential))
        exact_max = max(np.max(upp), np.max(tangential))
        assert eig_min == pytest.approx(exact_min, rel=0.02)
        assert eig_max == pytest.approx(exact_max, rel=0.02)
        assert grad_max == pytest.approx(0.5, abs=grid_tolerance(spec.grid))

    def test_trace_between_extremes(self, radial_32):
        spec, fld, _ = radial_32
        _, d2u = fld.derivatives()
        eig_min, eig_max, _ = hessian_pinching(fld)
        tr_half = 0.5 * np.trace(d2u[spec.grid.interior_mask],
                                 axis1=-2, axis2=-1)
        assert np.all(tr_half >= eig_min - 1e-12)
        assert np.all(tr_half <= eig_max + 1e-12)


class TestFullReport:
    def test_all_pass_on_solved_instances(self, ci_instances):
        for name, (spec, fld, _) in ci_instances.items():
            report = full_report(spec, fld)
            assert report.all_pass, f"{name}: {report.table()}"

    def test_corrupted_field_fails(self, radial_32):
        spec, fld, _ = radial_32
        rng = np.random.default_rng(8)
        bad = replace(fld, u=spec.grid.mean_zero(fld.u + 1e-2 * rng.standard_normal(len(fld.u))))
        report = full_report(spec, bad)
        assert not report.all_pass

    def test_dual_consistency_slot(self, radial_32):
        spec, fld, _ = radial_32
        report = full_report(spec, fld)
        assert report.dual_consistency is None
        assert "dual_consistency" not in report.checks
        dual, _ = dual_solve(spec)
        report2 = full_report(spec, fld, dual=dual)
        assert report2.dual_consistency == pytest.approx(abs(dual.c + fld.c))
        assert report2.checks["dual_consistency"]["passed"]

    def test_flags_consistent_with_values(self, radial_32, monkeypatch):
        spec, fld, _ = radial_32
        monkeypatch.setattr(diagnostics, "MASS_BALANCE_TOL", 1e-12)
        report = full_report(spec, fld)
        assert not report.checks["mass_balance"]["passed"]
        assert report.checks["mass_balance"]["value"] > 1e-12
        assert not report.all_pass

    def test_json_key_order(self, radial_32, tmp_path):
        spec, fld, _ = radial_32
        path = tmp_path / "report.json"
        full_report(spec, fld).to_json(path)
        assert list(json.loads(path.read_text())) == [
            "model", "c", "lambda1", "lambda2", "delta_h", "obliqueness_min",
            "hessian_eig_min", "hessian_eig_max", "grad_max",
            "mass_balance_rel_err", "flux_identity_rel_err", "dual_consistency",
            "checks", "all_pass"]

    def test_json_round_trip(self, radial_32, tmp_path):
        spec, fld, _ = radial_32
        report = full_report(spec, fld)
        path = tmp_path / "report.json"
        report.to_json(path)
        loaded = json.loads(path.read_text())
        for key in ("lambda1", "lambda2", "c", "obliqueness_min",
                    "hessian_eig_min", "hessian_eig_max", "grad_max",
                    "mass_balance_rel_err", "flux_identity_rel_err",
                    "dual_consistency", "checks", "all_pass"):
            assert key in loaded
        assert loaded["c"] == fld.c
        assert "status" not in report.table().splitlines()[1]
