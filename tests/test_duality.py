import numpy as np
import pytest

from cmcsolve import (Ball, Ellipse, ModelKind, OperatorKind, ProblemSpec,
                      SolutionField, build_grid)
from cmcsolve.assembly import operator_value
from cmcsolve.duality import (FieldInterpolant, dual_residual, dual_solve,
                              legendre_transform)
from cmcsolve.errors import InversionFailure
from cmcsolve.kernel import coefficient_matrix, mean_curvature
from cmcsolve.radial import RadialSolution, radial_profile, seed_field
from cmcsolve.solver import newton_solve
from conftest import C_RADIAL, MINK


def quadratic_field(lam=0.5, n=16):
    grid = build_grid(Ball((0, 0), 1.0), n, 2 * n)
    u = grid.mean_zero(0.5 * lam * np.sum(grid.nodes ** 2, axis=-1))
    return SolutionField(grid, u, 2 * lam, MINK)


class TestLegendreTransform:
    def test_quadratic_pair(self):
        # u = lam |x|^2 / 2 transforms to |y|^2 / (2 lam) + const
        lam = 0.5
        fld = quadratic_field(lam)
        dual_grid = build_grid(Ball((0, 0), lam), 16, 32)
        dual = legendre_transform(fld, dual_grid)
        y = dual_grid.nodes
        expect = 0.5 * np.sum(y ** 2, axis=-1) / lam
        shift = dual.u - expect
        assert np.max(shift) - np.min(shift) < 1e-9
        _, d2u = dual.derivatives()
        assert np.max(np.abs(d2u - np.eye(2) / lam)) < 1e-7
        assert dual.c == -fld.c
        assert dual.dual

    def test_involution_on_radial(self, radial_32):
        spec, fld, _ = radial_32
        dual_grid = build_grid(spec.omega_tilde, 32, 64)
        dual = legendre_transform(fld, dual_grid)
        interp_p = FieldInterpolant(fld)
        interp_d = FieldInterpolant(dual)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.7, 0.7, (400, 2))
        pts = pts[np.linalg.norm(pts, axis=-1) < 0.9][:200]
        y = interp_p.gradient(pts)
        back = interp_d.gradient(y)
        assert np.max(np.abs(back - pts)) <= 2.0 * spec.grid.tolerance()

    def test_hessian_reciprocity(self, radial_32):
        spec, fld, _ = radial_32
        dual_grid = build_grid(spec.omega_tilde, 32, 64)
        dual = legendre_transform(fld, dual_grid)
        interp_d = FieldInterpolant(dual)
        du, d2u = fld.derivatives()
        mask = spec.grid.interior_mask.copy()
        mask[0] = False
        d2u_dual = interp_d.hessian_approx(du[mask])
        rec = np.linalg.det(d2u[mask]) * np.linalg.det(d2u_dual)
        assert np.max(np.abs(rec - 1.0)) < 0.05

    def test_double_transform_recovers_field(self, radial_32):
        spec, fld, _ = radial_32
        dual_grid = build_grid(spec.omega_tilde, 32, 64)
        dual = legendre_transform(fld, dual_grid)
        back = legendre_transform(dual, spec.grid)
        grid = spec.grid
        diff = grid.mean_zero(back.u) - grid.mean_zero(fld.u)
        assert np.max(np.abs(diff)) <= 5.0 * grid.tolerance()

    def test_target_outside_image_fails(self, radial_32):
        spec, fld, _ = radial_32
        big_grid = build_grid(Ball((0, 0), 0.8), 16, 32)
        with pytest.raises(InversionFailure) as err:
            legendre_transform(fld, big_grid)
        assert err.value.gap > 0.1


@pytest.mark.parametrize("domain", [Ball((0.3, -0.2), 0.7), Ellipse((0.1, 0.4), (1.2, 0.5)),
                                    Ellipse((0, 0), (1.0, 0.8)).sublevel(0.3)])
def test_boundary_nodes_map_to_unit_rho(domain):
    grid = build_grid(domain, 12, 24)
    interp = FieldInterpolant(SolutionField(grid, np.zeros(grid.n_nodes), 0.0, MINK))
    rho, phi = interp.params_of(grid.nodes[grid.boundary_idx])
    assert np.max(np.abs(rho - 1.0)) <= 1e-14
    assert np.allclose(phi, grid.phi, rtol=0, atol=1e-14)


class TestDualResidual:
    def test_radial_transform_accuracy(self, radial_32):
        spec, fld, _ = radial_32
        dual_grid = build_grid(spec.omega_tilde, 32, 64)
        dual = legendre_transform(fld, dual_grid)
        assert np.max(np.abs(dual_residual(dual))) < 2e-2

    def test_refinement_order(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        errs = []
        for n in (16, 32, 64):
            grid = build_grid(om, n, 2 * n)
            spec = ProblemSpec(om, omt, MINK, grid)
            fld, _ = newton_solve(spec, seed_field(spec))
            dual = legendre_transform(fld, build_grid(omt, n, 2 * n))
            errs.append(np.max(np.abs(dual_residual(dual))))
        assert np.log2(errs[1] / errs[2]) >= 1.8

    def test_operator_identity_no_pde(self):
        # -G(y, [D^2 u]^{-1}) evaluated on the inverse of (1/lam) I equals
        # -G(y, lam I) identically; direct formula check, no solve involved
        lam = 0.7
        grid = build_grid(Ball((0, 0), 0.5), 16, 32)
        spec = ProblemSpec(Ball((0, 0), 0.5), Ball((0, 0), 1.0), MINK, grid,
                           operator=OperatorKind.INVERSE_HESSIAN)
        d2u = np.broadcast_to(np.eye(2) / lam, (grid.n_nodes, 2, 2))
        vals = operator_value(spec, grid.nodes, None, d2u)
        direct = -mean_curvature(grid.nodes,
                                 np.broadcast_to(lam * np.eye(2),
                                                 (grid.n_nodes, 2, 2)), MINK)
        assert np.max(np.abs(vals - direct)) < 1e-10

    def test_coefficient_lower_bound(self):
        # lambda_min of the dual coefficient matrix is exactly 1/sqrt(1-|y|^2)
        grid = build_grid(Ball((0, 0), 0.5), 16, 32)
        y = grid.nodes
        s = coefficient_matrix(y, MINK)
        lam_min = np.min(np.linalg.eigvalsh(s), axis=-1)
        bound = 1.0 / np.sqrt(1.0 - np.sum(y ** 2, axis=-1))
        assert np.all(lam_min >= bound - 1e-12)


class TestDualSolve:
    def test_concentric_constant(self, radial_32):
        spec, fld, _ = radial_32
        dual, info = dual_solve(spec)
        assert dual.dual
        # the dual constant is the negative of the primal one, within twice
        # the primal discretization error
        primal_err = abs(fld.c - C_RADIAL)
        assert abs(dual.c + fld.c) <= 2.0 * primal_err

    def test_independent_gradient_involution(self, radial_32):
        spec, fld, _ = radial_32
        dual, _ = dual_solve(spec)
        interp_p = FieldInterpolant(fld)
        interp_d = FieldInterpolant(dual)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.7, 0.7, (400, 2))
        pts = pts[np.linalg.norm(pts, axis=-1) < 0.9][:200]
        back = interp_d.gradient(interp_p.gradient(pts))
        assert np.max(np.abs(back - pts)) <= 5.0 * spec.grid.tolerance()

    def test_dual_field_convex_with_image_in_omega(self, radial_32):
        spec, fld, _ = radial_32
        dual, _ = dual_solve(spec)
        du, d2u = dual.derivatives()
        assert np.min(np.linalg.eigvalsh(d2u)) > 0
        h_img, _, _ = spec.omega.defining(du)
        assert np.min(h_img) > -1e-3 * spec.omega.diameter()

    def test_dual_export_header_flag(self, radial_32, tmp_path):
        import json

        from cmcsolve.fieldio import header_path, load_field, save_field

        spec, _, _ = radial_32
        dual, _ = dual_solve(spec)
        path = tmp_path / "dual.csv"
        save_field(dual, path)
        header = json.loads(header_path(path).read_text())
        assert header["dual"] is True
        back = load_field(path)
        assert back.dual
        assert np.array_equal(back.u, dual.u)
