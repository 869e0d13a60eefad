import numpy as np
import pytest
from hypothesis import given, settings

from cmcsolve import Ball, Ellipse, ModelKind, SolutionField, build_grid, transfer_field
from helpers import interior_fit_oracle, quadric_domains


def derivative_errors(domain, n_rho, n_phi):
    g = build_grid(domain, n_rho, n_phi)
    x = g.nodes
    u = np.sin(x[:, 0]) * np.cos(x[:, 1])
    du, d2u = g.derivative_arrays(u)
    exact_du = np.stack([np.cos(x[:, 0]) * np.cos(x[:, 1]),
                         -np.sin(x[:, 0]) * np.sin(x[:, 1])], axis=-1)
    exx = -np.sin(x[:, 0]) * np.cos(x[:, 1])
    exy = -np.cos(x[:, 0]) * np.sin(x[:, 1])
    e1 = np.max(np.abs(du - exact_du))
    e2 = max(np.max(np.abs(d2u[:, 0, 0] - exx)),
             np.max(np.abs(d2u[:, 0, 1] - exy)),
             np.max(np.abs(d2u[:, 1, 1] - exx)))
    return e1, e2


class TestBuild:
    def test_ball_rings(self):
        g = build_grid(Ball((0, 0), 1.0), 8, 16)
        assert np.allclose(g.r_b, 1.0, atol=1e-12)
        radii = np.linalg.norm(g.nodes[1:], axis=-1).reshape(8, 16)
        assert np.allclose(radii, radii[:, :1], atol=1e-12)

    def test_ellipse_axis_radii(self):
        g = build_grid(Ellipse((0, 0), (1.0, 0.8)), 8, 16)
        assert g.r_b[0] == pytest.approx(1.0, abs=1e-12)
        assert g.r_b[4] == pytest.approx(0.8, abs=1e-12)  # phi = pi/2

    @pytest.mark.parametrize("dom", [Ball((0, 0), 1.0),
                                     Ellipse((0.2, 0), (1.0, 0.6))])
    def test_boundary_nodes_on_level_set(self, dom):
        g = build_grid(dom, 12, 24)
        h, _, _ = dom.defining(g.nodes[g.boundary_idx])
        assert np.max(np.abs(h)) <= 1e-9 * dom.diameter()

    def test_interior_nodes_inside(self):
        dom = Ellipse((0, 0), (1.0, 0.8))
        g = build_grid(dom, 12, 24)
        h, _, _ = dom.defining(g.nodes[g.interior_mask])
        assert np.all(h > 0)

    def test_no_node_collisions(self):
        g = build_grid(Ball((0, 0), 1.0), 8, 16)
        d = np.linalg.norm(g.nodes[:, None, :] - g.nodes[None, :, :], axis=-1)
        np.fill_diagonal(d, 1.0)
        assert d.min() > 1e-6

    @pytest.mark.parametrize("n_rho, n_phi", [(7, 16), (8, 15), (8, 14)])
    def test_resolution_validation(self, n_rho, n_phi):
        with pytest.raises(ValueError):
            build_grid(Ball((0, 0), 1.0), n_rho, n_phi)


class TestDerivativeRecovery:
    @pytest.mark.parametrize("dom", [Ball((0, 0), 1.0),
                                     Ellipse((0, 0), (1.0, 0.8))])
    def test_linear_exactness(self, dom):
        g = build_grid(dom, 16, 32)
        u = 2.0 * g.nodes[:, 0] - 3.0 * g.nodes[:, 1]
        du, d2u = g.derivative_arrays(u)
        assert np.max(np.abs(du - [2.0, -3.0])) < 1e-12
        assert np.max(np.abs(d2u)) < 1e-12

    @pytest.mark.parametrize("dom, tol", [(Ball((0, 0), 1.0), 1e-10),
                                          (Ellipse((0, 0), (1.0, 0.8)), 1e-8)])
    def test_quadratic_exactness(self, dom, tol):
        g = build_grid(dom, 16, 32)
        u = 0.5 * np.sum(g.nodes ** 2, axis=-1)
        du, d2u = g.derivative_arrays(u)
        assert np.max(np.abs(du - g.nodes)) < tol
        assert np.max(np.abs(d2u - np.eye(2))) < tol

    def test_smooth_convergence_factor(self):
        e1_c, e2_c = derivative_errors(Ball((0, 0), 1.0), 32, 64)
        e1_f, e2_f = derivative_errors(Ball((0, 0), 1.0), 64, 128)
        assert e1_c / e1_f >= 3.5
        assert e2_c / e2_f >= 3.5

    def test_observed_order(self):
        e1_c, e2_c = derivative_errors(Ball((0, 0), 1.0), 32, 64)
        e1_f, e2_f = derivative_errors(Ball((0, 0), 1.0), 64, 128)
        assert np.log2(e1_c / e1_f) >= 1.8
        assert np.log2(e2_c / e2_f) >= 1.8

    def test_boundary_gradients_quadratic(self):
        g = build_grid(Ball((0, 0), 1.0), 16, 32)
        u = 0.5 * np.sum(g.nodes ** 2, axis=-1)
        du_b = g.boundary_gradients(u)
        assert np.max(np.abs(du_b - g.nodes[g.boundary_idx])) < 1e-12


class TestOperatorWeights:
    @pytest.mark.parametrize("dom", [Ball((0, 0), 1.0),
                                     Ellipse((0.2, 0.1), (1.0, 0.6))])
    @pytest.mark.parametrize("n_rho, n_phi", [(16, 32), (64, 128)])
    def test_interior_rows_match_pinv_fit(self, dom, n_rho, n_phi):
        g = build_grid(dom, n_rho, n_phi)
        rows, cols, ref = interior_fit_oracle(g)
        for name, w in ref.items():
            op = g.ops[name]
            assert np.all(np.diff(op.indptr)[rows] == 9)  # the block is the row
            got = np.asarray(op[np.repeat(rows, 9), cols.ravel()]).reshape(w.shape)
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(op.data)), name

    @pytest.mark.parametrize("n_rho, n_phi", [(16, 32), (64, 128)])
    def test_constants_cancel_exactly(self, n_rho, n_phi):
        g = build_grid(Ellipse((0.2, 0.1), (1.0, 0.6)), n_rho, n_phi)
        ones = np.ones(g.n_nodes)
        for name in ('dx', 'dy', 'dxx', 'dxy', 'dyy', 'bx', 'by'):
            assert np.all(g.ops[name] @ ones == 0.0), name


@settings(max_examples=40, deadline=None)
@given(dom=quadric_domains())
def test_constants_cancel_exactly_on_any_domain(dom):
    g = build_grid(dom, 8, 16)
    ones = np.ones(g.n_nodes)
    for name, op in g.ops.items():
        assert np.all(op @ ones == 0.0), name


class TestQuadrature:
    def test_ball_area(self):
        g = build_grid(Ball((0, 0), 1.0), 32, 64)
        assert g.quadrature(np.ones(g.n_nodes)) == pytest.approx(np.pi, abs=1e-3)

    def test_ball_perimeter(self):
        g = build_grid(Ball((0, 0), 1.0), 32, 64)
        assert g.boundary_integral(np.ones(64)) == pytest.approx(2 * np.pi, abs=1e-3)

    def test_hessian_determinant_integral(self):
        # u = |x|^2/2 has det D^2 u = 1; its integral is the domain area
        dom = Ellipse((0, 0), (1.0, 0.8))
        g = build_grid(dom, 32, 64)
        u = 0.5 * np.sum(g.nodes ** 2, axis=-1)
        _, d2u = g.derivative_arrays(u)
        det = d2u[:, 0, 0] * d2u[:, 1, 1] - d2u[:, 0, 1] ** 2
        assert g.quadrature(det) == pytest.approx(0.8 * np.pi, abs=1e-3)

    def test_quadrature_order(self):
        vals = []
        for n in (16, 32, 64):
            g = build_grid(Ellipse((0, 0), (1.0, 0.8)), n, 2 * n)
            f = np.exp(g.nodes[:, 0]) * np.cos(g.nodes[:, 1])
            vals.append(g.quadrature(f))
        errs = [abs(v - vals[-1]) for v in vals[:-1]]
        assert np.log2(errs[0] / errs[1]) >= 1.8


class TestMeanZero:
    def test_idempotent_and_small(self):
        g = build_grid(Ball((0, 0), 1.0), 16, 32)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.n_nodes)
        p = g.mean_zero(u)
        assert np.allclose(g.mean_zero(p), p, atol=1e-15)
        assert abs(g.quad_weights @ p) <= 1e-14 * np.max(np.abs(p))


class TestSolutionField:
    def test_shape_validation(self):
        g = build_grid(Ball((0, 0), 1.0), 8, 16)
        with pytest.raises(ValueError):
            SolutionField(g, np.zeros(5), 0.0, ModelKind.MINKOWSKI)

    def test_transfer_same_lattice(self):
        dom = Ball((0, 0), 1.0)
        g1 = build_grid(dom, 8, 16)
        g2 = build_grid(dom.sublevel(0.5), 8, 16)
        u = g1.nodes[:, 0] ** 2
        fld = SolutionField(g1, g1.mean_zero(u), 1.0, ModelKind.MINKOWSKI)
        out = transfer_field(fld, g2)
        assert out.grid is g2
        assert abs(g2.quad_weights @ out.u) <= 1e-12

    def test_transfer_refinement(self):
        dom = Ball((0, 0), 1.0)
        g1 = build_grid(dom, 8, 16)
        g2 = build_grid(dom, 16, 32)
        u = 3.0 + 0.0 * g1.nodes[:, 0]
        fld = SolutionField(g1, u, 1.0, ModelKind.MINKOWSKI)
        out = transfer_field(fld, g2)
        # constants transfer exactly and are projected to mean zero
        assert np.max(np.abs(out.u)) < 1e-12
