import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcsolve import ModelKind, RadialSolution, radial_profile
from cmcsolve.errors import SpacelikeViolation
from cmcsolve.kernel import mean_curvature, operator_derivatives
from helpers import (PointState, coefficient_matrix, fd_operator_derivatives,
                     gradient_term_shape_form, metric_quantities,
                     principal_curvatures, random_states, shape_matrix)

MINK = ModelKind.MINKOWSKI
EUC = ModelKind.EUCLIDEAN


class TestMetricQuantities:
    def test_flat_point(self):
        v, g_lo, g_up, b_lo, b_up = metric_quantities(np.zeros(2), MINK)
        assert v == pytest.approx(1.0)
        for mat in (g_lo, g_up, b_lo, b_up):
            assert np.allclose(mat, np.eye(2), atol=1e-15)

    def test_minkowski_values(self):
        du = np.array([0.6, 0.0])
        v, g_lo, g_up, b_lo, b_up = metric_quantities(du, MINK)
        assert v == pytest.approx(0.8, abs=1e-15)
        assert g_lo[0, 0] == pytest.approx(0.64, abs=1e-15)
        assert g_up[0, 0] == pytest.approx(1.5625, abs=1e-14)
        assert b_up[0, 0] == pytest.approx(1.25, abs=1e-14)
        assert b_lo[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_euclidean_speed(self):
        v, *_ = metric_quantities(np.array([0.6, 0.0]), EUC)
        assert v == pytest.approx(np.sqrt(1.36), abs=1e-15)

    @pytest.mark.parametrize("model", [MINK, EUC])
    def test_square_root_identities(self, model):
        rng = np.random.default_rng(3)
        du, _ = random_states(rng, 1000)
        v, g_lo, g_up, b_lo, b_up = metric_quantities(du, model)
        assert np.allclose(np.einsum('mij,mjk->mik', b_up, b_up), g_up, atol=1e-12)
        assert np.allclose(np.einsum('mij,mjk->mik', b_lo, b_up),
                           np.broadcast_to(np.eye(2), g_up.shape), atol=1e-12)
        assert np.allclose(np.linalg.inv(b_up), b_lo, atol=1e-12)

    def test_spacelike_violation(self):
        with pytest.raises(SpacelikeViolation):
            metric_quantities(np.array([0.9999999, 0.0]), MINK)
        # Euclidean has no gradient bound
        metric_quantities(np.array([5.0, 0.0]), EUC)


class TestShapeMatrix:
    def test_flat_identity(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(shape_matrix(np.zeros(2), a, MINK), a, atol=1e-15)

    def test_minkowski_diagonal_case(self):
        a = shape_matrix(np.array([0.6, 0.0]), np.eye(2), MINK)
        assert np.allclose(a, np.diag([1.953125, 1.25]), atol=1e-12)

    def test_divergence_form_cross_check(self):
        # trace of the shape matrix against the coefficient form s_ij u_ij
        du = np.array([0.6, 0.0])
        a = shape_matrix(du, np.eye(2), MINK)
        assert np.trace(a) == pytest.approx(3.203125, abs=1e-12)
        s = coefficient_matrix(du, MINK)
        assert np.trace(a) == pytest.approx(np.einsum('ij,ij->', s, np.eye(2)),
                                            abs=1e-12)

    @pytest.mark.parametrize("model", [MINK, EUC])
    def test_two_formula_agreement(self, model):
        rng = np.random.default_rng(7)
        du, d2u = random_states(rng, 1000)
        h1 = np.trace(shape_matrix(du, d2u, model), axis1=-2, axis2=-1)
        h2 = mean_curvature(du, d2u, model)
        assert np.max(np.abs(h1 - h2)) < 1e-10


class TestMeanCurvature:
    def test_flat(self):
        assert mean_curvature(np.zeros(2), np.eye(2), MINK) == pytest.approx(2.0)

    @pytest.mark.parametrize("model, t0", [(MINK, 0.5), (EUC, 1.0)])
    def test_radial_profile_constancy(self, model, t0):
        sol = RadialSolution(2, 1.0, t0, model)
        r = np.linspace(0.01, 1.0, 100)
        _, up, upp = radial_profile(sol, r)
        x = np.stack([r, np.zeros_like(r)], axis=-1)
        du = np.stack([up, np.zeros_like(r)], axis=-1)
        d2u = np.zeros((len(r), 2, 2))
        d2u[:, 0, 0] = upp
        d2u[:, 1, 1] = up / r
        h = mean_curvature(du, d2u, model)
        assert np.max(np.abs(h - sol.c)) < 1e-10


class TestPrincipalCurvatures:
    def test_flat_diagonal(self):
        k = principal_curvatures(np.zeros(2), np.diag([1.0, 4.0]), MINK)
        assert np.allclose(k, [1.0, 4.0])

    def test_diagonal_case(self):
        k = principal_curvatures(np.array([0.6, 0.0]), np.eye(2), MINK)
        assert np.allclose(k, [1.25, 1.953125], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        du, d2u = random_states(rng, 1000)
        k = principal_curvatures(du, d2u, MINK)
        h = mean_curvature(du, d2u, MINK)
        assert np.max(np.abs(k.sum(axis=-1) - h)) < 1e-12
        assert np.all(k > 0)


class TestOperatorDerivatives:
    def test_flat(self):
        g_r, g_p = operator_derivatives(np.zeros(2), np.eye(2), MINK)
        assert np.allclose(g_r, np.eye(2), atol=1e-15)
        assert np.allclose(g_p, 0.0, atol=1e-15)

    @pytest.mark.parametrize("model", [MINK, EUC])
    def test_against_finite_differences(self, model):
        rng = np.random.default_rng(13)
        du, d2u = random_states(rng, 1000)
        g_r, g_p = operator_derivatives(du, d2u, model)
        fd_r, fd_p = fd_operator_derivatives(du, d2u, model)
        scale_r = np.maximum(np.abs(fd_r), 1.0)
        scale_p = np.maximum(np.abs(fd_p), 1.0)
        assert np.max(np.abs(g_r - fd_r) / scale_r) < 1e-6
        assert np.max(np.abs(g_p - fd_p) / scale_p) < 1e-6

    def test_shape_form_route_agrees(self):
        rng = np.random.default_rng(17)
        du, d2u = random_states(rng, 500)
        _, g_p = operator_derivatives(du, d2u, MINK)
        alt = gradient_term_shape_form(du, d2u)
        assert np.max(np.abs(g_p - alt)) < 1e-10

    def test_ellipticity(self):
        rng = np.random.default_rng(19)
        du, d2u = random_states(rng, 1000)
        g_r, _ = operator_derivatives(du, d2u, MINK)
        assert np.min(np.linalg.eigvalsh(g_r)) > 0

    def test_trace_bounds(self):
        # sigma_1 T <= T_G <= sigma_2 T with T = n for the trace curvature
        # and sigma from the eigenvalue range of (1/v) g_up over the sample
        rng = np.random.default_rng(23)
        du, d2u = random_states(rng, 1000)
        g_r, _ = operator_derivatives(du, d2u, MINK)
        eigs = np.linalg.eigvalsh(g_r)
        sigma1, sigma2 = np.min(eigs), np.max(eigs)
        t_g = np.trace(g_r, axis1=-2, axis2=-1)
        n = 2
        assert np.all(t_g >= sigma1 * n - 1e-12)
        assert np.all(t_g <= sigma2 * n + 1e-12)


def _relative_error(value, oracle, axes):
    """Largest error over the states, each relative to the state's largest
    oracle entry."""
    scale = np.max(np.abs(oracle), axis=axes, keepdims=True) if axes else np.abs(oracle)
    return np.max(np.abs(value - oracle) / scale)


class TestClosedFormAgainstOracle:
    """The closed-form components against the shape-matrix oracle: s = g^kl / v,
    H = tr(a), G_i by the shape-matrix route."""

    @pytest.mark.parametrize("model", [MINK, EUC])
    @pytest.mark.parametrize("shape", [(), (500,), (3, 4)], ids=["single", "batch", "block"])
    def test_matches_shape_matrix_oracle(self, model, shape):
        rng = np.random.default_rng(29)
        m = int(np.prod(shape))
        du, d2u = random_states(rng, m)
        du, d2u = du.reshape(shape + (2,)), d2u.reshape(shape + (2, 2))
        v, _, g_up, _, _ = metric_quantities(du, model)
        s = coefficient_matrix(du, model)
        h = mean_curvature(du, d2u, model)
        g_r, g_p = operator_derivatives(du, d2u, model)
        assert s.shape == g_r.shape == shape + (2, 2)
        assert h.shape == shape and g_p.shape == shape + (2,)
        s_oracle = g_up / np.asarray(v)[..., None, None]
        assert _relative_error(s, s_oracle, (-2, -1)) <= 1e-13
        assert np.array_equal(g_r, s)
        h_oracle = np.trace(shape_matrix(du, d2u, model), axis1=-2, axis2=-1)
        assert _relative_error(h, h_oracle, None) <= 1e-13
        assert _relative_error(g_p, gradient_term_shape_form(du, d2u, model), (-1,)) <= 1e-13

    @pytest.mark.parametrize("shape, worst", [((), None), ((7,), 5), ((3, 4), 6)],
                             ids=["single", "batch", "block"])
    @pytest.mark.parametrize("call", [
        lambda du, d2u: coefficient_matrix(du, MINK),
        lambda du, d2u: mean_curvature(du, d2u, MINK),
        lambda du, d2u: operator_derivatives(du, d2u, MINK)],
        ids=["coefficient_matrix", "mean_curvature", "operator_derivatives"])
    def test_spacelike_violation_names_worst_node(self, call, shape, worst):
        du = np.zeros(shape + (2,))
        flat = du.reshape(-1, 2)
        if worst is None:
            flat[0] = (0.9999995, 0.0)
        else:
            flat[2] = (0.0, 0.9999995)     # past the margin, not the worst
            flat[worst] = (0.6, -0.8)      # |du| = 1
        with pytest.raises(SpacelikeViolation) as info:
            call(du, np.broadcast_to(np.eye(2), shape + (2, 2)))
        assert info.value.node == worst
        assert info.value.grad_norm == pytest.approx(1.0 if worst is not None else 0.9999995)
        # the Euclidean model has no gradient bound
        coefficient_matrix(du, EUC)


class TestPointState:
    def test_symmetry_required(self):
        with pytest.raises(ValueError):
            PointState(np.zeros(2), np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_valid(self):
        st_ = PointState(np.array([0.1, 0.2]), np.eye(2))
        assert st_.du.shape == (2,)


@settings(max_examples=100, deadline=None)
@given(gx=st.floats(-0.65, 0.65), gy=st.floats(-0.65, 0.65),
       l1=st.floats(0.1, 5.0), l2=st.floats(0.1, 5.0),
       ang=st.floats(0, np.pi))
def test_curvature_identities_property(gx, gy, l1, l2, ang):
    du = np.array([gx, gy])
    q = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    d2u = q @ np.diag([l1, l2]) @ q.T
    for model in (MINK, EUC):
        k = principal_curvatures(du, d2u, model)
        h = mean_curvature(du, d2u, model)
        assert k.sum() == pytest.approx(h, rel=1e-10, abs=1e-10)
        assert np.all(k > 0)
        g_r, _ = operator_derivatives(du, d2u, model)
        assert np.min(np.linalg.eigvalsh(g_r)) > 0
