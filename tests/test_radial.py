import warnings

import numpy as np
import pytest

from cmcsolve import (Ball, Ellipse, ModelKind, OperatorKind, ProblemSpec,
                      RadialSolution, build_grid, radial_constant, radial_profile,
                      seed_field)
from cmcsolve import assembly
from cmcsolve.radial import transport_hessian
from cmcsolve.assembly import admissibility_violation, residual
from cmcsolve.errors import SeedFailure
from helpers import ode_crosscheck

MINK = ModelKind.MINKOWSKI
EUC = ModelKind.EUCLIDEAN


class TestRadialConstant:
    def test_minkowski_value(self):
        assert radial_constant(2, 1.0, 0.5, MINK) == pytest.approx(
            1.1547005383792517, abs=1e-12)

    def test_euclidean_value(self):
        assert radial_constant(2, 1.0, 1.0, EUC) == pytest.approx(
            1.4142135623730951, abs=1e-12)

    def test_small_image_limit(self):
        assert radial_constant(2, 1.0, 1e-9, MINK) < 1e-8

    @pytest.mark.parametrize("kwargs", [
        dict(n=2, r0=1.0, t0=1.2, model=MINK),   # spacelike bound
        dict(n=2, r0=1.0, t0=1.0, model=MINK),
        dict(n=2, r0=-1.0, t0=0.5, model=MINK),
        dict(n=1, r0=1.0, t0=0.5, model=MINK),
        dict(n=2, r0=1.0, t0=0.0, model=EUC),
        dict(n=2, r0=np.nan, t0=0.5, model=MINK),
        dict(n=2, r0=1.0, t0=np.inf, model=EUC),
        dict(n=2, r0=1e-320, t0=0.5, model=MINK),   # c = inf
        dict(n=2, r0=1e200, t0=0.5, model=EUC),     # r0^2 = inf, c^2 = 0
    ])
    def test_preconditions(self, kwargs):
        with pytest.raises(ValueError):
            radial_constant(kwargs["n"], kwargs["r0"], kwargs["t0"],
                            kwargs["model"])


class TestRadialProfile:
    def test_minkowski_boundary_value(self):
        sol = RadialSolution(2, 1.0, 0.5, MINK)
        u, du, _ = radial_profile(sol, 1.0)
        assert u == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-12)
        assert du == pytest.approx(0.5, abs=1e-13)

    def test_origin_curvature(self):
        # leading Taylor coefficient of the flux variable: u''(0) = c/n
        sol = RadialSolution(2, 1.0, 0.5, MINK)
        u, du, d2u = radial_profile(sol, 0.0)
        assert u == 0.0 and du == 0.0
        assert d2u == pytest.approx(sol.c / 2.0, abs=1e-13)

    def test_euclidean_boundary_value(self):
        sol = RadialSolution(2, 1.0, 1.0, EUC)
        u, du, _ = radial_profile(sol, 1.0)
        assert u == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
        assert du == pytest.approx(1.0, abs=1e-12)

    def test_domain_check(self):
        sol = RadialSolution(2, 1.0, 0.5, MINK)
        with pytest.raises(ValueError):
            radial_profile(sol, 1.5)

    def test_gradient_monotone_and_spacelike(self):
        sol = RadialSolution(2, 1.0, 0.5, MINK)
        r = np.linspace(0, 1, 200)
        _, du, _ = radial_profile(sol, r)
        assert np.all(np.diff(du) > 0)
        assert du[-1] == pytest.approx(0.5, abs=1e-14)
        assert np.all(du < 1.0)

    @pytest.mark.parametrize("t0", [0.5, 1e4, 1e8, 1e12])
    def test_euclidean_boundary_slope_large_image(self, t0):
        # n^2 - c^2 r^2 vanishes at r = r0 as t0 grows; the profile must not
        # form it by cancellation
        sol = RadialSolution(2, 1.0, t0, EUC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, du, d2u = radial_profile(sol, 1.0)
        assert du == pytest.approx(t0, rel=1e-12)
        assert np.isfinite(d2u)

    def test_roundoff_past_r0_is_r0(self):
        # the domain check admits r0 (1 + 1e-12), where the Euclidean root
        # r0^2 + t0^2 (r0^2 - r^2) is negative for a large t0
        sol = RadialSolution(2, 1.0, 1e12, EUC)
        past = radial_profile(sol, 1.0 + 1e-13)
        assert np.all(np.isfinite(past))
        assert past == radial_profile(sol, 1.0)


class TestOdeCrosscheck:
    def test_minkowski_instance(self):
        assert ode_crosscheck(RadialSolution(2, 1.0, 0.5, MINK)) <= 1e-10

    def test_zero_curvature_limit(self):
        # c -> 0: the flux variable stays identically zero
        sol = RadialSolution(2, 1.0, 1e-12, MINK)
        assert ode_crosscheck(sol, steps=2000) <= 1e-13

    def test_general_dimension(self):
        assert ode_crosscheck(RadialSolution(3, 2.0, 0.7, MINK)) <= 1e-10


TRANSPORT_PAIRS = [
    (Ellipse((0.2, 0.1), (1.0, 0.35)), Ellipse((0, 0), (0.9, 0.2))),
    (Ellipse((0.05, 0), (1.0, 0.8)), Ball((0.1, 0), 0.4)),
    (Ball((0, 0), 0.4), Ellipse((0.3, -0.2), (0.5, 0.25))),
    (Ellipse((0, 0), (1.0, 0.5)), Ellipse((0, 0), (0.45, 0.9))),
]
TRANSPORT_IDS = ["thin", "ellipse_ball", "ball_ellipse", "crossed"]


def _quadric_matrix(dom):
    """T = A / 2 h_max: the domain is (x - x0)^T T (x - x0) < 1."""
    return dom.quadric()[1] / (2.0 * dom.h_max)


class TestTransportSeed:
    """The non-ball seed: the linear transport map between the quadrics."""

    @pytest.mark.parametrize("om, omt", TRANSPORT_PAIRS, ids=TRANSPORT_IDS)
    def test_hessian_carries_one_quadric_onto_the_other(self, om, omt):
        m = transport_hessian(om, omt)
        t, s = _quadric_matrix(om), _quadric_matrix(omt)
        assert np.array_equal(m, m.T)
        assert np.min(np.linalg.eigvalsh(m)) > 0
        assert np.max(np.abs(m @ s @ m - t)) <= 1e-13 * np.max(np.abs(t))

    def test_hessian_at_the_radius_extremes(self):
        # det T and det S would overflow here; the scaled closed form does not
        om, omt = Ellipse((0, 0), (1e-90, 3e-90)), Ellipse((0, 0), (2e90, 1e90))
        m = transport_hessian(om, omt)
        t, s = _quadric_matrix(om), _quadric_matrix(omt)
        assert np.all(np.isfinite(m))
        assert np.max(np.abs(m @ (s @ m) - t)) <= 1e-13 * np.max(np.abs(t))

    @pytest.mark.parametrize("om, omt", TRANSPORT_PAIRS, ids=TRANSPORT_IDS)
    @pytest.mark.parametrize("model", [MINK, EUC])
    def test_boundary_gradients_on_target_boundary(self, om, omt, model):
        # Du_0 maps the boundary of omega onto that of omega_tilde, and the
        # least-squares recovery is exact on quadratics
        grid = build_grid(om, 16, 32)
        fld = seed_field(ProblemSpec(om, omt, model, grid))
        du, d2u = fld.derivatives()
        h, _, _ = omt.defining(du[grid.boundary_idx])
        assert np.max(np.abs(h)) <= 1e-12 * omt.diameter()
        assert np.max(np.abs(d2u - transport_hessian(om, omt))) <= 1e-10

    @pytest.mark.parametrize("om, omt", TRANSPORT_PAIRS, ids=TRANSPORT_IDS)
    def test_dual_seed_hessian_is_inverse(self, om, omt):
        # the dual solve swaps the domains: the same formula gives M^-1
        grid = build_grid(omt, 16, 32)
        spec = ProblemSpec(omt, om, EUC, grid, operator=OperatorKind.INVERSE_HESSIAN)
        _, d2u = seed_field(spec).derivatives()
        m_inv = np.linalg.inv(transport_hessian(om, omt))
        assert np.max(np.abs(d2u - m_inv)) <= 1e-10 * np.max(np.abs(m_inv))

    def test_constant_is_quadrature_mean(self):
        om, omt = TRANSPORT_PAIRS[0]
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        fld = seed_field(spec)
        g = assembly.operator_value(spec, grid.nodes, *fld.derivatives())
        w = grid.quad_weights
        assert fld.c == pytest.approx(w @ g / np.sum(w), rel=1e-14)


class TestSeedField:
    def test_concentric_residual_small(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        fld = seed_field(spec)
        assert np.max(np.abs(residual(spec, fld))) < 1e-2

    def test_offcenter_image(self):
        om, omt = Ball((0, 0), 1.0), Ball((0.2, 0), 0.3)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        fld = seed_field(spec)
        du, _ = fld.derivatives()
        centers = du[grid.boundary_idx] - np.array([0.2, 0.0])
        assert np.allclose(np.linalg.norm(centers, axis=-1), 0.3, atol=1e-3)

    def test_quadratic_branch_image_inside(self):
        om, omt = Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        fld = seed_field(spec)
        du, _ = fld.derivatives()
        h_img, _, _ = omt.defining(du)
        assert np.min(h_img) > -omt.boundary_tol()

    def test_forced_quadratic_strategy(self):
        # on a ball pair the transport seed is the isotropic quadratic with
        # Hessian (r_tilde / r) I
        for om, omt in ((Ball((0, 0), 1.0), Ball((0, 0), 0.5)),
                        (Ball((0.3, -0.1), 2.0), Ball((0.1, 0.2), 0.3))):
            spec = ProblemSpec(om, omt, MINK, build_grid(om, 16, 32))
            _, d2u = seed_field(spec, strategy="quadratic").derivatives()
            assert np.max(np.abs(d2u - omt.radius / om.radius * np.eye(2))) < 1e-10

    @pytest.mark.parametrize("center,radius", [((1e5, 0), 1.0), ((10, 0), 1e-4)])
    def test_far_center_boundary_roundoff(self, center, radius):
        # |center| / radius >= 1e4: boundary nodes round past the range
        # check of radial_profile by more than its 1e-12 slack
        om = Ball(center, radius)
        spec = ProblemSpec(om, Ball((0, 0), 0.5), MINK, build_grid(om, 8, 16))
        fld = seed_field(spec)
        assert np.all(np.isfinite(fld.u))

    @pytest.mark.parametrize("strategy", ["auto", "quadratic"])
    def test_seed_checks_the_spec_convexity_guard(self, strategy, monkeypatch):
        # a guard above the seed's eigenvalue ratio rejects it: the seed is
        # held to the guard the solve enforces
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        spec = ProblemSpec(om, omt, MINK, build_grid(om, 16, 32))
        _, d2u = seed_field(spec, strategy=strategy).derivatives()
        eigs = np.linalg.eigvalsh(d2u)
        monkeypatch.setattr(assembly, "CONVEXITY_RTOL",
                            2.0 * np.min(eigs) / np.max(eigs))
        with pytest.raises(SeedFailure):
            seed_field(spec, strategy=strategy)

    @pytest.mark.parametrize("radius", [1e-6, 1.0, 1e8, 1e10])
    def test_radial_seed_admissible_at_any_scale(self, radius):
        # D^2u scales like the target radius over the domain radius; the
        # guard is relative, so the exact seed passes at every size
        om = Ball((0, 0), radius)
        spec = ProblemSpec(om, Ball((0, 0), 0.5), MINK, build_grid(om, 8, 16))
        fld = seed_field(spec)
        assert admissibility_violation(spec, *fld.derivatives()) is None

    def test_unknown_strategy(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        with pytest.raises(ValueError):
            seed_field(spec, strategy="nope")
