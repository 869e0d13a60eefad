import warnings

import numpy as np
import pytest

from cmcsolve import (Ball, Ellipse, ModelKind, ProblemSpec, RadialSolution,
                      build_grid, ode_crosscheck, radial_constant,
                      radial_profile, seed_field)
from cmcsolve.assembly import residual
from cmcsolve.errors import SeedFailure

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


class TestOdeCrosscheck:
    def test_minkowski_instance(self):
        assert ode_crosscheck(RadialSolution(2, 1.0, 0.5, MINK)) <= 1e-10

    def test_zero_curvature_limit(self):
        # c -> 0: the flux variable stays identically zero
        sol = RadialSolution(2, 1.0, 1e-12, MINK)
        assert ode_crosscheck(sol, steps=2000) <= 1e-13

    def test_general_dimension(self):
        assert ode_crosscheck(RadialSolution(3, 2.0, 0.7, MINK)) <= 1e-10


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
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        fld = seed_field(spec, strategy="quadratic")
        _, d2u = fld.derivatives()
        # pure quadratic: constant Hessian across the grid
        assert np.max(np.abs(d2u - d2u[0])) < 1e-10

    def test_unknown_strategy(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        with pytest.raises(ValueError):
            seed_field(spec, strategy="nope")
