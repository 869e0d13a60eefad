import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import NdBSpline, make_interp_spline
from scipy.spatial import cKDTree

import cmcsolve
from cmcsolve import (Ball, Ellipse, ModelKind, OperatorKind, ProblemSpec,
                      SolutionField, build_grid, duality, solver)
from cmcsolve.assembly import operator_value
from cmcsolve.diagnostics import flux_identity
from cmcsolve.duality import (FieldInterpolant, dual_residual, dual_solve,
                              legendre_transform)
from cmcsolve.errors import InversionFailure, NonConvergence
from cmcsolve.grid import lattice_spline
from cmcsolve.kernel import mean_curvature
from cmcsolve.radial import RadialSolution, radial_profile, seed_field
from cmcsolve.solver import newton_solve, run_homotopy
from conftest import C_RADIAL, EUC, MINK
from helpers import (RotatedQuadric, coefficient_matrix, grid_tolerance,
                     uncapped_invert_gradient, whole_lattice_transform)


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

    def test_gaps_are_the_residuals_at_the_points(self, ci_instances):
        # the inversion keeps the residual of each accepted line-search
        # trial instead of evaluating the gradient there again
        _, fld, _ = ci_instances["ellipse_ball"]
        interp = FieldInterpolant(fld)
        y = build_grid(Ball((0, 0), 0.4), 32, 64).nodes
        x, gaps = duality.invert_gradient(interp, y)
        assert np.array_equal(gaps, np.linalg.norm(interp.gradient(x) - y, axis=-1))

    def test_nodal_start_is_closer_than_the_nearest_node(self, ci_instances):
        _, fld, _ = ci_instances["ellipse_ball"]
        interp = FieldInterpolant(fld)
        y = build_grid(Ball((0, 0), 0.4), 32, 64).nodes
        nodes = fld.grid.nodes
        nearest = nodes[cKDTree(interp.gradient(nodes)).query(y)[1]]
        start = duality._nodal_start(interp, y)

        def worst(x):
            return np.max(np.linalg.norm(interp.gradient(x) - y, axis=-1))

        assert worst(start) <= 0.05 * worst(nearest)

    def test_nodal_start_keeps_the_points(self, ci_instances, monkeypatch):
        # reference: the damped Newton run from the node whose spline
        # gradient is nearest each target
        _, fld, _ = ci_instances["ellipse_ball"]
        interp = FieldInterpolant(fld)
        y = build_grid(Ball((0, 0), 0.4), 32, 64).nodes
        x, _ = duality.invert_gradient(interp, y)

        def nearest_node(interp, targets, candidates=None):
            nodes = interp.grid.nodes
            return nodes[cKDTree(interp.gradient(nodes)).query(targets)[1]]

        monkeypatch.setattr(duality, "_nodal_start", nearest_node)
        x_ref, _ = duality.invert_gradient(interp, y)
        assert np.max(np.abs(x - x_ref)) <= 1e-10

    # Du = -x sends the disc onto itself, so the targets past rho_max cannot
    # be reached; x^3/3 + y^2/2 has no gradient with a negative first
    # component.  Neither has a positive definite Hessian at every node.
    @pytest.mark.parametrize("u, target", [
        (lambda x: -0.5 * np.sum(x ** 2, axis=-1), Ball((0, 0), 1.5)),
        (lambda x: x[:, 0] ** 3 / 3 + 0.5 * x[:, 1] ** 2, Ball((0, 0), 0.5))])
    def test_non_convex_field_fails_inversion(self, u, target):
        grid = build_grid(Ball((0, 0), 1.0), 16, 32)
        fld = SolutionField(grid, grid.mean_zero(u(grid.nodes)), 1.0, MINK)
        dual_grid = build_grid(target, 16, 32)
        y = dual_grid.nodes
        # a target whose nearest node's Hessian is clearly indefinite or
        # negative definite starts at that node
        interp = FieldInterpolant(fld)
        k = cKDTree(interp.nodal_du).query(y)[1]
        h = interp.nodal_d2u[k]
        bad = (h[:, 0, 0] < -1e-8) | (h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] ** 2 < -1e-8)
        assert np.any(bad)
        assert np.array_equal(duality._nodal_start(interp, y)[bad], grid.nodes[k[bad]])
        with pytest.raises(InversionFailure):
            legendre_transform(fld, dual_grid)

    @pytest.mark.parametrize("case, calls, uncapped_calls", [
        ("minkowski-b0.2-flat", 13, 30), ("ellipse-ball", 2, 2), ("zero-field", 1, 30)])
    def test_stalled_targets_stop_iterating(self, monkeypatch, case, calls, uncapped_calls):
        # a target whose gap an iteration leaves unchanged is given up: the
        # panel pair Minkowski Ellipse((0.2, 0.1), (1, 0.2)) -> Ellipse(0,
        # (0.9, 0.2)) keeps one stalled target, and u = 0 stalls every one
        # at once (its steps are NaN).  Points and gaps equal, bit for bit,
        # those of the inversion that iterates every target above the
        # tolerance to the cap; only Newton iterations, counted as calls of
        # the iteration's Jacobian, are saved
        if case == "zero-field":
            grid = build_grid(Ball((0, 0), 1.0), 12, 24)
            fld = SolutionField(grid, np.zeros(grid.n_nodes), 0.0, MINK)
            y = np.array([[0.1, 0.2], [0.3, 0.0]])
        else:
            omega, target = {
                "minkowski-b0.2-flat": (Ellipse((0.2, 0.1), (1.0, 0.2)),
                                        Ellipse((0, 0), (0.9, 0.2))),
                "ellipse-ball": (Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4))}[case]
            spec = ProblemSpec(omega, target, MINK, build_grid(omega, 32, 64))
            fld, _ = newton_solve(spec, seed_field(spec))
            y = build_grid(target, 32, 64).nodes
        interp = FieldInterpolant(fld)
        counted, hessian = [], FieldInterpolant.hessian
        monkeypatch.setattr(FieldInterpolant, "hessian",
                            lambda self, x: counted.append(len(x)) or hessian(self, x))
        x, gaps = duality.invert_gradient(interp, y)
        assert len(counted) == calls
        counted.clear()
        x_ref, gaps_ref = uncapped_invert_gradient(interp, y)
        assert len(counted) == uncapped_calls
        assert x.tobytes() == x_ref.tobytes() and gaps.tobytes() == gaps_ref.tobytes()
        if case == "minkowski-b0.2-flat":
            assert np.max(gaps) == pytest.approx(2.98e-4, rel=5e-3)

    def test_singular_hessian_step_is_refused(self):
        # u = 0 has D^2u = 0 exactly: every Newton step is NaN, which the
        # line search refuses, so each point keeps its gap |y|
        grid = build_grid(Ball((0, 0), 1.0), 12, 24)
        interp = FieldInterpolant(SolutionField(grid, np.zeros(grid.n_nodes), 0.0, MINK))
        y = np.array([[0.1, 0.2], [0.3, 0.0]])
        _, gaps = duality.invert_gradient(interp, y)
        assert np.array_equal(gaps, np.linalg.norm(y, axis=-1))

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
        assert np.max(np.abs(back - pts)) <= 2.0 * grid_tolerance(spec.grid)

    def test_hessian_reciprocity(self, radial_32):
        spec, fld, _ = radial_32
        dual_grid = build_grid(spec.omega_tilde, 32, 64)
        dual = legendre_transform(fld, dual_grid)
        interp_d = FieldInterpolant(dual)
        du, d2u = fld.derivatives()
        mask = spec.grid.interior_mask.copy()
        mask[0] = False
        d2u_dual = interp_d.hessian(du[mask])
        rec = np.linalg.det(d2u[mask]) * np.linalg.det(d2u_dual)
        assert np.max(np.abs(rec - 1.0)) < 0.05

    def test_double_transform_recovers_field(self, radial_32):
        spec, fld, _ = radial_32
        dual_grid = build_grid(spec.omega_tilde, 32, 64)
        dual = legendre_transform(fld, dual_grid)
        back = legendre_transform(dual, spec.grid)
        grid = spec.grid
        diff = grid.mean_zero(back.u) - grid.mean_zero(fld.u)
        assert np.max(np.abs(diff)) <= 5.0 * grid_tolerance(grid)

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


def test_peak_maps_to_ray_zero():
    # x - peak has no direction at the peak: the polar map takes ray 0
    # there, as arctan2(0, 0) = 0 does, and the gradient is the pole's
    dom = Ellipse((0.1, 0.4), (1.2, 0.5))
    grid = build_grid(dom, 12, 24)
    u = 0.5 * np.sum(grid.nodes ** 2, axis=-1)   # Du(x) = x
    interp = FieldInterpolant(SolutionField(grid, grid.mean_zero(u), 0.0, MINK))
    rho, phi = interp.params_of(dom.peak[None])
    assert (rho[0], phi[0]) == (0.0, 0.0)
    assert np.allclose(interp.gradient(dom.peak[None])[0], dom.peak, rtol=0, atol=1e-6)


@functools.cache
def _panel_interpolant():
    # the panel's minkowski-b0.35-offset pair, solved directly at 32 x 64
    omega = Ellipse((0.2, 0.1), (1.0, 0.35))
    spec = ProblemSpec(omega, Ellipse((0.3, -0.2), (0.5, 0.25)), MINK, build_grid(omega, 32, 64))
    return FieldInterpolant(newton_solve(spec, seed_field(spec))[0])


class TestHessian:
    def test_is_the_derivative_of_the_gradient(self):
        # at the lattice cell centres from rho = 1/4 outward the central
        # difference of the gradient (h = 1e-5) is 5.4e-8 relative from the
        # Hessian, an error that falls as h^2; centres keep the difference
        # off the knots, where the spline's third derivatives jump
        interp = _panel_interpolant()
        grid = interp.grid
        i, j = np.meshgrid(np.arange(8, grid.n_rho), np.arange(grid.n_phi), indexing="ij")
        rho, phi = (grid.rho[i] + grid.rho[i + 1]) / 2, grid.phi[j] + np.pi / grid.n_phi
        xi = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=-1).reshape(-1, 2)
        x = interp.peak + xi @ grid.disk_map.T
        h = 1e-5
        fd = np.stack([(interp.gradient(x + h * e) - interp.gradient(x - h * e)) / (2 * h)
                       for e in np.eye(2)], axis=-1)
        hess = interp.hessian(x)
        assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(hess))

    def test_peak_takes_the_pole_node(self):
        # the polar map is singular at the peak: the Hessian there is the
        # pole node's nodal one
        interp = _panel_interpolant()
        assert np.array_equal(interp.hessian(interp.peak[None])[0], interp.nodal_d2u[0])


class TestPeriodicInterpolant:
    def test_gradient_continuous_across_seam(self, ci_instances):
        _, fld, _ = ci_instances["ellipse_ball"]
        interp = FieldInterpolant(fld)
        phi = np.array([1e-13, -1e-13])
        rb = interp.grid.domain.boundary_radius(np.mod(phi, 2 * np.pi))
        e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        for r in (0.3, 0.75, 0.95):
            g = interp.gradient(interp.peak + r * rb[:, None] * e)
            assert np.max(np.abs(g[0] - g[1])) <= 1e-11

    def test_matches_periodic_reference_fit(self):
        # the numpy fit equals scipy's in values and partials up to order 2:
        # periodic interpolation in phi, not-a-knot in rho, evaluated past
        # rho = 1 and at phi = 2 pi in the last interval as NdBSpline does;
        # n_phi = 18 is 2 mod 4
        for n_rho, n_phi in ((16, 32), (32, 64), (16, 18)):
            self._check_reference_fit(build_grid(Ellipse((0.1, -0.2), (1.0, 0.6)), n_rho, n_phi))

    @staticmethod
    def _check_reference_fit(grid):
        x, y = grid.nodes.T
        f = np.exp(0.5 * x) * np.cos(y) + x * y ** 2
        rng = np.random.default_rng(7)
        rho_max = 1.0 + duality.EXTENSION_CELLS / grid.n_rho
        pts = np.stack([rng.uniform(0, rho_max, 500),
                        rng.uniform(0, 2 * np.pi, 500)], axis=-1)
        ends = np.array([[0.0, 0.0], [0.0, 2 * np.pi], [rho_max, 0.0], [rho_max, 2 * np.pi],
                         [0.5, 0.0], [0.5, 2 * np.pi], [0.0, 1.0], [rho_max, 1.0]])
        pts = np.concatenate([ends, pts])
        phi = np.append(grid.phi, 2 * np.pi)
        for values in (f, np.stack([f, x * y, np.cos(3 * x) * y], axis=-1)):
            arr = grid.to_param_array(values)
            fit_phi = make_interp_spline(phi, np.concatenate([arr, arr[:, :1]], axis=1),
                                         k=3, bc_type="periodic", axis=1)
            fit_rho = make_interp_spline(grid.rho, np.moveaxis(fit_phi.c, 0, 1), k=3, axis=0)
            ref = NdBSpline((fit_rho.t, fit_phi.t), fit_rho.c, 3)
            spl = lattice_spline(grid, arr)
            # second partials differ from the reference by up to 1.6e-11
            # (at 32 x 64), the rest by up to 7.9e-13
            for nu in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                out = spl.partials(pts, [nu])[0]
                assert out.shape == pts.shape[:1] + arr.shape[2:]
                assert np.max(np.abs(out - ref(pts, nu=nu))) <= (1e-10 if sum(nu) == 2 else 1e-12)
            # the fused gradient is the two single-partial calls
            d_rho, d_phi = spl.partials(pts, [(1, 0), (0, 1)])
            assert np.array_equal(d_rho, spl.partials(pts, [(1, 0)])[0])
            assert np.array_equal(d_phi, spl.partials(pts, [(0, 1)])[0])

    def test_transform_and_transfer_leave_out_scipy_interpolate(self):
        # the spline is numpy and scipy.linalg: neither the Legendre
        # transform nor a transfer between resolutions may import the
        # interpolation stack
        src = str(Path(cmcsolve.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        script = (
            "import sys\n"
            "from cmcsolve import (Ball, Ellipse, ModelKind, ProblemSpec, build_grid,\n"
            "                      legendre_transform, newton_solve, seed_field, transfer_field)\n"
            "omega, target = Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4)\n"
            "spec = ProblemSpec(omega, target, ModelKind.MINKOWSKI, build_grid(omega, 16, 32))\n"
            "fld, _ = newton_solve(spec, seed_field(spec))\n"
            "legendre_transform(fld, build_grid(target, 16, 32))\n"
            "transfer_field(fld, build_grid(omega, 32, 64))\n"
            "print('scipy.interpolate' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"


@functools.cache
def _ellipse_grid():
    return build_grid(Ellipse((0, 0), (1.0, 0.8)), 32, 64)


@settings(max_examples=20, deadline=None)
@given(bx=st.floats(-0.02, 0.02), by=st.floats(-0.02, 0.02))
@example(bx=-0.02, by=1e-7)
@example(bx=1.1125369292536007e-308, by=-0.005115663487844067)
def test_transform_of_shifted_quadratic(bx, by):
    # u = 0.2 |x|^2 + b . x maps the ellipse onto its 0.4-scaled copy about
    # b, and transforms to |y - b|^2 / 0.8; a dual node on the target's
    # centre line inverts onto the phi = 0 seam.  A subnormal bx leaves a
    # point whose |xi| underflows to 0 though xi does not
    assume(np.hypot(bx, by) <= 0.02)
    b = np.array([bx, by])
    grid = _ellipse_grid()
    u = 0.2 * np.sum(grid.nodes ** 2, axis=-1) + grid.nodes @ b
    fld = SolutionField(grid, u, 0.0, MINK)
    dual_grid = build_grid(Ellipse(tuple(b), (0.4, 0.32)), 32, 64)
    dual = legendre_transform(fld, dual_grid)
    shift = dual.u - np.sum((dual_grid.nodes - b) ** 2, axis=-1) / 0.8
    assert np.max(shift) - np.min(shift) <= 1e-9


def test_off_centre_target_transforms(ci_instances):
    # ellipse -> off-centre ball: the transform's dual residual matches the
    # centred instance's
    omega = Ellipse((0, 0), (1.0, 0.8))
    target = Ball((-0.00494, 2.78e-5), 0.4)
    spec = ProblemSpec(omega, target, MINK, build_grid(omega, 32, 64))
    fld, _ = run_homotopy(spec)
    dual = legendre_transform(fld, build_grid(target, 32, 64))
    c_spec, c_fld, _ = ci_instances["ellipse_ball"]
    centred = legendre_transform(c_fld, build_grid(c_spec.omega_tilde, 32, 64))
    assert (np.max(np.abs(dual_residual(dual)))
            <= 1.1 * np.max(np.abs(dual_residual(centred))))


class TestHalfTurnTransform:
    """An even field on a dual grid centred at the origin is inverted at the
    representatives of the dual grid's symmetry only: the quarter's when the
    field is even under the mirrors too and both grids have a diagonal L,
    else the half turn's; the transform that inverts every node
    (helpers.whole_lattice_transform) is the oracle."""

    @pytest.fixture()
    def targets(self, monkeypatch):
        # the number of targets of every invert_gradient call
        counts, real = [], duality.invert_gradient
        monkeypatch.setattr(duality, "invert_gradient", lambda interp, y, *nodes:
                            counts.append(len(y)) or real(interp, y, *nodes))
        return counts

    @staticmethod
    @functools.cache
    def _solved(model):
        # direct quarter solves with omega off the origin, exactly even
        omega, target = {MINK: (Ellipse((0.03, -0.04), (1.0, 0.8)), Ball((0, 0), 0.4)),
                         EUC: (Ellipse((0.1, -0.2), (1.0, 0.6)),
                               Ellipse((0, 0), (0.9, 0.6)))}[model]
        spec = ProblemSpec(omega, target, model, build_grid(omega, 32, 64))
        return newton_solve(spec, seed_field(spec))[0], build_grid(target, 32, 64)

    @staticmethod
    def _assert_matches_whole(fld, dual_grid, images):
        dual = legendre_transform(fld, dual_grid)
        ref = whole_lattice_transform(fld, dual_grid)
        # measured 4.1e-16 - 5.5e-16
        assert np.max(np.abs(dual.u - ref.u)) <= 2e-15 * np.max(np.abs(ref.u))
        assert dual.c == ref.c and dual.dual
        # utilde - p . y is even: the images carry the linear term exactly
        even = dual.u - dual_grid.nodes @ fld.grid.domain.peak
        assert all(np.max(np.abs(even[m] - even)) <= 1e-15 for m in images)

    @pytest.mark.parametrize("model", [MINK, EUC])
    def test_even_field_inverts_the_representatives(self, targets, model):
        fld, dual_grid = self._solved(model)
        assert all(np.array_equal(fld.u[m], fld.u) for m in fld.grid.quarter.image)
        self._assert_matches_whole(fld, dual_grid, dual_grid.quarter.image)
        assert targets == [1 + 32 * 17]

    @pytest.mark.parametrize("case", ["half-turn-even", "rotated-dual-grid"])
    def test_half_turn_symmetry_inverts_half(self, targets, case):
        # a field even under the half turn only, or a dual grid whose L is
        # not diagonal, inverts the half turn's representatives
        fld, dual_grid = self._solved(MINK)
        if case == "half-turn-even":
            (image,), _, _ = fld.grid.half_turn
            x = fld.grid.nodes - fld.grid.domain.peak
            u = fld.u + 1e-3 * x[:, 0] * x[:, 1]
            fld = SolutionField(fld.grid, 0.5 * (u + u[image]), fld.c, fld.model)
            assert not np.array_equal(fld.u[fld.grid.quarter.image[1]], fld.u)
        else:
            dual_grid = build_grid(RotatedQuadric((0, 0), 0.1), 32, 64)   # inside Ball(0, 0.4)
            assert dual_grid.quarter is None
        self._assert_matches_whole(fld, dual_grid, dual_grid.half_turn.image)
        assert targets == [1 + 32 * 32]

    @pytest.mark.parametrize("case", ["one-ulp-odd", "dual-grid-off-centre"])
    def test_without_the_symmetry_every_node_is_inverted(self, targets, case):
        # either condition missing leaves the whole lattice, bit for bit
        fld, dual_grid = self._solved(MINK)
        if case == "one-ulp-odd":
            u = fld.u.copy()
            u[100] = np.nextafter(u[100], np.inf)
            fld = SolutionField(fld.grid, u, fld.c, fld.model)
        else:
            dual_grid = build_grid(Ball((0.01, 0), 0.35), 32, 64)
        dual = legendre_transform(fld, dual_grid)
        assert targets == [dual_grid.n_nodes]
        assert dual.u.tobytes() == whole_lattice_transform(fld, dual_grid).u.tobytes()


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
    def test_homotopy_on_inverse_hessian_spec(self):
        # the dual continuation of an off-centre Euclidean pair reaches t = 1
        # and agrees with the primal constant within the report's
        # dual-consistency bound
        omega, omega_tilde = Ball((1, 2), 2.0), Ellipse((0.1, 0), (0.5, 0.3))
        spec = ProblemSpec(omega, omega_tilde, EUC, build_grid(omega, 32, 64))
        fld, _ = newton_solve(spec, seed_field(spec))
        dual_spec = ProblemSpec(omega_tilde, omega, EUC,
                                build_grid(omega_tilde, 32, 64),
                                operator=OperatorKind.INVERSE_HESSIAN)
        dual, history = run_homotopy(dual_spec)
        assert history[-1].t == 1.0
        assert abs(dual.c + fld.c) <= 2.0 * flux_identity(spec, fld) * abs(fld.c)

    @pytest.mark.parametrize("b", [1.0, 0.6])
    def test_thin_target_euclidean(self, b):
        # the transport seed takes the dual of a thin target by direct
        # Newton; the isotropic seed lost convexity on the way.  The dual
        # lattice resolves the thin ellipse coarsely at 32 x 64, so the
        # constants agree to 2 %, not to the flux-identity bound
        omega, omega_tilde = Ellipse((0.2, 0.1), (1.0, b)), Ellipse((0, 0), (0.9, 0.2))
        spec = ProblemSpec(omega, omega_tilde, EUC, build_grid(omega, 32, 64))
        fld, _ = newton_solve(spec, seed_field(spec))
        dual, info = dual_solve(spec)
        assert info is not None
        assert np.min(np.linalg.eigvalsh(dual.derivatives()[1])) > 0
        assert abs(dual.c + fld.c) <= 0.02 * abs(fld.c)

    def test_falls_back_to_homotopy(self, radial_32, monkeypatch):
        spec, fld, _ = radial_32
        real = solver.newton_solve
        calls = []

        def fail_once(*args, **kwargs):
            # the direct solve has no t label; the walk's steps carry theirs
            if kwargs.get("t_label") is None:
                calls.append(args)
                if len(calls) == 1:
                    raise NonConvergence("forced failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", fail_once)
        dual, info = dual_solve(spec)
        assert len(calls) == 1
        assert info is None
        assert dual.dual
        assert abs(dual.c + fld.c) <= 2.0 * abs(fld.c - C_RADIAL)

    def test_translating_omega_adds_its_linear_term(self):
        # the dual's target is omega less its peak, so moving omega by q
        # leaves c as it is, bit for bit, and adds q . y to utilde, also
        # where omega_tilde is off the origin and the system is whole
        omega_tilde, q = Ball((0.1, 0), 0.4), np.array([0.05, -0.03])
        a, b = (dual_solve(ProblemSpec(omega, omega_tilde, MINK, build_grid(omega, 16, 32)))[0]
                for omega in (Ellipse((0, 0), (1.0, 0.8)), Ellipse(tuple(q), (1.0, 0.8))))
        assert a.c == b.c
        assert np.max(np.abs(b.u - a.grid.mean_zero(a.u + a.grid.nodes @ q))) <= 1e-15

    @pytest.mark.parametrize("omega, omega_tilde", [
        (Ball((0.3, -0.2), 1.0), Ball((0.1, 0), 0.5)),
        (Ellipse((0.2, 0.1), (1.0, 0.6)), Ellipse((0, 0), (0.9, 0.2)))],
        ids=["balls", "ellipses"])
    def test_recentred_target_matches_the_plain_dual(self, omega, omega_tilde):
        # the dual solved against omega less its peak, then given back p . y,
        # is the dual solved against omega itself, to roundoff: bx and by
        # differentiate p . y exactly.  The ellipses' recentred dual runs on
        # half the lattice, their plain dual on the whole
        spec = ProblemSpec(omega, omega_tilde, MINK, build_grid(omega, 32, 64))
        recentred, _ = dual_solve(spec)
        plain, _, _ = solver.direct_or_walk(ProblemSpec(
            omega_tilde, omega, MINK, build_grid(omega_tilde, 32, 64),
            operator=OperatorKind.INVERSE_HESSIAN))
        assert abs(recentred.c - plain.c) <= 1e-12 * abs(plain.c)
        assert np.max(np.abs(recentred.u - plain.u)) <= 1e-12 * np.max(np.abs(plain.u))

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
        assert np.max(np.abs(back - pts)) <= 5.0 * grid_tolerance(spec.grid)

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
