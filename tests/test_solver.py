import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from cmcsolve import (Ball, Ellipse, ModelKind, OperatorKind, ProblemSpec,
                      SolutionField, SolveOptions, build_grid, damped_step,
                      jacobian, lambda_bounds, newton_solve, run_homotopy,
                      seed_field, solver)
from cmcsolve.assembly import residual
from cmcsolve.diagnostics import flux_identity
from cmcsolve.errors import ConvexityLoss, NonConvergence
from cmcsolve.grid import MappedGrid
from conftest import C_RADIAL, C_RADIAL_EUC, MINK, EUC, solve_direct
from helpers import field_state, quadric_domains, sampled_auto_t_min


class TestNewtonSolve:
    def test_radial_seed_converges_fast(self, radial_32):
        spec, fld, info = radial_32
        assert info.converged
        assert info.iterations <= 3
        assert abs(fld.c - C_RADIAL) <= 1e-3

    def test_full_steps_near_solution(self, radial_32):
        _, _, info = radial_32
        assert all(a == 1.0 for a in info.alphas)

    def test_two_initial_guesses_agree(self, radial_32):
        spec, f1, _ = radial_32
        grid = spec.grid
        quad = SolutionField(grid,
                             grid.mean_zero(0.5 * 0.45 *
                                            np.sum(grid.nodes ** 2, axis=-1)),
                             0.9, MINK)
        f2, _ = newton_solve(spec, quad)
        u1 = grid.mean_zero(f1.u)
        u2 = grid.mean_zero(f2.u)
        assert np.max(np.abs(u1 - u2)) <= 1e-6
        assert abs(f1.c - f2.c) <= 1e-6

    def test_euclidean_radial(self):
        _, fld, _ = solve_direct(Ball((0, 0), 1.0), Ball((0, 0), 1.0), EUC)
        assert abs(fld.c - C_RADIAL_EUC) <= 2e-3

    def test_guards_hold_at_solution(self, radial_32):
        spec, fld, _ = radial_32
        du, d2u = fld.derivatives()
        lam_min = np.min(np.linalg.eigvalsh(d2u))
        assert lam_min >= 1e-8
        assert np.max(np.linalg.norm(du, axis=-1)) <= 1.0 - 1e-6
        assert abs(spec.grid.quad_weights @ fld.u) <= 1e-10

    def test_rejects_inadmissible_initial(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        saddle = SolutionField(grid, grid.mean_zero(
            0.2 * grid.nodes[:, 0] ** 2 - 0.2 * grid.nodes[:, 1] ** 2), 0.0, MINK)
        with pytest.raises(ConvexityLoss):
            newton_solve(spec, saddle)

    def test_nonconvergence_carries_best_iterate(self):
        om, omt = Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        with pytest.raises(NonConvergence) as err:
            newton_solve(spec, seed_field(spec), SolveOptions(max_newton=1))
        assert err.value.best_field is not None
        assert err.value.residual_norm > 0

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tol_residual=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"tol_residual": float("nan")}, {"eps_space": float("inf")},
        {"eps_convexity": 0.0}, {"max_newton": 2.5}, {"max_newton": float("nan")},
        {"max_newton": 0},
    ])
    def test_options_must_be_finite_positive(self, kwargs):
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)

    def test_each_iterate_differentiated_once(self, monkeypatch):
        # the initial field's state is computed once, every later one comes
        # from the line search: k + 1 recoveries for a k-iteration solve
        om, omt = Ball((0, 0), 1.0), Ball((0.2, 0), 0.3)
        spec = ProblemSpec(om, omt, MINK, build_grid(om, 16, 32))
        initial = seed_field(spec)
        calls = {"derivative_arrays": 0, "boundary_gradients": 0}
        for name in calls:
            real = getattr(MappedGrid, name)

            def counting(self, u, real=real, name=name):
                calls[name] += 1
                return real(self, u)

            monkeypatch.setattr(MappedGrid, name, counting)
        fld, info = newton_solve(spec, initial)
        assert info.converged and info.iterations >= 2
        assert calls == {"derivative_arrays": info.iterations + 1,
                         "boundary_gradients": info.iterations + 1}


def _singular_splu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


class _NanLU:
    def solve(self, rhs):
        return np.full_like(rhs, np.nan)


class TestLinearSolve:
    @pytest.fixture()
    def lu_fills(self, monkeypatch):
        """L + U entries of every factor made through solver.splu."""
        fills = []
        real_splu = solver.splu

        def recording_splu(*args, **kwargs):
            lu = real_splu(*args, **kwargs)
            fills.append(lu.L.nnz + lu.U.nnz)
            return lu

        monkeypatch.setattr(solver, "splu", recording_splu)
        return fills

    def test_concentric_fill(self, lu_fills):
        # the dense mean-zero row and c column must not spread fill over
        # the whole factor (COLAMD on A^T A: 1.18 M entries at 32x64)
        _, fld, _ = solve_direct(Ball((0, 0), 1.0), Ball((0, 0), 0.5), MINK)
        assert abs(fld.c - C_RADIAL) <= 1e-3
        assert lu_fills and max(lu_fills) <= 400_000

    @pytest.mark.parametrize("model, operator", [
        (MINK, OperatorKind.GRAPH),
        (EUC, OperatorKind.GRAPH),
        (MINK, OperatorKind.INVERSE_HESSIAN),
    ])
    def test_direction_solves_newton_system(self, model, operator):
        om, omt = Ellipse((0.05, 0), (1.0, 0.8)), Ball((0.1, 0), 0.4)
        if operator is OperatorKind.INVERSE_HESSIAN:
            om, omt = omt, om
        grid = build_grid(om, 32, 64)
        spec = ProblemSpec(om, omt, model, grid, operator=operator)
        fld = seed_field(spec)
        jac, res = jacobian(spec, *field_state(fld)), residual(spec, fld)
        direction = solver._solve_linear(jac, -res)
        r_inf = np.max(np.abs(res))
        assert r_inf > 1e-6   # a real Newton step, not a converged field
        assert np.max(np.abs(jac @ direction + res)) <= 1e-10 * (1.0 + r_inf)

    @pytest.mark.parametrize("fake_splu, reason", [
        (_singular_splu, "linear solve failed"),
        (lambda *a, **k: _NanLU(), "non-finite Newton direction"),
    ], ids=["singular", "nan"])
    def test_failure_is_nonconvergence(self, monkeypatch, fake_splu, reason):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        initial = seed_field(spec)
        monkeypatch.setattr(solver, "splu", fake_splu)
        with pytest.raises(NonConvergence, match=reason) as err:
            newton_solve(spec, initial, t_label=0.5)
        assert np.array_equal(err.value.best_field.u, grid.mean_zero(initial.u))
        assert err.value.iterations == 0
        assert err.value.t == 0.5
        assert np.isfinite(err.value.residual_norm)

    def test_nonfinite_residual_is_nonconvergence(self, monkeypatch):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        spec = ProblemSpec(om, omt, MINK, build_grid(om, 16, 32))
        initial = seed_field(spec)
        monkeypatch.setattr(solver, "residual_from_state",
                            lambda spec, *args: np.full(spec.grid.n_nodes + 1, np.nan))
        with pytest.raises(NonConvergence, match="non-finite residual"):
            newton_solve(spec, initial)

    def test_homotopy_bisects_on_failed_factor(self, monkeypatch):
        # the first factor of the second step fails once: the step is
        # bisected and the walk still reaches t = 1
        real_newton, real_splu = solver.newton_solve, solver.splu
        calls = {"newton": 0, "failed": False}

        def counting_newton(*args, **kwargs):
            calls["newton"] += 1
            return real_newton(*args, **kwargs)

        def failing_splu(*args, **kwargs):
            if calls["newton"] == 2 and not calls["failed"]:
                calls["failed"] = True
                _singular_splu()
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", counting_newton)
        monkeypatch.setattr(solver, "splu", failing_splu)
        omega = Ellipse((0, 0), (1.0, 0.8))
        spec = ProblemSpec(omega, Ball((0, 0), 0.4), MINK, build_grid(omega, 16, 32))
        fld, history = run_homotopy(spec, steps=2, t_min=0.5)
        assert calls["failed"]
        assert [h.t for h in history] == [0.5, 0.75, 1.0]


class TestDampedStep:
    @pytest.fixture()
    def setup(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        fld = seed_field(spec)
        res = residual(spec, fld)
        return spec, fld, res

    def test_overscaled_direction_damped(self, setup):
        spec, fld, res = setup
        n = spec.grid.n_nodes
        direction = np.zeros(n + 1)
        direction[:n] = 100.0 * spec.grid.mean_zero(spec.grid.nodes[:, 0] ** 2)
        direction[n] = -50.0
        opts = SolveOptions()
        alpha, trial, _, _ = damped_step(spec, fld, field_state(fld), direction, opts,
                                         float(np.linalg.norm(res)))
        assert alpha < 1.0
        du, d2u = trial.derivatives()
        assert np.min(np.linalg.eigvalsh(d2u)) >= opts.eps_convexity
        assert np.max(np.linalg.norm(du, axis=-1)) < 1.0

    def test_lightcone_pushing_direction(self, setup):
        # a direction that would drive |Du| to 1 must be cut back by the
        # spacelike guard before any residual decrease is even considered.
        # The Newton direction plus 2x leaves the light cone at alpha = 1
        # and descends for small alpha; 2x alone does not descend (on the
        # radial seed its first-order change of |res| vanishes by symmetry),
        # so an Armijo step would exist only by roundoff
        spec, fld, res = setup
        n = spec.grid.n_nodes
        direction = spsolve(jacobian(spec, *field_state(fld)).tocsc(), -res)
        direction[:n] += 2.0 * spec.grid.nodes[:, 0]
        trial_full = SolutionField(spec.grid, fld.u + direction[:n],
                                   fld.c, fld.model)
        du, _ = trial_full.derivatives()
        assert np.max(np.linalg.norm(du, axis=-1)) > 1.0
        alpha, trial, _, _ = damped_step(spec, fld, field_state(fld), direction,
                                         SolveOptions(), float(np.linalg.norm(res)))
        du, _ = trial.derivatives()
        assert np.max(np.linalg.norm(du, axis=-1)) < 1.0 - 1e-6


@settings(max_examples=100, deadline=None)
@given(omega=quadric_domains(), omega_tilde=quadric_domains(),
       n_rho=st.integers(8, 400))
@example(omega=Ball((0, 0), 0.1), omega_tilde=Ball((0, 0), 3.0), n_rho=12)
def test_auto_t_min_matches_sampled_reference(omega, omega_tilde, n_rho):
    t = solver.auto_t_min(omega, omega_tilde, n_rho)
    t_ref = sampled_auto_t_min(omega, omega_tilde, n_rho)
    if t != t_ref:
        # only at an exact tie, where the requirement falls on a lattice
        # point and the sampled radii round to either side of it
        ratio = max(r_out / r_in for r_in, r_out in (omega.radii(), omega_tilde.radii()))
        need = (max(6.0 / n_rho, 2e-2) * ratio) ** 2
        assert abs(t - t_ref) == pytest.approx(0.05)
        assert min(t, t_ref) == pytest.approx(need, rel=1e-12)


class TestHomotopy:
    def test_ball_pair_single_step(self):
        omega = Ball((0, 0), 1.0)
        spec = ProblemSpec(omega, Ball((0, 0), 0.5), MINK, build_grid(omega, 32, 64))
        fld, history = run_homotopy(spec, t_min=1.0)
        assert len(history) == 1
        assert abs(fld.c - C_RADIAL) <= 1e-3

    def test_steps_are_dilated_super_level_pairs(self):
        # dilating the domain is a symmetry of the graph problem: the step
        # at t solves the super-level pair (omega_t, omega_tilde_t) scaled
        # back onto omega, whose constant is sqrt(t) times that pair's
        omega, omega_tilde = Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4)
        spec = ProblemSpec(omega, omega_tilde, MINK, build_grid(omega, 16, 32))
        _, history = run_homotopy(spec, steps=3, t_min=0.5)
        assert [h.t for h in history] == [0.5, 0.75, 1.0]
        for state in history:
            om_t = omega.sublevel(state.t)
            spec_t = ProblemSpec(om_t, omega_tilde.sublevel(state.t), MINK,
                                 build_grid(om_t, 16, 32))
            fld_t, _ = newton_solve(spec_t, seed_field(spec_t))
            assert state.field.c / np.sqrt(state.t) == pytest.approx(fld_t.c, rel=1e-9)

    def test_ellipse_to_ball(self, ci_instances):
        spec, fld, history = ci_instances["ellipse_ball"]
        assert history[-1].t == 1.0
        assert all(h.newton_iterations <= 15 for h in history)
        assert len(history) <= 12 + 4  # schedule plus possible bisections

    def test_c_history_within_integral_bounds(self, ci_instances):
        # at every continuation step the solved constant obeys the
        # area/perimeter bounds of the pair it solved, (omega, omega_tilde_t),
        # up to the discretization slack measured by the flux identity
        for name in ("ellipse_ball", "ball_ellipse"):
            spec, _, history = ci_instances[name]
            for state in history:
                lam1, lam2 = lambda_bounds(spec.omega, state.omega_tilde_t, MINK)
                spec_t = ProblemSpec(spec.omega, state.omega_tilde_t, MINK,
                                     state.field.grid)
                slack = 3.0 * flux_identity(spec_t, state.field) * abs(state.field.c)
                c = state.field.c
                assert lam1 - slack <= c <= lam2 + slack

    def test_warm_start_iteration_budget(self, ci_instances):
        for name in ("ellipse_ball", "ball_ellipse"):
            _, _, history = ci_instances[name]
            assert all(h.newton_iterations <= 15 for h in history[1:])

    def test_c_history_recorded(self, ci_instances):
        _, _, history = ci_instances["ellipse_ball"]
        assert history[-1].c_history == [(h.t, h.field.c) for h in history]
