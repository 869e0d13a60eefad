from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from cmcsolve import (Ball, Ellipse, ModelKind, NewtonInfo, OperatorKind,
                      ProblemSpec, SolutionField, SolveOptions, build_grid,
                      damped_step, jacobian, lambda_bounds, newton_solve,
                      run_homotopy, seed_field, solver)
from cmcsolve.assembly import CONVEXITY_RTOL, residual
from cmcsolve.diagnostics import flux_identity
from cmcsolve.duality import dual_solve
from cmcsolve.errors import ConvexityLoss, NonConvergence, SpacelikeViolation
from cmcsolve.fieldio import load_field, save_field
from cmcsolve.grid import MappedGrid, transfer_field
from conftest import C_RADIAL, C_RADIAL_EUC, MINK, EUC, solve_direct
from helpers import (ZeroLU, factor_every_system, field_state, full_bordered_systems,
                     full_lu_solve, isotropic_seed, quadric_domains,
                     reference_factor_setup, sampled_auto_t_min)


class TestNewtonSolve:
    def test_radial_seed_converges_fast(self, radial_32):
        spec, fld, info = radial_32
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
        with pytest.raises(ConvexityLoss) as err:
            newton_solve(spec, saddle)
        # refused before any iteration: the record is empty and the best
        # iterate is the start
        assert err.value.state.info == NewtonInfo()
        assert np.array_equal(err.value.state.field.u, grid.mean_zero(saddle.u))

    def test_refusal_carries_its_t_label(self):
        # a guard's record is the state a stopped solve in a walk leaves:
        # it has the solve's t, 1.0 outside a walk
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        saddle = SolutionField(grid, grid.mean_zero(
            0.2 * grid.nodes[:, 0] ** 2 - 0.2 * grid.nodes[:, 1] ** 2), 0.0, MINK)
        with pytest.raises(ConvexityLoss) as err:
            newton_solve(spec, saddle, t_label=0.5)
        assert err.value.state.t == 0.5
        assert err.value.state.info == NewtonInfo()
        with pytest.raises(ConvexityLoss) as err:
            newton_solve(spec, saddle)
        assert err.value.state.t == 1.0

    def test_stalled_line_search_is_nonconvergence(self, monkeypatch):
        # no admissible step meets an unreachable Armijo decrease: damped_step
        # returns None and the solve stops at its start
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        initial = seed_field(spec)
        monkeypatch.setattr(solver, "ARMIJO_C", 1e9)
        with pytest.raises(NonConvergence, match=r"^line search stalled at iteration 1$") as err:
            newton_solve(spec, initial)
        assert np.array_equal(err.value.state.field.u, grid.mean_zero(initial.u))
        assert err.value.state.info.iterations == 0
        assert err.value.state.info.alphas == []

    def test_line_search_guard_carries_the_solve_record(self):
        # on this thin pair the line search finds no convex step after
        # several accepted ones; the guard carries their record, as a
        # NonConvergence would
        om, omt = Ellipse((0.2, 0.1), (1.0, 0.1)), Ellipse((0, 0), (0.9, 0.2))
        spec = ProblemSpec(om, omt, MINK, build_grid(om, 16, 32))
        with pytest.raises(ConvexityLoss) as err:
            newton_solve(spec, seed_field(spec))
        info = err.value.state.info
        assert info.iterations == len(info.alphas) > 0
        assert info.factorizations >= 1 and info.factor is None
        assert err.value.state.field.c != seed_field(spec).c

    def test_nonconvergence_carries_best_iterate(self):
        om, omt = Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        with pytest.raises(NonConvergence) as err:
            newton_solve(spec, seed_field(spec), SolveOptions(max_newton=1))
        assert err.value.state.field is not None
        assert err.value.residual_norm > 0

    def test_budget_failure_states_its_budget(self):
        # the residual after the last allowed step is tested once, and a
        # miss names the budget
        om, omt = Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4)
        spec = ProblemSpec(om, omt, MINK, build_grid(om, 16, 32))
        with pytest.raises(NonConvergence, match=r"^no convergence in 2 iterations "
                                                 r"\(residual ") as err:
            newton_solve(spec, seed_field(spec), SolveOptions(max_newton=2))
        assert err.value.state.info.iterations == 2

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tol_residual=-1.0)

    @pytest.mark.parametrize("kwargs", [
        {"tol_residual": float("nan")}, {"tol_residual": float("inf")},
        {"tol_residual": 0.0}, {"max_newton": 2.5}, {"max_newton": float("nan")},
        {"max_newton": 0},
    ])
    def test_options_must_be_finite_positive(self, kwargs):
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)

    @pytest.mark.parametrize("name", ["eps_convexity", "eps_space"])
    def test_guards_are_not_options(self, name):
        # the admissibility guards belong to the ProblemSpec
        with pytest.raises(TypeError):
            SolveOptions(**{name: 1e-6})

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
        assert info.iterations >= 2
        assert calls == {"derivative_arrays": info.iterations + 1,
                         "boundary_gradients": info.iterations + 1}


def _singular_splu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


class _RecordingLU:
    """A factor whose solves keep a copy of every vector handed to them."""

    def __init__(self, lu):
        self.lu, self.solved = lu, []

    def solve(self, rhs):
        self.solved.append(rhs.copy())
        return self.lu.solve(rhs)


class _NanLU:
    # a factor with no entries, whose every solve of one vector is NaN; its
    # solve of two columns, the bordering step's, returns them as they are,
    # which leaves that step's 2 x 2 regular
    nnz = 0

    def solve(self, rhs):
        return rhs.copy() if rhs.ndim == 2 else np.full_like(rhs, np.nan)


class _CopylessLU:
    """A SuperLU factor whose L and U, the CSC copies SuperLU builds on
    first read and keeps for the factor's life, raise when read."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(f"the factor's {name} was read")
        return getattr(self.lu, name)


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

    def test_lu_fill_is_superlu_stored_count(self, monkeypatch):
        # lu_fill is SuperLU's own tally of its stored L + U entries, read
        # in O(1): no solve reads a factor's L or U, whose CSC copies would
        # cost a pass over the factor and stay in memory as long as it does
        made = []
        real_splu = solver.splu

        def copyless_splu(*args, **kwargs):
            lu = real_splu(*args, **kwargs)
            made.append(lu.nnz)
            return _CopylessLU(lu)

        monkeypatch.setattr(solver, "splu", copyless_splu)
        _, _, info = solve_direct(Ball((0, 0), 1.0), Ball((0, 0), 0.5), MINK, 16, 32)
        assert made and info.lu_fill == max(made)
        made.clear()
        omega = Ellipse((0, 0), (1.0, 0.8))
        spec = ProblemSpec(omega, Ball((0, 0), 0.4), MINK, build_grid(omega, 16, 32))
        _, history = run_homotopy(spec, steps=2, t_min=0.5)
        assert len(history) == 2
        assert made and max(step.info.lu_fill for step in history) == max(made)

    @pytest.mark.parametrize("om, omt, model, operator, n_rho", [
        (Ball((0, 0), 1.0), Ball((0, 0), 0.5), MINK, OperatorKind.GRAPH, 64),
        (Ellipse((0.2, 0.1), (1.0, 0.35)), Ball((0, 0), 0.4), MINK, OperatorKind.GRAPH, 32),
        (Ellipse((0, 0), (1.0, 0.6)), Ellipse((0.1, 0), (0.5, 0.3)), EUC,
         OperatorKind.GRAPH, 32),
        (Ball((0.1, 0), 0.5), Ellipse((0, 0), (1.0, 0.8)), MINK,
         OperatorKind.INVERSE_HESSIAN, 32),
    ], ids=["concentric_64", "thin_ellipse_ball", "euclidean", "dual"])
    def test_bordering_matches_full_factor(self, monkeypatch, om, omt, model, operator,
                                           n_rho):
        # SuperLU sees only the N x N node block, its pivot node's diagonal
        # lowered by 1; the c column and the mean-zero row are taken out by
        # the 2 x 2 bordering step.  At the seed and one full Newton step on,
        # the direction is the plain LU's of the whole bordered matrix
        shapes = []
        real_splu = solver.splu

        def spying_splu(a, **kwargs):
            shapes.append(a.shape)
            return real_splu(a, **kwargs)

        monkeypatch.setattr(solver, "splu", spying_splu)
        spec = ProblemSpec(om, omt, model, build_grid(om, n_rho, 2 * n_rho), operator=operator)
        n = spec.grid.n_nodes
        fld = seed_field(spec)
        for _ in range(2):
            jac, res = jacobian(spec, *field_state(fld)), residual(spec, fld)
            direction, _, _ = solver._solve_linear(jac, -res)
            reference, _, _ = full_lu_solve(jac, -res)
            assert np.max(np.abs(direction - reference)) <= 1e-10 * np.max(np.abs(reference))
            fld = replace(fld, u=fld.u + reference[:n], c=fld.c + reference[n])
        assert shapes == [(n, n)] * 2

    def test_pivot_node_without_diagonal(self):
        # a Jacobian whose (j, j) entry at the pivot node j = N // 2 is an
        # exact zero, and so not stored: the sparse difference K - e_j e_j^T
        # stores it as -1.  Zeroing it leaves K 1 != 0, so K^-1 e_j is not
        # minus the constant vector, and the bordering step must use it as
        # solved
        spec = ProblemSpec(Ball((0, 0), 1.0), Ball((0.2, 0), 0.3), MINK,
                           build_grid(Ball((0, 0), 1.0), 16, 32))
        fld = seed_field(spec)
        jac, res = jacobian(spec, *field_state(fld)), residual(spec, fld)
        j = spec.grid.n_nodes // 2
        jac[j, j] = 0.0
        jac.eliminate_zeros()
        direction, _, _ = solver._solve_linear(jac, -res)
        reference, _, _ = full_lu_solve(jac, -res)
        assert np.max(np.abs(direction - reference)) <= 1e-10 * np.max(np.abs(reference))

    @pytest.mark.parametrize("case", ["concentric", "ellipse_ball", "no_pivot_diagonal",
                                      "pivot_cancels"])
    def test_factor_setup_matches_sparse_slicing(self, monkeypatch, case):
        # _factor reads the row scale by one reduceat and g, w and K^ off the
        # scaled CSR arrays; each must equal, bit for bit, what slicing and
        # the sparse difference K - e_j e_j^T give: (j, j) stored where K has
        # none, every exact zero dropped (the pivot entry that cancels, an
        # explicit zero elsewhere) and a -0.0 in g read as 0.0
        om, omt, n_rho = {"concentric": (Ball((0, 0), 1.0), Ball((0, 0), 0.5), 32)}.get(
            case, (Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4), 16))
        spec = ProblemSpec(om, omt, MINK, build_grid(om, n_rho, 2 * n_rho))
        jac = jacobian(spec, *field_state(seed_field(spec)))
        n, j = spec.grid.n_nodes, spec.grid.n_nodes // 2
        if case == "no_pivot_diagonal":
            jac[j, j] = 0.0
            jac.eliminate_zeros()
        elif case == "pivot_cancels":
            jac[j, j] = 2.0 ** 40   # the row's largest: scaled to exactly 1
            jac[j, j - 1] = 0.0
            jac[0, n] = -0.0
        made = []
        real_splu = solver.splu

        def recording_splu(a, **kwargs):
            made.append((a.copy(), _RecordingLU(real_splu(a, **kwargs))))
            return made[-1][1]

        monkeypatch.setattr(solver, "splu", recording_splu)
        factor, row_max = solver._factor(jac)
        (k_hat, lu), = made
        want_k, want_g, want_w, want_row_max = reference_factor_setup(jac)
        assert np.array_equal(k_hat.indptr, want_k.indptr)
        assert np.array_equal(k_hat.indices, want_k.indices)
        for got, want in [(k_hat.data, want_k.data), (lu.solved[0][:, 1], want_g),
                          (factor.w, want_w), (row_max, want_row_max)]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if case == "no_pivot_diagonal":
            assert k_hat[j, j] == -1.0
        elif case == "pivot_cancels":
            assert k_hat.nnz == jac[:n, :n].nnz - 2

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
        direction, _, _ = solver._solve_linear(jac, -res)
        r_inf = np.max(np.abs(res))
        assert r_inf > 1e-6   # a real Newton step, not a converged field
        assert np.max(np.abs(jac @ direction + res)) <= 1e-10 * (1.0 + r_inf)

    @pytest.mark.parametrize("om, omt, operator", [
        (Ball((0, 0), 1.0), Ball((0, 0), 0.5), OperatorKind.GRAPH),
        (Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4), OperatorKind.GRAPH),
        (Ball((0, 0), 0.4), Ellipse((0, 0), (1.0, 0.8)), OperatorKind.INVERSE_HESSIAN),
    ], ids=["concentric", "ellipse_ball", "ellipse_ball_dual"])
    def test_factor_keeps_planned_diagonal(self, om, omt, operator):
        # SuperLU factors Pr A Pc = L U, which puts A[i, i] at
        # (perm_r[i], perm_c[i]): a diagonal pivot keeps perm_r[i] ==
        # perm_c[i].  Every pivot is diagonal: the scaled K[j, j] at the
        # bordering step's pivot node is -1, which the shift -e_j e_j^T moves
        # to -2, away from zero (a shift of +1 left a stored zero there and
        # took 2 off-diagonal pivots, at j and its outward neighbour); the
        # pivot threshold 0.1 took 7 on the bordered matrix and grew the
        # concentric fill to 182 720
        spec = ProblemSpec(om, omt, MINK, build_grid(om, 32, 64), operator=operator)
        factor, _ = solver._factor(jacobian(spec, *field_state(seed_field(spec))))
        lu = factor.lu
        assert np.count_nonzero(lu.perm_r != lu.perm_c) == 0
        if operator is OperatorKind.GRAPH and isinstance(om, Ball):
            assert lu.L.nnz + lu.U.nnz <= 130_000

    @pytest.mark.parametrize("om, omt, model", [
        (Ellipse((0, 0), (1.0, 0.3)), Ball((0, 0), 0.4), MINK),
        (Ellipse((0, 0), (1.0, 0.5)), Ball((0.3, 0.2), 3.0), EUC),
    ], ids=["minkowski", "euclidean"])
    def test_fresh_factor_meets_forcing_bound(self, om, omt, model):
        # on these isotropic-seed systems the direct solve alone leaves the
        # Newton equation above the bound GMRES is held to; one refinement
        # step on the same factor, not counted as a GMRES iteration, meets it
        spec = ProblemSpec(om, omt, model, build_grid(om, 32, 64))
        fld = isotropic_seed(spec)
        jac, res = jacobian(spec, *field_state(fld)), residual(spec, fld)
        target = SolveOptions().tol_residual * (1.0 + abs(fld.c))
        bound = solver.KRYLOV_FORCING * target
        assert np.max(np.abs(res)) > target
        direction, (lu, row_max), iterations = solver._solve_linear(jac, -res, None, target)
        assert iterations == 0
        assert np.max(np.abs(jac @ direction + res)) <= bound
        plain = lu.solve(-res / row_max)
        assert np.max(np.abs(jac @ plain + res)) > bound

    @pytest.mark.parametrize("fake_splu, reason", [
        (_singular_splu, "linear solve failed"),
        (lambda *a, **k: _NanLU(), "non-finite Newton direction"),
        (lambda *a, **k: ZeroLU(), r"linear solve failed \(singular bordering step"),
    ], ids=["singular", "nan", "singular_border"])
    def test_failure_is_nonconvergence(self, monkeypatch, fake_splu, reason):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        initial = seed_field(spec)
        monkeypatch.setattr(solver, "splu", fake_splu)
        with pytest.raises(NonConvergence, match=reason) as err:
            newton_solve(spec, initial, t_label=0.5)
        assert np.array_equal(err.value.state.field.u, grid.mean_zero(initial.u))
        assert err.value.state.info.iterations == 0
        assert err.value.state.t == 0.5
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
        # GMRES misses once inside the second step, so that step factors
        # afresh, and that factor fails once: the step is bisected, the
        # retry starts from the first step's factor, and the walk still
        # reaches t = 1
        real_newton, real_splu, real_gmres = solver.newton_solve, solver.splu, solver._gmres
        calls = {"newton": 0, "missed": False, "failed": False}
        handed = []

        def counting_newton(*args, **kwargs):
            calls["newton"] += 1
            handed.append(kwargs["factor"])
            return real_newton(*args, **kwargs)

        def missing_gmres(*args):
            if calls["newton"] == 2 and not calls["missed"]:
                calls["missed"] = True
                return None, solver.KRYLOV_BUDGET
            return real_gmres(*args)

        def failing_splu(*args, **kwargs):
            if calls["missed"] and not calls["failed"]:
                calls["failed"] = True
                _singular_splu()
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", counting_newton)
        monkeypatch.setattr(solver, "_gmres", missing_gmres)
        monkeypatch.setattr(solver, "splu", failing_splu)
        omega = Ellipse((0, 0), (1.0, 0.8))
        spec = ProblemSpec(omega, Ball((0, 0), 0.4), MINK, build_grid(omega, 16, 32))
        fld, history = run_homotopy(spec, steps=2, t_min=0.5)
        assert calls["failed"]
        assert [h.t for h in history] == [0.5, 0.75, 1.0]
        assert handed[0] is None and handed[1] is not None and handed[2] is handed[1]


def _assert_solves_agree(fld, info, fld_ref, info_ref):
    """The same Newton and GMRES counts, c within 1e-11 relative and the
    mean-zero u within 1e-11 max|u|."""
    assert info.iterations == info_ref.iterations
    assert info.krylov_iterations == info_ref.krylov_iterations
    assert abs(fld.c - fld_ref.c) <= 1e-11 * abs(fld_ref.c)
    assert np.max(np.abs(fld.u - fld_ref.u)) <= 1e-11 * np.max(np.abs(fld_ref.u))


class TestHalfTurnReduction:
    """A problem equivariant under the half turn about omega's peak solves
    each Newton system on the pole, the rays j < n_phi / 2 and c; the
    whole-lattice solve (helpers.full_bordered_systems) is the oracle."""

    @pytest.fixture()
    def iterates(self, monkeypatch):
        # u of every iterate the line search accepts
        accepted, real_step = [], solver.damped_step

        def recording(*args):
            step = real_step(*args)
            if step is not None:
                accepted.append(step[1].u)
            return step

        monkeypatch.setattr(solver, "damped_step", recording)
        return accepted

    @pytest.mark.parametrize("omega, target, operator, reduced", [
        (Ellipse((0.2, 0.1), (1.0, 0.35)), Ball((0, 0), 0.4), OperatorKind.GRAPH, True),
        (Ball((0, 0), 1.0), Ball((0, 1e-3), 0.4), OperatorKind.GRAPH, False),
        (Ball((0, 0), 0.4), Ellipse((0, 0), (1.0, 0.8)), OperatorKind.INVERSE_HESSIAN, True),
        (Ball((0, 1e-3), 0.4), Ellipse((0, 0), (1.0, 0.8)), OperatorKind.INVERSE_HESSIAN,
         False),
        (Ball((0, 0), 0.4), Ellipse((0.1, 0), (1.0, 0.8)), OperatorKind.INVERSE_HESSIAN,
         False),
    ], ids=["graph", "graph-off-centre-target", "dual", "dual-off-centre-omega",
            "dual-off-centre-target"])
    def test_which_problems_are_reduced(self, omega, target, operator, reduced):
        # the graph operator reads Du only, the dual one the node positions
        # too; a sublevel set is scaled about its own peak, so a walk keeps
        # the property
        spec = ProblemSpec(omega, target, MINK, build_grid(omega, 8, 16), operator=operator)
        assert (spec.half_turn is not None) == reduced
        sub = replace(spec, omega_tilde=target.sublevel(0.3))
        assert (sub.half_turn is not None) == reduced

    @pytest.mark.parametrize("omega, target, model", [
        (Ball((0, 0), 1.0), Ball((0, 0), 0.5), MINK),
        (Ellipse((0.2, 0.1), (1.0, 0.35)), Ball((0, 0), 0.4), MINK),
        (Ellipse((0, 0), (1.0, 0.8)), Ellipse((0, 0), (0.5, 0.3)), MINK),
        (Ball((0, 0), 1.0), Ball((0, 0), 2.0), EUC),
        (Ellipse((0.1, -0.2), (1.0, 0.6)), Ellipse((0, 0), (0.9, 0.6)), EUC),
    ], ids=["minkowski-balls", "minkowski-off-centre-omega", "minkowski-ellipses",
            "euclidean-balls", "euclidean-off-centre-omega"])
    def test_direct_solve_matches_full_system(self, iterates, omega, target, model):
        spec = ProblemSpec(omega, target, model, build_grid(omega, 32, 64))
        image = spec.grid.half_turn[0]
        fld, info = newton_solve(spec, seed_field(spec))
        reduced = list(iterates)
        with full_bordered_systems():
            fld_ref, info_ref = newton_solve(spec, seed_field(spec))
        _assert_solves_agree(fld, info, fld_ref, info_ref)
        # every primal iterate is exactly half-turn even
        assert len(reduced) == info.iterations
        assert all(np.array_equal(u[image], u) for u in reduced)
        assert info.lu_fill < 0.5 * info_ref.lu_fill

    def test_dual_solve_matches_full_system(self, ci_instances):
        spec, _, _ = ci_instances["ellipse_ball"]
        fld, info = dual_solve(spec)
        with full_bordered_systems():
            fld_ref, info_ref = dual_solve(spec)
        _assert_solves_agree(fld, info, fld_ref, info_ref)
        assert np.array_equal(fld.u[fld.grid.half_turn[0]], fld.u)
        assert info.lu_fill < 0.5 * info_ref.lu_fill

    def test_forced_walk_matches_full_system(self, iterates):
        # CI's forced walk with its target centred: every step, its
        # predicted start included, solves on the representatives
        omega = Ellipse((0.05, 0), (1.0, 0.8))
        spec = ProblemSpec(omega, Ball((0, 0), 0.85), MINK, build_grid(omega, 32, 64))
        _, history = run_homotopy(spec, steps=8, t_min=0.1)
        reduced = list(iterates)
        with full_bordered_systems():
            _, history_ref = run_homotopy(spec, steps=8, t_min=0.1)
        assert [h.t for h in history] == [h.t for h in history_ref]
        for h, h_ref in zip(history, history_ref):
            assert h.info.factorizations == h_ref.info.factorizations
            _assert_solves_agree(h.field, h.info, h_ref.field, h_ref.info)
        image = spec.grid.half_turn[0]
        assert len(reduced) == sum(h.info.iterations for h in history)
        assert all(np.array_equal(u[image], u) for u in reduced)

    def test_file_seed_is_projected(self, tmp_path):
        # seed.strategy = file: a 16 x 32 solution carried onto 32 x 64 by the
        # lattice spline, half-turn even only to roundoff; the reduced solve
        # starts from its even part, the oracle from the field as given
        omega, target = Ellipse((0.2, 0.1), (1.0, 0.35)), Ball((0, 0), 0.4)
        coarse = ProblemSpec(omega, target, MINK, build_grid(omega, 16, 32))
        save_field(newton_solve(coarse, seed_field(coarse))[0], tmp_path / "field.csv")
        spec = ProblemSpec(omega, target, MINK, build_grid(omega, 32, 64))
        seed = transfer_field(load_field(tmp_path / "field.csv"), spec.grid)
        assert not np.array_equal(seed.u[spec.grid.half_turn[0]], seed.u)
        fld, info = newton_solve(spec, seed)
        with full_bordered_systems():
            fld_ref, info_ref = newton_solve(spec, seed)
        _assert_solves_agree(fld, info, fld_ref, info_ref)

    def test_off_centre_target_keeps_the_full_system(self):
        # without the symmetry the reduction is the identity: the same
        # factor, fill and iterates, bit for bit
        omega = Ellipse((0, 0), (1.0, 0.8))
        spec = ProblemSpec(omega, Ball((0.1, 0), 0.4), MINK, build_grid(omega, 32, 64))
        fld, info = newton_solve(spec, seed_field(spec))
        with full_bordered_systems():
            fld_ref, info_ref = newton_solve(spec, seed_field(spec))
        assert info == info_ref and info.lu_fill > 100_000
        assert fld.u.tobytes() == fld_ref.u.tobytes() and fld.c == fld_ref.c


def _ellipse_homotopy_spec(n_rho=32):
    omega = Ellipse((0, 0), (1.0, 0.8))
    return ProblemSpec(omega, Ball((0, 0), 0.4), MINK, build_grid(omega, n_rho, 2 * n_rho))


def _assert_steps_agree(history, history_ref):
    """Same t schedule, and every step's c and u within the Newton stop
    target tol (1 + |c|) of the reference walk's: GMRES stops at a fraction
    of that target, and Newton at it, so two ways of reaching the same
    steps agree to it, not to roundoff."""
    tol = SolveOptions().tol_residual
    assert [h.t for h in history] == [h.t for h in history_ref]
    for h, h_ref in zip(history, history_ref):
        target = tol * (1.0 + abs(h_ref.field.c))
        assert abs(h.field.c - h_ref.field.c) <= target
        assert np.max(np.abs(h.field.u - h_ref.field.u)) <= target


def _assert_walks_agree(history, history_ref):
    """_assert_steps_agree, with the same Newton count at every step: two
    ways of solving the Newton systems of one walk."""
    _assert_steps_agree(history, history_ref)
    assert ([h.info.iterations for h in history]
            == [h.info.iterations for h in history_ref])


class TestKrylovPath:
    """A homotopy walk factors its first system; the later ones, in the same
    step or the next, run GMRES preconditioned by the latest factor, and a
    fresh factor comes only from a GMRES miss."""

    @pytest.fixture()
    def newton_system(self):
        # the isotropic seed's Newton system on an off-centre pair, its
        # factor, and the system after one full Newton step from that seed,
        # with that step's c
        om, omt = Ellipse((0.05, 0), (1.0, 0.8)), Ball((0.1, 0), 0.4)
        spec = ProblemSpec(om, omt, MINK, build_grid(om, 32, 64))
        fld = isotropic_seed(spec)
        jac, res = jacobian(spec, *field_state(fld)), residual(spec, fld)
        direction, factor, _ = solver._solve_linear(jac, -res)
        n = spec.grid.n_nodes
        step = SolutionField(spec.grid, fld.u + direction[:n], fld.c + direction[n], MINK)
        return spec, factor, jacobian(spec, *field_state(step)), residual(spec, step), step.c

    def test_matches_direct_path(self, ci_instances, monkeypatch):
        # the same homotopy with every Newton system factored afresh
        _, _, history = ci_instances["ellipse_ball"]
        monkeypatch.setattr(solver, "_solve_linear", factor_every_system)
        _, history_ref = run_homotopy(_ellipse_homotopy_spec())
        _assert_walks_agree(history, history_ref)

    def test_every_step_meets_stop_test(self, ci_instances):
        # each step's field, recomputed on its own target, passes the
        # Newton stop test the inexact linear solves were tied to
        spec, _, history = ci_instances["ellipse_ball"]
        tol = SolveOptions().tol_residual
        assert len(history) == 12
        for h in history:
            spec_t = replace(spec, omega_tilde=spec.omega_tilde.sublevel(h.t))
            r_inf = np.max(np.abs(residual(spec_t, h.field)))
            assert r_inf <= tol * (1.0 + abs(h.field.c))

    def test_one_factor_per_walk(self, monkeypatch):
        real_newton, real_splu, real_solve = solver.newton_solve, solver.splu, solver._solve_linear
        infos, factors, krylov = [], [], []

        def recording_newton(*args, **kwargs):
            fld, info = real_newton(*args, **kwargs)
            infos.append(info)
            return fld, info

        def counting_splu(*args, **kwargs):
            factors.append(None)
            return real_splu(*args, **kwargs)

        def recording_solve(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            krylov.append(result[2])
            return result

        monkeypatch.setattr(solver, "newton_solve", recording_newton)
        monkeypatch.setattr(solver, "splu", counting_splu)
        monkeypatch.setattr(solver, "_solve_linear", recording_solve)
        _, history = run_homotopy(_ellipse_homotopy_spec())
        assert len(history) == len(infos) == 12 and len(factors) == 1
        assert [info.factorizations for info in infos] == [1] + [0] * 11
        assert ([(h.info.factorizations, h.info.krylov_iterations) for h in history]
                == [(info.factorizations, info.krylov_iterations) for info in infos])
        # the walk's first system is factored; every later one takes GMRES
        # on that factor
        assert len(krylov) == sum(info.iterations for info in infos)
        assert krylov[0] == 0
        assert all(1 <= k <= solver.KRYLOV_BUDGET for k in krylov[1:])
        assert all(h.info.krylov_misses == 0 for h in history)

    def test_no_record_keeps_a_factor(self, ci_instances):
        # a step's factor is cleared from its record once handed to the next
        # step, and a failed solve's record drops its factor, so neither a
        # walk's history nor a NonConvergence keeps one alive
        _, _, history = ci_instances["ellipse_ball"]
        assert all(h.info.factor is None for h in history)
        with pytest.raises(NonConvergence) as err:
            run_homotopy(_ellipse_homotopy_spec(16), SolveOptions(max_newton=1), steps=4)
        assert err.value.state.info.factorizations == 1
        assert err.value.state.info.factor is None

    def test_large_grid_walk_factors_once(self):
        # at 128 x 256 a fixed 1e-10 GMRES tolerance sat on the roundoff
        # floor and missed, refactoring every step; the forcing term asks
        # for no more than the stop test can see
        _, history = run_homotopy(_ellipse_homotopy_spec(128), steps=2)
        assert len(history) == 2
        assert sum(h.info.factorizations for h in history) == 1
        assert sum(h.info.krylov_misses for h in history) == 0

    def test_stale_factor_refreshed(self, monkeypatch):
        # a walk on which the carried factor goes stale: every step is
        # handed the factor the last one ended with, every factor after the
        # first comes from a GMRES miss, and the iterates match the
        # factor-every-system oracle
        om = Ellipse((0.05, 0), (1.0, 0.8))
        spec = ProblemSpec(om, Ball((0.1, 0), 0.85), MINK, build_grid(om, 32, 64))
        real_newton = solver.newton_solve
        handed = []

        def recording_newton(*args, factor=None, **kwargs):
            handed.append(factor)
            return real_newton(*args, factor=factor, **kwargs)

        monkeypatch.setattr(solver, "newton_solve", recording_newton)
        _, history = run_homotopy(spec, steps=8)
        factorizations = sum(h.info.factorizations for h in history)
        assert 1 < factorizations < 8
        assert all(f is not None for f in handed[1:])
        assert factorizations == 1 + sum(h.info.krylov_misses for h in history)
        monkeypatch.setattr(solver, "_solve_linear", factor_every_system)
        _, history_ref = run_homotopy(spec, steps=8)
        _assert_walks_agree(history, history_ref)

    def test_krylov_direction_meets_tolerance(self, newton_system):
        # a stop target far below the residual asks GMRES for KRYLOV_RTOL;
        # the real target tol (1 + |c|) asks for the looser forcing term
        # eta, which takes fewer iterations
        spec, factor, jac, res, c = newton_system
        lu, row_max = factor
        b_norm = np.linalg.norm(res / row_max)
        target = SolveOptions().tol_residual * (1.0 + abs(c))
        eta = solver.KRYLOV_FORCING * target / np.max(np.abs(res))
        assert solver.KRYLOV_RTOL < eta < solver.KRYLOV_FORCING
        spent = []
        for stop_target, rtol in ((1e-30, solver.KRYLOV_RTOL), (target, eta)):
            direction, used, iterations = solver._solve_linear(jac, -res, factor,
                                                               stop_target)
            assert used is factor
            assert 0 < iterations <= solver.KRYLOV_BUDGET
            assert np.linalg.norm((jac @ direction + res) / row_max) <= rtol * b_norm
            spent.append(iterations)
        assert spent[1] < spent[0]
        assert (np.max(np.abs(jac @ direction + res))
                <= solver.KRYLOV_FORCING * target)

    def test_krylov_goes_on_to_inf_norm_bound(self, newton_system):
        # at a stop target 100 times the real one, the forcing term's first
        # candidate leaves the unscaled residual's inf-norm above its bound:
        # GMRES goes on in the same Krylov space, with a tighter tolerance,
        # on the same factor and within one budget
        spec, factor, jac, res, c = newton_system
        target = 100 * SolveOptions().tol_residual * (1.0 + abs(c))
        bound = solver.KRYLOV_FORCING * target
        lu, row_max = factor
        recording = (_RecordingLU(lu), row_max)
        direction, used, iterations = solver._solve_linear(jac, -res, recording, target)
        assert used is recording and iterations <= solver.KRYLOV_BUDGET
        # one Arnoldi process: every vector preconditioned belongs to one
        # orthonormal basis, started from the scaled right-hand side
        basis = np.array(recording[0].solved)
        b = -res / row_max
        assert len(basis) == iterations
        assert np.max(np.abs(basis @ basis.T - np.eye(iterations))) <= 1e-12
        assert np.max(np.abs(basis[0] - b / np.linalg.norm(b))) <= 1e-15
        # the first candidate: the least-squares direction on the shortest
        # leading part of that basis that meets the forcing term
        z = np.array([lu.solve(v) for v in basis]).T
        az = (jac @ z) / row_max[:, None]
        eta = bound / np.max(np.abs(res))
        for k in range(1, iterations + 1):
            y = np.linalg.lstsq(az[:, :k], b, rcond=None)[0]
            if np.linalg.norm(az[:, :k] @ y - b) <= eta * np.linalg.norm(b):
                break
        assert k < iterations
        assert np.max(np.abs(jac @ (z[:, :k] @ y) + res)) > bound
        assert np.max(np.abs(jac @ direction + res)) <= bound

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 100.0],
                             ids=["rtol-floor", "forcing", "inf-norm-excess"])
    def test_one_triangular_solve_per_iteration(self, newton_system, scale):
        # the direction is a combination of the preconditioned Arnoldi
        # vectors GMRES kept: no solve beyond one per Krylov iteration
        spec, factor, jac, res, c = newton_system
        target = scale * SolveOptions().tol_residual * (1.0 + abs(c))
        recording = (_RecordingLU(factor[0]), factor[1])
        _, used, iterations = solver._solve_linear(jac, -res, recording, target)
        assert used is recording
        assert 0 < len(recording[0].solved) == iterations <= solver.KRYLOV_BUDGET

    def test_dual_solve_keeps_one_krylov_space(self, ci_instances):
        # the dual solve of the benchmark instance goes on past the inf-norm
        # check in every system; restarting there spent 35 iterations
        spec, _, _ = ci_instances["ellipse_ball"]
        _, info = dual_solve(spec)
        assert (info.factorizations, info.krylov_misses) == (1, 0)
        assert info.krylov_iterations <= 32

    def test_miss_is_counted(self, monkeypatch):
        # GMRES misses once: that system is factored afresh, and the count
        # tells the miss from the solve's first factor
        real_gmres = solver._gmres
        missed = []

        def missing_once(*args):
            if not missed:
                missed.append(True)
                return None, solver.KRYLOV_BUDGET
            return real_gmres(*args)

        monkeypatch.setattr(solver, "_gmres", missing_once)
        spec = _ellipse_homotopy_spec()
        _, info = newton_solve(spec, seed_field(spec))
        assert missed and info.iterations >= 2
        assert (info.factorizations, info.krylov_misses) == (2, 1)

    @pytest.mark.parametrize("kind", ["unrelated", "nan"])
    def test_falls_back_to_fresh_factor(self, newton_system, kind):
        spec, _, jac, res, _ = newton_system
        n = jac.shape[0]
        if kind == "nan":
            stale = (_NanLU(), np.ones(n))
        else:
            # the seed's Jacobian on a 64 x 32 grid: as many unknowns,
            # numbered along other rings
            other = ProblemSpec(spec.omega, spec.omega_tilde, MINK,
                                build_grid(spec.omega, 64, 32))
            stale = solver._factor(jacobian(other, *field_state(seed_field(other))))
            assert stale[0].lu.shape == (n - 1, n - 1)
        direction, fresh, iterations = solver._solve_linear(jac, -res, stale)
        assert fresh is not stale
        assert iterations > 0
        assert np.array_equal(fresh[1], abs(jac).max(axis=1).toarray().ravel())
        r_inf = np.max(np.abs(res))
        assert np.max(np.abs(jac @ direction + res)) <= 1e-10 * (1.0 + r_inf)

    def test_failed_fresh_factor_is_nonconvergence(self, monkeypatch):
        # GMRES never converges, so the second system is factored afresh,
        # and that factor fails
        real_splu = solver.splu
        factors = []

        def second_fails(*args, **kwargs):
            factors.append(None)
            if len(factors) == 2:
                _singular_splu()
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(solver, "_gmres", lambda *args: (None, solver.KRYLOV_BUDGET))
        monkeypatch.setattr(solver, "splu", second_fails)
        spec = _ellipse_homotopy_spec()
        with pytest.raises(NonConvergence, match="linear solve failed") as err:
            newton_solve(spec, seed_field(spec))
        assert len(factors) == 2
        assert err.value.state.info.iterations == 1
        # the counts of the failed solve: its first factor, no factor made
        # for the miss
        assert (err.value.state.info.factorizations, err.value.state.info.krylov_misses) == (1, 0)


@pytest.fixture(scope="module")
def one_point_walk():
    """The benchmark walk (ci_instances' ellipse_ball) with every step after
    the first started from the last one alone: the zero-order predictor,
    the oracle of the extrapolated starts."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "PREDICTOR_POINTS", 1)
        return run_homotopy(_ellipse_homotopy_spec())


class TestPredictor:
    """Each homotopy step after the first starts from the Lagrange
    extrapolation through the last three accepted steps."""

    def test_extrapolation_is_exact_for_quadratics(self):
        # w = (u - P) / sqrt(t) and c quadratic in t, at an uneven
        # (bisected) schedule: three points reproduce both at the next t
        grid = build_grid(Ball((0, 0), 1.0), 8, 16)
        peak = grid.nodes @ np.array([0.1, -0.2])
        a, b, q = (grid.mean_zero(f) for f in (grid.nodes[:, 0] ** 2, grid.nodes[:, 1],
                                                  grid.nodes[:, 0] * grid.nodes[:, 1]))

        def state(t):
            u = peak + np.sqrt(t) * (a + t * b + t * t * q)
            return solver.HomotopyState(t, SolutionField(grid, u, 1.0 - t + 2.0 * t * t, MINK))

        steps = [state(t) for t in (0.1, 0.2, 0.25)]
        start = solver._predicted_start(steps, 0.4, peak)
        exact = state(0.4).field
        assert start.c == pytest.approx(exact.c, rel=1e-13)
        assert np.max(np.abs(start.u - exact.u)) <= 1e-13
        # through one point: the last field dilated about the peak, its c
        one = solver._predicted_start(steps[-1:], 0.4, peak)
        assert one.c == steps[-1].field.c
        dilated = peak + np.sqrt(0.4 / 0.25) * (steps[-1].field.u - peak)
        assert np.max(np.abs(one.u - dilated)) <= 1e-14

    def test_one_newton_iteration_per_step(self, ci_instances, one_point_walk):
        # the benchmark walk: after the seeded step and the one-point step,
        # one Newton iteration per step, on one factor, to the one-point
        # walk's answers
        _, _, history = ci_instances["ellipse_ball"]
        _, history_ref = one_point_walk
        assert [h.info.iterations for h in history] == [2, 2] + [1] * 10
        assert [h.info.iterations for h in history_ref] == [2] * 12
        assert sum(h.info.factorizations for h in history) == 1
        _assert_steps_agree(history, history_ref)

    @pytest.mark.parametrize("guard", [ConvexityLoss(-1.0), SpacelikeViolation(1.0)],
                             ids=["convexity", "spacelike"])
    def test_refused_start_falls_back_to_one_point(self, monkeypatch, one_point_walk,
                                                   guard):
        # the guard refuses the first start extrapolated through two steps
        # (the third solve): the step is retried from the one-point start,
        # and the walk needs no bisection
        real_newton, real_guard = solver.newton_solve, solver.admissibility_violation
        starts, refuse = [], [False]

        def recording_newton(spec, initial, *args, **kwargs):
            starts.append(initial)
            refuse[0] = len(starts) == 3
            return real_newton(spec, initial, *args, **kwargs)

        def refusing_guard(*args):
            if refuse[0]:
                refuse[0] = False
                return guard
            return real_guard(*args)

        monkeypatch.setattr(solver, "newton_solve", recording_newton)
        monkeypatch.setattr(solver, "admissibility_violation", refusing_guard)
        _, history = run_homotopy(_ellipse_homotopy_spec())
        _, history_ref = one_point_walk
        assert len(starts) == len(history) + 1 == 13
        # the retry starts from step 2 alone: its c, where the refused start
        # had extrapolated c through steps 1 and 2
        assert starts[3].c == history[1].field.c != starts[2].c
        _assert_steps_agree(history, history_ref)

    @pytest.mark.parametrize("omega, omega_tilde, model, newton", [
        (Ball((0, 0), 0.4), Ellipse((0, 0), (1.0, 0.8)), MINK, 15),
        (Ellipse((0.1, 0), (0.5, 0.3)), Ball((1, 2), 2.0), EUC, 16),
    ], ids=["benchmark_swapped", "euclidean_offcentre"])
    def test_dual_walk_matches_one_point_walk(self, monkeypatch, omega, omega_tilde,
                                              model, newton):
        # the inverse-Hessian walk of dual_solve's fallback.  On the
        # Euclidean walk GMRES's row-scaled tolerance alone leaves more than
        # the forcing bound in the residual's inf-norm, where a corrector
        # iteration then stops just above the stop target (25 iterations)
        dual_spec = ProblemSpec(omega, omega_tilde, model, build_grid(omega, 32, 64),
                                operator=OperatorKind.INVERSE_HESSIAN)
        _, history = run_homotopy(dual_spec)
        monkeypatch.setattr(solver, "PREDICTOR_POINTS", 1)
        _, history_ref = run_homotopy(dual_spec)
        _assert_steps_agree(history, history_ref)
        assert sum(h.info.iterations for h in history) == newton
        assert newton <= sum(h.info.iterations for h in history_ref)


@pytest.mark.parametrize("scale", [1e-150, 1e-10, 1.0, 3.7e10, 1e150])
def test_norm2_matches_plain_norm(scale):
    v = scale * np.random.default_rng(7).standard_normal(1000)
    assert solver._norm2(v) == np.linalg.norm(v)


@pytest.mark.parametrize("value", [1e160, 1e300, -8e307])
def test_norm2_does_not_overflow(value):
    v = np.full(4, value)
    assert solver._norm2(v) == pytest.approx(2 * abs(value), rel=1e-15)


def test_norm2_past_the_largest_float_is_inf():
    assert solver._norm2(np.full(4, 1.7e308)) == np.inf


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
        alpha, trial, _, _ = damped_step(spec, fld, field_state(fld), direction,
                                         float(np.linalg.norm(res)))
        assert alpha < 1.0
        du, d2u = trial.derivatives()
        eigs = np.linalg.eigvalsh(d2u)
        assert np.min(eigs) > CONVEXITY_RTOL * np.max(eigs)
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
                                         float(np.linalg.norm(res)))
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

    @pytest.mark.parametrize("steps", [0, 1])
    def test_schedule_must_reach_one(self, steps):
        # one point from t_min = 0.5 would return the t = 0.5 field
        omega = Ellipse((0, 0), (1.0, 0.8))
        spec = ProblemSpec(omega, Ball((0, 0), 0.4), MINK, build_grid(omega, 16, 32))
        with pytest.raises(ValueError, match="steps must be >= 2"):
            run_homotopy(spec, steps=steps, t_min=0.5)

    @pytest.mark.parametrize("t_min", [float("nan"), 1.5, 0.0, -0.5])
    def test_t_min_must_be_in_unit_interval(self, t_min):
        # NaN and t_min > 1 used to solve t = 1 alone, ignoring steps
        omega = Ellipse((0, 0), (1.0, 0.8))
        spec = ProblemSpec(omega, Ball((0, 0), 0.4), MINK, build_grid(omega, 16, 32))
        with pytest.raises(ValueError, match=r"t_min must be in \(0, 1\]"):
            run_homotopy(spec, steps=3, t_min=t_min)

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
        assert all(h.info.iterations <= 15 for h in history)
        assert len(history) <= 12 + 4  # schedule plus possible bisections

    def test_c_history_within_integral_bounds(self, ci_instances):
        # at every continuation step the solved constant obeys the
        # area/perimeter bounds of the pair it solved, (omega, omega_tilde_t),
        # up to the discretization slack measured by the flux identity
        for name in ("ellipse_ball", "ball_ellipse"):
            spec, _, history = ci_instances[name]
            for state in history:
                omega_tilde_t = spec.omega_tilde.sublevel(state.t)
                lam1, lam2 = lambda_bounds(spec.omega, omega_tilde_t, MINK)
                spec_t = ProblemSpec(spec.omega, omega_tilde_t, MINK, state.field.grid)
                slack = 3.0 * flux_identity(spec_t, state.field) * abs(state.field.c)
                c = state.field.c
                assert lam1 - slack <= c <= lam2 + slack

    def test_warm_start_iteration_budget(self, ci_instances):
        for name in ("ellipse_ball", "ball_ellipse"):
            _, _, history = ci_instances[name]
            assert all(h.info.iterations <= 15 for h in history[1:])

    def test_c_history_recorded(self, ci_instances):
        # the (t, c) history is the states' own: one state per accepted
        # step, t strictly increasing to 1, each with its own field
        _, _, history = ci_instances["ellipse_ball"]
        ts = [h.t for h in history]
        assert ts == sorted(set(ts)) and ts[-1] == 1.0
        assert len({id(h.field) for h in history}) == len(history)
