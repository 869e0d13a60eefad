from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from cmcsolve import (Ball, Ellipse, ModelKind, OperatorKind, ProblemSpec,
                      RadialSolution, SolutionField, build_grid, jacobian,
                      newton_solve, radial_profile, residual, seed_field)
from cmcsolve.assembly import (_inverse_2x2, admissibility_violation,
                               hessian_eig_bounds, inverse_hessian_operator,
                               operator_state_derivatives)
from cmcsolve.errors import (ConfigError, ConvexityLoss, SingularHessian,
                             SpacelikeViolation)
from cmcsolve.kernel import mean_curvature
from helpers import dump_triplets, field_state, random_states

MINK = ModelKind.MINKOWSKI
EUC = ModelKind.EUCLIDEAN


def radial_interpolant(spec):
    grid = spec.grid
    sol = RadialSolution(2, spec.omega.radius, spec.omega_tilde.radius, spec.model)
    r = np.linalg.norm(grid.nodes - np.asarray(spec.omega.center), axis=-1)
    u, _, _ = radial_profile(sol, np.minimum(r, spec.omega.radius))
    return SolutionField(grid, grid.mean_zero(u), sol.c, spec.model), sol


def smooth_convex_field(spec, amp=0.03):
    grid = spec.grid
    x = grid.nodes
    u = 0.2 * np.sum(x ** 2, axis=-1) + amp * np.sin(2 * x[:, 0]) * np.cos(2 * x[:, 1])
    return SolutionField(grid, grid.mean_zero(u), 0.8, spec.model)


def fd_jacobian(spec, fld, step=1e-6):
    n = spec.grid.n_nodes
    cols = []
    for m in range(n + 1):
        up, um = replace(fld, u=fld.u.copy()), replace(fld, u=fld.u.copy())
        if m < n:
            up.u[m] += step
            um.u[m] -= step
        else:
            up.c += step
            um.c -= step
        cols.append((residual(spec, up) - residual(spec, um)) / (2 * step))
    return np.stack(cols, axis=-1)


class TestResidual:
    def test_exact_radial_order(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        norms = []
        for n in (16, 32, 64):
            grid = build_grid(om, n, 2 * n)
            spec = ProblemSpec(om, omt, MINK, grid)
            fld, _ = radial_interpolant(spec)
            norms.append(np.max(np.abs(residual(spec, fld))))
        assert np.log2(norms[0] / norms[1]) >= 1.8
        assert np.log2(norms[1] / norms[2]) >= 1.8

    def test_zero_field_structure(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        res = residual(spec, SolutionField(grid, np.zeros(grid.n_nodes), 0.0, MINK))
        assert np.max(np.abs(res[:grid.n_nodes][grid.interior_mask])) == 0.0
        # boundary entries equal the target defining function at the origin
        h0, _, _ = omt.defining(np.zeros(2))
        assert np.allclose(res[grid.boundary_idx], h0, atol=1e-15)
        assert h0 > 0

    def test_quadratic_matches_target_boundary(self):
        # Du = lam x maps the ball boundary exactly onto the target boundary
        lam = 0.45
        om = Ball((0, 0), 1.0)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, Ball((0, 0), lam), MINK, grid)
        u = grid.mean_zero(0.5 * lam * np.sum(grid.nodes ** 2, axis=-1))
        res = residual(spec, SolutionField(grid, u, 1.0, MINK))
        assert np.max(np.abs(res[grid.boundary_idx])) <= 1e-9

    def test_spacelike_violation_reported(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        u = 0.9999995 * grid.nodes[:, 0]
        with pytest.raises(SpacelikeViolation):
            residual(spec, SolutionField(grid, u, 0.0, MINK))

    def test_nonconvex_field_allowed(self):
        # the residual is defined for non-convex states; only the solver guards
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 16, 32)
        spec = ProblemSpec(om, omt, MINK, grid)
        u = grid.mean_zero(0.1 * grid.nodes[:, 0] ** 2 - 0.1 * grid.nodes[:, 1] ** 2)
        res = residual(spec, SolutionField(grid, u, 0.0, MINK))
        assert np.all(np.isfinite(res))


def jacobian_case(case, n_rho=12):
    """(spec, field) of a named Jacobian test instance at n_rho x 2 n_rho."""
    if case in ("mink_ball", "radial_seed"):
        om, omt, model, op = Ball((0, 0), 1.0), Ball((0, 0), 0.5), MINK, \
            OperatorKind.GRAPH
    elif case == "euc_ellipse":
        om, omt, model, op = Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4), \
            EUC, OperatorKind.GRAPH
    elif case == "dual_ellipse":
        om, omt, model, op = Ball((0.1, 0), 0.4), Ellipse((0.05, 0), (1.0, 0.8)), EUC, \
            OperatorKind.INVERSE_HESSIAN
    else:
        om, omt, model, op = Ball((0, 0), 0.5), Ball((0, 0), 1.0), MINK, \
            OperatorKind.INVERSE_HESSIAN
    grid = build_grid(om, n_rho, 2 * n_rho)
    spec = ProblemSpec(om, omt, model, grid, operator=op)
    if case == "radial_seed":
        return spec, seed_field(spec)
    if case == "dual_ellipse":
        fld = seed_field(spec)
        fld.u = fld.u + 0.01 * np.sin(3.0 * grid.nodes[:, 1])
        return spec, fld
    fld = smooth_convex_field(spec)
    if case == "dual":
        fld.u = grid.mean_zero(2.0 * 0.5 * np.sum(grid.nodes ** 2, axis=-1)
                               + 0.02 * np.sin(grid.nodes[:, 0]))
    return spec, fld


def product_jacobian(spec, fld):
    """Reference assembly: every recovery operator weighted by a diagonal
    matrix and summed in the order dxx, dxy, dyy, dx, dy, bx, by, then the
    border appended.  Sparse products and sums drop exact zeros."""
    grid = spec.grid
    n = grid.n_nodes
    du, d2u = fld.derivatives()
    g_r, g_p = operator_state_derivatives(spec, grid.nodes, du, d2u)
    bidx = grid.boundary_idx
    _, dh_b, _ = spec.omega_tilde.defining(grid.boundary_gradients(fld.u))
    weights = {'dxx': g_r[:, 0, 0], 'dxy': 2.0 * g_r[:, 0, 1], 'dyy': g_r[:, 1, 1],
               'dx': g_p[:, 0], 'dy': g_p[:, 1]}
    m = None
    for name, w in weights.items():
        w = w.copy()
        w[bidx] = 0.0
        term = sp.diags(w) @ grid.ops[name]
        m = term if m is None else m + term
    for name, k in (('bx', 0), ('by', 1)):
        w = np.zeros(n)
        w[bidx] = dh_b[:, k]
        m = m + sp.diags(w) @ grid.ops[name]
    c_col = np.full(n, -1.0)
    c_col[bidx] = 0.0
    return sp.bmat([[m, sp.csr_matrix(c_col[:, None])],
                    [sp.csr_matrix(grid.quad_weights[None, :]), None]], format='csr')


class TestJacobian:
    @pytest.mark.parametrize("case", ["mink_ball", "euc_ellipse", "dual"])
    def test_against_finite_differences(self, case):
        spec, fld = jacobian_case(case)
        jac = np.asarray(jacobian(spec, *field_state(fld)).todense())
        fd = fd_jacobian(spec, fld)
        rel = np.max(np.abs(jac - fd)) / np.max(np.abs(jac))
        assert rel <= 1e-5

    @pytest.mark.parametrize("n_rho", [8, 16])
    @pytest.mark.parametrize("case", ["mink_ball", "euc_ellipse", "dual", "dual_ellipse",
                                      "radial_seed"])
    def test_matches_product_assembly(self, case, n_rho):
        # the pattern fill sums the same products in the same order, so the
        # matrix, its pattern included, is the reference's bit for bit once
        # both have their rows sorted (the fill keeps stencil order); the
        # dual cases' reference still sums the zero dx, dy terms the fill
        # skips
        spec, fld = jacobian_case(case, n_rho)
        jac, ref = jacobian(spec, *field_state(fld)), product_jacobian(spec, fld)
        jac.sort_indices()
        ref.sort_indices()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(jac, attr), getattr(ref, attr))

    def test_no_stored_zeros(self):
        # a stored zero would change the LU ordering and its fill.  On ray 0
        # of the radial seed's boundary ring bx's tangential weights are
        # exact zeros (e_t = (-0, 1), L diagonal); with that node's boundary
        # Du y-component 0, as the seed's symmetry has it to roundoff, Dh's
        # is too, and the row's tangential entries are exact zeros, dropped
        # with the pole's quadrature weight.  Dropping them leaves the
        # grid's bordered pattern as it was for the next call
        spec, fld = jacobian_case("radial_seed", 16)
        du, d2u, du_b = field_state(fld)
        du_b = du_b.copy()
        du_b[0, 1] = 0.0
        jac, again = (jacobian(spec, du, d2u, du_b) for _ in range(2))
        assert np.all(jac.data != 0.0)
        assert len(jac.data) < len(spec.grid.bordered_pattern.indices) - 1
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(again, attr), getattr(jac, attr))

    def test_constant_column_structure(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 12, 24)
        spec = ProblemSpec(om, omt, MINK, grid)
        fld = smooth_convex_field(spec)
        jac = jacobian(spec, *field_state(fld))
        col = np.asarray(jac[:, grid.n_nodes].todense()).ravel()
        assert np.all(col[:grid.n_nodes][grid.interior_mask] == -1.0)
        assert np.all(col[grid.boundary_idx] == 0.0)
        assert col[grid.n_nodes] == 0.0
        row = np.asarray(jac[grid.n_nodes, :].todense()).ravel()
        assert np.allclose(row[:grid.n_nodes], grid.quad_weights)

    def test_nonsingular_at_solution(self):
        om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
        grid = build_grid(om, 12, 24)
        spec = ProblemSpec(om, omt, MINK, grid)
        fld, _ = newton_solve(spec, seed_field(spec))
        jac = jacobian(spec, *field_state(fld)).tocsc()
        lu, lut = splu(jac), splu(jac.T.tocsc())
        rng = np.random.default_rng(0)
        y = rng.standard_normal(jac.shape[0])
        y /= np.linalg.norm(y)
        for _ in range(40):
            w = lut.solve(lu.solve(y))
            s = np.linalg.norm(w)
            y = w / s
        sigma_min = 1.0 / np.sqrt(s)
        print(f"smallest singular value at solution: {sigma_min:.6e}")
        assert sigma_min > 1e-4


class TestProblemSpec:
    def test_minkowski_image_inside_unit_ball(self):
        om = Ball((0, 0), 1.0)
        grid = build_grid(om, 8, 16)
        with pytest.raises(ConfigError):
            ProblemSpec(om, Ball((0, 0), 1.01), MINK, grid)

    def test_euclidean_unrestricted(self):
        om = Ball((0, 0), 1.0)
        grid = build_grid(om, 8, 16)
        ProblemSpec(om, Ball((0, 0), 1.5), EUC, grid)

    def test_dual_checks_position_domain(self):
        om = Ball((0, 0), 1.2)
        grid = build_grid(om, 8, 16)
        with pytest.raises(ConfigError):
            ProblemSpec(om, Ball((0, 0), 0.5), MINK, grid,
                        operator=OperatorKind.INVERSE_HESSIAN)


class TestDualOperatorDerivatives:
    """dG/d(d2u) of the inverse-Hessian operator, W s W written out by entries."""

    @pytest.fixture(params=[MINK, EUC], ids=["minkowski", "euclidean"])
    def case(self, request):
        om = Ball((0, 0), 0.9)
        spec = ProblemSpec(om, Ball((0, 0), 1.0), request.param, build_grid(om, 8, 16),
                           operator=OperatorKind.INVERSE_HESSIAN)
        rng = np.random.default_rng(31)
        du, d2u = random_states(rng, 400)
        positions, _ = random_states(rng, 400)
        return spec, positions, du, d2u

    def test_symmetric_and_no_gradient_term(self, case):
        spec, positions, du, d2u = case
        g_r, g_p = operator_state_derivatives(spec, positions, du, d2u)
        assert g_r.shape == d2u.shape and g_p.shape == du.shape
        assert np.array_equal(g_r, np.swapaxes(g_r, -1, -2))
        assert np.all(g_p == 0.0)

    def test_against_finite_differences(self, case):
        spec, positions, du, d2u = case
        g_r, _ = operator_state_derivatives(spec, positions, du, d2u)
        step = 1e-6
        for i, j in ((0, 0), (0, 1), (1, 1)):
            dr = np.zeros_like(d2u)
            dr[:, i, j] = dr[:, j, i] = step
            fd = (inverse_hessian_operator(positions, d2u + dr, spec.model)
                  - inverse_hessian_operator(positions, d2u - dr, spec.model)) / (2 * step)
            if i != j:   # the symmetric pair moves both entries
                fd = fd / 2.0
            assert np.max(np.abs(g_r[:, i, j] - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-6


@pytest.mark.parametrize("model", [MINK, EUC], ids=["minkowski", "euclidean"])
def test_dual_operator_is_curvature_at_inverse_hessian(model):
    # -G(y, [D^2u]^{-1}) on a seed field's Hessians, the inverse written out
    # by the adjugate: the same arithmetic, so equal bit for bit
    om = Ball((0.05, 0.0), 0.9)
    spec = ProblemSpec(om, Ball((0, 0), 0.5), model, build_grid(om, 8, 16))
    _, h = seed_field(spec).derivatives()
    r11, r12, r22 = h[:, 0, 0], h[:, 0, 1], h[:, 1, 1]
    det = r11 * r22 - r12 * r12
    w = np.stack([np.stack([r22 / det, -r12 / det], -1),
                  np.stack([-r12 / det, r11 / det], -1)], -2)
    y = spec.grid.nodes
    assert np.array_equal(inverse_hessian_operator(y, h, model), -mean_curvature(y, w, model))


class TestInverse2x2:
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_conditioned_passes_at_every_scale(self, scale):
        h = scale * np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]])
        assert np.allclose(_inverse_2x2(h) @ h, np.eye(2), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_singular_fails_at_every_scale(self, scale):
        with pytest.raises(SingularHessian):
            _inverse_2x2(scale * np.array([[[1.0, 1.0], [1.0, 1.0]]]))


class TestHessianEigBounds:
    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((50, 2, 2))
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        lo, hi = hessian_eig_bounds(a)
        eigs = np.linalg.eigvalsh(a)
        assert np.allclose(lo, eigs[:, 0], atol=1e-12)
        assert np.allclose(hi, eigs[:, 1], atol=1e-12)


class TestConvexityGuard:
    # the node under test sits among identity Hessians; None = admissible
    CASES = [
        (np.eye(2), None),
        (np.array([[2.0, 0.5], [0.5, 1.0]]), None),
        (np.diag([1e-6, 1.0]), None),
        (np.diag([1e-9, 1.0]), 3),
        (np.diag([-1.0, 1.0]), 3),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), 3),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), 3),
    ]

    @staticmethod
    def verdict(d2u):
        om = Ball((0, 0), 1.0)
        spec = ProblemSpec(om, Ball((0, 0), 0.5), EUC, build_grid(om, 8, 16))
        guard = admissibility_violation(spec, np.zeros(d2u.shape[:-1]), d2u)
        return None if guard is None else (type(guard), guard.node)

    @pytest.mark.parametrize("case, node", CASES)
    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_verdict_is_scale_free(self, case, node, scale):
        d2u = np.repeat(np.eye(2)[None], 6, axis=0)
        d2u[3] = case
        expected = None if node is None else (ConvexityLoss, node)
        assert self.verdict(d2u) == expected
        assert self.verdict(scale * d2u) == expected

    def test_zero_hessian_fails(self):
        assert self.verdict(np.zeros((6, 2, 2))) == (ConvexityLoss, 0)


def test_dump_triplets(tmp_path):
    om, omt = Ball((0, 0), 1.0), Ball((0, 0), 0.5)
    grid = build_grid(om, 8, 16)
    spec = ProblemSpec(om, omt, MINK, grid)
    fld = smooth_convex_field(spec)
    jac = jacobian(spec, *field_state(fld))
    path = tmp_path / "jac.txt"
    dump_triplets(jac, path)
    rows = []
    for line in path.read_text().splitlines():
        r, c, v = line.split()
        rows.append((int(r), int(c), float(v)))
    assert len(rows) == jac.nnz
    r0, c0, v0 = rows[0]
    assert jac[r0, c0] == v0

    vec_path = tmp_path / "res.txt"
    dump_triplets(residual(spec, fld), vec_path)
    assert len(vec_path.read_text().splitlines()) == grid.n_nodes + 1
