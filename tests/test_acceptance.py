"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import time

import numpy as np
import pytest

from cmcsolve import (Ball, Ellipse, ModelKind, ProblemSpec, SolutionField,
                      build_grid, jacobian, lambda_bounds, newton_solve,
                      radial_profile, run_homotopy, seed_field)
from cmcsolve.diagnostics import flux_identity, full_report, mass_balance, \
    obliqueness_profile
from cmcsolve.duality import FieldInterpolant, dual_solve
from cmcsolve.kernel import mean_curvature, operator_derivatives
from cmcsolve.radial import RadialSolution
from conftest import C_RADIAL, C_RADIAL_EUC, EUC, MINK, solve_direct
from helpers import (fd_operator_derivatives, field_state, grid_tolerance,
                     ode_crosscheck, random_states, shape_matrix)
from test_assembly import fd_jacobian, smooth_convex_field


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def closed_form_error(spec, fld):
    grid = spec.grid
    sol = RadialSolution(2, spec.omega.radius, spec.omega_tilde.radius,
                         spec.model)
    r = np.linalg.norm(grid.nodes, axis=-1)
    exact = grid.mean_zero(radial_profile(sol, np.minimum(r, 1.0))[0])
    return np.max(np.abs(fld.u - exact))


def test_criterion_1_radial_minkowski_ground_truth():
    times = []
    results = []
    for n in (32, 64):
        t0 = time.time()
        spec, fld, _ = solve_direct(Ball((0, 0), 1.0), Ball((0, 0), 0.5),
                                    MINK, n, 2 * n)
        times.append(time.time() - t0)
        results.append((abs(fld.c - C_RADIAL), closed_form_error(spec, fld)))
    (err_c, u_err_c), (err_f, u_err_f) = results
    factor = u_err_c / u_err_f
    ok = (err_c <= 1e-3 and err_f <= 1e-3 and factor >= 3.5
          and max(times) <= 60.0)
    report(1, ok, f"|c-{C_RADIAL:.7f}| = {err_c:.2e} (32x64), {err_f:.2e} "
                  f"(64x128); L_inf(u) drop factor {factor:.2f} >= 3.5; "
                  f"solve times {times[0]:.1f}s, {times[1]:.1f}s <= 60s")


def test_criterion_2_radial_euclidean_ground_truth():
    dev = ode_crosscheck(RadialSolution(2, 1.0, 1.0, EUC))
    assert dev <= 1e-10
    t0 = time.time()
    _, fld, _ = solve_direct(Ball((0, 0), 1.0), Ball((0, 0), 1.0), EUC, 64, 128)
    err = abs(fld.c - C_RADIAL_EUC)
    ok = err <= 1e-3 and time.time() - t0 <= 60
    report(2, ok, f"ODE deviation {dev:.1e} <= 1e-10; "
                  f"|c-{C_RADIAL_EUC:.7f}| = {err:.2e} <= 1e-3")


def test_criterion_3_integral_bounds(ci_instances):
    msgs = []
    ok = True
    for name, (spec, fld, _) in ci_instances.items():
        lam1, lam2 = lambda_bounds(spec.omega, spec.omega_tilde, MINK)
        delta = 3.0 * flux_identity(spec, fld) * abs(fld.c)
        inside = lam1 - delta <= fld.c <= lam2 + delta
        ok = ok and inside
        msgs.append(f"{name}: {lam1:.4f}-{delta:.1e} <= {fld.c:.4f} <= "
                    f"{lam2:.4f}+{delta:.1e}")
    spec, fld, _ = ci_instances["balls_concentric"]
    _, lam2 = lambda_bounds(spec.omega, spec.omega_tilde, MINK)
    sat = abs(fld.c - lam2)
    ok = ok and sat <= 2e-3
    report(3, ok, "; ".join(msgs) + f"; saturation |c-L2| = {sat:.2e} <= 2e-3")


def test_criterion_4_mass_balance(ci_instances):
    errs = {name: mass_balance(spec, fld)
            for name, (spec, fld, _) in ci_instances.items()}
    ok = all(e <= 0.02 for e in errs.values())
    seq = []
    for n in (16, 32, 64):
        spec, fld, _ = solve_direct(Ball((0, 0), 1.0), Ball((0, 0), 0.5),
                                    MINK, n, 2 * n)
        seq.append(mass_balance(spec, fld))
    order = np.log2(seq[0] / seq[2]) / 2.0
    ok = ok and order >= 1.8
    report(4, ok, f"errors {['%.2e' % e for e in errs.values()]} <= 2%; "
                  f"radial order {order:.2f} >= 1.8")


def test_criterion_5_duality(radial_32):
    spec, fld, _ = radial_32
    dual, _ = dual_solve(spec)
    gap = abs(dual.c + fld.c)
    budget = 2.0 * abs(fld.c - C_RADIAL)
    interp_p, interp_d = FieldInterpolant(fld), FieldInterpolant(dual)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-0.7, 0.7, (500, 2))
    pts = pts[np.linalg.norm(pts, axis=-1) < 0.9][:200]
    invo = np.max(np.abs(interp_d.gradient(interp_p.gradient(pts)) - pts))
    ok = gap <= budget and invo <= 5.0 * grid_tolerance(spec.grid)
    report(5, ok, f"|c_dual + c| = {gap:.2e} <= 2x primal error {budget:.2e}; "
                  f"gradient involution {invo:.2e} <= "
                  f"{5.0 * grid_tolerance(spec.grid):.2e}")


def test_criterion_6_obliqueness(ci_instances):
    spec, fld, _ = ci_instances["balls_concentric"]
    vals, vmin = obliqueness_profile(spec, fld)
    ok = abs(vmin - 1.0) <= 1e-3 and abs(np.max(vals) - 1.0) <= 1e-3
    detail = f"concentric min <beta,nu> = {vmin:.6f} = 1 +- 1e-3"
    for name in ("ellipse_ball", "ball_ellipse"):
        spec, fld, _ = ci_instances[name]
        _, m = obliqueness_profile(spec, fld)
        ok = ok and m >= 0.05
        detail += f"; {name} min = {m:.3f} >= 0.05"
    report(6, ok, detail)


def test_criterion_7_invariant_suites(radial_32):
    rng = np.random.default_rng(21)
    du, d2u = random_states(rng, 1000)
    worst_state = 0.0
    for model in (MINK, EUC):
        g_r, g_p = operator_derivatives(du, d2u, model)
        fd_r, fd_p = fd_operator_derivatives(du, d2u, model)
        worst_state = max(worst_state,
                          np.max(np.abs(g_r - fd_r) / np.maximum(np.abs(fd_r), 1)),
                          np.max(np.abs(g_p - fd_p) / np.maximum(np.abs(fd_p), 1)))

    worst_asm = 0.0
    for om, omt, model in [
        (Ball((0, 0), 1.0), Ball((0, 0), 0.5), MINK),
        (Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4), MINK),
        (Ball((0, 0), 1.0), Ball((0, 0), 0.6), EUC),
    ]:
        grid = build_grid(om, 12, 24)
        spec = ProblemSpec(om, omt, model, grid)
        fld = smooth_convex_field(spec)
        jac = np.asarray(jacobian(spec, *field_state(fld)).todense())
        fd = fd_jacobian(spec, fld)
        worst_asm = max(worst_asm, np.max(np.abs(jac - fd)) / np.max(np.abs(jac)))

    h_gap = 0.0
    for model in (MINK, EUC):
        h1 = np.trace(shape_matrix(du, d2u, model), axis1=-2, axis2=-1)
        h2 = mean_curvature(du, d2u, model)
        h_gap = max(h_gap, float(np.max(np.abs(h1 - h2))))

    spec, f1, _ = radial_32
    du_f, d2u_f = f1.derivatives()
    guards_ok = bool(np.min(np.linalg.eigvalsh(d2u_f)) >= 1e-8)
    guards_ok &= bool(np.max(np.linalg.norm(du_f, axis=-1)) <= 1.0 - 1e-6)

    grid = spec.grid
    quad = SolutionField(grid, grid.mean_zero(
        0.5 * 0.45 * np.sum(grid.nodes ** 2, axis=-1)), 0.9, MINK)
    f2, _ = newton_solve(spec, quad)
    agree = np.max(np.abs(grid.mean_zero(f1.u) - grid.mean_zero(f2.u)))

    ok = (worst_state <= 1e-5 and worst_asm <= 1e-5 and h_gap <= 1e-10
          and guards_ok and agree <= 1e-6)
    report(7, ok, f"pointwise FD gap {worst_state:.1e} <= 1e-5; assembly FD "
                  f"gap {worst_asm:.1e} <= 1e-5; two-formula H gap {h_gap:.1e}"
                  f" <= 1e-10; guards hold; two-guess gap {agree:.1e} <= 1e-6")


def test_criterion_8_homotopy_robustness(ci_instances):
    t0 = time.time()
    omega = Ellipse((0, 0), (1.0, 0.8))
    spec = ProblemSpec(omega, Ball((0, 0), 0.4), MINK, build_grid(omega, 32, 64))
    fld, history = run_homotopy(spec)
    elapsed = time.time() - t0
    rep = full_report(spec, fld)
    iters = [h.info.iterations for h in history]
    ok = (len(history) <= 12 and max(iters) <= 15 and rep.all_pass
          and elapsed <= 600)
    report(8, ok, f"{len(history)} steps <= 12; max Newton iterations "
                  f"{max(iters)} <= 15; report all-pass = {rep.all_pass}; "
                  f"runtime {elapsed:.1f}s <= 600s")
