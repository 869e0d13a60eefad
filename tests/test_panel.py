"""The paper's class as a tier-1 panel, and the refinement order of c on a
thin non-round pair.

The panel pairs Omega = Ellipse((0.2, 0.1), (1, b)), b in PANEL_B, with four
targets, in both models at 32x64.  Every domain is an Ellipse, so no pair
takes the radial seed.  Each pair is solved directly (Newton at t = 1 from
the transport seed); the direct solve must pass every diagnostic, and
dual_solve must pass dual_consistency against it.  The same two checks run
on near-cone pairs: Minkowski Ball(0, 1) -> Ball(0, t0), t0 in NEAR_CONE_T0,
at 16x32 and 32x64, whose gradient image reaches within 1 - t0 of the light
cone |Du| = 1, and on the pair of the forced homotopy walk that CI runs,
solved here directly.  Every solved pair's field must also Legendre-transform
onto a grid over its gradient image without an InversionFailure.  A pair that
fails today is marked strict xfail with its measured failure, so a fix shows
as an XPASS that fails the suite until its mark is lifted.
"""

import functools

import pytest

from cmcsolve import (Ball, Ellipse, ProblemSpec, build_grid, newton_solve,
                      seed_field)
from cmcsolve.diagnostics import full_report
from cmcsolve.duality import dual_solve, legendre_transform
from cmcsolve.errors import ConvexityLoss, InversionFailure, SeedFailure
from conftest import EUC, MINK

PANEL_B = (1.0, 0.6, 0.35, 0.2, 0.1)
TARGETS = {"round": Ellipse((0, 0), (0.4, 0.4)),
           "offset": Ellipse((0.3, -0.2), (0.5, 0.25)),
           "high": Ellipse((0, 0.5), (0.3, 0.3)),
           "flat": Ellipse((0, 0), (0.9, 0.2))}
NEAR_CONE_T0 = (0.95, 0.98, 0.99)
# test id: (model, omega, omega_tilde, n_rho), solved at n_rho x 2 n_rho
CASES = {
    **{f"{model.value}-b{b}-{name}": (model, Ellipse((0.2, 0.1), (1.0, b)), target, 32)
       for model in (MINK, EUC) for b in PANEL_B for name, target in TARGETS.items()},
    **{f"near-cone-{n}x{2 * n}-t{t0}": (MINK, Ball((0, 0), 1.0), Ball((0, 0), t0), n)
       for n in (16, 32) for t0 in NEAR_CONE_T0},
    "forced-walk-32x64": (MINK, Ellipse((0.05, 0), (1.0, 0.8)), Ball((0.1, 0), 0.85), 32),
}


def _xfail(reason, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


_CONVEXITY_LOSS = _xfail("the direct solve raises ConvexityLoss at node 2001 "
                         "(min eig 2.1e-8)", raises=ConvexityLoss)
_SEED_FAILURE = _xfail("seed_field raises SeedFailure: exact radial seed failed "
                       "the admissibility guards", raises=SeedFailure)
_NEAR_CONE_SEED_FAILURES = {f"near-cone-{case}": _SEED_FAILURE
                            for case in ("16x32-t0.95", "16x32-t0.98", "16x32-t0.99",
                                         "32x64-t0.98", "32x64-t0.99")}

DIRECT_FAILS = {
    "minkowski-b0.2-flat": _xfail("mass_balance 2.30e-2 above its 2e-2 bound"),
    "minkowski-b0.1-flat": _CONVEXITY_LOSS,
    "euclidean-b0.1-flat": _xfail("mass_balance 2.007e-2 above its 2e-2 bound"),
    **_NEAR_CONE_SEED_FAILURES,
}

DUAL_MISSES = {
    "minkowski-b1.0-flat": _xfail("dual gap 1.80e-2 above its 1.09e-2 bound"),
    "minkowski-b0.6-flat": _xfail("dual gap 1.90e-2 above its 6.91e-3 bound"),
    "minkowski-b0.35-offset": _xfail("dual gap 1.53e-3 above its 7.82e-4 bound"),
    "minkowski-b0.35-flat": _xfail("dual gap 2.02e-2 above its 3.63e-3 bound"),
    "minkowski-b0.2-offset": _xfail("dual gap 6.42e-3 above its 1.06e-3 bound"),
    "minkowski-b0.1-offset": _xfail("dual gap 2.87e-2 above its 1.23e-2 bound"),
    "minkowski-b0.1-flat": _CONVEXITY_LOSS,
    "euclidean-b0.2-round": _xfail("dual gap 2.05e-5 above its 1.45e-5 bound"),
    "near-cone-32x64-t0.95": _xfail("dual gap 2.57e-1 above its 2.27e-2 bound"),
    # the walk's own field misses by the same gap
    "forced-walk-32x64": _xfail("dual gap 6.338e-2 above its 2.747e-2 bound"),
    **_NEAR_CONE_SEED_FAILURES,
}

INVERSION_FAILS = {
    "minkowski-b0.2-flat": _xfail("gradient gap 1.14e-3 left after 30 inversion iterations",
                                  raises=InversionFailure),
    "minkowski-b0.1-flat": _CONVEXITY_LOSS,
    **_NEAR_CONE_SEED_FAILURES,
}


def _panel(marks):
    return [pytest.param(case, marks=marks.get(case, ()), id=case) for case in CASES]


@functools.cache
def _solved(case):
    model, omega, omega_tilde, n_rho = CASES[case]
    spec = ProblemSpec(omega, omega_tilde, model, build_grid(omega, n_rho, 2 * n_rho))
    fld, _ = newton_solve(spec, seed_field(spec))
    return spec, fld


@pytest.mark.parametrize("case", _panel(DIRECT_FAILS))
def test_direct_solve_passes_every_diagnostic(case):
    report = full_report(*_solved(case))
    assert report.all_pass, {k: v for k, v in report.checks.items() if not v["passed"]}


@pytest.mark.parametrize("case", _panel(DUAL_MISSES))
def test_dual_solve_passes_dual_consistency(case):
    spec, fld = _solved(case)
    dual, _ = dual_solve(spec)
    check = full_report(spec, fld, dual=dual).checks["dual_consistency"]
    assert check["passed"], check


@pytest.mark.parametrize("case", _panel(INVERSION_FAILS))
def test_legendre_transform_inverts_every_target(case):
    spec, fld = _solved(case)
    n_rho = spec.grid.n_rho
    legendre_transform(fld, build_grid(spec.omega_tilde, n_rho, 2 * n_rho))


def test_c_refines_at_second_order_on_a_thin_ellipse():
    # the direct solve at 32x64, 64x128 and 128x256: successive differences
    # of c shrink by about 4 (measured 4.59)
    omega, target = Ellipse((0.2, 0.1), (1.0, 0.35)), Ball((0, 0), 0.4)
    c = []
    for n in (32, 64, 128):
        spec = ProblemSpec(omega, target, MINK, build_grid(omega, n, 2 * n))
        c.append(newton_solve(spec, seed_field(spec))[0].c)
    assert (c[1] - c[0]) / (c[2] - c[1]) == pytest.approx(4.0, abs=1.0)
