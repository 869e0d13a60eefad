import numpy as np
import pytest

from cmcsolve import (Ball, Ellipse, ModelKind, ProblemSpec, build_grid,
                      newton_solve, run_homotopy, seed_field)

MINK = ModelKind.MINKOWSKI
EUC = ModelKind.EUCLIDEAN

# closed-form constant of the concentric-ball anchor case (n t0 / (sqrt(1-t0^2) R0))
C_RADIAL = 1.1547005383792517
C_RADIAL_EUC = 1.4142135623730951


def solve_direct(omega, omega_tilde, model, n_rho=32, n_phi=64):
    grid = build_grid(omega, n_rho, n_phi)
    spec = ProblemSpec(omega, omega_tilde, model, grid)
    fld, info = newton_solve(spec, seed_field(spec))
    return spec, fld, info


@pytest.fixture(scope="session")
def radial_32():
    return solve_direct(Ball((0, 0), 1.0), Ball((0, 0), 0.5), MINK, 32, 64)


@pytest.fixture(scope="session")
def radial_64():
    return solve_direct(Ball((0, 0), 1.0), Ball((0, 0), 0.5), MINK, 64, 128)


@pytest.fixture(scope="session")
def ci_instances(radial_32):
    """The continuous-integration instance suite: four solved Minkowski
    problems at 32x64 (two ball pairs, ellipse -> ball, ball -> ellipse)."""
    out = {"balls_concentric": (radial_32[0], radial_32[1], None)}

    spec, fld, _ = solve_direct(Ball((0, 0), 1.0), Ball((0.2, 0), 0.3), MINK)
    out["balls_offcenter"] = (spec, fld, None)

    for name, (om, omt) in {
        "ellipse_ball": (Ellipse((0, 0), (1.0, 0.8)), Ball((0, 0), 0.4)),
        "ball_ellipse": (Ball((0, 0), 1.0), Ellipse((0, 0), (0.4, 0.3))),
    }.items():
        spec = ProblemSpec(om, omt, MINK, build_grid(om, 32, 64))
        fld, history = run_homotopy(spec)
        out[name] = (spec, fld, history)
    return out
