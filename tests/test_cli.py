import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cmcsolve
from cmcsolve import cli, solver
from cmcsolve.cli import main
from cmcsolve.config import parse_config
from cmcsolve.fieldio import load_field, save_field
from helpers import ZeroLU, csv_reference

BASE_CONFIG = """
# concentric-ball instance
model = minkowski
omega.kind = ball
omega.center = 0.0, 0.0
omega.radius = 1.0
omega_tilde.kind = ball
omega_tilde.center = 0.0, 0.0
omega_tilde.radius = 0.5
grid.n_rho = 16
grid.n_phi = 32
output.dir = {out}
"""

HOMOTOPY_CONFIG = """
model = minkowski
omega.kind = ellipse
omega.center = 0, 0
omega.semi_axes = 1.0, 0.8
omega_tilde.kind = ball
omega_tilde.center = 0, 0
omega_tilde.radius = 0.4
grid.n_rho = 16
grid.n_phi = 32
homotopy.enabled = true
homotopy.steps = 8
output.dir = {out}
"""

# the panel's minkowski-b0.1-flat pair, solved directly: the line search
# finds no convex step and a convexity guard stops the solve
GUARD_CONFIG = """
model = minkowski
omega.kind = ellipse
omega.center = 0.2, 0.1
omega.semi_axes = 1.0, 0.1
omega_tilde.kind = ellipse
omega_tilde.center = 0, 0
omega_tilde.semi_axes = 0.9, 0.2
grid.n_rho = 32
grid.n_phi = 64
homotopy.enabled = false
seed.strategy = radial
output.dir = {out}
"""


def _json_tail(out):
    """The report JSON starts at the first brace (solver progress lines may
    precede it on stdout)."""
    return out[out.index("{"):]


def write_config(tmp_path, text=None, **overrides):
    text = BASE_CONFIG if text is None else text
    body = text.format(out=tmp_path / "run")
    for key, value in overrides.items():
        body += f"\n{key} = {value}\n"
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return path


class TestRadialCommand:
    def test_minkowski_constant(self, capsys):
        assert main(["radial", "--n", "2", "--r0", "1", "--t0", "0.5",
                     "--model", "minkowski", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "c = 1.15470054" in out
        assert out.splitlines()[1] == "r,u,du,d2u"

    def test_euclidean_constant(self, capsys):
        assert main(["radial", "--t0", "1", "--model", "euclidean",
                     "--samples", "3"]) == 0
        assert "c = 1.41421356" in capsys.readouterr().out

    def test_precondition_violation_exit_2(self, capsys):
        assert main(["radial", "--t0", "1.2", "--model", "minkowski"]) == 2
        assert "t0" in capsys.readouterr().err

    def test_table_file(self, tmp_path):
        out = tmp_path / "radial.csv"
        assert main(["radial", "--t0", "0.5", "--samples", "11",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12
        r, u, du, d2u = (float(v) for v in lines[-1].split(","))
        assert r == 1.0
        assert u == pytest.approx(2.0 - np.sqrt(3.0), abs=1e-12)
        assert du == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("args, message", [
        (["--t0", "nan"], "t0=nan"),
        (["--t0", "0.5", "--r0", "nan"], "r0=nan"),
        (["--t0", "0.5", "--r0", "inf"], "r0=inf"),
        (["--t0", "inf", "--model", "euclidean"], "t0=inf"),
        # c overflows, or an input or c has a square past the float range
        (["--t0", "0.5", "--r0", "1e-320"], "c=inf"),
        (["--t0", "0.5", "--model", "euclidean", "--r0", "1e308"], "out of floating-point"),
        (["--t0", "1e200", "--model", "euclidean"], "out of floating-point"),
        (["--t0", "0.5", "--n", str(10 ** 400)], "need finite n"),
        (["--t0", "0.5", "--samples", "-1"], "--samples"),
        (["--t0", "0.5", "--samples", "0"], "--samples"),
        # 8 PB of samples: past the address space, so no memory is touched
        (["--t0", "0.5", "--samples", "1000000000000000"], "--samples"),
    ])
    def test_bad_input_exit_2(self, capsys, args, message):
        assert main(["radial", *args]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert "nan" not in captured.out

    def test_unwritable_table_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "radial.csv"
        assert main(["radial", "--t0", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write --out")
        assert not out.exists()

    def test_single_sample(self, capsys):
        assert main(["radial", "--t0", "0.5", "--samples", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "r,u,du,d2u", "0.0,0.0,0.0," + repr(float(1.1547005383792517 / 2))]


class TestSolveCommand:
    def test_concentric_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        out_dir = tmp_path / "run"
        for name in ("field.csv", "field.json", "report.json", "summary.json"):
            assert (out_dir / name).exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["converged"] and summary["all_pass"]
        assert abs(summary["c"] - 1.1547005383792517) < 5e-3
        report = json.loads((out_dir / "report.json").read_text())
        assert report["all_pass"]
        out = capsys.readouterr().out
        assert "newton t=- iter=1" in out

    def test_minkowski_image_violation_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, text=BASE_CONFIG.replace(
            "omega_tilde.radius = 0.5", "omega_tilde.radius = 1.01"))
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_off_centre_image_past_the_guard_exit_2(self, tmp_path, capsys):
        # the farthest boundary point reaches |y| = 0.9999995 > 1 - EPS_SPACE,
        # between the 256 rays a sampled check looks along
        cfg = write_config(tmp_path, text=BASE_CONFIG.replace(
            "omega_tilde.center = 0.0, 0.0", "omega_tilde.center = 0.3, 0.0037").replace(
            "omega_tilde.radius = 0.5", "omega_tilde.radius = 0.6999766842009345"))
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "0.9999995" in err
        assert len(err.strip().splitlines()) == 1

    def test_image_on_the_spacelike_margin_exit_1(self, tmp_path, capsys):
        # max boundary |y| = 1 - EPS_SPACE passes the config check; the seed's
        # spacelike guard refuses it before the kernel sees the gradients
        cfg = write_config(tmp_path, text=HOMOTOPY_CONFIG.replace(
            "omega_tilde.radius = 0.4", "omega_tilde.radius = 0.999999").replace(
            "homotopy.enabled = true", "homotopy.enabled = false"))
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert err.startswith("solver failure: transport seed failed the admissibility "
                              "guards: spacelike guard violated")

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, **{"omega.flavour": "sour"})
        assert main(["solve", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("key", ["solve.eps_convexity", "solve.eps_space"])
    def test_guard_is_not_a_key(self, tmp_path, capsys, key):
        # the admissible class has no settings
        cfg = write_config(tmp_path, **{key: "1e-8"})
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"unknown key {key!r}" in err[0]

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("kind", ["singular", "singular_border"])
    def test_singular_factor_exit_1(self, tmp_path, monkeypatch, capsys, kind):
        # SuperLU finds the node block singular, or its solves make the
        # bordering step's 2 x 2 singular
        def singular_splu(*args, **kwargs):
            if kind == "singular_border":
                return ZeroLU()
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver, "splu", singular_splu)
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        reason = ("Factor is exactly singular" if kind == "singular"
                  else "singular bordering step")
        assert err.strip().splitlines() == [
            f"non-convergence: linear solve failed ({reason}) at iteration 1"]
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert not summary["converged"]
        # a failed run's entry has a converged run's keys: the failed
        # factor made nothing, and GMRES never ran
        [step] = summary["steps"]
        assert [step[key] for key in ("iterations", "factorizations", "krylov_iterations",
                                      "krylov_misses", "lu_fill")] == [0, 0, 0, 0, 0]

    def test_failed_walk_reports_its_solve(self, tmp_path, capsys):
        # one Newton step leaves the direct solve, and then the walk's first
        # solve, short of its target after it has factored; the entry is the
        # walk's.  The fill moves with SuperLU's pivot ties, so only its sign
        # is pinned
        cfg = write_config(tmp_path, text=HOMOTOPY_CONFIG, **{"solve.max_newton": 1})
        assert main(["solve", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("non-convergence: no convergence in 1 ")
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert not summary["converged"]
        [step] = summary["steps"]
        assert (step["t"], step["iterations"], step["factorizations"]) == (0.25, 1, 1)
        assert step["lu_fill"] > 0

    @pytest.mark.parametrize("blocked", ["output.dir under a file",
                                         "field.csv is a directory",
                                         "output.dir not writable"])
    def test_unwritable_output_exit_2_before_solving(self, tmp_path, monkeypatch,
                                                     capsys, blocked):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the output")

        monkeypatch.setattr(cli, "newton_solve", no_solve)
        if blocked == "output.dir under a file":
            (tmp_path / "file").write_text("")
            cfg = write_config(tmp_path, text=BASE_CONFIG.replace(
                "output.dir = {out}", f"output.dir = {tmp_path / 'file' / 'run'}"))
        elif blocked == "field.csv is a directory":
            (tmp_path / "run" / "field.csv").mkdir(parents=True)
            cfg = write_config(tmp_path)
        else:
            # root writes through any mode bits, so os.access is made to refuse
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
            cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output.dir: ")

    def test_failed_artifact_write_exit_2(self, tmp_path, monkeypatch, capsys):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "save_field", full_disk)
        assert main(["solve", "--config", str(write_config(tmp_path))]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: cannot write output.dir: [Errno 28] No space left on device"]

    def test_homotopy_config(self, tmp_path):
        # an explicit t_min forces the walk; 0.25 is auto_t_min's value here
        cfg = write_config(tmp_path, text=HOMOTOPY_CONFIG, **{"homotopy.t_min": 0.25})
        assert main(["solve", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert len(summary["steps"]) == 8

    def test_auto_homotopy_solves_directly(self, tmp_path):
        # t_min = auto tries t = 1 first: one step, and the same artifacts,
        # byte for byte, as the run without homotopy
        auto, off = tmp_path / "auto", tmp_path / "off"
        auto.mkdir()
        off.mkdir()
        assert main(["solve", "--config", str(write_config(auto, text=HOMOTOPY_CONFIG))]) == 0
        cfg = write_config(off, text=HOMOTOPY_CONFIG.replace(
            "homotopy.enabled = true", "homotopy.enabled = false"))
        assert main(["solve", "--config", str(cfg)]) == 0
        [step] = json.loads((auto / "run" / "summary.json").read_text())["steps"]
        assert (step["t"], step["iterations"], step["factorizations"]) == (1.0, 3, 1)
        for name in ("field.csv", "field.json", "report.json", "summary.json"):
            assert (auto / "run" / name).read_bytes() == (off / "run" / name).read_bytes()

    def test_failed_direct_solve_walks(self, tmp_path, capsys):
        # two Newton steps leave the direct solve at residual 1.9e-8; the
        # walk from auto_t_min then converges in [2, 2, 2, 1, 1, 1, 1, 1]
        # to the direct solve's c
        direct = tmp_path / "direct"
        direct.mkdir()
        assert main(["solve", "--config", str(write_config(direct, text=HOMOTOPY_CONFIG))]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, text=HOMOTOPY_CONFIG, **{"solve.max_newton": 2})
        assert main(["solve", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        fallback = [line for line in captured.out.splitlines()
                    if line.startswith("homotopy fallback: ")]
        assert fallback == ["homotopy fallback: direct solve failed (no convergence in 2 "
                            "iterations (residual 1.949e-08)); walking from t=0.25"]
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert len(summary["steps"]) == 8
        direct_summary = json.loads((direct / "run" / "summary.json").read_text())
        assert "direct_attempt" not in direct_summary
        assert summary["c"] == pytest.approx(direct_summary["c"], rel=1e-10)
        # the failed direct attempt is counted: every logged Newton step and
        # both factors (its own and the walk's) appear in summary.json
        attempt, steps = summary["direct_attempt"], summary["steps"]
        assert attempt.keys() == steps[0].keys()
        assert (attempt["t"], attempt["iterations"], attempt["factorizations"]) == (1.0, 2, 1)
        newton_lines = [line for line in captured.out.splitlines()
                        if line.startswith("newton ")]
        assert len(newton_lines) == attempt["iterations"] + sum(s["iterations"] for s in steps)
        assert attempt["factorizations"] + sum(s["factorizations"] for s in steps) == 2

    def test_guard_failure_names_its_node(self, tmp_path, capsys):
        # the panel's minkowski-b0.1-flat pair: the direct solve's line search
        # finds no convex step; node 2001 is on the boundary ring at the end
        # of omega's short axis, (0.2, 0.1) + (0, 0.1)
        cfg = write_config(tmp_path, text=GUARD_CONFIG)
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [err.strip()]
        assert err.startswith("solver failure: convexity guard violated at node 2001: ")
        assert err.rstrip().endswith(" (ring 32, ray 16; x = 0.2, y = 0.2)")

    def test_guard_stopped_solve_writes_its_artifacts(self, tmp_path, capsys):
        # a guard that stops the solve leaves the artifacts of its last
        # accepted iterate, as every stopped Newton solve does.  The counts
        # read 27 iterations and 1 factorization when added; the fill moves
        # with SuperLU's pivot ties, so only their signs are pinned
        cfg = write_config(tmp_path, text=GUARD_CONFIG)
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [err.strip()]
        run = tmp_path / "run"
        assert all((run / name).is_file() for name in ("field.csv", "field.json",
                                                       "report.json", "summary.json"))
        summary = json.loads((run / "summary.json").read_text())
        assert summary["converged"] is False and summary["all_pass"] is False
        [step] = summary["steps"]
        assert step["t"] == 1.0 and step["iterations"] > 0
        assert step["factorizations"] >= 1 and step["lu_fill"] > 0

    @pytest.mark.parametrize("text", [BASE_CONFIG, HOMOTOPY_CONFIG],
                             ids=["direct", "homotopy"])
    def test_steps_report_linear_algebra(self, tmp_path, text):
        cfg = write_config(tmp_path, text=text)
        assert main(["solve", "--config", str(cfg)]) == 0
        steps = json.loads((tmp_path / "run" / "summary.json").read_text())["steps"]
        # the first system of a run is always factored; these runs make no
        # other factor, so GMRES never misses and no later step has a fill
        assert steps[0]["factorizations"] == 1
        assert sum(step["factorizations"] for step in steps) == 1
        assert steps[0]["lu_fill"] > 0
        for step in steps:
            for key in ("factorizations", "krylov_iterations", "krylov_misses", "lu_fill"):
                assert isinstance(step[key], int) and step[key] >= 0
            assert step["krylov_misses"] == 0
            assert (step["lu_fill"] > 0) == (step["factorizations"] > 0)

    @pytest.mark.parametrize("case, text, unknowns", [
        ("concentric", BASE_CONFIG, 2 + 16 * 9),
        ("off-centre-target", BASE_CONFIG.replace("omega_tilde.center = 0.0, 0.0",
                                                  "omega_tilde.center = 0.1, 0.0"), 2 + 16 * 32),
        ("guard-stopped", GUARD_CONFIG, 2 + 32 * 17)])
    def test_steps_report_their_unknowns(self, tmp_path, case, text, unknowns):
        # the order of the Newton systems solved: a concentric ball pair has
        # the half turn and both mirrors (the pole, rays j <= n_phi // 4 and
        # c), an off-centre target none (N + 1), and a failed run reports
        # it as a converged one does
        cfg = write_config(tmp_path, text=text)
        assert main(["solve", "--config", str(cfg)]) == (1 if case == "guard-stopped" else 0)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["converged"] is (case != "guard-stopped")
        assert [step["unknowns"] for step in summary["steps"]] == [unknowns]

    def test_seed_file_strategy(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        cfg2 = write_config(tmp_path, **{
            "seed.strategy": "file",
            "seed.path": str(tmp_path / "run" / "field.csv")})
        assert main(["solve", "--config", str(cfg2)]) == 0

    def test_seed_file_from_another_model(self, tmp_path):
        # a Euclidean solution seeds the Minkowski solve; only (u, c) carry
        # over, so the output is tagged minkowski and verify accepts it
        euc, mink = tmp_path / "euc", tmp_path / "mink"
        euc.mkdir()
        mink.mkdir()
        cfg = write_config(euc, text=BASE_CONFIG.replace("minkowski", "euclidean"))
        assert main(["solve", "--config", str(cfg)]) == 0
        cfg2 = write_config(mink, **{"seed.strategy": "file",
                                     "seed.path": str(euc / "run" / "field.csv")})
        assert main(["solve", "--config", str(cfg2)]) == 0
        header = json.loads((mink / "run" / "field.json").read_text())
        assert header["model"] == "minkowski"
        assert main(["verify", "--field", str(mink / "run" / "field.csv"),
                     "--config", str(cfg2)]) == 0

    def test_inadmissible_stored_seed_is_a_seed_failure(self, tmp_path, capsys):
        # the Euclidean Ball(0, 1) -> Ball((0.2, 0.1), 1.5) solution is
        # spacelike nowhere near |Du| < 1: the Minkowski run refuses it before
        # any Newton solve, as seed_field refuses its own seeds, and writes
        # nothing.  The target is off centre so that the worst node is unique:
        # on a concentric field it ties with its half-turn image, and the
        # roundoff of the solve picks one of the two
        euc, mink = tmp_path / "euc", tmp_path / "mink"
        euc.mkdir()
        mink.mkdir()
        cfg = write_config(euc, text=BASE_CONFIG.replace("minkowski", "euclidean").replace(
            "omega_tilde.radius = 0.5", "omega_tilde.radius = 1.5").replace(
            "omega_tilde.center = 0.0, 0.0", "omega_tilde.center = 0.2, 0.1"))
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        cfg2 = write_config(mink, **{"seed.strategy": "file",
                                     "seed.path": str(euc / "run" / "field.csv")})
        assert main(["solve", "--config", str(cfg2)]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "solver failure: stored seed failed the admissibility guards: spacelike guard "
            "violated at node 483: |Du| = 1.69968299 (ring 16, ray 2; x = 0.923879533, "
            "y = 0.382683432)"]
        assert "newton " not in captured.out
        assert list((mink / "run").iterdir()) == []

    @pytest.mark.parametrize("text", [
        BASE_CONFIG.replace("minkowski", "euclidean"),
        HOMOTOPY_CONFIG.replace("minkowski", "euclidean").replace(
            "omega_tilde.center = 0, 0", "omega_tilde.center = 0.2, 0").replace(
            "omega_tilde.radius = 0.4", "omega_tilde.radius = 1.5").replace(
            "grid.n_rho = 16", "grid.n_rho = 32").replace(
            "grid.n_phi = 32", "grid.n_phi = 64").replace(
            "homotopy.steps = 8", "homotopy.steps = 12"),
    ], ids=["concentric", "ellipse_homotopy"])
    def test_euclidean_solution_meets_lambda1(self, tmp_path, text):
        # the Euclidean coefficient matrix is only >= w^3 I, so Lambda_1
        # carries that factor; without it both runs fail lambda_lower
        cfg = write_config(tmp_path, text=text)
        assert main(["solve", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["checks"]["lambda_lower"]["passed"]


class TestVerifyCommand:
    def test_round_trip_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "run"
        assert main(["verify", "--field", str(out_dir / "field.csv"),
                     "--config", str(cfg),
                     "--out", str(out_dir / "verify.json")]) == 0
        solved = json.loads((out_dir / "report.json").read_text())
        verified = json.loads((out_dir / "verify.json").read_text())
        for key in ("lambda1", "lambda2", "c", "obliqueness_min",
                    "mass_balance_rel_err", "flux_identity_rel_err"):
            assert verified[key] == pytest.approx(solved[key], abs=1e-12)

    def test_field_u_round_trip_bit_exact(self, tmp_path, radial_32):
        spec, fld, _ = radial_32
        path = tmp_path / "f.csv"
        save_field(fld, path)
        loaded = load_field(path)
        assert np.array_equal(loaded.u, fld.u)
        assert loaded.c == fld.c
        assert loaded.model is fld.model

    def test_field_csv_rows_are_per_node_reprs(self, tmp_path, radial_32):
        # reference: each node's row formatted on its own, pole first
        spec, fld, _ = radial_32
        path = tmp_path / "f.csv"
        save_field(fld, path)
        assert path.read_bytes() == csv_reference(fld).encode()

    @pytest.mark.parametrize("model", [cmcsolve.ModelKind.MINKOWSKI,
                                       cmcsolve.ModelKind.EUCLIDEAN])
    @pytest.mark.parametrize("omega", [cmcsolve.Ball((0.1, -0.2), 1.0),
                                       cmcsolve.Ellipse((0, 0), (1.0, 0.8))])
    def test_field_csv_bytes_match_per_row_reference(self, tmp_path, model, omega):
        # the one formatting pass over the whole table writes the same bytes
        # as formatting each row on its own, for the seeds of both models
        # and for values whose repr is unusual
        spec = cmcsolve.ProblemSpec(omega, cmcsolve.Ball((0, 0), 0.5), model,
                                    cmcsolve.build_grid(omega, 8, 16))
        fld = cmcsolve.seed_field(spec)
        odd = replace(fld, u=fld.u.copy())
        odd.u[:4] = [-0.0, 1e16, 1e-5, 5e-324]
        for k, f in enumerate([fld, odd]):
            path = tmp_path / f"f{k}.csv"
            save_field(f, path)
            assert path.read_bytes() == csv_reference(f).encode()

    def test_corrupted_field_flags(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "run"
        fld = load_field(out_dir / "field.csv")
        rng = np.random.default_rng(0)
        fld.u = fld.grid.mean_zero(fld.u + 1e-2 * rng.standard_normal(len(fld.u)))
        save_field(fld, out_dir / "bad.csv")
        code = main(["verify", "--field", str(out_dir / "bad.csv"),
                     "--config", str(cfg)])
        assert code == 3
        report = json.loads(_json_tail(capsys.readouterr().out))
        assert not report["all_pass"]

    def test_unwritable_report_file_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        out = tmp_path / "missing" / "verify.json"
        assert main(["verify", "--field", str(tmp_path / "run" / "field.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write --out: ")
        assert not out.exists()

    @pytest.mark.parametrize("blocked", ["missing directory", "a directory"])
    def test_unwritable_report_exit_2_before_dual_solve(self, tmp_path, monkeypatch,
                                                         capsys, blocked):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking --out")

        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(solver, "newton_solve", no_solve)
        monkeypatch.setattr(solver, "run_homotopy", no_solve)
        if blocked == "missing directory":
            out = tmp_path / "missing" / "verify.json"
        else:
            out = tmp_path / "verify.json"
            out.mkdir()
        assert main(["verify", "--field", str(tmp_path / "run" / "field.csv"),
                     "--config", str(cfg), "--dual", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write --out: ")
        assert captured.out == ""

    def test_schema_mismatch_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        cfg2 = write_config(tmp_path, text=BASE_CONFIG.replace(
            "grid.n_rho = 16", "grid.n_rho = 24"))
        assert main(["verify", "--field", str(tmp_path / "run" / "field.csv"),
                     "--config", str(cfg2)]) == 2

    def test_dual_verify(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main(["verify", "--field", str(tmp_path / "run" / "field.csv"),
                     "--config", str(cfg), "--dual"])
        assert code == 0
        report = json.loads(_json_tail(capsys.readouterr().out))
        assert report["dual_consistency"] is not None
        assert report["checks"]["dual_consistency"]["passed"]


BAD_NUMBERS = [
    ("homotopy.t_min", "abc"),
    ("homotopy.t_min", "nan"),
    ("solve.tol_residual", "nan"),
    ("grid.n_rho", "inf"),
    ("omega_tilde.radius", "nan"),
    ("omega.center", "0.0, inf"),
    ("homotopy.steps", "1"),
    ("grid.n_rho", "4"),
]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("key, value", BAD_NUMBERS)
def test_bad_config_number_exit_2(tmp_path, capsys, command, key, value):
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if not line.startswith(f"{key} "))
    cfg = write_config(tmp_path, text=text, **{key: value})
    argv = ["solve", "--config", str(cfg)]
    if command == "verify":
        argv = ["verify", "--field", str(tmp_path / "absent.csv"),
                "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(f"config error: {key}")


# domains whose quadric, h_max or area underflows or overflows:
# (prefix, kind, size key, value)
UNREPRESENTABLE_DOMAINS = [
    ("omega", "ellipse", "semi_axes", "1e-300, 1"),
    ("omega_tilde", "ellipse", "semi_axes", "1e-200, 1"),
    ("omega", "ellipse", "semi_axes", "1e300, 1e300"),
    ("omega", "ball", "radius", "1e-300"),
    ("omega", "ball", "radius", "1e300"),
    ("omega", "ball", "radius", "-1"),
]


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("prefix, kind, key, value", UNREPRESENTABLE_DOMAINS)
def test_unrepresentable_domain_exit_2(tmp_path, capsys, command, prefix, kind,
                                       key, value):
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if not line.startswith((f"{prefix}.kind ", f"{prefix}.radius ")))
    cfg = write_config(tmp_path, text=text,
                       **{f"{prefix}.kind": kind, f"{prefix}.{key}": value})
    argv = ["solve", "--config", str(cfg)]
    if command == "verify":
        argv = ["verify", "--field", str(tmp_path / "absent.csv"),
                "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(f"config error: {prefix}: ")


def _one_error_line(capsys, pattern):
    """Assert stderr holds one line, no traceback, matching pattern in full."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and re.fullmatch(pattern, lines[0]), err


# configs refused before any solve: (keys dropped from BASE_CONFIG, keys
# added, the stderr line); the seed keys a run would not read are refused
# rather than ignored
REFUSED_CONFIGS = {
    "duplicate_key": ((), {"grid.n_phi": "32"},
                      r"config error: line \d+: duplicate key 'grid\.n_phi'"),
    "no_omega_kind": (("omega.kind",), {}, r"config error: missing required key omega\.kind"),
    "no_omega_center": (("omega.center",), {},
                        r"config error: missing required key 'omega\.center'"),
    "no_omega_radius": (("omega.radius",), {},
                        r"config error: missing required key 'omega\.radius'"),
    "file_seed_without_path": ((), {"seed.strategy": "file"},
                               r"config error: seed\.strategy = file requires seed\.path"),
    "negative_semi_axis": (("omega.kind", "omega.radius"),
                           {"omega.kind": "ellipse", "omega.semi_axes": "-1, 1"},
                           r"config error: omega: semi-axes must be positive, got .*"),
    "homotopy_quadratic_seed": ((), {"homotopy.enabled": "true", "seed.strategy": "quadratic"},
                                r"config error: seed\.strategy = quadratic is not read .*"),
    "homotopy_file_seed": ((), {"homotopy.enabled": "true", "seed.strategy": "file",
                                "seed.path": "field.csv"},
                           r"config error: seed\.strategy = file is not read .*"),
    "seed_path_without_file": ((), {"seed.path": "field.csv"},
                               r"config error: seed\.path is read only with .*"),
    "seed_path_with_radial": ((), {"seed.strategy": "radial", "seed.path": "field.csv"},
                              r"config error: seed\.path is read only with .*"),
}


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("case", sorted(REFUSED_CONFIGS))
def test_refused_config_exit_2(tmp_path, capsys, command, case):
    drop, add, pattern = REFUSED_CONFIGS[case]
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if line.split(" = ")[0] not in drop)
    cfg = write_config(tmp_path, text=text, **add)
    argv = ["solve", "--config", str(cfg)]
    if command == "verify":
        argv = ["verify", "--field", str(tmp_path / "absent.csv"), "--config", str(cfg)]
    assert main(argv) == 2
    _one_error_line(capsys, pattern)


def _small_grid_config(tmp_path, **overrides):
    """BASE_CONFIG at 8 x 16, with the given keys replaced."""
    overrides = {"grid.n_rho": "8", "grid.n_phi": "16", **overrides}
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if line.split(" = ")[0] not in overrides)
    return write_config(tmp_path, text=text, **overrides)


@pytest.mark.parametrize("path", ["direct", "homotopy", "verify_header"])
@pytest.mark.parametrize("radius", ["1e-160", "1e150"])
def test_extreme_domain_size_exit_2(tmp_path, capsys, path, radius):
    # representable, but the recovery fits underflow r^2 at 1e-160 and the
    # mean-zero sum overflows at 1e150: the size is rejected where it enters
    if path == "verify_header":
        cfg = _small_grid_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) in (0, 3)
        header_file = tmp_path / "run" / "field.json"
        header = json.loads(header_file.read_text())
        header["domain"]["radius"] = float(radius)
        header_file.write_text(json.dumps(header))
        argv = ["verify", "--field", str(tmp_path / "run" / "field.csv"),
                "--config", str(cfg)]
        prefix = "config error: invalid field header: "
    else:
        cfg = _small_grid_config(tmp_path, **{
            "omega.radius": radius,
            "homotopy.enabled": "true" if path == "homotopy" else "false"})
        argv = ["solve", "--config", str(cfg)]
        prefix = "config error: omega: "
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(prefix)


@pytest.mark.parametrize("homotopy", ["false", "true"])
def test_huge_grid_exit_2(tmp_path, capsys, homotopy):
    # a valid size too large to allocate is refused while the problem is set
    # up, on both solve paths
    cfg = _small_grid_config(tmp_path, **{"grid.n_rho": "1e20",
                                          "homotopy.enabled": homotopy})
    assert main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith("config error: ")


@pytest.mark.parametrize("key, value, homotopy", [("grid.n_phi", "1e12", "false"),
                                                   ("homotopy.steps", "1e18", "true")])
def test_unallocatable_size_exit_2(tmp_path, monkeypatch, capsys, key, value, homotopy):
    # a 7.3 TiB grid array or a 6.9 EiB homotopy schedule: numpy's allocation
    # request fails, so nothing is allocated and nothing is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a problem too large to allocate")

    monkeypatch.setattr(cli, "newton_solve", no_solve)
    monkeypatch.setattr(solver, "newton_solve", no_solve)
    cfg = _small_grid_config(tmp_path, **{key: value, "homotopy.enabled": homotopy})
    # a 1 TiB address-space limit makes the request fail also where the
    # kernel would overcommit it and fill the pages one by one
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 2 ** 40 if hard == resource.RLIM_INFINITY else min(2 ** 40, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        assert main(["solve", "--config", str(cfg)]) == 2
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith("config error: Unable to allocate ")


@pytest.mark.parametrize("t_min", ["1e-5", "1e-17", "1e-300"])
def test_unresolvable_t_min_exit_1(tmp_path, capsys, t_min):
    # below the float resolution (1 - t) h_max rounds to h_max; the
    # resolvability floor must still answer first
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if not line.startswith("grid."))
    cfg = write_config(tmp_path, text=text, **{
        "grid.n_rho": "8", "grid.n_phi": "16", "homotopy.enabled": "true",
        "homotopy.t_min": t_min})
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith("solver failure: ")
    assert "below the resolvable floor" in err


def test_unrepresentable_sublevel_exit_1(tmp_path, capsys):
    # the t = 0.05 copy of the target has radius 2.2e-103, below RADIUS_RANGE
    text = "\n".join(line for line in BASE_CONFIG.splitlines()
                     if not line.startswith(("grid.", "omega_tilde.radius")))
    cfg = write_config(tmp_path, text=text, **{
        "grid.n_rho": "8", "grid.n_phi": "16", "omega_tilde.radius": "1e-102",
        "homotopy.enabled": "true", "homotopy.t_min": "0.05"})
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith("solver failure: ")
    assert "cannot be represented" in err


# drawn replacements for one config value: non-finite, extreme, zero,
# negative, non-integer, empty and garbage texts
FUZZ_VALUES = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300",
               "0", "-0", "-1", "-2.5", "0.5", "2.5", "", "abc", "1,2", "0x10", "1e", "--"]
# keys whose valid values ask for a bigger grid or a longer run: only values
# invalid for them are drawn
INVALID_ONLY = {"grid.n_rho", "grid.n_phi", "homotopy.steps", "solve.max_newton"}
FUZZ_KEYS = ["model", "omega.kind", "omega.center", "omega.radius", "omega_tilde.kind",
             "omega_tilde.center", "omega_tilde.radius", "grid.n_rho", "grid.n_phi",
             "solve.tol_residual", "solve.max_newton", "homotopy.enabled",
             "homotopy.steps", "homotopy.t_min", "seed.strategy"]


def test_readme_config_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = parse_config(path)
    assert cfg.homotopy_enabled and cfg.seed_strategy == "radial" and cfg.n_rho == 32


def _invalid_for(key, value):
    if key not in INVALID_ONLY:
        return True
    try:
        v = float(value)
    except ValueError:
        return True
    least = {"grid.n_rho": 8, "grid.n_phi": 16, "homotopy.steps": 2}.get(key, 1)
    return not (np.isfinite(v) and v == int(v) and v >= least
                and (key != "grid.n_phi" or v % 2 == 0))


@st.composite
def config_edits(draw):
    key = draw(st.sampled_from(FUZZ_KEYS))
    value = draw(st.sampled_from([v for v in FUZZ_VALUES if _invalid_for(key, v)])
                 | st.text(max_size=6).filter(lambda v: "\n" not in v and "#" not in v
                                              and _invalid_for(key, v)))
    return key, value


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory):
    """(field.csv of the 8 x 16 base config, a directory for fuzzed runs)."""
    stored = tmp_path_factory.mktemp("stored")
    assert main(["solve", "--config", str(_small_grid_config(stored))]) in (0, 3)
    return stored / "run" / "field.csv", tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(edit=config_edits())
def test_fuzzed_config_value(fuzz_dirs, edit):
    field_csv, runs = fuzz_dirs
    cfg = _small_grid_config(runs, **dict([edit]))
    for argv in (["solve", "--config", str(cfg)],
                 ["verify", "--field", str(field_csv), "--config", str(cfg)]):
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert len(err.getvalue().strip().splitlines()) <= 1
        assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("text", [BASE_CONFIG, HOMOTOPY_CONFIG])
def test_solved_field_differentiated_once(tmp_path, monkeypatch, text):
    # the report's checks and the field write share one differentiation of
    # the solved field
    calls, solved = [], []
    real = cmcsolve.MappedGrid.derivative_arrays
    monkeypatch.setattr(cmcsolve.MappedGrid, "derivative_arrays",
                        lambda grid, u: calls.append(bool(solved)) or real(grid, u))

    def marking(solve):
        def run(*args, **kwargs):
            out = solve(*args, **kwargs)
            solved.append(True)
            return out
        return run

    for name in ("newton_solve", "direct_or_walk"):
        monkeypatch.setattr(cli, name, marking(getattr(cli, name)))
    assert main(["solve", "--config", str(write_config(tmp_path, text=text))]) == 0
    assert solved and calls.count(True) == 1


def test_homotopy_builds_each_grid_once(tmp_path, monkeypatch):
    # every schedule step and the report share the problem's one grid
    builds = []
    real = cli.build_grid
    monkeypatch.setattr(cli, "build_grid",
                        lambda *a: builds.append(a) or real(*a))
    cfg = write_config(tmp_path, text=HOMOTOPY_CONFIG, **{"homotopy.t_min": 0.25})
    assert main(["solve", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert len(summary["steps"]) == 8
    assert len(builds) == 1


def _cell(row, column, text):
    def edit(lines, header):
        parts = lines[row].split(",")
        parts[column] = text
        lines[row] = ",".join(parts)
    return edit


def _header(key, value):
    return lambda lines, header: header.update({key: value})


def _short_row(lines, header):
    lines[5] = lines[5].rsplit(",", 1)[0]


def _duplicate_row(lines, header):
    lines[6] = lines[5]


def _missing_row(lines, header):
    del lines[7]


# edits of a stored 16 x 32 field (CSV lines with the column row first, and
# the JSON header); each must be rejected with exit code 2
FIELD_CORRUPTIONS = {
    "nan_u": _cell(5, 4, "nan"),
    "inf_u": _cell(9, 4, "-inf"),
    "fractional_rho_index": _cell(5, 0, "1.5"),
    "rho_index_99": _cell(5, 0, "99"),
    "phi_index_n_phi": _cell(5, 1, "32"),
    "pole_phi_index": _cell(1, 1, "3"),
    "short_row": _short_row,
    "duplicate_row": _duplicate_row,
    "missing_row": _missing_row,
    "header_c_nan": _header("c", float("nan")),
    "header_c_text": _header("c", "1.2"),
    "header_n_rho_float": _header("n_rho", 16.5),
    "header_n_phi_odd": _header("n_phi", 31),
    "header_n_rho_huge": _header("n_rho", 10 ** 12),
    "header_model": _header("model", "galilean"),
    "header_domain": _header("domain", {"kind": "ball"}),
    "header_radius_nan": _header("domain", {"kind": "ball", "center": [0.0, 0.0],
                                            "radius": float("nan")}),
    "header_radius_tiny": _header("domain", {"kind": "ball", "center": [0.0, 0.0],
                                             "radius": 1e-300}),
    "header_semi_axes_huge": _header("domain", {"kind": "ellipse",
                                                "center": [0.0, 0.0],
                                                "semi_axes": [1e300, 1e300]}),
    "header_dual_text": _header("dual", "false"),
    "header_center_empty": _header("domain", {"kind": "ball", "center": [],
                                              "radius": 1.0}),
    "header_domain_kind": _header("domain", {"kind": "triangle", "center": [0.0, 0.0],
                                             "radius": 1.0}),
    "header_without_c": lambda lines, header: header.pop("c"),
    "csv_column_row": _cell(0, 2, "y1"),
    # the sublevel kind of earlier versions: level outside (0, h_max), and a
    # level whose set is below the resolvable floor (t = 1e-5)
    "header_sublevel_level_h_max": _header("domain", {
        "kind": "sublevel", "base": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "level": 0.5}),
    "header_sublevel_below_floor": _header("domain", {
        "kind": "sublevel", "base": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        "level": 0.5 * (1 - 1e-5)}),
}


class TestCorruptedFieldFile:
    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("solved")
        assert main(["solve", "--config", str(write_config(tmp))]) == 0
        return tmp / "run"

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("corruption", sorted(FIELD_CORRUPTIONS))
    def test_exit_2_one_line(self, solved, tmp_path, capsys, command, corruption):
        lines = (solved / "field.csv").read_text().splitlines()
        header = json.loads((solved / "field.json").read_text())
        FIELD_CORRUPTIONS[corruption](lines, header)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        (tmp_path / "bad.json").write_text(json.dumps(header))
        capsys.readouterr()
        if command == "verify":
            argv = ["verify", "--field", str(bad),
                    "--config", str(write_config(tmp_path))]
        else:
            argv = ["solve", "--config", str(write_config(
                tmp_path, **{"seed.strategy": "file", "seed.path": str(bad)}))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [err.strip()]
        assert err.startswith("config error: ")

    def test_header_not_json(self, solved, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text((solved / "field.csv").read_text())
        (tmp_path / "bad.json").write_text("{not json")
        assert main(["verify", "--field", str(bad),
                     "--config", str(write_config(tmp_path))]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read field file")


# header texts of an intact field.csv that verify refuses (None: no header
# file), and the stderr line
UNREADABLE_HEADERS = {
    "missing": (None, r"config error: missing field file or header: .*bad\.csv"),
    "not_an_object": ("[1, 2]", r"config error: field header is not a JSON object"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_HEADERS))
def test_unreadable_header_exit_2(fuzz_dirs, tmp_path, capsys, case):
    field_csv, _ = fuzz_dirs
    text, pattern = UNREADABLE_HEADERS[case]
    bad = tmp_path / "bad.csv"
    bad.write_text(field_csv.read_text())
    if text is not None:
        bad.with_suffix(".json").write_text(text)
    assert main(["verify", "--field", str(bad),
                 "--config", str(_small_grid_config(tmp_path))]) == 2
    _one_error_line(capsys, pattern)


# verify runs on a readable field that the config or the dual solve refuses:
# (config keys replaced, --dual, exit code, the stderr line)
VERIFY_REFUSALS = {
    "model_mismatch": ({"model": "euclidean"}, False, 2,
                       r"schema mismatch: model differs from config"),
    "image_outside_unit_ball": ({"omega_tilde.radius": "1.5"}, False, 2,
                                r"config error: Minkowski model needs the gradient-image "
                                r"domain strictly inside the unit ball: .*"),
    # one Newton iteration is too few for the dual's direct solve and for
    # the first step of its walk
    "dual_solve_failure": ({"solve.max_newton": "1"}, True, 1,
                           r"dual solve failure: no convergence in 1 iterations .*"),
}


@pytest.mark.parametrize("case", sorted(VERIFY_REFUSALS))
def test_verify_refusal(fuzz_dirs, tmp_path, capsys, case):
    field_csv, _ = fuzz_dirs
    overrides, dual, code, pattern = VERIFY_REFUSALS[case]
    argv = ["verify", "--field", str(field_csv),
            "--config", str(_small_grid_config(tmp_path, **overrides))]
    assert main(argv + ["--dual"] * dual) == code
    _one_error_line(capsys, pattern)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
CELL_TEXT = (st.sampled_from(FUZZ_VALUES) | st.floats().map(repr)
             | st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8))
HEADER_KEYS = ["c", "model", "n_rho", "n_phi", "dual", "domain", "omega", "omega_tilde"]
DOMAIN_KEYS = ["kind", "center", "radius", "semi_axes", "level", "base"]


@st.composite
def field_edits(draw):
    """One corruption of the stored 8 x 16 field (130 CSV lines): a cell
    replaced, a row dropped or repeated, or a header key, at the top level
    or inside the domain, set to a JSON value."""
    kind = draw(st.sampled_from(["cell", "drop_row", "repeat_row", "header", "domain"]))
    if kind == "cell":
        return kind, (draw(st.integers(1, 129)), draw(st.integers(0, 9)), draw(CELL_TEXT))
    if kind == "drop_row":
        return kind, (draw(st.integers(0, 129)),)
    if kind == "repeat_row":
        return kind, (draw(st.integers(1, 129)), draw(st.integers(1, 130)))
    keys = HEADER_KEYS if kind == "header" else DOMAIN_KEYS
    return kind, (draw(st.sampled_from(keys)), draw(JSON_VALUES))


def _apply_field_edit(edit, lines, header):
    kind, args = edit
    if kind == "cell":
        _cell(*args)(lines, header)
    elif kind == "drop_row":
        del lines[args[0]]
    elif kind == "repeat_row":
        lines.insert(args[1], lines[args[0]])
    elif kind == "header":
        header[args[0]] = args[1]
    else:
        header["domain"][args[0]] = args[1]


@settings(max_examples=80, deadline=None)
@given(edit=field_edits())
# u = 1e300 at node (1, 9): its Hessians overflow the eigenvalue spread and
# the determinant, which used to print numpy warnings
@example(edit=("cell", (11, 4, "1e300")))
@example(edit=("cell", (11, 4, "1e308")))
# u = 1e300 at node (5, 0), inside the boundary ring's recovery stencils:
# the obliqueness check's boundary gradients overflow
@example(edit=("cell", (66, 4, "1e300")))
# a centre 2^51 radii from the origin: the grid's nodes round onto one
# another and the recovery weights overflowed before the fit failed
@example(edit=("domain", ("center", [False, 2251799813685249.0])))
# a huge stored c makes the residual 2-norm overflow in a plain dot product,
# which used to print a numpy warning
@example(edit=("header", ("c", 1.2613004718976084e+153)))
@example(edit=("header", ("c", 1e300)))
def test_fuzzed_field_file(fuzz_dirs, edit):
    field_csv, runs = fuzz_dirs
    lines = field_csv.read_text().splitlines()
    header = json.loads(field_csv.with_suffix(".json").read_text())
    _apply_field_edit(edit, lines, header)
    work = runs / "field_fuzz"
    work.mkdir(exist_ok=True)
    bad = work / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    (work / "bad.json").write_text(json.dumps(header))
    for argv in (["verify", "--field", str(bad), "--config", str(_small_grid_config(work))],
                 ["solve", "--config", str(_small_grid_config(
                     work, **{"seed.strategy": "file", "seed.path": str(bad)}))]):
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().strip().splitlines()) <= 1
        assert not caught, [str(w.message) for w in caught]


def test_cli_import_leaves_out_the_spline_stack():
    # only the Legendre transform fits splines and queries a kd-tree; a
    # command that does not run it must not pay for importing them
    src = str(Path(cmcsolve.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cmcsolve.cli; print(sorted(m for m in "
         "('scipy.interpolate', 'scipy.spatial') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
