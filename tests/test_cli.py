import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcsolve import cli, solver
from cmcsolve.cli import main
from cmcsolve.fieldio import load_field, save_field

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

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, **{"omega.flavour": "sour"})
        assert main(["solve", "--config", str(cfg)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_singular_factor_exit_1(self, tmp_path, monkeypatch, capsys):
        def singular_splu(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(solver, "splu", singular_splu)
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [
            "non-convergence: linear solve failed (Factor is exactly singular)"
            " at iteration 1"]
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert not summary["converged"]

    def test_homotopy_config(self, tmp_path):
        cfg = write_config(tmp_path, text=HOMOTOPY_CONFIG)
        assert main(["solve", "--config", str(cfg)]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert len(summary["steps"]) == 8

    def test_seed_file_strategy(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        cfg2 = write_config(tmp_path, **{
            "seed.strategy": "file",
            "seed.path": str(tmp_path / "run" / "field.csv")})
        assert main(["solve", "--config", str(cfg2)]) == 0


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
    ("solve.eps_space", "-inf"),
    ("grid.n_rho", "inf"),
    ("omega_tilde.radius", "nan"),
    ("omega.center", "0.0, inf"),
    ("homotopy.steps", "1"),
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


# drawn replacements for one config value: non-finite, extreme, zero,
# negative, non-integer, empty and garbage texts
FUZZ_VALUES = ["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300",
               "0", "-0", "-1", "-2.5", "0.5", "2.5", "", "abc", "1,2", "0x10", "1e", "--"]
# keys whose valid values ask for a bigger grid or a longer run: only values
# invalid for them are drawn
INVALID_ONLY = {"grid.n_rho", "grid.n_phi", "homotopy.steps", "solve.max_newton"}
FUZZ_KEYS = ["model", "omega.kind", "omega.center", "omega.radius", "omega_tilde.kind",
             "omega_tilde.center", "omega_tilde.radius", "grid.n_rho", "grid.n_phi",
             "solve.tol_residual", "solve.max_newton", "solve.eps_convexity",
             "solve.eps_space", "homotopy.enabled", "homotopy.steps", "homotopy.t_min",
             "seed.strategy"]


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


def test_homotopy_builds_each_grid_once(tmp_path, monkeypatch):
    # every schedule step and the report share the problem's one grid
    builds = []
    real = cli.build_grid
    monkeypatch.setattr(cli, "build_grid",
                        lambda *a: builds.append(a) or real(*a))
    assert main(["solve", "--config",
                 str(write_config(tmp_path, text=HOMOTOPY_CONFIG))]) == 0
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
