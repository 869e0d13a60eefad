"""Command line entry points.

  cmcsolve radial  --n 2 --r0 1 --t0 0.5 --model minkowski [--samples 101]
  cmcsolve solve   --config run.cfg
  cmcsolve verify  --field field.csv --config run.cfg [--dual]

Exit codes: 0 success (solve: converged and all diagnostics pass),
1 non-convergence, 2 configuration or schema error, 3 diagnostics failure.
Floating-point output on stdout uses 9 significant digits; stored artifacts
keep full precision.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .assembly import ProblemSpec
from .config import RunConfig, parse_config
from .diagnostics import full_report
from .duality import dual_solve
from .errors import CMCSolveError, ConfigError, NonConvergence
from .fieldio import load_field, save_field
from .grid import build_grid, transfer_field
from .kernel import ModelKind
from .radial import RadialSolution, radial_profile, seed_field
from .solver import newton_solve, run_homotopy


class _StdoutHandler(logging.StreamHandler):
    """Stream handler that always writes to the current sys.stdout, so
    progress lines follow stream redirection."""

    @property
    def stream(self):
        return sys.stdout

    @stream.setter
    def stream(self, value):
        pass


def _setup_logging():
    root = logging.getLogger("cmcsolve")
    root.setLevel(logging.INFO)
    if not any(isinstance(h, _StdoutHandler) for h in root.handlers):
        handler = _StdoutHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)


def cmd_radial(args) -> int:
    try:
        sol = RadialSolution(args.n, args.r0, args.t0, ModelKind(args.model))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"c = {sol.c:.9g}")
    r = np.linspace(0.0, args.r0, args.samples)
    u, du, d2u = radial_profile(sol, r)
    lines = ["r,u,du,d2u"]
    lines += [",".join(repr(float(v)) for v in row)
              for row in zip(r, u, du, d2u)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _initial_field(cfg: RunConfig, spec: ProblemSpec):
    if cfg.seed_strategy == "file":
        stored = load_field(cfg.seed_path)
        return transfer_field(stored, spec.grid)
    strategy = "quadratic" if cfg.seed_strategy == "quadratic" else "auto"
    return seed_field(spec, strategy=strategy)


def cmd_solve(args) -> int:
    try:
        cfg = parse_config(args.config)
        spec = ProblemSpec(cfg.omega, cfg.omega_tilde, cfg.model,
                           build_grid(cfg.omega, cfg.n_rho, cfg.n_phi),
                           eps_space=cfg.options.eps_space)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    steps_summary = []
    converged = True
    try:
        if cfg.homotopy_enabled:
            fld, history = run_homotopy(spec, cfg.options,
                                        steps=cfg.homotopy_steps,
                                        t_min=cfg.homotopy_t_min)
            steps_summary = [{"t": h.t, "c": h.field.c,
                              "iterations": h.newton_iterations}
                             for h in history]
        else:
            fld, info = newton_solve(spec, _initial_field(cfg, spec), cfg.options)
            steps_summary = [{"t": 1.0, "c": fld.c, "iterations": info.iterations}]
    except NonConvergence as exc:
        converged = False
        fld = exc.best_field
        steps_summary = [{"t": exc.t if exc.t is not None else 1.0,
                          "c": fld.c if fld is not None else None,
                          "iterations": exc.iterations}]
        print(f"non-convergence: {exc}", file=sys.stderr)
        if fld is None:
            return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CMCSolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1

    report = full_report(spec, fld)
    save_field(fld, out / "field.csv", omega=cfg.omega, omega_tilde=cfg.omega_tilde)
    report.to_json(out / "report.json")
    summary = {"c": fld.c, "model": cfg.model.value, "converged": converged,
               "all_pass": report.all_pass, "steps": steps_summary,
               "field": "field.csv", "report": "report.json"}
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(report.table())
    print(f"c = {fld.c:.9g}")
    if not converged:
        return 1
    return 0 if report.all_pass else 3


def cmd_verify(args) -> int:
    try:
        cfg = parse_config(args.config)
        fld = load_field(args.field)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    grid = fld.grid
    if (grid.n_rho, grid.n_phi) != (cfg.n_rho, cfg.n_phi):
        print("schema mismatch: grid resolutions differ from config",
              file=sys.stderr)
        return 2
    if fld.model is not cfg.model:
        print("schema mismatch: model differs from config", file=sys.stderr)
        return 2
    if grid.domain.to_dict() != cfg.omega.to_dict():
        print("schema mismatch: field domain differs from config omega",
              file=sys.stderr)
        return 2
    try:
        spec = ProblemSpec(cfg.omega, cfg.omega_tilde, cfg.model, grid,
                           eps_space=cfg.options.eps_space)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    dual = None
    if args.dual:
        try:
            dual, _ = dual_solve(spec, cfg.options)
        except CMCSolveError as exc:
            print(f"dual solve failure: {exc}", file=sys.stderr)
            return 1
    report = full_report(spec, fld, dual=dual)
    text = report.to_json(args.out)
    print(text)
    return 0 if report.all_pass else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmcsolve",
        description="Solver for the second boundary value problem of constant "
                    "mean curvature equations (prescribed gradient image).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rad = sub.add_parser("radial", help="closed-form radial solution tables")
    p_rad.add_argument("--n", type=int, default=2)
    p_rad.add_argument("--r0", type=float, default=1.0)
    p_rad.add_argument("--t0", type=float, required=True)
    p_rad.add_argument("--model", choices=["minkowski", "euclidean"],
                       default="minkowski")
    p_rad.add_argument("--samples", type=int, default=101)
    p_rad.add_argument("--out", default=None)
    p_rad.set_defaults(func=cmd_radial)

    p_sol = sub.add_parser("solve", help="solve an instance from a config file")
    p_sol.add_argument("--config", required=True)
    p_sol.set_defaults(func=cmd_solve)

    p_ver = sub.add_parser("verify", help="recompute diagnostics for a stored field")
    p_ver.add_argument("--field", required=True)
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--dual", action="store_true")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    _setup_logging()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
