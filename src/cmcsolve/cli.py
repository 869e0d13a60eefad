"""Command line entry points.

  cmcsolve radial  --n 2 --r0 1 --t0 0.5 --model minkowski [--samples 101]
  cmcsolve solve   --config run.cfg
  cmcsolve verify  --field field.csv --config run.cfg [--dual] [--out report.json]

Exit codes: 0 success (solve: converged and all diagnostics pass),
1 non-convergence, 2 configuration or schema error or an output that cannot
be written, 3 diagnostics failure.
Floating-point output on stdout uses 9 significant digits; stored artifacts
keep full precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .assembly import ProblemSpec, admissibility_violation
from .config import RunConfig, parse_config
from .diagnostics import full_report
from .duality import dual_solve
from .errors import CMCSolveError, ConfigError, NonConvergence, SeedFailure, SolveFailure
from .fieldio import header_path, load_field, save_field
from .grid import build_grid, transfer_field
from .kernel import ModelKind
from .radial import RadialSolution, radial_profile, seed_field
from .solver import HomotopyState, direct_or_walk, newton_solve


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
    if args.samples < 1:
        print(f"error: --samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    try:
        sol = RadialSolution(args.n, args.r0, args.t0, ModelKind(args.model))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        r = np.linspace(0.0, args.r0, args.samples)
        u, du, d2u = radial_profile(sol, r)
        lines = ["r,u,du,d2u"]
        lines += [",".join(repr(float(v)) for v in row)
                  for row in zip(r, u, du, d2u)]
        text = "\n".join(lines) + "\n"
    except MemoryError as exc:
        print(f"error: --samples {args.samples} does not fit in memory: {exc}", file=sys.stderr)
        return 2
    print(f"c = {sol.c:.9g}")
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _initial_field(cfg: RunConfig, spec: ProblemSpec):
    if cfg.seed_strategy == "file":
        seed = transfer_field(load_field(cfg.seed_path), spec.grid)
        # refused before any Newton solve, as seed_field refuses its own seeds
        violation = admissibility_violation(spec, *spec.grid.derivative_arrays(seed.u))
        if violation is not None:
            raise SeedFailure(f"stored seed failed the admissibility guards: {violation}"
                              f"{_node_text(spec.grid, violation.node)}")
        return seed
    strategy = "quadratic" if cfg.seed_strategy == "quadratic" else "auto"
    return seed_field(spec, strategy=strategy)


def _step_entry(state: HomotopyState) -> dict:
    """One summary.json step: t, c, and the solve's Newton iterations,
    linear-algebra counts and the order of its Newton systems."""
    return {"t": state.t, "c": state.field.c, **{key: getattr(state.info, key) for key in (
        "iterations", "factorizations", "krylov_iterations", "krylov_misses", "lu_fill",
        "unknowns")}}


def _node_text(grid, node) -> str:
    """Where a guard's node sits: its (ring, ray) lattice index and (x, y),
    or nothing for a guard without a node."""
    if node is None:
        return ""
    i, j = (int(index[node]) for index in grid.lattice_indices())
    x, y = grid.nodes[node]
    return f" (ring {i}, ray {j}; x = {x:.9g}, y = {y:.9g})"


def _unwritable(path: Path) -> str | None:
    """Why a file cannot be written at path, or None if nothing shows that
    it cannot."""
    if path.is_dir():
        return f"{path} is a directory"
    if not path.parent.is_dir():
        return f"{path.parent} is not a directory"
    if not os.access(path if path.exists() else path.parent, os.W_OK):
        return f"{path} is not writable"
    return None


def cmd_solve(args) -> int:
    try:
        cfg = parse_config(args.config)
        spec = ProblemSpec(cfg.omega, cfg.omega_tilde, cfg.model,
                           build_grid(cfg.omega, cfg.n_rho, cfg.n_phi))
    except (ConfigError, ValueError, MemoryError) as exc:   # MemoryError: a vast grid
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # the artifacts must be writable before any solve time is spent
    out = cfg.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write output.dir: {exc}", file=sys.stderr)
        return 2
    for path in (out / "field.csv", header_path(out / "field.csv"),
                 out / "report.json", out / "summary.json"):
        if (reason := _unwritable(path)) is not None:
            print(f"error: cannot write output.dir: {reason}", file=sys.stderr)
            return 2
    converged, attempt = True, None
    try:
        if cfg.homotopy_enabled:
            fld, history, attempt = direct_or_walk(spec, cfg.options, cfg.homotopy_steps,
                                                   cfg.homotopy_t_min)
        else:
            fld, info = newton_solve(spec, _initial_field(cfg, spec), cfg.options)
            info.factor = None   # frees the factor before the report and the field write
            history = [HomotopyState(1.0, fld, info)]
    except SolveFailure as exc:   # a stopped Newton solve: its artifacts are written
        if isinstance(exc, NonConvergence):
            print(f"non-convergence: {exc}", file=sys.stderr)
        else:
            print(f"solver failure: {exc}{_node_text(spec.grid, exc.node)}", file=sys.stderr)
        if exc.state is None:
            return 1
        converged, fld, history = False, exc.state.field, [exc.state]
    except (ConfigError, MemoryError) as exc:   # MemoryError: the homotopy schedule
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CMCSolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1

    report = full_report(spec, fld)
    summary = {"c": fld.c, "model": cfg.model.value, "converged": converged,
               "all_pass": report.all_pass, "steps": [_step_entry(h) for h in history],
               "field": "field.csv", "report": "report.json"}
    if attempt is not None:   # the failed direct solve before the walk
        summary["direct_attempt"] = _step_entry(attempt)
    try:
        save_field(fld, out / "field.csv", omega=cfg.omega, omega_tilde=cfg.omega_tilde)
        report.to_json(out / "report.json")
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
    except OSError as exc:
        print(f"error: cannot write output.dir: {exc}", file=sys.stderr)
        return 2
    print(report.table())
    print(f"c = {fld.c:.9g}")
    if not converged:
        return 1
    return 0 if report.all_pass else 3


def cmd_verify(args) -> int:
    # the report must be writable before any solve time is spent
    reason = _unwritable(Path(args.out)) if args.out is not None else None
    if reason is not None:
        print(f"error: cannot write --out: {reason}", file=sys.stderr)
        return 2
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
        spec = ProblemSpec(cfg.omega, cfg.omega_tilde, cfg.model, grid)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    dual = None
    if args.dual:
        try:
            dual = dual_solve(spec, cfg.options)[0]
        except CMCSolveError as exc:
            print(f"dual solve failure: {exc}", file=sys.stderr)
            return 1
    report = full_report(spec, fld, dual=dual)
    try:
        text = report.to_json(args.out)
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if report.all_pass else 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call only: main may run
    many times in one process, and building the parser takes about 0.6 ms,
    a few per cent of a 32 x 64 solve."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _setup_logging()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
