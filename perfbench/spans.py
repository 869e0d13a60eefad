"""Layer spans recorded from outside the package.

The tracer replaces the module-level names each caller binds (for example
``cmcsolve.solver.splu`` or ``cmcsolve.cli.full_report``) and a few class
attributes (``ConvexDomain.boundary_radius``) with wrappers that record a
span per call, and puts the originals back afterwards.  Nothing under
``src/`` changes.  Spans live in memory as
``[name, start, end, parent, task, error]`` rows and are summarised per task
when the run ends.

Only calls made while a task is open are recorded, and the wrappers are
installed only around traced tasks, so untraced tasks run the pristine code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

MODULES = ("domains", "grid", "radial", "kernel", "assembly", "solver",
           "duality", "diagnostics", "fieldio", "config", "cli")

# span name -> functions it wraps, as "module:attr" (every binding of that
# function object in any cmcsolve module is wrapped) or "module:Class.attr"
# (that class attribute only).  kernel has no span of its own: its calls sit
# inside the assembly spans.
TARGETS = {
    "cli.main": ["cli:main"],
    "config.parse_config": ["config:parse_config"],
    "domains.boundary_radius": ["domains:ConvexDomain.boundary_radius"],
    "domains.measures": ["domains:ConvexDomain.measures", "domains:Ball.measures",
                         "domains:Ellipse.measures"],
    "domains.sublevel": ["domains:ConvexDomain.sublevel"],
    "grid.build_grid": ["grid:build_grid"],
    "grid.transfer_field": ["grid:transfer_field"],
    "radial.seed_field": ["radial:seed_field"],
    "assembly.problem_spec": ["assembly:ProblemSpec.__post_init__"],
    "assembly.residual": ["assembly:residual", "assembly:residual_from_state"],
    "assembly.jacobian": ["assembly:jacobian"],
    "assembly.admissibility": ["assembly:admissibility_violation"],
    "solver.lu_factor": ["solver:splu"],
    "solver.line_search": ["solver:damped_step"],
    "solver.newton_solve": ["solver:newton_solve"],
    "solver.homotopy": ["solver:run_homotopy"],
    "solver.auto_t_min": ["solver:auto_t_min"],
    "duality.dual_solve": ["duality:dual_solve"],
    "duality.legendre_transform": ["duality:legendre_transform"],
    "duality.dual_residual": ["duality:dual_residual"],
    "diagnostics.full_report": ["diagnostics:full_report"],
    "diagnostics.lambda_bounds": ["diagnostics:lambda_bounds"],
    "diagnostics.write_report": ["diagnostics:DiagnosticsReport.to_json"],
    "fieldio.save_field": ["fieldio:save_field"],
    "fieldio.load_field": ["fieldio:load_field"],
}

# per-layer metrics reported by a traced run, with their units
INCLUSIVE = ["solver.lu_factor", "solver.lu_solve", "domains.boundary_radius",
             "domains.measures", "domains.sublevel", "grid.transfer_field",
             "assembly.jacobian", "assembly.residual", "assembly.admissibility",
             "assembly.problem_spec", "solver.auto_t_min", "radial.seed_field",
             "duality.dual_solve", "duality.legendre_transform",
             "diagnostics.full_report", "diagnostics.lambda_bounds",
             "fieldio.save_field", "fieldio.load_field", "config.parse_config"]
SELF = ["grid.build_grid", "solver.line_search", "cli.main"]
CALLS = ["solver.lu_factor", "domains.boundary_radius", "grid.build_grid",
         "assembly.jacobian", "assembly.admissibility", "solver.newton_solve"]
COUNTS = ["solver.lu_fill_max", "solver.lu_fill_sum", "domains.boundary_radius.rays",
          "grid.ops_nnz", "assembly.jacobian.nnz", "solver.homotopy.steps",
          "solver.homotopy.bisections", "fieldio.save_field.bytes"]


def layer_metric_units() -> dict:
    units = {f"{n}.s": "s" for n in INCLUSIVE}
    units.update({f"{n}.self_s": "s" for n in SELF})
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({n: "count" for n in COUNTS})
    units["fieldio.save_field.bytes"] = "B"
    units.update({"solver.backtracks": "count", "solver.step_accept_ratio": "1",
                  "trace.coverage": "1", "trace.overhead": "1", "trace.task_s": "s"})
    return units


class _FactorProxy:
    """Stands in for a SuperLU factor so that its solves get a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._task = None
        self._patches = []   # (owner, attr, original)

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._task, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx, error=None):
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block; records nothing outside a task."""
        if self._task is None:
            yield
            return
        idx = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(idx, type(exc).__name__)
            raise
        self._close(idx)

    @contextlib.contextmanager
    def task(self, task_id):
        """One task, as a root span named 'task'."""
        self._task = task_id
        try:
            with self.span("task"):
                yield
        finally:
            self._task = None

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, key, value=1.0):
        self.counts[self._task][key] += value

    def count_max(self, key, value):
        c = self.counts[self._task]
        c[key] = max(c[key], value)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        after, on_error = _AFTER.get(name), _ON_ERROR.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._task is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, type(exc).__name__)
                if on_error:
                    on_error(tracer)
                raise
            tracer._close(idx)
            return after(tracer, args, result) if after else result

        return wrapper

    def install(self):
        """Wrap every target binding.  Call restore() to undo."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"cmcsolve.{m}") for m in MODULES}
        for name, targets in TARGETS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mods[mod_name], cls_name)
                    self._patch(owner, meth, self._wrap(vars(owner)[meth], name))
                    continue
                original = getattr(mods[mod_name], attr)
                wrapped = self._wrap(original, name)
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> list:
        """Put every original back; returns the names that did not restore."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
               if vars(o)[a] is not orig]
        self._patches = []
        return bad

    # -- summary ------------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON object per line."""
        keys = ("name", "start", "end", "parent", "task", "error")
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")

    def task_summary(self, task_id) -> dict:
        """Inclusive and self seconds per span name, counts, and coverage."""
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] == task_id]
        by_idx = dict(rows)
        child_time = defaultdict(float)
        for _, s in rows:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        root = covered = 0.0
        for i, s in rows:
            name, dur = s[0], s[2] - s[1]
            calls[name] += 1
            self_time[name] += dur - child_time[i]
            ancestors = []
            p = s[3]
            while p is not None:
                ancestors.append(by_idx[p][0])
                p = by_idx[p][3]
            if name not in ancestors:
                inclusive[name] += dur
            if name == "task":
                root = dur
            elif not name.startswith("cli.") and all(
                    a == "task" or a.startswith("cli.") for a in ancestors):
                covered += dur
        return {"inclusive": inclusive, "self": self_time, "calls": calls,
                "counts": self.counts[task_id], "task_s": root,
                "coverage": covered / root if root > 0 else 0.0}


def _after_splu(tracer, args, lu):
    fill = int(lu.L.nnz + lu.U.nnz)
    tracer.count("solver.lu_fill_sum", fill)
    tracer.count_max("solver.lu_fill_max", fill)
    return _FactorProxy(lu, tracer)


def _after_boundary_radius(tracer, args, result):
    tracer.count("domains.boundary_radius.rays", np.size(args[1]))
    return result


def _after_build_grid(tracer, args, grid):
    tracer.count("grid.ops_nnz", sum(int(m.nnz) for m in grid.ops.values()))
    return grid


def _after_jacobian(tracer, args, jac):
    tracer.count_max("assembly.jacobian.nnz", int(jac.nnz))
    return jac


def _after_admissibility(tracer, args, result):
    if tracer.parent_name() == "solver.line_search":
        tracer.count("solver.trial_points")
    return result


def _after_damped_step(tracer, args, result):
    tracer.count("solver.accepted_steps")
    return result


def _after_homotopy(tracer, args, result):
    tracer.count("solver.homotopy.steps", len(result[1]))
    return result


def _after_save_field(tracer, args, result):
    csv_path = args[1]
    header = os.path.splitext(csv_path)[0] + ".json"
    tracer.count("fieldio.save_field.bytes",
                 os.path.getsize(csv_path) + os.path.getsize(header))
    return result


def _on_newton_failure(tracer):
    # run_homotopy answers a failed step by bisecting, or gives up and fails
    # the task; in a task that passes, every failed step was bisected
    if tracer.parent_name() == "solver.homotopy":
        tracer.count("solver.homotopy.bisections")


_ON_ERROR = {"solver.newton_solve": _on_newton_failure}

_AFTER = {
    "solver.lu_factor": _after_splu,
    "domains.boundary_radius": _after_boundary_radius,
    "grid.build_grid": _after_build_grid,
    "assembly.jacobian": _after_jacobian,
    "assembly.admissibility": _after_admissibility,
    "solver.line_search": _after_damped_step,
    "solver.homotopy": _after_homotopy,
    "fieldio.save_field": _after_save_field,
}


def layer_metrics(tracer: Tracer, traced_ids, untraced_task_s) -> dict:
    """Per-layer metrics: the median over traced tasks of each per-task value."""
    per_task = defaultdict(list)
    for tid in traced_ids:
        s = tracer.task_summary(tid)
        for n in INCLUSIVE:
            per_task[f"{n}.s"].append(s["inclusive"].get(n, 0.0))
        for n in SELF:
            per_task[f"{n}.self_s"].append(s["self"].get(n, 0.0))
        for n in CALLS:
            per_task[f"{n}.calls"].append(s["calls"].get(n, 0))
        counts = s["counts"]
        for n in COUNTS:
            per_task[n].append(counts.get(n, 0.0))
        trials = counts.get("solver.trial_points", 0.0)
        accepted = counts.get("solver.accepted_steps", 0.0)
        per_task["solver.backtracks"].append(trials - accepted)
        per_task["solver.step_accept_ratio"].append(accepted / trials if trials else 0.0)
        per_task["trace.coverage"].append(s["coverage"])
        per_task["trace.task_s"].append(s["task_s"])
    out = {k: statistics.median(v) for k, v in per_task.items()}
    out["trace.overhead"] = out["trace.task_s"] / statistics.median(untraced_task_s) - 1.0
    return out
