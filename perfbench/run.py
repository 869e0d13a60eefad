"""cmcsolve benchmark: three CLI workloads, end-to-end metrics, layer trace.

    python3 perfbench/run.py --workload direct_ball --seed 0 --seconds 30 --trace 0

Run it from the root of a source tree; it imports ``cmcsolve`` from
``src/`` and nothing else.  Each task calls the public entry point
``cmcsolve.cli.main`` in this process, one task after the other (a closed
loop with one client), until ``--seconds`` have passed.  Every task runs in
its own temporary output directory under the tree root, which is removed at
the end.

Workloads (see instances.py for the seeded geometry):

  direct_ball       solve, homotopy off: concentric balls at 64 x 128 from
                    the exact radial seed.  One large cold LU dominates.
  homotopy_ellipse  solve, 12-step homotopy: ellipse -> ball at 32 x 64.
                    Many small warm LUs plus super-level root finding.
  verify_dual       verify --dual on the artifacts of a homotopy_ellipse
                    solve made before timing, then the Legendre transform of
                    the stored field onto a 32 x 64 grid over the target and
                    its dual residual.

Task and set-up times are reported as normalised seconds: their mean CPU
seconds divided by the mean slowness of a fixed reference kernel timed
between the tasks (calibrate.py).  On a shared virtual machine the host can
withhold the CPU (steal time, printed per run), which wall time counts, and
neighbours slow the CPU itself, which CPU time counts; the reference kernel
meets the same slowing.  The wall and CPU figures are printed too.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced tasks alternate and it holds the
per-layer metrics of spans.py.  Every task is gated (exit code 0, all
diagnostics pass, the closed form on direct_ball, identical outputs across
the tasks of a run, traced or not); a failed gate counts in ``failed`` and
clears ``correct``.  The lines before the last one are for people: the
environment, the instance, and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibrate  # perfbench/ is first on sys.path when run as a script

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("direct_ball", "homotopy_ellipse", "verify_dual")
# BLAS/OpenMP pools pinned to one thread: the solver is single-threaded
# apart from BLAS, and one thread keeps runs steady on a shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
# reference-kernel time after each task, as a share of the task's CPU time,
# and the least CPU time of one reference block
REF_SHARE = 0.1
REF_MIN_S = 0.25
DIRECT_C_TOL = 1e-3
SUBPROCESS_TIMEOUT = 150
ARTIFACTS = ("field.csv", "field.json", "report.json", "summary.json")
# On an oversubscribed host a task can take several times its usual wall
# time.  These limits, in wall seconds since start, keep a run well inside
# three minutes: no task starts after LOOP_DEADLINE, no further set-up
# sample after SETUP_DEADLINE.
LOOP_DEADLINE = 90.0
SETUP_DEADLINE = 120.0
STARTED = time.perf_counter()


def _past(deadline) -> bool:
    return time.perf_counter() - STARTED > deadline


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Task:
    """Outcome of one task: exit code, captured streams, gate failures."""

    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.rc = None
        self.stdout = ""
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.errors = []
        self.fingerprint = None
        self.outputs = {}

    @property
    def newton_lines(self):
        return sum(1 for ln in self.stdout.splitlines() if ln.startswith("newton t="))

    @property
    def bisect_lines(self):
        return sum(1 for ln in self.stdout.splitlines()
                   if ln.startswith("homotopy bisect"))


class Bench:
    def __init__(self, workload, seed, work_dir):
        import instances

        self.workload = workload
        self.work = work_dir
        if workload == "direct_ball":
            self.instance = instances.concentric_balls(seed)
        else:
            self.instance = instances.ellipse_to_ball(seed)
        self.reference = (instances.radial_reference(self.instance)
                          if workload == "direct_ball" else None)
        self.prep_dir = None

    # -- preparation --------------------------------------------------------

    def prepare(self):
        """verify_dual: solve the instance once, in a child process, so
        that neither its time nor its memory counts."""
        if self.workload != "verify_dual":
            return
        self.prep_dir = self.work / "prep"
        self.prep_dir.mkdir()
        cfg = self.prep_dir / "run.cfg"
        cfg.write_text(self.instance.config_text(self.prep_dir))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from cmcsolve.cli import main; sys.exit(main(sys.argv[1:]))",
             "solve", "--config", str(cfg)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"preparatory solve exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")

    # -- one task -----------------------------------------------------------

    def run_task(self, task: Task, tracer):
        task_dir = self.work / f"task{task.index}"
        task_dir.mkdir()
        if self.workload == "verify_dual":
            self._verify(task, task_dir, self.prep_dir, tracer)
        else:
            self._solve(task, task_dir, tracer)
        self._gate(task)

    def _call(self, task, tracer, body):
        """Time body() with the CLI's streams captured; a traced task opens
        the tracer's task span around it."""
        out, err = io.StringIO(), io.StringIO()
        task_ctx = tracer.task(task.index) if task.traced else contextlib.nullcontext()
        t0, c0 = time.perf_counter(), time.process_time()
        with task_ctx, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = body()
        task.seconds = time.perf_counter() - t0
        task.cpu_seconds = time.process_time() - c0
        task.stdout = out.getvalue()
        if task.rc != 0:
            task.errors.append(f"exit code {task.rc}: {err.getvalue().strip()[-300:]}")
        return result

    def _solve(self, task, task_dir, tracer):
        import cmcsolve.cli

        cfg = task_dir / "run.cfg"
        cfg.write_text(self.instance.config_text(task_dir))

        def body():
            task.rc = cmcsolve.cli.main(["solve", "--config", str(cfg)])

        self._call(task, tracer, body)
        digest = hashlib.sha256(task.stdout.encode())
        for name in ARTIFACTS:
            digest.update((task_dir / name).read_bytes())
        task.fingerprint = digest.hexdigest()
        task.outputs = {"report": json.loads((task_dir / "report.json").read_text()),
                        "summary": json.loads((task_dir / "summary.json").read_text()),
                        "dir": task_dir}

    def _verify(self, task, task_dir, solved_dir, tracer):
        import cmcsolve.cli
        import cmcsolve.domains
        import cmcsolve.duality
        import cmcsolve.fieldio
        import cmcsolve.grid

        field_csv = solved_dir / "field.csv"
        argv = ["verify", "--field", str(field_csv), "--config", str(solved_dir / "run.cfg"),
                "--dual", "--out", str(task_dir / "verify.json")]
        omt = self.instance.omega_tilde
        target = cmcsolve.domains.Ball(omt["center"], omt["radius"])

        def body():
            task.rc = cmcsolve.cli.main(argv)
            fld = cmcsolve.fieldio.load_field(field_csv)
            dual_grid = cmcsolve.grid.build_grid(target, self.instance.n_rho,
                                                 self.instance.n_phi)
            dual = cmcsolve.duality.legendre_transform(fld, dual_grid)
            return dual, cmcsolve.duality.dual_residual(dual)

        dual, resid = self._call(task, tracer, body)
        text = (task_dir / "verify.json").read_bytes()
        digest = hashlib.sha256(task.stdout.encode() + text)
        digest.update(dual.u.tobytes() + repr(dual.c).encode() + resid.tobytes())
        task.fingerprint = digest.hexdigest()
        task.outputs = {"report": json.loads(text),
                        "dual_residual_inf": float(abs(resid).max())}

    def _gate(self, task: Task):
        report = task.outputs["report"]
        if not report.get("all_pass"):
            failed = [k for k, v in report.get("checks", {}).items() if not v["passed"]]
            task.errors.append(f"diagnostics failed: {failed}")
        if self.workload == "verify_dual":
            if "dual_consistency" not in report.get("checks", {}):
                task.errors.append("verify --dual reported no dual consistency check")
            if task.newton_lines < 1:
                task.errors.append("dual solve logged no Newton iteration")
            return
        summary = task.outputs["summary"]
        if not summary.get("converged"):
            task.errors.append("solve did not converge")
        # bisected homotopy attempts log iterations that summary.json omits
        iters = sum(s["iterations"] for s in summary["steps"])
        if task.newton_lines != iters and (task.bisect_lines == 0
                                           or task.newton_lines < iters):
            task.errors.append(f"{task.newton_lines} Newton log lines but summary.json "
                               f"counts {iters} iterations")
        if self.reference is not None:
            c_exact, _ = self.reference
            if not abs(summary["c"] - c_exact) <= DIRECT_C_TOL:
                task.errors.append(f"c = {summary['c']!r}, closed form {c_exact!r}")

    # -- accuracy (untimed, on the first task's outputs) ---------------------

    def accuracy(self, first: Task) -> dict:
        import numpy as np

        import cmcsolve.fieldio

        report = first.outputs["report"]
        acc = {"mass_balance_rel_err": report["mass_balance_rel_err"],
               "flux_identity_rel_err": report["flux_identity_rel_err"]}
        if self.workload == "direct_ball":
            c_exact, u_exact = self.reference
            fld = cmcsolve.fieldio.load_field(first.outputs["dir"] / "field.csv")
            ref = fld.grid.mean_zero(u_exact(fld.grid.nodes[:, 0], fld.grid.nodes[:, 1]))
            acc["c_abs_err"] = abs(fld.c - c_exact)
            acc["u_max_err"] = float(np.max(np.abs(fld.u - ref)))
            acc["c_err"], acc["u_err"] = acc["c_abs_err"], acc["u_max_err"]
            return acc
        if self.workload == "homotopy_ellipse":
            # the ellipse has no closed form: cross-check against the dual
            # side, as verify_dual does, on the solve's own artifacts
            check = Task("check", False)
            check_dir = self.work / "check"
            check_dir.mkdir()
            self._verify(check, check_dir, first.outputs["dir"], None)
            if check.errors or not check.outputs["report"].get("all_pass"):
                raise RuntimeError(f"dual cross-check failed: {check.errors}")
            report = check.outputs["report"]
            dual_res = check.outputs["dual_residual_inf"]
        else:
            dual_res = first.outputs["dual_residual_inf"]
        acc["dual_gap"] = report["dual_consistency"]
        acc["dual_residual_inf"] = dual_res
        acc["c_err"], acc["u_err"] = acc["dual_gap"], acc["dual_residual_inf"]
        return acc


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup():
    """(wall, CPU) seconds of a fresh interpreter importing cmcsolve.cli."""
    t0, c0 = time.perf_counter(), _children_cpu()
    subprocess.run([sys.executable, "-c", "import cmcsolve.cli"], env=_child_env(),
                   cwd=ROOT, check=True, timeout=SUBPROCESS_TIMEOUT)
    return time.perf_counter() - t0, _children_cpu() - c0


def stolen_seconds() -> float:
    """CPU seconds the hypervisor has withheld from this machine since
    boot (the steal column of /proc/stat), or 0 where it is not reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "processes": 1}


def _check_trace(task: Task, tracer):
    """Cross-check a traced task's progress log against its spans."""
    counts = tracer.task_summary(task.index)["counts"]
    accepted = counts.get("solver.accepted_steps", 0)
    bisections = counts.get("solver.homotopy.bisections", 0)
    if task.newton_lines != accepted:
        task.errors.append(f"{task.newton_lines} Newton log lines, "
                           f"{accepted:g} accepted steps traced")
    if task.bisect_lines != bisections:
        task.errors.append(f"{task.bisect_lines} bisection log lines, "
                           f"{bisections:g} traced")


def run_tasks(bench: Bench, tracer, reference, args):
    """The closed loop.  Returns (tasks, set-up samples, reference blocks,
    peak RSS in MiB after the first task, names the tracer failed to
    restore).

    Task 0 warms up: it loads the modules the CLI imports lazily and fills
    the caches, and it is gated but not timed; ``--seconds`` start after
    it.  Untraced, a reference block (calibrate.py) runs before the first
    timed task and after every task and set-up sample, so that the blocks
    sample the machine's speed across the run.  Tasks, set-up samples and
    blocks all count against ``--seconds``."""
    tasks, setup, blocks, restore_errors = [], [], [], []
    timed = not args.trace
    t_start = None
    while True:
        if len(tasks) == 1:
            t_start = time.perf_counter()
            if timed:
                blocks.append(reference.block(REF_MIN_S))
        task = Task(len(tasks), bool(args.trace) and len(tasks) % 2 == 1)
        tasks.append(task)
        if task.traced:
            tracer.install()
        try:
            bench.run_task(task, tracer)
        except Exception:
            task.errors.append(traceback.format_exc(limit=4).strip())
        finally:
            if task.traced:
                restore_errors += tracer.restore()
        if task.fingerprint != tasks[0].fingerprint:
            task.errors.append("outputs differ from the run's first task")
        if task.traced and not task.errors:
            _check_trace(task, tracer)
        for e in task.errors:
            print(f"task {task.index} failed: {e}", file=sys.stderr)
        if task.index == 0:
            # later tasks only add allocator fragmentation, and their number
            # depends on the machine's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            continue
        if timed:
            blocks.append(reference.block(max(REF_MIN_S, REF_SHARE * task.cpu_seconds)))
        elapsed = time.perf_counter() - t_start
        # set-up samples are spread over the run, so that they meet the same
        # swings of machine speed as the tasks
        while timed and (len(setup) + 0.5) * args.seconds <= elapsed * SETUP_SAMPLES:
            setup.append(_setup_sample(reference, blocks))
        # stop where the next task would end, on average, at --seconds
        ends = time.perf_counter() - t_start + 0.5 * task.seconds
        enough = timed or len(tasks) >= 3
        if enough and (ends >= args.seconds or _past(LOOP_DEADLINE)):
            break
    while timed and len(setup) < SETUP_SAMPLES and not _past(SETUP_DEADLINE):
        setup.append(_setup_sample(reference, blocks))
    return tasks, setup, blocks, peak_rss_mb, restore_errors


def _setup_sample(reference, blocks):
    """One set-up sample, (wall, CPU) seconds, then a reference block."""
    sample = measure_setup()
    blocks.append(reference.block(REF_MIN_S))
    return sample


def run(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans

    try:
        import cmcsolve.cli
    except ImportError as exc:
        print(f"error: cannot import cmcsolve from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(cmcsolve.cli.__file__).resolve().parents:
        print(f"error: cmcsolve imported from {cmcsolve.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(args.workload, args.seed, work)
        print("env " + json.dumps(environment()))
        print("instance " + json.dumps({"workload": args.workload, "seed": args.seed,
                                        **bench.instance.__dict__}))
        bench.prepare()

        tracer = spans.Tracer()
        reference = calibrate.Reference()
        stolen0, wall0 = stolen_seconds(), time.perf_counter()
        tasks, setup, blocks, peak_rss_mb, restore_errors = run_tasks(
            bench, tracer, reference, args)
        print(f"machine: {stolen_seconds() - stolen0:.1f} CPU s stolen by the host "
              f"over {time.perf_counter() - wall0:.1f} s of measurement")

        ok = [t for t in tasks if not t.errors]
        failed = len(tasks) - len(ok)
        correct = failed == 0 and not restore_errors
        if restore_errors:
            print(f"not restored after tracing: {restore_errors}", file=sys.stderr)
        timed_ok = [t for t in ok if t.index > 0]
        untraced = [t.seconds for t in timed_ok if not t.traced]
        print(f"tasks {len(tasks)} failed {failed} failed_frac {failed / len(tasks):.4g} "
              f"task_s " + " ".join(f"{t.seconds:.4f}" for t in tasks)
              + " cpu_s " + " ".join(f"{t.cpu_seconds:.4f}" for t in tasks))

        if args.trace:
            traced = [t.index for t in timed_ok if t.traced]
            if not traced or not untraced:
                print("error: no traced and untraced task pair completed", file=sys.stderr)
                return 1
            if args.spans:
                tracer.dump(args.spans)
            values = spans.layer_metrics(tracer, traced, untraced)
            units = spans.layer_metric_units()
            if values["trace.coverage"] < 0.95:
                print(f"warning: trace coverage {values['trace.coverage']:.3f} < 0.95",
                      file=sys.stderr)
        else:
            if not timed_ok:
                print("error: no task passed its gates", file=sys.stderr)
                return 1
            acc = bench.accuracy(ok[0])
            slowness = statistics.fmean(calibrate.slowness(b) for b in blocks)
            cpu = [t.cpu_seconds for t in timed_ok]
            print(f"  {'task_s (wall)':<32} {statistics.median(untraced):.6g} s")
            print(f"  {'task_cpu_s':<32} {statistics.fmean(cpu):.6g} s")
            print(f"  {'setup_s (wall)':<32} {statistics.median(w for w, _ in setup):.6g} s")
            print(f"  {'setup_cpu_s':<32} {statistics.fmean(c for _, c in setup):.6g} s")
            print(f"  {'slowness':<32} {slowness:.6g}")
            print("reference slowness " + " ".join(f"{calibrate.slowness(b):.3f}"
                                                   for b in blocks))
            # means, not medians: the machine flips between a fast and a
            # slow state every few seconds, and means weigh both states as
            # the run met them, where the median of a few tasks jumps
            # between the two
            values = {"setup_s": statistics.fmean(c for _, c in setup) / slowness,
                      "task_norm_s": statistics.fmean(cpu) / slowness,
                      "newton_iters": statistics.median([t.newton_lines for t in ok]),
                      "peak_rss_mb": peak_rss_mb, **acc}
            units = {"setup_s": "s", "task_norm_s": "s", "newton_iters": "count",
                     "peak_rss_mb": "MiB", "c_err": "1", "u_err": "1",
                     "mass_balance_rel_err": "1", "flux_identity_rel_err": "1"}
            for name in sorted(acc):
                if name not in units:
                    print(f"  {name:<32} {acc[name]:.6g}")
            print(f"  {'failed_frac':<32} {failed / len(tasks):.6g}")
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": correct, "attempted": len(tasks), "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write every span as a JSON line here")
    args = parser.parse_args(argv)
    if not (SRC / "cmcsolve" / "cli.py").is_file():
        print(f"error: no cmcsolve sources under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    # pin the thread pools before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
