"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--seconds N] [--out perfbench/BENCH_x.json]

Runs ``perfbench/run.py`` once per workload and seed, one run after the
other, and reports for every metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
For end-to-end metrics the spread is compared with the bound in
BENCHMARK.json ("ok" below a third of it, "WIDE" above it).  With
``--out`` the runs and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary, env = [], {}, None
    for workload in args.workloads.split(","):
        per_metric = {}
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            env = env or json.loads(lines[0].split(" ", 1)[1])
            result = json.loads(lines[-1])
            detail = [ln for ln in lines
                      if ln.startswith(("machine:", "tasks ", "reference "))]
            runs.append({"workload": workload, "seed": seed, "wall_s": wall,
                         "detail": detail, **result})
            print(f"{workload} seed {seed}: wall {wall:.1f} s correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}", flush=True)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, values in per_metric.items():
            s = summarise(values)
            summary[workload][name] = s
            verdict = ""
            if name in bounds:
                b = bounds[name]
                verdict = ("ok" if s["spread"] < b / 3 else
                           "within bound" if s["spread"] <= b else "WIDE")
                verdict += f" (bound {b})"
            print(f"  {workload:<17} {name:<32} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seconds": args.seconds, "trace": args.trace,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
