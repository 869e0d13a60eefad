"""A fixed reference kernel that measures how fast the machine runs now.

The benchmark runs on a few vCPUs of a shared host, whose speed moves by a
third and more between runs a few minutes apart, with the same code and the
same inputs: neighbours take the shared caches, the memory bandwidth and
the hyper-thread siblings.  CPU time does not remove that.  So the
benchmark times this kernel between its tasks and divides the tasks' CPU
time by the kernel's, which cancels most of the machine's speed and keeps
the cost of the code.

One sample runs two parts:

  lu  SuperLU (COLAMD) of a fixed 2-D five-point Laplacian (14400
      unknowns, about 1 M L+U fill), memory-bound like the factorizations
      of the solver;
  py  scalar ``brentq`` root finds on a Python callable, interpreter-bound
      like the boundary root finding of ``domains``.

The host flips between a fast and a slow state every few seconds, and the
share of slow time moves between runs.  A run divides its tasks' mean CPU
time by the mean slowness of its blocks.  The run-wide mean follows the
8-s ``homotopy_ellipse`` tasks, which span several flips, better than the
blocks just around each task, and does as well on the short tasks.  Over
57 runs of 25-30 s (18 of ``direct_ball``, 21 of ``homotopy_ellipse``, 18
of ``verify_dual``) the spread of run values was 0.029, 0.055 and 0.072,
against 0.13, 0.08-0.23 and 0.29 for raw CPU seconds in single ten-run
sets.  Dividing by a power of the slowness below 1 did better on one
workload and worse on another, so the benchmark uses none.

The kernel uses numpy and scipy only, never ``cmcsolve``, so no change to
the program moves it.  ``NOMINAL`` holds round figures for each part's
CPU seconds on the machine the baseline was taken on (2 vCPUs of an Intel
Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread).  There
the fast state reads a slowness of about 0.9 and the slow state about 1.5.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL = {"lu": 0.055, "py": 0.022}
GRID = 120
ROOT_FINDS = 1700


class Reference:
    def __init__(self):
        import scipy.sparse as sp

        ones = [1.0] * GRID
        lap = sp.diags([[-1.0] * (GRID - 1), [2.0] * GRID, [-1.0] * (GRID - 1)],
                       [-1, 0, 1])
        eye = sp.diags([ones], [0])
        self.matrix = (sp.kron(eye, lap) + sp.kron(lap, eye)).tocsc()

    def _lu(self):
        from scipy.sparse.linalg import splu

        splu(self.matrix)

    @staticmethod
    def _py():
        from scipy.optimize import brentq

        for k in range(ROOT_FINDS):
            a = 1.0 + k * 1e-3
            brentq(lambda x: math.cos(x) - a * x, 0.0, 1.5)

    def sample(self) -> dict:
        """CPU seconds of each part, run once."""
        out = {}
        for name, part in (("lu", self._lu), ("py", self._py)):
            c0 = time.process_time()
            part()
            out[name] = time.process_time() - c0
        return out

    def block(self, seconds: float) -> dict:
        """Median CPU seconds of each part over at least two samples taken
        for about ``seconds`` of CPU time."""
        samples, spent = [], 0.0
        while len(samples) < 2 or spent < seconds:
            samples.append(self.sample())
            spent += sum(samples[-1].values())
        return {name: statistics.median(s[name] for s in samples) for name in NOMINAL}


def slowness(parts: dict) -> float:
    """Time of the equal mix of the two parts relative to the nominal
    machine, from one reference block."""
    return 0.5 * (parts["lu"] / NOMINAL["lu"] + parts["py"] / NOMINAL["py"])
