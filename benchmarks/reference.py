"""Reference kernel that calibrates times to a fixed host speed.

On a shared host the speed of a core can drift by up to 1.6x over seconds
to minutes, most likely because other tenants load the same physical
cores.  Every timed step of the benchmark is bracketed by a reference
kernel, and the step's time is rescaled by
``REFERENCE_S / (mean kernel time around the step)``, so a calibrated time
reads about the same whatever the host's speed at that moment.  Each
workload has two kernels: one for its passes and one for its solves
(``reference_mix`` and ``solve_mix`` in workloads.py).

The kernel is plain numpy and scipy, no spheredepth code, so a change to
the library never changes it.  How much the drift slows code depends on
the kind of code, so each workload mixes the parts below in the shares of
its own work:

- ``calls``: numpy calls on 200 x 2 arrays (per-call overhead, as in one
  small solve); ``wide_calls`` does the same on 400 x 5 arrays;
- ``stream``: one pass over a 100 000 x 3 array (memory streaming, as in an
  objective evaluation at n = 1e5);
- ``dense``: a 400 x 400 Gram matrix and its exponential (kernel-spatial
  depth at n = 400);
- ``block``: a sigmoid over a 200 x 4096 block (one grid oracle at n = 200).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import expit

# Calibrated times are seconds on a host where one kernel call takes this
# long.
REFERENCE_S = 0.01


class ReferenceKernel:
    def __init__(self, mix: dict):
        """``mix`` maps each part's name to its repeats in one call."""
        rng = np.random.default_rng(0)
        self.small_rows = rng.standard_normal((200, 2))
        self.wide_rows = rng.standard_normal((400, 5))
        self.large_rows = rng.standard_normal((100_000, 3))
        self.dense_rows = rng.standard_normal((400, 5))
        self.directions = rng.standard_normal((2, 4096))
        self.steps = [(getattr(self, name), repeats) for name, repeats in mix.items()]

    def __call__(self) -> float:
        """Seconds one call of the kernel takes now, after a warm-up call
        that refills the caches the timed work has evicted."""
        self._run()
        start = perf_counter()
        self._run()
        return perf_counter() - start

    def _run(self) -> None:
        for step, repeats in self.steps:
            for _ in range(repeats):
                step()

    def calls(self) -> None:
        self._objective(self.small_rows)

    def wide_calls(self) -> None:
        self._objective(self.wide_rows)

    @staticmethod
    def _objective(rows) -> None:
        w = rows - 0.5
        t = np.einsum("ij,ij->i", w, w)
        float(np.mean(expit(-t)) + (t @ w).sum())

    def stream(self) -> None:
        w = self.large_rows - 0.5
        t = np.einsum("ij,ij->i", w, w)
        float(np.mean(expit(-t)))

    def dense(self) -> None:
        gram = self.dense_rows @ self.dense_rows.T
        float(np.exp(-np.abs(gram)).sum())

    def block(self) -> None:
        float(np.mean(expit(self.small_rows @ self.directions)))
