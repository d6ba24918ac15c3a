"""The four workloads: set-up, one pass of the unit of work, and the checks.

Each workload is a closed loop of one caller: the next pass starts when the
previous one returns.  ``setup`` builds every input from the seed.
``segments`` splits one pass of the unit of work into steps of about a
second that call the library's public API or a CLI runner in-process; the
steps are the only timed part, and each adds what it did to a
``PassOutput``.  ``check`` verifies the last pass's outputs outside the
timed region.  NOTES.md says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np
import scipy.stats

from spheredepth import cli, core, datagen, io, optim, stats
from tracing import patched

# A solve whose value exceeds the grid oracle's by more than this counts as
# failed in ``failed_share``.
ORACLE_GAP_LIMIT = 0.01


@dataclass
class Batch:
    """One ``batch_depth`` call made by a CLI runner."""

    points: np.ndarray
    X: core.SampleSet
    params: core.DepthParams
    cfg: optim.OptimizerConfig
    results: list


@dataclass
class PassOutput:
    seconds: float = 0.0  # measured time of the segments
    calibrated_s: float = 0.0  # the same at the reference speed (see reference.py)
    results: list = field(default_factory=list)  # every sphere solve that returned
    latencies_ms: list = field(default_factory=list)  # one per returned solve
    solve_kernel_s: list = field(default_factory=list)  # calibrates each latency
    calibrated_ms: list = field(default_factory=list)
    solve_probe: Callable[[], float] | None = None  # times the solve kernel
    probe_s: float = 0.0  # time spent in solve probes, kept out of ``seconds``
    raised: int = 0  # sphere solves lost to an exception
    batches: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # one per CLI runner call
    gaps: list = field(default_factory=list)  # solver - oracle, when the pass runs one
    correlations: list = field(default_factory=list)  # (s, depths, spearman, kendall)


@dataclass
class Check:
    problems: list  # reasons the outputs are wrong; empty when correct
    gaps: list  # solver - grid oracle, one per compared solve
    auroc_sphere: float = 0.0
    spearman_sphere: float = 0.0


def _bracketed(out: PassOutput, batch: Callable):
    """Run ``batch()``, a batch of solves, between two solve-kernel probes.

    Each solve of the batch is calibrated by the mean of the two probes;
    the probes' own time is kept out of the pass time.
    """
    mark = len(out.latencies_ms)
    start = perf_counter()
    before = out.solve_probe()
    out.probe_s += perf_counter() - start
    try:
        return batch()
    finally:
        start = perf_counter()
        kernel = 0.5 * (before + out.solve_probe())
        out.probe_s += perf_counter() - start
        out.solve_kernel_s += [kernel] * (len(out.latencies_ms) - mark)


def _recording(batches: list, out: PassOutput):
    """Wrap ``batch_depth`` so each call's inputs and results are kept."""

    def wrap(fn):
        def batch_depth(points, X, params=None, cfg=None, threads=1):
            results = _bracketed(out, lambda: fn(points, X, params, cfg, threads=threads))
            batches.append(Batch(points, X, params, cfg, results))
            return results

        return batch_depth

    return wrap


def _timing(out: PassOutput):
    """Wrap the solver so each solve's time is kept: one clock pair per solve."""

    def wrap(fn):
        def riemannian_descent(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            out.latencies_ms.append(1e3 * (perf_counter() - start))
            return result

        return riemannian_descent

    return wrap


def _runner_segment(runner: str, args, solves: int):
    """One in-process CLI run, including the JSON report ``main`` would write."""

    def segment(out: PassOutput) -> None:
        batches: list[Batch] = []
        with patched(cli, "batch_depth", _recording(batches, out)), \
                patched(optim, "riemannian_descent", _timing(out)):
            try:
                report = getattr(cli, runner)(args)
                report.to_json()
                out.reports.append(report)
            except ValueError:
                out.raised += solves - sum(len(batch.results) for batch in batches)
        out.batches += batches
        out.results += [res for batch in batches for res in batch.results]

    return segment


def _timed_solves(queries, X, params, cfg, out: PassOutput) -> list:
    """Solve each query with ``optim.sphere_depth``, timing every call."""

    def solve_all() -> list:
        solved = []
        for z in queries:
            start = perf_counter()
            try:
                res = optim.sphere_depth(z, X, params, cfg)
            except ValueError:
                out.raised += 1
                solved.append(None)
                continue
            out.latencies_ms.append(1e3 * (perf_counter() - start))
            out.results.append(res)
            solved.append(res)
        return solved

    return _bracketed(out, solve_all)


def _sampled_gaps(samples, grid_size: int, problems: list) -> list:
    """Re-solve sampled queries and compare them with the grid oracle.

    ``samples`` holds ``(z, X, params, cfg, result)``.  A re-solve must
    reproduce the pass's result exactly, and the reported value must equal
    the objective at the reported direction.
    """
    gaps = []
    for z, X, params, cfg, res in samples:
        again = optim.sphere_depth(z, X, params, cfg)
        if (again.value, again.iterations) != (res.value, res.iterations):
            problems.append(f"re-solve differs: {again.value!r} vs {res.value!r}")
        loss = core.sphere_loss(res.direction, z, X, params)
        if abs(loss - res.value) > 1e-12:
            problems.append(f"value {res.value!r} is not the loss {loss!r} at its direction")
        grid = core.DirectionGrid.generate(grid_size, X.d)
        gaps.append(res.value - core.grid_oracle_sphere_depth(z, X, params, grid).value)
    return gaps


def _batch_samples(batch: Batch, count: int, rng) -> list:
    picks = rng.choice(len(batch.results), size=count, replace=False)
    return [
        (batch.points[i], batch.X, batch.params, batch.cfg, batch.results[i]) for i in picks
    ]


def _first_loss_inputs(X: core.SampleSet, z, params):
    """Arguments of one objective evaluation at the solver's default start."""
    mean = X.data.mean(axis=0)
    return mean / np.linalg.norm(mean), z, X, params


class HtestNull:
    """``htest``, gauss vs gauss, n = m = 200, d = 2, r = s = 1, self-terms
    excluded: c08's shape, 400 small solves per replication."""

    name = "htest-null"
    reference_mix = {"calls": 400}
    solve_mix = reference_mix
    reps = 2  # replications per pass, one htest call each; wall_s is per replication
    units_per_pass = reps
    guard_flat = True

    def setup(self, seed: int, workdir: str):
        return [
            argparse.Namespace(
                source_f="gauss", source_g="gauss", n=200, m=200, reps=1, level=0.05,
                method="sphere", r=1.0, s=1.0, self_terms="exclude", both_orderings=False,
                seed=self.reps * seed + k, threads=1,
            )
            for k in range(self.reps)
        ]

    def segments(self, calls) -> list:
        return [_runner_segment("run_htest", args, 400) for args in calls]

    def check(self, calls, out: PassOutput) -> Check:
        problems: list[str] = []
        # The first replication scores X then Y against X; rebuild its
        # quality index by enumerating all pairs of self-excluded depths.
        fx, gy = out.batches[0], out.batches[1]
        X = fx.X.data

        def self_excluded(batch):
            values = []
            for z, res in zip(batch.points, batch.results):
                k = int(np.count_nonzero(np.all(X == z, axis=1)))
                n = X.shape[0]
                v = res.value
                values.append((v - 0.5 * k / n) * n / (n - k) if 0 < k < n else v)
            return np.array(values)

        q = float(np.mean(self_excluded(fx)[:, None] <= self_excluded(gy)[None, :]))
        reported = out.reports[0].metrics["fg"]["q_values"][0]
        if abs(q - reported) > 1e-12:
            problems.append(f"quality index {reported!r} != pair enumeration {q!r}")
        rng = np.random.default_rng((calls[0].seed, 99))
        samples = _batch_samples(fx, 2, rng) + _batch_samples(gy, 2, rng)
        return Check(problems, _sampled_gaps(samples, 4096, problems))

    def loss_inputs(self, calls, out: PassOutput):
        batch = out.batches[0]
        return _first_loss_inputs(batch.X, batch.points[0], batch.params)


class LargeN:
    """Bi-Gaussian, d = 3, n = 100 000, r = s = 1, 100 queries drawn from
    the sample, one ``sphere_depth`` each."""

    name = "large-n"
    reference_mix = {"stream": 3}
    solve_mix = reference_mix
    units_per_pass = 1
    guard_flat = True
    n = 100_000
    queries = 100
    segment_count = 10

    def setup(self, seed: int, workdir: str):
        X = datagen.gen_mixture(datagen.bi_gaussian_spec(3), self.n, (seed, 1))
        rng = np.random.default_rng((seed, 2))
        queries = X.data[rng.choice(self.n, size=self.queries, replace=False)]
        return argparse.Namespace(
            X=X, queries=queries, params=core.DepthParams(r=1.0, s=1.0),
            cfg=optim.OptimizerConfig(), seed=seed,
        )

    def segments(self, st) -> list:
        return [
            functools.partial(_timed_solves, chunk, st.X, st.params, st.cfg)
            for chunk in np.array_split(st.queries, self.segment_count)
        ]

    def check(self, st, out: PassOutput) -> Check:
        problems: list[str] = []
        # A 1024-direction oracle at n = 1e5 costs seconds, so only two
        # queries are compared.
        rng = np.random.default_rng((st.seed, 99))
        picks = rng.choice(len(out.results), size=2, replace=False)
        samples = [(st.queries[i], st.X, st.params, st.cfg, out.results[i]) for i in picks]
        return Check(problems, _sampled_gaps(samples, 1024, problems))

    def loss_inputs(self, st, out: PassOutput):
        return _first_loss_inputs(st.X, st.queries[0], st.params)


class AnomalyCsv:
    """Labeled CSV, n = 400, d = 5, 5% outliers overlapping the inliers,
    scored by ``anomaly --standardize --methods sphere kspatial
    mahalanobis`` with default r and s."""

    name = "anomaly-csv"
    reference_mix = {"dense": 3, "wide_calls": 100}
    solve_mix = {"wide_calls": 300}
    units_per_pass = 1
    guard_flat = False
    n, d, outliers = 400, 5, 20
    methods = ("sphere", "kspatial", "mahalanobis")

    def setup(self, seed: int, workdir: str):
        rng = np.random.default_rng((seed, 3))
        inliers = rng.standard_normal((self.n - self.outliers, self.d))
        # Outliers sit on a shell of radius 2.5-4 around the inlier mode;
        # inlier norms in d = 5 reach that shell, so the classes overlap.
        dirs = rng.standard_normal((self.outliers, self.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        outliers = dirs * rng.uniform(2.5, 4.0, size=(self.outliers, 1))
        data = np.vstack([inliers, outliers]) * 2.5 + 10.0
        labels = np.r_[np.zeros(len(inliers), int), np.ones(self.outliers, int)]
        order = rng.permutation(self.n)
        data, labels = data[order], labels[order]
        header = ",".join([f"x{j}" for j in range(self.d)] + ["label"])
        lines = [header] + [
            ",".join(repr(float(v)) for v in row) + f",{lab}" for row, lab in zip(data, labels)
        ]
        path = os.path.join(workdir, "anomaly.csv")
        io.write_text_atomic(path, "\n".join(lines) + "\n")
        args = argparse.Namespace(
            csv=path, label_column="label", delimiter=",", standardize=True,
            methods=list(self.methods), r=None, s=None, seed=seed, threads=1,
            grid_size=4096, bandwidth=1.0, regularization=0.0,
        )
        return argparse.Namespace(args=args, labels=labels, seed=seed)

    def segments(self, st) -> list:
        return [_runner_segment("run_anomaly", st.args, self.n)]

    def check(self, st, out: PassOutput) -> Check:
        problems: list[str] = []
        pos = st.labels == 1
        for method in self.methods:
            scores = np.asarray(out.reports[0].metrics[method]["scores"])
            if not np.all(np.isfinite(scores)) or scores.min() < 0 or scores.max() > 1:
                problems.append(f"{method} scores leave [0, 1]")
            diff = scores[pos][:, None] - scores[~pos][None, :]
            enumerated = float(np.mean((diff > 0) + 0.5 * (diff == 0)))
            reported = out.reports[0].metrics[method]["auroc"]
            if abs(enumerated - reported) > 1e-12:
                problems.append(f"{method} AUROC {reported!r} != pair enumeration {enumerated!r}")
        rng = np.random.default_rng((st.seed, 99))
        samples = _batch_samples(out.batches[0], 4, rng)
        return Check(
            problems, _sampled_gaps(samples, 4096, problems),
            auroc_sphere=out.reports[0].metrics["sphere"]["auroc"],
        )

    def loss_inputs(self, st, out: PassOutput):
        batch = out.batches[0]
        return _first_loss_inputs(batch.X, batch.points[0], batch.params)


class OracleSweep:
    """Bi-Gaussian, n = 200, d = 2, r = 1, 60 sample queries at each
    s in {1, 0.1, 0.01}: one solve and one 4096-direction grid oracle per
    query, then Spearman and Kendall tau against the true density."""

    name = "oracle-sweep"
    reference_mix = {"block": 1, "calls": 50}
    solve_mix = {"calls": 400}
    units_per_pass = 1
    guard_flat = False
    n, queries = 200, 60
    smoothing = (1.0, 0.1, 0.01)

    def setup(self, seed: int, workdir: str):
        spec = datagen.bi_gaussian_spec(2)
        X = datagen.gen_mixture(spec, self.n, (seed, 1))
        rng = np.random.default_rng((seed, 2))
        queries = X.data[rng.choice(self.n, size=self.queries, replace=False)]
        return argparse.Namespace(
            X=X, queries=queries, grid=core.DirectionGrid.generate(4096, 2),
            density=datagen.mixture_density(queries, spec),
            cfg=optim.OptimizerConfig(), seed=seed,
        )

    def segments(self, st) -> list:
        return [functools.partial(self._sweep, st, s) for s in self.smoothing]

    @staticmethod
    def _sweep(st, s: float, out: PassOutput) -> None:
        params = core.DepthParams(r=1.0, s=s)
        solved = _timed_solves(st.queries, st.X, params, st.cfg, out)
        for z, res in zip(st.queries, solved):
            oracle = core.grid_oracle_sphere_depth(z, st.X, params, st.grid)
            if res is not None:
                out.gaps.append(res.value - oracle.value)
        values = [math.nan if res is None else res.value for res in solved]
        out.correlations.append(
            (s, values, stats.spearman(values, st.density), stats.kendall_tau(values, st.density))
        )

    def check(self, st, out: PassOutput) -> Check:
        problems: list[str] = []
        for s, values, rho, tau in out.correlations:
            ref_rho = scipy.stats.spearmanr(values, st.density).statistic
            ref_tau = scipy.stats.kendalltau(values, st.density).statistic
            if abs(rho - ref_rho) > 1e-9 or abs(tau - ref_tau) > 1e-9:
                problems.append(f"s={s}: rank correlations ({rho!r}, {tau!r}) != scipy "
                                f"({ref_rho!r}, {ref_tau!r})")
        for z, res in zip(st.queries[:4], out.results[:4]):
            params = core.DepthParams(r=1.0, s=self.smoothing[0])
            loss = core.sphere_loss(res.direction, z, st.X, params)
            if abs(loss - res.value) > 1e-12:
                problems.append(f"value {res.value!r} is not the loss {loss!r} at its direction")
        return Check(problems, list(out.gaps), spearman_sphere=out.correlations[0][2])

    def loss_inputs(self, st, out: PassOutput):
        return _first_loss_inputs(st.X, st.queries[0], core.DepthParams(r=1.0, s=1.0))


WORKLOADS = {w.name: w for w in (HtestNull(), LargeN(), AnomalyCsv(), OracleSweep())}
