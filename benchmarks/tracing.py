"""Spans around the calls into each spheredepth module, and the per-layer
metrics computed from them.

A span is installed by replacing a function where its caller looks it up
(for example ``spheredepth.cli.batch_depth``, the name ``run_htest``
calls), so the library itself is unchanged.  Each span accumulates its
inclusive time, its self time (inclusive minus the time its child spans
cover) and its call count; optional counters record work sizes such as
rows generated or grid cells evaluated.  One ``Tracer`` covers one set-up
or one pass, so counts of separate passes can be compared exactly.
"""

from __future__ import annotations

import contextlib
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from spheredepth import cli, core, datagen, io, optim, stats


class Tracer:
    def __init__(self):
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.iterations: list[int] = []
        self._child_s: list[float] = []

    def span(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(tracer, args, result)``
        runs after the call, outside the span's time."""

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - child
                self.calls[name] += 1
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def exact_counts(self) -> dict:
        """Every integer this tracer recorded; equal for equal inputs."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update({f"count:{k}": v for k, v in self.counts.items()})
        out["iterations"] = list(self.iterations)
        return out


def _count_solve(tr, args, result):
    tr.iterations.append(result.iterations)
    tr.counts["flat_starts"] += result.iterations == 0
    tr.counts["not_converged"] += not result.converged


def _count_rows(tr, args, result):
    tr.counts["rows"] += result.n


def _count_csv(tr, args, result):
    tr.counts["csv_bytes"] += os.path.getsize(args[0])


def _count_report(tr, args, result):
    tr.counts["report_bytes"] += len(result.encode("utf-8"))


def _count_cells(tr, args, result):
    _, X, _, grid = args
    tr.counts["oracle_cells"] += X.n * grid.m


# (owner, attribute, span name, counter): each attribute is the name the
# caller resolves at call time -- the CLI runners for library calls made by
# the CLI, the library modules for calls made by the benchmark itself.
_SITES = (
    (cli, "run_htest", "cli.run_htest", None),
    (cli, "run_anomaly", "cli.run_anomaly", None),
    (cli, "batch_depth", "optim.batch_depth", None),
    (optim, "sphere_depth", "optim.sphere_depth", None),
    (optim, "riemannian_descent", "optim.solve", _count_solve),
    (cli, "kernelized_spatial_depth", "baselines.kspatial", None),
    (cli, "fit_mahalanobis", "baselines.fit_mahalanobis", None),
    (cli, "mahalanobis_depth", "baselines.mahalanobis", None),
    (stats, "quality_index", "stats.quality_index", None),
    (stats, "spearman", "stats.spearman", None),
    (stats, "kendall_tau", "stats.kendall_tau", None),
    (cli, "auroc", "stats.auroc", None),
    (cli, "gen_truncated_gaussian", "datagen.generate", _count_rows),
    (datagen, "gen_mixture", "datagen.generate", _count_rows),
    (cli, "standardize", "datagen.standardize", None),
    (datagen, "mixture_density", "datagen.mixture_density", None),
    (cli, "load_labeled_csv", "io.load_labeled_csv", _count_csv),
    (io.ExperimentReport, "to_json", "io.report_json", _count_report),
    (core, "grid_oracle_sphere_depth", "core.oracle", _count_cells),
)


@contextlib.contextmanager
def patched(owner, attr, wrap):
    """Replace ``owner.attr`` by ``wrap(owner.attr)`` for the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def tracing(tr: Tracer):
    """Install every span of ``_SITES`` on ``tr`` for the block."""

    def homogeneity_test(fn):
        # depth_fn is CLI code (it removes self terms); give it its own span
        # so the test's self time excludes the depth evaluations.
        def call(X, Y, depth_fn, *rest, **kwargs):
            return fn(X, Y, tr.span("cli.depth_fn", depth_fn), *rest, **kwargs)

        return tr.span("stats.homogeneity_test", call)

    with contextlib.ExitStack() as stack:
        for owner, attr, name, count in _SITES:
            stack.enter_context(
                patched(owner, attr, lambda fn, n=name, c=count: tr.span(n, fn, c))
            )
        stack.enter_context(patched(cli, "homogeneity_test", homogeneity_test))
        yield tr


def layer_metrics(setup: Tracer, passes: list[Tracer]) -> dict:
    """Per-layer figures for one set-up plus one pass of the unit of work.

    Times of the passes are averaged; their counts are equal (checked by
    the caller), so the first pass's counts stand for all of them.
    """
    first = passes[0]

    def seconds(name, field="total_s"):
        mean = statistics.fmean(getattr(tr, field)[name] for tr in passes)
        return getattr(setup, field)[name] + mean

    def calls(name):
        return setup.calls[name] + first.calls[name]

    def count(name):
        return setup.counts[name] + first.counts[name]

    names = set(setup.calls) | set(first.calls)
    iterations = first.iterations
    solve_s = seconds("optim.solve")
    iterations_total = sum(iterations)
    oracle_s = seconds("core.oracle")
    kspatial_s = seconds("baselines.kspatial")
    return {
        "core.oracle.s": (oracle_s, "s"),
        "core.oracle.calls": (calls("core.oracle"), "count"),
        "core.oracle.cells_per_s": (
            count("oracle_cells") / oracle_s if oracle_s > 0 else 0.0, "1/s"),
        "optim.sphere_depth.s": (seconds("optim.sphere_depth"), "s"),
        "optim.batch_depth.s": (seconds("optim.batch_depth"), "s"),
        "optim.solves": (calls("optim.solve"), "count"),
        "optim.iterations_total": (iterations_total, "count"),
        "optim.iterations_p50": (
            statistics.median(iterations) if iterations else 0.0, "count"),
        "optim.iterations_max": (max(iterations, default=0), "count"),
        "optim.flat_starts": (count("flat_starts"), "count"),
        "optim.not_converged": (count("not_converged"), "count"),
        "optim.us_per_iteration": (
            1e6 * solve_s / iterations_total if iterations_total else 0.0, "us"),
        "baselines.kspatial.s": (kspatial_s, "s"),
        "baselines.kspatial.calls": (calls("baselines.kspatial"), "count"),
        "baselines.mahalanobis.s": (
            seconds("baselines.mahalanobis") + seconds("baselines.fit_mahalanobis"), "s"),
        "baselines.mahalanobis.calls": (calls("baselines.mahalanobis"), "count"),
        "kspatial_points_per_s": (
            calls("baselines.kspatial") / kspatial_s if kspatial_s > 0 else 0.0, "1/s"),
        "stats.homogeneity_test.self_s": (
            seconds("stats.homogeneity_test", "self_s"), "s"),
        "stats.quality_index.s": (seconds("stats.quality_index"), "s"),
        "stats.spearman.s": (seconds("stats.spearman"), "s"),
        "stats.kendall_tau.s": (seconds("stats.kendall_tau"), "s"),
        "stats.auroc.s": (seconds("stats.auroc"), "s"),
        "stats.calls": (sum(calls(n) for n in names if n.startswith("stats.")), "count"),
        "datagen.generate.s": (seconds("datagen.generate"), "s"),
        "datagen.rows": (count("rows"), "count"),
        "datagen.standardize.s": (seconds("datagen.standardize"), "s"),
        "datagen.mixture_density.s": (seconds("datagen.mixture_density"), "s"),
        "io.load_labeled_csv.s": (seconds("io.load_labeled_csv"), "s"),
        "io.csv_bytes": (count("csv_bytes"), "B"),
        "io.report_json.s": (seconds("io.report_json"), "s"),
        "io.report_bytes": (count("report_bytes"), "B"),
        "cli.self_s": (
            sum(seconds(n, "self_s") for n in names if n.startswith("cli.")), "s"),
    }
