"""Command-line experiment harness.

Subcommands
-----------
depth       score query points (or the sample itself) with a chosen depth
contour     emit a 2-D depth field over a grid as plot-ready CSV
rankbench   rank-correlation study against the true bi-Gaussian density
htest       Monte-Carlo size/power of the depth-based homogeneity test
anomaly     AUROC anomaly scoring of a labeled CSV dataset
speedbench  wall-time comparison of the sphere solver vs Nelder-Mead HD

Reports are JSON (``--output``); grids and score vectors are CSV.  Every
seeded subcommand is byte-identical across reruns on the same machine
(speedbench's wall-clock metrics are the one exemption).
"""

from __future__ import annotations

import argparse
import io as _stdio
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

import numpy as np

from . import __version__
from .baselines import (
    HalfspaceConfig,
    KernelConfig,
    fit_kernelized_spatial,
    fit_mahalanobis,
    halfspace_depth,
    kernelized_spatial_depth,
    mahalanobis_depth,
)
from .core import DepthParams, DirectionGrid, SampleSet, grid_oracle_sphere_depth
from .datagen import (
    StudentSpec,
    bi_gaussian_spec,
    gen_mixture,
    gen_student_t,
    gen_truncated_gaussian,
    mixture_density,
    standardize,
)
from .io import (
    ExperimentReport,
    load_features_csv,
    load_labeled_csv,
    write_text_atomic,
)
from .optim import OptimizerConfig, batch_depth, default_params, riemannian_descent
from .stats import auroc, homogeneity_test, kendall_tau, quality_index, spearman

DEPTH_METHODS = ("sphere", "halfspace", "mahalanobis", "kspatial", "oracle-grid")
HTEST_SOURCES = ("gauss", "t2", "t3corr", "bigauss")


def _provenance(seed: int) -> dict:
    return {"library": "spheredepth", "version": __version__, "seed": seed}


def _resolve_params(X: SampleSet, r: float | None, s: float | None) -> tuple[float, float]:
    """Fill missing r/s from the pooled-std defaults (r = std, s = std**2 * d)."""
    if r is None or s is None:
        defaults = default_params(X)
        r = defaults.r if r is None else r
        s = defaults.s if s is None else s
    return float(r), float(s)


def _load_features(args) -> tuple[SampleSet, str]:
    if args.csv is not None:
        if args.label_column is not None:
            ds = load_labeled_csv(args.csv, _label_col(args.label_column), args.delimiter)
            return ds.samples, ds.name
        return load_features_csv(args.csv, args.delimiter), str(args.csv)
    if args.generator == "bi-gaussian":
        X = gen_mixture(bi_gaussian_spec(args.d), args.n, args.seed)
    else:
        X = SampleSet(np.random.default_rng(args.seed).standard_normal((args.n, args.d)))
    return X, f"{args.generator}(n={args.n}, d={args.d}, seed={args.seed})"


def _positive_int(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _delimiter(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be exactly one character, got {text!r}")
    return text


def _label_col(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _depth_scores(
    method: str,
    points: np.ndarray,
    X: SampleSet,
    r: float,
    s: float,
    seed: int,
    threads: int,
    grid_size: int,
    bandwidth: float,
    regularization: float,
    oracle_option: str | None = None,
) -> dict:
    """Evaluate one depth method on every row of ``points``.

    ``oracle_option`` names the calling subcommand's method flag when it
    offers ``oracle-grid``; the s = 0 error then points to it.
    """
    out: dict = {}
    if method == "sphere":
        if s == 0:
            hint = (
                f"; use {oracle_option} oracle-grid for the indicator depth (s = 0)"
                if oracle_option else ""
            )
            raise ValueError(f"method 'sphere' requires s > 0{hint}")
        cfg = OptimizerConfig()
        results = batch_depth(points, X, DepthParams(r=r, s=s), cfg, threads=threads)
        out["depths"] = [res.value for res in results]
        out["iterations"] = [res.iterations for res in results]
        out["converged"] = [res.converged for res in results]
    elif method == "oracle-grid":
        grid = DirectionGrid.generate(grid_size, X.d, seed=seed)
        params = DepthParams(r=r, s=s)
        out["depths"] = [
            grid_oracle_sphere_depth(z, X, params, grid).value for z in points
        ]
    elif method == "halfspace":
        cfg = HalfspaceConfig(seed=seed)
        out["depths"] = [halfspace_depth(z, X, cfg).value for z in points]
    elif method == "mahalanobis":
        model = fit_mahalanobis(X, regularization)
        out["depths"] = mahalanobis_depth(points, model).tolist()
    elif method == "kspatial":
        model = fit_kernelized_spatial(X, KernelConfig(bandwidth_h=bandwidth))
        out["depths"] = kernelized_spatial_depth(points, model).tolist()
    else:
        raise ValueError(f"unknown method {method!r}; choose from {DEPTH_METHODS}")
    return out


def run_depth(args) -> ExperimentReport:
    X, source = _load_features(args)
    if args.self_score:
        points = X.data
    elif args.query:
        points = np.asarray([[float(v) for v in q.split(",")] for q in args.query])
    else:
        raise ValueError("provide --query at least once or --self-score")
    r, s = _resolve_params(X, args.r, args.s)

    out = _depth_scores(
        args.method, points, X, r, s, args.seed, args.threads,
        args.grid_size, args.bandwidth, args.regularization, oracle_option="--method",
    )
    metrics = dict(out)
    if args.oracle_check is not None:
        oracle = _depth_scores(
            "oracle-grid", points, X, r, s, args.seed, args.threads,
            args.oracle_check, args.bandwidth, args.regularization,
        )["depths"]
        metrics["oracle_depths"] = oracle
        metrics["max_oracle_gap"] = max(
            abs(a - b) for a, b in zip(metrics["depths"], oracle)
        )
    return ExperimentReport(
        command="depth",
        parameters={
            "source": source,
            "method": args.method,
            "r": r,
            "s": s,
            "n": X.n,
            "d": X.d,
            "n_queries": int(points.shape[0]),
            "grid_size": args.grid_size,
            "oracle_check": args.oracle_check,
            "seed": args.seed,
        },
        metrics=metrics,
        provenance=_provenance(args.seed),
    )


def run_contour(args) -> tuple[ExperimentReport, str]:
    X, source = _load_features(args)
    if X.d != 2:
        raise ValueError(f"contour requires 2-D data, got d={X.d}")
    xmin, xmax, ymin, ymax = args.bounds
    nx, ny = args.resolution
    if nx < 1 or ny < 1:
        raise ValueError("resolution must be >= 1 in both axes")
    xs = np.linspace(xmin, xmax, nx)
    ys = np.linspace(ymin, ymax, ny)
    pts = np.array([[x, y] for y in ys for x in xs])
    r, s = _resolve_params(X, args.r, args.s)
    depths = np.asarray(
        _depth_scores(
            args.method, pts, X, r, s, args.seed, args.threads,
            args.grid_size, args.bandwidth, args.regularization, oracle_option="--method",
        )["depths"]
    ).reshape(ny, nx)

    buf = _stdio.StringIO()
    buf.write("# spheredepth contour\n")
    buf.write(f"# method={args.method} r={r!r} s={s!r} source={source}\n")
    buf.write(f"# xmin={xmin!r} xmax={xmax!r} nx={nx}\n")
    buf.write(f"# ymin={ymin!r} ymax={ymax!r} ny={ny}\n")
    for row in depths:
        buf.write(",".join(repr(float(v)) for v in row) + "\n")

    report = ExperimentReport(
        command="contour",
        parameters={
            "source": source,
            "method": args.method,
            "r": r,
            "s": s,
            "bounds": list(args.bounds),
            "resolution": list(args.resolution),
            "seed": args.seed,
        },
        metrics={
            "min_depth": float(depths.min()),
            "max_depth": float(depths.max()),
        },
        provenance=_provenance(args.seed),
    )
    return report, buf.getvalue()


def run_rankbench(args) -> ExperimentReport:
    methods = args.methods
    spec_cache = {d: bi_gaussian_spec(d) for d in args.dims}
    per_method: dict = {m: {} for m in methods}
    for d in args.dims:
        runs: dict = {m: {"spearman": [], "kendall": []} for m in methods}
        for run in range(args.runs):
            X = gen_mixture(spec_cache[d], args.n, (args.seed, d, run))
            density = mixture_density(X.data, spec_cache[d])
            for method in methods:
                if method == "density":
                    scores = density
                else:
                    scores = np.array(_depth_scores(
                        method, X.data, X, args.r, args.s, args.seed, args.threads,
                        grid_size=None, bandwidth=args.bandwidth, regularization=None,
                    )["depths"])
                runs[method]["spearman"].append(spearman(scores, density))
                runs[method]["kendall"].append(kendall_tau(scores, density))
        for method in methods:
            sp = np.array(runs[method]["spearman"])
            kt = np.array(runs[method]["kendall"])
            per_method[method][str(d)] = {
                "spearman_mean": float(sp.mean()),
                "spearman_std": float(sp.std(ddof=1)) if sp.size > 1 else 0.0,
                "kendall_mean": float(kt.mean()),
                "kendall_std": float(kt.std(ddof=1)) if kt.size > 1 else 0.0,
                "spearman_runs": [float(v) for v in sp],
                "kendall_runs": [float(v) for v in kt],
            }
    return ExperimentReport(
        command="rankbench",
        parameters={
            "dims": list(args.dims),
            "n": args.n,
            "runs": args.runs,
            "methods": list(methods),
            "r": args.r,
            "s": args.s,
            "lspd_h": args.bandwidth,
            "seed": args.seed,
        },
        metrics={"correlations": per_method},
        provenance=_provenance(args.seed),
    )


def _htest_sample(source: str, n: int, seed) -> SampleSet:
    if source == "gauss":
        return gen_truncated_gaussian(2, n, seed, truncation_norm=10.0)
    if source == "t2":
        spec = StudentSpec(df=2, mean=np.zeros(2), scale=np.eye(2), truncation_norm=10000.0)
        return gen_student_t(spec, n, seed)
    if source == "t3corr":
        scale = np.eye(2) + 0.6 * np.array([[0.0, 1.0], [1.0, 0.0]])
        spec = StudentSpec(df=3, mean=np.zeros(2), scale=scale, truncation_norm=10000.0)
        return gen_student_t(spec, n, seed)
    if source == "bigauss":
        return gen_mixture(bi_gaussian_spec(2), n, seed)
    raise ValueError(f"unknown source {source!r}; choose from {HTEST_SOURCES}")


def _exclude_self_terms(values, points, reference: SampleSet) -> list[float]:
    """Remove coincident-sample terms from in-sample sphere depths.

    A sample equal to the query has the ball argument
    ``t = r**2 (1 - ||u||**2)``, so its term is sigmoid(0) = 1/2 exactly at
    unit directions and 1/2 up to ``r**2 |1 - ||u||**2| / (4 s)`` at the
    directions the solver returns, whose squared norm can miss 1 in the
    last bit.  Up to that, the minimizer is unchanged and the self-free
    depth is the affine transform ``(value - 0.5 k / n) * n / (n - k)``
    with ``k`` coincident rows.  The rows are counted for the whole batch
    at once, through a table of the reference rows; its keys compare as the
    floats do, so -0.0 matches 0.0.  A point that equals every reference
    row (``k = n``) has no term left, which is a ``ValueError`` naming it.
    """
    rows = Counter(map(tuple, reference.data.tolist()))
    n = reference.n
    out = []
    for i, (value, z) in enumerate(zip(values, np.asarray(points).tolist())):
        k = rows[tuple(z)]
        if k == n:
            raise ValueError(
                f"point {i} {z} equals every reference row (n = {n}), so excluding "
                "its self terms leaves no term; use --self-terms include or larger samples"
            )
        out.append((value - 0.5 * k / n) * n / (n - k) if k else value)
    return out


def _htest_depth_fn(
    method: str, r: float, s: float, seed: int, threads: int, exclude_self: bool = True
):
    if method not in ("sphere", "mahalanobis"):
        raise ValueError(f"htest method must be 'sphere' or 'mahalanobis', got {method!r}")

    def fn(points, reference):
        values = _depth_scores(
            method, points, reference, r, s, seed, threads,
            grid_size=None, bandwidth=None, regularization=0.0,
        )["depths"]
        if method == "sphere" and exclude_self:
            values = _exclude_self_terms(values, points, reference)
        return np.array(values)

    return fn


def run_htest(args) -> ExperimentReport:
    if args.reps < 1:
        raise ValueError("repetitions must be >= 1")
    exclude_self = args.self_terms == "exclude"
    depth_fn = _htest_depth_fn(
        args.method, args.r, args.s, args.seed, args.threads, exclude_self=exclude_self
    )
    orderings = {"fg": [], "gf": []} if args.both_orderings else {"fg": []}
    records = {key: {"z": [], "q": [], "reject": [], "ties": []} for key in orderings}
    for rep in range(args.reps):
        X = _htest_sample(args.source_f, args.n, (args.seed, rep, 0))
        Y = _htest_sample(args.source_g, args.m, (args.seed, rep, 1))
        for key in records:
            first, second = (X, Y) if key == "fg" else (Y, X)
            result, reject = homogeneity_test(first, second, depth_fn, level=args.level)
            records[key]["z"].append(result.z_stat)
            records[key]["q"].append(result.q)
            records[key]["reject"].append(bool(reject))
            records[key]["ties"].append(result.tie_pairs)
    metrics: dict = {}
    for key, rec in records.items():
        rejects = np.array(rec["reject"], dtype=float)
        rate = float(rejects.mean())
        metrics[key] = {
            "rejection_rate": rate,
            "mc_stderr": float(np.sqrt(rate * (1 - rate) / args.reps)),
            "z_stats": [float(v) for v in rec["z"]],
            "q_values": [float(v) for v in rec["q"]],
            "tie_pairs": [int(v) for v in rec["ties"]],
        }
    return ExperimentReport(
        command="htest",
        parameters={
            "source_f": args.source_f,
            "source_g": args.source_g,
            "n": args.n,
            "m": args.m,
            "repetitions": args.reps,
            "level": args.level,
            "method": args.method,
            "r": args.r,
            "s": args.s,
            "self_terms": args.self_terms,
            "both_orderings": bool(args.both_orderings),
            "seed": args.seed,
        },
        metrics=metrics,
        provenance=_provenance(args.seed),
    )


def run_anomaly(args) -> ExperimentReport:
    dataset = load_labeled_csv(args.csv, _label_col(args.label_column), args.delimiter)
    if dataset.labels.min() == dataset.labels.max():
        raise ValueError("dataset has a single label class; AUROC is undefined")
    X = dataset.samples
    standardized = False
    if args.standardize:
        X, _ = standardize(X)
        standardized = True
    r, s = _resolve_params(X, args.r, args.s)

    metrics: dict = {"n": X.n, "d": X.d, "anomaly_rate": dataset.anomaly_rate}
    for method in args.methods:
        depths = np.asarray(
            _depth_scores(
                method, X.data, X, r, s, args.seed, args.threads,
                args.grid_size, args.bandwidth, args.regularization, oracle_option="--methods",
            )["depths"]
        )
        scores = 1.0 - depths
        roc = auroc(scores, dataset.labels)
        metrics[method] = {
            "auroc": roc.auroc,
            "scores": [float(v) for v in scores],
        }
    return ExperimentReport(
        command="anomaly",
        parameters={
            "dataset": dataset.name,
            "csv": str(args.csv),
            "label_column": args.label_column,
            "methods": list(args.methods),
            "r": r,
            "s": s,
            "standardize": standardized,
            "seed": args.seed,
        },
        metrics=metrics,
        provenance=_provenance(args.seed),
    )


def _time_call(fn) -> tuple:
    """``(result, seconds per call, calls per sample)`` for ``fn()``.

    Calls are batched inside each sample so sub-millisecond solves are timed
    against ~30 ms of work; the time is the median of 3 per-call samples.
    """
    start = time.perf_counter()
    result = fn()
    estimate = time.perf_counter() - start
    reps = max(1, min(200, int(0.03 / max(estimate, 1e-9))))
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return result, median(samples), reps


def run_speedbench(args) -> ExperimentReport:
    n_list = list(args.n_list)
    if any(b < a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n list must be non-decreasing")
    d = args.d
    params = DepthParams(r=1.0, s=1.0)
    sphere_cfg = OptimizerConfig()
    hd_cfg = HalfspaceConfig(restarts=args.restarts, seed=args.seed)

    datasets = {
        n: SampleSet(np.random.default_rng((args.seed, n)).standard_normal((n, d)))
        for n in n_list
    }
    solvers = {
        "sphere": lambda z, X: riemannian_descent(z, X, params, sphere_cfg),
        "halfspace": lambda z, X: halfspace_depth(z, X, hd_cfg),
    }
    # The far query z = (10, ..., 10) stops the sphere solver at iteration 0;
    # the sample mean is an in-distribution query that makes it descend.
    far = np.full(d, 10.0)
    queries = {
        "": {n: far for n in n_list},
        "centred_": {n: X.data.mean(axis=0) for n, X in datasets.items()},
    }

    metrics: dict = {"warmup_n": n_list[0]}
    for prefix, points in queries.items():
        # Iterations are solver steps for sphere, Nelder-Mead evaluations for halfspace.
        times, batches, iterations = {}, {}, {}
        for method in args.methods:
            solve = solvers[method]
            solve(points[n_list[0]], datasets[n_list[0]])  # warm-up at the smallest n
            times[method], batches[method], iterations[method] = {}, {}, {}
            for n in n_list:
                result, times[method][str(n)], batches[method][str(n)] = _time_call(
                    lambda: solve(points[n], datasets[n])
                )
                iterations[method][str(n)] = result.iterations
        metrics[prefix + "seconds"] = times
        metrics[prefix + "calls_per_sample"] = batches
        metrics[prefix + "iterations"] = iterations
        if "sphere" in times and "halfspace" in times:
            metrics[prefix + "halfspace_over_sphere"] = {
                str(n): times["halfspace"][str(n)] / times["sphere"][str(n)] for n in n_list
            }
        metrics[prefix + "scaling"] = {
            method: {
                f"{b}/{a}": times[method][str(b)] / times[method][str(a)]
                for a, b in zip(n_list, n_list[1:])
            }
            for method in times
        }
    return ExperimentReport(
        command="speedbench",
        parameters={
            "n_list": n_list,
            "d": d,
            "methods": list(args.methods),
            "restarts": args.restarts,
            "seed": args.seed,
        },
        metrics=metrics,
        provenance=_provenance(args.seed),
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="global RNG seed")
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads for sphere scoring (other methods ignore it)")
    common.add_argument("--output", type=str, default=None, help="write the report/artifact here")

    # Only depth and anomaly reports have a per-point score table, so any
    # other command refuses --format before it runs.
    report_format = argparse.ArgumentParser(add_help=False)
    report_format.add_argument("--format", choices=("json", "csv"), default="json",
                               help="report format (csv = per-point score table)")

    data_src = argparse.ArgumentParser(add_help=False)
    data_src.add_argument("--csv", type=str, default=None, help="numeric CSV data source")
    data_src.add_argument("--label-column", type=str, default=None,
                          help="label column (name or index) to strip/score")
    data_src.add_argument("--delimiter", type=_delimiter, default=",")
    data_src.add_argument("--generator", choices=("gaussian", "bi-gaussian"),
                          default="bi-gaussian", help="synthetic source when no CSV is given")
    data_src.add_argument("--n", type=int, default=200)
    data_src.add_argument("--d", type=int, default=2)

    depth_opts = argparse.ArgumentParser(add_help=False)
    depth_opts.add_argument("--method", choices=DEPTH_METHODS, default="sphere")
    depth_opts.add_argument("--r", type=float, default=None, help="ball radius (default: pooled std)")
    depth_opts.add_argument("--s", type=float, default=None,
                            help="smoothing scale (default: pooled std squared * d)")
    depth_opts.add_argument("--grid-size", type=int, default=4096)
    depth_opts.add_argument("--bandwidth", type=float, default=1.0, help="kspatial kernel bandwidth")
    depth_opts.add_argument("--regularization", type=float, default=0.0,
                            help="mahalanobis covariance ridge")

    parser = argparse.ArgumentParser(
        prog="spheredepth",
        description="Sphere-depth computation and experiment harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("depth", parents=[common, report_format, data_src, depth_opts],
                       help="score query points or the sample itself")
    p.add_argument("--query", action="append", default=None,
                   help="comma-separated point, repeatable")
    p.add_argument("--self-score", action="store_true")
    p.add_argument("--oracle-check", type=int, default=None,
                   help="also run a grid oracle of this size and report the gap")
    p.set_defaults(runner=run_depth)

    p = sub.add_parser("contour", parents=[common, data_src, depth_opts],
                       help="2-D depth field as CSV")
    p.add_argument("--bounds", type=float, nargs=4, required=True,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    p.add_argument("--resolution", type=int, nargs=2, default=(50, 50), metavar=("NX", "NY"))
    p.set_defaults(runner=run_contour)

    p = sub.add_parser("rankbench", parents=[common],
                       help="rank correlation vs the true bi-Gaussian density")
    p.add_argument("--dims", type=int, nargs="+", default=(2, 4, 6, 8))
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--runs", type=_positive_int, default=50)
    p.add_argument("--methods", nargs="+", default=("sphere", "kspatial"),
                   choices=("sphere", "kspatial", "density"))
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--bandwidth", type=float, default=1.0)
    p.set_defaults(runner=run_rankbench)

    p = sub.add_parser("htest", parents=[common],
                       help="Monte-Carlo homogeneity-test size/power")
    p.add_argument("--source-f", choices=HTEST_SOURCES, default="gauss")
    p.add_argument("--source-g", choices=HTEST_SOURCES, default="gauss")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--m", type=int, default=200)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--method", choices=("sphere", "mahalanobis"), default="sphere")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--self-terms", choices=("exclude", "include"), default="exclude",
                   help="drop each reference sample's own loss term from its "
                        "in-sample depth (removes a rigid 0.5/n shift)")
    p.add_argument("--both-orderings", action="store_true")
    p.set_defaults(runner=run_htest)

    p = sub.add_parser("anomaly", parents=[common, report_format, depth_opts],
                       help="AUROC anomaly scoring on a labeled CSV")
    p.add_argument("--csv", type=str, required=True)
    p.add_argument("--label-column", type=str, required=True)
    p.add_argument("--delimiter", type=_delimiter, default=",")
    p.add_argument("--methods", nargs="+", default=("sphere", "mahalanobis"),
                   choices=("sphere", "halfspace", "mahalanobis", "kspatial", "oracle-grid"))
    p.add_argument("--standardize", action="store_true",
                   help="center/scale features before scoring")
    p.set_defaults(runner=run_anomaly)

    p = sub.add_parser("speedbench", parents=[common],
                       help="wall-time scaling of sphere vs halfspace depth")
    p.add_argument("--n-list", type=int, nargs="+", default=(1000, 10000, 100000))
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--methods", nargs="+", default=("sphere", "halfspace"),
                   choices=("sphere", "halfspace"))
    p.add_argument("--restarts", type=int, default=10)
    p.set_defaults(runner=run_speedbench)
    return parser


def _scores_csv(report: ExperimentReport) -> str:
    """Per-point score table for ``--format csv`` on depth/anomaly reports."""
    lines = []
    if report.command == "depth":
        lines.append("index,depth")
        for i, v in enumerate(report.metrics["depths"]):
            lines.append(f"{i},{float(v)!r}")
    else:  # anomaly
        methods = [m for m in report.parameters["methods"]]
        lines.append("index," + ",".join(f"score_{m}" for m in methods))
        count = report.metrics["n"]
        for i in range(count):
            row = [str(i)] + [repr(float(report.metrics[m]["scores"][i])) for m in methods]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _check_output_directory(path: str) -> None:
    """Reject ``--output`` before any work when its directory is missing or
    is not a directory; nothing is created."""
    parent = Path(path).parent
    if not parent.exists():
        raise ValueError(f"--output: directory {str(parent)!r} does not exist")
    if not parent.is_dir():
        raise ValueError(f"--output: {str(parent)!r} is not a directory")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output is not None:
            _check_output_directory(args.output)
        result = args.runner(args)
        if isinstance(result, tuple):  # contour: (report, csv text)
            text = result[1]
        elif getattr(args, "format", "json") == "csv":  # depth and anomaly only
            text = _scores_csv(result)
        else:
            text = result.to_json()
        if args.output is None:
            sys.stdout.write(text)
        else:
            write_text_atomic(args.output, text)
            print(f"wrote {args.output}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
