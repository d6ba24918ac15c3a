"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every test here carries the ``acceptance`` marker,
so ``pytest -m "not acceptance"`` runs the rest of the suite alone.  The
homogeneity-test criteria (8 and 9) are Monte-Carlo studies over hundreds
of replications and dominate the runtime (about one minute in total on
a 2-core machine).

Real-dataset AUROC checks (criterion 11) activate when ODDS CSV exports
named ``wine.csv`` / ``breastw.csv`` (numeric features with the 0/1 label
in the last column) are placed in ``tests/data`` or in the directory named
by the ``ODDS_DATA_DIR`` environment variable; otherwise the documented
synthetic substitute is used.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

import spheredepth as sd
from spheredepth.cli import _build_parser, run_anomaly, run_htest, run_rankbench, run_speedbench

pytestmark = pytest.mark.acceptance

PARSER = _build_parser()


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion:2d}: {detail}")


def _run(argv):
    return PARSER.parse_args(argv)


# ----------------------------------------------------------------------
# 1. analytic gradient vs central finite differences
# ----------------------------------------------------------------------


def test_c01_gradient_correctness():
    start = time.perf_counter()
    h = 1e-6
    worst = 0.0
    combos = list(itertools.product([2, 5, 10], [10, 100]))
    for idx in range(100):
        d, n = combos[idx % len(combos)]
        rng = np.random.default_rng((2024, idx))
        X = sd.SampleSet(rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0))
        z = rng.standard_normal(d)
        u = sd.unit_direction(rng.standard_normal(d))
        params = sd.DepthParams(r=rng.uniform(0.5, 2.0), s=rng.uniform(0.3, 2.0))
        grad = sd.sphere_loss_gradient(u, z, X, params)
        fd = np.empty(d)
        for i in range(d):
            step = np.zeros(d)
            step[i] = h
            fd[i] = (
                sd.sphere_loss(u + step, z, X, params)
                - sd.sphere_loss(u - step, z, X, params)
            ) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 10.0
    _report(1, ok, f"gradient vs finite differences: max rel err {worst:.2e} "
                   f"(tol 1e-5), {elapsed:.1f}s (< 10s)")
    assert worst <= 1e-5
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# 2. solver agreement with the 4096-direction grid oracle
# ----------------------------------------------------------------------


def test_c02_oracle_agreement():
    start = time.perf_counter()
    spec = sd.bi_gaussian_spec(2)
    grid = sd.DirectionGrid.generate(4096, 2)
    params = sd.DepthParams(r=1.0, s=1.0)
    worst = 0.0
    for k in range(50):
        X = sd.gen_mixture(spec, 200, (1234, k))
        z = np.random.default_rng((99, k)).uniform(-6, 6, 2)
        solver = sd.riemannian_descent(z, X, params).value
        oracle = sd.grid_oracle_sphere_depth(z, X, params, grid).value
        worst = max(worst, abs(solver - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-3 and elapsed < 60.0
    _report(2, ok, f"|solver - 4096-grid oracle| max {worst:.2e} (tol 5e-3), "
                   f"{elapsed:.1f}s (< 60s)")
    assert worst <= 5e-3
    assert elapsed < 60.0


# ----------------------------------------------------------------------
# 3. ball-mass depth never exceeds halfspace depth on a shared grid
# ----------------------------------------------------------------------


def test_c03_sphere_below_halfspace():
    violations = 0
    checks = 0
    for k in range(20):
        rng = np.random.default_rng((3000, k))
        if k % 2 == 0:
            X = sd.SampleSet(rng.standard_normal((100, 2)) * rng.uniform(0.5, 2.0))
        else:
            X = sd.gen_mixture(sd.bi_gaussian_spec(2), 100, (3000, k))
        grid = sd.DirectionGrid.generate(1024, 2, seed=k)
        params = sd.DepthParams(r=rng.uniform(0.3, 2.0), s=0.0)
        for _ in range(20):
            z = rng.uniform(-5, 5, 2)
            sphere = sd.grid_oracle_sphere_depth(z, X, params, grid).value
            half = sd.grid_oracle_halfspace_depth(z, X, grid).value
            checks += 1
            violations += sphere > half
    ok = violations == 0
    _report(3, ok, f"indicator sphere depth <= halfspace depth on shared grid: "
                   f"{violations} violations in {checks} points (exact)")
    assert violations == 0


# ----------------------------------------------------------------------
# 4. scaling law: lambda-rescaled data with rescaled (r, s)
# ----------------------------------------------------------------------


def test_c04_scaling_law():
    grid = sd.DirectionGrid.generate(512, 2)
    worst_smooth = 0.0
    exact_indicator = True
    for lam in (0.5, 2.0, 10.0):
        for k in range(10):
            rng = np.random.default_rng((4000, k))
            X = sd.gen_mixture(sd.bi_gaussian_spec(2), 100, (4000, k))
            z = rng.uniform(-5, 5, 2)
            base = sd.grid_oracle_sphere_depth(z, X, sd.DepthParams(r=1.2, s=0.9), grid).value
            scaled = sd.grid_oracle_sphere_depth(
                lam * z, sd.SampleSet(lam * X.data),
                sd.DepthParams(r=lam * 1.2, s=lam**2 * 0.9), grid,
            ).value
            worst_smooth = max(worst_smooth, abs(base - scaled))
            ind = sd.grid_oracle_sphere_depth(z, X, sd.DepthParams(r=1.2, s=0.0), grid).value
            ind_scaled = sd.grid_oracle_sphere_depth(
                lam * z, sd.SampleSet(lam * X.data), sd.DepthParams(r=lam * 1.2, s=0.0), grid
            ).value
            exact_indicator &= ind == ind_scaled
    ok = worst_smooth <= 1e-10 and exact_indicator
    _report(4, ok, f"scaling law: smooth max diff {worst_smooth:.2e} (tol 1e-10), "
                   f"indicator exact: {exact_indicator}")
    assert worst_smooth <= 1e-10
    assert exact_indicator


# ----------------------------------------------------------------------
# 5. isometry invariance: oracle with rotated grid, solver end to end
# ----------------------------------------------------------------------


def test_c05_isometry_invariance():
    params = sd.DepthParams(r=1.0, s=1.0)
    grid = sd.DirectionGrid.generate(512, 2)
    worst_oracle = 0.0
    worst_solver = 0.0
    cfg = sd.OptimizerConfig(init="mean-minus-z")
    for k in range(10):
        rng = np.random.default_rng((5000, k))
        X = sd.gen_mixture(sd.bi_gaussian_spec(2), 200, (5000, k))
        z = rng.uniform(-5, 5, 2)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        b = rng.uniform(-10, 10, 2)
        mapped = sd.SampleSet(X.data @ Q.T + b)
        zq = Q @ z + b

        v1 = sd.grid_oracle_sphere_depth(z, X, params, grid).value
        v2 = sd.grid_oracle_sphere_depth(zq, mapped, params, sd.DirectionGrid(grid.directions @ Q.T)).value
        worst_oracle = max(worst_oracle, abs(v1 - v2))

        s1 = sd.riemannian_descent(z, X, params, cfg).value
        s2 = sd.riemannian_descent(zq, mapped, params, cfg).value
        worst_solver = max(worst_solver, abs(s1 - s2))
    ok = worst_oracle <= 1e-12 and worst_solver <= 1e-3
    _report(5, ok, f"isometry invariance: oracle max diff {worst_oracle:.2e} "
                   f"(tol 1e-12), solver max diff {worst_solver:.2e} (tol 1e-3)")
    assert worst_oracle <= 1e-12
    assert worst_solver <= 1e-3


# ----------------------------------------------------------------------
# 6. consistency: sampling spread shrinks with n
# ----------------------------------------------------------------------


def test_c06_consistency_shrinkage():
    start = time.perf_counter()
    params = sd.DepthParams(r=1.0, s=1.0)
    z = np.array([0.5, 0.0, 0.0])
    stds = {}
    for n in (200, 2000):
        values = [
            sd.riemannian_descent(
                z, sd.gen_truncated_gaussian(3, n, (6400, n, rep)), params
            ).value
            for rep in range(20)
        ]
        stds[n] = float(np.std(values, ddof=1))
    ratio = stds[200] / stds[2000]
    elapsed = time.perf_counter() - start
    ok = ratio >= 2.0 and elapsed < 120.0
    _report(6, ok, f"resampling std shrinks n=200 -> n=2000: "
                   f"{stds[200]:.2e} -> {stds[2000]:.2e}, ratio {ratio:.2f} (>= 2), "
                   f"{elapsed:.1f}s (< 2min)")
    assert ratio >= 2.0
    assert elapsed < 120.0


# ----------------------------------------------------------------------
# 7. rank-correlation study against the true bi-Gaussian density
# ----------------------------------------------------------------------


def test_c07_rank_correlation_study():
    report = run_rankbench(_run([
        "rankbench", "--dims", "2", "--n", "200", "--runs", "20",
        "--methods", "sphere", "kspatial", "--r", "1", "--s", "1",
        "--bandwidth", "1", "--seed", "42",
    ]))
    corr = report.metrics["correlations"]
    sphere_mean = corr["sphere"]["2"]["spearman_mean"]
    kspatial_mean = corr["kspatial"]["2"]["spearman_mean"]
    ok = sphere_mean >= 0.8 and sphere_mean >= kspatial_mean - 0.05
    _report(7, ok, f"mean Spearman vs true density: sphere {sphere_mean:.3f} (>= 0.8), "
                   f"kernel-spatial {kspatial_mean:.3f} (sphere >= kspatial - 0.05)")
    assert sphere_mean >= 0.8
    assert sphere_mean >= kspatial_mean - 0.05

    # Cross-check the solver depths of one run against the grid oracle.
    X = sd.gen_mixture(sd.bi_gaussian_spec(2), 200, (42, 2, 0))
    params = sd.DepthParams(r=1.0, s=1.0)
    grid = sd.DirectionGrid.generate(1024, 2)
    for z in X.data[:20]:
        solver = sd.riemannian_descent(z, X, params).value
        oracle = sd.grid_oracle_sphere_depth(z, X, params, grid).value
        assert abs(solver - oracle) <= 5e-3


# ----------------------------------------------------------------------
# 8 + 9. homogeneity test: size under the null, power under t alternatives
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def null_rejection_rate():
    start = time.perf_counter()
    report = run_htest(_run([
        "htest", "--source-f", "gauss", "--source-g", "gauss",
        "--n", "200", "--m", "200", "--reps", "500", "--level", "0.05",
        "--method", "sphere", "--seed", "0",
    ]))
    rate = report.metrics["fg"]["rejection_rate"]
    return rate, time.perf_counter() - start


def test_c08_homogeneity_calibration(null_rejection_rate):
    rate, elapsed = null_rejection_rate
    ok = 0.02 <= rate <= 0.09 and elapsed < 600.0
    _report(8, ok, f"null rejection rate at level 0.05: {rate:.3f} "
                   f"(in [0.02, 0.09]), {elapsed:.0f}s (< 10min)")
    assert 0.02 <= rate <= 0.09
    assert elapsed < 600.0


def test_c09_homogeneity_power(null_rejection_rate):
    null_rate, _ = null_rejection_rate
    powers = {}
    for n in (100, 300, 500):
        report = run_htest(_run([
            "htest", "--source-f", "t2", "--source-g", "t3corr",
            "--n", str(n), "--m", str(n), "--reps", "200", "--level", "0.05",
            "--method", "sphere", "--seed", "0",
        ]))
        powers[n] = report.metrics["fg"]["rejection_rate"]
    monotone = powers[100] <= powers[300] <= powers[500]
    strong = powers[500] >= null_rate + 0.2
    ok = monotone and strong
    _report(9, ok, f"power t(2) vs t(3, correlated): "
                   f"{powers[100]:.2f} <= {powers[300]:.2f} <= {powers[500]:.2f} "
                   f"(monotone), power(500) >= null {null_rate:.3f} + 0.2: {strong}")
    assert monotone
    assert strong


# ----------------------------------------------------------------------
# 10. speed: manifold descent vs Nelder-Mead halfspace depth
# ----------------------------------------------------------------------


def test_c10_speed():
    report = run_speedbench(_run([
        "speedbench", "--n-list", "1000", "10000", "100000",
        "--methods", "sphere", "halfspace", "--restarts", "10", "--seed", "0",
    ]))
    speedup = report.metrics["halfspace_over_sphere"]["10000"]
    growth = report.metrics["scaling"]["sphere"]["100000/10000"]
    ok = speedup >= 10.0 and growth <= 20.0
    _report(10, ok, f"halfspace/sphere wall-time ratio at n=1e4: {speedup:.0f}x (>= 10x), "
                    f"sphere t(1e5)/t(1e4): {growth:.1f} (<= 20)")
    assert speedup >= 10.0
    assert growth <= 20.0


# ----------------------------------------------------------------------
# 11. anomaly-detection AUROC (real ODDS exports if present, else synthetic)
# ----------------------------------------------------------------------


def _odds_dir() -> Path | None:
    env = os.environ.get("ODDS_DATA_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).parent / "data")
    for cand in candidates:
        if cand.is_dir():
            return cand
    return None


def _auroc_by_pairs(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return total / (len(pos) * len(neg))


def test_c11_anomaly_auroc(tmp_path):
    odds = _odds_dir()
    datasets = []
    if odds is not None:
        for name in ("wine", "breastw"):
            path = odds / f"{name}.csv"
            if path.is_file():
                datasets.append((name, path, 0.90))
    if not datasets:
        # Synthetic substitute: Gaussian inliers plus far uniform outliers,
        # 5% contamination, d=5, n=1000; separable by construction.
        rng = np.random.default_rng(11_000)
        inliers = rng.standard_normal((950, 5))
        directions = rng.standard_normal((50, 5))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        outliers = directions * rng.uniform(10, 15, size=(50, 1))
        rows = []
        for row in inliers:
            rows.append(",".join(repr(float(v)) for v in row) + ",0")
        for row in outliers:
            rows.append(",".join(repr(float(v)) for v in row) + ",1")
        path = tmp_path / "synthetic.csv"
        path.write_text("\n".join(rows) + "\n")
        datasets.append(("synthetic", path, 0.95))

    all_ok = True
    details = []
    for name, path, floor in datasets:
        report = run_anomaly(_run([
            "anomaly", "--csv", str(path), "--label-column", "-1",
            "--methods", "sphere", "--seed", "0",
        ]))
        value = report.metrics["sphere"]["auroc"]
        labels = sd.load_labeled_csv(path, -1).labels
        enumerated = _auroc_by_pairs(report.metrics["sphere"]["scores"], labels)
        assert value == pytest.approx(enumerated, abs=1e-12)
        all_ok &= value >= floor
        details.append(f"{name} {value:.3f} (>= {floor})")
    _report(11, all_ok, "sphere-depth AUROC with default r/s: " + ", ".join(details))
    assert all_ok


# ----------------------------------------------------------------------
# 12. statistics vs exhaustive pair-enumeration oracles, exact
# ----------------------------------------------------------------------


def test_c12_statistics_unit_oracles():
    rng = np.random.default_rng(12_000)

    def quality_oracle(a, b):
        le = sum(1 for x in a for y in b if x <= y)
        return le / (len(a) * len(b))

    def kendall_oracle(a, b):
        conc = disc = tx = ty = 0
        n = len(a)
        for i in range(n):
            for j in range(i + 1, n):
                sx = np.sign(a[i] - a[j])
                sy = np.sign(b[i] - b[j])
                if sx == 0:
                    tx += 1
                if sy == 0:
                    ty += 1
                if sx * sy > 0:
                    conc += 1
                elif sx * sy < 0:
                    disc += 1
        n0 = n * (n - 1) // 2
        return (conc - disc) / np.sqrt(float(n0 - tx) * float(n0 - ty))

    def rank_oracle(values):
        return np.array([
            sum(1 for w in values if w < v) + (sum(1 for w in values if w == v) + 1) / 2
            for v in values
        ])

    def spearman_oracle(a, b):
        ra, rb = rank_oracle(a), rank_oracle(b)
        dx = ra - ra.mean()
        dy = rb - rb.mean()
        return float(dx @ dy) / np.sqrt(float(dx @ dx) * float(dy @ dy))

    def auroc_oracle(scores, labels):
        return _auroc_by_pairs(scores, labels)

    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 13))
        a = rng.integers(0, 6, n).astype(float)
        b = rng.integers(0, 6, n).astype(float)
        g = rng.integers(0, 6, m).astype(float)

        assert sd.quality_index(a, g).q == quality_oracle(a, g)

        if not (np.all(a == a[0]) or np.all(b == b[0])):
            assert sd.spearman(a, b) == spearman_oracle(a, b)
            assert sd.kendall_tau(a, b) == kendall_oracle(a, b)

        labels = rng.integers(0, 2, n)
        if labels.min() != labels.max():
            assert sd.auroc(a, labels).auroc == auroc_oracle(a, labels)
        checked += 1
    _report(12, True, f"quality index, Spearman, Kendall tau, AUROC equal "
                      f"enumeration oracles exactly on {checked} random inputs")
    assert checked == 50
