"""Tests for the halfspace, Mahalanobis, and kernelized spatial depths."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from spheredepth import (
    DepthParams,
    DirectionGrid,
    HalfspaceConfig,
    KernelConfig,
    MahalanobisModel,
    SampleSet,
    fit_kernelized_spatial,
    fit_mahalanobis,
    grid_oracle_halfspace_depth,
    grid_oracle_sphere_depth,
    halfspace_depth,
    kernelized_spatial_depth,
    mahalanobis_depth,
)
from spheredepth import baselines

CROSS = SampleSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def _exact_halfspace_depth_2d(z, X):
    """Exact Tukey depth in d = 2: the rows at ``z`` count on every side, and
    of the rest a closed half-plane misses at most the most points found in
    a half-open half-circle of angles ``[theta_i, theta_i + pi)``."""
    w = X.data - np.asarray(z)
    at_z = np.all(w == 0.0, axis=1)
    theta = np.sort(np.arctan2(w[~at_z, 1], w[~at_z, 0]))
    around = np.concatenate([theta, theta + 2.0 * np.pi])
    inside = np.searchsorted(around, theta + np.pi) - np.arange(theta.size)
    return (X.n - inside.max(initial=0)) / X.n


class TestHalfspaceDepth:
    def test_far_query_zero(self):
        rng = np.random.default_rng(1)
        X = SampleSet(rng.standard_normal((50, 2)))
        res = halfspace_depth([30.0, 30.0], X)
        assert res.value == 0.0

    def test_single_sample_self_count(self):
        X = SampleSet([[2.0, 3.0]])
        assert halfspace_depth([2.0, 3.0], X).value == 1.0

    def test_four_point_cross(self):
        res = halfspace_depth([0.0, 0.0], CROSS)
        oracle = grid_oracle_halfspace_depth(
            [0.0, 0.0], CROSS, DirectionGrid.generate(4096, 2)
        )
        assert res.value == oracle.value == 0.5

    def test_value_quantized(self):
        rng = np.random.default_rng(2)
        X = SampleSet(rng.standard_normal((23, 2)))
        res = halfspace_depth([0.3, -0.3], X)
        assert res.value * X.n == int(round(res.value * X.n))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X = SampleSet(rng.standard_normal((40, 3)))
        cfg = HalfspaceConfig(seed=9)
        a = halfspace_depth([0.5, 0.0, 0.0], X, cfg)
        b = halfspace_depth([0.5, 0.0, 0.0], X, cfg)
        assert a.value == b.value
        np.testing.assert_array_equal(a.direction, b.direction)

    def test_agrees_with_grid_oracle(self):
        grid = DirectionGrid.generate(4096, 2)
        cfg = HalfspaceConfig(seed=0)
        for k in range(20):
            rng = np.random.default_rng((500, k))
            X = SampleSet(rng.standard_normal((50, 2)))
            z = rng.uniform(-1.5, 1.5, 2)
            nm = halfspace_depth(z, X, cfg).value
            oracle = grid_oracle_halfspace_depth(z, X, grid).value
            assert abs(nm - oracle) <= 1.0 / X.n + 1e-12

    def test_sample_queries_count_themselves(self):
        # A query equal to a sample keeps its own row in every direction,
        # so neither the grid nor Nelder-Mead reads below the exact depth.
        rng = np.random.default_rng(24)
        X = SampleSet(np.vstack([
            rng.normal([-1.5, 0.0], 1.0, (150, 2)), rng.normal([1.5, 0.5], 0.7, (150, 2))
        ]))
        grid = DirectionGrid.generate(4096, 2)
        for i in range(0, X.n, 10):
            z = X.data[i]
            exact = _exact_halfspace_depth_2d(z, X)
            counts = np.mean((X.data - z) @ grid.directions.T >= 0.0, axis=0)
            oracle = grid_oracle_halfspace_depth(z, X, grid).value
            assert oracle == counts.min() and oracle >= max(exact, 1.0 / X.n)
            assert halfspace_depth(z, X).value >= exact

    def test_sphere_depth_below_halfspace_plus_slack(self):
        grid = DirectionGrid.generate(1024, 2)
        for k in range(10):
            rng = np.random.default_rng((501, k))
            X = SampleSet(rng.standard_normal((60, 2)))
            z = rng.uniform(-2, 2, 2)
            sphere = grid_oracle_sphere_depth(z, X, DepthParams(r=0.8, s=0.0), grid).value
            hd = halfspace_depth(z, X).value
            assert sphere <= hd + 1.0 / X.n + 1e-12

    def test_converged_on_small_case(self):
        rng = np.random.default_rng(6)
        X = SampleSet(rng.standard_normal((30, 2)))
        assert halfspace_depth([0.2, -0.1], X).converged

    def test_not_converged_at_evaluation_cap(self, monkeypatch):
        # Three evaluations cannot even fill the initial simplex in d = 2,
        # so every restart stops at the cap.
        monkeypatch.setattr(baselines, "_MAX_EVALS", 3)
        rng = np.random.default_rng(6)
        X = SampleSet(rng.standard_normal((30, 2)))
        assert not halfspace_depth([0.2, -0.1], X).converged


class TestMahalanobis:
    def test_fit_hand_example(self):
        X = SampleSet([[0.0, 0.0], [2.0, 0.0]])
        model = fit_mahalanobis(X, regularization=1.0)
        np.testing.assert_allclose(model.mean, [1.0, 0.0])
        np.testing.assert_allclose(model.covariance_inverse, np.diag([1 / 3, 1.0]), atol=1e-12)

    def test_depth_at_mean_is_one(self):
        rng = np.random.default_rng(4)
        X = SampleSet(rng.standard_normal((100, 3)))
        model = fit_mahalanobis(X)
        assert mahalanobis_depth(model.mean, model) == 1.0

    def test_identity_covariance_closed_form(self):
        model = MahalanobisModel(mean=np.zeros(3), covariance_inverse=np.eye(3))
        z = np.array([1.0, 1.0, 1.0])  # squared distance 3
        assert mahalanobis_depth(z, model) == pytest.approx(0.25)

    def test_matches_solve_oracle(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((4, 4))
        cov = A @ A.T + 0.5 * np.eye(4)
        X = SampleSet(rng.multivariate_normal(np.zeros(4), cov, size=600))
        model = fit_mahalanobis(X)
        z = rng.standard_normal(4)
        delta = z - model.mean
        sample_cov = np.cov(X.data, rowvar=False, ddof=1)
        quad = float(delta @ np.linalg.solve(sample_cov, delta))
        assert mahalanobis_depth(z, model) == pytest.approx(1.0 / (1.0 + quad), rel=1e-10)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(6)
        X = SampleSet(rng.standard_normal((200, 5)))
        model = fit_mahalanobis(X)
        cov = np.cov(X.data, rowvar=False, ddof=1)
        np.testing.assert_allclose(cov @ model.covariance_inverse, np.eye(5), atol=1e-8)

    def test_singular_needs_regularization(self):
        X = SampleSet([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="regularization"):
            fit_mahalanobis(X)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="n >= 2"):
            fit_mahalanobis(SampleSet([[0.0, 1.0]]))

    def test_affine_invariance(self):
        rng = np.random.default_rng(7)
        X = SampleSet(rng.standard_normal((300, 3)))
        z = rng.standard_normal(3)
        A = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        b = rng.standard_normal(3)
        before = mahalanobis_depth(z, fit_mahalanobis(X))
        after = mahalanobis_depth(A @ z + b, fit_mahalanobis(SampleSet(X.data @ A.T + b)))
        assert abs(before - after) <= 1e-8


def _gram_oracle(z, X, h):
    """Direct RKHS expansion of the spatial depth via the full Gram matrix."""
    pts = np.vstack([z, X.data])
    gram = np.exp(
        -((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1) / h**2
    )
    vec = np.zeros(len(pts))
    count = 0
    for i in range(1, len(pts)):
        d2 = gram[0, 0] + gram[i, i] - 2 * gram[0, i]
        if d2 <= 0:
            continue
        scale = 1.0 / np.sqrt(d2)
        vec[0] += scale
        vec[i] -= scale
        count += 1
    if count == 0:
        return 1.0
    vec /= count
    return 1.0 - np.sqrt(max(float(vec @ gram @ vec), 0.0))


def _decimal_reference(z, X, h):
    """Spatial depth from the kernel-trick expansion in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        pts = [[Decimal(float(v)) for v in row] for row in X.data]
        q = [Decimal(float(v)) for v in z]
        h2 = Decimal(h) ** 2

        def k(p, r):
            return (-sum((a - b) ** 2 for a, b in zip(p, r)) / h2).exp()

        kz = [k(q, p) for p in pts]
        kept = [i for i, kzi in enumerate(kz) if kzi < 1]
        if not kept:
            return 1.0
        scale = {i: (2 * (1 - kz[i])).sqrt() for i in kept}
        total = sum(
            (1 - kz[i] - kz[j] + k(pts[i], pts[j])) / (scale[i] * scale[j])
            for i in kept
            for j in kept
        )
        return float(1 - (total / len(kept) ** 2).sqrt())


class TestKernelizedSpatialDepth:
    def test_single_distinct_sample(self):
        model = fit_kernelized_spatial(SampleSet([[1.0, 1.0]]))
        assert kernelized_spatial_depth([0.0, 0.0], model) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_symmetric_gram_oracle(self):
        X = SampleSet([[1.0, 0.5], [-1.0, 0.5]])
        z = [0.0, 0.0]
        ours = kernelized_spatial_depth(z, fit_kernelized_spatial(X, KernelConfig(bandwidth_h=1.3)))
        assert ours == pytest.approx(_gram_oracle(np.array(z), X, 1.3), abs=1e-12)

    def test_random_instances_match_gram_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            X = SampleSet(rng.standard_normal((15, 3)))
            z = rng.standard_normal(3)
            h = rng.uniform(0.5, 2.0)
            model = fit_kernelized_spatial(X, KernelConfig(bandwidth_h=h))
            ours = kernelized_spatial_depth(z, model)
            assert ours == pytest.approx(_gram_oracle(z, X, h), abs=1e-10)

    def test_argmax_near_symmetry_center(self):
        rng = np.random.default_rng(9)
        X = SampleSet(np.vstack([rng.standard_normal((200, 2)), -rng.standard_normal((200, 2))]))
        xs = np.linspace(-2, 2, 21)
        model = fit_kernelized_spatial(X, KernelConfig(bandwidth_h=2.0))
        values = {
            (x, y): kernelized_spatial_depth([x, y], model)
            for x in xs
            for y in xs
        }
        best = max(values, key=values.get)
        assert abs(best[0]) <= 0.2 + 1e-12 and abs(best[1]) <= 0.2 + 1e-12

    def test_coincident_sample_dropped(self):
        X = SampleSet([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        value = kernelized_spatial_depth([0.0, 0.0], fit_kernelized_spatial(X))
        reduced = fit_kernelized_spatial(SampleSet([[2.0, 0.0], [0.0, 2.0]]))
        assert value == pytest.approx(kernelized_spatial_depth([0.0, 0.0], reduced), abs=1e-12)

    def test_all_coincident(self):
        X = SampleSet([[1.0, 1.0], [1.0, 1.0]])
        assert kernelized_spatial_depth([1.0, 1.0], fit_kernelized_spatial(X)) == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(10)
        model = fit_kernelized_spatial(SampleSet(rng.standard_normal((40, 2))))
        for _ in range(20):
            z = rng.uniform(-3, 3, 2)
            assert 0.0 <= kernelized_spatial_depth(z, model) <= 1.0

    def test_isometry_invariance(self):
        rng = np.random.default_rng(11)
        X = SampleSet(rng.standard_normal((60, 3)))
        z = rng.standard_normal(3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        b = rng.uniform(-4, 4, 3)
        before = kernelized_spatial_depth(z, fit_kernelized_spatial(X))
        moved = fit_kernelized_spatial(SampleSet(X.data @ Q.T + b))
        after = kernelized_spatial_depth(Q @ z + b, moved)
        assert abs(before - after) <= 1e-10

    def test_isometry_invariance_large_offset(self):
        # At an offset of 1e6, |x|**2 is about 3e12, so the expansion
        # |x|**2 + |y|**2 - 2 x.y would round each squared distance by ~1e-3.
        rng = np.random.default_rng(11)
        X = SampleSet(rng.standard_normal((60, 3)))
        z = rng.standard_normal(3)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        b = 1e6 * np.ones(3)
        before = kernelized_spatial_depth(z, fit_kernelized_spatial(X))
        moved = fit_kernelized_spatial(SampleSet(X.data @ Q.T + b))
        after = kernelized_spatial_depth(Q @ z + b, moved)
        assert abs(before - after) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_near_coincident_query_matches_decimal_reference(self, d):
        rng = np.random.default_rng((12, d))
        X = SampleSet(rng.standard_normal((25, d)))
        z = X.data[0].copy()
        z[0] += 1e-6
        value = kernelized_spatial_depth(z, fit_kernelized_spatial(X))
        assert abs(value - _decimal_reference(z, X, 1.0)) <= 1e-10

    def test_query_dimension_mismatch(self):
        model = fit_kernelized_spatial(SampleSet([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="query point"):
            kernelized_spatial_depth([0.0, 0.0, 0.0], model)
