"""Unit and property tests for the depth objective and grid oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from spheredepth import (
    DepthParams,
    DirectionGrid,
    SampleSet,
    grid_oracle_halfspace_depth,
    grid_oracle_sphere_depth,
    sigmoid,
    sigmoid_derivative,
    sphere_loss,
    sphere_loss_gradient,
    unit_direction,
)


class TestSampleSet:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet([[np.inf, 0.0]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            SampleSet([1.0, 2.0])

    def test_immutable(self):
        X = SampleSet([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            X.data[0, 0] = 9.0

    def test_shape_properties(self):
        X = SampleSet(np.zeros((5, 3)))
        assert X.n == 5 and X.d == 3


class TestDepthParams:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="r must be"):
            DepthParams(r=0.0)

    def test_rejects_negative_smoothing(self):
        with pytest.raises(ValueError, match="s must be"):
            DepthParams(r=1.0, s=-0.5)

    def test_indicator_scale_allowed(self):
        assert DepthParams(r=1.0, s=0.0).s == 0.0


class TestDirectionGrid:
    @pytest.mark.parametrize("d,tag", [(2, "equiangular"), (3, "fibonacci-sphere"), (5, "random-uniform")])
    def test_generation_modes(self, d, tag):
        grid = DirectionGrid.generate(64, d, seed=3)
        assert grid.generation == tag
        assert grid.directions.shape == (64, d)
        np.testing.assert_allclose(np.linalg.norm(grid.directions, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = DirectionGrid.generate(128, 6, seed=11)
        b = DirectionGrid.generate(128, 6, seed=11)
        np.testing.assert_array_equal(a.directions, b.directions)

    def test_one_dimensional(self):
        grid = DirectionGrid.generate(10, 1)
        assert grid.m == 2
        np.testing.assert_array_equal(grid.directions, [[1.0], [-1.0]])

    def test_custom_renormalizes(self):
        grid = DirectionGrid([[3.0, 4.0]])
        np.testing.assert_allclose(grid.directions, [[0.6, 0.8]])

    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError, match="near-zero"):
            DirectionGrid([[0.0, 0.0]])


class TestUnitDirection:
    def test_passthrough(self):
        u = unit_direction([1.0, 0.0])
        np.testing.assert_array_equal(u, [1.0, 0.0])

    def test_renormalizes(self):
        np.testing.assert_allclose(unit_direction([0.0, 2.0]), [0.0, 1.0])

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="near-zero"):
            unit_direction([0.0, 0.0])


class TestSigmoid:
    def test_center(self):
        assert sigmoid(0.0, 1.0) == 0.5

    def test_ln3(self):
        np.testing.assert_allclose(sigmoid(np.log(3.0), 1.0), 0.75, rtol=1e-14)

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            low = sigmoid(-5000.0, 1.0)
            high = sigmoid(5000.0, 1.0)
        assert low <= 1e-300
        assert high == 1.0

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="s must be"):
            sigmoid(1.0, 0.0)
        with pytest.raises(ValueError, match="s must be"):
            sigmoid(1.0, -1.0)

    @pytest.mark.parametrize("s", [1.0, 0.01, 3.0])
    @pytest.mark.parametrize("inputs", ["grid", "random"])
    def test_matches_scipy_reference(self, inputs, s):
        if inputs == "grid":
            t = np.linspace(-800.0, 800.0, 160_001)
        else:
            rng = np.random.default_rng(31)
            t = rng.standard_normal(100_000) * rng.choice([1.0, 30.0, 300.0], 100_000)
        ref = expit(t / s)
        got = sigmoid(t, s)
        normal = ref > 1e-300
        ulps = np.abs(got[normal].view(np.int64) - ref[normal].view(np.int64))
        assert ulps.max() <= 4
        saturated = (ref == 0.0) | (ref == 1.0)
        np.testing.assert_array_equal(got[saturated], ref[saturated])
        assert np.all((got[~normal] >= 0.0) & (got[~normal] <= 1e-300))
        assert sigmoid(0.0, s) == 0.5

    def test_array_input(self):
        out = sigmoid(np.array([-1.0, 0.0, 1.0]), 2.0)
        assert out.shape == (3,)
        assert out[0] + out[2] == pytest.approx(1.0, abs=1e-15)

    @given(
        t=st.floats(-1e6, 1e6, allow_nan=False),
        s=st.floats(1e-3, 1e3, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_symmetry(self, t, s):
        value = sigmoid(t, s)
        assert 0.0 <= value <= 1.0
        assert value + sigmoid(-t, s) == pytest.approx(1.0, abs=1e-12)


class TestSigmoidDerivative:
    def test_peak_values(self):
        assert sigmoid_derivative(0.0, 1.0) == 0.25
        assert sigmoid_derivative(0.0, 2.0) == 0.125

    def test_matches_finite_difference(self):
        h = 1e-6
        fd = (sigmoid(1.0 + h, 1.0) - sigmoid(1.0 - h, 1.0)) / (2 * h)
        np.testing.assert_allclose(sigmoid_derivative(1.0, 1.0), fd, atol=1e-8)

    def test_strictly_positive_and_bounded(self):
        t = np.linspace(-50, 50, 101)
        deriv = sigmoid_derivative(t, 0.7)
        assert np.all(deriv > 0)
        assert deriv.max() <= 1 / (4 * 0.7) + 1e-15

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            sigmoid_derivative(0.0, 0.0)


def _naive_loss(u, z, X, params):
    total = 0.0
    for x in X.data:
        gap = params.r**2 - float(np.sum((x - z - params.r * np.asarray(u)) ** 2))
        total += 1.0 / (1.0 + np.exp(-gap / params.s))
    return total / X.n


class TestSphereLoss:
    def test_single_sample_at_query(self):
        X = SampleSet([[2.0, -1.0]])
        value = sphere_loss([0.0, 1.0], [2.0, -1.0], X, DepthParams(r=3.0, s=0.4))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_duplicate_samples_at_query(self):
        X = SampleSet([[1.0, 1.0], [1.0, 1.0]])
        value = sphere_loss([1.0, 0.0], [1.0, 1.0], X, DepthParams(r=1.0, s=1.0))
        assert value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "case",
        [
            "unit", "norm-0.5", "norm-2", "d1", "n1", "duplicates", "far-query",
            "scaled-1e8", "scaled-1e-8",
        ],
    )
    def test_matches_naive_summation(self, case):
        rng = np.random.default_rng(20)
        n, d = {"d1": (20, 1), "n1": (1, 3)}.get(case, (20, 3))
        data = rng.standard_normal((n, d))
        if case == "duplicates":
            data = np.vstack([data[:10], data[:10]])
        z = rng.standard_normal(d)
        if case == "far-query":
            z = np.full(d, 1e3)
        u = unit_direction(rng.standard_normal(d))
        u = u * {"norm-0.5": 0.5, "norm-2": 2.0}.get(case, 1.0)
        c = {"scaled-1e8": 1e8, "scaled-1e-8": 1e-8}.get(case, 1.0)
        X, z = SampleSet(c * data), c * z
        params = DepthParams(r=1.3 * c, s=0.8 * c**2)

        with np.errstate(over="ignore"):
            naive = _naive_loss(u, z, X, params)
        np.testing.assert_allclose(sphere_loss(u, z, X, params), naive, atol=1e-12)

        w = X.data - z - params.r * u
        gap = params.r**2 - np.sum(w**2, axis=1)
        coef = sigmoid_derivative(gap, params.s) * 2 * params.r / X.n
        naive_grad = np.sum(coef[:, None] * w, axis=0)
        grad = sphere_loss_gradient(u, z, X, params)
        assert np.linalg.norm(grad - naive_grad) <= 1e-12 * np.linalg.norm(naive_grad)

    def test_open_interval(self):
        rng = np.random.default_rng(21)
        X = SampleSet(rng.standard_normal((50, 2)))
        for _ in range(10):
            z = rng.uniform(-2, 2, 2)
            u = unit_direction(rng.standard_normal(2))
            value = sphere_loss(u, z, X, DepthParams(r=1.0, s=1.0))
            assert 0.0 < value < 1.0

    def test_dimension_mismatch(self):
        X = SampleSet([[0.0, 0.0]])
        with pytest.raises(ValueError, match="dimension"):
            sphere_loss([1.0, 0.0, 0.0], [0.0, 0.0], X, DepthParams(r=1.0))

    def test_indicator_scale_rejected(self):
        X = SampleSet([[0.0, 0.0]])
        with pytest.raises(ValueError, match="s > 0"):
            sphere_loss([1.0, 0.0], [0.0, 0.0], X, DepthParams(r=1.0, s=0.0))


class TestSphereLossGradient:
    def test_single_sample_is_radial(self):
        # One sample at the query: gradient is -(r^2 / 2s) * u, no tangent part.
        u = unit_direction([0.6, 0.8])
        X = SampleSet([[1.0, 2.0]])
        params = DepthParams(r=2.0, s=0.5)
        grad = sphere_loss_gradient(u, [1.0, 2.0], X, params)
        np.testing.assert_allclose(grad, -(params.r**2 / (2 * params.s)) * u, atol=1e-14)
        tangent = grad - np.dot(grad, u) * u
        np.testing.assert_allclose(tangent, 0.0, atol=1e-14)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(25):
            d = int(rng.choice([2, 5, 10]))
            n = int(rng.choice([10, 100]))
            X = SampleSet(rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0))
            z = rng.standard_normal(d)
            u = unit_direction(rng.standard_normal(d))
            params = DepthParams(r=rng.uniform(0.5, 2.0), s=rng.uniform(0.3, 2.0))
            grad = sphere_loss_gradient(u, z, X, params)
            fd = np.empty(d)
            for i in range(d):
                step = np.zeros(d)
                step[i] = h
                fd[i] = (
                    sphere_loss(u + step, z, X, params)
                    - sphere_loss(u - step, z, X, params)
                ) / (2 * h)
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
            assert rel.max() <= 1e-5

    def test_reflection_symmetry_gives_collinear_gradient(self):
        # Samples symmetric across the u-axis: the gradient has no
        # component orthogonal to u.
        u = np.array([1.0, 0.0])
        X = SampleSet([[2.0, 1.5], [2.0, -1.5], [0.5, 0.3], [0.5, -0.3]])
        grad = sphere_loss_gradient(u, [0.0, 0.0], X, DepthParams(r=1.0, s=1.0))
        assert abs(grad[1]) <= 1e-14


class TestGridOracleSphereDepth:
    def test_self_sample_full_mass(self):
        X = SampleSet([[3.0, 4.0]])
        grid = DirectionGrid.generate(64, 2)
        res = grid_oracle_sphere_depth([3.0, 4.0], X, DepthParams(r=1.0, s=0.0), grid)
        assert res.value == 1.0

    def test_far_query_zero(self):
        X = SampleSet([[0.0, 0.0], [1.0, 1.0]])
        grid = DirectionGrid.generate(64, 2)
        res = grid_oracle_sphere_depth([50.0, 50.0], X, DepthParams(r=1.0, s=0.0), grid)
        assert res.value == 0.0

    def test_four_point_cross_small_radius(self):
        X = SampleSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        grid = DirectionGrid.generate(4096, 2)
        res = grid_oracle_sphere_depth([0.0, 0.0], X, DepthParams(r=0.4, s=0.0), grid)
        assert res.value == 0.0

    def test_indicator_values_quantized(self):
        rng = np.random.default_rng(5)
        X = SampleSet(rng.standard_normal((17, 2)))
        grid = DirectionGrid.generate(256, 2)
        res = grid_oracle_sphere_depth([0.1, 0.2], X, DepthParams(r=1.0, s=0.0), grid)
        assert (res.value * X.n) == int(round(res.value * X.n))

    def test_tie_break_lowest_index(self):
        # Far query: every direction gives 0; index 0 must win.
        X = SampleSet([[0.0, 0.0]])
        grid = DirectionGrid.generate(32, 2)
        res = grid_oracle_sphere_depth([90.0, 0.0], X, DepthParams(r=1.0, s=0.0), grid)
        assert res.index == 0

    def test_matches_loss_at_argmin(self):
        rng = np.random.default_rng(6)
        X = SampleSet(rng.standard_normal((40, 3)))
        grid = DirectionGrid.generate(200, 3, seed=1)
        params = DepthParams(r=1.0, s=0.7)
        res = grid_oracle_sphere_depth([0.3, -0.1, 0.4], X, params, grid)
        direct = min(sphere_loss(u, [0.3, -0.1, 0.4], X, params) for u in grid.directions)
        np.testing.assert_allclose(res.value, direct, atol=1e-14)

    def test_dimension_mismatch(self):
        X = SampleSet([[0.0, 0.0, 0.0]])
        grid = DirectionGrid.generate(8, 2)
        with pytest.raises(ValueError, match="dimension"):
            grid_oracle_sphere_depth([0.0, 0.0, 0.0], X, DepthParams(r=1.0), grid)


class TestGridOracleHalfspaceDepth:
    def test_four_point_cross(self):
        X = SampleSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        # Generic grid: rotate so no direction is axis-aligned.
        base = DirectionGrid.generate(4096, 2)
        theta = 0.123
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        grid = DirectionGrid(base.directions @ rot.T)
        res = grid_oracle_halfspace_depth([0.0, 0.0], X, grid)
        assert res.value == 0.5

    def test_outside_hull_zero(self):
        rng = np.random.default_rng(8)
        X = SampleSet(rng.standard_normal((30, 2)))
        grid = DirectionGrid.generate(512, 2)
        res = grid_oracle_halfspace_depth([40.0, -3.0], X, grid)
        assert res.value == 0.0

    def test_single_sample_self(self):
        X = SampleSet([[-2.0, 7.0]])
        grid = DirectionGrid.generate(64, 2)
        res = grid_oracle_halfspace_depth([-2.0, 7.0], X, grid)
        assert res.value == 1.0


class TestObjectiveProperties:
    def test_ball_mass_below_halfspace_mass(self):
        # Same grid: indicator sphere depth never exceeds halfspace depth.
        for k in range(5):
            rng = np.random.default_rng((40, k))
            X = SampleSet(rng.standard_normal((60, 2)) * 1.5)
            grid = DirectionGrid.generate(512, 2)
            params = DepthParams(r=rng.uniform(0.3, 2.0), s=0.0)
            for _ in range(10):
                z = rng.uniform(-3, 3, 2)
                sphere = grid_oracle_sphere_depth(z, X, params, grid).value
                half = grid_oracle_halfspace_depth(z, X, grid).value
                assert sphere <= half

    def test_smoothing_converges_to_indicator(self):
        rng = np.random.default_rng(41)
        X = SampleSet(rng.standard_normal((30, 2)))
        grid = DirectionGrid.generate(128, 2)
        z = np.array([0.4, -0.2])
        u = grid.directions[17]
        base = grid_oracle_sphere_depth(z, X, DepthParams(r=1.0, s=0.0), grid)
        indicator = float(
            np.mean(
                1.0**2 - np.sum((X.data - z - 1.0 * u) ** 2, axis=1) >= 0
            )
        )
        gaps = [
            abs(sphere_loss(u, z, X, DepthParams(r=1.0, s=s)) - indicator)
            for s in (1.0, 0.1, 0.01)
        ]
        assert gaps[0] > gaps[1] > gaps[2]
        assert base.value <= indicator

    def test_isometry_invariance_of_oracle(self):
        rng = np.random.default_rng(42)
        X = SampleSet(rng.standard_normal((80, 3)))
        grid = DirectionGrid.generate(256, 3)
        params = DepthParams(r=1.0, s=1.0)
        z = rng.uniform(-1, 1, 3)
        for k in range(5):
            sub = np.random.default_rng((42, k))
            Q, _ = np.linalg.qr(sub.standard_normal((3, 3)))
            b = sub.uniform(-5, 5, 3)
            rotated = DirectionGrid(grid.directions @ Q.T)
            v1 = grid_oracle_sphere_depth(z, X, params, grid).value
            v2 = grid_oracle_sphere_depth(
                Q @ z + b, SampleSet(X.data @ Q.T + b), params, rotated
            ).value
            assert abs(v1 - v2) <= 1e-12

    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_scaling_law(self, lam):
        rng = np.random.default_rng(43)
        X = SampleSet(rng.standard_normal((60, 2)))
        grid = DirectionGrid.generate(256, 2)
        z = rng.uniform(-2, 2, 2)
        v1 = grid_oracle_sphere_depth(z, X, DepthParams(r=1.2, s=0.9), grid).value
        v2 = grid_oracle_sphere_depth(
            lam * z, SampleSet(lam * X.data), DepthParams(r=lam * 1.2, s=lam**2 * 0.9), grid
        ).value
        assert abs(v1 - v2) <= 1e-10
        i1 = grid_oracle_sphere_depth(z, X, DepthParams(r=1.2, s=0.0), grid).value
        i2 = grid_oracle_sphere_depth(
            lam * z, SampleSet(lam * X.data), DepthParams(r=lam * 1.2, s=0.0), grid
        ).value
        assert i1 == i2
