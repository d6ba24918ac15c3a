"""Tests for the seeded generators, exact densities, and standardization."""

import warnings

import numpy as np
import pytest

from spheredepth import (
    MixtureSpec,
    SampleSet,
    StudentSpec,
    bi_gaussian_spec,
    gen_mixture,
    gen_student_t,
    gen_truncated_gaussian,
    mixture_density,
    standardize,
)


class TestMixtureSpec:
    def test_weights_normalized(self):
        spec = MixtureSpec(components=(
            (np.zeros(2), np.eye(2), 2.0),
            (np.ones(2), np.eye(2), 6.0),
        ))
        np.testing.assert_allclose(spec.weights, [0.25, 0.75])

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError, match="positive-definite"):
            MixtureSpec(components=((np.zeros(2), -np.eye(2), 1.0),))

    def test_bi_gaussian_layout(self):
        spec = bi_gaussian_spec(3)
        assert spec.d == 3
        np.testing.assert_array_equal(spec.components[0][0], [-3.5, -3.5, -3.5])
        np.testing.assert_array_equal(spec.components[1][0], [3.5, 3.5, 3.5])
        np.testing.assert_allclose(spec.weights, [0.5, 0.5])


class TestGenMixture:
    def test_deterministic(self):
        spec = bi_gaussian_spec(2)
        a = gen_mixture(spec, 500, seed=77)
        b = gen_mixture(spec, 500, seed=77)
        np.testing.assert_array_equal(a.data, b.data)

    def test_law_of_large_numbers(self):
        spec = MixtureSpec(components=((np.zeros(3), np.eye(3), 1.0),))
        X = gen_mixture(spec, 100_000, seed=1)
        assert np.abs(X.data.mean(axis=0)).max() <= 0.02

    def test_mode_balance(self):
        X = gen_mixture(bi_gaussian_spec(2), 100_000, seed=2)
        frac = np.mean(X.data[:, 0] > 0)
        assert 0.49 <= frac <= 0.51

    def test_anisotropic_covariance(self):
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        spec = MixtureSpec(components=((np.zeros(2), cov, 1.0),))
        X = gen_mixture(spec, 200_000, seed=3)
        np.testing.assert_allclose(np.cov(X.data, rowvar=False), cov, atol=0.05)


class TestGenStudentT:
    def test_truncation_enforced(self):
        spec = StudentSpec(df=2, mean=np.zeros(2), scale=np.eye(2), truncation_norm=10.0)
        X = gen_student_t(spec, 5000, seed=4)
        assert np.linalg.norm(X.data, axis=1).max() <= 10.0

    def test_gaussian_limit_variance(self):
        spec = StudentSpec(df=1e6, mean=np.zeros(2), scale=np.eye(2), truncation_norm=10000.0)
        X = gen_student_t(spec, 100_000, seed=5)
        variances = X.data.var(axis=0, ddof=1)
        np.testing.assert_allclose(variances, 1.0, rtol=0.05)

    def test_df3_second_moment(self):
        spec = StudentSpec(df=3, mean=np.zeros(2), scale=np.eye(2), truncation_norm=10000.0)
        X = gen_student_t(spec, 100_000, seed=6)
        variances = X.data.var(axis=0, ddof=1)
        np.testing.assert_allclose(variances, 3.0, rtol=0.15)

    def test_symmetric_about_mean(self):
        mean = np.array([1.0, -2.0])
        spec = StudentSpec(df=4, mean=mean, scale=np.eye(2), truncation_norm=10000.0)
        X = gen_student_t(spec, 100_000, seed=7)
        emp_std = X.data.std(axis=0, ddof=1)
        bound = 3.0 * emp_std / np.sqrt(X.n)
        assert np.all(np.abs(X.data.mean(axis=0) - mean) <= bound)

    def test_deterministic(self):
        spec = StudentSpec(df=2, mean=np.zeros(2), scale=np.eye(2), truncation_norm=100.0)
        np.testing.assert_array_equal(
            gen_student_t(spec, 300, seed=8).data, gen_student_t(spec, 300, seed=8).data
        )

    def test_impossible_truncation_errors(self):
        spec = StudentSpec(df=2, mean=np.zeros(2), scale=np.eye(2), truncation_norm=1e-12)
        with pytest.raises(ValueError, match="truncation"):
            gen_student_t(spec, 100, seed=9, max_rounds=5)

    def test_pinned_rows(self):
        # Several rejection rounds at this truncation; the rows pin the stream.
        scale = np.array([[1.0, 0.3], [0.3, 2.0]])
        spec = StudentSpec(df=2, mean=[0.5, -0.25], scale=scale, truncation_norm=1.5)
        np.testing.assert_array_equal(
            gen_student_t(spec, 4, seed=13).data,
            [
                [1.2414279722978308, 0.04690718183149628],
                [0.14192885682904383, 1.082206269436301],
                [1.181808595711778, -0.7062736947475561],
                [-1.1775486673949906, -0.21573906364411943],
            ],
        )


class TestTruncatedGaussian:
    def test_norm_bound(self):
        X = gen_truncated_gaussian(2, 2000, seed=10, truncation_norm=2.0)
        assert np.linalg.norm(X.data, axis=1).max() <= 2.0

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gen_truncated_gaussian(3, 100, seed=11).data,
            gen_truncated_gaussian(3, 100, seed=11).data,
        )

    def test_pinned_rows(self):
        # The first round's four draws all lie outside the unit disc.
        np.testing.assert_array_equal(
            gen_truncated_gaussian(2, 4, seed=12, truncation_norm=1.0).data,
            [
                [-0.02194788627038025, 0.4958800664642217],
                [-0.05785496250096947, 0.6128622742800935],
                [0.6578901620545003, -0.34440266642056316],
                [-0.49737203549585546, -0.1147727834068699],
            ],
        )

    def test_impossible_truncation_errors(self):
        with pytest.raises(ValueError, match="truncation"):
            gen_truncated_gaussian(2, 100, seed=9, truncation_norm=1e-12, max_rounds=5)


class TestMixtureDensity:
    def setup_method(self):
        self.spec = bi_gaussian_spec(2)

    def test_value_at_mode(self):
        mode = np.array([3.5, 3.5])
        dens = mixture_density([mode], self.spec)[0]
        assert dens == pytest.approx(0.5 / (2 * np.pi), rel=1e-12)

    def test_value_at_midpoint(self):
        dens = mixture_density([[0.0, 0.0]], self.spec)[0]
        assert dens == pytest.approx(np.exp(-12.25) / (2 * np.pi), rel=1e-12)

    def test_mode_beats_midpoint(self):
        values = mixture_density([[3.5, 3.5], [0.0, 0.0]], self.spec)
        assert values[0] > values[1]

    def test_integrates_to_one(self):
        # Midpoint rule over a box that captures all but ~e^-32 of the mass.
        grid_n = 400
        lo, hi = -11.5, 11.5
        xs = np.linspace(lo, hi, grid_n, endpoint=False) + (hi - lo) / (2 * grid_n)
        pts = np.array([[x, y] for x in xs for y in xs])
        cell = ((hi - lo) / grid_n) ** 2
        total = mixture_density(pts, self.spec).sum() * cell
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension"):
            mixture_density([[0.0, 0.0, 0.0]], self.spec)


class TestStandardize:
    def test_hand_example(self):
        X = SampleSet([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        out, stats = standardize(X)
        assert stats.pooled_std == pytest.approx(np.sqrt(4 / 3))
        np.testing.assert_allclose(stats.per_dimension_mean, [1.0, 1.0])
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-15)

    def test_statistic_idempotent(self):
        rng = np.random.default_rng(12)
        X = SampleSet(rng.standard_normal((500, 4)) * 3.7 + 5.0)
        out, _ = standardize(X)
        _, stats2 = standardize(out)
        assert stats2.pooled_std == pytest.approx(1.0, abs=1e-10)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((100, 3))
        _, base = standardize(SampleSet(data))
        _, scaled = standardize(SampleSet(7.5 * data))
        assert scaled.pooled_std == pytest.approx(7.5 * base.pooled_std, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_extreme_units(self, scale):
        # Taken directly, the variance underflows to 0 at 1e-170 and
        # overflows at 1e170.
        data = np.random.default_rng(14).standard_normal((200, 2))
        base_out, base = standardize(SampleSet(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, scaled = standardize(SampleSet(scale * data))
        assert scaled.pooled_std == pytest.approx(scale * base.pooled_std, rel=1e-12)
        np.testing.assert_allclose(out.data, base_out.data, rtol=0, atol=1e-12)

    def test_constant_data_rejected(self):
        X = SampleSet([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="constant"):
            standardize(X)
