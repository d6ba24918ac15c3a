"""Unit and property tests for the depth objective and grid oracles."""

import itertools
import math

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
    riemannian_descent,
    sigmoid,
    sigmoid_derivative,
    sphere_loss,
    sphere_loss_gradient,
    unit_direction,
)
from spheredepth import core, datagen


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

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_column_major_read_only_copy(self, layout):
        A = np.arange(24.0).reshape(8, 3)
        A = {"C": A, "F": np.asfortranarray(A), "strided": A[::2]}[layout]
        X = SampleSet(A)
        assert X.data.flags.f_contiguous
        assert not X.data.flags.writeable
        np.testing.assert_array_equal(X.data, A)
        assert not np.shares_memory(X.data, A)


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
            "unit", "norm-0.5", "norm-2", "norm-3", "d1", "n1", "duplicates",
            "far-query", "scaled-1e8", "scaled-1e-8", "small-s", "large-s",
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
        u = u * {"norm-0.5": 0.5, "norm-2": 2.0, "norm-3": 3.0}.get(case, 1.0)
        c = {"scaled-1e8": 1e8, "scaled-1e-8": 1e-8}.get(case, 1.0)
        s = {"small-s": 1e-3, "large-s": 1e3, "norm-3": 1e-2}.get(case, 0.8) * c**2
        if case == "small-s":
            # At s = 1e-3 every random sample saturates the sigmoid; put three
            # within a few s of the sphere, where the gradient lives.
            for i, gap in enumerate([-2.0 * s, 0.5 * s, 3.0 * s]):
                e = unit_direction(rng.standard_normal(d))
                data[i] = z + 1.3 * u + np.sqrt(1.3**2 - gap) * e
        if case == "norm-3":
            # Inside, on and just outside the ball around z + 3.9 e: beyond
            # the keep radius of a unit direction, within that of norm 3.
            for i, dist in enumerate([4.5, 5.0, 5.2]):
                data[i] = z + dist * u / 3.0
            unscaled = DepthParams(r=1.3, s=s)
            assert core._keep_radius(unscaled, 1.0) < 4.5 < 5.2 < core._keep_radius(unscaled, 3.0)
        X, z = SampleSet(c * data), c * z
        params = DepthParams(r=1.3 * c, s=s)

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


def _row_order(X):
    """The data row of each row of the sample's centred matrix, or ``None``
    when it keeps the data's order: the stable sort of the rows' keys."""
    if X._axis is None:
        return None
    return np.argsort(core._projection(X.data - X._mean, X._axis), kind="stable")


def _centred_args(z, X, params, U):
    """``-t/s`` of every sample for the ``(m, d)`` directions ``U``, as
    ``(n, m)``, with the kernel's arithmetic (``s > 0``): the centred matrix
    times the coefficients ``[-2 c~ / s, 1 / s, (||c~||**2 - r**2) / s]`` of
    the ball centres ``c~ = z - mean + r u``."""
    r, s = params.r, params.s
    centre = r * U.T + (z - X._mean)[:, None]
    cc = np.zeros(len(U))
    for row in centre:
        cc += row * row
    coef = np.vstack([centre * (-2.0 / s), np.full((1, len(U)), 1.0 / s), ((cc - r * r) / s)[None]])
    args = X._centred @ coef
    order = _row_order(X)
    if order is None:
        return args
    out = np.empty_like(args)  # rows of the centred matrix back in data order
    out[order] = args
    return out


def _read_rows(objective, X):
    """The data rows that the solver's objective reads, in the order it
    reads them: its rows of the centred matrix mapped through the sample's
    row order."""
    rows = np.arange(X.n)[objective._kept]
    order = _row_order(X)
    return rows if order is None else order[rows]


def _all_rows_block(z, X, params, U):
    """The oracle's per-direction values for the ``(m, d)`` grid ``U`` from
    every sample, with the oracle kernel's arithmetic on ``w = x - z`` and
    no rows dropped.  At ``s = 0`` lengths are in units of the power of two
    at or below ``r``."""
    w = X.data - z
    if params.s == 0:
        unit = math.ldexp(1.0, math.frexp(params.r)[1] - 1)
        w /= unit
        w2 = np.einsum("ij,ij->i", w, w)
        t = w @ U.T
        t *= 2.0 * (params.r / unit)
        t -= w2[:, None]
        return (t >= 0.0).sum(axis=0) / X.n
    rows = np.asfortranarray(np.column_stack([w, np.einsum("ij,ij->i", w, w)]))
    coef = np.vstack([U.T * (-2.0 * params.r / params.s), np.full((1, len(U)), 1.0 / params.s)])
    m = rows @ coef
    with np.errstate(over="ignore"):
        return (1.0 / (1.0 + np.exp(m))).sum(axis=0) / X.n


class TestCentredExpansion:
    """The solver's kernel computes ``-t/s`` from the sample's centred
    matrix.  Against ``x - z`` taken directly in ``np.longdouble``, each
    kept row's argument must lie within the bound fixed below.  A row that
    the keep mask drops beyond the overflow radius may have no nonzero term
    in any direction; one dropped within it, by the relative reach, may have
    no term above ``eps lam / (2n)``, with ``lam`` the nearest row's least
    term.  The kernel drops rows only for samples with ``n d`` above
    ``_LOCKSTEP_ENTRIES``, and within the overflow radius only for a large
    enough sample and when enough of them go; the limit, that size and that
    share are set to 0 so that it drops every row beyond the keep radius at
    this test's ``n``."""

    @pytest.fixture(autouse=True)
    def row_cut_at_any_size(self, monkeypatch):
        monkeypatch.setattr(core, "_LOCKSTEP_ENTRIES", 0)
        monkeypatch.setattr(core, "_DROP_SHARE", 0.0)
        monkeypatch.setattr(core, "_REACH_ENTRIES", 0)

    @staticmethod
    def bound(X, z, params, u):
        """The per-term allowance ``8 (d + 8) eps ((||x~|| + ||c~||)**2 +
        r**2) / s`` with ``x~ = x - mean`` and ``c~ = z - mean + r u``."""
        mean = X._mean.astype(np.longdouble)
        xt = np.linalg.norm(X.data.astype(np.longdouble) - mean, axis=1)
        ct = np.linalg.norm(np.asarray(z, np.longdouble) - mean + np.longdouble(params.r) * u)
        tol = 8.0 * (X.d + 8) * np.finfo(np.float64).eps
        return tol * ((xt + ct) ** 2 + np.longdouble(params.r) ** 2) / np.longdouble(params.s)

    @staticmethod
    def reference(X, z, params, u):
        """``-t/s = (||x - z - r u||**2 - r**2) / s`` in ``np.longdouble``."""
        r = np.longdouble(params.r)
        w = X.data.astype(np.longdouble) - np.asarray(z, np.longdouble) - r * u
        return ((w * w).sum(axis=1) - r * r) / np.longdouble(params.s)

    @staticmethod
    def radii(X, z, params):
        """The overflow radius of the query ``z`` and its keep radius, the
        least of that and the relative reach, for the nearest row's computed
        ``||x - z||**2`` taken as 0: the query is a sample row."""
        tol, rho = core._rounding_tol(X.d), 1.0 + 1e-9
        spread = X._spread + float(np.linalg.norm(z - X._mean))
        overflow = core._keep_radius(params, 1.0, spread, tol)
        near = math.sqrt(tol) * spread
        return overflow, min(overflow, core._solver_reach(params, rho, X.n, near, spread, tol))

    @pytest.mark.parametrize("s", [1.0, 1e-3])
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    @pytest.mark.parametrize("sigma", [1.0, 1e3])
    def test_arguments_within_bound_and_no_live_row_dropped(self, sigma, offset, s):
        rng = np.random.default_rng((70, int(sigma), int(offset > 0), int(s == 1.0)))
        d, params = 3, DepthParams(r=1.0, s=s)
        data = offset + sigma * rng.standard_normal((300, d))
        mean = data.mean(axis=0)
        e = unit_direction([1.0, 2.0, -1.0])
        queries = [
            *data[:3],  # sample rows
            data[3] + 0.5 * e,  # inside a ball through a sample
            mean + 30.0 * sigma * e,  # far from the data
            mean - 1e4 * sigma * e,
        ]
        # Rows at the keep radius from the first query, on either side of it;
        # the reach grows with n, so six copies of the query stand in for them.
        z0 = queries[0]
        _, radius = self.radii(SampleSet(np.vstack([data, np.tile(z0, (6, 1))])), z0, params)
        ring = [z0 + radius * (1.0 + k) * unit_direction(rng.standard_normal(d))
                for k in (-1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.05)]
        X = SampleSet(np.vstack([data, ring]))
        eps = np.finfo(np.float64).eps
        dropped_rows = worst_checked = 0
        with np.errstate(over="ignore"):
            for z in queries:
                objective = core._Objective(z, X, params)
                kept = _read_rows(objective, X)
                dropped = np.setdiff1d(np.arange(X.n), kept)
                dropped_rows += dropped.size
                overflow, _ = self.radii(X, z, params)
                # The nearest row's least term at a unit direction is lam =
                # sigmoid((r**2 - (near + r)**2) / s); its log is -log1p(exp(-a)).
                w = X.data.astype(np.longdouble) - np.asarray(z, np.longdouble)
                near, r = np.sqrt((w * w).sum(axis=1).min()), np.longdouble(params.r)
                a = (r * r - (near + r) ** 2) / np.longdouble(s)
                # Each dropped row at its worst direction, toward the row.
                toward = X.data[dropped] - z
                toward /= np.linalg.norm(toward, axis=1)[:, None]
                for i, u in zip(dropped, toward):
                    ref = self.reference(X, z, params, u.astype(np.longdouble))[i]
                    if np.linalg.norm(X.data[i] - z) > overflow:
                        # The kernel's term over all rows is exactly 0 there.
                        arg = _centred_args(z, X, params, u[None])[i, 0]
                        assert core._logistic_of_negated(np.array([arg]))[0] == 0.0
                        assert ref > 700
                    else:
                        # The term 1 / (1 + exp(ref)) is at most eps lam / (2n),
                        # compared in logs, as lam can underflow.
                        assert np.logaddexp(0, ref) >= np.log(2 * X.n / eps) + np.logaddexp(0, -a)
                    worst_checked += 1
                for u in [unit_direction(rng.standard_normal(d)) for _ in range(3)] + [e, -e]:
                    got = objective.folded_args(u).astype(np.longdouble)
                    ul = u.astype(np.longdouble)
                    ref, allowed = self.reference(X, z, params, ul), self.bound(X, z, params, ul)
                    assert np.all(np.abs(got - ref[kept]) <= allowed[kept])
                    # The loss: the logistic's slope is at most 1/4, and the
                    # dropped rows' terms move the loss by less than eps/2 of
                    # itself.
                    loss = sphere_loss(u, z, X, params)
                    exact = float(np.sum(1.0 / (1.0 + np.exp(ref))) / X.n)
                    assert abs(loss - exact) <= float(allowed.mean()) / 4 + 8 * (X.n + 8) * eps
        assert dropped_rows > 0 and worst_checked == dropped_rows
        if s == 1e-3:  # the ring straddles the keep radius of the first query
            first = core._Objective(z0, X, params)
            assert first.k < X.n
            ring_kept = np.isin(np.arange(len(data), X.n), _read_rows(first, X)).tolist()
            # Within the radius: kept.  At 1e-3 and 5% beyond it: dropped,
            # as the rounding allowance on ||x - z||**2 is far smaller.  The
            # rows within 1e-9 of it may go either way, and were checked
            # above when dropped.
            assert ring_kept[:2] == [True, True] and ring_kept[4:] == [False, False]


class TestRowCutLimit:
    """At the shipped ``_LOCKSTEP_ENTRIES`` the solver's kernel reads every
    row of a sample with ``n d`` at the limit, and drops the rows beyond the
    keep radius only above it."""

    @pytest.mark.parametrize("above", [0, 1], ids=["at-limit", "above-limit"])
    def test_far_query_drops_rows_only_above_the_limit(self, above):
        d = 2
        n = core._LOCKSTEP_ENTRIES // d + above  # n d = 4096 or 4098
        X = SampleSet(np.random.default_rng(73).standard_normal((n, d)))
        objective = core._Objective(np.array([4.0, 0.0]), X, DepthParams(r=1.0, s=0.01))
        if above:
            assert isinstance(objective._kept, np.ndarray) and 0 < objective.k < n
        else:
            assert objective._kept == slice(0, n) and objective.k == n


class TestRelativeReach:
    """Above ``_LOCKSTEP_ENTRIES`` the solver's kernel also drops the rows
    whose terms cannot reach ``eps/(2n)`` of the loss (``_solver_reach``),
    at the shipped constants."""

    @staticmethod
    def bi_gaussian(n):
        return datagen.gen_mixture(datagen.bi_gaussian_spec(2), n, 74)

    @pytest.mark.parametrize("n", [8191, 8192], ids=["below-reach-size", "reach-size"])
    def test_far_mode_is_dropped(self, n):
        # n (d + 2) = 32764 or 32768: the far mode goes only from 2**15 on.
        X = self.bi_gaussian(n)
        z = X.data[np.argmin(np.linalg.norm(X.data - 3.5, axis=1))]  # at a mode's centre
        objective = core._Objective(z, X, DepthParams(r=1.0, s=1.0))
        if n * (X.d + 2) < core._REACH_ENTRIES:
            assert objective._kept == slice(0, n) and objective.k == n
        else:
            assert objective.k <= 0.6 * n

    def test_every_row_is_kept_at_the_limit(self):
        X = self.bi_gaussian(core._LOCKSTEP_ENTRIES // 2)  # n d = 4096
        objective = core._Objective(X.data[0], X, DepthParams(r=1.0, s=1.0))
        assert objective._kept == slice(0, X.n) and objective.k == X.n

    def test_far_query_is_stationary_at_zero(self):
        X = self.bi_gaussian(3000)  # n d = 6000
        z, params = np.array([1e3, -1e3]), DepthParams(r=1.0, s=1.0)
        assert core._Objective(z, X, params).k == 0
        res = riemannian_descent(z, X, params)
        assert (res.value, res.iterations, res.converged) == (0.0, 0, True)

    @pytest.mark.parametrize("s", [1.0, 0.1])
    def test_value_is_the_loss_at_the_direction(self, s):
        X, params = self.bi_gaussian(8192), DepthParams(r=1.0, s=s)
        for z in X.data[:4]:
            assert core._Objective(z, X, params).k < X.n
            res = riemannian_descent(z, X, params)
            assert res.value == sphere_loss(res.direction, z, X, params)

    def test_rows_either_side_of_the_reach(self):
        # The query is a sample row at the sample mean, and every row the
        # reach turns on has an exact ||x - z||**2: its coordinates have few
        # bits, and the last row puts the mean at exactly 0.  So the nearest
        # row's computed value is exactly 0, and rounded up by the product's
        # allowance it moves the reach by about 1%.  Two far rows make that
        # allowance large (a spread of about 2**18), but not so large that
        # it keeps a row 1e-3 beyond the reach.
        params, d, n = DepthParams(r=1.0, s=0.01), 2, 4096
        grid = np.random.default_rng(75).integers(-12, 13, (n - 4, d)).astype(float)
        e = np.array([0.6, 0.8])
        radius = 2.0
        for _ in range(3):
            probes = np.round(radius * np.outer([1 - 1e-3, 1 + 1e-3], e) * 4096) / 4096
            rows = np.vstack([[[0.0, 0.0], [2.0**18, 0.0]], grid, probes])
            data = np.vstack([rows, -rows.sum(axis=0)])
            X = SampleSet(data)
            assert not X._mean.any()
            tol = core._rounding_tol(d)
            spread = X._spread
            near = math.sqrt(tol * spread * spread)
            overflow = core._keep_radius(params, 1.0, spread, tol)
            radius = min(overflow, core._solver_reach(params, 1.0 + 1e-9, n, near, spread, tol))
        assert radius < overflow
        objective = core._Objective(np.zeros(d), X, params)
        assert isinstance(objective._kept, np.ndarray)
        assert np.isin([X.n - 3, X.n - 2], _read_rows(objective, X)).tolist() == [True, False]


def _least_slab_size(d):
    """The least n whose centred matrix has ``_REACH_ENTRIES`` entries."""
    return -(-core._REACH_ENTRIES // (d + 2))


class TestSlab:
    """From ``_REACH_ENTRIES`` entries on, the rows of the centred matrix
    ascend in their projection on one axis, and the solver keeps a slice of
    them around the query's projection, or a mask over that slice
    (``core._row_mask``), at the shipped constants."""

    @staticmethod
    def sample(kind, d, n):
        if kind == "bi-gaussian":
            return datagen.gen_mixture(datagen.bi_gaussian_spec(d), n, (76, d)).data
        return np.random.default_rng((77, d)).standard_normal((n, d))

    @staticmethod
    def check(X, z, params):
        """Every row whose exact ``||x - z||`` is within the keep radius of
        the exact nearest distance is read, a mask keeps the rows that a
        mask made from the product with every row keeps, and the loss at a
        few directions is within ``TestCentredExpansion``'s allowance of the
        exact loss over every row.  Returns the objective."""
        z = np.asarray(z, dtype=float)
        objective = core._Objective(z, X, params)
        read = _read_rows(objective, X)
        assert len(np.unique(read)) == len(read) == objective.k
        d, n = X.d, X.n
        tol, rho = core._rounding_tol(d), 1.0 + 1e-9
        zt = (z - X._mean).tolist()
        zz = core._dot(zt, zt)
        spread = X._spread + math.sqrt(zz)
        w = X.data.astype(np.longdouble) - z.astype(np.longdouble)
        dist = np.sqrt((w * w).sum(axis=1))
        overflow = core._keep_radius(params, 1.0, spread, tol)
        radius = min(overflow, core._solver_reach(params, rho, n, float(dist.min()), spread, tol))
        assert np.isin(np.flatnonzero(dist <= radius), read).all()
        if isinstance(objective._kept, np.ndarray):
            # The product with every row, in the row blocks of the kernel.
            b = np.array([*(-2.0 * np.array(zt)), 1.0, zz])
            w2 = np.concatenate([X._centred[blk] @ b for blk in core._row_blocks(n, d + 2)])
            slack = tol * spread * spread
            near = math.sqrt(float(w2.min()) + slack)
            radius = min(overflow, core._solver_reach(params, rho, n, near, spread, tol))
            every = w2 <= radius * radius + slack
            if np.count_nonzero(every) > 1:
                assert np.array_equal(objective._kept, every)
        rng = np.random.default_rng(78)
        eps = np.finfo(np.float64).eps
        for u in [unit_direction(v) for v in rng.standard_normal((3, d))]:
            ul = u.astype(np.longdouble)
            ref = TestCentredExpansion.reference(X, z, params, ul)
            allowed = TestCentredExpansion.bound(X, z, params, ul)
            with np.errstate(over="ignore"):
                exact = float(np.sum(1.0 / (1.0 + np.exp(ref))) / n)
                loss = sphere_loss(u, z, X, params)
            assert abs(loss - exact) <= float(allowed.mean()) / 4 + 8 * (n + 8) * eps
        return objective

    @pytest.mark.parametrize("s", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", ["gaussian", "bi-gaussian"])
    def test_every_row_within_the_keep_radius_is_read(self, kind, d, s):
        n = _least_slab_size(d)
        X, params = SampleSet(self.sample(kind, d, n)), DepthParams(r=1.0, s=s)
        assert X._axis is not None
        between = np.zeros(d) if kind == "bi-gaussian" else np.full(d, 1.5)
        far = 30.0 * X._axis
        queries = [*X.data[:3], between, between + 0.5, far]
        if d > 1:  # far from the data, with a projection inside theirs
            queries.append(np.linalg.svd(X._axis[None])[2][-1] * 30.0)
        for z in queries:
            self.check(X, z, params)

    def test_mode_query_reads_a_slice_and_small_s_a_mask(self):
        d = 3
        X = SampleSet(self.sample("bi-gaussian", d, _least_slab_size(d)))
        z = X.data[np.argmin(np.linalg.norm(X.data - 3.5, axis=1))]  # at a mode's centre
        at_one = self.check(X, z, DepthParams(r=1.0, s=1.0))
        assert isinstance(at_one._kept, slice) and at_one.k <= 0.6 * X.n
        small = self.check(X, z, DepthParams(r=1.0, s=0.01))
        assert isinstance(small._kept, np.ndarray) and small.k < at_one.k

    def test_rows_ascend_in_their_keys(self):
        X = SampleSet(self.sample("bi-gaussian", 3, _least_slab_size(3)))
        order, keys = _row_order(X), X._keys
        assert np.array_equal(np.sort(order), np.arange(X.n))
        assert np.all(np.diff(keys) >= 0.0)
        np.testing.assert_array_equal(X._centred[:, :3], X.data[order] - X._mean)
        np.testing.assert_array_equal(keys, core._projection(X.data[order] - X._mean, X._axis))
        assert abs(float(np.linalg.norm(X._axis)) - 1.0) <= 4 * np.finfo(float).eps
        # The order is a function of the data alone.
        again = SampleSet(X.data.copy())
        assert np.array_equal(_row_order(again), order) and np.array_equal(again._axis, X._axis)

    @pytest.mark.parametrize(
        "d, n, sorted_rows",
        [
            (2, core._LOCKSTEP_ENTRIES // 2, False),  # n d = 4096
            (2, core._LOCKSTEP_ENTRIES // 2 + 1, False),  # n d = 4098, n (d + 2) = 8196
            (3, _least_slab_size(3) - 1, False),  # n (d + 2) = 32765
            (3, _least_slab_size(3), True),  # n (d + 2) = 32770
        ],
        ids=["at-lockstep-limit", "above-lockstep-limit", "below-slab-size", "slab-size"],
    )
    def test_rows_are_sorted_from_the_slab_size(self, d, n, sorted_rows):
        X = SampleSet(self.sample("bi-gaussian", d, n))
        order = _row_order(X)
        assert (order is not None) == sorted_rows
        rows = X.data if order is None else X.data[order]
        np.testing.assert_array_equal(X._centred[:, :d], rows - X._mean)
        z = X.data[np.argmin(np.linalg.norm(X.data - 3.5, axis=1))]
        for s in (1.0, 0.01):
            self.check(X, z, DepthParams(r=1.0, s=s))

    def test_lockstep_samples_keep_the_data_order(self):
        # n d <= _LOCKSTEP_ENTRIES gives n (d + 2) <= 3 _LOCKSTEP_ENTRIES for d >= 1.
        assert 3 * core._LOCKSTEP_ENTRIES < core._REACH_ENTRIES

    def test_duplicate_rows_tie_in_data_order(self):
        base = self.sample("bi-gaussian", 2, _least_slab_size(2) // 4)
        X = SampleSet(np.repeat(base, 4, axis=0))
        order = _row_order(X)
        assert order is not None
        ties = np.diff(X._keys) == 0.0
        assert np.count_nonzero(ties) >= 3 * len(base) - 3
        assert np.all(np.diff(order)[ties] > 0)  # equal keys keep data order
        for s in (1.0, 0.1, 0.01):
            for z in [*base[:3], np.zeros(2)]:
                self.check(X, z, DepthParams(r=1.0, s=s))

    @pytest.mark.parametrize("d", [1, 3])
    def test_all_rows_equal(self, d):
        X = SampleSet(np.full((_least_slab_size(d), d), 3.0))
        assert np.all(X._keys == 0.0) and np.array_equal(_row_order(X), np.arange(X.n))
        params = DepthParams(r=1.0, s=0.01)
        assert self.check(X, X.data[0], params).k == X.n
        for direction in np.eye(d):
            assert self.check(X, X.data[0] + 30.0 * direction, params).k == 0
        res = riemannian_descent(X.data[0], X, params)
        assert res.value == sphere_loss(res.direction, X.data[0], X, params)

    def test_far_query_with_an_empty_slab_is_stationary_at_zero(self):
        d = 3
        X = SampleSet(self.sample("bi-gaussian", d, _least_slab_size(d)))
        z, params = X._mean + 1e3 * X._axis, DepthParams(r=1.0, s=1.0)
        objective = core._Objective(z, X, params)
        assert isinstance(objective._kept, slice)
        assert objective._kept.start == objective._kept.stop and objective.k == 0
        res = riemannian_descent(z, X, params)
        assert (res.value, res.iterations, res.converged) == (0.0, 0, True)

    @pytest.mark.parametrize("scale", [1e-8, 1e8])
    def test_scaled_data(self, scale):
        d = 3
        data = self.sample("bi-gaussian", d, _least_slab_size(d))
        X, unit = SampleSet(scale * data), SampleSet(data)
        for s in (1.0, 0.01):
            scaled, params = DepthParams(r=scale, s=s * scale * scale), DepthParams(r=1.0, s=s)
            for z in [*data[:2], np.zeros(d)]:
                objective = self.check(X, scale * z, scaled)
                assert objective.k == core._Objective(z, unit, params).k
                res = riemannian_descent(scale * z, X, scaled)
                expected = riemannian_descent(z, unit, params).value
                assert res.value == pytest.approx(expected, abs=1e-12)

    def test_slab_with_row_blocks_matches_one_block(self, monkeypatch):
        d = 3
        X = SampleSet(self.sample("bi-gaussian", d, _least_slab_size(d)))
        queries = [X.data[0], X.data[1], np.zeros(d)]
        u = unit_direction(np.ones(d))

        def evaluate():
            out = []
            for s in (1.0, 0.01):
                for z in queries:
                    objective = core._Objective(z, X, DepthParams(r=1.0, s=s))
                    with np.errstate(over="ignore"):
                        p = objective.sigmoids(u).copy()
                    gradient = objective.gradient(p, u.tolist())
                    out.append((np.arange(X.n)[objective._kept], p, gradient))
            return out

        whole = evaluate()
        monkeypatch.setattr(core, "_ROW_BLOCK_ENTRIES", 64 * 5)
        for (kept, p, g), (kept_b, p_b, g_b) in zip(whole, evaluate()):
            assert np.array_equal(kept, kept_b)
            np.testing.assert_allclose(p_b, p, rtol=1e-13, atol=1e-300)
            np.testing.assert_allclose(g_b, g, rtol=1e-12, atol=1e-15)

    def test_rows_either_side_of_the_slab_edge(self):
        # In d = 1 the axis is 1 and each key is the row's centred value, so
        # the slab is the keep radius widened by the rounding allowance.  The
        # rows are dyadic and symmetric, 64 of them at the query, which the
        # sample therefore holds: the nearest sampled row's computed
        # ||x - z||**2 is 0 up to the mean's rounding.  Two rows on each side
        # lie 16 ulps within and beyond the widened edge, far closer to it
        # than any of the allowance's three terms.
        params, z = DepthParams(r=1.0, s=1.0), np.zeros(1)
        base = np.concatenate([np.repeat(np.arange(-80, 81) / 4.0, 68), np.zeros(64)])

        def edge(X):
            tol = core._rounding_tol(1)
            spread = X._spread + abs(float(z[0] - X._mean[0]))
            slack = tol * spread * spread
            overflow = core._keep_radius(params, 1.0, spread, tol)
            reach = core._solver_reach(params, 1.0 + 1e-9, X.n, math.sqrt(slack), spread, tol)
            radius = min(overflow, reach)
            assert spread <= overflow  # no row can overflow: rows go only by the reach
            allowance = [slack / radius, tol * radius, tol * spread]
            return math.sqrt(radius * radius + 2.0 * slack) * (1.0 + tol) + tol * spread, allowance

        half, _ = edge(SampleSet(np.concatenate([base, np.zeros(4)])[:, None]))
        ulps = 16 * np.spacing(half)
        probes = np.array([half - ulps, half + ulps])
        X = SampleSet(np.concatenate([base, probes, -probes])[:, None])
        half, allowance = edge(X)
        assert ulps < min(allowance) / 4
        key = float(z[0] - X._mean[0])
        inside, outside = X.n - 4 + np.array([0, 2]), X.n - 4 + np.array([1, 3])
        offsets = np.abs(X.data[:, 0] - X._mean[0] - key)
        assert np.all(offsets[inside] < half) and np.all(offsets[outside] > half)
        objective = core._Objective(z, X, params)
        assert isinstance(objective._kept, slice)
        read = _read_rows(objective, X)
        assert np.isin(inside, read).all() and not np.isin(outside, read).any()


class TestDroppedRows:
    """Samples beyond the keep radius leave the kernel; their terms were 0."""

    @pytest.mark.parametrize("s", [0.0, 0.01, 0.1, 1.0])
    def test_oracle_equals_all_rows_block(self, s):
        rng = np.random.default_rng(50)
        X = SampleSet(np.vstack([rng.standard_normal((60, 2)), rng.uniform(-40, 40, (20, 2))]))
        grid = DirectionGrid.generate(512, 2)
        params = DepthParams(r=1.0, s=s)
        dropped = 0
        for z in list(X.data[:5]) + list(rng.uniform(-3.0, 3.0, (5, 2))):
            dropped += X.n - len(core._Differences(z, X, params).rows)
            values = _all_rows_block(z, X, params, grid.directions)
            res = grid_oracle_sphere_depth(z, X, params, grid)
            assert res.index == int(np.argmin(values))
            assert res.value == values[res.index]
        assert dropped > 0

    def test_boundary_sample_counts_at_indicator_scale(self):
        # A sample at z + 2r e_1 lies on the ball around z + r e_1.
        z, r = np.array([0.5, -1.0]), 0.7
        X = SampleSet([z + [2.0 * r, 0.0]])
        res = grid_oracle_sphere_depth(z, X, DepthParams(r=r, s=0.0), DirectionGrid([[1.0, 0.0]]))
        assert res.value == 1.0

    @pytest.mark.parametrize("r", [1e-200, 1e-162])
    def test_tiny_radius_keeps_inside_samples(self, r):
        # r**2 underflows to 0 while the keep radius must stay near 2r; at
        # 1e-162, 4r**2 rounds to the least subnormal, so a radius of r
        # would drop samples the indicator counts.
        mult = np.array([0.5, 1.5, 1.9, 2.0, 2.2, 3.0, 1e3])
        angle = np.linspace(0.0, 2.0 * np.pi, mult.size, endpoint=False)
        X = SampleSet(r * mult[:, None] * np.column_stack([np.cos(angle), np.sin(angle)]))
        grid = DirectionGrid.generate(64, 2)
        params = DepthParams(r=r, s=0.0)
        values = _all_rows_block(np.zeros(2), X, params, grid.directions)
        res = grid_oracle_sphere_depth(np.zeros(2), X, params, grid)
        assert (res.index, res.value) == (int(np.argmin(values)), values.min())

    @pytest.mark.parametrize("r", [2.0**-660, 2.0**-540])
    def test_tiny_radius_matches_unit_radius(self, r):
        # Scaling the data and r by a power of two is exact, so the
        # indicator oracle must not see the scale.  The last three samples
        # lie beyond 2r and are in no ball.
        mult = np.array([0.5, 1.5, 1.9, 2.0, 2.2, 3.0, 1e3])
        angle = np.linspace(0.0, 2.0 * np.pi, mult.size, endpoint=False)
        unit_data = mult[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        grid = DirectionGrid.generate(64, 2)
        one = grid_oracle_sphere_depth(np.zeros(2), SampleSet(unit_data), DepthParams(1.0, 0.0), grid)
        res = grid_oracle_sphere_depth(
            np.zeros(2), SampleSet(r * unit_data), DepthParams(r=r, s=0.0), grid
        )
        assert (res.index, res.value) == (one.index, one.value)
        assert one.value <= 4 / 7

    def test_subnormal_radius_with_unit_scale_data(self):
        # In units of a subnormal r the far samples overflow to inf, which
        # must neither warn nor count: they lie in no ball.
        rng = np.random.default_rng(51)
        X = SampleSet(np.vstack([[[0.0, 0.0]], rng.standard_normal((20, 2))]))
        grid = DirectionGrid.generate(64, 2)
        res = grid_oracle_sphere_depth(np.zeros(2), X, DepthParams(r=1e-310, s=0.0), grid)
        assert (res.index, res.value) == (0, 1 / X.n)


class TestOracleKernel:
    """The grid oracle reads ``x - z`` directly, not the solver's centred
    matrix, so its rounding does not grow with the data's distance from
    their mean."""

    @pytest.mark.parametrize("s", [1e-3, 1.0])
    @pytest.mark.parametrize("offset", [0.0, 1e8])
    @pytest.mark.parametrize("sigma", [1.0, 1e3])
    def test_value_matches_longdouble_loss(self, sigma, offset, s):
        rng = np.random.default_rng((71, int(sigma), int(offset > 0), int(s == 1.0)))
        params = DepthParams(r=1.0, s=s)
        data = offset + sigma * rng.standard_normal((300, 3))
        X = SampleSet(data)
        grid = DirectionGrid.generate(1024, 3)
        e = unit_direction([1.0, 2.0, -1.0])
        mean = data.mean(axis=0)
        queries = [*data[:4], *(data[4:7] + 0.5 * e), mean, mean + 3.0 * sigma * e]
        for z in queries:
            res = grid_oracle_sphere_depth(z, X, params, grid)
            u = res.direction.astype(np.longdouble)
            with np.errstate(over="ignore"):
                terms = 1.0 / (1.0 + np.exp(TestCentredExpansion.reference(X, z, params, u)))
            assert abs(res.value - float(terms.sum() / X.n)) <= 1e-12

    def test_leaves_centred_matrix_unbuilt(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the oracle called _row_mask")

        monkeypatch.setattr(core, "_row_mask", fail)
        rng = np.random.default_rng(72)
        X = SampleSet(np.vstack([rng.standard_normal((50, 2)), rng.uniform(-40, 40, (10, 2))]))
        grid = DirectionGrid.generate(256, 2)
        for s in (0.01, 1.0):  # at s = 0.01 rows lie beyond the keep radius
            grid_oracle_sphere_depth([0.1, 0.2], X, DepthParams(r=1.0, s=s), grid)
        assert "_centred" not in vars(X)


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


def _oracle(kind, z, X, grid):
    """The halfspace oracle, or the sphere oracle at r = 1 and s = ``kind``."""
    if kind == "halfspace":
        return grid_oracle_halfspace_depth(z, X, grid)
    return grid_oracle_sphere_depth(z, X, DepthParams(r=1.0, s=kind), grid)


class TestOracleBlocks:
    """A grid split over many blocks gives the one-block value and index."""

    @pytest.mark.parametrize("kind", [0.0, 0.5, "halfspace"])
    def test_blocks_match_one_block(self, kind, monkeypatch):
        rng = np.random.default_rng(11)
        X = SampleSet(rng.standard_normal((40, 2)))
        grid = DirectionGrid.generate(300, 2)
        queries = list(rng.uniform(-2.0, 2.0, size=(8, 2))) + [X.data[3]]
        assert core._ORACLE_BLOCK_ENTRIES // X.n >= grid.m
        whole = [_oracle(kind, z, X, grid) for z in queries]
        monkeypatch.setattr(core, "_ORACLE_BLOCK_ENTRIES", 7 * X.n)  # 43 blocks
        for z, one in zip(queries, whole):
            res = _oracle(kind, z, X, grid)
            assert (res.value, res.index) == (one.value, one.index)

    @pytest.mark.parametrize(
        "kind, z, rows",
        [
            (0.0, [1e3, 1e3], [[0.0, 0.0], [1.0, -1.0], [0.5, 2.0]]),
            (0.5, [1e3, 1e3], [[0.0, 0.0], [1.0, -1.0], [0.5, 2.0]]),
            ("halfspace", [2.0, -1.0], [[2.0, -1.0]]),
        ],
    )
    def test_all_ties_go_to_index_zero(self, kind, z, rows, monkeypatch):
        X = SampleSet(rows)
        grid = DirectionGrid.generate(64, 2)
        monkeypatch.setattr(core, "_ORACLE_BLOCK_ENTRIES", 5 * X.n)  # 13 blocks
        res = _oracle(kind, z, X, grid)
        assert res.value == (1.0 if kind == "halfspace" else 0.0)
        assert res.index == 0


class TestRowBlocks:
    """One direction's products split into row blocks give the one-block
    objective, up to the order of the gradient's sums."""

    @pytest.mark.parametrize("k", [0, 1, 63, 64, 1000, 52_416, 52_417, 100_000])
    @pytest.mark.parametrize("width", [3, 5, 10])
    def test_blocks_cover_rows(self, k, width):
        blocks = core._row_blocks(k, width)
        assert blocks[0].start == 0 and blocks[-1].stop >= k
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [len(range(k)[block]) for block in blocks]
        assert sum(sizes) == k
        assert all(size % 64 == 0 for size in sizes[:-1])
        assert max(sizes) * width <= core._ROW_BLOCK_ENTRIES

    @pytest.mark.parametrize("s", [1.0, 0.01])
    def test_blocked_objective_matches_one_block(self, s, monkeypatch):
        monkeypatch.setattr(core, "_LOCKSTEP_ENTRIES", 0)  # rows are dropped at n d = 3000
        rng = np.random.default_rng(21)
        X = SampleSet(rng.standard_normal((1000, 3)))
        params = DepthParams(r=1.0, s=s)
        queries = [X.data[5], [0.3, -0.2, 0.1], [2.5, 2.0, -1.5], [29.0, 0.0, 0.0]]
        directions = [unit_direction(v) for v in rng.standard_normal((4, 3))]

        def evaluate():
            out = []
            for z in queries:
                objective = core._Objective(np.asarray(z), X, params)
                kept = np.arange(X.n)[objective._kept]
                for u in directions:
                    with np.errstate(over="ignore"):
                        p = objective.sigmoids(u).copy()
                    out.append((kept, objective.k, p, objective.gradient(p, u.tolist())))
            return out

        whole = evaluate()
        assert X.n * (X.d + 2) <= core._ROW_BLOCK_ENTRIES  # one block by default
        monkeypatch.setattr(core, "_ROW_BLOCK_ENTRIES", 64 * 5)  # 16 blocks of all rows
        blocked = evaluate()
        assert any(k < X.n for _, k, *_ in whole), "expected a query with dropped rows"
        for (kept, k, p, g), (kept_b, k_b, p_b, g_b) in zip(whole, blocked):
            assert k_b == k
            assert np.array_equal(kept, kept_b)
            np.testing.assert_allclose(p_b, p, rtol=1e-13, atol=1e-300)
            np.testing.assert_allclose(g_b, g, rtol=1e-12, atol=1e-15)


def _assert_full_scan(z, X, params, grid):
    """The oracle's value and index are those of the all-rows block."""
    values = _all_rows_block(z, X, params, grid.directions)
    res = grid_oracle_sphere_depth(z, X, params, grid)
    assert (res.index, res.value) == (int(np.argmin(values)), values[np.argmin(values)])


def _recursive_cells(directions):
    """The cells of ``core._partition`` split one cell at a time: a median
    split on the widest coordinate, equal coordinates by grid index."""
    unit = directions / np.linalg.norm(directions, axis=1)[:, None]
    cells, todo = [], [np.arange(len(unit))]
    while todo:
        idx = todo.pop()
        if idx.size <= core._cell_size(directions.shape[1]):
            cells.append(np.sort(idx))
            continue
        pts = unit[idx]
        idx = idx[np.lexsort((idx, pts[:, np.argmax(np.ptp(pts, axis=0))]))]
        todo += [idx[: idx.size // 2], idx[idx.size // 2 :]]
    return sorted(cells, key=lambda c: c[0])


class TestCellBounds:
    """Skipping the cells whose lower bound exceeds the best value found
    leaves the oracle's value and index bit for bit those of a full scan."""

    @pytest.mark.parametrize("d, m", [(2, 4096), (3, 4096), (5, 1024), (5, 64)])
    def test_partition(self, d, m):
        grid = DirectionGrid.generate(m, d)
        cells = grid._cells
        sizes = np.bincount(cells.cell_of)
        assert sizes.min() >= 1 and sizes.max() <= core._cell_size(d)
        assert np.array_equal(cells.firsts, np.sort([np.flatnonzero(cells.cell_of == k)[0]
                                                     for k in range(sizes.size)]))
        np.testing.assert_allclose(np.linalg.norm(cells.centers, axis=1), 1.0, atol=1e-15)
        # Each cell's chord covers its members as stored, measured in
        # np.longdouble, and is no wider than rounding needs.
        gaps = np.linalg.norm(grid.directions.astype(np.longdouble)
                              - cells.centers[cells.cell_of], axis=1)
        widest = np.zeros(sizes.size, dtype=np.longdouble)
        np.maximum.at(widest, cells.cell_of, gaps)
        assert np.all(widest <= cells.chords) and np.all(cells.chords <= widest * (1 + 1e-13))
        again = core._partition(grid.directions.copy())
        assert all(np.array_equal(a, b) for a, b in zip(cells, again))
        assert grid._cells is cells

    @pytest.mark.parametrize(
        "directions",
        [
            DirectionGrid.generate(4096, 2).directions,
            DirectionGrid.generate(1025, 3).directions,
            DirectionGrid.generate(1024, 5).directions,
            DirectionGrid.generate(100, 2).directions,
            np.tile([[1.0], [-1.0]], (40, 1)),
            np.repeat(DirectionGrid.generate(40, 3).directions, 3, axis=0),
        ],
        ids=["d2", "d3", "d5", "d2-small", "d1-tiled", "d3-repeated"],
    )
    def test_partition_matches_recursive_splits(self, directions):
        cells = core._partition(directions)
        members = [np.flatnonzero(cells.cell_of == k) for k in range(cells.firsts.size)]
        expected = _recursive_cells(directions)
        assert len(members) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(members, expected))

    @pytest.mark.parametrize("block", [1, 2, 8, 100])
    def test_scan_values_match_full_scan(self, block):
        # 65 directions in blocks of 8 leave the last one alone, where numpy
        # and BLAS take other paths; every subset must see the full scan's
        # values bit for bit.
        rng = np.random.default_rng(64)
        X = SampleSet(rng.standard_normal((500, 3)))
        block_values = core._Differences(np.zeros(3), X, DepthParams(r=1.0, s=0.1)).values
        grid = DirectionGrid.generate(65, 3)
        full = np.concatenate(
            [block_values(grid.directions[k : k + block]) for k in range(0, grid.m, block)]
        )
        subsets = [[64], [3], [0, 64], [7, 8], [63, 64], list(range(0, 65, 3))]
        subsets += [sorted(rng.choice(65, k, replace=False)) for k in (2, 5, 30)]
        for idx in map(np.array, subsets):
            assert np.array_equal(core._scan_values(grid, idx, block, block_values), full[idx])

    @pytest.mark.parametrize("s", [0.0, 1e-3, 0.01, 0.1, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_equals_all_rows_block(self, d, s):
        rng = np.random.default_rng((60, d))
        base = np.vstack([rng.standard_normal((50, d)), rng.uniform(-8.0, 8.0, (10, d))])
        if d == 1:  # the 0-sphere repeated, so that there are several cells
            grid = DirectionGrid(np.tile([[1.0], [-1.0]], (40, 1)))
        else:
            grid = DirectionGrid.generate(1024, d, seed=2)
        queries = list(base[:2]) + list(rng.uniform(-3.0, 3.0, (3, d))) + [np.full(d, 10.0)]
        for r, lam in itertools.product((0.3, 1.0), (1e-4, 1.0, 1e4)):
            X = SampleSet(lam * base)
            params = DepthParams(r=lam * r, s=lam**2 * s)
            for z in queries:
                _assert_full_scan(lam * z, X, params, grid)

    @pytest.mark.parametrize("s", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_minimum_outside_the_first_cells(self, d, s, monkeypatch):
        # The oracle evaluates the least-bounded cells first, then every cell
        # whose bound could still beat their best.  A minimum in a cell of
        # the second round must still carry the full scan's bits.  A first
        # round of one cell sends more minima to the second.
        monkeypatch.setattr(core, "_FIRST_CELLS", 1)
        X = datagen.gen_mixture(datagen.bi_gaussian_spec(d), 120, (66, d))
        rng = np.random.default_rng((67, d))
        queries = [
            *X.data[rng.choice(X.n, 8, replace=False)],  # sample rows
            *rng.uniform(-4.0, 4.0, (8, d)),  # uniform over the data's box
            np.full(d, 6.0), np.full(d, -9.0),  # far from the data
        ]
        grid = DirectionGrid.generate(2048, d, seed=3)
        cells, params = grid._cells, DepthParams(r=1.0, s=s)
        second_round = 0
        for z in queries:
            _assert_full_scan(z, X, params, grid)
            lower = core._Differences(z, X, params).cell_bounds(cells, slice(None))
            first = np.argsort(lower, kind="stable")[: core._FIRST_CELLS]
            index = grid_oracle_sphere_depth(z, X, params, grid).index
            second_round += int(cells.cell_of[index] not in first)
        assert second_round > 0

    def test_tied_cells_below_the_best_index_are_opened(self):
        # At s = 0 the values are counts, and a cell's bound can equal the
        # best value of the first round; such a cell holding a lower index
        # must still be evaluated, or the tie would not break to it.
        grid = DirectionGrid.generate(512, 3)
        cells, params = grid._cells, DepthParams(r=1.0, s=0.0)
        tied = 0
        for seed in range(10):
            rng = np.random.default_rng((68, seed))
            X = SampleSet(rng.standard_normal((10, 3)))
            for z in [*X.data[:3], *rng.uniform(-2.0, 2.0, (3, 3))]:
                _assert_full_scan(z, X, params, grid)
                lower = core._Differences(z, X, params).cell_bounds(cells, slice(None))
                first = np.argsort(lower, kind="stable")[: core._FIRST_CELLS]
                res = grid_oracle_sphere_depth(z, X, params, grid)
                cell = cells.cell_of[res.index]
                tied += int(cell not in first and lower[cell] == res.value)
        assert tied > 0

    @pytest.mark.parametrize("s", [0.0, 0.01, 1.0])
    def test_custom_grids(self, s):
        # Compact data, so that no row is dropped: a one-direction block sums
        # pairwise, and a pairwise sum over fewer rows rounds differently.
        rng = np.random.default_rng(61)
        X = SampleSet(0.3 * rng.standard_normal((40, 3)))
        base = DirectionGrid.generate(500, 3).directions
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        grids = [
            DirectionGrid(base @ rotation.T),
            DirectionGrid(base[:1]),
            DirectionGrid(base[:20]),
            DirectionGrid(np.repeat(base[:40], 3, axis=0)),
            DirectionGrid(np.tile(base[:10], (12, 1))),
            DirectionGrid(base * (1.0 + 8e-13)),  # within 1e-12 of unit: kept as given
        ]
        assert np.abs(np.linalg.norm(grids[-1].directions, axis=1) - 1.0).max() > 5e-13
        params = DepthParams(r=0.8, s=s)
        for grid in grids:
            for z in list(X.data[:3]) + list(rng.uniform(-0.8, 0.8, (3, 3))) + [[9.0, 0.0, 0.0]]:
                _assert_full_scan(np.asarray(z), X, params, grid)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bound_is_met_opposite_the_farthest_member(self, d):
        # One sample along c - u, for the member u farthest from its cell's
        # center c, meets the chord bound: <w, u> = <w, c> - h ||w||.  The
        # bound must then equal the least member value to rounding and not
        # exceed it, with chords measured on directions stored 8e-13 off
        # unit norm (as normalised directions they would be short by
        # about 4e-13 h, far more than the rounding allowance).
        grid = DirectionGrid(DirectionGrid.generate(64, d, seed=6).directions * (1.0 + 8e-13))
        cells = grid._cells
        for s, length in ((1e-2, 0.1), (1e-4, 0.01)):
            for k in range(cells.firsts.size):
                members = np.flatnonzero(cells.cell_of == k)
                gaps = np.linalg.norm(grid.directions[members] - cells.centers[k], axis=1)
                away = cells.centers[k] - grid.directions[members[np.argmax(gaps)]]
                X = SampleSet([length * away / np.linalg.norm(away)])
                kernel = core._Differences(np.zeros(d), X, DepthParams(r=1.0, s=s))
                least = kernel.values(grid.directions)[members].min()
                lower = kernel.cell_bounds(cells, slice(k, k + 1))[0]
                assert least * (1.0 - 1e-9) <= lower <= least

    @pytest.mark.parametrize("s", [1e-3, 1.0])
    @pytest.mark.parametrize("d", [2, 3])
    def test_data_far_wider_than_the_ball(self, d, s):
        # r = 1 in data of spread 1e3 offset by 1e8: most rows lie far
        # beyond the ball, and the few kept ones must give the full scan's
        # bits.  The oracle reads x - z directly, so neither the offset nor
        # the spread widens an argument's rounding.
        rng = np.random.default_rng((65, d))
        X = SampleSet(1e8 + 1e3 * rng.standard_normal((60, d)))
        grid = DirectionGrid.generate(1024, d)
        params = DepthParams(r=1.0, s=s)
        near = X.data[6] + 0.5 * unit_direction(rng.standard_normal(d))
        for z in list(X.data[:6]) + [near]:
            _assert_full_scan(z, X, params, grid)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_wide_cells(self, d):
        # Grids of 33 to 100 directions have wide cells, with chords of up
        # to 1.34-1.42 (about a right angle), where the bound is loosest.
        rng = np.random.default_rng((63, d))
        X = SampleSet(rng.standard_normal((30, d)))
        for m, s in itertools.product((33, 48, 64, 100), (0.0, 0.1, 1.0)):
            grid = DirectionGrid.generate(m, d, seed=m)
            for z in list(X.data[:4]) + list(rng.uniform(-1.5, 1.5, (4, d))):
                _assert_full_scan(z, X, DepthParams(r=1.0, s=s), grid)

    @staticmethod
    def evaluated_share(monkeypatch, X, queries, params, grid):
        """The share of the grid's directions, over ``queries``, that reach
        ``_Differences.values``; each oracle result must be the full scan's."""
        evaluated = [0]
        values = core._Differences.values

        def counting(self, directions):
            evaluated[0] += len(directions)
            return values(self, directions)

        monkeypatch.setattr(core._Differences, "values", counting)
        for z in queries:
            _assert_full_scan(z, X, params, grid)
        return evaluated[0] / (len(queries) * grid.m)

    @pytest.mark.parametrize("s", [0.0, 0.01, 1.0])
    def test_most_directions_are_skipped(self, s, monkeypatch):
        spec = datagen.bi_gaussian_spec(2)
        X = datagen.gen_mixture(spec, 200, (62, 1))
        queries = X.data[np.random.default_rng(62).choice(200, 20, replace=False)]
        grid = DirectionGrid.generate(4096, 2)
        share = self.evaluated_share(monkeypatch, X, queries, DepthParams(r=1.0, s=s), grid)
        assert 0 < share <= 0.35

    @pytest.mark.parametrize(
        "where, d, s, most",
        [("far", 2, 0.1, 0.1), ("far", 2, 0.01, 0.1),
         ("self", 2, 0.0, 0.06), ("self", 5, 0.0, 0.25)],
    )
    def test_plateaus_and_self_ties_are_skipped(self, where, d, s, most, monkeypatch):
        # Queries outside the data have a plateau of tiny values (1e-20 to
        # 1e-94 at s = 0.1): only an allowance for the bound's rounding
        # relative to its value lets a cell's bound rise above the best one.
        # At s = 0 a sample at the query has t = 0 exactly and counts as
        # inside in every direction; a bound that lowers its t misses that
        # count in every cell, and nearly every cell opens.
        X = datagen.gen_mixture(datagen.bi_gaussian_spec(d), 200, (71, d))
        rng = np.random.default_rng((72, d))
        if where == "far":
            queries = rng.uniform(-4.0, 4.0, (30, d))
        else:
            queries = X.data[rng.choice(X.n, 20, replace=False)]
        grid = DirectionGrid.generate(4096, d)
        share = self.evaluated_share(monkeypatch, X, queries, DepthParams(r=1.0, s=s), grid)
        assert 0 < share <= most

    @pytest.mark.parametrize("lam", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("s", [0.0, 0.01, 0.1, 1.0])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bound_below_every_member(self, d, s, lam):
        # Each cell's bound is at most the least value that the kernel gives
        # its members, on grids generated, built from directions of any norm
        # and kept off unit norm by up to 8e-13.
        rng = np.random.default_rng((73, d))
        X = datagen.gen_mixture(datagen.bi_gaussian_spec(d), 150, (74, d))
        queries = [
            *X.data[rng.choice(X.n, 4, replace=False)],  # sample rows
            *rng.uniform(-4.0, 4.0, (4, d)),  # uniform over the data's box
            np.full(d, 6.0), np.full(d, -9.0),  # far from the data
        ]
        generated = DirectionGrid.generate(1024, d, seed=5).directions
        grids = [
            DirectionGrid(generated),
            DirectionGrid(3.0 * rng.standard_normal((700, d))),
            DirectionGrid(generated * (1.0 + 8e-13)),
        ]
        X, params = SampleSet(lam * X.data), DepthParams(r=lam, s=lam * lam * s)
        positive = 0
        for grid in grids:
            cells = grid._cells
            for z in queries:
                kernel = core._Differences(lam * z, X, params)
                with np.errstate(over="ignore"):
                    values = kernel.values(grid.directions)  # as the full scan gives them
                    lower = kernel.cell_bounds(cells, slice(None))
                least = np.full(cells.firsts.size, np.inf)
                np.minimum.at(least, cells.cell_of, values)
                assert np.all(lower <= least)
                positive += int(np.sum(lower > 0.0))
        assert positive > 0


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

    @pytest.mark.parametrize("lam", [1e-8, 0.5, 2.0, 10.0, 1e8])
    def test_scaling_law(self, lam):
        rng = np.random.default_rng(43)
        X = SampleSet(rng.standard_normal((60, 2)))
        grid = DirectionGrid.generate(256, 2)
        z = rng.uniform(-2, 2, 2)
        for s in (0.9, 0.01):  # at s = 0.01 rows lie beyond the keep radius
            v1 = grid_oracle_sphere_depth(z, X, DepthParams(r=1.2, s=s), grid).value
            v2 = grid_oracle_sphere_depth(
                lam * z, SampleSet(lam * X.data), DepthParams(r=lam * 1.2, s=lam**2 * s), grid
            ).value
            assert abs(v1 - v2) <= 1e-12
        i1 = grid_oracle_sphere_depth(z, X, DepthParams(r=1.2, s=0.0), grid).value
        i2 = grid_oracle_sphere_depth(
            lam * z, SampleSet(lam * X.data), DepthParams(r=lam * 1.2, s=0.0), grid
        ).value
        assert i1 == i2
