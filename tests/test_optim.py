"""Tests for the manifold descent solver and its geometric primitives."""

import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheredepth import core, optim
from spheredepth import (
    DepthParams,
    DepthResult,
    DirectionGrid,
    OptimizerConfig,
    SampleSet,
    batch_depth,
    bi_gaussian_spec,
    default_params,
    exp_map,
    gen_mixture,
    gen_truncated_gaussian,
    grid_oracle_sphere_depth,
    riemannian_descent,
    sigmoid,
    sphere_depth,
    sphere_loss,
    sphere_loss_gradient,
    standardize,
    tangent_project,
    unit_direction,
)


class Step(NamedTuple):
    """One trial step of a solve, as seen from outside the solver."""

    start: np.ndarray  # the step's start, the current iterate
    start_loss: float  # the loss at the step's start
    alpha: float
    loss: float  # the loss at the trial direction
    accepted: bool  # the solver moved to the trial direction


class Watched(NamedTuple):
    result: DepthResult
    steps: list[Step]
    losses: list[float]  # the loss of every direction evaluated, start first
    kernel_calls: int


@pytest.fixture
def watched(monkeypatch):
    """``solve(z, X, params) -> Watched``.

    Records the angle and the end of each geodesic trial step, the loss of
    every direction the solver evaluates, and its kernel calls.  A step was
    accepted when the next step, or the result, starts from its end."""
    trials, losses, calls = [], [], []
    geodesic = optim._geodesic
    sigmoids, kernel = core._Objective.sigmoids, core._Objective.folded_args

    def recording_geodesic(u, v, alpha):
        out = geodesic(u, v, alpha)
        trials.append((u, alpha, out))
        return out

    def recording_sigmoids(objective, u):
        p = sigmoids(objective, u)
        losses.append(float(p.sum()) / objective.n)
        return p

    def counting(objective, U):
        calls.append(U)
        return kernel(objective, U)

    monkeypatch.setattr(optim, "_geodesic", recording_geodesic)
    monkeypatch.setattr(core._Objective, "sigmoids", recording_sigmoids)
    monkeypatch.setattr(core._Objective, "folded_args", counting)

    def solve(z, X, params):
        for record in (trials, losses, calls):
            record.clear()
        res = riemannian_descent(z, X, params)
        assert len(losses) == 1 + len(trials)
        nexts = [u for u, _, _ in trials[1:]] + [res.direction]
        steps, current = [], losses[0]
        for (start, alpha, end), nxt, loss in zip(trials, nexts, losses[1:]):
            accepted = np.array_equal(nxt, end)
            assert accepted or np.array_equal(nxt, start)
            steps.append(Step(start, current, alpha, loss, accepted))
            current = loss if accepted else current
        assert res.value == current
        return Watched(res, steps, list(losses), len(calls))

    return solve


# The solver loop as it was before its d-vector steps moved to floats, kept
# with the helpers it called (numpy on d-vectors, BLAS dot products) as the
# reference for TestParityWithArrayLoop; only its gradient's product reads
# the objective's centred rows in place of ``X - z``.


def _array_tangent_project(u, g) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if u.shape != g.shape:
        raise ValueError(f"shape mismatch: u {u.shape} vs g {g.shape}")
    return g - np.dot(g, u) * u


def _array_geodesic(u: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    out = math.cos(alpha) * u + math.sin(alpha) * v
    return out / np.linalg.norm(out)


def _array_gradient(objective, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    c = 1.0 - p
    c *= p
    g = c @ objective.rows[:, : u.size]
    g -= float(c.sum()) * (np.array(objective.zt) + objective.r * u)
    g *= 2.0 * objective.r / (objective.s * objective.n)
    return g


def _array_initial_direction(z: np.ndarray, X: SampleSet, init: str) -> np.ndarray:
    anchor = X.data.mean(axis=0)
    if init == "mean-minus-z":
        anchor = anchor - z
    norm = float(np.linalg.norm(anchor))
    if norm < 1e-12:
        # Degenerate anchor (e.g. centered data): fall back to e_1.
        anchor = np.zeros(X.d)
        anchor[0] = 1.0
        return anchor
    return anchor / norm


def _array_riemannian_descent(z, X, params, cfg=None) -> DepthResult:
    if cfg is None:
        cfg = OptimizerConfig()
    if params.s <= 0:
        raise ValueError("riemannian_descent requires s > 0")
    z = core._as_vector(z, X.d, name="query point")
    objective = core._Objective(z, X, params)

    u = _array_initial_direction(z, X, cfg.init)
    # Far samples overflow exp in the sigmoid to an exact 0; the error state
    # is entered once per solve, as entering it costs about 1.4 us.
    with np.errstate(over="ignore"):
        p = objective.sigmoids(u)
        cur_loss = float(p.sum()) / objective.n
        if X.d == 1:
            # {-1, +1} has no tangent direction: try the other point once.
            other = float(objective.sigmoids(-u).sum()) / objective.n
            if other < cur_loss:  # a tie keeps the start
                u, cur_loss = -u, other
            return DepthResult(cur_loss, u, iterations=1, converged=True)

        grad = _array_gradient(objective, p, u)
        alpha = optim._ALPHA0
        converged = False
        steps = 0
        for it in range(1, optim._MAX_ITER + 1):
            tangent = _array_tangent_project(u, grad)
            tnorm = float(np.linalg.norm(tangent))
            if tnorm < optim._STATIONARY_NORM:
                converged = True
                break
            new_u = _array_geodesic(u, tangent / -tnorm, alpha)
            # One pass over the data per trial direction; a move reuses its
            # sigmoids for the gradient at the new iterate.
            p = objective.sigmoids(new_u)
            new_loss = float(p.sum()) / objective.n
            steps = it

            if new_loss > cur_loss:
                # The minimiser of the quadratic through phi(0) = cur_loss,
                # phi'(0) = -tnorm and phi(alpha) = new_loss.  The rise is
                # positive, so it lies below alpha/2 but for rounding.
                minimiser = tnorm * alpha * alpha / (2.0 * (new_loss - cur_loss + tnorm * alpha))
                alpha = min(max(minimiser, optim._SHRINK_MIN * alpha), optim._SHRINK_MAX * alpha)
            elif cur_loss - new_loss < optim._TOL:
                if new_loss < cur_loss:  # an exact tie keeps the step's start
                    u, cur_loss = new_u, new_loss
                converged = True
                break
            else:
                u, cur_loss = new_u, new_loss
                grad = _array_gradient(objective, p, u)

    return DepthResult(value=cur_loss, direction=u, iterations=steps, converged=converged)


class TestTangentProject:
    def test_coordinate_case(self):
        np.testing.assert_allclose(tangent_project([1.0, 0.0], [3.0, 4.0]), [0.0, 4.0])

    def test_tangent_vector_unchanged(self):
        u = np.array([0.0, 1.0, 0.0])
        g = np.array([2.0, 0.0, -1.0])
        np.testing.assert_array_equal(tangent_project(u, g), g)

    def test_radial_vector_vanishes(self):
        u = unit_direction([1.0, 2.0, 2.0])
        np.testing.assert_allclose(tangent_project(u, 3.5 * u), 0.0, atol=1e-14)

    @given(st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_result_orthogonal(self, d, seed):
        rng = np.random.default_rng(seed)
        u = unit_direction(rng.standard_normal(d))
        g = rng.standard_normal(d) * 10
        proj = tangent_project(u, g)
        assert abs(np.dot(proj, u)) <= 1e-12 * max(np.linalg.norm(g), 1.0)


class TestExpMap:
    def setup_method(self):
        self.u = np.array([1.0, 0.0, 0.0])
        self.v = np.array([0.0, 1.0, 0.0])

    def test_zero_angle(self):
        np.testing.assert_allclose(exp_map(self.u, self.v, 0.0), self.u, atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(exp_map(self.u, self.v, np.pi / 2), self.v, atol=1e-15)

    def test_half_turn_antipode(self):
        np.testing.assert_allclose(exp_map(self.u, self.v, np.pi), -self.u, atol=1e-15)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = unit_direction(rng.standard_normal(4))
            v = unit_direction(tangent_project(u, rng.standard_normal(4)))
            out = exp_map(u, v, rng.uniform(0, np.pi))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            exp_map([1.0, 0.0], [0.8, 0.6], 0.5)


class TestOptimizerConfig:
    def test_defaults(self):
        assert OptimizerConfig().init == "paper-mean"

    def test_validation(self):
        for init in ("whatever", "fixed-direction", "seeded-random"):
            with pytest.raises(ValueError, match="init must be one of"):
                OptimizerConfig(init=init)


class TestRiemannianDescent:
    def test_stationary_at_single_sample(self):
        X = SampleSet([[0.5, -0.5]])
        res = riemannian_descent([0.5, -0.5], X, DepthParams(r=1.0, s=1.0))
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.iterations == 0
        assert res.converged

    def test_matches_grid_oracle_gaussian(self):
        rng = np.random.default_rng(123)
        X = SampleSet(rng.standard_normal((500, 2)))
        params = DepthParams(r=1.0, s=1.0)
        res = riemannian_descent([0.0, 0.0], X, params)
        oracle = grid_oracle_sphere_depth([0.0, 0.0], X, params, DirectionGrid.generate(4096, 2))
        assert abs(res.value - oracle.value) <= 5e-3

    def test_deep_outlier_collapses(self):
        rng = np.random.default_rng(7)
        X = SampleSet(rng.standard_normal((1000, 3)))
        params = DepthParams(r=1.0, s=1.0)
        res = riemannian_descent([10.0, 10.0, 10.0], X, params)
        assert res.value < 1e-6
        # Analytic cap from the minimal sample-to-center distance.
        center = np.array([10.0, 10.0, 10.0]) + params.r * res.direction
        min_dist = np.linalg.norm(X.data - center, axis=1).min()
        assert res.value <= sigmoid(params.r**2 - min_dist**2, params.s)

    def test_value_equals_loss_at_direction(self):
        rng = np.random.default_rng(9)
        X = SampleSet(rng.standard_normal((100, 3)))
        params = DepthParams(r=1.0, s=0.5)
        res = riemannian_descent([0.2, 0.1, -0.3], X, params)
        assert res.value == pytest.approx(
            sphere_loss(res.direction, [0.2, 0.1, -0.3], X, params), abs=1e-12
        )
        assert abs(np.linalg.norm(res.direction) - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "seed, z", [(10, [0.5, 0.5]), (11, [1.0, -0.5]), (0, [0.5, -0.2])],
        ids=["seed10", "seed11", "seed0"],
    )
    def test_step_rule(self, watched, seed, z):
        # Accepted steps never raise the loss and keep the angle.  After a
        # rejected step the next angle is the minimiser of the quadratic
        # through phi(0), phi'(0) = -||tangent gradient|| and phi(alpha),
        # clamped to [alpha/4, alpha/2].  Every trial costs one kernel call.
        X = SampleSet(np.random.default_rng(seed).standard_normal((200, 2)))
        lower = inside = 0
        for s in (0.3, 1.0, 0.1, 0.01):
            params = DepthParams(r=1.0, s=s)
            res, steps, _, calls = watched(z, X, params)
            assert res.iterations == len(steps) >= 5
            assert calls == 1 + res.iterations
            for step in steps:
                assert not step.accepted or step.loss <= step.start_loss
            assert not all(step.accepted for step in steps), "expected a rejected step"
            for step, nxt in zip(steps, steps[1:]):
                if step.accepted:
                    assert nxt.alpha == step.alpha
                    continue
                grad = sphere_loss_gradient(step.start, z, X, params)
                tnorm = np.linalg.norm(tangent_project(step.start, grad))
                rise = step.loss - step.start_loss
                quadratic = tnorm * step.alpha**2 / (2 * (rise + tnorm * step.alpha))
                expected = min(max(quadratic, step.alpha / 4), step.alpha / 2)
                assert nxt.alpha == pytest.approx(expected, rel=1e-12, abs=0)
                # rise > 0 puts the minimiser below alpha/2; the upper clamp
                # binds only where rounding lifts it to alpha/2.
                assert quadratic <= step.alpha / 2 * (1 + 1e-15)
                lower += quadratic < step.alpha / 4
                inside += step.alpha / 4 < quadratic < step.alpha / 2
        assert lower and inside, "expected the lower clamp to bind and the minimiser inside"

    @pytest.mark.parametrize("s", [1.0, 0.1, 0.01])
    def test_current_iterate_is_best_visited(self, monkeypatch, watched, s):
        # Rejected steps leave the iterate in place and accepted ones never
        # raise the loss, so the value is the least loss visited.  The limit
        # at 0 makes the kernel drop rows beyond the keep radius at n = 200.
        monkeypatch.setattr(core, "_LOCKSTEP_ENTRIES", 0)
        params = DepthParams(r=1.0, s=s)
        rejected = dropped = 0
        for k in range(8):
            rng = np.random.default_rng((12, k))
            X = SampleSet(rng.standard_normal((200, 2)))
            z = rng.uniform(-2, 2, 2)
            res, steps, losses, _ = watched(z, X, params)
            rejected += not all(step.accepted for step in steps)
            dropped += X.n - core._Objective(z, X, params).k
            assert res.value == min(losses)
            # Exact even where samples beyond the keep radius are dropped:
            # the loss keeps the same rows at a returned (unit) direction.
            assert res.value == sphere_loss(res.direction, z, X, params)
        assert rejected, "expected a case with at least one rejected step"
        if s == 0.01:
            assert dropped, "expected samples beyond the keep radius"

    @pytest.mark.parametrize("s", [1.0, 0.01])
    def test_far_query_is_stationary_at_zero(self, monkeypatch, s):
        # Every sample is beyond the keep radius: the kernel holds no rows of
        # its d + 1 columns, and the solve and the oracle stop as they did
        # with all rows.  The limit at 0 makes the kernel drop rows at n = 50.
        monkeypatch.setattr(core, "_LOCKSTEP_ENTRIES", 0)
        rng = np.random.default_rng(14)
        X = SampleSet(rng.standard_normal((50, 2)))
        z, params = [1e3, -1e3], DepthParams(r=1.0, s=s)
        assert core._Objective(np.array(z), X, params).rows.shape == (0, 3)
        res = riemannian_descent(z, X, params)
        assert (res.value, res.iterations, res.converged) == (0.0, 0, True)
        oracle = grid_oracle_sphere_depth(z, X, params, DirectionGrid.generate(64, 2))
        assert (oracle.value, oracle.index) == (0.0, 0)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        X = SampleSet(rng.standard_normal((150, 4)))
        a = riemannian_descent([0.1] * 4, X, DepthParams(r=1.0, s=1.0))
        b = riemannian_descent([0.1] * 4, X, DepthParams(r=1.0, s=1.0))
        assert a.value == b.value
        np.testing.assert_array_equal(a.direction, b.direction)

    def test_rejects_indicator_scale(self):
        X = SampleSet([[0.0, 0.0]])
        with pytest.raises(ValueError, match="s > 0"):
            riemannian_descent([1.0, 1.0], X, DepthParams(r=1.0, s=0.0))


class TestInitialization:
    def test_zero_mean_falls_back_to_basis(self):
        X = SampleSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        res = riemannian_descent([3.0, 0.0], X, DepthParams(r=1.0, s=1.0))
        assert res.converged

    @pytest.mark.parametrize("d", [2, 3])
    def test_mean_minus_z_at_the_mean_starts_at_the_first_axis(self, d):
        # At the sample mean the anchor mean - z is 0, so the start is e_1.
        X = SampleSet(np.random.default_rng((15, d)).standard_normal((200, d)))
        z = X._mean.copy()
        assert np.array_equal(optim._initial_direction(z, X, "mean-minus-z"), np.eye(d)[0])
        params = DepthParams(r=1.0, s=1.0)
        res = riemannian_descent(z, X, params, OptimizerConfig(init="mean-minus-z"))
        oracle = grid_oracle_sphere_depth(z, X, params, DirectionGrid.generate(4096, d))
        assert res.converged and res.iterations > 1
        assert abs(res.value - oracle.value) <= 5e-3

    def test_mean_minus_z_translation_equivariant(self):
        rng = np.random.default_rng(14)
        X = SampleSet(rng.standard_normal((120, 2)) + [5.0, -2.0])
        z = np.array([5.5, -2.5])
        shift = np.array([100.0, -40.0])
        cfg = OptimizerConfig(init="mean-minus-z")
        params = DepthParams(r=1.0, s=1.0)
        a = riemannian_descent(z, X, params, cfg)
        b = riemannian_descent(z + shift, SampleSet(X.data + shift), params, cfg)
        assert abs(a.value - b.value) <= 1e-12


class TestOneDimension:
    @pytest.mark.parametrize("z", [3.5, 6.5, 5.0, -10.0, 20.0])
    @pytest.mark.parametrize("init", ["paper-mean", "mean-minus-z"])
    def test_matches_two_direction_oracle(self, z, init):
        # The sphere in d = 1 is {-1, +1}, so the two-direction grid is exact.
        X = SampleSet(np.random.default_rng(0).normal(5.0, 1.0, (200, 1)))
        params = DepthParams(r=1.0, s=0.5)
        res = riemannian_descent([z], X, params, OptimizerConfig(init=init))
        oracle = grid_oracle_sphere_depth([z], X, params, DirectionGrid.generate(2, 1))
        assert abs(res.value - oracle.value) <= 1e-15
        assert res.converged and res.iterations == 1
        assert res.value == sphere_loss(res.direction, [z], X, params)

    def test_tie_keeps_start(self):
        # A query at the only sample sees the same loss in both directions.
        X = SampleSet([[2.0]])
        res = riemannian_descent([2.0], X, DepthParams(r=1.0, s=1.0))
        np.testing.assert_array_equal(res.direction, [1.0])
        assert res.value == 0.5


class TestSphereDepthWrapper:
    def test_value_transparent(self):
        rng = np.random.default_rng(17)
        X = SampleSet(rng.standard_normal((80, 2)))
        params = DepthParams(r=1.0, s=1.0)
        assert sphere_depth([0.1, 0.2], X, params).value == riemannian_descent(
            [0.1, 0.2], X, params
        ).value

    def test_default_params_rule(self):
        rng = np.random.default_rng(18)
        X = SampleSet(rng.standard_normal((400, 3)) * 2.5)
        params = default_params(X)
        pooled = np.sqrt(np.mean(np.var(X.data, axis=0, ddof=1)))
        assert params.r == pytest.approx(pooled)
        assert params.s == pytest.approx(pooled**2 * 3)
        res = sphere_depth([0.0, 0.0, 0.0], X)
        assert 0.0 < res.value < 1.0

    @pytest.mark.parametrize("scale", [1e-150, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e150])
    def test_default_depth_is_scale_invariant(self, scale):
        # s scales as r**2, so scaling the data and the query together
        # leaves the default-parameter depth as it is.
        X = gen_mixture(bi_gaussian_spec(2), 200, seed=21)
        z = X.data[0]
        base = sphere_depth(z, X).value
        assert 0.0 < base < 1.0
        scaled = sphere_depth(scale * z, SampleSet(scale * X.data)).value
        assert scaled == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_default_s_outside_float_range(self, scale):
        # The pooled variance no longer underflows (read as constant data)
        # or overflows, but s = r**2 * d lies outside the float range here.
        Y = SampleSet(scale * gen_mixture(bi_gaussian_spec(2), 200, seed=21).data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the float range; standardize"):
                default_params(Y)


class TestBatchDepth:
    def test_default_params(self):
        X = gen_mixture(bi_gaussian_spec(2), 150, seed=22)
        points = np.vstack([X.data[:10], [[0.0, 0.0], [4.0, -3.0]]])
        default = batch_depth(points, X)
        for a, b in zip(default, batch_depth(points, X, default_params(X)), strict=True):
            assert (a.value, a.iterations, a.converged) == (b.value, b.iterations, b.converged)
            assert np.array_equal(a.direction, b.direction)

    def test_matches_sequential_exactly(self):
        rng = np.random.default_rng(20)
        X = SampleSet(rng.standard_normal((100, 2)))
        points = rng.uniform(-2, 2, size=(15, 2))
        params = DepthParams(r=1.0, s=1.0)
        batch = batch_depth(points, X, params)
        for point, res in zip(points, batch):
            single = riemannian_descent(point, X, params)
            assert res.value == single.value
            np.testing.assert_array_equal(res.direction, single.direction)

    def test_duplicates_identical(self):
        rng = np.random.default_rng(21)
        X = SampleSet(rng.standard_normal((60, 2)))
        pts = [[0.5, 0.5], [0.5, 0.5]]
        out = batch_depth(pts, X, DepthParams(r=1.0, s=1.0))
        assert out[0].value == out[1].value

    def test_threads_match_sequential(self):
        rng = np.random.default_rng(22)
        X = SampleSet(rng.standard_normal((80, 3)))
        points = rng.uniform(-1, 1, size=(12, 3))
        params = DepthParams(r=1.0, s=1.0)
        seq = batch_depth(points, X, params, threads=1)
        par = batch_depth(points, X, params, threads=4)
        assert [r.value for r in seq] == [r.value for r in par]

    def test_error_carries_point_index(self):
        X = SampleSet([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="point 1"):
            batch_depth([[0.0, 0.0], [np.nan, 0.0]], X, DepthParams(r=1.0, s=1.0))

    @pytest.mark.parametrize("points", [[[0.0, 0.0], [1.0, 0.0]], []], ids=["two", "empty"])
    def test_nonpositive_s_is_rejected_once(self, points):
        # Checked before any block is formed, so the error blames no point,
        # and an empty batch raises as well.
        X = SampleSet(np.random.default_rng(25).standard_normal((40, 2)))
        with pytest.raises(ValueError, match="s > 0") as info:
            batch_depth(points, X, DepthParams(r=1.0, s=0.0))
        assert not str(info.value).startswith("point 0:")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_in_a_later_block_carries_point_index(self, monkeypatch, threads):
        X = SampleSet(np.random.default_rng(24).standard_normal((40, 2)))
        monkeypatch.setattr(optim, "_BLOCK_ENTRIES", 3 * X.n)  # blocks of 3 points
        points = [[0.1 * i, 0.0] for i in range(9)]
        points[7] = [0.0, np.inf]
        with pytest.raises(ValueError, match="^point 7: query point contains non-finite"):
            batch_depth(points, X, DepthParams(r=1.0, s=1.0), threads=threads)


class TestLockstepParity:
    """``batch_depth`` solves blocks of queries in lockstep; every result
    must equal the per-point solver's bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_matches_per_point_solver(self, monkeypatch, d):
        X = gen_mixture(bi_gaussian_spec(d), 120, seed=(33, d))
        rng = np.random.default_rng((34, d))
        sample = X.data[rng.choice(X.n, 5, replace=False)]
        queries = np.array([
            *sample,
            *rng.uniform(-4.0, 4.0, (5, d)),  # uniform over the data's box
            np.full(d, 30.0), np.full(d, -30.0),  # far from the data
            sample[0], sample[0], X.data[1],  # duplicates of a query and of a sample
        ])
        blocks = _counting_lockstep(monkeypatch)
        for s, init in itertools.product((1.0, 0.1, 0.01), optim.INIT_MODES):
            params, cfg = DepthParams(r=1.0, s=s), OptimizerConfig(init=init)
            expected = [riemannian_descent(z, X, params, cfg) for z in queries]
            for queries_per_block, threads in itertools.product((1, 3, len(queries)), (1, 2)):
                monkeypatch.setattr(optim, "_BLOCK_ENTRIES", queries_per_block * X.n)
                got = batch_depth(queries, X, params, cfg, threads=threads)
                for res, ref in zip(got, expected, strict=True):
                    assert res.value == ref.value
                    assert res.iterations == ref.iterations
                    assert res.converged == ref.converged
                    np.testing.assert_array_equal(res.direction, ref.direction)
        assert bool(blocks) == (d > 1)

    def test_dot_products_add_left_to_right(self):
        # The per-point loop's _dot and the lockstep loop's _rowdot must round
        # alike on every Python version; a compensated sum (as the builtin
        # sum() is from Python 3.12) would give 2.0 here.
        a, b = [1.0, 1e100, 1.0, -1e100], [1.0, 1.0, 1.0, 1.0]
        assert optim._dot(a, b) == 0.0
        assert optim._rowdot(np.array([a]), np.array([b])).tolist() == [0.0]

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(optim, "_MAX_ITER", 3)
        X = gen_mixture(bi_gaussian_spec(2), 120, seed=35)
        params = DepthParams(r=1.0, s=0.1)
        got = batch_depth(X.data[:20], X, params)
        expected = [riemannian_descent(z, X, params) for z in X.data[:20]]
        assert any(not res.converged for res in expected)
        for res, ref in zip(got, expected, strict=True):
            assert (res.value, res.iterations, res.converged) == (
                ref.value, ref.iterations, ref.converged)
            np.testing.assert_array_equal(res.direction, ref.direction)

    def test_whole_block_stationary_at_the_start(self, monkeypatch):
        # Far from the data every query's gradient vanishes: the block's
        # live set empties before its first iteration.
        X = gen_mixture(bi_gaussian_spec(2), 120, seed=35)
        params = DepthParams(r=1.0, s=0.1)
        queries = [[30.0, 30.0], [30.0, -30.0], [-30.0, 30.0], [-30.0, -30.0]]
        expected = [riemannian_descent(z, X, params) for z in queries]
        assert all((res.iterations, res.converged) == (0, True) for res in expected)
        blocks = _counting_lockstep(monkeypatch)
        _assert_same_results(batch_depth(queries, X, params), expected)
        assert blocks == [len(queries)]

    def test_whole_block_at_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(optim, "_MAX_ITER", 1)
        X = gen_mixture(bi_gaussian_spec(2), 120, seed=35)
        params = DepthParams(r=1.0, s=0.1)
        expected = [riemannian_descent(z, X, params) for z in X.data[:20]]
        assert all((res.iterations, res.converged) == (1, False) for res in expected)
        blocks = _counting_lockstep(monkeypatch)
        _assert_same_results(batch_depth(X.data[:20], X, params), expected)
        assert blocks == [20]


def _counting_lockstep(monkeypatch) -> list[int]:
    """Patch ``optim._lockstep`` to record the number of queries of each
    stack it solves."""
    lockstep, sizes = optim._lockstep, []

    def counting(stack, starts):
        sizes.append(len(starts))
        return lockstep(stack, starts)

    monkeypatch.setattr(optim, "_lockstep", counting)
    return sizes


def _assert_same_results(got, expected):
    for res, ref in zip(got, expected, strict=True):
        assert (res.value, res.iterations, res.converged) == (
            ref.value, ref.iterations, ref.converged)
        np.testing.assert_array_equal(res.direction, ref.direction)


class TestShippedBlockRule:
    """``batch_depth`` at the shipped ``_BLOCK_ENTRIES`` and
    ``_LOCKSTEP_ENTRIES``, unpatched: which queries run in lockstep, in
    which blocks, and that they still equal the per-point solver."""

    @pytest.fixture
    def no_point_solves(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("batch_depth ran the per-point solver")

        monkeypatch.setattr(optim, "riemannian_descent", refuse)

    def test_htest_shape_is_one_block_per_call(self, monkeypatch, no_point_solves):
        # htest scores X, then Y, against X: n = m = 200, d = 2, r = s = 1.
        blocks = _counting_lockstep(monkeypatch)
        X = gen_truncated_gaussian(2, 200, 41, truncation_norm=10.0)
        Y = gen_truncated_gaussian(2, 200, 42, truncation_norm=10.0)
        for points in (X.data, Y.data):
            blocks.clear()
            batch_depth(points, X, DepthParams(r=1.0, s=1.0))
            assert blocks == [200]

    def test_anomaly_shape_stays_in_lockstep(self, monkeypatch, no_point_solves):
        # A standardized sample of n = 400 in d = 5 scored against itself
        # with default parameters, as ``anomaly --standardize`` does.
        blocks = _counting_lockstep(monkeypatch)
        rng = np.random.default_rng(43)
        shell = rng.standard_normal((20, 5))
        shell *= rng.uniform(2.5, 4.0, (20, 1)) / np.linalg.norm(shell, axis=1, keepdims=True)
        X, _ = standardize(SampleSet(np.vstack([rng.standard_normal((380, 5)), shell]) * 2.5 + 10.0))
        batch_depth(X.data, X, default_params(X))
        assert blocks == [163, 163, 74]  # 2**16 // 400 queries per block

    @pytest.mark.parametrize(("n", "expected"), [(200, [200]), (500, [131, 131, 131, 107])])
    def test_d2_shapes_keep_their_blocks(self, monkeypatch, no_point_solves, n, expected):
        # At d = 2, ``2**16 // n`` queries per block equals the earlier rule
        # ``2**17 // (n d)``, which sized blocks by ``(q, n, d)`` copies of
        # ``X - z``; so htest and every other d = 2 call keep their blocks.
        blocks = _counting_lockstep(monkeypatch)
        X = gen_truncated_gaussian(2, n, 47, truncation_norm=10.0)
        batch_depth(X.data, X, DepthParams(r=1.0, s=1.0))
        assert blocks == expected

    def test_small_s_self_scores_are_one_block(self, monkeypatch, no_point_solves):
        # At s = 0.01 rows lie beyond the keep radius of many queries, but
        # in the lockstep range every solve reads every row: the batch is
        # one stack, and still equals the per-point solver.
        X = gen_mixture(bi_gaussian_spec(2), 200, seed=50)
        params = DepthParams(r=1.0, s=0.01)
        expected = [riemannian_descent(z, X, params) for z in X.data]
        blocks = _counting_lockstep(monkeypatch)
        got = batch_depth(X.data, X, params)
        assert blocks == [200]
        _assert_same_results(got, expected)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_htest_shape_matches_per_point_solver(self, monkeypatch, threads):
        blocks = _counting_lockstep(monkeypatch)
        X = gen_truncated_gaussian(2, 200, 44, truncation_norm=10.0)
        params = DepthParams(r=1.0, s=1.0)
        got = batch_depth(X.data, X, params, threads=threads)
        assert blocks == [200]
        _assert_same_results(got, [riemannian_descent(z, X, params) for z in X.data])

    @pytest.mark.parametrize("above", [0, 1], ids=["at-limit", "above-limit"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_per_query_limit(self, monkeypatch, above, threads):
        d = 2
        n = core._LOCKSTEP_ENTRIES // d + above  # n * d at the limit, or just above it
        X = gen_mixture(bi_gaussian_spec(d), n, seed=45)
        rng = np.random.default_rng(46)
        queries = np.vstack([X.data[rng.choice(n, 30, replace=False)], rng.uniform(-4.0, 4.0, (10, d))])
        params = DepthParams(r=1.0, s=1.0)
        expected = [riemannian_descent(z, X, params) for z in queries]
        blocks = _counting_lockstep(monkeypatch)
        got = batch_depth(queries, X, params, threads=threads)
        if above:
            assert blocks == []  # every query ran riemannian_descent
        else:
            size = optim._BLOCK_ENTRIES // n
            # two threads may finish the blocks in either order
            assert sorted(blocks) == sorted([size, len(queries) - size])
        _assert_same_results(got, expected)


class TestBlockMemoryBound:
    """Every ``core._Stack`` that ``batch_depth`` builds at the shipped block
    rule holds ``(q, n)`` pass and weight buffers of at most
    ``_BLOCK_ENTRIES`` entries, and reads the sample's centred matrix
    without a copy."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_stacks_stay_within_the_block_entries(self, monkeypatch, d):
        built = []

        class Recording(core._Stack):
            def __init__(self, X, *args):
                super().__init__(X, *args)  # recorded as built: queries stop later
                built.append((len(self.zt), self._args.size, self._weights.size,
                              np.shares_memory(self._centred, X._centred)))

        monkeypatch.setattr(optim, "_Stack", Recording)
        n = 300  # n d <= 2**12 up to d = 8; 400 queries make two blocks
        X = gen_mixture(bi_gaussian_spec(d), n, seed=(48, d))
        uniform = np.random.default_rng((49, d)).uniform(-4.0, 4.0, (n // 3, d))
        queries = np.vstack([X.data, uniform])
        default = default_params(X)
        for s in (1.0, default.s, 0.01):
            built.clear()
            batch_depth(queries, X, DepthParams(r=default.r, s=s))
            # every s: each block is one stack over every row
            assert [q for q, *_ in built] == [218, 182]
            for q, args, weights, shared in built:
                assert args == weights == q * n <= optim._BLOCK_ENTRIES
                assert shared


class TestParityWithArrayLoop:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_array_loop(self, d):
        # The d-vector steps run on floats, whose dot products round
        # differently from BLAS's, so values may move in the last bits but
        # the path (iterations, stop) may not.  Directions are not compared:
        # on small-s plateaus last-bit changes move them by up to ~1e-3.
        X = gen_mixture(bi_gaussian_spec(d), 200, seed=(31, d))
        rng = np.random.default_rng((32, d))
        queries = [
            *X.data[rng.choice(X.n, 4, replace=False)],  # sample rows
            *rng.uniform(-4.0, 4.0, (4, d)),  # uniform over the data's box
            np.full(d, 30.0),  # far from the data
        ]
        for s, init, z in itertools.product((1.0, 0.1, 0.01), optim.INIT_MODES, queries):
            params, cfg = DepthParams(r=1.0, s=s), OptimizerConfig(init=init)
            new = riemannian_descent(z, X, params, cfg)
            ref = _array_riemannian_descent(z, X, params, cfg)
            assert (new.iterations, new.converged) == (ref.iterations, ref.converged)
            assert abs(new.value - ref.value) <= 1e-10
            assert new.value == sphere_loss(new.direction, z, X, params)


class TestFloatingPointErrors:
    @pytest.mark.parametrize("s", [1.0, 1e-2, 1e-4])
    @pytest.mark.parametrize("z", [(0.0, 0.0), (50.0, 50.0), (1e4, -1e4)])
    def test_overflow_suppression_stays_local(self, z, s):
        # Far samples overflow exp inside the sigmoid; the library must
        # absorb that without touching the caller's error state.
        X = SampleSet(np.random.default_rng(23).standard_normal((50, 2)))
        params = DepthParams(r=1.0, s=s)
        u = np.array([0.6, 0.8])
        grid = DirectionGrid.generate(64, 2)
        raising = np.errstate(over="raise", invalid="raise", divide="raise")
        with raising, warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [
                riemannian_descent(z, X, params).value,
                batch_depth([z, z], X, params)[1].value,
                grid_oracle_sphere_depth(z, X, params, grid).value,
                sphere_loss(u, z, X, params),
            ]
            grad = sphere_loss_gradient(u, z, X, params)
            assert np.geterr()["over"] == "raise"
        assert all(0.0 <= v <= 1.0 for v in values)
        assert np.all(np.isfinite(grad))


class TestSolverOracleAgreement:
    def test_random_instances_within_band(self):
        params = DepthParams(r=1.0, s=1.0)
        grid = DirectionGrid.generate(4096, 2)
        for k in range(10):
            rng = np.random.default_rng((300, k))
            X = SampleSet(rng.standard_normal((200, 2)) * rng.uniform(0.5, 2.0))
            z = rng.uniform(-3, 3, 2)
            solver = riemannian_descent(z, X, params).value
            oracle = grid_oracle_sphere_depth(z, X, params, grid).value
            assert oracle - 5e-3 <= solver <= oracle + 5e-3
