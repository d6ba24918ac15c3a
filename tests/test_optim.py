"""Tests for the manifold descent solver and its geometric primitives."""

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
    default_params,
    exp_map,
    grid_oracle_sphere_depth,
    riemannian_descent,
    sigmoid,
    sphere_depth,
    sphere_loss,
    sphere_loss_gradient,
    tangent_project,
    unit_direction,
)


class Step(NamedTuple):
    """One trial step of a solve, as seen from outside the solver."""

    start_loss: float  # the loss at the step's start, the current iterate
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
            steps.append(Step(current, alpha, loss, accepted))
            current = loss if accepted else current
        assert res.value == current
        return Watched(res, steps, list(losses), len(calls))

    return solve


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
        # Accepted steps never raise the loss; the angle halves exactly after
        # a rejected step and only then; every trial costs one kernel call.
        X = SampleSet(np.random.default_rng(seed).standard_normal((200, 2)))
        res, steps, _, calls = watched(z, X, DepthParams(r=1.0, s=0.3))
        assert res.iterations == len(steps) >= 5
        for step in steps:
            assert not step.accepted or step.loss <= step.start_loss
        assert not all(step.accepted for step in steps), "expected a rejected step"
        for step, nxt in zip(steps, steps[1:]):
            assert nxt.alpha == (step.alpha if step.accepted else step.alpha / 2)
        assert calls == 1 + res.iterations

    @pytest.mark.parametrize("s", [1.0, 0.1, 0.01])
    def test_current_iterate_is_best_visited(self, watched, s):
        # Rejected steps leave the iterate in place and accepted ones never
        # raise the loss, so the value is the least loss visited.
        params = DepthParams(r=1.0, s=s)
        rejected = dropped = 0
        for k in range(8):
            rng = np.random.default_rng((12, k))
            X = SampleSet(rng.standard_normal((200, 2)))
            z = rng.uniform(-2, 2, 2)
            res, steps, losses, _ = watched(z, X, params)
            rejected += not all(step.accepted for step in steps)
            dropped += X.n - core._Objective(z, X, params).w.shape[0]
            assert res.value == min(losses)
            # Exact even where samples beyond the keep radius are dropped:
            # the loss keeps the same rows at a returned (unit) direction.
            assert res.value == sphere_loss(res.direction, z, X, params)
        assert rejected, "expected a case with at least one rejected step"
        if s == 0.01:
            assert dropped, "expected samples beyond the keep radius"

    @pytest.mark.parametrize("s", [1.0, 0.01])
    def test_far_query_is_stationary_at_zero(self, s):
        # Every sample is beyond the keep radius: the kernel holds no rows,
        # and the solve and the oracle stop as they did with all rows.
        rng = np.random.default_rng(14)
        X = SampleSet(rng.standard_normal((50, 2)))
        z, params = [1e3, -1e3], DepthParams(r=1.0, s=s)
        assert core._Objective(np.array(z), X, params).w.shape == (0, 2)
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
        assert params.s == pytest.approx(pooled * 3)
        res = sphere_depth([0.0, 0.0, 0.0], X)
        assert 0.0 < res.value < 1.0

    def test_records_init(self):
        X = SampleSet(np.random.default_rng(19).standard_normal((30, 2)))
        assert sphere_depth([0.0, 0.0], X, DepthParams(r=1.0)).init == "paper-mean"


class TestBatchDepth:
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
