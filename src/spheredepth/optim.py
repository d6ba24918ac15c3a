"""Riemannian gradient descent on the unit sphere for the sphere depth.

The solver minimizes the smoothed ball-mass objective of
:func:`spheredepth.core.sphere_loss` over unit directions.  Each step
projects the ambient gradient onto the tangent space at the current
iterate, normalizes the descent direction, and moves along the geodesic
``cos(alpha) * u + sin(alpha) * v``.  The step angle starts at ``alpha0``
(``pi`` by default).  A step that raises the loss is rejected: the iterate
stays where it is and the angle halves, and it is never re-increased
within a call.  Accepted steps therefore never raise the loss, and the
current iterate is always the best one visited.

In d = 1 the sphere is the two points ``{-1, +1}`` and has no tangent
direction, so the solver compares the start with the other point.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DepthParams, SampleSet, _as_vector, _Objective, unit_direction

__all__ = [
    "OptimizerConfig",
    "DepthResult",
    "tangent_project",
    "exp_map",
    "riemannian_descent",
    "default_params",
    "sphere_depth",
    "batch_depth",
]

INIT_MODES = ("paper-mean", "mean-minus-z")

# Tangent gradients below this norm are treated as stationary points.
_STATIONARY_NORM = 1e-14


@dataclass(frozen=True)
class OptimizerConfig:
    """Controls for :func:`riemannian_descent`.

    ``init`` selects the starting direction: the normalized sample mean
    (``paper-mean``) or the normalized ``mean - z`` (``mean-minus-z``,
    translation-equivariant).
    """

    tol: float = 1e-6
    alpha0: float = math.pi
    max_iter: int = 1000
    init: str = "paper-mean"
    record_trace: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not 0 < self.alpha0 <= math.pi:
            raise ValueError(f"alpha0 must be in (0, pi], got {self.alpha0}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")


@dataclass(frozen=True, eq=False)
class DepthResult:
    """Depth value with the optimizing direction and solver diagnostics.

    ``value`` equals the loss at ``direction`` exactly; traces are filled
    only when the optimizer ran with ``record_trace=True``.
    """

    value: float
    direction: np.ndarray
    iterations: int
    converged: bool
    init: str | None = None
    loss_trace: tuple[float, ...] | None = None
    alpha_trace: tuple[float, ...] | None = None
    increase_iterations: tuple[int, ...] | None = None


def tangent_project(u, g) -> np.ndarray:
    """Project ``g`` onto the tangent space of the sphere at ``u``:
    ``g - <g, u> u``."""
    u = np.asarray(u, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if u.shape != g.shape:
        raise ValueError(f"shape mismatch: u {u.shape} vs g {g.shape}")
    return g - np.dot(g, u) * u


def exp_map(u, v, alpha: float) -> np.ndarray:
    """Geodesic step ``cos(alpha) u + sin(alpha) v`` on the unit sphere.

    ``u`` and ``v`` must be unit-norm and orthogonal (within 1e-8); the
    result is renormalized defensively.
    """
    u = unit_direction(u)
    v = unit_direction(v, d=u.size)
    if abs(float(np.dot(u, v))) > 1e-8:
        raise ValueError("exp_map requires v orthogonal to u")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError(f"alpha must be in [0, pi], got {alpha}")
    return _geodesic(u, v, alpha)


def _geodesic(u: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    out = math.cos(alpha) * u + math.sin(alpha) * v
    return out / np.linalg.norm(out)


def _initial_direction(z: np.ndarray, X: SampleSet, init: str) -> np.ndarray:
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


def riemannian_descent(
    z, X: SampleSet, params: DepthParams, cfg: OptimizerConfig | None = None
) -> DepthResult:
    """Minimize the smoothed sphere-depth objective by geodesic descent.

    Returns the final iterate and its loss.  A tangent gradient with norm
    below 1e-14 terminates immediately as a stationary point (converged,
    not an error).  Otherwise the loop stops when an accepted step improves
    by less than ``tol`` or ``max_iter`` is hit; on an exact tie the step's
    start is kept.  In d = 1 the one trial is the other point of the
    sphere, and the solve ends after it.
    """
    if cfg is None:
        cfg = OptimizerConfig()
    if params.s <= 0:
        raise ValueError("riemannian_descent requires s > 0")
    z = _as_vector(z, X.d, name="query point")
    objective = _Objective(z, X, params)

    u = _initial_direction(z, X, cfg.init)
    # Far samples overflow exp in the sigmoid to an exact 0; the error state
    # is entered once per solve, as entering it costs about 1.4 us.
    with np.errstate(over="ignore"):
        p = objective.sigmoids(u)
        cur_loss, grad = float(p.sum()) / objective.n, objective.gradient(p, u)
        alpha = cfg.alpha0

        trace = cfg.record_trace
        loss_trace = [cur_loss] if trace else None
        alpha_trace = [alpha] if trace else None
        increases: list[int] = []

        converged = False
        steps = 0
        for it in range(1, cfg.max_iter + 1):
            if X.d == 1:
                # {-1, +1} has no tangent direction: try the other point once.
                new_u = -u
            else:
                tangent = tangent_project(u, grad)
                tnorm = float(np.linalg.norm(tangent))
                if tnorm < _STATIONARY_NORM:
                    converged = True
                    break
                new_u = _geodesic(u, tangent / -tnorm, alpha)
            # One pass over the data per trial direction; a move reuses its
            # sigmoids for the gradient at the new iterate.
            p = objective.sigmoids(new_u)
            new_loss = float(p.sum()) / objective.n
            steps = it

            if new_loss > cur_loss:
                increases.append(it)
                alpha *= 0.5
            elif cur_loss - new_loss < cfg.tol:
                if new_loss < cur_loss:  # an exact tie keeps the step's start
                    u, cur_loss = new_u, new_loss
                converged = True
            else:
                u, cur_loss = new_u, new_loss
                grad = objective.gradient(p, u)

            if trace:
                loss_trace.append(cur_loss)
                alpha_trace.append(alpha)
            if converged or X.d == 1:
                converged = True
                break

    return DepthResult(
        value=cur_loss,
        direction=u,
        iterations=steps,
        converged=converged,
        init=cfg.init,
        loss_trace=tuple(loss_trace) if trace else None,
        alpha_trace=tuple(alpha_trace) if trace else None,
        increase_iterations=tuple(increases) if trace else None,
    )


def default_params(X: SampleSet) -> DepthParams:
    """Hyperparameters from data scale: ``r = pooled std, s = pooled std * d``.

    The pooled standard deviation is the square root of the mean
    per-dimension (unbiased) variance.
    """
    if X.n < 2:
        raise ValueError("default parameters require at least 2 samples")
    pooled = float(np.sqrt(np.mean(np.var(X.data, axis=0, ddof=1))))
    if pooled <= 0:
        raise ValueError("data is constant; pass explicit DepthParams")
    return DepthParams(r=pooled, s=pooled * X.d)


def sphere_depth(
    z,
    X: SampleSet,
    params: DepthParams | None = None,
    cfg: OptimizerConfig | None = None,
) -> DepthResult:
    """Smoothed sphere depth of ``z`` with respect to the sample ``X``.

    Public wrapper around :func:`riemannian_descent`.  When ``params`` is
    omitted they are derived from the data via :func:`default_params`.
    """
    if params is None:
        params = default_params(X)
    return riemannian_descent(z, X, params, cfg)


def batch_depth(
    points,
    X: SampleSet,
    params: DepthParams | None = None,
    cfg: OptimizerConfig | None = None,
    threads: int = 1,
) -> list[DepthResult]:
    """Depth of each query point, in order; equals a sequential loop exactly.

    ``threads > 1`` fans the independent per-point solves out to a thread
    pool; results are keyed by index so the output is identical to the
    sequential run.  Per-point errors are re-raised with the point index
    attached.
    """
    if params is None:
        params = default_params(X)
    pts = [_as_vector(p, X.d, name=f"query point {i}") for i, p in enumerate(points)]

    def solve(i: int) -> DepthResult:
        try:
            return riemannian_descent(pts[i], X, params, cfg)
        except ValueError as exc:
            raise ValueError(f"point {i}: {exc}") from exc

    if threads <= 1 or len(pts) <= 1:
        return [solve(i) for i in range(len(pts))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(solve, range(len(pts))))
