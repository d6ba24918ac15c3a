"""Riemannian gradient descent on the unit sphere for the sphere depth.

The solver minimizes the smoothed ball-mass objective of
:func:`spheredepth.core.sphere_loss` over unit directions.  Each step
projects the ambient gradient onto the tangent space at the current
iterate, normalizes the descent direction, and moves along the geodesic
``cos(alpha) * u + sin(alpha) * v``.  The step angle starts at ``pi``.
A step that raises the loss is rejected: the iterate stays where it is,
and the next angle is the minimiser of the quadratic through the loss
``phi(0)``, its slope ``phi'(0) = -||tangent gradient||`` and the
rejected ``phi(alpha)``, clamped to ``[alpha/4, alpha/2]`` (safeguarded
interpolating backtracking).  An accepted step keeps the angle, so it is
never re-increased within a call.  Accepted steps therefore never raise
the loss, and the current iterate is always the best one visited.  The
only setting is the start direction (:class:`OptimizerConfig`).

The steps on d-vectors run on Python floats: the tangent projection and
its norm, the descent direction, the geodesic and its normalisation, and
the gradient's ``-r (sum c) u`` tail and scale.  At the small d of the
sphere depth these cost less as floats than as numpy calls, and
:func:`tangent_project` and :func:`exp_map` call the same helpers.  The
dot products add left to right on every Python version (the builtin
``sum`` compensates from 3.12), so they can differ from BLAS's in the
last bit.  Only the passes over the data stay in numpy: each is one
product with the sample's centred matrix (``core._Objective``), whose
``d + 2`` coefficients are built on the floats, and it writes into one of
two kept-row vectors that the query's objective owns.  For ``n d`` at or
below the lockstep limit of ``2**12`` (below) the last coefficient, the
constant, multiplies the matrix's column of ones, as in the lockstep
stack; above it the product takes the first ``d + 1`` coefficients and
the pass adds the constant after it.  A trial direction costs the
geodesic on floats, one pass over the ``d`` floats of the ball's centre
for its coefficients and squared norm, that product, the logistic
in place and the loss sum, taken by ``np.add.reduce``: the pairwise sum of
``ndarray.sum`` without its Python wrapper.  No step of a trial builds a
list that it then throws away, and one pass gives the tangent and its
squared norm.  At n = 200, d = 2 the coefficients and product take about
1.9 us and the gradient 3.8 us (``timeit``, best of 7).  An
accepted step adds the weights ``c = p (1 - p)``, the product ``c @ X~``
with the centred data and the sum of ``c``.  The loss is computed at the
array the solver returns, so ``value`` equals ``sphere_loss(direction)``
exactly.

In d = 1 the sphere is the two points ``{-1, +1}`` and has no tangent
direction, so the solver compares the start with the other point.

Every solve ends in a :class:`DepthResult`, the named tuple ``(value,
direction, iterations, converged)``, built where the loop stops: in
:func:`riemannian_descent`, and in the lockstep loop of
:func:`batch_depth` as each query leaves its block.

:func:`batch_depth` runs the same loop for many queries at once when
``n d <= 2**12``.  It takes the queries in blocks of ``2**16 // n``
consecutive points, so that a block's largest arrays, its ``(q, n)`` pass
and weight buffers, hold at most ``2**16`` entries: one block holds 327
queries at ``n = 200`` and 163 at ``n = 400``, so the 400 self-scores of
``n = 400, d = 5`` go in blocks of 163, 163 and 74.  The queries of a
block advance in lockstep in ``core._Stack``, the stacked
``core._Objective``.  The same limit decides which rows a solve reads:
at or below it both loops read every row at every ``s``, and only above
it does the per-point loop drop the rows beyond the keep radius.  So a
stack copies no data: each pass is one stacked product of the sample's
centred matrix, broadcast, with a ``(q, d + 2)`` block of coefficients.
Each iteration makes one stacked product for all the trial directions,
one logistic in place, one row sum, and one stacked ``c @ X~`` for the
gradients of the queries that move.  Every query keeps
its own iterate, angle, loss and stop, and leaves the block when it stops:
one boolean index keeps the others, in order.  Its descent direction, and
the ``cos`` and ``sin`` of its angle, are recomputed only when they
change.  The lockstep steps are chosen to round as the per-point loop
does: a stacked ``np.matmul`` makes, item by item, the BLAS call of one
query's product, every sum is taken over one query's row, and the
coefficients and the d-vector steps run column by column in the float
loop's order.  So no query's bits depend on its place in the block, and a
batch equals a loop of :func:`riemannian_descent` bit for bit.

The per-point loop stays for single queries, where one block of one query
costs about four times as much, and for samples with ``n d > 2**12``.
Per query, in ms, with lockstep blocks of ``2**16 // n`` queries
(r = s = 1; 48 sample rows and 48 standard-normal points of a bi-Gaussian
sample; both run interleaved in one process, medians of 11, on a 2-core
x86-64 host with OpenBLAS 0.3.31; each the median of three processes).
Above ``2**12`` the per-point pass reads ``d + 1`` columns of the centred
matrix and adds the constant after the product (``core._Objective``)::

    d x n       n d      block   lockstep   per-point loop
    2 x 1000    2,000    65      0.06       0.17
    2 x 2048    4,096    32      0.11       0.18
    2 x 3000    6,000    21      0.16       0.24
    2 x 4000    8,000    16      0.20       0.26
    2 x 8000    16,000   8       0.41       0.41
    5 x 800     4,000    81      0.04       0.11
    5 x 1200    6,000    54      0.05       0.12
    5 x 6000    30,000   10      0.25       0.21

So lockstep still pays somewhat above the limit of ``2**12``, up to about
``n d = 8,000`` in d = 2, and the two loops draw level near 16,000 (in
d = 5 the per-point loop is ahead at 30,000); the limit was set when each
block stacked its own copies of ``X - z``, which no longer fit the caches
above about 6,000.  Of the rows above the limit only 5 x 6000, whose
centred matrix has ``2**15`` entries or more, drops the rows past the
relative reach at s = 1 (``core._row_mask``): there the sample rows drop
the far mode, and the standard-normal points, which stop after a few
iterations, pay for the estimate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DepthParams,
    SampleSet,
    _LOCKSTEP_ENTRIES,
    _as_vector,
    _dot,
    _Objective,
    _pooled_std,
    _rowdot,
    _Stack,
    unit_direction,
)

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
# An accepted step that improves the loss by less than this ends the solve.
_TOL = 1e-6
# The first trial step angle.
_ALPHA0 = math.pi
# After a rejected step the next angle is the minimiser of a quadratic model
# of the loss along the geodesic, clamped to this share of the rejected one.
_SHRINK_MIN = 0.25
_SHRINK_MAX = 0.5
_MAX_ITER = 1000
# One lockstep block of ``batch_depth`` takes ``_BLOCK_ENTRIES // n``
# queries, so its largest arrays, the ``(q, n)`` pass and weight buffers,
# hold at most this many entries (a float64 buffer 512 KiB); the block reads
# the sample's centred matrix and copies none of it.
# Freeing large blocks raises glibc's dynamic mmap threshold, which changes
# how the caller's later large arrays are allocated.  The ``anomaly-csv``
# benchmark's reference kernel (a 400 x 400 Gram matrix and its exponential,
# and numpy calls on 400 x 5 arrays) run right after anomaly scorings of
# n = 400, d = 5 faulted about 4,050 pages per call (medians of 10 calls)
# both with these blocks and with the earlier ``2**17 // (n d)`` queries.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class OptimizerConfig:
    """The one setting of :func:`riemannian_descent`, its start.

    ``init`` selects the starting direction: the normalized sample mean
    (``paper-mean``) or the normalized ``mean - z`` (``mean-minus-z``,
    translation-equivariant).
    """

    init: str = "paper-mean"

    def __post_init__(self):
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")


class DepthResult(NamedTuple):
    """Depth value with the optimizing direction and solver diagnostics.

    ``value`` equals the loss at ``direction`` exactly.
    """

    value: float
    direction: np.ndarray
    iterations: int
    converged: bool


def tangent_project(u, g) -> np.ndarray:
    """Project ``g`` onto the tangent space of the sphere at ``u``:
    ``g - <g, u> u``."""
    u = np.asarray(u, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if u.ndim != 1 or u.shape != g.shape:
        raise ValueError(f"u and g must be vectors of one shape, got {u.shape} and {g.shape}")
    return np.array(_tangent(u.tolist(), g.tolist())[0])


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
    return np.array(_geodesic(u.tolist(), v.tolist(), alpha))


def _tangent(u: list[float], g: list[float]) -> tuple[list[float], float]:
    """The tangent ``g - <g, u> u`` and its squared norm, added left to
    right from 0 as :func:`_dot` adds it."""
    dot = _dot(g, u)
    tangent, squared = [], 0.0
    for a, b in zip(g, u):
        t = a - dot * b
        squared += t * t
        tangent.append(t)
    return tangent, squared


def _geodesic(u: list[float], v: list[float], alpha: float) -> list[float]:
    cos, sin = math.cos(alpha), math.sin(alpha)
    out = [cos * a + sin * b for a, b in zip(u, v)]
    norm = math.sqrt(_dot(out, out))
    return [a / norm for a in out]


def _initial_direction(z: np.ndarray, X: SampleSet, init: str) -> np.ndarray:
    if init == "paper-mean":  # the same for every query, so kept with the sample
        return X._unit_mean.copy()
    anchor = X._mean - z
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
    by less than 1e-6, or after 1000 iterations; on an exact tie the
    step's start is kept.  In d = 1 the one trial is the other point of
    the sphere, and the solve ends after it.
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
        # The iterate as floats beside its array: the d-vector steps and the
        # coefficients of each pass run on the floats.
        point = u.tolist()
        p = objective.sigmoids(point)
        cur_loss = float(np.add.reduce(p)) / objective.n
        if X.d == 1:
            # {-1, +1} has no tangent direction: try the other point once.
            other = float(np.add.reduce(objective.sigmoids(-u))) / objective.n
            if other < cur_loss:  # a tie keeps the start
                u, cur_loss = -u, other
            return DepthResult(cur_loss, u, 1, True)

        grad = objective.gradient(p, point)
        alpha = _ALPHA0
        converged = False
        steps = 0
        for it in range(1, _MAX_ITER + 1):
            tangent, squared = _tangent(point, grad)
            tnorm = math.sqrt(squared)
            if tnorm < _STATIONARY_NORM:
                converged = True
                break
            trial = _geodesic(point, [a / -tnorm for a in tangent], alpha)
            # One pass over the data per trial direction; a move reuses its
            # sigmoids for the gradient at the new iterate.
            p = objective.sigmoids(trial)
            # ndarray.sum's pairwise sum, without its Python wrapper
            new_loss = float(np.add.reduce(p)) / objective.n
            steps = it

            if new_loss > cur_loss:
                # The minimiser of the quadratic through phi(0) = cur_loss,
                # phi'(0) = -tnorm and phi(alpha) = new_loss.  The rise is
                # positive, so it lies below alpha/2 but for rounding.
                minimiser = tnorm * alpha * alpha / (2.0 * (new_loss - cur_loss + tnorm * alpha))
                alpha = min(max(minimiser, _SHRINK_MIN * alpha), _SHRINK_MAX * alpha)
            elif cur_loss - new_loss < _TOL:
                if new_loss < cur_loss:  # an exact tie keeps the step's start
                    u, cur_loss = np.array(trial), new_loss
                converged = True
                break
            else:
                u, point, cur_loss = np.array(trial), trial, new_loss
                grad = objective.gradient(p, point)

    return DepthResult(cur_loss, u, steps, converged)


def default_params(X: SampleSet) -> DepthParams:
    """Hyperparameters from data scale: ``r = pooled std, s = pooled std**2 * d``.

    The pooled standard deviation is the square root of the mean
    per-dimension (unbiased) variance.  The sigmoid's argument
    ``r**2 - ||x - c||**2`` is a squared length, so ``s`` scales as ``r**2``
    and the default depth does not depend on the data's units.
    """
    if X.n < 2:
        raise ValueError("default parameters require at least 2 samples")
    pooled = _pooled_std(X)
    if pooled <= 0:
        raise ValueError("data is constant; pass explicit DepthParams")
    s = pooled * pooled * X.d
    if not np.finfo(np.float64).tiny <= s < math.inf:
        raise ValueError(
            f"the default s = r**2 * d for r = {pooled:.3g} is outside the float range; "
            "standardize the data or pass explicit DepthParams"
        )
    return DepthParams(r=pooled, s=s)


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
    """Depth of each query point, in order; equals a loop of
    :func:`riemannian_descent` bit for bit (value, direction, iterations
    and ``converged``).

    ``s <= 0`` is rejected once, with :func:`riemannian_descent`'s
    message, before any block is formed, and every point is checked as
    that function checks it, the error naming the point's index; so no
    solve raises.  When ``n d <= 2**12``, where every solve reads every
    row of the sample (``core._Objective``), the queries go in blocks of
    ``2**16 // n`` consecutive points, and the queries of a block are
    solved in lockstep, as the module docstring describes.  A query alone
    in its block runs :func:`riemannian_descent`, and so does every query
    in d = 1 or when ``n d > 2**12``.  ``threads > 1`` solves the blocks
    (or, outside lockstep, the points) on a thread pool; the output is the
    same.  Each :class:`DepthResult` is built where its solve ends,
    by :func:`riemannian_descent` or by the lockstep loop.
    """
    if params is None:
        params = default_params(X)
    if params.s <= 0:
        raise ValueError("riemannian_descent requires s > 0")
    if cfg is None:
        cfg = OptimizerConfig()
    queries = _query_rows(points, X.d)
    lockstep = X.d > 1 and X.n * X.d <= _LOCKSTEP_ENTRIES
    size = _BLOCK_ENTRIES // X.n if lockstep else 1

    def solve_block(lo: int) -> list[DepthResult]:
        z = queries[lo : lo + size]
        if len(z) == 1:
            return [riemannian_descent(z[0], X, params, cfg)]
        if cfg.init == "paper-mean":  # one start for every query
            starts = [_initial_direction(z[0], X, cfg.init)] * len(z)
        else:
            starts = [_initial_direction(q, X, cfg.init) for q in z]
        return _lockstep(_Stack(X, z, params), starts)

    blocks = range(0, len(queries), size)
    if threads <= 1 or len(blocks) <= 1:
        return [res for lo in blocks for res in solve_block(lo)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [res for solved in pool.map(solve_block, blocks) for res in solved]


def _query_rows(points, d: int) -> np.ndarray:
    """The query points as the rows of a float array, each checked as
    :func:`riemannian_descent` checks it; an error names the point's index."""
    pts = list(points)
    try:
        queries = np.array(pts, dtype=np.float64)
    except (TypeError, ValueError):
        queries = None  # ragged or not numeric: the loop below says which point
    if queries is not None and queries.shape == (len(pts), d) and np.isfinite(queries).all():
        return queries
    rows = []
    for i, point in enumerate(pts):
        try:
            rows.append(_as_vector(point, d, name="query point"))
        except ValueError as exc:
            raise ValueError(f"point {i}: {exc}") from exc
    return np.array(rows).reshape(len(rows), d)


def _lockstep(stack: _Stack, starts: list[np.ndarray]) -> list[DepthResult]:
    """:func:`riemannian_descent`'s loop (d >= 2) for the queries of a
    stack, all advanced together.

    Each query keeps its own iterate, angle and loss, and leaves the block
    when it stops; the live queries keep their order.  The d-vector steps
    run column by column in the float loop's order, the angles' ``cos`` and
    ``sin`` come from ``math``, and the passes over the data are those of
    :class:`_Stack`, so every query takes the path and the values of its
    own solve.  A query's descent direction, and the ``cos`` and ``sin`` of
    its angle, are computed when they change: after a move, and after a
    rejected step.  Returns one :class:`DepthResult` per query, built when
    the query stops."""
    n, d = stack.n, len(starts[0])
    out: list = [None] * len(starts)
    # One row per live query, in the order of ``starts``: its iterate, its
    # descent direction (the tangent over minus its norm), the tangent's
    # norm, its loss, its angle and the angle's cos and sin.  When queries
    # stop, the rows of the others are kept, in order, by one boolean index.
    state = np.empty((len(starts), 2 * d + 5))
    rows = np.arange(len(starts))  # each live query's place in ``starts``

    def columns():
        return state[:, :d], state[:, d : 2 * d], *state[:, 2 * d :].T

    u, v, tnorm, loss, alpha, cos, sin = columns()

    def aim(where, at: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Set the descent direction and tangent norm of the queries at
        ``where`` from their gradients at their iterates ``at``; return the
        mask, over them, of those that are stationary."""
        tangent = grad - _rowdot(grad, at)[:, None] * at
        norm = np.sqrt(_rowdot(tangent, tangent))
        tnorm[where] = norm
        flat = norm < _STATIONARY_NORM
        norm[flat] = 1.0  # a stationary query stops before its direction is used
        v[where] = tangent / -norm[:, None]
        return flat

    def finish(stop: np.ndarray, steps: int, converged: bool) -> None:
        """Record the queries that the mask ``stop`` selects and keep the
        others."""
        nonlocal state, rows, u, v, tnorm, loss, alpha, cos, sin
        for i, value, direction in zip(rows[stop].tolist(), loss[stop].tolist(), u[stop]):
            out[i] = DepthResult(value, direction, steps, converged)
        live = ~stop
        state, rows, stack.zt = state[live], rows[live], stack.zt[live]
        u, v, tnorm, loss, alpha, cos, sin = columns()

    with np.errstate(over="ignore"):
        first = np.array(starts)
        p = stack.sigmoids(first)
        u[:], loss[:], alpha[:] = first, p.sum(axis=1) / n, _ALPHA0
        cos[:], sin[:] = math.cos(_ALPHA0), math.sin(_ALPHA0)
        flat = aim(slice(None), first, stack.gradient(p, first))
        if flat.any():
            finish(flat, 0, True)
        for it in range(1, _MAX_ITER + 1):
            if not len(rows):
                break
            trial = cos[:, None] * u + sin[:, None] * v
            trial /= np.sqrt(_rowdot(trial, trial))[:, None]
            p = stack.sigmoids(trial)
            new_loss = p.sum(axis=1) / n
            gain = loss - new_loss

            rise = new_loss > loss
            back = rise.nonzero()[0]
            if len(back):
                # The clamped quadratic step of riemannian_descent, with
                # new_loss - loss written as -gain (the same bits).
                a = alpha[back]
                ta = tnorm[back] * a
                minimiser = ta * a / (2.0 * (ta - gain[back]))
                a = np.minimum(np.maximum(minimiser, _SHRINK_MIN * a), _SHRINK_MAX * a)
                alpha[back] = a
                a = a.tolist()
                cos[back] = list(map(math.cos, a))
                sin[back] = list(map(math.sin, a))
            stay = gain < _TOL  # a rise or a stop
            # A move, or a stop at a lower loss, takes the trial; a tie keeps
            # the step's start.
            take = ~(gain <= 0.0)
            np.copyto(u, trial, where=take[:, None])
            np.copyto(loss, new_loss, where=take)
            done = stay ^ rise  # no rise, and a gain below the tolerance
            move = (~stay).nonzero()[0]
            # At the iteration cap a mover's gradient is never used: the
            # loop ends there unconverged, stationary or not.
            if len(move) and it < _MAX_ITER:
                at = trial.take(move, axis=0)
                flat = aim(move, at, stack.gradient(p, at, move))
                done[move[flat]] = True  # riemannian_descent stops at its next iteration
            if done.any():
                finish(done, it, True)
        else:
            if len(rows):
                finish(np.ones(len(rows), dtype=bool), _MAX_ITER, False)
    return out
