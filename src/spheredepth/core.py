"""Sphere-depth objective and brute-force direction-grid oracles.

The smoothed sphere depth of a query point ``z`` with respect to a sample
``x_1, ..., x_n`` is the infimum over unit directions ``u`` of

    L(u) = (1/n) * sum_i sigmoid_s(r**2 - ||x_i - z - r*u||**2),

i.e. the (sigmoid-smoothed) fraction of samples inside the ball of radius
``r`` centered at ``c = z + r*u``.  With ``s = 0`` the sigmoid degenerates
to the indicator ``1{r**2 - ||x - c||**2 >= 0}`` and the depth becomes the
minimal ball-mass count, a lower bound of the halfspace (Tukey) depth.

This module provides the per-direction loss, its analytic ambient gradient,
and exact grid oracles that minimize over a finite set of directions.  The
oracles serve as desk-scale ground truth for the continuous infimum; the
fast solver lives in :mod:`spheredepth.optim`.

The objective has one implementation, the private ``_Objective`` kernel:
the loss, the gradient, the grid oracle and the solver all evaluate it.
Per query it computes ``w = X - z`` and ``||w||**2`` once; each direction,
or block of directions, then costs one product with the data.

The sigmoid is ``1 / (1 + exp(-t/s))`` on numpy's vectorised ``exp``,
evaluated in place.  For samples far outside the ball ``exp`` overflows to
``inf`` and the sigmoid is exactly 0.  That overflow is expected, so each
public entry point (and the solver in :mod:`spheredepth.optim`) holds
``np.errstate(over="ignore")`` once around its work; every other
floating-point error keeps the caller's setting.

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "SampleSet",
    "DepthParams",
    "DirectionGrid",
    "OracleResult",
    "unit_direction",
    "sigmoid",
    "sigmoid_derivative",
    "sphere_loss",
    "sphere_loss_gradient",
    "grid_oracle_sphere_depth",
    "grid_oracle_halfspace_depth",
]

# Target block size (entries) for chunked n-by-M distance matrices in the
# grid oracles; keeps peak memory around 32 MB of float64.
_ORACLE_BLOCK_ENTRIES = 4_000_000


def _as_matrix(data, name: str = "data") -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_vector(x, d: int | None = None, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.size < 1:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if d is not None and arr.size != d:
        raise ValueError(f"{name} has dimension {arr.size}, expected {d}")
    return arr


def unit_direction(u, d: int | None = None) -> np.ndarray:
    """Return ``u`` as a unit-norm float vector, renormalizing if needed."""
    arr = _as_vector(u, d, name="direction")
    norm = float(np.linalg.norm(arr))
    if norm < 1e-12:
        raise ValueError("direction has near-zero norm and cannot be normalized")
    if abs(norm - 1.0) > 1e-12:
        arr = arr / norm
    return arr


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Immutable n-by-d matrix of observations (the empirical distribution).

    Rows are observations, columns are features.  Entries must be finite.
    The underlying array is copied and marked read-only.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.data, name="sample data").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DepthParams:
    """Radius ``r`` and smoothing scale ``s`` of the sphere depth.

    ``s = 0`` selects the indicator (non-smoothed) depth and is accepted
    only by the grid oracles; gradient-based code paths require ``s > 0``.
    """

    r: float
    s: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.r) or self.r <= 0:
            raise ValueError(f"radius r must be finite and > 0, got {self.r}")
        if not np.isfinite(self.s) or self.s < 0:
            raise ValueError(f"smoothing scale s must be finite and >= 0, got {self.s}")


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """Deterministic finite set of unit directions used by the grid oracles.

    Generation is deterministic given ``(generation, seed)``: equiangular
    angles for d = 2, a Fibonacci spiral for d = 3, and seeded normalized
    Gaussians for d > 3.
    """

    directions: np.ndarray
    generation: str = "custom"
    seed: int = 0

    def __post_init__(self):
        arr = _as_matrix(self.directions, name="directions").copy()
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("grid contains a direction with near-zero norm")
        off = np.abs(norms - 1.0) > 1e-12
        if np.any(off):
            arr[off] /= norms[off, None]
        arr.flags.writeable = False
        object.__setattr__(self, "directions", arr)

    @property
    def m(self) -> int:
        return self.directions.shape[0]

    @property
    def d(self) -> int:
        return self.directions.shape[1]

    @classmethod
    def generate(cls, m: int, d: int, seed: int = 0) -> "DirectionGrid":
        """Build a grid of ``m`` unit directions in dimension ``d``."""
        if m < 1:
            raise ValueError(f"grid size must be >= 1, got {m}")
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if d == 1:
            # The 0-sphere has two points; more are redundant.
            dirs = np.array([[1.0], [-1.0]])[: min(m, 2)]
            return cls(dirs, generation="signs", seed=seed)
        if d == 2:
            theta = 2.0 * np.pi * np.arange(m) / m
            dirs = np.column_stack([np.cos(theta), np.sin(theta)])
            return cls(dirs, generation="equiangular", seed=seed)
        if d == 3:
            k = np.arange(m)
            zcoord = 1.0 - 2.0 * (k + 0.5) / m
            rho = np.sqrt(np.clip(1.0 - zcoord**2, 0.0, 1.0))
            golden = np.pi * (3.0 - np.sqrt(5.0))
            theta = golden * k
            dirs = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), zcoord])
            return cls(dirs, generation="fibonacci-sphere", seed=seed)
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((m, d))
        norms = np.linalg.norm(dirs, axis=1)
        bad = norms < 1e-12
        if np.any(bad):
            dirs[bad] = 0.0
            dirs[bad, 0] = 1.0
            norms[bad] = 1.0
        dirs /= norms[:, None]
        return cls(dirs, generation="random-uniform", seed=seed)


class OracleResult(NamedTuple):
    """Minimum over a direction grid and the achieving direction."""

    value: float
    direction: np.ndarray
    index: int


def _logistic_of_negated(m: np.ndarray) -> np.ndarray:
    """Overwrite ``m = -t/s`` with ``sigmoid(t, s) = 1 / (1 + exp(m))``.

    Vectorised ``exp``, then ``+ 1`` and a reciprocal, all in place.  Where
    ``exp`` overflows to ``inf`` the result is exactly 0; the caller holds
    ``np.errstate(over="ignore")`` once around its whole computation.
    """
    np.exp(m, out=m)
    m += 1.0
    return np.reciprocal(m, out=m)


def sigmoid(t, s: float):
    """Logistic ``1 / (1 + exp(-t/s))``, computed from ``exp(-t/s)``.

    Agrees with scipy's logistic to 4 ulp wherever that exceeds 1e-300.
    Saturates to exactly 1 for large ``t/s``; for large ``-t/s`` ``exp``
    overflows and the value is exactly 0, without a warning.  Accepts
    scalars or arrays.
    """
    if s <= 0:
        raise ValueError(f"smoothing scale s must be > 0, got {s}")
    m = np.array(t, dtype=np.float64)
    m /= -s
    with np.errstate(over="ignore"):
        out = _logistic_of_negated(m)
    if np.ndim(t) == 0:
        return float(out)
    return out


def sigmoid_derivative(t, s: float):
    """Derivative of :func:`sigmoid`: ``(1/s) * sig(t/s) * (1 - sig(t/s))``.

    Computed as ``sig(t/s) * sig(-t/s) / s`` so both tails keep full
    floating-point precision.  Maximum ``1/(4s)`` at ``t = 0``.
    """
    if s <= 0:
        raise ValueError(f"smoothing scale s must be > 0, got {s}")
    x = np.asarray(t, dtype=np.float64)
    out = sigmoid(x, s) * np.asarray(sigmoid(-x, s)) / s
    if np.ndim(t) == 0:
        return float(out)
    return out


class _Objective:
    """The objective of one query point.  With ``w_i = x_i - z`` the ball
    argument expands as
    ``r**2 - ||w_i - r*u||**2 = 2r <w_i, u> - ||w_i||**2 + r**2 (1 - ||u||**2)``.
    """

    def __init__(self, z: np.ndarray, X: SampleSet, params: DepthParams):
        self.w = X.data - z
        self.w2 = np.einsum("ij,ij->i", self.w, self.w)
        self.r, self.s = params.r, params.s

    def ball_args(self, U: np.ndarray) -> np.ndarray:
        """``2r <w_i, u> - ||w_i||**2`` for one direction ``(d,)`` or a
        block ``(d, m)``; this is the ball argument on the unit sphere."""
        t = self.w @ U
        t *= 2.0 * self.r
        t -= self.w2 if t.ndim == 1 else self.w2[:, None]
        return t

    def sigmoids(self, u: np.ndarray) -> np.ndarray:
        """Per-sample smoothed ball membership at any ambient ``u``.  Far
        samples overflow ``exp``; callers hold ``np.errstate(over="ignore")``."""
        t = self.ball_args(u)
        t += self.r * self.r * (1.0 - float(u @ u))
        t /= -self.s
        return _logistic_of_negated(t)

    def gradient(self, p: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Ambient gradient ``c @ w - r (sum c) u`` from the sigmoids ``p``
        at ``u``, with ``c_i = sig_s'_i * 2r/n``."""
        c = 1.0 - p
        c *= p
        c *= 2.0 * self.r / (self.s * p.size)
        return c @ self.w - (self.r * float(c.sum())) * u


def sphere_loss(u, z, X: SampleSet, params: DepthParams) -> float:
    """Smoothed ball-mass objective at direction ``u``.

    ``(1/n) * sum_i sigmoid_s(r**2 - ||x_i - z - r*u||**2)``.  The formula
    is defined for any ambient vector ``u``; the depth solver and oracles
    evaluate it on unit vectors only.
    """
    if params.s <= 0:
        raise ValueError("sphere_loss requires s > 0; use the grid oracle for s = 0")
    u = _as_vector(u, X.d, name="direction")
    z = _as_vector(z, X.d, name="query point")
    with np.errstate(over="ignore"):
        return float(np.mean(_Objective(z, X, params).sigmoids(u)))


def sphere_loss_gradient(u, z, X: SampleSet, params: DepthParams) -> np.ndarray:
    """Ambient-space gradient of :func:`sphere_loss` with respect to ``u``.

    With ``w_i = x_i - z - r*u``:
    ``grad = (1/n) * sum_i sig_s'(r**2 - ||w_i||**2) * 2r * w_i``.
    Tangent projection onto the sphere is applied separately by the solver.
    """
    if params.s <= 0:
        raise ValueError("sphere_loss_gradient requires s > 0")
    u = _as_vector(u, X.d, name="direction")
    z = _as_vector(z, X.d, name="query point")
    objective = _Objective(z, X, params)
    with np.errstate(over="ignore"):
        return objective.gradient(objective.sigmoids(u), u)


def grid_oracle_sphere_depth(
    z, X: SampleSet, params: DepthParams, grid: DirectionGrid
) -> OracleResult:
    """Brute-force sphere depth: minimum of the objective over a grid.

    For ``s = 0`` each term is the indicator ``1{r**2 - ||x - c||**2 >= 0}``
    (boundary samples count as inside), so the value is a multiple of
    ``1/n``.  Ties are broken by the lowest grid index.
    """
    z = _as_vector(z, X.d, name="query point")
    if grid.d != X.d:
        raise ValueError(f"grid dimension {grid.d} does not match data dimension {X.d}")
    if grid.m < 1:
        raise ValueError("direction grid is empty")
    # Grid directions are unit vectors, so the ball argument needs no
    # remainder term: a sample at the query sits at exactly t = 0, which
    # the s = 0 indicator counts as inside.
    objective = _Objective(z, X, params)

    best_val = np.inf
    best_idx = -1
    block = max(1, _ORACLE_BLOCK_ENTRIES // X.n)
    with np.errstate(over="ignore"):
        for start in range(0, grid.m, block):
            chunk = grid.directions[start : start + block]
            t = objective.ball_args(chunk.T)
            if params.s == 0:
                vals = np.mean(t >= 0.0, axis=0)
            else:
                t /= -params.s
                vals = np.mean(_logistic_of_negated(t), axis=0)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val = float(vals[j])
                best_idx = start + j
    return OracleResult(best_val, grid.directions[best_idx].copy(), best_idx)


def grid_oracle_halfspace_depth(z, X: SampleSet, grid: DirectionGrid) -> OracleResult:
    """Brute-force halfspace (Tukey) depth over a direction grid.

    ``min_u (1/n) * #{i : <u, x_i> >= <u, z>}`` with the non-strict
    inequality, so a query equal to a sample counts itself on every side.
    Value is a multiple of ``1/n``; ties break to the lowest grid index.
    """
    z = _as_vector(z, X.d, name="query point")
    if grid.d != X.d:
        raise ValueError(f"grid dimension {grid.d} does not match data dimension {X.d}")
    if grid.m < 1:
        raise ValueError("direction grid is empty")

    best_val = np.inf
    best_idx = -1
    block = max(1, _ORACLE_BLOCK_ENTRIES // X.n)
    for start in range(0, grid.m, block):
        chunk = grid.directions[start : start + block]
        proj = X.data @ chunk.T
        zproj = chunk @ z
        vals = np.mean(proj >= zproj[None, :], axis=0)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val = float(vals[j])
            best_idx = start + j
    return OracleResult(best_val, grid.directions[best_idx].copy(), best_idx)
