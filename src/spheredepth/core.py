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

The solver's objective has one implementation, the private ``_Objective``
kernel: the loss, the gradient and the solver evaluate it.  Its stacked
form ``_Stack``, for the lockstep solver of many queries
(``optim.batch_depth``), sits beside it, and the two share the code that
keeps rows and builds the coefficients, so each stacked evaluation has,
query by query, the bits of ``_Objective``'s.  The grid oracle has a
kernel of its own, ``_Differences``, which reads ``x - z`` directly.

For ``s > 0`` no solve copies the data.  :class:`SampleSet` keeps one
read-only, column-major matrix ``A = [X - mean | ||x - mean||**2 | 1]``,
built on first use.  With ``z~ = z - mean`` and the ball's centre
``c~ = z~ + r u``, ``-t/s = A @ [-2 c~ / s, 1 / s, (||c~||**2 - r**2) / s]``
at any ambient ``u``: each direction costs one product with ``A``, whose
coefficients come from d floats, and the logistic.  The gradient's
``c @ (X - z)`` is ``c @ X~ - (sum c) z~``.  One direction's products run
in row blocks of at most ``_ROW_BLOCK_ENTRIES`` entries, each small enough
that OpenBLAS keeps it on the calling thread, so a solve uses one core at
any n.  The expansion rounds to within
``tol ((||x~|| + ||c~||)**2 + r**2) / s`` (``tol = 8 (d + 8) eps``);
centring keeps that independent of where the data sit.

The grid oracle evaluates blocks of unit directions ``U`` at every ``s``
on a per-query ``[w | ||w||**2]`` with ``w = x - z``: at ``s > 0`` one
product ``-t/s = [w | ||w||**2] @ [-2r U / s ; 1 / s]`` and the logistic,
at ``s = 0`` the sign of ``t = 2r (w @ U) - ||w||**2``.  Its arguments
round to within ``tol (2r ||w|| + ||w||**2)``, over ``s`` when ``s > 0``,
whatever the distance of the rows and the ball from the sample mean.

The sigmoid is ``1 / (1 + exp(-t/s))`` on numpy's vectorised ``exp``,
evaluated in place.  For samples far outside the ball ``exp`` overflows to
``inf`` and the sigmoid is exactly 0.  That overflow is expected, so each
public entry point (and the solver in :mod:`spheredepth.optim`) holds
``np.errstate(over="ignore")`` once around its work; every other
floating-point error keeps the caller's setting.

Samples whose term is exactly 0 in every direction are dropped once per
query.  For a direction of norm ``rho``,
``-t_i >= (||w_i|| - r*rho)**2 - r**2``, so past the radius
``R = 1.01 * (r*rho + hypot(r, sqrt(s * log(DBL_MAX))))`` the argument
``-t_i/s`` exceeds ``log(DBL_MAX)``, ``exp`` overflows and the term is
exactly 0 (for ``s = 0``, ``R = 2.02 r`` and the indicator is 0: the ball
of radius ``r`` through ``z`` cannot reach the sample).  The 1% margin
covers rounding; ``hypot`` keeps ``R`` from underflowing to ``r`` for tiny
``r``.  The solver's radius also takes in the expansion's rounding, and
a query whose every row lies within it (``max ||x~|| + ||z~|| <= R``)
reads ``A`` itself; only otherwise does one product give the rows'
``||x - z||**2``, and the kept rows are gathered.  The oracle's kernel
keeps the rows within ``R`` itself.  Every mean still divides by the full
``n``, so the loss, the gradient and the oracle are exact; at small ``s``
most of the sample can lie beyond ``R`` and the oracle's block shrinks
with it.

The sphere oracle is an exact grid minimum with cell bounds.  Each
:class:`DirectionGrid` is split once, on first use, into cells of at most
32 nearby directions, each a cap with a center and an angular radius.
Over a cap, a lower bound on ``<w_i, u>`` for every kept sample gives a
lower bound on every member's value, and all cells cost one product with
the ``w = x - z`` of the oracle's kernel.  The oracle evaluates one member
per cell and then only the cells whose bound could still beat the best of
those; its value and index are bit for bit those of evaluating every
direction.  On a bi-Gaussian
sample (n = 200, 4096 directions, sample queries) the oracle evaluates
5-10% of the directions in d = 2, and a query costs 3-6x less than a full
scan for ``s`` in {0, 0.01, 0.1, 1}; in d = 3 it costs 2.5-4x less, and
1.1-1.6x less at n = 1e5 with 1024 directions.  Two costs remain.  In
d = 5 the cells are wide: a query costs 1.4-1.9x less at ``s = 0`` and
``s >= 0.1``, but at ``s = 0.01`` nearly every cell is evaluated and the
bounds cost about 1% more at n >= 200 and 20% at n = 60.  And the split
costs 3-4.5 ms for 4096 directions, paid on a grid's first oracle call, so
a caller that builds a grid per query can pay more than a full scan.

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.  A grid's cells are a deterministic function of its
directions, so a grid shared between threads may at worst build them twice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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

# One direction's products with a query's rows (the pass and the gradient)
# and the far-query masks run in row blocks of at most this many entries.
# OpenBLAS hands a matrix-vector product to all of its threads once it is
# large enough (numpy 2.4.6's OpenBLAS 0.3.31 did so from 460,800 entries
# for ``A @ b`` with A of n x 5, and for ``c @ A`` at d = 8), and its idle
# workers then spin: at n = 1e5, d = 3 a solve kept both cores of a 2-core
# host busy, and its time came to depend on what else ran on the second
# core.  In blocks each product runs on the calling thread.
_ROW_BLOCK_ENTRIES = 2**18

# Past this argument ``exp`` overflows to ``inf`` and ``1 / (1 + inf)`` is 0.
_EXP_OVERFLOW = math.log(np.finfo(np.float64).max)

_EPS = float(np.finfo(np.float64).eps)

# Most directions in one cell of a grid's partition (see ``DirectionGrid._cells``).
_CELL_SIZE = 32


def _rounding_tol(d: int) -> float:
    """Relative rounding allowance of a few operations on d-vectors: a
    generous multiple of the ``d * eps`` that a d-term dot product can lose."""
    return 8.0 * (d + 8) * _EPS


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
    The underlying array is copied column-major (Fortran order) and marked
    read-only: each feature is one contiguous n-vector, so the axis-0
    reductions stream through memory instead of looping over n rows of
    length d.  The objective kernel reads a centred copy, built on first
    use and kept with the sample (``_centred``).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.data, name="sample data").copy(order="F")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    @functools.cached_property
    def _mean(self) -> np.ndarray:
        """The per-feature mean, read-only; computed on first use and kept
        with the sample, as every solve's start direction reads it."""
        mean = self.data.mean(axis=0)
        mean.flags.writeable = False
        return mean

    @functools.cached_property
    def _unit_mean(self) -> np.ndarray:
        """The ``paper-mean`` start: the mean over its norm, or ``e_1`` when
        that norm is below 1e-12 (e.g. centered data); read-only, kept with
        the sample."""
        mean = self._mean
        norm = float(np.linalg.norm(mean))
        if norm < 1e-12:
            unit = np.zeros(self.d)
            unit[0] = 1.0
        else:
            unit = mean / norm
        unit.flags.writeable = False
        return unit

    @functools.cached_property
    def _centred(self) -> np.ndarray:
        """``A = [X - mean | ||x - mean||**2 | 1]``, ``(n, d + 2)``,
        column-major and read-only: what the solver's objective reads
        (``_Objective``).  The squared norms add the columns left to right."""
        n, d = self.data.shape
        A = np.empty((n, d + 2), order="F")
        np.subtract(self.data, self._mean, out=A[:, :d])
        norms = np.multiply(A[:, 0], A[:, 0], out=A[:, d])
        for j in range(1, d):
            norms += A[:, j] * A[:, j]
        A[:, d + 1] = 1.0
        A.flags.writeable = False
        return A

    @functools.cached_property
    def _spread(self) -> float:
        """The largest ``||x - mean||``, from the squared norms of ``A``."""
        return math.sqrt(float(self._centred[:, self.d].max()))


def _pooled_std(X: SampleSet) -> float:
    """Square root of the mean per-feature (unbiased) variance.

    The data are divided by their largest absolute entry first and the
    result scaled back, so the variance neither underflows to 0 nor
    overflows for data in extreme units (say 1e-170 or 1e170)."""
    scale = float(np.abs(X.data).max())
    if scale == 0.0:
        return 0.0
    return scale * float(np.sqrt(np.mean(np.var(X.data / scale, axis=0, ddof=1))))


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


class _Cells(NamedTuple):
    """A direction grid split into cells of nearby directions."""

    cell_of: np.ndarray  # the cell of each grid index
    firsts: np.ndarray  # the lowest grid index of each cell, which ascend
    centers: np.ndarray  # (k, d) unit center of each cell
    cos: np.ndarray  # cosine and sine of each cell's angular radius, which is
    sin: np.ndarray  # rounded outward so that it covers every member
    norm_dev: float  # largest | ||u|| - 1 | over the grid's directions


def _partition(directions: np.ndarray) -> _Cells:
    """Split ``directions`` into cells of at most ``_CELL_SIZE`` by recursive
    median splits on the coordinate with the widest range, equal coordinates
    ordered by grid index, so that the partition is a function of the
    directions alone.  The splits are made a level at a time over all cells,
    each level one sort of keys that are all distinct."""
    norms = np.linalg.norm(directions, axis=1)
    unit = directions / norms[:, None]
    m = len(unit)
    # Each direction's rank along each coordinate.
    rank = np.empty(unit.shape, dtype=np.intp)
    for j, col in enumerate(unit.T):
        # a stable sort keeps equal values in order of grid index
        rank[np.argsort(col, kind="stable"), j] = np.arange(m)
    # The cells are the runs of ``order`` between consecutive ``edges``.
    order, edges = np.arange(m), np.array([0, m])
    while True:
        starts, sizes = edges[:-1], edges[1:] - edges[:-1]
        cell = np.repeat(np.arange(starts.size), sizes)
        split = sizes > _CELL_SIZE
        if not split.any():
            break
        pts = unit[order]
        spread = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        along = rank[order, np.argmax(spread, axis=1)[cell]]
        order = order[np.argsort(cell * m + along)]
        edges = np.sort(np.concatenate([edges, starts[split] + sizes[split] // 2]))
    # Members ascend within each cell, and the cells by their first member.
    by_first = np.argsort(np.minimum.reduceat(order, starts))
    order = order[np.argsort(np.argsort(by_first)[cell] * m + order)]
    sizes = sizes[by_first]
    starts = np.cumsum(sizes) - sizes
    members = unit[order]
    sums = np.add.reduceat(members, starts, axis=0)
    lengths = np.linalg.norm(sums, axis=1)
    # A cell whose members sum to 0 is centred on its first member.
    flat = lengths == 0.0
    sums[flat], lengths[flat] = members[starts[flat]], 1.0
    centers = sums / lengths[:, None]
    # Each member's angle from its center, from both the cosine and the
    # sine, which keeps it accurate near 0 and near pi.
    around = np.repeat(centers, sizes, axis=0)
    cos = np.einsum("ij,ij->i", members, around)
    sin = np.linalg.norm(members - cos[:, None] * around, axis=1)
    radius = np.maximum.reduceat(np.arctan2(sin, cos), starts)
    radius = np.minimum(radius + _rounding_tol(unit.shape[1]), np.pi)
    cell_of = np.empty(len(unit), dtype=np.intp)
    cell_of[order] = np.repeat(np.arange(sizes.size), sizes)
    return _Cells(
        cell_of, order[starts], centers, np.cos(radius), np.sin(radius),
        float(np.abs(norms - 1.0).max()),
    )


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

    @functools.cached_property
    def _cells(self) -> _Cells:
        """The directions split into cells of nearby directions for the
        sphere oracle's cell bounds; built on first use, kept with the grid."""
        return _partition(self.directions)

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


def _keep_radius(params: DepthParams, u_norm: float, spread=0.0, tol: float = 0.0):
    """Distance from the query beyond which a sample's term is exactly 0 for
    every direction of norm at most ``rho = max(u_norm, 1 + 1e-9)``.

    For ``s > 0`` the kernel's argument comes from the sample's centred
    matrix and is off by less than ``tol ((||x~|| + ||c~||)**2 + r**2) / s``
    (:class:`_Objective`), where ``||x~|| + ||c~|| <= spread + r rho`` for
    ``spread`` at least ``||x~|| + ||z~||``.  The radius takes that error in
    as if it were part of ``s log(DBL_MAX)``, so a row beyond it still has
    a computed ``-t/s`` above ``log(DBL_MAX)``.  ``spread`` is a float or an
    array of them; the per-query steps are ``+ - * /`` and a square root,
    so both give the same bits.  With the defaults (the grid oracle's
    kernel, computed from ``w = x - z``) it is
    ``1.01 (r rho + hypot(r, sqrt(s log(DBL_MAX))))``."""
    rho = max(u_norm, 1.0 + 1e-9)
    r = params.r
    h = math.hypot(r, math.sqrt(params.s * _EXP_OVERFLOW))
    a, b = (spread + r * rho) / h, r / h
    inner = 1.0 + tol * (a * a + b * b)
    root = math.sqrt(inner) if isinstance(inner, float) else np.sqrt(inner)
    return 1.01 * (r * rho + h * root)


def _row_blocks(k: int, width: int) -> list[slice]:
    """Ranges of whole rows, at most ``_ROW_BLOCK_ENTRIES`` entries each,
    that cover ``k`` rows of ``width`` entries; a single range when the
    product is small.  Each range but the last is a multiple of 64 rows, so
    every block of a column starts at the alignment the column starts at."""
    step = max(64, _ROW_BLOCK_ENTRIES // width // 64 * 64)
    return [slice(lo, lo + step) for lo in range(0, k, step)] or [slice(0, 0)]


def _dot(a: list[float], b: list[float]) -> float:
    # Added left to right from 0, as _rowdot adds it: from Python 3.12 the
    # builtin sum() compensates float sums, which can change the last bit.
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two ``(q, d)`` arrays, each added left to
    right from 0 as :func:`_dot` adds it."""
    out = np.zeros(len(a))
    for j in range(a.shape[1]):
        out += a[:, j] * b[:, j]
    return out


def _row_masks(
    X: SampleSet, zt: np.ndarray, zz: np.ndarray, spread: np.ndarray, radius: np.ndarray
) -> list:
    """The rows that each of the queries ``z~ = z - mean`` (rows of ``zt``)
    keeps, ``None`` for all of them or a mask, given ``||z~||**2``, the
    bound ``spread = max ||x~|| + ||z~||`` and the keep radius of each.

    One product of the centred matrix with ``[-2 z~, 1, ||z~||**2]`` gives
    each row's ``||x - z||**2``, off by less than ``tol * spread**2``; a row
    is dropped only when that value exceeds the squared radius by more.
    The product is a stacked ``np.matmul``, which makes one query's
    matrix-vector product per item, so a query's mask does not depend on
    the other queries; it runs in row blocks (``_ROW_BLOCK_ENTRIES``)."""
    d = X.d
    tol = _rounding_tol(d)
    b = np.empty((len(zt), d + 2))
    np.multiply(zt, -2.0, out=b[:, :d])
    b[:, d], b[:, d + 1] = 1.0, zz
    w2 = np.empty((len(zt), X.n))
    for block in _row_blocks(X.n, d + 2):
        w2[:, block] = np.matmul(X._centred[None, block], b[:, :, None])[:, :, 0]
    masks = []
    for mask in w2 <= (radius * radius + tol * spread * spread)[:, None]:
        if mask.sum() == 1 < X.n:
            # numpy hands a one-row product to a matrix-vector routine,
            # whose bits can differ from that row's in a product of all
            # rows; a second row, whose terms are 0, keeps it a matrix
            # product.
            mask[np.argmin(mask)] = True
        masks.append(None if mask.all() else mask)
    return masks


def _centred_queries(X: SampleSet, z: np.ndarray, params: DepthParams) -> tuple[np.ndarray, list]:
    """For the queries ``z``, the rows of a ``(q, d)`` array (``s > 0``, unit
    directions): ``z~ = z - mean`` and the rows each keeps (``None`` for
    all of them, or a mask), with the bits of :class:`_Objective`'s floats.
    A query keeps every row when ``max ||x~|| + ||z~||`` is within its
    keep radius (:func:`_keep_radius`), and otherwise takes the mask of
    :func:`_row_masks`."""
    zt = z - X._mean
    zz = _rowdot(zt, zt)
    spread = np.sqrt(zz) + X._spread
    radius = _keep_radius(params, 1.0, spread, _rounding_tol(X.d))
    kept: list = [None] * len(z)
    far = np.flatnonzero(spread > radius)
    if far.size:
        masks = _row_masks(X, zt[far], zz[far], spread[far], radius[far])
        for i, mask in zip(far.tolist(), masks):
            kept[i] = mask
    return zt, kept


class _Objective:
    """The solver's objective of one query point ``z`` (``s > 0``).

    It reads the sample's centred matrix
    ``A = [X - mean | ||x - mean||**2 | 1]`` (:attr:`SampleSet._centred`).
    With ``z~ = z - mean`` and the ball's centre ``c~ = z~ + r u``,
    ``-t = ||x - z - r u||**2 - r**2 = ||x~ - c~||**2 - r**2``, so at any
    ambient ``u``

        -t/s = A @ [-2 c~ / s, 1 / s, (||c~||**2 - r**2) / s]:

    one matrix-vector product per direction, with coefficients built from
    d floats.  A query copies nothing of the data unless rows lie beyond
    the keep radius (:func:`_centred_queries`); then it gathers the kept
    rows of ``A`` once, column-major, and every term it drops is exactly 0.
    Every mean sums the kept rows and divides by the full sample size
    ``n``.  The expansion rounds to within ``tol ((||x~|| + ||c~||)**2 +
    r**2) / s`` of ``-t/s`` (``tol = 8 (d + 8) eps``): centring keeps that
    independent of where the data sit, but not of how far a row or the
    ball lie from the sample mean.

    The objective owns two kept-row vectors, allocated once: the sigmoid
    pass of one direction writes into the first, and the gradient's weights
    into the second.  So the result of :meth:`sigmoids` (or of
    :meth:`folded_args`) holds until the next such call on
    the same objective; an objective belongs to one solve, which keeps
    concurrent solves apart.  Both of one direction's products run in row
    blocks (``_ROW_BLOCK_ENTRIES``), so a solve stays on its own thread.
    """

    def __init__(self, z: np.ndarray, X: SampleSet, params: DepthParams, u_norm: float = 1.0):
        self.n, self.r, self.s = X.n, params.r, params.s
        # The steps of _centred_queries on floats, which give the same bits.
        zt = z - X._mean
        self.zt = zt.tolist()
        zz = _dot(self.zt, self.zt)
        spread = math.sqrt(zz) + X._spread
        radius = _keep_radius(params, u_norm, spread, _rounding_tol(X.d))
        self._kept = None
        if spread > radius:
            (self._kept,) = _row_masks(
                X, zt[None], np.array([zz]), np.array([spread]), np.array([radius])
            )
        rows = X._centred.T
        if self._kept is not None:
            rows = rows.compress(self._kept, axis=1)
        self.rows = rows.T  # the kept rows of A, column-major
        self.k = len(self.rows)
        self._data = self.rows[:, : X.d]
        self._fold, self._inv_s, self._rr = -2.0 / self.s, 1.0 / self.s, self.r * self.r
        self._scale = 2.0 * self.r / (self.s * self.n)
        self._coef = np.empty(X.d + 2)
        self._args = np.empty(self.k)
        self._weights = np.empty(self.k)
        self._passes = [(self.rows, self._args)]
        self._sums = [(self._weights, self._data)]
        if self.k * (X.d + 2) > _ROW_BLOCK_ENTRIES:
            blocks = _row_blocks(self.k, X.d + 2)
            self._passes = [(self.rows[block], self._args[block]) for block in blocks]
            self._sums = [(self._weights[block], self._data[block]) for block in blocks]

    def _centre(self, u) -> list[float]:
        """``c~ = z~ + r u`` for a sequence ``u`` of ``d`` floats."""
        r = self.r
        return [a + r * b for a, b in zip(self.zt, u)]

    def folded_args(self, u) -> np.ndarray:
        """``-t/s`` at one ambient direction, ``d`` floats or a ``(d,)``
        array: one product with the kept rows, in the objective's buffer
        (see the class)."""
        if isinstance(u, np.ndarray):
            u = u.tolist()
        centre = self._centre(u)
        fold = self._fold
        coef = [x * fold for x in centre]
        coef += (self._inv_s, (_dot(centre, centre) - self._rr) / self.s)
        self._coef[:] = coef
        for rows, out in self._passes:
            np.matmul(rows, self._coef, out=out)
        return self._args

    def sigmoids(self, u) -> np.ndarray:
        """Per-sample smoothed ball membership at any ambient ``u`` (``d``
        floats or a ``(d,)`` array), in the objective's buffer (see the
        class).  Far samples overflow ``exp``; callers hold
        ``np.errstate(over="ignore")``."""
        return _logistic_of_negated(self.folded_args(u))

    def gradient(self, p: np.ndarray, u: list[float]) -> list[float]:
        """Ambient gradient ``(2r/(s n)) (c @ x~ - (sum c) c~)`` from the
        sigmoids ``p`` at ``u``, with ``c_i = p_i (1 - p_i)`` in the
        objective's weight buffer; ``c @ x~ - (sum c) c~`` is
        ``sum_i c_i (x_i - z - r u)``.  ``u`` is a sequence of ``d``
        floats; the tail after ``c @ x~`` runs on floats, and the scale
        multiplies the d-vector, not the n-vector ``c``."""
        c = np.subtract(1.0, p, out=self._weights)
        c *= p
        total = float(c.sum())
        weights, data = self._sums[0]
        cx = weights @ data
        for weights, data in self._sums[1:]:
            cx += weights @ data
        scale = self._scale
        return [(g - total * x) * scale for g, x in zip(cx.tolist(), self._centre(u))]


class _Stack:
    """The objectives of queries that keep the same rows count ``k``,
    stacked for ``optim``'s lockstep solver (``s > 0``).

    When every query keeps every row the stack holds no rows of its own: it
    reads the sample's centred matrix ``A`` through a broadcast
    ``(1, n, d + 2)`` view.  Otherwise it gathers each query's kept rows as
    ``(q, k, d + 2)``, each item column-major like :attr:`_Objective.rows`.
    Per query it keeps ``z~``, which moves when queries stop.  A stacked
    ``np.matmul`` makes, item by item, the BLAS call of the one query's
    product, the coefficients are built column by column in the float
    loop's order, and each row sum of a contiguous ``(q, k)`` block is the
    query's ``p.sum()``; so each method returns, row by row, the bits of
    the :class:`_Objective` method of its name.

    The methods take the active queries' iterates as a ``(q, d)`` array, and
    :meth:`keep` drops the queries that stopped."""

    def __init__(self, X: SampleSet, zt: np.ndarray, kept: list | None, params: DepthParams):
        self.n, self.r, self.s = X.n, params.r, params.s
        d, q = X.d, len(zt)
        self._gathered = kept is not None
        if self._gathered:
            self._rowsT = np.array([X._centred.T.compress(mask, axis=1) for mask in kept])
        else:
            self._rowsT = X._centred.T[None]
        self.k = self._rowsT.shape[2]
        self.zt = zt
        self._fold, self._rr = -2.0 / self.s, self.r * self.r
        self._scale = 2.0 * self.r / (self.s * self.n)
        self._coef = np.empty((q, d + 2))
        self._coef[:, d] = 1.0 / self.s
        self._args = np.empty((q, self.k))
        self._weights = np.empty((q, self.k))

    def keep(self, count: int, holes: np.ndarray, fill: np.ndarray) -> None:
        """Keep the first ``count`` queries, with the queries at ``fill``
        (each at or above ``count``) moved into the places ``holes`` of
        queries that stopped.  What moves is each query's ``z~``, and its
        gathered rows when the stack has its own."""
        self.zt[holes] = self.zt[fill]
        self.zt = self.zt[:count]
        if self._gathered:
            self._rowsT[holes] = self._rowsT[fill]
            self._rowsT = self._rowsT[:count]

    def _centres(self, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """``c~ = z~ + r u`` for each query (those at ``rows``, if given)."""
        zt = self.zt if rows is None else self.zt.take(rows, axis=0)
        return zt + self.r * u

    def sigmoids(self, u: np.ndarray) -> np.ndarray:
        """Each row is :meth:`_Objective.sigmoids` at that row of ``u``, in
        a buffer that holds until the next call."""
        q, d = u.shape
        centre = self._centres(u)
        coef = self._coef[:q]
        np.multiply(centre, self._fold, out=coef[:, :d])
        coef[:, d + 1] = (_rowdot(centre, centre) - self._rr) / self.s
        m = self._args[:q]
        np.matmul(self._rowsT.transpose(0, 2, 1), coef[:, :, None], out=m[:, :, None])
        return _logistic_of_negated(m)

    def gradient(self, p: np.ndarray, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """:meth:`_Objective.gradient` for the queries at the positions
        ``rows`` of the stack (all of them by default), from the sigmoids
        ``p`` of all its queries and the iterates ``u`` of those in
        ``rows``."""
        d = u.shape[1]
        data = self._rowsT
        if rows is not None:
            p = p.take(rows, axis=0)
            if self._gathered:
                data = data.take(rows, axis=0)
        c = np.subtract(1.0, p, out=self._weights[: len(p)])
        c *= p
        g = np.matmul(c[:, None, :], data[:, :d].transpose(0, 2, 1))[:, 0, :]
        g -= c.sum(axis=1)[:, None] * self._centres(u, rows)
        g *= self._scale
        return g


def _stacks(X: SampleSet, z: np.ndarray, params: DepthParams) -> Iterator[tuple]:
    """The objectives of the queries ``z`` (rows of a ``(q, d)`` array,
    ``s > 0``), grouped by how many rows each keeps: all of them, unless
    ``s`` is small.  Yields each group's positions in ``z`` with its
    :class:`_Stack`, or with ``None`` for a query alone in its count, for
    which a stack costs more than its :class:`_Objective`."""
    zt, kept = _centred_queries(X, z, params)
    counts = np.array([X.n if mask is None else int(mask.sum()) for mask in kept])
    for k in np.unique(counts).tolist():
        group = np.flatnonzero(counts == k)
        if len(group) == 1:
            yield group, None
            continue
        masks = None if k == X.n else [kept[q] for q in group.tolist()]
        yield group, _Stack(X, zt[group], masks, params)


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
        objective = _Objective(z, X, params, math.sqrt(u @ u))
        return float(objective.sigmoids(u).sum()) / objective.n


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
    with np.errstate(over="ignore"):
        objective = _Objective(z, X, params, math.sqrt(u @ u))
        return np.array(objective.gradient(objective.sigmoids(u), u.tolist()))


class _Differences:
    """The grid oracle's kernel for one query point ``z``: ``[w | ||w||**2]``
    with ``w = x - z``, column-major, over the rows within the keep radius
    (:func:`_keep_radius`); every term it drops is exactly 0.

    It evaluates unit directions only, at which the ball argument is
    ``t = 2r <w, u> - ||w||**2``; a sample at the query sits at exactly
    ``t = 0``, which the indicator counts as inside.  At ``s > 0`` a block
    of directions ``U`` costs one product,
    ``-t/s = [w | ||w||**2] @ [-2r U / s ; 1 / s]``, and the logistic.  At
    ``s = 0`` the indicator needs only the sign of ``t``, and ``w``, ``r``
    and the radius are taken in units of the power of two at or below
    ``r``.  Scaling by a power of two is exact, so ``t`` is the one in the
    data's units times a power of 4, with the same sign; but neither
    ``||w_i||**2`` nor ``2r <w_i, u>`` underflows when ``r`` is tiny.
    """

    def __init__(self, z: np.ndarray, X: SampleSet, params: DepthParams):
        self.n, self.s = X.n, params.s
        unit = 1.0 if self.s > 0 else math.ldexp(1.0, math.frexp(params.r)[1] - 1)
        self.r = params.r / unit
        d = X.d
        rows = np.empty((d + 1, X.n))
        w = np.subtract(X.data.T, z[:, None], out=rows[:d])
        if unit != 1.0:
            # For a subnormal r a row can overflow to inf; it lies beyond
            # the keep radius and is dropped below.  Callers hold
            # np.errstate(over="ignore").
            w /= unit
        w2 = np.einsum("ji,ji->i", w, w, out=rows[d])
        radius = _keep_radius(DepthParams(self.r, self.s), 1.0)
        keep = w2 <= radius * radius  # inf, not OverflowError as from radius**2
        if self.s > 0 and keep.sum() == 1 < X.n:
            # As in _row_masks: a second row, whose terms are 0, keeps a
            # one-row product off numpy's matrix-vector routine.
            keep[np.argmin(keep)] = True
        if not keep.all():
            rows = rows.compress(keep, axis=1)
        self.rows = rows.T

    def values(self, directions: np.ndarray) -> np.ndarray:
        """The objective at each unit direction of an ``(m, d)`` block."""
        d = directions.shape[1]
        U = directions.T
        if self.s == 0:
            t = self.rows[:, :d] @ U
            t *= 2.0 * self.r
            t -= self.rows[:, d:]
            terms = t >= 0.0
        else:
            coef = np.empty((d + 1, U.shape[1]))
            np.multiply(U, -2.0 * self.r / self.s, out=coef[:d])
            coef[d] = 1.0 / self.s
            terms = _logistic_of_negated(self.rows @ coef)
        return terms.sum(axis=0) / self.n

    def cell_bounds(self, cells: _Cells, chunk: slice) -> np.ndarray:
        """Values that no member of each cell in ``chunk`` has below it:
        the mean of the terms at a ball argument no larger than the one of
        any member, less what rounding can add to that mean.  See
        :func:`grid_oracle_sphere_depth` for the bound and its rounding."""
        d = self.rows.shape[1] - 1
        w, w2 = self.rows[:, :d], self.rows[:, d]
        if self.s > 0:
            # A row farther than this has a term below eps/n in every
            # direction; leaving it out can only lower the bound.
            reach = self.r + math.sqrt(self.r * self.r + self.s * math.log(self.n / _EPS))
            reachable = w2 <= reach * reach
            if not reachable.all():
                w, w2 = w[reachable], w2[reachable]
        tol = _rounding_tol(d)
        w2 = w2[:, None]
        nw = np.sqrt(w2)
        wc = w @ cells.centers[chunk].T
        near = wc > nw * (tol - cells.cos[chunk])  # the cap stops short of -w/||w||
        # sqrt(||w||**2 - <w, c>**2), raised by what rounding can take from it
        perp = np.multiply(wc, wc)
        np.subtract(w2 * (1.0 + tol), perp, out=perp)
        np.maximum(perp, 0.0, out=perp)
        np.sqrt(perp, out=perp)
        # t = 2r <w, u> - ||w||**2 + r**2 (1 - ||u||**2) at the least <w, u>
        # over the cap, lowered by what the bound's rounding and the
        # directions' norms can add to t.
        dev = cells.norm_dev
        shift = w2 + (2.0 * self.r * nw + w2) * (tol + dev) + 3.0 * self.r * self.r * dev
        if self.s == 0:
            scale, offset = 2.0 * self.r, -shift
        else:  # folded into -t/s
            scale, offset = -2.0 * self.r / self.s, shift / self.s
        perp *= scale * cells.sin[chunk]
        arg = np.multiply(wc, scale * cells.cos[chunk], out=wc)
        arg -= perp
        np.copyto(arg, -scale * nw, where=~near)
        arg += offset
        if self.s == 0:
            return (arg >= 0.0).sum(axis=0) / self.n
        # Below 700 exp stays finite and off its slow overflow path; a term
        # that would be 0 rises by less than 1e-304.
        np.minimum(arg, 700.0, out=arg)
        lower = _logistic_of_negated(arg).sum(axis=0) / self.n
        lower -= 8.0 * (self.n + 8) * _EPS
        # No value is below 0, which keeps a plateau of exact zeros skippable.
        return np.maximum(lower, 0.0, out=lower)


def _scan_values(grid: DirectionGrid, idx: np.ndarray, block: int, block_values) -> np.ndarray:
    """Values at the ascending grid indices ``idx``, bit for bit as the full
    scan of the grid in blocks of ``block`` directions computes them.

    ``block_values`` gives a direction the same value in every block of two
    or more, but a block of one takes other numpy and BLAS paths (a
    matrix-vector product and a pairwise sum).  So each index is evaluated
    with the others from its block of the full scan, and an index alone
    among several is evaluated twice over."""
    out = np.empty(idx.size)
    cuts = np.searchsorted(idx, np.arange(block, grid.m, block)).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, idx.size]):
        if lo == hi:
            continue
        cols = idx[lo:hi]
        start = cols[0] - cols[0] % block
        if cols.size == 1 and min(grid.m, start + block) - start > 1:
            cols = cols.repeat(2)
        out[lo:hi] = block_values(grid.directions.take(cols, axis=0))[: hi - lo]
    return out


def _grid_minimum(grid: DirectionGrid, n: int, block_values, cell_bounds=None) -> OracleResult:
    """Minimum over the grid of ``block_values``, which maps an ``(m, d)``
    block of directions to its ``m`` values; blocks hold about
    ``_ORACLE_BLOCK_ENTRIES`` n-by-m entries.  Ties break to the lowest index.

    ``cell_bounds(cells, chunk)``, when given, returns for the grid's cells
    ``cells`` in the slice ``chunk`` values that no member's value is below.
    Then the first member of each cell is evaluated, and the least of them,
    at the lowest index, is the best so far.  A cell whose bound exceeds
    that value, or equals it while its members all have higher indices,
    cannot hold the answer; only the other cells are evaluated, with the
    arithmetic of the full scan.  The value and the index are then those of
    the full scan.
    """
    block = max(1, _ORACLE_BLOCK_ENTRIES // n)
    if cell_bounds is None:  # the full scan
        values = np.concatenate(
            [block_values(grid.directions[k : k + block]) for k in range(0, grid.m, block)]
        )
    else:
        cells = grid._cells
        first = _scan_values(grid, cells.firsts, block, block_values)
        # The bound holds two n-by-k arrays at once, so it takes half as many
        # cells per chunk as the scan takes directions.
        step = max(1, block // 2)
        lower = np.concatenate(
            [cell_bounds(cells, slice(k, k + step)) for k in range(0, first.size, step)]
        )
        j = int(np.argmin(first))
        keep = (lower < first[j]) | ((lower == first[j]) & (cells.firsts <= cells.firsts[j]))
        take = keep[cells.cell_of]
        take[cells.firsts] = False  # already evaluated
        rest = np.flatnonzero(take)
        values = np.full(grid.m, np.inf)  # a skipped direction cannot be the minimum
        values[cells.firsts] = first
        values[rest] = _scan_values(grid, rest, block, block_values)
    index = int(np.argmin(values))
    return OracleResult(float(values[index]), grid.directions[index].copy(), index)


def grid_oracle_sphere_depth(
    z, X: SampleSet, params: DepthParams, grid: DirectionGrid
) -> OracleResult:
    """Exact minimum of the objective over a grid, skipping the grid's cells
    that provably cannot hold it.

    For ``s = 0`` each term is the indicator ``1{r**2 - ||x - c||**2 >= 0}``
    (boundary samples count as inside), so the value is a multiple of
    ``1/n``.  Ties are broken by the lowest grid index.  The value and the
    index are bit for bit those of evaluating every direction.

    Every term increases with the ball argument ``t = 2r <w, u> - ||w||**2``
    (``w = x - z``).  A cell of the grid is a cap of unit center ``c`` and
    angular radius ``delta``; over it, with ``<w, c> = ||w|| cos(theta)``,

        <w, u> >= ||w|| cos(theta + delta)
               =  <w, c> cos(delta) - sqrt(||w||**2 - <w, c>**2) sin(delta)

    while ``theta + delta <= pi``, that is ``<w, c> >= -||w|| cos(delta)``,
    and ``<w, u> >= -||w||`` otherwise.  The mean of the terms at the
    resulting ``t`` bounds every member's value from below
    (``_Differences.cell_bounds``).  All cells cost one product ``w @ C``.
    Rows whose term is below ``eps/n`` in every direction are left out of
    it, which can only lower the bound.

    Rounding.  A member's computed ``t``, or ``-t/s`` at ``s > 0``, is off
    by less than ``tol (2r ||w|| + ||w||**2)``, over ``s`` at ``s > 0``,
    with ``tol = 8 (d + 8) eps``: its dot product of at most ``d + 1`` terms
    loses at most ``(d + 1) eps`` of their magnitudes, and each of the few
    operations around it, the coefficients' included, one ``eps``; the
    bound's own argument, computed from the same ``w``, rounds by as
    little.  The bound's ``t`` is lowered by that much again, and by
    ``2r ||w|| dev + 3 r**2 dev`` for grid directions whose norms are off 1
    by up to ``dev``; the antipodal test is moved by ``tol ||w||`` toward
    the second case, ``||w||**2 - <w, c>**2`` is raised by ``tol ||w||**2``
    before its square root, and ``delta`` is rounded outward.  At ``s > 0``
    the bound's ``t`` is then folded into ``-t/s``.  So each computed term
    of the bound is at most the computed term of the member, up to the
    relative error of the logistic,
    a few ``eps``; arguments of the bound above 700 are capped, which
    raises a term of 0 by less than 1e-304.
    The two sequential sums of at most ``n`` terms in ``[0, 1]`` add at
    most ``n eps`` each to the means, so the bound exceeds a member's value
    by less than ``8 (n + 8) eps``, which is subtracted from it; no value
    is below 0, so neither is the bound after that.  At ``s = 0`` the terms
    are 0 or 1 and the sums are exact counts, so the bound's count is at
    most every member's and nothing is subtracted.  A cell whose bound
    equals the best value found can then be skipped when its members'
    indices are all higher, as on the plateau of equal counts, or of exact
    zeros, that queries outside the data have.
    """
    z = _as_vector(z, X.d, name="query point")
    if grid.d != X.d:
        raise ValueError(f"grid dimension {grid.d} does not match data dimension {X.d}")

    with np.errstate(over="ignore"):
        kernel = _Differences(z, X, params)
        return _grid_minimum(grid, X.n, kernel.values, kernel.cell_bounds)


def grid_oracle_halfspace_depth(z, X: SampleSet, grid: DirectionGrid) -> OracleResult:
    """Brute-force halfspace (Tukey) depth over a direction grid.

    ``min_u (1/n) * #{i : <u, x_i - z> >= 0}`` with the non-strict
    inequality, so a query equal to a sample counts itself on every side:
    its row of ``X - z`` is exactly 0.  Comparing ``<u, x_i>`` with
    ``<u, z>`` instead would not, as the two products round differently.
    Value is a multiple of ``1/n``; ties break to the lowest grid index.
    """
    z = _as_vector(z, X.d, name="query point")
    if grid.d != X.d:
        raise ValueError(f"grid dimension {grid.d} does not match data dimension {X.d}")
    w = X.data - z

    def block_values(chunk: np.ndarray) -> np.ndarray:
        return np.mean(w @ chunk.T >= 0.0, axis=0)

    return _grid_minimum(grid, X.n, block_values)
