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
(``optim.batch_depth``), sits beside it, reads the same rows and builds
the coefficients in the same order, so each stacked evaluation has, query
by query, the bits of ``_Objective``'s.  The grid oracle has a kernel of
its own, ``_Differences``, which reads ``x - z`` directly.

For ``s > 0`` no solve copies the data.  :class:`SampleSet` keeps one
read-only, column-major matrix ``A = [X - mean | ||x - mean||**2 | 1]``,
built on first use.  With ``z~ = z - mean`` and the ball's centre
``c~ = z~ + r u``, ``-t/s = A @ [-2 c~ / s, 1 / s, (||c~||**2 - r**2) / s]``
at any ambient ``u``: each direction costs one product with ``A``, whose
coefficients come from d floats, and the logistic.  The column of ones
carries the constant coefficient into the product wherever both solver
loops must round alike: in the lockstep stack, and in the per-point
objective of a sample with ``n d`` at or below ``_LOCKSTEP_ENTRIES``.
``_row_mask``'s products read it too.  Above the limit the per-point pass
reads only the first ``d + 1`` columns and adds the constant to the
product's output in place, which spares OpenBLAS a sweep of the output
for the ones: at n = 1e5, d = 3 one direction's coefficients and product
over a 50,000-row slice of ``A`` went from 68-76 to 49-56 us (``timeit``,
best of 7, four process pairs, 2-core x86-64 host, OpenBLAS 0.3.31).
The gradient's ``c @ (X - z)`` is ``c @ X~ - (sum c) z~``.  One
direction's products run in row blocks of at most ``_ROW_BLOCK_ENTRIES``
entries, each small enough that OpenBLAS keeps it on the calling thread,
so a solve uses one core at any n.  The expansion rounds to within
``tol ((||x~|| + ||c~||)**2 + r**2) / s`` (``tol = 8 (d + 8) eps``);
centring keeps that independent of where the data sit.

The grid oracle evaluates blocks of unit directions ``U`` at every ``s``
on a per-query ``[w | ||w||**2 | ||w||]`` with ``w = x - z``: at ``s > 0``
one product ``-t/s = [w | ||w||**2] @ [-2r U / s ; 1 / s]`` and the
logistic, at ``s = 0`` the sign of ``t = 2r (w @ U) - ||w||**2``.  Its arguments
round to within ``tol (2r ||w|| + ||w||**2)``, over ``s`` when ``s > 0``,
whatever the distance of the rows and the ball from the sample mean.

The sigmoid is ``1 / (1 + exp(-t/s))`` on numpy's vectorised ``exp``,
evaluated in place.  For samples far outside the ball ``exp`` overflows to
``inf`` and the sigmoid is exactly 0.  That overflow is expected, so each
public entry point (and the solver in :mod:`spheredepth.optim`) holds
``np.errstate(over="ignore")`` once around its work; every other
floating-point error keeps the caller's setting.

Samples whose term is exactly 0 in every direction can be dropped once
per query.  For a direction of norm ``rho``,
``-t_i >= (||w_i|| - r*rho)**2 - r**2``, so past the radius
``R = 1.01 * (r*rho + hypot(r, sqrt(s * log(DBL_MAX))))`` the argument
``-t_i/s`` exceeds ``log(DBL_MAX)``, ``exp`` overflows and the term is
exactly 0 (for ``s = 0``, ``R = 2.02 r`` and the indicator is 0: the ball
of radius ``r`` through ``z`` cannot reach the sample).  The 1% margin
covers rounding; ``hypot`` keeps ``R`` from underflowing to ``r`` for tiny
``r``.  The oracle's kernel keeps the rows within ``R``.  The solver
drops rows only for samples with ``n d`` above ``_LOCKSTEP_ENTRIES``:
at or below it, the range where ``optim.batch_depth`` solves in lockstep,
both of its loops read every row of ``A``, so they read the same rows.

Above the limit the solver also drops the rows whose terms cannot reach
``eps/(2n)`` of the loss.  The nearest row, within ``near`` of ``z``, has a
term of at least ``lam = sigmoid((r**2 - (near + r*rho)**2) / s)`` at every
direction, so the loss is at least ``lam/n``; past the relative reach
``r*rho + sqrt(r**2 + s * (log(2n/eps) + log(1/lam)))`` every term is at
most ``eps*lam/(2n)``, and all of them together move the loss by less than
``eps/2`` of itself (``_relative_reach``, whose reach the oracle's cell
bounds use too).  The keep radius is the least of ``R`` and the reach, each
widened by the expansion's rounding.  While ``A`` has fewer than
``_REACH_ENTRIES`` entries, a query with a row that may lie beyond ``R``
(``max ||x~|| + ||z~|| > R``) makes one product for the rows'
``||x - z||**2`` and ``near``, rounded up, and gathers the rows within the
radius whenever any row goes, and any other query reads ``A`` itself.
From that size on ``A`` holds its rows in the order of their projection on
one axis, the top eigenvector of the centred rows' scatter, and a query
keeps at most the slab of rows whose projection lies within the keep
radius of its own, widened by the rounding: two binary searches, after one
product with a strided sample of ``_SAMPLE_ROWS`` rows that bounds ``near``
from above.  It reads the slab as a slice, which copies nothing, when no
row can lie beyond ``R`` and at most ``_DROP_SHARE`` of the sampled rows in
the slab lie beyond the radius.  Otherwise it makes the product over the
slab's rows and gathers the rows that the product over all rows would
keep, unless only rows past the reach go and at most ``_DROP_SHARE`` of the
slab's rows do; then it reads the slab.  Every mean still divides by the
full ``n``, so the oracle is exact, and the solver's loss is exact but for
the terms below ``eps*lam/(2n)``.  At small ``s`` most of the sample can
lie beyond the radius, and on multimodal data the far modes do at every
``s``: a solve of the ``large-n`` benchmark (bi-Gaussian, n = 1e5, d = 3,
r = s = 1) reads a slice of about half of ``A``, the mode around its query.

Both grid oracles, the sphere's and the halfspace's, are exact grid
minima with cell bounds, and run one loop (``_grid_minimum``).  Each
:class:`DirectionGrid` is split once, on first use, into cells of nearby
directions (at most 32 in d <= 2, 16 in d = 3 and 8 in d >= 4): the leaves
of scipy's balanced k-d tree, which sends the directions tied with a
median to one side, and a leaf of more copies of one direction cut into
equal runs (``_partition``).  Each cell has a unit center ``c`` and a
chord ``h``, the largest ``||u - c||`` over its members.  As
``<w, u> >= <w, c> - h ||w||`` for every member, one product per block of
cells bounds every cell's values from below: of the sphere kernel's kept
rows ``[w | ||w||**2 | ||w||]`` with ``d + 2`` coefficients per cell, and
of the halfspace's ``w`` with the cells' centers.  The oracle bounds every
cell before it evaluates any, then evaluates the members of
the three cells of least bound, and then only the cells whose bound could
still beat the best of those: it opens cells in ascending bound, the order
of a branch-and-bound.  Its value and index are those of one block that
holds every direction.  On a bi-Gaussian sample (n = 200, 4096 directions,
20 sample queries; interleaved medians of 7 on a 2-core x86-64 host, one
BLAS thread) the sphere oracle evaluates 6-10% of the directions in d = 2
for ``s`` in {0.01, 0.1, 1} and 2.5% at ``s = 0``, and a query costs
4.8-6.6x less than a full scan for ``s > 0`` and 4.9x less at ``s = 0``;
in d = 3 it evaluates 7-25% and costs 2.3-5.3x less, and 2.1x less at
n = 1e5 with 1024 directions.  In d = 5 it costs 2.0-2.4x less at ``s >= 0.1``,
and 1.1x less at ``s = 0.01``, where it still evaluates 83%, and at
``s = 0``.  A halfspace query on bi-Gaussian samples (n = 100 to 1e4, 4096
directions, 10 sample queries, same host) costs 0.11-0.26x a full scan in
d <= 3 and 0.44-0.74x in d = 5.  Two costs remain.  At n = 60 in d = 5 a
sphere query at ``s = 0.01`` or ``s = 0`` costs 1.2x the full scan.  And
the split costs 0.9-2.3 ms for 4096 directions in d = 2 to 5, paid by
either oracle on a grid's first call, so a caller that builds a grid per
query can pay more than a full scan: five halfspace queries per fresh grid
cost 0.13-1.35x the full scan's (interleaved medians of 7, one BLAS
thread).

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.  A grid's cells are a deterministic function of its
directions, so a grid shared between threads may at worst build them twice.
"""

from __future__ import annotations

import functools
import math
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

# One direction's products with a query's rows (the pass and the gradient)
# and the far-query masks run in row blocks of at most this many entries.
# OpenBLAS hands a matrix-vector product to all of its threads once it is
# large enough (numpy 2.4.6's OpenBLAS 0.3.31 did so from 460,800 entries
# for ``A @ b`` with A of n x 5, and for ``c @ A`` at d = 8), and its idle
# workers then spin: at n = 1e5, d = 3 a solve kept both cores of a 2-core
# host busy, and its time came to depend on what else ran on the second
# core.  In blocks each product runs on the calling thread.
_ROW_BLOCK_ENTRIES = 2**18

# A sample with ``n d`` at most this is solved over every row of its centred
# matrix, and ``optim.batch_depth`` solves its queries in lockstep; above it
# the solver drops the rows beyond the keep radius and solves point by
# point.  The limit was set where a block of ``X - z`` copies stopped
# fitting the caches; lockstep now pays up to about 8,000 (``optim``'s
# module docstring).
_LOCKSTEP_ENTRIES = 2**12

# Past this argument ``exp`` overflows to ``inf`` and ``1 / (1 + inf)`` is 0.
_EXP_OVERFLOW = math.log(np.finfo(np.float64).max)

_EPS = float(np.finfo(np.float64).eps)

# Above ``_LOCKSTEP_ENTRIES``, a query none of whose rows can overflow
# ``exp`` drops the rows past the relative reach only when the centred
# matrix has at least ``_REACH_ENTRIES`` entries and more than
# ``_DROP_SHARE`` of the rows of its slab go, estimated first on the rows
# among every ``n // _SAMPLE_ROWS``-th row that lie in the slab
# (``_row_mask``).  The product that finds the rows costs about half a pass,
# the gather one to two, and the estimate about 8 us; 256 rows put the
# estimated share within about 0.03 (one standard error).  Per-query solve
# time against the overflow radius alone (r = 1, 24 sample rows and 24
# standard-normal points per shape, s in {1, 0.1, 0.01}, one BLAS thread,
# interleaved medians of 5 on a 2-core x86-64 host): without the size rule,
# the standard-normal points of bi-Gaussian samples at s = 1, which stop
# after one to five iterations, read 1.14x (d = 2, n = 3,000), 1.24x (3,
# 3,000) and 1.30x (5, 2,000); at 2**15 they read 1.04-1.06x, and the sample
# rows of bi-Gaussian (2, 5,000) at s = 1 lost their 0.91x.  A share of 0.2
# read as 0.3 and 0.4 did on the shapes at and above the size.  Only from
# that size on are the rows sorted and a query's slab found: below it the
# slab's product with the sampled rows, its two searches and its estimate,
# about 5 us a query, cost more than they save (with a slab at every size
# above the lockstep limit, the standard-normal points of bi-Gaussian (5,
# 2,000) at s = 0.1 read 1.23x and those of (3, 3,000) at s = 0.01 1.14x of
# the time without one; both mask rows beyond the overflow radius in solves
# of about 0.05 ms).
_DROP_SHARE = 0.2
_SAMPLE_ROWS = 256
_REACH_ENTRIES = 2**15


def _cell_size(d: int) -> int:
    """Most directions in one cell of a d-dimensional grid's partition (see
    ``DirectionGrid._cells``)."""
    return 32 if d <= 2 else 16 if d == 3 else 8


# The grid oracles first evaluate every member of this many cells, those of
# least bound, to find the value that prunes the others (``_grid_minimum``).
# On 60 sample queries of a bi-Gaussian sample at each s in {1, 0.1, 0.01}
# (n = 200, d = 2, 4096 directions), 1, 3 and 8 cells sent 40,832, 42,016 and
# 57,024 directions to the kernel in 332, 294 and 223 calls, against 62,379
# in 360 for a first round of one member per cell, and a query took 0.92,
# 0.90 and 0.97 of that order's time (interleaved medians of 9).
_FIRST_CELLS = 3


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
    def _layout(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """``(A, keys, axis)``, built together on first use: the centred
        matrix, and for a sample whose rows are sorted its rows' keys and
        the axis that gives them (``_centred``, ``_keys``, ``_axis``).

        The rows keep the data's order while ``A`` has fewer than
        ``_REACH_ENTRIES`` entries, where a query's product with every row
        costs about as little as finding a slab; then ``keys`` and ``axis``
        are ``None``.  That covers every sample that the lockstep solver
        reads whole: for any ``d >= 1``, ``n d <= _LOCKSTEP_ENTRIES`` gives
        ``n (d + 2) <= 3 * _LOCKSTEP_ENTRIES``, below ``_REACH_ENTRIES``.
        Otherwise the rows ascend in key (:func:`_projection` on the axis,
        sorted stably), equal keys in data order, so that a query reads the
        rows near it as one slice (``_row_mask``).
        The keys are one more column of the array that holds ``A``, and the
        order is not kept, so a sorted sample holds no long-lived array of
        ``n`` entries of its own: on glibc such an array takes a free heap
        block that a caller's temporaries of ``n`` entries would reuse, and
        those then grow the top of the heap on every call, to be trimmed
        and faulted in again."""
        n, d = self.data.shape
        if n * (d + 2) < _REACH_ENTRIES:
            A = np.empty((n, d + 2), order="F")
            np.subtract(self.data, self._mean, out=A[:, :d])
            _fill_norms(A, d)
            A.flags.writeable = False
            return A, None, None
        block = np.empty((n, d + 3), order="F")
        centred = self.data - self._mean
        axis = _top_axis(centred)
        keys = _projection(centred, axis)
        order = np.argsort(keys, kind="stable")
        for j in range(d):
            np.take(centred[:, j], order, out=block[:, j])
        np.take(keys, order, out=block[:, d + 2])
        del centred, keys, order
        _fill_norms(block, d)
        block.flags.writeable = False
        return block[:, : d + 2], block[:, d + 2], axis

    @functools.cached_property
    def _centred(self) -> np.ndarray:
        """``A = [X - mean | ||x - mean||**2 | 1]``, ``(n, d + 2)``,
        column-major and read-only, its rows sorted by key when ``_keys`` is
        not ``None``: what the solver's objective reads (``_Objective``).
        The lockstep stack (``_Stack``) and ``_row_mask`` read all ``d + 2``
        columns, and so does ``_Objective`` for ``n d`` at or below
        ``_LOCKSTEP_ENTRIES``; above it, ``_Objective`` reads the first
        ``d + 1`` and adds the constant coefficient after its product.
        The squared norms add the columns left to right.  No other copy of
        it is kept."""
        return self._layout[0]

    @functools.cached_property
    def _keys(self) -> np.ndarray | None:
        """The key of each row of ``A``, ascending, read-only; ``None`` when
        ``A`` keeps the data's order (``_layout``)."""
        return self._layout[1]

    @functools.cached_property
    def _axis(self) -> np.ndarray | None:
        """The unit axis that gives ``_keys`` (:func:`_top_axis`), read-only;
        ``None`` when ``A`` keeps the data's order."""
        return self._layout[2]

    @functools.cached_property
    def _sample(self) -> np.ndarray:
        """Every ``n // _SAMPLE_ROWS``-th row of ``A`` (every row for ``n``
        below ``2 * _SAMPLE_ROWS``), row-major: the rows on which the solver
        bounds the nearest row's distance and estimates how many of a slab's
        rows a query drops (``_row_mask``)."""
        return np.ascontiguousarray(self._centred[:: _sample_step(self.n)])

    @functools.cached_property
    def _spread(self) -> float:
        """The largest ``||x - mean||``, from the squared norms of ``A``."""
        return math.sqrt(float(self._centred[:, self.d].max()))


def _sample_step(n: int) -> int:
    """The stride of ``SampleSet._sample`` in the rows of ``A``."""
    return max(1, n // _SAMPLE_ROWS)


def _fill_norms(A: np.ndarray, d: int) -> None:
    """Write ``||x - mean||**2``, its terms added left to right, and the
    ones into columns ``d`` and ``d + 1`` of ``A``, whose first ``d``
    columns hold the centred rows."""
    norms = np.multiply(A[:, 0], A[:, 0], out=A[:, d])
    for j in range(1, d):
        norms += A[:, j] * A[:, j]
    A[:, d + 1] = 1.0


def _top_axis(centred: np.ndarray) -> np.ndarray:
    """The top eigenvector of the scatter of the centred ``(n, d)`` rows,
    its largest entry positive, read-only.  Each entry of the scatter is
    the pairwise sum of one product of two columns (``np.add.reduce``), so
    the axis does not depend on BLAS threading; the columns are divided by
    their largest entry first, so that the scatter neither overflows nor
    underflows."""
    scale = float(np.abs(centred).max())
    scaled = centred / scale if scale > 0.0 else centred
    d = centred.shape[1]
    scatter = np.empty((d, d))
    for j in range(d):
        for k in range(j + 1):
            scatter[j, k] = scatter[k, j] = np.add.reduce(scaled[:, j] * scaled[:, k])
    axis = np.linalg.eigh(scatter)[1][:, -1]
    axis /= math.sqrt(_dot(axis.tolist(), axis.tolist()))
    if axis[np.argmax(np.abs(axis))] < 0.0:
        axis = -axis
    axis.flags.writeable = False
    return axis


def _projection(centred: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """``centred @ axis`` for an ``(n, d)`` array, each row's terms added
    left to right from 0 as :func:`_dot` adds them, with no BLAS call."""
    keys = centred[:, 0] * axis[0]
    for j in range(1, len(axis)):
        keys += centred[:, j] * axis[j]
    return keys


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
    chords: np.ndarray  # each cell's largest ||u - c|| over its members u as
    # the grid stores them, rounded outward


def _partition(directions: np.ndarray) -> _Cells:
    """Split ``directions`` into cells of at most ``_cell_size(d)``: the leaves
    of scipy's balanced k-d tree, which halves each node at the median of
    the coordinate with the widest range.  The directions equal to the
    median go to the upper half, or to the lower one when no direction lies
    below it, so the partition is a function of the directions alone.  A
    leaf holds more only when it holds copies of one direction; it is cut
    into the fewest equal runs of grid indices."""
    from scipy.spatial import cKDTree  # deferred: it adds about 0.2 s to the CLI's import

    unit = directions / np.linalg.norm(directions, axis=1)[:, None]
    size = _cell_size(unit.shape[1])
    cells, nodes = [], [cKDTree(unit, leafsize=size, balanced_tree=True).tree]
    while nodes:
        node = nodes.pop()
        if node.split_dim >= 0:
            nodes += [node.lesser, node.greater]
        else:
            leaf = np.sort(node.indices)
            runs = -(-leaf.size // size)
            # array_split costs as much as all the rest of a leaf's work
            cells += np.array_split(leaf, runs) if runs > 1 else [leaf]
    # Members ascend within each cell, and the cells by their first member.
    cells.sort(key=lambda cell: cell[0])
    order = np.concatenate(cells)
    sizes = np.array([cell.size for cell in cells])
    starts = np.cumsum(sizes) - sizes
    members = unit[order]
    sums = np.add.reduceat(members, starts, axis=0)
    lengths = np.linalg.norm(sums, axis=1)
    # A cell whose members sum to 0 is centred on its first member.
    flat = lengths == 0.0
    sums[flat], lengths[flat] = members[starts[flat]], 1.0
    centers = sums / lengths[:, None]
    # Rounded outward: a computed norm is within (d + 3) eps of the exact one.
    gaps = np.linalg.norm(directions[order] - np.repeat(centers, sizes, axis=0), axis=1)
    chords = np.maximum.reduceat(gaps, starts) * (1.0 + _rounding_tol(unit.shape[1]))
    cell_of = np.empty(len(unit), dtype=np.intp)
    cell_of[order] = np.repeat(np.arange(sizes.size), sizes)
    return _Cells(cell_of, order[starts], centers, chords)


@dataclass(frozen=True, eq=False)
class DirectionGrid:
    """Deterministic finite set of unit directions used by the grid oracles.

    :meth:`generate` builds equiangular angles for d = 2, a Fibonacci spiral
    for d = 3, and seeded normalized Gaussians for d > 3.
    """

    directions: np.ndarray

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
        grid oracles' cell bounds; built on first use, kept with the grid."""
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
            return cls(dirs)
        if d == 2:
            theta = 2.0 * np.pi * np.arange(m) / m
            dirs = np.column_stack([np.cos(theta), np.sin(theta)])
            return cls(dirs)
        if d == 3:
            k = np.arange(m)
            zcoord = 1.0 - 2.0 * (k + 0.5) / m
            rho = np.sqrt(np.clip(1.0 - zcoord**2, 0.0, 1.0))
            golden = np.pi * (3.0 - np.sqrt(5.0))
            theta = golden * k
            dirs = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), zcoord])
            return cls(dirs)
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((m, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        return cls(dirs)


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


def _past(r: float, rho: float, h: float, spread: float, tol: float) -> float:
    """``r rho + h sqrt(1 + tol (a**2 + b**2))`` with ``a = (spread + r rho) / h``
    and ``b = r / h``: past this distance from the query a row's ``-t/s``
    is at least ``(h**2 - r**2) / s`` at every direction of norm ``rho``,
    as ``-t >= (||w|| - r rho)**2 - r**2``.

    For ``s > 0`` the solver's argument comes from the sample's centred
    matrix and is off by less than ``tol ((||x~|| + ||c~||)**2 + r**2) / s``
    (:class:`_Objective`), where ``||x~|| + ||c~|| <= spread + r rho`` for
    ``spread`` at least ``||x~|| + ||z~||``.  The distance takes that error
    in as if it were part of ``h**2``, so the computed ``-t/s`` of a row past
    it, as well as the exact one, is at least ``(h**2 - r**2) / s``.  With
    ``tol = 0`` (the grid oracle's kernel, computed from ``w = x - z``) it
    is ``r rho + h``."""
    a, b = (spread + r * rho) / h, r / h
    return r * rho + h * math.sqrt(1.0 + tol * (a * a + b * b))


def _keep_radius(params: DepthParams, u_norm: float, spread: float = 0.0, tol: float = 0.0):
    """Distance from the query beyond which a sample's term is exactly 0 for
    every direction of norm at most ``rho = max(u_norm, 1 + 1e-9)``: 1.01
    times the distance (:func:`_past`) past which ``-t/s``, computed from the
    centred matrix when ``tol > 0``, exceeds ``log(DBL_MAX)``.  With the
    defaults (the grid oracle's kernel) it is
    ``1.01 (r rho + hypot(r, sqrt(s log(DBL_MAX))))``."""
    rho = max(u_norm, 1.0 + 1e-9)
    h = math.hypot(params.r, math.sqrt(params.s * _EXP_OVERFLOW))
    return 1.01 * _past(params.r, rho, h, spread, tol)


def _relative_reach(
    r: float, rho: float, s: float, n: int, least: float, spread: float = 0.0, tol: float = 0.0
) -> float:
    """Distance from the query past which every term at a direction of norm
    ``rho`` is below ``eps / (2n)`` times ``exp((r**2 - least) / s)``, where
    ``least`` is a squared length: the distance of :func:`_past` for
    ``h = sqrt(least + s log(2n / eps))``, with the centred matrix's rounding
    folded in as there when ``tol > 0``.

    A caller passes the ``least`` whose ``exp((r**2 - least) / s)`` is at
    most the nearest row's least term: then the rows past the reach, at most
    ``n`` of them, move any mean of the terms over ``n`` by less than
    ``eps / 2`` of itself."""
    h = math.sqrt(least + s * math.log(2 * n / _EPS))
    return _past(r, rho, h, spread, tol)


def _softplus(x: float) -> float:
    """``log(1 + exp(x))`` without overflow: ``log(1 / sigmoid(-x))``."""
    return x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))


def _solver_reach(
    params: DepthParams, rho: float, n: int, near: float, spread: float, tol: float
) -> float:
    """The solver's relative reach (:func:`_relative_reach`) for a query whose
    nearest row lies within ``near``: at any direction of norm ``rho`` that
    row's term is at least ``lam = sigmoid((r**2 - (near + r rho)**2) / s)``,
    and ``least = r**2 + s log(1 / lam)``, with ``log(1 / lam)`` a softplus,
    so that ``lam`` does not underflow.  The centred matrix's rounding is
    folded in with ``tol``, whose share of ``(spread + r rho)**2`` also
    covers the few ulps that ``least`` rounds by."""
    r, s = params.r, params.s
    far = near + r * rho
    least = r * r + s * _softplus((far * far - r * r) / s)
    return _relative_reach(r, rho, s, n, least, spread, tol)


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


def _row_mask(X: SampleSet, zt: np.ndarray, zz: float, params: DepthParams, u_norm: float):
    """The rows of the centred matrix ``A`` (:attr:`SampleSet._centred`)
    that the solver keeps for the query ``z~ = z - mean``, given
    ``||z~||**2``, at directions of norm at most ``u_norm``: a slice of
    them, or a mask over all of them.

    The keep radius is the least of the overflow radius
    (:func:`_keep_radius`) and the relative reach (:func:`_solver_reach`),
    which grows with the nearest row's distance.  A product of rows of
    ``A`` with ``[-2 z~, 1, ||z~||**2]`` gives their ``||x - z||**2``, off
    by less than ``slack = tol * spread**2`` with
    ``spread = max ||x~|| + ||z~||``, which bounds every row's distance from
    the query: the nearest row's distance is taken from it rounded up, and a
    row is dropped only when its value exceeds the squared radius by more.
    The products run in row blocks (``_ROW_BLOCK_ENTRIES``).

    A query keeps every row when no row can lie beyond the overflow radius
    (``spread`` is at most that) and either ``A`` has fewer than
    ``_REACH_ENTRIES`` entries or ``spread`` is within the reach of a
    nearest row at distance 0.  Below that size any other query makes the
    product with every row and drops the rows beyond the keep radius.

    From that size on the rows of ``A`` ascend in key (``SampleSet._keys``,
    their projection on ``SampleSet._axis``).  A query first makes the
    product with the rows of ``SampleSet._sample``, whose least value gives
    a radius no less than the keep radius, and two binary searches find the
    slab of rows whose key lies within
    ``h = sqrt(radius**2 + 2 slack) (1 + tol) + tol * spread`` of the
    query's.  A row outside the slab lies farther than
    ``sqrt(radius**2 + 2 slack)`` from the query, so its computed
    ``||x - z||**2`` exceeds ``radius**2 + slack``: the difference of two
    keys is at most ``||x~ - z~||`` times the axis's norm, which is within
    ``(d + 2) eps`` of 1, and the keys and ``h`` round by less than
    ``tol * spread`` and ``tol h``.  When rows can go only by the reach and
    at most ``_DROP_SHARE`` of the sampled rows within the slab lie beyond
    the radius, the query keeps the slab.  Otherwise the product runs over
    the slab's rows, whose least value gives the keep radius, and the rows
    beyond it go; but when rows can go only by the reach and at most
    ``_DROP_SHARE`` of the slab's rows do, the query keeps the slab.  The
    nearest row lies in the slab whenever a product with every row of ``A``
    would keep any row, so the mask keeps the rows that that product
    would."""
    n, d = X.n, X.d
    tol = _rounding_tol(d)
    rho = max(u_norm, 1.0 + 1e-9)
    spread = math.sqrt(zz) + X._spread
    overflow = _keep_radius(params, rho, spread, tol)
    reach_only = spread <= overflow
    sorted_rows = X._keys is not None  # A has _REACH_ENTRIES entries or more
    if reach_only and (
        not sorted_rows or spread <= _solver_reach(params, rho, n, 0.0, spread, tol)
    ):
        return slice(0, n)
    slack = tol * spread * spread
    b = np.empty(d + 2)
    np.multiply(zt, -2.0, out=b[:d])
    b[d], b[d + 1] = 1.0, zz

    def keep_radius(w2: np.ndarray) -> float:
        near = math.sqrt(max(float(w2.min(initial=math.inf)) + slack, 0.0))
        return min(overflow, _solver_reach(params, rho, n, near, spread, tol))

    def kept(w2: np.ndarray, radius: float) -> np.ndarray | None:
        mask = w2 <= radius * radius + slack
        enough = _DROP_SHARE * len(w2) if reach_only else 0
        return mask if len(w2) - np.count_nonzero(mask) > enough else None

    lo, hi, slab_kept = 0, n, False
    if sorted_rows:
        sampled = X._sample @ b
        radius = keep_radius(sampled)
        half = math.sqrt(radius * radius + 2.0 * slack) * (1.0 + tol) + tol * spread
        key = _dot(zt.tolist(), X._axis.tolist())
        lo = int(X._keys.searchsorted(key - half, "left"))
        hi = int(X._keys.searchsorted(key + half, "right"))
        step = _sample_step(n)
        slab_kept = reach_only and kept(sampled[-(-lo // step) : -(-hi // step)], radius) is None
    inside = None
    if not slab_kept:
        w2 = np.empty(hi - lo)
        rows = X._centred[lo:hi]
        for block in _row_blocks(hi - lo, d + 2):
            np.matmul(rows[block], b, out=w2[block])
        inside = kept(w2, keep_radius(w2))
    # numpy hands a one-row product to a matrix-vector routine, whose bits
    # can differ from that row's in a product of more rows; a second row,
    # whose terms are negligible, keeps it a matrix product.
    if inside is None:
        if hi - lo == 1 < n:
            lo, hi = (lo, hi + 1) if hi < n else (lo - 1, hi)
        return slice(lo, hi)
    if np.count_nonzero(inside) == 1:
        inside[np.argmin(inside)] = True
    if hi - lo == n:
        return inside
    mask = np.zeros(n, dtype=bool)
    mask[lo:hi] = inside
    return mask


class _Objective:
    """The solver's objective of one query point ``z`` (``s > 0``).

    It reads the sample's centred matrix
    ``A = [X - mean | ||x - mean||**2 | 1]`` (:attr:`SampleSet._centred`).
    With ``z~ = z - mean`` and the ball's centre ``c~ = z~ + r u``,
    ``-t = ||x - z - r u||**2 - r**2 = ||x~ - c~||**2 - r**2``, so at any
    ambient ``u``

        -t/s = A @ [-2 c~ / s, 1 / s, (||c~||**2 - r**2) / s]:

    one matrix-vector product per direction, with coefficients built from
    d floats.  For a sample with ``n d <= _LOCKSTEP_ENTRIES`` it reads every
    row and every column of ``A``, as :class:`_Stack` does, so the two
    round alike.  Above that it drops the rows
    beyond the keep radius, the least of the overflow radius
    (:func:`_keep_radius`) and the relative reach (:func:`_solver_reach`) of
    the directions of norm at most ``u_norm``, as far as :func:`_row_mask`
    finds that dropping them pays: it reads a slice of the rows of ``A``,
    which copies nothing, or gathers the rows of a mask once, column-major.
    Nor does it read the column of ones there: its product takes the first
    ``d + 1`` coefficients, and it adds the constant one to each row block
    of the output in place, which saves OpenBLAS a sweep of the output.
    On OpenBLAS 0.3.31 that keeps every bit for odd ``d``, where the
    product over ``d + 2`` columns adds the ones last and on their own; for
    even ``d`` it adds them together with another column, and a sum can
    differ in the last bit.
    Every term it drops is exactly 0, or, within the overflow radius, at
    most ``eps lam / (2n)`` with ``lam`` the nearest row's least term, so
    the loss it leaves out is less than ``eps / 2`` of the loss.  Every mean
    sums the kept rows and divides by the full sample size ``n``.  The
    expansion rounds to within ``tol ((||x~|| + ||c~||)**2 + r**2) / s`` of
    ``-t/s`` (``tol = 8 (d + 8) eps``): centring keeps that independent of
    where the data sit, but not of how far a row or the ball lie from the
    sample mean.

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
        zt = z - X._mean
        self.zt = zt.tolist()
        self._kept, width = slice(0, X.n), X.d + 2
        if X.n * X.d > _LOCKSTEP_ENTRIES:
            self._kept = _row_mask(X, zt, _dot(self.zt, self.zt), params, u_norm)
            width = X.d + 1  # the pass adds the constant coefficient itself
        if isinstance(self._kept, slice):
            self.rows = X._centred[self._kept, :width]  # the kept rows of A, column by column
        else:
            self.rows = X._centred[:, :width].T.compress(self._kept, axis=1).T
        self.k = len(self.rows)
        self._data = self.rows[:, : X.d]
        self._fold, self._inv_s, self._rr = -2.0 / self.s, 1.0 / self.s, self.r * self.r
        self._scale = 2.0 * self.r / (self.s * self.n)
        self._coef = np.empty(X.d + 2)
        self._product = self._coef[:width]
        self._adds = width == X.d + 1
        self._args = np.empty(self.k)
        self._weights = np.empty(self.k)
        blocks = _row_blocks(self.k, X.d + 2)
        self._passes = [(self.rows[block], self._args[block]) for block in blocks]
        self._sums = [(self._weights[block], self._data[block]) for block in blocks]

    def folded_args(self, u) -> np.ndarray:
        """``-t/s`` at one ambient direction, ``d`` floats or a ``(d,)``
        array: one product with the kept rows, in the objective's buffer
        (see the class).  One pass over ``c~ = z~ + r u`` gives the
        coefficients and ``||c~||**2``, added left to right from 0 as
        :func:`_dot` adds it."""
        if isinstance(u, np.ndarray):
            u = u.tolist()
        r, fold = self.r, self._fold
        coef, cc = [], 0.0
        for a, b in zip(self.zt, u):
            c = a + r * b
            cc += c * c
            coef.append(c * fold)
        constant = (cc - self._rr) / self.s
        coef += (self._inv_s, constant)
        self._coef[:] = coef
        for rows, out in self._passes:
            np.matmul(rows, self._product, out=out)
            if self._adds:
                out += constant
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
        total = float(np.add.reduce(c))
        weights, data = self._sums[0]
        cx = weights @ data
        for weights, data in self._sums[1:]:
            cx += weights @ data
        r, scale = self.r, self._scale
        return [(g - total * (a + r * b)) * scale for g, a, b in zip(cx.tolist(), self.zt, u)]


class _Stack:
    """The objectives of a block of queries, stacked for ``optim``'s lockstep
    solver (``s > 0``, ``n d <= _LOCKSTEP_ENTRIES``).

    Like each query's :class:`_Objective` in that range, the stack reads
    every row of the sample's centred matrix ``A``, through a broadcast
    ``(1, n, d + 2)`` view, and copies no data.  Per query it keeps
    ``z~ = z - mean``, one row of ``zt``.  A stacked ``np.matmul`` makes,
    item by item, the BLAS call of the one query's product, the
    coefficients are built column by column in the float loop's order, and
    each row sum of a contiguous ``(q, n)`` block is the query's pairwise
    ``np.add.reduce(p)``; so each method returns, row by row, the bits of
    the :class:`_Objective` method of its name, whatever the row's place.

    The methods take the live queries' iterates as a ``(q, d)`` array, row
    by row in the order of ``zt``, whose rows the lockstep loop narrows to
    those of the live queries when some stop."""

    def __init__(self, X: SampleSet, z: np.ndarray, params: DepthParams):
        self.n, self.r, self.s = X.n, params.r, params.s
        d, q = X.d, len(z)
        self._centred = X._centred[None]
        self.zt = z - X._mean
        self._fold, self._rr = -2.0 / self.s, self.r * self.r
        self._scale = 2.0 * self.r / (self.s * self.n)
        self._coef = np.empty((q, d + 2))
        self._coef[:, d] = 1.0 / self.s
        self._args = np.empty((q, self.n))
        self._weights = np.empty((q, self.n))

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
        np.matmul(self._centred, coef[:, :, None], out=m[:, :, None])
        return _logistic_of_negated(m)

    def gradient(self, p: np.ndarray, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """:meth:`_Objective.gradient` for the queries at the positions
        ``rows`` of the stack (all of them by default), from the sigmoids
        ``p`` of all its queries and the iterates ``u`` of those in
        ``rows``."""
        d = u.shape[1]
        if rows is not None:
            p = p.take(rows, axis=0)
        c = np.subtract(1.0, p, out=self._weights[: len(p)])
        c *= p
        g = np.matmul(c[:, None, :], self._centred[:, :, :d])[:, 0, :]
        g -= c.sum(axis=1)[:, None] * self._centres(u, rows)
        g *= self._scale
        return g


def sphere_loss(u, z, X: SampleSet, params: DepthParams) -> float:
    """Smoothed ball-mass objective at direction ``u``.

    ``(1/n) * sum_i sigmoid_s(r**2 - ||x_i - z - r*u||**2)``.  The formula
    is defined for any ambient vector ``u``; the depth solver and oracles
    evaluate it on unit vectors only.  For a sample with ``n d`` above
    ``core._LOCKSTEP_ENTRIES`` it leaves out the rows the solver leaves out
    for a direction of ``u``'s norm (``_Objective``), whose terms add up to
    less than ``eps/2`` of the loss; so the loss at a solver's returned
    direction is the solver's ``value``, bit for bit.
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
    It sums the rows that :func:`sphere_loss` sums; a row left out has a
    term of at most ``eps lam / (2n)``, so it would move the gradient by at
    most that times ``2r ||w_i|| / (s n)``.
    """
    if params.s <= 0:
        raise ValueError("sphere_loss_gradient requires s > 0")
    u = _as_vector(u, X.d, name="direction")
    z = _as_vector(z, X.d, name="query point")
    with np.errstate(over="ignore"):
        objective = _Objective(z, X, params, math.sqrt(u @ u))
        return np.array(objective.gradient(objective.sigmoids(u), u.tolist()))


class _Differences:
    """The grid oracle's kernel for one query point ``z``:
    ``[w | ||w||**2 | ||w||]`` with ``w = x - z``, column-major, over the
    rows within the keep radius (:func:`_keep_radius`); every term it drops
    is exactly 0.  The values read the first ``d + 1`` columns, the cell
    bounds all ``d + 2``.

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
        rows = np.empty((d + 2, X.n))
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
            # As in _row_mask: a second row, whose terms are 0, keeps a
            # one-row product off numpy's matrix-vector routine.
            keep[np.argmin(keep)] = True
        if not keep.all():
            rows = rows.compress(keep, axis=1)
        # hypot, not sqrt of the column above: ||w||**2 can underflow where ||w|| does not
        np.hypot.reduce(rows[:d], axis=0, out=rows[d + 1], initial=0.0)
        self.rows = rows.T

    def values(self, directions: np.ndarray) -> np.ndarray:
        """The objective at each unit direction of an ``(m, d)`` block."""
        d = directions.shape[1]
        U = directions.T
        if self.s == 0:
            t = self.rows[:, :d] @ U
            t *= 2.0 * self.r
            t -= self.rows[:, d : d + 1]
            terms = t >= 0.0
        else:
            coef = np.empty((d + 1, U.shape[1]))
            np.multiply(U, -2.0 * self.r / self.s, out=coef[:d])
            coef[d] = 1.0 / self.s
            terms = _logistic_of_negated(self.rows[:, : d + 1] @ coef)
        return terms.sum(axis=0) / self.n

    def cell_bounds(self, cells: _Cells, chunk: slice) -> np.ndarray:
        """Values that no member of each cell in ``chunk`` has below it:
        the mean of the terms at a ball argument no larger than the one of
        any member, less what rounding can add to that mean.  See
        :func:`grid_oracle_sphere_depth` for the bound and its rounding."""
        rows = self.rows
        d = rows.shape[1] - 2
        tol = _rounding_tol(d)
        centers = cells.centers[chunk].T
        # t = 2r <w, c> - (1 + tol) ||w||**2 - 2r (h + tol) ||w||, over -s at s > 0
        coef = np.empty((d + 2, centers.shape[1]))
        np.multiply(centers, 2.0 * self.r, out=coef[:d])
        coef[d] = -1.0 - tol
        np.multiply(cells.chords[chunk] + tol, -2.0 * self.r, out=coef[d + 1])
        if self.s == 0:
            return (rows @ coef >= 0.0).sum(axis=0) / self.n
        # Every value is at least 1/n of the nearest row's least term, which
        # is at least exp((r**2 - near**2) / s) / 2, and a row beyond this
        # reach has terms below eps/n of that: leaving it out lowers the
        # bound by less than eps times any value.
        nw = rows[:, d + 1]
        near = self.r + float(nw.min(initial=math.inf))
        reach = _relative_reach(self.r, 1.0, self.s, self.n, near * near)
        reachable = nw <= reach
        if not reachable.all():
            rows = rows[reachable]
        coef /= -self.s
        arg = rows @ coef
        # Below 700 exp stays finite and off its slow overflow path; a term
        # that would be 0 rises by less than 1e-304.
        np.minimum(arg, 700.0, out=arg)
        lower = _logistic_of_negated(arg).sum(axis=0) / self.n
        lower *= 1.0 - 8.0 * (self.n + 8) * _EPS
        lower -= 1e-303
        # No value is below 0, which keeps a plateau of exact zeros skippable.
        return np.maximum(lower, 0.0, out=lower)


def _grid_minimum(grid: DirectionGrid, n: int, block_values, cell_bounds) -> OracleResult:
    """Minimum over the grid of ``block_values``, which maps an ``(m, d)``
    block of directions to its ``m`` values.  Ties break to the lowest index.

    ``cell_bounds(cells, chunk)`` returns for the grid's cells ``cells`` in
    the slice ``chunk`` values that no member's value is below.  Every cell
    is bounded first, and the members of the ``_FIRST_CELLS`` cells of least
    bound (ties to the lower cell) are evaluated; the least value among
    them, at the lowest index, is the best so far.  A cell whose bound
    exceeds that value, or equals it while its members all have higher
    indices, cannot hold the answer; only the other cells are evaluated, in
    a second round.  Each round evaluates its directions in blocks of about
    ``_ORACLE_BLOCK_ENTRIES`` n-by-m entries.  ``block_values`` gives a
    direction the same value in every block of two or more, but numpy sends
    a one-direction product down its matrix-vector path and sums its column
    pairwise, so a lone direction is evaluated beside another one.  The
    value and the index are then those of one block holding every direction.
    """
    block = max(1, _ORACLE_BLOCK_ENTRIES // n)
    cells = grid._cells
    lower = np.concatenate(
        [cell_bounds(cells, slice(k, k + block)) for k in range(0, cells.firsts.size, block)]
    )
    values = np.full(grid.m, np.inf)  # a skipped direction cannot be the minimum

    def scan(opened: np.ndarray) -> None:
        idx = np.flatnonzero(opened[cells.cell_of])
        for k in range(0, idx.size, block):
            cols = idx[k : k + block]
            # A lone direction goes beside the one before it (index 0 beside the last).
            taken = np.append(cols, cols - 1) if cols.size == 1 < grid.m else cols
            values[cols] = block_values(grid.directions.take(taken, axis=0))[: cols.size]

    first = np.zeros(lower.size, dtype=bool)
    first[np.argsort(lower, kind="stable")[:_FIRST_CELLS]] = True
    scan(first)
    j = int(np.argmin(values))
    best = values[j]
    scan(((lower < best) | ((lower == best) & (cells.firsts <= j))) & ~first)
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
    index are those of one block that holds every direction.

    Every term increases with the ball argument ``t = 2r <w, u> - ||w||**2``
    (``w = x - z``).  A cell of the grid has a unit center ``c`` and a chord
    ``h``, the largest ``||u - c||`` over its members ``u`` as the grid
    stores them, unit or not.  For every member,

        <w, u> = <w, c> + <w, u - c> >= <w, c> - h ||w||

    and the mean of the terms at the resulting ``t`` bounds every member's
    value from below (``_Differences.cell_bounds``).  The bound holds for
    every direction within ``h`` of ``c``, so it covers a cap of any centre
    and radius, not only the grid's members.  All cells cost one product of
    the kept rows' ``[w | ||w||**2 | ||w||]`` with ``d + 2`` coefficients per
    cell.  At ``s > 0`` every value is at least ``1/n`` of the nearest row's
    least term, and rows farther than
    ``r + sqrt((r + ||w_0||)**2 + s log(2n / eps))``, with ``w_0`` the
    nearest row, have terms below ``eps/n`` of it; they are left out of the
    product, which lowers the bound by less than ``eps`` times any value.

    Rounding.  A member's computed ``t``, or ``-t/s`` at ``s > 0``, is off
    by less than ``(d + 3) eps (2r ||w|| + ||w||**2)``, over ``s`` at
    ``s > 0``: its dot product of at most ``d + 1`` terms loses at most
    ``(d + 1) eps`` of their magnitudes, and each operation around it, the
    coefficients' included, one ``eps``.  The bound's product of ``d + 2``
    terms, whose magnitudes add to at most ``6.02 r ||w|| + 1.01 ||w||**2``
    (``h <= 2.01``), its coefficients, and the ``d - 1`` hypots in ``||w||``
    round by less than ``(7d + 20) eps (2r ||w|| + ||w||**2)``; chords are
    rounded outward.  With ``tol = 8 (d + 8) eps`` the bound's ``t`` is
    lowered by ``tol (2r ||w|| + ||w||**2)``, which covers both, folded into
    its coefficients as ``h + tol`` and ``1 + tol``.  A sample at the query
    has ``w = 0``, so its ``t`` and its bound's are both exactly 0, and it
    counts in every bound as in every value.  So each computed term of the
    bound is at most the computed term of the member, up to the relative
    error of the logistic, a few ``eps``; arguments of the bound above 700
    are capped, which raises a term of 0 by less than 1e-304.  The two
    sequential sums of at most ``n`` non-negative terms and the divisions
    by ``n`` change each mean by a factor within ``(n + 1) eps`` of 1, so
    the bound is multiplied by ``1 - 8 (n + 8) eps`` and lowered by 1e-303
    for the capped terms; no value is below 0, so neither is the bound after
    that.  The allowance is relative, so a plateau of tiny values, as far
    from the data as 1e-94, can be skipped.  At ``s = 0`` the terms are 0
    or 1 and the sums are exact counts, so the bound's count is at most
    every member's and nothing is subtracted.  A cell whose bound equals the
    best value found can then be skipped when its members' indices are all
    higher, as on the plateau of equal counts, or of exact zeros, that
    queries outside the data have.
    """
    z = _as_vector(z, X.d, name="query point")
    if grid.d != X.d:
        raise ValueError(f"grid dimension {grid.d} does not match data dimension {X.d}")

    with np.errstate(over="ignore"):
        kernel = _Differences(z, X, params)
        return _grid_minimum(grid, X.n, kernel.values, kernel.cell_bounds)


def grid_oracle_halfspace_depth(z, X: SampleSet, grid: DirectionGrid) -> OracleResult:
    """Exact halfspace (Tukey) depth over a direction grid, skipping the
    grid's cells that provably cannot hold it.

    ``min_u (1/n) * #{i : <u, x_i - z> >= 0}`` with the non-strict
    inequality, so a query equal to a sample counts itself on every side:
    its row of ``X - z`` is exactly 0.  Comparing ``<u, x_i>`` with
    ``<u, z>`` instead would not, as the two products round differently.
    Value is a multiple of ``1/n``; ties break to the lowest grid index.
    The value and the index are those of one block of every direction.

    The cells and the search are the sphere oracle's (``_grid_minimum``):
    as ``<w, u> >= <w, c> - h ||w||`` for every member ``u`` of a cell of
    center ``c`` and chord ``h`` (``w = x - z``), a cell's bound counts the
    rows with ``<w, c> - (h + tol) ||w|| >= 0``.  The member's dot product
    and the bound's, with its ``||w||`` (``hypot``, which neither underflows
    nor overflows where ``||w||**2`` would), product and difference, round
    by less than ``(5d + 10) eps ||w||`` in all, which ``tol = 8 (d + 8) eps``
    covers as long as no product underflows, that is for ``||w||`` above
    about 1e-290.  So a row that the bound counts has a computed
    ``<w, u>`` above 0 at every member, or exactly 0 at ``w = 0``, and
    counts there too.
    """
    z = _as_vector(z, X.d, name="query point")
    if grid.d != X.d:
        raise ValueError(f"grid dimension {grid.d} does not match data dimension {X.d}")
    w = X.data - z
    norms = np.hypot.reduce(w, axis=1, initial=0.0)
    tol = _rounding_tol(X.d)

    def block_values(chunk: np.ndarray) -> np.ndarray:
        return np.mean(w @ chunk.T >= 0.0, axis=0)

    def cell_bounds(cells: _Cells, chunk: slice) -> np.ndarray:
        t = w @ cells.centers[chunk].T
        t -= np.multiply.outer(norms, cells.chords[chunk] + tol)
        return np.mean(t >= 0.0, axis=0)

    return _grid_minimum(grid, X.n, block_values, cell_bounds)
