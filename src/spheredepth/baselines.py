"""Comparison depths: Tukey halfspace, Mahalanobis, kernelized spatial.

The halfspace depth is minimized with derivative-free Nelder-Mead simplex
search (the objective is piecewise constant, so gradients do not exist);
multiple restarts work around plateau stalls.  Mahalanobis depth is the
classical ``1 / (1 + (z-mu)' S^{-1} (z-mu))``.  The kernelized spatial
depth is the spatial depth computed in the RKHS of a Gaussian kernel,
expanded through the kernel trick so only pairwise distances are needed.
Like the Mahalanobis depth it is fitted once per sample: the fit holds the
n x n matrix ``E = 1 - K`` of the reference Gram (O(n**2) memory).  Both
depths take one point (and return a float) or a ``(q, d)`` array of points
(and return a ``(q,)`` array), through one implementation.  Kernel-spatial
queries are scored in blocks of at most ``_BLOCK_ENTRIES`` (2**15)
query-by-sample entries; a block of ``b`` queries costs one
``(b x n) @ (n x n)`` matrix product, so the memory beyond ``E`` stays a
few block arrays at any q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SampleSet, _as_vector
from .optim import DepthResult, _initial_direction, _query_rows

__all__ = [
    "HalfspaceConfig",
    "MahalanobisModel",
    "KernelConfig",
    "KernelSpatialModel",
    "halfspace_depth",
    "fit_mahalanobis",
    "mahalanobis_depth",
    "fit_kernelized_spatial",
    "kernelized_spatial_depth",
]


# Nelder-Mead controls for the halfspace-depth minimization.  The initial
# simplex offsets are of order 1 (comparable to the unit direction itself),
# because tiny simplices stall immediately on the objective's plateaus.
_SIMPLEX_TOLERANCE = 1e-4
_MAX_EVALS = 400
_INITIAL_SIMPLEX_SCALE = 1.0

# Kernel-spatial scoring holds a few query-by-sample arrays of at most this
# many entries (256 KiB each) per block of queries.
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class HalfspaceConfig:
    """Restarts and seed of the halfspace-depth minimization."""

    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass(frozen=True, eq=False)
class MahalanobisModel:
    """Fitted location/scatter pair with a precomputed precision matrix."""

    mean: np.ndarray
    covariance_inverse: np.ndarray
    regularization: float = 0.0

    def __post_init__(self):
        mean = _as_vector(self.mean, name="mean")
        inv = np.asarray(self.covariance_inverse, dtype=np.float64)
        if inv.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance_inverse shape {inv.shape} does not match dimension {mean.size}"
            )
        if not np.allclose(inv, inv.T, atol=1e-10):
            raise ValueError("covariance_inverse must be symmetric")
        try:
            np.linalg.cholesky(inv)
        except np.linalg.LinAlgError:
            raise ValueError("covariance_inverse must be positive-definite") from None
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance_inverse", inv)

    @property
    def d(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel ``exp(-||x - y||**2 / h**2)`` with bandwidth ``h``."""

    bandwidth_h: float = 1.0

    def __post_init__(self):
        if self.bandwidth_h <= 0:
            raise ValueError(f"bandwidth_h must be > 0, got {self.bandwidth_h}")


@dataclass(frozen=True, eq=False)
class KernelSpatialModel:
    """Reference sample fitted for kernelized spatial depth.

    ``complement`` is ``E = 1 - K`` for the Gaussian Gram ``K`` of ``data``
    with squared bandwidth ``h2``; it does not depend on the query.
    """

    data: np.ndarray
    h2: float
    complement: np.ndarray

    def __post_init__(self):
        n = self.data.shape[0]
        if self.complement.shape != (n, n):
            raise ValueError(
                f"complement shape {self.complement.shape} does not match n={n}"
            )

    @property
    def d(self) -> int:
        return self.data.shape[1]


def halfspace_depth(z, X: SampleSet, cfg: HalfspaceConfig | None = None) -> DepthResult:
    """Tukey halfspace depth via Nelder-Mead over directions.

    Minimizes ``u -> (1/n) #{<u, x_i - z> >= 0}`` with in-objective
    normalization of ``u``, taking the best of ``cfg.restarts`` starts:
    the normalized sample mean first, then seeded random unit vectors.
    The differences ``x_i - z`` are formed once, so a sample at ``z`` has
    an exact 0 and counts on every side.  The result is an upper
    approximation of the true infimum.
    """
    from scipy.optimize import minimize  # deferred: it adds about 0.15 s to `import spheredepth`

    if cfg is None:
        cfg = HalfspaceConfig()
    z = _as_vector(z, X.d, name="query point")
    w = X.data - z
    n = X.n

    def objective(u: np.ndarray) -> float:
        norm = np.linalg.norm(u)
        if norm < 1e-12:
            return 1.0
        return float(np.count_nonzero(w @ (u / norm) >= 0.0)) / n

    rng = np.random.default_rng(cfg.seed)
    starts = [_initial_direction(z, X, "paper-mean")]
    for _ in range(cfg.restarts - 1):
        g = rng.standard_normal(X.d)
        starts.append(g / np.linalg.norm(g))

    best_val = np.inf
    best_u = starts[0]
    best_converged = False
    total_evals = 0
    eye = np.eye(X.d)
    for x0 in starts:
        simplex = np.vstack([x0] + [x0 + _INITIAL_SIMPLEX_SCALE * e for e in eye])
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "xatol": _SIMPLEX_TOLERANCE,
                "fatol": _SIMPLEX_TOLERANCE,
                "maxfev": _MAX_EVALS,
                "initial_simplex": simplex,
            },
        )
        total_evals += int(res.nfev)
        if res.fun < best_val:
            best_val = float(res.fun)
            norm = np.linalg.norm(res.x)
            best_u = res.x / norm if norm >= 1e-12 else x0
            best_converged = bool(res.success)
    return DepthResult(best_val, best_u, total_evals, best_converged)


def fit_mahalanobis(X: SampleSet, regularization: float = 0.0) -> MahalanobisModel:
    """Fit mean and (regularized, unbiased) covariance, then invert it."""
    if X.n < 2:
        raise ValueError(f"fitting a covariance requires n >= 2, got n={X.n}")
    if regularization < 0:
        raise ValueError("regularization must be >= 0")
    mean = X.data.mean(axis=0)
    cov = np.cov(X.data, rowvar=False, ddof=1).reshape(X.d, X.d)
    cov = cov + regularization * np.eye(X.d)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(
            "covariance is singular; set regularization > 0 to make it invertible"
        ) from None
    ident = np.eye(X.d)
    inv = np.linalg.solve(chol.T, np.linalg.solve(chol, ident))
    inv = (inv + inv.T) / 2.0
    return MahalanobisModel(mean=mean, covariance_inverse=inv, regularization=regularization)


def _queries(z, d: int) -> tuple[np.ndarray, bool]:
    """``z`` as the rows of a ``(q, d)`` array, and whether it was one point.

    An input of fewer than two dimensions is one point; a 2-D input is
    checked row by row, and an error names the bad row.
    """
    if np.ndim(z) < 2:
        return _as_vector(z, d, name="query point")[None, :], True
    return _query_rows(z, d), False


def mahalanobis_depth(z, model: MahalanobisModel) -> float | np.ndarray:
    """``1 / (1 + (z - mean)' S^{-1} (z - mean))``; equals 1 iff z is the mean.

    ``z`` is one point (the depth is a float) or a ``(q, d)`` array of
    points (a ``(q,)`` array of depths), scored with one ``delta @ S^{-1}``.
    """
    Z, single = _queries(z, model.d)
    delta = Z - model.mean
    quad = np.einsum("ij,ij->i", delta @ model.covariance_inverse, delta)
    depth = 1.0 / (1.0 + np.maximum(quad, 0.0))
    return float(depth[0]) if single else depth


def fit_kernelized_spatial(
    X: SampleSet, kernel: KernelConfig | None = None
) -> KernelSpatialModel:
    """Fit ``E = 1 - exp(-||x_i - x_j||**2 / h**2)`` once for the sample.

    The squared distances are summed coordinate by coordinate (``cdist``),
    not expanded as ``|x|**2 + |y|**2 - 2 x.y``, which loses them once the
    data sit far from the origin; ``expm1`` keeps ``E`` exact near 0.
    """
    from scipy.spatial.distance import cdist  # deferred: it adds about 0.5 s to the import

    if kernel is None:
        kernel = KernelConfig()
    h2 = kernel.bandwidth_h**2
    complement = cdist(X.data, X.data, "sqeuclidean")
    complement /= -h2
    np.expm1(complement, out=complement)
    np.negative(complement, out=complement)
    return KernelSpatialModel(data=X.data, h2=h2, complement=complement)


def kernelized_spatial_depth(z, model: KernelSpatialModel) -> float | np.ndarray:
    """Spatial depth in the RKHS of a Gaussian kernel.

    ``1 - || (1/m) sum_i (phi(z) - phi(x_i)) / ||phi(z) - phi(x_i)|| ||``
    expanded via the kernel trick.  Samples coinciding with ``z`` have a
    zero displacement in the RKHS and are dropped from the average; if all
    samples coincide with ``z`` the depth is 1.

    ``z`` is one point (the depth is a float) or a ``(q, d)`` array of
    points (a ``(q,)`` array of depths).  The queries go in blocks of
    ``max(1, 2**15 // n)``; each block costs one ``cdist`` to the sample and
    one product of its weights with ``E``.
    """
    from scipy.spatial.distance import cdist  # deferred: it adds about 0.5 s to the import

    Z, single = _queries(z, model.d)
    data = np.ascontiguousarray(model.data)  # cdist would copy it per block
    rows = max(1, _BLOCK_ENTRIES // data.shape[0])
    depth = np.empty(len(Z))
    for lo in range(0, len(Z), rows):
        # eta_ij = 1 - k(z_i, x_j) = ||delta_ij||**2 / 2 with
        # delta_ij = phi(z_i) - phi(x_j), via expm1 for full precision near
        # coincidence.  cdist sums coordinate differences, so the data may
        # sit far from the origin.
        eta = cdist(Z[lo : lo + rows], data, "sqeuclidean")
        eta /= -model.h2
        np.expm1(eta, out=eta)
        np.negative(eta, out=eta)
        keep = eta > 0.0
        # <delta_i, delta_j> = eta_i + eta_j - E_ij; weights a_i = 1 / ||delta_i||
        # and b_i = a_i * eta_i give m**2 norm2 = 2 (sum b)(sum a) - a'Ea.
        # A row with no kept sample has a = b = 0, so norm2 = 0 and depth 1.
        a = np.multiply(eta, 2.0)
        np.sqrt(a, out=a)  # 0 where eta is 0
        np.divide(1.0, a, out=a, where=keep)
        eta /= 2.0
        b = np.sqrt(eta, out=eta)
        aea = np.einsum("ij,ij->i", a @ model.complement, a)
        m = np.maximum(np.count_nonzero(keep, axis=1), 1)
        norm2 = (2.0 * b.sum(axis=1) * a.sum(axis=1) - aea) / m**2
        depth[lo : lo + rows] = 1.0 - np.sqrt(np.maximum(norm2, 0.0))
    np.clip(depth, 0.0, 1.0, out=depth)
    return float(depth[0]) if single else depth
