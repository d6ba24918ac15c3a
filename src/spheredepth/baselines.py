"""Comparison depths: Tukey halfspace, Mahalanobis, kernelized spatial.

The halfspace depth is minimized with derivative-free Nelder-Mead simplex
search (the objective is piecewise constant, so gradients do not exist);
multiple restarts work around plateau stalls.  Mahalanobis depth is the
classical ``1 / (1 + (z-mu)' S^{-1} (z-mu))``.  The kernelized spatial
depth is the spatial depth computed in the RKHS of a Gaussian kernel,
expanded through the kernel trick so only pairwise distances are needed.
Like the Mahalanobis depth it is fitted once per sample: the fit holds the
n x n matrix ``E = 1 - K`` of the reference Gram (O(n**2) memory), and a
query then costs one n x n matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SampleSet, _as_vector
from .optim import DepthResult, _initial_direction

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


def mahalanobis_depth(z, model: MahalanobisModel) -> float:
    """``1 / (1 + (z - mean)' S^{-1} (z - mean))``; equals 1 iff z is the mean."""
    z = _as_vector(z, model.d, name="query point")
    delta = z - model.mean
    q = float(delta @ model.covariance_inverse @ delta)
    return 1.0 / (1.0 + max(q, 0.0))


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


def kernelized_spatial_depth(z, model: KernelSpatialModel) -> float:
    """Spatial depth in the RKHS of a Gaussian kernel.

    ``1 - || (1/m) sum_i (phi(z) - phi(x_i)) / ||phi(z) - phi(x_i)|| ||``
    expanded via the kernel trick.  Samples coinciding with ``z`` have a
    zero displacement in the RKHS and are dropped from the average; if all
    samples coincide with ``z`` the depth is 1.
    """
    z = _as_vector(z, model.d, name="query point")
    diff = model.data - z
    # eta_i = 1 - k(z, x_i) = ||delta_i||**2 / 2 with delta_i = phi(z) - phi(x_i),
    # via expm1 for full precision near coincidence.
    eta = -np.expm1(-np.einsum("ij,ij->i", diff, diff) / model.h2)
    keep = eta > 0.0
    m = np.count_nonzero(keep)
    if m == 0:
        return 1.0
    # <delta_i, delta_j> = eta_i + eta_j - E_ij; weights a_i = 1 / ||delta_i||
    # and b_i = a_i * eta_i give m**2 norm2 = 2 (sum b)(sum a) - a'Ea.
    a = np.zeros_like(eta)
    a[keep] = 1.0 / np.sqrt(2.0 * eta[keep])
    b = np.sqrt(eta / 2.0)
    norm2 = (2.0 * b.sum() * a.sum() - float(a @ (model.complement @ a))) / m**2
    return float(np.clip(1.0 - np.sqrt(max(norm2, 0.0)), 0.0, 1.0))
