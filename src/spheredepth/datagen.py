"""Seeded synthetic-data generators, exact densities, and standardization.

All generators are pure functions of ``(spec, n, seed)`` backed by numpy's
PCG64 bit generator, so reruns are byte-identical across platforms.  The
multivariate Student-t sampler draws a Gaussian scale mixture and
rejection-resamples any draw whose norm exceeds the truncation bound,
which preserves absolute continuity of the truncated law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SampleSet, _as_vector, _pooled_std

__all__ = [
    "MixtureSpec",
    "StudentSpec",
    "StandardizationStats",
    "bi_gaussian_spec",
    "gen_mixture",
    "gen_student_t",
    "gen_truncated_gaussian",
    "mixture_density",
    "standardize",
]


def _cholesky_spd(mat: np.ndarray, name: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be symmetric positive-definite") from None


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Gaussian mixture: list of ``(mean, covariance, weight)`` components.

    Weights are normalized to sum to 1; covariances must be SPD.
    """

    components: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("mixture needs at least one component")
        parsed = []
        d = None
        for k, (mean, cov, weight) in enumerate(self.components):
            mean = _as_vector(mean, d, name=f"component {k} mean")
            d = mean.size
            cov = np.asarray(cov, dtype=np.float64)
            if cov.shape != (d, d):
                raise ValueError(f"component {k} covariance must be {d}x{d}")
            _cholesky_spd(cov, f"component {k} covariance")
            weight = float(weight)
            if weight <= 0:
                raise ValueError(f"component {k} weight must be > 0")
            parsed.append((mean, cov, weight))
        total = sum(w for _, _, w in parsed)
        parsed = tuple((m, c, w / total) for m, c, w in parsed)
        object.__setattr__(self, "components", parsed)

    @property
    def d(self) -> int:
        return self.components[0][0].size

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, _, w in self.components])


@dataclass(frozen=True, eq=False)
class StudentSpec:
    """Multivariate Student-t with optional hard norm truncation."""

    df: float
    mean: np.ndarray
    scale: np.ndarray
    truncation_norm: float | None = None

    def __post_init__(self):
        if self.df <= 0:
            raise ValueError(f"df must be > 0, got {self.df}")
        mean = _as_vector(self.mean, name="mean")
        scale = np.asarray(self.scale, dtype=np.float64)
        if scale.shape != (mean.size, mean.size):
            raise ValueError(f"scale must be {mean.size}x{mean.size}")
        _cholesky_spd(scale, "scale")
        if self.truncation_norm is not None and self.truncation_norm <= 0:
            raise ValueError("truncation_norm must be > 0 or None")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def d(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class StandardizationStats:
    """Per-dimension means and the pooled standard deviation of a sample."""

    per_dimension_mean: np.ndarray
    pooled_std: float


def bi_gaussian_spec(d: int = 2, separation: float = 3.5) -> MixtureSpec:
    """Equal-weight pair of unit Gaussians at ``+-separation`` per coordinate."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    mean = np.full(d, separation)
    eye = np.eye(d)
    return MixtureSpec(components=((-mean, eye, 0.5), (mean, eye, 0.5)))


def gen_mixture(spec: MixtureSpec, n: int, seed) -> SampleSet:
    """Draw ``n`` i.i.d. mixture samples; deterministic given ``seed``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    choices = rng.choice(len(spec.components), size=n, p=spec.weights)
    normals = rng.standard_normal((n, spec.d))
    out = np.empty((n, spec.d))
    for k, (mean, cov, _) in enumerate(spec.components):
        mask = choices == k
        if not np.any(mask):
            continue
        chol = _cholesky_spd(cov, "covariance")
        out[mask] = mean + normals[mask] @ chol.T
    return SampleSet(out)


def _rejection_sample(n: int, d: int, seed, truncation_norm, max_rounds: int, draw) -> SampleSet:
    """``n`` rows from rounds of ``draw(rng, k)``, which returns ``k`` candidate
    rows; rows with norm above ``truncation_norm`` are redrawn next round."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if truncation_norm is not None and truncation_norm <= 0:
        raise ValueError("truncation_norm must be > 0 or None")
    rng = np.random.default_rng(seed)
    out = np.empty((n, d))
    filled = 0
    for _ in range(max_rounds):
        x = draw(rng, n - filled)
        if truncation_norm is not None:
            x = x[np.linalg.norm(x, axis=1) <= truncation_norm]
        out[filled : filled + x.shape[0]] = x
        filled += x.shape[0]
        if filled == n:
            return SampleSet(out)
    raise ValueError(
        f"rejection sampling did not fill {n} draws in {max_rounds} rounds; "
        "truncation_norm is likely too small"
    )


def gen_student_t(spec: StudentSpec, n: int, seed, max_rounds: int = 1000) -> SampleSet:
    """Draw ``n`` truncated multivariate-t samples via rejection resampling.

    Each draw is ``mean + (L g) / sqrt(chi2_df / df)``; draws with norm
    above ``truncation_norm`` are redrawn until accepted.
    """
    chol = _cholesky_spd(spec.scale, "scale")

    def draw(rng, k: int) -> np.ndarray:
        g = rng.standard_normal((k, spec.d))
        chi = rng.chisquare(spec.df, size=k)
        return spec.mean + (g @ chol.T) / np.sqrt(chi / spec.df)[:, None]

    return _rejection_sample(n, spec.d, seed, spec.truncation_norm, max_rounds, draw)


def gen_truncated_gaussian(
    d: int, n: int, seed, truncation_norm: float | None = 10.0, max_rounds: int = 1000
) -> SampleSet:
    """Standard Gaussian draws rejection-resampled to ``||x|| <= truncation_norm``.

    A bounded-support stand-in for the standard normal (the truncation at
    the default radius 10 removes ~1e-21 of the mass in low dimension).
    """
    return _rejection_sample(
        n, d, seed, truncation_norm, max_rounds, lambda rng, k: rng.standard_normal((k, d))
    )


def mixture_density(points, spec: MixtureSpec) -> np.ndarray:
    """Exact Gaussian-mixture density at each point (rows)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != spec.d:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {spec.d}")
    dens = np.zeros(pts.shape[0])
    for mean, cov, weight in spec.components:
        chol = _cholesky_spd(cov, "covariance")
        y = np.linalg.solve(chol, (pts - mean).T)
        quad = np.einsum("ij,ij->j", y, y)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        lognorm = -0.5 * (spec.d * np.log(2.0 * np.pi) + logdet)
        dens += weight * np.exp(lognorm - 0.5 * quad)
    return dens


def standardize(X: SampleSet) -> tuple[SampleSet, StandardizationStats]:
    """Center columns and divide by the pooled standard deviation.

    ``pooled_std`` is the square root of the mean per-dimension unbiased
    variance, the scalar behind the default depth hyperparameters
    ``r = pooled_std`` and ``s = pooled_std**2 * d``; after standardizing
    they are ``r = 1`` and ``s = d`` up to rounding.  The variance is
    taken of the data divided by their largest absolute entry, so data in
    extreme units (say 1e-170 or 1e170) standardize like any other.
    """
    if X.n < 2:
        raise ValueError(f"standardization requires n >= 2, got n={X.n}")
    mean = X.data.mean(axis=0)
    pooled = _pooled_std(X)
    if pooled <= 0:
        raise ValueError("data is constant; standardization is undefined")
    stats = StandardizationStats(per_dimension_mean=mean, pooled_std=pooled)
    return SampleSet((X.data - mean) / pooled), stats
