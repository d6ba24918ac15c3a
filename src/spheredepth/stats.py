"""Quality index, depth-based homogeneity test, rank correlations, AUROC.

The quality index of two depth-value samples is the fraction of pairs
``(dF_i, dG_j)`` with ``dF_i <= dG_j``; under homogeneity it concentrates
at 1/2 with asymptotic variance ``(1/12)(1/n + 1/m)``, which yields a
normal z-statistic and a two-sided test.  Ties count as satisfying the
inequality and are reported separately so degenerate depth collapses are
visible.

Rank correlations use average ranks for ties (Spearman) and the
tie-corrected tau-b (Kendall).  AUROC is the tie-averaged Mann-Whitney
statistic, i.e. ``P(score_pos > score_neg) + 0.5 P(score_pos = score_neg)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .core import SampleSet, _as_vector

__all__ = [
    "QualityIndexResult",
    "RankCorrelationResult",
    "RocResult",
    "quality_index",
    "homogeneity_test",
    "spearman",
    "kendall_tau",
    "rank_correlations",
    "auroc",
]

_NORMAL = NormalDist()


@dataclass(frozen=True)
class QualityIndexResult:
    """Empirical quality index with its normalized test statistic."""

    q: float
    n: int
    m: int
    z_stat: float
    p_value: float
    tie_pairs: int


@dataclass(frozen=True)
class RankCorrelationResult:
    spearman: float
    kendall_tau: float


@dataclass(frozen=True)
class RocResult:
    auroc: float
    positives: int
    negatives: int


def quality_index(depths_f, depths_g) -> QualityIndexResult:
    """Fraction of pairs with ``depths_f[i] <= depths_g[j]``.

    ``z_stat = (q - 1/2) / sqrt((1/12)(1/n + 1/m))`` and ``p_value`` is its
    two-sided standard-normal tail.  Equal pairs satisfy the inequality and
    are counted in ``tie_pairs``.
    """
    df = _as_vector(depths_f, name="depths_f")
    dg = _as_vector(depths_g, name="depths_g")
    n, m = df.size, dg.size

    gsorted = np.sort(dg)
    lo = np.searchsorted(gsorted, df, side="left")
    hi = np.searchsorted(gsorted, df, side="right")
    # pairs with dG_j >= dF_i, including equality
    le_pairs = int(np.sum(m - lo))
    ties = int(np.sum(hi - lo))

    q = le_pairs / (n * m)
    sd = np.sqrt((1.0 / 12.0) * (1.0 / n + 1.0 / m))
    z = (q - 0.5) / sd
    p = 2.0 * _NORMAL.cdf(-abs(z))
    return QualityIndexResult(q=q, n=n, m=m, z_stat=z, p_value=p, tie_pairs=ties)


def homogeneity_test(
    X: SampleSet,
    Y: SampleSet,
    depth_fn: Callable[[np.ndarray, SampleSet], np.ndarray],
    level: float = 0.05,
) -> tuple[QualityIndexResult, bool]:
    """Two-sample homogeneity test from depths computed under ``X``.

    ``depth_fn(points, reference)`` must return one depth per row of
    ``points`` with respect to the reference sample.  Both samples are
    scored against ``X`` and the quality index's z-statistic is compared
    to the two-sided normal quantile at ``level``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    if X.d != Y.d:
        raise ValueError(f"dimension mismatch: X has d={X.d}, Y has d={Y.d}")
    depths_f = np.asarray(depth_fn(X.data, X), dtype=np.float64)
    depths_g = np.asarray(depth_fn(Y.data, X), dtype=np.float64)
    if depths_f.size != X.n or depths_g.size != Y.n:
        raise ValueError("depth_fn returned the wrong number of values")
    result = quality_index(depths_f, depths_g)
    critical = _NORMAL.inv_cdf(1.0 - level / 2.0)
    return result, bool(abs(result.z_stat) > critical)


def _check_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = _as_vector(a, name="first argument")
    y = _as_vector(b, name="second argument")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("rank correlation requires at least 2 observations")
    return x, y


def spearman(a, b) -> float:
    """Pearson correlation of the average-rank vectors of ``a`` and ``b``."""
    from scipy.stats import rankdata  # deferred: the import costs about 0.5 s

    x, y = _check_pair(a, b)
    rx = rankdata(x, method="average")
    ry = rankdata(y, method="average")
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("constant input: rank variance is zero")
    return float(dx @ dy) / np.sqrt(vx * vy)


def kendall_tau(a, b) -> float:
    """Tie-corrected Kendall tau-b over all pairs."""
    from scipy.stats import kendalltau

    x, y = _check_pair(a, b)
    pairs = x.size * (x.size - 1) // 2
    untied_x, untied_y = pairs - _tied_pairs(x), pairs - _tied_pairs(y)
    if untied_x == 0 or untied_y == 0:
        raise ValueError("constant input: all pairs tied")  # scipy returns nan
    # scipy divides by the two roots in turn; recover its integer numerator
    # (concordant minus discordant pairs) and divide once, as tau-b reads.
    numerator = round(kendalltau(x, y).statistic * np.sqrt(untied_x) * np.sqrt(untied_y))
    return numerator / np.sqrt(float(untied_x) * float(untied_y))


def _tied_pairs(values: np.ndarray) -> int:
    counts = np.unique(values, return_counts=True)[1]
    return int(np.sum(counts * (counts - 1) // 2))


def rank_correlations(a, b) -> RankCorrelationResult:
    return RankCorrelationResult(spearman=spearman(a, b), kendall_tau=kendall_tau(a, b))


def auroc(scores, labels) -> RocResult:
    """Tie-averaged Mann-Whitney AUROC of anomaly scores against 0/1 labels."""
    from scipy.stats import rankdata

    s = _as_vector(scores, name="scores")
    lab = np.asarray(labels).reshape(-1)
    if lab.size != s.size:
        raise ValueError(f"length mismatch: {s.size} scores vs {lab.size} labels")
    if not np.all(np.isin(lab, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    lab = lab.astype(bool)
    pos = int(np.count_nonzero(lab))
    neg = lab.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("AUROC requires at least one positive and one negative label")
    ranks = rankdata(s, method="average")
    u = float(ranks[lab].sum()) - pos * (pos + 1) / 2.0
    return RocResult(auroc=u / (pos * neg), positives=pos, negatives=neg)
