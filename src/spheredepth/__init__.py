"""Sphere depth: smoothed ball-mass data depth with a fast manifold solver.

Public surface re-exported here: core objective and grid oracles, the
Riemannian descent solver, baseline depths, test statistics, synthetic
data generators, and dataset/report I/O.
"""

__version__ = "0.1.0"

from . import baselines, core, datagen, io, optim, stats
from .baselines import *  # noqa: F403
from .core import *  # noqa: F403
from .datagen import *  # noqa: F403
from .io import *  # noqa: F403
from .optim import *  # noqa: F403
from .stats import *  # noqa: F403

__all__ = ["__version__"] + [
    name for module in (core, optim, baselines, stats, datagen, io) for name in module.__all__
]
