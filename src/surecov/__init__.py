"""SURE-tuned banding and tapering of large covariance matrices.

Pick the banding/tapering cutoff of a sample covariance matrix by minimizing
an unbiased estimate of its Frobenius risk.  The penalty multiplier ``c``
interpolates between AIC-like (``c = 2``) and BIC-like (``c = log n``)
behavior: the former tracks the minimal-risk cutoff, the latter recovers an
exactly banded model's true bandwidth.

The package also ships the exact finite-sample risk and variance formulas for
Gaussian data and a reproducible Monte Carlo harness built on them.
"""

from . import criterion, errors, estimate, model, sim, theory
from .criterion import *  # noqa: F403 -- each module's __all__ is its public surface
from .errors import *  # noqa: F403
from .estimate import *  # noqa: F403
from .model import *  # noqa: F403
from .sim import *  # noqa: F403
from .theory import *  # noqa: F403

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += criterion.__all__
__all__ += errors.__all__
__all__ += estimate.__all__
__all__ += model.__all__
__all__ += sim.__all__
__all__ += theory.__all__
