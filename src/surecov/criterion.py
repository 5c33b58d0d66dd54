"""Stein-type unbiased risk criteria for choosing the tapering parameter.

For a tapered estimate with weights ``w_ij = w(tau, |i-j|)`` applied to the
MLE ``Sigma_tilde``, the criterion with penalty multiplier ``c >= 2`` is

    SURE_c(tau) = sum_ij (n/(n-1) - w_ij)^2 * s_ij^2
                + sum_ij (c*w_ij - n/(n-1)) * (a_n s_ij^2 + b_n s_ii s_jj),

with ``s = Sigma_tilde``,

    a_n = n(n-3) / ((n-1)(n-2)(n+1)),    b_n = n / ((n+1)(n-2)).

``c = 2`` is the unbiased estimator of the Frobenius risk
``E || w o Sigma_tilde - Sigma ||_F^2`` (the AIC analogue); ``c = log n``
plays the role of BIC.  The theory behind the criterion assumes ``c = o(n)``;
this is documented, not enforced.

An equivalent three-term form (used as a cross-check oracle) is

    SURE_c(tau) = ||w o Sigma_tilde - Sigma_tilde^s||_F^2
                - sum_ij varhat_ij + c*(n-1)/n * sum_ij w_ij * varhat_ij,

where ``Sigma_tilde^s = n/(n-1) Sigma_tilde`` and ``varhat_ij =
n/(n-1) * (a_n s_ij^2 + b_n s_ii s_jj)`` is the unbiased estimate of
``var(Sigma_tilde^s_ij)``.  The two forms are algebraically identical.

Because every built-in weight depends only on ``d = |i-j|``, profiles are
computed from per-distance band sums

    S1(d) = sum_{|i-j|=d} s_ij^2,    S2(d) = sum_{|i-j|=d} s_ii s_jj.

A grid whose largest tau is tau_max needs these only for d < tau_max, plus a
tail bin that collects every d >= tau_max, where all weights are 0: the
matrix total minus the other bins.  That is O(p * tau_max) per matrix plus
one pass for its total, then O(tau_max) per grid point: one row of a weight
table times the sums.

All sums are read off one layout, ``band[i, d] = s[i, i+d]`` for d < tau_max
(0 where i + d >= p): ``S1`` and the cross sums ``sum_{|i-j|=d} s_ij sigma_ij``
are column sums of two bands' product (:func:`_sums`), ``S2`` comes from the
diagonal ``band[:, 0]``.  :func:`~surecov.estimate._band` reads band and
total off a dense matrix, :func:`~surecov.estimate.band_gram` off the data
rows for ``surecov select`` and every replication.  It forms the MLE
only where that costs fewer multiply-adds than products of column blocks,
``p <= n + 2 (256 + tau_max)``, so memory stays O(n p + p tau_max).

``SURE_c``, the exact risk ``R_c`` and the realised loss over a tau grid are
products of one :class:`_Grid` weight table with such sums, and
:func:`_smallest_argmin` picks the smallest minimising tau of finite values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, NumericalError, ParameterError
from .estimate import WeightScheme, _band, _check_tau, taper
from .model import Matrix, _is_int

__all__ = [
    "SureConstants",
    "CriterionProfile",
    "sure_constants",
    "resolve_c",
    "band_sums",
    "sure_profile",
    "sure_profile_from_band",
    "sure_eq2_reference",
    "profile_values",
    "default_tau_grid",
]


@dataclass(frozen=True)
class SureConstants:
    """Sample-size constants entering the criterion."""

    n: int
    c: float
    a_n: float
    b_n: float

    @property
    def gamma(self) -> float:
        """The bias factor n/(n-1) relating the MLE to the unbiased estimate."""
        return self.n / (self.n - 1)


def resolve_c(c: float | str, n: int) -> float:
    """The penalty multiplier, ``"logn"`` read as ``log n``: a finite c >= 2
    (with n >= 3), else an error naming the c as given."""
    if n < 3:
        raise DataError(f"SURE constants require n >= 3, got n={n}")
    if isinstance(c, str):
        if c != "logn":
            raise ParameterError(f"symbolic c must be 'logn', got {c!r}")
        value, given = math.log(n), f"logn = log({n})"
    elif isinstance(c, numbers.Real):
        value, given = float(c), f"c={c}"
    else:
        raise ParameterError(f"penalty multiplier c must be a real number or 'logn', got {c!r}")
    if not 2.0 <= value < np.inf:
        raise ParameterError(f"penalty multiplier c must be finite and >= 2, got {given}")
    return value


def sure_constants(n: int, c: float | str = 2.0) -> SureConstants:
    """``a_n`` and ``b_n``; needs n >= 3 (n = 3 gives a_n = 0) and c as in :func:`resolve_c`."""
    c = resolve_c(c, n)
    a_n = n * (n - 3) / ((n - 1) * (n - 2) * (n + 1))
    b_n = n / ((n + 1) * (n - 2))
    return SureConstants(n=n, c=c, a_n=a_n, b_n=b_n)


def _sums(a: Matrix, b: Matrix, total: float | None = None) -> NDArray[np.float64]:
    """``out[d] = sum_{|i-j|=d} a_ij b_ij`` for ``d`` below the band width, from
    the bands (see :func:`~surecov.estimate._band`) of symmetric ``a`` and ``b``
    whose entrywise product sums to ``total``, and the tail bin (see :func:`_fold`)."""
    out = np.zeros(a.shape[1] + 1)
    out[:-1] = np.einsum("id,id->d", a, b)
    return _fold(out, len(a), total)


def _fold(out: NDArray[np.float64], p: int, total: float | None) -> NDArray[np.float64]:
    """Turn upper-triangle sums ``out[:dmax]`` into sums over both triangles, and
    set the tail bin ``out[dmax]`` to ``total`` (if given) minus them: every d >= dmax."""
    dmax = len(out) - 1
    out[1:dmax] *= 2.0
    if dmax < p and total is not None:
        out[dmax] = total - out[:dmax].sum()
    return out


def _s2_sums(dvec: NDArray[np.float64], dmax: int) -> NDArray[np.float64]:
    """``S2`` of a matrix with diagonal ``dvec`` for ``d < dmax``, with its tail bin."""
    s2 = np.zeros(dmax + 1)
    # S2 is the autocorrelation of the diagonal over lags d < dmax
    s2[:dmax] = np.correlate(np.append(dvec, np.zeros(dmax - 1)), dvec, "valid")
    return _fold(s2, len(dvec), dvec.sum() ** 2)


def _band_sums(band: Matrix, frob_sq: float) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``S1`` and ``S2`` of the matrix with this band and ``||m||_F^2 = frob_sq``,
    for ``d`` below the band width, each with its tail bin."""
    return _sums(band, band, frob_sq), _s2_sums(band[:, 0], band.shape[1])


def band_sums(sigma: Matrix) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-distance sums ``S1(d) = sum_{|i-j|=d} m_ij^2`` and
    ``S2(d) = sum_{|i-j|=d} m_ii m_jj`` for ``d = 0 .. p-1``.

    Off-diagonal distances count both triangles.
    """
    s1, s2 = _band_sums(*_band(sigma, len(sigma)))
    return s1[:-1], s2[:-1]


@dataclass(frozen=True)
class CriterionProfile:
    """Criterion values over a grid of tapering parameters."""

    tau_grid: tuple[int, ...]
    values: NDArray[np.float64] = field(repr=False)
    c: float = 2.0
    selected_tau: int = 1


def _check_grid(tau_grid) -> tuple[int, ...]:
    grid = tuple(tau_grid)
    if not grid:
        raise ParameterError("tau grid must be nonempty")
    for t in grid:
        _check_tau(t)
    return tuple(int(t) for t in grid)


def default_tau_grid(p: int, n: int, tau_max: int | None = None) -> tuple[int, ...]:
    """Grid 1..min(p, n) by default; ``tau_max`` overrides the cap up to p."""
    if tau_max is not None and not _is_int(tau_max):
        raise ParameterError(f"tau_max must be an integer, got {tau_max!r}")
    if tau_max is not None and tau_max < 1:
        raise ParameterError(f"tau_max must be >= 1, got {tau_max}")
    cap = min(p, n) if tau_max is None else min(tau_max, p)
    return tuple(range(1, max(cap, 1) + 1))


class _Grid:
    """A checked tau grid and its weight table ``w[k, d] = w(taus[k], d)`` for
    ``d < width``, by default ``dmax + 1``: the tail bin (see :func:`_fold`),
    where every weight is 0, comes last.  ``gap_sq = (n/(n-1) - w)**2``."""

    def __init__(self, scheme: WeightScheme, tau_grid, n: int, width: int | None = None):
        self.taus = _check_grid(tau_grid)
        self.dmax = max(self.taus)
        cols = self.dmax + 1 if width is None else width
        self.w = np.vstack([scheme.weights(t, cols) for t in self.taus])
        self.gap_sq = (n / (n - 1) - self.w) ** 2

    def sure(self, s1, s2, consts: SureConstants) -> NDArray[np.float64]:
        """``SURE_c`` at every tau of the grid, from the band sums ``s1``, ``s2``."""
        u = consts.a_n * s1 + consts.b_n * s2
        return self.gap_sq @ s1 + consts.c * (self.w @ u) - consts.gamma * u.sum()


def profile_values(
    s1: NDArray[np.float64],
    s2: NDArray[np.float64],
    consts: SureConstants,
    scheme: WeightScheme,
    tau_grid: tuple[int, ...],
) -> NDArray[np.float64]:
    """Criterion values from band sums: full length, or cut at ``dmax >=
    max(tau_grid)`` with a tail bin (whose weights are 0) for larger ``d``."""
    return _Grid(scheme, tau_grid, consts.n, len(s1)).sure(s1, s2, consts)


def sure_profile(
    sigma_tilde: Matrix,
    consts: SureConstants,
    scheme: WeightScheme,
    tau_grid,
) -> CriterionProfile:
    """Evaluate ``SURE_c`` over ``tau_grid`` and select the minimizing tau.

    Ties are broken toward the smallest tau (the most parsimonious estimate).
    """
    grid = _check_grid(tau_grid)
    return sure_profile_from_band(*_band(sigma_tilde, max(grid)), consts, scheme, grid)


def sure_profile_from_band(
    band: Matrix,
    frob_sq: float,
    consts: SureConstants,
    scheme: WeightScheme,
    tau_grid,
) -> CriterionProfile:
    """:func:`sure_profile` of the MLE ``s`` given only its band and total.

    ``band[i, d] = s[i, i + d]`` for ``d`` below at least ``max(tau_grid)``, 0
    past the end, and ``frob_sq = ||s||_F^2``: what
    :func:`~surecov.estimate.band_gram` returns.  ``S1`` for ``d < max(tau_grid)``
    is the column sums of ``band**2``, and its tail bin the total minus them.
    """
    if consts.n < 4:
        raise DataError(f"the criterion requires n >= 4, got n={consts.n}")
    grid = _Grid(scheme, tau_grid, consts.n)
    if band.shape[1] < grid.dmax:
        raise ParameterError(f"the band holds {band.shape[1]} distances, the grid needs {grid.dmax}")
    s1, s2 = _band_sums(band[:, : grid.dmax], frob_sq)
    values = grid.sure(s1, s2, consts)
    return CriterionProfile(grid.taus, values, consts.c, _smallest_argmin(grid.taus, values))


def sure_eq2_reference(
    sigma_tilde: Matrix,
    consts: SureConstants,
    scheme: WeightScheme,
    tau: int,
) -> float:
    """Three-term form of the criterion, computed literally.

    ``||w o s - s^u||_F^2 - sum varhat + c*(n-1)/n * sum w*varhat`` with
    ``s^u`` the unbiased sample covariance.  Serves as an independent oracle
    for :func:`sure_profile`; it is O(p^2) per tau.
    """
    if consts.n < 4:
        raise DataError(f"the criterion requires n >= 4, got n={consts.n}")
    s = np.asarray(sigma_tilde, dtype=np.float64)
    diff = (taper(s, scheme, tau) - s * consts.gamma).ravel()
    # einsum, not diff @ diff: a BLAS ddot this long goes multi-threaded, which
    # on a small host costs far more than the sum itself
    fit = float(np.einsum("i,i->", diff, diff))
    vhat = consts.gamma * (consts.a_n * s**2 + consts.b_n * np.outer(np.diagonal(s), np.diagonal(s)))
    penalty = consts.c * (1.0 / consts.gamma) * float(np.sum(taper(vhat, scheme, tau)))
    return fit - float(np.sum(vhat)) + penalty


def _smallest_argmin(grid: tuple[int, ...], values: NDArray[np.float64]) -> int:
    """The smallest tau of ``grid`` at which ``values`` is least; every value
    must be finite, which fails when the covariance overflows."""
    if not np.all(np.isfinite(values)):
        raise NumericalError("profile over the tau grid is not finite: the covariance overflows")
    best = float(np.min(values))
    return min(t for t, v in zip(grid, values) if v == best)
