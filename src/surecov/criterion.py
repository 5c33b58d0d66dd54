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

Because every built-in weight depends only on ``d = |i-j|`` and vanishes
from ``d = tau`` on, profiles are computed from per-distance band sums

    S1(d) = sum_{|i-j|=d} s_ij^2,    S2(d) = sum_{|i-j|=d} s_ii s_jj

for ``d < tau`` and the totals ``||s||_F^2 = sum_d S1(d)`` and ``(tr s)^2 =
sum_d S2(d)``: with ``gamma = n/(n-1)``,

    SURE_c(tau) = gamma (gamma - a_n) ||s||_F^2 - gamma b_n (tr s)^2
                + sum_{d<tau} [(w_d^2 - 2 gamma w_d) S1(d) + c w_d (a_n S1(d) + b_n S2(d))].

With ``dmax = min(tau_max, p)``, as a p x p matrix has no distance past p - 1, that is O(p dmax)
per matrix plus one pass for its total, then O(dmax) per grid point: a table row times the sums.

All sums are read off one layout, ``band[i, d] = s[i, i+d]`` for d < dmax
(0 where i + d >= p): ``S1`` and the cross sums ``sum_{|i-j|=d} s_ij sigma_ij``
are column sums of two bands' product (:func:`_sums`), ``S2`` comes from the
diagonal ``band[:, 0]``.  :func:`~surecov.estimate._band` reads band and
total off a dense matrix, :func:`~surecov.estimate.band_gram` off the data
rows for ``surecov select`` and every replication.  It forms the MLE
only where that costs fewer multiply-adds than products of column blocks,
``p <= n + 2 (256 + dmax)``, so memory stays O(n p + p dmax).

``SURE_c``, the exact risk ``R_c`` and the realised loss over a tau grid are
each a matrix total plus one :class:`_Grid` weight table times such sums, and
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
from .model import _ONE_BLAS_THREAD, Matrix, _check_matrix, _is_int

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
    """``a_n`` and ``b_n``; needs an integer n >= 3 (n = 3 gives a_n = 0) and c as in
    :func:`resolve_c`."""
    if not _is_int(n):
        raise ParameterError(f"n must be an integer, got n={n!r}")
    c = resolve_c(c, n)
    a_n = n * (n - 3) / ((n - 1) * (n - 2) * (n + 1))
    b_n = n / ((n + 1) * (n - 2))
    return SureConstants(n=n, c=c, a_n=a_n, b_n=b_n)


def _check_n(n, what: str) -> None:
    """The criterion's sample size: an integer n >= 4, else an error saying that ``what`` needs it."""
    if not _is_int(n):
        raise ParameterError(f"n must be an integer, got n={n!r}")
    if n < 4:
        raise DataError(f"{what} requires n >= 4, got n={n}")


def _sums(a: Matrix, b: Matrix) -> NDArray[np.float64]:
    """``out[d] = sum_{|i-j|=d} a_ij b_ij`` for ``d`` below the band width, from
    the bands (see :func:`~surecov.estimate._band`) of symmetric ``a`` and ``b``."""
    out = np.einsum("id,id->d", a, b)
    out[1:] *= 2.0  # both triangles
    return out


def _band_sums(band: Matrix) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``S1`` and ``S2`` of the matrix with this band, for ``d`` below the band width."""
    dvec = band[:, 0]
    # S2 is the autocorrelation of the diagonal over lags below the width
    s2 = np.correlate(np.append(dvec, np.zeros(band.shape[1] - 1)), dvec, "valid")
    s2[1:] *= 2.0
    return _sums(band, band), s2


def band_sums(sigma: Matrix) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-distance sums ``S1(d) = sum_{|i-j|=d} m_ij^2`` and
    ``S2(d) = sum_{|i-j|=d} m_ii m_jj`` for ``d = 0 .. p-1``.

    Off-diagonal distances count both triangles.
    """
    sigma = _check_matrix(sigma, "sigma")
    return _band_sums(_band(sigma, len(sigma))[0])


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
    if not (_is_int(p) and _is_int(n)):
        raise ParameterError(f"p and n must be integers, got p={p!r}, n={n!r}")
    if tau_max is not None and not _is_int(tau_max):
        raise ParameterError(f"tau_max must be an integer, got {tau_max!r}")
    if tau_max is not None and tau_max < 1:
        raise ParameterError(f"tau_max must be >= 1, got {tau_max}")
    cap = min(p, n) if tau_max is None else min(tau_max, p)
    return tuple(range(1, max(cap, 1) + 1))


class _Grid:
    """A checked tau grid and its weight table ``w[k, d] = w(taus[k], d)`` for ``d < dmax =
    min(max(taus), p)``, from one call of the scheme for the grid, and ``fit = w**2 - 2 n/(n-1) w``."""

    def __init__(self, scheme: WeightScheme, tau_grid, n: int, p: int):
        _check_n(n, "the criterion")
        self.taus = _check_grid(tau_grid)
        self.dmax = min(max(self.taus), p)
        self.w = scheme._table(self.taus, self.dmax)
        self.fit = self.w**2 - 2 * n / (n - 1) * self.w

    def sure(self, s1, s2, frob_sq, trace_sq, consts: SureConstants) -> NDArray[np.float64]:
        """``SURE_c`` at every tau of the grid, from the band sums ``s1``, ``s2`` for ``d < dmax``
        and the totals ``||s||_F^2`` and ``(tr s)^2``; its products on one BLAS thread, as their
        bits depend on the count."""
        g, a, b = consts.gamma, consts.a_n, consts.b_n
        total = g * (g - a) * frob_sq - g * b * trace_sq
        with _ONE_BLAS_THREAD:
            return total + self.fit @ s1 + consts.c * (self.w @ (a * s1 + b * s2))


def profile_values(
    s1: NDArray[np.float64],
    s2: NDArray[np.float64],
    consts: SureConstants,
    scheme: WeightScheme,
    tau_grid: tuple[int, ...],
) -> NDArray[np.float64]:
    """Criterion values from the band sums of :func:`band_sums`, for every ``d``."""
    if getattr(s1, "ndim", 0) != 1 or getattr(s2, "shape", None) != s1.shape:
        raise ParameterError("band sums s1 and s2 must be 1-D arrays of one length")
    grid = _Grid(scheme, tau_grid, consts.n, len(s1))
    return grid.sure(s1[: grid.dmax], s2[: grid.dmax], s1.sum(), s2.sum(), consts)


def sure_profile(
    sigma_tilde: Matrix,
    consts: SureConstants,
    scheme: WeightScheme,
    tau_grid,
) -> CriterionProfile:
    """Evaluate ``SURE_c`` over ``tau_grid`` and select the minimizing tau.

    Ties are broken toward the smallest tau (the most parsimonious estimate).
    """
    grid, s = _check_grid(tau_grid), _check_matrix(sigma_tilde, "sigma_tilde")
    return sure_profile_from_band(*_band(s, min(max(grid), len(s))), consts, scheme, grid)


def sure_profile_from_band(
    band: Matrix,
    frob_sq: float,
    consts: SureConstants,
    scheme: WeightScheme,
    tau_grid,
) -> CriterionProfile:
    """:func:`sure_profile` of the MLE ``s`` given only its band and total.

    ``band[i, d] = s[i, i + d]`` for ``d`` below at least ``min(max(tau_grid), p)``,
    0 where ``i + d >= p``, and ``frob_sq = ||s||_F^2``: what
    :func:`~surecov.estimate.band_gram` returns.
    """
    if np.ndim(band) != 2:
        raise ParameterError(f"band must be a 2-D array, got shape {np.shape(band)}")
    grid = _Grid(scheme, tau_grid, consts.n, len(band))
    if band.shape[1] < grid.dmax:
        raise ParameterError(f"the band holds {band.shape[1]} distances, the grid needs {grid.dmax}")
    s1, s2 = _band_sums(band[:, : grid.dmax])
    values = grid.sure(s1, s2, frob_sq, band[:, 0].sum() ** 2, consts)
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
    _check_n(consts.n, "the criterion")
    s = _check_matrix(sigma_tilde, "sigma_tilde")
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
