"""Exact population quantities for the criterion: risk, variance, moment oracles.

Everything here is a deterministic function of the true covariance ``Sigma``.
Risk and variance read only its band (to min(tau_max, p) or the truncation band) and
``||Sigma||_F^2``: each public function takes them off a dense ``Sigma`` by ``estimate._band`` for a
core that :func:`_model_theory`, the one theory step of ``risk`` and ``clt``, calls on a model's band.

Risk
----
With ``gamma = n/(n-1)``, ``abar(w) = (gamma - w)^2``, ``bbar(w) = c*w - gamma``,
the expectation of the criterion under weights ``w_ij`` is

    R_c(tau) = sum_ij  f1(w_ij) * sigma_ij^2  +  f2(w_ij) * sigma_ii sigma_jj,

    f1(w) = (n-1)/n * w^2 - (2n-c)/n * w + 1,
    f2(w) = (n-1)/n^2 * w^2 + (c-2)/n * w.

The coefficients follow from E[s_ij^2] and E[s_ii s_jj] for the MLE ``s`` and
the two exact identities ``a_n + (n-1) b_n = gamma`` and
``a_n + 2 b_n / n = 1/(n-1)``.  At ``c = 2`` and banding weights this reduces
to the familiar closed form

    R(tau) = sum_{|i-j|<tau} (sigma_ij^2/n + (n-1)/n^2 sigma_ii sigma_jj)
           + sum_{|i-j|>=tau} sigma_ij^2,

which is the true Frobenius risk ``E||w o s - Sigma||_F^2``.

Variance
--------
``var_profile`` evaluates the O(1/n^2)-order approximation to
``Var(SURE_c(tau))`` over a tau grid (``var_n`` at one tau is its one-point
grid), a quadruple sum over (i,j,s,t) with coefficient matrices

    Abar_ij = abar_ij + a_n bbar_ij,
    Bbar_ij = abar_ij + (a_n + (n-1) b_n) bbar_ij
            = w_ij^2 + gamma (c-2) w_ij,

(the second form of ``Bbar`` is algebraically identical and vanishes exactly
for ``|i-j| >= tau``, which the computation relies on):

    Var_n(tau) =
      2(n-2)/n^4     * sum Bbar_ij Bbar_st (s_ii s_ss s_jt^2 + s_ii s_tt s_js^2
                                          + s_jj s_ss s_it^2 + s_jj s_tt s_is^2)
    + 2(n-1)(n-2)/n^4 * sum Abar_ij Abar_st (s_is s_jt + s_it s_js)^2
    + 4(n-2)^3/n^4   * sum Abar_ij Abar_st s_ij s_st (s_is s_jt + s_it s_js)
    + 8(n-2)^2/n^4   * sum Abar_ij Bbar_st s_ij (s_ss s_it s_jt + s_tt s_is s_js)

(``s`` = sigma here).  For sigma banded at width k (``method="exact"`` takes
k = p), ``Abar = alpha0 11^T + T`` with ``alpha0 = Abar(w = 0) = gamma^2 -
a_n gamma`` and ``T``, like ``Bbar``, Toeplitz and zero from distance tau on,
so each product is a rank-one part plus banded ones.  On band storage, whose
rows are the diagonals, a banded product with a Toeplitz factor is one matrix
product of the factor's Toeplitz matrix with the band.  The tau-independent
part (sigma's 2k-1 diagonals, ``M = sigma o sigma``, ``r = M 1``, the diagonal
sums of the quartic term's per-offset grams, and the traces and diagonals
that PS and SP reduce to) is done once, in O(p k^3) time; then each tau of the
grid, on its own at width h = min(tau, p), costs O(p k (k + h)) time and
O(p (k + h)) memory, so its value does not depend on the grid around it.
So ``method="exact"`` costs O(p^4) once plus O(p^3) per tau.

Oracles
-------
``isserlis_moment`` enumerates pair partitions to compute Gaussian product
moments; ``exact_sure_variance`` expands Var(SURE_c) exactly for tiny p via
the representation of the MLE as ``(1/n) sum_{k=1}^{n-1} Z_k Z_k^T`` and the
fifteen equality patterns of four replicate indices.  These exist purely to
validate ``var_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .criterion import (
    _band_sums, _check_grid, _check_n, _Grid, _smallest_argmin, default_tau_grid, sure_constants
)
from .errors import NumericalError, ParameterError
from .estimate import WeightScheme, _band, _sigma_band
from .model import _ONE_BLAS_THREAD, CovModel, Matrix, _check_matrix, _is_int, model_bandwidth

__all__ = [
    "CoeffSet",
    "RiskProfile",
    "VarApprox",
    "coeffs",
    "risk_profile",
    "var_n",
    "var_profile",
    "isserlis_moment",
    "exact_sure_variance",
    "VAR_EXACT_CAP",
]

#: widest band var_n reads, p for ``method="exact"`` and min(truncation band, p)
#: otherwise: band k costs O(p k^3) once plus O(p k (k + tau)) per tau
VAR_EXACT_CAP = 64
VAR_METHODS = ("exact", "banded-truncated")


@dataclass(frozen=True)
class CoeffSet:
    """The four per-entry coefficients, as functions of (n, c, omega)."""

    abar: float | NDArray[np.float64]
    bbar: float | NDArray[np.float64]
    Abar: float | NDArray[np.float64]
    Bbar: float | NDArray[np.float64]


def coeffs(n: int, c: float, omega) -> CoeffSet:
    """Coefficient set at a weight value, or entrywise at an array of them.

    ``Bbar`` is computed as ``omega^2 + n/(n-1)*(c-2)*omega``, which equals
    ``abar + (a_n + (n-1) b_n) * bbar`` exactly (since
    ``a_n + (n-1) b_n = n/(n-1)``) but is exactly zero at ``omega = 0``.
    """
    _check_n(n, "coeffs")
    w = np.asarray(omega, dtype=np.float64)
    if not np.all((0.0 <= w) & (w <= 1.0)):
        raise ParameterError(f"omega must lie in [0, 1], got {omega}")
    k = sure_constants(n)
    abar = (k.gamma - w) ** 2
    bbar = c * w - k.gamma
    return CoeffSet(
        abar=abar,
        bbar=bbar,
        Abar=abar + k.a_n * bbar,
        Bbar=w**2 + k.gamma * (c - 2.0) * w,
    )


@dataclass(frozen=True)
class RiskProfile:
    """Exact criterion risk ``R_c`` over a grid of tapering parameters."""

    tau_grid: tuple[int, ...]
    values: NDArray[np.float64] = field(repr=False)
    c: float = 2.0
    oracle_tau: int = 1

    def min_value(self) -> float:
        return float(np.min(self.values))


def risk_profile(
    sigma: Matrix,
    n: int,
    scheme: WeightScheme,
    c: float = 2.0,
    tau_grid: Sequence[int] | None = None,
) -> RiskProfile:
    """Exact ``R_c(tau) = E[SURE_c(tau)]`` over the grid; at c = 2 this is the
    Frobenius risk of the tapered estimator.

    The oracle tau is the smallest grid point attaining the minimum.
    """
    _check_n(n, "risk profile")
    sigma = _check_matrix(sigma, "sigma")
    taus = _check_grid(default_tau_grid(len(sigma), n) if tau_grid is None else tau_grid)
    return _risk_profile(*_band(sigma, min(max(taus), len(sigma))), n, scheme, c, taus)


def _risk_profile(band: Matrix, frob_sq: float, n: int, scheme, c: float, tau_grid) -> RiskProfile:
    """:func:`risk_profile` of the sigma with this band, ``_Grid.dmax`` or wider, and total."""
    sure_constants(n, c)  # checks c
    grid = _Grid(scheme, tau_grid, n, len(band))
    t1, t2 = _band_sums(band[:, : grid.dmax])
    w = grid.w
    # R(tau) = ||Sigma||_F^2 + sum_{d<tau} (f1 - 1) t1 + f2 t2: one correctly rounded sum per tau
    terms = ((n - 1) / n * w**2 - (2 * n - c) / n * w) * t1  # (f1 - 1) t1
    terms += ((n - 1) / n**2 * w**2 + (c - 2.0) / n * w) * t2  # f2 t2
    try:
        values = np.array([math.fsum([frob_sq, *row[:t].tolist()]) for t, row in zip(grid.taus, terms)])
    except (OverflowError, ValueError):  # the covariance overflows: _smallest_argmin says so
        values = np.full(len(grid.taus), np.nan)
    return RiskProfile(grid.taus, values, float(c), _smallest_argmin(grid.taus, values))


@dataclass(frozen=True)
class VarApprox:
    """Value of the variance approximation at one tau."""

    tau: int
    value: float
    method: str
    truncation_band: int | None = None


# Band storage: a (2h-1, p) array x holds the entries (i, i+e), |e| < h, of a
# p x p matrix at x[e+h-1, i], with 0 where i+e falls outside the matrix.  Its
# rows are the diagonals, so a product with a Toeplitz factor is a sum of
# shifted rows.


@_ONE_BLAS_THREAD  # the products' bits depend on the count
def _var_profile(band: Matrix, n: int, scheme, tau_grid, c: float) -> NDArray[np.float64]:
    """:func:`var_profile` of the sigma with this band, whose width k <= p is the truncation
    band, on band storage (see the module docstring): the tau-independent part once, then each
    tau at its own width, so that its value does not depend on the grid around it."""
    _check_n(n, "var_n")
    taus = _check_grid(tau_grid)
    p, k = band.shape
    w = 2 * k - 1
    reach = min(w, p)  # offsets 0 .. reach-1 of the products of two bands
    widest = min(max(taus), p)  # T and Bbar vanish from distance tau on
    # to distance widest + 2k - 3, the farthest a Toeplitz matrix below reads
    cs = coeffs(n, c, scheme._table(taus, widest + w))
    alpha0 = float(coeffs(n, c, 0.0).Abar)
    s = np.zeros((w, p))  # s[k-1+e, i] = sigma[i, i+e], 0 outside
    s[k - 1 :] = band.T
    for e in range(1, k):
        s[k - 1 - e, e:] = band[: p - e, e]
    m = s * s
    r = m.sum(axis=0)
    suffix = np.cumsum(r[::-1])[::-1]  # suffix[j] = r_j + ... + r_{p-1}
    # quartic sum_ij Abar_ij v_ij' Abar v_ij with v_ij = s_i. o s_j., which lives
    # on the 2k-1 columns around i and vanishes for |i-j| > 2k-2: per offset e,
    # Abar_e <Ablock, G_e> with G_e the gram of the v_ij with j = i + e, a sum
    # over the distances d of Abar_d times the d-th diagonals of G_e; by symmetry
    # each e > 0 and each d > 0 counts twice.
    # PS and SP, with P = Abar o sigma, are linear in the Abar_ij of the band:
    # with P_a the a-th diagonal of sigma alone and F_a = P_a sigma,
    # tr(PSPS) = sum_ab Abar_a Abar_b tr(F_a F_b) and diag(SPS) = sum_a Abar_a
    # diag(sigma F_a).  lines[w-1+x, i, a] = F_a[i, i+x], from one window view
    spad = np.pad(s, ((w - 1, w - 1), (k - 1, k - 1)))
    lines = np.diagonal(sliding_window_view(spad, (2 * w - 1, p))[::-1], axis1=0, axis2=1)
    quart = np.empty((reach, w))
    trace_ff = np.zeros((w, w))
    diag_sf = np.zeros((p, w))
    for e in range(reach):
        ve = s[e:, : p - e] * s[: w - e, e:]
        quart[e] = _band(ve @ ve.T, w)[0].sum(axis=0)
        fwd = lines[w - 1 + e, : p - e] * s.T[: p - e]  # F_a[i, i+e]
        back = lines[w - 1 - e, e:] * s.T[e:]  # F_a[j, j-e]
        prod = fwd.T @ back
        trace_ff += prod + prod.T if e else prod
        if e < k:
            diag_sf[: p - e] += s[k - 1 + e, : p - e, None] * back
            if e:
                diag_sf[e:] += s[k - 1 - e, e:, None] * fwd
    quart[1:] *= 2.0
    quart[:, 1:] *= 2.0
    del spad, lines
    diag = np.pad(s[k - 1], widest - 1)  # diag[widest-1+i] = s_ii, 0 outside
    upad = np.zeros(p + w - 1)
    u_near = sliding_window_view(upad, p)  # u_near[a, i] = u_{i+a-(k-1)}, 0 outside
    offsets = np.arange(1 - k, k)  # of M's band, row a at offset a-(k-1)

    def tau_terms(h, bbar, abar):
        # one tau at width h = min(tau, p), in a call of its own so that no array of the
        # last tau is alive during the next one's product
        # u_j = sum_i Bbar_ij s_ii
        u = np.correlate(diag[widest - h : widest + h - 2 + p], bbar[np.abs(np.arange(1 - h, h))])
        upad[k - 1 : k - 1 + p] = u
        bb = u @ np.einsum("ai,ai->i", m, u_near)
        # sum Abar o (M Abar M) = tr(Abar M Abar M) = sum_ij X_ij X_ji with
        # X = M Abar = MT + alpha0 r1', r = M1: entrywise where MT has its band,
        # offsets up to half = min(h + k - 2, p - 1), alpha0^2 r_i r_j beyond.  Expanding
        # the square into alpha0^2 (1'r)^2 + 2 alpha0 r'Tr + tr(TMTM) would cancel
        # wherever Abar is near 0 in the band.  Row half+e of MT is the product of
        # row half+e of T's Toeplitz matrix, T_|e-a+k-1| at column a, with M's band; T
        # from distance p on (tau > p) reaches only entries of x outside the matrix
        half = min(h + k - 2, p - 1)
        toep = (abar - alpha0)[np.abs(np.arange(-half, half + 1)[:, None] - offsets)]
        x = toep @ m
        x += alpha0 * r
        # X_ij X_ji offset by offset: row half+e of x holds X_{i,i+e}, row half-e X_{i+e,i}
        xx = sum(x[half + e, : p - e] @ x[half - e, e:] for e in range(1, half + 1))
        far = suffix[half + 1 :]  # r_j summed beyond the band
        a_mam = x[half] @ x[half] + 2.0 * (xx + alpha0**2 * (r[: far.size] @ far))
        acoef = abar[np.abs(offsets)]
        cross = acoef @ trace_ff @ acoef
        ab = u @ diag_sf @ acoef  # u' diag(S P S)
        quartic = abar[:reach] @ quart @ abar[:w]
        return bb, a_mam, quartic, cross, ab

    bb, a_mam, quartic, cross, ab = np.array(
        [tau_terms(min(t, p), *row) for t, *row in zip(taus, cs.Bbar, cs.Abar)]
    ).T
    n4 = float(n) ** 4
    # the four summands, each contracted by symmetry of the coefficient
    # matrices under (i<->j), (s<->t) relabeling
    values = (
        8.0 * (n - 2) / n4 * bb
        + 2.0 * (n - 1) * (n - 2) / n4 * (2.0 * a_mam + 2.0 * quartic)
        + 8.0 * (n - 2) ** 3 / n4 * cross
        + 16.0 * (n - 2) ** 2 / n4 * ab
    )
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(f"var_n at tau={taus[bad[0]]} is not finite: the covariance overflows")
    return values


def var_profile(
    sigma: Matrix,
    n: int,
    scheme: WeightScheme,
    tau_grid: Sequence[int],
    c: float = 2.0,
    method: str | None = None,
    truncation_band: int | None = None,
) -> NDArray[np.float64]:
    """The four-term variance approximation at every tau of ``tau_grid``.

    ``method="banded-truncated"`` treats ``sigma`` as exactly zero outside
    ``|i-j| < truncation_band`` (a band wider than p keeps all of it); this is
    lossless when ``sigma`` really is banded with bandwidth <= truncation_band
    and an approximation otherwise.  It works on band storage: for band k it
    does the tau-independent part once, in O(p k^3) time, then each tau on its
    own, in O(p k (k + tau)) time and O(p (k + tau)) memory, so a tau's value
    is the same on every grid.  ``method="exact"`` is this path at
    ``truncation_band = p``: O(p^4) once plus O(p^3) per tau.  With no method, a
    truncation band means ``banded-truncated`` and none ``exact``.  Either way only sigma's band
    to k = min(truncation band, p) is read, and k may not exceed ``VAR_EXACT_CAP``; ``risk`` and
    ``clt`` pass a model's band without forming sigma.
    """
    sigma = _check_matrix(sigma, "sigma")
    k = _var_width(len(sigma), method, truncation_band)[2]
    return _var_profile(_band(sigma, k)[0], n, scheme, tau_grid, c)


def _var_width(p: int, method: str | None, truncation_band: int | None, model=None):
    """The var_n method rule: ``(method, band used or None, width k of Sigma's band read)``.  With
    no method, a truncation band means ``banded-truncated`` and none ``exact``, but a ``model`` wider
    than ``VAR_EXACT_CAP`` with no band is read at its bandwidth.  ``exact`` reads k = p and leaves
    a band unused, ``banded-truncated`` k = min(band, p); k is capped at ``VAR_EXACT_CAP``."""
    if method is None:
        if truncation_band is None and model is not None and p > VAR_EXACT_CAP:
            truncation_band = model_bandwidth(model)
        method = "exact" if truncation_band is None else "banded-truncated"
    if method not in VAR_METHODS:
        raise ParameterError(f"unknown var_n method {method!r}")
    band = None if method == "exact" else truncation_band
    if method != "exact" and not (_is_int(band) and band >= 1):
        raise ParameterError("banded-truncated var_n needs an integer truncation_band >= 1")
    k = p if band is None else min(int(band), p)
    if k > VAR_EXACT_CAP:
        raise ParameterError(f"var_n reads a band of width {k}, above the cap of {VAR_EXACT_CAP}: its "
                             "cost grows as p k^3 -- for a banded Sigma pass its bandwidth as the "
                             "truncation band, where banded-truncated is lossless")
    return method, None if band is None else int(band), k


def _model_theory(model: CovModel, n: int, scheme, grid, c: float, var=None):
    """A model's ``RiskProfile`` over ``grid`` and, given ``var = (method, truncation band)`` for
    ``_var_width``'s rule, its var_n there and the method and band the rule applied (else three
    Nones), off Sigma's band, read once, on one BLAS thread."""
    method, band, k = _var_width(model.p, *var, model) if var else (None, None, 0)
    sigma, frob_sq = _sigma_band(model, min(max(max(grid), k), model.p))
    with _ONE_BLAS_THREAD:
        risk = _risk_profile(sigma, frob_sq, n, scheme, c, grid)
        return risk, _var_profile(sigma[:, :k], n, scheme, grid, c) if var else None, method, band


def var_n(
    sigma: Matrix,
    n: int,
    scheme: WeightScheme,
    tau: int,
    c: float = 2.0,
    method: str | None = None,
    truncation_band: int | None = None,
) -> VarApprox:
    """Evaluate the four-term variance approximation at one tau: the one-point
    grid of :func:`var_profile`, with the same methods and costs."""
    sigma = _check_matrix(sigma, "sigma")
    method, band, k = _var_width(len(sigma), method, truncation_band)
    value = _var_profile(_band(sigma, k)[0], n, scheme, (tau,), c)[0]
    return VarApprox(tau=int(tau), value=float(value), method=method, truncation_band=band)


def isserlis_moment(sigma_small: Matrix, indices: Sequence[int]) -> float:
    """Gaussian product moment ``E[X_{i1} ... X_{ik}]`` for X ~ N(0, sigma).

    Sums ``prod sigma_(pairs)`` over all (k-1)!! perfect pairings of the
    positions.  Odd k gives 0; k is capped at 8.
    """
    sigma = _check_matrix(sigma_small, "sigma_small")
    idx = [int(i) for i in indices]
    if len(idx) > 8:
        raise ParameterError(f"isserlis moment capped at 8 indices, got {len(idx)}")
    if len(idx) % 2 == 1:
        return 0.0
    if not idx:
        return 1.0

    def pairings(positions: list[int]) -> Iterator[float]:
        if not positions:
            yield 1.0
            return
        first, rest = positions[0], positions[1:]
        for k in range(len(rest)):
            factor = sigma[idx[first], idx[rest[k]]]
            for sub in pairings(rest[:k] + rest[k + 1 :]):
                yield factor * sub

    return float(sum(pairings(list(range(len(idx))))))


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in _set_partitions(rest):
        for k in range(len(partial)):
            yield partial[:k] + [[first] + partial[k]] + partial[k + 1 :]
        yield [[first]] + partial


def exact_sure_variance(
    sigma_small: Matrix,
    n: int,
    scheme: WeightScheme,
    tau: int,
    c: float = 2.0,
) -> float:
    """Exact ``Var(SURE_c(tau))`` by brute-force moment expansion (p <= 3).

    The criterion is a quadratic form ``sum_t coef_t * m_{pair1(t)} m_{pair2(t)}``
    in entries of ``m = (1/n) sum_{k=1}^{n-1} Z_k Z_k^T``.  Every mixed moment
    ``E[m_ab m_cd m_ef m_gh]`` is reduced over the 15 equality patterns of the
    four replicate indices; within a pattern the count of index assignments is
    the falling factorial ``(n-1)(n-2)...`` and each block contributes an
    Isserlis moment of its concatenated coordinate indices.
    """
    sigma = _check_matrix(sigma_small, "sigma_small")
    p = sigma.shape[0]
    if p > 3:
        raise ParameterError(f"exact_sure_variance is capped at p <= 3, got p={p}")
    if not 4 <= n <= 100:
        raise ParameterError(f"exact_sure_variance needs 4 <= n <= 100, got n={n}")

    b_n = sure_constants(n).b_n
    cs = coeffs(n, c, scheme.weights(tau, p))

    # SURE_c = sum over terms: coef * m[pair1] * m[pair2]
    terms: list[tuple[float, tuple[int, int], tuple[int, int]]] = []
    for i in range(p):
        for j in range(p):
            d = abs(i - j)
            terms.append((cs.Abar[d], (i, j), (i, j)))
            terms.append((b_n * cs.bbar[d], (i, i), (j, j)))

    iss_cache: dict[tuple[int, ...], float] = {}

    def iss(idx: tuple[int, ...]) -> float:
        key = tuple(sorted(idx))
        if key not in iss_cache:
            iss_cache[key] = isserlis_moment(sigma, key)
        return iss_cache[key]

    partitions_by_size = {
        k: list(_set_partitions(list(range(k)))) for k in (2, 4)
    }

    def moment(pairs: Sequence[tuple[int, int]]) -> float:
        # E[ prod_m m_{pairs[m]} ]
        total = 0.0
        for partition in partitions_by_size[len(pairs)]:
            count = math.perm(n - 1, len(partition))
            if count == 0:
                continue
            prod = float(count)
            for block in partition:
                prod *= iss(tuple(chain.from_iterable(pairs[m] for m in block)))
            total += prod
        return total / float(n) ** len(pairs)

    mean = sum(coef * moment([p1, p2]) for coef, p1, p2 in terms)
    second = 0.0
    for coef_t, t1, t2 in terms:
        for coef_u, u1, u2 in terms:
            second += coef_t * coef_u * moment([t1, t2, u1, u2])
    return second - mean**2
