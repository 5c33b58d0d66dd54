"""True covariance models and Gaussian sampling.

Three parametric families are provided, plus an escape hatch for explicit
matrices:

* ``PolyDecay(rho, alpha)``: unit diagonal, ``sigma_ij = rho * |i-j|**-(alpha+1)``.
* ``ArDecay(rho)``: ``sigma_ij = rho**|i-j|``.
* ``BandedUniform(k0, offdiag)``: identity plus ``offdiag`` on all bands
  ``|i-j| <= k0-1``.  Note the diagonal is ``1 + offdiag``; pass
  ``unit_diagonal=True`` to force ones instead.
* ``Explicit(matrix)``: any symmetric matrix with positive diagonal.

The first three are Toeplitz, ``sigma_ij = v[|i-j|]``: ``risk``, ``clt`` and experiments
read their band and ``||Sigma||_F^2`` from ``v`` (``estimate._sigma_band``), and
:func:`build_sigma`'s p x p matrix serves the Cholesky draw and the dense public API.

Sampling is deterministic given ``(sigma, n, seed)`` and uses a counter-based
generator so that parallel replication order can never change the draws.  Rows
are ``z @ L.T`` for normals ``z`` and sigma's Cholesky factor ``L``.  This module
owns the draw: :func:`_draw` maps a seed's normals to rows for
:func:`sample_dataset` and for every experiment replication alike, with the
factor of :func:`_draw_factor`, which for ``ArDecay`` is the model itself, drawn
by its AR(1) recurrence (the same map with no p x p factor).  ``L`` and the
product are computed on one BLAS thread (``_ONE_BLAS_THREAD``), as their last
bits depend on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, NumericalError, ParameterError

__all__ = [
    "PolyDecay",
    "ArDecay",
    "BandedUniform",
    "Explicit",
    "CovModel",
    "Dataset",
    "build_sigma",
    "cholesky_factor",
    "sample_dataset",
    "model_bandwidth",
]

Matrix = NDArray[np.float64]


@dataclass(frozen=True)
class PolyDecay:
    """Polynomially decaying covariances, ``sigma_ij = rho * |i-j|**-(alpha+1)``."""

    rho: float
    alpha: float
    p: int

    def __post_init__(self) -> None:
        if not 0 <= self.rho < 1:
            raise ParameterError(f"PolyDecay requires 0 <= rho < 1, got {self.rho}")
        if not 0 < self.alpha < np.inf:
            raise ParameterError(f"PolyDecay requires a finite alpha > 0, got {self.alpha}")
        object.__setattr__(self, "p", _check_dim(self.p))


@dataclass(frozen=True)
class ArDecay:
    """Autoregressive-type covariances, ``sigma_ij = rho**|i-j|``."""

    rho: float
    p: int

    def __post_init__(self) -> None:
        if not abs(self.rho) < 1:
            raise ParameterError(f"ArDecay requires |rho| < 1, got {self.rho}")
        object.__setattr__(self, "p", _check_dim(self.p))


@dataclass(frozen=True)
class BandedUniform:
    """Exactly banded covariance: identity plus a constant band of width k0."""

    k0: int
    offdiag: float
    p: int
    unit_diagonal: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_dim(self.p))
        if not np.isfinite(self.offdiag):
            raise ParameterError(f"BandedUniform requires a finite offdiag, got {self.offdiag}")
        if not (_is_int(self.k0) and 1 <= self.k0 <= self.p):
            raise ParameterError(
                f"BandedUniform requires an integer 1 <= k0 <= p, got k0={self.k0}, p={self.p}"
            )
        object.__setattr__(self, "k0", int(self.k0))


@dataclass(frozen=True)
class Explicit:
    """A user-supplied symmetric covariance matrix."""

    matrix: Matrix = field(repr=False)
    p: int = 0

    def __post_init__(self) -> None:
        m = _check_matrix(self.matrix, "Explicit matrix", finite=True)
        if not np.array_equal(m, m.T):
            raise ParameterError("Explicit matrix must be symmetric")
        if np.any(np.diag(m) <= 0):
            raise ParameterError("Explicit matrix must have positive diagonal")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "p", m.shape[0])


CovModel = PolyDecay | ArDecay | BandedUniform | Explicit


@dataclass(frozen=True)
class Dataset:
    """An n x p sample of i.i.d. rows, together with the seed that produced it.

    ``seed`` is 0 for ingested (non-simulated) data.
    """

    rows: Matrix = field(repr=False)
    seed: int = 0

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2:
            raise DataError(f"Dataset rows must be 2-dimensional, got shape {rows.shape}")
        if rows.shape[0] < 3:
            raise DataError(f"Dataset needs n >= 3 rows, got n={rows.shape[0]}")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]


def _is_int(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# the most float64 values one array can hold: numpy refuses a larger shape before it allocates
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _check_matrix(m, name: str, finite: bool = False) -> Matrix:
    """``m`` as a square, nonempty float array, finite with ``finite``, else a ParameterError naming it."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {m.shape}")
    if m.size == 0:
        raise ParameterError(f"{name} must be at least 1 x 1, got shape {m.shape}")
    if finite and not np.isfinite(m).all():
        raise ParameterError(f"{name} has non-finite entries")
    return m


def _check_dim(p: int) -> int:
    if not (_is_int(p) and p >= 1):
        raise ParameterError(f"dimension p must be a positive integer, got {p!r}")
    if p > _MAX_FLOATS:
        raise ParameterError(f"dimension p={p} is more floats than an array can hold")
    return int(p)


def build_sigma(model: CovModel) -> Matrix:
    """Construct the true covariance matrix for ``model``.

    The output is exactly symmetric (built from |i-j| only, or validated as
    such for :class:`Explicit`).
    """
    if isinstance(model, Explicit):
        return model.matrix.copy()
    return _toeplitz(_toeplitz_vals(model), model.p)


def _toeplitz_vals(model: CovModel) -> NDArray[np.float64]:
    """The p values ``v`` with ``sigma_ij = v[|i-j|]`` of a Toeplitz model."""
    d = np.arange(model.p)
    if isinstance(model, PolyDecay):
        with np.errstate(divide="ignore"):
            vals = model.rho * np.where(d > 0, d, 1).astype(np.float64) ** (-(model.alpha + 1.0))
        vals[0] = 1.0
    elif isinstance(model, ArDecay):
        vals = np.float64(model.rho) ** d
    elif isinstance(model, BandedUniform):
        vals = np.where(d <= model.k0 - 1, model.offdiag, 0.0)
        vals[0] = 1.0 if model.unit_diagonal else 1.0 + model.offdiag
    else:
        raise ParameterError(f"unknown covariance model: {model!r}")
    return vals


def _toeplitz(vals: NDArray[np.float64], p: int) -> Matrix:
    """The symmetric Toeplitz matrix ``m[i, j] = vals[|i-j|]``, for ``len(vals) >= p``."""
    # row i of the reversed windows over vals[p-1], ..., vals[1], vals[0], ..., vals[p-1]
    # starts at vals[i] and steps down to vals[0] on the diagonal, then back up
    line = np.concatenate((vals[p - 1 : 0 : -1], vals[:p]))
    return np.lib.stride_tricks.sliding_window_view(line, p)[::-1].copy()


def model_bandwidth(model: CovModel) -> int | None:
    """Return the exact bandwidth of ``model`` if it has one, else ``None``.

    The bandwidth k0 is the smallest k with ``sigma_ij = 0`` whenever
    ``|i-j| >= k``.  Decay models have no exact band.
    """
    if isinstance(model, BandedUniform):
        return model.k0
    if isinstance(model, Explicit):
        m = model.matrix
        p = m.shape[0]
        for k in range(p, 0, -1):
            # band k-1 is the outermost that may be nonzero; band 0 is positive
            if np.any(np.diagonal(m, offset=k - 1) != 0.0):
                return k
    return None


@lru_cache(maxsize=1)
def _blas_thread_setter():
    """``openblas_set_num_threads_local`` (it returns the previous count) of an
    OpenBLAS this process has loaded, or None: another BLAS, or no ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
        fns = (getattr(ctypes.CDLL(path), "openblas_set_num_threads_local", None) for path in paths)
        return next((fn for fn in fns if fn is not None), None)
    except OSError:
        return None


def _set_blas_threads(count: int) -> int:
    setter = _blas_thread_setter()
    return setter(count) if setter else 0


class _OneBlasThread:
    """While any caller is inside, BLAS runs on one thread.

    This holds where the count is process-wide, as in numpy's bundled OpenBLAS
    0.3.31 (a count set in one thread is the count every other thread reads;
    ``tests/test_sim.py`` checks the loaded library).  Calls from different
    threads then share it: the first to enter saves the count it finds, the
    last to leave restores it.  Where a build keeps the count per thread, the
    first caller's thread would keep one BLAS thread after it returns.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inside = 0
        self._saved = 0

    def __enter__(self) -> None:
        with self._lock:
            previous = _set_blas_threads(1)
            if self._inside == 0:
                self._saved = previous
            self._inside += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                _set_blas_threads(self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()  # one per process, like the count it guards


def cholesky_factor(sigma: Matrix) -> Matrix:
    """Lower-triangular Cholesky factor of ``sigma``, with a single jitter retry.

    If plain factorization fails, one attempt is made after adding
    ``1e-10 * trace(sigma)/p`` to the diagonal; a second failure raises
    :class:`NumericalError`.  A ``sigma`` that is not square or not finite is a
    :class:`ParameterError`.  Intended to be computed once per experiment and
    reused across replications.
    """
    sigma = _check_matrix(sigma, "sigma", finite=True)
    with _ONE_BLAS_THREAD:  # LAPACK's bits depend on BLAS's thread count
        try:
            return np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            pass
        jitter = 1e-10 * float(np.trace(sigma)) / sigma.shape[0]
        try:
            return np.linalg.cholesky(sigma + jitter * np.eye(sigma.shape[0]))
        except np.linalg.LinAlgError:
            raise NumericalError(
                "covariance matrix is not positive definite (jitter retry failed)"
            ) from None


def _rng_for_seed(seed: int) -> np.random.Generator:
    # Philox is counter-based: streams for distinct seeds are independent and
    # the draw order is fixed regardless of how replications are scheduled.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


_AR_BLOCK = 33  # columns per product in _ar_rows, the first shared with the block before


@lru_cache(maxsize=16)
def _ar_factor(rho: float) -> Matrix:
    """Read-only ``L[:_AR_BLOCK, :_AR_BLOCK].T`` for ``ArDecay(rho)``'s Cholesky factor ``L``."""
    k = np.arange(_AR_BLOCK)
    f = np.triu(np.float64(rho) ** np.abs(np.subtract.outer(k, k)))
    f[1:] *= np.sqrt(1.0 - rho * rho)
    f.flags.writeable = False
    return f


def _ar_rows(z: Matrix, rho: float, out: Matrix) -> Matrix:
    """``out = z @ L.T`` for ``ArDecay(rho)`` up to rounding, by ``x_0 = z_0``, ``x_j = rho x_{j-1}
    + sqrt(1 - rho^2) z_j``: blocks of columns times :func:`_ar_factor`, each but the first
    starting from the ``x`` column before it, copied over ``z`` (so ``z`` is overwritten)."""
    f = _ar_factor(rho)
    b, p = len(f), z.shape[1]
    np.matmul(z[:, :b], f[:p, :p], out=out[:, :b])  # slices stop at p
    for j in range(b - 1, p - 1, b - 1):
        e = min(j + b, p)
        z[:, j] = out[:, j]
        np.matmul(z[:, j:e], f[: e - j, : e - j], out=out[:, j:e])
    return out


def _draw_factor(model: CovModel) -> ArDecay | Matrix:
    """:func:`_draw`'s factor: an ``ArDecay`` itself (no p x p array), else Sigma's Cholesky L."""
    return model if isinstance(model, ArDecay) else cholesky_factor(build_sigma(model))


def _draw(seed: int, factor: ArDecay | Matrix, z: Matrix, out: Matrix) -> Matrix:
    """``seed``'s normals into ``z``, their rows ``z @ L.T`` into ``out``: by :func:`_ar_rows` for
    an ``ArDecay`` (``z`` overwritten), else on one BLAS thread, as the product's bits depend on it."""
    _rng_for_seed(seed).standard_normal(out=z)
    if isinstance(factor, ArDecay):
        return _ar_rows(z, factor.rho, out)
    with _ONE_BLAS_THREAD:
        return np.matmul(z, factor.T, out=out)


def sample_dataset(sigma: Matrix, n: int, seed: int, chol: Matrix | None = None) -> Dataset:
    """Draw ``n`` i.i.d. rows from N(0, sigma), deterministically in ``seed`` (an integer >= 0).

    ``chol`` may carry sigma's lower Cholesky factor, to skip refactorizing; the
    rows are ``z @ chol.T`` by :func:`_draw`, the draw of every experiment replication.
    """
    if not _is_int(n):
        raise ParameterError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise DataError(f"need n >= 3 observations, got n={n}")
    if not (_is_int(seed) and seed >= 0):
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    sigma = _check_matrix(sigma, "sigma", finite=True)
    if chol is not None and np.shape(chol) != sigma.shape:
        raise ParameterError(f"chol must have sigma's shape {sigma.shape}, got {np.shape(chol)}")
    chol = cholesky_factor(sigma) if chol is None else _check_matrix(chol, "chol", finite=True)
    shape = (int(n), len(sigma))
    return Dataset(rows=_draw(seed, chol, np.empty(shape), np.empty(shape)), seed=seed)
