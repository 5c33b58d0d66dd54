"""Sample covariance, Toeplitz tapering weights, and the tapered estimator.

All built-in weight schemes depend on the off-diagonal distance ``d = |i-j|``
only and satisfy, for every tapering parameter ``tau >= 1``:

(i)   ``w(tau, d) = 1`` for ``d <= floor(tau/2)``,
(ii)  ``w(tau, d) = 0`` for ``d >= tau``,
(iii) ``0 <= w(tau, d) <= 1`` in between.

``tau = 1`` therefore keeps only the diagonal.  Each scheme builds the table
``w[k, d] = w(taus[k], d)`` of a whole tau grid at once (``_table``), and
``weights(tau, dmax)`` is one row of it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.typing import NDArray

from .errors import ParameterError
from .model import (
    _MAX_FLOATS, _ONE_BLAS_THREAD, CovModel, Dataset, Explicit, Matrix, _check_matrix, _is_int,
    _toeplitz, _toeplitz_vals,
)

__all__ = [
    "Banding",
    "CzzTaper",
    "CustomToeplitz",
    "WeightScheme",
    "taper",
    "mle_cov",
    "band_gram",
]


class _Scheme:
    """``weights`` for every scheme: row 0 of its ``_table``, ``d < width``, at one tau."""

    def weights(self, tau: int, dmax: int) -> NDArray[np.float64]:
        _check_tau(tau)
        return self._table((tau,), dmax)[0]


@dataclass(frozen=True)
class Banding(_Scheme):
    """Indicator weights ``w(tau, d) = 1{d < tau}``."""

    name = "banding"

    def _table(self, taus: Sequence[int], width: int) -> NDArray[np.float64]:
        return (np.arange(width) < np.array(taus)[:, None]).astype(np.float64)


@dataclass(frozen=True)
class CzzTaper(_Scheme):
    """Trapezoidal tapering weights.

    ``w = 1`` for ``d <= floor(tau/2)``, then decays linearly,
    ``w = (tau - d) / floor(tau/2)``, and vanishes for ``d >= tau``.  For
    ``tau <= 3`` the linear zone is degenerate and the weights coincide with
    banding.
    """

    name = "czz"

    def _table(self, taus: Sequence[int], width: int) -> NDArray[np.float64]:
        d, t = np.arange(width, dtype=np.float64), np.array(taus, dtype=np.float64)[:, None]
        half = t // 2  # >= 1 wherever the linear zone is nonempty (tau >= 2)
        return np.where(d <= half, 1.0, np.where(d < t, (t - d) / np.maximum(half, 1), 0.0))


@dataclass(frozen=True)
class CustomToeplitz(_Scheme):
    """User-supplied weights: ``table[tau]`` lists ``w(tau, d)`` for ``d < tau``.

    Entries beyond the listed ones are zero.  Each row is validated against
    conditions (i)-(iii) at construction and kept as a tuple, so that tables with
    the same rows compare equal and hash alike; a grid needs a row for each of its tau.
    """

    table: Mapping[int, Sequence[float]] = field(repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False)  # the (tau, row) pairs in tau order: the key
    name = "custom"

    def __post_init__(self) -> None:
        if not isinstance(self.table, Mapping):
            raise ParameterError(f"weight table must be a mapping, got {type(self.table).__name__}")
        clean: dict[int, tuple[float, ...]] = {}
        for tau, row in self.table.items():
            _check_tau(tau)
            try:
                w = np.asarray(row, dtype=np.float64)
            except (TypeError, ValueError):
                raise ParameterError(f"tau={tau}: weights must be numbers, got {row!r}") from None
            if w.shape != (tau,):
                raise ParameterError(
                    f"weight table for tau={tau} must have length {tau}, got {w.shape}"
                )
            half = tau // 2
            if np.any(w[: half + 1] != 1.0):
                raise ParameterError(f"tau={tau}: weights must be 1 for d <= floor(tau/2)")
            if not np.all((0.0 <= w) & (w <= 1.0)):  # NaN too
                raise ParameterError(f"tau={tau}: weights must lie in [0, 1]")
            clean[int(tau)] = tuple(w.tolist())
        object.__setattr__(self, "table", clean)
        object.__setattr__(self, "_rows", tuple(sorted(clean.items())))

    def _table(self, taus: Sequence[int], width: int) -> NDArray[np.float64]:
        out = np.zeros((len(taus), width))
        for k, tau in enumerate(taus):
            if tau not in self.table:
                raise ParameterError(f"no weights provided for tau={tau}")
            out[k, :tau] = self.table[tau][:width]
        return out


WeightScheme = Banding | CzzTaper | CustomToeplitz


def _check_tau(tau: int, name: str = "tau") -> None:
    if not (_is_int(tau) and tau >= 1):
        raise ParameterError(f"{name} must be a positive integer, got {tau!r}")


def _buf(ws: dict | None, key: str, shape: tuple[int, ...]) -> Matrix:
    """Uninitialised ``ws[key]``, new unless it has ``shape``; always new if ``ws`` is None."""
    if ws is not None and (key not in ws or ws[key].shape != shape):
        ws[key] = np.empty(shape)
    return np.empty(shape) if ws is None else ws[key]


def _rows(data: Dataset) -> Matrix:
    """``data.rows``; a ``data`` that is no :class:`Dataset` is a ``ParameterError`` naming it."""
    if not isinstance(data, Dataset):
        raise ParameterError(f"data must be a Dataset, got {type(data).__name__}")
    return data.rows


def _centered(data: Dataset, ws: dict | None = None) -> Matrix:
    """The centred rows, in ``ws["centred"]``; that may be ``data.rows`` itself, which a caller
    that owns the rows passes to centre them in place.  Without ``ws`` the rows are untouched."""
    rows = _rows(data)
    return np.subtract(rows, rows.mean(axis=0), out=_buf(ws, "centred", rows.shape))


def mle_cov(data: Dataset, _ws: dict | None = None) -> Matrix:
    """Maximum likelihood covariance ``(1/n) sum (X_k - Xbar)(X_k - Xbar)^T``, the product on
    one BLAS thread, as its bits depend on the count."""
    centered = _centered(data, _ws)
    with _ONE_BLAS_THREAD:  # syrk: symmetric
        s = np.matmul(centered.T, centered, out=_buf(_ws, "s", (data.p, data.p)))
    return np.divide(s, data.n, out=s)


# columns per BLAS product in band_gram
_BLOCK = 256


def _skew(a: Matrix, rows: int, cols: int) -> Matrix:
    """Read-only view ``v[i, d] = a[i, i + d]``; the caller keeps it in bounds."""
    s0, s1 = a.strides
    return as_strided(a, shape=(rows, cols), strides=(s0 + s1, s1), writeable=False)


@lru_cache(maxsize=16)
def _past_end(k: int) -> NDArray[np.bool_]:
    """Read-only ``k x k`` mask, true where ``u + e >= k``."""
    mask = np.add.outer(np.arange(k), np.arange(k)) >= k
    mask.flags.writeable = False
    return mask


def _band(m: Matrix, dmax: int, ws: dict | None = None) -> tuple[Matrix, float]:
    """The band of a dense symmetric ``m`` in :func:`band_gram`'s layout, and ``||m||_F^2``.

    ``band[i, d] = m[i, i + d]`` for ``d < dmax``, and 0 where ``i + d >= p``.
    Rows ``0 .. p-2`` come from one skewed view of C-contiguous memory, whose
    rows run on into the next row of ``m`` past the end; the mask zeroes those.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    p = m.shape[0]
    w = min(dmax, p)
    band = _buf(ws, "band", (p, dmax))
    band[: p - 1, :w] = _skew(m, p - 1, w)
    band[p - 1, 0] = m[p - 1, p - 1]
    band[:, w:] = 0.0
    band[p - w :, :w][_past_end(w)] = 0.0
    return band, float(np.einsum("ij,ij->", m, m))


def _sigma_band(model: CovModel, width: int) -> tuple[Matrix, float]:
    """``_band(build_sigma(model), width)`` without forming Sigma for a Toeplitz model
    ``sigma_ij = v[|i-j|]``: ``band[i, d] = v[d]`` where ``i + d < p``, else 0, and
    ``||Sigma||_F^2 = sum_d (2 - [d = 0]) (p - d) v_d^2``.  ``Explicit`` reads its matrix."""
    if isinstance(model, Explicit):
        return _band(model.matrix, width)
    v, p = _toeplitz_vals(model), model.p
    w = min(width, p)
    band = np.zeros((p, width))
    band[:, :w] = v[:w]
    band[p - w :, :w][_past_end(w)] = 0.0
    sq = np.arange(p, 0, -1) * (v * v)  # (p - d) v_d^2
    return band, float(2.0 * sq.sum() - sq[0])


def band_gram(data: Dataset, dmax: int, _ws: dict | None = None) -> tuple[Matrix, float]:
    """The band of ``s = mle_cov(data)`` and ``||s||_F^2``.

    ``band[i, d] = s[i, i + d]`` for ``d < dmax``, and 0 where ``i + d >= p``.
    The shape picks the branch with fewer multiply-adds.  The dense one forms
    ``s`` by :func:`mle_cov` (n p^2 / 2) and reads it with :func:`_band`; it
    runs only where ``p <= n + 2 (_BLOCK + dmax)``, so ``s`` is never larger
    than the data, twice the band and ``2 _BLOCK`` floats per coordinate.  The
    blocked one multiplies each block of ``_BLOCK`` centred columns with the
    block and the ``dmax - 1`` columns after it, and takes the total from the
    n x n gram, ``||s||_F^2 = ||X_c X_c^T||_F^2 / n^2``: n p (_BLOCK + dmax)
    + n^2 p / 2.  Either way memory is O(n p + p dmax), and the products run
    on one BLAS thread, as their bits depend on the count.
    ``_ws`` holds arrays (the band returned among them) that a call fills for the next to reuse.
    """
    _check_tau(dmax, "dmax")
    n, p = _rows(data).shape
    if p * int(dmax) > _MAX_FLOATS:  # the p x dmax band
        raise ParameterError(f"a p x dmax = {p} x {dmax} band is more floats than an array can hold")
    if _dense(n, p, dmax):
        return _band(mle_cov(data, _ws), dmax, _ws)
    centered = _centered(data, _ws)
    band = _buf(_ws, "band", (p, dmax))
    # past column p, zero columns keep the skewed view in bounds
    block = _buf(_ws, "block", (_BLOCK, _BLOCK + dmax - 1))
    with _ONE_BLAS_THREAD:
        for b0 in range(0, p, _BLOCK):
            b1 = min(b0 + _BLOCK, p)
            e = min(b1 + dmax - 1, p)
            np.matmul(centered[:, b0:b1].T, centered[:, b0:e], out=block[: b1 - b0, : e - b0])
            block[: b1 - b0, : e - b0] /= n
            block[: b1 - b0, e - b0 :] = 0.0
            band[b0:b1] = _skew(block, b1 - b0, dmax)
        gram = np.matmul(centered, centered.T, out=_buf(_ws, "gram", (n, n)))
    return band, float(np.einsum("ij,ij->", gram, gram)) / n**2


def _dense(n: int, p: int, dmax: int) -> bool:
    """Whether :func:`band_gram` takes its dense branch, forming the p x p ``s``, at this shape."""
    return p <= n + 2 * (_BLOCK + dmax)


def _workspace(n: int, p: int, dmax: int) -> dict:
    """A ``_ws`` of two arrays for :func:`band_gram` on the n x p ``ws["rows"]``, centred in place.
    ``ws["spare"]`` (n x p) is the caller's until the call, then the head of a dense ``s``; the
    band is a view of the rows where it fits, as ``s`` is formed before the band is written."""
    rows, dense = np.empty((n, p)), _dense(n, p, dmax)
    spare = np.empty(max(p * p, n * p) if dense else n * p)
    ws = {"rows": rows, "centred": rows, "spare": spare[: n * p].reshape(n, p)}
    if dense:
        ws["s"] = spare[: p * p].reshape(p, p)
    if dense and dmax <= n:
        ws["band"] = rows.reshape(-1)[: p * dmax].reshape(p, dmax)
    return ws


def taper(sigma_tilde: Matrix, scheme: WeightScheme, tau: int) -> Matrix:
    """The tapered estimate ``w o sigma_tilde``: ``out[i,j] = sigma_tilde[i,j] * w(tau,|i-j|)``."""
    sigma_tilde = _check_matrix(sigma_tilde, "sigma_tilde")
    p = sigma_tilde.shape[0]
    return sigma_tilde * _toeplitz(scheme.weights(tau, p), p)
