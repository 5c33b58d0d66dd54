"""Weight schemes and tapered covariance estimates."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surecov import estimate
from surecov.errors import ParameterError
from surecov.estimate import (
    Banding,
    CustomToeplitz,
    CzzTaper,
    _band,
    _sigma_band,
    band_gram,
    mle_cov,
    taper,
)
from surecov.model import (
    ArDecay, BandedUniform, Dataset, Explicit, PolyDecay, _blas_thread_setter, build_sigma
)
from surecov.sim import ExperimentConfig


def test_banding_weights_are_indicators():
    w = Banding().weights(3, 6)
    assert list(w) == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert Banding().weights(3, 3)[2] == 1.0
    assert Banding().weights(3, 4)[3] == 0.0


@given(tau=st.integers(1, 60), d=st.integers(0, 80))
def test_taper_weight_conditions(tau, d):
    """Any scheme must satisfy: w=1 up to floor(tau/2), w=0 from tau on,
    and w in [0,1] in between."""
    for scheme in (Banding(), CzzTaper()):
        w = scheme.weights(tau, d + 1)[d]
        if d <= tau // 2:
            assert w == 1.0
        elif d >= tau:
            assert w == 0.0
        else:
            assert 0.0 <= w <= 1.0


def test_czz_linear_zone():
    # w(d) = (tau - d) / floor(tau/2) strictly between the zones
    w = CzzTaper().weights(10, 12)
    assert list(w[:6]) == [1.0] * 6
    assert w[6] == pytest.approx(4 / 5)
    assert w[7] == pytest.approx(3 / 5)
    assert w[9] == pytest.approx(1 / 5)
    assert list(w[10:]) == [0.0, 0.0]


def test_czz_collapses_to_banding_for_small_tau():
    for tau in (1, 2, 3):
        assert np.array_equal(CzzTaper().weights(tau, 8), Banding().weights(tau, 8))


def test_tau_one_is_diagonal_only():
    sigma = np.array([[2.0, 1.0], [1.0, 3.0]])
    for scheme in (Banding(), CzzTaper()):
        est = taper(sigma, scheme, 1)
        assert np.array_equal(est, np.diag([2.0, 3.0]))


def test_custom_toeplitz_validation():
    CustomToeplitz(table={4: [1.0, 1.0, 1.0, 0.25]})  # fine
    with pytest.raises(ParameterError):
        CustomToeplitz(table={4: [1.0, 1.0, 1.0]})  # wrong length
    with pytest.raises(ParameterError):
        CustomToeplitz(table={4: [1.0, 1.0, 1.0, 1.5]})  # out of [0, 1]
    with pytest.raises(ParameterError):
        CustomToeplitz(table={4: [1.0, 0.5, 0.5, 0.0]})  # head must be all ones
    scheme = CustomToeplitz(table={4: [1.0, 1.0, 1.0, 0.25]})
    assert list(scheme.weights(4, 6)) == [1.0, 1.0, 1.0, 0.25, 0.0, 0.0]
    with pytest.raises(ParameterError):
        scheme.weights(3, 6)  # no row for tau=3


def test_custom_toeplitz_compares_and_hashes_by_its_rows():
    # rows kept as numpy arrays in a dict made == raise ValueError and hash TypeError
    a = CustomToeplitz({1: [1.0], 3: [1.0, 1.0, 0.5]})
    b = CustomToeplitz({3: (1, 1, 0.5), 1: np.ones(1)})
    assert a == b and hash(a) == hash(b)
    assert a != CustomToeplitz({1: [1.0], 3: [1.0, 1.0, 0.25]})
    assert a != CustomToeplitz({1: [1.0]})
    cfg = ExperimentConfig(model=ArDecay(rho=0.5, p=8), n=30, scheme=a, tau_max=3)
    assert cfg == replace(cfg, scheme=b) and hash(cfg) == hash(replace(cfg, scheme=b))
    assert list(b.weights(3, 4)) == [1.0, 1.0, 0.5, 0.0]


def test_custom_toeplitz_rejects_a_nan_weight():
    # a NaN is neither < 0 nor > 1, so the range check must fail it, not the profile later
    with pytest.raises(ParameterError, match=r"^tau=3: weights must lie in \[0, 1\]$"):
        CustomToeplitz({1: [1], 2: [1, 1], 3: [1, 1, math.nan]})


def test_custom_toeplitz_table_must_be_a_mapping():
    with pytest.raises(ParameterError, match="^weight table must be a mapping, got list$"):
        CustomToeplitz([[1.0], [1.0, 1.0]])


@pytest.mark.parametrize("row", [[1.0, 1.0, "x"], [[1.0], [1.0, 1.0], 0.5], [1.0, 1.0, {}]],
                         ids=["string", "ragged", "dict"])
def test_custom_toeplitz_row_must_be_numbers(row):
    with pytest.raises(ParameterError, match=r"^tau=3: weights must be numbers, got "):
        CustomToeplitz({1: [1.0], 3: row})


def test_mle_cov_small_case():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    s = mle_cov(Dataset(rows=rows))
    assert s == pytest.approx(np.array([[0.25, 0.0], [0.0, 0.25]]))
    assert np.array_equal(s, s.T)


@pytest.mark.parametrize("n,p", [(250, 500), (100, 5000), (20, 10), (3, 1), (7, 3), (500, 64)])
def test_mle_cov_exactly_symmetric(n, p):
    """The gram needs no symmetrisation: it equals its transpose bit for bit,
    so it also equals the (s + s') / 2 it used to return."""
    rows = np.random.default_rng(n * p).normal(size=(n, p))
    s = mle_cov(Dataset(rows=rows))
    assert np.array_equal(s, s.T)
    assert s.tobytes() == ((s + s.T) / 2.0).tobytes()


def test_mle_cov_translation_invariant():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(12, 5))
    shifted = rows + np.array([10.0, -3.0, 0.5, 100.0, 7.0])
    a = mle_cov(Dataset(rows=rows))
    b = mle_cov(Dataset(rows=shifted))
    assert np.allclose(a, b, atol=1e-12)


def test_banding_idempotent():
    rng = np.random.default_rng(0)
    sigma = rng.normal(size=(8, 8))
    sigma = sigma @ sigma.T
    once = taper(sigma, Banding(), 3)
    twice = taper(once, Banding(), 3)
    assert np.array_equal(once, twice)


def test_taper_zeroes_beyond_band():
    rng = np.random.default_rng(1)
    sigma = rng.normal(size=(6, 6))
    sigma = (sigma + sigma.T) / 2
    est = taper(sigma, Banding(), 2)
    dist = np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
    assert np.all(est[dist >= 2] == 0.0)
    assert np.array_equal(est[dist < 2], sigma[dist < 2])


@pytest.mark.parametrize(
    "scheme",
    [
        Banding(),
        CzzTaper(),
        CustomToeplitz({t: [1.0] * (t // 2 + 1) + [0.5] * (t - t // 2 - 1) for t in range(1, 11)}),
    ],
)
def test_taper_matches_dense_definition(scheme):
    """Byte for byte ``w[|i-j|] * s``, including the -0.0 of negative entries
    and the nan of a nan or inf entry that a zero weight multiplies."""
    rng = np.random.default_rng(3)
    root = rng.normal(size=(9, 9))
    sigma = root @ root.T / 9 - 0.5
    sigma[0, 8] = sigma[8, 0] = np.nan
    sigma[2, 3] = sigma[3, 2] = np.inf
    dist = np.abs(np.subtract.outer(np.arange(9), np.arange(9)))
    with np.errstate(invalid="ignore"):  # inf * 0 is nan, as it should be
        for tau in range(1, 11):
            expected = scheme.weights(tau, 9)[dist] * sigma
            assert taper(sigma, scheme, tau).tobytes() == expected.tobytes()


@pytest.mark.parametrize("blocked", [False, True])
def test_band_gram_checks_its_width_as_a_tau(blocked):
    # these used to raise IndexError, ValueError and TypeError
    data = Dataset(rows=np.random.default_rng(2).normal(size=(5, 600 if blocked else 6)))
    for dmax in (0, -1, 2.5, True, None):
        with pytest.raises(ParameterError, match=rf"^dmax must be a positive integer, got {dmax!r}$"):
            band_gram(data, dmax)


@pytest.mark.parametrize("dmax", [2, 5])  # dmax < p and dmax = p, both on the dense branch
def test_band_gram_on_tall_data_makes_no_n_by_n_array(dmax):
    n, p = 20_000, 5
    data = Dataset(rows=np.random.default_rng(3).normal(size=(n, p)))
    tracemalloc.start()
    try:
        band, frob_sq = band_gram(data, dmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * p * 8  # a few copies of the data; one n x n array is n^2 * 8
    s = mle_cov(data)
    assert np.allclose(band[:, 0], np.diagonal(s), rtol=1e-13, atol=0)
    assert frob_sq == pytest.approx(np.einsum("ij,ij->", s, s), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 12),
    dmax=st.integers(1, 12),
    block=st.integers(1, 8),
    extra=st.integers(0, 30),
    blocked=st.booleans(),
)
def test_band_gram_is_the_band_of_the_mle(seed, n, dmax, block, extra, blocked):
    """On either branch, the band of ``mle_cov`` to 1e-14 max|s| and its total
    to 1e-12 relative; a small ``_BLOCK`` sends small p down the blocked one."""
    edge = n + 2 * (block + dmax)  # the widest data on the dense branch
    p = edge + 1 + extra if blocked else max(1, edge - extra)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p) + 5.0 * rng.normal(size=p)
    data = Dataset(rows=rows)
    s = mle_cov(data)
    with (
        mock.patch.object(estimate, "_BLOCK", block),
        mock.patch.object(estimate, "mle_cov", wraps=mle_cov) as dense,
    ):
        band, frob_sq = band_gram(data, dmax)
    assert dense.called is not blocked
    assert band.shape == (p, dmax)
    assert np.abs(band - _band(s, dmax)[0]).max() <= 1e-14 * np.abs(s).max()
    assert frob_sq == pytest.approx(np.einsum("ij,ij->", s, s), rel=1e-12)


@pytest.mark.parametrize(
    "n, p, dmax, blocked",
    [
        (250, 500, 250, False),  # W1 (table1), and table2 at p=500
        (250, 1000, 250, False),  # table2 at p=1000
        (100, 2000, 100, True),  # acceptance gate 12
        (100, 5000, 100, True),  # the select-wide benchmark
        (100, 20_000, 100, True),  # W4
    ],
)
def test_band_gram_branch_at_benchmark_sizes(n, p, dmax, blocked):
    with mock.patch.object(estimate, "mle_cov", wraps=mle_cov) as dense:
        band_gram(Dataset(rows=np.zeros((n, p))), dmax)
    assert dense.called is not blocked


@pytest.mark.parametrize("n, p, dmax", [
    (250, 500, 20),  # dense, p >= n: s in the spare array, the band in the rows
    (100, 50, 10),  # dense, p < n
    (40, 500, 100),  # dense, dmax > n: the band its own array
    (60, 2000, 20),  # blocked
], ids=["dense-wide", "dense-tall", "dmax-above-n", "blocked"])
def test_band_gram_in_its_two_array_workspace_matches_fresh_arrays(n, p, dmax):
    """``_workspace`` aliases the centred rows with the band and the spare array with ``s``;
    band_gram there gives the bytes it gives on fresh arrays, on each reuse."""
    rng = np.random.default_rng(3)
    ws = estimate._workspace(n, p, dmax)
    for _ in range(2):
        rows = rng.normal(size=(n, p)) + 2.0
        ws["spare"][:] = rng.normal(size=(n, p))  # what a draw leaves there
        ws["rows"][:] = rows
        band, frob_sq = band_gram(Dataset(rows=ws["rows"]), dmax, ws)
        fresh, fresh_sq = band_gram(Dataset(rows=rows), dmax)
        assert (band.tobytes(), frob_sq) == (fresh.tobytes(), fresh_sq)


def test_blocked_band_gram_does_not_depend_on_the_callers_blas_thread_count():
    """The blocked branch's products run on one BLAS thread, so its band and total are the
    same whatever count the caller runs at.  At two threads 15 of these band entries used
    to differ, at d = 37 to 39."""
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no OpenBLAS loaded in this process")
    data = Dataset(rows=np.random.default_rng(1).normal(size=(60, 900)))
    seen = []
    before = setter(2)
    try:
        with mock.patch.object(estimate, "mle_cov", wraps=mle_cov) as dense:
            for count in (2, 1):
                setter(count)
                band, frob_sq = band_gram(data, 40)
                seen.append((band.tobytes(), frob_sq))
                assert setter(count) == count
    finally:
        setter(before)
    assert not dense.called
    assert seen[0] == seen[1]


@st.composite
def _models(draw):
    """A model of every family, at p in {1, 2, 7, 64}."""
    p = draw(st.sampled_from([1, 2, 7, 64]))
    family = draw(st.sampled_from(["poly", "ar", "banded", "explicit"]))
    if family == "poly":
        return PolyDecay(rho=draw(st.floats(0, 0.99)), alpha=draw(st.floats(0.05, 3)), p=p)
    if family == "ar":
        return ArDecay(rho=draw(st.floats(-0.99, 0.99)), p=p)
    if family == "banded":
        return BandedUniform(k0=draw(st.integers(1, p)), offdiag=draw(st.floats(-1, 1)), p=p,
                             unit_diagonal=draw(st.booleans()))
    m = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(p, p))
    m = m + m.T
    np.fill_diagonal(m, np.abs(np.diagonal(m)) + 1.0)
    return Explicit(m)


@settings(max_examples=200, deadline=None)
@given(model=_models(), k=st.integers(1, 64), which=st.sampled_from(["1", "k", "p", "past p"]))
def test_sigma_band_is_the_band_of_the_formed_sigma(model, k, which):
    """A model's band holds the formed Sigma's floats, and its total is ``||Sigma||_F^2``
    to 1e-14, against the correctly rounded sum: ``_band``'s einsum of the p^2 squares
    is itself 1.3e-14 off it on a BandedUniform(k0=23, p=64)."""
    p = model.p
    width = {"1": 1, "k": min(k, p), "p": p, "past p": p + k}[which]
    band, total = _sigma_band(model, width)
    sigma = build_sigma(model)
    dense_band, dense_total = _band(sigma, width)
    assert band.shape == dense_band.shape and band.tobytes() == dense_band.tobytes()
    assert total == pytest.approx(math.fsum((sigma * sigma).ravel()), rel=1e-14, abs=0.0)
    assert total == pytest.approx(dense_total, rel=1e-13, abs=0.0)
