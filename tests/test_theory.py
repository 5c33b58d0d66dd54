"""Exact risk/variance formulas against independently coded oracles.

Frozen values (exact rational arithmetic, computed before implementation):

* coeffs(n=5, c=2, omega=1) = (1/16, 3/4, 1/6, 1)
* risk on I_3, n=5, banding, c=2: R(1)=1.08, R(2)=1.72, R(3)=2.04
* var_n(I_2, n=5, banding tau=1, c=2) = 1612/3375
* exact_sure_variance([[1]], n=5, tau=1, c=2) = 189/625 = 0.3024
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surecov.criterion import default_tau_grid
from surecov.errors import DataError, NumericalError, ParameterError
from surecov.estimate import Banding, CustomToeplitz, CzzTaper, _sigma_band, taper
from surecov.model import ArDecay, BandedUniform, PolyDecay, _blas_thread_setter, _toeplitz, build_sigma
from surecov.theory import (
    VAR_EXACT_CAP,
    _model_theory,
    _var_profile,
    coeffs,
    exact_sure_variance,
    isserlis_moment,
    risk_profile,
    var_n,
    var_profile,
)


def test_coeffs_frozen_values():
    cs = coeffs(5, 2.0, 1.0)
    assert cs.abar == pytest.approx(1 / 16, abs=1e-16)
    assert cs.bbar == pytest.approx(3 / 4, abs=1e-16)
    assert cs.Abar == pytest.approx(1 / 6, abs=1e-16)
    assert cs.Bbar == pytest.approx(1.0, abs=0)


def test_coeffs_validation():
    with pytest.raises(DataError):
        coeffs(3, 2.0, 0.5)
    with pytest.raises(ParameterError):
        coeffs(5, 2.0, 1.5)


def test_bbar_zero_at_omega_zero():
    # the simplified form is *exactly* zero, not just close
    assert coeffs(17, 3.7, 0.0).Bbar == 0.0


@settings(max_examples=80)
@given(
    n=st.integers(4, 400),
    c_extra=st.floats(0.0, 10.0),
    omega=st.floats(0.0, 1.0),
)
def test_bbar_two_forms_agree(n, c_extra, omega):
    """omega^2 + gamma(c-2)omega equals abar + gamma*bbar identically."""
    c = 2.0 + c_extra
    cs = coeffs(n, c, omega)
    gamma = n / (n - 1)
    definitional = cs.abar + gamma * cs.bbar
    assert cs.Bbar == pytest.approx(definitional, rel=1e-12, abs=1e-12)


@settings(max_examples=40)
@given(n=st.integers(8, 200), omega=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_coefficient_bounds(n, omega):
    """For c in [2, n/4]: |Abar| <= 2, 0 <= Bbar <= c."""
    for c in (2.0, n / 4):
        cs = coeffs(n, c, omega)
        assert abs(cs.Abar) <= 2.0
        assert 0.0 <= cs.Bbar <= c


@pytest.mark.parametrize("band", [2.5, np.float64(2.0), True, 0, None])
def test_truncation_band_must_be_a_positive_integer(band):
    # 2.5 used to be truncated to band 2 without a word
    sigma = build_sigma(BandedUniform(k0=2, offdiag=0.2, p=8))
    with pytest.raises(ParameterError, match="needs an integer truncation_band >= 1"):
        var_profile(sigma, 20, Banding(), (1, 2), 2.0, "banded-truncated", band)


def test_bool_tau_is_not_a_grid_point():
    # True used to pass as tau = 1
    sigma = build_sigma(BandedUniform(k0=2, offdiag=0.2, p=8))
    with pytest.raises(ParameterError, match="tau must be a positive integer, got True"):
        risk_profile(sigma, 20, Banding(), 2.0, [True, 3])


def test_risk_profile_at_n_three_is_a_data_error():
    with pytest.raises(DataError, match="risk profile requires n >= 4, got n=3"):
        risk_profile(np.eye(3), 3, Banding())


def test_risk_identity_frozen():
    profile = risk_profile(np.eye(3), 5, Banding(), 2.0, (1, 2, 3))
    assert profile.values == pytest.approx([1.08, 1.72, 2.04], rel=1e-13)
    assert profile.oracle_tau == 1
    assert profile.min_value() == pytest.approx(1.08)


def test_risk_default_grid():
    profile = risk_profile(np.eye(6), 4, Banding())
    assert profile.tau_grid == (1, 2, 3, 4)  # 1..min(p, n)


def test_risk_oracle_locations_on_banded_models():
    # banding risk bottoms out at the true bandwidth; the linear taper needs
    # 2*k0-3 to cover the same band
    for k0 in (3, 4, 5):
        sigma = build_sigma(BandedUniform(k0=k0, offdiag=0.25, p=60))
        assert risk_profile(sigma, 250, Banding()).oracle_tau == k0
        assert risk_profile(sigma, 250, CzzTaper()).oracle_tau == 2 * k0 - 3


@pytest.mark.parametrize("c", [2.0, 3.0, "logn"], ids=["c2", "c3", "clogn"])
@pytest.mark.parametrize("scheme", [Banding(), CzzTaper()], ids=lambda s: s.name)
@pytest.mark.parametrize("n", [8, 25])
@pytest.mark.parametrize("model", [ArDecay(rho=0.5, p=12), PolyDecay(rho=0.6, alpha=0.5, p=9)],
                         ids=["ar", "poly"])
def test_risk_is_the_exact_mean_of_the_criterion(model, n, scheme, c):
    """R_c(tau) = E[SURE_c(tau)], summed entrywise over a dense p x p from the moments of the
    MLE s = W/n, W ~ Wishart(n-1, Sigma):
    E[s_ij^2] = ((n-1)^2 sigma_ij^2 + (n-1)(sigma_ij^2 + sigma_ii sigma_jj)) / n^2 and
    E[s_ii s_jj] = ((n-1)^2 sigma_ii sigma_jj + 2(n-1) sigma_ij^2) / n^2.
    At c = 2 this is the criterion's unbiasedness for the Frobenius risk, checked exactly."""
    c = math.log(n) if c == "logn" else c
    sigma = build_sigma(model)
    p = len(sigma)
    sq, dd = sigma**2, np.outer(np.diagonal(sigma), np.diagonal(sigma))
    e_sq = ((n - 1) ** 2 * sq + (n - 1) * (sq + dd)) / n**2
    e_dd = ((n - 1) ** 2 * dd + 2 * (n - 1) * sq) / n**2
    gamma = n / (n - 1)
    a_n, b_n = n * (n - 3) / ((n - 1) * (n - 2) * (n + 1)), n / ((n + 1) * (n - 2))
    grid = tuple(range(1, p + 1))
    for tau, risk in zip(grid, risk_profile(sigma, n, scheme, c, grid).values, strict=True):
        w = taper(np.ones((p, p)), scheme, tau)
        mean = np.sum((gamma - w) ** 2 * e_sq + (c * w - gamma) * (a_n * e_sq + b_n * e_dd))
        assert risk == pytest.approx(mean, rel=1e-12)


@pytest.mark.parametrize("c", [2.0, 3.0, math.log(40)], ids=["c2", "c3", "clog40"])
@pytest.mark.parametrize("scheme", [Banding(), CzzTaper()], ids=lambda s: s.name)
@pytest.mark.parametrize("model", [
    ArDecay(rho=0.5, p=10), PolyDecay(rho=0.6, alpha=0.5, p=10), BandedUniform(k0=3, offdiag=0.25, p=10)
], ids=["ar", "poly", "banded"])
def test_risk_at_a_tau_is_the_same_on_every_grid(model, scheme, c):
    """R_c(tau) and var_n depend on tau alone: at each tau, a one-point grid, as clt reads it,
    gives the default grid's row bit for bit.  The risk's last bits used to differ in about half
    the cases, with the grid's largest tau and its tail bin; var_n's in 12 of these 180, all
    czz, with the width of the chunk of the grid that tau went in."""
    grid = default_tau_grid(model.p, 40)
    risk, var = _model_theory(model, 40, scheme, grid, c, var=(None, None))[:2]
    points = [_model_theory(model, 40, scheme, (t,), c, var=(None, None))[:2] for t in grid]
    assert [r.values[0] for r, _ in points] == risk.values.tolist()
    assert [v[0] for _, v in points] == var.tolist()


def _var_n_brute_force(sigma, n, scheme, tau, c):
    """Literal quadruple-sum transcription; the oracle for the fast path."""
    p = sigma.shape[0]
    amat = np.empty((p, p))
    bmat = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            cs = coeffs(n, c, scheme.weights(tau, abs(i - j) + 1)[abs(i - j)])
            amat[i, j] = cs.Abar
            bmat[i, j] = cs.Bbar
    total = 0.0
    g = sigma
    for i in range(p):
        for j in range(p):
            for s in range(p):
                for t in range(p):
                    total += (
                        2 * (n - 2) / n**4 * bmat[i, j] * bmat[s, t]
                        * (
                            g[i, i] * g[s, s] * g[j, t] ** 2
                            + g[i, i] * g[t, t] * g[j, s] ** 2
                            + g[j, j] * g[s, s] * g[i, t] ** 2
                            + g[j, j] * g[t, t] * g[i, s] ** 2
                        )
                        + 2 * (n - 1) * (n - 2) / n**4 * amat[i, j] * amat[s, t]
                        * (g[i, s] * g[j, t] + g[i, t] * g[j, s]) ** 2
                        + 4 * (n - 2) ** 3 / n**4 * amat[i, j] * amat[s, t]
                        * g[i, j] * g[s, t] * (g[i, s] * g[j, t] + g[i, t] * g[j, s])
                        + 8 * (n - 2) ** 2 / n**4 * amat[i, j] * bmat[s, t]
                        * g[i, j] * (g[s, s] * g[i, t] * g[j, t] + g[t, t] * g[i, s] * g[j, s])
                    )
    return total


def _var_n_dense(sigma, n, scheme, tau, c):
    """The quadruple sum on dense p x p matrices, O(p^4): the oracle for the
    band-storage path, fast enough to check it at the exact cap."""
    p = sigma.shape[0]
    cs = coeffs(n, c, scheme.weights(tau, p))
    amat, bmat = _toeplitz(cs.Abar, p), _toeplitz(cs.Bbar, p)
    u = bmat @ np.diagonal(sigma)  # u_j = sum_i Bbar_ij s_ii
    msq = sigma * sigma
    pmat = amat * sigma
    sps = sigma @ pmat @ sigma
    quartic = 0.0  # sum_ijst A_ij A_st s_is s_it s_js s_jt, one GEMM per row i
    for i in range(p):
        mi = sigma * sigma[i]  # mi[j, t] = s_jt * s_it
        quartic += float(amat[i] @ np.sum((mi @ amat) * mi, axis=1))
    n4 = float(n) ** 4
    return (
        8.0 * (n - 2) / n4 * (u @ msq @ u)
        + 2.0 * (n - 1) * (n - 2) / n4 * (2.0 * np.sum(amat * (msq @ amat @ msq)) + 2.0 * quartic)
        + 8.0 * (n - 2) ** 3 / n4 * np.sum(pmat * sps)
        + 16.0 * (n - 2) ** 2 / n4 * (u @ np.diagonal(sps))
    )


def test_var_n_frozen_value():
    approx = var_n(np.eye(2), 5, Banding(), 1, 2.0)
    assert approx.value == pytest.approx(1612 / 3375, rel=1e-13)
    assert approx.method == "exact"


@pytest.mark.parametrize(
    "scheme,tau,c",
    [(Banding(), 3, 2.0), (CzzTaper(), 5, 3.5), (Banding(), 1, math.log(20))],
)
def test_var_n_matches_brute_force(scheme, tau, c):
    rng = np.random.default_rng(17)
    root = rng.normal(size=(6, 6))
    sigma = root @ root.T / 6 + np.eye(6)
    n = 20
    fast = var_n(sigma, n, scheme, tau, c).value
    slow = _var_n_brute_force(sigma, n, scheme, tau, c)
    assert fast == pytest.approx(slow, rel=1e-12)


def test_var_n_truncation_lossless_on_banded_sigma():
    sigma = build_sigma(BandedUniform(k0=3, offdiag=0.3, p=30))
    n = 50
    exact = _var_n_dense(sigma, n, Banding(), 4, 2.0)
    truncated = var_n(
        sigma, n, Banding(), 4, 2.0, method="banded-truncated", truncation_band=3
    ).value
    assert truncated == pytest.approx(exact, rel=1e-12)


@st.composite
def _schemes(draw, *taus):
    kind = draw(st.sampled_from(["banding", "czz", "custom"]))
    if kind == "banding":
        return Banding()
    if kind == "czz":
        return CzzTaper()
    table = {}
    for tau in taus:
        size = tau - tau // 2 - 1
        tail = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
        table[tau] = [1.0] * (tau // 2 + 1) + tail
    return CustomToeplitz(table)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), c=st.floats(0.0, 6.0))
def test_var_n_banded_equals_exact_on_truncated_sigma(data, p, seed, c):
    """The band-storage evaluation is the dense quadruple sum of the banded
    truncation of sigma, for every band and tau, also beyond p."""
    band = data.draw(st.integers(1, p + 2), label="band")
    tau = data.draw(st.integers(1, p + 2), label="tau")
    scheme = data.draw(_schemes(tau), label="scheme")
    root = np.random.default_rng(seed).normal(size=(p, p))
    sigma = root @ root.T / p + 0.5 * np.eye(p)
    n = 30
    banded = var_n(sigma, n, scheme, tau, c, method="banded-truncated", truncation_band=band)
    dense = _var_n_dense(taper(sigma, Banding(), band), n, scheme, tau, c)
    assert banded.value == pytest.approx(dense, rel=1e-12)
    assert banded.truncation_band == band


@pytest.mark.parametrize("scheme", [Banding(), CzzTaper()])
def test_exact_var_profile_at_the_cap_is_the_dense_sum_and_the_full_band(scheme):
    p = VAR_EXACT_CAP
    sigma = build_sigma(ArDecay(rho=0.5, p=p))
    grid = range(1, p + 1)
    exact = var_profile(sigma, 100, scheme, grid, 2.0, "exact")
    full_band = var_profile(sigma, 100, scheme, grid, 2.0, "banded-truncated", p)
    assert exact.tobytes() == full_band.tobytes()
    for tau, value in zip(grid, exact):
        assert value == pytest.approx(_var_n_dense(sigma, 100, scheme, tau, 2.0), rel=1e-12)


def test_var_n_banded_allocates_no_p_by_p_array():
    p = 2000
    sigma = build_sigma(BandedUniform(k0=5, offdiag=0.25, p=p))
    tracemalloc.start()
    try:
        value = var_n(
            sigma, 250, CzzTaper(), 8, 2.0, method="banded-truncated", truncation_band=5
        ).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert peak < p * p * 8 / 8


def test_var_profile_peak_is_about_one_product():
    """At a large tau the largest temporary is the product x of 2 min(tau + k - 2, p - 1) + 1
    rows of p floats: the sum of X_ij X_ji adds no second one."""
    p, k, tau = 4000, 5, 250
    band = _sigma_band(BandedUniform(k0=k, offdiag=0.25, p=p), k)[0]
    tracemalloc.start()
    try:
        value = _var_profile(band, 250, CzzTaper(), (tau,), 2.0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert peak <= 1.25 * (2 * min(tau + k - 2, p - 1) + 1) * p * 8


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), c=st.floats(0.0, 6.0))
def test_var_profile_is_exact_var_n_of_the_truncation_at_every_tau(data, p, seed, c):
    """One band-storage pass over a whole grid, in any order and with tau > p
    always on it, gives the dense quadruple sum of the truncated sigma per tau."""
    band = data.draw(st.integers(1, p + 2), label="band")
    grid = data.draw(st.lists(st.integers(1, p + 2), min_size=1, max_size=6), label="grid")
    grid = (*grid, p + 1)
    scheme = data.draw(_schemes(*set(grid)), label="scheme")
    root = np.random.default_rng(seed).normal(size=(p, p))
    sigma = root @ root.T / p + 0.5 * np.eye(p)
    n = 30
    values = var_profile(sigma, n, scheme, grid, c, method="banded-truncated", truncation_band=band)
    truncated = taper(sigma, Banding(), band)
    assert values.shape == (len(grid),)
    for tau, value in zip(grid, values):
        assert value == pytest.approx(_var_n_dense(truncated, n, scheme, tau, c), rel=1e-12)


@pytest.mark.parametrize("method, band", [("exact", None), ("banded-truncated", 3)])
def test_var_n_is_the_one_point_profile(method, band):
    sigma = build_sigma(BandedUniform(k0=3, offdiag=0.3, p=40))
    for tau in (1, 4, 9, 41):
        approx = var_n(sigma, 50, CzzTaper(), tau, 2.5, method, band)
        assert approx.value == var_profile(sigma, 50, CzzTaper(), (tau,), 2.5, method, band)[0]
        assert (approx.tau, approx.method, approx.truncation_band) == (tau, method, band)


def test_a_truncation_band_without_a_method_is_banded_truncated():
    # the band used to go unused, for exact var_n
    sigma = build_sigma(ArDecay(rho=0.5, p=20))
    approx = var_n(sigma, 50, Banding(), 1, truncation_band=2)
    assert (approx.method, approx.truncation_band) == ("banded-truncated", 2)
    assert approx.value == var_n(sigma, 50, Banding(), 1, 2.0, "banded-truncated", 2).value
    assert approx.value != var_n(sigma, 50, Banding(), 1).value  # exact, with no band
    assert list(var_profile(sigma, 50, Banding(), (1, 2), truncation_band=2)) == list(
        var_profile(sigma, 50, Banding(), (1, 2), 2.0, "banded-truncated", 2))


def test_var_n_does_not_depend_on_the_callers_blas_thread_count():
    """var_n's products run on one BLAS thread, also outside ``_model_theory``, so the public
    ``var_profile`` and ``var_n`` give the same bytes whatever count the caller runs at.  At two
    threads the values at tau = 5 and 17 used to differ in the last bit."""
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no OpenBLAS loaded in this process")
    sigma = build_sigma(ArDecay(0.9, 400))
    seen = []
    before = setter(2)
    try:
        for count in (2, 1):
            setter(count)
            profile = var_profile(sigma, 250, CzzTaper(), range(1, 60), 3.0, "banded-truncated", 48)
            single = var_n(sigma, 250, CzzTaper(), 17, 3.0, "banded-truncated", 48).value
            seen.append((profile.tobytes(), single))
            assert setter(count) == count
    finally:
        setter(before)
    assert seen[0] == seen[1]


def test_var_profile_over_a_grid_allocates_no_p_by_p_array():
    p = 2000
    sigma = build_sigma(BandedUniform(k0=5, offdiag=0.25, p=p))
    tracemalloc.start()
    try:
        values = var_profile(
            sigma, 250, CzzTaper(), range(1, 9), 2.0, "banded-truncated", truncation_band=5
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(values > 0.0)
    assert peak < p * p * 8


@pytest.mark.parametrize("entries", [1, 4000])
def test_var_profile_in_chunks_is_exact_var_n_of_the_truncation(entries):
    """An unsorted grid with repeats and a tau past p, passed whole or in chunks of `entries`
    taus, gives the dense quadruple sum of the truncated sigma per tau, and the same values
    bit for bit either way: each tau runs at its own width."""
    p, band, n = 30, 4, 40
    root = np.random.default_rng(7).normal(size=(p, p))
    sigma = root @ root.T / p + 0.5 * np.eye(p)
    grid = (9, 1, 31, 4, 4, 17, 2, 30)
    values = var_profile(sigma, n, CzzTaper(), grid, 2.5, "banded-truncated", band)
    chunks = [
        var_profile(sigma, n, CzzTaper(), grid[i:i + entries], 2.5, "banded-truncated", band)
        for i in range(0, len(grid), entries)
    ]
    assert np.concatenate(chunks).tolist() == values.tolist()
    truncated = taper(sigma, Banding(), band)
    for tau, value in zip(grid, values):
        assert value == pytest.approx(_var_n_dense(truncated, n, CzzTaper(), tau, 2.5), rel=1e-12)


def test_var_profile_over_a_full_grid_needs_the_memory_of_its_largest_tau():
    """The default grid 1..200 at p=2000 peaks near one var_n at tau=200: the
    grid goes one tau at a time, not in one (tau, row, p) array per term.  Each grid
    runs once untraced first, and garbage is collected before tracing, so
    neither peak counts one-off caches or what earlier tests left behind."""
    p = 2000
    sigma = build_sigma(BandedUniform(k0=5, offdiag=0.25, p=p))
    peaks = []
    for grid in ((200,), range(1, 201)):
        var_profile(sigma, 250, CzzTaper(), grid, 2.0, "banded-truncated", 5)
        gc.collect()
        tracemalloc.start()
        try:
            values = var_profile(sigma, 250, CzzTaper(), grid, 2.0, "banded-truncated", 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.all(values > 0.0)
    assert peaks[1] < 1.25 * peaks[0], f"peaks: tau=200 alone {peaks[0]} B, grid 1..200 {peaks[1]} B"


@pytest.mark.parametrize("method", ["exact", "banded-truncated"])
def test_var_profile_names_the_first_non_finite_tau(method):
    # sigma^2 is finite, the fourth powers in the variance are not
    sigma = build_sigma(BandedUniform(k0=2, offdiag=1e80, p=6))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match=r"^var_n at tau=3 is not finite"):
            var_profile(
                sigma, 20, Banding(), (3, 1, 2), 2.0, method, truncation_band=2
            )


def test_var_n_guards():
    big = np.eye(VAR_EXACT_CAP + 1)
    with pytest.raises(ParameterError):
        var_n(big, 50, Banding(), 2, 2.0)  # p over the exact cap
    with pytest.raises(ParameterError):
        var_n(big, 50, Banding(), 2, 2.0, method="banded-truncated")  # band missing
    # a full-width band is exact's O(p^4) work under another name, also when wider than p
    for band in (VAR_EXACT_CAP + 1, VAR_EXACT_CAP + 9):
        with pytest.raises(ParameterError, match=rf"width {VAR_EXACT_CAP + 1}, above the cap of"):
            var_n(big, 50, Banding(), 2, 2.0, method="banded-truncated", truncation_band=band)
    with pytest.raises(ParameterError):
        var_n(np.eye(4), 50, Banding(), 2, 2.0, method="bogus")
    with pytest.raises(DataError):
        var_n(np.eye(4), 3, Banding(), 2, 2.0)
    with pytest.raises(ParameterError, match="nonempty"):
        var_profile(np.eye(4), 50, Banding(), (), 2.0)
    # the truncated path works above the cap
    sigma = build_sigma(BandedUniform(k0=2, offdiag=0.2, p=VAR_EXACT_CAP + 6))
    value = var_n(
        sigma, 40, Banding(), 2, 2.0, method="banded-truncated", truncation_band=2
    ).value
    assert value > 0.0


def test_isserlis_moments():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert isserlis_moment(sigma, [0, 0]) == 2.0
    assert isserlis_moment(sigma, [0, 1]) == 0.5
    assert isserlis_moment(sigma, [0]) == 0.0  # odd order
    assert isserlis_moment(sigma, []) == 1.0
    assert isserlis_moment(sigma, [0, 0, 0, 0]) == pytest.approx(3 * 4.0)
    # E[X^2 Y^2] = s11 s22 + 2 s12^2
    assert isserlis_moment(sigma, [0, 0, 1, 1]) == pytest.approx(2.0 + 2 * 0.25)
    with pytest.raises(ParameterError):
        isserlis_moment(sigma, [0] * 10)


def test_exact_sure_variance_frozen():
    assert exact_sure_variance(np.eye(1), 5, Banding(), 1, 2.0) == pytest.approx(
        189 / 625, rel=1e-12
    )


def test_exact_sure_variance_caps():
    with pytest.raises(ParameterError):
        exact_sure_variance(np.eye(4), 10, Banding(), 1, 2.0)
    with pytest.raises(ParameterError):
        exact_sure_variance(np.eye(2), 101, Banding(), 1, 2.0)
    with pytest.raises(ParameterError):
        exact_sure_variance(np.eye(2), 3, Banding(), 1, 2.0)


def test_exact_sure_variance_monte_carlo_cross_check():
    """The moment-expansion variance matches a simulated Var(SURE)."""
    from surecov.criterion import band_sums, profile_values, sure_constants
    from surecov.model import cholesky_factor, sample_dataset

    sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
    n, tau, c, reps = 12, 1, 2.0, 40_000
    exact = exact_sure_variance(sigma, n, Banding(), tau, c)
    chol = cholesky_factor(sigma)
    consts = sure_constants(n, c)
    values = np.empty(reps)
    for r in range(reps):
        rows = sample_dataset(sigma, n, r, chol=chol).rows
        centered = rows - rows.mean(axis=0)
        s = centered.T @ centered / n
        s1, s2 = band_sums((s + s.T) / 2)
        values[r] = profile_values(s1, s2, consts, Banding(), (tau,))[0]
    mc = float(np.var(values, ddof=1))
    # MC SE of a variance estimate ~ var * sqrt(2/R + kurtosis slack)
    assert mc == pytest.approx(exact, rel=0.08)
