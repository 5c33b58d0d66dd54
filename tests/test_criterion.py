"""Criterion values, constants, and the two algebraically equal formulas.

The frozen numbers here were computed with exact rational arithmetic before
the implementation existed:

* n=250: a_n = 30875/7749876, b_n = 125/31124
* sigma_tilde = I_2, n = 5, tau = 2, c = 2: SURE = 7/6
"""

import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surecov import estimate, theory
from surecov.cli import main
from surecov.criterion import (
    CriterionProfile,
    _Grid,
    _smallest_argmin,
    _sums,
    band_sums,
    default_tau_grid,
    profile_values,
    resolve_c,
    sure_constants,
    sure_eq2_reference,
    sure_profile,
    sure_profile_from_band,
)
from surecov.errors import DataError, NumericalError, ParameterError
from surecov.estimate import Banding, CustomToeplitz, CzzTaper, _band, band_gram, mle_cov
from surecov.model import ArDecay, BandedUniform, Dataset, build_sigma, sample_dataset
from surecov.sim import ExperimentConfig, clt_experiment
from surecov.theory import risk_profile, var_n, var_profile


def test_constants_frozen_values():
    consts = sure_constants(250, 2.0)
    assert consts.gamma == pytest.approx(250 / 249, abs=0)
    assert consts.a_n == pytest.approx(30875 / 7749876, abs=1e-18)
    assert consts.b_n == pytest.approx(125 / 31124, abs=1e-18)

    small = sure_constants(5, 2.0)
    assert small.a_n == pytest.approx(5 * 2 / (4 * 3 * 6))
    assert small.b_n == pytest.approx(5 / (6 * 3))


def test_constants_validation():
    with pytest.raises(ParameterError):
        sure_constants(250, 1.5)  # c < 2
    with pytest.raises(DataError):
        sure_constants(2, 2.0)
    # a c that is neither a string nor a real number used to end in float()'s TypeError
    with pytest.raises(ParameterError, match=r"^penalty multiplier c must be a real number or 'logn', got \[2\]$"):
        sure_constants(30, [2])
    # a non-integer n used to give constants (3.5) or float()'s TypeError ("10")
    for n in (3.5, "10", 10.0, True):
        with pytest.raises(ParameterError, match=rf"^n must be an integer, got n={n!r}$"):
            sure_constants(n)
    with pytest.raises(ParameterError, match=r"n=10\.5"):
        risk_profile(np.eye(3), 10.5, Banding())


def test_band_sums_hand_case():
    s = np.array([[1.0, 2.0], [2.0, 5.0]])
    s1, s2 = band_sums(s)
    assert list(s1) == [1.0 + 25.0, 2 * 4.0]
    assert list(s2) == [1.0 + 25.0, 2 * 5.0]


def _symmetric(rng, p):
    x = rng.normal(size=(p, p))
    return x + x.T


def _diagonal_loop(a, b, dmax):
    """Reference: one dot product per diagonal below dmax, 0 past the matrix's edge."""
    p = a.shape[0]
    full = [float(np.diagonal(a, d) @ np.diagonal(b, d)) * (2.0 if d else 1.0) for d in range(p)]
    return full[:dmax] + [0.0] * (dmax - min(dmax, p))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 40))
def test_per_distance_sums_match_diagonal_loop(seed, p):
    rng = np.random.default_rng(seed)
    a, b = _symmetric(rng, p), _symmetric(rng, p)
    scale = float(np.sum(np.abs(a * b)))
    for dmax in range(1, p + 2):
        got = _sums(_band(a, dmax)[0], _band(b, dmax)[0])
        assert got == pytest.approx(_diagonal_loop(a, b, dmax), rel=1e-12, abs=1e-13 * scale)


def _band_by_index(m, dmax):
    p = m.shape[0]
    return np.array([[m[i, i + d] if i + d < p else 0.0 for d in range(dmax)] for i in range(p)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 40))
def test_band_of_strided_input_matches_indexing(seed, p):
    # the skewed rows read past row ends, which stays inside the buffer only on
    # C-contiguous memory: other layouts are copied and must give the same band
    wide = np.random.default_rng(seed).normal(size=(p, p + 3))
    full = wide[:, :p] + wide[:, :p].T
    wide[:, 1 : p + 1] = full
    for m in (full, full[::-1, ::-1], np.asfortranarray(full), wide[:, 1 : p + 1]):
        for dmax in range(1, p + 2):
            band, frob_sq = _band(m, dmax)
            assert np.array_equal(band, _band_by_index(m, dmax))
            assert frob_sq == pytest.approx(np.sum(m * m), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 40))
def test_band_sums_invariant_under_coordinate_reversal(seed, p):
    m = _symmetric(np.random.default_rng(seed), p)
    s1, s2 = band_sums(m)
    r1, r2 = band_sums(m[::-1, ::-1])
    dvec = np.diagonal(m)
    assert s1 == pytest.approx(_diagonal_loop(m, m, p)[:p], rel=1e-12, abs=1e-12 * p)
    ref2 = _diagonal_loop(np.outer(dvec, dvec), np.ones((p, p)), p)[:p]
    assert s2 == pytest.approx(ref2, rel=1e-12, abs=1e-12 * p)
    assert r1 == pytest.approx(s1, rel=1e-12, abs=1e-12 * p)
    assert r2 == pytest.approx(s2, rel=1e-12, abs=1e-12 * p)


def test_default_tau_grid():
    assert default_tau_grid(10, 6) == tuple(range(1, 7))
    assert default_tau_grid(10, 60) == tuple(range(1, 11))
    assert default_tau_grid(10, 60, tau_max=4) == (1, 2, 3, 4)
    assert default_tau_grid(10, 6, tau_max=50) == tuple(range(1, 11))  # clamped to p
    for bad in (0, -5):
        with pytest.raises(ParameterError):
            default_tau_grid(10, 6, tau_max=bad)


@pytest.mark.parametrize("cap", [2.5, True])
def test_default_tau_grid_rejects_a_non_integer_cap(cap):
    # a float or bool cap used to end in a bare TypeError
    with pytest.raises(ParameterError, match=f"tau_max must be an integer, got {cap}"):
        default_tau_grid(10, 6, tau_max=cap)


def _reference_row(scheme, tau, width):
    """A row as the closed-form schemes built it one tau at a time."""
    if isinstance(scheme, Banding):
        return (np.arange(width) < tau).astype(np.float64)
    d = np.arange(width, dtype=np.float64)
    half = tau // 2
    w = np.zeros(width)
    w[d <= half] = 1.0
    mid = (d > half) & (d < tau)
    if mid.any():
        w[mid] = (tau - d[mid]) / half
    return w


def _reference_table(scheme, taus, width):
    return np.vstack([_reference_row(scheme, t, width) for t in taus])


_TAUS = tuple(range(1, 300))


@pytest.mark.parametrize("width", [1, 5, 11, 40, 251])
@pytest.mark.parametrize("scheme", [Banding(), CzzTaper()], ids=lambda s: s.name)
def test_grid_table_is_the_per_tau_rows_bit_for_bit(scheme, width):
    w = _Grid(scheme, _TAUS[:width], 20, width).w  # to the grid's largest tau, p no smaller
    assert w.shape == (width, width)
    assert w.tobytes() == _reference_table(scheme, _TAUS[:width], width).tobytes()
    assert scheme._table(_TAUS, width).tobytes() == _reference_table(scheme, _TAUS, width).tobytes()
    for tau in (1, 2, 3, 7, 150, 299):
        assert scheme.weights(tau, width).tobytes() == _reference_row(scheme, tau, width).tobytes()


@pytest.mark.parametrize("p,band", [(4, 1), (10, 1), (7, 3), (39, 1), (250, 1)])
@pytest.mark.parametrize("scheme", [Banding(), CzzTaper()], ids=lambda s: s.name)
def test_var_profile_table_is_the_per_tau_rows_bit_for_bit(scheme, p, band):
    """var_n's coefficients come from one table, to distance min(max tau, p) + 2 band - 2."""
    with mock.patch.object(theory, "coeffs", wraps=theory.coeffs) as spy:
        var_profile(np.eye(p), 20, scheme, _TAUS, truncation_band=band)
    (table,) = [call.args[2] for call in spy.call_args_list if np.ndim(call.args[2]) == 2]
    width = p + 2 * band - 1  # the widths 5, 11, 40 and 251 among them
    assert table.tobytes() == _reference_table(scheme, _TAUS, width).tobytes()


def test_a_grid_with_a_missing_custom_tau_names_the_first():
    scheme = CustomToeplitz({1: [1.0], 2: [1.0, 1.0], 4: [1.0, 1.0, 1.0, 0.5]})
    consts = sure_constants(20)
    band = np.eye(6)[:, :5]
    s1, s2 = np.ones(6), np.ones(6)
    for grid, missing in (((1, 2, 3, 4, 5), 3), ((4, 5, 3), 5)):
        for profile in (
            lambda: profile_values(s1, s2, consts, scheme, grid),
            lambda: sure_profile_from_band(band, 6.0, consts, scheme, grid),
            lambda: var_profile(np.eye(6), 20, scheme, grid),
        ):
            with pytest.raises(ParameterError, match=rf"^no weights provided for tau={missing}$"):
                profile()


def test_three_term_criterion_at_n_three_is_a_data_error():
    # n = 3 has constants (a_n = 0) but no criterion
    consts = sure_constants(3, 2.0)
    with pytest.raises(DataError, match="the criterion requires n >= 4, got n=3"):
        sure_eq2_reference(np.eye(2), consts, Banding(), 2)
    # profile_values used to return values here
    with pytest.raises(DataError, match="the criterion requires n >= 4, got n=3"):
        profile_values(*band_sums(np.eye(2)), consts, Banding(), (1, 2))


def test_sure_identity_frozen():
    # sigma_tilde = I_2, n=5, banding tau=2 keeps everything: value = 7/6
    profile = sure_profile(np.eye(2), sure_constants(5, 2.0), Banding(), (1, 2))
    assert profile.values[profile.tau_grid.index(2)] == pytest.approx(7 / 6, rel=1e-14)
    ref = sure_eq2_reference(np.eye(2), sure_constants(5, 2.0), Banding(), 2)
    assert ref == pytest.approx(7 / 6, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 30),
    p=st.integers(1, 16),
    tau=st.integers(1, 19),
    c_extra=st.floats(0.0, 3.0),
    czz=st.booleans(),
)
def test_dual_formula_identity(seed, n, p, tau, c_extra, czz):
    """The closed form, from band sums cut at the grid's largest tau (below, at or past p)
    or from the full-length ones, and the literal three-term form agree at every tau."""
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(p, p))
    sigma_tilde = root @ root.T / p
    consts = sure_constants(n, 2.0 + c_extra)
    scheme = CzzTaper() if czz else Banding()
    grid = tuple(range(1, min(tau, p + 3) + 1))
    fast = sure_profile(sigma_tilde, consts, scheme, grid).values
    full = profile_values(*band_sums(sigma_tilde), consts, scheme, grid)
    for t, value, other in zip(grid, fast, full):
        ref = sure_eq2_reference(sigma_tilde, consts, scheme, t)
        assert value == pytest.approx(ref, rel=1e-10, abs=1e-10)
        assert other == pytest.approx(ref, rel=1e-10, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 60),
    p=st.integers(1, 300),
    tau_extra=st.integers(0, 302),
    c_extra=st.floats(0.0, 3.0),
    czz=st.booleans(),
    block=st.integers(1, 8),
)
def test_row_path_matches_dense_profile(seed, n, p, tau_extra, c_extra, czz, block):
    """The profile from the rows' band gram is the profile of the formed MLE:
    values to 1e-12 ||S||_F^2, the same tau-hat unless the two lowest values
    tie to that bound, and band entries to 1e-14 max|s|.  A small ``_BLOCK``
    sends wide data down the blocked branch."""
    tau_max = 1 + tau_extra % (p + 2)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p) + 5.0 * rng.normal(size=p)
    data = Dataset(rows=rows)
    consts = sure_constants(n, 2.0 + c_extra)
    scheme = CzzTaper() if czz else Banding()
    grid = tuple(range(1, tau_max + 1))

    s = mle_cov(data)
    with mock.patch.object(estimate, "_BLOCK", block):
        band, frob_sq = band_gram(data, tau_max)
    assert band.shape == (p, tau_max)
    assert frob_sq == pytest.approx(np.einsum("ij,ij->", s, s), rel=1e-12)
    for d in range(tau_max):
        expected = np.append(np.diagonal(s, d), np.zeros(min(d, p)))
        assert np.abs(band[:, d] - expected).max() <= 1e-14 * np.abs(s).max()

    dense = sure_profile(s, consts, scheme, grid)
    rows_path = sure_profile_from_band(band, frob_sq, consts, scheme, grid)
    bound = 1e-12 * np.einsum("ij,ij->", s, s)
    assert np.abs(rows_path.values - dense.values).max() <= bound
    lowest = np.sort(dense.values)[:2]
    if len(lowest) < 2 or lowest[1] - lowest[0] > bound:
        assert rows_path.selected_tau == dense.selected_tau


def test_profile_from_band_checks_its_width():
    band, frob_sq = band_gram(Dataset(rows=np.arange(24.0).reshape(6, 4) ** 2), 2)
    with pytest.raises(ParameterError, match="holds 2 distances"):
        sure_profile_from_band(band, frob_sq, sure_constants(6), Banding(), (1, 2, 3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 30), p=st.integers(1, 16), czz=st.booleans())
def test_values_scale_quartically(seed, n, p, czz):
    # data scaled by 2 multiplies sigma_tilde by 4 and SURE by 16; tau-hat stays
    rng = np.random.default_rng(seed)
    root = rng.normal(size=(p, p))
    st_ = root @ root.T / p
    consts = sure_constants(n, 2.0)
    scheme = CzzTaper() if czz else Banding()
    grid = tuple(range(1, p + 1))
    base = sure_profile(st_, consts, scheme, grid)
    scaled = sure_profile(4.0 * st_, consts, scheme, grid)
    assert scaled.values == pytest.approx(16.0 * base.values, rel=1e-12)
    assert scaled.selected_tau == base.selected_tau


def test_selection_tie_breaks_to_smallest_tau():
    grid = (3, 1, 2)
    values = np.array([5.0, 5.0, 7.0])
    profile = CriterionProfile(tau_grid=grid, values=values, c=2.0, selected_tau=1)
    assert _smallest_argmin(grid, values) == 1  # smallest tau among the tied minima


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_argmin_refuses_non_finite_values(bad):
    with pytest.raises(NumericalError, match="not finite"):
        _smallest_argmin((1, 2, 3), np.array([4.0, bad, 5.0]))


def test_resolve_c():
    assert resolve_c("logn", 250) == math.log(250)
    assert resolve_c(2, 250) == 2.0 and isinstance(resolve_c(2, 250), float)
    assert sure_constants(250, "logn").c == math.log(250)
    with pytest.raises(ParameterError, match=r"got logn = log\(7\)$"):
        resolve_c("logn", 7)  # log 7 < 2
    with pytest.raises(ParameterError, match=r"got c=1.5$"):
        resolve_c(1.5, 250)
    with pytest.raises(ParameterError, match="'logn'"):
        resolve_c("lgn", 250)
    with pytest.raises(DataError):
        resolve_c("logn", 0)


def test_profile_selected_matches_helper():
    sigma = build_sigma(ArDecay(rho=0.6, p=10))
    ds = sample_dataset(sigma, 40, seed=5)
    profile = sure_profile(mle_cov(ds), sure_constants(40, 2.0), Banding(), range(1, 11))
    assert profile.selected_tau == _smallest_argmin(profile.tau_grid, profile.values)
    assert profile.selected_tau in profile.tau_grid
    assert profile.values[profile.tau_grid.index(profile.selected_tau)] == pytest.approx(
        min(profile.values)
    )


def test_profile_values_match_per_tau_evaluation():
    """One sweep over the grid equals independent single-tau evaluations."""
    rng = np.random.default_rng(21)
    root = rng.normal(size=(8, 8))
    st_ = root @ root.T / 8
    consts = sure_constants(12, math.log(12))
    s1, s2 = band_sums(st_)
    swept = profile_values(s1, s2, consts, CzzTaper(), tuple(range(1, 9)))
    singles = [
        profile_values(s1, s2, consts, CzzTaper(), (t,))[0] for t in range(1, 9)
    ]
    assert swept == pytest.approx(singles, rel=1e-15)


def test_grid_validation():
    consts = sure_constants(10, 2.0)
    with pytest.raises(ParameterError):
        sure_profile(np.eye(3), consts, Banding(), ())
    with pytest.raises(ParameterError):
        sure_profile(np.eye(3), consts, Banding(), (0, 1))
    with pytest.raises(DataError):
        sure_profile(np.eye(3), sure_constants(3, 2.0), Banding(), (1,))


@lru_cache(maxsize=1)
def _grid_entry_points():
    """Every entry point that takes a tau grid, or one tau, as grid -> values."""
    model = BandedUniform(k0=2, offdiag=0.3, p=6)
    sigma = build_sigma(model)
    data = sample_dataset(sigma, 12, seed=1)
    s = mle_cov(data)
    band, frob_sq = band_gram(data, 6)
    s1, s2 = band_sums(s)
    k = sure_constants(12, 2.0)

    def clt(tau):
        cfg = ExperimentConfig(model=model, n=12, replications=2, kind="clt", tau_fixed=tau)
        return clt_experiment(cfg).results["standardized_mean"]

    return {
        "sure_profile": lambda g: sure_profile(s, k, Banding(), g).values,
        "sure_profile_from_band": lambda g: sure_profile_from_band(band, frob_sq, k, Banding(), g).values,
        "profile_values": lambda g: profile_values(s1, s2, k, Banding(), g),
        "risk_profile": lambda g: risk_profile(sigma, 12, Banding(), 2.0, g).values,
        "var_profile": lambda g: var_profile(sigma, 12, Banding(), g),
        "var_n": lambda g: [var_n(sigma, 12, Banding(), t).value for t in g],
        "clt tau_fixed": lambda g: [clt(t) for t in g],
    }


@settings(max_examples=30, deadline=None)
@given(
    bad=st.one_of(
        st.floats(allow_nan=True),
        st.floats(-3.0, 40.0).map(np.float64),
        st.integers(-3, 0),
        st.integers(-3, 0).map(np.int64),
    ),
    good=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    at=st.integers(0, 3),
)
def test_every_grid_entry_point_takes_positive_integer_taus(bad, good, at):
    """A tau that is not a positive integer, anywhere in a grid, raises
    ParameterError; numpy integers count as integers."""
    grid = list(good)
    grid.insert(at % (len(grid) + 1), bad)
    for name, call in _grid_entry_points().items():
        with pytest.raises(ParameterError, match="tau must be a positive integer"):
            call(grid)
        expected = call(good)
        assert np.array_equal(call([np.int64(t) for t in good]), expected), name


def test_a_tau_past_p_costs_and_gives_what_tau_p_does(capsys):
    """A 6 x 6 matrix has the distances 0..5, so every entry point reads its band or sums to
    width min(tau, p): with banding, a tau past p gives the bits of tau = p, in under 1 MiB."""
    for name, call in _grid_entry_points().items():
        expected = np.asarray(call([6]), dtype=np.float64).tobytes()
        for tau in (12, 200, 10**15, 10**18):
            tracemalloc.start()
            try:
                values = np.asarray(call([tau]), dtype=np.float64).tobytes()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert values == expected, (name, tau)
            assert peak < 2**20, (name, tau, peak)
    argv = ["clt", "--model", "banded-uniform", "--k0", "3", "--p", "10", "--n", "10",
            "--reps", "3", "--scheme", "czz", "--tau"]
    for tau in (10**18, 10**20):
        assert main([*argv, str(tau)]) == 0, tau
    capsys.readouterr()


def test_logn_penalty_never_selects_larger_tau():
    """log(n) >= 2 penalizes wider bands at least as hard as c=2."""
    sigma = build_sigma(ArDecay(rho=0.8, p=12))
    for seed in range(5):
        ds = sample_dataset(sigma, 50, seed=seed)
        s = mle_cov(ds)
        t2 = sure_profile(s, sure_constants(50, 2.0), Banding(), range(1, 13)).selected_tau
        tl = sure_profile(
            s, sure_constants(50, math.log(50)), Banding(), range(1, 13)
        ).selected_tau
        assert tl <= t2
