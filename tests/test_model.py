"""Covariance models, validation, and deterministic Gaussian sampling."""

import numpy as np
import pytest

from surecov.errors import DataError, NumericalError, ParameterError
from surecov.model import (
    ArDecay,
    BandedUniform,
    Dataset,
    Explicit,
    PolyDecay,
    _AR_BLOCK,
    _ar_rows,
    _rng_for_seed,
    build_sigma,
    cholesky_factor,
    model_bandwidth,
    sample_dataset,
)


def test_poly_decay_entries():
    sigma = build_sigma(PolyDecay(rho=0.6, alpha=0.5, p=4))
    assert sigma[0, 0] == 1.0
    assert sigma[0, 1] == 0.6
    # 0.6 * d**-(alpha+1)
    assert sigma[0, 2] == pytest.approx(0.21213203435596423, abs=1e-15)
    assert sigma[0, 3] == pytest.approx(0.11547005383792514, abs=1e-15)
    assert np.allclose(sigma, sigma.T)


def test_ar_decay_entries():
    sigma = build_sigma(ArDecay(rho=0.5, p=4))
    assert list(sigma[0]) == [1.0, 0.5, 0.25, 0.125]


def test_banded_uniform_diagonal_convention():
    # band covers |i-j| <= k0-1 and the increment hits the diagonal too
    sigma = build_sigma(BandedUniform(k0=2, offdiag=0.3, p=4))
    assert sigma[0, 0] == pytest.approx(1.3)
    assert sigma[0, 1] == pytest.approx(0.3)
    assert sigma[0, 2] == 0.0

    unit = build_sigma(BandedUniform(k0=2, offdiag=0.3, p=4, unit_diagonal=True))
    assert unit[0, 0] == 1.0
    assert unit[0, 1] == pytest.approx(0.3)


def test_model_bandwidth():
    assert model_bandwidth(BandedUniform(k0=5, offdiag=0.25, p=20)) == 5
    assert model_bandwidth(PolyDecay(rho=0.6, alpha=0.5, p=20)) is None
    assert model_bandwidth(ArDecay(rho=0.5, p=20)) is None
    diag_only = Explicit(matrix=np.eye(4))
    assert model_bandwidth(diag_only) == 1
    tri = Explicit(matrix=np.eye(4) + 0.1 * np.eye(4, k=1) + 0.1 * np.eye(4, k=-1))
    assert model_bandwidth(tri) == 2


def test_explicit_validation():
    with pytest.raises(ParameterError):
        Explicit(matrix=np.ones((2, 3)))
    with pytest.raises(ParameterError):
        Explicit(matrix=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ParameterError):
        Explicit(matrix=np.array([[-1.0, 0.0], [0.0, 1.0]]))  # bad diagonal


def test_parameter_validation():
    with pytest.raises(ParameterError):
        PolyDecay(rho=0.6, alpha=0.5, p=0)
    with pytest.raises(ParameterError):
        BandedUniform(k0=0, offdiag=0.25, p=10)
    with pytest.raises(ParameterError):
        ArDecay(rho=0.5, p=-3)


@pytest.mark.parametrize("rho", [1.0, -0.1, 1.5])
def test_poly_decay_rho_outside_zero_one_is_a_parameter_error(rho):
    with pytest.raises(ParameterError, match=f"PolyDecay requires 0 <= rho < 1, got {rho}"):
        PolyDecay(rho=rho, alpha=0.5, p=4)


@pytest.mark.parametrize("rho", [1.0, -1.0, 2.5])
def test_ar_decay_rho_of_modulus_one_or_more_is_a_parameter_error(rho):
    with pytest.raises(ParameterError, match=f"ArDecay requires \\|rho\\| < 1, got {rho}"):
        ArDecay(rho=rho, p=4)


def test_explicit_non_finite_entry_is_a_parameter_error():
    m = np.eye(3)
    m[0, 1] = m[1, 0] = np.inf  # symmetric, so the finiteness check is the one that fails
    with pytest.raises(ParameterError, match="Explicit matrix has non-finite entries"):
        Explicit(matrix=m)


def test_one_dimensional_dataset_rows_are_a_data_error():
    with pytest.raises(DataError, match=r"Dataset rows must be 2-dimensional, got shape \(5,\)"):
        Dataset(rows=np.ones(5))


def test_sampling_from_a_non_square_sigma_is_a_parameter_error():
    with pytest.raises(ParameterError, match=r"sigma must be square, got shape \(2, 3\)"):
        sample_dataset(np.ones((2, 3)), 5, seed=1)


@pytest.mark.parametrize("args, kwargs, message", [
    # each of these used to return rows or end in a raw TypeError or ValueError
    ((build_sigma(ArDecay(rho=0.5, p=10)), 5, 1),
     {"chol": cholesky_factor(build_sigma(ArDecay(rho=0.5, p=20)))},
     r"chol must have sigma's shape \(10, 10\), got \(20, 20\)"),
    ((np.zeros((0, 0)), 5, 1), {}, r"sigma must be at least 1 x 1, got shape \(0, 0\)"),
    ((np.eye(3), 5.5, 1), {}, "n must be an integer, got 5.5"),
    ((np.eye(3), 5, -1), {}, "seed must be an integer >= 0, got -1"),
    ((np.full((3, 3), np.nan), 5, 1), {}, "sigma has non-finite entries"),
], ids=["chol-of-another-p", "empty-sigma", "float-n", "negative-seed", "nan-sigma"])
def test_bad_sampling_input_is_a_parameter_error(args, kwargs, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        sample_dataset(*args, **kwargs)


@pytest.mark.parametrize("k0", [2.5, np.float64(3.0), True])
def test_banded_uniform_bandwidth_must_be_an_integer(k0):
    # 2.5 was accepted and then run as band int(2.5) = 2 by var_n
    with pytest.raises(ParameterError, match="requires an integer 1 <= k0 <= p"):
        BandedUniform(k0=k0, offdiag=0.2, p=100)


@pytest.mark.parametrize("make", [
    lambda: PolyDecay(rho=0.6, alpha=0.5, p=True),
    lambda: ArDecay(rho=0.5, p=True),
    lambda: BandedUniform(k0=1, offdiag=0.2, p=True),
])
def test_bool_dimension_is_a_parameter_error(make):
    # ArDecay(0.5, True) used to end in a bare TypeError from build_sigma
    with pytest.raises(ParameterError, match="dimension p must be a positive integer, got True"):
        make()


def test_cholesky_identity_and_jitter():
    assert np.allclose(cholesky_factor(np.eye(3)), np.eye(3))
    # exactly singular PSD: the one-shot jitter retry must succeed
    singular = np.ones((2, 2))
    chol = cholesky_factor(singular)
    assert np.allclose(chol @ chol.T, singular, atol=1e-4)
    # indefinite: jitter cannot rescue it
    with pytest.raises(NumericalError):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_sampling_deterministic_in_seed():
    sigma = build_sigma(ArDecay(rho=0.5, p=6))
    a = sample_dataset(sigma, 10, seed=123)
    b = sample_dataset(sigma, 10, seed=123)
    c = sample_dataset(sigma, 10, seed=124)
    assert np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.rows, c.rows)
    assert a.rows.shape == (10, 6)
    assert a.seed == 123


@pytest.mark.parametrize("p", [1, 7, _AR_BLOCK, _AR_BLOCK + 1, 500, 513])
@pytest.mark.parametrize("rho", [0.0, 0.5, -0.7, 0.95])
def test_ar_recurrence_is_the_cholesky_draw(rho, p):
    """The AR(1) recurrence maps normals to the rows ``z @ L.T`` gives, to
    1e-13 relative, whether or not p is a multiple of the block; at rho = 0
    it returns the normals themselves."""
    z = _rng_for_seed(p).standard_normal((9, p))
    expected = z @ cholesky_factor(build_sigma(ArDecay(rho=rho, p=p))).T
    rows = _ar_rows(z.copy(), rho, np.empty_like(z))
    assert np.max(np.abs(rows - expected)) <= 1e-13 * np.max(np.abs(expected))
    if rho == 0.0:
        assert np.array_equal(rows, z)


def test_sampling_matches_target_covariance():
    """Coordinate means vanish at the 1/sqrt(n) rate and the sample
    covariance approaches sigma."""
    sigma = build_sigma(BandedUniform(k0=2, offdiag=0.4, p=5))
    n = 100_000
    ds = sample_dataset(sigma, n, seed=7)
    se = np.sqrt(np.diagonal(sigma) / n)
    assert np.all(np.abs(ds.rows.mean(axis=0)) < 5 * se)
    emp = ds.rows.T @ ds.rows / n
    assert np.max(np.abs(emp - sigma)) < 0.03


def test_dataset_validation_and_immutability():
    with pytest.raises(DataError):
        Dataset(rows=np.zeros((2, 4)))
    with pytest.raises(DataError):
        sample_dataset(np.eye(3), 2, seed=0)
    ds = Dataset(rows=np.zeros((5, 2)))
    with pytest.raises(AttributeError):
        ds.seed = 1
