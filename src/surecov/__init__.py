"""SURE-tuned banding and tapering of large covariance matrices.

Pick the banding/tapering cutoff of a sample covariance matrix by minimizing
an unbiased estimate of its Frobenius risk.  The penalty multiplier ``c``
interpolates between AIC-like (``c = 2``) and BIC-like (``c = log n``)
behavior: the former tracks the minimal-risk cutoff, the latter recovers an
exactly banded model's true bandwidth.

The package also ships the exact finite-sample risk and variance formulas for
Gaussian data and a reproducible Monte Carlo harness built on them.
"""

from .criterion import (
    CriterionProfile,
    SureConstants,
    band_sums,
    default_tau_grid,
    profile_values,
    sure_constants,
    sure_eq2_reference,
    sure_profile,
    sure_profile_from_band,
)
from .errors import DataError, NumericalError, ParameterError, SurecovError
from .estimate import (
    Banding,
    CustomToeplitz,
    CzzTaper,
    TaperedEstimate,
    WeightScheme,
    band_gram,
    frob_sq_dist,
    mle_cov,
    taper,
    unbiased_cov,
)
from .model import (
    ArDecay,
    BandedUniform,
    CovModel,
    Dataset,
    Explicit,
    PolyDecay,
    build_sigma,
    cholesky_factor,
    model_bandwidth,
    sample_dataset,
)
from .sim import (
    ExperimentConfig,
    ExperimentReport,
    ReplicationRecord,
    clt_experiment,
    consistency_experiment,
    derive_seed,
    ks_statistic,
    normal_cdf,
    oracle_ratio_experiment,
    rate_experiment,
    run_experiment,
    run_replication,
    table1_config,
    table2_config,
)
from .theory import (
    CoeffSet,
    RiskProfile,
    VarApprox,
    coeffs,
    exact_sure_variance,
    isserlis_moment,
    risk_profile,
    var_n,
    var_profile,
)

__version__ = "0.1.0"

__all__ = [
    "ArDecay",
    "BandedUniform",
    "Banding",
    "CoeffSet",
    "CovModel",
    "CriterionProfile",
    "CustomToeplitz",
    "CzzTaper",
    "DataError",
    "Dataset",
    "ExperimentConfig",
    "ExperimentReport",
    "Explicit",
    "NumericalError",
    "ParameterError",
    "PolyDecay",
    "ReplicationRecord",
    "RiskProfile",
    "SureConstants",
    "SurecovError",
    "TaperedEstimate",
    "VarApprox",
    "WeightScheme",
    "band_gram",
    "band_sums",
    "build_sigma",
    "cholesky_factor",
    "clt_experiment",
    "coeffs",
    "consistency_experiment",
    "default_tau_grid",
    "derive_seed",
    "exact_sure_variance",
    "frob_sq_dist",
    "isserlis_moment",
    "ks_statistic",
    "mle_cov",
    "model_bandwidth",
    "normal_cdf",
    "oracle_ratio_experiment",
    "profile_values",
    "rate_experiment",
    "risk_profile",
    "run_experiment",
    "run_replication",
    "sample_dataset",
    "sure_constants",
    "sure_eq2_reference",
    "sure_profile",
    "sure_profile_from_band",
    "table1_config",
    "taper",
    "table2_config",
    "unbiased_cov",
    "var_n",
    "var_profile",
]
