"""The package's public surface: ``surecov.__all__`` and what ``import surecov`` loads."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surecov
from surecov.errors import ParameterError

# every export the package had before its list was built from the modules' lists
EXPORTS = [
    "ArDecay", "BandedUniform", "Banding", "CoeffSet", "CovModel", "CriterionProfile",
    "CustomToeplitz", "CzzTaper", "DataError", "Dataset", "ExperimentConfig",
    "ExperimentReport", "Explicit", "NumericalError", "ParameterError", "PolyDecay",
    "ReplicationRecord", "RiskProfile", "SureConstants", "SurecovError",
    "VarApprox", "WeightScheme", "band_gram", "band_sums", "build_sigma", "cholesky_factor",
    "clt_experiment", "coeffs", "consistency_experiment", "default_tau_grid", "derive_seed",
    "exact_sure_variance", "isserlis_moment", "ks_statistic", "mle_cov",
    "model_bandwidth", "normal_cdf", "oracle_ratio_experiment", "profile_values",
    "rate_experiment", "risk_profile", "run_experiment", "run_replication", "sample_dataset",
    "sure_constants", "sure_eq2_reference", "sure_profile", "sure_profile_from_band",
    "table1_config", "table2_config", "taper", "var_n", "var_profile",
]


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(surecov.__all__) == len(set(surecov.__all__))
    missing = [name for name in surecov.__all__ if not hasattr(surecov, name)]
    assert missing == []


def test_all_keeps_every_earlier_export_and_adds_the_module_lists():
    assert set(EXPORTS) <= set(surecov.__all__)
    assert {"resolve_c", "TABLE1_VARIANTS", "VAR_EXACT_CAP"} <= set(surecov.__all__)


def test_all_is_the_union_of_the_module_lists():
    modules = (surecov.criterion, surecov.errors, surecov.estimate, surecov.model,
               surecov.sim, surecov.theory)
    assert sorted(surecov.__all__) == sorted(name for m in modules for name in m.__all__)


def test_import_leaves_the_cli_unloaded():
    src = str(Path(surecov.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, surecov; print('surecov.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


_K = surecov.sure_constants(10)
_B = surecov.Banding()


# each call used to return numbers or end in a plain ValueError, TypeError, IndexError or
# AttributeError
@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: surecov.band_sums(np.arange(12.0).reshape(3, 4)), "sigma", id="band_sums-3x4"),
    pytest.param(lambda: surecov.sure_profile(np.ones(5), _K, _B, (1, 2)), "sigma_tilde",
                 id="sure_profile-1d"),
    pytest.param(lambda: surecov.sure_profile(np.ones((3, 4)), _K, _B, (1, 2)), "sigma_tilde",
                 id="sure_profile-3x4"),
    pytest.param(lambda: surecov.sure_eq2_reference(np.ones((3, 4)), _K, _B, 2), "sigma_tilde",
                 id="sure_eq2_reference-3x4"),
    pytest.param(lambda: surecov.risk_profile(np.ones((3, 4)), 10, _B), "sigma", id="risk_profile-3x4"),
    pytest.param(lambda: surecov.risk_profile(np.eye(20), 10.5, _B), "n", id="risk_profile-float-n"),
    pytest.param(lambda: surecov.var_n(np.ones((3, 4)), 10, _B, 2), "sigma", id="var_n-3x4"),
    pytest.param(lambda: surecov.var_profile(np.ones((3, 4)), 10, _B, (1, 2)), "sigma",
                 id="var_profile-3x4"),
    pytest.param(lambda: surecov.taper(np.ones((2, 3)), _B, 2), "sigma_tilde", id="taper-2x3"),
    pytest.param(lambda: surecov.exact_sure_variance(np.ones((2, 3)), 10, _B, 1), "sigma_small",
                 id="exact_sure_variance-2x3"),
    pytest.param(lambda: surecov.isserlis_moment(np.ones(3), [0, 1]), "sigma_small",
                 id="isserlis_moment-1d"),
    pytest.param(lambda: surecov.cholesky_factor(np.ones((3, 4))), "sigma", id="cholesky_factor-3x4"),
    pytest.param(lambda: surecov.cholesky_factor(np.full((3, 3), np.nan)), "sigma",
                 id="cholesky_factor-nan"),
    pytest.param(lambda: surecov.sample_dataset(np.eye(2), 5, 0, chol=np.full((2, 2), np.nan)), "chol",
                 id="sample_dataset-nan-chol"),
    pytest.param(lambda: surecov.mle_cov(np.ones((5, 3))), "data", id="mle_cov-ndarray"),
    # the shapes of test_band_gram_checks_its_width_as_a_tau: band_gram's dense, then blocked branch
    pytest.param(lambda: surecov.band_gram(np.ones((5, 6)), 2), "data", id="band_gram-dense-ndarray"),
    pytest.param(lambda: surecov.band_gram(np.ones((5, 600)), 2), "data", id="band_gram-blocked-ndarray"),
    pytest.param(lambda: surecov.band_gram(surecov.Dataset(rows=np.ones((10, 5))), 10**19), "dmax",
                 id="band_gram-dmax-past-memory"),
    pytest.param(lambda: surecov.profile_values(np.ones((5, 2)), np.ones((5, 2)), _K, _B, (1, 2)), "s1",
                 id="profile_values-2d"),
    pytest.param(lambda: surecov.profile_values(np.ones(5), np.ones(3), _K, _B, (1, 2)), "s1",
                 id="profile_values-5-and-3"),
    pytest.param(lambda: surecov.band_sums([[1.0, 2.0], [3.0]]), "sigma", id="band_sums-ragged"),
    pytest.param(lambda: surecov.band_sums([["a", "b"], ["c", "d"]]), "sigma", id="band_sums-strings"),
    pytest.param(lambda: surecov.sure_profile_from_band(np.ones(5), 1.0, _K, _B, (1,)), "band",
                 id="sure_profile_from_band-1d"),
    pytest.param(lambda: surecov.default_tau_grid(2.5, 10), "p", id="default_tau_grid-float-p"),
    pytest.param(lambda: surecov.build_sigma(np.eye(3)), "model", id="build_sigma-ndarray"),
    pytest.param(lambda: surecov.model_bandwidth(np.eye(3)), "model", id="model_bandwidth-ndarray"),
])
def test_bad_input_is_a_typed_error_naming_the_argument(call, name):
    with pytest.raises(ParameterError) as info:
        call()
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)
