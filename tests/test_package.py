"""The package's public surface: ``surecov.__all__`` and what ``import surecov`` loads."""

import os
import subprocess
import sys
from pathlib import Path

import surecov

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
