"""End-to-end CLI behavior: parsing, files, exit codes, round-trips."""

import json
import math

import numpy as np
import pytest

from surecov.cli import load_config_file, main, read_matrix_csv
from surecov.criterion import default_tau_grid, sure_constants, sure_profile
from surecov.errors import DataError, ParameterError
from surecov.estimate import Banding, mle_cov
from surecov.model import ArDecay, BandedUniform, Dataset, build_sigma, sample_dataset


def _write_csv(path, rows, header=None):
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


@pytest.fixture()
def data_csv(tmp_path):
    sigma = build_sigma(BandedUniform(k0=3, offdiag=0.3, p=12))
    ds = sample_dataset(sigma, 50, seed=21)
    path = tmp_path / "data.csv"
    _write_csv(path, ds.rows)
    return path, ds


def test_read_matrix_csv_header_autodetect(tmp_path):
    rows = [[1.5, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]
    plain = tmp_path / "plain.csv"
    headed = tmp_path / "headed.csv"
    _write_csv(plain, rows)
    _write_csv(headed, rows, header=["alpha", "beta"])
    assert np.array_equal(read_matrix_csv(str(plain)), read_matrix_csv(str(headed)))


def test_read_matrix_csv_errors(tmp_path):
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("1,2\n3,oops\n5,6\n7,8\n")
    with pytest.raises(DataError, match=r"bad\.csv:2.*column 2"):
        read_matrix_csv(str(bad_cell))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3,4,9\n5,6\n7,8\n")
    with pytest.raises(DataError, match=r"ragged\.csv:2.*expected 2 fields"):
        read_matrix_csv(str(ragged))

    short = tmp_path / "short.csv"
    short.write_text("1,2\n3,4\n5,6\n")
    with pytest.raises(DataError, match="at least 4"):
        read_matrix_csv(str(short))

    with pytest.raises(DataError):
        read_matrix_csv(str(tmp_path / "missing.csv"))


@pytest.mark.parametrize("cell, code", [("nan", 3), ("inf", 3), ("1e200", 4)])
def test_select_non_finite_or_overflowing_data(tmp_path, capsys, cell, code):
    rng = np.random.default_rng(4)
    lines = [",".join(repr(float(v)) for v in row) for row in rng.normal(size=(8, 3))]
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["select", "--data", str(path)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")  # no warnings, no traceback
    if code == 3:
        assert f"data.csv:3:3: non-finite value '{cell}'" in err[0]


@pytest.mark.parametrize("tau_max", ["0", "-5"])
def test_select_rejects_tau_max_below_one(data_csv, capsys, tau_max):
    path, _ = data_csv
    assert main(["select", "--data", str(path), "--tau-max", tau_max]) == 2
    assert "tau_max must be >= 1" in capsys.readouterr().err


def test_select_round_trip_matches_in_process(data_csv, tmp_path, capsys):
    path, ds = data_csv
    out = tmp_path / "report.json"
    code = main(["select", "--data", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())

    s_tilde = mle_cov(Dataset(rows=ds.rows))
    profile = sure_profile(
        s_tilde, sure_constants(50, 2.0), Banding(), default_tau_grid(12, 50)
    )
    assert report["results"]["selected_tau"] == profile.selected_tau
    assert report["results"]["min_sure"] == pytest.approx(
        profile.value_at(profile.selected_tau)
    )
    assert report["config"]["seed"] is None


def test_select_writes_profile_and_estimate(data_csv, tmp_path, capsys):
    path, ds = data_csv
    prof = tmp_path / "prof.csv"
    est = tmp_path / "est.csv"
    code = main([
        "select", "--data", str(path), "--c", "logn",
        "--profile-out", str(prof), "--estimate-out", str(est), "--format", "band",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    tau_hat = report["results"]["selected_tau"]

    lines = prof.read_text().splitlines()
    assert lines[0] == "tau,sure_value"
    taus = [int(line.split(",")[0]) for line in lines[1:]]
    assert taus == list(range(1, 13))
    # profile values round-trip through repr exactly
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    best = min(range(len(vals)), key=lambda k: (vals[k], taus[k]))
    assert taus[best] == tau_hat

    triplets = [line.split(",") for line in est.read_text().splitlines()]
    assert all(len(t) == 3 for t in triplets)
    ijs = [(int(a), int(b)) for a, b, _ in triplets]
    assert all(1 <= i <= j < i + tau_hat for i, j in ijs)  # upper triangle, in band
    expected_count = sum(min(tau_hat, 12 - i) for i in range(12))
    assert len(triplets) == expected_count


def test_select_dense_estimate(data_csv, tmp_path, capsys):
    path, _ = data_csv
    est = tmp_path / "dense.csv"
    code = main(["select", "--data", str(path), "--estimate-out", str(est)])
    assert code == 0
    mat = np.array([[float(v) for v in line.split(",")]
                    for line in est.read_text().splitlines()])
    assert mat.shape == (12, 12)
    assert np.array_equal(mat, mat.T)


def test_exit_codes(tmp_path, capsys):
    # usage errors -> 2
    assert main(["simulate", "--replications", "0", "--model", "ar-decay",
                 "--rho", "0.5", "--p", "8", "--n", "20"]) == 2
    assert main(["simulate"]) == 2  # no preset, no model
    assert main(["risk", "--model", "poly-decay", "--p", "8", "--n", "20"]) == 2  # no alpha
    # data errors -> 3
    assert main(["select", "--data", str(tmp_path / "nope.csv")]) == 3
    short = tmp_path / "short.csv"
    short.write_text("1,2\n3,4\n5,6\n")
    assert main(["select", "--data", str(short)]) == 3
    # numerical failure -> 4: a band matrix far from positive definite
    assert main(["simulate", "--model", "banded-uniform", "--k0", "2",
                 "--offdiag", "0.9", "--unit-diagonal", "--p", "30", "--n", "20",
                 "--replications", "2"]) == 4
    capsys.readouterr()


def test_argparse_usage_error_returns_2(capsys):
    assert main(["select", "--scheme", "bogus"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["select", "--help"]) == 0
    capsys.readouterr()


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "\n"
        "model = ar-decay\n"
        "rho = 0.5\n"
        "p = 10\n"
        "n = 30\n"
        "replications = 3\n"
        "c = 2,logn\n"
        "seed = 11\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["replications"] == 3
    assert report["config"]["base_seed"] == 11
    assert sorted(report["results"]["per_c"]) == ["2", "logn"]

    # explicit flag beats the file
    assert main(["simulate", "--config", str(cfg), "--replications", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["replications"] == 5


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = ar-decay\nwibble = 3\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "wibble" in capsys.readouterr().err


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ParameterError):
        load_config_file(str(tmp_path / "absent.cfg"))
    bad = tmp_path / "noeq.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ParameterError, match="noeq.cfg:1"):
        load_config_file(str(bad))


def test_risk_command_output(capsys):
    code = main(["risk", "--model", "banded-uniform", "--k0", "3", "--offdiag", "0.25",
                 "--p", "30", "--n", "250", "--tau-max", "8"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "tau,risk"
    assert lines[-1] == "# oracle_tau = 3"
    values = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:-1]}
    assert min(values, key=values.get) == 3


def test_risk_identity_small_values(capsys):
    # identity model via explicit banded-uniform with zero off-diagonal
    code = main(["risk", "--model", "banded-uniform", "--k0", "1", "--offdiag", "0.0",
                 "--unit-diagonal", "--p", "3", "--n", "5", "--tau-max", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    parsed = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:-1]}
    assert parsed[1] == pytest.approx(1.08)
    assert parsed[2] == pytest.approx(1.72)
    assert lines[-1] == "# oracle_tau = 1"


def test_risk_with_var_infeasible_p(capsys):
    code = main(["risk", "--model", "ar-decay", "--rho", "0.5", "--p", "80",
                 "--n", "50", "--tau-max", "2", "--with-var"])
    assert code == 2
    assert "banded-truncated" in capsys.readouterr().err


def test_simulate_csv_format(capsys):
    code = main(["simulate", "--model", "ar-decay", "--rho", "0.5", "--p", "10",
                 "--n", "30", "--replications", "3", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c,mean_loss,se_loss,mean_selected_tau"
    assert len(lines) == 2


def test_clt_command(capsys):
    code = main(["clt", "--model", "banded-uniform", "--k0", "2", "--offdiag", "0.3",
                 "--p", "10", "--n", "24", "--tau", "2", "--reps", "100", "--seed", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["var_method"] == "exact"
    assert report["results"]["ks_distance"] < 0.3


def test_table_presets_via_cli(capsys):
    code = main(["table1", "model2-r05", "--fast", "--reps", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["model"]["variant"] == "ar-decay"
    assert report["config"]["replications"] == 3

    code = main(["table2", "--fast", "--reps", "3", "--p", "40"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["k0"] == 5


def test_logn_c_resolution(data_csv, capsys):
    path, _ = data_csv
    assert main(["select", "--data", str(path), "--c", "logn"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["c"] == "logn"
    assert main(["select", "--data", str(path), "--c", "2.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["c"] == 2.5
