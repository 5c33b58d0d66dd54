"""End-to-end CLI behavior: parsing, files, exit codes, round-trips."""

import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import surecov
from surecov.cli import (
    COMMANDS,
    _read_plain_csv,
    build_parser,
    load_config_file,
    main,
    parse_args,
    read_matrix_csv,
    write_estimate,
)
from surecov.criterion import default_tau_grid, sure_constants, sure_profile
from surecov.errors import DataError, ParameterError
from surecov.estimate import Banding, CzzTaper, mle_cov, taper
from surecov.model import ArDecay, BandedUniform, Dataset, build_sigma, sample_dataset
from surecov.theory import VAR_EXACT_CAP, risk_profile, var_profile


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

    blank = tmp_path / "blank.csv"
    blank.write_text("\n   \n , \n\n")
    with pytest.raises(DataError, match=r"blank\.csv: no data rows"):
        read_matrix_csv(str(blank))


def test_csv_errors_name_lines_not_records(tmp_path):
    # the quoted header cell spans lines 1-2, so the fifth line is the fourth record
    path = tmp_path / "ml.csv"
    path.write_text('"a\nb",c\n1,2\n3,4\n5,x\n')
    with pytest.raises(DataError, match=r"ml\.csv:5: non-numeric value 'x' in column 2"):
        read_matrix_csv(str(path))


def test_non_utf8_data_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("a,b\n1,2\n3,4\n5,6\n7,caf\xe9\n".encode("latin-1"))
    assert main(["select", "--data", str(path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}:5: not UTF-8 text (byte 0xe9)"]


def _read_outcome(path):
    """``read_matrix_csv``'s array, or its ``DataError`` message."""
    try:
        return read_matrix_csv(str(path))
    except DataError as exc:
        return str(exc)


def _fail(*args, **kwargs):
    raise ValueError("np.loadtxt disabled")


def _checked_outcome(path):
    """The outcome with numpy's parser failing, so the checked parser reads the file."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", _fail)
        return _read_outcome(path)


# cells on which ``float`` and numpy's parser might part: non-ASCII digits and
# spaces, underscores, quotes, NUL, the bytes 0x1c-0x1f (spaces to numpy only),
# a '#', and values that overflow or are not finite
_EDGE_CELLS = [
    "1_000", "١٢", "١.٥", "０.５", "0x10", '"1"', "1d5", "", "1.5\x00", "\xa01", " 1.5",
    "1.5\t", "+.5", "1e500", "nan", "inf", "-0.0", "1\x1c", "\x1f2", "1.5#3", '"1,5"', "  ",
]
_PLAIN_CELLS = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-99, 99).map(str))
_HEADERS = [None, "names", "quoted-comma", "hash", "bom", "underscore-non-ascii"]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fast_csv_path_gives_the_checked_parsers_bits_or_error(tmp_path, data):
    width = data.draw(st.integers(1, 3), label="width")
    rows = data.draw(st.lists(st.lists(_PLAIN_CELLS, min_size=width, max_size=width),
                              min_size=3, max_size=7), label="rows")
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]), label="edge cells")):
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        row[data.draw(st.integers(0, width - 1))] = data.draw(st.sampled_from(_EDGE_CELLS))
    if data.draw(st.integers(0, 3), label="ragged") == 0:
        rows[-1] = rows[-1] + ["1"] if data.draw(st.booleans()) else rows[-1][:-1]
    lines = [",".join(row) for row in rows]
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]), label="blank lines")):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "  ", ",,", "\t", ","])))
    header = data.draw(st.sampled_from(_HEADERS), label="header")
    names = [f"x{j}" for j in range(width)]
    if header == "quoted-comma":  # one field for two names: the width error must fire
        names = ['"a,b"'] + names[2:]
    elif header == "hash":
        names[0] = "x#0"
    elif header == "bom":
        names[0] = "\ufeff" + names[0]
    elif header == "underscore-non-ascii":  # bytes the scan of later lines refuses
        names[0] = "\u03b1_0"
    if header is not None:
        lines.insert(0, ",".join(names))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)), label="line ends")
    text = "".join(line + end for line, end in zip(lines, ends))
    if data.draw(st.booleans(), label="no final line end"):
        text = text.rstrip("\r\n")
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))

    expected = _checked_outcome(path)
    fast = _read_plain_csv(path)
    event("numpy parser" if fast is not None else "checked parser")
    if fast is not None:
        assert isinstance(expected, np.ndarray)
    _assert_same_outcome(_read_outcome(path), expected)


def _assert_same_outcome(got, expected):
    """Equal messages, or float64 arrays equal to the bit."""
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == expected.shape and np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("header", ["", "a,b,c\n", "x_1,\u00e9,c\n"])
@pytest.mark.parametrize("row", [0, 4])
@pytest.mark.parametrize("cell", _EDGE_CELLS)
def test_each_edge_cell_gives_the_checked_parsers_outcome(tmp_path, cell, row, header):
    rows = [["1.5", "-2", "3e-3"] for _ in range(5)]
    rows[row][1] = cell
    path = tmp_path / "edge.csv"
    path.write_bytes((header + "".join(",".join(r) + "\n" for r in rows)).encode("utf-8"))
    _assert_same_outcome(_read_outcome(path), _checked_outcome(path))


@pytest.mark.parametrize("line", [1, 2])
@pytest.mark.parametrize("pad", [-1, 0, 1])
@pytest.mark.parametrize("limit", [10, None, sys.maxsize])
def test_csv_field_size_limit_holds_on_both_paths(tmp_path, limit, pad, line):
    # a padded cell one short of, at and one over the limit (sys.maxsize: 200 000),
    # in the header or in the first data row
    default = csv.field_size_limit()
    limit = limit or default
    size = min(limit, 200_000) + pad
    lines = ["a,b\n", "1,2\n"] + ["3,4\n"] * 4
    lines[line - 1] = " " * (size - 1) + lines[line - 1]
    path = tmp_path / "long.csv"
    path.write_text("".join(lines))
    csv.field_size_limit(limit)
    try:
        expected, got = _checked_outcome(path), _read_outcome(path)
    finally:
        csv.field_size_limit(default)
    _assert_same_outcome(got, expected)
    if size > limit:
        assert got == f"{path}:{line}: field larger than field limit ({limit})"


def test_lines_longer_than_the_field_size_limit_are_read_by_numpy(tmp_path):
    rows = np.random.default_rng(3).normal(size=(4, 8000))
    path = tmp_path / "wide.csv"
    _write_csv(path, rows)
    assert path.stat().st_size > 4 * csv.field_size_limit()
    data = _read_plain_csv(path)
    assert data is not None and data.tobytes() == _checked_outcome(path).tobytes()


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("header", [None, "a,b", "x_1,\u00e9"])
def test_plain_csv_is_read_by_numpy(tmp_path, end, header):
    rows = ["1.5,-2", "3e-3,4", " 5 ,6\t", "7,-0.0"]
    path = tmp_path / "plain.csv"
    path.write_text(end.join(([header] if header else []) + rows) + end, newline="")
    data = _read_plain_csv(path)
    assert data is not None and data.tobytes() == _checked_outcome(path).tobytes()


@pytest.mark.parametrize("text", [
    "\n1,2\n3,4\n5,6\n7,8\n",            # blank first line: its width is 1
    '"a",b\n1,2\n3,4\n5,6\n7,8\n',       # a quote anywhere
    'a,b\n1,2\n3,4\n5,6\n7,"8"\n',
    "a,b\n1,2\n3,4\n5,6\n7,8\x1c\n",     # a byte numpy strips and float() rejects
    "a,b\n1,2\n3,4\n5,6\n",              # fewer than 4 rows
    "a,b,c\n1,2\n3,4\n5,6\n7,8\n",       # the header's width differs
    "a,b\n",                             # header only: loadtxt warns
    "a,b\n1,2\n3,4\n5,6\n7,inf\n",       # not finite
    "a,b\n1,2\n3,4\n5,6\n7,1_0\n",       # float() reads 1_0, numpy does not
    "a,b\n1,2\n3,4\n5,6\n7,8\n,\r\n",     # a blank record
    "a,b\n1,2\n3,4\n5,6\n7,8#9\n",       # a '#' is not a comment
    "caf\xe9,b\n1,2\n3,4\n5,6\n7,8\n",    # not UTF-8 (written as latin-1)
])
def test_unplain_csv_is_left_to_the_checked_parser(tmp_path, text):
    path = tmp_path / "other.csv"
    path.write_bytes(text.encode("latin-1"))
    assert _read_plain_csv(path) is None


def test_quoted_first_data_row_is_not_taken_for_a_header(tmp_path):
    # float('"1"') fails, so without the first line's quote check the fast path
    # would skip that row as a header and return the 4 rows after it
    path = tmp_path / "quoted.csv"
    path.write_text('"1",2\n3,4\n5,6\n7,8\n9,10\n', encoding="utf-8")
    assert read_matrix_csv(path).tolist() == [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]


def _unexpected(*args, **kwargs):
    raise AssertionError("np.loadtxt ran")


@pytest.mark.parametrize("last", [
    '7,"8"', "7,1_0", "7,\u0661\u0662", "7,\xa08", "7,8\x1f", ",", "7,", "7,8,\r",
])
def test_late_unplain_rows_skip_numpys_parse(tmp_path, monkeypatch, last):
    # the byte scan finds them, so numpy parses no row before the checked parser reads
    path = tmp_path / "late.csv"
    path.write_text("x_1,\u00e9\n" + "1,2\n" * 50 + f"{last}\n", encoding="utf-8")
    monkeypatch.setattr(np, "loadtxt", _unexpected)
    assert _read_plain_csv(path) is None


@pytest.mark.parametrize("fmt", ["band", "dense"])
def test_select_writes_the_same_bytes_on_both_csv_paths(tmp_path, capsys, monkeypatch, fmt):
    path = tmp_path / "data.csv"
    rows = sample_dataset(build_sigma(ArDecay(rho=0.6, p=15)), 40, seed=12).rows
    _write_csv(path, rows, header=[f"x{j}" for j in range(15)])
    assert _read_plain_csv(path) is not None  # the first run takes numpy's parser

    def run(tag):
        outs = {name: tmp_path / f"{tag}-{name}" for name in ("profile", "estimate", "report")}
        assert main(["select", "--data", str(path), "--c", "logn", "--format", fmt,
                     "--profile-out", str(outs["profile"]), "--estimate-out",
                     str(outs["estimate"]), "--out", str(outs["report"])]) == 0
        return {name: out.read_bytes() for name, out in outs.items()}

    fast = run("fast")
    monkeypatch.setattr(np, "loadtxt", _fail)
    assert run("checked") == fast
    assert capsys.readouterr().err == ""


def test_header_only_csv_is_one_data_error_without_warnings(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("a,b,c\n")
    src = Path(surecov.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "default"}
    proc = subprocess.run([sys.executable, "-m", "surecov.cli", "select", "--data", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [f"error: {path}: need at least 4 observation rows, got 0"]


# Runs every command in-process, its stdout captured, and prints {name: [exit code, stdout]}.
_RUN_COMMANDS = """
import contextlib, io, json, sys
from surecov.cli import main
done = {}
for name, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        done[name] = [main(argv), out.getvalue()]
print(json.dumps(done))
"""


def _without_meta(stdout: str):
    """A JSON report without its ``meta`` (wall time), else the text as it is."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    report.pop("meta", None)
    return report


def test_every_command_gives_the_same_bytes_under_any_openblas_thread_count(tmp_path):
    """Each command, run under OPENBLAS_NUM_THREADS=1 and =2, prints the same stdout (but for
    ``meta``) and writes the same files.  ``select`` on the 40 x 150 CSV (band_gram's dense
    branch) used to differ in the last bit at most taus; the 20 x 700 CSV takes the blocked one."""
    for name, seed, shape in (("dense", 2, (40, 150)), ("blocked", 0, (20, 700))):
        _write_csv(tmp_path / f"{name}.csv", np.random.default_rng(seed).standard_normal(shape))
    model = ["--model", "poly-decay", "--alpha", "0.5", "--p", "60", "--n", "40"]
    runs = {
        name: ["select", "--data", str(tmp_path / f"{name}.csv"), "--profile-out",
               f"{name}-profile.csv", "--estimate-out", f"{name}-estimate.csv"]
        for name in ("dense", "blocked")
    }
    runs |= {
        "simulate": ["simulate", *model, "--c", "2,logn", "--reps", "3", "--threads", "2"],
        "risk": ["risk", *model, "--with-var", "--out", "risk.csv"],
        "clt": ["clt", *model, "--tau", "4", "--reps", "20"],
        "table1": ["table1", "model1-a05", "--fast", "--reps", "2", "--format", "csv"],
        "table2": ["table2", "--fast", "--reps", "2"],
    }
    assert {argv[0] for argv in runs.values()} == set(COMMANDS)
    src = Path(surecov.__file__).resolve().parents[1]
    seen = []
    for count in ("1", "2"):
        cwd = tmp_path / f"threads-{count}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": count}
        proc = subprocess.run([sys.executable, "-c", _RUN_COMMANDS, json.dumps(runs)], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=300, check=True)
        done = json.loads(proc.stdout)
        assert all(code == 0 for code, _ in done.values()), done
        files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
        seen.append(({name: _without_meta(out) for name, (_, out) in done.items()}, files))
    (out1, files1), (out2, files2) = seen
    assert len(files1) == 5 and files1.keys() == files2.keys()
    for name in runs:
        assert out1[name] == out2[name], name
    for name in files1:
        assert files1[name] == files2[name], name


@pytest.mark.parametrize("argv, flag", [
    (["select", "--data", "absent.csv"], "--out"),
    (["select", "--data", "absent.csv"], "--profile-out"),
    (["select", "--data", "absent.csv"], "--estimate-out"),
    (["simulate", "--model", "ar-decay", "--rho", "0.5", "--p", "8", "--n", "20"], "--out"),
    (["risk", "--model", "ar-decay", "--rho", "0.5", "--p", "8", "--n", "20"], "--out"),
    (["clt", "--model", "ar-decay", "--rho", "0.5", "--p", "8", "--n", "20", "--tau", "2"],
     "--out"),
])
def test_output_in_missing_directory_exits_2_before_work(tmp_path, capsys, argv, flag):
    # the data file does not exist either: the output check comes first
    target = tmp_path / "no-such-dir" / "out.txt"
    assert main(argv + [flag, str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {flag} {target}: directory {target.parent} does not exist"]


def test_unwritable_output_is_a_usage_error(data_csv, tmp_path, capsys):
    # the directory exists, so only the write itself fails
    target = tmp_path / ("x" * 300)
    assert main(["select", "--data", str(data_csv[0]), "--profile-out", str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {target}: File name too long"]


def test_other_os_errors_are_not_usage_errors(data_csv, monkeypatch):
    def fail(*args):
        raise OSError("no resources")

    monkeypatch.setattr("surecov.cli.band_gram", fail)
    with pytest.raises(OSError, match="no resources"):
        main(["select", "--data", str(data_csv[0])])


def test_config_value_error_names_the_file(data_csv, tmp_path, capsys):
    cfg = tmp_path / "k.cfg"
    cfg.write_text("format = xml\n")
    assert main(["select", "--data", str(data_csv[0]), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "usage:" not in err[0]
    assert err[0].startswith(f"error: {cfg}: argument --format: invalid choice: 'xml'")


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


_RISK = ["risk", "--model", "ar-decay", "--rho", "0.5", "--p", "6", "--n", "20"]
_SIMULATE = ["simulate", "--model", "ar-decay", "--rho", "0.5", "--p", "6", "--n", "20",
             "--replications", "2"]
_CLT = ["clt", "--model", "ar-decay", "--rho", "0.5", "--p", "6", "--n", "20", "--tau", "2",
        "--reps", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        *(base + ["--c", c] for base in (_RISK, _SIMULATE, _CLT) for c in ("nan", "inf")),
        _RISK + ["--c", "1"],
        ["risk", "--model", "poly-decay", "--p", "6", "--n", "20", "--alpha", "nan"],
        *(["risk", "--model", "banded-uniform", "--p", "6", "--n", "20", "--offdiag", v]
          for v in ("nan", "inf")),
        ["select", "--c", "nan"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_non_finite_or_small_c_and_model_parameters_exit_2(data_csv, capsys, argv):
    if argv[0] == "select":
        argv = argv + ["--data", str(data_csv[0])]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


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
        profile.values[profile.tau_grid.index(profile.selected_tau)]
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

    # every triplet is the tapered estimate's entry; these data select tau 5
    # (banding) and 6 (czz), so czz's fractional weights are written too
    wide = tmp_path / "ar.csv"
    rows = sample_dataset(build_sigma(ArDecay(rho=0.6, p=12)), 100, seed=5).rows
    _write_csv(wide, rows)
    s_tilde = mle_cov(Dataset(rows=rows))
    for scheme in (Banding(), CzzTaper()):
        assert main(["select", "--data", str(wide), "--scheme", scheme.name,
                     "--estimate-out", str(est), "--format", "band"]) == 0
        tau_hat = json.loads(capsys.readouterr().out)["results"]["selected_tau"]
        assert tau_hat >= 5
        expected = taper(s_tilde, scheme, tau_hat)
        triplets = [line.split(",") for line in est.read_text().splitlines()]
        assert len(triplets) == sum(min(tau_hat, 12 - i) for i in range(12))
        for i, j, value in triplets:
            assert value == repr(float(expected[int(i) - 1, int(j) - 1]))


def test_band_estimate_makes_no_p_by_p_array(tmp_path):
    p = 2000
    band = np.random.default_rng(3).normal(size=(p, 8))
    tracemalloc.start()
    try:
        write_estimate(str(tmp_path / "band.csv"), band, CzzTaper(), 8, "band")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * p * 8 / 8  # an eighth of one p x p float64 array


def test_band_select_makes_no_p_by_p_array(tmp_path, capsys):
    n, p = 30, 4000
    path = tmp_path / "wide.csv"
    rows = sample_dataset(build_sigma(BandedUniform(k0=3, offdiag=0.3, p=p)), n, seed=8).rows
    _write_csv(path, rows, header=[f"x{j}" for j in range(p)])
    argv = ["select", "--data", str(path), "--c", "logn", "--format", "band",
            "--profile-out", str(tmp_path / "prof.csv"),
            "--estimate-out", str(tmp_path / "est.csv")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < p * p * 8 / 4  # a quarter of one p x p float64 array
    assert json.loads(capsys.readouterr().out)["results"]["selected_tau"] >= 1


def test_select_dense_estimate(data_csv, tmp_path, capsys):
    path, _ = data_csv
    est = tmp_path / "dense.csv"
    code = main(["select", "--data", str(path), "--estimate-out", str(est)])
    assert code == 0
    mat = np.array([[float(v) for v in line.split(",")]
                    for line in est.read_text().splitlines()])
    assert mat.shape == (12, 12)
    assert np.array_equal(mat, mat.T)


@pytest.mark.parametrize("scheme", [Banding(), CzzTaper()])
@pytest.mark.parametrize("n, p", [(30, 12), (100, 12), (40, 60)])
def test_dense_select_is_the_tapered_mle(tmp_path, capsys, scheme, n, p):
    path, est = tmp_path / "data.csv", tmp_path / "dense.csv"
    rows = sample_dataset(build_sigma(ArDecay(rho=0.7, p=p)), n, seed=n + p).rows
    _write_csv(path, rows)
    assert main(["select", "--data", str(path), "--scheme", scheme.name,
                 "--estimate-out", str(est)]) == 0
    tau_hat = json.loads(capsys.readouterr().out)["results"]["selected_tau"]
    s_tilde = mle_cov(Dataset(rows=rows))
    consts = sure_constants(n, 2.0)
    assert tau_hat == sure_profile(s_tilde, consts, scheme, default_tau_grid(p, n)).selected_tau

    cells = [line.split(",") for line in est.read_text().splitlines()]
    got = np.array([[float(v) for v in row] for row in cells])
    expected = taper(s_tilde, scheme, tau_hat)
    assert got.shape == (p, p)
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    dist = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    assert all(cells[i][j] == "0.0" for i, j in zip(*np.nonzero(dist >= tau_hat)))


def test_dense_select_makes_no_p_by_p_array(tmp_path, capsys):
    n, p = 30, 4000
    path, est = tmp_path / "wide.csv", tmp_path / "dense.csv"
    rows = sample_dataset(build_sigma(BandedUniform(k0=2, offdiag=0.3, p=p)), n, seed=9).rows
    _write_csv(path, rows)
    argv = ["select", "--data", str(path), "--tau-max", "3", "--estimate-out", str(est)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < p * p * 8 / 4  # a quarter of one p x p float64 array
    tau_hat = json.loads(capsys.readouterr().out)["results"]["selected_tau"]
    with open(est, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n").split(",")
    assert len(first) == p and first[tau_hat:] == ["0.0"] * (p - tau_hat)


@pytest.mark.parametrize("method", ["exact", "banded-truncated"])
def test_overflowing_var_n_exits_4(capsys, method):
    """At offdiag 1e80 the risk column is finite, but var_n, a sum of fourth
    powers, is not: one error line naming the first tau, and no table."""
    argv = ["risk", "--model", "banded-uniform", "--offdiag", "1e80", "--p", "12", "--n", "20",
            "--tau-max", "4", "--with-var", "--var-method", method, "--truncation-band", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: var_n at tau=1 is not finite: the covariance overflows"
    ]
    assert main(argv[:-5]) == 0  # the risk column alone is finite


@pytest.mark.parametrize("argv", [
    ["--model", "ar-decay", "--rho", "0.5", "--p", "100", "--n", "100", "--tau-max", "3",
     "--with-var", "--var-method", "banded-truncated", "--truncation-band", "100"],
    ["--model", "banded-uniform", "--k0", "70", "--p", "100", "--n", "20", "--tau-max", "3",
     "--with-var"],  # the automatic pick reads the model's bandwidth, 70
], ids=["truncation-band", "automatic"])
def test_var_n_over_the_band_cap_is_a_usage_error(capsys, argv):
    """A truncation band as wide as exact's costs what exact does, so the cap holds for it too."""
    assert main(["risk", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: var_n reads a band of width ")
    assert f"above the cap of {VAR_EXACT_CAP}" in captured.err


@pytest.mark.parametrize("argv", [
    ["risk", "--model", "banded-uniform", "--offdiag", "1e200", "--p", "6", "--n", "20"],
    ["simulate", "--model", "banded-uniform", "--k0", "1", "--offdiag", "1e155",
     "--p", "6", "--n", "20", "--replications", "3"],
    ["clt", "--model", "banded-uniform", "--k0", "1", "--offdiag", "1e155",
     "--p", "6", "--n", "20", "--tau", "2", "--replications", "5"],
], ids=lambda argv: argv[0])
def test_overflowing_model_exits_4(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        assert main(argv) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "not finite" in lines[0]


@pytest.mark.parametrize("command", ["simulate", "risk"])
def test_logn_below_two_names_logn(capsys, command):
    argv = [command, "--model", "ar-decay", "--rho", "0.5", "--p", "6", "--n", "5", "--c", "logn"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: penalty multiplier c must be finite and >= 2, got logn = log(5)"]


@pytest.mark.parametrize("command", ["simulate", "risk", "clt"])
def test_n_below_four_is_a_usage_error_in_every_command(capsys, command):
    # risk used to exit 3 for it, as if the flag were data
    assert main([command, "--model", "ar-decay", "--rho", "0.5", "--p", "6", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: --n must be >= 4, got 3\n"


def test_simulate_takes_no_preset(capsys):
    assert main(["simulate", "table2", "--c", "3", "--scheme", "czz",
                 "--model", "ar-decay", "--rho", "0.3"]) == 2
    assert main(["simulate", "table1", "--kind", "consistency"]) == 2
    assert main(["simulate", "--fast", "--model", "ar-decay", "--rho", "0.3"]) == 2


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

    # every option string of a flag is a key: --reps is --replications
    cfg.write_text(cfg.read_text().replace("replications = 3", "reps = 3"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == report["results"]

    # explicit flag beats the file
    assert main(["simulate", "--config", str(cfg), "--replications", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["replications"] == 5


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = ar-decay\nwibble = 3\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "wibble" in capsys.readouterr().err


def test_config_values_are_checked_like_flags(data_csv, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("format = xml\n")
    assert main(["select", "--data", str(data_csv[0]), "--estimate-out",
                 str(tmp_path / "est.csv"), "--config", str(cfg)]) == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err

    cfg.write_text("kind = bogus\n")
    assert main(["simulate", "--model", "ar-decay", "--rho", "0.5", "--p", "8", "--n", "20",
                 "--reps", "2", "--config", str(cfg)]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_config_switches_are_booleans(tmp_path, capsys):
    cfg = tmp_path / "switch.cfg"
    for sub, line, dest, want in [
        ("table1", "fast = false", "fast", False),
        ("table2", "unit-diagonal = yes", "unit_diagonal", True),
        ("risk", "with-var = true", "with_var", True),
    ]:
        cfg.write_text(line + "\n")
        assert bool(getattr(parse_args([sub, "--config", str(cfg)]), dest)) is want
    cfg.write_text("fast = maybe\n")
    assert main(["table1", "--config", str(cfg)]) == 2
    assert "'maybe'" in capsys.readouterr().err


def test_simulate_c_list_forms_agree(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("c = 2,logn\n")
    argv = ["simulate", "--model", "ar-decay", "--rho", "0.5", "--p", "10", "--n", "30",
            "--reps", "3", "--seed", "4"]
    payloads = []
    for extra in (["--c", "2,logn"], ["--c", "2", "--c", "logn"], ["--config", str(cfg)]):
        assert main(argv + extra) == 0
        report = json.loads(capsys.readouterr().out)
        payloads.append({"config": report["config"], "results": report["results"]})
    assert payloads[0] == payloads[1] == payloads[2]
    assert sorted(payloads[0]["results"]["per_c"]) == ["2", "logn"]


def test_every_long_option_is_a_config_key(tmp_path, capsys):
    """A config line ``key = value`` parses like the flag ``--key=value``."""
    cfg = tmp_path / "one.cfg"
    parser = build_parser()
    for sub, (_, _, flags) in COMMANDS.items():
        with pytest.raises(SystemExit):
            parser.parse_args([sub, "--help"])
        options = re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)
        kwargs = {opt: kw for names, kw in flags.items() for opt in names.split()}
        for opt in sorted(set(options) - {"--help", "--config"}):
            kw = kwargs[opt]
            if kw.get("action") == "store_true":
                line, flag = "true", [opt]
            else:
                value = kw["choices"][-1] if "choices" in kw else "3"
                line, flag = value, [f"{opt}={value}"]
            cfg.write_text(f"{opt[2:]} = {line}\n")
            from_file = vars(parse_args([sub, "--config", str(cfg)]))
            from_flag = vars(parse_args([sub, *flag]))
            assert from_file.pop("config") == str(cfg) and from_flag.pop("config") is None
            assert from_file == from_flag, (sub, opt)


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.sub(r"\s+#.*$", "", line.strip().removeprefix("$ "))
            if line.startswith("surecov "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: surecov {shlex.join(argv)}")


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


def test_risk_with_var_picks_the_method_as_clt_does(capsys):
    # above the exact cap a banded model gets banded-truncated at its bandwidth
    argv = ["risk", "--model", "banded-uniform", "--k0", "3", "--p", "100", "--n", "30",
            "--tau-max", "6", "--with-var"]
    assert main(argv) == 0
    auto = capsys.readouterr().out
    assert main(argv + ["--var-method", "banded-truncated", "--truncation-band", "3"]) == 0
    assert auto == capsys.readouterr().out


def test_risk_with_var_at_p_much_larger_than_n_makes_no_p_by_p_array(capsys):
    p = 20000
    argv = ["risk", "--with-var", "--model", "banded-uniform", "--k0", "5", "--p", str(p),
            "--n", "250", "--tau-max", "8"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < p * p * 8 / 4  # a quarter of one p x p float64 array
    assert capsys.readouterr().out.splitlines()[-1] == "# oracle_tau = 5"


@pytest.mark.parametrize("argv", [
    ["--k0", "3", "--p", "40", "--n", "50", "--scheme", "czz"],  # exact var_n
    ["--k0", "4", "--p", "300", "--n", "100", "--tau-max", "12", "--unit-diagonal"],
    ["--k0", "5", "--p", "1000", "--n", "250", "--scheme", "czz", "--tau-max", "8",
     "--var-method", "banded-truncated", "--truncation-band", "5"],
])
def test_risk_table_of_a_banded_model_is_the_dense_public_api_byte_for_byte(capsys, argv):
    assert main(["risk", "--model", "banded-uniform", "--with-var", *argv]) == 0
    out = capsys.readouterr().out
    ns = parse_args(["risk", "--model", "banded-uniform", *argv])
    model = BandedUniform(k0=ns.k0, offdiag=0.25, p=ns.p, unit_diagonal=bool(ns.unit_diagonal))
    scheme = CzzTaper() if ns.scheme == "czz" else Banding()
    sigma = build_sigma(model)
    profile = risk_profile(sigma, ns.n, scheme, 2.0, default_tau_grid(ns.p, ns.n, ns.tau_max))
    method = "exact" if ns.p <= 64 else "banded-truncated"
    var = var_profile(sigma, ns.n, scheme, profile.tau_grid, 2.0, method, ns.k0)
    rows = [f"{t},{float(r)!r},{float(v)!r}" for t, r, v in zip(profile.tau_grid, profile.values, var)]
    assert out == "\n".join(["tau,risk,var_n", *rows, f"# oracle_tau = {profile.oracle_tau}"]) + "\n"


def test_risk_with_a_non_numeric_c_is_a_usage_error(capsys):
    argv = ["risk", "--model", "ar-decay", "--rho", "0.5", "--p", "6", "--n", "20", "--c", "x"]
    assert main(argv) == 2
    assert "argument --c: c must be a number or 'logn', got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table2", "--fast", "--reps", "2", "--threads", "-1"],
    ["clt", "--model", "ar-decay", "--rho", "0.5", "--p", "6", "--n", "20", "--tau", "2",
     "--reps", "3", "--threads", "-7"],
])
def test_negative_threads_is_a_usage_error(capsys, argv):
    # a negative count used to run quietly on one worker
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: threads must be >= 0, got {argv[-1]}\n"


@pytest.mark.parametrize("model, tau", [
    (["--model", "ar-decay", "--rho", "0.5", "--p", "10"], 3),  # exact var_n
    (["--model", "banded-uniform", "--k0", "4", "--p", "200"], 6),  # banded-truncated at k0
])
def test_clt_theory_is_the_tau_row_of_risk_with_var(capsys, model, tau):
    """clt and ``risk --with-var`` share one theory step: clt's var_n is the tau row
    of the risk table digit for digit, and its risk agrees to rounding.  The risk is
    not bitwise the row's.  Here both grids end at tau, so both read the same band
    sums, tail bin included; the last bits differ because clt's one-row product of
    the weights with those sums adds in another order than the table's product
    over its tau rows.  A table grid wider than tau would also fold fewer distances
    into its tail bin than clt's one-point grid does."""
    common = [*model, "--n", "40", "--scheme", "czz", "--c", "3"]
    assert main(["risk", *common, "--tau-max", str(tau), "--with-var"]) == 0
    row = capsys.readouterr().out.splitlines()[tau].split(",")
    assert main(["clt", *common, "--tau", str(tau), "--reps", "3"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert [row[0], row[2]] == [str(tau), repr(res["var_n"])]
    assert res["risk"] == pytest.approx(float(row[1]), rel=1e-14, abs=0)


def test_clt_with_one_replication_is_a_usage_error(capsys):
    code = main(["clt", "--model", "banded-uniform", "--p", "10", "--n", "20", "--tau", "2",
                 "--reps", "1"])
    assert code == 2
    assert capsys.readouterr().err == "error: clt needs --reps >= 2 (KS is undefined), got 1\n"


def test_simulate_csv_format(capsys):
    code = main(["simulate", "--model", "ar-decay", "--rho", "0.5", "--p", "10",
                 "--n", "30", "--replications", "3", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "c,mean_loss,se_loss,mean_selected_tau"
    assert len(lines) == 2


@pytest.mark.parametrize("kind", ["consistency", "oracle-ratio"])
def test_simulate_csv_holds_the_json_results(capsys, kind):
    argv = ["simulate", "--model", "banded-uniform", "--k0", "2", "--p", "10", "--n", "30",
            "--reps", "3", "--kind", kind, "--format"]
    assert main(argv + ["json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert main(argv + ["csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    if kind == "consistency":
        (row,) = results["per_n"]
        assert lines == ["n,frac_logn_equals_k0,frac_sure2_in_window",
                         f"30,{row['frac_logn_equals_k0']!r},{row['frac_sure2_in_window']!r}"]
    else:
        assert lines == [f"{key},{value}" for key, value in sorted(results.items())]


def test_clt_command(capsys):
    code = main(["clt", "--model", "banded-uniform", "--k0", "2", "--offdiag", "0.3",
                 "--p", "10", "--n", "24", "--tau", "2", "--reps", "100", "--seed", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["var_method"] == "exact"
    assert report["results"]["ks_distance"] < 0.3


def test_clt_reports_the_truncation_band_it_used(capsys):
    # exact ignores a given band, so it reports none
    argv = ["clt", "--model", "banded-uniform", "--k0", "2", "--p", "10", "--n", "24",
            "--tau", "2", "--reps", "3", "--truncation-band", "3", "--var-method"]
    assert main(argv + ["exact"]) == 0
    exact = json.loads(capsys.readouterr().out)["results"]
    assert (exact["var_method"], exact["truncation_band"]) == ("exact", None)
    assert main(argv + ["banded-truncated"]) == 0
    banded = json.loads(capsys.readouterr().out)["results"]
    assert (banded["var_method"], banded["truncation_band"]) == ("banded-truncated", 3)
    assert banded["var_n"] == pytest.approx(exact["var_n"], rel=1e-12)  # k0 = 2 <= 3


def test_table_presets_via_cli(tmp_path, capsys):
    code = main(["table1", "model2-r05", "--fast", "--reps", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["model"]["variant"] == "ar-decay"
    assert report["config"]["replications"] == 3

    # the positional variant is a command-line value, so it beats the file's
    cfg = tmp_path / "t1.cfg"
    cfg.write_text("variant = model1-a01\n")
    assert main(["table1", "model2-r05", "--fast", "--reps", "3", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == report["results"]

    code = main(["table2", "--fast", "--reps", "3", "--p", "40"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["k0"] == 5


@pytest.mark.parametrize("preset", [["table1", "model2-r05"], ["table2"]], ids=["table1", "table2"])
def test_p_overrides_the_fast_preset(capsys, preset):
    # table2 --fast used to cap a given --p at 100, where table1 --fast took it as given
    assert main([*preset, "--fast", "--p", "140", "--n", "30", "--reps", "2"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["p"] == config["model"]["p"] == 140
    assert config["n"] == 30


def test_logn_c_resolution(data_csv, capsys):
    path, _ = data_csv
    assert main(["select", "--data", str(path), "--c", "logn"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["c"] == "logn"
    assert main(["select", "--data", str(path), "--c", "2.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["c"] == 2.5


# --- fuzz: every command line and config file ends in a documented exit code ---

# valid integers by option, small so that every run is quick; other integer
# options take 1..12
_FUZZ_VALID_INTS = {"--p": (1, 30), "--n": (4, 40), "--replications --reps": (2, 3),
                    "--threads": (0, 2), "--seed": (0, 12)}
# "@" stands for the test's directory, so "@" alone is a directory; any data
# file may come, about half of them good
_FUZZ_DATA = ["@good.csv"] * 8 + ["@ragged.csv", "@nonfinite.csv", "@header.csv", "@latin1.csv",
                                  "@huge.csv", "@short.csv", "@missing.csv", "@"]
_FUZZ_PATHS = {  # option: (valid, invalid)
    "--data": (_FUZZ_DATA, _FUZZ_DATA),
    "--out": (["@out.txt"], ["@", "@missing/out.txt"]),
    "--profile-out": (["@profile.csv"], ["@", "@missing/profile.csv"]),
    "--estimate-out": (["@estimate.csv"], ["@"]),
}
_FUZZ_FILES = {
    "good.csv": "a,b,c,d,e\n" + "".join(
        ",".join(repr(v) for v in row) + "\n"
        for row in np.random.default_rng(0).normal(size=(8, 5)).tolist()),
    "ragged.csv": "1,2,3\n4,5,6\n7,8\n1,2,3\n4,5,6\n",
    "nonfinite.csv": "1,2\n3,nan\n5,6\ninf,8\n9,1\n",
    "header.csv": "a,b,c\n",
    "latin1.csv": b"a,b\n1,2\n3,\xe9\n5,6\n7,8\n",
    "huge.csv": "".join(f"{1e200 * (i + 1)!r},{-2e200 * i!r}\n" for i in range(6)),
    "short.csv": "1,2\n3,4\n",
    "latin1.cfg": b"n = 5\n# caf\xe9\n",
    "bad.cfg": "just words\n",
}


def _fuzz_values(names: str, kw: dict):
    """Strategies for one option of ``COMMANDS``: its valid and its invalid values."""
    if names in _FUZZ_PATHS:
        return tuple(st.sampled_from(paths) for paths in _FUZZ_PATHS[names])
    if "choices" in kw:
        return st.sampled_from(kw["choices"]), st.just("bogus")
    if kw.get("type") is int:
        lo, hi = _FUZZ_VALID_INTS.get(names, (1, 12))
        return st.integers(lo, hi).map(str), st.sampled_from(["-1", "0", "2.5", "x"])
    if kw.get("type") is float:
        return st.sampled_from(["0.5", "0.3", "-0.3"]), st.sampled_from(
            ["1.5", "1e300", "nan", "inf", "x"])
    return st.sampled_from(["2", "3", "logn"]), st.sampled_from(["1", "nan", "x", "2,x"])


@st.composite
def _invocations(draw):
    """``(argv, config lines)``: each option of one command on the command line,
    in the config file or absent, and at most two of them invalid.  ``--reps``,
    and ``--fast`` on the table commands, are always on the command line."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = {names: kw for names, kw in COMMANDS[command][2].items() if names != "--config"}
    bad = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv, lines = [command], draw(st.sampled_from([[]] * 6 + [["bogus = 1"], ["no equals"]]))
    for names, kw in flags.items():
        place = draw(st.sampled_from(["argv", "argv", "config", "absent"]))
        if names in ("--replications --reps", "--fast"):
            place = "argv"
        if place == "absent" or (place == "config" and not names.startswith("--")):
            continue
        switch = kw.get("action") == "store_true"
        if switch:
            values = st.sampled_from(["true", "false"]), st.just("maybe")
        else:
            values = _fuzz_values(names, kw)
        if place == "config":
            lines.append(f"{names.split()[0][2:]} = {draw(values[names in bad])}")
        elif switch:
            argv.append(names)
        else:
            value = draw(values[names in bad])
            argv += [value] if not names.startswith("--") else [names.split()[-1], value]
    others = [None, None, None, "@latin1.cfg", "@bad.cfg", "@missing.cfg"]
    config = draw(st.sampled_from(["@fuzz.cfg"] if lines else others))
    return argv + ([] if config is None else ["--config", config]), lines


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(invocation=_invocations())
# each example reaches one usage error, whatever the random draws do
@example(invocation=(["simulate", "--model", "ar-decay", "--reps", "2"], []))  # no --p
@example(invocation=(["risk", "--model", "ar-decay", "--rho", "0.5", "--p", "8"], []))  # no --n
@example(invocation=(["clt", "--model", "ar-decay", "--p", "8", "--n", "20", "--reps", "2"],
                     []))  # no --rho
@example(invocation=(["select"], []))  # no --data
@example(invocation=(["clt", "--model", "ar-decay", "--rho", "0.5", "--p", "8", "--n", "20",
                      "--reps", "2"], []))  # no --tau
@example(invocation=(["select", "--data", "@good.csv", "--out", "@"], []))  # --out is a directory
@example(invocation=(["table2", "--fast", "--reps", "2", "--config", "@latin1.cfg"], []))
def test_fuzzed_command_lines_exit_with_a_documented_code(tmp_path, capsys, invocation):
    """Any mix of valid and invalid flags, config values and tiny input files
    ends in exit code 0, 2, 3 or 4, and never in a traceback."""
    argv, lines = invocation
    root = f"{tmp_path}{os.sep}"
    for name, content in _FUZZ_FILES.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    (tmp_path / "fuzz.cfg").write_text("".join(line.replace("@", root) + "\n" for line in lines))
    code = main([arg.replace("@", root) for arg in argv])
    err = capsys.readouterr().err
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), (argv, lines, err)
    assert "Traceback" not in err, (argv, lines, err)
