"""Command-line entry points: data ingestion, experiments, serialization.

Subcommands
-----------
select      tune tau on a CSV of observations and write profile/estimate files
simulate    run a Monte Carlo experiment on a model given by flags
risk        exact risk profile R_c(tau) for a model, plus the oracle tau
clt         standardized-SURE normality experiment at a fixed tau
table1      shorthand for the decay-model loss benchmark
table2      shorthand for the banded-model selection benchmark

Every subcommand's flags are declared once, in ``COMMANDS``.  Config files are
flat ``key = value`` text with keys equal to the long flag names (e.g.
``tau-max = 40``); each line is parsed as ``--key=value`` by the same
subparser, so file values get the same types and choices as flags, and values
given on the command line win.  Exit codes: 0 success, 2 usage/config error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .criterion import default_tau_grid, resolve_c, sure_constants, sure_profile_from_band
from .errors import DataError, NumericalError, ParameterError
from .estimate import Banding, CzzTaper, WeightScheme, band_gram
from .model import ArDecay, BandedUniform, CovModel, Dataset, PolyDecay
from .sim import (
    ExperimentConfig,
    _model_theory,
    clt_experiment,
    consistency_experiment,
    oracle_ratio_experiment,
    run_experiment,
    table1_config,
    table2_config,
    TABLE1_VARIANTS,
)
from .theory import VAR_METHODS

__all__ = ["main", "read_matrix_csv", "load_config_file"]


# --- small parsing helpers -------------------------------------------------


def parse_c(text: str) -> float | str:
    """A penalty multiplier: a real number or the literal ``logn``."""
    if text.strip().lower() == "logn":
        return "logn"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"c must be a number or 'logn', got {text!r}") from None


def parse_c_list(text: str) -> list[float | str]:
    """Comma-separated penalty multipliers, e.g. ``2,logn``."""
    return [parse_c(part) for part in text.split(",") if part.strip()]


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; blank lines and #-comments ignored."""
    p = Path(path)
    if not p.is_file():
        raise ParameterError(f"config file not found: {path}")
    entries: dict[str, str] = {}
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParameterError(f"config file is not UTF-8 text: {path}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def config_argv(path: str, flags: dict[str, dict]) -> list[str]:
    """The config file as ``--key=value`` arguments; a true switch is ``--key``."""
    options = {
        opt[2:]: kw for names, kw in flags.items() for opt in names.split() if opt.startswith("--")
    }
    argv = []
    for key, value in load_config_file(path).items():
        if key not in options or key == "config":
            raise ParameterError(f"unknown config key {key!r} in {path}")
        if options[key].get("action") != "store_true":
            argv.append(f"--{key}={value}")
        else:
            try:
                if parse_bool(value):
                    argv.append(f"--{key}")
            except ParameterError as exc:
                raise ParameterError(f"{path}: {key}: {exc}") from None
    return argv


def _default(ns: argparse.Namespace, attr: str, value) -> None:
    if getattr(ns, attr, None) is None:
        setattr(ns, attr, value)


# --- CSV ingestion ---------------------------------------------------------


def read_matrix_csv(path: str) -> np.ndarray:
    """Read an observations-by-coordinates numeric CSV.

    A single leading header row is auto-detected (any non-numeric cell in the
    first row).  Every later row must be numeric, finite and of equal width;
    violations are reported with their 1-based line and column.  numpy's C
    parser reads a plain file (``_read_plain_csv``, same bits); any other file
    goes to the checked parser, one record at a time, which words every error.
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"data file not found: {path}")
    if (data := _read_plain_csv(p)) is not None:
        return data
    rows: list[np.ndarray] = []
    width: int | None = None
    try:
        with p.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for record in reader:
                lineno = reader.line_num  # the record's last line
                if all(not cell.strip() for cell in record):
                    continue
                if width is None:
                    width = len(record)
                    try:
                        [float(cell) for cell in record]
                    except ValueError:
                        continue  # header row
                if len(record) != width:
                    raise DataError(
                        f"{path}:{lineno}: expected {width} fields, got {len(record)}"
                    )
                parsed = []
                for col, cell in enumerate(record, start=1):
                    try:
                        parsed.append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}:{lineno}: non-numeric value {cell!r} in column {col}"
                        ) from None
                    if not math.isfinite(parsed[-1]):
                        raise DataError(f"{path}:{lineno}:{col}: non-finite value {cell!r}")
                rows.append(np.array(parsed))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path, p.read_bytes()) from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if width is None:
        raise DataError(f"{path}: no data rows")
    if len(rows) < 4:
        raise DataError(f"{path}: need at least 4 observation rows, got {len(rows)}")
    return np.array(rows, dtype=np.float64)


def _read_plain_csv(p: Path) -> np.ndarray | None:
    """``np.loadtxt``'s array where it is the checked parser's to the bit, else None."""
    limit = csv.field_size_limit()
    try:
        with p.open(encoding="utf-8", newline="") as fh, warnings.catch_warnings():
            line = fh.readline()
            cells = line.rstrip("\r\n").split(",")
            if '"' in line or max(map(len, cells)) > limit:
                return None
            if not _plain_rows(p, len(line.encode()), limit):
                return None
            with contextlib.suppress(ValueError):  # a header or blank line stays consumed
                [float(cell) for cell in cells]
                fh.seek(0)
            warnings.simplefilter("error")
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, Warning):  # the checked parser words each of these
        return None
    ok = data.shape[1] == len(cells) and len(data) >= 4 and np.isfinite(data).all()
    return data if ok else None


def _plain_rows(p: Path, start: int, limit: int) -> bool:
    """Whether the bytes from ``start`` on suit numpy's parser: no quote (csv's
    rules), no 0x1c-0x1f (numpy strips them, ``float`` rejects them), no ``_``,
    non-ASCII byte or empty last cell (``1_000``, Arabic-Indic digits and blank
    ``,,`` records pass the checked parser, and numpy would fail late, after most
    of its parse), and a separator in each aligned block, so that no field passes
    csv's size limit.
    """
    block = min(limit // 2 + 1, 1 << 16)  # a field over the limit fills a block
    with p.open("rb") as fh:
        fh.seek(start)
        while chunk := fh.read(block):
            if not chunk.isascii() or any(b in chunk for b in b'"_\x1c\x1d\x1e\x1f'):
                return False
            if not any(b in chunk for b in b",\n\r"):
                return False
            buf = np.frombuffer(chunk, np.uint8)
            if (buf[:-1][(buf[1:] == 10) | (buf[1:] == 13)] == 44).any():
                return False
    return True


def _not_utf8(path: str, raw: bytes) -> DataError:
    """The error for a data file that is not UTF-8, naming its first bad byte."""
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return DataError(f"{path}:{line}: not UTF-8 text (byte {raw[exc.start]:#04x})")
    return DataError(f"{path}: not UTF-8 text")


def _format_float(x: float) -> str:
    return repr(float(x))


@contextlib.contextmanager
def _output(path: str):
    """``path`` open for writing; a failure to write it is a usage error naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_profile_csv(path: str, grid: tuple[int, ...], values) -> None:
    with _output(path) as fh:
        fh.write("tau,sure_value\n")
        for t, v in zip(grid, values):
            fh.write(f"{t},{_format_float(v)}\n")


def write_estimate(path: str, band: np.ndarray, scheme: WeightScheme, tau: int, fmt: str) -> None:
    """The tapered band ``values[i, d]`` of entry ``(i, i + d)``, from the band of
    :func:`band_gram`: as ``i,j,value`` triplets (1-based, upper triangle) for
    ``fmt == "band"``, else as a dense CSV written row by row (row i is
    ``values[j, i - j]`` for ``j < i``, then ``values[i]``, 0 outside the band)."""
    p = band.shape[0]
    values = band[:, :tau] * scheme.weights(tau, tau)
    with _output(path) as fh:
        if fmt == "band":
            for i, row in enumerate(values.tolist(), start=1):
                cells = enumerate(row[: p - i + 1])
                fh.write("".join(f"{i},{i + d},{_format_float(v)}\n" for d, v in cells))
        else:
            zero = _format_float(0.0)
            for i in range(p):
                left = np.arange(max(0, i - tau + 1), i)
                seg = np.concatenate((values[left, i - left], values[i, : p - i]))
                row = [zero] * (i - left.size) + [_format_float(v) for v in seg]
                fh.write(",".join(row + [zero] * (p - len(row))) + "\n")


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with _output(out) as fh:
            fh.write(text)


# --- model construction from flags ----------------------------------------


def model_from_args(ns: argparse.Namespace) -> CovModel:
    """The model of ``--model`` and its flags; every caller also needs ``--n``."""
    kind = ns.model
    if kind is None:
        raise ParameterError("a model is required: pass --model")
    if ns.p is None:
        raise ParameterError("--p is required with --model")
    if ns.n is None:
        raise ParameterError("--n is required")
    if ns.n < 4:  # the library calls a small n a data error; here it is a flag
        raise ParameterError(f"--n must be >= 4, got {ns.n}")
    if kind == "poly-decay":
        _default(ns, "rho", 0.6)
        if ns.alpha is None:
            raise ParameterError("poly-decay requires --alpha")
        return PolyDecay(rho=ns.rho, alpha=ns.alpha, p=ns.p)
    if kind == "ar-decay":
        if ns.rho is None:
            raise ParameterError("ar-decay requires --rho")
        return ArDecay(rho=ns.rho, p=ns.p)
    _default(ns, "k0", 5)  # banded-uniform
    _default(ns, "offdiag", 0.25)
    return BandedUniform(
        k0=ns.k0,
        offdiag=ns.offdiag,
        p=ns.p,
        unit_diagonal=bool(ns.unit_diagonal),
    )


_SCHEMES: dict[str, WeightScheme] = {"banding": Banding(), "czz": CzzTaper()}


def scheme_from_name(name: str | None) -> WeightScheme:
    return _SCHEMES[name or "banding"]


# --- subcommands -----------------------------------------------------------


def cmd_select(ns: argparse.Namespace) -> int:
    if ns.data is None:
        raise ParameterError("select requires --data")
    _default(ns, "c", 2.0)
    scheme = scheme_from_name(ns.scheme)
    data = Dataset(rows=read_matrix_csv(ns.data))
    n, p = data.rows.shape
    consts = sure_constants(n, ns.c)
    grid = default_tau_grid(p, n, ns.tau_max)
    band, frob_sq = band_gram(data, grid[-1])
    profile = sure_profile_from_band(band, frob_sq, consts, scheme, grid)
    tau_hat = profile.selected_tau

    if ns.profile_out:
        write_profile_csv(ns.profile_out, profile.tau_grid, profile.values)
    if ns.estimate_out:
        write_estimate(ns.estimate_out, band, scheme, tau_hat, ns.format)
    report = {
        "config": {
            "subcommand": "select",
            "data": ns.data,
            "n": n,
            "p": p,
            "scheme": scheme.name,
            "c": ns.c if ns.c == "logn" else consts.c,
            "tau_grid": {"min": grid[0], "max": grid[-1]},
            "seed": None,
        },
        "results": {
            "selected_tau": int(tau_hat),
            "min_sure": float(profile.values.min()),
            "profile": [[t, float(v)] for t, v in zip(profile.tau_grid, profile.values)],
        },
    }
    _emit(json.dumps(report, sort_keys=True, indent=2), ns.out)
    return 0


def _experiment_overrides(ns: argparse.Namespace, config: ExperimentConfig) -> ExperimentConfig:
    """``config`` with every experiment flag that was given; ``--p`` resizes any model."""
    given = {
        "replications": ns.replications,
        "base_seed": ns.seed,
        "threads": ns.threads,
        "tau_max": getattr(ns, "tau_max", None),
        "n": ns.n,
        "model": None if ns.p is None else dataclasses.replace(config.model, p=ns.p),
    }
    return dataclasses.replace(config, **{k: v for k, v in given.items() if v is not None})


_RUNS = {
    "table": run_experiment,
    "consistency": consistency_experiment,
    "oracle-ratio": oracle_ratio_experiment,
}


def _simulate_csv(report) -> str:
    """Flat plot-ready tables for the JSON-averse."""
    lines = []
    results = report.results
    if "per_c" in results:
        lines.append("c,mean_loss,se_loss,mean_selected_tau")
        for key, stats in results["per_c"].items():
            se = stats["se_loss"]
            lines.append(
                f"{key},{_format_float(stats['mean_loss'])},"
                f"{'' if se is None else _format_float(se)},"
                f"{_format_float(stats['mean_selected_tau'])}"
            )
    elif "per_n" in results:
        lines.append("n,frac_logn_equals_k0,frac_sure2_in_window")
        for row in results["per_n"]:
            lines.append(
                f"{row['n']},{_format_float(row['frac_logn_equals_k0'])},"
                f"{_format_float(row['frac_sure2_in_window'])}"
            )
    else:
        for key, value in sorted(results.items()):
            lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def cmd_simulate(ns: argparse.Namespace) -> int:
    if ns.preset == "table1":
        # a positional variant is on the command line, so it beats the config file
        variant = ns.variant_pos or ns.variant or "model1-a05"
        config = table1_config(variant, fast=bool(ns.fast))
    elif ns.preset == "table2":
        config = table2_config(fast=bool(ns.fast), unit_diagonal=bool(ns.unit_diagonal))
    else:
        config = ExperimentConfig(
            model=model_from_args(ns),
            n=ns.n,
            scheme=scheme_from_name(ns.scheme),
            c_values=tuple(ns.c) if ns.c else (2.0,),
            kind=ns.kind or "table",
        )

    report = _RUNS[config.kind](_experiment_overrides(ns, config))
    if ns.format == "csv":
        _emit(_simulate_csv(report), ns.out)
    else:
        _emit(report.to_json(), ns.out)
    return 0


def cmd_risk(ns: argparse.Namespace) -> int:
    model = model_from_args(ns)
    _default(ns, "c", 2.0)
    c = resolve_c(ns.c, ns.n)
    grid = default_tau_grid(model.p, ns.n, ns.tau_max)
    var = (ns.var_method, ns.truncation_band) if ns.with_var else None
    profile, var, _, _ = _model_theory(model, ns.n, scheme_from_name(ns.scheme), grid, c, var)
    lines = ["tau,risk" if var is None else "tau,risk,var_n"]
    for i, (t, r) in enumerate(zip(profile.tau_grid, profile.values)):
        line = f"{t},{_format_float(r)}"
        lines.append(line if var is None else f"{line},{_format_float(var[i])}")
    lines.append(f"# oracle_tau = {profile.oracle_tau}")
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def cmd_clt(ns: argparse.Namespace) -> int:
    model = model_from_args(ns)
    if ns.tau is None:
        raise ParameterError("clt requires --tau")
    _default(ns, "c", 2.0)
    config = ExperimentConfig(
        model=model,
        n=ns.n,
        scheme=scheme_from_name(ns.scheme),
        c_values=(ns.c,),
        replications=2000,
        kind="clt",
        tau_fixed=ns.tau,
        var_method=ns.var_method,
        truncation_band=ns.truncation_band,
    )
    config = _experiment_overrides(ns, config)
    if config.replications < 2:  # the library calls this a data error; here it is a flag
        raise ParameterError(f"clt needs --reps >= 2 (KS is undefined), got {config.replications}")
    _emit(clt_experiment(config).to_json(), ns.out)
    return 0


# --- parser ----------------------------------------------------------------

# Flags, keyed by their option strings, with their ``add_argument`` keywords.
# Every default is ``None``, so "the flag was given" is "the value is not None".
_SWITCH = {"action": "store_true", "default": None}
_SCHEME = {"--scheme": {"choices": list(_SCHEMES)}}
_MODEL = {
    "--model": {"choices": ["poly-decay", "ar-decay", "banded-uniform"]},
    "--rho": {"type": float},
    "--alpha": {"type": float},
    "--k0": {"type": int},
    "--offdiag": {"type": float},
    "--unit-diagonal": _SWITCH,
    "--p": {"type": int},
}
_REPS_SEED = {"--replications --reps": {"type": int}, "--seed": {"type": int}}
_VAR = {
    "--var-method": {"choices": list(VAR_METHODS)},
    "--truncation-band": {"type": int},
}
_COMMON = {
    "--config": {"help": "key = value file; flags override it"},
    "--out": {"help": "write the report here instead of stdout"},
}
_THREADS = {"--threads": {"type": int, "help": "worker threads (default 1)"}}
_EXPERIMENT = {
    "--tau-max": {"type": int},
    **_REPS_SEED,
    "--format": {"choices": ["json", "csv"]},
    **_COMMON,
    **_THREADS,
}
_VARIANT = {"choices": sorted(TABLE1_VARIANTS)}

# subcommand -> (help, set_defaults keywords, flags)
COMMANDS: dict[str, tuple[str, dict, dict[str, dict]]] = {
    "select": ("tune tau on a CSV of observations", {"func": cmd_select}, {
        "--data": {"help": "CSV, rows = observations"},
        **_SCHEME,
        "--c": {"type": parse_c, "help": "penalty multiplier or 'logn'"},
        "--tau-max": {"type": int},
        "--profile-out": {"help": "write tau,sure_value CSV here"},
        "--estimate-out": {"help": "write the tapered estimate here"},
        "--format": {"choices": ["dense", "band"]},
        **_COMMON,
    }),
    "simulate": ("Monte Carlo experiments", {"func": cmd_simulate, "preset": None}, {
        **_MODEL,
        "--n": {"type": int},
        "--c": {"type": parse_c_list, "action": "extend", "help": "comma list, e.g. 2,logn"},
        **_SCHEME,
        "--kind": {"choices": list(_RUNS)},
        **_EXPERIMENT,
    }),
    "risk": ("exact risk profile and oracle tau", {"func": cmd_risk}, {
        **_MODEL,
        "--n": {"type": int},
        "--c": {"type": parse_c},
        **_SCHEME,
        "--tau-max": {"type": int},
        "--with-var": _SWITCH,
        **_VAR,
        **_COMMON,
    }),
    "clt": ("standardized-SURE normality experiment", {"func": cmd_clt}, {
        **_MODEL,
        "--n": {"type": int},
        "--tau": {"type": int},
        "--c": {"type": parse_c},
        **_SCHEME,
        **_REPS_SEED,
        **_VAR,
        **_COMMON,
        **_THREADS,
    }),
    "table1": ("decay-model loss benchmark", {"func": cmd_simulate, "preset": "table1"}, {
        "variant_pos": {"nargs": "?", **_VARIANT},
        "--variant": _VARIANT,
        "--fast": _SWITCH,
        "--p": {"type": int},
        "--n": {"type": int},
        **_EXPERIMENT,
    }),
    "table2": ("banded-model selection benchmark", {"func": cmd_simulate, "preset": "table2"}, {
        "--p": {"type": int},
        "--n": {"type": int},
        "--fast": _SWITCH,
        "--unit-diagonal": _SWITCH,
        **_EXPERIMENT,
    }),
}


class _ConfigParser(argparse.ArgumentParser):
    """Parses a config file's values: an error is raised, not printed with usage."""

    def error(self, message: str):
        raise ParameterError(message)


def build_parser(parser_class: type = argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="surecov",
        description="SURE-tuned banding/tapering of large covariance matrices",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, defaults, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for names, kwargs in flags.items():
            sub.add_argument(*names.split(), **kwargs)
        sub.set_defaults(**defaults)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Flags, then ``--config`` values for those not given; argparse errors are SystemExit."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is not None:
        file_argv = [ns.subcommand, *config_argv(ns.config, COMMANDS[ns.subcommand][2])]
        try:
            from_file = build_parser(_ConfigParser).parse_args(file_argv)
        except ParameterError as exc:
            raise ParameterError(f"{ns.config}: {exc}") from None
        for dest, value in vars(from_file).items():
            _default(ns, dest, value)
    return ns


def _check_outputs(ns: argparse.Namespace) -> None:
    """Every output path can be created: its directory exists and it is no directory."""
    for dest in ("out", "profile_out", "estimate_out"):
        path = getattr(ns, dest, None)
        if path is None:
            continue
        flag = "--" + dest.replace("_", "-")
        # os.path.isdir, unlike Path.is_dir, is False for a path it cannot stat
        if not os.path.isdir(Path(path).parent):
            raise ParameterError(f"{flag} {path}: directory {Path(path).parent} does not exist")
        if os.path.isdir(path):
            raise ParameterError(f"{flag} {path} is a directory")


def main(argv: list[str] | None = None) -> int:
    try:
        ns = parse_args(argv)
        _check_outputs(ns)
        # an overflow ends in a NumericalError from the finiteness checks, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return ns.func(ns)
    except SystemExit as exc:  # argparse already printed the message (or the help)
        return int(exc.code or 0)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
