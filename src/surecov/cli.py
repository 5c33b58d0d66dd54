"""Command-line entry points: data ingestion, experiments, serialization.

Subcommands
-----------
select      tune tau on a CSV of observations and write profile/estimate files
simulate    run a Monte Carlo experiment (preset or fully custom model)
risk        exact risk profile R_c(tau) for a model, plus the oracle tau
clt         standardized-SURE normality experiment at a fixed tau
table1      shorthand for the decay-model loss benchmark
table2      shorthand for the banded-model selection benchmark

Config files are flat ``key = value`` text with keys equal to the long flag
names (e.g. ``tau-max = 40``); values given on the command line win.  Exit
codes: 0 success, 2 usage/config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .criterion import default_tau_grid, sure_constants, sure_profile
from .errors import DataError, NumericalError, ParameterError
from .estimate import Banding, CzzTaper, TaperedEstimate, WeightScheme, mle_cov, taper
from .model import ArDecay, BandedUniform, CovModel, Dataset, PolyDecay, build_sigma
from .sim import (
    ExperimentConfig,
    clt_experiment,
    consistency_experiment,
    oracle_ratio_experiment,
    run_experiment,
    table1_config,
    table2_config,
    TABLE1_VARIANTS,
)
from .theory import risk_profile, var_n

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
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def apply_config_file(ns: argparse.Namespace, sub: argparse.ArgumentParser) -> None:
    """Fill namespace holes from the config file; CLI-given values win.

    All subparser defaults are ``None`` sentinels, so "the user passed this
    flag" is exactly "the attribute is not None".
    """
    if getattr(ns, "config", None) is None:
        return
    actions = {
        opt.lstrip("-"): act for act in sub._actions for opt in act.option_strings
    }
    for key, value in load_config_file(ns.config).items():
        if key not in actions or key in ("config", "help"):
            raise ParameterError(f"unknown config key {key!r} in {ns.config}")
        act = actions[key]
        if getattr(ns, act.dest) is not None:
            continue  # explicit flag wins
        if isinstance(act, argparse._StoreTrueAction):
            setattr(ns, act.dest, parse_bool(value))
        elif isinstance(act, argparse._AppendAction):
            cast = act.type or str
            setattr(ns, act.dest, [cast(part) for part in value.split(",") if part.strip()])
        else:
            cast = act.type or str
            try:
                setattr(ns, act.dest, cast(value))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ParameterError(f"config key {key!r}: {exc}") from None


def _default(ns: argparse.Namespace, attr: str, value) -> None:
    if getattr(ns, attr, None) is None:
        setattr(ns, attr, value)


# --- CSV ingestion ---------------------------------------------------------


def read_matrix_csv(path: str) -> np.ndarray:
    """Read an observations-by-coordinates numeric CSV.

    A single leading header row is auto-detected (any non-numeric cell in the
    first row).  Every later row must be numeric, finite and of equal width;
    violations are reported with their 1-based line and column.
    """
    p = Path(path)
    if not p.is_file():
        raise DataError(f"data file not found: {path}")
    rows: list[list[float]] = []
    width: int | None = None
    with p.open(newline="", encoding="utf-8") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if not record or all(not cell.strip() for cell in record):
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
            rows.append(parsed)
    if width is None:
        raise DataError(f"{path}: no data rows")
    if len(rows) < 4:
        raise DataError(f"{path}: need at least 4 observation rows, got {len(rows)}")
    return np.array(rows, dtype=np.float64)


def _format_float(x: float) -> str:
    return repr(float(x))


def write_profile_csv(path: str, grid: tuple[int, ...], values) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("tau,sure_value\n")
        for t, v in zip(grid, values):
            fh.write(f"{t},{_format_float(v)}\n")


def write_estimate(path: str, estimate: TaperedEstimate, fmt: str) -> None:
    """Dense CSV, or ``i,j,value`` triplets (1-based, upper triangle) for the band."""
    mat = estimate.matrix
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "dense":
            for row in mat:
                fh.write(",".join(_format_float(v) for v in row) + "\n")
        else:
            p = mat.shape[0]
            tau = estimate.tau
            for i in range(p):
                for j in range(i, min(i + tau, p)):
                    fh.write(f"{i + 1},{j + 1},{_format_float(mat[i, j])}\n")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


# --- model construction from flags ----------------------------------------


def model_from_args(ns: argparse.Namespace) -> CovModel:
    kind = ns.model
    if kind is None:
        raise ParameterError("a model is required: pass --model or a preset")
    if ns.p is None:
        raise ParameterError("--p is required with --model")
    if kind == "poly-decay":
        _default(ns, "rho", 0.6)
        if ns.alpha is None:
            raise ParameterError("poly-decay requires --alpha")
        return PolyDecay(rho=ns.rho, alpha=ns.alpha, p=ns.p)
    if kind == "ar-decay":
        if ns.rho is None:
            raise ParameterError("ar-decay requires --rho")
        return ArDecay(rho=ns.rho, p=ns.p)
    if kind == "banded-uniform":
        _default(ns, "k0", 5)
        _default(ns, "offdiag", 0.25)
        return BandedUniform(
            k0=ns.k0,
            offdiag=ns.offdiag,
            p=ns.p,
            unit_diagonal=bool(ns.unit_diagonal),
        )
    raise ParameterError(f"unknown model {kind!r}")


def scheme_from_name(name: str | None) -> WeightScheme:
    if name in (None, "banding"):
        return Banding()
    if name == "czz":
        return CzzTaper()
    raise ParameterError(f"unknown scheme {name!r}")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=["poly-decay", "ar-decay", "banded-uniform"])
    sub.add_argument("--rho", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--k0", type=int)
    sub.add_argument("--offdiag", type=float)
    sub.add_argument("--unit-diagonal", action="store_true", default=None)
    sub.add_argument("--p", type=int)


def _add_common(sub: argparse.ArgumentParser, *, threads: bool = True) -> None:
    sub.add_argument("--config", help="key = value file; flags override it")
    sub.add_argument("--out", help="write the report here instead of stdout")
    if threads:
        sub.add_argument(
            "--threads", type=int, help="worker threads (0 = SURECOV_THREADS, else 1)"
        )


# --- subcommands -----------------------------------------------------------


def cmd_select(ns: argparse.Namespace) -> int:
    if ns.data is None:
        raise ParameterError("select requires --data")
    _default(ns, "c", 2.0)
    _default(ns, "format", "dense")
    scheme = scheme_from_name(ns.scheme)
    data = read_matrix_csv(ns.data)
    n, p = data.shape
    c = math.log(n) if ns.c == "logn" else float(ns.c)
    grid = default_tau_grid(p, n, ns.tau_max)
    with np.errstate(over="ignore", invalid="ignore"):
        s_tilde = mle_cov(Dataset(rows=data))
        profile = sure_profile(s_tilde, sure_constants(n, c), scheme, grid)
    tau_hat = profile.selected_tau

    if ns.profile_out:
        write_profile_csv(ns.profile_out, profile.tau_grid, profile.values)
    if ns.estimate_out:
        write_estimate(ns.estimate_out, taper(s_tilde, scheme, tau_hat), ns.format)
    report = {
        "config": {
            "subcommand": "select",
            "data": ns.data,
            "n": n,
            "p": p,
            "scheme": scheme.name,
            "c": ns.c if ns.c == "logn" else c,
            "tau_grid": {"min": grid[0], "max": grid[-1]},
            "seed": None,
        },
        "results": {
            "selected_tau": int(tau_hat),
            "min_sure": float(profile.value_at(tau_hat)),
            "profile": [[t, float(v)] for t, v in zip(profile.tau_grid, profile.values)],
        },
    }
    _emit(json.dumps(report, sort_keys=True, indent=2), ns.out)
    return 0


def _experiment_overrides(ns: argparse.Namespace, config: ExperimentConfig) -> ExperimentConfig:
    updates = {}
    if ns.replications is not None:
        updates["replications"] = ns.replications
    if ns.seed is not None:
        updates["base_seed"] = ns.seed
    if ns.threads is not None:
        updates["threads"] = ns.threads
    if getattr(ns, "tau_max", None) is not None:
        updates["tau_max"] = ns.tau_max
    if getattr(ns, "n", None) is not None:
        updates["n"] = ns.n
    return dataclasses.replace(config, **updates) if updates else config


def _run_by_kind(config: ExperimentConfig):
    if config.kind == "consistency":
        return consistency_experiment(config)
    if config.kind == "oracle-ratio":
        return oracle_ratio_experiment(config)
    return run_experiment(config)


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
    _default(ns, "format", "json")
    if ns.preset == "table1":
        _default(ns, "variant", "model1-a05")
        config = table1_config(
            ns.variant,
            fast=bool(ns.fast),
            replications=ns.replications,
            base_seed=ns.seed or 0,
            threads=ns.threads or 0,
        )
        if ns.p is not None:
            config = dataclasses.replace(
                config, model=dataclasses.replace(config.model, p=ns.p)
            )
        config = _experiment_overrides(ns, config)
    elif ns.preset == "table2":
        config = table2_config(
            p=ns.p if ns.p is not None else 500,
            fast=bool(ns.fast),
            replications=ns.replications,
            base_seed=ns.seed or 0,
            threads=ns.threads or 0,
            unit_diagonal=bool(ns.unit_diagonal),
        )
        config = _experiment_overrides(ns, config)
    elif ns.preset is None:
        model = model_from_args(ns)
        if ns.n is None:
            raise ParameterError("--n is required")
        config = ExperimentConfig(
            model=model,
            n=ns.n,
            scheme=scheme_from_name(ns.scheme),
            c_values=tuple(ns.c) if ns.c else (2.0,),
            replications=ns.replications if ns.replications is not None else 100,
            base_seed=ns.seed or 0,
            tau_max=ns.tau_max,
            kind=ns.kind or "table",
            threads=ns.threads or 0,
        )
    else:
        raise ParameterError(f"unknown preset {ns.preset!r}; choose table1 or table2")

    report = _run_by_kind(config)
    if ns.format == "csv":
        _emit(_simulate_csv(report), ns.out)
    else:
        _emit(report.to_json(), ns.out)
    return 0


def cmd_risk(ns: argparse.Namespace) -> int:
    model = model_from_args(ns)
    if ns.n is None:
        raise ParameterError("--n is required")
    _default(ns, "c", 2.0)
    c = math.log(ns.n) if ns.c == "logn" else float(ns.c)
    scheme = scheme_from_name(ns.scheme)
    sigma = build_sigma(model)
    grid = default_tau_grid(model.p, ns.n, ns.tau_max)
    profile = risk_profile(sigma, ns.n, scheme, c, grid)

    lines = []
    if ns.with_var:
        lines.append("tau,risk,var_n")
        for t, r in zip(profile.tau_grid, profile.values):
            approx = var_n(
                sigma,
                ns.n,
                scheme,
                t,
                c,
                method=ns.var_method or "exact",
                truncation_band=ns.truncation_band,
            )
            lines.append(f"{t},{_format_float(r)},{_format_float(approx.value)}")
    else:
        lines.append("tau,risk")
        for t, r in zip(profile.tau_grid, profile.values):
            lines.append(f"{t},{_format_float(r)}")
    lines.append(f"# oracle_tau = {profile.oracle_tau}")
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def cmd_clt(ns: argparse.Namespace) -> int:
    model = model_from_args(ns)
    if ns.n is None or ns.tau is None:
        raise ParameterError("clt requires --n and --tau")
    _default(ns, "c", 2.0)
    config = ExperimentConfig(
        model=model,
        n=ns.n,
        scheme=scheme_from_name(ns.scheme),
        c_values=(ns.c,),
        replications=ns.replications if ns.replications is not None else 2000,
        base_seed=ns.seed or 0,
        kind="clt",
        tau_fixed=ns.tau,
        var_method=ns.var_method,
        truncation_band=ns.truncation_band,
        threads=ns.threads or 0,
    )
    _emit(clt_experiment(config).to_json(), ns.out)
    return 0


def cmd_table1(ns: argparse.Namespace) -> int:
    ns.preset = "table1"
    if ns.variant is None and ns.variant_pos is not None:
        ns.variant = ns.variant_pos
    return cmd_simulate(ns)


def cmd_table2(ns: argparse.Namespace) -> int:
    ns.preset = "table2"
    return cmd_simulate(ns)


# --- parser ----------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="surecov",
        description="SURE-tuned banding/tapering of large covariance matrices",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    table: dict[str, argparse.ArgumentParser] = {}

    sel = subs.add_parser("select", help="tune tau on a CSV of observations")
    sel.add_argument("--data", help="CSV, rows = observations")
    sel.add_argument("--scheme", choices=["banding", "czz"])
    sel.add_argument("--c", type=parse_c, help="penalty multiplier or 'logn'")
    sel.add_argument("--tau-max", type=int)
    sel.add_argument("--profile-out", help="write tau,sure_value CSV here")
    sel.add_argument("--estimate-out", help="write the tapered estimate here")
    sel.add_argument("--format", choices=["dense", "band"])
    _add_common(sel, threads=False)
    sel.set_defaults(func=cmd_select)
    table["select"] = sel

    sim = subs.add_parser("simulate", help="Monte Carlo experiments")
    sim.add_argument("preset", nargs="?", choices=["table1", "table2"])
    sim.add_argument("--variant", choices=sorted(TABLE1_VARIANTS))
    sim.add_argument("--fast", action="store_true", default=None)
    _add_model_flags(sim)
    sim.add_argument("--n", type=int)
    sim.add_argument("--c", type=parse_c, action="append")
    sim.add_argument("--scheme", choices=["banding", "czz"])
    sim.add_argument("--tau-max", type=int)
    sim.add_argument("--replications", "--reps", type=int, dest="replications")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--kind", choices=["table", "consistency", "oracle-ratio"])
    sim.add_argument("--format", choices=["json", "csv"])
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)
    table["simulate"] = sim

    risk = subs.add_parser("risk", help="exact risk profile and oracle tau")
    _add_model_flags(risk)
    risk.add_argument("--n", type=int)
    risk.add_argument("--c", type=parse_c)
    risk.add_argument("--scheme", choices=["banding", "czz"])
    risk.add_argument("--tau-max", type=int)
    risk.add_argument("--with-var", action="store_true", default=None)
    risk.add_argument("--var-method", choices=["exact", "banded-truncated"])
    risk.add_argument("--truncation-band", type=int)
    _add_common(risk, threads=False)
    risk.set_defaults(func=cmd_risk)
    table["risk"] = risk

    clt = subs.add_parser("clt", help="standardized-SURE normality experiment")
    _add_model_flags(clt)
    clt.add_argument("--n", type=int)
    clt.add_argument("--tau", type=int)
    clt.add_argument("--c", type=parse_c)
    clt.add_argument("--scheme", choices=["banding", "czz"])
    clt.add_argument("--replications", "--reps", type=int, dest="replications")
    clt.add_argument("--seed", type=int)
    clt.add_argument("--var-method", choices=["exact", "banded-truncated"])
    clt.add_argument("--truncation-band", type=int)
    _add_common(clt)
    clt.set_defaults(func=cmd_clt)
    table["clt"] = clt

    t1 = subs.add_parser("table1", help="decay-model loss benchmark")
    t1.add_argument("variant_pos", nargs="?", choices=sorted(TABLE1_VARIANTS))
    t1.add_argument("--variant", choices=sorted(TABLE1_VARIANTS))
    t1.add_argument("--fast", action="store_true", default=None)
    t1.add_argument("--p", type=int)
    t1.add_argument("--n", type=int)
    t1.add_argument("--tau-max", type=int)
    t1.add_argument("--replications", "--reps", type=int, dest="replications")
    t1.add_argument("--seed", type=int)
    t1.add_argument("--format", choices=["json", "csv"])
    _add_common(t1)
    t1.set_defaults(func=cmd_table1)
    table["table1"] = t1

    t2 = subs.add_parser("table2", help="banded-model selection benchmark")
    t2.add_argument("--p", type=int)
    t2.add_argument("--n", type=int)
    t2.add_argument("--fast", action="store_true", default=None)
    t2.add_argument("--unit-diagonal", action="store_true", default=None)
    t2.add_argument("--tau-max", type=int)
    t2.add_argument("--replications", "--reps", type=int, dest="replications")
    t2.add_argument("--seed", type=int)
    t2.add_argument("--format", choices=["json", "csv"])
    _add_common(t2)
    t2.set_defaults(func=cmd_table2)
    table["table2"] = t2

    return parser, table


def main(argv: list[str] | None = None) -> int:
    parser, table = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        apply_config_file(ns, table[ns.subcommand])
        return ns.func(ns)
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
