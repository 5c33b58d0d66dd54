"""Monte Carlo replication engine and preset experiments.

Reproducibility contract: a replication is a pure function of
``(config, rep_index)``.  Per-replication seeds are a 64-bit hash of
``(base_seed, rep_index)``, so scheduling and thread counts can never change
the streams, and aggregation happens in replication order.  Reports separate
a deterministic ``payload`` (config echo + results, byte-stable across thread
counts) from a ``meta`` section holding wall time and runtime facts.

``model`` owns the draw (``model._draw``, the rows of ``sample_dataset`` too) and
``theory`` the var_n rule, read once per experiment through :func:`_model_theory`;
this module seeds the replications, reduces their bands and aggregates.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.typing import NDArray

from .criterion import (
    _band_sums,
    _check_grid,
    _Grid,
    _smallest_argmin,
    _sums,
    default_tau_grid,
    resolve_c,
    sure_constants,
)
from .errors import DataError, ParameterError
from .estimate import Banding, WeightScheme, _buf, _sigma_band, band_gram
from .model import (
    ArDecay,
    BandedUniform,
    CovModel,
    Dataset,
    Explicit,
    PolyDecay,
    _ONE_BLAS_THREAD,
    _draw,
    _draw_factor,
    _is_int,
    _set_blas_threads,
    model_bandwidth,
)
from .theory import VAR_METHODS, _risk_profile, _var_profile, _var_width

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ReplicationRecord",
    "derive_seed",
    "run_replication",
    "run_experiment",
    "clt_experiment",
    "rate_experiment",
    "oracle_ratio_experiment",
    "consistency_experiment",
    "normal_cdf",
    "ks_statistic",
    "table1_config",
    "table2_config",
    "TABLE1_VARIANTS",
]


_U64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(base_seed: int, rep_index: int) -> int:
    """64-bit per-replication seed, a stable hash of (base_seed, rep_index).

    Both arguments are reduced mod 2**64, so derived seeds can safely be
    chained (e.g. one sub-seed per sample size, then one per replication).
    """
    packed = struct.pack("<QQ", base_seed & _U64, rep_index & _U64)
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    ``math.erfc`` is evaluated by the platform libm's rational approximation;
    relative error is below 1e-14 on |x| <= 8, comfortably inside the 1e-12
    accuracy this package relies on for KS statistics.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_statistic(sample: NDArray[np.float64]) -> float:
    """Kolmogorov-Smirnov distance between the sample and the standard normal."""
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    m = xs.size
    if m < 2:
        raise DataError("KS statistic is undefined for fewer than 2 observations")
    cdf = np.array([normal_cdf(float(x)) for x in xs])
    grid_lo = np.arange(m) / m
    grid_hi = np.arange(1, m + 1) / m
    return float(np.max(np.maximum(cdf - grid_lo, grid_hi - cdf)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to rerun an experiment bit-identically."""

    model: CovModel
    n: int
    scheme: WeightScheme = Banding()
    c_values: tuple[float | str, ...] = (2.0,)
    replications: int = 100
    base_seed: int = 0
    tau_max: int | None = None  # grid is 1..min(p, n) unless overridden (capped at p)
    KINDS = ("table", "clt", "rate", "oracle-ratio", "consistency")  # of ``kind``; not a field
    kind: str = "table"
    tau_fixed: int | None = None  # clt only
    var_method: str | None = None  # clt only: one of theory.VAR_METHODS, or None = auto
    truncation_band: int | None = None
    threads: int = 0  # replication pool size; 0 and 1 both mean one worker

    def __post_init__(self) -> None:
        ints = ["n", "replications", "base_seed", "threads"]
        ints += [name for name in ("tau_max", "truncation_band") if getattr(self, name) is not None]
        for name in ints:
            value = getattr(self, name)
            if not _is_int(value):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if _is_int(self.tau_fixed):  # else clt_experiment words a bad tau like any other
            object.__setattr__(self, "tau_fixed", int(self.tau_fixed))
        for name, least in (("replications", 1), ("threads", 0)):
            if getattr(self, name) < least:
                raise ParameterError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.n < 4:
            raise ParameterError(f"experiments require n >= 4, got n={self.n}")
        for name, kinds in (("model", CovModel), ("scheme", WeightScheme)):
            if not isinstance(getattr(self, name), kinds):
                names = ", ".join(t.__name__ for t in kinds.__args__)
                raise ParameterError(f"{name} must be one of {names}, got {getattr(self, name)!r}")
        if not (isinstance(self.c_values, (tuple, list)) and self.c_values):
            raise ParameterError(f"c_values must be a non-empty tuple, got {self.c_values!r}")
        self.resolved_c()  # each c, as given, is 'logn' or a number, and is >= 2 at this n
        for name, allowed in (("kind", self.KINDS), ("var_method", (None, *VAR_METHODS))):
            if getattr(self, name) not in allowed:
                raise ParameterError(f"{name} must be in {allowed}, got {getattr(self, name)!r}")

    @property
    def p(self) -> int:
        return self.model.p

    def tau_grid(self) -> tuple[int, ...]:
        return default_tau_grid(self.p, self.n, self.tau_max)

    def resolved_c(self) -> dict[str, float]:
        values = [resolve_c(cv, self.n) for cv in self.c_values]  # before a bad c meets f"{cv:g}"
        return {cv if isinstance(cv, str) else f"{cv:g}": v for cv, v in zip(self.c_values, values)}

    def echo(self) -> dict:
        return {
            "model": _model_echo(self.model),
            "n": self.n,
            "p": self.p,
            "scheme": self.scheme.name,
            "c_values": [cv if isinstance(cv, str) else float(cv) for cv in self.c_values],
            "replications": self.replications,
            "base_seed": self.base_seed,
            "tau_grid": {"min": 1, "max": self.tau_grid()[-1]},
            "kind": self.kind,
            "tau_fixed": self.tau_fixed,
            "var_method": self.var_method,
            "truncation_band": self.truncation_band,
        }


_VARIANTS = {
    PolyDecay: "poly-decay",
    ArDecay: "ar-decay",
    BandedUniform: "banded-uniform",
    Explicit: "explicit",
}


def _model_echo(model: CovModel) -> dict:
    """The model's variant name and the fields its repr shows (so not ``Explicit.matrix``)."""
    shown = {f.name: getattr(model, f.name) for f in fields(model) if f.repr}
    return {"variant": _VARIANTS[type(model)], **shown}


@dataclass(frozen=True)
class ExperimentReport:
    """Config echo plus results (deterministic) and meta (timing etc.)."""

    config: dict
    results: dict
    meta: dict = field(default_factory=dict)

    def payload_bytes(self) -> bytes:
        """Canonical bytes of the deterministic part of the report."""
        payload = {"config": self.config, "results": self.results}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def to_json(self) -> str:
        doc = {"config": self.config, "results": self.results, "meta": self.meta}
        return json.dumps(doc, sort_keys=True, indent=2)


@dataclass(frozen=True)
class ReplicationRecord:
    """Per-replication outcome: selected tau and realized loss per c value."""

    rep_index: int
    seed: int
    tau_hat: dict[str, int]
    loss: dict[str, float]
    loss_curve: NDArray[np.float64]  # per-tau loss, c-independent


class _Draws:
    """A config's replications up to their band sums over ``grid``: the factor of
    ``model._draw_factor`` (built once), the SURE constants, worker arrays."""

    def __init__(self, config: ExperimentConfig, grid):
        self.config = config
        self.factor = _draw_factor(config.model)
        self.grid = _Grid(config.scheme, grid, config.n)
        self.cmap = config.resolved_c()
        self.consts = {k: sure_constants(config.n, c) for k, c in self.cmap.items()}
        self.local = threading.local()  # per worker thread: its rows and band_gram's arrays

    def sums(self, rep_index: int):
        """``(seed, band, s1, s2)`` of one replication: its seed, the band of its draw's MLE
        to the grid's ``dmax`` by ``band_gram`` (this worker's array, reused), its band sums."""
        cfg, ws = self.config, vars(self.local)
        if "data" not in ws:  # this worker's first replication
            ws["data"] = Dataset(rows=np.empty((cfg.n, cfg.p)))
        data = ws["data"]
        seed = derive_seed(cfg.base_seed, rep_index)
        # band_gram centres into the normals' array once they are drawn
        _draw(seed, self.factor, _buf(ws, "centred", data.rows.shape), data.rows)
        band, frob_sq = band_gram(data, self.grid.dmax, ws)
        s1, s2 = _band_sums(band, frob_sq)
        return seed, band, s1, s2


class _ExperimentContext(_Draws):
    """Replications over the config's tau grid with their losses: from Sigma's band to the grid's
    ``dmax`` and ``||Sigma||_F^2`` by ``_sigma_band`` (the oracle's too), the squared weights."""

    def __init__(self, config: ExperimentConfig):
        super().__init__(config, config.tau_grid())
        self.sigma_band, self.sig_sq = _sigma_band(config.model, self.grid.dmax)
        self.w_sq = self.grid.w**2

    def replicate(self, rep_index: int) -> ReplicationRecord:
        seed, band, s1, s2 = self.sums(rep_index)
        # no total: the tail bin it would fill has weight 0 at every tau
        cross = _sums(band, self.sigma_band)
        # loss(tau) = sum_d w^2 S1(d) - 2 w X(d) + T(d), all per-distance sums
        loss_curve = self.w_sq @ s1 - 2.0 * (self.grid.w @ cross) + self.sig_sq

        taus, sure = self.grid.taus, self.grid.sure
        tau_hat = {k: _smallest_argmin(taus, sure(s1, s2, c)) for k, c in self.consts.items()}
        loss = {k: float(loss_curve[taus.index(t)]) for k, t in tau_hat.items()}
        return ReplicationRecord(
            rep_index=rep_index, seed=seed, tau_hat=tau_hat, loss=loss, loss_curve=loss_curve
        )


def _map_ordered(fn, count: int, threads: int) -> list:
    """Apply fn to 0..count-1, returning results in index order.

    BLAS runs on one thread meanwhile: the pool is the parallelism, BLAS
    threads under it would oversubscribe the cores, and one BLAS thread at
    every pool size keeps the results bitwise independent of ``threads``.
    Every worker sets that count too, and the count from before the call comes
    back only after the last of any concurrent calls (see :class:`model._OneBlasThread`).
    """
    with _ONE_BLAS_THREAD:
        if threads <= 1 or count <= 1:
            return [fn(i) for i in range(count)]
        workers = min(threads, count)
        with ThreadPoolExecutor(workers, initializer=_set_blas_threads, initargs=(1,)) as ex:
            return list(ex.map(fn, range(count)))


def run_replication(config: ExperimentConfig, rep_index: int) -> ReplicationRecord:
    """One replication, deterministic in (config, rep_index).

    Prefer :func:`run_experiment` for many replications: this convenience
    entry rebuilds Sigma's band and its factor (if any) on every call.
    """
    ctx = _ExperimentContext(config)
    return _map_ordered(lambda _: ctx.replicate(rep_index), 1, 1)[0]  # BLAS as in run_experiment


def _mean_se(values: NDArray[np.float64]) -> tuple[float, float | None]:
    m = float(np.mean(values))
    if values.size < 2:
        return m, None  # SE undefined for a single replication
    sd = float(np.std(values, ddof=1))
    return m, sd / math.sqrt(values.size)


def _report(
    config: ExperimentConfig, results: dict, t0: float, echo: dict | None = None
) -> ExperimentReport:
    """The report of ``results`` under ``echo`` (``config``'s by default), with a ``meta``, never
    in ``payload_bytes``, of the time since ``t0`` and ``config``'s pool size."""
    meta = {"wall_time_s": time.perf_counter() - t0, "threads": max(config.threads, 1)}
    return ExperimentReport(config=config.echo() if echo is None else echo, results=results, meta=meta)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run all replications and aggregate (independent of scheduling order).

    The ``results`` section reports, per c value: mean loss and its standard
    error, the selection histogram over tau, and the mean selected tau;
    plus the exact oracle (min-risk tau and risk value at c = 2) and the
    empirical per-tau mean loss curve.
    """
    t0 = time.perf_counter()
    ctx = _ExperimentContext(config)
    records = _map_ordered(ctx.replicate, config.replications, config.threads)

    results: dict = {"per_c": {}}
    for key in ctx.cmap:
        losses = np.array([r.loss[key] for r in records])
        taus = [r.tau_hat[key] for r in records]
        mean, se = _mean_se(losses)
        hist: dict[str, int] = {}
        for t in taus:
            hist[str(t)] = hist.get(str(t), 0) + 1
        results["per_c"][key] = {
            "c": ctx.cmap[key],
            "mean_loss": mean,
            "se_loss": se,
            "selection_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
            "mean_selected_tau": float(np.mean(taus)),
        }

    curve = np.vstack([r.loss_curve for r in records])
    results["mean_loss_by_tau"] = [float(v) for v in curve.mean(axis=0)]
    oracle = _risk_profile(ctx.sigma_band, ctx.sig_sq, config.n, config.scheme, 2.0, ctx.grid.taus)
    results["oracle"] = {
        "tau": oracle.oracle_tau,
        "min_risk": oracle.min_value(),
    }
    return _report(config, results, t0)


def _single_c(config: ExperimentConfig) -> tuple[str, float]:
    cmap = config.resolved_c()
    if len(cmap) != 1:
        raise ParameterError(f"this experiment needs exactly one c value, got {list(cmap)}")
    return next(iter(cmap.items()))


def _model_theory(model: CovModel, n: int, scheme, grid, c: float, var=None):
    """A model's ``RiskProfile`` over ``grid`` and, given ``var = (method, truncation band)`` for
    ``_var_width``'s rule, its var_n there and the method and band the rule applied (else three
    Nones), off Sigma's band, read once, on one BLAS thread."""
    method, band, k = _var_width(model.p, *var, model) if var else (None, None, 0)
    sigma, frob_sq = _sigma_band(model, max(max(grid), k))
    with _ONE_BLAS_THREAD:
        risk = _risk_profile(sigma, frob_sq, n, scheme, c, grid)
        return risk, _var_profile(sigma[:, :k], n, scheme, grid, c) if var else None, method, band


def clt_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Standardize SURE_c(tau) at a fixed tau and test empirical normality.

    Computes ``(SURE_c(tau) - R_c(tau)) / sqrt(Var_n(tau))`` per replication
    and reports the sample mean and variance of the standardized statistic and
    its KS distance to the standard normal.
    """
    t0 = time.perf_counter()
    if config.tau_fixed is None:
        raise ParameterError("clt experiment requires tau_fixed")
    if config.replications < 2:
        raise DataError("clt experiment needs >= 2 replications (KS undefined)")
    (tau,) = _check_grid((config.tau_fixed,))
    ckey, c = _single_c(config)
    rule = (config.var_method, config.truncation_band)
    risks, var, method, band = _model_theory(config.model, config.n, config.scheme, (tau,), c, rule)
    ctx = _Draws(config, (tau,))
    risk, scale = risks.values[0], math.sqrt(var[0])
    consts = ctx.consts[ckey]

    def one(rep_index: int) -> float:
        _, _, s1, s2 = ctx.sums(rep_index)
        return (float(ctx.grid.sure(s1, s2, consts)[0]) - float(risk)) / scale

    sample = np.array(_map_ordered(one, config.replications, config.threads))

    results = {
        "c_key": ckey,
        "tau": tau,
        "risk": float(risk),
        "var_n": float(var[0]),
        "var_method": method,
        "truncation_band": band,
        "standardized_mean": float(np.mean(sample)),
        "standardized_var": float(np.var(sample, ddof=1)),
        "ks_distance": ks_statistic(sample),
    }
    return _report(config, results, t0)


def fit_loglog_slope(ns: NDArray[np.float64], losses: NDArray[np.float64]) -> float:
    """Least-squares slope of log(loss) against log(n)."""
    if np.allclose(losses, losses[0]):
        return 0.0
    return float(np.polyfit(np.log(ns), np.log(losses), 1)[0])


def rate_experiment(
    alpha: float,
    rho: float,
    p: int,
    n_list: list[int],
    reps: int,
    base_seed: int = 0,
) -> ExperimentReport:
    """Fit the decay exponent of the SURE-tuned loss in n.

    The benchmark exponent for covariances decaying like ``|i-j|^-(alpha+1)``
    is ``-(2*alpha+1)/(2*(alpha+1))``.
    """
    t0 = time.perf_counter()
    if len(n_list) < 3:
        raise ParameterError(f"rate experiment needs >= 3 sample sizes, got {n_list}")
    model = PolyDecay(rho=rho, alpha=alpha, p=p)
    per_n = []
    for n in n_list:
        config = ExperimentConfig(
            model=model,
            n=n,
            scheme=Banding(),
            c_values=(2.0,),
            replications=reps,
            base_seed=derive_seed(base_seed, n),
            kind="rate",
        )
        report = run_experiment(config)
        stats = report.results["per_c"]["2"]
        per_n.append({"n": n, "mean_loss": stats["mean_loss"], "se_loss": stats["se_loss"]})
    slope = fit_loglog_slope(
        np.array([row["n"] for row in per_n], dtype=float),
        np.array([row["mean_loss"] for row in per_n]),
    )
    results = {
        "per_n": per_n,
        "fitted_slope": slope,
        "theoretical_slope": -(2 * alpha + 1) / (2 * (alpha + 1)),
    }
    config_echo = {
        "model": _model_echo(model),
        "n_list": list(n_list),
        "replications": reps,
        "base_seed": base_seed,
        "kind": "rate",
    }
    return _report(config, results, t0, config_echo)


def oracle_ratio_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Mean SURE-tuned loss divided by the oracle risk ``R(tau_0)``."""
    t0 = time.perf_counter()
    ckey, _ = _single_c(config)
    report = run_experiment(config)
    stats = report.results["per_c"][ckey]
    oracle = report.results["oracle"]
    ratio = stats["mean_loss"] / oracle["min_risk"]
    se = stats["se_loss"]
    results = {
        "mean_loss": stats["mean_loss"],
        "oracle_tau": oracle["tau"],
        "oracle_risk": oracle["min_risk"],
        "ratio": ratio,
        "ratio_half_width": (1.96 * se / oracle["min_risk"]) if se is not None else None,
    }
    return _report(config, results, t0)


def consistency_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Bandwidth recovery of the log(n)-penalized criterion on banded models.

    Reports, at the config's n, the fraction of replications with the
    ``c = log n`` selection equal to the true bandwidth ``k0``, and the
    fraction with the ``c = 2`` selection inside ``[k0, k0 + ceil(log n)]``.
    """
    t0 = time.perf_counter()
    k0 = model_bandwidth(config.model)
    if k0 is None:
        raise ParameterError("consistency experiment requires a model with an exact bandwidth")
    per_c = run_experiment(replace(config, c_values=(2.0, "logn"), kind="consistency")).results["per_c"]
    hist_logn = per_c["logn"]["selection_histogram"]
    hist_sure2 = per_c["2"]["selection_histogram"]
    window_hi = k0 + math.ceil(math.log(config.n))
    in_window = sum(v for t, v in hist_sure2.items() if k0 <= int(t) <= window_hi)
    per_n = [{
        "n": config.n,
        "frac_logn_equals_k0": hist_logn.get(str(k0), 0) / config.replications,
        "frac_sure2_in_window": in_window / config.replications,
        "window": [k0, window_hi],
        "histogram_logn": hist_logn,
        "histogram_sure2": hist_sure2,
    }]
    return _report(config, {"k0": k0, "per_n": per_n}, t0)


# --- presets -------------------------------------------------------------

#: Table-1 style benchmark variants (banding, n=250, p=500, 100 replications)
TABLE1_VARIANTS: dict[str, CovModel] = {
    "model1-a05": PolyDecay(rho=0.6, alpha=0.5, p=500),
    "model1-a01": PolyDecay(rho=0.6, alpha=0.1, p=500),
    "model2-r095": ArDecay(rho=0.95, p=500),
    "model2-r05": ArDecay(rho=0.5, p=500),
}


def _preset(model: CovModel, fast: bool, replications: int | None, **fields) -> ExperimentConfig:
    """A benchmark preset: banding at n=250, with ``replications`` (30 if ``fast``, else 100)."""
    if replications is None:
        replications = 30 if fast else 100
    return ExperimentConfig(model=model, n=250, scheme=Banding(), replications=replications, **fields)


def table1_config(
    variant: str,
    fast: bool = False,
    replications: int | None = None,
    base_seed: int = 0,
) -> ExperimentConfig:
    """Benchmark preset: SURE_2-tuned banding on the decay models."""
    if variant not in TABLE1_VARIANTS:
        raise ParameterError(
            f"unknown table1 variant {variant!r}; choose from {sorted(TABLE1_VARIANTS)}"
        )
    model = TABLE1_VARIANTS[variant]
    return _preset(replace(model, p=100) if fast else model, fast, replications, base_seed=base_seed)


def table2_config(
    p: int = 500,
    fast: bool = False,
    replications: int | None = None,
    base_seed: int = 0,
    unit_diagonal: bool = False,
) -> ExperimentConfig:
    """Benchmark preset: bandwidth selection on the exactly banded model."""
    model = BandedUniform(k0=5, offdiag=0.25, p=min(p, 100) if fast else p, unit_diagonal=unit_diagonal)
    return _preset(
        model, fast, replications, c_values=(2.0, "logn"), base_seed=base_seed, kind="consistency"
    )
