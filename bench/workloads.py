"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one operation through
surecov's public API or CLI, and checks every output after the timed region.
The two simulation workloads can also replay their replications through the
public per-layer calls (``sample_dataset`` -> ``mle_cov`` -> ``band_sums`` ->
``profile_values``) for the traced run, and check that the replay selects the
same tau as the engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import surecov
import surecov.cli
import surecov.criterion
import surecov.sim
import surecov.theory
from surecov import (
    ArDecay,
    Banding,
    BandedUniform,
    Dataset,
    ExperimentConfig,
    band_sums,
    build_sigma,
    cholesky_factor,
    clt_experiment,
    derive_seed,
    ks_statistic,
    mle_cov,
    profile_values,
    risk_profile,
    run_experiment,
    run_replication,
    sample_dataset,
    sure_constants,
    sure_eq2_reference,
    table1_config,
    var_n,
)


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``SMOKE`` keeps every check but finishes in seconds."""

    table_reps: int
    clt_reps: int
    select_n: int
    select_p: int
    risk_p: int


FULL = Scale(table_reps=100, clt_reps=5000, select_n=100, select_p=5000, risk_p=1000)
SMOKE = Scale(table_reps=4, clt_reps=200, select_n=40, select_p=300, risk_p=60)
SCALES = {"full": FULL, "smoke": SMOKE}

# Calls into each layer that the traced run wraps in spans.  A name is looked
# up where its caller finds it (``cmd_select`` calls ``surecov.cli.mle_cov``,
# ``sure_profile`` calls ``surecov.criterion.band_sums``, ...).
LAYER_TARGETS = [
    (surecov.cli, "main", "cli.main"),
    (surecov.cli, "read_matrix_csv", "cli.read_matrix_csv"),
    (surecov.cli, "write_profile_csv", "cli.write_profile_csv"),
    (surecov.cli, "write_estimate", "cli.write_estimate"),
    (surecov.cli, "build_sigma", "model.build_sigma"),
    (surecov.cli, "mle_cov", "estimate.mle_cov"),
    (surecov.cli, "taper", "estimate.taper"),
    (surecov.cli, "sure_profile", "criterion.sure_profile"),
    (surecov.cli, "risk_profile", "theory.risk_profile"),
    (surecov.cli, "var_n", "theory.var_n"),
    (surecov.criterion, "band_sums", "criterion.band_sums"),
    (surecov.criterion, "profile_values", "criterion.profile_values"),
    (surecov.theory, "band_sums", "criterion.band_sums"),
    (surecov.sim, "build_sigma", "model.build_sigma"),
    (surecov.sim, "cholesky_factor", "model.cholesky_factor"),
    (surecov.sim, "band_sums", "criterion.band_sums"),
    (surecov.sim, "profile_values", "criterion.profile_values"),
    (surecov.sim, "risk_profile", "theory.risk_profile"),
    (surecov.sim, "var_n", "theory.var_n"),
]

REL_TOL = 1e-10


def smallest_argmin(grid, values) -> int:
    best = min(values)
    return min(t for t, v in zip(grid, values) if v == best)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def useful_entry_ratio(p: int, tau_max: int) -> float:
    """Share of the p*p entries with |i-j| < tau_max (computed, not measured)."""
    k = min(tau_max, p)
    return (p + 2 * (k - 1) * p - k * (k - 1)) / (p * p)


class Workload:
    name = ""
    sim = False
    reps_per_op = 1

    def __init__(self, seed: int, scale: Scale, workdir: Path | None = None):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def make_inputs(self) -> None:
        """Write the benchmark's own input files (not part of set-up time)."""

    def prepare(self) -> None:
        """The workload's one-off preparation through public calls."""

    def run(self):
        """One workload operation; the only timed call."""
        raise NotImplementedError

    def capture(self, raw):
        """Turn a run's result into the output that is checked."""
        return raw

    def check(self, outputs: list) -> list[list[str]]:
        """Errors per output (an empty list means the output is correct)."""
        raise NotImplementedError

    def computed(self) -> dict[str, float]:
        """Counts derived from sizes: flops, bytes of one p x p array, entry ratio."""
        raise NotImplementedError


class _SimWorkload(Workload):
    sim = True

    config: ExperimentConfig
    experiment = staticmethod(run_experiment)

    def __init__(self, seed, scale, workdir=None):
        super().__init__(seed, scale, workdir)
        self._baseline = None
        self.baseline_s = 0.0

    @property
    def reps_per_op(self) -> int:
        return self.config.replications

    def prepare(self) -> None:
        cholesky_factor(build_sigma(self.config.model))

    def run(self):
        return self.experiment(self.config)

    def baseline(self):
        """The same experiment at threads=1, timed once (it is also the check's reference)."""
        if self._baseline is None:
            t0 = time.perf_counter()
            self._baseline = self.experiment(replace(self.config, threads=1))
            self.baseline_s = time.perf_counter() - t0
        return self._baseline

    def check(self, outputs):
        expected = self.baseline().payload_bytes()
        base_errors = self.check_report(self.baseline())
        return [
            (["payload differs from the threads=1 run"] if r.payload_bytes() != expected else [])
            + base_errors
            for r in outputs
        ]

    def check_report(self, report) -> list[str]:
        raise NotImplementedError

    def computed(self):
        cfg = self.config
        return {
            "model.draw_gflop": 2.0 * cfg.n * cfg.p**2 / 1e9,
            "estimate.gram_gflop": 2.0 * cfg.n * cfg.p**2 / 1e9,
            "estimate.p2_array_mb": cfg.p**2 * 8 / 2**20,
            "criterion.useful_entry_ratio": useful_entry_ratio(cfg.p, cfg.tau_grid()[-1]),
        }

    def replay(self, tracer) -> list[str]:
        """Replay every replication through the public per-layer calls.

        Alongside each one, ``run_replication`` runs the same replication in
        the engine; the replay must select the same tau.  Returns parity errors.
        """
        cfg = self.config
        for _ in range(3):  # one-off calls, repeated for a median
            with tracer.span("model.build_sigma"):
                sigma = build_sigma(cfg.model)
            with tracer.span("model.cholesky_factor"):
                chol = cholesky_factor(sigma)
        self.replay_theory(tracer, sigma)
        grid = cfg.tau_grid()
        consts = {k: sure_constants(cfg.n, c) for k, c in cfg.resolved_c().items()}
        errors: list[str] = []
        self.replayed: list[dict[str, int]] = []
        self.replayed_values: list[np.ndarray] = []
        for r in range(cfg.replications):
            with tracer.span("sim.replay"):
                with tracer.span("model.sample_dataset"):
                    data = sample_dataset(sigma, cfg.n, derive_seed(cfg.base_seed, r), chol=chol)
                with tracer.span("estimate.mle_cov"):
                    s = mle_cov(data)
                with tracer.span("criterion.band_sums"):
                    s1, s2 = band_sums(s)
                tau_hat = {}
                for key, k in consts.items():
                    with tracer.span("criterion.profile_values"):
                        values = profile_values(s1, s2, k, cfg.scheme, grid)
                    tau_hat[key] = smallest_argmin(grid, values)
            with tracer.span("sim.run_replication"):
                record = run_replication(cfg, r)
            if record.tau_hat != tau_hat:
                errors.append(f"replication {r}: replay tau {tau_hat} != engine {record.tau_hat}")
            self.replayed.append(tau_hat)
            self.replayed_values.append(values)
        return errors + self.replay_parity()

    def replay_theory(self, tracer, sigma) -> None:
        raise NotImplementedError

    def replay_parity(self) -> list[str]:
        raise NotImplementedError


class Table(_SimWorkload):
    """ROADMAP W1: the paper's loss table for model2-r05 (p=500, n=250)."""

    name = "table"
    # acceptance gate 03 for model2-r05: oracle min-risk within 5% of 22.37;
    # the oracle tau depends on Sigma alone and is 4
    ORACLE_TAU = 4
    MIN_RISK = (22.37, 0.05)

    def __init__(self, seed, scale, workdir=None):
        super().__init__(seed, scale, workdir)
        self.config = table1_config("model2-r05", replications=scale.table_reps, base_seed=seed)

    def check_report(self, report):
        oracle = report.results["oracle"]
        ref, tol = self.MIN_RISK
        errors = []
        if oracle["tau"] != self.ORACLE_TAU:
            errors.append(f"oracle tau {oracle['tau']} != {self.ORACLE_TAU}")
        if not abs(oracle["min_risk"] - ref) <= tol * ref:
            errors.append(f"oracle min-risk {oracle['min_risk']} not within {tol:.0%} of {ref}")
        return errors

    def replay_theory(self, tracer, sigma):
        cfg = self.config
        with tracer.span("theory.risk_profile"):  # the oracle run_experiment reports
            risk_profile(sigma, cfg.n, cfg.scheme, 2.0, cfg.tau_grid())

    def replay_parity(self):
        errors = []
        per_c = self.baseline().results["per_c"]
        for key, stats in per_c.items():
            hist: dict[str, int] = {}
            for tau_hat in self.replayed:
                hist[str(tau_hat[key])] = hist.get(str(tau_hat[key]), 0) + 1
            if hist != stats["selection_histogram"]:
                errors.append(f"c={key}: replay histogram {hist} != run_experiment {stats['selection_histogram']}")
        return errors


class CltSmall(_SimWorkload):
    """ROADMAP W2 regime: many tiny replications, where per-replication overhead dominates."""

    name = "clt-small"
    experiment = staticmethod(clt_experiment)

    def __init__(self, seed, scale, workdir=None):
        super().__init__(seed, scale, workdir)
        self.config = ExperimentConfig(
            model=ArDecay(rho=0.5, p=10),
            n=20,
            c_values=(2.0,),
            replications=scale.clt_reps,
            base_seed=seed,
            kind="clt",
            tau_fixed=3,
            var_method="exact",
        )

    def check_report(self, report):
        res = report.results
        stats = [res["risk"], res["var_n"], res["standardized_mean"], res["standardized_var"], res["ks_distance"]]
        if not all(math.isfinite(v) for v in stats) or res["var_n"] <= 0:
            return [f"non-finite or non-positive statistics {stats}"]
        return []

    def replay_theory(self, tracer, sigma):
        cfg = self.config
        tau, c = cfg.tau_fixed, 2.0
        with tracer.span("theory.risk_profile"):
            self.risk = risk_profile(sigma, cfg.n, cfg.scheme, c, (tau,)).values[0]
        with tracer.span("theory.var_n"):
            self.var = var_n(sigma, cfg.n, cfg.scheme, tau, c, method=cfg.var_method).value

    def replay_parity(self):
        # the standardized statistic of every replayed replication must give
        # the statistics clt_experiment reports
        cfg = self.config
        k = cfg.tau_grid().index(cfg.tau_fixed)
        sample = np.array(
            [(float(v[k]) - float(self.risk)) / math.sqrt(self.var) for v in self.replayed_values]
        )
        res = self.baseline().results
        got = {
            "standardized_mean": float(np.mean(sample)),
            "standardized_var": float(np.var(sample, ddof=1)),
            "ks_distance": ks_statistic(sample),
        }
        return [
            f"{key}: replay {value!r} != clt_experiment {res[key]!r}"
            for key, value in got.items()
            if rel_err(value, res[key]) > 1e-9
        ]


class _CliWorkload(Workload):
    argv: list[str]

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = surecov.cli.main(self.argv)
        return rc, buf.getvalue()

    def check(self, outputs):
        # every operation reads the same input, so all outputs must be equal
        first = outputs[0]
        errors = self.check_first(first)
        return [errors + ([] if o == first else ["output differs from the first operation"]) for o in outputs]

    def check_first(self, output) -> list[str]:
        raise NotImplementedError


class SelectWide(_CliWorkload):
    """p >> n tuning from a CSV: the cli ingest path and the dense criterion."""

    name = "select-wide"
    # MA(4) coefficients: the covariance is zero from lag 5 on (bandwidth 5)
    THETA = (1.0, 0.8, 0.6, 0.4, 0.3)

    def __init__(self, seed, scale, workdir=None):
        super().__init__(seed, scale, workdir)
        self.n, self.p = scale.select_n, scale.select_p

    def make_inputs(self):
        rng = np.random.Generator(np.random.Philox(self.seed))
        lag = len(self.THETA) - 1
        e = rng.standard_normal((self.n, self.p + lag))
        self.data = sum(w * e[:, lag - k : lag - k + self.p] for k, w in enumerate(self.THETA))
        self.csv = self.workdir / "select-wide.csv"
        self.profile_path = self.workdir / "profile.csv"
        self.estimate_path = self.workdir / "estimate.csv"
        with open(self.csv, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"x{j + 1}" for j in range(self.p)) + "\n")
            for row in self.data:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        self.csv_bytes = self.csv.stat().st_size
        self.argv = [
            "select", "--data", str(self.csv), "--c", "logn", "--format", "band",
            "--profile-out", str(self.profile_path), "--estimate-out", str(self.estimate_path),
        ]

    def capture(self, raw):
        rc, out = raw
        profile = self.profile_path.read_text(encoding="utf-8")
        estimate = self.estimate_path.read_bytes()
        return rc, out, profile, hashlib.sha256(estimate).hexdigest()

    def check_first(self, output) -> list[str]:
        rc, out, profile, _ = output
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(out)
        rows = [line.split(",") for line in profile.splitlines()[1:]]
        grid = [int(t) for t, _ in rows]
        values = [float(v) for _, v in rows]
        tau_hat = report["results"]["selected_tau"]
        errors = []
        if tau_hat != smallest_argmin(grid, values):
            errors.append(f"selected tau {tau_hat} is not the smallest argmin of the profile")
        if [[t, v] for t, v in zip(grid, values)] != report["results"]["profile"]:
            errors.append("profile file and report disagree")
        s = mle_cov(Dataset(rows=self.data))
        consts = sure_constants(self.n, math.log(self.n))
        for tau in (tau_hat - 1, tau_hat, tau_hat + 1):
            if tau in grid:
                ref = sure_eq2_reference(s, consts, Banding(), tau)
                if rel_err(values[grid.index(tau)], ref) > REL_TOL:
                    errors.append(f"tau={tau}: profile {values[grid.index(tau)]!r} != reference {ref!r}")
        lines = self.estimate_path.read_text(encoding="utf-8").splitlines()
        expected = tau_hat * self.p - tau_hat * (tau_hat - 1) // 2
        if len(lines) != expected:
            errors.append(f"{len(lines)} estimate triplets, expected {expected}")
        for line in lines:
            i, j, v = line.split(",")
            i, j = int(i) - 1, int(j) - 1
            if not 0 <= j - i < tau_hat or rel_err(float(v), s[i, j]) > REL_TOL:
                errors.append(f"bad estimate triplet {line!r}")
                break
        return errors

    def computed(self):
        tau_max = min(self.n, self.p)
        return {
            "estimate.gram_gflop": 2.0 * self.n * self.p**2 / 1e9,
            "estimate.p2_array_mb": self.p**2 * 8 / 2**20,
            "criterion.useful_entry_ratio": useful_entry_ratio(self.p, tau_max),
        }


class RiskVar(_CliWorkload):
    """ROADMAP W5 at p=1000: exact risk profile plus var_n per tau."""

    name = "risk-var"
    K0 = 5
    TAU_MAX = 8

    def __init__(self, seed, scale, workdir=None):
        super().__init__(seed, scale, workdir)
        self.p = scale.risk_p
        self.argv = [
            "risk", "--model", "banded-uniform", "--k0", str(self.K0), "--p", str(self.p),
            "--n", "250", "--scheme", "czz", "--tau-max", str(self.TAU_MAX), "--with-var",
            "--var-method", "banded-truncated", "--truncation-band", str(self.K0),
        ]

    def prepare(self):
        build_sigma(BandedUniform(k0=self.K0, offdiag=0.25, p=self.p))

    def check_first(self, output) -> list[str]:
        rc, out = output
        if rc != 0:
            return [f"exit code {rc}"]
        lines = out.splitlines()
        rows = [[float(x) for x in line.split(",")] for line in lines[1:-1]]
        errors = []
        if lines[0] != "tau,risk,var_n" or [int(r[0]) for r in rows] != list(range(1, self.TAU_MAX + 1)):
            errors.append("unexpected table layout")
        if not all(math.isfinite(v) and v > 0 for r in rows for v in r[1:]):
            errors.append("risk or var_n not finite and positive")
        # acceptance gate 09: on banded-uniform models the oracle is 2*k0 - 3
        if lines[-1] != f"# oracle_tau = {2 * self.K0 - 3}":
            errors.append(f"oracle line {lines[-1]!r}, expected tau {2 * self.K0 - 3}")
        return errors

    def computed(self):
        return {"estimate.p2_array_mb": self.p**2 * 8 / 2**20}


WORKLOADS = {w.name: w for w in (Table, CltSmall, SelectWide, RiskVar)}
