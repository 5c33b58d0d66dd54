"""Replication engine: seeding, determinism, KS machinery, experiments."""

import json
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from surecov import cli, sim
from surecov.criterion import _band_sums, sure_constants, sure_profile
from surecov.errors import DataError, ParameterError
from surecov.estimate import _BLOCK, Banding, CzzTaper, band_gram, mle_cov, taper
from surecov.model import (
    ArDecay,
    BandedUniform,
    Dataset,
    Explicit,
    PolyDecay,
    _blas_thread_setter,
    build_sigma,
    cholesky_factor,
    sample_dataset,
)
from surecov.sim import (
    ExperimentConfig,
    _ExperimentContext,
    _map_ordered,
    _model_echo,
    clt_experiment,
    consistency_experiment,
    derive_seed,
    fit_loglog_slope,
    ks_statistic,
    normal_cdf,
    oracle_ratio_experiment,
    rate_experiment,
    run_experiment,
    run_replication,
    table1_config,
    table2_config,
)
from surecov.theory import VAR_EXACT_CAP, risk_profile, var_n


def test_derive_seed_stable_and_distinct():
    assert derive_seed(0, 0) == 1041621211125469266  # frozen: must never change
    assert derive_seed(7, 3) == 3405383674353699258
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(0, 0) != derive_seed(1, 0)
    # chaining and out-of-range ints are fine (reduced mod 2**64)
    assert derive_seed(-1, 2**80 + 5) == derive_seed(-1 % 2**64, 5)


def test_normal_cdf_reference_values():
    assert normal_cdf(0.0) == 0.5
    # Abramowitz & Stegun 26.2
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)
    assert normal_cdf(2.0) == pytest.approx(0.9772498680518208, abs=1e-14)
    assert normal_cdf(-1.0) == pytest.approx(1 - normal_cdf(1.0), abs=1e-15)
    assert normal_cdf(8.0) > 1 - 1e-14


def test_ks_statistic():
    # a sample at the exact normal quantiles of (i-1/2)/m has KS = 1/(2m)
    m = 100
    from_quantiles = np.array(
        [_normal_quantile((i + 0.5) / m) for i in range(m)]
    )
    assert ks_statistic(from_quantiles) == pytest.approx(1 / (2 * m), abs=1e-6)
    # two extreme points: empirical CDF jumps to 0.5 where Phi ~ 0 -> KS 0.5
    assert ks_statistic(np.array([-10.0, 10.0])) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DataError):
        ks_statistic(np.array([1.0]))


def _normal_quantile(q, lo=-10.0, hi=10.0):
    for _ in range(200):
        mid = (lo + hi) / 2
        if normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_config_validation():
    model = ArDecay(rho=0.5, p=8)
    with pytest.raises(ParameterError):
        ExperimentConfig(model=model, n=30, replications=0)
    with pytest.raises(ParameterError):
        ExperimentConfig(model=model, n=3)
    with pytest.raises(ParameterError):
        ExperimentConfig(model=model, n=30, c_values=())
    with pytest.raises(ParameterError):
        ExperimentConfig(model=model, n=30, c_values=("lgn",))
    # these used to run, echoing the bad value, or run one worker for threads < 0
    with pytest.raises(ParameterError, match="kind must be in .*'consistency'.*, got 'bogus'"):
        ExperimentConfig(model=model, n=30, kind="bogus")
    with pytest.raises(ParameterError, match="var_method must be in .*'banded-truncated'.*, got 'nonsense'"):
        ExperimentConfig(model=model, n=30, var_method="nonsense")
    with pytest.raises(ParameterError, match="threads must be >= 0, got -4"):
        ExperimentConfig(model=model, n=30, threads=-4)
    with pytest.raises(ParameterError, match="threads must be >= 0, got -4"):
        run_experiment(ExperimentConfig(model=ArDecay(0.5, 10), n=10, replications=2, kind="bogus",
                                        var_method="nonsense", threads=-4))


@pytest.mark.parametrize("field, value, message", [
    ("scheme", "banding", "scheme must be one of Banding, CzzTaper, CustomToeplitz, got 'banding'"),
    ("model", "ar", "model must be one of PolyDecay, ArDecay, BandedUniform, Explicit, got 'ar'"),
    ("c_values", "logn", "c_values must be a non-empty tuple, got 'logn'"),
    ("c_values", 2.0, "c_values must be a non-empty tuple, got 2.0"),
    ("c_values", (1.0,), r"penalty multiplier c must be finite and >= 2, got c=1.0"),
    ("c_values", (None,), "penalty multiplier c must be a real number or 'logn', got None"),
], ids=["scheme-name", "model-name", "c-string", "c-number", "c-below-2", "c-none"])
def test_bad_config_values_are_refused_when_the_config_is_built(field, value, message):
    # each used to pass until the experiment ran: an AttributeError for the first two, "logn"
    # read one character at a time, and c = 1 refused only when the experiment ran; c = None
    # ended in a TypeError from formatting its key
    with pytest.raises(ParameterError, match=f"^{message}$"):
        ExperimentConfig(**{"model": ArDecay(rho=0.5, p=8), "n": 30, field: value})


@pytest.mark.parametrize("kind", ["table", "clt", "rate", "oracle-ratio", "consistency"])
@pytest.mark.parametrize("var_method", [None, "exact", "banded-truncated"])
def test_every_kind_and_var_method_in_use_is_a_valid_config(kind, var_method):
    cfg = ExperimentConfig(model=ArDecay(rho=0.5, p=6), n=20, kind=kind, var_method=var_method)
    assert (cfg.echo()["kind"], cfg.echo()["var_method"]) == (kind, var_method)


def test_rate_experiment_needs_three_sample_sizes():
    with pytest.raises(ParameterError, match=r"rate experiment needs >= 3 sample sizes, got \[10, 20\]"):
        rate_experiment(alpha=0.5, rho=0.6, p=8, n_list=[10, 20], reps=2)


def test_numpy_integer_config_fields_give_python_int_payloads():
    # a numpy integer used to end a finished run in a JSON TypeError (tau_fixed)
    # or in a bare OverflowError from derive_seed (base_seed)
    model = ArDecay(rho=0.5, p=6)
    plain = ExperimentConfig(model=model, n=20, replications=3, base_seed=3, kind="clt",
                             tau_fixed=2, var_method="exact")
    numpy = ExperimentConfig(model=model, n=np.int64(20), replications=np.int32(3),
                             base_seed=np.int64(3), kind="clt", tau_fixed=np.int64(2),
                             var_method="exact", threads=np.int8(1))
    assert all(type(getattr(numpy, name)) is int
               for name in ("n", "replications", "base_seed", "tau_fixed", "threads"))
    assert clt_experiment(numpy).payload_bytes() == clt_experiment(plain).payload_bytes()
    table = ExperimentConfig(model=model, n=20, replications=2, base_seed=np.int64(3),
                             tau_max=np.int16(4))
    assert run_experiment(table).payload_bytes() == run_experiment(
        ExperimentConfig(model=model, n=20, replications=2, base_seed=3, tau_max=4)
    ).payload_bytes()


@pytest.mark.parametrize("numpy, plain", [
    (ArDecay(rho=0.5, p=np.int64(6)), ArDecay(rho=0.5, p=6)),
    (PolyDecay(rho=0.6, alpha=0.5, p=np.int32(6)), PolyDecay(rho=0.6, alpha=0.5, p=6)),
    (BandedUniform(k0=np.int64(2), offdiag=0.25, p=np.int64(8)),
     BandedUniform(k0=2, offdiag=0.25, p=8)),
])
def test_numpy_integer_model_fields_give_python_int_payloads(numpy, plain):
    # a numpy p or k0 used to end a finished run in a JSON TypeError
    numpy_run, plain_run = (run_experiment(ExperimentConfig(model=m, n=20, replications=2))
                            for m in (numpy, plain))
    assert numpy_run.payload_bytes() == plain_run.payload_bytes()


def test_explicit_model_runs_like_the_model_it_copies():
    """An ``Explicit`` copy of a banded model gives the same results: the same
    sigma, and under clt's automatic var method the same bandwidth."""
    banded = BandedUniform(k0=3, offdiag=0.3, p=10)
    explicit = Explicit(matrix=build_sigma(banded))
    for kind, experiment, extra in [
        ("table", run_experiment, {"c_values": (2.0, "logn")}),
        ("clt", clt_experiment, {"tau_fixed": 3}),
    ]:
        reports = [
            experiment(ExperimentConfig(model=m, n=30, replications=5, kind=kind, **extra))
            for m in (explicit, banded)
        ]
        assert reports[0].config["model"] == {"variant": "explicit", "p": 10}
        assert reports[0].results == reports[1].results


@pytest.mark.parametrize("field, value, message", [
    ("n", 20.0, "n must be an integer"),
    ("replications", 2.5, "replications must be an integer"),
    ("base_seed", "3", "base_seed must be an integer"),
    ("tau_max", 4.0, "tau_max must be an integer"),
    ("truncation_band", 1.5, "truncation_band must be an integer"),
    ("threads", None, "threads must be an integer"),
])
def test_non_integer_config_fields_are_parameter_errors(field, value, message):
    with pytest.raises(ParameterError, match=message):
        ExperimentConfig(model=ArDecay(rho=0.5, p=6), **{"n": 20, field: value})


@pytest.mark.parametrize("tau", [np.float64(2.0), 0])
def test_bad_tau_fixed_is_checked_by_clt_after_its_replications(tau):
    # the config leaves a bad tau_fixed to clt_experiment, which checks the
    # replication count first (exit 3 before exit 2 on the command line)
    model = ArDecay(rho=0.5, p=6)
    two = ExperimentConfig(model=model, n=20, replications=2, kind="clt", tau_fixed=tau)
    with pytest.raises(ParameterError, match="tau must be a positive integer"):
        clt_experiment(two)
    one = ExperimentConfig(model=model, n=20, replications=1, kind="clt", tau_fixed=tau)
    with pytest.raises(DataError, match="needs >= 2 replications"):
        clt_experiment(one)


@pytest.mark.parametrize("field", ["replications", "n", "base_seed", "tau_max", "threads"])
def test_bool_config_fields_are_parameter_errors(field):
    # replications=True used to run one replication
    with pytest.raises(ParameterError, match=f"{field} must be an integer, got True"):
        ExperimentConfig(model=ArDecay(rho=0.5, p=6), **{"n": 20, field: True})


def test_bool_tau_fixed_is_checked_by_clt():
    cfg = ExperimentConfig(model=ArDecay(rho=0.5, p=6), n=20, replications=2, kind="clt",
                           tau_fixed=True)
    with pytest.raises(ParameterError, match="tau must be a positive integer, got True"):
        clt_experiment(cfg)


def test_model_echo_is_frozen():
    assert _model_echo(PolyDecay(rho=0.6, alpha=0.5, p=40)) == {
        "variant": "poly-decay", "rho": 0.6, "alpha": 0.5, "p": 40,
    }
    assert _model_echo(ArDecay(rho=0.5, p=30)) == {"variant": "ar-decay", "rho": 0.5, "p": 30}
    for unit in (False, True):
        assert _model_echo(BandedUniform(k0=5, offdiag=0.25, p=20, unit_diagonal=unit)) == {
            "variant": "banded-uniform", "k0": 5, "offdiag": 0.25, "p": 20, "unit_diagonal": unit,
        }
    assert _model_echo(Explicit(matrix=np.eye(3))) == {"variant": "explicit", "p": 3}


def test_rate_experiment_config_echo_is_frozen():
    report = rate_experiment(alpha=0.5, rho=0.6, p=8, n_list=[10, 20, 40], reps=2, base_seed=5)
    assert report.config == {
        "model": {"variant": "poly-decay", "rho": 0.6, "alpha": 0.5, "p": 8},
        "n_list": [10, 20, 40],
        "replications": 2,
        "base_seed": 5,
        "kind": "rate",
    }


def test_resolved_c_keys():
    cfg = ExperimentConfig(model=ArDecay(rho=0.5, p=8), n=30, c_values=(2.0, "logn", 3.5))
    cmap = cfg.resolved_c()
    assert cmap["2"] == 2.0
    assert cmap["logn"] == pytest.approx(math.log(30))
    assert cmap["3.5"] == 3.5


def _small_config(threads=1, reps=12):
    return ExperimentConfig(
        model=BandedUniform(k0=3, offdiag=0.3, p=24),
        n=40,
        c_values=(2.0, "logn"),
        replications=reps,
        base_seed=99,
        threads=threads,
    )


def test_every_replication_keeps_its_loss_curve():
    cfg = _small_config()
    record = run_replication(cfg, 3)
    assert record.loss_curve.shape == (len(cfg.tau_grid()),)
    tau = record.tau_hat["2"]
    assert record.loss["2"] == record.loss_curve[cfg.tau_grid().index(tau)]


def test_logn_below_two_names_logn():
    with pytest.raises(ParameterError, match=r"got logn = log\(5\)$"):
        ExperimentConfig(model=BandedUniform(k0=3, offdiag=0.3, p=8), n=5, c_values=("logn",))


def test_payload_bytes_identical_across_thread_counts():
    r1 = run_experiment(_small_config(threads=1))
    r3 = run_experiment(_small_config(threads=3))
    assert r1.payload_bytes() == r3.payload_bytes()
    # meta is excluded from the canonical payload
    assert b"wall_time" not in r1.payload_bytes()
    assert "wall_time_s" in r1.meta


_REPORT_CFG = ExperimentConfig(model=BandedUniform(k0=3, offdiag=0.3, p=12), n=20, replications=3,
                               base_seed=1, threads=2)


@pytest.mark.parametrize("run, config", [
    (run_experiment, _REPORT_CFG),
    (clt_experiment, replace(_REPORT_CFG, kind="clt", tau_fixed=2)),
    (consistency_experiment, replace(_REPORT_CFG, kind="consistency")),
    (oracle_ratio_experiment, replace(_REPORT_CFG, kind="oracle-ratio")),
    # rate builds its own config per n, each at the default pool size
    (lambda _: rate_experiment(alpha=0.5, rho=0.6, p=8, n_list=[10, 20, 40], reps=2),
     replace(_REPORT_CFG, threads=0)),
], ids=["table", "clt", "consistency", "oracle-ratio", "rate"])
def test_every_runner_keeps_its_wall_time_and_pool_size_in_meta_only(run, config):
    report = run(config)
    assert set(report.meta) == {"wall_time_s", "threads"}
    assert report.meta["threads"] == max(config.threads, 1)
    assert set(json.loads(report.payload_bytes())) == {"config", "results"}
    assert b"wall_time" not in report.payload_bytes()


def test_replications_run_on_one_blas_thread():
    """Each call of the replication map sees one BLAS thread at every pool
    size, and the caller's BLAS thread count comes back afterwards."""
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no OpenBLAS loaded in this process")
    before = setter(1)
    setter(before)
    for threads in (1, 3):
        assert _map_ordered(lambda i: setter(1), 6, threads) == [1] * 6
        assert setter(before) == before


def test_model_theory_runs_on_one_blas_thread(monkeypatch, capsys):
    """clt's risk and var_n, like ``risk --with-var``'s, are computed with BLAS on one
    thread, and the caller's BLAS thread count comes back afterwards."""
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no OpenBLAS loaded in this process")
    seen = []

    def spy(fn):
        def counted(*args):
            seen.append(setter(1))  # the count the theory call runs with
            return fn(*args)
        return counted

    for name in ("_risk_profile", "_var_profile"):
        monkeypatch.setattr(sim, name, spy(getattr(sim, name)))
    before = setter(2)
    try:
        clt_experiment(ExperimentConfig(model=ArDecay(rho=0.5, p=10), n=20, replications=3,
                                        kind="clt", tau_fixed=3))
        assert seen == [1, 1]
        assert setter(2) == 2
        assert cli.main(["risk", "--model", "ar-decay", "--rho", "0.5", "--p", "10", "--n", "20",
                         "--with-var"]) == 0
        assert seen == [1, 1, 1, 1]
        assert setter(before) == 2
    finally:
        setter(before)
    capsys.readouterr()


def test_the_blas_thread_count_is_process_wide():
    """The shared save and restore of _map_ordered assumes it: a count set in
    one thread is the count the other threads read."""
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no OpenBLAS loaded in this process")
    before = setter(2)
    try:
        seen = []
        worker = threading.Thread(target=lambda: seen.append(setter(1)))
        worker.start()
        worker.join(10)
        assert seen == [2]
        assert setter(2) == 1
    finally:
        setter(before)


def test_cholesky_draws_do_not_depend_on_the_callers_blas_thread_count():
    """The Cholesky factor is computed on one BLAS thread, so the rows of a draw and the payload
    of an experiment that draws through it are the same whatever count the caller runs at."""
    setter = _blas_thread_setter()
    if setter is None:
        pytest.skip("no OpenBLAS loaded in this process")
    sigma = build_sigma(PolyDecay(rho=0.6, alpha=0.5, p=500))
    config = table1_config("model1-a05", replications=2)
    seen = []
    before = setter(2)
    try:
        for count in (2, 1):
            setter(count)
            seen.append((sample_dataset(sigma, 50, 7).rows, run_experiment(config).payload_bytes()))
            assert setter(count) == count
    finally:
        setter(before)
    assert np.array_equal(seen[0][0], seen[1][0])
    assert seen[0][1] == seen[1][1]


def test_concurrent_maps_restore_the_blas_count_after_the_last(monkeypatch):
    """Two maps in two threads share a process-wide BLAS thread count: it stays
    1 while either runs, even after the first one ends, and the count from
    before comes back when the second one ends.  A recording stand-in holds the
    count, and events fix the order: A enters, B enters, A leaves, B leaves."""
    count = [4]

    def setter(value):
        previous, count[0] = count[0], value
        return previous

    monkeypatch.setattr("surecov.model._blas_thread_setter", lambda: setter)
    events = {name: threading.Event() for name in ("a_in", "a_go", "b_in", "b_go")}
    seen = []

    def body(entered, go):
        def fn(i):
            events[entered].set()
            assert events[go].wait(10)
            seen.append(count[0])
            return i

        return fn

    a = threading.Thread(target=_map_ordered, args=(body("a_in", "a_go"), 1, 1))
    b = threading.Thread(target=_map_ordered, args=(body("b_in", "b_go"), 1, 1))
    a.start()
    assert events["a_in"].wait(10)
    b.start()
    assert events["b_in"].wait(10)
    assert count[0] == 1
    events["a_go"].set()
    a.join(10)
    assert not a.is_alive() and count[0] == 1  # B still runs on one thread
    events["b_go"].set()
    b.join(10)
    assert not b.is_alive() and count[0] == 4
    assert seen == [1, 1]


def test_many_concurrent_maps_keep_one_blas_thread(monkeypatch):
    """More threads than cores, switching often: every call sees one BLAS
    thread, and the count from before comes back after the last one."""
    count = [4]

    def setter(value):
        previous, count[0] = count[0], value
        return previous

    monkeypatch.setattr("surecov.model._blas_thread_setter", lambda: setter)
    seen = []

    def worker():
        for _ in range(50):
            seen.extend(_map_ordered(lambda i: count[0], 2, 1))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1] * 800 and count[0] == 4


def test_pool_is_capped_at_the_replication_count(monkeypatch):
    """A thread count above the number of replications starts no idle workers;
    the stand-in executor records the pool size and starts no threads."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers, initializer=None, initargs=()):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("surecov.sim.ThreadPoolExecutor", Recorder)
    assert _map_ordered(lambda i: i * i, 3, 10_000) == [0, 1, 4]
    assert _map_ordered(lambda i: i, 5, 2) == list(range(5))
    assert sizes == [3, 2]


def test_report_json_round_trip():
    report = run_experiment(_small_config(reps=4))
    doc = json.loads(report.to_json())
    assert doc["config"]["model"]["variant"] == "banded-uniform"
    assert doc["config"]["base_seed"] == 99
    assert sorted(doc["results"]["per_c"]) == ["2", "logn"]
    stats = doc["results"]["per_c"]["2"]
    assert set(stats) >= {"mean_loss", "se_loss", "selection_histogram", "mean_selected_tau"}


def test_single_replication_se_is_null():
    report = run_experiment(_small_config(reps=1))
    assert report.results["per_c"]["2"]["se_loss"] is None


def test_run_replication_matches_experiment_loss():
    """The standalone entry point reproduces the in-experiment records, and
    the recorded loss really is the squared Frobenius distance of the
    tapered estimate from the truth."""
    cfg = _small_config(reps=3)
    rec = run_replication(cfg, 2)
    assert rec.seed == derive_seed(99, 2)

    sigma = build_sigma(cfg.model)
    ds = sample_dataset(sigma, cfg.n, seed=rec.seed)
    s_tilde = mle_cov(Dataset(rows=ds.rows))
    tau = rec.tau_hat["2"]
    direct = float(np.sum((taper(s_tilde, Banding(), tau) - sigma) ** 2))
    assert rec.loss["2"] == pytest.approx(direct, rel=1e-10)


def test_histogram_counts_sum_to_replications():
    report = run_experiment(_small_config(reps=12))
    for stats in report.results["per_c"].values():
        assert sum(stats["selection_histogram"].values()) == 12


def test_oracle_in_table_report():
    report = run_experiment(_small_config(reps=2))
    assert report.results["oracle"]["tau"] == 3  # true bandwidth of the model
    assert report.results["oracle"]["min_risk"] > 0


def test_clt_experiment_guards():
    model = BandedUniform(k0=2, offdiag=0.3, p=10)
    with pytest.raises(ParameterError):
        clt_experiment(ExperimentConfig(model=model, n=20, replications=10, kind="clt"))
    with pytest.raises(DataError):
        clt_experiment(
            ExperimentConfig(model=model, n=20, replications=1, kind="clt", tau_fixed=2)
        )
    with pytest.raises(ParameterError):
        clt_experiment(
            ExperimentConfig(
                model=model, n=20, c_values=(2.0, 3.0), replications=10,
                kind="clt", tau_fixed=2,
            )
        )
    # p over the exact cap and no bandwidth: no automatic var method
    with pytest.raises(ParameterError):
        clt_experiment(
            ExperimentConfig(
                model=PolyDecay(rho=0.6, alpha=0.5, p=70), n=20,
                replications=10, kind="clt", tau_fixed=2,
            )
        )


def test_clt_small_run_is_roughly_standardized():
    cfg = ExperimentConfig(
        model=BandedUniform(k0=2, offdiag=0.3, p=10), n=24,
        c_values=(2.0,), replications=300, base_seed=4, kind="clt", tau_fixed=2,
    )
    res = clt_experiment(cfg).results
    assert res["var_method"] == "exact"
    assert abs(res["standardized_mean"]) < 0.5
    assert 0.5 < res["standardized_var"] < 2.0
    assert res["ks_distance"] < 0.2


def test_clt_banded_truncated_above_the_exact_cap():
    cfg = ExperimentConfig(
        model=BandedUniform(k0=3, offdiag=0.25, p=VAR_EXACT_CAP + 16), n=30,
        c_values=(2.0,), replications=4, base_seed=5, kind="clt", tau_fixed=4,
        var_method="banded-truncated", truncation_band=3,
    )
    res = clt_experiment(cfg).results
    assert res["var_method"] == "banded-truncated"
    assert math.isfinite(res["var_n"]) and res["var_n"] > 0.0
    assert math.isfinite(res["standardized_mean"])


def test_wide_replication_makes_no_p_by_p_array():
    """An ArDecay context draws by its AR(1) recurrence, with the model as the
    draw's factor, so it builds no Cholesky factor, and it reads Sigma's band
    from the model, so it forms no Sigma; at p >> n a replication reads its
    band from the rows and makes none."""
    p = 4000
    tracemalloc.start()
    try:
        ctx = _ExperimentContext(ExperimentConfig(model=ArDecay(rho=0.5, p=p), n=30, replications=1))
        setup_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        record = ctx.replicate(0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ctx.factor is ctx.config.model
    assert setup_peak < p * p * 8 / 4  # a quarter of one p x p float64 array
    assert peak < p * p * 8 / 4
    assert math.isfinite(record.loss["2"])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_experiment_oracle_makes_no_p_by_p_array():
    """The oracle of a Toeplitz model at p >> n comes from the model's band, and
    it is the dense oracle."""
    p = 3000
    cfg = ExperimentConfig(model=ArDecay(rho=0.6, p=p), n=30, replications=2, tau_max=12)
    report, peak = _traced_peak(lambda: run_experiment(cfg))
    assert peak < p * p * 8 / 4  # a quarter of one p x p float64 array
    dense = risk_profile(build_sigma(cfg.model), cfg.n, Banding(), 2.0, cfg.tau_grid())
    assert report.results["oracle"]["tau"] == dense.oracle_tau
    assert report.results["oracle"]["min_risk"] == pytest.approx(dense.min_value(), rel=1e-13)


def test_clt_reads_sigmas_band_and_applies_the_var_n_rule_once(monkeypatch):
    """clt's theory step reads Sigma's band and picks the var_n method; its
    replications, which read neither, used to do both a second time."""
    calls = []
    for name in ("_sigma_band", "_var_width"):
        fn = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    cfg = ExperimentConfig(model=BandedUniform(k0=3, offdiag=0.25, p=80), n=20, replications=3,
                           kind="clt", tau_fixed=3)
    assert clt_experiment(cfg).results["var_method"] == "banded-truncated"
    assert sorted(calls) == ["_sigma_band", "_var_width"]


def test_wide_clt_makes_no_p_by_p_array():
    """The clt risk and var_n of a Toeplitz model at p >> n come from the model's
    band, and they are the dense ones."""
    p = 3000
    cfg = ExperimentConfig(
        model=ArDecay(rho=0.6, p=p), n=30, c_values=(2.0,), replications=3, kind="clt",
        tau_fixed=4, var_method="banded-truncated", truncation_band=6,
    )
    report, peak = _traced_peak(lambda: clt_experiment(cfg))
    assert peak < p * p * 8 / 4  # a quarter of one p x p float64 array
    sigma = build_sigma(cfg.model)
    res = report.results
    assert res["risk"] == pytest.approx(risk_profile(sigma, 30, Banding(), 2.0, (4,)).values[0], rel=1e-13)
    assert res["var_n"] == var_n(sigma, 30, Banding(), 4, 2.0, "banded-truncated", 6).value


def _explicit_band_model(p):
    """An ``Explicit`` covariance with bandwidth 3 and unequal entries."""
    d = np.arange(p)
    m = np.diag(1.0 + 0.1 * np.cos(d))
    for k, value in ((1, 0.25), (2, -0.1)):
        off = value * (1.0 + 0.2 * np.sin(d[:-k]))
        m += np.diag(off, k) + np.diag(off, -k)
    return Explicit(m)


# p > n + 2 (_BLOCK + dmax) takes band_gram's blocked branch (dmax = n here)
@pytest.mark.parametrize(
    "model, n",
    [
        (PolyDecay(rho=0.6, alpha=0.5, p=40), 30),
        (BandedUniform(k0=3, offdiag=0.3, p=40), 30),
        (_explicit_band_model(40), 30),
        (PolyDecay(rho=0.6, alpha=0.5, p=20 + 2 * (_BLOCK + 20) + 5), 20),
        (BandedUniform(k0=4, offdiag=0.2, p=20 + 2 * (_BLOCK + 20) + 30), 20),
        (_explicit_band_model(20 + 2 * (_BLOCK + 20) + 1), 20),
    ],
)
def test_worker_arrays_give_the_public_chain_bit_for_bit(model, n):
    """A context's replication chain, filling one worker's arrays again and
    again, gives the band and band sums of the public calls exactly."""
    cfg = ExperimentConfig(model=model, n=n, scheme=CzzTaper(), replications=3, base_seed=17)
    ctx = _ExperimentContext(cfg)
    sigma = build_sigma(model)
    chol = cholesky_factor(sigma)
    for rep_index in (0, 1, 2, 0):
        seed, band, s1, s2 = ctx.sums(rep_index)
        data = sample_dataset(sigma, n, seed, chol=chol)
        ref_band, frob_sq = band_gram(data, ctx.grid.dmax)
        ref_s1, ref_s2 = _band_sums(ref_band, frob_sq)
        assert np.array_equal(band, ref_band)
        assert np.array_equal(s1, ref_s1) and np.array_equal(s2, ref_s2)


def test_payload_bytes_identical_across_pools_with_worker_arrays():
    """Every pool size gives the same bytes on band_gram's blocked branch and
    on an ArDecay clt run, with more workers than cores switching often."""
    blocked = ExperimentConfig(
        model=PolyDecay(rho=0.6, alpha=0.5, p=20 + 2 * (_BLOCK + 20) + 5), n=20,
        c_values=(2.0, "logn"), replications=9, base_seed=23,
    )
    ar_clt = ExperimentConfig(
        model=ArDecay(rho=0.5, p=40), n=20, c_values=(2.0,), replications=40,
        base_seed=29, kind="clt", tau_fixed=3,
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cfg, runner in ((blocked, run_experiment), (ar_clt, clt_experiment)):
            payloads = {runner(replace(cfg, threads=t)).payload_bytes() for t in (1, 2, 3, 8)}
            assert len(payloads) == 1, cfg.kind
    finally:
        sys.setswitchinterval(interval)


def test_wide_clt_matches_the_formed_mle():
    """At p >> n the clt statistic, from the rows' band, is the statistic of
    the formed MLE to 1e-12."""
    cfg = ExperimentConfig(
        model=BandedUniform(k0=3, offdiag=0.25, p=800), n=20, c_values=(2.0,),
        replications=6, base_seed=8, kind="clt", tau_fixed=3,
    )
    res = clt_experiment(cfg).results
    assert res["var_method"] == "banded-truncated"
    sigma = build_sigma(cfg.model)
    risk = risk_profile(sigma, cfg.n, Banding(), 2.0, (3,)).values[0]
    scale = math.sqrt(var_n(sigma, cfg.n, Banding(), 3, 2.0, "banded-truncated", 3).value)
    consts = sure_constants(cfg.n, 2.0)
    sample = []
    for r in range(cfg.replications):
        s = mle_cov(sample_dataset(sigma, cfg.n, derive_seed(cfg.base_seed, r)))
        sample.append((sure_profile(s, consts, Banding(), (3,)).values[0] - risk) / scale)
    assert res["standardized_mean"] == pytest.approx(np.mean(sample), rel=1e-12)
    assert res["standardized_var"] == pytest.approx(np.var(sample, ddof=1), rel=1e-12)
    assert res["ks_distance"] == pytest.approx(ks_statistic(np.array(sample)), rel=1e-12)


def test_consistency_requires_banded_model():
    cfg = ExperimentConfig(model=PolyDecay(rho=0.6, alpha=0.5, p=12), n=30, replications=2)
    with pytest.raises(ParameterError):
        consistency_experiment(cfg)


def test_consistency_recovers_bandwidth():
    cfg = ExperimentConfig(
        model=BandedUniform(k0=3, offdiag=0.3, p=30), n=150, replications=15, base_seed=2
    )
    row = consistency_experiment(cfg).results["per_n"][0]
    assert row["frac_logn_equals_k0"] >= 0.8
    assert row["frac_sure2_in_window"] >= 0.8
    assert row["window"][0] == 3


def test_oracle_ratio_near_one_even_small():
    cfg = ExperimentConfig(
        model=PolyDecay(rho=0.6, alpha=0.5, p=60), n=100,
        c_values=(2.0,), replications=20, base_seed=3, kind="oracle-ratio",
    )
    res = oracle_ratio_experiment(cfg).results
    assert 0.7 < res["ratio"] < 1.4
    assert res["ratio_half_width"] > 0


def test_fit_loglog_slope():
    ns = np.array([50.0, 100.0, 200.0, 400.0])
    assert fit_loglog_slope(ns, 3.0 * ns**-0.7) == pytest.approx(-0.7, abs=1e-12)
    assert fit_loglog_slope(ns, np.full(4, 3.0)) == 0.0


def test_presets():
    cfg = table1_config("model1-a05")
    assert (cfg.n, cfg.p, cfg.replications) == (250, 500, 100)
    assert isinstance(cfg.model, PolyDecay) and cfg.model.alpha == 0.5
    fast = table1_config("model2-r095", fast=True)
    assert (fast.p, fast.replications) == (100, 30)
    with pytest.raises(ParameterError):
        table1_config("model9")
    t2 = table2_config(p=1000)
    assert isinstance(t2.model, BandedUniform) and t2.model.k0 == 5
    assert t2.kind == "consistency"
