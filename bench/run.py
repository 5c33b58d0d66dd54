"""surecov benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload table --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload with tracing off and reports the end-to-end
metrics.  ``--trace 1`` is a separate run: it alternates untraced and traced
operations for ``--seconds`` (the difference is the tracing overhead), and for the simulation
workloads replays every replication through the public per-layer calls; it
reports the per-layer metrics.  Every metric is printed by name with its unit;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when every
output check passed.

Results, environment facts and spans are also written to ``.bench_out/`` at
the repository root.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("reps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

# (metric, span name, unit, scale from seconds): the median duration of one call
SPAN_METRICS = [
    ("cli.read_matrix_csv_s", "cli.read_matrix_csv", "s", 1.0),
    ("cli.write_estimate_s", "cli.write_estimate", "s", 1.0),
    ("model.build_sigma_s", "model.build_sigma", "s", 1.0),
    ("model.cholesky_factor_s", "model.cholesky_factor", "s", 1.0),
    ("model.sample_dataset_ms", "model.sample_dataset", "ms", 1e3),
    ("estimate.mle_cov_ms", "estimate.mle_cov", "ms", 1e3),
    ("estimate.taper_s", "estimate.taper", "s", 1.0),
    ("criterion.band_sums_ms", "criterion.band_sums", "ms", 1e3),
    ("criterion.profile_values_ms", "criterion.profile_values", "ms", 1e3),
    ("criterion.sure_profile_s", "criterion.sure_profile", "s", 1.0),
    ("theory.var_n_s", "theory.var_n", "s", 1.0),
    ("theory.risk_profile_ms", "theory.risk_profile", "ms", 1e3),
]

# derived from problem sizes, not measured
COMPUTED = [
    ("model.draw_gflop", "GFLOP-computed"),
    ("estimate.gram_gflop", "GFLOP-computed"),
    ("estimate.p2_array_mb", "MiB-computed"),
    ("criterion.useful_entry_ratio", "ratio-computed"),
]

PER_LAYER = (
    [("cli.ingest_mb_per_s", "MiB/s"), ("cli.self_s", "s")]
    + [(name, unit) for name, _, unit, _ in SPAN_METRICS]
    + COMPUTED
    + [
        ("sim.replication_ms", "ms"),
        ("sim.replication_ms_tail", "ms"),
        ("sim.replication_tail_pct", "%"),
        ("sim.replication_samples", "count"),
        ("sim.self_ms", "ms"),
        ("sim.reps_per_s_threads1", "1/s"),
        ("sim.thread_speedup", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_pct", "%"),
        ("fail_frac", "ratio"),
    ]
)


def load_surecov() -> None:
    """Import surecov from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import surecov

    if Path(surecov.__file__).resolve().parent != src / "surecov":
        raise ImportError(f"surecov was imported from {surecov.__file__}, not from {src}")


@dataclass
class Op:
    wall: float
    output: object = None
    errors: list[str] = field(default_factory=list)


def run_op(wl, tracer=None) -> Op:
    from workloads import LAYER_TARGETS

    try:
        if tracer is None:
            t0 = time.perf_counter()
            raw = wl.run()
            wall = time.perf_counter() - t0
        else:
            with tracer.patched(LAYER_TARGETS), tracer.span(f"workload.{wl.name}", root=True):
                t0 = time.perf_counter()
                raw = wl.run()
                wall = time.perf_counter() - t0
        return Op(wall, wl.capture(raw))
    except Exception:  # an operation that raises counts as failed
        return Op(math.nan, None, [traceback.format_exc()])


def check_ops(wl, ops: list[Op]) -> None:
    done = [op for op in ops if op.output is not None]
    if not done:
        return
    try:
        for op, errors in zip(done, wl.check([op.output for op in done])):
            op.errors += errors
    except Exception:
        for op in done:
            op.errors.append(traceback.format_exc())


def median(values) -> float:
    """Median of the measured values; a failed operation's NaN time is left out."""
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else 0.0


def setup_probe(name: str, scale_name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "setup_probe.py"), name, scale_name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest listed percentile with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (100 - q) / 100 >= 10 - 1e-9:
            return q, float(np.percentile(samples, q))
    return 50.0, median(samples)


def run_timed(wl, seconds: float, scale_name: str, probes: int) -> tuple[dict, list[Op], dict]:
    setup_probe(wl.name, scale_name)  # warms the file cache; not counted
    setup = [setup_probe(wl.name, scale_name) for _ in range(probes)]
    wl.make_inputs()
    ops = [run_op(wl)]  # warm-up: lazy set-up and caches, not timed into wall_s
    t_end = time.perf_counter() + seconds
    while len(ops) < 2 or time.perf_counter() < t_end:
        ops.append(run_op(wl))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_ops(wl, ops)
    walls = [op.wall for op in ops[1:]]
    wall = median(walls)
    metrics = {
        "setup_s": median(setup),
        "wall_s": wall,
        "reps_per_s": wl.reps_per_op / wall if wall else 0.0,
        "peak_rss_mb": peak_mb,
    }
    return metrics, ops, {"setup_samples": setup, "wall_samples": walls}


def run_traced(wl, seconds: float, spans_path: Path | None) -> tuple[dict, list[Op], dict]:
    tracer = Tracer()
    wl.make_inputs()
    ops = [run_op(wl)]  # warm-up
    plain: list[Op] = []
    traced: list[Op] = []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        pair = [(plain, None), (traced, tracer)]
        for bucket, tr in pair if len(plain) % 2 == 0 else reversed(pair):
            bucket.append(run_op(wl, tr))
    ops += plain + traced
    check_ops(wl, ops)
    if wl.sim:
        with tracer.span("replay", root=True):
            try:
                parity = wl.replay(tracer)
            except Exception:
                parity = [traceback.format_exc()]
        ops.append(Op(math.nan, "replay", parity))
    metrics = layer_metrics(wl, tracer, plain, traced)
    if spans_path is not None:
        tracer.write(spans_path)
    info = {
        "plain_wall_samples": [op.wall for op in plain],
        "traced_wall_samples": [op.wall for op in traced],
        "spans": len(tracer.spans),
    }
    return metrics, ops, info


def layer_metrics(wl, tracer, plain: list[Op], traced: list[Op]) -> dict:
    # the simulation workloads are split by their replay, the CLI workloads by
    # the spans inside their traced operations
    roots = tracer.named("replay") if wl.sim else tracer.named(f"workload.{wl.name}")
    by_name: dict[str, list] = {}
    for s in tracer.descendants(roots):
        by_name.setdefault(s.name, []).append(s)

    def per_call(span_name: str) -> float:
        return median(s.duration for s in by_name.get(span_name, []))

    m = {metric: per_call(span) * scale for metric, span, _, scale in SPAN_METRICS}
    m["cli.self_s"] = median(tracer.self_time(s) for s in by_name.get("cli.main", []))
    read = m["cli.read_matrix_csv_s"]
    m["cli.ingest_mb_per_s"] = getattr(wl, "csv_bytes", 0) / 2**20 / read if read else 0.0
    m.update({name: 0.0 for name, _ in COMPUTED})
    m.update(wl.computed())

    plain_wall = median(op.wall for op in plain)
    traced_wall = median(op.wall for op in traced)
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall if plain_wall else 0.0

    sim = {name: 0.0 for name, _ in PER_LAYER if name.startswith("sim.")}
    if wl.sim:
        reps = [s.duration * 1e3 for s in by_name.get("sim.run_replication", [])]
        pct, tail_value = tail(reps)
        n_c = len(wl.config.resolved_c())
        children = (
            m["model.sample_dataset_ms"] + m["estimate.mle_cov_ms"]
            + m["criterion.band_sums_ms"] + n_c * m["criterion.profile_values_ms"]
        )
        # run_replication rebuilds the experiment's preparation on every call:
        # Sigma, its Cholesky factor and the band sums of Sigma
        prep = 1e3 * (m["model.build_sigma_s"] + m["model.cholesky_factor_s"]) + m["criterion.band_sums_ms"]
        threads1 = wl.reps_per_op / wl.baseline_s if wl.baseline_s else 0.0
        sim.update({
            "sim.replication_ms": median(reps),
            "sim.replication_ms_tail": tail_value,
            "sim.replication_tail_pct": pct,
            "sim.replication_samples": float(len(reps)),
            "sim.self_ms": median(reps) - children - prep,
            "sim.reps_per_s_threads1": threads1,
            "sim.thread_speedup": wl.reps_per_op / plain_wall / threads1 if plain_wall and threads1 else 0.0,
        })
    m.update(sim)
    return m


def run_workload(name: str, seed: int, seconds: float, trace: int, scale_name: str = "full",
                 probes: int = SETUP_PROBES, spans_path: Path | None = None) -> dict:
    """Run one workload and return its result (metrics, counts, environment)."""
    from envfacts import environment
    from workloads import SCALES, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        wl = WORKLOADS[name](seed, SCALES[scale_name], workdir)
        if trace:
            values, ops, info = run_traced(wl, seconds, spans_path)
            spec = PER_LAYER
        else:
            values, ops, info = run_timed(wl, seconds, scale_name, probes)
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for op in ops if op.errors)
    if trace:
        values["fail_frac"] = failed / len(ops)
    pool = None
    if wl.sim and ops[0].output is not None:
        pool = ops[0].output.meta.get("threads")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in spec},
        "fail_frac": failed / len(ops),
        "errors": [e for op in ops for e in op.errors],
        "environment": environment(ROOT, seed, pool),
        **info,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        load_surecov()
    except ImportError as exc:
        print(f"error: cannot import surecov from this checkout: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace,
        spans_path=OUT / f"{stem}-spans.json" if args.trace else None,
    )
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    computed = {name for name, _ in COMPUTED}
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    for metric, entry in result["metrics"].items():
        label = "  [computed]" if metric in computed else ""
        print(f"{metric:32s} {entry['value']:.6g} {entry['unit']}{label}")
    samples = len(result.get("wall_samples", result.get("plain_wall_samples", [])))
    print(f"# fail_frac {result['fail_frac']:.6g}: {result['failed']} of {result['attempted']} operations failed")
    print(f"# wall samples: {samples}")
    for error in result["errors"]:
        print(error, file=sys.stderr)
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
