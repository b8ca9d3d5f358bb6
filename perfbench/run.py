"""The repository's benchmark: host-calibrated timings of the paper-scale run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 2007 --trace 0
    python3 perfbench/run.py --workload all    # every workload, both modes

Each repetition runs one workload in a fresh interpreter
(``perfbench/child.py``) with BLAS pinned to one thread; repetitions
continue while the next one is expected to end within ``--seconds``.  The
last stdout line is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics for ``--trace 0`` and the
per-layer metrics of a traced run for ``--trace 1``; ``--workload all``
prints a table of both for every workload and names the JSON metrics
``<workload>/<metric>``.  See ``perfbench/README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import workloads  # noqa: E402

#: No single repetition may take longer than this (seconds).
CHILD_TIMEOUT_S = 150
#: Untraced repetitions per run, at least: the metrics are their medians.
MIN_REPS = 3
#: Where traced runs write their spans, relative to the checkout root.
TRACE_DIR = Path(".perfbench") / "traces"

SELF_S_LAYERS = (
    "net", "models", "experiments", "analysis", "sim", "sync", "faults",
    "giraf", "smr", "adaptive",
)
SHARE_LAYERS = ("net", "models", "analysis", "sim", "faults", "giraf")
COUNTS = (
    "net.trace_batch_calls", "net.sample_latency_calls",
    "models.batch_calls", "models.scalar_calls",
    "experiments.decision_stats_calls",
    "sim.events_processed", "sim.sends",
    "sync.runs", "sync.batch_runs",
    "faults.mask_calls", "faults.rng_calls", "faults.drop_calls",
    "faults.partitioned_calls",
    "giraf.runs", "consensus.compute_calls", "oracles.observe_calls",
    "smr.slots", "adaptive.faulted_latencies_calls", "adaptive.switches",
)


def run_child(workload: str, seed: int, traced: bool) -> dict:
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed),
               "1" if traced else "0"]
    if traced:
        command.append(str(TRACE_DIR / f"{workload}-seed{seed}.spans.tsv.gz"))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # Imports read cached bytecode, as a user's do; only the first
    # repetition in a fresh checkout compiles (the medians absorb it).
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        command, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} repetition exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def body_wall(record: dict) -> float:
    """Raw wall time of the timed body, calibration taken out."""
    return sum(phase["wall_s"] for phase in record["phases"].values())


def rescale(record: dict) -> float:
    """Reference-speed factor of the timed body (see ``calib.speed_factor``)."""
    samples = list(record["boundary_ms"][1:])
    for phase in record["phases"].values():
        samples += phase["samples_ms"]
    return calib.speed_factor(samples)


def ref_wall(record: dict) -> float:
    return body_wall(record) * rescale(record)


def ref_setup(record: dict) -> float:
    samples = record["boundary_ms"][:2] + record["setup"]["samples_ms"]
    return record["setup"]["wall_s"] * calib.speed_factor(samples)


def calib_ms(record: dict) -> float:
    """The kernel time at the body's sampled host speed (harmonic mean)."""
    return calib.REFERENCE_CALIB_MS / rescale(record)


def median(value, records: list[dict]) -> float:
    return statistics.median(value(r) for r in records)


def end_to_end(plain: list[dict]) -> dict:
    checks = [ok for r in plain for _, ok in r["checks"]]
    return {
        "ref_wall_s": (median(ref_wall, plain), "s"),
        "setup_s": (median(ref_setup, plain), "s"),
        "peak_rss_mb": (median(lambda r: r["peak_rss_mb"], plain), "MB"),
        "checks_passed_share": (sum(checks) / len(checks), "share"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    for layer in SELF_S_LAYERS:
        metrics[f"{layer}.self_s"] = (
            median(lambda r: r["self_s"].get(layer, 0.0) * rescale(r), traced),
            "s",
        )
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = (
            median(lambda r: r["self_s"].get(layer, 0.0) / body_wall(r), traced),
            "share",
        )
    counts = traced[0]["counts"]
    for name in COUNTS:
        metrics[name] = (float(counts.get(name, 0)), "count")
    runs = counts.get("sync.runs", 0)
    metrics["sync.batch_ratio"] = (
        counts.get("sync.batch_runs", 0) / runs if runs else 0.0, "share"
    )
    for phase in workloads.ALL_PHASES:
        metrics[f"phase.{phase}_s"] = (
            median(
                lambda r: r["phases"][phase]["wall_s"] * rescale(r)
                if phase in r["phases"] else 0.0,
                plain,
            ),
            "s",
        )
    metrics["host.wall_s"] = (median(body_wall, plain), "s")
    metrics["host.calib_ms"] = (median(calib_ms, plain), "ms")
    metrics["host.trace_overhead"] = (
        median(ref_wall, traced) / median(ref_wall, plain), "ratio"
    )
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload for ``seconds``; return its checks and metrics."""
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    start = time.perf_counter()
    # A run keeps starting repetitions while the next one is expected to
    # end within --seconds, after a minimum: MIN_REPS untraced ones, or for
    # the traced run one of each.  The traced run alternates untraced and
    # traced repetitions, so the overhead ratio compares neighbours.
    while True:
        minimum_met = (plain and traced) if trace else len(plain) >= MIN_REPS
        elapsed = time.perf_counter() - start
        if minimum_met and elapsed + longest > seconds:
            break
        is_traced = trace and len(traced) < len(plain)
        began = time.perf_counter()
        record = run_child(workload, seed, is_traced)
        longest = max(longest, time.perf_counter() - began)
        (traced if is_traced else plain).append(record)
        print(
            f"{workload} rep {len(plain) + len(traced)}: "
            f"traced={int(is_traced)} "
            f"host.wall_s={body_wall(record):.4f} "
            f"host.calib_ms={calib_ms(record):.4f} "
            f"ref_wall_s={ref_wall(record):.4f} "
            f"setup_s={ref_setup(record):.4f}",
            flush=True,
        )
    checks = [(name, ok) for r in plain + traced for name, ok in r["checks"]]
    metrics = per_layer(plain, traced) if trace else end_to_end(plain)
    return checks, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=sorted(workloads.WORKLOADS) + ["all"],
        help="one workload, or 'all': every workload, untraced then traced",
    )
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    checks: list[tuple[str, bool]] = []
    metrics: dict[str, tuple[float, str]] = {}
    for name, trace in runs:
        run_checks, run_metrics = measure(
            name, args.seed, args.seconds, bool(trace)
        )
        checks += run_checks
        for key, (value, unit) in run_metrics.items():
            if len(runs) > 1:
                print(f"{name:18} {key:34} {value:14.6g} {unit}", flush=True)
                key = f"{name}/{key}"
            metrics[key] = (value, unit)

    failed = sorted({name for name, ok in checks if not ok})
    for name in failed:
        print(f"check failed: {name}", flush=True)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": sum(not ok for _, ok in checks),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
