"""The repository's benchmark: one command, named workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload online --seed 1 --seconds 40 --trace 0

``online``, ``decide`` and ``online_async`` are the measured workloads of
``BENCHMARK.json``.  ``serve`` runs the same way on demand; its latency is
too unsteady on a small shared machine to carry a regression bound.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` prints its per-layer metrics from a traced run.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment and the raw samples.
``--smoke`` swaps in tiny shapes so the benchmark's own test runs in seconds.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("online", "decide", "serve", "online_async")

#: One BLAS thread per process, so the client and server of ``serve`` (two
#: busy processes) never oversubscribe a two-core machine and the in-process
#: workloads do not depend on how many cores happen to be free.
#:
#: glibc's malloc thresholds are pinned as well.  By default they adapt to
#: the sizes freed so far, so whether the training path's large temporaries
#: are mmapped and faulted in afresh each time depends on the allocation
#: history: some seeds paid 350k minor faults per ``online`` repeat and ran
#: about 35 % slower than others with 60k.  Pinned, temporaries under 32 MiB
#: come from the heap and the heap is not trimmed, so every seed runs alike;
#: ``proc.minor_faults`` (per-layer) shows a change that starts faulting.
#: glibc reads these only at start-up, so ``main`` re-executes itself once.
PINNED_ENV = {
    "REPRO_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}

#: Every in-process run measures at least this many repeats (each with its
#: own set-up), so ``setup_s`` is a median and repeats can be compared.
MIN_REPEATS = 3


def _load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _ms(seconds: list[float]) -> list[float]:
    return [value * 1e3 for value in seconds]


def _environment() -> dict:
    import numpy as np

    from repro.nn import threads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads.thread_info(),
        "libc": " ".join(platform.libc_ver()),
        "pinned": {name: os.environ.get(name) for name in PINNED_ENV},
        "nproc": os.cpu_count(),
    }


def percentile(values: list[float], share: float) -> float:
    # numpy is imported only after main() has pinned the BLAS threads.
    import numpy as np

    return float(np.percentile(values, share * 100))


def _layer_values(ledger: dict, names: list[str]) -> dict:
    """``<span>.calls`` / ``<span>.self_s`` entries of ``names`` found in ``ledger``."""
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = ledger["calls"].get(span, 0)
        elif field == "self_s":
            values[name] = ledger["self_s"].get(span, 0.0)
    return values


def _merge_ledgers(ledgers: list[dict]) -> dict:
    merged = {"calls": {}, "self_s": {}, "covered_s": 0.0, "wall_s": 0.0, "rows": [0, 0]}
    for ledger in ledgers:
        for key in ("calls", "self_s"):
            for name, value in ledger[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["covered_s"] += ledger["covered_s"]
        merged["wall_s"] += ledger["wall_s"]
        merged["rows"] = [a + b for a, b in zip(merged["rows"], ledger["rows"])]
    return merged


# ---------------------------------------------------------------------- #
# In-process workloads
# ---------------------------------------------------------------------- #
def run_loop(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    from spans import Recorder
    from workloads import SHAPES, SMOKE_SHAPES, run_repeat

    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    repeats, traced, recorder = [], None, None
    started = time.perf_counter()
    # The first repeat in a process runs about a third slower (first-touch
    # page faults, first-use costs), so it is checked but not measured.
    warmup = run_repeat(workload, shape, seed)
    if trace:
        # The traced repeat's wall is compared with the untraced one after
        # it for trace.overhead.
        recorder = Recorder()
        recorder.install()
        try:
            traced = run_repeat(workload, shape, seed, recorder)
        finally:
            recorder.uninstall()
        repeats.append(run_repeat(workload, shape, seed))
    else:
        while len(repeats) < MIN_REPEATS or time.perf_counter() - started < seconds:
            repeats.append(run_repeat(workload, shape, seed))

    checked = [warmup, *repeats] + ([traced] if traced else [])
    checks = {
        "identical_outputs": all(r.fingerprint == warmup.fingerprint for r in checked),
        "served_all_arrivals": all(r.arrivals == shape.arrivals for r in checked),
    }
    if workload == "online_async":
        checks["every_plan_consumed"] = all(
            r.trainer["plans_consumed"] == r.trainer["plans_submitted"] > 0 for r in checked
        )
    # Percentiles pool the decisions of every measured repeat: the repeats
    # serve the same arrivals, and a pooled tail rests on more samples than
    # one repeat's (150 decisions on ``online``).
    decisions = _ms([d for r in repeats for d in r.decision_s])
    attempted = sum(r.arrivals for r in checked)
    details = {
        "repeats": len(repeats),
        "setup_s": [r.setup_s for r in repeats],
        "online_s": [r.online_s for r in repeats],
        "decision_samples": len(decisions),
        "decision_p50_ms": percentile(decisions, 0.50),
        "decision_p90_ms": percentile(decisions, 0.90),
        "train_steps": [r.train_steps for r in repeats],
        "checks": checks,
    }
    if not trace:
        # Set-up is a median over repeats, so one repeat hit by a burst of
        # machine load does not move it.
        metrics = {
            "setup_s": statistics.median(r.setup_s for r in repeats),
            # Pooled over the repeats rather than a median of per-repeat
            # rates: the machine's speed flips between two modes for seconds
            # at a time, and the pooled rate averages the mix.
            "arrivals_per_s": sum(r.arrivals for r in repeats) / sum(r.online_s for r in repeats),
            "decision_p90_ms": details["decision_p90_ms"],
        }
        return metrics, checks, attempted, 0, details

    names = [metric["name"] for metric in _load_benchmark()["per_layer"]]
    ledger = recorder.ledger(traced.setup_s + traced.online_s, main_thread=threading.get_ident())
    untraced_wall = repeats[0].setup_s + repeats[0].online_s
    metrics = {name: 0.0 for name in names}
    metrics.update(_layer_values(ledger, names))
    real, padded = ledger["rows"]
    trainer = traced.trainer
    steps_total = trainer.get("train_steps", 0) + trainer.get("skipped_steps", 0)
    metrics.update({
        "core.qnetwork.real_row_share": real / padded if padded else 0.0,
        "core.trainer.train_steps": trainer.get("train_steps", 0),
        "core.trainer.skipped_share": (
            trainer.get("skipped_steps", 0) / steps_total if steps_total else 0.0),
        "core.trainer.utilisation": trainer.get("utilisation", 0.0),
        "core.trainer.publishes": trainer.get("publishes", 0),
        "train_steps_per_s": sum(r.train_steps for r in repeats) / sum(r.online_s for r in repeats),
        "proc.minor_faults": repeats[0].minor_faults,
        "decision_p50_ms": details["decision_p50_ms"],
        "cr": traced.cr,
        "qg": traced.qg,
        "decision_samples": len(decisions),
        "trace.coverage": ledger["coverage"],
        "trace.overhead": (traced.setup_s + traced.online_s) / untraced_wall,
    })
    details["ledger"] = ledger
    return metrics, checks, attempted, 0, details


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
def run_serve_workload(seed: int, trace: bool, smoke: bool):
    from serve_bench import SHAPE, SLO_MS, SMOKE_SHAPE, run_serve

    shape = SMOKE_SHAPE if smoke else SHAPE
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
    raw = run_serve(shape, seed, env, trace)
    steps = raw["steps"]
    measured = [steps[name] for name, _ in shape.rates]

    attempted = failed = arrivals = 0
    outcomes = []
    for step in steps.values():
        for row in step["tenants"].values():
            attempted += shape.events
            failed += shape.events - row["answered"]
            arrivals += len(row["rtt_ms"])
        outcomes.append(step["outcome"])
    checks = {
        "acked_in_order_without_errors": failed == 0,
        "every_event_consumed": all(
            entry["events_consumed"] == shape.events and entry["error"] is None
            for outcome in outcomes for entry in outcome.values()),
        "identical_drain_results": all(outcome == outcomes[0] for outcome in outcomes),
        "clean_exit": all(step["ok"] and step["exit_code"] == 0 for step in steps.values()),
    }

    def rtts(step: dict) -> list[float]:
        return [rtt for row in step["tenants"].values() for rtt, _ in row["rtt_ms"]]

    def lateness(step: dict) -> list[float]:
        return [late for row in step["tenants"].values() for late in row["late_ms"]]

    # Server-side decision latency (batcher submit to ranking), pooled over
    # the steps; the client's round trips are per-layer metrics.
    decisions = [server for step in measured for row in step["tenants"].values()
                 for _, server in row["rtt_ms"] if server is not None]
    details = {
        "setup_s": [step["setup_s"] for step in measured],
        "elapsed_s": [step["elapsed_s"] for step in measured],
        "decision_samples": len(decisions),
        "late_ms_p99": percentile([v for step in measured for v in lateness(step)], 0.99),
        "rtt_ms": {name: {"p50": percentile(rtts(steps[name]), 0.50),
                          "p90": percentile(rtts(steps[name]), 0.90),
                          "samples": len(rtts(steps[name]))} for name, _ in shape.rates},
        "decision_ms": {"p50": percentile(decisions, 0.50), "p90": percentile(decisions, 0.90)},
        "checks": checks,
        "errors": [error for step in steps.values() for row in step["tenants"].values()
                   for error in row["errors"]][:10],
        "state_dir_device": raw["state_fs_dev"],
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(step["setup_s"] for step in measured),
            "arrivals_per_s": arrivals / sum(step["elapsed_s"] for step in measured),
            "decision_p90_ms": percentile(decisions, 0.90),
        }
        return metrics, checks, attempted, failed, details

    names = [metric["name"] for metric in _load_benchmark()["per_layer"]]
    ledger = _merge_ledgers([step["ledger"] for step in measured])
    metrics = {name: 0.0 for name in names}
    metrics.update(_layer_values(ledger, names))
    real, padded = ledger["rows"]
    in_slo = 0.0
    for step in measured:
        # A backlog that grows shows as a slow last quarter on a connection.
        backlog = any(
            percentile([rtt for rtt, _ in row["rtt_ms"][len(row["rtt_ms"]) * 3 // 4:]], 0.50)
            > SLO_MS for row in step["tenants"].values())
        if percentile(rtts(step), 0.90) <= SLO_MS and not backlog:
            in_slo = shape.events * len(step["tenants"]) / step["elapsed_s"]
    mid = steps["mid"]
    mid_queue = [rtt - server for row in mid["tenants"].values()
                 for rtt, server in row["rtt_ms"] if server is not None]
    batching = [step["status"]["batching"] for step in measured]
    batches = sum(entry["batches"] for entry in batching)
    writes = ledger["calls"].get("nn.serialization.save_checkpoint", 0)
    files = sum(step["checkpoint_files"] for step in measured)
    outcome = outcomes[0].values()
    metrics.update({
        "core.qnetwork.real_row_share": real / padded if padded else 0.0,
        "train_steps_per_s": (ledger["calls"].get("core.learner.train_step", 0)
                              / sum(step["elapsed_s"] for step in measured)),
        "cr": statistics.mean(entry["result"]["CR"] for entry in outcome),
        "qg": statistics.mean(entry["result"]["QG"] for entry in outcome),
        "decision_samples": len(decisions),
        "decision_p50_ms": percentile(decisions, 0.50),
        **{f"rtt_p90_ms.{name}": percentile(rtts(steps[name]), 0.90) for name, _ in shape.rates},
        "rtt_p50_ms.mid": percentile(rtts(mid), 0.50),
        "rate_in_slo": in_slo,
        "serve.queue_ms.p90": percentile(mid_queue, 0.90),
        "serve.batching.batches": batches,
        "serve.batching.mean_batch": (
            sum(entry["requests"] for entry in batching) / batches if batches else 0.0),
        "serve.checkpoint.writes": writes,
        "serve.checkpoint.bytes_per_write": (
            sum(step["checkpoint_bytes"] for step in measured) / files if files else 0.0),
        "serve.client.late_ms.p99": details["late_ms_p99"],
        "trace.coverage": ledger["covered_s"] / ledger["wall_s"],
        "trace.overhead": percentile(rtts(mid), 0.50) / percentile(rtts(steps["mid_untraced"]), 0.50),
    })
    details["ledger"] = ledger
    return metrics, checks, attempted, failed, details


# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes for the self-test")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if any(os.environ.get(name) != value for name, value in PINNED_ENV.items()):
        # Replaces this process (no child is left behind); the pinned
        # environment is then in place before the allocator and BLAS start.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, **PINNED_ENV})
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    benchmark = _load_benchmark()
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    if args.workload == "serve":
        metrics, checks, attempted, failed, details = run_serve_workload(
            args.seed, bool(args.trace), args.smoke)
    else:
        metrics, checks, attempted, failed, details = run_loop(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)

    missing = [metric["name"] for metric in declared if metric["name"] not in metrics]
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": _environment(), **details}))
    print(json.dumps({
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
