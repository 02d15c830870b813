"""Smoke tests for the ``python -m repro`` CLI.

These run the real subprocess from the repository root (the tier-1 command's
working directory), so the whole shell path — spec parsing, registry
construction, simulation, report writing and the perf-harness forwarding —
is exercised end to end on tiny inputs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TINY_SPEC = REPO_ROOT / "examples" / "specs" / "ci_tiny.json"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_bundled_tiny_spec_is_valid_json():
    from repro.api import ExperimentSpec

    spec = ExperimentSpec.load(TINY_SPEC)
    assert spec.name == "ci-tiny"
    assert [entry.policy for entry in spec.policies] == ["random", "ddqn-worker"]


def test_cli_policies_lists_the_registry():
    completed = run_cli("policies")
    assert completed.returncode == 0, completed.stderr
    for name in ("random", "linucb", "ddqn-worker"):
        assert name in completed.stdout


def test_cli_policies_json_is_machine_readable():
    completed = run_cli("policies", "--json")
    assert completed.returncode == 0, completed.stderr
    payload = json.loads(completed.stdout)
    assert payload["count"] == len(payload["policies"])
    names = {entry["name"] for entry in payload["policies"]}
    assert {"random", "linucb", "ddqn-worker"} <= names
    for entry in payload["policies"]:
        assert entry["description"]


def test_cli_serve_and_loadgen_forward_help():
    for subcommand in ("serve", "loadgen"):
        completed = run_cli(subcommand, "--help")
        assert completed.returncode == 0, completed.stderr
        assert f"repro {subcommand}" in completed.stdout
        assert "spec" in completed.stdout


def test_cli_serve_missing_spec_fails_cleanly(tmp_path):
    completed = run_cli("serve", str(tmp_path / "nope.json"))
    assert completed.returncode != 0
    assert "nope.json" in completed.stderr


def test_cli_run_executes_the_bundled_spec(tmp_path):
    output = tmp_path / "results.json"
    completed = run_cli("run", str(TINY_SPEC), "--output", str(output))
    assert completed.returncode == 0, completed.stderr
    assert "ci-tiny" in completed.stdout
    payload = json.loads(output.read_text())
    assert payload["spec"]["name"] == "ci-tiny"
    assert set(payload["results"]) == {"Random", "DDQN"}
    for row in payload["results"].values():
        assert row["arrivals"] > 0
        assert "nDCG-CR" in row


def test_cli_run_missing_spec_fails_cleanly(tmp_path):
    completed = run_cli("run", str(tmp_path / "nope.json"))
    assert completed.returncode != 0
    assert "nope.json" in completed.stderr


CHEAP_SWEEP = {
    "name": "cli-sweep",
    "base": {
        "name": "cli-sweep-cell",
        "dataset": {"scale": 0.03, "num_months": 2, "seed": 1},
        "runner": {"seed": 0, "max_arrivals": 20},
        "policies": [
            {"policy": "random", "kwargs": {"seed": 0}},
            {"policy": "greedy-cosine", "kwargs": {"objective": "worker"}},
        ],
    },
    "axes": [{"target": "dataset", "key": "seed", "values": [1, 2]}],
    "replicate_axis": "dataset.seed",
}


def test_bundled_ci_sweep_spec_is_valid():
    from repro.api import SweepSpec

    spec = SweepSpec.load(REPO_ROOT / "examples" / "specs" / "ci_sweep.json")
    assert spec.name == "ci-sweep"
    assert spec.replicate_axis == "dataset.seed"
    assert len(spec.expand()) == 4
    assert spec.base.runner.checkpoint_every == 10


def test_bundled_fig9_sweep_spec_is_valid():
    from repro.api import SweepSpec

    spec = SweepSpec.load(REPO_ROOT / "examples" / "specs" / "fig9_balance_sweep.json")
    cells = spec.expand()
    assert len(cells) == 6  # 3 weights x 2 seed replicates
    weights = {cell.assignments["ddqn.worker_weight"] for cell in cells}
    assert weights == {0.0, 0.5, 1.0}


def test_cli_sweep_run_status_and_resume(tmp_path):
    spec_path = tmp_path / "sweep_spec.json"
    spec_path.write_text(json.dumps(CHEAP_SWEEP))
    sweep_dir = tmp_path / "sweep"

    completed = run_cli(
        "sweep", "run", str(spec_path), "--dir", str(sweep_dir), "--workers", "2"
    )
    assert completed.returncode == 0, completed.stderr
    assert "2 cells" in completed.stdout
    results = json.loads((sweep_dir / "results.json").read_text())
    assert results["groups"]["all"]["replicates"] == 2
    assert set(results["groups"]["all"]["policies"]) == {"Random", "Greedy CS"}

    status = run_cli("sweep", "status", str(sweep_dir))
    assert status.returncode == 0, status.stderr
    assert "2/2 cells finished" in status.stdout

    # Interrupt: drop one finished cell, status flips to pending, resume
    # re-runs only that cell and restores the identical aggregate.
    victim = sweep_dir / "cells" / "dataset.seed=2.json"
    victim.unlink()
    assert run_cli("sweep", "status", str(sweep_dir)).returncode == 1
    resumed = run_cli("sweep", "resume", str(sweep_dir), "--workers", "2")
    assert resumed.returncode == 0, resumed.stderr
    assert "1/2 cells already on disk" in resumed.stdout
    assert json.loads((sweep_dir / "results.json").read_text()) == results


def test_cli_sweep_run_missing_spec_fails_cleanly(tmp_path):
    completed = run_cli("sweep", "run", str(tmp_path / "nope.json"))
    assert completed.returncode != 0
    assert "nope.json" in completed.stderr


@pytest.mark.perf_smoke
def test_cli_bench_quick_writes_a_report(tmp_path):
    output = tmp_path / "bench.json"
    completed = run_cli("bench", "--quick", "--output", str(output))
    assert completed.returncode == 0, completed.stderr
    report = json.loads(output.read_text())
    assert report["mode"] == "quick"
    assert "train_step" in report["results"]
    # --suite all (the default) also writes the end-to-end throughput report.
    endtoend = json.loads((tmp_path / "bench.endtoend.json").read_text())
    assert endtoend["mode"] == "quick"
    assert "ddqn" in endtoend["policies"]
    assert endtoend["policies"]["ddqn"]["arrivals_per_s"] > 0


@pytest.mark.perf_smoke
def test_cli_bench_endtoend_suite_only(tmp_path):
    output = tmp_path / "endtoend.json"
    completed = run_cli(
        "bench", "--quick", "--suite", "endtoend", "--output", str(output)
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(output.read_text())
    assert "ddqn-float32" in report["policies"]
    assert report["decision_path"]["batched_speedup"] > 0


def test_cli_run_vectorize_matches_serial(tmp_path):
    serial_out = tmp_path / "serial.json"
    vector_out = tmp_path / "vector.json"
    serial = run_cli("run", str(TINY_SPEC), "--output", str(serial_out))
    assert serial.returncode == 0, serial.stderr
    vectorized = run_cli(
        "run", str(TINY_SPEC), "--vectorize", "2", "--output", str(vector_out)
    )
    assert vectorized.returncode == 0, vectorized.stderr
    serial_doc = json.loads(serial_out.read_text())
    vector_doc = json.loads(vector_out.read_text())
    for label, row in serial_doc["results"].items():
        for key, value in row.items():
            if key.startswith("mean_"):
                continue  # timing noise
            assert vector_doc["results"][label][key] == value, (label, key)


def test_cli_sweep_run_vectorized(tmp_path):
    sweep_dir = tmp_path / "sweep-vec"
    completed = run_cli(
        "sweep",
        "run",
        str(REPO_ROOT / "examples" / "specs" / "ci_sweep.json"),
        "--dir",
        str(sweep_dir),
        "--vectorize",
        "2",
    )
    assert completed.returncode == 0, completed.stderr
    assert (sweep_dir / "results.json").exists()


def test_bench_parser_accepts_async_and_blas_threads():
    from repro.api.cli import _build_parser

    parser = _build_parser()
    args = parser.parse_args(
        ["bench", "--suite", "endtoend", "--preset", "ci", "--async", "--blas-threads", "2"]
    )
    assert args.async_training and args.blas_threads == 2 and args.preset == "ci"
    args = parser.parse_args(["bench"])
    assert not args.async_training and args.blas_threads is None
