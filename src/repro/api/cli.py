"""The ``python -m repro`` command line.

Eight subcommands, all built on the registry/spec/sweep/serve/obs layers
and all dispatched through one argparse tree (so ``--help`` lists every one
of them and forwards into each subcommand's own surface):

* ``run spec.json`` — execute a declarative :class:`ExperimentSpec` file and
  print (optionally write) the final measure table;
* ``compare`` — run one of the paper's head-to-head line-ups (worker /
  requester / balance) at a chosen preset without writing a spec first;
* ``sweep run|resume|status`` — execute a declarative :class:`SweepSpec`
  grid across a worker pool, cell-by-cell and resumable (see
  :mod:`repro.api.sweep`); ``--store`` ingests the finished cells straight
  into an observability store;
* ``policies`` — list every registered policy name (``--json`` for the
  machine-readable document the serving layer also exposes);
* ``serve`` — host a multi-tenant serving endpoint from a ServeSpec JSON
  (see :mod:`repro.serve`), with supervised tenant restarts, protocol
  hardening and optional deterministic fault injection
  (``--fault-plan``, see :mod:`repro.serve.faults`);
* ``loadgen`` — replay a ServeSpec's tenant traces against a running server
  and report throughput / rank-latency percentiles plus the resilience
  accounting (seeded retry/backoff via ``--retries``/``--backoff-base``/
  ``--backoff-max``/``--timeout``/``--retry-seed``, reconnects, seq
  resyncs);
* ``report`` — the observability store front end (``ingest`` / ``sql`` /
  ``tables`` / ``bench-history``; see :mod:`repro.obs.report`);
* ``bench`` — forward to the perf harnesses (engine microbenchmarks in
  ``benchmarks/perf/bench_engine.py`` and the end-to-end arrivals/sec
  harness in ``benchmarks/perf/bench_endtoend.py``; run from the repository
  root).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ..eval.metrics import EvaluationResult
from ..eval.reporting import format_final_table, result_payload
from ..obs import report as obs_report
from ..serve import loadgen as serve_loadgen
from ..serve import server as serve_server
from .registry import available_policies, registry_payload
from .spec import ExperimentSpec, run_spec
from .sweep import SweepRunner, SweepSpec, format_sweep_table

__all__ = ["main"]


def _results_payload(spec: ExperimentSpec, results: dict[str, EvaluationResult]) -> dict:
    """JSON document written by ``--output``: spec echo + per-policy summary."""
    return {
        "spec": spec.to_dict(),
        "results": {label: result_payload(result) for label, result in results.items()},
    }


def _report(spec: ExperimentSpec, results: dict[str, EvaluationResult], output: Path | None) -> None:
    print(f"experiment: {spec.name}  ({len(results)} policies)")
    print(format_final_table(list(results.values())))
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(_results_payload(spec, results), indent=2) + "\n")
        print(f"wrote {output}")


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #
#: Registry names whose builders accept ``async_training`` (the DDQN family).
_ASYNC_POLICIES = ("ddqn", "ddqn-worker", "ddqn-requester")


def _enable_async(spec: ExperimentSpec) -> None:
    """Switch every DDQN-family policy of ``spec`` to asynchronous training."""
    touched = 0
    for entry in spec.policies:
        if entry.policy in _ASYNC_POLICIES:
            entry.kwargs = {**entry.kwargs, "async_training": True}
            touched += 1
    if not touched:
        raise SystemExit(
            f"--async applies to the DDQN family {list(_ASYNC_POLICIES)} but the "
            f"spec lists none ({[entry.policy for entry in spec.policies]})"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(args.spec)
    if args.async_training:
        _enable_async(spec)
    results = run_spec(spec, vectorize=args.vectorize)
    _report(spec, results, args.output)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # Imported lazily: experiments pulls in the whole dataset/benchmark stack.
    from ..eval import experiments

    scale = (
        experiments.ExperimentScale.paper()
        if args.preset == "paper"
        else experiments.ExperimentScale.ci()
    )
    overrides = {}
    if args.max_arrivals is not None:
        overrides["max_arrivals"] = args.max_arrivals
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        scale = replace(scale, **overrides)

    if args.experiment == "worker":
        spec = experiments.worker_benefit_spec(scale)
    elif args.experiment == "requester":
        spec = experiments.requester_benefit_spec(scale)
    else:
        spec = experiments.balance_spec(tuple(args.weights), scale)

    if args.policies:
        wanted = set(args.policies)
        unknown = wanted - {entry.policy for entry in spec.policies}
        if unknown:
            raise SystemExit(
                f"policies {sorted(unknown)} are not part of the "
                f"{args.experiment!r} line-up ({[e.policy for e in spec.policies]})"
            )
        spec.policies = [entry for entry in spec.policies if entry.policy in wanted]

    results = run_spec(spec)
    _report(spec, results, args.output)
    return 0


def _sweep_progress(cell_id: str, done: int, total: int) -> None:
    print(f"[{done}/{total}] {cell_id}")


def _run_sweep_runner(runner: SweepRunner) -> int:
    status = runner.status()
    if status.finished:
        print(
            f"sweep {runner.spec.name!r}: {len(status.finished)}/{status.total} cells "
            "already on disk, resuming the rest"
        )
    aggregate = runner.run(progress=_sweep_progress)
    print(f"sweep: {aggregate['name']}  ({len(aggregate['cells'])} cells)")
    print(format_sweep_table(aggregate))
    print(f"wrote {runner.results_path}")
    return 0


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    spec = SweepSpec.load(args.spec)
    directory = args.dir if args.dir is not None else Path("sweeps") / spec.name
    runner = SweepRunner(spec, directory, workers=args.workers, vectorize=args.vectorize)
    code = _run_sweep_runner(runner)
    if code == 0 and args.store is not None:
        summary = runner.ingest(args.store)
        print(f"ingested {summary['cells']} cells into {args.store}")
    return code


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    spec = SweepSpec.load(Path(args.dir) / "sweep.json")
    runner = SweepRunner(spec, args.dir, workers=args.workers, vectorize=args.vectorize)
    code = _run_sweep_runner(runner)
    if code == 0 and args.store is not None:
        summary = runner.ingest(args.store)
        print(f"ingested {summary['cells']} cells into {args.store}")
    return code


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    spec = SweepSpec.load(Path(args.dir) / "sweep.json")
    runner = SweepRunner(spec, args.dir)
    status = runner.status()
    print(f"sweep {spec.name!r}: {len(status.finished)}/{status.total} cells finished")
    for cell_id in status.pending:
        print(f"  pending: {cell_id}")
    if status.complete:
        if runner.results_path.exists():
            print(f"  complete — aggregate at {runner.results_path}")
        else:
            print("  all cells finished but results.json is missing; run "
                  "`sweep resume` to aggregate")
    return 0 if status.complete else 1


def _cmd_policies(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(registry_payload(), indent=2))
        return 0
    entries = available_policies()
    width = max(len(name) for name in entries)
    for name, entry in entries.items():
        print(f"{name:<{width}}  {entry.description}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        from benchmarks.perf.bench_endtoend import main as endtoend_main
        from benchmarks.perf.bench_engine import main as engine_main
    except ImportError:
        print(
            "the perf harnesses live in benchmarks/perf/; "
            "run `python -m repro bench` from the repository root",
            file=sys.stderr,
        )
        return 2
    common: list[str] = ["--quick"] if args.quick else []
    if args.blas_threads is not None:
        common.extend(["--blas-threads", str(args.blas_threads)])
    if args.suite in ("engine", "all"):
        forwarded = list(common)
        if args.output is not None:
            forwarded.extend(["--output", str(args.output)])
        engine_main(forwarded)
    if args.suite in ("endtoend", "all"):
        forwarded = list(common)
        forwarded.extend(["--preset", args.preset])
        if args.async_training:
            forwarded.append("--async")
        if args.output is not None:
            # With --suite all, --output names the engine report; the
            # end-to-end report lands next to it as <stem>.endtoend.json.
            output = (
                args.output
                if args.suite == "endtoend"
                else args.output.with_suffix(".endtoend.json")
            )
            forwarded.extend(["--output", str(output)])
        if args.suite == "all":
            print()
        endtoend_main(forwarded)
    return 0


# --------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Unified experiment CLI for the task-arrangement reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute an ExperimentSpec JSON file")
    run_parser.add_argument("spec", type=Path, help="path to the spec (see examples/specs/)")
    run_parser.add_argument(
        "--output", type=Path, default=None, help="also write the results as JSON"
    )
    run_parser.add_argument(
        "--vectorize",
        type=int,
        default=None,
        metavar="N",
        help="run the spec's policies lockstep in episode-vectorized groups of N "
        "(results identical to the serial run)",
    )
    run_parser.add_argument(
        "--async",
        dest="async_training",
        action="store_true",
        help="train the spec's DDQN policies asynchronously (decisions on a "
        "snapshot network, train steps on a background thread)",
    )
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="run one of the paper's head-to-head line-ups"
    )
    compare_parser.add_argument(
        "--experiment",
        choices=("worker", "requester", "balance"),
        default="worker",
        help="which line-up to run (default: worker benefit, Fig. 7)",
    )
    compare_parser.add_argument(
        "--preset",
        choices=("ci", "paper"),
        default="ci",
        help="experiment scale (ci: minutes on a laptop; paper: full 13-month volume)",
    )
    compare_parser.add_argument(
        "--policies",
        nargs="+",
        metavar="NAME",
        help="restrict the line-up to these registry names",
    )
    compare_parser.add_argument(
        "--weights",
        nargs="+",
        type=float,
        default=(0.0, 0.25, 0.5, 0.75, 1.0),
        help="aggregator weights for --experiment balance",
    )
    compare_parser.add_argument("--max-arrivals", type=int, default=None)
    compare_parser.add_argument("--seed", type=int, default=None)
    compare_parser.add_argument("--output", type=Path, default=None)
    compare_parser.set_defaults(func=_cmd_compare)

    sweep_parser = sub.add_parser(
        "sweep", help="run declarative sweep grids (parallel, resumable)"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser("run", help="execute a SweepSpec JSON file")
    sweep_run.add_argument("spec", type=Path, help="path to the sweep spec (see examples/specs/)")
    sweep_run.add_argument(
        "--dir",
        type=Path,
        default=None,
        help="sweep directory for cells/results (default: sweeps/<name>)",
    )
    sweep_run.add_argument(
        "--workers", type=int, default=1, help="process-pool size (1 = serial, in-process)"
    )
    sweep_run.add_argument(
        "--vectorize",
        type=int,
        default=None,
        metavar="N",
        help="fuse seed-replicate cells into lockstep episode-vectorized runs of "
        "width N (results identical to the serial sweep)",
    )
    sweep_run.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DB",
        help="after the sweep finishes, ingest its cells into this "
        "observability store (see 'repro report')",
    )
    sweep_run.set_defaults(func=_cmd_sweep_run)

    sweep_resume = sweep_sub.add_parser(
        "resume", help="finish an interrupted sweep from its directory"
    )
    sweep_resume.add_argument("dir", type=Path, help="sweep directory holding sweep.json")
    sweep_resume.add_argument("--workers", type=int, default=1)
    sweep_resume.add_argument("--vectorize", type=int, default=None, metavar="N")
    sweep_resume.add_argument("--store", type=Path, default=None, metavar="DB")
    sweep_resume.set_defaults(func=_cmd_sweep_resume)

    sweep_status = sweep_sub.add_parser(
        "status", help="show finished/pending cells of a sweep directory"
    )
    sweep_status.add_argument("dir", type=Path)
    sweep_status.set_defaults(func=_cmd_sweep_status)

    policies_parser = sub.add_parser("policies", help="list the registered policies")
    policies_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable registry document (same payload as the "
        "serving layer's 'policies' op)",
    )
    policies_parser.set_defaults(func=_cmd_policies)

    serve_parser = sub.add_parser(
        "serve", help="host a multi-tenant serving endpoint from a ServeSpec JSON"
    )
    serve_server.configure_parser(serve_parser)
    serve_parser.set_defaults(func=serve_server.run)

    loadgen_parser = sub.add_parser(
        "loadgen", help="replay a ServeSpec's tenant traces against a running server"
    )
    serve_loadgen.configure_parser(loadgen_parser)
    loadgen_parser.set_defaults(func=serve_loadgen.run)

    report_parser = sub.add_parser(
        "report",
        help="query and regenerate tables from the observability store "
        "(ingest / sql / tables / bench-history)",
    )
    obs_report.configure_parser(report_parser)
    report_parser.set_defaults(func=obs_report.run)

    bench_parser = sub.add_parser(
        "bench", help="run the perf harnesses (engine microbenchmarks + end-to-end throughput)"
    )
    bench_parser.add_argument("--quick", action="store_true", help="tiny CI-scale shapes")
    bench_parser.add_argument(
        "--suite",
        choices=("engine", "endtoend", "all"),
        default="all",
        help="which harness to run (default: both)",
    )
    bench_parser.add_argument(
        "--preset",
        choices=("ci", "paper"),
        default="ci",
        help="end-to-end trace volume / network width (ignored by --suite engine)",
    )
    bench_parser.add_argument(
        "--async",
        dest="async_training",
        action="store_true",
        help="also measure the asynchronous DDQN trainer in the end-to-end suite "
        "(sync vs async arrivals/s, decision p50/p99, trainer utilisation)",
    )
    bench_parser.add_argument(
        "--blas-threads",
        type=int,
        default=None,
        metavar="N",
        help="pin the BLAS thread-pool size for both harnesses "
        "(recorded in the reports' environment blocks)",
    )
    bench_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="JSON report path; with --suite all the end-to-end report is "
        "written next to it as <stem>.endtoend.json",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)
