"""The ``serve`` workload: ``python -m repro serve`` driven by an open-loop client.

Each rate step starts a fresh server process (through ``serve_launcher.py``)
with two sync ``ddqn-worker`` tenants and a fresh state directory, then feeds
the same trace prefix of each tenant at that step's Poisson rate, one
pipelined connection per tenant.  Every request is timed from its *due* time,
so a stall also charges the requests queued behind it, and the generator's
own lateness is reported.  After the schedule the client reads ``status``
and drains the server with ``shutdown``; the drain results of the three
steps must be identical, because the tenants are deterministic in their
event sequence whatever the timing.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.crowd.events import EventType
from repro.serve.protocol import decode_line, encode_line, event_to_wire
from repro.serve.spec import ServeSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The p90 round-trip limit a step must meet to count as in SLO (the
#: repository's ``max_rtt_p99_ms`` budget of 50 ms, applied to the highest
#: percentile the step's sample count supports).
SLO_MS = 50.0


@dataclass(frozen=True)
class ServeShape:
    scale: float
    months: int
    hidden_dim: int
    batch_size: int
    warmup_observations: int
    #: Online events fed per tenant in every step.
    events: int
    #: Aggregate offered rate (events/s over both tenants) per step, frozen
    #: from a closed-loop calibration of the parent (see README.md).
    rates: tuple[tuple[str, float], ...]


SHAPE = ServeShape(scale=0.1, months=3, hidden_dim=16, batch_size=8, warmup_observations=100,
                   events=170, rates=(("low", 40.0), ("mid", 80.0), ("high", 120.0)))
SMOKE_SHAPE = ServeShape(scale=0.03, months=2, hidden_dim=8, batch_size=8, warmup_observations=20,
                         events=30, rates=(("low", 60.0), ("mid", 120.0), ("high", 180.0)))

TENANTS = ("alpha", "beta")


def build_spec(shape: ServeShape, seed: int) -> dict:
    tenants = []
    for index, name in enumerate(TENANTS):
        tenants.append({
            "name": name,
            # Fixed traces, as in examples/specs/serve_ci.json; the run's seed
            # drives the simulated workers, the policies and the schedule.
            "dataset": {"scale": shape.scale, "num_months": shape.months, "seed": index + 1},
            # serve_ci.json checkpoints every 25 arrivals; here every 100, so
            # each tenant still writes one checkpoint per step.  At 25 the
            # fsync stalls on the shared disk made the server's p90 decision
            # latency spread by 0.9 of its median across seeds (0.17 at 100).
            "runner": {"seed": seed + index, "checkpoint_every": 100,
                       "max_warmup_observations": shape.warmup_observations},
            "policy": {"policy": "ddqn-worker", "kwargs": {
                "hidden_dim": shape.hidden_dim, "num_heads": 2, "batch_size": shape.batch_size,
                "train_interval": 4, "seed": seed + index}},
        })
    return {"name": "perfbench", "host": "127.0.0.1", "port": 0, "tenants": tenants}


def poisson_schedule(count: int, rate: float, rng: random.Random) -> list[float]:
    """Due offsets (s) of ``count`` sends of a Poisson process at ``rate`` per second.

    Drawn as a Poisson process conditioned on ``count`` events in
    ``count / rate`` seconds (sorted uniform offsets), so every seed offers
    exactly the step's rate and only the spacing varies.
    """
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


class Server:
    """One spawned serving process; set-up time runs from spawn to ``serving``."""

    def __init__(self, spec_path: Path, state_dir: Path, env: dict, ledger: Path | None) -> None:
        command = [sys.executable, str(HERE / "serve_launcher.py")]
        if ledger is not None:
            command += ["--ledger", str(ledger)]
        command += [str(spec_path), "--state-dir", str(state_dir), "--fresh"]
        started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                        text=True)
        try:
            for line in self.process.stdout:
                if line.startswith('{"serving"'):
                    serving = json.loads(line)["serving"]
                    break
            else:
                raise RuntimeError("serve process exited before announcing its port")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.host, self.port = serving["host"], serving["port"]

    def stop(self, wait_s: float = 0.0) -> None:
        """Wait up to ``wait_s`` for a drained server to exit, then terminate it."""
        try:
            self.process.wait(timeout=max(wait_s, 0.001))
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


async def _control(host: str, port: int, payload: dict) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_line(payload))
        await writer.drain()
        return decode_line(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


async def _drive_tenant(host: str, port: int, tenant: str, events, offsets, start: float) -> dict:
    """Send ``events`` at ``start + offsets`` on one pipelined connection."""
    reader, writer = await asyncio.open_connection(host, port)
    in_flight: deque = deque()
    rtt_ms: list[tuple[float, float | None]] = []
    late_ms: list[float] = []
    errors: list[dict] = []
    answered = 0

    async def receive() -> None:
        nonlocal answered
        for _ in range(len(events)):
            line = await reader.readline()
            arrived = time.perf_counter()
            if not line:
                raise ConnectionError(f"{tenant}: server closed the connection")
            seq, due, is_arrival = in_flight.popleft()
            response = decode_line(line)
            if not response.get("ok") or response.get("duplicate"):
                errors.append({"seq": seq, **response})
                continue
            answered += 1
            if is_arrival:
                # decision is None when the loop skipped the arrival (empty
                # pool): the worker still waited, but nothing was decided.
                decision = response.get("decision")
                server_ms = decision["latency_ms"] if decision else None
                rtt_ms.append(((arrived - due) * 1e3, server_ms))

    receiver = asyncio.ensure_future(receive())
    try:
        for seq, (event, offset) in enumerate(zip(events, offsets)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
            in_flight.append((seq, due, event.event_type is EventType.WORKER_ARRIVAL))
            writer.write(encode_line(event_to_wire(tenant, event, seq=seq)))
            await writer.drain()
        await receiver
    finally:
        if not receiver.done():
            receiver.cancel()
            await asyncio.gather(receiver, return_exceptions=True)
        writer.close()
        await writer.wait_closed()
    return {"rtt_ms": rtt_ms, "late_ms": late_ms, "errors": errors, "answered": answered}


async def _run_step(server: Server, traces: dict, rate: float, seed: int, step: str) -> dict:
    per_tenant_rate = rate / len(traces)
    start = time.perf_counter() + 0.05
    schedules = {
        name: poisson_schedule(len(events), per_tenant_rate,
                               random.Random(f"{seed}:{step}:{name}"))
        for name, events in traces.items()
    }
    rows = await asyncio.gather(*(
        _drive_tenant(server.host, server.port, name, events, schedules[name], start)
        for name, events in traces.items()
    ))
    elapsed = time.perf_counter() - start
    status = (await _control(server.host, server.port, {"op": "status"}))["status"]
    drained = await _control(server.host, server.port, {"op": "shutdown"})
    return {"tenants": dict(zip(traces, rows)), "elapsed_s": elapsed, "status": status,
            "shutdown": drained.get("shutdown", {}), "ok": drained.get("ok", False)}


def _drain_outcome(shutdown: dict) -> dict:
    """The timing-free part of the drain summary, compared across steps."""
    outcome = {}
    for name, entry in sorted(shutdown.items()):
        result = {key: value for key, value in entry.get("result", {}).items()
                  if key != "update_s"}
        outcome[name] = {key: entry.get(key) for key in
                         ("events_consumed", "decisions", "arrivals", "completions", "error")}
        outcome[name]["result"] = result
    return outcome


def run_serve(shape: ServeShape, seed: int, env: dict, traced: bool) -> dict:
    """All rate steps, each against a fresh server; returns the raw measurements."""
    scratch_root = ROOT / ".perfbench-state"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch_root))
    try:
        spec_dict = build_spec(shape, seed)
        spec_path = scratch / "spec.json"
        spec_path.write_text(json.dumps(spec_dict))
        spec = ServeSpec.from_dict(spec_dict)
        traces = {}
        for tenant in spec.tenants:
            dataset = tenant.dataset.build()
            _, online = dataset.trace.split_warmup(dataset.warmup_end)
            if len(online.events) < shape.events:
                raise RuntimeError(f"{tenant.name}: trace has only {len(online.events)} events")
            traces[tenant.name] = online.events[: shape.events]
        steps = {}
        # A traced run also repeats the middle step untraced, for trace.overhead.
        plan = [(name, rate, traced) for name, rate in shape.rates]
        if traced:
            plan.append(("mid_untraced", dict(shape.rates)["mid"], False))
        for name, rate, trace_step in plan:
            state_dir = scratch / f"state-{name}"
            ledger = scratch / f"ledger-{name}.json" if trace_step else None
            server = Server(spec_path, state_dir, env, ledger)
            try:
                step = asyncio.run(_run_step(server, traces, rate, seed, name.split("_")[0]))
                server.stop(wait_s=60)
            finally:
                server.stop()
            step["setup_s"] = server.setup_s
            step["exit_code"] = server.process.returncode
            files = [path for path in state_dir.rglob("*") if path.is_file()]
            step["checkpoint_files"] = len(files)
            step["checkpoint_bytes"] = sum(path.stat().st_size for path in files)
            if ledger is not None:
                step["ledger"] = json.loads(ledger.read_text())
            step["outcome"] = _drain_outcome(step.pop("shutdown"))
            steps[name] = step
        return {"steps": steps, "state_fs_dev": scratch.stat().st_dev}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
