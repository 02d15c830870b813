"""The in-process workloads: ``online``, ``online_async`` and ``decide``.

Each workload is a sequence of *repeats*.  A repeat builds everything from
scratch through the public entry points — ``generate_crowdspring``,
``build_policy``, ``ReplicaRun.loop`` answered with ``rank_tasks`` /
``observe_feedback`` — so every repeat has its own set-up time.  The repeats
of one run must agree exactly on their outputs, except under free-running
asynchronous training, whose outcomes depend on timing.
"""

from __future__ import annotations

import hashlib
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.api import build_policy
from repro.datasets import generate_crowdspring
from repro.eval import RunnerConfig
from repro.eval.runner import ReplicaRun

from spans import Recorder


@dataclass(frozen=True)
class LoopShape:
    """Trace volume and policy shape of one in-process workload."""

    scale: float
    months: int
    #: The trace is part of the workload's definition, like the fixed
    #: ``dataset_seed`` of the older harnesses: its pool sizes set the cost
    #: of every forward, so a per-run trace would move the timings by ±50 %.
    #: The run's ``--seed`` drives everything else (policy initialisation,
    #: exploration and the simulated workers' choices).
    dataset_seed: int
    policy_kwargs: dict
    #: Warm-up observations the policy learns from (None: frozen policy).
    warmup_observations: int | None
    #: Online arrivals served per repeat.
    arrivals: int


#: Full shapes.  The sizes keep one repeat of ``online`` near 5 s on one
#: core so a run holds several repeats; ``decide`` uses the paper's width.
SHAPES = {
    "online": LoopShape(
        scale=0.1,
        months=3,
        dataset_seed=7,
        policy_kwargs=dict(hidden_dim=32, num_heads=4, batch_size=32, train_interval=4,
                           dtype="float32", prioritized_replay=True),
        warmup_observations=100,
        arrivals=150,
    ),
    "online_async": LoopShape(
        scale=0.1,
        months=3,
        dataset_seed=7,
        policy_kwargs=dict(hidden_dim=32, num_heads=4, batch_size=32, train_interval=4,
                           dtype="float32", prioritized_replay=True, async_training=True),
        warmup_observations=100,
        arrivals=400,
    ),
    "decide": LoopShape(
        scale=0.3,
        months=3,
        dataset_seed=7,
        policy_kwargs=dict(hidden_dim=128, num_heads=4, dtype="float32"),
        warmup_observations=None,
        arrivals=1500,
    ),
}

#: Tiny shapes for the benchmark's own smoke test (``--smoke``).
SMOKE_SHAPES = {
    "online": LoopShape(0.03, 2, 7, dict(hidden_dim=8, num_heads=2, batch_size=8,
                                      train_interval=4, dtype="float32"), 20, 20),
    "online_async": LoopShape(0.03, 2, 7, dict(hidden_dim=8, num_heads=2, batch_size=8,
                                            train_interval=4, dtype="float32",
                                            async_training=True), 20, 20),
    "decide": LoopShape(0.03, 2, 7, dict(hidden_dim=8, num_heads=2, dtype="float32"), None, 40),
}


@dataclass
class Repeat:
    """What one repeat measured and produced."""

    setup_s: float
    online_s: float
    arrivals: int
    decision_s: list[float]
    train_steps: int
    #: Minor page faults of the process during the online phase.
    minor_faults: int
    #: Outputs that must be identical across the repeats of one run.
    fingerprint: dict
    cr: float
    qg: float
    #: ``AsyncTrainer.stats()`` at the end of the repeat ({} for inline training).
    trainer: dict = field(default_factory=dict)


def _train_steps(policy) -> int:
    agents = [agent for agent in (policy.agent_w, policy.agent_r) if agent is not None]
    return sum(agent.learner.updates for agent in agents)


def run_repeat(workload: str, shape: LoopShape, seed: int,
               recorder: Recorder | None = None) -> Repeat:
    """One repeat: set up from scratch, then serve ``shape.arrivals`` arrivals."""
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    learn = shape.warmup_observations is not None
    started = time.perf_counter()
    with span("datasets.generate"):
        dataset = generate_crowdspring(
            scale=shape.scale, num_months=shape.months, seed=shape.dataset_seed)
    with span("api.build_policy"):
        policy = build_policy("ddqn", dataset, seed=seed, **shape.policy_kwargs)
    config = RunnerConfig(
        seed=seed,
        max_arrivals=shape.arrivals,
        learn_from_warmup=learn,
        max_warmup_observations=shape.warmup_observations if learn else 0,
    )
    loop = ReplicaRun(dataset, policy, config).loop()
    if recorder is not None:
        recorder.begin("eval.runner.warmup")
    in_warmup = True
    setup_s = online_started = 0.0
    steps_before = faults_before = 0
    trainer_before: dict = {}
    decision_s: list[float] = []
    rankings = hashlib.sha256()
    response = None
    while True:
        try:
            with span("eval.runner.loop"):
                request = loop.send(response)
        except StopIteration as stop:
            result = stop.value
            break
        kind = request[0]
        if kind == "rank":
            if in_warmup:
                in_warmup = False
                online_started = time.perf_counter()
                setup_s = online_started - started
                if recorder is not None:
                    recorder.end()
                faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                steps_before = _train_steps(policy)
                trainer_before = policy.trainer.stats()
            if recorder is not None:
                recorder.arrival += 1
            tick = time.perf_counter()
            response = policy.rank_tasks(request[1])
            decision_s.append(time.perf_counter() - tick)
            rankings.update(repr(response).encode())
        elif kind == "observe":
            if learn:
                policy.observe_feedback(*request[1:])
            response = None
        else:
            response = None
    online_s = time.perf_counter() - online_started
    minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_before
    if in_warmup:
        raise RuntimeError(f"{workload}: the trace has no online arrival to serve")

    trainer = policy.trainer.stats()
    if trainer:
        steps = trainer["train_steps"] - trainer_before.get("train_steps", 0)
    else:
        steps = _train_steps(policy) - steps_before
    policy.trainer.close()
    fingerprint = {
        "arrivals": result.arrivals,
        "completions": result.completions,
        "cr": list(result.cr.monthly),
        "qg": list(result.qg.monthly),
    }
    if workload == "decide":
        fingerprint["rankings"] = rankings.hexdigest()
    elif workload == "online_async":
        # Free-running training makes outcomes timing dependent; what must
        # hold is that every submitted plan was consumed.
        fingerprint = {"arrivals": result.arrivals}
    return Repeat(
        setup_s=setup_s,
        online_s=online_s,
        arrivals=result.arrivals,
        decision_s=decision_s,
        train_steps=steps,
        minor_faults=minor_faults,
        fingerprint=fingerprint,
        cr=result.cr.final,
        qg=result.qg.final,
        trainer=trainer,
    )
