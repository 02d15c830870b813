"""Fused decision and update paths over N ≥ 1 Q-networks.

The serial DDQN step is this module with one learner:
``DoubleDQNLearner.td_targets_batch`` calls :func:`bellman_targets` and
``DoubleDQNLearner.train_step`` calls :func:`gradient_steps`, each with a
single job.  The episode-vectorized platform (:mod:`repro.eval.runner`)
advances N independent replicas one arrival at a time, together, and hands
the same functions one job per replica:

* the N per-replica candidate scorings run as one stacked ``q_values``
  forward per group (:func:`decide_lockstep` → :func:`fused_q_values`), and
* the N per-replica gradient steps run as one stacked forward/backward per
  group (:func:`observe_lockstep` → :func:`fused_train_steps`), with the
  target-side forwards of the revised Bellman targets fused the same way.

Jobs are grouped by architecture and padded shape; a group of one is a
forward with N = 1.  Per-replica replay memories, RNG streams, explorer
schedules and optimiser states remain completely independent — fusion only
changes *how many python ops and gufunc launches* the work costs, not any
number: every replica's slice of a stacked call is bit-identical to running
it alone (see :mod:`repro.core.stacked`), which is what keeps a vectorized
run float-for-float equal to N serial runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..nn import Tensor
from .replay import sample_fused
from .stacked import StackedForward, fused_q_values, stack_signature
from .state import StateMatrix, pad_state_batch

if TYPE_CHECKING:  # pragma: no cover - the learner imports this module
    from ..crowd.platform import ArrivalContext, Feedback
    from .agent import DQNAgent
    from .framework import TaskArrangementFramework
    from .learner import DoubleDQNLearner, TrainStepReport
    from .qnetwork import SetQNetwork
    from .replay import PrioritizedReplayMemory, ReplayMemory, Transition

__all__ = [
    "TrainJob",
    "bellman_targets",
    "decide_lockstep",
    "fused_train_steps",
    "gradient_steps",
    "observe_lockstep",
]


# --------------------------------------------------------------------- #
# Decision path
# --------------------------------------------------------------------- #
def decide_lockstep(
    pairs: Sequence[tuple[TaskArrangementFramework, ArrivalContext]]
) -> list[list[int]]:
    """Rank one arrival per framework, fusing the network forwards.

    Equivalent to ``[framework.rank_tasks(context) for ...]``.  Each
    framework's ``before_decision`` hook runs first (a no-op for inline
    training; snapshot refresh or the handoff barrier for async training),
    and each agent is scored with what its trainer decides with
    (:meth:`~repro.core.trainer.TrainerLoop.scorer`: the live network, or an
    async snapshot's parameters).  Exploration noise, pending-decision
    bookkeeping and annealing then run per framework on its own RNG, in
    order; only the (RNG-free) Q-value forwards are batched across
    frameworks.  An empty pool ranks as ``[]`` and, as in ``rank_tasks``,
    touches neither the trainer nor the framework's decision state.
    """
    rankings: list[list[int]] = [[] for _ in pairs]
    active = [slot for slot, (_, context) in enumerate(pairs) if context.available_tasks]
    for slot in active:
        pairs[slot][0].trainer.before_decision()
    states = {slot: pairs[slot][0]._build_states(pairs[slot][1]) for slot in active}
    scoring_jobs: list[tuple[SetQNetwork, StateMatrix]] = []
    parameters: list[dict[str, np.ndarray] | None] = []
    owners: list[tuple[int, str]] = []
    for slot in active:
        framework = pairs[slot][0]
        state_w, state_r = states[slot]
        for role, agent, state in (
            ("w", framework.agent_w, state_w),
            ("r", framework.agent_r, state_r),
        ):
            if agent is not None:
                network, params = framework.trainer.scorer(agent)
                scoring_jobs.append((network, state))
                parameters.append(params)
                owners.append((slot, role))
    scored = fused_q_values(scoring_jobs, parameters)
    worker_q: list[np.ndarray | None] = [None] * len(pairs)
    requester_q: list[np.ndarray | None] = [None] * len(pairs)
    for (slot, role), values in zip(owners, scored):
        if role == "w":
            worker_q[slot] = values
        else:
            requester_q[slot] = values
    for slot in active:
        framework, context = pairs[slot]
        state_w, state_r = states[slot]
        rankings[slot] = framework._decide(
            context, state_w, state_r, worker_q[slot], requester_q[slot]
        )
    return rankings


# --------------------------------------------------------------------- #
# Update path
# --------------------------------------------------------------------- #
@dataclass
class TrainJob:
    """One learner's sampled replay batch and its Bellman targets."""

    learner: DoubleDQNLearner
    memory: ReplayMemory | PrioritizedReplayMemory
    transitions: list[Transition]
    indices: np.ndarray
    weights: np.ndarray
    targets: np.ndarray


def _infer_grouped(
    jobs: Sequence[tuple[SetQNetwork, list[StateMatrix]]]
) -> list[np.ndarray]:
    """Each job's raw ``(len(states), rows)`` value block, fused by padded rows.

    Every state list is padded on its own (:func:`pad_state_batch`); lists of
    one architecture whose padded rows agree share one stacked inference
    forward, the shorter ones padded along the *batch* axis with all-masked
    dummy states.  That grows only the GEMM row count M, never a reduction
    length, and GEMM rows are M-invariant for M >= 2 (pinned by
    ``tests/core/test_stacked_equivalence.py``).  Single-row batches (M = 1,
    which numpy hands to gemv) therefore group only with each other.  A lone
    job runs unpadded.
    """
    padded = [pad_state_batch(states, dtype=network.dtype) for network, states in jobs]
    groups: dict[tuple, list[int]] = {}
    for slot, ((network, _), (batch, _)) in enumerate(zip(jobs, padded)):
        key = (stack_signature(network), batch.shape[1:], batch.shape[0] * batch.shape[1] > 1)
        groups.setdefault(key, []).append(slot)
    blocks: list[np.ndarray | None] = [None] * len(jobs)
    for slots in groups.values():
        longest = max(padded[slot][0].shape[0] for slot in slots)
        batches = []
        for slot in slots:
            batch, mask = padded[slot]
            extra = longest - batch.shape[0]
            if extra:
                batch = np.concatenate(
                    [batch, np.zeros((extra,) + batch.shape[1:], dtype=batch.dtype)]
                )
                mask = np.concatenate([mask, np.ones((extra, mask.shape[1]), dtype=bool)])
            batches.append((batch, mask))
        values = StackedForward([jobs[slot][0] for slot in slots]).infer_batch(batches)
        for i, slot in enumerate(slots):
            blocks[slot] = values[i, : padded[slot][0].shape[0]]
    return blocks  # type: ignore[return-value]


@dataclass
class _Branches:
    """One learner's flattened future-state branches (Eq. 3 / Eq. 6)."""

    learner: DoubleDQNLearner
    slot: int
    states: list[StateMatrix] = field(default_factory=list)
    owner: list[int] = field(default_factory=list)
    probability: list[float] = field(default_factory=list)
    source: list[tuple[Transition, int]] = field(default_factory=list)
    uncached: list[int] = field(default_factory=list)


def bellman_targets(
    requests: Sequence[tuple[DoubleDQNLearner, Sequence[Transition]]]
) -> list[np.ndarray]:
    """Revised Bellman targets for one transition batch per learner.

    ``y_i = r_i + γ Σ_b Pr(s_b) Q̃(s_b, argmax_a Q(s_b, a))``: every
    non-empty future-state branch of every transition is flattened; the
    *online* network selects each branch's best real task and the *target*
    network evaluates it (double Q-learning).  Target Q-vectors are memoised
    on the transition (the target network is frozen between hard syncs and
    ``future_states`` is immutable), so only branches not seen since the
    last sync cost a target forward.  The target and online forwards of all
    learners run through :func:`_infer_grouped`; one learner is the serial
    :meth:`DoubleDQNLearner.td_targets_batch`, whose two forwards then run
    unpadded.
    """
    targets: list[np.ndarray] = []
    pending: list[_Branches] = []
    for slot, (learner, transitions) in enumerate(requests):
        targets.append(np.array([t.reward for t in transitions], dtype=np.float64))
        branches = _Branches(learner, slot)
        for i, transition in enumerate(transitions):
            for index, (probability, future_state) in enumerate(transition.future_states):
                if future_state.num_tasks == 0:
                    continue
                branches.states.append(future_state)
                branches.owner.append(i)
                branches.probability.append(probability)
                branches.source.append((transition, index))
        if branches.states:
            version = learner._target_version
            branches.uncached = [
                j
                for j, (transition, _) in enumerate(branches.source)
                if transition.target_cache_version != version
            ]
            pending.append(branches)

    # Target forwards (uncached branches only) and online forwards (every
    # branch) are grouped separately: padding a few uncached branches up to
    # the online batch would cost a full forward.
    cold = [branches for branches in pending if branches.uncached]
    fresh_blocks = _infer_grouped(
        [
            (branches.learner.target, [branches.states[j] for j in branches.uncached])
            for branches in cold
        ]
    )
    online_blocks = _infer_grouped(
        [(branches.learner.online, branches.states) for branches in pending]
    )
    for branches, fresh in zip(cold, fresh_blocks):
        version = branches.learner._target_version
        for row, j in enumerate(branches.uncached):
            transition, index = branches.source[j]
            if transition.target_cache_version != version:
                transition.target_cache = [None] * len(transition.future_states)
                transition.target_cache_version = version
            transition.target_cache[index] = fresh[row, : branches.states[j].num_tasks].copy()

    for branches, online_values in zip(pending, online_blocks):
        # Restrict the argmax to each branch's real tasks (rows beyond
        # num_tasks are padding).
        counts = np.array([state.num_tasks for state in branches.states])
        columns = np.arange(online_values.shape[1])
        padded = columns[np.newaxis, :] >= counts[:, np.newaxis]
        best_actions = np.argmax(np.where(padded, -np.inf, online_values), axis=1)
        branch_values = np.empty(len(branches.states), dtype=np.float64)
        for j, (transition, index) in enumerate(branches.source):
            branch_values[j] = transition.target_cache[index][best_actions[j]]
        expected_future = np.zeros(len(targets[branches.slot]), dtype=np.float64)
        np.add.at(
            expected_future,
            np.asarray(branches.owner),
            np.asarray(branches.probability) * branch_values,
        )
        targets[branches.slot] = targets[branches.slot] + branches.learner.gamma * expected_future
    return targets


def gradient_steps(jobs: Sequence[TrainJob]) -> list[TrainStepReport]:
    """One gradient step per job, one stacked forward/backward per group.

    Jobs whose architecture and padded ``(B, rows, dim)`` batch agree share
    a group; a lone job is the serial :meth:`DoubleDQNLearner.train_step`.
    Each group builds every replica's importance-weighted squared-TD loss on
    slices of one stacked forward, backpropagates their sum once (each
    replica's loss receives gradient 1.0, exactly as its own scalar backward
    would), scatters the gradient slices into each learner's flat optimiser
    buffer, and finishes every update with the learner's clip/step/priority/
    sync path.  Reports come back in job order.
    """
    padded = [
        pad_state_batch([t.state for t in job.transitions], dtype=job.learner.online.dtype)
        for job in jobs
    ]
    groups: dict[tuple, list[int]] = {}
    for slot, (job, (batch, _)) in enumerate(zip(jobs, padded)):
        groups.setdefault((stack_signature(job.learner.online), batch.shape), []).append(slot)
    reports: list[TrainStepReport | None] = [None] * len(jobs)
    for slots in groups.values():
        group = [jobs[slot] for slot in slots]
        dtype = group[0].learner.online.dtype
        stacked = StackedForward([job.learner.online for job in group], requires_grad=True)
        values = stacked.forward_batch([padded[slot] for slot in slots])

        # One gather and one loss graph for the whole group.  Per replica
        # this is bit-identical to a lone ``(w * diff * diff).mean()``: the
        # advanced-index gather scatters exactly one contribution per
        # (replica, transition), the elementwise ops act per element, and
        # the axis-1 mean reduces each replica's row in the same summation
        # order as a 1-D mean.  Targets and IS weights join the graph in the
        # network's compute dtype, so float32 never promotes to float64.
        batch_size = len(group[0].transitions)
        actions = np.array(
            [[t.action_index for t in job.transitions] for job in group], dtype=np.int64
        )
        gathered = values[
            np.arange(len(group))[:, np.newaxis],
            np.arange(batch_size)[np.newaxis, :],
            actions,
        ]
        weights = np.stack([np.asarray(job.weights, dtype=dtype) for job in group])
        targets = np.stack([np.asarray(job.targets, dtype=dtype) for job in group])
        diff = gathered - Tensor(targets)
        losses = (Tensor(weights) * diff * diff).mean(axis=1)
        predictions = gathered.numpy()

        for job in group:
            job.learner.optimizer.zero_grad()
        losses.sum().backward()
        stacked.scatter_gradients()

        loss_values = losses.numpy()
        for i, (slot, job) in enumerate(zip(slots, group)):
            reports[slot] = job.learner._finish_update(
                job.memory,
                float(loss_values[i]),
                job.targets,
                predictions[i],
                job.indices,
                batch_size,
            )
    return reports  # type: ignore[return-value]


def fused_train_steps(agents: Sequence[DQNAgent]) -> None:
    """One train step per agent, fusing same-shaped work across agents.

    Semantically ``[agent.learner.train_step(agent.memory) for agent in
    agents]`` (plus the diagnostics bookkeeping of ``store_and_train``): the
    replay samples, the Bellman-target forwards and the prediction
    forward/backward each run as one fused call over the agents.  Each
    agent's numbers are bit-identical to its serial step.
    """
    if not agents:
        return
    # Replay sampling fuses across same-batch-size agents: one stacked
    # SumTree descent instead of one per memory (bit-identical per memory).
    by_batch: dict[int, list[DQNAgent]] = {}
    for agent in agents:
        by_batch.setdefault(agent.learner.batch_size, []).append(agent)
    samples: dict[int, tuple] = {}
    for batch_size, group_agents in by_batch.items():
        fused = sample_fused([a.memory for a in group_agents], batch_size)
        for group_agent, sample in zip(group_agents, fused):
            samples[id(group_agent)] = sample
    batches = [samples[id(agent)] for agent in agents]
    targets = bellman_targets(
        [(agent.learner, transitions) for agent, (transitions, _, _) in zip(agents, batches)]
    )
    reports = gradient_steps(
        [
            TrainJob(agent.learner, agent.memory, list(transitions), indices, weights, target)
            for agent, (transitions, indices, weights), target in zip(agents, batches, targets)
        ]
    )
    for agent, report in zip(agents, reports):
        agent.record_report(report)


def observe_lockstep(
    items: Sequence[tuple[TaskArrangementFramework, ArrivalContext, list[int], Feedback]]
) -> None:
    """Feed one feedback per framework replica, fusing the train steps.

    Equivalent to ``framework.observe_feedback(context, ranked, feedback)``
    per replica: each replica's (agent, transition) sequence is built by
    :meth:`TaskArrangementFramework.build_training_plan`, then the sequences
    are interleaved position-by-position so that every agent still stores
    transition *j* and (cadence permitting) trains on it before storing
    transition *j+1* — only the train steps of *different* agents that fall
    on the same position are fused.
    """
    plans = [
        framework.build_training_plan(context, ranked, feedback)
        for framework, context, ranked, feedback in items
    ]
    agent_jobs = [(agent, transitions) for plan in plans for agent, transitions in plan]
    longest = max((len(transitions) for _, transitions in agent_jobs), default=0)
    for position in range(longest):
        trainers: list[DQNAgent] = []
        for agent, transitions in agent_jobs:
            if position < len(transitions):
                agent.store(transitions[position])
                if agent.should_train():
                    trainers.append(agent)
        fused_train_steps(trainers)
