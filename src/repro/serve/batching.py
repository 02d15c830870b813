"""Same-tick rank batching across tenants.

Tenant pumps run concurrently on one asyncio loop; whenever several of them
reach their ``("rank", context)`` yield in the same event-loop tick, their
candidate scorings can share stacked network forwards exactly like lockstep
replicas do offline — tenants never interact, so batching only changes how
many gufunc launches the work costs, never any number.

:class:`RankBatcher` collects the tick's requests (``submit`` returns a
future; the flush runs via ``loop.call_soon``, i.e. after every pump that is
ready this tick has registered) and answers them through
:func:`decide_batch`, which routes each tenant by policy type:

* synchronously trained frameworks go through the offline
  :func:`repro.core.vectorized.decide_lockstep` path — per-tenant results
  are bit-identical to the serial ``rank_tasks`` call regardless of batch
  composition (pinned by the vectorized-equivalence tests), so batching can
  never perturb a tenant's trajectory or its warm-restart equivalence;
* asynchronously trained frameworks decide on their
  :class:`~repro.core.trainer.SnapshotNetwork`\\ s; their scorings go
  through the same :func:`repro.core.stacked.fused_q_values` grouper with
  each snapshot's parameter views in place of the live weights (each result
  bit-identical to that snapshot's own forward);
* everything else (baselines) answers serially via ``rank_tasks``.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

import numpy as np

from ..core.framework import TaskArrangementFramework
from ..core.qnetwork import SetQNetwork
from ..core.stacked import fused_q_values
from ..core.state import StateMatrix
from ..core.vectorized import decide_lockstep
from ..crowd.platform import ArrivalContext

__all__ = ["RankBatcher", "decide_batch", "decide_snapshots"]


def decide_snapshots(
    pairs: Sequence[tuple[TaskArrangementFramework, ArrivalContext]]
) -> list[list[int]]:
    """Rank one arrival per async-trained framework, fusing snapshot forwards.

    Equivalent to ``[framework.rank_tasks(context) for …]`` in async mode:
    each framework's ``before_decision`` hook runs first (snapshot refresh in
    free-running mode, the consumption barrier under a fixed handoff lag),
    then the snapshot scorings are fused across frameworks and exploration /
    pending bookkeeping runs per framework on its own RNG.
    """
    for framework, _ in pairs:
        framework.trainer.before_decision()
    states = [framework._build_states(context) for framework, context in pairs]
    jobs: list[tuple[SetQNetwork, StateMatrix]] = []
    parameters: list[dict[str, np.ndarray]] = []
    owners: list[tuple[int, str]] = []
    for slot, ((framework, _), (state_w, state_r)) in enumerate(zip(pairs, states)):
        snapshots = framework.trainer._snapshots
        for role, agent, state in (
            ("w", framework.agent_w, state_w),
            ("r", framework.agent_r, state_r),
        ):
            if agent is not None:
                snapshot = snapshots[id(agent)]
                jobs.append((snapshot.network, state))
                parameters.append(snapshot.parameters)
                owners.append((slot, role))
    scored = fused_q_values(jobs, parameters)
    worker_q: list[np.ndarray | None] = [None] * len(pairs)
    requester_q: list[np.ndarray | None] = [None] * len(pairs)
    for (slot, role), values in zip(owners, scored):
        if role == "w":
            worker_q[slot] = values
        else:
            requester_q[slot] = values
    return [
        framework._decide(context, state_w, state_r, worker_q[slot], requester_q[slot])
        for slot, ((framework, context), (state_w, state_r)) in enumerate(zip(pairs, states))
    ]


def decide_batch(entries: Sequence[tuple[object, ArrivalContext]]) -> list[list[int]]:
    """Answer one tick's rank requests, fusing what the policy types allow.

    ``entries`` holds ``(tenant, context)`` pairs (any object with a
    ``policy`` attribute works).  Returns the rankings in entry order; every
    ranking equals the serial ``policy.rank_tasks(context)`` (sync
    frameworks: bit-identical; async frameworks: identical given the same
    snapshot contents; baselines: the serial call itself).
    """
    rankings: list[list[int] | None] = [None] * len(entries)
    sync_slots: list[int] = []
    async_slots: list[int] = []
    for slot, (tenant, context) in enumerate(entries):
        policy = tenant.policy
        if isinstance(policy, TaskArrangementFramework):
            if policy.config.async_training:
                async_slots.append(slot)
            else:
                sync_slots.append(slot)
        else:
            rankings[slot] = policy.rank_tasks(context)
    if sync_slots:
        fused = decide_lockstep(
            [(entries[slot][0].policy, entries[slot][1]) for slot in sync_slots]
        )
        for slot, ranking in zip(sync_slots, fused):
            rankings[slot] = ranking
    if async_slots:
        fused = decide_snapshots(
            [(entries[slot][0].policy, entries[slot][1]) for slot in async_slots]
        )
        for slot, ranking in zip(async_slots, fused):
            rankings[slot] = ranking
    return rankings  # type: ignore[return-value]


class RankBatcher:
    """Collects one asyncio tick's rank requests and answers them together.

    ``submit`` registers a request and schedules one flush with
    ``loop.call_soon`` — by the time the flush callback runs, every tenant
    pump that was ready this tick has reached its rank yield and registered,
    so concurrent arrivals across tenants share one :func:`decide_batch`.
    Requests arriving alone still flush immediately (a batch of one is the
    serial path).
    """

    def __init__(self) -> None:
        self._pending: list[tuple[object, ArrivalContext, asyncio.Future]] = []
        self._scheduled = False
        self.batches = 0
        self.requests = 0
        self.max_batch = 0

    def submit(self, tenant, context: ArrivalContext) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append((tenant, context, future))
        if not self._scheduled:
            self._scheduled = True
            loop.call_soon(self._flush)
        return future

    def _flush(self) -> None:
        batch, self._pending = self._pending, []
        self._scheduled = False
        if not batch:
            return
        self.batches += 1
        self.requests += len(batch)
        self.max_batch = max(self.max_batch, len(batch))
        try:
            rankings = decide_batch([(tenant, context) for tenant, context, _ in batch])
        except BaseException as error:  # noqa: BLE001 - delivered to the waiters
            for _, _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, _, future), ranking in zip(batch, rankings):
            if not future.done():
                future.set_result(ranking)

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "mean_batch": self.requests / self.batches if self.batches else 0.0,
            "max_batch": self.max_batch,
        }
