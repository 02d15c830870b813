"""Batched decision path: ``rank_tasks_batch`` vs sequential ``rank_tasks``.

With no feedback observed in between, ranking a list of independent arrivals
through one padded ``q_values_batch`` per agent must reproduce the
sequential loop: same rankings, same RNG consumption, same pending
bookkeeping — and the decision-only replay in the runner must rank every
online arrival regardless of batch size.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import available_policies, build_policy
from repro.baselines import RandomPolicy
from repro.core import FrameworkConfig, TaskArrangementFramework
from repro.crowd.entities import MINUTES_PER_DAY
from repro.crowd.platform import ArrivalContext
from repro.datasets import generate_crowdspring, scalability_snapshot
from repro.eval import RunnerConfig, SimulationRunner
from repro.serve.batching import decide_batch

from test_checkpoint import drive, make_context, snapshot  # noqa: F401 (fixture)

TINY = dict(hidden_dim=16, num_heads=2, batch_size=8, train_interval=1, seed=5)


def make_framework(schema, **overrides) -> TaskArrangementFramework:
    return TaskArrangementFramework(schema, FrameworkConfig(**{**TINY, **overrides}))


class TestRankTasksBatch:
    def test_matches_sequential_rank_tasks(self, snapshot):
        _, _, schema, _ = snapshot
        sequential = make_framework(schema)
        batched = make_framework(schema)
        contexts = [make_context(snapshot, MINUTES_PER_DAY + 7.0 * i) for i in range(12)]

        expected = [sequential.rank_tasks(context) for context in contexts]
        actual = batched.rank_tasks_batch(contexts)
        assert actual == expected

    def test_consumes_the_rng_like_the_sequential_loop(self, snapshot):
        """After a batched call, later decisions still line up sequentially."""
        _, _, schema, _ = snapshot
        sequential = make_framework(schema)
        batched = make_framework(schema)
        contexts = [make_context(snapshot, MINUTES_PER_DAY + 7.0 * i) for i in range(8)]

        for context in contexts[:5]:
            sequential.rank_tasks(context)
        batched.rank_tasks_batch(contexts[:5])

        follow_up = make_context(snapshot, MINUTES_PER_DAY + 999.0)
        assert batched.rank_tasks(follow_up) == sequential.rank_tasks(follow_up)

    def test_single_mdp_variants(self, snapshot):
        _, _, schema, _ = snapshot
        for variant in ("worker_only", "requester_only"):
            sequential = getattr(TaskArrangementFramework, variant)(
                schema, FrameworkConfig(**TINY)
            )
            batched = getattr(TaskArrangementFramework, variant)(
                schema, FrameworkConfig(**TINY)
            )
            contexts = [make_context(snapshot, MINUTES_PER_DAY + 3.0 * i) for i in range(6)]
            assert batched.rank_tasks_batch(contexts) == [
                sequential.rank_tasks(context) for context in contexts
            ]

    def test_empty_pools_are_passed_through(self, snapshot):
        _, _, schema, _ = snapshot
        framework = make_framework(schema)
        context = make_context(snapshot, MINUTES_PER_DAY)
        empty = make_context(snapshot, MINUTES_PER_DAY + 1.0)
        empty.available_tasks = []
        rankings = framework.rank_tasks_batch([empty, context])
        assert rankings[0] == []
        assert rankings[1]

    def test_default_interface_implementation_loops(self):
        tasks, worker, schema = scalability_snapshot(5, seed=1)
        features = np.stack([schema.task_features(task) for task in tasks])
        from repro.crowd.platform import ArrivalContext

        contexts = [
            ArrivalContext(
                timestamp=float(i),
                worker=worker,
                worker_feature=schema.empty_worker_features(),
                available_tasks=list(tasks),
                task_features=features,
                task_qualities=np.zeros(len(tasks)),
            )
            for i in range(4)
        ]
        a, b = RandomPolicy(seed=3), RandomPolicy(seed=3)
        assert a.rank_tasks_batch(contexts) == [b.rank_tasks(c) for c in contexts]

    def test_pending_decisions_stay_bounded(self, snapshot):
        _, _, schema, _ = snapshot
        framework = make_framework(schema)
        framework._MAX_PENDING = 10
        for i in range(50):
            framework.rank_tasks(make_context(snapshot, MINUTES_PER_DAY + float(i)))
        assert len(framework._pending) == 10


def pool_context(snapshot, timestamp: float, pool_size: int) -> ArrivalContext:
    """An arrival whose candidate pool is the first ``pool_size`` tasks."""
    tasks, worker, schema, features = snapshot
    assert 0 < pool_size <= len(tasks)
    return ArrivalContext(
        timestamp=timestamp,
        worker=worker,
        worker_feature=schema.empty_worker_features(),
        available_tasks=list(tasks[:pool_size]),
        task_features=features[:pool_size],
        task_qualities=np.zeros(pool_size),
    )


FRAMEWORK_VARIANTS = {
    "balanced": lambda schema: TaskArrangementFramework.balanced(
        schema, 0.25, FrameworkConfig(**TINY)
    ),
    "worker_only": lambda schema: TaskArrangementFramework.worker_only(
        schema, FrameworkConfig(**TINY)
    ),
    "requester_only": lambda schema: TaskArrangementFramework.requester_only(
        schema, FrameworkConfig(**TINY)
    ),
}


def assert_pending_q_equal(reference: TaskArrangementFramework, other) -> None:
    """The stored per-decision Q arrays of two frameworks match bitwise."""
    assert reference._pending.keys() == other._pending.keys()
    for key, decision in reference._pending.items():
        twin = other._pending[key]
        for role in ("worker_q", "requester_q"):
            lhs, rhs = getattr(decision, role), getattr(twin, role)
            if lhs is None:
                assert rhs is None
            else:
                assert np.array_equal(lhs, rhs), f"{role} diverged at {key}"


class TestEqualPools:
    """Arrivals whose pools pad to one shape score exactly as one at a time.

    Every context below offers the same number of candidates, so the padded
    batch holds no extra rows and each batch slice is bit-identical to the
    single-arrival forward: stored Q arrays, not only rankings, match.
    """

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_crowdspring(scale=0.03, num_months=2, seed=1)

    @pytest.mark.parametrize("name", sorted(available_policies()))
    def test_every_registered_policy_matches_sequential(
        self, tmp_path_factory, snapshot, dataset, name
    ):
        _, _, schema, _ = snapshot
        kwargs = {"ddqn": TINY, "ddqn-worker": TINY, "ddqn-requester": TINY, "random": {"seed": 3}}
        if name == "ddqn-checkpoint":
            checkpoint = tmp_path_factory.mktemp("batched") / "ddqn.npz"
            build_policy("ddqn-worker", schema, **TINY).save(checkpoint)
            kwargs[name] = {"path": str(checkpoint)}
        source = dataset if name == "taskrec" else schema
        batched = build_policy(name, source, **kwargs.get(name, {}))
        sequential = build_policy(name, source, **kwargs.get(name, {}))
        contexts = [make_context(snapshot, MINUTES_PER_DAY + 7.0 * i) for i in range(11)]
        assert batched.rank_tasks_batch(contexts) == [
            sequential.rank_tasks(context) for context in contexts
        ]

    @pytest.mark.parametrize("variant", sorted(FRAMEWORK_VARIANTS))
    @pytest.mark.parametrize("count", [2, 4, 11])
    def test_framework_q_values_bitwise(self, snapshot, variant, count):
        schema = snapshot[2]
        batched = FRAMEWORK_VARIANTS[variant](schema)
        sequential = FRAMEWORK_VARIANTS[variant](schema)
        contexts = [pool_context(snapshot, MINUTES_PER_DAY + 7.0 * i, 3) for i in range(count)]
        expected = [sequential.rank_tasks(context) for context in contexts]
        assert batched.rank_tasks_batch(contexts) == expected
        assert_pending_q_equal(sequential, batched)

    @pytest.mark.parametrize("variant", sorted(FRAMEWORK_VARIANTS))
    def test_sub_batches_match_one_batch(self, snapshot, variant):
        """Splitting a batch into contiguous pieces changes no bit."""
        schema = snapshot[2]
        contexts = [make_context(snapshot, MINUTES_PER_DAY + 7.0 * i) for i in range(11)]
        whole = FRAMEWORK_VARIANTS[variant](schema)
        expected = whole.rank_tasks_batch(contexts)
        for piece in (2, 3, 5):
            split = FRAMEWORK_VARIANTS[variant](schema)
            rankings = []
            for start in range(0, len(contexts), piece):
                rankings += split.rank_tasks_batch(contexts[start : start + piece])
            assert rankings == expected, f"diverged with pieces of {piece}"
            assert_pending_q_equal(whole, split)

    def test_rng_consumption_matches_after_sub_batches(self, snapshot):
        schema = snapshot[2]
        contexts = [make_context(snapshot, MINUTES_PER_DAY + 7.0 * i) for i in range(9)]
        whole = FRAMEWORK_VARIANTS["worker_only"](schema)
        split = FRAMEWORK_VARIANTS["worker_only"](schema)
        whole.rank_tasks_batch(contexts)
        for start in range(0, len(contexts), 4):
            split.rank_tasks_batch(contexts[start : start + 4])
        follow_up = make_context(snapshot, MINUTES_PER_DAY + 999.0)
        assert split.rank_tasks(follow_up) == whole.rank_tasks(follow_up)

    def test_empty_batch_ranks_nothing(self, snapshot, dataset):
        _, _, schema, _ = snapshot
        for name in available_policies():
            if name == "ddqn-checkpoint":
                continue  # needs a file; same class as ddqn-worker
            source = dataset if name == "taskrec" else schema
            kwargs = TINY if name.startswith("ddqn") else {}
            assert build_policy(name, source, **kwargs).rank_tasks_batch([]) == [], name


class TestReplayDecisions:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_crowdspring(scale=0.03, num_months=2, seed=1)

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_ranks_the_requested_number_of_arrivals(self, dataset, batch_size):
        runner = SimulationRunner(dataset, RunnerConfig(seed=0))
        policy = build_policy("ddqn-worker", dataset, **TINY)
        ranked = runner.replay_decisions(policy, batch_size=batch_size, max_arrivals=20)
        assert ranked == 20

    @pytest.mark.parametrize("batch_size", [3, 16, 64])
    def test_fixed_max_tasks_replay_is_batch_size_invariant(self, dataset, batch_size):
        """A fixed ``max_tasks`` pads every pool alike: batching changes no bit."""

        def stored_q(batch):
            runner = SimulationRunner(dataset, RunnerConfig(seed=0))
            policy = build_policy("ddqn", dataset, **dict(TINY, max_tasks=40))
            assert runner.replay_decisions(policy, batch_size=batch, max_arrivals=24) == 24
            return policy

        one_at_a_time, batched = stored_q(1), stored_q(batch_size)
        assert len(one_at_a_time._pending) == 24
        assert_pending_q_equal(one_at_a_time, batched)

    def test_full_trace_without_cap(self, dataset):
        runner = SimulationRunner(dataset, RunnerConfig(seed=0))
        counts = [
            runner.replay_decisions(RandomPolicy(seed=0), batch_size=batch)
            for batch in (1, 16)
        ]
        assert counts[0] == counts[1] > 0

    def test_rejects_non_positive_batch(self, dataset):
        runner = SimulationRunner(dataset, RunnerConfig(seed=0))
        with pytest.raises(ValueError, match="batch_size"):
            runner.replay_decisions(RandomPolicy(seed=0), batch_size=0)


class TestDecideBatch:
    """One tick's fused decisions equal each tenant's serial ``rank_tasks``.

    Inline-trained frameworks score their live networks and async-trained
    ones their snapshots (``async_handoff_lag=0`` makes the snapshot
    contents deterministic); both stack into shared forwards, and baselines
    answer serially.
    """

    def tenants(self, schema):
        async_config = dict(TINY, async_training=True, async_handoff_lag=0)
        return [
            SimpleNamespace(policy=policy)
            for policy in (
                make_framework(schema),
                make_framework(schema, **dict(async_config, seed=6)),
                RandomPolicy(seed=3),
                TaskArrangementFramework.worker_only(schema, FrameworkConfig(**async_config)),
            )
        ]

    def test_mixed_tenants_match_serial_rank_tasks(self, snapshot):
        _, _, schema, _ = snapshot
        fused, serial = self.tenants(schema), self.tenants(schema)
        try:
            for round_index in range(4):
                start = MINUTES_PER_DAY + 100.0 * round_index
                # Train every framework a little so snapshots and live
                # weights move away from their initialisation.
                for group in (fused, serial):
                    for tenant in group:
                        if isinstance(tenant.policy, TaskArrangementFramework):
                            drive(tenant.policy, snapshot, start, 8)
                context = make_context(snapshot, start + 50.0)
                expected = [tenant.policy.rank_tasks(context) for tenant in serial]
                assert decide_batch([(tenant, context) for tenant in fused]) == expected
                key = (context.timestamp, context.worker.worker_id)
                for one, two in zip(fused, serial):
                    if isinstance(one.policy, TaskArrangementFramework):
                        for field in ("worker_q", "requester_q"):
                            a = getattr(one.policy._pending[key], field)
                            b = getattr(two.policy._pending[key], field)
                            assert (a is None and b is None) or np.array_equal(a, b)
        finally:
            for tenant in fused + serial:
                if isinstance(tenant.policy, TaskArrangementFramework):
                    tenant.policy.trainer.close()

    def test_empty_pools_in_a_fused_tick(self, snapshot):
        """A tenant with nothing to rank gets ``[]`` and, as in serial
        ``rank_tasks``, records no decision and draws no exploration noise."""
        _, _, schema, _ = snapshot
        fused = [SimpleNamespace(policy=make_framework(schema, seed=seed)) for seed in (5, 6)]
        serial = [SimpleNamespace(policy=make_framework(schema, seed=seed)) for seed in (5, 6)]
        empty = pool_context(snapshot, MINUTES_PER_DAY, 1)
        empty.available_tasks = []
        empty.task_features = empty.task_features[:0]
        empty.task_qualities = empty.task_qualities[:0]
        context = make_context(snapshot, MINUTES_PER_DAY + 1.0)
        assert decide_batch([]) == []
        assert decide_batch([(fused[0], empty)]) == [serial[0].policy.rank_tasks(empty)] == [[]]
        expected = [serial[0].policy.rank_tasks(empty), serial[1].policy.rank_tasks(context)]
        assert decide_batch([(fused[0], empty), (fused[1], context)]) == expected
        for one, two in zip(fused, serial):
            assert_pending_q_equal(two.policy, one.policy)
        follow_up = make_context(snapshot, MINUTES_PER_DAY + 9.0)
        assert decide_batch([(fused[0], follow_up)]) == [serial[0].policy.rank_tasks(follow_up)]
        assert_pending_q_equal(serial[0].policy, fused[0].policy)

    def test_async_tenants_score_their_snapshots_not_live_weights(self, snapshot):
        _, _, schema, _ = snapshot
        # Free-running with no feedback: the snapshot never refreshes, so
        # moving the live weights must not change any decision.
        fused, serial = (
            SimpleNamespace(policy=make_framework(schema, async_training=True)) for _ in range(2)
        )
        try:
            for tenant in (fused, serial):
                rng = np.random.default_rng(0)
                for agent in (tenant.policy.agent_w, tenant.policy.agent_r):
                    for param in agent.network.parameters():
                        param.data += rng.standard_normal(param.data.shape)
            for step in range(6):
                context = make_context(snapshot, MINUTES_PER_DAY + 7.0 * step)
                assert decide_batch([(fused, context)]) == [serial.policy.rank_tasks(context)]
        finally:
            fused.policy.trainer.close()
            serial.policy.trainer.close()
