"""Bitwise guarantees of the replica-stacked execution engine.

The episode-vectorized platform's determinism contract (a vectorized replica
is float-for-float equal to its serial run) rests on properties of this
machine's BLAS/numpy that these tests pin explicitly:

* a stacked ``(N, m, k) @ (N, k, n)`` matmul equals the N separate 2-D
  matmuls bitwise;
* GEMM results are row-stable when the left operand gains extra rows
  (M-invariance, for M >= 2) — what lets the no-grad target forwards pad the
  *batch* axis across replicas;
* the stacked forward/backward mirrors (`repro.core.stacked.StackedForward`)
  reproduce the serial network's values and gradients exactly, and
* the fused group train step (`repro.core.vectorized.fused_train_steps`)
  leaves every agent in the exact state of its serial ``train_step``.

If any of these fail on a new platform, the vectorized runner's equality
tests would fail with it — these isolate the root cause.
"""

import numpy as np
import pytest

from repro.core.agent import AgentConfig, DQNAgent
from repro.core.qnetwork import SetQNetwork, pad_state_batch
from repro.core.replay import Transition
from repro.core.stacked import StackedForward, fused_q_values, stack_signature, stackable
from repro.core.state import StateMatrix
from repro.core.trainer import SnapshotNetwork
from repro.core.vectorized import fused_train_steps
from repro.nn import Tensor, load_checkpoint, no_grad, save_checkpoint


def make_state(rng, rows, dim, min_tasks=1):
    real = int(rng.integers(min_tasks, rows + 1))
    matrix = np.zeros((rows, dim))
    matrix[:real] = rng.standard_normal((real, dim))
    mask = np.ones(rows, dtype=bool)
    mask[:real] = False
    return StateMatrix(matrix=matrix, mask=mask, task_ids=list(range(real)))


def make_transition(rng, rows, dim, branches=3):
    future = [
        (float(p), make_state(rng, rows, dim))
        for p in np.full(branches, 1.0 / branches)
    ]
    state = make_state(rng, rows, dim, min_tasks=2)
    return Transition(
        state=state,
        action_index=int(rng.integers(0, state.num_tasks)),
        reward=float(rng.random()),
        future_states=future,
    )


class TestEnvironmentAssumptions:
    """Numerical platform properties the stacked engine relies on."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stacked_matmul_equals_per_slice_matmul(self, dtype):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 40, 17)).astype(dtype)
        b = rng.standard_normal((6, 17, 24)).astype(dtype)
        stacked = a @ b
        for i in range(a.shape[0]):
            assert np.array_equal(stacked[i], a[i] @ b[i])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gemm_rows_are_m_invariant(self, dtype):
        """Row i of (A @ W) must not change when A gains rows (M >= 2)."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal((90, 64)).astype(dtype)
        a = rng.standard_normal((200, 90)).astype(dtype)
        full = a @ w
        for m in (2, 3, 7, 32, 100):
            assert np.array_equal(np.ascontiguousarray(a[:m]) @ w, full[:m]), m

    def test_axis_reductions_are_slice_isomorphic(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((5, 37, 12))
        assert np.array_equal(
            np.sum(g, axis=1), np.stack([g[i].sum(axis=0) for i in range(5)])
        )
        assert np.array_equal(
            g.sum(axis=-1), np.stack([g[i].sum(axis=-1) for i in range(5)])
        )


@pytest.fixture(params=["float64", "float32"])
def networks(request):
    return [
        SetQNetwork(input_dim=13, hidden_dim=16, num_heads=2, seed=seed, dtype=request.param)
        for seed in range(4)
    ]


class TestStackedForward:
    def test_stackable_requires_matching_architecture(self, networks):
        assert stackable(networks)
        other = SetQNetwork(input_dim=13, hidden_dim=32, num_heads=2)
        assert not stackable([networks[0], other])
        assert stack_signature(networks[0]) != stack_signature(other)
        with pytest.raises(ValueError, match="architecture"):
            StackedForward([networks[0], other])

    def test_single_mode_matches_serial_q_values_bitwise(self, networks):
        rng = np.random.default_rng(3)
        states = [make_state(rng, rows=9, dim=13) for _ in networks]
        stacked = StackedForward(networks)
        fused = stacked.q_values_single(states)
        for network, state, values in zip(networks, states, fused):
            assert np.array_equal(values, network.q_values(state))

    def test_infer_batch_matches_tensor_forward_bitwise(self, networks):
        """The raw-numpy inference mirror equals the autograd-graph mirror."""
        rng = np.random.default_rng(4)
        batches = [
            pad_state_batch([make_state(rng, 7, 13) for _ in range(5)], dtype=networks[0].dtype)
            for _ in networks
        ]
        with_graph = StackedForward(networks, requires_grad=True)
        inference = StackedForward(networks)
        assert np.array_equal(
            inference.infer_batch(batches), with_graph.forward_batch(batches).numpy()
        )

    def test_batch_mode_matches_serial_forward_batch_bitwise(self, networks):
        rng = np.random.default_rng(5)
        state_lists = [[make_state(rng, 8, 13) for _ in range(6)] for _ in networks]
        batches = [
            pad_state_batch(states, dtype=networks[0].dtype) for states in state_lists
        ]
        fused = StackedForward(networks).infer_batch(batches)
        for i, (network, states) in enumerate(zip(networks, state_lists)):
            assert np.array_equal(fused[i], network.forward_batch(states).numpy())

    def test_gradients_match_serial_backward_bitwise(self, networks):
        rng = np.random.default_rng(6)
        state_lists = [[make_state(rng, 8, 13) for _ in range(5)] for _ in networks]
        serial_grads = []
        for network, states in zip(networks, state_lists):
            for param in network.parameters():
                param.zero_grad()
            values = network.forward_batch(states)
            (values * values).mean().backward()
            serial_grads.append(
                {name: param.grad.copy() for name, param in network.named_parameters()}
            )
            for param in network.parameters():
                param.zero_grad()

        stacked = StackedForward(networks, requires_grad=True)
        out = stacked.forward_batch(
            [pad_state_batch(states, dtype=networks[0].dtype) for states in state_lists]
        )
        losses = [(row * row).mean() for row in out.unbind(0)]
        Tensor.stack(losses, axis=0).sum().backward()
        stacked.scatter_gradients()
        for network, expected in zip(networks, serial_grads):
            for name, param in network.named_parameters():
                assert np.array_equal(param.grad, expected[name]), name
            for param in network.parameters():
                param.zero_grad()


class TestFusedQValues:
    def test_mixed_shapes_fall_back_per_pair(self):
        rng = np.random.default_rng(7)
        nets = [SetQNetwork(13, hidden_dim=16, num_heads=2, seed=s) for s in range(3)]
        jobs = [
            (nets[0], make_state(rng, 9, 13)),
            (nets[1], make_state(rng, 9, 13)),
            (nets[2], make_state(rng, 5, 13)),  # different shape: a group of one
        ]
        fused = fused_q_values(jobs)
        for (network, state), values in zip(jobs, fused):
            assert np.array_equal(values, network.q_values(state))


class TestFusedTrainSteps:
    def build_agents(self, count, rng, rows=8, dim=13, batch_size=4, dtype="float64"):
        agents = [
            DQNAgent(
                dim,
                AgentConfig(
                    hidden_dim=16, num_heads=2, batch_size=batch_size, seed=seed, dtype=dtype
                ),
            )
            for seed in range(count)
        ]
        for agent in agents:
            for _ in range(batch_size + 12):
                agent.store(make_transition(rng, rows, dim))
        return agents

    def clone_states(self, agents):
        return [
            {
                "learner": {
                    name: value.copy()
                    for name, value in agent.learner.online.state_dict().items()
                },
                "rng": agent.memory.rng.bit_generator.state,
            }
            for agent in agents
        ]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_group_step_is_bitwise_equal_to_serial_steps(self, dtype):
        rng = np.random.default_rng(8)
        fused_agents = self.build_agents(4, rng, dtype=dtype)
        rng = np.random.default_rng(8)
        serial_agents = self.build_agents(4, rng, dtype=dtype)

        for _ in range(3):
            fused_train_steps(fused_agents)
            for agent in serial_agents:
                agent.record_report(agent.learner.train_step(agent.memory))

        for fused_agent, serial_agent in zip(fused_agents, serial_agents):
            fused_state = fused_agent.learner.state_dict()
            serial_state = serial_agent.learner.state_dict()
            for key in ("online", "target"):
                for name in fused_state[key]:
                    assert np.array_equal(fused_state[key][name], serial_state[key][name]), (
                        key,
                        name,
                    )
            assert fused_agent.memory.rng.bit_generator.state == (
                serial_agent.memory.rng.bit_generator.state
            )
            assert fused_agent.diagnostics.train_steps == serial_agent.diagnostics.train_steps
            assert fused_agent.diagnostics.losses == serial_agent.diagnostics.losses

    def test_mixed_architectures_split_into_groups(self):
        rng = np.random.default_rng(9)
        small = self.build_agents(2, rng)
        rng2 = np.random.default_rng(10)
        wide = [
            DQNAgent(13, AgentConfig(hidden_dim=32, num_heads=2, batch_size=4, seed=7))
        ]
        for _ in range(16):
            wide[0].store(make_transition(rng2, 8, 13))
        rng = np.random.default_rng(9)
        small_reference = self.build_agents(2, rng)
        rng2 = np.random.default_rng(10)
        wide_reference = [
            DQNAgent(13, AgentConfig(hidden_dim=32, num_heads=2, batch_size=4, seed=7))
        ]
        for _ in range(16):
            wide_reference[0].store(make_transition(rng2, 8, 13))

        fused_train_steps(small + wide)
        for agent in small_reference + wide_reference:
            agent.learner.train_step(agent.memory)
        for fused_agent, serial_agent in zip(small + wide, small_reference + wide_reference):
            fused_params = fused_agent.learner.online.state_dict()
            serial_params = serial_agent.learner.online.state_dict()
            for name in fused_params:
                assert np.array_equal(fused_params[name], serial_params[name]), name


class TestOneReplicaViewsStayCurrent:
    """Serial scoring stacks N = 1 parameter sets as zero-copy views.

    Every way the weights change — an optimiser step, ``load_state_dict``, a
    hard target sync and a checkpoint restore — must show in the next
    ``q_values`` call of the live network and of a refreshed snapshot,
    bitwise equal to the ``nn``-layer ``forward`` reference.
    """

    @staticmethod
    def reference(network, state):
        with no_grad():
            values = network.forward(state.matrix, mask=state.mask).numpy()
        return values[: state.num_tasks]

    def assert_current(self, agent, snapshot, state):
        expected = self.reference(agent.network, state)
        assert np.array_equal(agent.network.q_values(state), expected)
        assert np.array_equal(agent.network.q_values_batch([state])[0], expected)
        snapshot.refresh()
        assert np.array_equal(snapshot.q_values(state), expected)
        assert np.array_equal(snapshot.q_values_batch([state])[0], expected)
        target = agent.learner.target
        assert np.array_equal(target.q_values(state), self.reference(target, state))
        return expected

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_every_weight_change_shows(self, dtype, tmp_path):
        rng = np.random.default_rng(11)
        config = AgentConfig(hidden_dim=16, num_heads=2, batch_size=4, seed=0, dtype=dtype)
        agent = DQNAgent(13, config)
        donor = DQNAgent(13, AgentConfig(**{**config.__dict__, "seed": 5}))
        for _ in range(12):
            transition = make_transition(rng, 8, 13)
            agent.store(transition)
            donor.store(transition)
        state = make_state(rng, 8, 13, min_tasks=3)
        snapshot = SnapshotNetwork(agent)
        seen = [self.assert_current(agent, snapshot, state)]

        agent.record_report(agent.learner.train_step(agent.memory))
        seen.append(self.assert_current(agent, snapshot, state))

        agent.network.load_state_dict(donor.network.state_dict())
        seen.append(self.assert_current(agent, snapshot, state))

        agent.learner.sync_target()
        assert np.array_equal(agent.learner.target.q_values(state), seen[-1])

        donor.record_report(donor.learner.train_step(donor.memory))
        path = save_checkpoint(donor.state_dict(), tmp_path / "donor.npz")
        agent.load_state_dict(load_checkpoint(path))
        seen.append(self.assert_current(agent, snapshot, state))
        assert np.array_equal(seen[-1], donor.network.q_values(state))

        for before, after in zip(seen, seen[1:]):
            assert not np.array_equal(before, after)
