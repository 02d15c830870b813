"""The agent's loss history is bounded: memory and checkpoints stop growing.

``AgentDiagnostics.losses`` keeps only the newest
:data:`repro.core.agent.LOSS_HISTORY` train-step losses, and every checkpoint
carries that bounded history.  Checkpoints written while the history was
unbounded still load; they keep their newest entries.
"""

import numpy as np

from repro.core.agent import LOSS_HISTORY, AgentConfig, DQNAgent
from tests.core.test_stacked_equivalence import make_transition

DIM = 5


def trained_agent(steps: int) -> DQNAgent:
    agent = DQNAgent(DIM, AgentConfig(hidden_dim=4, num_heads=1, batch_size=2, seed=0))
    rng = np.random.default_rng(0)
    for _ in range(8):
        agent.store(make_transition(rng, rows=3, dim=DIM, branches=1))
    for _ in range(steps):
        agent.train_once()
    return agent


def test_checkpointed_history_stops_growing_past_the_bound():
    agent = trained_agent(LOSS_HISTORY + 25)
    assert agent.diagnostics.train_steps == LOSS_HISTORY + 25
    sizes = []
    for _ in range(3):
        sizes.append(agent.state_dict()["diagnostics"]["losses"].size)
        agent.train_once()
    assert sizes == [LOSS_HISTORY] * 3
    assert agent.diagnostics.last_loss == agent.diagnostics.losses[-1]


def test_checkpoint_with_a_longer_history_loads_its_newest_entries():
    agent = trained_agent(3)
    state = agent.state_dict()
    older = np.arange(LOSS_HISTORY + 40, dtype=np.float64)
    state["diagnostics"]["losses"] = older

    restored = trained_agent(0)
    restored.load_state_dict(state)
    assert list(restored.diagnostics.losses) == older[-LOSS_HISTORY:].tolist()
    restored.train_once()
    assert len(restored.diagnostics.losses) == LOSS_HISTORY
    assert restored.diagnostics.losses[0] == older[-LOSS_HISTORY + 1]


def test_short_history_round_trips_unchanged():
    agent = trained_agent(5)
    restored = trained_agent(0)
    restored.load_state_dict(agent.state_dict())
    assert restored.diagnostics.losses == agent.diagnostics.losses
    assert len(restored.diagnostics.losses) == 5
