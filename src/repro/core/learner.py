"""Double-DQN learner with the paper's revised Bellman targets (Eq. 3 / Eq. 6).

The learner maintains an online network ``Q`` and a target network ``Q̃``
(double Q-learning [27]): the online network selects the best future action
and the target network evaluates it, which counteracts over-estimation of Q
values.  Targets integrate over the explicitly predicted future-state
distribution::

    y_i = r_i + γ * Σ_b  Pr(s_b) * Q̃(s_b, argmax_a Q(s_b, a))

where the branches ``s_b`` come from the future-state predictors.  Training
minimises the (importance-weighted) mean-squared TD error over a replay
batch, with gradient clipping, and the target network is refreshed by a hard
parameter copy every ``target_sync_interval`` updates (the paper copies
``θ̃ ← θ`` every 100 iterations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..nn import Adam, Tensor, no_grad
from .qnetwork import SetQNetwork
from .replay import PrioritizedReplayMemory, ReplayMemory, Transition
from .vectorized import TrainJob, bellman_targets, gradient_steps

__all__ = ["DoubleDQNLearner", "TrainStepReport"]


@dataclass
class TrainStepReport:
    """Diagnostics from one optimisation step."""

    loss: float
    mean_abs_td_error: float
    batch_size: int
    gradient_norm: float


class DoubleDQNLearner:
    """Optimises a :class:`SetQNetwork` from a replay memory."""

    # Source of globally unique target-cache tokens: transitions may be
    # shared between learner instances (or a learner may be rebuilt over a
    # persisted memory), so a plain per-learner counter could collide and
    # serve another learner's cached target values.
    _cache_tokens = itertools.count(1)

    def __init__(
        self,
        network: SetQNetwork,
        gamma: float = 0.5,
        learning_rate: float = 1e-3,
        batch_size: int = 64,
        target_sync_interval: int = 100,
        grad_clip: float = 10.0,
    ) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"discount factor must be in [0, 1], got {gamma}")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if target_sync_interval <= 0:
            raise ValueError("target_sync_interval must be positive")
        self.online = network
        self.target = network.clone()
        self.gamma = gamma
        self.batch_size = batch_size
        self.target_sync_interval = target_sync_interval
        self.grad_clip = grad_clip
        self.optimizer = Adam(list(network.parameters()), lr=learning_rate)
        self.updates = 0
        # Refreshed on every hard target sync; invalidates the per-transition
        # target-network caches (see Transition.target_cache).
        self._target_version = next(DoubleDQNLearner._cache_tokens)

    # ------------------------------------------------------------------ #
    @no_grad()
    def td_target(self, transition: Transition) -> float:
        """Compute the revised Bellman target for one transition (no grad)."""
        if not transition.future_states:
            return float(transition.reward)
        expected_future = 0.0
        for probability, future_state in transition.future_states:
            if future_state.num_tasks == 0:
                continue
            online_values = self.online.q_values(future_state)
            best_action = int(np.argmax(online_values))
            target_values = self.target.q_values(future_state)
            expected_future += probability * float(target_values[best_action])
        return float(transition.reward) + self.gamma * expected_future

    def td_targets_batch(self, transitions: list[Transition]) -> np.ndarray:
        """Revised Bellman targets for a whole batch in batched forwards.

        The one-learner call of :func:`repro.core.vectorized.bellman_targets`:
        all non-empty future-state branches go through one padded *online*
        forward and the not-yet-memoised ones through one padded *target*
        forward.  Matches :meth:`td_target` to float tolerance.
        """
        return bellman_targets([(self, transitions)])[0]

    def td_error(self, transition: Transition) -> float:
        """Signed TD error of ``transition`` under the current networks."""
        target = self.td_target(transition)
        prediction = float(self.online.q_values(transition.state)[transition.action_index])
        return target - prediction

    # ------------------------------------------------------------------ #
    def train_step(
        self, memory: ReplayMemory | PrioritizedReplayMemory
    ) -> TrainStepReport | None:
        """Sample a batch, perform one gradient step, refresh priorities.

        This is the batched engine: all TD targets come from batched
        forwards (:meth:`td_targets_batch`) and all predictions plus the
        weighted loss form **one** autograd graph over a padded
        ``(B, rows, dim)`` mega-batch — the one-job call of
        :func:`repro.core.vectorized.gradient_steps`.  Numerically it
        matches :meth:`train_step_unbatched` (same RNG draws, same targets
        to float tolerance).

        Returns ``None`` when the memory is still empty.
        """
        if len(memory) == 0:
            return None
        transitions, indices, weights = memory.sample(self.batch_size)
        targets = self.td_targets_batch(transitions)
        job = TrainJob(self, memory, transitions, indices, weights, targets)
        return gradient_steps([job])[0]

    def train_step_unbatched(
        self, memory: ReplayMemory | PrioritizedReplayMemory
    ) -> TrainStepReport | None:
        """Reference per-sample implementation of :meth:`train_step`.

        Kept for the equivalence tests and the perf benchmark: it builds one
        autograd graph per sampled transition and two forwards per future
        branch, exactly like the original learner.
        """
        if len(memory) == 0:
            return None
        transitions, indices, weights = memory.sample(self.batch_size)

        targets = np.array([self.td_target(t) for t in transitions], dtype=np.float64)

        predictions = []
        for transition in transitions:
            values = self.online.forward(transition.state.matrix, mask=transition.state.mask)
            predictions.append(values[transition.action_index])
        stacked = Tensor.stack(predictions, axis=0)

        dtype = self.online.dtype
        weight_tensor = Tensor(np.asarray(weights, dtype=dtype))
        diff = stacked - Tensor(np.asarray(targets, dtype=dtype))
        loss = (weight_tensor * diff * diff).mean()

        self.optimizer.zero_grad()
        loss.backward()
        return self._finish_update(
            memory, float(loss.item()), targets, stacked.numpy(), indices, len(transitions)
        )

    def _finish_update(
        self,
        memory: ReplayMemory | PrioritizedReplayMemory,
        loss_value: float,
        targets: np.ndarray,
        predictions: np.ndarray,
        indices: np.ndarray,
        batch_size: int,
    ) -> TrainStepReport:
        """Clip, step, refresh priorities and sync targets — gradients already set.

        Called by :func:`repro.core.vectorized.gradient_steps`, whose
        backward over the stacked graph has already deposited this learner's
        gradients into the optimiser's flat buffer, and by the
        :meth:`train_step_unbatched` reference after its own ``backward``.
        """
        # Single reduction over the optimizer's flat gradient buffer; the
        # scaled flat gradient is exactly what the fused step consumes.
        gradient_norm = self.optimizer.clip_grad_norm_(self.grad_clip)
        self.optimizer.step()

        td_errors = targets - predictions
        memory.update_priorities(indices, np.abs(td_errors))

        self.updates += 1
        if self.updates % self.target_sync_interval == 0:
            self.sync_target()

        return TrainStepReport(
            loss=loss_value,
            mean_abs_td_error=float(np.mean(np.abs(td_errors))),
            batch_size=batch_size,
            gradient_norm=gradient_norm,
        )

    def sync_target(self) -> None:
        """Hard-copy online parameters into the target network (θ̃ ← θ)."""
        self.target.load_state_dict(self.online.state_dict())
        # Invalidate every per-transition target cache (lazily, by token).
        self._target_version = next(DoubleDQNLearner._cache_tokens)

    def invalidate_target_cache(self) -> None:
        """Drop all memoised target Q-vectors without touching the networks.

        Called at checkpoint boundaries: the caches are not persisted, so
        invalidating them on the live learner too guarantees that a restored
        learner and the one that kept running recompute identical values in
        identical batch shapes — bit-for-bit deterministic resume.
        """
        self._target_version = next(DoubleDQNLearner._cache_tokens)

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Online + target parameters, optimiser moments and the update counter."""
        return {
            "online": self.online.state_dict(),
            "target": self.target.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "updates": self.updates,
        }

    def load_state_dict(self, state: dict) -> None:
        self.online.load_state_dict(state["online"])
        self.target.load_state_dict(state["target"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.updates = int(state["updates"])
        self.invalidate_target_cache()
