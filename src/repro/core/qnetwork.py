"""The permutation-invariant set Q-network (Sec. IV-B, Fig. 3).

Input: the state matrix whose rows are (task feature ‖ worker feature [...]).
Architecture, following the paper:

1. two row-wise feed-forward layers lift each task-worker pair to a
   ``hidden_dim``-dimensional embedding;
2. a multi-head self-attention layer computes pairwise interactions between
   the tasks in the pool, followed by a residual row-wise layer that keeps
   the network stable;
3. a second self-attention layer captures higher-order interactions;
4. a final row-wise linear layer (no activation) reduces each row to a single
   Q value ``Q(s, t_j)``.

Because all layers are permutation-invariant over rows, reordering the
available tasks permutes the output Q values identically, and padding rows
are masked out of the attention softmax so they cannot influence real tasks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn import (
    Module,
    MultiHeadSelfAttention,
    RowwiseFeedForward,
    Tensor,
    resolve_dtype,
)
from .stacked import fused_q_values, q_values_batch
from .state import StateMatrix, pad_state_batch

__all__ = ["SetQNetwork", "pad_state_batch"]


class SetQNetwork(Module):
    """Estimates one Q value per available task from a state matrix.

    Parameters
    ----------
    input_dim:
        Row dimensionality of the state matrix (from the StateTransformer).
    hidden_dim:
        Width of the internal embeddings (128 in the paper).
    num_heads:
        Number of attention heads (the paper's Fig. 3 shows ``h = 4``).
    seed:
        Seed for parameter initialisation, making runs reproducible.
    dtype:
        Compute precision (``"float64"`` default, or ``"float32"`` which
        roughly halves GEMM time).  Parameters are initialised from the same
        RNG draws in either precision, and inputs are cast on entry.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 128,
        num_heads: int = 4,
        seed: int = 0,
        dtype=None,
    ) -> None:
        super().__init__()
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        rng = np.random.default_rng(seed)
        dtype = resolve_dtype(dtype)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.dtype = dtype

        self.embed_1 = RowwiseFeedForward(input_dim, hidden_dim, rng=rng, dtype=dtype)
        self.embed_2 = RowwiseFeedForward(hidden_dim, hidden_dim, rng=rng, dtype=dtype)
        self.attention_1 = MultiHeadSelfAttention(hidden_dim, num_heads, rng=rng, dtype=dtype)
        self.post_attention = RowwiseFeedForward(hidden_dim, hidden_dim, rng=rng, dtype=dtype)
        self.attention_2 = MultiHeadSelfAttention(hidden_dim, num_heads, rng=rng, dtype=dtype)
        self.value_head = RowwiseFeedForward(
            hidden_dim, 1, activation=False, rng=rng, dtype=dtype
        )

    # ------------------------------------------------------------------ #
    def forward(self, state: Tensor | np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Return one Q value per row.

        ``state`` is a single state matrix ``(rows, input_dim)`` (returning a
        ``(rows,)`` tensor) or a padded batch ``(batch, rows, input_dim)``
        (returning ``(batch, rows)``); ``mask`` has the matching leading
        shape and marks padding rows.
        """
        if isinstance(state, Tensor):
            # Re-wrap mismatched-precision tensors so one float64 input can
            # never silently promote a float32 network's whole forward.
            x = state if state.data.dtype == self.dtype else Tensor(state.data, dtype=self.dtype)
        else:
            x = Tensor(np.asarray(state, dtype=self.dtype))
        hidden = self.embed_1(x)
        hidden = self.embed_2(hidden)
        attended = self.attention_1(hidden, mask=mask)
        # Residual connection + row-wise layer ("helps keeping the network stable").
        hidden = self.post_attention(attended + hidden)
        hidden = self.attention_2(hidden, mask=mask) + hidden
        values = self.value_head(hidden)
        return values.reshape(values.shape[:-1])

    def forward_batch(self, states: Sequence[StateMatrix]) -> Tensor:
        """One forward pass for a whole list of states.

        States are padded to a common row count (see :func:`pad_state_batch`)
        and pushed through the network as a single ``(B, rows, input_dim)``
        batch, so the entire batch costs a handful of BLAS calls instead of
        ``B`` separate graphs.  Returns a ``(B, rows)`` tensor; only entries
        ``[i, : states[i].num_tasks]`` are meaningful.
        """
        batch, mask = pad_state_batch(states, dtype=self.dtype)
        return self.forward(Tensor(batch), mask=mask)

    # ------------------------------------------------------------------ #
    def q_values(self, state: StateMatrix) -> np.ndarray:
        """Inference helper: Q values for the *real* tasks of ``state``.

        Scored through the raw-numpy executor with one network
        (:func:`repro.core.stacked.fused_q_values`), bit-identical to
        :meth:`forward` on the state matrix.
        """
        return fused_q_values([(self, state)])[0]

    def q_values_batch(self, states: Sequence[StateMatrix]) -> list[np.ndarray]:
        """Batched inference helper: per-state Q value arrays for the real tasks.

        One padded raw-numpy forward, bit-identical to :meth:`forward_batch`.
        """
        return q_values_batch(self, states)

    def max_q(self, state: StateMatrix) -> float:
        """``max_a Q(s, a)`` over the real tasks (0 when the pool is empty)."""
        values = self.q_values(state)
        return float(values.max()) if values.size else 0.0

    def greedy_action(self, state: StateMatrix) -> int | None:
        """Index (into ``state.task_ids``) of the best task, or None if empty."""
        values = self.q_values(state)
        if values.size == 0:
            return None
        return int(np.argmax(values))

    def clone(self) -> "SetQNetwork":
        """Create a structurally identical network with copied parameters.

        Used to build the target network Q̃ of double Q-learning.
        """
        twin = SetQNetwork(
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            num_heads=self.num_heads,
            dtype=self.dtype,
        )
        twin.load_state_dict(self.state_dict())
        return twin
