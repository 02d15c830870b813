"""The Q-network executor: one forward over N ≥ 1 stacked parameter sets.

Every production forward of :class:`~repro.core.qnetwork.SetQNetwork` runs
here.  The serial paths — ``SetQNetwork.q_values``/``q_values_batch``,
``DoubleDQNLearner.train_step``/``td_targets_batch`` and
:class:`~repro.core.trainer.SnapshotNetwork` — are calls with one network,
whose parameter stack is a zero-copy ``(1, …)`` view of its arrays.
Lockstep replicas (:mod:`repro.core.vectorized`) and same-tick serve
batching (:mod:`repro.serve.batching`) are the same calls with N > 1.  The
``nn``-layer ``SetQNetwork.forward`` stays as the reference the equivalence
tests compare against.

numpy evaluates a ``(N, m, k) @ (N, k, n)`` matmul as N independent 2-D
GEMMs whose per-slice results are bit-identical to the separate 2-D matmuls
(pinned by ``tests/core/test_stacked_equivalence.py``).  The forward below is
*slice-isomorphic* to the reference: per replica it has the same operand
shapes, reduction lengths and op order.  So each slice equals the reference
bit for bit, and a replica's numbers never depend on which other replicas
shared its call.

Inputs carry the replica axis first: ``(N, rows, dim)`` holds one state per
network (decisions), ``(N, B, rows, dim)`` one padded batch per network
(Bellman targets and the train step).  The same layer code runs on two
operand kinds, with the same numpy calls in the same order:

* raw ndarrays for inference, which allocate no graph nodes;
* :class:`repro.nn.Tensor`\\ s for the train step (``requires_grad=True``),
  after which :meth:`StackedForward.scatter_gradients` deposits each
  replica's gradient slice into its own network's parameters.

Attention is the one place the two kinds take different entry points:
Tensors go through the graph node of
:func:`~repro.nn.functional.scaled_dot_product_attention` and ndarrays
through :func:`_attend`.  Both scale the scores the same way and normalise
them with the same in-place kernel,
:func:`~repro.nn.functional.masked_softmax`.

All networks of one call share an architecture (:func:`stack_signature`) and
a per-replica operand shape.  :func:`fused_q_values` groups decision jobs by
both; a group of one is the serial call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..nn import Tensor
from ..nn.functional import masked_softmax, scaled_dot_product_attention
from .state import StateMatrix, pad_state_batch

if TYPE_CHECKING:  # pragma: no cover - qnetwork imports this module
    from .qnetwork import SetQNetwork

__all__ = [
    "StackedForward",
    "fused_q_values",
    "q_values_batch",
    "stack_parameters",
    "stack_signature",
    "stackable",
]


def _parameter_map(network: SetQNetwork) -> dict:
    """``dict(network.named_parameters())``, cached on the network.

    Parameters are registered once at construction and their *objects* never
    change afterwards (optimisers re-point ``param.data``, not the
    parameters themselves), so the name→Parameter map can be built once —
    stacked forwards rebuild their weight stacks every call and would
    otherwise re-walk the module tree thousands of times per run.
    """
    cached = getattr(network, "_stacked_parameter_map", None)
    if cached is None:
        cached = dict(network.named_parameters())
        network._stacked_parameter_map = cached
    return cached


def stack_signature(network: SetQNetwork) -> tuple:
    """Architecture key: networks stack only when these all agree."""
    cached = getattr(network, "_stack_signature", None)
    if cached is None:
        cached = (
            network.input_dim,
            network.hidden_dim,
            network.num_heads,
            np.dtype(network.dtype).name,
        )
        network._stack_signature = cached
    return cached


def stackable(networks: Sequence[SetQNetwork]) -> bool:
    """Whether the networks share one architecture (stackable into one call)."""
    if not networks:
        return False
    first = stack_signature(networks[0])
    return all(stack_signature(network) == first for network in networks[1:])


def stack_parameters(
    parameter_sets: Sequence[Mapping[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """Stack per-network ``name → array`` maps along a new leading replica axis.

    One set stacks as zero-copy ``(1, …)`` views, so a serial forward reads
    the live (or snapshot) buffers without copying them.  Stack per call:
    a view taken before a buffer is replaced keeps reading the old one.
    """
    if len(parameter_sets) == 1:
        return {name: array[np.newaxis] for name, array in parameter_sets[0].items()}
    return {
        name: np.array([parameters[name] for parameters in parameter_sets])
        for name in parameter_sets[0]
    }


def _attend(
    queries: np.ndarray, keys: np.ndarray, values: np.ndarray, key_mask: np.ndarray | None
) -> np.ndarray:
    """Inference attention: the forward of ``scaled_dot_product_attention``.

    The same scaled scores (the scalar scale joins in the operands' dtype)
    go through the same :func:`~repro.nn.functional.masked_softmax` kernel
    the graph node runs, so the weights — and the result — match it bitwise.
    """
    scores = queries @ np.swapaxes(keys, -1, -2)
    scores *= np.asarray(1.0 / float(np.sqrt(queries.shape[-1])), dtype=queries.dtype)
    return masked_softmax(scores, key_mask) @ values


class StackedForward:
    """One fused forward over N same-architecture networks.

    Parameters are stacked at construction, from the networks' live arrays
    or from ``parameters`` (one ``name → array`` map per network, e.g. a
    snapshot's frozen buffers, or ``None`` for that network's live arrays).
    Build a fresh instance per call whenever the parameters may have
    changed.  With ``requires_grad=True`` the stacked parameters join the
    autograd graph and :meth:`scatter_gradients` deposits each replica's
    slice into its own network's parameters afterwards — exactly the values
    a serial backward would have produced.
    """

    def __init__(
        self,
        networks: Sequence[SetQNetwork],
        requires_grad: bool = False,
        parameters: Sequence[Mapping[str, np.ndarray] | None] | None = None,
    ) -> None:
        if not networks:
            raise ValueError("StackedForward requires at least one network")
        if not stackable(networks):
            raise ValueError("networks differ in architecture and cannot be stacked")
        self.count = len(networks)
        self.num_heads = networks[0].num_heads
        self.head_dim = networks[0].hidden_dim // networks[0].num_heads
        self.dtype = networks[0].dtype
        self._per_network = [_parameter_map(network) for network in networks]
        if parameters is None:
            parameters = [None] * self.count
        self._arrays = stack_parameters(
            [
                {name: param.data for name, param in live.items()} if given is None else given
                for live, given in zip(self._per_network, parameters)
            ]
        )
        # Graph leaves are only needed when gradients flow; inference calls
        # run on the bare arrays.
        self._params: dict[str, Tensor] | None = (
            {name: Tensor(array, requires_grad=True) for name, array in self._arrays.items()}
            if requires_grad
            else None
        )

    # ------------------------------------------------------------------ #
    # Slice-isomorphic layer mirrors (ndarray or Tensor operands)
    # ------------------------------------------------------------------ #
    def _linear(self, x, params: dict, prefix: str):
        """Mirror of ``Linear.forward`` with an extra leading replica axis.

        The serial layer flattens all leading dims into one GEMM when the
        input has more than 2 dims; here everything *except* the replica axis
        is flattened, so each gufunc slice launches the identical GEMM.
        """
        weight = params[f"{prefix}.weight"]
        bias = params[f"{prefix}.bias"]
        lead = x.shape[1:-1]
        out_features = weight.shape[-1]
        if x.ndim > 3 and out_features == 1:
            # Serial ``Linear`` keeps the single-column value head per batch
            # item (batch-slice-stable bits; see ``Linear.forward``), so the
            # mirror must too: broadcast the weight/bias over the batch axis
            # instead of flattening it into the row axis.
            out = x @ weight.reshape((self.count, 1) + weight.shape[1:])
            return out + bias.reshape((self.count,) + (1,) * (x.ndim - 2) + (1,))
        if x.ndim > 3:
            x = x.reshape((self.count, -1, weight.shape[-2]))
        # Serial adds a (h,) bias broadcast over rows; the (N, 1, h) reshape
        # broadcasts the same way per slice (and its gradient reduction over
        # the row axis is bitwise equal to the serial axis-0 sum).
        out = x @ weight + bias.reshape((self.count, 1, out_features))
        if len(lead) > 1:
            out = out.reshape((self.count,) + lead + (out_features,))
        return out

    def _rff(self, x, params: dict, prefix: str, activation: bool = True):
        out = self._linear(x, params, f"{prefix}.linear")
        if not activation:
            return out
        return out.relu() if isinstance(out, Tensor) else np.maximum(out, 0.0)

    def _attention(self, x, params: dict, prefix: str, mask: np.ndarray | None):
        """Mirror of ``MultiHeadSelfAttention.forward`` over stacked sets."""
        n = self.count
        heads = self.num_heads
        head_dim = self.head_dim
        embed_dim = heads * head_dim
        lead = x.shape[1:-2]  # per-replica lead dims: () single, (B,) batch
        n_lead = len(lead)
        rows = x.shape[-2]

        flat = x.reshape((n, -1, embed_dim)) if x.ndim > 3 else x
        qkv = flat @ params[f"{prefix}.in_proj_weight"] + params[
            f"{prefix}.in_proj_bias"
        ].reshape((n, 1, 3 * embed_dim))
        # (N, *lead, rows, 3, heads, head_dim) -> (3, N, *lead, heads, rows, head_dim)
        packed = qkv.reshape((n,) + lead + (rows, 3, heads, head_dim)).transpose(
            (n_lead + 2, 0)
            + tuple(range(1, n_lead + 1))
            + (n_lead + 3, n_lead + 1, n_lead + 4)
        )
        key_mask = None
        if mask is not None:
            key_mask = np.asarray(mask, dtype=bool)[..., np.newaxis, np.newaxis, :]
        if isinstance(packed, Tensor):
            attended = scaled_dot_product_attention(*packed.unbind(0), mask=key_mask)
        else:
            attended = _attend(packed[0], packed[1], packed[2], key_mask)
        # (N, *lead, heads, rows, hd) -> (N, *lead, rows, heads, hd) -> (N, *lead, rows, E)
        swap = (
            (0,)
            + tuple(range(1, n_lead + 1))
            + (n_lead + 2, n_lead + 1, n_lead + 3)
        )
        merged = attended.transpose(swap).reshape((n,) + lead + (rows, embed_dim))
        return self._linear(merged, params, f"{prefix}.output_proj")

    def _run(self, batch: np.ndarray, mask: np.ndarray | None, params: dict):
        x = np.ascontiguousarray(batch, dtype=self.dtype)
        if params is self._params:
            x = Tensor(x)
        hidden = self._rff(x, params, "embed_1")
        hidden = self._rff(hidden, params, "embed_2")
        attended = self._attention(hidden, params, "attention_1", mask)
        hidden = self._rff(attended + hidden, params, "post_attention")
        hidden = self._attention(hidden, params, "attention_2", mask) + hidden
        values = self._rff(hidden, params, "value_head", activation=False)
        return values.reshape(values.shape[:-1])

    # ------------------------------------------------------------------ #
    # Public entry points
    # ------------------------------------------------------------------ #
    def _stack_batches(
        self, batches: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        if len(batches) != self.count:
            raise ValueError(f"expected {self.count} batches, got {len(batches)}")
        shape = batches[0][0].shape
        if any(batch.shape != shape for batch, _ in batches):
            raise ValueError("stacked forward requires a common per-replica shape")
        stacked = np.array([batch for batch, _ in batches], dtype=self.dtype)
        mask = np.array([mask for _, mask in batches])
        return stacked, mask

    def forward_batch(self, batches: Sequence[tuple[np.ndarray, np.ndarray]]) -> Tensor:
        """Graph forward of one padded ``(B, rows, dim)`` batch per replica.

        ``batches`` holds per-replica ``(batch, mask)`` pairs of a common
        shape — what :func:`repro.core.state.pad_state_batch` produced for
        each replica.  Returns an ``(N, B, rows)`` tensor (requires
        construction with ``requires_grad=True``).
        """
        if self._params is None:
            raise ValueError("gradient forward requires requires_grad=True")
        stacked, mask = self._stack_batches(batches)
        return self._run(stacked, mask, self._params)

    def infer_batch(self, batches: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Inference-only :meth:`forward_batch`: raw ``(N, B, rows)`` values."""
        stacked, mask = self._stack_batches(batches)
        return self._run(stacked, mask, self._arrays)

    def q_values_single(self, states: Sequence[StateMatrix]) -> list[np.ndarray]:
        """One state per replica: each replica's Q values of its real tasks.

        All states must share one ``(rows, dim)`` shape; result ``i`` is
        bit-identical to ``networks[i].forward(states[i].matrix,
        mask=states[i].mask)`` cut to the real tasks.
        """
        values = self.infer_batch([(state.matrix, state.mask) for state in states])
        return [values[i, : state.num_tasks].copy() for i, state in enumerate(states)]

    # ------------------------------------------------------------------ #
    def scatter_gradients(self) -> None:
        """Deposit each replica's gradient slice into its own parameters.

        Call after ``backward()`` on a loss built from tensors this instance
        produced (requires construction with ``requires_grad=True``).  Uses
        ``Parameter._accumulate`` so flat-optimiser gradient views receive
        the values exactly as a serial backward would have written them.
        """
        for name, stacked in self._params.items():
            if stacked.grad is None:
                continue
            for i, params in enumerate(self._per_network):
                params[name]._accumulate(stacked.grad[i])


def fused_q_values(
    jobs: Sequence[tuple[SetQNetwork, StateMatrix]],
    parameters: Sequence[Mapping[str, np.ndarray] | None] | None = None,
) -> list[np.ndarray]:
    """``network.q_values(state)`` for many pairs, one forward per group.

    Pairs whose architecture and state shape agree share one stacked
    inference forward; a lone pair is a forward with N = 1.  ``parameters``
    optionally gives, per pair, the ``name → array`` map to score with in
    place of the network's live parameters (snapshot buffers; ``None`` keeps
    that pair's live parameters).  Each result is bit-identical to the
    reference forward on that pair alone.
    """
    results: list[np.ndarray | None] = [None] * len(jobs)
    groups: dict[tuple, list[int]] = {}
    for slot, (network, state) in enumerate(jobs):
        if state.num_tasks == 0:
            results[slot] = np.zeros(0, dtype=network.dtype)
            continue
        groups.setdefault((stack_signature(network), state.matrix.shape), []).append(slot)
    for slots in groups.values():
        stacked = StackedForward(
            [jobs[slot][0] for slot in slots],
            parameters=None if parameters is None else [parameters[slot] for slot in slots],
        )
        for slot, values in zip(
            slots, stacked.q_values_single([jobs[slot][1] for slot in slots])
        ):
            results[slot] = values
    return results  # type: ignore[return-value]


def q_values_batch(
    network: SetQNetwork,
    states: Sequence[StateMatrix],
    parameters: Mapping[str, np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Per-state Q values of the real tasks, in one padded forward (N = 1).

    Bit-identical to the reference ``network.forward_batch(states)``;
    ``parameters`` scores with a snapshot's buffers instead of the live ones.
    """
    if not states:
        return []
    stacked = StackedForward([network], parameters=None if parameters is None else [parameters])
    values = stacked.infer_batch([pad_state_batch(states, dtype=network.dtype)])[0]
    return [values[i, : state.num_tasks].copy() for i, state in enumerate(states)]
