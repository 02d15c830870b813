"""Functional building blocks for :mod:`repro.nn`.

These helpers operate on :class:`repro.nn.tensor.Tensor` objects and return
tensors wired into the autograd graph.  Losses and attention primitives used
by the Q-network live here.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor, row_max

__all__ = [
    "relu",
    "softmax",
    "sigmoid",
    "tanh",
    "linear",
    "mse_loss",
    "huber_loss",
    "weighted_mse_loss",
    "masked_softmax",
    "scaled_dot_product_attention",
]


def relu(x: Tensor) -> Tensor:
    """Element-wise rectified linear unit."""
    return as_tensor(x).relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return as_tensor(x).softmax(axis=axis)


def sigmoid(x: Tensor) -> Tensor:
    """Element-wise logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Element-wise hyperbolic tangent."""
    return as_tensor(x).tanh()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias``."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out


def _detached_target(target, dtype: np.dtype) -> Tensor:
    """Coerce ``target`` to a detached tensor in the prediction's dtype.

    Keeps a float32 loss graph in float32 even when targets arrive as the
    float64 arrays the (dtype-agnostic) TD machinery produces.
    """
    target = as_tensor(target, dtype=dtype).detach()
    if target.data.dtype != dtype:
        target = Tensor(target.data, dtype=dtype)
    return target


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between ``prediction`` and ``target``."""
    prediction = as_tensor(prediction)
    target = _detached_target(target, prediction.data.dtype)
    diff = prediction - target
    return (diff * diff).mean()


def weighted_mse_loss(prediction: Tensor, target: Tensor, weights: np.ndarray) -> Tensor:
    """Importance-weighted mean squared error.

    Used with prioritized experience replay, where each sampled transition
    carries an importance-sampling weight correcting the non-uniform sampling
    distribution.
    """
    prediction = as_tensor(prediction)
    target = _detached_target(target, prediction.data.dtype)
    weights = np.asarray(weights, dtype=prediction.data.dtype).reshape(prediction.shape)
    diff = prediction - target
    return (Tensor(weights) * diff * diff).mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber (smooth L1) loss, robust to occasional large TD errors."""
    prediction = as_tensor(prediction)
    target = _detached_target(target, prediction.data.dtype)
    diff = prediction - target
    abs_diff = np.abs(diff.data)
    quadratic_mask = abs_diff <= delta
    # Quadratic branch: 0.5 * diff^2 ; linear branch: delta * (|diff| - 0.5*delta)
    quadratic = diff * diff * 0.5
    sign = np.sign(diff.data)
    linear_branch = diff * Tensor(sign * delta) - (0.5 * delta * delta)
    combined = quadratic * Tensor(quadratic_mask.astype(diff.data.dtype)) + linear_branch * Tensor(
        (~quadratic_mask).astype(diff.data.dtype)
    )
    return combined.mean()


def masked_softmax(scores: np.ndarray, key_mask: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of ``scores``, in place, padded keys excluded.

    ``key_mask`` (True = padding, broadcastable against ``scores``) fills
    those keys with -1e9 before the shifted exp-normalise, so they get zero
    weight.  Every step writes into ``scores`` itself, and the row sum runs
    on that same contiguous buffer, so the result equals the composed
    ``masked_fill(mask, -1e9).softmax()`` bit for bit.  Returns ``scores``.
    """
    if key_mask is not None:
        np.copyto(scores, -1e9, where=key_mask)
    scores -= row_max(scores)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def scaled_dot_product_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Attention ``softmax(Q K^T / sqrt(d)) V`` as in Fig. 4 of the paper.

    Parameters
    ----------
    queries, keys, values:
        Tensors of shape ``(..., n, d)``.  A single set is ``(n, d)``; the
        batched engine stacks sets (and heads) into leading dimensions, e.g.
        ``(heads, n, d)`` or ``(batch, heads, n, d)``, and the attention is
        computed independently per leading slice in one batched matmul.
    mask:
        Optional boolean array marking padded *key* rows (True = padding).
        Any shape broadcastable against the score matrix ``(..., n, n)`` with
        the key axis last is accepted — ``(n,)`` for a single set, or e.g.
        ``(batch, 1, 1, n)`` for per-sample masks shared across heads and
        query rows.  Padded keys are excluded from the softmax so that
        zero-padding does not influence real tasks; padded query rows still
        produce (ignored) outputs.

    Scale, mask and softmax form one graph node over ``Q K^T``: the forward
    is :func:`masked_softmax` on the scaled scores, and the backward runs the
    softmax, ``masked_fill`` and scale backward steps of the composed chain
    ``((Q @ K^T) * scale).masked_fill(mask, -1e9).softmax()`` in that
    chain's order.  Values and gradients equal the chain's bit for bit,
    without its three nodes and their full-size temporaries.
    """
    queries = as_tensor(queries)
    keys = as_tensor(keys)
    values = as_tensor(values)
    raw = queries @ keys.swapaxes(-1, -2)
    scale = np.asarray(1.0 / float(np.sqrt(queries.shape[-1])), dtype=raw.data.dtype)
    key_mask = None if mask is None else np.asarray(mask, dtype=bool)
    weights = masked_softmax(raw.data * scale, key_mask)

    def backward(grad: np.ndarray) -> None:
        # d softmax_i / d x_j = softmax_i (delta_ij - softmax_j)
        dot = (grad * weights).sum(axis=-1, keepdims=True)
        grad_scores = grad - dot
        grad_scores *= weights
        if key_mask is not None:
            np.copyto(grad_scores, 0.0, where=key_mask)
        grad_scores *= scale
        raw._accumulate(grad_scores, fresh=True)

    return raw._make_child(weights, (raw,), backward) @ values
