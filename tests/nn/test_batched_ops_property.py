"""Property-based tests for the batched tensor engine (stdlib-only).

Hypothesis-style randomized testing without the hypothesis dependency: each
property is parametrized over seeds, and a seeded :class:`random.Random`
draws shapes, masks and leading batch dimensions.  Every draw checks the
same invariant the fixed-shape suite (``tests/nn/test_batched_ops.py``) pins
at single points: a batched op computes exactly what the equivalent
per-sample loop computes — values *and* gradients, including gradient
accumulation into shared parameters.
"""

import random

import numpy as np
import pytest

from repro.nn import Linear, MultiHeadSelfAttention, Tensor, scaled_dot_product_attention
from repro.nn.functional import masked_softmax
from repro.nn.tensor import row_max

SEEDS = list(range(10))
DTYPES = [np.float32, np.float64]

#: Batched-vs-looped agreement tolerance.  The batched kernels reduce in a
#: different association order than the per-sample loops, so bitwise equality
#: is not guaranteed — but agreement must stay at float64 round-off level.
ATOL = 1e-10


def draw_lead(rnd: random.Random) -> tuple[int, ...]:
    """A random leading batch shape: (), (B,) or (B1, B2)."""
    depth = rnd.randint(0, 2)
    return tuple(rnd.randint(1, 4) for _ in range(depth))


def draw_array(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.standard_normal(shape)


def draw_mask(rnd: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """A random boolean mask with at least one False entry per trailing row."""
    mask = np.array(
        [rnd.random() < 0.4 for _ in range(int(np.prod(shape)))], dtype=bool
    ).reshape(shape)
    flat = mask.reshape(-1, shape[-1])
    for row in flat:
        if row.all():
            row[rnd.randrange(shape[-1])] = False
    return flat.reshape(shape)


def bits(array: np.ndarray) -> np.ndarray:
    """The raw bit patterns of a float array (bitwise comparisons)."""
    return array.view(np.uint32 if array.dtype == np.float32 else np.uint64)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(bits(actual), bits(expected))


def composed_attention(queries, keys, values, mask):
    """Attention as the chain of public ``Tensor`` ops (the fused node's oracle)."""
    scores = (queries @ keys.swapaxes(-1, -2)) * (1.0 / float(np.sqrt(queries.shape[-1])))
    if mask is not None:
        scores = scores.masked_fill(np.broadcast_to(mask, scores.shape), -1e9)
    return scores.softmax(axis=-1) @ values


class TestBatchedMatmulProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_matmul_matches_per_sample_loop(self, seed):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        lead = draw_lead(rnd)
        rows, inner, cols = rnd.randint(1, 5), rnd.randint(1, 5), rnd.randint(1, 5)

        x = Tensor(draw_array(rng, lead + (rows, inner)), requires_grad=True)
        w = Tensor(draw_array(rng, (inner, cols)), requires_grad=True)
        out = x @ w
        assert out.shape == lead + (rows, cols)
        upstream = draw_array(rng, out.shape)
        out.backward(upstream)

        flat_x = x.data.reshape(-1, rows, inner)
        flat_up = upstream.reshape(-1, rows, cols)
        expected_w = np.zeros_like(w.data)
        flat_grad_x = x.grad.reshape(-1, rows, inner)
        for b in range(flat_x.shape[0]):
            single = Tensor(flat_x[b], requires_grad=True)
            shared = Tensor(w.data.copy(), requires_grad=True)
            (single @ shared).backward(flat_up[b])
            np.testing.assert_allclose(
                out.numpy().reshape(-1, rows, cols)[b], flat_x[b] @ w.data, atol=ATOL
            )
            np.testing.assert_allclose(flat_grad_x[b], single.grad, atol=ATOL)
            expected_w += shared.grad
        np.testing.assert_allclose(w.grad, expected_w, atol=ATOL)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shared_weight_gradient_scales_with_batch_count(self, seed):
        """Duplicating a batch along the leading axis doubles the weight grad."""
        rng = np.random.default_rng(seed + 100)
        rows, inner, cols = 3, 4, 2
        base = draw_array(rng, (2, rows, inner))

        w_once = Tensor(draw_array(rng, (inner, cols)), requires_grad=True)
        (Tensor(base) @ w_once).sum().backward()
        w_twice = Tensor(w_once.data.copy(), requires_grad=True)
        (Tensor(np.concatenate([base, base])) @ w_twice).sum().backward()
        np.testing.assert_allclose(w_twice.grad, 2.0 * w_once.grad, atol=ATOL)


class TestBatchedSoftmaxProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_matches_per_sample_values_and_grads(self, seed):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        lead = draw_lead(rnd)
        rows, cols = rnd.randint(1, 5), rnd.randint(2, 6)
        data = draw_array(rng, lead + (rows, cols))

        batched = Tensor(data, requires_grad=True)
        out = batched.softmax(axis=-1)
        upstream = draw_array(rng, out.shape)
        out.backward(upstream)

        np.testing.assert_allclose(out.numpy().sum(axis=-1), np.ones(lead + (rows,)), atol=ATOL)
        flat = data.reshape(-1, rows, cols)
        flat_up = upstream.reshape(-1, rows, cols)
        flat_grad = batched.grad.reshape(-1, rows, cols)
        for b in range(flat.shape[0]):
            single = Tensor(flat[b], requires_grad=True)
            single.softmax(axis=-1).backward(flat_up[b])
            np.testing.assert_allclose(
                out.numpy().reshape(-1, rows, cols)[b],
                Tensor(flat[b]).softmax(axis=-1).numpy(),
                atol=ATOL,
            )
            np.testing.assert_allclose(flat_grad[b], single.grad, atol=ATOL)


class TestRowMaxProperties:
    """``row_max`` is ``ndarray.max(axis=-1, keepdims=True)`` up to a zero's sign."""

    SPECIALS = np.array([-1e9, np.inf, -np.inf, np.nan, 0.0, -0.0])

    def draw_scores(self, seed: int, dtype) -> np.ndarray:
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        # Key lengths from 1 up to past numpy's vectorised-reduction width.
        shape = draw_lead(rnd) + (rnd.randint(1, 6), rnd.choice([1, 2, 5, 15, 19, 40]))
        data = draw_array(rng, shape).astype(dtype)
        special = rng.random(shape) < rnd.random()
        data[special] = rng.choice(self.SPECIALS, size=int(special.sum()))
        return data

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_ndarray_max_bitwise(self, seed, dtype):
        data = self.draw_scores(seed, dtype)
        expected = data.max(axis=-1, keepdims=True)
        actual = row_max(data)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        # Every maximum — NaN, ±inf, -1e9 fills — matches bit for bit; a zero
        # maximum may differ only in its sign, because numpy's own reduction
        # order over a long row differs from the column-wise pass.
        same = bits(actual) == bits(expected)
        assert (same | ((expected == 0) & (actual == 0))).all()
        # That sign never reaches a softmax: the shifted exponentials agree.
        with np.errstate(invalid="ignore", over="ignore"):
            assert_bitwise(np.exp(data - actual), np.exp(data - expected))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_signed_zero_rows_give_identical_exponentials(self, dtype):
        """Rows of ±0 (and below) are where the zero's sign can differ."""
        rng = np.random.default_rng(0)
        data = rng.choice(np.array([0.0, -0.0, -1.0]), size=(64, 33)).astype(dtype)
        actual, expected = row_max(data), data.max(axis=-1, keepdims=True)
        np.testing.assert_array_equal(actual, expected)
        assert_bitwise(np.exp(data - actual), np.exp(data - expected))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_masked_softmax_matches_composed_ops_in_place(self, seed, dtype):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        shape = draw_lead(rnd) + (rnd.randint(1, 6), rnd.randint(1, 20))
        scores = draw_array(rng, shape).astype(dtype)
        mask = draw_mask(rnd, shape[:-2] + (1, shape[-1]))
        expected = Tensor(scores).masked_fill(np.broadcast_to(mask, shape), -1e9).softmax()
        buffer = scores.copy()
        assert masked_softmax(buffer, mask) is buffer
        assert_bitwise(buffer, expected.numpy())
        assert_bitwise(masked_softmax(scores.copy()), Tensor(scores).softmax().numpy())


class TestMaskedFillProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_masked_fill_forward_and_gradient_routing(self, seed):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        lead = draw_lead(rnd)
        shape = lead + (rnd.randint(1, 4), rnd.randint(2, 5))
        data = draw_array(rng, shape)
        mask = draw_mask(rnd, shape)

        scores = Tensor(data, requires_grad=True)
        out = scores.masked_fill(mask, -1e9)
        np.testing.assert_allclose(out.numpy(), np.where(mask, -1e9, data), atol=0)

        upstream = draw_array(rng, shape)
        out.backward(upstream)
        assert (scores.grad[mask] == 0.0).all()
        np.testing.assert_allclose(scores.grad[~mask], upstream[~mask], atol=0)


class TestBatchedAttentionProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_attention_matches_per_sample(self, seed):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        batch, rows, dim = rnd.randint(1, 4), rnd.randint(2, 6), 2 * rnd.randint(1, 4)
        q, k, v = (draw_array(rng, (batch, rows, dim)) for _ in range(3))
        masks = draw_mask(rnd, (batch, rows))

        tensors = [Tensor(arr, requires_grad=True) for arr in (q, k, v)]
        batched = scaled_dot_product_attention(*tensors, mask=masks[:, np.newaxis, :])
        batched.sum().backward()

        for b in range(batch):
            singles = [Tensor(arr[b], requires_grad=True) for arr in (q, k, v)]
            single = scaled_dot_product_attention(*singles, mask=masks[b])
            single.sum().backward()
            np.testing.assert_allclose(batched.numpy()[b], single.numpy(), atol=ATOL)
            for batched_input, single_input in zip(tensors, singles):
                np.testing.assert_allclose(
                    batched_input.grad[b], single_input.grad, atol=ATOL
                )

    @pytest.mark.parametrize("masking", ["none", "per_key", "full_row"])
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fused_attention_matches_composed_ops_bitwise(self, seed, dtype, masking):
        """One graph node equals the scale → masked_fill → softmax chain bitwise."""
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        lead = draw_lead(rnd) + (rnd.randint(1, 3),)
        rows, dim = rnd.randint(1, 19), 2 * rnd.randint(1, 4)
        arrays = [draw_array(rng, lead + (rows, dim)).astype(dtype) for _ in range(3)]
        mask = None
        if masking != "none":
            mask = draw_mask(rnd, lead[:-1] + (1, 1, rows))
            if masking == "full_row":
                mask.reshape(-1, rows)[0] = True
        upstream = draw_array(rng, lead + (rows, dim)).astype(dtype)

        fused = [Tensor(array, requires_grad=True) for array in arrays]
        out = scaled_dot_product_attention(*fused, mask=mask)
        out.backward(upstream)
        composed = [Tensor(array, requires_grad=True) for array in arrays]
        expected = composed_attention(*composed, mask)
        expected.backward(upstream)

        assert_bitwise(out.numpy(), expected.numpy())
        for fused_input, composed_input in zip(fused, composed):
            assert_bitwise(fused_input.grad, composed_input.grad)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_attention_layer_batched_matches_per_sample(self, seed):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        heads = rnd.choice([1, 2, 3])
        embed = heads * rnd.randint(2, 4)
        batch, rows = rnd.randint(1, 3), rnd.randint(2, 5)
        layer = MultiHeadSelfAttention(embed, num_heads=heads, rng=np.random.default_rng(seed))
        x = draw_array(rng, (batch, rows, embed))
        masks = draw_mask(rnd, (batch, rows))

        batched = layer(Tensor(x), mask=masks)
        for b in range(batch):
            single = layer(Tensor(x[b]), mask=masks[b])
            np.testing.assert_allclose(batched.numpy()[b], single.numpy(), atol=ATOL)


class TestBatchedLinearProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_flattens_leading_dims_correctly(self, seed):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        lead = draw_lead(rnd)
        rows, n_in, n_out = rnd.randint(1, 4), rnd.randint(1, 5), rnd.randint(1, 5)
        layer = Linear(n_in, n_out, rng=np.random.default_rng(seed))
        x = draw_array(rng, lead + (rows, n_in))

        batched = layer(Tensor(x))
        assert batched.shape == lead + (rows, n_out)
        flat = x.reshape(-1, rows, n_in)
        flat_out = batched.numpy().reshape(-1, rows, n_out)
        for b in range(flat.shape[0]):
            np.testing.assert_allclose(flat_out[b], layer(Tensor(flat[b])).numpy(), atol=ATOL)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_weight_gradients_accumulate_over_batch(self, seed):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        batch, rows, n_in, n_out = rnd.randint(2, 4), rnd.randint(1, 4), 3, 2
        x = draw_array(rng, (batch, rows, n_in))

        batched_layer = Linear(n_in, n_out, rng=np.random.default_rng(seed))
        batched_layer(Tensor(x)).sum().backward()
        looped_layer = Linear(n_in, n_out, rng=np.random.default_rng(seed))
        for b in range(batch):
            looped_layer(Tensor(x[b])).sum().backward()

        for (name, batched_param), (_, looped_param) in zip(
            batched_layer.named_parameters(), looped_layer.named_parameters()
        ):
            np.testing.assert_allclose(batched_param.grad, looped_param.grad, atol=ATOL)


class TestGradientAccumulationProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_repeated_use_accumulates_k_fold(self, seed):
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        shape = (rnd.randint(1, 4), rnd.randint(1, 4))
        k = rnd.randint(2, 5)
        x = Tensor(draw_array(rng, shape), requires_grad=True)
        total = x
        for _ in range(k - 1):
            total = total + x
        upstream = draw_array(rng, shape)
        total.backward(upstream)
        np.testing.assert_allclose(x.grad, k * upstream, atol=ATOL)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_accumulation_across_distinct_ops(self, seed):
        """x used by a matmul branch and an elementwise branch sums both grads."""
        rnd = random.Random(seed)
        rng = np.random.default_rng(seed)
        rows, inner = rnd.randint(1, 4), rnd.randint(1, 4)
        scale = rnd.uniform(0.5, 2.0)
        x = Tensor(draw_array(rng, (rows, inner)), requires_grad=True)
        w = Tensor(draw_array(rng, (inner, 2)), requires_grad=True)

        ((x @ w).sum() + (x * scale).sum()).backward()
        expected = np.ones((rows, 2)) @ w.data.T + scale * np.ones((rows, inner))
        np.testing.assert_allclose(x.grad, expected, atol=ATOL)
