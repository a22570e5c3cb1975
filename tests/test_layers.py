"""Layer blocks: loop oracles, init identities, and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dga_loops, numeric_grad, rel_error, sga_loops
from volformer import layers as L
from volformer import tensor as T
from volformer.errors import ShapeError
from volformer.tensor import Tensor


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def check_grads(f, tensors, tol=1e-5, h=1e-5):
    T.zero_grads(tensors)
    T.backward(f())
    numeric = numeric_grad(lambda: f().item(), tensors, h=h)
    for tt, want in zip(tensors, numeric):
        assert tt.grad is not None
        err = rel_error(tt.grad, want)
        assert err < tol, f"gradient mismatch {err:.3g} for shape {tt.data.shape}"


def random_sga(tokens, channels, hidden, rng, dtype=np.float64):
    """SGA block with every weight randomized (including the zero-init one)."""
    block = L.SGABlock(tokens, channels, hidden, 2, rng, dtype)
    block.w_channel_out.data = rng.normal(size=block.w_channel_out.shape).astype(dtype)
    return block


def random_dga(tokens, channels, heads, rng, dtype=np.float64):
    block = L.DGABlock(tokens, channels, heads, 4, 0.02, rng, dtype)
    block.out_proj.data = rng.normal(
        size=block.out_proj.shape).astype(dtype) * 0.2
    return block


# ---------------------------------------------------------------------------
# data normalization


def norm_volume(v):
    """One (D, H, W) volume through ``DataNormLayer`` as a batch of one."""
    v = v if isinstance(v, Tensor) else Tensor(np.asarray(v, dtype=np.float32))
    return L.DataNormLayer().forward(T.reshape(v, (1, 1) + v.shape))


def test_data_norm_hand_values():
    out = norm_volume(Tensor([[[1.0, 2.0, 3.0]]])).data[0, 0]
    assert np.allclose(out, [[[-1.2247, 0.0, 1.2247]]], atol=1e-3)
    assert abs(out.mean()) < 1e-6


def test_data_norm_affine_invariance_fixed():
    rng = np.random.default_rng(20)
    v = rng.normal(size=(6, 7, 6)).astype(np.float32)
    base = norm_volume(v).data
    shifted = norm_volume(3.7 * v + 11.0).data
    assert np.abs(base - shifted).max() < 1e-4


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0), st.integers(0, 2**31 - 1))
def test_data_norm_affine_invariance_property(gain, offset, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(4, 5, 4)).astype(np.float32)
    base = norm_volume(v).data
    out = norm_volume(gain * v + offset).data
    assert np.abs(base - out).max() < 1e-4


def test_data_norm_idempotent_within_epsilon():
    rng = np.random.default_rng(21)
    v = rng.normal(2.0, 3.0, size=(5, 5, 5)).astype(np.float32)
    once = norm_volume(v).data[0, 0]
    twice = norm_volume(once).data[0, 0]
    assert np.abs(once - twice).max() < 1e-4


def test_data_norm_constant_volume_is_zero_with_clean_gradient():
    x = t64(np.full((3, 3, 3), 7.0))
    out = norm_volume(x)
    assert np.all(out.data == 0.0)
    T.backward(T.tensor_sum(T.mul(out, 2.0)))
    assert np.all(np.isfinite(x.grad))
    assert np.all(x.grad == 0.0)


def test_data_norm_gradient():
    rng = np.random.default_rng(22)
    x = t64(rng.normal(size=(3, 4, 3)))
    w = Tensor(rng.normal(size=(1, 1, 3, 4, 3)))
    check_grads(lambda: T.tensor_sum(T.mul(norm_volume(x), w)), [x], tol=1e-4)


def test_data_norm_layer_batched_matches_per_sample():
    rng = np.random.default_rng(23)
    batch = rng.normal(3.0, 2.0, size=(4, 1, 5, 6, 5)).astype(np.float32)
    layer = L.DataNormLayer()
    out = layer.forward(Tensor(batch)).data
    for i in range(4):
        single = norm_volume(batch[i, 0]).data[0, 0]
        assert np.abs(out[i, 0] - single).max() < 1e-6


# ---------------------------------------------------------------------------
# residual conv block


def test_residual_block_identity_with_zero_convs():
    rng = np.random.default_rng(24)
    block = L.ResidualConvBlock(3, 3, 1, rng)
    block.conv1.weight.data[:] = 0.0
    block.conv2.weight.data[:] = 0.0
    x = np.abs(rng.normal(size=(2, 3, 4, 4, 4))).astype(np.float32)
    out = block.forward(Tensor(x), training=True).data
    assert np.abs(out - x).max() < 1e-6


def test_residual_block_downsamples_with_ceil():
    rng = np.random.default_rng(25)
    block = L.ResidualConvBlock(2, 4, 2, rng)
    out = block.forward(Tensor(rng.normal(size=(1, 2, 9, 5, 8)).astype(np.float32)),
                        training=True)
    assert out.shape == (1, 4, 5, 3, 4)
    assert block.proj is not None


def test_residual_block_gradient():
    rng = np.random.default_rng(26)
    block = L.ResidualConvBlock(2, 3, 2, rng, dtype=np.float64)
    x = t64(rng.normal(size=(2, 2, 3, 3, 3)))
    w = Tensor(rng.normal(size=(2, 3, 2, 2, 2)))
    tracked = [x] + [t for _, t in block.params()]
    check_grads(lambda: T.tensor_sum(T.mul(block.forward(x, True), w)), tracked, tol=2e-4)


# ---------------------------------------------------------------------------
# shallow global attention


def test_sga_matches_loop_oracle():
    rng = np.random.default_rng(27)
    block = random_sga(10, 6, 4, rng)
    x = rng.normal(size=(10, 6))
    got = block.forward(t64(x[None], requires_grad=False)).data[0]
    want = sga_loops(x, block.w_spatial_in.data, block.w_spatial_out.data,
                     block.w_channel_in.data, block.w_channel_out.data)
    assert rel_error(got, want) < 1e-9


def test_sga_batched_matches_per_sample():
    rng = np.random.default_rng(28)
    block = random_sga(8, 5, 4, rng)
    x = rng.normal(size=(3, 8, 5))
    got = block.forward(t64(x, requires_grad=False)).data
    for i in range(3):
        single = block.forward(t64(x[i:i + 1], requires_grad=False)).data[0]
        assert rel_error(got[i], single) < 1e-9


def test_sga_channel_stage_is_identity_at_init():
    rng = np.random.default_rng(29)
    block = L.SGABlock(6, 4, 8, 2, rng, dtype=np.float32)
    x = Tensor(rng.normal(size=(6, 4)).astype(np.float32))
    hidden = T.relu(T.matmul(block.w_spatial_in, x))
    spatial_only = T.add(x, T.matmul(block.w_spatial_out, hidden)).data
    out = block.forward(T.reshape(x, (1, 6, 4))).data[0]
    assert np.array_equal(out, spatial_only)


def test_sga_token_count_mismatch():
    block = L.SGABlock(6, 4, 8, 2, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        block.forward(Tensor(np.zeros((1, 7, 4), dtype=np.float32)))


def test_sga_gradient():
    rng = np.random.default_rng(30)
    block = random_sga(5, 3, 4, rng)
    x = t64(rng.normal(size=(1, 5, 3)))
    w = Tensor(rng.normal(size=(1, 5, 3)))
    tracked = [x] + [t for _, t in block.params()]
    check_grads(lambda: T.tensor_sum(T.mul(block.forward(x), w)), tracked, tol=1e-4)


def test_sga_cost_grows_linearly_with_tokens():
    rng = np.random.default_rng(31)
    counts = {}
    for n in (64, 128):
        block = L.SGABlock(n, 8, 16, 2, rng)
        x = Tensor(np.zeros((1, n, 8), dtype=np.float32))
        with T.count_ops() as ops:
            block.forward(x)
        counts[n] = ops.macs
    assert counts[128] / counts[64] <= 2.2


# ---------------------------------------------------------------------------
# deep global attention


def test_dga_matches_loop_oracle():
    rng = np.random.default_rng(32)
    block = random_dga(7, 6, 2, rng)
    x = rng.normal(size=(7, 6))
    got = block.forward(t64(x[None], requires_grad=False)).data[0]
    want = dga_loops(
        x, block.pos_embed.data, np.split(block.qkv.data, block.heads, axis=1),
        block.out_proj.data, block.ff_w_in.data, block.ff_b_in.data,
        block.ff_w_out.data, block.ff_b_out.data)
    assert rel_error(got, want) < 1e-9


def test_dga_batched_matches_per_sample():
    rng = np.random.default_rng(33)
    block = random_dga(6, 4, 2, rng)
    x = rng.normal(size=(3, 6, 4))
    got = block.forward(t64(x, requires_grad=False)).data
    for i in range(3):
        single = block.forward(t64(x[i:i + 1], requires_grad=False)).data[0]
        assert rel_error(got[i], single) < 1e-9


def test_dga_msa_is_zero_at_init_so_z1_equals_z0():
    rng = np.random.default_rng(34)
    block = L.DGABlock(5, 8, 4, 4, 0.02, rng, dtype=np.float32)
    x = Tensor(rng.normal(size=(1, 5, 8)).astype(np.float32))
    z0 = T.add(x, block.pos_embed)
    assert np.all(block.msa(z0).data == 0.0)
    out = block.forward(x).data
    want = T.add(z0, block.feed_forward(z0)).data
    assert np.array_equal(out, want)


def test_dga_mask_rows_sum_to_one_even_for_extreme_inputs():
    rng = np.random.default_rng(35)
    block = random_dga(6, 4, 2, rng, dtype=np.float32)
    for scale in (1.0, 1e4):
        x = Tensor((rng.normal(size=(1, 6, 4)) * scale).astype(np.float32))
        _, masks = block.msa(x, return_masks=True)
        s = masks.data.sum(axis=-1)
        assert np.all(np.isfinite(masks.data))
        assert np.abs(s - 1.0).max() < 1e-6


def test_dga_head_divisibility_error():
    with pytest.raises(ShapeError):
        L.DGABlock(4, 6, 4, rng=np.random.default_rng(0))


def test_dga_token_count_mismatch():
    block = L.DGABlock(6, 4, 2, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        block.forward(Tensor(np.zeros((1, 4, 4), dtype=np.float32)))


def test_dga_gradient():
    rng = np.random.default_rng(36)
    block = random_dga(4, 4, 2, rng)
    x = t64(rng.normal(size=(1, 4, 4)))
    w = Tensor(rng.normal(size=(1, 4, 4)))
    tracked = [x] + [t for _, t in block.params()]
    check_grads(lambda: T.tensor_sum(T.mul(block.forward(x), w)), tracked, tol=1e-4)


def test_dga_cost_superlinear_in_tokens():
    rng = np.random.default_rng(37)
    counts = {}
    for n in (512, 1024):
        block = L.DGABlock(n, 8, 2, 4, 0.02, rng)
        x = Tensor(np.zeros((1, n, 8), dtype=np.float32))
        with T.count_ops() as ops:
            block.forward(x)
        counts[n] = ops.macs
    assert counts[1024] / counts[512] >= 3.5


# ---------------------------------------------------------------------------
# MLP / classifier head


def test_mlp_shapes_and_gradient():
    rng = np.random.default_rng(38)
    mlp = L.MLP(6, (5, 4), 3, rng, dtype=np.float64)
    x = t64(rng.normal(size=(2, 6)))
    out = mlp.forward(x)
    assert out.shape == (2, 3)
    w = Tensor(rng.normal(size=(2, 3)))
    tracked = [x] + [t for _, t in mlp.params()]
    check_grads(lambda: T.tensor_sum(T.mul(mlp.forward(x), w)), tracked, tol=1e-4)


def test_classify_returns_probabilities():
    # The model head: softmax of a (B, F) feature batch times W^T.
    rng = np.random.default_rng(39)
    w = Tensor(rng.normal(size=(3, 5)).astype(np.float32))
    features = Tensor(rng.normal(size=(1, 5)).astype(np.float32))
    p = T.softmax(T.matmul(features, T.transpose(w)), -1).data[0]
    assert p.shape == (3,)
    assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-6


def test_cross_entropy_hand_value_and_range_check():
    # log p as logits: log_softmax(log p) == log p when p sums to one.
    logits = Tensor(np.log(np.array([[0.25, 0.75]], dtype=np.float64)))
    assert L.cross_entropy_logits(logits, [1]).item() == pytest.approx(
        -math.log(0.75), abs=1e-9)
    with pytest.raises(IndexError):
        L.cross_entropy_logits(logits, [2])


def test_cross_entropy_logits_weighted_gradient():
    rng = np.random.default_rng(40)
    logits = t64(rng.normal(size=(4, 3)))
    labels = np.array([0, 2, 1, 1])
    weights = np.array([1.0, 2.0, 1.0, 0.5])
    T.backward(L.cross_entropy_logits(logits, labels, weights))
    p = T.softmax(Tensor(logits.data), -1).data
    onehot = np.zeros((4, 3))
    onehot[np.arange(4), labels] = 1.0
    want = (p - onehot) * (weights / weights.sum())[:, None]
    assert rel_error(logits.grad, want) < 1e-10


def test_unbatched_inputs_are_rejected_naming_their_shape():
    rng = np.random.default_rng(41)
    sga = L.SGABlock(6, 4, 8, 2, rng)
    dga = L.DGABlock(6, 4, 2, rng=rng)
    calls = [
        (lambda x: T.conv3d(x, Tensor(np.zeros((1, 2, 3, 3, 3))), 1, 1), (2, 4, 4, 4)),
        (T.avg_pool_global, (2, 4, 4, 4)),
        (lambda x: T.matmul(Tensor(np.zeros((3, 4))), x), (4,)),
        (lambda x: T.matmul(x, Tensor(np.zeros((4, 3)))), (4,)),
        (sga.forward, (6, 4)),
        (dga.forward, (6, 4)),
        (dga.msa, (6, 4)),
        (L.DataNormLayer().forward, (4, 5, 4)),
    ]
    for call, shape in calls:
        with pytest.raises(ShapeError) as exc:
            call(Tensor(np.zeros(shape, dtype=np.float32)))
        assert str(shape) in str(exc.value), (shape, str(exc.value))
