"""Tensor core: primitives against finite differences and loop oracles."""

import gc
import itertools
import math
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (batch_norm_chain, bn_relu_conv_chain, conv3d_loops, dga_chain,
                     numeric_grad, rel_error, sga_chain, softmax_chain)
from volformer.errors import ShapeError, StateError
from volformer import tensor as T
from volformer.layers import cross_entropy_logits
from volformer.model import BrainFormer, ModelConfig
from volformer.tensor import Tensor


def t64(arr, requires_grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def check_grads(f, tensors, tol=1e-5, h=1e-5):
    """Autodiff grads of scalar f(tensors) vs central differences."""
    out = f()
    T.zero_grads(tensors)
    T.backward(out)
    numeric = numeric_grad(lambda: f().item(), tensors, h=h)
    for tt, want in zip(tensors, numeric):
        assert tt.grad is not None
        err = rel_error(tt.grad, want)
        assert err < tol, f"gradient mismatch {err:.3g} for shape {tt.data.shape}"


# ---------------------------------------------------------------------------
# hand-checked values


def test_mean_var_hand_values():
    # Three samples of one channel: batch_norm records their mean and
    # population variance as the first running statistics.
    stats = T.RunningStats()
    T.batch_norm(Tensor([[1.0], [2.0], [3.0]]), Tensor([1.0]), Tensor([0.0]), True, stats)
    assert stats.mean.item() == pytest.approx(2.0, abs=1e-7)
    assert stats.var.item() == pytest.approx(2.0 / 3.0, abs=1e-7)


def test_matmul_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.allclose(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_relu_subgradient_zero_at_zero():
    x = t64([-1.0, 0.0, 2.0])
    y = T.tensor_sum(T.relu(x))
    T.backward(y)
    assert np.allclose(x.grad, [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# gradient checks, float64, central differences


def test_grad_add_sub_mul_div():
    rng = np.random.default_rng(0)
    a = t64(rng.normal(size=(3, 4)))
    b = t64(rng.normal(size=(3, 4)) + 3.0)
    check_grads(lambda: T.tensor_sum(T.mul(T.add(a, b), T.div(T.sub(a, b), b))), [a, b])


def test_grad_broadcast_add_mul():
    rng = np.random.default_rng(1)
    a = t64(rng.normal(size=(2, 3, 4)))
    b = t64(rng.normal(size=(4,)))
    c = t64(rng.normal(size=(3, 1)))
    check_grads(lambda: T.tensor_sum(T.mul(T.add(a, b), c)), [a, b, c])


def test_grad_exp_log_sqrt():
    rng = np.random.default_rng(2)
    x = t64(rng.uniform(0.5, 2.0, size=(5,)))
    check_grads(lambda: T.tensor_sum(T.exp(T.log(T.sqrt(x)))), [x])


def test_grad_matmul():
    rng = np.random.default_rng(3)
    a = t64(rng.normal(size=(4, 5)))
    b = t64(rng.normal(size=(5, 3)))
    check_grads(lambda: T.tensor_sum(T.matmul(a, b)), [a, b])


def test_grad_matmul_weighted():
    rng = np.random.default_rng(4)
    a = t64(rng.normal(size=(3, 4)))
    b = t64(rng.normal(size=(4, 2)))
    w = Tensor(rng.normal(size=(3, 2)))
    check_grads(lambda: T.tensor_sum(T.mul(T.matmul(a, b), w)), [a, b])


def test_grad_matmul_batched_and_vector():
    rng = np.random.default_rng(5)
    a = t64(rng.normal(size=(2, 3, 4)))
    b = t64(rng.normal(size=(2, 4, 3)))
    check_grads(lambda: T.tensor_sum(T.matmul(a, b)), [a, b])
    w = t64(rng.normal(size=(3, 4)))
    v = t64(rng.normal(size=(4, 1)))  # a vector enters as a column
    check_grads(lambda: T.tensor_sum(T.matmul(w, v)), [w, v])


def test_grad_reductions_and_shapes():
    rng = np.random.default_rng(6)
    x = t64(rng.normal(size=(2, 3, 4)))
    check_grads(lambda: T.tensor_sum(T.mul(T.mean(x, (0, 2)), T.mean(x, (0, 2)))), [x])
    check_grads(lambda: T.tensor_sum(T.mul(T.transpose(T.reshape(x, (6, 4))), 2.0)), [x])
    # Negative axes count from the end, as in numpy; the weights make a
    # wrongly inverted permutation show even where the shapes agree.
    for shape, axes in (((2, 3, 4), (0, -1, 1)), ((3, 3, 3), (-1, 0, 1))):
        a = t64(rng.normal(size=shape))
        w = rng.normal(size=np.transpose(a.data, axes).shape)
        check_grads(lambda: T.tensor_sum(T.mul(T.transpose(a, axes), w)), [a])
    # Reductions over a negative axis, a tuple holding one, and every axis,
    # with and without keepdims.
    for op, axis, keepdims in itertools.product((T.tensor_sum, T.mean), (-1, (0, -2), None),
                                                (False, True)):
        w = rng.normal(size=x.data.sum(axis=axis, keepdims=keepdims).shape)
        check_grads(lambda: T.tensor_sum(T.mul(op(x, axis, keepdims), w)), [x])


def test_grad_concat_narrow_select():
    rng = np.random.default_rng(7)
    a = t64(rng.normal(size=(3, 2)))
    b = t64(rng.normal(size=(3, 4)))
    labels = np.array([0, 3, 1])

    def f():
        cat = T.concat([a, b], axis=1)
        mid = T.narrow(cat, 1, 1, 4)
        return T.add(T.tensor_sum(T.mul(T.select_index(cat, labels), 1.5)), T.tensor_sum(mid))

    check_grads(f, [a, b])


def test_grad_softmax_and_log_softmax():
    rng = np.random.default_rng(8)
    x = t64(rng.normal(size=(4, 6)))
    w = Tensor(rng.normal(size=(4, 6)))
    check_grads(lambda: T.tensor_sum(T.mul(T.softmax(x, -1), w)), [x])
    check_grads(lambda: T.tensor_sum(T.mul(T.log_softmax(x, -1), w)), [x])


def test_grad_mean_var():
    rng = np.random.default_rng(9)
    x = t64(rng.normal(size=(3, 5)))

    def f():  # the mean -> center -> variance chain of batch_norm
        m = T.mean(x, 1, keepdims=True)
        centered = T.sub(x, m)
        v = T.mean(T.mul(centered, centered), 1, keepdims=True)
        return T.tensor_sum(T.add(T.mul(m, m), v))

    check_grads(f, [x])


def test_grad_avg_pool_global():
    rng = np.random.default_rng(10)
    x = t64(rng.normal(size=(2, 3, 2, 3, 2)))
    w = Tensor(rng.normal(size=(2, 3)))
    check_grads(lambda: T.tensor_sum(T.mul(T.avg_pool_global(x), w)), [x])


def test_grad_batch_norm_training():
    rng = np.random.default_rng(11)
    x = t64(rng.normal(size=(4, 3, 2, 2, 2)))
    gamma = t64(rng.uniform(0.5, 1.5, size=3))
    beta = t64(rng.normal(size=3))
    w = Tensor(rng.normal(size=(4, 3, 2, 2, 2)))
    check_grads(
        lambda: T.tensor_sum(T.mul(T.batch_norm(x, gamma, beta, True), w)),
        [x, gamma, beta], tol=1e-4,
    )


def test_grad_batch_norm_eval():
    rng = np.random.default_rng(23)
    x = t64(rng.normal(size=(2, 3, 2, 2, 2)))
    gamma = t64(rng.uniform(0.5, 1.5, size=3))
    beta = t64(rng.normal(size=3))
    w = Tensor(rng.normal(size=(2, 3, 2, 2, 2)))
    stats = T.RunningStats(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
    check_grads(
        lambda: T.tensor_sum(T.mul(T.batch_norm(x, gamma, beta, False, stats), w)),
        [x, gamma, beta], tol=1e-4,
    )


def _norm_cases():
    """(B, C[, D, H, W]) shapes with B 1-3 and C 1-4, 2-d and 5-d."""
    rng = np.random.default_rng(24)
    for B, C, ndim in itertools.product((1, 2, 3), range(1, 5), (2, 5)):
        yield (B, C) + tuple(int(n) for n in rng.integers(1, 4, size=ndim - 2))


# Which of (x, gamma, beta) a batch-norm parity case tracks: all, gamma
# alone, beta alone, the parameters but not the input.
BN_TRACKED = ((True, True, True), (False, True, False), (False, False, True),
              (False, True, True))


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_fused_batch_norm_matches_composite_chain(mode):
    """The single-node batch norm against the primitive chain in ``oracles``:
    outputs and every input, gamma and beta gradient, float64, 1e-12. Each
    case runs with every input tracked, with gamma alone, beta alone and the
    parameters but not the input tracked, untracked leaves getting no
    gradient; and each of those twice: with the output gradient
    C-contiguous, then arriving through a transpose node as a transposed,
    not C-contiguous, view.

    Where few elements share a mean, the training-mode input gradient nearly
    or exactly cancels (two elements standardize to +-1 whatever their
    values), so it is compared relative to the terms it sums,
    |w| * |y scale|, as well as to itself."""
    rng = np.random.default_rng(25)
    for shape in _norm_cases():
        x = rng.normal(2.0, 3.0, size=shape)
        gamma, beta = rng.uniform(0.5, 1.5, size=shape[1]), rng.normal(size=shape[1])
        stats = T.RunningStats(rng.normal(size=shape[1]), rng.uniform(0.5, 2.0, size=shape[1]))
        w = rng.normal(size=shape)
        axes = (0,) + tuple(range(2, len(shape)))
        var = x.var(axis=axes) if mode == "train" else stats.var
        y_scale = gamma.max() / np.sqrt(var.min() + 1e-5)
        floors = [0.0, np.abs(w).max() * y_scale, 0.0, 0.0]
        for tracked, transposed in itertools.product(BN_TRACKED, (False, True)):
            results = []
            for norm in (T.batch_norm, batch_norm_chain):
                ins = [t64(a, on) for a, on in zip((x.copy(), gamma, beta), tracked)]
                y = norm(*ins, mode == "train", stats)
                if transposed:
                    T.backward(T.tensor_sum(T.mul(T.transpose(y), Tensor(w.T))))
                else:
                    T.backward(T.tensor_sum(T.mul(y, Tensor(w))))
                results.append([y.data] + [t.grad for t in ins])
            for got, want, floor, on in zip(*results, floors, (True,) + tracked):
                if not on:
                    assert got is None and want is None, (mode, shape, tracked)
                    continue
                err = np.abs(got - want).max()
                assert err <= 1e-12 * max(np.abs(want).max(), np.abs(got).max(), floor), \
                    (mode, shape, tracked, transposed, err)


@pytest.mark.parametrize("shape, mean", [((16, 8, 8, 9, 8), 2.0), ((2, 4, 32, 36, 32), 2.0),
                                         ((16, 8, 8, 9, 8), 50.0),
                                         ((16, 2, 32, 36, 32), 50.0),
                                         ((2, 4, 32, 36, 32), 50.0),
                                         ((2, 4, 32, 36, 32), 100.0)])
def test_float32_batch_norm_training_tracks_float64(shape, mean):
    """Training-mode batch norm in float32 against float64: output, input,
    gamma and beta gradients and running statistics, each within 1e-5 of the
    largest float64 magnitude. (16, 8, 8, 9, 8) is desk stage 1 at B=16;
    (2, 4, 32, 36, 32) sums 73,728 elements per channel in float32, and
    (16, 2, 32, 36, 32) sums 589,824, the full preset's stage-1 channel
    length at B=16. Inputs are N(mean, 3²): at mean 50 the variance as
    E[x²] − μ² would be off by about 8e-5. Without the residual pass over
    x − μ, the float32 sum's error in μ put gγ of (2, 4, 32, 36, 32) at
    1.4e-5 (mean 50) and 2.3e-5 (mean 100)."""
    rng = np.random.default_rng(27)
    x = rng.normal(mean, 3.0, size=shape)
    gamma, beta = rng.uniform(0.5, 1.5, size=shape[1]), rng.normal(size=shape[1])
    w = rng.normal(size=shape)
    results = []
    for dtype in (np.float32, np.float64):
        stats = T.RunningStats()
        ins = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta)]
        y = T.batch_norm(*ins, True, stats)
        T.backward(T.tensor_sum(T.mul(y, Tensor(w.astype(dtype)))))
        results.append([y.data] + [t.grad for t in ins] + [stats.mean, stats.var])
    for name, got, want in zip(("y", "gx", "ggamma", "gbeta", "mean", "var"), *results):
        err = np.abs(got - want).max()
        assert err <= 1e-5 * np.abs(want).max(), (name, err)


def test_batch_norm_retains_at_most_twice_its_input():
    rng = np.random.default_rng(26)
    x = Tensor(rng.normal(size=(2, 8, 8, 9, 8)).astype(np.float32), requires_grad=True)
    gamma = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
    beta = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = T.batch_norm(x, gamma, beta, training=True)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    # The output plus per-channel vectors; a saved x-hat would be a third copy.
    assert retained <= 2 * x.data.nbytes + 8192, retained


def test_batched_matmul_by_a_matrix_matches_the_unfolded_formula():
    """A batched operand times a 2-D one, folded into one GEMM: output and
    both gradients against numpy's per-batch matmul and the summed per-batch
    weight gradient, float64, 1e-12, for a contiguous and a transposed-view
    batched operand, with each operand untracked in turn."""
    rng = np.random.default_rng(40)
    g = rng.normal(size=(2, 3, 5, 6))
    for a in (rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(2, 3, 4, 5)).swapaxes(-1, -2)):
        b = rng.normal(size=(4, 6))
        want = (np.matmul(a, b), np.matmul(g, b.T), np.einsum("abij,abik->jk", a, g))
        for on_a, on_b in ((True, True), (False, True), (True, False)):
            at, bt = Tensor(a, requires_grad=on_a), Tensor(b, requires_grad=on_b)
            y = T.matmul(at, bt)
            T.backward(T.tensor_sum(T.mul(y, Tensor(g))))
            assert rel_error(y.data, want[0]) < 1e-12
            for t, on, w in ((at, on_a, want[1]), (bt, on_b, want[2])):
                assert (t.grad is None) if not on else rel_error(t.grad, w) < 1e-12


def test_batched_matmul_weight_gradient_forms_no_per_batch_stack():
    """The 2-D operand's gradient is one GEMM over all rows: the backward
    peak stays below the (B, k, n) stack of per-batch products (256 KiB)."""
    rng = np.random.default_rng(41)
    a = Tensor(rng.normal(size=(64, 2, 8)), requires_grad=True)
    b = Tensor(rng.normal(size=(8, 64)), requires_grad=True)
    y = T.tensor_sum(T.matmul(a, b))
    stack = 64 * b.data.nbytes
    tracemalloc.start()
    try:
        T.backward(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack // 2, peak
    np.testing.assert_allclose(b.grad, a.data.sum(axis=(0, 1))[:, None].repeat(64, 1))


SGA_NAMES = ("x", "w_spatial_in", "w_spatial_out", "w_channel_in", "w_channel_out")
DGA_NAMES = ("x", "pos_embed", "qkv", "out_proj", "ff_w_in", "ff_b_in", "ff_w_out", "ff_b_out")


def _assert_node_matches_chain(node, chain, names, arrays, g, tracked):
    """Run ``node`` and ``chain`` on fresh float64 leaves built from
    ``arrays``, the first one (B, C, N) tokens, which ``chain`` takes as
    their (B, N, C) transpose and transposes its output back, each leaf
    tracked only if its name is in ``tracked``. The outputs and the tracked
    leaves' gradients agree to 1e-12, the untracked ones get none, and
    ``count_ops`` units are equal."""
    def swapped_chain(x, w):
        return T.transpose(chain(T.transpose(x, (0, 2, 1)), w), (0, 2, 1))

    results = []
    for fn in (node, swapped_chain):
        leaves = [t64(arrays[n], requires_grad=n in tracked) for n in names]
        with T.count_ops() as ops:
            y = fn(leaves[0], leaves[1:])
        if y.requires_grad:
            T.backward(T.tensor_sum(T.mul(y, Tensor(g))))
        results.append(([y.data] + [t.grad for t in leaves], ops.macs))
    (got, got_macs), (want, want_macs) = results
    assert got_macs == want_macs
    for name, a, b in zip(("y",) + names, got, want):
        if name != "y" and name not in tracked:
            assert a is None and b is None, (tracked, name)
        else:
            assert rel_error(a, b) < 1e-12, (tracked, name)


def test_token_channel_mixing_matches_the_chain():
    """The SGA block node against ``oracles.sga_chain``, two residual MLP
    chains over transposes, over (B, C, N) tokens: with every input
    tracked and with x (as in an eval forward from an untracked volume),
    each weight, all weights (as in ``grad_cam``), the token stage (so the
    token-mixed tokens are untracked) or all but the last weight
    untracked."""
    rng = np.random.default_rng(42)
    B, N, C, hs, hc = 3, 4, 5, 7, 6
    shapes = ((B, C, N), (hs, N), (N, hs), (hc, C), (C, hc))
    arrays = {n: rng.normal(size=s) for n, s in zip(SGA_NAMES, shapes)}
    g = rng.normal(size=(B, C, N))
    weights = SGA_NAMES[1:]
    for untracked in ((), ("x",), *((w,) for w in weights), weights, SGA_NAMES[:3],
                      SGA_NAMES[:4]):
        _assert_node_matches_chain(
            lambda x, w: T.token_channel_mixing(x, *w),
            lambda x, w: sga_chain(SimpleNamespace(**dict(zip(weights, w))), x),
            SGA_NAMES, arrays, g, set(SGA_NAMES) - set(untracked))


def test_attention_block_matches_the_chain():
    """The DGA block node against ``oracles.dga_chain``, z0 = x + pos, then
    z0 + ``msa_chain``(z0), then a residual MLP chain, for B = 1 and 3 over
    (B, C, N) tokens x: with everything tracked, x alone (as ``grad_cam``
    runs), the weights alone, only out_proj, only the output bias, only the
    feed-forward's input bias, or pos and qkv."""
    rng = np.random.default_rng(44)
    N, C, heads, H = 5, 6, 3, 8
    weights = DGA_NAMES[1:]
    for batch in (1, 3):
        shapes = ((batch, C, N), (N, C), (C, 3 * C), (C, C), (C, H), (H,), (H, C), (C,))
        arrays = {n: rng.normal(size=s) for n, s in zip(DGA_NAMES, shapes)}
        g = rng.normal(size=(batch, C, N))
        for tracked in (DGA_NAMES, ("x",), weights, ("out_proj",), ("ff_b_out",),
                        ("ff_b_in",), ("pos_embed", "qkv")):
            _assert_node_matches_chain(
                lambda x, w: T.attention_block(x, *w[:3], heads, *w[3:]),
                lambda x, w: dga_chain(SimpleNamespace(heads=heads, **dict(zip(weights, w))),
                                       x),
                DGA_NAMES, arrays, g, tracked)


def test_attention_block_keeps_its_input_not_q_k_v_or_masks():
    """A full-preset stage-3 shape (B=1, 576 tokens, 256 channels, 8 heads,
    feed-forward width 1024), everything tracked: the node retains its
    output alone (x and the weights are the caller's), not z0 or z1, q, k
    and v (0.6 MiB each), the 10 MiB of masks or the hidden layer."""
    rng = np.random.default_rng(45)
    x = Tensor(rng.normal(size=(1, 256, 576)).astype(np.float32), requires_grad=True)
    weights = [Tensor((0.05 * rng.normal(size=s)).astype(np.float32), requires_grad=True)
               for s in ((576, 256), (256, 768), (256, 256), (256, 1024), (1024,),
                         (1024, 256), (256,))]
    # A first, untraced call makes the one-time small allocations a call can
    # make (a few KB, more or less after other tests in the same process),
    # so the traced call measures only what the node keeps.
    T.attention_block(x, *weights[:3], 8, *weights[3:])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = T.attention_block(x, *weights[:3], 8, *weights[3:])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= y.data.nbytes + 4096, retained
    T.backward(T.tensor_sum(y))
    assert all(t.grad is not None for t in [x] + weights)


def test_attention_block_nodes_shape_errors_name_every_shape():
    """Both block nodes refuse operands that do not chain and name each
    operand's shape."""
    x = Tensor(np.zeros((2, 4, 3)))
    sga = [Tensor(np.zeros(s)) for s in ((5, 3), (3, 5), (6, 4), (4, 6))]
    for i, bad in ((0, (5, 4)), (1, (3, 6)), (2, (6, 3)), (3, (6, 4))):
        args = sga[:i] + [Tensor(np.zeros(bad))] + sga[i + 1:]
        with pytest.raises(ShapeError, match=r"x \(2, 4, 3\), w_spatial_in .*w_channel_out"):
            T.token_channel_mixing(x, *args)
    dga = [Tensor(np.zeros(s)) for s in ((3, 4), (4, 12), (4, 4), (4, 5), (5,), (5, 4), (4,))]
    for i, bad in ((0, (2, 4)), (1, (4, 8)), (2, (4, 5)), (3, (5, 5)), (4, (4,)),
                   (5, (4, 5)), (6, (5,))):
        args = dga[:i] + [Tensor(np.zeros(bad))] + dga[i + 1:]
        with pytest.raises(ShapeError, match=r"x \(2, 4, 3\), pos .*ff_b_out"):
            T.attention_block(x, *args[:3], 2, *args[3:])
    for heads in (0, 3):
        with pytest.raises(ShapeError, match=f"{heads} heads"):
            T.attention_block(x, *dga[:3], heads, *dga[3:])


def test_residual_mlp_keeps_its_input_not_its_hidden_layer():
    """The SGA block node's two residual MLPs, hidden layers 4x wider than
    their inputs, everything tracked: the graph retains the output alone
    (x and the weights are the caller's), not either hidden layer or the
    token-mixed tokens."""
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(2, 16, 64)).astype(np.float32), requires_grad=True)
    weights = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
               for s in ((256, 64), (64, 256), (64, 16), (16, 64))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = T.token_channel_mixing(x, *weights)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= y.data.nbytes + 4096, retained
    T.backward(T.tensor_sum(y))
    assert all(t.grad is not None for t in [x] + weights)


def test_residual_mlp_shape_errors_name_every_shape():
    """A residual-MLP operand that does not chain, in either block node, is
    refused with a message naming every operand's shape, the bad one
    included."""
    x = Tensor(np.zeros((2, 4, 3)))
    sga = [Tensor(np.zeros(s)) for s in ((5, 3), (3, 5), (6, 4), (4, 6))]
    for i, bad in ((0, (5, 2)), (1, (2, 5)), (2, (6, 5)), (3, (5, 6))):
        args = sga[:i] + [Tensor(np.zeros(bad))] + sga[i + 1:]
        shapes = [a.data.shape for a in args]
        with pytest.raises(ShapeError, match=re.escape(
                "w_spatial_in {}, w_spatial_out {}, w_channel_in {} and "
                "w_channel_out {}".format(*shapes))):
            T.token_channel_mixing(x, *args)
    attention = [Tensor(np.zeros(s)) for s in ((3, 4), (4, 12), (4, 4))]
    ff = [Tensor(np.zeros(s)) for s in ((4, 5), (5,), (5, 4), (4,))]
    for i, bad in ((0, (3, 5)), (1, (6,)), (2, (4, 4)), (3, (5,))):
        args = ff[:i] + [Tensor(np.zeros(bad))] + ff[i + 1:]
        shapes = [a.data.shape for a in args]
        with pytest.raises(ShapeError, match=re.escape(
                "ff_w_in {}, ff_b_in {}, ff_w_out {} and ff_b_out {}".format(*shapes))):
            T.attention_block(x, *attention, 2, *args)


def test_residual_attention_shape_errors_name_every_shape():
    """The DGA block node refuses an unbatched x and attention operands that
    do not chain, naming x, qkv, out_proj and the head count."""
    x, pos, w, o = (Tensor(np.zeros(s)) for s in ((2, 4, 3), (3, 4), (4, 12), (4, 4)))
    ff = [Tensor(np.zeros(s)) for s in ((4, 5), (5,), (5, 4), (4,))]
    for args in ((Tensor(np.zeros((4, 3))), pos, w, o, 2), (x, pos, o, o, 2),
                 (x, pos, w, w, 2), (x, pos, w, o, 3), (x, pos, w, o, 0)):
        with pytest.raises(ShapeError, match=r"x \(.*qkv \(.*out_proj \(.*heads"):
            T.attention_block(*args, *ff)


# Which of (gamma, beta, kernel) a case with the input untracked tracks:
# gamma alone, beta alone, the kernel alone, all three.
BN_CONV_PARAMS = ((True, False, False), (False, True, False), (False, False, True),
                  (True, True, True))


@pytest.mark.parametrize("mode", ["train", "eval", "grad_cam"])
def test_bn_relu_conv3d_matches_the_chain(mode, conv_gather):
    """The single node against ``bn_relu_conv_chain``, on both conv gather
    paths: in training and in evaluation mode with every input tracked,
    with gamma alone, beta alone, the kernel alone and the parameters but
    not the input tracked, and in evaluation mode with only the input
    tracked, as ``grad_cam`` runs. The float32 output and running stats
    equal the chain's bit for bit; in float64 so do the output and stats,
    the tracked leaves' gradients agree to 1e-12, the untracked ones get
    none, and ``count_ops`` matches."""
    rng = np.random.default_rng(46)
    arrays = [rng.normal(0.5, 2.0, size=(2, 3, 4, 5, 4)), rng.uniform(0.5, 1.5, size=3),
              rng.normal(size=3), rng.normal(size=(4, 3, 3, 3, 3))]
    mean, var = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    g = rng.normal(size=(2, 4, 4, 5, 4))
    training = mode == "train"
    cases = ([(True, False, False, False)] if mode == "grad_cam"
             else [(True,) * 4] + [(False, *on) for on in BN_CONV_PARAMS])
    for tracked, dtype in itertools.product(cases, (np.float32, np.float64)):
        results = []
        for fn in (T.bn_relu_conv3d, bn_relu_conv_chain):
            leaves = [Tensor(a.astype(dtype), requires_grad=on)
                      for a, on in zip(arrays, tracked)]
            stats = (T.RunningStats() if training
                     else T.RunningStats(mean.copy(), var.copy()))
            with T.count_ops() as ops:
                y = fn(*leaves, training, stats, stride=1, pad=1)
            if dtype == np.float64:
                T.backward(T.tensor_sum(T.mul(y, Tensor(g))))
            results.append(([y.data, stats.mean, stats.var], [t.grad for t in leaves],
                            ops.macs))
        (got, got_grads, got_macs), (want, want_grads, want_macs) = results
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert got_macs == want_macs
        for name, a, b, on in zip(("x", "gamma", "beta", "kernel"), got_grads, want_grads,
                                  tracked):
            if dtype == np.float32 or not on:
                assert a is None and b is None, (mode, tracked, name)
            else:
                assert rel_error(a, b) < 1e-12, (mode, tracked, name)


def test_bn_relu_conv3d_shape_error_leaves_the_stats_alone():
    """A kernel that does not fit raises ``ShapeError`` and leaves the
    running stats as they were."""
    stats = T.RunningStats()
    x, gamma, beta = Tensor(np.ones((1, 2, 3, 3, 3))), Tensor(np.ones(2)), Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match="channels"):
        T.bn_relu_conv3d(x, gamma, beta, Tensor(np.ones((2, 3, 3, 3, 3))), True, stats)
    assert not stats.initialized()


GRAD_CONV3D_CASES = [
    pytest.param((1, 2, 4, 5, 4), 1, 2, 0, id="k1-s2-p0"),  # projection shortcut
    pytest.param((1, 2, 5, 6, 4), 7, 2, 3, id="k7-s2-p3"),  # stem
    # (D + 2p - k) % stride != 0 on D and W: the last padded face is never read
    pytest.param((1, 2, 4, 5, 4), 3, 2, 1, id="k3-s2-p1"),
    pytest.param((1, 2, 3, 4, 3), 1, 1, 1, id="k1-s1-p1"),  # pad > k - 1
]


@pytest.mark.parametrize("shape,k,stride,pad", GRAD_CONV3D_CASES)
def test_grad_conv3d(shape, k, stride, pad):
    rng = np.random.default_rng(12)
    x = t64(rng.normal(size=shape))
    w = t64(rng.normal(size=(3, shape[1], k, k, k)))
    m = Tensor(rng.normal(size=T.conv3d(x, w, stride, pad).shape))
    check_grads(lambda: T.tensor_sum(T.mul(T.conv3d(x, w, stride=stride, pad=pad), m)),
                [x, w], tol=1e-4)


def test_grad_conv3d_batched():
    rng = np.random.default_rng(13)
    x = t64(rng.normal(size=(2, 2, 4, 4, 4)))
    w = t64(rng.normal(size=(2, 2, 3, 3, 3)))
    m = Tensor(rng.normal(size=(2, 2, 4, 4, 4)))
    check_grads(lambda: T.tensor_sum(T.mul(T.conv3d(x, w, 1, 1), m)), [x, w], tol=1e-4)


def _conv3d_geometries(per_combo: int = 5):
    """Random conv3d shapes: every (k, stride, pad) with k 1-4, stride 1-3 and
    pad 0-3, ``per_combo`` times each, with B 1-2 and per-axis extents (and
    kernel sizes on the other two axes) drawn at random."""
    rng = np.random.default_rng(20)
    for k, stride, pad in itertools.product(range(1, 5), range(1, 4), range(4)):
        for _ in range(per_combo):
            ks = (k,) + tuple(int(v) for v in rng.integers(1, 5, size=2))
            ext = tuple(int(rng.integers(max(1, kk - 2 * pad), max(1, kk - 2 * pad) + 5))
                        for kk in ks)
            B, C, Co = (int(v) for v in rng.integers(1, 3, size=3))
            yield (B, C) + ext, (Co, C) + ks, stride, pad


def test_conv3d_adjoint_fuzz():
    """<g, y> = <dx, x> = <dw, w> for the bilinear map y = conv3d(x, w), and
    y matches the loop oracle, over 240 random float64 geometries."""
    rng = np.random.default_rng(21)
    geometries = list(_conv3d_geometries())
    assert len(geometries) >= 200
    assert any((n + 2 * pad - k) % stride
               for xs, ws, stride, pad in geometries for n, k in zip(xs[2:], ws[2:]))
    assert any(pad > min(ws[2:]) - 1 for _, ws, _, pad in geometries)
    for xs, ws, stride, pad in geometries:
        x, w = t64(rng.normal(size=xs)), t64(rng.normal(size=ws))
        y = T.conv3d(x, w, stride, pad)
        want = np.stack([conv3d_loops(xb, w.data, stride, pad) for xb in x.data])
        assert y.shape == want.shape
        assert rel_error(y.data, want) < 1e-12, (xs, ws, stride, pad)
        g = rng.normal(size=y.shape)
        T.backward(T.tensor_sum(T.mul(y, Tensor(g))))
        pairing = np.vdot(g, y.data)
        for grad, value in ((x.grad, x.data), (w.grad, w.data)):
            scale = max(np.abs(g * y.data).sum(), np.abs(grad * value).sum())
            assert abs(np.vdot(grad, value) - pairing) <= 1e-10 * scale, (xs, ws, stride, pad)


BATCH_CONV3D_CASES = [
    pytest.param(7, 2, 3, id="k7-s2-p3"),
    pytest.param(3, 1, 1, id="k3-s1-p1"),
    pytest.param(3, 2, 1, id="k3-s2-p1"),
    pytest.param(1, 2, 0, id="k1-s2-p0"),
]


@pytest.mark.parametrize("k,stride,pad", BATCH_CONV3D_CASES)
def test_conv3d_batch_entries_are_independent(k, stride, pad):
    """At B=5, unlike every extent and channel count here, so that mixing the
    batch axis with another axis shows: each sample's output and input
    gradient equal its own B=1 results, and the kernel gradient is their sum."""
    rng = np.random.default_rng(23)
    x = t64(rng.normal(size=(5, 2, 6, 7, 4)))
    w = t64(rng.normal(size=(3, 2, k, k, k)))
    y = T.conv3d(x, w, stride, pad)
    g = rng.normal(size=y.shape)
    T.backward(T.tensor_sum(T.mul(y, Tensor(g))))
    dw = np.zeros_like(w.data)
    for b in range(5):
        xb, wb = t64(x.data[b:b + 1]), t64(w.data)
        yb = T.conv3d(xb, wb, stride, pad)
        T.backward(T.tensor_sum(T.mul(yb, Tensor(g[b:b + 1]))))
        assert rel_error(y.data[b], yb.data[0]) < 1e-12, b
        assert rel_error(x.grad[b], xb.grad[0]) < 1e-12, b
        dw += wb.grad
    assert rel_error(w.grad, dw) < 1e-12


def test_conv3d_retains_only_its_output():
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(2, 8, 8, 9, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8, 3, 3, 3)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = T.conv3d(x, w, 1, 1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    # A patch matrix saved for backward would hold 27 copies of the input.
    assert retained <= y.data.nbytes + 8192, retained


# ---------------------------------------------------------------------------
# axis arguments against numpy


def _np_mean(x, axis, keepdims):
    # numpy's mean counts its items before it sums and reads a bool axis as
    # an int there, so True on a 1-d array is an AxisError; the sum, like
    # every other numpy reduction, raises TypeError for any bool axis.
    x.sum(axis=axis)
    return x.mean(axis=axis, keepdims=keepdims)


def _np_softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _np_log_softmax(x, axis):
    c = x - x.max(axis=axis, keepdims=True)
    return c - np.log(np.exp(c).sum(axis=axis, keepdims=True))


def _np_narrow(x, axis, start, length):
    """``narrow``'s own rule: it has no numpy call that checks its axis."""
    if not -x.ndim <= axis < x.ndim or start < 0 or length < 0 or start + length > x.shape[axis]:
        raise ShapeError("narrow")
    return np.take(x, np.arange(start, start + length), axis=int(axis))


_INT_AXIS = st.one_of(st.integers(-6, 6), st.integers(-6, 6).map(np.int64), st.booleans())


def _axes(ndim, none=False):
    """An int, numpy integer or bool axis in -6..6, a tuple of ints there, or
    a permutation of the ``ndim`` axes, each counted from either end; or None."""
    permutation = st.tuples(st.permutations(range(ndim)), st.lists(
        st.booleans(), min_size=ndim, max_size=ndim)).map(
        lambda pn: tuple(a - ndim * neg for a, neg in zip(*pn)))
    axes = _INT_AXIS | st.lists(st.integers(-6, 6), max_size=4).map(tuple) | permutation
    return axes | st.none() if none else axes


def _axes_or_none(ndim):
    return _axes(ndim, none=True)


_KEEPDIMS = st.tuples(st.booleans())
# name: (tensor op, numpy counterpart, axis strategy for an input rank,
# strategy of the arguments after the axis, forward compared byte for byte)
_AXIS_OPS = {
    "tensor_sum": (T.tensor_sum, lambda x, axis, keep: x.sum(axis=axis, keepdims=keep),
                   _axes_or_none, _KEEPDIMS, True),
    "mean": (T.mean, _np_mean, _axes_or_none, _KEEPDIMS, False),
    "transpose": (T.transpose, lambda x, axes: x.transpose(axes), _axes_or_none,
                  st.just(()), True),
    "reshape": (T.reshape, lambda x, shape: x.reshape(shape), _axes, st.just(()), True),
    "concat": (lambda x, axis: T.concat([x, x], axis), lambda x, axis: np.concatenate([x, x], axis),
               _axes_or_none, st.just(()), True),
    "softmax": (T.softmax, _np_softmax, _axes, st.just(()), False),
    "log_softmax": (T.log_softmax, _np_log_softmax, _axes, st.just(()), False),
    "narrow": (T.narrow, _np_narrow, lambda ndim: _INT_AXIS,
               st.tuples(st.integers(-1, 4), st.integers(-1, 4)), True),
}


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.data())
def test_axis_arguments_follow_numpy(data):
    """Each op refuses exactly when its numpy counterpart does, with the same
    exception class, and its accepted forward is numpy's; ``narrow`` refuses
    with ``ShapeError`` an axis outside [-ndim, ndim) or a slice outside the
    extent. Small accepted cases also check their gradient."""
    name = data.draw(st.sampled_from(sorted(_AXIS_OPS)), label="op")
    ours, theirs, axes, rest, exact = _AXIS_OPS[name]
    shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="shape")
    axis = data.draw(axes(len(shape)), label="axis")
    args = data.draw(rest, label="args")
    rng = np.random.default_rng(len(shape))
    x = rng.normal(size=shape)
    try:
        want = theirs(x, axis, *args)
    except Exception as err:
        with pytest.raises(Exception) as refused:
            ours(t64(x), axis, *args)
        assert type(refused.value) is type(err), (refused.value, err)
        return
    got = ours(t64(x), axis, *args).data
    assert got.shape == want.shape and got.dtype == want.dtype
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    if x.size <= 12:
        xt, w = t64(x), rng.normal(size=want.shape)
        check_grads(lambda: T.tensor_sum(T.mul(ours(xt, axis, *args), w)), [xt])


# ---------------------------------------------------------------------------
# conv3d against the nested-loop oracle


ORACLE_CONV3D_CASES = [
    ((1, 4, 4, 4), 2, 3, 1, 1),
    ((2, 8, 8, 8), 3, 3, 2, 1),
    ((2, 5, 6, 7), 2, 1, 1, 0),
    ((1, 8, 8, 8), 2, 7, 2, 3),
    ((2, 7, 8, 6), 4, 3, 2, 1),
    ((2, 8, 7, 8), 1, 3, 1, 0),
]


@pytest.mark.parametrize("shape,kout,k,stride,pad", ORACLE_CONV3D_CASES)
def test_conv3d_matches_loop_oracle(shape, kout, k, stride, pad):
    rng = np.random.default_rng(hash((shape, kout, k, stride, pad)) % 2**32)
    x = rng.normal(size=shape)
    w = rng.normal(size=(kout, shape[0], k, k, k))
    got = T.conv3d(Tensor(x[None], dtype=np.float64), Tensor(w, dtype=np.float64), stride, pad)
    want = conv3d_loops(x, w, stride, pad)
    assert got.data[0].shape == want.shape
    assert rel_error(got.data[0], want) < 1e-6


def test_conv3d_ceil_output_extents():
    # Same-padded stride-2 convs halve extents with ceiling rounding.
    for extent, want in [(9, 5), (5, 3), (2, 1), (16, 8), (18, 9)]:
        x = Tensor(np.zeros((1, 1, extent, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((1, 1, 3, 3, 3), dtype=np.float32))
        out = T.conv3d(x, w, stride=2, pad=1)
        assert out.shape[2] == want
    x = Tensor(np.zeros((1, 1, 64, 72, 64), dtype=np.float32))
    w = Tensor(np.zeros((2, 1, 7, 7, 7), dtype=np.float32))
    assert T.conv3d(x, w, stride=2, pad=3).shape == (1, 2, 32, 36, 32)


def test_conv3d_channel_mismatch_names_shapes():
    x = Tensor(np.zeros((1, 2, 4, 4, 4)))
    w = Tensor(np.zeros((1, 3, 3, 3, 3)))
    with pytest.raises(ShapeError) as exc:
        T.conv3d(x, w, 1, 1)
    assert "(1, 2, 4, 4, 4)" in str(exc.value) and "(1, 3, 3, 3, 3)" in str(exc.value)


def test_conv3d_kernel_exceeds_padded_input():
    x = Tensor(np.zeros((1, 1, 2, 2, 2)))
    w = Tensor(np.zeros((1, 1, 7, 7, 7)))
    with pytest.raises(ShapeError):
        T.conv3d(x, w, 1, 1)


def test_conv3d_checks_hold_with_one_plane_chunks(monkeypatch):
    """At the real budget every geometry above fits in one chunk. With the
    budget set to one output depth plane of each gather, each chunk is a
    single plane, so the adjoint fuzz, the finite-difference, oracle and
    batch-independence checks rerun, at their own tolerances, over the
    multi-chunk path."""
    monkeypatch.setattr(T, "_INDEX_ENTRIES", 0)  # every conv on the chunk path
    real, chunks = T._patch_chunks, []

    def counted(src, corner, kernel_shape, out, stride):
        plane = src.shape[0] * math.prod(kernel_shape) * out[1] * out[2] * src.shape[4]
        monkeypatch.setattr(T, "_PATCH_BYTES", plane * src.itemsize)
        n = 0
        for chunk in real(src, corner, kernel_shape, out, stride):
            n += 1
            yield chunk
        assert n == out[0]
        chunks.append(n)

    monkeypatch.setattr(T, "_patch_chunks", counted)
    test_conv3d_adjoint_fuzz()
    for case in GRAD_CONV3D_CASES:
        test_grad_conv3d(*case.values)
    for case in BATCH_CONV3D_CASES:
        test_conv3d_batch_entries_are_independent(*case.values)
    for case in ORACLE_CONV3D_CASES:
        test_conv3d_matches_loop_oracle(*case)
    assert sum(n >= 2 for n in chunks) > len(chunks) / 2, chunks


@pytest.mark.parametrize("B", [1, 2])
@pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 2, 0), (2, 1, 0)])
def test_conv3d_row_chunks_stay_within_the_budget(monkeypatch, B, k, stride, pad):
    """Where one output plane exceeds ``_PATCH_BYTES`` and one output row
    fits, every patch block is within the budget: runs of whole rows of one
    plane. Outputs and both gradients equal the one-chunk path to 1e-12 in
    float64."""
    monkeypatch.setattr(T, "_INDEX_ENTRIES", 0)  # every conv on the chunk path
    rng = np.random.default_rng(26)
    xs, ws = rng.normal(size=(B, 3, 6, 7, 5)), rng.normal(size=(4, 3, k, k, k))
    g = rng.normal(size=T.conv3d(Tensor(xs), Tensor(ws), stride, pad).shape)

    def run():
        x, w = t64(xs), t64(ws)
        y = T.conv3d(x, w, stride, pad)
        T.backward(T.tensor_sum(T.mul(y, Tensor(g))))
        return y.data, x.grad, w.grad

    whole = run()
    budget = 2 * 3 * k ** 3 * g.shape[-1] * B * 8  # two rows of the forward's patch matrix
    monkeypatch.setattr(T, "_PATCH_BYTES", budget)
    real, split = T._patch_chunks, []

    def checked(src, corner, kernel_shape, out, s):
        row = src.shape[0] * math.prod(kernel_shape) * out[2] * src.shape[4] * src.itemsize
        assert row <= budget  # one output row fits, so no block may exceed the budget
        n = 0
        for c0, c1, region, col in real(src, corner, kernel_shape, out, s):
            assert col.nbytes <= budget, (col.nbytes, budget)
            n += 1
            yield c0, c1, region, col
        split.append(row * out[1] > budget and n > out[0])

    monkeypatch.setattr(T, "_patch_chunks", checked)
    rows = run()
    assert any(split)
    for got, want in zip(rows, whole):
        assert rel_error(got, want) < 1e-12


GATHER_CASES = [(3, 1, 1, 1), (3, 2, 1, 8)]  # k, stride, pad, residue classes


@pytest.mark.parametrize("k,stride,pad,classes", GATHER_CASES, ids=["k3-s1-p1", "k3-s2-p1"])
def test_conv3d_backward_gathers_once_per_residue_class(monkeypatch, k, stride, pad, classes):
    """With the input tracked, backward gathers output-gradient patches once
    per residue class, and each gather feeds the input gradient and, with
    the kernel tracked too, the kernel gradient; only an untracked input
    makes backward gather input patches instead, once. C_in = 2 and
    C_out = 3 tell the gathered arrays apart. The three paths agree to
    1e-12 in float64."""
    monkeypatch.setattr(T, "_INDEX_ENTRIES", 0)  # every conv on the chunk path
    rng = np.random.default_rng(33)
    xs, ws = rng.normal(size=(2, 2, 6, 7, 5)), rng.normal(size=(3, 2, k, k, k))
    g = rng.normal(size=T.conv3d(Tensor(xs), Tensor(ws), stride, pad).shape)
    real, gathered = T._patch_chunks, []

    def counted(src, corner, kernel_shape, out, s):
        gathered.append(src.shape[0])
        return real(src, corner, kernel_shape, out, s)

    monkeypatch.setattr(T, "_patch_chunks", counted)
    grads = {}
    for name, x_tracked, w_tracked in [("both", True, True), ("kernel", False, True),
                                       ("input", True, False)]:
        x, w = t64(xs, x_tracked), t64(ws, w_tracked)
        y = T.conv3d(x, w, stride, pad)
        gathered.clear()
        T.backward(T.tensor_sum(T.mul(y, Tensor(g))))
        grads[name] = x.grad, w.grad
        want = [2] if name == "kernel" else [3] * classes
        assert gathered == want, (name, gathered)
    np.testing.assert_array_equal(grads["input"][0], grads["both"][0])
    assert rel_error(grads["kernel"][1], grads["both"][1]) < 1e-12


def test_conv3d_split_gemms_stay_exact(monkeypatch):
    """With the GEMM budget cut to 1500 multiply-adds and blocks of at
    least 5 columns, chunks split into several GEMMs in the forward, the
    input gradient and the kernel gradient, some blocks ending inside an
    output row, while wider operands stay one GEMM. The adjoint fuzz, the
    batch-independence checks and the one-gather checks rerun, at their own
    tolerances, over the split path."""
    monkeypatch.setattr(T, "_GEMM_MACS", 1500)
    monkeypatch.setattr(T, "_GEMM_MIN_COLS", 5)
    monkeypatch.setattr(T, "_INDEX_ENTRIES", 0)  # every conv on the chunk path
    real_chunks, real_blocks, real_sum, real_backward = (
        T._patch_chunks, T._matmul_blocks, T._matmul_sum, T.backward)
    state = {"direction": "forward", "row": 0}
    gemms = []  # (direction, columns, width, output row length)

    def chunks(src, corner, kernel_shape, out, s):
        for chunk in real_chunks(src, corner, kernel_shape, out, s):
            state["row"] = out[2] * src.shape[4]
            yield chunk

    def blocks(a, col, out, width):
        gemms.append((state["direction"], col.shape[1], width, state["row"]))
        real_blocks(a, col, out, width)

    def summed(col, rows, acc, width):
        gemms.append(("kernel", col.shape[1], width, state["row"]))
        real_sum(col, rows, acc, width)

    def backward(loss):
        state["direction"] = "input"
        try:
            real_backward(loss)
        finally:
            state["direction"] = "forward"

    for name, fn in [("_patch_chunks", chunks), ("_matmul_blocks", blocks),
                     ("_matmul_sum", summed), ("backward", backward)]:
        monkeypatch.setattr(T, name, fn)
    test_conv3d_adjoint_fuzz()
    for case in BATCH_CONV3D_CASES:
        test_conv3d_batch_entries_are_independent(*case.values)
    for case in GATHER_CASES:
        test_conv3d_backward_gathers_once_per_residue_class(monkeypatch, *case)
    split = [(d, n, width, row) for d, n, width, row in gemms if 0 < width < n]
    assert {d for d, *_ in split} == {"forward", "input", "kernel"}
    assert any(width % row for *_, width, row in split)  # a block ends mid-row
    assert {d for d, _, width, _ in gemms if not width} >= {"forward", "input", "kernel"}
    assert sum(-(-n // width) for _, n, width, _ in split) > 2 * len(split)


def test_short_run_gather_matches_the_direct_gather(monkeypatch):
    """Stride-1 patches gathered through tap-shifted copies of the input
    are the same bytes as patches gathered straight from the window: over
    the fuzz geometries, outputs and both gradients are equal with the
    copies used wherever they apply and with them never used."""
    real = np.copyto
    monkeypatch.setattr(T, "_INDEX_ENTRIES", 0)  # every conv on the chunk path

    def run(limit):
        monkeypatch.setattr(T, "_SHORT_RUN_BYTES", limit)
        calls = []
        monkeypatch.setattr(np, "copyto", lambda *a, **k: calls.append(1) or real(*a, **k))
        rng = np.random.default_rng(32)
        results = []
        for xs, ws, stride, pad in _conv3d_geometries(2):
            x, w = t64(rng.normal(size=xs)), t64(rng.normal(size=ws))
            y = T.conv3d(x, w, stride, pad)
            T.backward(T.tensor_sum(T.mul(y, Tensor(rng.normal(size=y.shape)))))
            results.append((y.data, x.grad, w.grad))
        return results, len(calls)

    shifted, shifted_copies = run(1 << 30)
    direct, direct_copies = run(0)
    assert shifted_copies > direct_copies  # the copies were made
    for got, want in zip(shifted, direct):
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_patch_windows_are_read_only(monkeypatch):
    """Every window that ``_patch_chunks`` copies from, in the forward and
    in both gradients, is a read-only view."""
    monkeypatch.setattr(T, "_INDEX_ENTRIES", 0)  # every conv on the chunk path
    rng = np.random.default_rng(30)
    sources, real = [], np.copyto

    def spy(dst, src, *args, **kwargs):
        sources.append(src)
        return real(dst, src, *args, **kwargs)

    monkeypatch.setattr(np, "copyto", spy)
    x = t64(rng.normal(size=(2, 2, 5, 4, 3)))
    w = t64(rng.normal(size=(3, 2, 3, 3, 3)))
    T.backward(T.tensor_sum(T.conv3d(x, w, 2, 1)))
    assert len(sources) > 3
    for window in sources:
        assert not window.flags.writeable
        with pytest.raises(ValueError):
            window[...] = 0.0


def test_conv3d_transients_stay_within_the_patch_budget():
    """A (16, 8, 8, 9, 8) input with a 3x3x3 kernel has a 7.6 MiB patch
    matrix. Above what each direction returns (the output; the two
    gradients, plus the upstream gradient the caller holds), the tracemalloc
    peak stays within 3 * _PATCH_BYTES: one patch buffer, the padded
    batch-last copy and the output- or gradient-sized temporaries, about
    1.5 MiB here. A whole patch matrix alone would exceed it."""
    rng = np.random.default_rng(24)
    x = Tensor(rng.normal(size=(16, 8, 8, 9, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8, 3, 3, 3)).astype(np.float32), requires_grad=True)
    g = Tensor(rng.normal(size=x.shape).astype(np.float32))
    patch_matrix_bytes = w.data[0].size * x.data[:, 0].nbytes  # K x V*B float32
    assert patch_matrix_bytes > 3 * T._PATCH_BYTES
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = T.conv3d(x, w, 1, 1)
        forward = tracemalloc.get_traced_memory()[1] - base
        loss = T.tensor_sum(T.mul(y, g))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        T.backward(loss)
        backward = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert forward <= y.data.nbytes + 3 * T._PATCH_BYTES, forward
    returned = x.grad.nbytes + w.grad.nbytes + y.grad.nbytes
    assert backward <= returned + 3 * T._PATCH_BYTES, backward


def _count_chunk_gathers(monkeypatch) -> list:
    """Count ``_patch_chunks`` calls from here on: one per chunk-path gather."""
    real, calls = T._patch_chunks, []

    def counted(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(T, "_patch_chunks", counted)
    return calls


def test_conv3d_index_path_matches_the_chunk_path(monkeypatch):
    """The flat-index path (one take forward, one bincount back) and the
    patch chunks compute the same conv. Over a seeded fuzz of k in
    {1, 2, 3, 7}, stride 1-2, pad 0 and k // 2 and B 1-2, with the input and
    the kernel both tracked, the input only and the kernel only, the
    outputs and both gradients agree to 1e-12 in float64."""
    calls = _count_chunk_gathers(monkeypatch)
    rng = np.random.default_rng(34)
    cases = 0
    for k, stride, B in itertools.product([1, 2, 3, 7], [1, 2], [1, 2]):
        for pad in sorted({0, k // 2}):
            ext = tuple(int(rng.integers(max(1, k - 2 * pad), k + 4)) for _ in range(3))
            C, Co = (int(v) for v in rng.integers(1, 4, size=2))
            xs, ws = rng.normal(size=(B, C, *ext)), rng.normal(size=(Co, C, k, k, k))
            g = rng.normal(size=T.conv3d(Tensor(xs), Tensor(ws), stride, pad).shape)
            for x_tracked, w_tracked in [(True, True), (True, False), (False, True)]:
                results = {}
                for path in ("chunk", "index"):
                    monkeypatch.setattr(T, "_indexed", lambda *shape: path == "index")
                    calls.clear()
                    x, w = t64(xs, x_tracked), t64(ws, w_tracked)
                    y = T.conv3d(x, w, stride, pad)
                    T.backward(T.tensor_sum(T.mul(y, Tensor(g))))
                    assert bool(calls) == (path == "chunk"), (path, calls)
                    results[path] = y.data, x.grad, w.grad
                for got, want in zip(results["index"], results["chunk"]):
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert rel_error(got, want) < 1e-12, (k, stride, pad, B, ext)
                cases += 1
    assert cases == 3 * 2 * 2 * 7


def test_conv3d_index_gate_boundary(monkeypatch):
    """A conv takes the flat-index path exactly when its copy runs of Wo*B
    items are at most ``_SHORT_RUN_BYTES`` and its patch matrix has at most
    ``_INDEX_ENTRIES`` entries; otherwise forward and backward gather
    through ``_patch_chunks``. The shapes are float32 with a 1x1x1 kernel,
    so the matrix has C*D*H*W*B entries."""
    assert (T._INDEX_ENTRIES, T._SHORT_RUN_BYTES) == (2 ** 15, 64), "shapes below need updating"
    calls = _count_chunk_gathers(monkeypatch)

    def chunked(shape) -> bool:
        calls.clear()
        x = Tensor(np.ones(shape, np.float32), requires_grad=True)
        w = Tensor(np.ones((2, shape[1], 1, 1, 1), np.float32), requires_grad=True)
        T.backward(T.tensor_sum(T.conv3d(x, w)))
        return bool(calls)

    assert not chunked((1, 2, 32, 32, 16))  # 2**15 entries in runs of 64 bytes
    assert chunked((1, 1, 11, 331, 9))  # 2**15 + 1 entries
    assert chunked((1, 1, 2, 2, 17))  # runs of 68 bytes
    assert not chunked((2, 1, 2, 2, 8))  # runs of 8 voxels times 2 volumes, 64 bytes
    assert chunked((3, 1, 2, 2, 8))  # 96 bytes


def test_patch_index_cache_is_read_only_and_bounded():
    """The cached index arrays cannot be written through, and the cache
    keeps at most ``_INDEX_CACHE`` of them however many shapes pass."""
    T._patch_index.cache_clear()
    w = Tensor(np.ones((1, 1, 1, 1, 1), np.float32))
    for n in range(1, T._INDEX_CACHE + 5):
        T.conv3d(Tensor(np.ones((1, 1, n, 2, 2), np.float32)), w)
    info = T._patch_index.cache_info()
    assert info.maxsize == T._INDEX_CACHE and info.currsize == T._INDEX_CACHE, info
    index = T._patch_index((2, 4, 3, 3, 1), (2, 2, 2), (2, 1, 1), 2)
    assert index.shape == (16, 2)
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 0


@pytest.mark.parametrize("x_tracked,w_tracked", [(True, True), (True, False)],
                         ids=["both", "input"])
def test_conv3d_index_path_retains_what_the_chunk_path_retains(monkeypatch, x_tracked,
                                                                w_tracked):
    """A tracked batch-1 conv keeps the same bytes on both paths: the output
    and the same closure. Measured as the tracemalloc bytes freed when 100
    graphs are dropped, per graph, after warm-up calls have filled the index
    cache. numpy's small-block caches hold a few hundred bytes, which moves
    that by a few bytes per graph; one more array kept would add at least
    its header, about 100 bytes."""
    rng = np.random.default_rng(35)
    xs = rng.normal(size=(1, 64, 2, 3, 2)).astype(np.float32)
    ws = rng.normal(size=(64, 64, 3, 3, 3)).astype(np.float32)
    kept = {}
    for path in ("chunk", "index"):
        monkeypatch.setattr(T, "_indexed", lambda *shape: path == "index")
        x, w = Tensor(xs, requires_grad=x_tracked), Tensor(ws, requires_grad=w_tracked)
        for _ in range(3):
            T.conv3d(x, w, 1, 1)
        gc.collect()
        tracemalloc.start()
        try:
            graphs = [T.conv3d(x, w, 1, 1) for _ in range(100)]
            held = tracemalloc.get_traced_memory()[0]
            del graphs
            gc.collect()
            kept[path] = (held - tracemalloc.get_traced_memory()[0]) / 100
        finally:
            tracemalloc.stop()
    assert kept["chunk"] >= 64 * 12 * 4  # the output, at least
    assert abs(kept["index"] - kept["chunk"]) <= 16, kept


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


# ---------------------------------------------------------------------------
# autodiff mechanics


def test_gradients_accumulate_across_uses():
    x = t64([3.0])
    y = T.add(T.mul(x, x), x)  # d/dx (x^2 + x) = 2x + 1
    T.backward(T.tensor_sum(y))
    assert np.allclose(x.grad, [7.0])


def test_untracked_tensor_never_receives_grad():
    x = t64([1.0, 2.0])
    c = Tensor(np.array([3.0, 4.0]), requires_grad=False)
    T.backward(T.tensor_sum(T.mul(x, c)))
    assert c.grad is None
    assert np.allclose(x.grad, [3.0, 4.0])


def test_node_lists_only_tracked_parents():
    x = t64([1.0, 2.0])
    c = Tensor(np.array([3.0, 4.0]))
    for y in (T.mul(x, c), T.add(c, x), T.add(x, 2.0)):
        assert len(y._parents) == 1 and y._parents[0] is x._tape


@pytest.mark.parametrize("source", ["same-shape", "broadcast-view"])
def test_accumulated_gradient_never_aliases_its_source(source):
    """A gradient stored on first use is a copy: writing into the upstream
    gradient it came from (the same array, or the source of a broadcast
    view) after the sweep leaves ``.grad`` unchanged."""
    x = t64(np.arange(6.0).reshape(2, 3))
    if source == "same-shape":
        mid = T.add(x, Tensor(np.ones((2, 3))))
    else:
        mid = T.tensor_sum(x, 1)
    T.backward(T.tensor_sum(T.mul(mid, Tensor(np.full(mid.shape, 2.0)))))
    want = x.grad.copy()
    np.testing.assert_array_equal(want, np.full((2, 3), 2.0))
    mid.grad[...] = -7.0
    np.testing.assert_array_equal(x.grad, want)


def test_accumulating_a_smaller_gradient_broadcasts_a_copy():
    record = t64(np.zeros((2, 3)))._tape
    g = np.array([1.0, 2.0, 3.0])
    record._accum(g)
    g[...] = -7.0
    np.testing.assert_array_equal(record.grad, [[1.0, 2.0, 3.0]] * 2)
    assert record.grad.flags.writeable and record.grad.dtype == np.float64


def test_a_fresh_first_gradient_is_kept_and_any_other_copied():
    """``fresh`` hands an array over only where it already has the record's
    shape and dtype; a second gradient adds into the first."""
    record = t64(np.zeros((2, 3)))._tape
    g = np.ones((2, 3))
    record._accum(g, fresh=True)
    assert record.grad is g
    record._accum(np.ones((2, 3)), fresh=True)
    assert record.grad is g and np.array_equal(g, np.full((2, 3), 2.0))
    for other in (np.ones((2, 3), np.float32), np.ones(3)):
        record = t64(np.zeros((2, 3)))._tape
        record._accum(other, fresh=True)
        assert record.grad.dtype == np.float64 and record.grad.shape == (2, 3)
        assert not np.shares_memory(record.grad, other)


def _records(root) -> list:
    """Every tape record reachable from ``root``, leaves included."""
    seen, stack = {}, [root]
    while stack:
        record = stack.pop()
        if id(record) not in seen:
            seen[id(record)] = record
            stack.extend(record.parents)
    return list(seen.values())


@pytest.mark.parametrize("training", [True, False])
def test_no_two_gradients_share_memory_after_a_desk_backward(training):
    """A desk B=2 ``forward_trace`` (S-S-D-D) and backward: the gradients
    closures hand over and the ones pass-through nodes copy leave no two
    records' ``.grad`` sharing memory, the held activations' included."""
    rng = np.random.default_rng(46)
    model = BrainFormer(ModelConfig.desk(), seed=0)
    x = Tensor(rng.normal(size=(2, 1, 16, 18, 16)).astype(np.float32))
    if not training:  # running statistics for evaluation mode
        model.forward_logits(x, training=True)
        x.requires_grad = True  # as grad_cam tracks the volume
    logits, trace = model.forward_trace(x, training=training)
    records = _records(logits._tape)
    T.backward(cross_entropy_logits(logits, np.array([0, 1])))
    assert all(t.grad is not None for t in trace.values())
    grads = [r.grad for r in records if r.grad is not None]
    assert len(grads) > 100
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:]), i


def test_item_requires_one_element():
    assert Tensor([[3.5]]).item() == 3.5
    with pytest.raises(ShapeError, match="one-element"):
        Tensor([1.0, 2.0]).item()


def test_backward_frees_each_gradient_after_its_consumers():
    """A chain of 20 nodes over 1 MiB arrays: the sweep's tracemalloc peak
    stays within a few arrays, not one gradient per node."""
    rng = np.random.default_rng(31)
    x = t64(rng.normal(size=(128, 1024)))
    h = x
    for _ in range(20):
        h = T.mul(h, 1.5)
    loss = T.tensor_sum(h)
    del h
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5 * x.data.nbytes, peak / x.data.nbytes


def test_backward_rejects_non_scalar():
    x = t64([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        T.backward(T.mul(x, 2.0))


def test_backward_without_tracked_inputs_is_state_error():
    with pytest.raises(StateError):
        T.backward(T.tensor_sum(Tensor([1.0, 2.0])))


# name -> (call, input shapes, count_ops contraction multiply-adds); inputs are
# drawn in [0.5, 2) so log, sqrt and div stay in their domains.
PRIMITIVES = {
    "add": (T.add, [(2, 3), (2, 3)], 0),
    "sub": (T.sub, [(2, 3), (3,)], 0),
    "mul": (T.mul, [(2, 3), (2, 1)], 0),
    "div": (T.div, [(2, 3), (2, 3)], 0),
    "neg": (T.neg, [(2, 3)], 0),
    "relu": (T.relu, [(2, 3)], 0),
    "exp": (T.exp, [(2, 3)], 0),
    "log": (T.log, [(2, 3)], 0),
    "sqrt": (T.sqrt, [(2, 3)], 0),
    "reshape": (lambda a: T.reshape(a, (3, 2)), [(2, 3)], 0),
    "transpose": (lambda a: T.transpose(a, (1, 0)), [(2, 3)], 0),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(2, 3), (2, 2)], 0),
    "narrow": (lambda a: T.narrow(a, 1, 1, 2), [(2, 3)], 0),
    "select_index": (lambda a: T.select_index(a, [2, 0]), [(2, 3)], 0),
    "tensor_sum": (lambda a: T.tensor_sum(a, 1), [(2, 3)], 0),
    "softmax": (lambda a: T.softmax(a, -1), [(2, 3)], 0),
    "matmul": (T.matmul, [(3, 4), (4, 5)], 3 * 4 * 5),
    "matmul_folded": (T.matmul, [(2, 3, 4), (4, 5)], 2 * 3 * 4 * 5),
    # two residual MLPs of two GEMMs each: 2*B*(C*N*Hs + N*C*Hc)
    "token_channel_mixing": (T.token_channel_mixing,
                             [(2, 4, 3), (5, 3), (3, 5), (6, 4), (4, 6)],
                             2 * 2 * (4 * 3 * 5 + 3 * 4 * 6)),
    # 4*B*N*C^2 (projections), 2*B*N^2*C (scores and weighted sum) and
    # 2*B*N*C*H (feed-forward)
    "attention_block": (lambda x, p, w, o, a, b, c, d: T.attention_block(x, p, w, o, 2,
                                                                         a, b, c, d),
                        [(2, 4, 3), (3, 4), (4, 12), (4, 4), (4, 5), (5,), (5, 4), (4,)],
                        4 * 2 * 3 * 16 + 2 * 2 * 9 * 4 + 2 * 2 * 3 * 4 * 5),
    "conv3d": (lambda x, k: T.conv3d(x, k, 1, 1), [(1, 2, 4, 4, 4), (3, 2, 3, 3, 3)],
               3 * 2 * 27 * 64),
    # the conv's alone
    "bn_relu_conv3d": (lambda x, g, b, k: T.bn_relu_conv3d(x, g, b, k, True, pad=1),
                       [(1, 2, 4, 4, 4), (2,), (2,), (3, 2, 3, 3, 3)],
                       3 * 2 * 27 * 64),
    "batch_norm_train": (lambda x, g, b: T.batch_norm(x, g, b, True),
                         [(2, 3, 2, 2, 2), (3,), (3,)], 0),
    "batch_norm_eval": (lambda x, g, b: T.batch_norm(
        x, g, b, False, T.RunningStats(np.full(3, 1.2), np.full(3, 0.8))),
        [(2, 3, 2, 2, 2), (3,), (3,)], 0),
}


@pytest.mark.parametrize("name", list(PRIMITIVES))
def test_no_grad_suppresses_recording(name):
    call, shapes, units = PRIMITIVES[name]
    rng = np.random.default_rng(15)
    inputs = [t64(rng.uniform(0.5, 2.0, size=s)) for s in shapes]
    with T.count_ops() as recorded:
        y = call(*inputs)
    assert y.requires_grad and y._backward is not None
    assert len(y._parents) == len(inputs)
    assert all(p is t._tape for p, t in zip(y._parents, inputs))
    with T.no_grad(), T.count_ops() as unrecorded:
        z = call(*inputs)
    assert not z.requires_grad and z._backward is None and z._parents == ()
    assert recorded.macs == unrecorded.macs == units
    np.testing.assert_array_equal(z.data, y.data)


def test_finished_graph_is_freed_without_cyclic_gc():
    model = BrainFormer(ModelConfig.desk(), seed=0)
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(2, 1) + model.cfg.input_extent).astype(np.float32))
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        loss = cross_entropy_logits(model.forward_logits(x, training=True),
                                    np.array([0, 1]))
        T.backward(loss)
        del loss
        gc.collect()
        leaked = sum(isinstance(obj, (Tensor, T._Tape)) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == 0, f"{leaked} tensors or tape records were only freed by the cyclic GC"


@pytest.mark.parametrize("name", list(PRIMITIVES))
def test_closures_capture_no_tensor(name):
    """A closure holds parent records and arrays, never a ``Tensor``, so a
    ``Tensor`` (and its data) lives only as long as its caller holds it."""
    call, shapes, _ = PRIMITIVES[name]
    rng = np.random.default_rng(15)
    y = call(*[t64(rng.uniform(0.5, 2.0, size=s)) for s in shapes])
    cells = [c.cell_contents for c in y._backward.__closure__]
    cells += [item for c in cells if isinstance(c, tuple) for item in c]
    assert not any(isinstance(c, Tensor) for c in cells), name
    assert any(isinstance(c, T._Tape) for c in cells), name


def test_relu_keeps_its_output_not_its_input():
    rng = np.random.default_rng(28)
    x = Tensor(rng.normal(size=(2, 3, 2, 2, 2)), requires_grad=True)
    bn = T.batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), True)
    y = T.relu(bn)
    data = weakref.ref(bn.data)
    del bn
    assert data() is None
    T.backward(T.tensor_sum(y))
    assert x.grad is not None and np.all(np.isfinite(x.grad))


def test_desk_training_forward_retains_under_0p6_mib_per_volume():
    """What a B=2 training forward keeps for backward: the arrays the
    backward formulas read (about 0.52 MiB per volume), not every
    intermediate (0.91 MiB)."""
    model = BrainFormer(ModelConfig.desk(), seed=0)
    rng = np.random.default_rng(29)
    x = Tensor(rng.normal(size=(2, 1) + model.cfg.input_extent).astype(np.float32))
    labels = np.array([0, 1])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy_logits(model.forward_logits(x, training=True), labels)
        retained = (tracemalloc.get_traced_memory()[0] - before) / 2 / 2**20
    finally:
        tracemalloc.stop()
    assert retained < 0.6, retained
    T.backward(loss)


def test_second_backward_over_swept_graph_is_state_error():
    x = t64([1.0, 2.0])
    y = T.tensor_sum(T.mul(x, x))
    T.backward(y)
    assert y._backward is not None and y._parents == ()
    with pytest.raises(StateError, match="already consumed"):
        T.backward(y)
    with pytest.raises(StateError, match="already consumed"):
        T.backward(T.mul(y, 2.0))  # a new graph on top of the swept one
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_held_activations_keep_their_grad_after_the_sweep():
    model = BrainFormer(ModelConfig.desk(), seed=0)
    rng = np.random.default_rng(27)
    x = Tensor(rng.normal(size=(2, 1) + model.cfg.input_extent).astype(np.float32))
    logits, trace = model.forward_trace(x, training=True)
    stem = trace["stem"]
    T.backward(cross_entropy_logits(logits, np.array([0, 1])))
    assert stem._parents == ()
    assert stem.grad is not None and stem.grad.shape == stem.shape
    assert np.all(np.isfinite(stem.grad)) and np.any(stem.grad != 0)
    assert logits.grad is not None and logits.grad.shape == logits.shape


def test_backward_visits_shared_subgraph_once():
    x = t64([2.0])
    shared = T.mul(x, x)
    total = T.add(T.tensor_sum(shared), T.tensor_sum(T.mul(shared, 3.0)))
    T.backward(total)
    # d/dx (x^2 + 3x^2) = 8x
    assert np.allclose(x.grad, [16.0])


def test_split_batch_gradients_match_full_batch():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(6, 5)).astype(np.float64)
    w = t64(rng.normal(size=(5, 3)))

    def loss_for(batch):
        return T.tensor_sum(T.relu(T.matmul(Tensor(batch, dtype=np.float64), w)))

    T.zero_grads([w])
    T.backward(loss_for(x))
    full = w.grad.copy()
    T.zero_grads([w])
    T.backward(loss_for(x[:3]))
    T.backward(loss_for(x[3:]))
    assert rel_error(w.grad, full) < 1e-12


def test_dtype_follows_inputs():
    x32 = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    y = T.mul(T.add(x32, 1.0), 0.5)
    assert y.dtype == np.float32
    T.backward(T.tensor_sum(y))
    assert x32.grad.dtype == np.float32
    x64 = t64(np.ones((2, 2)))
    assert T.mul(x64, 2.0).dtype == np.float64


def test_count_ops_matmul_exact():
    a = Tensor(np.zeros((3, 4)))
    b = Tensor(np.zeros((4, 5)))
    with T.count_ops() as ops:
        T.matmul(a, b)
    assert ops.macs == 3 * 4 * 5


# ---------------------------------------------------------------------------
# softmax and batch norm behavior


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(2, 7), st.floats(-30, 30), st.integers(0, 2**31 - 1))
def test_softmax_rows_stochastic_and_shift_invariant(rows, cols, shift, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=(rows, cols))
    p = T.softmax(Tensor(x, dtype=np.float64), -1).data
    assert np.all(p >= 0) and np.all(p <= 1)
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)
    q = T.softmax(Tensor(x + shift, dtype=np.float64), -1).data
    assert np.allclose(p, q, atol=1e-9)


@pytest.mark.parametrize("axis", [-1, 0, 1])
def test_fused_softmax_matches_composite_chain(axis):
    """The single-node softmax against the primitive chain in ``oracles``:
    output and input gradient, float64, 1e-12, over attention-mask-like
    (B, heads, n, n) scores with a wide range of logits."""
    rng = np.random.default_rng(30)
    for shape in [(1, 1, 1, 2), (2, 3, 5, 5), (3, 2, 4, 7)]:
        x = rng.normal(scale=6.0, size=shape)
        w = rng.normal(size=shape)
        results = []
        for softmax in (T.softmax, softmax_chain):
            xt = t64(x.copy())
            y = softmax(xt, axis)
            T.backward(T.tensor_sum(T.mul(y, Tensor(w))))
            results.append((y.data, xt.grad))
        for got, want in zip(*results):
            assert rel_error(got, want) < 1e-12, (shape, axis)


def test_short_row_max_equals_numpy_max_bit_for_bit():
    """``_row_max`` against ``x.max``: last axes of 1-32 entries in arrays
    just below and at or above 4,096 elements (x.max below, the column loop
    above), with a NaN row in each; and the (16, 8, 12, 12) desk mask shape
    by either name of its last axis. A row of signed zeros may peak at
    either zero, which x − max does not see: ``_softmax`` stays bit for
    bit."""
    rng = np.random.default_rng(31)
    cases = [(rng.normal(size=(16, 8, 12, 12)).astype(np.float32), axis) for axis in (-1, 3)]
    for n in range(1, 33):
        for rows in ((T._SHORT_ROW_MIN_SIZE - 1) // n, -(-T._SHORT_ROW_MIN_SIZE // n)):
            x = rng.normal(size=(rows, n)).astype(np.float32)
            x[rows // 2, rng.integers(n)] = np.nan
            x[1] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            cases.append((x, -1))
    sides = set()
    for x, axis in cases:
        got, want = T._row_max(x, axis), x.max(axis=axis, keepdims=True)
        assert got.shape == want.shape and got.dtype == want.dtype
        bits = np.not_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.array_equal(got, want, equal_nan=True) and not np.any(bits & (want != 0))
        softmax = np.exp(x - want)
        softmax /= softmax.sum(axis=axis, keepdims=True)
        assert np.array_equal(T._softmax(x, axis).view(np.uint32), softmax.view(np.uint32))
        sides.add(x.size >= T._SHORT_ROW_MIN_SIZE)
    assert sides == {False, True}


def test_softmax_extreme_logits_stay_normalized():
    x = Tensor(np.array([[1e4, -1e4, 0.0], [-1e4, -1e4, -1e4]], dtype=np.float32))
    p = T.softmax(x, -1).data
    assert np.all(np.isfinite(p))
    assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-6)


def test_batch_norm_standardizes_batch():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(3.0, 2.0, size=(4, 3, 2, 2, 2)).astype(np.float32))
    gamma = Tensor(np.ones(3, dtype=np.float32))
    beta = Tensor(np.zeros(3, dtype=np.float32))
    y = T.batch_norm(x, gamma, beta, training=True).data
    for c in range(3):
        ch = y[:, c]
        assert abs(ch.mean()) < 1e-5
        assert abs(ch.var() - 1.0) < 1e-3


def test_batch_norm_running_stats_and_eval():
    rng = np.random.default_rng(16)
    stats = T.RunningStats()
    gamma = Tensor(np.ones(2, dtype=np.float32))
    beta = Tensor(np.zeros(2, dtype=np.float32))
    x1 = rng.normal(1.0, 1.0, size=(8, 2, 2, 2, 2)).astype(np.float32)
    x2 = rng.normal(2.0, 3.0, size=(8, 2, 2, 2, 2)).astype(np.float32)
    T.batch_norm(Tensor(x1), gamma, beta, True, stats)
    m1 = x1.mean(axis=(0, 2, 3, 4))
    v1 = x1.var(axis=(0, 2, 3, 4))
    assert np.allclose(stats.mean, m1, atol=1e-6)
    assert np.allclose(stats.var, v1, atol=1e-6)
    T.batch_norm(Tensor(x2), gamma, beta, True, stats, momentum=0.1)
    m2 = x2.mean(axis=(0, 2, 3, 4))
    assert np.allclose(stats.mean, 0.9 * m1 + 0.1 * m2, atol=1e-6)
    y = T.batch_norm(Tensor(x2), gamma, beta, False, stats).data
    want = (x2 - stats.mean.reshape(1, 2, 1, 1, 1)) / np.sqrt(
        stats.var.reshape(1, 2, 1, 1, 1) + 1e-5)
    assert np.allclose(y, want, atol=1e-5)


def _eval_bn(fused, x, gamma, beta, kernel, stats):
    """Evaluation-mode ``batch_norm``, or ``bn_relu_conv3d`` with ``kernel``."""
    if fused:
        return T.bn_relu_conv3d(x, gamma, beta, kernel, False, stats, pad=1)
    return T.batch_norm(x, gamma, beta, False, stats)


@pytest.mark.parametrize("fused", [False, True], ids=["batch_norm", "bn_relu_conv3d"])
def test_eval_batch_norm_follows_replaced_running_stats(fused):
    """Evaluation output after ``update``, after an assignment of new arrays
    (as ``load_state`` makes) and after the old arrays are put back (as a
    skipped training batch does): byte-equal to a cold ``RunningStats``
    holding the same arrays, and a call on warm constants to a cold one."""
    rng = np.random.default_rng(41)
    x = Tensor(rng.normal(size=(2, 3, 4, 5, 4)).astype(np.float32))
    gamma = Tensor(rng.uniform(0.5, 1.5, size=3).astype(np.float32))
    beta = Tensor(rng.normal(size=3).astype(np.float32))
    kernel = Tensor(rng.normal(size=(2, 3, 3, 3, 3)).astype(np.float32))
    stats = T.RunningStats(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
    saved = stats.mean, stats.var

    def check():
        got = _eval_bn(fused, x, gamma, beta, kernel, stats).data
        warm = _eval_bn(fused, x, gamma, beta, kernel, stats).data
        cold = _eval_bn(fused, x, gamma, beta, kernel, T.RunningStats(stats.mean, stats.var))
        assert got.tobytes() == warm.tobytes() == cold.data.tobytes()
        return got

    first = check()
    stats.update(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3), 0.5)
    assert not np.array_equal(check(), first)
    stats.mean = rng.normal(size=3)
    stats.var = rng.uniform(0.5, 2.0, size=3)
    assert not np.array_equal(check(), first)
    stats.mean, stats.var = saved
    assert check().tobytes() == first.tobytes()


def _closure_arrays(t: Tensor) -> list:
    return [c.cell_contents for c in t._tape.backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]


@pytest.mark.parametrize("fused", [False, True], ids=["batch_norm", "bn_relu_conv3d"])
@pytest.mark.parametrize("tracked", ["input", "all"])
def test_batch_norm_node_keeps_no_array_of_its_own_but_the_input(fused, tracked):
    """An evaluation node's closure holds, of the arrays its call made, at
    most its input: every other array is a parameter's or a running-stat constant,
    checked by identity. A training node holds its input, μ and inv."""
    rng = np.random.default_rng(42)
    on = tracked == "all"
    x = Tensor(rng.normal(size=(2, 3, 4, 5, 4)).astype(np.float32), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=3).astype(np.float32), requires_grad=on)
    beta = Tensor(rng.normal(size=3).astype(np.float32), requires_grad=on)
    kernel = Tensor(rng.normal(size=(2, 3, 3, 3, 3)).astype(np.float32), requires_grad=on)
    stats = T.RunningStats(rng.normal(size=3), rng.uniform(0.5, 2.0, size=3))
    owned = {id(t.data) for t in (gamma, beta, kernel)}
    owned |= {id(a) for a in stats.eval_constants(1e-5, x.dtype, (1, 3, 1, 1, 1))}
    y = _eval_bn(fused, x, gamma, beta, kernel, stats)
    # batch_norm's node with only the input tracked needs not even that.
    assert all(a is x.data for a in _closure_arrays(y) if id(a) not in owned)
    if fused:
        y = T.bn_relu_conv3d(x, gamma, beta, kernel, True, stats, pad=1)
    else:
        y = T.batch_norm(x, gamma, beta, True, stats)
    made = [a for a in _closure_arrays(y) if id(a) not in owned]
    assert len(made) == 3 and id(x.data) in {id(a) for a in made}
    assert sorted(a.size for a in made) == [3, 3, x.data.size]


def test_batch_norm_eval_without_stats_is_state_error():
    x = Tensor(np.zeros((2, 2, 1, 1, 1)))
    gamma = Tensor(np.ones(2))
    beta = Tensor(np.zeros(2))
    with pytest.raises(StateError):
        T.batch_norm(x, gamma, beta, training=False, stats=T.RunningStats())


def test_cross_entropy_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(17)
    logits = t64(rng.normal(size=(3, 4)))
    labels = np.array([1, 3, 0])
    nll = T.neg(T.select_index(T.log_softmax(logits, -1), labels))
    T.backward(T.tensor_sum(nll))
    p = T.softmax(Tensor(logits.data), -1).data
    onehot = np.zeros((3, 4))
    onehot[np.arange(3), labels] = 1.0
    assert rel_error(logits.grad, p - onehot) < 1e-10
