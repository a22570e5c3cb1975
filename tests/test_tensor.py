"""Tensor core: primitives against finite differences and loop oracles."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import batch_norm_chain, conv3d_loops, numeric_grad, rel_error
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


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_fused_batch_norm_matches_composite_chain(mode):
    """The single-node batch norm against the primitive chain in ``oracles``:
    outputs and every input, gamma and beta gradient, float64, 1e-12.

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
        results = []
        for norm in (T.batch_norm, batch_norm_chain):
            ins = [t64(x.copy()), t64(gamma), t64(beta)]
            y = norm(*ins, mode == "train", stats)
            T.backward(T.tensor_sum(T.mul(y, Tensor(w))))
            results.append([y.data] + [t.grad for t in ins])
        floors = [0.0, np.abs(w).max() * y_scale, 0.0, 0.0]
        for got, want, floor in zip(*results, floors):
            err = np.abs(got - want).max()
            assert err <= 1e-12 * max(np.abs(want).max(), np.abs(got).max(), floor), \
                (mode, shape, err)


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


@pytest.mark.parametrize("shape,k,stride,pad", [
    pytest.param((1, 2, 4, 5, 4), 1, 2, 0, id="k1-s2-p0"),  # projection shortcut
    pytest.param((1, 2, 5, 6, 4), 7, 2, 3, id="k7-s2-p3"),  # stem
    # (D + 2p - k) % stride != 0 on D and W: the last padded face is never read
    pytest.param((1, 2, 4, 5, 4), 3, 2, 1, id="k3-s2-p1"),
    pytest.param((1, 2, 3, 4, 3), 1, 1, 1, id="k1-s1-p1"),  # pad > k - 1
])
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
# conv3d against the nested-loop oracle


@pytest.mark.parametrize("shape,kout,k,stride,pad", [
    ((1, 4, 4, 4), 2, 3, 1, 1),
    ((2, 8, 8, 8), 3, 3, 2, 1),
    ((2, 5, 6, 7), 2, 1, 1, 0),
    ((1, 8, 8, 8), 2, 7, 2, 3),
    ((2, 7, 8, 6), 4, 3, 2, 1),
    ((2, 8, 7, 8), 1, 3, 1, 0),
])
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


def test_backward_rejects_non_scalar():
    x = t64([[1.0, 2.0]])
    with pytest.raises(ShapeError):
        T.backward(T.mul(x, 2.0))


def test_backward_without_tracked_inputs_is_state_error():
    with pytest.raises(StateError):
        T.backward(T.tensor_sum(Tensor([1.0, 2.0])))


# name -> (call, input shapes, count_ops units); inputs are drawn in [0.5, 2)
# so log, sqrt and div stay in their domains.
PRIMITIVES = {
    "add": (T.add, [(2, 3), (2, 3)], 6),
    "sub": (T.sub, [(2, 3), (3,)], 6),
    "mul": (T.mul, [(2, 3), (2, 1)], 6),
    "div": (T.div, [(2, 3), (2, 3)], 6),
    "neg": (T.neg, [(2, 3)], 6),
    "relu": (T.relu, [(2, 3)], 6),
    "exp": (T.exp, [(2, 3)], 6),
    "log": (T.log, [(2, 3)], 6),
    "sqrt": (T.sqrt, [(2, 3)], 6),
    "reshape": (lambda a: T.reshape(a, (3, 2)), [(2, 3)], 0),
    "transpose": (lambda a: T.transpose(a, (1, 0)), [(2, 3)], 0),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(2, 3), (2, 2)], 0),
    "narrow": (lambda a: T.narrow(a, 1, 1, 2), [(2, 3)], 0),
    "select_index": (lambda a: T.select_index(a, [2, 0]), [(2, 3)], 0),
    "tensor_sum": (lambda a: T.tensor_sum(a, 1), [(2, 3)], 6),
    "matmul": (T.matmul, [(3, 4), (4, 5)], 3 * 4 * 5),
    "conv3d": (lambda x, k: T.conv3d(x, k, 1, 1), [(1, 2, 4, 4, 4), (3, 2, 3, 3, 3)],
               3 * 2 * 27 * 64),
    # 6 units per element of x in training mode and 3 in evaluation mode
    "batch_norm_train": (lambda x, g, b: T.batch_norm(x, g, b, True),
                         [(2, 3, 2, 2, 2), (3,), (3,)], 6 * 48),
    "batch_norm_eval": (lambda x, g, b: T.batch_norm(
        x, g, b, False, T.RunningStats(np.full(3, 1.2), np.full(3, 0.8))),
        [(2, 3, 2, 2, 2), (3,), (3,)], 3 * 48),
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
    assert all(p is t for p, t in zip(y._parents, inputs))
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
        leaked = sum(isinstance(obj, Tensor) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == 0, f"{leaked} tensors were only freed by the cyclic GC"


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
