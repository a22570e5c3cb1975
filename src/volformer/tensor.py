"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every primitive returns through ``_node``, which
tallies its work for ``count_ops`` and links the output tensor back to its
inputs with a closure mapping the output gradient to input gradient
contributions. Closures capture the inputs and the arrays they read, never the
output tensor, so reference counting alone frees a finished graph.
``backward`` walks that implicit tape once in reverse topological order, so
each node's closure fires exactly once and gradients accumulate additively
across multiple uses of the same tensor. The sweep consumes the graph: a
node drops its closure and parents once its closure has run, so what the
caller does not hold is freed as the sweep passes. Held tensors keep their
``.grad``; a second sweep that reaches a consumed node is a ``StateError``.
``batch_norm`` is one node that keeps ``x`` and per-channel vectors, with the
closed-form backward of Ioffe & Szegedy (2015); its docstring gives the
formulas and its ``count_ops`` units.

The API is functional (``T.add(a, b)``, ``T.backward(loss)``); ``Tensor`` has
no operators. ``conv3d`` and ``avg_pool_global`` take (B, C, D, H, W) maps and
``matmul`` rank >= 2 operands: one volume is a batch of one, as built by
``model.forward_volume`` and ``localize.grad_cam``.

Arrays are float32 by default. float64 is supported end to end so
finite-difference checks can run in double precision. Primitive kernels are
free to use threaded BLAS internally; a single forward/backward pass is not
itself thread-safe.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ShapeError, StateError

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class OpCounter:
    """Running tally of scalar operations executed by primitive kernels.

    ``macs`` counts multiply-accumulates for contractions (matmul, conv) and
    one unit per element for pointwise/reduction kernels, so it measures the
    work a primitive actually performed rather than an analytic prediction.
    """

    def __init__(self) -> None:
        self.macs = 0


_counters: list[OpCounter] = []


@contextmanager
def count_ops():
    """Yield an :class:`OpCounter` collecting primitive work in the block."""
    counter = OpCounter()
    _counters.append(counter)
    try:
        yield counter
    finally:
        _counters.remove(counter)


class Tensor:
    """N-d float array plus an optional gradient buffer and graph linkage.

    ``requires_grad`` marks tensors that should receive gradient
    contributions. Tensors produced by operations on tracked inputs are
    tracked themselves; their ``grad`` holds the upstream gradient after a
    ``backward`` sweep, which is what gradient-based localization reads off
    intermediate activations.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # A copy, never ``g`` itself: g may be another node's gradient
            # or a read-only broadcast view, and later uses add in place.
            self.grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap plain scalars/arrays as constants matching the tensor's dtype."""
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            return a, b
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    raise TypeError("at least one operand must be a Tensor")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward_fn, macs=0) -> Tensor:
    """Wrap a primitive's result array as a tape node.

    ``macs`` is added to every open ``count_ops`` counter, under ``no_grad``
    too. The result joins the tape, with ``_parents`` and ``_backward`` set,
    only while recording is on and some parent is tracked; otherwise it is a
    constant with ``_backward is None`` and ``_parents == ()``.

    ``backward_fn(g)`` adds the output gradient's contributions to the
    tracked parents. It may capture the parents and the arrays it reads but
    never the result tensor: a result -> closure -> result cycle keeps each
    finished graph alive until the cyclic GC runs.
    """
    for counter in _counters:
        counter.macs += int(macs)
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# pointwise arithmetic


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    y = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(y, (a, b), backward_fn, y.size)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    y = a.data - b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _node(y, (a, b), backward_fn, y.size)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    y = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _node(y, (a, b), backward_fn, y.size)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    y = a.data / b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * y / b.data, b.data.shape))

    return _node(y, (a, b), backward_fn, y.size)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    y = -a.data

    def backward_fn(g):
        a._accum(-g)

    return _node(y, (a,), backward_fn, y.size)


def relu(a) -> Tensor:
    """max(0, x); the subgradient at exactly 0 is taken as 0."""
    a = _as_tensor(a)
    y = np.maximum(a.data, 0)

    def backward_fn(g):
        a._accum(g * (a.data > 0))

    return _node(y, (a,), backward_fn, y.size)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)

    def backward_fn(g):
        a._accum(g * y)

    return _node(y, (a,), backward_fn, y.size)


def log(a) -> Tensor:
    a = _as_tensor(a)
    y = np.log(a.data)

    def backward_fn(g):
        a._accum(g / a.data)

    return _node(y, (a,), backward_fn, y.size)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    y = np.sqrt(a.data)
    # Guard the derivative at 0. The true derivative diverges there, but
    # every caller multiplies it by a factor that is exactly 0 in the
    # degenerate (constant-input) case, so a finite surrogate yields the
    # clean zero gradient instead of 0 * inf = NaN.
    guard = np.finfo(y.dtype).tiny

    def backward_fn(g):
        a._accum(g * 0.5 / np.maximum(y, guard))

    return _node(y, (a,), backward_fn, y.size)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g):
        a._accum(g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), backward_fn)


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)

    def backward_fn(g):
        a._accum(np.transpose(g, tuple(np.argsort(axes))))

    return _node(np.transpose(a.data, axes), (a,), backward_fn)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat requires at least one tensor")

    def backward_fn(g):
        bounds = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        for part, piece in zip(parts, np.split(g, bounds, axis=axis)):
            if part.requires_grad:
                part._accum(piece)

    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, backward_fn)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    a = _as_tensor(a)
    if start < 0 or length < 0 or start + length > a.data.shape[axis]:
        raise ShapeError(
            f"narrow: slice [{start}:{start + length}] exceeds extent "
            f"{a.data.shape[axis]} on axis {axis}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        a._accum(full)

    return _node(a.data[idx].copy(), (a,), backward_fn)


def select_index(a, index) -> Tensor:
    """Pick one column per row: out[i] = a[i, index[i]].

    ``a`` is 2-d (rows x classes) and ``index`` an int vector; used to pull
    the target-class entry out of a probability or log-probability matrix.
    """
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"select_index expects a 2-d tensor, got shape {a.data.shape}")
    idx = np.asarray(index)
    if idx.ndim != 1 or idx.shape[0] != a.data.shape[0]:
        raise ShapeError(
            f"select_index: index shape {idx.shape} does not match rows of {a.data.shape}"
        )
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= a.data.shape[1]:
        raise IndexError(
            f"select_index: index out of range for {a.data.shape[1]} columns"
        )
    rows = np.arange(a.data.shape[0])

    def backward_fn(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, idx), g)
        a._accum(full)

    return _node(a.data[rows, idx].copy(), (a,), backward_fn)


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(axis, ndim: int):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.data.ndim)

    def backward_fn(g):
        if not keepdims:
            g = g.reshape([1 if i in axes else n for i, n in enumerate(a.data.shape)])
        a._accum(np.broadcast_to(g, a.data.shape))

    return _node(a.data.sum(axis=axes, keepdims=keepdims), (a,), backward_fn, a.data.size)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.data.ndim)
    count = math.prod(a.data.shape[i] for i in axes)
    return mul(tensor_sum(a, axes, keepdims), 1.0 / count)


def avg_pool_global(a) -> Tensor:
    """Mean over the three spatial axes of a (B, C, D, H, W) map."""
    a = _as_tensor(a)
    if a.data.ndim != 5:
        raise ShapeError(f"avg_pool_global expects (B, C, D, H, W), got {a.data.shape}")
    return mean(a, (2, 3, 4))


# ---------------------------------------------------------------------------
# contractions


def matmul(a, b) -> Tensor:
    """Product over the last two axes of rank >= 2 operands; leading axes broadcast."""
    a, b = _pair(a, b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(
            f"matmul operands must have rank >= 2, got shapes {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(
            f"matmul: inner extents disagree for shapes {ad.shape} and {bd.shape}"
        )
    try:
        out_data = np.matmul(ad, bd)
    except ValueError as err:
        raise ShapeError(
            f"matmul: shapes {ad.shape} and {bd.shape} do not broadcast: {err}"
        ) from None
    batch = int(np.prod(out_data.shape[:-2], dtype=np.int64))

    def backward_fn(g):
        if a.requires_grad:
            a._accum(_unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape))

    return _node(out_data, (a, b), backward_fn, batch * ad.shape[-2] * ad.shape[-1] * bd.shape[-1])


def _pad3(x: np.ndarray, margin: int) -> np.ndarray:
    """Zero-pad the three trailing axes of a 5-d array by ``margin`` per face.

    Same result as ``np.pad``, at a tenth of its per-call overhead, which a
    batch-1 backward pass pays three times per conv.
    """
    if not margin:
        return x
    B, C, D, H, W = x.shape
    out = np.zeros((B, C, D + 2 * margin, H + 2 * margin, W + 2 * margin), dtype=x.dtype)
    out[:, :, margin:margin + D, margin:margin + H, margin:margin + W] = x
    return out


def _unfold(x: np.ndarray, kernel_shape, stride: int, pad: int) -> np.ndarray:
    """Patch matrix of a (B, C, D, H, W) array for one window shape.

    Returns a contiguous (K, B*V) array. Rows are the K = C*kd*kh*kw patch
    entries in (C, kd, kh, kw) order, so a (C_out, C, kd, kh, kw) kernel
    reshaped to (C_out, K) multiplies it directly. Columns are the windows,
    placed every ``stride`` voxels on the input zero-padded by ``pad`` on
    every spatial face, in (B, Do, Ho, Wo) order.
    """
    x = _pad3(x, pad)
    B, C = x.shape[:2]
    out = [(n - k) // stride + 1 for n, k in zip(x.shape[2:], kernel_shape)]
    sb, sc, sd, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (C, *kernel_shape, B, *out),
        (sc, sd, sh, sw, sb, sd * stride, sh * stride, sw * stride), writeable=False)
    return np.ascontiguousarray(windows).reshape(C * math.prod(kernel_shape), -1)


def _residue_classes(n: int, k: int, stride: int, pad: int) -> list[tuple[int, ...]]:
    """Split one input axis of a strided correlation by residue class.

    Input index i sits at padded position i + pad = stride*m + r, which only
    the taps r + stride*j reach, from outputs m - j. For each class with at
    least one tap and one input index this returns (r, first input index,
    lo, hi): the class's input-gradient is the correlation of the output
    gradient window [lo, hi) with its taps reversed. lo < 0 or hi past the
    output extent stand for zero outputs.
    """
    classes = []
    for r in range(min(stride, k)):
        first = (r - pad) % stride
        if first < n:
            m = (first + pad) // stride
            lo = m - len(range(r, k, stride)) + 1
            classes.append((r, first, lo, m + (n - 1 - first) // stride + 1))
    return classes


def conv3d(x, kernel, stride: int = 1, pad: int = 0) -> Tensor:
    """3-d cross-correlation over a (B, C, D, H, W) input.

    Zero padding of ``pad`` voxels on every spatial face, a single integer
    stride shared by all three axes, and summation over input channels. With
    ``pad = (k - 1) // 2`` (odd k) each output extent is ceil(in / stride).

    The kernel is laid out (C_out, C_in, kd, kh, kw). ``_unfold`` turns the
    input into a (K, B*V) patch matrix, K = C_in*kd*kh*kw patch entries by
    V output voxels per batch entry, and each direction is one 2-D GEMM:

    - forward: the (C_out, K) kernel matrix times the patch matrix;
    - kernel gradient: the (C_out, B*V) output gradient times the transposed
      patch matrix. The patches are not kept from the forward pass; backward
      unfolds the input array again, which the graph holds anyway, so a
      tracked conv retains no more than its output (activation
      recomputation). The input must not change in place before backward;
    - input gradient: a stride-1 correlation of the output gradient with
      the flipped, channel-swapped kernel, through the same ``_unfold``. It
      is split into stride**3 residue classes: input positions
      ``stride*q + r`` (padded coordinates) see only the taps
      ``r + stride*j``, so each class is one GEMM over its own taps and no
      zero-dilated gradient is formed. Stride 1 is the one-class case.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    xd = x.data
    if xd.ndim != 5 or kernel.data.ndim != 5:
        raise ShapeError(f"conv3d expects a (B, C, D, H, W) input and a 5-d kernel, "
                         f"got shapes {xd.shape} and {kernel.data.shape}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv3d needs stride >= 1 and pad >= 0, got {stride} and {pad}")
    B, C, D, H, W = xd.shape
    w = kernel.data
    Co, Ci, kd, kh, kw = w.shape
    if Ci != C:
        raise ShapeError(
            f"conv3d: input has {C} channels but kernel expects {Ci} "
            f"(input {x.data.shape}, kernel {kernel.data.shape})"
        )
    if kd > D + 2 * pad or kh > H + 2 * pad or kw > W + 2 * pad:
        raise ShapeError(
            f"conv3d: kernel {(kd, kh, kw)} exceeds padded input "
            f"{(D + 2 * pad, H + 2 * pad, W + 2 * pad)}"
        )
    extents = (D, H, W)
    ksize = (kd, kh, kw)
    out_ext = tuple((n + 2 * pad - k) // stride + 1 for n, k in zip(extents, ksize))
    vox = math.prod(out_ext)
    out_data = np.matmul(w.reshape(Co, -1), _unfold(xd, ksize, stride, pad))
    out_data = np.ascontiguousarray(out_data.reshape(Co, B, *out_ext).transpose(1, 0, 2, 3, 4))

    def backward_fn(g):
        if kernel.requires_grad:
            col = _unfold(xd, ksize, stride, pad)
            g2 = g.transpose(1, 0, 2, 3, 4).reshape(Co, B * vox)
            kernel._accum(np.matmul(g2, col.T).reshape(w.shape))
        if x.requires_grad:
            classes = [_residue_classes(n, k, stride, pad) for n, k in zip(extents, ksize)]
            margin = max([0] + [max(-lo, hi - n_out) for axis, n_out in zip(classes, out_ext)
                                for _, _, lo, hi in axis])
            g = _pad3(g, margin)
            gx = np.zeros(xd.shape, dtype=xd.dtype)
            for (rd, fd, ld, hd), (rh, fh, lh, hh), (rw, fw, lw, hw) in itertools.product(*classes):
                taps = w[:, :, rd::stride, rh::stride, rw::stride][:, :, ::-1, ::-1, ::-1]
                window = g[:, :, margin + ld:margin + hd, margin + lh:margin + hh,
                           margin + lw:margin + hw]
                part = np.matmul(taps.transpose(1, 0, 2, 3, 4).reshape(C, -1),
                                 _unfold(window, taps.shape[2:], 1, 0))
                target = gx[:, :, fd::stride, fh::stride, fw::stride]
                target[...] = part.reshape(C, B, *target.shape[2:]).transpose(1, 0, 2, 3, 4)
            x._accum(gx)

    return _node(out_data, (x, kernel), backward_fn, B * Co * C * kd * kh * kw * vox)


# ---------------------------------------------------------------------------
# composite numeric blocks


def softmax(x, axis: int = -1) -> Tensor:
    """Row-stochastic exponential normalization, max-subtracted for stability.

    Subtracting the (detached) per-row maximum leaves both the value and the
    gradient unchanged because the map is shift invariant.
    """
    x = _as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    e = exp(sub(x, shift))
    return div(e, tensor_sum(e, axis, keepdims=True))


def log_softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    centered = sub(x, shift)
    lse = log(tensor_sum(exp(centered), axis, keepdims=True))
    return sub(centered, lse)


class RunningStats:
    """Exponential moving averages of per-channel mean and variance.

    Starts uninitialized; the first training batch seeds the averages with
    its own statistics and later batches blend in with the configured
    momentum. Evaluation before any training batch is a state error.
    ``update`` replaces ``mean`` and ``var`` rather than writing into them,
    so a caller that keeps the old arrays can put them back.
    """

    __slots__ = ("mean", "var")

    def __init__(self, mean=None, var=None):
        self.mean = mean
        self.var = var

    def initialized(self) -> bool:
        return self.mean is not None

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray, momentum: float) -> None:
        if not self.initialized():
            self.mean = batch_mean.copy()
            self.var = batch_var.copy()
        else:
            self.mean = (1.0 - momentum) * self.mean + momentum * batch_mean
            self.var = (1.0 - momentum) * self.var + momentum * batch_var


def batch_norm(x, gamma, beta, training: bool, stats: RunningStats | None = None,
               eps: float = 1e-5, momentum: float = 0.1) -> Tensor:
    """Per-channel standardization over batch and spatial axes, then affine.

    ``x`` is (B, C, ...) with channels on axis 1. Training mode normalizes
    with batch statistics (population variance) and updates ``stats``;
    evaluation mode requires previously accumulated ``stats``.

    One tape node, y = (x − μ)·inv·γ + β with inv = 1/sqrt(var + eps). Its
    closure keeps ``x``'s array and per-channel vectors and recomputes
    x̂ = (x − μ)·inv. Training backward is the closed form
    gx = inv·γ·(g − mean g − x̂·mean(g·x̂)); in evaluation mode μ and inv are
    constants and gx = g·inv·γ; in both gγ = Σ g·x̂ and gβ = Σ g.
    ``count_ops``: 6 units per element of ``x`` in training mode (mean,
    center, square, variance sum, scale, shift), 3 in evaluation mode.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xd = x.data
    if xd.ndim < 2:
        raise ShapeError(f"batch_norm input must have a channel axis, got {xd.shape}")
    C = xd.shape[1]
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ShapeError(
            f"batch_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match {C} channels"
        )
    axes = (0,) + tuple(range(2, xd.ndim))
    bshape = (1, C) + (1,) * (xd.ndim - 2)
    if training:
        if xd.shape[0] < 1:
            raise ShapeError("batch_norm training mode requires a non-empty batch")
        mu = xd.mean(axis=axes, keepdims=True)
        y = xd - mu
        var = np.square(y).mean(axis=axes, keepdims=True)
        if stats is not None:
            stats.update(mu.reshape(C).astype(np.float64),
                         var.reshape(C).astype(np.float64), momentum)
        inv = 1.0 / np.sqrt(var + eps)
    else:
        if stats is None or not stats.initialized():
            raise StateError(
                "batch_norm evaluation mode requires running statistics; "
                "train at least one batch first"
            )
        mu = stats.mean.reshape(bshape).astype(xd.dtype)
        inv = (1.0 / np.sqrt(stats.var + eps)).reshape(bshape).astype(xd.dtype)
        y = xd - mu
    scale = inv * gamma.data.reshape(bshape)
    y *= scale
    y += beta.data.reshape(bshape)

    def backward_fn(g):
        xhat = xd - mu
        xhat *= inv
        gxhat = (g * xhat).sum(axis=axes, keepdims=True)
        if gamma.requires_grad:
            gamma._accum(gxhat.reshape(C))
        if beta.requires_grad:
            beta._accum(g.sum(axis=axes).reshape(C))
        if not x.requires_grad:
            return
        if not training:
            x._accum(g * scale)
            return
        gx = g - g.mean(axis=axes, keepdims=True)
        xhat *= gxhat * (C / xd.size)
        gx -= xhat
        gx *= scale
        x._accum(gx)

    return _node(y, (x, gamma, beta), backward_fn, (6 if training else 3) * xd.size)


# ---------------------------------------------------------------------------
# backward sweep


_CONSUMED = "backward: this graph was already consumed by an earlier sweep"


def _swept(g):
    """Marks a node that a ``backward`` sweep has passed; calling it raises."""
    raise StateError(_CONSUMED)


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss through the recorded graph.

    Consumes the graph (see the module docstring). A sweep that would reach
    a consumed node raises ``StateError`` before any gradient is touched.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise StateError("backward: loss does not depend on any tracked tensor")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _swept:
            raise StateError(_CONSUMED)
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        fn = node._backward
        if fn is None:
            continue
        node._backward, node._parents = _swept, ()
        if node.grad is not None:
            fn(node.grad)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def kaiming_uniform(shape, fan_in: int, rng: np.random.Generator,
                    dtype=np.float32) -> np.ndarray:
    """Uniform fan-in initialization with ReLU gain: bound sqrt(6 / fan_in)."""
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
