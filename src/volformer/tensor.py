"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every primitive returns through ``_node``, which
tallies its work for ``count_ops`` and links the output tensor back to its
inputs with a closure mapping the output gradient to input gradient
contributions. Closures capture the inputs and the arrays they read, never the
output tensor, so reference counting alone frees a finished graph.
``backward`` walks that implicit tape once in reverse topological order, so
each node's closure fires exactly once and gradients accumulate additively
across multiple uses of the same tensor.

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

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return mean(self, axis, keepdims)


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
    count = 1
    for i in axes:
        count *= a.data.shape[i]
    return mul(tensor_sum(a, axes, keepdims), 1.0 / count)


def mean_var(a, axis=None) -> tuple[Tensor, Tensor]:
    """Mean and population variance (divide by N) over the given axes."""
    a = _as_tensor(a)
    mu = mean(a, axis, keepdims=True)
    centered = sub(a, mu)
    var = mean(mul(centered, centered), axis, keepdims=True)
    axes = _norm_axes(axis, a.data.ndim)
    kept = tuple(n for i, n in enumerate(a.data.shape) if i not in axes)
    return reshape(mu, kept), reshape(var, kept)


def avg_pool_global(a) -> Tensor:
    """Mean over the trailing spatial axes of a (B,C,D,H,W) or (C,D,H,W) map."""
    a = _as_tensor(a)
    if a.data.ndim == 5:
        return mean(a, (2, 3, 4))
    if a.data.ndim == 4:
        return mean(a, (1, 2, 3))
    raise ShapeError(f"avg_pool_global expects a 4-d or 5-d tensor, got {a.data.shape}")


# ---------------------------------------------------------------------------
# contractions


def matmul(a, b) -> Tensor:
    a, b = _pair(a, b)
    ad, bd = a.data, b.data
    if ad.ndim == 0 or bd.ndim == 0:
        raise ShapeError("matmul does not accept scalars")
    a_vec = ad.ndim == 1
    b_vec = bd.ndim == 1
    lhs = ad[None, :] if a_vec else ad
    rhs = bd[:, None] if b_vec else bd
    if lhs.shape[-1] != rhs.shape[-2]:
        raise ShapeError(
            f"matmul: inner extents disagree for shapes {ad.shape} and {bd.shape}"
        )
    try:
        out_data = np.matmul(lhs, rhs)
    except ValueError as err:
        raise ShapeError(
            f"matmul: shapes {ad.shape} and {bd.shape} do not broadcast: {err}"
        ) from None
    batch = int(np.prod(out_data.shape[:-2], dtype=np.int64))
    macs = batch * lhs.shape[-2] * lhs.shape[-1] * rhs.shape[-1]
    if b_vec:
        out_data = out_data[..., 0]
    if a_vec:
        out_data = out_data[..., 0, :] if not b_vec else out_data[..., 0]

    def backward_fn(g):
        gm = g
        if a_vec and b_vec:
            gm = gm.reshape(1, 1)
        elif a_vec:
            gm = gm[..., None, :]
        elif b_vec:
            gm = gm[..., :, None]
        if a.requires_grad:
            ga = np.matmul(gm, np.swapaxes(rhs, -1, -2))
            a._accum(_unbroadcast(ga, lhs.shape).reshape(ad.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(lhs, -1, -2), gm)
            b._accum(_unbroadcast(gb, rhs.shape).reshape(bd.shape))

    return _node(out_data, (a, b), backward_fn, macs)


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
    """3-d cross-correlation over a (C,D,H,W) or (B,C,D,H,W) input.

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
    if kernel.data.ndim != 5:
        raise ShapeError(f"conv3d kernel must be 5-d, got shape {kernel.data.shape}")
    squeeze = x.data.ndim == 4
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 5:
        raise ShapeError(f"conv3d input must be 4-d or 5-d, got shape {x.data.shape}")
    if stride < 1:
        raise ShapeError(f"conv3d stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"conv3d pad must be >= 0, got {pad}")
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
        g5 = g[None] if squeeze else g
        if kernel.requires_grad:
            col = _unfold(xd, ksize, stride, pad)
            g2 = g5.transpose(1, 0, 2, 3, 4).reshape(Co, B * vox)
            kernel._accum(np.matmul(g2, col.T).reshape(w.shape))
        if x.requires_grad:
            classes = [_residue_classes(n, k, stride, pad) for n, k in zip(extents, ksize)]
            margin = max([0] + [max(-lo, hi - n_out) for axis, n_out in zip(classes, out_ext)
                                for _, _, lo, hi in axis])
            g5 = _pad3(g5, margin)
            gx = np.zeros(xd.shape, dtype=xd.dtype)
            for (rd, fd, ld, hd), (rh, fh, lh, hh), (rw, fw, lw, hw) in itertools.product(*classes):
                taps = w[:, :, rd::stride, rh::stride, rw::stride][:, :, ::-1, ::-1, ::-1]
                window = g5[:, :, margin + ld:margin + hd, margin + lh:margin + hh,
                            margin + lw:margin + hw]
                part = np.matmul(taps.transpose(1, 0, 2, 3, 4).reshape(C, -1),
                                 _unfold(window, taps.shape[2:], 1, 0))
                target = gx[:, :, fd::stride, fh::stride, fw::stride]
                target[...] = part.reshape(C, B, *target.shape[2:]).transpose(1, 0, 2, 3, 4)
            x._accum(gx[0] if squeeze else gx)

    return _node(out_data[0] if squeeze else out_data, (x, kernel), backward_fn,
                 B * Co * C * kd * kh * kw * vox)


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
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim < 2:
        raise ShapeError(f"batch_norm input must have a channel axis, got {x.data.shape}")
    C = x.data.shape[1]
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ShapeError(
            f"batch_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} "
            f"do not match {C} channels"
        )
    axes = (0,) + tuple(range(2, x.data.ndim))
    bshape = (1, C) + (1,) * (x.data.ndim - 2)
    if training:
        if x.data.shape[0] < 1:
            raise ShapeError("batch_norm training mode requires a non-empty batch")
        mu = mean(x, axes, keepdims=True)
        centered = sub(x, mu)
        var = mean(mul(centered, centered), axes, keepdims=True)
        if stats is not None:
            stats.update(mu.data.reshape(C).astype(np.float64),
                         var.data.reshape(C).astype(np.float64), momentum)
        xhat = div(centered, sqrt(add(var, eps)))
    else:
        if stats is None or not stats.initialized():
            raise StateError(
                "batch_norm evaluation mode requires running statistics; "
                "train at least one batch first"
            )
        mu = Tensor(stats.mean.reshape(bshape).astype(x.data.dtype))
        denom = Tensor(np.sqrt(stats.var + eps).reshape(bshape).astype(x.data.dtype))
        xhat = div(sub(x, mu), denom)
    return add(mul(xhat, reshape(gamma, bshape)), reshape(beta, bshape))


# ---------------------------------------------------------------------------
# backward sweep


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss through the recorded graph."""
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
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def kaiming_uniform(shape, fan_in: int, rng: np.random.Generator,
                    dtype=np.float32) -> np.ndarray:
    """Uniform fan-in initialization with ReLU gain: bound sqrt(6 / fan_in)."""
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
