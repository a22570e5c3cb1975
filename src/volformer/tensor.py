"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every primitive returns through ``_node``, which
charges its contraction multiply-adds to ``count_ops`` and links the output's
tape record back to its tracked inputs' records with a closure mapping the
output gradient to input gradient contributions. Only inputs tracked when the node is made are
linked, so ``backward`` never walks an untracked parameter or a wrapped
constant. A ``Tensor`` is its ``data`` plus a ``_Tape`` record
holding the gradient, the parent records and the closure; the record never
holds ``data``. Closures capture parent records and only the arrays their
formula reads (the rule table in ``_node``'s docstring), never the output's
record, so an intermediate the caller does not hold is freed as soon as no
backward formula reads it, and reference counting alone frees a finished
graph. ``backward`` walks the records once in reverse topological order, so
each node's closure fires exactly once and gradients accumulate additively
across multiple uses of the same tensor. The sweep consumes the graph: a
record drops its closure and parents once its closure has run. Held tensors
keep their ``.grad``; a second sweep that reaches a consumed node is a
``StateError``. ``batch_norm``, ``softmax``, ``token_channel_mixing``,
``attention_block`` and ``bn_relu_conv3d`` are single nodes with closed-form
backwards; their docstrings give the formulas and the multiply-adds they count.
The two global attention blocks are one node each that keeps only its input
and weights: ``token_channel_mixing`` (an SGA block, two residual MLPs)
recomputes its token-mixed tokens and hidden layers, and ``attention_block``
(a DGA block) z0 = x + pos, q, k, v, the softmax masks, the concatenated
heads, z1 and the feed-forward's hidden layer, once per backward.
``bn_relu_conv3d`` (batch norm, ReLU, then a conv) keeps its input, not the
ReLU's output h, and recomputes h in backward with one scale, shift and max
per element. The fused nodes compute with array-level helpers: ``_bn_*`` and
``_conv3d_*``, shared with ``batch_norm`` and ``conv3d``; ``_mlp_*`` (a
residual MLP), ``_attend``, ``_merge`` and ``_attention_*`` (residual
multi-head self-attention), whose docstrings give the layouts and backward
formulas. So each formula has one copy, and backward calls the helpers
directly rather than sweeping a sub-graph. A batched operand times a matrix,
in ``matmul`` and the block nodes, is one GEMM over the folded leading axes.

``conv3d`` is im2col plus GEMM that never holds a whole patch matrix (after
Anderson et al. 2017 and Dukhan 2019): ``_patch_chunks`` gathers it in runs
of output depth planes, or of output rows where one plane is too large,
through one buffer of at most ``_PATCH_BYTES``. Backward gathers the
output-gradient patches once per residue class and takes both gradients from
them; only an untracked input takes its kernel gradient from input patches.
Each GEMM is split into column blocks within OpenBLAS's small-matrix budget
(``_GEMM_MACS``), so results depend on chunk and block widths at rounding
level. A small patch matrix (short copy runs, at most ``_INDEX_ENTRIES``
entries: the deep stages at batch 1) is a third path: one ``take`` through a
cached flat index (``_patch_index``) gathers it whole, and ``np.bincount``
over the same index, its exact adjoint, scatters the input gradient back.
Its docstring has the details.

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

import functools
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
    """Running tally of the contraction multiply-adds primitive kernels ran.

    ``macs`` counts the multiply-adds of ``matmul``, ``conv3d`` and the GEMMs
    inside the fused nodes, the unit of ``model.estimate_cost``; pointwise,
    reduction, softmax and batch-norm work is not counted.
    """

    def __init__(self) -> None:
        self.macs = 0


_counters: list[OpCounter] = []


@contextmanager
def count_ops():
    """Yield an :class:`OpCounter` collecting the contraction multiply-adds
    of every node made in the block."""
    counter = OpCounter()
    _counters.append(counter)
    try:
        yield counter
    finally:
        _counters.remove(counter)


class _Tape:
    """A tensor's gradient record: everything ``backward`` reads, no data.

    ``parents`` are the records of the inputs and ``backward`` the closure
    that feeds them; ``shape`` and ``dtype`` are the data's, which is all a
    gradient needs of it.
    """

    __slots__ = ("grad", "requires_grad", "parents", "backward", "shape", "dtype")

    def __init__(self, shape, dtype, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents: tuple[_Tape, ...] = ()
        self.backward = None
        self.shape = shape
        self.dtype = dtype

    def _accum(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` to the gradient. ``fresh`` says the caller's closure has
        just built ``g`` and holds it nowhere else, so a first gradient of
        this record's shape and dtype is kept as it is."""
        if self.grad is not None:
            self.grad += g
        elif fresh and g.shape == self.shape and g.dtype == self.dtype:
            self.grad = g
        # Otherwise a copy, never ``g`` itself: g may be another node's
        # gradient or a read-only broadcast view, and later uses add in place.
        elif g.shape == self.shape:
            self.grad = np.array(g, dtype=self.dtype)
        else:
            self.grad = np.array(np.broadcast_to(g, self.shape), dtype=self.dtype)


def _tape_attr(field: str) -> property:
    return property(lambda t: getattr(t._tape, field),
                    lambda t, value: setattr(t._tape, field, value))


class Tensor:
    """N-d float array plus its gradient record (``_Tape``).

    ``requires_grad`` marks tensors that should receive gradient
    contributions. Tensors produced by operations on tracked inputs are
    tracked themselves; their ``grad`` holds the upstream gradient after a
    ``backward`` sweep, which is what gradient-based localization reads off
    intermediate activations. ``grad``, ``requires_grad``, ``_parents`` and
    ``_backward`` read and write the record. ``data`` may be replaced only
    by an array of the same shape and dtype.
    """

    __slots__ = ("data", "_tape")

    grad = _tape_attr("grad")
    requires_grad = _tape_attr("requires_grad")
    _parents = _tape_attr("parents")
    _backward = _tape_attr("backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if type(data) is np.ndarray and dtype is None and data.dtype in _FLOAT_DTYPES:
            arr = data
        else:
            arr = np.asarray(data, dtype=dtype)
            if arr.dtype not in _FLOAT_DTYPES:
                arr = arr.astype(np.float32)
        self.data = arr
        self._tape = _Tape(arr.shape, arr.dtype, bool(requires_grad))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        """The value of a one-element tensor; any other size is a ``ShapeError``."""
        if self.data.size != 1:
            raise ShapeError(f"item() needs a one-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

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

    ``parents`` are the inputs' ``_Tape`` records. ``macs``, the node's
    contraction multiply-adds (none for a pointwise, reduction, shape,
    softmax or batch-norm node), is added to every open ``count_ops``
    counter, under ``no_grad`` too. The result joins the tape only while
    recording is on and some parent is tracked; otherwise it is a constant
    with ``_backward is None`` and ``_parents == ()``. A node lists only the
    parents that were tracked when it was made, so ``backward`` never walks
    a parameter the caller left untracked or a wrapped constant.

    ``backward_fn(g)`` adds the output gradient's contributions to the
    tracked parents' records. It captures those records and only the arrays
    its formula reads, which bounds what a graph retains:

    - ``add``, ``sub``, ``neg``, the shape ops and ``tensor_sum``: none;
    - ``mul``, ``matmul``, ``conv3d``: each operand, only if the other
      operand was tracked when the node was made;
    - ``div``: the divisor and the output; ``exp``, ``sqrt``, ``relu`` and
      ``softmax``: the output; ``log``: the input;
    - ``batch_norm``: μ, inv and γ's array, and the input only if ``gamma``
      or ``beta`` or, in training mode, the input is tracked; in evaluation
      mode μ and inv are the running stats' cached constants, so the input
      is the one array the call made that it keeps;
    - ``token_channel_mixing``: the input and the weights (never the
      token-mixed tokens, a hidden layer or a layout copy);
    - ``attention_block``: the input, ``pos`` and the weights (never z0, z1,
      q, k, v, the masks or the hidden layer);
    - ``bn_relu_conv3d``: the input, batch norm's μ and inv (cached as in
      ``batch_norm`` in evaluation mode), the arrays of γ and β (never inv·γ,
      a view of β or h = relu(batch_norm(x))), and the kernel.

    It never captures a ``Tensor`` or the result's record: a result ->
    closure -> result cycle keeps each finished graph alive until the
    cyclic GC runs.

    A closure that builds a gradient held nowhere else hands it over
    (``_Tape._accum``'s ``fresh``): the record keeps it as its first
    gradient without a copy. These are ``relu``'s g·[y > 0], ``conv3d``'s
    input and kernel gradients, and the gradients of ``batch_norm``,
    ``bn_relu_conv3d``, ``token_channel_mixing`` and ``attention_block``
    (through ``_feed``). Every other first gradient is copied, among them
    the pass-through ones of ``add``, ``sub``, the shape ops and
    ``tensor_sum``, so no two records' ``.grad`` share memory.
    """
    for counter in _counters:
        counter.macs += macs
    out = Tensor(data)
    if _grad_enabled:
        tracked = ()
        for p in parents:
            if p.requires_grad:
                tracked += (p,)
        if tracked:
            tape = out._tape
            tape.requires_grad = True
            tape.parents = tracked
            tape.backward = backward_fn
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
    ra, rb = a._tape, b._tape

    def backward_fn(g):
        if ra.requires_grad:
            ra._accum(_unbroadcast(g, ra.shape))
        if rb.requires_grad:
            rb._accum(_unbroadcast(g, rb.shape))

    return _node(y, (ra, rb), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    y = a.data - b.data
    ra, rb = a._tape, b._tape

    def backward_fn(g):
        if ra.requires_grad:
            ra._accum(_unbroadcast(g, ra.shape))
        if rb.requires_grad:
            rb._accum(_unbroadcast(-g, rb.shape))

    return _node(y, (ra, rb), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    y = a.data * b.data
    ra, rb = a._tape, b._tape
    # Each operand's array feeds only the other's gradient.
    ad = a.data if rb.requires_grad else None
    bd = b.data if ra.requires_grad else None

    def backward_fn(g):
        if bd is not None:
            ra._accum(_unbroadcast(g * bd, ra.shape))
        if ad is not None:
            rb._accum(_unbroadcast(g * ad, rb.shape))

    return _node(y, (ra, rb), backward_fn)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    bd = b.data
    y = a.data / bd
    ra, rb = a._tape, b._tape

    def backward_fn(g):
        if ra.requires_grad:
            ra._accum(_unbroadcast(g / bd, ra.shape))
        if rb.requires_grad:
            rb._accum(_unbroadcast(-g * y / bd, rb.shape))

    return _node(y, (ra, rb), backward_fn)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    y = -a.data
    ra = a._tape

    def backward_fn(g):
        ra._accum(-g)

    return _node(y, (ra,), backward_fn)


def relu(a) -> Tensor:
    """max(0, x); the subgradient at exactly 0 is taken as 0.

    The closure keeps the output: y > 0 exactly where x > 0, NaN included.
    """
    a = _as_tensor(a)
    y = np.maximum(a.data, 0)
    ra = a._tape

    def backward_fn(g):
        ra._accum(g * (y > 0), fresh=True)

    return _node(y, (ra,), backward_fn)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)
    ra = a._tape

    def backward_fn(g):
        ra._accum(g * y)

    return _node(y, (ra,), backward_fn)


def log(a) -> Tensor:
    a = _as_tensor(a)
    ad = a.data
    y = np.log(ad)
    ra = a._tape

    def backward_fn(g):
        ra._accum(g / ad)

    return _node(y, (ra,), backward_fn)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    y = np.sqrt(a.data)
    ra = a._tape
    # Guard the derivative at 0. The true derivative diverges there, but
    # every caller multiplies it by a factor that is exactly 0 in the
    # degenerate (constant-input) case, so a finite surrogate yields the
    # clean zero gradient instead of 0 * inf = NaN.
    guard = np.finfo(y.dtype).tiny

    def backward_fn(g):
        ra._accum(g * 0.5 / np.maximum(y, guard))

    return _node(y, (ra,), backward_fn)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    ra = a._tape

    def backward_fn(g):
        ra._accum(g.reshape(ra.shape))

    return _node(a.data.reshape(shape), (ra,), backward_fn)


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    y = a.data.transpose(axes)  # numpy refuses repeated or out-of-range axes
    axes = tuple(reversed(range(y.ndim))) if axes is None else _norm_axes(axes, y.ndim)
    ra = a._tape

    def backward_fn(g):
        ra._accum(g.transpose(sorted(range(len(axes)), key=axes.__getitem__)))

    return _node(y, (ra,), backward_fn)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat requires at least one tensor")
    records = tuple(p._tape for p in parts)

    def backward_fn(g):
        bounds = np.cumsum([r.shape[axis] for r in records])[:-1]
        for record, piece in zip(records, np.split(g, bounds, axis=axis)):
            if record.requires_grad:
                record._accum(piece)

    return _node(np.concatenate([p.data for p in parts], axis=axis), records, backward_fn)


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
    ra = a._tape

    def backward_fn(g):
        full = np.zeros(ra.shape, ra.dtype)
        full[idx] = g
        ra._accum(full)

    return _node(a.data[idx].copy(), (ra,), backward_fn)


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
    ra = a._tape

    def backward_fn(g):
        full = np.zeros(ra.shape, ra.dtype)
        np.add.at(full, (rows, idx), g)
        ra._accum(full)

    return _node(a.data[rows, idx].copy(), (ra,), backward_fn)


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
    ra = a._tape

    def backward_fn(g):
        if not keepdims:
            g = g.reshape([1 if i in axes else n for i, n in enumerate(ra.shape)])
        ra._accum(np.broadcast_to(g, ra.shape))

    return _node(a.data.sum(axis=axes, keepdims=keepdims), (ra,), backward_fn)


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


def _fold(a: np.ndarray) -> np.ndarray:
    """``a`` as a matrix of its last axis, leading axes folded into the rows;
    a copy where ``a``'s layout does not allow a view."""
    return a.reshape(-1, a.shape[-1])


def matmul(a, b) -> Tensor:
    """Product over the last two axes of rank >= 2 operands; leading axes broadcast.

    With a 2-D ``b`` (tokens times a weight) the leading axes of ``a`` fold
    into its rows: the product is one GEMM, and so is ``b``'s gradient, aᵀg
    over all rows, rather than a per-batch stack summed afterwards.
    """
    a, b = _pair(a, b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(
            f"matmul operands must have rank >= 2, got shapes {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(
            f"matmul: inner extents disagree for shapes {ad.shape} and {bd.shape}"
        )
    folded = bd.ndim == 2
    if folded:
        out_data = (_fold(ad) @ bd).reshape(*ad.shape[:-1], bd.shape[1])
    else:
        try:
            out_data = np.matmul(ad, bd)
        except ValueError as err:
            raise ShapeError(
                f"matmul: shapes {ad.shape} and {bd.shape} do not broadcast: {err}"
            ) from None
    macs = math.prod(out_data.shape[:-2]) * ad.shape[-2] * ad.shape[-1] * bd.shape[-1]
    ra, rb = a._tape, b._tape
    ad = ad if rb.requires_grad else None
    bd = bd if ra.requires_grad else None

    def backward_fn(g):
        if folded:
            g2 = _fold(g)
            if bd is not None:
                ra._accum((g2 @ bd.T).reshape(ra.shape))
            if ad is not None:
                rb._accum(_fold(ad).T @ g2)
            return
        if bd is not None:
            ra._accum(_unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ra.shape))
        if ad is not None:
            rb._accum(_unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), rb.shape))

    return _node(out_data, (ra, rb), backward_fn, macs)


def _pad_batch_last(x: np.ndarray, margin: int) -> np.ndarray:
    """Zero-pad a (B, C, D, H, W) array by ``margin`` per spatial face and
    move its batch axis last, in one copy: (C, D+2m, H+2m, W+2m, B).

    Without a margin at B=1 this is a view, so batch-1 passes copy no more
    than a plain pad would.
    """
    B, C, D, H, W = x.shape
    moved = x.transpose(1, 2, 3, 4, 0)
    if not margin:
        return np.ascontiguousarray(moved)
    out = np.zeros((C, D + 2 * margin, H + 2 * margin, W + 2 * margin, B), dtype=x.dtype)
    out[:, margin:margin + D, margin:margin + H, margin:margin + W] = moved
    return out


_PATCH_BYTES = 1 << 20
# A gather whose copy runs fit in one cache line pays more per run than per
# float (runs of 2-8 floats: 1.7-3.5 ns per float, 0.7 ns from 32 on), so a
# second copy that lengthens them pays; for longer runs it cost 10-15%.
_SHORT_RUN_BYTES = 64
# scipy-openblas 0.3.31 on AVX-512 runs a GEMM of at most 10**6
# multiply-adds through its small-matrix kernel, which skips packing: float32
# (8x216)(216x578) took 21 us and (8x216)(216x579) 45 us (one thread, Xeon).
# So a chunk's GEMM is split into column blocks within that budget where a
# block keeps at least _GEMM_MIN_COLS columns; wider operands stay one GEMM.
# The kernel wants a contiguous second operand: (216x576)(576x8) took 25 us
# contiguous and 44 us as a transposed view; at (6912x32)(32x256) the view was
# the faster, 1159 against 1249 us.
_GEMM_MACS = 10 ** 6
_GEMM_MIN_COLS = 64
# A conv with short copy runs and at most _INDEX_ENTRIES patch entries
# gathers through one take of a cached flat index and scatters its input
# gradient back with one np.bincount. At batch 1 the deep desk convs'
# chunked input gradients took 23-188 us each, up to 5.5x their forward:
# about 1 us of Python per residue class and copies of 2-float runs.
# Through the index they took 10-93 us (float32, one thread, Xeon). Desk
# stage 2's stride-1 convs (34,560 entries) took 64-69 us chunked and
# 170-257 us through the index, so they stay on the chunks. The cache keeps
# _INDEX_CACHE arrays of at most _INDEX_ENTRIES intp entries; int32 would
# halve them but made each take and bincount 1-3 us slower.
_INDEX_ENTRIES = 1 << 15
_INDEX_CACHE = 16


def _gemm_width(macs_per_col: int) -> int:
    """Columns per GEMM block for an operand pair costing ``macs_per_col``
    multiply-adds per column; 0 (no split) where that is under
    ``_GEMM_MIN_COLS``."""
    width = _GEMM_MACS // macs_per_col
    return width if width >= _GEMM_MIN_COLS else 0


def _matmul_blocks(a, col, out, width: int) -> None:
    """``out = a @ col``, one GEMM per block of ``width`` columns (0: one)."""
    if not width or col.shape[1] <= width:
        np.matmul(a, col, out=out)
        return
    for b in range(0, col.shape[1], width):
        np.matmul(a, col[:, b:b + width], out=out[:, b:b + width])


def _matmul_sum(col, rows, acc, width: int) -> None:
    """``acc += col @ rows``, one GEMM per block of ``width`` columns of
    ``col`` and rows of ``rows`` (0: one), each formed in one buffer that is
    freed on return."""
    step = width or col.shape[1]
    part = np.empty((col.shape[0], rows.shape[1]), np.result_type(col, rows))
    for b in range(0, col.shape[1], step):
        np.matmul(col[:, b:b + step], rows[b:b + step], out=part)
        acc += part.reshape(acc.shape)


def _rows(a: np.ndarray, contiguous: bool) -> np.ndarray:
    """A (B, C, D, H, W) array as a (D*H*W*B, C) matrix, rows in (D, H, W, B)
    order to match patch columns: contiguous, or the transpose of a
    contiguous (C, D*H*W*B) matrix, a view where the layout allows."""
    if contiguous:
        return a.transpose(2, 3, 4, 0, 1).reshape(-1, a.shape[1])
    return a.transpose(1, 2, 3, 4, 0).reshape(a.shape[1], -1).T


def _indexed(C: int, kernel_shape, out, B: int, itemsize: int) -> bool:
    """Whether a conv gathers through ``_patch_index``: its copy runs of
    Wo*B items are at most ``_SHORT_RUN_BYTES`` and its (K, V*B) patch
    matrix has at most ``_INDEX_ENTRIES`` entries."""
    return (out[2] * B * itemsize <= _SHORT_RUN_BYTES
            and C * math.prod(kernel_shape) * math.prod(out) * B <= _INDEX_ENTRIES)


@functools.lru_cache(maxsize=_INDEX_CACHE)
def _patch_index(padded, kernel_shape, out, stride: int) -> np.ndarray:
    """Flat positions in a C-contiguous batch-last array of shape ``padded``
    = (C, D, H, W, B) of its whole patch matrix, read-only and laid out as
    ``_patch_chunks`` lays out its columns: (K, V*B), rows (C, kd, kh, kw),
    columns (Do, Ho, Wo, B), windows every ``stride`` voxels from the origin.
    ``np.take`` through it gathers the patches and ``np.bincount`` over it
    scatters patch gradients back, its exact adjoint."""
    pos = np.arange(math.prod(padded)).reshape(padded)
    sc, sd, sh, sw, sb = pos.strides
    window = np.lib.stride_tricks.as_strided(
        pos, (padded[0], *kernel_shape, *out, padded[4]),
        (sc, sd, sh, sw, sd * stride, sh * stride, sw * stride, sb))
    index = window.reshape(padded[0] * math.prod(kernel_shape), -1)
    index.flags.writeable = False
    return index


def _patch_chunks(src: np.ndarray, corner, kernel_shape, out, stride: int):
    """Patch matrix of a correlation over a batch-last (C, D, H, W, B) array,
    in bounded chunks.

    ``src`` is C-contiguous; the correlation reads it from the voxel
    ``corner`` on, with ``out`` output extents. The whole matrix is
    (K, V*B). Rows are the K = C*kd*kh*kw patch entries in (C, kd, kh, kw)
    order, so a (C_out, C, kd, kh, kw) kernel reshaped to (C_out, K)
    multiplies it directly. Columns are the windows, placed every
    ``stride`` voxels, in (Do, Ho, Wo, B) order.

    Yields ``(c0, c1, region, col)``: ``col`` the contiguous (K, c1 - c0)
    block of columns c0:c1, which hold the output voxels ``[region]`` of a
    (Do, Ho, Wo, B) array, ``region`` a pair of depth and row slices. A
    block is a run of whole output depth planes, as many as fit in
    ``_PATCH_BYTES``; where one plane exceeds it, a run of whole output rows
    within one plane, as many as fit and at least one. Every ``col`` lives
    in one buffer allocated per call and is overwritten by the next chunk.
    The window views over ``src`` are read-only.

    The batch axis is last because the gather, not the GEMM it feeds, is the
    cost: each row copies runs of Wo*B contiguous floats at stride 1 (B at
    larger strides), where a (B, C, D, H, W) source gives runs of Wo. Where
    those runs are at most ``_SHORT_RUN_BYTES`` (stride 1, kw > 1: desk
    stages 1-2 at batch 1, deeper ones in small batches; smaller matrices
    take ``_patch_index``), each chunk first copies its input slab kw
    times, each copy starting at its tap's column and Wo wide; a window into
    those copies reads whole runs of output rows, n_h*Wo*B floats, and
    ``col`` holds the same values.
    """
    C, B = src.shape[0], src.shape[4]
    kd, kh, kw = kernel_shape
    Do, Ho, Wo = out
    sc, sd, sh, sw, sb = src.strides
    K = C * kd * kh * kw
    row = Wo * B  # columns per output row
    plane = Ho * row  # and per output depth plane
    row_bytes = max(1, K * row * src.itemsize)
    if row_bytes * Ho <= _PATCH_BYTES:
        nd, nh = min(Do, _PATCH_BYTES // (row_bytes * Ho)), Ho
    else:
        nd, nh = 1, min(Ho, max(1, _PATCH_BYTES // row_bytes))
    origin = sd * corner[0] + sh * corner[1] + sw * corner[2]
    readonly = memoryview(src).toreadonly()
    buf = np.empty(K * nd * nh * row, dtype=src.dtype)
    shifted = stride == 1 and kw > 1 and nh > 1 and row * src.itemsize <= _SHORT_RUN_BYTES
    if shifted:
        copies = np.empty(kw * C * (nd + kd - 1) * (nh + kh - 1) * row, dtype=src.dtype)
    for d in range(0, Do, nd):
        for h in range(0, Ho, nh):
            n_d, n_h = min(nd, Do - d), min(nh, Ho - h)
            shape = (C, kd, kh, kw, n_d, n_h, Wo, B)
            if shifted:
                slab = (kw, C, n_d + kd - 1, n_h + kh - 1, Wo, B)
                part = copies[:math.prod(slab)].reshape(slab)
                np.copyto(part, np.ndarray(slab, src.dtype, readonly, origin + sd * d + sh * h,
                                           (sw, sc, sd, sh, sw, sb)))
                t_kw, t_c, t_d, t_h, t_w, t_b = part.strides
                chunk = np.ndarray(shape, src.dtype, memoryview(part).toreadonly(), 0,
                                   (t_c, t_d, t_h, t_kw, t_d, t_h, t_w, t_b))
            else:
                chunk = np.ndarray(shape, src.dtype, readonly,
                                   origin + (sd * d + sh * h) * stride,
                                   (sc, sd, sh, sw, sd * stride, sh * stride, sw * stride, sb))
            n = n_d * n_h * row
            col = buf[:K * n].reshape(shape)
            np.copyto(col, chunk)
            c0 = d * plane + h * row
            yield c0, c0 + n, (slice(d, d + n_d), slice(h, h + n_h)), col.reshape(K, n)


def _residue_classes(n: int, k: int, stride: int, pad: int) -> list[tuple[int, ...]]:
    """Split one input axis of a strided correlation by residue class.

    Input index i sits at padded position i + pad = stride*m + r, which only
    the taps r + stride*j reach, from outputs m - j. For each class with at
    least one tap and one input index this returns (first reversed tap,
    first input index, lo, hi): the class's input-gradient is the
    correlation of the output gradient window [lo, hi) with its taps
    reversed, which are every ``stride``-th entry of the reversed kernel
    axis from the first. lo < 0 or hi past the output extent stand for zero
    outputs.
    """
    classes = []
    for r in range(min(stride, k)):
        first = (r - pad) % stride
        if first < n:
            m = (first + pad) // stride
            lo = m - len(range(r, k, stride)) + 1
            classes.append(((k - 1 - r) % stride, first, lo,
                            m + (n - 1 - first) // stride + 1))
    return classes


def conv3d(x, kernel, stride: int = 1, pad: int = 0) -> Tensor:
    """3-d cross-correlation over a (B, C, D, H, W) input.

    Zero padding of ``pad`` voxels on every spatial face, a single integer
    stride shared by all three axes, and summation over input channels. With
    ``pad = (k - 1) // 2`` (odd k) each output extent is ceil(in / stride).

    The kernel is laid out (C_out, C_in, kd, kh, kw). ``_pad_batch_last``
    copies the input once, padded and batch-last. Its patch matrix is
    (K, V*B), K = C_in*kd*kh*kw patch entries by V output voxels per batch
    entry, columns in (Do, Ho, Wo, B) order, so the gather copies runs of
    Wo*B floats rather than Wo. It is never formed whole: ``_patch_chunks``
    gathers it in runs of output depth planes, or of output rows where one
    plane exceeds ``_PATCH_BYTES``, into one buffer per call of at most
    ``_PATCH_BYTES`` (at least one row), and every direction is a 2-D GEMM
    per chunk:

    - forward: the (C_out, K) kernel matrix times each chunk, written into
      its columns of one (C_out, V*B) product, then one transpose of that
      to batch-first (a view at B=1);
    - input gradient: a stride-1 correlation of the output gradient with
      the flipped, channel-swapped kernel, through the same chunks on
      windows of the output gradient padded once, batch-last. It is split
      into stride**3 residue classes: input positions ``stride*q + r``
      (padded coordinates) see only the taps ``r + stride*j``, so each class
      is one GEMM per chunk over its own taps and no zero-dilated gradient
      is formed. Stride 1 is the one-class case. Each class fills its
      positions of a batch-last input gradient, transposed once as it is
      accumulated;
    - kernel gradient, with the input tracked: from the same output-gradient
      chunks, so backward gathers once per residue class. By
      gk[co, ci, t] = sum over input positions q of x[ci, q] * g[co, q - t],
      a chunk times its class's input positions, laid out (positions, C_in),
      adds to a (C_out * taps, C_in) block of the flipped kernel gradient;
    - kernel gradient, with the input untracked (the stem in training): the
      sum over chunks of input patches times the output-gradient columns,
      (K, C_out), transposed once at the end. The output-gradient patches
      would be C_out/C_in times larger here.

    The patches are not kept from the forward pass: backward gathers again,
    and the closure keeps the input for the kernel gradient alone, so a
    tracked conv retains at most its output and its input (activation
    recomputation). The input must not change in place before backward.

    A conv whose copy runs of Wo*B items are at most ``_SHORT_RUN_BYTES``
    and whose patch matrix has at most ``_INDEX_ENTRIES`` entries (at desk
    scale: from stage 2's stride-2 conv down at B=1, except stage 2's
    stride-1 3x3x3 convs; at B=6 the 16->32 stride-2 conv and two 1x1
    projections; no conv at B=16) takes neither chunks nor residue classes.
    ``_patch_index`` gives the flat positions of its whole patch matrix in
    the padded batch-last input, cached per shape, and:

    - forward: one ``take`` through the index, then the same GEMM;
    - input gradient: the kernel matrix transposed times the output
      gradient, (K, V*B), summed back into the padded input by
      ``np.bincount`` over the same index and cropped;
    - kernel gradient: the output gradient times the transposed ``take``.

    ``take`` and ``bincount`` over one index are an exact adjoint pair, for
    any stride. ``bincount`` sums in float64 in index order, which is
    deterministic but not the chunk path's order, so the input gradient
    differs from it at rounding level (and so may ``cv`` output bytes).

    A chunk's GEMM is split into column blocks of at most ``_GEMM_MACS``
    multiply-adds, which OpenBLAS runs through its small-matrix kernel, where
    a block keeps at least ``_GEMM_MIN_COLS`` columns; wider operands stay
    one GEMM per chunk. A split kernel-gradient GEMM reads its (positions,
    channels) operand contiguous, an unsplit one as the transpose of a
    (channels, positions) array (``_rows``). So results depend on the chunk
    and block widths at rounding level: a batch of volumes and each volume
    alone, or two patch budgets, agree to rounding, not bit for bit.

    Transients beyond the arrays a direction returns are thus one patch
    buffer (and, for short copy runs, a buffer of tap-shifted input copies
    no larger) plus input- or output-sized copies, whatever the batch.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    xd, w = x.data, kernel.data
    x_shape, k_shape = xd.shape, w.shape
    out_ext = _conv_extents(x_shape, k_shape, stride, pad)
    out_data = _conv3d_forward(xd, w, stride, pad, out_ext)
    rx, rk = x._tape, kernel._tape
    # The input feeds only the kernel gradient and the kernel only the input's.
    xd = xd if rk.requires_grad else None
    w = w if rx.requires_grad else None

    def backward_fn(g):
        _feed((rx, rk), _conv3d_grads(g, xd, w, x_shape, k_shape, stride, pad))

    return _node(out_data, (rx, rk), backward_fn,
                 math.prod(k_shape[1:]) * out_data.size)


def _conv_extents(x_shape, k_shape, stride: int, pad: int) -> tuple[int, int, int]:
    """Output extents of ``conv3d`` for these shapes; ``ShapeError`` where
    they do not chain."""
    if len(x_shape) != 5 or len(k_shape) != 5:
        raise ShapeError(f"conv3d expects a (B, C, D, H, W) input and a 5-d kernel, "
                         f"got shapes {x_shape} and {k_shape}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv3d needs stride >= 1 and pad >= 0, got {stride} and {pad}")
    if k_shape[1] != x_shape[1]:
        raise ShapeError(
            f"conv3d: input has {x_shape[1]} channels but kernel expects {k_shape[1]} "
            f"(input {x_shape}, kernel {k_shape})"
        )
    padded = tuple(n + 2 * pad for n in x_shape[2:])
    if any(k > n for k, n in zip(k_shape[2:], padded)):
        raise ShapeError(f"conv3d: kernel {tuple(k_shape[2:])} exceeds padded input {padded}")
    return tuple((n - k) // stride + 1 for n, k in zip(padded, k_shape[2:]))


def _conv3d_forward(xd: np.ndarray, w: np.ndarray, stride: int, pad: int,
                    out_ext) -> np.ndarray:
    """The (B, C_out, Do, Ho, Wo) output of ``conv3d``."""
    B, C = xd.shape[:2]
    Co, ksize = w.shape[0], w.shape[2:]
    w2 = w.reshape(Co, -1)
    width = _gemm_width(w.size)
    out = np.empty((Co, math.prod(out_ext) * B), dtype=np.result_type(xd, w))
    xp = _pad_batch_last(xd, pad)
    if _indexed(C, ksize, out_ext, B, xd.itemsize):
        # The method, as np.take's wrapper left a block per call alive that
        # tracemalloc counts as retained graph bytes.
        _matmul_blocks(w2, xp.take(_patch_index(xp.shape, ksize, out_ext, stride)), out, width)
    else:
        for c0, c1, _, col in _patch_chunks(xp, (0, 0, 0), ksize, out_ext, stride):
            _matmul_blocks(w2, col, out[:, c0:c1], width)
    xp = None  # the padded copy, freed before the output transpose allocates
    return np.ascontiguousarray(out.reshape(Co, *out_ext, B).transpose(4, 0, 1, 2, 3))


def _conv3d_grads(g: np.ndarray, xd, w, x_shape, k_shape, stride: int, pad: int):
    """``conv3d``'s (gx, gk) for the output gradient ``g``: gx from the
    kernel ``w`` and gk from the input ``xd``, each None where its source is
    None. ``x_shape`` and ``k_shape`` are the input's and kernel's shapes.
    gx may be a batch-last view."""
    B, C, extents = x_shape[0], x_shape[1], tuple(x_shape[2:])
    Co, ksize, out_ext = k_shape[0], tuple(k_shape[2:]), g.shape[2:]
    gx = gk = None
    if _indexed(C, ksize, out_ext, B, g.itemsize):
        padded = (C, *(n + 2 * pad for n in extents), B)
        index = _patch_index(padded, ksize, out_ext, stride)
        g = g.transpose(1, 2, 3, 4, 0).reshape(Co, -1)
        if xd is not None:
            gk = (g @ _pad_batch_last(xd, pad).take(index).T).reshape(k_shape)
        if w is not None:
            gx = np.bincount(index.ravel(), (w.reshape(Co, -1).T @ g).ravel(),
                             math.prod(padded)).reshape(padded)
            gx = gx[:, pad:pad + extents[0], pad:pad + extents[1],
                    pad:pad + extents[2]].transpose(4, 0, 1, 2, 3)
        return gx, gk
    if w is None:  # an untracked input: the kernel gradient from input patches
        gk = np.zeros((C * math.prod(ksize), Co), g.dtype)
        width = _gemm_width(gk.size)
        for _, _, (ds, hs), col in _patch_chunks(_pad_batch_last(xd, pad), (0, 0, 0),
                                                 ksize, out_ext, stride):
            _matmul_sum(col, _rows(g[:, :, ds, hs], width > 0), gk, width)
        col = None  # the patch buffer; the result below may reuse its memory
        return None, gk.T.reshape(k_shape)
    classes = [_residue_classes(n, k, stride, pad) for n, k in zip(extents, ksize)]
    margin = max([0] + [max(-lo, hi - n_out) for axis, n_out in zip(classes, out_ext)
                        for _, _, lo, hi in axis])
    g = _pad_batch_last(g, margin)
    gx = np.zeros((C, *extents, B), dtype=g.dtype)
    if stride > 1:  # one class's gradient, before it is spread into gx
        spread = np.empty(C * B * math.prod(-(-n // stride) for n in extents), g.dtype)
    if xd is not None:  # the kernel gradient, flipped: (C_out, kd, kh, kw, C_in)
        gk = np.zeros((Co, *ksize, C), g.dtype)
    flipped = w.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
    for (td, fd, ld, _), (th, fh, lh, _), (tw, fw, lw, _) in itertools.product(*classes):
        taps = flipped[:, :, td::stride, th::stride, tw::stride]
        taps2 = taps.reshape(C, -1)
        width = _gemm_width(taps.size)
        target = gx[:, fd::stride, fh::stride, fw::stride]
        res = (target if stride == 1 else spread[:target.size]).reshape(C, -1)
        if xd is not None:
            xq = xd[:, :, fd::stride, fh::stride, fw::stride]
            acc = gk[:, td::stride, th::stride, tw::stride]
        corner = (margin + ld, margin + lh, margin + lw)
        for c0, c1, (ds, hs), col in _patch_chunks(g, corner, taps.shape[2:],
                                                   target.shape[1:4], 1):
            _matmul_blocks(taps2, col, res[:, c0:c1], width)
            if xd is not None:
                _matmul_sum(col, _rows(xq[:, :, ds, hs], width > 0), acc, width)
        if stride > 1:
            target[...] = res.reshape(target.shape)
    if xd is not None:
        gk = gk[:, ::-1, ::-1, ::-1].transpose(0, 4, 1, 2, 3)
    return gx.transpose(4, 0, 1, 2, 3), gk


# ---------------------------------------------------------------------------
# composite numeric blocks


def softmax(x, axis: int = -1) -> Tensor:
    """Row-stochastic exponential normalization, max-subtracted for stability.

    Subtracting the per-row maximum leaves both the value and the gradient
    unchanged because the map is shift invariant. One tape node that keeps
    only its output y, with gx = y·(g − Σ g·y) along ``axis``. It counts no
    multiply-adds.
    """
    x = _as_tensor(x)
    y = _softmax(x.data, axis)
    rx = x._tape

    def backward_fn(g):
        rx._accum(_softmax_grad(g, y, axis))

    return _node(y, (rx,), backward_fn)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """exp(x − max) normalized along ``axis``: the forward of ``softmax`` and
    of the masks in ``_attend``."""
    y = np.exp(x - _row_max(x, axis))
    y /= y.sum(axis=axis, keepdims=True)
    return y


# numpy's max along a short last axis pays per row: on a desk B=16 stage-3
# mask array, (16, 8, 12, 12) float32, it took 118 us, against 21 us for a
# loop of np.maximum over the 12 columns. The loop's fixed cost loses below
# _SHORT_ROW_MIN_SIZE elements: a B=1 mask array took 8.5 us with x.max and
# 12.7 us looped (one thread, Xeon).
_SHORT_ROW = 32
_SHORT_ROW_MIN_SIZE = 4096


def _row_max(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.max(axis=axis, keepdims=True)``; a last axis of at most
    ``_SHORT_ROW`` entries in an array of at least ``_SHORT_ROW_MIN_SIZE``
    is taken column by column. Bit for bit, NaN included, but for the sign
    of a zero maximum, which x − max does not see."""
    if (axis % x.ndim != x.ndim - 1 or x.shape[-1] > _SHORT_ROW
            or x.size < _SHORT_ROW_MIN_SIZE):
        return x.max(axis=axis, keepdims=True)
    top = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j:j + 1], out=top)
    return top


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of a softmax with output ``y``: y·(g − Σ g·y)."""
    gx = g - (g * y).sum(axis=axis, keepdims=True)
    gx *= y
    return gx


def _feed(records, grads) -> None:
    """Hand each gradient that is not None to its record if that record is
    tracked: each is fresh, built by the calling closure and held nowhere
    else. A fused node takes the gradients of its parameters as one group,
    so a parameter left untracked beside tracked ones gets no ``.grad``."""
    for record, grad in zip(records, grads):
        if grad is not None and record.requires_grad:
            record._accum(grad, fresh=True)


def _mlp_hidden(rows: np.ndarray, w1: np.ndarray, b1) -> np.ndarray:
    """relu(rows @ w1 + b1), the hidden layer of ``_mlp_forward``."""
    h = rows @ w1
    if b1 is not None:
        h += b1
    return np.maximum(h, 0, out=h)


def _mlp_forward(rows: np.ndarray, w1: np.ndarray, w2: np.ndarray, b1=None, b2=None):
    """A residual MLP over a (M, K) matrix of rows, rows + (relu(rows @ w1
    + b1) @ w2 + b2), each layer one GEMM, with ``w1`` (K, H), ``w2`` (H, K)
    and the optional biases (H,) and (K,)."""
    y = _mlp_hidden(rows, w1, b1) @ w2
    if b2 is not None:
        y += b2
    y += rows
    return y


def _mlp_grads(g2: np.ndarray, rows: np.ndarray, w1, w2, b1, on_x: bool, on_w: bool):
    """``_mlp_forward``'s (gx, gw1, gw2, gb1) for the output gradient ``g2``
    of ``rows``, both (M, K): gx None where ``on_x`` is off, the weights'
    None where ``on_w`` is off, and gb1 None without ``b1``. No caller
    keeps the hidden layer: it is recomputed here, h = relu(rows @ w1 + b1)
    with one GEMM (Chen et al. 2016). Then with gh = (g2 @ w2ᵀ)·[h > 0],
    gx = g2 + gh @ w1ᵀ, gw1 = rowsᵀ gh, gb1 = Σ gh and gw2 = hᵀ g2;
    gb2 = Σ g2 is the caller's."""
    h = _mlp_hidden(rows, w1, b1)
    gx = gw1 = gw2 = gb1 = None
    gh = g2 @ w2.T
    gh *= h > 0
    if on_w:
        gw2 = h.T @ g2
        gw1 = rows.T @ gh
        gb1 = None if b1 is None else gh.sum(axis=0)
    del h
    if on_x:
        gx = gh @ w1.T
        gx += g2
    return gx, gw1, gw2, gb1


def token_channel_mixing(x, w_spatial_in, w_spatial_out, w_channel_in,
                         w_channel_out) -> Tensor:
    """An ``SGABlock``: token mixing, then channel mixing, both residual.

    ``x`` is (B, N, C) tokens; the weights are laid out as the block holds
    them, ``w_spatial_in`` (Hs, N), ``w_spatial_out`` (N, Hs),
    ``w_channel_in`` (Hc, C) and ``w_channel_out`` (C, Hc). Token mixing is
    the residual MLP of ``_mlp_forward`` over the (B, C, N) transpose of
    ``x`` with the spatial weights transposed,
    m = xᵀ + relu(xᵀ w_spatial_inᵀ) w_spatial_outᵀ; channel mixing is the
    same over mᵀ with the channel weights transposed. One tape node whose
    closure keeps ``x`` and the weights, not the token-mixed tokens m or
    either hidden layer: backward recomputes m, once, and then takes both
    stages' gradients with ``_mlp_grads`` for two groups, ``x`` and the four
    weights, skipping a group whose inputs are all untracked. Output,
    gradients and the GEMMs' multiply-adds it counts, 2·B·N·C·(Hs + Hc),
    equal those of the transpose, matmul, relu and add chain it replaces
    bit for bit.
    """
    tensors = [_as_tensor(t) for t in (x, w_spatial_in, w_spatial_out, w_channel_in,
                                       w_channel_out)]
    xd, si, so, ci, co = (t.data for t in tensors)
    B, N, C = xd.shape if xd.ndim == 3 else (-1, -1, -1)
    hs = si.shape[0] if si.ndim == 2 else -1
    hc = ci.shape[0] if ci.ndim == 2 else -1
    if (C < 0 or si.shape != (hs, N) or so.shape != (N, hs) or ci.shape != (hc, C)
            or co.shape != (C, hc)):
        raise ShapeError(
            f"token_channel_mixing: x {xd.shape}, w_spatial_in {si.shape}, "
            f"w_spatial_out {so.shape}, w_channel_in {ci.shape} and w_channel_out "
            f"{co.shape} do not chain as (B, N, C), (Hs, N), (N, Hs), (Hc, C), (C, Hc)")

    def swapped(a, n):
        """The rows of (B, n, ·) data ``a`` with its last two axes swapped:
        channel columns of tokens (n = N) or token rows of columns (n = C)."""
        return _fold(a.reshape(B, n, -1).transpose(0, 2, 1))

    rows = swapped(xd, N)  # a view where x is a (B, C, N) transpose
    mixed = _mlp_forward(rows, si.T, so.T)
    y = _mlp_forward(swapped(mixed, C), ci.T, co.T)
    records = rx, *rws = tuple(t._tape for t in tensors)
    on_x, on_w = rx.requires_grad, any(r.requires_grad for r in rws)

    def backward_fn(g):
        rows = swapped(xd, N)
        mixed = _mlp_forward(rows, si.T, so.T)
        gm, gci, gco, _ = _mlp_grads(_fold(g), swapped(mixed, C), ci.T, co.T, None,
                                     True, on_w)
        del mixed
        gx, gsi, gso, _ = _mlp_grads(swapped(gm, N), rows, si.T, so.T, None, on_x, on_w)
        if on_w:
            _feed(rws, (gsi.T, gso.T, gci.T, gco.T))
        if on_x:
            rx._accum(gx.reshape(B, C, N).transpose(0, 2, 1), fresh=True)

    return _node(y.reshape(B, N, C), records, backward_fn, 2 * B * N * C * (hs + hc))


def _attend(zd: np.ndarray, wd: np.ndarray, heads: int):
    """q, k, v and the masks of multi-head self-attention over (B, N, C)
    tokens with the (C, 3C) projection ``wd``, each (B, heads, N, ·), in
    the order of the matmul, narrow, scale and softmax chain. C is a
    multiple of ``heads`` and hd = C / heads: head i's q, k and v are
    columns [3·hd·i, 3·hd·(i+1)) of z @ wd, in that order, and its mask is
    m = softmax(q kᵀ / √hd) over the keys."""
    B, N, C = zd.shape
    hd = C // heads
    lin = (_fold(zd) @ wd).reshape(B, N, heads, 3 * hd).transpose(0, 2, 1, 3)
    q, k, v = (lin[..., i * hd:(i + 1) * hd] for i in range(3))
    s = np.matmul(q, k.swapaxes(-1, -2))
    s *= 1.0 / math.sqrt(hd)
    return q, k, v, _softmax(s, -1)


def _merge(heads_out: np.ndarray) -> np.ndarray:
    """(B, heads, N, hd) head outputs m v as (B·N, C) rows, heads
    concatenated, the input of the output projection."""
    B, heads, N, hd = heads_out.shape
    return heads_out.transpose(0, 2, 1, 3).reshape(B * N, heads * hd)


def _attention_forward(zd: np.ndarray, wd: np.ndarray, od: np.ndarray, heads: int):
    """y = z + MSA(z) over (B, N, C) tokens: the merged heads of ``_attend``
    projected by the (C, C) ``od``, plus the residual. Also returns the q,
    k, v and masks of ``_attend`` and the merged heads, which
    ``_attention_grads`` reads."""
    q, k, v, masks = _attend(zd, wd, heads)
    merged = _merge(np.matmul(masks, v))
    y = (merged @ od).reshape(zd.shape)
    y += zd
    return y, (q, k, v, masks, merged)


def _attention_grads(g: np.ndarray, zd: np.ndarray, wd, od, q, k, v, masks, merged,
                     on_w: bool):
    """``_attention_forward``'s (gz, gqkv, gout_proj) for the output gradient
    ``g`` of tokens ``zd``, the weights' None where ``on_w`` is off, from
    the q, k, v, masks and merged heads it returned; a caller recomputes
    those rather than keeping them, as FlashAttention does (Dao et al.
    2022). Per head, with go = g out_projᵀ for that head and
    gs = softmax_grad(go vᵀ) / √hd: gq = gs k, gk = gsᵀ q, gv = mᵀ go,
    gz = g + [gq gk gv] qkvᵀ, gqkv = zᵀ [gq gk gv] and
    gout_proj = mergedᵀ g."""
    B, heads, N, hd = q.shape
    C = heads * hd
    g2 = _fold(g)
    gw = gout = None
    if on_w:
        gout = merged.T @ g2
    go = (g2 @ od.T).reshape(B, N, heads, hd).transpose(0, 2, 1, 3)
    gs = _softmax_grad(np.matmul(go, v.swapaxes(-1, -2)), masks, -1)
    gs *= 1.0 / math.sqrt(hd)
    glin = np.empty((B, N, heads, 3 * hd), gs.dtype)
    glin[..., 2 * hd:] = np.matmul(masks.swapaxes(-1, -2), go).transpose(0, 2, 1, 3)
    del go
    glin[..., :hd] = np.matmul(gs, k).transpose(0, 2, 1, 3)
    glin[..., hd:2 * hd] = np.matmul(q.swapaxes(-1, -2), gs).transpose(0, 3, 1, 2)
    del gs
    glin = glin.reshape(B * N, 3 * C)
    if on_w:
        gw = _fold(zd).T @ glin
    gz = (glin @ wd.T).reshape(B, N, C)
    gz += g
    return gz, gw, gout


def attention_block(x, pos, qkv, out_proj, heads: int, ff_w_in, ff_b_in, ff_w_out,
                    ff_b_out) -> Tensor:
    """A ``DGABlock``: z0 = x + pos, z1 = z0 + MSA(z0), y = z1 + FF(z1).

    ``x`` is (B, N, C) tokens and ``pos`` (N, C); ``qkv`` (C, 3C),
    ``out_proj`` (C, C) and ``heads`` lay out self-attention as ``_attend``
    says, and FF(z1) = relu(z1 @ ff_w_in + ff_b_in) @ ff_w_out + ff_b_out,
    with ``ff_w_in`` (C, H), ``ff_b_in`` (H,), ``ff_w_out`` (H, C) and
    ``ff_b_out`` (C,), the residual MLP of ``_mlp_forward``. One tape node
    whose closure keeps ``x``, ``pos`` and the weights, not z0, z1, q, k, v,
    the masks or the hidden layer: backward recomputes z0, then q, k, v,
    the masks and z1 with ``_attention_forward``, once, and takes the
    feed-forward's gradients (``_mlp_grads``) and then self-attention's
    (``_attention_grads``) from them; gx = gz0 and gpos = Σ gz0 over the
    batch. Gradients are taken for two groups, ``x`` and the parameters
    (``pos`` and the seven weights), skipping a group whose inputs are all
    untracked. Output, gradients and the GEMMs' multiply-adds it counts,
    2·B·N·C·(2C + N + H) for the projections, the scores and weighted sum,
    and the feed-forward, equal those of the add, self-attention and
    feed-forward chains it replaces bit for bit.
    """
    tensors = [_as_tensor(t) for t in (x, pos, qkv, out_proj, ff_w_in, ff_b_in, ff_w_out,
                                       ff_b_out)]
    xd, pd, wd, od, f1, fb1, f2, fb2 = (t.data for t in tensors)
    B, N, C = xd.shape if xd.ndim == 3 else (-1, -1, -1)
    H = f1.shape[-1] if f1.ndim == 2 else -1
    if (C < 0 or heads < 1 or C % heads or pd.shape != (N, C) or wd.shape != (C, 3 * C)
            or od.shape != (C, C) or f1.shape != (C, H) or fb1.shape != (H,)
            or f2.shape != (H, C) or fb2.shape != (C,)):
        raise ShapeError(
            f"attention_block: x {xd.shape}, pos {pd.shape}, qkv {wd.shape}, out_proj "
            f"{od.shape}, {heads} heads, ff_w_in {f1.shape}, ff_b_in {fb1.shape}, "
            f"ff_w_out {f2.shape} and ff_b_out {fb2.shape} do not chain as (B, N, C), "
            f"(N, C), (C, 3C), (C, C), heads dividing C, (C, H), (H,), (H, C), (C,)")
    z1 = _attention_forward(xd + pd, wd, od, heads)[0]
    y = _mlp_forward(_fold(z1), f1, f2, fb1, fb2)
    records = rx, *rws = tuple(t._tape for t in tensors)
    on_x, on_w = rx.requires_grad, any(r.requires_grad for r in rws)

    def backward_fn(g):
        g2 = _fold(g)
        z0 = xd + pd
        z1, attended = _attention_forward(z0, wd, od, heads)
        gz1, g1, gw2, gb1 = _mlp_grads(g2, _fold(z1), f1, f2, fb1, True, on_w)
        del z1
        gz0, gw, gout = _attention_grads(gz1.reshape(B, N, C), z0, wd, od, *attended, on_w)
        if on_w:
            _feed(rws, (gz0.sum(axis=0), gw, gout, g1, gb1, gw2, g2.sum(axis=0)))
        if on_x:
            rx._accum(gz0, fresh=True)

    return _node(y.reshape(B, N, C), records, backward_fn, 2 * B * N * C * (2 * C + N + H))


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
    ``mean`` and ``var`` are replaced, never written in place: ``update``
    assigns new arrays, so a caller that keeps the old ones can put them
    back, and so does a checkpoint load. ``eval_constants`` caches
    evaluation mode's μ and inv = 1/sqrt(var + eps), one entry, against the
    identity of the two arrays, holding them so that an id cannot be reused;
    assigning either one drops the entry, and writing into one in place
    would leave it stale.
    """

    __slots__ = ("mean", "var", "_cache")

    def __init__(self, mean=None, var=None):
        self.mean = mean
        self.var = var
        self._cache = None

    def initialized(self) -> bool:
        return self.mean is not None

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray, momentum: float) -> None:
        if not self.initialized():
            self.mean = batch_mean.copy()
            self.var = batch_var.copy()
        else:
            self.mean = (1.0 - momentum) * self.mean + momentum * batch_mean
            self.var = (1.0 - momentum) * self.var + momentum * batch_var

    def eval_constants(self, eps: float, dtype, bshape) -> tuple[np.ndarray, np.ndarray]:
        """Read-only μ and inv = 1/sqrt(var + eps) as ``dtype`` arrays of
        shape ``bshape`` = (1, C, 1, ...) for the current ``mean`` and
        ``var``; rebuilt when any of the five differs from the last call."""
        mean, var, key = self.mean, self.var, (eps, dtype, bshape)
        cache = self._cache
        if cache is None or cache[0] is not mean or cache[1] is not var or cache[2] != key:
            mu = mean.reshape(bshape).astype(dtype)
            inv = (1.0 / np.sqrt(var + eps)).reshape(bshape).astype(dtype)
            mu.flags.writeable = inv.flags.writeable = False
            cache = self._cache = mean, var, key, mu, inv
        return cache[3], cache[4]


def batch_norm(x, gamma, beta, training: bool, stats: RunningStats | None = None,
               eps: float = 1e-5, momentum: float = 0.1) -> Tensor:
    """Per-channel standardization over batch and spatial axes, then affine.

    ``x`` is (B, C, ...) with channels on axis 1. Training mode normalizes
    with batch statistics (population variance) and updates ``stats``;
    evaluation mode requires previously accumulated ``stats``.

    One tape node, y = (x − μ)·inv·γ + β with inv = 1/sqrt(var + eps). Its
    closure keeps ``x``'s array, μ, inv and γ's array, and backward
    recomputes x̂ = (x − μ)·inv and inv·γ. In evaluation mode μ and inv are
    ``stats.eval_constants``, built once per running-stat arrays, so an
    evaluation node keeps no per-channel array of its own. Training backward
    is the closed form gx = inv·γ·(g − mean g − x̂·mean(g·x̂)); in evaluation
    mode μ and inv are constants and gx = g·inv·γ; in both gγ = Σ g·x̂ and
    gβ = Σ g. Each per-channel sum is one ``einsum`` contraction
    (``_channel_sum``): Σx for μ, Σ(x − μ) for the residual that corrects it
    (the corrected two-pass algorithm, so float32 holds at an input mean far
    from 0), Σ(x − μ)² for var, Σ g·x̂ and Σg, the last shared by gβ and the
    training gx; none forms a squared or product temporary. It counts no
    multiply-adds.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xd = x.data
    gd = gamma.data
    y, mu, inv = _bn_forward(xd, gd, beta.data, training, stats, eps, momentum)
    rx, rg, rb = x._tape, gamma._tape, beta._tape
    on_x, on_params = rx.requires_grad, rg.requires_grad or rb.requires_grad
    # x-hat feeds the parameters' gradients and, in training mode, the input's.
    xd = xd if on_params or (training and on_x) else None

    def backward_fn(g):
        _feed((rx, rg, rb), _bn_grads(g, None if xd is None else xd - mu, inv,
                                      inv * gd.reshape(inv.shape), training, on_x, on_params))

    return _node(y, (rx, rg, rb), backward_fn)


def _bn_forward(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray, training: bool,
                stats: RunningStats | None, eps: float, momentum: float):
    """``batch_norm``'s output y = (x − μ)·inv·γ + β and its μ and
    inv = 1/sqrt(var + eps), each shaped (1, C, 1, ...); updates ``stats`` in
    training mode. Evaluation mode's μ and inv are the read-only arrays that
    ``stats`` caches."""
    if xd.ndim < 2:
        raise ShapeError(f"batch_norm input must have a channel axis, got {xd.shape}")
    C = xd.shape[1]
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(
            f"batch_norm: gamma/beta shapes {gamma.shape}/{beta.shape} "
            f"do not match {C} channels"
        )
    bshape = (1, C) + (1,) * (xd.ndim - 2)
    if training:
        if xd.shape[0] < 1:
            raise ShapeError("batch_norm training mode requires a non-empty batch")
        n = xd.shape[0] * math.prod(xd.shape[2:])
        # Each division makes an array of its own, not a view of a (C,) one,
        # which would keep a second array object alive with the closure.
        mu = _channel_sum(xd).reshape(bshape) / n
        y = xd - mu
        # The corrected two-pass algorithm (Chan, Golub & LeVeque 1983): the
        # mean r of x − μ is the float32 sum's error in μ, which would shift
        # every x̂ by r/σ at an input mean far from 0. μ takes r; y keeps it,
        # and the shift below subtracts it with the scale, so no second pass
        # over x − μ is made: the output is that of x − (μ + r) to rounding,
        # and backward recomputes x − μ from the corrected μ.
        # Σ(y − r)² = Σy² − n·r².
        r = _channel_sum(y).reshape(bshape) / n
        var = _channel_sum(y, y).reshape(bshape) / n - r * r
        mu += r
        if stats is not None:
            stats.update(mu.reshape(C).astype(np.float64),
                         var.reshape(C).astype(np.float64), momentum)
        inv = 1.0 / np.sqrt(var + eps)
        scale = inv * gamma.reshape(bshape)
        y *= scale
        y += beta.reshape(bshape) - r * scale
        return y, mu, inv
    if stats is None or not stats.initialized():
        raise StateError(
            "batch_norm evaluation mode requires running statistics; "
            "train at least one batch first"
        )
    mu, inv = stats.eval_constants(eps, xd.dtype, bshape)
    y = xd - mu
    y *= inv * gamma.reshape(bshape)
    y += beta.reshape(bshape)
    return y, mu, inv


def _bn_grads(g: np.ndarray, centered, inv, scale, training: bool, on_x: bool,
              on_params: bool):
    """``batch_norm``'s (gx, gγ, gβ) for the output gradient ``g``: gx None
    where ``on_x`` is off, gγ and gβ None where neither ``on_params`` nor,
    in training mode, ``on_x`` needs them. ``centered``, the input minus μ,
    is read only there, and is overwritten with x̂; elsewhere it may be
    None."""
    gx = gxhat = gsum = None
    if on_params or (training and on_x):
        xhat = centered
        xhat *= inv
        gxhat = _channel_sum(g, xhat)
        gsum = _channel_sum(g)
    if on_x and not training:
        gx = g * scale
    elif on_x:
        n = g.shape[0] * math.prod(g.shape[2:])
        gx = g - (gsum / n).reshape(inv.shape)
        xhat *= (gxhat / n).reshape(inv.shape)
        gx -= xhat
        gx *= scale
    return gx, gxhat, gsum


def _channel_sum(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """The (C,) sums of ``a``, or of a·b, over every axis but axis 1, as one
    ``einsum`` contraction: no product temporary, and no copy of an array
    whose layout is not C-contiguous."""
    axes = "bcdefghijk"[:a.ndim]
    if b is None:
        return np.einsum(f"{axes}->c", a)
    return np.einsum(f"{axes},{axes}->c", a, b)


def bn_relu_conv3d(x, gamma, beta, kernel, training: bool,
                   stats: RunningStats | None = None, eps: float = 1e-5,
                   momentum: float = 0.1, stride: int = 1, pad: int = 0) -> Tensor:
    """conv3d(relu(batch_norm(x)), kernel): the middle of a residual block.

    ``x``, ``gamma``, ``beta``, ``training``, ``stats``, ``eps`` and
    ``momentum`` are as in ``batch_norm``, whose running-stat update happens
    once, here in forward; ``kernel``, ``stride`` and ``pad`` as in
    ``conv3d``. One tape node whose closure keeps ``x``, μ and inv (in
    evaluation mode the ones ``stats`` caches), the arrays of γ and β and the
    kernel, not h = relu(batch_norm(x)): backward rebuilds inv·γ, recomputes
    h with one scale, shift and max per element (Chen et al. 2016), then takes
    the kernel gradient from h, gh from the kernel as ``conv3d`` does, and
    batch norm's gradients, as ``batch_norm`` does, from gh·[h > 0]; h and,
    where those gradients read it, x̂ come from one x − μ. Gradients are
    taken for two groups, ``x`` and the parameters (γ, β and the kernel),
    skipping a group whose inputs are all untracked: with only ``x`` tracked
    in evaluation mode (``grad_cam``) backward is gh·[h > 0]·inv·γ. Output
    and gradients equal those of the batch_norm, relu and conv3d chain it
    replaces bit for bit. It counts the conv's multiply-adds only.
    """
    x, gamma, beta, kernel = (_as_tensor(t) for t in (x, gamma, beta, kernel))
    xd, w = x.data, kernel.data
    x_shape, k_shape = xd.shape, w.shape
    out_ext = _conv_extents(x_shape, k_shape, stride, pad)
    gd, bd = gamma.data, beta.data
    h, mu, inv = _bn_forward(xd, gd, bd, training, stats, eps, momentum)
    out_data = _conv3d_forward(np.maximum(h, 0, out=h), w, stride, pad, out_ext)
    del h
    records = rx, *rps = x._tape, gamma._tape, beta._tape, kernel._tape
    on_x, on_params = rx.requires_grad, any(r.requires_grad for r in rps)

    def backward_fn(g):
        on_xhat = on_params or (training and on_x)  # batch norm's gradients that read x − μ
        centered = xd - mu
        scale = inv * gd.reshape(inv.shape)
        h = centered * scale if on_xhat else np.multiply(centered, scale, out=centered)
        h += bd.reshape(inv.shape)
        if on_params:  # [h > 0] alone needs no max
            np.maximum(h, 0, out=h)
        gh, gk = _conv3d_grads(g, h if on_params else None, w, x_shape, k_shape, stride, pad)
        # Into h's buffer, which is laid out as x: gh may be a batch-last view.
        gh = np.multiply(gh, h > 0, out=h)
        del h
        gx, ggamma, gbeta = _bn_grads(gh, centered if on_xhat else None, inv, scale,
                                      training, on_x, on_params)
        del gh, centered
        _feed(records, (gx, ggamma, gbeta, gk))

    return _node(out_data, records, backward_fn, math.prod(k_shape[1:]) * out_data.size)


# ---------------------------------------------------------------------------
# backward sweep


_CONSUMED = "backward: this graph was already consumed by an earlier sweep"


def _swept(g):
    """Marks a node that a ``backward`` sweep has passed; calling it raises."""
    raise StateError(_CONSUMED)


def _closures_in_order(root: _Tape) -> list[_Tape]:
    """``root`` and the records reachable from it that have a closure,
    each after its parents.

    Depth-first: a record is pushed again when first reached (False in
    ``expanded``) and is listed when that entry pops (True); its other
    entries sit beneath and are skipped. Leaves are never pushed, which
    leaves the order of the rest as it would be with them. Raises
    ``StateError`` on reaching a consumed record.
    """
    order: list[_Tape] = []
    expanded: dict[_Tape, bool] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        state = expanded.get(node)
        if state is None:
            if node.backward is _swept:
                raise StateError(_CONSUMED)
            expanded[node] = False
            stack.append(node)
            for parent in node.parents:
                if parent.backward is not None and parent not in expanded:
                    stack.append(parent)
        elif not state:
            expanded[node] = True
            order.append(node)
    return order


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss through the recorded graph.

    Consumes the graph (see the module docstring). A sweep that would reach
    a consumed node raises ``StateError`` before any gradient is touched.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise StateError("backward: loss does not depend on any tracked tensor")
    root = loss._tape
    # The visit map dies with the helper, so a popped record and its
    # gradient are freed once the closures that read them have run.
    topo = _closures_in_order(root)
    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        fn = node.backward
        if fn is None:
            continue
        node.backward, node.parents = _swept, ()
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
