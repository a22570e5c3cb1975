"""Network building blocks on top of the tensor core.

Conventions:
  * every input carries a leading batch axis: volumetric features are
    (B, C, D, H, W) and token matrices (B, N, C), with tokens = flattened
    voxels and channels last. One volume is a batch of one; the single-volume
    entry points are ``model.forward_volume`` and ``localize.grad_cam``;
  * every layer is a ``Module``: ``children()`` names its parameters
    (``Tensor``) and sublayers (``Module``), by default the attributes that
    hold one in assignment order, and ``params()`` / ``norm_layers()`` walk
    that tree with dotted names, in checkpoint order;
  * blocks are pure functions of their parameters except batch-norm running
    statistics, which update in training mode only.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import RunningStats, Tensor, kaiming_uniform


def _standardize(x: Tensor, axes: tuple[int, ...], epsilon: float) -> Tensor:
    """Zero-mean / unit-variance over ``axes`` with a degenerate-input guard.

    The denominator guard is proportional to the standard deviation itself
    (std * (1 + eps) plus a subnormal floor), so the map stays exactly
    invariant to affine intensity transforms a*x + b with a > 0. Samples that
    are exactly constant are masked to all zeros with clean zero gradients
    instead of dividing rounding noise by a vanishing deviation.
    """
    mu = T.mean(x, axes, keepdims=True)
    centered = T.sub(x, mu)
    var = T.mean(T.mul(centered, centered), axes, keepdims=True)
    std = T.sqrt(var)
    vmax = x.data.max(axis=axes, keepdims=True)
    vmin = x.data.min(axis=axes, keepdims=True)
    alive = (vmax > vmin).astype(x.data.dtype)
    floor = float(np.finfo(x.data.dtype).tiny)
    denom = T.add(T.mul(std, 1.0 + epsilon), Tensor((1.0 - alive) + floor))
    return T.div(T.mul(centered, Tensor(alive)), denom)


class Module:
    """A layer whose trained state is the tree that ``children()`` names.

    ``params()`` and ``norm_layers()`` walk that tree depth first and name
    each entry by its dotted path from this module, in checkpoint order.
    """

    def children(self) -> list:
        """(name, Tensor or Module) pairs in checkpoint order; by default the
        attributes holding one, in assignment order."""
        return [(n, v) for n, v in vars(self).items() if isinstance(v, (Tensor, Module))]

    def _walk(self, prefix: str = ""):
        for name, child in self.children():
            yield prefix + name, child
            if isinstance(child, Module):
                yield from child._walk(f"{prefix}{name}.")

    def params(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._walk() if isinstance(t, Tensor)]

    def norm_layers(self) -> list[tuple[str, BatchNormLayer]]:
        return [(n, m) for n, m in self._walk() if isinstance(m, BatchNormLayer)]


class DataNormLayer(Module):
    """Per-volume intensity standardization applied sample by sample.

    Each sample of a (B, C, D, H, W) input is standardized over all of its
    own voxels, invariant to any per-sample affine intensity transform a*v + b
    (a > 0). A constant sample maps to all zeros. Parameter free.
    """

    def __init__(self, epsilon: float = 1e-6):
        self.epsilon = epsilon

    def forward(self, x: Tensor) -> Tensor:
        x = T._as_tensor(x)
        if x.ndim != 5:
            raise ShapeError(f"data norm expects (B, C, D, H, W), got {x.shape}")
        return _standardize(x, (1, 2, 3, 4), self.epsilon)


class Conv3dLayer(Module):
    """Bias-free 3-d convolution (cross-correlation) with fixed stride/pad."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int, pad: int, rng: np.random.Generator, dtype=np.float32):
        fan_in = in_channels * kernel ** 3
        self.stride = stride
        self.pad = pad
        self.weight = Tensor(
            kaiming_uniform((out_channels, in_channels, kernel, kernel, kernel),
                            fan_in, rng, dtype),
            requires_grad=True,
        )

    def forward(self, x: Tensor) -> Tensor:
        return T.conv3d(x, self.weight, self.stride, self.pad)


class BatchNormLayer(Module):
    """Per-channel batch normalization with learned scale and shift."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1,
                 dtype=np.float32):
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.stats = RunningStats()

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return T.batch_norm(x, self.gamma, self.beta, training, self.stats,
                            self.eps, self.momentum)


class ResidualConvBlock(Module):
    """Two same-padded 3x3x3 conv+BN stages with a residual shortcut.

    The first conv carries the block stride. When the stride or channel count
    changes shape, the shortcut becomes a strided 1x1x1 conv + BN projection;
    otherwise it is the identity. Output extents are ceil(input / stride).

    bn1, its ReLU and conv2 are one ``T.bn_relu_conv3d`` node, so a training
    forward keeps the first conv's output c1, the second's c2, the block
    output and, with a projection, the projection conv's output, but not
    h = relu(bn1(c1)), which backward recomputes from c1.
    """

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator, dtype=np.float32,
                 bn_eps: float = 1e-5, bn_momentum: float = 0.1):
        self.conv1 = Conv3dLayer(in_channels, out_channels, 3, stride, 1, rng, dtype)
        self.bn1 = BatchNormLayer(out_channels, bn_eps, bn_momentum, dtype)
        self.conv2 = Conv3dLayer(out_channels, out_channels, 3, 1, 1, rng, dtype)
        self.bn2 = BatchNormLayer(out_channels, bn_eps, bn_momentum, dtype)
        if stride != 1 or in_channels != out_channels:
            self.proj = Conv3dLayer(in_channels, out_channels, 1, stride, 0, rng, dtype)
            self.bn_proj = BatchNormLayer(out_channels, bn_eps, bn_momentum, dtype)
        else:
            self.proj = None
            self.bn_proj = None

    def forward(self, x: Tensor, training: bool) -> Tensor:
        bn1, conv2 = self.bn1, self.conv2
        h = T.bn_relu_conv3d(self.conv1.forward(x), bn1.gamma, bn1.beta, conv2.weight,
                             training, bn1.stats, bn1.eps, bn1.momentum, conv2.stride,
                             conv2.pad)
        h = self.bn2.forward(h, training)
        shortcut = x
        if self.proj is not None:
            shortcut = self.bn_proj.forward(self.proj.forward(x), training)
        return T.relu(T.add(h, shortcut))


def _token_batch(block, x) -> Tensor:
    """Check a (B, N, C) input against the N and C ``block`` was built for."""
    x = T._as_tensor(x)
    if x.ndim != 3 or x.shape[1:] != (block.tokens, block.channels):
        raise ShapeError(f"attention block expects (B, N, C) = (B, {block.tokens}, "
                         f"{block.channels}), got {x.shape}")
    return x


class SGABlock(Module):
    """Shallow global attention: token mixing then channel mixing, both residual.

    Each channel column (length N) is mixed through a two-layer bottleneck
    shared across channels, then each token row (length C) is mixed through a
    two-layer expansion shared across tokens. Cost is linear in the token
    count N; no NxN structure is ever materialized. The channel-mixing output
    projection starts at zero so that stage is the identity at init.

    The block is one ``T.token_channel_mixing`` node: token mixing is a
    residual MLP over the (B, C, N) transpose of the tokens and channel
    mixing one over the transpose of that result. Its closure keeps the
    input, a view of the stage's ReLU output that the graph keeps anyway,
    and the weights, so a training forward keeps only the output; backward
    recomputes the token-mixed tokens.

    Token-mixing weights are sized to N, so the block only accepts the token
    count it was built for.
    """

    def __init__(self, tokens: int, channels: int, spatial_hidden: int = 256,
                 channel_expand: int = 2, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        hidden_c = channel_expand * channels
        self.tokens = tokens
        self.channels = channels
        self.w_spatial_in = Tensor(
            kaiming_uniform((spatial_hidden, tokens), tokens, rng, dtype), requires_grad=True)
        self.w_spatial_out = Tensor(
            kaiming_uniform((tokens, spatial_hidden), spatial_hidden, rng, dtype),
            requires_grad=True)
        self.w_channel_in = Tensor(
            kaiming_uniform((hidden_c, channels), channels, rng, dtype), requires_grad=True)
        self.w_channel_out = Tensor(
            np.zeros((channels, hidden_c), dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.token_channel_mixing(_token_batch(self, x), self.w_spatial_in,
                                      self.w_spatial_out, self.w_channel_in,
                                      self.w_channel_out)


class DGABlock(Module):
    """Deep global attention: multi-head self-attention plus feed-forward.

    Adds a learned positional embedding, then two residual stages:
    z1 = z0 + MSA(z0) and z2 = z1 + FF(z1). One (C x 3C) matrix ``qkv``
    projects tokens for all heads: head i owns columns [3*hd*i, 3*hd*(i+1)),
    laid out as its q, k and v (hd = head_dim); attention is
    softmax(q k^T / sqrt(hd)) applied to v. Head outputs are
    concatenated and projected back to C by a zero-initialized matrix, so
    z1 == z0 exactly at init. No layer normalization anywhere.

    The block is one ``T.attention_block`` node whose closure keeps the
    input, a view of the stage's ReLU output, the positional embedding and
    the weights, so a training forward keeps only the output: backward
    recomputes z0, q, k, v, the masks and z1 once. Its output and gradients
    equal those of the primitive chains it replaces bit for bit (FF's output
    bias is added before the residual, as the chain does).
    """

    def __init__(self, tokens: int, channels: int, heads: int = 8,
                 ff_expand: int = 4, pos_std: float = 0.02,
                 rng: np.random.Generator | None = None, dtype=np.float32):
        rng = rng if rng is not None else np.random.default_rng(0)
        if channels % heads != 0:
            raise ShapeError(f"{channels} channels not divisible by {heads} heads")
        self.tokens = tokens
        self.channels = channels
        self.heads = heads
        self.head_dim = channels // heads
        self.pos_embed = Tensor(
            rng.normal(0.0, pos_std, size=(tokens, channels)).astype(dtype),
            requires_grad=True)
        # One draw per head, in head order, so init matches per-head matrices.
        self.qkv = Tensor(np.concatenate(
            [kaiming_uniform((channels, 3 * self.head_dim), channels, rng, dtype)
             for _ in range(heads)], axis=1), requires_grad=True)
        self.out_proj = Tensor(np.zeros((heads * self.head_dim, channels), dtype=dtype),
                               requires_grad=True)
        hidden = ff_expand * channels
        self.ff_w_in = Tensor(kaiming_uniform((channels, hidden), channels, rng, dtype),
                              requires_grad=True)
        self.ff_b_in = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        self.ff_w_out = Tensor(kaiming_uniform((hidden, channels), hidden, rng, dtype),
                               requires_grad=True)
        self.ff_b_out = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.attention_block(_token_batch(self, x), self.pos_embed, self.qkv,
                                 self.out_proj, self.heads, self.ff_w_in, self.ff_b_in,
                                 self.ff_w_out, self.ff_b_out)


class MLP(Module):
    """Three-layer perceptron with ReLU between layers, used by vector branches."""

    def __init__(self, in_dim: int, hidden: tuple[int, int], out_dim: int,
                 rng: np.random.Generator, dtype=np.float32):
        dims = [in_dim, hidden[0], hidden[1], out_dim]
        self.weights = []
        self.biases = []
        for a, b in zip(dims[:-1], dims[1:]):
            self.weights.append(Tensor(kaiming_uniform((a, b), a, rng, dtype),
                                       requires_grad=True))
            self.biases.append(Tensor(np.zeros(b, dtype=dtype), requires_grad=True))

    def forward(self, x: Tensor) -> Tensor:
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = T.add(T.matmul(T.relu(x) if i else x, w), b)
        return x

    def children(self):
        return [(f"{kind}{i}", t) for i, pair in enumerate(zip(self.weights, self.biases))
                for kind, t in zip("wb", pair)]


def cross_entropy_logits(logits: Tensor, labels: np.ndarray,
                         weights: np.ndarray | None = None) -> Tensor:
    """Mean cross-entropy of a (B, n) logit matrix against int labels.

    Computed through log-softmax so the loss gradient with respect to the
    logits is softmax(logits) - onehot(labels), scaled by the batch weights.
    """
    logits = T._as_tensor(logits)
    labels = np.asarray(labels)
    nll = T.neg(T.select_index(T.log_softmax(logits, -1), labels))
    if weights is None:
        return T.mean(nll)
    w = np.asarray(weights, dtype=np.float64)
    scale = Tensor((w / w.sum()).astype(logits.dtype))
    return T.tensor_sum(T.mul(nll, scale))
