"""Network building blocks on top of the tensor core.

Conventions:
  * every input carries a leading batch axis: volumetric features are
    (B, C, D, H, W) and token matrices (B, N, C), with tokens = flattened
    voxels and channels last. One volume is a batch of one; the single-volume
    entry points are ``model.forward_volume`` and ``localize.grad_cam``;
  * every block exposes ``params()`` as (name, Tensor) pairs in a stable
    order, which is also the checkpoint order;
  * blocks are pure functions of their parameters except batch-norm running
    statistics, which update in training mode only.
"""

from __future__ import annotations

import math

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


class DataNormLayer:
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

    def params(self):
        return []


class Conv3dLayer:
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

    def params(self):
        return [("weight", self.weight)]


class BatchNormLayer:
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

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class ResidualConvBlock:
    """Two same-padded 3x3x3 conv+BN stages with a residual shortcut.

    The first conv carries the block stride. When the stride or channel count
    changes shape, the shortcut becomes a strided 1x1x1 conv + BN projection;
    otherwise it is the identity. Output extents are ceil(input / stride).
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
        h = T.relu(self.bn1.forward(self.conv1.forward(x), training))
        h = self.bn2.forward(self.conv2.forward(h), training)
        shortcut = x
        if self.proj is not None:
            shortcut = self.bn_proj.forward(self.proj.forward(x), training)
        return T.relu(T.add(h, shortcut))

    def params(self):
        out = [(f"conv1.{n}", t) for n, t in self.conv1.params()]
        out += [(f"bn1.{n}", t) for n, t in self.bn1.params()]
        out += [(f"conv2.{n}", t) for n, t in self.conv2.params()]
        out += [(f"bn2.{n}", t) for n, t in self.bn2.params()]
        if self.proj is not None:
            out += [(f"proj.{n}", t) for n, t in self.proj.params()]
            out += [(f"bn_proj.{n}", t) for n, t in self.bn_proj.params()]
        return out

    def norm_layers(self):
        layers = [("bn1", self.bn1), ("bn2", self.bn2)]
        if self.bn_proj is not None:
            layers.append(("bn_proj", self.bn_proj))
        return layers


def _token_batch(block, x) -> Tensor:
    """Check a (B, N, C) input against the N and C ``block`` was built for."""
    x = T._as_tensor(x)
    if x.ndim != 3 or x.shape[1:] != (block.tokens, block.channels):
        raise ShapeError(f"attention block expects (B, N, C) = (B, {block.tokens}, "
                         f"{block.channels}), got {x.shape}")
    return x


class SGABlock:
    """Shallow global attention: token mixing then channel mixing, both residual.

    Each channel column (length N) is mixed through a two-layer bottleneck
    shared across channels, then each token row (length C) is mixed through a
    two-layer expansion shared across tokens. Cost is linear in the token
    count N; no NxN structure is ever materialized. The channel-mixing output
    projection starts at zero so that stage is the identity at init.

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
        x = _token_batch(self, x)
        b, n, c = x.shape
        cols = T.reshape(T.transpose(x, (1, 0, 2)), (n, b * c))
        hidden = T.relu(T.matmul(self.w_spatial_in, cols))
        mixed = T.add(cols, T.matmul(self.w_spatial_out, hidden))
        rows = T.reshape(T.transpose(T.reshape(mixed, (n, b, c)), (1, 0, 2)), (b * n, c))
        hidden_c = T.relu(T.matmul(rows, T.transpose(self.w_channel_in)))
        out = T.add(rows, T.matmul(hidden_c, T.transpose(self.w_channel_out)))
        return T.reshape(out, (b, n, c))

    def params(self):
        return [
            ("w_spatial_in", self.w_spatial_in),
            ("w_spatial_out", self.w_spatial_out),
            ("w_channel_in", self.w_channel_in),
            ("w_channel_out", self.w_channel_out),
        ]


class DGABlock:
    """Deep global attention: multi-head self-attention plus feed-forward.

    Adds a learned positional embedding, then two residual stages:
    z1 = z0 + MSA(z0) and z2 = z1 + FF(z1). One (C x 3C) matrix ``qkv``
    projects tokens for all heads: head i owns columns [3*hd*i, 3*hd*(i+1)),
    laid out as its q, k and v (hd = head_dim); attention is
    softmax(q k^T / sqrt(hd)) applied to v. Head outputs are
    concatenated and projected back to C by a zero-initialized matrix, so
    z1 == z0 exactly at init. No layer normalization anywhere.
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

    def msa(self, z: Tensor, return_masks: bool = False):
        """Multi-head self-attention over tokens (no residual, no pos embed).

        With ``return_masks`` also returns the attention masks as one
        (B, heads, N, N) tensor.
        """
        z = _token_batch(self, z)
        b, n, c = z.shape
        h, hd = self.heads, self.head_dim
        qkv = T.transpose(T.reshape(T.matmul(z, self.qkv), (b, n, h, 3 * hd)), (0, 2, 1, 3))
        q, k, v = (T.narrow(qkv, 3, i * hd, hd) for i in range(3))
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
        masks = T.softmax(scores, axis=-1)
        heads_out = T.reshape(T.transpose(T.matmul(masks, v), (0, 2, 1, 3)), (b, n, c))
        out = T.matmul(heads_out, self.out_proj)
        return (out, masks) if return_masks else out

    def feed_forward(self, z: Tensor) -> Tensor:
        """Token-wise two-layer MLP with ReLU; residual added by the caller."""
        hidden = T.relu(T.add(T.matmul(z, self.ff_w_in), self.ff_b_in))
        return T.add(T.matmul(hidden, self.ff_w_out), self.ff_b_out)

    def forward(self, x: Tensor) -> Tensor:
        z0 = T.add(_token_batch(self, x), self.pos_embed)
        z1 = T.add(z0, self.msa(z0))
        return T.add(z1, self.feed_forward(z1))

    def params(self):
        return [
            ("pos_embed", self.pos_embed),
            ("qkv", self.qkv),
            ("out_proj", self.out_proj),
            ("ff_w_in", self.ff_w_in),
            ("ff_b_in", self.ff_b_in),
            ("ff_w_out", self.ff_w_out),
            ("ff_b_out", self.ff_b_out),
        ]


class MLP:
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
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.add(T.matmul(h, w), b)
            if i != last:
                h = T.relu(h)
        return h

    def params(self):
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"w{i}", w))
            out.append((f"b{i}", b))
        return out


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
