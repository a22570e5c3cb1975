"""Independent, deliberately naive reference implementations.

Everything here is written as plain loops over numpy scalars so the package's
vectorized kernels are checked against a second route, not against
themselves. Keep these slow and obvious.
"""

from __future__ import annotations

import math

import numpy as np


def numeric_grad(f, tensors, h: float = 1e-5):
    """Central-difference gradient of the scalar ``f()`` wrt each tensor.

    ``f`` must recompute the forward pass from the tensors' current ``data``
    buffers, which are perturbed in place one element at a time.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data, dtype=np.float64)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            fp = f()
            flat[i] = saved - h
            fm = f()
            flat[i] = saved
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(np.abs(want).max(initial=0.0), np.abs(got).max(initial=0.0), 1e-8)
    return float(np.abs(got - want).max(initial=0.0) / scale)


def conv3d_loops(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Direct nested-loop 3-d cross-correlation with zero padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    C, D, H, W = x.shape
    Co, Ci, kd, kh, kw = w.shape
    assert Ci == C
    xp = np.zeros((C, D + 2 * pad, H + 2 * pad, W + 2 * pad))
    xp[:, pad:pad + D, pad:pad + H, pad:pad + W] = x
    Do = (D + 2 * pad - kd) // stride + 1
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((Co, Do, Ho, Wo))
    for o in range(Co):
        for d in range(Do):
            for h in range(Ho):
                for v in range(Wo):
                    acc = 0.0
                    for c in range(C):
                        for a in range(kd):
                            for b in range(kh):
                                for e in range(kw):
                                    acc += (
                                        xp[c, d * stride + a, h * stride + b, v * stride + e]
                                        * w[o, c, a, b, e]
                                    )
                    out[o, d, h, v] = acc
    return out


def softmax_1d(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(v - v.max())
    return e / e.sum()


def sga_loops(x, w_spatial_in, w_spatial_out, w_channel_in, w_channel_out):
    """Per-column spatial mixing then per-row channel mixing, one at a time."""
    x = np.asarray(x, dtype=np.float64)
    n, c = x.shape
    mixed = np.zeros_like(x)
    for i in range(c):
        col = x[:, i]
        hidden = np.maximum(w_spatial_in.astype(np.float64) @ col, 0.0)
        mixed[:, i] = col + w_spatial_out.astype(np.float64) @ hidden
    out = np.zeros_like(mixed)
    for j in range(n):
        row = mixed[j, :]
        hidden = np.maximum(w_channel_in.astype(np.float64) @ row, 0.0)
        out[j, :] = row + w_channel_out.astype(np.float64) @ hidden
    return out


def dga_loops(x, pos_embed, qkv_weights, out_proj, ff_w_in, ff_b_in, ff_w_out, ff_b_out):
    """Explicit-loop multi-head self-attention block with residuals."""
    x = np.asarray(x, dtype=np.float64)
    n, c = x.shape
    z0 = x + np.asarray(pos_embed, dtype=np.float64)
    head_outs = []
    for w in qkv_weights:
        w = np.asarray(w, dtype=np.float64)
        hd = w.shape[1] // 3
        q = z0 @ w[:, :hd]
        k = z0 @ w[:, hd:2 * hd]
        v = z0 @ w[:, 2 * hd:]
        out_h = np.zeros((n, hd))
        for i in range(n):
            scores = np.array([q[i] @ k[j] / math.sqrt(hd) for j in range(n)])
            m = softmax_1d(scores)
            out_h[i] = sum(m[j] * v[j] for j in range(n))
        head_outs.append(out_h)
    msa = np.concatenate(head_outs, axis=1) @ np.asarray(out_proj, dtype=np.float64)
    z1 = z0 + msa
    hidden = np.maximum(z1 @ np.asarray(ff_w_in, dtype=np.float64)
                        + np.asarray(ff_b_in, dtype=np.float64), 0.0)
    z2 = z1 + hidden @ np.asarray(ff_w_out, dtype=np.float64) + np.asarray(ff_b_out, dtype=np.float64)
    return z2


def pearson_loops(series: np.ndarray) -> np.ndarray:
    """Textbook Pearson correlation between columns of a (T, p) matrix."""
    series = np.asarray(series, dtype=np.float64)
    t, p = series.shape
    out = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            a = series[:, i]
            b = series[:, j]
            am = a.mean()
            bm = b.mean()
            num = float(((a - am) * (b - bm)).sum())
            den = math.sqrt(float(((a - am) ** 2).sum()) * float(((b - bm) ** 2).sum()))
            out[i, j] = num / den if den > 0 else 0.0
    return out


def classify_by_blob_mean(volume: np.ndarray, centers, radii) -> int:
    """Pick the class whose blob neighborhood has the highest mean intensity.

    Works on standardized volumes; a trivial reference classifier for the
    synthetic cohort.
    """
    volume = np.asarray(volume, dtype=np.float64)
    grids = np.meshgrid(*[np.arange(e) for e in volume.shape], indexing="ij")
    best, best_mean = 0, -np.inf
    for cls, (center, radius) in enumerate(zip(centers, radii)):
        r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
        mask = r2 <= radius ** 2
        mean = volume[mask].mean() if mask.any() else -np.inf
        if mean > best_mean:
            best, best_mean = cls, mean
    return best


def adam_trajectory(p0, grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam on one parameter array, fresh arrays every step."""
    p = np.asarray(p0, dtype=np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    out = []
    for t, g in enumerate(grad_seq, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(p.copy())
    return out


# ---------------------------------------------------------------------------
# Composite batch norm, built from tape primitives one step at a time.
# ``tensor.batch_norm`` is a single node with a closed-form backward; this
# chain is the reference its outputs and gradients are checked against.


def batch_norm_chain(x, gamma, beta, training: bool, stats=None, eps: float = 1e-5):
    """Batch norm as mean -> center -> variance -> divide -> affine nodes.

    Training mode uses the batch statistics; evaluation mode the running
    ``stats`` (their ``mean`` and ``var``). ``stats`` is never updated.
    """
    from volformer import tensor as T
    C = x.shape[1]
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, C) + (1,) * (x.ndim - 2)
    if training:
        mu = T.mean(x, axes, keepdims=True)
        centered = T.sub(x, mu)
        var = T.mean(T.mul(centered, centered), axes, keepdims=True)
        xhat = T.div(centered, T.sqrt(T.add(var, eps)))
    else:
        mu = T.Tensor(stats.mean.reshape(bshape).astype(x.dtype))
        denom = T.Tensor(np.sqrt(stats.var + eps).reshape(bshape).astype(x.dtype))
        xhat = T.div(T.sub(x, mu), denom)
    return T.add(T.mul(xhat, T.reshape(gamma, bshape)), T.reshape(beta, bshape))

