"""Independent, deliberately naive reference implementations.

Everything here is written as plain loops over numpy scalars so the package's
vectorized kernels are checked against a second route, not against
themselves. Keep these slow and obvious.
"""

from __future__ import annotations

import math

import numpy as np

from volformer.data import (SubjectRecord, VolumeSample, _blob, _pearson,
                            _require_finite, _site_affines, _smooth_noise)
from volformer.train import MetricReport, _items, _precision_recall, _stack


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


def bn_relu_conv_chain(x, gamma, beta, kernel, training: bool, stats=None,
                       stride: int = 1, pad: int = 0):
    """``batch_norm`` -> ``relu`` -> ``conv3d`` nodes, the chain
    ``tensor.bn_relu_conv3d`` replaces; ``stats`` updates in training mode
    as ``batch_norm`` updates it."""
    from volformer import tensor as T
    h = T.relu(T.batch_norm(x, gamma, beta, training, stats))
    return T.conv3d(h, kernel, stride, pad)


def softmax_chain(x, axis: int = -1):
    """Softmax as shift -> exp -> sum -> divide nodes, the shift detached."""
    from volformer import tensor as T
    e = T.exp(T.sub(x, T.Tensor(x.data.max(axis=axis, keepdims=True))))
    return T.div(e, T.tensor_sum(e, axis, keepdims=True))


def residual_mlp_chain(x, w1, w2, b1=None, b2=None):
    """The residual MLP x + (relu(x @ w1 + b1) @ w2 + b2) as matmul -> bias
    -> relu -> matmul -> bias -> add nodes: each stage of an ``SGABlock``
    and a ``DGABlock``'s feed-forward with its residual."""
    from volformer import tensor as T
    h = T.matmul(x, w1)
    h = T.relu(h if b1 is None else T.add(h, b1))
    y = T.matmul(h, w2)
    return T.add(x, y if b2 is None else T.add(y, b2))


def sga_chain(block, x):
    """An ``SGABlock``'s token then channel mixing as two
    ``residual_mlp_chain`` stages over transposes, the chain
    ``tensor.token_channel_mixing`` replaces."""
    from volformer import tensor as T
    mixed = residual_mlp_chain(T.transpose(x, (0, 2, 1)), T.transpose(block.w_spatial_in),
                               T.transpose(block.w_spatial_out))
    return residual_mlp_chain(T.transpose(mixed, (0, 2, 1)), T.transpose(block.w_channel_in),
                              T.transpose(block.w_channel_out))


def msa_chain(block, z, return_masks: bool = False):
    """Multi-head self-attention of a ``DGABlock`` (its ``qkv``, ``out_proj``
    and ``heads``) over (B, N, C) tokens, without the residual, as matmul ->
    narrow -> scale -> softmax -> matmul nodes. With ``return_masks`` also
    returns the (B, heads, N, N) masks."""
    from volformer import tensor as T
    b, n, c = z.shape
    h = block.heads
    hd = c // h
    qkv = T.transpose(T.reshape(T.matmul(z, block.qkv), (b, n, h, 3 * hd)), (0, 2, 1, 3))
    q, k, v = (T.narrow(qkv, 3, i * hd, hd) for i in range(3))
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
    masks = T.softmax(scores, axis=-1)
    heads_out = T.reshape(T.transpose(T.matmul(masks, v), (0, 2, 1, 3)), (b, n, c))
    out = T.matmul(heads_out, block.out_proj)
    return (out, masks) if return_masks else out


def dga_chain(block, x):
    """A ``DGABlock`` over (B, N, C) tokens as primitive chains,
    z0 = x + pos, z1 = z0 + ``msa_chain``(z0) and z1's
    ``residual_mlp_chain`` feed-forward: the chain
    ``tensor.attention_block`` replaces."""
    from volformer import tensor as T
    z0 = T.add(x, block.pos_embed)
    z1 = T.add(z0, msa_chain(block, z0))
    return residual_mlp_chain(z1, block.ff_w_in, block.ff_w_out, block.ff_b_in, block.ff_b_out)


def synthetic_reference(spec) -> list:
    """The synthetic cohort by the direct route: site by site, each subject's
    noise is drawn and filtered again for every site. ``data.generate_synthetic``
    draws it once per subject and must match this byte for byte."""
    affines = _site_affines(spec)
    records: list[SubjectRecord] = []
    jitter_sigma = spec.jitter_fraction * spec.noise_sigma
    for site in range(spec.site_count):
        gain, offset = affines[site]
        site_id = f"site{site:02d}"
        for label in range(spec.class_count):
            blob = _blob(spec, label)
            for idx in range(spec.subjects_per_class_per_site):
                subject_id = f"s{site:02d}c{label}n{idx:03d}"
                base_rng = np.random.default_rng((spec.seed, label, idx, 0))
                underlying = _smooth_noise(base_rng, spec) + blob
                volumes = []
                for vol in range(spec.volumes_per_subject):
                    vol_rng = np.random.default_rng((spec.seed, label, idx, 1, vol))
                    jitter = (vol_rng.normal(0.0, jitter_sigma, size=spec.volume_extent)
                              if jitter_sigma > 0 else 0.0)
                    raw = gain * (underlying + jitter) + offset
                    arr = _require_finite(raw.astype(np.float32),
                                         f"synthetic volume {vol} of subject {subject_id}")
                    volumes.append(VolumeSample(subject_id, site_id, label, "fmri", arr))
                record = SubjectRecord(subject_id, site_id, label, volumes)
                if spec.with_smri:
                    smri_rng = np.random.default_rng((spec.seed, label, idx, 2))
                    raw = gain * _smooth_noise(smri_rng, spec) + offset
                    arr = _require_finite(raw.astype(np.float32),
                                         f"synthetic sMRI volume of subject {subject_id}")
                    record.smri = VolumeSample(subject_id, site_id, label, "smri", arr)
                if spec.with_fc:
                    fc_rng = np.random.default_rng((spec.seed, label, idx, 3))
                    fc, _ = _pearson(fc_rng.normal(size=(24, spec.fc_parcels)))
                    record.fc_vector = fc.reshape(-1)
                if spec.with_pheno:
                    ph_rng = np.random.default_rng((spec.seed, label, idx, 4))
                    values = ph_rng.normal(size=spec.pheno_dim)
                    if spec.pheno_signal > 0:
                        values[0] += (label - (spec.class_count - 1) / 2.0) * spec.pheno_signal
                    record.phenotype = values.astype(np.float32)
                    record.pheno_mask = np.ones(spec.pheno_dim, dtype=np.float32)
                record.validate()
                records.append(record)
    return records


def evaluate_reference(model, test_records) -> tuple:
    """``train.evaluate`` by the direct route: one forward per subject, over
    that subject's volumes alone. Returns the report and each voting
    subject's predicted class, by subject id. ``train.evaluate`` batches
    volumes across subjects and must give the same report."""
    class_count = model.cfg.class_count
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    excluded: list[str] = []
    votes: dict[str, int] = {}
    ties = 0
    subj_correct = 0
    for rec in sorted(test_records, key=lambda r: r.subject_id):
        sub_items = _items([rec], model.cfg)
        if not sub_items:
            excluded.append(rec.subject_id)
            continue
        volumes, labels, extras = _stack(sub_items)
        probs = model.forward_probs(volumes, **extras).data
        for y, p in zip(labels, np.argmax(probs, axis=-1)):
            confusion[y, p] += 1
        mean_prob = probs.mean(axis=0)
        ties += int((mean_prob == mean_prob.max()).sum()) > 1
        votes[rec.subject_id] = int(np.argmax(mean_prob))
        subj_correct += votes[rec.subject_id] == rec.label
    volume_total = int(confusion.sum())
    report = MetricReport(
        volume_accuracy=float(np.trace(confusion)) / volume_total if volume_total else 0.0,
        subject_accuracy=subj_correct / len(votes) if votes else 0.0,
        **_precision_recall(confusion), confusion=confusion,
        volume_count=volume_total, subject_count=len(votes),
        excluded_subjects=excluded, tie_count=ties)
    return report, votes
