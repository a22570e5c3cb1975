"""Acceptance suite: one test per shipping criterion, tolerances stated inline.

Each test prints a single verdict line (``[NN] name: PASS/FAIL — detail``)
and then asserts, so a verbose run shows one pass/fail line per criterion.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import volformer.tensor as T
from oracles import (conv3d_loops, dga_loops, msa_chain, numeric_grad,
                     pearson_loops, rel_error, sga_loops)
from volformer.cli import main
from volformer.data import (SyntheticSpec, compute_fc, generate_synthetic,
                            plan_folds)
from volformer.layers import (DataNormLayer, DGABlock, SGABlock,
                              cross_entropy_logits)
from volformer.localize import grad_cam, top_fraction_mask
from volformer.model import (BrainFormer, ModelConfig,
                             estimate_cost, forward_volume,
                             parse_attention_plan)
from volformer.tensor import Tensor
from volformer.train import TrainConfig, cross_validate, evaluate, train_fold


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"[{num:02d}] {name}: {detail}"


def _scalarize(out: Tensor, rng: np.random.Generator) -> Tensor:
    """Reduce to a scalar through fixed random weights so grads are generic."""
    weights = rng.normal(size=out.shape)
    return T.tensor_sum(T.mul(out, weights))


def _t64(rng, *shape, positive=False, away_from_zero=False):
    a = rng.normal(size=shape)
    if positive:
        a = np.abs(a) + 0.5
    if away_from_zero:
        a = np.where(np.abs(a) < 0.05, a + 0.2 * np.sign(a + 1e-12), a)
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)


def _check(f, tensors, tol, h=1e-5) -> float:
    out = f()
    T.zero_grads(tensors)
    T.backward(out)
    numeric = numeric_grad(lambda: f().item(), tensors, h=h)
    worst = 0.0
    for t, want in zip(tensors, numeric):
        assert t.grad is not None
        err = rel_error(t.grad, want)
        assert err < tol, f"gradient error {err:.3g} exceeds {tol}"
        worst = max(worst, err)
    return worst


def test_01_gradients_match_finite_differences(conv_gather):
    start = time.monotonic()
    tol_prim, tol_e2e = 1e-4, 1e-3
    rng = np.random.default_rng(7)
    worst = 0.0

    # every differentiable primitive, each against central differences
    a = _t64(rng, 3, 4)
    b = _t64(rng, 3, 4)
    pos = _t64(rng, 3, 4, positive=True)
    cases = [
        (lambda: _scalarize(T.add(a, b), np.random.default_rng(1)), [a, b]),
        (lambda: _scalarize(T.sub(a, b), np.random.default_rng(2)), [a, b]),
        (lambda: _scalarize(T.mul(a, b), np.random.default_rng(3)), [a, b]),
        (lambda: _scalarize(T.div(a, pos), np.random.default_rng(4)), [a, pos]),
        (lambda: _scalarize(T.neg(a), np.random.default_rng(5)), [a]),
        (lambda: _scalarize(T.exp(a), np.random.default_rng(6)), [a]),
        (lambda: _scalarize(T.log(pos), np.random.default_rng(7)), [pos]),
        (lambda: _scalarize(T.sqrt(pos), np.random.default_rng(8)), [pos]),
        (lambda: _scalarize(T.reshape(a, (4, 3)), np.random.default_rng(9)), [a]),
        (lambda: _scalarize(T.transpose(a), np.random.default_rng(10)), [a]),
        (lambda: _scalarize(T.softmax(a, axis=-1), np.random.default_rng(11)), [a]),
        (lambda: _scalarize(T.log_softmax(a, axis=-1), np.random.default_rng(12)), [a]),
        (lambda: T.tensor_sum(a), [a]),
        (lambda: _scalarize(T.mean(a, axis=1), np.random.default_rng(13)), [a]),
    ]
    relu_in = _t64(rng, 3, 4, away_from_zero=True)
    cases.append((lambda: _scalarize(T.relu(relu_in), np.random.default_rng(14)),
                  [relu_in]))
    c1 = _t64(rng, 2, 3)
    c2 = _t64(rng, 2, 2)
    cases.append((lambda: _scalarize(T.concat([c1, c2], axis=1),
                                     np.random.default_rng(15)), [c1, c2]))
    cases.append((lambda: _scalarize(T.narrow(a, 1, 1, 2),
                                     np.random.default_rng(16)), [a]))
    idx = np.array([1, 3, 0])
    cases.append((lambda: T.tensor_sum(T.select_index(a, idx)), [a]))

    def mv():  # mean and population variance, the chain batch_norm runs
        m = T.mean(a, 1, keepdims=True)
        centered = T.sub(a, m)
        v = T.mean(T.mul(centered, centered), 1, keepdims=True)
        return T.add(T.tensor_sum(T.mul(m, 1.3)), T.tensor_sum(T.mul(v, 0.7)))
    cases.append((mv, [a]))

    pool_in = _t64(rng, 2, 3, 2, 2, 2)
    cases.append((lambda: _scalarize(T.avg_pool_global(pool_in),
                                     np.random.default_rng(17)), [pool_in]))
    m1 = _t64(rng, 3, 4)
    m2 = _t64(rng, 4, 2)
    cases.append((lambda: _scalarize(T.matmul(m1, m2),
                                     np.random.default_rng(18)), [m1, m2]))
    bm1 = _t64(rng, 2, 3, 4)
    cases.append((lambda: _scalarize(T.matmul(bm1, m2),
                                     np.random.default_rng(19)), [bm1, m2]))
    cx = _t64(rng, 2, 2, 3, 4, 3)
    cw = _t64(rng, 2, 2, 3, 3, 3)
    cases.append((lambda: _scalarize(T.conv3d(cx, cw, stride=2, pad=1),
                                     np.random.default_rng(20)), [cx, cw]))
    cw2 = _t64(rng, 3, 2, 2, 2, 2)
    cases.append((lambda: _scalarize(T.conv3d(cx, cw2, stride=1, pad=0),
                                     np.random.default_rng(21)), [cx, cw2]))
    bn_x = _t64(rng, 3, 2, 2, 2, 2)
    bn_g = _t64(rng, 2, positive=True)
    bn_b = _t64(rng, 2)
    cases.append((lambda: _scalarize(T.batch_norm(bn_x, bn_g, bn_b, training=True),
                                     np.random.default_rng(22)),
                  [bn_x, bn_g, bn_b]))
    dn_in = _t64(rng, 2, 1, 3, 3, 3)
    cases.append((lambda: _scalarize(DataNormLayer().forward(dn_in),
                                     np.random.default_rng(23)), [dn_in]))
    brng = np.random.default_rng(26)  # its own draws: the cases above keep theirs
    br_x, br_g = _t64(brng, 2, 2, 3, 3, 3), _t64(brng, 2, positive=True)
    br_b, br_k = _t64(brng, 2), _t64(brng, 3, 2, 3, 3, 3)
    cases.append((lambda: _scalarize(T.bn_relu_conv3d(br_x, br_g, br_b, br_k, True, pad=1),
                                     np.random.default_rng(27)), [br_x, br_g, br_b, br_k]))

    srng = np.random.default_rng(28)  # its own draws, as brng above
    sx, s_si, s_so = _t64(srng, 2, 4, 3), _t64(srng, 5, 3), _t64(srng, 3, 5)
    s_ci, s_co = _t64(srng, 6, 4), _t64(srng, 4, 6)
    cases.append((lambda: _scalarize(T.token_channel_mixing(sx, s_si, s_so, s_ci, s_co),
                                     np.random.default_rng(29)), [sx, s_si, s_so, s_ci, s_co]))
    drng = np.random.default_rng(30)
    dga_in = [_t64(drng, *shape) for shape in
              ((2, 4, 3), (3, 4), (4, 12), (4, 4), (4, 5), (5,), (5, 4), (4,))]
    cases.append((lambda: _scalarize(T.attention_block(*dga_in[:4], 2, *dga_in[4:]),
                                     np.random.default_rng(31)), dga_in))

    for f, tensors in cases:
        worst = max(worst, _check(f, tensors, tol_prim))

    # end-to-end through the small preset, 10 sampled parameters
    cfg = ModelConfig.desk()
    model = BrainFormer(cfg, seed=3, dtype=np.float64)
    prng = np.random.default_rng(99)
    for _, p in model.params():
        p.data = p.data + prng.normal(0.0, 0.02, size=p.data.shape)
    x = prng.normal(size=(2, 1, *cfg.input_extent))
    labels = np.array([0, 1])

    def loss_fn():
        logits = model.forward_logits(Tensor(x), training=True)
        return cross_entropy_logits(logits, labels)

    loss = loss_fn()
    T.zero_grads([p for _, p in model.params()])
    T.backward(loss)
    named = model.params()
    h = 1e-5
    worst_e2e = 0.0
    for _ in range(10):
        _, tensor = named[prng.integers(len(named))]
        idx = tuple(prng.integers(s) for s in tensor.data.shape)
        auto = tensor.grad[idx]
        saved = tensor.data[idx]
        tensor.data[idx] = saved + h
        fp = loss_fn().item()
        tensor.data[idx] = saved - h
        fm = loss_fn().item()
        tensor.data[idx] = saved
        num = (fp - fm) / (2.0 * h)
        err = abs(auto - num) / max(abs(auto), abs(num), 1e-8)
        assert err < tol_e2e, f"end-to-end gradient error {err:.3g} exceeds {tol_e2e}"
        worst_e2e = max(worst_e2e, err)

    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    _verdict(1, "gradients match finite differences", ok,
             f"primitives worst {worst:.2e} (<1e-4), end-to-end worst "
             f"{worst_e2e:.2e} (<1e-3), {elapsed:.1f}s (<60s), conv3d {conv_gather} path")


def test_02_full_scale_stage_extents():
    cfg = ModelConfig()
    expected = [(32, 36, 32), (32, 36, 32), (16, 18, 16), (8, 9, 8), (8, 9, 8)]
    analytic = cfg.stage_extents()
    assert analytic == expected, f"analytic chain {analytic}"

    model = BrainFormer(cfg, seed=0)
    x = np.random.default_rng(0).normal(
        size=(1, 1, *cfg.input_extent)).astype(np.float32)
    _, trace = model.forward_trace(Tensor(x), training=True)
    traced = [trace["stem"].shape[2:]]
    traced += [trace[f"stage{i}"].shape[2:] for i in range(1, 5)]
    ok = traced == expected
    _verdict(2, "full-scale stage extents", ok,
             f"input {cfg.input_extent} -> {' / '.join(map(str, traced))}")


def test_03_data_norm_affine_invariance():
    rng = np.random.default_rng(42)
    tol = 1e-4
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=(16, 18, 16)).astype(np.float32)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-5.0, 5.0)
        base = DataNormLayer().forward(Tensor(v[None, None])).data[0, 0]
        scaled = DataNormLayer().forward(
            Tensor((a * v + b).astype(np.float32)[None, None])).data[0, 0]
        worst = max(worst, float(np.abs(scaled - base).max()))
    ok = worst < tol
    _verdict(3, "data-norm affine invariance", ok,
             f"max deviation {worst:.2e} over 100 volumes (<{tol})")


def test_04_attention_masks_and_zero_init_identities():
    rng = np.random.default_rng(3)
    tol = 1e-6
    block = DGABlock(tokens=10, channels=8, heads=4, rng=rng)

    worst = 0.0
    extreme = rng.normal(size=(10, 8)).astype(np.float32)
    extreme[::2] += 1e4
    extreme[1::2] -= 1e4
    for z in (rng.normal(size=(10, 8)).astype(np.float32)[None],
              extreme[None],
              rng.normal(size=(2, 10, 8)).astype(np.float32)):
        _, masks = msa_chain(block, Tensor(z), return_masks=True)
        assert masks.shape == z.shape[:-2] + (4, 10, 10)
        sums = masks.data.sum(axis=-1)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    assert worst < tol, f"mask row sums deviate by {worst:.3g}"

    # zero-initialized output projections make both blocks start as identities
    z0 = Tensor(rng.normal(size=(10, 8)).astype(np.float32)[None])
    msa_out = msa_chain(block, z0)
    assert np.all(msa_out.data == 0.0)
    assert np.array_equal(T.add(z0, msa_out).data, z0.data)

    sga = SGABlock(tokens=6, channels=4, spatial_hidden=8, rng=rng)
    x = rng.normal(size=(6, 4)).astype(np.float32)
    hidden = np.maximum(sga.w_spatial_in.data @ x, 0.0)
    spatial_only = x + sga.w_spatial_out.data @ hidden
    got = sga.forward(Tensor(x.T[None])).data[0].T  # tokens are (B, C, N)
    assert np.array_equal(got, spatial_only), "channel stage not identity at init"

    _verdict(4, "attention masks and zero-init identities", True,
             f"row sums within {worst:.2e} (<1e-6) incl ±1e4 inputs; "
             "identities exact")


def test_05_cost_ordering_and_measured_scaling():
    plans = ["S-S-S-S", "S-S-S-D", "S-S-D-D", "S-D-D-D", "D-D-D-D"]
    flops = []
    for plan in plans:
        cfg = ModelConfig(attention_plan=parse_attention_plan(plan))
        cfg.validate()
        flops.append(estimate_cost(cfg).flops)
    ordered = all(x < y for x, y in zip(flops, flops[1:]))
    assert ordered, f"plan flops not strictly increasing: {flops}"

    rng = np.random.default_rng(0)

    def sga_ops(n):
        block = SGABlock(tokens=n, channels=16, spatial_hidden=32,
                         rng=np.random.default_rng(1))
        x = Tensor(rng.normal(size=(n, 16)).astype(np.float32).T[None])
        with T.count_ops() as ops:
            block.forward(x)
        return ops.macs

    def dga_ops(n):
        block = DGABlock(tokens=n, channels=8, heads=2,
                         rng=np.random.default_rng(1))
        x = Tensor(rng.normal(size=(n, 8)).astype(np.float32).T[None])
        with T.count_ops() as ops:
            block.forward(x)
        return ops.macs

    sga_ratio = sga_ops(128) / sga_ops(64)
    dga_ratio = dga_ops(1024) / dga_ops(512)
    ok = sga_ratio <= 2.2 and dga_ratio >= 3.5
    _verdict(5, "cost ordering and measured scaling", ok,
             f"flops {flops[0]/1e9:.1f}..{flops[-1]/1e9:.1f}G strictly "
             f"increasing over {len(plans)} plans; N-doubling ratios "
             f"SGA {sga_ratio:.2f} (<=2.2), DGA {dga_ratio:.2f} (>=3.5)")


def test_06_multisite_cross_validation_accuracy_and_ablation():
    start = time.monotonic()
    spec = SyntheticSpec()
    records = generate_synthetic(spec)
    cfg = TrainConfig()
    assert cfg.epochs <= 10

    aggregate, _ = cross_validate(
        records, lambda fold: BrainFormer(ModelConfig.desk(), seed=fold),
        cfg, k=5)

    # ablation: no data-norm layer, trained and tested on disjoint sites
    control_model = BrainFormer(ModelConfig.desk(use_data_norm=False), seed=0)
    train_recs = [r for r in records if r.site_id == "site00"]
    test_recs = [r for r in records if r.site_id == "site01"]
    train_fold(control_model, train_recs, cfg)
    control = evaluate(control_model, test_recs)

    elapsed = time.monotonic() - start
    gap = aggregate.volume_accuracy - control.volume_accuracy
    ok = (aggregate.volume_accuracy >= 0.90 and gap >= 0.15 and elapsed < 600)
    _verdict(6, "multi-site cross-validation and ablation", ok,
             f"5-fold volume accuracy {aggregate.volume_accuracy:.3f} (>=0.90); "
             f"no-norm cross-site {control.volume_accuracy:.3f}, gap "
             f"{gap * 100:.0f}pts (>=15); {elapsed:.0f}s (<600s)")


def test_07_blob_localization_hit_rate():
    start = time.monotonic()
    spec = SyntheticSpec(subjects_per_class_per_site=8, volumes_per_subject=8)
    records = generate_synthetic(spec)
    cfg = TrainConfig(epochs=12, lr=1e-3, lr_drop_epoch=10, seed=0)
    plan = plan_folds(records, k=4, seed=cfg.seed)
    _, results = cross_validate(
        records, lambda fold: BrainFormer(ModelConfig.desk(), seed=fold),
        cfg, k=4, plan=plan)

    hits = correct = 0
    for res in results:
        _, test_recs = plan.split(records, res.fold)
        for rec in test_recs:
            center = spec.blob_centers[rec.label]
            for vol in rec.fmri_volumes:
                probs = forward_volume(res.model, vol.volume).data
                if int(np.argmax(probs)) != rec.label:
                    continue
                correct += 1
                amap = grad_cam(res.model, vol.volume,
                                target_class=rec.label, layer="stem")
                if not amap.degenerate and top_fraction_mask(
                        amap.volume, 0.05)[center]:
                    hits += 1

    elapsed = time.monotonic() - start
    rate = hits / correct if correct else 0.0
    ok = correct > 0 and rate >= 0.80
    _verdict(7, "planted-blob localization hit rate", ok,
             f"{hits}/{correct} correctly classified test volumes place the "
             f"blob center in the top-5% activations ({rate:.3f} >= 0.80); "
             f"{elapsed:.0f}s")


def test_08_kernels_match_naive_oracles(conv_gather):
    tol = 1e-5
    trials = 200
    rng = np.random.default_rng(12)
    worst = {"conv3d": 0.0, "sga": 0.0, "dga": 0.0, "fc": 0.0}

    for trial in range(trials):
        ci = int(rng.integers(1, 4))
        co = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        d, hh, w = (int(rng.integers(k, k + 4)) for _ in range(3))
        x = rng.normal(size=(ci, d, hh, w)).astype(np.float32)
        kern = rng.normal(size=(co, ci, k, k, k)).astype(np.float32)
        got = T.conv3d(Tensor(x[None]), Tensor(kern), stride=stride, pad=pad).data[0]
        want = conv3d_loops(x, kern, stride=stride, pad=pad)
        worst["conv3d"] = max(worst["conv3d"], rel_error(got, want))
        if trial % 4 == 0:
            xb = rng.normal(size=(2, ci, d, hh, w)).astype(np.float32)
            got_b = T.conv3d(Tensor(xb), Tensor(kern), stride=stride, pad=pad).data
            want_b = np.stack([conv3d_loops(xb[i], kern, stride=stride, pad=pad)
                               for i in range(2)])
            worst["conv3d"] = max(worst["conv3d"], rel_error(got_b, want_b))

    for _ in range(trials):
        n = int(rng.integers(3, 9))
        c = int(rng.integers(2, 7))
        block = SGABlock(tokens=n, channels=c, spatial_hidden=int(rng.integers(2, 9)),
                         channel_expand=2, rng=np.random.default_rng(int(rng.integers(1e6))))
        block.w_channel_out.data = rng.normal(
            size=block.w_channel_out.shape).astype(np.float32)
        x = rng.normal(size=(n, c)).astype(np.float32)
        got = block.forward(Tensor(x.T[None])).data[0].T  # tokens are (B, C, N)
        want = sga_loops(x, block.w_spatial_in.data, block.w_spatial_out.data,
                         block.w_channel_in.data, block.w_channel_out.data)
        worst["sga"] = max(worst["sga"], rel_error(got, want))

    for _ in range(trials):
        heads = int(rng.choice([1, 2, 4]))
        c = heads * int(rng.integers(1, 4))
        n = int(rng.integers(2, 8))
        block = DGABlock(tokens=n, channels=c, heads=heads, ff_expand=2,
                         rng=np.random.default_rng(int(rng.integers(1e6))))
        block.out_proj.data = rng.normal(size=block.out_proj.shape).astype(np.float32)
        x = rng.normal(size=(n, c)).astype(np.float32)
        got = block.forward(Tensor(x.T[None])).data[0].T  # tokens are (B, C, N)
        want = dga_loops(x, block.pos_embed.data,
                         np.split(block.qkv.data, heads, axis=1), block.out_proj.data,
                         block.ff_w_in.data, block.ff_b_in.data,
                         block.ff_w_out.data, block.ff_b_out.data)
        worst["dga"] = max(worst["dga"], rel_error(got, want))

    for _ in range(trials):
        p = int(rng.integers(2, 6))
        t = int(rng.integers(5, 13))
        extent = (2, 3, 2)
        nvox = int(np.prod(extent))
        labels = np.concatenate([np.arange(1, p + 1),
                                 rng.integers(1, p + 1, size=nvox - p)])
        rng.shuffle(labels)
        parcellation = labels.reshape(extent)
        series = rng.normal(size=(t, *extent))
        got, flagged = compute_fc(series, parcellation, p)
        assert flagged == []
        flat = series.reshape(t, -1)
        roi_means = np.stack(
            [flat[:, parcellation.reshape(-1) == roi].mean(axis=1)
             for roi in range(1, p + 1)], axis=1)
        want = pearson_loops(roi_means)
        worst["fc"] = max(worst["fc"], rel_error(got, want))

    ok = all(v < tol for v in worst.values())
    _verdict(8, "kernels match naive loop oracles", ok,
             f"{trials} trials each, worst errors " +
             ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + f" (<{tol}), "
             f"conv3d {conv_gather} path")


def test_09_cli_reruns_bit_identical(tmp_path):
    thread_vars = ("VOLFORMER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    saved = {v: os.environ.get(v) for v in thread_vars}
    try:
        os.environ["VOLFORMER_THREADS"] = "1"
        spec = {"volume_extent": [8, 8, 8], "blob_centers": [[2, 2, 2], [5, 5, 5]],
                "blob_radius": [1.5, 1.5], "site_count": 1,
                "subjects_per_class_per_site": 3, "volumes_per_subject": 3,
                "gain_range": [1.0, 1.0], "offset_range": [0.0, 0.0], "seed": 7}
        cfg = {"model": {"scale_preset": "desk", "input_extent": [8, 8, 8],
                         "stage_channels": [4, 8, 8, 8], "stage_blocks": [1, 1, 1, 1],
                         "attention_plan": ["none"] * 4},
               "train": {"epochs": 2, "lr": 1e-3, "lr_drop_epoch": 2,
                         "batch_size": 8, "seed": 0},
               "synthetic": spec, "split": {"mode": "kfold", "k": 3}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))

        def hash_dir(root: Path) -> dict:
            return {p.relative_to(root).as_posix():
                    hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        for out in ("g1", "g2"):
            assert main(["gen", "--spec", str(tmp_path / "spec.json"),
                         "--out", str(tmp_path / out)]) == 0
        gen_ok = hash_dir(tmp_path / "g1") == hash_dir(tmp_path / "g2")

        for out in ("r1", "r2"):
            assert main(["cv", "--config", str(tmp_path / "cfg.json"),
                         "--data", str(tmp_path / "g1" / "manifest.csv"),
                         "--out", str(tmp_path / out)]) == 0
        h1, h2 = hash_dir(tmp_path / "r1"), hash_dir(tmp_path / "r2")
        cv_ok = h1 == h2 and any(k.endswith(".ckpt") for k in h1)
        ok = gen_ok and cv_ok
        _verdict(9, "seeded CLI reruns are bit-identical", ok,
                 f"gen trees equal: {gen_ok}; cv reports+checkpoints equal "
                 f"across {len(h1)} files: {cv_ok}")
    finally:
        for var, val in saved.items():
            if val is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = val


def test_10_fusion_not_worse_than_fmri_only():
    start = time.monotonic()
    spec = SyntheticSpec(
        blob_amplitude=1e-4,          # volumes carry essentially no label signal
        site_count=1,                 # no cross-site twins to memorize
        subjects_per_class_per_site=16, volumes_per_subject=3,
        with_smri=True, with_fc=True, with_pheno=True,
        pheno_signal=6.0, seed=5)
    records = generate_synthetic(spec)
    plan = plan_folds(records, k=2, seed=0)
    cfg = TrainConfig(epochs=8, lr=1e-3, lr_drop_epoch=6, seed=0)

    fmri_accs, fusion_accs = [], []
    for fold in range(2):
        train_recs, test_recs = plan.split(records, fold)
        fmri_model = BrainFormer(ModelConfig.desk(), seed=fold)
        train_fold(fmri_model, train_recs, cfg)
        fmri_accs.append(evaluate(fmri_model, test_recs).volume_accuracy)

        fusion_cfg = ModelConfig.desk(
            use_smri=True, use_fc=True, use_pheno=True,
            fc_input_dim=spec.fc_parcels ** 2, pheno_input_dim=spec.pheno_dim)
        fusion_model = BrainFormer(fusion_cfg, seed=fold)
        train_fold(fusion_model, train_recs, cfg)
        fusion_accs.append(evaluate(fusion_model, test_recs).volume_accuracy)

    fmri = float(np.mean(fmri_accs))
    fusion = float(np.mean(fusion_accs))
    elapsed = time.monotonic() - start
    ok = fusion >= fmri
    _verdict(10, "fusion at least matches fMRI-only", ok,
             f"phenotype-determined task: fusion {fusion:.3f} >= "
             f"fMRI-only {fmri:.3f} (2-fold means); {elapsed:.0f}s")
