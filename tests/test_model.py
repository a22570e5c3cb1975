"""Model assembly, cost estimation, fusion equivalences, checkpoints."""

import itertools
import struct

import numpy as np
import pytest

from volformer import model as M
from volformer import tensor as T
from volformer.cli import ATTENTION_PLANS, main
from volformer.data import write_container, write_volume
from volformer.errors import CheckpointError, ConfigError, DataError, ShapeError
from volformer.model import ModelConfig


def desk_batch(rng, n=2, extent=(16, 18, 16)):
    return rng.normal(size=(n, 1) + extent).astype(np.float32)


def param_count(model):
    return sum(t.data.size for _, t in model.params())


# ---------------------------------------------------------------------------
# configuration


def test_full_preset_shape_chain():
    chain = ModelConfig.full().stage_extents()
    assert chain == [(32, 36, 32), (32, 36, 32), (16, 18, 16), (8, 9, 8), (8, 9, 8)]


def test_desk_preset_shape_chain():
    chain = ModelConfig.desk().stage_extents()
    assert chain == [(8, 9, 8), (8, 9, 8), (4, 5, 4), (2, 3, 2), (2, 3, 2)]


def test_config_round_trip_and_unknown_key():
    cfg = ModelConfig.desk(class_count=3)
    again = ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ConfigError) as exc:
        ModelConfig.from_dict({"stage_channel": [8]})
    assert "stage_channel" in str(exc.value)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ModelConfig.desk(attention_plan=("S", "S", "D")).validate()
    with pytest.raises(ConfigError):
        ModelConfig.desk(stage_strides=(1, 3, 2, 1)).validate()
    with pytest.raises(ConfigError):
        ModelConfig.desk(attention_plan=("S", "S", "X", "D")).validate()
    with pytest.raises(ConfigError):
        # stage-3 channels (32) not divisible by 5 heads
        ModelConfig.desk(dga_heads=5).validate()
    with pytest.raises(ConfigError):
        ModelConfig.desk(class_count=1).validate()
    with pytest.raises(ConfigError, match="zero-stage config requires explicit stem_channels"):
        ModelConfig(stage_channels=(), stage_blocks=(), stage_strides=(), attention_plan=())


def test_parse_attention_plan():
    assert M.parse_attention_plan("S-D-none-D") == ("S", "D", "none", "D")
    with pytest.raises(ConfigError):
        M.parse_attention_plan("S-Q-D-D")


# ---------------------------------------------------------------------------
# model forward


def test_desk_forward_shapes_match_extent_chain():
    rng = np.random.default_rng(50)
    model = M.BrainFormer(ModelConfig.desk(), seed=1)
    _, trace = model.forward_trace(desk_batch(rng), training=True)
    chain = model.cfg.stage_extents()
    assert trace["stem"].shape == (2, 8) + chain[0]
    for i, ch in enumerate(model.cfg.stage_channels):
        assert trace[f"stage{i + 1}"].shape == (2, ch) + chain[i + 1]


def test_forward_volume_is_distribution_and_deterministic():
    rng = np.random.default_rng(51)
    model = M.BrainFormer(ModelConfig.desk(), seed=2)
    model.forward_logits(desk_batch(rng, 4), training=True)  # seed BN stats
    v = rng.normal(size=(16, 18, 16)).astype(np.float32)
    p1 = M.forward_volume(model, v).data
    p2 = M.forward_volume(model, v).data
    assert p1.shape == (2,)
    assert abs(p1.sum() - 1.0) < 1e-6
    assert np.all(p1 > 0)
    assert np.array_equal(p1, p2)


def test_forward_volume_wrong_extent_instructs_to_pad():
    model = M.BrainFormer(ModelConfig.desk(), seed=0)
    with pytest.raises(ShapeError) as exc:
        M.forward_volume(model, np.zeros((8, 8, 8), dtype=np.float32))
    assert "pad" in str(exc.value)


def test_parameter_count_full_exceeds_desk():
    full = M.estimate_cost(ModelConfig.full())
    desk = M.estimate_cost(ModelConfig.desk())
    assert full.parameter_count > desk.parameter_count


def test_attention_token_budget_warning():
    cfg = ModelConfig.desk(attention_plan=("D", "S", "D", "D"),
                           dga_token_budget=100)
    with pytest.warns(RuntimeWarning):
        M.BrainFormer(cfg, seed=0)


# ---------------------------------------------------------------------------
# cost model


def test_cost_report_positive_and_matches_built_parameters():
    for cfg in (ModelConfig.desk(), ModelConfig.desk(attention_plan=("none", "S", "D", "none"))):
        report = M.estimate_cost(cfg)
        assert report.flops > 0
        assert report.peak_activation_bytes > 0
        assert report.parameter_count > 0
        model = M.BrainFormer(cfg, seed=0)
        assert report.parameter_count == param_count(model) == sum(
            p for _, _, _, p in report.per_layer)


@pytest.mark.parametrize("smri,fc,pheno", itertools.product((False, True), repeat=3))
def test_cost_counts_the_enabled_branches(smri, fc, pheno):
    cfg = ModelConfig.desk(use_smri=smri, use_fc=fc, use_pheno=pheno)
    report = M.estimate_cost(cfg)
    assert report.parameter_count == param_count(M.BrainFormer(cfg, seed=0)) == sum(
        p for _, _, _, p in report.per_layer)
    names = [name for name, _, _, _ in report.per_layer]
    assert names[-1] == "classifier"
    branches = ("smri", "fc", "pheno")
    assert [n for n in names if n in branches] == [
        b for b, on in zip(branches, (smri, fc, pheno)) if on]


def test_fusion_rejects_unknown_branch_input():
    model = M.BrainFormer(ModelConfig.desk(use_fc=True), seed=0)
    with pytest.raises(TypeError):
        model.forward_logits(desk_batch(np.random.default_rng(0)), training=False,
                             fmri2=np.zeros((2, 64)))


def test_cost_ordering_over_attention_plans():
    plans = ["S-S-S-S", "S-S-S-D", "S-S-D-D", "S-D-D-D", "D-D-D-D"]
    flops = [M.estimate_cost(ModelConfig.full(
        attention_plan=M.parse_attention_plan(p))).flops for p in plans]
    for cheaper, dearer in zip(flops, flops[1:]):
        assert cheaper < dearer, f"expected strict increase, got {flops}"


def test_cost_zero_stage_is_stem_plus_classifier():
    cfg = ModelConfig(input_extent=(8, 8, 8), stage_channels=(), stage_blocks=(),
                      stage_strides=(), attention_plan=(), stem_channels=4,
                      use_data_norm=False, scale_preset="desk")
    report = M.estimate_cost(cfg)
    names = [name for name, *_ in report.per_layer]
    assert names == ["stem", "avg_pool", "classifier"]
    stem_vox = 4 * 4 * 4
    assert report.flops == 2 * (4 * 343 * stem_vox + 4 * 2)


def test_cost_conv_flops_scale_with_voxels():
    base = ModelConfig.desk(attention_plan=("none",) * 4)
    doubled = ModelConfig.desk(input_extent=(32, 18, 16),
                               attention_plan=("none",) * 4)
    ratio = M.estimate_cost(doubled).flops / M.estimate_cost(base).flops
    assert 1.9 < ratio < 2.1


def row_counter(model):
    """Wrap each ``estimate_cost`` row's module ``forward``, on the instance,
    in a nested ``count_ops``. The returned function runs one forward and
    maps each row to the multiply-adds counted in its modules; the
    classifier row is the total minus the rest."""
    measured = {}

    def wrap(module, row):
        forward = module.forward

        def counted(*args, **kwargs):
            with T.count_ops() as ops:
                out = forward(*args, **kwargs)
            measured[row] = measured.get(row, 0) + ops.macs
            return out

        module.forward = counted

    enc = model.encoder
    if enc.data_norm is not None:
        wrap(enc.data_norm, "data_norm")
    wrap(enc.stem, "stem")
    wrap(enc.stem_bn, "stem")
    for i, blocks in enumerate(enc.stages):
        for b, block in enumerate(blocks):
            wrap(block, f"stage{i + 1}.block{b}")
        if enc.attention[i] is not None:
            wrap(enc.attention[i], f"stage{i + 1}.attn[{model.cfg.attention_plan[i]}]")
    for name, branch in model.branches.items():
        wrap(branch, name)

    def run(volumes, training: bool, **extras) -> dict:
        measured.clear()
        with T.count_ops() as total:
            model.forward_logits(volumes, training, **extras)
        return {**measured, "classifier": total.macs - sum(measured.values())}

    return run


@pytest.mark.parametrize("cfg,batch", [
    *[pytest.param(ModelConfig.desk(attention_plan=M.parse_attention_plan(plan)), 2, id=plan)
      for plan in (*ATTENTION_PLANS, "S-none-D-none")],
    pytest.param(ModelConfig.desk(use_smri=True, use_fc=True, use_pheno=True), 2,
                 id="branches"),
    pytest.param(ModelConfig.desk(), 3, id="B3"),
    pytest.param(ModelConfig(input_extent=(16, 18, 16)), 1, id="full-widths"),
])
def test_measured_macs_equal_cost_rows(cfg, batch):
    """Every ``estimate_cost`` row's MACs times the batch equal the
    multiply-adds ``count_ops`` measures in that row's modules, in a training
    and then an evaluation forward."""
    rng = np.random.default_rng(53)
    model = M.BrainFormer(cfg, seed=0)
    extras = {name: rng.normal(size=(batch, *shape)).astype(np.float32)
              for name, shape in cfg.branch_shapes().items()}
    volumes = rng.normal(size=(batch, 1, *cfg.input_extent)).astype(np.float32)
    want = {name: batch * macs for name, macs, _, _ in M.estimate_cost(cfg).per_layer}
    count = row_counter(model)
    for training in (True, False):
        measured = count(volumes, training, **extras)
        assert set(measured) <= set(want)
        assert {name: measured.get(name, 0) for name in want} == want, training


# ---------------------------------------------------------------------------
# fusion


def test_fusion_fmri_only_equals_plain_model():
    rng = np.random.default_rng(52)
    cfg = ModelConfig.desk()
    fusion = M.BrainFormer(cfg, seed=7)
    plain = M.BrainFormer(cfg, seed=7)
    x = desk_batch(rng, 3)
    a = fusion.forward_logits(x, training=True).data
    b = plain.forward_logits(x, training=True).data
    assert np.array_equal(a, b)


def test_fusion_feature_width_arithmetic():
    cfg = ModelConfig.desk(use_smri=True, use_fc=True, use_pheno=True)
    fusion = M.BrainFormer(cfg, seed=0)
    assert cfg.feature_width() == 64 * 2 + cfg.mlp_out * 2
    assert fusion.classifier_weight.shape == (2, cfg.feature_width())


def test_fusion_missing_branch_data_names_branch():
    rng = np.random.default_rng(53)
    cfg = ModelConfig.desk(use_pheno=True)
    fusion = M.BrainFormer(cfg, seed=0)
    with pytest.raises(DataError) as exc:
        fusion.forward_logits(desk_batch(rng), training=True)
    assert "pheno" in str(exc.value)


def test_fusion_masked_branch_equals_reduced_model():
    rng = np.random.default_rng(54)
    cfg = ModelConfig.desk(use_pheno=True)
    fusion = M.BrainFormer(cfg, seed=3)
    reduced = M.BrainFormer(ModelConfig.desk(), seed=99)
    for (_, src), (_, dst) in zip(fusion.encoder.params(), reduced.encoder.params()):
        dst.data = src.data.copy()
    vol_feat = fusion.encoder.out_channels
    reduced.classifier_weight.data = fusion.classifier_weight.data[:, :vol_feat].copy()
    # Freeze the pheno branch at zero and mask its classifier columns.
    for _, t in fusion.branches["pheno"].params():
        t.data[:] = 0.0
    fusion.classifier_weight.data[:, vol_feat:] = 0.0
    x = desk_batch(rng, 2)
    pheno = rng.normal(size=(2, cfg.pheno_input_dim)).astype(np.float32)
    a = fusion.forward_logits(x, training=True, pheno=pheno).data
    b = reduced.forward_logits(x, training=True).data
    assert np.abs(a - b).max() < 1e-5


# ---------------------------------------------------------------------------
# checkpoints


def trained_desk_model(seed=11):
    rng = np.random.default_rng(seed)
    model = M.BrainFormer(ModelConfig.desk(), seed=seed)
    model.forward_logits(desk_batch(rng, 4), training=True)  # populate BN stats
    return model, rng


def test_checkpoint_round_trip_bit_identical_forward(tmp_path):
    model, rng = trained_desk_model()
    path = tmp_path / "model.vfck"
    M.save_model(model, path, extra_meta={"note": "round-trip"})
    loaded, meta = M.load_model(path)
    assert meta["note"] == "round-trip"
    assert path.read_bytes()[:8] == b"VFCK" + struct.pack("<I", 3)  # magic and version
    x = desk_batch(rng, 3)
    with T.no_grad():
        a = model.forward_logits(x, training=False).data
        b = loaded.forward_logits(x, training=False).data
    assert np.array_equal(a, b)


def test_branched_checkpoint_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(12)
    cfg = ModelConfig.desk(use_smri=True, use_fc=True, use_pheno=True)
    model = M.BrainFormer(cfg, seed=5)
    extras = {"smri": desk_batch(rng, 3),
              "fc": rng.uniform(-1, 1, size=(3, cfg.fc_input_dim)).astype(np.float32),
              "pheno": rng.normal(size=(3, cfg.pheno_input_dim)).astype(np.float32)}
    model.forward_logits(desk_batch(rng, 3), training=True, **extras)  # seed BN stats
    path = tmp_path / "branched.vfck"
    M.save_model(model, path)
    loaded, _ = M.load_model(path)
    assert [n for n, _ in loaded.params()] == [n for n, _ in model.params()]
    assert [n for n, _ in loaded.norm_layers()] == [n for n, _ in model.norm_layers()]
    x = desk_batch(rng, 3)
    with T.no_grad():
        a = model.forward_logits(x, training=False, **extras).data
        b = loaded.forward_logits(x, training=False, **extras).data
    assert np.array_equal(a, b)


def test_load_state_with_new_running_stats_moves_eval_logits():
    """Two models of one seed whose batch-norm statistics come from
    different batches: after ``load_state`` of the second's arrays, the
    first, its cached evaluation constants warm, gives the second's
    evaluation logits byte for byte."""
    rng = np.random.default_rng(44)
    a, b = M.BrainFormer(ModelConfig.desk(), seed=3), M.BrainFormer(ModelConfig.desk(), seed=3)
    a.forward_logits(desk_batch(rng, 2), training=True)
    b.forward_logits(desk_batch(rng, 2) * 2.0 + 1.0, training=True)
    x = desk_batch(rng, 1)
    with T.no_grad():
        before = a.forward_logits(x, training=False).data
        want = b.forward_logits(x, training=False).data
        assert not np.array_equal(before, want)
        M.load_state(a, dict(M._state_entries(b)))
        assert a.forward_logits(x, training=False).data.tobytes() == want.tobytes()


def _hand_written_tree(cfg):
    """Parameter and norm-layer names by the rules each layer once listed by
    hand, for a model built from ``cfg``."""
    def bn(prefix):
        return [f"{prefix}.gamma", f"{prefix}.beta"]

    def encoder(p):
        params = [f"{p}.stem.weight"] + bn(f"{p}.stem_bn")
        norms = [f"{p}.stem_bn"]
        in_ch = cfg.resolved_stem_channels()
        for i, out_ch in enumerate(cfg.stage_channels):
            for b in range(cfg.stage_blocks[i]):
                blk = f"{p}.stage{i + 1}.block{b}"
                params += [f"{blk}.conv1.weight", *bn(f"{blk}.bn1"),
                           f"{blk}.conv2.weight", *bn(f"{blk}.bn2")]
                norms += [f"{blk}.bn1", f"{blk}.bn2"]
                stride = cfg.stage_strides[i] if b == 0 else 1
                if stride != 1 or in_ch != out_ch:
                    params += [f"{blk}.proj.weight", *bn(f"{blk}.bn_proj")]
                    norms.append(f"{blk}.bn_proj")
                in_ch = out_ch
            attn = {"S": ("w_spatial_in", "w_spatial_out", "w_channel_in", "w_channel_out"),
                    "D": ("pos_embed", "qkv", "out_proj", "ff_w_in", "ff_b_in",
                          "ff_w_out", "ff_b_out"),
                    "none": ()}[cfg.attention_plan[i]]
            params += [f"{p}.stage{i + 1}.attn.{n}" for n in attn]
        return params, norms

    params, norms = encoder("encoder")
    for name, shape in cfg.branch_shapes().items():
        if len(shape) > 1:
            more, more_norms = encoder(f"encoder_{name}")
            params += more
            norms += more_norms
        else:
            params += [f"mlp_{name}.{kind}{i}" for i in range(3) for kind in "wb"]
    return params + ["classifier.weight"], norms


@pytest.mark.parametrize("branches, n_params, n_norms", [
    pytest.param({}, 83, 20, id="volume-only"),
    pytest.param(dict(use_smri=True, use_fc=True, use_pheno=True), 177, 40, id="all-branches"),
])
def test_state_tree_names_and_order_are_pinned(branches, n_params, n_norms):
    model = M.BrainFormer(ModelConfig.desk(**branches), seed=3)
    params, norms = _hand_written_tree(model.cfg)
    assert (len(params), len(norms)) == (n_params, n_norms)
    assert [n for n, _ in model.params()] == params
    assert [n for n, _ in model.norm_layers()] == norms
    assert all(isinstance(layer, M.BatchNormLayer) for _, layer in model.norm_layers())
    assert len({id(t) for _, t in model.params()}) == n_params


def test_checkpoint_version_1_is_rejected(tmp_path):
    model, _ = trained_desk_model()
    path = tmp_path / "model.vfck"
    M.save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 1"):
        M.load_model(path)


def test_checkpoint_detects_corruption(tmp_path):
    model, _ = trained_desk_model()
    path = tmp_path / "model.vfck"
    M.save_model(model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        M.load_model(path)


def test_checkpoint_detects_truncation_and_bad_magic(tmp_path):
    model, _ = trained_desk_model()
    path = tmp_path / "model.vfck"
    M.save_model(model, path)
    blob = path.read_bytes()
    short = tmp_path / "short.vfck"
    short.write_bytes(blob[:len(blob) - 10])
    with pytest.raises(CheckpointError):
        M.load_checkpoint(short)
    bad = tmp_path / "bad.vfck"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError) as exc:
        M.load_checkpoint(bad)
    assert "magic" in str(exc.value)


def test_checkpoint_rejects_mismatched_model(tmp_path):
    model, _ = trained_desk_model()
    path = tmp_path / "model.vfck"
    M.save_model(model, path)
    meta, arrays = M.load_checkpoint(path)
    other = M.BrainFormer(ModelConfig.desk(stage_channels=(4, 8, 16, 32)), seed=0)
    with pytest.raises(CheckpointError):
        M.load_state(other, arrays)


def test_checkpoint_refuses_to_save_an_integer_array(tmp_path):
    """Refused before the file is opened, so a float32 record ahead of the
    int64 one leaves no partial file under the final name."""
    path = tmp_path / "int.vfck"
    with pytest.raises(CheckpointError, match="'w' has unsupported dtype int64"):
        M.save_checkpoint(path, {}, [("v", np.ones(3, dtype=np.float32)),
                                     ("w", np.arange(3, dtype=np.int64))])
    assert not path.exists()


def test_checkpoint_refuses_to_save_a_name_twice(tmp_path):
    """Refused before the file is opened, like an unsupported dtype."""
    path = tmp_path / "twice.vfck"
    with pytest.raises(CheckpointError, match="duplicate tensor 'w'"):
        M.save_checkpoint(path, {}, [("w", np.ones(3, dtype=np.float32)),
                                     ("v", np.ones(3, dtype=np.float32)),
                                     ("w", np.zeros(3, dtype=np.float32))])
    assert not path.exists()


def _raw_checkpoint(path, meta: bytes, tensors=()):
    """A checkpoint container, sealed with a valid CRC, holding ``meta``
    verbatim and ``(name bytes, dtype code, shape, payload)`` tensors, so a
    test can write what ``save_checkpoint`` refuses or cannot express."""
    parts = [struct.pack(f"<II{len(meta)}sI", M.CHECKPOINT_VERSION, len(meta), meta,
                         len(tensors))]
    for name, code, shape, payload in tensors:
        parts += [struct.pack(f"<H{len(name)}sBB{len(shape)}I", len(name), name, code,
                              len(shape), *shape), payload]
    write_container(path, M.CHECKPOINT_MAGIC, parts)


def _edited_state(path, edit):
    """Save a desk model's checkpoint with ``edit`` applied to its tensor dict."""
    M.save_model(trained_desk_model()[0], path)
    meta, arrays = M.load_checkpoint(path)
    edit(arrays)
    M.save_checkpoint(path, meta, list(arrays.items()))


def _poison(name: str, value: float):
    """A tensor-dict edit that sets the first entry of ``name`` to ``value``."""
    def edit(arrays):
        arrays[name].flat[0] = value
    return edit


@pytest.mark.parametrize("write, message", [
    pytest.param(lambda p: _raw_checkpoint(p, b"{not json"),
                 "corrupt checkpoint metadata", id="metadata-not-json"),
    pytest.param(lambda p: _raw_checkpoint(p, b"{}", [(b"w", 7, (2,), bytes(16))]),
                 "tensor 'w': unknown dtype code 7", id="dtype-code"),
    # the four extents multiply to 2**64, which wrapped to an empty payload
    pytest.param(lambda p: _raw_checkpoint(p, b"{}", [(b"w", 0, (65536,) * 4, b"")]),
                 "checkpoint truncated while reading tensor 'w' payload", id="extents-wrap"),
    pytest.param(lambda p: _raw_checkpoint(p, b"{}", [(b"\xff\xfe", 0, (1,), bytes(4))]),
                 "tensor name is not valid UTF-8", id="name-not-utf8"),
    pytest.param(lambda p: _raw_checkpoint(p, b'"config"'),
                 "checkpoint metadata must be a JSON object, got str", id="metadata-string"),
    # the last record won: an appended all-zero stem kernel zeroed the stem
    pytest.param(lambda p: _raw_checkpoint(p, b"{}", [(b"encoder.stem.weight", 0, (1,),
                                                       bytes(4))] * 2),
                 "duplicate tensor 'encoder.stem.weight'", id="duplicate-tensor"),
    pytest.param(lambda p: M.save_checkpoint(p, {"kind": "brainformer"}, []),
                 "metadata is missing the model config", id="no-config"),
    pytest.param(lambda p: _edited_state(p, lambda a: a.pop("encoder.stem.weight")),
                 "missing parameter 'encoder.stem.weight'", id="missing-parameter"),
    pytest.param(lambda p: _edited_state(p, lambda a: a.pop("encoder.stem_bn.running_var")),
                 "running stats for 'encoder.stem_bn' are incomplete", id="running-var"),
    pytest.param(lambda p: _edited_state(p, lambda a: a.update(bogus=np.zeros(1))),
                 "unknown tensors: ['bogus']", id="unknown-tensor"),
    # a non-finite weight made localize and audit fail later, on the map's scaling
    pytest.param(lambda p: _edited_state(p, _poison("encoder.stem.weight", np.nan)),
                 "tensor 'encoder.stem.weight' holds non-finite values",
                 id="non-finite-parameter"),
    pytest.param(lambda p: _edited_state(p, _poison("encoder.stem_bn.running_var", np.inf)),
                 "tensor 'encoder.stem_bn.running_var' holds non-finite values",
                 id="non-finite-running-stat"),
])
def test_checkpoint_refusals_exit_5(tmp_path, capsys, write, message):
    ckpt = tmp_path / "bad.vfck"
    write(ckpt)
    with pytest.raises(CheckpointError) as err:
        M.load_model(ckpt)
    assert message in str(err.value)
    volume = tmp_path / "v.vfv"
    write_volume(volume, np.zeros((16, 18, 16), dtype=np.float32))
    capsys.readouterr()
    rc = main(["localize", "--ckpt", str(ckpt), "--volume", str(volume), "--class", "0",
               "--out", str(tmp_path / "map")])
    err = capsys.readouterr().err
    assert rc == 5 and message in err and "Traceback" not in err, err
    # the same file cut by one byte fails its CRC before any field is parsed
    ckpt.write_bytes(ckpt.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="checkpoint checksum mismatch"):
        M.load_checkpoint(ckpt)
