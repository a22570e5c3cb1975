"""Model assembly, cost estimation, fusion equivalences, checkpoints."""

import numpy as np
import pytest

from volformer import model as M
from volformer import tensor as T
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
    assert fusion.feature_dim == 64 * 2 + cfg.mlp_out * 2
    assert fusion.classifier_weight.shape == (2, fusion.feature_dim)


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
    for _, t in fusion.mlp_pheno.params():
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
    assert meta["kind"] == "brainformer"
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
