"""Activation-map construction, resampling exactness, export round-trips."""

import json

import numpy as np
import pytest

from volformer.data import SyntheticSpec, generate_synthetic
from volformer.errors import ConfigError, DataError, StateError
from volformer.localize import (ActivationMap, average_maps, export_map, grad_cam,
                                load_map, top_fraction_mask, trilinear_resize)
from volformer.model import BrainFormer, ModelConfig
from volformer.tensor import Tensor
from volformer.train import TrainConfig, train_fold


def _tiny_spec(**overrides):
    base = dict(volume_extent=(8, 8, 8), blob_centers=((2, 2, 2), (5, 5, 5)),
                blob_radius=(1.5, 1.5), site_count=1,
                subjects_per_class_per_site=3, volumes_per_subject=3,
                gain_range=(1.0, 1.0), offset_range=(0.0, 0.0))
    base.update(overrides)
    return SyntheticSpec(**base)


def _tiny_model(seed=0, **overrides):
    cfg = ModelConfig.desk(input_extent=(8, 8, 8), stage_channels=(4, 8, 8, 8),
                           stage_blocks=(1, 1, 1, 1),
                           attention_plan=("none", "none", "none", "none"),
                           **overrides)
    return BrainFormer(cfg, seed=seed)


def _ready_model(seed=0, **overrides):
    """Model with batch-norm statistics seeded by one training-mode pass."""
    model = _tiny_model(seed=seed, **overrides)
    records = generate_synthetic(_tiny_spec())
    batch = np.stack([r.fmri_volumes[0].volume[None] for r in records[:4]])
    model.forward_logits(Tensor(batch), training=True)
    return model


def _volume():
    return generate_synthetic(_tiny_spec())[0].fmri_volumes[0].volume


# ---------------------------------------------------------------------------
# trilinear resampling


def test_resize_same_shape_is_identity():
    rng = np.random.default_rng(0)
    src = rng.normal(size=(4, 5, 3))
    out = trilinear_resize(src, (4, 5, 3))
    assert np.abs(out - src).max() < 1e-12


def test_resize_exact_at_source_lattice_points():
    rng = np.random.default_rng(1)
    src = rng.normal(size=(3, 4, 3))
    out = trilinear_resize(src, (5, 7, 5))
    # scale factors: (3-1)/(5-1)=1/2 and (4-1)/(7-1)=1/2, so every even
    # output index sits exactly on a source voxel center
    assert np.abs(out[::2, ::2, ::2] - src).max() < 1e-6


def test_resize_constant_stays_constant():
    out = trilinear_resize(np.full((2, 3, 2), 4.25), (9, 11, 7))
    assert np.abs(out - 4.25).max() < 1e-12


def test_resize_singleton_axis_broadcasts():
    src = np.arange(6, dtype=np.float64).reshape(1, 2, 3)
    out = trilinear_resize(src, (4, 2, 3))
    for z in range(4):
        assert np.abs(out[z] - src[0]).max() < 1e-12


def test_resize_interpolates_midpoints():
    src = np.zeros((2, 2, 2))
    src[1] = 1.0
    out = trilinear_resize(src, (3, 2, 2))
    assert np.abs(out[1] - 0.5).max() < 1e-12


def test_resize_rejects_bad_ranks():
    with pytest.raises(DataError):
        trilinear_resize(np.ones((2, 2)), (4, 4, 4))
    with pytest.raises(DataError):
        trilinear_resize(np.ones((2, 2, 2)), (4, 0, 4))


# ---------------------------------------------------------------------------
# map construction


def test_map_shape_range_and_default_layer():
    model = _ready_model()
    v = _volume()
    amap = grad_cam(model, v, target_class=0)
    assert amap.volume.shape == v.shape
    assert amap.layer == "stage4.conv"  # deepest conv output before mixing
    assert amap.volume.min() >= 0.0 and amap.volume.max() <= 1.0
    if not amap.degenerate:
        assert amap.volume.max() == pytest.approx(1.0, abs=1e-6)
    amap.validate()


def test_map_explicit_layers():
    model = _ready_model()
    v = _volume()
    for layer in ("stem", "stage2.conv", "stage4"):
        amap = grad_cam(model, v, 1, layer=layer)
        assert amap.volume.shape == v.shape
        assert amap.layer == layer


def test_map_unknown_layer_lists_options():
    model = _ready_model()
    with pytest.raises(ConfigError) as err:
        grad_cam(model, _volume(), 0, layer="stage9")
    assert "stage9" in str(err.value) and "stage4.conv" in str(err.value)


def test_map_target_class_bounds():
    model = _ready_model()
    with pytest.raises(ConfigError):
        grad_cam(model, _volume(), 2)
    with pytest.raises(ConfigError):
        grad_cam(model, _volume(), -1)


def test_map_rejects_non_3d_volume():
    model = _ready_model()
    with pytest.raises(DataError):
        grad_cam(model, np.ones((4, 4)), 0)


def test_map_requires_norm_statistics():
    model = _tiny_model()  # batch-norm never ran in training mode
    with pytest.raises(StateError):
        grad_cam(model, _volume(), 0)


def test_zeroed_class_head_gives_degenerate_map():
    model = _ready_model()
    model.classifier_weight.data[0] = 0.0
    amap = grad_cam(model, _volume(), 0)
    assert amap.degenerate
    assert amap.volume.max() == 0.0
    amap.validate()


def test_map_invariant_to_logit_temperature():
    model = _ready_model(seed=3)
    v = _volume()
    base = grad_cam(model, v, 0)
    model.classifier_weight.data *= 3.7
    scaled = grad_cam(model, v, 0)
    assert np.abs(base.volume - scaled.volume).max() < 1e-5
    assert np.array_equal(top_fraction_mask(base.volume, 0.05),
                          top_fraction_mask(scaled.volume, 0.05))


def test_map_deterministic():
    model = _ready_model(seed=5)
    v = _volume()
    a = grad_cam(model, v, 1)
    b = grad_cam(model, v, 1)
    assert np.array_equal(a.volume, b.volume)


def test_trained_model_maps_are_usable_and_class_specific():
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=4))
    model = _tiny_model(seed=1, stage_strides=(1, 1, 1, 1))
    train_fold(model, records, TrainConfig(epochs=6, batch_size=6, lr=2e-3,
                                           lr_drop_epoch=6, seed=0))
    sample = records[0].fmri_volumes[0]
    own = grad_cam(model, sample.volume, 0, layer="stage1.conv")
    other = grad_cam(model, sample.volume, 1, layer="stage1.conv")
    assert not own.degenerate
    own.validate()
    other.validate()
    # the two class maps of one volume rank voxels differently
    assert np.abs(own.volume - other.volume).max() > 0.1


# ---------------------------------------------------------------------------
# aggregation and top-fraction selection


def test_average_maps_renormalizes():
    a = ActivationMap(np.array([[[1.0, 0.0]]], dtype=np.float32), "stem", 0)
    b = ActivationMap(np.array([[[0.0, 0.5]]], dtype=np.float32), "stem", 0,
                      degenerate=False)
    out = average_maps([a, b])
    assert out.volume.max() == pytest.approx(1.0)
    assert out.volume[0, 0, 0] == pytest.approx(1.0)  # (1+0)/2 renormalized by 0.5
    assert out.volume[0, 0, 1] == pytest.approx(0.5)


def test_average_maps_rejects_mismatches():
    a = ActivationMap(np.ones((1, 1, 2), dtype=np.float32), "stem", 0)
    b = ActivationMap(np.ones((1, 1, 3), dtype=np.float32), "stem", 0)
    with pytest.raises(DataError):
        average_maps([a, b])
    c = ActivationMap(np.ones((1, 1, 2), dtype=np.float32), "stage1", 0)
    with pytest.raises(DataError):
        average_maps([a, c])
    with pytest.raises(DataError):
        average_maps([])


def test_top_fraction_mask_counts():
    rng = np.random.default_rng(7)
    vol = rng.permutation(1000).reshape(10, 10, 10).astype(np.float64)
    mask = top_fraction_mask(vol, 0.05)
    assert mask.sum() == 50
    assert vol[mask].min() > vol[~mask].max()
    with pytest.raises(ConfigError):
        top_fraction_mask(vol, 0.0)
    with pytest.raises(ConfigError):
        top_fraction_mask(vol, 1.5)


# ---------------------------------------------------------------------------
# export


def test_export_round_trip(tmp_path):
    model = _ready_model()
    amap = grad_cam(model, _volume(), 1)
    path = tmp_path / "map.vfv"
    written = export_map(amap, path)
    assert written["volume"] == path
    back = load_map(path)
    assert np.array_equal(back.volume, amap.volume)
    assert back.target_class == 1
    assert back.layer == amap.layer
    meta = json.loads(written["sidecar"].read_text())
    assert meta["target_class"] == 1
    assert meta["normalization"] == "max"
    assert meta["extents"] == list(amap.volume.shape)


def test_export_degenerate_round_trip(tmp_path):
    amap = ActivationMap(np.zeros((3, 3, 3), dtype=np.float32), "stem", 0,
                         degenerate=True)
    export_map(amap, tmp_path / "d.vfv")
    back = load_map(tmp_path / "d.vfv")
    assert back.degenerate


def test_export_slices(tmp_path):
    model = _ready_model()
    amap = grad_cam(model, _volume(), 0)
    written = export_map(amap, tmp_path / "m.vfv", slices=True)
    for axis in range(3):
        plane = np.loadtxt(written[f"slice_axis{axis}"], delimiter=",")
        mid = amap.volume.shape[axis] // 2
        assert np.allclose(plane, np.take(amap.volume, mid, axis=axis), atol=1e-6)


def test_load_map_missing_sidecar(tmp_path):
    from volformer.data import write_volume

    write_volume(tmp_path / "m.vfv", np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(DataError):
        load_map(tmp_path / "m.vfv")


def test_validate_rejects_out_of_range():
    with pytest.raises(DataError):
        ActivationMap(np.full((2, 2, 2), 1.5, dtype=np.float32), "stem", 0).validate()
    with pytest.raises(DataError):
        ActivationMap(np.full((2, 2, 2), 0.25, dtype=np.float32), "stem", 0,
                      degenerate=False).validate()
