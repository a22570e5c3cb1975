"""Volume file I/O, padding, FC extraction, fold plans, synthetic cohorts."""

import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from volformer.cli import main
from volformer.data import (FoldPlan, SubjectRecord, SyntheticSpec, VOLUME_MAGIC,
                            compute_fc, generate_synthetic, load_manifest, pad_volume,
                            plan_folds, read_volume, write_container, write_csv,
                            write_dataset, write_json, write_volume)
from volformer.errors import ConfigError, DataError, ParseError, PlanError
from volformer.layers import DataNormLayer
from volformer.model import BrainFormer, ModelConfig, save_model
from volformer.tensor import Tensor

from oracles import classify_by_blob_mean, pearson_loops, synthetic_reference


def _norm(arr):
    batch = np.asarray(arr, dtype=np.float32)[None, None]
    return DataNormLayer().forward(Tensor(batch)).data[0, 0]


# ---------------------------------------------------------------------------
# volume file format


def test_volume_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(5, 7, 3)).astype(np.float32)
    path = tmp_path / "v.vfv"
    write_volume(path, arr)
    back = read_volume(path)
    assert back.dtype == np.float32
    assert back.shape == (5, 7, 3)
    assert np.array_equal(back, arr)


def test_volume_round_trip_matrix(tmp_path):
    arr = np.arange(12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "m.vfv"
    write_volume(path, arr)
    assert np.array_equal(read_volume(path), arr)


def test_volume_native_extent_preserved(tmp_path):
    arr = np.zeros((61, 73, 61), dtype=np.float32)
    arr[30, 36, 30] = 1.0
    path = tmp_path / "native.vfv"
    write_volume(path, arr)
    back = read_volume(path)
    assert back.shape == (61, 73, 61)
    assert back[30, 36, 30] == 1.0


def test_volume_bad_magic_offset_zero(tmp_path):
    path = tmp_path / "bad.vfv"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert err.value.offset == 0
    assert "magic" in str(err.value)


def _volume_header(shape) -> bytes:
    return struct.pack(f"<I{len(shape)}I", len(shape), *shape)


def _assert_checksum_mismatch(path, blob: bytes):
    path.write_bytes(blob)
    with pytest.raises(ParseError, match="checksum mismatch"):
        read_volume(path)


def test_volume_truncation_reports_offset(tmp_path):
    """A payload cut short under a valid CRC reaches the truncation check; the
    same cut made to a written file breaks its CRC first."""
    arr = np.ones((4, 4, 4), dtype=np.float32)
    path = tmp_path / "t.vfv"
    write_container(path, VOLUME_MAGIC, [_volume_header(arr.shape), arr.tobytes()[:-10]])
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert "truncated" in str(err.value)
    assert "byte offset" in str(err.value)
    write_volume(path, arr)
    _assert_checksum_mismatch(path, path.read_bytes()[:-10])


def test_volume_rank_overflow(tmp_path):
    path = tmp_path / "r.vfv"
    write_container(path, VOLUME_MAGIC, [struct.pack("<I", 9)])
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert err.value.offset == 4
    _assert_checksum_mismatch(path, VOLUME_MAGIC + struct.pack("<II", 9, 0))


def test_volume_format_1_asks_to_regenerate(tmp_path, capsys):
    """A ``VFV1`` file (per-payload CRC, header unchecked) is named as the old
    format, not as corrupt, and exits 3."""
    arr = np.ones((2, 3, 4), dtype=np.float32).tobytes()
    path = tmp_path / "old.vfv"
    path.write_bytes(b"VFV1" + _volume_header((2, 3, 4)) + arr
                     + struct.pack("<I", zlib.crc32(arr)))
    with pytest.raises(ParseError, match="volume file format VFV1 is no longer read; "
                                         "regenerate the volume") as err:
        read_volume(path)
    assert err.value.offset == 0
    ckpt = tmp_path / "model.ckpt"
    save_model(BrainFormer(ModelConfig.desk(), seed=0), ckpt)
    capsys.readouterr()
    rc = main(["localize", "--ckpt", str(ckpt), "--volume", str(path),
               "--class", "0", "--out", str(tmp_path / "map")])
    err = capsys.readouterr().err
    assert rc == 3 and "regenerate the volume" in err and "Traceback" not in err, err


def test_volume_checksum_mismatch(tmp_path):
    arr = np.ones((3, 3, 3), dtype=np.float32)
    path = tmp_path / "c.vfv"
    write_volume(path, arr)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF  # flip a payload byte, keep length intact
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert "checksum" in str(err.value)


def test_volume_trailing_bytes_rejected(tmp_path):
    arr = np.ones((2, 2, 2), dtype=np.float32)
    path = tmp_path / "x.vfv"
    write_container(path, VOLUME_MAGIC, [_volume_header(arr.shape), arr.tobytes(), b"\x00\x01"])
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert "trailing" in str(err.value)
    write_volume(path, arr)
    _assert_checksum_mismatch(path, path.read_bytes() + b"\x00\x01")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_volume_with_non_finite_voxel_is_data_error(tmp_path, bad):
    arr = np.ones((3, 4, 5), dtype=np.float32)
    arr[1, 2, 3] = bad
    path = tmp_path / "bad.vfv"
    write_volume(path, arr)
    with pytest.raises(DataError) as err:
        read_volume(path)
    assert "non-finite" in str(err.value) and "(1, 2, 3)" in str(err.value)
    assert str(path) in str(err.value)


def _constant(arr: np.ndarray) -> bool:
    return bool(arr.max() == arr.min())


def test_read_volume_keeps_a_constant_volume_constant(tmp_path):
    path = tmp_path / "flat.vfv"
    write_volume(path, np.full((4, 4, 4), 2.5, dtype=np.float32))
    assert _constant(read_volume(path))
    write_volume(path, np.arange(8, dtype=np.float32).reshape(2, 2, 2))
    assert not _constant(read_volume(path))


# ---------------------------------------------------------------------------
# padding


def test_pad_centers_with_floor_offsets():
    v = np.ones((61, 72, 61), dtype=np.float32)
    out = pad_volume(v, target=(64, 72, 64))
    assert out.shape == (64, 72, 64)
    # (64-61)//2 = 1 low-side offset on axes 0 and 2, axis 1 already exact
    assert out[1:62, :, 1:62].min() == 1.0
    assert out[0].max() == 0.0 and out[62:].max() == 0.0
    assert out[:, :, 0].max() == 0.0 and out[:, :, 62:].max() == 0.0
    assert float(out.sum()) == 61 * 72 * 61


def test_pad_refuses_oversized_axis():
    v = np.ones((61, 73, 61), dtype=np.float32)
    with pytest.raises(DataError) as err:
        pad_volume(v, target=(64, 72, 64))
    assert "axis 1" in str(err.value)
    assert "73" in str(err.value) and "72" in str(err.value)


def test_pad_optional_center_crop():
    v = np.zeros((61, 73, 61), dtype=np.float32)
    v[:, 36, :] = 1.0  # center plane of the 73-extent axis
    out = pad_volume(v, target=(64, 72, 64), allow_crop=True)
    assert out.shape == (64, 72, 64)
    # crop keeps rows 0..71 of axis 1, so the old center plane lands at 36
    assert out[1:62, 36, 1:62].min() == 1.0


def test_pad_rank_mismatch():
    with pytest.raises(DataError):
        pad_volume(np.ones((4, 4)), target=(8, 8, 8))


# ---------------------------------------------------------------------------
# functional connectivity


def _voxelwise_series(roi_series):
    """Expand a (T, p) matrix into a (T, 1, 1, p) series with 1-voxel ROIs."""
    t, p = roi_series.shape
    series = roi_series.reshape(t, 1, 1, p)
    parcellation = np.arange(1, p + 1).reshape(1, 1, p)
    return series, parcellation


def test_fc_matches_loop_oracle():
    rng = np.random.default_rng(3)
    roi = rng.normal(size=(20, 4))
    series, parc = _voxelwise_series(roi)
    fc, flagged = compute_fc(series, parc, 4)
    assert flagged == []
    expected = pearson_loops(roi)
    assert np.abs(fc.astype(np.float64) - expected).max() < 1e-6
    assert fc.shape == (4, 4) and fc.dtype == np.float32


def test_fc_perfect_and_anti_correlation():
    t = np.linspace(0.0, 1.0, 12)
    roi = np.stack([t, 2 * t + 1, -t, np.sin(7 * t)], axis=1)
    series, parc = _voxelwise_series(roi)
    fc, _ = compute_fc(series, parc, 4)
    assert abs(fc[0, 1] - 1.0) < 1e-6
    assert abs(fc[0, 2] + 1.0) < 1e-6


def test_fc_symmetry_unit_diagonal_and_range():
    rng = np.random.default_rng(11)
    series = rng.normal(size=(15, 4, 5, 4))
    parc = rng.integers(1, 7, size=(4, 5, 4))
    for roi in range(1, 7):
        parc.reshape(-1)[roi] = roi  # guarantee every id appears
    fc, flagged = compute_fc(series, parc, 6)
    assert flagged == []
    assert np.array_equal(fc, fc.T)
    assert np.allclose(np.diag(fc), 1.0)
    assert fc.min() >= -1.0 - 1e-9 and fc.max() <= 1.0 + 1e-9


def test_fc_zero_variance_roi_flagged_and_zeroed():
    rng = np.random.default_rng(5)
    roi = rng.normal(size=(10, 3))
    roi[:, 1] = 4.0  # constant series
    series, parc = _voxelwise_series(roi)
    fc, flagged = compute_fc(series, parc, 3)
    assert flagged == [2]
    assert fc[1].max() == 0.0 and fc[:, 1].max() == 0.0
    assert fc[0, 0] == 1.0 and fc[2, 2] == 1.0


def test_fc_too_few_timepoints():
    series = np.zeros((2, 1, 1, 3))
    parc = np.arange(1, 4).reshape(1, 1, 3)
    with pytest.raises(DataError) as err:
        compute_fc(series, parc, 3)
    assert "time points" in str(err.value)


def test_fc_missing_roi_named():
    series = np.random.default_rng(0).normal(size=(8, 1, 1, 3))
    parc = np.array([[[1, 1, 2]]])
    with pytest.raises(DataError) as err:
        compute_fc(series, parc, 3)
    assert "3" in str(err.value)


def test_fc_parcellation_shape_mismatch():
    series = np.zeros((5, 2, 2, 2))
    with pytest.raises(DataError):
        compute_fc(series, np.ones((2, 2, 3), dtype=int), 1)


# ---------------------------------------------------------------------------
# fold planning


def _records(per_class, classes=2):
    recs = []
    for cls in range(classes):
        for i in range(per_class):
            recs.append(SubjectRecord(f"c{cls}s{i:02d}", f"site{i % 2}", cls))
    return recs


def test_folds_exact_partition_and_stratification():
    recs = _records(5)
    plan = plan_folds(recs, k=5, seed=0)
    assert plan.fold_count == 5
    assert sorted(plan.assignments) == sorted(r.subject_id for r in recs)
    for fold in range(5):
        members = [s for s, f in plan.assignments.items() if f == fold]
        assert len(members) == 2
        labels = sorted(s[1] for s in members)
        assert labels == ["0", "1"]  # one subject of each class per fold


def test_folds_split_partitions_records():
    recs = _records(7)
    plan = plan_folds(recs, k=5, seed=1)
    seen = set()
    for fold in range(5):
        train, test = plan.split(recs, fold)
        assert len(train) + len(test) == len(recs)
        assert not {r.subject_id for r in train} & {r.subject_id for r in test}
        seen |= {r.subject_id for r in test}
    assert seen == {r.subject_id for r in recs}


def test_folds_deterministic_and_order_invariant():
    recs = _records(6)
    plan_a = plan_folds(recs, k=3, seed=42)
    plan_b = plan_folds(list(reversed(recs)), k=3, seed=42)
    assert plan_a.assignments == plan_b.assignments
    plan_c = plan_folds(recs, k=3, seed=43)
    assert plan_a.assignments != plan_c.assignments


def test_folds_too_few_subjects_names_class():
    recs = _records(5)[:7]  # class 1 keeps only 2 subjects
    with pytest.raises(PlanError) as err:
        plan_folds(recs, k=5, seed=0)
    assert "class 1" in str(err.value)


def test_folds_conflicting_labels_rejected():
    recs = [SubjectRecord("s0", "a", 0), SubjectRecord("s0", "a", 1)]
    with pytest.raises(PlanError):
        plan_folds(recs, k=2)


def test_fold_split_unknown_subject():
    plan = FoldPlan(2, {"s0": 0})
    with pytest.raises(PlanError):
        plan.split([SubjectRecord("ghost", "a", 0)], 0)


# ---------------------------------------------------------------------------
# synthetic spec validation


def test_spec_round_trips_through_dict():
    spec = SyntheticSpec(site_count=3, pheno_signal=0.5, with_pheno=True)
    again = SyntheticSpec.from_dict(spec.to_dict())
    assert again == spec


def test_spec_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        SyntheticSpec.from_dict({"blob_ampltude": 2.0})
    assert "blob_ampltude" in str(err.value)


def test_spec_rejects_center_outside_volume():
    with pytest.raises(ConfigError) as err:
        SyntheticSpec(blob_centers=((5, 6, 5), (10, 18, 10)))
    assert "center" in str(err.value)


def test_spec_rejects_nonpositive_amplitude():
    with pytest.raises(ConfigError):
        SyntheticSpec(blob_amplitude=0.0).validate()


def test_spec_rejects_bad_gain_range():
    with pytest.raises(ConfigError):
        SyntheticSpec(gain_range=(0.0, 2.0)).validate()


# ---------------------------------------------------------------------------
# synthetic generation


def test_generate_counts_and_ordering():
    spec = SyntheticSpec(subjects_per_class_per_site=2, volumes_per_subject=3)
    recs = generate_synthetic(spec)
    assert len(recs) == 2 * 2 * 2
    assert all(len(r.fmri_volumes) == 3 for r in recs)
    assert [r.subject_id for r in recs[:2]] == ["s00c0n000", "s00c0n001"]
    assert all(v.volume.shape == (16, 18, 16) for r in recs for v in r.fmri_volumes)
    assert all(v.volume.dtype == np.float32 for r in recs for v in r.fmri_volumes)


def test_generate_bit_reproducible():
    spec = SyntheticSpec(subjects_per_class_per_site=2, volumes_per_subject=2,
                         with_smri=True, with_fc=True, with_pheno=True)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for ra, rb in zip(a, b):
        for va, vb in zip(ra.fmri_volumes, rb.fmri_volumes):
            assert np.array_equal(va.volume, vb.volume)
        assert np.array_equal(ra.smri.volume, rb.smri.volume)
        assert np.array_equal(ra.fc_vector, rb.fc_vector)
        assert np.array_equal(ra.phenotype, rb.phenotype)


def test_generate_sites_differ_only_by_affine():
    spec = SyntheticSpec(site_count=2, subjects_per_class_per_site=1,
                         volumes_per_subject=2)
    recs = {r.subject_id: r for r in generate_synthetic(spec)}
    g0, o0 = spec.gain_range[0], spec.offset_range[0]
    g1, o1 = spec.gain_range[1], spec.offset_range[1]
    for cls in range(2):
        a = recs[f"s00c{cls}n000"]
        b = recs[f"s01c{cls}n000"]
        for va, vb in zip(a.fmri_volumes, b.fmri_volumes):
            ua = (va.volume.astype(np.float64) - o0) / g0
            ub = (vb.volume.astype(np.float64) - o1) / g1
            assert np.abs(ua - ub).max() < 1e-4


def test_generate_standardization_removes_site_effect():
    spec = SyntheticSpec(site_count=2, subjects_per_class_per_site=1,
                         volumes_per_subject=1)
    recs = {r.subject_id: r for r in generate_synthetic(spec)}
    a = _norm(recs["s00c0n000"].fmri_volumes[0].volume)
    b = _norm(recs["s01c0n000"].fmri_volumes[0].volume)
    assert np.abs(a - b).max() < 1e-5


def test_generate_noiseless_volume_is_exact_blob():
    spec = SyntheticSpec(noise_sigma=0.0, gain_range=(1.0, 1.0),
                         offset_range=(0.0, 0.0), site_count=1,
                         subjects_per_class_per_site=1, volumes_per_subject=1)
    recs = generate_synthetic(spec)
    v = recs[0].fmri_volumes[0].volume.astype(np.float64)
    center, radius = spec.blob_centers[0], spec.blob_radius[0]
    grids = np.meshgrid(*[np.arange(e) for e in spec.volume_extent], indexing="ij")
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    blob = spec.blob_amplitude * np.exp(-r2 / (2 * radius ** 2))
    assert np.abs(v - blob).max() < 1e-6
    assert abs(v[center] - spec.blob_amplitude) < 1e-6


def test_generate_blob_threshold_oracle_accuracy():
    spec = SyntheticSpec()
    recs = generate_synthetic(spec)
    total = hits = 0
    for rec in recs:
        for sample in rec.fmri_volumes:
            pred = classify_by_blob_mean(_norm(sample.volume),
                                         spec.blob_centers, spec.blob_radius)
            hits += pred == rec.label
            total += 1
    assert total == 2 * 2 * 5 * 6
    assert hits / total >= 0.99


def test_generate_optional_modalities():
    spec = SyntheticSpec(subjects_per_class_per_site=1, volumes_per_subject=1,
                         with_smri=True, with_fc=True, fc_parcels=5,
                         with_pheno=True, pheno_dim=3, pheno_signal=2.0)
    recs = generate_synthetic(spec)
    for rec in recs:
        assert rec.smri.volume.shape == spec.volume_extent
        assert rec.fc_vector.shape == (25,)
        fc = rec.fc_vector.reshape(5, 5)
        assert np.allclose(np.diag(fc), 1.0)
        assert np.array_equal(fc, fc.T)
        assert rec.phenotype.shape == (3,)
        assert np.all(rec.pheno_mask == 1.0)
    # signal shifts the first phenotype component by class
    mean0 = np.mean([r.phenotype[0] for r in recs if r.label == 0])
    mean1 = np.mean([r.phenotype[0] for r in recs if r.label == 1])
    assert mean1 - mean0 > 1.0


def _arrays(rec: SubjectRecord) -> dict[str, np.ndarray]:
    """Every array a record holds, by name."""
    arrays = {f"fmri{i}": v.volume for i, v in enumerate(rec.fmri_volumes)}
    if rec.smri is not None:
        arrays["smri"] = rec.smri.volume
    for name in ("fc_vector", "phenotype", "pheno_mask"):
        if getattr(rec, name) is not None:
            arrays[name] = getattr(rec, name)
    return arrays


@pytest.mark.parametrize("spec", [
    pytest.param(SyntheticSpec(), id="default"),
    pytest.param(SyntheticSpec(site_count=3, with_smri=True, with_fc=True, with_pheno=True,
                               pheno_signal=0.5), id="3-site-all-modalities"),
    pytest.param(SyntheticSpec(site_count=1, jitter_fraction=0.0), id="1-site-no-jitter"),
    pytest.param(SyntheticSpec(noise_sigma=0.0, class_count=3,
                               blob_centers=((4, 4, 4), (11, 13, 11), (8, 9, 8)),
                               blob_radius=(2.0, 2.0, 2.0)), id="noiseless-3-class"),
])
def test_generate_matches_the_per_site_reference(spec):
    """Drawing each subject's noise once for all sites changes no output byte,
    and every record still owns its arrays (callers edit them in place)."""
    got, want = generate_synthetic(spec), synthetic_reference(spec)
    assert ([(r.subject_id, r.site_id, r.label) for r in got]
            == [(r.subject_id, r.site_id, r.label) for r in want])
    for a, b in zip(got, want):
        xs, ys = _arrays(a), _arrays(b)
        assert xs.keys() == ys.keys()
        for name, x in xs.items():
            y = ys[name]
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    owned = [arr for rec in got for arr in _arrays(rec).values()]
    for i, x in enumerate(owned):
        assert not any(np.shares_memory(x, y) for y in owned[i + 1:])


# ---------------------------------------------------------------------------
# manifests


def test_manifest_row_count_and_round_trip(tmp_path):
    spec = SyntheticSpec(subjects_per_class_per_site=2, volumes_per_subject=3,
                         with_pheno=True, pheno_dim=2)
    recs = generate_synthetic(spec)
    manifest = write_dataset(recs, tmp_path)
    lines = manifest.read_text().strip().splitlines()
    assert len(lines) - 1 == 2 * 2 * 2 * 3  # sites * classes * subjects * volumes
    assert lines[0] == "subject_id,site_id,label,modality,path,pheno_0,pheno_1"
    back = load_manifest(manifest)
    assert [r.subject_id for r in back] == [r.subject_id for r in recs]
    for orig, got in zip(recs, back):
        assert got.site_id == orig.site_id and got.label == orig.label
        assert len(got.fmri_volumes) == len(orig.fmri_volumes)
        for va, vb in zip(orig.fmri_volumes, got.fmri_volumes):
            assert np.array_equal(va.volume, vb.volume)
        assert np.allclose(got.phenotype, orig.phenotype)
        assert np.array_equal(got.pheno_mask, orig.pheno_mask)


def test_manifest_round_trips_smri_and_fc(tmp_path):
    spec = SyntheticSpec(subjects_per_class_per_site=1, volumes_per_subject=1,
                         with_smri=True, with_fc=True, fc_parcels=4)
    recs = generate_synthetic(spec)
    back = load_manifest(write_dataset(recs, tmp_path))
    for orig, got in zip(recs, back):
        assert np.array_equal(got.smri.volume, orig.smri.volume)
        assert np.allclose(got.fc_vector, orig.fc_vector, atol=1e-7)


def test_constant_volumes_stay_constant_through_the_round_trip(tmp_path):
    """Noiseless sMRI is constant in memory, after a manifest reload and read
    back from its file. The fMRI volumes carry their class blob, so no copy of
    them is constant."""
    spec = SyntheticSpec(noise_sigma=0.0, with_smri=True, site_count=1,
                         subjects_per_class_per_site=1, volumes_per_subject=1)
    recs = generate_synthetic(spec)
    back = load_manifest(write_dataset(recs, tmp_path))

    def constant(records):
        return [(_constant(r.smri.volume), [_constant(v.volume) for v in r.fmri_volumes])
                for r in records]

    assert constant(recs) == constant(back) == [(True, [False])] * 2
    files = [(read_volume(tmp_path / "volumes" / f"{r.subject_id}_smri.vfv"),
              read_volume(tmp_path / "volumes" / f"{r.subject_id}_fmri00.vfv")) for r in recs]
    assert [(_constant(smri), _constant(fmri)) for smri, fmri in files] == [(True, False)] * 2


def test_manifest_missing_pheno_cells_become_mask(tmp_path):
    spec = SyntheticSpec(subjects_per_class_per_site=1, volumes_per_subject=1,
                         with_pheno=True, pheno_dim=3)
    recs = generate_synthetic(spec)
    recs[0].pheno_mask = np.array([1.0, 0.0, 1.0], dtype=np.float32)
    manifest = write_dataset(recs, tmp_path)
    back = load_manifest(manifest)
    assert np.array_equal(back[0].pheno_mask, [1.0, 0.0, 1.0])
    assert back[0].phenotype[1] == 0.0
    assert np.array_equal(back[1].pheno_mask, [1.0, 1.0, 1.0])


@pytest.mark.parametrize("cell", ["nan", "inf", "1e40"])
def test_manifest_rejects_non_finite_pheno_cell(tmp_path, cell):
    """1e40 is finite for ``float`` but overflows the float32 vector."""
    spec = SyntheticSpec(subjects_per_class_per_site=1, volumes_per_subject=1,
                         with_pheno=True, pheno_dim=3)
    manifest = write_dataset(generate_synthetic(spec), tmp_path)
    lines = manifest.read_text().splitlines()
    row = lines[2].split(",")
    row[6] = cell
    lines[2] = ",".join(row)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_manifest(manifest)
    assert "line 3" in str(err.value) and f"pheno_1 = {cell!r}" in str(err.value)


@pytest.mark.parametrize("field", ["fc_vector", "phenotype"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_subject_record_rejects_non_finite_vectors(field, value):
    """A NaN would pass the fc range check alone: nan < -1 is False."""
    vector = np.zeros(4, dtype=np.float32)
    vector[2] = value
    rec = SubjectRecord("s0", "site0", 0, **{field: vector})
    with pytest.raises(DataError) as err:
        rec.validate()
    assert "'s0'" in str(err.value) and "non-finite" in str(err.value)


def test_manifest_without_pheno_leaves_none(tmp_path):
    recs = generate_synthetic(SyntheticSpec(subjects_per_class_per_site=1,
                                            volumes_per_subject=1))
    back = load_manifest(write_dataset(recs, tmp_path))
    assert all(r.phenotype is None and r.pheno_mask is None for r in back)


def test_manifest_rejects_bad_header(tmp_path):
    bad = tmp_path / "manifest.csv"
    bad.write_text("subject,site_id,label,modality,path\n")
    with pytest.raises(DataError) as err:
        load_manifest(bad)
    assert "header" in str(err.value)


def test_manifest_rejects_unknown_modality(tmp_path):
    recs = generate_synthetic(SyntheticSpec(subjects_per_class_per_site=1,
                                            volumes_per_subject=1))
    manifest = write_dataset(recs, tmp_path)
    text = manifest.read_text().replace("fmri", "meg", 1)
    manifest.write_text(text)
    with pytest.raises(DataError) as err:
        load_manifest(manifest)
    assert "meg" in str(err.value)


def test_manifest_rejects_label_flip(tmp_path):
    recs = generate_synthetic(SyntheticSpec(subjects_per_class_per_site=1,
                                            volumes_per_subject=2))
    manifest = write_dataset(recs, tmp_path)
    lines = manifest.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = "1" if cells[2] == "0" else "0"
    lines[2] = ",".join(cells)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError):
        load_manifest(manifest)


def test_manifest_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_manifest(tmp_path / "nope.csv")


HEADER = "subject_id,site_id,label,modality,path"


@pytest.mark.parametrize("text, message", [
    pytest.param("", "is empty", id="empty"),
    pytest.param(f"{HEADER},pheno_1\ns0,a,0,fmri,v.vfv,1.0\n",
                 "pheno_0..; got 'pheno_1'", id="pheno-column"),
    pytest.param(f"{HEADER}\ns0,a,0,fmri\n", "line 2: expected 5 cells, got 4",
                 id="short-row"),
    pytest.param(f"{HEADER}\ns0,a,zero,fmri,v.vfv\n",
                 "line 2: label 'zero' is not an int", id="label"),
    pytest.param(f"{HEADER}\ns0,a,-1,fmri,v.vfv\n",
                 "line 2: label -1 is negative", id="negative-label"),
    pytest.param(f"{HEADER}\ns0,a,-1,fc,square.vfv\n",
                 "line 2: label -1 is negative", id="negative-label-fc-only"),
    pytest.param(f"{HEADER}\ns0,a,0,fc,fc.vfv\n",
                 "square matrix, got shape (2, 3)", id="fc-not-square"),
    pytest.param(f"{HEADER},pheno_0\ns0,a,0,fmri,v.vfv,abc\n",
                 "line 2: bad phenotype cell 'abc'", id="pheno-cell"),
])
def test_manifest_refusals_exit_3(tmp_path, capsys, text, message):
    write_volume(tmp_path / "v.vfv", np.ones((4, 4, 4), dtype=np.float32))
    write_volume(tmp_path / "fc.vfv", np.zeros((2, 3), dtype=np.float32))
    write_volume(tmp_path / "square.vfv", np.eye(3, dtype=np.float32))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(text)
    with pytest.raises(DataError) as err:
        load_manifest(manifest)
    assert message in str(err.value)
    (tmp_path / "cfg.json").write_text(json.dumps({"model": {"scale_preset": "desk"}}))
    capsys.readouterr()
    rc = main(["cv", "--config", str(tmp_path / "cfg.json"), "--data", str(manifest),
               "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 3 and message in err and "Traceback" not in err, err


# ---------------------------------------------------------------------------
# artifact writes


def test_write_csv_and_json_formats(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], [[1, "x,y"], [2, ""]])
    assert (tmp_path / "t.csv").read_bytes() == b'a,b\r\n1,"x,y"\r\n2,\r\n'
    write_json(tmp_path / "t.json", {"a": [1, 2.5], "b": None})
    assert (tmp_path / "t.json").read_text() == json.dumps(
        {"a": [1, 2.5], "b": None}, indent=2) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]


def _failing_rows():
    yield [1, 2]
    raise OSError("simulated disk full")


def test_interrupted_csv_and_json_writes_leave_no_file(tmp_path, monkeypatch):
    with pytest.raises(OSError, match="disk full"):
        write_csv(tmp_path / "t.csv", ["a", "b"], _failing_rows())
    real_write_text = Path.write_text

    def half_write_text(path, text, *args, **kwargs):
        real_write_text(path, text[:len(text) // 2], *args, **kwargs)
        raise OSError("simulated disk full")

    monkeypatch.setattr(Path, "write_text", half_write_text)
    with pytest.raises(OSError, match="disk full"):
        write_json(tmp_path / "t.json", {"a": list(range(10))})
    assert list(tmp_path.iterdir()) == []
