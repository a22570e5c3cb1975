"""End-to-end and contract tests for the command-line interface."""

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from volformer.cli import RunConfig, SplitSpec, build_parser, main
from volformer.data import (VOLUME_MAGIC, SyntheticSpec, load_manifest, read_volume,
                            write_container, write_volume)
from volformer.errors import ConfigError
from volformer.model import (BrainFormer, ModelConfig, forward_volume, load_checkpoint, load_model,
                             save_checkpoint, save_model)
from volformer.train import TrainConfig

SPEC = {
    "volume_extent": [8, 8, 8], "blob_centers": [[2, 2, 2], [5, 5, 5]],
    "blob_radius": [1.5, 1.5], "site_count": 1,
    "subjects_per_class_per_site": 3, "volumes_per_subject": 3,
    "gain_range": [1.0, 1.0], "offset_range": [0.0, 0.0], "seed": 7,
}
MODEL = {
    "scale_preset": "desk", "input_extent": [8, 8, 8],
    "stage_channels": [4, 8, 8, 8], "stage_blocks": [1, 1, 1, 1],
    "attention_plan": ["none", "none", "none", "none"], "dga_heads": 4,
}
TRAIN = {"epochs": 2, "lr": 1e-3, "lr_drop_epoch": 2, "batch_size": 8, "seed": 0}


def _hash_dir(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifacts: spec, config, generated dataset, one finished cv run."""
    root = tmp_path_factory.mktemp("cli")
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "cfg.json").write_text(json.dumps(
        {"model": MODEL, "train": TRAIN, "synthetic": SPEC,
         "split": {"mode": "kfold", "k": 3}}))
    assert main(["gen", "--spec", str(root / "spec.json"),
                 "--out", str(root / "data")]) == 0
    assert main(["cv", "--config", str(root / "cfg.json"),
                 "--data", str(root / "data" / "manifest.csv"),
                 "--out", str(root / "run")]) == 0
    return root


@pytest.fixture(scope="module")
def zero_head_ckpt(workdir):
    """A trained checkpoint whose classifier weights are zeroed out."""
    model, _ = load_model(workdir / "run" / "fold0.ckpt")
    model.classifier_weight.data[:] = 0.0
    path = workdir / "zero_head.ckpt"
    save_model(model, path)
    return path


def _first_volume(workdir) -> Path:
    return sorted((workdir / "data" / "volumes").glob("*.vfv"))[0]


# ---------------------------------------------------------------------------
# RunConfig / SplitSpec


def test_run_config_defaults():
    cfg = RunConfig.from_dict({})
    assert cfg.model.input_extent == (64, 72, 64)
    assert cfg.train.epochs == TrainConfig().epochs
    assert cfg.synthetic is None
    assert cfg.split.mode == "kfold" and cfg.split.k == 5


def test_run_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="trainer"):
        RunConfig.from_dict({"trainer": {}})


def test_run_config_round_trip():
    split = {"mode": "site_holdout", "k": 5, "train_sites": ["site00"],
             "test_sites": ["site01"]}
    doc = {"model": MODEL, "train": TRAIN, "synthetic": SPEC, "split": split}
    cfg = RunConfig.from_dict(doc)
    out = cfg.to_dict()
    assert list(out) == ["model", "train", "synthetic", "split"]
    assert out["split"] == split
    assert out["synthetic"]["blob_centers"] == SPEC["blob_centers"]
    assert out["model"]["input_extent"] == MODEL["input_extent"]
    assert json.loads(json.dumps(out)) == out
    assert RunConfig.from_dict(out) == cfg
    for section in (cfg.model, cfg.train, cfg.synthetic, cfg.split):
        assert type(section).from_dict(section.to_dict()) == section
    assert RunConfig.from_dict({}).to_dict()["synthetic"] is None


def test_run_config_applies_desk_preset_geometry():
    cfg = RunConfig.from_dict({"model": {"scale_preset": "desk"}})
    assert cfg.model.input_extent == (16, 18, 16)
    assert cfg.model.stage_channels == (8, 16, 32, 64)


def test_split_spec_validation():
    with pytest.raises(ConfigError, match="k must be >= 2"):
        SplitSpec.from_dict({"mode": "kfold", "k": 1})
    with pytest.raises(ConfigError, match="non-empty"):
        SplitSpec.from_dict({"mode": "site_holdout", "train_sites": ["a"]})
    with pytest.raises(ConfigError, match="overlap"):
        SplitSpec.from_dict({"mode": "site_holdout", "train_sites": ["a"],
                             "test_sites": ["a", "b"]})
    with pytest.raises(ConfigError, match="mode"):
        SplitSpec.from_dict({"mode": "loocv"})
    with pytest.raises(ConfigError, match="unknown split"):
        SplitSpec.from_dict({"folds": 5})


@pytest.mark.parametrize("make, field, value, message", [
    (ModelConfig.desk, "dga_heads", "4", "model config field 'dga_heads' must be int"),
    (ModelConfig.desk, "dga_heads", 0, "dga_heads must be positive"),
    (TrainConfig, "lr", "0.001", "train config field 'lr' must be float"),
    (TrainConfig, "batch_size", 0, "batch_size must be >= 1"),
    (SyntheticSpec, "volume_extent", (16, 18), "synthetic spec field 'volume_extent'"),
    (SyntheticSpec, "seed", -1, "seed must be >= 0"),
    (SplitSpec, "train_sites", "site00", "split config field 'train_sites' must be"),
    (SplitSpec, "mode", "loocv", "split mode must be"),
    (RunConfig, "train", ModelConfig.desk(), "run config field 'train' must be"),
    (RunConfig, "synthetic", {"seed": 1}, "run config field 'synthetic' must be"),
])
@pytest.mark.parametrize("how", ["constructor", "replace"])
def test_sections_are_checked_when_built(make, field, value, message, how):
    """A section cannot exist with a value of the wrong type or out of range,
    whether built directly or copied with ``dataclasses.replace``."""
    with pytest.raises(ConfigError) as err:
        if how == "constructor":
            make(**{field: value})
        else:
            dataclasses.replace(make(), **{field: value})
    assert message in str(err.value)


# ---------------------------------------------------------------------------
# gen


def test_gen_manifest_row_count(workdir):
    lines = (workdir / "data" / "manifest.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 1 * 2 * 3 * 3  # header + sites*classes*subjects*volumes


def test_gen_same_seed_identical_checksums(workdir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--spec", str(workdir / "spec.json"),
                     "--out", str(out)]) == 0
    assert _hash_dir(a) == _hash_dir(b)
    assert _hash_dir(a) == _hash_dir(workdir / "data")


def test_gen_seed_override_changes_data(workdir, tmp_path):
    out = tmp_path / "other"
    assert main(["gen", "--spec", str(workdir / "spec.json"),
                 "--out", str(out), "--seed", "11"]) == 0
    base = _hash_dir(workdir / "data")
    other = _hash_dir(out)
    assert base.keys() == other.keys()
    assert base != other


def test_gen_invalid_spec_exit_2(tmp_path, capsys):
    bad = dict(SPEC, blob_centers=[[2, 2, 2], [9, 9, 9]])  # outside an 8^3 volume
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(bad))
    rc = main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "blob center" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the float32 cast overflows
def test_gen_non_finite_volumes_exit_3(tmp_path, capsys):
    spec_path = tmp_path / "huge.json"
    spec_path.write_text(json.dumps(dict(SPEC, blob_amplitude=1e39)))
    rc = main(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the float32 cast overflows
def test_failed_gen_does_not_block_its_corrected_rerun(tmp_path):
    out = tmp_path / "out"
    bad, good = tmp_path / "huge.json", tmp_path / "spec.json"
    bad.write_text(json.dumps(dict(SPEC, blob_amplitude=1e39)))
    good.write_text(json.dumps(SPEC))
    assert main(["gen", "--spec", str(bad), "--out", str(out)]) == 3
    assert not (out / "resolved_config.json").exists()
    assert main(["gen", "--spec", str(good), "--out", str(out)]) == 0
    assert (out / "manifest.csv").exists()


def test_gen_echoes_resolved_spec(workdir):
    doc = json.loads((workdir / "data" / "resolved_config.json").read_text())
    assert doc["command"] == "gen"
    assert doc["synthetic"]["seed"] == 7
    assert doc["synthetic"]["volume_extent"] == [8, 8, 8]


# ---------------------------------------------------------------------------
# cv


def test_cv_writes_all_artifacts(workdir):
    run = workdir / "run"
    for name in ("metrics.json", "folds.csv", "resolved_config.json"):
        assert (run / name).exists()
    for fold in range(3):
        assert (run / f"fold{fold}.ckpt").exists()
        assert (run / f"fold{fold}_history.csv").exists()
    metrics = json.loads((run / "metrics.json").read_text())
    assert len(metrics["folds"]) == 3
    assert "volume_accuracy_std" in metrics
    assert "subject_accuracy_std" in metrics
    lines = (run / "folds.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3


def test_cv_rerun_same_config_allowed(workdir, capsys):
    rc = main(["cv", "--config", str(workdir / "cfg.json"),
               "--data", str(workdir / "data" / "manifest.csv"),
               "--out", str(workdir / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "±" in out  # mean ± std summary lines


def test_cv_refuses_differing_config_without_force(workdir, capsys):
    rc = main(["cv", "--config", str(workdir / "cfg.json"),
               "--data", str(workdir / "data" / "manifest.csv"),
               "--out", str(workdir / "run"), "--seed", "99"])
    assert rc == 2
    assert "resolved_config.json" in capsys.readouterr().err


def test_force_overwrites_differing_config(workdir, tmp_path):
    out = tmp_path / "g"
    assert main(["gen", "--spec", str(workdir / "spec.json"),
                 "--out", str(out)]) == 0
    rc = main(["gen", "--spec", str(workdir / "spec.json"),
               "--out", str(out), "--seed", "11"])
    assert rc == 2
    rc = main(["gen", "--spec", str(workdir / "spec.json"),
               "--out", str(out), "--seed", "11", "--force"])
    assert rc == 0
    doc = json.loads((out / "resolved_config.json").read_text())
    assert doc["synthetic"]["seed"] == 11


def test_cv_parallel_folds_match_serial(workdir, tmp_path):
    out = tmp_path / "runj"
    rc = main(["cv", "--config", str(workdir / "cfg.json"),
               "--data", str(workdir / "data" / "manifest.csv"),
               "--out", str(out), "--jobs", "3"])
    assert rc == 0
    serial = workdir / "run"
    assert (out / "metrics.json").read_bytes() == (serial / "metrics.json").read_bytes()
    for fold in range(3):
        assert ((out / f"fold{fold}.ckpt").read_bytes()
                == (serial / f"fold{fold}.ckpt").read_bytes())


def test_cv_site_holdout_single_split(workdir, tmp_path):
    cfg = {"model": MODEL, "train": TRAIN,
           "synthetic": dict(SPEC, site_count=2),
           "split": {"mode": "site_holdout", "train_sites": ["site00"],
                     "test_sites": ["site01"]}}
    cfg_path = tmp_path / "sh.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sh"
    assert main(["cv", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "folds.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 1
    assert (out / "fold0.ckpt").exists()


def test_cv_site_holdout_excludes_unlisted_site(tmp_path, monkeypatch):
    import volformer.train

    trained_sites = []
    train_fold = volformer.train.train_fold

    def spy(model, records, cfg):
        trained_sites.extend(r.site_id for r in records)
        return train_fold(model, records, cfg)

    monkeypatch.setattr("volformer.train.train_fold", spy)
    cfg = {"model": MODEL, "train": TRAIN,
           "synthetic": dict(SPEC, site_count=3),
           "split": {"mode": "site_holdout", "train_sites": ["site00"],
                     "test_sites": ["site02"]}}
    cfg_path = tmp_path / "sh3.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sh3"
    assert main(["cv", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert set(trained_sites) == {"site00"}
    metrics = json.loads((out / "metrics.json").read_text())
    per_site = SPEC["subjects_per_class_per_site"] * 2
    assert metrics["subject_count"] == per_site
    assert metrics["volume_count"] == per_site * SPEC["volumes_per_subject"]


def test_cv_unknown_site_exit_3(workdir, tmp_path, capsys):
    cfg = {"model": MODEL, "train": TRAIN, "synthetic": SPEC,
           "split": {"mode": "site_holdout", "train_sites": ["site00"],
                     "test_sites": ["site09"]}}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["cv", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "site09" in capsys.readouterr().err


def test_cv_too_few_subjects_exit_3(workdir, tmp_path, capsys):
    cfg = {"model": MODEL, "train": TRAIN, "synthetic": SPEC,
           "split": {"mode": "kfold", "k": 5}}
    cfg_path = tmp_path / "k5.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["cv", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "fewer than" in capsys.readouterr().err


def test_cv_missing_manifest_exit_3(workdir, tmp_path):
    rc = main(["cv", "--config", str(workdir / "cfg.json"),
               "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_cv_manifest_with_nan_volume_exit_3(workdir, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workdir / "data", data)
    poisoned = data / "volumes" / _first_volume(workdir).name
    volume = read_volume(poisoned)
    volume.flat[volume.size // 2] = np.nan
    write_volume(poisoned, volume)
    rc = main(["cv", "--config", str(workdir / "cfg.json"),
               "--data", str(data / "manifest.csv"), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert poisoned.name in err and "non-finite" in err


def test_cv_extent_mismatch_exit_2(workdir, tmp_path, capsys):
    out = tmp_path / "o"
    bad, good = tmp_path / "mismatch.json", tmp_path / "cfg.json"
    split = {"mode": "kfold", "k": 3}
    bad.write_text(json.dumps({"model": dict(MODEL, input_extent=[16, 18, 16]),
                               "train": TRAIN, "split": split}))
    good.write_text(json.dumps({"model": MODEL, "train": TRAIN, "split": split}))
    data = str(workdir / "data" / "manifest.csv")
    assert main(["cv", "--config", str(bad), "--data", data, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "(8, 8, 8)" in err and "(16, 18, 16)" in err
    # the failed run leaves nothing that would refuse its corrected rerun
    assert not out.exists() or not any(out.iterdir())
    assert main(["cv", "--config", str(good), "--data", data, "--out", str(out)]) == 0
    assert (out / "metrics.json").exists()


@pytest.fixture(scope="module")
def three_class_manifest(tmp_path_factory):
    """A dataset with labels 0-2, one more class than MODEL and SPEC have."""
    root = tmp_path_factory.mktemp("three")
    spec = dict(SPEC, class_count=3, blob_centers=[[2, 2, 2], [5, 5, 5], [2, 5, 2]],
                blob_radius=[1.5, 1.5, 1.5], volumes_per_subject=1)
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["gen", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
    return root / "data" / "manifest.csv"


def test_cv_label_outside_model_classes_exit_2(three_class_manifest, workdir, tmp_path,
                                               capsys):
    out = tmp_path / "o"
    capsys.readouterr()
    rc = main(["cv", "--config", str(workdir / "cfg.json"),
               "--data", str(three_class_manifest), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    subject = next(r for r in load_manifest(three_class_manifest) if r.label == 2).subject_id
    assert repr(subject) in err and "label 2" in err and "class_count is 2" in err, err
    assert "training aborted" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("dga_heads", 0), ("sga_spatial_hidden", 0), ("sga_channel_expand", 0),
    ("dga_ff_expand", 0), ("stem_channels", 0), ("dga_pos_std", -1),
    ("data_norm_eps", -1), ("bn_eps", 0), ("bn_momentum", 2)])
def test_cv_refuses_block_settings_that_cannot_build_or_train_exit_2(workdir, tmp_path,
                                                                     capsys, field, value):
    """Each value made ``cv`` fail mid-run (a traceback or exit 4) or train
    without complaint; it is refused at the boundary, naming the field,
    before any file is written."""
    model = dict(MODEL, attention_plan=["S", "S", "D", "D"], **{field: value})
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg_path.write_text(json.dumps({"model": model, "train": TRAIN,
                                    "split": {"mode": "kfold", "k": 3}}))
    rc = main(["cv", "--config", str(cfg_path),
               "--data", str(workdir / "data" / "manifest.csv"), "--out", str(out)])
    assert rc == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


SECTION_NAMES = {"synthetic": "synthetic spec", "model": "model config",
                 "train": "train config", "split": "split config"}


@pytest.mark.parametrize("command, section, field, value", [
    ("gen", "synthetic", "seed", 1.5), ("gen", "synthetic", "volumes_per_subject", 2.0),
    ("gen", "synthetic", "volume_extent", "abc"), ("gen", "synthetic", "with_fc", "yes"),
    ("cost", "model", "dga_heads", "4"), ("cost", "model", "stage_channels", 8),
    ("cost", "model", "mlp_hidden", None),
    ("cv", "train", "batch_size", 4.0), ("cv", "split", "k", 2.0),
    ("cv", "model", "class_count", 2.0), ("cv", "split", "k", "2"),
    ("cv", "train", "lr", "0.001"), ("cv", "train", "epochs", True),
    ("cv", "model", "use_data_norm", "no"), ("cv", "split", "train_sites", "site00"),
])
def test_config_values_of_the_wrong_type_exit_2(workdir, tmp_path, capsys, command, section,
                                                field, value):
    """Each value made its command fail with a traceback, fail midway with
    exit 3 or 4 (leaving an echo that blocked the corrected rerun), or run
    on a coerced setting. It is refused against its field's declared type,
    naming the section and the field, before any file is written."""
    out = tmp_path / "o"
    if command == "gen":
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(SPEC, **{field: value})))
        argv = ["gen", "--spec", str(path), "--out", str(out)]
    else:
        doc = {"model": MODEL, "train": TRAIN, "split": {"mode": "kfold", "k": 3}}
        doc[section] = dict(doc[section], **{field: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = ["cost", "--config", str(path)] if command == "cost" else [
            "cv", "--config", str(path), "--data", str(workdir / "data" / "manifest.csv"),
            "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{SECTION_NAMES[section]} field {field!r} must be" in err, err
    assert not out.exists()


@pytest.mark.parametrize("section, field, value", [
    ("synthetic", "site_count", 0), ("synthetic", "class_count", 1),
    ("synthetic", "blob_amplitude", 0.0), ("synthetic", "noise_sigma", -1.0),
    ("synthetic", "smoothness", -0.5), ("synthetic", "jitter_fraction", -1.0),
    ("synthetic", "gain_range", [0.0, 2.0]), ("synthetic", "offset_range", [1.0, -1.0]),
    ("synthetic", "subjects_per_class_per_site", 0), ("synthetic", "volumes_per_subject", 0),
    ("train", "beta1", 1.0), ("train", "beta2", -0.1), ("train", "lr", 0.0),
    ("train", "lr_drop_factor", -10.0), ("model", "stage_strides", [1, 3, 2, 1]),
    ("model", "stage_blocks", [1, 0, 1, 1]), ("model", "stage_channels", [4, 0, 8, 8]),
    ("split", "k", 1),
])
def test_config_values_out_of_range_exit_2_naming_the_field(tmp_path, capsys, section,
                                                             field, value):
    """Each refusal named a group of fields or none ("need >=1 site and >=2
    classes", "lr and lr_drop_factor must be positive"); it names the one
    JSON key at fault and its value, before any file is written."""
    doc = {"model": MODEL, "train": TRAIN, "synthetic": SPEC,
           "split": {"mode": "kfold", "k": 3}}
    doc[section] = dict(doc[section], **{field: value})
    path, out = tmp_path / "cfg.json", tmp_path / "o"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["cv", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"\b{field} must be .*, got ", err), err
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "flag"])
def test_cv_refuses_a_negative_seed_exit_2(workdir, tmp_path, capsys, where):
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "o"
    cfg_path.write_text(json.dumps({
        "model": MODEL, "train": dict(TRAIN, seed=-1 if where == "config" else 0),
        "split": {"mode": "kfold", "k": 3}}))
    rc = main(["cv", "--config", str(cfg_path),
               "--data", str(workdir / "data" / "manifest.csv"), "--out", str(out)]
              + (["--seed", "-3"] if where == "flag" else []))
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["spec", "flag"])
def test_gen_refuses_a_negative_seed_exit_2(tmp_path, capsys, where):
    spec_path, out = tmp_path / "spec.json", tmp_path / "out"
    spec_path.write_text(json.dumps(dict(SPEC, seed=-2 if where == "spec" else 7)))
    rc = main(["gen", "--spec", str(spec_path), "--out", str(out)]
              + (["--seed", "-2"] if where == "flag" else []))
    assert rc == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cv_rejects_non_positive_jobs_exit_2(workdir, tmp_path, capsys, jobs):
    out = tmp_path / "o"
    rc = main(["cv", "--config", str(workdir / "cfg.json"),
               "--data", str(workdir / "data" / "manifest.csv"),
               "--out", str(out), "--jobs", jobs])
    assert rc == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


def test_cv_smri_extent_mismatch_exit_2(tmp_path, capsys):
    spec = dict(SPEC, subjects_per_class_per_site=2, volumes_per_subject=1, with_smri=True)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["gen", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "data")]) == 0
    misfit = sorted((tmp_path / "data" / "volumes").glob("*_smri.vfv"))[0]
    write_volume(misfit, np.zeros((6, 6, 6), dtype=np.float32))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": dict(MODEL, use_smri=True), "train": TRAIN,
                                    "split": {"mode": "kfold", "k": 2}}))
    rc = main(["cv", "--config", str(cfg_path),
               "--data", str(tmp_path / "data" / "manifest.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    subject = next(r.subject_id for r in load_manifest(tmp_path / "data" / "manifest.csv")
                   if r.smri.volume.shape == (6, 6, 6))
    assert repr(subject) in err and "smri" in err
    assert "(6, 6, 6)" in err and "(8, 8, 8)" in err
    assert not (tmp_path / "o" / "fold0.ckpt").exists()


@pytest.fixture(scope="module")
def fc_only_manifest(tmp_path_factory):
    """An 8x8x8 cohort generated with fc vectors (64 values) and nothing else."""
    root = tmp_path_factory.mktemp("fc_only")
    spec = dict(SPEC, subjects_per_class_per_site=2, volumes_per_subject=1, with_fc=True)
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["gen", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == 0
    return root / "data" / "manifest.csv"


@pytest.mark.parametrize("branch,code,words", [
    pytest.param({"use_smri": True}, 3, ("smri",), id="smri-missing-exit-3"),
    pytest.param({"use_pheno": True}, 3, ("pheno",), id="pheno-missing-exit-3"),
    pytest.param({"use_fc": True, "fc_input_dim": 100}, 2, ("fc", "64", "100"),
                 id="fc-size-exit-2"),
])
def test_cv_checks_branch_inputs_before_training(fc_only_manifest, tmp_path, capsys,
                                                 branch, code, words):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": dict(MODEL, **branch), "train": TRAIN,
                                    "split": {"mode": "kfold", "k": 2}}))
    rc = main(["cv", "--config", str(cfg_path), "--data", str(fc_only_manifest),
               "--out", str(tmp_path / "o")])
    assert rc == code
    err = capsys.readouterr().err
    subject = load_manifest(fc_only_manifest)[0].subject_id
    assert repr(subject) in err and all(w in err for w in words), err
    assert "training aborted" not in err
    assert not list((tmp_path / "o").glob("fold*"))


@pytest.mark.parametrize("cell", ["nan", "inf", "1e40"])
def test_cv_non_finite_pheno_cell_exit_3(tmp_path, capsys, cell):
    spec = dict(SPEC, subjects_per_class_per_site=2, volumes_per_subject=1,
                with_pheno=True, pheno_dim=2)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main(["gen", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "data")]) == 0
    manifest = tmp_path / "data" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + "," + cell
    manifest.write_text("\n".join(lines) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": dict(MODEL, use_pheno=True, pheno_input_dim=2), "train": TRAIN,
        "split": {"mode": "kfold", "k": 2}}))
    capsys.readouterr()
    rc = main(["cv", "--config", str(cfg_path), "--data", str(manifest),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "line 2" in err and f"pheno_1 = {cell!r}" in err, err
    assert not list((tmp_path / "o").glob("fold*"))


def test_cv_no_data_source_exit_2(workdir, tmp_path, capsys):
    cfg = {"model": MODEL, "train": TRAIN, "split": {"mode": "kfold", "k": 3}}
    cfg_path = tmp_path / "nodata.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["cv", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--data" in capsys.readouterr().err


def test_cv_training_abort_exit_4(workdir, tmp_path, monkeypatch, capsys):
    def boom(model, records, cfg):
        raise RuntimeError("simulated kernel failure")

    monkeypatch.setattr("volformer.train.train_fold", boom)
    rc = main(["cv", "--config", str(workdir / "cfg.json"),
               "--data", str(workdir / "data" / "manifest.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "training aborted" in capsys.readouterr().err


def test_interrupted_checkpoint_write_leaves_no_file(workdir, tmp_path, monkeypatch):
    import volformer.model
    from volformer.cli import _write_fold
    from volformer.train import TrainHistory
    model, _ = load_model(workdir / "run" / "fold0.ckpt")
    write = volformer.model.write_container
    written, on_disk = [], []

    def fail_third(parts):
        """Pass the header and two tensor records, then fail on the third."""
        for part in parts:
            written.append(part)
            if len(written) == 6:
                on_disk.extend(sorted(p.name for p in tmp_path.iterdir()))
                raise OSError("simulated disk full")
            yield part

    monkeypatch.setattr(volformer.model, "write_container",
                        lambda path, magic, parts: write(path, magic, fail_third(parts)))
    result = SimpleNamespace(fold=0, model=model, history=TrainHistory())
    with pytest.raises(OSError, match="disk full"):
        _write_fold(tmp_path, 0, result)
    assert len(written) == 6 and "fold0.ckpt.tmp" in on_disk  # failed mid-write
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fold0_history.csv"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN propagates by design
def test_cv_all_skipped_epoch_exit_4(workdir, tmp_path, monkeypatch, capsys):
    import volformer.data
    generate = volformer.data.generate_synthetic

    def all_nan(spec):
        records = generate(spec)
        for rec in records:
            for sample in rec.fmri_volumes:
                sample.volume[...] = np.nan
        return records

    monkeypatch.setattr(volformer.data, "generate_synthetic", all_nan)
    rc = main(["cv", "--config", str(workdir / "cfg.json"), "--out", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "training aborted" in err and "non-finite gradient" in err
    assert not (tmp_path / "o" / "metrics.json").exists()


def test_cv_invalid_json_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{nope")
    rc = main(["cv", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# localize


def test_localize_single_map(workdir, tmp_path):
    out = tmp_path / "loc"
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--volume", str(_first_volume(workdir)), "--class", "0",
               "--out", str(out), "--slices"])
    assert rc == 0
    volume = read_volume(out / "map.vfv")
    assert volume.shape == (8, 8, 8)
    assert 0.0 <= volume.min() and volume.max() <= 1.0
    sidecar = json.loads((out / "map.vfv.json").read_text())
    assert sidecar["layer"] == "stage4.conv"
    assert sidecar["target_class"] == 0
    for axis in range(3):
        assert (out / f"map_axis{axis}.csv").exists()
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["layer"] == "stage4.conv"


def test_interrupted_localize_write_leaves_no_map(workdir, tmp_path, monkeypatch):
    """A failure while the --slices CSVs are written, here after the second
    one is complete, leaves neither the map, its sidecar nor any slice under
    its final name, and no temporary file."""
    real_savetxt, calls = np.savetxt, []

    def failing_savetxt(fname, *args, **kwargs):
        calls.append(fname)
        real_savetxt(fname, *args, **kwargs)
        if len(calls) == 2:
            raise OSError("simulated disk full")

    monkeypatch.setattr(np, "savetxt", failing_savetxt)
    out = tmp_path / "loc"
    with pytest.raises(OSError, match="disk full"):
        main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
              "--volume", str(_first_volume(workdir)), "--class", "0",
              "--out", str(out), "--slices"])
    assert len(calls) == 2
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]


def test_localize_explicit_layer(workdir, tmp_path):
    out = tmp_path / "loc"
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--volume", str(_first_volume(workdir)), "--class", "1",
               "--layer", "stem", "--out", str(out)])
    assert rc == 0
    sidecar = json.loads((out / "map.vfv.json").read_text())
    assert sidecar["layer"] == "stem"


def test_localize_degenerate_map_warns(zero_head_ckpt, workdir, tmp_path, capsys):
    out = tmp_path / "loc"
    rc = main(["localize", "--ckpt", str(zero_head_ckpt),
               "--volume", str(_first_volume(workdir)), "--class", "0",
               "--out", str(out)])
    assert rc == 0
    assert "degenerate" in capsys.readouterr().err
    sidecar = json.loads((out / "map.vfv.json").read_text())
    assert sidecar["degenerate"] is True


def test_localize_extent_mismatch_exit_5(workdir, tmp_path, capsys):
    out = tmp_path / "o"
    big = tmp_path / "big.vfv"
    write_volume(big, np.zeros((16, 16, 16), dtype=np.float32))
    args = ["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"), "--class", "0",
            "--out", str(out)]
    assert main(args + ["--volume", str(big)]) == 5
    assert "incompatible" in capsys.readouterr().err
    # the failed run leaves nothing that would refuse its corrected rerun
    assert not (out / "resolved_config.json").exists()
    assert main(args + ["--volume", str(_first_volume(workdir))]) == 0
    assert (out / "map.vfv").exists()


def test_localize_missing_ckpt_exit_5(workdir, tmp_path):
    rc = main(["localize", "--ckpt", str(tmp_path / "nope.ckpt"),
               "--volume", str(_first_volume(workdir)), "--class", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 5


def test_localize_v1_checkpoint_exit_5(workdir, tmp_path, capsys):
    blob = bytearray((workdir / "run" / "fold0.ckpt").read_bytes())
    blob[4:8] = (1).to_bytes(4, "little")
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_bytes(bytes(blob))
    rc = main(["localize", "--ckpt", str(ckpt),
               "--volume", str(_first_volume(workdir)), "--class", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 5
    err = capsys.readouterr().err
    assert "version 1" in err and "retrain" in err


def test_localize_volume_whose_extents_wrap_int64_exit_3(workdir, tmp_path, capsys):
    """Four extents of 65536 multiply to 2**64, which wrapped to an empty
    payload; with a valid CRC the file read as valid and failed the reshape
    with a traceback."""
    volume = tmp_path / "wrap.vfv"
    header = struct.pack("<5I", 4, *(65536,) * 4)
    write_container(volume, VOLUME_MAGIC, [header])
    for blob, message in [(volume.read_bytes(), "volume file truncated while reading payload"),
                          (VOLUME_MAGIC + header + bytes(4), "volume file checksum mismatch")]:
        volume.write_bytes(blob)
        out = tmp_path / "o"
        capsys.readouterr()
        rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
                   "--volume", str(volume), "--class", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and message in err, err
        assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["localize", "audit"])
@pytest.mark.parametrize("value, message", [
    ("4", "model config field 'dga_heads' must be int"), (0, "dga_heads must be positive")])
def test_checkpoint_with_an_invalid_stored_config_exit_5(workdir, tmp_path, capsys, command,
                                                         value, message):
    """The stored config's ConfigError escaped as exit 2, a configuration
    error that never named the checkpoint."""
    meta, arrays = load_checkpoint(workdir / "run" / "fold0.ckpt")
    meta["config"]["dga_heads"] = value
    ckpt, out = tmp_path / "bad.ckpt", tmp_path / "o"
    save_checkpoint(ckpt, meta, list(arrays.items()))
    args = {"localize": ["--volume", str(_first_volume(workdir)), "--class", "0"],
            "audit": ["--manifest", str(workdir / "data" / "manifest.csv"),
                      "--spec", str(workdir / "spec.json")]}[command]
    capsys.readouterr()
    rc = main([command, "--ckpt", str(ckpt), "--out", str(out), *args])
    err = capsys.readouterr().err
    assert rc == 5 and str(ckpt) in err and message in err, err
    assert not out.exists()


def test_localize_unknown_layer_exit_2(workdir, tmp_path, capsys):
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--volume", str(_first_volume(workdir)), "--class", "0",
               "--layer", "bogus", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "stage4.conv" in capsys.readouterr().err


def test_localize_class_out_of_range_exit_2(workdir, tmp_path):
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--volume", str(_first_volume(workdir)), "--class", "7",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_localize_audit_mode(workdir, tmp_path, capsys, monkeypatch):
    model, _ = load_model(workdir / "run" / "fold0.ckpt")
    expected = [int(np.argmax(forward_volume(model, vol.volume).data))
                for rec in load_manifest(workdir / "data" / "manifest.csv")
                for vol in rec.fmri_volumes]

    def second_pass(*args, **kwargs):
        raise AssertionError("the audit must predict from its Grad-CAM pass")

    monkeypatch.setattr("volformer.model.forward_volume", second_pass)
    out = tmp_path / "audit"
    rc = main(["audit", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--manifest", str(workdir / "data" / "manifest.csv"),
               "--spec", str(workdir / "spec.json"), "--out", str(out)])
    assert rc == 0
    rows = (out / "audit.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 18
    assert rows[0].startswith("subject_id,site_id,volume,label,predicted,correct,hit")
    assert [int(row.split(",")[4]) for row in rows[1:]] == expected
    summary = json.loads((out / "audit_summary.json").read_text())
    assert summary["volumes"] == 18
    assert 0.0 <= summary["hit_rate_on_correct"] <= 1.0
    assert summary["fraction"] == 0.05
    assert "audited 18 volumes" in capsys.readouterr().out


def test_localize_refuses_differing_echo_before_any_map(workdir, tmp_path, monkeypatch,
                                                       capsys):
    import volformer.localize
    calls = []
    real = volformer.localize.grad_cam

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr("volformer.localize.grad_cam", counting)
    out = tmp_path / "audit"
    args = ["audit", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
            "--manifest", str(workdir / "data" / "manifest.csv"),
            "--spec", str(workdir / "spec.json"), "--out", str(out)]
    assert main(args + ["--fraction", "0.05"]) == 0
    assert len(calls) == 18
    echo = (out / "resolved_config.json").read_text()
    calls.clear()
    assert main(args + ["--fraction", "0.1"]) == 2
    assert "--force" in capsys.readouterr().err
    assert calls == []
    assert (out / "resolved_config.json").read_text() == echo
    # localize checks the echo of its own run before mapping too
    assert main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
                 "--volume", str(_first_volume(workdir)), "--class", "0",
                 "--out", str(out)]) == 2
    assert calls == []


@pytest.mark.parametrize("spec_classes, words", [
    pytest.param(2, ("blob center count is 2",), id="spec"),
    pytest.param(3, ("class_count is 2",), id="model"),
])
def test_audit_checks_every_label_before_any_map(three_class_manifest, workdir, tmp_path,
                                                 monkeypatch, capsys, spec_classes, words):
    spec = json.loads((three_class_manifest.parents[1] / "spec.json").read_text())
    for key in ("blob_centers", "blob_radius"):
        spec[key] = spec[key][:spec_classes]
    spec["class_count"] = spec_classes
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    monkeypatch.setattr("volformer.localize.grad_cam", None)  # any map would raise
    out = tmp_path / "audit"
    capsys.readouterr()
    rc = main(["audit", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--manifest", str(three_class_manifest),
               "--spec", str(tmp_path / "spec.json"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    subject = next(r for r in load_manifest(three_class_manifest) if r.label == 2).subject_id
    assert repr(subject) in err and "label 2" in err, err
    assert all(w in err for w in words), err
    assert not out.exists()


def test_audit_checks_blob_centers_against_the_model_extent_before_any_map(
        workdir, tmp_path, monkeypatch, capsys):
    """A spec drawn for larger volumes than the model takes: its class 1
    center lies outside the model's 8^3 maps, which made the hit lookup
    raise ``IndexError`` after mapping."""
    spec = dict(SPEC, volume_extent=[16, 16, 16], blob_centers=[[2, 2, 2], [12, 12, 12]])
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    monkeypatch.setattr("volformer.localize.grad_cam", None)  # any map would raise
    out = tmp_path / "audit"
    capsys.readouterr()
    rc = main(["audit", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--manifest", str(workdir / "data" / "manifest.csv"),
               "--spec", str(tmp_path / "spec.json"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "class 1 blob center (12, 12, 12)" in err and "(8, 8, 8)" in err, err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, words", [
    pytest.param("--fraction", "5", ("--fraction: must be in (0, 1]",), id="fraction-5"),
    pytest.param("--fraction", "0", ("--fraction: must be in (0, 1]",), id="fraction-0"),
    pytest.param("--layer", "bogus", ("unknown trace layer 'bogus'", "stage4.conv"),
                 id="layer"),
])
def test_audit_checks_fraction_and_layer_before_any_map(workdir, tmp_path, monkeypatch,
                                                        capsys, flag, value, words):
    def must_not_run(*args, **kwargs):
        raise AssertionError("audit read the manifest or mapped a volume")

    monkeypatch.setattr("volformer.localize.grad_cam", must_not_run)
    monkeypatch.setattr("volformer.data.load_manifest", must_not_run)
    out = tmp_path / "audit"
    capsys.readouterr()
    rc = main(["audit", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--manifest", str(workdir / "data" / "manifest.csv"),
               "--spec", str(workdir / "spec.json"), "--out", str(out), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
    assert not out.exists()


class HalfWriter:
    """Stand-in for ``csv.writer``: writes the header, then fails partway
    through the rows."""

    real_writer = staticmethod(csv.writer)

    def __init__(self, fh):
        self.inner = self.real_writer(fh)
        self.writerow = self.inner.writerow

    def writerows(self, rows):
        self.inner.writerow(rows[0])
        raise OSError("simulated disk full")


def test_interrupted_gen_manifest_write_leaves_no_manifest(tmp_path, monkeypatch):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(csv, "writer", HalfWriter)
    out = tmp_path / "data"
    with pytest.raises(OSError, match="disk full"):
        main(["gen", "--spec", str(tmp_path / "spec.json"), "--out", str(out)])
    assert not (out / "manifest.csv").exists()
    assert list(out.rglob("*.tmp")) == []


@pytest.mark.parametrize("artifact", ["audit.csv", "audit_summary.json"])
def test_interrupted_audit_write_leaves_no_file(workdir, tmp_path, monkeypatch, artifact):
    real_write_text = Path.write_text

    def half_write_text(path, text, *args, **kwargs):
        if path.name == artifact + ".tmp":
            real_write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise OSError("simulated disk full")
        return real_write_text(path, text, *args, **kwargs)

    if artifact == "audit.csv":
        monkeypatch.setattr(csv, "writer", HalfWriter)
    else:
        monkeypatch.setattr(Path, "write_text", half_write_text)
    out = tmp_path / "audit"
    with pytest.raises(OSError, match="disk full"):
        main(["audit", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
              "--manifest", str(workdir / "data" / "manifest.csv"),
              "--spec", str(workdir / "spec.json"), "--out", str(out)])
    written = {"audit.csv": ["resolved_config.json"],
               "audit_summary.json": ["audit.csv", "resolved_config.json"]}[artifact]
    assert sorted(p.name for p in out.iterdir()) == written


def test_localize_flag_conflicts_exit_2(workdir, tmp_path, capsys):
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--volume", str(_first_volume(workdir)), "--class", "0",
               "--manifest", str(workdir / "data" / "manifest.csv"),
               "--spec", str(workdir / "spec.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "unrecognized arguments: --manifest" in capsys.readouterr().err
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--volume", str(_first_volume(workdir)), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_localize_fusion_checkpoint_exit_2(tmp_path, capsys):
    cfg = ModelConfig.desk(input_extent=(8, 8, 8), stage_channels=(4, 8, 8, 8),
                           stage_blocks=(1, 1, 1, 1),
                           attention_plan=("none",) * 4,
                           use_pheno=True, pheno_input_dim=4)
    ckpt = tmp_path / "fusion.ckpt"
    save_model(BrainFormer(cfg, seed=0), ckpt)
    vol = tmp_path / "v.vfv"
    write_volume(vol, np.zeros((8, 8, 8), dtype=np.float32))
    rc = main(["localize", "--ckpt", str(ckpt), "--volume", str(vol),
               "--class", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "volume-only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cost


def _parse_cost(out: str) -> list[list]:
    lines = out.strip().splitlines()
    assert lines[0] == "plan,flops,peak_activation_bytes,parameter_count"
    return [[cells[0], int(cells[1]), int(cells[2]), int(cells[3])]
            for cells in (line.split(",") for line in lines[1:])]


def test_cost_table_plans_and_ordering(capsys):
    assert main(["cost", "--preset", "desk"]) == 0
    rows = _parse_cost(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["S-S-S-S", "S-S-S-D", "S-S-D-D",
                                    "S-D-D-D", "D-D-D-D"]
    flops = [r[1] for r in rows]
    assert flops == sorted(flops) and len(set(flops)) == 5


def test_cost_full_exceeds_desk_everywhere(capsys):
    assert main(["cost", "--preset", "desk"]) == 0
    desk = _parse_cost(capsys.readouterr().out)
    assert main(["cost", "--preset", "full"]) == 0
    full = _parse_cost(capsys.readouterr().out)
    for d, f in zip(desk, full):
        assert f[1] > d[1] and f[2] > d[2] and f[3] > d[3]


def test_cost_reads_config_model_section(workdir, capsys):
    assert main(["cost", "--config", str(workdir / "cfg.json")]) == 0
    rows = _parse_cost(capsys.readouterr().out)
    assert len(rows) == 5
    assert main(["cost", "--preset", "desk"]) == 0
    preset_rows = _parse_cost(capsys.readouterr().out)
    assert rows != preset_rows  # the config shrinks the geometry


# ---------------------------------------------------------------------------
# dispatch and environment


def test_unknown_subcommand_exit_2(capsys):
    assert main(["transmogrify"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def _run_python(code: str, **env) -> str:
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


def test_package_import_leaves_numpy_unloaded():
    """The thread cap only reaches BLAS if numpy loads after the package
    import applies it."""
    assert _run_python("import sys, volformer; print('numpy' in sys.modules)"
                       ).strip() == "False"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "volformer", "cost", "--preset", "desk"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_thread_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("VOLFORMER_THREADS", "zero")
    assert main(["cost", "--preset", "desk"]) == 2
    assert "VOLFORMER_THREADS" in capsys.readouterr().err


# The smallest argument list each subcommand accepts.
MINIMAL_ARGV = {
    "gen": ["gen", "--spec", "s.json", "--out", "o"],
    "cv": ["cv", "--config", "c.json", "--out", "o"],
    "localize": ["localize", "--ckpt", "m.ckpt", "--volume", "v.vfv", "--class", "0",
                 "--out", "o"],
    "audit": ["audit", "--ckpt", "m.ckpt", "--manifest", "m.csv", "--spec", "s.json",
              "--out", "o"],
    "cost": ["cost"],
}


def _subparsers() -> dict:
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _unread_flag_cases() -> dict:
    """For every long flag of one subcommand, a case giving it to each
    subcommand that does not define it, with a value if the flag takes one;
    then the cases that were once accepted and ignored, or that conflict."""
    flags = {name: {opt: action.nargs != 0 for action in sub._actions
                    for opt in action.option_strings if opt.startswith("--")}
             for name, sub in _subparsers().items()}
    cases = {}
    for name, base in MINIMAL_ARGV.items():
        for other in flags.values():
            for flag, takes_value in other.items():
                if flag not in flags[name]:
                    cases[f"{name}-{flag[2:]}"] = (
                        base + [flag] + ["1"] * takes_value, "unrecognized arguments")
        cases[f"{name}-deterministic"] = (base + ["--deterministic"], "unrecognized arguments")
    cases["localize-fraction"] = (MINIMAL_ARGV["localize"] + ["--fraction", "0.5"],
                                  "unrecognized arguments")
    cases["localize-manifest"] = (MINIMAL_ARGV["localize"] + ["--manifest", "m.csv"],
                                  "unrecognized arguments")
    cases["audit-slices"] = (MINIMAL_ARGV["audit"] + ["--slices"], "unrecognized arguments")
    cases["cost-config-preset"] = (["cost", "--config", "run.json", "--preset", "full"],
                                   "not allowed with argument")
    return cases


def test_minimal_argv_covers_every_subcommand():
    assert sorted(MINIMAL_ARGV) == sorted(_subparsers())
    for argv in MINIMAL_ARGV.values():
        build_parser().parse_args(argv)


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=case) for case, (argv, message) in _unread_flag_cases().items()
])
def test_subcommand_rejects_flags_it_does_not_read(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_thread_cap_of_one_pins_threads():
    code = ("import os, volformer; "
            "print(os.environ['OMP_NUM_THREADS'], os.environ['VOLFORMER_THREADS'])")
    omp, cap = _run_python(code, VOLFORMER_THREADS="1", OMP_NUM_THREADS="4").split()
    assert omp == "1"
    assert cap == "1"
