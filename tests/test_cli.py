"""End-to-end and contract tests for the command-line interface."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volformer.cli import RunConfig, SplitSpec, main
from volformer.data import load_manifest, read_volume, write_volume
from volformer.errors import ConfigError
from volformer.model import BrainFormer, ModelConfig, forward_volume, load_model, save_model
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
    doc = {"model": MODEL, "train": TRAIN, "synthetic": SPEC,
           "split": {"mode": "kfold", "k": 3}}
    cfg = RunConfig.from_dict(doc)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_run_config_applies_desk_preset_geometry():
    cfg = RunConfig.from_dict({"model": {"scale_preset": "desk"}})
    assert cfg.model.input_extent == (16, 18, 16)
    assert cfg.model.stage_channels == (8, 16, 32, 64)


def test_split_spec_validation():
    with pytest.raises(ConfigError, match="k >= 2"):
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
    cfg = {"model": dict(MODEL, input_extent=[16, 18, 16]),
           "train": TRAIN, "split": {"mode": "kfold", "k": 3}}
    cfg_path = tmp_path / "mismatch.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["cv", "--config", str(cfg_path),
               "--data", str(workdir / "data" / "manifest.csv"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "(8, 8, 8)" in err and "(16, 18, 16)" in err


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
    big = tmp_path / "big.vfv"
    write_volume(big, np.zeros((16, 16, 16), dtype=np.float32))
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--volume", str(big), "--class", "0", "--out", str(tmp_path / "o")])
    assert rc == 5
    assert "incompatible" in capsys.readouterr().err


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
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
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


def test_localize_flag_conflicts_exit_2(workdir, tmp_path, capsys):
    rc = main(["localize", "--ckpt", str(workdir / "run" / "fold0.ckpt"),
               "--volume", str(_first_volume(workdir)), "--class", "0",
               "--manifest", str(workdir / "data" / "manifest.csv"),
               "--spec", str(workdir / "spec.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "exclusive" in capsys.readouterr().err
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


def test_cli_import_leaves_numpy_unloaded():
    """The thread cap only reaches BLAS if numpy loads after cli.main runs."""
    code = "import sys, volformer.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


def test_thread_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("VOLFORMER_THREADS", "zero")
    assert main(["cost", "--preset", "desk"]) == 2
    assert "VOLFORMER_THREADS" in capsys.readouterr().err


def test_deterministic_pins_threads(monkeypatch, capsys):
    monkeypatch.setenv("VOLFORMER_THREADS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    assert main(["cost", "--preset", "desk", "--deterministic"]) == 0
    capsys.readouterr()
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["VOLFORMER_THREADS"] == "1"
