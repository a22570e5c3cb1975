"""Command-line entry point: ``gen``, ``cv``, ``localize``, and ``cost``.

One binary with subcommands covers the whole workflow: synthesize a dataset,
run cross-validated training, produce localization maps from a checkpoint,
and print the analytic cost table for every attention plan.

Exit codes: 0 success, 2 configuration error, 3 data or fold-planning error,
4 training abort, 5 checkpoint error. Every command that owns an output
directory echoes its fully resolved configuration there as
``resolved_config.json`` and refuses to rerun into a directory whose echo
differs, unless ``--force`` is given.

The environment variable ``VOLFORMER_THREADS`` caps kernel (BLAS/OpenMP)
threads; ``--deterministic`` pins them to one for bitwise-stable reruns.
Both act before the numeric kernels are first loaded and are inherited by
``--jobs`` worker processes.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from .config import cap_threads, from_config_dict, to_config_dict
from .errors import (CheckpointError, ConfigError, DataError, ParseError,
                     PlanError, ShapeError, StateError)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4
EXIT_CHECKPOINT = 5

ATTENTION_PLANS = ("S-S-S-S", "S-S-S-D", "S-S-D-D", "S-D-D-D", "D-D-D-D")

RESOLVED_NAME = "resolved_config.json"


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class SplitSpec:
    """How to carve subjects into train/test for the ``cv`` command."""

    mode: str = "kfold"
    k: int = 5
    train_sites: tuple[str, ...] = ()
    test_sites: tuple[str, ...] = ()

    def validate(self) -> None:
        if self.mode == "kfold":
            if self.k < 2:
                raise ConfigError(f"kfold split needs k >= 2, got {self.k}")
        elif self.mode == "site_holdout":
            if not self.train_sites or not self.test_sites:
                raise ConfigError(
                    "site_holdout split needs non-empty train_sites and test_sites")
            overlap = set(self.train_sites) & set(self.test_sites)
            if overlap:
                raise ConfigError(
                    f"train_sites and test_sites overlap: {sorted(overlap)}")
        else:
            raise ConfigError(
                f"split mode must be 'kfold' or 'site_holdout', got {self.mode!r}")

    def to_dict(self) -> dict:
        return to_config_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SplitSpec":
        return from_config_dict(cls, doc, "split config")


@dataclass
class RunConfig:
    """Merged configuration document with one section per concern.

    JSON layout: ``{"model": {...}, "train": {...}, "synthetic": {...},
    "split": {...}}``. Every section is optional and falls back to its
    documented defaults; unknown section names are rejected.
    """

    model: "object" = None
    train: "object" = None
    synthetic: "object" = None
    split: SplitSpec = field(default_factory=SplitSpec)

    def __post_init__(self):
        from .data import SyntheticSpec
        from .model import ModelConfig
        from .train import TrainConfig
        if self.model is None:
            self.model = ModelConfig()
        if self.train is None:
            self.train = TrainConfig()
        if self.synthetic is not None and not isinstance(self.synthetic, SyntheticSpec):
            raise ConfigError("synthetic section must be a SyntheticSpec or None")

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "train": self.train.to_dict(),
            "synthetic": None if self.synthetic is None else self.synthetic.to_dict(),
            "split": self.split.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        from .data import SyntheticSpec
        from .model import ModelConfig
        from .train import TrainConfig
        if not isinstance(doc, dict):
            raise ConfigError(f"run config must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"model", "train", "synthetic", "split"}
        if unknown:
            raise ConfigError(f"unknown run config sections: {sorted(unknown)}")
        model = ModelConfig.from_dict(doc.get("model", {}))
        train = TrainConfig.from_dict(doc.get("train", {}))
        synthetic = doc.get("synthetic")
        if synthetic is not None:
            synthetic = SyntheticSpec.from_dict(synthetic)
        split = SplitSpec.from_dict(doc.get("split", {}))
        return cls(model=model, train=train, synthetic=synthetic, split=split)


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from None


def load_run_config(path) -> RunConfig:
    return RunConfig.from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# shared plumbing


def _write_resolved(out_dir: Path, doc: dict, force: bool) -> Path:
    """Echo the resolved configuration; refuse a differing rerun sans --force."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / RESOLVED_NAME
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path.exists() and path.read_text() != text:
        if not force:
            raise ConfigError(
                f"{path} was written by a different run configuration; "
                "pass --force to overwrite the directory contents")
        log.warning("overwriting %s (--force)", path)
    path.write_text(text)
    return path


def _load_records(args, cfg: RunConfig):
    from .data import generate_synthetic, load_manifest
    if getattr(args, "data", None):
        return load_manifest(args.data)
    if cfg.synthetic is not None:
        return generate_synthetic(cfg.synthetic)
    raise ConfigError(
        "no data source: pass --data <manifest> or add a 'synthetic' "
        "section to the config")


def _check_extents(records, model_cfg) -> None:
    want = tuple(model_cfg.input_extent)
    for rec in records:
        for i, vol in enumerate(rec.fmri_volumes):
            got = tuple(vol.volume.shape)
            if got != want:
                raise ConfigError(
                    f"subject {rec.subject_id!r} volume {i} has extents {got} "
                    f"but the model expects {want}")


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    from .data import SyntheticSpec, generate_synthetic, write_dataset
    spec = SyntheticSpec.from_dict(_read_json(args.spec))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
        spec.validate()
    out = Path(args.out)
    records = generate_synthetic(spec)
    _write_resolved(out, {"command": "gen", "synthetic": spec.to_dict()}, args.force)
    manifest = write_dataset(records, out)
    n_vol = sum(len(r.fmri_volumes) for r in records)
    print(f"wrote {len(records)} subjects ({n_vol} fmri volumes) to {out}")
    print(f"manifest: {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cv


def _fold_model(model_cfg, seed: int, fold: int):
    from .model import BrainFormer
    return BrainFormer(model_cfg, seed=seed + fold)


def _write_fold(out_dir: Path, seed: int, result) -> None:
    """Per-fold artifacts: the loss curve and the trained checkpoint."""
    from .model import save_model
    result.history.write_csv(out_dir / f"fold{result.fold}_history.csv")
    save_model(result.model, out_dir / f"fold{result.fold}.ckpt",
               extra_meta={"fold": result.fold, "seed": seed + result.fold})


def cmd_cv(args) -> int:
    from .data import plan_site_holdout
    from .train import cross_validate
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.train = replace(cfg.train, seed=args.seed)
        cfg.train.validate()
    out = Path(args.out)
    resolved = {"command": "cv", **cfg.to_dict(),
                "data": str(args.data) if args.data else None}
    _write_resolved(out, resolved, args.force)

    records = _load_records(args, cfg)
    _check_extents(records, cfg.model)
    plan = None
    if cfg.split.mode == "site_holdout":
        plan = plan_site_holdout(records, cfg.split.train_sites, cfg.split.test_sites)
        records = [r for r in records if r.subject_id in plan.assignments]

    seed = cfg.train.seed
    try:
        with ExitStack() as stack:
            map_fn = map
            if args.jobs > 1:
                map_fn = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs)).map
            aggregate, _ = cross_validate(
                records, partial(_fold_model, cfg.model, seed), cfg.train,
                k=cfg.split.k, plan=plan, map_fn=map_fn,
                on_fold=partial(_write_fold, out, seed))
    except (ConfigError, PlanError, DataError, ParseError):
        raise
    except Exception as err:
        print(f"error: training aborted: {err}", file=sys.stderr)
        return EXIT_TRAIN

    aggregate.write_json(out / "metrics.json")
    aggregate.write_fold_csv(out / "folds.csv")
    print(f"folds: {len(aggregate.folds)}")
    print(f"volume accuracy:  {aggregate.volume_accuracy:.4f} "
          f"± {aggregate.volume_accuracy_std:.4f}")
    print(f"subject accuracy: {aggregate.subject_accuracy:.4f} "
          f"± {aggregate.subject_accuracy_std:.4f}")
    print(f"reports: {out / 'metrics.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# localize


def _audit(args, model) -> int:
    import numpy as np

    from .data import SyntheticSpec, load_manifest
    from .localize import grad_cam, top_fraction_mask

    spec = SyntheticSpec.from_dict(_read_json(args.spec))
    records = load_manifest(args.manifest)
    out = Path(args.out)
    resolved = {"command": "localize", "mode": "audit",
                "ckpt": str(args.ckpt), "manifest": str(args.manifest),
                "layer": args.layer, "fraction": args.fraction,
                "synthetic": spec.to_dict()}
    _write_resolved(out, resolved, args.force)

    rows = []
    hits_on_correct = correct_total = degenerate_count = 0
    for rec in records:
        center = spec.blob_centers[rec.label]
        for i, vol in enumerate(rec.fmri_volumes):
            amap = grad_cam(model, vol.volume, target_class=rec.label,
                            layer=args.layer)
            predicted = int(np.argmax(amap.probs))
            is_correct = predicted == rec.label
            hit = (not amap.degenerate
                   and bool(top_fraction_mask(amap.volume, args.fraction)[center]))
            if amap.degenerate:
                degenerate_count += 1
            if is_correct:
                correct_total += 1
                hits_on_correct += int(hit)
            peak = np.unravel_index(int(np.argmax(amap.volume)), amap.volume.shape)
            rows.append([rec.subject_id, rec.site_id, i, rec.label, predicted,
                         int(is_correct), int(hit), int(amap.degenerate),
                         peak[0], peak[1], peak[2]])

    audit_path = out / "audit.csv"
    with open(audit_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "site_id", "volume", "label", "predicted",
                         "correct", "hit", "degenerate",
                         "peak_d", "peak_h", "peak_w"])
        writer.writerows(rows)
    hit_rate = hits_on_correct / correct_total if correct_total else 0.0
    summary = {
        "volumes": len(rows),
        "correct": correct_total,
        "hits_on_correct": hits_on_correct,
        "hit_rate_on_correct": hit_rate,
        "degenerate_maps": degenerate_count,
        "fraction": args.fraction,
        "layer": args.layer or "default",
    }
    with open(out / "audit_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"audited {len(rows)} volumes: {correct_total} classified correctly, "
          f"{hits_on_correct} of those hit the target "
          f"(rate {hit_rate:.3f} at top {args.fraction:.0%})")
    print(f"per-volume table: {audit_path}")
    return EXIT_OK


def cmd_localize(args) -> int:
    from .data import read_volume
    from .localize import export_map, grad_cam, resolve_layer
    from .model import load_model

    audit_mode = args.manifest is not None or args.spec is not None
    single_mode = args.volume is not None or args.target_class is not None
    if audit_mode and single_mode:
        raise ConfigError("--volume/--class and --manifest/--spec are exclusive")
    if audit_mode and not (args.manifest and args.spec):
        raise ConfigError("audit mode needs both --manifest and --spec")
    if not audit_mode and not (args.volume and args.target_class is not None):
        raise ConfigError("pass --volume and --class, or --manifest and --spec")

    model, _meta = load_model(args.ckpt)
    if model.cfg.use_smri or model.cfg.use_fc or model.cfg.use_pheno:
        raise ConfigError(
            "localize works on volume-only checkpoints; this checkpoint's "
            "model has extra input branches")
    try:
        if audit_mode:
            return _audit(args, model)

        volume = read_volume(args.volume)
        out = Path(args.out)
        layer = resolve_layer(model, args.target_class, args.layer)
        resolved = {"command": "localize", "mode": "single",
                    "ckpt": str(args.ckpt), "volume": str(args.volume),
                    "target_class": args.target_class, "layer": layer}
        _write_resolved(out, resolved, args.force)
        amap = grad_cam(model, volume, target_class=args.target_class,
                        layer=layer)
        paths = export_map(amap, out / "map.vfv", slices=args.slices)
    except (ShapeError, StateError) as err:
        raise CheckpointError(
            f"checkpoint is incompatible with this input: {err}") from None
    if amap.degenerate:
        print("warning: activation map is degenerate (no positive evidence "
              "for this class); the sidecar flags it", file=sys.stderr)
    print(f"map: {paths['volume']}")
    print(f"sidecar: {paths['sidecar']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost


def cmd_cost(args) -> int:
    from .model import ModelConfig, estimate_cost, parse_attention_plan
    if args.config:
        base = load_run_config(args.config).model
    elif args.preset == "desk":
        base = ModelConfig.desk()
    else:
        base = ModelConfig()
    rows = []
    for plan in ATTENTION_PLANS:
        cfg = replace(base, attention_plan=parse_attention_plan(plan))
        cfg.validate()
        report = estimate_cost(cfg)
        rows.append([plan, report.flops, report.peak_activation_bytes,
                     report.parameter_count])
    writer = csv.writer(sys.stdout)
    writer.writerow(["plan", "flops", "peak_activation_bytes", "parameter_count"])
    writer.writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None,
                     help="override the seed from the configuration file")
    sub.add_argument("--deterministic", action="store_true",
                     help="pin kernel threads to 1 for bitwise-stable reruns")
    sub.add_argument("--force", action="store_true",
                     help="allow writing into an output directory whose "
                          "resolved_config.json differs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volformer",
        description="Volumetric classification: synthesize data, train with "
                    "cross-validation, localize evidence, estimate cost.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="materialize a synthetic dataset")
    gen.add_argument("--spec", required=True, help="SyntheticSpec JSON file")
    gen.add_argument("--out", required=True, help="output directory")
    _add_common(gen)
    gen.set_defaults(func=cmd_gen)

    cv = subs.add_parser("cv", help="cross-validated training and evaluation")
    cv.add_argument("--config", required=True, help="run config JSON file")
    cv.add_argument("--data", default=None,
                    help="manifest.csv (defaults to the config's synthetic section)")
    cv.add_argument("--out", required=True, help="output directory")
    cv.add_argument("--jobs", type=int, default=1,
                    help="train folds in parallel processes")
    _add_common(cv)
    cv.set_defaults(func=cmd_cv)

    loc = subs.add_parser("localize", help="activation maps from a checkpoint")
    loc.add_argument("--ckpt", required=True, help="model checkpoint")
    loc.add_argument("--volume", default=None, help="input volume (.vfv)")
    loc.add_argument("--class", dest="target_class", type=int, default=None,
                     help="class index to explain")
    loc.add_argument("--layer", default=None,
                     help="trace layer to map (default: deepest conv output)")
    loc.add_argument("--out", required=True, help="output directory")
    loc.add_argument("--slices", action="store_true",
                     help="also write mid-slice CSVs")
    loc.add_argument("--manifest", default=None,
                     help="audit mode: manifest of labelled volumes")
    loc.add_argument("--spec", default=None,
                     help="audit mode: SyntheticSpec JSON with ground-truth centers")
    loc.add_argument("--fraction", type=float, default=0.05,
                     help="audit mode: top-activation fraction counted as a hit")
    _add_common(loc)
    loc.set_defaults(func=cmd_localize)

    cost = subs.add_parser("cost", help="print the five-plan cost table as CSV")
    cost.add_argument("--config", default=None,
                      help="run config JSON (model section used)")
    cost.add_argument("--preset", choices=("full", "desk"), default="full",
                      help="model preset when no config is given")
    _add_common(cost)
    cost.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cap_threads("1" if getattr(args, "deterministic", False) else None)
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, ParseError, PlanError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
