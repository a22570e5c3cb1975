"""Command-line entry point: ``gen``, ``cv``, ``localize``, ``audit`` and
``cost``.

One binary with subcommands covers the whole workflow: synthesize a dataset,
run cross-validated training, produce a localization map from a checkpoint,
score the maps of a whole manifest against the generator's ground truth, and
print the analytic cost table for every attention plan. Each subcommand
accepts only the flags it reads.

Exit codes: 0 success, 2 configuration error, 3 data or fold-planning error,
4 training abort, 5 checkpoint error. Every command that owns an output
directory echoes its fully resolved configuration there as
``resolved_config.json`` once its inputs pass their checks, so a command that
fails on its inputs leaves no echo. It refuses, before any work, to rerun
into a directory whose echo differs, unless ``--force`` is given.

The environment variable ``VOLFORMER_THREADS`` caps kernel (BLAS/OpenMP)
threads; ``VOLFORMER_THREADS=1`` gives bitwise-stable reruns. The package
import applies it, before numpy loads, and ``--jobs`` worker processes
inherit it; ``main`` checks it again so that an invalid value exits 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import data, localize, model, train
from .config import Section, cap_threads
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
class SplitSpec(Section):
    """How to carve subjects into train/test for the ``cv`` command."""

    what = "split config"

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


@dataclass
class RunConfig(Section):
    """Merged configuration document with one section per concern.

    JSON layout: ``{"model": {...}, "train": {...}, "synthetic": {...},
    "split": {...}}``. Every section is optional and falls back to its
    documented defaults; unknown section names are rejected.
    """

    model: model.ModelConfig
    train: train.TrainConfig
    synthetic: data.SyntheticSpec | None
    split: SplitSpec

    @classmethod
    def from_dict(cls, doc) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"run config must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"model", "train", "synthetic", "split"}
        if unknown:
            raise ConfigError(f"unknown run config sections: {sorted(unknown)}")
        synthetic = doc.get("synthetic")
        return cls(model=model.ModelConfig.from_dict(doc.get("model", {})),
                   train=train.TrainConfig.from_dict(doc.get("train", {})),
                   synthetic=None if synthetic is None
                   else data.SyntheticSpec.from_dict(synthetic),
                   split=SplitSpec.from_dict(doc.get("split", {})))


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


def _check_resolved(out_dir: Path, doc: dict, force: bool) -> str:
    """Echo text for ``doc``; refuse a directory whose echo differs, sans --force."""
    path = out_dir / RESOLVED_NAME
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path.exists() and path.read_text() != text:
        if not force:
            raise ConfigError(
                f"{path} was written by a different run configuration; "
                "pass --force to overwrite the directory contents")
        log.warning("overwriting %s (--force)", path)
    return text


def _write_resolved(out_dir: Path, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with data.replacing(out_dir / RESOLVED_NAME) as tmp:
        tmp.write_text(text)


def _load_records(args, cfg: RunConfig):
    if args.data:
        return data.load_manifest(args.data)
    if cfg.synthetic is not None:
        return data.generate_synthetic(cfg.synthetic)
    raise ConfigError(
        "no data source: pass --data <manifest> or add a 'synthetic' "
        "section to the config")


def _check_labels(records, count: int, source: str) -> None:
    """``ConfigError`` naming the first subject whose label is not below
    ``count``, the number of classes ``source`` has."""
    for rec in records:
        if rec.label >= count:
            raise ConfigError(f"subject {rec.subject_id!r} has label {rec.label} "
                              f"but {source} is {count}")


def _check_extents(records, model_cfg) -> None:
    """Check every subject against the model before training starts. A
    subject without the data of an enabled branch is a ``DataError``; a
    label outside the model's classes, or a volume or vector whose size
    differs from the model's, is a ``ConfigError``."""
    _check_labels(records, model_cfg.class_count, "the model's class_count")
    want = tuple(model_cfg.input_extent)
    for rec in records:
        extents = [(f"volume {i}", s.volume.shape) for i, s in enumerate(rec.fmri_volumes)]
        inputs = model_cfg.branch_inputs(rec)
        for branch, shape in model_cfg.branch_shapes().items():
            value = inputs[branch]
            if value is None:
                raise DataError(f"subject {rec.subject_id!r} has no {branch} data "
                                f"but the model's {branch} branch is enabled")
            if len(shape) > 1:
                extents.append((f"{branch} volume", value.shape[1:]))
            elif len(value) != shape[0]:
                raise ConfigError(
                    f"subject {rec.subject_id!r} {branch} vector has {len(value)} "
                    f"values but the model expects {branch}_input_dim = {shape[0]}")
        for label, got in extents:
            if got != want:
                raise ConfigError(
                    f"subject {rec.subject_id!r} {label} has extents {got} "
                    f"but the model expects {want}")


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    spec = data.SyntheticSpec.from_dict(_read_json(args.spec))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
        spec.validate()
    out = Path(args.out)
    echo = _check_resolved(out, {"command": "gen", "synthetic": spec.to_dict()}, args.force)
    records = data.generate_synthetic(spec)
    _write_resolved(out, echo)
    manifest = data.write_dataset(records, out)
    n_vol = sum(len(r.fmri_volumes) for r in records)
    print(f"wrote {len(records)} subjects ({n_vol} fmri volumes) to {out}")
    print(f"manifest: {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cv


def _fold_model(model_cfg, seed: int, fold: int):
    return model.BrainFormer(model_cfg, seed=seed + fold)


def _write_fold(out_dir: Path, seed: int, result) -> None:
    """Per-fold artifacts: the loss curve and the trained checkpoint."""
    result.history.write_csv(out_dir / f"fold{result.fold}_history.csv")
    with data.replacing(out_dir / f"fold{result.fold}.ckpt") as tmp:
        model.save_model(result.model, tmp,
                         extra_meta={"fold": result.fold, "seed": seed + result.fold})


def cmd_cv(args) -> int:
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.train = replace(cfg.train, seed=args.seed)
        cfg.train.validate()
    out = Path(args.out)
    resolved = {"command": "cv", **cfg.to_dict(),
                "data": str(args.data) if args.data else None}
    echo = _check_resolved(out, resolved, args.force)
    records = _load_records(args, cfg)
    _check_extents(records, cfg.model)
    plan = None
    if cfg.split.mode == "site_holdout":
        plan = data.plan_site_holdout(records, cfg.split.train_sites, cfg.split.test_sites)
        records = [r for r in records if r.subject_id in plan.assignments]
    _write_resolved(out, echo)

    seed = cfg.train.seed
    try:
        with ExitStack() as stack:
            map_fn = map
            if args.jobs > 1:
                map_fn = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs)).map
            aggregate, _ = train.cross_validate(
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
# localize and audit


@contextmanager
def _map_model(args):
    """Yield the volume-only model of ``args.ckpt``; a shape or state error
    while mapping means the checkpoint does not fit the input (exit 5)."""
    net, _meta = model.load_model(args.ckpt)
    if net.branches:
        raise ConfigError(
            f"{args.command} works on volume-only checkpoints; this checkpoint's "
            "model has extra input branches")
    try:
        yield net
    except (ShapeError, StateError) as err:
        raise CheckpointError(
            f"checkpoint is incompatible with this input: {err}") from None


def cmd_localize(args) -> int:
    out = Path(args.out)
    with _map_model(args) as net:
        layer = localize.resolve_layer(net, args.target_class, args.layer)
        resolved = {"command": "localize",
                    "ckpt": str(args.ckpt), "volume": str(args.volume),
                    "target_class": args.target_class, "layer": layer}
        echo = _check_resolved(out, resolved, args.force)
        volume = data.read_volume(args.volume)
        amap = localize.grad_cam(net, volume, target_class=args.target_class,
                                 layer=layer)
        _write_resolved(out, echo)
        paths = localize.export_map(amap, out / "map.vfv", slices=args.slices)
    if amap.degenerate:
        print("warning: activation map is degenerate (no positive evidence "
              "for this class); the sidecar flags it", file=sys.stderr)
    print(f"map: {paths['volume']}")
    print(f"sidecar: {paths['sidecar']}")
    return EXIT_OK


def cmd_audit(args) -> int:
    out = Path(args.out)
    with _map_model(args) as net:
        localize.resolve_layer(net, 0, args.layer)  # the layer; class 0 always exists
        spec = data.SyntheticSpec.from_dict(_read_json(args.spec))
        extent = tuple(net.cfg.input_extent)
        for c, center in enumerate(spec.blob_centers):
            if any(not 0 <= x < e for x, e in zip(center, extent)):
                raise ConfigError(f"class {c} blob center {center} lies outside the "
                                  f"model's input extent {extent}")
        resolved = {"command": "audit",
                    "ckpt": str(args.ckpt), "manifest": str(args.manifest),
                    "layer": args.layer, "fraction": args.fraction,
                    "synthetic": spec.to_dict()}
        echo = _check_resolved(out, resolved, args.force)
        records = data.load_manifest(args.manifest)
        _check_labels(records, len(spec.blob_centers), "the spec's blob center count")
        _check_labels(records, net.cfg.class_count, "the model's class_count")
        rows = []
        for rec in records:
            center = spec.blob_centers[rec.label]
            for i, vol in enumerate(rec.fmri_volumes):
                amap = localize.grad_cam(net, vol.volume, target_class=rec.label,
                                         layer=args.layer)
                predicted = int(np.argmax(amap.probs))
                hit = (not amap.degenerate and bool(
                    localize.top_fraction_mask(amap.volume, args.fraction)[center]))
                peak = np.unravel_index(int(np.argmax(amap.volume)), amap.volume.shape)
                rows.append([rec.subject_id, rec.site_id, i, rec.label, predicted,
                             int(predicted == rec.label), int(hit),
                             int(amap.degenerate), *peak])

    _write_resolved(out, echo)
    audit_path = out / "audit.csv"
    data.write_csv(audit_path, ["subject_id", "site_id", "volume", "label", "predicted",
                                "correct", "hit", "degenerate",
                                "peak_d", "peak_h", "peak_w"], rows)
    correct_total = sum(row[5] for row in rows)
    hits_on_correct = sum(row[5] * row[6] for row in rows)
    hit_rate = hits_on_correct / correct_total if correct_total else 0.0
    summary = {
        "volumes": len(rows),
        "correct": correct_total,
        "hits_on_correct": hits_on_correct,
        "hit_rate_on_correct": hit_rate,
        "degenerate_maps": sum(row[7] for row in rows),
        "fraction": args.fraction,
        "layer": args.layer or "default",
    }
    data.write_json(out / "audit_summary.json", summary)
    print(f"audited {len(rows)} volumes: {correct_total} classified correctly, "
          f"{hits_on_correct} of those hit the target "
          f"(rate {hit_rate:.3f} at top {args.fraction:.0%})")
    print(f"per-volume table: {audit_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cost


def cmd_cost(args) -> int:
    if args.config:
        base = load_run_config(args.config).model
    elif args.preset == "desk":
        base = model.ModelConfig.desk()
    else:
        base = model.ModelConfig()
    rows = []
    for plan in ATTENTION_PLANS:
        cfg = replace(base, attention_plan=model.parse_attention_plan(plan))
        cfg.validate()
        report = model.estimate_cost(cfg)
        rows.append([plan, report.flops, report.peak_activation_bytes,
                     report.parameter_count])
    writer = csv.writer(sys.stdout)
    writer.writerow(["plan", "flops", "peak_activation_bytes", "parameter_count"])
    writer.writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _checked(cast, ok, rule: str):
    """argparse type: ``cast`` the text, then reject a value ``ok`` refuses."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    # The shared flags, each given only to the subcommands that read it.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None,
                      help="override the seed from the configuration file")
    force = argparse.ArgumentParser(add_help=False)
    force.add_argument("--force", action="store_true",
                       help="allow writing into an output directory whose "
                            "resolved_config.json differs")
    maps = argparse.ArgumentParser(add_help=False, parents=[force])
    maps.add_argument("--ckpt", required=True, help="model checkpoint")
    maps.add_argument("--layer", default=None,
                      help="trace layer to map (default: deepest conv output)")
    maps.add_argument("--out", required=True, help="output directory")

    parser = argparse.ArgumentParser(
        prog="volformer",
        description="Volumetric classification: synthesize data, train with "
                    "cross-validation, localize evidence, estimate cost.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", parents=[seed, force],
                          help="materialize a synthetic dataset")
    gen.add_argument("--spec", required=True, help="SyntheticSpec JSON file")
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    cv = subs.add_parser("cv", parents=[seed, force],
                         help="cross-validated training and evaluation")
    cv.add_argument("--config", required=True, help="run config JSON file")
    cv.add_argument("--data", default=None,
                    help="manifest.csv (defaults to the config's synthetic section)")
    cv.add_argument("--out", required=True, help="output directory")
    cv.add_argument("--jobs", type=_checked(int, lambda n: n >= 1, "at least 1"), default=1,
                    help="train folds in parallel processes")
    cv.set_defaults(func=cmd_cv)

    loc = subs.add_parser("localize", parents=[maps],
                          help="activation map of one volume from a checkpoint")
    loc.add_argument("--volume", required=True, help="input volume (.vfv)")
    loc.add_argument("--class", dest="target_class", type=int, required=True,
                     help="class index to explain")
    loc.add_argument("--slices", action="store_true",
                     help="also write mid-slice CSVs")
    loc.set_defaults(func=cmd_localize)

    audit = subs.add_parser("audit", parents=[maps],
                            help="score the maps of a manifest against ground truth")
    audit.add_argument("--manifest", required=True,
                       help="manifest of labelled volumes")
    audit.add_argument("--spec", required=True,
                       help="SyntheticSpec JSON with the ground-truth centers")
    audit.add_argument("--fraction", default=0.05,
                       type=_checked(float, lambda f: 0 < f <= 1, "in (0, 1]"),
                       help="top-activation fraction counted as a hit")
    audit.set_defaults(func=cmd_audit)

    cost = subs.add_parser("cost", help="print the five-plan cost table as CSV")
    source = cost.add_mutually_exclusive_group()
    source.add_argument("--config", default=None,
                        help="run config JSON (model section used)")
    # default None: argparse misses a conflict if the value "is" the default
    source.add_argument("--preset", choices=("full", "desk"), default=None,
                        help="model preset (default: full)")
    cost.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cap_threads()
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

