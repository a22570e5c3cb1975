"""Adam optimizer, learning-rate schedule, training loop, and k-fold harness.

Training treats every 3D volume as an independent sample: volumes from all
subjects are pooled and reshuffled each epoch. Evaluation reports both
volume-level metrics and subject-level metrics, where a subject's label is
the argmax of its mean per-volume probability vector (exact ties go to the
lowest class index and are counted).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import Section
from .data import FoldPlan, SubjectRecord, plan_folds, write_csv, write_json
from .errors import ConfigError, DataError, PlanError
from .layers import cross_entropy_logits

log = logging.getLogger("volformer.train")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig(Section):
    what = "train config"

    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-4
    lr_drop_epoch: int = 8
    lr_drop_factor: float = 10.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    class_weighting: bool = False

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 1 <= self.lr_drop_epoch <= self.epochs:
            raise ConfigError(
                f"lr_drop_epoch {self.lr_drop_epoch} outside 1..{self.epochs}")
        # Written so that NaN fails each comparison too.
        for name, ok, rule in (("lr", self.lr > 0, "positive"),
                               ("lr_drop_factor", self.lr_drop_factor > 0, "positive"),
                               ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                               ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                               ("eps", self.eps > 0, "positive")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: base rate, divided by the drop factor from the drop epoch on."""
    if not 1 <= epoch <= cfg.epochs:
        raise ConfigError(f"epoch {epoch} outside 1..{cfg.epochs}")
    if epoch < cfg.lr_drop_epoch:
        return cfg.lr
    return cfg.lr / cfg.lr_drop_factor


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """In-place Adam (Kingma & Ba 2015) with bias correction over a model's
    named parameters; ``state`` holds each parameter's (m, v) moments."""

    def __init__(self, named_params: list[tuple[str, T.Tensor]], cfg: TrainConfig):
        self.cfg = cfg
        self.named_params = named_params
        self.state = [(np.zeros_like(p.data), np.zeros_like(p.data))
                      for _, p in named_params]
        self.t = 0

    def step(self, lr: float) -> bool:
        """Apply one update at rate ``lr``. Returns False, touching no
        parameter or moment, if any gradient is not finite."""
        grads = []
        for name, p in self.named_params:
            if p.grad is None:
                raise ConfigError(f"parameter {name} has no gradient")
            grads.append(p.grad)
        if not all(np.all(np.isfinite(g)) for g in grads):
            return False
        self.t += 1
        cfg = self.cfg
        c1 = 1.0 - cfg.beta1 ** self.t
        c2 = 1.0 - cfg.beta2 ** self.t
        for (_, p), g, (m, v) in zip(self.named_params, grads, self.state):
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps)
        return True


# ---------------------------------------------------------------------------
# batch assembly


@dataclass
class _Item:
    label: int
    volume: np.ndarray
    inputs: dict  # the subject's branch inputs, from ``ModelConfig.branch_inputs``


def _items(records: list[SubjectRecord], model_cfg) -> list[_Item]:
    """Pool volumes in canonical per-subject order, so the item list (and any
    seeded shuffle of it) does not depend on manifest row order."""
    items = []
    for rec in sorted(records, key=lambda r: r.subject_id):
        inputs = model_cfg.branch_inputs(rec)
        for sample in rec.fmri_volumes:
            items.append(_Item(rec.label, sample.volume, inputs))
    return items


def _stack(items: list[_Item]) -> tuple[T.Tensor, np.ndarray, dict]:
    """Batch arrays as the data holds them; the model casts to its dtype."""
    volumes = T.Tensor(np.stack([it.volume[None] for it in items]))
    labels = np.array([it.label for it in items], dtype=np.int64)
    extras: dict = {}
    for branch in items[0].inputs:
        values = [it.inputs[branch] for it in items]
        have = [v is not None for v in values]
        if all(have):
            extras[branch] = T.Tensor(np.stack(values))
        elif any(have):
            raise DataError(f"batch mixes subjects with and without {branch} data")
    return volumes, labels, extras


def _class_weights(items: list[_Item], class_count: int) -> np.ndarray:
    counts = np.bincount([it.label for it in items], minlength=class_count)
    weights = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    return weights


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainHistory:
    loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    skipped_batches: int = 0

    def write_csv(self, path) -> None:
        write_csv(path, ["epoch", "loss", "train_acc"],
                  [[epoch, repr(l), repr(a)]
                   for epoch, (l, a) in enumerate(zip(self.loss, self.train_accuracy), 1)])


def train_fold(model, train_records: list[SubjectRecord], cfg: TrainConfig
               ) -> TrainHistory:
    """Train a model in place over pooled, per-epoch-shuffled volumes.

    A batch with a non-finite gradient leaves parameters and batch-norm running
    statistics as they were; an epoch of only such batches raises
    ``FloatingPointError``."""
    items = _items(train_records, model.cfg)
    if not items:
        raise DataError("training set contains no volumes")
    class_count = model.cfg.class_count
    weights = _class_weights(items, class_count) if cfg.class_weighting else None
    opt = Adam(model.params(), cfg)
    stats = [layer.stats for _, layer in model.norm_layers()]
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    n = len(items)
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        counted = 0
        for start in range(0, n, cfg.batch_size):
            batch = [items[i] for i in order[start:start + cfg.batch_size]]
            volumes, labels, extras = _stack(batch)
            T.zero_grads([p for _, p in opt.named_params])
            saved = [(s.mean, s.var) for s in stats]
            logits = model.forward_logits(volumes, training=True, **extras)
            batch_w = weights[labels] if weights is not None else None
            loss = cross_entropy_logits(logits, labels, batch_w)
            T.backward(loss)
            if not opt.step(lr):
                for s, (mean, var) in zip(stats, saved):
                    s.mean, s.var = mean, var
                history.skipped_batches += 1
                log.warning("skipped batch at epoch %d: non-finite gradient", epoch)
                continue
            loss_sum += float(loss.data) * len(batch)
            correct += int((np.argmax(logits.data, axis=-1) == labels).sum())
            counted += len(batch)
        if not counted:
            raise FloatingPointError(f"all {len(range(0, n, cfg.batch_size))} batches of "
                                     f"epoch {epoch} had a non-finite gradient")
        history.loss.append(loss_sum / counted)
        history.train_accuracy.append(correct / counted)
        history.lr.append(lr)
    return history


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricReport:
    volume_accuracy: float
    subject_accuracy: float
    precision: list[float]
    recall: list[float]
    confusion: np.ndarray
    volume_count: int
    subject_count: int
    excluded_subjects: list[str] = field(default_factory=list)
    tie_count: int = 0
    folds: list["MetricReport"] | None = None
    volume_accuracy_std: float = 0.0
    subject_accuracy_std: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "volume_accuracy": self.volume_accuracy,
            "subject_accuracy": self.subject_accuracy,
            "precision": list(map(float, self.precision)),
            "recall": list(map(float, self.recall)),
            "confusion": np.asarray(self.confusion).astype(int).tolist(),
            "volume_count": self.volume_count,
            "subject_count": self.subject_count,
            "excluded_subjects": list(self.excluded_subjects),
            "tie_count": self.tie_count,
        }
        if self.folds is not None:
            out["folds"] = [f.to_dict() for f in self.folds]
            out["volume_accuracy_std"] = self.volume_accuracy_std
            out["subject_accuracy_std"] = self.subject_accuracy_std
        return out

    def write_json(self, path) -> None:
        write_json(path, self.to_dict())

    def write_fold_csv(self, path) -> None:
        if self.folds is None:
            raise ConfigError("per-fold CSV needs an aggregated report")
        write_csv(path, ["fold", "volume_accuracy", "subject_accuracy",
                         "volume_count", "subject_count"],
                  [[i, repr(f.volume_accuracy), repr(f.subject_accuracy),
                    f.volume_count, f.subject_count] for i, f in enumerate(self.folds)])


def _precision_recall(confusion: np.ndarray) -> dict:
    """Per-class precision (column-wise) and recall (row-wise); 0 for an
    empty row or column."""
    hits = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0)
    row = confusion.sum(axis=1)
    return {"precision": [h / n if n else 0.0 for h, n in zip(hits, col)],
            "recall": [h / n if n else 0.0 for h, n in zip(hits, row)]}


def evaluate(model, test_records: list[SubjectRecord]) -> MetricReport:
    """Volume-level metrics plus subject-level mean-probability voting."""
    class_count = model.cfg.class_count
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    excluded: list[str] = []
    ties = 0
    subj_correct = 0
    subj_total = 0
    for rec in sorted(test_records, key=lambda r: r.subject_id):
        sub_items = _items([rec], model.cfg)
        if not sub_items:
            excluded.append(rec.subject_id)
            log.warning("subject %s has no volumes; excluded from evaluation",
                        rec.subject_id)
            continue
        volumes, labels, extras = _stack(sub_items)
        probs = model.forward_probs(volumes, **extras).data
        preds = np.argmax(probs, axis=-1)
        for y, p in zip(labels, preds):
            confusion[y, p] += 1
        mean_prob = probs.mean(axis=0)
        top = mean_prob.max()
        if int((mean_prob == top).sum()) > 1:
            ties += 1
            log.info("subject %s mean probabilities tie at %.6f; choosing the "
                     "lowest class index", rec.subject_id, top)
        subj_pred = int(np.argmax(mean_prob))
        subj_correct += subj_pred == rec.label
        subj_total += 1
    volume_total = int(confusion.sum())
    volume_acc = float(np.trace(confusion)) / volume_total if volume_total else 0.0
    return MetricReport(
        volume_accuracy=volume_acc,
        subject_accuracy=subj_correct / subj_total if subj_total else 0.0,
        **_precision_recall(confusion), confusion=confusion,
        volume_count=volume_total, subject_count=subj_total,
        excluded_subjects=excluded, tie_count=ties)


# ---------------------------------------------------------------------------
# cross-validation


@dataclass
class FoldResult:
    fold: int
    model: object
    history: TrainHistory
    report: MetricReport


def _run_fold(task) -> FoldResult:
    """Build, train, evaluate and hook one fold; module-level for process pools."""
    fold, train_recs, test_recs, model_factory, cfg, on_fold = task
    model = model_factory(fold)
    history = train_fold(model, train_recs, cfg)
    report = evaluate(model, test_recs)
    result = FoldResult(fold, model, history, report)
    if on_fold is not None:
        on_fold(result)
        result.model = None  # the hook had it; a process pool need not send it back
    log.info("fold %d: volume acc %.4f, subject acc %.4f", fold,
             report.volume_accuracy, report.subject_accuracy)
    return result


def cross_validate(records: list[SubjectRecord], model_factory, cfg: TrainConfig,
                   k: int = 5, plan: FoldPlan | None = None, map_fn=map,
                   on_fold=None) -> tuple[MetricReport, list[FoldResult]]:
    """Train one fresh model per fold; aggregate with population-std spread.

    ``model_factory(fold_index)`` must return a newly initialized model.
    Every fold is planned and checked for subject leaks before any trains.
    Folds run through ``map_fn``: the builtin ``map`` trains them in turn,
    a process pool's ``map`` in parallel, which needs a picklable factory
    and hook. ``on_fold(result)`` runs in the process that trained the fold,
    right after its evaluation; the results it saw come back without their
    model.
    """
    if plan is None:
        plan = plan_folds(records, k=k, seed=cfg.seed)
    tasks = []
    for fold in range(plan.fold_count):
        train_recs, test_recs = plan.split(records, fold)
        overlap = ({r.subject_id for r in train_recs}
                   & {r.subject_id for r in test_recs})
        if overlap:
            raise PlanError(f"subjects leak between train and test: {sorted(overlap)}")
        tasks.append((fold, train_recs, test_recs, model_factory, cfg, on_fold))
    results = list(map_fn(_run_fold, tasks))
    return aggregate_reports([r.report for r in results]), results


def aggregate_reports(fold_reports: list[MetricReport]) -> MetricReport:
    """Pool per-fold reports: mean/std accuracies, summed confusion."""
    if not fold_reports:
        raise ConfigError("cannot aggregate zero fold reports")
    vol = np.array([r.volume_accuracy for r in fold_reports])
    sub = np.array([r.subject_accuracy for r in fold_reports])
    confusion = np.sum([r.confusion for r in fold_reports], axis=0)
    return MetricReport(
        volume_accuracy=float(vol.mean()),
        subject_accuracy=float(sub.mean()),
        **_precision_recall(confusion), confusion=confusion,
        volume_count=int(sum(r.volume_count for r in fold_reports)),
        subject_count=int(sum(r.subject_count for r in fold_reports)),
        excluded_subjects=[s for r in fold_reports for s in r.excluded_subjects],
        tie_count=int(sum(r.tie_count for r in fold_reports)),
        folds=fold_reports,
        volume_accuracy_std=float(vol.std()),
        subject_accuracy_std=float(sub.std()))
