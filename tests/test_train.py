"""Optimizer math, schedule, training loop behavior, metrics, k-fold harness."""

import numpy as np
import pytest

from volformer import train
from volformer.data import SubjectRecord, SyntheticSpec, VolumeSample, generate_synthetic
from volformer.errors import ConfigError, DataError
from volformer.model import BrainFormer, ModelConfig
from volformer.tensor import Tensor
from volformer.train import (Adam, MetricReport, TrainConfig, cross_validate, evaluate,
                             lr_at, train_fold)

from oracles import adam_trajectory, evaluate_reference


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


class _Stub:
    """Evaluation stand-in: probabilities computed by a plain function."""

    def __init__(self, prob_fn, class_count=2):
        self.cfg = ModelConfig(class_count=class_count)
        self._fn = prob_fn

    def forward_probs(self, volumes, **extras):
        return Tensor(np.asarray(self._fn(volumes.data), dtype=np.float32))


# ---------------------------------------------------------------------------
# config and schedule


def test_config_validates_bounds():
    with pytest.raises(ConfigError):
        TrainConfig(lr_drop_epoch=11).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(beta2=1.0).validate()
    TrainConfig().validate()


def test_config_round_trip_and_unknown_key():
    cfg = TrainConfig(epochs=3, lr_drop_epoch=2, seed=9)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError) as err:
        TrainConfig.from_dict({"lerning_rate": 0.1})
    assert "lerning_rate" in str(err.value)


def test_lr_schedule_values():
    cfg = TrainConfig()
    assert lr_at(1, cfg) == 1e-4
    assert lr_at(7, cfg) == 1e-4
    assert lr_at(8, cfg) == pytest.approx(1e-5)
    assert lr_at(10, cfg) == pytest.approx(1e-5)
    with pytest.raises(ConfigError):
        lr_at(0, cfg)
    with pytest.raises(ConfigError):
        lr_at(11, cfg)


# ---------------------------------------------------------------------------
# optimizer math


def _adam(p0):
    """An optimizer over one float64 parameter that starts at ``p0``."""
    p = Tensor(np.array(p0, dtype=np.float64), requires_grad=True)
    return p, Adam([("p", p)], TrainConfig())


def _adam_step(opt, p, g, lr=TrainConfig().lr):
    p.grad = np.asarray(g, dtype=np.float64)
    return opt.step(lr)


def test_adam_first_step_closed_form():
    cfg = TrainConfig()
    p, opt = _adam(np.zeros(5))
    assert _adam_step(opt, p, np.ones(5))
    expected = -cfg.lr / (1.0 + cfg.eps)
    assert np.abs(p.data - expected).max() < 1e-12


def test_adam_matches_reference_trajectory():
    rng = np.random.default_rng(2)
    p0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(6)]
    p, opt = _adam(p0)
    for g in grads:
        assert _adam_step(opt, p, g, lr=1e-3)
    assert opt.t == len(grads)
    expected = adam_trajectory(p0, grads, lr=1e-3)[-1]
    assert np.abs(p.data - expected).max() < 1e-10


def test_adam_zero_gradient_keeps_parameters():
    p, opt = _adam(np.full(4, 3.0))
    assert _adam_step(opt, p, np.zeros(4))
    assert np.array_equal(p.data, np.full(4, 3.0))


def test_adam_nonfinite_gradient_aborts_without_mutation():
    p, opt = _adam([1.0, 2.0])
    assert _adam_step(opt, p, [0.5, -0.5])
    p_snap = p.data.copy()
    m_snap, v_snap = (a.copy() for a in opt.state[0])
    assert not _adam_step(opt, p, [1.0, np.nan])
    assert opt.t == 1
    assert p.data.tobytes() == p_snap.tobytes()
    assert opt.state[0][0].tobytes() == m_snap.tobytes()
    assert opt.state[0][1].tobytes() == v_snap.tobytes()


def test_adam_deterministic_trajectories():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=3) for _ in range(4)]
    outs = []
    for _ in range(2):
        p, opt = _adam(np.zeros(3))
        for g in grads:
            _adam_step(opt, p, g)
        outs.append(p.data.copy())
    assert np.array_equal(outs[0], outs[1])


def test_adam_wrapper_skips_and_reports():
    p = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
    opt = Adam([("p", p)], TrainConfig())
    p.grad = np.array([np.inf, 0.0, 0.0])
    assert not opt.step(1e-4)
    assert opt.t == 0
    assert np.array_equal(p.data, np.ones(3))
    p.grad = np.ones(3)
    assert opt.step(1e-4)
    assert opt.t == 1
    p.grad = None
    with pytest.raises(ConfigError):
        opt.step(1e-4)


# ---------------------------------------------------------------------------
# training loop


def test_train_fold_loss_decreases_on_separable_task():
    records = generate_synthetic(_tiny_spec())
    model = _tiny_model(seed=1)
    cfg = TrainConfig(epochs=4, batch_size=6, lr=1e-3, lr_drop_epoch=4, seed=0)
    history = train_fold(model, records, cfg)
    assert len(history.loss) == 4
    assert history.loss[-1] < history.loss[0]
    assert history.skipped_batches == 0
    assert history.lr == [1e-3, 1e-3, 1e-3, pytest.approx(1e-4)]


def test_train_fold_single_point_descent():
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=1,
                                            volumes_per_subject=1))
    one = [records[0]]
    # unit strides keep spatial extent > 1, so batch norm still sees spread
    # inside a batch made of copies of a single volume
    model = _tiny_model(seed=2, stage_strides=(1, 1, 1, 1))
    losses = [train_fold(model, one, TrainConfig(epochs=1, batch_size=4, lr=1e-4,
                                                 lr_drop_epoch=1)).loss[0]
              for _ in range(3)]
    assert losses[1] < losses[0]
    assert losses[2] < losses[1]


def test_train_fold_deterministic_and_order_invariant():
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=2,
                                            volumes_per_subject=2))
    cfg = TrainConfig(epochs=2, batch_size=4, lr=1e-3, lr_drop_epoch=2, seed=5)
    model_a = _tiny_model(seed=3)
    hist_a = train_fold(model_a, records, cfg)
    model_b = _tiny_model(seed=3)
    hist_b = train_fold(model_b, list(reversed(records)), cfg)
    assert hist_a.loss == hist_b.loss
    assert hist_a.train_accuracy == hist_b.train_accuracy
    for (_, pa), (_, pb) in zip(model_a.params(), model_b.params()):
        assert np.array_equal(pa.data, pb.data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf propagates by design
def test_train_fold_skips_nonfinite_batches():
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=1,
                                            volumes_per_subject=2))
    records[0].fmri_volumes[0].volume[0, 0, 0] = np.inf
    model = _tiny_model(seed=4)
    snapshot = [p.data.copy() for _, p in model.params()]
    cfg = TrainConfig(epochs=1, batch_size=16, lr=1e-3, lr_drop_epoch=1)
    # The single batch held the bad volume, so the whole epoch is skipped.
    with pytest.raises(FloatingPointError, match="all 1 batches of epoch 1"):
        train_fold(model, records, cfg)
    for snap, (_, p) in zip(snapshot, model.params()):
        assert np.array_equal(snap, p.data)
    assert all(not layer.stats.initialized() for _, layer in model.norm_layers())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN propagates by design
def test_nan_volume_leaves_bn_running_stats_finite():
    records = generate_synthetic(SyntheticSpec(subjects_per_class_per_site=3,
                                               volumes_per_subject=2))
    records[0].fmri_volumes[0].volume[3, 4, 5] = np.nan
    model = BrainFormer(ModelConfig.desk(), seed=0)
    history = train_fold(model, records, TrainConfig(epochs=2, batch_size=4, lr_drop_epoch=2))
    assert history.skipped_batches == 2  # one batch per epoch holds the NaN voxel
    assert len(model.norm_layers()) == 20
    for _, layer in model.norm_layers():
        assert np.all(np.isfinite(layer.stats.mean)) and np.all(np.isfinite(layer.stats.var))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf propagates by design
def test_skipped_step_leaves_bn_running_stats_bitwise_unchanged(monkeypatch):
    records = generate_synthetic(_tiny_spec())
    records[1].fmri_volumes[0].volume[0, 0, 0] = np.inf
    model = _tiny_model(seed=1)

    def stats_bytes():
        return [(s.mean.tobytes(), s.var.tobytes()) if s.initialized() else None
                for s in (layer.stats for _, layer in model.norm_layers())]

    before = []  # BN stats as each step's forward pass found them
    forward = model.forward_logits

    def spy_forward(*args, **kwargs):
        before.append(stats_bytes())
        return forward(*args, **kwargs)

    accepted = []
    step = Adam.step
    monkeypatch.setattr(model, "forward_logits", spy_forward)
    monkeypatch.setattr(Adam, "step", lambda opt, lr: accepted.append(step(opt, lr))
                        or accepted[-1])
    history = train_fold(model, records, TrainConfig(epochs=2, batch_size=4,
                                                     lr_drop_epoch=2))
    before.append(stats_bytes())
    skipped = [i for i, ok in enumerate(accepted) if not ok]
    assert history.skipped_batches == len(skipped) == 2
    assert any(before[i][0] is not None for i in skipped)  # stats already seeded
    for i in skipped:  # the stats after step i are those the next step starts from
        assert before[i + 1] == before[i]


@pytest.mark.parametrize("weighting", [True, False])
def test_class_weighting_reaches_the_loss(monkeypatch, weighting):
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=2,
                                            volumes_per_subject=2))
    records = [r for r in records if r.label == 0] + [r for r in records if r.label == 1][:1]
    counts = np.bincount([r.label for r in records for _ in r.fmri_volumes])
    assert counts.tolist() == [4, 2]
    calls = []
    loss_fn = train.cross_entropy_logits

    def spy(logits, labels, weights=None):
        loss = loss_fn(logits, labels, weights)
        calls.append((logits.data.astype(np.float64), labels, weights, float(loss.data)))
        return loss

    monkeypatch.setattr(train, "cross_entropy_logits", spy)
    train_fold(_tiny_model(), records, TrainConfig(epochs=1, batch_size=4, lr_drop_epoch=1,
                                                   class_weighting=weighting))
    assert sum(len(labels) for _, labels, _, _ in calls) == counts.sum()
    for z, labels, weights, loss in calls:
        top = z.max(axis=-1)
        nll = top + np.log(np.exp(z - top[:, None]).sum(axis=-1)) - z[np.arange(len(z)), labels]
        if weighting:
            assert np.array_equal(weights, 1.0 / counts[labels])
            assert loss == pytest.approx((weights * nll).sum() / weights.sum(), rel=1e-5)
        else:
            assert weights is None
            assert loss == pytest.approx(nll.mean(), rel=1e-5)


def test_train_fold_rejects_empty():
    with pytest.raises(DataError):
        train_fold(_tiny_model(), [], TrainConfig())


def test_train_fold_reads_only_enabled_branches():
    spec = _tiny_spec(with_pheno=True)
    records = generate_synthetic(spec)
    records[0].phenotype = None
    cfg = TrainConfig(epochs=1, batch_size=32, lr_drop_epoch=1)
    history = train_fold(_tiny_model(), records, cfg)
    assert len(history.loss) == 1
    with pytest.raises(DataError, match="pheno"):
        train_fold(_tiny_model(use_pheno=True, pheno_input_dim=spec.pheno_dim), records, cfg)


def test_history_csv(tmp_path):
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=1,
                                            volumes_per_subject=1))
    history = train_fold(_tiny_model(), records,
                         TrainConfig(epochs=2, batch_size=4, lr_drop_epoch=1))
    path = tmp_path / "curve.csv"
    history.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,loss,train_acc"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# evaluation


def _record_with(volumes, label, sid, site="s"):
    samples = [VolumeSample(np.asarray(v, dtype=np.float32)) for v in volumes]
    return SubjectRecord(sid, site, label, samples)


def test_evaluate_perfect_classifier():
    v0 = np.zeros((2, 2, 2))
    v1 = np.ones((2, 2, 2))
    records = [_record_with([v0, v0], 0, "a"), _record_with([v1, v1], 1, "b")]

    def rule(batch):
        hot = (batch.mean(axis=(1, 2, 3, 4)) > 0.5).astype(int)
        return np.eye(2)[hot]

    report = evaluate(_Stub(rule), records)
    assert report.volume_accuracy == 1.0
    assert report.subject_accuracy == 1.0
    assert np.array_equal(report.confusion, [[2, 0], [0, 2]])
    assert report.precision == [1.0, 1.0] and report.recall == [1.0, 1.0]


def test_evaluate_constant_classifier_on_balanced_data():
    v = np.zeros((2, 2, 2))
    records = [_record_with([v], 0, "a"), _record_with([v], 1, "b")]
    report = evaluate(_Stub(lambda b: np.tile([0.6, 0.4], (len(b), 1))), records)
    assert report.volume_accuracy == 0.5
    assert report.subject_accuracy == 0.5
    assert np.array_equal(report.confusion, [[1, 0], [1, 0]])


def test_evaluate_tie_goes_to_lowest_index_and_is_counted():
    records = [_record_with([np.zeros((2, 2, 2)), np.ones((2, 2, 2))], 0, "a")]

    def rule(batch):
        hot = batch.mean(axis=(1, 2, 3, 4)) > 0.5
        return np.where(hot[:, None], [0.4, 0.6], [0.6, 0.4])

    report = evaluate(_Stub(rule), records)
    assert report.tie_count == 1
    assert report.subject_accuracy == 1.0  # tie resolved to class 0


def test_evaluate_excludes_empty_subject():
    records = [_record_with([np.zeros((2, 2, 2))], 0, "a"),
               SubjectRecord("ghost", "s", 1)]
    report = evaluate(_Stub(lambda b: np.tile([1.0, 0.0], (len(b), 1))), records)
    assert report.excluded_subjects == ["ghost"]
    assert report.subject_count == 1
    assert report.volume_count == 1


def test_evaluate_confusion_rows_and_prf():
    # true 0 subjects: predictions 0,0,1 ; true 1 subjects: 1,1,1
    records = [_record_with([np.full((1, 1, 1), v)], 0, f"a{v}") for v in (0, 1, 2)]
    records += [_record_with([np.full((1, 1, 1), v)], 1, f"b{v}") for v in (3, 4, 5)]

    def rule(batch):
        pred = (batch.reshape(len(batch)) >= 2).astype(int)
        return np.eye(2)[pred]

    report = evaluate(_Stub(rule), records)
    assert np.array_equal(report.confusion, [[2, 1], [0, 3]])
    assert report.confusion.sum(axis=1).tolist() == [3, 3]
    assert report.recall == [pytest.approx(2 / 3), 1.0]
    assert report.precision == [1.0, pytest.approx(3 / 4)]
    assert report.volume_accuracy == pytest.approx(5 / 6)


def test_evaluate_single_volume_subjects_match_volume_level():
    rng = np.random.default_rng(0)
    records = [_record_with([rng.normal(size=(2, 2, 2))], i % 2, f"s{i}")
               for i in range(8)]
    report = evaluate(_Stub(lambda b: np.tile([0.7, 0.3], (len(b), 1))), records)
    assert report.volume_accuracy == report.subject_accuracy


class _Recorder:
    """A model's ``forward_probs``, each batch's rows kept in call order."""

    def __init__(self, model):
        self.cfg, self.model, self.rows = model.cfg, model, []

    def forward_probs(self, volumes, **extras):
        out = self.model.forward_probs(volumes, **extras)
        self.rows.append(out.data)
        return out


def _level_rule(batch):
    """Row by row, so a batch gives what each volume alone gives: class 1
    with each volume's mean level as its probability."""
    level = batch.mean(axis=(1, 2, 3, 4)).astype(np.float64)
    return np.stack([1.0 - level, level], axis=1)


@pytest.mark.parametrize("batch_size", [1, 5, 16])
def test_batched_evaluate_matches_the_per_subject_reference(batch_size):
    """Volumes forwarded in batches across subjects give the per-subject
    loop's report, votes, ties and exclusions, with probabilities within
    1e-5, each case with a subject that has no volumes: a trained model on
    17 volumes (not a multiple of 5 or 16), and a stub on 11 volumes whose
    levels give two exact ties and votes that change if any row goes to the
    wrong subject."""
    records = generate_synthetic(_tiny_spec())
    del records[2].fmri_volumes[0]
    records.append(SubjectRecord("s00c1n999", "site00", 1))
    model = _tiny_model(seed=3)
    train_fold(model, records, TrainConfig(epochs=1, batch_size=6, lr_drop_epoch=1))
    levels = {"a": ([0.25, 0.75], 0), "b": ([0.875], 1), "c": ([0.125, 0.25, 0.75], 1),
              "d": ([], 0), "e": ([0.625, 0.625], 0), "f": ([0.375, 0.625], 1),
              "g": ([0.375], 0)}
    stub_records = [_record_with([np.full((2, 2, 2), v) for v in vs], label, sid)
                    for sid, (vs, label) in levels.items()]
    for case_model, recs in ((model, records), (_Stub(_level_rule), stub_records)):
        got_model, want_model = _Recorder(case_model), _Recorder(case_model)
        report = evaluate(got_model, recs, batch_size=batch_size)
        want, votes = evaluate_reference(want_model, recs)
        assert report.to_dict() == want.to_dict()
        got_p, want_p = np.concatenate(got_model.rows), np.concatenate(want_model.rows)
        assert got_p.shape == want_p.shape and np.abs(got_p - want_p).max() <= 1e-5
        total = len(want_p)
        assert ([len(b) for b in got_model.rows]
                == [min(batch_size, total - s) for s in range(0, total, batch_size)])
        # Each subject labelled with its reference vote: all voted as the reference.
        relabelled = [SubjectRecord(r.subject_id, r.site_id, votes.get(r.subject_id, 0),
                                    r.fmri_volumes) for r in recs]
        assert evaluate(case_model, relabelled, batch_size=batch_size).subject_accuracy == 1.0
    assert votes == {"a": 0, "b": 1, "c": 0, "e": 1, "f": 0, "g": 0}
    assert want.tie_count == 2 and want.excluded_subjects == ["d"]


# ---------------------------------------------------------------------------
# cross-validation


def test_cross_validate_trains_one_model_per_fold():
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=2,
                                            volumes_per_subject=1))
    built = []

    def factory(fold):
        model = _tiny_model(seed=10 + fold)
        built.append(fold)
        return model

    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, lr_drop_epoch=1, seed=0)
    report, results = cross_validate(records, factory, cfg, k=2)
    assert built == [0, 1]
    assert len(report.folds) == 2
    assert all(r.report.subject_count == 2 for r in results)
    assert report.subject_count == 4
    assert report.volume_count == 4


def test_cross_validate_mean_std_population():
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=2,
                                            volumes_per_subject=2))
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, lr_drop_epoch=1, seed=1)
    report, _ = cross_validate(records, lambda f: _tiny_model(seed=f), cfg, k=2)
    accs = [f.volume_accuracy for f in report.folds]
    assert report.volume_accuracy == pytest.approx(np.mean(accs))
    assert report.volume_accuracy_std == pytest.approx(abs(accs[0] - accs[1]) / 2)
    total = sum(f.confusion.sum() for f in report.folds)
    assert report.confusion.sum() == total


def test_cross_validate_no_subject_leak():
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=3,
                                            volumes_per_subject=1))
    from volformer.data import plan_folds

    plan = plan_folds(records, k=3, seed=0)
    for fold in range(3):
        train, test = plan.split(records, fold)
        assert not {r.subject_id for r in train} & {r.subject_id for r in test}


def test_report_json_and_fold_csv(tmp_path):
    records = generate_synthetic(_tiny_spec(subjects_per_class_per_site=2,
                                            volumes_per_subject=1))
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, lr_drop_epoch=1)
    report, _ = cross_validate(records, lambda f: _tiny_model(seed=f), cfg, k=2)
    jpath = tmp_path / "metrics.json"
    report.write_json(jpath)
    import json

    doc = json.loads(jpath.read_text())
    assert {"volume_accuracy", "folds", "confusion"} <= set(doc)
    assert len(doc["folds"]) == 2
    cpath = tmp_path / "folds.csv"
    report.write_fold_csv(cpath)
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 3
    with pytest.raises(ConfigError):
        report.folds[0].write_fold_csv(tmp_path / "x.csv")


def test_fold_report_has_no_aggregate_fields():
    v = np.zeros((2, 2, 2))
    report = evaluate(_Stub(lambda b: np.tile([1.0, 0.0], (len(b), 1))),
                      [_record_with([v], 0, "a")])
    assert report.folds is None
    assert isinstance(report, MetricReport)
