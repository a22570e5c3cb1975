"""Optimizer math, schedule, training loop behavior, metrics, k-fold harness."""

from types import SimpleNamespace

import numpy as np
import pytest

from volformer.data import SubjectRecord, SyntheticSpec, VolumeSample, generate_synthetic
from volformer.errors import ConfigError, DataError
from volformer.model import BrainFormer, ModelConfig
from volformer.tensor import Tensor
from volformer.train import (Adam, MetricReport, TrainConfig, adam_init, adam_step,
                             cross_validate, evaluate, lr_at, train_fold)

from oracles import adam_trajectory


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
        self.cfg = SimpleNamespace(class_count=class_count)
        self._fn = prob_fn
        self._w = Tensor(np.zeros(1, dtype=np.float32))

    def params(self):
        return [("w", self._w)]

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


def test_adam_first_step_closed_form():
    cfg = TrainConfig()
    p = np.zeros(5, dtype=np.float64)
    state = adam_init([p])
    adam_step([p], [np.ones(5)], state, t=1, cfg=cfg)
    expected = -cfg.lr / (1.0 + cfg.eps)
    assert np.abs(p - expected).max() < 1e-12


def test_adam_matches_reference_trajectory():
    rng = np.random.default_rng(2)
    p0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(6)]
    cfg = TrainConfig(lr=1e-3)
    p = p0.copy()
    state = adam_init([p])
    for t, g in enumerate(grads, start=1):
        adam_step([p], [g], state, t, cfg)
    expected = adam_trajectory(p0, grads, lr=1e-3)[-1]
    assert np.abs(p - expected).max() < 1e-10


def test_adam_zero_gradient_keeps_parameters():
    p = np.full(4, 3.0)
    state = adam_init([p])
    adam_step([p], [np.zeros(4)], state, t=1, cfg=TrainConfig())
    assert np.array_equal(p, np.full(4, 3.0))


def test_adam_nonfinite_gradient_aborts_without_mutation():
    p = np.array([1.0, 2.0])
    state = adam_init([p])
    adam_step([p], [np.array([0.5, -0.5])], state, 1, TrainConfig())
    p_snap = p.copy()
    m_snap = state[0][0].copy()
    bad = np.array([1.0, np.nan])
    with pytest.raises(ArithmeticError):
        adam_step([p], [bad], state, 2, TrainConfig())
    assert np.array_equal(p, p_snap)
    assert np.array_equal(state[0][0], m_snap)


def test_adam_deterministic_trajectories():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=3) for _ in range(4)]
    outs = []
    for _ in range(2):
        p = np.zeros(3)
        state = adam_init([p])
        for t, g in enumerate(grads, 1):
            adam_step([p], [g], state, t, TrainConfig())
        outs.append(p.copy())
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


def test_train_fold_rejects_empty():
    with pytest.raises(DataError):
        train_fold(_tiny_model(), [], TrainConfig())


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
    samples = [VolumeSample(sid, site, label, "fmri",
                            np.asarray(v, dtype=np.float32)) for v in volumes]
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
