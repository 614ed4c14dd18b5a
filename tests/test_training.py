"""Training loop, schedule and determinism tests (desk-scale configs)."""

import numpy as np
import pytest

from nsnet.data import PresampleConfig, VideoRecord, generate_synthetic_dataset, \
    load_manifest, presample, presample_indices
from nsnet.fusion import FusionConfig
from nsnet.model import ModelConfig, SamplerModel
from nsnet.supervision import build_prototypes, guiding_saliency_scores, \
    ns_pseudo_label_matrix
from nsnet.training import (
    TrainConfig,
    TrainExample,
    batch_loss,
    evaluate_epoch,
    gradient_check,
    lr_at_epoch,
    substream,
    train,
    write_metrics_csv,
)


class TestLrSchedule:
    def test_paper_recipe_values(self):
        cfg = TrainConfig(epochs=120, lr_decay_epochs=(50, 75))
        assert lr_at_epoch(cfg, 0) == 0.01
        assert lr_at_epoch(cfg, 49) == 0.01
        np.testing.assert_allclose(lr_at_epoch(cfg, 50), 0.001)
        np.testing.assert_allclose(lr_at_epoch(cfg, 74), 0.001)
        np.testing.assert_allclose(lr_at_epoch(cfg, 75), 0.0001)
        np.testing.assert_allclose(lr_at_epoch(cfg, 119), 0.0001)

    def test_nonincreasing_with_expected_drop_count(self):
        cfg = TrainConfig(epochs=40, lr_decay_epochs=(10, 20, 30))
        rates = [lr_at_epoch(cfg, e) for e in range(40)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))
        assert len(set(rates)) == len(cfg.lr_decay_epochs) + 1

    def test_epoch_out_of_range(self):
        cfg = TrainConfig(epochs=10, lr_decay_epochs=(5,))
        with pytest.raises(ValueError, match="out of range"):
            lr_at_epoch(cfg, 10)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TrainConfig(epochs=100, lr_decay_epochs=(50, 50))
        with pytest.raises(ValueError, match="lie in"):
            TrainConfig(epochs=40, lr_decay_epochs=(50,))


def tiny_dataset(tmp_path, seed=1, classes=3, train_videos=4, val_videos=2,
                 frames=6, dim=8):
    train_m, val_m = generate_synthetic_dataset(
        str(tmp_path), num_classes=classes, videos_per_class=train_videos,
        num_frames=frames, light_dim=dim, guiding_dim=dim,
        salient_fraction=0.5, noise_sigma=0.2, seed=seed,
        val_videos_per_class=val_videos)
    train_records = load_manifest(train_m).load_all()
    val_records = load_manifest(val_m).load_all()
    return train_records, val_records


def tiny_model_cfg(classes=3, dim=8, frames=4, **overrides):
    base = dict(input_dim=dim, num_classes=classes, max_frames=frames,
                encoder_layers=1, heads=2, dropout_pos_enc=0.1,
                dropout_cls=0.5, dropout_attn=0.1)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_train_cfg(**overrides):
    base = dict(epochs=2, batch_size=4, base_lr=0.05, lr_decay_epochs=(1,),
                decay_factor=0.1, momentum=0.9, seed=7,
                presample=PresampleConfig(frames=4, shift_augment=True))
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_untouched(self, tmp_path):
        train_records, _ = tiny_dataset(tmp_path)
        bank = build_prototypes(train_records, 3)
        cfg = tiny_train_cfg(epochs=1, base_lr=0.0, lr_decay_epochs=())
        result = train(train_records, 3, bank, tiny_model_cfg(), cfg)
        reference = SamplerModel(tiny_model_cfg(), substream(cfg.seed, "init"))
        for (name, p), (_, q) in zip(result.model.named_parameters(),
                                     reference.named_parameters()):
            np.testing.assert_array_equal(p.value, q.value, err_msg=name)

    def test_same_seed_same_metrics(self, tmp_path):
        train_records, val_records = tiny_dataset(tmp_path)
        bank = build_prototypes(train_records, 3)
        runs = []
        for _ in range(2):
            result = train(train_records, 3, bank, tiny_model_cfg(),
                           tiny_train_cfg(), val_records=val_records, eval_k=2)
            runs.append([m.csv_row() for m in result.metrics])
        assert runs[0] == runs[1]

    def test_checkpoints_and_metrics_written(self, tmp_path):
        train_records, val_records = tiny_dataset(tmp_path / "data")
        bank = build_prototypes(train_records, 3)
        out = tmp_path / "run"
        result = train(train_records, 3, bank, tiny_model_cfg(), tiny_train_cfg(),
                       val_records=val_records, eval_k=2, out_dir=str(out))
        assert (out / "last.nsc1").exists()
        assert (out / "best.nsc1").exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss,loss_f,loss_cls,loss_ns,val_top1,val_recall"
        assert len(lines) == 1 + 2
        assert 0 <= result.best_epoch < 2

    def test_hard_label_baseline_needs_no_bank(self, tmp_path):
        train_records, _ = tiny_dataset(tmp_path)
        cfg = tiny_train_cfg(ns_labels=False, epochs=1, lr_decay_epochs=())
        result = train(train_records, 3, None, tiny_model_cfg(gamma=0.0), cfg)
        assert len(result.metrics) == cfg.epochs

    def test_ns_labels_require_bank(self, tmp_path):
        train_records, _ = tiny_dataset(tmp_path)
        with pytest.raises(ValueError, match="prototype bank"):
            train(train_records, 3, None, tiny_model_cfg(), tiny_train_cfg())

    # the injected inf makes numpy warn on its way to the loss
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_loss_aborts_with_batch_ids(self, tmp_path):
        train_records, _ = tiny_dataset(tmp_path)
        bank = build_prototypes(train_records, 3)
        cfg = tiny_train_cfg(epochs=1, base_lr=1e6, lr_decay_epochs=())
        # poison the data instead of waiting for divergence
        train_records[0].light_features[0, 0] = np.inf
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train(train_records, 3, bank, tiny_model_cfg(), cfg)


class TestPseudoLabelCache:
    def test_gathered_cache_equals_fresh_computation(self, tmp_path):
        train_records, _ = tiny_dataset(tmp_path, frames=9)
        bank = build_prototypes(train_records, 3)
        cfg = PresampleConfig(frames=4, shift_augment=True)
        for seed, record in enumerate(train_records[:6]):
            g_full = guiding_saliency_scores(record, bank)
            indices = presample_indices(record.num_frames, cfg, np.random.default_rng(seed))
            observed = presample(record, cfg, np.random.default_rng(seed))
            cached = ns_pseudo_label_matrix(g_full[indices], record.label, 3)
            fresh = ns_pseudo_label_matrix(
                guiding_saliency_scores(observed, bank), record.label, 3)
            np.testing.assert_allclose(cached, fresh, atol=1e-12)


class TestGradientCheckOnModel:
    def test_small_model_passes(self):
        rng = np.random.default_rng(9)
        model = SamplerModel(tiny_model_cfg(classes=2, dim=4, frames=3),
                             np.random.default_rng(3))
        batch = []
        for label in (0, 1):
            g = rng.random(3)
            batch.append(TrainExample(rng.standard_normal((3, 4)),
                                      ns_pseudo_label_matrix(g, label, 2),
                                      label, f"v{label}"))
        report = gradient_check(model, batch, tolerance=1e-5)
        assert report.passed, str(report)


class TestEvaluateEpoch:
    def _random_records(self, count, classes, frames, seed):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(count):
            records.append(VideoRecord(
                f"v{i}", int(rng.integers(classes)),
                rng.standard_normal((frames, 8)),
                rng.standard_normal((frames, 8)),
                rng.standard_normal((frames, classes)),
                (rng.random(frames) < 0.5).astype(np.float64)))
        return records

    def test_untrained_model_is_chance_level(self):
        classes = 4
        records = self._random_records(240, classes, 4, seed=12)
        model = SamplerModel(tiny_model_cfg(classes=classes, dim=8, frames=4),
                             np.random.default_rng(0))
        top1, _ = evaluate_epoch(model, records, k=2, frames=4)
        assert abs(top1 - 1 / classes) <= 0.05

    def test_k_equals_t_gives_full_recall(self):
        records = self._random_records(10, 3, 4, seed=13)
        model = SamplerModel(tiny_model_cfg(classes=3, dim=8, frames=4),
                             np.random.default_rng(1))
        _, recall = evaluate_epoch(model, records, k=4, frames=4)
        assert recall == 1.0

    def test_batch_loss_rejects_empty(self):
        model = SamplerModel(tiny_model_cfg(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            batch_loss(model, [])


def test_benchmark_loss_strictly_decreases_early(bench_ns_run):
    losses = [m.loss for m in bench_ns_run["result"].metrics[:6]]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_metrics_csv_round_trip(tmp_path):
    from nsnet.training import EpochMetrics
    rows = [EpochMetrics(0, 0.01, 1.5, 1.0, 0.4, 0.1, 0.25, None),
            EpochMetrics(1, 0.01, 1.2, 0.8, 0.3, 0.1, None, None)]
    path = tmp_path / "m.csv"
    write_metrics_csv(str(path), rows)
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "0,0.01,1.5,1.0,0.4,0.1,0.25,"
    assert lines[2] == "1,0.01,1.2,0.8,0.3,0.1,,"
