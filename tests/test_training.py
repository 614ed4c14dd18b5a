"""Training loop, schedule and determinism tests (desk-scale configs)."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import feature_block

from nsnet import autodiff as ad, training
from nsnet.cli import main
from nsnet.data import BLOCK, KINDS, SCORED_KINDS, DatasetManifest, FeatureBlock, \
    PresampleConfig, generate_synthetic_dataset, load_manifest, presample_indices
from nsnet.evaluation import DEFAULT_COST_TABLE, ScoredVideos, run_comparison
from nsnet.fusion import FusionConfig
from nsnet.model import ModelConfig, SamplerModel, load_checkpoint
from nsnet.supervision import PrototypeBank, build_prototypes, guiding_saliency_scores, \
    ns_pseudo_label_matrix
from nsnet.training import (
    TrainConfig,
    batch_loss,
    gradient_check,
    lr_at_epoch,
    substream,
    train,
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

    @pytest.mark.parametrize("settings, message", [
        (dict(decay_factor=-1.0), "decay_factor must be >= 0, got -1.0"),
        (dict(momentum=1.0), "momentum must be in [0, 1), got 1.0"),
        (dict(base_lr=-1.0), "learning_rate must be >= 0, got -1.0"),
        (dict(frames=0), "frames must be >= 1, got 0"),
        (dict(fusion="score_sum"), "unknown fusion mode 'score_sum'"),
        (dict(ratio=1.5), "ratio must be in [0, 1], got 1.5"),
        (dict(k=0), "k must be >= 1, got 0"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ], ids=["decay-factor", "momentum", "base-lr", "frames", "fusion", "ratio", "k", "seed"])
    def test_each_setting_checked_at_construction(self, settings, message):
        with pytest.raises(ValueError) as excinfo:
            TrainConfig(**settings)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("frames, k", [(1, 1), (7, 1), (16, 4), (18, 4)])
    def test_default_k_is_a_quarter_of_the_frames(self, frames, k):
        cfg = TrainConfig(frames=frames)
        assert cfg.k is None
        assert cfg.validation_k == k

    def test_replace_derives_the_default_k_again(self):
        assert replace(TrainConfig(), frames=2).validation_k == 1
        assert replace(TrainConfig(frames=4), frames=64).validation_k == 16
        assert replace(TrainConfig(k=3), frames=64).validation_k == 3

    def test_zero_decay_factor_is_valid(self):
        cfg = TrainConfig(epochs=4, lr_decay_epochs=(2,), decay_factor=0.0)
        assert [lr_at_epoch(cfg, e) for e in range(4)] == [0.01, 0.01, 0.0, 0.0]


# each check a training run depends on, written so that NaN, which compares
# false with everything, fails it too, and so does infinity where a bound
# has no upper end
@pytest.mark.parametrize("check, message", [
    (lambda out: ns_pseudo_label_matrix(np.array([np.nan, 0.5]), 0, 2),
     "guiding scores outside [0, 1]: min nan, max nan"),
    (lambda out: ad.soft_cross_entropy_rows(
        ad.Tensor(np.zeros((2, 3))), np.array([[np.nan, 0.0, np.nan], [0.5, 0.0, 0.5]])),
     "soft_cross_entropy_rows targets: negative entry nan"),
    (lambda out: ad.SgdState(np.nan, 0.9), "learning_rate must be >= 0, got nan"),
    (lambda out: ad.SgdState(np.inf, 0.9), "learning_rate must be >= 0, got inf"),
    (lambda out: TrainConfig(base_lr=np.nan), "learning_rate must be >= 0, got nan"),
    (lambda out: TrainConfig(base_lr=np.inf), "learning_rate must be >= 0, got inf"),
    (lambda out: TrainConfig(decay_factor=np.nan), "decay_factor must be >= 0, got nan"),
    (lambda out: TrainConfig(decay_factor=np.inf), "decay_factor must be >= 0, got inf"),
    (lambda out: generate_synthetic_dataset(out, 2, 1, 4, 2, 2, 0.5, np.nan, 0, 0),
     "noise_sigma must be >= 0, got nan"),
    (lambda out: generate_synthetic_dataset(out, 2, 1, 4, 2, 2, 0.5, np.inf, 0, 0),
     "noise_sigma must be >= 0, got inf"),
], ids=["pseudo-labels", "soft-targets", "sgd-state", "sgd-state-inf", "base-lr",
        "base-lr-inf", "decay-factor", "decay-factor-inf", "noise-sigma", "noise-sigma-inf"])
def test_nan_fails_each_range_check(check, message, tmp_path):
    out = tmp_path / "data"
    with pytest.raises(ValueError) as excinfo:
        check(str(out))
    assert message in str(excinfo.value)
    assert not out.exists()


def tiny_dataset(tmp_path, seed=1, classes=3, train_videos=4, val_videos=2,
                 frames=6, dim=8):
    train_m, val_m = generate_synthetic_dataset(
        str(tmp_path), num_classes=classes, videos_per_class=train_videos,
        num_frames=frames, light_dim=dim, guiding_dim=dim,
        salient_fraction=0.5, noise_sigma=0.2, seed=seed,
        val_videos_per_class=val_videos)
    return load_manifest(train_m).read(KINDS), gathered(load_manifest(val_m))


def gathered(manifest, frames=4):
    """The manifest's videos gathered as validation sees them, at ``frames`` frames."""
    return ScoredVideos.gather(manifest.read(ScoredVideos.kinds), frames)


def sampler_scores(model, videos, k):
    """The sampler's top-1 and planted-frame recall on gathered videos at
    ``k`` frames: ``run_comparison``'s nsnet row."""
    row = next(row for row in run_comparison(videos, model, FusionConfig(), [k],
                                             DEFAULT_COST_TABLE, 0) if row.method == "nsnet")
    return row.top1, row.recall


def tiny_model_cfg(classes=3, dim=8, frames=4, **overrides):
    base = dict(input_dim=dim, num_classes=classes, max_frames=frames,
                encoder_layers=1, heads=2, dropout_pos_enc=0.1,
                dropout_cls=0.5, dropout_attn=0.1)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_train_cfg(**overrides):
    base = dict(epochs=2, batch_size=4, base_lr=0.05, lr_decay_epochs=(1,),
                decay_factor=0.1, momentum=0.9, seed=7, frames=4, shift_augment=True)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_untouched(self, tmp_path):
        block, _ = tiny_dataset(tmp_path)
        bank = build_prototypes([block], 3)
        cfg = tiny_train_cfg(epochs=1, base_lr=0.0, lr_decay_epochs=())
        result = train([block], bank, tiny_model_cfg(), cfg, out_dir=str(tmp_path / "run"))
        reference = SamplerModel(tiny_model_cfg(), substream(cfg.seed, "init"))
        for (name, p), (_, q) in zip(result.model.params.items(),
                                     reference.params.items()):
            np.testing.assert_array_equal(p.value, q.value, err_msg=name)

    def test_same_seed_same_metrics(self, tmp_path):
        block, val_videos = tiny_dataset(tmp_path)
        bank = build_prototypes([block], 3)
        runs = []
        for _ in range(2):
            result = train([block], bank, tiny_model_cfg(), tiny_train_cfg(k=2),
                           val_videos=val_videos, out_dir=str(tmp_path / "run"))
            runs.append(result.metrics)
        assert runs[0] == runs[1]

    def test_checkpoints_and_metrics_written(self, tmp_path):
        block, val_videos = tiny_dataset(tmp_path / "data")
        bank = build_prototypes([block], 3)
        out = tmp_path / "run"
        result = train([block], bank, tiny_model_cfg(), tiny_train_cfg(k=2),
                       val_videos=val_videos, out_dir=str(out))
        assert (out / "last.nsc1").exists()
        assert (out / "best.nsc1").exists()
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss,loss_f,loss_cls,loss_ns,val_top1,val_recall"
        assert len(lines) == 1 + 2
        assert 0 <= result.best_epoch < 2

    def test_library_run_writes_its_artifacts(self, tmp_path):
        """Without validation too, a library ``train`` leaves both checkpoints
        and the metrics of every epoch in ``out_dir``; best is the lowest loss."""
        block, _ = tiny_dataset(tmp_path / "data")
        out = tmp_path / "run"
        result = train([block], None, tiny_model_cfg(), tiny_train_cfg(),
                       out_dir=str(out))
        assert sorted(p.name for p in out.iterdir()) == \
            ["best.nsc1", "best.nsc1.cfg", "last.nsc1", "last.nsc1.cfg", "metrics.csv"]
        last = load_checkpoint(str(out / "last.nsc1"))
        for name, p in result.model.params.items():   # float32 on disk
            np.testing.assert_array_equal(last.params[name].value, p.value.astype(np.float32))
        lines = (out / "metrics.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
        assert all(line.endswith(",,") for line in lines[1:])   # no val_top1, val_recall
        losses = [m.loss for m in result.metrics]
        assert result.best_epoch == losses.index(min(losses))

    def test_gathered_validation_videos_are_used_as_given(self, tmp_path):
        """Validation scores the videos gathered at the observation length as
        ``run_comparison`` scores the sampler on a fresh gather of them;
        gathered at another length they are refused."""
        block, val_videos = tiny_dataset(tmp_path)
        val_manifest = load_manifest(str(tmp_path / "val.nsm"))
        cfg = tiny_train_cfg(k=2)
        result = train([block], None, tiny_model_cfg(), cfg, val_videos=val_videos, out_dir=str(tmp_path / "run"))
        last = result.metrics[-1]
        assert (last.val_top1, last.val_recall) == \
            sampler_scores(result.model, gathered(val_manifest, cfg.frames), 2)
        with pytest.raises(ValueError, match="observed at 6 frames, not frames=4"):
            train([block], None, tiny_model_cfg(), cfg, val_videos=gathered(val_manifest, 6),
                  out_dir=str(tmp_path / "run"))

    def test_hard_label_baseline_needs_no_bank(self, tmp_path):
        block, _ = tiny_dataset(tmp_path)
        cfg = tiny_train_cfg(epochs=1, lr_decay_epochs=())
        result = train([block], None, tiny_model_cfg(gamma=0.0), cfg, out_dir=str(tmp_path / "run"))
        assert len(result.metrics) == cfg.epochs

    def test_k_above_frames_rejected_before_any_epoch(self):
        with pytest.raises(ValueError, match="k=5 out of range for 4 observation frames"):
            tiny_train_cfg(k=5)

    @pytest.mark.parametrize("fusion_cfg, expected", [
        (None, FusionConfig(k=1)),   # the default k: 4 frames // 4
        (FusionConfig("score_max", 0.3, 3), FusionConfig("score_max", 0.3, 3)),
    ])
    def test_validation_selects_through_the_fusion_config(self, tmp_path, monkeypatch,
                                                          fusion_cfg, expected):
        block, val_videos = tiny_dataset(tmp_path)
        seen, honest = [], training._score_selection

        def score(videos, saliency, cfg):
            seen.append(cfg)
            return honest(videos, saliency, cfg)

        monkeypatch.setattr(training, "_score_selection", score)
        fields = {} if fusion_cfg is None else \
            dict(fusion=fusion_cfg.mode, ratio=fusion_cfg.ratio, k=fusion_cfg.k)
        train([block], None, tiny_model_cfg(), tiny_train_cfg(**fields),
              val_videos=val_videos, out_dir=str(tmp_path / "run"))
        assert seen == [expected] * 2

    # the injected inf makes numpy warn on its way to the loss
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_loss_aborts_with_batch_ids(self, tmp_path):
        block, _ = tiny_dataset(tmp_path)
        bank = build_prototypes([block], 3)
        cfg = tiny_train_cfg(epochs=1, base_lr=1e6, lr_decay_epochs=())
        # poison the data instead of waiting for divergence
        block.arrays["light"][0, 0] = np.inf
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train([block], bank, tiny_model_cfg(), cfg, out_dir=str(tmp_path / "run"))


def break_saliency(monkeypatch, case, epoch, video):
    """Make the ``epoch``-th saliency pass (validation's, the only one in
    ``train``) give NaN frame scores, or attention that sums to 0.5, for the
    ``video``-th video."""
    honest, passes = SamplerModel.saliency, []

    def saliency(self, videos):
        s_f, s_v = honest(self, videos)
        if len(passes) == epoch:
            if case == "nan":
                s_f[video, 1] = np.nan
            else:
                s_v[video] *= 0.5
        passes.append(len(videos))
        return s_f, s_v

    monkeypatch.setattr(SamplerModel, "saliency", saliency)
    return passes


INVARIANT_CASES = [("nan", "non-finite frame saliency at epoch 1 on {video}"),
                   ("sum", "attention invariant violated at epoch 1 on {video}: ")]


class TestSaliencyInvariants:
    """Every epoch, ``train`` checks the (s_f, s_v) of every validation video
    from the pass that validation scores, and names the epoch and video."""

    @pytest.mark.parametrize("case, message", INVARIANT_CASES)
    def test_train_raises(self, tmp_path, monkeypatch, case, message):
        block, val_videos = tiny_dataset(tmp_path)
        passes = break_saliency(monkeypatch, case, epoch=1, video=4)
        with pytest.raises(RuntimeError) as excinfo:
            train([block], build_prototypes([block], 3), tiny_model_cfg(),
                  tiny_train_cfg(k=2), val_videos=val_videos, out_dir=str(tmp_path / "run"))
        assert message.format(video=val_videos.video_ids[4]) in str(excinfo.value)
        assert passes == [len(val_videos.video_ids)] * 2   # no forward besides validation's

    @pytest.mark.parametrize("case, message", INVARIANT_CASES)
    def test_cli_prints_one_error_line(self, tmp_path, monkeypatch, capsys, case, message):
        train_m, val_m = generate_synthetic_dataset(
            str(tmp_path / "data"), num_classes=2, videos_per_class=2, num_frames=4,
            light_dim=4, guiding_dim=4, salient_fraction=0.5, noise_sigma=0.2, seed=1,
            val_videos_per_class=2)
        break_saliency(monkeypatch, case, epoch=1, video=3)
        code = main(["train", "--train-manifest", train_m, "--val-manifest", val_m,
                     "--ns-labels", "false", "--out-dir", str(tmp_path / "run"),
                     "--frames", "4", "--heads", "1", "--encoder-layers", "1",
                     "--epochs", "2", "--lr-decay-epochs", ""])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error: " + message.format(video="val_c001_v0001")), err


class TestPseudoLabelCache:
    def test_gathered_cache_equals_fresh_computation(self, tmp_path):
        block, _ = tiny_dataset(tmp_path, frames=9)
        bank = build_prototypes([block], 3)
        cfg = PresampleConfig(frames=4)
        for seed, (guiding, label) in enumerate(zip(block.per_video("guiding")[:6],
                                                    block.labels)):
            g_full = guiding_saliency_scores(guiding, label, bank)
            indices = presample_indices(len(guiding), cfg, np.random.default_rng(seed))
            cached = ns_pseudo_label_matrix(g_full, label, 3)[indices]
            per_step = ns_pseudo_label_matrix(g_full[indices], label, 3)
            fresh = ns_pseudo_label_matrix(
                guiding_saliency_scores(guiding[indices], label, bank), label, 3)
            assert cached.tobytes() == per_step.tobytes()
            np.testing.assert_allclose(cached, fresh, atol=1e-12)

    @pytest.mark.parametrize("ns_labels", [True, False])
    def test_guiding_scores_once_per_video(self, tmp_path, monkeypatch, ns_labels):
        """A video's g depends only on the frozen prototypes and its
        original frames (all ones for the hard-label baseline): computed
        once per video per run, however many epochs gather from it."""
        block, _ = tiny_dataset(tmp_path)
        computed, honest = [], training.guiding_saliency_scores

        def counted(guiding, label, bank):
            computed.append(len(guiding))
            return honest(guiding, label, bank)

        monkeypatch.setattr(training, "guiding_saliency_scores", counted)
        bank = build_prototypes([block], 3) if ns_labels else None
        cfg = tiny_train_cfg(epochs=3)
        train([block], bank, tiny_model_cfg(), cfg, out_dir=str(tmp_path / "run"))
        assert computed == (block.lengths if ns_labels else [])

    @pytest.mark.parametrize("ns_labels", [True, False])
    def test_batch_targets_are_each_videos_own_rows(self, tmp_path, monkeypatch, ns_labels):
        """Each batch's (B*T, C+1) frame targets are, bit for bit, the rows
        its gathered frames have in their own video's pseudo-label matrix:
        mixed labels in one batch, videos tiled (N < T) and shifted (N > T)."""
        rng = np.random.default_rng(4)
        lengths, labels = [2, 9, 4, 3, 7, 12], [0, 2, 1, 2, 0, 1]
        # light column 0 names each row's video and frame: 100 * video + frame
        light = rng.standard_normal((sum(lengths), 8)).astype(np.float32)
        light[:, 0] = np.concatenate([100 * v + np.arange(n) for v, n in enumerate(lengths)])
        guiding = rng.standard_normal((sum(lengths), 5)).astype(np.float32)
        block = FeatureBlock([f"v{v}" for v in range(len(lengths))], labels, lengths,
                             {"light": light, "guiding": guiding})
        bank = PrototypeBank(rng.standard_normal((3, 5))) if ns_labels else None
        own = [ns_pseudo_label_matrix(
            guiding_saliency_scores(g, label, bank) if ns_labels else np.ones(len(g)), label, 3)
            for g, label in zip(block.per_video("guiding"), labels)]
        batches, honest = [], training.batch_loss

        def recorded(model, features, frame_targets, batch_labels, **kwargs):
            batches.append((features[..., 0].astype(int), frame_targets, list(batch_labels)))
            return honest(model, features, frame_targets, batch_labels, **kwargs)

        monkeypatch.setattr(training, "batch_loss", recorded)
        cfg = tiny_train_cfg(epochs=3, base_lr=0.0, frames=6,
                             batch_size=len(lengths), lr_decay_epochs=())
        train([block], bank, tiny_model_cfg(frames=6), cfg, out_dir=str(tmp_path / "run"))
        picks = []
        for names, targets, batch_labels in batches:
            videos, at = names // 100, names % 100
            assert batch_labels == [labels[v] for v in videos[:, 0]]
            assert len(set(batch_labels)) == 3
            expected = np.concatenate([own[v][f] for v, f in zip(videos[:, 0], at)])
            assert targets.tobytes() == expected.tobytes()
            picks.append({int(v): tuple(f.tolist()) for v, f in zip(videos[:, 0], at)})
        assert all(sorted(set(batch[0])) == [0, 1] for batch in picks)   # N=2 < T=6, tiled
        assert len({batch[5] for batch in picks}) > 1   # N=12 > T=6, shifted

    def test_split_size_does_not_grow_with_classes(self):
        """The split keeps one g per frame, not a (C+1)-wide target row."""
        rng = np.random.default_rng(6)
        lengths = [5, 3, 8]
        block = FeatureBlock(["a", "b", "c"], [0, 1, 0], lengths, {
            "light": rng.standard_normal((16, 4)).astype(np.float32),
            "guiding": rng.standard_normal((16, 2)).astype(np.float32)})
        for ns_labels in (True, False):
            banks = [PrototypeBank(rng.standard_normal((c, 2))) if ns_labels else None
                     for c in (2, 40)]
            sizes = [sum(a.nbytes for a in training._frame_rows([block], bank).arrays.values())
                     for bank in banks]
            assert sizes[0] == sizes[1] == 16 * (4 * 4 + 8)


class BlockTracker:
    """Hands out fresh copies of blocks one at a time and counts how many
    copies, and how many of their arrays, are alive, also at each draw."""

    def __init__(self):
        self.blocks = self.arrays = 0
        self.alive_at_draw: list[tuple[int, int]] = []

    def _gone(self, kind: str) -> None:
        setattr(self, kind, getattr(self, kind) - 1)

    def stream(self, blocks):
        for b in blocks:
            self.alive_at_draw.append((self.blocks, self.arrays))
            arrays = {kind: a.copy() for kind, a in b.arrays.items()}
            copy = FeatureBlock(list(b.video_ids), list(b.labels), list(b.lengths), arrays)
            self.blocks += 1
            self.arrays += len(arrays)
            weakref.finalize(copy, self._gone, "blocks")
            for a in arrays.values():
                weakref.finalize(a, self._gone, "arrays")
            yield copy


def small_blocks(tmp_path, kinds, size=5):
    """The tiny train split as blocks of ``size`` videos (the last shorter)."""
    manifest = load_manifest(str(tmp_path / "train.nsm"))
    return [manifest.read(kinds, manifest.entries[i:i + size])
            for i in range(0, len(manifest.entries), size)]


class TestStreaming:
    """``build_prototypes`` and ``train`` draw each block once, as they
    reach it, and keep neither a block nor any of its arrays (guiding
    features, logits, light rows)."""

    def test_build_prototypes_keeps_no_record(self, tmp_path):
        block, _ = tiny_dataset(tmp_path)
        blocks, tracker = small_blocks(tmp_path, ("guiding", "logits")), BlockTracker()
        bank = build_prototypes(tracker.stream(blocks), 3)
        assert len(tracker.alive_at_draw) == len(blocks) == 3
        # at each draw only the last block drawn, and its two arrays, are alive
        assert all(b <= 1 and a <= 2 for b, a in tracker.alive_at_draw)
        assert tracker.blocks == tracker.arrays == 0
        np.testing.assert_array_equal(bank.prototypes, build_prototypes([block], 3).prototypes)

    @pytest.mark.parametrize("ns_labels", [True, False])
    def test_train_keeps_no_record(self, tmp_path, monkeypatch, ns_labels):
        block, _ = tiny_dataset(tmp_path)
        bank = build_prototypes([block], 3) if ns_labels else None
        blocks = small_blocks(tmp_path, ("light", "guiding") if ns_labels else ("light",))
        tracker, at_first_step, honest = BlockTracker(), [], training.batch_loss

        def counted(model, features, *args, **kwargs):
            if not at_first_step:   # the split's light rows are kept as read, float32
                at_first_step.append((tracker.blocks, tracker.arrays, features.dtype))
            return honest(model, features, *args, **kwargs)

        monkeypatch.setattr(training, "batch_loss", counted)
        cfg = tiny_train_cfg(epochs=1, lr_decay_epochs=())
        streamed = train(tracker.stream(blocks), bank, tiny_model_cfg(), cfg, out_dir=str(tmp_path / "run"))
        assert len(tracker.alive_at_draw) == len(blocks) == 3
        kinds = len(blocks[0].arrays)   # at each draw only the last block drawn is alive
        assert all(b <= 1 and a <= kinds for b, a in tracker.alive_at_draw)
        assert at_first_step == [(0, 0, np.float32)]
        assert streamed.metrics == train([block], bank, tiny_model_cfg(), cfg, out_dir=str(tmp_path / "run")).metrics

    @pytest.mark.parametrize("ns_labels", [True, False])
    def test_train_command_keeps_no_block(self, tmp_path, monkeypatch, capsys, ns_labels):
        """`nsnet train` holds no block of the split once training starts,
        the first one included, which it reads early for the widths."""
        tiny_dataset(tmp_path, train_videos=6)
        tracker, at_first_step = BlockTracker(), []
        honest_blocks, honest_loss = DatasetManifest.blocks, training.batch_loss

        def counted(*args, **kwargs):
            if not at_first_step:
                at_first_step.append((tracker.blocks, tracker.arrays))
            return honest_loss(*args, **kwargs)

        monkeypatch.setattr(DatasetManifest, "blocks",
                            lambda self, kinds: tracker.stream(honest_blocks(self, kinds)))
        monkeypatch.setattr(training, "batch_loss", counted)
        protos = ["--prototypes", str(tmp_path / "protos.nsf")] if ns_labels else []
        if ns_labels:
            assert main(["prototypes", "--manifest", str(tmp_path / "train.nsm"),
                         "--out", protos[1]]) == 0
        tracker.alive_at_draw.clear()
        assert main(["train", "--train-manifest", str(tmp_path / "train.nsm"), *protos,
                     "--ns-labels", str(ns_labels), "--out-dir", str(tmp_path / "run"),
                     "--frames", "4", "--heads", "1", "--encoder-layers", "1",
                     "--epochs", "1", "--lr-decay-epochs", ""]) == 0, capsys.readouterr().err
        assert len(tracker.alive_at_draw) == math.ceil(18 / BLOCK) == 2   # 18 videos
        assert at_first_step == [(0, 0)]

    def test_mixed_lengths_are_order_independent(self, tmp_path):
        """Videos shorter than, equal to and longer than T go through one
        batch path, and the videos' arrival order and blocking change no
        byte."""
        rng = np.random.default_rng(21)
        videos = []
        for i in range(12):
            n = (3, 4, 9)[i % 3]
            videos.append(dict(video_id=f"v{i:02d}", label=i % 3, light=rng.standard_normal((n, 8)),
                               guiding=rng.standard_normal((n, 8)),
                               logits=rng.standard_normal((n, 3)), mask=np.zeros(n)))
        val_videos = ScoredVideos.gather(feature_block(videos[::4], SCORED_KINDS), 4)
        bank = build_prototypes([feature_block(videos, ("guiding", "logits"))], 3)
        shuffled = [videos[i] for i in np.random.default_rng(2).permutation(len(videos))]
        assert [v["video_id"] for v in shuffled] != [v["video_id"] for v in videos]
        artifacts = []
        for name, arrival in (("manifest", videos), ("shuffled", shuffled)):
            out = tmp_path / name
            blocks = [feature_block(arrival[i:i + 5], ("light", "guiding"))
                      for i in range(0, len(arrival), 5)]
            train(blocks, bank, tiny_model_cfg(), tiny_train_cfg(k=2),
                  val_videos=val_videos, out_dir=str(out))
            artifacts.append([(out / f).read_bytes() for f in ("last.nsc1", "metrics.csv")])
        assert artifacts[0] == artifacts[1]

    def test_no_training_videos_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no training videos"):
            train(iter([]), None, tiny_model_cfg(), tiny_train_cfg(), out_dir=str(tmp_path / "run"))


class TestGradientCheckOnModel:
    def test_small_model_passes(self):
        rng = np.random.default_rng(9)
        model = SamplerModel(tiny_model_cfg(classes=2, dim=4, frames=3),
                             np.random.default_rng(3))
        features, targets = [], []
        for label in (0, 1):
            g = rng.random(3)
            features.append(rng.standard_normal((3, 4)))
            targets.append(ns_pseudo_label_matrix(g, label, 2))
        report = gradient_check(model, np.stack(features), np.concatenate(targets), [0, 1],
                                tolerance=1e-5)
        assert report.passed, str(report)


class TestEvaluateEpoch:
    """The sampler's scores on a validation split, as one epoch's validation
    gives them."""

    def _random_videos(self, count, classes, frames, seed):
        rng = np.random.default_rng(seed)
        videos = [dict(video_id=f"v{i}", label=int(rng.integers(classes)),
                       light=rng.standard_normal((frames, 8)),
                       logits=rng.standard_normal((frames, classes)),
                       mask=(rng.random(frames) < 0.5).astype(np.float64))
                  for i in range(count)]
        return ScoredVideos.gather(feature_block(videos), frames)

    def test_untrained_model_is_chance_level(self):
        classes = 4
        videos = self._random_videos(240, classes, 4, seed=12)
        model = SamplerModel(tiny_model_cfg(classes=classes, dim=8, frames=4),
                             np.random.default_rng(0))
        top1, _ = sampler_scores(model, videos, 2)
        assert abs(top1 - 1 / classes) <= 0.05

    def test_k_equals_t_gives_full_recall(self):
        videos = self._random_videos(10, 3, 4, seed=13)
        model = SamplerModel(tiny_model_cfg(classes=3, dim=8, frames=4),
                             np.random.default_rng(1))
        _, recall = sampler_scores(model, videos, 4)
        assert recall == 1.0

    def test_batch_loss_rejects_empty(self):
        model = SamplerModel(tiny_model_cfg(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            batch_loss(model, np.zeros((0, 4, 8)), np.zeros((0, 4)), [])


def test_benchmark_loss_strictly_decreases_early(bench_ns_run):
    losses = [m.loss for m in bench_ns_run["result"].metrics[:6]]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_metrics_csv_round_trip(tmp_path):
    from dataclasses import astuple, fields

    from nsnet.data import write_csv
    from nsnet.training import EpochMetrics
    rows = [EpochMetrics(0, 0.01, 1.5, 1.0, 0.4, 0.1, 0.25, None),
            EpochMetrics(1, 0.01, 1.2, 0.8, 0.3, 0.1, None, None)]
    path = tmp_path / "m.csv"
    write_csv(str(path), [f.name for f in fields(EpochMetrics)], map(astuple, rows))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,loss,loss_f,loss_cls,loss_ns,val_top1,val_recall"
    assert lines[1] == "0,0.01,1.5,1.0,0.4,0.1,0.25,"
    assert lines[2] == "1,0.01,1.2,0.8,0.3,0.1,,"
