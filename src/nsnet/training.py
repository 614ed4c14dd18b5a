"""Deterministic training loop for the sampler.

All randomness flows from one seed through named substreams (init,
shuffle, augment, dropout), so (seed, config, data) fixes the entire
trajectory bit-exactly. Guiding scores depend only on the frozen
prototypes and the recognizer features of the original frames, so each
video's guiding saliency g (ones without a bank) is computed once, as
its block is drawn. The split keeps only two flat per-frame arrays, the float32
light rows and g, never a block, guiding features, logits, masks or targets; a
batch is one pre-sampling call over its videos' frame counts, one gather of
rows (cast to float64 by the forward) and its (B*T, C+1) targets from its g.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import astuple, dataclass, fields, replace
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .data import FeatureBlock, PresampleConfig, VideoRecord, presample_indices, write_csv
from .evaluation import ScoredVideos, top1_accuracy
from .fusion import FusionConfig, select_frames
from .model import LossBreakdown, ModelConfig, SamplerModel, save_checkpoint, total_loss
from .supervision import PrototypeBank, guiding_saliency_scores, ns_pseudo_label_matrix


def substream(seed: int, name: str) -> np.random.Generator:
    """A named child generator; crc32 keeps the mapping stable everywhere."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


@dataclass
class TrainConfig:
    epochs: int = 120
    batch_size: int = 64
    base_lr: float = 0.01
    lr_decay_epochs: tuple[int, ...] = (50, 75)
    decay_factor: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    frames: int = 16           # observation length of every video
    shift_augment: bool = True
    fusion: str = FusionConfig.mode    # validation selects through
    ratio: float = FusionConfig.ratio  # FusionConfig(fusion, ratio, k);
    k: int | None = None               # None: frames // 4, at least 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        decays = tuple(self.lr_decay_epochs)
        if any(b <= a for a, b in zip(decays, decays[1:])):
            raise ValueError(f"lr_decay_epochs must be strictly increasing: {decays}")
        if any(not 0 <= e < self.epochs for e in decays):
            raise ValueError(
                f"lr_decay_epochs {decays} must lie in [0, {self.epochs})")
        if not (np.isfinite(self.decay_factor) and self.decay_factor >= 0):
            raise ValueError(f"decay_factor must be >= 0, got {self.decay_factor}")
        self.lr_decay_epochs = decays
        # the rules of the seed, optimizer, observation and validation train() builds
        substream(self.seed, "init")
        ad.SgdState(self.base_lr, self.momentum)
        PresampleConfig(self.frames)
        k = self.validation_k
        FusionConfig(self.fusion, self.ratio, k)
        if k > self.frames:
            raise ValueError(f"k={k} out of range for {self.frames} observation frames")

    @property
    def validation_k(self) -> int:
        """The frames validation selects: ``k``, or frames // 4, at least 1."""
        return max(1, self.frames // 4) if self.k is None else self.k


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Piecewise-constant schedule: one decay step at each listed epoch."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} out of range [0, {cfg.epochs})")
    drops = sum(1 for e in cfg.lr_decay_epochs if e <= epoch)
    return cfg.base_lr * cfg.decay_factor ** drops


def batch_loss(model: SamplerModel, features: np.ndarray, frame_targets: np.ndarray,
               labels: list[int], train: bool = False,
               rng: np.random.Generator | None = None) -> LossBreakdown:
    """Mean over the batch of the per-video total loss (frame loss summed
    over frames, video losses per head), from one forward over the
    ``(B, T, D)`` features; ``frame_targets`` holds their ``(B*T, C+1)``
    rows, video by video."""
    if len(labels) == 0:
        raise ValueError("empty batch")
    out = model.forward(features, train=train, rng=rng)
    return total_loss(out, frame_targets, labels, model.config)


def gradient_check(model: SamplerModel, features: np.ndarray, frame_targets: np.ndarray,
                   labels: list[int], **check) -> ad.GradientCheckReport:
    """Full-model finite-difference check on the training loss (dropout off)."""
    return ad.finite_difference_check(
        model.params.values(), lambda: batch_loss(model, features, frame_targets, labels).total,
        **check)


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    loss: float
    loss_f: float
    loss_cls: float
    loss_ns: float
    val_top1: float | None = None
    val_recall: float | None = None


def _frame_rows(blocks: Iterable[FeatureBlock], bank: PrototypeBank | None) -> FeatureBlock:
    """A training split as a block of two per-frame kinds, float32 "light"
    rows and float64 guiding saliency "g" (ones without a bank), built in
    one pass: each video's g is computed as its block is drawn."""
    ids, labels, light, scores = [], [], [], []
    for block in blocks:
        scores += [guiding_saliency_scores(guiding, label, bank) for guiding, label
                   in zip(block.per_video("guiding"), block.labels)] if bank is not None \
            else map(np.ones, block.lengths)
        light.append(block.arrays["light"].copy())   # a copy: no block array is kept
        ids += block.video_ids
        labels += block.labels
    if not ids:
        raise ValueError("no training videos")
    return FeatureBlock(ids, labels, [len(g) for g in scores],
                        {"light": np.concatenate(light), "g": np.concatenate(scores)})


@dataclass
class TrainResult:
    model: SamplerModel
    metrics: list[EpochMetrics]
    best_epoch: int


def evaluate_epoch(model: SamplerModel, records: Iterable[VideoRecord], k: int,
                   fusion_cfg: FusionConfig, frames: int) -> tuple[float, float | None]:
    """Top-1 through the full selection path at ``k`` frames of ``frames``,
    plus mean recall of planted salient frames when masks exist."""
    videos = ScoredVideos.gather(FeatureBlock.of(records), frames)
    return _score_selection(videos, model.saliency(videos.light), replace(fusion_cfg, k=k))


def _score_selection(videos: ScoredVideos, saliency: tuple[np.ndarray, np.ndarray],
                     fusion_cfg: FusionConfig) -> tuple[float, float | None]:
    """``evaluate_epoch`` on gathered videos and their ``(s_f, s_v)``."""
    scores, recall = videos.score(select_frames(*saliency, fusion_cfg))
    return top1_accuracy(scores, videos.labels), None if recall is None else float(recall)


def _check_saliency(s_f: np.ndarray, s_v: np.ndarray, ids: list[str], epoch: int) -> None:
    """Each video's attention must stay a distribution (entries in [0, 1]
    summing to 1 within 1e-9) and its frame scores finite as parameters move."""
    sums = s_v.sum(axis=1)
    valid = (s_v >= 0.0).all(axis=1) & (s_v <= 1.0).all(axis=1) & (np.abs(sums - 1.0) <= 1e-9)
    if not valid.all():
        v = int(np.argmin(valid))
        raise RuntimeError(
            f"attention invariant violated at epoch {epoch} on {ids[v]}: "
            f"min {s_v[v].min()}, max {s_v[v].max()}, sum {sums[v]}")
    finite = np.isfinite(s_f).all(axis=1)
    if not finite.all():
        raise RuntimeError(f"non-finite frame saliency at epoch {epoch} on "
                           f"{ids[int(np.argmin(finite))]}")


def train(train_blocks: Iterable[FeatureBlock],
          bank: PrototypeBank | None,
          model_cfg: ModelConfig,
          train_cfg: TrainConfig,
          out_dir: str,
          val_videos: ScoredVideos | None = None) -> TrainResult:
    """Run the full schedule, writing under ``out_dir`` ``last.nsc1`` and
    ``metrics.csv`` each epoch and ``best.nsc1`` at each new best validation
    top-1 (without validation, mean loss).

    The frame head learns pseudo labels from ``bank``, or the video labels
    without one (the hard-label baseline). The model's positional capacity
    must be the observation length, so a checkpoint carries it to ``eval``
    and ``sample``. ``train_blocks`` hold "light" (and "guiding" with a
    bank); the settings are checked before the first block is drawn.
    Validation videos are gathered at the observation length.
    """
    if model_cfg.max_frames != train_cfg.frames:
        raise ValueError(f"positional capacity max_frames={model_cfg.max_frames} is not "
                         f"the observation length frames={train_cfg.frames}")
    observe = PresampleConfig(train_cfg.frames)
    validation = FusionConfig(train_cfg.fusion, train_cfg.ratio, train_cfg.validation_k)
    split = _frame_rows(train_blocks, bank)
    starts, lengths, labels = split.starts, np.array(split.lengths), np.array(split.labels)
    light, g = split.arrays["light"], split.arrays["g"]
    # batches draw from the videos in video_id order, whatever order they came in
    by_id = np.array(sorted(range(len(split.video_ids)), key=split.video_ids.__getitem__))
    init_rng = substream(train_cfg.seed, "init")
    shuffle_rng = substream(train_cfg.seed, "shuffle")
    augment_rng = substream(train_cfg.seed, "augment") if train_cfg.shift_augment else None
    dropout_rng = substream(train_cfg.seed, "dropout")
    model = SamplerModel(model_cfg, init_rng)
    optimizer = ad.SgdState(learning_rate=train_cfg.base_lr,
                            momentum=train_cfg.momentum)

    if val_videos is not None and val_videos.planted.shape[1] != train_cfg.frames:
        raise ValueError(f"validation videos are observed at {val_videos.planted.shape[1]} "
                         f"frames, not frames={train_cfg.frames}")
    os.makedirs(out_dir, exist_ok=True)

    metrics: list[EpochMetrics] = []
    best_epoch, best_top1 = 0, -np.inf
    for epoch in range(train_cfg.epochs):
        optimizer.learning_rate = lr_at_epoch(train_cfg, epoch)
        order = by_id[shuffle_rng.permutation(len(by_id))]
        sums = np.zeros(4)
        seen = 0
        for start in range(0, len(order), train_cfg.batch_size):
            videos = order[start:start + train_cfg.batch_size]
            # one pre-sampling call and one gather of rows for the batch
            rows = starts[videos, None] + presample_indices(lengths[videos], observe, augment_rng)
            parts = batch_loss(model, light[rows], ns_pseudo_label_matrix(
                g[rows], np.repeat(labels[videos], observe.frames), model_cfg.num_classes),
                labels[videos].tolist(), train=True, rng=dropout_rng)
            values = np.array([float(parts.total.value), float(parts.frame.value),
                               float(parts.video_cls.value), float(parts.video_ns.value)])
            if not np.all(np.isfinite(values)):
                raise RuntimeError(
                    f"non-finite loss {values[0]!r} at epoch {epoch}, batch of "
                    f"videos {[split.video_ids[v] for v in videos]}")
            ad.backward(parts.total)
            ad.sgd_step(model.params.values(), optimizer)
            sums += values * len(videos)
            seen += len(videos)
        means = [float(x) for x in sums / seen]
        val_top1 = val_recall = None
        if val_videos is not None:
            saliency = model.saliency(val_videos.light)
            _check_saliency(*saliency, val_videos.video_ids, epoch)
            val_top1, val_recall = _score_selection(val_videos, saliency, validation)
        metrics.append(EpochMetrics(epoch, optimizer.learning_rate, *means,
                                    val_top1, val_recall))
        save_checkpoint(model, os.path.join(out_dir, "last.nsc1"))
        criterion = val_top1 if val_top1 is not None else -float(means[0])
        if criterion > best_top1:
            best_top1, best_epoch = criterion, epoch
            save_checkpoint(model, os.path.join(out_dir, "best.nsc1"))
        write_csv(os.path.join(out_dir, "metrics.csv"),
                  [f.name for f in fields(EpochMetrics)], map(astuple, metrics))
    return TrainResult(model, metrics, best_epoch)
