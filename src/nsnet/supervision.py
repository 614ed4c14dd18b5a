"""Prototype-based training signal for the frame scrutinize head.

Prototypes are per-category centroids of high-confidence recognizer
features. Each frame's guiding saliency score g in [0, 1] comes from a
softmax over negated Euclidean distances to all prototypes, evaluated at
the video's true category; the per-frame pseudo label puts mass g on the
video category and 1 - g on the appended non-salient category, so clearly
off-topic frames act as negative samples instead of noisy positives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .autodiff import softmax_values
from .data import FeatureBlock, read_feature_file, write_feature_file
from .fusion import rank_descending

DEFAULT_EPSILON_PERCENT = 30.0


@dataclass
class PrototypeBank:
    """Per-category prototype vectors in recognizer (guiding) feature space."""

    prototypes: np.ndarray  # (C, D_g)

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.prototypes.ndim != 2:
            raise ValueError(f"prototypes must be (C, D_g), got {self.prototypes.shape}")
        if not np.all(np.isfinite(self.prototypes)):
            raise ValueError("prototypes contain non-finite values")

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]


def _top_confident_frames(logits: np.ndarray, label: int, epsilon_percent: float) -> np.ndarray:
    """Indices of the frames pooled into a video's guiding feature, from its
    (N, C) recognizer logits.

    Confidence is the softmax probability of the true category. Frames whose
    argmax matches the label form the candidate pool; from it the top
    max(1, ceil(eps% * pool size)) by confidence are kept. A video with no
    correctly predicted frame falls back to ranking all frames.
    """
    conf = softmax_values(logits)[:, label]
    correct = np.flatnonzero(logits.argmax(axis=1) == label)
    pool = correct if correct.size > 0 else np.arange(len(conf))
    keep = max(1, math.ceil(epsilon_percent / 100.0 * pool.size))
    return pool[rank_descending(conf[pool])][:keep]


def build_prototypes(blocks: Iterable[FeatureBlock], num_classes: int,
                     epsilon_percent: float = DEFAULT_EPSILON_PERCENT) -> PrototypeBank:
    """Average the per-video guiding features into per-category prototypes.

    Videos weigh equally within their category. One pass over ``blocks``
    (with "guiding" and "logits") keeps only each video's pooled feature,
    a float64 mean of its float32 rows; accumulation then runs in video_id
    order, so the result is independent of input ordering.
    """
    if not 0 < epsilon_percent <= 100:
        raise ValueError(f"epsilon_percent must be in (0, 100], got {epsilon_percent}")
    pooled: list[tuple[str, int, np.ndarray]] = []
    for block in blocks:
        for video_id, label, guiding, logits in zip(block.video_ids, block.labels,
                                                    block.per_video("guiding"),
                                                    block.per_video("logits")):
            if label >= num_classes:
                raise ValueError(f"{video_id}: label {label} >= C={num_classes}")
            chosen = _top_confident_frames(logits, label, epsilon_percent)
            pooled.append((video_id, label, guiding[chosen].mean(axis=0, dtype=np.float64)))
    sums: dict[int, np.ndarray] = {}
    counts = np.zeros(num_classes, dtype=np.int64)
    for _, label, video_feature in sorted(pooled, key=lambda p: p[0]):
        sums[label] = sums[label] + video_feature if label in sums else video_feature
        counts[label] += 1
    missing = np.flatnonzero(counts == 0)
    if missing.size > 0:
        raise ValueError(f"no videos for categories {missing.tolist()}; "
                         "cannot build prototypes")
    prototypes = np.stack([sums[c] / counts[c] for c in range(num_classes)])
    return PrototypeBank(prototypes)


def guiding_saliency_scores(guiding: np.ndarray, label: int, bank: PrototypeBank) -> np.ndarray:
    """Per-frame guiding saliency g in [0, 1] of a video's (N, D_g) guiding
    features: the softmax over categories of the negated distances to the
    prototypes, taken at ``label``. Negation makes nearer prototypes score
    higher; g is monotone in the distance to the true category's prototype."""
    if guiding.shape[1] != bank.prototypes.shape[1]:
        raise ValueError(f"guiding width {guiding.shape[1]} does not match "
                         f"prototype width {bank.prototypes.shape[1]}")
    if not 0 <= label < bank.num_classes:
        raise ValueError(f"label {label} out of range for {bank.num_classes} categories")
    distances = np.linalg.norm(guiding[:, None, :] - bank.prototypes[None, :, :], axis=2)
    return softmax_values(-distances)[:, label]


def ns_pseudo_label_matrix(g: np.ndarray, label: int | np.ndarray, num_classes: int) -> np.ndarray:
    """(T, C+1) targets: g at the category ``label`` (one for every row, or one per
    row), 1 - g at the non-salient slot; g = 1 gives the hard-label baseline's rows."""
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    if not (g.min() >= -1e-9 and g.max() <= 1.0 + 1e-9):
        raise ValueError(f"guiding scores outside [0, 1]: min {g.min()}, max {g.max()}")
    if (bad := np.extract((label < 0) | (label >= num_classes), label)).size:
        raise ValueError(f"label {bad[0]} out of range for C={num_classes}")
    g = np.clip(g, 0.0, 1.0)
    targets = np.zeros((g.shape[0], num_classes + 1))
    targets[np.arange(g.shape[0]), np.broadcast_to(label, g.shape)] = g
    targets[:, num_classes] = 1.0 - g
    return targets


# ---------------------------------------------------------------------------
# Persistence: a bank is its (C, D_g) NSF1 matrix, nothing beside it
# ---------------------------------------------------------------------------


def save_prototypes(bank: PrototypeBank, path: str) -> None:
    write_feature_file(path, bank.prototypes)


def load_prototypes(path: str) -> PrototypeBank:
    """The bank stored at ``path``; no file beside it is read."""
    prototypes = read_feature_file(path)
    try:
        return PrototypeBank(prototypes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
