"""Metrics, compute accounting and baseline samplers.

The per-video budget is P_rec * K + P_fem + P_vgm + P_fsm: the heavy
recognizer only runs on the K selected frames, while the embedding cost
covers the lightweight extractor on all T observation frames plus the
encoder. Costs are configuration inputs (a ``name=gflops`` text table),
not measurements; the defaults carry published per-network numbers so the
budget arithmetic is reproducible without any real backbone.

mAP is single-label: per category, videos are ranked by that category's
score and AP averages the precision at each positive's rank; categories
without positives are excluded from the mean and reported as NaN in
``per_class``. mAP and top-1 take (..., V, C) scores and score each
(V, C) stack on its own, so one call covers every row of a sweep.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import softmax_values
from .data import SCORED_KINDS, FeatureBlock, PresampleConfig, VideoRecord, finite_float, \
    presample_indices, read_key_values
from .fusion import FusionConfig, rank_descending, recognize, select_frames
from .model import SamplerModel

BASELINE_METHODS = ("uniform", "random", "dense", "topk_confidence")

# Published per-network GFLOPs used as the default budget components.
DEFAULT_COST_TABLE = {
    "recognizer_per_frame": 4.109,
    "extractor_per_frame": 0.320,
    "encoder": 0.315,
    "vgm": 0.004,
    "fsm": 0.002,
}


def sampler_gflops(costs: dict[str, float], k: int, t: int) -> float:
    """The sampler's per-video GFLOPs: K recognized frames, the embedding of
    all T observation frames (extractor * T + encoder) and both heads."""
    return (costs["recognizer_per_frame"] * k
            + (costs["extractor_per_frame"] * t + costs["encoder"])
            + costs["vgm"] + costs["fsm"])


def _gflops(text: str) -> float:
    value = finite_float(text)
    if value < 0:
        raise ValueError(f"must be >= 0, got {text!r}")
    return value


def load_cost_table(path: str | None) -> dict[str, float]:
    """The published table with the entries a ``name=gflops`` file sets
    (none without a file)."""
    if not path:
        return dict(DEFAULT_COST_TABLE)
    return {**DEFAULT_COST_TABLE,
            **read_key_values(path, dict.fromkeys(DEFAULT_COST_TABLE, _gflops), "cost entry")}


# ---------------------------------------------------------------------------
# Ranking metrics
# ---------------------------------------------------------------------------


@dataclass
class MapResult:
    per_class: np.ndarray       # (..., C) AP per category, nan where no positives
    mean: float | np.ndarray    # (...); a float for one (V, C) stack


def mean_average_precision(scores: np.ndarray, labels: np.ndarray) -> MapResult:
    """Single-label mAP of (..., V, C) scores against the (V,) labels, each
    (V, C) stack ranked and rounded on its own; ties keep video order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim < 2 or labels.shape != scores.shape[-2:-1]:
        raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
    *stacks, v, c = scores.shape
    rows = scores.reshape(-1, v, c)
    # (R, C, V): row c marks class c's positives in its descending score order
    hits = (labels[np.argsort(-rows, axis=1, kind="stable")] == np.arange(c)).transpose(0, 2, 1)
    # the precision at each positive's rank, class by class, in rank order;
    # every stack has the same positives, so the same layout
    precision = (np.cumsum(hits, axis=2) / np.arange(1, v + 1))[hits].reshape(len(rows), -1)
    counts = hits[0].sum(axis=1)
    valid = counts > 0
    if not valid.any():
        raise ValueError("no class has a positive video; mAP undefined")
    starts = np.cumsum(counts) - counts
    per_class = np.full((len(rows), c), np.nan)
    # each class's precisions are averaged as one contiguous run, as a
    # per-class mean would, so the summation order is the same
    for n in set(counts[valid].tolist()):
        classes = np.flatnonzero(counts == n)
        # take and compress, unlike a[:, index], lay each row out
        # contiguously, so numpy sums it pairwise as it does a lone row
        per_class[:, classes] = np.take(precision, starts[classes, None] + np.arange(n),
                                        axis=1).mean(axis=2)
    per_class = per_class.reshape(*stacks, c)
    means = np.compress(valid, per_class, axis=-1).mean(axis=-1)
    return MapResult(per_class, means if stacks else float(means))


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Fraction of videos whose argmax score equals the label, for each
    (V, C) stack of (..., V, C) scores: (...), a float for one stack."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.ndim < 2 or labels.shape != predictions.shape[-2:-1]:
        raise ValueError(f"predictions {predictions.shape} vs labels {labels.shape}")
    top1 = (predictions.argmax(axis=-1) == labels).mean(axis=-1)
    return top1 if predictions.ndim > 2 else float(top1)


@dataclass
class ScoredVideos:
    """V videos observed at one frame count T, as the arrays every selection
    is scored against. A selection is a (V, K) frame-index array, or one
    (1, K) row shared by every video."""

    light: np.ndarray      # (V, T, D_l) sampler input features
    probs: np.ndarray      # (V, T, C) recognizer softmax
    planted: np.ndarray    # (V, T) planted salient frames; none without a mask
    ranking: np.ndarray    # (V, T) frames by descending max probability, stable
    labels: np.ndarray     # (V,)
    video_ids: list[str]

    kinds = SCORED_KINDS

    @classmethod
    def gather(cls, block: FeatureBlock, frames: int) -> ScoredVideos:
        """The block's videos pre-sampled (without shift) to ``frames`` frames
        each: one pre-sampling call and one gather per kind; light stays float32."""
        rows = block.starts[:, None] + presample_indices(block.lengths, PresampleConfig(frames))
        probs = softmax_values(block.arrays["logits"][rows])
        return cls(light=block.arrays["light"][rows],
                   probs=probs, planted=block.arrays["mask"][rows] > 0.5,
                   ranking=rank_descending(probs.max(axis=2)),
                   labels=np.array(block.labels), video_ids=block.video_ids)

    def score(self, selected: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """The (..., V, C) video scores of stacked selections (..., V, K),
        and each one's mean over videos of the fraction of planted salient
        frames it captures, (...). Videos with no planted frame are left
        out; None means none is left."""
        hits = self.planted[np.arange(len(self.planted))[:, None], selected].sum(axis=-1)
        planted = self.planted.sum(axis=1)
        counted = planted > 0
        recall = (np.compress(counted, hits, axis=-1) / planted[counted]).mean(axis=-1) \
            if counted.any() else None
        return recognize(self.probs, selected), recall


# ---------------------------------------------------------------------------
# Hand-crafted baseline samplers
# ---------------------------------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)   # SplitMix64's increment


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, elementwise over a uint64 array (wraps)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def baseline_selection(videos: ScoredVideos, method: str, k: int, seed: int) -> np.ndarray:
    """uniform: segment centers; random: seeded K-subset (sorted); dense:
    every frame; topk_confidence: K highest max-softmax recognizer rows.
    uniform and dense return one row shared by every video.

    random keys frame f by h = mix(seed + G), then h = mix((h ^ w) + G)
    for w = crc32(video id), k, f (wrapping uint64; mix: SplitMix64's
    finaliser; G: _GAMMA) and keeps the K smallest keys, ascending. A row's
    keys are distinct (bijective in f) and come from its own video only.
    """
    t = videos.planted.shape[1]
    if method == "dense":
        return np.arange(t)[None]
    if not 1 <= k <= t:
        raise ValueError(f"k={k} out of range for {t} frames")
    if method == "uniform":
        return np.array([[math.floor((i + 0.5) * t / k) for i in range(k)]])
    if method == "random":
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        ids = np.array([zlib.crc32(v.encode()) for v in videos.video_ids], dtype=np.uint64)
        key = _mix(np.array([seed], dtype=np.uint64) + _GAMMA)
        for word in (ids[:, None], np.array([k], dtype=np.uint64), np.arange(t, dtype=np.uint64)):
            key = _mix((key ^ word) + _GAMMA)
        return np.sort(np.argsort(key, axis=1, kind="stable")[:, :k], axis=1)
    if method == "topk_confidence":
        return videos.ranking[:, :k]
    raise ValueError(f"unknown baseline {method!r}; "
                     f"choose one of {', '.join(BASELINE_METHODS)}")


def baseline_sample(record: VideoRecord, method: str, k: int,
                    seed: int = 0) -> list[int]:
    """``baseline_selection`` for one video."""
    return baseline_selection(ScoredVideos.gather(FeatureBlock.of([record]), record.num_frames),
                              method, k, seed)[0].tolist()


# ---------------------------------------------------------------------------
# Method x K comparison sweep
# ---------------------------------------------------------------------------


@dataclass
class ComparisonRow:
    method: str
    k: int
    top1: float
    map_score: float
    recall: float | None
    gflops: float


def run_comparison(videos: ScoredVideos, model: SamplerModel,
                   fusion_cfg: FusionConfig, k_list: list[int],
                   costs: dict[str, float], seed: int) -> list[ComparisonRow]:
    """Evaluate the sampler and every baseline at each K on the gathered videos.

    The budget charges the recognizer for the frames it actually sees:
    K for the sampler (plus its embedding/head overhead), K for uniform and
    random, and all T frames for dense and confidence top-K (which must
    score every frame before discarding any).
    """
    t = videos.planted.shape[1]
    s_f, s_v = model.saliency(videos.light)
    per_k = ("nsnet", "uniform", "random", "topk_confidence")
    # dense sees every frame whatever K is: its row is scored once, first
    scored = [videos.score(baseline_selection(videos, "dense", t, seed)[None])]
    for k in k_list:
        selections = [select_frames(s_f, s_v, FusionConfig(fusion_cfg.mode, fusion_cfg.ratio, k)),
                      *(baseline_selection(videos, method, k, seed) for method in per_k[1:])]
        scored.append(videos.score(np.stack(np.broadcast_arrays(*selections))))
    scores = np.concatenate([s for s, _ in scored])
    recalls = None if scored[0][1] is None else np.concatenate([r for _, r in scored])
    # one top-1 and one mAP pass over every distinct (method, K) row
    top1 = top1_accuracy(scores, videos.labels)
    maps = mean_average_precision(scores, videos.labels).mean

    rows = []
    for i, k in enumerate(k_list):
        # row 0 is dense's, then each K's four rows in ``per_k`` order
        index = dict(zip(per_k, range(1 + 4 * i, 5 + 4 * i)), dense=0)
        recognized = {"uniform": k, "random": k, "dense": t, "topk_confidence": t}
        gflops = {"nsnet": sampler_gflops(costs, k, t),
                  **{m: costs["recognizer_per_frame"] * n for m, n in recognized.items()}}
        for method in ("nsnet", *BASELINE_METHODS):
            row = index[method]
            rows.append(ComparisonRow(
                method=method,
                k=k,
                top1=float(top1[row]),
                map_score=float(maps[row]),
                recall=None if recalls is None else float(recalls[row]),
                gflops=gflops[method],
            ))
    return rows
