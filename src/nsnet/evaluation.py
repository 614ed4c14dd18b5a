"""Metrics, compute accounting and baseline samplers.

The per-video budget is P_rec * K + P_fem + P_vgm + P_fsm: the heavy
recognizer only runs on the K selected frames, while the embedding cost
covers the lightweight extractor on all T observation frames plus the
encoder. Costs are configuration inputs (a ``name=gflops`` text table),
not measurements; the defaults carry published per-network numbers so the
budget arithmetic is reproducible without any real backbone.

mAP is single-label: per category, videos are ranked by that category's
score and AP averages the precision at each positive's rank; categories
without positives are excluded and reported.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import softmax_values
from .data import PresampleConfig, VideoRecord, atomic_write_text, finite_float, \
    presample_indices, read_key_values
from .fusion import FusionConfig, recognize, select_frames
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


@dataclass
class FlopsBudget:
    recognizer_per_frame: float  # GFLOPs per recognized frame
    frames_recognized: int       # K
    embedding: float             # extractor * T + encoder
    vgm: float
    fsm: float

    def __post_init__(self):
        for name in ("recognizer_per_frame", "embedding", "vgm", "fsm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.frames_recognized < 0:
            raise ValueError("frames_recognized must be >= 0")


def flops_total(budget: FlopsBudget) -> float:
    return (budget.recognizer_per_frame * budget.frames_recognized
            + budget.embedding + budget.vgm + budget.fsm)


def load_cost_table(path: str) -> dict[str, float]:
    """The published table with the entries a ``name=gflops`` file sets."""
    return {**DEFAULT_COST_TABLE,
            **read_key_values(path, dict.fromkeys(DEFAULT_COST_TABLE, finite_float),
                              "cost entry")}


def budget_from_cost_table(costs: dict[str, float], k: int, t: int) -> FlopsBudget:
    return FlopsBudget(
        recognizer_per_frame=costs["recognizer_per_frame"],
        frames_recognized=k,
        embedding=costs["extractor_per_frame"] * t + costs["encoder"],
        vgm=costs["vgm"],
        fsm=costs["fsm"],
    )


# ---------------------------------------------------------------------------
# Ranking metrics
# ---------------------------------------------------------------------------


@dataclass
class MapResult:
    per_class: np.ndarray       # AP per category, nan where no positives
    mean: float
    skipped_classes: list[int] = field(default_factory=list)


def mean_average_precision(scores: np.ndarray, labels: np.ndarray) -> MapResult:
    """Single-label mAP over (V, C) scores; ties keep video order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
        raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
    v, c = scores.shape
    # (C, V): row c marks class c's positives in its descending score order
    hits = (labels[np.argsort(-scores, axis=0, kind="stable")] == np.arange(c)).T
    # the precision at each positive's rank, class by class, in rank order
    precision = (np.cumsum(hits, axis=1) / np.arange(1, v + 1))[hits]
    counts = hits.sum(axis=1)
    starts = np.cumsum(counts) - counts
    per_class = np.full(c, np.nan)
    # each class's precisions are averaged as one contiguous run, as a
    # per-class mean would, so the summation order is the same
    for n in set(counts[counts > 0].tolist()):
        classes = np.flatnonzero(counts == n)
        per_class[classes] = precision[starts[classes, None] + np.arange(n)].mean(axis=1)
    valid = counts > 0
    if not valid.any():
        raise ValueError("no class has a positive video; mAP undefined")
    return MapResult(per_class, float(per_class[valid].mean()),
                     np.flatnonzero(~valid).tolist())


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of videos whose argmax score equals the label."""
    predictions = np.asarray(predictions, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape[0] != labels.shape[0]:
        raise ValueError(f"predictions {predictions.shape} vs labels {labels.shape}")
    return float((predictions.argmax(axis=1) == labels).mean())


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

    @classmethod
    def from_records(cls, records: list[VideoRecord], frames: int) -> ScoredVideos:
        """The records pre-sampled (without shift) to ``frames`` frames each,
        gathered straight into stacked arrays."""
        cfg = PresampleConfig(frames=frames)
        index = [presample_indices(r.num_frames, cfg) for r in records]
        probs = softmax_values(np.stack([r.recognizer_logits[i]
                                         for r, i in zip(records, index)]))
        return cls(
            light=np.stack([r.light_features[i] for r, i in zip(records, index)]),
            probs=probs,
            planted=np.stack([np.zeros(frames, dtype=bool) if r.saliency_mask is None
                              else r.saliency_mask[i] > 0.5 for r, i in zip(records, index)]),
            ranking=np.argsort(-probs.max(axis=2), axis=1, kind="stable"),
            labels=np.array([r.label for r in records]),
            video_ids=[r.video_id for r in records])

    def score(self, selected: np.ndarray) -> tuple[np.ndarray, float | None]:
        """The (V, C) video scores of a selection, and the mean over videos
        of the fraction of planted salient frames it captures. Videos with
        no planted frame are left out; None means none is left."""
        hits = self.planted[np.arange(len(self.planted))[:, None], selected].sum(axis=1)
        planted = self.planted.sum(axis=1)
        counted = planted > 0
        recall = float(np.mean(hits[counted] / planted[counted])) if counted.any() else None
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


def baseline_selection(videos: ScoredVideos, method: str, k: int,
                       seed: int = 0) -> np.ndarray:
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
    return baseline_selection(ScoredVideos.from_records([record], record.num_frames),
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


def run_comparison(records: list[VideoRecord], model: SamplerModel,
                   fusion_cfg: FusionConfig, k_list: list[int],
                   costs: dict[str, float] | None = None,
                   frames: int | None = None,
                   seed: int = 0) -> list[ComparisonRow]:
    """Evaluate the sampler and every baseline at each K.

    The budget charges the recognizer for the frames it actually sees:
    K for the sampler (plus its embedding/head overhead), K for uniform and
    random, and all T frames for dense and confidence top-K (which must
    score every frame before discarding any).
    """
    costs = dict(DEFAULT_COST_TABLE) if costs is None else costs
    t = frames if frames is not None else model.config.max_frames
    for k in k_list:
        if not 1 <= k <= t:
            raise ValueError(f"k={k} out of range for {t} observation frames")
    videos = ScoredVideos.from_records(records, t)
    s_f, s_v = model.saliency(videos.light)

    rows = []
    for k in k_list:
        selections = {
            "nsnet": select_frames(s_f, s_v, FusionConfig(fusion_cfg.mode, fusion_cfg.ratio, k)),
            **{method: baseline_selection(videos, method, k, seed)
               for method in BASELINE_METHODS},
        }
        recognized = {"uniform": k, "random": k, "dense": t, "topk_confidence": t}
        gflops = {"nsnet": flops_total(budget_from_cost_table(costs, k, t)),
                  **{m: costs["recognizer_per_frame"] * n for m, n in recognized.items()}}
        for method, selected in selections.items():
            scores, recall = videos.score(selected)
            rows.append(ComparisonRow(
                method=method,
                k=k,
                top1=top1_accuracy(scores, videos.labels),
                map_score=mean_average_precision(scores, videos.labels).mean,
                recall=recall,
                gflops=gflops[method],
            ))
    return rows


def write_comparison_csv(path: str, rows: list[ComparisonRow]) -> None:
    lines = ["method,K,top1,mAP,recall,gflops"]
    for r in rows:
        recall = "" if r.recall is None else repr(float(r.recall))
        lines.append(f"{r.method},{r.k},{float(r.top1)!r},{float(r.map_score)!r},"
                     f"{recall},{float(r.gflops)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
