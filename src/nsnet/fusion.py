"""Combining the two saliency granularities and picking the K frames.

Score fusion operates on values (convex addition with ratio alpha,
elementwise product, elementwise max); index fusion operates on the two
descending rank lists pi_f (frame head) and pi_v (glimpse head):

* intersect: top-K of both lists intersected, then expanded with elements
  taken alternately from the two lists' tails (frame head first) until K;
* union: top-ceil(K*alpha) of pi_f united with top-ceil(K*(1-alpha)) of
  pi_v; short unions are extended from pi_f, overshoot drops the
  lowest-ranked glimpse-side contributions;
* join: both score lists concatenated into 2T entries and scanned in
  descending order, collecting distinct frames until K.

Tie rules, everywhere: higher score first, then lower frame index; in the
join scan the frame-head copy precedes the glimpse copy. Selections are
returned in a deterministic order (documented per function) so dumps and
checkpoint-independent comparisons are stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import softmax_values
from .data import VideoRecord

SCORE_MODES = ("score_add", "score_mul", "score_max")
INDEX_MODES = ("index_union", "index_intersect", "index_join")
FUSION_MODES = SCORE_MODES + INDEX_MODES


@dataclass
class FusionConfig:
    mode: str = "index_union"
    ratio: float = 0.6          # used by score_add and index_union
    k: int = 1

    def __post_init__(self):
        if self.mode not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode {self.mode!r}; "
                             f"choose one of {', '.join(FUSION_MODES)}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {self.ratio}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class SaliencyProfile:
    """Both score tracks plus the final selection for one video."""

    s_f: np.ndarray
    s_v: np.ndarray
    selected: list[int]
    fused_scores: np.ndarray | None = None


def rank_descending(scores: np.ndarray) -> np.ndarray:
    """Frame indices by descending score; ties broken by lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    return np.argsort(-scores, kind="stable")


def select_topk(scores: np.ndarray, k: int) -> list[int]:
    scores = np.asarray(scores, dtype=np.float64)
    if not 1 <= k <= scores.shape[0]:
        raise ValueError(f"k={k} out of range for {scores.shape[0]} frames")
    return rank_descending(scores)[:k].tolist()


def fuse_scores(s_f: np.ndarray, s_v: np.ndarray, mode: str,
                ratio: float = 0.6) -> np.ndarray:
    s_f = np.asarray(s_f, dtype=np.float64)
    s_v = np.asarray(s_v, dtype=np.float64)
    if s_f.shape != s_v.shape:
        raise ValueError(f"score lengths differ: {s_f.shape} vs {s_v.shape}")
    if mode == "score_add":
        return ratio * s_f + (1.0 - ratio) * s_v
    if mode == "score_mul":
        return s_f * s_v
    if mode == "score_max":
        return np.maximum(s_f, s_v)
    raise ValueError(f"unknown score fusion mode {mode!r}")


def _check_index_args(s_f, s_v, k):
    s_f = np.asarray(s_f, dtype=np.float64)
    s_v = np.asarray(s_v, dtype=np.float64)
    if s_f.shape != s_v.shape:
        raise ValueError(f"score lengths differ: {s_f.shape} vs {s_v.shape}")
    t = s_f.shape[0]
    if not 1 <= k <= t:
        raise ValueError(f"k={k} out of range for {t} frames")
    return s_f, s_v, t


def fuse_index_intersect(s_f: np.ndarray, s_v: np.ndarray, k: int) -> list[int]:
    """Intersection of the two top-K sets; expansion alternates between the
    list tails (positions K+1 onward), frame head first, skipping frames
    already chosen. Result order: intersection members by frame-head rank,
    then expansion insertions."""
    s_f, s_v, _ = _check_index_args(s_f, s_v, k)
    pi_f, pi_v = rank_descending(s_f).tolist(), rank_descending(s_v).tolist()
    chosen = [i for i in pi_f[:k] if i in pi_v[:k]]
    tails = [iter(pi_f[k:]), iter(pi_v[k:])]   # every frame not chosen is in one
    for tail in itertools.cycle(tails):
        if len(chosen) == k:
            return chosen
        frame = next((i for i in tail if i not in chosen), None)
        if frame is not None:
            chosen.append(frame)


def fuse_index_union(s_f: np.ndarray, s_v: np.ndarray, k: int,
                     ratio: float = 0.6) -> list[int]:
    """Union of the top-ceil(K*ratio) frame-head and top-ceil(K*(1-ratio))
    glimpse picks. Short unions extend from the frame-head list; overshoot
    drops glimpse-side-only contributions from the bottom of their ranking.
    Result order: frame-head picks by rank, surviving glimpse-only picks by
    rank, then extensions."""
    s_f, s_v, _ = _check_index_args(s_f, s_v, k)
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    pi_f, pi_v = rank_descending(s_f).tolist(), rank_descending(s_v).tolist()
    top_f = pi_f[:math.ceil(k * ratio)]
    chosen = top_f + [i for i in pi_v[:math.ceil(k * (1.0 - ratio))]
                      if i not in top_f][:k - len(top_f)]
    return chosen + [i for i in pi_f[len(top_f):] if i not in chosen][:k - len(chosen)]


def fuse_index_join(s_f: np.ndarray, s_v: np.ndarray, k: int) -> list[int]:
    """Both lists concatenated to 2T (score, frame) entries, scanned by
    descending score (frame-head copy first on ties, then lower index),
    collecting frames not yet taken. Result order: scan order."""
    s_f, s_v, t = _check_index_args(s_f, s_v, k)
    scan = rank_descending(np.concatenate([s_f, s_v])) % t
    return list(dict.fromkeys(scan.tolist()))[:k]


def select_frames(s_f: np.ndarray, s_v: np.ndarray, cfg: FusionConfig) -> list[int]:
    """Dispatch on the fusion mode; always returns exactly cfg.k distinct
    frame indices."""
    if cfg.mode in SCORE_MODES:
        return select_topk(fuse_scores(s_f, s_v, cfg.mode, cfg.ratio), cfg.k)
    if cfg.mode == "index_intersect":
        return fuse_index_intersect(s_f, s_v, cfg.k)
    if cfg.mode == "index_union":
        return fuse_index_union(s_f, s_v, cfg.k, cfg.ratio)
    return fuse_index_join(s_f, s_v, cfg.k)


def saliency_profile(s_f: np.ndarray, s_v: np.ndarray,
                     cfg: FusionConfig) -> SaliencyProfile:
    fused = None
    if cfg.mode in SCORE_MODES:
        fused = fuse_scores(s_f, s_v, cfg.mode, cfg.ratio)
    return SaliencyProfile(
        s_f=np.asarray(s_f, dtype=np.float64),
        s_v=np.asarray(s_v, dtype=np.float64),
        selected=select_frames(s_f, s_v, cfg),
        fused_scores=fused,
    )


def recognize(probs: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """(V, C) video scores: each video's softmax rows ``probs`` (V, T, C)
    averaged over its selected frames, a (V, K) index array or one (1, K)
    row shared by every video. The argmax is the video prediction."""
    return probs[np.arange(len(probs))[:, None], selected].mean(axis=1)


def recognize_video(record: VideoRecord, selected: list[int]) -> np.ndarray:
    """``recognize`` for one video and its selection."""
    if len(selected) == 0:
        raise ValueError("cannot recognize a video from an empty frame selection")
    indices = np.asarray(selected, dtype=np.int64)
    if indices.min() < 0 or indices.max() >= record.num_frames:
        raise ValueError(
            f"{record.video_id}: selected indices out of range [0, {record.num_frames})")
    return recognize(softmax_values(record.recognizer_logits)[None], indices[None])[0]
