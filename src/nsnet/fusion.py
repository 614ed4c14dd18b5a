"""Combining the two saliency granularities and picking the K frames: (V, T)
score tracks, one row per video, give a (V, K) frame-index array.

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
returned in a deterministic order (documented per mode) so dumps and
checkpoint-independent comparisons are stable.
"""

from __future__ import annotations

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


def rank_descending(scores: np.ndarray) -> np.ndarray:
    """Frames by descending score along the last axis; ties broken by lower
    index."""
    return (-scores).argsort(axis=-1, kind="stable")


def fuse_scores(s_f: np.ndarray, s_v: np.ndarray, mode: str, ratio: float) -> np.ndarray:
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


def _intersect(s_f: np.ndarray, s_v: np.ndarray, k: int) -> np.ndarray:
    """Intersection of the two top-K sets; expansion alternates between the
    list tails (positions K+1 onward), frame head first, skipping frames
    already chosen. Row order: intersection members by frame-head rank,
    then expansion insertions."""
    pi_f, pi_v = rank_descending(s_f), rank_descending(s_v)
    rows = np.arange(len(pi_f))
    # the frame-head top-K frames that are also in the glimpse top K, first
    member = pi_v.argsort(axis=1)[rows[:, None], pi_f[:, :k]] < k
    chosen = pi_f[rows[:, None], (~member).argsort(axis=1, kind="stable")]
    count = member.sum(axis=1)
    taken = np.zeros(pi_f.shape, dtype=bool)
    taken[rows[:, None], pi_f[:, :k]] = member
    # a short row needs k - count more frames. Turns alternate between the
    # tails, each taking its first free frame (the ones before it are all
    # taken), and none comes back empty: the frame-head tail holds the
    # glimpse top K outside the frame-head top K, which only it can take,
    # and the glimpse tail likewise
    need = k - count
    tails = pi_f[:, k:], pi_v[:, k:]
    for turn in range(need.max(initial=0)):
        tail = tails[turn % 2]
        nxt = (~taken[rows[:, None], tail]).argmax(axis=1)
        short = np.flatnonzero(turn < need)
        frame = tail[short, nxt[short]]
        chosen[short, count[short] + turn] = frame
        taken[short, frame] = True
    return chosen


def _union(s_f: np.ndarray, s_v: np.ndarray, k: int, ratio: float) -> np.ndarray:
    """Union of the top-ceil(K*ratio) frame-head and top-ceil(K*(1-ratio))
    glimpse picks. Short unions extend from the frame-head list; overshoot
    drops glimpse-side-only contributions from the bottom of their ranking.
    Row order: frame-head picks by rank, surviving glimpse-only picks by
    rank, then extensions."""
    t = s_f.shape[1]
    rank_f = rank_descending(s_f).argsort(axis=1)   # the rank of every frame
    rank_v = rank_descending(s_v).argsort(axis=1)
    outside = rank_f >= math.ceil(k * ratio)
    # frame-head top by rank, then the glimpse picks outside it by glimpse
    # rank, then the other frames by frame-head rank; cutting at K drops the
    # lowest glimpse picks on overshoot and extends from pi_f when short
    key = np.where(outside & (rank_v < math.ceil(k * (1.0 - ratio))), t + rank_v,
                   rank_f + 2 * t * outside)
    return key.argsort(axis=1)[:, :k]


def _join(s_f: np.ndarray, s_v: np.ndarray, k: int) -> np.ndarray:
    """Both lists concatenated to 2T (score, frame) entries, scanned by
    descending score (frame-head copy first on ties, then lower index),
    collecting frames not yet taken. Row order: scan order."""
    t = s_f.shape[1]
    position = rank_descending(np.concatenate([s_f, s_v], axis=1)).argsort(axis=1)
    # a frame's place in the scan is that of its first copy
    return np.minimum(position[:, :t], position[:, t:]).argsort(axis=1)[:, :k]


def select_frames(s_f: np.ndarray, s_v: np.ndarray, cfg: FusionConfig):
    """The cfg.k distinct frames each video keeps: (V, T) score tracks give
    a (V, K) index array, a (T,) pair a list of K ints."""
    s_f = np.asarray(s_f, dtype=np.float64)
    s_v = np.asarray(s_v, dtype=np.float64)
    if s_f.shape != s_v.shape or s_f.ndim not in (1, 2):
        raise ValueError(f"score tracks must share a (T,) or (V, T) shape: "
                         f"{s_f.shape} vs {s_v.shape}")
    t = s_f.shape[-1]
    if not 1 <= cfg.k <= t:
        raise ValueError(f"k={cfg.k} out of range for {t} frames")
    f, v = s_f.reshape(-1, t), s_v.reshape(-1, t)
    if cfg.mode in SCORE_MODES:
        selected = rank_descending(fuse_scores(f, v, cfg.mode, cfg.ratio))[:, :cfg.k]
    elif cfg.mode == "index_intersect":
        selected = _intersect(f, v, cfg.k)
    elif cfg.mode == "index_union":
        selected = _union(f, v, cfg.k, cfg.ratio)
    else:
        selected = _join(f, v, cfg.k)
    return selected[0].tolist() if s_f.ndim == 1 else selected


def recognize(probs: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """(V, C) video scores: each video's softmax rows ``probs`` (V, T, C)
    averaged over its selected frames, a (V, K) index array or one (1, K)
    row shared by every video; stacked (..., V, K) selections give
    (..., V, C). The argmax is the video prediction."""
    return probs[np.arange(len(probs))[:, None], selected].mean(axis=-2)


def recognize_video(record: VideoRecord, selected: list[int]) -> np.ndarray:
    """``recognize`` for one video and its selection."""
    if len(selected) == 0:
        raise ValueError("cannot recognize a video from an empty frame selection")
    indices = np.asarray(selected, dtype=np.int64)
    if indices.min() < 0 or indices.max() >= record.num_frames:
        raise ValueError(
            f"{record.video_id}: selected indices out of range [0, {record.num_frames})")
    return recognize(softmax_values(record.recognizer_logits)[None], indices[None])[0]
