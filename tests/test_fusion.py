"""Fusion strategies vs. independent brute-force references.

The oracles below re-derive each combination rule with plain-python list
scans (no argsort, no sets-of-numpy); ``select_frames`` must match them
exactly, index sets and ordering both, on one (T,) pair and on every row
of a (V, T) matrix.
"""

import itertools

import numpy as np
import pytest

from conftest import video_record

from nsnet.autodiff import softmax_values
from nsnet.data import generate_synthetic_dataset, load_manifest
from nsnet.evaluation import ScoredVideos
from nsnet.fusion import FUSION_MODES, FusionConfig, fuse_scores, recognize, recognize_video, \
    select_frames


def select_topk(scores, k):
    """Top-K of one track: score_max of the track with itself."""
    return select_frames(scores, scores, FusionConfig("score_max", k=k))


def fuse_index_intersect(s_f, s_v, k):
    return select_frames(s_f, s_v, FusionConfig("index_intersect", k=k))


def fuse_index_union(s_f, s_v, k, ratio=0.6):
    return select_frames(s_f, s_v, FusionConfig("index_union", ratio, k))


def fuse_index_join(s_f, s_v, k):
    return select_frames(s_f, s_v, FusionConfig("index_join", k=k))


# ---------------------------------------------------------------------------
# Brute-force references
# ---------------------------------------------------------------------------


def oracle_rank(scores):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def oracle_topk(scores, k):
    return oracle_rank(scores)[:k]


def oracle_intersect(s_f, s_v, k):
    pf, pv = oracle_rank(s_f), oracle_rank(s_v)
    chosen = [i for i in pf[:k] if i in pv[:k]]
    pos_f, pos_v = k, k
    take_from_f = True
    while len(chosen) < k:
        if take_from_f:
            while pos_f < len(pf) and pf[pos_f] in chosen:
                pos_f += 1
            if pos_f < len(pf):
                chosen.append(pf[pos_f])
                pos_f += 1
        else:
            while pos_v < len(pv) and pv[pos_v] in chosen:
                pos_v += 1
            if pos_v < len(pv):
                chosen.append(pv[pos_v])
                pos_v += 1
        take_from_f = not take_from_f
    return chosen


def oracle_union(s_f, s_v, k, ratio):
    import math
    pf, pv = oracle_rank(s_f), oracle_rank(s_v)
    take_f = min(math.ceil(k * ratio), len(pf))
    take_v = min(math.ceil(k * (1 - ratio)), len(pv))
    part_f = pf[:take_f]
    part_v = [i for i in pv[:take_v] if i not in part_f]
    while len(part_f) + len(part_v) > k and part_v:
        part_v = part_v[:-1]
    chosen = part_f + part_v
    pos = take_f
    while len(chosen) < k and pos < len(pf):
        if pf[pos] not in chosen:
            chosen.append(pf[pos])
        pos += 1
    return chosen


def oracle_join(s_f, s_v, k):
    entries = []
    for i, s in enumerate(s_f):
        entries.append((s, 0, i))
    for i, s in enumerate(s_v):
        entries.append((s, 1, i))
    entries.sort(key=lambda e: (-e[0], e[1], e[2]))
    chosen = []
    for _, _, i in entries:
        if i not in chosen:
            chosen.append(i)
        if len(chosen) == k:
            break
    return chosen


def oracle_select(s_f, s_v, mode, k, ratio):
    if mode == "score_add":
        return oracle_topk([ratio * a + (1 - ratio) * b for a, b in zip(s_f, s_v)], k)
    if mode == "score_mul":
        return oracle_topk([a * b for a, b in zip(s_f, s_v)], k)
    if mode == "score_max":
        return oracle_topk([max(a, b) for a, b in zip(s_f, s_v)], k)
    if mode == "index_intersect":
        return oracle_intersect(s_f, s_v, k)
    if mode == "index_union":
        return oracle_union(s_f, s_v, k, ratio)
    return oracle_join(s_f, s_v, k)


def assert_modes_match_oracle(s_f, s_v, k, ratio=0.6):
    for mode in FUSION_MODES:
        got = select_frames(s_f, s_v, FusionConfig(mode=mode, ratio=ratio, k=k))
        want = oracle_select(list(s_f), list(s_v), mode, k, ratio)
        assert got == want, (mode, list(s_f), list(s_v), k, got, want)
        assert len(set(got)) == k
        assert all(0 <= i < len(s_f) for i in got)


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------


class TestWorkedExamples:
    def test_select_topk(self):
        assert select_topk(np.array([3.0, 1.0, 2.0]), 2) == [0, 2]
        assert select_topk(np.array([1.0, 1.0, 1.0, 1.0]), 3) == [0, 1, 2]
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.standard_normal(rng.integers(1, 12))
            k = int(rng.integers(1, len(scores) + 1))
            assert select_topk(scores, k) == oracle_topk(list(scores), k)

    def test_topk_rejects_k_above_t(self):
        with pytest.raises(ValueError, match="3"):
            select_topk(np.array([1.0, 2.0]), 3)

    def test_score_add(self):
        fused = fuse_scores(np.array([0.5, 0.5]), np.array([1.0, 0.0]),
                            "score_add", 0.6)
        np.testing.assert_allclose(fused, [0.7, 0.3], atol=1e-12)

    def test_score_mul_identity(self):
        s_f = np.array([0.2, 0.5, 0.3])
        fused = fuse_scores(s_f, np.ones(3), "score_mul", 0.6)
        np.testing.assert_array_equal(fused, s_f)

    def test_score_max_dominates(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(10), rng.random(10)
        fused = fuse_scores(a, b, "score_max", 0.6)
        assert np.all(fused >= a) and np.all(fused >= b)

    def test_intersect_full_overlap(self):
        # ranks: pi_f = [0,1,2,3], pi_v = [1,0,3,2]; top-2 sets coincide
        s_f = np.array([4.0, 3.0, 2.0, 1.0])
        s_v = np.array([3.0, 4.0, 1.0, 2.0])
        assert fuse_index_intersect(s_f, s_v, 2) == [0, 1]

    def test_intersect_equal_scores_degenerates_to_topk(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = rng.random(8)
            k = int(rng.integers(1, 9))
            assert fuse_index_intersect(s, s.copy(), k) == select_topk(s, k)

    def test_intersect_disjoint_halves_alternates(self):
        # pi_f = [0,1,2,3], pi_v = [2,3,0,1]; K=2 top sets disjoint
        s_f = np.array([4.0, 3.0, 2.0, 1.0])
        s_v = np.array([2.0, 1.0, 4.0, 3.0])
        got = fuse_index_intersect(s_f, s_v, 2)
        assert got == oracle_intersect(list(s_f), list(s_v), 2)
        assert got == [2, 0]  # tail of pi_f gives 2, tail of pi_v gives 0

    def test_union_boundary_alpha_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s_f, s_v = rng.random(7), rng.random(7)
            k = int(rng.integers(1, 8))
            assert fuse_index_union(s_f, s_v, k, ratio=1.0) == select_topk(s_f, k)

    def test_union_ceiling_example(self):
        # K=2, alpha=0.6: ceil(1.2)=2 from pi_f, ceil(0.8)=1 from pi_v, and
        # pi_v's top pick coincides with pi_f's best -> union is pi_f top-2
        s_f = np.array([9.0, 8.0, 1.0, 0.0])
        s_v = np.array([9.0, 0.0, 1.0, 2.0])
        assert fuse_index_union(s_f, s_v, 2, ratio=0.6) == [0, 1]

    def test_union_overshoot_drops_glimpse_side(self):
        # K=4, alpha=0.6: 3 + 2 picks with no overlap -> drop pi_v's lowest
        s_f = np.array([9.0, 8.0, 7.0, 0.0, 0.0, 0.0])
        s_v = np.array([0.0, 0.0, 0.0, 9.0, 8.0, 0.0])
        got = fuse_index_union(s_f, s_v, 4, ratio=0.6)
        assert got == [0, 1, 2, 3]

    def test_union_always_exactly_k(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            t = int(rng.integers(1, 10))
            k = int(rng.integers(1, t + 1))
            ratio = float(rng.random())
            s_f, s_v = rng.random(t), rng.random(t)
            got = fuse_index_union(s_f, s_v, k, ratio)
            assert len(got) == k and len(set(got)) == k

    def test_join_scan_order(self):
        s_f = np.array([0.9, 0.1, 0.0, 0.0])
        s_v = np.array([0.0, 0.8, 0.2, 0.0])
        assert fuse_index_join(s_f, s_v, 2) == [0, 1]

    def test_join_one_sided(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s_f = rng.random(6) + 0.5  # strictly above the zero glimpse track
            k = int(rng.integers(1, 7))
            assert fuse_index_join(s_f, np.zeros(6), k) == select_topk(s_f, k)

    def test_join_k_equals_t_exhausts(self):
        s_f = np.array([0.3, 0.1, 0.2])
        s_v = np.array([0.0, 0.9, 0.1])
        assert sorted(fuse_index_join(s_f, s_v, 3)) == [0, 1, 2]


# ---------------------------------------------------------------------------
# Exhaustive and randomized oracle equivalence
# ---------------------------------------------------------------------------


class TestOracleEquivalence:
    def test_exhaustive_rank_patterns(self):
        # WLOG the frame-head scores rank as identity (no ties); sweep every
        # glimpse-head permutation for T <= 6, K <= 4
        for t in range(1, 7):
            s_f = np.linspace(1.0, 0.1, t)
            for perm in itertools.permutations(range(t)):
                s_v = np.empty(t)
                for rank, frame in enumerate(perm):
                    s_v[frame] = 1.0 - rank * 0.1
                for k in range(1, min(4, t) + 1):
                    assert_modes_match_oracle(s_f, s_v, k)

    def test_randomized_suite_with_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            t = int(rng.integers(1, 12))
            k = int(rng.integers(1, t + 1))
            ratio = float(rng.choice([0.0, 0.3, 0.6, 1.0]))
            if rng.random() < 0.5:
                s_f = rng.integers(0, 4, size=t).astype(float)  # ties likely
                s_v = rng.integers(0, 4, size=t).astype(float)
            else:
                s_f, s_v = rng.random(t), rng.random(t)
            assert_modes_match_oracle(s_f, s_v, k, ratio)

    def test_rank_equivariance(self):
        rng = np.random.default_rng(7)
        transforms = [lambda x: 3 * x + 1, np.exp, lambda x: np.arctan(x) * 2]
        for _ in range(100):
            t = int(rng.integers(2, 9))
            k = int(rng.integers(1, t + 1))
            s_f, s_v = rng.standard_normal(t), rng.standard_normal(t)
            fn = transforms[int(rng.integers(len(transforms)))]
            for mode in ("index_union", "index_intersect", "index_join"):
                cfg = FusionConfig(mode=mode, k=k)
                assert select_frames(s_f, s_v, cfg) == \
                    select_frames(fn(s_f), fn(s_v), cfg)

    def test_max_fusion_keeps_global_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = int(rng.integers(1, 10))
            k = int(rng.integers(1, t + 1))
            s_f, s_v = rng.random(t), rng.random(t)
            chosen = select_frames(s_f, s_v, FusionConfig(mode="score_max", k=k))
            best = int(np.argmax(np.maximum(s_f, s_v)))
            assert best in chosen

    def test_score_add_boundaries(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            t = int(rng.integers(1, 10))
            k = int(rng.integers(1, t + 1))
            s_f, s_v = rng.random(t), rng.random(t)
            assert select_frames(s_f, s_v, FusionConfig("score_add", 1.0, k)) \
                == select_topk(s_f, k)
            assert select_frames(s_f, s_v, FusionConfig("score_add", 0.0, k)) \
                == select_topk(s_v, k)


class TestMatrixSelection:
    """(V, T) score tracks give a (V, K) array whose every row is the
    oracle's selection for that row's pair."""

    RATIOS = (0.0, 0.3, 0.5, 0.6, 1.0)

    @pytest.mark.parametrize("kind", ["integer", "continuous"])
    def test_rows_match_oracle(self, kind):
        rng = np.random.default_rng(11 if kind == "integer" else 12)
        for t in range(1, 20):
            if kind == "integer":   # ties within and across the two tracks
                s_f, s_v = rng.integers(0, 4, size=(2, 6, t)).astype(float)
            else:
                s_f, s_v = rng.random((2, 6, t))
            for mode in FUSION_MODES:
                ratios = self.RATIOS if mode in ("score_add", "index_union") else (0.6,)
                for ratio in ratios:
                    for k in range(1, t + 1):
                        got = select_frames(s_f, s_v, FusionConfig(mode, ratio, k))
                        assert isinstance(got, np.ndarray) and got.shape == (6, k)
                        for f, v, row in zip(s_f.tolist(), s_v.tolist(), got.tolist()):
                            assert row == oracle_select(f, v, mode, k, ratio), \
                                (mode, ratio, k, f, v, row)

    def test_one_row_is_a_list_of_ints(self):
        s_f, s_v = np.array([0.3, 0.1, 0.2]), np.array([0.0, 0.9, 0.1])
        for mode in FUSION_MODES:
            chosen = select_frames(s_f, s_v, FusionConfig(mode, k=2))
            assert type(chosen) is list and all(type(i) is int for i in chosen)
            assert chosen == select_frames(s_f[None], s_v[None],
                                           FusionConfig(mode, k=2))[0].tolist()

    @pytest.mark.parametrize("s_f, s_v", [(np.zeros((2, 3)), np.zeros((3, 2))),
                                          (np.zeros(3), np.zeros((1, 3))),
                                          (np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))])
    def test_shapes_must_agree(self, s_f, s_v):
        with pytest.raises(ValueError, match="score tracks"):
            select_frames(s_f, s_v, FusionConfig(k=1))


class TestProfileAndRecognition:
    def _record(self, logits):
        n = logits.shape[0]
        return video_record(dict(video_id="r", label=0, light=np.zeros((n, 2)), logits=logits,
                                 mask=np.zeros(n)))

    def test_single_frame_recognition(self):
        logits = np.array([[2.0, 1.0, 0.0], [0.0, 5.0, 0.0]])
        probs = recognize(softmax_values(logits)[None], np.array([[0]]))
        expected = np.exp(logits[0]) / np.exp(logits[0]).sum()
        np.testing.assert_allclose(probs, [expected], atol=1e-12)

    def test_identical_frames_average_to_single(self):
        probs = softmax_values(np.tile([1.0, 3.0, -1.0], (4, 1)))[None]
        np.testing.assert_allclose(recognize(probs, np.array([[0, 1, 2, 3]])),
                                   recognize(probs, np.array([[2]])), atol=1e-15)

    def test_zero_noise_synthetic_salient_frames_recognized(self, tmp_path):
        train, _ = generate_synthetic_dataset(
            str(tmp_path), num_classes=4, videos_per_class=2, num_frames=8,
            light_dim=6, guiding_dim=6, salient_fraction=0.5, noise_sigma=0.0,
            seed=10, val_videos_per_class=0)
        videos = ScoredVideos.gather(load_manifest(train).read(ScoredVideos.kinds), 8)
        # every video has its 4 planted frames, in frame order
        salient = np.nonzero(videos.planted)[1].reshape(len(videos.labels), 4)
        scores, recall = videos.score(salient)
        np.testing.assert_array_equal(scores.argmax(axis=1), videos.labels)
        assert recall == 1.0

    def test_one_video_recognition_is_its_row(self):
        logits = np.random.default_rng(0).standard_normal((5, 3))
        np.testing.assert_array_equal(recognize_video(self._record(logits), [4, 0, 2]),
                                      recognize(softmax_values(logits)[None],
                                                np.array([[4, 0, 2]]))[0])

    def test_empty_selection_rejected(self):
        record = self._record(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="empty"):
            recognize_video(record, [])

    def test_out_of_range_selection_rejected(self):
        record = self._record(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="range"):
            recognize_video(record, [5])
