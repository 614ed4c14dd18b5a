"""Metric oracles, budget arithmetic and baseline sampler tests, and the
batched method x K scoring against the per-video loop it replaced."""

import math
import zlib
from dataclasses import astuple

import numpy as np
import pytest

from nsnet.autodiff import softmax_values
from nsnet.data import PresampleConfig, VideoRecord, presample
from nsnet.evaluation import (
    BASELINE_METHODS,
    DEFAULT_COST_TABLE,
    FlopsBudget,
    ScoredVideos,
    baseline_sample,
    budget_from_cost_table,
    flops_total,
    load_cost_table,
    mean_average_precision,
    run_comparison,
    top1_accuracy,
)
from nsnet.fusion import FUSION_MODES, FusionConfig, select_frames
from nsnet.model import ModelConfig, SamplerModel
from nsnet.training import evaluate_epoch


def average_precision_oracle(class_scores, positives):
    """Literal definition: precision at each positive's rank, averaged."""
    order = sorted(range(len(class_scores)), key=lambda i: (-class_scores[i], i))
    precisions = []
    hits = 0
    for rank, video in enumerate(order, start=1):
        if positives[video]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


class TestFlops:
    def test_published_example(self):
        budget = FlopsBudget(recognizer_per_frame=4.109, frames_recognized=5,
                             embedding=0.320 * 16 + 0.315, vgm=0.004, fsm=0.002)
        assert abs(flops_total(budget) - 25.99) <= 0.01

    def test_zero_frames_leaves_overhead(self):
        budget = FlopsBudget(4.109, 0, 1.5, 0.004, 0.002)
        np.testing.assert_allclose(flops_total(budget), 1.506, atol=1e-12)

    def test_linear_in_k(self):
        costs = dict(DEFAULT_COST_TABLE)
        base = flops_total(budget_from_cost_table(costs, 3, 16))
        doubled = flops_total(budget_from_cost_table(costs, 6, 16))
        np.testing.assert_allclose(doubled - base, 3 * costs["recognizer_per_frame"],
                                   atol=1e-12)

    def test_cost_table_parsing(self, tmp_path):
        path = tmp_path / "costs.txt"
        path.write_text("# comment\nrecognizer_per_frame=2.0\nvgm=0.5\n")
        costs = load_cost_table(str(path))
        assert costs["recognizer_per_frame"] == 2.0
        assert costs["vgm"] == 0.5
        assert costs["encoder"] == DEFAULT_COST_TABLE["encoder"]
        path.write_text("nonsense=1\n")
        with pytest.raises(ValueError, match="unknown cost entry"):
            load_cost_table(str(path))


class TestMeanAveragePrecision:
    def test_perfect_scores(self):
        labels = np.array([0, 1, 2, 0])
        scores = np.zeros((4, 3))
        scores[np.arange(4), labels] = 1.0
        result = mean_average_precision(scores, labels)
        assert result.mean == 1.0
        np.testing.assert_array_equal(result.per_class, [1.0, 1.0, 1.0])

    def test_positive_ranked_last(self):
        scores = np.array([[0.9, 0.5], [0.1, 0.5]])
        labels = np.array([1, 0])  # class 0's positive is video 1, ranked 2nd
        result = mean_average_precision(scores, labels)
        assert result.per_class[0] == 0.5

    def test_zero_positive_class_excluded_and_reported(self):
        scores = np.random.default_rng(0).random((4, 3))
        labels = np.array([0, 0, 1, 1])
        result = mean_average_precision(scores, labels)
        assert result.skipped_classes == [2]
        assert np.isnan(result.per_class[2])
        assert result.mean == np.nanmean(result.per_class)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = int(rng.integers(1, 21))
            c = int(rng.integers(2, 6))
            labels = rng.integers(0, c, size=v)
            scores = rng.random((v, c))
            result = mean_average_precision(scores, labels)
            for cls in range(c):
                positives = labels == cls
                if not positives.any():
                    continue
                expected = average_precision_oracle(scores[:, cls].tolist(),
                                                    positives.tolist())
                assert abs(result.per_class[cls] - expected) <= 1e-12

    def test_exhaustive_small_permutations(self):
        import itertools
        labels = np.array([0, 1, 0, 1, 0, 1])
        base = np.linspace(1.0, 0.0, 6)
        for perm in itertools.permutations(range(6)):
            scores = np.zeros((6, 2))
            scores[:, 0] = base[list(perm)]
            scores[:, 1] = -base[list(perm)]
            result = mean_average_precision(scores, labels)
            for cls in range(2):
                expected = average_precision_oracle(scores[:, cls].tolist(),
                                                    (labels == cls).tolist())
                assert abs(result.per_class[cls] - expected) <= 1e-12

    @staticmethod
    def per_class_loop(scores, labels):
        """The per-class reference: one stable argsort and one mean per class."""
        per_class = np.full(scores.shape[1], np.nan)
        for cls in range(scores.shape[1]):
            positives = labels == cls
            if positives.any():
                hits = positives[np.argsort(-scores[:, cls], kind="stable")]
                ranks = np.flatnonzero(hits) + 1
                per_class[cls] = float((np.cumsum(hits)[ranks - 1] / ranks).mean())
        return per_class

    def test_equals_per_class_loop(self):
        rng = np.random.default_rng(3)
        for draw in range(600):
            v, c = int(rng.integers(1, 200)), int(rng.integers(1, 12))
            # every other draw leaves the upper classes without a positive
            labels = rng.integers(0, c if draw % 2 else max(1, c // 2), size=v)
            scores = rng.integers(0, 3, size=(v, c)).astype(float) if draw % 3 \
                else rng.random((v, c))   # integer scores: ties in every class
            per_class = self.per_class_loop(scores, labels)
            result = mean_average_precision(scores, labels)
            assert np.array_equal(result.per_class, per_class, equal_nan=True)
            assert result.mean == float(per_class[~np.isnan(per_class)].mean())
            assert result.skipped_classes == np.flatnonzero(np.isnan(per_class)).tolist()

    def test_rank_invariance(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=12)
        scores = rng.random((12, 3))
        a = mean_average_precision(scores, labels)
        b = mean_average_precision(np.exp(4 * scores), labels)
        np.testing.assert_allclose(a.per_class, b.per_class, atol=1e-12, equal_nan=True)


class TestTop1:
    def test_boundaries(self):
        scores = np.eye(4)
        assert top1_accuracy(scores, np.arange(4)) == 1.0
        assert top1_accuracy(scores, (np.arange(4) + 1) % 4) == 0.0

    def test_half(self):
        scores = np.zeros((10, 2))
        scores[:, 0] = 1.0
        labels = np.array([0] * 5 + [1] * 5)
        assert top1_accuracy(scores, labels) == 0.5


def _record(n=10, c=3, seed=0, mask=None):
    rng = np.random.default_rng(seed)
    return VideoRecord("v", 0, rng.standard_normal((n, 2)),
                       rng.standard_normal((n, 2)),
                       rng.standard_normal((n, c)), mask)


class TestBaselines:
    def test_dense(self):
        assert baseline_sample(_record(6), "dense", 3) == [0, 1, 2, 3, 4, 5]

    def test_uniform_segment_centers(self):
        assert baseline_sample(_record(10), "uniform", 5) == [1, 3, 5, 7, 9]
        assert baseline_sample(_record(8), "uniform", 8) == list(range(8))

    def test_random_is_seeded_sorted_subset(self):
        record = _record(12)
        a = baseline_sample(record, "random", 5, seed=3)
        b = baseline_sample(record, "random", 5, seed=3)
        assert a == b == sorted(set(a))
        assert len(a) == 5
        c = baseline_sample(record, "random", 5, seed=4)
        assert all(0 <= i < 12 for i in c)

    def test_topk_confidence_prefers_peaked_rows(self):
        logits = np.zeros((5, 3))
        logits[2] = [8.0, 0.0, 0.0]   # most confident
        logits[4] = [0.0, 4.0, 0.0]
        record = VideoRecord("v", 0, np.zeros((5, 2)), np.zeros((5, 2)), logits)
        assert baseline_sample(record, "topk_confidence", 2) == [2, 4]

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_sample(_record(), "magic", 2)


class TestSalientRecall:
    @staticmethod
    def recall(selected, *masks, t=4):
        """``ScoredVideos.score``'s recall over videos carrying ``masks``."""
        videos = ScoredVideos.from_records([
            VideoRecord(f"v{i}", 0, np.zeros((t, 2)), np.zeros((t, 2)), np.zeros((t, 3)), mask)
            for i, mask in enumerate(masks)], t)
        return videos.score(np.array(selected))[1]

    def test_perfect_ranking_recall(self):
        mask = np.array([0, 1, 1, 0, 1, 0], dtype=float)
        # selecting exactly the planted frames
        assert self.recall([[1, 2, 4]], mask, t=6) == 1.0
        # oracle scores equal to the mask, K below planted count
        assert self.recall([[1, 2]], mask, t=6) == pytest.approx(2 / 3)

    def test_k_equals_t_gives_one(self):
        assert self.recall([[0, 1, 2, 3]], np.array([1, 0, 1, 0], dtype=float)) == 1.0

    def test_no_mask_or_no_planted(self):
        assert self.recall([[0]], None) is None
        assert self.recall([[0]], np.zeros(4)) is None
        # such videos are left out of the mean over the others
        masks = None, np.zeros(4), np.array([1, 0, 0, 1], dtype=float)
        assert self.recall([[0]], *masks) == 0.5
        assert self.recall([[3], [3], [1]], *masks) == 0.0


# ---------------------------------------------------------------------------
# Batched scoring against the per-video loop
# ---------------------------------------------------------------------------
#
# The reference below scores one video at a time: its baseline rows, the
# softmax of its selected logit rows averaged, and its recall as a set
# intersection. The (V, K) gathers of ``run_comparison`` and
# ``evaluate_epoch`` must give the same numbers, compared with ==.

RATIO = 0.6
V, D, C = 14, 8, 3


def reference_baseline(record, method, k, seed):
    t = record.num_frames
    if method == "dense":
        return list(range(t))
    if method == "uniform":
        return [int(math.floor((i + 0.5) * t / k)) for i in range(k)]
    if method == "random":
        rng = np.random.default_rng([seed, zlib.crc32(record.video_id.encode()), k])
        return sorted(int(i) for i in rng.choice(t, size=k, replace=False))
    confidence = softmax_values(record.recognizer_logits, axis=1).max(axis=1)
    return np.argsort(-confidence, kind="stable")[:k].tolist()


def reference_recall(selected, mask):
    if mask is None:
        return None
    planted = np.flatnonzero(np.asarray(mask) > 0.5)
    if planted.size == 0:
        return None
    return len(set(selected) & set(planted.tolist())) / planted.size


def reference_scores(observed, selections):
    """The (V, C) scores and the mean recall, one video at a time."""
    scores = np.zeros((len(observed), observed[0].recognizer_logits.shape[1]))
    recalls = []
    for i, (record, selected) in enumerate(zip(observed, selections)):
        indices = np.asarray(selected, dtype=np.int64)
        scores[i] = softmax_values(record.recognizer_logits[indices], axis=1).mean(axis=0)
        recall = reference_recall(selected, record.saliency_mask)
        if recall is not None:
            recalls.append(recall)
    return scores, (float(np.mean(recalls)) if recalls else None)


def reference_selections(model, observed, mode, k, seed):
    s_f, s_v = model.saliency([r.light_features for r in observed])
    cfg = FusionConfig(mode, RATIO, k)
    return {"nsnet": [select_frames(f, v, cfg) for f, v in zip(s_f, s_v)],
            **{method: [reference_baseline(r, method, k, seed) for r in observed]
               for method in BASELINE_METHODS}}


def mixed_records(t, seed=0):
    """Videos of t and t + 5 original frames whose masks are absent, all
    zero or planted, in turn. Integer logits make ties in confidence."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(V):
        n = t + 5 * (i % 2)
        mask = [None, np.zeros(n), (rng.random(n) < 0.4).astype(float)][i % 3]
        records.append(VideoRecord(f"v{i:02d}", i % C, rng.standard_normal((n, D)),
                                   rng.standard_normal((n, D)),
                                   rng.integers(-2, 3, (n, C)).astype(float), mask))
    return records


def model_for(t):
    cfg = ModelConfig(input_dim=D, num_classes=C, max_frames=t, encoder_layers=1, heads=2)
    return SamplerModel(cfg, np.random.default_rng(t))


@pytest.mark.parametrize("t", [6, 16])
@pytest.mark.parametrize("mode", FUSION_MODES)
def test_run_comparison_equals_per_video_loop(t, mode):
    records, model = mixed_records(t), model_for(t)
    k_list = [1, 3, t]
    observed = [presample(r, PresampleConfig(frames=t)) for r in records]
    videos = ScoredVideos.from_records(observed, t)
    labels = np.array([r.label for r in observed])
    expected = []
    for k in k_list:
        for method, selections in reference_selections(model, observed, mode, k, 5).items():
            scores, recall = reference_scores(observed, selections)
            assert np.array_equal(videos.score(np.array(selections))[0], scores)
            expected.append((method, k, top1_accuracy(scores, labels),
                             mean_average_precision(scores, labels).mean, recall))
    rows = run_comparison(records, model, FusionConfig(mode, RATIO, 1), k_list, seed=5)
    # gflops is budget arithmetic, independent of the scoring
    assert [astuple(row)[:5] for row in rows] == expected
    assert any(row[4] is not None for row in expected)


@pytest.mark.parametrize("t", [6, 16])
@pytest.mark.parametrize("mode", FUSION_MODES)
def test_evaluate_epoch_equals_per_video_loop(t, mode):
    records, model = mixed_records(t, seed=1), model_for(t)
    observed = [presample(r, PresampleConfig(frames=t)) for r in records]
    labels = np.array([r.label for r in observed])
    for k in (1, 3, t):
        selections = reference_selections(model, observed, mode, k, 0)["nsnet"]
        scores, recall = reference_scores(observed, selections)
        assert evaluate_epoch(model, records, k, FusionConfig(mode, RATIO, k), frames=t) \
            == (top1_accuracy(scores, labels), recall)


def test_baseline_sample_is_the_one_video_row():
    records = [presample(r, PresampleConfig(frames=6)) for r in mixed_records(6)]
    for method in BASELINE_METHODS:
        for k in (1, 3, 6):
            for record in records:
                assert baseline_sample(record, method, k, seed=2) == \
                    reference_baseline(record, method, k, 2)
