"""Metric oracles, budget arithmetic and baseline sampler tests, and the
batched method x K scoring against the per-video loop it replaced."""

import math
import re
import zlib
from dataclasses import astuple

import numpy as np
import pytest

from conftest import feature_block, video_record

from nsnet import evaluation
from nsnet.autodiff import softmax_values
from nsnet.data import SCORED_KINDS, FeatureBlock, PresampleConfig, presample, \
    presample_indices
from nsnet.evaluation import (
    BASELINE_METHODS,
    DEFAULT_COST_TABLE,
    ScoredVideos,
    baseline_sample,
    baseline_selection,
    load_cost_table,
    mean_average_precision,
    run_comparison,
    sampler_gflops,
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
        costs = dict(recognizer_per_frame=4.109, extractor_per_frame=0.320, encoder=0.315,
                     vgm=0.004, fsm=0.002)
        assert abs(sampler_gflops(costs, 5, 16) - 25.99) <= 0.01

    def test_zero_frames_leaves_overhead(self):
        costs = dict(DEFAULT_COST_TABLE, extractor_per_frame=0.075, encoder=0.3)
        np.testing.assert_allclose(sampler_gflops(costs, 0, 16), 1.506, atol=1e-12)

    def test_arithmetic_order(self):
        """Recognized frames, then the embedding (extractor * T + encoder),
        then each head: the frontier's gflops column depends on this order."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            costs = dict(zip(DEFAULT_COST_TABLE, rng.random(5) * 10))
            k, t = (int(n) for n in rng.integers(0, 64, size=2))
            embedding = costs["extractor_per_frame"] * t + costs["encoder"]
            expected = costs["recognizer_per_frame"] * k + embedding + costs["vgm"] \
                + costs["fsm"]
            assert sampler_gflops(costs, k, t) == expected

    def test_linear_in_k(self):
        costs = dict(DEFAULT_COST_TABLE)
        base = sampler_gflops(costs, 3, 16)
        doubled = sampler_gflops(costs, 6, 16)
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
        path.write_text("encoder=0.5\nvgm=-0.001\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: vgm must be >= 0, got '-0.001'")):
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
        assert np.flatnonzero(np.isnan(result.per_class)).tolist() == [2]
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


def stacked_draws(seed, draws=120):
    """(R, V, C) score stacks and their (V,) labels: integer scores (ties in
    every class) every other draw, classes without a positive every third."""
    rng = np.random.default_rng(seed)
    for draw in range(draws):
        r, v, c = int(rng.integers(1, 7)), int(rng.integers(1, 60)), int(rng.integers(1, 9))
        labels = rng.integers(0, max(1, c // 2) if draw % 3 == 0 else c, size=v)
        yield (rng.integers(0, 3, size=(r, v, c)).astype(float) if draw % 2
               else rng.random((r, v, c))), labels


class TestStackedScores:
    def test_stacked_map_equals_one_call_per_stack(self):
        for scores, labels in stacked_draws(5):
            result = mean_average_precision(scores, labels)
            alone = [mean_average_precision(stack, labels) for stack in scores]
            assert result.per_class.tobytes() == np.stack([a.per_class for a in alone]).tobytes()
            assert result.mean.tobytes() == np.array([a.mean for a in alone]).tobytes()

    def test_stacked_top1_equals_one_call_per_stack(self):
        for scores, labels in stacked_draws(6):
            alone = [top1_accuracy(stack, labels) for stack in scores]
            assert top1_accuracy(scores, labels).tobytes() == np.array(alone).tobytes()

    def test_leading_axes_keep_their_shape(self):
        scores, labels = next(stacked_draws(7))
        grid = np.stack([scores, scores[::-1]])    # (2, R, V, C)
        result = mean_average_precision(grid, labels)
        assert result.per_class.shape == grid.shape[:2] + grid.shape[3:]
        assert result.mean.tobytes() == np.stack(
            [mean_average_precision(half, labels).mean for half in grid]).tobytes()
        assert top1_accuracy(grid, labels).tobytes() == np.stack(
            [top1_accuracy(half, labels) for half in grid]).tobytes()

    def test_one_stack_gives_floats(self):
        scores, labels = next(stacked_draws(8))
        assert type(mean_average_precision(scores[0], labels).mean) is float
        assert type(top1_accuracy(scores[0], labels)) is float

    @pytest.mark.parametrize("shape", [(5,), (4, 3), (2, 4, 3)],
                             ids=["no-class-axis", "four-videos", "stacked-four-videos"])
    def test_video_axis_must_match_the_labels(self, shape):
        for metric in (mean_average_precision, top1_accuracy):
            with pytest.raises(ValueError, match=re.escape(f"{shape} vs labels (5,)")):
                metric(np.zeros(shape), np.zeros(5, dtype=int))


def _one_video(n=10, c=3, seed=0, logits=None):
    """One video of ``n`` frames, gathered at ``n``."""
    rng = np.random.default_rng(seed)
    video = dict(video_id="v", label=0, light=rng.standard_normal((n, 2)), mask=np.zeros(n),
                 logits=rng.standard_normal((n, c)) if logits is None else logits)
    return ScoredVideos.gather(feature_block([video]), n)


class TestBaselines:
    def test_dense(self):
        assert baseline_selection(_one_video(6), "dense", 3, 0).tolist() == [[0, 1, 2, 3, 4, 5]]

    def test_uniform_segment_centers(self):
        assert baseline_selection(_one_video(10), "uniform", 5, 0).tolist() == [[1, 3, 5, 7, 9]]
        assert baseline_selection(_one_video(8), "uniform", 8, 0).tolist() == [list(range(8))]

    def test_random_is_seeded_sorted_subset(self):
        videos = _one_video(12)
        [a], [b] = (baseline_selection(videos, "random", 5, 3).tolist() for _ in range(2))
        assert a == b == sorted(set(a))
        assert len(a) == 5
        [c] = baseline_selection(videos, "random", 5, 4).tolist()
        assert all(0 <= i < 12 for i in c)

    def test_topk_confidence_prefers_peaked_rows(self):
        logits = np.zeros((5, 3))
        logits[2] = [8.0, 0.0, 0.0]   # most confident
        logits[4] = [0.0, 4.0, 0.0]
        assert baseline_selection(_one_video(5, logits=logits), "topk_confidence", 2,
                                  0).tolist() == [[2, 4]]

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_selection(_one_video(), "magic", 2, 0)


class TestSalientRecall:
    @staticmethod
    def recall(selected, *masks, t=4):
        """``ScoredVideos.score``'s recall over videos carrying ``masks``
        (None: a video that lists no mask, read as zeros)."""
        videos = ScoredVideos.gather(feature_block([
            dict(video_id=f"v{i}", label=0, light=np.zeros((t, 2)), logits=np.zeros((t, 3)),
                 mask=np.zeros(t) if mask is None else mask)
            for i, mask in enumerate(masks)]), t)
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
# The reference below scores one video at a time, each pre-sampled on its
# own: its baseline rows, the softmax of its selected logit rows averaged,
# and its recall as a set intersection. The (V, K) gathers of
# ``run_comparison`` (and of the one-video API's epoch scorer, pinned
# below) must give the same numbers, compared with ==.

RATIO = 0.6
V, D, C = 14, 8, 3


MASK64 = 2 ** 64 - 1


def splitmix64_finaliser(z):
    """SplitMix64's finaliser on a Python int, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_random(video_id, t, k, seed):
    """The random baseline's contract, one video at a time in Python ints:
    the K frames of smallest key, ascending."""
    gamma = 0x9E3779B97F4A7C15
    head = splitmix64_finaliser((seed + gamma) & MASK64)
    for word in (zlib.crc32(video_id.encode()), k):
        head = splitmix64_finaliser(((head ^ word) + gamma) & MASK64)
    keys = [splitmix64_finaliser(((head ^ f) + gamma) & MASK64) for f in range(t)]
    return sorted(sorted(range(t), key=keys.__getitem__)[:k])


def reference_baseline(video, method, k, seed):
    t = len(video["logits"])
    if method == "dense":
        return list(range(t))
    if method == "uniform":
        return [int(math.floor((i + 0.5) * t / k)) for i in range(k)]
    if method == "random":
        return reference_random(video["video_id"], t, k, seed)
    confidence = softmax_values(video["logits"]).max(axis=1)
    return np.argsort(-confidence, kind="stable")[:k].tolist()


def reference_recall(selected, mask):
    planted = np.flatnonzero(np.asarray(mask) > 0.5)
    if planted.size == 0:
        return None
    return len(set(selected) & set(planted.tolist())) / planted.size


def reference_scores(observed, selections):
    """The (V, C) scores and the mean recall, one video at a time."""
    scores = np.zeros((len(observed), observed[0]["logits"].shape[1]))
    recalls = []
    for i, (video, selected) in enumerate(zip(observed, selections)):
        indices = np.asarray(selected, dtype=np.int64)
        scores[i] = softmax_values(video["logits"][indices]).mean(axis=0)
        recall = reference_recall(selected, video["mask"])
        if recall is not None:
            recalls.append(recall)
    return scores, (float(np.mean(recalls)) if recalls else None)


def reference_selections(model, observed, mode, k, seed):
    s_f, s_v = model.saliency([video["light"] for video in observed])
    cfg = FusionConfig(mode, RATIO, k)
    return {"nsnet": [select_frames(f, v, cfg) for f, v in zip(s_f, s_v)],
            **{method: [reference_baseline(video, method, k, seed) for video in observed]
               for method in BASELINE_METHODS}}


def mixed_videos(t, seed=0):
    """Videos of t and t + 5 original frames whose masks are all zero, or
    planted, two in three zero. Integer logits make ties in confidence."""
    rng = np.random.default_rng(seed)
    videos = []
    for i in range(V):
        n = t + 5 * (i % 2)
        videos.append(dict(video_id=f"v{i:02d}", label=i % C, light=rng.standard_normal((n, D)),
                           logits=rng.integers(-2, 3, (n, C)).astype(float),
                           mask=(rng.random(n) < 0.4).astype(float) if i % 3 == 2
                           else np.zeros(n)))
    return videos


def observe(videos, t):
    """Each video pre-sampled to ``t`` frames on its own."""
    return [{**video, **{kind: video[kind][presample_indices(len(video["light"]),
                                                             PresampleConfig(t))]
                         for kind in SCORED_KINDS}} for video in videos]


def one_video_records(videos):
    """The videos as the one-video API's records."""
    return [video_record(video) for video in videos]


def model_for(t):
    cfg = ModelConfig(input_dim=D, num_classes=C, max_frames=t, encoder_layers=1, heads=2)
    return SamplerModel(cfg, np.random.default_rng(t))


@pytest.mark.parametrize("t", [6, 16])
@pytest.mark.parametrize("mode", FUSION_MODES)
def test_run_comparison_equals_per_video_loop(t, mode):
    mixed, model = mixed_videos(t), model_for(t)
    k_list = [1, 3, t]
    observed = observe(mixed, t)
    videos = ScoredVideos.gather(feature_block(mixed), t)
    labels = np.array(videos.labels)
    expected = []
    for k in k_list:
        for method, selections in reference_selections(model, observed, mode, k, 5).items():
            scores, recall = reference_scores(observed, selections)
            assert np.array_equal(videos.score(np.array(selections))[0], scores)
            expected.append((method, k, top1_accuracy(scores, labels),
                             mean_average_precision(scores, labels).mean, recall))
    rows = run_comparison(videos, model, FusionConfig(mode, RATIO, 1), k_list,
                          DEFAULT_COST_TABLE, seed=5)
    # gflops is budget arithmetic, independent of the scoring
    assert [astuple(row)[:5] for row in rows] == expected
    assert any(row[4] is not None for row in expected)


@pytest.mark.parametrize("t", [6, 16])
@pytest.mark.parametrize("mode", FUSION_MODES)
def test_evaluate_epoch_equals_per_video_loop(t, mode):
    videos, model = mixed_videos(t, seed=1), model_for(t)
    records, observed = one_video_records(videos), observe(videos, t)
    labels = np.array([video["label"] for video in videos])
    for k in (1, 3, t):
        selections = reference_selections(model, observed, mode, k, 0)["nsnet"]
        scores, recall = reference_scores(observed, selections)
        assert evaluate_epoch(model, records, k, FusionConfig(mode, RATIO, k), frames=t) \
            == (top1_accuracy(scores, labels), recall)


# labels with 1, 2, 3 and 8 positive videos and none for class 4, so mAP
# averages runs of four lengths and leaves one class out
UNEVEN_LABELS = [3, 0, 3, 1, 3, 2, 3, 1, 3, 2, 3, 2, 3, 3]


def uneven_videos(t):
    """``mixed_videos`` over five classes whose positive counts differ."""
    rng = np.random.default_rng(t)
    return [{**video, "label": label,
             "logits": rng.integers(-2, 3, (len(video["light"]), 5)).astype(float)}
            for video, label in zip(mixed_videos(t, seed=2), UNEVEN_LABELS, strict=True)]


def map_oracle(scores, labels):
    """The mean over classes with a positive of ``average_precision_oracle``,
    with np.mean's pairwise sums so the rounding matches."""
    aps = []
    for c in range(scores.shape[1]):
        order = sorted(range(len(labels)), key=lambda i: (-scores[i, c], i))
        ranks = [rank for rank, video in enumerate(order, start=1) if labels[video] == c]
        if ranks:
            aps.append(np.mean([hits / rank for hits, rank in enumerate(ranks, start=1)]))
    return float(np.mean(aps))


@pytest.mark.parametrize("t", [6, 16])
@pytest.mark.parametrize("mode", FUSION_MODES)
def test_run_comparison_on_uneven_classes(t, mode):
    videos, model = uneven_videos(t), model_for(t)
    k_list = [1, 3, t]
    observed = observe(videos, t)
    labels = np.array(UNEVEN_LABELS)
    expected = []
    for k in k_list:
        for method, selections in reference_selections(model, observed, mode, k, 5).items():
            scores, recall = reference_scores(observed, selections)
            expected.append((method, k, float(np.mean(scores.argmax(axis=1) == labels)),
                             map_oracle(scores, labels), recall))
    rows = run_comparison(ScoredVideos.gather(feature_block(videos), t), model,
                          FusionConfig(mode, RATIO, 1), k_list, DEFAULT_COST_TABLE, seed=5)
    assert [astuple(row)[:5] for row in rows] == expected
    per_class = mean_average_precision(scores, labels).per_class
    assert np.isnan(per_class[4]) and not np.isnan(per_class[:4]).any()


def test_run_comparison_scores_through_one_call_per_metric(monkeypatch):
    t = 16
    videos, model = ScoredVideos.gather(feature_block(mixed_videos(t)), t), model_for(t)
    expected = run_comparison(videos, model, FusionConfig(), [1, 4, t], DEFAULT_COST_TABLE, 3)
    calls = {"mean_average_precision": 0, "top1_accuracy": 0}
    for name in calls:
        def counted(*args, _metric=getattr(evaluation, name), _name=name):
            calls[_name] += 1
            return _metric(*args)
        monkeypatch.setattr(evaluation, name, counted)
    rows = run_comparison(videos, model, FusionConfig(), [1, 4, t], DEFAULT_COST_TABLE, 3)
    assert calls == {"mean_average_precision": 1, "top1_accuracy": 1}
    assert rows == expected


def test_baseline_rows_do_not_depend_on_the_fusion_mode():
    t = 16
    videos, model = ScoredVideos.gather(feature_block(mixed_videos(t)), t), model_for(t)
    runs = [[row for row in run_comparison(videos, model, FusionConfig(mode, RATIO, 1),
                                           [1, 4, t], DEFAULT_COST_TABLE, seed=3)
             if row.method != "nsnet"]
            for mode in FUSION_MODES]
    assert len(runs[0]) == 4 * 3
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("entry", ["block_of", "saliency", "evaluate_epoch"])
def test_no_videos_to_score_is_named(entry):
    model = model_for(6)
    score = {"block_of": lambda: FeatureBlock.of(iter([])),
             "saliency": lambda: model.saliency(np.zeros((0, 6, D), np.float32)),
             "evaluate_epoch": lambda: evaluate_epoch(model, [], 1, FusionConfig(), 6)}[entry]
    with pytest.raises(ValueError, match="^no videos to score$"):
        score()


# ---------------------------------------------------------------------------
# The random baseline's hash contract
# ---------------------------------------------------------------------------


def ids_only(video_ids, t):
    """The ScoredVideos fields ``baseline_selection("random")`` reads."""
    return ScoredVideos(light=None, probs=None, planted=np.zeros((len(video_ids), t), bool),
                        ranking=None, labels=None, video_ids=list(video_ids))


class TestRandomContract:
    def test_equals_python_oracle(self):
        video_ids = ["", "v", "val_c000_v0000", "train_c009_v0039", "ünïcode", "x" * 40,
                     *(f"id{i}" for i in range(10))]
        for t in range(1, 20):
            for seed in (0, 1, 7, 2 ** 32, 2 ** 63, 2 ** 64 - 1):
                videos = ids_only(video_ids, t)
                for k in range(1, t + 1):
                    assert baseline_selection(videos, "random", k, seed).tolist() == \
                        [reference_random(v, t, k, seed) for v in video_ids], (t, seed, k)

    def test_golden_rows(self):
        # literals: numpy 1.24 and numpy 2 must give these same rows
        videos = ids_only(["val_c000_v0000", "val_c001_v0003", "train_c009_v0039"], 16)
        assert baseline_selection(videos, "random", 4, 0).tolist() == \
            [[6, 9, 11, 12], [2, 3, 5, 8], [5, 6, 9, 14]]
        assert baseline_selection(videos, "random", 8, 2 ** 64 - 1).tolist() == \
            [[0, 1, 4, 7, 8, 11, 14, 15], [0, 2, 4, 5, 8, 10, 14, 15],
             [2, 3, 4, 6, 8, 11, 13, 14]]

    def test_rows_follow_their_videos(self):
        video_ids = [f"val_c{i % 10:03d}_v{i:04d}" for i in range(50)]
        order = np.random.default_rng(0).permutation(50)
        for k in (1, 5, 16):
            rows = baseline_selection(ids_only(video_ids, 16), "random", k, 3)
            shuffled = baseline_selection(ids_only([video_ids[i] for i in order], 16),
                                          "random", k, 3)
            assert np.array_equal(shuffled, rows[order])

    @pytest.mark.parametrize("t, k", [(16, 8), (16, 2), (7, 3)])
    def test_every_frame_equally_likely(self, t, k):
        n = 20_000
        rows = baseline_selection(ids_only([f"id{i}" for i in range(n)], t), "random", k, 0)
        freq = np.bincount(rows.ravel(), minlength=t) / n
        p = k / t
        assert np.all(np.abs(freq - p) < 5 * math.sqrt(p * (1 - p) / n)), freq

    def test_k_and_seed_both_change_the_rows(self):
        videos = ids_only([f"id{i}" for i in range(200)], 16)
        base = baseline_selection(videos, "random", 8, 0)
        assert not np.array_equal(base, baseline_selection(videos, "random", 8, 1))
        # were the key blind to k, each row at k - 1 would be a subset of its row at k
        assert not all(set(a) <= set(b) for a, b in zip(
            baseline_selection(videos, "random", 7, 0).tolist(), base.tolist()))

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_rejects_seed_outside_uint64(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            baseline_selection(ids_only(["v"], 4), "random", 2, seed)


def test_baseline_sample_is_the_one_video_row():
    videos = mixed_videos(6)
    records = [presample(r, PresampleConfig(frames=6)) for r in one_video_records(videos)]
    for method in BASELINE_METHODS:
        for k in (1, 3, 6):
            for record, video in zip(records, observe(videos, 6)):
                assert baseline_sample(record, method, k) == \
                    reference_baseline(video, method, k, 0)
