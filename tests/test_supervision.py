"""Tests for prototypes, guiding scores and pseudo labels."""

import math
import re

import numpy as np
import pytest

from conftest import feature_block

from nsnet.data import generate_synthetic_dataset, load_manifest, write_feature_file
from nsnet.supervision import (
    PrototypeBank,
    build_prototypes,
    guiding_saliency_scores,
    load_prototypes,
    ns_pseudo_label_matrix,
    save_prototypes,
)


def assert_pseudo_label_rows_valid(seed=400, draws=1000):
    """Every pseudo-label row over random (C, label, g) draws: entries
    non-negative and summing to 1, clip(g) at the label, 1 - clip(g) at the
    non-salient slot, zeros elsewhere."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        c = int(rng.integers(2, 15))
        label = int(rng.integers(c))
        g = rng.random(int(rng.integers(1, 8)))
        matrix = ns_pseudo_label_matrix(g, label, c)
        clipped = np.clip(g, 0.0, 1.0)
        assert matrix.shape == (g.size, c + 1)
        assert matrix.min() >= 0.0
        assert np.all(np.abs(matrix.sum(axis=1) - 1.0) <= 1e-9)
        np.testing.assert_array_equal(matrix[:, label], clipped)
        np.testing.assert_array_equal(matrix[:, c], 1.0 - clipped)
        assert not np.delete(matrix[:, :c], label, axis=1).any()


def _video(label, guide, logits, vid="v"):
    """A video's guiding features and logits, what ``build_prototypes`` reads."""
    return dict(video_id=vid, label=label, guiding=guide, logits=logits)


def blocks(videos, size=2):
    """The videos as blocks of ``size`` videos, the last one shorter."""
    return [feature_block(videos[i:i + size]) for i in range(0, len(videos), size)]


def scores(video, bank):
    """The video's guiding saliency scores."""
    return guiding_saliency_scores(video["guiding"], video["label"], bank)


def scores_at_distances(distances, label):
    """g of one frame at the origin with prototype i at d_i * e_i, so the
    frame lies d_i from prototype i."""
    bank = PrototypeBank(np.diag(distances))
    return guiding_saliency_scores(np.zeros((1, len(distances))), label, bank)


class TestBuildPrototypes:
    def test_constant_video_gives_its_feature(self):
        feature = np.array([1.0, 2.0, 3.0])
        guide = np.tile(feature, (5, 1))
        logits = np.tile([5.0, 0.0], (5, 1))  # all frames predicted class 0
        bank = build_prototypes(blocks([_video(0, guide, logits, "a"),
                                        _video(1, guide + 1, logits[:, ::-1].copy(), "b")]), 2)
        np.testing.assert_allclose(bank.prototypes[0], feature, atol=1e-12)
        np.testing.assert_allclose(bank.prototypes[1], feature + 1, atol=1e-12)

    def test_ceiling_rule_pools_two_of_five_correct(self):
        # 10 frames, 5 predicted correctly with distinct confidences;
        # eps=30% of 5 -> ceil(1.5) = 2 frames pooled.
        logits = np.zeros((10, 2))
        logits[:5, 0] = np.array([5.0, 4.0, 3.0, 2.0, 1.0])  # correct, ranked
        logits[5:, 1] = 1.0                                   # wrong class
        guide = np.zeros((10, 1))
        guide[:, 0] = np.arange(10.0)
        bank = build_prototypes(blocks([_video(0, guide, logits, "a"),
                                        _video(1, guide, 1 - logits, "b")]), 2)
        # top-2 by true-class confidence are frames 0 and 1 -> mean 0.5
        np.testing.assert_allclose(bank.prototypes[0], [0.5], atol=1e-12)

    def test_epsilon_100_pools_all_correct_frames(self):
        rng = np.random.default_rng(0)
        guide = rng.standard_normal((6, 4))
        logits = np.tile([3.0, 0.0, 0.0], (6, 1))
        videos = [_video(0, guide, logits, "a"),
                  _video(1, guide, np.roll(logits, 1, axis=1), "b"),
                  _video(2, guide, np.roll(logits, 2, axis=1), "c")]
        bank = build_prototypes(blocks(videos), 3, epsilon_percent=100)
        np.testing.assert_allclose(bank.prototypes[0], guide.mean(axis=0), atol=1e-12)

    def test_video_without_correct_frames_falls_back(self):
        logits = np.tile([0.0, 5.0], (4, 1))  # every frame predicted class 1
        guide = np.arange(8.0).reshape(4, 2)
        bank = build_prototypes(blocks([_video(0, guide, logits, "a"),
                                        _video(1, guide, logits, "b")]), 2)
        # fallback: top ceil(0.3*4)=2 frames by class-0 confidence; softmax
        # confidence is identical across frames so the first two are kept
        np.testing.assert_allclose(bank.prototypes[0], guide[:2].mean(axis=0), atol=1e-12)

    def test_missing_category_reported(self):
        logits = np.tile([1.0, 0.0, 0.0], (3, 1))
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            build_prototypes(blocks([_video(0, np.zeros((3, 2)), logits)]), 3)

    def test_order_independent(self):
        rng = np.random.default_rng(4)
        videos = []
        for i in range(6):
            guide = rng.standard_normal((5, 3))
            logits = rng.standard_normal((5, 2))
            videos.append(_video(i % 2, guide, logits, f"v{i}"))
        a = build_prototypes(blocks(videos), 2).prototypes
        b = build_prototypes(blocks(videos[::-1], 4), 2).prototypes
        np.testing.assert_array_equal(a, b)


class TestGuidingScores:
    def test_equidistant_two_classes(self):
        bank = PrototypeBank(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        video = _video(0, np.array([[0.0, 5.0]]), np.zeros((1, 2)))
        np.testing.assert_allclose(scores(video, bank), [0.5], atol=1e-12)

    def test_reference_values_from_distances(self):
        g = scores_at_distances([0.0, 10.0, 10.0], 0)
        np.testing.assert_allclose(g, [1.0 / (1.0 + 2 * math.exp(-10))], atol=1e-12)
        assert abs(g[0] - 0.999909) < 1e-6
        g = scores_at_distances([10.0, 0.0], 0)
        np.testing.assert_allclose(g, [math.exp(-10) / (math.exp(-10) + 1)], atol=1e-15)
        assert abs(g[0] - 4.54e-5) < 1e-7

    def test_label_out_of_range(self):
        bank = PrototypeBank(np.zeros((2, 3)))
        video = _video(2, np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="label 2"):
            scores(video, bank)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        protos = rng.standard_normal((4, 6))
        guide = rng.standard_normal((9, 6))
        video = _video(2, guide, np.zeros((9, 4)))
        rotated = _video(2, guide @ q, np.zeros((9, 4)))
        g = scores(video, PrototypeBank(protos))
        g_rot = scores(rotated, PrototypeBank(protos @ q))
        np.testing.assert_allclose(g, g_rot, atol=1e-9)

    def test_monotone_in_true_class_distance(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            c = int(rng.integers(2, 6))
            label = int(rng.integers(c))
            dists = rng.uniform(0, 5, size=c)
            g = scores_at_distances(dists, label)[0]
            closer = dists.copy()
            closer[label] -= rng.uniform(0, closer[label] + 1e-9)
            assert scores_at_distances(closer, label)[0] >= g - 1e-12

    def test_zero_noise_salient_frames_outrank_background(self, tmp_path):
        train, _ = generate_synthetic_dataset(
            str(tmp_path), num_classes=4, videos_per_class=3, num_frames=12,
            light_dim=8, guiding_dim=8, salient_fraction=0.25, noise_sigma=0.0,
            seed=21, val_videos_per_class=0)
        split = load_manifest(train).read(("guiding", "logits", "mask"))
        bank = build_prototypes([split], 4)
        for guiding, label, mask in zip(split.per_video("guiding"), split.labels,
                                        split.per_video("mask")):
            g = guiding_saliency_scores(guiding, label, bank)
            salient = mask == 1.0
            assert g[salient].min() > g[~salient].max()
            assert g.max() - g[salient].min() <= 1e-6


class TestPseudoLabels:
    def test_fully_salient(self):
        matrix = ns_pseudo_label_matrix(np.array([1.0]), 1, 3)
        np.testing.assert_array_equal(matrix, [[0, 1, 0, 0]])

    def test_fully_non_salient(self):
        matrix = ns_pseudo_label_matrix(np.array([0.0]), 1, 3)
        np.testing.assert_array_equal(matrix, [[0, 0, 0, 1]])

    def test_half(self):
        matrix = ns_pseudo_label_matrix(np.array([0.5]), 0, 2)
        np.testing.assert_array_equal(matrix, [[0.5, 0, 0.5]])

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError, match="outside"):
            ns_pseudo_label_matrix(np.array([1.1]), 0, 2)
        # within tolerance is clipped, not rejected
        matrix = ns_pseudo_label_matrix(np.array([1.0 + 5e-10]), 0, 2)
        assert matrix.min() >= 0.0

    def test_always_valid_distribution(self):
        assert_pseudo_label_rows_valid()

    def test_hard_labels(self):
        matrix = ns_pseudo_label_matrix(np.ones(3), 2, 4)
        assert matrix.shape == (3, 5)
        np.testing.assert_array_equal(matrix[:, 2], 1.0)
        np.testing.assert_array_equal(matrix.sum(axis=1), 1.0)

    def test_one_label_per_row(self):
        """Per-row labels give, bit for bit, each row of its own label's matrix."""
        g, labels = np.random.default_rng(3).random(7), np.array([0, 2, 2, 1, 0, 3, 1])
        rows = ns_pseudo_label_matrix(g, labels, 4)
        own = [ns_pseudo_label_matrix(g[i:i + 1], int(label), 4) for i, label in enumerate(labels)]
        assert rows.tobytes() == np.concatenate(own).tobytes()
        with pytest.raises(ValueError, match=r"^label 4 out of range for C=4$"):
            ns_pseudo_label_matrix(g, np.array([0, 2, 4, 1, -1, 3, 1]), 4)
        with pytest.raises(ValueError, match=r"^label -1 out of range for C=4$"):
            ns_pseudo_label_matrix(g, -1, 4)


class TestPersistence:
    def test_round_trip_with_sidecar(self, tmp_path):
        """The bank is one file; a malformed ``.meta`` an older version
        might have left beside it is not read."""
        rng = np.random.default_rng(2)
        bank = PrototypeBank(rng.standard_normal((3, 5)))
        path = tmp_path / "protos.nsf"
        save_prototypes(bank, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["protos.nsf"]
        (tmp_path / "protos.nsf.meta").write_bytes(b"epsilon_percent=thirty\n\xff\n")
        np.testing.assert_array_equal(
            load_prototypes(str(path)).prototypes,
            bank.prototypes.astype(np.float32).astype(np.float64))

    def test_non_finite_entry_names_the_file(self, tmp_path):
        path = str(tmp_path / "protos.nsf")
        write_feature_file(path, np.array([[0.0, np.nan], [1.0, 2.0]]))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: prototypes contain non-finite values$"):
            load_prototypes(path)
        with pytest.raises(ValueError, match="^prototypes contain non-finite values$"):
            PrototypeBank(np.array([[0.0, np.nan]]))
