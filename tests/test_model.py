"""Tests for the sampler network, its losses and the checkpoint format."""

import math
from pathlib import Path

import numpy as np
import pytest

from nsnet import autodiff as ad
from nsnet.autodiff import backward, constant, finite_difference_check
from nsnet.model import (
    ForwardOutput,
    ModelConfig,
    SamplerModel,
    fsm_loss,
    fsm_saliency,
    load_checkpoint,
    save_checkpoint,
    total_loss,
    vgm_saliency,
)


def small_config(**overrides):
    base = dict(input_dim=8, num_classes=3, max_frames=6, encoder_layers=1,
                heads=2, dropout_pos_enc=0.0, dropout_cls=0.0, dropout_attn=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def make_model(seed=0, **overrides):
    return SamplerModel(small_config(**overrides), np.random.default_rng(seed))


class TestEncode:
    def test_shape_round_trip(self):
        model = make_model()
        rng = np.random.default_rng(1)
        for t in range(1, 7):
            out = model.encode(rng.standard_normal((t, 8)))
            assert out.shape == (t, 8)

    def test_capacity_error(self):
        model = make_model()
        with pytest.raises(ValueError, match="capacity"):
            model.encode(np.zeros((7, 8)))

    def test_zeroed_model_is_identity(self):
        model = make_model()
        for p in model.parameters():
            p.value = np.zeros_like(p.value)
        x = np.random.default_rng(2).standard_normal((4, 8))
        out = model.encode(x)
        np.testing.assert_allclose(out.value, x, atol=1e-12)

    def test_eval_mode_is_deterministic(self):
        model = make_model(dropout_pos_enc=0.2, dropout_cls=0.9, dropout_attn=0.2)
        x = np.random.default_rng(3).standard_normal((5, 8))
        a = model.forward(x, train=False)
        b = model.forward(x, train=False)
        np.testing.assert_array_equal(a.fsm_logits.value, b.fsm_logits.value)
        np.testing.assert_array_equal(a.attn.value, b.attn.value)

    def test_train_mode_requires_rng_when_dropout_active(self):
        model = make_model(dropout_pos_enc=0.2)
        with pytest.raises(ValueError, match="rng"):
            model.forward(np.zeros((2, 8)), train=True)


class TestFsm:
    def test_zero_head_gives_zero_logits(self):
        model = make_model()
        model.fsm_w.value = np.zeros_like(model.fsm_w.value)
        model.fsm_b.value = np.zeros_like(model.fsm_b.value)
        logits = model.fsm_forward(constant(np.ones((4, 8))))
        np.testing.assert_array_equal(logits.value, np.zeros((4, 4)))

    def test_logits_shape(self):
        model = make_model()
        for t in (1, 3, 6):
            out = model.forward(np.zeros((t, 8)))
            assert out.fsm_logits.shape == (t, 4)

    def test_zero_rate_train_equals_eval(self):
        model = make_model(dropout_cls=0.0)
        encoded = constant(np.random.default_rng(4).standard_normal((3, 8)))
        train = model.fsm_forward(encoded, noise=np.random.default_rng(0).random((3, 8)))
        eval_ = model.fsm_forward(encoded)
        np.testing.assert_array_equal(train.value, eval_.value)

    def test_loss_saturated_goes_to_zero(self):
        logits = np.full((3, 4), -50.0)
        logits[:, 1] = 50.0
        targets = np.zeros((3, 4))
        targets[:, 1] = 1.0
        loss = fsm_loss(constant(logits), targets)
        assert float(loss.value) < 1e-12

    def test_loss_uniform_logits(self):
        t, c1 = 5, 4
        targets = np.zeros((t, c1))
        targets[:, 0] = 0.3
        targets[:, c1 - 1] = 0.7
        loss = fsm_loss(constant(np.ones((t, c1))), targets)
        np.testing.assert_allclose(float(loss.value), t * math.log(c1), atol=1e-12)

    def test_loss_matches_naive_per_element_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 4))
        g = rng.random(6)
        targets = np.zeros((6, 4))
        targets[:, 2] = g
        targets[:, 3] = 1 - g
        expected = 0.0
        for i in range(6):
            row = logits[i]
            log_probs = row - (row.max() + math.log(np.exp(row - row.max()).sum()))
            expected -= float((targets[i] * log_probs).sum())
        loss = fsm_loss(constant(logits), targets)
        np.testing.assert_allclose(float(loss.value), expected, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="targets"):
            fsm_loss(constant(np.zeros((3, 4))), np.zeros((2, 4)))


class TestFsmSaliency:
    def test_identical_rows_uniform(self):
        logits = np.tile([0.3, -0.2, 0.9, 0.1], (5, 1))
        np.testing.assert_allclose(fsm_saliency(logits), 1 / 5, atol=1e-12)

    def test_reference_values(self):
        # two frames whose max class confidences are 0.8 and 0.3
        s = np.array([0.8, 0.3])
        expected = np.exp(s) / np.exp(s).sum()
        np.testing.assert_allclose(expected, [0.6224593312018546, 0.3775406687981454],
                                   atol=1e-12)
        # construct logits whose per-frame max confidence equals s
        logits = np.log(np.array([
            [0.8, 0.1, 0.05, 0.05],
            [0.3, 0.3, 0.3, 0.1],
        ]))
        np.testing.assert_allclose(fsm_saliency(logits), expected, atol=1e-12)

    def test_nonsalient_logit_never_raises_own_score(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t, c1 = int(rng.integers(2, 8)), int(rng.integers(3, 6))
            logits = rng.standard_normal((t, c1))
            i = int(rng.integers(t))
            base = fsm_saliency(logits)[i]
            bumped = logits.copy()
            bumped[i, c1 - 1] += rng.uniform(0.01, 3.0)
            assert fsm_saliency(bumped)[i] <= base + 1e-12


class TestVgm:
    def test_identical_frames_uniform_attention(self):
        model = make_model()
        encoded = constant(np.tile(np.linspace(-1, 1, 8), (4, 1)))
        attn = model.vgm_attention(encoded)
        np.testing.assert_allclose(attn.value, 0.25, atol=1e-12)

    def test_single_frame(self):
        model = make_model()
        attn = model.vgm_attention(constant(np.random.default_rng(7).standard_normal((1, 8))))
        np.testing.assert_allclose(attn.value, [[1.0]], atol=1e-12)

    def test_attention_sums_to_one(self):
        model = make_model(seed=3)
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = int(rng.integers(1, 7))
            attn = model.vgm_attention(constant(rng.standard_normal((t, 8))))
            assert abs(float(attn.value.sum()) - 1.0) <= 1e-9
            assert attn.value.min() >= 0.0

    def test_complement_weights(self):
        model = make_model()
        encoded = constant(np.eye(4, 8))
        attn = constant(np.array([[1.0], [0.0], [0.0], [0.0]]))
        salient, nonsalient = model.vgm_representations(encoded, attn)
        np.testing.assert_allclose(salient.value, encoded.value[:1], atol=1e-12)
        expected_weights = np.array([0.0, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(nonsalient.value[0],
                                   expected_weights @ encoded.value, atol=1e-12)

    def test_uniform_attention_pools_mean(self):
        model = make_model()
        rng = np.random.default_rng(9)
        encoded = constant(rng.standard_normal((5, 8)))
        attn = constant(np.full((5, 1), 0.2))
        salient, _ = model.vgm_representations(encoded, attn)
        np.testing.assert_allclose(salient.value[0], encoded.value.mean(axis=0),
                                   atol=1e-12)

    def test_complement_sums_to_t_minus_one_over_t(self):
        model = make_model()
        rng = np.random.default_rng(10)
        for t in (1, 2, 5):
            raw = rng.random((t, 1))
            attn = constant(raw / raw.sum())
            complement = (1.0 - attn) * (1.0 / t)
            np.testing.assert_allclose(float(complement.value.sum()), (t - 1) / t,
                                       atol=1e-12)

    @staticmethod
    def video_loss(salient, nonsalient, label, gamma):
        """The video half of total_loss, L_cls + gamma * L_ns, for one video
        with the given head logits."""
        out = ForwardOutput(encoded=constant(np.zeros((1, 8))),
                            fsm_logits=constant(np.zeros((1, 4))),
                            attn=constant(np.ones((1, 1))),
                            salient_logits=constant(salient),
                            nonsalient_logits=constant(nonsalient))
        parts = total_loss(out, np.full((1, 4), 0.25), [label], small_config(gamma=gamma))
        return float(parts.video_cls.value) + gamma * float(parts.video_ns.value)

    def test_vgm_loss_gamma_zero_is_plain_classification(self):
        rng = np.random.default_rng(11)
        sal = rng.standard_normal((1, 4))
        ns = rng.standard_normal((1, 4))
        plain = ad.soft_cross_entropy_rows(constant(sal), np.eye(4)[2:3])
        loss = self.video_loss(sal, ns, 2, gamma=0.0)
        np.testing.assert_allclose(loss, float(plain.value), atol=1e-15)

    def test_vgm_loss_saturated(self):
        sal = np.full((1, 4), -50.0)
        sal[0, 1] = 50.0
        ns = np.full((1, 4), -50.0)
        ns[0, 3] = 50.0
        loss = self.video_loss(sal, ns, 1, gamma=0.2)
        assert loss < 1e-12

    def test_vgm_loss_uniform_logits(self):
        loss = self.video_loss(np.zeros((1, 4)), np.zeros((1, 4)), 0, gamma=0.2)
        np.testing.assert_allclose(loss, 1.2 * math.log(4), atol=1e-12)

    def test_vgm_saliency_is_identity(self):
        attn = np.array([[0.5], [0.5]])
        np.testing.assert_array_equal(vgm_saliency(attn), [0.5, 0.5])
        assert vgm_saliency(np.array([0.1, 0.7, 0.2])).argmax() == 1


class TestTotalLoss:
    def _forward_targets(self, seed=12):
        model = make_model(seed=seed)
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((4, 8))
        g = rng.random(4)
        targets = np.zeros((4, 4))
        targets[:, 1] = g
        targets[:, 3] = 1 - g
        return model, features, targets

    def test_equals_sum_of_parts(self):
        model, features, targets = self._forward_targets()
        out = model.forward(features)
        parts = total_loss(out, targets, [1], model.config)
        expected = float(parts.video_cls.value) \
            + model.config.gamma * float(parts.video_ns.value) \
            + float(parts.frame.value)
        np.testing.assert_allclose(float(parts.total.value), expected, atol=1e-12)

    def test_gradient_decomposes_per_component(self):
        model, features, targets = self._forward_targets(13)

        def grads_of(component):
            out = model.forward(features)
            parts = total_loss(out, targets, [1], model.config)
            backward(getattr(parts, component))
            return {p.name: p.grad.copy() for p in model.parameters()}

        g_total = grads_of("total")
        out = model.forward(features)
        parts = total_loss(out, targets, [1], model.config)
        combined = parts.video_cls + model.config.gamma * parts.video_ns + parts.frame
        backward(combined)
        for p in model.parameters():
            np.testing.assert_allclose(g_total[p.name], p.grad, atol=1e-12)

    def test_full_loss_gradients_match_finite_differences(self):
        model, features, targets = self._forward_targets(14)

        def loss_fn():
            out = model.forward(features)
            return total_loss(out, targets, [1], model.config).total

        report = finite_difference_check(model.parameters(), loss_fn,
                                         step=1e-5, tolerance=1e-5)
        assert report.passed, str(report)


class TestForwardOutputInvariants:
    def test_attention_distribution_holds(self):
        model = make_model(seed=20, dropout_pos_enc=0.2, dropout_cls=0.9,
                           dropout_attn=0.2)
        rng = np.random.default_rng(21)
        for _ in range(20):
            t = int(rng.integers(1, 7))
            out = model.forward(rng.standard_normal((t, 8)), train=True, rng=rng)
            assert out.attn.value.min() >= 0.0
            assert out.attn.value.max() <= 1.0
            assert abs(float(out.attn.value.sum()) - 1.0) <= 1e-9
            assert np.all(np.isfinite(out.fsm_logits.value))
            assert np.all(np.isfinite(out.salient_logits.value))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_model(seed=30)
        path = str(tmp_path / "model.nsc1")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (name, p), (name2, q) in zip(model.named_parameters(),
                                         loaded.named_parameters()):
            assert name == name2
            np.testing.assert_array_equal(
                q.value, p.value.astype(np.float32).astype(np.float64))

    def test_save_is_deterministic(self, tmp_path):
        model = make_model(seed=31)
        a, b = str(tmp_path / "a.nsc1"), str(tmp_path / "b.nsc1")
        save_checkpoint(model, a)
        save_checkpoint(model, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -0.1])
    def test_config_that_cannot_round_trip_is_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            small_config(gamma=gamma)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.nsc1"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        (tmp_path / "x.nsc1.cfg").write_text(small_config().to_text())
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(str(path))
