"""Tests for the sampler network, its losses and the checkpoint format."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from nsnet import autodiff as ad
from nsnet.autodiff import backward, constant, finite_difference_check, \
    soft_cross_entropy_rows
from nsnet.model import (
    ForwardOutput,
    ModelConfig,
    SamplerModel,
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
            encoded = model._trunk(rng.standard_normal((t, 8)), False, None)[0]
            assert encoded.shape == (t, 8)

    def test_capacity_error(self):
        model = make_model()
        with pytest.raises(ValueError, match="capacity"):
            model.forward(np.zeros((7, 8)))

    def test_zeroed_model_is_identity(self):
        model = make_model()
        for p in model.params.values():
            p.value = np.zeros_like(p.value)
        x = np.random.default_rng(2).standard_normal((4, 8))
        np.testing.assert_allclose(model._trunk(x, False, None)[0].value, x, atol=1e-12)

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
        for name in ("fsm.w", "fsm.b"):
            model.params[name].value[:] = 0.0
        logits = model.forward(np.ones((4, 8))).fsm_logits
        np.testing.assert_array_equal(logits.value, np.zeros((4, 4)))

    def test_logits_shape(self):
        model = make_model()
        for t in (1, 3, 6):
            out = model.forward(np.zeros((t, 8)))
            assert out.fsm_logits.shape == (t, 4)

    def test_zero_rate_train_equals_eval(self):
        model = make_model(dropout_cls=0.0)
        x = np.random.default_rng(4).standard_normal((3, 8))
        train = model.forward(x, train=True, rng=np.random.default_rng(0))
        eval_ = model.forward(x)
        np.testing.assert_array_equal(train.fsm_logits.value, eval_.fsm_logits.value)

    def test_loss_saturated_goes_to_zero(self):
        logits = np.full((3, 4), -50.0)
        logits[:, 1] = 50.0
        targets = np.zeros((3, 4))
        targets[:, 1] = 1.0
        loss = soft_cross_entropy_rows(constant(logits), targets)
        assert float(loss.value) < 1e-12

    def test_loss_uniform_logits(self):
        t, c1 = 5, 4
        targets = np.zeros((t, c1))
        targets[:, 0] = 0.3
        targets[:, c1 - 1] = 0.7
        loss = soft_cross_entropy_rows(constant(np.ones((t, c1))), targets)
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
        loss = soft_cross_entropy_rows(constant(logits), targets)
        np.testing.assert_allclose(float(loss.value), expected, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="targets shape"):
            soft_cross_entropy_rows(constant(np.zeros((3, 4))), np.full((2, 4), 0.25))


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
        model.params["pos_embedding"].value[:] = 0.0
        attn = model.forward(np.tile(np.linspace(-1, 1, 8), (4, 1))).attn
        np.testing.assert_allclose(attn.value, 0.25, atol=1e-12)

    def test_single_frame(self):
        model = make_model()
        attn = model.forward(np.random.default_rng(7).standard_normal((1, 8))).attn
        np.testing.assert_allclose(attn.value, [[1.0]], atol=1e-12)

    def test_attention_sums_to_one(self):
        model = make_model(seed=3)
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = int(rng.integers(1, 7))
            attn = model.forward(rng.standard_normal((t, 8))).attn
            assert abs(float(attn.value.sum()) - 1.0) <= 1e-9
            assert attn.value.min() >= 0.0

    def test_complement_weights(self):
        encoded = constant(np.eye(4, 8))
        attn = constant(np.array([[1.0], [0.0], [0.0], [0.0]]))
        salient = ad.attention_pool(encoded, attn, 1)
        nonsalient = ad.attention_pool(encoded, (1.0 - attn) * (1.0 / 4), 1)
        np.testing.assert_allclose(salient.value, encoded.value[:1], atol=1e-12)
        expected_weights = np.array([0.0, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(nonsalient.value[0],
                                   expected_weights @ encoded.value, atol=1e-12)

    def test_uniform_attention_pools_mean(self):
        rng = np.random.default_rng(9)
        encoded = constant(rng.standard_normal((5, 8)))
        attn = constant(np.full((5, 1), 0.2))
        salient = ad.attention_pool(encoded, attn, 1)
        np.testing.assert_allclose(salient.value[0], encoded.value.mean(axis=0),
                                   atol=1e-12)

    def test_forward_heads_classify_attention_and_complement_pools(self):
        model = make_model(seed=4)
        x = np.random.default_rng(10).standard_normal((2, 5, 8))
        out = model.forward(x)
        encoded = model._trunk(x, False, None)[0].value.reshape(2, 5, 8)
        attn = out.attn.value.reshape(2, 5)
        w, b = model.params["vgm.cls_w"].value, model.params["vgm.cls_b"].value
        salient = np.einsum("vt,vtd->vd", attn, encoded)
        nonsalient = np.einsum("vt,vtd->vd", (1.0 - attn) / 5, encoded)
        np.testing.assert_allclose(out.salient_logits.value, salient @ w + b, atol=1e-12)
        np.testing.assert_allclose(out.nonsalient_logits.value, nonsalient @ w + b,
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
        out = ForwardOutput(fsm_logits=constant(np.zeros((1, 4))),
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
        with pytest.raises(ValueError, match=r"expected \(\.\.\., T, 1\) attention"):
            vgm_saliency(np.array([0.1, 0.7, 0.2]))


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
            return {p.name: p.grad.copy() for p in model.params.values()}

        g_total = grads_of("total")
        out = model.forward(features)
        parts = total_loss(out, targets, [1], model.config)
        combined = parts.video_cls + model.config.gamma * parts.video_ns + parts.frame
        backward(combined)
        for p in model.params.values():
            np.testing.assert_allclose(g_total[p.name], p.grad, atol=1e-12)

    def test_full_loss_gradients_match_finite_differences(self):
        model, features, targets = self._forward_targets(14)

        def loss_fn():
            out = model.forward(features)
            return total_loss(out, targets, [1], model.config).total

        report = finite_difference_check(model.params.values(), loss_fn, tolerance=1e-5)
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


class TestParameterTable:
    def test_initial_checkpoint_bytes_are_pinned(self, tmp_path):
        # the digests pin every parameter's name, order, shape and initial draw
        model = SamplerModel(ModelConfig(input_dim=32, num_classes=10, max_frames=16),
                             np.random.default_rng(0))
        path = tmp_path / "init.nsc1"
        save_checkpoint(model, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "9c14e14b199898957bf84c03a791f266b74f2a38ccdc1c73bebcc92590cbf9f7"
        assert hashlib.sha256((tmp_path / "init.nsc1.cfg").read_bytes()).hexdigest() == \
            "0ede4092b5ab0ac6d71d9840dc92be65bfd0365b4c13e283bfafec8f7bd41a2d"

    @staticmethod
    def graph_nodes(roots):
        """The non-parameter nodes reachable from ``roots`` through ``_parents``."""
        seen, stack, count = set(), list(roots), 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
                count += not isinstance(node, ad.Parameter)
        return count

    def test_graph_node_counts(self):
        cfg = ModelConfig(input_dim=32, num_classes=10, max_frames=16)
        model = SamplerModel(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 16, 32))
        out = model.forward(x, train=True, rng=rng)
        loss = total_loss(out, np.full((16 * 16, 11), 1 / 11), [v % 10 for v in range(16)], cfg)
        assert self.graph_nodes([loss.total]) == 29
        out = model.forward(x)
        assert self.graph_nodes([out.fsm_logits, out.attn, out.salient_logits,
                                 out.nonsalient_logits]) == 15


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_model(seed=30)
        path = str(tmp_path / "model.nsc1")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for (name, p), (name2, q) in zip(model.params.items(), loaded.params.items()):
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
