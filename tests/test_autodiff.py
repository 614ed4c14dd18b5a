"""Unit and property tests for the reverse-mode core."""

import math

import numpy as np
import pytest

from nsnet import autodiff as ad
from nsnet.autodiff import (
    GradientCheckReport,
    Parameter,
    SgdState,
    Tensor,
    backward,
    constant,
    finite_difference_check,
    layer_norm,
    matmul,
    no_grad,
    sgd_step,
    soft_cross_entropy_rows,
    softmax_values,
)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop, independent of numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        out = matmul(constant(np.eye(2)), constant(b))
        np.testing.assert_array_equal(out.value, b)

    def test_hand_arithmetic(self):
        out = matmul(constant([[1.0, 2.0]]), constant([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.value, [[11.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = matmul(constant(a), constant(b))
        np.testing.assert_allclose(out.value, matmul_oracle(a, b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax_values([0.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = softmax_values([1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_reference_values(self):
        out = softmax_values([1.0, 2.0, 3.0])
        expected = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_sums_to_one_for_extreme_magnitudes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-500.0, 500.0, size=rng.integers(2, 12))
            s = softmax_values(x)
            assert np.all(s >= 0.0)
            assert abs(s.sum() - 1.0) <= 1e-12


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        x = constant(np.full((1, 4), 3.7))
        out = layer_norm(x, constant(np.ones(4)), constant(np.zeros(4)))
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_two_point_row(self):
        out = layer_norm(constant([[1.0, 3.0]]), constant(np.ones(2)),
                         constant(np.zeros(2)))
        np.testing.assert_allclose(out.value, [[-1.0, 1.0]], atol=1e-4)

    def test_output_statistics(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 8)) * 3.0 + 1.0
        out = layer_norm(constant(x), constant(np.ones(8)), constant(np.zeros(8)))
        means = out.value.mean(axis=1)
        variances = out.value.var(axis=1)
        np.testing.assert_allclose(means, 0.0, atol=1e-9)
        # eps shrinks the variance by var/(var+eps); allow that slack
        np.testing.assert_allclose(variances, 1.0, atol=1e-4)


def row_entropy(logits, target) -> float:
    """``soft_cross_entropy_rows`` on one distribution as a (1, N) row."""
    return float(soft_cross_entropy_rows(constant(np.atleast_2d(logits)),
                                         np.atleast_2d(target)).value)


class TestSoftCrossEntropy:
    def test_perfect_prediction_limit(self):
        assert row_entropy([50.0, 0.0, 0.0], [1.0, 0.0, 0.0]) < 1e-12

    def test_uniform_target_uniform_logits(self):
        n = 5
        np.testing.assert_allclose(row_entropy(np.zeros(n), np.full(n, 1 / n)),
                                   math.log(n), atol=1e-12)

    def test_reference_value(self):
        np.testing.assert_allclose(row_entropy([1.0, 1.0, 1.0], [0.5, 0.0, 0.5]),
                                   math.log(3.0), atol=1e-12)

    def test_rejects_invalid_distribution(self):
        with pytest.raises(ValueError, match="sum to 1"):
            row_entropy([0.0, 0.0], [0.5, 0.6])
        with pytest.raises(ValueError, match="negative"):
            row_entropy([0.0, 0.0], [1.5, -0.5])

    def test_nonnegative_for_random_distributions(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            target = rng.dirichlet(np.ones(n))
            logits = rng.standard_normal(n) * 5
            assert row_entropy(logits, target) >= 0.0

    def test_rows_variant_matches_per_row_loop(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((6, 4))
        targets = rng.dirichlet(np.ones(4), size=6)
        total = float(soft_cross_entropy_rows(constant(logits), targets).value)
        by_rows = sum(row_entropy(logits[i], targets[i]) for i in range(6))
        np.testing.assert_allclose(total, by_rows, atol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter("p", np.arange(6.0).reshape(2, 3))
        from nsnet.autodiff import sum_all
        backward(sum_all(p))
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_half_squared_norm_gives_value(self):
        p = Parameter("p", np.array([1.0, -2.0, 3.0]))
        from nsnet.autodiff import mul, sum_all
        loss = 0.5 * sum_all(mul(p, p))
        backward(loss)
        np.testing.assert_allclose(p.grad, p.value, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        p = Parameter("p", np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            backward(p + p)


class TestSgdStep:
    def test_vanilla(self):
        p = Parameter("w", np.array([1.0]))
        p.grad = np.array([2.0])
        sgd_step([p], SgdState(learning_rate=0.1, momentum=0.0))
        np.testing.assert_allclose(p.value, [0.8], atol=1e-15)
        np.testing.assert_array_equal(p.grad, [0.0])

    def test_momentum_unrolled(self):
        p = Parameter("w", np.array([0.0]))
        state = SgdState(learning_rate=1.0, momentum=0.9)
        p.grad = np.array([1.0])
        sgd_step([p], state)
        np.testing.assert_allclose(p.value, [-1.0], atol=1e-15)
        p.grad = np.array([1.0])
        sgd_step([p], state)
        np.testing.assert_allclose(p.value, [-2.9], atol=1e-15)

    def test_zero_gradient_coasts_on_buffer(self):
        p = Parameter("w", np.array([0.0]))
        state = SgdState(learning_rate=0.5, momentum=0.9)
        p.grad = np.array([1.0])
        sgd_step([p], state)
        before = p.value.copy()
        buffer = state.buffers["w"].copy()
        p.grad = np.array([0.0])
        sgd_step([p], state)
        np.testing.assert_allclose(p.value, before - 0.5 * 0.9 * buffer, atol=1e-15)

    def test_requires_gradients(self):
        p = Parameter("w", np.array([1.0]))
        with pytest.raises(ValueError, match="no gradient"):
            sgd_step([p], SgdState(learning_rate=0.1))


class TestFiniteDifferenceCheck:
    def test_linear_layer_with_cross_entropy(self):
        rng = np.random.default_rng(5)
        w = Parameter("w", rng.standard_normal((4, 3)) * 0.3)
        b = Parameter("b", np.zeros(3))
        x = rng.standard_normal((1, 4))
        target = np.array([[0.2, 0.5, 0.3]])

        def loss_fn():
            logits = matmul(constant(x), w) + b
            return soft_cross_entropy_rows(logits, target)

        report = finite_difference_check([w, b], loss_fn, step=1e-5, tolerance=1e-6)
        assert report.passed, str(report)

    def test_zero_parameter_model(self):
        report = finite_difference_check([], lambda: constant(1.0), tolerance=1e-6)
        assert report.entries == []
        assert report.passed

    def test_rejects_nondeterministic_loss(self):
        rng = np.random.default_rng(0)

        def loss_fn():
            return constant(rng.random())

        with pytest.raises(ValueError, match="deterministic"):
            finite_difference_check([], loss_fn)


def test_repeated_runs_are_bit_identical():
    def run():
        p = Parameter("w", np.linspace(-1, 1, 8).reshape(2, 4))
        state = SgdState(learning_rate=0.05, momentum=0.9)
        from nsnet.autodiff import mul, sum_all
        for _ in range(5):
            loss = 0.5 * sum_all(mul(p, p))
            backward(loss)
            sgd_step([p], state)
        return p.value.tobytes()

    assert run() == run()


# Every op of the core, on small inputs: name -> (p, q) -> output node.
_OPS = {
    "add": lambda p, q: ad.add(p, q),
    "add_const": lambda p, q: ad.add_const(p, 1.5),
    "mul": lambda p, q: ad.mul(p, q),
    "mul_const": lambda p, q: ad.mul_const(p, -2.0),
    "matmul": lambda p, q: ad.matmul(p, Parameter("w", np.eye(4))),
    "add_position": lambda p, q: ad.add_position(p, q, 3),
    "sum_all": lambda p, q: ad.sum_all(p),
    "sigmoid": lambda p, q: ad.sigmoid(p),
    "relu": lambda p, q: ad.relu(p),
    "log_softmax": lambda p, q: ad.log_softmax(p),
    "layer_norm": lambda p, q: ad.layer_norm(p, Parameter("g", np.ones(4)),
                                             Parameter("b", np.zeros(4))),
    "l1_normalize": lambda p, q: ad.l1_normalize(Parameter("a", np.abs(p.value[:, :1])), 2),
    "attention_pool": lambda p, q: ad.attention_pool(
        p, Parameter("w", np.full((6, 1), 1 / 3)), 2),
    "multi_head_attention": lambda p, q: ad.multi_head_attention(p, q, p, 2, 2),
}


class TestNoGrad:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(3)
        return (Parameter("p", rng.standard_normal((6, 4))),
                Parameter("q", rng.standard_normal((6, 4))))

    @pytest.mark.parametrize("op", sorted(_OPS))
    def test_records_no_parents_or_closure(self, op):
        recorded = _OPS[op](*self.inputs())
        assert recorded._parents and recorded._backprop is not None
        with no_grad():
            bare = _OPS[op](*self.inputs())
        assert bare._parents == () and bare._backprop is None
        np.testing.assert_array_equal(bare.value, recorded.value)

    def test_nests(self):
        p, q = self.inputs()
        with no_grad():
            with no_grad():
                assert ad.add(p, q)._backprop is None
            assert ad.add(p, q)._backprop is None
        assert ad.add(p, q)._backprop is not None

    def test_restores_recording_after_exception(self):
        p, q = self.inputs()
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("inside")
        loss = ad.sum_all(ad.mul(p, q))
        backward(loss)
        np.testing.assert_array_equal(p.grad, q.value)
