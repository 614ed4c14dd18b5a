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
    linear,
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


def matmul(a, b) -> Tensor:
    """The matrix product inside ``linear``: a zero bias."""
    return linear(constant(a), constant(b), constant(np.zeros(np.shape(b)[1])))


class TestMatmul:
    def test_identity(self):
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        out = matmul(np.eye(2), b)
        np.testing.assert_array_equal(out.value, b)

    def test_hand_arithmetic(self):
        out = matmul([[1.0, 2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(out.value, [[11.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = matmul(a, b)
        np.testing.assert_allclose(out.value, matmul_oracle(a, b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))


class TestLinear:
    def test_value_is_product_plus_bias_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x, w, b = (rng.standard_normal((7, 5)), rng.standard_normal((5, 3)),
                   rng.standard_normal(3))
        out = linear(constant(x), constant(w), constant(b))
        np.testing.assert_array_equal(out.value, x @ w + b)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = Parameter("x", rng.standard_normal((4, 3)))
        w = Parameter("w", rng.standard_normal((3, 2)))
        b = Parameter("b", rng.standard_normal(2))
        targets = softmax_values(rng.standard_normal((4, 2)))

        def loss_fn():
            return soft_cross_entropy_rows(linear(x, w, b), targets)

        report = finite_difference_check([x, w, b], loss_fn, tolerance=1e-6)
        assert report.passed, str(report)

    def test_shape_error_names_all_three_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 4\).*\(5,\)"):
            linear(constant(np.zeros((2, 3))), constant(np.zeros((3, 4))),
                   constant(np.zeros(5)))


def special_rows(n, rng, rows=8):
    """(rows, n) scores, some rows holding +inf, -inf, NaN, only -inf or
    only -0.0, with magnitudes spread so rounding differs by order."""
    x = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-3, 6, (rows, 1))
    x[1, rng.integers(n)] = np.inf
    x[2, rng.integers(n)] = -np.inf
    x[3] = -np.inf
    x[4, rng.integers(n)] = np.nan
    x[5, rng.integers(n)] = np.inf
    x[5, rng.integers(n)] = np.nan
    x[6] = -0.0
    return x


def same_bits(a, b):
    """Equal, NaN for NaN, and zeros of the same sign."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


class TestRowMax:
    """The attention softmax's row max and row sum, taken down the leading
    axis of key-major (n, rows) scores."""

    @pytest.mark.parametrize("n", range(1, 18))
    def test_equals_max_bit_for_bit(self, n):
        rows = special_rows(n, np.random.default_rng(n))
        keys = rows.T.copy()
        assert same_bits(keys.max(axis=0), rows.max(axis=1))
        with np.errstate(invalid="ignore"):
            assert same_bits(ad._softmax_columns(keys).T, softmax_values(rows))

    def test_max_sum_and_softmax_equal_numpy_rows_for_every_length(self):
        # below 8, 8 to 15, whole blocks of 8 with and without tails, and
        # the splits above 128
        rng = np.random.default_rng(0)
        for n in range(1, 301):
            rows = special_rows(n, rng)
            keys = rows.T.copy()
            before = keys.copy()
            with np.errstate(invalid="ignore"):
                assert same_bits(keys.max(axis=0), rows.max(axis=1)), n
                # numpy adds its pairwise sum to a zero start
                assert same_bits(ad._leading_sum(keys) + 0.0, rows.sum(axis=1)), n
                assert same_bits(keys, before), n
                assert same_bits(ad._softmax_columns(keys).T, softmax_values(rows)), n

    def test_sum_is_pairwise_not_one_by_one(self):
        # one at a time, each 2**-53 rounds away against the 1.0; pairwise,
        # the small terms meet each other first and survive
        rows = np.full((1, 16), 2.0 ** -53)
        rows[0, 0] = 1.0
        assert ad._leading_sum(rows.T.copy())[0] == rows.sum() > 1.0


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


def layer_norm(x, width):
    """``_layer_norm``'s output with unit gain and zero bias."""
    return ad._layer_norm(np.asarray(x, dtype=np.float64), np.ones(width), np.zeros(width))[0]


BLOCK_PARAMS = ("ln1_gain", "ln1_bias", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                "ln2_gain", "ln2_bias", "w1", "b1", "w2", "b2")


def block_params(width, ffn, rng):
    """``encoder_block``'s 16 parameters, in order, drawn at random; the two
    layer-norm gains scatter around 1."""
    shapes = [(width,)] * 2 + [(width, width), (width,)] * 4 + [(width,)] * 2 \
        + [(width, ffn), (ffn,), (ffn, width), (width,)]
    values = [rng.standard_normal(shape) * (0.4 if len(shape) == 2 else 1.0)
              for shape in shapes]
    values[0] += 1.0
    values[10] += 1.0
    return [Parameter(name, value) for name, value in zip(BLOCK_PARAMS, values)]


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = layer_norm(np.full((1, 4), 3.7), 4)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_two_point_row(self):
        out = layer_norm([[1.0, 3.0]], 2)
        np.testing.assert_allclose(out, [[-1.0, 1.0]], atol=1e-4)

    def test_output_statistics(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 8)) * 3.0 + 1.0
        out = layer_norm(x, 8)
        means = out.mean(axis=1)
        variances = out.var(axis=1)
        np.testing.assert_allclose(means, 0.0, atol=1e-9)
        # eps shrinks the variance by var/(var+eps); allow that slack
        np.testing.assert_allclose(variances, 1.0, atol=1e-4)


class TestEncoderBlockChecks:
    @staticmethod
    def block(shape, batch=1, heads=1, width=None):
        rng = np.random.default_rng(0)
        params = block_params(width or shape[-1], 3, rng)
        return ad.encoder_block(constant(rng.standard_normal(shape)), params, batch, heads)

    def test_rows_must_be_2d(self):
        with pytest.raises(ValueError, match="encoder_block: rows"):
            self.block((2, 3, 4))

    def test_needs_two_features(self):
        with pytest.raises(ValueError, match="encoder_block: rows"):
            self.block((3, 1))

    def test_width_must_split_into_heads(self):
        with pytest.raises(ValueError, match="encoder_block: rows .* 3 heads"):
            self.block((4, 4), heads=3)

    def test_rows_must_split_into_videos(self):
        with pytest.raises(ValueError, match="encoder_block: rows .* 3 videos"):
            self.block((4, 4), batch=3)

    def test_parameter_shapes_must_match_the_width(self):
        with pytest.raises(ValueError, match="encoder_block: parameter shapes"):
            self.block((4, 4), width=6)


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


def sum_all(a: Tensor) -> Tensor:
    """Every entry of ``a`` summed as one node, the probe loss of these
    tests: its backward hands ``a`` the upstream gradient at every entry."""
    return Tensor(a.value.sum(), (a,), lambda g: a._accumulate(np.full_like(a.value, float(g))))


def chained_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """``soft_cross_entropy_rows`` as the four-node chain it fuses: a
    log-softmax node (``log_softmax_values`` forward, g - softmax * row sum
    of g backward), then ``mul_const`` by the targets, ``sum_all`` and
    ``mul_const`` by -1."""
    y = ad.log_softmax_values(logits.value)
    s = np.exp(y)
    log_probs = Tensor(y, (logits,),
                       lambda g: logits._accumulate(g - s * g.sum(axis=-1, keepdims=True)))
    return ad.mul_const(sum_all(ad.mul_const(log_probs, targets)), -1.0)


class TestFusedCrossEntropy:
    """``soft_cross_entropy_rows`` is one node whose value and logits
    gradient equal the chain's bit for bit."""

    @pytest.mark.parametrize("rows, width", [(1, 2), (5, 4), (16, 11), (256, 11)])
    @pytest.mark.parametrize("upstream", [1.0, 1 / 16, 0.2 / 16])
    def test_bit_identical_to_chain(self, rows, width, upstream):
        rng = np.random.default_rng(rows * width)
        values = rng.standard_normal((rows, width)) * 4.0
        targets = rng.dirichlet(np.ones(width), size=rows)
        targets[::3] = np.eye(width)[rng.integers(width, size=targets[::3].shape[0])]
        fused, chained = Parameter("fused", values), Parameter("chained", values.copy())
        out = soft_cross_entropy_rows(fused, targets)
        ref = chained_cross_entropy(chained, targets)
        backward(ad.mul_const(out, upstream))
        backward(ad.mul_const(ref, upstream))
        assert out.value.tobytes() == ref.value.tobytes()
        assert fused.grad.tobytes() == chained.grad.tobytes()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        logits = Parameter("logits", rng.standard_normal((5, 4)) * 2.0)
        targets = rng.dirichlet(np.ones(4), size=5)
        report = finite_difference_check(
            [logits], lambda: ad.mul_const(soft_cross_entropy_rows(logits, targets), 0.7),
            tolerance=1e-6)
        assert report.passed, str(report)

    def test_builds_one_node(self, monkeypatch):
        logits = Parameter("logits", np.zeros((3, 4)))
        built = []
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        loss = soft_cross_entropy_rows(logits, np.full((3, 4), 0.25))
        assert len(built) == 1 and loss._parents == (logits,)


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter("p", np.arange(6.0).reshape(2, 3))
        backward(sum_all(p))
        np.testing.assert_array_equal(p.grad, np.ones((2, 3)))

    def test_first_touch_gradients_are_not_shared(self):
        # add hands one gradient array to both parents; each must own a copy
        a, b = Parameter("a", np.zeros(3)), Parameter("b", np.zeros(3))
        backward(sum_all(ad.add(a, b)) + sum_all(ad.mul_const(a, 2.0)))
        np.testing.assert_array_equal(a.grad, np.full(3, 3.0))
        np.testing.assert_array_equal(b.grad, np.ones(3))
        p = Parameter("p", np.zeros(3))
        backward(sum_all(ad.add(p, p)))
        np.testing.assert_array_equal(p.grad, np.full(3, 2.0))

    def test_add_const_rejects_a_broadcast_constant(self):
        with pytest.raises(ValueError, match=r"\(3,\).*\(2, 3\)"):
            ad.add_const(Parameter("p", np.ones((2, 3))), np.ones(3))

    def test_no_tensor_product_or_left_sum(self):
        p, q = Parameter("p", np.ones(3)), Parameter("q", np.ones(3))
        with pytest.raises(TypeError):
            p * q
        with pytest.raises(TypeError):
            0 + p
        np.testing.assert_array_equal((2.0 * p).value, (p * 2.0).value)

    def test_non_scalar_loss_rejected(self):
        p = Parameter("p", np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            backward(p + p)


class TestSgdStep:
    def test_vanilla(self):
        p = Parameter("w", np.array([1.0]))
        p.grad = np.array([2.0])
        state = SgdState(learning_rate=0.1, momentum=0.0)
        sgd_step([p], state)
        np.testing.assert_allclose(p.value, [0.8], atol=1e-15)
        assert p.grad is None
        with pytest.raises(ValueError, match="no gradient"):
            sgd_step([p], state)

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
            logits = linear(constant(x), w, b)
            return soft_cross_entropy_rows(logits, target)

        report = finite_difference_check([w, b], loss_fn, tolerance=1e-6)
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
        targets = softmax_values(np.arange(8.0).reshape(2, 4))
        for _ in range(5):
            backward(soft_cross_entropy_rows(p, targets))
            sgd_step([p], state)
        return p.value.tobytes()

    assert run() == run()


# Every op of the core, on small inputs: name -> (p, q) -> output node.
_OPS = {
    "add": lambda p, q: ad.add(p, q),
    "add_const": lambda p, q: ad.add_const(p, 1.5),
    "mul_const": lambda p, q: ad.mul_const(p, -2.0),
    "linear": lambda p, q: ad.linear(p, Parameter("w", np.eye(4)), Parameter("b", np.ones(4))),
    "add_position": lambda p, q: ad.add_position(p, q, 3),
    "sigmoid": lambda p, q: ad.sigmoid(p),
    "soft_cross_entropy_rows": lambda p, q: ad.soft_cross_entropy_rows(
        p, softmax_values(q.value)),
    "l1_normalize": lambda p, q: ad.l1_normalize(Parameter("a", np.abs(p.value[:, :1])), 2),
    "attention_pool": lambda p, q: ad.attention_pool(
        p, Parameter("w", np.full((6, 1), 1 / 3)), 2),
    "encoder_block": lambda p, q: ad.encoder_block(
        p, block_params(4, 3, np.random.default_rng(4)), 2, 2),
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
        loss = sum_all(ad.mul_const(p, q.value))
        backward(loss)
        np.testing.assert_array_equal(p.grad, q.value)
