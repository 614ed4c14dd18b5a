"""The batched training step against the per-video loop it replaced.

``per_video_forward`` and ``per_video_batch_loss`` are that loop, kept here
as the reference: one forward per video, whose dropout sites draw from the
generator one after another as they are reached (pos, fsm, attn, salient,
nonsalient), one ``total_loss`` per video, then the mean of each term. The
batched path sums in another order, so values and gradients are compared
with an absolute tolerance set from float64 roundoff (1e-12). Absolute, not
relative: the key-bias gradients are exactly zero in exact arithmetic
(softmax is invariant to a per-query shift), so only their roundoff is
left and a relative comparison would divide noise by noise.
"""

from collections import namedtuple

import numpy as np
import pytest

from nsnet import autodiff as ad
from nsnet.autodiff import Parameter, backward, finite_difference_check
from nsnet.model import ForwardOutput, LossBreakdown, ModelConfig, SamplerModel, \
    total_loss
from nsnet.supervision import ns_pseudo_label_matrix
from nsnet.training import batch_loss
from test_autodiff import block_params, sum_all

ATOL = 1e-12
B, T, D, C = 5, 6, 16, 4
Example = namedtuple("Example", "features frame_targets label")


def make_model(seed=0, dropout=True):
    rates = dict(dropout_pos_enc=0.2, dropout_cls=0.5, dropout_attn=0.2) if dropout \
        else dict(dropout_pos_enc=0.0, dropout_cls=0.0, dropout_attn=0.0)
    cfg = ModelConfig(input_dim=D, num_classes=C, max_frames=8, encoder_layers=2,
                      heads=4, **rates)
    return SamplerModel(cfg, np.random.default_rng(seed))


def make_batch(seed=1, size=B, frames=T):
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(size):
        label = int(rng.integers(C))
        batch.append(Example(rng.standard_normal((frames, D)),
                             ns_pseudo_label_matrix(rng.random(frames), label, C), label))
    return batch


def stacked_batch_loss(model, batch, train=False, rng=None) -> LossBreakdown:
    """``batch_loss`` on the batch's stacked features and targets."""
    return batch_loss(model, np.stack([e.features for e in batch]),
                      np.concatenate([e.frame_targets for e in batch]),
                      [e.label for e in batch], train=train, rng=rng)


def per_video_forward(model, features, train=False, rng=None) -> ForwardOutput:
    """One video through the network as a batch of one. ``Generator.random``
    fills its one (1, rows, D) draw in C order, so the dropout sites take
    their masks from ``rng`` one after another, as if each drew its own."""
    return model.forward(features, train, rng)


def per_video_batch_loss(model, batch, train=False, rng=None) -> LossBreakdown:
    """Mean over the batch of the per-video total loss, one graph per video."""
    parts = [total_loss(per_video_forward(model, e.features, train, rng),
                        e.frame_targets, [e.label], model.config) for e in batch]
    scale = 1.0 / len(batch)

    def mean(tensors):
        acc = tensors[0]
        for t in tensors[1:]:
            acc = acc + t
        return scale * acc

    return LossBreakdown(total=mean([p.total for p in parts]),
                         frame=mean([p.frame for p in parts]),
                         video_cls=mean([p.video_cls for p in parts]),
                         video_ns=mean([p.video_ns for p in parts]))


def rng_pair(train, seed=5):
    if not train:
        return None, None
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("train", [False, True])
def test_stacked_forward_equals_per_video_forwards(train):
    model = make_model()
    batch = make_batch()
    rng_batched, rng_loop = rng_pair(train)
    trunk_batched, trunk_loop = rng_pair(train)
    features = np.stack([e.features for e in batch])
    out = model.forward(features, train=train, rng=rng_batched)
    encoded = model._trunk(features, train, trunk_batched)[0]
    assert encoded.shape == (B * T, D)
    assert out.fsm_logits.shape == (B * T, C + 1)
    assert out.attn.shape == (B * T, 1)
    assert out.salient_logits.shape == (B, C + 1)
    for i, example in enumerate(batch):
        ref = per_video_forward(model, example.features, train, rng_loop)
        rows = slice(i * T, (i + 1) * T)
        np.testing.assert_allclose(encoded.value[rows],
                                   model._trunk(example.features, train, trunk_loop)[0].value,
                                   rtol=0, atol=ATOL, err_msg=f"video {i} encoded")
        for name in ("fsm_logits", "attn"):
            np.testing.assert_allclose(getattr(out, name).value[rows],
                                       getattr(ref, name).value, rtol=0, atol=ATOL,
                                       err_msg=f"video {i} {name}")
        for name in ("salient_logits", "nonsalient_logits"):
            np.testing.assert_allclose(getattr(out, name).value[i:i + 1],
                                       getattr(ref, name).value, rtol=0, atol=ATOL,
                                       err_msg=f"video {i} {name}")
    if train:
        # both sides consumed the generator identically
        assert rng_batched.random() == rng_loop.random()


def test_train_mode_draws_differ_from_eval():
    model = make_model()
    features = np.stack([e.features for e in make_batch()])
    train = model.forward(features, train=True, rng=np.random.default_rng(0))
    eval_ = model.forward(features)
    assert not np.allclose(train.fsm_logits.value, eval_.fsm_logits.value)


@pytest.mark.parametrize("rates", [(0.2, 0.0, 0.2), (0.0, 0.5, 0.0), (0.3, 0.5, 0.0)])
def test_inactive_dropout_sites_draw_nothing(rates):
    model = make_model()
    model.config.dropout_pos_enc, model.config.dropout_cls, model.config.dropout_attn = rates
    features = np.stack([e.features for e in make_batch(size=2)])
    rng_batched, rng_loop = rng_pair(True)
    out = model.forward(features, train=True, rng=rng_batched)
    for i in range(2):
        ref = per_video_forward(model, features[i], True, rng_loop)
        np.testing.assert_allclose(out.fsm_logits.value[i * T:(i + 1) * T],
                                   ref.fsm_logits.value, rtol=0, atol=ATOL)
    assert rng_batched.random() == rng_loop.random()


@pytest.mark.parametrize("train", [False, True])
def test_batch_loss_terms_and_gradients_equal_per_video_mean(train):
    model = make_model(seed=3)
    batch = make_batch(seed=4)
    rng_batched, rng_loop = rng_pair(train, seed=6)

    def run(loss_fn, rng):
        parts = loss_fn(model, batch, train=train, rng=rng)
        values = {k: float(getattr(parts, k).value)
                  for k in ("total", "frame", "video_cls", "video_ns")}
        backward(parts.total)
        return values, {p.name: p.grad.copy() for p in model.params.values()}

    values, grads = run(stacked_batch_loss, rng_batched)
    ref_values, ref_grads = run(per_video_batch_loss, rng_loop)
    for key in values:
        np.testing.assert_allclose(values[key], ref_values[key], rtol=0, atol=ATOL,
                                   err_msg=key)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=ATOL,
                                   err_msg=name)


def test_batch_loss_rejects_unequal_frame_counts():
    model = make_model(dropout=False)
    batch = make_batch(size=2) + make_batch(size=1, frames=T - 1)
    with pytest.raises(ValueError, match="targets shape"):
        batch_loss(model, np.stack([e.features for e in batch[:2]]),
                   np.concatenate([e.frame_targets for e in batch]),
                   [e.label for e in batch[:2]])


@pytest.mark.parametrize("frames", [1, 5])
def test_fused_attention_matches_finite_differences(frames):
    """The encoder block's hand-written backward, fused attention included."""
    batch, heads, width = 3, 4, 8
    rng = np.random.default_rng(frames)
    x = Parameter("x", rng.standard_normal((batch * frames, width)))
    params = block_params(width, 6, rng)
    targets = ad.softmax_values(rng.standard_normal((batch * frames, width)))

    # a sum of positive terms, so the oracle's roundoff, which it scales by
    # |loss|, is not hidden by cancellation: the key bias's gradient is zero
    # in exact arithmetic and only that roundoff is compared for it
    def loss_fn():
        return ad.soft_cross_entropy_rows(ad.encoder_block(x, params, batch, heads), targets)

    report = finite_difference_check([x, *params], loss_fn, tolerance=1e-4)
    assert report.passed, str(report)


def reference_layer_norm(x, gain, bias):
    """The layer norm as first written, with ``ndarray.mean``. Returns the
    output and a function from its gradient to x's, gain's and bias's."""
    centered = x - x.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=1, keepdims=True) + 1e-5)
    xhat = centered * inv

    def grads(g):
        gxhat = g * gain
        term = gxhat - gxhat.mean(axis=1, keepdims=True) \
            - xhat * (gxhat * xhat).mean(axis=1, keepdims=True)
        return term * inv, (g * xhat).sum(axis=0), g.sum(axis=0)

    return xhat * gain + bias, grads


def reference_attention(q, k, v, batch, heads):
    """The fused attention as first written: ``softmax_values`` over fresh
    arrays forward, and the backward formula in one expression. Returns the
    context and a function from its gradient to q's, k's and v's."""
    rows, d = q.shape
    t, width = rows // batch, d // heads
    scale = 1.0 / np.sqrt(width)

    def split(m):
        return m.reshape(batch, t, heads, width).transpose(0, 2, 1, 3)

    def merge(m):
        return m.transpose(0, 2, 1, 3).reshape(rows, d)

    qh, kh, vh = split(q), split(k), split(v)
    probs = ad.softmax_values((qh @ kh.transpose(0, 1, 3, 2)) * scale)

    def grads(g):
        gh = split(g)
        gp = gh @ vh.transpose(0, 1, 3, 2)
        gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * scale
        return (merge(gs @ kh), merge(gs.transpose(0, 1, 3, 2) @ qh),
                merge(probs.transpose(0, 1, 3, 2) @ gh))

    return merge(probs @ vh), grads


def reference_layer(x, params, batch, heads, g):
    """One encoder layer as separate ops composed it: two layer norms, five
    x @ w + b projections, the attention, a ReLU and two residual sums, each
    gradient summed in the order the graph summed it. Returns the output,
    x's gradient and the 16 parameter gradients for an incoming gradient g."""
    ln1_gain, ln1_bias, wq, bq, wk, bk, wv, bv, wo, bo, ln2_gain, ln2_bias, w1, b1, w2, b2 \
        = params
    n1, ln1_grads = reference_layer_norm(x, ln1_gain, ln1_bias)
    context, attention_grads = reference_attention(n1 @ wq + bq, n1 @ wk + bk, n1 @ wv + bv,
                                                   batch, heads)
    u = x + (context @ wo + bo)
    n2, ln2_grads = reference_layer_norm(u, ln2_gain, ln2_bias)
    pre = n2 @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    out = u + (hidden @ w2 + b2)

    g_pre = (g @ w2.T) * (pre > 0.0)
    g_u, g_ln2_gain, g_ln2_bias = ln2_grads(g_pre @ w1.T)
    g_u = g + g_u
    gq, gk, gv = attention_grads(g_u @ wo.T)
    g_x, g_ln1_gain, g_ln1_bias = ln1_grads((gq @ wq.T + gk @ wk.T) + gv @ wv.T)
    return out, g_u + g_x, [
        g_ln1_gain, g_ln1_bias, n1.T @ gq, gq.sum(axis=0), n1.T @ gk, gk.sum(axis=0),
        n1.T @ gv, gv.sum(axis=0), context.T @ g_u, g_u.sum(axis=0),
        g_ln2_gain, g_ln2_bias, n2.T @ g_pre, g_pre.sum(axis=0), hidden.T @ g, g.sum(axis=0)]


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("frames", [1, 5, 7, 8, 9, 16, 17, 24, 33, 130])
@pytest.mark.parametrize("width", [4, 8, 9, 12])
def test_fused_attention_is_bit_identical_to_reference(width, frames, batch):
    """The encoder block, fused attention included, against the separate
    ops it replaced: value, input gradient and all 16 parameter gradients
    equal bit for bit, at head width ``width``."""
    heads = 2
    rng = np.random.default_rng(100 * width + 10 * frames + batch)
    x = Parameter("x", rng.standard_normal((batch * frames, heads * width)))
    params = block_params(heads * width, 5, rng)
    g = rng.standard_normal(x.shape)
    out = ad.encoder_block(x, params, batch, heads)
    backward(sum_all(ad.mul_const(out, g)))
    value, gx, grads = reference_layer(x.value, [p.value for p in params], batch, heads, g)
    np.testing.assert_array_equal(out.value, value)
    np.testing.assert_array_equal(x.grad, gx)
    for p, grad in zip(params, grads, strict=True):
        np.testing.assert_array_equal(p.grad, grad, err_msg=p.name)


def test_fused_attention_keeps_videos_apart():
    """A video's encoder-block output depends on its own frames only."""
    batch, frames, width = 3, 4, 8
    rng = np.random.default_rng(7)
    x = rng.standard_normal((batch * frames, width))
    params = block_params(width, 6, rng)
    base = ad.encoder_block(ad.constant(x), params, batch, 2).value
    x2 = x.copy()
    x2[frames:2 * frames] += 1.0   # perturb video 1 only
    moved = ad.encoder_block(ad.constant(x2), params, batch, 2).value
    np.testing.assert_array_equal(base[:frames], moved[:frames])
    np.testing.assert_array_equal(base[2 * frames:], moved[2 * frames:])
    assert not np.allclose(base[frames:2 * frames], moved[frames:2 * frames])


def test_per_video_ops_match_finite_differences():
    batch, frames, width = 3, 4, 5
    rng = np.random.default_rng(8)
    x = Parameter("x", rng.standard_normal((batch * frames, width)))
    table = Parameter("table", rng.standard_normal((frames + 2, width)))
    raw = Parameter("raw", rng.uniform(0.1, 1.0, size=(batch * frames, 1)))
    probe = rng.standard_normal((batch, width))

    def loss_fn():
        h = ad.add_position(x, table, frames)
        weights = ad.l1_normalize(raw, batch)
        return sum_all(ad.mul_const(ad.attention_pool(h, weights, batch), probe))

    report = finite_difference_check([x, table, raw], loss_fn, tolerance=1e-5)
    assert report.passed, str(report)
    backward(loss_fn())
    # rows past T never reach the loss
    np.testing.assert_array_equal(table.grad[frames:], 0.0)
