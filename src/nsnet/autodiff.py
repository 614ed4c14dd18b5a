"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is recorded while a forward pass runs (define-by-run): each
operation returns a node holding its value plus a closure that routes the
incoming gradient to the operation's inputs. ``backward`` topologically
sorts the graph below a scalar loss, accumulates gradients into every
reachable ``Parameter``, and then drops the recorded closures so the graph
can be collected. A graph is single-use; rebuild it for the next step.
Inside ``no_grad()`` nothing is recorded: every node is a bare value, so an
inference pass frees each intermediate as soon as the next op has used it.

Everything runs in float64. A batch of B videos of T frames travels as
(B*T, D) rows, so one node covers the whole batch; the per-video steps are
fused ops with hand-written backwards. ``linear`` is x @ w + b as one
node; ``encoder_block`` is a whole pre-norm transformer layer (two layer
norms, multi-head self-attention, a ReLU feed-forward and both residual
sums) as one node; ``soft_cross_entropy_rows`` is a whole loss term
(log-softmax, weighting by the targets, sum, negation) as one node. Each
fused op repeats the rounding of the separate ops it replaced, step for
step.

The attention softmax runs key-major: the scores are copied once into a
(T_key, B*heads*T_query) array, so its row max and row sum reduce down the
leading axis, and every step is a long contiguous pass where numpy would
walk B*heads*T rows of only T. The max is exact in any order; the sum
folds whole rows in numpy's pairwise order for a contiguous row (eight
accumulators, their tree, the tail, halves above 128), so the
probabilities equal ``softmax_values`` bit for bit.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

LAYER_NORM_EPS = 1e-5
# Any division by a norm/sum uses this floor to avoid 1/0.
NORM_FLOOR = 1e-12

_recording = contextvars.ContextVar("nsnet_autodiff_recording", default=True)


class Tensor:
    """A node in the gradient graph: a float64 array plus backward plumbing."""

    __slots__ = ("value", "grad", "_parents", "_backprop")

    def __init__(self, value, parents=(), backprop=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = tuple(parents)
        self._backprop: Callable[[np.ndarray], None] | None = backprop

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def _accumulate(self, delta: np.ndarray) -> None:
        # the first delta is adopted, not copied: each op hands over an array
        # it just computed, and the ops that pass their incoming gradient
        # through unchanged (add, add_const, add_position) hand over a copy
        if self.grad is None:
            self.grad = np.asarray(delta, dtype=np.float64)
        else:
            self.grad += delta

    # Operator sugar: Tensor + Tensor tracks gradients on both sides; plain
    # numbers/arrays are constants. There is no Tensor * Tensor.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_const(self, other)

    def __rsub__(self, other):
        return add_const(mul_const(self, -1.0), other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return NotImplemented
        return mul_const(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """A named leaf tensor whose gradient survives backward for the optimizer."""

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(value)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def constant(value) -> Tensor:
    """Wrap an array as a gradient-less leaf."""
    return Tensor(value)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block: ops return values without parents
    or backward closures. Nests, and restores recording on any exit."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _node(value, parents: tuple[Tensor, ...],
          backprop: Callable[[np.ndarray], None]) -> Tensor:
    """An op's result: its value plus, while recording, its inputs and the
    closure that routes its gradient to them."""
    if _recording.get():
        return Tensor(value, parents, backprop)
    return Tensor(value)


# ---------------------------------------------------------------------------
# Elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes."""
    if a.shape != b.shape:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def backprop(g):
        a._accumulate(g.copy())
        b._accumulate(g.copy())

    return _node(a.value + b.value, (a, b), backprop)


def add_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    if not (c.shape == () or c.shape == a.shape):
        raise ValueError(f"add_const: constant shape {c.shape} vs tensor {a.shape}")

    def backprop(g):
        a._accumulate(g.copy())

    return _node(a.value + c, (a,), backprop)


def mul_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    if not (c.shape == () or c.shape == a.shape):
        raise ValueError(f"mul_const: constant shape {c.shape} vs tensor {a.shape}")

    def backprop(g):
        a._accumulate(g * c)

    return _node(a.value * c, (a,), backprop)


def _affine(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x @ w + b on plain rows, the bias added in place."""
    out = x @ w.value
    out += b.value
    return out


def _affine_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """x @ w + b's gradients: accumulates w's and b's, returns x's."""
    w._accumulate(x.T @ g)
    b._accumulate(g.sum(axis=0))
    return g @ w.value.T


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node: (M, K) rows, a (K, N) weight, an (N,) bias."""
    if x.value.ndim != 2 or w.value.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ValueError(f"linear: incompatible shapes {x.shape} x {w.shape} + {b.shape}")

    def backprop(g):
        x._accumulate(_affine_backward(g, x.value, w, b))

    return _node(_affine(x.value, w, b), (x, w, b), backprop)


def add_position(x: Tensor, table: Tensor, frames: int) -> Tensor:
    """x (B*T, D), video-major, plus rows [0, T) of a positional table added
    to every video's block of T rows."""
    rows, d = x.shape
    if frames < 1 or rows % frames or table.shape[1:] != (d,) or frames > table.shape[0]:
        raise ValueError(f"add_position: {x.shape} in blocks of {frames} vs {table.shape}")

    def backprop(g):
        x._accumulate(g.copy())
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        table.grad[:frames] += g.reshape(-1, frames, d).sum(axis=0)

    return _node((x.value.reshape(-1, frames, d) + table.value[:frames]).reshape(rows, d),
                 (x, table), backprop)


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.value))

    def backprop(g):
        a._accumulate(g * s * (1.0 - s))

    return _node(s, (a,), backprop)


def dropout(a: Tensor, rate: float, noise: np.ndarray | None) -> Tensor:
    """Inverted dropout from pre-drawn uniforms in [0, 1): entries whose draw
    is below ``rate`` are zeroed, survivors scaled by 1/(1-rate). Without
    draws (eval mode) or at rate 0 the input passes through."""
    if noise is None or rate == 0.0:
        return a
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return mul_const(a, (noise >= rate) / (1.0 - rate))


# ---------------------------------------------------------------------------
# Normalizations and losses
# ---------------------------------------------------------------------------


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis of a plain array (max-subtracted)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_values(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _layer_norm(x: np.ndarray, gain: np.ndarray,
                bias: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row normalization (population variance) followed by affine;
    returns the output, the normalized rows and each row's 1/std."""
    d = x.shape[1]
    # a row sum divided by d is how ndarray.mean computes, so bit for bit
    mean = x.sum(axis=1, keepdims=True)
    mean /= d
    centered = x - mean
    var = (centered * centered).sum(axis=1, keepdims=True)
    var /= d
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_backward(g: np.ndarray, gain: Tensor, bias: Tensor,
                         xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """``_layer_norm``'s gradients: accumulates gain's and bias's, returns
    the input's."""
    gain._accumulate((g * xhat).sum(axis=0))
    bias._accumulate(g.sum(axis=0))
    gxhat = g * gain.value
    d = g.shape[1]
    # d/dx of (x - mean) * inv with mean/var both functions of the row
    mean_g = gxhat.sum(axis=1, keepdims=True)
    mean_g /= d
    mean_gx = (gxhat * xhat).sum(axis=1, keepdims=True)
    mean_gx /= d
    return (gxhat - mean_g - xhat * mean_gx) * inv


def l1_normalize(a: Tensor, batch: int) -> Tensor:
    """Each video's block of a (B*T, 1) column divided by its own sum, the
    denominator floored at NORM_FLOOR; used for attention weights."""
    cols = a.value.reshape(batch, -1)
    sums = cols.sum(axis=1, keepdims=True)
    denom = np.maximum(sums, NORM_FLOOR)

    def backprop(g):
        g = g.reshape(batch, -1)
        # a denominator pinned to the floor constant passes no sum term
        through = np.where(sums < NORM_FLOOR, 0.0,
                           (g * cols).sum(axis=1, keepdims=True) / (denom * denom))
        a._accumulate((g / denom - through).reshape(a.shape))

    return _node((cols / denom).reshape(a.shape), (a,), backprop)


def attention_pool(x: Tensor, weights: Tensor, batch: int) -> Tensor:
    """(B, D) pooled rows: each video's rows of x (B*T, D) summed with its
    own weights from the (B*T, 1) column."""
    if weights.shape != (x.shape[0], 1) or x.shape[0] % batch:
        raise ValueError(f"attention_pool: weights {weights.shape} vs rows {x.shape} "
                         f"for {batch} videos")
    xs = x.value.reshape(batch, -1, x.shape[1])
    ws = weights.value.reshape(batch, 1, -1)

    def backprop(g):
        g = g.reshape(batch, 1, -1)
        x._accumulate((ws.transpose(0, 2, 1) @ g).reshape(x.shape))
        weights._accumulate((xs @ g.transpose(0, 2, 1)).reshape(weights.shape))

    return _node((ws @ xs).reshape(batch, -1), (x, weights), backprop)


def _leading_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) of an (n, N) array in the order numpy sums a contiguous
    row of n (its pairwise summation), so bit for bit the transpose's row
    sums: up to 128 rows, eight accumulators over the blocks of 8 and their
    pairwise tree, then the rows past the last block one after another
    (all of them, from zero, below 8); above 128, the sums of two halves
    (the first a multiple of 8 rows) added. numpy then adds the result to
    a zero start, which only turns a sum of -0.0 alone into 0.0."""
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _leading_sum(x[:half]) + _leading_sum(x[half:])
    blocks = n - n % 8
    if blocks:
        acc = x[:8] + x[8:16] if blocks > 8 else x[:8].copy()
        for i in range(16, blocks, 8):
            acc += x[i:i + 8]
        # the tree into new arrays: numpy would copy an operand that
        # interleaves with the output of an in-place add
        acc = acc[0::2] + acc[1::2]
        acc = acc[0::2] + acc[1::2]
        total = acc[0] + acc[1]
    else:
        total = np.zeros(x.shape[1:])
    for row in x[blocks:]:
        total += row
    return total


def _softmax_columns(x: np.ndarray) -> np.ndarray:
    """The softmax of each column of an (n, N) array, in place, bit for bit
    what ``softmax_values`` gives each column laid out as a contiguous row:
    the max down the leading axis is exact in any order (up to the sign of
    a zero maximum, which exp does not see), and a softmax's sum, which
    holds exp(0) = 1, is never -0.0."""
    x -= x.max(axis=0)
    np.exp(x, out=x)
    x /= _leading_sum(x)
    return x


def encoder_block(h: Tensor, params: Sequence[Tensor], batch: int, heads: int) -> Tensor:
    """One pre-norm transformer layer over (B*T, D) rows, video-major, as
    one node: u = h + attention(LN1(h)), then u + FFN(LN2(u)) with a ReLU
    between the FFN's two projections. ``params`` are, in order, LN1 gain
    and bias, wq, bq, wk, bk, wv, bv, wo, bo, LN2 gain and bias, w1, b1, w2
    and b2. The attention is scaled dot-product over (B, heads, T, T): head
    j owns columns [j*D/heads, (j+1)*D/heads) and each video attends to its
    own frames. Its softmax runs on a key-major copy of the scores (see the
    module docstring); the probabilities go back to row-major for
    ``probs @ v`` and the backward."""
    x = h.value
    if x.ndim != 2 or x.shape[1] < 2 or x.shape[1] % heads or x.shape[0] % batch:
        raise ValueError(f"encoder_block: rows {x.shape} need 2-D rows of at least 2 "
                         f"features for {heads} heads and {batch} videos")
    rows, d = x.shape
    ln1_gain, ln1_bias, wq, bq, wk, bk, wv, bv, wo, bo, \
        ln2_gain, ln2_bias, w1, b1, w2, b2 = params
    f = w1.shape[-1]
    shapes = [p.value.shape for p in params]
    if shapes != [(d,), (d,), (d, d), (d,), (d, d), (d,), (d, d), (d,), (d, d), (d,),
                  (d,), (d,), (d, f), (f,), (f, d), (d,)]:
        raise ValueError(f"encoder_block: parameter shapes {shapes} vs width {d}")
    t, width = rows // batch, d // heads
    scale = 1.0 / np.sqrt(width)

    def split(m):   # (B*T, D) -> (B, heads, T, width)
        return m.reshape(batch, t, heads, width).transpose(0, 2, 1, 3)

    def merge(m):   # (B, heads, T, width) -> (B*T, D)
        return m.transpose(0, 2, 1, 3).reshape(rows, d)

    n1, xhat1, inv1 = _layer_norm(x, ln1_gain.value, ln1_bias.value)
    qh, kh, vh = (split(_affine(n1, w, b)) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    # softmax_values, step for step, on a (T_key, B*heads*T_query) copy,
    # then row-major again, contiguous, for probs @ v and the backward
    keys = _softmax_columns(np.multiply(
        (qh @ kh.transpose(0, 1, 3, 2)).transpose(3, 0, 1, 2), scale, order="C").reshape(t, -1))
    probs = np.ascontiguousarray(keys.reshape(t, batch, heads, t).transpose(1, 2, 3, 0))
    context = merge(probs @ vh)
    u = _affine(context, wo, bo)
    u += x
    n2, xhat2, inv2 = _layer_norm(u, ln2_gain.value, ln2_bias.value)
    hidden = _affine(n2, w1, b1)
    np.maximum(hidden, 0.0, out=hidden)
    out = _affine(hidden, w2, b2)
    out += u

    def backprop(g):
        g_hidden = _affine_backward(g, hidden, w2, b2)
        g_hidden *= hidden > 0.0
        g_u = _layer_norm_backward(_affine_backward(g_hidden, n2, w1, b1),
                                   ln2_gain, ln2_bias, xhat2, inv2)
        g_u += g
        gh = split(_affine_backward(g_u, context, wo, bo))
        # gs = probs * (gp - (gp * probs).sum(-1)) * scale, in place on gp
        gs = gh @ vh.transpose(0, 1, 3, 2)
        gs -= (gs * probs).sum(axis=-1, keepdims=True)
        gs *= probs
        gs *= scale
        # LN1's output gradient in the order its three consumers summed it:
        # (q's + k's) + v's; a residual sum has two terms, so either order
        g_n1 = _affine_backward(merge(gs @ kh), n1, wq, bq) \
            + _affine_backward(merge(gs.transpose(0, 1, 3, 2) @ qh), n1, wk, bk)
        g_n1 += _affine_backward(merge(probs.transpose(0, 1, 3, 2) @ gh), n1, wv, bv)
        g_x = _layer_norm_backward(g_n1, ln1_gain, ln1_bias, xhat1, inv1)
        g_x += g_u
        h._accumulate(g_x)

    return _node(out, (h, *params), backprop)


def _check_distribution(target: np.ndarray, what: str) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if not target.min() >= -1e-12:
        raise ValueError(f"{what}: negative entry {target.min()}")
    sums = target.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise ValueError(f"{what}: entries must sum to 1, got {sums}")
    return target


def soft_cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Sum of per-row soft cross entropies for (T,N) logits and (T,N) targets,
    as one node: -sum(targets * log_softmax(logits))."""
    targets = _check_distribution(targets, "soft_cross_entropy_rows targets")
    if targets.shape != logits.shape:
        raise ValueError(
            f"soft_cross_entropy_rows: targets shape {targets.shape} vs logits {logits.shape}")
    y = log_softmax_values(logits.value)

    def backprop(g):
        # each step rounds as the separate log-softmax, product, sum and
        # negation nodes did, so training's bytes do not depend on the fusion
        gy = np.full_like(y, float(g * -1.0)) * targets
        logits._accumulate(gy - np.exp(y) * gy.sum(axis=-1, keepdims=True))

    return _node((y * targets).sum() * -1.0, (logits,), backprop)


# ---------------------------------------------------------------------------
# Backward pass and optimizer
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate gradients of every parameter reachable from a scalar loss.

    The recorded closures are dropped afterwards, so the graph cannot be
    replayed; parameters keep their gradient arrays for the optimizer.
    """
    if loss.value.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node._backprop is not None and node.grad is not None:
            node._backprop(node.grad)
        node._parents = ()
        node._backprop = None


@dataclass
class SgdState:
    """Momentum-SGD state: one velocity buffer per parameter name."""

    learning_rate: float
    momentum: float = 0.9
    buffers: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


def sgd_step(params: Iterable[Parameter], state: SgdState) -> None:
    """buffer <- momentum * buffer + grad; value <- value - lr * buffer.

    Gradients are cleared (set to None) after the update, so each step
    needs a fresh ``backward``.
    """
    for p in params:
        if p.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient; run backward first")
        buf = state.buffers.get(p.name)
        if buf is None:   # a zero buffer's first update: 0 * momentum + grad
            buf = state.buffers[p.name] = p.grad + 0.0
        else:
            buf *= state.momentum
            buf += p.grad
        p.value -= state.learning_rate * buf
        p.grad = None


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


@dataclass
class GradientCheckEntry:
    name: str
    max_rel_error: float
    mean_rel_error: float


@dataclass
class GradientCheckReport:
    entries: list[GradientCheckEntry]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def __str__(self):
        lines = [f"gradient check (tolerance {self.tolerance:g}):"]
        for e in sorted(self.entries, key=lambda e: -e.max_rel_error):
            lines.append(f"  {e.name:32s} max {e.max_rel_error:.3e}  mean {e.mean_rel_error:.3e}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'} (max {self.max_rel_error:.3e})")
        return "\n".join(lines)


FINITE_DIFFERENCE_STEP = 1e-5


def finite_difference_check(parameters: Sequence[Parameter],
                            loss_fn: Callable[[], Tensor],
                            tolerance: float = 1e-4) -> GradientCheckReport:
    """Compare backward gradients against central finite differences.

    ``loss_fn`` must rebuild the forward graph on every call and be
    deterministic (this is probed by evaluating it twice up front).
    Relative error per entry is |analytic - numeric| / max(|analytic|,
    |numeric|, floor), the floor 1e-6; the report passes iff the max over
    all entries of all parameters is below ``tolerance``.

    The difference quotient over ``FINITE_DIFFERENCE_STEP`` carries roundoff
    of order eps * |loss| / step, so entries below that resolution (the
    zero-gradient directions a loss does not see) would divide oracle noise
    by ~0. The floor is therefore raised to resolution / tolerance when
    needed: such entries are compared on the absolute scale the oracle can
    actually certify, never relatively.
    """
    parameters = list(parameters)
    probe_a = float(loss_fn().value)
    probe_b = float(loss_fn().value)
    if probe_a != probe_b:
        raise ValueError(
            f"loss_fn is not deterministic ({probe_a!r} vs {probe_b!r}); "
            "disable dropout before gradient checking")
    resolution = 8.0 * np.finfo(float).eps * max(1.0, abs(probe_a)) / FINITE_DIFFERENCE_STEP
    floor = max(1e-6, resolution / tolerance)

    loss = loss_fn()
    backward(loss)
    analytic = {p.name: (np.array(p.grad) if p.grad is not None
                         else np.zeros_like(p.value)) for p in parameters}

    entries = []
    for p in parameters:
        flat = p.value.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FINITE_DIFFERENCE_STEP
            up = float(loss_fn().value)
            flat[i] = orig - FINITE_DIFFERENCE_STEP
            down = float(loss_fn().value)
            flat[i] = orig
            num[i] = (up - down) / (2.0 * FINITE_DIFFERENCE_STEP)
        ana = analytic[p.name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), floor)
        rel = np.abs(ana - num) / denom
        entries.append(GradientCheckEntry(p.name, float(rel.max(initial=0.0)),
                                          float(rel.mean()) if rel.size else 0.0))
    return GradientCheckReport(entries, tolerance)
