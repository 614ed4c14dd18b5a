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
fused ops with hand-written backwards.
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
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += delta

    # Operator sugar. Tensor-Tensor forms track gradients on both sides;
    # plain numbers/arrays are treated as constants.
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_const(self, other)

    def __radd__(self, other):
        return add_const(self, other)

    def __neg__(self):
        return mul_const(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul_const(other, -1.0))
        return add_const(self, -np.asarray(other, dtype=np.float64))

    def __rsub__(self, other):
        return add_const(mul_const(self, -1.0), other)

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return mul_const(self, other)

    def __rmul__(self, other):
        return mul_const(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

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
    """a + b for equal shapes, or matrix (M,N) + row bias (N,)."""
    if a.shape == b.shape:
        def backprop(g):
            a._accumulate(g)
            b._accumulate(g)

    elif a.value.ndim == 2 and b.value.ndim == 1 and a.shape[1] == b.shape[0]:
        def backprop(g):
            a._accumulate(g)
            b._accumulate(g.sum(axis=0))

    else:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _node(a.value + b.value, (a, b), backprop)


def add_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)

    def backprop(g):
        if c.shape == () or c.shape == a.shape:
            a._accumulate(g)
        else:
            # constant broadcast against a: gradient of a is g summed back
            a._accumulate(np.broadcast_to(g, np.broadcast(a.value, c).shape).sum(
                axis=tuple(range(g.ndim - a.value.ndim))).reshape(a.shape))

    return _node(a.value + c, (a,), backprop)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")

    def backprop(g):
        a._accumulate(g * b.value)
        b._accumulate(g * a.value)

    return _node(a.value * b.value, (a, b), backprop)


def mul_const(a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    if not (c.shape == () or c.shape == a.shape):
        raise ValueError(f"mul_const: constant shape {c.shape} vs tensor {a.shape}")

    def backprop(g):
        a._accumulate(g * c)

    return _node(a.value * c, (a,), backprop)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with the standard transpose backward rules."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} x {b.shape}")

    def backprop(g):
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    return _node(a.value @ b.value, (a, b), backprop)


def add_position(x: Tensor, table: Tensor, frames: int) -> Tensor:
    """x (B*T, D), video-major, plus rows [0, T) of a positional table added
    to every video's block of T rows."""
    rows, d = x.shape
    if frames < 1 or rows % frames or table.shape[1:] != (d,) or frames > table.shape[0]:
        raise ValueError(f"add_position: {x.shape} in blocks of {frames} vs {table.shape}")

    def backprop(g):
        x._accumulate(g)
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        table.grad[:frames] += g.reshape(-1, frames, d).sum(axis=0)

    return _node((x.value.reshape(-1, frames, d) + table.value[:frames]).reshape(rows, d),
                 (x, table), backprop)


def sum_all(a: Tensor) -> Tensor:
    def backprop(g):
        a._accumulate(np.full_like(a.value, float(g)))

    return _node(a.value.sum(), (a,), backprop)


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.value))

    def backprop(g):
        a._accumulate(g * s * (1.0 - s))

    return _node(s, (a,), backprop)


def relu(a: Tensor) -> Tensor:
    def backprop(g):
        a._accumulate(g * (a.value > 0.0))

    return _node(np.maximum(a.value, 0.0), (a,), backprop)


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


def softmax_values(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax on a plain array (max-subtracted)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_values(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    y = log_softmax_values(a.value, axis=axis)
    s = np.exp(y)

    def backprop(g):
        a._accumulate(g - s * g.sum(axis=axis, keepdims=True))

    return _node(y, (a,), backprop)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = LAYER_NORM_EPS) -> Tensor:
    """Per-row normalization (population variance) followed by affine."""
    if x.value.ndim != 2:
        raise ValueError(f"layer_norm expects a 2-D input, got shape {x.shape}")
    d = x.shape[1]
    if d < 2:
        raise ValueError("layer_norm needs at least 2 features per row")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} vs width {d}")
    mean = x.value.mean(axis=1, keepdims=True)
    centered = x.value - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def backprop(g):
        gain._accumulate((g * xhat).sum(axis=0))
        bias._accumulate(g.sum(axis=0))
        gxhat = g * gain.value
        # d/dx of (x - mean) * inv with mean/var both functions of the row
        term = gxhat - gxhat.mean(axis=1, keepdims=True) \
            - xhat * (gxhat * xhat).mean(axis=1, keepdims=True)
        x._accumulate(term * inv)

    return _node(xhat * gain.value + bias.value, (x, gain, bias), backprop)


def l1_normalize(a: Tensor, batch: int = 1, floor: float = NORM_FLOOR) -> Tensor:
    """Each video's block of a (B*T, 1) column divided by its own sum, the
    denominator floored; used for attention weights."""
    cols = a.value.reshape(batch, -1)
    sums = cols.sum(axis=1, keepdims=True)
    denom = np.maximum(sums, floor)

    def backprop(g):
        g = g.reshape(batch, -1)
        # a denominator pinned to the floor constant passes no sum term
        through = np.where(sums < floor, 0.0,
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


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, batch: int,
                         heads: int) -> Tensor:
    """Scaled dot-product self-attention over (B, heads, T, T) for (B*T, D)
    rows, video-major; head h owns columns [h*D/heads, (h+1)*D/heads) and
    each video attends to its own frames. Returns the contexts side by side."""
    rows, d = q.shape
    if k.shape != q.shape or v.shape != q.shape or rows % batch or d % heads:
        raise ValueError(f"multi_head_attention: q/k/v {q.shape}/{k.shape}/{v.shape} "
                         f"for {batch} videos and {heads} heads")
    t, width = rows // batch, d // heads
    scale = 1.0 / np.sqrt(width)

    def split(m):   # (B*T, D) -> (B, heads, T, width)
        return m.reshape(batch, t, heads, width).transpose(0, 2, 1, 3)

    def merge(m):   # (B, heads, T, width) -> (B*T, D)
        return m.transpose(0, 2, 1, 3).reshape(rows, d)

    qh, kh, vh = split(q.value), split(k.value), split(v.value)
    probs = softmax_values((qh @ kh.transpose(0, 1, 3, 2)) * scale, axis=-1)

    def backprop(g):
        gh = split(g)
        gp = gh @ vh.transpose(0, 1, 3, 2)
        gs = probs * (gp - (gp * probs).sum(axis=-1, keepdims=True)) * scale
        q._accumulate(merge(gs @ kh))
        k._accumulate(merge(gs.transpose(0, 1, 3, 2) @ qh))
        v._accumulate(merge(probs.transpose(0, 1, 3, 2) @ gh))

    return _node(merge(probs @ vh), (q, k, v), backprop)


def _check_distribution(target: np.ndarray, what: str) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if target.min() < -1e-12:
        raise ValueError(f"{what}: negative entry {target.min()}")
    sums = target.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise ValueError(f"{what}: entries must sum to 1, got {sums}")
    return target


def soft_cross_entropy_rows(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Sum of per-row soft cross entropies for (T,N) logits and (T,N) targets."""
    targets = _check_distribution(targets, "soft_cross_entropy_rows targets")
    if targets.shape != logits.shape:
        raise ValueError(
            f"soft_cross_entropy_rows: targets shape {targets.shape} vs logits {logits.shape}")
    return mul_const(sum_all(mul_const(log_softmax(logits, axis=-1), targets)), -1.0)


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
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


def sgd_step(params: Iterable[Parameter], state: SgdState) -> None:
    """buffer <- momentum * buffer + grad; value <- value - lr * buffer.

    Gradients are zeroed after the update.
    """
    for p in params:
        if p.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient; run backward first")
        buf = state.buffers.get(p.name)
        if buf is None:
            buf = state.buffers.setdefault(p.name, np.zeros_like(p.value))
        buf *= state.momentum
        buf += p.grad
        p.value -= state.learning_rate * buf
        p.grad = np.zeros_like(p.value)


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


def finite_difference_check(parameters: Sequence[Parameter],
                            loss_fn: Callable[[], Tensor],
                            step: float = 1e-5,
                            tolerance: float = 1e-4,
                            floor: float = 1e-6) -> GradientCheckReport:
    """Compare backward gradients against central finite differences.

    ``loss_fn`` must rebuild the forward graph on every call and be
    deterministic (this is probed by evaluating it twice up front).
    Relative error per entry is |analytic - numeric| / max(|analytic|,
    |numeric|, floor); the report passes iff the max over all entries of
    all parameters is below ``tolerance``.

    The difference quotient carries roundoff of order eps * |loss| / step,
    so entries below that resolution (the zero-gradient directions a loss
    does not see) would divide oracle noise by ~0. The floor is therefore
    raised to resolution / tolerance when needed: such entries are compared
    on the absolute scale the oracle can actually certify, never relatively.
    """
    parameters = list(parameters)
    probe_a = float(loss_fn().value)
    probe_b = float(loss_fn().value)
    if probe_a != probe_b:
        raise ValueError(
            f"loss_fn is not deterministic ({probe_a!r} vs {probe_b!r}); "
            "disable dropout before gradient checking")
    resolution = 8.0 * np.finfo(np.float64).eps * max(1.0, abs(probe_a)) / step
    floor = max(floor, resolution / tolerance)

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
            flat[i] = orig + step
            up = float(loss_fn().value)
            flat[i] = orig - step
            down = float(loss_fn().value)
            flat[i] = orig
            num[i] = (up - down) / (2.0 * step)
        ana = analytic[p.name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), floor)
        rel = np.abs(ana - num) / denom
        entries.append(GradientCheckEntry(p.name, float(rel.max(initial=0.0)),
                                          float(rel.mean()) if rel.size else 0.0))
    return GradientCheckReport(entries, tolerance)
