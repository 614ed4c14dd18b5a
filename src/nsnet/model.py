"""The frame sampler network and its losses.

Three parts share one encoding pass over a (T, D) video or a stacked
(B, T, D) batch, carried as (B*T, D) rows with fused multi-head attention:

* feature embedding: learnable positional embedding plus a pre-norm
  transformer encoder over the per-frame lightweight features;
* frame scrutinize head: a (C+1)-way linear classifier per frame, trained
  on non-saliency-suppression pseudo labels; its saliency score is the max
  softmax confidence over the C real categories, softmax-normalized along
  the time axis;
* video glimpse head: sigmoid + L1-normalized temporal attention, whose
  weights pool a salient video representation (attention) and a
  complementary non-salient one ((1 - a_i)/T); both go through a shared
  (C+1)-way classifier with dual targets (video category vs. the
  non-salient category).

Checkpoints use the NSC1 container: magic ``NSC1`` | u32 parameter count |
per parameter u16 name length, name bytes, u32 rank, u32 dims..., IEEE-754
32-bit values row-major; the model configuration rides in a ``.cfg`` text
sidecar of ``key=value`` lines, parsed as data.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, softmax_values
from .data import PARSE_ANNOTATION, atomic_write_bytes, atomic_write_text, read_key_values

CHECKPOINT_MAGIC = b"NSC1"
# Videos per graph-free forward in ``SamplerModel.saliency``: enough to
# amortize the per-op dispatch, few enough to keep inference's peak memory
# near that of a single video.
SALIENCY_BLOCK = 8


@dataclass
class ModelConfig:
    input_dim: int                  # width of the lightweight features
    num_classes: int
    max_frames: int                 # positional-embedding capacity
    encoder_layers: int = 2
    heads: int = 8
    ffn_dim: int | None = None      # defaults to input_dim
    dropout_pos_enc: float = 0.2
    dropout_cls: float = 0.9
    dropout_attn: float = 0.2
    gamma: float = 0.2              # weight of the non-salient video loss

    def __post_init__(self):
        if self.ffn_dim is None:
            self.ffn_dim = self.input_dim
        if self.input_dim % self.heads != 0:
            raise ValueError(
                f"input_dim {self.input_dim} not divisible by heads {self.heads}")
        for name in ("dropout_pos_enc", "dropout_cls", "dropout_attn"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if min(self.input_dim, self.num_classes, self.max_frames,
               self.encoder_layers, self.heads, self.ffn_dim) < 1:
            raise ValueError("all size fields must be positive")

    def to_text(self) -> str:
        return "\n".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)) + "\n"

    @classmethod
    def from_file(cls, path: str) -> "ModelConfig":
        """Parse a ``to_text`` sidecar: each key a field at most once, each
        value parsed by its field's type like a run file's."""
        values = read_key_values(path, {f.name: PARSE_ANNOTATION[f.type] for f in fields(cls)},
                                 "model configuration key")
        missing = [f.name for f in fields(cls) if f.name not in values and f.default is MISSING]
        if missing:
            raise ValueError(f"{path}: missing model configuration keys {missing}")
        return cls(**values)


@dataclass
class ForwardOutput:
    """Outputs for B videos (B=1 for a (T, D) input), attached to the
    gradient graph unless built under ``no_grad``; frame rows are
    video-major."""

    encoded: Tensor            # (B*T, D)
    fsm_logits: Tensor         # (B*T, C+1)
    attn: Tensor               # (B*T, 1), nonnegative, sums to 1 per video
    salient_logits: Tensor     # (B, C+1)
    nonsalient_logits: Tensor  # (B, C+1)


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class SamplerModel:
    """Parameter container plus the forward passes of all three parts."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        d, f = config.input_dim, config.ffn_dim
        c1 = config.num_classes + 1
        self._params: dict[str, Parameter] = {}

        def param(name, value):
            p = Parameter(name, value)
            self._params[name] = p
            return p

        self.pos_embedding = param(
            "pos_embedding", rng.normal(0.0, 0.02, size=(config.max_frames, d)))
        self.layers = []
        for i in range(config.encoder_layers):
            prefix = f"enc{i}."
            layer = {
                "ln1_gain": param(prefix + "ln1_gain", np.ones(d)),
                "ln1_bias": param(prefix + "ln1_bias", np.zeros(d)),
                "wq": param(prefix + "wq", _uniform_init(rng, d, (d, d))),
                "bq": param(prefix + "bq", np.zeros(d)),
                "wk": param(prefix + "wk", _uniform_init(rng, d, (d, d))),
                "bk": param(prefix + "bk", np.zeros(d)),
                "wv": param(prefix + "wv", _uniform_init(rng, d, (d, d))),
                "bv": param(prefix + "bv", np.zeros(d)),
                "wo": param(prefix + "wo", _uniform_init(rng, d, (d, d))),
                "bo": param(prefix + "bo", np.zeros(d)),
                "ln2_gain": param(prefix + "ln2_gain", np.ones(d)),
                "ln2_bias": param(prefix + "ln2_bias", np.zeros(d)),
                "w1": param(prefix + "w1", _uniform_init(rng, d, (d, f))),
                "b1": param(prefix + "b1", np.zeros(f)),
                "w2": param(prefix + "w2", _uniform_init(rng, f, (f, d))),
                "b2": param(prefix + "b2", np.zeros(d)),
            }
            self.layers.append(layer)
        self.fsm_w = param("fsm.w", _uniform_init(rng, d, (d, c1)))
        self.fsm_b = param("fsm.b", np.zeros(c1))
        self.attn_w = param("vgm.attn_w", _uniform_init(rng, d, (d, 1)))
        self.attn_b = param("vgm.attn_b", np.zeros(1))
        self.cls_w = param("vgm.cls_w", _uniform_init(rng, d, (d, c1)))
        self.cls_b = param("vgm.cls_b", np.zeros(c1))

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        return iter(self._params.items())

    def _as_batch(self, features: np.ndarray) -> np.ndarray:
        """(T, D) or (B, T, D) features as a checked (B, T, D) array."""
        x = np.asarray(features, dtype=np.float64)
        x = x[None] if x.ndim == 2 else x
        if x.ndim != 3 or x.shape[2] != self.config.input_dim or 0 in x.shape:
            raise ValueError(f"expected (T, {self.config.input_dim}) or (B, T, "
                             f"{self.config.input_dim}) features, got {np.shape(features)}")
        if x.shape[1] > self.config.max_frames:
            raise ValueError(f"video has {x.shape[1]} frames but positional capacity "
                             f"is {self.config.max_frames}")
        return x

    def _dropout_noise(self, b: int, t: int, train: bool,
                       rng: np.random.Generator | None) -> dict[str, np.ndarray]:
        """Uniform draws per active dropout site, drawn per video in the site
        order below, so the random stream does not depend on the batching."""
        cfg = self.config
        sites = [(name, rows) for name, rows, rate in (
            ("pos", t, cfg.dropout_pos_enc), ("fsm", t, cfg.dropout_cls),
            ("attn", t, cfg.dropout_attn), ("salient", 1, cfg.dropout_cls),
            ("nonsalient", 1, cfg.dropout_cls)) if train and rate > 0.0]
        if not sites:
            return {}
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        draws = rng.random((b, sum(rows for _, rows in sites), cfg.input_dim))
        ends = np.cumsum([rows for _, rows in sites])
        return {name: draws[:, end - rows:end].reshape(b * rows, -1)
                for (name, rows), end in zip(sites, ends)}

    # -- feature embedding ---------------------------------------------------

    def encode(self, features: np.ndarray, noise: np.ndarray | None = None) -> Tensor:
        """Positional embedding + dropout + pre-norm encoder blocks over
        (T, D) or (B, T, D) features; returns (B*T, D) rows, video-major."""
        features = self._as_batch(features)
        b, t, d = features.shape
        x = ad.add_position(ad.constant(features.reshape(b * t, d)), self.pos_embedding, t)
        x = ad.dropout(x, self.config.dropout_pos_enc, noise)
        for layer in self.layers:
            h = ad.layer_norm(x, layer["ln1_gain"], layer["ln1_bias"])
            context = ad.multi_head_attention(ad.linear(h, layer["wq"], layer["bq"]),
                                              ad.linear(h, layer["wk"], layer["bk"]),
                                              ad.linear(h, layer["wv"], layer["bv"]),
                                              b, self.config.heads)
            x = x + ad.linear(context, layer["wo"], layer["bo"])
            h2 = ad.layer_norm(x, layer["ln2_gain"], layer["ln2_bias"])
            hidden = ad.relu(ad.linear(h2, layer["w1"], layer["b1"]))
            x = x + ad.linear(hidden, layer["w2"], layer["b2"])
        return x

    # -- frame scrutinize ------------------------------------------------

    def fsm_forward(self, encoded: Tensor, noise: np.ndarray | None = None) -> Tensor:
        h = ad.dropout(encoded, self.config.dropout_cls, noise)
        return ad.linear(h, self.fsm_w, self.fsm_b)

    # -- video glimpse -----------------------------------------------------

    def vgm_attention(self, encoded: Tensor, batch: int = 1,
                      noise: np.ndarray | None = None) -> Tensor:
        """(B*T, 1) attention: sigmoid activations L1-normalized over each
        video's frames."""
        h = ad.dropout(encoded, self.config.dropout_attn, noise)
        raw = ad.sigmoid(ad.linear(h, self.attn_w, self.attn_b))
        return ad.l1_normalize(raw, batch)

    def vgm_representations(self, encoded: Tensor, attn: Tensor,
                            batch: int = 1) -> tuple[Tensor, Tensor]:
        """(B, D) salient pooling sum(a_i x_i) and its complement with weights
        (1 - a_i)/T; the complementary weights sum to (T-1)/T."""
        t = encoded.shape[0] // batch
        salient = ad.attention_pool(encoded, attn, batch)
        nonsalient = ad.attention_pool(encoded, (1.0 - attn) * (1.0 / t), batch)
        return salient, nonsalient

    def classify_video(self, representation: Tensor,
                       noise: np.ndarray | None = None) -> Tensor:
        h = ad.dropout(representation, self.config.dropout_cls, noise)
        return ad.linear(h, self.cls_w, self.cls_b)

    # -- whole network -------------------------------------------------------

    def forward(self, features: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> ForwardOutput:
        """One graph over (T, D) or a stacked (B, T, D) batch of videos."""
        features = self._as_batch(features)
        b, t, _ = features.shape
        noise = self._dropout_noise(b, t, train, rng)
        encoded = self.encode(features, noise.get("pos"))
        attn = self.vgm_attention(encoded, b, noise.get("attn"))
        salient, nonsalient = self.vgm_representations(encoded, attn, b)
        return ForwardOutput(
            encoded=encoded,
            fsm_logits=self.fsm_forward(encoded, noise.get("fsm")),
            attn=attn,
            salient_logits=self.classify_video(salient, noise.get("salient")),
            nonsalient_logits=self.classify_video(nonsalient, noise.get("nonsalient")),
        )

    def saliency(self, videos: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Inference scores (s_f, s_v), each (B, T), for B videos' (T, D)
        features from any iterable: eval-mode forwards under ``no_grad`` over
        blocks of at most SALIENCY_BLOCK videos, each block pulled from the
        iterable just before its forward."""
        videos = iter(videos)
        tracks = []
        with ad.no_grad():
            while block := list(itertools.islice(videos, SALIENCY_BLOCK)):
                block = np.stack(block)
                if block.ndim != 3:
                    raise ValueError(f"expected videos of (T, D) features, got {block.shape}")
                n, t, _ = block.shape
                out = self.forward(block)
                tracks.append((fsm_saliency(out.fsm_logits.value.reshape(n, t, -1)),
                               vgm_saliency(out.attn.value.reshape(n, t, 1))))
        s_f, s_v = zip(*tracks)
        return np.concatenate(s_f), np.concatenate(s_v)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


@dataclass
class LossBreakdown:
    total: Tensor
    frame: Tensor
    video_cls: Tensor
    video_ns: Tensor


def total_loss(output: ForwardOutput, frame_targets: np.ndarray,
               labels: Sequence[int], config: ModelConfig) -> LossBreakdown:
    """Batch means of the per-video video-level and frame-level losses;
    frame_targets are (B*T, C+1) rows."""
    c = config.num_classes
    b = output.salient_logits.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (b,) or np.any((labels < 0) | (labels >= c)):
        raise ValueError(f"expected {b} labels in [0, {c}), got {labels.tolist()}")
    one_hot = np.eye(c + 1)
    scale = 1.0 / b
    l_cls = scale * ad.soft_cross_entropy_rows(output.salient_logits, one_hot[labels])
    l_ns = scale * ad.soft_cross_entropy_rows(output.nonsalient_logits,
                                              one_hot[np.full(b, c)])
    l_f = scale * ad.soft_cross_entropy_rows(output.fsm_logits, frame_targets)
    total = l_cls + config.gamma * l_ns + l_f
    return LossBreakdown(total=total, frame=l_f, video_cls=l_cls, video_ns=l_ns)


# ---------------------------------------------------------------------------
# Saliency scores at inference time (plain arrays, no gradients)
# ---------------------------------------------------------------------------


def fsm_saliency(fsm_logits: np.ndarray) -> np.ndarray:
    """(..., T, C+1) frame logits to (..., T) scores: max softmax confidence
    over the real categories, then a softmax along the time axis."""
    logits = np.asarray(fsm_logits, dtype=np.float64)
    probs = softmax_values(logits, axis=-1)
    confidence = probs[..., :-1].max(axis=-1)
    return softmax_values(confidence, axis=-1)


def vgm_saliency(attn: np.ndarray) -> np.ndarray:
    """(..., T, 1) attention columns to (..., T) scores: the attention
    weights are the scores; kept as a named step so both granularities feed
    fusion the same way."""
    attn = np.asarray(attn, dtype=np.float64)
    if attn.ndim < 2 or attn.shape[-1] != 1:
        raise ValueError(f"expected (..., T, 1) attention, got shape {attn.shape}")
    return attn[..., 0].copy()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: SamplerModel, path: str) -> None:
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(model._params))]
    for name, p in model.named_parameters():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", p.value.ndim))
        chunks.append(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
        chunks.append(p.value.astype("<f4").tobytes(order="C"))
    atomic_write_bytes(path, b"".join(chunks))
    atomic_write_text(path + ".cfg", model.config.to_text())


def load_checkpoint(path: str) -> SamplerModel:
    """Read an NSC1 checkpoint and its ``.cfg`` sidecar. Any truncated,
    malformed or mismatched content raises ValueError naming the file."""
    model = SamplerModel(ModelConfig.from_file(path + ".cfg"), np.random.default_rng(0))
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(size: int, what: str) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise ValueError(f"{path}: truncated checkpoint: {what} needs {size} bytes "
                             f"at offset {offset}, file has {len(blob)}")
        offset += size
        return blob[offset - size:offset]

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic, not an NSC1 checkpoint")
    (count,) = struct.unpack("<I", take(4, "parameter count"))
    expected = dict(model.named_parameters())
    loaded: dict[str, np.ndarray] = {}
    for index in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"parameter {index} name length"))
        try:
            name = take(name_len, f"parameter {index} name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: parameter {index} name is not UTF-8") from None
        if name not in expected:
            raise ValueError(f"{path}: unexpected parameter {name!r}")
        if name in loaded:
            raise ValueError(f"{path}: duplicate parameter {name!r}")
        (rank,) = struct.unpack("<I", take(4, f"{name!r} rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"{name!r} dims"))
        size = math.prod(dims)
        values = np.frombuffer(take(4 * size, f"{name!r} values"), dtype="<f4")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: parameter {name!r} has non-finite values")
        loaded[name] = values.astype(np.float64).reshape(dims)
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes after {count} parameters")
    for name, p in expected.items():
        if name not in loaded:
            raise ValueError(f"{path}: checkpoint is missing parameter {name!r}")
        if loaded[name].shape != p.value.shape:
            raise ValueError(
                f"{path}: parameter {name!r} has shape {loaded[name].shape}, "
                f"expected {p.value.shape}")
        p.value = loaded[name]
    return model
