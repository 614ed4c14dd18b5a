"""The frame sampler network and its losses.

Every parameter is declared once, in ``parameter_table``: an ordered map
of name to shape whose order is both the NSC1 order and the order of the
initial draws (``initial_value``). ``SamplerModel.params`` maps each name
to its ``Parameter``, and ``SamplerModel.forward`` builds the whole graph
from the autodiff ops over a (T, D) video or a stacked (B, T, D) batch,
carried as (B*T, D) rows, each encoder layer one graph node. Inference
(``saliency``) builds only the trunk, the first three parts:

* feature embedding: learnable positional embedding plus a pre-norm
  transformer encoder over the per-frame lightweight features;
* frame scrutinize logits: a (C+1)-way linear classifier per frame, trained
  on non-saliency-suppression pseudo labels; its saliency score is the max
  softmax confidence over the C real categories, softmax-normalized along
  the time axis;
* video glimpse attention: sigmoid + L1-normalized temporal weights a_i;
* training heads: the attention pools a salient video representation and
  (1 - a_i)/T a complementary non-salient one, both through a shared
  (C+1)-way classifier with dual targets (video vs. non-salient category).

Checkpoints use the NSC1 container: magic ``NSC1`` | u32 parameter count |
per parameter u16 name length, name bytes, u32 rank, u32 dims..., IEEE-754
32-bit values row-major; the model configuration rides in a ``.cfg`` text
sidecar of ``key=value`` lines, parsed as data.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import MISSING, dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor, softmax_values
from .data import BLOCK, PARSE_ANNOTATION, atomic_write_bytes, atomic_write_text, \
    read_key_values

CHECKPOINT_MAGIC = b"NSC1"


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
        if min(self.input_dim, self.num_classes, self.max_frames,
               self.encoder_layers, self.heads, self.ffn_dim) < 1:
            raise ValueError("all size fields must be positive")
        if self.input_dim % self.heads != 0:
            raise ValueError(
                f"input_dim {self.input_dim} not divisible by heads {self.heads}")
        for name in ("dropout_pos_enc", "dropout_cls", "dropout_attn"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")

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

    fsm_logits: Tensor         # (B*T, C+1)
    attn: Tensor               # (B*T, 1), nonnegative, sums to 1 per video
    salient_logits: Tensor     # (B, C+1)
    nonsalient_logits: Tensor  # (B, C+1)


def parameter_table(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape by name, in NSC1 checkpoint order."""
    d, f, c1 = config.input_dim, config.ffn_dim, config.num_classes + 1
    table = {"pos_embedding": (config.max_frames, d)}
    for i in range(config.encoder_layers):
        table.update((f"enc{i}.{name}", shape) for name, shape in (
            ("ln1_gain", (d,)), ("ln1_bias", (d,)),
            ("wq", (d, d)), ("bq", (d,)), ("wk", (d, d)), ("bk", (d,)),
            ("wv", (d, d)), ("bv", (d,)), ("wo", (d, d)), ("bo", (d,)),
            ("ln2_gain", (d,)), ("ln2_bias", (d,)),
            ("w1", (d, f)), ("b1", (f,)), ("w2", (f, d)), ("b2", (d,))))
    return table | {"fsm.w": (d, c1), "fsm.b": (c1,), "vgm.attn_w": (d, 1),
                    "vgm.attn_b": (1,), "vgm.cls_w": (d, c1), "vgm.cls_b": (c1,)}


def initial_value(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """N(0, 0.02^2) draws for the positional embedding, U(+-1/sqrt(rows)) for a
    weight matrix, ones for a layer-norm gain and zeros for any other vector."""
    if name == "pos_embedding":
        return rng.normal(0.0, 0.02, size=shape)
    if len(shape) == 2:
        bound = 1.0 / math.sqrt(shape[0])
        return rng.uniform(-bound, bound, size=shape)
    return np.ones(shape) if name.endswith("_gain") else np.zeros(shape)


class SamplerModel:
    """The parameters, by name in ``parameter_table`` order, and the forward
    graph of all three parts."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.params = {name: Parameter(name, initial_value(name, shape, rng))
                       for name, shape in parameter_table(config).items()}

    def _trunk(self, features: np.ndarray, train: bool, rng: np.random.Generator | None
               ) -> tuple[Tensor, Tensor, Tensor, dict[str, np.ndarray], tuple[int, int]]:
        """The trunk: encoded rows, frame logits and attention, the draws,
        and the batch's (B, T).

        Train mode draws uniforms for each active dropout site per video, in
        the order pos, fsm, attn, salient, nonsalient, so the random stream
        depends neither on the batching nor on whether the heads are built."""
        cfg, p = self.config, self.params
        x = np.asarray(features, dtype=np.float64)
        x = x[None] if x.ndim == 2 else x
        if x.ndim != 3 or x.shape[2] != cfg.input_dim or 0 in x.shape:
            raise ValueError(f"expected (T, {cfg.input_dim}) or (B, T, {cfg.input_dim}) "
                             f"features, got {np.shape(features)}")
        b, t, d = x.shape
        if t > cfg.max_frames:
            raise ValueError(f"video has {t} frames but positional capacity "
                             f"is {cfg.max_frames}")
        sites = [(name, rows) for name, rows, rate in (
            ("pos", t, cfg.dropout_pos_enc), ("fsm", t, cfg.dropout_cls),
            ("attn", t, cfg.dropout_attn), ("salient", 1, cfg.dropout_cls),
            ("nonsalient", 1, cfg.dropout_cls)) if train and rate > 0.0]
        noise = {}
        if sites:
            if rng is None:
                raise ValueError("train-mode dropout needs an rng")
            draws = rng.random((b, sum(rows for _, rows in sites), d))
            ends = np.cumsum([rows for _, rows in sites])
            noise = {name: draws[:, end - rows:end].reshape(b * rows, d)
                     for (name, rows), end in zip(sites, ends)}

        # feature embedding: positions, dropout, pre-norm encoder blocks, each
        # taking its 16 parameters in table order, right after pos_embedding
        h = ad.add_position(ad.constant(x.reshape(b * t, d)), p["pos_embedding"], t)
        h = ad.dropout(h, cfg.dropout_pos_enc, noise.get("pos"))
        layers = list(p.values())[1:1 + 16 * cfg.encoder_layers]
        for i in range(0, len(layers), 16):
            h = ad.encoder_block(h, layers[i:i + 16], b, cfg.heads)

        # video glimpse attention over each video's frames
        raw = ad.linear(ad.dropout(h, cfg.dropout_attn, noise.get("attn")),
                        p["vgm.attn_w"], p["vgm.attn_b"])
        attn = ad.l1_normalize(ad.sigmoid(raw), b)
        # frame scrutinize: a (C+1)-way classifier per frame
        fsm_logits = ad.linear(ad.dropout(h, cfg.dropout_cls, noise.get("fsm")),
                               p["fsm.w"], p["fsm.b"])
        return h, fsm_logits, attn, noise, (b, t)

    def forward(self, features: np.ndarray, train: bool = False,
                rng: np.random.Generator | None = None) -> ForwardOutput:
        """One graph over (T, D) features or a stacked (B, T, D) batch: the
        trunk, then the training heads."""
        cfg, p = self.config, self.params
        h, fsm_logits, attn, noise, (b, t) = self._trunk(features, train, rng)
        salient = ad.attention_pool(h, attn, b)
        nonsalient = ad.attention_pool(h, (1.0 - attn) * (1.0 / t), b)
        cls_w, cls_b = p["vgm.cls_w"], p["vgm.cls_b"]
        salient = ad.linear(ad.dropout(salient, cfg.dropout_cls, noise.get("salient")),
                            cls_w, cls_b)
        nonsalient = ad.linear(ad.dropout(nonsalient, cfg.dropout_cls, noise.get("nonsalient")),
                               cls_w, cls_b)
        return ForwardOutput(fsm_logits=fsm_logits, attn=attn, salient_logits=salient,
                             nonsalient_logits=nonsalient)

    def saliency(self, light: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inference scores (s_f, s_v), each (B, T), for B videos' (B, T, D)
        features: one eval-mode trunk pass under ``no_grad`` per slice of at
        most BLOCK videos, no training head built."""
        shape = np.shape(light)
        if len(shape) != 3:
            raise ValueError(f"expected videos of (T, D) features, got {shape}")
        if shape[0] == 0:
            raise ValueError("no videos to score")
        t, c1 = shape[1], self.config.num_classes + 1
        tracks = []
        with ad.no_grad():
            for i in range(0, len(light), BLOCK):
                _, fsm_logits, attn, _, _ = self._trunk(light[i:i + BLOCK], False, None)
                tracks.append((fsm_saliency(fsm_logits.value.reshape(-1, t, c1)),
                               vgm_saliency(attn.value.reshape(-1, t, 1))))
        return tuple(map(np.concatenate, zip(*tracks)))


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
    probs = softmax_values(fsm_logits)
    confidence = probs[..., :-1].max(axis=-1)
    return softmax_values(confidence)


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
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", len(model.params))]
    for name, p in model.params.items():
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
    malformed or mismatched content raises ValueError naming the file; each
    parameter's shape is checked against the sidecar's before its values
    are read, and nothing is drawn."""
    config = ModelConfig.from_file(path + ".cfg")
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
    # no more entries than the file declares or its bytes hold (6+ each)
    needed = 16 * config.encoder_layers + 7
    if needed > max(count, (len(blob) - offset) // 6):
        raise ValueError(f"{path}: the sidecar's {config.encoder_layers} encoder layers need "
                         f"{needed} parameters, the checkpoint has {count} in {len(blob)} bytes")
    layer = parameter_table(replace(config, encoder_layers=1))   # enc0 shapes every layer
    loaded: dict[str, np.ndarray] = {}
    for index in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"parameter {index} name length"))
        try:
            name = take(name_len, f"parameter {index} name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: parameter {index} name is not UTF-8") from None
        m = re.fullmatch(r"enc([1-9][0-9]{0,9})(\..*)", name)
        shape = layer.get("enc0" + m[2] if m and int(m[1]) < config.encoder_layers else name)
        if shape is None:
            raise ValueError(f"{path}: unexpected parameter {name!r}")
        if name in loaded:
            raise ValueError(f"{path}: duplicate parameter {name!r}")
        (rank,) = struct.unpack("<I", take(4, f"{name!r} rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"{name!r} dims"))
        if dims != shape:
            raise ValueError(f"{path}: parameter {name!r} has shape {dims}, expected {shape}")
        values = np.frombuffer(take(4 * math.prod(dims), f"{name!r} values"), dtype="<f4")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: parameter {name!r} has non-finite values")
        loaded[name] = values.astype(np.float64).reshape(dims)
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes after {count} parameters")
    expected = parameter_table(config)   # now known to be no larger than the file
    missing = [name for name in expected if name not in loaded]
    if missing:
        raise ValueError(f"{path}: checkpoint is missing parameter {missing[0]!r}")
    model = SamplerModel.__new__(SamplerModel)   # the loaded values, no initial draw
    model.config, model.params = config, {name: Parameter(name, loaded[name]) for name in expected}
    return model
