"""Feature storage and datasets.

Two bit-exact formats:

* NSF1 feature file (little-endian): magic ``NSF1`` | u32 N | u32 D |
  N*D IEEE-754 32-bit values, row-major.
* NSM1 manifest: UTF-8 text, header line ``NSM1 C=<int>``, then one record
  per line, tab-separated: video_id, label, light_path, guiding_path,
  logits_path[, mask_path]. Paths are resolved relative to the manifest's
  directory unless absolute. A manifest lists at least one video.

A command opens only the kinds of file it uses: ``prototypes`` guiding
and logits, ``train`` light (plus guiding with pseudo labels), ``eval``
and validation light, logits and mask, ``sample`` light. ``load_manifest``
parses the text alone; a split's files are read as ``FeatureBlock``s, each
file opened once and checked as it is read (magic, length, and a width held
to the first file of its kind), then each kind's frame counts, finiteness
and 0/1 mask entries are checked once over the block. ``prototypes``,
``train`` and ``sample`` read blocks of ``BLOCK`` videos in manifest order.
The one-video ``VideoRecord`` (light, logits and mask: ``load_record`` reads
no guiding file) is kept for the benchmark's requests. Feature rows stay
float32, as stored, until the arithmetic that needs float64 casts them.

Plus the one ``key=value`` reader (run configurations, checkpoint
sidecars, cost tables) and its value parsers, temporal pre-sampling and
a synthetic generator that plants per-frame saliency ground truth, with
an analytic nearest-centroid recognizer providing per-frame logits.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

FEATURE_MAGIC = b"NSF1"
MANIFEST_MAGIC = "NSM1"


class FeatureFormatError(ValueError):
    """Raised when an NSF1/NSM1 file is malformed."""


# ---------------------------------------------------------------------------
# Atomic file helpers (write to temp in the same directory, rename on success)
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` with the permissions the umask gives a
    new file; an OSError names ``path`` and leaves no temporary file behind.
    An empty ``path`` is refused before any file is touched."""
    if not path:
        raise ValueError("an output path must name a file, got ''")
    tmp = None
    try:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        name = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise OSError(f"failed writing {path}: {exc}") from exc


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Every CSV artifact: a float cell is its repr, None an empty cell and
    anything else its str."""
    def cell(x):
        return "" if x is None else repr(float(x)) if isinstance(x, float) else str(x)
    atomic_write_text(path, "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows]))


# ---------------------------------------------------------------------------
# key=value text files
# ---------------------------------------------------------------------------


def finite_float(text: str) -> float:
    """The parser of every float setting: nan and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


def optional_integer(text: str) -> int | None:
    return None if text.strip() == "None" else integer(text)


def boolean(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"must be a boolean, got {text!r}")


def integer_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    return tuple(integer(part) for part in text.split(",")) if text else ()


# The parser of a configuration dataclass field, by its annotation.
PARSE_ANNOTATION = {"int": integer, "int | None": optional_integer, "float": finite_float,
                    "bool": boolean, "tuple[int, ...]": integer_list, "str": str}


def read_lines(path: str) -> list[str]:
    """A UTF-8 text file's lines, split as a text-mode read splits them; a
    byte that is not UTF-8 raises a ValueError naming ``path:line``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return io.StringIO(blob.decode("utf-8"), newline=None).readlines()
    except UnicodeDecodeError as exc:
        line = len(io.StringIO(blob[:exc.start].decode("utf-8") + "?", newline=None).readlines())
        raise ValueError(f"{path}:{line}: not UTF-8 text: can't decode byte "
                         f"{blob[exc.start]:#04x}: {exc.reason}") from None


def read_key_values(path: str, parsers: dict[str, Callable[[str], Any]],
                    what: str) -> dict[str, Any]:
    """The keys a file of ``key=value`` lines sets, each value parsed by its
    key's parser (whose message follows the key); blank and ``#`` lines are
    skipped. An unknown (``what``) or repeated key or a rejected value
    raises a ValueError naming ``path:line``."""
    values: dict[str, Any] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, text = (part.strip() for part in line.partition("="))
        where = f"{path}:{lineno}"
        if not sep or key not in parsers:
            raise ValueError(f"{where}: unknown {what} {key!r}; "
                             f"expected one of {', '.join(parsers)}")
        if key in values:
            raise ValueError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = parsers[key](text)
        except ValueError as exc:
            raise ValueError(f"{where}: {key} {exc}") from None
    return values


# ---------------------------------------------------------------------------
# NSF1 feature files
# ---------------------------------------------------------------------------


def write_feature_file(path: str, matrix: np.ndarray) -> None:
    """Write an (N, D) matrix as 32-bit floats; read-back is exact at f32."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError(f"feature matrix must be 2-D and non-empty, got shape {matrix.shape}")
    n, d = matrix.shape
    payload = FEATURE_MAGIC + struct.pack("<II", n, d) \
        + matrix.astype("<f4").tobytes(order="C")
    atomic_write_bytes(path, payload)


def read_feature_file(path: str) -> np.ndarray:
    """An NSF1 file's (N, D) float32 values, a read-only view of the bytes
    read, once its magic, dims and exact byte length are checked. Every
    feature file is opened here, once per read."""
    with open(path, "rb", buffering=0) as fh:   # unbuffered: no BufferedReader around it
        blob = fh.readall()
    if len(blob) < 12 or blob[:4] != FEATURE_MAGIC:
        raise FeatureFormatError(f"{path}: bad magic, not an NSF1 feature file")
    n, d = struct.unpack("<II", blob[4:12])
    if len(blob) != 12 + 4 * n * d:
        raise FeatureFormatError(f"{path}: truncated or oversized payload, expected "
                                 f"{12 + 4 * n * d} bytes, got {len(blob)}")
    return np.frombuffer(blob, dtype="<f4", offset=12).reshape(n, d)


# ---------------------------------------------------------------------------
# Video records, blocks and manifests
# ---------------------------------------------------------------------------


# A video's files in manifest order: kind -> (name in messages, dims key of its width).
KINDS = {"light": ("light_features", "D_l"), "guiding": ("guiding_features", "D_g"),
         "logits": ("recognizer_logits", "C"), "mask": ("saliency_mask", "width")}
SCORED_KINDS = ("light", "logits", "mask")   # the files a scored video is gathered from


def stack_frames(video_ids: Sequence[str], files: dict[str, list[np.ndarray]]
                 ) -> tuple[list[int], dict[str, np.ndarray]]:
    """The videos' frame counts and each kind's per-video arrays (a mask's
    one value per row) stacked into one, once every video has one frame
    count (>= 1), finite features and a 0/1 mask. The first video in order
    with a fault is named, with its first fault in kind order."""
    n, faults, stacked = list(map(len, next(iter(files.values())))), [], {}
    for kind, arrays in files.items():   # each check's first offending video, in order
        name, count = KINDS[kind][0], list(map(len, arrays))
        arr = stacked[kind] = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        if count != n:
            v = next(v for v, (have, want) in enumerate(zip(count, n)) if have != want)
            faults.append((v, f"{name} has {count[v]} frames, expected {n[v]}"))
        if kind == "mask" and np.count_nonzero(arr) != np.count_nonzero(arr == 1.0):
            row = np.argmax((arr != 0) & (arr != 1))
            faults.append((np.searchsorted(np.cumsum(count), row, side="right"),
                           f"{name} entries must be 0 or 1"))
        if kind != "mask" and not np.isfinite(arr).all():
            row = np.argmax(~np.isfinite(arr).all(axis=1))
            faults.append((np.searchsorted(np.cumsum(count), row, side="right"),
                           f"{name} has non-finite values"))
    if min(n) < 1:
        faults.append((n.index(min(n)), "needs at least one frame"))
    if faults:   # min keeps the first fault of the first video
        v, message = min(faults, key=lambda fault: fault[0])
        raise ValueError(f"{video_ids[v]}: {message}")
    return n, stacked


@dataclass
class VideoRecord:
    """One video: identity, label and the per-frame arrays (aligned on axis 0)."""

    video_id: str
    label: int
    light_features: np.ndarray      # (N, D_l) sampler input features
    recognizer_logits: np.ndarray   # (N, C)
    saliency_mask: np.ndarray | None = None  # (N,) of {0,1}, synthetic only

    def __post_init__(self):
        if self.saliency_mask is not None:
            self.saliency_mask = np.asarray(self.saliency_mask, dtype=np.float64).reshape(-1)
        stack_frames([self.video_id], {kind: [a] for kind in SCORED_KINDS
                                       if (a := getattr(self, KINDS[kind][0])) is not None})
        if self.label < 0:
            raise ValueError(f"{self.video_id}: negative label {self.label}")

    @property
    def num_frames(self) -> int:
        return self.light_features.shape[0]


@dataclass
class FeatureBlock:
    """V videos with per-frame arrays of some kinds (their files, or a
    training split's light rows and guiding saliency g), each kind one array
    of all their frame rows, video after video (``stack_frames``)."""

    video_ids: list[str]
    labels: list[int]
    lengths: list[int]              # frame count of each video
    arrays: dict[str, np.ndarray]   # kind -> (rows, width), or (rows,) for a mask

    @classmethod
    def of(cls, records: Iterable[VideoRecord]) -> FeatureBlock:
        """The records' SCORED_KINDS stacked into one block, as ``read``
        stacks their files; a record without a mask gets zeros."""
        records = list(records)
        if not records:
            raise ValueError("no videos to score")
        ids = [r.video_id for r in records]
        return cls(ids, [r.label for r in records], *stack_frames(ids, {
            kind: [np.zeros(r.num_frames) if (a := getattr(r, KINDS[kind][0])) is None else a
                   for r in records] for kind in SCORED_KINDS}))

    @property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    def per_video(self, kind: str) -> list[np.ndarray]:
        """Each video's rows of ``kind``, a view of the block's array."""
        return np.split(self.arrays[kind], self.starts[1:])


# Videos per block: per read of a split by ``DatasetManifest.blocks`` and per
# graph-free trunk pass in ``SamplerModel.saliency``; enough to amortize the
# per-call work, and a pass peaks at 1.4 MiB traced (0.7 at 8; T=16, D=32).
BLOCK = 16


@dataclass
class ManifestEntry:
    video_id: str
    label: int
    light_path: str
    guiding_path: str
    logits_path: str
    mask_path: str | None = None
    line: int = 0                   # the manifest line that lists it


@dataclass
class DatasetManifest:
    path: str
    num_classes: int
    entries: list[ManifestEntry] = field(default_factory=list)
    # each kind's width: C from the header, 1 for a mask, D_l and D_g from
    # the first file of their kind read
    dims: dict[str, int] = field(default_factory=dict)

    def _read(self, entry: ManifestEntry, kind: str) -> np.ndarray:
        """The video's file of ``kind``, held to the split's width as it is read."""
        path, key = getattr(entry, kind + "_path"), KINDS[kind][1]
        try:
            arr = read_feature_file(path)
        except (FileNotFoundError, IsADirectoryError):
            raise FeatureFormatError(
                f"{self.path}:{entry.line}: missing {kind} file {path}") from None
        width = self.dims.setdefault(key, arr.shape[1])
        if arr.shape[1] != width:
            raise FeatureFormatError(f"{path}: {kind} width {arr.shape[1]} disagrees "
                                     f"with {key}={width} of manifest {self.path}")
        return arr.reshape(-1) if kind == "mask" else arr

    def read(self, kinds: Iterable[str],
             entries: Sequence[ManifestEntry] | None = None) -> FeatureBlock:
        """The videos of ``entries`` (all by default) with their files of
        ``kinds`` as float32, each file opened once, in manifest order, and
        no other; a video that lists no mask gets zeros."""
        entries = self.entries if entries is None else entries
        kinds = [kind for kind in KINDS if kind in kinds]
        files: dict[str, list[np.ndarray]] = {kind: [] for kind in kinds}
        for e in entries:
            for kind in kinds:
                files[kind].append(self._read(e, kind) if kind != "mask" or e.mask_path
                                   else np.zeros(len(files[kinds[0]][-1]), np.float32))
        ids = [e.video_id for e in entries]
        return FeatureBlock(ids, [e.label for e in entries], *stack_frames(ids, files))

    def blocks(self, kinds: Iterable[str]) -> Iterator[FeatureBlock]:
        """``read`` over BLOCK videos at a time, in manifest order, each
        block read as it is drawn."""
        kinds = tuple(kinds)
        for first in range(0, len(self.entries), BLOCK):
            yield self.read(kinds, self.entries[first:first + BLOCK])

    def load_record(self, entry: ManifestEntry) -> VideoRecord:
        """The video's listed SCORED_KINDS files; VideoRecord checks them together."""
        return VideoRecord(entry.video_id, entry.label,
                           *[self._read(entry, kind) for kind in SCORED_KINDS
                             if kind != "mask" or entry.mask_path is not None])

    def load_all(self) -> list[VideoRecord]:
        return [self.load_record(e) for e in self.entries]


def write_manifest(path: str, num_classes: int, entries: Sequence[ManifestEntry]) -> None:
    lines = [f"{MANIFEST_MAGIC} C={num_classes}"]
    for e in entries:
        fields = [e.video_id, str(e.label), e.light_path, e.guiding_path, e.logits_path]
        if e.mask_path is not None:
            fields.append(e.mask_path)
        lines.append("\t".join(fields))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_manifest(path: str) -> DatasetManifest:
    """Parse and validate a manifest's text: header, fields, labels and
    unique ids. No feature file is opened here: a missing one is reported,
    naming ``path:line``, when a command reads its kind. Errors name
    ``path:line``, counting blank lines."""
    lines = [(lineno, ln.rstrip("\n")) for lineno, ln in enumerate(read_lines(path), start=1)
             if ln.strip()]
    first = lines[0][1] if lines else ""
    if not first.startswith(MANIFEST_MAGIC + " "):
        raise FeatureFormatError(f"{path}: missing '{MANIFEST_MAGIC} C=<int>' header")
    header = first.split()
    if len(header) != 2 or not header[1].startswith("C="):
        raise FeatureFormatError(f"{path}: malformed header {first!r}")
    try:
        num_classes = int(header[1][2:])
    except ValueError:
        raise FeatureFormatError(f"{path}: malformed class count in {first!r}") from None
    if num_classes < 1:
        raise FeatureFormatError(f"{path}: class count must be positive, got {num_classes}")

    base = os.path.dirname(os.path.abspath(path))
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) not in (5, 6):
            raise FeatureFormatError(f"{path}:{lineno}: expected 5 or 6 tab-separated fields")
        video_id, label_s = fields[0], fields[1]
        if video_id in seen:
            raise FeatureFormatError(f"{path}:{lineno}: duplicate video_id {video_id!r}")
        seen.add(video_id)
        try:
            label = int(label_s)
        except ValueError:
            raise FeatureFormatError(
                f"{path}:{lineno}: label {label_s!r} is not an integer") from None
        if not 0 <= label < num_classes:
            raise FeatureFormatError(
                f"{path}:{lineno}: label {label} out of range for C={num_classes}")
        entries.append(ManifestEntry(video_id, label, *(os.path.join(base, p) for p in fields[2:]),
                                     line=lineno))
    if not entries:
        raise FeatureFormatError(f"{path}: lists no videos")
    return DatasetManifest(path=os.path.abspath(path), num_classes=num_classes,
                           entries=entries, dims={"C": num_classes, "width": 1})


# ---------------------------------------------------------------------------
# Temporal pre-sampling
# ---------------------------------------------------------------------------


@dataclass
class PresampleConfig:
    """Observation budget: every video is reduced/extended to exactly
    ``frames`` frames before the sampler sees it."""

    frames: int

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")


def presample_indices(num_frames: int | np.ndarray, cfg: PresampleConfig,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Frame indices for uniform pre-sampling: (T,) for one frame count N,
    (V, T) rows for an array of V counts.

    For N >= T, segment centers floor((i + 0.5) * N / T); given an ``rng``,
    each such video's frames are shifted by one random integer offset in
    [0, N // T] (clamped at N - 1), all drawn in one ``rng.integers`` call
    in video order. For N < T the sequence is tiled cyclically and draws
    nothing.
    """
    t = cfg.frames
    counts = np.asarray(num_frames, dtype=np.int64)
    n = counts.reshape(-1, 1)
    long = n >= t
    idx = np.where(long, np.floor((np.arange(t) + 0.5) * n / t).astype(np.int64),
                   np.arange(t) % n)
    if rng is not None:
        offsets = np.zeros_like(n)
        offsets[long] = rng.integers(0, n[long] // t + 1)
        idx = np.minimum(idx + offsets, n - 1)
    return idx.reshape(counts.shape + (t,))


def presample(record: VideoRecord, cfg: PresampleConfig) -> VideoRecord:
    """The record at the observation length, without shift; one that already
    has exactly ``cfg.frames`` frames is returned as it is."""
    if record.num_frames == cfg.frames:
        return record
    i = presample_indices(record.num_frames, cfg)
    return VideoRecord(record.video_id, record.label, record.light_features[i],
                       record.recognizer_logits[i],
                       None if record.saliency_mask is None else record.saliency_mask[i])


# ---------------------------------------------------------------------------
# Synthetic dataset with planted saliency
# ---------------------------------------------------------------------------


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / max(float(np.linalg.norm(v)), 1e-12)


def _distinct_unit_vector(rng: np.random.Generator, dim: int,
                          existing: list[np.ndarray]) -> np.ndarray:
    for _ in range(1000):
        v = _unit_vector(rng, dim)
        if all(abs(float(v @ e)) <= 0.9 for e in existing):
            return v
    raise RuntimeError(f"could not draw a distinct unit vector in dimension {dim}")


def generate_synthetic_dataset(out_dir: str,
                               num_classes: int,
                               videos_per_class: int,
                               num_frames: int,
                               light_dim: int,
                               guiding_dim: int,
                               salient_fraction: float,
                               noise_sigma: float,
                               seed: int,
                               val_videos_per_class: int) -> tuple[str, str | None]:
    """Plant a recoverable saliency structure and write it to disk.

    Per class, unit-norm centroids are drawn in both feature spaces. Each
    video gets ceil(salient_fraction * N) randomly placed salient frames
    whose features are the class centroid plus Gaussian noise; the other
    frames draw from a shared pool of background centroids (kept away from
    every class centroid). Per-frame recognizer logits are the negated
    Euclidean distances to the class centroids in guiding space, so an
    analytic oracle recognizer exists by construction. Returns the train
    manifest path and, when ``val_videos_per_class`` > 0, the val manifest
    path; ``seed`` fixes every byte of the output.
    """
    if not 0.0 < salient_fraction <= 1.0:
        raise ValueError(f"salient_fraction must be in (0, 1], got {salient_fraction}")
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if min(videos_per_class, num_frames, light_dim, guiding_dim) < 1:
        raise ValueError("videos_per_class, num_frames and dims must be >= 1")
    if val_videos_per_class < 0:
        raise ValueError(f"val_videos_per_class must be >= 0, got {val_videos_per_class}")

    rng = np.random.default_rng(seed)
    class_light = [_unit_vector(rng, light_dim) for _ in range(num_classes)]
    class_guide = [_unit_vector(rng, guiding_dim) for _ in range(num_classes)]
    num_background = max(4, num_classes)
    bg_light: list[np.ndarray] = []
    bg_guide: list[np.ndarray] = []
    for _ in range(num_background):
        bg_light.append(_distinct_unit_vector(rng, light_dim, class_light + bg_light))
        bg_guide.append(_distinct_unit_vector(rng, guiding_dim, class_guide + bg_guide))
    guide_matrix = np.stack(class_guide)

    feat_dir = os.path.join(out_dir, "feats")
    os.makedirs(feat_dir, exist_ok=True)
    num_salient = math.ceil(salient_fraction * num_frames)

    def make_split(split: str, count: int) -> list[ManifestEntry]:
        entries = []
        for c in range(num_classes):
            for v in range(count):
                vid = f"{split}_c{c:03d}_v{v:04d}"
                salient = np.sort(rng.choice(num_frames, size=num_salient, replace=False))
                mask = np.zeros(num_frames)
                mask[salient] = 1.0
                light = np.empty((num_frames, light_dim))
                guide = np.empty((num_frames, guiding_dim))
                for i in range(num_frames):
                    if mask[i] == 1.0:
                        base_l, base_g = class_light[c], class_guide[c]
                    else:
                        pool = int(rng.integers(num_background))
                        base_l, base_g = bg_light[pool], bg_guide[pool]
                    light[i] = base_l + noise_sigma * rng.standard_normal(light_dim)
                    guide[i] = base_g + noise_sigma * rng.standard_normal(guiding_dim)
                logits = -np.linalg.norm(guide[:, None, :] - guide_matrix[None, :, :], axis=2)
                paths = []
                for kind, arr in (("light", light), ("guide", guide),
                                  ("logits", logits), ("mask", mask.reshape(-1, 1))):
                    paths.append(os.path.join("feats", f"{vid}.{kind}.nsf"))
                    write_feature_file(os.path.join(out_dir, paths[-1]), arr)
                entries.append(ManifestEntry(vid, c, *paths))
        return entries

    train_entries = make_split("train", videos_per_class)
    train_path = os.path.join(out_dir, "train.nsm")
    write_manifest(train_path, num_classes, train_entries)
    val_path = None
    if val_videos_per_class > 0:
        val_entries = make_split("val", val_videos_per_class)
        val_path = os.path.join(out_dir, "val.nsm")
        write_manifest(val_path, num_classes, val_entries)
    return train_path, val_path
