"""The benchmark's three workloads: train, sweep and sample.

Each workload drives the program only through ``nsnet.cli.main``, the names
exported from ``nsnet/__init__.py`` and ``DatasetManifest.load_record``, and
always looks them up on the module at call time so the traced run's
wrappers apply. Inputs come from ``nsnet synth`` with a data seed derived
from the workload seed; seed 0 is the acceptance config of
``tests/conftest.py`` (data seed 2024, train seed 7).

A workload is set up (timed, repeated by the runner), prepared (reference
results for the checks, untimed) and then run in units of work until the
measuring time is used up. A unit is a sequence of operations, each timed
on its own. Checks never run inside a timed operation; those that call
the program run after the last unit, so they are never traced either.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time
from array import array
from dataclasses import dataclass

import numpy as np

import nsnet
import nsnet.cli

MODES = ("score_add", "score_mul", "score_max",
         "index_union", "index_intersect", "index_join")
METHODS = ("nsnet", "uniform", "random", "dense", "topk_confidence")
RATIO = 0.6
T = 16      # frames the sampler sees
K = 4       # frames selected per video
LOSS_COLUMNS = ("loss", "loss_f", "loss_cls", "loss_ns")


@dataclass(frozen=True)
class Scale:
    """Sizes of the generated inputs and of one unit of work. The defaults
    are the acceptance config; tests use a toy scale."""

    classes: int = 10
    videos_per_class: int = 40
    val_videos_per_class: int = 10
    frames: int = 32              # original frames of train/val videos
    dim: int = 32                 # light and guiding feature width
    batch_size: int = 16
    k_list: tuple[int, ...] = (2, 4, 8, 16)
    unit_epochs: int = 5          # epochs of one measured `nsnet train` call
    setup_epochs: int = 1         # epochs of the checkpoint sweep and sample use
    sample_lengths: tuple[int, ...] = (8, 16, 128)
    sample_videos_per_class: int = 4
    sample_passes: int = 8        # passes over the sample videos in one unit

    @property
    def train_videos(self) -> int:
        return self.classes * self.videos_per_class

    @property
    def val_videos(self) -> int:
        return self.classes * self.val_videos_per_class


class CheckFailed(Exception):
    """An output failed a correctness check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError)


def _array(x) -> np.ndarray:
    return np.asarray(getattr(x, "value", x))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _recall(selected, mask) -> float | None:
    if mask is None:
        return None
    planted = np.flatnonzero(np.asarray(mask).reshape(-1) > 0.5)
    if planted.size == 0:
        return None
    return len(set(selected) & set(planted.tolist())) / planted.size


def cli(argv: list[str]) -> tuple[int, str]:
    """Run one nsnet command in-process; returns the exit code and the
    captured output (stdout then stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nsnet.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _must(argv: list[str]) -> None:
    code, text = cli(argv)
    if code != 0:
        raise RuntimeError(f"setup command `nsnet {argv[0]}` exited {code}: {text.strip()}")


def _run_cli(*commands: list[str]) -> str | None:
    """Run nsnet commands in order; the first non-zero exit is the error."""
    for argv in commands:
        code, text = cli(argv)
        if code != 0:
            return f"exit {code}: {text.strip()}"
    return None


class Workload:
    """Subclasses define ``name``, ``videos_per_unit`` (videos one unit
    evaluates), setup(repeat), prepare(), unit(index), items_per_unit(),
    check() and quality(), which returns (top1, recall) as a user of the
    workload sees them.

    Operations are kept as one float each (plus an entry in ``errors`` when
    one fails), so the harness adds next to nothing to the run's memory.
    Every set-up, and every unit that writes files, gets a directory of its
    own: deleting thousands of files on this disk slows the writes that
    follow, so nothing is deleted before the run ends.
    """

    name = ""

    def __init__(self, work_dir: str, seed: int, scale: Scale = Scale()):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.work = work_dir
        self.seed = seed
        self.scale = scale
        self.data_seed = 2024 + seed
        self.train_seed = 7 + seed
        self.seconds = array("d")          # one entry per operation
        self.errors: dict[int, str] = {}   # operation index -> why it failed
        self.units: list[range] = []       # operation indices of each unit
        self.clock = time.perf_counter     # times operations; the runner's leaves
                                           # out its own kernel runs

    def run_unit(self) -> float:
        """Run one unit; returns the summed time of its operations."""
        first = len(self.seconds)
        self.unit(len(self.units))
        self.units.append(range(first, len(self.seconds)))
        return math.fsum(self.seconds[first:])

    def _timed(self, call) -> int:
        """Time one operation. ``call`` returns an error or None; an
        exception fails the operation too. Returns the operation's index."""
        started = self.clock()
        try:
            error = call()
        except Exception as exc:  # a crash fails the operation, not the harness
            error = f"{type(exc).__name__}: {exc}"
        self.seconds.append(self.clock() - started)
        index = len(self.seconds) - 1
        if error is not None:
            self.errors[index] = error
        return index

    def _fail(self, index: int, error: str) -> None:
        self.errors.setdefault(index, error)

    # -- shared setup pieces -------------------------------------------------

    def _new_dir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        os.makedirs(path)
        return path

    def _synth(self, out_dir: str, frames: int, videos: int, val_videos: int) -> None:
        s = self.scale
        _must(["synth", "--out-dir", out_dir, "--classes", str(s.classes),
               "--videos-per-class", str(videos),
               "--val-videos-per-class", str(val_videos),
               "--frames", str(frames), "--light-dim", str(s.dim),
               "--guiding-dim", str(s.dim), "--salient-fraction", "0.25",
               "--noise-sigma", "0.3", "--seed", str(self.data_seed)])

    def _train_argv(self, data: str, protos: str, out_dir: str, epochs: int) -> list[str]:
        s = self.scale
        return ["train", "--train-manifest", os.path.join(data, "train.nsm"),
                "--val-manifest", os.path.join(data, "val.nsm"),
                "--prototypes", protos, "--out-dir", out_dir,
                "--epochs", str(epochs), "--batch-size", str(s.batch_size),
                "--frames", str(T), "--lr-decay-epochs", "",
                "--k", str(K), "--fusion", "index_union", "--ratio", str(RATIO),
                "--seed", str(self.train_seed)]

    def _setup_checkpoint(self, repeat: int) -> None:
        """Train-split data plus a short training run: the checkpoint that
        sweep and sample evaluate."""
        s = self.scale
        self.data = self._new_dir(f"setup{repeat}")
        self._synth(self.data, s.frames, s.videos_per_class, s.val_videos_per_class)
        protos = os.path.join(self.data, "protos.nsf")
        _must(["prototypes", "--manifest", os.path.join(self.data, "train.nsm"),
               "--out", protos])
        run = os.path.join(self.data, "run")
        _must(self._train_argv(self.data, protos, run, s.setup_epochs))
        self.checkpoint = os.path.join(run, "last.nsc1")


# ---------------------------------------------------------------------------
# train: `nsnet prototypes` + `nsnet train` on the acceptance config
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    name = "train"
    known_digest: str | None = None   # artifacts of an earlier run, same code and seed

    @property
    def videos_per_unit(self) -> int:
        return self.scale.train_videos + self.scale.val_videos

    def items_per_unit(self) -> int:
        return self.scale.unit_epochs * self.scale.train_videos

    def setup(self, repeat: int) -> None:
        s = self.scale
        self.data = self._new_dir(f"setup{repeat}")
        self._synth(self.data, s.frames, s.videos_per_class, s.val_videos_per_class)
        nsnet.load_manifest(os.path.join(self.data, "train.nsm"))
        nsnet.load_manifest(os.path.join(self.data, "val.nsm"))

    def prepare(self) -> None:
        """Recall of the uniform baseline at K on the same val videos."""
        pre = nsnet.PresampleConfig(frames=T)
        recalls = []
        for record in nsnet.load_manifest(os.path.join(self.data, "val.nsm")).load_all():
            observed = nsnet.presample(record, pre)
            r = _recall(nsnet.baseline_sample(observed, "uniform", K),
                        observed.saliency_mask)
            if r is not None:
                recalls.append(r)
        self.uniform_recall = float(np.mean(recalls))
        self.last_row = {"val_top1": 0.0, "val_recall": 0.0}
        self.digest = None

    def unit(self, index: int) -> None:
        unit_dir = self._new_dir(f"unit{index}")
        protos = os.path.join(unit_dir, "protos.nsf")
        run = os.path.join(unit_dir, "run")
        self._timed(lambda: _run_cli(
            ["prototypes", "--manifest", os.path.join(self.data, "train.nsm"),
             "--out", protos],
            self._train_argv(self.data, protos, run, self.scale.unit_epochs)))

    def _check_unit(self, index: int) -> tuple[str, dict]:
        """Raises CheckFailed on a failed check; returns the digest of the
        unit's artifacts and the last metrics row."""
        run = os.path.join(self.work, f"unit{index}", "run")
        metrics_path = os.path.join(run, "metrics.csv")
        with open(metrics_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == self.scale.unit_epochs,
                 f"metrics.csv has {len(rows)} rows, expected {self.scale.unit_epochs}")
        for row in rows:
            for column in LOSS_COLUMNS:
                _require(math.isfinite(float(row[column])), f"non-finite {column}: {row}")
        last = os.path.join(run, "last.nsc1")
        nsnet.load_checkpoint(last)
        recall = float(rows[-1]["val_recall"])
        _require(recall > self.uniform_recall,
                 f"val_recall {recall} does not beat uniform {self.uniform_recall}")
        return _digest(last) + _digest(metrics_path), rows[-1]

    def check(self) -> None:
        """Every unit's artifacts must match ``known_digest`` (set by the
        runner from an earlier run with the same code and seed) or, without
        one, the first checked unit's; the digest used ends in ``digest``."""
        reference = self.known_digest
        for index, ops in enumerate(self.units):
            op = ops[0]
            if op in self.errors:
                continue
            try:
                digest, last_row = self._check_unit(index)
                reference = reference or digest
                _require(digest == reference,
                         "last.nsc1 / metrics.csv differ from an earlier run with the same "
                         "code and seed")
                self.last_row = last_row
            except CHECK_ERRORS as exc:
                self._fail(op, f"check: {type(exc).__name__}: {exc}")
        self.digest = reference

    def quality(self) -> tuple[float, float]:
        return float(self.last_row["val_top1"]), float(self.last_row["val_recall"])


# ---------------------------------------------------------------------------
# sweep: `nsnet eval` over the val manifest for every fusion mode
# ---------------------------------------------------------------------------


class SweepWorkload(Workload):
    name = "sweep"

    @property
    def videos_per_unit(self) -> int:
        return self.scale.val_videos

    def items_per_unit(self) -> int:
        return len(MODES) * len(self.scale.k_list) * self.scale.val_videos

    def setup(self, repeat: int) -> None:
        self._setup_checkpoint(repeat)
        self.val_manifest = os.path.join(self.data, "val.nsm")
        nsnet.load_manifest(self.val_manifest)

    def prepare(self) -> None:
        """The nsnet rows recomputed through forward -> select_frames ->
        recognize_video, one forward per video shared by every mode and K."""
        s = self.scale
        model = nsnet.load_checkpoint(self.checkpoint)
        records = nsnet.load_manifest(self.val_manifest).load_all()
        pre = nsnet.PresampleConfig(frames=T)
        observed = [r if r.num_frames == T else nsnet.presample(r, pre)
                    for r in records]
        labels = np.array([r.label for r in observed])
        scores = {(m, k): [] for m in MODES for k in s.k_list}
        recalls = {(m, k): [] for m in MODES for k in s.k_list}
        for record in observed:
            out = model.forward(record.light_features, train=False)
            s_f = nsnet.fsm_saliency(_array(out.fsm_logits))
            s_v = nsnet.vgm_saliency(_array(out.attn))
            for mode in MODES:
                for k in s.k_list:
                    chosen = nsnet.select_frames(s_f, s_v, nsnet.FusionConfig(mode, RATIO, k))
                    scores[mode, k].append(nsnet.recognize_video(record, chosen))
                    r = _recall(chosen, record.saliency_mask)
                    if r is not None:
                        recalls[mode, k].append(r)
        self.expected = {}
        for key, rows in scores.items():
            matrix = np.stack(rows)
            self.expected[key] = (nsnet.top1_accuracy(matrix, labels),
                                  nsnet.mean_average_precision(matrix, labels).mean,
                                  float(np.mean(recalls[key])))
        self.outputs: dict[int, tuple[str, str]] = {}   # op -> (mode, frontier CSV)

    def unit(self, index: int) -> None:
        k_list = ",".join(str(k) for k in self.scale.k_list)
        unit_dir = self._new_dir(f"unit{index}")
        for mode in MODES:
            out = os.path.join(unit_dir, f"frontier_{mode}.csv")
            op = self._timed(lambda: _run_cli(
                ["eval", "--checkpoint", self.checkpoint, "--manifest", self.val_manifest,
                 "--k-list", k_list, "--fusion", mode, "--ratio", str(RATIO),
                 "--out", out]))
            if op not in self.errors:
                with open(out, encoding="utf-8") as fh:
                    self.outputs[op] = (mode, fh.read())

    def _check_frontier(self, mode: str, text: str, baseline: list | None) -> list:
        rows = list(csv.DictReader(io.StringIO(text)))
        keys = sorted((r["method"], int(r["K"])) for r in rows)
        _require(keys == sorted((m, k) for m in METHODS for k in self.scale.k_list),
                 f"{mode}: frontier rows {keys}")
        baseline_rows = sorted(tuple(r.items()) for r in rows if r["method"] != "nsnet")
        _require(baseline is None or baseline_rows == baseline,
                 f"{mode}: baseline rows differ from the first frontier")
        for r in rows:
            if r["method"] == "nsnet":
                want = self.expected[mode, int(r["K"])]
                got = (float(r["top1"]), float(r["mAP"]), float(r["recall"]))
                _require(np.allclose(got, want, rtol=0.0, atol=1e-9),
                         f"{mode} K={r['K']}: nsnet row {got} != recomputed {want}")
        return baseline_rows

    def check(self) -> None:
        baseline = None
        for op, (mode, text) in self.outputs.items():
            try:
                baseline = self._check_frontier(mode, text, baseline)
            except CHECK_ERRORS as exc:
                self._fail(op, f"check: {type(exc).__name__}: {exc}")

    def quality(self) -> tuple[float, float]:
        top1, _, recall = self.expected["index_union", K]
        return top1, recall


# ---------------------------------------------------------------------------
# sample: closed loop, one client, one video per request
# ---------------------------------------------------------------------------


class SampleWorkload(Workload):
    name = "sample"

    @property
    def videos_per_unit(self) -> int:
        return self.items_per_unit()

    def items_per_unit(self) -> int:
        return self.scale.sample_passes * len(self.entries)

    def setup(self, repeat: int) -> None:
        s = self.scale
        self._setup_checkpoint(repeat)
        self.entries = []
        for length in s.sample_lengths:
            out_dir = os.path.join(self.data, f"videos_{length}")
            self._synth(out_dir, length, s.sample_videos_per_class, 0)
            manifest = nsnet.load_manifest(os.path.join(out_dir, "train.nsm"))
            self.entries += [(manifest, entry) for entry in manifest.entries]
        self.model = nsnet.load_checkpoint(self.checkpoint)
        self.fusion = nsnet.FusionConfig("index_union", RATIO, K)
        self.pre = nsnet.PresampleConfig(frames=T)

    def prepare(self) -> None:
        """evaluate_epoch on the same model, records and fusion config, plus
        the labels and the presampled saliency masks the check needs."""
        records = [m.load_record(e) for m, e in self.entries]
        self.expected = nsnet.evaluate_epoch(self.model, records, K, self.fusion, frames=T)
        self.labels = [r.label for r in records]
        self.masks = [nsnet.presample(r, self.pre).saliency_mask for r in records]
        self.answers: dict[int, tuple[list, int]] = {}   # video -> first valid answer
        self.served = (0.0, 0.0)

    def unit(self, index: int) -> None:
        rng = np.random.default_rng([self.seed, index])
        order = [rng.permutation(len(self.entries)) for _ in range(self.scale.sample_passes)]
        for video in np.concatenate(order).tolist():
            manifest, entry = self.entries[video]
            answer = []
            op = self._timed(lambda: answer.extend(self._serve(manifest, entry)))
            if op not in self.errors:
                self._check_answer(op, video, *answer)

    def _serve(self, manifest, entry) -> tuple[list, int]:
        """One request: the selected frames and the predicted class."""
        record = manifest.load_record(entry)
        observed = nsnet.presample(record, self.pre)
        out = self.model.forward(observed.light_features, train=False)
        selected = nsnet.select_frames(nsnet.fsm_saliency(_array(out.fsm_logits)),
                                       nsnet.vgm_saliency(_array(out.attn)), self.fusion)
        return selected, int(np.argmax(nsnet.recognize_video(observed, selected)))

    def _check_answer(self, op: int, video: int, selected: list, predicted: int) -> None:
        """K distinct in-range frames, and the same answer as before for the
        same video. Pure comparisons, so it can run between requests."""
        if not (len(selected) == K and len(set(selected)) == K
                and all(isinstance(i, (int, np.integer)) and 0 <= i < T for i in selected)):
            self._fail(op, f"check: selection {selected} is not {K} distinct frames "
                           f"in [0, {T})")
        elif self.answers.setdefault(video, (list(selected), predicted)) \
                != (list(selected), predicted):
            self._fail(op, "check: response differs from an earlier one for the same video")

    def check(self) -> None:
        videos = sorted(self.answers)
        if not videos:
            return
        correct = [self.answers[v][1] == self.labels[v] for v in videos]
        recalls = [_recall(self.answers[v][0], self.masks[v]) for v in videos]
        recalls = [r for r in recalls if r is not None]
        self.served = (float(np.mean(correct)), float(np.mean(recalls)) if recalls else 0.0)
        # Compare with the reference only once every video has a valid
        # answer; a video without one already counts as failed.
        if len(videos) == len(self.entries) and self.served[0] != self.expected[0]:
            for op in range(len(self.seconds)):
                self._fail(op, f"check: served top-1 {self.served[0]} over {len(videos)} "
                               f"videos != evaluate_epoch {self.expected[0]}")

    def quality(self) -> tuple[float, float]:
        return self.served


WORKLOADS = {w.name: w for w in (TrainWorkload, SweepWorkload, SampleWorkload)}
