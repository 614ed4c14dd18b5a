"""Timing wrappers for the traced benchmark run.

The traced run installs wrappers around the package's public functions
(plus a few internal ones the per-layer table names) and records one span
per call: name, parent span, start and end. Spans stay in memory until the
run ends. A span's self time is its duration minus the durations of its
child spans; because every call is single-threaded and strictly nested,
the self times of all spans add up to the wall time of the root spans.

The package binds functions with ``from .x import y``, so one function can
be reachable under several module names (``select_frames`` is defined in
``fusion`` and bound again in ``evaluation``, ``training``, ``cli`` and the
package itself). The installer replaces every binding that is the same
object and restores all of them on exit. A target that no longer exists is
recorded as absent; its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass

MODULES = ("autodiff", "data", "supervision", "model", "training", "fusion",
           "evaluation", "cli")
FUSION_MODES = ("score_add", "score_mul", "score_max",
                "index_union", "index_intersect", "index_join")


@dataclass(frozen=True)
class Target:
    module: str       # nsnet submodule that defines the function
    attr: str         # "function" or "Class.method"
    kind: str = "span"  # span | nodes | forward | train | read | select


TARGETS = (
    Target("autodiff", "Tensor.__init__", "nodes"),
    Target("autodiff", "backward"),
    Target("autodiff", "sgd_step"),
    Target("data", "read_feature_file", "read"),
    Target("data", "load_manifest"),
    Target("data", "DatasetManifest.load_record"),
    Target("data", "presample"),
    Target("data", "generate_synthetic_dataset"),
    Target("supervision", "build_prototypes"),
    Target("supervision", "guiding_saliency_scores"),
    Target("supervision", "ns_pseudo_label_matrix"),
    Target("model", "SamplerModel.forward", "forward"),
    Target("model", "total_loss"),
    Target("model", "vgm_loss"),
    Target("model", "fsm_saliency"),
    Target("model", "vgm_saliency"),
    Target("model", "save_checkpoint"),
    Target("model", "load_checkpoint"),
    Target("training", "train", "train"),
    Target("training", "batch_loss"),
    Target("training", "evaluate_epoch"),
    Target("fusion", "select_frames", "select"),
    Target("fusion", "recognize_video"),
    Target("evaluation", "run_comparison"),
    Target("evaluation", "_nsnet_selection"),
    Target("evaluation", "baseline_sample"),
    Target("evaluation", "mean_average_precision"),
    Target("evaluation", "top1_accuracy"),
    Target("cli", "main"),
)

ROOT = "bench.unit"


def _argument(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


class Tracer:
    """Spans and counters of one traced run; not thread-safe by design,
    since every workload runs one thread of work."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # one span: [name, parent index, start, end, seconds covered by children]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.nodes = 0            # autodiff graph nodes constructed
        self.nodes_infer = 0      # ... inside inference forward calls
        self.nodes_train = 0      # ... inside train() outside inference forwards
        self.forwards = 0
        self.forwards_infer = 0
        self.bytes_read = 0
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0])
        self._open.append(index)
        return index

    def _leave(self, index: int) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter()
        self._open.pop()
        if span[1] >= 0:
            self.spans[span[1]][4] += span[3] - span[2]

    @contextlib.contextmanager
    def root(self):
        index = self._enter(ROOT)
        try:
            yield
        finally:
            self._leave(index)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, target: Target, name: str, original):
        tracer = self
        kind = target.kind

        if kind == "nodes":
            @functools.wraps(original)
            def count_node(*args, **kwargs):
                tracer.nodes += 1
                original(*args, **kwargs)
            return count_node

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name
            if kind == "forward":
                train = bool(_argument(args, kwargs, 2, "train", False))
                if train:
                    span_name = name + ":train"
                nodes_before = tracer.nodes
            elif kind == "train":
                nodes_before, infer_before = tracer.nodes, tracer.nodes_infer
            elif kind == "select":
                cfg = _argument(args, kwargs, 2, "cfg")
                span_name = f"{name}.{getattr(cfg, 'mode', 'unknown')}"
            index = tracer._enter(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._leave(index)
            if kind == "forward":
                tracer.forwards += 1
                if not train:
                    tracer.forwards_infer += 1
                    tracer.nodes_infer += tracer.nodes - nodes_before
            elif kind == "train":
                tracer.nodes_train += (tracer.nodes - nodes_before) \
                    - (tracer.nodes_infer - infer_before)
            elif kind == "read":   # an NSF1 file: 12-byte header, float32 values
                tracer.bytes_read += 12 + 4 * int(getattr(result, "size", 0))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded nsnet module that binds it."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nsnet" or key.startswith("nsnet."))]
        for target in self.targets:
            name = f"{target.module}.{target.attr.rpartition('.')[2]}"
            owner_name, _, attr = target.attr.rpartition(".")
            owner = sys.modules.get(f"nsnet.{target.module}")
            if owner is not None and owner_name:
                owner = vars(owner).get(owner_name)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, name, original)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries -----------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, _, start, end, _ in self.spans:
            out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _, start, end, children in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - children)
        return out

    def wall(self) -> float:
        return sum(end - start for name, parent, start, end, _ in self.spans
                   if parent < 0)

    def module_self_times(self) -> dict[str, float]:
        totals = {m: 0.0 for m in MODULES + ("bench",)}
        for name, seconds in self.self_times().items():
            module = name.partition(".")[0]
            totals[module] = totals.get(module, 0.0) + seconds
        return totals

    def dump(self) -> dict:
        return {"fields": ["name", "parent", "start", "end"],
                "spans": [s[:4] for s in self.spans],
                "absent": self.absent}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of ``values``; 0 for none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# Per-layer metrics and their units. Totals are per traced unit of work
# (one train call, one sweep round, 8 passes of sample requests), so runs
# of different length compare.
PER_LAYER = {
    "autodiff.backward.self_s": "s",
    "autodiff.sgd_step.self_s": "s",
    "autodiff.nodes_per_train_video": "count",
    "autodiff.nodes_per_forward": "count",
    "model.forward.p50_ms": "ms",
    "model.forward.p99_ms": "ms",
    "model.total_loss.self_s": "s",
    "model.save_checkpoint.self_s": "s",
    "model.load_checkpoint.p50_ms": "ms",
    "training.batch_loss.p50_ms": "ms",
    "training.evaluate_epoch.self_s": "s",
    "training.train.self_s": "s",
    "data.read_feature_file.calls": "count",
    "data.read_feature_file.p50_us": "us",
    "data.bytes_read": "B",
    "data.presample.p50_us": "us",
    "data.load_manifest.p50_ms": "ms",
    "supervision.build_prototypes.self_s": "s",
    "supervision.guiding_saliency_scores.self_s": "s",
    "supervision.ns_pseudo_label_matrix.self_s": "s",
    **{f"fusion.select_frames.{mode}.p50_us": "us" for mode in FUSION_MODES},
    "fusion.recognize_video.p50_us": "us",
    "evaluation.run_comparison.self_s": "s",
    "evaluation.baseline_sample.self_s": "s",
    "evaluation.mean_average_precision.self_s": "s",
    "evaluation.forwards_per_video": "count",
    "cli.main.self_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES + ("bench",)},
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def per_layer_metrics(tracer: Tracer, units: int, videos_per_unit: int,
                      train_videos: int, overhead: float) -> dict[str, float]:
    """Derive every PER_LAYER metric from the spans of ``units`` traced units.

    ``videos_per_unit`` is the number of videos one unit evaluates;
    ``train_videos`` the training videos processed over all traced units.
    Counts without a separate branch below are set after the loop.
    """
    durations = tracer.durations()
    selfs = tracer.self_times()
    modules = tracer.module_self_times()
    out: dict[str, float] = {}
    for metric, unit in PER_LAYER.items():
        stem, _, stat = metric.rpartition(".")
        if stem in MODULES + ("bench",) and stat == "self_s":
            out[metric] = modules[stem] / units
        elif stat == "self_s":
            out[metric] = selfs.get(stem, 0.0) / units
        elif stat in ("p50_ms", "p99_ms", "p50_us"):
            q = int(stat[1:3])
            out[metric] = percentile(durations.get(stem, []), q) * _SCALE[unit]
        elif stat == "calls":
            out[metric] = len(durations.get(stem, [])) / units
    out["autodiff.nodes_per_train_video"] = \
        tracer.nodes_train / train_videos if train_videos else 0.0
    out["autodiff.nodes_per_forward"] = \
        tracer.nodes_infer / tracer.forwards_infer if tracer.forwards_infer else 0.0
    out["data.bytes_read"] = tracer.bytes_read / units
    out["evaluation.forwards_per_video"] = \
        tracer.forwards / (units * videos_per_unit) if videos_per_unit else 0.0
    out["traced_wall_s"] = tracer.wall() / units
    out["trace_overhead"] = overhead
    return out
