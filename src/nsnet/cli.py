"""Command-line surface: synth, prototypes, train, sample, eval, flops.

``train`` reads an optional ``key=value`` run configuration (the syntax of
``data.read_key_values``); every key has a same-named command-line flag and
flags win. The run-level keys (the four paths, and ``ns_labels``: whether
the prototypes are read) are declared here; every other key, validation's
``fusion``, ``ratio`` and ``k`` among them, is a field of ``ModelConfig``
or ``TrainConfig``, parsed by its annotation and defaulting to the
dataclass's default. Unknown or repeated keys and unparsable values are
rejected. A checkpoint's positional capacity is the ``frames`` it was
trained at, and ``eval`` and ``sample`` observe every video at that length. Every command checks all of its settings and its
referenced paths before it reads any video; the files of the kinds it
reads are checked as they are opened, with how they fit the checkpoint
or the other inputs, still before any output is written. Every
artifact is written to a temporary file and renamed into place, so a
failed command never leaves a truncated file behind.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import itertools
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from .data import PARSE_ANNOTATION, DatasetManifest, PresampleConfig, boolean, finite_float, \
    generate_synthetic_dataset, integer, integer_list, load_manifest, presample_indices, \
    read_key_values, write_csv
from .evaluation import ScoredVideos, load_cost_table, run_comparison, sampler_gflops
from .fusion import FUSION_MODES, SCORE_MODES, FusionConfig, fuse_scores, select_frames
from .model import ModelConfig, SamplerModel, load_checkpoint
from .supervision import DEFAULT_EPSILON_PERCENT, build_prototypes, load_prototypes, \
    save_prototypes
from .training import TrainConfig, train


# ---------------------------------------------------------------------------
# Run configuration for `train`
# ---------------------------------------------------------------------------


def at_least(name: str, value: int, minimum: int) -> int:
    """``value``, or a ValueError naming the flag or key it came from."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


# The paths of `train` and whether it reads the prototypes, as key: (parser, default).
RUN_KEYS = {**dict.fromkeys(("train_manifest", "val_manifest", "prototypes", "out_dir"),
                            (str, None)), "ns_labels": (boolean, True)}
# Fields filled from the data or from `frames`.
_NOT_KEYS = {"input_dim", "num_classes", "max_frames"}
TRAIN_KEYS = {**RUN_KEYS, **{f.name: (PARSE_ANNOTATION[f.type], f.default)
                             for f in fields(ModelConfig) + fields(TrainConfig)
                             if f.name not in _NOT_KEYS}}


def load_run_config(path: str) -> dict:
    """The `train` settings a run configuration file sets, parsed."""
    return read_key_values(path, {key: parse for key, (parse, _) in TRAIN_KEYS.items()},
                           "configuration key")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    at_least("--seed", args.seed, 0)
    settings = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    train_path, val_path = generate_synthetic_dataset(**settings)
    total = args.num_classes * (args.videos_per_class + args.val_videos_per_class)
    print(f"wrote {total} videos ({args.num_classes} classes) under {args.out_dir}: "
          f"{train_path}" + (f", {val_path}" if val_path else ""))
    return 0


def cmd_prototypes(args) -> int:
    manifest = load_manifest(args.manifest)
    bank = build_prototypes(manifest.blocks(("guiding", "logits")), manifest.num_classes,
                            args.epsilon)
    save_prototypes(bank, args.out)
    print(f"wrote {bank.num_classes}x{bank.prototypes.shape[1]} prototypes to {args.out}")
    return 0


def cmd_train(args) -> int:
    settings = load_run_config(args.config) if args.config else {}
    settings.update((key, getattr(args, key)) for key in TRAIN_KEYS
                    if getattr(args, key) is not None)
    run = {key: settings.get(key, default) for key, (_, default) in RUN_KEYS.items()}

    def owned(cls):
        return {f.name: settings[f.name] for f in fields(cls)
                if f.name in settings and f.name not in _NOT_KEYS}

    train_cfg = TrainConfig(**owned(TrainConfig))

    if run["train_manifest"] is None or not run["out_dir"]:
        raise ValueError("train needs at least train_manifest and out_dir "
                         "(config keys or flags)")
    for key in ("train_manifest", "val_manifest", "prototypes"):
        if run[key] is not None and not os.path.exists(run[key]):
            raise FileNotFoundError(f"{key} does not exist: {run[key]}")
    manifest = load_manifest(run["train_manifest"])
    val_manifest = load_manifest(run["val_manifest"]) if run["val_manifest"] else None
    model_settings = dict(num_classes=manifest.num_classes, max_frames=train_cfg.frames,
                          **owned(ModelConfig))
    # all but how the heads split the light width, which the first light file gives
    ModelConfig(input_dim=model_settings.get("heads", ModelConfig.heads), **model_settings)
    bank = None
    if run["ns_labels"]:
        if run["prototypes"] is None:
            raise ValueError("ns_labels=true requires a prototypes path")
        bank = load_prototypes(run["prototypes"])
    blocks = manifest.blocks(("light", "guiding") if bank is not None else ("light",))
    # the first block gives the split's widths; only the pass holds it
    blocks = itertools.chain([next(blocks)], blocks)
    model_cfg = ModelConfig(input_dim=manifest.dims["D_l"], **model_settings)
    val = val_manifest and ScoredVideos.gather(val_manifest.read(ScoredVideos.kinds),
                                               train_cfg.frames)
    # the other files must fit the train manifest, in each width both have read
    for key, dims in (("val_manifest", val_manifest and val_manifest.dims),
                      ("prototypes", bank and dict(zip(("C", "D_g"), bank.prototypes.shape)))):
        for dim, have in (dims or {}).items():
            if have != manifest.dims.get(dim, have):
                raise ValueError(f"train_manifest {run['train_manifest']} has {dim}="
                                 f"{manifest.dims[dim]} but {key} {run[key]} has {dim}={have}")
    result = train(blocks, bank, model_cfg, train_cfg, val_videos=val, out_dir=run["out_dir"])
    last = result.metrics[-1]
    summary = f"trained {train_cfg.epochs} epochs, final loss {last.loss:.4f}"
    if last.val_top1 is not None:
        summary += f", val top-1 {last.val_top1:.3f} (best epoch {result.best_epoch})"
    print(summary + f"; artifacts in {run['out_dir']}")
    return 0


def check_fit(args, model: SamplerModel, manifest: DatasetManifest, ks: list[int] = ()) -> None:
    """`eval` and `sample`: the manifest must have the checkpoint's class count
    and, once a light file is read, its light feature width; the observation
    length is the checkpoint's capacity, which must hold every budget in ``ks``."""
    cfg = model.config
    for key, want, have, what in (("num_classes", cfg.num_classes, manifest.num_classes, "C="),
                                  ("input_dim", cfg.input_dim,
                                   manifest.dims.get("D_l", cfg.input_dim), "light width ")):
        if want != have:
            raise ValueError(f"checkpoint {args.checkpoint} has {key}={want} but manifest "
                             f"{manifest.path} has {what}{have}")
    for k in ks:
        if k > cfg.max_frames:
            raise ValueError(f"k={k} out of range for {cfg.max_frames} observation frames")


def cmd_sample(args) -> int:
    fusion_cfg = FusionConfig(args.fusion, args.ratio, at_least("--k", args.k, 1))
    model, manifest = load_checkpoint(args.checkpoint), load_manifest(args.manifest)
    check_fit(args, model, manifest, [fusion_cfg.k])
    pre, tracks = PresampleConfig(model.config.max_frames), []
    for block in manifest.blocks(("light",)):
        check_fit(args, model, manifest)
        rows = block.starts[:, None] + presample_indices(block.lengths, pre)
        tracks.append(model.saliency(block.arrays["light"][rows]))
    s_f, s_v = map(np.concatenate, zip(*tracks))
    chosen = np.zeros(s_f.shape, dtype=bool)
    np.put_along_axis(chosen, select_frames(s_f, s_v, fusion_cfg), True, axis=1)
    fused = fuse_scores(s_f, s_v, args.fusion, args.ratio).tolist() \
        if args.fusion in SCORE_MODES else [[None] * s_f.shape[1]] * len(s_f)
    write_csv(args.out, ["video_id", "frame", "s_f", "s_v", "fused", "selected"],
              ((entry.video_id, i, f, v, u, int(pick))
               for entry, *row in zip(manifest.entries, s_f.tolist(), s_v.tolist(), fused,
                                      chosen.tolist())
               for i, (f, v, u, pick) in enumerate(zip(*row))))
    print(f"wrote saliency for {len(manifest.entries)} videos to {args.out}")
    return 0


def cmd_eval(args) -> int:
    try:
        k_list = [at_least("K", integer(k), 1) for k in args.k_list.split(",")]
        for i, k in enumerate(k_list):
            if k in k_list[:i]:
                raise ValueError(f"repeated K {k}")
    except ValueError as exc:
        raise ValueError(f"--k-list: {exc}") from None
    if at_least("--seed", args.seed, 0) >= 2 ** 64:
        raise ValueError(f"--seed must be < 2**64, got {args.seed}")
    fusion_cfg = FusionConfig(args.fusion, args.ratio)
    costs = load_cost_table(args.cost_table)
    model, manifest = load_checkpoint(args.checkpoint), load_manifest(args.manifest)
    check_fit(args, model, manifest, k_list)
    videos = ScoredVideos.gather(manifest.read(ScoredVideos.kinds), model.config.max_frames)
    check_fit(args, model, manifest)
    rows = run_comparison(videos, model, fusion_cfg, k_list, costs=costs, seed=args.seed)
    write_csv(args.out, ["method", "K", "top1", "mAP", "recall", "gflops"],
              map(astuple, rows))
    print(f"wrote {len(rows)} method/K rows to {args.out}")
    return 0


def cmd_flops(args) -> int:
    costs = load_cost_table(args.cost_table)
    k, frames = at_least("--k", args.k, 0), at_least("--frames", args.frames, 0)
    print(f"{sampler_gflops(costs, k, frames):.2f}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="nsnet",
        description="Saliency-supervised frame sampling over precomputed features.")
    sub = parser.add_subparsers(dest="command", required=True)

    class DefaultsHelp(argparse.ArgumentDefaultsHelpFormatter):   # only where one exists
        def _get_help_string(self, action):
            return action.help if action.default is None else super()._get_help_string(action)

    def add_parser(name, help_text, *parents):
        return sub.add_parser(name, help=help_text, parents=parents, formatter_class=DefaultsHelp)

    # the flags `eval` and `sample` share, and the cost table of `eval` and `flops`
    scored = argparse.ArgumentParser(add_help=False)
    scored.add_argument("--checkpoint", required=True, help="NSC1 checkpoint")
    scored.add_argument("--manifest", required=True, help="manifest to score (NSM1)")
    scored.add_argument("--fusion", choices=FUSION_MODES, default=FusionConfig.mode,
                        help="fusion strategy")
    scored.add_argument("--ratio", type=finite_float, default=FusionConfig.ratio,
                        help="fusion ratio")
    costed = argparse.ArgumentParser(add_help=False)
    costed.add_argument("--cost-table", default=None,
                        help="name=gflops text file (default: built-in table)")

    p = add_parser("synth", "generate a synthetic dataset with planted saliency")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--classes", dest="num_classes", type=int, default=10, help="category count")
    p.add_argument("--videos-per-class", type=int, default=40,
                   help="training videos per category")
    p.add_argument("--val-videos-per-class", type=int, default=10,
                   help="validation videos per category (0: no val split)")
    p.add_argument("--frames", dest="num_frames", type=int, default=32,
                   help="original frames per video")
    p.add_argument("--light-dim", type=int, default=32, help="sampler feature width")
    p.add_argument("--guiding-dim", type=int, default=32,
                   help="recognizer feature width")
    p.add_argument("--salient-fraction", type=finite_float, default=0.25,
                   help="fraction of planted salient frames")
    p.add_argument("--noise-sigma", type=finite_float, default=0.3,
                   help="per-coordinate feature noise")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.set_defaults(func=cmd_synth)

    p = add_parser("prototypes", "build per-category prototypes from a manifest")
    p.add_argument("--manifest", required=True, help="training manifest (NSM1)")
    p.add_argument("--epsilon", type=finite_float, default=DEFAULT_EPSILON_PERCENT,
                   help="percent of confident frames pooled per video")
    p.add_argument("--out", required=True, help="prototype output path (NSF1)")
    p.set_defaults(func=cmd_prototypes)

    p = sub.add_parser("train", help="train the sampler from a run configuration")
    p.add_argument("--config", help="key=value run configuration file")
    metavars = {boolean: "BOOL", integer_list: "N,N"}
    for key, (parse, default) in TRAIN_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=parse, default=None,
                       metavar=metavars.get(parse), help=f"override {key} (default {default})")
    p.set_defaults(func=cmd_train)

    p = add_parser("sample", "dump per-frame saliency and selections to CSV", scored)
    p.add_argument("--k", type=int, required=True, help="frames to select")
    p.add_argument("--out", required=True, help="saliency CSV path")
    p.set_defaults(func=cmd_sample)

    p = add_parser("eval", "compare the sampler against baselines over K", scored, costed)
    p.add_argument("--k-list", required=True, help="comma-separated frame budgets")
    p.add_argument("--seed", type=int, default=0, help="seed for the random baseline")
    p.add_argument("--out", required=True, help="frontier CSV path")
    p.set_defaults(func=cmd_eval)

    p = add_parser("flops", "print the per-video GFLOPs for a budget", costed)
    p.add_argument("--k", type=int, required=True, help="frames recognized")
    p.add_argument("--frames", type=int, required=True, help="observation frames")
    p.set_defaults(func=cmd_flops)

    return parser


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


@functools.cache
def keep_heap() -> None:
    """Keep freed memory in the process's heap, once per process.

    Each training step frees its whole autodiff graph; at glibc's default
    threshold the top of the heap is then trimmed and the next step faults
    the same pages back in. Setting the trim threshold also freezes glibc's
    dynamic mmap threshold at 128 KiB, which would map and unmap every
    larger array (the 1 MiB attention arrays at batch 64) on each
    allocation, so the mmap threshold is raised to glibc's own 64-bit
    ceiling. A C library without ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, 256 << 20)
    mallopt(M_MMAP_THRESHOLD, 32 << 20)


def main(argv: list[str] | None = None) -> int:
    keep_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None) == "":   # prototypes, eval, sample: before any read
            raise ValueError("--out must name a file, got ''")
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
