"""Command-line surface: synth, prototypes, train, sample, eval, flops.

``train`` reads an optional ``key=value`` run configuration (the syntax of
``data.read_key_values``); every key has a same-named command-line flag and
flags win. The run-level keys (paths, observation length, validation
fusion) are declared here; every other key is a field of ``ModelConfig`` or
``TrainConfig``, parsed by its annotation and defaulting to the dataclass's
default. Unknown or repeated keys and unparsable values are rejected, and
all referenced paths are validated before any work starts. Every artifact
is written to a temporary file and renamed into place, so a failed command
never leaves a truncated file behind.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

import numpy as np

from .data import DatasetManifest, PresampleConfig, atomic_write_text, finite_float, \
    generate_synthetic_dataset, load_manifest, presample_indices, read_key_values
from .evaluation import DEFAULT_COST_TABLE, budget_from_cost_table, flops_total, \
    load_cost_table, run_comparison, write_comparison_csv
from .fusion import FUSION_MODES, SCORE_MODES, FusionConfig, fuse_scores, select_frames
from .model import SALIENCY_BLOCK, ModelConfig, SamplerModel, load_checkpoint
from .supervision import build_prototypes, load_prototypes, save_prototypes
from .training import TrainConfig, train


# ---------------------------------------------------------------------------
# Run configuration for `train`
# ---------------------------------------------------------------------------


def integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"must be an integer, got {text!r}") from None


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


def at_least(name: str, value: int, minimum: int) -> int:
    """``value``, or a ValueError naming the flag or key it came from."""
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


_PARSE_ANNOTATION = {"int": integer, "int | None": integer, "float": finite_float,
                     "bool": boolean, "tuple[int, ...]": integer_list}
# Training's presample default: PresampleConfig's own leaves shift_augment off.
_TRAINING_PRESAMPLE = TrainConfig().presample
# The run-level keys of `train`, as key: (parser, default).
RUN_KEYS = {
    "train_manifest": (str, None),
    "val_manifest": (str, None),
    "prototypes": (str, None),
    "out_dir": (str, None),
    "max_frames": (integer, None),   # positional capacity; None: frames
    "frames": (integer, _TRAINING_PRESAMPLE.frames),
    "shift_augment": (boolean, _TRAINING_PRESAMPLE.shift_augment),
    "fusion": (str, FusionConfig.mode),
    "ratio": (finite_float, FusionConfig.ratio),
    "k": (integer, None),            # None: frames // 4
}
# Fields filled from the data or from the run-level keys above.
_NOT_KEYS = {"input_dim", "num_classes", "max_frames", "presample"}
TRAIN_KEYS = {**RUN_KEYS, **{f.name: (_PARSE_ANNOTATION[f.type], f.default)
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
    train_path, val_path = generate_synthetic_dataset(
        out_dir=args.out_dir,
        num_classes=args.classes,
        videos_per_class=args.videos_per_class,
        num_frames=args.frames,
        light_dim=args.light_dim,
        guiding_dim=args.guiding_dim,
        salient_fraction=args.salient_fraction,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        val_videos_per_class=args.val_videos_per_class,
    )
    total = args.classes * (args.videos_per_class + args.val_videos_per_class)
    print(f"wrote {total} videos ({args.classes} classes) under {args.out_dir}: "
          f"{train_path}" + (f", {val_path}" if val_path else ""))
    return 0


def cmd_prototypes(args) -> int:
    manifest = load_manifest(args.manifest)
    records = manifest.load_all()
    bank = build_prototypes(records, manifest.num_classes, args.epsilon)
    save_prototypes(bank, args.out, source_manifest=args.manifest)
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

    for key in ("max_frames", "frames", "k"):
        if run[key] is not None:
            at_least("--" + key.replace("_", "-") if getattr(args, key) is not None
                     else f"{key} in {args.config}", run[key], 1)

    if run["train_manifest"] is None or run["out_dir"] is None:
        raise ValueError("train needs at least train_manifest and out_dir "
                         "(config keys or flags)")
    for key in ("train_manifest", "val_manifest", "prototypes"):
        if run[key] is not None and not os.path.exists(run[key]):
            raise FileNotFoundError(f"{key} does not exist: {run[key]}")
    manifest = load_manifest(run["train_manifest"])
    val_manifest = load_manifest(run["val_manifest"]) if run["val_manifest"] else None
    train_cfg = TrainConfig(
        presample=PresampleConfig(frames=run["frames"], shift_augment=run["shift_augment"]),
        **owned(TrainConfig))
    bank = None
    if train_cfg.ns_labels:
        if run["prototypes"] is None:
            raise ValueError("ns_labels=true requires a prototypes path")
        bank = load_prototypes(run["prototypes"])
    # the other files must fit the train manifest before any epoch runs
    for key, dims in (("val_manifest", val_manifest and val_manifest.dims),
                      ("prototypes", bank and dict(zip(("C", "D_g"), bank.prototypes.shape)))):
        for dim, have in (dims or {}).items():
            if have != manifest.dims[dim]:
                raise ValueError(f"train_manifest {run['train_manifest']} has {dim}="
                                 f"{manifest.dims[dim]} but {key} {run[key]} has {dim}={have}")
    train_records = manifest.load_all()
    val_records = val_manifest.load_all() if val_manifest else None
    model_cfg = ModelConfig(
        input_dim=manifest.dims["D_l"],
        num_classes=manifest.num_classes,
        max_frames=run["frames"] if run["max_frames"] is None else run["max_frames"],
        **owned(ModelConfig))
    eval_k = max(1, run["frames"] // 4) if run["k"] is None else run["k"]
    result = train(train_records, manifest.num_classes, bank, model_cfg, train_cfg,
                   val_records=val_records, eval_k=eval_k,
                   fusion_cfg=FusionConfig(run["fusion"], run["ratio"], eval_k),
                   out_dir=run["out_dir"])
    last = result.metrics[-1]
    summary = f"trained {train_cfg.epochs} epochs, final loss {last.loss:.4f}"
    if last.val_top1 is not None:
        summary += f", val top-1 {last.val_top1:.3f} (best epoch {result.best_epoch})"
    print(summary + f"; artifacts in {run['out_dir']}")
    return 0


def load_fitting(args) -> tuple[SamplerModel, DatasetManifest, int]:
    """The checkpoint and manifest of `eval` and `sample`, which must agree
    on the class count and the light feature width, and the observation
    length (default: the checkpoint's capacity)."""
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    cfg = model.config
    for key, want, have, what in (("num_classes", cfg.num_classes, manifest.num_classes, "C="),
                                  ("input_dim", cfg.input_dim, manifest.dims["D_l"],
                                   "light width ")):
        if want != have:
            raise ValueError(f"checkpoint {args.checkpoint} has {key}={want} but manifest "
                             f"{manifest.path} has {what}{have}")
    return model, manifest, cfg.max_frames if args.frames is None \
        else at_least("--frames", args.frames, 1)


def cmd_sample(args) -> int:
    model, manifest, frames = load_fitting(args)
    fusion_cfg = FusionConfig(args.fusion, args.ratio, at_least("--k", args.k, 1))
    pre = PresampleConfig(frames=frames)
    tracks = []   # (s_f, s_v) per block of videos, loaded one block at a time
    for start in range(0, len(manifest.entries), SALIENCY_BLOCK):
        records = [manifest.load_record(entry)
                   for entry in manifest.entries[start:start + SALIENCY_BLOCK]]
        tracks.append(model.saliency([r.light_features[presample_indices(r.num_frames, pre)]
                                      for r in records]))
    s_f, s_v = (np.concatenate(track) for track in zip(*tracks))
    chosen = np.zeros(s_f.shape, dtype=bool)
    np.put_along_axis(chosen, select_frames(s_f, s_v, fusion_cfg), True, axis=1)
    fused = fuse_scores(s_f, s_v, args.fusion, args.ratio).tolist() \
        if args.fusion in SCORE_MODES else [[None] * frames] * len(s_f)
    lines = ["video_id,frame,s_f,s_v,fused,selected"]
    for entry, *row in zip(manifest.entries, s_f.tolist(), s_v.tolist(), fused,
                           chosen.tolist()):
        lines += [f"{entry.video_id},{i},{f!r},{v!r},{'' if u is None else repr(u)},{int(pick)}"
                  for i, (f, v, u, pick) in enumerate(zip(*row))]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote saliency for {len(manifest.entries)} videos to {args.out}")
    return 0


def cmd_eval(args) -> int:
    try:
        k_list = [at_least("K", integer(k), 1) for k in args.k_list.split(",")]
    except ValueError as exc:
        raise ValueError(f"--k-list: {exc}") from None
    if at_least("--seed", args.seed, 0) >= 2 ** 64:
        raise ValueError(f"--seed must be < 2**64, got {args.seed}")
    model, manifest, frames = load_fitting(args)
    records = manifest.load_all()
    costs = load_cost_table(args.cost_table) if args.cost_table else dict(DEFAULT_COST_TABLE)
    rows = run_comparison(records, model,
                          FusionConfig(args.fusion, args.ratio, max(k_list)),
                          k_list, costs=costs, frames=frames, seed=args.seed)
    write_comparison_csv(args.out, rows)
    print(f"wrote {len(rows)} method/K rows to {args.out}")
    return 0


def cmd_flops(args) -> int:
    costs = load_cost_table(args.cost_table) if args.cost_table else dict(DEFAULT_COST_TABLE)
    budget = budget_from_cost_table(costs, at_least("--k", args.k, 0),
                                    at_least("--frames", args.frames, 0))
    print(f"{flops_total(budget):.2f}")
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

    def add_parser(name, help_text):
        return sub.add_parser(name, help=help_text,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = add_parser("synth", "generate a synthetic dataset with planted saliency")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=10, help="category count")
    p.add_argument("--videos-per-class", type=int, default=40,
                   help="training videos per category")
    p.add_argument("--val-videos-per-class", type=int, default=10,
                   help="validation videos per category (0: no val split)")
    p.add_argument("--frames", type=int, default=32, help="original frames per video")
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
    p.add_argument("--epsilon", type=finite_float, default=30.0,
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

    p = add_parser("sample", "dump per-frame saliency and selections to CSV")
    p.add_argument("--checkpoint", required=True, help="NSC1 checkpoint")
    p.add_argument("--manifest", required=True, help="manifest to score (NSM1)")
    p.add_argument("--fusion", choices=FUSION_MODES, default="index_union",
                   help="fusion strategy")
    p.add_argument("--ratio", type=finite_float, default=0.6, help="fusion ratio")
    p.add_argument("--k", type=int, required=True, help="frames to select")
    p.add_argument("--frames", type=int, default=None,
                   help="observation frames (default: checkpoint capacity)")
    p.add_argument("--out", required=True, help="saliency CSV path")
    p.set_defaults(func=cmd_sample)

    p = add_parser("eval", "compare the sampler against baselines over K")
    p.add_argument("--checkpoint", required=True, help="NSC1 checkpoint")
    p.add_argument("--manifest", required=True, help="manifest to evaluate (NSM1)")
    p.add_argument("--k-list", required=True, help="comma-separated frame budgets")
    p.add_argument("--fusion", choices=FUSION_MODES, default="index_union",
                   help="fusion strategy")
    p.add_argument("--ratio", type=finite_float, default=0.6, help="fusion ratio")
    p.add_argument("--frames", type=int, default=None,
                   help="observation frames (default: checkpoint capacity)")
    p.add_argument("--cost-table", default=None,
                   help="name=gflops text file (default: built-in table)")
    p.add_argument("--seed", type=int, default=0, help="seed for the random baseline")
    p.add_argument("--out", required=True, help="frontier CSV path")
    p.set_defaults(func=cmd_eval)

    p = add_parser("flops", "print the per-video GFLOPs for a budget")
    p.add_argument("--cost-table", default=None,
                   help="name=gflops text file (default: built-in table)")
    p.add_argument("--k", type=int, required=True, help="frames recognized")
    p.add_argument("--frames", type=int, required=True, help="observation frames")
    p.set_defaults(func=cmd_flops)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
