"""Command-line surface: synth, prototypes, train, sample, eval, flops.

``train`` reads a plain-text key=value run configuration; every key has a
same-named command-line flag and flags win. Unknown keys are rejected and
all referenced paths are validated before any work starts. Every artifact
is written to a temporary file and renamed into place, so a failed command
never leaves a truncated file behind.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, fields

from .data import PresampleConfig, atomic_write_text, generate_synthetic_dataset, \
    load_manifest, presample
from .evaluation import DEFAULT_COST_TABLE, budget_from_cost_table, flops_total, \
    load_cost_table, run_comparison, write_comparison_csv
from .fusion import FUSION_MODES, FusionConfig, saliency_profile
from .model import SALIENCY_BLOCK, ModelConfig, load_checkpoint
from .supervision import build_prototypes, load_prototypes, save_prototypes
from .training import TrainConfig, train


# ---------------------------------------------------------------------------
# Run configuration for `train`
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


@dataclass
class RunConfig:
    # paths
    train_manifest: str | None = None
    val_manifest: str | None = None
    prototypes: str | None = None
    out_dir: str | None = None
    # model
    encoder_layers: int = 2
    heads: int = 8
    ffn_dim: int | None = None
    dropout_pos_enc: float = 0.2
    dropout_cls: float = 0.9
    dropout_attn: float = 0.2
    gamma: float = 0.2
    max_frames: int | None = None
    # training
    epochs: int = 120
    batch_size: int = 64
    base_lr: float = 0.01
    lr_decay_epochs: tuple[int, ...] = (50, 75)
    decay_factor: float = 0.1
    momentum: float = 0.9
    seed: int = 0
    frames: int = 16
    shift_augment: bool = True
    ns_labels: bool = True
    # evaluation during training
    fusion: str = "index_union"
    ratio: float = 0.6
    k: int | None = None


_PARSERS = {
    "train_manifest": str, "val_manifest": str, "prototypes": str, "out_dir": str,
    "encoder_layers": int, "heads": int, "ffn_dim": int,
    "dropout_pos_enc": float, "dropout_cls": float, "dropout_attn": float,
    "gamma": float, "max_frames": int,
    "epochs": int, "batch_size": int, "base_lr": float,
    "lr_decay_epochs": _parse_int_list, "decay_factor": float, "momentum": float,
    "seed": int, "frames": int, "shift_augment": _parse_bool,
    "ns_labels": _parse_bool,
    "fusion": str, "ratio": float, "k": int,
}


def load_run_config(path: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in enumerate(open(path, "r", encoding="utf-8"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown configuration key {line!r}")
        setattr(cfg, key, _PARSERS[key](value.strip()))
    return cfg


def apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
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
    cfg = load_run_config(args.config) if args.config else RunConfig()
    cfg = apply_overrides(cfg, args)
    if cfg.train_manifest is None or cfg.out_dir is None:
        raise ValueError("train needs at least train_manifest and out_dir "
                         "(config keys or flags)")
    for label, path in (("train_manifest", cfg.train_manifest),
                        ("val_manifest", cfg.val_manifest),
                        ("prototypes", cfg.prototypes)):
        if path is not None and not os.path.exists(path):
            raise FileNotFoundError(f"{label} does not exist: {path}")
    manifest = load_manifest(cfg.train_manifest)
    train_records = manifest.load_all()
    val_records = None
    if cfg.val_manifest:
        val_records = load_manifest(cfg.val_manifest).load_all()
    bank = None
    if cfg.ns_labels:
        if cfg.prototypes is None:
            raise ValueError("ns_labels=true requires a prototypes path")
        bank = load_prototypes(cfg.prototypes)
    input_dim = train_records[0].light_features.shape[1]
    model_cfg = ModelConfig(
        input_dim=input_dim,
        num_classes=manifest.num_classes,
        max_frames=cfg.max_frames or cfg.frames,
        encoder_layers=cfg.encoder_layers,
        heads=cfg.heads,
        ffn_dim=cfg.ffn_dim,
        dropout_pos_enc=cfg.dropout_pos_enc,
        dropout_cls=cfg.dropout_cls,
        dropout_attn=cfg.dropout_attn,
        gamma=cfg.gamma,
    )
    train_cfg = TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        base_lr=cfg.base_lr,
        lr_decay_epochs=cfg.lr_decay_epochs,
        decay_factor=cfg.decay_factor,
        momentum=cfg.momentum,
        seed=cfg.seed,
        presample=PresampleConfig(frames=cfg.frames, shift_augment=cfg.shift_augment),
        ns_labels=cfg.ns_labels,
    )
    eval_k = cfg.k or max(1, cfg.frames // 4)
    result = train(train_records, manifest.num_classes, bank, model_cfg, train_cfg,
                   val_records=val_records, eval_k=eval_k,
                   fusion_cfg=FusionConfig(cfg.fusion, cfg.ratio, eval_k),
                   out_dir=cfg.out_dir)
    last = result.metrics[-1]
    summary = f"trained {cfg.epochs} epochs, final loss {last.loss:.4f}"
    if last.val_top1 is not None:
        summary += f", val top-1 {last.val_top1:.3f} (best epoch {result.best_epoch})"
    print(summary + f"; artifacts in {cfg.out_dir}")
    return 0


def cmd_sample(args) -> int:
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    frames = args.frames or model.config.max_frames
    fusion_cfg = FusionConfig(args.fusion, args.ratio, args.k)
    pre = PresampleConfig(frames=frames)
    lines = ["video_id,frame,s_f,s_v,fused,selected"]
    for start in range(0, len(manifest.entries), SALIENCY_BLOCK):
        entries = manifest.entries[start:start + SALIENCY_BLOCK]
        s_f, s_v = model.saliency([presample(manifest.load_record(entry), pre).light_features
                                   for entry in entries])
        for entry, f, v in zip(entries, s_f, s_v):
            profile = saliency_profile(f, v, fusion_cfg)
            chosen = set(profile.selected)
            for i in range(frames):
                fused = "" if profile.fused_scores is None \
                    else repr(float(profile.fused_scores[i]))
                lines.append(f"{entry.video_id},{i},{float(profile.s_f[i])!r},"
                             f"{float(profile.s_v[i])!r},{fused},{int(i in chosen)}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote saliency for {len(manifest.entries)} videos to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest)
    records = manifest.load_all()
    frames = args.frames or model.config.max_frames
    k_list = [int(k) for k in args.k_list.split(",")]
    costs = load_cost_table(args.cost_table) if args.cost_table else dict(DEFAULT_COST_TABLE)
    rows = run_comparison(records, model,
                          FusionConfig(args.fusion, args.ratio, max(k_list)),
                          k_list, costs=costs, frames=frames, seed=args.seed)
    write_comparison_csv(args.out, rows)
    print(f"wrote {len(rows)} method/K rows to {args.out}")
    return 0


def cmd_flops(args) -> int:
    costs = load_cost_table(args.cost_table) if args.cost_table else dict(DEFAULT_COST_TABLE)
    budget = budget_from_cost_table(costs, args.k, args.frames)
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
    p.add_argument("--salient-fraction", type=float, default=0.25,
                   help="fraction of planted salient frames")
    p.add_argument("--noise-sigma", type=float, default=0.3,
                   help="per-coordinate feature noise")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.set_defaults(func=cmd_synth)

    p = add_parser("prototypes", "build per-category prototypes from a manifest")
    p.add_argument("--manifest", required=True, help="training manifest (NSM1)")
    p.add_argument("--epsilon", type=float, default=30.0,
                   help="percent of confident frames pooled per video")
    p.add_argument("--out", required=True, help="prototype output path (NSF1)")
    p.set_defaults(func=cmd_prototypes)

    p = sub.add_parser("train", help="train the sampler from a run configuration")
    p.add_argument("--config", help="key=value run configuration file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if _PARSERS[f.name] is _parse_bool:
            p.add_argument(flag, type=_parse_bool, default=None, metavar="BOOL",
                           help=f"override {f.name} (default {f.default})")
        elif _PARSERS[f.name] is _parse_int_list:
            p.add_argument(flag, type=_parse_int_list, default=None, metavar="N,N",
                           help=f"override {f.name} (default {f.default})")
        else:
            p.add_argument(flag, type=_PARSERS[f.name], default=None,
                           help=f"override {f.name} (default {f.default})")
    p.set_defaults(func=cmd_train)

    p = add_parser("sample", "dump per-frame saliency and selections to CSV")
    p.add_argument("--checkpoint", required=True, help="NSC1 checkpoint")
    p.add_argument("--manifest", required=True, help="manifest to score (NSM1)")
    p.add_argument("--fusion", choices=FUSION_MODES, default="index_union",
                   help="fusion strategy")
    p.add_argument("--ratio", type=float, default=0.6, help="fusion ratio")
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
    p.add_argument("--ratio", type=float, default=0.6, help="fusion ratio")
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
