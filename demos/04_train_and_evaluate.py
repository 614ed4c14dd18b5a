"""Train the sampler on a small seeded problem and compare it against the
hand-crafted baselines at a fixed frame budget.

This is a scaled-down version of the recovery benchmark the acceptance
suite runs (fewer videos, fewer epochs) so it finishes in ~15 seconds.
"""

import tempfile

from nsnet.data import generate_synthetic_dataset, load_manifest
from nsnet.evaluation import DEFAULT_COST_TABLE, ScoredVideos, run_comparison
from nsnet.fusion import FusionConfig
from nsnet.model import ModelConfig
from nsnet.supervision import build_prototypes
from nsnet.training import TrainConfig, train

workdir = tempfile.mkdtemp(prefix="nsnet_demo_")
train_m, val_m = generate_synthetic_dataset(
    workdir, num_classes=6, videos_per_class=20, num_frames=24,
    light_dim=16, guiding_dim=16, salient_fraction=0.25, noise_sigma=0.3,
    seed=11, val_videos_per_class=6)
train_manifest = load_manifest(train_m)
bank = build_prototypes(train_manifest.blocks(("guiding", "logits")), 6)

model_cfg = ModelConfig(input_dim=16, num_classes=6, max_frames=12, heads=4)
train_cfg = TrainConfig(epochs=12, batch_size=12, base_lr=0.01, lr_decay_epochs=(),
                        seed=3, frames=12, shift_augment=True,
                        fusion="index_union", ratio=0.6, k=3)
# validation and the comparison below observe the val split the same way
val_videos = ScoredVideos.gather(load_manifest(val_m).read(ScoredVideos.kinds),
                                 model_cfg.max_frames)
print("training 12 epochs ...")
result = train(train_manifest.blocks(("light", "guiding")), bank, model_cfg, train_cfg,
               out_dir=f"{workdir}/run", val_videos=val_videos)
for m in result.metrics:
    if m.epoch % 3 == 0 or m.epoch == len(result.metrics) - 1:
        print(f"  epoch {m.epoch:2d}: loss {m.loss:7.3f}  val top-1 {m.val_top1:.3f}"
              f"  salient recall@3 {m.val_recall:.3f}")

print("\nmethod comparison at K=3 (100-video budget arithmetic in GFLOPs):")
validation = FusionConfig(train_cfg.fusion, train_cfg.ratio, train_cfg.validation_k)
rows = run_comparison(val_videos, result.model, validation, [3], DEFAULT_COST_TABLE, seed=3)
print(f"  {'method':16s} {'top1':>6s} {'mAP':>6s} {'recall':>7s} {'gflops':>8s}")
for row in rows:
    print(f"  {row.method:16s} {row.top1:6.3f} {row.map_score:6.3f} "
          f"{row.recall:7.3f} {row.gflops:8.2f}")
