"""From recognizer outputs to frame-level training signal.

Prototypes average the most confident correctly-predicted frames per
video, then per category. Each frame's guiding score compares its
distance to the true category's prototype against all others, and the
pseudo label splits its mass between the video category and the appended
non-salient category accordingly.
"""

import tempfile

import numpy as np

from nsnet.data import generate_synthetic_dataset, load_manifest
from nsnet.supervision import build_prototypes, guiding_saliency_scores, \
    ns_pseudo_label_matrix

workdir = tempfile.mkdtemp(prefix="nsnet_demo_")
train_m, _ = generate_synthetic_dataset(
    workdir, num_classes=4, videos_per_class=10, num_frames=20,
    light_dim=16, guiding_dim=16, salient_fraction=0.3, noise_sigma=0.25,
    seed=7)
manifest = load_manifest(train_m)
epsilon = 30
bank = build_prototypes(manifest.blocks(("guiding", "logits")), 4, epsilon_percent=epsilon)
print(f"prototype bank: {bank.prototypes.shape} (epsilon {epsilon}%)")

split = manifest.read(("guiding", "mask"))
salient_g, background_g = [], []
for guiding, label, mask in zip(split.per_video("guiding"), split.labels,
                                split.per_video("mask")):
    g = guiding_saliency_scores(guiding, label, bank)
    salient_g.extend(g[mask == 1.0])
    background_g.extend(g[mask == 0.0])
print(f"\nguiding score g, prototype route:")
print(f"  planted salient frames: mean {np.mean(salient_g):.3f}")
print(f"  background frames:      mean {np.mean(background_g):.3f}")

record = manifest.load_record(manifest.entries[0])
g = guiding_saliency_scores(record.guiding_features, record.label, bank)
targets = ns_pseudo_label_matrix(g[:3], record.label, 4)
print(f"\npseudo labels for the first 3 frames of {record.video_id} (label={record.label}):")
for i, target in enumerate(targets):
    tag = "salient" if record.saliency_mask[i] else "background"
    print(f"  frame {i} ({tag:10s}): target {np.round(target, 3)}  (g = {g[i]:.3f})")
