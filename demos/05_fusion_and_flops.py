"""The six fusion strategies side by side, plus budget accounting.

Fusion combines the frame head's scores (fine-grained, per-frame evidence)
with the glimpse head's attention (video-context weighting). Score modes
blend values; index modes merge the two rankings.
"""

import numpy as np

from nsnet.evaluation import DEFAULT_COST_TABLE, sampler_gflops
from nsnet.fusion import FUSION_MODES, FusionConfig, select_frames

s_f = np.array([0.30, 0.05, 0.25, 0.10, 0.20, 0.10])   # frame head
s_v = np.array([0.05, 0.35, 0.10, 0.30, 0.10, 0.10])   # glimpse head
print("frame-head scores:   ", s_f)
print("glimpse-head scores: ", s_v)
print(f"\nselections at K=3 (ratio 0.6 where it applies):")
for mode in FUSION_MODES:
    chosen = select_frames(s_f, s_v, FusionConfig(mode=mode, ratio=0.6, k=3))
    print(f"  {mode:16s} -> {chosen}")

print("\nper-video GFLOPs with the default cost table "
      f"({', '.join(f'{k}={v}' for k, v in DEFAULT_COST_TABLE.items())}):")
t = 16
print(f"  {'K':>3s} {'total':>8s}   (T = {t} observation frames)")
for k in (1, 2, 5, 8, 16):
    print(f"  {k:3d} {sampler_gflops(DEFAULT_COST_TABLE, k, t):8.2f}")
print("\nthe recognizer dominates: every selected frame adds "
      f"{DEFAULT_COST_TABLE['recognizer_per_frame']} GFLOPs, the whole sampling "
      f"apparatus costs {0.320 * t + 0.315 + 0.006:.2f}")
