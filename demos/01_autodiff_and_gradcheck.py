"""A tour of the float64 reverse-mode core.

Builds a few graphs by hand, differentiates them, and then verifies the
whole sampler network's gradients against central finite differences.
"""

import numpy as np

from nsnet import autodiff as ad
from nsnet.model import ModelConfig, SamplerModel
from nsnet.supervision import ns_pseudo_label_matrix
from nsnet.training import gradient_check

print("== a linear layer under a soft cross entropy ==")
x = ad.constant([[1.0, -2.0, 3.0]])
w = ad.Parameter("w", np.zeros((3, 2)))
b = ad.Parameter("b", np.zeros(2))
target = np.array([[1.0, 0.0]])
ad.backward(ad.soft_cross_entropy_rows(ad.linear(x, w, b), target))
# zero weights give softmax [0.5, 0.5]: d/dlogits = softmax - target = [-0.5, 0.5]
print(f"dL/db = {b.grad}  (softmax minus target)")
print(f"dL/dw =\n{w.grad}  (x^T times dL/db)")

print("\n== stable softmax ==")
print(f"softmax([1000, 1000, 999]) = {ad.softmax_values([1000.0, 1000.0, 999.0])}")

print("\n== soft cross entropy ==")
logits = ad.constant([[1.0, 1.0, 1.0]])
target = np.array([[0.5, 0.0, 0.5]])
print(f"uniform logits vs [0.5, 0, 0.5] -> {float(ad.soft_cross_entropy_rows(logits, target).value):.6f}"
      f"  (log 3 = {np.log(3):.6f})")

print("\n== full-model gradient check ==")
cfg = ModelConfig(input_dim=8, num_classes=3, max_frames=4, encoder_layers=1,
                  heads=2, dropout_pos_enc=0.0, dropout_cls=0.0, dropout_attn=0.0)
model = SamplerModel(cfg, np.random.default_rng(0))
rng = np.random.default_rng(1)
labels = [0, 2]
features, targets = [], []
for label in labels:
    features.append(rng.standard_normal((4, 8)))
    targets.append(ns_pseudo_label_matrix(rng.random(4), label, 3))
report = gradient_check(model, np.stack(features), np.concatenate(targets), labels, tolerance=1e-4)
print(report)
