"""A tour of the float64 reverse-mode core.

Builds a few graphs by hand, differentiates them, and then verifies the
whole sampler network's gradients against central finite differences.
"""

import numpy as np

from nsnet import autodiff as ad
from nsnet.model import ModelConfig, SamplerModel
from nsnet.supervision import ns_pseudo_label_matrix
from nsnet.training import TrainExample, gradient_check

print("== scalar rules ==")
p = ad.Parameter("p", np.array([1.0, -2.0, 3.0]))
loss = 0.5 * ad.sum_all(ad.mul(p, p))  # 0.5 * ||p||^2
ad.backward(loss)
print(f"d(0.5*||p||^2)/dp = {p.grad}  (equals p itself)")

print("\n== stable softmax ==")
print(f"softmax([1000, 1000, 999]) = {ad.softmax_values([1000.0, 1000.0, 999.0])}")

print("\n== soft cross entropy ==")
logits = ad.constant([1.0, 1.0, 1.0])
target = np.array([0.5, 0.0, 0.5])
print(f"uniform logits vs [0.5, 0, 0.5] -> {float(ad.soft_cross_entropy(logits, target).value):.6f}"
      f"  (log 3 = {np.log(3):.6f})")

print("\n== full-model gradient check ==")
cfg = ModelConfig(input_dim=8, num_classes=3, max_frames=4, encoder_layers=1,
                  heads=2, dropout_pos_enc=0.0, dropout_cls=0.0, dropout_attn=0.0)
model = SamplerModel(cfg, np.random.default_rng(0))
rng = np.random.default_rng(1)
batch = [TrainExample(rng.standard_normal((4, 8)),
                      ns_pseudo_label_matrix(rng.random(4), label, 3),
                      label, f"v{label}") for label in (0, 2)]
report = gradient_check(model, batch, step=1e-5, tolerance=1e-4)
print(report)
