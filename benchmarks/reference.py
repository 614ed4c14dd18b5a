"""A fixed reference computation that measures how fast the machine is now.

Other tenants of the machine slow it in episodes that last from seconds to
minutes, by up to 2x. A run that lands in a slow episode is slow as a
whole, so neither the median nor the fastest unit of one run is steady
across runs. The runner times this kernel twice a second from an interval
timer, during the set-ups and during the measured window, and scales each
by its mean kernel time to a standard machine, on which the kernel takes
NOMINAL_S.

The kernel does the kind of work nsnet does: small float64 matrix
products and elementwise ops with a Python object per result, then a
reverse pass through closures. It does not use nsnet, so a change to the
program cannot change the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.025    # defines the standard machine: the kernel takes 25 ms
STEPS = 450

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((16, 32))
_WEIGHTS = [_RNG.standard_normal((32, 32)) / 32 ** 0.5 for _ in range(3)]


class _Node:
    __slots__ = ("value", "grad", "backprop")

    def __init__(self, value, backprop=None):
        self.value = value
        self.grad = None
        self.backprop = backprop


def _step() -> float:
    nodes = []
    h = _X
    for w in _WEIGHTS:
        z = h @ w
        h = np.tanh(z)
        node = _Node(h)
        node.backprop = (lambda g, h=h, w=w: (g * (1.0 - h * h)) @ w.T)
        nodes.append(node)
    e = np.exp(h - h.max(axis=1, keepdims=True))
    g = e / e.sum(axis=1, keepdims=True)
    for node in reversed(nodes):
        node.grad = g
        g = node.backprop(g)
    return float(g.sum())


def kernel_seconds() -> float:
    """Wall time of one run of the kernel now."""
    started = time.perf_counter()
    for _ in range(STEPS):
        _step()
    return time.perf_counter() - started
