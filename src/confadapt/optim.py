"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params, lr=1e-3):
        self.params = dict(params)
        self.lr = float(lr)
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
        """Apply one update from accumulated grads, then clear them; a non-finite
        gradient raises ``FloatingPointError`` before any state changes."""
        for n, p in self.params.items():
            if not np.isfinite(p.grad).all():
                raise FloatingPointError(f"Adam.step: non-finite gradient for {n}")
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for n, p in self.params.items():
            g = p.grad
            m = self.m[n]
            v = self.v[n]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)
            p.grad[...] = 0.0


def zero_all(*param_dicts):
    for d in param_dicts:
        for p in d.values():
            p.zero_grad()
