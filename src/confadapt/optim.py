"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
        """Apply one update from accumulated grads, then clear them."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for n, p in self.params.items():
            g = p.grad
            m = self.m[n]
            v = self.v[n]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            p.grad[...] = 0.0


def zero_all(*param_dicts):
    for d in param_dicts:
        for p in d.values():
            p.zero_grad()
