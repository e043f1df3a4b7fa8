"""Adam optimizer over named parameter dicts, with serializable state."""

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

    def state_dict(self):
        return {
            "t": self.t,
            "lr": self.lr,
            "m": {n: a.copy() for n, a in self.m.items()},
            "v": {n: a.copy() for n, a in self.v.items()},
        }

    def load_state_dict(self, state):
        self.t = int(state["t"])
        self.lr = float(state.get("lr", self.lr))
        for n in self.params:
            self.m[n][...] = state["m"][n]
            self.v[n][...] = state["v"][n]


def zero_all(*param_dicts):
    for d in param_dicts:
        for p in d.values():
            p.zero_grad()
