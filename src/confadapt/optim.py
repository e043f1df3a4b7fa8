"""Adam optimizer over one flat array per parameter set."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) over a dict of named parameters.

    Construction packs every parameter's ``data`` and ``grad``, in dict
    order, into one flat ``data`` and one flat ``grad`` array, and rebinds
    each ``Tensor.data`` and ``Tensor.grad`` to a view of its slice, with
    values unchanged. Whatever writes a parameter in place (``p.data[...] =``,
    ``grad +=``, ``zero_grad``) writes the flat arrays, so ``step`` checks,
    updates and clears the whole set at once. ``m`` and ``v`` are flat too.
    A parameter belongs to one optimizer: a second ``Adam`` over it would
    rebind it again, away from the first one's arrays.
    """

    def __init__(self, params, lr=1e-3):
        self.params = dict(params)
        self.lr = float(lr)
        self.t = 0
        self.data = np.empty(sum(p.data.size for p in self.params.values()))
        self.grad = np.empty_like(self.data)
        start = 0
        for p in self.params.values():
            part = slice(start, start + p.data.size)
            self.data[part] = p.data.ravel()
            self.grad[part] = p.grad.ravel()
            p.data, p.grad = self.data[part].reshape(p.shape), self.grad[part].reshape(p.shape)
            start = part.stop
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self):
        """Apply one update from accumulated grads, then clear them; a non-finite
        gradient raises ``FloatingPointError`` before any state changes."""
        if not np.isfinite(self.grad).all():
            bad = next(n for n, p in self.params.items() if not np.isfinite(p.grad).all())
            raise FloatingPointError(f"Adam.step: non-finite gradient for {bad}")
        self.t += 1
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        g, m, v = self.grad, self.m, self.v
        # one scratch array, then g itself once m and v have read it:
        # data -= lr * (m / b1c) / (sqrt(v / b2c) + EPS)
        a = np.multiply(1.0 - BETA1, g)
        m *= BETA1
        m += a
        np.multiply(1.0 - BETA2, g, out=a)
        a *= g
        v *= BETA2
        v += a
        np.divide(m, b1c, out=a)
        a *= self.lr
        np.divide(v, b2c, out=g)
        np.sqrt(g, out=g)
        g += EPS
        a /= g
        self.data -= a
        g[...] = 0.0


def zero_all(*param_dicts):
    for d in param_dicts:
        for p in d.values():
            p.zero_grad()
