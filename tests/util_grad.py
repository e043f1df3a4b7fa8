"""Central finite-difference gradient oracle, independent of the tape.

Every gradient assertion in the suite goes through `check_grads`, which
re-evaluates the scalar function at perturbed inputs (h=1e-5) and compares
against the autodiff result with relative error
|ad - fd| / max(|ad|, |fd|, 1e-3) < tol.
"""

import numpy as np

from confadapt.tensor import Tensor, backward


def fd_grad(fn, values, wrt, h=1e-5):
    """Numeric gradient of scalar fn(*tensors) w.r.t. values[wrt]."""
    base = [np.array(v, dtype=np.float64) for v in values]
    g = np.zeros_like(base[wrt])
    flat = base[wrt].reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(*[Tensor(b) for b in base]).item()
        flat[i] = orig - h
        lo = fn(*[Tensor(b) for b in base]).item()
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * h)
    return g


def check_grads(fn, values, tol=1e-4, h=1e-5):
    """Assert autodiff grads of scalar fn against central differences, and
    return the worst relative error over every argument."""
    tensors = [Tensor(np.array(v, dtype=np.float64), requires_grad=True) for v in values]
    out = fn(*tensors)
    backward(out)
    worst_all = 0.0
    for i, t in enumerate(tensors):
        num = fd_grad(fn, values, i, h=h)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-3)
        rel = np.abs(t.grad - num) / denom
        worst = rel.max() if rel.size else 0.0
        assert worst < tol, f"grad mismatch for arg {i}: worst rel err {worst:.3e}"
        worst_all = max(worst_all, float(worst))
    return worst_all
