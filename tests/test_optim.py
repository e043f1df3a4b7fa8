"""Adam: an update with a non-finite gradient leaves no trace."""

import numpy as np
import pytest

from confadapt.optim import Adam
from confadapt.tensor import Tensor


def test_non_finite_gradient_raises_and_leaves_state_byte_equal():
    rng = np.random.default_rng(4)
    params = {"a": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
              "b": Tensor(rng.normal(size=4), requires_grad=True)}
    opt = Adam(params, lr=1e-2)
    for p in params.values():
        p.grad[...] = rng.normal(size=p.shape)
    opt.step()  # moments are non-zero from here on

    def state():
        return opt.t, {n: (p.data.tobytes(), opt.m[n].tobytes(), opt.v[n].tobytes())
                       for n, p in params.items()}

    before = state()
    for p in params.values():
        p.grad[...] = rng.normal(size=p.shape)
    params["b"].grad[2] = np.inf  # "a" comes first, so a partial update would show there
    with pytest.raises(FloatingPointError, match="gradient for b"):
        opt.step()
    assert state() == before
