"""Adam: one flat update per step, byte-equal to the per-parameter update;
parameters stay views of the flat arrays; an update with a non-finite
gradient leaves no trace."""

import re

import numpy as np
import pytest

from confadapt.optim import BETA1, BETA2, EPS, Adam
from confadapt.search import ArchLogits
from confadapt.space import DerivedArch
from confadapt.supernet import ConformerSupernet, DerivedModel
from confadapt.tensor import Tensor

from test_supernet import SPACE


class PerParameterAdam:
    """The oracle: Adam's update run on each named parameter in turn, with
    per-name moments, in the flat update's per-element expression order."""

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = float(lr)
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params.items()}

    def step(self):
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


def _joined(arrays):
    return b"".join(a.tobytes() for a in arrays)


PARAMETER_SETS = {
    "supernet": lambda: ConformerSupernet(SPACE, seed=5).named_parameters(),
    "logits": lambda: ArchLogits(SPACE).named_parameters(),
}


@pytest.mark.parametrize("which", sorted(PARAMETER_SETS))
def test_five_steps_with_a_refused_one_match_the_per_parameter_update(which):
    params, oracle_params = PARAMETER_SETS[which](), PARAMETER_SETS[which]()
    opt, oracle = Adam(params, lr=3e-2), PerParameterAdam(oracle_params, lr=3e-2)
    rng = np.random.default_rng(7)
    names = list(oracle_params)
    for i in range(5):
        for n in names:
            g = rng.normal(size=oracle_params[n].shape)
            params[n].grad += g
            oracle_params[n].grad += g
        if i == 2:
            bad = names[len(names) // 2]
            before = (opt.t, opt.data.tobytes(), opt.m.tobytes(), opt.v.tobytes())
            for ps, o in ((params, opt), (oracle_params, oracle)):
                ps[bad].grad.flat[-1] = np.nan
                with pytest.raises(FloatingPointError, match=f"gradient for {re.escape(bad)}$"):
                    o.step()
                for p in ps.values():
                    p.zero_grad()
            assert (opt.t, opt.data.tobytes(), opt.m.tobytes(), opt.v.tobytes()) == before
            continue
        opt.step()
        oracle.step()
        assert opt.t == oracle.t
        assert opt.data.tobytes() == _joined(p.data for p in oracle_params.values())
        assert opt.m.tobytes() == _joined(oracle.m.values())
        assert opt.v.tobytes() == _joined(oracle.v.values())
        assert not opt.grad.any()
    assert opt.t == 4


def test_parameters_are_views_of_their_slices_at_unchanged_values():
    model = DerivedModel(SPACE, DerivedArch.maximal(SPACE), seed=3)
    params = model.named_parameters()
    rng = np.random.default_rng(1)
    for p in params.values():
        p.grad += rng.normal(size=p.shape)
    before = {n: (p.data.tobytes(), p.grad.tobytes()) for n, p in params.items()}
    opt = Adam(params, lr=1e-3)
    start = 0
    for n, p in params.items():
        part = slice(start, start + p.data.size)
        start = part.stop
        assert np.shares_memory(p.data, opt.data[part]) and np.shares_memory(p.grad, opt.grad[part])
        assert (p.data.tobytes(), p.grad.tobytes()) == before[n]
        assert (opt.data[part].tobytes(), opt.grad[part].tobytes()) == before[n]
    assert start == opt.data.size == opt.grad.size

    # the model's own in-place writers reach the flat arrays
    model.reinit_output_layers(np.random.default_rng(2))
    assert params["out.w"].data.tobytes() != before["out.w"][0]
    for p in params.values():
        p.grad += 1.0
    assert opt.data.tobytes() == _joined(p.data for p in params.values())
    assert opt.grad.tobytes() == _joined(p.grad for p in params.values())


def test_non_finite_gradient_raises_and_leaves_state_byte_equal():
    rng = np.random.default_rng(4)
    params = {"a": Tensor(rng.normal(size=(3, 2)), requires_grad=True),
              "b": Tensor(rng.normal(size=4), requires_grad=True)}
    opt = Adam(params, lr=1e-2)
    for p in params.values():
        p.grad[...] = rng.normal(size=p.shape)
    opt.step()  # moments are non-zero from here on

    def state():
        return opt.t, opt.data.tobytes(), opt.m.tobytes(), opt.v.tobytes()

    before = state()
    for p in params.values():
        p.grad[...] = rng.normal(size=p.shape)
    params["b"].grad[2] = np.inf  # "a" comes first, so a partial update would show there
    with pytest.raises(FloatingPointError, match="gradient for b"):
        opt.step()
    assert state() == before
