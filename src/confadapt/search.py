"""Architecture-weight machinery: Gumbel-Softmax sampling, temperature
annealing, the size-penalized search loss, alternating optimization of
shared weights and selection logits, and 1-best extraction.

Selection weights for candidate i of a group are

    lam_i = exp((logit_i + g_i) / T) / sum_j exp((logit_j + g_j) / T)

with g_i = -log(-log(u_i)), u_i uniform. The noise is treated as a
constant, so gradients flow to the logits (reparameterization). As T
drops toward zero the samples approach one-hot vectors.

The size penalty uses the noise-free expected weights (softmax of the
logits at T=1): raw unnormalized candidate scores are scale-invariant
under the softmax, so penalizing them directly would be degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .optim import zero_all
from .space import expected_param_count, DerivedArch, _key_str
from .tensor import Tensor, backward


@dataclass(frozen=True)
class TempSchedule:
    """Exponential decay per epoch from t_start to t_end."""

    t_start: float = 1.0
    t_end: float = 0.1

    def __post_init__(self):
        if not self.t_start >= self.t_end > 0:
            raise ValueError(f"TempSchedule: need t_start >= t_end > 0, got {self}")

    def value(self, epoch, total_epochs):
        if total_epochs <= 1:
            return self.t_end
        frac = epoch / (total_epochs - 1)
        return float(self.t_start * (self.t_end / self.t_start) ** frac)


class ArchLogits:
    """One free logit vector per searchable group, plus the sampling
    temperature and the size-penalty factor."""

    def __init__(self, space, temperature=1.0, eta=0.0):
        if temperature <= 0:
            raise ValueError(f"ArchLogits: temperature must be positive, got {temperature}")
        if eta < 0:
            raise ValueError(f"ArchLogits: penalty factor must be nonnegative, got {eta}")
        self.space = space
        self.temperature = float(temperature)
        self.eta = float(eta)
        # zero logits: uniform prior over candidates
        self.groups = {
            key: Tensor(np.zeros(len(choices)), requires_grad=True)
            for key, choices in space.groups()
        }

    def named_parameters(self):
        return {f"logits.{_key_str(k)}": t for k, t in self.groups.items()}


def sample_weights(logits, rng=None, temperature=None):
    """Draw per-group mixing weights with Gumbel noise on the logits.

    ``rng=None`` is the deterministic hook: zero noise, which reduces to
    a plain tempered softmax of the logits.
    """
    t = logits.temperature if temperature is None else float(temperature)
    if t <= 0:
        raise ValueError(f"sample_weights: temperature must be positive, got {t}")
    out = {}
    for key, vec in logits.groups.items():
        if rng is None:
            noise = np.zeros(vec.shape)
        else:
            u = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=vec.shape)
            noise = -np.log(-np.log(u))
        out[key] = T.softmax((vec + Tensor(noise)) * (1.0 / t), axis=-1)
    return out


def expected_weights(logits):
    """Noise-free softmax of the logits (used for penalty and reporting)."""
    return {key: T.softmax(vec, axis=-1) for key, vec in logits.groups.items()}


def penalized_loss(task_loss, logits, eta=None):
    """Task loss plus eta times the expected model size under the logits."""
    e = logits.eta if eta is None else float(eta)
    if e < 0:
        raise ValueError(f"penalized_loss: penalty factor must be nonnegative, got {e}")
    if e == 0.0:
        return task_loss
    size = expected_param_count(logits.space, expected_weights(logits))
    return task_loss + size * e


def extract(logits):
    """1-best choice per group; ties break toward the smaller candidate."""
    choices = {}
    for key, vec in logits.groups.items():
        if not np.isfinite(vec.data).all():
            raise ValueError(f"extract: non-finite logits in group {key}")
        opts = logits.space.group_choices(key)
        choices[key] = opts[int(np.argmax(vec.data))]
    return DerivedArch(choices)


def _require_finite(loss, which):
    if not np.isfinite(loss.item()):
        raise FloatingPointError(f"alternating_step: non-finite {which} loss")


def alternating_step(train_batch, heldout_batch, task, logits, opt_weights, opt_logits, rng):
    """One decoupled optimization step.

    First the shared weights take a gradient step on the training batch
    with freshly sampled mixing weights (logits not updated), then the
    logits take a step on the held-out batch through the penalized loss
    (shared weights not updated). ``rng`` draws the Gumbel noise of both
    samples. Returns both loss values.

    Each loss is checked before its backward pass: a non-finite one raises
    ``FloatingPointError`` and its optimizer does not step, so a poisoned
    batch leaves the parameters it would have updated as they were. A
    non-finite gradient makes ``Adam.step`` raise the same way.
    """
    if train_batch.size == 0 or heldout_batch.size == 0:
        raise ValueError("alternating_step: empty batch")

    zero_all(task.named_parameters(), logits.groups)
    lam = sample_weights(logits, rng=rng)
    loss_w = task.batch_loss(train_batch, lam)
    _require_finite(loss_w, "training")
    backward(loss_w)
    opt_weights.step()

    zero_all(task.named_parameters(), logits.groups)
    lam = sample_weights(logits, rng=rng)
    loss_l = penalized_loss(task.batch_loss(heldout_batch, lam), logits)
    _require_finite(loss_l, "held-out")
    backward(loss_l)
    opt_logits.step()

    zero_all(task.named_parameters(), logits.groups)
    return float(loss_w.item()), float(loss_l.item())
