"""Architecture-weight machinery: Gumbel-Softmax sampling, the
size-penalized search loss, alternating optimization of shared weights
and selection logits, and 1-best extraction. The logits hold no
temperature: ``pipeline.StageConfig.temperature`` gives each epoch's
value, and the search stage passes it to every ``alternating_step``.

Selection weights for candidate i of a group are

    lam_i = exp((logit_i + g_i) / T) / sum_j exp((logit_j + g_j) / T)

with g_i = -log(-log(u_i)), u_i uniform. The noise is treated as a
constant, so gradients flow to the logits (reparameterization). As T
drops toward zero the samples approach one-hot vectors.

The size penalty uses the noise-free expected weights (softmax of the
logits at T=1): raw unnormalized candidate scores are scale-invariant
under the softmax, so penalizing them directly would be degenerate.

Sampling draws the noise of every group in one ``rng.uniform`` call and
records every group's softmax as one op, whose output is the flat vector
of a ``space.GroupWeights``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .optim import zero_all
from .space import GroupWeights, expected_param_count, DerivedArch, _key_str
from .tensor import Tensor, backward


class ArchLogits:
    """One free logit vector per searchable group, plus the size-penalty factor."""

    def __init__(self, space, eta=0.0):
        if not eta >= 0:
            raise ValueError(f"ArchLogits: penalty factor must be nonnegative, got {eta}")
        self.space = space
        self.eta = float(eta)
        # zero logits: uniform prior over candidates
        self.groups = {
            key: Tensor(np.zeros(len(choices)), requires_grad=True)
            for key, choices in space.groups()
        }

    def named_parameters(self):
        return {f"logits.{_key_str(k)}": t for k, t in self.groups.items()}


def _group_softmax(logits, noise, scale):
    """Every group's softmax of ``(logit + noise) * scale``, recorded as one
    op over the group tensors; the result is flat, in ``space.layout``
    order. The logits are read as they are at the call: an optimizer may
    have rebound each group's ``data`` since ``ArchLogits`` made it."""
    lay = logits.space.layout
    vecs = [logits.groups[key] for key in lay.keys]
    x = np.concatenate([v.data for v in vecs])
    if noise is not None:
        x += noise
    x *= scale
    y = lay.padded(x, -np.inf)
    y -= y.max(axis=1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=1, keepdims=True)

    def bw(g):
        t = lay.padded(g, 0.0)
        t -= (t * y).sum(axis=1, keepdims=True)
        t *= y
        t = lay.flat(t)
        t *= scale
        for key, v in zip(lay.keys, vecs):
            if v.requires_grad:
                T._accumulate(v, t[lay.spans[key]])

    return T._from_op(lay.flat(y), vecs, bw)


def sample_weights(logits, rng=None, temperature=1.0):
    """Draw per-group mixing weights with Gumbel noise on the logits.

    ``rng=None`` is the deterministic hook: zero noise, which reduces to
    a plain tempered softmax of the logits. One ``rng.uniform`` call draws
    the noise of every group, the same numbers as one draw per group in
    ``space.groups()`` order. Returns a ``GroupWeights``.
    """
    if not temperature > 0:
        raise ValueError(f"sample_weights: temperature must be positive, got {temperature}")
    noise = None
    if rng is not None:
        u = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=logits.space.layout.size)
        noise = -np.log(-np.log(u))
    return GroupWeights(logits.space, _group_softmax(logits, noise, 1.0 / temperature))


def expected_weights(logits):
    """Noise-free softmax of the logits (used for penalty and reporting)."""
    return GroupWeights(logits.space, _group_softmax(logits, None, 1.0))


def penalized_loss(task_loss, logits):
    """Task loss plus ``logits.eta`` times the expected model size under the logits.

    With ``eta`` zero the task loss comes back as is, and the size is not
    computed.
    """
    if logits.eta == 0.0:
        return task_loss
    size = expected_param_count(logits.space, expected_weights(logits))
    return task_loss + size * logits.eta


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


def alternating_step(train_batch, heldout_batch, task, logits, opt_weights, opt_logits, rng,
                     temperature):
    """One decoupled optimization step, first order as in DARTS.

    ``task`` is anything with ``space``, ``named_parameters()`` and
    ``batch_loss(batch, weights)``: the search stages pass the
    ``ConformerSupernet`` itself, and the tests also pass small toy tasks.

    First the shared weights take a gradient step on the training batch
    with freshly sampled mixing weights, then the logits take a step on
    the held-out batch through the penalized loss. Each half holds the
    other parameter set fixed and records only the graph of what it
    steps: the weight half draws its mixing weights under ``no_grad``, so
    the logits stay off its tape; the logits half clears
    ``requires_grad`` on the shared weights for its forward and backward
    pass and restores it on the way out, also when the half raises.
    ``rng`` draws the Gumbel noise of both samples, both at
    ``temperature``. Returns both loss values.

    Gradients are cleared once, on entry. ``Adam.step`` clears what it
    steps; the entry clear removes what a refused step left behind.

    Each loss is checked before its backward pass: a non-finite one raises
    ``FloatingPointError`` and its optimizer does not step, so a poisoned
    batch leaves the parameters it would have updated as they were. A
    non-finite gradient makes ``Adam.step`` raise the same way.
    """
    if train_batch.size == 0 or heldout_batch.size == 0:
        raise ValueError("alternating_step: empty batch")

    weights = task.named_parameters()
    zero_all(weights, logits.groups)
    with T.no_grad():
        lam = sample_weights(logits, rng, temperature)
    loss_w = task.batch_loss(train_batch, lam)
    _require_finite(loss_w, "training")
    backward(loss_w)
    opt_weights.step()

    frozen = [p for p in weights.values() if p.requires_grad]
    for p in frozen:
        p.requires_grad = False
    try:
        lam = sample_weights(logits, rng, temperature)
        loss_l = penalized_loss(task.batch_loss(heldout_batch, lam), logits)
        _require_finite(loss_l, "held-out")
        backward(loss_l)
    finally:
        for p in frozen:
            p.requires_grad = True
    opt_logits.step()
    return float(loss_w.item()), float(loss_l.item())
