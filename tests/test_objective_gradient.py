"""Whole-objective gradient checks: each training objective's backward
pass, dotted with a random direction, against a central difference of
the objective along that direction.

The per-op tests check each gradient rule alone; these check how the
rules compose through a full forward of a criterion-9-size space, on a
padded batch whose utterances have unequal lengths.
"""

import numpy as np
import pytest

from confadapt.data import Batch
from confadapt.losses import EOS_ID, SOS_ID
from confadapt.search import ArchLogits, penalized_loss, sample_weights
from confadapt.space import ArchSpace, DerivedArch
from confadapt.supernet import ConformerSupernet
from confadapt.tensor import backward, no_grad

# the space of the criterion-9 recipe
SPACE = ArchSpace(
    model_dim=16, feat_dim=6, vocab_size=9, encoder_blocks=1, decoder_blocks=1,
    ff_choices=(8, 16), head_choices=(1, 2), head_dim_choices=(4, 8),
    kernel_choices=(3, 5),
)
EPS = 1e-5
BOUND = 1e-6


def padded_batch(space, lens=(19, 14, 9), token_lens=(3, 2, 1), seed=0):
    """Utterances of unequal lengths, zero-padded to the longest, with
    references of unequal lengths."""
    draw = np.random.default_rng(seed)
    b, t = len(lens), max(lens)
    feats = np.zeros((b, t, space.feat_dim))
    tokens_in = np.full((b, max(token_lens) + 1), EOS_ID, dtype=np.int64)
    tokens_in[:, 0] = SOS_ID
    seqs = []
    for i, (n_frames, n_tokens) in enumerate(zip(lens, token_lens)):
        feats[i, :n_frames] = draw.normal(size=(n_frames, space.feat_dim))
        s = draw.permutation(np.arange(3, space.vocab_size))[:n_tokens]
        tokens_in[i, 1:1 + n_tokens] = s
        seqs.append(s)
    return Batch(feats, np.array(lens), tokens_in, seqs)


def directional_error(objective, params, seed):
    """Relative gap between the backward dot product along a random
    direction and the central difference of ``objective`` along it."""
    draw = np.random.default_rng(seed)
    direction = {n: draw.normal(size=p.shape) for n, p in params.items()}
    for p in params.values():
        p.zero_grad()
    backward(objective())
    analytic = sum(float((params[n].grad * d).sum()) for n, d in direction.items())

    def shifted(step):
        for n, d in direction.items():
            params[n].data += step * d
        try:
            with no_grad():
                return objective().item()
        finally:
            for n, d in direction.items():
                params[n].data -= step * d

    numeric = (shifted(EPS) - shifted(-EPS)) / (2.0 * EPS)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric))


@pytest.fixture(scope="module")
def batch():
    return padded_batch(SPACE)


def test_supernet_loss_over_every_shared_weight(batch):
    net = ConformerSupernet(SPACE, seed=3)
    logits = ArchLogits(SPACE)
    draw = np.random.default_rng(4)
    for vec in logits.groups.values():
        vec.data[...] = draw.normal(size=vec.shape)
    with no_grad():
        lam = sample_weights(logits, rng=np.random.default_rng(5), temperature=0.8)
    params = net.named_parameters()
    assert directional_error(lambda: net.batch_loss(batch, lam), params, seed=6) < BOUND


def test_penalized_loss_over_the_logits(batch):
    net = ConformerSupernet(SPACE, seed=3)
    for p in net.named_parameters().values():
        p.requires_grad = False
    logits = ArchLogits(SPACE, eta=1e-4)
    draw = np.random.default_rng(7)
    for vec in logits.groups.values():
        vec.data[...] = draw.normal(size=vec.shape)

    def objective():
        # the same Gumbel noise on every evaluation
        lam = sample_weights(logits, rng=np.random.default_rng(8), temperature=0.8)
        return penalized_loss(net.batch_loss(batch, lam), logits)

    assert directional_error(objective, logits.named_parameters(), seed=9) < BOUND


def test_derived_model_loss_over_every_weight(batch):
    arch = DerivedArch.sample_uniform(SPACE, np.random.default_rng(10))
    model = ConformerSupernet(SPACE, seed=3).materialize(arch)
    params = model.named_parameters()
    assert directional_error(lambda: model.batch_loss(batch), params, seed=11) < BOUND
