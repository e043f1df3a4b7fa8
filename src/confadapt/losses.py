"""Hybrid CTC + attention training objective, greedy decoding, and edit distance.

Token id conventions used across the package: id 0 is the CTC blank,
ids 1 and 2 are the decoder start/end sentinels, real tokens start at 3.
References never contain the blank or sentinels.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from . import tensor as T
from .tensor import ShapeError, Tensor, no_grad

BLANK_ID = 0
SOS_ID = 1
EOS_ID = 2
FIRST_TOKEN_ID = 3
# share of the CTC objective in the hybrid loss; attention takes the rest
CTC_WEIGHT = 0.3


class InfeasibleAlignmentError(ValueError):
    """Reference is too long for the available frames under CTC rules."""


@dataclass(frozen=True)
class TokenSeq:
    ids: tuple = ()
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))

    def __len__(self):
        return len(self.ids)


def _ref_ids(reference):
    ids = tuple(int(i) for i in reference)
    if any(i == BLANK_ID for i in ids):
        raise ValueError("reference sequences must not contain the blank id")
    return ids


def ctc_min_frames(reference):
    """Minimal frame count admitting a CTC alignment of the reference."""
    ids = _ref_ids(reference)
    repeats = sum(1 for a, b in zip(ids, ids[1:]) if a == b)
    return len(ids) + repeats


def ctc_loss(log_probs, frame_lens, references):
    """Per-utterance negative log probability summed over all CTC alignments.

    ``log_probs`` is a padded (batch, frames, vocab) tensor of per-frame
    log scores (normalized in normal use; the recursion does not require
    it). Utterance ``b`` aligns ``references[b]`` to its first
    ``frame_lens[b]`` frames. Returns a (batch,) tensor recorded as one op.

    The forward runs the log-space alpha recursion over the whole batch,
    one step per frame. The backward runs the matching beta recursion and
    applies the closed-form occupancy gradient (Graves et al., ICML 2006):
    d loss_b / d log_probs[b, t, k] is minus the sum, over extended label
    positions s holding k, of exp(alpha_t(s) + beta_t(s) - emit_t(s) - log Z_b),
    where alpha and beta both include the emission at t. Padded frames and
    padded label slots get exactly zero gradient, and a non-finite score in
    one utterance stays in that utterance's loss and gradient.
    """
    log_probs = T.as_tensor(log_probs)
    if log_probs.ndim != 3:
        raise ShapeError(
            f"ctc_loss: log_probs must be (batch, frames, vocab), got {log_probs.shape}"
        )
    batch, frames, vocab = log_probs.shape
    lens = np.asarray(frame_lens, dtype=np.int64)
    if lens.shape != (batch,) or len(references) != batch:
        raise ShapeError(
            f"ctc_loss: {batch} utterances, frame lengths of shape {lens.shape} "
            f"and {len(references)} references"
        )
    if ((lens < 1) | (lens > frames)).any():
        raise ShapeError(f"ctc_loss: frame lengths {lens.tolist()} outside [1, {frames}]")
    refs = [_ref_ids(r) for r in references]
    for n, ids in zip(lens, refs):
        if any(not 0 <= i < vocab for i in ids):
            raise ValueError(f"ctc_loss: reference id out of vocabulary ({vocab})")
        if n < ctc_min_frames(ids):
            raise InfeasibleAlignmentError(
                f"ctc_loss: {n} frames cannot align a reference of length {len(ids)} "
                f"(minimum {ctc_min_frames(ids)})"
            )

    # blank-extended labels (blank, y1, blank, ..., blank), blank-padded
    # to the longest; ``live`` marks the real (frame, position) cells
    s_lens = np.array([2 * len(ids) + 1 for ids in refs], dtype=np.int64)
    s_max = int(s_lens.max())
    ext = np.full((batch, s_max), BLANK_ID, dtype=np.int64)
    for b, ids in enumerate(refs):
        ext[b, 1:2 * len(ids):2] = ids
    pos = np.arange(s_max)
    valid = pos < s_lens[:, None]
    live = valid[:, None, :] & (np.arange(frames)[:, None] < lens[:, None, None])
    # the skip s-2 -> s is legal only into a label that differs from ext[s-2]
    skip = np.zeros((batch, s_max), dtype=bool)
    skip[:, 2:] = (ext[:, 2:] != BLANK_ID) & (ext[:, 2:] != ext[:, :-2])
    emit = np.take_along_axis(
        log_probs.data, np.broadcast_to(ext[:, None, :], (batch, frames, s_max)), axis=2)
    # padded scores, finite or not, never enter alpha, beta or the gradient
    emit = np.where(live, emit, 0.0)

    # alpha[:, t, 2 + s]; the two leading -inf columns stand for s-1 and s-2 at s < 2
    alpha = np.full((batch, frames, s_max + 2), -np.inf)
    alpha[:, 0, 2:] = np.where(live[:, 0] & (pos < 2), emit[:, 0], -np.inf)
    for t in range(1, frames):
        prev = alpha[:, t - 1]
        a = np.logaddexp(prev[:, 2:], prev[:, 1:-1])
        a = np.logaddexp(a, np.where(skip, prev[:, :-2], -np.inf))
        alpha[:, t, 2:] = np.where(live[:, t], a + emit[:, t], -np.inf)
    rows = np.arange(batch)
    last = alpha[rows, lens - 1, 2:]
    log_z = np.logaddexp(last[rows, s_lens - 1],
                         np.where(s_lens > 1, last[rows, s_lens - 2], -np.inf))

    def bw(g):
        # beta[:, t, s]; the two trailing -inf columns stand for s+1 and s+2 past the end
        beta = np.full((batch, frames + 1, s_max + 2), -np.inf)
        skip_from = np.zeros_like(skip)
        skip_from[:, :-2] = skip[:, 2:]
        ends = valid & (pos >= s_lens[:, None] - 2)
        for t in range(frames - 1, -1, -1):
            nxt = beta[:, t + 1]
            r = np.logaddexp(nxt[:, :-2], nxt[:, 1:-1])
            r = np.logaddexp(r, np.where(skip_from, nxt[:, 2:], -np.inf))
            r = np.where((t == lens - 1)[:, None], np.where(ends, 0.0, -np.inf), r)
            beta[:, t, :-2] = np.where(live[:, t], r + emit[:, t], -np.inf)
        occ = np.exp(alpha[:, :, 2:] + beta[:, :frames, :-2] - emit - log_z[:, None, None])
        onehot = np.zeros((batch, s_max, vocab))
        onehot[rows[:, None], pos, ext] = valid
        T._accumulate(log_probs, (occ @ onehot) * -g[:, None, None])

    return T._from_op(-log_z, (log_probs,), bw)


def attention_ce_loss(dec_logits, references, smoothing=0.1):
    """Per-utterance mean label-smoothed cross-entropy over reference tokens plus EOS.

    ``dec_logits`` is a padded (batch, positions, vocab) tensor of
    teacher-forced decoder scores: utterance ``b`` reads its first
    len(references[b]) + 1 positions, the last predicting the end
    sentinel. Returns a (batch,) tensor. Padded positions are masked out
    before the softmax, so they never enter a loss or its gradient, even
    when they hold non-finite values.
    """
    dec_logits = T.as_tensor(dec_logits)
    targets = [list(_ref_ids(r)) + [EOS_ID] for r in references]
    lens = np.array([len(t) for t in targets])
    shape = dec_logits.shape
    if len(shape) != 3 or shape[0] != len(targets) or shape[1] < lens.max(initial=0):
        raise ShapeError(
            f"attention_ce_loss: logits shape {shape} does not fit {len(targets)} "
            f"references of up to {lens.max(initial=0)} target positions"
        )
    batch, positions, vocab = shape
    if any(not 0 <= t < vocab for ts in targets for t in ts):
        raise ValueError(f"attention_ce_loss: target id out of vocabulary ({vocab})")
    live = np.arange(positions) < lens[:, None]
    q = np.zeros((batch, positions, vocab))
    q[live] = smoothing / vocab
    rows, cols = np.nonzero(live)
    q[rows, cols, np.concatenate(targets)] += 1.0 - smoothing
    lp = T.log_softmax(T.masked_fill(dec_logits, ~live[..., None], 0.0), axis=-1)
    return (lp * Tensor(q)).sum(axis=(1, 2)) * Tensor(-1.0 / lens)


def hybrid_loss(ctc, aed):
    """Interpolate the CTC and attention objectives: w*ctc + (1-w)*aed, w = CTC_WEIGHT."""
    return ctc * CTC_WEIGHT + aed * (1.0 - CTC_WEIGHT)


def hybrid_batch_loss(ctc_logprobs, enc_lens, dec_logits, token_seqs):
    """Mean hybrid loss over a padded batch.

    CTC runs over the encoder frames up to each true encoder length, the
    attention cross-entropy over the decoder positions up to each true
    token count plus EOS; both return per-utterance losses.
    """
    if len(token_seqs) == 0:
        raise ValueError("hybrid_batch_loss: empty batch")
    ctc = ctc_loss(ctc_logprobs, enc_lens, token_seqs)
    return hybrid_loss(ctc, attention_ce_loss(dec_logits, token_seqs)).mean()


def greedy_decode(model, features):
    """Greedy attention decoding of a single utterance.

    ``model`` must expose ``forward_encoder(features, lens)`` returning
    (enc, enc_lens) and ``forward_decoder(enc, enc_lens, tokens_in)``
    returning logits. Stops at the end sentinel; if the cap of
    ``2 * enc_len + 10`` tokens is hit first the hypothesis is flagged
    truncated.
    """
    feats = np.asarray(features, dtype=np.float64)
    with no_grad():
        enc, enc_lens = model.forward_encoder(feats[None], np.array([feats.shape[0]]))
        prefix = [SOS_ID]
        for _ in range(int(enc_lens[0]) * 2 + 10):
            logits = model.forward_decoder(enc, enc_lens, np.array([prefix]))
            nxt = int(np.argmax(logits.data[0, -1]))
            if nxt == EOS_ID:
                return TokenSeq(prefix[1:], truncated=False)
            prefix.append(nxt)
    return TokenSeq(prefix[1:], truncated=True)


def edit_distance(a, b):
    """Levenshtein distance over two token sequences (two-row DP)."""
    a = list(a)
    b = list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ai in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, bj in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ai != bj))
        prev = cur
    return prev[len(b)]
