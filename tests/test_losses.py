"""Sequence losses against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from confadapt import tensor as T
from confadapt.losses import (
    BLANK_ID,
    EOS_ID,
    FIRST_TOKEN_ID,
    SOS_ID,
    InfeasibleAlignmentError,
    TokenSeq,
    attention_ce_loss,
    ctc_loss,
    ctc_min_frames,
    edit_distance,
    greedy_decode,
    hybrid_batch_loss,
    hybrid_loss,
)
from confadapt.pipeline import error_rate
from confadapt.tensor import ShapeError, Tensor, backward

from util_grad import check_grads

rng = np.random.default_rng(7)


def collapse(path):
    out = []
    prev = None
    for p in path:
        if p != prev and p != BLANK_ID:
            out.append(p)
        prev = p
    return tuple(out)


def ctc_bruteforce(log_probs, ref):
    """Enumerate every frame-level path and sum the matching ones."""
    frames, vocab = log_probs.shape
    ref = tuple(ref)
    scores = []
    for path in itertools.product(range(vocab), repeat=frames):
        if collapse(path) == ref:
            scores.append(sum(log_probs[t, v] for t, v in enumerate(path)))
    if not scores:
        return None
    m = max(scores)
    return -(m + math.log(sum(math.exp(s - m) for s in scores)))


LOG_ZERO = -1.0e30


def tape_ctc_loss(log_probs, reference):
    """CTC of one feasible utterance with the alpha recursion unrolled frame
    by frame on the tape, so its gradient comes from the generic op rules."""
    frames, vocab = log_probs.shape
    ext = [BLANK_ID]
    for i in reference:
        ext.extend((i, BLANK_ID))
    s_len = len(ext)
    onehot = np.zeros((vocab, s_len))
    onehot[ext, np.arange(s_len)] = 1.0
    emit = log_probs @ Tensor(onehot)  # (frames, s_len)

    alpha = T.masked_fill(emit[0], np.arange(s_len) >= 2, LOG_ZERO)
    lz1 = Tensor([LOG_ZERO])
    lz2 = Tensor([LOG_ZERO, LOG_ZERO])
    no_skip = np.array(
        [ext[s] == BLANK_ID or (s >= 2 and ext[s] == ext[s - 2]) for s in range(s_len)]
    )
    for t in range(1, frames):
        cands = [alpha, T.concat([lz1, alpha[: s_len - 1]])]
        if s_len > 2:
            cands.append(T.masked_fill(T.concat([lz2, alpha[: s_len - 2]]), no_skip, LOG_ZERO))
        stacked = T.concat([c.reshape(1, s_len) for c in cands], axis=0)
        alpha = T.logsumexp(stacked, axis=0) + emit[t]

    if s_len > 1:
        total = T.logsumexp(alpha[s_len - 2:], axis=0)
    else:
        total = alpha[0]
    return total * -1.0


def ctc_single(x, ref):
    """The batched CTC op on one utterance that fills its (frames, vocab) scores."""
    x = T.as_tensor(x)
    frames, vocab = x.shape
    return ctc_loss(x.reshape(1, frames, vocab), [frames], [ref])[0]


def rand_logprobs(frames, vocab):
    x = rng.normal(size=(frames, vocab)) * 2.0
    return x - np.log(np.exp(x).sum(-1, keepdims=True))


class TestCTC:
    def test_single_frame_single_token(self):
        lp = np.log(np.full((1, 3), 1 / 3))
        loss = ctc_single(Tensor(lp), [1])
        np.testing.assert_allclose(loss.item(), -math.log(1 / 3), atol=1e-12)

    def test_empty_reference_all_blank(self):
        lp = rand_logprobs(4, 3)
        loss = ctc_single(Tensor(lp), [])
        np.testing.assert_allclose(loss.item(), -lp[:, BLANK_ID].sum(), atol=1e-10)

    def test_three_frames_two_tokens_vs_enumeration(self):
        lp = rand_logprobs(3, 3)
        loss = ctc_single(Tensor(lp), [1, 2])
        np.testing.assert_allclose(loss.item(), ctc_bruteforce(lp, (1, 2)), atol=1e-10)

    def test_exhaustive_small_instances(self):
        # every reference over tokens {1, 2} up to length 2, frames up to 4
        for frames in range(1, 5):
            for ref_len in range(0, 3):
                for ref in itertools.product((1, 2), repeat=ref_len):
                    lp = rand_logprobs(frames, 3)
                    expect = ctc_bruteforce(lp, ref)
                    if expect is None:
                        with pytest.raises(InfeasibleAlignmentError):
                            ctc_single(Tensor(lp), ref)
                    else:
                        got = ctc_single(Tensor(lp), ref).item()
                        np.testing.assert_allclose(got, expect, atol=1e-8)

    def test_infeasible_raises(self):
        lp = rand_logprobs(2, 3)
        with pytest.raises(InfeasibleAlignmentError, match="frames"):
            ctc_single(Tensor(lp), [1, 1])  # repeat needs 3 frames

    def test_blank_in_reference_rejected(self):
        with pytest.raises(ValueError, match="blank"):
            ctc_single(Tensor(rand_logprobs(4, 3)), [1, BLANK_ID])

    def test_gradient_matches_finite_differences(self):
        lp = rand_logprobs(4, 3)
        check_grads(lambda x: ctc_single(x, [1, 2]), [lp])

    def test_gradient_longer_case(self):
        lp = rand_logprobs(7, 4)
        check_grads(lambda x: ctc_single(x, [2, 3, 2]), [lp])


def rand_padded_batch(case_rng, batch, frames, vocab):
    """Normalized scores, padded frames included, plus references and frame
    lengths that mix empty, length-1, repeated and minimum-frame cases."""
    x = case_rng.normal(size=(batch, frames, vocab)) * 2.0
    lp = x - np.log(np.exp(x).sum(-1, keepdims=True))
    refs, lens = [], []
    for _ in range(batch):
        ref = case_rng.integers(1, vocab, size=case_rng.integers(0, frames + 1)).tolist()
        while ctc_min_frames(ref) > frames:
            ref.pop()
        low = max(ctc_min_frames(ref), 1)
        n = low if case_rng.random() < 0.3 else int(case_rng.integers(low, frames + 1))
        refs.append(ref)
        lens.append(n)
    return lp, lens, refs


class TestFusedCTC:
    @pytest.mark.filterwarnings("error")
    def test_matches_tape_oracle_on_random_padded_batches(self):
        case_rng = np.random.default_rng(2006)
        seen = {"empty": 0, "single": 0, "repeat": 0, "min_frames": 0, "mixed_lens": 0}
        worst_loss = worst_grad = 0.0
        for _ in range(240):
            batch = int(case_rng.integers(1, 5))
            vocab = int(case_rng.integers(3, 7))
            frames = int(case_rng.integers(1, 12))
            lp, lens, refs = rand_padded_batch(case_rng, batch, frames, vocab)
            upstream = case_rng.normal(size=batch)

            x = Tensor(lp, requires_grad=True)
            loss = ctc_loss(x, lens, refs)
            backward((loss * Tensor(upstream)).sum())
            for b, (n, ref) in enumerate(zip(lens, refs)):
                xb = Tensor(lp[b, :n], requires_grad=True)
                expect = tape_ctc_loss(xb, ref)
                backward(expect * upstream[b])
                worst_loss = max(worst_loss, abs(loss.data[b] - expect.item()))
                worst_grad = max(worst_grad, np.abs(x.grad[b, :n] - xb.grad).max())
                assert (x.grad[b, n:] == 0).all()
                seen["empty"] += not ref
                seen["single"] += len(ref) == 1
                seen["repeat"] += any(a == c for a, c in zip(ref, ref[1:]))
                seen["min_frames"] += bool(ref) and n == ctc_min_frames(ref)
            seen["mixed_lens"] += len(set(lens)) > 1
        assert worst_loss < 1e-10 and worst_grad < 1e-10, (worst_loss, worst_grad)
        assert min(seen.values()) >= 20, seen

    def test_gradient_matches_finite_differences_on_padded_batch(self):
        case_rng = np.random.default_rng(3)
        lp, _, _ = rand_padded_batch(case_rng, 3, 6, 4)
        weights = Tensor([0.7, -1.3, 0.4])
        check_grads(lambda x: (ctc_loss(x, [6, 4, 2], [[1, 2, 2], [3], []]) * weights).sum(),
                    [lp])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_stays_in_its_utterance(self):
        lp, _, _ = rand_padded_batch(np.random.default_rng(5), 3, 6, 4)
        lens, refs = [6, 5, 3], [[1, 2], [2, 3], [1]]

        def run(scores):
            x = Tensor(scores, requires_grad=True)
            loss = ctc_loss(x, lens, refs)
            backward(loss.sum())
            return loss.data, x.grad

        clean_loss, clean_grad = run(lp)
        poisoned = lp.copy()
        poisoned[1, 2, 2] = np.nan   # a score utterance 1 reads
        poisoned[2, 4, 0] = np.nan   # a padded frame of utterance 2
        loss, grad = run(poisoned)
        assert np.isnan(loss[1]) and np.isnan(grad[1]).any()
        for b in (0, 2):
            assert loss[b] == clean_loss[b]
            assert (grad[b] == clean_grad[b]).all()
        assert (grad[2, 3:] == 0).all()

    def test_batch_shape_length_and_vocabulary_errors(self):
        lp = Tensor(rand_logprobs(4, 3).reshape(1, 4, 3))
        with pytest.raises(ShapeError, match="batch, frames, vocab"):
            ctc_loss(Tensor(rand_logprobs(4, 3)), [4], [[1]])
        with pytest.raises(ShapeError, match="references"):
            ctc_loss(lp, [4], [[1], [2]])
        with pytest.raises(ShapeError, match="references"):
            ctc_loss(lp, [4, 4], [[1]])
        for n in (0, 5):
            with pytest.raises(ShapeError, match=r"outside \[1, 4\]"):
                ctc_loss(lp, [n], [[1]])
        with pytest.raises(ValueError, match="out of vocabulary"):
            ctc_loss(lp, [4], [[3]])
        with pytest.raises(InfeasibleAlignmentError, match="2 frames cannot align"):
            ctc_loss(lp, [2], [[1, 1]])


def loop_attention_ce(decoder_logits, reference, smoothing=0.1):
    """Attention cross-entropy of one utterance from its own
    (len(reference) + 1, vocab) logits, built on the tape row block by row block."""
    targets = list(reference) + [EOS_ID]
    assert decoder_logits.shape[0] == len(targets)
    vocab = decoder_logits.shape[1]
    q = np.full((len(targets), vocab), smoothing / vocab)
    q[np.arange(len(targets)), targets] += 1.0 - smoothing
    lp = T.log_softmax(decoder_logits, axis=-1)
    return ((lp * Tensor(q)).sum() * -1.0) * (1.0 / len(targets))


def loop_hybrid_batch_loss(ctc_logprobs, enc_lens, dec_logits, token_seqs):
    """Mean hybrid loss with the attention half summed one utterance at a time."""
    ctc = ctc_loss(ctc_logprobs, enc_lens, token_seqs)
    total = None
    for i, ref in enumerate(token_seqs):
        a = loop_attention_ce(dec_logits[i, : len(ref) + 1], ref)
        h = hybrid_loss(ctc[i], a)
        total = h if total is None else total + h
    return total * (1.0 / len(token_seqs))


def ce_single(x, ref, smoothing=0.1):
    """The batched cross-entropy on one utterance that fills its (positions, vocab) logits."""
    x = T.as_tensor(x)
    positions, vocab = x.shape
    return attention_ce_loss(x.reshape(1, positions, vocab), [ref], smoothing=smoothing)[0]


class TestAttentionCE:
    def test_near_one_hot_logits_near_zero_loss(self):
        ref = [3, 4]
        targets = ref + [EOS_ID]
        logits = np.full((3, 6), -50.0)
        logits[np.arange(3), targets] = 50.0
        loss = ce_single(Tensor(logits), ref, smoothing=0.0)
        assert loss.item() < 1e-12

    def test_uniform_logits_log_vocab(self):
        loss = ce_single(Tensor(np.zeros((4, 7))), [3, 4, 5], smoothing=0.0)
        np.testing.assert_allclose(loss.item(), math.log(7), atol=1e-12)

    def test_smoothed_two_token_case_matches_direct_formula(self):
        vocab, eps = 5, 0.1
        ref = [3, 4]
        logits = rng.normal(size=(3, vocab))
        got = ce_single(Tensor(logits), ref, smoothing=eps).item()
        # independent evaluation of the smoothed cross-entropy
        lp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
        targets = ref + [EOS_ID]
        expect = 0.0
        for t, tgt in enumerate(targets):
            q = np.full(vocab, eps / vocab)
            q[tgt] += 1 - eps
            expect -= (q * lp[t]).sum()
        expect /= len(targets)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(T.ShapeError, match="target positions"):
            ce_single(Tensor(np.zeros((2, 5))), [3, 4])

    def test_gradient(self):
        logits = rng.normal(size=(3, 5))
        check_grads(lambda x: ce_single(x, [3, 4], smoothing=0.1), [logits])


def rand_hybrid_batch(case_rng, batch):
    """CTC scores and padded decoder logits over shared references. Decoder
    positions past each reference's EOS hold large random scores."""
    vocab = int(case_rng.integers(3, 8))
    frames = int(case_rng.integers(1, 11))
    lp, lens, refs = rand_padded_batch(case_rng, batch, frames, vocab)
    positions = max(len(r) for r in refs) + 1 + int(case_rng.integers(0, 3))
    dec = case_rng.normal(size=(batch, positions, vocab)) * 3.0
    return lp, lens, dec, refs


class TestBatchedAttentionCE:
    @pytest.mark.filterwarnings("error")
    def test_matches_loop_oracle_on_random_padded_batches(self):
        case_rng = np.random.default_rng(2017)
        seen = {"empty": 0, "padded": 0, "mixed_lens": 0}
        worst = {"ce": 0.0, "ce_grad": 0.0, "hybrid": 0.0, "hybrid_grad": 0.0}
        for case in range(240):
            batch = case % 8 + 1
            lp, lens, dec, refs = rand_hybrid_batch(case_rng, batch)
            upstream = case_rng.normal(size=batch)

            x = Tensor(dec, requires_grad=True)
            loss = attention_ce_loss(x, refs)
            backward((loss * Tensor(upstream)).sum())
            for b, ref in enumerate(refs):
                n = len(ref) + 1
                xb = Tensor(dec[b, :n], requires_grad=True)
                expect = loop_attention_ce(xb, ref)
                backward(expect * upstream[b])
                worst["ce"] = max(worst["ce"], abs(loss.data[b] - expect.item()))
                worst["ce_grad"] = max(worst["ce_grad"], np.abs(x.grad[b, :n] - xb.grad).max())
                assert (x.grad[b, n:] == 0).all()
                seen["empty"] += not ref
                seen["padded"] += n < dec.shape[1]
            seen["mixed_lens"] += len({len(r) for r in refs}) > 1

            g = case_rng.normal()
            got_in = (Tensor(lp, requires_grad=True), Tensor(dec, requires_grad=True))
            want_in = (Tensor(lp, requires_grad=True), Tensor(dec, requires_grad=True))
            got = hybrid_batch_loss(got_in[0], lens, got_in[1], refs)
            want = loop_hybrid_batch_loss(want_in[0], lens, want_in[1], refs)
            backward(got * g)
            backward(want * g)
            worst["hybrid"] = max(worst["hybrid"], abs(got.item() - want.item()))
            for a, e in zip(got_in, want_in):
                worst["hybrid_grad"] = max(worst["hybrid_grad"], np.abs(a.grad - e.grad).max())
        assert max(worst.values()) < 1e-12, worst
        assert min(seen.values()) >= 20, seen

    def test_gradient_matches_finite_differences_on_padded_batch(self):
        logits = np.random.default_rng(8).normal(size=(3, 4, 6))
        weights = Tensor([0.7, -1.3, 0.4])
        check_grads(lambda x: (attention_ce_loss(x, [[3, 5], [], [4, 4, 3]]) * weights).sum(),
                    [logits])

    def test_nan_at_a_padded_position_stays_out_and_at_a_live_one_stays_in(self):
        logits = np.random.default_rng(6).normal(size=(3, 5, 6))
        refs = [[3, 4], [5, 3, 4, 3], []]

        def run(scores):
            x = Tensor(scores, requires_grad=True)
            loss = attention_ce_loss(x, refs)
            backward(loss.sum())
            return loss.data, x.grad

        clean_loss, clean_grad = run(logits)
        padded = logits.copy()
        padded[0, 3, 1] = np.nan   # past utterance 0's EOS position
        padded[2, 1:, :] = np.nan  # every padded position of utterance 2
        loss, grad = run(padded)
        assert np.isfinite(loss).all()
        assert loss.tobytes() == clean_loss.tobytes()
        assert grad.tobytes() == clean_grad.tobytes()

        live = logits.copy()
        live[1, 2, 0] = np.nan     # a position utterance 1 reads
        loss, grad = run(live)
        assert np.isnan(loss[1]) and np.isnan(grad[1]).any()
        for b in (0, 2):
            assert loss[b] == clean_loss[b]
            assert (grad[b] == clean_grad[b]).all()

    def test_shape_and_vocabulary_errors(self):
        with pytest.raises(ShapeError, match=r"\(3, 6\) does not fit 2 references"):
            attention_ce_loss(Tensor(np.zeros((3, 6))), [[3], [4]])
        with pytest.raises(ShapeError, match=r"\(1, 3, 6\) does not fit 2 references"):
            attention_ce_loss(Tensor(np.zeros((1, 3, 6))), [[3], [4]])
        with pytest.raises(ShapeError, match=r"\(2, 3, 6\) .* up to 4 target positions"):
            attention_ce_loss(Tensor(np.zeros((2, 3, 6))), [[3], [4, 5, 3]])
        with pytest.raises(ValueError, match="out of vocabulary"):
            attention_ce_loss(Tensor(np.zeros((1, 3, 6))), [[3, 6]])


class TestHybrid:
    def test_three_seven_weighting(self):
        out = hybrid_loss(Tensor(1.0), Tensor(2.0))
        np.testing.assert_allclose(out.item(), 1.7, atol=1e-15)

    def test_monotone_in_each_component(self):
        base = hybrid_loss(Tensor(1.0), Tensor(1.0)).item()
        assert hybrid_loss(Tensor(2.0), Tensor(1.0)).item() > base
        assert hybrid_loss(Tensor(1.0), Tensor(2.0)).item() > base

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            hybrid_batch_loss(Tensor(np.zeros((0, 3, 6))), np.zeros(0, dtype=int),
                              Tensor(np.zeros((0, 1, 6))), [])


class ScriptedDecoder:
    """Stub with ``forward_encoder``/``forward_decoder`` that emits ``script``
    one token per step and then EOS; ``script=None`` never emits EOS. Its
    logits come from an op on a trainable tensor, so a recorded tape shows."""

    vocab = 7

    def __init__(self, script):
        self.script = script
        self.bias = Tensor(np.zeros(self.vocab), requires_grad=True)
        self.prefixes = []
        self.outputs = []

    def forward_encoder(self, features, lens):
        enc = Tensor(features) + self.bias[:features.shape[-1]]
        self.outputs.append(enc)
        return enc, np.asarray(lens)

    def forward_decoder(self, enc, enc_lens, tokens_in):
        prefix = np.asarray(tokens_in)
        self.prefixes.append(prefix[0].tolist())
        step = prefix.shape[1] - 1
        if self.script is None:
            tok = FIRST_TOKEN_ID
        else:
            tok = self.script[step] if step < len(self.script) else EOS_ID
        scores = np.zeros((1, prefix.shape[1], self.vocab))
        scores[0, -1, tok] = 1.0
        logits = Tensor(scores) + self.bias
        self.outputs.append(logits)
        return logits


class TestGreedyDecode:
    def test_stops_at_eos(self):
        model = ScriptedDecoder([3, 5, 3])
        hyp = greedy_decode(model, np.ones((4, 2)))
        assert hyp == TokenSeq([3, 5, 3], truncated=False)
        assert model.prefixes == [[SOS_ID], [SOS_ID, 3], [SOS_ID, 3, 5], [SOS_ID, 3, 5, 3]]

    def test_cap_is_twice_encoder_length_plus_ten(self):
        for frames in (1, 4, 9):
            hyp = greedy_decode(ScriptedDecoder(None), np.ones((frames, 2)))
            assert hyp.truncated
            assert hyp.ids == (FIRST_TOKEN_ID,) * (2 * frames + 10)

    def test_records_no_tape(self):
        model = ScriptedDecoder([4])
        greedy_decode(model, np.ones((3, 2)))
        assert len(model.outputs) == 3
        for out in model.outputs:
            assert not out.requires_grad and out._parents == ()
        assert T._GRAD_ENABLED


def edit_distance_oracle(a, b):
    """Full-matrix DP, kept independent of the two-row implementation."""
    n, m = len(a), len(b)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[n, m]


class TestTER:
    def test_identical(self):
        assert error_rate([(edit_distance([3, 4, 5], [3, 4, 5]), 3)]) == 0.0

    def test_one_substitution(self):
        assert error_rate([(edit_distance([3, 9, 5], [3, 4, 5]), 3)]) == pytest.approx(1 / 3)

    def test_random_pairs_match_oracle(self):
        for _ in range(200):
            a = rng.integers(3, 8, size=rng.integers(0, 9)).tolist()
            b = rng.integers(3, 8, size=rng.integers(1, 9)).tolist()
            assert edit_distance(a, b) == edit_distance_oracle(a, b)
            assert error_rate([(edit_distance(a, b), len(b))]) == edit_distance_oracle(a, b) / len(b)

    def test_insert_then_delete_consistent(self):
        ref = [3, 4, 5]
        hyp = [3, 4, 9, 5]  # one insertion
        assert error_rate([(edit_distance(hyp, ref), len(ref))]) == pytest.approx(1 / 3)
        assert error_rate([(edit_distance(ref, hyp), len(hyp))]) == pytest.approx(1 / 4)


class TestCTCGradOnTape:
    def test_loss_flows_to_logits_through_log_softmax(self):
        raw = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        loss = ctc_single(T.log_softmax(raw, axis=-1), [3, 1])
        backward(loss)
        assert np.abs(raw.grad).max() > 0
