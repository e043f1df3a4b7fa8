"""Acceptance criteria, one test per criterion, tolerances pinned.

The heavy end-to-end runs live in session fixtures (see conftest) shared
between criteria; the terminal summary prints one line per criterion.
"""

import itertools
import time

import numpy as np
import pytest

from confadapt import tensor as T
from confadapt.checkpoint import Checkpoint
from confadapt.data import Batch, default_domain_pair, generate, median_split
from confadapt.losses import EOS_ID, SOS_ID
from confadapt.pipeline import StageConfig, run_recipe
from confadapt.search import ArchLogits, sample_weights
from confadapt.space import ArchSpace, param_count
from confadapt.supernet import ConformerSupernet, one_hot_weights
from confadapt.tensor import Tensor

from conftest import ADAPTATION_SEEDS, E2E_SPACE, record_margin
from test_losses import ctc_bruteforce, ctc_single, rand_logprobs
from util_arch import sample_arch
from util_grad import check_grads

rng = np.random.default_rng(424242)


def _r(*shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestCriterion1:
    def test_criterion_1_gradient_suite(self):
        t0 = time.monotonic()
        w1 = Tensor(_r(3, 5))
        w2 = Tensor(_r(3, 4))
        ops = {
            "add": (lambda a, b: ((a + b) * (a + b)).sum(), lambda: [_r(3, 4), _r(4)]),
            "sub": (lambda a, b: ((a - b) * (a - b)).sum(), lambda: [_r(3, 4), _r(3, 4)]),
            "mul": (lambda a, b: (a * b * a).sum(), lambda: [_r(3, 4), _r(4)]),
            "matmul": (lambda a, b: ((a @ b) * (a @ b)).sum(), lambda: [_r(3, 4), _r(4, 2)]),
            "matmul_batched": (lambda a, b: (a @ b).sum(), lambda: [_r(2, 2, 3, 4), _r(2, 2, 4, 2)]),
            "slice": (lambda x: (x[1:, ::2] * x[1:, ::2]).sum(), lambda: [_r(4, 6)]),
            "concat": (lambda a, b: (T.concat([a, b], axis=1) * T.concat([a, b], axis=1)).sum(),
                       lambda: [_r(2, 3), _r(2, 2)]),
            "transpose": (lambda x: (x.transpose(1, 0, 2) * w2.reshape(4, 3, 1)).sum(),
                          lambda: [_r(3, 4, 1)]),
            "softmax": (lambda x: (T.softmax(x, axis=-1) * w1).sum(), lambda: [_r(3, 5)]),
            "log_softmax": (lambda x: (T.log_softmax(x, axis=-1) * w1).sum(), lambda: [_r(3, 5)]),
            "logsumexp": (lambda x: T.logsumexp(x, axis=-1).sum(), lambda: [_r(4, 3)]),
            "layer_norm": (lambda x, g, b: (T.layer_norm(x, g, b) * w1[:, :5]).sum(),
                           lambda: [_r(3, 5), _r(5), _r(5)]),
            "swish": (lambda x: (T.swish(x) * T.swish(x)).sum(), lambda: [_r(3, 4)]),
            "sigmoid": (lambda x: (T.sigmoid(x) * T.sigmoid(x)).sum(), lambda: [_r(3, 4)]),
            "glu": (lambda x: (T.glu(x) * T.glu(x)).sum(), lambda: [_r(2, 3, 6)]),
            "depthwise_conv1d": (
                lambda x, k, b: (T.depthwise_conv1d(x, k, b) * T.depthwise_conv1d(x, k, b)).sum(),
                lambda: [_r(2, 7, 3), _r(5, 3), _r(3)],
            ),
            "embedding": (
                lambda t: (T.embedding(t, np.array([0, 2, 2, 1])) *
                           T.embedding(t, np.array([0, 2, 2, 1]))).sum(),
                lambda: [_r(4, 3)],
            ),
            "masked_fill": (lambda x: (T.masked_fill(x, _MASK, 5.0) * 2.0).sum(),
                            lambda: [_r(3, 4)]),
            "sum": (lambda x: (x.sum(axis=0) * x.sum(axis=0)).sum(), lambda: [_r(3, 4)]),
            "mean": (lambda x: (x.mean(axis=1) * x.mean(axis=1)).sum(), lambda: [_r(3, 4)]),
        }
        worst = {}
        try:
            for name, (fn, gen) in ops.items():
                for _ in range(10):
                    worst[name] = max(worst.get(name, 0.0), check_grads(fn, gen(), tol=1e-4))
            for _ in range(10):
                lp = rand_logprobs(4, 3)
                err = check_grads(lambda x: ctc_single(x, [1, 2]), [lp], tol=1e-4)
                worst["ctc"] = max(worst.get("ctc", 0.0), err)
        finally:
            if worst:
                name = max(worst, key=worst.get)
                record_margin(1, f"worst relative error {worst[name]:.1e} ({name}, "
                                 f"{len(worst)} ops checked; bound 1e-04)")
        assert time.monotonic() - t0 < 60.0


_MASK = np.random.default_rng(1).random((3, 4)) < 0.4


class TestCriterion2:
    def _logits(self, values):
        space = ArchSpace(
            model_dim=4, feat_dim=4, vocab_size=6, encoder_blocks=1, decoder_blocks=1,
            ff_choices=(512, 1024, 2048), head_choices=(1,), head_dim_choices=(4,),
            kernel_choices=(3,),
        )
        logits = ArchLogits(space)
        logits.groups[("enc", 0, "fd")].data[...] = values
        return logits, ("enc", 0, "fd")

    def test_criterion_2_gumbel_suite(self):
        logits, key = self._logits([0.7, -0.3, 1.1])
        draw_rng = np.random.default_rng(8)
        for _ in range(10_000):
            lam = sample_weights(logits, rng=draw_rng, temperature=0.73)[key]
            assert abs(float(lam.data.sum()) - 1.0) < 1e-9
            assert (lam.data >= 0).all()

        # constant logit shift with identical noise
        shifted, _ = self._logits(np.array([0.7, -0.3, 1.1]) + 11.0)
        a = sample_weights(logits, rng=np.random.default_rng(21))[key]
        b = sample_weights(shifted, rng=np.random.default_rng(21))[key]
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

        # sharpening with a logit gap of 2
        gapped, _ = self._logits([2.0, 0.0, 0.0])
        means = []
        for t in (1.0, 0.5, 0.1):
            r = np.random.default_rng(5)
            draws = [sample_weights(gapped, rng=r, temperature=t)[key].data.max()
                     for _ in range(1000)]
            means.append(float(np.mean(draws)))
        assert means[0] < means[1] < means[2]
        assert means[2] > 0.95


class TestCriterion3:
    def test_criterion_3_ctc_exhaustive_oracle(self):
        t0 = time.monotonic()
        case_rng = np.random.default_rng(77)
        worst = 0.0
        try:
            for frames in range(1, 5):
                for ref_len in range(0, 3):
                    for ref in itertools.product((1, 2), repeat=ref_len):
                        for _ in range(3):
                            x = case_rng.normal(size=(frames, 3)) * 2.0
                            lp = x - np.log(np.exp(x).sum(-1, keepdims=True))
                            expect = ctc_bruteforce(lp, ref)
                            if expect is None:
                                with pytest.raises(Exception):
                                    ctc_single(Tensor(lp), ref)
                            else:
                                got = ctc_single(Tensor(lp), ref).item()
                                worst = max(worst, abs(got - expect))
                                assert abs(got - expect) < 1e-8
        finally:
            record_margin(3, f"worst |ctc - enumeration| {worst:.1e} (bound 1e-08)")
        assert time.monotonic() - t0 < 60.0


def _rand_batch(space, b=2, t=17):
    feats = rng.normal(size=(b, t, space.feat_dim))
    lens = np.array([t] + [t - 5] * (b - 1))
    l = 3
    tokens_in = np.full((b, l + 1), EOS_ID, dtype=np.int64)
    tokens_in[:, 0] = SOS_ID
    seqs = []
    for i in range(b):
        n = l if i == 0 else l - 1
        s = rng.integers(3, space.vocab_size, size=n)
        tokens_in[i, 1 : 1 + n] = s
        seqs.append(s)
    return Batch(feats, lens, tokens_in, seqs)


@pytest.fixture(scope="module")
def net():
    return ConformerSupernet(E2E_SPACE, seed=12)


class TestCriterion4and5:
    def test_criterion_4_one_hot_materialization_equivalence(self, net):
        t0 = time.monotonic()
        batch = _rand_batch(E2E_SPACE)
        arch_rng = np.random.default_rng(31337)
        worst = {"mixed - direct": 0.0, "mixed - materialized": 0.0,
                 "direct - materialized": 0.0}
        try:
            for _ in range(20):
                arch = sample_arch(E2E_SPACE, arch_rng)
                mixed = net.mixed_forward(batch, one_hot_weights(E2E_SPACE, arch))
                direct = net.one_hot_forward(batch, arch)
                mat = net.materialize(arch, init="inherit").forward(batch)
                for field in ("ctc_logprobs", "dec_logits"):
                    a = getattr(mixed, field).data
                    b = getattr(direct, field).data
                    c = getattr(mat, field).data
                    for name, (x, y) in (("mixed - direct", (a, b)),
                                         ("mixed - materialized", (a, c)),
                                         ("direct - materialized", (b, c))):
                        worst[name] = max(worst[name], float(np.abs(x - y).max()))
                    np.testing.assert_allclose(a, b, atol=1e-6)
                    np.testing.assert_allclose(a, c, atol=1e-6)
                    np.testing.assert_allclose(b, c, atol=1e-9)
        finally:
            record_margin(4, "worst |mixed - direct| {:.1e}, |mixed - materialized| {:.1e} "
                             "(bound 1e-06); |direct - materialized| {:.1e} (bound 1e-09)"
                          .format(*worst.values()))
        assert time.monotonic() - t0 < 300.0

    def test_criterion_5_param_count_exactness(self, net):
        arch_rng = np.random.default_rng(271828)
        for _ in range(20):
            arch = sample_arch(E2E_SPACE, arch_rng)
            model = net.materialize(arch, init="inherit")
            enumerated = sum(p.data.size for p in model.named_parameters().values())
            assert enumerated == param_count(E2E_SPACE, arch)


class TestCriterion6:
    def test_criterion_6_penalty_trend(self, eta_sweep_reports):
        etas = eta_sweep_reports[0]["etas"]
        counts = {e: [] for e in etas}
        for run in eta_sweep_reports:
            for system in run["report"]["systems"]:
                assert "error" not in system, system
                counts[system["eta"]].append(system["params"])
        medians = [float(np.median(counts[e])) for e in etas]
        record_margin(6, "median extracted sizes at eta {}: {}".format(
            " / ".join(f"{e:g}" for e in etas), " >= ".join(f"{m:.0f}" for m in medians)))
        assert len(counts[etas[0]]) == 5
        assert medians[0] >= medians[1] >= medians[2], medians


def _ter_and_tokens(values, tokens):
    """Per-seed TERs over ``tokens`` reference tokens, and the same as token counts."""
    return ("/".join(f"{v:.4f}" for v in values),
            "/".join(str(round(v * tokens)) for v in values))


def _reference_tokens(utterances):
    return sum(len(u.tokens) for u in utterances)


class TestCriterion7and8:
    def test_criterion_7_adaptation_gain(self, adaptation_runs, e2e_corpora):
        param = [r["param"]["tgt_test"]["overall"] for r in adaptation_runs]
        hyper = [r["hyper"]["tgt_test"]["overall"] for r in adaptation_runs]
        n = _reference_tokens(e2e_corpora["target"].split("test"))
        med_h, med_p = float(np.median(hyper)), float(np.median(param))
        record_margin(
            7,
            "median target-test TER: hyper {} <= param {}, margin {} ({} tokens of {})".format(
                f"{med_h:.4f}", f"{med_p:.4f}", f"{med_p - med_h:.4f}",
                round((med_p - med_h) * n), n),
            "per seed {}: hyper {} ({} tokens), param {} ({} tokens)".format(
                "/".join(map(str, ADAPTATION_SEEDS)),
                *_ter_and_tokens(hyper, n), *_ter_and_tokens(param, n)))
        assert float(np.median(hyper)) <= float(np.median(param)), (hyper, param)

    def test_criterion_8_length_stratified_pattern(self, adaptation_runs, e2e_corpora):
        short_gain = [
            r["param"]["tgt_test"]["shorter"] - r["hyper"]["tgt_test"]["shorter"]
            for r in adaptation_runs
        ]
        long_gain = [
            r["param"]["tgt_test"]["longer"] - r["hyper"]["tgt_test"]["longer"]
            for r in adaptation_runs
        ]
        shorter, longer = median_split(e2e_corpora["target"].split("test"))
        n_short, n_long = _reference_tokens(shorter), _reference_tokens(longer)
        med_s, med_l = float(np.median(short_gain)), float(np.median(long_gain))
        record_margin(
            8,
            "median gain of hyper over param: shorter half {} ({} of {} tokens) >= longer "
            "half {} ({} of {} tokens), difference {}".format(
                f"{med_s:.4f}", round(med_s * n_short), n_short,
                f"{med_l:.4f}", round(med_l * n_long), n_long, f"{med_s - med_l:.4f}"),
            "per seed {}: shorter {} ({} tokens), longer {} ({} tokens)".format(
                "/".join(map(str, ADAPTATION_SEEDS)),
                *_ter_and_tokens(short_gain, n_short), *_ter_and_tokens(long_gain, n_long)))
        assert float(np.median(short_gain)) >= float(np.median(long_gain)), (
            short_gain, long_gain)


class TestAdaptationSideEffects:
    """Companion checks on the criterion 7/8 runs."""

    def test_finetune_beats_source_only_on_target_dev(self, adaptation_runs):
        gains = [r["param"]["tgt_dev_ter_before_ft"] - r["param"]["tgt_dev_ter"]
                 for r in adaptation_runs]
        assert float(np.median(gains)) > 0, gains

    def test_adapted_arms_report_smaller_or_equal_models(self, adaptation_runs):
        # the penalized adaptation arm should not grow the model
        p = [r["param"]["params"] for r in adaptation_runs]
        h = [r["hyper"]["params"] for r in adaptation_runs]
        assert float(np.median(h)) <= float(np.median(p)), (h, p)


class TestCriterion9:
    def test_criterion_9_reproducibility(self, tmp_path):
        space = ArchSpace(
            model_dim=16, feat_dim=6, vocab_size=9, encoder_blocks=1, decoder_blocks=1,
            ff_choices=(8, 16), head_choices=(1, 2), head_dim_choices=(4, 8),
            kernel_choices=(3, 5),
        )
        src_spec, tgt_spec = default_domain_pair(feat_dim=6, vocab_tokens=6)
        corpora = {
            "source": generate(src_spec, {"train": 32, "heldout": 8, "dev": 8, "test": 8}),
            "target": generate(tgt_spec, {"train": 16, "heldout": 6, "dev": 6, "test": 8}),
        }
        stages = [
            StageConfig("pre", "pretrain", corpus="source", epochs=2, batch_size=8, output="sn"),
            StageConfig("ad", "adapt", corpus="target", input="sn", epochs=2,
                        batch_size=8, output="sn_t"),
            StageConfig("de", "derive", corpus="source", input="sn_t", epochs=2,
                        batch_size=8, output="m"),
            StageConfig("ft", "finetune", corpus="target", input="m", epochs=2,
                        batch_size=8, output="m_t"),
        ]
        rep1 = run_recipe(stages, corpora, tmp_path / "r1", space, seed=99)
        rep2 = run_recipe(stages, corpora, tmp_path / "r2", space, seed=99)
        for name, path1 in rep1["checkpoints"].items():
            b1 = open(path1, "rb").read()
            b2 = open(rep2["checkpoints"][name], "rb").read()
            assert b1 == b2, f"recipe re-run changed checkpoint {name}"

        # checkpoint round trip is bit-exact
        for name, path in rep1["checkpoints"].items():
            original = open(path, "rb").read()
            resaved = tmp_path / f"resave_{name}.ckpt"
            Checkpoint.load(path).save(resaved)
            assert resaved.read_bytes() == original, f"round trip changed {name}"
