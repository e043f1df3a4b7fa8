"""Gumbel-Softmax sampling, penalty, alternating optimization, extraction."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from confadapt.optim import Adam
from confadapt.search import (
    ArchLogits,
    TempSchedule,
    alternating_step,
    expected_weights,
    extract,
    penalized_loss,
    sample_weights,
)
from confadapt.space import ArchSpace, DerivedArch, param_count
from confadapt.supernet import ConformerSupernet
from confadapt.tensor import Tensor, backward

TOY_SPACE = ArchSpace(
    model_dim=4, feat_dim=4, vocab_size=6, encoder_blocks=1, decoder_blocks=1,
    ff_choices=(512, 1024), head_choices=(1, 2), head_dim_choices=(4,),
    kernel_choices=(3, 5),
)


def toy_logits(**kw):
    return ArchLogits(TOY_SPACE, **kw)


class TestSampleWeights:
    def test_equal_logits_zero_noise_uniform(self):
        logits = toy_logits(temperature=0.37)
        lam = sample_weights(logits, rng=None)
        for key, vec in lam.items():
            n = len(TOY_SPACE.group_choices(key))
            np.testing.assert_allclose(vec.data, np.full(n, 1 / n), atol=1e-12)

    def test_constant_shift_invariance_same_noise(self):
        logits_a = toy_logits()
        logits_b = toy_logits()
        key = ("enc", 0, "fd")
        logits_a.groups[key].data[...] = [0.3, -1.2]
        logits_b.groups[key].data[...] = [0.3 + 7.5, -1.2 + 7.5]
        lam_a = sample_weights(logits_a, rng=np.random.default_rng(5))
        lam_b = sample_weights(logits_b, rng=np.random.default_rng(5))
        np.testing.assert_allclose(lam_a[key].data, lam_b[key].data, atol=1e-12)

    def test_low_temperature_concentration_matches_direct_evaluation(self):
        space = ArchSpace(
            model_dim=4, feat_dim=4, vocab_size=6, encoder_blocks=1, decoder_blocks=1,
            ff_choices=(512, 1024, 2048), head_choices=(1,), head_dim_choices=(4,),
            kernel_choices=(3,),
        )
        logits = ArchLogits(space, temperature=0.1)
        key = ("enc", 0, "fd")
        logits.groups[key].data[...] = [2.0, 0.0, 0.0]
        lam = sample_weights(logits, rng=None)[key]
        # independent high-precision evaluation of softmax([20, 0, 0])
        z = np.exp(np.array([20.0, 0.0, 0.0]) - 20.0)
        expect = z / z.sum()
        np.testing.assert_allclose(lam.data, expect, rtol=1e-9)
        assert lam.data[1] == pytest.approx(2.0611536e-9, rel=1e-4)

    def test_normalization_over_many_draws(self):
        logits = toy_logits()
        rng = np.random.default_rng(0)
        for key in logits.groups:
            logits.groups[key].data[...] = rng.normal(size=logits.groups[key].shape)
        for _ in range(100):
            lam = sample_weights(logits, rng=rng)
            for vec in lam.values():
                assert abs(vec.data.sum() - 1.0) < 1e-9
                assert (vec.data >= 0).all()

    def test_sharpening_with_temperature(self):
        logits = toy_logits()
        key = ("enc", 0, "fd")
        logits.groups[key].data[...] = [2.0, 0.0]  # gap of 2
        means = []
        for t in (1.0, 0.5, 0.1):
            rng = np.random.default_rng(123)
            draws = [sample_weights(logits, rng=rng, temperature=t)[key].data.max()
                     for _ in range(1000)]
            means.append(np.mean(draws))
        assert means[0] < means[1] < means[2]
        assert means[2] > 0.95

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            sample_weights(toy_logits(), rng=None, temperature=0.0)

    def test_gradient_flows_to_logits(self):
        logits = toy_logits()
        key = ("enc", 0, "ck")
        lam = sample_weights(logits, rng=np.random.default_rng(1))
        backward((lam[key] * Tensor([1.0, 2.0])).sum())
        assert np.abs(logits.groups[key].grad).max() > 0


class TestExpectedWeights:
    def test_equal_logits_uniform(self):
        lam = expected_weights(toy_logits())
        np.testing.assert_allclose(lam[("enc", 0, "fd")].data, [0.5, 0.5], atol=1e-15)

    def test_single_choice_degenerate(self):
        lam = expected_weights(toy_logits())
        np.testing.assert_allclose(lam[("enc", 0, "adim")].data, [1.0], atol=1e-15)

    def test_closed_form(self):
        logits = toy_logits()
        key = ("enc", 0, "fd")
        logits.groups[key].data[...] = [1.0, 0.0]
        lam = expected_weights(logits)[key]
        e = math.e
        np.testing.assert_allclose(lam.data, [e / (e + 1), 1 / (e + 1)], atol=1e-12)


class TestPenalizedLoss:
    def test_eta_zero_returns_task_loss_object(self):
        task = Tensor(3.25)
        assert penalized_loss(task, toy_logits(eta=0.0)) is task

    def test_one_hot_weights_give_arch_count(self):
        logits = toy_logits(eta=0.01)
        # huge gaps make the expected weights one-hot to double precision
        for key, vec in logits.groups.items():
            opts = TOY_SPACE.group_choices(key)
            hot = np.full(len(opts), -200.0)
            hot[0] = 200.0
            vec.data[...] = hot if len(opts) > 1 else [0.0]
        arch = DerivedArch.minimal(TOY_SPACE)
        out = penalized_loss(Tensor(0.0), logits)
        np.testing.assert_allclose(out.item(), 0.01 * param_count(TOY_SPACE, arch), rtol=1e-12)

    def test_uniform_weights_penalty_is_mean_enumerated_count(self):
        eta = 0.5
        logits = toy_logits(eta=eta)
        net = ConformerSupernet(TOY_SPACE, seed=0)
        counts = []
        rng = np.random.default_rng(4)
        for _ in range(64):
            arch = DerivedArch.sample_uniform(TOY_SPACE, rng)
            counts.append(net.materialize(arch, init="inherit").param_count())
        # with three binary groups the uniform expectation is the mean over
        # the full grid; the sampled mean converges there, the exact value
        # comes from averaging the 8 distinct archs
        grid = []
        for fd in TOY_SPACE.ff_choices:
            for ah in TOY_SPACE.head_choices:
                for ck in TOY_SPACE.kernel_choices:
                    arch = DerivedArch({
                        k: {"fd": fd, "ah": ah, "ck": ck}.get(k[2], c[0])
                        for k, c in TOY_SPACE.groups()
                    })
                    grid.append(net.materialize(arch, init="inherit").param_count())
        out = penalized_loss(Tensor(0.0), logits)
        np.testing.assert_allclose(out.item(), eta * np.mean(grid), rtol=1e-12)

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            penalized_loss(Tensor(1.0), toy_logits(), eta=-0.1)

    def test_penalty_gradient_sign(self):
        # uniform weights: the cheaper candidate must be pushed up (negative
        # gradient) and the expensive one down (positive), per group
        logits = toy_logits(eta=1.0)
        out = penalized_loss(Tensor(0.0), logits)
        backward(out)
        for key in (("enc", 0, "fd"), ("enc", 0, "ck"), ("enc", 0, "ah")):
            g = logits.groups[key].grad
            assert g[0] < 0 < g[-1], f"penalty gradient has wrong sign for {key}"

    def test_penalty_gradient_matches_finite_differences(self):
        logits = toy_logits(eta=0.001)
        key = ("enc", 0, "fd")
        logits.groups[key].data[...] = [0.4, -0.2]
        out = penalized_loss(Tensor(0.0), logits)
        backward(out)
        got = logits.groups[key].grad.copy()
        h = 1e-6
        num = np.zeros(2)
        for i in range(2):
            for sgn, acc in ((1, 1), (-1, -1)):
                logits2 = toy_logits(eta=0.001)
                logits2.groups[key].data[...] = logits.groups[key].data
                logits2.groups[key].data[i] += sgn * h
                num[i] += acc * penalized_loss(Tensor(0.0), logits2).item()
            num[i] /= 2 * h
        np.testing.assert_allclose(got, num, rtol=1e-4)


class TestExtract:
    def test_argmax(self):
        space = ArchSpace(
            model_dim=4, feat_dim=4, vocab_size=6, encoder_blocks=1, decoder_blocks=1,
            ff_choices=(512, 1024, 2048), head_choices=(1,), head_dim_choices=(4,),
            kernel_choices=(3,),
        )
        logits = ArchLogits(space)
        logits.groups[("enc", 0, "fd")].data[...] = [0.1, 3.0, -1.0]
        assert extract(logits)[("enc", 0, "fd")] == 1024

    def test_tie_breaks_to_smaller(self):
        logits = toy_logits()
        assert extract(logits)[("enc", 0, "fd")] == 512
        assert extract(logits)[("enc", 0, "ck")] == 3

    def test_shift_invariance(self):
        logits = toy_logits()
        rng = np.random.default_rng(2)
        for vec in logits.groups.values():
            vec.data[...] = rng.normal(size=vec.shape)
        before = extract(logits)
        for vec in logits.groups.values():
            vec.data += 17.5
        assert extract(logits).choices == before.choices


class TestTempSchedule:
    def test_endpoints(self):
        s = TempSchedule(1.0, 0.1)
        assert s.value(0, 10) == pytest.approx(1.0)
        assert s.value(9, 10) == pytest.approx(0.1)

    def test_monotone(self):
        s = TempSchedule(1.0, 0.1)
        vals = [s.value(e, 6) for e in range(6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            TempSchedule(0.1, 1.0)


class TwoBranchTask:
    """Analytic toy: loss is the weighted branch costs plus a trainable
    weight's squared distance to a target, so both optimizers have signal."""

    def __init__(self, key, costs):
        self.key = key
        self.costs = Tensor(costs)
        self.w = Tensor(np.array([4.0]), requires_grad=True)

    def named_parameters(self):
        return {"w": self.w}

    def batch_loss(self, batch, lam):
        return (lam[self.key] * self.costs).sum() + ((self.w - 1.0) * (self.w - 1.0)).sum()


def _dummy_batch():
    return SimpleNamespace(size=1)


class TestAlternatingStep:
    def _setup(self, lr_w=1e-2, lr_l=2e-2, eta=0.0):
        logits = toy_logits(eta=eta)
        task = TwoBranchTask(("enc", 0, "ck"), np.array([1.0, 2.0]))
        return (task, logits, Adam(task.named_parameters(), lr_w),
                Adam(logits.named_parameters(), lr_l), np.random.default_rng(9))

    def test_zero_logit_lr_keeps_logits_bitwise(self):
        task, logits, ow, ol, rng = self._setup(lr_l=0.0)
        before = {k: v.data.copy() for k, v in logits.groups.items()}
        alternating_step(_dummy_batch(), _dummy_batch(), task, logits, ow, ol, rng=rng)
        for k, v in logits.groups.items():
            assert (v.data == before[k]).all()

    def test_weights_untouched_by_logit_step(self):
        task, logits, ow, ol, rng = self._setup(lr_w=0.0)
        before = task.w.data.copy()
        alternating_step(_dummy_batch(), _dummy_batch(), task, logits, ow, ol, rng=rng)
        assert (task.w.data == before).all()

    def test_empty_batch_rejected(self):
        task, logits, ow, ol, rng = self._setup()
        with pytest.raises(ValueError, match="empty"):
            alternating_step(SimpleNamespace(size=0), _dummy_batch(), task, logits, ow, ol, rng=rng)

    def test_two_branch_toy_drives_cheaper_branch(self):
        # branch with strictly lower held-out loss must win decisively
        task, logits, ow, ol, rng = self._setup(lr_l=2e-2)
        for _ in range(200):
            alternating_step(_dummy_batch(), _dummy_batch(), task, logits, ow, ol, rng=rng)
        lam = expected_weights(logits)[("enc", 0, "ck")].data
        assert lam[0] > 0.9
        # and the trainable weight moved toward its optimum
        assert abs(task.w.item() - 1.0) < 3.0
