"""Gumbel-Softmax sampling, penalty, alternating optimization, extraction."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from confadapt.optim import Adam, zero_all
from confadapt.pipeline import StageConfig
from confadapt.search import (
    ArchLogits,
    alternating_step,
    expected_weights,
    extract,
    penalized_loss,
    sample_weights,
    _require_finite,
)
from confadapt.space import ArchSpace, DerivedArch, param_count
from confadapt.supernet import ConformerSupernet
from confadapt.tensor import Tensor, backward

from test_supernet import SPACE, rand_batch

TOY_SPACE = ArchSpace(
    model_dim=4, feat_dim=4, vocab_size=6, encoder_blocks=1, decoder_blocks=1,
    ff_choices=(512, 1024), head_choices=(1, 2), head_dim_choices=(4,),
    kernel_choices=(3, 5),
)


def toy_logits(**kw):
    return ArchLogits(TOY_SPACE, **kw)


class TestSampleWeights:
    def test_equal_logits_zero_noise_uniform(self):
        logits = toy_logits()
        lam = sample_weights(logits, rng=None, temperature=0.37)
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
        logits = ArchLogits(space)
        key = ("enc", 0, "fd")
        logits.groups[key].data[...] = [2.0, 0.0, 0.0]
        lam = sample_weights(logits, rng=None, temperature=0.1)[key]
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
        for t in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="temperature"):
                sample_weights(toy_logits(), rng=None, temperature=t)

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
        for eta in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                ArchLogits(TOY_SPACE, eta=eta)

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

    def test_non_finite_logits_rejected(self):
        logits = toy_logits()
        logits.groups[("enc", 0, "ck")].data[0] = np.inf
        with pytest.raises(ValueError, match="non-finite logits in group"):
            extract(logits)


class TestTempSchedule:
    def test_endpoints(self):
        cfg = StageConfig("p", "pretrain", epochs=10, t_start=1.0, t_end=0.1)
        assert cfg.temperature(0) == pytest.approx(1.0)
        assert cfg.temperature(9) == pytest.approx(0.1)
        # a one-epoch stage searches at the final temperature
        assert StageConfig("p", "pretrain", epochs=1, t_start=1.0, t_end=0.1).temperature(0) == 0.1

    def test_monotone(self):
        cfg = StageConfig("p", "pretrain", epochs=6, t_start=1.0, t_end=0.1)
        vals = [cfg.temperature(e) for e in range(6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


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
        alternating_step(_dummy_batch(), _dummy_batch(), task, logits, ow, ol, rng, 1.0)
        for k, v in logits.groups.items():
            assert (v.data == before[k]).all()

    def test_weights_untouched_by_logit_step(self):
        task, logits, ow, ol, rng = self._setup(lr_w=0.0)
        before = task.w.data.copy()
        alternating_step(_dummy_batch(), _dummy_batch(), task, logits, ow, ol, rng, 1.0)
        assert (task.w.data == before).all()

    def test_empty_batch_rejected(self):
        task, logits, ow, ol, rng = self._setup()
        with pytest.raises(ValueError, match="empty"):
            alternating_step(SimpleNamespace(size=0), _dummy_batch(), task, logits, ow, ol,
                             rng, 1.0)

    def test_non_finite_loss_raises_before_its_step(self):
        class ScaledTask(TwoBranchTask):
            def batch_loss(self, batch, lam):
                return super().batch_loss(batch, lam) * batch.scale

        task = ScaledTask(("enc", 0, "ck"), np.array([1.0, 2.0]))
        logits = toy_logits()
        ow, ol = Adam(task.named_parameters(), 1e-2), Adam(logits.named_parameters(), 2e-2)
        rng = np.random.default_rng(9)
        good, poisoned = SimpleNamespace(size=1, scale=1.0), SimpleNamespace(size=1, scale=np.nan)
        alternating_step(good, good, task, logits, ow, ol, rng, 1.0)
        w_before = task.w.data.copy()
        l_before = {k: v.data.copy() for k, v in logits.groups.items()}
        with pytest.raises(FloatingPointError, match="training"):
            alternating_step(poisoned, good, task, logits, ow, ol, rng, 1.0)
        assert task.w.data.tobytes() == w_before.tobytes()
        for k, v in logits.groups.items():
            assert v.data.tobytes() == l_before[k].tobytes()
        # a poisoned held-out batch stops the logit step; the weight step
        # on the clean training batch has already been taken
        with pytest.raises(FloatingPointError, match="held-out"):
            alternating_step(good, poisoned, task, logits, ow, ol, rng, 1.0)
        assert np.isfinite(task.w.data).all()
        for k, v in logits.groups.items():
            assert v.data.tobytes() == l_before[k].tobytes()

    def test_two_branch_toy_drives_cheaper_branch(self):
        # branch with strictly lower held-out loss must win decisively
        task, logits, ow, ol, rng = self._setup(lr_l=2e-2)
        for _ in range(200):
            alternating_step(_dummy_batch(), _dummy_batch(), task, logits, ow, ol, rng, 1.0)
        lam = expected_weights(logits)[("enc", 0, "ck")].data
        assert lam[0] > 0.9
        # and the trainable weight moved toward its optimum
        assert abs(task.w.item() - 1.0) < 3.0


def reference_alternating_step(train_batch, heldout_batch, task, logits, opt_weights,
                               opt_logits, rng, temperature):
    """Full-backward oracle for ``alternating_step``: both halves
    differentiate every parameter, and three ``zero_all`` calls clear the
    gradients a half does not step."""
    if train_batch.size == 0 or heldout_batch.size == 0:
        raise ValueError("alternating_step: empty batch")

    zero_all(task.named_parameters(), logits.groups)
    lam = sample_weights(logits, rng, temperature)
    loss_w = task.batch_loss(train_batch, lam)
    _require_finite(loss_w, "training")
    backward(loss_w)
    opt_weights.step()

    zero_all(task.named_parameters(), logits.groups)
    lam = sample_weights(logits, rng, temperature)
    loss_l = penalized_loss(task.batch_loss(heldout_batch, lam), logits)
    _require_finite(loss_l, "held-out")
    backward(loss_l)
    opt_logits.step()

    zero_all(task.named_parameters(), logits.groups)
    return float(loss_w.item()), float(loss_l.item())


class SpyTask(TwoBranchTask):
    """Records, per ``batch_loss`` call, whether the mixing weights and the
    shared weight are differentiable; raises ``ValueError`` on call
    ``fail_on`` and scales the loss by ``batch.scale`` when a batch has one."""

    def __init__(self, fail_on=None):
        super().__init__(("enc", 0, "ck"), np.array([1.0, 2.0]))
        self.fail_on = fail_on
        self.seen = []

    def batch_loss(self, batch, lam):
        self.seen.append((lam[self.key].requires_grad, self.w.requires_grad))
        if len(self.seen) == self.fail_on:
            raise ValueError("spy: refused batch")
        return super().batch_loss(batch, lam) * getattr(batch, "scale", 1.0)


def _state(task, logits, ow, ol, rng):
    """Everything a step may change, as bytes."""
    return (
        {n: p.data.tobytes() for n, p in task.named_parameters().items()},
        {k: v.data.tobytes() for k, v in logits.groups.items()},
        [(opt.m.tobytes(), opt.v.tobytes(), opt.t) for opt in (ow, ol)],
        rng.bit_generator.state,
    )


class TestEachHalfStepsOnlyItsOwnSet:
    def _run(self, task, heldout):
        logits = toy_logits(eta=0.1)
        ow, ol = Adam(task.named_parameters(), 1e-2), Adam(logits.named_parameters(), 2e-2)
        return alternating_step(_dummy_batch(), heldout, task, logits, ow, ol,
                                rng=np.random.default_rng(9), temperature=1.0)

    def _assert_weights_restored_and_clear(self, task):
        assert task.w.requires_grad
        assert task.w.grad.tobytes() == np.zeros_like(task.w.data).tobytes()

    def test_each_half_differentiates_only_what_it_steps(self):
        task = SpyTask()
        self._run(task, _dummy_batch())
        # weight half: logits off the tape; logits half: shared weights frozen
        assert task.seen == [(False, True), (True, False)]
        self._assert_weights_restored_and_clear(task)

    def test_weights_restored_when_held_out_loss_is_not_finite(self):
        task = SpyTask()
        with pytest.raises(FloatingPointError, match="held-out"):
            self._run(task, SimpleNamespace(size=1, scale=np.nan))
        assert task.seen == [(False, True), (True, False)]
        self._assert_weights_restored_and_clear(task)

    def test_weights_restored_when_held_out_half_raises(self):
        task = SpyTask(fail_on=2)
        with pytest.raises(ValueError, match="refused"):
            self._run(task, _dummy_batch())
        assert task.seen == [(False, True), (True, False)]
        self._assert_weights_restored_and_clear(task)

    def test_entry_clear_drops_a_refused_steps_gradient(self):
        def setup():
            task = TwoBranchTask(("enc", 0, "ck"), np.array([1.0, 2.0]))
            logits = toy_logits(eta=0.1)
            return (task, logits, Adam(task.named_parameters(), 1e-2),
                    Adam(logits.named_parameters(), 2e-2), np.random.default_rng(9))

        clean, poisoned = setup(), setup()
        task, _, ow, _, _ = poisoned
        task.w.grad[...] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            ow.step()
        assert np.isinf(task.w.grad).all()
        got = alternating_step(_dummy_batch(), _dummy_batch(), *poisoned[:4], poisoned[4], 1.0)
        want = alternating_step(_dummy_batch(), _dummy_batch(), *clean[:4], clean[4], 1.0)
        assert got == want
        assert _state(*poisoned) == _state(*clean)


class TestStepMatchesFullBackwardReference:
    def test_three_supernet_steps_are_bitwise_equal(self):
        draw = np.random.default_rng(3)
        batches = [(rand_batch(SPACE, draw=draw), rand_batch(SPACE, draw=draw)) for _ in range(3)]

        def setup():
            task = ConformerSupernet(SPACE, seed=5)
            logits = ArchLogits(SPACE, eta=1e-4)
            return (task, logits, Adam(task.named_parameters(), 1e-2),
                    Adam(logits.named_parameters(), 3e-2), np.random.default_rng(9))

        new, ref, fresh = setup(), setup(), _state(*setup())
        for train, heldout in batches:
            got = alternating_step(train, heldout, *new[:4], rng=new[4], temperature=0.7)
            want = reference_alternating_step(train, heldout, *ref[:4], rng=ref[4],
                                              temperature=0.7)
            assert got == want
        after = _state(*new)
        assert after == _state(*ref)
        # both sets moved, so the comparison covers both halves
        assert after[0] != fresh[0] and after[1] != fresh[1]
