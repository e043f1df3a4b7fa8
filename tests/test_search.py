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
from confadapt import tensor as T
from confadapt.space import ArchSpace, DerivedArch, _cost, expected_param_count, param_count
from confadapt.supernet import ConformerSupernet
from confadapt.tensor import Tensor, backward

from test_supernet import ORACLE_SPACES, SPACE, rand_batch, space_id

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

    def test_reads_as_a_dict_in_group_order(self):
        lam = sample_weights(toy_logits(), rng=np.random.default_rng(2))
        assert list(lam) == [key for key, _ in TOY_SPACE.groups()]
        assert len(lam) == len(TOY_SPACE.groups())
        for key, vec in lam.items():
            assert vec.shape == (len(TOY_SPACE.group_choices(key)),)
        with pytest.raises(KeyError):
            lam[("enc", 1, "fd")]

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2, 3), (4, 3, 4, 3)])
    def test_one_noise_draw_equals_the_per_group_draws(self, sizes):
        # sample_weights draws every group's noise in one call
        tiny = np.finfo(np.float64).tiny
        whole, parts = np.random.default_rng(17), np.random.default_rng(17)
        one = whole.uniform(tiny, 1.0, size=sum(sizes))
        each = np.concatenate([parts.uniform(tiny, 1.0, size=n) for n in sizes])
        assert one.tobytes() == each.tobytes()
        assert whole.bit_generator.state == parts.bit_generator.state

    def test_noise_takes_one_draw_per_candidate(self):
        space = ArchSpace()  # the default grid: groups of 4, 3, 4 and 3 candidates
        draw, expect = np.random.default_rng(3), np.random.default_rng(3)
        sample_weights(ArchLogits(space), rng=draw)
        for _, choices in space.groups():
            expect.uniform(size=len(choices))
        assert draw.bit_generator.state == expect.bit_generator.state

    def test_reads_the_logits_an_optimizer_stepped(self):
        # Adam rebinds each group's data to its own flat array; sampling must
        # read the groups as they are now, not a copy taken at construction
        task = TwoBranchTask(("enc", 0, "ck"), np.array([1.0, 2.0]))
        logits = toy_logits(eta=0.1)
        ow, ol = Adam(task.named_parameters(), 1e-2), Adam(logits.named_parameters(), 2e-2)
        alternating_step(_dummy_batch(), _dummy_batch(), task, logits, ow, ol,
                         np.random.default_rng(9), 1.0)
        lam = sample_weights(logits, rng=None)
        for key, vec in logits.groups.items():
            assert vec.data.size == 1 or np.abs(vec.data).max() > 0, key
            e = np.exp(vec.data - vec.data.max())
            np.testing.assert_allclose(lam[key].data, e / e.sum(), rtol=0, atol=1e-15)


def tape_sample_weights(logits, rng=None, temperature=1.0):
    """Per-group tape sampling, the oracle of ``sample_weights``: one noise
    draw per group, then add, scale and softmax nodes per group."""
    out = {}
    for key, vec in logits.groups.items():
        if rng is None:
            noise = np.zeros(vec.shape)
        else:
            u = rng.uniform(np.finfo(np.float64).tiny, 1.0, size=vec.shape)
            noise = -np.log(-np.log(u))
        out[key] = T.softmax((vec + Tensor(noise)) * (1.0 / temperature), axis=-1)
    return out


def tape_expected_param_count(space, weights):
    """``_cost`` on the tape, the oracle of ``expected_param_count``: each
    group's expected size is a product and a sum node, each term of the
    formula a node of its own."""
    def val(key):
        opts = np.asarray(space.group_choices(key), dtype=np.float64)
        return (weights[key] * Tensor(opts)).sum()

    return _cost(space, val)


def random_logits(space, seed, eta=0.0):
    logits = ArchLogits(space, eta=eta)
    draw = np.random.default_rng(seed)
    for vec in logits.groups.values():
        vec.data[...] = draw.normal(scale=2.0, size=vec.shape)
    return logits


def values_and_logit_grads(logits, objective):
    for vec in logits.groups.values():
        vec.zero_grad()
    out = objective()
    backward(out)
    return out, {k: v.grad.copy() for k, v in logits.groups.items()}


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=space_id)
class TestAgainstTapeOracles:
    """The one-op sampling and expected size against the per-group tape
    code they replaced: values and logit gradients within 1e-12, relative
    for the size."""

    @pytest.mark.parametrize("rng_seed", [None, 12])
    def test_sampling(self, space, rng_seed):
        logits = random_logits(space, 3)
        upstream = {k: Tensor(np.random.default_rng(4).normal(size=v.shape))
                    for k, v in logits.groups.items()}
        results = []
        for sample in (sample_weights, tape_sample_weights):
            rng = None if rng_seed is None else np.random.default_rng(rng_seed)
            lam = {}

            def objective():
                lam.update(sample(logits, rng=rng, temperature=0.7))
                return T.concat([(lam[k] * upstream[k]).sum().reshape(1) for k in lam]).sum()

            _, grads = values_and_logit_grads(logits, objective)
            state = None if rng is None else rng.bit_generator.state
            results.append(({k: t.data for k, t in lam.items()}, grads, state))
        (got, got_grads, got_state), (want, want_grads, want_state) = results
        assert got_state == want_state
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12)
            np.testing.assert_allclose(got_grads[key], want_grads[key], rtol=0, atol=1e-12)

    def test_expected_size(self, space):
        logits = random_logits(space, 5)
        results = [values_and_logit_grads(logits, lambda: size(space, weights(logits)) * 1e-3)
                   for size, weights in ((expected_param_count, expected_weights),
                                         (tape_expected_param_count, tape_sample_weights))]
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got.item(), want.item(), rtol=1e-12)
        scale = max(np.abs(g).max() for g in want_grads.values())
        for key in want_grads:
            np.testing.assert_allclose(got_grads[key], want_grads[key], rtol=0,
                                       atol=1e-12 * scale)

    def test_expected_size_of_plain_weight_vectors(self, space):
        # a dict of leaf Tensors, as the tests and one-hot weights pass
        draw = np.random.default_rng(6)
        leaves = {k: Tensor(draw.dirichlet(np.ones(len(c))), requires_grad=True)
                  for k, c in space.groups()}
        results = []
        for size in (expected_param_count, tape_expected_param_count):
            for t in leaves.values():
                t.zero_grad()
            out = size(space, leaves)
            backward(out)
            results.append((out.item(), {k: t.grad.copy() for k, t in leaves.items()}))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=1e-12)
        for key in want_grads:
            np.testing.assert_allclose(got_grads[key], want_grads[key], rtol=1e-12)


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
