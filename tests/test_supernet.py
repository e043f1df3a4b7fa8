"""Supernet mixing, one-hot equivalence, materialization, param counts."""

from dataclasses import replace

import numpy as np
import pytest

from confadapt.data import Batch
from confadapt.losses import SOS_ID, EOS_ID, hybrid_batch_loss
from confadapt.space import (
    ArchSpace,
    DerivedArch,
    expected_param_count,
    param_count,
    _linear_params,
)
from confadapt.supernet import ConformerSupernet, one_hot_weights
from confadapt.tensor import ShapeError, Tensor, backward

rng = np.random.default_rng(99)

SPACE = ArchSpace(
    model_dim=16,
    feat_dim=8,
    vocab_size=10,
    encoder_blocks=2,
    decoder_blocks=1,
    ff_choices=(8, 16),
    head_choices=(1, 2),
    head_dim_choices=(4, 8),
    kernel_choices=(3, 5),
)
# separate self- and cross-attention groups in every decoder block
SPLIT_SPACE = replace(SPACE, split_decoder_attention=True, decoder_blocks=2)


def rand_batch(space, b=2, t=17, l=3):
    feats = rng.normal(size=(b, t, space.feat_dim))
    lens = np.array([t] + [t - 4] * (b - 1))
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
    return ConformerSupernet(SPACE, seed=5)


@pytest.fixture(scope="module")
def batch():
    return rand_batch(SPACE)


def uniform_weights(space):
    return {k: Tensor(np.full(len(c), 1.0 / len(c))) for k, c in space.groups()}


def reference_sliced_weights(net, arch):
    """Parameter slicing for ``arch`` written out per parameter name, kept
    as an oracle for the slicing the searchable modules own."""
    space = net.space
    out = {name: p.data.copy() for name, p in net.params.items()}
    h_max, a_max = max(space.head_choices), max(space.head_dim_choices)

    def slice_attention(prefix, h, a):
        d = out[f"{prefix}.wq"].shape[0]
        for w in ("wq", "wk", "wv"):
            m = out[f"{prefix}.{w}"].reshape(d, h_max, a_max)
            out[f"{prefix}.{w}"] = m[:, :h, :a].reshape(d, h * a).copy()
        for bname in ("bq", "bk", "bv"):
            m = out[f"{prefix}.{bname}"].reshape(h_max, a_max)
            out[f"{prefix}.{bname}"] = m[:h, :a].reshape(h * a).copy()
        m = out[f"{prefix}.wo"].reshape(h_max, a_max, d)
        out[f"{prefix}.wo"] = m[:h, :a, :].reshape(h * a, d).copy()

    def slice_ff(prefix, fd):
        out[f"{prefix}.w1"] = out[f"{prefix}.w1"][:, :fd].copy()
        out[f"{prefix}.b1"] = out[f"{prefix}.b1"][:fd].copy()
        out[f"{prefix}.w2"] = out[f"{prefix}.w2"][:fd, :].copy()

    for b in range(space.encoder_blocks):
        fd = arch[("enc", b, "fd")]
        slice_ff(f"enc.{b}.ff1", fd)
        slice_ff(f"enc.{b}.ff2", fd)
        slice_attention(f"enc.{b}.attn", arch[("enc", b, "ah")], arch[("enc", b, "adim")])
        ck = arch[("enc", b, "ck")]
        lo = (max(space.kernel_choices) - ck) // 2
        out[f"enc.{b}.conv.dw"] = out[f"enc.{b}.conv.dw"][lo:lo + ck, :].copy()
    for b in range(space.decoder_blocks):
        slice_ff(f"dec.{b}.ff", arch[("dec", b, "fd")])
        if space.split_decoder_attention:
            hs, as_ = arch[("dec", b, "ah_self")], arch[("dec", b, "adim_self")]
            hc, ac = arch[("dec", b, "ah_cross")], arch[("dec", b, "adim_cross")]
        else:
            hs = hc = arch[("dec", b, "ah")]
            as_ = ac = arch[("dec", b, "adim")]
        slice_attention(f"dec.{b}.self_attn", hs, as_)
        slice_attention(f"dec.{b}.cross_attn", hc, ac)
    return out


class TestMixingLinearity:
    def test_ff_mixed_equals_branch_combination(self, net):
        ff = net.enc_blocks[0].ff1
        x = Tensor(rng.normal(size=(2, 5, SPACE.model_dim)))
        lam = np.array([0.3, 0.7])
        mixed = ff(x, Tensor(lam))
        expect = sum(lam[i] * ff(x, c).data for i, c in enumerate(ff.choices))
        np.testing.assert_allclose(mixed.data, expect, atol=1e-9)

    def test_conv_uniform_mix_is_mean_of_kernels(self, net):
        conv = net.enc_blocks[0].conv
        x = Tensor(rng.normal(size=(2, 7, SPACE.model_dim)))
        lam = np.full(len(conv.choices), 1.0 / len(conv.choices))
        mixed = conv(x, Tensor(lam))
        expect = sum(conv(x, c).data for c in conv.choices) / len(conv.choices)
        np.testing.assert_allclose(mixed.data, expect, atol=1e-9)

    def test_attention_mixed_equals_grid_combination(self, net):
        att = net.enc_blocks[1].attn
        x = Tensor(rng.normal(size=(2, 6, SPACE.model_dim)))
        lam_h = np.array([0.25, 0.75])
        lam_a = np.array([0.6, 0.4])
        mixed = att(x, x, Tensor(lam_h), Tensor(lam_a))
        expect = np.zeros_like(mixed.data)
        for hi, h in enumerate(att.h_choices):
            for ai, a in enumerate(att.a_choices):
                expect += lam_h[hi] * lam_a[ai] * att(x, x, h, a).data
        np.testing.assert_allclose(mixed.data, expect, atol=1e-9)

    def test_ff_zero_input_is_bias_image_average(self, net):
        # with zero input the hidden activation depends only on b1, so the
        # mixture equals the average of the two branch outputs
        ff = net.enc_blocks[0].ff1
        x = Tensor(np.zeros((1, 3, SPACE.model_dim)))
        mixed = ff(x, Tensor(np.array([0.5, 0.5])))
        expect = 0.5 * (ff(x, 8).data + ff(x, 16).data)
        np.testing.assert_allclose(mixed.data, expect, atol=1e-12)


class TestOneHotEquivalence:
    def test_one_hot_mixture_matches_direct_and_materialized(self, net, batch):
        for _ in range(3):
            arch = DerivedArch.sample_uniform(net.space, rng)
            mixed = net.mixed_forward(batch, one_hot_weights(net.space, arch))
            direct = net.one_hot_forward(batch, arch)
            model = net.materialize(arch, init="inherit")
            mat = model.forward(batch)
            for field in ("ctc_logprobs", "dec_logits"):
                a = getattr(mixed, field).data
                b = getattr(direct, field).data
                c = getattr(mat, field).data
                np.testing.assert_allclose(a, b, atol=1e-6)
                np.testing.assert_allclose(b, c, atol=1e-9)

    def test_extreme_archs(self, net, batch):
        for arch in (DerivedArch.maximal(net.space), DerivedArch.minimal(net.space)):
            mixed = net.mixed_forward(batch, one_hot_weights(net.space, arch))
            direct = net.one_hot_forward(batch, arch)
            np.testing.assert_allclose(mixed.dec_logits.data, direct.dec_logits.data, atol=1e-6)

    def test_kernel_choices_preserve_length(self, net, batch):
        for ck in net.space.kernel_choices:
            arch = DerivedArch(
                {k: (ck if k[2] == "ck" else c[-1]) for k, c in net.space.groups()}
            )
            out = net.one_hot_forward(batch, arch)
            assert out.enc.shape[1] == ((batch.features.shape[1] + 1) // 2 + 1) // 2


class TestMaterialize:
    def test_fresh_init_reproducible(self, net):
        arch = DerivedArch.sample_uniform(net.space, np.random.default_rng(3))
        m1 = net.materialize(arch, init="fresh", seed=42)
        m2 = net.materialize(arch, init="fresh", seed=42)
        for name, p in m1.named_parameters().items():
            assert (p.data == m2.named_parameters()[name].data).all()

    def test_fresh_differs_from_inherit(self, net):
        arch = DerivedArch.minimal(net.space)
        fresh = net.materialize(arch, init="fresh", seed=1)
        inh = net.materialize(arch, init="inherit")
        assert any(
            (fresh.named_parameters()[n].data != inh.named_parameters()[n].data).any()
            for n in fresh.named_parameters()
        )

    def test_invalid_arch_rejected(self, net, batch):
        bad = DerivedArch({k: c[0] for k, c in net.space.groups()})
        bad.choices[("enc", 0, "fd")] = 999
        with pytest.raises(ValueError, match="999"):
            net.one_hot_forward(batch, bad)

    def test_sliced_weights_match_reference_slicing(self, net):
        space = net.space
        pick = np.random.default_rng(17)
        archs = [DerivedArch.maximal(space), DerivedArch.minimal(space)]
        archs += [DerivedArch.sample_uniform(space, pick) for _ in range(10)]
        for arch in archs:
            got = net.sliced_weights(arch)
            expect = reference_sliced_weights(net, arch)
            assert list(got) == list(expect)
            for name, arr in expect.items():
                assert got[name].shape == arr.shape, name
                assert got[name].dtype == arr.dtype, name
                assert got[name].tobytes() == arr.tobytes(), name


class TestParamCounts:
    def test_linear_layer_convention(self):
        assert _linear_params(4, 8) == 40

    def test_formula_matches_enumeration_random_archs(self, net):
        for _ in range(5):
            arch = DerivedArch.sample_uniform(net.space, rng)
            model = net.materialize(arch, init="inherit")
            assert model.param_count() == param_count(net.space, arch)

    def test_one_hot_expected_equals_exact(self, net):
        arch = DerivedArch.sample_uniform(net.space, np.random.default_rng(8))
        w = one_hot_weights(net.space, arch)
        expect = expected_param_count(net.space, w)
        assert expect.item() == pytest.approx(param_count(net.space, arch), abs=1e-9)

    def test_uniform_expected_is_mean_of_enumeration(self):
        # tiny space with one free group; expectation must equal the mean
        # of the two exhaustively counted architectures
        space = ArchSpace(
            model_dim=4, feat_dim=4, vocab_size=6, encoder_blocks=1, decoder_blocks=1,
            ff_choices=(512, 1024), head_choices=(1,), head_dim_choices=(4,),
            kernel_choices=(3,),
        )
        net = ConformerSupernet(space, seed=0)
        counts = []
        for fd in space.ff_choices:
            arch = DerivedArch({k: (fd if k[2] == "fd" else c[0]) for k, c in space.groups()})
            counts.append(net.materialize(arch, init="inherit").param_count())
        w = uniform_weights(space)
        got = expected_param_count(space, w).item()
        assert got == pytest.approx(sum(counts) / 2, abs=1e-6)


class _SplitSpace:
    """Re-runs the inherited tests on a supernet whose decoder blocks search
    self- and cross-attention separately. A subclass rather than a fixture
    parameter, so the inherited tests keep their ids."""

    @pytest.fixture(scope="class")
    def net(self):
        return ConformerSupernet(SPLIT_SPACE, seed=5)


class TestOneHotEquivalenceSplit(_SplitSpace, TestOneHotEquivalence):
    pass


class TestMaterializeSplit(_SplitSpace, TestMaterialize):
    pass


class TestParamCountsSplit(_SplitSpace, TestParamCounts):
    pass


class TestGradientsFlow:
    def test_weights_and_lambda_get_gradients(self, net, batch):
        w = {k: Tensor(np.full(len(c), 1.0 / len(c)), requires_grad=True)
             for k, c in SPACE.groups()}
        out = net.mixed_forward(batch, w)
        loss = hybrid_batch_loss(out.ctc_logprobs, out.enc_lens, out.dec_logits, batch.token_seqs)
        backward(loss)
        for k, lam in w.items():
            assert np.abs(lam.grad).max() > 0, f"no gradient reached weights of {k}"
        touched = [n for n, p in net.named_parameters().items() if np.abs(p.grad).max() > 0]
        assert any(n.startswith("enc.0.ff1") for n in touched)
        assert any(n.startswith("enc.1.attn") for n in touched)
        assert any(n.startswith("dec.0.cross_attn") for n in touched)
        assert any(n.startswith("front.") for n in touched)
        for p in net.named_parameters().values():
            p.zero_grad()


class TestValidation:
    def test_unnormalized_weights_rejected(self, net, batch):
        w = uniform_weights(SPACE)
        w[("enc", 0, "fd")] = Tensor(np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="sum to 1"):
            net.mixed_forward(batch, w)

    def test_length_mask_mismatch_rejected(self, net, batch):
        bad = Batch(batch.features, batch.feat_lens + 100, batch.tokens_in, batch.token_seqs)
        with pytest.raises(ShapeError, match="lengths"):
            net.mixed_forward(bad, uniform_weights(SPACE))
