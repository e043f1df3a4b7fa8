"""Supernet mixing, one-hot equivalence, materialization, param counts."""

from collections import Counter
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
from confadapt import supernet as S
from confadapt import tensor as T
from confadapt.search import ArchLogits, sample_weights
from confadapt.supernet import ConformerSupernet, one_hot_weights
from confadapt.tensor import ShapeError, Tensor, backward, no_grad

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
# the default ArchSpace grid's choice counts (4 widths, 3 head counts, 4 head
# dims, 3 kernels) at a width small enough to sum every branch on the tape
GRID_SPACE = ArchSpace(
    model_dim=8, feat_dim=4, vocab_size=6, encoder_blocks=1, decoder_blocks=1,
    ff_choices=(4, 8, 12, 16), head_choices=(1, 2, 3), head_dim_choices=(1, 2, 3, 4),
    kernel_choices=(3, 5, 7),
)


def oracle_spaces():
    """Spaces whose groups hold 1 to 4 candidates, mixed within each space,
    with split decoder attention off and on."""
    out = []
    for n in (1, 2, 3, 4):
        base = ArchSpace(
            model_dim=8, feat_dim=4, vocab_size=6, encoder_blocks=2, decoder_blocks=2,
            ff_choices=(4, 8, 12, 16)[:n], head_choices=(1, 2, 3, 4)[:5 - n],
            head_dim_choices=(1, 2, 3, 4)[:n], kernel_choices=(3, 5, 7, 9)[:5 - n],
        )
        out += [base, replace(base, split_decoder_attention=True)]
    return out


ORACLE_SPACES = oracle_spaces()


def space_id(space):
    return (f"fd{len(space.ff_choices)}-ah{len(space.head_choices)}"
            + ("-split" if space.split_decoder_attention else ""))


def rand_batch(space, b=2, t=17, l=3, draw=rng):
    feats = draw.normal(size=(b, t, space.feat_dim))
    lens = np.array([t] + [t - 4] * (b - 1))
    tokens_in = np.full((b, l + 1), EOS_ID, dtype=np.int64)
    tokens_in[:, 0] = SOS_ID
    seqs = []
    for i in range(b):
        n = l if i == 0 else l - 1
        s = draw.integers(3, space.vocab_size, size=n)
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


def randomized(space, seed):
    """A supernet whose every parameter, biases and norms included, is drawn
    at random, so that no term of a mixture vanishes."""
    net = ConformerSupernet(space, seed=seed)
    draw = np.random.default_rng(seed)
    for p in net.params.values():
        p.data[...] = draw.normal(scale=0.5, size=p.shape)
    return net


def weighted_sum(terms):
    out = None
    for t in terms:
        out = t if out is None else out + t
    return out


def mixing_weights(n, draw):
    return Tensor(draw.dirichlet(np.ones(n)), requires_grad=True)


def columns(module, *lams):
    """``module``'s column weights from its groups' weight vectors, through
    the op ``mixed_forward`` records, so gradients reach each vector."""
    spans, start = {}, 0
    for key, lam in zip(module.keys, lams):
        spans[key] = slice(start, start + lam.shape[0])
        start += lam.shape[0]
    return module.column_weights(T.concat(list(lams)), spans)


def tape_column_weights(module, *lams):
    """The per-module tape expressions that the column-weight ops replaced,
    kept as their oracle: prefix sums as a matmul per head dim (attention)
    or per module (feed-forward), and per-kernel slices plus a sum (conv)."""
    if isinstance(module, S.SearchableFF):
        (lam,) = lams
        return (lam.reshape(1, -1) @ Tensor(module._prefix_cols)).reshape(module.width)
    if isinstance(module, S.SearchableAttention):
        lam_h, lam_a = lams
        return T.concat([((lam_h.reshape(1, -1) @ Tensor(c)).reshape(-1) * lam_a[i]).reshape(1, -1)
                         for i, c in enumerate(module._cols)])
    (lam,) = lams
    return [lam[i] for i in range(len(module.choices))], lam.sum()


def assert_same_on_tape(fn, oracle, leaves, seed, atol=1e-12):
    """``fn`` and ``oracle`` agree in output and in the gradient of every
    leaf under one random upstream gradient."""
    results = []
    for f in (fn, oracle):
        for t in leaves:
            t.zero_grad()
        out = f()
        upstream = np.random.default_rng(seed).normal(size=out.shape)
        backward((out * Tensor(upstream)).sum())
        results.append((out.data, [t.grad.copy() for t in leaves]))
    (got, got_grads), (expect, expect_grads) = results
    np.testing.assert_allclose(got, expect, rtol=0, atol=atol)
    for i, (g, e) in enumerate(zip(got_grads, expect_grads)):
        np.testing.assert_allclose(g, e, rtol=0, atol=atol, err_msg=f"leaf {i}")


def tape_attn_core(q, k, v, head_dim, key_pad=None, causal=False):
    """Scaled dot-product attention as nine recorded tape ops, kept as the
    oracle for the fused ``tensor.attention`` that ``attn_core`` calls."""
    b, t_q = q.shape[0], q.shape[1]
    t_k = k.shape[1]
    qt = q.transpose(0, 2, 1, 3)
    kt = k.transpose(0, 2, 3, 1)
    scores = (qt @ kt) * (float(head_dim) ** -0.5)
    mask = S._attn_mask(b, t_q, t_k, key_pad, causal)
    if mask is not None:
        scores = T.masked_fill(scores, mask, T.NEG_FILL)
    attn = T.softmax(scores, axis=-1)
    ctx = attn @ v.transpose(0, 2, 1, 3)
    return ctx.transpose(0, 2, 1, 3)


def attention_cases(model):
    """(module, query length, key length, key padding, causal): padded
    encoder self-attention, causal decoder self-attention and padded
    cross-attention."""
    dec = model.dec_blocks[0]
    t_q, t_kv = 5, 7
    key_pad = np.arange(t_kv)[None, :] >= np.array([[t_kv], [t_kv - 3]])
    return [(model.enc_blocks[0].attn, t_kv, t_kv, key_pad, False),
            (dec.self_attn, t_q, t_q, None, True),
            (dec.cross_attn, t_q, t_kv, key_pad, False)]


def attention_inputs(space, tq, tk, draw):
    """Query and key/value inputs; the same tensor when the lengths agree."""
    x_q = Tensor(draw.normal(size=(2, tq, space.model_dim)), requires_grad=True)
    x_kv = x_q if tk == tq else Tensor(
        draw.normal(size=(2, tk, space.model_dim)), requires_grad=True)
    return x_q, x_kv


def padded_input(space, draw, b=2, t=7):
    """Random (b, t, model_dim) input, trailing frames of the second row zeroed."""
    x = draw.normal(size=(b, t, space.model_dim))
    x[1, t - 2:] = 0.0
    return Tensor(x, requires_grad=True)


class TestMixingLinearity:
    """Each mixed sub-module equals the on-tape weighted sum of its concrete
    branches, in output and in the gradients of its weights, its input and
    its mixing weights. The feed-forward and attention output biases enter
    once, outside the mixture; the conv output bias is mixed like the rest."""

    def test_ff_mixed_equals_branch_combination(self, net):
        space = net.space
        draw = np.random.default_rng(21)
        ff = randomized(space, 1).enc_blocks[0].ff1
        for seed in range(3):
            x = padded_input(space, draw)
            lam = mixing_weights(len(ff.choices), draw)
            assert_same_on_tape(
                lambda: ff(x, columns(ff, lam)),
                lambda: weighted_sum((ff(x, c) - ff.b2) * lam[i]
                                     for i, c in enumerate(ff.choices)) + ff.b2,
                [x, lam, ff.w1, ff.b1, ff.w2, ff.b2], seed)

    def test_conv_uniform_mix_is_mean_of_kernels(self, net):
        space = net.space
        draw = np.random.default_rng(22)
        conv = randomized(space, 2).enc_blocks[0].conv
        n = len(conv.choices)
        lams = [Tensor(np.full(n, 1.0 / n), requires_grad=True)]
        lams += [mixing_weights(n, draw) for _ in range(3)]
        weights = [conv.pw1, conv.pb1, conv.dw, conv.db, conv.ln.g, conv.ln.b,
                   conv.pw2, conv.pb2]
        for seed, lam in enumerate(lams):
            x = padded_input(space, draw)
            assert_same_on_tape(
                lambda: conv(x, columns(conv, lam)),
                lambda: weighted_sum(conv(x, c) * lam[i] for i, c in enumerate(conv.choices)),
                [x, lam] + weights, seed)

    def test_attention_mixed_equals_grid_combination(self, net):
        space = net.space
        draw = np.random.default_rng(23)
        model = randomized(space, 3)
        for seed, (att, tq, tk, pad, causal) in enumerate(attention_cases(model) * 2):
            x_q, x_kv = attention_inputs(space, tq, tk, draw)
            lam_h = mixing_weights(len(att.h_choices), draw)
            lam_a = mixing_weights(len(att.a_choices), draw)

            def oracle():
                return weighted_sum(
                    (att(x_q, x_kv, (h, a), pad, causal) - att.bo) * (lam_h[hi] * lam_a[ai])
                    for hi, h in enumerate(att.h_choices)
                    for ai, a in enumerate(att.a_choices)) + att.bo

            weights = [getattr(att, n) for n in att._IN + ("wo", "bo")]
            assert_same_on_tape(
                lambda: att(x_q, x_kv, columns(att, lam_h, lam_a), pad, causal), oracle,
                [x_q, x_kv, lam_h, lam_a] + weights, seed)

    def test_fused_attention_matches_tape_oracle(self, net, monkeypatch):
        # the op alone, then every module forward, mixed and per choice
        space = net.space
        draw = np.random.default_rng(24)
        model = randomized(space, 3)
        for seed, (att, tq, tk, pad, causal) in enumerate(attention_cases(model)):
            for a in att.a_choices:
                q = Tensor(draw.normal(size=(2, tq, att.h_max, a)), requires_grad=True)
                k, v = (Tensor(draw.normal(size=(2, tk, att.h_max, d)), requires_grad=True)
                        for d in (a, att.a_max))
                assert_same_on_tape(
                    lambda: S.attn_core(q, k, v, a, pad, causal),
                    lambda: tape_attn_core(q, k, v, a, pad, causal), [q, k, v], seed)

            x_q, x_kv = attention_inputs(space, tq, tk, draw)
            lam_h = mixing_weights(len(att.h_choices), draw)
            lam_a = mixing_weights(len(att.a_choices), draw)
            weights = [getattr(att, n) for n in att._IN + ("wo", "bo")]
            leaves = [x_q, x_kv, lam_h, lam_a] + weights
            # None: the mixture, whose column weights join each recorded tape
            sels = [None] + [(h, a) for h in att.h_choices for a in att.a_choices]
            for sel in sels:
                def fused():
                    cols = columns(att, lam_h, lam_a) if sel is None else sel
                    return att(x_q, x_kv, cols, pad, causal)

                def oracle():
                    with monkeypatch.context() as m:
                        m.setattr(S, "attn_core", tape_attn_core)
                        return fused()

                assert_same_on_tape(fused, oracle, leaves, seed)

    def test_ff_zero_input_is_bias_image_average(self, net):
        # with zero input the hidden activation depends only on b1, so the
        # uniform mixture equals the average of the branch outputs
        ff = net.enc_blocks[0].ff1
        n = len(ff.choices)
        x = Tensor(np.zeros((1, 3, net.space.model_dim)))
        mixed = ff(x, columns(ff, Tensor(np.full(n, 1.0 / n))))
        expect = sum(ff(x, c).data for c in ff.choices) / n
        np.testing.assert_allclose(mixed.data, expect, atol=1e-12)


@pytest.mark.parametrize("space", ORACLE_SPACES, ids=space_id)
def test_column_weights_match_the_tape_oracle(space):
    net = ConformerSupernet(space, seed=0)
    draw = np.random.default_rng(31)
    for seed, module in enumerate(net.searchable):
        lams = [mixing_weights(len(space.group_choices(k)), draw) for k in module.keys]
        if isinstance(module, S.SearchableConv):
            def fused():
                lam, total = columns(module, *lams)
                return T.concat([lam, total.reshape(1)])

            def oracle():
                per_kernel, total = tape_column_weights(module, *lams)
                return T.concat([t.reshape(1) for t in per_kernel] + [total.reshape(1)])
        else:
            def fused():
                return columns(module, *lams)

            def oracle():
                return tape_column_weights(module, *lams)
        assert_same_on_tape(fused, oracle, lams, seed)


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

    def test_inherited_weights_do_not_alias_the_supernet(self, net):
        # a fresh supernet, since this test writes into its parameters
        space = net.space
        net = ConformerSupernet(space, seed=0)
        for arch in (DerivedArch.maximal(space), DerivedArch.minimal(space)):
            model = net.materialize(arch, init="inherit")
            before = {n: p.data.copy() for n, p in model.named_parameters().items()}
            for p in net.params.values():
                p.data[...] += 1.0
            for n, p in model.named_parameters().items():
                assert p.data.tobytes() == before[n].tobytes(), n

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


class TestArchSpace:
    def test_non_integer_choice_refused(self):
        # checked before the choices are stored as ints, so 8.5 is not truncated to 8
        with pytest.raises(ValueError, match="ff_choices"):
            replace(SPACE, ff_choices=(8.5, 16))
        # a checkpoint's JSON lists load as tuples
        assert replace(SPACE, ff_choices=[8, 16]).ff_choices == (8, 16)

    @pytest.mark.parametrize("change, message", [
        ({"ff_choices": ()}, "ff_choices must be nonempty"),
        ({"kernel_choices": (3, 4)}, "kernel_choices entries must be odd"),
        ({"model_dim": 0}, "must be positive"),
        ({"feat_dim": -1}, "must be positive"),
        ({"encoder_blocks": 0}, "at least one encoder"),
        ({"decoder_blocks": 0}, "at least one encoder and one decoder"),
        ({"vocab_size": 3}, "vocab must cover"),
        # the sinusoidal positions fill even and odd channels in pairs
        ({"model_dim": 33}, "model_dim must be even"),
    ])
    def test_space_no_model_can_have_refused(self, change, message):
        with pytest.raises(ValueError, match=message):
            replace(SPACE, **change)


class _SplitSpace:
    """Re-runs the inherited tests on a supernet whose decoder blocks search
    self- and cross-attention separately. A subclass rather than a fixture
    parameter, so the inherited tests keep their ids."""

    @pytest.fixture(scope="class")
    def net(self):
        return ConformerSupernet(SPLIT_SPACE, seed=5)


class _GridSpace:
    @pytest.fixture(scope="class")
    def net(self):
        return ConformerSupernet(GRID_SPACE, seed=5)


class TestMixingLinearitySplit(_SplitSpace, TestMixingLinearity):
    pass


class TestMixingLinearityGrid(_GridSpace, TestMixingLinearity):
    pass


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


def recorded(roots):
    """Recorded op nodes reachable from ``roots``."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def tape_nodes(roots):
    """Number of recorded op nodes reachable from ``roots``."""
    return len(recorded(roots))


def op_name(node):
    """Name of the tensor op that recorded ``node``."""
    return node._backward.__qualname__.split(".")[0]


def slices_and_reshapes(roots):
    """Recorded ``tensor_slice`` and ``reshape`` nodes reachable from ``roots``;
    each has its one operand as its only graph edge."""
    return [n for n in recorded(roots) if op_name(n) in ("tensor_slice", "reshape")]


class TestTapeSize:
    def test_mixed_forward_size_ignores_head_count_and_width_choices(self):
        def size(space):
            out = ConformerSupernet(space, seed=0).mixed_forward(
                rand_batch(space), uniform_weights(space))
            return tape_nodes([out.ctc_logprobs, out.dec_logits])

        base = size(SPACE)
        for variant in (replace(SPACE, head_choices=(2,)),
                        replace(SPACE, head_choices=(1, 2, 3)),
                        replace(SPACE, ff_choices=(16,)),
                        replace(SPACE, ff_choices=(4, 8, 12, 16))):
            assert size(variant) == base, variant

    @pytest.mark.parametrize("space", [SPACE, SPLIT_SPACE], ids=["space", "split"])
    def test_weight_step_records_no_identity_slice_or_reshape(self, space):
        # a choice that fills its buffer reads the buffer itself
        net = ConformerSupernet(space, seed=0)
        with no_grad():
            lam = sample_weights(ArchLogits(space), rng=np.random.default_rng(0))
        loss = net.batch_loss(rand_batch(space), lam)
        identity = [n for n in slices_and_reshapes([loss]) if n.shape == n._parents[0].shape]
        assert not identity

    @pytest.mark.parametrize("space", [SPACE, SPLIT_SPACE], ids=["space", "split"])
    def test_materialized_model_reads_its_parameters_whole(self, space):
        net = ConformerSupernet(space, seed=0)
        draw = np.random.default_rng(4)
        archs = [DerivedArch.maximal(space), DerivedArch.minimal(space)]
        archs += [DerivedArch.sample_uniform(space, draw) for _ in range(3)]
        batch = rand_batch(space)
        for arch in archs:
            model = net.materialize(arch)
            own = {id(p) for p in model.params.values()}
            loss = model.batch_loss(batch)
            cut = [n for n in slices_and_reshapes([loss]) if id(n._parents[0]) in own]
            assert not cut, arch

    @pytest.mark.parametrize("space", [SPACE, SPLIT_SPACE], ids=["space", "split"])
    def test_attention_and_affine_projections_are_one_node_each(self, space):
        net = ConformerSupernet(space, seed=0)
        model = net.materialize(DerivedArch.sample_uniform(space, np.random.default_rng(6)))
        batch = rand_batch(space)
        for m, loss in ((model, model.batch_loss(batch)),
                        (net, net.batch_loss(batch, uniform_weights(space)))):
            nodes = recorded([loss])
            kinds = Counter(op_name(n) for n in nodes)
            assert kinds["transpose"] == 0 and kinds["softmax"] == 0
            # one node per attention call: one per head dim choice when mixed
            calls = 1 if m is model else len(space.head_dim_choices)
            assert kinds["attention"] == calls * (space.encoder_blocks + 2 * space.decoder_blocks)
            params = {id(p) for p in m.params.values()}
            affine = [n for n in nodes if op_name(n) == "add" for p in n._parents
                      if p._backward is not None and op_name(p) == "matmul"
                      and any(id(o) in params for o in p._parents)]
            assert not affine


class TestValidation:
    def test_unnormalized_weights_rejected(self, net, batch):
        for bad in ([0.5, 0.6], [np.nan, np.nan]):
            w = uniform_weights(SPACE)
            w[("enc", 0, "fd")] = Tensor(np.array(bad))
            with pytest.raises(ValueError, match="sum to 1"):
                net.mixed_forward(batch, w)

    def test_weights_of_every_group_in_its_shape_required(self, net, batch):
        w = uniform_weights(SPACE)
        del w[("enc", 0, "fd")]
        with pytest.raises(ValueError, match="missing group"):
            net.mixed_forward(batch, w)
        w = uniform_weights(SPACE)
        w[("enc", 0, "fd")] = Tensor(np.full(3, 1 / 3))
        with pytest.raises(ShapeError, match=r"shape \(3,\) != \(2,\)"):
            net.mixed_forward(batch, w)

    def test_unknown_parameter_init_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown init kind orthogonal"):
            S._init_value((4, 4), "orthogonal", np.random.default_rng(0))

    def test_unknown_materialize_init_rejected(self, net):
        with pytest.raises(ValueError, match="'inherit' or 'fresh'"):
            net.materialize(DerivedArch.minimal(SPACE), init="copy")

    def test_length_mask_mismatch_rejected(self, net, batch):
        bad = Batch(batch.features, batch.feat_lens + 100, batch.tokens_in, batch.token_seqs)
        with pytest.raises(ShapeError, match="lengths"):
            net.mixed_forward(bad, uniform_weights(SPACE))

    def test_encoder_entry_checks_features_and_lengths(self, net, batch):
        # greedy decoding enters through forward_encoder, not the full forward
        model = net.materialize(DerivedArch.minimal(SPACE))
        with pytest.raises(ShapeError, match=r"\(B, T, F\)"):
            model.forward_encoder(batch.features[0], batch.feat_lens)
        with pytest.raises(ShapeError, match="feature dim"):
            model.forward_encoder(batch.features[:, :, :5], batch.feat_lens)
        with pytest.raises(ShapeError, match="lengths"):
            model.forward_encoder(batch.features, batch.feat_lens + 100)
