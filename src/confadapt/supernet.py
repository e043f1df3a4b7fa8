"""Conformer encoder / Transformer decoder with weight-shared candidate
branches for the searchable sub-modules.

Each searchable sub-module keeps one max-size buffer per parameter and
is the only place that knows how a choice maps onto it: feed-forward
candidates take the leading hidden units, attention candidates the
leading heads and head dims, kernel candidates the center taps of the
widest depthwise kernel. A module knows the group keys it reads. It has
one forward entry, taking its column weights or a concrete choice, and
one ``export``, returning the parameter arrays a choice reads by full
name; both use the same slice helper, so a one-hot mixture, the direct
single-branch forward and the materialized model agree numerically.
Every module mixes by one rule: loop over a candidate's nonlinear part
only, weight its output columns, then project once.

Column weights fold the mixture into one weight per output column of a
candidate's nonlinear part: the summed mixing weight of the candidates
that read the column. ``ConformerSupernet.mixed_forward`` makes them
once per step from the flat mixing weights (``space.GroupWeights``): one
op per feed-forward or attention module, each column's prefix sum of the
widths or heads wide enough to read it, and for conv its per-kernel
weights (a slice) and their sum.

Blocks take one selector: each searchable module's column weights or
concrete choice, keyed by the module. A materialized model reuses the
blocks with buffers sized to its architecture and selects with its own
arch. Each model's ``batch_loss`` applies the hybrid objective to its
forward.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import IncompatibleCheckpointError
from .losses import hybrid_batch_loss
from .space import DerivedArch, GroupWeights, flat_weights
from .tensor import ShapeError, Tensor


@dataclass
class ForwardOut:
    enc: Tensor
    enc_lens: np.ndarray
    ctc_logprobs: Tensor
    dec_logits: Tensor


# ---------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------


def _init_value(shape, kind, rng):
    if kind == "zeros":
        return np.zeros(shape)
    if kind == "ones":
        return np.ones(shape)
    if kind == "xavier":
        fan_in, fan_out = shape[0], shape[1]
        s = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-s, s, size=shape)
    if kind == "kernel":
        s = shape[0] ** -0.5
        return rng.uniform(-s, s, size=shape)
    if kind == "embed":
        return rng.normal(0.0, shape[1] ** -0.5, size=shape)
    raise ValueError(f"unknown init kind {kind}")


class _Builder:
    """Registers parameters in creation order, and records the init kind
    of each. A parameter is a copy of its array in ``weights`` (full name
    -> array), never a view of it; without weights it is drawn from
    ``rng``. This is the one copy of inherited or loaded weights, so a
    model never shares a buffer with the supernet or checkpoint it was
    built from."""

    def __init__(self, rng, weights=None):
        self.params = {}
        self.kinds = {}
        self.rng = rng
        self.weights = weights

    def __call__(self, name, shape, kind):
        if self.weights is None:
            value = _init_value(shape, kind, self.rng)
        elif name not in self.weights:
            raise IncompatibleCheckpointError(f"checkpoint is missing parameter {name}")
        else:
            value = np.array(self.weights[name], dtype=np.float64, order="C")
            if value.shape != shape:
                raise IncompatibleCheckpointError(
                    f"checkpoint parameter {name}: shape {value.shape} != {shape}")
        p = Tensor(value, requires_grad=True)
        self.params[name] = p
        self.kinds[name] = kind
        return p


class _LN:
    def __init__(self, build, prefix, d):
        self.g = build(prefix + ".g", (d,), "ones")
        self.b = build(prefix + ".b", (d,), "zeros")

    def __call__(self, x):
        return T.layer_norm(x, self.g, self.b)


# ---------------------------------------------------------------------
# attention core
# ---------------------------------------------------------------------


def _attn_mask(batch, t_q, t_k, key_pad, causal):
    m = None
    if key_pad is not None:
        m = np.broadcast_to(key_pad[:, None, None, :], (batch, 1, t_q, t_k))
    if causal:
        c = np.triu(np.ones((t_q, t_k), dtype=bool), k=1)[None, None]
        m = c if m is None else (m | c)
    return m


def attn_core(q, k, v, head_dim, key_pad=None, causal=False):
    """Scaled dot-product attention over (B, T, H, head_dim) inputs."""
    mask = _attn_mask(q.shape[0], q.shape[1], k.shape[1], key_pad, causal)
    return T.attention(q, k, v, mask, float(head_dim) ** -0.5)


# ---------------------------------------------------------------------
# searchable sub-modules
# ---------------------------------------------------------------------


def _export(prefix, names, arrays):
    """Sliced parameter arrays keyed by full name, uncopied: views of the
    supernet's buffers wherever numpy can slice and reshape without a copy."""
    return {f"{prefix}.{n}": a for n, a in zip(names, arrays)}


def _prefix_mask(choices, width):
    """(len(choices), width) 0/1 rows; row i keeps the leading ``choices[i]`` columns."""
    return (np.arange(width)[None, :] < np.asarray(choices)[:, None]).astype(np.float64)


class SearchableFF:
    """Macaron-style feed-forward with a searchable hidden width."""

    def __init__(self, build, prefix, d, choices, width, key):
        self.prefix = prefix
        self.keys = (key,)
        self.choices = tuple(choices)
        self.width = width
        self.w1 = build(prefix + ".w1", (d, width), "xavier")
        self.b1 = build(prefix + ".b1", (width,), "zeros")
        self.w2 = build(prefix + ".w2", (width, d), "xavier")
        self.b2 = build(prefix + ".b2", (d,), "zeros")
        self._prefix_cols = _prefix_mask(self.choices, width)

    def choice(self, arch):
        return arch[self.keys[0]]

    def column_weights(self, flat, spans):
        """Each hidden column's weight, the summed mixing weight of the
        widths that read it, as one op on the flat mixing weights; ``spans``
        maps a group key to its slice of ``flat``."""
        part = spans[self.keys[0]]
        cols = self._prefix_cols
        data = (flat.data[part][None, :] @ cols).reshape(self.width)

        def bw(g):
            if flat.requires_grad:
                T._grad_buffer(flat)[part] += (g.reshape(1, -1) @ cols.T).reshape(-1)

        return T._from_op(data, (flat,), bw)

    def _slice(self, fd, w1, b1, w2):
        if fd == self.width:
            return w1, b1, w2
        return w1[:, :fd], b1[:fd], w2[:fd, :]

    def __call__(self, x, sel):
        """``sel``: column weights (Tensor) or a width."""
        if isinstance(sel, Tensor):
            # sum_i lam_i * branch_i(x) collapses to one pass with per-column
            # cumulative weights, since column j feeds every branch wider than j
            h = T.swish(T.linear(x, self.w1, self.b1))
            return T.linear(h * sel, self.w2, self.b2)
        w1, b1, w2 = self._slice(sel, self.w1, self.b1, self.w2)
        return T.linear(T.swish(T.linear(x, w1, b1)), w2, self.b2)

    def export(self, fd):
        return _export(self.prefix, ("w1", "b1", "w2"),
                       self._slice(fd, self.w1.data, self.b1.data, self.w2.data))


class SearchableAttention:
    """Multi-head attention with searchable head count and head dim."""

    _IN = ("wq", "bq", "wk", "bk", "wv", "bv")

    def __init__(self, build, prefix, d, h_choices, a_choices, h_max, a_max, keys):
        self.prefix = prefix
        self.keys = tuple(keys)  # (heads, head dim)
        self.d = d
        self.h_choices = tuple(h_choices)
        self.a_choices = tuple(a_choices)
        self.h_max = h_max
        self.a_max = a_max
        wide = h_max * a_max
        self.wq = build(prefix + ".wq", (d, wide), "xavier")
        self.bq = build(prefix + ".bq", (wide,), "zeros")
        self.wk = build(prefix + ".wk", (d, wide), "xavier")
        self.bk = build(prefix + ".bk", (wide,), "zeros")
        self.wv = build(prefix + ".wv", (d, wide), "xavier")
        self.bv = build(prefix + ".bv", (wide,), "zeros")
        self.wo = build(prefix + ".wo", (wide, d), "xavier")
        self.bo = build(prefix + ".bo", (d,), "zeros")
        # per head dim a, a (heads choice, packed column) mask: candidate
        # (h, a) reads column (head j, dim i) iff j < h and i < a
        heads = np.repeat(_prefix_mask(self.h_choices, h_max), a_max, axis=1)
        dims = np.tile(_prefix_mask(self.a_choices, a_max), h_max)
        self._cols = [heads * dm for dm in dims]

    def choice(self, arch):
        return tuple(arch[k] for k in self.keys)

    def column_weights(self, flat, spans):
        """One row per head dim ``a_choices[i]``: the weight of each packed
        context column in the attention over that head dim, the summed
        weight of the (heads, dim) candidates that read it. One op on the
        flat mixing weights; ``spans`` maps a group key to its slice."""
        part_h, part_a = (spans[k] for k in self.keys)
        lam_h = flat.data[part_h][None, :]
        lam_a = flat.data[part_a]
        heads_w = [(lam_h @ c).reshape(-1) for c in self._cols]
        data = np.stack([hw * lam_a[i] for i, hw in enumerate(heads_w)])

        def bw(g):
            if flat.requires_grad:
                g_h = 0.0
                g_a = np.empty(len(self._cols))
                for i, c in enumerate(self._cols):
                    g_h = g_h + ((g[i] * lam_a[i])[None, :] @ c.T).reshape(-1)
                    g_a[i] = (g[i] * heads_w[i]).sum()
                buf = T._grad_buffer(flat)
                buf[part_h] += g_h
                buf[part_a] += g_a

        return T._from_op(data, (flat,), bw)

    def _in_slice(self, w, h, a):
        # input projections (d, H*A) and their biases (H*A,): heads packed
        # on the last axis, head-major
        if h == self.h_max and a == self.a_max:
            return w
        lead = w.shape[:-1]
        return w.reshape(*lead, self.h_max, self.a_max)[..., :h, :a].reshape(*lead, h * a)

    def _out_slice(self, wo, h, a):
        if h == self.h_max and a == self.a_max:
            return wo
        return wo.reshape(self.h_max, self.a_max, self.d)[:h, :a, :].reshape(h * a, self.d)

    def _proj_in(self, w, b, x, h, a):
        y = T.linear(x, self._in_slice(w, h, a), self._in_slice(b, h, a))
        return y.reshape(*x.shape[:2], h, a)

    def __call__(self, x_q, x_kv, sel, key_pad=None, causal=False):
        """``sel``: column weights (Tensor), or a (head count, head dim) pair."""
        b, t_q = x_q.shape[:2]
        if not isinstance(sel, Tensor):
            h, a = sel
            q = self._proj_in(self.wq, self.bq, x_q, h, a)
            k = self._proj_in(self.wk, self.bk, x_kv, h, a)
            v = self._proj_in(self.wv, self.bv, x_kv, h, a)
            ctx = attn_core(q, k, v, a, key_pad, causal)
            return T.linear(ctx.reshape(b, t_q, h * a), self._out_slice(self.wo, h, a), self.bo)
        # one attention per head dim over all heads and value dims; each
        # context column is weighted by the candidates that read it
        qf = self._proj_in(self.wq, self.bq, x_q, self.h_max, self.a_max)
        kf = self._proj_in(self.wk, self.bk, x_kv, self.h_max, self.a_max)
        vf = self._proj_in(self.wv, self.bv, x_kv, self.h_max, self.a_max)
        ctxs = []
        for a in self.a_choices:
            q, k = (qf, kf) if a == self.a_max else (qf[:, :, :, :a], kf[:, :, :, :a])
            ctxs.append(attn_core(q, k, vf, a, key_pad, causal).reshape(b, t_q, -1))
        return T.linear(T.mix(ctxs, sel), self.wo, self.bo)

    def export(self, choice):
        h, a = choice
        arrays = [self._in_slice(getattr(self, n).data, h, a) for n in self._IN]
        arrays.append(self._out_slice(self.wo.data, h, a))
        return _export(self.prefix, self._IN + ("wo",), arrays)


class SearchableConv:
    """Conformer convolution module with a searchable depthwise kernel."""

    def __init__(self, build, prefix, d, choices, width, key):
        self.prefix = prefix
        self.keys = (key,)
        self.choices = tuple(choices)
        self.width = width
        self.pw1 = build(prefix + ".pw1", (d, 2 * d), "xavier")
        self.pb1 = build(prefix + ".pb1", (2 * d,), "zeros")
        self.dw = build(prefix + ".dw", (width, d), "kernel")
        self.db = build(prefix + ".db", (d,), "zeros")
        self.ln = _LN(build, prefix + ".ln", d)
        self.pw2 = build(prefix + ".pw2", (d, d), "xavier")
        self.pb2 = build(prefix + ".pb2", (d,), "zeros")

    def choice(self, arch):
        return arch[self.keys[0]]

    def column_weights(self, flat, spans):
        """The per-kernel mixing weights, a slice of the flat weights, and
        their sum, which the output bias keeps in the branch sum."""
        lam = flat[spans[self.keys[0]]]
        return lam, lam.sum()

    def _slice(self, ck, dw):
        # center taps
        lo = (self.width - ck) // 2
        return dw[lo:lo + ck, :] if ck != self.width else dw

    def _act(self, u, ck):
        return T.swish(self.ln(T.depthwise_conv1d(u, self._slice(ck, self.dw), self.db)))

    def __call__(self, x, sel):
        """``sel``: column weights (a (weights, their sum) pair of Tensors)
        or a kernel size."""
        u = T.glu(T.linear(x, self.pw1, self.pb1))
        if not isinstance(sel, tuple):
            return T.linear(self._act(u, sel), self.pw2, self.pb2)
        # pw2 is linear; pb2 keeps the total mixing weight it has in the branch sum
        lam, total = sel
        y = T.mix([self._act(u, ck) for ck in self.choices], lam)
        return T.linear(y, self.pw2, self.pb2 * total)

    def export(self, ck):
        return _export(self.prefix, ("dw",), (self._slice(ck, self.dw.data),))


# ---------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------
#
# ``sel`` maps each searchable module to what it takes: its column weights
# or its concrete choice. ``arch`` sizes the buffers.


def _attention(build, prefix, space, keys, arch):
    h, a = keys
    return SearchableAttention(build, prefix, space.model_dim, space.head_choices,
                               space.head_dim_choices, arch[h], arch[a], keys)


class EncoderBlock:
    def __init__(self, build, space, b, arch):
        d = space.model_dim
        p = f"enc.{b}"
        fd, ah, adim, ck = (("enc", b, g) for g in space.block_groups("enc"))
        self.ln_ff1 = _LN(build, p + ".ln_ff1", d)
        self.ff1 = SearchableFF(build, p + ".ff1", d, space.ff_choices, arch[fd], fd)
        self.ln_attn = _LN(build, p + ".ln_attn", d)
        self.attn = _attention(build, p + ".attn", space, (ah, adim), arch)
        self.ln_conv = _LN(build, p + ".ln_conv", d)
        self.conv = SearchableConv(build, p + ".conv", d, space.kernel_choices, arch[ck], ck)
        self.ln_ff2 = _LN(build, p + ".ln_ff2", d)
        self.ff2 = SearchableFF(build, p + ".ff2", d, space.ff_choices, arch[fd], fd)
        self.ln_out = _LN(build, p + ".ln_out", d)
        self.searchable = (self.ff1, self.attn, self.conv, self.ff2)

    def forward(self, x, pad, sel):
        x = x + self.ff1(self.ln_ff1(x), sel[self.ff1]) * 0.5
        a_in = self.ln_attn(x)
        x = x + self.attn(a_in, a_in, sel[self.attn], key_pad=pad)
        c_in = T.masked_fill(self.ln_conv(x), pad[:, :, None], 0.0)
        x = x + self.conv(c_in, sel[self.conv])
        x = x + self.ff2(self.ln_ff2(x), sel[self.ff2]) * 0.5
        return self.ln_out(x)


class DecoderBlock:
    def __init__(self, build, space, b, arch):
        d = space.model_dim
        p = f"dec.{b}"
        key_self, key_cross = space.attention_keys(b)
        fd = ("dec", b, "fd")
        self.ln_self = _LN(build, p + ".ln_self", d)
        self.self_attn = _attention(build, p + ".self_attn", space, key_self, arch)
        self.ln_cross = _LN(build, p + ".ln_cross", d)
        self.cross_attn = _attention(build, p + ".cross_attn", space, key_cross, arch)
        self.ln_ff = _LN(build, p + ".ln_ff", d)
        self.ff = SearchableFF(build, p + ".ff", d, space.ff_choices, arch[fd], fd)
        self.searchable = (self.self_attn, self.cross_attn, self.ff)

    def forward(self, x, enc, enc_pad, sel):
        s_in = self.ln_self(x)
        x = x + self.self_attn(s_in, s_in, sel[self.self_attn], causal=True)
        c_in = self.ln_cross(x)
        x = x + self.cross_attn(c_in, enc, sel[self.cross_attn], key_pad=enc_pad)
        return x + self.ff(self.ln_ff(x), sel[self.ff])


# ---------------------------------------------------------------------
# full model core
# ---------------------------------------------------------------------


def _sinusoid(length, d):
    pos = np.arange(length)[:, None]
    i = np.arange(0, d, 2)[None, :]
    angle = pos / np.power(10000.0, i / d)
    pe = np.zeros((length, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return pe


class _ConformerCore:
    """Shared structure of the supernet and materialized models: buffers
    sized to ``arch``, values copied from ``weights`` or drawn from ``seed``."""

    def __init__(self, space, arch, seed, weights):
        self.space = space
        build = _Builder(np.random.default_rng(seed), weights)
        d, f, v = space.model_dim, space.feat_dim, space.vocab_size
        # two conv-subsampling stages, feat_dim -> model_dim -> model_dim
        self.front = [
            (build(f"front.dw{i}", (3, c), "kernel"), build(f"front.db{i}", (c,), "zeros"),
             build(f"front.pw{i}", (c, d), "xavier"), build(f"front.pb{i}", (d,), "zeros"))
            for i, c in ((1, f), (2, d))
        ]
        self.enc_blocks = [EncoderBlock(build, space, b, arch) for b in range(space.encoder_blocks)]
        self.enc_final = _LN(build, "enc.final_ln", d)
        self.ctc_w = build("ctc.w", (d, v), "xavier")
        self.ctc_b = build("ctc.b", (v,), "zeros")
        self.embed = build("dec.embed", (v, d), "embed")
        self.dec_blocks = [DecoderBlock(build, space, b, arch) for b in range(space.decoder_blocks)]
        self.dec_final = _LN(build, "dec.final_ln", d)
        self.out_w = build("out.w", (d, v), "xavier")
        self.out_b = build("out.b", (v,), "zeros")
        self.params = build.params
        self._init_kinds = build.kinds
        self._pos = {}
        self.searchable = [m for blk in self.enc_blocks + self.dec_blocks for m in blk.searchable]

    def named_parameters(self):
        return dict(self.params)

    def _choices(self, arch):
        """The selector of ``arch``: each searchable module's concrete choice."""
        return {m: m.choice(arch) for m in self.searchable}

    def _posenc(self, length):
        if length not in self._pos:
            self._pos[length] = Tensor(_sinusoid(length, self.space.model_dim))
        return self._pos[length]

    @staticmethod
    def _pad_mask(lens, t):
        return np.arange(t)[None, :] >= np.asarray(lens)[:, None]

    def _front_end(self, features, lens):
        """Per stage: mask padding, convolve, keep every second frame, halve the lengths."""
        x = Tensor(features)
        for dw, db, pw, pb in self.front:
            x = T.masked_fill(x, self._pad_mask(lens, x.shape[1])[:, :, None], 0.0)
            x = T.depthwise_conv1d(x, dw, db)
            x = T.swish(T.linear(x, pw, pb))[:, ::2, :]
            lens = (lens + 1) // 2
        return x + self._posenc(x.shape[1]), lens, self._pad_mask(lens, x.shape[1])

    def _encode(self, features, lens, sel):
        features = np.asarray(features, dtype=np.float64)
        lens = np.asarray(lens)
        if features.ndim != 3:
            raise ShapeError(f"encoder: features must be (B, T, F), got {features.shape}")
        if features.shape[2] != self.space.feat_dim:
            raise ShapeError(
                f"encoder: feature dim {features.shape[2]} != space feat_dim {self.space.feat_dim}"
            )
        if lens.shape != (features.shape[0],) or lens.max(initial=0) > features.shape[1] or lens.min(initial=1) < 1:
            raise ShapeError(
                f"encoder: lengths {lens.tolist()} do not match features of shape {features.shape}"
            )
        x, enc_lens, pad = self._front_end(features, lens)
        for blk in self.enc_blocks:
            x = blk.forward(x, pad, sel)
        return self.enc_final(x), enc_lens, pad

    def _decode(self, enc, enc_pad, tokens_in, sel):
        d = self.space.model_dim
        x = T.embedding(self.embed, np.asarray(tokens_in)) * math.sqrt(d)
        x = x + self._posenc(x.shape[1])
        for blk in self.dec_blocks:
            x = blk.forward(x, enc, enc_pad, sel)
        return T.linear(self.dec_final(x), self.out_w, self.out_b)

    def _forward(self, features, lens, tokens_in, sel):
        enc, enc_lens, pad = self._encode(features, lens, sel)
        ctc_lp = T.log_softmax(T.linear(enc, self.ctc_w, self.ctc_b), axis=-1)
        logits = self._decode(enc, pad, tokens_in, sel)
        return ForwardOut(enc=enc, enc_lens=enc_lens, ctc_logprobs=ctc_lp, dec_logits=logits)

    @staticmethod
    def _hybrid_loss(out, batch):
        """The training objective of a forward output."""
        return hybrid_batch_loss(out.ctc_logprobs, out.enc_lens, out.dec_logits, batch.token_seqs)


def one_hot_weights(space, arch):
    """Exact one-hot mixing weights selecting ``arch`` in every group."""
    arch.validate(space)
    hot = [np.asarray(opts) == arch[key] for key, opts in space.groups()]
    return GroupWeights(space, Tensor(np.concatenate(hot).astype(np.float64)))


def _check_weights(space, weights, tol=1e-6):
    """The flat Tensor of ``weights`` (``space.flat_weights``), each group
    nonnegative and summing to 1 within ``tol``."""
    lay = space.layout
    flat = flat_weights(space, weights)
    rows = lay.padded(flat.data, 0.0)
    sums = rows.sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= tol) | (rows < -tol).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"mixing weights for {lay.keys[i]} must be nonnegative and sum to 1 "
            f"within {tol}, got sum {float(sums[i])}"
        )
    return flat


class ConformerSupernet(_ConformerCore):
    """All candidate structures in one weight-shared model."""

    def __init__(self, space, seed=0, weights=None):
        super().__init__(space, DerivedArch.maximal(space), seed, weights)

    def mixed_forward(self, batch, weights):
        """Forward with every searchable sub-module mixing its branches.

        ``weights`` is a ``GroupWeights`` of this supernet's space. Each
        module's column weights are made here from its flat vector: one op
        per module, a slice and a sum for conv."""
        flat = _check_weights(self.space, weights)
        spans = self.space.layout.spans
        sel = {m: m.column_weights(flat, spans) for m in self.searchable}
        return self._forward(batch.features, batch.feat_lens, batch.tokens_in, sel)

    def batch_loss(self, batch, weights):
        """Hybrid loss of the mixed forward; the search step's task interface."""
        return self._hybrid_loss(self.mixed_forward(batch, weights), batch)

    def one_hot_forward(self, batch, arch):
        """Forward running only the branches selected by ``arch``."""
        arch.validate(self.space)
        return self._forward(batch.features, batch.feat_lens, batch.tokens_in,
                             self._choices(arch))

    def sliced_weights(self, arch):
        """The parameter subset a derived arch uses, as slices and views of
        the supernet's buffers; a model built from them copies each array."""
        arch.validate(self.space)
        out = {name: p.data for name, p in self.params.items()}
        for m in self.searchable:
            out.update(m.export(m.choice(arch)))
        return out

    def materialize(self, arch, init="inherit", seed=0):
        """Standalone model for ``arch``, inheriting slices or drawn fresh."""
        if init == "inherit":
            return DerivedModel(self.space, arch, weights=self.sliced_weights(arch))
        if init == "fresh":
            return DerivedModel(self.space, arch, seed=seed)
        raise ValueError(f"materialize: init must be 'inherit' or 'fresh', got {init!r}")


class DerivedModel(_ConformerCore):
    """A single concrete architecture with its own parameter set."""

    def __init__(self, space, arch, weights=None, seed=0):
        arch.validate(space)
        self.arch = arch
        super().__init__(space, arch, seed, weights)
        self._sel = self._choices(arch)

    def param_count(self):
        return sum(p.data.size for p in self.params.values())

    def forward(self, batch):
        return self._forward(batch.features, batch.feat_lens, batch.tokens_in, self._sel)

    def batch_loss(self, batch):
        return self._hybrid_loss(self.forward(batch), batch)

    def forward_encoder(self, features, lens):
        enc, enc_lens, _ = self._encode(features, lens, self._sel)
        return enc, enc_lens

    def forward_decoder(self, enc, enc_lens, tokens_in):
        pad = self._pad_mask(enc_lens, enc.shape[1])
        return self._decode(enc, pad, tokens_in, self._sel)

    def reinit_output_layers(self, rng):
        """Redraw the token output projections (decoder head and CTC head)."""
        for name in ("out.w", "out.b", "ctc.w", "ctc.b"):
            p = self.params[name]
            p.data[...] = _init_value(p.data.shape, self._init_kinds[name], rng)
