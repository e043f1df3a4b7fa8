"""Conformer encoder / Transformer decoder with weight-shared candidate
branches for the searchable sub-modules.

Each searchable sub-module keeps one max-size buffer per parameter and
is the only place that knows how a choice maps onto it: feed-forward
candidates take the leading hidden units of the widest matrices,
attention candidates the leading heads and head dims of the largest
projections, kernel candidates the center taps of the widest depthwise
kernel. A module has one forward entry, which takes either its mixing
weights (one tensor per group) or a concrete choice, and one ``export``,
which returns the parameter arrays a choice reads, keyed by full name.
Both go through the same slice helper, so a one-hot mixture, the direct
single-branch forward and the materialized standalone model agree
numerically.

Blocks take one selector, a mixing-weight dict or a ``DerivedArch``,
both indexed by group key. A materialized model reuses the blocks with
buffers sized to its architecture and selects with its own arch.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

NEG_FILL = -1.0e30


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
    """Registers parameters in creation order, drawing fresh values or
    taking them from a provided name -> array mapping."""

    def __init__(self, params, rng=None, source=None):
        self.params = params
        self.rng = rng
        self.source = source

    def __call__(self, name, shape, kind):
        if self.source is not None:
            if name not in self.source:
                raise KeyError(f"missing parameter {name}")
            val = np.asarray(self.source[name], dtype=np.float64)
            if val.shape != tuple(shape):
                raise ShapeError(f"parameter {name}: shape {val.shape} != expected {tuple(shape)}")
            val = val.copy()
        else:
            val = _init_value(tuple(shape), kind, self.rng)
        p = Tensor(val, requires_grad=True)
        self.params[name] = p
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
    b, t_q = q.shape[0], q.shape[1]
    t_k = k.shape[1]
    qt = q.transpose(0, 2, 1, 3)
    kt = k.transpose(0, 2, 3, 1)
    scores = (qt @ kt) * (float(head_dim) ** -0.5)
    mask = _attn_mask(b, t_q, t_k, key_pad, causal)
    if mask is not None:
        scores = T.masked_fill(scores, mask, NEG_FILL)
    attn = T.softmax(scores, axis=-1)
    ctx = attn @ v.transpose(0, 2, 1, 3)
    return ctx.transpose(0, 2, 1, 3)


# ---------------------------------------------------------------------
# searchable sub-modules
# ---------------------------------------------------------------------


def _export(prefix, names, arrays):
    """Contiguous copies of sliced parameter arrays, keyed by full name."""
    return {f"{prefix}.{n}": a.copy() for n, a in zip(names, arrays)}


class SearchableFF:
    """Macaron-style feed-forward with a searchable hidden width."""

    def __init__(self, build, prefix, d, choices, width):
        self.prefix = prefix
        self.choices = tuple(choices)
        self.width = width
        self.w1 = build(prefix + ".w1", (d, width), "xavier")
        self.b1 = build(prefix + ".b1", (width,), "zeros")
        self.w2 = build(prefix + ".w2", (width, d), "xavier")
        self.b2 = build(prefix + ".b2", (d,), "zeros")
        m = np.zeros((len(self.choices), width))
        for i, c in enumerate(self.choices):
            m[i, :c] = 1.0
        self._prefix_cols = Tensor(m)

    @staticmethod
    def _slice(fd, w1, b1, w2):
        return w1[:, :fd], b1[:fd], w2[:fd, :]

    def __call__(self, x, sel):
        """``sel``: mixing weights over ``choices`` (Tensor) or a width."""
        if isinstance(sel, Tensor):
            # sum_i lam_i * branch_i(x) collapses to one pass with per-column
            # cumulative weights, since column j feeds every branch wider than j
            h = T.swish(x @ self.w1 + self.b1)
            colw = (sel.reshape(1, -1) @ self._prefix_cols).reshape(self.width)
            return (h * colw) @ self.w2 + self.b2
        w1, b1, w2 = self._slice(sel, self.w1, self.b1, self.w2)
        return T.swish(x @ w1 + b1) @ w2 + self.b2

    def export(self, fd):
        return _export(self.prefix, ("w1", "b1", "w2"),
                       self._slice(fd, self.w1.data, self.b1.data, self.w2.data))


class SearchableAttention:
    """Multi-head attention with searchable head count and head dim."""

    _IN = ("wq", "bq", "wk", "bk", "wv", "bv")

    def __init__(self, build, prefix, d, h_choices, a_choices, h_max, a_max):
        self.prefix = prefix
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

    def _in_slice(self, w, h, a):
        # input projections (d, H*A) and their biases (H*A,): heads packed
        # on the last axis, head-major
        lead = w.shape[:-1]
        return w.reshape(*lead, self.h_max, self.a_max)[..., :h, :a].reshape(*lead, h * a)

    def _out_slice(self, wo, h, a):
        return wo.reshape(self.h_max, self.a_max, self.d)[:h, :a, :].reshape(h * a, self.d)

    def _proj_in(self, w, b, x, h, a):
        bt = x.shape[:2]
        if h != self.h_max or a != self.a_max:
            w, b = self._in_slice(w, h, a), self._in_slice(b, h, a)
        return (x @ w + b).reshape(bt[0], bt[1], h, a)

    def _proj_out(self, ctx, h, a):
        b, t_q = ctx.shape[0], ctx.shape[1]
        wo = self._out_slice(self.wo, h, a)
        return ctx.reshape(b, t_q, h * a) @ wo

    def __call__(self, x_q, x_kv, sel_h, sel_a, key_pad=None, causal=False):
        """``sel_h``, ``sel_a``: mixing weights over ``h_choices`` and
        ``a_choices`` (Tensors), or a head count and head dim."""
        if not isinstance(sel_h, Tensor):
            h, a = sel_h, sel_a
            q = self._proj_in(self.wq, self.bq, x_q, h, a)
            k = self._proj_in(self.wk, self.bk, x_kv, h, a)
            v = self._proj_in(self.wv, self.bv, x_kv, h, a)
            ctx = attn_core(q, k, v, a, key_pad, causal)
            return self._proj_out(ctx, h, a) + self.bo
        # enumerate the (heads, head dim) grid; the projections are done
        # once at full width, candidates slice heads/dims out of them
        qf = self._proj_in(self.wq, self.bq, x_q, self.h_max, self.a_max)
        kf = self._proj_in(self.wk, self.bk, x_kv, self.h_max, self.a_max)
        vf = self._proj_in(self.wv, self.bv, x_kv, self.h_max, self.a_max)
        out = None
        for ai, a in enumerate(self.a_choices):
            ctx_a = attn_core(
                qf[:, :, :, :a], kf[:, :, :, :a], vf[:, :, :, :a], a, key_pad, causal
            )
            for hi, h in enumerate(self.h_choices):
                o = self._proj_out(ctx_a[:, :, :h, :], h, a)
                term = o * (sel_h[hi] * sel_a[ai])
                out = term if out is None else out + term
        return out + self.bo

    def export(self, h, a):
        arrays = [self._in_slice(getattr(self, n).data, h, a) for n in self._IN]
        arrays.append(self._out_slice(self.wo.data, h, a))
        return _export(self.prefix, self._IN + ("wo",), arrays)


class SearchableConv:
    """Conformer convolution module with a searchable depthwise kernel."""

    def __init__(self, build, prefix, d, choices, width):
        self.prefix = prefix
        self.choices = tuple(choices)
        self.width = width
        self.pw1 = build(prefix + ".pw1", (d, 2 * d), "xavier")
        self.pb1 = build(prefix + ".pb1", (2 * d,), "zeros")
        self.dw = build(prefix + ".dw", (width, d), "kernel")
        self.db = build(prefix + ".db", (d,), "zeros")
        self.ln = _LN(build, prefix + ".ln", d)
        self.pw2 = build(prefix + ".pw2", (d, d), "xavier")
        self.pb2 = build(prefix + ".pb2", (d,), "zeros")

    def _slice(self, ck, dw):
        # center taps
        lo = (self.width - ck) // 2
        return dw[lo:lo + ck, :] if ck != self.width else dw

    def _tail(self, u, kernel):
        y = T.depthwise_conv1d(u, kernel, self.db)
        y = T.swish(self.ln(y))
        return y @ self.pw2 + self.pb2

    def __call__(self, x, sel):
        """``sel``: mixing weights over ``choices`` (Tensor) or a kernel size."""
        u = T.glu(x @ self.pw1 + self.pb1, axis=-1)
        if not isinstance(sel, Tensor):
            return self._tail(u, self._slice(sel, self.dw))
        out = None
        for ki, ck in enumerate(self.choices):
            term = self._tail(u, self._slice(ck, self.dw)) * sel[ki]
            out = term if out is None else out + term
        return out

    def export(self, ck):
        return _export(self.prefix, ("dw",), (self._slice(ck, self.dw.data),))


# ---------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------
#
# ``sel`` is a mixing-weight dict or a DerivedArch; both map group keys
# to what the searchable modules take.


class EncoderBlock:
    def __init__(self, build, space, b, size_of):
        d = space.model_dim
        p = f"enc.{b}"
        self.keys = {g: ("enc", b, g) for g in ("fd", "ah", "adim", "ck")}
        self.ln_ff1 = _LN(build, p + ".ln_ff1", d)
        self.ff1 = SearchableFF(build, p + ".ff1", d, space.ff_choices, size_of(self.keys["fd"]))
        self.ln_attn = _LN(build, p + ".ln_attn", d)
        self.attn = SearchableAttention(
            build, p + ".attn", d, space.head_choices, space.head_dim_choices,
            size_of(self.keys["ah"]), size_of(self.keys["adim"]),
        )
        self.ln_conv = _LN(build, p + ".ln_conv", d)
        self.conv = SearchableConv(
            build, p + ".conv", d, space.kernel_choices, size_of(self.keys["ck"])
        )
        self.ln_ff2 = _LN(build, p + ".ln_ff2", d)
        self.ff2 = SearchableFF(build, p + ".ff2", d, space.ff_choices, size_of(self.keys["fd"]))
        self.ln_out = _LN(build, p + ".ln_out", d)

    def forward(self, x, pad, sel):
        k = self.keys
        x = x + self.ff1(self.ln_ff1(x), sel[k["fd"]]) * 0.5
        a_in = self.ln_attn(x)
        x = x + self.attn(a_in, a_in, sel[k["ah"]], sel[k["adim"]], key_pad=pad)
        c_in = self.ln_conv(x)
        if pad is not None:
            c_in = T.masked_fill(c_in, pad[:, :, None], 0.0)
        x = x + self.conv(c_in, sel[k["ck"]])
        x = x + self.ff2(self.ln_ff2(x), sel[k["fd"]]) * 0.5
        return self.ln_out(x)

    def export(self, arch):
        k = self.keys
        return {
            **self.ff1.export(arch[k["fd"]]),
            **self.attn.export(arch[k["ah"]], arch[k["adim"]]),
            **self.conv.export(arch[k["ck"]]),
            **self.ff2.export(arch[k["fd"]]),
        }


class DecoderBlock:
    def __init__(self, build, space, b, size_of):
        d = space.model_dim
        p = f"dec.{b}"
        if space.split_decoder_attention:
            self.key_self = (("dec", b, "ah_self"), ("dec", b, "adim_self"))
            self.key_cross = (("dec", b, "ah_cross"), ("dec", b, "adim_cross"))
        else:
            self.key_self = (("dec", b, "ah"), ("dec", b, "adim"))
            self.key_cross = self.key_self
        self.key_fd = ("dec", b, "fd")
        self.ln_self = _LN(build, p + ".ln_self", d)
        self.self_attn = SearchableAttention(
            build, p + ".self_attn", d, space.head_choices, space.head_dim_choices,
            size_of(self.key_self[0]), size_of(self.key_self[1]),
        )
        self.ln_cross = _LN(build, p + ".ln_cross", d)
        self.cross_attn = SearchableAttention(
            build, p + ".cross_attn", d, space.head_choices, space.head_dim_choices,
            size_of(self.key_cross[0]), size_of(self.key_cross[1]),
        )
        self.ln_ff = _LN(build, p + ".ln_ff", d)
        self.ff = SearchableFF(build, p + ".ff", d, space.ff_choices, size_of(self.key_fd))

    def forward(self, x, enc, enc_pad, sel):
        hs, ds = self.key_self
        hc, dc = self.key_cross
        s_in = self.ln_self(x)
        x = x + self.self_attn(s_in, s_in, sel[hs], sel[ds], causal=True)
        c_in = self.ln_cross(x)
        x = x + self.cross_attn(c_in, enc, sel[hc], sel[dc], key_pad=enc_pad)
        return x + self.ff(self.ln_ff(x), sel[self.key_fd])

    def export(self, arch):
        return {
            **self.self_attn.export(*(arch[k] for k in self.key_self)),
            **self.cross_attn.export(*(arch[k] for k in self.key_cross)),
            **self.ff.export(arch[self.key_fd]),
        }


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
    """Shared structure of the supernet and materialized models."""

    def __init__(self, space, size_of, build):
        if space.model_dim % 2 != 0:
            raise ValueError("model_dim must be even (sinusoidal positions)")
        self.space = space
        d, f, v = space.model_dim, space.feat_dim, space.vocab_size
        self.front_dw1 = build("front.dw1", (3, f), "kernel")
        self.front_db1 = build("front.db1", (f,), "zeros")
        self.front_pw1 = build("front.pw1", (f, d), "xavier")
        self.front_pb1 = build("front.pb1", (d,), "zeros")
        self.front_dw2 = build("front.dw2", (3, d), "kernel")
        self.front_db2 = build("front.db2", (d,), "zeros")
        self.front_pw2 = build("front.pw2", (d, d), "xavier")
        self.front_pb2 = build("front.pb2", (d,), "zeros")
        self.enc_blocks = [EncoderBlock(build, space, b, size_of) for b in range(space.encoder_blocks)]
        self.enc_final = _LN(build, "enc.final_ln", d)
        self.ctc_w = build("ctc.w", (d, v), "xavier")
        self.ctc_b = build("ctc.b", (v,), "zeros")
        self.embed = build("dec.embed", (v, d), "embed")
        self.dec_blocks = [DecoderBlock(build, space, b, size_of) for b in range(space.decoder_blocks)]
        self.dec_final = _LN(build, "dec.final_ln", d)
        self.out_w = build("out.w", (d, v), "xavier")
        self.out_b = build("out.b", (v,), "zeros")
        self.params = build.params
        self._pos = {}

    def named_parameters(self):
        return dict(self.params)

    def _posenc(self, length):
        if length not in self._pos:
            self._pos[length] = Tensor(_sinusoid(length, self.space.model_dim))
        return self._pos[length]

    @staticmethod
    def _pad_mask(lens, t):
        return np.arange(t)[None, :] >= np.asarray(lens)[:, None]

    def _front_end(self, features, lens):
        b, t, f = features.shape
        pad = self._pad_mask(lens, t)
        x = T.masked_fill(Tensor(features), pad[:, :, None], 0.0)
        x = T.depthwise_conv1d(x, self.front_dw1, self.front_db1)
        x = T.swish(x @ self.front_pw1 + self.front_pb1)
        x = x[:, ::2, :]
        lens = (np.asarray(lens) + 1) // 2
        pad = self._pad_mask(lens, x.shape[1])
        x = T.masked_fill(x, pad[:, :, None], 0.0)
        x = T.depthwise_conv1d(x, self.front_dw2, self.front_db2)
        x = T.swish(x @ self.front_pw2 + self.front_pb2)
        x = x[:, ::2, :]
        lens = (lens + 1) // 2
        pad = self._pad_mask(lens, x.shape[1])
        x = x + self._posenc(x.shape[1])
        return x, lens, pad

    def _encode(self, features, lens, sel):
        x, enc_lens, pad = self._front_end(features, lens)
        for blk in self.enc_blocks:
            x = blk.forward(x, pad, sel)
        enc = self.enc_final(x)
        ctc_lp = T.log_softmax(enc @ self.ctc_w + self.ctc_b, axis=-1)
        return enc, enc_lens, pad, ctc_lp

    def _decode(self, enc, enc_pad, tokens_in, sel):
        d = self.space.model_dim
        x = T.embedding(self.embed, np.asarray(tokens_in)) * math.sqrt(d)
        x = x + self._posenc(x.shape[1])
        for blk in self.dec_blocks:
            x = blk.forward(x, enc, enc_pad, sel)
        return self.dec_final(x) @ self.out_w + self.out_b

    def _forward(self, features, lens, tokens_in, sel):
        features = np.asarray(features, dtype=np.float64)
        lens = np.asarray(lens)
        if features.ndim != 3:
            raise ShapeError(f"forward: features must be (B, T, F), got {features.shape}")
        if features.shape[2] != self.space.feat_dim:
            raise ShapeError(
                f"forward: feature dim {features.shape[2]} != space feat_dim {self.space.feat_dim}"
            )
        if lens.shape != (features.shape[0],) or lens.max(initial=0) > features.shape[1] or lens.min(initial=1) < 1:
            raise ShapeError(
                f"forward: lengths {lens.tolist()} do not match features of shape {features.shape}"
            )
        enc, enc_lens, pad, ctc_lp = self._encode(features, lens, sel)
        logits = self._decode(enc, pad, tokens_in, sel)
        return ForwardOut(enc=enc, enc_lens=enc_lens, ctc_logprobs=ctc_lp, dec_logits=logits)


def one_hot_weights(space, arch):
    """Exact one-hot mixing weights selecting ``arch`` in every group."""
    arch.validate(space)
    out = {}
    for key, opts in space.groups():
        lam = np.zeros(len(opts))
        lam[opts.index(arch[key])] = 1.0
        out[key] = Tensor(lam)
    return out


def _check_weights(space, weights, tol=1e-6):
    checked = {}
    for key, opts in space.groups():
        if key not in weights:
            raise ValueError(f"mixing weights missing group {key}")
        lam = weights[key] if isinstance(weights[key], Tensor) else Tensor(weights[key])
        if lam.shape != (len(opts),):
            raise ShapeError(f"mixing weights for {key}: shape {lam.shape} != ({len(opts)},)")
        s = float(lam.data.sum())
        if abs(s - 1.0) > tol or (lam.data < -tol).any():
            raise ValueError(
                f"mixing weights for {key} must be nonnegative and sum to 1 "
                f"within {tol}, got sum {s}"
            )
        checked[key] = lam
    return checked


class ConformerSupernet(_ConformerCore):
    """All candidate structures in one weight-shared model."""

    def __init__(self, space, seed=0):
        build = _Builder({}, rng=np.random.default_rng(seed))
        size_of = lambda key: max(space.group_choices(key))
        super().__init__(space, size_of, build)

    def mixed_forward(self, batch, weights):
        """Forward with every searchable sub-module mixing its branches."""
        lam = _check_weights(self.space, weights)
        return self._forward(batch.features, batch.feat_lens, batch.tokens_in, lam)

    def one_hot_forward(self, batch, arch):
        """Forward running only the branches selected by ``arch``."""
        arch.validate(self.space)
        return self._forward(batch.features, batch.feat_lens, batch.tokens_in, arch)

    def sliced_weights(self, arch):
        """Copy out the parameter subset a derived arch uses."""
        arch.validate(self.space)
        out = {name: p.data.copy() for name, p in self.params.items()}
        for blk in self.enc_blocks + self.dec_blocks:
            out.update(blk.export(arch))
        return out

    def materialize(self, arch, init="inherit", seed=None):
        """Standalone model for ``arch``, inheriting slices or drawn fresh."""
        arch.validate(self.space)
        if init == "inherit":
            return DerivedModel(self.space, arch, weights=self.sliced_weights(arch))
        if init == "fresh":
            return DerivedModel(self.space, arch, seed=0 if seed is None else seed)
        raise ValueError(f"materialize: init must be 'inherit' or 'fresh', got {init!r}")


class DerivedModel(_ConformerCore):
    """A single concrete architecture with its own parameter set."""

    def __init__(self, space, arch, weights=None, seed=None):
        arch.validate(space)
        self.arch = arch
        if weights is not None:
            build = _Builder({}, source=weights)
        else:
            build = _Builder({}, rng=np.random.default_rng(0 if seed is None else seed))
        super().__init__(space, lambda key: arch[key], build)

    def param_count(self):
        return sum(p.data.size for p in self.params.values())

    def forward(self, batch):
        return self._forward(batch.features, batch.feat_lens, batch.tokens_in, self.arch)

    def forward_encoder(self, features, lens):
        enc, enc_lens, _, ctc_lp = self._encode(features, lens, self.arch)
        return enc, enc_lens, ctc_lp

    def forward_decoder(self, enc, enc_lens, tokens_in):
        pad = self._pad_mask(enc_lens, enc.shape[1])
        return self._decode(enc, pad, tokens_in, self.arch)

    def reinit_output_layers(self, rng):
        """Redraw the token output projections (decoder head and CTC head)."""
        d, v = self.space.model_dim, self.space.vocab_size
        for name, shape, kind in (
            ("out.w", (d, v), "xavier"),
            ("out.b", (v,), "zeros"),
            ("ctc.w", (d, v), "xavier"),
            ("ctc.b", (v,), "zeros"),
        ):
            self.params[name].data[...] = _init_value(shape, kind, rng)
