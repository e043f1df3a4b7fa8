"""Search space over block hyper-parameters, derived architectures, and
the closed-form parameter count used both for exact model sizes and for
the differentiable expected size under mixing weights.

A group key is a tuple ``(section, block, group)`` such as
``("enc", 0, "fd")``. Only ``ArchSpace`` knows a block's groups: encoder
blocks fd/ah/adim/ck, decoder blocks fd/ah/adim or split self/cross ones.

The mixing weights of all groups travel as one flat vector in
``groups()`` order (``GroupWeights``), laid out by ``ArchSpace.layout``.
The expected size reads that vector in one recorded op.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

from . import tensor as T


_ENC_GROUPS = ("fd", "ah", "adim", "ck")
_DEC_GROUPS_SHARED = ("fd", "ah", "adim")
# attention_keys reads each block's attention groups in this order, self before cross
_DEC_GROUPS_SPLIT = ("fd", "ah_self", "adim_self", "ah_cross", "adim_cross")
# the ArchSpace field that lists each group's choices
_GROUP_CHOICES = {
    "fd": "ff_choices", "ck": "kernel_choices",
    "ah": "head_choices", "ah_self": "head_choices", "ah_cross": "head_choices",
    "adim": "head_dim_choices", "adim_self": "head_dim_choices", "adim_cross": "head_dim_choices",
}


def _check_choices(name, choices, odd=False):
    if len(choices) == 0:
        raise ValueError(f"ArchSpace: {name} must be nonempty")
    if any(int(c) != c or c <= 0 for c in choices):
        raise ValueError(f"ArchSpace: {name} must hold positive integers, got {choices}")
    if list(choices) != sorted(set(choices)):
        raise ValueError(f"ArchSpace: {name} must be strictly increasing, got {choices}")
    if odd and any(c % 2 == 0 for c in choices):
        raise ValueError(f"ArchSpace: {name} entries must be odd, got {choices}")


@dataclass(frozen=True)
class ArchSpace:
    model_dim: int = 256
    feat_dim: int = 16
    vocab_size: int = 32
    encoder_blocks: int = 12
    decoder_blocks: int = 6
    ff_choices: tuple[int, ...] = (512, 1024, 2048, 3072)
    head_choices: tuple[int, ...] = (2, 4, 8)
    head_dim_choices: tuple[int, ...] = (16, 32, 64, 96)
    kernel_choices: tuple[int, ...] = (3, 5, 7)
    split_decoder_attention: bool = False

    def __post_init__(self):
        if self.model_dim <= 0 or self.feat_dim <= 0:
            raise ValueError("ArchSpace: model_dim and feat_dim must be positive")
        if self.model_dim % 2 != 0:
            raise ValueError("ArchSpace: model_dim must be even (sinusoidal positions)")
        if self.encoder_blocks < 1 or self.decoder_blocks < 1:
            raise ValueError("ArchSpace: need at least one encoder and one decoder block")
        if self.vocab_size < 4:
            raise ValueError("ArchSpace: vocab must cover blank, sentinels and a token")
        # checked before the tuple of ints is stored, so 8.5 is refused, not truncated
        for f in ("ff_choices", "head_choices", "head_dim_choices", "kernel_choices"):
            _check_choices(f, getattr(self, f), odd=f == "kernel_choices")
            object.__setattr__(self, f, tuple(int(c) for c in getattr(self, f)))

    # group layout --------------------------------------------------

    def group_choices(self, key):
        return getattr(self, _GROUP_CHOICES[key[2]])

    def block_groups(self, section):
        """Group names of an encoder (``"enc"``) or decoder (``"dec"``) block."""
        if section == "enc":
            return _ENC_GROUPS
        return _DEC_GROUPS_SPLIT if self.split_decoder_attention else _DEC_GROUPS_SHARED

    def attention_keys(self, b):
        """The (heads, head dim) keys that decoder block ``b``'s self- and
        cross-attention read; without split attention both are one pair."""
        keys = [("dec", b, g) for g in self.block_groups("dec") if g != "fd"]
        return tuple(keys[:2]), tuple(keys[-2:])

    def groups(self):
        """Ordered list of (key, choices) pairs for every searchable group."""
        out = []
        for section, blocks in (("enc", self.encoder_blocks), ("dec", self.decoder_blocks)):
            names = self.block_groups(section)
            for b in range(blocks):
                for g in names:
                    out.append(((section, b, g), getattr(self, _GROUP_CHOICES[g])))
        return out

    @cached_property
    def layout(self):
        """Where each group's weights sit in one flat vector (``GroupLayout``)."""
        return GroupLayout(self)

    @cached_property
    def _size_terms(self):
        return _SizeTerms(self)

    def to_json(self):
        return asdict(self)

    @staticmethod
    def from_json(d):
        return ArchSpace(**d)


class GroupLayout:
    """The groups of a space laid out in one flat vector, in ``groups()``
    order, and as the rows of a (groups, widest group) array.

    ``spans`` maps each key to its slice of the flat vector. ``padded``
    puts a flat vector into the rows, filling the right of each row, and
    ``flat`` reads it back. A row reduction adds a group's entries in the
    order numpy adds the group's own vector, then the padding, so below
    8 candidates per group it gives that vector's bits.
    """

    def __init__(self, space):
        groups = space.groups()
        self.keys = tuple(key for key, _ in groups)
        sizes = [len(choices) for _, choices in groups]
        width = max(sizes)
        self.spans, self.row = {}, {}
        pos, start = [], 0
        for i, (key, n) in enumerate(zip(self.keys, sizes)):
            self.spans[key] = slice(start, start + n)
            self.row[key] = i
            pos.extend(range(i * width, i * width + n))
            start += n
        self.size = start
        self._shape = (len(groups), width)
        self._pos = np.array(pos)
        # each candidate's size, the expected size's per-group factors
        self.choices = self.padded(
            np.concatenate([np.asarray(c, dtype=np.float64) for _, c in groups]), 0.0)

    def padded(self, flat, fill):
        out = np.full(self._shape, fill)
        out.ravel()[self._pos] = flat
        return out

    def flat(self, rows):
        return rows.ravel()[self._pos]


class GroupWeights:
    """Mixing weights of every group of ``space`` as one flat Tensor,
    ``flat``, laid out by ``space.layout``; ``flat`` must have shape
    ``(space.layout.size,)``.

    ``weights[key]`` reads one group's vector as a recorded slice of
    ``flat``. Code that takes every group at once (the supernet's column
    weights, the expected size) reads ``flat`` and records no node per
    group.
    """

    def __init__(self, space, flat):
        if flat.shape != (space.layout.size,):
            raise T.ShapeError(
                f"GroupWeights: flat shape {flat.shape} != ({space.layout.size},)")
        self.space = space
        self.flat = flat

    def __getitem__(self, key):
        return self.flat[self.space.layout.spans[key]]


def flat_weights(space, weights):
    """The flat Tensor of ``weights``, a ``GroupWeights`` of ``space``;
    anything else raises ``TypeError``."""
    if isinstance(weights, GroupWeights) and weights.space == space:
        return weights.flat
    got = ("a GroupWeights of another space" if isinstance(weights, GroupWeights)
           else type(weights).__name__)
    raise TypeError(f"mixing weights must be a GroupWeights of this space, got {got}")


def _key_str(key):
    return f"{key[0]}.{key[1]}.{key[2]}"


def _key_parse(s):
    sec, blk, grp = s.split(".")
    return (sec, int(blk), grp)


@dataclass(frozen=True)
class DerivedArch:
    """One concrete choice per searchable group."""

    choices: dict

    def __post_init__(self):
        object.__setattr__(self, "choices", dict(self.choices))

    def __getitem__(self, key):
        return self.choices[key]

    def validate(self, space):
        expect = {k for k, _ in space.groups()}
        got = set(self.choices)
        if expect != got:
            missing = sorted(map(_key_str, expect - got))
            extra = sorted(map(_key_str, got - expect))
            raise ValueError(f"DerivedArch: group mismatch (missing {missing}, extra {extra})")
        for key, opts in space.groups():
            if self.choices[key] not in opts:
                raise ValueError(
                    f"DerivedArch: choice {self.choices[key]} for {_key_str(key)} "
                    f"not in {opts}"
                )

    def to_json(self):
        return {_key_str(k): int(v) for k, v in self.choices.items()}

    @staticmethod
    def from_json(d):
        return DerivedArch({_key_parse(k): int(v) for k, v in d.items()})

    @staticmethod
    def maximal(space):
        return DerivedArch({k: opts[-1] for k, opts in space.groups()})


# ---------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------


def _linear_params(d_in, d_out):
    # weight matrix plus bias
    return d_in * d_out + d_out


def _cost(space, val):
    """Total parameter count with per-group sizes supplied by ``val``.

    Works for exact integers (derived arch) and for expectations
    (scalar tensors), since every term is linear in each group's size
    and attention is bilinear in (heads, head dim).
    """
    d, f, v = space.model_dim, space.feat_dim, space.vocab_size
    front = (3 * f + f) + _linear_params(f, d) + (3 * d + d) + _linear_params(d, d)
    total = front + 2 * d  # front-end plus encoder final norm
    total += _linear_params(d, v)  # ctc head
    total += v * d + _linear_params(d, v) + 2 * d  # embedding, output head, decoder final norm

    for b in range(space.encoder_blocks):
        fd = val(("enc", b, "fd"))
        ha = val(("enc", b, "ah")) * val(("enc", b, "adim"))
        ck = val(("enc", b, "ck"))
        total = total + 2 * (fd * (2 * d + 1)) + 2 * d          # two macaron FFNs
        total = total + ha * (4 * d + 3) + d                    # self-attention
        total = total + ck * d + (3 * d * d + 4 * d)            # conv module
        total = total + 12 * d                                  # six norms

    for b in range(space.decoder_blocks):
        fd = val(("dec", b, "fd"))
        (hs, ds), (hc, dc) = space.attention_keys(b)
        ha_self = val(hs) * val(ds)
        # shared attention groups reuse one product (one term on the tape)
        ha_cross = ha_self if (hc, dc) == (hs, ds) else val(hc) * val(dc)
        total = total + ha_self * (4 * d + 3) + d
        total = total + ha_cross * (4 * d + 3) + d
        total = total + fd * (2 * d + 1) + d
        total = total + 6 * d                                   # three norms
    return total


def param_count(space, arch):
    """Exact parameter count of the model materialized from ``arch``."""
    arch.validate(space)
    return int(_cost(space, lambda k: int(arch[k])))


class _Poly:
    """A polynomial in the group sizes with integer coefficients, as
    {tuple of group rows: coefficient}. ``_cost`` run on one per group
    gives its own terms exactly."""

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def of(x):
        return x if isinstance(x, _Poly) else _Poly({(): x})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in _Poly.of(other).terms.items():
            out[mono] = out.get(mono, 0) + c
        return _Poly(out)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in _Poly.of(other).terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0) + c1 * c2
        return _Poly(out)

    __radd__ = __add__
    __rmul__ = __mul__


class _SizeTerms:
    """The linear and pairwise terms of ``_cost`` in the group sizes, for
    the gradient of the expected size: one coefficient per group, and one
    per pair (attention's heads times head dim)."""

    def __init__(self, space):
        row = space.layout.row
        terms = _cost(space, lambda k: _Poly({(row[k],): 1})).terms
        self.linear = np.zeros(len(row))
        pairs = [(m, c) for m, c in terms.items() if len(m) == 2]
        for mono, c in terms.items():
            if len(mono) == 1:
                self.linear[mono[0]] = c
        self.left = np.array([m[0] for m, _ in pairs], dtype=np.intp)
        self.right = np.array([m[1] for m, _ in pairs], dtype=np.intp)
        self.pair = np.array([c for _, c in pairs], dtype=np.float64)

    def gradient(self, e, g):
        """d(g * size)/d(expected size) per group at expected sizes ``e``,
        each product in the order the tape version of ``_cost`` takes it."""
        out = g * self.linear
        gp = g * self.pair
        np.add.at(out, self.left, gp * e[self.right])
        np.add.at(out, self.right, gp * e[self.left])
        return out


def expected_param_count(space, weights):
    """Size expectation under per-group mixing weights, as a scalar Tensor
    recorded as one op.

    ``weights`` is a ``GroupWeights`` of ``space``; the result is on its
    tape, so it is differentiable. Attention size uses
    E[heads * dim] = E[heads] * E[dim], the groups being independent.
    The value is ``_cost`` of each group's expected size; the gradient is
    closed form, since ``_cost`` is linear in each group's size and
    bilinear in attention's (heads, head dim).
    """
    flat = flat_weights(space, weights)
    lay = space.layout
    e = (lay.padded(flat.data, 0.0) * lay.choices).sum(axis=1)
    expect = e.tolist()
    data = np.asarray(float(_cost(space, lambda k: expect[lay.row[k]])))

    def bw(g):
        if flat.requires_grad:
            de = space._size_terms.gradient(e, g)
            T._accumulate(flat, lay.flat(de[:, None] * lay.choices))

    return T._from_op(data, (flat,), bw)
