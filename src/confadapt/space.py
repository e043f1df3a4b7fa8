"""Search space over block hyper-parameters, derived architectures, and
the closed-form parameter count used both for exact model sizes and for
the differentiable expected size under mixing weights.

A group key is a tuple ``(section, block, group)`` such as
``("enc", 0, "fd")``. Encoder blocks carry groups fd/ah/adim/ck, decoder
blocks fd/ah/adim (or split self/cross attention groups when enabled).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .tensor import Tensor


ENC_GROUPS = ("fd", "ah", "adim", "ck")
DEC_GROUPS_SHARED = ("fd", "ah", "adim")
DEC_GROUPS_SPLIT = ("fd", "ah_self", "adim_self", "ah_cross", "adim_cross")


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
    ff_choices: tuple = (512, 1024, 2048, 3072)
    head_choices: tuple = (2, 4, 8)
    head_dim_choices: tuple = (16, 32, 64, 96)
    kernel_choices: tuple = (3, 5, 7)
    split_decoder_attention: bool = False

    def __post_init__(self):
        for f in ("ff_choices", "head_choices", "head_dim_choices", "kernel_choices"):
            object.__setattr__(self, f, tuple(int(c) for c in getattr(self, f)))
        if self.model_dim <= 0 or self.feat_dim <= 0:
            raise ValueError("ArchSpace: model_dim and feat_dim must be positive")
        if self.encoder_blocks < 1 or self.decoder_blocks < 1:
            raise ValueError("ArchSpace: need at least one encoder and one decoder block")
        if self.vocab_size < 4:
            raise ValueError("ArchSpace: vocab must cover blank, sentinels and a token")
        _check_choices("ff_choices", self.ff_choices)
        _check_choices("head_choices", self.head_choices)
        _check_choices("head_dim_choices", self.head_dim_choices)
        _check_choices("kernel_choices", self.kernel_choices, odd=True)

    # group layout --------------------------------------------------

    def group_choices(self, key):
        _, _, group = key
        if group == "fd":
            return self.ff_choices
        if group in ("ah", "ah_self", "ah_cross"):
            return self.head_choices
        if group in ("adim", "adim_self", "adim_cross"):
            return self.head_dim_choices
        if group == "ck":
            return self.kernel_choices
        raise KeyError(f"unknown group {key}")

    def groups(self):
        """Ordered list of (key, choices) pairs for every searchable group."""
        out = []
        for b in range(self.encoder_blocks):
            for g in ENC_GROUPS:
                key = ("enc", b, g)
                out.append((key, self.group_choices(key)))
        dec_groups = DEC_GROUPS_SPLIT if self.split_decoder_attention else DEC_GROUPS_SHARED
        for b in range(self.decoder_blocks):
            for g in dec_groups:
                key = ("dec", b, g)
                out.append((key, self.group_choices(key)))
        return out

    def to_json(self):
        return asdict(self)

    @staticmethod
    def from_json(d):
        return ArchSpace(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


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
    def sample_uniform(space, rng):
        return DerivedArch({k: opts[rng.integers(len(opts))] for k, opts in space.groups()})

    @staticmethod
    def maximal(space):
        return DerivedArch({k: opts[-1] for k, opts in space.groups()})

    @staticmethod
    def minimal(space):
        return DerivedArch({k: opts[0] for k, opts in space.groups()})


# ---------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------


def _linear_params(d_in, d_out):
    # weight matrix plus bias
    return d_in * d_out + d_out


def _cost(space, val):
    """Total parameter count with per-group sizes supplied by ``val``.

    Works for exact integers (derived arch) and for expectations
    (floats or scalar tensors), since every term is linear in each
    group's size and attention is bilinear in (heads, head dim).
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
        if space.split_decoder_attention:
            ha_self = val(("dec", b, "ah_self")) * val(("dec", b, "adim_self"))
            ha_cross = val(("dec", b, "ah_cross")) * val(("dec", b, "adim_cross"))
        else:
            ha_self = val(("dec", b, "ah")) * val(("dec", b, "adim"))
            ha_cross = ha_self
        total = total + ha_self * (4 * d + 3) + d
        total = total + ha_cross * (4 * d + 3) + d
        total = total + fd * (2 * d + 1) + d
        total = total + 6 * d                                   # three norms
    return total


def param_count(space, arch):
    """Exact parameter count of the model materialized from ``arch``."""
    arch.validate(space)
    return int(_cost(space, lambda k: int(arch[k])))


def expected_param_count(space, weights):
    """Size expectation under per-group mixing weights.

    ``weights`` maps group keys to weight vectors (tensors stay on the
    tape, so the result is differentiable; plain arrays give a float).
    Attention size uses E[heads * dim] = E[heads] * E[dim], the groups
    being independent.
    """
    def val(key):
        lam = weights[key]
        opts = np.asarray(space.group_choices(key), dtype=np.float64)
        if isinstance(lam, Tensor):
            return (lam * Tensor(opts)).sum()
        return float(np.dot(np.asarray(lam, dtype=np.float64), opts))

    total = _cost(space, val)
    return total if isinstance(total, Tensor) else float(total)
