"""Architectures the tests draw: one uniform draw per group, and the
smallest choice of every group."""

from confadapt.space import DerivedArch


def sample_arch(space, rng):
    return DerivedArch({k: opts[rng.integers(len(opts))] for k, opts in space.groups()})


def minimal_arch(space):
    return DerivedArch({k: opts[0] for k, opts in space.groups()})
