"""Workloads: the inputs a seed selects, the set-up checkpoint, the stage
each workload times, and the check of its outputs against the reference.

Importing this module imports numpy and confadapt from ``src/`` of the
checkout that holds it. Set the BLAS thread variables before that.
"""

from __future__ import annotations

import json
import math
import sys

from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from confadapt import pipeline  # noqa: E402
from confadapt.checkpoint import Checkpoint  # noqa: E402
from confadapt.data import Corpus, default_domain_pair, generate  # noqa: E402
from confadapt.pipeline import StageConfig  # noqa: E402
from confadapt.space import ArchSpace, DerivedArch  # noqa: E402
from confadapt.supernet import ConformerSupernet  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A seed selects one of this many input sets, so that every run can be
# checked against outputs recorded when the benchmark was written.
INPUT_SETS = 32

# Reference tolerances. Losses may move by float reordering (a fused op,
# a different summation order); training amplifies such differences but
# keeps them far below this. The dev TER is a ratio of token edits.
LOSS_RTOL = 1e-7
TER_ATOL = 0.01


@dataclass(frozen=True)
class Shape:
    """Model space, corpus sizes and per-workload stage configs."""

    space: ArchSpace
    source_counts: dict
    target_counts: dict
    stages: dict


# E2E_SPACE and the corpus counts of tests/conftest.py, copied so that the
# benchmark's shape stays fixed when the tests change
FULL = Shape(
    space=ArchSpace(
        model_dim=32, feat_dim=8, vocab_size=13, encoder_blocks=2, decoder_blocks=1,
        ff_choices=(32, 64), head_choices=(1, 2), head_dim_choices=(8, 16),
        kernel_choices=(3, 5),
    ),
    source_counts={"train": 160, "heldout": 16, "dev": 24, "test": 24},
    target_counts={"train": 48, "heldout": 10, "dev": 16, "test": 80},
    stages={
        # one epoch: 20 alternating steps, a checkpoint save after them
        "pretrain-source": StageConfig(
            "pretrain", "pretrain", corpus="source", epochs=1, batch_size=8,
            lr_weights=2e-3, lr_logits=3e-3, eta=0.0),
        # eight epochs of 6 steps, a checkpoint save after each epoch
        "adapt-target": StageConfig(
            "adapt", "adapt", corpus="target", epochs=8, batch_size=8,
            lr_weights=1e-3, lr_logits=3e-3, eta=9e-6),
        # patience == epochs, so the work never depends on the dev TER
        "derive-source": StageConfig(
            "derive", "derive", corpus="source", epochs=2, batch_size=8,
            lr_weights=2e-3, patience=2),
    },
)
WORKLOADS = tuple(FULL.stages)

@dataclass
class Inputs:
    slot: int
    corpora: dict
    checkpoint: Checkpoint
    stage_seed: int


def make_inputs(seed, ckpt_path, shape=FULL):
    """Corpora and the set-up supernet checkpoint for a seed.

    The checkpoint holds a freshly initialised supernet whose logits
    select ``DerivedArch.maximal``; it is written, then read back as the
    stages read their inputs.
    """
    slot = int(seed) % INPUT_SETS
    src_seed, tgt_seed, init_seed, stage_seed = (
        int(s) for s in np.random.SeedSequence(slot).generate_state(4))
    src_spec, tgt_spec = default_domain_pair(
        feat_dim=shape.space.feat_dim, vocab_tokens=10,
        source_seed=src_seed, target_seed=tgt_seed)
    corpora = {
        "source": generate(src_spec, shape.source_counts),
        "target": generate(tgt_spec, shape.target_counts),
    }
    net = ConformerSupernet(shape.space, seed=init_seed)
    maximal = DerivedArch.maximal(shape.space)
    logits = {}
    for key, opts in shape.space.groups():
        vec = np.zeros(len(opts))
        vec[opts.index(maximal[key])] = 1.0
        logits[f"{key[0]}.{key[1]}.{key[2]}"] = vec
    Checkpoint(
        kind="supernet", space=shape.space,
        weights={n: p.data.copy() for n, p in net.named_parameters().items()},
        logits=logits, logits_meta={"temperature": 1.0, "eta": 0.0},
    ).save(ckpt_path)
    return Inputs(slot, corpora, Checkpoint.load(ckpt_path), stage_seed)


def head(corpus, counts):
    """The first utterances of each named split."""
    return Corpus(corpus.domain, corpus.vocab_size, corpus.feat_dim,
                  {k: corpus.split(k)[:n] for k, n in counts.items()})


def warm_up(workload, inputs, out_path, shape=FULL):
    """One call of the workload's stage on one batch, untimed."""
    cfg = replace(shape.stages[workload], epochs=1)
    size = cfg.batch_size
    small = dict(inputs.corpora)
    small[cfg.corpus] = head(inputs.corpora[cfg.corpus], {"train": size, "heldout": size, "dev": 2})
    run_stage(cfg, replace(inputs, corpora=small), out_path)


def run_stage(cfg, inputs, out_path):
    """Call the public stage function; looked up on the module at call
    time, so a traced run reaches it through its wrapper."""
    corpus = inputs.corpora[cfg.corpus]
    seed = inputs.stage_seed
    if cfg.kind == "pretrain":
        return pipeline.pretrain_supernet(corpus, cfg, inputs.checkpoint.space, out_path, seed=seed)
    if cfg.kind == "adapt":
        return pipeline.adapt_supernet(inputs.checkpoint, corpus, cfg, out_path, seed=seed)
    return pipeline.derive_model(inputs.checkpoint, corpus, cfg, out_path, seed=seed)


def train_utterances(cfg, inputs, history):
    """Training utterances a stage call consumed."""
    return len(history) * len(inputs.corpora[cfg.corpus].split("train"))


# ---------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def check_history(history, expected):
    """Problems found comparing a stage history with its reference."""
    if len(history) != len(expected):
        return [f"{len(history)} epochs, reference has {len(expected)}"]
    problems = []
    for got, want in zip(history, expected):
        if set(got) != set(want):
            problems.append(f"epoch {want['epoch']}: keys {sorted(got)} != {sorted(want)}")
            continue
        for key, ref in want.items():
            val = got[key]
            if key == "dev_ter":
                ok = abs(val - ref) <= TER_ATOL
            elif key == "epoch":
                ok = val == ref
            else:
                ok = math.isfinite(val) and abs(val - ref) <= LOSS_RTOL * abs(ref)
            if not ok:
                problems.append(f"epoch {want['epoch']}: {key} {val!r} != reference {ref!r}")
    return problems


def check_checkpoint(ckpt, path):
    """Problems found reloading the emitted checkpoint."""
    loaded = Checkpoint.load(path)
    problems = []
    if loaded.kind != ckpt.kind:
        problems.append(f"reloaded kind {loaded.kind!r} != {ckpt.kind!r}")
    if set(loaded.weights) != set(ckpt.weights):
        problems.append("reloaded parameter names differ")
    elif any(not np.array_equal(loaded.weights[n], w) for n, w in ckpt.weights.items()):
        problems.append("reloaded weights differ from the stage result")
    return problems
