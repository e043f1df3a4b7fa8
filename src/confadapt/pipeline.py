"""Pipeline stages and recipes.

The full flow mirrors a two-stage adaptation: supernet pre-training on
the source domain, architecture-weight adaptation on the target domain,
1-best extraction plus source-domain training of the derived model, and
target-domain parameter fine-tuning. Stages communicate through
checkpoints only; every emitted checkpoint carries an append-only
lineage of (stage, config, seed) entries.

Stage kinds:

- ``pretrain``: alternating optimization of shared weights (train split)
  and selection logits (heldout split) from scratch.
- ``adapt``: same loop continued from a supernet checkpoint on another
  corpus; both shared weights and logits keep updating.
- ``derive``: extract the 1-best architecture from a supernet
  checkpoint, materialize it (inherit or fresh), train it on the stage
  corpus.
- ``finetune``: continue training a derived model on the stage corpus,
  optionally reinitializing the token output projections first.

Each stage derives all of its randomness from its own seed, so a recipe
resumed at any stage boundary reproduces an uninterrupted run
bit-exactly. A checkpoint holds what the next stage reads (weights,
logits or arch, lineage), not optimizer or generator state, so a stage
killed part-way restarts from scratch.
"""

from __future__ import annotations

import time
import zlib

from dataclasses import dataclass, asdict

import numpy as np

from .checkpoint import Checkpoint, IncompatibleCheckpointError
from .data import iter_batches
from .losses import greedy_decode, hybrid_batch_loss, edit_distance
from .optim import Adam
from .search import ArchLogits, TempSchedule, alternating_step, extract
from .space import _key_str
from .supernet import ConformerSupernet, DerivedModel
from .tensor import backward


class TrainingDivergedError(RuntimeError):
    """Loss or gradient became non-finite; the last good checkpoint stays on disk."""


class RecipeError(ValueError):
    """Recipe stages are malformed or out of order."""


@dataclass
class StageConfig:
    name: str
    kind: str
    corpus: str = "source"
    epochs: int = 1
    batch_size: int = 8
    lr_weights: float = 1e-3
    lr_logits: float = 3e-3
    eta: float = 0.0
    t_start: float = 1.0
    t_end: float = 0.1
    seed: int = None
    input: str = None
    output: str = None
    init: str = "inherit"
    reinit_output: bool = False
    patience: int = None

    KINDS = ("pretrain", "adapt", "derive", "finetune")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise RecipeError(f"stage {self.name!r}: unknown kind {self.kind!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise RecipeError(f"stage {self.name!r}: bad epochs/batch_size")


def sub_seed(seed, tag):
    """Stable derived seed for a named purpose within a stage."""
    return int(np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())]).generate_state(1)[0])


# ---------------------------------------------------------------------
# tasks: model + loss wrappers the loops train
# ---------------------------------------------------------------------


class SupernetTask:
    def __init__(self, supernet):
        self.supernet = supernet

    @property
    def space(self):
        return self.supernet.space

    def named_parameters(self):
        return self.supernet.named_parameters()

    def batch_loss(self, batch, weights):
        out = self.supernet.mixed_forward(batch, weights)
        return hybrid_batch_loss(out.ctc_logprobs, out.enc_lens, out.dec_logits, batch.token_seqs)


def default_task_factory(space, seed, weights=None):
    net = ConformerSupernet(space, seed=seed)
    if weights is not None:
        _load_params(net.named_parameters(), weights)
    return SupernetTask(net)


def _load_params(params, weights):
    for name, p in params.items():
        if name not in weights:
            raise IncompatibleCheckpointError(f"checkpoint is missing parameter {name}")
        if weights[name].shape != p.data.shape:
            raise IncompatibleCheckpointError(
                f"checkpoint parameter {name}: shape {weights[name].shape} != {p.data.shape}"
            )
        p.data[...] = weights[name]


def model_from_checkpoint(ckpt):
    ckpt.require_kind("model", "model_from_checkpoint")
    return DerivedModel(ckpt.space, ckpt.arch, weights=ckpt.weights)


def logits_from_checkpoint(ckpt, eta=0.0):
    logits = ArchLogits(ckpt.space, eta=eta)
    meta = ckpt.logits_meta or {}
    if "temperature" in meta:
        logits.temperature = float(meta["temperature"])
    for key, vec in logits.groups.items():
        name = _key_str(key)
        if name not in ckpt.logits:
            raise IncompatibleCheckpointError(f"checkpoint is missing logits group {name}")
        vec.data[...] = ckpt.logits[name]
    return logits


def corpus_ter(model, utterances):
    """Corpus-level token error rate: total edit distance over total tokens."""
    err = 0
    total = 0
    for u in utterances:
        hyp = greedy_decode(model, u.features)
        err += edit_distance(hyp.ids, tuple(int(t) for t in u.tokens))
        total += len(u.tokens)
    return err / max(total, 1)


# ---------------------------------------------------------------------
# stage internals
# ---------------------------------------------------------------------


def _diverged(stage, epoch):
    return TrainingDivergedError(
        f"stage {stage!r} diverged at epoch {epoch} (non-finite loss or gradient); "
        f"last good checkpoint retained"
    )


def _supernet_checkpoint(task, logits, lineage):
    return Checkpoint(
        kind="supernet",
        space=task.space,
        weights={n: p.data.copy() for n, p in task.named_parameters().items()},
        logits={_key_str(k): v.data.copy() for k, v in logits.groups.items()},
        logits_meta={"temperature": logits.temperature},
        lineage=lineage,
    )


def _search_stage(task, logits, corpus, cfg, seed, out_path, lineage):
    train = corpus.split("train")
    held = corpus.split("heldout")
    if not train or not held:
        raise ValueError(f"stage {cfg.name!r}: corpus needs train and heldout splits")
    rng = np.random.default_rng(sub_seed(seed, "loop"))
    opt_w = Adam(task.named_parameters(), cfg.lr_weights)
    opt_l = Adam(logits.named_parameters(), cfg.lr_logits)
    sched = TempSchedule(cfg.t_start, cfg.t_end)
    history = []

    ckpt = _supernet_checkpoint(task, logits, lineage)
    ckpt.save(out_path)
    for epoch in range(cfg.epochs):
        logits.temperature = sched.value(epoch, cfg.epochs)
        held_batches = list(iter_batches(held, cfg.batch_size, rng))
        sums = np.zeros(2)
        count = 0
        for i, tb in enumerate(iter_batches(train, cfg.batch_size, rng)):
            hb = held_batches[i % len(held_batches)]
            try:
                lw, ll = alternating_step(tb, hb, task, logits, opt_w, opt_l, rng=rng)
            except FloatingPointError as exc:
                raise _diverged(cfg.name, epoch) from exc
            sums += (lw, ll)
            count += 1
        history.append({
            "epoch": epoch,
            "temperature": float(logits.temperature),
            "train_loss": float(sums[0] / count),
            "heldout_loss": float(sums[1] / count),
        })
        ckpt = _supernet_checkpoint(task, logits, lineage)
        ckpt.save(out_path)
    return ckpt, history


def _model_checkpoint(model, lineage):
    return Checkpoint(
        kind="model",
        space=model.space,
        arch=model.arch,
        weights={n: p.data.copy() for n, p in model.named_parameters().items()},
        lineage=lineage,
    )


def _train_stage(model, corpus, cfg, seed, out_path, lineage):
    train = corpus.split("train")
    if not train:
        raise ValueError(f"stage {cfg.name!r}: corpus needs a train split")
    dev = corpus.split("dev")
    rng = np.random.default_rng(sub_seed(seed, "loop"))
    opt = Adam(model.named_parameters(), cfg.lr_weights)
    history = []
    best = None  # (ter, epoch, weights)
    bad_epochs = 0

    ckpt = _model_checkpoint(model, lineage)
    ckpt.save(out_path)
    for epoch in range(cfg.epochs):
        total = 0.0
        count = 0
        for batch in iter_batches(train, cfg.batch_size, rng):
            out = model.forward(batch)
            loss = hybrid_batch_loss(
                out.ctc_logprobs, out.enc_lens, out.dec_logits, batch.token_seqs)
            if not np.isfinite(loss.item()):
                raise _diverged(cfg.name, epoch)
            backward(loss)
            try:
                opt.step()
            except FloatingPointError as exc:
                raise _diverged(cfg.name, epoch) from exc
            total += loss.item()
            count += 1
        entry = {"epoch": epoch, "train_loss": float(total / count)}
        if cfg.patience is not None and dev:
            ter = corpus_ter(model, dev)
            entry["dev_ter"] = float(ter)
            if best is None or ter < best[0]:
                best = (ter, epoch, {n: p.data.copy() for n, p in model.named_parameters().items()})
                bad_epochs = 0
            else:
                bad_epochs += 1
        history.append(entry)
        ckpt = _model_checkpoint(model, lineage)
        ckpt.save(out_path)
        if cfg.patience is not None and bad_epochs > cfg.patience:
            break
    if best is not None:
        _load_params(model.named_parameters(), best[2])
        ckpt = _model_checkpoint(model, lineage)
        ckpt.save(out_path)
    return ckpt, history


def _lineage_entry(cfg, seed):
    entry = asdict(cfg)
    entry["stage"] = entry.pop("name")
    entry["resolved_seed"] = int(seed)
    return entry


# ---------------------------------------------------------------------
# public stages
# ---------------------------------------------------------------------


def pretrain_supernet(corpus, cfg, space, out_path, seed=0, task_factory=None):
    """Train a fresh supernet on the source corpus; emit its checkpoint."""
    factory = task_factory or default_task_factory
    task = factory(space, sub_seed(seed, "init"))
    logits = ArchLogits(space, temperature=cfg.t_start, eta=cfg.eta)
    lineage = [_lineage_entry(cfg, seed)]
    return _search_stage(task, logits, corpus, cfg, seed, out_path, lineage)


def adapt_supernet(ckpt, corpus, cfg, out_path, seed=0, space=None):
    """Continue alternating optimization from a supernet checkpoint."""
    ckpt.require_kind("supernet", "adapt_supernet")
    if space is not None and space != ckpt.space:
        raise IncompatibleCheckpointError(
            "adapt_supernet: configured space differs from the checkpoint space"
        )
    task = default_task_factory(ckpt.space, sub_seed(seed, "init"), weights=ckpt.weights)
    logits = logits_from_checkpoint(ckpt, eta=cfg.eta)
    lineage = list(ckpt.lineage) + [_lineage_entry(cfg, seed)]
    return _search_stage(task, logits, corpus, cfg, seed, out_path, lineage)


def derive_model(ckpt, corpus, cfg, out_path, seed=0):
    """Extract the 1-best arch, materialize it, train it on the corpus."""
    ckpt.require_kind("supernet", "derive_model")
    supernet = ConformerSupernet(ckpt.space, seed=0)
    _load_params(supernet.named_parameters(), ckpt.weights)
    logits = logits_from_checkpoint(ckpt)
    arch = extract(logits)
    if cfg.init == "inherit":
        model = supernet.materialize(arch, init="inherit")
    else:
        model = supernet.materialize(arch, init="fresh", seed=sub_seed(seed, "fresh"))
    lineage = list(ckpt.lineage) + [_lineage_entry(cfg, seed)]
    lineage[-1]["extracted_arch"] = arch.to_json()
    return _train_stage(model, corpus, cfg, seed, out_path, lineage)


def parameter_finetune(ckpt, corpus, cfg, out_path, seed=0):
    """Standard training of all weights of a derived model on a corpus."""
    ckpt.require_kind("model", "parameter_finetune")
    model = model_from_checkpoint(ckpt)
    if cfg.reinit_output:
        model.reinit_output_layers(np.random.default_rng(sub_seed(seed, "reinit")))
    lineage = list(ckpt.lineage) + [_lineage_entry(cfg, seed)]
    return _train_stage(model, corpus, cfg, seed, out_path, lineage)


# ---------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------

_STAGE_INPUT_KIND = {"adapt": "supernet", "derive": "supernet", "finetune": "model"}


def run_recipe(stages, corpora, out_dir, space, seed=0):
    """Execute stages in order; returns per-stage metrics and checkpoint paths.

    ``corpora`` maps corpus tags (source/target) to loaded corpora. Stage
    inputs name earlier stage outputs, or point at existing checkpoint
    files (absolute/relative paths), which lets several recipes share a
    pre-trained supernet.
    """
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [st.name for st in stages]
    if len(set(names)) != len(names):
        raise RecipeError(f"stage names must be unique, got {names}")
    produced = {}
    report = {"stages": [], "checkpoints": {}}
    for cfg in stages:
        if cfg.corpus not in corpora:
            raise RecipeError(f"stage {cfg.name!r}: unknown corpus {cfg.corpus!r}")
        out_name = cfg.output or cfg.name
        out_path = out_dir / f"{out_name}.ckpt"
        # seeds key off the stage name, so the same named stage reproduces
        # bit-exactly whether run inline or shared across sweep arms
        stage_seed = cfg.seed if cfg.seed is not None else sub_seed(seed, f"stage:{cfg.name}")

        in_ckpt = None
        if cfg.kind != "pretrain":
            if cfg.input is None:
                raise RecipeError(f"stage {cfg.name!r}: kind {cfg.kind!r} requires an input")
            if cfg.input in produced:
                in_path = produced[cfg.input]
            elif Path(cfg.input).exists():
                in_path = Path(cfg.input)
            else:
                raise RecipeError(
                    f"stage {cfg.name!r}: input {cfg.input!r} is neither an earlier "
                    f"stage output nor an existing checkpoint file"
                )
            in_ckpt = Checkpoint.load(in_path)
            want = _STAGE_INPUT_KIND[cfg.kind]
            if in_ckpt.kind != want:
                raise RecipeError(
                    f"stage {cfg.name!r}: input {cfg.input!r} is a {in_ckpt.kind} "
                    f"checkpoint; kind {cfg.kind!r} requires a {want} checkpoint"
                )
            if in_ckpt.space != space:
                raise IncompatibleCheckpointError(
                    f"stage {cfg.name!r}: checkpoint space differs from the configured space"
                )

        corpus = corpora[cfg.corpus]
        t0 = time.monotonic()
        if cfg.kind == "pretrain":
            ckpt, history = pretrain_supernet(corpus, cfg, space, out_path, seed=stage_seed)
        elif cfg.kind == "adapt":
            ckpt, history = adapt_supernet(in_ckpt, corpus, cfg, out_path,
                                           seed=stage_seed, space=space)
        elif cfg.kind == "derive":
            ckpt, history = derive_model(in_ckpt, corpus, cfg, out_path, seed=stage_seed)
        else:
            ckpt, history = parameter_finetune(in_ckpt, corpus, cfg, out_path, seed=stage_seed)
        wall = time.monotonic() - t0

        produced[out_name] = out_path
        entry = {
            "name": cfg.name,
            "kind": cfg.kind,
            "corpus": cfg.corpus,
            "seed": int(stage_seed),
            "checkpoint": str(out_path),
            "wall_clock_sec": wall,
            "history": history,
        }
        if ckpt.arch is not None:
            entry["arch"] = ckpt.arch.to_json()
        report["stages"].append(entry)
        report["checkpoints"][out_name] = str(out_path)
    return report
