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

``StageConfig.KINDS`` is the one table of what each kind reads and
writes: its input and output checkpoint kinds, the settings it reads
and the corpus splits it needs. Every kind runs through one epoch loop
and supplies only its step and its epoch end, which keeps the epoch or
not, then stops or not. A kept epoch is saved and becomes the stage's
result, so the file on disk is always the checkpoint the stage would
return if it stopped now. Search kinds, and train kinds without
``patience``, keep every epoch; with ``patience`` a kind keeps an epoch
only when its dev TER improves. ``check_recipe`` refuses a recipe that
cannot run to its end before its first stage runs.

Each stage derives all of its randomness from its own seed, so a recipe
resumed at any stage boundary reproduces an uninterrupted run
bit-exactly. A checkpoint holds what the next stage reads (weights,
logits or arch, lineage), not optimizer or generator state, so a stage
killed part-way restarts from scratch. The search temperature is not
state: each epoch's value comes from ``StageConfig.temperature``, and the
value a supernet file records is never read back.
"""

from __future__ import annotations

import itertools
import math
import time
import zlib

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, IncompatibleCheckpointError
from .data import iter_batches
from .losses import greedy_decode, edit_distance
from .optim import Adam
from .search import ArchLogits, alternating_step, extract
from .space import _key_str
from .supernet import ConformerSupernet, DerivedModel
from .tensor import backward


class TrainingDivergedError(RuntimeError):
    """Loss or gradient became non-finite; the last good checkpoint stays on disk."""


class RecipeError(ValueError):
    """A recipe setting is malformed, or stages are out of order. ``key``
    names the offending setting, and ``stage`` the stage's index once
    ``check_recipe`` has found it."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
        self.stage = None


class StageInputError(RecipeError, IncompatibleCheckpointError):
    """A stage's input checkpoint does not fit the stage."""


@dataclass(frozen=True)
class StageKind:
    """What a stage kind reads and writes."""

    input: str | None  # the checkpoint kind it starts from; None: from scratch
    output: str  # the checkpoint kind it writes
    settings: tuple  # the StageConfig fields it reads besides SHARED and input
    splits: dict  # each corpus split it reads -> the setting that makes it read it


# the search kinds' own settings, and the splits each family of kinds reads;
# a split maps to the setting that makes a stage read it (every stage has a corpus)
_SEARCH = ("lr_logits", "eta", "t_start", "t_end")
_SEARCH_SPLITS = {"train": "corpus", "heldout": "corpus"}
_TRAIN_SPLITS = {"train": "corpus", "dev": "patience"}


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
    seed: int | None = None
    input: str | None = None
    output: str | None = None
    init: str = "inherit"
    reinit_output: bool = False
    patience: int | None = None

    # the fields every kind reads
    SHARED = ("name", "kind", "corpus", "epochs", "batch_size", "lr_weights", "seed", "output")
    KINDS = {
        "pretrain": StageKind(None, "supernet", _SEARCH, _SEARCH_SPLITS),
        "adapt": StageKind("supernet", "supernet", _SEARCH, _SEARCH_SPLITS),
        "derive": StageKind("supernet", "model", ("init", "patience"), _TRAIN_SPLITS),
        "finetune": StageKind("model", "model", ("reinit_output", "patience"), _TRAIN_SPLITS),
    }
    INITS = ("inherit", "fresh")

    def __post_init__(self):
        def refuse(key, message):
            raise RecipeError(f"stage {self.name!r}: {message}", key)

        if self.kind not in self.KINDS:
            refuse("kind", f"unknown kind {self.kind!r}")
        for field, least in (("epochs", 0), ("batch_size", 1), ("patience", 0), ("seed", 0)):
            v = getattr(self, field)
            if v is not None and v < least:
                refuse(field, f"{field} must be >= {least}, got {v!r}")
        for field in ("lr_weights", "lr_logits"):
            if not 0 < getattr(self, field) < math.inf:
                refuse(field, f"{field} must be finite and positive, got {getattr(self, field)!r}")
        if self.init not in self.INITS:
            refuse("init", f"init must be one of {self.INITS}, got {self.init!r}")
        if not self.eta >= 0:
            refuse("eta", f"eta must be nonnegative, got {self.eta}")
        if not self.t_start < math.inf:
            refuse("t_start", f"t_start must be finite, got {self.t_start}")
        if not self.t_start >= self.t_end > 0:
            refuse("t_end", f"need t_start >= t_end > 0, got {self.t_start} and {self.t_end}")

    def temperature(self, epoch):
        """Gumbel-Softmax temperature of ``epoch``: exponential decay from
        ``t_start`` at the first epoch to ``t_end`` at the last."""
        if self.epochs <= 1:
            return self.t_end
        return float(self.t_start * (self.t_end / self.t_start) ** (epoch / (self.epochs - 1)))

    @classmethod
    def keys(cls, kind):
        """The fields a stage of ``kind`` reads; none for an unknown kind."""
        k = cls.KINDS.get(kind)
        if k is None:
            return ()
        if k.input is None:
            return cls.SHARED + k.settings
        return cls.SHARED + ("input",) + k.settings

    def check_splits(self, corpus):
        """Refuse a corpus that lacks a split this stage reads."""
        for split, setting in self.KINDS[self.kind].splits.items():
            if getattr(self, setting) is not None and not corpus.split(split):
                raise RecipeError(f"stage {self.name!r}: {setting} needs a {split} split, "
                                  f"and corpus {self.corpus!r} has none", setting)


def sub_seed(seed, tag):
    """Stable derived seed for a named purpose within a stage."""
    return int(np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())]).generate_state(1)[0])


# ---------------------------------------------------------------------
# models from checkpoints, and their error rates
# ---------------------------------------------------------------------


def supernet_from_checkpoint(ckpt):
    ckpt.require_kind("supernet", "supernet_from_checkpoint")
    return ConformerSupernet(ckpt.space, weights=ckpt.weights)


def model_from_checkpoint(ckpt):
    ckpt.require_kind("model", "model_from_checkpoint")
    return DerivedModel(ckpt.space, ckpt.arch, weights=ckpt.weights)


def logits_from_checkpoint(ckpt, eta=0.0):
    logits = ArchLogits(ckpt.space, eta=eta)
    for key, vec in logits.groups.items():
        vec.data[...] = ckpt.logits[_key_str(key)]
    return logits


def utterance_errors(model, utterances):
    """(edit distance, reference length) of each utterance's greedy decode."""
    out = []
    for u in utterances:
        hyp = greedy_decode(model, u.features)
        out.append((edit_distance(hyp.ids, tuple(int(t) for t in u.tokens)), len(u.tokens)))
    return out


def error_rate(errors):
    """Corpus-level token error rate of (edits, tokens) pairs: total over total."""
    return sum(e for e, _ in errors) / max(sum(n for _, n in errors), 1)


def corpus_ter(model, utterances):
    """Corpus-level token error rate: total edit distance over total tokens."""
    return error_rate(utterance_errors(model, utterances))


# ---------------------------------------------------------------------
# stage internals
# ---------------------------------------------------------------------


def _diverged(stage, epoch):
    return TrainingDivergedError(
        f"stage {stage!r} diverged at epoch {epoch} (non-finite loss or gradient); "
        f"last good checkpoint retained"
    )


def _epoch_loop(cfg, corpus, seed, out_path, snapshot, begin, end):
    """Run a stage's epochs; return the kept checkpoint and the history.

    The kind supplies ``snapshot(epoch)``, its checkpoint once ``epoch`` is
    done (epoch 0 also before the first epoch); ``begin(epoch,
    rng)``, the epoch's step (a train batch in, a tuple of losses out);
    and ``end(epoch, mean_losses)``, the history entry and whether to keep
    the epoch and to stop. A kept epoch is saved and returned, so the file
    on disk is always the checkpoint the stage would return if it stopped
    now. A step raises ``FloatingPointError`` on a non-finite loss or gradient.
    """
    cfg.check_splits(corpus)
    rng = np.random.default_rng(sub_seed(seed, "loop"))
    kept = snapshot(0)
    kept.save(out_path)
    history = []
    for epoch in range(cfg.epochs):
        step = begin(epoch, rng)
        sums, count = 0.0, 0
        try:
            for batch in iter_batches(corpus.split("train"), cfg.batch_size, rng):
                sums = sums + np.asarray(step(batch))
                count += 1
        except FloatingPointError as exc:
            raise _diverged(cfg.name, epoch) from exc
        entry, keep, stop = end(epoch, sums / count)
        history.append(entry)
        if keep:
            kept = snapshot(epoch)
            kept.save(out_path)
        if stop:
            break
    return kept, history


def _search_stage(task, logits, corpus, cfg, seed, out_path, lineage):
    """Pretrain and adapt: alternating steps of the shared weights on train
    batches and of the logits on held-out batches, at the epoch's
    ``cfg.temperature``. Every epoch is kept, and records the temperature
    it ran at; a file written before the first epoch records the first
    epoch's."""
    opt_w = Adam(task.named_parameters(), cfg.lr_weights)
    opt_l = Adam(logits.named_parameters(), cfg.lr_logits)

    def snapshot(epoch):
        return Checkpoint(kind="supernet", space=task.space, lineage=lineage,
                          weights={n: p.data.copy() for n, p in task.named_parameters().items()},
                          logits={_key_str(k): v.data.copy() for k, v in logits.groups.items()},
                          logits_meta={"temperature": cfg.temperature(epoch)})

    def begin(epoch, rng):
        t = cfg.temperature(epoch)
        # drawn before the loop shuffles the train split with the same rng
        held = itertools.cycle(list(iter_batches(corpus.split("heldout"), cfg.batch_size, rng)))
        return lambda tb: alternating_step(tb, next(held), task, logits, opt_w, opt_l, rng, t)

    def end(epoch, means):
        return {"epoch": epoch, "temperature": float(cfg.temperature(epoch)),
                "train_loss": float(means[0]), "heldout_loss": float(means[1])}, True, False

    return _epoch_loop(cfg, corpus, seed, out_path, snapshot, begin, end)


def _train_stage(model, corpus, cfg, seed, out_path, lineage):
    """Derive and finetune: plain steps on train batches. Without
    ``patience`` every epoch is kept. With it, an epoch is kept only when
    its dev TER improves, and the stage stops after more than ``patience``
    epochs in a row without improvement."""
    opt = Adam(model.named_parameters(), cfg.lr_weights)
    best, bad_epochs = math.inf, 0

    def snapshot(epoch):
        return Checkpoint(kind="model", space=model.space, arch=model.arch, lineage=lineage,
                          weights={n: p.data.copy() for n, p in model.named_parameters().items()})

    def step(batch):
        loss = model.batch_loss(batch)
        if not np.isfinite(loss.item()):  # before backward: a poisoned batch updates nothing
            raise FloatingPointError("non-finite training loss")
        backward(loss)
        opt.step()
        return (loss.item(),)

    def end(epoch, means):
        nonlocal best, bad_epochs
        entry = {"epoch": epoch, "train_loss": float(means[0])}
        if cfg.patience is None:
            return entry, True, False
        entry["dev_ter"] = ter = float(corpus_ter(model, corpus.split("dev")))
        best, bad_epochs = (ter, 0) if ter < best else (best, bad_epochs + 1)
        return entry, bad_epochs == 0, bad_epochs > cfg.patience

    return _epoch_loop(cfg, corpus, seed, out_path, snapshot, lambda epoch, rng: step, end)


def _lineage_entry(cfg, seed):
    entry = asdict(cfg)
    entry["stage"] = entry.pop("name")
    entry["resolved_seed"] = int(seed)
    return entry


# ---------------------------------------------------------------------
# public stages
# ---------------------------------------------------------------------


def pretrain_supernet(corpus, cfg, space, out_path, seed=0):
    """Train a fresh supernet on the source corpus; emit its checkpoint."""
    net = ConformerSupernet(space, seed=sub_seed(seed, "init"))
    logits = ArchLogits(space, eta=cfg.eta)
    lineage = [_lineage_entry(cfg, seed)]
    return _search_stage(net, logits, corpus, cfg, seed, out_path, lineage)


def adapt_supernet(ckpt, corpus, cfg, out_path, seed=0):
    """Continue alternating optimization from a supernet checkpoint."""
    net = supernet_from_checkpoint(ckpt)
    logits = logits_from_checkpoint(ckpt, eta=cfg.eta)
    lineage = list(ckpt.lineage) + [_lineage_entry(cfg, seed)]
    return _search_stage(net, logits, corpus, cfg, seed, out_path, lineage)


def derive_model(ckpt, corpus, cfg, out_path, seed=0):
    """Extract the 1-best arch, materialize it, train it on the corpus."""
    supernet = supernet_from_checkpoint(ckpt)
    arch = extract(logits_from_checkpoint(ckpt))
    model = supernet.materialize(arch, init=cfg.init, seed=sub_seed(seed, "fresh"))
    lineage = list(ckpt.lineage) + [_lineage_entry(cfg, seed)]
    lineage[-1]["extracted_arch"] = arch.to_json()
    return _train_stage(model, corpus, cfg, seed, out_path, lineage)


def parameter_finetune(ckpt, corpus, cfg, out_path, seed=0):
    """Standard training of all weights of a derived model on a corpus."""
    model = model_from_checkpoint(ckpt)
    if cfg.reinit_output:
        model.reinit_output_layers(np.random.default_rng(sub_seed(seed, "reinit")))
    lineage = list(ckpt.lineage) + [_lineage_entry(cfg, seed)]
    return _train_stage(model, corpus, cfg, seed, out_path, lineage)


# ---------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------


def check_recipe(stages, corpora, space):
    """Refuse a recipe that cannot run to its end, before its first stage runs.

    Each stage needs a unique name and output, a known corpus with the
    splits the stage reads, and, unless it starts from scratch, an input:
    an earlier stage's output or a checkpoint file, of the checkpoint kind
    the stage reads and, for a file, of the configured space. A refusal
    is a ``RecipeError`` naming the stage's index and setting; an input
    that does not fit is a ``StageInputError``.
    """
    names, made = set(), {}  # made: each earlier output -> its checkpoint kind
    for i, cfg in enumerate(stages):
        out_name = cfg.output or cfg.name
        try:
            if cfg.name in names:
                raise RecipeError(f"stage names must be unique, got {cfg.name!r} twice", "name")
            if out_name in made:
                raise RecipeError(f"stage outputs must be unique, got {out_name!r} twice",
                                  "output")
            if cfg.corpus not in corpora:
                raise RecipeError(f"stage {cfg.name!r}: unknown corpus {cfg.corpus!r}", "corpus")
            cfg.check_splits(corpora[cfg.corpus])
            _check_input(cfg, made, space)
        except RecipeError as exc:
            exc.stage = i
            raise
        names.add(cfg.name)
        made[out_name] = StageConfig.KINDS[cfg.kind].output


def _check_input(cfg, made, space):
    want = StageConfig.KINDS[cfg.kind].input
    if want is None:
        return
    if cfg.input is None:
        raise RecipeError(f"stage {cfg.name!r}: kind {cfg.kind!r} requires an input", "input")
    if cfg.input in made:
        got = made[cfg.input]
    elif Path(cfg.input).is_file():
        try:
            ckpt = Checkpoint.load(cfg.input)
        except IncompatibleCheckpointError as exc:
            raise StageInputError(f"stage {cfg.name!r}: {exc}", "input") from exc
        if ckpt.space != space:
            raise StageInputError(f"stage {cfg.name!r}: checkpoint space differs from the "
                                  f"configured space", "input")
        got = ckpt.kind
    else:
        raise RecipeError(f"stage {cfg.name!r}: input {cfg.input!r} is neither an earlier "
                          f"stage output nor an existing checkpoint file", "input")
    if got != want:
        raise StageInputError(f"stage {cfg.name!r}: input {cfg.input!r} is a {got} checkpoint; "
                              f"kind {cfg.kind!r} requires a {want} checkpoint", "input")


def run_recipe(stages, corpora, out_dir, space, seed=0):
    """Execute stages in order; returns per-stage metrics and checkpoint paths.

    ``corpora`` maps corpus tags (source/target) to loaded corpora. Stage
    inputs name earlier stage outputs, or point at existing checkpoint
    files (absolute/relative paths), which lets several recipes share a
    pre-trained supernet. ``check_recipe`` checks the whole recipe first.
    """
    check_recipe(stages, corpora, space)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"stages": [], "checkpoints": {}}
    for cfg in stages:
        out_name = cfg.output or cfg.name
        out_path = out_dir / f"{out_name}.ckpt"
        # seeds key off the stage name, so the same named stage reproduces
        # bit-exactly whether run inline or shared across sweep arms
        stage_seed = cfg.seed if cfg.seed is not None else sub_seed(seed, f"stage:{cfg.name}")
        corpus = corpora[cfg.corpus]
        t0 = time.monotonic()
        if StageConfig.KINDS[cfg.kind].input is None:
            ckpt, history = pretrain_supernet(corpus, cfg, space, out_path, seed=stage_seed)
        else:
            stage = {"adapt": adapt_supernet, "derive": derive_model,
                     "finetune": parameter_finetune}[cfg.kind]
            in_ckpt = Checkpoint.load(report["checkpoints"].get(cfg.input, cfg.input))
            ckpt, history = stage(in_ckpt, corpus, cfg, out_path, seed=stage_seed)
        wall = time.monotonic() - t0

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
