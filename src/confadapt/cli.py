"""Command-line entry point.

Subcommands: ``gen-data`` (write the synthetic corpora), ``run``
(execute a recipe and evaluate the configured systems), ``evaluate``
(regenerate an evaluation report from a checkpoint), ``dump-arch``
(print per-block hyper-parameter choices), ``sweep`` (one recipe run
per penalty factor, shared pre-training).

Configuration is one declarative JSON file with explicit schema
versioning, read by one rule: ``RunConfig`` and the dataclasses its
fields name are the schema, each field's annotation is the JSON type it
takes (a bool is not a number), and each class's constructor checks
ranges. ``--set path=value`` writes one JSON scalar at a dotted path
(list indices allowed, e.g. ``--set stages.0.epochs=3``) as if the file
held the value there; the reader checks it like any value in the file,
so the path may name a field the file leaves at its default. Scalars
only: an object or a list value is refused.

Exit codes: 0 success, 2 invalid configuration, 3 missing checkpoint,
1 other failures. Errors also emit one machine-parsable JSON record on
stderr. An invalid configuration exits 2 before any stage runs: a file
that is not readable JSON, an unknown, missing or unread key, a value
of the wrong type or range (an odd ``space.model_dim`` included), a
``--set`` path that names no field, a space or split that the corpora
do not have, a recipe that ``pipeline.check_recipe`` refuses, a system
checkpoint that no stage writes as a model and that is no model file of
the configured space, or a sweep with no penalty factor. The
record's ``field`` names the value: ``config.space.model_dim``, a field
in a list of objects ``config.stages.<index>.<key>``, an element of a
list of scalars the list (``config.sweep.eta``), a map value
``config.data.source.counts.train``.
"""

from __future__ import annotations

import argparse
import json
import sys

from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .checkpoint import Checkpoint
from .data import Corpus, DomainSpec, generate
from .pipeline import (RecipeError, StageConfig, check_checkpoint, check_recipe,
                       logits_from_checkpoint, run_recipe)
from .report import (
    arch_table,
    evaluation_report,
    render_report,
    sweep as run_sweep,
    system_record,
    write_report,
)
from .search import extract
from .space import ArchSpace

SCHEMA_VERSION = 1
CORPORA = ("source", "target")


class ConfigError(ValueError):
    """An invalid config; ``field`` names the offending value."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


def _check_corpus(name, key):
    if name not in CORPORA:
        raise RecipeError(f"corpus must be one of {CORPORA}, got {name!r}", key)


@dataclass
class CorpusConfig:
    """A corpus to generate: its spec and the utterance count of each split."""

    spec: DomainSpec
    counts: dict[str, int]

    def __post_init__(self):
        for split, n in self.counts.items():
            if n < 1:
                raise RecipeError(f"expected an integer >= 1, got {n}", f"counts.{split}")


@dataclass
class DataConfig:
    dir: Path
    source: CorpusConfig | None = None
    target: CorpusConfig | None = None


@dataclass
class SystemConfig:
    """A checkpoint to evaluate, by stage output name or file path."""

    name: str
    checkpoint: str
    corpus: str = "target"
    split: str = "test"

    def __post_init__(self):
        _check_corpus(self.corpus, "corpus")


@dataclass
class SweepConfig:
    eta: list[float]
    eval_corpus: str = "target"
    eval_split: str = "test"

    def __post_init__(self):
        if not self.eta:
            raise RecipeError("needs at least one penalty factor", "eta")
        bad = [e for e in self.eta if not e >= 0]
        if bad:
            raise RecipeError(f"penalty factors must be nonnegative, got {bad}", "eta")
        _check_corpus(self.eval_corpus, "eval_corpus")
        # floats, so an arm's lineage records 0 as 0.0 whichever way the file wrote it
        self.eta = [float(e) for e in self.eta]


@dataclass
class RunConfig:
    """The config file. Each field's annotation is the JSON type it takes."""

    schema_version: int
    out_dir: Path
    seed: int = 0
    data: DataConfig | None = None
    space: ArchSpace | None = None
    stages: tuple[StageConfig, ...] = ()
    systems: tuple[SystemConfig, ...] = ()
    sweep: SweepConfig | None = None

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise RecipeError(f"expected {SCHEMA_VERSION}, got {self.schema_version}",
                              "schema_version")
        if self.seed < 0:
            raise RecipeError(f"expected an integer >= 0, got {self.seed}", "seed")


# the JSON values each scalar annotation takes; a bool is not a number
_SCALARS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    bool: lambda v: isinstance(v, bool),
    str: lambda v: isinstance(v, str),
    Path: lambda v: isinstance(v, str),
    NoneType: lambda v: v is None,
}


def _read(value, hint, path):
    """The JSON ``value`` read as a ``hint``; a ConfigError names ``path``
    if it is not one. An element of a list of objects is named by its
    index, an element of a list of scalars by the list."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:  # try the first arm last, so that its refusal is the one shown
        for arm in args[:0:-1]:
            try:
                return _read(value, arm, path)
            except ConfigError:
                pass
        return _read(value, args[0], path)
    if is_dataclass(hint):
        # a stage may set only what its kind reads; StageConfig refuses an unknown kind
        kind = value.get("kind") if hint is StageConfig and isinstance(value, dict) else None
        keys = StageConfig.keys(kind) if isinstance(kind, str) else ()
        return _object(hint, value, path, keys or get_type_hints(hint))
    if origin in (list, tuple) and isinstance(value, list):
        return origin(_read(v, args[0], f"{path}.{i}" if is_dataclass(args[0]) else path)
                      for i, v in enumerate(value))
    if origin is dict and isinstance(value, dict):
        return {k: _read(v, args[1], f"{path}.{k}") for k, v in value.items()}
    if hint in _SCALARS and _SCALARS[hint](value):
        return Path(value) if hint is Path else value
    name = hint.__name__ if isinstance(hint, type) else hint
    raise ConfigError(path, f"expected {name}, got {value!r}")


def _object(cls, d, path, keys):
    """``cls`` built from the JSON object ``d``, which may set only
    ``keys``. A refusal by ``cls`` that carries a ``key`` names
    ``path.key``; any other names ``path``."""
    if not isinstance(d, dict):
        raise ConfigError(path, f"expected an object, got {d!r}")
    for k in d:
        if k not in keys:
            raise ConfigError(f"{path}.{k}", f"{path} reads only {', '.join(keys)}")
    for f in fields(cls):
        if f.name not in d and f.default is MISSING:
            raise ConfigError(f"{path}.{f.name}", "missing required field")
    hints = get_type_hints(cls)
    values = {k: _read(v, hints[k], f"{path}.{k}") for k, v in d.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        at = f"{path}.{exc.key}" if getattr(exc, "key", None) else path
        raise ConfigError(at, str(exc)) from exc


def _apply_override(raw, spec_str):
    """Write a JSON scalar into ``raw`` at a dotted path, as if the file
    held it there; missing objects are created, a list element must exist."""
    if "=" not in spec_str:
        raise ConfigError(spec_str, "--set needs path=value")
    path, value = spec_str.split("=", 1)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    if isinstance(parsed, (dict, list)):
        raise ConfigError(path, "--set takes a scalar value")
    *parents, leaf = path.split(".")
    node = raw
    try:  # a refused path leaves ``raw`` half edited, and the config is not read
        for key in parents:
            node = node[_list_index(key)] if isinstance(node, list) else node.setdefault(key, {})
        node[_list_index(leaf) if isinstance(node, list) else leaf] = parsed
    except (IndexError, TypeError, AttributeError):
        raise ConfigError(path, "--set names no such field") from None


def _list_index(key):
    """A list element's index as a path spells it: ASCII decimal digits only,
    so ``-1``, ``+0`` and ``0_0`` name no element."""
    if not (key.isascii() and key.isdigit()):
        raise IndexError(key)
    return int(key)


def load_config(path, overrides=()):
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # missing, a directory, undecodable bytes, bad JSON
        raise ConfigError("config", f"not a readable JSON file: {exc}") from exc
    for o in overrides:
        _apply_override(raw, o)
    return _read(raw, RunConfig, "config")


def _load_corpora(cfg):
    if cfg.data is None:
        raise ConfigError("config.data", "required for this command")
    out = {}
    for dom in CORPORA:
        path = cfg.data.dir / dom
        if not (path / "meta.json").exists():
            raise ConfigError(f"config.data.{dom}",
                              f"corpus directory {path} not found (run gen-data first)")
        out[dom] = Corpus.load(path)
    return out


def _check_split(corpus, split, field):
    if not corpus.split(split):
        raise ConfigError(field, f"corpus {corpus.domain!r} has no {split!r} split")


def _check_space(space, corpora):
    """The configured space reads every corpus's features and token ids."""
    for c in corpora.values():
        if space.feat_dim != c.feat_dim:
            raise ConfigError("config.space.feat_dim", f"{space.feat_dim} != the "
                              f"{c.domain!r} corpus's {c.feat_dim} channels")
        if space.vocab_size < c.vocab_size:
            raise ConfigError("config.space.vocab_size", f"{space.vocab_size} < the "
                              f"{c.domain!r} corpus's {c.vocab_size} token ids")


def _emit(report, out_dir, stem):
    out = write_report(report, out_dir, stem)
    print(render_report(report), end="")
    print(f"report written to {out}")
    return 0


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def cmd_gen_data(cfg, _args):
    if cfg.data is None or cfg.data.source is None or cfg.data.target is None:
        raise ConfigError("config.data", "gen-data needs config.data.source and .target")
    # both corpora are generated before either is saved, so a failure writes nothing
    corpora = {dom: generate(c.spec, c.counts)
               for dom, c in zip(CORPORA, (cfg.data.source, cfg.data.target))}
    for dom, corpus in corpora.items():
        out = cfg.data.dir / dom
        corpus.save(out)
        print(f"wrote {len(corpus)} utterances to {out}")
    return 0


def cmd_run(cfg, _args):
    if cfg.space is None or not cfg.stages:
        raise ConfigError("config.stages", "run needs config.space and config.stages")
    corpora = _load_corpora(cfg)
    _check_space(cfg.space, corpora)
    made = check_recipe(cfg.stages, corpora, cfg.space)
    for i, s in enumerate(cfg.systems):
        _check_split(corpora[s.corpus], s.split, f"config.systems.{i}.split")
        try:
            check_checkpoint(s.checkpoint, "model", made, cfg.space, f"system {s.name!r}",
                             "checkpoint")
        except RecipeError as exc:
            raise ConfigError(f"config.systems.{i}.checkpoint", str(exc)) from exc
    rep = run_recipe(cfg.stages, corpora, cfg.out_dir, cfg.space, seed=cfg.seed)
    systems = []
    for s in cfg.systems:
        ckpt_path = rep["checkpoints"].get(s.checkpoint, s.checkpoint)
        systems.append(system_record(s.name, ckpt_path, corpora[s.corpus], s.split))
    report = evaluation_report(systems)
    report["stages"] = rep["stages"]
    return _emit(report, cfg.out_dir, "report")


def cmd_evaluate(cfg, args):
    corpus = _load_corpora(cfg)[args.corpus]
    _check_split(corpus, args.split, "--split")
    rec = system_record(args.name, args.checkpoint, corpus, args.split)
    return _emit(evaluation_report([rec]), cfg.out_dir, f"eval_{args.name}")


def cmd_dump_arch(_cfg, args):
    ckpt = Checkpoint.load(args.checkpoint)
    if ckpt.kind == "model":
        arch = ckpt.arch
    else:
        arch = extract(logits_from_checkpoint(ckpt))
    print(arch_table(arch, ckpt.space), end="")
    print(json.dumps({"arch": arch.to_json()}, sort_keys=True))
    return 0


def cmd_sweep(cfg, _args):
    if cfg.sweep is None or cfg.space is None or not cfg.stages:
        raise ConfigError("config.sweep", "sweep needs config.sweep, .space and .stages")
    corpora = _load_corpora(cfg)
    _check_space(cfg.space, corpora)
    sw = cfg.sweep
    _check_split(corpora[sw.eval_corpus], sw.eval_split, "config.sweep.eval_split")
    report = run_sweep(sw.eta, cfg.stages, corpora, cfg.out_dir, cfg.space, seed=cfg.seed,
                       eval_corpus=sw.eval_corpus, eval_split=sw.eval_split)
    return _emit(report, cfg.out_dir, "sweep")


def _error_record(exc, code, field=None):
    rec = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    field = field or getattr(exc, "field", None)
    if field:
        rec["field"] = field
    return json.dumps(rec, sort_keys=True)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="confadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "run", "evaluate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True)
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="PATH=VALUE")
        if name == "evaluate":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--corpus", default="target", choices=CORPORA)
            p.add_argument("--split", default="test")
            p.add_argument("--name", default="system")
    p = sub.add_parser("dump-arch")
    p.add_argument("--checkpoint", required=True)

    args = parser.parse_args(argv)
    handlers = {
        "gen-data": cmd_gen_data,
        "run": cmd_run,
        "evaluate": cmd_evaluate,
        "dump-arch": cmd_dump_arch,
        "sweep": cmd_sweep,
    }
    try:
        cfg = None
        if getattr(args, "config", None) is not None:
            cfg = load_config(args.config, getattr(args, "overrides", ()))
        return handlers[args.command](cfg, args)
    except ConfigError as exc:
        print(_error_record(exc, 2), file=sys.stderr)
        return 2
    except RecipeError as exc:  # found by check_recipe, before the first stage runs
        print(_error_record(exc, 2, f"config.stages.{exc.stage}.{exc.key}"), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(_error_record(exc, 3), file=sys.stderr)
        return 3
    except Exception as exc:  # surface everything as a structured record
        print(_error_record(exc, 1), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
