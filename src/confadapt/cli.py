"""Command-line entry point.

Subcommands: ``gen-data`` (write the synthetic corpora), ``run``
(execute a recipe and evaluate the configured systems), ``evaluate``
(regenerate an evaluation report from a checkpoint), ``dump-arch``
(print per-block hyper-parameter choices), ``sweep`` (one recipe run
per penalty factor, shared pre-training).

Configuration is one declarative JSON file with explicit schema
versioning; unknown keys are rejected with field-level diagnostics.
``--set path=value`` overrides scalar fields only (dotted path, list
indices allowed, e.g. ``--set stages.0.epochs=3``).

Exit codes: 0 success, 2 invalid configuration, 3 missing checkpoint,
1 other failures. Errors also emit one machine-parsable JSON record on
stderr. An invalid configuration exits 2 before any stage runs: a
value of the wrong type, a ``--set`` path that names no field, a
non-integer or negative seed, a split count below 1, a bad stage
setting (including one of the wrong JSON type: a name, kind, corpus or
init that is not a string, an input or output that is neither a string
nor null, a ``reinit_output`` that is not true or false, or a rate,
penalty factor or temperature that is a bool or not a number) or one
the stage's kind never reads, a system or sweep corpus other than
source/target, a system or sweep split the corpus lacks, a space whose
``feat_dim`` or ``vocab_size`` does not fit the corpora, a sweep
penalty factor that is negative or not a JSON number, or a recipe that
``pipeline.check_recipe`` refuses (a stage corpus that is unknown or
lacks a split the stage reads, ``patience`` without a dev split, or an
input that is not an earlier output or a checkpoint file of the kind
and space the stage reads). A stage error names its field as
``config.stages.<index>.<key>``.
"""

from __future__ import annotations

import argparse
import json
import sys

from pathlib import Path

from .checkpoint import Checkpoint
from .data import Corpus, DomainSpec, generate
from .pipeline import RecipeError, StageConfig, logits_from_checkpoint, run_recipe
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
    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def _typed(value, kind, path):
    """``value``, if it is a ``kind`` (a JSON object is a dict, an array a list)."""
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: expected a {kind.__name__}, got {type(value).__name__}",
                          field=path)
    return value


def _check_keys(d, allowed, path, required=()):
    unknown = sorted(set(_typed(d, dict, path)) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field {path}.{unknown[0]}", field=f"{path}.{unknown[0]}")
    for r in required:
        if r not in d:
            raise ConfigError(f"missing required field {path}.{r}", field=f"{path}.{r}")


def _check_corpus(name, field):
    if name not in CORPORA:
        raise ConfigError(f"{field}: corpus must be one of {CORPORA}, got {name!r}", field=field)
    return name


def _build(cls, d, path):
    """``cls(**d)``, with a value of the wrong type or range reported as a
    ConfigError naming ``path``."""
    try:
        return cls(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}", field=path) from exc


def _integer(path, value, least):
    """``value``, if it is a JSON integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{path}: expected an integer >= {least}, got {value!r}", field=path)
    return value


def _stage(d, path):
    """The StageConfig of ``d``, refusing a setting its kind never reads."""
    kind = _typed(d, dict, path).get("kind")
    # an unknown kind, or one that is not a string, is StageConfig's to refuse
    if isinstance(kind, str) and kind in StageConfig.KINDS:
        unread = sorted(set(d) - set(StageConfig.keys(kind)))
        if unread:
            raise ConfigError(f"{path}.{unread[0]}: a {kind} stage never reads {unread[0]!r}",
                              field=f"{path}.{unread[0]}")
    try:
        return StageConfig(**d)
    except RecipeError as exc:
        raise ConfigError(f"{path}.{exc.key}: {exc}", field=f"{path}.{exc.key}") from exc
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}", field=path) from exc


class RunConfig:
    TOP_KEYS = ("schema_version", "seed", "out_dir", "data", "space", "stages",
                "systems", "sweep")

    def __init__(self, raw):
        _check_keys(raw, self.TOP_KEYS, "config", required=("schema_version", "out_dir"))
        if raw["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(
                f"config.schema_version: expected {SCHEMA_VERSION}, got {raw['schema_version']}",
                field="config.schema_version",
            )
        self.seed = _integer("config.seed", raw.get("seed", 0), 0)
        self.out_dir = Path(raw["out_dir"])
        self.data = None
        if "data" in raw:
            d = raw["data"]
            _check_keys(d, ("dir",) + CORPORA, "config.data", required=("dir",))
            self.data = {"dir": Path(d["dir"])}
            for dom in CORPORA:
                if dom in d:
                    _check_keys(d[dom], ("spec", "counts"), f"config.data.{dom}",
                                required=("spec", "counts"))
                    spec = _build(DomainSpec, d[dom]["spec"], f"config.data.{dom}.spec")
                    counts = _typed(d[dom]["counts"], dict, f"config.data.{dom}.counts")
                    counts = {k: _integer(f"config.data.{dom}.counts.{k}", v, 1)
                              for k, v in counts.items()}
                    self.data[dom] = (spec, counts)
        self.space = None
        if "space" in raw:
            self.space = _build(ArchSpace, raw["space"], "config.space")
        self.stages = []
        for i, st in enumerate(_typed(raw.get("stages", []), list, "config.stages")):
            self.stages.append(_stage(st, f"config.stages.{i}"))
        self.systems = []
        for i, s in enumerate(_typed(raw.get("systems", []), list, "config.systems")):
            _check_keys(s, ("name", "checkpoint", "corpus", "split"),
                        f"config.systems.{i}", required=("name", "checkpoint"))
            self.systems.append({
                "name": s["name"], "checkpoint": s["checkpoint"],
                "corpus": _check_corpus(s.get("corpus", "target"), f"config.systems.{i}.corpus"),
                "split": s.get("split", "test"),
            })
        self.sweep = None
        if "sweep" in raw:
            _check_keys(raw["sweep"], ("eta", "eval_corpus", "eval_split"),
                        "config.sweep", required=("eta",))
            eta = _typed(raw["sweep"]["eta"], list, "config.sweep.eta")
            bad = [e for e in eta if isinstance(e, bool) or not isinstance(e, (int, float))
                   or not e >= 0]
            if bad:
                raise ConfigError(f"config.sweep.eta: penalty factors must be nonnegative "
                                  f"numbers, got {bad}", field="config.sweep.eta")
            self.sweep = {
                "eta": [float(e) for e in eta],
                "eval_corpus": _check_corpus(raw["sweep"].get("eval_corpus", "target"),
                                             "config.sweep.eval_corpus"),
                "eval_split": raw["sweep"].get("eval_split", "test"),
            }


def _apply_override(raw, spec_str):
    if "=" not in spec_str:
        raise ConfigError(f"--set needs path=value, got {spec_str!r}", field=spec_str)
    path, value = spec_str.split("=", 1)
    *parents, leaf = path.split(".")
    node = raw
    try:
        for p in parents:
            node = node[int(p)] if isinstance(node, list) else node[p]
        if isinstance(node, list):
            leaf = int(leaf)
        current = node[leaf]
    except (KeyError, IndexError, TypeError, ValueError):
        raise ConfigError(f"--set: no such field {path!r}", field=path) from None
    if isinstance(current, (dict, list)):
        raise ConfigError(f"--set: {path!r} is not a scalar field", field=path)
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node[leaf] = parsed


def load_config(path, overrides=()):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}", field="config")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="config") from exc
    for o in overrides:
        _apply_override(raw, o)
    return RunConfig(raw)


def _load_corpora(cfg):
    if cfg.data is None:
        raise ConfigError("config.data is required for this command", field="config.data")
    out = {}
    for dom in CORPORA:
        path = cfg.data["dir"] / dom
        if not (path / "meta.json").exists():
            raise ConfigError(
                f"corpus directory {path} not found (run gen-data first)",
                field=f"config.data.{dom}",
            )
        out[dom] = Corpus.load(path)
    return out


def _check_split(corpus, split, field):
    if not corpus.split(split):
        raise ConfigError(f"{field}: corpus {corpus.domain!r} has no {split!r} split", field=field)


def _check_space(space, corpora):
    """The configured space reads every corpus's features and token ids."""
    for c in corpora.values():
        if space.feat_dim != c.feat_dim:
            raise ConfigError(f"config.space.feat_dim: {space.feat_dim} != the {c.domain!r} "
                              f"corpus's {c.feat_dim} channels", field="config.space.feat_dim")
        if space.vocab_size < c.vocab_size:
            raise ConfigError(f"config.space.vocab_size: {space.vocab_size} < the {c.domain!r} "
                              f"corpus's {c.vocab_size} token ids", field="config.space.vocab_size")


def _emit(report, out_dir, stem):
    out = write_report(report, out_dir, stem)
    print(render_report(report), end="")
    print(f"report written to {out}")
    return 0


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------


def cmd_gen_data(cfg, _args):
    if cfg.data is None or "source" not in cfg.data or "target" not in cfg.data:
        raise ConfigError("gen-data needs config.data.source and config.data.target",
                          field="config.data")
    for dom in CORPORA:
        spec, counts = cfg.data[dom]
        corpus = generate(spec, counts)
        out = cfg.data["dir"] / dom
        corpus.save(out)
        print(f"wrote {len(corpus)} utterances to {out}")
    return 0


def cmd_run(cfg, _args):
    if cfg.space is None or not cfg.stages:
        raise ConfigError("run needs config.space and config.stages", field="config.stages")
    corpora = _load_corpora(cfg)
    _check_space(cfg.space, corpora)
    for i, s in enumerate(cfg.systems):
        _check_split(corpora[s["corpus"]], s["split"], f"config.systems.{i}.split")
    rep = run_recipe(cfg.stages, corpora, cfg.out_dir, cfg.space, seed=cfg.seed)
    systems = []
    for s in cfg.systems:
        ckpt_path = rep["checkpoints"].get(s["checkpoint"], s["checkpoint"])
        systems.append(system_record(s["name"], ckpt_path, corpora[s["corpus"]], s["split"]))
    report = evaluation_report(systems)
    report["stages"] = rep["stages"]
    return _emit(report, cfg.out_dir, "report")


def cmd_evaluate(cfg, args):
    corpora = _load_corpora(cfg)
    corpus = corpora[args.corpus]
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
        raise ConfigError("sweep needs config.sweep, config.space and config.stages",
                          field="config.sweep")
    corpora = _load_corpora(cfg)
    _check_space(cfg.space, corpora)
    _check_split(corpora[cfg.sweep["eval_corpus"]], cfg.sweep["eval_split"],
                 "config.sweep.eval_split")
    report = run_sweep(cfg.sweep["eta"], cfg.stages, corpora, cfg.out_dir, cfg.space,
                       seed=cfg.seed, eval_corpus=cfg.sweep["eval_corpus"],
                       eval_split=cfg.sweep["eval_split"])
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
