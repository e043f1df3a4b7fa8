"""Report emission: stratified TER evaluation, architecture dumps, and
penalty sweeps.

Evaluation reports are pure functions of (checkpoint, corpus), emitted
as structured records plus rendered text, so regenerating a report from
the same inputs is byte-identical.
"""

from __future__ import annotations

import json

from dataclasses import replace
from pathlib import Path

from .checkpoint import Checkpoint
from .data import median_split
from .pipeline import (StageConfig, check_recipe, error_rate, model_from_checkpoint,
                       run_recipe, utterance_errors)

REPORT_SCHEMA_VERSION = 1


def stratified_eval(model, corpus, split="test"):
    """Overall TER plus TER on the shorter/longer median halves."""
    utts = corpus.split(split)
    if not utts:
        raise ValueError(f"stratified_eval: corpus has no {split!r} split")
    shorter, longer = median_split(utts)
    # decode each utterance once; the halves partition the split
    errors = dict(zip(map(id, utts), utterance_errors(model, utts)))

    def ter(part):
        return error_rate([errors[id(u)] for u in part]) if part else None

    return {
        "split": split,
        "overall": ter(utts),
        "n_total": len(utts),
        "shorter": ter(shorter),
        "n_shorter": len(shorter),
        "longer": ter(longer),
        "n_longer": len(longer),
    }


def system_record(name, ckpt_path, corpus, split="test"):
    """Evaluation record for one derived-model checkpoint."""
    ckpt = Checkpoint.load(ckpt_path)
    model = model_from_checkpoint(ckpt)
    etas = [e.get("eta") for e in ckpt.lineage if "eta" in StageConfig.keys(e.get("kind"))]
    return {
        "name": name,
        "checkpoint": str(ckpt_path),
        "params": model.param_count(),
        "arch": ckpt.arch.to_json(),
        "eta": etas[-1] if etas else None,
        "stages": [e.get("stage") for e in ckpt.lineage],
        "seeds": [e.get("resolved_seed") for e in ckpt.lineage],
        "ter": stratified_eval(model, corpus, split=split),
    }


def evaluation_report(systems):
    return {"schema_version": REPORT_SCHEMA_VERSION, "systems": systems}


def write_report(report, out_dir, stem):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (out_dir / f"{stem}.txt").write_text(render_report(report))
    return out_dir / f"{stem}.json"


def _fmt_ter(x):
    return "-" if x is None else f"{100 * x:6.2f}"


def render_report(report):
    lines = ["system                          eta      params   TER%   short%  long%"]
    for s in report.get("systems", []):
        if "error" in s:
            lines.append(f"{s.get('name', '?'):30}  FAILED: {s['error']}")
            continue
        ter = s["ter"]
        eta = "-" if s.get("eta") is None else f"{s['eta']:g}"
        lines.append(
            f"{s['name']:30}  {eta:>6}  {s['params']:9d}  "
            f"{_fmt_ter(ter['overall'])} {_fmt_ter(ter['shorter'])}  {_fmt_ter(ter['longer'])}"
        )
    return "\n".join(lines) + "\n"


def arch_table(arch, space):
    """Per-block hyper-parameter table; row 0 is the bottom block, the
    one closest to the input, the last row the top block."""
    lines = []
    for section, blocks, width in (("enc", space.encoder_blocks, 6),
                                   ("dec", space.decoder_blocks, 11)):
        names = space.block_groups(section)
        lines.append("section  block  " + "".join(f"{g.upper():>{width}}" for g in names))
        for b in range(blocks):
            row = "".join(f"{int(arch[(section, b, g)]):{width}d}" for g in names)
            lines.append(f"{section:9}{b:5d}  {row}")
    return "\n".join(lines) + "\n"


def sweep(eta_list, stages, corpora, out_dir, space, seed=0, eval_corpus="target",
          eval_split="test"):
    """One recipe run per penalty factor, sharing the source pre-training.

    The leading pretrain stage (if any) runs once; every arm then runs
    the remaining stages with its own penalty factor applied to the
    stages that read one. Failures in one arm are recorded without
    aborting the others; a negative penalty factor or a recipe that
    ``check_recipe`` refuses is refused before anything runs.
    """
    if not eta_list:
        raise ValueError("sweep: needs at least one penalty factor")
    bad = [eta for eta in eta_list if not eta >= 0]
    if bad:
        raise ValueError(f"sweep: penalty factors must be nonnegative, got {bad}")
    check_recipe(stages, corpora, space)
    out_dir = Path(out_dir)
    rest = list(stages)
    shared = {}
    if rest and rest[0].kind == "pretrain":
        shared = run_recipe(rest[:1], corpora, out_dir / "shared", space, seed=seed)["checkpoints"]
        rest = rest[1:]

    systems = []
    arms = []
    for i, eta in enumerate(eta_list):
        # arm inputs naming the shared output read the shared checkpoint
        arm_stages = [
            replace(st, input=shared.get(st.input, st.input),
                    eta=eta if "eta" in StageConfig.keys(st.kind) else st.eta)
            for st in rest
        ]
        arm_dir = out_dir / f"eta_{i}"
        try:
            rep = run_recipe(arm_stages, corpora, arm_dir, space, seed=seed)
            last = arm_stages[-1]
            ckpt_path = rep["checkpoints"][last.output or last.name]
            rec = system_record(f"eta={eta:g}", ckpt_path, corpora[eval_corpus], split=eval_split)
            rec["eta"] = eta
            systems.append(rec)
            arms.append({"eta": eta, "report": rep})
        except Exception as exc:  # isolate arm failures
            systems.append({"name": f"eta={eta:g}", "eta": eta, "error": str(exc)})
            arms.append({"eta": eta, "error": str(exc)})
    report = evaluation_report(systems)
    report["arms"] = arms
    return report
