"""Shared fixtures: the reduced-space end-to-end experiments reused by the
acceptance suite and the corpus sanity tests, plus a terminal summary that
prints one pass/fail line per acceptance criterion, each followed by the
values the criterion compared (``record_margin``)."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from confadapt.checkpoint import Checkpoint
from confadapt.data import default_domain_pair, generate
from confadapt.pipeline import StageConfig, model_from_checkpoint, run_recipe
from confadapt.report import stratified_eval, sweep
from confadapt.space import ArchSpace, DerivedArch
from confadapt.supernet import ConformerSupernet

# reduced search space for the end-to-end runs: 2 encoder blocks, 1
# decoder block, width 32
E2E_SPACE = ArchSpace(
    model_dim=32, feat_dim=8, vocab_size=13, encoder_blocks=2, decoder_blocks=1,
    ff_choices=(32, 64), head_choices=(1, 2), head_dim_choices=(8, 16),
    kernel_choices=(3, 5),
)

# desk-scale rescaling of the penalty factor: eta_desk = ETA_RESCALE * eta
ETA_RESCALE = 0.003

ADAPTATION_SEEDS = (101, 202, 303)
SWEEP_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def e2e_corpora():
    src_spec, tgt_spec = default_domain_pair(feat_dim=8, vocab_tokens=10)
    src = generate(src_spec, {"train": 160, "heldout": 16, "dev": 24, "test": 24})
    tgt = generate(tgt_spec, {"train": 48, "heldout": 10, "dev": 16, "test": 80})
    return {"source": src, "target": tgt}


def two_arm_stages():
    # the adaptation arm searches under the mid penalty (0.003 rescaled)
    return [
        StageConfig("pretrain", "pretrain", corpus="source", epochs=8, batch_size=8,
                    lr_weights=2e-3, lr_logits=3e-3, output="sn_src"),
        StageConfig("adapt", "adapt", corpus="target", input="sn_src", epochs=20,
                    batch_size=8, lr_weights=1e-3, lr_logits=3e-3,
                    eta=0.003 * ETA_RESCALE, output="sn_tgt"),
        StageConfig("derive_param", "derive", corpus="source", input="sn_src", epochs=40,
                    batch_size=8, lr_weights=2e-3, patience=3, output="m_param_src"),
        StageConfig("derive_hyper", "derive", corpus="source", input="sn_tgt", epochs=40,
                    batch_size=8, lr_weights=2e-3, patience=3, output="m_hyper_src"),
        StageConfig("ft_param", "finetune", corpus="target", input="m_param_src", epochs=15,
                    batch_size=8, lr_weights=1e-3, patience=3, output="m_param_tgt"),
        StageConfig("ft_hyper", "finetune", corpus="target", input="m_hyper_src", epochs=15,
                    batch_size=8, lr_weights=1e-3, patience=3, output="m_hyper_tgt"),
    ]


@pytest.fixture(scope="session")
def adaptation_runs(e2e_corpora, tmp_path_factory):
    """Three seeded two-arm runs: parameter-only vs hyper-parameter adaptation."""
    base = tmp_path_factory.mktemp("arms")
    records = []
    for seed in ADAPTATION_SEEDS:
        rep = run_recipe(two_arm_stages(), e2e_corpora, base / f"s{seed}", E2E_SPACE, seed=seed)
        rec = {"seed": seed, "checkpoints": rep["checkpoints"]}
        for arm in ("param", "hyper"):
            final = Checkpoint.load(rep["checkpoints"][f"m_{arm}_tgt"])
            model = model_from_checkpoint(final)
            rec[arm] = {
                "arch": final.arch.to_json(),
                "params": model.param_count(),
                "tgt_test": stratified_eval(model, e2e_corpora["target"], "test"),
                "tgt_dev_ter": stratified_eval(model, e2e_corpora["target"], "dev")["overall"],
            }
            src_model = model_from_checkpoint(
                Checkpoint.load(rep["checkpoints"][f"m_{arm}_src"]))
            rec[arm]["src_dev_ter"] = stratified_eval(
                src_model, e2e_corpora["source"], "dev")["overall"]
            rec[arm]["tgt_dev_ter_before_ft"] = stratified_eval(
                src_model, e2e_corpora["target"], "dev")["overall"]
        records.append(rec)
    return records


@pytest.fixture(scope="session")
def eta_sweep_reports(e2e_corpora, tmp_path_factory):
    """Five seeded sweeps over eta in {0, 0.003, 0.03} times the desk rescale."""
    base = tmp_path_factory.mktemp("sweep")
    etas = [0.0, 0.003 * ETA_RESCALE, 0.03 * ETA_RESCALE]
    stages = [
        StageConfig("pretrain", "pretrain", corpus="source", epochs=8, batch_size=8,
                    lr_weights=2e-3, lr_logits=3e-3, output="sn_src"),
        StageConfig("adapt", "adapt", corpus="target", input="sn_src", epochs=20,
                    batch_size=8, lr_weights=1e-3, lr_logits=3e-3, output="sn_tgt"),
        StageConfig("derive", "derive", corpus="source", input="sn_tgt", epochs=0,
                    batch_size=8, output="model"),
    ]
    reports = []
    for seed in SWEEP_SEEDS:
        rep = sweep(etas, stages, e2e_corpora, base / f"s{seed}", E2E_SPACE, seed=seed)
        reports.append({"seed": seed, "etas": etas, "report": rep})
    return reports


@pytest.fixture(scope="session")
def source_baseline(tmp_path_factory):
    """A fixed-architecture model trained on an ample source corpus."""
    base = tmp_path_factory.mktemp("baseline")
    src_spec, tgt_spec = default_domain_pair(feat_dim=8, vocab_tokens=10)
    src = generate(src_spec, {"train": 384, "heldout": 24, "dev": 24})
    tgt_dev = generate(tgt_spec, {"dev": 16})
    supernet = ConformerSupernet(E2E_SPACE, seed=3)
    model = supernet.materialize(DerivedArch.maximal(E2E_SPACE), init="fresh", seed=7)
    arch_ckpt = base / "init.ckpt"
    from confadapt.pipeline import parameter_finetune

    Checkpoint(kind="model", space=E2E_SPACE, arch=model.arch,
               weights={n: p.data.copy() for n, p in model.named_parameters().items()}
               ).save(arch_ckpt)
    cfg = StageConfig("train_src", "finetune", corpus="source", epochs=32, batch_size=8,
                      lr_weights=2e-3, patience=12, output="baseline")
    ckpt, history = parameter_finetune(
        Checkpoint.load(arch_ckpt), src, cfg, base / "baseline.ckpt", seed=5,
    )
    trained = model_from_checkpoint(ckpt)
    return {
        "model": trained,
        "history": history,
        "src_dev_ter": stratified_eval(trained, src, "dev")["overall"],
        "tgt_dev_ter": stratified_eval(trained, tgt_dev, "dev")["overall"],
    }


# ---------------------------------------------------------------------
# acceptance summary lines
# ---------------------------------------------------------------------

_CRITERIA_RESULTS = {}
_CRITERIA_MARGINS = {}

CRITERIA_TITLES = {
    1: "gradient suite (tensor ops + ctc, rel err < 1e-4)",
    2: "gumbel-softmax suite (normalization, invariance, sharpening)",
    3: "ctc vs exhaustive alignment enumeration (<= 1e-8)",
    4: "one-hot / materialization equivalence (<= 1e-6, 20 archs)",
    5: "parameter-count exactness (20 archs)",
    6: "penalty trend: median extracted size non-increasing in eta",
    7: "adaptation gain: hyper arm <= parameter-only arm (median)",
    8: "length-stratified: shorter-half gain >= longer-half gain",
    9: "bit-exact reproducibility and checkpoint round-trip",
}


def record_margin(num, *lines):
    """Lines the summary prints under criterion ``num``: what it compared,
    so a run shows how much headroom the criterion had."""
    _CRITERIA_MARGINS.setdefault(num, []).extend(lines)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        try:
            num = int(name.split("_")[2])
        except (IndexError, ValueError):
            return
        _CRITERIA_RESULTS[num] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_CRITERIA_RESULTS):
        outcome = _CRITERIA_RESULTS[num]
        status = "PASS" if outcome == "passed" else "FAIL"
        title = CRITERIA_TITLES.get(num, "")
        terminalreporter.write_line(f"criterion {num}: {status}  {title}")
        for line in _CRITERIA_MARGINS.get(num, ()):
            terminalreporter.write_line(f"    {line}")
