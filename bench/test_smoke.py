"""Smoke tests of the benchmark itself. They assert exact counts and
results, never a timing.

    python3 -m pytest -q bench/test_smoke.py
"""

import os

from run import BLAS_THREAD_VARS, ROOT, check_counts_repeat

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from dataclasses import replace  # noqa: E402

import pytest  # noqa: E402

import workloads as wl  # noqa: E402  (first: puts the checkout's src/ on sys.path)
import probe  # noqa: E402

from confadapt import pipeline, search, tensor  # noqa: E402
from confadapt.space import ArchSpace  # noqa: E402

TINY = wl.Shape(
    space=ArchSpace(
        model_dim=8, feat_dim=8, vocab_size=13, encoder_blocks=1, decoder_blocks=1,
        ff_choices=(8, 16), head_choices=(1, 2), head_dim_choices=(4, 8),
        kernel_choices=(3, 5),
    ),
    source_counts={"train": 8, "heldout": 8, "dev": 2},
    target_counts={"train": 8, "heldout": 4, "dev": 2},
    stages={w: replace(cfg, epochs=1, patience=None if cfg.patience is None else 1)
            for w, cfg in wl.FULL.stages.items()},
)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# spans a workload must not reach; it must reach every other span
ABSENT = {
    "pretrain-source": {
        "supernet.forward", "supernet.forward_decoder", "losses.greedy_decode",
        "pipeline.corpus_ter", "space.expected_param_count",
    },
    "adapt-target": {
        "supernet.forward", "supernet.forward_decoder", "losses.greedy_decode",
        "pipeline.corpus_ter",
    },
    "derive-source": {
        "supernet.mixed_forward", "search.alternating_step", "search.sample_weights",
        "search.penalized_loss", "space.expected_param_count", "optim.zero_all",
    },
}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_and_tracing_changes_no_result(workload, tmp_path):
    inputs = wl.make_inputs(5, tmp_path / "input.ckpt", shape=TINY)
    runs = []
    for traced in (False, True, True):
        with probe.Probe(trace=traced) as pr:
            _, history = wl.run_stage(TINY.stages[workload], inputs, tmp_path / "out.ckpt")
        runs.append((pr, history))
    (plain, h0), (first, h1), (second, h2) = runs
    assert h0 == h1 == h2
    assert first.exact_counts() == second.exact_counts()
    assert first.counts["tensor.tape_nodes"] > first.counts["tensor.tape_nodes.loss"] > 0
    assert check_counts_repeat([first, second]) == []
    reached = {name for name in probe.SPAN_NAMES if first.calls[name]}
    assert reached == set(probe.SPAN_NAMES) - ABSENT[workload]
    assert len(plain.step_s) == plain.steps_begun == first.steps_begun > 0
    assert all(step is not None for (_, name, *_, step) in first.spans
               if name in ("tensor.backward", "losses.ctc_loss"))


def test_probe_restores_every_binding(tmp_path):
    before = (pipeline.alternating_step, pipeline.backward, search.backward, tensor.backward,
              pipeline.DerivedModel.forward, pipeline.Adam.step)
    with probe.Probe(trace=True):
        assert pipeline.backward is not before[1]
    after = (pipeline.alternating_step, pipeline.backward, search.backward, tensor.backward,
             pipeline.DerivedModel.forward, pipeline.Adam.step)
    assert after == before


def test_history_check_tolerance():
    ref = [{"epoch": 0, "train_loss": 2.0, "dev_ter": 0.5}]
    assert wl.check_history([{"epoch": 0, "train_loss": 2.0 * (1 + 1e-9), "dev_ter": 0.5}], ref) == []
    assert wl.check_history([{"epoch": 0, "train_loss": 2.0 * (1 + 1e-4), "dev_ter": 0.5}], ref)
    assert wl.check_history([{"epoch": 0, "train_loss": float("nan"), "dev_ter": 0.5}], ref)
    assert wl.check_history([{"epoch": 0, "train_loss": 2.0, "dev_ter": 0.6}], ref)
    assert wl.check_history([], ref)


def test_reference_covers_every_input_set():
    ref = wl.load_reference()
    assert ref["input_sets"] == wl.INPUT_SETS
    for workload in wl.WORKLOADS:
        assert sorted(ref["workloads"][workload], key=int) == [str(i) for i in range(wl.INPUT_SETS)]


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_declared_metrics(trace):
    cmd = [sys.executable, "bench/run.py", "--workload", "adapt-target", "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in out["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "bench/run.py", "--workload", "adapt-target", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
