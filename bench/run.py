"""Stage-level benchmark of the confadapt pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload pretrain-source --seed 1 --seconds 30 --trace 0

One process runs a closed loop: the workload's stage function is called
again as soon as the previous call returns, until ``--seconds`` have
passed, with BLAS pinned to one thread. Every call is checked (finite
step losses, per-epoch losses and dev TER against ``reference.json``,
checkpoint reload). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object; a record with the host, sample counts and
problems found goes to ``.bench_run/`` beside the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_run"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


# ---------------------------------------------------------------------
# one stage call
# ---------------------------------------------------------------------


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    utterances: int = 0
    step_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    probe: object = None

    @property
    def utt_per_s(self):
        return self.utterances / self.wall_s

    def check(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_rep(wl, probe_mod, cfg, inputs, out_path, expected, traced):
    """Call the stage once, time it and check its outputs.

    Operations are the steps begun plus the checks made; a step fails
    when it raises or yields a non-finite loss.
    """
    rep = Rep(traced)
    result = None
    with probe_mod.Probe(trace=traced) as pr:
        start = time.perf_counter()
        try:
            result = wl.run_stage(cfg, inputs, out_path)
        except Exception:  # a failing stage is a failed operation, not a crash
            rep.problems.append(traceback.format_exc(limit=3))
        rep.wall_s = time.perf_counter() - start
    rep.probe = pr
    rep.step_s = pr.step_s
    finite = sum(1 for losses in pr.step_losses[:len(pr.step_s)]
                 if all(math.isfinite(v) for v in losses))
    rep.attempted += pr.steps_begun
    rep.failed += pr.steps_begun - finite
    rep.check([] if result is not None else ["stage raised"])
    if result is None:
        return rep
    ckpt, history = result
    rep.utterances = wl.train_utterances(cfg, inputs, history)
    rep.check(["no reference for this input set"] if expected is None
              else wl.check_history(history, expected))
    rep.check(wl.check_checkpoint(ckpt, out_path))
    return rep


# ---------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------


def end_to_end(reps, setup_s):
    steps_ms = [s * 1e3 for r in reps for s in r.step_s]
    done = [r for r in reps if r.utterances]
    return {
        "utt_per_s": (statistics.median(r.utt_per_s for r in done) if done else 0.0, "1/s"),
        "step_ms_p50": (percentile(steps_ms, 50), "ms"),
        "step_ms_p90": (percentile(steps_ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(probe_mod, untraced, traced):
    probes = [r.probe for r in traced]
    n = len(probes)
    first = probes[0]
    out = {}
    for name in probe_mod.SPAN_NAMES:
        if name != "pipeline.stage":
            out[f"{name}.calls"] = (first.calls[name], "count")
        out[f"{name}.self_s"] = (sum(p.self_s[name] for p in probes) / n, "s")
    for name in ("tensor.tape_nodes", "tensor.tape_nodes.loss",
                 "losses.greedy_decode.rows_computed", "checkpoint.save.bytes"):
        out[name] = (first.counts[name], "B" if name.endswith("bytes") else "count")
    rows = first.counts["losses.greedy_decode.rows_computed"]
    emitted = first.counts["losses.greedy_decode.emitted_tokens"]
    out["losses.greedy_decode.useful_ratio"] = (emitted / rows if rows else 0.0, "ratio")
    plain = statistics.median(r.utt_per_s for r in untraced)
    with_spans = statistics.median(r.utt_per_s for r in traced)
    out["trace.untraced_utt_per_s"] = (plain, "1/s")
    out["trace.traced_utt_per_s"] = (with_spans, "1/s")
    out["trace.overhead_pct"] = (100.0 * (plain - with_spans) / plain, "%")
    return out


def percentile(values, q):
    if not values:
        return 0.0
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def check_counts_repeat(probes):
    """Problems found comparing each traced call's exact counts with the first's."""
    counts = [p.exact_counts() for p in probes]
    problems = []
    for i, c in enumerate(counts[1:], start=1):
        diff = sorted(k for k in c if c[k] != counts[0][k])
        if diff:
            problems.append(f"traced call {i}: counts differ from call 0 in {diff}")
    return problems


# ---------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------


def host_record():
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------
# main
# ---------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "confadapt").is_dir():
        print(f"bench: no confadapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    import workloads as wl
    import probe as probe_mod
    import_s = time.perf_counter() - start

    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, wl, probe_mod, import_s, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, probe_mod, import_s, work, tag):
    # set-up: corpora, the input checkpoint and one warm-up stage call on
    # a single batch; repeated, the median is reported
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = wl.make_inputs(args.seed, work / "input.ckpt")
        wl.warm_up(args.workload, inputs, work / "warmup.ckpt")
        setup_runs.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_runs)
    expected = wl.load_reference()["workloads"][args.workload].get(str(inputs.slot))

    reps = []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < 1 + args.trace or time.perf_counter() < deadline:
        reps.append(run_rep(wl, probe_mod, wl.FULL.stages[args.workload], inputs,
                            work / "stage.ckpt", expected,
                            traced=bool(args.trace) and len(reps) % 2 == 1))
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]
    if traced:
        trace_problems = check_counts_repeat([r.probe for r in traced])
        attempted += 1
        failed += bool(trace_problems)
        problems += trace_problems
        metrics = per_layer(probe_mod, untraced, traced)
    else:
        metrics = end_to_end(untraced, setup_s)

    samples = {
        "stage_calls": len(untraced),
        "traced_stage_calls": len(traced),
        "steps": sum(len(r.step_s) for r in untraced),
        "training_utterances": sum(r.utterances for r in untraced),
        "setup_repeats": SETUP_REPEATS,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": inputs.slot,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "samples": samples,
        "setup": {"import_s": import_s, "runs_s": setup_runs},
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with open(OUT_DIR / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            for i, r in enumerate(traced):
                for span in sorted(r.probe.spans):
                    fh.write(json.dumps([i, *span]) + "\n")

    print(f"host {json.dumps(record['host'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} (input set {inputs.slot}), "
          f"closed loop, 1 process, {args.seconds} s: {json.dumps(samples)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'error_rate':42s} {failed / attempted:14.6g} "
          f"({failed} failed of {attempted} operations)")
    for p in problems[:5]:
        print(f"  problem: {p.strip()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
