"""Print the sha256 of every checkpoint the byte-identity contract covers.

Run from anywhere, with no arguments:

    python3 tools/digests.py

Prints one ``sha256  name`` line per checkpoint:

- the four checkpoints of the criterion-9 recipe, written by running
  ``tests/test_acceptance.py -k criterion_9`` under pytest in a
  temporary ``--basetemp`` (so the test's own recipe is the one hashed)
  and read from its ``r1`` run;
- the three bench-stage checkpoints of input set 1 (seed 1), written by
  ``bench/workloads.py`` ``make_inputs`` and ``run_stage`` on ``FULL``.

A refactor that must not move bits prints the same lines on the parent
commit and on the change. BLAS is pinned to one thread before numpy
loads, as the tests and the benchmark do.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH_SEED = 1


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def criterion_9_checkpoints(tmp):
    basetemp = tmp / "pytest"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           str(ROOT / "tests" / "test_acceptance.py"), "-k", "criterion_9",
           "--basetemp", str(basetemp)]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout + run.stderr)
        raise SystemExit(f"digests: {' '.join(cmd)} exited {run.returncode}")
    # resolved, since pytest also links the test's directory as "...current"
    paths = sorted({p.resolve() for p in basetemp.glob("*/r1/*.ckpt")})
    if not paths:
        raise SystemExit(f"digests: the criterion-9 test wrote no r1/*.ckpt under {basetemp}")
    return [(p.stem, p) for p in paths]


def bench_checkpoints(tmp):
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    inputs = workloads.make_inputs(BENCH_SEED, tmp / "setup.ckpt")
    out = []
    for name, cfg in workloads.FULL.stages.items():
        path = tmp / f"{name}.ckpt"
        workloads.run_stage(cfg, inputs, path)
        out.append((name, path))
    return out


def main():
    with tempfile.TemporaryDirectory(prefix="digests-") as d:
        tmp = Path(d)
        for name, path in criterion_9_checkpoints(tmp) + bench_checkpoints(tmp):
            print(f"{_sha256(path)}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
