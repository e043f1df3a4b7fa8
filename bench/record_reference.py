"""Record ``reference.json``: the history of each workload's stage call
for every input set, at the current commit.

    python3 bench/record_reference.py

Re-record only when a change is meant to alter training results; the
benchmark compares every stage call against this file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from pathlib import Path


def main():
    from run import BLAS_THREAD_VARS, host_record

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import workloads as wl

    out = {"recorded_at": {k: v for k, v in host_record().items()
                           if k in ("commit", "src_sha256", "numpy", "blas")},
           "input_sets": wl.INPUT_SETS,
           "workloads": {w: {} for w in wl.WORKLOADS}}
    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        tmp = Path(tmp)
        for seed in range(wl.INPUT_SETS):
            inputs = wl.make_inputs(seed, tmp / "input.ckpt")
            for workload, cfg in wl.FULL.stages.items():
                _, history = wl.run_stage(cfg, inputs, tmp / "stage.ckpt")
                out["workloads"][workload][str(inputs.slot)] = history
            print(f"input set {seed} recorded", file=sys.stderr)
    wl.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
