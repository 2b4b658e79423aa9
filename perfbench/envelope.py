"""Record the robustness envelope: the inputs on which fepkit fails today.

    python3 perfbench/envelope.py

Runs once every operation that any seed can draw into a pass of each
workload (``workloads.pool``), checks it as run.py does, and writes
``envelope.json``: workload -> {operation label: failure kind}.  run.py
times only the inputs not listed, runs the listed ones once per run and
counts their failures by kind; a failure of any other input is a
regression.  Run from the root of a checkout, on the code
the envelope is to describe.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(run.BLAS_THREADS)
    run.load_fepkit()
    import workloads

    doc = {}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=run.HERE) as outdir:
        for name in workloads.WORKLOADS:
            ops = workloads.pool(name, outdir)
            outcomes = run.Outcomes({})
            for op in ops:
                run.run_op(op, outcomes)
            doc[name] = dict(sorted(outcomes.failed_ops.items()))
            print(f"{name}: {len(doc[name])} of {len(ops)} inputs fail: "
                  f"{json.dumps(outcomes.failed_by_kind)}", flush=True)
    run.ENVELOPE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
