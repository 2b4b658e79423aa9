"""Check the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json:

* two traced runs with seed 1 report identical counts (every per-layer
  metric that is not a time, the overhead or the output size);
* each run reports exactly the metrics BENCHMARK.json names;
* a run with seed 2 still passes every output check (``correct``).

It also runs the benchmark from a directory that holds only BENCHMARK.json
and the benchmark's files, where it must fail without printing a result.
Exits nonzero on the first violation.  Run from the root of a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, OTHER_SEED = 1, 2
# cli.bytes_out carries ISO timestamps, which drop their microseconds field
# when it is zero; times and the tracing overhead are measurements
NOT_COUNTS = ("cli.bytes_out", "trace.overhead_frac")


def run(spec: dict, cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = run(spec, ROOT, workload, seed, trace)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(res["metrics"]) != want:
        sys.exit(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(res['metrics']) ^ want)}")
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: output checks failed\n{proc.stdout}")
    return res


def counts(res: dict) -> dict:
    return {
        name: m["value"]
        for name, m in res["metrics"].items()
        if m["unit"] != "s" and name not in NOT_COUNTS
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    for w in spec["workloads"]:
        name = w["name"]
        first = counts(result(spec, name, SEED, 1))
        second = counts(result(spec, name, SEED, 1))
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            sys.exit(f"{name}: counts differ between two traced runs with seed {SEED}: {diff}")
        result(spec, name, OTHER_SEED, 0)
        print(f"ok {name}: {len(first)} counts repeat; seed {OTHER_SEED} passes its checks")

    with tempfile.TemporaryDirectory(prefix=".bare-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
        proc = run(spec, Path(bare), spec["workloads"][0]["name"], SEED, 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            sys.exit("benchmark did not fail in a directory without the program")
    print("ok: fails without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
