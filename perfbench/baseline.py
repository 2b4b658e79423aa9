"""Run the benchmark in two sets of seeds 1-10 and record the baseline.

    python3 perfbench/baseline.py [--out FILE]

For each set, and in it each workload of BENCHMARK.json: one untraced run
per seed.  Then one traced run per workload with seed 1.  Prints, per set,
workload and end-to-end metric, the median, the spread (the distance between
the quartiles ``statistics.quantiles(values, n=4)`` gives, as a share of the
median) and, for the second set, how far its median is from the first set's
in the worse direction, as a share of the first.  ``--out`` writes all of it
as JSON: the machine facts once, then every run's metric values, attempted
and failed counts (inputs outside the robustness envelope) and failures by
kind (every drawn input once), and the traced run's metrics, among them
fail_frac and silent_wrong_frac.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """The result line, the machine facts and the failures by kind of one run."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(": ")
        if tag in ("machine", "failures"):
            tagged[tag] = json.loads(rest)
    return json.loads(lines[-1]), tagged["machine"], tagged["failures"]


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "spread": (q3 - q1) / med}


def compact(doc: dict) -> str:
    """Indented JSON with every list of numbers on one line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    doc: dict = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for s in range(SETS):
        for name in names:
            runs = [run(spec, name, seed, 0) for seed in SEEDS]
            doc["machine"] = runs[0][1]
            kinds = runs[0][2]
            entry = {
                "correct": [r[0]["correct"] for r in runs],
                "attempted": [r[0]["attempted"] for r in runs],
                "failed": [r[0]["failed"] for r in runs],
                "failures": {k: [r[2][k] for r in runs] for k in kinds},
                "metrics": {m: [r[0]["metrics"][m]["value"] for r in runs] for m in metrics},
            }
            entry["summary"] = {m: spread(v) for m, v in entry["metrics"].items()}
            doc["workloads"].setdefault(name, {"sets": []})["sets"].append(entry)
            for m, sm in entry["summary"].items():
                line = f"set {s + 1} {name} {m}: median {sm['median']:.6g} spread {sm['spread']:.4f}"
                if s:
                    first = doc["workloads"][name]["sets"][0]["summary"][m]["median"]
                    worse = (sm["median"] - first) / first
                    if metrics[m]["better"] == "higher":
                        worse = -worse
                    line += f" worse than set 1 by {worse:+.4f}"
                print(f"{line} (bound {metrics[m]['bound']})", flush=True)

    for name in names:
        res, _, failures = run(spec, name, SEEDS[0], 1)
        wl = doc["workloads"][name]
        wl["traced"] = {
            "seed": SEEDS[0],
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "failures": failures,
            "metrics": {m: v["value"] for m, v in res["metrics"].items()},
        }
        wl["fail_frac"] = wl["traced"]["metrics"]["fail_frac"]
        wl["silent_wrong_frac"] = wl["traced"]["metrics"]["silent_wrong_frac"]
        print(f"{name}: traced seed {SEEDS[0]}: fail_frac {wl['fail_frac']:.4g}, "
              f"silent_wrong_frac {wl['silent_wrong_frac']:.4g} over every drawn input, "
              f"correct {res['correct']}", flush=True)

    if args.out:
        Path(args.out).write_text(compact(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
