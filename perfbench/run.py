"""fepkit benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; fepkit is loaded from its ``src``.  Load is a
closed loop with one client: an operation starts only after the previous one
has finished and been checked.  BLAS runs on a fixed number of threads.

The seed draws a workload's inputs; those listed in the robustness envelope
(``envelope.json``, the inputs on which fepkit fails today) are split off.
``attempted`` and ``failed`` count the operations on the other inputs, on
which fepkit is expected to succeed.  The envelope inputs run once per run,
untimed in ``--trace 0``, and their failures are counted by kind.

``--trace 0`` repeats whole timed passes over the workload's inputs outside
the envelope for about ``--seconds`` and reports the end-to-end metrics;
the op-time metrics come from each input's fastest time in the run.
``--trace 1`` runs pairs of an untraced and a traced pass over all the drawn
inputs, the envelope's too, and reports the per-layer metrics of one traced
pass, so its counts repeat exactly for a seed; ``trace.overhead_frac``
compares the traced passes' time with the untraced ones'.

Every line but the last is a human-readable report (machine facts, failures
by kind, tail percentile); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BLAS_THREADS = 1
SETUP_REPEATS = 5
TAIL_PERCENTILE = 95.0
FAIL_KINDS = ("value_error", "runtime_error", "cli_exit", "silent_wrong", "other_error")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ENVELOPE = HERE / "envelope.json"

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_fepkit():
    """Import fepkit from the checkout's src, and nothing else."""
    if not (SRC / "fepkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fepkit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fepkit

    if Path(fepkit.__file__).resolve().parent != SRC / "fepkit":
        sys.exit(f"perfbench: fepkit was imported from {fepkit.__file__}, not {SRC}")


def blas_runtime_threads() -> int | None:
    """Thread count numpy's OpenBLAS reports, where its library exposes it."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
    }


def setup_seconds(workload: str, seed: int, outdir: str) -> list[float]:
    """Set-up time of fresh processes: import fepkit, numpy, scipy; build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py"), workload, str(seed), outdir],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def load_envelope(workload: str) -> dict[str, str]:
    """Label -> failure kind of the workload's inputs on which fepkit fails today."""
    return json.loads(ENVELOPE.read_text())[workload]


class Outcomes:
    """Outcome of every operation run, by kind.

    ``attempted`` and ``failed`` count the operations on inputs outside
    ``envelope``; ``failed_by_kind`` and the fractions count every operation.
    A regression makes the run incorrect: a failure of an input outside the
    envelope, an exception that is neither a ValueError nor a RuntimeError
    (kind ``other_error``), or a wrong result returned silently by an
    envelope input on which fepkit used to fail loudly.
    """

    def __init__(self, envelope: dict[str, str]):
        self.envelope = envelope
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.failed_by_kind = Counter({kind: 0 for kind in FAIL_KINDS})
        self.failed_ops: dict[str, str] = {}
        self.cli_exit_codes: Counter[int] = Counter()
        self.regressions: list[str] = []
        self.examples: dict[str, str] = {}

    def record(self, op, kind: str, detail: str | None, exit_code: int | None) -> None:
        known = self.envelope.get(op.label)
        self.runs += 1
        self.attempted += known is None
        if kind == "ok":
            return
        self.failed += known is None
        self.failed_by_kind[kind] += 1
        self.failed_ops[op.label] = kind
        if exit_code is not None:
            self.cli_exit_codes[exit_code] += 1
        self.examples.setdefault(kind, f"{op.label}: {detail}")
        loud_now_silent = kind == "silent_wrong" and known != "silent_wrong"
        if known is None or kind == "other_error" or loud_now_silent:
            self.regressions.append(f"{kind} {op.label} (envelope: {known}): {detail}")

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.runs += other.runs
        self.failed_by_kind.update(other.failed_by_kind)
        self.failed_ops.update(other.failed_ops)
        self.cli_exit_codes.update(other.cli_exit_codes)
        self.regressions += other.regressions
        for kind, example in other.examples.items():
            self.examples.setdefault(kind, example)

    def pass_metrics(self) -> dict[str, float]:
        n_failed = sum(self.failed_by_kind.values())
        out = {
            "fail_frac": n_failed / self.runs,
            "silent_wrong_frac": self.failed_by_kind["silent_wrong"] / self.runs,
        }
        out.update({f"fail.{kind}": self.failed_by_kind[kind] for kind in FAIL_KINDS})
        return out


def run_op(op, outcomes: Outcomes | None) -> tuple[float, int]:
    """Run and check one operation; return its time and output bytes."""
    from workloads import CliResult

    exit_code = None
    start = time.perf_counter()
    try:
        out = op.run()
    except ValueError as exc:
        elapsed, kind, detail, out = time.perf_counter() - start, "value_error", repr(exc), None
    except RuntimeError as exc:
        elapsed, kind, detail, out = time.perf_counter() - start, "runtime_error", repr(exc), None
    except Exception as exc:
        elapsed, kind, detail, out = time.perf_counter() - start, "other_error", repr(exc), None
    else:
        elapsed = time.perf_counter() - start
        if isinstance(out, CliResult) and out.code != 0:
            kind, detail, exit_code = "cli_exit", out.stderr.strip(), out.code
        else:
            detail = op.check(out)
            kind = "ok" if detail is None else "silent_wrong"
    if outcomes is not None:
        outcomes.record(op, kind, detail, exit_code)
    nbytes = out.bytes_out() if isinstance(out, CliResult) else 0
    return elapsed, nbytes


def run_pass(ops, outcomes, tracer=None) -> tuple[list[float], int]:
    """Run every op ``op.repeat`` times; each op's fastest call time, and the output bytes."""
    times, nbytes = [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        calls = [run_op(op, outcomes) for _ in range(op.repeat)]
        times.append(min(dt for dt, _ in calls))
        nbytes += sum(b for _, b in calls)
    return times, nbytes


def warm_up(ops) -> None:
    """Run the first operation of each kind once, unmeasured."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op, None)


def best_times(passes: list[list[float]]) -> list[float]:
    """Each input's fastest time over the run's passes.

    On a shared host, interference from other tenants only ever adds time to
    an operation and comes and goes within seconds, so an input's fastest
    time of many is the estimate of its own cost that such noise moves
    least.  Slower swings of the host's speed, over minutes, still move it.
    """
    return [min(times) for times in zip(*passes)]


def measure(ops, envelope, seconds: float) -> tuple[list[list[float]], Outcomes]:
    """Op times of whole passes, at least two, until the next would end over half a pass late."""
    outcomes = Outcomes(envelope)
    passes: list[list[float]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, outcomes)[0])
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes, outcomes


def measure_traced(ops, envelope, seconds: float):
    """Pairs of an untraced and a traced pass, in alternating order; per-layer
    metrics of the traced passes."""
    from spans import Tracer, layer_metrics

    total = Outcomes(envelope)
    plain_s, traced_s, layers = [], [], []
    start = time.perf_counter()
    while True:
        traced_first = len(layers) % 2 == 1
        if not traced_first:
            plain_s.append(sum(run_pass(ops, total)[0]))
        tracer, outcomes = Tracer(), Outcomes(envelope)
        with tracer.attach():
            t, bytes_out = run_pass(ops, outcomes, tracer)
        traced_s.append(sum(t))
        if traced_first:
            plain_s.append(sum(run_pass(ops, total)[0]))
        total.merge(outcomes)
        layers.append(layer_metrics(tracer.spans))
        layers[-1]["cli.bytes_out"] = bytes_out
        layers[-1].update(outcomes.pass_metrics())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(layers) > seconds:
            break

    # counts come from the first traced pass; times are medians over them
    metrics = {
        name: statistics.median(m[name] for m in layers) if name.endswith("_s") else value
        for name, value in layers[0].items()
    }
    # paired passes ran back to back, so their ratio cancels slow drift of the host
    metrics["trace.overhead_frac"] = statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1
    repeat = all(m[k] == v for m in layers for k, v in layers[0].items() if not k.endswith("_s"))
    return metrics, total, len(layers), repeat


def unit_of(name: str) -> str:
    if name == "cli.bytes_out":
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def report_failures(outcomes: Outcomes, label: str) -> None:
    print(f"{label}: attempted={outcomes.attempted} failed={outcomes.failed} "
          f"(inputs outside the envelope); operations run, envelope included: {outcomes.runs}")
    print("failures:", json.dumps(outcomes.failed_by_kind))
    if outcomes.cli_exit_codes:
        print(f"{label}: cli exit codes {dict(sorted(outcomes.cli_exit_codes.items()))}")
    for kind, example in outcomes.examples.items():
        print(f"{label}: first {kind}: {example}")
    for line in outcomes.regressions[:5]:
        print(f"{label}: REGRESSION: {line}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # fixed before numpy loads its BLAS; the set-up processes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    load_fepkit()
    import resource

    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)}")

    print("machine:", json.dumps(machine_facts(), sort_keys=True))
    envelope = load_envelope(args.workload)
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as outdir:
        ops = workloads.build(args.workload, args.seed, outdir)
        work = [op for op in ops if op.label not in envelope]
        print(f"workload: {args.workload} seed={args.seed} inputs drawn: {len(ops)}, of which "
              f"{len(ops) - len(work)} in the envelope; closed loop, one client")
        warm_up(work)
        # the harness's own objects (inputs, checks) stay out of the collector's
        # way, so the program's operations do not pay for scanning them
        gc.collect()
        gc.freeze()

        if args.trace:
            metrics, outcomes, passes, repeat = measure_traced(ops, envelope, args.seconds)
            report_failures(outcomes, "all passes")
            print(f"traced passes: {passes}; counts identical across them: {repeat}")
            values = {name: (metrics[name], unit_of(name)) for name in metrics}
        else:
            known = Outcomes(envelope)
            run_pass([op for op in ops if op.label in envelope], known)
            report_failures(known, "envelope inputs, untimed")
            setups = setup_seconds(args.workload, args.seed, outdir)
            print(f"setup runs (s): {[round(s, 4) for s in setups]}")
            passes, outcomes = measure(work, envelope, args.seconds)
            outcomes.merge(known)
            report_failures(outcomes, "run")
            best = best_times(passes)
            tail_s = float(numpy.percentile(best, TAIL_PERCENTILE))
            beyond = sum(t > tail_s for t in best)
            print(f"passes: {len(passes)} over {len(work)} inputs; op times are each input's "
                  f"fastest call in the run; op_tail_ms is p{TAIL_PERCENTILE:g} of the "
                  f"{len(best)} inputs' times, {beyond} beyond it")
            values = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (len(best) / sum(best), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(best), "ms"),
                "op_tail_ms": (1e3 * tail_s, "ms"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
                ),
            }

    for name, (value, unit) in values.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not outcomes.regressions,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
