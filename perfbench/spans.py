"""Span tracing of fepkit's layers from outside the package.

Each layer is one fepkit module.  For a traced run the public functions that
the modules call into one another are rebound, in every fepkit module that
refers to them, to wrappers that record a span (name, start, end, parent,
operation id, exception type, length of a returned list).  Untraced runs
execute the package exactly as shipped.  Spans stay in memory; the per-layer
metrics are derived from them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass

#: layer (module name) -> the functions of that module whose calls are spans
TRACED = {
    "matkit": ("as_square_matrix", "numerical_rank", "spectral_norm"),
    "adjugate": ("flv_modes", "response_strengths"),
    "classify": (
        "classify_point",
        "weyr_oracle",
        "partial_multiplicities",
        "algebraic_multiplicity",
    ),
    "models": ("lieb_bloch", "hodsm_bloch", "hinge_hamiltonian"),
    "scan": ("bz_scan", "refine_degeneracy", "min_abs_energy", "trace_ring"),
    "probes": ("hinge_report", "decay_rate_fit", "atomistic_classify", "symmetry_check"),
    "cli": ("main",),
}

FEPKIT_MODULES = ("fepkit",) + tuple(f"fepkit.{m}" for m in (*TRACED, "selftest"))


@dataclass
class Span:
    name: str  # "layer.function"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    op: int  # operation the span belongs to
    raised: str | None  # exception type name when the call raised
    returned: int | None  # length of the returned list, when the call returned one

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``attach`` rebinds fepkit's functions for its lifetime."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = returned = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, list):
                    returned = len(result)
                return result
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op, raised, returned)

        return traced

    @contextlib.contextmanager
    def attach(self):
        modules = [importlib.import_module(m) for m in FEPKIT_MODULES]
        saved: list[tuple[object, str, object]] = []
        try:
            for layer, names in TRACED.items():
                home = importlib.import_module(f"fepkit.{layer}")
                for fname in names:
                    orig = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                saved.append((mod, attr, orig))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one pass, named as in BENCHMARK.json."""
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child_time[s.parent] += s.duration
            children.setdefault(s.parent, []).append(i)

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_fn: dict[str, float] = {}
    self_by_layer: dict[str, float] = {layer: 0.0 for layer in TRACED}
    for i, s in enumerate(spans):
        own = s.duration - child_time[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_by_fn[s.name] = self_by_fn.get(s.name, 0.0) + own
        self_by_layer[s.name.split(".")[0]] += own

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    # route of each classify_point call: whichever of the modal recursion and
    # the rank-of-powers oracle it entered first
    weyr_route = 0
    raised: dict[str, int] = {}
    for i, s in enumerate(spans):
        if s.name != "classify.classify_point":
            continue
        first = next(
            (
                spans[c].name
                for c in children.get(i, ())
                if spans[c].name in ("adjugate.flv_modes", "classify.weyr_oracle")
            ),
            None,
        )
        weyr_route += first == "classify.weyr_oracle"
        if s.raised:
            raised[s.raised] = raised.get(s.raised, 0) + 1

    # candidates kept / refinements attempted, over the scans that returned
    # their candidate list; a scan that raised has no kept count
    kept = refined = 0
    for i, s in enumerate(spans):
        if s.name == "scan.bz_scan" and s.returned is not None:
            kept += s.returned
            refined += sum(spans[c].name == "scan.refine_degeneracy" for c in children.get(i, ()))

    out = {
        "matkit.svd_calls": n("matkit.numerical_rank") + n("matkit.spectral_norm"),
        "matkit.validate_calls": n("matkit.as_square_matrix"),
        "matkit.self_s": self_by_layer["matkit"],
        "adjugate.flv_calls": n("adjugate.flv_modes"),
        "adjugate.flv_s": t("adjugate.flv_modes"),
        "adjugate.strengths_s": t("adjugate.response_strengths"),
        "classify.calls": n("classify.classify_point"),
        "classify.self_s": self_by_layer["classify"],
        "classify.weyr_calls": n("classify.weyr_oracle"),
        "classify.weyr_s": t("classify.weyr_oracle"),
        "classify.weyr_route_frac": ratio(weyr_route, n("classify.classify_point")),
        "classify.raised": sum(raised.values()),
    }
    for exc in ("InconsistentRanksError", "NotAnEigenvalueError", "OracleDisagreementError"):
        out[f"classify.raised.{exc}"] = raised.pop(exc, 0)
    out["classify.raised.other"] = sum(raised.values())
    out.update(
        {
            "models.bloch_calls": n("models.lieb_bloch") + n("models.hodsm_bloch"),
            "models.bloch_s": t("models.lieb_bloch") + t("models.hodsm_bloch"),
            "models.hinge_build_s": t("models.hinge_hamiltonian"),
            "scan.bz_scan_self_s": self_by_fn.get("scan.bz_scan", 0.0),
            "scan.refine_calls": n("scan.refine_degeneracy"),
            "scan.refine_s": t("scan.refine_degeneracy"),
            "scan.refine_kept_frac": ratio(kept, refined),
            "scan.min_abs_energy_calls": n("scan.min_abs_energy"),
            "scan.min_abs_energy_s": t("scan.min_abs_energy"),
            "scan.trace_ring_self_s": self_by_fn.get("scan.trace_ring", 0.0),
            "probes.hinge_report_self_s": self_by_fn.get("probes.hinge_report", 0.0),
            "probes.decay_fit_self_s": self_by_fn.get("probes.decay_rate_fit", 0.0),
            "probes.atomistic_self_s": self_by_fn.get("probes.atomistic_classify", 0.0),
            "cli.self_s": self_by_layer["cli"],
        }
    )
    return out
