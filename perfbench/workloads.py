"""Workloads of the fepkit benchmark: seeded inputs, operations and checks.

A workload is a fixed list of operations built from the seed.  One pass runs
every operation once, in an order the seed shuffles; a run repeats passes.
Each operation's output is checked against a reference that does not come
from the operation itself: the planted Jordan structure, the closed-form
degeneracy catalog and dispersions, and the acceptance criteria's gates.

The robustness envelope is the set of inputs on which fepkit fails today,
recorded per input in ``envelope.json`` by ``envelope.py``.  run.py times
only the other inputs, on which no operation fails; it runs the envelope
inputs once per run and counts their failures by kind.  A failure of any
other input makes a run incorrect.  So that every seed's inputs are covered
by that record, the planted matrices are drawn by the seed from a fixed pool.

Why each workload (also in BENCHMARK.json):

* planted-envelope: nearly all work in classify, adjugate and matkit, on
  matrices larger than the catalog's; the only workload that runs the
  Weyr-only route (rank of matrix powers) at scale; it holds the robustness
  envelope.
* zone-scan: time goes to scan (model-scale probe, detector grid, refinement,
  min_abs_energy), to Bloch matrices in models and to cli serialization;
  classification sees only 3x3 and 4x4 matrices; never touches the hinge
  code or the Weyr-only route.
* hinge-open: time goes to models.hinge_hamiltonian and to the dense and
  sparse eigensolves in probes; no scans and almost no modal classification.
  20x20 hinge systems (criterion 9) take about 50 s per pass, so 10x10 and
  12x12 are used; criterion 9's gates hold at both.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import fepkit.classify as fclassify
import fepkit.cli as fcli
import fepkit.probes as fprobes
from fepkit.models import HingeGeometry, HodsmSpec, hodsm_closed_dispersion, model_from_id
from fepkit.scan import analytic_degeneracies
from fepkit.selftest import FIGURE_EPS, planted_jordan, random_partition

PI = math.pi
K_TOL = 1e-6  # periodic distance within which a scan candidate matches a catalog point


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns None or why the output is wrong.

    A pass calls ``run`` ``repeat`` times back to back and keeps the fastest.
    """

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    repeat: int = 1


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    out_path: str | None

    def text(self) -> str:
        if self.out_path is None:
            return self.stdout
        with open(self.out_path) as fh:
            return fh.read()

    def bytes_out(self) -> int:
        n = len(self.stdout.encode())
        if self.out_path is not None and os.path.exists(self.out_path):
            n += os.path.getsize(self.out_path)
        return n


# ---------------------------------------------------------------------------
# planted-envelope

DIMS = (8, 12, 16, 24, 36)
CONDS = (1e1, 1e2, 1e3)
POOL_PER_CELL = 48  # plants per (n, cond) in the fixed pool
PLANTS_PER_CELL = 16  # of which the seed draws this many into a pass
POOL_SEED = 2507
METHODS = ("auto", "weyr")


def _classify(a: np.ndarray, method: str):
    return fclassify.classify_point(a, 0.0, method=method)


def _check_partials(want: tuple[int, ...], report) -> str | None:
    if tuple(report.partials) == want:
        return None
    return f"partials {tuple(report.partials)}, planted {want}"


def planted_envelope(rng: np.random.Generator | None, outdir: str) -> list[Op]:
    ops = []
    for n in DIMS:
        for c, cond in enumerate(CONDS):
            if rng is None:
                plants = range(POOL_PER_CELL)
            else:
                plants = sorted(rng.choice(POOL_PER_CELL, PLANTS_PER_CELL, replace=False))
            for j in plants:
                plant_rng = np.random.default_rng([POOL_SEED, n, c, int(j)])
                sizes = random_partition(plant_rng, int(plant_rng.integers(1, n + 1)))
                a = planted_jordan(plant_rng, n, sizes, cond)
                want = tuple(sorted(sizes, reverse=True))
                for method in METHODS:
                    ops.append(
                        Op(
                            kind=f"classify-{method}",
                            label=f"n={n} cond={cond:g} plant={j} method={method}",
                            run=partial(_classify, a, method),
                            check=partial(_check_partials, want),
                        )
                    )
    return ops


# ---------------------------------------------------------------------------
# zone-scan

S2 = repr(2**-0.5)
README_EPS = "0.70710678"

LIEB_SCANS = (
    ("lieb:hermitian", ()),
    ("lieb:nh-symmetric", ("--eps", "1")),
    ("lieb:minimal-fep", ("--eps", "1")),
    ("lieb:reciprocal", ("--phi", "pi/2", "--psi", "3pi/4")),
)
HODSM_SCANS = (
    ("hodsm:h", ()),
    ("hodsm:nh1", ("--eps", S2)),
    ("hodsm:nh2", ("--eps", S2)),
    ("hodsm:nh3", ("--eps", repr(FIGURE_EPS[3]))),
    ("hodsm:nh4", ("--eps", repr(FIGURE_EPS[4]))),
    ("hodsm:nh1", ("--eps", README_EPS)),
    ("hodsm:nh2", ("--eps", README_EPS)),
)
HODSM_GRIDS = (32, 48)

# (model flags, --k or --kz flag, expected (alpha, gamma, partials)), from
# acceptance criteria 1 and 3
CLASSIFY_POINTS = (
    (("lieb:hermitian",), ("--k", "pi,pi"), (3, 3, (1, 1, 1))),
    (("lieb:nh-symmetric", "--eps", "1"), ("--k", "2pi/3,2pi/3"), (3, 1, (3,))),
    (("lieb:minimal-fep", "--eps", "1"), ("--k", "pi,pi"), (3, 2, (2, 1))),
    (("hodsm:h",), ("--kz", "pi/2"), (4, 4, (1, 1, 1, 1))),
    (("hodsm:nh1", "--eps", S2), ("--kz", "pi/2"), (2, 2, (1, 1))),
    (("hodsm:nh1", "--eps", S2), ("--kz", "pi/4"), (4, 1, (4,))),
    (("hodsm:nh2", "--eps", S2), ("--kz", "pi/2"), (4, 2, (3, 1))),
    (("hodsm:nh3", "--eps", "0.5"), ("--kz", "pi/2"), (4, 2, (2, 2))),
    (("hodsm:nh3", "--eps", "0.5"), ("--kz", "pi/4"), (2, 1, (2,))),
    (("hodsm:nh4", "--eps", repr(FIGURE_EPS[4])), ("--kz", "pi/2"), (4, 3, (2, 1, 1))),
    (("hodsm:nh4", "--eps", repr(FIGURE_EPS[4])), ("--kz", "3pi/4"), (2, 1, (2,))),
)


def _run_cli(argv: list[str], out_path: str | None = None) -> CliResult:
    stdout, stderr = io.StringIO(), io.StringIO()
    if out_path is not None:
        argv = argv + ["--out", out_path]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = fcli.main(argv)
    return CliResult(code, stdout.getvalue(), stderr.getvalue(), out_path)


def _periodic_distance(a, b) -> float:
    return math.sqrt(
        sum((PI - abs(abs(x - y) % (2 * PI) - PI)) ** 2 for x, y in zip(a, b))
    )


def _fingerprint(doc) -> tuple:
    return doc["alpha"], doc["gamma"], tuple(doc["partials"])


def _model_params(flags: tuple[str, ...]) -> dict:
    params = {}
    for name, value in zip(flags[::2], flags[1::2]):
        key = name.lstrip("-")
        params[key] = fcli.parse_angle(value) if key in ("phi", "psi") else float(value)
    return params


def _check_scan(expected, res: CliResult) -> str | None:
    cands = json.loads(res.text())["candidates"]
    for k, want in expected:
        hit = [
            c for c in cands
            if _periodic_distance(c["k"], k) <= K_TOL and _fingerprint(c["report"]) == want
        ]
        if not hit:
            return f"catalog point {tuple(round(x, 6) for x in k)} {want} not found"
    return None


def _check_ring(lines: bool, res: CliResult) -> str | None:
    samples = json.loads(res.text())["samples"]
    labels = [s["label"] for s in samples]
    feps = sorted(tuple(s["k"]) for s in samples if s["label"] == "FEP")
    if lines:
        if len(samples) != 256 or any(s["alpha"] != 3 for s in samples):
            return f"{len(samples)} line samples, or one with alpha != 3"
        want_k = [(-PI / 2, -PI / 2), (PI / 2, PI / 2)]
        if labels.count("FEP") + labels.count("EP3") != len(labels):
            return f"line labels {sorted(set(labels))}"
    else:
        if labels.count("EP3") != 62 or labels.count("FEP") != 2 or len(labels) != 64:
            return f"ring labels EP3={labels.count('EP3')} FEP={labels.count('FEP')}"
        want_k = [(-PI / 4, -PI / 4), (PI / 4, PI / 4)]
    if len(feps) != 2 or any(
        max(abs(a - b) for a, b in zip(got, want)) > 1e-8 for got, want in zip(feps, want_k)
    ):
        return f"FEP samples at {feps}"
    return None


def _reciprocal_min_abs_e(phi: float, psi: float, res: int) -> np.ndarray:
    # chiral three-band Lieb: E = 0 or E**2 = PQ + RS
    ks = np.linspace(-PI, PI, res, endpoint=False)
    kx, ky = np.meshgrid(ks, ks, indexing="ij")
    p = np.exp(1j * ky) - np.exp(1j * phi)
    q = np.exp(-1j * ky) - np.exp(1j * phi)
    r = np.exp(-1j * kx) - np.exp(1j * psi)
    s = np.exp(1j * kx) - np.exp(1j * psi)
    return np.sqrt(np.abs(p * q + r * s)).ravel()


def _check_contour(ref: np.ndarray, res: CliResult) -> str | None:
    rows = list(csv.reader(io.StringIO(res.text())))
    if rows[0] != ["kx", "ky", "min_abs_E"] or len(rows) - 1 != ref.size:
        return f"contour has {len(rows) - 1} rows, want {ref.size}"
    got = np.array([float(r[2]) for r in rows[1:]])
    err = np.abs(got - ref)
    worst = int(np.argmax(err - 1e-6 * ref))
    # an EP3 on the grid splits as the cube root of rounding error
    if err[worst] > 1e-5 + 1e-6 * ref[worst]:
        return f"contour row {worst}: min |E| {got[worst]:.6g}, closed form {ref[worst]:.6g}"
    return None


def _check_band(kzs: np.ndarray, ref: list[np.ndarray], res: CliResult) -> str | None:
    rows = list(csv.reader(io.StringIO(res.text())))
    body = rows[1:]
    if len(body) != 4 * len(kzs):
        return f"band has {len(body)} rows, want {4 * len(kzs)}"
    for i, (kz, want) in enumerate(zip(kzs, ref)):
        block = body[4 * i : 4 * i + 4]
        if any(abs(float(r[2]) - kz) > 1e-12 for r in block):
            return f"band block {i} is not at kz = {kz}"
        got = np.array([complex(float(r[4]), float(r[5])) for r in block])
        gap = max(
            np.max(np.min(np.abs(got[:, None] - want[None, :]), axis=1)),
            np.max(np.min(np.abs(want[:, None] - got[None, :]), axis=1)),
        )
        if gap > 1e-6:
            return f"band at kz = {kz:.6f} is {gap:.2e} from the closed-form dispersion"
    return None


def _check_classify(want, res: CliResult) -> str | None:
    got = _fingerprint(json.loads(res.text()))
    return None if got == want else f"fingerprint {got}, want {want}"


def _cli_op(kind, argv, check, out_path=None) -> Op:
    return Op(
        kind=kind,
        label=" ".join(argv),
        run=partial(_run_cli, list(argv), out_path),
        check=check,
    )


def zone_scan(rng: np.random.Generator | None, outdir: str) -> list[Op]:
    ops = []
    scans = [(m, f, 128) for m, f in LIEB_SCANS]
    scans += [(m, f, g) for g in HODSM_GRIDS for m, f in HODSM_SCANS]
    for model_id, flags, grid in scans:
        expected = [
            (e.k, (e.alpha, e.gamma, e.partials))
            for e in analytic_degeneracies(model_from_id(model_id, **_model_params(flags)))
        ]
        argv = ["scan", "--model", model_id, *flags, "--grid", str(grid)]
        ops.append(_cli_op("scan", argv, partial(_check_scan, expected)))

    for angle, samples, lines in (("pi/4", 64, False), ("pi/2", 256, True)):
        argv = ["ring", "--model", "lieb:reciprocal", "--phi", angle, "--psi", angle,
                "--samples", str(samples)]
        ops.append(_cli_op("ring", argv, partial(_check_ring, lines)))

    argv = ["contour", "--model", "lieb:reciprocal", "--phi", "pi/4", "--psi", "pi/4",
            "--grid", "128"]
    ref = _reciprocal_min_abs_e(PI / 4, PI / 4, 128)
    ops.append(_cli_op("contour", argv, partial(_check_contour, ref),
                       out_path=os.path.join(outdir, "contour.csv")))

    eps = float(README_EPS)
    kzs = np.linspace(-PI, PI, 401)
    bands = [hodsm_closed_dispersion(HodsmSpec(2, epsilon=eps), float(kz)) for kz in kzs]
    argv = ["band", "--model", "hodsm:nh2", "--eps", README_EPS, "--path", "kz=-pi:pi:401"]
    ops.append(_cli_op("band", argv, partial(_check_band, kzs, bands),
                       out_path=os.path.join(outdir, "bands.csv")))

    points = CLASSIFY_POINTS if rng is None else [CLASSIFY_POINTS[rng.integers(len(CLASSIFY_POINTS))]]
    for model, point, want in points:
        argv = ["classify", "--model", *model, *point]
        ops.append(_cli_op("classify", argv, partial(_check_classify, want)))
    return ops


# ---------------------------------------------------------------------------
# hinge-open

HINGE_CELLS = (10, 12)
# ARPACK starts each sparse eigensolve of a decay fit from a fresh random
# vector, so one fit's time varies from call to call by up to 3x
DECAY_REPEAT = 4
GRAM_RANK = {0: 4, 1: 1, 2: 2, 3: 2, 4: 3}  # criterion 9
ATOMISTIC_PARTIALS = {0: (1, 1, 1, 1), 1: (1, 1), 2: (3, 1), 3: (2, 2), 4: (2, 1, 1)}  # criterion 8


def _check_hinge(variant: int, rep) -> str | None:
    if rep.gram_rank != GRAM_RANK[variant]:
        return f"gram rank {rep.gram_rank}, want {GRAM_RANK[variant]}"
    if not rep.gap_ratio >= 5.0:
        return f"gap ratio {rep.gap_ratio:.3f} < 5"
    sums = rep.intensity_maps.reshape(4, -1).sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        return f"intensity maps sum to {sums.tolist()}"
    return None


def _check_passed(res) -> str | None:
    return None if res.passed else f"{res.kind} failed: {res.witness}"


def _check_ratio(want: float, tol: float, fit) -> str | None:
    return None if abs(fit.ratio - want) <= tol else f"ratio {fit.ratio:.5f}, want {want} +- {tol}"


def _check_atomistic(want, report) -> str | None:
    return None if tuple(report.partials) == want else f"partials {report.partials}, want {want}"


def _call(name: str, *args):
    return getattr(fprobes, name)(*args)


def hinge_open(rng: np.random.Generator | None, outdir: str) -> list[Op]:
    ops = []
    for cells in HINGE_CELLS:
        geom = HingeGeometry(cells, cells, kz=0.0)
        for v in range(5):
            spec = HodsmSpec(v, epsilon=FIGURE_EPS[v])
            ops.append(Op("hinge_report", f"hinge_report v{v} {cells}x{cells}",
                          partial(_call, "hinge_report", spec, geom), partial(_check_hinge, v)))
        ops.append(Op("symmetry_check", f"kramers v0 {cells}x{cells}",
                      partial(_call, "symmetry_check", HodsmSpec(0), "kramers", geom),
                      _check_passed))

    # criterion 10
    tall, wide = HingeGeometry(10, 34, kz=0.0), HingeGeometry(34, 10, kz=0.0)
    v0, v1 = HodsmSpec(0, t=-1.0, s=1.0), HodsmSpec(1, t=-1.0, s=1.0, epsilon=0.25)
    fits = [(v0, g, c, ax, 0.5, 0.05) for c in ("A", "B") for g, ax in ((tall, "y"), (wide, "x"))]
    fits += [(v1, tall, "B", "y", 0.25, 0.025), (v1, wide, "B", "x", 0.5, 0.05)]
    for spec, geom, corner, axis, want, tol in fits:
        ops.append(Op("decay_rate_fit",
                      f"decay v{spec.variant} {geom.nx}x{geom.ny} corner {corner} axis {axis}",
                      partial(_call, "decay_rate_fit", spec, geom, corner, axis),
                      partial(_check_ratio, want, tol), repeat=DECAY_REPEAT))

    # criterion 8
    for v, want in ATOMISTIC_PARTIALS.items():
        spec = HodsmSpec(v, t=-0.5, s=1.0, epsilon=FIGURE_EPS[v])
        ops.append(Op("atomistic_classify", f"atomistic v{v} cells=3",
                      partial(_call, "atomistic_classify", spec), partial(_check_atomistic, want)))
    return ops


WORKLOADS = {
    "planted-envelope": planted_envelope,
    "zone-scan": zone_scan,
    "hinge-open": hinge_open,
}


def build(workload: str, seed: int, outdir: str) -> list[Op]:
    """The workload's operations for one pass, drawn and ordered by the seed."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[workload](rng, outdir)
    return [ops[i] for i in rng.permutation(len(ops))]


def pool(workload: str, outdir: str) -> list[Op]:
    """Every operation any seed can draw into a pass of the workload."""
    return WORKLOADS[workload](None, outdir)
