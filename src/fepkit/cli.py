"""Command-line front door: classification, scans, band/contour data, probes.

Artifacts are plain CSV and JSON meant for external plotting.  JSON output is
deterministic apart from the ``timestamp`` field: keys appear in a fixed
order and floats carry 17 significant digits.  Files are written atomically
(temp file plus rename).

Angle-valued flags accept radians or "pi arithmetic": ``pi``, ``-pi/2``,
``3pi/4``, ``0.75``, ``1e-3``.  Derived angles (arccos and the like) must be
passed numerically.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from .classify import DegeneracyReport, OracleDisagreementError, classify_point
from .matkit import CK_REL, TolerancePolicy
from .models import (
    MODEL_IDS,
    HingeGeometry,
    HodsmSpec,
    LiebSpec,
    bloch_matrix,
    model_from_id,
)
from .probes import (
    atomistic_classify,
    decay_rate_fit,
    hinge_report,
    lineshape_exponent,
    splitting_exponent,
    symmetry_check,
)
from .scan import bz_scan, min_abs_energy, trace_ring

__all__ = ["main", "parse_angle", "dumps_canonical"]

# a decimal or exponent literal; inf and nan parse, to be refused as not finite
_NUMBER = r"(?:(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|inf|nan)"
_ANGLE_RE = re.compile(rf"^([+-]?)({_NUMBER})?(pi)?(?:/({_NUMBER}))?$")


def parse_angle(text: str) -> float:
    """Parse 'pi', '-pi/2', '3pi/4', '2pi/3', or a finite number such as '1e-3', to radians."""
    s = text.strip().replace(" ", "")
    m = _ANGLE_RE.match(s)
    if not m or (m.group(2) is None and m.group(3) is None):
        raise ValueError(f"cannot parse angle {text!r} (radians or pi fractions only)")
    coeff, denominator = float(m.group(2) or 1.0), float(m.group(4) or 1.0)
    if denominator == 0:
        raise ValueError(f"cannot parse angle {text!r} (zero denominator)")
    value = coeff * (math.pi if m.group(3) else 1.0) / denominator
    if not all(map(math.isfinite, (coeff, denominator, value))):
        raise ValueError(f"cannot parse angle {text!r} (not finite)")
    return -value if m.group(1) == "-" else value


def _angle_flag(text: str) -> float:
    """``parse_angle`` as an argparse type: a refusal keeps its own reason."""
    try:
        return parse_angle(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_k(text: str) -> tuple[float, ...]:
    return tuple(parse_angle(part) for part in text.split(","))


def _fmt_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{k}": {dumps_canonical(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dumps_canonical(v, indent + 1) for v in obj]
        if all(not isinstance(v, (dict, list, tuple)) for v in obj) and len(parts) <= 8:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fepkit-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _complex_json(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _policy_json(policy: TolerancePolicy) -> dict:
    # the two thresholds a classification reads
    return {"rank_rel": policy.rank_rel, "ck_rel": CK_REL}


def report_json(report: DegeneracyReport, model: dict) -> dict:
    k = report.k_point
    return {
        "k": list(k) if k is not None else None,
        "energy": _complex_json(report.energy),
        "alpha": report.alpha,
        "gamma": report.gamma,
        "ell": report.ell,
        "beta": {str(l): c for l, c in sorted(report.beta.beta.items())},
        "partials": list(report.partials),
        "label": report.label,
        "eta": report.eta,
        "xi": report.xi,
        "policy": _policy_json(report.policy),
        "model": model,
    }


def _policy_from_args(args) -> TolerancePolicy:
    """The tolerance flags given, the defaults for the rest."""
    rank, cluster = getattr(args, "rank_tol", None), getattr(args, "cluster_tol", None)
    given = {"rank_rel": rank, "cluster_tol": cluster}
    return TolerancePolicy(**{k: v for k, v in given.items() if v is not None})


# the model parameter flags every model verb takes, with their types
_PARAMS = {"eps": float, "t": float, "s": float, "phi": _angle_flag, "psi": _angle_flag}


def _model(args) -> tuple[LiebSpec | HodsmSpec, dict]:
    """The model the flags name, and its echo: the id and the parameters given."""
    params = {k: getattr(args, k) for k in _PARAMS if getattr(args, k) is not None}
    model = model_from_id(args.model, **params)
    if isinstance(model, LiebSpec) and getattr(args, "kz", None) is not None:
        raise ValueError("lieb models are two-dimensional and take no --kz")
    return model, {"id": args.model, **params}


def _model_k(args, model) -> tuple[float, ...]:
    """``--k`` checked against the model's dimension; on a semimetal ``--kz x`` means (0, 0, x)."""
    if isinstance(model, LiebSpec):
        k = parse_k(args.k) if args.k else None
        if k is None or len(k) != 2:
            raise ValueError("lieb models need --k kx,ky")
        return k
    if not args.k:
        if args.kz is None:
            raise ValueError("hodsm models need --k or --kz")
        return (0.0, 0.0, args.kz)
    if args.kz is not None:
        raise ValueError("give --k kx,ky,kz or --kz, not both")
    k = parse_k(args.k)
    if len(k) != 3:
        raise ValueError("hodsm models need --k kx,ky,kz (or just --kz)")
    return k


def _point_report(args, model, policy) -> tuple[np.ndarray, DegeneracyReport]:
    """The Bloch matrix at the flags' momentum and its report at ``--energy`` (default 0)."""
    k = _model_k(args, model)
    h = bloch_matrix(model, k)
    energy = complex(args.energy) if args.energy is not None else 0j
    return h, classify_point(h, energy, policy, k_point=k)


def _geometry(args) -> HingeGeometry:
    return HingeGeometry(nx=args.nx, ny=args.ny, kz=args.kz or 0.0)


def _csv(rows, header: str) -> str:
    lines = [header]
    lines += [",".join([_fmt_float(x) if isinstance(x, float) else str(x) for x in row]) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verbs: each maps the parsed flags, the model and its echo to one document,
# CSV text or a JSON dict, which ``main`` writes


def _cmd_classify(args, model, echo) -> dict:
    _, report = _point_report(args, model, _policy_from_args(args))
    return report_json(report, echo)


def _cmd_band(args, model, echo) -> str:
    axis, start, stop, count = args.path
    if count < 1:
        raise ValueError(f"path count must be at least 1, got {count}")
    dims = model.dims
    names = ("kx", "ky", "kz")[:dims]
    if axis not in names:
        raise ValueError(f"path axis {axis!r} not in {names}")
    fixed = list(parse_k(args.k)) if args.k else [0.0] * dims
    if len(fixed) != dims:
        raise ValueError(f"--k must give {dims} components")
    k = np.zeros((3, count))
    k[:dims] = np.asarray(fixed, dtype=float)[:, None]
    k[names.index(axis)] = np.linspace(start, stop, count)
    ev = np.linalg.eigvals(bloch_matrix(model, k[:dims]))
    ev = np.take_along_axis(ev, np.lexsort((ev.imag, ev.real), axis=-1), axis=-1)
    rows = [
        (kx, ky, kz, idx, e.real, e.imag)
        for (kx, ky, kz), bands in zip(k.T.tolist(), ev.tolist())
        for idx, e in enumerate(bands)
    ]
    return _csv(rows, "kx,ky,kz,band_index,re_E,im_E")


def _cmd_contour(args, model, echo) -> str:
    if args.grid < 1:
        raise ValueError(f"grid must be at least 1, got {args.grid}")
    ks = np.linspace(-math.pi, math.pi, args.grid, endpoint=False)
    kx, ky = np.meshgrid(ks, ks, indexing="ij")
    k = (kx, ky) if model.dims == 2 else (kx, ky, np.full_like(kx, args.kz or 0.0))
    energies = [_fmt_float(e) for e in min_abs_energy(model, k).ravel().tolist()]
    axis = [_fmt_float(x) for x in ks.tolist()]  # kx and ky take only these values
    rows = [f"{x},{y},{e}" for (x, y), e in zip(itertools.product(axis, axis), energies)]
    return "\n".join(["kx,ky,min_abs_E", *rows]) + "\n"


def _cmd_scan(args, model, echo) -> dict:
    reports = bz_scan(model, args.grid, _policy_from_args(args))
    return {
        "model": echo,
        "grid": {"dims": model.dims, "resolution": [args.grid] * model.dims},
        "candidates": [
            {
                "k": list(r.k_point),
                "min_abs_energy": min_abs_energy(model, r.k_point),
                # bz_scan returns converged refinements only; the field stays
                # so that the output keeps its shape
                "refined": True,
                "report": report_json(r, echo),
            }
            for r in reports
        ],
    }


def _cmd_ring(args, model, echo) -> dict:
    policy = _policy_from_args(args)
    if not isinstance(model, LiebSpec) or model.variant != "reciprocal":
        raise ValueError("ring tracing needs --model lieb:reciprocal")
    reports = trace_ring(model, args.samples, policy)
    return {
        "model": echo,
        "samples": [
            {
                "k": list(r.k_point),
                "alpha": r.alpha,
                "gamma": r.gamma,
                "partials": list(r.partials),
                "label": r.label,
            }
            for r in reports
        ],
    }


def _cmd_hinge(args, model, echo) -> dict:
    if not isinstance(model, HodsmSpec):
        raise ValueError("hinge systems exist for hodsm models only")
    geom = _geometry(args)
    rep = hinge_report(model, geom)
    if args.out:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        for i, intensity in enumerate(rep.intensity_maps):
            rows = [
                (x + 1, y + 1, float(intensity[x, y]))
                for x in range(geom.nx)
                for y in range(geom.ny)
            ]
            _write_atomic(f"{stem}_state{i}.csv", _csv(rows, "x,y,intensity"))
    return {
        "model": echo,
        "nx": geom.nx,
        "ny": geom.ny,
        "kz": geom.kz,
        "low_energies": [_complex_json(z) for z in rep.low_energies],
        "gap_ratio": rep.gap_ratio,
        "gram": [[float(x) for x in row] for row in rep.gram],
        "gram_rank": rep.gram_rank,
    }


# the optional flags each probe kind reads; any other one exits 2.  The
# Bloch-level symmetry kinds sample momenta and read none of them.
_OPEN = ("--nx", "--ny", "--kz")
_FIT = ("--k", "--kz", "--energy", "--rank-tol", "--cluster-tol")
PROBE_FLAGS = {
    "lineshape": _FIT,
    "splitting": _FIT,
    "decay": _OPEN + ("--corner", "--axis"),
    "atomistic": ("--rank-tol",),
    "chiral": (),
    "rotation-c4": (),
    "kramers": _OPEN + ("--cluster-tol",),
    "sum-rule-ba": _OPEN,
    "sum-rule-cd": _OPEN,
    "reflection": _OPEN,
    "transposition": _OPEN,
}


def _refuse_unread_probe_flags(args) -> None:
    kind = args.kind
    unread = [
        flag
        for flag in dict.fromkeys(itertools.chain(*PROBE_FLAGS.values()))
        if flag not in PROBE_FLAGS[kind] and getattr(args, flag[2:].replace("-", "_")) is not None
    ]
    if unread:
        raise ValueError(f"the {kind} probe does not read {', '.join(unread)}")


def _cmd_probe(args, model, echo) -> dict:
    kind = args.kind
    policy = _policy_from_args(args)
    doc: dict = {"kind": kind, "model": echo}
    if kind in ("decay", "atomistic") and not isinstance(model, HodsmSpec):
        raise ValueError(f"the {kind} probe needs a hodsm model")
    if kind in ("lineshape", "splitting"):
        h, report = _point_report(args, model, policy)
        if kind == "lineshape":
            fit = lineshape_exponent(h, report.energy, policy)
            expected = -2.0 * report.ell
        else:
            fit = splitting_exponent(h, report.energy, policy)
            expected = 1.0 / report.ell
        doc.update(
            {
                "k": list(report.k_point),
                "ell": report.ell,
                "slope": fit.slope,
                "expected_slope": expected,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "window": list(fit.window),
            }
        )
        if fit.mean_slope is not None:
            doc["mean_slope"] = fit.mean_slope
    elif kind == "decay":
        if args.nx is None or args.ny is None:
            raise ValueError("the decay probe needs --nx and --ny")
        fit = decay_rate_fit(model, _geometry(args), args.corner or "B", args.axis or "y")
        doc.update(
            {
                "corner": fit.corner,
                "axis": fit.axis,
                "ratio": fit.ratio,
                "r_squared": fit.r_squared,
                "cells": list(fit.cells),
            }
        )
    elif kind == "atomistic":
        doc["report"] = report_json(atomistic_classify(model, policy), echo)
    else:  # a symmetry kind
        if (args.nx is None) != (args.ny is None):
            raise ValueError(f"the {kind} probe needs both --nx and --ny, or neither")
        geom = None if args.nx is None else _geometry(args)
        res = symmetry_check(model, kind, geom, policy)
        doc.update(
            {
                "passed": res.passed,
                "max_violation": res.max_violation,
                "witness": res.witness,
            }
        )
    return doc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fepkit",
        description="classify non-Hermitian degeneracies of lattice models",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    # flags that only some verbs read; each verb names the ones it takes
    optional = {
        "--k": dict(type=str, help="comma-separated momenta (pi fractions ok)"),
        "--kz": dict(type=_angle_flag),
        "--rank-tol": dict(type=float),
        "--cluster-tol": dict(type=float),
    }

    def verb(name, summary, *flags):
        # no prefix matching: --k given to a verb without it must not become --kz
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--model", required=True, choices=MODEL_IDS)
        for param, kind in _PARAMS.items():
            p.add_argument(f"--{param}", type=kind, default=None)
        for flag in flags:
            p.add_argument(flag, default=None, **optional[flag])
        p.add_argument("--out", type=str, default=None)
        return p

    p = verb("classify", "degeneracy report at one momentum", "--k", "--kz", "--rank-tol")
    p.add_argument("--energy", type=float, default=None)
    p.set_defaults(func=_cmd_classify)

    p = verb("band", "complex bands along a momentum path (CSV)", "--k")
    p.add_argument(
        "--path",
        required=True,
        type=_parse_path,
        help="axis=start:stop:count, e.g. kz=-pi:pi:401",
    )
    p.set_defaults(func=_cmd_band)

    p = verb("contour", "min dispersive |E| on a 2D grid (CSV)", "--kz")
    p.add_argument("--grid", type=int, default=128)
    p.set_defaults(func=_cmd_contour)

    p = verb("scan", "find and classify zone degeneracies (JSON)", "--rank-tol")
    p.add_argument("--grid", type=int, default=128)
    p.set_defaults(func=_cmd_scan)

    p = verb("ring", "classify exceptional-ring samples (JSON)", "--rank-tol")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=_cmd_ring)

    p = verb("hinge", "open-boundary hinge report (JSON + CSVs)", "--kz")
    p.add_argument("--nx", type=int, default=20)
    p.add_argument("--ny", type=int, default=20)
    p.set_defaults(func=_cmd_hinge)

    # one parser for every kind; main refuses the flags a kind does not read
    p = verb("probe", "response/decay/symmetry probes (JSON)", *optional)
    p.add_argument("--kind", required=True, choices=tuple(PROBE_FLAGS))
    p.add_argument("--energy", type=float, default=None)
    p.add_argument("--corner", choices=("A", "B", "C", "D"), default=None)
    p.add_argument("--axis", choices=("x", "y"), default=None)
    p.add_argument("--nx", type=int, default=None)
    p.add_argument("--ny", type=int, default=None)
    p.set_defaults(func=_cmd_probe)

    sub.add_parser("selftest", help="run the acceptance checks")

    return parser


def _parse_path(text: str) -> tuple[str, float, float, int]:
    axis, _, spec = text.partition("=")
    parts = spec.split(":")
    if not axis or len(parts) != 3:
        raise argparse.ArgumentTypeError(f"bad path {text!r}; use axis=start:stop:count")
    return axis, _angle_flag(parts[0]), _angle_flag(parts[1]), int(parts[2])


def _bind_dashed_values(argv: list[str]) -> list[str]:
    """``--flag -x`` as ``--flag=-x``, which argparse would read as two options.

    Every option but --help takes one value, so the token after an option is
    its value, even one that starts with '-' (``-pi/2``, ``-1e-3``).
    """
    out: list[str] = []
    for token in argv:
        last = out[-1] if out else ""
        if token.startswith("-") and last.startswith("--") and "=" not in last and last != "--help":
            out[-1] = f"{last}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_bind_dashed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse uses exit(2) for usage errors
        return int(exc.code or 0)
    try:
        if args.verb == "selftest":
            from . import selftest

            return selftest.run(stream=sys.stdout)
        if args.verb == "probe":  # a flag the kind does not read is refused first
            _refuse_unread_probe_flags(args)
        model, echo = _model(args)
        doc = args.func(args, model, echo)
        if isinstance(doc, dict):
            doc = dumps_canonical({**doc, "timestamp": _timestamp()}) + "\n"
        _emit(doc, args.out)
        return 0
    # a route disagreement is a diagnosed refusal to classify, not a crash
    except (ValueError, OSError, OracleDisagreementError) as exc:
        print(f"fepkit: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"fepkit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
