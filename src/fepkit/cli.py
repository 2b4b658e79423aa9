"""Command-line front door: classification, scans, band/contour data, probes.

Artifacts are plain CSV and JSON meant for external plotting.  JSON output is
deterministic apart from the ``timestamp`` field: keys appear in a fixed
order and floats carry 17 significant digits.  CSV floats carry the same 17
digits, and each CSV column is formatted once per distinct value (bit
pattern), then gathered back into its rows.  A non-finite float is written
``null`` in both.  Files are written atomically (temp file plus rename).

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
import secrets
import stat
import sys
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
    CLUSTER_TOL,
    atomistic_classify,
    cluster_radius,
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


def _fmt_floats(values) -> np.ndarray:
    """``_fmt_float`` of every value of a float array, as an object array of its shape.

    Each distinct bit pattern is formatted once: ``-0.0`` and ``0.0`` stay
    apart, and so do NaN payloads (all ``null``).  The finite ones go through
    one ``%`` call whose template repeats ``%.17g``, which formats a float as
    ``format(x, ".17g")`` does.
    """
    a = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    distinct = bits.view(float)
    finite = np.isfinite(distinct)
    texts = np.full(distinct.shape, "null", dtype=object)
    numbers = tuple(distinct[finite].tolist())
    texts[finite] = ("%.17g," * len(numbers) % numbers).split(",")[:-1]
    # the inverse comes flat or in the input's shape, by NumPy release
    return texts[inverse.reshape(a.shape)]


def _json_str(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# the JSON text of a scalar, looked up by its exact type before any container
# check; NumPy scalars and subclasses take the isinstance checks below
_SCALAR_JSON = {
    float: _fmt_float,
    int: str,
    str: _json_str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    scalar = _SCALAR_JSON.get(type(obj))
    if scalar is not None:
        return scalar(obj)
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
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return _json_str(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _write_atomic(path: str, text: str) -> None:
    """Write through a temp file and a rename, with the mode ``open(path, "w")`` leaves.

    A new file gets 0o666 less the umask, which the kernel applies when the
    temp file is created; an existing file keeps its mode.
    """
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".fepkit-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666 if mode is None else mode)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        if mode is not None:  # the umask applied at creation may have narrowed it
            os.chmod(tmp, mode)
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
    """The policy of ``--rank-tol`` if given, else the default."""
    return TolerancePolicy() if args.rank_tol is None else TolerancePolicy(args.rank_tol)


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


def _csv(header: str, *columns: np.ndarray) -> str:
    """The header, then one row per entry of the equally long 1-D columns.

    A float column is written by ``_fmt_floats``, each distinct value
    formatted once; any other column by ``str``.
    """
    cells = [
        _fmt_floats(c).tolist() if c.dtype.kind == "f" else list(map(str, c.tolist()))
        for c in map(np.asarray, columns)
    ]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


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
    if not np.isfinite(ev).all():
        raise ValueError("the band energies overflow at these model parameters")
    ev = np.take_along_axis(ev, np.lexsort((ev.imag, ev.real), axis=-1), axis=-1)
    bands = ev.shape[-1]
    return _csv(
        "kx,ky,kz,band_index,re_E,im_E",
        *np.repeat(k, bands, axis=1),
        np.tile(np.arange(bands), count),
        ev.real.ravel(),
        ev.imag.ravel(),
    )


def _cmd_contour(args, model, echo) -> str:
    if args.grid < 1:
        raise ValueError(f"grid must be at least 1, got {args.grid}")
    ks = np.linspace(-math.pi, math.pi, args.grid, endpoint=False)
    kx, ky = np.meshgrid(ks, ks, indexing="ij")
    k = (kx, ky) if model.dims == 2 else (kx, ky, np.full_like(kx, args.kz or 0.0))
    return _csv("kx,ky,min_abs_E", kx.ravel(), ky.ravel(), min_abs_energy(model, k).ravel())


def _cmd_scan(args, model, echo) -> dict:
    reports = bz_scan(model, args.grid, _policy_from_args(args))
    k = np.reshape([r.k_point for r in reports], (-1, model.dims)).T
    energies = min_abs_energy(model, k).tolist()
    return {
        "model": echo,
        "grid": {"dims": model.dims, "resolution": [args.grid] * model.dims},
        "candidates": [
            {
                "k": list(r.k_point),
                "min_abs_energy": e,
                # bz_scan returns converged refinements only; the field stays
                # so that the output keeps its shape
                "refined": True,
                "report": report_json(r, echo),
            }
            for r, e in zip(reports, energies)
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
        x, y = (np.indices((geom.nx, geom.ny)) + 1).reshape(2, -1)  # 1-based cells, row-major
        for i, intensity in enumerate(rep.intensity_maps):
            _write_atomic(f"{stem}_state{i}.csv", _csv("x,y,intensity", x, y, intensity.ravel()))
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
    cluster_tol = CLUSTER_TOL if args.cluster_tol is None else args.cluster_tol
    cluster_radius(0.0, cluster_tol)  # a bad --cluster-tol is refused, as --rank-tol, first
    doc: dict = {"kind": kind, "model": echo}
    if kind in ("decay", "atomistic") and not isinstance(model, HodsmSpec):
        raise ValueError(f"the {kind} probe needs a hodsm model")
    if kind in ("lineshape", "splitting"):
        h, report = _point_report(args, model, policy)
        if kind == "lineshape":
            fit = lineshape_exponent(h, report.energy, cluster_tol)
            expected = -2.0 * report.ell
        else:
            fit = splitting_exponent(h, report.energy, cluster_tol)
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
        res = symmetry_check(model, kind, geom, cluster_tol)
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
