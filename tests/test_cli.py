import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fepkit.cli
import fepkit.selftest
from fepkit.classify import OracleDisagreementError, PartialMultiplicityFunction
from fepkit.cli import PROBE_FLAGS, dumps_canonical, main, parse_angle, parse_k
from fepkit.models import HingeGeometry, bloch_matrix, model_from_id
from fepkit.probes import SYMMETRY_KINDS, hinge_report
from fepkit.scan import min_abs_energy

PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("pi", PI),
            ("-pi", -PI),
            ("pi/2", PI / 2),
            ("3pi/4", 3 * PI / 4),
            ("2pi/3", 2 * PI / 3),
            ("0.5", 0.5),
            ("-1.25", -1.25),
            ("2", 2.0),
            ("1e-3", 1e-3),
            ("-2.5E-1", -0.25),
            (".5", 0.5),
            ("3/4", 0.75),
            ("1e-1pi/2", PI / 20),
        ],
    )
    def test_accepted(self, text, want):
        assert parse_angle(text) == pytest.approx(want)

    @pytest.mark.parametrize(
        "text", ["2arccot(0.5)", "pie", "pi*2", "", "x", "pi/0", "1/0", "3pi/0.0"]
    )
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e309", "pi/1e309", "1e308pi"])
    def test_nonfinite_rejected(self, text):
        with pytest.raises(ValueError, match=r"\(not finite\)"):
            parse_angle(text)

    def test_parse_k(self):
        assert parse_k("pi,-pi/2") == pytest.approx((PI, -PI / 2))

    @pytest.mark.parametrize(
        "argv,flag,angle",
        [
            (("classify", "--model", "hodsm:h", "--kz", "pi/0"), "--kz", "pi/0"),
            (("ring", "--model", "lieb:reciprocal", "--phi", "1/0"), "--phi", "1/0"),
            (("scan", "--model", "lieb:reciprocal", "--psi", "3pi/0.0"), "--psi", "3pi/0.0"),
            (("band", "--model", "hodsm:h", "--path", "kz=-pi:pi/0:5"), "--path", "pi/0"),
        ],
        ids=["kz", "phi", "psi", "path"],
    )
    def test_zero_denominator_flag_exits_2(self, capsys, argv, flag, angle):
        """argparse prints its usage, then one error line with parse_angle's reason; no traceback."""
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (
            f"fepkit {argv[0]}: error: argument {flag}: cannot parse angle {angle!r} (zero denominator)"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e309"])
    def test_nonfinite_angle_flag_exits_2(self, capsys, value):
        code, out, err = run(capsys, "classify", "--model", "hodsm:h", "--kz", value)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (
            f"fepkit classify: error: argument --kz: cannot parse angle {value!r} (not finite)"
        )

    def test_exponent_angle_flag(self, capsys):
        """``--kz 1e-3`` is the angle 0.001 rad."""
        code, out, err = run(capsys, "contour", "--model", "hodsm:h", "--kz", "1e-3", "--grid", "4")
        assert code == 0, err
        assert out == run(capsys, "contour", "--model", "hodsm:h", "--kz", "0.001", "--grid", "4")[1]

    def test_zero_denominator_momentum_exits_2(self, capsys):
        code, out, err = run(capsys, "classify", "--model", "lieb:hermitian", "--k", "pi/0,pi")
        assert code == 2 and out == ""
        assert err.splitlines() == ["fepkit: cannot parse angle 'pi/0' (zero denominator)"]


def _bits(x: float) -> int:
    return int(np.array(x).view(np.int64))


# bit patterns of the floats a column may hold: the special values, and NaNs
# of either sign with any payload
FLOAT_BITS = st.one_of(
    st.floats(allow_nan=False).map(_bits),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.7e308, -1.7e308, 5e-324, -2.2e-308])
    .map(_bits),
    st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF).flatmap(
        lambda nan: st.sampled_from([nan, nan - 2**63])
    ),
)


@st.composite
def float_arrays(draw):
    """A 1-D or 2-D float array drawn from a few distinct bit patterns, so with duplicates."""
    pool = draw(st.lists(FLOAT_BITS, min_size=1, max_size=8))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    picks = draw(st.lists(st.sampled_from(pool), min_size=rows * cols, max_size=rows * cols))
    a = np.array(picks, dtype=np.int64).view(float)
    return a if draw(st.booleans()) else a.reshape(rows, cols)


# the CSV writer reads np.unique's inverse, whose shape changed within NumPy 2.0.x
@pytest.mark.version_sensitive
class TestCanonicalJson:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(float_arrays())
    @example(np.array([0.0, -0.0, 0.0, -0.0]))  # equal as floats, apart as bits
    @example(np.array([[math.nan, -math.inf, 1.7e308], [-0.0, 5e-324, 1.7e308]]))
    def test_fmt_floats_formats_like_each_value(self, a):
        got = fepkit.cli._fmt_floats(a)
        assert got.shape == a.shape
        fmt = fepkit.cli._fmt_float
        want = [fmt(x) for x in a.tolist()] if a.ndim == 1 else [[fmt(x) for x in row] for row in a.tolist()]
        assert got.tolist() == want

    def test_float_precision(self):
        assert dumps_canonical(1 / 3) == "0.33333333333333331"

    def test_nan_becomes_null(self):
        assert dumps_canonical(float("nan")) == "null"

    def test_key_order_is_insertion_order(self):
        assert '"b"' in dumps_canonical({"b": 1, "a": 2}).splitlines()[1]

    def test_csv_bytes(self):
        rows = [
            (float("nan"), float("inf"), float("-inf")),
            (-0.0, 3, 0.1),
            (1 / 3, -2.5e-300, 12345678901234567.0),
        ]
        assert fepkit.cli._csv("a,b,c", *np.array(rows).T) == (
            "a,b,c\n"
            "null,null,null\n"
            "-0,3,0.10000000000000001\n"
            "0.33333333333333331,-2.5e-300,12345678901234568\n"
        )


class TestClassifyVerb:
    def test_minimal_fep_report(self, capsys):
        code, out, err = run(
            capsys, "classify", "--model", "lieb:minimal-fep", "--eps", "1", "--k", "pi,pi"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["alpha"] == 3
        assert doc["gamma"] == 2
        assert doc["partials"] == [2, 1]
        assert doc["label"] == "FEP"

    def test_flat_band_is_nondegenerate_off_corner(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--model", "lieb:hermitian", "--k", "0,0", "--energy", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 1 and doc["label"] == "nondegenerate"

    def test_report_roundtrip_sum_rules(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--model", "hodsm:nh4", "--eps", "0.3535533905932738",
            "--kz", "pi/2",
        )
        assert code == 0
        doc = json.loads(out)
        beta = {int(l): c for l, c in doc["beta"].items()}
        assert sum(beta.values()) == doc["gamma"]
        assert sum(l * c for l, c in beta.items()) == doc["alpha"]
        assert sorted(doc["partials"], reverse=True) == doc["partials"]

    def test_determinism_modulo_timestamp(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "classify", "--model", "lieb:nh-symmetric", "--eps", "1",
                "--k", "2pi/3,2pi/3",
            )
            assert code == 0
            outs.append(re.sub(r'"timestamp": "[^"]*"', "", out))
        assert outs[0] == outs[1]

    def test_unknown_model_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--model", "lieb:bogus", "--k", "0,0")
        assert code == 2

    def test_missing_k_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--model", "lieb:hermitian")
        assert code == 2
        assert "--k" in err

    def test_unwritable_output_exits_2(self, capsys):
        code, _, err = run(
            capsys, "classify", "--model", "lieb:hermitian", "--k", "pi,pi",
            "--out", "/nonexistent-dir/x.json",
        )
        assert code == 2

    def test_oracle_disagreement_exits_2(self, capsys, monkeypatch):
        def disagree(*args, **kwargs):
            raise OracleDisagreementError(
                PartialMultiplicityFunction({3: 1}), PartialMultiplicityFunction({2: 1})
            )

        monkeypatch.setattr(fepkit.cli, "classify_point", disagree)
        code, out, err = run(capsys, "classify", "--model", "lieb:hermitian", "--k", "pi,pi")
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "fepkit: mode-rank fingerprint {3: 1} disagrees with Weyr oracle {2: 1}"
        ]

    def test_nonfinite_energy_exits_2(self, capsys):
        for value in ("nan", "inf"):
            code, out, err = run(capsys, "classify", "--model", "hodsm:h", "--kz", "0", "--energy", value)
            assert code == 2 and out == ""
            assert err.splitlines() == [f"fepkit: energy must be finite, got ({value}+0j)"]


class TestBandVerb:
    def test_band_csv_zero_rows(self, tmp_path, capsys):
        out = tmp_path / "band.csv"
        code, _, err = run(
            capsys, "band", "--model", "hodsm:nh2", "--eps", "0.70710678",
            "--path", "kz=-pi:pi:401", "--out", str(out),
        )
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "kx,ky,kz,band_index,re_E,im_E"
        zero_kz = set()
        for line in lines[1:]:
            kx, ky, kz, idx, re_e, im_e = line.split(",")
            if float(re_e) ** 2 + float(im_e) ** 2 < 1e-6:
                zero_kz.add(round(float(kz), 6))
        want = {round(v, 6) for v in (PI / 2, -PI / 2, 3 * PI / 4, -3 * PI / 4)}
        assert zero_kz == want

    def test_bands_sorted_per_k(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code, _, _ = run(
            capsys, "band", "--model", "lieb:hermitian", "--path", "kx=-pi:pi:17",
            "--k", "0,pi", "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_k = {}
        for kx, ky, kz, idx, re_e, im_e in rows:
            by_k.setdefault(kx, []).append((float(re_e), float(im_e)))
        for vals in by_k.values():
            assert vals == sorted(vals)

    @pytest.mark.parametrize(
        "model_id,params,axis,count,fixed",
        [
            ("hodsm:nh3", {"eps": 0.5}, 1, 57, [0.1, 0.0, PI / 4]),
            ("lieb:minimal-fep", {"eps": 1.0}, 0, 201, [0.3, PI / 3]),
        ],
    )
    def test_bytes_equal_per_k_solves(self, capsys, model_id, params, axis, count, fixed):
        # reference: one eigensolve and one sort per momentum
        flags = [x for name, v in params.items() for x in (f"--{name}", repr(v))]
        k_flag = ",".join(map(repr, fixed))
        path = f"k{'xyz'[axis]}=-pi:pi:{count}"
        code, out, err = run(
            capsys, "band", "--model", model_id, *flags, "--k", k_flag, "--path", path
        )
        assert code == 0, err
        model = model_from_id(model_id, **params)
        want = ["kx,ky,kz,band_index,re_E,im_E"]
        for value in np.linspace(-PI, PI, count):
            k = list(fixed)
            k[axis] = float(value)
            ev = np.linalg.eigvals(bloch_matrix(model, k))
            ev = ev[np.lexsort((ev.imag, ev.real))]
            cells = [format(x, ".17g") for x in (k + [0.0])[:3]]
            for idx, e in enumerate(ev):
                want.append(",".join(cells + [str(idx), format(e.real, ".17g"), format(e.imag, ".17g")]))
        assert out == "\n".join(want) + "\n"


class TestContourVerb:
    def test_schema_and_flat_band_exclusion(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(
            capsys, "contour", "--model", "lieb:hermitian", "--grid", "16",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kx,ky,min_abs_E"
        assert len(lines) == 1 + 16 * 16
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(values) > 1.0  # dispersive bands, not the flat band

    @pytest.mark.parametrize(
        "model", [["lieb:reciprocal", "--phi", "pi/4", "--psi", "pi/3"], ["hodsm:nh1", "--kz", "0.4"]]
    )
    def test_bytes_match_row_by_row_formatting(self, model, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "contour", "--model", *model, "--grid", "12", "--out", str(out))
        assert code == 0
        args = fepkit.cli.build_parser().parse_args(["contour", "--model", *model])
        spec, _ = fepkit.cli._model(args)
        ks = np.linspace(-PI, PI, 12, endpoint=False)
        kx, ky = np.meshgrid(ks, ks, indexing="ij")
        k = (kx, ky) if spec.dims == 2 else (kx, ky, np.full_like(kx, 0.4))
        energies = min_abs_energy(spec, k).ravel().tolist()
        want = ["kx,ky,min_abs_E"]
        for x, y, e in zip(kx.ravel().tolist(), ky.ravel().tolist(), energies):
            want.append(",".join(fepkit.cli._fmt_float(v) for v in (x, y, e)))
        assert out.read_text() == "\n".join(want) + "\n"


class TestScanRingVerbs:
    def test_scan_json(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code, _, _ = run(
            capsys, "scan", "--model", "lieb:minimal-fep", "--eps", "1",
            "--grid", "96", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["candidates"]) == 2
        labels = sorted(c["report"]["label"] for c in doc["candidates"])
        assert labels == ["EP3", "FEP"]

    def test_scan_candidates_are_refined_and_classified(self, capsys):
        code, out, err = run(
            capsys, "scan", "--model", "lieb:reciprocal", "--phi", "pi/6", "--psi", "pi/6",
            "--grid", "64",
        )
        assert code == 0, err
        cands = json.loads(out)["candidates"]
        assert cands
        for c in cands:
            assert c["refined"] is True
            assert c["report"] is not None and c["report"]["k"] == c["k"]

    @pytest.mark.parametrize(
        "flags", [("hodsm:nh1", "--eps", "0.6", "--grid", "32"), ("hodsm:h", "--t", "-5", "--grid", "8")]
    )
    def test_scan_energies_are_the_one_point_values(self, capsys, flags):
        # the verb takes all candidates' energies in one stacked call; an empty
        # scan prints no candidate
        code, out, err = run(capsys, "scan", "--model", *flags)
        assert code == 0, err
        doc = json.loads(out)
        params = {"eps": 0.6} if flags[0] == "hodsm:nh1" else {"t": -5.0}
        model = model_from_id(flags[0], **params)
        for c in doc["candidates"]:
            assert c["min_abs_energy"] == min_abs_energy(model, np.reshape(c["k"], (-1, 1)))[0]
        assert bool(doc["candidates"]) == (flags[0] == "hodsm:nh1")

    @pytest.mark.parametrize("eps", ["1e80", "1e300"])
    def test_scan_overflow_exits_2(self, capsys, eps):
        # the detector normalization scale**4 overflows at 1e80 (it raised
        # OverflowError), and at 1e300 the detector grid itself (it warned and
        # printed no candidate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "scan", "--model", "hodsm:nh2", "--eps", eps, "--grid", "8")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "the detector overflows at model scale" in err

    def test_ring_json(self, tmp_path, capsys):
        out = tmp_path / "ring.json"
        code, _, _ = run(
            capsys, "ring", "--model", "lieb:reciprocal", "--phi", "pi/4",
            "--psi", "pi/4", "--samples", "64", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        labels = [s["label"] for s in doc["samples"]]
        assert labels.count("FEP") == 2 and labels.count("EP3") == 62


class TestHingeVerb:
    def test_hinge_artifacts(self, tmp_path, capsys):
        out = tmp_path / "hinge.json"
        code, _, err = run(
            capsys, "hinge", "--model", "hodsm:nh3", "--eps", "0.5",
            "--nx", "8", "--ny", "8", "--kz", "0", "--out", str(out),
        )
        assert code == 0, err
        doc = json.loads(out.read_text())
        # the physical rank-2 claim is a 20x20 statement (acceptance gate);
        # at this size only schema consistency is asserted
        assert doc["gram_rank"] in (1, 2, 3, 4)
        assert "low_set" not in doc and "eigenvalues" not in doc
        rep = hinge_report(model_from_id("hodsm:nh3", eps=0.5), HingeGeometry(8, 8, kz=0.0))
        got = [complex(e["re"], e["im"]) for e in doc["low_energies"]]
        assert np.array_equal(got, rep.low_energies)
        for i in range(4):
            csv_path = tmp_path / f"hinge_state{i}.csv"
            lines = csv_path.read_text().splitlines()
            assert lines[0] == "x,y,intensity"
            total = sum(float(line.split(",")[2]) for line in lines[1:])
            assert total == pytest.approx(1.0, abs=1e-9)


class TestProbeVerb:
    def test_lineshape_probe(self, capsys):
        code, out, err = run(
            capsys, "probe", "--kind", "lineshape", "--model", "hodsm:nh3",
            "--eps", "0.5", "--kz", "pi/2",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["ell"] == 2
        assert doc["expected_slope"] == -4
        assert abs(doc["slope"] - (-4)) <= 0.08

    def test_symmetry_probe(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--kind", "sum-rule-ba", "--model", "hodsm:nh2",
            "--eps", "0.70710678", "--nx", "5", "--ny", "5",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize(
        "kind,witness",
        [
            ("transposition", "entry (0, 2)"),
            ("sum-rule-ba", "(H^2) block entry (4, 0)"),
            ("reflection", ""),
            ("sum-rule-cd", ""),
        ],
    )
    def test_symmetry_witness_prints_plain_numbers(self, capsys, kind, witness):
        code, out, err = run(
            capsys, "probe", "--kind", kind, "--model", "hodsm:nh4",
            "--eps", "0.35", "--nx", "4", "--ny", "4",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["witness"] == witness
        assert (doc["max_violation"] == 0) == (witness == "")

    def test_atomistic_probe(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--kind", "atomistic", "--model", "hodsm:nh2",
            "--eps", "0.70710678", "--t", "-0.5", "--s", "1",
        )
        assert code == 0
        assert json.loads(out)["report"]["partials"] == [3, 1]

    @pytest.mark.parametrize(
        "argv,needs",
        [
            (("--model", "hodsm:h", "--kind", "decay"), "--nx and --ny"),
            (("--model", "lieb:hermitian", "--kind", "lineshape"), "--k"),
            (("--model", "lieb:hermitian", "--kind", "atomistic"), "hodsm model"),
            (
                ("--model", "lieb:hermitian", "--kind", "decay", "--nx", "10", "--ny", "34"),
                "hodsm model",
            ),
            (
                ("--model", "hodsm:nh3", "--eps", "0.5", "--kind", "lineshape", "--k", "0,0"),
                "hodsm models need --k kx,ky,kz",
            ),
            (("--model", "lieb:hermitian", "--kind", "splitting", "--k", "pi"), "lieb models need --k kx,ky"),
            (
                ("--model", "hodsm:h", "--kind", "lineshape", "--energy", "0.7071067811865476"),
                "hodsm models need --k or --kz",
            ),
        ],
        ids=[
            "decay-without-geometry",
            "lieb-lineshape-without-k",
            "lieb-atomistic",
            "lieb-decay",
            "hodsm-lineshape-short-k",
            "lieb-splitting-short-k",
            "hodsm-lineshape-without-k",
        ],
    )
    def test_input_errors_exit_2(self, capsys, argv, needs):
        code, out, err = run(capsys, "probe", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and needs in err
        assert "internal error" not in err

    @pytest.mark.parametrize("kind", ["lineshape", "splitting"])
    def test_kz_alone_is_the_k_axis_point(self, capsys, kind):
        """On a semimetal ``--kz 0`` reads as ``--k 0,0,0``, the point ``classify`` takes."""
        base = ("probe", "--kind", kind, "--model", "hodsm:h", "--energy", "0.7071067811865476")
        code, out, err = run(capsys, *base, "--kz", "0")
        assert code == 0, err
        code, explicit, _ = run(capsys, *base, "--k", "0,0,0")
        assert code == 0
        assert untimed(out) == untimed(explicit)
        doc = json.loads(out)
        assert doc["k"] == [0, 0, 0] and doc["ell"] == 1
        assert doc["expected_slope"] == (-2 if kind == "lineshape" else 1)


class TestSymmetryProbeGeometry:
    """Symmetry kinds build a geometry exactly when both --nx and --ny are given."""

    @pytest.mark.parametrize(
        "argv,needs",
        [
            (("--kind", "kramers", "--nx", "0", "--ny", "4"), "nx and ny must be at least 1"),
            (("--kind", "kramers", "--nx", "4", "--ny", "0"), "nx and ny must be at least 1"),
            (("--kind", "chiral", "--nx", "5"), "the chiral probe does not read --nx"),
            (("--kind", "sum-rule-ba", "--ny", "5"), "needs both --nx and --ny"),
            (("--kind", "kramers"), "needs an open-system geometry"),
        ],
        ids=["zero-nx", "zero-ny", "chiral-nx-only", "sum-rule-ny-only", "kramers-no-geometry"],
    )
    def test_input_errors_exit_2(self, capsys, argv, needs):
        code, out, err = run(capsys, "probe", "--model", "hodsm:nh2", "--eps", "0.5", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and needs in err
        assert "internal error" not in err

    @pytest.mark.parametrize("extra", [(), ("--nx", "3", "--ny", "3")])
    def test_bloch_kind_runs_with_or_without_geometry(self, capsys, extra):
        """Without --nx/--ny a Bloch kind runs and passes; with them it exits 2, as it never reads them."""
        for kind, model in (("chiral", ("hodsm:nh2", "--eps", "0.5")), ("rotation-c4", ("hodsm:h",))):
            code, out, err = run(capsys, "probe", "--kind", kind, "--model", *model, *extra)
            if extra:
                assert code == 2 and out == ""
                assert err.splitlines() == [f"fepkit: the {kind} probe does not read --nx, --ny"]
            else:
                assert code == 0, err
                assert json.loads(out)["passed"] is True


def test_selftest_runs_every_criterion(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10 and all(line.startswith("PASS criterion") for line in lines)


def test_selftest_reports_a_raising_criterion_and_runs_the_rest(monkeypatch):
    """A criterion whose classification raises fails alone, named, and the others still run."""

    def disagree(*args, **kwargs):
        raise OracleDisagreementError(
            PartialMultiplicityFunction({3: 1}), PartialMultiplicityFunction({2: 1})
        )

    monkeypatch.setattr(fepkit.selftest, "classify_point", disagree)
    stream = io.StringIO()
    assert fepkit.selftest.run(stream=stream) == 1
    lines = stream.getvalue().splitlines()
    assert len(lines) == 10
    for number, line in enumerate(lines, start=1):
        if number <= 5:
            assert line.startswith(f"FAIL criterion {number} ("), line
            assert line.endswith(
                "): OracleDisagreementError: "
                "mode-rank fingerprint {3: 1} disagrees with Weyr oracle {2: 1}"
            )
        else:
            assert line.startswith(f"PASS criterion {number} ("), line


class TestUnreadFlags:
    """Each verb accepts only the flags it reads."""

    BASE = {
        "classify": ("--model", "lieb:hermitian", "--k", "pi,pi"),
        "band": ("--model", "hodsm:nh2", "--eps", "0.7", "--path", "kx=-pi:pi:2"),
        "contour": ("--model", "lieb:reciprocal", "--grid", "4"),
        "scan": ("--model", "lieb:hermitian", "--grid", "4"),
        "ring": ("--model", "lieb:reciprocal"),
        "hinge": ("--model", "hodsm:h", "--nx", "3", "--ny", "3"),
    }
    VALUE = {"--k": "0,0", "--kz": "0.5", "--rank-tol": "1e-6", "--cluster-tol": "1e-2"}

    @pytest.mark.parametrize(
        "verb,flag",
        [
            ("classify", "--cluster-tol"),
            ("band", "--kz"),
            ("band", "--rank-tol"),
            ("band", "--cluster-tol"),
            ("contour", "--k"),
            ("contour", "--rank-tol"),
            ("contour", "--cluster-tol"),
            ("scan", "--k"),
            ("scan", "--kz"),
            ("scan", "--cluster-tol"),
            ("ring", "--k"),
            ("ring", "--kz"),
            ("ring", "--cluster-tol"),
            ("hinge", "--k"),
            ("hinge", "--rank-tol"),
            ("hinge", "--cluster-tol"),
        ],
    )
    def test_unread_flag_exits_2(self, capsys, verb, flag):
        code, out, err = run(capsys, verb, *self.BASE[verb], flag, self.VALUE[flag])
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err and flag in err

    @pytest.mark.parametrize(
        "argv,needs",
        [
            (("classify", "--model", "lieb:hermitian", "--k", "pi,pi", "--kz", "0.3"), "no --kz"),
            (
                ("probe", "--kind", "lineshape", "--model", "lieb:minimal-fep", "--eps", "1",
                 "--k", "pi,pi", "--kz", "0.3"),
                "no --kz",
            ),
            (("classify", "--model", "hodsm:h", "--k", "0,0,pi/2", "--kz", "0.3"), "not both"),
            (("contour", "--model", "lieb:reciprocal", "--grid", "4", "--kz", "0.3"), "no --kz"),
        ],
        ids=["classify-lieb", "probe-lieb", "classify-k-and-kz", "contour-lieb"],
    )
    def test_unused_kz_exits_2(self, capsys, argv, needs):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and needs in err
        assert "internal error" not in err


PROBE_VALUE = {
    "--k": "0,0,0", "--kz": "0.5", "--energy": "0", "--rank-tol": "1e-6",
    "--cluster-tol": "1e-2", "--nx": "3", "--ny": "3", "--corner": "A", "--axis": "x",
}


def untimed(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', "", text)


class TestProbeFlags:
    """Each probe kind accepts only the flags in its row of ``PROBE_FLAGS``."""

    def test_table_covers_every_kind_and_flag(self):
        assert tuple(PROBE_FLAGS) == ("lineshape", "splitting", "decay", "atomistic") + SYMMETRY_KINDS
        assert {f for flags in PROBE_FLAGS.values() for f in flags} == set(PROBE_VALUE)

    @pytest.mark.parametrize(
        "kind,flag",
        [(kind, flag) for kind, reads in PROBE_FLAGS.items() for flag in PROBE_VALUE if flag not in reads],
    )
    def test_unread_flag_exits_2(self, capsys, kind, flag):
        code, out, err = run(
            capsys, "probe", "--kind", kind, "--model", "hodsm:nh2", "--eps", "0.5",
            flag, PROBE_VALUE[flag],
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [f"fepkit: the {kind} probe does not read {flag}"]

    def test_every_unread_flag_is_named(self, capsys):
        code, out, err = run(
            capsys, "probe", "--kind", "chiral", "--model", "hodsm:nh2", "--eps", "0.5",
            "--k", "1,2,3", "--energy", "5", "--corner", "A",
        )
        assert code == 2 and out == ""
        assert err.splitlines() == ["fepkit: the chiral probe does not read --k, --energy, --corner"]

    def test_decay_defaults_to_corner_b_along_y(self, capsys):
        argv = ("probe", "--kind", "decay", "--model", "hodsm:nh1", "--eps", "0.25",
                "--nx", "10", "--ny", "34")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        code, explicit, _ = run(capsys, *argv, "--corner", "B", "--axis", "y")
        assert code == 0
        assert untimed(out) == untimed(explicit)
        assert json.loads(out)["corner"] == "B" and json.loads(out)["axis"] == "y"


# one small run of every verb and every probe kind
EMITTING = {
    "classify": ("classify", "--model", "hodsm:nh3", "--eps", "0.5", "--kz", "pi/2"),
    "band": ("band", "--model", "lieb:minimal-fep", "--eps", "1", "--path", "kx=-pi:pi:3"),
    "contour": ("contour", "--model", "hodsm:nh2", "--eps", "0.5", "--grid", "4", "--kz", "0.3"),
    "scan": ("scan", "--model", "lieb:minimal-fep", "--eps", "1", "--grid", "32"),
    "ring": ("ring", "--model", "lieb:reciprocal", "--samples", "8"),
    "hinge": ("hinge", "--model", "hodsm:nh3", "--eps", "0.5", "--nx", "3", "--ny", "3"),
    "lineshape": ("probe", "--kind", "lineshape", "--model", "hodsm:nh3", "--eps", "0.5", "--kz", "pi/2"),
    "splitting": ("probe", "--kind", "splitting", "--model", "hodsm:nh3", "--eps", "0.5", "--kz", "pi/2"),
    "decay": ("probe", "--kind", "decay", "--model", "hodsm:nh1", "--eps", "0.25", "--nx", "6", "--ny", "30"),
    "atomistic": ("probe", "--kind", "atomistic", "--model", "hodsm:nh3", "--eps", "0.5", "--t", "-0.5"),
    **{
        kind: ("probe", "--kind", kind, "--model", "hodsm:nh4", "--eps", "0.35")
        + (("--nx", "3", "--ny", "3") if PROBE_FLAGS[kind] else ())
        for kind in SYMMETRY_KINDS
    },
}


@pytest.mark.parametrize("argv", EMITTING.values(), ids=EMITTING.keys())
def test_out_file_holds_the_stdout_document(capsys, tmp_path, argv):
    """--out gets stdout's bytes; a JSON document has one timestamp, its last key."""
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "", err
    path = tmp_path / ("doc.csv" if argv[0] in ("band", "contour") else "doc.json")
    code, nothing, err = run(capsys, *argv, "--out", str(path))
    assert code == 0 and nothing == "" and err == "", err
    assert untimed(path.read_text()) == untimed(out)
    if path.suffix == ".json":
        assert out.count('"timestamp"') == 1
        assert list(json.loads(out))[-1] == "timestamp"
    else:
        assert "timestamp" not in out


@pytest.mark.parametrize("argv", EMITTING.values(), ids=EMITTING.keys())
def test_tolerance_variables_change_nothing(capsys, monkeypatch, argv):
    """The tolerances come from their flags alone: FEPKIT_* variables are not read."""
    monkeypatch.delenv("FEPKIT_RANK_TOL", raising=False)
    monkeypatch.delenv("FEPKIT_CLUSTER_TOL", raising=False)
    code, plain, err = run(capsys, *argv)
    assert code == 0, err
    monkeypatch.setenv("FEPKIT_RANK_TOL", "abc")
    monkeypatch.setenv("FEPKIT_CLUSTER_TOL", "abc")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert untimed(out) == untimed(plain)


@pytest.mark.parametrize(
    "env,flag", [("FEPKIT_RANK_TOL", "--rank-tol"), ("FEPKIT_CLUSTER_TOL", "--cluster-tol")]
)
@pytest.mark.parametrize("kind", PROBE_FLAGS)
def test_probe_reads_a_tolerance_variable_only_with_its_flag(capsys, monkeypatch, kind, env, flag):
    """A bad variable changes nothing; the flag is read where the kind takes it, refused elsewhere."""
    monkeypatch.delenv(env, raising=False)
    code, plain, err = run(capsys, *EMITTING[kind])
    assert code == 0, err
    monkeypatch.setenv(env, "abc")
    code, out, err = run(capsys, *EMITTING[kind])
    assert code == 0 and err == ""
    assert untimed(out) == untimed(plain)
    if flag in PROBE_FLAGS[kind]:
        code, out, err = run(capsys, *EMITTING[kind], flag, "abc")
        assert code == 2 and out == ""
        assert err.splitlines()[-1].endswith(f"argument {flag}: invalid float value: 'abc'")
    else:
        code, out, err = run(capsys, *EMITTING[kind], flag, "1e-3")
        assert code == 2 and out == ""
        assert err.splitlines() == [f"fepkit: the {kind} probe does not read {flag}"]


def test_rank_tol_flag_is_the_echoed_cutoff(capsys):
    """--rank-tol is rank_rel's one input: every report's policy block echoes it."""
    for name, reports in (
        ("classify", lambda doc: [doc]),
        ("scan", lambda doc: [c["report"] for c in doc["candidates"]]),
        ("atomistic", lambda doc: [doc["report"]]),
    ):
        code, out, err = run(capsys, *EMITTING[name], "--rank-tol", "1e-7")
        assert code == 0, err
        policies = [r["policy"] for r in reports(json.loads(out))]
        assert policies and all(p == {"rank_rel": 1e-7, "ck_rel": 1e-9} for p in policies)


# one value each flag reads: argparse alone would take it for an option
DASHED = [
    ("classify", "--model", "hodsm:nh3", "--eps", "0.5", "--kz", "-pi/2"),
    ("classify", "--model", "lieb:minimal-fep", "--eps", "1", "--k", "-pi,pi"),
    ("probe", "--kind", "atomistic", "--model", "hodsm:nh3", "--eps", "0.5", "--t", "-5e-1"),
    ("band", "--model", "hodsm:nh1", "--eps", "-1e-3", "--path", "kz=0:1:3"),
]


@pytest.mark.parametrize("argv", DASHED, ids=["kz", "k", "t", "eps"])
def test_negative_value_as_its_own_token(capsys, argv):
    """``--flag -x`` gives the ``--flag=-x`` document."""
    i = next(i for i, token in enumerate(argv) if token.startswith("-") and not token.startswith("--"))
    joined = (*argv[: i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1 :])
    code, want, err = run(capsys, *joined)
    assert code == 0, err
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == "", err
    assert untimed(out) == untimed(want)


def test_help_takes_no_value(capsys):
    """--help is the one option that takes no value: the token after it stays its own."""
    with pytest.raises(SystemExit):
        fepkit.cli.build_parser().parse_args(["classify", "--help"])
    help_text = capsys.readouterr().out
    code, out, _ = run(capsys, "classify", "--help", "-pi")
    assert code == 0 and out == help_text


@pytest.mark.parametrize(
    "argv,line",
    [
        (("contour", "--model", "hodsm:h", "--grid", "0"), "grid must be at least 1, got 0"),
        (("band", "--model", "hodsm:h", "--path", "kz=0:1:0"), "path count must be at least 1, got 0"),
    ],
    ids=["contour-grid", "band-path"],
)
def test_empty_grid_exits_2(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"fepkit: {line}"]


# every emitting run with an --eps; ring takes a Lieb model that has one, which
# is built (and refused) before ring checks the variant
NONFINITE = {**EMITTING, "ring": ("ring", "--model", "lieb:nh-symmetric", "--eps", "1")}


@pytest.mark.parametrize("value,shown", [("nan", "nan"), ("inf", "inf"), ("1e309", "inf")])
@pytest.mark.parametrize("argv", NONFINITE.values(), ids=NONFINITE.keys())
def test_nonfinite_parameter_exits_2(capsys, argv, value, shown):
    """Every verb and probe kind refuses a NaN or infinite model parameter with one line."""
    i = argv.index("--eps")
    code, out, err = run(capsys, *argv[: i + 1], value, *argv[i + 2 :])
    assert code == 2 and out == ""
    assert err.splitlines() == [f"fepkit: epsilon must be finite, got {shown}"]


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.1"])
@pytest.mark.parametrize("kind", ["kramers", "lineshape", "splitting"])
def test_nonfinite_cluster_tol_exits_2(capsys, kind, value):
    """A cluster tolerance that is not finite, or not positive, is refused with one line."""
    code, out, err = run(capsys, *EMITTING[kind], "--cluster-tol", value)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"fepkit: cluster_tol must be positive and finite, got {float(value)}"]


RANK_TOL_READERS = {name: EMITTING[name] for name in ("classify", "scan", "ring", "atomistic")}


@pytest.mark.parametrize("value", ["0", "1", "-1e-3", "nan", "inf"])
@pytest.mark.parametrize("argv", RANK_TOL_READERS.values(), ids=RANK_TOL_READERS.keys())
def test_bad_rank_tol_exits_2(capsys, argv, value):
    """A rank tolerance outside (0, 1) is refused with one line that names it."""
    code, out, err = run(capsys, *argv, "--rank-tol", value)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"fepkit: rank_rel must lie in (0, 1), got {float(value)}"]


# inputs whose arithmetic overflows in float; each exits 2 with this one line
OVERFLOWING = {
    "contour --model hodsm:nh2 --eps 1e150 --grid 4": "min |E| overflows",
    "contour --model hodsm:h --s 1e300 --grid 4": "min |E| overflows",
    "contour --model lieb:nh-symmetric --eps 1e300 --grid 4": "min |E| overflows",
    "scan --model hodsm:h --t -1.7e308 --s 1.7e308 --grid 8": "the Bloch matrix is not finite",
    "band --model hodsm:h --t 1.7e308 --s 1.7e308 --path kz=0:1:3": "the Bloch matrix is not finite",
    "hinge --model hodsm:h --t 1.7e308 --s 1.7e308 --nx 3 --ny 3": "the hinge Hamiltonian is not finite",
    "classify --model hodsm:nh2 --eps 1e150 --kz pi/2": "the Faddeev-LeVerrier scales overflowed",
    "probe --kind lineshape --model hodsm:nh2 --eps 1e150 --kz pi/2": "the Faddeev-LeVerrier scales overflowed",
    "classify --model hodsm:nh3 --eps 1e150 --kz pi/2": "the Faddeev-LeVerrier scales overflowed",
    "band --model hodsm:nh2 --t 1.7e308 --path kz=-pi:pi:3": "the band energies overflow",
    "hinge --model hodsm:h --s 1.7e308 --nx 3 --ny 3": "the shift-invert eigensolve near E = 0 failed",
    "hinge --model hodsm:nh3 --t 1.7e308 --nx 3 --ny 3": "the low energies of the open system overflow",
    "probe --kind decay --model hodsm:h --s 1.7e308 --nx 3 --ny 30": "the shift-invert eigensolve near E = 0 failed",
    "probe --kind sum-rule-ba --model hodsm:h --t 1e160 --nx 3 --ny 3": "||H||_inf**2 of the open system overflows",
    "probe --kind sum-rule-cd --model hodsm:h --t 1e160 --nx 3 --ny 3": "||H||_inf**2 of the open system overflows",
    "probe --kind sum-rule-ba --model hodsm:h --t 1.7e308 --nx 3 --ny 3": "||H||_inf**2 of the open system overflows",
    "probe --kind reflection --model hodsm:h --t 1.7e308 --nx 3 --ny 3": "||H||_inf of the open system overflows",
    "probe --kind transposition --model hodsm:h --t 1.7e308 --nx 3 --ny 3": "||H||_inf of the open system overflows",
    "probe --kind kramers --model hodsm:h --t 1.7e308 --nx 3 --ny 3": "||H||_inf of the open system overflows",
}


# warnings from scipy.sparse's norm (its reduceat) or LAPACK can differ by version
@pytest.mark.version_sensitive
@pytest.mark.parametrize("argv", OVERFLOWING)
def test_overflow_exits_2_with_one_line(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy warning would end the run as an internal error
        code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"fepkit: {OVERFLOWING[argv]}"), err


# large but representable parameters that the overflow refusals above leave alone
WITHIN_RANGE = (
    "hinge --model hodsm:h --t 1e300 --nx 3 --ny 3",
    "hinge --model hodsm:h --s 1e300 --nx 3 --ny 3",
    "hinge --model hodsm:nh3 --eps 1e300 --nx 3 --ny 3",
    "probe --kind reflection --model hodsm:h --t 1e300 --nx 3 --ny 3",
    "probe --kind kramers --model hodsm:h --t 1e160 --nx 3 --ny 3",
    "band --model hodsm:h --t 1e300 --path kz=-pi:pi:3",
)


# warnings from LAPACK's band solver on the Kramers spectrum at large couplings can differ by version
@pytest.mark.version_sensitive
@pytest.mark.parametrize("argv", WITHIN_RANGE)
def test_large_finite_parameters_still_run(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == "" and out
    if "--kind kramers" in argv:
        # the Hermitian variant pairs its spectrum at any coupling
        assert '"passed": true' in out


# open systems that are numerically singular at these parameters: ARPACK's
# restarts draw fresh start vectors there
REPEATING = (
    *(argv for argv in WITHIN_RANGE if argv.startswith("hinge ")),
    "probe --kind decay --model hodsm:nh1 --t 1e300 --nx 3 --ny 30",
)


# ARPACK's restart vectors come from eigs's rng argument where SciPy has one, else its own seed
@pytest.mark.version_sensitive
@pytest.mark.parametrize("argv", REPEATING)
def test_large_parameters_repeat_in_fresh_processes(argv):
    """Two fresh processes print the same bytes and exit the same way."""
    src = str(Path(fepkit.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # the two runs side by side
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "fepkit.cli", *argv.split()],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(2)
    ]
    (out1, err1), (out2, err2) = (p.communicate() for p in procs)
    assert (untimed(out1), err1, procs[0].returncode) == (untimed(out2), err2, procs[1].returncode)


# the one-line contract at extreme parameters: each verb with a model that
# takes --eps, --t and --s (ring's model takes none of them, and refuses each)
CONTRACT_VERBS = {
    "classify": "classify --model hodsm:nh3 --kz pi/2",
    "scan": "scan --model hodsm:nh2 --grid 8",
    "contour": "contour --model hodsm:nh2 --grid 4",
    "band": "band --model hodsm:nh2 --path kz=-pi:pi:3",
    "ring": "ring --model lieb:reciprocal --samples 8",
    "hinge": "hinge --model hodsm:nh3 --nx 3 --ny 3",
    "lineshape": "probe --kind lineshape --model hodsm:nh3 --kz pi/2",
    "chiral": "probe --kind chiral --model hodsm:nh4",
    "kramers": "probe --kind kramers --model hodsm:nh4 --nx 3 --ny 3",
    "sum-rule-ba": "probe --kind sum-rule-ba --model hodsm:nh4 --nx 3 --ny 3",
    "reflection": "probe --kind reflection --model hodsm:nh4 --nx 3 --ny 3",
    "decay": "probe --kind decay --model hodsm:nh1 --nx 3 --ny 30",
}
MAGNITUDES = (1e-300, 1.0, 1e20, 1e80, 1e160, 1e300, 1.7e308)


# the warnings this guards against come from library internals, which can differ by version
@pytest.mark.version_sensitive
@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    verb=st.sampled_from(tuple(CONTRACT_VERBS)),
    param=st.sampled_from(("eps", "t", "s")),
    value=st.sampled_from([sign * m for m in MAGNITUDES for sign in (1.0, -1.0)]),
)
@example(verb="hinge", param="s", value=1.7e308)
@example(verb="hinge", param="t", value=1.7e308)
@example(verb="decay", param="s", value=1.7e308)
@example(verb="sum-rule-ba", param="t", value=1e160)
@example(verb="sum-rule-ba", param="t", value=1.7e308)
@example(verb="reflection", param="t", value=1.7e308)
@example(verb="kramers", param="t", value=1.7e308)
@example(verb="band", param="t", value=1.7e308)
def test_one_line_contract_at_extreme_parameters(verb, param, value):
    """Exit 0 with clean output, or exit 2 with one ``fepkit:`` line; never a warning.

    Clean output has an empty stderr and no ``null`` but a Weyr route's
    ``eta`` and ``xi``.
    """
    argv = [*CONTRACT_VERBS[verb].split(), f"--{param}", repr(value)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert err == ""
        assert "null" not in re.sub(r'"(eta|xi)": null', "", out), out
    else:
        assert code == 2 and out == "", (code, err)
        assert len(err.splitlines()) == 1 and err.startswith("fepkit: "), err


def test_overflowing_classification_exits_2(capsys):
    code, out, err = run(capsys, "classify", "--model", "hodsm:h", "--t", "1e100", "--kz", "pi/2")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "fepkit: the Faddeev-LeVerrier coefficients overflowed; use smaller model parameters "
        'or --energy (in Python, classify with method="weyr")'
    ]


def test_cached_parser_gives_fresh_process_bytes(capsys):
    """The parser is built once per process; a usage error leaves it as built."""
    argv = ["classify", "--model", "hodsm:nh2", "--eps", "0.5", "--kz", "pi/2"]
    src = str(Path(fepkit.cli.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "fepkit.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert run(capsys, "classify", "--model", "hodsm:nh2", "--bogus", "1")[0] == 2
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert fepkit.cli.build_parser() is fepkit.cli.build_parser()
    assert untimed(out) == untimed(fresh.stdout)


def test_readme_cli_examples_run(capsys, tmp_path):
    """Every README ``fepkit`` example but ``selftest`` exits 0, its --out in tmp_path."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [
        shlex.split(line, comments=True)[1:]
        for block in re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.M | re.S)
        for line in block.splitlines()
        if line.startswith("fepkit ") and not line.startswith("fepkit selftest")
    ]
    assert len(examples) == 11
    for i, argv in enumerate(examples):
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        else:
            argv += ["--out", str(tmp_path / f"example{i}.json")]
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == "" and err == "", (argv, err)
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0


# run in a fresh interpreter, since this process has loaded scipy.sparse already
BULK_ONLY_IMPORTS = """
import sys

import fepkit
import fepkit.cli

out = sys.argv[1] + "/doc"
for argv in (
    "classify --model lieb:hermitian --k pi,pi",
    "scan --model lieb:nh-symmetric --eps 1 --grid 16",
    "ring --model lieb:reciprocal --phi pi/4 --psi pi/4 --samples 8",
    "band --model hodsm:nh2 --eps 0.7 --path kz=-pi:pi:5",
    "contour --model lieb:reciprocal --phi pi/4 --psi pi/4 --grid 8",
    "probe --kind lineshape --model hodsm:nh2 --eps 0.7071067811865476 --kz pi/2",
    "probe --kind chiral --model hodsm:nh4 --eps 0.35",
):
    assert fepkit.cli.main([*argv.split(), "--out", out]) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.spatial")))
assert not loaded, loaded
for argv in (
    "hinge --model hodsm:nh1 --eps 0.7 --nx 3 --ny 3 --kz 0",
    "hinge --model hodsm:h --nx 3 --ny 3",
    "hinge --model hodsm:nh2 --eps 0.7 --nx 3 --ny 3",
    "probe --kind kramers --model hodsm:h --nx 3 --ny 3",
    "probe --kind kramers --model hodsm:nh2 --eps 0.7 --nx 3 --ny 3",
):
    assert fepkit.cli.main([*argv.split(), "--out", out]) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith("scipy.spatial"))
assert not loaded, loaded
"""


# which SciPy submodules an import pulls in can differ by version
@pytest.mark.version_sensitive
def test_bulk_verbs_load_no_sparse_stack(tmp_path):
    """fepkit and the bulk verbs load NumPy only; an open system loads SciPy's
    sparse stack, and no verb loads scipy.spatial."""
    src = str(Path(fepkit.cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", BULK_ONLY_IMPORTS, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "" and proc.stderr == ""


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_out_files_get_the_umask_mode(capsys, tmp_path, umask):
    """New --out files get the mode open(path, "w") would create: 0o666 less the umask."""
    old = os.umask(umask)
    try:
        doc = tmp_path / "x.json"
        assert run(capsys, "classify", "--model", "lieb:hermitian", "--k", "pi,pi", "--out", str(doc))[0] == 0
        hinge = tmp_path / "hinge.json"
        argv = ("hinge", "--model", "hodsm:nh1", "--eps", "0.7", "--nx", "3", "--ny", "3", "--kz", "0")
        assert run(capsys, *argv, "--out", str(hinge))[0] == 0
    finally:
        os.umask(old)
    outs = [doc, hinge, *(tmp_path / f"hinge_state{i}.csv" for i in range(4))]
    assert [p.stat().st_mode & 0o777 for p in outs] == [0o666 & ~umask] * 6
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in outs)


@pytest.mark.parametrize("mode", [0o640, 0o600, 0o666], ids=["640", "600", "666"])
def test_overwritten_out_file_keeps_its_mode(capsys, tmp_path, monkeypatch, mode):
    """As with open(path, "w"), an --out file that exists keeps its mode; the umask is not set."""

    def refuse(*_):
        raise AssertionError("the umask was set")

    doc = tmp_path / "m.json"
    doc.write_text("old")
    doc.chmod(mode)
    monkeypatch.setattr(os, "umask", refuse)
    assert run(capsys, "classify", "--model", "lieb:hermitian", "--k", "pi,pi", "--out", str(doc))[0] == 0
    assert doc.stat().st_mode & 0o777 == mode
    assert json.loads(doc.read_text())["label"] == "tribolic"
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
