import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from fepkit import probes
from fepkit.models import (
    CHIRAL_DSM,
    CHIRAL_LIEB,
    ROTATION_C4,
    HingeGeometry,
    HodsmSpec,
    LiebSpec,
    bloch_matrix,
    cell_index,
    hinge_hamiltonian,
    hodsm_bloch,
    lieb_bloch,
)
from fepkit.probes import (
    SYMMETRY_KINDS,
    SymmetryCheckResult,
    atomistic_classify,
    decay_rate_fit,
    hinge_report,
    lineshape_exponent,
    splitting_exponent,
    symmetry_check,
)
from fepkit.selftest import FIGURE_EPS
from test_models import loop_corner_permutation

PI = math.pi


class TestLineshape:
    def test_simple_pole_is_lorentzian(self, policy):
        fit = lineshape_exponent(np.diag([1.0, 2.0]), 1.0, policy)
        assert fit.slope == pytest.approx(-2.0, rel=0.02)
        assert fit.r_squared >= 0.99

    def test_window_collision_raises(self, policy):
        with pytest.raises(ValueError, match="collides"):
            lineshape_exponent(np.diag([1.0, 1.05]), 1.0, policy)

    def test_fep22_super_lorentzian(self, policy):
        h = hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2))
        fit = lineshape_exponent(h, 0.0, policy)
        assert fit.slope == pytest.approx(-4.0, rel=0.02)


class TestSplitting:
    def test_diabolic_point_linear(self, policy):
        h = hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 2))
        fit = splitting_exponent(h, 0.0, policy)
        assert fit.slope == pytest.approx(1.0, rel=0.05)
        assert fit.mean_slope is not None

    def test_not_an_eigenvalue_rejected(self, policy):
        with pytest.raises(ValueError):
            splitting_exponent(np.diag([1.0, 2.0]), 0.0, policy)

    def test_collision_guard(self, policy):
        # an EP2 splits as sqrt(strength): the top of the ladder, 1e-4, pushes
        # the multiplet out to about 1e-2, into the eigenvalue at 0.01
        h = np.diag([0.0, 0.0, 0.01]).astype(complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError, match="collision"):
            splitting_exponent(h, 0.0, policy)


def loop_lineshape(h, energy, policy):
    """(slope, intercept, R^2) of lineshape_exponent with one inversion per radius."""
    m = np.asarray(h, dtype=complex)
    w = np.linalg.eigvals(m)
    others = w[np.abs(w - energy) > policy.cluster_radius(float(np.linalg.norm(m, 2)))]
    direction = np.exp(1j * PI / 4)
    if others.size:
        nearest = others[np.argmin(np.abs(others - energy))]
        direction = (nearest - energy) / abs(nearest - energy) * direction
    radii = np.geomspace(*probes.LINESHAPE_WINDOW, probes.LINESHAPE_POINTS)
    eye = np.eye(m.shape[0])
    p = [np.linalg.norm(np.linalg.inv((energy + r * direction) * eye - m), "fro") ** 2 for r in radii]
    return probes._log_fit(np.log(radii), np.array(p))


def loop_splitting(h, energy, policy):
    """(slope, intercept, R^2, mean slope) of splitting_exponent with one eigensolve per matrix."""
    m = np.asarray(h, dtype=complex)
    rng = np.random.default_rng(probes.SPLITTING_SEED)
    w = np.linalg.eigvals(m)
    alpha = int(np.count_nonzero(np.abs(w - energy) <= policy.cluster_radius(float(np.linalg.norm(m, 2)))))
    n = m.shape[0]
    directions = []
    for _ in range(probes.SPLITTING_DIRECTIONS):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        directions.append(g / np.linalg.norm(g, "fro"))
    disp_max, disp_mean = [], []
    for strength in probes.SPLITTING_LADDER:
        per_dir = [
            np.sort(np.abs(np.linalg.eigvals(m + strength * d) - energy))[:alpha].max()
            for d in directions
        ]
        disp_max.append(max(per_dir))
        disp_mean.append(float(np.mean(per_dir)))
    x = np.log(probes.SPLITTING_LADDER)
    return (*probes._log_fit(x, np.array(disp_max)), probes._log_fit(x, np.array(disp_mean))[0])


EXPONENT_POINTS = [
    (np.diag([1.0, 2.0]).astype(complex), 1.0),
    (hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2)), 0.0),
    (hodsm_bloch(HodsmSpec(2, epsilon=2**-0.5), (0, 0, PI / 2)), 0.0),
    (hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 4)), 0.0),
    (hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 2)), 0.0),
]


@pytest.mark.parametrize("h,energy", EXPONENT_POINTS)
def test_stacked_exponent_fits_repeat_the_loops(h, energy, policy):
    """One stacked inversion or eigensolve gives bitwise the fits of one LAPACK call per matrix."""
    fit = lineshape_exponent(h, energy, policy)
    assert (fit.slope, fit.intercept, fit.r_squared) == loop_lineshape(h, energy, policy)
    fit = splitting_exponent(h, energy, policy)
    assert (fit.slope, fit.intercept, fit.r_squared, fit.mean_slope) == loop_splitting(h, energy, policy)


class TestHingeReport:
    def test_hermitian_small_lattice(self):
        rep = hinge_report(HodsmSpec(0), HingeGeometry(12, 12, 0.0))
        assert rep.gram_rank == 4
        assert rep.gap_ratio >= 5.0
        assert rep.intensity_maps.shape == (4, 12, 12)
        for i in range(4):
            assert rep.intensity_maps[i].sum() == pytest.approx(1.0)
        # low quadruplet sits at the corners: the four corner cells together
        # carry most of every state
        corner_weight = (
            rep.intensity_maps[:, 0, 0]
            + rep.intensity_maps[:, -1, 0]
            + rep.intensity_maps[:, 0, -1]
            + rep.intensity_maps[:, -1, -1]
        )
        assert np.all(corner_weight > 0.5)

    def test_skin_effect_collapses_gram_rank(self):
        rep = hinge_report(HodsmSpec(1, epsilon=2**-0.5), HingeGeometry(14, 14, 0.0))
        assert rep.gram_rank == 1
        # all right states in the lower-left (B) corner
        assert np.all(rep.intensity_maps[:, 0, 0] > 0.3)

    def test_eigensolver_cap(self):
        with pytest.raises(ValueError, match="cap"):
            hinge_report(HodsmSpec(0), HingeGeometry(40, 40, 0.0))

    def test_too_few_sites(self):
        with pytest.raises(ValueError, match="too few"):
            hinge_report(HodsmSpec(0), HingeGeometry(1, 2, 0.0))


class TestHingeShiftInvert:
    @pytest.mark.parametrize("cells", [6, 10])
    @pytest.mark.parametrize("variant", range(5))
    def test_matches_dense_reference(self, variant, cells):
        # the four near-EP energies are ill-conditioned; compare ranks and gaps
        spec = HodsmSpec(variant, epsilon=FIGURE_EPS[variant])
        geom = HingeGeometry(cells, cells, 0.0)
        rep = hinge_report(spec, geom)
        h = hinge_hamiltonian(spec, geom).toarray()
        w, u = np.linalg.eigh(h) if variant == 0 else np.linalg.eig(h)
        by_abs = np.argsort(np.abs(w), kind="stable")
        states = u[:, by_abs[:4]] / np.linalg.norm(u[:, by_abs[:4]], axis=0)
        s = np.linalg.svd(np.abs(states.conj().T @ states), compute_uv=False)
        assert rep.gram_rank == int(np.count_nonzero(s > probes.GRAM_THRESHOLD))
        e4, e5 = np.abs(w[by_abs[3]]), np.abs(w[by_abs[4]])
        assert rep.gap_ratio == pytest.approx(e5 / e4, rel=1e-5)
        assert abs(rep.gap_ratio * abs(rep.low_energies[3]) - e5) <= 1e-8
        assert np.all(np.diff(np.abs(rep.low_energies)) >= 0)

    def test_repeated_calls_are_bitwise_identical(self):
        for variant in (0, 2):
            spec = HodsmSpec(variant, epsilon=FIGURE_EPS[variant])
            a, b = (hinge_report(spec, HingeGeometry(10, 10, 0.0)) for _ in range(2))
            assert np.array_equal(a.gram, b.gram)
            assert a.gap_ratio == b.gap_ratio
        spec = HodsmSpec(1, t=-1.0, s=1.0, epsilon=0.25)
        a, b = (
            decay_rate_fit(spec, HingeGeometry(10, 34, 0.0), "B", "y") for _ in range(2)
        )
        assert a.ratio == b.ratio

    def test_eigs_signature_is_read_once(self, monkeypatch):
        """Whether eigs takes rng is fixed per process, so solves do not inspect it again."""
        calls = []
        signature = probes.inspect.signature

        def counting(fn):
            calls.append(fn)
            return signature(fn)

        monkeypatch.setattr(probes.inspect, "signature", counting)
        probes._eigs_takes_rng.cache_clear()
        spec = HodsmSpec(2, epsilon=FIGURE_EPS[2])
        for _ in range(3):
            hinge_report(spec, HingeGeometry(6, 6, 0.0))
        assert len(calls) == 1

    # ARPACK's real nonsymmetric mode on a SuperLU factor, and its restart rng, can differ by version
    @pytest.mark.version_sensitive
    @pytest.mark.parametrize("kz", [0.0, 0.7])
    @pytest.mark.parametrize("cells", [3, 6, 10, 12])
    @pytest.mark.parametrize("variant", range(5))
    def test_low_energies_are_closed_under_conjugation(self, variant, cells, kz):
        """The real matrix's low energies: real ones have imag 0, the rest exact conjugate pairs."""
        spec = HodsmSpec(variant, epsilon=FIGURE_EPS[variant])
        geom = HingeGeometry(cells, cells, kz)
        w, _ = probes._low_states(hinge_hamiltonian(spec, geom), 8)
        for low in (w, hinge_report(spec, geom).low_energies):
            assert np.array_equal(np.sort(low), np.sort(low.conj())), low

    @pytest.mark.parametrize("kz", [0.0, 0.7])
    @pytest.mark.parametrize("variant", range(5))
    def test_real_mode_energies_match_dense(self, variant, kz):
        """The eight energies nearest E = 0 agree with the dense spectrum to 1e-10 relative.

        Each energy above 1e-7 is compared as the mean of its cluster (radius
        1e-4 |E|) on both sides: the members of a defective cluster (v2's
        paired EP2s) are set only to about the square root of rounding, by
        either solver, but their mean is well conditioned.
        """
        spec = HodsmSpec(variant, epsilon=FIGURE_EPS[variant])
        h = hinge_hamiltonian(spec, HingeGeometry(6, 6, kz))
        w, _ = probes._low_states(h, 8)
        dense = np.linalg.eigvals(h.toarray())
        # no dense energy nearer E = 0 is missed, up to ties at the outermost |E|
        assert np.count_nonzero(np.abs(dense) < np.abs(w).max() * (1 - 1e-6)) < w.size
        for e in w[np.abs(w) > 1e-7]:
            radius = 1e-4 * abs(e)
            mine, theirs = w[np.abs(w - e) <= radius], dense[np.abs(dense - e) <= radius]
            assert mine.size <= theirs.size, (e, mine, theirs)
            assert abs(mine.mean() - theirs.mean()) <= 1e-10 * abs(e), (e, mine, theirs)

    # SuperLU's singular-factor error and ARPACK's complex retry can differ by version
    @pytest.mark.version_sensitive
    def test_singular_factor_retries_in_complex_arithmetic(self, monkeypatch):
        """An exactly singular real factor at sigma = 0 falls back to the complex solve at 1e-6 i.

        A complex shift on the real matrix would take the real part of the
        shifted inverse and miss the near-zero pair; the complex retry finds
        it, bitwise as a complex solve from the complex start vector does.
        """
        import scipy.sparse.linalg as spla

        h = hinge_hamiltonian(HodsmSpec(4, epsilon=0.5), HingeGeometry(10, 32, 0.0))
        splu, eigs, calls = spla.splu, spla.eigs, []

        def factoring(a, **kw):
            calls.append(("splu", a.dtype))
            try:
                return splu(a, **kw)
            except RuntimeError as exc:
                calls.append(str(exc))
                raise

        def recording(a, **kw):
            calls.append(("eigs", a.dtype, kw["sigma"]))
            return eigs(a, **kw)

        monkeypatch.setattr(spla, "splu", factoring)
        monkeypatch.setattr(spla, "eigs", recording)
        w, u = probes._low_states(h, 4)
        monkeypatch.undo()
        assert len(calls) == 3, calls
        assert calls[0] == ("splu", np.float64) and "exactly singular" in calls[1]
        assert calls[2] == ("eigs", np.complex128, 1e-6j)
        assert np.all(np.sort(np.abs(w))[:2] < 1e-13)

        rng = np.random.default_rng(0)
        v0 = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
        seeded = {"rng": rng} if probes._eigs_takes_rng() else {}
        want_w, want_u = eigs(h.astype(complex), k=4, sigma=1e-6j, v0=v0, **seeded)
        assert w.tobytes() == want_w.tobytes() and u.tobytes() == want_u.tobytes()


# the hinge sweep: v0-v4 x eps x kz x (t, s), v0 once since it takes no eps
HINGE_SWEEP_EPS = (0.1, 0.25, 0.5, 2**-0.5, 0.9, 0.35355339)


def hinge_sweep(cells):
    """(spec, geometry) for each input of the hinge sweep at n x n cells, n in ``cells``."""
    for v in range(5):
        for eps in HINGE_SWEEP_EPS if v else (0.0,):
            for kz, (t, s), n in itertools.product((0.0, 0.5, 1.3), ((-1.0, 1.0), (-0.7, 1.0)), cells):
                yield HodsmSpec(v, t=t, s=s, epsilon=eps), HingeGeometry(n, n, kz)


def dense_disagreement(spec, geom):
    """How far the report's four low |E| and its |E_5| (gap ratio times |E_4|) lie
    from the five lowest |E| of the dense spectrum, relative, with each
    denominator floored at 1e-8 ||H||_inf."""
    rep = hinge_report(spec, geom)
    h = hinge_hamiltonian(spec, geom)
    dense = np.sort(np.abs(np.linalg.eigvals(h.toarray())))[:5]
    low = np.abs(rep.low_energies)
    floor = 1e-8 * float(np.abs(h).sum(axis=1).max())
    return np.abs(np.append(low, rep.gap_ratio * low[3]) - dense) / np.maximum(dense, floor)


# at 3 and 6 cells the worst disagreement of the four low |E| is 5.3e-6 (in
# near-defective clusters, set to about the root of rounding), of |E_5| 1.8e-8
LOW_BOUND, E5_BOUND = 1e-4, 1e-6


class TestHingeRecord:
    """The report's low energies against dense eigvals; a record, since its digits rest on the BLAS."""

    def test_sweep_at_three_and_six_cells(self):
        inputs = list(hinge_sweep((3, 6)))
        assert len(inputs) == 300
        far = [
            (spec, geom, d)
            for spec, geom in inputs
            if (d := dense_disagreement(spec, geom))[:4].max() > LOW_BOUND or d[4] > E5_BOUND
        ]
        assert far == []

    # two eigenvalues lie within 4e-12 of the shift E = 0 and two more within 2e-6;
    # the report's |E_5| is off by 0.95 and 1.0, its gap ratio 1.76e4 and 21.5
    # where the dense one is 3.9e5 and 5.7e6
    @pytest.mark.xfail(strict=True, reason="the shift-invert solve returns energies that are not eigenvalues")
    @pytest.mark.parametrize("cells", [10, 12])
    def test_near_singular_shift(self, cells):
        d = dense_disagreement(HodsmSpec(4, t=-0.7, epsilon=0.25), HingeGeometry(cells, cells, 0.5))
        assert d[:4].max() <= LOW_BOUND and d[4] <= E5_BOUND


class TestHingeScaling:
    def test_low_set_energy_shrinks_with_system_size(self, policy):
        # |E_4| of the hermitian corner quadruplet decreases from 16 to 24 cells
        from fepkit.models import hinge_hamiltonian

        e4 = {}
        for n in (16, 24):
            h = hinge_hamiltonian(HodsmSpec(0), HingeGeometry(n, n, 0.0)).toarray()
            ev = np.sort(np.abs(np.linalg.eigvalsh(h)))
            e4[n] = float(ev[3])
        assert e4[24] < e4[16]


class TestAtomistic:
    def test_variant_checks_parameters(self, policy):
        with pytest.raises(ValueError, match="atomistic"):
            atomistic_classify(HodsmSpec(0, t=-1.0, s=1.0), policy)

    def test_variant3_partials(self, policy):
        r = atomistic_classify(HodsmSpec(3, t=-0.5, s=1.0, epsilon=0.5), policy)
        assert r.partials == (2, 2)
        assert r.method == "weyr"

    def test_nonzero_kz_solution(self, policy):
        # s cos kz = -2t with t = -1/4, s = 1 puts the atomistic momentum at pi/3
        r = atomistic_classify(HodsmSpec(0, t=-0.25, s=1.0), policy)
        assert r.partials == (1, 1, 1, 1)


class TestSymmetryTable:
    # pass/fail pattern over variants x kinds, frozen from the model algebra:
    # the Hermitian parent satisfies everything; the sum rule on the (B, A)
    # block survives only in variant 2; the one on (C, D) only in variant 4;
    # the generalized reflection only in variant 4; transposition with the
    # reflection only in variant 2.  Spectral Kramers pairing survives in
    # variant 2 because evenfold EP pairs replace the Kramers doublets.
    TABLE = {
        "chiral": {0, 1, 2, 3, 4},
        "rotation-c4": {0},
        "sum-rule-ba": {0, 2},
        "sum-rule-cd": {0, 4},
        "reflection": {0, 4},
        "transposition": {0, 2},
        "kramers": {0, 2},
    }
    EPS = {0: 0.0, 1: 2**-0.5, 2: 2**-0.5, 3: 0.5, 4: 8**-0.5}

    @pytest.mark.parametrize("kind", sorted(TABLE))
    def test_applicability_pattern(self, kind, policy):
        geom = HingeGeometry(6, 6, 0.3)
        for variant in range(5):
            spec = HodsmSpec(variant, epsilon=self.EPS[variant])
            res = symmetry_check(spec, kind, geom, policy)
            want = variant in self.TABLE[kind]
            assert res.passed == want, (
                f"{kind} on variant {variant}: passed={res.passed}, want {want} "
                f"(violation {res.max_violation:.2e} at {res.witness})"
            )

    def test_failure_carries_witness(self, policy):
        geom = HingeGeometry(6, 6, 0.0)
        res = symmetry_check(HodsmSpec(1, epsilon=0.5), "sum-rule-ba", geom, policy)
        assert not res.passed
        assert res.max_violation > 1e-6
        assert "entry" in res.witness

    def test_lieb_chiral(self, policy):
        res = symmetry_check(LiebSpec("minimal-fep", epsilon=1.0), "chiral")
        assert res.passed

    def test_kramers_on_hermitian_open_system(self, policy):
        res = symmetry_check(HodsmSpec(0), "kramers", HingeGeometry(10, 10, 0.0), policy)
        assert res.passed

    @pytest.mark.parametrize("kz", [0.0, 0.9])
    @pytest.mark.parametrize("cells", [10, 12])
    def test_kramers_real_path_matches_complex(self, cells, kz, policy, monkeypatch):
        geom = HingeGeometry(cells, cells, kz)
        h = hinge_hamiltonian(HodsmSpec(0), geom)
        assert h.dtype == np.float64
        res = symmetry_check(HodsmSpec(0), "kramers", geom, policy)
        monkeypatch.setattr(probes, "hinge_hamiltonian", lambda spec, geom: h.astype(complex))
        assert symmetry_check(HodsmSpec(0), "kramers", geom, policy) == res
        assert res.passed

    # the Hermitian spectrum comes from LAPACK's band solver (sbevd), which can differ by version
    @pytest.mark.version_sensitive
    @pytest.mark.parametrize("ts", [(-1.0, 1.0), (-0.7, 1.3)])
    @pytest.mark.parametrize("kz", [0.0, 0.9])
    @pytest.mark.parametrize("cells", [(1, 1), (3, 7), (7, 3), (10, 10), (12, 12), (10, 34)])
    def test_kramers_band_spectrum_matches_dense(self, cells, kz, ts):
        """The Hermitian variant's spectrum from its band equals the dense one."""
        t, s = ts
        h = hinge_hamiltonian(HodsmSpec(0, t=t, s=s), HingeGeometry(*cells, kz))
        band = probes._banded_spectrum(h)
        dense = np.linalg.eigvalsh(h.toarray())
        norm = float(np.abs(h).sum(axis=1).max())
        assert np.max(np.abs(band - dense)) <= 1e-12 * (1 + norm)

    def test_unknown_kind(self, policy):
        # the kind is checked before the geometry and the lattice family
        for spec, geom in [
            (HodsmSpec(0), HingeGeometry(4, 4)),
            (HodsmSpec(0), None),
            (HodsmSpec(0), HingeGeometry(3, 4)),
            (LiebSpec("hermitian"), HingeGeometry(4, 4)),
        ]:
            with pytest.raises(ValueError, match="unknown symmetry kind"):
                symmetry_check(spec, "mirror", geom, policy)

    def test_open_kind_requires_geometry(self, policy):
        with pytest.raises(ValueError):
            symmetry_check(HodsmSpec(0), "reflection", None, policy)


def dense_open_check(spec, kind, geom):
    """An open-system identity on the dense matrix: dense reflection operator, dense H @ H.

    Returns (passed, max_violation, position of the first largest entry, scale).
    """
    h = hinge_hamiltonian(spec, geom).toarray()
    scale = 1.0 + float(np.linalg.norm(h, np.inf))
    if kind in ("sum-rule-ba", "sum-rule-cd"):
        row, col = (1, 0) if kind == "sum-rule-ba" else (2, 3)
        delta, bound = (h @ h)[row::4, col::4], 1e-10 * scale**2
    else:
        gauge = np.ones(geom.sites)
        gauge[2::4] = -1.0  # the C sublattice
        r_op = np.diag(gauge).astype(complex) @ loop_corner_permutation(geom)
        moved = h if kind == "reflection" else h.T
        delta, bound = r_op @ moved @ r_op.T - h, 1e-10 * scale
    size = np.abs(delta)
    at = np.unravel_index(np.argmax(size), size.shape)
    worst = float(size[at])
    return worst <= bound, worst, tuple(int(i) for i in at), scale


def loop_bloch_check(spec, kind):
    """A Bloch-level identity one sampled momentum at a time."""
    rng = np.random.default_rng(probes.SYMMETRY_SEED)
    worst, at, scale = 0.0, "", 1.0
    if kind == "chiral":
        x = CHIRAL_LIEB if spec.dims == 2 else CHIRAL_DSM
        for _ in range(100):
            k = rng.uniform(-PI, PI, size=spec.dims)
            h = bloch_matrix(spec, k)
            scale = max(scale, 1.0 + float(np.max(np.abs(h))))
            v = float(np.max(np.abs(x @ h @ x + h)))
            if v > worst:
                worst, at = v, f"k = ({', '.join(f'{c:.4f}' for c in k)})"
        return SymmetryCheckResult(kind, worst <= 1e-10 * scale, worst, at)
    c4 = ROTATION_C4
    for _ in range(100):
        kx, ky, kz = rng.uniform(-PI, PI, size=3)
        lhs = c4 @ bloch_matrix(spec, (kx, ky, kz)) @ np.linalg.inv(c4)
        v = float(np.max(np.abs(lhs - bloch_matrix(spec, (ky, -kx, kz)))))
        if v > worst:
            worst, at = v, f"k = ({kx:.4f}, {ky:.4f}, {kz:.4f})"
    return SymmetryCheckResult(kind, worst <= 1e-10 * 10.0, worst, at)


# the figure parameters of TestSymmetryTable and one off-default point per variant
REFERENCE_SPECS = [HodsmSpec(v, epsilon=TestSymmetryTable.EPS[v]) for v in range(5)] + [
    HodsmSpec(v, t=-0.5, s=1.3, epsilon=0.37) for v in range(5)
]


class TestSymmetryReference:
    """The sparse and stacked checks against dense operators and per-momentum loops."""

    @pytest.mark.parametrize("kind", ["reflection", "transposition", "sum-rule-ba", "sum-rule-cd"])
    def test_open_kinds_match_dense_reference(self, kind, policy):
        for cells in (1, 2, 5, 6):
            for kz in (0.0, 0.3):
                geom = HingeGeometry(cells, cells, kz)
                for spec in REFERENCE_SPECS:
                    res = symmetry_check(spec, kind, geom, policy)
                    passed, worst, at, scale = dense_open_check(spec, kind, geom)
                    case = f"{kind} {spec} {geom}: {res} vs {worst!r} at {at}"
                    assert res.passed == passed, case
                    if kind.startswith("sum-rule"):
                        # sparse and dense products sum in different orders
                        assert abs(res.max_violation - worst) <= 1e-15 * scale**2, case
                    else:
                        assert res.max_violation == worst, case
                        assert res.witness == (f"entry {at}" if worst else ""), case

    @pytest.mark.parametrize("kind", ["chiral", "rotation-c4"])
    def test_bloch_kinds_match_loop_reference(self, kind, policy):
        specs = REFERENCE_SPECS
        if kind == "chiral":
            specs = specs + [
                LiebSpec("hermitian"),
                LiebSpec("nh-symmetric", epsilon=0.6),
                LiebSpec("minimal-fep", epsilon=1.1),
                LiebSpec("reciprocal", phi=0.4, psi=1.9),
            ]
        for spec in specs:
            assert symmetry_check(spec, kind, None, policy) == loop_bloch_check(spec, kind)

    def test_open_identities_never_densify(self, monkeypatch, policy):
        def refuse(self, *args, **kwargs):
            raise AssertionError("sparse matrix made dense")

        for fmt in ("csr", "csc", "coo", "bsr", "dia", "dok", "lil"):
            for container in ("matrix", "array"):
                cls = getattr(sp, f"{fmt}_{container}")
                monkeypatch.setattr(cls, "toarray", refuse)
                monkeypatch.setattr(cls, "todense", refuse)
        spec = HodsmSpec(4, epsilon=TestSymmetryTable.EPS[4])
        with pytest.raises(AssertionError, match="made dense"):  # the guard bites
            symmetry_check(spec, "kramers", HingeGeometry(2, 2), policy)
        geom = HingeGeometry(30, 30, 0.3)
        for kind in ("reflection", "transposition", "sum-rule-ba", "sum-rule-cd"):
            symmetry_check(spec, kind, geom, policy)


def clusters(w, pairs):
    """The single-linkage clusters of the points w under the index pairs, as sorted index lists."""
    from scipy.sparse.csgraph import connected_components

    i, j = pairs
    links = sp.coo_matrix((np.ones(len(i)), (i, j)), shape=(w.size, w.size))
    n_comp, labels = connected_components(links, directed=False)
    return sorted(sorted(np.flatnonzero(labels == c).tolist()) for c in range(n_comp))


def kdtree_clusters(w, radius):
    """Reference clusters from cKDTree's pairs; fepkit itself does not load scipy.spatial."""
    from scipy.spatial import cKDTree

    pairs = cKDTree(np.c_[w.real, w.imag]).query_pairs(radius, output_type="ndarray")
    return clusters(w, (pairs[:, 0], pairs[:, 1]))


def _cluster_point_sets():
    rng = np.random.default_rng(35)
    base = rng.normal(size=40) + 1j * rng.normal(size=40)
    return {
        # equal real parts: the sweep visits every offset
        "purely imaginary": 1j * rng.uniform(-20, 20, size=300),
        "imaginary with duplicates": 1j * np.repeat(rng.uniform(-5, 5, size=30), 3),
        "duplicates and conjugates": np.concatenate([base, base, base.conj(), base.real]),
        # lattice steps and a 3-4-5 triangle scaled by 1/8: exactly 0.625 apart in binary
        "exactly radius apart": np.array([0, 0.375 + 0.5j, 0.625, 1.25, 1.25 + 0.625j, 3, 3 + 1.25j]),
        "one point": np.array([0.3 + 0.1j]),
        "no point": np.empty(0, complex),
        "scattered": rng.uniform(-4, 4, size=200) + 1j * rng.uniform(-4, 4, size=200),
    }


CLUSTER_POINT_SETS = _cluster_point_sets()


class TestKramersClusters:
    """The real-part sweep's clusters against cKDTree single linkage."""

    RADIUS = 0.625

    @pytest.mark.parametrize("name", sorted(CLUSTER_POINT_SETS))
    def test_point_sets_match_kdtree(self, name):
        w = CLUSTER_POINT_SETS[name]
        assert clusters(w, probes._close_pairs(w, self.RADIUS)) == kdtree_clusters(w, self.RADIUS)

    def test_exact_radius_is_close(self):
        w = np.array([0.0, 0.375 + 0.5j])
        i, j = probes._close_pairs(w, self.RADIUS)
        assert (i.tolist(), j.tolist()) == ([0], [1])
        assert probes._close_pairs(w, np.nextafter(self.RADIUS, 0))[0].size == 0

    def test_gaps_past_the_float_range_are_far(self):
        w = np.array([-1.5e308, 1.5e308, 1.5e308 + 1e292j, 1e308j, -1e308j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i, j = probes._close_pairs(w, 1e300)
        assert sorted(zip(i.tolist(), j.tolist())) == [(1, 2)]

    @pytest.mark.parametrize("kz", [0.0, 0.5])
    @pytest.mark.parametrize("cells", [3, 6])
    def test_kramers_spectra_match_kdtree(self, cells, kz, policy, monkeypatch):
        # compare on the spectrum and radius the check itself pairs
        close_pairs, seen = probes._close_pairs, []

        def recording(w, radius):
            seen.append((w, radius))
            return close_pairs(w, radius)

        monkeypatch.setattr(probes, "_close_pairs", recording)
        for spec in REFERENCE_SPECS:
            symmetry_check(spec, "kramers", HingeGeometry(cells, cells, kz), policy)
            [(w, radius)] = seen
            seen.clear()
            assert clusters(w, close_pairs(w, radius)) == kdtree_clusters(w, radius), spec


class TestDecayFits:
    def test_hermitian_corner_d(self):
        fit = decay_rate_fit(
            HodsmSpec(0, t=-1.0, s=1.0), HingeGeometry(10, 32, 0.0), "D", "y"
        )
        assert fit.ratio == pytest.approx(0.5, abs=0.05)
        assert fit.r_squared >= 0.98

    def test_kz_dependence(self):
        # ratio |(-t/s) - cos(kz)/2| = |1 - cos(1.0)/2|
        kz = 1.0
        fit = decay_rate_fit(
            HodsmSpec(0, t=-1.0, s=1.0), HingeGeometry(10, 32, kz), "B", "y"
        )
        assert fit.ratio == pytest.approx(abs(1 - math.cos(kz) / 2), abs=0.08)

    def test_enhanced_localization_variant1(self):
        fit = decay_rate_fit(
            HodsmSpec(1, t=-1.0, s=1.0, epsilon=0.25),
            HingeGeometry(10, 32, 0.0),
            "B",
            "y",
        )
        assert fit.ratio == pytest.approx(0.25, abs=0.025)

    def test_missing_state_reported(self):
        # all right eigenstates of variant 1 pile up at the B corner, so the
        # C corner hosts no localized right state to fit
        with pytest.raises(ValueError, match="no hinge state"):
            decay_rate_fit(
                HodsmSpec(1, t=-1.0, s=1.0, epsilon=0.5),
                HingeGeometry(10, 32, 0.0),
                "C",
                "y",
            )

    @pytest.mark.parametrize("variant,corner", [(2, "B"), (4, "C")])
    def test_growing_amplitude_refused(self, variant, corner):
        # the fitted per-cell ratios here are about 2.1 and 1.08: the amplitude
        # grows away from the corner, so there is no decay rate to report
        spec = HodsmSpec(variant, t=-1.0, s=1.0, epsilon=0.5)
        with pytest.raises(ValueError, match=f"does not decay away from corner {corner}"):
            decay_rate_fit(spec, HingeGeometry(10, 32, 0.0), corner, "y")

    def test_geometry_too_short(self):
        with pytest.raises(ValueError, match="30"):
            decay_rate_fit(HodsmSpec(0), HingeGeometry(10, 10, 0.0), "B", "y")

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            decay_rate_fit(HodsmSpec(0), HingeGeometry(10, 32, 0.0), "E", "y")
        with pytest.raises(ValueError):
            decay_rate_fit(HodsmSpec(0), HingeGeometry(10, 32, 0.0), "B", "z")


class TestDecayFourStates:
    """Criterion-10 cases: a fit from the four hinge states equals one from six."""

    SPECS = {"v0": HodsmSpec(0, t=-1.0, s=1.0), "v1": HodsmSpec(1, t=-1.0, s=1.0, epsilon=0.25)}
    GEOMS = {"y": HingeGeometry(10, 34, 0.0), "x": HingeGeometry(34, 10, 0.0)}
    # right states of variant 1 pile up at corners B and D
    NO_STATE = {("v1", "A", "y"), ("v1", "C", "y"), ("v1", "C", "x")}

    @pytest.mark.parametrize("axis", ["y", "x"])
    @pytest.mark.parametrize("corner", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("name", ["v0", "v1"])
    def test_matches_six_state_fit(self, name, corner, axis, monkeypatch):
        spec, geom = self.SPECS[name], self.GEOMS[axis]
        low_states = probes._low_states
        solved = []

        def recording(h, k):
            solved.append(low_states(h, k))
            return solved[-1]

        monkeypatch.setattr(probes, "_low_states", recording)

        def fit_with(states: int):
            monkeypatch.setattr(probes, "HINGE_STATES", states)
            return decay_rate_fit(spec, geom, corner, axis)

        if (name, corner, axis) in self.NO_STATE:
            for states in (4, 6):
                with pytest.raises(ValueError, match="no hinge state"):
                    fit_with(states)
            return
        fit, ref = fit_with(4), fit_with(6)
        assert fit.ratio == pytest.approx(ref.ratio, rel=1e-8, abs=0)
        assert fit.r_squared == pytest.approx(ref.r_squared, rel=1e-8, abs=0)

        # the chosen state belongs to the quadruplet below the bulk gap
        w, u = solved[0]
        assert w.size == 4
        cx, cy = probes._corner_cell(geom, corner)
        corner_index = 4 * cell_index(geom, cx, cy) + probes._CORNER_SITE[corner]
        chosen = int(np.argmax(np.abs(u[corner_index]) / np.linalg.norm(u, axis=0)))
        low8 = np.sort(np.abs(low_states(hinge_hamiltonian(spec, geom), 8)[0]))
        assert low8[4] > 100 * low8[3]
        assert abs(w[chosen]) <= low8[3] * (1 + 1e-9)


def loop_form_fit(spec, geom, corner, axis, u) -> probes.DecayFit:
    """``decay_rate_fit`` on given states, walking the profile one ``cell_index`` at a time."""
    site = probes._CORNER_SITE[corner]
    cx, cy = probes._corner_cell(geom, corner)
    u = u / np.linalg.norm(u, axis=0, keepdims=True)
    state = u[:, int(np.argmax(np.abs(u[4 * cell_index(geom, cx, cy) + site, :])))]
    length = geom.nx if axis == "x" else geom.ny
    profile = np.empty(length)
    for d in range(length):
        if axis == "x":
            x, y = (cx + d if cx == 1 else cx - d), cy
        else:
            x, y = cx, (cy + d if cy == 1 else cy - d)
        profile[d] = abs(state[4 * cell_index(geom, x, y) + site])
    start, stop = 2, max(6, length // 2 - 2)
    slope, _, r2 = probes._log_fit(np.arange(start, stop, dtype=float), profile[start:stop])
    return probes.DecayFit(
        ratio=float(np.exp(slope)), r_squared=r2, corner=corner, axis=axis, cells=(start, stop)
    )


@pytest.mark.parametrize(
    "name,corner,axis",
    [("v0", "A", "y"), ("v0", "A", "x"), ("v0", "B", "y"), ("v0", "B", "x"), ("v1", "B", "y"), ("v1", "B", "x")],
)
def test_decay_fit_matches_loop_form(name, corner, axis, monkeypatch):
    """The criterion-10 fits equal, bit for bit, the profile walked cell by cell."""
    spec, geom = TestDecayFourStates.SPECS[name], TestDecayFourStates.GEOMS[axis]
    low_states = probes._low_states
    solved = []

    def recording(h, k):
        solved.append(low_states(h, k))
        return solved[-1]

    monkeypatch.setattr(probes, "_low_states", recording)
    fit = decay_rate_fit(spec, geom, corner, axis)
    assert fit == loop_form_fit(spec, geom, corner, axis, solved[0][1])


def test_symmetry_kinds_exported():
    assert set(SYMMETRY_KINDS) >= {
        "chiral",
        "kramers",
        "sum-rule-ba",
        "sum-rule-cd",
        "reflection",
        "transposition",
    }
