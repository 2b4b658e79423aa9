import itertools
import math

import numpy as np
import pytest

from fepkit.matkit import spectral_norm
from fepkit import scan
from fepkit.classify import DegeneracyReport, classify_point
from fepkit.models import HodsmSpec, LiebSpec, arccot, bloch_matrix
from fepkit.scan import (
    analytic_degeneracies,
    bz_scan,
    canonical_k,
    min_abs_energy,
    refine_degeneracy,
    trace_ring,
    _detector_complex,
    _detector_degree,
    _model_scale,
)

PI = math.pi


def k_distance(a, b):
    return max(
        PI - abs(abs(x - y) % (2 * PI) - PI) for x, y in zip(a, b)
    )


class TestBroadcast:
    def test_detector_on_meshgrid_equals_pointwise(self, catalog_model):
        # the same formula either way, but numpy's vectorised complex multiply
        # may round differently from the scalar one (fused multiply-add on
        # AVX-512 builds), so allow a few units in the last place of the terms
        scale = _model_scale(catalog_model)
        tol = 16 * np.finfo(float).eps * scale ** _detector_degree(catalog_model)
        axes = [np.linspace(-PI, PI, 8, endpoint=False)] * catalog_model.dims
        grid = _detector_complex(catalog_model, np.meshgrid(*axes, indexing="ij"))
        assert grid.shape == (8,) * catalog_model.dims
        for idx in np.ndindex(grid.shape):
            k = tuple(float(axis[i]) for axis, i in zip(axes, idx))
            assert abs(grid[idx] - _detector_complex(catalog_model, k)) <= tol

    @pytest.mark.parametrize("resolution", [8, 48])
    def test_detector_on_sparse_grid_is_bitwise_dense(self, catalog_model, resolution):
        # bz_scan evaluates each symbol on the axes it reads; every detector
        # value must be the one the dense meshgrid gives
        axes = [np.linspace(-PI, PI, resolution, endpoint=False)] * catalog_model.dims
        dense = _detector_complex(catalog_model, np.meshgrid(*axes, indexing="ij"))
        sparse = _detector_complex(catalog_model, np.meshgrid(*axes, indexing="ij", sparse=True))
        assert sparse.shape == dense.shape == (resolution,) * catalog_model.dims
        assert np.array_equal(sparse, dense)

    def test_model_scale_is_largest_spectral_norm(self, catalog_model):
        pts = np.linspace(-PI, PI, 7, endpoint=False)
        norms = [
            spectral_norm(bloch_matrix(catalog_model, k))
            for k in itertools.product(pts, repeat=catalog_model.dims)
        ]
        assert _model_scale(catalog_model) == 1.0 + max(norms)

    def test_min_abs_energy_stack_equals_pointwise(self, catalog_model, rng):
        k = rng.uniform(-PI, PI, size=(catalog_model.dims, 5))
        stack = min_abs_energy(catalog_model, k)
        assert stack.shape == (5,)
        for i in range(5):
            assert stack[i] == min_abs_energy(catalog_model, tuple(k[:, i]))


class TestScanGrid:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            bz_scan(LiebSpec("hermitian"), 4)

    def test_axes_are_half_open(self, monkeypatch):
        # the detector's one zero is the zone corner: a half-open axis samples
        # it once, at -pi, where a closed one would seed it at both ends
        starts = []
        refine = scan.refine_degeneracy

        def recording(model, k0, scale):
            starts.append(k0)
            return refine(model, k0, scale)

        monkeypatch.setattr(scan, "refine_degeneracy", recording)
        cands = bz_scan(LiebSpec("hermitian"), 8)
        assert starts == [(-PI, -PI)]
        assert len(cands) == 1 and k_distance(cands[0].k_point, (PI, PI)) <= 1e-12


class TestBzScan:
    def test_hermitian_single_candidate(self, policy):
        cands = bz_scan(LiebSpec("hermitian"), 128, policy)
        assert len(cands) == 1
        assert k_distance(cands[0].k_point, (PI, PI)) <= 1e-8
        assert cands[0].k_point is not None

    def test_minimal_fep_two_candidates(self, policy):
        spec = LiebSpec("minimal-fep", epsilon=1.0)
        cands = bz_scan(spec, 128, policy)
        assert len(cands) == 2
        kappa = 2 * arccot(0.5)
        wants = [(kappa, -kappa), (PI, PI)]
        for c, want in zip(cands, wants):
            assert k_distance(c.k_point, want) <= 1e-8

    def test_nh_symmetric_four_candidates(self, policy):
        spec = LiebSpec("nh-symmetric", epsilon=1.0)
        cands = bz_scan(spec, 128, policy)
        assert len(cands) == 4
        k0 = 2 * PI / 3
        wants = {(mu * k0, nu * k0) for mu in (1, -1) for nu in (1, -1)}
        for c in cands:
            assert min(k_distance(c.k_point, w) for w in wants) <= 1e-8

    def test_no_misses_no_spurious_vs_analytic(self, policy):
        for spec in [
            LiebSpec("hermitian"),
            LiebSpec("minimal-fep", epsilon=1.0),
            LiebSpec("nh-symmetric", epsilon=1.0),
            LiebSpec("reciprocal", phi=PI / 2, psi=3 * PI / 4),
        ]:
            catalog = analytic_degeneracies(spec)
            cands = bz_scan(spec, 128, policy)
            assert len(cands) == len(catalog)
            for entry in catalog:
                assert min(k_distance(entry.k, c.k_point) for c in cands) <= 1e-8
            for c in cands:
                assert min(k_distance(c.k_point, e.k) for e in catalog) <= 1e-8

    def test_candidates_sorted_and_below_energy_cut(self, policy):
        spec = LiebSpec("nh-symmetric", epsilon=1.0)
        cands = bz_scan(spec, 96, policy)
        ks = [c.k_point for c in cands]
        assert ks == sorted(ks)
        for k in ks:
            assert min_abs_energy(spec, k) <= 0.05

    @pytest.mark.parametrize("resolution", [16, 32])
    def test_kept_candidates_meet_the_refine_bound(self, catalog_model, resolution):
        """Every kept candidate has min |E| <= REFINE_TOL ** (1 / degree) * scale.

        Refined means |detector| <= REFINE_TOL * scale**degree.  Lieb: |E|**2
        = |PQ + RS|.  Semimetal: |E|**2 = |det QR| / lambda_big <= sqrt|det QR|,
        since lambda_big**2 >= |det QR|.  So no energy cut above this bound can
        drop a refined candidate.  Slack 1e-3 relative: min |E| is evaluated at
        canonical_k(k), which can differ from the refined k by the rounding of
        a 2 pi shift (~1e-15), moving the normalized detector by up to ~1e-15
        against REFINE_TOL = 1e-12.
        """
        scale = _model_scale(catalog_model)
        bound = scan.REFINE_TOL ** (1 / _detector_degree(catalog_model)) * scale
        cands = bz_scan(catalog_model, resolution)
        assert cands
        for c in cands:
            assert c.k_point is not None
            assert min_abs_energy(catalog_model, c.k_point) <= bound * (1 + 1e-3), c

    def test_reports_are_classify_point_at_their_momenta(self, policy):
        spec = LiebSpec("minimal-fep", epsilon=1.0)
        reports = bz_scan(spec, 96, policy)
        assert sorted(r.label for r in reports) == ["EP3", "FEP"]
        for r in reports:
            assert isinstance(r, DegeneracyReport)
            assert r == classify_point(bloch_matrix(spec, r.k_point), 0.0, policy, k_point=r.k_point)

    def test_equal_angle_ring_classifies(self, policy):
        # every refined point of the exceptional ring is an EP3 or the FEP;
        # none is refused by the classifier
        phi = PI / 6
        spec = LiebSpec("reciprocal", phi=phi, psi=phi)
        cands = bz_scan(spec, 64, policy)
        assert cands
        for c in cands:
            assert abs(math.cos(c.k_point[0]) + math.cos(c.k_point[1]) - 2 * math.cos(phi)) <= 1e-8
            assert c.label in ("EP3", "FEP")

    def test_hodsm_line_degeneracies_found_in_3d(self, policy):
        # full-zone scan at modest resolution; every on-axis analytic point
        # must have a candidate nearby (finds outside the printed set are
        # allowed: the zero set of det H contains curves, flagged not asserted)
        spec = HodsmSpec(3, epsilon=0.5)
        cands = bz_scan(spec, 24, policy)
        assert cands, "scan found nothing"
        for c in cands:
            assert min_abs_energy(spec, c.k_point) <= 0.05
        for entry in analytic_degeneracies(spec):
            near = min(k_distance(entry.k, c.k_point) for c in cands)
            assert near <= 2 * math.sqrt(3) * 2 * PI / 24, f"missed {entry.k}"


class TestRefine:
    def test_converges_to_corner_point(self):
        spec = LiebSpec("minimal-fep", epsilon=1.0)
        k = refine_degeneracy(spec, (PI + 0.05, PI - 0.05), _model_scale(spec))
        assert k is not None
        assert k_distance(k, (PI, PI)) <= 1e-8

    def test_hodsm_ep4_from_off_point(self):
        spec = HodsmSpec(1, epsilon=2**-0.5)
        k = refine_degeneracy(spec, (0.0, 0.0, 0.8), _model_scale(spec))
        assert k is not None
        assert k_distance(k, (0.0, 0.0, PI / 4)) <= 1e-6

    def test_exact_start_returns_immediately(self):
        spec = LiebSpec("hermitian")
        k = refine_degeneracy(spec, (PI, PI), _model_scale(spec))
        assert k is not None
        assert k_distance(k, (PI, PI)) <= 1e-10

    def test_two_starts_converge_together(self):
        spec = LiebSpec("nh-symmetric", epsilon=1.0)
        cell = 2 * PI / 128
        k0 = (2 * PI / 3, 2 * PI / 3)
        scale = _model_scale(spec)
        a = refine_degeneracy(spec, (k0[0] + 0.4 * cell, k0[1] - 0.3 * cell), scale)
        b = refine_degeneracy(spec, (k0[0] - 0.5 * cell, k0[1] + 0.2 * cell), scale)
        assert a is not None and b is not None
        assert k_distance(a, b) <= 1e-6

    @pytest.mark.parametrize(
        "spec,k0",
        [
            (LiebSpec("minimal-fep", epsilon=1.0), (PI + 0.05, PI - 0.05)),
            (HodsmSpec(1, epsilon=2**-0.5), (0.0, 0.0, 0.8)),
        ],
        ids=["lieb", "hodsm"],
    )
    def test_detector_sees_only_momentum_stacks(self, monkeypatch, spec, k0):
        """One-point stacks for the start and each trial, one 2*dims stencil per iteration."""
        seen = []
        detector = scan._detector_complex

        def recording(model, k):
            seen.append(k)
            return detector(model, k)

        monkeypatch.setattr(scan, "_detector_complex", recording)
        assert refine_degeneracy(spec, k0, _model_scale(spec)) is not None
        dims = spec.dims
        assert all(isinstance(k, np.ndarray) and k.ndim == 2 and k.shape[0] == dims for k in seen)
        widths = [k.shape[1] for k in seen]
        stencils = [i for i, m in enumerate(widths) if m == 2 * dims]
        assert set(widths) == {1, 2 * dims} and widths[0] == 1 and stencils
        offsets = 1e-6 * np.hstack([np.eye(dims), -np.eye(dims)])
        for i in stencils:
            # the stencil is centred on the last accepted point, and a line search follows it
            assert widths[i + 1] == 1
            assert np.allclose(seen[i] - seen[i - 1], offsets, rtol=0, atol=1e-15)

    def test_nonconvergence_reported_not_raised(self):
        # outside -3/2 < t/s < -1/2 the parent semimetal is gapped: there is
        # no zero of the detector anywhere, so refinement must report failure
        spec = HodsmSpec(0, t=-2.0, s=1.0)
        k0 = (0.3, -0.2, 1.1)
        assert refine_degeneracy(spec, k0, _model_scale(spec)) is None
        assert min_abs_energy(spec, k0) > 0.05

    def test_gapped_model_scan_is_empty(self, policy):
        spec = HodsmSpec(0, t=-2.0, s=1.0)
        assert bz_scan(spec, 12, policy) == []


class TestAnalyticCatalog:
    def test_reciprocal_four_points(self):
        spec = LiebSpec("reciprocal", phi=PI / 2, psi=3 * PI / 4)
        entries = analytic_degeneracies(spec)
        labels = {tuple(round(x, 6) for x in e.k): e.label for e in entries}
        assert labels[(round(3 * PI / 4, 6), round(PI / 2, 6))] == "FEP"
        assert labels[(round(-3 * PI / 4, 6), round(-PI / 2, 6))] == "FEP"
        assert labels[(round(3 * PI / 4, 6), round(-PI / 2, 6))] == "EP3"
        assert labels[(round(-3 * PI / 4, 6), round(PI / 2, 6))] == "EP3"

    def test_hermitian_parent_dirac_points(self):
        entries = analytic_degeneracies(HodsmSpec(0, t=-1.0, s=1.0))
        ks = sorted(tuple(round(x, 9) for x in e.k) for e in entries)
        assert ks == [(0.0, 0.0, round(-PI / 2, 9)), (0.0, 0.0, round(PI / 2, 9))]
        assert all(e.partials == (1, 1, 1, 1) for e in entries)

    def test_nh3_catalog(self):
        entries = analytic_degeneracies(HodsmSpec(3, epsilon=0.5))
        feps = [e for e in entries if e.label == "FEP"]
        ep2s = [e for e in entries if e.label == "EP2"]
        assert len(feps) == 2 and len(ep2s) == 4
        assert all(e.partials == (2, 2) for e in feps)
        kz_fep = sorted(round(e.k[2], 9) for e in feps)
        assert kz_fep == [round(-PI / 2, 9), round(PI / 2, 9)]
        kz_ep2 = sorted(round(abs(e.k[2]), 6) for e in ep2s)
        assert kz_ep2 == [round(PI / 4, 6)] * 2 + [round(3 * PI / 4, 6)] * 2


class TestTraceRing:
    def test_sample_count_and_alpha(self, policy):
        spec = LiebSpec("reciprocal", phi=PI / 4, psi=PI / 4)
        samples = trace_ring(spec, 64, policy)
        assert len(samples) == 64
        assert all(isinstance(s, DegeneracyReport) for s in samples)
        assert all(s.alpha == 3 for s in samples)

    def test_special_point_sampled_exactly(self, policy):
        spec = LiebSpec("reciprocal", phi=PI / 4, psi=PI / 4)
        samples = trace_ring(spec, 64, policy)
        special = [s for s in samples if k_distance(s.k_point, (PI / 4, PI / 4)) <= 1e-12]
        assert len(special) == 1
        assert special[0].label == "FEP"

    def test_off_ring_momenta_have_simple_flat_band(self, policy, rng):
        spec = LiebSpec("reciprocal", phi=PI / 4, psi=PI / 4)
        from fepkit.classify import classify_point
        from fepkit.models import lieb_bloch

        checked = 0
        while checked < 10:
            k = tuple(rng.uniform(-PI, PI, 2))
            if abs(_detector_complex(spec, k)) / _model_scale(spec) ** 2 < 1e-2:
                continue  # too close to the ring
            r = classify_point(lieb_bloch(spec, k), 0.0, policy)
            assert r.alpha == 1 and r.label == "nondegenerate"
            checked += 1

    def test_requires_equal_angles(self, policy):
        with pytest.raises(ValueError):
            trace_ring(LiebSpec("reciprocal", phi=0.3, psi=0.9), 16, policy)

    def test_requires_reciprocal_variant(self, policy):
        with pytest.raises(ValueError):
            trace_ring(LiebSpec("hermitian"), 16, policy)

    def test_odd_sample_count(self, policy):
        spec = LiebSpec("reciprocal", phi=PI / 4, psi=PI / 4)
        samples = trace_ring(spec, 33, policy)
        assert len(samples) == 33

    def test_ring_wrapping_through_zone_corner(self, policy):
        # cos phi < 0 rings the zone corner; the kx domain wraps through pi
        spec = LiebSpec("reciprocal", phi=3 * PI / 4, psi=3 * PI / 4)
        samples = trace_ring(spec, 64, policy)
        assert len(samples) == 64
        assert all(s.alpha == 3 for s in samples)
        feps = sorted(s.k_point for s in samples if s.label == "FEP")
        assert len(feps) == 2
        for got, want in zip(feps, [(-3 * PI / 4, -3 * PI / 4), (3 * PI / 4, 3 * PI / 4)]):
            assert k_distance(got, want) <= 1e-8


class TestClosedFormEnergy:
    @staticmethod
    def check_against_dense(model, rng):
        k = rng.uniform(-PI, PI, size=(model.dims, 4000))
        closed = min_abs_energy(model, k)
        # reference: the eigensolve the closed form replaced; odd chiral
        # dimension adds one flat band
        h = bloch_matrix(model, k)
        w, x = np.linalg.eig(h)
        dense = np.sort(np.abs(w), axis=-1)[:, w.shape[-1] % 2]
        # near an exceptional point away from E = 0 (nh2's exceptional
        # surfaces) min |E| is ill-conditioned: a dense eigenvalue is only
        # good to eps * cond * ||H||, cond from the right and left eigenvectors
        cond = np.linalg.norm(x, axis=-2) * np.linalg.norm(np.linalg.inv(x), axis=-1)
        bound = np.finfo(float).eps * cond.max(axis=-1) * np.linalg.norm(h, axis=(-2, -1))
        gapped = dense > 1e-3
        assert gapped.sum() >= 3000
        err = np.abs(closed - dense)[gapped]
        assert np.all(err <= np.maximum(1e-12 * dense[gapped], bound[gapped]))

    def test_catalog_models_match_dense(self, catalog_model, rng):
        self.check_against_dense(catalog_model, rng)

    def test_semimetal_off_normalization_matches_dense(self, rng):
        self.check_against_dense(HodsmSpec(4, t=-0.7, s=1.3, epsilon=0.4), rng)

    def test_vanishes_at_catalog_points(self, catalog_model):
        for entry in analytic_degeneracies(catalog_model):
            # rounding k perturbs H by about 1e-16, and a Jordan block of size
            # four (the EP4) splits by its fourth root, about 1e-4
            bound = 1e-6 if max(entry.partials) < 4 else 1e-3
            assert min_abs_energy(catalog_model, entry.k) <= bound, entry


class TestHelpers:
    def test_canonical_range(self):
        assert canonical_k((-PI,))[0] == pytest.approx(PI)
        assert canonical_k((3 * PI,))[0] == pytest.approx(PI)
        assert canonical_k((0.3,))[0] == pytest.approx(0.3)

    def test_min_abs_energy_skips_flat_band(self):
        spec = LiebSpec("hermitian")
        # at the zone center the dispersive gap is 2 sqrt(2)
        assert min_abs_energy(spec, (0.0, 0.0)) == pytest.approx(2 * math.sqrt(2))
        assert min_abs_energy(HodsmSpec(0), (0.0, 0.0, PI / 2)) <= 1e-12
