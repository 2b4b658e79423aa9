import itertools
import math
import re

import numpy as np
import pytest

from fepkit.matkit import spectral_norm
from fepkit import scan
from fepkit.classify import (
    DegeneracyReport,
    InconsistentRanksError,
    OracleDisagreementError,
    classify_point,
)
from fepkit.models import HodsmSpec, LiebSpec, arccot, bloch_matrix, lieb_bloch
from fepkit.selftest import FIGURE_EPS
from fepkit.scan import (
    ExpectedDegeneracy,
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


def column(k):
    """One momentum as a stack of one, shape (dims, 1)."""
    return np.reshape(k, (-1, 1))


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
            assert stack[i] == min_abs_energy(catalog_model, k[:, i : i + 1])[0]


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
            # bz_scan refines its seeds as one (S, dims) stack
            starts.extend(tuple(float(c) for c in k) for k in k0)
            return refine(model, k0, scale)

        monkeypatch.setattr(scan, "refine_degeneracy", recording)
        cands = bz_scan(LiebSpec("hermitian"), 8)
        assert starts == [(-PI, -PI)]
        assert len(cands) == 1 and k_distance(cands[0].k_point, (PI, PI)) <= 1e-12

    @pytest.mark.parametrize(
        "model, grid, tied",
        [
            (LiebSpec("hermitian"), 8, False),
            (LiebSpec("hermitian"), 64, False),
            (LiebSpec("reciprocal", phi=PI / 6, psi=PI / 6), 32, False),
            (LiebSpec("reciprocal", phi=PI / 4, psi=PI / 4), 128, False),
            # gapped semimetals, whose detector has plateaus of equal values
            (HodsmSpec(0, t=-2.0, s=1.0), 9, True),
            (HodsmSpec(0, t=-2.0, s=1.0), 13, True),
            (HodsmSpec(0, t=-0.25, s=1.0), 24, True),
        ],
        ids=[
            "hermitian-8",
            "hermitian-64",
            "ring-pi/6",
            "ring-pi/4",
            "gapped-9",
            "gapped-13",
            "gapped-t/4",
        ],
    )
    def test_minima_keep_the_roll_rule(self, model, grid, tied, monkeypatch):
        """The seeds are the grid points at most each periodic neighbour, ties included."""
        axes = [np.linspace(-PI, PI, grid, endpoint=False)] * model.dims
        vals = np.abs(_detector_complex(model, np.meshgrid(*axes, indexing="ij", sparse=True)))
        is_min = np.ones(vals.shape, dtype=bool)
        is_strict = np.ones(vals.shape, dtype=bool)
        for axis in range(model.dims):
            for shift in (1, -1):
                is_min &= vals <= np.roll(vals, shift, axis=axis)
                is_strict &= vals < np.roll(vals, shift, axis=axis)
        # a tie between neighbours makes the two rules differ
        assert tied == (not np.array_equal(is_min, is_strict))
        seeds = np.argwhere(is_min)
        assert 0 < len(seeds) <= 5000
        want = np.stack([axes[d][seeds[:, d]] for d in range(model.dims)], axis=1)
        starts, _ = scan_seeds(model, grid, monkeypatch)
        assert np.array_equal(starts, want)


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
            assert min_abs_energy(spec, column(k))[0] <= 0.05

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
            assert min_abs_energy(catalog_model, column(c.k_point))[0] <= bound * (1 + 1e-3), c

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
            assert min_abs_energy(spec, column(c.k_point))[0] <= 0.05
        for entry in analytic_degeneracies(spec):
            near = min(k_distance(entry.k, c.k_point) for c in cands)
            assert near <= 2 * math.sqrt(3) * 2 * PI / 24, f"missed {entry.k}"


# the grids of the benchmark's zone-scan workload
ZONE_SCAN_GRIDS = {LiebSpec: (128,), HodsmSpec: (32, 48)}


def fingerprints(model, ks, classify):
    """(beta, method, k_point, eta.hex(), xi.hex()) per report, or the (type, message) raised."""
    try:
        reports = classify(ks)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return [(r.beta, r.method, r.k_point, r.eta.hex(), r.xi.hex()) for r in reports]


def pointwise(model):
    """One classify_point call per momentum, in order, as a loop over points classified."""
    return lambda ks: [
        classify_point(bloch_matrix(model, k), 0.0, k_point=k) for k in ks
    ]


class TestStackEqualsPointwise:
    """Scans and rings classify their points as one stack, bit for bit as one by one."""

    @pytest.mark.parametrize("angle, samples", [(PI / 4, 64), (PI / 2, 256), (PI / 6, 64)])
    def test_ring(self, angle, samples):
        model = LiebSpec("reciprocal", phi=angle, psi=angle)
        reports = trace_ring(model, samples)
        ks = [r.k_point for r in reports]
        assert len(ks) == samples
        stacked = fingerprints(model, ks, lambda _: reports)
        assert stacked == fingerprints(model, ks, pointwise(model))

    def test_scan(self, catalog_model, monkeypatch):
        stacks = []

        def recording(h, energy, policy=None, **kwargs):
            stacks.append(list(kwargs["k_point"]))
            return classify_point(h, energy, policy, **kwargs)

        monkeypatch.setattr(scan, "classify_point", recording)
        for grid in ZONE_SCAN_GRIDS[type(catalog_model)]:
            stacks.clear()
            stacked = fingerprints(catalog_model, None, lambda _: bz_scan(catalog_model, grid))
            assert len(stacks) == 1, "one stack per scan"
            assert stacked == fingerprints(catalog_model, stacks[0], pointwise(catalog_model))

    @pytest.mark.parametrize(
        "spec, grid, error, message",
        [
            (HodsmSpec(4, epsilon=0.2), 32, InconsistentRanksError, "negative beta(1) = -4"),
            (HodsmSpec(1, epsilon=0.70710678), 48, OracleDisagreementError, "disagrees with Weyr"),
        ],
    )
    def test_scan_raises_the_first_failing_points_error(
        self, spec, grid, error, message, monkeypatch
    ):
        stacks = []

        def recording(h, energy, policy=None, **kwargs):
            stacks.append(list(kwargs["k_point"]))
            return classify_point(h, energy, policy, **kwargs)

        monkeypatch.setattr(scan, "classify_point", recording)
        with pytest.raises(error, match=re.escape(message)) as raised:
            bz_scan(spec, grid)
        # each point alone: the first that fails raises the stack's error
        outcomes = [fingerprints(spec, [k], pointwise(spec)) for k in stacks[0]]
        first = next(o for o in outcomes if isinstance(o, tuple))
        assert first == (type(raised.value), str(raised.value))
        assert all(isinstance(o, list) for o in outcomes[: outcomes.index(first)])


class TestRefine:
    def test_converges_to_corner_point(self):
        spec = LiebSpec("minimal-fep", epsilon=1.0)
        k = refine_degeneracy(spec, [(PI + 0.05, PI - 0.05)], _model_scale(spec))[0]
        assert k is not None
        assert k_distance(k, (PI, PI)) <= 1e-8

    def test_hodsm_ep4_from_off_point(self):
        spec = HodsmSpec(1, epsilon=2**-0.5)
        k = refine_degeneracy(spec, [(0.0, 0.0, 0.8)], _model_scale(spec))[0]
        assert k is not None
        assert k_distance(k, (0.0, 0.0, PI / 4)) <= 1e-6

    def test_overflowing_normalisation_is_refused(self):
        spec = LiebSpec("hermitian")
        with pytest.raises(ValueError, match=r"the detector overflows at model scale 1\.000e\+160"):
            refine_degeneracy(spec, [(PI, PI)], 1e160)

    def test_exact_start_returns_immediately(self):
        spec = LiebSpec("hermitian")
        k = refine_degeneracy(spec, [(PI, PI)], _model_scale(spec))[0]
        assert k is not None
        assert k_distance(k, (PI, PI)) <= 1e-10

    def test_two_starts_converge_together(self):
        spec = LiebSpec("nh-symmetric", epsilon=1.0)
        cell = 2 * PI / 128
        k0 = (2 * PI / 3, 2 * PI / 3)
        scale = _model_scale(spec)
        a = refine_degeneracy(spec, [(k0[0] + 0.4 * cell, k0[1] - 0.3 * cell)], scale)[0]
        b = refine_degeneracy(spec, [(k0[0] - 0.5 * cell, k0[1] + 0.2 * cell)], scale)[0]
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
        assert refine_degeneracy(spec, [k0], _model_scale(spec))[0] is not None
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
        assert refine_degeneracy(spec, [k0], _model_scale(spec))[0] is None
        assert min_abs_energy(spec, column(k0))[0] > 0.05

    @pytest.mark.parametrize(
        "spec", [LiebSpec("hermitian"), HodsmSpec(1, epsilon=0.6)], ids=["lieb", "hodsm"]
    )
    def test_bare_point_is_refused(self, spec):
        """A bare point's scalar arithmetic could round otherwise; one point is a stack of one."""
        k = (PI,) * spec.dims
        scale = _model_scale(spec)
        seeds = f"refine_degeneracy takes seeds of shape (S, dims), got shape ({spec.dims},)"
        with pytest.raises(ValueError, match=f"^{re.escape(seeds)}$"):
            refine_degeneracy(spec, k, scale)
        momenta = f"min_abs_energy takes momenta of shape (dims, ...), got shape ({spec.dims},)"
        with pytest.raises(ValueError, match=f"^{re.escape(momenta)}$"):
            min_abs_energy(spec, k)
        assert len(refine_degeneracy(spec, [k], scale)) == 1
        assert min_abs_energy(spec, column(k)).shape == (1,)

    def test_gapped_model_scan_is_empty(self, policy):
        spec = HodsmSpec(0, t=-2.0, s=1.0)
        assert bz_scan(spec, 12, policy) == []


def scan_seeds(model, grid, monkeypatch):
    """The (S, dims) stack of grid minima that ``bz_scan`` refines, and its model scale."""
    seen = []
    refine = scan.refine_degeneracy

    def recording(m, k0, scale):
        seen.append((np.array(k0), scale))
        return refine(m, k0, scale)

    with monkeypatch.context() as patch:
        patch.setattr(scan, "refine_degeneracy", recording)
        try:
            bz_scan(model, grid)
        except (ValueError, RuntimeError):
            pass  # the scans that exit 2 raise when they classify, after refining
    assert len(seen) == 1, "one refinement call per scan"
    return seen[0]


def bits(results):
    return [None if k is None else tuple(c.hex() for c in k) for k in results]


EQUAL_ANGLE_SCANS = [
    (LiebSpec("reciprocal", phi=angle, psi=angle), grid)
    for angle in (PI / 6, PI / 4, PI / 3)
    for grid in (16, 32, 64, 96, 128, 160)
]
# the two zone-scan inputs that exit 2 (one refined point fails to classify)
EXIT_2_SCANS = [(HodsmSpec(1, epsilon=0.70710678), 48), (HodsmSpec(4, epsilon=FIGURE_EPS[4]), 48)]


# bitwise lockstep rests on NumPy's stacked SVD, einsum and vecdot loops, which can differ by version
@pytest.mark.version_sensitive
class TestLockstepRefine:
    """A stack of seeds refines in lockstep, each seed bitwise as it refines alone."""

    @staticmethod
    def check(model, grid, monkeypatch):
        starts, scale = scan_seeds(model, grid, monkeypatch)
        stacked = refine_degeneracy(model, starts, scale)
        assert len(stacked) == len(starts) > 0
        assert bits(stacked) == bits(refine_degeneracy(model, k[None], scale)[0] for k in starts)

    def test_catalog_models_at_zone_scan_grids(self, catalog_model, monkeypatch):
        for grid in ZONE_SCAN_GRIDS[type(catalog_model)]:
            self.check(catalog_model, grid, monkeypatch)

    @pytest.mark.parametrize("model, grid", EQUAL_ANGLE_SCANS + EXIT_2_SCANS)
    def test_equal_angle_and_exit_2_scans(self, model, grid, monkeypatch):
        self.check(model, grid, monkeypatch)

    @pytest.mark.parametrize(
        "model, grid",
        [
            (LiebSpec("reciprocal", phi=PI / 4, psi=PI / 4), 32),
            (HodsmSpec(2, epsilon=0.3), 11),
            (HodsmSpec(0, t=-2.0, s=1.0), 9),  # gapped: every refinement fails
        ],
        ids=["ring", "semimetal", "gapped"],
    )
    def test_one_detector_call_per_round(self, model, grid, monkeypatch):
        """The start, then per round one stencil call and one call per halving.

        Each seed alone makes the start call, then per Gauss-Newton round one
        call on its 2 * dims stencil points and one per line-search trial.  The
        stack makes one call for all starts, one stencil call for the seeds in
        each round, and one call per halving on the seeds still searching.
        """
        starts, scale = scan_seeds(model, grid, monkeypatch)
        dims = model.dims
        widths = []
        detector = scan._detector_complex

        def recording(m, k):
            assert k.ndim == 2 and k.shape[0] == dims
            widths.append(k.shape[1])
            return detector(m, k)

        monkeypatch.setattr(scan, "_detector_complex", recording)
        rounds = []  # per seed, the trial count of each of its rounds
        for k in starts:
            widths.clear()
            refine_degeneracy(model, k[None], scale)
            assert widths[0] == 1
            trials = []
            for w in widths[1:]:
                if w == 2 * dims:
                    trials.append(0)
                else:
                    assert w == 1
                    trials[-1] += 1
            rounds.append(trials)
        want = [len(starts)]
        for r in range(max(map(len, rounds))):
            active = [t[r] for t in rounds if len(t) > r]
            want.append(2 * dims * len(active))
            want += [sum(t >= j for t in active) for j in range(1, max(active) + 1)]
        widths.clear()
        refine_degeneracy(model, starts, scale)
        assert len(starts) > 1 and max(map(len, rounds)) > 1
        assert widths == want


def lstsq_bound(jac) -> float:
    """A relative bound for two backward-stable least-squares solvers: 8 eps cond."""
    sigma = np.linalg.svd(jac, compute_uv=False)
    kept = sigma[sigma > np.finfo(float).eps * max(jac.shape) * sigma[0]]
    return 8 * np.finfo(float).eps * kept[0] / kept[-1]


def assert_matches_lstsq(jac, rhs):
    steps = scan._min_norm_steps(jac, rhs)
    for a, b, x in zip(jac, rhs, steps):
        want, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.abs(x - want).max() <= lstsq_bound(a) * np.abs(want).max(), (a, x, want)
    return steps


# lstsq's rank rule against NumPy's stacked SVD, which can differ by version
@pytest.mark.version_sensitive
class TestRankRule:
    """The stacked SVD step keeps lstsq's rank rule, sigma > eps * max(m, n) * sigma_1."""

    @pytest.mark.parametrize("dims", [2, 3])
    def test_full_rank_matches_lstsq(self, dims, rng):
        jac = rng.standard_normal((200, 2, dims))
        rhs = rng.standard_normal((200, 2))
        assert all(lstsq_bound(a) <= 1e-12 for a in jac[:20])
        steps = assert_matches_lstsq(jac, rhs)
        # each row is bitwise the step it gets alone
        alone = [scan._min_norm_steps(a[None], b[None])[0] for a, b in zip(jac, rhs)]
        assert np.array_equal(steps, alone)

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_rank_one_at_the_cut(self, dims, side):
        """sigma_2 / sigma_1 one ulp below, at and one ulp above eps * max(2, dims)."""
        cut = np.finfo(float).eps * max(2, dims)
        ratio = {-1: np.nextafter(cut, 0), 0: cut, 1: np.nextafter(cut, 1)}[side]
        for sigma_1 in (1.0, 0.25, 3e5):
            jac = np.zeros((2, 2, dims))
            jac[0, 0, 0] = jac[1, 1, 0] = sigma_1
            jac[0, 1, 1] = jac[1, 0, 1] = -ratio * sigma_1  # the second is the first, rows swapped
            rhs = np.array([[0.3, -0.7], [-0.7, 0.3]])
            steps = assert_matches_lstsq(jac, rhs)
            # sigma_2 is kept only strictly above the cut
            assert (steps[:, 1] != 0).all() == (side > 0)

    def test_rank_one_ring_jacobian(self, monkeypatch):
        """The equal-angle ring's Jacobian has sigma_2 / sigma_1 = 8.8e-12, which is kept."""
        model = LiebSpec("reciprocal", phi=PI / 6, psi=PI / 6)
        seen = []
        steps = scan._min_norm_steps

        def recording(jac, rhs):
            seen.append((jac.copy(), rhs.copy()))
            return steps(jac, rhs)

        monkeypatch.setattr(scan, "_min_norm_steps", recording)
        refine_degeneracy(model, [(-0.75, 0.0)], _model_scale(model))
        jac, rhs = seen[0]
        sigma = np.linalg.svd(jac[0], compute_uv=False)
        assert 8e-12 < sigma[1] / sigma[0] < 1e-11
        step = assert_matches_lstsq(jac, rhs)[0]
        # dropping sigma_2 would move the step far beyond the solvers' agreement
        u, _, vh = np.linalg.svd(jac[0])
        dropped = vh[0] * (u[:, 0] @ rhs[0]) / sigma[0]
        assert np.abs(step - dropped).max() > 1e3 * lstsq_bound(jac[0]) * np.abs(step).max()


def assert_check_refusal(exc, spec, listed, found):
    """The catalog's refusal: one line with the model, the listed partials and what the ranks gave."""
    msg = str(exc)
    assert "\n" not in msg, msg
    assert msg.startswith(f"{spec!r}: the closed forms list {listed} at k = ("), msg
    assert f"but the Weyr ranks give {found}" in msg, msg


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

    @pytest.mark.parametrize(
        "spec",
        [
            # the Dirac pairs merge at kz = pi (t = -s/2, s/2) or kz = 0 (t = -3s/2, 3s/2)
            pytest.param(HodsmSpec(0, t=-0.5, s=1.0), id="h-t=-0.5"),
            pytest.param(HodsmSpec(0, t=-1.5, s=1.0), id="h-t=-1.5"),
            pytest.param(HodsmSpec(0, t=0.5, s=1.0), id="h-t=0.5"),
            pytest.param(HodsmSpec(0, t=1.5, s=1.0), id="h-t=1.5"),
            pytest.param(HodsmSpec(0, t=-1.0, s=2.0), id="h-t=-1-s=2"),
            # the four closed-form points lie 2e-9 apart across the zone boundary
            pytest.param(LiebSpec("nh-symmetric", epsilon=1e-9), id="lieb-nh-symmetric-eps=1e-9"),
        ],
    )
    def test_no_two_entries_coincide(self, spec):
        if isinstance(spec, LiebSpec):
            # the catalog refuses this set (its ranks do not resolve (3,)), so its
            # closed-form momenta are checked as the dedup sees them
            ks = [canonical_k(k) for k, _ in scan._lieb_entries(spec)]
            assert scan._first_come(ks, 1e-9) == [0, 1, 2, 3]
        else:
            ks = [e.k for e in analytic_degeneracies(spec)]
        for a, b in itertools.combinations(ks, 2):
            assert scan._periodic_distance(a, b) >= 1e-9, (a, b)

    @pytest.mark.parametrize(
        "eps", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.5, 1.0, 1.9]
    )
    def test_nh_symmetric_entries_classify_as_listed(self, eps, policy):
        """Each entry's Bloch matrix has the listed partials on the weyr route.

        The auto route gives the listed partials or raises; it never gives
        others.  k0 = pi - 2 asin(eps / 2) keeps its digits as eps -> 0, so
        the four entries stay apart down to eps = 1e-9.  At eps = 1e-9 ...
        1e-5 the mixed-sign entries' P and S, about eps**2 / 2, are not
        resolved at the rank cutoff: the ranks give (2, 1), and (1,) at 1e-5,
        where the closed forms list (3,), and the catalog refuses with one line.
        """
        spec = LiebSpec("nh-symmetric", epsilon=eps)
        if eps <= 1e-5:
            with pytest.raises(ValueError) as info:
                analytic_degeneracies(spec)
            assert_check_refusal(info.value, spec, "(3,)", "(1,)" if eps == 1e-5 else "(2, 1)")
            return
        entries = analytic_degeneracies(spec)
        assert len(entries) == 4
        for entry in entries:
            h = lieb_bloch(spec, entry.k)
            assert classify_point(h, 0.0, policy, method="weyr").partials == entry.partials, entry
            try:
                auto = classify_point(h, 0.0, policy, method="auto")
            except (ValueError, OracleDisagreementError):
                continue
            assert auto.partials == entry.partials, entry

    def test_minimal_fep_ep3_keeps_its_closed_form(self, policy):
        """At eps = 1e-5 P and S at (kappa, -kappa) are about 5e-11: an EP3 (3,), as Weyr finds."""
        spec = LiebSpec("minimal-fep", epsilon=1e-5)
        kappa = 2 * arccot(spec.epsilon / 2)
        entries = {e.k: e.partials for e in analytic_degeneracies(spec)}
        assert entries == {canonical_k((kappa, -kappa)): (3,), (PI, PI): (2, 1)}
        h = lieb_bloch(spec, canonical_k((kappa, -kappa)))
        assert classify_point(h, 0.0, policy, method="weyr").partials == (3,)

    def test_semimetal_split_below_every_cutoff_is_refused(self):
        """At eps = 1e-17 the ranks see eps = 0: (1, 1, 1, 1) where (1, 1) is listed."""
        spec = HodsmSpec(1, epsilon=1e-17)
        with pytest.raises(ValueError) as info:
            analytic_degeneracies(spec)
        assert_check_refusal(info.value, spec, "(1, 1)", "(1, 1, 1, 1)")

    def test_off_set_momentum_is_refused(self, monkeypatch):
        """A listed momentum off the degeneracy set is refused by the ranks, never relabelled.

        Off the set the Lieb flat band leaves a simple zero, and the semimetal none.
        """
        lieb = LiebSpec("reciprocal", phi=PI / 2, psi=3 * PI / 4)
        monkeypatch.setattr(scan, "_lieb_entries", lambda model: [((0.3, -0.2), (3,))])
        with pytest.raises(ValueError) as info:
            analytic_degeneracies(lieb)
        assert_check_refusal(info.value, lieb, "(3,)", "(1,)")
        semimetal = HodsmSpec(0)
        monkeypatch.setattr(
            scan, "_semimetal_entries", lambda model: [((0.3, -0.2, 0.1), (1, 1, 1, 1))]
        )
        with pytest.raises(ValueError) as info:
            analytic_degeneracies(semimetal)
        assert_check_refusal(info.value, semimetal, "(1, 1, 1, 1)", "NotAnEigenvalueError (")

    def test_entries_are_checked_as_one_stack(self, catalog_model, monkeypatch):
        calls = []

        def recording(h, energy, policy=None, **kwargs):
            calls.append((np.shape(h), energy, policy, kwargs))
            return classify_point(h, energy, policy, **kwargs)

        monkeypatch.setattr(scan, "classify_point", recording)
        entries = analytic_degeneracies(catalog_model)
        n = 3 if isinstance(catalog_model, LiebSpec) else 4
        assert calls == [((len(entries), n, n), 0.0, None, {"method": "weyr"})]

    def test_merged_dirac_pair_is_listed_once(self):
        assert analytic_degeneracies(HodsmSpec(0, t=-0.5)) == [
            ExpectedDegeneracy(k=(0.0, 0.0, PI), partials=(1, 1, 1, 1))
        ]

    def test_sorted_by_momentum(self, catalog_model):
        ks = [e.k for e in analytic_degeneracies(catalog_model)]
        assert ks == sorted(ks)


ANGLES = {
    "pi/4": PI / 4,
    "pi/3": PI / 3,
    "pi/2": PI / 2,
    "2pi/3": 2 * PI / 3,
    "3pi/4": 3 * PI / 4,
    "-pi/4": -PI / 4,
    "0.3": 0.3,
    "0": 0.0,
}
DECADES = [float(f"1e{p}") for p in range(-16, 0)]


def catalog_sweep() -> dict:
    """Named parameter sets over every catalog family.

    183 sets: every Lieb variant, hodsm:h over (t, s) and nh1-nh4 over eps,
    the Dirac merges, the exceptional limits and out-of-domain parameters
    included.  Then eps = 1e-16 ... 1e-1 by decades on the non-Hermitian
    families, where the rank cutoff stops resolving the listed structures.
    """
    sets = {"lieb:hermitian": LiebSpec("hermitian")}
    for e in (1e-9, 1e-6, 0.1, 0.5, 1.0, 1.5, 1.9, 1.999999, -0.3, -1.2, 2.0, 0.0, *DECADES):
        sets[f"lieb:nh-symmetric eps={e!r}"] = LiebSpec("nh-symmetric", epsilon=e)
    for e in (1e-9, 0.1, 0.5, 1.0, 2.0, 4.0, -0.7, -3.0, 0.0, *DECADES):
        sets[f"lieb:minimal-fep eps={e!r}"] = LiebSpec("minimal-fep", epsilon=e)
    for a, phi in ANGLES.items():
        for b, psi in ANGLES.items():
            sets[f"lieb:reciprocal phi={a} psi={b}"] = LiebSpec("reciprocal", phi=phi, psi=psi)
    for s in (1.0, 0.5, 2.0):
        for t in (-2.5, -2.0, -1.5, -1.0, -0.8, -0.5, -0.2, 0.0, 0.5, 1.0, 1.5, 2.0):
            sets[f"hodsm:h t={t * s!r} s={s!r}"] = HodsmSpec(0, t=t * s, s=s)
    nh_eps = (1e-17, 1e-9, 0.1, 0.2, 0.25, 0.5, 2**-0.5, 0.70710678, 0.9, 1.0, 1.5, -0.2, -0.5)
    for v in (1, 2, 3, 4):
        for e in (*nh_eps, -0.9, 0.0, *DECADES):
            sets[f"hodsm:nh{v} eps={e!r}"] = HodsmSpec(v, epsilon=e)
    sets["hodsm:nh1 t=-0.5"] = HodsmSpec(1, t=-0.5, epsilon=0.5)
    return sets


# the sets whose listed structure the ranks do not resolve at the default policy
UNRESOLVED = {
    *(f"lieb:nh-symmetric eps={e!r}" for e in (1e-16, 1e-15, 1e-14, 1e-13)),
    *(f"lieb:nh-symmetric eps={e!r}" for e in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5)),
    *(f"lieb:minimal-fep eps={e!r}" for e in (1e-16, 1e-15, 1e-14, 1e-13)),
    *(f"lieb:minimal-fep eps={e!r}" for e in (1e-9, 1e-8, 1e-7, 1e-6)),
    *(f"hodsm:nh{v} eps={e!r}" for v in (1, 2, 3) for e in (1e-17, *DECADES[:5])),
    *(f"hodsm:nh4 eps={e!r}" for e in (1e-17, *DECADES[:4])),
}
# the sets outside the closed forms' domain
OUT_OF_DOMAIN = {
    "lieb:nh-symmetric eps=2.0",
    "lieb:nh-symmetric eps=0.0",
    "lieb:minimal-fep eps=0.0",
    *(f"lieb:reciprocal phi={a} psi=0" for a in ANGLES),
    *(f"lieb:reciprocal phi=0 psi={b}" for b in ANGLES),
    *(f"hodsm:nh{v} eps=0.0" for v in (1, 2, 3, 4)),
    "hodsm:nh1 t=-0.5",
}


@pytest.fixture(scope="module")
def swept():
    """Each sweep set's catalog, or the ValueError that refuses it."""
    out = {}
    for name, spec in catalog_sweep().items():
        try:
            out[name] = (spec, analytic_degeneracies(spec))
        except ValueError as exc:
            out[name] = (spec, exc)
    return out


# the refused sets are rank decisions on LAPACK's SVD, which can differ by version
@pytest.mark.version_sensitive
class TestCatalogSweep:
    def test_refuses_exactly_the_recorded_sets(self, swept):
        assert len(swept) == 266
        refused = {name: exc for name, (_, exc) in swept.items() if isinstance(exc, ValueError)}
        unresolved = {name for name, exc in refused.items() if "the Weyr ranks give" in str(exc)}
        assert unresolved == UNRESOLVED
        assert set(refused) - unresolved == OUT_OF_DOMAIN
        for name, exc in refused.items():
            assert "\n" not in str(exc), name
        for name in unresolved:
            assert str(refused[name]).startswith(f"{swept[name][0]!r}: the closed forms list ")

    def test_listed_entries_classify_as_listed(self, swept, policy):
        """Every listed entry has its partials on the weyr route; auto agrees or raises."""
        entries = 0
        for name, (spec, listed) in swept.items():
            if isinstance(listed, ValueError):
                continue
            entries += len(listed)
            for entry in listed:
                h = bloch_matrix(spec, entry.k)
                weyr = classify_point(h, 0.0, policy, method="weyr")
                assert weyr.partials == entry.partials, (name, entry)
                try:
                    auto = classify_point(h, 0.0, policy, method="auto")
                except (ValueError, OracleDisagreementError):
                    continue
                assert auto.partials == entry.partials, (name, entry)
        assert entries == 655


K_TOL = 1e-6  # perfbench's radius for a scan point to match a catalog entry
SCAN_GRIDS = (32, 48)
# what bz_scan makes of each sweep set that lists entries, at grids 32 and 48:
# the indices of the listed entries that no report matches (k within K_TOL,
# same partials), or the class of the error it raises.  A set not named here
# finds every entry at both grids.  Of the 188 sets, grid 32 finds all in 87,
# misses in 65 and raises in 36; grid 48 in 94, 56 and 38.  A record, not a
# bound: a change that moves a row lists it, an improvement too
SCAN_TABLE = {
    "lieb:nh-symmetric eps=0.1": ((0, 1, 2, 3), (0, 1, 2, 3)),
    "lieb:nh-symmetric eps=1.999999": ((1, 2, 3), (1, 2, 3)),
    "lieb:nh-symmetric eps=1e-12": ("InconsistentRanksError", "InconsistentRanksError"),
    "lieb:nh-symmetric eps=1e-11": ("InconsistentRanksError", "InconsistentRanksError"),
    "lieb:nh-symmetric eps=1e-10": ("InconsistentRanksError", "InconsistentRanksError"),
    "lieb:nh-symmetric eps=0.0001": ((0, 1, 2, 3), (0, 1, 2, 3)),
    "lieb:nh-symmetric eps=0.001": ((0, 1, 2, 3), (0, 1, 2, 3)),
    "lieb:nh-symmetric eps=0.01": ((0, 1, 2, 3), (0, 1, 2, 3)),
    "lieb:minimal-fep eps=0.1": ((0,), (0,)),
    "lieb:minimal-fep eps=1e-12": ("InconsistentRanksError", "InconsistentRanksError"),
    "lieb:minimal-fep eps=1e-11": ("InconsistentRanksError", "InconsistentRanksError"),
    "lieb:minimal-fep eps=1e-10": ("InconsistentRanksError", "InconsistentRanksError"),
    "lieb:minimal-fep eps=1e-05": ((0,), (0,)),
    "lieb:minimal-fep eps=0.0001": ((0,), (0,)),
    "lieb:minimal-fep eps=0.001": ((0,), (0,)),
    "lieb:minimal-fep eps=0.01": ((0,), (0,)),
    "lieb:reciprocal phi=pi/4 psi=pi/4": ((0,), (0,)),
    "lieb:reciprocal phi=pi/3 psi=pi/3": ((0, 1), ()),
    "lieb:reciprocal phi=2pi/3 psi=2pi/3": ((0, 1), (0, 1)),
    "lieb:reciprocal phi=3pi/4 psi=3pi/4": ((), (0, 1)),
    "lieb:reciprocal phi=3pi/4 psi=-pi/4": ((0, 1), (0, 1, 2, 3)),
    "lieb:reciprocal phi=-pi/4 psi=3pi/4": ((0, 1), (0, 2, 3)),
    "lieb:reciprocal phi=-pi/4 psi=-pi/4": ((0,), (0,)),
    "lieb:reciprocal phi=0.3 psi=0.3": ((0, 1), (0, 1)),
    "hodsm:h t=-0.8 s=1.0": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:h t=-0.4 s=0.5": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:h t=-1.6 s=2.0": ("NotAnEigenvalueError", "NotAnEigenvalueError"),
    "hodsm:nh1 eps=1e-09": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh1 eps=0.1": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh1 eps=0.2": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh1 eps=0.25": ((0, 2, 3, 5), ()),
    "hodsm:nh1 eps=0.5": ((0, 1, 2, 3, 4, 5), (0, 2, 3, 5)),
    "hodsm:nh1 eps=0.7071067811865476": ((0, 1, 2, 3, 4, 5), (0, 5)),
    "hodsm:nh1 eps=0.70710678": ((0, 1, 2, 3, 4, 5), "OracleDisagreementError"),
    "hodsm:nh1 eps=0.9": ((2, 3), (0, 5)),
    "hodsm:nh1 eps=-0.2": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh1 eps=-0.5": ((0, 1, 2, 3, 4, 5), (0, 2, 3, 5)),
    "hodsm:nh1 eps=-0.9": ((2, 3), (0, 5)),
    "hodsm:nh1 eps=1e-11": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh1 eps=1e-10": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh1 eps=1e-08": ("OracleDisagreementError", "OracleDisagreementError"),
    "hodsm:nh1 eps=1e-07": ("OracleDisagreementError", "OracleDisagreementError"),
    "hodsm:nh1 eps=1e-06": ("OracleDisagreementError", "OracleDisagreementError"),
    "hodsm:nh1 eps=1e-05": ("OracleDisagreementError", "OracleDisagreementError"),
    "hodsm:nh1 eps=0.0001": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh1 eps=0.001": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh1 eps=0.01": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh2 eps=1e-09": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh2 eps=0.1": ((0, 3), (0, 3)),
    "hodsm:nh2 eps=0.2": ((0, 3), (0, 3)),
    "hodsm:nh2 eps=0.25": ((0, 3), "InconsistentRanksError"),
    "hodsm:nh2 eps=0.5": ("InconsistentRanksError", (0, 1, 2, 3)),
    "hodsm:nh2 eps=0.7071067811865476": ((0, 1, 2, 3), (0, 3)),
    "hodsm:nh2 eps=0.70710678": ((0, 1, 2, 3), (0, 3)),
    "hodsm:nh2 eps=0.9": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh2 eps=-0.2": ((1, 2), (1, 2)),
    "hodsm:nh2 eps=-0.5": ("InconsistentRanksError", (0, 3)),
    "hodsm:nh2 eps=-0.9": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh2 eps=1e-11": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh2 eps=1e-10": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh2 eps=1e-08": ("OracleDisagreementError", "OracleDisagreementError"),
    "hodsm:nh2 eps=1e-07": ("OracleDisagreementError", "OracleDisagreementError"),
    "hodsm:nh2 eps=1e-06": ("OracleDisagreementError", "OracleDisagreementError"),
    "hodsm:nh2 eps=1e-05": ("OracleDisagreementError", "OracleDisagreementError"),
    "hodsm:nh2 eps=0.0001": ((0, 3), (0, 3)),
    "hodsm:nh2 eps=0.001": ((0, 3), (0, 3)),
    "hodsm:nh2 eps=0.01": ((0, 3), (0, 3)),
    "hodsm:nh3 eps=1e-09": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh3 eps=0.1": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh3 eps=0.2": ((0, 2, 3, 5), ()),
    "hodsm:nh3 eps=0.25": ((0, 1, 2, 3, 4, 5), "InconsistentRanksError"),
    "hodsm:nh3 eps=0.70710678": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh3 eps=-0.2": ((0, 2, 3, 5), ()),
    "hodsm:nh3 eps=1e-11": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh3 eps=1e-10": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh3 eps=1e-08": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh3 eps=1e-07": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh3 eps=1e-06": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh3 eps=1e-05": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh3 eps=0.0001": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh3 eps=0.001": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh3 eps=0.01": ((0, 2, 3, 5), (0, 2, 3, 5)),
    "hodsm:nh4 eps=1e-09": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh4 eps=0.1": ((0, 3), (0, 3)),
    "hodsm:nh4 eps=0.2": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh4 eps=0.25": ((0, 3), ()),
    "hodsm:nh4 eps=0.5": ((), (0, 1)),
    "hodsm:nh4 eps=0.7071067811865476": ((0, 1), ()),
    "hodsm:nh4 eps=0.70710678": ((0, 1), ()),
    "hodsm:nh4 eps=1.5": ((0, 1), ()),
    "hodsm:nh4 eps=-0.2": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh4 eps=-0.5": ((0, 1), ()),
    "hodsm:nh4 eps=-0.9": ((0, 1), "InconsistentRanksError"),
    "hodsm:nh4 eps=1e-12": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh4 eps=1e-11": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh4 eps=1e-10": ("InconsistentRanksError", "InconsistentRanksError"),
    "hodsm:nh4 eps=1e-08": ((0, 3), (0, 3)),
    "hodsm:nh4 eps=1e-07": ((0, 3), (0, 3)),
    "hodsm:nh4 eps=1e-06": ((0, 3), (0, 3)),
    "hodsm:nh4 eps=1e-05": ((0, 3), (0, 3)),
    "hodsm:nh4 eps=0.0001": ((0, 3), (0, 3)),
    "hodsm:nh4 eps=0.001": ((0, 3), (0, 3)),
    "hodsm:nh4 eps=0.01": ((0, 3), (0, 3)),
}


def scan_outcome(spec, listed, grid):
    """The indices of the listed entries that ``bz_scan`` misses, or the class it raises."""
    try:
        reports = bz_scan(spec, grid)
    except (ValueError, OracleDisagreementError) as exc:
        return type(exc).__name__
    return tuple(
        i for i, entry in enumerate(listed)
        if not any(
            k_distance(r.k_point, entry.k) <= K_TOL and r.partials == entry.partials
            for r in reports
        )
    )


class TestScanTable:
    """bz_scan on the catalog sweep; a record, since its rank decisions rest on the BLAS."""

    def test_scans_repeat_the_record(self, swept):
        table = {
            name: tuple(scan_outcome(spec, listed, grid) for grid in SCAN_GRIDS)
            for name, (spec, listed) in swept.items()
            if not isinstance(listed, ValueError) and listed
        }
        assert len(table) == 188
        assert {name: row for name, row in table.items() if row != ((), ())} == SCAN_TABLE


class TestFirstCome:
    def test_points_across_the_wrap_keep_the_first(self):
        d = 1e-4
        # 2 d apart through the zone boundary, and a third point far from both
        points = [(PI - d, 0.0), (-PI + d, 0.0), (0.5, 0.0)]
        assert scan._first_come(points, 1e-3) == [0, 2]

    def test_equal_points_keep_the_first(self):
        points = [(0.3, -0.2, 1.0)] * 3 + [(0.3, -0.2, 1.5)]
        assert scan._first_come(points, 1e-9) == [0, 3]

    def test_compares_with_kept_points_only(self):
        # the second point falls within the radius of the first and is dropped;
        # the third is within the radius of the second only, so it is kept
        points = [(0.0, 0.0), (0.6, 0.0), (1.2, 0.0)]
        assert scan._first_come(points, 1.0) == [0, 2]


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

    @pytest.mark.parametrize("phi", [0.0, PI, -PI, 2 * PI], ids=["0", "pi", "-pi", "2pi"])
    def test_refuses_the_single_momentum(self, phi, policy):
        # at phi = 0 (mod pi) cos kx + cos ky = +-2 holds at one momentum only
        with pytest.raises(ValueError, match=r"^trace_ring needs phi != 0 \(mod pi\)$"):
            trace_ring(LiebSpec("reciprocal", phi=phi, psi=phi), 8, policy)

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

    @pytest.mark.parametrize(
        "model",
        [
            LiebSpec("nh-symmetric", epsilon=1e300),
            HodsmSpec(2, epsilon=1e150),  # b.b overflows
            HodsmSpec(0, s=1e300),  # a, b and det(QR) overflow
            HodsmSpec(0, t=-1.7e308, s=1.7e308),  # the symbols overflow
        ],
    )
    def test_overflow_is_refused(self, model):
        k = np.zeros((model.dims, 3))
        k[-1, -1] = PI  # t + s/2 cos(kz) + s cos(kx) overflows there
        with pytest.raises(ValueError, match=r"^min \|E\| overflows at these model parameters"):
            min_abs_energy(model, k)

    def test_vanishes_at_catalog_points(self, catalog_model):
        for entry in analytic_degeneracies(catalog_model):
            # rounding k perturbs H by about 1e-16, and a Jordan block of size
            # four (the EP4) splits by its fourth root, about 1e-4
            bound = 1e-6 if max(entry.partials) < 4 else 1e-3
            assert min_abs_energy(catalog_model, column(entry.k))[0] <= bound, entry


class TestHelpers:
    def test_canonical_range(self):
        assert canonical_k((-PI,))[0] == pytest.approx(PI)
        assert canonical_k((3 * PI,))[0] == pytest.approx(PI)
        assert canonical_k((0.3,))[0] == pytest.approx(0.3)

    def test_min_abs_energy_skips_flat_band(self):
        spec = LiebSpec("hermitian")
        # at the zone center the dispersive gap is 2 sqrt(2)
        assert min_abs_energy(spec, column((0.0, 0.0)))[0] == pytest.approx(2 * math.sqrt(2))
        assert min_abs_energy(HodsmSpec(0), column((0.0, 0.0, PI / 2)))[0] <= 1e-12
