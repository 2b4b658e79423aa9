import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fepkit.adjugate import (
    FLV_DIMENSION_GUARD,
    ResonanceError,
    flv_modes,
    greens_modal,
    response_strengths,
)
from fepkit.classify import classify_point
from fepkit.matkit import numerical_rank, spectral_norm
from fepkit.models import HodsmSpec, LiebSpec, bloch_matrix, hodsm_bloch, lieb_bloch
from fepkit.probes import cluster_radius
from fepkit.scan import analytic_degeneracies
from fepkit.selftest import planted_jordan, random_partition

PI = math.pi


def fro(m):
    """Frobenius norm, the rank scale of a mode."""
    return float(np.linalg.norm(m, "fro"))


@st.composite
def small_matrices(draw):
    n = draw(st.integers(2, 6))
    vals = draw(
        st.lists(
            st.floats(-3, 3, allow_nan=False, allow_infinity=False),
            min_size=2 * n * n,
            max_size=2 * n * n,
        )
    )
    a = np.asarray(vals[: n * n]) + 1j * np.asarray(vals[n * n :])
    return a.reshape(n, n)


class TestFlvModes:
    def test_zero_matrix(self):
        seq = flv_modes(np.zeros((1, 3, 3)), 0.0)
        assert np.array_equal(seq.modes[0, 2], np.eye(3))
        assert np.all(seq.modes[0, 1] == 0) and np.all(seq.modes[0, 0] == 0)
        assert np.allclose(seq.coeffs[0], [0, 0, 0, 1])

    def test_general_lieb_symbols(self, rng):
        p, q, r, s = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = np.array([[0, p, 0], [q, 0, r], [0, s, 0]], dtype=complex)
        seq = flv_modes(h[None], 0.0)
        assert np.allclose(seq.modes[0, 1], h)
        b0 = np.array([[-r * s, 0, p * r], [0, 0, 0], [q * s, 0, -p * q]])
        assert np.allclose(seq.modes[0, 0], b0, atol=1e-13)

    def test_overflowing_scales_are_refused(self):
        # the coefficients are finite, but scale**degree and the Frobenius norms are not
        h = hodsm_bloch(HodsmSpec(2, epsilon=1e150), (0.0, 0.0, PI / 2))
        with pytest.raises(ValueError, match="^the Faddeev-LeVerrier scales overflowed"):
            flv_modes(h[None], 0.0)

    def test_jordan_block(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        seq = flv_modes(a[None], 0.0)
        assert np.array_equal(seq.modes[0, 1], np.eye(2))
        assert np.allclose(seq.modes[0, 0], a)
        assert np.allclose(seq.coeffs[0], [0, 0, 1])

    def test_shift_covariance_exact(self, rng):
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        shift = 0.7 - 0.2j
        a = flv_modes(h, shift)
        b = flv_modes(h - shift * np.eye(5), 0.0)
        for ma, mb in zip(a.modes, b.modes):
            assert np.array_equal(ma, mb)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_determinant_coefficient(self, rng):
        # c_0 = (-1)^n det(A) = det(-A)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            seq = flv_modes(h[None], 0.0)
            want = np.linalg.det(-h)
            assert abs(seq.coeffs[0, 0] - want) <= 1e-8 * abs(want)

    def test_cayley_hamilton_closure(self, rng):
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        seq = flv_modes(h[None], 0.0)
        closure = h @ seq.modes[0, 0] + seq.coeffs[0, 0] * np.eye(6)
        assert np.max(np.abs(closure)) <= 1e-9 * (1 + spectral_norm(seq.shifted)[0]) ** 6

    def test_dimension_guard(self, rng):
        big = np.zeros((FLV_DIMENSION_GUARD + 1,) * 2)
        with pytest.raises(ValueError, match="guard"):
            flv_modes(big, 0.0)

    def test_sequences_compare_by_identity(self):
        a = flv_modes(np.diag([1.0, 2.0]), 1.0)
        assert (a == flv_modes(np.diag([1.0, 2.0]), 1.0)) is False
        assert a == a

    @settings(max_examples=40, deadline=None)
    @given(small_matrices())
    def test_characteristic_polynomial_identity(self, a):
        n = a.shape[0]
        seq = flv_modes(a[None], 0.0)
        rng = np.random.default_rng(0)
        scale = 1 + spectral_norm(a[None])[0]
        for lam in rng.normal(size=5) + 1j * rng.normal(size=5):
            q_modal = np.polyval(seq.coeffs[0, ::-1], lam)
            q_direct = np.linalg.det(lam * np.eye(n) - a)
            assert abs(q_modal - q_direct) <= 1e-8 * (abs(lam) + scale) ** n

    def test_polynomial_identity_at_ten_points(self, rng):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        seq = flv_modes(h[None], 0.3 + 0.1j)
        a = h - (0.3 + 0.1j) * np.eye(4)
        for lam in rng.normal(size=10) + 1j * rng.normal(size=10):
            lhs = np.polyval(seq.coeffs[0, ::-1], lam)
            rhs = np.linalg.det(lam * np.eye(4) - a)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestGreensModal:
    def test_diagonal_resolvent(self):
        seq = flv_modes(np.diag([1.0, 2.0])[None], 0.0)
        g = greens_modal(seq, 3.0)[0]
        assert np.allclose(g, np.diag([0.5, 1.0]))

    def test_matches_direct_inverse(self):
        h = lieb_bloch(LiebSpec("hermitian"), (0.0, 0.0))
        seq = flv_modes(h[None], 0.0)
        direct = np.linalg.inv(np.eye(3) - h)
        modal = greens_modal(seq, 1.0)[0]
        assert np.linalg.norm(modal - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_resolvent_identity_random(self, rng):
        done = 0
        while done < 100:
            n = int(rng.integers(2, 8))
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            shift = complex(rng.normal(), rng.normal())
            energy = complex(rng.normal(scale=2), rng.normal(scale=2))
            ev = np.linalg.eigvals(h)
            if np.min(np.abs(ev - energy)) < cluster_radius(spectral_norm(h[None])[0]):
                continue
            modal = greens_modal(flv_modes(h[None], shift), energy)[0]
            direct = np.linalg.inv(energy * np.eye(n) - h)
            assert np.linalg.norm(modal - direct) <= 1e-10 * np.linalg.norm(direct)
            done += 1

    def test_resonance_error(self):
        seq = flv_modes(np.diag([1.0, 2.0])[None], 0.0)
        with pytest.raises(ResonanceError, match="at resonance"):
            greens_modal(seq, 1.0 + 1e-14)
        # one resonant matrix of a stack is enough
        seq = flv_modes(np.array([np.diag([3.0, 2.0]), np.diag([1.0, 2.0])]), 0.0)
        with pytest.raises(ResonanceError, match="at resonance"):
            greens_modal(seq, 1.0)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_stack_gives_each_matrix_its_own_bits(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
        shift, energy = 0.3 - 0.2j, 2.5 + 1.5j
        together = greens_modal(flv_modes(stack, shift), energy)
        assert together.shape == (6, n, n)
        for h, g in zip(stack, together):
            assert g.tobytes() == greens_modal(flv_modes(h[None], shift), energy)[0].tobytes()


def catalog_degeneracies():
    """Constructed model degeneracies with their (alpha, ell)."""
    return [
        (lieb_bloch(LiebSpec("hermitian"), (PI, PI)), 3, 1),
        (lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (PI, PI)), 3, 2),
        (lieb_bloch(LiebSpec("nh-symmetric", epsilon=1.0), (2 * PI / 3, 2 * PI / 3)), 3, 3),
        (hodsm_bloch(HodsmSpec(0), (0, 0, PI / 2)), 4, 1),
        (hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 4)), 4, 4),
        (hodsm_bloch(HodsmSpec(2, epsilon=2**-0.5), (0, 0, PI / 2)), 4, 3),
        (hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2)), 4, 2),
        (hodsm_bloch(HodsmSpec(4, epsilon=8**-0.5), (0, 0, PI / 2)), 4, 2),
    ]


class TestModeStructure:
    @pytest.mark.parametrize("h,alpha,ell", catalog_degeneracies())
    def test_mode_vanishing_pattern(self, h, alpha, ell):
        seq = flv_modes(h[None], 0.0)
        for k in range(alpha - ell):
            assert seq.mode_zero[0, k], f"B_{k} should vanish"
        assert not seq.mode_zero[0, alpha - ell]

    @pytest.mark.parametrize("h,alpha,ell", catalog_degeneracies())
    def test_rank_monotonicity(self, h, alpha, ell, policy):
        seq = flv_modes(h[None], 0.0)
        modes = seq.modes[0]
        ranks = [
            0 if seq.mode_zero[0, k] else numerical_rank(modes[k], policy, fro(modes[k]))
            for k in range(alpha)
        ]
        assert all(ranks[k] <= ranks[k + 1] for k in range(alpha - 1))


class TestFinishedRecord:
    """flv_modes returns a finished record: no method writes to it, and its arrays are read-only."""

    def test_every_array_is_read_only(self):
        h = hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2))
        seq = flv_modes(np.stack([h, h]), 0.0)
        arrays = {k: v for k, v in vars(seq).items() if isinstance(v, np.ndarray)}
        assert arrays.keys() == {
            "coeffs", "mats", "mode_scale", "coeff_scale", "mode_zero", "coeff_zero",
            "fro", "alpha", "sigma",
        }
        for name, value in [*arrays.items(), ("modes", seq.modes), ("shifted", seq.shifted)]:
            with pytest.raises(ValueError, match="read-only"):
                value[(0,) * value.ndim] = value[(0,) * value.ndim]
        methods = [k for k, v in vars(type(seq)).items() if callable(v) and not k.startswith("__")]
        assert methods == []

    def test_live_rows_carry_their_singular_values(self):
        # the (2,2) FEP: alpha = 4, B_0 = B_1 = 0, so B_2, B_3 and A are live
        h = hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2))
        seq = flv_modes(h, 0.0)
        live = ~np.isnan(seq.sigma[0, :, 0])
        assert live.tolist() == [False, False, True, True, True]
        for k in np.flatnonzero(live):
            want = np.linalg.svd(seq.mats[0, k], compute_uv=False)
            assert seq.sigma[0, k].tobytes() == want.tobytes()
        assert np.isnan(seq.sigma[0, ~live]).all()

    def test_not_an_eigenvalue_has_no_live_rows(self):
        seq = flv_modes(np.diag([1.0, 2.0]), 0.5)
        assert seq.alpha.tolist() == [0]
        assert np.isnan(seq.sigma).all()


class TestResponseStrengths:
    def test_canonical_jordan_block(self):
        seq = flv_modes(np.array([[[0.0, 1.0], [0.0, 0.0]]]), 0.0)
        rs = response_strengths(seq, alpha=2, ell=2)
        assert rs.eta == pytest.approx(1.0)
        assert rs.xi == pytest.approx(1.0)

    def test_two_entry_nilpotent_fep(self):
        eps = 0.5
        seq = flv_modes(hodsm_bloch(HodsmSpec(3, epsilon=eps), (0, 0, PI / 2))[None], 0.0)
        rs = response_strengths(seq, alpha=4, ell=2)
        assert rs.eta == pytest.approx(eps * math.sqrt(2), abs=1e-12)
        assert rs.xi == pytest.approx(eps, abs=1e-12)

    def test_scaling_covariance(self):
        h = np.array([[[0.0, 0.7], [0.0, 0.0]]], dtype=complex)
        a = response_strengths(flv_modes(h, 0.0), 2, 2)
        b = response_strengths(flv_modes(2 * h, 0.0), 2, 2)
        # eta, xi ~ ||B_0|| / |c_2| rescale together under H -> 2H
        assert b.eta / a.eta == pytest.approx(2.0, rel=1e-12)
        assert b.xi / a.xi == pytest.approx(2.0, rel=1e-12)
        assert b.eta / b.xi == pytest.approx(a.eta / a.xi, rel=1e-12)

    def test_norm_inequalities(self, policy):
        for h, alpha, ell in catalog_degeneracies():
            seq = flv_modes(h[None], 0.0)
            rs = response_strengths(seq, alpha, ell)
            lead = seq.modes[0, alpha - ell]
            r = numerical_rank(lead, policy, fro(lead))
            assert rs.xi <= rs.eta * (1 + 1e-12)
            assert rs.eta <= math.sqrt(r) * rs.xi * (1 + 1e-12)

    def test_xi_is_bitwise_the_lead_spectral_norm(self, rng):
        # xi is read from the stacked singular-value pass, standalone and
        # after classify_point's rank pass alike
        cases = catalog_degeneracies()
        for sizes in ([3, 1], [2, 2, 1], [4], [2, 1, 1, 1]):
            h = planted_jordan(rng, sum(sizes) + 2, sizes, 10.0)
            cases.append((h, sum(sizes), max(sizes)))
        for h, alpha, ell in cases:
            seq = flv_modes(h[None], 0.0)
            want = spectral_norm(seq.modes[:, alpha - ell])[0] / abs(seq.coeffs[0, alpha])
            assert response_strengths(seq, alpha, ell).xi == want
            assert classify_point(h, 0.0).xi == want

    def test_rejects_inconsistent_ell(self):
        # (2,2) FEP of the third variant: alpha = 4, ell = 2, B_1 = B_0 = 0
        seq = flv_modes(hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2))[None], 0.0)
        with pytest.raises(ValueError, match="^alpha = 2 does not match the vanishing chain"):
            response_strengths(seq, alpha=2, ell=2)  # c_2 vanishes
        with pytest.raises(ValueError, match="overstates"):
            response_strengths(seq, alpha=4, ell=4)  # B_0 vanishes
        # claiming ell = 1 requires B_2 = 0, but B_2 is the leading mode
        with pytest.raises(ValueError, match="does not vanish"):
            response_strengths(seq, alpha=4, ell=1)

    def test_reads_one_matrix_only(self):
        seq = flv_modes(np.array([[[0.0, 1.0], [0.0, 0.0]]] * 2), 0.0)
        one_line = "^response_strengths reads one matrix, got a sequence of 2$"
        with pytest.raises(ValueError, match=one_line):
            response_strengths(seq, alpha=2, ell=2)

    def test_rejects_out_of_range(self):
        seq = flv_modes(np.diag([1.0, 2.0])[None], 1.0)
        with pytest.raises(ValueError):
            response_strengths(seq, alpha=0, ell=1)
        with pytest.raises(ValueError):
            response_strengths(seq, alpha=1, ell=2)

    def test_eta_equals_xi_for_rank_one_via_classify(self, policy):
        r = classify_point(
            hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 4)), 0.0, policy
        )
        assert abs(r.eta - r.xi) <= 1e-10 * r.eta


def loop_mode_scale(seq):
    s = 1.0
    for j in range(seq.n - 1):
        top = float(np.max(np.abs(seq.modes[0, j])))
        if top > 0.0:
            s = max(s, top ** (1.0 / (seq.n - 1 - j)))
    return s


def loop_coeff_scale(seq):
    s = 1.0
    for k in range(seq.n):
        c = abs(seq.coeffs[0, k])
        if c > 0.0:
            s = max(s, c ** (1.0 / (seq.n - k)))
    return s


class TestCachedScales:
    """The per-sequence scales are computed once and equal the per-degree loop."""

    @staticmethod
    def check(seq):
        for _ in range(2):  # the second read comes from the cache
            assert seq.mode_scale[0] == loop_mode_scale(seq)
            assert seq.coeff_scale[0] == loop_coeff_scale(seq)
        assert {"mode_scale", "coeff_scale"} <= vars(seq).keys()

    def test_catalog_points(self, catalog_model):
        for entry in analytic_degeneracies(catalog_model):
            self.check(flv_modes(bloch_matrix(catalog_model, entry.k)[None], 0.0))

    def test_planted_forms(self):
        rng = np.random.default_rng(77)
        for n in (2, 5, 8, 12, 16):
            for cond in (1.0, 1e1, 1e3):
                sizes = random_partition(rng, int(rng.integers(1, n + 1)))
                self.check(flv_modes(planted_jordan(rng, n, sizes, cond)[None], 0.0))

