import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fepkit.classify
from fepkit.adjugate import flv_modes
from fepkit.classify import (
    InconsistentRanksError,
    NotAnEigenvalueError,
    PartialMultiplicityFunction,
    algebraic_multiplicity,
    classify_point,
    degeneracy_label,
    partial_multiplicities,
    weyr_oracle,
)
from fepkit.matkit import TolerancePolicy, numerical_rank, spectral_norm
from fepkit.models import HodsmSpec, LiebSpec, arccot, hodsm_bloch, lieb_bloch
from fepkit.selftest import jordan_blocks, planted_jordan, random_partition

PI = math.pi


def scale_at_zero(a):
    """The problem scale ``classify_point`` passes at E = 0."""
    return 1.0 + spectral_norm(a)


class TestAlgebraicMultiplicity:
    def test_simple_eigenvalue(self):
        seq = flv_modes(np.diag([1.0, 2.0, 3.0]), 1.0)
        assert algebraic_multiplicity(seq) == 1

    def test_minimal_fep_point(self):
        h = lieb_bloch(LiebSpec("minimal-fep", epsilon=0.8), (PI, PI))
        assert algebraic_multiplicity(flv_modes(h, 0.0)) == 3

    def test_dp_of_first_variant(self):
        h = hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 2))
        assert algebraic_multiplicity(flv_modes(h, 0.0)) == 2

    def test_zero_when_not_an_eigenvalue(self):
        seq = flv_modes(np.diag([1.0, 2.0]), 0.5)
        assert algebraic_multiplicity(seq) == 0


class TestPartialMultiplicities:
    def test_tribolic(self, policy):
        h = lieb_bloch(LiebSpec("hermitian"), (PI, PI))
        pmf = partial_multiplicities(flv_modes(h, 0.0), 3, policy, scale_at_zero(h))
        assert pmf.beta == {1: 3}

    def test_fep31(self, policy):
        h = hodsm_bloch(HodsmSpec(2, epsilon=2**-0.5), (0, 0, PI / 2))
        pmf = partial_multiplicities(flv_modes(h, 0.0), 4, policy, scale_at_zero(h))
        assert pmf.beta == {3: 1, 1: 1}

    def test_ep4(self, policy):
        h = hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 4))
        pmf = partial_multiplicities(flv_modes(h, 0.0), 4, policy, scale_at_zero(h))
        assert pmf.beta == {4: 1}

    def test_wrong_alpha_is_caught_not_repaired(self, policy):
        h = hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2))
        with pytest.raises(InconsistentRanksError):
            partial_multiplicities(flv_modes(h, 0.0), 3, policy, scale_at_zero(h))


class TestWeyrOracle:
    def test_single_jordan_block(self, policy):
        a = jordan_blocks([3])
        assert weyr_oracle(a, policy, scale_at_zero(a)).beta == {3: 1}

    def test_two_blocks(self, policy):
        a = jordan_blocks([2, 1])
        assert weyr_oracle(a, policy, scale_at_zero(a)).beta == {2: 1, 1: 1}

    def test_worked_example_structure(self, rng, policy):
        sizes = (4, 4, 3, 2, 2, 1)
        a = planted_jordan(rng, 16, sizes)
        pmf = weyr_oracle(a, policy, scale_at_zero(a))
        assert pmf.partials == sizes
        assert pmf.alpha == 16 and pmf.gamma == 6

    def test_zero_matrix(self, policy):
        assert weyr_oracle(np.zeros((4, 4)), policy, 1.0).beta == {1: 4}

    def test_full_rank_input_gives_empty_structure(self, policy):
        pmf = weyr_oracle(np.eye(3), policy, scale_at_zero(np.eye(3)))
        assert pmf.beta == {} and pmf.alpha == 0

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (5,), (1, 1, 1), (3, 3), (4, 2, 1), (6, 3, 3, 2, 1, 1), (2, 2, 2, 2)],
        ids=lambda sizes: "+".join(map(str, sizes)),
    )
    def test_direct_sums_of_jordan_blocks(self, sizes, policy):
        # Weyr widths w_l = #{blocks of size >= l}; a simple eigenvalue away
        # from zero must not join the staircase
        want = PartialMultiplicityFunction.from_partials(sizes)
        a = jordan_blocks(sizes)
        assert weyr_oracle(a, policy, scale_at_zero(a)) == want
        n = a.shape[0]
        b = np.zeros((n + 2, n + 2), dtype=complex)
        b[:n, :n] = a
        b[n:, n:] = jordan_blocks([2], eigenvalue=0.7)
        assert weyr_oracle(b, policy, scale_at_zero(b)) == want

    def test_pool_plants_at_cond_1e3(self, policy):
        # the benchmark's planted-envelope pool, cond 1e3 cells: every plant
        # resolves, and the staircase stays cheap
        cases = []
        for n in (8, 12, 16, 24, 36):
            for j in range(48):
                rng = np.random.default_rng([2507, n, 2, j])
                sizes = random_partition(rng, int(rng.integers(1, n + 1)))
                want = PartialMultiplicityFunction.from_partials(sizes)
                a = planted_jordan(rng, n, sizes, 1e3)
                cases.append((a, scale_at_zero(a), want))
        start = time.perf_counter()
        wrong = [want.partials for a, s, want in cases if weyr_oracle(a, policy, s) != want]
        elapsed = time.perf_counter() - start
        assert not wrong
        assert elapsed < 1.0


@st.composite
def partitions(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n))
    sizes = []
    rem = m
    while rem:
        s = draw(st.integers(1, rem))
        sizes.append(s)
        rem -= s
    return n, sizes


class TestOracleEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(partitions(), st.integers(0, 2**31 - 1))
    def test_unitary_plants(self, part, seed):
        policy = TolerancePolicy()
        n, sizes = part
        rng = np.random.default_rng(seed)
        want = PartialMultiplicityFunction.from_partials(sizes)
        a = planted_jordan(rng, n, sizes)
        # the modal route raises OracleDisagreementError on any disagreement
        assert classify_point(a, 0.0, policy, method="modes").beta == want

    def test_stress_transforms(self, rng, policy):
        # mildly non-unitary similarity, condition number up to 100
        for _ in range(200):
            n = int(rng.integers(2, 9))
            sizes = random_partition(rng, int(rng.integers(1, n + 1)))
            want = PartialMultiplicityFunction.from_partials(sizes)
            cond = float(np.exp(rng.uniform(0.0, math.log(100.0))))
            a = planted_jordan(rng, n, sizes, cond=cond)
            r = classify_point(a, 0.0, policy, method="modes")
            assert r.beta == want, f"sizes {sizes} cond {cond:.1f}"


class TestClassifyPoint:
    def test_minimal_fep_report(self, policy):
        h = lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (PI, PI))
        r = classify_point(h, 0.0, policy)
        assert (r.alpha, r.gamma, r.ell) == (3, 2, 2)
        assert r.partials == (2, 1) and r.label == "FEP"

    def test_minimal_fep_ep3_report(self, policy):
        kappa = 2 * arccot(0.5)
        h = lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (kappa, -kappa))
        r = classify_point(h, 0.0, policy)
        assert (r.alpha, r.gamma, r.label) == (3, 1, "EP3")

    def test_fep_with_gamma_three(self, policy):
        h = hodsm_bloch(HodsmSpec(4, epsilon=8**-0.5), (0, 0, PI / 2))
        r = classify_point(h, 0.0, policy)
        assert (r.alpha, r.gamma, r.partials, r.label) == (4, 3, (2, 1, 1), "FEP")

    def test_not_an_eigenvalue(self, policy):
        with pytest.raises(NotAnEigenvalueError):
            classify_point(np.diag([1.0, 2.0]), 0.5, policy)

    def test_not_an_eigenvalue_on_weyr_route(self, rng, policy):
        with pytest.raises(NotAnEigenvalueError, match="full"):
            classify_point(np.diag([1.0, 2.0]), 0.5, policy, method="weyr")
        a = planted_jordan(rng, 24, [3, 1])
        with pytest.raises(NotAnEigenvalueError, match="full"):
            classify_point(a, 0.3, policy)

    def test_overflowing_modes_name_the_weyr_route(self, policy):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        h = 1e100 * q @ np.diag(np.ones(3), 1) @ q.T
        with pytest.raises(ValueError) as info:
            classify_point(h, 0.0, policy)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            'the Faddeev-LeVerrier coefficients overflowed; classify with method="weyr"'
        )
        assert classify_point(h, 0.0, policy, method="weyr").partials == (4,)

    def test_no_eigenvalue_solve(self, rng, policy, monkeypatch):
        def refuse(*_):
            raise AssertionError("classify_point called np.linalg.eigvals")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        h = hodsm_bloch(HodsmSpec(2, epsilon=2**-0.5), (0, 0, PI / 2))
        for method in ("modes", "weyr"):
            assert classify_point(h, 0.0, policy, method=method).partials == (3, 1)
        assert classify_point(planted_jordan(rng, 24, [4, 2]), 0.0, policy).partials == (4, 2)
        for method in ("modes", "weyr"):
            with pytest.raises(NotAnEigenvalueError):
                classify_point(np.diag([1.0, 2.0]), 0.5, policy, method=method)

    def test_basis_invariance(self, rng, policy):
        h = hodsm_bloch(HodsmSpec(2, epsilon=2**-0.5), (0, 0, PI / 2))
        base = classify_point(h, 0.0, policy)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            r = classify_point(q @ h @ q.conj().T, 0.0, policy)
            assert (r.alpha, r.gamma, r.ell, r.partials, r.label) == (
                base.alpha,
                base.gamma,
                base.ell,
                base.partials,
                base.label,
            )

    def test_label_consistency_everywhere(self, policy):
        cases = [
            lieb_bloch(LiebSpec("hermitian"), (PI, PI)),
            lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (PI, PI)),
            hodsm_bloch(HodsmSpec(0), (0, 0, PI / 2)),
            hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 4)),
            hodsm_bloch(HodsmSpec(4, epsilon=8**-0.5), (0, 0, PI / 2)),
            np.diag([0.0, 1.0, 2.0]),
        ]
        for h in cases:
            r = classify_point(h, 0.0, policy)
            if r.label == "FEP":
                assert r.alpha > r.gamma > 1
            elif r.label.startswith("EP"):
                assert r.gamma == 1 and r.beta.beta == {r.alpha: 1}
            elif r.label == "nondegenerate":
                assert r.alpha == 1
            else:
                assert r.alpha == r.gamma > 1

    def test_weyr_route_matches_modes_route(self, policy):
        for h in [
            lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (PI, PI)),
            hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2)),
        ]:
            a = classify_point(h, 0.0, policy, method="modes")
            b = classify_point(h, 0.0, policy, method="weyr")
            assert (a.alpha, a.gamma, a.partials) == (b.alpha, b.gamma, b.partials)

    def test_eta_xi_only_on_modes_route(self, policy, monkeypatch):
        h = hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2))
        assert classify_point(h, 0.0, policy, method="modes").eta == pytest.approx(
            0.5 * math.sqrt(2), abs=1e-9
        )

        def refuse(*_):
            raise AssertionError("the weyr route formed adjugate modes")

        monkeypatch.setattr(fepkit.classify, "flv_modes", refuse)
        r = classify_point(h, 0.0, policy, method="weyr")
        assert math.isnan(r.eta) and math.isnan(r.xi)


class TestWeyrScale:
    def test_given_scale_takes_no_norm(self, policy, monkeypatch):
        def refuse(_):
            raise AssertionError("spectral_norm called although a scale was given")

        monkeypatch.setattr(fepkit.classify, "spectral_norm", refuse)
        assert weyr_oracle(jordan_blocks([3, 1]), policy, scale=2.0).beta == {3: 1, 1: 1}

    @pytest.mark.parametrize("sigma", [1.0, 3.0, 10.0])
    @pytest.mark.parametrize("rank_rel", [1e-8, 1e-4])
    @pytest.mark.parametrize("s_max", [1.0, 1e-6])
    def test_one_cutoff_serves_both_routes(self, sigma, rank_rel, s_max):
        # singular values a relative 1e-6 either side of the one cutoff; at
        # s_max = 1e-6 and rank_rel = 1e-8 the floor 1e-12 * sigma decides it
        policy = TolerancePolicy(rank_rel=rank_rel)
        c = policy.rank_cutoff(s_max, sigma)
        a = np.diag([s_max, c * (1 + 1e-6), c * (1 - 1e-6), c * (1 + 1e-6), c * (1 - 1e-6), 0.0])
        gamma = 6 - numerical_rank(a, policy, sigma)
        assert gamma == 3
        assert weyr_oracle(a, policy, sigma).gamma == gamma

    @pytest.mark.parametrize("energy", [10.0, -10.0, 100.0])
    def test_classify_point_gives_both_routes_one_scale(self, energy):
        # A = J_2(1e-3) + x: x sits above the floor at 1 + ||A||_2 + |E| and
        # below it at 1 + ||H||_2 + |E|, the scale the Weyr route divides by
        x = 1.5e-12 * (1 + abs(energy))
        a = np.array([[0, 1e-3, 0], [0, 0, 0], [0, 0, x]])
        h = energy * np.eye(3) + a
        for method in ("modes", "weyr"):
            assert classify_point(h, energy, method=method).partials == (2, 1)


class TestSingularValuePasses:
    def test_modal_route_takes_one_stacked_pass(self, policy, monkeypatch, rng):
        """||H||_2, one stacked pass for the mode ranks, gamma and xi, and the Weyr levels."""
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.ndim(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cases = [(lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (PI, PI)), 0.0)]
        cases.append((hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2)), 0.0))
        for sizes in ([1], [2, 1], [3, 1, 1], [2, 2, 2]):
            n = sum(sizes) + 1
            cases.append((planted_jordan(rng, n, sizes, 10.0) + 0.5 * np.eye(n), 0.5))
        for h, energy in cases:
            scale = 1.0 + spectral_norm(h) + abs(energy)
            calls.clear()
            weyr_oracle(h - energy * np.eye(len(h)), policy, scale)
            levels = len(calls)
            calls.clear()
            classify_point(h, energy, policy, method="modes")
            assert len(calls) == 2 + levels
            assert calls.count(3) == 1  # the one stacked call


# Outcomes of classify_point on planted Jordan forms, pinned bit for bit so
# that a speedup cannot move a fingerprint, eta or xi, or an error message
# unnoticed.  Each plant is drawn like the benchmark's pool plants, from
# default_rng([GOLDEN_SEED, n, log10(cond), plant]); the comment gives the
# planted block sizes.  A successful call records (partials, eta.hex(),
# xi.hex()), a refusal (exception type, message).  Recorded with numpy's
# bundled OpenBLAS on x86_64; another BLAS may round differently.
GOLDEN_SEED = 2611
GOLDEN = {
    (8, 1e1, 0, 'auto'): ((2, 1), '0x1.4d8f1ac93a1a8p+1', '0x1.4d8f1ac93a1a8p+1'),  # planted (2, 1)
    (8, 1e1, 0, 'weyr'): ((2, 1), 'nan', 'nan'),  # planted (2, 1)
    (8, 1e1, 1, 'auto'): ((4, 2), '0x1.128148923b8d1p+1', '0x1.128148923b8d2p+1'),  # planted (4, 2)
    (8, 1e1, 1, 'weyr'): ((4, 2), 'nan', 'nan'),  # planted (4, 2)
    (8, 1e3, 0, 'auto'): ((2, 1, 1), '0x1.339094cce18c2p+7', '0x1.339094cce18c2p+7'),  # planted (2, 1, 1)
    (8, 1e3, 0, 'weyr'): ((2, 1, 1), 'nan', 'nan'),  # planted (2, 1, 1)
    (8, 1e3, 1, 'auto'): ('InconsistentRanksError', 'sum rule sum(l * beta(l)) = 0 != alpha = 2'),  # planted (1, 1)
    (8, 1e3, 1, 'weyr'): ((1, 1), 'nan', 'nan'),  # planted (1, 1)
    (12, 1e1, 0, 'auto'): ((2, 1, 1), '0x1.693b63783267ep+1', '0x1.693b63783267ep+1'),  # planted (2, 1, 1)
    (12, 1e1, 0, 'weyr'): ((2, 1, 1), 'nan', 'nan'),  # planted (2, 1, 1)
    (12, 1e1, 1, 'auto'): ((6, 3), '0x1.e268630e549cbp+0', '0x1.e268630e549cbp+0'),  # planted (6, 3)
    (12, 1e1, 1, 'weyr'): ((6, 3), 'nan', 'nan'),  # planted (6, 3)
    (12, 1e3, 0, 'auto'): ('InconsistentRanksError', 'sum rule sum(l * beta(l)) = 0 != alpha = 1'),  # planted (1,)
    (12, 1e3, 0, 'weyr'): ((1,), 'nan', 'nan'),  # planted (1,)
    (12, 1e3, 1, 'auto'): ('OracleDisagreementError', 'mode-rank fingerprint {1: 2, 5: 2} disagrees with Weyr oracle {1: 2, 4: 1, 6: 1}'),  # planted (6, 4, 1, 1)
    (12, 1e3, 1, 'weyr'): ((6, 4, 1, 1), 'nan', 'nan'),  # planted (6, 4, 1, 1)
    (16, 1e1, 0, 'auto'): ((9, 2, 1, 1), '0x1.ef033047b4702p+0', '0x1.ef033047b46fep+0'),  # planted (9, 2, 1, 1)
    (16, 1e1, 0, 'weyr'): ((9, 2, 1, 1), 'nan', 'nan'),  # planted (9, 2, 1, 1)
    (16, 1e1, 1, 'auto'): ((8, 3, 3, 1), '0x1.d0d97c1a0094cp+0', '0x1.d0d97c1a0094cp+0'),  # planted (8, 3, 3, 1)
    (16, 1e1, 1, 'weyr'): ((8, 3, 3, 1), 'nan', 'nan'),  # planted (8, 3, 3, 1)
    (16, 1e3, 0, 'auto'): ('InconsistentRanksError', 'sum rule sum(l * beta(l)) = 0 != alpha = 9'),  # planted (4, 2, 2, 1)
    (16, 1e3, 0, 'weyr'): ((4, 2, 2, 1), 'nan', 'nan'),  # planted (4, 2, 2, 1)
    (16, 1e3, 1, 'auto'): ('InconsistentRanksError', 'sum rule sum(beta(l)) = 10 != gamma = 1'),  # planted (10,)
    (16, 1e3, 1, 'weyr'): ((10,), 'nan', 'nan'),  # planted (10,)
    (24, 1e1, 0, 'auto'): ((21, 1), 'nan', 'nan'),  # planted (21, 1)
    (24, 1e1, 0, 'weyr'): ((21, 1), 'nan', 'nan'),  # planted (21, 1)
    (24, 1e1, 1, 'auto'): ((7, 5), 'nan', 'nan'),  # planted (7, 5)
    (24, 1e1, 1, 'weyr'): ((7, 5), 'nan', 'nan'),  # planted (7, 5)
    (24, 1e3, 0, 'auto'): ((9, 5, 1), 'nan', 'nan'),  # planted (9, 5, 1)
    (24, 1e3, 0, 'weyr'): ((9, 5, 1), 'nan', 'nan'),  # planted (9, 5, 1)
    (24, 1e3, 1, 'auto'): ((7, 5, 2, 1, 1), 'nan', 'nan'),  # planted (7, 5, 2, 1, 1)
    (24, 1e3, 1, 'weyr'): ((7, 5, 2, 1, 1), 'nan', 'nan'),  # planted (7, 5, 2, 1, 1)
    (36, 1e1, 0, 'auto'): ((2,), 'nan', 'nan'),  # planted (2,)
    (36, 1e1, 0, 'weyr'): ((2,), 'nan', 'nan'),  # planted (2,)
    (36, 1e1, 1, 'auto'): ((13, 6, 6, 3, 2, 1), 'nan', 'nan'),  # planted (13, 6, 6, 3, 2, 1)
    (36, 1e1, 1, 'weyr'): ((13, 6, 6, 3, 2, 1), 'nan', 'nan'),  # planted (13, 6, 6, 3, 2, 1)
    (36, 1e3, 0, 'auto'): ((2, 1, 1, 1), 'nan', 'nan'),  # planted (2, 1, 1, 1)
    (36, 1e3, 0, 'weyr'): ((2, 1, 1, 1), 'nan', 'nan'),  # planted (2, 1, 1, 1)
    (36, 1e3, 1, 'auto'): ((17, 9, 4, 2, 1), 'nan', 'nan'),  # planted (17, 9, 4, 2, 1)
    (36, 1e3, 1, 'weyr'): ((17, 9, 4, 2, 1), 'nan', 'nan'),  # planted (17, 9, 4, 2, 1)
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda key: "n=%d cond=%g plant=%d %s" % key)
def test_golden_fingerprint(key):
    n, cond, plant, method = key
    rng = np.random.default_rng([GOLDEN_SEED, n, int(np.log10(cond)), plant])
    sizes = random_partition(rng, int(rng.integers(1, n + 1)))
    a = planted_jordan(rng, n, sizes, cond)
    try:
        r = classify_point(a, 0.0, method=method)
    except (ValueError, RuntimeError) as exc:
        got = (type(exc).__name__, str(exc))
    else:
        got = (r.partials, r.eta.hex(), r.xi.hex())
        assert math.isnan(r.eta) == (r.method == "weyr")
    assert got == GOLDEN[key]


class TestLabels:
    @pytest.mark.parametrize(
        "alpha,gamma,want",
        [
            (1, 1, "nondegenerate"),
            (2, 1, "EP2"),
            (4, 1, "EP4"),
            (2, 2, "DP"),
            (3, 3, "tribolic"),
            (4, 4, "tetrabolic"),
            (5, 5, "5-bolic"),
            (3, 2, "FEP"),
            (4, 3, "FEP"),
        ],
    )
    def test_mapping(self, alpha, gamma, want):
        assert degeneracy_label(alpha, gamma) == want


class TestPartialMultiplicityFunction:
    def test_sum_rules(self):
        pmf = PartialMultiplicityFunction({4: 2, 3: 1, 2: 2, 1: 1})
        assert pmf.alpha == 16 and pmf.gamma == 6 and pmf.ell == 4
        assert pmf.partials == (4, 4, 3, 2, 2, 1)

    def test_from_partials_roundtrip(self):
        pmf = PartialMultiplicityFunction.from_partials((2, 1, 1))
        assert pmf.beta == {2: 1, 1: 2}

    def test_rejects_negative_counts(self):
        with pytest.raises(InconsistentRanksError):
            PartialMultiplicityFunction({2: -1})
