import hashlib
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fepkit.adjugate
import fepkit.classify
import fepkit.matkit
from fepkit.adjugate import flv_modes, response_strengths
from fepkit.classify import (
    InconsistentRanksError,
    NotAnEigenvalueError,
    PartialMultiplicityFunction,
    _pmf,
    algebraic_multiplicity,
    classify_point,
    degeneracy_label,
    partial_multiplicities,
    weyr_oracle,
)
from fepkit.matkit import TolerancePolicy, numerical_rank, problem_scale
from fepkit.models import HodsmSpec, LiebSpec, arccot, bloch_matrix, hodsm_bloch, lieb_bloch
from fepkit.scan import analytic_degeneracies, trace_ring
from fepkit.selftest import jordan_blocks, planted_jordan, random_partition

PI = math.pi


class TestAlgebraicMultiplicity:
    def test_simple_eigenvalue(self):
        seq = flv_modes(np.diag([1.0, 2.0, 3.0])[None], 1.0)
        assert algebraic_multiplicity(seq)[0] == 1

    def test_minimal_fep_point(self):
        h = lieb_bloch(LiebSpec("minimal-fep", epsilon=0.8), (PI, PI))
        assert algebraic_multiplicity(flv_modes(h[None], 0.0))[0] == 3

    def test_dp_of_first_variant(self):
        h = hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 2))
        assert algebraic_multiplicity(flv_modes(h[None], 0.0))[0] == 2

    def test_zero_when_not_an_eigenvalue(self):
        seq = flv_modes(np.diag([1.0, 2.0])[None], 0.5)
        assert algebraic_multiplicity(seq)[0] == 0

    def test_one_matrix_gives_one_row(self):
        seq = flv_modes(np.diag([1.0, 1.0, 3.0]), 1.0)
        assert algebraic_multiplicity(seq).tolist() == [2]
        assert seq.mode_scale.shape == seq.coeff_scale.shape == (1,)


class TestPartialMultiplicities:
    def test_tribolic(self, policy):
        h = lieb_bloch(LiebSpec("hermitian"), (PI, PI))[None]
        beta = partial_multiplicities(flv_modes(h, 0.0), policy)
        assert _pmf(beta[0]).beta == {1: 3}

    def test_fep31(self, policy):
        h = hodsm_bloch(HodsmSpec(2, epsilon=2**-0.5), (0, 0, PI / 2))[None]
        beta = partial_multiplicities(flv_modes(h, 0.0), policy)
        assert _pmf(beta[0]).beta == {3: 1, 1: 1}

    def test_ep4(self, policy):
        h = hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 4))[None]
        beta = partial_multiplicities(flv_modes(h, 0.0), policy)
        assert _pmf(beta[0]).beta == {4: 1}

    def test_wrong_alpha_is_caught_not_repaired(self):
        # the (2,2) FEP has alpha = 4; a claimed 3 is refused, not used
        h = hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2))[None]
        seq = flv_modes(h, 0.0)
        assert seq.alpha.tolist() == [4]
        with pytest.raises(ValueError, match="^alpha = 3 does not match"):
            response_strengths(seq, alpha=3, ell=1)


class TestWeyrOracle:
    def test_single_jordan_block(self, policy):
        a = jordan_blocks([3])[None]
        assert _pmf(weyr_oracle(a, policy, 0.0)[0]).beta == {3: 1}

    def test_two_blocks(self, policy):
        a = jordan_blocks([2, 1])[None]
        assert _pmf(weyr_oracle(a, policy, 0.0)[0]).beta == {2: 1, 1: 1}

    def test_worked_example_structure(self, rng, policy):
        sizes = (4, 4, 3, 2, 2, 1)
        a = planted_jordan(rng, 16, sizes)[None]
        beta = _pmf(weyr_oracle(a, policy, 0.0)[0])
        assert beta.partials == sizes
        assert beta.alpha == 16 and beta.gamma == 6

    def test_zero_matrix(self, policy):
        assert _pmf(weyr_oracle(np.zeros((1, 4, 4)), policy, 0.0)[0]).beta == {1: 4}

    def test_full_rank_input_gives_empty_structure(self, policy):
        eye = np.eye(3)[None]
        beta = _pmf(weyr_oracle(eye, policy, 0.0)[0])
        assert beta.beta == {} and beta.alpha == 0

    @pytest.mark.parametrize(
        "sizes",
        [(1,), (5,), (1, 1, 1), (3, 3), (4, 2, 1), (6, 3, 3, 2, 1, 1), (2, 2, 2, 2)],
        ids=lambda sizes: "+".join(map(str, sizes)),
    )
    def test_direct_sums_of_jordan_blocks(self, sizes, policy):
        # Weyr widths w_l = #{blocks of size >= l}; a simple eigenvalue away
        # from zero must not join the staircase
        want = PartialMultiplicityFunction.from_partials(sizes)
        a = jordan_blocks(sizes)[None]
        assert _pmf(weyr_oracle(a, policy, 0.0)[0]) == want
        n = a.shape[-1]
        b = np.zeros((1, n + 2, n + 2), dtype=complex)
        b[0, :n, :n] = a[0]
        b[0, n:, n:] = jordan_blocks([2], eigenvalue=0.7)
        assert _pmf(weyr_oracle(b, policy, 0.0)[0]) == want

    def test_pool_plants_at_cond_1e3(self, policy):
        # the benchmark's planted-envelope pool, cond 1e3 cells: every plant
        # resolves, and the staircase stays cheap
        cases = []
        for n in (8, 12, 16, 24, 36):
            for j in range(48):
                rng = np.random.default_rng([2507, n, 2, j])
                sizes = random_partition(rng, int(rng.integers(1, n + 1)))
                want = PartialMultiplicityFunction.from_partials(sizes)
                a = planted_jordan(rng, n, sizes, 1e3)[None]
                cases.append((a, want))
        start = time.perf_counter()
        wrong = [want.partials for a, want in cases if _pmf(weyr_oracle(a, policy, 0.0)[0]) != want]
        elapsed = time.perf_counter() - start
        assert not wrong
        assert elapsed < 1.0


# sha256 over "n cond plant method outcome" lines, one per input of the
# benchmark's planted-envelope pool (5 dims x 3 conds x 48 plants, each under
# auto and weyr), with the outcome the partials or the class of the error
# raised.  Recorded with NumPy's bundled OpenBLAS on x86_64, like the golden
# pins below; a change to either route that moves the envelope moves it.
POOL_DIGEST = "3884a9426c362663d56d615b6994ccd4a77e8e51fc6c6870b966911224c0f654"


def test_pool_digest():
    digest = hashlib.sha256()
    for n in (8, 12, 16, 24, 36):
        for c, cond in enumerate((1e1, 1e2, 1e3)):
            for j in range(48):
                rng = np.random.default_rng([2507, n, c, j])
                sizes = random_partition(rng, int(rng.integers(1, n + 1)))
                a = planted_jordan(rng, n, sizes, cond)
                for method in ("auto", "weyr"):
                    try:
                        out = repr(classify_point(a, 0.0, method=method).partials)
                    except (ValueError, RuntimeError) as exc:
                        out = type(exc).__name__
                    digest.update(f"{n} {cond:g} {j} {method} {out}\n".encode())
    assert digest.hexdigest() == POOL_DIGEST


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

    @pytest.mark.parametrize("method", ["auto", "modes", "weyr"])
    @pytest.mark.parametrize("energy", [math.nan, math.inf, complex(0, -math.inf)])
    def test_nonfinite_energy_refused(self, policy, method, energy):
        """Refused by name on every route, before any step that would misdiagnose it."""
        h = lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (PI, PI))
        with pytest.raises(ValueError, match="^energy must be finite, got ") as info:
            classify_point(h, energy, policy, method=method)
        assert type(info.value) is ValueError

    def test_overflowing_modes_name_the_weyr_route(self, policy):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
        h = 1e100 * q @ np.diag(np.ones(3), 1) @ q.T
        with pytest.raises(ValueError) as info:
            classify_point(h, 0.0, policy)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "the Faddeev-LeVerrier coefficients overflowed; use smaller model parameters or "
            '--energy (in Python, classify with method="weyr")'
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
    def test_classify_point_takes_no_norm(self, policy, monkeypatch):
        """Each route reads ||A||_2 from the SVD of A it takes anyway."""

        def refuse(_):
            raise AssertionError("spectral_norm called by classify_point")

        monkeypatch.setattr(fepkit.matkit, "spectral_norm", refuse)
        monkeypatch.setattr(fepkit.classify, "spectral_norm", refuse, raising=False)
        h = jordan_blocks([3, 1])
        for method in ("modes", "weyr"):
            assert classify_point(h, 0.0, policy, method=method).partials == (3, 1)
            assert len(classify_point(np.stack([h, h]), 0.0, policy, method=method)) == 2
        with pytest.raises(NotAnEigenvalueError):
            classify_point(h, 0.5, policy, method="weyr")

    @pytest.mark.parametrize("energy", [1.0, 3.0, 10.0])
    @pytest.mark.parametrize("rank_rel", [1e-8, 1e-4])
    @pytest.mark.parametrize("s_max", [1.0, 1e-6])
    def test_one_cutoff_serves_both_routes(self, energy, rank_rel, s_max):
        # singular values a relative 1e-6 either side of the one cutoff at the
        # problem scale 1 + s_max + |E|; at s_max = 1e-6 and rank_rel = 1e-8 the
        # floor 1e-12 * scale decides it
        policy = TolerancePolicy(rank_rel=rank_rel)
        scale = problem_scale(s_max, energy)
        c = policy.rank_cutoff(s_max, scale)
        a = np.diag([s_max, c * (1 + 1e-6), c * (1 - 1e-6), c * (1 + 1e-6), c * (1 - 1e-6), 0.0])
        gamma = 6 - numerical_rank(a, policy, scale)
        assert gamma == 3
        assert _pmf(weyr_oracle(a[None].astype(complex), policy, energy)[0]).gamma == gamma

    @pytest.mark.parametrize("energy", [10.0, -10.0, 100.0])
    def test_classify_point_gives_both_routes_one_scale(self, energy):
        """Both routes count the rank of A against the floor 1e-12 (1 + ||A||_2 + |E|).

        A = J_2(1e-3) + x, with x a relative 1e-2 below and above that floor.
        Below it both routes give (2, 1).  Above it the Weyr route gives (2,),
        gamma = 1; the modal route's C_k chain (relative 1e-9) still counts x
        as zero, alpha = 3, and its sum rule refuses the pair with the same
        gamma = 1 for rank(A).
        """
        floor = 1e-12 * (1 + 1e-3 + abs(energy))
        for factor, weyr in ((1 - 1e-2, (2, 1)), (1 + 1e-2, (2,))):
            a = np.array([[0, 1e-3, 0], [0, 0, 0], [0, 0, factor * floor]])
            h = energy * np.eye(3) + a
            assert classify_point(h, energy, method="weyr").partials == weyr
            if weyr == (2, 1):
                assert classify_point(h, energy, method="modes").partials == weyr
            else:
                with pytest.raises(InconsistentRanksError, match=r"!= gamma = 1$"):
                    classify_point(h, energy, method="modes")

    NONFINITE_SCALE = "the problem scale 1 + ||H - E||_2 + |E| overflows; use smaller model parameters"

    def test_overflowing_scale_is_refused(self, policy):
        """An infinite scale, which would put every singular value under the cutoff, is refused.

        1.7e308 is a simple nonzero eigenvalue, yet ||H||_2 = 1.97e308
        overflows; an infinite cutoff would report the partials (1, 1, 1).
        """
        three = np.array([[1.7e308, 1e308, 0], [0, 0, 1], [0, 0, 0]])
        big = np.zeros((17, 17), dtype=complex)
        big[:3, :3] = three
        big[3:, 3:] = jordan_blocks([14])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h, method in ((three, "weyr"), (big, "auto"), (np.stack([big, big]), "auto")):
                with pytest.raises(ValueError) as info:
                    classify_point(h, 0.0, policy, method=method)
                assert type(info.value) is ValueError
                assert str(info.value) == self.NONFINITE_SCALE
            with pytest.raises(ValueError, match=re.escape(self.NONFINITE_SCALE)):
                problem_scale(np.array([1.0, 1.7e308]), 1e308)
        assert problem_scale(1.0, -2.0) == 4.0


class TestValidation:
    def test_classify_point_validates_once(self, policy, monkeypatch):
        calls = []
        validate = fepkit.matkit.as_square_matrix

        def counted(a):
            calls.append(np.shape(a))
            return validate(a)

        for module in (fepkit.matkit, fepkit.classify, fepkit.adjugate):
            monkeypatch.setattr(module, "as_square_matrix", counted, raising=False)
        h = hodsm_bloch(HodsmSpec(2, epsilon=2**-0.5), (0, 0, PI / 2))
        for stack in (h, np.stack([h] * 3)):
            for method in ("auto", "modes", "weyr"):
                calls.clear()
                classify_point(stack, 0.0, policy, method=method)
                assert calls == [stack.shape]

    @pytest.mark.parametrize(
        "h, message",
        [
            (np.full((3, 3), np.nan), "matrix contains NaN or Inf entries"),
            (np.array([[1.0, 0.0], [0.0, np.inf]]), "matrix contains NaN or Inf entries"),
            (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
            (np.zeros((4,)), "expected a square matrix, got shape (4,)"),
            (np.zeros((0, 0)), "empty matrix"),
            (np.zeros((2, 0, 0)), "empty matrix"),
        ],
        ids=["nan", "inf", "non-square", "vector", "empty", "empty-stack"],
    )
    @pytest.mark.parametrize("method", ["auto", "modes", "weyr"])
    def test_invalid_input_raises_its_one_line(self, policy, h, message, method):
        with pytest.raises(ValueError) as info:
            classify_point(h, 0.0, policy, method=method)
        assert type(info.value) is ValueError
        assert str(info.value) == message


class TestSingularValuePasses:
    def test_modal_route_takes_one_stacked_pass(self, policy, monkeypatch, rng):
        """One pass for the mode ranks, gamma, xi and ||A||_2, and one per Weyr level.

        Every call is stacked, and B copies of a matrix take exactly the calls
        of one copy.
        """
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
            calls.clear()
            weyr_oracle((h - energy * np.eye(len(h)))[None], policy, energy)
            levels = len(calls)
            assert levels >= 1
            for stack in (h, np.stack([h] * 7)):
                calls.clear()
                classify_point(stack, energy, policy, method="modes")
                assert calls == [3] * (1 + levels)

    def test_weyr_route_takes_one_stacked_pass_per_level(self, policy, monkeypatch, rng):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.ndim(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        h = planted_jordan(rng, 20, [4, 2, 1], 10.0)
        calls.clear()
        classify_point(h, 0.0, policy)
        assert calls[1:] and calls == [3] * len(calls)
        one = len(calls)
        calls.clear()
        classify_point(np.stack([h] * 5), 0.0, policy)
        assert calls == [3] * one


    def test_rank_counts_take_one_stacked_pass(self, policy, monkeypatch):
        """The rank counts of 1 and of 256 matrices take the same number of calls."""
        calls = []
        rank = TolerancePolicy.rank

        def counted(self, s, scale):
            calls.append(np.shape(s))
            return rank(self, s, scale)

        monkeypatch.setattr(TolerancePolicy, "rank", counted)
        h = ring_stack()
        for method in ("modes", "weyr"):
            counts = []
            for stack in (h[:1], h):
                calls.clear()
                assert len(classify_point(stack, 0.0, policy, method=method)) == len(stack)
                counts.append(len(calls))
            assert counts[0] == counts[1] == (method == "modes")


def ring_stack():
    """The 256 Bloch matrices of trace_ring's samples of the equal-angle ring at pi/4."""
    model = LiebSpec("reciprocal", phi=PI / 4, psi=PI / 4)
    ks = [r.k_point for r in trace_ring(model, 256)]
    return bloch_matrix(model, np.transpose(ks))


def outcome(call):
    """(beta, method, k_point, eta.hex(), xi.hex()) of each report, or the (type, message) raised."""
    try:
        reports = call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return [(r.beta, r.method, r.k_point, r.eta.hex(), r.xi.hex()) for r in reports]


class TestStacks:
    """A stack of matrices classifies as the loop over its matrices, bit for bit."""

    @pytest.mark.parametrize("method", ["auto", "modes", "weyr"])
    def test_planted_stack_equals_pointwise(self, method):
        for n, cond in ((5, 1e1), (8, 1e3), (16, 1e2), (20, 1e1)):
            if n > 16 and method == "modes":
                continue
            rng = np.random.default_rng([n, int(cond)])
            mats = []
            for _ in range(6):
                sizes = random_partition(rng, int(rng.integers(1, n + 1)))
                mats.append(planted_jordan(rng, n, sizes, cond))
            ks = [(float(i),) for i in range(len(mats))]
            pointwise = [
                outcome(lambda: [classify_point(h, 0.0, method=method, k_point=k)])
                for h, k in zip(mats, ks)
            ]
            # each matrix's own outcome, so the stack is compared up to its first failure
            ok = [o for o in pointwise if isinstance(o, list)]
            fails = [i for i, o in enumerate(pointwise) if isinstance(o, tuple)]
            stacked = outcome(lambda: classify_point(np.stack(mats), 0.0, method=method, k_point=ks))
            if fails:
                assert stacked == pointwise[fails[0]]
            else:
                assert stacked == [o[0] for o in ok]

    def test_catalog_stack_equals_pointwise(self, catalog_model):
        rng = np.random.default_rng(7)
        degenerate = [tuple(e.k) for e in analytic_degeneracies(catalog_model)]
        # off the degeneracy set: a simple flat-band zero (Lieb) or no zero at all
        # (semimetal, NotAnEigenvalueError)
        generic = [tuple(rng.uniform(-PI, PI, catalog_model.dims)) for _ in range(2)]
        for ks in (degenerate, degenerate + generic, generic + degenerate):
            stack = np.stack([bloch_matrix(catalog_model, k) for k in ks])
            pointwise = outcome(lambda: [classify_point(h, 0.0, k_point=k) for h, k in zip(stack, ks)])
            assert outcome(lambda: classify_point(stack, 0.0, k_point=ks)) == pointwise

    # failing matrices whose errors arise at successive steps of the classification
    NAN = np.full((3, 3), np.nan)  # refused on input
    HUGE = 1e200 * np.ones((3, 3))  # FLV coefficients overflow
    GAPPED = np.diag([1.0, 2.0, 3.0])  # c_0 does not vanish
    GOOD = np.zeros((3, 3))

    @pytest.mark.parametrize(
        "mats, error, message",
        [
            ((GOOD, GAPPED, HUGE, NAN), NotAnEigenvalueError, "c_0 = "),
            ((GOOD, HUGE, GAPPED, NAN), ValueError, "Faddeev-LeVerrier coefficients overflowed"),
            ((GOOD, NAN, HUGE, GAPPED), ValueError, "NaN or Inf"),
            ((GAPPED, GOOD), NotAnEigenvalueError, "c_0 = "),
        ],
    )
    def test_first_failing_matrix_raises(self, mats, error, message):
        assert classify_point(self.GOOD, 0.0).partials == (1, 1, 1)
        for h in (self.NAN, self.HUGE, self.GAPPED):
            with pytest.raises(ValueError):
                classify_point(h, 0.0)
        with pytest.raises(error, match=re.escape(message)):
            classify_point(np.stack(mats), 0.0)

    @staticmethod
    def widening_staircase():
        """A 3x3 matrix and a policy under which its Weyr staircase widens.

        A Jordan chain of length two plus the eigenvalue 1e-4, in a random
        unitary basis.  In exact arithmetic the second staircase level keeps
        the first level's singular value s_2; rounding can put it a few ulps
        lower, and a cutoff just below s_2 then counts one more null
        direction at the second level than at the first: a negative beta(1).
        """
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            a = q @ np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1e-4]]) @ q.conj().T
            s = np.linalg.svd(a, compute_uv=False)
            for j in range(52, 36, -1):
                policy = TolerancePolicy(rank_rel=s[1] / s[0] * (1 - 2.0**-j))
                try:
                    weyr_oracle(a[None], policy, 0.0)
                except InconsistentRanksError:
                    return a, policy
        raise AssertionError("no staircase widened")

    @pytest.mark.parametrize("kernel", ["flv_modes", "partial_multiplicities", "weyr_oracle"])
    def test_kernel_raises_first_failing_matrix(self, kernel):
        """A stacked kernel raises the type and message of its first failing matrix alone."""
        policy = TolerancePolicy()

        def run(m):
            if kernel == "weyr_oracle":
                return weyr_oracle(m.reshape(-1, 3, 3), policy, 0.0)
            seqs = flv_modes(m, 0.0)
            if kernel == "partial_multiplicities":
                return partial_multiplicities(seqs, policy)
            return seqs

        if kernel == "weyr_oracle":
            bad, policy = self.widening_staircase()
        else:
            bad = self.HUGE if kernel == "flv_modes" else self.NEGATIVE_BETA
        run(self.GOOD)
        with pytest.raises(ValueError) as alone:
            run(bad)
        with pytest.raises(ValueError) as stacked:
            run(np.stack([self.GOOD, bad, self.GOOD, bad]))
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)

    # fails the rank sum rules; and gets a modal fingerprint the Weyr oracle refuses
    NEGATIVE_BETA = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-8], [0.0, 0.0, 0.0]])
    DISAGREES = np.array([[1e-8, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "method, bad",
        [("modes", m) for m in (NAN, HUGE, GAPPED, NEGATIVE_BETA, DISAGREES)]
        + [("weyr", m) for m in (NAN, GAPPED)],
        ids=["nan", "huge", "gapped", "negative-beta", "disagrees", "weyr-nan", "weyr-gapped"],
    )
    def test_ring_stack_with_one_failing_matrix(self, method, bad):
        """A ring stack of 256 raises its one failing matrix's own error and message."""
        stack = ring_stack()
        assert len(classify_point(stack, 0.0, method=method)) == 256
        with pytest.raises((ValueError, RuntimeError)) as alone:
            classify_point(bad, 0.0, method=method)
        stack[128] = bad
        with pytest.raises(type(alone.value)) as stacked:
            classify_point(stack, 0.0, method=method)
        assert str(stacked.value) == str(alone.value)

    def test_strengths_pass_the_strength_checks(self):
        """Each modal report's eta and xi are what response_strengths gives its modes.

        classify_point reads the strengths without response_strengths' checks,
        which its sum rules imply; the checks pass and the values agree bitwise.
        """
        mats = list(ring_stack()[::16])
        rng = np.random.default_rng(11)
        for n in (4, 8, 12):
            for _ in range(4):
                mats.append(planted_jordan(rng, n, random_partition(rng, int(rng.integers(1, n + 1))), 10.0))
        checked = 0
        for h in mats:
            try:
                report = classify_point(h, 0.0, method="modes")
            except (ValueError, RuntimeError):
                continue
            rs = response_strengths(flv_modes(h, 0.0), report.alpha, report.ell)
            assert (rs.eta.hex(), rs.xi.hex()) == (report.eta.hex(), report.xi.hex())
            checked += 1
        assert checked >= 20

    def test_stack_of_one_and_empty_stack(self, policy):
        h = lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (PI, PI))
        one = classify_point(h[None], 0.0, policy, k_point=[(PI, PI)])
        assert one == [classify_point(h, 0.0, policy, k_point=(PI, PI))]
        assert classify_point(np.zeros((0, 3, 3)), 0.0, policy) == []
        reports = classify_point(np.stack([h, h]), 0.0, policy)
        assert [r.k_point for r in reports] == [None, None]
        with pytest.raises(ValueError, match="one k_point per matrix: 1 for 2 matrices"):
            classify_point(np.stack([h, h]), 0.0, policy, k_point=[(PI, PI)])


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
