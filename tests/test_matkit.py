import dataclasses

import numpy as np
import pytest

from fepkit.matkit import (
    TolerancePolicy,
    as_square_matrix,
    numerical_rank,
    singular_values,
    spectral_norm,
)


def fro(m):
    return float(np.linalg.norm(m, "fro"))


def random_unitary(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


class TestAsSquareMatrix:
    @pytest.mark.parametrize(
        "bad", [complex(np.nan, 0), complex(np.inf, 0), complex(0, np.nan), complex(1, -np.inf)]
    )
    def test_rejects_non_finite_real_or_imaginary_part(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError) as err:
            as_square_matrix(m)
        assert str(err.value) == "matrix contains NaN or Inf entries"


class TestNumericalRank:
    def test_zero_matrix(self, policy):
        assert numerical_rank(np.zeros((3, 3)), policy, 0.0) == 0

    def test_identity(self, policy):
        assert numerical_rank(np.eye(3), policy, fro(np.eye(3))) == 3

    def test_lieb_leading_mode_is_outer_product(self, policy):
        # B_0 of the chain model at symbols P=1, Q=2, R=3, S=-2/3
        p, q, r, s = 1.0, 2.0, 3.0, -2.0 / 3.0
        b0 = np.array([[-r * s, 0, p * r], [0, 0, 0], [q * s, 0, -p * q]], dtype=complex)
        assert numerical_rank(b0, policy, fro(b0)) == 1

    def test_rejects_non_square(self, policy):
        with pytest.raises(ValueError):
            numerical_rank(np.zeros((2, 3)), policy, 1.0)

    def test_rejects_non_finite(self, policy):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError):
            numerical_rank(bad, policy, 1.0)

    def test_planted_rank_deficits(self, policy, rng):
        # rank + numerical null dimension partitions n, 200 plants
        for _ in range(200):
            n = int(rng.integers(2, 10))
            r = int(rng.integers(0, n + 1))
            u, v = random_unitary(rng, n), random_unitary(rng, n)
            sing = np.zeros(n)
            sing[:r] = np.sort(rng.uniform(0.1, 5.0, size=r))[::-1]
            a = (u * sing) @ v.conj().T
            got = numerical_rank(a, policy, fro(a))
            assert got == r
            s = np.linalg.svd(a, compute_uv=False)
            cutoff = policy.rank_cutoff(s[0], fro(a))
            null_dim = int(np.count_nonzero(s <= cutoff))
            assert got + null_dim == n

    def test_floor_tracks_the_given_scale(self):
        # the floor 1e-12 * scale wins over rank_rel * s_max here
        policy = TolerancePolicy(rank_rel=1e-14)
        assert policy.rank_cutoff(3.0, 6.0) == pytest.approx(1e-12 * 6.0)
        norm = np.sqrt(27.0)  # ||diag(3, 3, 3, x)||_F for tiny x
        floor = 1e-12 * norm
        assert numerical_rank(np.diag([3.0, 3.0, 3.0, 0.98 * floor]), policy, norm) == 3
        assert numerical_rank(np.diag([3.0, 3.0, 3.0, 1.02 * floor]), policy, norm) == 4
        # a smaller problem scale lowers the floor
        assert numerical_rank(np.diag([3.0, 3.0, 3.0, 0.98 * floor]), policy, scale=1.0) == 4


@pytest.mark.parametrize("n", [1, 3, 4, 16])
def test_stacked_singular_values_repeat_separate_svds(n):
    rng = np.random.default_rng(n)
    mats = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(5)]
    mats.append(np.zeros((n, n), dtype=complex))
    for m, row in zip(mats, singular_values(mats)):
        assert row.tobytes() == np.linalg.svd(m, compute_uv=False).tobytes()


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(2)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0)

    def test_single_entry(self):
        c = 0.3 - 1.7j
        assert spectral_norm(np.array([[0, c], [0, 0]])) == pytest.approx(abs(c))

    def test_zero_iff_zero(self, rng):
        assert spectral_norm(np.zeros((4, 4))) == 0.0
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert spectral_norm(a) > 0

    def test_adjoint_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            na, nad = spectral_norm(a), spectral_norm(a.conj().T)
            assert abs(na - nad) <= 1e-12 * na


class TestTolerancePolicy:
    def test_defaults_valid(self):
        p = TolerancePolicy()
        assert p.rank_rel == 1e-8 and p.cluster_tol == 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank_rel": 0.0},
            {"rank_rel": 1.5},
            {"rank_rel": 1.0},
            {"cluster_tol": 0.0},
            {"cluster_tol": -0.1},
            {"cluster_tol": np.nan},
            {"cluster_tol": np.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TolerancePolicy(**kwargs)

    def test_only_rank_rel_and_cluster_tol_are_settable(self):
        assert [f.name for f in dataclasses.fields(TolerancePolicy)] == ["rank_rel", "cluster_tol"]
        with pytest.raises(TypeError):
            TolerancePolicy(rank_abs=1e-6)
