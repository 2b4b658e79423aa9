import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fepkit import models
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
    hodsm_closed_dispersion,
    hodsm_h_eps,
    hodsm_pauli_coeffs,
    lieb_bloch,
    lieb_pqrs,
    model_from_id,
)
from fepkit.selftest import FIGURE_EPS

PI = math.pi


def multiset_distance(a, b):
    """Greedy nearest matching of two equal-size complex multisets."""
    a = list(np.asarray(a, dtype=complex))
    b = list(np.asarray(b, dtype=complex))
    assert len(a) == len(b)
    worst = 0.0
    for z in a:
        j = int(np.argmin([abs(z - w) for w in b]))
        worst = max(worst, abs(z - b.pop(j)))
    return worst


class TestLiebBloch:
    def test_hermitian_corner_vanishes(self):
        h = lieb_bloch(LiebSpec("hermitian"), (PI, PI))
        assert np.max(np.abs(h)) <= 1e-15

    def test_hermitian_lieb_gamma_point(self):
        h = lieb_bloch(LiebSpec("hermitian"), (0.0, 0.0))
        want = [-2 * math.sqrt(2), 0.0, 2 * math.sqrt(2)]
        assert np.allclose(np.linalg.eigvalsh(h), want, atol=1e-12)

    def test_minimal_fep_gamma_point_entries(self):
        h = lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (0.0, 0.0))
        assert h[0, 1] == pytest.approx(2 + 1j)
        assert h[1, 0] == pytest.approx(2.0)
        assert h[1, 2] == pytest.approx(2.0)
        assert h[2, 1] == pytest.approx(2 - 1j)
        assert np.all(np.diag(h) == 0)
        # chain pattern only: no direct A-C coupling
        assert h[0, 2] == 0 and h[2, 0] == 0

    def test_reciprocal_fep_symbols_vanish(self):
        spec = LiebSpec("reciprocal", phi=PI / 2, psi=PI / 2)
        p, q, r, s = lieb_pqrs(spec, (PI / 2, PI / 2))
        assert abs(p) <= 1e-15 and abs(s) <= 1e-15
        assert abs(q) > 0.1 and abs(r) > 0.1

    def test_variant_parameter_validation(self):
        with pytest.raises(ValueError):
            LiebSpec("hermitian", epsilon=1.0)
        with pytest.raises(ValueError):
            LiebSpec("reciprocal", phi=1.0)  # psi missing
        with pytest.raises(ValueError):
            LiebSpec("nope")

    def test_flat_band_everywhere(self, rng):
        for variant, kw in [
            ("hermitian", {}),
            ("nh-symmetric", dict(epsilon=0.8)),
            ("minimal-fep", dict(epsilon=1.3)),
            ("reciprocal", dict(phi=0.7, psi=2.1)),
        ]:
            spec = LiebSpec(variant, **kw)
            for _ in range(20):
                k = rng.uniform(-PI, PI, 2)
                ev = np.linalg.eigvals(lieb_bloch(spec, k))
                assert np.min(np.abs(ev)) <= 1e-12


def test_bloch_stack_equals_pointwise_builds(catalog_model, rng):
    k = rng.uniform(-PI, PI, size=(catalog_model.dims, 4, 3))
    stack = bloch_matrix(catalog_model, k)
    n = 3 if isinstance(catalog_model, LiebSpec) else 4
    assert stack.shape == (4, 3, n, n)
    for idx in np.ndindex(4, 3):
        point = bloch_matrix(catalog_model, tuple(float(c) for c in k[(slice(None), *idx)]))
        assert stack[idx].tobytes() == point.tobytes()


class TestChiralAndReciprocity:
    @pytest.mark.parametrize(
        "spec",
        [
            LiebSpec("hermitian"),
            LiebSpec("nh-symmetric", epsilon=0.6),
            LiebSpec("minimal-fep", epsilon=1.1),
            LiebSpec("reciprocal", phi=0.4, psi=1.9),
        ],
        ids=["hermitian", "nh-symmetric", "minimal-fep", "reciprocal"],
    )
    def test_lieb_chiral_anticommutation(self, spec, rng):
        x = CHIRAL_LIEB
        for _ in range(100):
            h = lieb_bloch(spec, rng.uniform(-PI, PI, 2))
            assert np.max(np.abs(x @ h @ x + h)) <= 1e-12

    @pytest.mark.parametrize("variant,eps", [(0, 0.0), (1, 0.7), (2, 0.7), (3, 0.5), (4, 0.35)])
    def test_hodsm_chiral_anticommutation(self, variant, eps, rng):
        x = CHIRAL_DSM
        spec = HodsmSpec(variant, epsilon=eps)
        for _ in range(100):
            h = hodsm_bloch(spec, rng.uniform(-PI, PI, 3))
            assert np.max(np.abs(x @ h @ x + h)) <= 1e-12

    def test_reciprocity_holds_where_claimed(self, rng):
        for spec in [
            LiebSpec("hermitian"),
            LiebSpec("nh-symmetric", epsilon=0.9),
            LiebSpec("reciprocal", phi=0.8, psi=2.2),
        ]:
            for _ in range(30):
                k = rng.uniform(-PI, PI, 2)
                assert np.allclose(
                    lieb_bloch(spec, k), lieb_bloch(spec, -k).T, atol=1e-13
                )

    def test_minimal_fep_breaks_reciprocity(self, rng):
        spec = LiebSpec("minimal-fep", epsilon=1.0)
        k = (0.9, -0.3)
        assert not np.allclose(lieb_bloch(spec, k), lieb_bloch(spec, (-k[0], -k[1])).T)


def test_bloch_on_sparse_grid_is_bitwise_dense(catalog_model):
    axes = [np.linspace(-PI, PI, 7, endpoint=False)] * catalog_model.dims
    dense = bloch_matrix(catalog_model, np.meshgrid(*axes, indexing="ij"))
    sparse = bloch_matrix(catalog_model, np.meshgrid(*axes, indexing="ij", sparse=True))
    assert sparse.shape == dense.shape and sparse.tobytes() == dense.tobytes()


def test_pauli_coeffs_keep_the_shape_of_the_momenta_they_read():
    k = np.meshgrid(np.arange(2.0), np.arange(3.0), np.arange(4.0), indexing="ij", sparse=True)
    q, r = hodsm_pauli_coeffs(HodsmSpec(4, epsilon=0.3), k)
    # q_0, r_0 of (kx, kz); q_1, r_1 of ky; q_2, r_2 of (ky, kz); q_3, r_3 of kx
    want = [(2, 1, 4), (1, 3, 1), (1, 3, 4), (2, 1, 1)]
    assert [c.shape for c in q] == want and [c.shape for c in r] == want


def test_python_float_momenta_build_like_an_array_point():
    spec = HodsmSpec(2, epsilon=0.5)
    point = (0.3, -1.1, PI / 2)
    assert hodsm_bloch(spec, point).tobytes() == hodsm_bloch(spec, np.array(point)).tobytes()


class TestHodsmBloch:
    def test_parent_vanishes_at_dirac_point(self):
        h = hodsm_bloch(HodsmSpec(0), (0.0, 0.0, PI / 2))
        assert np.max(np.abs(h)) <= 1e-15

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_reduces_to_constant_addition_at_dirac_point(self, variant):
        for eps in (0.0, 0.37, -0.8, 1.5):
            h = hodsm_bloch(HodsmSpec(variant, epsilon=eps), (0.0, 0.0, PI / 2))
            assert np.allclose(h, hodsm_h_eps(variant, eps), atol=1e-15)

    def test_block_structure(self, rng):
        h = hodsm_bloch(HodsmSpec(2, epsilon=0.5), rng.uniform(-PI, PI, 3))
        assert np.all(h[:2, :2] == 0) and np.all(h[2:, 2:] == 0)

    def test_parent_squares_to_scalar(self, rng):
        spec = HodsmSpec(0, t=-0.8, s=1.0)
        for _ in range(100):
            h = hodsm_bloch(spec, rng.uniform(-PI, PI, 3))
            h2 = h @ h
            e2 = h2[0, 0]
            assert np.allclose(h2, e2 * np.eye(4), atol=1e-12)
            assert abs(e2.imag) <= 1e-12

    @pytest.mark.parametrize("variant,eps", [(0, 0.0), (1, 0.6), (2, 0.3), (3, 0.5), (4, 0.35)])
    def test_closed_dispersion_matches_eig(self, variant, eps, rng):
        spec = HodsmSpec(variant, epsilon=eps)
        # variant 2 is doubly degenerate AND defective at generic kz, so the
        # numerical eigenvalues themselves are only sqrt(machine-eps) accurate
        tol = 1e-7 if variant == 2 else 1e-10
        for _ in range(100):
            kz = float(rng.uniform(-PI, PI))
            ev = np.linalg.eigvals(hodsm_bloch(spec, (0, 0, kz)))
            want = hodsm_closed_dispersion(spec, kz)
            assert multiset_distance(ev, want) <= tol

    def test_pauli_form_is_the_fourier_sum_of_the_open_boundary_blocks(self, rng):
        """The Pauli form equals h0(kz) + sx e^{ikx} + sy e^{iky} + h.c. of the hinge blocks.

        The opposite sign in the exponents misses by far more than rounding, so
        the Fourier convention is pinned too.
        """
        for variant in range(5):
            for _ in range(80):
                t, eps = rng.uniform(-2, 2, 2)
                eps = eps if variant else 0.0  # variant 0 takes no epsilon
                s = rng.choice((-1, 1)) * rng.uniform(0.5, 2)
                k = rng.uniform(-PI, PI, 3)
                h0 = (t + 0.5 * s * math.cos(k[2])) * models._INTRACELL + hodsm_h_eps(variant, eps)
                sx, sy = models._intercell_blocks(s)

                def fourier(sign):
                    hops = sum(b * np.exp(sign * 1j * kj) for b, kj in ((sx, k[0]), (sy, k[1])))
                    return h0 + hops + hops.conj().T

                h = hodsm_bloch(HodsmSpec(variant, t=t, s=s, epsilon=eps), k)
                assert np.max(np.abs(h - fourier(1))) <= 1e-13
                assert np.max(np.abs(h - fourier(-1))) >= 0.15

    def test_closed_dispersion_rejects_other_normalization(self):
        with pytest.raises(ValueError):
            hodsm_closed_dispersion(HodsmSpec(0, t=-0.5, s=1.0), 0.3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HodsmSpec(5)
        with pytest.raises(ValueError):
            HodsmSpec(1, s=0.0)

    @pytest.mark.parametrize("eps", [0.5, -1e-300, 2**-0.5])
    def test_variant_0_refuses_epsilon(self, eps):
        # variant 0 has no non-Hermitian couplings, so an epsilon would be dropped unread
        with pytest.raises(ValueError, match=r"^hodsm variant 0 does not take epsilon$"):
            HodsmSpec(0, epsilon=eps)
        assert HodsmSpec(0, epsilon=0.0) == HodsmSpec(0)


class TestHingeHamiltonian:
    def test_single_cell_is_reduced_hamiltonian(self):
        spec = HodsmSpec(3, t=-1.0, s=1.0, epsilon=0.5)
        geom = HingeGeometry(1, 1, kz=0.7)
        h = hinge_hamiltonian(spec, geom).toarray()
        tz = spec.t + 0.5 * spec.s * math.cos(geom.kz)
        m = np.array([[0, 0, 1, 1], [0, 0, -1, 1], [1, -1, 0, 0], [1, 1, 0, 0]])
        assert np.allclose(h, tz * m + hodsm_h_eps(3, 0.5))

    def test_atomistic_corner_sites_decouple(self):
        # t = -1/2, s = 1, kz = 0 kills the intracell couplings entirely
        spec = HodsmSpec(0, t=-0.5, s=1.0)
        geom = HingeGeometry(3, 3, kz=0.0)
        h = hinge_hamiltonian(spec, geom).toarray()
        corners = {
            "B": 4 * cell_index(geom, 1, 1) + 1,
            "D": 4 * cell_index(geom, 3, 1) + 3,
            "C": 4 * cell_index(geom, 1, 3) + 2,
            "A": 4 * cell_index(geom, 3, 3) + 0,
        }
        for name, idx in corners.items():
            assert np.max(np.abs(h[idx, :])) == 0, f"corner {name} row"
            assert np.max(np.abs(h[:, idx])) == 0, f"corner {name} column"

    def test_hermitian_variant_is_selfadjoint_and_chiral(self):
        spec = HodsmSpec(0, t=-1.0, s=1.0)
        h = hinge_hamiltonian(spec, HingeGeometry(8, 8, kz=0.4)).toarray()
        assert np.allclose(h, h.conj().T)
        ev = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(ev, -ev[::-1], atol=1e-10)  # E -> -E symmetry

    @pytest.mark.parametrize("variant", [1, 2, 3, 4])
    def test_nonhermiticity_confined_to_eps_entries(self, variant):
        eps = 0.41
        spec = HodsmSpec(variant, t=-1.0, s=1.0, epsilon=eps)
        geom = HingeGeometry(4, 4, kz=0.3)
        h = hinge_hamiltonian(spec, geom).toarray()
        anti = h - h.conj().T
        cell_part = hodsm_h_eps(variant, eps)
        cell_part = cell_part - cell_part.conj().T
        assert np.allclose(anti, np.kron(np.eye(16), cell_part))

    def test_kronecker_block_layout(self):
        # every 4x4 block of a 2x3 system against the cell-by-cell definition
        spec = HodsmSpec(4, t=-1.0, s=0.8, epsilon=0.35)
        geom = HingeGeometry(2, 3, kz=0.6)
        h = hinge_hamiltonian(spec, geom)
        tz = spec.t + 0.5 * spec.s * math.cos(geom.kz)
        m = np.array([[0, 0, 1, 1], [0, 0, -1, 1], [1, -1, 0, 0], [1, 1, 0, 0]])
        h0 = tz * m + hodsm_h_eps(4, 0.35)
        sx = spec.s * np.array([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
        sy = spec.s * np.array([[0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0]])
        blocks = {(0, 0): h0, (1, 0): sx, (0, 1): sy, (-1, 0): sx.T, (0, -1): sy.T}
        dense = h.toarray()
        cells = [(x, y) for x in range(1, 3) for y in range(1, 4)]
        want_nnz = 0
        for x, y in cells:
            for x2, y2 in cells:
                block = blocks.get((x2 - x, y2 - y), np.zeros((4, 4)))
                i, j = 4 * cell_index(geom, x, y), 4 * cell_index(geom, x2, y2)
                assert np.array_equal(dense[i : i + 4, j : j + 4], block), ((x, y), (x2, y2))
                want_nnz += np.count_nonzero(block)
        assert h.nnz == want_nnz

    def test_dimension_and_validation(self):
        geom = HingeGeometry(5, 3, kz=0.0)
        h = hinge_hamiltonian(HodsmSpec(0), geom)
        assert h.shape == (60, 60)
        with pytest.raises(ValueError):
            HingeGeometry(0, 3)


def kron_reference(spec: HodsmSpec, geom: HingeGeometry) -> sp.csc_matrix:
    """The open-boundary Hamiltonian as complex sums of Kronecker products of open-chain shifts."""
    tz = spec.t + 0.5 * spec.s * math.cos(geom.kz)
    h0 = tz * models._INTRACELL + hodsm_h_eps(spec.variant, spec.epsilon)
    sx, sy = models._intercell_blocks(spec.s)

    def cells(x_factor, y_factor, block):
        return sp.kron(sp.kron(x_factor, y_factor), block, format="csc")

    ix, iy = sp.identity(geom.nx), sp.identity(geom.ny)
    hop = cells(sp.eye(geom.nx, k=1), iy, sx) + cells(ix, sp.eye(geom.ny, k=1), sy)
    return sp.csc_matrix(cells(ix, iy, h0) + hop + hop.conj().T, dtype=complex)


def assert_same_csc(got, want):
    """Same type, format and arrays, signed zeros included."""
    assert type(got) is type(want) and got.format == want.format == "csc"
    assert got.shape == want.shape
    assert got.has_canonical_format and want.has_canonical_format
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def assert_real_reference(got, want):
    """``want`` is complex with an all-zero imaginary part, and ``got`` stores its real part."""
    assert want.dtype == complex and not want.data.imag.any()
    assert_same_csc(got, want.real)


class TestGridAssembly:
    """The index-grid assembly stores exactly what the complex Kronecker sums store.

    The sums run in complex arithmetic on the complex ``hodsm_h_eps``, so a
    zero imaginary part of theirs and bitwise equality with their real part
    prove that the real assembly drops nothing.
    """

    GEOMS = [(1, 1), (1, 4), (4, 1), (2, 3), (10, 34), (34, 10)]

    @pytest.mark.parametrize("nx,ny", GEOMS)
    @pytest.mark.parametrize("variant", range(5))
    def test_matches_kronecker_sums(self, variant, nx, ny):
        for kz, t, s, eps in ((0.6, -1.0, 0.8, 0.35), (2.0, 0.3, -1.2, -0.5)):
            spec = HodsmSpec(variant, t=t, s=s, epsilon=eps if variant else 0.0)
            geom = HingeGeometry(nx, ny, kz=kz)
            assert_real_reference(hinge_hamiltonian(spec, geom), kron_reference(spec, geom))

    @pytest.mark.parametrize("nx,ny", GEOMS)
    @pytest.mark.parametrize("variant", range(5))
    def test_matches_at_atomistic_point(self, variant, nx, ny):
        # t = -s/2 at kz = 0 zeroes every intracell coupling but h_eps
        spec = HodsmSpec(variant, t=-0.5, s=1.0, epsilon=FIGURE_EPS[variant])
        geom = HingeGeometry(nx, ny, kz=0.0)
        h = hinge_hamiltonian(spec, geom)
        assert_real_reference(h, kron_reference(spec, geom))
        assert np.all(h.data != 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(1, 12),
        st.integers(1, 12),
        st.floats(-math.pi, math.pi),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0).filter(lambda s: s != 0),
        st.floats(-1.0, 1.0),
    )
    def test_matches_kronecker_sums_property(self, variant, nx, ny, kz, t, s, eps):
        spec = HodsmSpec(variant, t=t, s=s, epsilon=eps if variant else 0.0)
        geom = HingeGeometry(nx, ny, kz=kz)
        assert_real_reference(hinge_hamiltonian(spec, geom), kron_reference(spec, geom))

    def test_cells_grid_follows_cell_index(self):
        geom = HingeGeometry(3, 5)
        want = [[cell_index(geom, x, y) for y in range(1, 6)] for x in range(1, 4)]
        assert np.array_equal(geom.cells, want)

    @pytest.mark.parametrize(
        "nx,ny",
        [(2.5, 3), (3, 2.0), (True, 3), (3, np.bool_(True)), ("3", 3), (None, 3)],
        ids=["float-nx", "float-ny", "bool-nx", "numpy-bool-ny", "str-nx", "none-nx"],
    )
    def test_rejects_non_integer_sizes(self, nx, ny):
        with pytest.raises(ValueError, match="must be an integer") as info:
            HingeGeometry(nx, ny)
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("kz", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_kz(self, kz):
        # refused here, before the sparse factorization fails on the NaN Hamiltonian
        with pytest.raises(ValueError, match="^kz must be finite, got ") as info:
            HingeGeometry(3, 3, kz=kz)
        assert len(str(info.value).splitlines()) == 1

    def test_accepts_numpy_integers(self):
        geom = HingeGeometry(np.int64(2), np.int32(3))
        assert hinge_hamiltonian(HodsmSpec(0), geom).shape == (24, 24)


def loop_corner_permutation(geom: HingeGeometry) -> np.ndarray:
    """The reflection permutation filled site by site through ``cell_index``."""
    n = geom.sites
    perm = np.zeros((n, n), dtype=complex)
    site_map = {0: 1, 1: 0, 2: 2, 3: 3}
    for x in range(1, geom.nx + 1):
        for y in range(1, geom.ny + 1):
            c = cell_index(geom, x, y)
            c2 = cell_index(geom, geom.nx + 1 - y, geom.ny + 1 - x)
            for site, site2 in site_map.items():
                perm[4 * c2 + site2, 4 * c + site] = 1.0
    return perm


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_corner_permutation_matches_loop_form(size):
    geom = HingeGeometry(size, size, kz=0.3)
    got = models._corner_permutation(geom).toarray()
    want = loop_corner_permutation(geom)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSymmetryOperators:
    def test_chiral_involutions(self):
        for x in (CHIRAL_LIEB, CHIRAL_DSM):
            assert np.allclose(x @ x, np.eye(x.shape[0]))

    def test_c4_fourth_power_is_minus_one(self):
        assert np.allclose(np.linalg.matrix_power(ROTATION_C4, 4), -np.eye(4))

    def test_reflection_is_unitary_involution(self):
        geom = HingeGeometry(4, 4, kz=0.0)
        r = models.generalized_reflection(geom).toarray()
        assert np.allclose(r @ r.conj().T, np.eye(64))
        assert np.allclose(r @ r, np.eye(64))

    def test_reflection_needs_square_geometry(self):
        with pytest.raises(ValueError):
            models.generalized_reflection(HingeGeometry(3, 4))


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda v: LiebSpec("nh-symmetric", epsilon=v), "epsilon"),
        (lambda v: LiebSpec("reciprocal", phi=v, psi=0.3), "phi"),
        (lambda v: LiebSpec("reciprocal", phi=0.3, psi=v), "psi"),
        (lambda v: HodsmSpec(1, epsilon=v), "epsilon"),
        (lambda v: HodsmSpec(0, t=v), "t"),
        (lambda v: HodsmSpec(0, s=v), "s"),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_specs_refuse_nonfinite_parameters(build, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
        build(value)


@pytest.mark.parametrize("t,s", [(-1.7e308, 1.7e308), (1.7e308, 1.7e308)])
def test_bloch_matrix_refuses_overflowing_symbols(t, s):
    with pytest.raises(ValueError, match="^the Bloch matrix is not finite"):
        bloch_matrix(HodsmSpec(0, t=t, s=s), np.array([[0.0, 0.0], [0.0, 1.0], [0.0, PI]]))


def test_hinge_hamiltonian_refuses_overflowing_blocks():
    with pytest.raises(ValueError, match="^the hinge Hamiltonian is not finite"):
        hinge_hamiltonian(HodsmSpec(0, t=1.7e308, s=1.7e308), HingeGeometry(2, 2))


class TestModelRegistry:
    def test_every_id_builds_with_its_defaults(self):
        assert models.MODEL_IDS == (
            "lieb:hermitian", "lieb:nh-symmetric", "lieb:minimal-fep", "lieb:reciprocal",
            "hodsm:h", "hodsm:nh1", "hodsm:nh2", "hodsm:nh3", "hodsm:nh4",
        )
        assert [model_from_id(m) for m in models.MODEL_IDS] == [
            LiebSpec("hermitian"),
            LiebSpec("nh-symmetric", epsilon=1.0),
            LiebSpec("minimal-fep", epsilon=1.0),
            LiebSpec("reciprocal", phi=PI / 2, psi=PI / 2),
            HodsmSpec(0),
            HodsmSpec(1),
            HodsmSpec(2),
            HodsmSpec(3),
            HodsmSpec(4),
        ]
        assert model_from_id("lieb:reciprocal", psi=0.3) == LiebSpec("reciprocal", phi=PI / 2, psi=0.3)
        assert model_from_id("hodsm:h", t=-0.5, s=2.0) == HodsmSpec(0, t=-0.5, s=2.0)
        assert model_from_id("hodsm:nh4", eps=0.35) == HodsmSpec(4, epsilon=0.35)

    def test_roundtrip_ids(self):
        spec = model_from_id("hodsm:nh3", eps=0.5)
        assert isinstance(spec, HodsmSpec) and spec.variant == 3

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            model_from_id("lieb:nope")

    def test_rejects_stray_parameters(self):
        with pytest.raises(ValueError):
            model_from_id("lieb:hermitian", eps=1.0)
        with pytest.raises(ValueError, match=r"^model 'hodsm:h' does not take \['eps'\]$"):
            model_from_id("hodsm:h", eps=0.5)
        with pytest.raises(ValueError):
            model_from_id("hodsm:nh1", phi=0.5)
