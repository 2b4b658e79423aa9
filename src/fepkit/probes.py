"""Numerical experiments: response exponents, hinge spectra, decay rates, symmetries.

The resolvent trace P(E) = tr(G^dag G) diverges like |E - E_i|**(-2 ell) at a
degeneracy of maximal partial multiplicity ell, and a generic perturbation of
strength eps displaces the eigenvalues by ~ (eps xi)**(1/ell); both exponents
are extracted here by log-log fits that stay independent of the modal
machinery (direct inversion, direct diagonalization).

Hinge-state probes solve only for the states of the sparse open-boundary
Hamiltonian nearest E = 0, by shift-invert Arnoldi from a fixed start vector:
the hinge report takes eight (it needs |E_5| for the gap ratio) and
summarizes the four lowest by their Gram overlap rank and per-unit-cell
intensity maps; a decay fit takes only the four hinge states and compares
per-cell amplitude ratios against the double-semi-infinite values.  The
Kramers check pairs the full dense spectrum, in real arithmetic when the
matrix is real.  The atomistic probe classifies the exact zero modes of the
decoupled-corner parameter point on the dense matrix.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .classify import DegeneracyReport, classify_point
from .matkit import TolerancePolicy
from .models import (
    CHIRAL_DSM,
    CHIRAL_LIEB,
    ROTATION_C4,
    HingeGeometry,
    HodsmSpec,
    LiebSpec,
    bloch_matrix,
    generalized_reflection,
    hinge_hamiltonian,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ExponentFit",
    "HingeReport",
    "DecayFit",
    "SymmetryCheckResult",
    "lineshape_exponent",
    "splitting_exponent",
    "hinge_report",
    "atomistic_classify",
    "symmetry_check",
    "decay_rate_fit",
    "SYMMETRY_KINDS",
]


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares power-law fit on a log-log window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    mean_slope: float | None = None  # mean-over-directions law, reported not asserted


def _log_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, log y): slope, intercept and R^2."""
    ly = np.log(y)
    slope, intercept = np.polyfit(x, ly, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


# the log-log fit window in |E - E_i|, and its number of sample radii
LINESHAPE_WINDOW = (1e-3, 1e-2)
LINESHAPE_POINTS = 20


def lineshape_exponent(
    h,
    energy: complex,
    policy: TolerancePolicy | None = None,
) -> ExponentFit:
    """Fit log tr(G^dag G) against log |E - E_i| on a ray near the degeneracy.

    The ray leaves the degeneracy at 45 degrees to the direction of the
    nearest other eigenvalue, avoiding accidental pole alignment; the fit
    window ``LINESHAPE_WINDOW`` must stay an order of magnitude inside the
    distance to that pole.  The expected slope is -2 ell.
    """
    policy = policy or TolerancePolicy()
    m = np.asarray(h, dtype=complex)
    energy = complex(energy)
    lo, hi = LINESHAPE_WINDOW

    w = np.linalg.eigvals(m)
    radius = policy.cluster_radius(float(np.linalg.norm(m, 2)))
    others = w[np.abs(w - energy) > radius]
    if others.size:
        nearest = others[np.argmin(np.abs(others - energy))]
        if abs(nearest - energy) < 10 * hi:
            raise ValueError(
                f"window max {hi} collides with eigenvalue at distance "
                f"{abs(nearest - energy):.3e}"
            )
        direction = (nearest - energy) / abs(nearest - energy) * np.exp(1j * math.pi / 4)
    else:
        direction = np.exp(1j * math.pi / 4)

    radii = np.geomspace(lo, hi, LINESHAPE_POINTS)
    # one stacked inversion of every sampled resolvent
    shifts = (energy + radii * direction)[:, None, None] * np.eye(m.shape[0])
    p_vals = np.array([np.linalg.norm(g, "fro") ** 2 for g in np.linalg.inv(shifts - m)])
    slope, intercept, r2 = _log_fit(np.log(radii), p_vals)
    return ExponentFit(
        slope=slope, intercept=intercept, r_squared=r2, window=LINESHAPE_WINDOW
    )


# random perturbation directions per strength, the strength ladder, and the
# seed of the directions (fixed, so a fit repeats bitwise)
SPLITTING_DIRECTIONS = 16
SPLITTING_LADDER = np.geomspace(1e-8, 1e-4, 9)
SPLITTING_SEED = 7


def splitting_exponent(
    h,
    energy: complex,
    policy: TolerancePolicy | None = None,
) -> ExponentFit:
    """Fit the maximal eigenvalue displacement against perturbation strength.

    For each strength of ``SPLITTING_LADDER`` the degenerate multiplet of the
    perturbed matrix is the set of eigenvalues closest to the degeneracy, and
    the displacement is maximized over ``SPLITTING_DIRECTIONS`` random
    unit-Frobenius perturbation directions with independent complex-normal
    entries.  The expected slope is 1 / ell.
    """
    policy = policy or TolerancePolicy()
    m = np.asarray(h, dtype=complex)
    energy = complex(energy)
    ladder = SPLITTING_LADDER
    rng = np.random.default_rng(SPLITTING_SEED)

    w = np.linalg.eigvals(m)
    radius = policy.cluster_radius(float(np.linalg.norm(m, 2)))
    close = np.abs(w - energy) <= radius
    alpha = int(np.count_nonzero(close))
    if alpha == 0:
        raise ValueError(f"E = {energy} is not an eigenvalue within the cluster radius")
    others = w[~close]
    guard = float(np.min(np.abs(others - energy))) if others.size else math.inf

    n = m.shape[0]
    perturbations = []
    for _ in range(SPLITTING_DIRECTIONS):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        perturbations.append(g / np.linalg.norm(g, "fro"))

    # one stacked eigensolve of every perturbed matrix, shape (strengths, directions, n)
    ev = np.linalg.eigvals(m + ladder[:, None, None, None] * np.array(perturbations))
    # per strength and direction, the largest displacement within the multiplet
    per_dir = np.sort(np.abs(ev - energy), axis=-1)[..., :alpha].max(axis=-1)
    disp_max = per_dir.max(axis=1)
    disp_mean = np.array([np.mean(row) for row in per_dir])
    reached = disp_max > 0.5 * guard
    if reached.any():
        raise ValueError(
            f"ladder strength {ladder[reached.argmax()]:.2e} reaches the eigenvalue-collision scale"
        )

    log_ladder = np.log(ladder)
    slope, intercept, r2 = _log_fit(log_ladder, disp_max)
    mean_slope, _, _ = _log_fit(log_ladder, disp_mean)
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        window=(float(ladder[0]), float(ladder[-1])),
        mean_slope=mean_slope,
    )


# ---------------------------------------------------------------------------
# Hinge-state reports

# the hinge quadruplet: one state per corner of the open cross-section
HINGE_STATES = 4


@dataclass(frozen=True)
class HingeReport:
    """Low-energy structure of one open-boundary system.

    Only the eight states nearest E = 0 are computed (shift-invert Arnoldi);
    the full spectrum is not part of the report.
    """

    low_energies: np.ndarray  # the four smallest |E|, in ascending |E|
    gap_ratio: float  # |E_5| / |E_4| in the |E| ordering
    gram: np.ndarray  # 4x4 matrix of |<u_i, u_j>|
    gram_rank: int
    intensity_maps: np.ndarray  # (4, nx, ny), each summing to one


@functools.cache
def _eigs_takes_rng() -> bool:
    """Whether this SciPy's ``eigs`` takes an ``rng`` argument; fixed per process."""
    import scipy.sparse.linalg as spla

    return "rng" in inspect.signature(spla.eigs).parameters


def _low_states(h: sp.csc_matrix, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs of h nearest E = 0, by shift-invert Arnoldi.

    Shift-invert mode as in Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*
    (SIAM 1998).  ARPACK starts from a fixed-seed complex random vector, so
    repeated calls give bitwise-identical results; unlike a constant vector,
    a random one is not orthogonal to any symmetry sector of the hinge states.
    A solve that fails at sigma = 0 (exactly singular) is retried once at
    1e-6 i; a second failure is refused with one line.

    A restart near the float limit draws a fresh vector from this function's
    own seeded generator, passed as ``rng`` where ``eigs`` takes one (older
    SciPy: ARPACK's own fixed seed).
    """
    import scipy.sparse.linalg as spla

    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(h.shape[0]) + 1j * rng.standard_normal(h.shape[0])
    seeded = {"rng": rng} if _eigs_takes_rng() else {}
    for sigma in (0.0, 1e-6 * 1j):
        try:
            return spla.eigs(h, k=k, sigma=sigma, v0=v0, **seeded)
        except RuntimeError as exc:
            failure = exc
    raise ValueError(
        f"the shift-invert eigensolve near E = 0 failed at sigma = 0 and 1e-6i ({failure}); "
        "use smaller model parameters"
    )


# singular-value cutoff (dimensionless overlap scale) deciding how many of the
# four unit-normalized right states are effectively independent; 0.1 separates
# near-parallel from near-orthogonal pairs by an order of magnitude at the
# sizes used here
GRAM_THRESHOLD = 0.1
# largest open system (sites) the hinge report accepts
EIGENSOLVER_CAP = 4096


def hinge_report(spec: HodsmSpec, geom: HingeGeometry) -> HingeReport:
    """Summarize the four lowest states of the open system.

    The eight eigenpairs nearest E = 0 come from shift-invert Arnoldi on the
    sparse Hamiltonian; the full spectrum is never formed.  For the Hermitian
    variant one Rayleigh-Ritz step on the Arnoldi vectors makes degenerate
    (Kramers) states orthonormal.  The Gram rank counts singular values of
    the overlap matrix above ``GRAM_THRESHOLD``.
    """
    n = geom.sites
    if n > EIGENSOLVER_CAP:
        raise ValueError(f"{n} sites exceed the eigensolver cap {EIGENSOLVER_CAP}")
    if n < 10:  # Arnoldi for 8 states needs a dimension above 9
        raise ValueError(f"{n} sites are too few for the eight lowest states; need 3 cells")
    h = hinge_hamiltonian(spec, geom)
    w, u = _low_states(h, 8)
    if spec.variant == 0:
        q, _ = np.linalg.qr(u)
        w, y = np.linalg.eigh(q.conj().T @ (h @ q))
        w, u = w.astype(complex), q @ y
    if not np.isfinite(w).all():
        raise ValueError("the low energies of the open system overflow at these model parameters")

    nq = HINGE_STATES
    order = np.lexsort((w.imag, w.real, np.abs(w)))
    w, u = w[order], u[:, order]
    gap_ratio = float(np.abs(w[nq]) / max(np.abs(w[nq - 1]), 1e-300))

    states = u[:, :nq] / np.linalg.norm(u[:, :nq], axis=0, keepdims=True)
    gram = np.abs(states.conj().T @ states)
    s = np.linalg.svd(gram, compute_uv=False)
    gram_rank = int(np.count_nonzero(s > GRAM_THRESHOLD))

    intensity = np.abs(states) ** 2  # (n, 4)
    maps = intensity.T.reshape(nq, geom.nx, geom.ny, 4).sum(axis=3)
    return HingeReport(
        low_energies=w[:nq],
        gap_ratio=gap_ratio,
        gram=gram,
        gram_rank=gram_rank,
        intensity_maps=maps,
    )


# unit cells per side of the open system the atomistic probe classifies
ATOMISTIC_CELLS = 3


def atomistic_classify(
    spec: HodsmSpec,
    policy: TolerancePolicy | None = None,
) -> DegeneracyReport:
    """Classify the exact zero modes of the decoupled-corner parameter point.

    Requires ``s cos kz = -2 t`` so the reduced intracell Hamiltonian loses
    its Hermitian part; the momentum is chosen as kz = arccos(-2t/s).  The
    open system spans ``ATOMISTIC_CELLS`` unit cells per side and is
    classified at E = 0 through the staircase Weyr oracle (integer-exact
    partial multiplicities).
    """
    policy = policy or TolerancePolicy()
    ratio = -2.0 * spec.t / spec.s
    if abs(ratio) > 1.0:
        raise ValueError(
            f"atomistic limit needs |2t/s| <= 1 so that s cos kz = -2t is solvable; "
            f"got 2t/s = {-ratio}"
        )
    geom = HingeGeometry(ATOMISTIC_CELLS, ATOMISTIC_CELLS, kz=math.acos(ratio))
    h = hinge_hamiltonian(spec, geom).toarray()
    return classify_point(h, 0.0, policy, method="weyr")


# ---------------------------------------------------------------------------
# Symmetry checks

SYMMETRY_KINDS = (
    "chiral",
    "rotation-c4",
    "kramers",
    "sum-rule-ba",
    "sum-rule-cd",
    "reflection",
    "transposition",
)


# seed of the sampled momenta of the Bloch-level kinds (fixed, so a check repeats)
SYMMETRY_SEED = 11


@dataclass(frozen=True)
class SymmetryCheckResult:
    kind: str
    passed: bool
    max_violation: float
    witness: str


def _largest_entry(m: sp.spmatrix) -> tuple[float, tuple[int, int] | None]:
    """The largest |entry| of a sparse matrix and its first position in row-major order."""
    import scipy.sparse as sp

    m = sp.csr_matrix(m)
    m.sum_duplicates()  # canonical: stored entries run in row-major order
    if not m.nnz:
        return 0.0, None
    size = np.abs(m.data)
    i = int(np.argmax(size))
    row = int(np.searchsorted(m.indptr, i, side="right")) - 1
    return float(size[i]), (row, int(m.indices[i]))


def _hermitian_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, in real arithmetic when it is real."""
    return np.linalg.eigvalsh(h if h.imag.any() else h.real)


def symmetry_check(
    spec,
    kind: str,
    geom: HingeGeometry | None = None,
    policy: TolerancePolicy | None = None,
) -> SymmetryCheckResult:
    """Test one defining symmetry identity and report the worst violation.

    Bloch-level kinds (``chiral``, ``rotation-c4``) sample 100 random momenta
    from a fixed seed and compare one stack of Bloch matrices; the
    open-system kinds need a geometry and compare entries of the sparse
    Hamiltonian.  ``kramers`` is a spectral check on the dense matrix: every
    eigenvalue of the open system must appear with even multiplicity within
    the cluster radius.  Identities pass at ``1e-10`` of the natural scale of
    the compared quantity.  The witness locates the worst violation (first
    in row-major or sampling order) and is empty when there is none.
    """
    if kind not in SYMMETRY_KINDS:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    policy = policy or TolerancePolicy()

    if kind in ("chiral", "rotation-c4"):
        if kind == "rotation-c4" and isinstance(spec, LiebSpec):
            raise ValueError("rotation-c4 applies to the semimetal lattice")
        k = np.random.default_rng(SYMMETRY_SEED).uniform(-math.pi, math.pi, size=(100, spec.dims))
        h = bloch_matrix(spec, k.T)
        if kind == "chiral":
            x = CHIRAL_LIEB if spec.dims == 2 else CHIRAL_DSM
            delta, scale = x @ h @ x + h, 1.0 + float(np.max(np.abs(h)))
        else:
            kx, ky, kz = k.T
            delta = ROTATION_C4 @ h @ np.linalg.inv(ROTATION_C4) - bloch_matrix(spec, (ky, -kx, kz))
            scale = 10.0
        per_k = np.max(np.abs(delta), axis=(1, 2))
        at = int(np.argmax(per_k))
        worst = float(per_k[at])
        witness = f"k = ({', '.join(f'{c:.4f}' for c in k[at])})" if worst else ""
        return SymmetryCheckResult(kind, worst <= 1e-10 * scale, worst, witness)

    if geom is None:
        raise ValueError(f"symmetry kind {kind!r} needs an open-system geometry")
    if isinstance(spec, LiebSpec):
        raise ValueError("open-system symmetry checks apply to the semimetal lattice")
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    from scipy.sparse.csgraph import connected_components as sparse_connected_components

    h = hinge_hamiltonian(spec, geom)
    # ||H||_inf, and the square of it that the sum rules compare at, can
    # overflow on finite entries
    sum_rule = kind in ("sum-rule-ba", "sum-rule-cd")
    with np.errstate(over="ignore"):
        norm = spla.norm(h, np.inf)
        bound = np.square(norm) if sum_rule else norm
    if not np.isfinite(bound):
        what = "||H||_inf**2" if sum_rule else "||H||_inf"
        raise ValueError(f"{what} of the open system overflows at these model parameters")
    scale = 1.0 + float(norm)

    if kind == "kramers":
        hd = h.toarray()
        w = _hermitian_eigvals(hd).astype(complex) if spec.variant == 0 else np.linalg.eigvals(hd)
        radius = policy.cluster_radius(scale - 1.0)
        # scipy.spatial adds about 7 MB and 0.1 s to an import; only this check uses it
        from scipy.spatial import cKDTree

        points = np.c_[w.real, w.imag]
        # cKDTree compares squared distances, up to the squared diameter of
        # the points' bounding box, which can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            reach = np.sum(np.square(np.ptp(points, axis=0)))
        if not np.isfinite(reach):
            raise ValueError(
                "the Kramers check's squared eigenvalue distances overflow at these model parameters"
            )
        # single-linkage clusters of the spectrum at the cluster radius
        pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
        links = sp.coo_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(w.size, w.size)
        )
        n_comp, labels = sparse_connected_components(links, directed=False)
        sizes = np.bincount(labels, minlength=n_comp)
        odd = [int(s) for s in sizes if s % 2]
        witness = f"{len(odd)} odd-multiplicity clusters of {n_comp}" if odd else ""
        return SymmetryCheckResult(kind, not odd, float(len(odd)), witness)

    if kind in ("sum-rule-ba", "sum-rule-cd"):
        row, col = (1, 0) if kind == "sum-rule-ba" else (2, 3)
        worst, at = _largest_entry((h @ h)[row::4, col::4])
        witness = f"(H^2) block entry {at}" if worst else ""
        return SymmetryCheckResult(kind, worst <= 1e-10 * scale**2, worst, witness)

    r_op = generalized_reflection(geom)
    moved = h if kind == "reflection" else h.T
    worst, at = _largest_entry(r_op @ moved @ r_op.T - h)
    witness = f"entry {at}" if worst else ""
    return SymmetryCheckResult(kind, worst <= 1e-10 * scale, worst, witness)


# ---------------------------------------------------------------------------
# Decay-rate fits


@dataclass(frozen=True)
class DecayFit:
    """Exponential fit of a hinge-state amplitude profile along one axis."""

    ratio: float  # per-cell amplitude ratio
    r_squared: float
    corner: str
    axis: str
    cells: tuple[int, int]  # fitted cell-index window (distance from corner)


_CORNER_SITE = {"A": 0, "B": 1, "C": 2, "D": 3}


def _corner_cell(geom: HingeGeometry, corner: str) -> tuple[int, int]:
    return {
        "B": (1, 1),
        "D": (geom.nx, 1),
        "C": (1, geom.ny),
        "A": (geom.nx, geom.ny),
    }[corner]


def decay_rate_fit(
    spec: HodsmSpec,
    geom: HingeGeometry,
    corner: str,
    axis: str,
) -> DecayFit:
    """Fit the per-cell amplitude ratio of the hinge state at one corner.

    The state is the one of the four hinge states nearest E = 0 (shift-invert
    Arnoldi) with the largest right-eigenvector weight on the requested
    corner site; its amplitude on the corner's own sublattice is fitted
    exponentially along the requested axis, walking inward from the corner.
    A fitted per-cell ratio of one or more means the amplitude does not decay
    away from the corner, and is refused rather than reported.
    """
    if corner not in _CORNER_SITE:
        raise ValueError("corner must be one of A, B, C, D")
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    length = geom.nx if axis == "x" else geom.ny
    if length < 30:
        raise ValueError(f"need at least 30 cells along the fitted axis, got {length}")

    _, u = _low_states(hinge_hamiltonian(spec, geom), HINGE_STATES)

    site = _CORNER_SITE[corner]
    cx, cy = _corner_cell(geom, corner)
    # the cells along the axis, walking inward from the corner
    line = geom.cells[:, cy - 1] if axis == "x" else geom.cells[cx - 1, :]
    if (cx if axis == "x" else cy) != 1:
        line = line[::-1]
    u = u / np.linalg.norm(u, axis=0, keepdims=True)
    weights = np.abs(u[4 * line[0] + site, :])
    best = int(np.argmax(weights))
    state = u[:, best]
    if weights[best] ** 2 < 1e-3:
        raise ValueError(f"no hinge state localized at corner {corner}")

    # amplitude on the corner's sublattice
    amplitude = state[4 * line + site]
    # hypot rounds as the scalar abs does; numpy's vectorized complex abs does not
    profile = np.hypot(amplitude.real, amplitude.imag)

    # avoid the corner cell itself and the far half where other corners leak in
    start, stop = 2, max(6, length // 2 - 2)
    window = profile[start:stop]
    if np.any(window <= 0):
        raise ValueError("amplitude profile vanished inside the fit window")
    slope, _, r2 = _log_fit(np.arange(start, stop, dtype=float), window)
    ratio = float(np.exp(slope))
    if ratio >= 1.0:
        raise ValueError(
            f"amplitude does not decay away from corner {corner} along {axis}: "
            f"per-cell ratio {ratio:.4g}"
        )
    return DecayFit(
        ratio=ratio,
        r_squared=r2,
        corner=corner,
        axis=axis,
        cells=(start, stop),
    )
