"""Locating, refining, and tracing zero-energy degeneracy manifolds.

Chirality pins every studied degeneracy to E = 0, but the Lieb flat band
makes the smallest singular value of H(k) vanish identically, so the
detector used here is the magnitude of the lowest characteristic-polynomial
coefficient that is not structurally zero:

* Lieb (N = 3, odd chirality):  |c_1| = |PQ + RS|
* semimetal (N = 4):            |c_0| = |det Q| |det R|

Both are smooth functions of k whose zero set is exactly the set of
E = 0 degeneracies of raised multiplicity, and both are cheap closed forms.

The smallest dispersive |E| is read from the same symbols, without an
eigensolve: E**2 = PQ + RS on the Lieb chain, and E**2 = eig(QR), a 2x2
problem in Pauli form, on the semimetal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import DegeneracyReport, classify_point, degeneracy_label
from .matkit import TolerancePolicy, spectral_norm
from .models import (
    HodsmSpec,
    LiebSpec,
    arccot,
    bloch_matrix,
    hodsm_pauli_coeffs,
    lieb_case,
    lieb_pqrs,
)

__all__ = [
    "ExpectedDegeneracy",
    "bz_scan",
    "refine_degeneracy",
    "analytic_degeneracies",
    "trace_ring",
    "min_abs_energy",
    "canonical_k",
]

REFINE_TOL = 1e-12  # on the normalized detector
REFINE_MAX_ITER = 100


@dataclass(frozen=True)
class ExpectedDegeneracy:
    """Closed-form degeneracy location with the expected fingerprint attached."""

    k: tuple[float, ...]
    partials: tuple[int, ...]

    @property
    def alpha(self) -> int:
        return sum(self.partials)

    @property
    def gamma(self) -> int:
        return len(self.partials)

    @property
    def label(self) -> str:
        return degeneracy_label(self.alpha, self.gamma)


def canonical_k(k) -> tuple[float, ...]:
    """Map momentum components into the principal zone (-pi, pi]."""
    return tuple(math.pi - ((math.pi - float(c)) % (2 * math.pi)) for c in k)


def _model_scale(model) -> float:
    pts = np.linspace(-math.pi, math.pi, 7, endpoint=False)
    h = bloch_matrix(model, np.meshgrid(*(pts,) * model.dims, indexing="ij", sparse=True))
    return 1.0 + float(spectral_norm(h.reshape(-1, *h.shape[-2:])).max())


def _pauli_det(qc, rc):
    """det Q * det R from the Pauli coefficients of the two blocks."""
    # the first difference reads kx, ky and kz, so it spans the momenta and takes
    # the other squares in place; an in-place complex multiply may round otherwise
    det_q = qc[0] ** 2 - qc[1] ** 2
    det_q -= qc[2] ** 2
    det_q -= qc[3] ** 2
    det_r = rc[0] ** 2 - rc[1] ** 2
    det_r -= rc[2] ** 2
    det_r -= rc[3] ** 2
    return det_q * det_r


def _detector_complex(model, k):
    """The complex detector at momenta k = (kx, ky[, kz], ...), broadcast like the symbols."""
    if isinstance(model, LiebSpec):
        p, q, r, s = lieb_pqrs(model, k)
        return p * q + r * s
    return _pauli_det(*hodsm_pauli_coeffs(model, k))


def _detector_degree(model) -> int:
    return 2 if isinstance(model, LiebSpec) else 4


def min_abs_energy(model, k) -> np.ndarray:
    """Smallest |E| over the dispersive bands (flat-band zeros excluded).

    Closed form from the model symbols.  Lieb: sqrt|PQ + RS|.  Semimetal:
    E**2 runs over the eigenvalues a +- sqrt(b.b) of QR = a + b.sigma, and
    the smaller one is det(QR) / lambda_big with lambda_big the larger.  b.b
    is summed from b itself: as a**2 - det(QR) it would cancel wherever the
    two values of E**2 nearly coincide.

    ``k`` holds momenta of shape (dims, ...), and the energies come back in
    the trailing shape.  A bare point, shape (dims,), is refused: its scalar
    arithmetic may round differently from a stack's, so one momentum is
    passed as a stack of one, shape (dims, 1).

    Parameters whose symbols overflow make |PQ + RS|, or lambda_big and
    |det(QR)|, not finite; that is refused with a ValueError, never
    returned as an energy of 0 or infinity.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim < 2:
        raise ValueError(f"min_abs_energy takes momenta of shape (dims, ...), got shape {k.shape}")
    # an overflow is refused below, once, rather than warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(model, LiebSpec):
            square = np.abs(_detector_complex(model, k))
            finite = np.isfinite(square)
        else:
            q, r = hodsm_pauli_coeffs(model, k)
            a = q[0] * r[0] + q[1] * r[1] + q[2] * r[2] + q[3] * r[3]
            b1 = q[0] * r[1] + r[0] * q[1] + 1j * (q[2] * r[3] - q[3] * r[2])
            b2 = q[0] * r[2] + r[0] * q[2] + 1j * (q[3] * r[1] - q[1] * r[3])
            b3 = q[0] * r[3] + r[0] * q[3] + 1j * (q[1] * r[2] - q[2] * r[1])
            root = np.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
            big = np.maximum(np.abs(a + root), np.abs(a - root))
            det = np.abs(_pauli_det(q, r))
            finite = np.isfinite(big) & np.isfinite(det)
            square = np.zeros_like(big)
            np.divide(det, big, out=square, where=big > 0)
    if not finite.all():
        raise ValueError(
            "min |E| overflows at these model parameters: its closed form is not finite"
        )
    return np.sqrt(square)


def _min_norm_steps(jac, rhs) -> np.ndarray:
    """The (S, n) minimum-norm least-squares solutions of ``jac[i] @ x = rhs[i]``.

    One stacked SVD of the (S, m, n) matrices keeps the singular values above
    ``eps * max(m, n) * sigma_1``, the rank rule of ``np.linalg.lstsq`` at
    ``rcond=None``; each row is computed as it would be alone.
    """
    u, sigma, vh = np.linalg.svd(jac, full_matrices=False)
    kept = sigma > np.finfo(float).eps * max(jac.shape[-2:]) * sigma[:, :1]
    coef = np.einsum("sij,si->sj", u, rhs)
    coef = np.divide(coef, sigma, out=np.zeros_like(coef), where=kept)
    return np.einsum("sj,sjn->sn", coef, vh)


def refine_degeneracy(model, k0, scale: float) -> list[tuple[float, ...] | None]:
    """Damped Gauss-Newton descent of the detector from the starting momenta.

    The complex detector gives two real residuals; in three dimensions the
    system is underdetermined and the minimum-norm step is taken, which
    converges to the nearest point of the degeneracy manifold.  Convergence
    means the normalized detector falls below 1e-12, and returns the refined
    momentum in the principal zone; otherwise ``None`` is returned after at
    most 100 iterations.  ``scale`` is the model scale, which ``bz_scan``
    computes once per scan; a scale whose ``scale**degree`` normalisation
    overflows is refused with a ValueError.

    ``k0`` is an (S, dims) stack of seeds, for which a list of S results is
    returned; a bare point, shape (dims,), is refused, since its scalar
    arithmetic may round differently from a stack's.  The seeds refine in
    lockstep: each Gauss-Newton round takes one detector call on the
    stencils of every seed still iterating, and each halving of the line
    search one call on the trials of every seed still searching.  Each
    round takes all the steps from one stacked SVD at ``np.linalg.lstsq``'s
    rank rule, and the step, norm and line-search bookkeeping runs on index
    arrays.  Every operation works row by row, so each seed's trajectory is
    bitwise the one it has alone.
    """
    degree = _detector_degree(model)
    try:
        norm_pow = scale**degree
    except OverflowError:
        norm_pow = math.inf
    if not math.isfinite(norm_pow):
        raise ValueError(
            f"the detector overflows at model scale {scale:.3e}: refinement "
            f"divides it by scale**{degree}, which is not finite"
        )
    k = np.array(k0, dtype=float)
    if k.ndim != 2:
        raise ValueError(f"refine_degeneracy takes seeds of shape (S, dims), got shape {k.shape}")
    dims = k.shape[1]

    def residual(kk) -> np.ndarray:
        """The rows [Re, Im] / scale**degree at each row of the momenta kk."""
        g = _detector_complex(model, np.array(kk.T, order="C"))
        return np.ascontiguousarray(np.array([g.real, g.imag]).T) / norm_pow

    r = residual(k)
    r_norm = np.sqrt(np.vecdot(r, r))  # per row, bitwise np.linalg.norm of the row
    step_h = 1e-6
    stencil = step_h * np.vstack([np.eye(dims), -np.eye(dims)])
    active = np.flatnonzero(r_norm > REFINE_TOL)
    for _ in range(REFINE_MAX_ITER):
        if not active.size:
            break
        g = residual((k[active][:, None, :] + stencil).reshape(-1, dims)).reshape(-1, 2 * dims, 2)
        jac = (g[:, :dims] - g[:, dims:]).transpose(0, 2, 1) / (2 * step_h)
        steps = _min_norm_steps(jac, -r[active])
        # a seed whose step is not finite stops
        finite = np.isfinite(steps).all(axis=1)
        stepped, steps = active[finite], steps[finite]
        searching = stepped
        damp = 1.0
        for _ in range(30):
            if not searching.size:
                break
            trials = k[searching] + damp * steps
            r_new = residual(trials)
            new_norm = np.sqrt(np.vecdot(r_new, r_new))
            better = new_norm < r_norm[searching]
            won = searching[better]
            k[won], r[won], r_norm[won] = trials[better], r_new[better], new_norm[better]
            searching, steps = searching[~better], steps[~better]
            damp /= 2
        # a seed whose line search fails stops too
        active = stepped[~np.isin(stepped, searching) & (r_norm[stepped] > REFINE_TOL)]

    return [canonical_k(ki) if ni <= REFINE_TOL else None for ki, ni in zip(k, r_norm)]


def _periodic_distance(a, b) -> float:
    return math.sqrt(
        sum((math.pi - abs(abs(x - y) % (2 * math.pi) - math.pi)) ** 2 for x, y in zip(a, b))
    )


def _first_come(points, radius: float) -> list[int]:
    """Indices of the points kept by first-come dedup, in order.

    A point is dropped when it lies within ``radius`` of a point kept before
    it, in the periodic metric of the zone.
    """
    kept: list[int] = []
    for i, k in enumerate(points):
        if not any(_periodic_distance(k, points[j]) < radius for j in kept):
            kept.append(i)
    return kept


def bz_scan(
    model, resolution: int = 128, policy: TolerancePolicy | None = None
) -> list[DegeneracyReport]:
    """Grid-scan the zone for E = 0 degeneracies, refine and classify them.

    The grid has ``resolution`` points per axis of the model's zone, half-open
    on [-pi, pi) so that no point is sampled twice across the wrap.  Every
    local minimum (at most each neighbour, the zone wrapping) is refined,
    all of them in one lockstep ``refine_degeneracy`` call, which takes one
    stacked SVD step per round; converged momenta are deduplicated within one
    grid-cell diagonal by ``_first_come`` (periodic metric, first come kept),
    the dedup that ``analytic_degeneracies`` also uses.  One report per kept
    momentum is returned, sorted lexicographically by its ``k_point``.  The
    kept momenta are built and classified as one stack (``classify_point``),
    so a point that fails to classify raises the error of the first such
    point.  A model whose scale overflows the detector
    (the detector on the grid, or the normalisation ``refine_degeneracy``
    divides it by, is not finite) is refused with a ValueError.
    """
    if resolution < 8:
        raise ValueError("need a resolution of at least 8 per axis")
    dims = model.dims
    scale = _model_scale(model)

    axes = [np.linspace(-math.pi, math.pi, resolution, endpoint=False)] * dims
    # each symbol is evaluated on the axes it reads; the detector spans the grid
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(_detector_complex(model, np.meshgrid(*axes, indexing="ij", sparse=True)))
    if not np.isfinite(vals).all():
        raise ValueError(
            f"the detector overflows at model scale {scale:.3e}: a scan needs "
            "the detector on the grid to be finite"
        )
    # each axis compares its interior slices, then its last and first planes
    is_min = np.ones(vals.shape, dtype=bool)
    for axis in range(dims):
        lead = (slice(None),) * axis
        for here, there in ((slice(1, None), slice(None, -1)), (slice(0, 1), slice(-1, None))):
            a, b = lead + (here,), lead + (there,)
            is_min[a] &= vals[a] <= vals[b]
            is_min[b] &= vals[b] <= vals[a]
    seeds = np.argwhere(is_min)
    if len(seeds) > 5000:
        order = np.argsort(vals[is_min])[:5000]
        seeds = seeds[order]

    radius = math.sqrt(dims * (2 * math.pi / resolution) ** 2)
    starts = np.stack([axes[d][seeds[:, d]] for d in range(dims)], axis=1)
    converged = [k for k in refine_degeneracy(model, starts, scale) if k is not None]
    kept = sorted(converged[i] for i in _first_come(converged, radius))
    if not kept:
        return []
    return classify_point(bloch_matrix(model, np.transpose(kept)), 0.0, policy, k_point=kept)


def _expected_from_case(model: LiebSpec, k) -> ExpectedDegeneracy:
    case, degen = lieb_case(*lieb_pqrs(model, k))
    if not degen:
        raise ValueError(f"momentum {k} is not on the degeneracy set")
    partials = {"CASE1": (3,), "CASE2": (2, 1), "CASE3": (1, 1, 1)}[case]
    return ExpectedDegeneracy(k=canonical_k(k), partials=partials)


def _lieb_entries(model: LiebSpec) -> list[ExpectedDegeneracy]:
    if model.variant == "hermitian":
        ks = [(math.pi, math.pi)]
    elif model.variant == "nh-symmetric":
        eps = model.epsilon
        if not 0 < abs(eps) < 2:
            raise ValueError("nh-symmetric catalog needs 0 < |eps| < 2")
        k0 = math.acos(eps**2 / 2 - 1)
        ks = [(mu * k0, nu * k0) for mu in (1, -1) for nu in (1, -1)]
    elif model.variant == "minimal-fep":
        eps = model.epsilon
        if eps == 0:
            raise ValueError("minimal-fep catalog needs eps != 0")
        kappa = 2 * arccot(eps / 2)
        ks = [(math.pi, math.pi), (kappa, -kappa)]
    else:  # the reciprocal variant
        phi, psi = model.phi, model.psi
        if math.isclose(math.sin(phi), 0.0, abs_tol=1e-12) or math.isclose(
            math.sin(psi), 0.0, abs_tol=1e-12
        ):
            raise ValueError("reciprocal catalog needs phi, psi != 0 (mod pi)")
        if math.isclose(math.cos(phi - psi), 1.0, abs_tol=1e-12):
            # phi == psi (mod 2 pi): ring or lines, isolated FEPs only
            ks = [(phi, phi), (-phi, -phi)]
        else:
            ks = [(sx * psi, sy * phi) for sx in (1, -1) for sy in (1, -1)]
    return [_expected_from_case(model, k) for k in ks]


# per non-Hermitian semimetal variant: the partials at kz = +-pi/2, the
# cos kz of the other pairs as a function of eps, and those pairs' partials
_SEMIMETAL_PAIRS = {
    1: ((1, 1), lambda eps: (abs(eps), -abs(eps)), (4,)),
    2: ((3, 1), lambda eps: (-eps,), (3, 1)),
    3: ((2, 2), lambda eps: (math.sqrt(2) * eps, -math.sqrt(2) * eps), (2,)),
    4: ((2, 1, 1), lambda eps: (-2 * eps,), (2,)),
}


def _semimetal_entries(spec: HodsmSpec) -> list[ExpectedDegeneracy]:
    if spec.variant == 0:
        # the Dirac pairs on the kx = ky = 0 and kx = ky = pi axes
        axes = ((0.0, -2 - 2 * spec.t / spec.s), (math.pi, 2 - 2 * spec.t / spec.s))
        pairs = [(shift, math.acos(c), (1, 1, 1, 1)) for shift, c in axes if abs(c) <= 1]
    else:
        if not (spec.s == 1.0 and spec.t == -1.0):
            raise ValueError("non-Hermitian catalog assumes the s = -t = 1 normalization")
        if spec.epsilon == 0:
            raise ValueError("non-Hermitian catalog needs eps != 0")
        at_half, cosines, partials = _SEMIMETAL_PAIRS[spec.variant]
        pairs = [(0.0, math.pi / 2, at_half)]
        pairs += [(0.0, math.acos(c), partials) for c in cosines(spec.epsilon) if abs(c) < 1]
    return [
        ExpectedDegeneracy(k=canonical_k((shift, shift, sgn * kz)), partials=p)
        for shift, kz, p in pairs
        for sgn in (1, -1)
    ]


def analytic_degeneracies(model) -> list[ExpectedDegeneracy]:
    """The closed-form degeneracy catalog of the named model variants.

    Each family lists its entries, and every family's list then passes
    through one dedup, ``_first_come`` at a periodic distance of 1e-9 (where
    two closed-form points coincide, the first listed is kept), and one
    sort by momentum.  For the reciprocal Lieb model with equal angles only
    the two isolated FEPs are listed; the rest of the exceptional ring/lines
    is a continuum handled by ``trace_ring``.
    """
    family = _lieb_entries if isinstance(model, LiebSpec) else _semimetal_entries
    entries = family(model)
    kept = [entries[i] for i in _first_come([e.k for e in entries], 1e-9)]
    return sorted(kept, key=lambda e: e.k)


def trace_ring(
    model: LiebSpec,
    samples: int,
    policy: TolerancePolicy | None = None,
) -> list[DegeneracyReport]:
    """Classify uniformly spread samples of the exceptional ring (or lines).

    The manifold cos kx + cos ky = 2 cos(phi) of the equal-angle reciprocal
    model is parameterized by a uniform kx ladder with both ky branches; the
    ladder points nearest to the two analytic FEP momenta are snapped onto
    them exactly, so those special points are always among the samples.
    Each report carries its sample momentum as ``k_point``.  The samples are
    built and classified as one stack (``classify_point``), so a sample that
    fails to classify raises the error of the first such sample.
    """
    if model.variant != "reciprocal":
        raise ValueError("trace_ring needs the reciprocal variant")
    if not math.isclose(math.cos(model.phi - model.psi), 1.0, abs_tol=1e-12):
        raise ValueError("trace_ring needs the phi == psi configuration")
    if samples < 8:
        raise ValueError("need at least 8 samples")
    c = math.cos(model.phi)

    # valid kx domain: |2c - cos kx| <= 1.  For c >= 0 it is one interval
    # through kx = 0; for c < 0 it wraps through kx = pi; at c = 0 both
    # bounds are trivial and the domain is the full circle.
    m = (samples + 1) // 2  # two branch samples per ladder point
    lo, hi = max(-1.0, 2 * c - 1), min(1.0, 2 * c + 1)
    if lo <= -1.0 and hi >= 1.0:
        ladder = np.linspace(-math.pi, math.pi, m, endpoint=False)
    elif hi >= 1.0:
        kmax = math.acos(lo)
        ladder = -kmax + (np.arange(m) + 0.5) * (2 * kmax / m)
    else:
        kmin = math.acos(hi)
        width = math.pi - kmin
        ladder = kmin + (np.arange(m) + 0.5) * (2 * width / m)
        ladder = np.where(ladder > math.pi, ladder - 2 * math.pi, ladder)

    ladder = ladder.copy()
    phi_c = canonical_k((model.phi,))[0]
    snapped: list[int] = []
    for special in (phi_c, -phi_c):
        dist = np.abs(ladder - special)
        dist[snapped] = np.inf
        j = int(np.argmin(dist))
        ladder[j] = special
        snapped.append(j)

    ks: list[tuple[float, float]] = []
    for kx in ladder:
        ky = math.acos(min(1.0, max(-1.0, 2 * c - math.cos(kx))))
        ks += [(float(kx), float(ky)), (float(kx), float(-ky))]
    ks = ks[:samples]
    return classify_point(bloch_matrix(model, np.transpose(ks)), 0.0, policy, k_point=ks)
