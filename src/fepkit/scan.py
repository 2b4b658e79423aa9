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
from .matkit import TolerancePolicy
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
    norms = np.linalg.svd(h.reshape(-1, *h.shape[-2:]), compute_uv=False)[:, 0]
    return 1.0 + float(norms.max())


def _pauli_det(qc, rc):
    """det Q * det R from the Pauli coefficients of the two blocks."""
    det_q = qc[0] ** 2 - qc[1] ** 2 - qc[2] ** 2 - qc[3] ** 2
    det_r = rc[0] ** 2 - rc[1] ** 2 - rc[2] ** 2 - rc[3] ** 2
    return det_q * det_r


def _detector_complex(model, k):
    """The complex detector at momenta k = (kx, ky[, kz], ...), broadcast like the symbols."""
    if isinstance(model, LiebSpec):
        p, q, r, s = lieb_pqrs(model, k)
        return p * q + r * s
    return _pauli_det(*hodsm_pauli_coeffs(model, k))


def _detector_degree(model) -> int:
    return 2 if isinstance(model, LiebSpec) else 4


def min_abs_energy(model, k):
    """Smallest |E| over the dispersive bands (flat-band zeros excluded).

    Closed form from the model symbols.  Lieb: sqrt|PQ + RS|.  Semimetal:
    E**2 runs over the eigenvalues a +- sqrt(b.b) of QR = a + b.sigma, and
    the smaller one is det(QR) / lambda_big with lambda_big the larger.  b.b
    is summed from b itself: as a**2 - det(QR) it would cancel wherever the
    two values of E**2 nearly coincide.

    A float for one momentum, an array of the trailing shape for stacked momenta.
    """
    k = np.asarray(k, dtype=float)
    one = k.ndim == 1
    if one:
        # one point runs as a one-element stack: scalar and array arithmetic
        # may round differently, and the two must agree bit for bit
        k = k[:, None]
    if isinstance(model, LiebSpec):
        e = np.sqrt(np.abs(_detector_complex(model, k)))
    else:
        q, r = hodsm_pauli_coeffs(model, k)
        a = q[0] * r[0] + q[1] * r[1] + q[2] * r[2] + q[3] * r[3]
        b1 = q[0] * r[1] + r[0] * q[1] + 1j * (q[2] * r[3] - q[3] * r[2])
        b2 = q[0] * r[2] + r[0] * q[2] + 1j * (q[3] * r[1] - q[1] * r[3])
        b3 = q[0] * r[3] + r[0] * q[3] + 1j * (q[1] * r[2] - q[2] * r[1])
        root = np.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
        big = np.maximum(np.abs(a + root), np.abs(a - root))
        small = np.zeros_like(big)
        np.divide(np.abs(_pauli_det(q, r)), big, out=small, where=big > 0)
        e = np.sqrt(small)
    return float(e[0]) if one else e


def refine_degeneracy(model, k0, scale: float) -> tuple[float, ...] | None:
    """Damped Gauss-Newton descent of the detector from the starting momentum.

    The complex detector gives two real residuals; in three dimensions the
    system is underdetermined and the minimum-norm step is taken, which
    converges to the nearest point of the degeneracy manifold.  Convergence
    means the normalized detector falls below 1e-12, and returns the refined
    momentum in the principal zone; otherwise ``None`` is returned after at
    most 100 iterations.  ``scale`` is the model scale, which ``bz_scan``
    computes once per scan.
    """
    norm_pow = scale ** _detector_degree(model)
    k = np.asarray([float(c) for c in k0], dtype=float)
    dims = k.size

    def residual(kk) -> np.ndarray:
        g = _detector_complex(model, kk)
        return np.array([g.real, g.imag]) / norm_pow

    r = residual(k[:, None])[:, 0]
    step_h = 1e-6
    stencil = step_h * np.hstack([np.eye(dims), -np.eye(dims)])
    for _ in range(REFINE_MAX_ITER):
        if np.linalg.norm(r) <= REFINE_TOL:
            break
        g = residual(k[:, None] + stencil)
        jac = (g[:, :dims] - g[:, dims:]) / (2 * step_h)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        damp = 1.0
        for _ in range(30):
            k_new = k + damp * step
            r_new = residual(k_new[:, None])[:, 0]
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                k, r = k_new, r_new
                break
            damp /= 2
        else:
            break

    return canonical_k(k) if np.linalg.norm(r) <= REFINE_TOL else None


def _periodic_distance(a, b) -> float:
    return math.sqrt(
        sum((math.pi - abs(abs(x - y) % (2 * math.pi) - math.pi)) ** 2 for x, y in zip(a, b))
    )


def bz_scan(
    model, resolution: int = 128, policy: TolerancePolicy | None = None
) -> list[DegeneracyReport]:
    """Grid-scan the zone for E = 0 degeneracies, refine and classify them.

    The grid has ``resolution`` points per axis of the model's zone, half-open
    on [-pi, pi) so that no point is sampled twice across the wrap.  Every
    local minimum is refined; converged momenta are deduplicated within one
    grid-cell diagonal (periodic metric, first come kept).  One report per
    kept momentum is returned, sorted lexicographically by its ``k_point``.
    """
    if resolution < 8:
        raise ValueError("need a resolution of at least 8 per axis")
    dims = model.dims
    scale = _model_scale(model)

    axes = [np.linspace(-math.pi, math.pi, resolution, endpoint=False)] * dims
    # each symbol is evaluated on the axes it reads; the detector spans the grid
    vals = np.abs(_detector_complex(model, np.meshgrid(*axes, indexing="ij", sparse=True)))
    is_min = np.ones(vals.shape, dtype=bool)
    for axis in range(dims):
        for shift in (1, -1):
            is_min &= vals <= np.roll(vals, shift, axis=axis)
    seeds = np.argwhere(is_min)
    if len(seeds) > 5000:
        order = np.argsort(vals[is_min])[:5000]
        seeds = seeds[order]

    kept: list[tuple[float, ...]] = []
    radius = math.sqrt(dims * (2 * math.pi / resolution) ** 2)
    for idx in seeds:
        k = refine_degeneracy(model, tuple(axes[d][idx[d]] for d in range(dims)), scale)
        if k is not None and not any(_periodic_distance(k, other) < radius for other in kept):
            kept.append(k)
    return [classify_point(bloch_matrix(model, k), 0.0, policy, k_point=k) for k in sorted(kept)]


def _expected_from_case(model: LiebSpec, k) -> ExpectedDegeneracy:
    case, degen = lieb_case(*lieb_pqrs(model, k))
    if not degen:
        raise ValueError(f"momentum {k} is not on the degeneracy set")
    partials = {"CASE1": (3,), "CASE2": (2, 1), "CASE3": (1, 1, 1)}[case]
    return ExpectedDegeneracy(k=canonical_k(k), partials=partials)


def analytic_degeneracies(model) -> list[ExpectedDegeneracy]:
    """The closed-form degeneracy catalog of the named model variants.

    For the reciprocal Lieb model with equal angles only the two isolated
    FEPs are listed; the rest of the exceptional ring/lines is a continuum
    handled by ``trace_ring``.
    """
    if isinstance(model, LiebSpec):
        if model.variant == "hermitian":
            return [ExpectedDegeneracy(k=(math.pi, math.pi), partials=(1, 1, 1))]
        if model.variant == "nh-symmetric":
            eps = model.epsilon
            if not 0 < abs(eps) < 2:
                raise ValueError("nh-symmetric catalog needs 0 < |eps| < 2")
            k0 = math.acos(eps**2 / 2 - 1)
            return [
                _expected_from_case(model, (mu * k0, nu * k0))
                for mu in (1, -1)
                for nu in (1, -1)
            ]
        if model.variant == "minimal-fep":
            eps = model.epsilon
            if eps == 0:
                raise ValueError("minimal-fep catalog needs eps != 0")
            kappa = 2 * arccot(eps / 2)
            return [
                _expected_from_case(model, (math.pi, math.pi)),
                _expected_from_case(model, (kappa, -kappa)),
            ]
        phi, psi = model.phi, model.psi  # the reciprocal variant
        if math.isclose(math.sin(phi), 0.0, abs_tol=1e-12) or math.isclose(
            math.sin(psi), 0.0, abs_tol=1e-12
        ):
            raise ValueError("reciprocal catalog needs phi, psi != 0 (mod pi)")
        if math.isclose(
            math.cos(phi - psi), 1.0, abs_tol=1e-12
        ):  # phi == psi (mod 2 pi): ring or lines, isolated FEPs only
            return [
                _expected_from_case(model, (phi, phi)),
                _expected_from_case(model, (-phi, -phi)),
            ]
        return [
            _expected_from_case(model, (sx * psi, sy * phi))
            for sx in (1, -1)
            for sy in (1, -1)
        ]

    spec: HodsmSpec = model
    eps = spec.epsilon
    out: list[ExpectedDegeneracy] = []

    def on_axis(kz: float, partials) -> ExpectedDegeneracy:
        return ExpectedDegeneracy(k=canonical_k((0.0, 0.0, kz)), partials=partials)

    if spec.variant == 0:
        for base, shift in ((-2 - 2 * spec.t / spec.s, 0.0), (2 - 2 * spec.t / spec.s, math.pi)):
            if abs(base) <= 1:
                kz = math.acos(base)
                for sgn in (1, -1):
                    out.append(
                        ExpectedDegeneracy(
                            k=canonical_k((shift, shift, sgn * kz)), partials=(1, 1, 1, 1)
                        )
                    )
        return out

    if not (spec.s == 1.0 and spec.t == -1.0):
        raise ValueError("non-Hermitian catalog assumes the s = -t = 1 normalization")
    if eps == 0:
        raise ValueError("non-Hermitian catalog needs eps != 0")

    if spec.variant == 1:
        out += [on_axis(sgn * math.pi / 2, (1, 1)) for sgn in (1, -1)]
        if abs(eps) < 1:
            for c in (abs(eps), -abs(eps)):
                kz = math.acos(c)
                out += [on_axis(sgn * kz, (4,)) for sgn in (1, -1)]
    elif spec.variant == 2:
        out += [on_axis(sgn * math.pi / 2, (3, 1)) for sgn in (1, -1)]
        if abs(eps) < 1:
            kz = math.acos(-eps)
            out += [on_axis(sgn * kz, (3, 1)) for sgn in (1, -1)]
    elif spec.variant == 3:
        out += [on_axis(sgn * math.pi / 2, (2, 2)) for sgn in (1, -1)]
        if abs(eps) * math.sqrt(2) < 1:
            for c in (math.sqrt(2) * eps, -math.sqrt(2) * eps):
                kz = math.acos(c)
                out += [on_axis(sgn * kz, (2,)) for sgn in (1, -1)]
    else:
        out += [on_axis(sgn * math.pi / 2, (2, 1, 1)) for sgn in (1, -1)]
        if abs(2 * eps) < 1:
            kz = math.acos(-2 * eps)
            out += [on_axis(sgn * kz, (2,)) for sgn in (1, -1)]

    dedup: list[ExpectedDegeneracy] = []
    for e in out:
        if not any(_periodic_distance(e.k, d.k) < 1e-9 for d in dedup):
            dedup.append(e)
    dedup.sort(key=lambda e: e.k)
    return dedup


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
    Each report carries its sample momentum as ``k_point``.
    """
    policy = policy or TolerancePolicy()
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

    out: list[DegeneracyReport] = []
    for kx in ladder:
        cy = min(1.0, max(-1.0, 2 * c - math.cos(kx)))
        ky = math.acos(cy)
        for branch in (ky, -ky):
            k = (float(kx), float(branch))
            out.append(classify_point(bloch_matrix(model, k), 0.0, policy, k_point=k))
            if len(out) == samples:
                return out
    return out
