"""Dense complex linear algebra: input validation, tolerance-aware rank and norm.

All matrices are plain ``numpy.ndarray`` of dtype complex128.  Energies are
dimensionless model units (lattice constant and base coupling set to one).
Every function here is pure; nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TolerancePolicy",
    "as_square_matrix",
    "numerical_rank",
    "spectral_norm",
]


def as_square_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square, finite complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


@dataclass(frozen=True)
class TolerancePolicy:
    """Floating-point realization of conditions that are exact in theory.

    rank_rel
        Relative singular-value cutoff for rank decisions.
    rank_abs
        Absolute singular-value floor.  ``None`` means the per-matrix
        default ``1e-12 * ||A||_F``.
    ck_rel
        Relative threshold for trace/coefficient and mode vanishing tests;
        scaled by ``ModeSequence.mode_scale`` / ``coeff_scale`` to the
        tested degree, since the tested quantities are polynomials of known
        degree in the matrix entries (both scales are calibrated from the
        computed sequence and floored at one).
    cluster_tol
        Eigenvalue clustering radius in units of ``1 + ||H||_2``.  It sets
        the scan's energy cut, the degenerate cluster of the exponent probes
        and the Kramers check's pairs; ``classify_point`` does not use it.
    """

    rank_rel: float = 1e-8
    rank_abs: float | None = None
    ck_rel: float = 1e-9
    cluster_tol: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError("rank_rel must lie in (0, 1)")
        if self.rank_abs is not None and self.rank_abs <= 0.0:
            raise ValueError("rank_abs must be positive when set")
        if self.ck_rel <= 0.0 or self.cluster_tol <= 0.0:
            raise ValueError("ck_rel and cluster_tol must be positive")

    def rank_floor(self, a: np.ndarray) -> float:
        if self.rank_abs is not None:
            return self.rank_abs
        return 1e-12 * float(np.linalg.norm(a, "fro"))

    def cluster_radius(self, norm: float) -> float:
        return self.cluster_tol * (1.0 + norm)


def numerical_rank(a, policy: TolerancePolicy | None = None) -> int:
    """Number of singular values above ``max(rank_rel * s_max, rank_abs)``."""
    m = as_square_matrix(a)
    policy = policy or TolerancePolicy()
    s = np.linalg.svd(m, compute_uv=False)
    cutoff = max(policy.rank_rel * (s[0] if s.size else 0.0), policy.rank_floor(m))
    return int(np.count_nonzero(s > cutoff))


def spectral_norm(a) -> float:
    """Largest singular value; zero iff the matrix is zero."""
    m = as_square_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])

