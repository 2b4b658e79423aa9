"""Dense complex linear algebra: input validation, tolerance-aware rank and norm.

All matrices are plain ``numpy.ndarray`` of dtype complex128.  Energies are
dimensionless model units (lattice constant and base coupling set to one).
Every function here is pure; nothing is mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CK_REL",
    "TolerancePolicy",
    "as_square_matrix",
    "numerical_rank",
    "singular_values",
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


# relative threshold of the trace/coefficient and mode vanishing tests; it is
# scaled by ``ModeSequence.mode_scale`` / ``coeff_scale`` to the tested degree
CK_REL = 1e-9


@dataclass(frozen=True)
class TolerancePolicy:
    """Floating-point realization of conditions that are exact in theory.

    rank_rel
        Relative singular-value cutoff for rank decisions.  Every rank
        decision, on both classification routes, counts the singular values
        above ``rank_cutoff``.
    cluster_tol
        Eigenvalue clustering radius in units of ``1 + ||H||_2``.  It sets
        the degenerate cluster of the exponent probes and the Kramers
        check's pairs; ``classify_point`` and ``bz_scan`` do not use it.

    The vanishing tests use the fixed threshold ``CK_REL``.
    """

    rank_rel: float = 1e-8
    cluster_tol: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError("rank_rel must lie in (0, 1)")
        if not (0.0 < self.cluster_tol < np.inf):
            raise ValueError(f"cluster_tol must be positive and finite, got {self.cluster_tol}")

    def rank_cutoff(self, s_max: float, scale: float) -> float:
        """Singular values at or below ``max(rank_rel * s_max, 1e-12 * scale)`` are zero."""
        return max(self.rank_rel * s_max, 1e-12 * scale)

    def rank(self, s: np.ndarray, scale: float) -> int:
        """Number of the singular values ``s`` (descending) above ``rank_cutoff(s[0], scale)``."""
        return int(np.count_nonzero(s > self.rank_cutoff(s[0], scale)))

    def cluster_radius(self, norm: float) -> float:
        return self.cluster_tol * (1.0 + norm)


def singular_values(mats) -> np.ndarray:
    """Singular values of equally sized square matrices, one descending row each.

    One values-only SVD of the stack: NumPy runs the same LAPACK call on each
    matrix, so a row is bitwise what an SVD of its matrix alone gives, and
    the stack pays the per-call overhead once.
    """
    return np.linalg.svd(np.stack(mats), compute_uv=False)


def numerical_rank(a, policy: TolerancePolicy, scale: float) -> int:
    """Number of singular values above ``policy.rank_cutoff(s_max, scale)``.

    ``scale`` is the problem scale of the absolute floor.
    """
    return policy.rank(singular_values([as_square_matrix(a)])[0], scale)


def spectral_norm(a) -> float:
    """Largest singular value; zero iff the matrix is zero."""
    m = as_square_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])
