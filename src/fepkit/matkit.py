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
    """Validate and return ``a`` as a square, finite complex128 array.

    A stack of B equally sized square matrices, shape (B, n, n), is
    validated as a whole.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] == 0:
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

    def rank_cutoff(self, s_max, scale):
        """Singular values at or below ``max(rank_rel * s_max, 1e-12 * scale)`` are zero.

        Takes floats or equally shaped arrays, one cutoff per element.
        """
        return np.maximum(self.rank_rel * s_max, 1e-12 * scale)

    def rank(self, s: np.ndarray, scale):
        """Number of the singular values ``s`` (descending) above ``rank_cutoff(s[0], scale)``.

        Row-wise: ``s`` may hold one row of singular values per matrix, with
        one ``scale`` per row, and an array of counts is returned; one row
        gives an int.
        """
        count = np.add.reduce(s > self.rank_cutoff(s[..., 0], scale)[..., None], axis=-1)
        return int(count) if count.ndim == 0 else count

    def cluster_radius(self, norm: float) -> float:
        return self.cluster_tol * (1.0 + norm)


def singular_values(mats) -> np.ndarray:
    """Singular values of equally sized square matrices, one descending row each.

    One values-only SVD of the stack: NumPy runs the same LAPACK call on each
    matrix, so a row is bitwise what an SVD of its matrix alone gives, and
    the stack pays the per-call overhead once.  ``mats`` is a sequence of
    matrices or a (B, n, n) array.
    """
    return np.linalg.svd(np.asarray(mats), compute_uv=False)


def numerical_rank(a, policy: TolerancePolicy, scale: float) -> int:
    """Number of singular values above ``policy.rank_cutoff(s_max, scale)``.

    ``scale`` is the problem scale of the absolute floor.
    """
    m = as_square_matrix(a)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return policy.rank(singular_values([m])[0], scale)


def spectral_norm(a):
    """Largest singular value; zero iff the matrix is zero.

    A float for one matrix; for a stack, one stacked SVD gives an array of
    the norms, each bitwise what its matrix gives alone.
    """
    m = as_square_matrix(a)
    norm = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norm) if m.ndim == 2 else norm
