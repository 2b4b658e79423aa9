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
    "problem_scale",
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
    """Floating-point realization of the rank decisions that are exact in theory.

    ``rank_rel`` is the relative singular-value cutoff: every rank decision,
    on both classification routes, counts the singular values above
    ``rank_cutoff``.  The vanishing tests use the fixed threshold ``CK_REL``.
    """

    rank_rel: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1.0):
            raise ValueError(f"rank_rel must lie in (0, 1), got {self.rank_rel}")

    def rank_cutoff(self, s_max, scale):
        """Singular values at or below ``max(rank_rel * s_max, 1e-12 * scale)`` are zero.

        Takes floats or equally shaped arrays, one cutoff per element.
        """
        return np.maximum(self.rank_rel * s_max, 1e-12 * scale)

    def rank(self, s: np.ndarray, scale) -> np.ndarray:
        """Row-wise number of the singular values above ``rank_cutoff(s[..., 0], scale)``.

        ``s`` holds one descending row of singular values per matrix, and
        ``scale`` one value per row (or one for all); the counts come back in
        the shape of the leading axes.
        """
        return np.add.reduce(s > self.rank_cutoff(s[..., 0], scale)[..., None], axis=-1)


def problem_scale(norm, energy: complex):
    """``1 + ||A||_2 + |E|``, the problem scale of the rank floor on A = H - E, per norm.

    An infinite scale would put every singular value under the cutoff, so
    one that overflows is refused with one line.
    """
    with np.errstate(over="ignore"):
        scale = 1.0 + norm + abs(energy)
    if not np.isfinite(scale).all():
        raise ValueError(
            "the problem scale 1 + ||H - E||_2 + |E| overflows; use smaller model parameters"
        )
    return scale


def numerical_rank(a, policy: TolerancePolicy, scale: float) -> int:
    """Number of singular values above ``policy.rank_cutoff(s_max, scale)``.

    ``scale`` is the problem scale of the absolute floor.  One matrix: the
    rank of its stack of one.
    """
    m = as_square_matrix(a)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return int(policy.rank(np.linalg.svd(m[None], compute_uv=False), scale)[0])


def spectral_norm(a) -> np.ndarray:
    """Largest singular value of each matrix of a stack; zero iff the matrix is zero.

    One values-only SVD of the (B, n, n) stack gives the B norms: NumPy runs
    the same LAPACK call on each matrix, so each norm is bitwise what its
    matrix gives alone.
    """
    return np.linalg.svd(as_square_matrix(a), compute_uv=False)[..., 0]
