"""Faddeev-LeVerrier modal expansion of the adjugate matrix.

For an N x N matrix ``H`` and a reference energy ``shift``, the shifted
matrix ``A = H - shift * I`` generates a sequence of modes ``B_{N-1} = I``,
``B_{k-1} = A B_k - (tr(A B_k) / (N - k)) I`` together with the coefficients
``c_k = -tr(A B_k) / (N - k)`` of the shifted characteristic polynomial
``q(lam) = sum_k c_k lam**k = det(lam * I - A)``.  The resolvent is then the
ratio ``G(E) = sum_k (E - shift)**k B_k / q(E - shift)``, and the modes at a
degenerate eigenvalue carry its complete multiplicity structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .matkit import CK_REL, as_square_matrix, singular_values

__all__ = [
    "ModeSequence",
    "ResponseStrengths",
    "ResonanceError",
    "FLV_DIMENSION_GUARD",
    "flv_modes",
    "greens_modal",
    "load_singular_values",
    "response_strengths",
]

# The recursion accumulates error like ||A||**N; beyond this dimension it is
# refused, and classification relies on the staircase Weyr oracle alone.
FLV_DIMENSION_GUARD = 64


class ResonanceError(ValueError):
    """Raised when the modal resolvent is evaluated at (numerically) an eigenvalue."""


@dataclass(frozen=True, eq=False)
class ModeSequence:
    """Modes ``B_0 .. B_{N-1}`` and coefficients ``c_0 .. c_N`` at one shift.

    ``shifted`` is ``A = H - shift * I`` as the recursion received it.
    Sequences compare by identity: array fields have no single truth value.
    """

    shift: complex
    modes: tuple[np.ndarray, ...]
    coeffs: np.ndarray
    shifted: np.ndarray
    # largest entry modulus max|B_k| of every mode
    _mode_max: list[float] = field(repr=False)
    # singular values of the modes (key None: of A) and Frobenius norms of the
    # modes computed so far
    _sigma: dict[int | None, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _fro: dict[int, float] = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.modes)

    def mode(self, k: int) -> np.ndarray:
        """``B_k``, with the convention ``B_k = 0`` for k < 0."""
        if k < 0:
            return np.zeros_like(self.modes[0])
        return self.modes[k]

    # B_k and c_k are polynomials of degree N-1-k and N-k in A, so vanishing
    # thresholds must carry that power of a per-degree magnitude.  The norm
    # of A badly overestimates that magnitude for non-normal input (||A^m||
    # can grow far slower than ||A||^m), so the scale is calibrated from the
    # computed sequence itself and floored at one (O(1) model-energy units).
    # The sequence is immutable, so each scale and each mode's singular
    # values and Frobenius norm are computed once, on first use, and every
    # later test reads the stored value; each mode's largest entry comes with
    # the sequence.

    def singular_values(self, ks) -> list[np.ndarray]:
        """Singular values of ``B_k`` for each k in ``ks``; ``None`` stands for ``shifted``.

        The ones not known yet come from one stacked values-only SVD and are kept.
        """
        load_singular_values([(self, ks)])
        return [self._sigma[k] for k in ks]

    def frobenius(self, k: int) -> float:
        """Frobenius norm of ``B_k``: a mode's rank floor, and eta's numerator."""
        if k not in self._fro:
            self._fro[k] = float(np.linalg.norm(self.modes[k], "fro"))
        return self._fro[k]

    def live(self, alpha: int) -> list[int]:
        """Indices j < alpha of the modes B_j that do not vanish."""
        return [j for j in range(alpha) if not self.mode_vanishes(j)]

    @cached_property
    def mode_scale(self) -> float:
        """Per-degree magnitude scale of the mode sequence."""
        s = 1.0
        for j in range(self.n - 1):
            top = self._mode_max[j]
            if top > 0.0:
                s = max(s, top ** (1.0 / (self.n - 1 - j)))
        return s

    @cached_property
    def coeff_scale(self) -> float:
        """Per-degree magnitude scale of the characteristic coefficients."""
        s = 1.0
        for k in range(self.n):
            c = abs(self.coeffs[k])
            if c > 0.0:
                s = max(s, c ** (1.0 / (self.n - k)))
        return s

    def mode_vanishes(self, k: int) -> bool:
        """Scale-aware zero test for the mode B_k."""
        if k < 0:
            return True
        bound = CK_REL * self.mode_scale ** (self.n - 1 - k)
        return self._mode_max[k] <= bound

    def coeff_vanishes(self, k: int) -> bool:
        """Scale-aware zero test for the coefficient c_k (equivalently C_k)."""
        if k < 0 or k >= self.n:
            return False
        bound = CK_REL * self.coeff_scale ** (self.n - k)
        return abs(self.coeffs[k]) <= bound


def load_singular_values(requests) -> None:
    """Compute and keep the singular values that (sequence, ks) ``requests`` ask for.

    ``ks`` are mode indices as in ``ModeSequence.singular_values``.  All the
    matrices not known yet, over every sequence, go into one stacked
    values-only SVD; each row is bitwise what an SVD of its matrix alone gives.
    """
    new = [(seq, k) for seq, ks in requests for k in ks if k not in seq._sigma]
    if new:
        mats = [seq.shifted if k is None else seq.modes[k] for seq, k in new]
        for (seq, k), s in zip(new, singular_values(mats)):
            seq._sigma[k] = s


def flv_modes(h, shift: complex = 0.0) -> ModeSequence | list[ModeSequence | ValueError]:
    """Run the division-free recursion for all modes and coefficients.

    Modes are always computed for the full index range: the recursion costs
    O(N^4) total, and only small model matrices ever take this path.
    Dimensions above FLV_DIMENSION_GUARD, and input whose coefficients
    overflow (c_k grows like ||A||**(N-k)), are refused; classify those with
    the staircase Weyr oracle (``classify_point(..., method="weyr")``).

    ``h`` may be a stack of B equally sized matrices, shape (B, n, n).  Each
    step then runs once for the whole stack (a stacked product and trace),
    and a list is returned with, in each matrix's place, its sequence or the
    ValueError that refuses it; every sequence is bitwise the one its matrix
    gives alone.
    """
    m = as_square_matrix(h)
    stack = m if m.ndim == 3 else m[None]
    n = stack.shape[-1]
    if n > FLV_DIMENSION_GUARD:
        raise ValueError(
            f"dimension {n} exceeds the FLV stability guard ({FLV_DIMENSION_GUARD})"
        )
    # a complex identity: NumPy casts a real one to complex anyway, so the
    # bits are the same and no product casts
    eye = np.eye(n, dtype=complex)
    a = stack - complex(shift) * eye

    # modes[:, k] is B_k of every matrix
    modes = np.empty((len(stack), n, n, n), dtype=complex)
    coeffs = np.zeros((len(stack), n + 1), dtype=complex)
    coeffs[:, n] = 1.0
    modes[:, n - 1] = eye
    b = modes[:, n - 1]
    # an overflow is diagnosed below, once, rather than warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, -1, -1):
            ab = a @ b
            c = -ab.trace(axis1=1, axis2=2) / (n - k)
            coeffs[:, k] = c
            if k > 0:
                b = modes[:, k - 1] = ab + c[:, None, None] * eye
        mode_max = np.abs(modes).max(axis=(2, 3)).tolist()

    finite = np.isfinite(coeffs).all(axis=1)
    out = [
        ModeSequence(
            shift=complex(shift), modes=tuple(mi), coeffs=ci, shifted=ai, _mode_max=top
        )
        if ok
        else ValueError(
            "the Faddeev-LeVerrier coefficients overflowed; "
            'classify with method="weyr"'
        )
        for mi, ci, ai, top, ok in zip(modes, coeffs, a, mode_max, finite)
    ]
    if m.ndim == 3:
        return out
    if isinstance(out[0], ValueError):
        raise out[0]
    return out[0]


def greens_modal(modes: ModeSequence, energy: complex) -> np.ndarray:
    """Evaluate the resolvent G(E) from the modal expansion.

    Agrees with direct inversion of ``E I - H`` wherever both exist; raises
    ResonanceError when the characteristic denominator falls below
    ``1e-12 * (1 + |E - shift|)**N`` (E is numerically an eigenvalue).
    """
    lam = complex(energy) - modes.shift
    n = modes.n
    powers = lam ** np.arange(n + 1)
    denom = np.dot(modes.coeffs, powers)
    if abs(denom) <= 1e-12 * (1.0 + abs(lam)) ** n:
        raise ResonanceError(
            f"at resonance: |q(E - shift)| = {abs(denom):.3e} with E = {energy}"
        )
    num = np.zeros_like(modes.modes[0])
    for k in range(n):
        num = num + powers[k] * modes.modes[k]
    return num / denom


@dataclass(frozen=True)
class ResponseStrengths:
    """Physical (eta) and spectral (xi) response strengths at a degeneracy.

    Both derive from the first nonvanishing mode ``B_{alpha - ell}``:
    ``eta**2 = tr(B^dag B) / |c_alpha|**2`` and ``xi**2 = ||B||_2**2 /
    |c_alpha|**2``.  The two coincide when that mode has rank one.
    """

    eta: float
    xi: float


def response_strengths(modes: ModeSequence, alpha: int, ell: int) -> ResponseStrengths:
    """Response strengths of a degeneracy with multiplicities (alpha, ell).

    The modes must have been computed with the shift at the degenerate
    eigenvalue; the vanishing pattern ``B_k = 0`` for ``k < alpha - ell`` is
    checked and inconsistent (alpha, ell) pairs are rejected.
    """
    n = modes.n
    if not (1 <= ell <= alpha <= n):
        raise ValueError(f"need 1 <= ell <= alpha <= {n}, got ell={ell} alpha={alpha}")
    c_alpha = modes.coeffs[alpha]
    if alpha < n and modes.coeff_vanishes(alpha):
        raise ValueError(
            f"|c_alpha| = {abs(c_alpha):.3e} is below threshold; "
            "alpha does not match the vanishing pattern of the coefficients"
        )
    for k in range(alpha - ell):
        if not modes.mode_vanishes(k):
            raise ValueError(
                f"mode B_{k} does not vanish although k < alpha - ell = {alpha - ell}; "
                "inconsistent (alpha, ell)"
            )
    if modes.mode_vanishes(alpha - ell):
        raise ValueError(
            f"leading mode B_{alpha - ell} vanishes; ell = {ell} overstates the "
            "maximal partial multiplicity"
        )
    eta = modes.frobenius(alpha - ell) / abs(c_alpha)
    xi = float(modes.singular_values([alpha - ell])[0][0]) / abs(c_alpha)
    return ResponseStrengths(eta=eta, xi=xi)
