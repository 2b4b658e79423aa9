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

import functools
from dataclasses import dataclass

import numpy as np

from .matkit import CK_REL

__all__ = [
    "ModeSequence",
    "ResponseStrengths",
    "ResonanceError",
    "FLV_DIMENSION_GUARD",
    "flv_modes",
    "greens_modal",
    "response_strengths",
]

# The recursion accumulates error like ||A||**N; beyond this dimension it is
# refused, and classification relies on the staircase Weyr oracle alone.
FLV_DIMENSION_GUARD = 64

# what an overflow refusal suggests, on the command line and in Python
_REMEDY = 'use smaller model parameters or --energy (in Python, classify with method="weyr")'


class ResonanceError(ValueError):
    """Raised when the modal resolvent is evaluated at (numerically) an eigenvalue."""


@dataclass(frozen=True, eq=False)
class ModeSequence:
    """Modes ``B_0 .. B_{N-1}`` and coefficients ``c_0 .. c_N`` of a stack at one shift.

    Every array carries a leading axis of one row per matrix of the stack:
    ``modes[i, k]`` is ``B_k`` of matrix i, ``coeffs[i, k]`` its ``c_k``, and
    ``shifted[i]`` its ``A = H - shift * I`` as the recursion received it.
    The scales, vanishing tests and ``alpha`` hold one value per matrix.
    ``flv_modes`` builds every field and marks its arrays read-only, so the
    record is finished when it is returned.  Sequences compare by identity:
    array fields have no single truth value.
    """

    shift: complex
    coeffs: np.ndarray
    # B_0 .. B_{N-1}, then A
    mats: np.ndarray
    # B_k and c_k are polynomials of degree N-1-k and N-k in A, so vanishing
    # thresholds must carry that power of a per-degree magnitude.  The norm
    # of A badly overestimates that magnitude for non-normal input (||A^m||
    # can grow far slower than ||A||^m), so the scale is calibrated from the
    # computed sequence itself and floored at one (O(1) model-energy units).
    mode_scale: np.ndarray
    coeff_scale: np.ndarray
    mode_zero: np.ndarray
    coeff_zero: np.ndarray
    # Frobenius norm of each row of mats: a mode's rank floor, and eta's numerator
    fro: np.ndarray
    # the largest alpha with c_k vanishing for all k < alpha; 0 off the spectrum
    alpha: np.ndarray
    # singular values of each live row of mats, descending; NaN for the others
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def modes(self) -> np.ndarray:
        return self.mats[:, :-1]

    @property
    def shifted(self) -> np.ndarray:
        return self.mats[:, -1]


def _frobenius(mats: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack: a mode's rank floor, and eta's numerator.

    Each norm is bitwise ``np.linalg.norm(mat, "fro")``, which sums the
    strided real and imaginary parts by two dot products.
    """
    flat = mats.reshape(*mats.shape[:-2], mats.shape[-1] ** 2)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


@functools.cache
def _degrees(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Degrees of max|B_k| (row 0) and |c_k| (row 1) in A, k < n, and the root each scale takes.

    B_{N-1} = I has degree 0 and largest entry 1, whose root leaves the scale alone.
    """
    degree = np.arange(n, 0, -1) - np.array([[1], [0]])
    root = 1.0 / np.maximum(degree, 1)
    degree.flags.writeable = root.flags.writeable = False
    return degree, root


def flv_modes(h, shift: complex):
    """Run the division-free recursion for all modes and coefficients.

    Modes are always computed for the full index range: the recursion costs
    O(N^4) total, and only small model matrices ever take this path.
    Dimensions above FLV_DIMENSION_GUARD, and input whose coefficients
    overflow (c_k grows like ||A||**(N-k)) or whose vanishing thresholds or
    Frobenius norms do, are refused; classify those with the staircase Weyr
    oracle (``classify_point(..., method="weyr")``).  The sequence comes
    back finished, with each matrix's alpha and its live rows' singular values.

    ``h`` is a stack of B equally sized matrices, shape (B, n, n), that
    ``classify_point`` validated; one matrix, shape (n, n), is the stack of
    one.  Each step runs once for the whole stack (a stacked product and
    trace, the scales and vanishing tests as array operations); an overflow
    of any matrix is refused.  Every row is bitwise what its matrix gives alone.
    """
    n = h.shape[-1]
    stack = h.reshape(-1, n, n)
    if n > FLV_DIMENSION_GUARD:
        raise ValueError(
            f"dimension {n} exceeds the FLV stability guard ({FLV_DIMENSION_GUARD})"
        )
    # a complex identity: NumPy casts a real one to complex anyway, so the
    # bits are the same and no product casts
    eye = np.eye(n, dtype=complex)
    a = stack - complex(shift) * eye

    # mats[:, k] is B_k of every matrix, and mats[:, n] is A
    mats = np.empty((len(stack), n + 1, n, n), dtype=complex)
    mats[:, n] = a
    coeffs = np.zeros((len(stack), n + 1), dtype=complex)
    coeffs[:, n] = 1.0
    mats[:, n - 1] = eye
    b = mats[:, n - 1]
    degree, root = _degrees(n)
    # an overflow is diagnosed below, once, rather than warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1, -1, -1):
            ab = a @ b
            c = np.divide(-ab.trace(axis1=1, axis2=2), n - k, out=coeffs[:, k])
            if k > 0:
                b = np.add(ab, c[:, None, None] * eye, out=mats[:, k - 1])
        # row 0: max|B_k| of degree N-1-k; row 1: |c_k| of degree N-k.  float_power
        # and hypot call the C library per element, as Python's ** and abs do,
        # where np.power and a complex np.abs may round differently.
        mags = np.empty((len(mats), 2, n))
        np.maximum.reduce(np.abs(mats[:, :n]), axis=(2, 3), out=mags[:, 0])
        np.hypot(coeffs[:, :n].real, coeffs[:, :n].imag, out=mags[:, 1])
        # the scale is the largest root, floored at one; fmax skips NaN
        scale = np.fmax.reduce(np.float_power(mags, root), axis=2, initial=1.0)
        threshold = CK_REL * np.float_power(scale[:, :, None], degree)
        fro = _frobenius(mats)

    if not np.isfinite(coeffs).all():
        raise ValueError(f"the Faddeev-LeVerrier coefficients overflowed; {_REMEDY}")
    if not (np.isfinite(threshold).all() and np.isfinite(fro).all()):
        raise ValueError(
            "the Faddeev-LeVerrier scales overflowed (scale**degree or a mode's "
            f"Frobenius norm); {_REMEDY}"
        )
    zero = mags <= threshold
    alpha = np.add.reduce(np.logical_and.accumulate(zero[:, 1], axis=1), axis=1)
    # A structurally-zero mode still carries noise with generic relative rank
    # structure, so the scale-aware vanishing test runs before the SVD.  The
    # live rows, the modes below alpha that do not vanish and A, of every
    # matrix whose shift is an eigenvalue, share one stacked values-only SVD;
    # each row is bitwise what an SVD of its matrix alone gives.
    below = (np.arange(n) < alpha[:, None]) & ~zero[:, 0]
    live = np.concatenate((below, (alpha > 0)[:, None]), axis=1)
    sigma = np.full((len(mats), n + 1, n), np.nan)
    if live.any():
        sigma[live] = np.linalg.svd(mats[live], compute_uv=False)
    # the record is finished: its arrays, and the views taken of them below, are read-only
    for done in (coeffs, mats, scale, zero, fro, alpha, sigma):
        done.flags.writeable = False
    return ModeSequence(
        complex(shift), coeffs=coeffs, mats=mats,
        mode_scale=scale[:, 0], coeff_scale=scale[:, 1],
        mode_zero=zero[:, 0], coeff_zero=zero[:, 1], fro=fro, alpha=alpha, sigma=sigma,
    )


def greens_modal(modes: ModeSequence, energy: complex) -> np.ndarray:
    """Evaluate the resolvent G(E) of every matrix of the sequence, shape (B, n, n).

    Agrees with direct inversion of ``E I - H`` wherever both exist; raises
    ResonanceError when a matrix's characteristic denominator falls below
    ``1e-12 * (1 + |E - shift|)**N`` (E is numerically its eigenvalue).
    Each matrix's resolvent is bitwise what its sequence alone gives.
    """
    lam = complex(energy) - modes.shift
    n = modes.n
    powers = lam ** np.arange(n + 1)
    # one dot product per matrix: a stacked matrix-vector product sums in
    # another order, so a row would not be the bits its matrix gives alone
    denom = np.array([np.dot(c, powers) for c in modes.coeffs])
    resonant = np.abs(denom) <= 1e-12 * (1.0 + abs(lam)) ** n
    if resonant.any():
        raise ResonanceError(
            f"at resonance: |q(E - shift)| = {abs(denom[resonant][0]):.3e} with E = {energy}"
        )
    num = np.zeros_like(modes.shifted)
    for k in range(n):
        num = num + powers[k] * modes.modes[:, k]
    return num / denom[:, None, None]


@dataclass(frozen=True)
class ResponseStrengths:
    """Physical (eta) and spectral (xi) response strengths at a degeneracy.

    Both derive from the first nonvanishing mode ``B_{alpha - ell}``:
    ``eta**2 = tr(B^dag B) / |c_alpha|**2`` and ``xi**2 = ||B||_2**2 /
    |c_alpha|**2``.  The two coincide when that mode has rank one.  They
    hold one value per matrix, or floats for the one matrix that
    ``response_strengths`` reads.
    """

    eta: float | np.ndarray
    xi: float | np.ndarray


def strengths(modes: ModeSequence, lead: np.ndarray) -> ResponseStrengths:
    """eta and xi of each matrix of a stack from its leading mode ``B_lead``, unchecked.

    ``lead`` is ``alpha - ell``, one per matrix, and must be a live mode.
    ``response_strengths`` checks one matrix's pattern first;
    ``classify_point`` reads its reports' strengths here, where its sum
    rules imply that pattern.
    """
    rows = np.arange(len(lead))
    c_alpha = modes.coeffs[rows, modes.alpha]
    abs_c = np.hypot(c_alpha.real, c_alpha.imag)
    sigma = modes.sigma[rows, lead, 0]
    return ResponseStrengths(eta=modes.fro[rows, lead] / abs_c, xi=sigma / abs_c)


def response_strengths(modes: ModeSequence, alpha: int, ell: int) -> ResponseStrengths:
    """Response strengths of a degeneracy with multiplicities (alpha, ell).

    The modes, of a stack of one matrix, must have been computed with the
    shift at the degenerate eigenvalue; ``alpha`` must be the sequence's own,
    the vanishing pattern ``B_k = 0`` for ``k < alpha - ell`` is checked, and
    inconsistent (alpha, ell) pairs are rejected.  A sequence of more
    matrices is refused.
    """
    n = modes.n
    if len(modes.coeffs) != 1:
        raise ValueError(
            f"response_strengths reads one matrix, got a sequence of {len(modes.coeffs)}"
        )
    if not (1 <= ell <= alpha <= n):
        raise ValueError(f"need 1 <= ell <= alpha <= {n}, got ell={ell} alpha={alpha}")
    if alpha != modes.alpha[0]:
        raise ValueError(
            f"alpha = {alpha} does not match the vanishing chain of the coefficients, "
            f"which gives alpha = {modes.alpha[0]}"
        )
    for k in range(alpha - ell):
        if not modes.mode_zero[0, k]:
            raise ValueError(
                f"mode B_{k} does not vanish although k < alpha - ell = {alpha - ell}; "
                "inconsistent (alpha, ell)"
            )
    if modes.mode_zero[0, alpha - ell]:
        raise ValueError(
            f"leading mode B_{alpha - ell} vanishes; ell = {ell} overstates the "
            "maximal partial multiplicity"
        )
    found = strengths(modes, np.array([alpha - ell]))
    return ResponseStrengths(eta=float(found.eta[0]), xi=float(found.xi[0]))
