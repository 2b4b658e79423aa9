"""Degeneracy fingerprints: multiplicities, partial-multiplicity function, labels.

Two independent routes produce the partial multiplicity function beta(l)
(the number of Jordan blocks of size exactly l at the tested eigenvalue):

* the modal route, combining the vanishing chain of the traces
  ``C_k = tr(A B_k)`` (which fixes the algebraic multiplicity alpha) with the
  second difference of mode ranks
  ``beta(l) = rnk B_{alpha-l-2} - 2 rnk B_{alpha-l-1} + rnk B_{alpha-l}``;
* the Weyr route, a nested-null-space staircase whose level widths
  ``w_l = dim ker A**l - dim ker A**(l-1)`` give ``beta(l) = w_l - w_{l+1}``.

``classify_point`` runs both on small matrices and refuses to emit a report
when they disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adjugate import ModeSequence, flv_modes, response_strengths
from .matkit import TolerancePolicy, as_square_matrix, spectral_norm

__all__ = [
    "PartialMultiplicityFunction",
    "DegeneracyReport",
    "InconsistentRanksError",
    "NotAnEigenvalueError",
    "OracleDisagreementError",
    "algebraic_multiplicity",
    "partial_multiplicities",
    "weyr_oracle",
    "classify_point",
    "degeneracy_label",
]


class InconsistentRanksError(ValueError):
    """Rank decisions violate the multiplicity sum rules (tolerance misconfiguration)."""


class NotAnEigenvalueError(ValueError):
    """The tested energy is not (numerically) an eigenvalue."""


class OracleDisagreementError(RuntimeError):
    """Modal and Weyr fingerprints differ; both are attached for inspection."""

    def __init__(self, modal, weyr):
        self.modal = modal
        self.weyr = weyr
        super().__init__(
            f"mode-rank fingerprint {modal.beta} disagrees with Weyr oracle {weyr.beta}"
        )


@dataclass(frozen=True)
class PartialMultiplicityFunction:
    """Map l -> number of Jordan blocks of size exactly l (zero counts omitted)."""

    beta: dict[int, int]

    def __post_init__(self):
        clean = {int(l): int(c) for l, c in self.beta.items() if c != 0}
        if any(l < 1 for l in clean) or any(c < 0 for c in clean.values()):
            raise InconsistentRanksError(f"invalid partial multiplicity function {self.beta}")
        object.__setattr__(self, "beta", clean)

    @classmethod
    def from_partials(cls, partials) -> "PartialMultiplicityFunction":
        beta: dict[int, int] = {}
        for l in partials:
            beta[int(l)] = beta.get(int(l), 0) + 1
        return cls(beta)

    @property
    def gamma(self) -> int:
        """Geometric multiplicity: total number of blocks."""
        return sum(self.beta.values())

    @property
    def alpha(self) -> int:
        """Algebraic multiplicity: total size of all blocks."""
        return sum(l * c for l, c in self.beta.items())

    @property
    def ell(self) -> int:
        """Maximal partial multiplicity (largest block size)."""
        return max(self.beta) if self.beta else 0

    @property
    def partials(self) -> tuple[int, ...]:
        """Block sizes as a nonincreasing sequence."""
        out: list[int] = []
        for l in sorted(self.beta, reverse=True):
            out.extend([l] * self.beta[l])
        return tuple(out)

    def __eq__(self, other) -> bool:
        if isinstance(other, PartialMultiplicityFunction):
            return self.beta == other.beta
        return NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self.beta.items())))


def degeneracy_label(alpha: int, gamma: int) -> str:
    """Label string: nondegenerate, DP, n-bolic, EPn, or FEP."""
    if alpha == 1:
        return "nondegenerate"
    if gamma == 1:
        return f"EP{alpha}"
    if alpha == gamma:
        if alpha == 2:
            return "DP"
        if alpha == 3:
            return "tribolic"
        if alpha == 4:
            return "tetrabolic"
        return f"{alpha}-bolic"
    return "FEP"


@dataclass(frozen=True)
class DegeneracyReport:
    """Complete fingerprint of one (matrix, energy) degeneracy.

    The multiplicities, block sizes and label all follow from ``beta``, so
    they are derived from it rather than stored next to it.  ``method`` is
    the route that ran; the response strengths ``eta`` and ``xi`` come from
    the adjugate modes of the modal route, so they are NaN exactly when
    ``method == "weyr"``.
    """

    energy: complex
    beta: PartialMultiplicityFunction
    eta: float
    xi: float
    policy: TolerancePolicy
    k_point: tuple[float, ...] | None = None
    method: str = "modes"

    @property
    def alpha(self) -> int:
        return self.beta.alpha

    @property
    def gamma(self) -> int:
        return self.beta.gamma

    @property
    def ell(self) -> int:
        return self.beta.ell

    @property
    def partials(self) -> tuple[int, ...]:
        return self.beta.partials

    @property
    def label(self) -> str:
        return degeneracy_label(self.alpha, self.gamma)


def algebraic_multiplicity(modes: ModeSequence) -> int:
    """Largest alpha with C_k = tr(A B_k) vanishing for all k < alpha.

    Returns 0 when even c_0 is far from zero, i.e. the shift used for the
    modes is not an eigenvalue.  C_k = -(N-k) c_k is a degree N-k polynomial
    in A, so the vanishing test carries that power of the per-degree
    coefficient scale of the sequence.
    """
    for k in range(modes.n):
        if not modes.coeff_vanishes(k):
            return k
    return modes.n


def partial_multiplicities(
    modes: ModeSequence,
    alpha: int,
    policy: TolerancePolicy,
    scale: float,
) -> PartialMultiplicityFunction:
    """Resolve beta(l) from the ranks of the modes B_{alpha-l-2 .. alpha-l}.

    ``scale`` is the problem scale of the rank floor on A = H - E;
    ``classify_point`` passes the one its Weyr oracle divides by,
    ``1 + ||H||_2 + |E|``.  The sum rules sum(beta) = gamma (with
    gamma = N - rank(A)) and sum(l beta) = alpha must come out exactly; a
    violation raises InconsistentRanksError rather than being silently
    repaired.
    """
    n = modes.n
    if not (1 <= alpha <= n):
        raise ValueError(f"alpha must lie in 1..{n}, got {alpha}")
    # A structurally-zero mode still carries noise with generic relative rank
    # structure, so the scale-aware vanishing test must run before the SVD.
    # The live modes and A share one stacked SVD; a mode's floor is its
    # Frobenius norm.
    live = [j for j in range(alpha) if not modes.mode_vanishes(j)]
    *mode_sv, a_sv = modes.singular_values([*live, None])
    ranks = dict.fromkeys(range(alpha), 0)
    for j, s in zip(live, mode_sv):
        ranks[j] = policy.rank(s, float(np.linalg.norm(modes.mode(j), "fro")))
    gamma = n - policy.rank(a_sv, scale)

    beta: dict[int, int] = {}
    for l in range(1, alpha + 1):
        j = alpha - l
        b = ranks.get(j - 2, 0) - 2 * ranks.get(j - 1, 0) + ranks[j]
        if b < 0:
            raise InconsistentRanksError(
                f"negative beta({l}) = {b}; rank profile is not a Weyr-consistent sequence"
            )
        if b:
            beta[l] = b
    pmf = PartialMultiplicityFunction(beta)
    if pmf.alpha != alpha:
        raise InconsistentRanksError(
            f"sum rule sum(l * beta(l)) = {pmf.alpha} != alpha = {alpha}"
        )
    if pmf.gamma != gamma:
        raise InconsistentRanksError(
            f"sum rule sum(beta(l)) = {pmf.gamma} != gamma = {gamma}"
        )
    return pmf


def weyr_oracle(a, policy: TolerancePolicy, scale: float) -> PartialMultiplicityFunction:
    """Partial multiplicities of eigenvalue 0 from a nested-null-space staircase.

    Independent of the modal route, and takes no matrix powers (Kublanovskaya's
    algorithm as refined by Kagstrom & Ruhe, ACM TOMS 6 (1980) 398-419).  At
    each level the SVD ``B = U S V^H`` of the current block gives the Weyr
    width ``w_l``, the number of singular values at or below the cutoff; the
    next block is ``(V_1^H U_1) S_1``, B compressed onto the span of its r
    leading right singular vectors.  The staircase stops at a zero width, and
    ``beta(l) = w_l - w_{l+1}``.

    The matrix is normalized by ``scale``, so an input that vanishes at the
    problem scale is treated as the zero matrix rather than as its own noise.
    One cutoff, ``policy.rank_cutoff(s_1, 1)`` from the first level, serves
    every level: in units of ``scale`` it is the cutoff that
    ``numerical_rank(a, policy, scale)`` applies.  With it the widths cannot
    increase: ``V_1^H U_1`` preserves norms on a subspace of
    codimension at most ``w_l``, so a wider next level would need a unit x
    with ``||S_1 x|| <= cutoff < s_r``.  And each level drops only singular
    values at or below the cutoff.  A negative count would still raise
    InconsistentRanksError.
    """
    m = as_square_matrix(a)
    if scale <= 0:
        raise ValueError("scale must be positive")
    b = m / scale
    cutoff = None
    widths = []
    while b.size:
        u, s, vh = np.linalg.svd(b)
        if cutoff is None:
            # normalized units: the problem scale is 1
            cutoff = policy.rank_cutoff(s[0], 1.0)
        r = int(np.count_nonzero(s > cutoff))
        if r == s.size:
            break
        widths.append(s.size - r)
        b = (vh[:r] @ u[:, :r]) * s[:r]
    widths.append(0)
    return PartialMultiplicityFunction(
        {l: widths[l - 1] - widths[l] for l in range(1, len(widths))}
    )


def classify_point(
    h,
    energy: complex,
    policy: TolerancePolicy | None = None,
    *,
    method: str = "auto",
    k_point: tuple[float, ...] | None = None,
) -> DegeneracyReport:
    """Full degeneracy report for one eigenvalue of one matrix.

    ``method``:
      * ``"modes"`` - modal route (n <= 64), cross-checked against the
        staircase Weyr oracle (disagreement is an error, not a warning);
      * ``"weyr"``  - staircase oracle only; the route for hinge-scale input.
        The strengths come from the adjugate modes, which this route never
        forms, so eta and xi are NaN exactly when ``report.method == "weyr"``;
      * ``"auto"``  - modal route up to n = 16, Weyr beyond.  The C_k chain
        compares traces against scale-power thresholds, which loses meaning
        once N is large enough that characteristic coefficients of
        nondegenerate spectra become numerically tiny themselves.

    NotAnEigenvalueError means the staircase found A = H - E full rank (Weyr
    route) or c_0 does not vanish (modal route); no eigenvalues are computed.
    """
    m = as_square_matrix(h)
    policy = policy or TolerancePolicy()
    n = m.shape[0]
    norm = spectral_norm(m)
    energy = complex(energy)

    if method == "auto":
        method = "modes" if n <= 16 else "weyr"
    if method not in ("modes", "weyr"):
        raise ValueError(f"unknown method {method!r}")

    a = m - energy * np.eye(n)
    problem_scale = 1.0 + norm + abs(energy)
    eta = xi = math.nan

    if method == "modes":
        modes = flv_modes(m, energy)
        alpha = algebraic_multiplicity(modes)
        if alpha == 0:
            raise NotAnEigenvalueError(
                f"c_0 = {modes.coeffs[0]:.3e} does not vanish at E = {energy}"
            )
        pmf = partial_multiplicities(modes, alpha, policy, scale=problem_scale)
        oracle = weyr_oracle(a, policy, scale=problem_scale)
        if oracle != pmf:
            raise OracleDisagreementError(pmf, oracle)
        strengths = response_strengths(modes, alpha, pmf.ell)
        eta, xi = strengths.eta, strengths.xi
    else:
        pmf = weyr_oracle(a, policy, scale=problem_scale)
        if pmf.alpha == 0:
            raise NotAnEigenvalueError(f"rank(A) is full at E = {energy}")

    return DegeneracyReport(
        energy=energy,
        beta=pmf,
        eta=eta,
        xi=xi,
        policy=policy,
        k_point=k_point,
        method=method,
    )
