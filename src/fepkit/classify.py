"""Degeneracy fingerprints: multiplicities, partial-multiplicity function, labels.

Two independent routes produce the partial multiplicity function beta(l)
(the number of Jordan blocks of size exactly l at the tested eigenvalue):

* the modal route, combining the vanishing chain of the traces
  ``C_k = tr(A B_k)`` (which fixes the algebraic multiplicity alpha) with the
  second difference of mode ranks
  ``beta(l) = rnk B_{alpha-l-2} - 2 rnk B_{alpha-l-1} + rnk B_{alpha-l}``;
* the Weyr route, using ranks of matrix powers
  ``beta(l) = rnk A**(l-1) - 2 rnk A**l + rnk A**(l+1)``.

``classify_point`` runs both on small matrices and refuses to emit a report
when they disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .adjugate import (
    FLV_DIMENSION_GUARD,
    ModeSequence,
    flv_modes,
    response_strengths,
)
from .matkit import TolerancePolicy, as_square_matrix, numerical_rank, spectral_norm

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
    """Complete fingerprint of one (matrix, energy) degeneracy."""

    energy: complex
    alpha: int
    gamma: int
    ell: int
    beta: PartialMultiplicityFunction
    partials: tuple[int, ...]
    label: str
    eta: float
    xi: float
    policy: TolerancePolicy
    k_point: tuple[float, ...] | None = None
    method: str = "modes"

    def __post_init__(self):
        if self.partials != self.beta.partials:
            raise InconsistentRanksError("partials do not expand beta")
        if self.label != degeneracy_label(self.alpha, self.gamma):
            raise InconsistentRanksError(
                f"label {self.label!r} inconsistent with alpha={self.alpha} gamma={self.gamma}"
            )


def algebraic_multiplicity(modes: ModeSequence, policy: TolerancePolicy | None = None) -> int:
    """Largest alpha with C_k = tr(A B_k) vanishing for all k < alpha.

    Returns 0 when even c_0 is far from zero, i.e. the shift used for the
    modes is not an eigenvalue.  C_k = -(N-k) c_k is a degree N-k polynomial
    in A, so the vanishing test carries that power of the per-degree
    coefficient scale of the sequence.
    """
    policy = policy or TolerancePolicy()
    for k in range(modes.n):
        if not modes.coeff_vanishes(k, policy.ck_rel):
            return k
    return modes.n


def _beta_from_ranks(rank_of, alpha: int, gamma: int | None) -> PartialMultiplicityFunction:
    """Second difference of a rank profile, with the shared sum-rule checks.

    ``rank_of(j)`` must return the rank associated with index j and honor the
    convention rank = 0 for j < 0; a profile that breaks it fails the sum
    rules.  ``gamma`` is an independently known geometric multiplicity to
    validate against (None skips that check).
    """
    beta: dict[int, int] = {}
    for l in range(1, alpha + 1):
        b = rank_of(alpha - l - 2) - 2 * rank_of(alpha - l - 1) + rank_of(alpha - l)
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
    if gamma is not None and pmf.gamma != gamma:
        raise InconsistentRanksError(
            f"sum rule sum(beta(l)) = {pmf.gamma} != gamma = {gamma}"
        )
    return pmf


def partial_multiplicities(
    modes: ModeSequence,
    alpha: int,
    policy: TolerancePolicy | None = None,
) -> PartialMultiplicityFunction:
    """Resolve beta(l) from the ranks of the modes B_{alpha-l-2 .. alpha-l}.

    The sum rules sum(beta) = gamma (with gamma = N - rank(A)) and
    sum(l beta) = alpha must come out exactly; a violation raises
    InconsistentRanksError rather than being silently repaired.
    """
    policy = policy or TolerancePolicy()
    n = modes.n
    if not (1 <= alpha <= n):
        raise ValueError(f"alpha must lie in 1..{n}, got {alpha}")
    # A structurally-zero mode still carries noise with generic relative rank
    # structure, so the scale-aware vanishing test must run before the SVD.
    ranks = {
        j: 0 if modes.mode_vanishes(j, policy.ck_rel) else numerical_rank(modes.mode(j), policy)
        for j in range(alpha)
    }
    scale = 1.0 + modes.source_norm + abs(modes.shift)
    floor_policy = replace(policy, rank_abs=max(policy.rank_abs or 0.0, 1e-12 * scale))
    gamma = n - numerical_rank(modes.source(), floor_policy)

    def rank_of(j: int) -> int:
        if j < 0:
            return 0
        return ranks[j]

    return _beta_from_ranks(rank_of, alpha, gamma)


def weyr_oracle(
    a,
    policy: TolerancePolicy | None = None,
    scale: float | None = None,
) -> PartialMultiplicityFunction:
    """Partial multiplicities of eigenvalue 0 from ranks of matrix powers.

    Independent of the modal route: with ``r_k = rank(A**k)`` and ``r_0 = n``,
    ``beta(l) = r_{l-1} - 2 r_l + r_{l+1}``.  The matrix is normalized by
    ``scale`` before taking powers, so powers cannot overflow and an input
    that vanishes at the problem scale is treated as the zero matrix rather
    than as its own noise.  ``scale`` defaults to ``max(1, ||A||_2)``,
    appropriate for matrices in O(1) model-energy units.
    """
    m = as_square_matrix(a)
    policy = policy or TolerancePolicy()
    n = m.shape[0]
    if scale is None:
        scale = max(1.0, spectral_norm(m))
    if scale <= 0:
        raise ValueError("scale must be positive")
    m = m / scale
    # normalized units: absolute floor 1e-12 means 1e-12 of the problem scale
    rank_policy = replace(policy, rank_abs=max(policy.rank_abs or 0.0, 1e-12))

    ranks = [n]
    p = np.eye(n, dtype=complex)
    while len(ranks) <= n:
        p = p @ m
        r = numerical_rank(p, rank_policy)
        ranks.append(r)
        if r == ranks[-2]:
            break
    last = ranks[-1]  # once the rank stabilizes the null chain has terminated
    alpha = n - last

    def rank_of(j: int) -> int:
        # mode index j pairs with power alpha - 1 - j; on a consistent profile
        # the shifted rank is 0 from power alpha on
        power = alpha - 1 - j
        return (ranks[power] if power < len(ranks) else last) - last

    return _beta_from_ranks(rank_of, alpha, n - ranks[1])


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
      * ``"modes"`` - modal route, cross-checked against the Weyr oracle for
        n <= 64 (disagreement is an error, not a warning);
      * ``"weyr"``  - rank-of-powers oracle only (response strengths are NaN
        unless the modal route also runs); the route for hinge-scale input;
      * ``"auto"``  - modal route up to n = 16, Weyr beyond.  The C_k chain
        compares traces against scale-power thresholds, which loses meaning
        once N is large enough that characteristic coefficients of
        nondegenerate spectra become numerically tiny themselves.
    """
    m = as_square_matrix(h)
    policy = policy or TolerancePolicy()
    n = m.shape[0]
    norm = spectral_norm(m)
    energy = complex(energy)

    eigenvalues = np.linalg.eigvals(m)
    if np.min(np.abs(eigenvalues - energy)) > policy.cluster_radius(norm):
        raise NotAnEigenvalueError(
            f"E = {energy} is farther than the cluster radius from every eigenvalue"
        )

    if method == "auto":
        method = "modes" if n <= 16 else "weyr"
    if method not in ("modes", "weyr"):
        raise ValueError(f"unknown method {method!r}")

    a = m - energy * np.eye(n)
    problem_scale = 1.0 + norm + abs(energy)
    eta = xi = math.nan

    if method == "modes":
        modes = flv_modes(m, energy)
        alpha = algebraic_multiplicity(modes, policy)
        if alpha == 0:
            raise NotAnEigenvalueError(
                f"c_0 = {modes.coeffs[0]:.3e} does not vanish at E = {energy}"
            )
        pmf = partial_multiplicities(modes, alpha, policy)
        if n <= FLV_DIMENSION_GUARD:
            oracle = weyr_oracle(a, policy, scale=problem_scale)
            if oracle != pmf:
                raise OracleDisagreementError(pmf, oracle)
        strengths = response_strengths(modes, alpha, pmf.ell, policy)
        eta, xi = strengths.eta, strengths.xi
    else:
        pmf = weyr_oracle(a, policy, scale=problem_scale)
        alpha = pmf.alpha
        if alpha == 0:
            raise NotAnEigenvalueError(f"rank(A) is full at E = {energy}")
        if n <= FLV_DIMENSION_GUARD:
            # best effort: at this scale the coefficient thresholds of the
            # modal route are loose, so failures fall back to NaN strengths
            try:
                modes = flv_modes(m, energy)
                strengths = response_strengths(modes, alpha, pmf.ell, policy)
                eta, xi = strengths.eta, strengths.xi
            except ValueError:
                pass

    return DegeneracyReport(
        energy=energy,
        alpha=alpha,
        gamma=pmf.gamma,
        ell=pmf.ell,
        beta=pmf,
        partials=pmf.partials,
        label=degeneracy_label(alpha, pmf.gamma),
        eta=eta,
        xi=xi,
        policy=policy,
        k_point=k_point,
        method=method,
    )
