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

from .adjugate import ModeSequence, flv_modes, strengths
from .matkit import TolerancePolicy, as_square_matrix, problem_scale

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


def _pmf(row) -> PartialMultiplicityFunction:
    """The function whose counts are ``row``: ``row[l - 1]`` blocks of size l."""
    return PartialMultiplicityFunction({l: c for l, c in enumerate(row, 1) if c})


def _first(bad) -> int | None:
    """Index of the first true entry of ``bad``, or None."""
    return int(bad.argmax()) if bad.any() else None


def algebraic_multiplicity(modes: ModeSequence) -> np.ndarray:
    """Largest alpha with C_k = tr(A B_k) vanishing for all k < alpha, one per matrix.

    0 where the shift of the modes is not an eigenvalue; ``flv_modes`` takes
    it, with the per-degree vanishing test, as ``modes.alpha``.
    """
    return modes.alpha


def partial_multiplicities(modes: ModeSequence, policy: TolerancePolicy) -> np.ndarray:
    """Resolve beta(l) of each matrix from the ranks of its modes B_{alpha-l-2 .. alpha-l}.

    The ranks come from the singular values of the live modes and A that
    ``flv_modes`` took, with one rank count.  A's floor is the problem scale
    ``1 + ||A||_2 + |E|``, with E = ``modes.shift``.  The sum rules
    sum(beta) = gamma (with gamma = N - rank(A)) and sum(l beta) = alpha must
    come out exactly; a violation raises InconsistentRanksError rather than
    being silently repaired.  The counts are returned, one row per matrix
    with ``beta(l)`` in column l - 1; the first matrix that fails raises its
    error.
    """
    n = modes.n
    alpha = modes.alpha
    # a mode's floor is its Frobenius norm, A's the problem scale (A has no SVD at alpha 0)
    floor = modes.fro.copy()
    floor[alpha > 0, n] = problem_scale(modes.sigma[alpha > 0, n, 0], modes.shift)
    # ranks[:, j + 2] is rnk B_j, with rnk B_{-2} = rnk B_{-1} = 0, and ranks[:, -1] is
    # rnk A; a row that is not live has NaN singular values, none above its cutoff, so rank 0
    ranks = np.zeros((len(alpha), n + 3), dtype=int)
    ranks[:, 2:] = policy.rank(modes.sigma, floor)
    gamma = n - ranks[:, -1]

    # beta(l) = rnk B_{j-2} - 2 rnk B_{j-1} + rnk B_j at j = alpha - l; a
    # negative j reads the zeros of columns n .. 2n - 1
    second = np.zeros((len(alpha), 2 * n), dtype=int)
    np.add(ranks[:, :n] - 2 * ranks[:, 1 : n + 1], ranks[:, 2 : n + 2], out=second[:, :n])
    ls = np.arange(1, n + 1)
    beta = second[np.arange(len(alpha))[:, None], (alpha[:, None] - ls) % (2 * n)]
    sum_l, sum_1 = beta @ ls, np.add.reduce(beta, axis=1)
    negative = np.minimum.reduce(beta, axis=1) < 0
    checks = (alpha < 1, negative, sum_l != alpha, sum_1 != gamma)
    i = _first(checks[0] | checks[1] | checks[2] | checks[3])
    if i is not None:
        if checks[0][i]:
            raise ValueError(f"alpha must lie in 1..{n}, got {alpha[i]}")
        if checks[1][i]:
            l = int((beta[i] < 0).argmax()) + 1
            raise InconsistentRanksError(
                f"negative beta({l}) = {beta[i, l - 1]}; rank profile is not a "
                "Weyr-consistent sequence"
            )
        if checks[2][i]:
            raise InconsistentRanksError(
                f"sum rule sum(l * beta(l)) = {sum_l[i]} != alpha = {alpha[i]}"
            )
        raise InconsistentRanksError(f"sum rule sum(beta(l)) = {sum_1[i]} != gamma = {gamma[i]}")
    return beta


def weyr_oracle(a: np.ndarray, policy: TolerancePolicy, energy: complex) -> np.ndarray:
    """Partial multiplicities of eigenvalue 0 of each matrix from a nested-null-space staircase.

    Independent of the modal route, and takes no matrix powers (Kublanovskaya's
    algorithm as refined by Kagstrom & Ruhe, ACM TOMS 6 (1980) 398-419).  At
    each level the SVD ``B = U S V^H`` of the current block gives the Weyr
    width ``w_l``, the number of singular values at or below the cutoff; the
    next block is ``(V_1^H U_1) S_1``, B compressed onto the span of its r
    leading right singular vectors.  The staircase stops at a zero width, and
    ``beta(l) = w_l - w_{l+1}``.

    ``a`` is A = H - E, a stack of B equally sized matrices, shape (B, n, n),
    that ``classify_point`` validated, and ``energy`` is E.  The first level
    is the SVD of A, whose s_1 = ||A||_2 gives the problem scale
    ``1 + s_1 + |E|``, so an input that vanishes at that scale is treated as
    the zero matrix rather than as its own noise.  One cutoff,
    ``policy.rank_cutoff(s_1, 1 + s_1 + |E|)``, serves every level.  In exact
    arithmetic the widths then cannot increase: ``V_1^H U_1`` preserves norms
    on a subspace of codimension at most ``w_l``, so a wider next level would
    need a unit x with ``||S_1 x|| <= cutoff < s_r``.  And each level drops
    only singular values at or below the cutoff.  In floating point a later
    level's singular value can come out about 1e-16 relative below ``s_r``,
    so a cutoff that falls between the two widens the staircase; the negative
    count then raises InconsistentRanksError, never a silent result.

    Matrices whose blocks keep equal sizes share one SVD per level, and the
    widths and the grouping are array operations.  The counts are returned,
    one row per matrix with ``beta(l)`` in column l - 1, each bitwise what
    its matrix gives alone; the first matrix with a negative count raises
    its error.
    """
    n = a.shape[-1]
    # widths[i, l - 1] is w_l of matrix i; a staircase ends at a zero width
    widths = np.zeros((len(a), n + 1), dtype=int)
    # stacks of equally sized blocks at one level, with the matrices they belong to and their cutoffs
    work = [(np.arange(len(a)), a, None, 0)]
    while work:
        items, blocks, cut, level = work.pop()
        u, s, vh = np.linalg.svd(blocks)
        if cut is None:
            cut = policy.rank_cutoff(s[:, 0], problem_scale(s[:, 0], energy))[:, None]
        size = blocks.shape[-1]
        level_widths = np.add.reduce(s <= cut, axis=1)
        widths[:, level][items] = level_widths
        # a block of full rank ends its staircase, and one of rank zero is all null
        keys = set(level_widths.tolist())
        for w in sorted(keys - {0, size}):
            part = (items, u, s, vh, cut)
            if len(keys) > 1:
                # index before slicing: each product then sees its matrix's strides
                sel = level_widths == w
                part = (items[sel], u[sel], s[sel], vh[sel], cut[sel])
            ids, us, ss, vs, cs = part
            r = size - w
            block = (vs[:, :r] @ us[:, :, :r]) * ss[:, None, :r].astype(complex)
            work.append((ids, block, cs, level + 1))

    beta = widths[:, :-1] - widths[:, 1:]
    if beta.min() < 0:
        w = widths[int((beta.min(axis=1) < 0).argmax())].tolist()
        PartialMultiplicityFunction({l: w[l - 1] - w[l] for l in range(1, w.index(0) + 1)})
    return beta


def classify_point(
    h,
    energy: complex,
    policy: TolerancePolicy | None = None,
    *,
    method: str = "auto",
    k_point=None,
) -> DegeneracyReport | list[DegeneracyReport]:
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

    ``h`` may be a stack of B equally sized matrices, shape (B, n, n), with
    ``k_point`` then one momentum (or None) per matrix; a list of reports is
    returned.  One matrix is the stack of one.  The input is validated here
    only.  Each step runs once for the whole stack, with its decisions as
    array operations, so each report is bitwise the one its matrix gives
    alone.  Each route reads ||A||_2 from its own SVD of A, and refuses a
    problem scale that overflows.  A stack that fails is classified again
    one matrix at a time, so it raises the error of its first failing matrix.
    """
    policy = policy or TolerancePolicy()
    stacked = np.ndim(h) == 3
    if stacked and k_point is not None and len(k_point) != len(h):
        raise ValueError(f"need one k_point per matrix: {len(k_point)} for {len(h)} matrices")
    if stacked and not len(h):
        return []
    try:
        m = as_square_matrix(h)
        m = m if stacked else m[None]
        n = m.shape[-1]
        energy = complex(energy)
        if not np.isfinite(energy):
            raise ValueError(f"energy must be finite, got {energy}")

        if method == "auto":
            method = "modes" if n <= 16 else "weyr"
        if method not in ("modes", "weyr"):
            raise ValueError(f"unknown method {method!r}")

        eta_xi = [(math.nan, math.nan)] * len(m)
        if method == "modes":
            seqs = flv_modes(m, energy)
            alpha = seqs.alpha
            row = _first(alpha == 0)
            if row is not None:
                raise NotAnEigenvalueError(
                    f"c_0 = {seqs.coeffs[row, 0]:.3e} does not vanish at E = {energy}"
                )
            beta = partial_multiplicities(seqs, policy)
            oracle = weyr_oracle(seqs.shifted, policy, energy)
            row = _first((oracle != beta).any(axis=1))
            if row is not None:
                raise OracleDisagreementError(_pmf(beta[row].tolist()), _pmf(oracle[row].tolist()))
            # the largest block, ell, is the last nonzero count.  Where the sum rules
            # hold, B_j has rank 0 (it vanishes) below alpha - ell and B_{alpha - ell}
            # does not, and alpha is the first c_k that does not vanish: the
            # checks of response_strengths hold, and the strengths are read directly
            ell = n - (beta[:, ::-1] > 0).argmax(axis=1)
            found = strengths(seqs, alpha - ell)
            eta_xi = zip(found.eta.tolist(), found.xi.tolist())
        else:
            beta = weyr_oracle(m - energy * np.eye(n), policy, energy)
            if (np.add.reduce(beta, axis=1) == 0).any():
                raise NotAnEigenvalueError(f"rank(A) is full at E = {energy}")
    except (ValueError, RuntimeError):
        # the first matrix that fails alone raises its own error
        if stacked and len(h) > 1:
            for one in h:
                classify_point(one, energy, policy, method=method)
        raise

    k_points = (k_point if k_point is not None else [None] * len(m)) if stacked else [k_point]
    reports = [
        DegeneracyReport(
            energy=energy, beta=_pmf(row), eta=eta, xi=xi, policy=policy, k_point=k, method=method
        )
        for row, (eta, xi), k in zip(beta.tolist(), eta_xi, k_points)
    ]
    return reports if stacked else reports[0]
