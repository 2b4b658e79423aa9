"""Acceptance checks runnable from the CLI (`fepkit selftest`) and from pytest.

Each criterion is a function that raises AssertionError with a diagnostic on
failure and returns a one-line detail string on success.  The pytest module
``tests/test_acceptance.py`` parametrizes over the same registry, so the CLI
and the test suite cannot drift apart.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adjugate import flv_modes, greens_modal
from .classify import PartialMultiplicityFunction, classify_point
from .matkit import TolerancePolicy
from .models import (
    HingeGeometry,
    HodsmSpec,
    LiebSpec,
    arccot,
    hinge_hamiltonian,
    hodsm_bloch,
    lieb_bloch,
)
from .probes import (
    atomistic_classify,
    cluster_radius,
    decay_rate_fit,
    hinge_report,
    lineshape_exponent,
    splitting_exponent,
    symmetry_check,
)
from .scan import analytic_degeneracies, bz_scan, trace_ring

PI = math.pi
POLICY = TolerancePolicy()

#: figure-parameter non-Hermitian strengths per semimetal variant
FIGURE_EPS = {0: 0.0, 1: 2**-0.5, 2: 2**-0.5, 3: 0.5, 4: 8**-0.5}


def _fingerprint(report) -> tuple[int, int, tuple[int, ...]]:
    return report.alpha, report.gamma, report.partials


def _expect(report, want, where: str) -> None:
    got = _fingerprint(report)
    assert got == want, f"{where}: got (alpha, gamma, partials) = {got}, want {want}"


# ---------------------------------------------------------------------------
# generators shared with the property tests


def jordan_blocks(sizes) -> np.ndarray:
    n = sum(sizes)
    j = np.zeros((n, n), dtype=complex)
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            j[pos + i, pos + i + 1] = 1.0
        pos += s
    return j


def random_partition(rng: np.random.Generator, total: int) -> list[int]:
    sizes = []
    rem = total
    while rem:
        s = int(rng.integers(1, rem + 1))
        sizes.append(s)
        rem -= s
    return sizes


def planted_jordan(
    rng: np.random.Generator,
    n: int,
    sizes,
    cond: float = 1.0,
) -> np.ndarray:
    """T (J(0, sizes) + other simple eigenvalues) T^{-1} with cond(T) = cond."""
    m = sum(sizes)
    if m > n:
        raise ValueError("block sizes exceed the dimension")
    j = np.zeros((n, n), dtype=complex)
    j[:m, :m] = jordan_blocks(sizes)
    for i in range(m, n):
        j[i, i] = rng.uniform(0.5, 2.0) * np.exp(2j * PI * rng.uniform())
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    if cond == 1.0:
        return q @ j @ q.conj().T
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    t = q @ np.diag(np.geomspace(1.0, cond, n)) @ v.conj().T
    return t @ j @ np.linalg.inv(t)


# ---------------------------------------------------------------------------
# criteria


def criterion_1_lieb_table() -> str:
    """Integer-exact Lieb classification table."""
    r = classify_point(lieb_bloch(LiebSpec("hermitian"), (PI, PI)), 0.0, POLICY)
    _expect(r, (3, 3, (1, 1, 1)), "hermitian at (pi, pi)")

    nh = LiebSpec("nh-symmetric", epsilon=1.0)
    k0 = math.acos(1.0 / 2 - 1.0)
    assert abs(k0 - 2 * PI / 3) < 1e-12
    for mu in (1, -1):
        for nu in (1, -1):
            r = classify_point(lieb_bloch(nh, (mu * k0, nu * k0)), 0.0, POLICY)
            _expect(r, (3, 1, (3,)), f"nh-symmetric at ({mu}, {nu}) k0")

    mf = LiebSpec("minimal-fep", epsilon=1.0)
    r = classify_point(lieb_bloch(mf, (PI, PI)), 0.0, POLICY)
    _expect(r, (3, 2, (2, 1)), "minimal-fep at (pi, pi)")
    kappa = 2 * arccot(0.5)
    r = classify_point(lieb_bloch(mf, (kappa, -kappa)), 0.0, POLICY)
    _expect(r, (3, 1, (3,)), "minimal-fep at (kappa, -kappa)")
    return "tribolic + 4 EP3 + FEP(2,1) + EP3, all integer-exact"


def criterion_2_reciprocal_manifolds() -> str:
    """Reciprocal-model FEP/EP3 locations, ring and line samples."""
    # four isolated points at psi = 3pi/4, phi = pi/2
    spec = LiebSpec("reciprocal", phi=PI / 2, psi=3 * PI / 4)
    expected = {
        (3 * PI / 4, PI / 2): "FEP",
        (-3 * PI / 4, -PI / 2): "FEP",
        (3 * PI / 4, -PI / 2): "EP3",
        (-3 * PI / 4, PI / 2): "EP3",
    }
    catalog = analytic_degeneracies(spec)
    assert len(catalog) == 4, f"expected 4 analytic entries, got {len(catalog)}"
    for entry in catalog:
        match = min(expected, key=lambda p: max(abs(a - b) for a, b in zip(p, entry.k)))
        err = max(abs(a - b) for a, b in zip(match, entry.k))
        assert err <= 1e-8, f"analytic point {entry.k} off by {err:.2e}"
        assert entry.label == expected[match], (
            f"at {match}: got {entry.label}, want {expected[match]}"
        )
        r = classify_point(lieb_bloch(spec, entry.k), 0.0, POLICY)
        assert r.label == expected[match]
    cands = bz_scan(spec, 128, POLICY)
    assert len(cands) == 4, f"scan found {len(cands)} candidates, want 4"
    for c in cands:
        match = min(expected, key=lambda p: max(abs(a - b) for a, b in zip(p, c.k_point)))
        err = max(abs(a - b) for a, b in zip(match, c.k_point))
        assert err <= 1e-8, f"scan candidate {c.k_point} off by {err:.2e}"
        assert c.label == expected[match], (
            f"scan at {match}: got {c.label}, want {expected[match]}"
        )

    # ring at phi = psi = pi/4: 62 EP3 + 2 FEP at +-(pi/4, pi/4)
    ring = trace_ring(LiebSpec("reciprocal", phi=PI / 4, psi=PI / 4), 64, POLICY)
    counts = Counter(r.label for r in ring)
    assert counts == {"EP3": 62, "FEP": 2}, f"ring labels {dict(counts)}"
    fep_k = sorted(r.k_point for r in ring if r.label == "FEP")
    for got, want in zip(fep_k, [(-PI / 4, -PI / 4), (PI / 4, PI / 4)]):
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8

    # lines at phi = psi = pi/2: FEPs only at +-(pi/2, pi/2)
    lines = trace_ring(LiebSpec("reciprocal", phi=PI / 2, psi=PI / 2), 64, POLICY)
    feps = sorted(r.k_point for r in lines if r.label == "FEP")
    assert all(r.alpha == 3 for r in lines)
    assert len(feps) == 2, f"line FEP count {len(feps)}"
    for got, want in zip(feps, [(-PI / 2, -PI / 2), (PI / 2, PI / 2)]):
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8
    assert all(r.label == "EP3" for r in lines if r.k_point not in feps)
    return "4 points + ring(62 EP3/2 FEP) + lines(FEPs only at +-(pi/2, pi/2))"


def criterion_3_hodsm_table() -> str:
    """Integer-exact bulk table of the semimetal variants at s = -t = 1."""
    table = [
        (0, 0.0, [PI / 2, -PI / 2], (4, 4, (1, 1, 1, 1))),
        (1, 2**-0.5, [PI / 2, -PI / 2], (2, 2, (1, 1))),
        (1, 2**-0.5, [PI / 4, -PI / 4, 3 * PI / 4, -3 * PI / 4], (4, 1, (4,))),
        (2, 2**-0.5, [PI / 2, -PI / 2, 3 * PI / 4, -3 * PI / 4], (4, 2, (3, 1))),
        (3, 0.5, [PI / 2, -PI / 2], (4, 2, (2, 2))),
        (3, 0.5, [PI / 4, -PI / 4, 3 * PI / 4, -3 * PI / 4], (2, 1, (2,))),
        (4, 8**-0.5, [PI / 2, -PI / 2], (4, 3, (2, 1, 1))),
        (4, 8**-0.5, [3 * PI / 4, -3 * PI / 4], (2, 1, (2,))),
    ]
    checked = 0
    for variant, eps, kzs, want in table:
        spec = HodsmSpec(variant, epsilon=eps)
        for kz in kzs:
            r = classify_point(hodsm_bloch(spec, (0.0, 0.0, kz)), 0.0, POLICY)
            _expect(r, want, f"variant {variant} at kz = {kz:+.4f}")
            checked += 1
    return f"{checked} bulk degeneracies integer-exact"


def criterion_4_response_strengths() -> str:
    """eta and xi at the (2,2) FEP plus eta = xi at rank-1 leading modes."""
    r = classify_point(
        hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0.0, 0.0, PI / 2)), 0.0, POLICY
    )
    assert abs(r.eta - 0.7071068) <= 1e-6, f"eta = {r.eta!r}"
    assert abs(r.xi - 0.5) <= 1e-6, f"xi = {r.xi!r}"
    assert abs(r.eta / r.xi - math.sqrt(2)) <= 1e-9, f"eta/xi = {r.eta / r.xi!r}"

    rank1_cases = [
        (lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (2 * arccot(0.5), -2 * arccot(0.5)))),
        (hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0.0, 0.0, PI / 4))),
        (hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0.0, 0.0, 3 * PI / 4))),
        (lieb_bloch(LiebSpec("nh-symmetric", epsilon=1.0), (2 * PI / 3, 2 * PI / 3))),
        (hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0.0, 0.0, PI / 4))),
    ]
    for h in rank1_cases:
        r = classify_point(h, 0.0, POLICY)
        assert r.gamma == 1, "rank-1 case list must contain only EPn points"
        assert abs(r.eta - r.xi) <= 1e-10 * r.eta, f"eta != xi at EP{r.alpha}"
    return f"eta = 0.7071068, xi = 0.5, ratio sqrt(2); eta = xi at {len(rank1_cases)} EPn"


def criterion_5_oracle_equivalence() -> str:
    """Modal route == Weyr oracle == planted structure on random Jordan plants."""
    rng = np.random.default_rng(2024)
    trials = 500
    for trial in range(trials):
        n = int(rng.integers(2, 9))
        sizes = random_partition(rng, int(rng.integers(1, n + 1)))
        want = PartialMultiplicityFunction.from_partials(sizes)
        # the modal route raises OracleDisagreementError on any disagreement
        r = classify_point(planted_jordan(rng, n, sizes), 0.0, POLICY, method="modes")
        assert r.beta == want, f"trial {trial}: {r.beta.beta} want {want.beta}"
    # the worked 16-dimensional example with partial multiplicities (4,4,3,2,2,1)
    sizes = (4, 4, 3, 2, 2, 1)
    a = planted_jordan(rng, 16, sizes)
    r = classify_point(a, 0.0, POLICY, method="modes")
    assert (r.alpha, r.gamma) == (16, 6), f"worked example: ({r.alpha}, {r.gamma})"
    assert r.partials == sizes, f"worked example partials {r.partials}"
    return f"{trials} plants + (4,4,3,2,2,1) worked example, 100% agreement"


def criterion_6_resolvent_identity() -> str:
    """Modal Green's function vs direct inversion, 1e-10 relative."""
    rng = np.random.default_rng(7)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(2, 9))
        h = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
        shift = complex(rng.normal(), rng.normal())
        energy = complex(rng.normal(), rng.normal())
        ev = np.linalg.eigvals(h)
        radius = cluster_radius(float(np.linalg.norm(h, 2)))
        if np.min(np.abs(ev - energy)) < radius:
            continue
        modal = greens_modal(flv_modes(h, shift), energy)[0]
        direct = np.linalg.inv(energy * np.eye(n) - h)
        rel = np.linalg.norm(modal - direct) / np.linalg.norm(direct)
        worst = max(worst, float(rel))
        done += 1
    assert worst <= 1e-10, f"worst relative resolvent error {worst:.3e}"
    return f"100 random (H, shift, E): worst relative error {worst:.1e}"


def criterion_7_exponent_laws() -> str:
    """Lineshape slopes -2 ell within 2%, splitting slopes 1/ell within 5%."""
    lineshape_cases = [
        (np.diag([1.0, 2.0]).astype(complex), 1.0, 1),
        (hodsm_bloch(HodsmSpec(3, epsilon=0.5), (0, 0, PI / 2)), 0.0, 2),
        (hodsm_bloch(HodsmSpec(2, epsilon=2**-0.5), (0, 0, PI / 2)), 0.0, 3),
        (hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 4)), 0.0, 4),
    ]
    details = []
    for h, energy, ell in lineshape_cases:
        fit = lineshape_exponent(h, energy)
        want = -2.0 * ell
        assert abs(fit.slope - want) <= 0.02 * abs(want), (
            f"lineshape ell={ell}: slope {fit.slope:.4f}, want {want}"
        )
        assert fit.r_squared >= 0.99
        details.append(f"{fit.slope:.3f}")

    splitting_cases = [
        (hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 4)), 0.0, 4),
        (lieb_bloch(LiebSpec("minimal-fep", epsilon=1.0), (PI, PI)), 0.0, 2),
        (hodsm_bloch(HodsmSpec(1, epsilon=2**-0.5), (0, 0, PI / 2)), 0.0, 1),
    ]
    for h, energy, ell in splitting_cases:
        fit = splitting_exponent(h, energy)
        want = 1.0 / ell
        assert abs(fit.slope - want) <= 0.05 * want, (
            f"splitting ell={ell}: slope {fit.slope:.4f}, want {want}"
        )
        assert fit.r_squared >= 0.99
        details.append(f"{fit.slope:.3f}")
    return "slopes " + " ".join(details)


def criterion_8_atomistic_limit() -> str:
    """Zero-mode partial multiplicities in the decoupled-corner limit."""
    for variant, want in [(0, (1, 1, 1, 1)), (2, (3, 1)), (3, (2, 2)), (4, (2, 1, 1))]:
        spec = HodsmSpec(variant, t=-0.5, s=1.0, epsilon=FIGURE_EPS[variant])
        r = atomistic_classify(spec, POLICY)
        assert r.partials == want, f"variant {variant}: {r.partials}, want {want}"

    spec = HodsmSpec(1, t=-0.5, s=1.0, epsilon=FIGURE_EPS[1])
    r = atomistic_classify(spec, POLICY)
    assert r.partials == (1, 1), f"variant 1 exact zero modes: {r.partials}"
    pair = {}
    for cells in (3, 5):
        geom = HingeGeometry(cells, cells, kz=0.0)
        ev = np.sort(np.abs(np.linalg.eigvals(hinge_hamiltonian(spec, geom).toarray())))
        pair[cells] = float(ev[2])  # first nonzero pair above the two exact zeros
        assert ev[2] > 1e-6 and ev[2] < abs(spec.s), f"pair energy {ev[2]} at {cells} cells"
    assert pair[5] < pair[3], f"pair energy must shrink with chain length: {pair}"
    return f"partials exact; variant-1 pair |E|: {pair[3]:.3f} -> {pair[5]:.3f}"


def criterion_9_hinge_vicinity() -> str:
    """Gram ranks, spectral gaps, and Kramers pairing of the hinge quadruplets."""
    geom = HingeGeometry(20, 20, kz=0.0)
    want_rank = {0: 4, 1: 1, 2: 2, 3: 2, 4: 3}
    ranks = {}
    for variant in range(5):
        rep = hinge_report(HodsmSpec(variant, epsilon=FIGURE_EPS[variant]), geom)
        assert rep.gram_rank == want_rank[variant], (
            f"variant {variant}: gram rank {rep.gram_rank}, want {want_rank[variant]}"
        )
        assert rep.gap_ratio >= 5.0, f"variant {variant}: gap ratio {rep.gap_ratio:.2f}"
        for i in range(4):
            total = float(rep.intensity_maps[i].sum())
            assert abs(total - 1.0) <= 1e-9, f"intensity map {i} sums to {total}"
        ranks[variant] = rep.gram_rank
    res = symmetry_check(HodsmSpec(0), "kramers", geom)
    assert res.passed, f"Kramers pairing failed: {res.witness}"
    return f"gram ranks {ranks}, gaps >= 5, Kramers pairing holds"


def criterion_10_decay_rates() -> str:
    """Per-cell hinge decay ratios against the double-semi-infinite values."""
    tall = HingeGeometry(10, 34, kz=0.0)
    wide = HingeGeometry(34, 10, kz=0.0)
    v0 = HodsmSpec(0, t=-1.0, s=1.0)
    details = []
    for corner in ("A", "B"):
        for geom, axis in ((tall, "y"), (wide, "x")):
            fit = decay_rate_fit(v0, geom, corner, axis)
            assert abs(fit.ratio - 0.5) <= 0.05, (
                f"variant 0 corner {corner} axis {axis}: ratio {fit.ratio:.4f}"
            )
    details.append("v0: 0.5 at A/B corners, both axes")

    v1 = HodsmSpec(1, t=-1.0, s=1.0, epsilon=0.25)
    fit = decay_rate_fit(v1, tall, "B", "y")
    assert abs(fit.ratio - 0.25) <= 0.025, f"variant 1 B/y ratio {fit.ratio:.4f}"
    details.append(f"v1 B/y: {fit.ratio:.4f}")
    fit = decay_rate_fit(v1, wide, "B", "x")
    assert abs(fit.ratio - 0.5) <= 0.05, f"variant 1 B/x ratio {fit.ratio:.4f}"
    details.append(f"v1 B/x: {fit.ratio:.4f}")
    return "; ".join(details)


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    check: Callable[[], str]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "Lieb classification table", criterion_1_lieb_table),
    Criterion(2, "reciprocal Lieb manifolds", criterion_2_reciprocal_manifolds),
    Criterion(3, "semimetal bulk table", criterion_3_hodsm_table),
    Criterion(4, "response strengths", criterion_4_response_strengths),
    Criterion(5, "oracle equivalence", criterion_5_oracle_equivalence),
    Criterion(6, "resolvent identity", criterion_6_resolvent_identity),
    Criterion(7, "exponent laws", criterion_7_exponent_laws),
    Criterion(8, "atomistic limit", criterion_8_atomistic_limit),
    Criterion(9, "hinge vicinity", criterion_9_hinge_vicinity),
    Criterion(10, "decay rates", criterion_10_decay_rates),
)


def run(stream=None) -> int:
    """Run all criteria, print one pass/fail line each, return a process code."""
    failures = 0
    for crit in CRITERIA:
        start = time.time()
        try:
            detail = crit.check()
            line = (
                f"PASS criterion {crit.number} ({crit.title}) "
                f"[{time.time() - start:.1f}s]: {detail}"
            )
        except Exception as exc:  # a criterion that raises fails alone; the rest still run
            failures += 1
            reason = exc if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"
            line = f"FAIL criterion {crit.number} ({crit.title}): {reason}"
        if stream:
            print(line, file=stream, flush=True)
    return 1 if failures else 0
