"""fepkit: classification of non-Hermitian degeneracies in lattice models.

The package identifies and characterizes spectral degeneracies of
non-Hermitian Hamiltonian matrices, from ordinary diabolic and exceptional
points to fragmented exceptional points where the eigenvectors only
partially coalesce.  The workhorse is the Faddeev-LeVerrier expansion of the
adjugate matrix: its mode ranks resolve the full partial-multiplicity
structure of a degeneracy, cross-checked against an independent
nested-null-space (staircase) oracle, and the same modes give the physical
and spectral response strengths.  A catalog of Lieb-lattice and higher-order
Dirac-semimetal models (bulk and open-boundary) exercises every degeneracy
type, with zone scanning, manifold tracing, response-exponent probes, and
hinge-state reports on top.
"""

from .adjugate import ModeSequence, ResponseStrengths, flv_modes, greens_modal, response_strengths
from .classify import DegeneracyReport, PartialMultiplicityFunction, classify_point
from .matkit import TolerancePolicy, numerical_rank, spectral_norm
from .models import (
    HingeGeometry,
    HodsmSpec,
    LiebSpec,
    hinge_hamiltonian,
    hodsm_bloch,
    lieb_bloch,
    model_from_id,
)
from .probes import (
    ExponentFit,
    HingeReport,
    atomistic_classify,
    decay_rate_fit,
    hinge_report,
    lineshape_exponent,
    splitting_exponent,
    symmetry_check,
)
from .scan import analytic_degeneracies, bz_scan, trace_ring

__version__ = "0.1.0"

__all__ = [
    "TolerancePolicy",
    "numerical_rank",
    "spectral_norm",
    "ModeSequence",
    "ResponseStrengths",
    "flv_modes",
    "greens_modal",
    "response_strengths",
    "PartialMultiplicityFunction",
    "DegeneracyReport",
    "classify_point",
    "LiebSpec",
    "HodsmSpec",
    "HingeGeometry",
    "lieb_bloch",
    "hodsm_bloch",
    "hinge_hamiltonian",
    "model_from_id",
    "bz_scan",
    "analytic_degeneracies",
    "trace_ring",
    "ExponentFit",
    "HingeReport",
    "lineshape_exponent",
    "splitting_exponent",
    "hinge_report",
    "atomistic_classify",
    "symmetry_check",
    "decay_rate_fit",
    "__version__",
]
