"""Lattice model catalog: Lieb variants, Dirac-semimetal variants, hinge systems.

Lieb lattice (3 sites A, B, C per cell): the Bloch matrix always has the
chain structure

    [[0, P, 0],
     [Q, 0, R],
     [0, S, 0]]

with P, Q, R, S functions of k, so every variant is specified by those four
symbols.  Chirality pins all dispersive-band degeneracies to E = 0 and keeps
one flat band there.

Dirac semimetal (4 sites A, B, C, D per cell, stacked quadrupole planes with
pi-flux plaquettes): block off-diagonal Bloch matrices

    [[0, Q(k)],
     [R(k), 0]]

with the 2x2 blocks expanded in Pauli matrices.  Variant 0 is the Hermitian
parent; variants 1..4 add one fixed non-Hermitian intracell coupling pattern
of strength epsilon each, tabulated once as Pauli increments and shared by
the Bloch matrix and the open-boundary blocks.

The symbols and Bloch constructors broadcast over momenta: ``k`` is one
point, an array of shape ``(dims, ...)`` such as a meshgrid, or one array per
axis that broadcast together such as a sparse meshgrid.  The Bloch matrices
carry the broadcast shape as ``(..., n, n)`` stacks; each symbol keeps the
shape of the momenta it reads.

The open-boundary (hinge) Hamiltonian keeps x and y finite with kz a good
momentum and is real for every variant; unit cells are indexed row-major in
(x, y) with site order (A, B, C, D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "LiebSpec",
    "HodsmSpec",
    "HingeGeometry",
    "MODEL_IDS",
    "model_from_id",
    "lieb_pqrs",
    "lieb_bloch",
    "hodsm_pauli_coeffs",
    "hodsm_bloch",
    "hodsm_h_eps",
    "hodsm_closed_dispersion",
    "hinge_hamiltonian",
    "cell_index",
    "CHIRAL_LIEB",
    "CHIRAL_DSM",
    "ROTATION_C4",
    "generalized_reflection",
    "arccot",
]

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

LIEB_VARIANTS = ("hermitian", "nh-symmetric", "minimal-fep", "reciprocal")


def arccot(x: float) -> float:
    """Principal-branch arccotangent with range (0, pi)."""
    return math.pi / 2 - math.atan(x)


@dataclass(frozen=True)
class LiebSpec:
    """One Lieb-lattice variant with exactly its own parameters set.

    hermitian      - uniform couplings, no parameters
    nh-symmetric   - chirality- and reciprocity-preserving gain/loss epsilon
    minimal-fep    - reciprocity-breaking epsilon (hosts the minimal FEP)
    reciprocal     - phase-offset couplings with angles phi, psi
    """

    variant: str
    epsilon: float | None = None
    phi: float | None = None
    psi: float | None = None

    def __post_init__(self):
        if self.variant not in LIEB_VARIANTS:
            raise ValueError(f"unknown Lieb variant {self.variant!r}")
        needs = {
            "hermitian": (),
            "nh-symmetric": ("epsilon",),
            "minimal-fep": ("epsilon",),
            "reciprocal": ("phi", "psi"),
        }[self.variant]
        for name in ("epsilon", "phi", "psi"):
            value = getattr(self, name)
            if name in needs and value is None:
                raise ValueError(f"Lieb variant {self.variant!r} requires {name}")
            if name not in needs and value is not None:
                raise ValueError(f"Lieb variant {self.variant!r} does not take {name}")
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def dims(self) -> int:
        return 2


def lieb_pqrs(spec: LiebSpec, k) -> tuple:
    """The four off-diagonal symbols (P, Q, R, S) at momenta k = (kx, ky).

    Each symbol has the trailing shape of ``k`` (a scalar for one point).
    """
    kx, ky = k
    if spec.variant == "reciprocal":
        ephi = np.exp(1j * spec.phi)
        epsi = np.exp(1j * spec.psi)
        return (
            np.exp(1j * ky) - ephi,
            np.exp(-1j * ky) - ephi,
            np.exp(-1j * kx) - epsi,
            np.exp(1j * kx) - epsi,
        )
    eps = spec.epsilon or 0.0
    p = q = r = s = 1.0 + 0j
    if spec.variant == "nh-symmetric":
        p = q = 1 + 1j * eps
        r = s = 1 - 1j * eps
    elif spec.variant == "minimal-fep":
        p = 1 + 1j * eps
        s = 1 - 1j * eps
    return (
        p + np.exp(1j * ky),
        q + np.exp(-1j * ky),
        r + np.exp(-1j * kx),
        s + np.exp(1j * kx),
    )


def lieb_bloch(spec: LiebSpec, k) -> np.ndarray:
    """3x3 Bloch matrices of the requested variant (zero diagonal, chain pattern)."""
    p, q, r, s = lieb_pqrs(spec, k)
    h = np.zeros(np.broadcast_shapes(*map(np.shape, (p, q, r, s))) + (3, 3), dtype=complex)
    h[..., 0, 1], h[..., 1, 0], h[..., 1, 2], h[..., 2, 1] = p, q, r, s
    return h


# ---------------------------------------------------------------------------
# Dirac semimetal


@dataclass(frozen=True)
class HodsmSpec:
    """Dirac-semimetal variant 0 (Hermitian) or 1..4 (non-Hermitian).

    ``t`` and ``s`` are the intracell and intercell couplings of the parent
    quadrupole planes; the interplane criss-cross coupling is fixed at s/4.
    ``epsilon`` is the strength of the added non-Hermitian couplings, which
    variant 0 does not take.
    """

    variant: int
    t: float = -1.0
    s: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.variant not in range(5):
            raise ValueError(f"unknown hodsm variant {self.variant}")
        for name in ("t", "s", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.s == 0:
            raise ValueError("intercell coupling s must be nonzero")
        if self.variant == 0 and self.epsilon != 0:
            raise ValueError("hodsm variant 0 does not take epsilon")

    @property
    def dims(self) -> int:
        return 3


# per variant: Pauli increments (dq, dr) of the Bloch blocks Q and R per unit epsilon
_EPS_PAULI = np.array(
    [
        [[0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0.5, -0.5j, 0], [0, -0.5, -0.5j, 0]],
        [[0.5, 0, 0, 0.5], [0, -0.5, -0.5j, 0]],
        [[0, 0, 0, -1], [0, 0, 0, 0]],
        [[0.5, -0.5, 0.5j, 0.5], [0, 0, 0, 0]],
    ],
    dtype=complex,
)


def hodsm_pauli_coeffs(spec: HodsmSpec, k) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Pauli expansion coefficients (q_0..q_3, r_0..r_3) of the Bloch blocks.

    Returns two 4-tuples.  For momenta k = (kx, ky, kz) each coefficient has
    the broadcast shape of the momenta it reads: q_0 and r_0 of (kx, kz), q_1
    and r_1 of ky, q_2 and r_2 of (ky, kz), q_3 and r_3 of kx.  So a dense
    stack gives its trailing shape, a sparse meshgrid gives no coefficient
    the full grid (their products broadcast to it), and one point gives NumPy
    scalars.  Couplings near the float limit may overflow to non-finite
    coefficients, without a warning; their readers refuse them.
    """
    kx, ky, kz = k
    t, s = spec.t, spec.s
    with np.errstate(over="ignore", invalid="ignore"):
        tz = t + 0.5 * s * np.cos(kz)
        base = (
            tz + s * np.cos(kx),
            1j * s * np.sin(ky),
            1j * (tz + s * np.cos(ky)),
            1j * s * np.sin(kx),
        )
        dq, dr = spec.epsilon * _EPS_PAULI[spec.variant]
        q = tuple(b + d for b, d in zip(base, dq))
        r = tuple(np.conj(b) + d for b, d in zip(base, dr))
    return q, r


def _chiral_blocks(qc, rc) -> np.ndarray:
    """[[0, Q], [R, 0]] from the Pauli coefficients of Q and R."""
    q = sum(qc[i][..., None, None] * SIGMA[i] for i in range(4))
    r = sum(rc[i][..., None, None] * SIGMA[i] for i in range(4))
    h = np.zeros(q.shape[:-2] + (4, 4), dtype=complex)
    h[..., :2, 2:] = q
    h[..., 2:, :2] = r
    return h


def hodsm_bloch(spec: HodsmSpec, k) -> np.ndarray:
    """4x4 Bloch matrices [[0, Q], [R, 0]] in the (A, B, C, D) site basis."""
    return _chiral_blocks(*hodsm_pauli_coeffs(spec, k))


def hodsm_h_eps(variant: int, epsilon: float) -> np.ndarray:
    """The constant non-Hermitian addition of variant 1..4 (zero for variant 0)."""
    dq, dr = _EPS_PAULI[variant]
    return _chiral_blocks(epsilon * dq, epsilon * dr)


def hodsm_closed_dispersion(spec: HodsmSpec, kz: float) -> np.ndarray:
    """The four closed-form branch energies on the kx = ky = 0 line.

    Valid only in the s = -t = 1 normalization in which the closed forms are
    written; other parameters are rejected.  Returned sorted by (re, im) and
    matching the eigenvalues of the Bloch matrix as a multiset.
    """
    if not (spec.s == 1.0 and spec.t == -1.0):
        raise ValueError("closed-form dispersions assume the s = -t = 1 normalization")
    c = math.cos(kz)
    eps = spec.epsilon
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if spec.variant == 0:
        e = abs(c) * inv_sqrt2
        vals = [e, e, -e, -e]
    elif spec.variant == 1:
        inner = complex(eps**2 - c**2)
        branches = [
            complex(c**2 - eps**2) + sgn * eps * np.sqrt(inner) for sgn in (+1, -1)
        ]
        vals = []
        for b in branches:
            root = inv_sqrt2 * np.sqrt(b)
            vals.extend([root, -root])
    elif spec.variant == 2:
        root = inv_sqrt2 * np.sqrt(complex(c * (eps + c)))
        vals = [root, root, -root, -root]
    elif spec.variant == 3:
        vals = []
        for sgn in (+1, -1):
            root = inv_sqrt2 * np.sqrt(complex(c)) * np.sqrt(complex(c + sgn * math.sqrt(2) * eps))
            vals.extend([root, -root])
    else:
        vals = []
        for extra in (2 * eps * c, 0.0):
            root = inv_sqrt2 * np.sqrt(complex(c**2 + extra))
            vals.extend([root, -root])
    arr = np.asarray(vals, dtype=complex)
    return arr[np.lexsort((arr.imag, arr.real))]


# ---------------------------------------------------------------------------
# Open boundaries


@dataclass(frozen=True)
class HingeGeometry:
    """Finite extent in x and y (unit cells) at fixed momentum kz."""

    nx: int
    ny: int
    kz: float = 0.0

    def __post_init__(self):
        for name, size in (("nx", self.nx), ("ny", self.ny)):
            if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {size!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be at least 1")
        if not math.isfinite(self.kz):
            raise ValueError(f"kz must be finite, got {self.kz}")

    @property
    def sites(self) -> int:
        return 4 * self.nx * self.ny

    @property
    def cells(self) -> np.ndarray:
        """Cell indices as an nx x ny grid: ``cells[x - 1, y - 1] == cell_index(self, x, y)``."""
        return np.arange(self.nx * self.ny).reshape(self.nx, self.ny)


def cell_index(geom: HingeGeometry, x: int, y: int) -> int:
    """Row-major cell index for 1-based cell coordinates (x, y)."""
    if not (1 <= x <= geom.nx and 1 <= y <= geom.ny):
        raise ValueError(f"cell ({x}, {y}) outside {geom.nx} x {geom.ny} lattice")
    return (x - 1) * geom.ny + (y - 1)


# intracell coupling pattern multiplying (t + s/2 cos kz)
_INTRACELL = np.array(
    [[0, 0, 1, 1], [0, 0, -1, 1], [1, -1, 0, 0], [1, 1, 0, 0]], dtype=float
)


_NOT_FINITE = "the {what} is not finite: the model parameters overflow its entries"


def _intercell_blocks(s: float) -> tuple[np.ndarray, np.ndarray]:
    sx = s * np.array(
        [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]], dtype=float
    )
    sy = s * np.array(
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0]], dtype=float
    )
    return sx, sy


def hinge_hamiltonian(spec: HodsmSpec, geom: HingeGeometry) -> sp.csc_matrix:
    """Open-boundary Hamiltonian of dimension 4 * nx * ny, as a real sparse CSC matrix.

    Diagonal blocks are the reduced intracell Hamiltonian
    ``(t + s/2 cos kz) * M + h_eps``; neighboring cells couple through the
    fixed blocks s_x, s_y and their transposes.  Every block is real at
    every variant and kz: M, s_x and s_y are real, and each variant's Pauli
    increments combine into real site-basis entries of h_eps, so the matrix
    stores float64 and drops only the exactly zero imaginary part of
    ``hodsm_h_eps``.  Non-Hermiticity enters only through h_eps, so variant
    0 is exactly symmetric.  The nonzero entries of each 4x4 block are
    placed at the cell pairs it couples on the ``geom.cells`` grid, so rows
    follow ``cell_index``.
    """
    # scipy.sparse adds about 0.25 s to an import; only open systems use it
    import scipy.sparse as sp

    tz = spec.t + 0.5 * spec.s * math.cos(geom.kz)
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = tz * _INTRACELL + hodsm_h_eps(spec.variant, spec.epsilon).real
    if not np.isfinite(h0).all():
        raise ValueError(_NOT_FINITE.format(what="hinge Hamiltonian"))
    sx, sy = _intercell_blocks(spec.s)
    cell = 4 * geom.cells
    rows, cols, data = [], [], []
    for row_cells, col_cells, block in (
        (cell, cell, h0),
        (cell[:-1], cell[1:], sx),
        (cell[:, :-1], cell[:, 1:], sy),
        (cell[1:], cell[:-1], sx.T),
        (cell[:, 1:], cell[:, :-1], sy.T),
    ):
        i, j = np.nonzero(block)
        rows.append((row_cells.reshape(-1, 1) + i).ravel())
        cols.append((col_cells.reshape(-1, 1) + j).ravel())
        data.append(np.tile(block[i, j], row_cells.size))
    ij = (np.concatenate(rows), np.concatenate(cols))
    return sp.csc_matrix((np.concatenate(data), ij), shape=(geom.sites, geom.sites))


# ---------------------------------------------------------------------------
# Symmetry operators

# Bloch-cell involutions that anticommute with the Lieb and semimetal Bloch
# matrices, and the fourfold rotation of the quadrupole cell (squaring to -1 on
# the pi-flux lattice); like SIGMA, they are read, never written
CHIRAL_LIEB = np.diag([1.0, -1.0, 1.0]).astype(complex)
CHIRAL_DSM = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
ROTATION_C4 = np.zeros((4, 4), dtype=complex)
ROTATION_C4[:2, 2:] = np.eye(2)
ROTATION_C4[2:, :2] = -1j * SIGMA[2]


def generalized_reflection(geom: HingeGeometry) -> sp.csr_matrix:
    """The antidiagonal reflection with the A <-> B site swap and a sign flip on the C sublattice.

    It acts on the full open system, as a sparse real CSR signed permutation.
    """
    import scipy.sparse as sp

    if geom.nx != geom.ny:
        raise ValueError("antidiagonal reflection needs nx == ny")
    cell = geom.cells
    partner = cell[::-1, ::-1].T  # cell (x, y) goes to (nx + 1 - y, ny + 1 - x)
    site, site2 = np.arange(4), np.array([1, 0, 2, 3])  # A <-> B, C and D fixed
    rows = (4 * partner.reshape(-1, 1) + site2).ravel()
    cols = (4 * cell.reshape(-1, 1) + site).ravel()
    signs = np.tile([1.0, 1.0, -1.0, 1.0], cell.size)  # A, B, C, D by source site: the flip is on C
    return sp.csr_matrix((signs, (rows, cols)), shape=(geom.sites, geom.sites))


# ---------------------------------------------------------------------------
# Model registry


_HODSM = {"eps": 0.0, "t": -1.0, "s": 1.0}

#: CLI identifier -> (spec class, variant, the parameters it takes with their defaults)
_MODELS = {
    "lieb:hermitian": (LiebSpec, "hermitian", {}),
    "lieb:nh-symmetric": (LiebSpec, "nh-symmetric", {"eps": 1.0}),
    "lieb:minimal-fep": (LiebSpec, "minimal-fep", {"eps": 1.0}),
    "lieb:reciprocal": (LiebSpec, "reciprocal", {"phi": math.pi / 2, "psi": math.pi / 2}),
    "hodsm:h": (HodsmSpec, 0, {"t": -1.0, "s": 1.0}),
    "hodsm:nh1": (HodsmSpec, 1, _HODSM),
    "hodsm:nh2": (HodsmSpec, 2, _HODSM),
    "hodsm:nh3": (HodsmSpec, 3, _HODSM),
    "hodsm:nh4": (HodsmSpec, 4, _HODSM),
}

#: CLI-facing model identifiers (bit-exact strings)
MODEL_IDS = tuple(_MODELS)


def model_from_id(model_id: str, **params) -> LiebSpec | HodsmSpec:
    """Build a catalog model from its CLI identifier.

    Parameters: ``eps`` (non-Hermitian strength), ``t``, ``s`` (couplings),
    ``phi``, ``psi`` (reciprocal-variant angles); each identifier takes only
    those in its ``_MODELS`` row, and the others are rejected.
    """
    if model_id not in _MODELS:
        raise ValueError(f"unknown model id {model_id!r}")
    spec, variant, defaults = _MODELS[model_id]
    extra = set(params) - set(defaults)
    if extra:
        raise ValueError(f"model {model_id!r} does not take {sorted(extra)}")
    values = {**defaults, **params}
    return spec(variant, **{("epsilon" if k == "eps" else k): v for k, v in values.items()})


def bloch_matrix(spec: LiebSpec | HodsmSpec, k) -> np.ndarray:
    """Dispatch to the right Bloch constructor for either lattice family.

    Matrices with an entry that is not finite (couplings whose symbols
    overflow) are refused with a ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = lieb_bloch(spec, k) if isinstance(spec, LiebSpec) else hodsm_bloch(spec, k)
    if not np.isfinite(h).all():
        raise ValueError(_NOT_FINITE.format(what="Bloch matrix"))
    return h
