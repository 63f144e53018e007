"""Finite-dimensional density-operator algebra.

Basis convention: computational product ordering with H mapped to index 0 and
V to index 1, so a two-qubit matrix is indexed |HH>, |HV>, |VH>, |VV>.
Subsystem A is always the first tensor factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Eigenvalue floor rather than Cholesky: boundary states (werner at the PPT
# threshold, projectors) sit numerically on the PSD edge.
PSD_TOL = 1e-10


def _require_finite(name: str, values) -> None:
    """ValueError naming the field unless every entry is finite: NaN passes any `x > tol`."""
    a = np.asarray(values)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a[~np.isfinite(a)][0]}")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Validated trace-one Hermitian PSD matrix on a dim_a x dim_b system.

    dim_b = 1 marks a monopartite state. Instances are immutable; every
    operation below returns a fresh validated value.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError(
                f"dimensions must be positive integers, got {self.dim_a} x {self.dim_b}"
            )
        m = np.array(self.matrix, dtype=complex)
        d = self.dim_a * self.dim_b
        if m.shape != (d, d):
            raise ValueError(
                f"dimension mismatch: matrix shape {m.shape}, expected ({d}, {d})"
            )
        _require_finite("matrix", m)
        herm_defect = float(np.max(np.abs(m - m.conj().T))) if d else 0.0
        if herm_defect > HERMITICITY_TOL:
            raise ValueError(
                f"not Hermitian: max |M - M^dag| = {herm_defect:.3e} "
                f"exceeds {HERMITICITY_TOL:.0e}"
            )
        trace_defect = abs(complex(m.trace()) - 1.0)
        if trace_defect > TRACE_TOL:
            raise ValueError(
                f"trace is not 1: |Tr M - 1| = {trace_defect:.3e} exceeds {TRACE_TOL:.0e}"
            )
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -PSD_TOL:
            raise ValueError(
                f"not positive semidefinite: min eigenvalue {min_eig:.3e} "
                f"below -{PSD_TOL:.0e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def make_density(matrix, dim_a: int, dim_b: int) -> DensityOperator:
    """Validate a complex square matrix as a density operator.

    Raises ValueError naming the violated invariant (Hermiticity, trace,
    positivity, or shape) and by how much.
    """
    return DensityOperator(dim_a, dim_b, matrix)


# (|HV> - |VH>)/sqrt(2) in the |HH>,|HV>,|VH>,|VV> basis
SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
SINGLET_VEC.setflags(write=False)


def singlet() -> DensityOperator:
    """Projector onto the two-qubit singlet (|HV> - |VH>)/sqrt(2)."""
    return DensityOperator(2, 2, np.outer(SINGLET_VEC, SINGLET_VEC))


def werner(p: float) -> DensityOperator:
    """Werner-family state p * singlet + (1 - p) * I/4."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must be in [0, 1], got {p}")
    m = p * np.outer(SINGLET_VEC, SINGLET_VEC) + (1.0 - p) * np.eye(4) / 4.0
    return DensityOperator(2, 2, m)


def tensor(rho: DensityOperator, sigma: DensityOperator) -> DensityOperator:
    """Kronecker product; the two factors become subsystems A and B of the result."""
    return DensityOperator(rho.dim, sigma.dim, np.kron(rho.matrix, sigma.matrix))


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Reduced operator on the kept subsystem, selector "A" or "B"."""
    if keep not in ("A", "B"):
        raise ValueError(f'invalid subsystem selector {keep!r}, expected "A" or "B"')
    da, db = rho.dim_a, rho.dim_b
    r = rho.matrix.reshape(da, db, da, db)
    if keep == "A":
        return DensityOperator(da, 1, np.einsum("abcb->ac", r))
    return DensityOperator(db, 1, np.einsum("abad->bd", r))


def purity(rho: DensityOperator) -> float:
    """Tr(rho^2), real and in [1/d, 1]."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def ppt_min_eigenvalue(rho: DensityOperator) -> float:
    """Minimum eigenvalue of the partial transpose over subsystem B.

    Negative iff entangled for a 2x2 system. The B-side transpose is a fixed
    convention; in 2x2 the sign of the minimum eigenvalue is side-independent.
    """
    if rho.dim_b < 2:
        raise ValueError("partial transpose needs a bipartite state (dim_b >= 2)")
    da, db = rho.dim_a, rho.dim_b
    pt = rho.matrix.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim)
    return float(np.linalg.eigvalsh(pt)[0])


def random_density(
    dim_a: int,
    dim_b: int,
    rng: np.random.Generator,
    components: int | None = None,
) -> DensityOperator:
    """Random mixture of Haar pure states with Dirichlet weights.

    components defaults to the total dimension (generically full rank);
    components=1 draws a single Haar-random pure state.
    """
    d = dim_a * dim_b
    k = d if components is None else components
    if k < 1:
        raise ValueError(f"need at least one mixture component, got {k}")
    weights = rng.dirichlet(np.ones(k))
    m = np.zeros((d, d), dtype=complex)
    for w in weights:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    m = (m + m.conj().T) / 2.0  # scrub roundoff skew before validation
    return DensityOperator(dim_a, dim_b, m)
