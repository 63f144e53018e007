"""CHSH baseline for two-qubit states.

max_chsh evaluates the closed-form criterion 2*sqrt(s1^2 + s2^2) over the two
largest singular values of the Pauli correlation tensor (Horodecki, Horodecki
& Horodecki, PLA 200, 340, 1995). It is the package's only route to the CHSH
maximum; the tests cross-check it against a brute-force settings scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from renyi2.qstate import DensityOperator, _numbers, _require_all, _stack

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)
PAULI.setflags(write=False)
# PAULI_PAIRS[i, j] = sigma_i kron sigma_j
PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", PAULI, PAULI).reshape(3, 3, 4, 4)
PAULI_PAIRS.setflags(write=False)

ENTRY_TOL = 1e-10

# one implementation; perfbench/spread.py prints this as provenance
KERNEL_BACKEND = "numpy"


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """3x3 real matrix t_ij = Tr(rho sigma_i kron sigma_j)."""

    t: np.ndarray

    def __post_init__(self):
        t = _numbers("correlation matrix t", self.t, float)
        if t.shape != (3, 3):
            raise ValueError(f"correlation matrix must be 3x3, got {t.shape}")
        _check_correlations(t[None], stacked=False)
        t.setflags(write=False)
        object.__setattr__(self, "t", t)


def _check_correlations(t: np.ndarray, stacked: bool) -> np.ndarray:
    """CorrelationMatrix checks on an (n, 3, 3) stack; returns its singular values (n, 3)."""
    worst = np.abs(t).max(axis=(1, 2))
    _require_all(
        worst <= 1.0 + ENTRY_TOL,
        lambda i: f"correlation entries must lie in [-1, 1], max |t| = {worst[i]}",
        stacked,
    )
    s = np.linalg.svd(t, compute_uv=False)
    _require_all(
        s[:, 0] <= 1.0 + ENTRY_TOL, lambda i: f"largest singular value {s[i, 0]} exceeds 1", stacked
    )
    return s


def _pauli_correlations(matrices, dim_a: int, dim_b: int) -> np.ndarray:
    """t_ij = Tr(rho sigma_i kron sigma_j) of each member of an (n, 4, 4) stack."""
    m, dim_a, dim_b = _stack(matrices, dim_a, dim_b)
    if (dim_a, dim_b) != (2, 2):
        raise ValueError(f"dimension mismatch: need a 2x2 state, got {dim_a} x {dim_b}")
    return np.einsum("ijkl,nlk->nij", PAULI_PAIRS, m).real


def correlation_matrix(rho: DensityOperator) -> CorrelationMatrix:
    """The nine Pauli correlation traces of a two-qubit state."""
    return CorrelationMatrix(_pauli_correlations(rho.matrix[None], rho.dim_a, rho.dim_b)[0])


def max_chsh(rho: DensityOperator) -> float:
    """Maximal CHSH value over all settings; > 2 signals violation, cap 2*sqrt(2)."""
    return float(max_chsh_values(rho.matrix[None], rho.dim_a, rho.dim_b)[0])


def max_chsh_values(matrices, dim_a: int, dim_b: int) -> np.ndarray:
    """max_chsh of each member of a validated (n, 4, 4) stack of two-qubit states;
    any other shape, or dimensions other than 2 x 2, raise ValueError.

    One batched SVD of the correlation tensors runs the CorrelationMatrix
    checks (a failure names the index) and gives 2*sqrt(s1^2 + s2^2).
    """
    s = _check_correlations(_pauli_correlations(matrices, dim_a, dim_b), stacked=True)
    return 2.0 * np.sqrt(s[:, 0] ** 2 + s[:, 1] ** 2)
