"""Brute-force forms of the per-state kernels, kept as test oracles.

Each one builds the operators the physics is defined by and takes their
traces, with none of the closed forms the package computes with.
"""

import numpy as np

from renyi2.chsh import PAULI
from renyi2.two_copy import projectors


def projector_collision_probabilities(rho) -> tuple[float, float, float, float]:
    """Tr[(P_X kron P_Y)(rho kron rho)] for X, Y in {S, A}, on the explicit double copy.

    The double copy lives on (A1 B1 A2 B2); the copies of each side are made
    adjacent before the projectors are applied.
    """
    da, db = rho.dim_a, rho.dim_b
    x = np.kron(rho.matrix, rho.matrix)
    x = (
        x.reshape(da, db, da, db, da, db, da, db)
        .transpose(0, 2, 1, 3, 4, 6, 5, 7)
        .reshape(x.shape)
    )
    pa, pb = projectors(da), projectors(db)
    return tuple(
        float(np.einsum("ij,ji->", np.kron(px, py), x).real)
        for px in (pa.p_sym, pa.p_anti)
        for py in (pb.p_sym, pb.p_anti)
    )


def kron_correlation_matrix(rho) -> np.ndarray:
    """t_ij = Tr(rho sigma_i kron sigma_j), one Kronecker product per entry."""
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            t[i, j] = np.trace(rho.matrix @ np.kron(PAULI[i], PAULI[j])).real
    return t


def loop_ppt_min_eigenvalue(rho) -> float:
    """Minimum eigenvalue of the partial transpose over B, built entry by entry:
    <a b| rho^T_B |c d> = <a d| rho |c b>."""
    da, db = rho.dim_a, rho.dim_b
    pt = np.empty((da * db, da * db), dtype=complex)
    for a in range(da):
        for b in range(db):
            for c in range(da):
                for d in range(db):
                    pt[a * db + b, c * db + d] = rho.matrix[a * db + d, c * db + b]
    return float(np.linalg.eigvalsh(pt)[0])
