"""Brute-force forms of the package's closed forms, kept as test oracles.

Each one builds the operators the physics is defined by and takes their
traces, with none of the closed forms the package computes with.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from renyi2.chsh import PAULI, correlation_matrix
from renyi2.experiment import CHANNELS, outcome_distributions
from fock_network import (
    DEFAULT_CAP,
    FockState,
    OutcomeClass,
    _kdag,
    _ldag,
    _VACUUM_KEY,
    beam_splitter,
    classify_outcome,
)


# -- explicit two-copy projectors ----------------------------------------------

PROJECTOR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ProjectorPair:
    """Projectors onto the symmetric/antisymmetric subspaces of dim x dim."""

    dim: int
    p_sym: np.ndarray
    p_anti: np.ndarray

    def __post_init__(self):
        d2 = self.dim * self.dim
        for name, p in (("p_sym", self.p_sym), ("p_anti", self.p_anti)):
            if p.shape != (d2, d2):
                raise ValueError(f"{name} has shape {p.shape}, expected ({d2}, {d2})")
            defect = float(np.max(np.abs(p @ p - p)))
            if defect > PROJECTOR_TOL:
                raise ValueError(f"{name} not idempotent, defect {defect:.3e}")
        if float(np.max(np.abs(self.p_sym @ self.p_anti))) > PROJECTOR_TOL:
            raise ValueError("projectors are not orthogonal")
        if float(np.max(np.abs(self.p_sym + self.p_anti - np.eye(d2)))) > PROJECTOR_TOL:
            raise ValueError("projectors do not resolve the identity")
        # the trace of a projector is its rank
        d = self.dim
        for name, p, want in (
            ("p_sym", self.p_sym, d * (d + 1) // 2),
            ("p_anti", self.p_anti, d * (d - 1) // 2),
        ):
            if abs(float(np.trace(p).real) - want) > 1e-9:
                raise ValueError(f"{name} has rank {np.trace(p).real:.6f}, expected {want}")
        for p in (self.p_sym, self.p_anti):
            p.setflags(write=False)


def _swap(dim: int) -> np.ndarray:
    """SWAP on dim x dim: |i>|j> -> |j>|i>."""
    s = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            s[i * dim + j, j * dim + i] = 1.0
    return s


def projectors(dim: int) -> ProjectorPair:
    """P_S = (I + SWAP)/2 and P_A = (I - SWAP)/2 on a dim x dim double copy."""
    if dim < 2:
        raise ValueError(f"single-copy dimension must be at least 2, got {dim}")
    s = _swap(dim)
    eye = np.eye(dim * dim)
    return ProjectorPair(dim, (eye + s) / 2.0, (eye - s) / 2.0)


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


SCAN_COARSE_STEP = np.pi / 9.0  # 20 degree grid
SCAN_REFINE_SHRINK = 0.2
SCAN_REFINE_ROUNDS = 3


def _unit_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit vectors for the (theta, phi) grid, shape (theta.size * phi.size, 3)."""
    t, p = np.meshgrid(theta, phi, indexing="ij")
    t = t.ravel()
    p = p.ravel()
    return np.column_stack((np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)))


def _scan(t, th1, ph1, th2, ph2):
    """Best CHSH value over the (a, a') angle grid.

    For fixed directions a, a' of the first observer, the optimum over the
    second observer's settings is |t^T(a + a')| + |t^T(a - a')| with vector
    norms, so only the four angles of (a, a') are scanned. Returns (value,
    i1, j1, i2, j2), the indices locating the argmax in the theta/phi grids
    of a and a'.
    """
    u1 = _unit_vectors(th1, ph1) @ t
    u2 = _unit_vectors(th2, ph2) @ t
    vals = np.linalg.norm(u1[:, None, :] + u2[None, :, :], axis=2)
    vals += np.linalg.norm(u1[:, None, :] - u2[None, :, :], axis=2)
    p, q = np.unravel_index(np.argmax(vals), vals.shape)
    i1, j1 = divmod(int(p), ph1.size)
    i2, j2 = divmod(int(q), ph2.size)
    return float(vals[p, q]), i1, j1, i2, j2


def settings_scan_max_chsh(rho) -> float:
    """max |E(a,b)+E(a,b')+E(a',b)-E(a',b')| over measurement directions, searched
    numerically with none of the singular-value closed form.

    Scans the first observer's two directions on a 20 degree grid, then runs
    refinement rounds that shrink the step by 0.2 and cover +-3 steps around
    the incumbent. Angles may wander outside the principal ranges during
    refinement; the parametrization stays a unit vector, so none is clamped.
    """
    t = correlation_matrix(rho)
    th = np.linspace(0.0, np.pi, 10)
    ph = np.arange(0.0, 2.0 * np.pi, SCAN_COARSE_STEP)
    val, i1, j1, i2, j2 = _scan(t, th, ph, th, ph)
    centers = [th[i1], ph[j1], th[i2], ph[j2]]
    step = SCAN_COARSE_STEP
    for _ in range(SCAN_REFINE_ROUNDS):
        step *= SCAN_REFINE_SHRINK
        grids = [c + step * np.arange(-3.0, 4.0) for c in centers]
        val, i1, j1, i2, j2 = _scan(t, *grids)
        centers = [grids[0][i1], grids[1][j1], grids[2][i2], grids[3][j2]]
    return val


# -- phase-Gram form of the outcome curves -------------------------------------
# The source state is sum_j z_j |s_j> with z = (1, e^{i phi}, e^{2 i phi}) and
# |s_j> = (K^dag^2 / 2, K^dag L^dag, L^dag^2 / 2) |vac> / sqrt(10). The splitters
# are linear, so the probability of outcome class c is z^dag G_c z with
# G_c[j, k] = sum over the kets of class c of conj(<ket|S|s_j>) <ket|S|s_k>.
# With G_c[0, 1] = G_c[1, 2] = 0 this is p_c = tr G_c + 2 Re(G_c[0, 2] e^{2 i phi}),
# the closed form renyi2.fock.outcome_curves evaluates from constants.

GRAM_TOL = 1e-14


def _check_phase_gram(gram: np.ndarray) -> None:
    """Raise unless every G_c is Hermitian, the e^{+-i phi} couplings vanish
    and G_other is zero."""
    asym = float(np.max(np.abs(gram - gram.conj().transpose(0, 2, 1))))
    if asym > GRAM_TOL:
        raise ValueError(f"phase Gram is not Hermitian (max |G - G^dag| = {asym:.3e})")
    coupling = float(np.max(np.abs(gram[:, [0, 1], [1, 2]])))
    if coupling > GRAM_TOL:
        raise ValueError(f"phase Gram has an e^(i phi) coupling of {coupling:.3e}; the period is not pi")
    other = float(np.max(np.abs(gram[tuple(OutcomeClass).index(OutcomeClass.OTHER)])))
    if other > GRAM_TOL:
        raise ValueError(f"phase Gram gives the OTHER class weight {other:.3e}")


@lru_cache(maxsize=None)
def phase_gram() -> np.ndarray:
    """The (5, 3, 3) matrices G_c, in OutcomeClass order, built from the Fock model.

    Built on first use, checked and cached; read-only.
    """
    vac = {_VACUUM_KEY: 1.0 + 0j}
    scale = 1.0 / sqrt(10.0)
    components = (
        (_kdag(_kdag(vac, DEFAULT_CAP), DEFAULT_CAP), 0.5),
        (_ldag(_kdag(vac, DEFAULT_CAP), DEFAULT_CAP), 1.0),
        (_ldag(_ldag(vac, DEFAULT_CAP), DEFAULT_CAP), 0.5),
    )
    amps: dict[tuple[int, ...], list[complex]] = {}
    for j, (raw, weight) in enumerate(components):
        part = FockState({occ: weight * a * scale for occ, a in raw.items()}, normalized=False)
        for occ, amp in beam_splitter(beam_splitter(part, 1, 2), 3, 4).amplitudes.items():
            amps.setdefault(occ, [0j, 0j, 0j])[j] = amp
    gram = np.zeros((len(OutcomeClass), 3, 3), dtype=complex)
    for c, cls in enumerate(OutcomeClass):
        rows = np.array([a for occ, a in amps.items() if classify_outcome(occ) is cls], dtype=complex)
        if rows.size:
            gram[c] = rows.conj().T @ rows
    _check_phase_gram(gram)
    gram.setflags(write=False)
    return gram


# -- one seed sequence per phase -------------------------------------------------


def loop_simulate_counts(config) -> np.ndarray:
    """The event table drawn phase by phase from default_rng([seed, k]), with
    the bucket losses taken in one broadcast binomial draw."""
    probs = outcome_distributions(config.phi_grid, config.visibility, config.background_rate)
    table = np.empty(probs.shape, dtype=np.int64)
    for k, row in enumerate(probs):
        rng = np.random.default_rng([config.seed, k])
        counts = rng.multinomial(config.shots_per_phase, row)
        if config.detector_model == "bucket_with_pbs":
            kept = rng.binomial(counts[:3], np.array([0.25, 0.5, 0.5]))  # cc, ca, ac
            counts[4] += (counts[:3] - kept).sum()
            counts[:3] = kept
        table[k] = counts
    return table


# -- one channel at a time -------------------------------------------------------


def loop_estimates(counts, detector_model: str) -> dict[str, tuple]:
    """(value, sigma, degenerate) of each channel, column by column, with the
    bucket factors (4, 2, 2, 1, 1) written out: the proportion q = n/N times
    the factor, and the factor times sqrt(q (1 - q) / N)."""
    table = np.asarray(counts, dtype=np.int64)
    n_total = table.sum(axis=1)
    factors = (4.0, 2.0, 2.0, 1.0, 1.0) if detector_model == "bucket_with_pbs" else (1.0,) * 5
    estimates = {}
    for ch, n, factor in zip(CHANNELS, table.T, factors):
        q = n / n_total
        estimates[ch] = (factor * q, factor * np.sqrt(q * (1.0 - q) / n_total), (n == 0) | (n == n_total))
    return estimates
