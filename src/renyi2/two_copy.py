"""Two-copy collision measurement.

The four collision probabilities of the symmetric/antisymmetric projectors
on two copies, the purity identities they encode, and the entropic
entanglement witness. Subscript order is (A, B): p_ca means the symmetric
(coalescence) outcome on the two A copies and the antisymmetric
(anticoalescence) outcome on the two B copies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from renyi2.qstate import DensityOperator, _numbers, _require_all, _stack

PROB_SUM_TOL = 1e-10
# slack for collision probabilities that land a hair outside [0, 1]
PROB_EDGE_TOL = 1e-10
# a margin above roundoff counts as a violation: pure product states sit exactly
# on the separability bound, and their computed margin can come out at +1e-16
MARGIN_TOL = 1e-12


@dataclass(frozen=True)
class CollisionProbabilities:
    """The quadruple (p_cc, p_ca, p_ac, p_aa); first subscript is side A."""

    p_cc: float
    p_ca: float
    p_ac: float
    p_aa: float

    def __post_init__(self):
        _check_quadruples(_numbers("collision probabilities", [self.as_tuple()], float), stacked=False)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_cc, self.p_ca, self.p_ac, self.p_aa)


def _check_quadruples(q: np.ndarray, stacked: bool) -> None:
    """Each row of the (n, 4) array q in [0, 1] (with edge slack) and summing to 1."""
    for k, name in enumerate(("p_cc", "p_ca", "p_ac", "p_aa")):
        v = q[:, k]
        ok = (v >= -PROB_EDGE_TOL) & (v <= 1.0 + PROB_EDGE_TOL)
        _require_all(ok, lambda i: f"{name} = {v[i]} outside [0, 1]", stacked)
    total = q.sum(axis=1)
    ok = np.abs(total - 1.0) <= PROB_SUM_TOL
    _require_all(ok, lambda i: f"probabilities sum to {total[i]}, expected 1", stacked)


def collision_probabilities(rho: DensityOperator) -> CollisionProbabilities:
    """The four traces Tr[(P_X kron P_Y)(rho kron rho)], X,Y in {S,A}, in closed form.

    Expanding P_S,A = (I +- SWAP)/2 on each side leaves the swap traces
    A = tr rho_A^2, B = tr rho_B^2 and J = tr rho^2 (both sides swapped), so
    p_cc = (1+A+B+J)/4, p_ca = (1+A-B-J)/4, p_ac = (1-A+B-J)/4, p_aa = (1-A-B+J)/4.
    The explicit trace over the projectors is the definition the tests check against.
    """
    q = collision_quadruples(rho.matrix[None], rho.dim_a, rho.dim_b)
    return CollisionProbabilities(*q[0].tolist())


def collision_quadruples(matrices, dim_a: int, dim_b: int) -> np.ndarray:
    """collision_probabilities of each member of a validated (n, d, d) stack, as rows
    (p_cc, p_ca, p_ac, p_aa) of an (n, 4) array, range and sum checked on the stack;
    any other shape, or dimensions that are not integers >= 2, raise ValueError."""
    m, dim_a, dim_b = _stack(matrices, dim_a, dim_b)
    if dim_a < 2 or dim_b < 2:
        raise ValueError(
            f"dimension mismatch: need a bipartite state with both local "
            f"dimensions >= 2, got {dim_a} x {dim_b}"
        )
    r = m.reshape(-1, dim_a, dim_b, dim_a, dim_b)
    # tr X^2 = sum |X_ij|^2 for Hermitian X
    j, a, b = (
        np.einsum("nij,nij->n", x.conj(), x).real
        for x in (m, np.einsum("nabcb->nac", r), np.einsum("nabad->nbd", r))
    )
    with np.errstate(over="ignore", invalid="ignore"):  # an entry near the float limit fails the range check
        q = np.stack([(1 + a + b + j) / 4, (1 + a - b - j) / 4, (1 - a + b - j) / 4, (1 - a - b + j) / 4], axis=1)
    _check_quadruples(q, stacked=True)
    return q


def purities_from_probabilities(
    p: CollisionProbabilities,
) -> tuple[float, float, float]:
    """Reconstruct (tr rho^2, tr rho_A^2, tr rho_B^2) from collision probabilities.

    tr rho^2   = p_cc - p_ca - p_ac + p_aa
    tr rho_A^2 = p_cc + p_ca - p_ac - p_aa
    tr rho_B^2 = p_cc - p_ca + p_ac - p_aa

    Results outside [0, 1] indicate inconsistent inputs; they are clamped and
    reported through a RuntimeWarning, never silently.
    """
    raw = (
        ("tr_rho2", p.p_cc - p.p_ca - p.p_ac + p.p_aa),
        ("tr_rhoA2", p.p_cc + p.p_ca - p.p_ac - p.p_aa),
        ("tr_rhoB2", p.p_cc - p.p_ca + p.p_ac - p.p_aa),
    )
    out = []
    for name, v in raw:
        if v < -1e-12 or v > 1.0 + 1e-12:
            warnings.warn(
                f"reconstructed {name} = {v:.6g} lies outside [0, 1]; clamped "
                f"(the input probabilities are not consistent with any state)",
                RuntimeWarning,
                stacklevel=2,
            )
        out.append(min(1.0, max(0.0, v)))
    return tuple(out)


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of the entropic witness on one set of collision probabilities.

    margin_a = p_aa - p_ca and margin_b = p_aa - p_ac; a margin above
    MARGIN_TOL violates the corresponding separability inequality. Significances are in
    standard deviations, present only when errors were supplied.
    """

    violated_a: bool
    violated_b: bool
    margin_a: float
    margin_b: float
    significance_a: float | None
    significance_b: float | None
    entangled: bool

    @property
    def significance(self) -> float | None:
        """Largest per-side significance, if errors were supplied."""
        sides = [s for s in (self.significance_a, self.significance_b) if s is not None]
        return max(sides) if sides else None


def _margin_significance(margin: float, s1: float, s2: float) -> float:
    # Gaussian propagation for a difference of two proportions
    # errors beyond the float range give a significance of 0, subnormal errors an infinite one
    with np.errstate(over="ignore"):
        denom = np.hypot(s1, s2)
        if denom == 0.0:
            return 0.0 if margin == 0.0 else np.copysign(np.inf, margin)
        return float(margin / denom)


def witness_margins(quadruples) -> np.ndarray:
    """(margin_a, margin_b) = (p_aa - p_ca, p_aa - p_ac) of each row of an (n, 4) quadruple stack;
    any other shape raises ValueError."""
    q = _numbers("quadruples", quadruples, float)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError(f"quadruples must form an (n, 4) array, got shape {q.shape}")
    with np.errstate(over="ignore"):  # a margin beyond the float range is inf
        return np.stack([q[:, 3] - q[:, 1], q[:, 3] - q[:, 2]], axis=1)


def entropic_witness(
    p: CollisionProbabilities,
    sigma: tuple[float, float, float, float] | None = None,
) -> WitnessVerdict:
    """Separability test p_ca >= p_aa and p_ac >= p_aa; violation flags entanglement.

    sigma, when given, holds exactly four standard errors, finite and
    non-negative, in the same order as the probabilities (cc, ca, ac, aa).
    """
    margin_a, margin_b = witness_margins([p.as_tuple()])[0].tolist()
    sig_a = sig_b = None
    if sigma is not None:
        s = _numbers("sigma", sigma, float)
        if s.shape != (4,):
            raise ValueError(f"sigma must hold 4 standard errors (cc, ca, ac, aa), got shape {s.shape}")
        _require_all(s >= 0.0, lambda i: f"standard errors must be non-negative, got {s[i]}", stacked=False)
        sig_a = _margin_significance(margin_a, s[3], s[1])
        sig_b = _margin_significance(margin_b, s[3], s[2])
    violated_a = margin_a > MARGIN_TOL
    violated_b = margin_b > MARGIN_TOL
    return WitnessVerdict(
        violated_a=violated_a,
        violated_b=violated_b,
        margin_a=float(margin_a),
        margin_b=float(margin_b),
        significance_a=sig_a,
        significance_b=sig_b,
        entangled=violated_a or violated_b,
    )
