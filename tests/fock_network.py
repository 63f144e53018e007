"""Bosonic Fock-space model of the four-photon interference experiment.

The network that derives the closed-form outcome curves of renyi2.fock, kept
beside oracles.py as their test oracle. The package neither contains nor
exports it; the tests rebuild renyi2.fock's curve constants from it.

Eight optical modes: four spatial ports (1, 2 feed side A; 3, 4 feed side B)
with two polarizations each. Occupation vectors are 8-tuples in the flat order
(1H, 1V, 2H, 2V, 3H, 3V, 4H, 4V). The source emits pairs into the spatial
pairs (1,3) and (2,4); the analysis beam splitters mix (1,2) and (3,4).

One port-pair operator, with a_iH the annihilator of port i's H mode, gives
both crystals' pairs:

    P_ij = a_iH a_jV - a_iV a_jH,        K = P_13,        L = P_24

K^dag L^dag |vac> is the two-singlet emission; K^dag^2 and L^dag^2 are the
single-crystal double pairs. The four-photon source state is

    (1/sqrt(10)) [ e^{i phi} K^dag L^dag + K^dag^2 / 2 + e^{2 i phi} L^dag^2 / 2 ] |vac>
"""

from __future__ import annotations

import cmath
from enum import Enum
from math import comb, factorial, sqrt

import numpy as np

from renyi2.fock import CHANNELS
from renyi2.qstate import DensityOperator, _COUNT, _Record, _integer, _numbers

NORM_TOL = 1e-10
DEFAULT_CAP = 4
N_MODES = 8

_VACUUM_KEY = (0,) * N_MODES


class Polarization(Enum):
    H = 0
    V = 1


class ModeIndex(_Record, eq=True):
    """One of the 8 optical modes: spatial port 1..4, polarization H or V."""

    __slots__ = ("spatial", "polarization")

    def __init__(self, spatial: int, polarization: Polarization):
        spatial = _integer("spatial index", spatial, 1, 4, "1..4")
        if isinstance(polarization, str):
            try:
                polarization = Polarization[polarization]
            except KeyError:
                raise ValueError(f"polarization must be H or V, got {polarization!r}") from None
        elif not isinstance(polarization, Polarization):
            raise ValueError(f"polarization must be H or V, got {polarization!r}")
        self._fill(spatial, polarization)

    @property
    def flat(self) -> int:
        return 2 * (self.spatial - 1) + self.polarization.value


# the outcome classes, one per channel of renyi2.fock.CHANNELS, in that order
OutcomeClass = Enum("OutcomeClass", [(ch.upper(), ch) for ch in CHANNELS], module=__name__)


class FockState:
    """Sparse complex amplitude map over occupation vectors of the 8 modes.

    normalized=True asserts sum |amp|^2 = 1 within 1e-10; unnormalized
    intermediates carry the flag explicitly. Occupation entries are bounded by
    the photon cap (default 4).
    """

    __slots__ = ("amplitudes", "normalized", "cap")

    def __init__(self, amplitudes: dict, normalized: bool = True, cap: int = DEFAULT_CAP):
        cap = _integer("photon cap", cap, *_COUNT)
        amps: dict[tuple[int, ...], complex] = {}
        for occ, amp in amplitudes.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != N_MODES:
                raise ValueError(f"occupation vector must have {N_MODES} entries, got {occ}")
            if min(occ) < 0:
                raise ValueError(f"negative occupation in {occ}")
            if max(occ) > cap:
                raise ValueError(f"occupation {occ} exceeds the photon cap {cap}")
            a = complex(amp)
            if a != 0:
                amps[occ] = a
        _numbers("amplitudes", list(amps.values()), complex, (None,))
        if normalized:
            nrm = sum(abs(a) ** 2 for a in amps.values())
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state not normalized: sum |amp|^2 = {nrm!r}")
        self.amplitudes = amps
        self.normalized = normalized
        self.cap = cap

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amplitudes.values())

    def inner(self, other: "FockState") -> complex:
        """<self|other> over the shared sparse support."""
        small, big = self.amplitudes, other.amplitudes
        if len(big) < len(small):
            return complex(np.conj(other.inner(self)))
        return sum(a.conjugate() * big[occ] for occ, a in small.items() if occ in big)

    def to_normalized(self) -> "FockState":
        nrm = sqrt(self.norm_sq())
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return FockState(
            {occ: a / nrm for occ, a in self.amplitudes.items()},
            normalized=True,
            cap=self.cap,
        )


def vacuum(cap: int = DEFAULT_CAP) -> FockState:
    return FockState({_VACUUM_KEY: 1.0}, normalized=True, cap=cap)


def apply_creation(state: FockState, mode: ModeIndex) -> FockState:
    """Creation operator on one mode; returns an unnormalized state.

    Raises when any resulting occupation would exceed the cap; otherwise it
    is the truncating `_shift` below, which then drops nothing.
    """
    idx = mode.flat
    for occ in state.amplitudes:
        if occ[idx] + 1 > state.cap:
            raise ValueError(
                f"photon cap {state.cap} exceeded: creation on mode {mode} of {occ}"
            )
    return FockState(_shift(state.amplitudes, idx, 1, state.cap), normalized=False, cap=state.cap)


# -- raw-dict operator algebra (internal) ------------------------------------
# The Hamiltonian expansion needs annihilators and cap *truncation* (dropping
# over-cap kets) rather than a hard error: truncation is what the cap means
# for series intermediates, and the accepted expansion orders are exactly the
# ones whose four-photon sector truncation cannot touch.


def _shift(amps: dict, idx: int, step: int, cap: int) -> dict:
    """a^dag (step 1) or a (step -1) on flat mode idx, dropping kets taken
    below 0 or above the cap; the factor is sqrt of the larger occupation."""
    out: dict[tuple[int, ...], complex] = {}
    for occ, a in amps.items():
        n = occ[idx]
        if not 0 <= n + step <= cap:
            continue
        key = occ[:idx] + (n + step,) + occ[idx + 1 :]
        out[key] = out.get(key, 0j) + a * sqrt(max(n, n + step))
    return out


def _acc(dst: dict, src: dict, scale: complex = 1.0) -> None:
    for k, v in src.items():
        dst[k] = dst.get(k, 0j) + scale * v


def _pair(amps: dict, ports: tuple[int, int], step: int, cap: int) -> dict:
    """P_ij = a_iH a_jV - a_iV a_jH on spatial ports (i, j), or P_ij^dag for step 1."""
    i, j = (2 * (s - 1) for s in ports)
    out: dict[tuple[int, ...], complex] = {}
    _acc(out, _shift(_shift(amps, i, step, cap), j + 1, step, cap))
    _acc(out, _shift(_shift(amps, i + 1, step, cap), j, step, cap), -1.0)
    return out


def _kdag(amps: dict, cap: int) -> dict:
    return _pair(amps, (1, 3), 1, cap)


def _ldag(amps: dict, cap: int) -> dict:
    return _pair(amps, (2, 4), 1, cap)


def _apply_hamiltonian(amps: dict, phi: float, cap: int) -> dict:
    # H = (K + K^dag) + (L e^{-i phi} + L^dag e^{i phi}), coupling folded out
    out: dict[tuple[int, ...], complex] = {}
    _acc(out, _pair(amps, (1, 3), 1, cap))
    _acc(out, _pair(amps, (1, 3), -1, cap))
    _acc(out, _pair(amps, (2, 4), 1, cap), cmath.exp(1j * phi))
    _acc(out, _pair(amps, (2, 4), -1, cap), cmath.exp(-1j * phi))
    return out


def spdc_four_photon_state(phi: float, cap: int = DEFAULT_CAP) -> FockState:
    """The normalized four-photon emission of the two-crystal source.

    Squared weights: 2/5 on the two-singlet component, 3/10 on each of the
    single-crystal double-pair components.
    """
    vac = {_VACUUM_KEY: 1.0 + 0j}
    out: dict[tuple[int, ...], complex] = {}
    _acc(out, _ldag(_kdag(vac, cap), cap), cmath.exp(1j * phi))
    _acc(out, _kdag(_kdag(vac, cap), cap), 0.5)
    _acc(out, _ldag(_ldag(vac, cap), cap), 0.5 * cmath.exp(2j * phi))
    scale = 1.0 / sqrt(10.0)
    return FockState(
        {occ: a * scale for occ, a in out.items()}, normalized=True, cap=cap
    )


def hamiltonian_expansion(phi: float, order: int, cap: int = DEFAULT_CAP) -> FockState:
    """Truncated series sum_{k<=order} (-iH)^k / k! applied to vacuum.

    Unnormalized; kets beyond the photon cap are dropped during expansion.
    """
    order = _integer("expansion order", order, 0, _COUNT[1], "a non-negative integer below 2**63")
    total = {_VACUUM_KEY: 1.0 + 0j}
    term = {_VACUUM_KEY: 1.0 + 0j}
    for k in range(1, order + 1):
        term = _apply_hamiltonian(term, phi, cap)
        term = {occ: a * (-1j) / k for occ, a in term.items()}
        _acc(total, term)
    return FockState(total, normalized=False, cap=cap)


def hamiltonian_four_photon_term(
    phi: float, order: int = 2, cap: int = DEFAULT_CAP
) -> FockState:
    """Normalized four-photon sector of the Hamiltonian series at the given order.

    Orders 2 and 3 (at the default cap) are exact: odd series orders cannot
    produce a net four-photon component, so the sector is proportional to
    (K^dag + e^{i phi} L^dag)^2 |vac> and matches the source state up to a
    global phase. From order cap/2 + 2 the series contains paths through
    above-cap intermediates that the truncation silently removes, so those
    orders are rejected instead of returning a subtly wrong sector.
    """
    order = _integer("expansion order", order, 2, _COUNT[1], "an integer of at least 2, below 2**63")
    cap = _integer("photon cap", cap, *_COUNT)
    if order > cap // 2 + 1:
        raise ValueError(
            f"photon cap {cap} exceeded at order {order}: the four-photon sector "
            f"would need intermediates beyond the cap"
        )
    series = hamiltonian_expansion(phi, order, cap)
    four = {occ: a for occ, a in series.amplitudes.items() if sum(occ) == 4}
    return FockState(four, normalized=False, cap=cap).to_normalized()


_BS_MATRICES = {
    # a -> (a + b)/sqrt(2), b -> (a - b)/sqrt(2); real and self-inverse
    "real": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / sqrt(2.0),
    # i-phase convention; outcome probabilities must not depend on this choice
    "symmetric": np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / sqrt(2.0),
}


def _bs_pair(amps: dict, ia: int, ib: int, m: np.ndarray) -> dict:
    """Two-mode splitter on flat modes (ia, ib): a^dag -> m00 a^dag + m01 b^dag,
    b^dag -> m10 a^dag + m11 b^dag, expanded ket by ket."""
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in amps.items():
        n1, n2 = occ[ia], occ[ib]
        if n1 == 0 and n2 == 0:
            out[occ] = out.get(occ, 0j) + amp
            continue
        base = amp / sqrt(factorial(n1) * factorial(n2))
        ket = list(occ)
        for j in range(n1 + 1):
            cj = comb(n1, j) * m[0, 0] ** j * m[0, 1] ** (n1 - j)
            for k in range(n2 + 1):
                ck = comb(n2, k) * m[1, 0] ** k * m[1, 1] ** (n2 - k)
                p, q = j + k, n1 + n2 - j - k
                ket[ia], ket[ib] = p, q
                key = tuple(ket)
                out[key] = out.get(key, 0j) + base * cj * ck * sqrt(factorial(p) * factorial(q))
    return out


def beam_splitter(
    state: FockState, spatial_a: int, spatial_b: int, convention: str = "real"
) -> FockState:
    """50:50 beam splitter on a spatial mode pair, polarization preserved.

    Applies the two-mode transformation to the H pair and the V pair of the
    given spatial ports. Unitary, so the normalization flag carries over. It
    conserves photon number but can bunch photons onto one mode, so the
    output's cap is the input's, or the largest output occupation if higher.
    """
    if spatial_a == spatial_b:
        raise ValueError(f"beam splitter needs two distinct spatial modes, got {spatial_a}")
    pairs = [(ModeIndex(spatial_a, pol).flat, ModeIndex(spatial_b, pol).flat) for pol in Polarization]
    try:
        m = _BS_MATRICES[convention]
    except KeyError:
        raise ValueError(f"unknown beam-splitter convention {convention!r}") from None
    amps = state.amplitudes
    for ia, ib in pairs:
        amps = _bs_pair(amps, ia, ib, m)
    cap = max([state.cap, *map(max, amps)])
    return FockState(amps, normalized=state.normalized, cap=cap)


def classify_outcome(pattern) -> OutcomeClass:
    """Coalescence taxonomy of a post-splitter detection pattern.

    Per side (A = ports 1,2; B = ports 3,4): two photons in one port is
    coalescence, one photon in each port is anticoalescence, anything other
    than exactly two photons on a side is OTHER. Total over all patterns.
    """
    occ = tuple(int(n) for n in pattern)
    if len(occ) != N_MODES:
        raise ValueError(f"pattern must have {N_MODES} entries, got {occ}")
    ports = [occ[2 * s] + occ[2 * s + 1] for s in range(4)]
    if ports[0] + ports[1] != 2 or ports[2] + ports[3] != 2:
        return OutcomeClass.OTHER
    a = "a" if ports[0] == 1 else "c"
    b = "a" if ports[2] == 1 else "c"
    return OutcomeClass(a + b)


class CoincidenceRecord(_Record, eq=True):
    """Outcome-class probabilities after both beam splitters."""

    __slots__ = CHANNELS

    def __init__(self, cc: float, ca: float, ac: float, aa: float, other: float):
        vals = (cc, ca, ac, aa, other)
        for name, v in zip(CHANNELS, vals):
            _numbers(name, v, float, ())
        if min(vals) < -1e-12:
            raise ValueError(f"negative probability in {vals}")
        total = sum(vals)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"outcome probabilities sum to {total}, expected 1")
        self._fill(*vals)

    def as_dict(self) -> dict[str, float]:
        return {ch: getattr(self, ch) for ch in CHANNELS}


def coincidence_probabilities(state: FockState) -> CoincidenceRecord:
    """Send the state through both splitters and bin |amplitude|^2 by outcome."""
    if not state.normalized:
        raise ValueError("coincidence probabilities need a normalized state")
    after = beam_splitter(beam_splitter(state, 1, 2), 3, 4)
    totals = dict.fromkeys(CHANNELS, 0.0)
    for occ, amp in after.amplitudes.items():
        totals[classify_outcome(occ).value] += abs(amp) ** 2
    return CoincidenceRecord(**totals)


def conditional_state_after_anticoalescence(state: FockState, side: str) -> DensityOperator:
    """Two-qubit polarization state left on the far side after conditioning.

    Post-selects one photon per output port at `side` and, jointly, one photon
    per port on the far side (without that restriction the far side's two-port
    polarization state is not a two-qubit operator). The conditioning side is
    then traced out. Basis of the result: |HH>, |HV>, |VH>, |VV> over the far
    side's (lower, higher) output ports.
    """
    if side not in ("A", "B"):
        raise ValueError(f'side must be "A" or "B", got {side!r}')
    if not state.normalized:
        raise ValueError("conditioning needs a normalized state")
    # amplitudes of the kets with one photon per port, indexed by each port's
    # polarization bit (H=0, V=1, which is its V count); psi is side A x side B
    after = beam_splitter(beam_splitter(state, 1, 2), 3, 4)
    psi = np.zeros((2, 2, 2, 2), dtype=complex)
    for occ, amp in after.amplitudes.items():
        if all(h + v == 1 for h, v in zip(occ[::2], occ[1::2])):
            psi[occ[1::2]] = amp
    psi = psi.reshape(4, 4)
    far = psi.T if side == "A" else psi
    rho = far @ far.conj().T
    prob = float(np.trace(rho).real)
    if prob < 1e-12:
        raise ValueError("conditioning event has zero probability")
    return DensityOperator(2, 2, rho / prob)
