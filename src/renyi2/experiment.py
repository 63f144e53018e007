"""Stochastic run emulation and the analysis chain on top of it.

simulate_counts draws per-phase multinomial samples from a noise-mixed
outcome distribution into one int64 table, estimate_probabilities converts
it to proportion estimates held as read-only arrays (including the
bucket-detector factor-2 correction), fit_interference(phi, y, sigma)
performs the weighted cosine fit with the period fixed at pi on three 1-D
arrays of one length, and witness_from_run strings the stages into a
JSON-ready report whose counts are rows in _COUNT_FIELDS order.
"""

import math
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np

from .fock import CHANNELS, outcome_curves
from .qstate import MAX_GRID_POINTS, _integer, _numbers, _probability, _require_all
from .two_copy import CollisionProbabilities, entropic_witness

# columns of one row of the report's count table
_COUNT_FIELDS = ("phi",) + tuple(f"n_{ch}" for ch in CHANNELS)

# weight of the singlet x singlet component in the four-photon source state;
# curve minima sit on this scale relative to the two-copy singlet values
SINGLET_FRACTION = 0.4

# a margin is only called a violation when it clears this many standard errors
MIN_SIGNIFICANCE = 3.0

# factor by which each coalescence channel is undercounted by bucket
# detectors behind a polarizing splitter: a two-photon port registers as two
# detectors only when the photons split H/V, probability 1/2 per side
_BUCKET_KEEP = (0.25, 0.5, 0.5)  # cc, ca, ac
# the factors that undo each detector model's losses, one per channel in CHANNELS order
_CORRECTION_FACTORS = {
    "number_resolving": np.ones(len(CHANNELS)),
    "bucket_with_pbs": 1.0 / np.array([*_BUCKET_KEEP, 1.0, 1.0]),
}
for _factors in _CORRECTION_FACTORS.values():
    _factors.flags.writeable = False
DETECTOR_MODELS = tuple(_CORRECTION_FACTORS)

# numpy's multinomial takes the shot count as a C long
MAX_SHOTS = 2**63 - 1

# SeedSequence's hash-mix constants (numpy/random/bit_generator.pyx); numpy's
# stream-compatibility policy freezes them
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF


def _correction_factors(detector_model: str) -> np.ndarray:
    """Per-channel factors that undo the detector model's coalescence losses."""
    try:
        return _CORRECTION_FACTORS[detector_model]
    except (KeyError, TypeError):
        raise ValueError(
            f"detector_model must be one of {DETECTOR_MODELS}, got {detector_model!r}"
        ) from None


@dataclass(frozen=True)
class RunConfig:
    """Settings of one simulated phase scan."""

    phi_grid: tuple
    shots_per_phase: int
    visibility: float = 1.0
    background_rate: float = 0.0
    seed: int = 0
    detector_model: str = "number_resolving"

    def __post_init__(self):
        grid = self.phi_grid
        # a 0-d array has __iter__, but iterating it raises TypeError
        if isinstance(grid, (str, bytes, dict)) or not hasattr(grid, "__iter__") or getattr(grid, "ndim", 1) == 0:
            raise ValueError(f"phi_grid must be a sequence of numbers, got {grid!r}")
        # one entry past the limit is enough to refuse the grid
        phases = _numbers("phi_grid entry", list(islice(grid, MAX_GRID_POINTS + 1)), float)
        if phases.ndim != 1:
            raise ValueError(f"phi_grid must be a sequence of numbers, got {grid!r}")
        if not len(phases):
            raise ValueError("phi_grid is empty")
        if len(phases) > MAX_GRID_POINTS:
            raise ValueError(f"phi_grid has more than {MAX_GRID_POINTS} phases")
        object.__setattr__(self, "phi_grid", tuple(phases.tolist()))  # not an array: the dataclass hashes its fields
        shots = _integer(
            "shots_per_phase", self.shots_per_phase, 1, MAX_SHOTS,
            f"a positive integer no larger than {MAX_SHOTS}",
        )
        object.__setattr__(self, "shots_per_phase", shots)
        for name in ("visibility", "background_rate"):
            object.__setattr__(self, name, _probability(name, getattr(self, name)))
        seed = _integer("seed", self.seed, 0, 2**64 - 1, "a 64-bit unsigned integer")
        object.__setattr__(self, "seed", seed)
        _correction_factors(self.detector_model)

    def as_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "phi_grid": list(self.phi_grid)}


def outcome_distributions(phi_grid, visibility: float, background_rate: float) -> np.ndarray:
    """Five-class probabilities (cc, ca, ac, aa, other) under the noise model,
    one row per phase.

    With probability `visibility` the event follows the ideal four-photon
    distribution at phi; otherwise the photons are distinguishable and each
    side coalesces independently with probability 1/2. A `background_rate`
    fraction of accidentals is uniform over the five classes.
    """
    visibility = _probability("visibility", visibility)
    background_rate = _probability("background_rate", background_rate)
    flat = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
    signal = visibility * outcome_curves(phi_grid) + (1.0 - visibility) * flat
    return (1.0 - background_rate) * signal + background_rate * np.full(5, 0.2)


def simulate_counts(config: RunConfig) -> np.ndarray:
    """Draw the (phases, 5) int64 event table, columns in CHANNELS order;
    deterministic for a fixed seed.

    Row k is drawn from its own stream, default_rng([seed, k]), so it does
    not depend on the rest of the grid.
    """
    probs = outcome_distributions(config.phi_grid, config.visibility, config.background_rate)
    table = np.empty(probs.shape, dtype=np.int64)
    shots = config.shots_per_phase
    bucket = config.detector_model == "bucket_with_pbs"
    generators = _phase_generators(config.seed, len(probs))
    for k, (rng, row) in enumerate(zip(generators, probs)):
        counts = rng.multinomial(shots, row)
        if bucket:
            # three scalar draws take the same stream as one broadcast draw, in a third of the time
            *coalesced, n_aa, n_other = counts.tolist()
            kept = [rng.binomial(n, p) for n, p in zip(coalesced, _BUCKET_KEEP)]
            counts = (*kept, n_aa, n_other + sum(coalesced) - sum(kept))
        table[k] = counts
    return table


def _phase_generators(seed: int, n: int):
    """The n Generators default_rng([seed, k]), k = 0 .. n-1, seeded from one
    vectorized SeedSequence pass instead of one SeedSequence per phase."""
    # numpy.random takes ~5 ms to import in a fresh process that has numpy (numpy 2.4,
    # Python 3.11, 2-core VM, _hashlib blocked as the CLI entry does; ~6 ms and ~3.3 MB
    # of OpenSSL's libcrypto through secrets otherwise): only a simulation pays it
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class PhaseSeed(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError(f"phase seed holds 4 uint64 words, asked for {n_words} {dtype}")
            return self.state

    return (Generator(PCG64(PhaseSeed(state))) for state in _phase_states(seed, np.arange(n)))


def _phase_states(seed: int, phases: np.ndarray) -> np.ndarray:
    """(len(phases), 4) uint64 array whose row for phase index k is
    SeedSequence([seed, k]).generate_state(4, np.uint64).

    SeedSequence's mix runs on all entropy pools at once, in wrapping uint32
    arithmetic. The entropy [seed words, k] must fit its four-word pool: seed
    below 2**64 (two words) and every k below 2**32 (one word).
    """
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((_SS_POOL_WORDS, len(phases)), dtype=np.uint32)
    pool[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool[len(words)] = phases

    hashmix = _ss_hashmix(_SS_INIT_A, _SS_MULT_A)
    for i in range(_SS_POOL_WORDS):
        pool[i] = hashmix(pool[i])
    for src in range(_SS_POOL_WORDS):
        for dst in range(_SS_POOL_WORDS):
            if src != dst:
                mixed = np.uint32(_SS_MIX_L) * pool[dst] - np.uint32(_SS_MIX_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))

    # generate_state(4, np.uint64): eight output words cycling over the pool,
    # paired little-endian into uint64; PCG64 reads each row's buffer, so rows are contiguous
    output = _ss_hashmix(_SS_INIT_B, _SS_MULT_B)
    state = np.array([output(pool[i % _SS_POOL_WORDS]) for i in range(8)], dtype=np.uint64)
    return np.ascontiguousarray((state[0::2] | (state[1::2] << np.uint64(32))).T)


def _ss_hashmix(hash_const: int, multiplier: int):
    """SeedSequence's hashmix on uint32 arrays, with its running hash constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * multiplier & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hashmix


@dataclass(frozen=True, eq=False)
class ChannelEstimate:
    """Per-phase proportion estimates of one outcome channel, as read-only arrays."""

    phi: np.ndarray
    value: np.ndarray
    sigma: np.ndarray
    degenerate: np.ndarray  # True where the raw count was 0 or N (sigma collapses)


def estimate_probabilities(phi_grid, counts, detector_model: str) -> dict[str, ChannelEstimate]:
    """Multinomial proportions with standard errors sqrt(p(1-p)/N).

    counts is the event table of simulate_counts: one row of five
    non-negative integer counts (CHANNELS order) per entry of phi_grid, with
    each row's total at most MAX_SHOTS.
    Under bucket_with_pbs the observed cc/ca/ac counts are scaled back up by
    the detection factor (4, 2, 2) before normalization; the estimate of
    `other` then includes the lost coalescence events and is reported as-is.
    Every channel is estimated in one pass over the table; each estimate
    holds its channel's columns.
    """
    factors = _correction_factors(detector_model)
    phi, table, n_total = _validated_counts(phi_grid, counts)
    n_total = n_total[:, None]
    q = table / n_total
    value = factors * q
    sigma = _binomial_stderr(q, n_total, factors)
    degenerate = (table == 0) | (table == n_total)
    for column in (phi, value, sigma, degenerate):
        column.flags.writeable = False
    return {ch: ChannelEstimate(phi, value[:, c], sigma[:, c], degenerate[:, c]) for c, ch in enumerate(CHANNELS)}


def _validated_counts(phi_grid, counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(float64 copy of phases, int64 table, row totals); ValueError naming the first fault."""
    phi = _numbers("phi", phi_grid, float)
    if phi.ndim != 1 or phi.size == 0:
        raise ValueError(f"phi_grid must be a non-empty sequence of phases, got shape {phi.shape}")
    # a count above MAX_SHOTS turns negative in int64, and so does the first
    # partial sum of a row whose total passes MAX_SHOTS
    table = _numbers("counts", counts, np.int64)
    if table.shape != (phi.size, len(CHANNELS)):
        raise ValueError(
            f"counts must be a ({phi.size}, {len(CHANNELS)}) table, one row per phase, got shape {table.shape}"
        )
    _require_all(
        table.ravel() >= 0,
        lambda k: f"n_{CHANNELS[k % len(CHANNELS)]} must be a non-negative integer no larger than {MAX_SHOTS}, "
        f"got {np.asarray(counts).flat[k]} at phi={phi[k // len(CHANNELS)]}",
        stacked=False,
    )
    partial = np.cumsum(table, axis=1)
    ok = partial.min(axis=1) >= 0
    _require_all(ok, lambda i: f"counts at phi={phi[i]} total more than {MAX_SHOTS}", stacked=False)
    n_total = partial[:, -1]
    _require_all(n_total != 0, lambda i: f"zero total counts at phi={phi[i]}", stacked=False)
    return phi, table, n_total


def _binomial_stderr(q: np.ndarray, n_total: np.ndarray, factor) -> np.ndarray:
    """factor * sqrt(q (1 - q) / N) at the proportion q, elementwise over
    arrays that broadcast (a proportion table, its (phases, 1) row totals and
    one factor per channel)."""
    return factor * np.sqrt(q * (1.0 - q) / n_total)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Weighted cosine fit offset + amplitude*cos(2*phi + phase_origin)."""

    offset: float
    amplitude: float
    phase_origin: float
    residual_rms: float
    minima_locations: tuple
    minima_values: tuple
    minima_stderr: tuple
    covariance: np.ndarray

    def as_dict(self) -> dict:
        """Every field but the covariance, tuples as lists."""
        items = ((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "covariance")
        return {name: list(v) if isinstance(v, tuple) else v for name, v in items}


_MAX_CONDITION = 1e12
# the fit lists one minimum per period in the scanned range, and takes cos(2 phi),
# so phases are kept within this many periods of 0
_MAX_PERIODS = 1000


def fit_interference(phi, y, sigma) -> FitResult:
    """Weighted least squares of y = c0 + a*cos(2 phi) + b*sin(2 phi), with
    standard errors sigma; phi, y and sigma are 1-D arrays of one length.

    The period is fixed at pi. Needs at least 4 points spanning half a
    period and lying within _MAX_PERIODS periods of 0; every standard error
    must be positive and finite (they set the weights), and a refused one is
    named with its index. Scaling every sigma by one factor, at any
    magnitude, scales only the errors and the covariance.
    Minima are listed within the scanned phase range (the principal one in
    [0, pi) when the range contains none), all at value offset - amplitude.
    """
    phi, y = _numbers("phi", phi, float), _numbers("y", y, float)
    sigma = _numbers("sigma", sigma, float, stacked=True)
    if phi.ndim != 1 or y.shape != phi.shape or sigma.shape != phi.shape:
        raise ValueError(
            f"phi, y and sigma must be 1-D arrays of one length, got shapes {phi.shape}, {y.shape}, {sigma.shape}"
        )
    if len(phi) < 4:
        raise ValueError(f"need at least 4 points, got {len(phi)}")
    _require_all(sigma > 0.0, lambda i: f"sigma must be positive, got {sigma[i]}", stacked=True)
    if np.abs(phi).max() > _MAX_PERIODS * np.pi:
        raise ValueError(f"phi must lie within {_MAX_PERIODS} periods of 0 (|phi| <= {_MAX_PERIODS} pi)")

    x = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    # judged on the phase geometry alone, as the weights can span decades at
    # large N; checked before the span so a collapsed grid reports as degeneracy
    cond = np.linalg.cond(x.T @ x)
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise ValueError(f"degenerate design matrix (condition number {cond:.3e})")
    span = phi.max() - phi.min()
    if span < np.pi / 2 - 1e-12:
        raise ValueError(f"points span {span:.6g} rad, need at least half a period (pi/2)")
    # SVD of the whitened design: the normal equations would square its condition.
    # It whitens by sigma / unit, unit the power of two at or below the smallest
    # sigma, so no weight exceeds 1; the errors are scaled back exactly by unit.
    unit = math.ldexp(1.0, math.frexp(float(sigma.min()))[1] - 1)
    # a covariance or a standard error beyond the float range is inf; any other result
    # beyond it (a y near the float limit, sigmas hundreds of decades apart) is refused
    with np.errstate(all="ignore"):
        w = sigma / unit
        u, s, vt = np.linalg.svd(x / w[:, None], full_matrices=False)
        beta = vt.T @ ((u.T @ (y / w)) / s)
        cov = (vt.T / s**2) @ vt * unit * unit
        c0, ca, sa = beta
        amplitude = float(np.hypot(ca, sa))
        residuals = y - x @ beta
        rms = float(np.sqrt(np.mean(residuals**2)))
        min_value = float(c0 - amplitude)
        grad = np.array([1.0, -ca / amplitude, -sa / amplitude] if amplitude > 0.0 else [1.0, -1.0, 0.0])
        min_err = float(np.linalg.norm((vt @ grad) / s)) * unit
    if not np.isfinite([c0, amplitude, rms, min_value]).all():
        raise ValueError("the fit leaves the float range: y is too large, or sigma spans too many decades")
    # model equals c0 + amplitude*cos(2 phi + delta) with delta below
    delta = float(np.arctan2(-sa, ca)) if amplitude > 0.0 else 0.0

    # minima where cos(2 phi + delta) = -1, repeating with period pi
    principal = ((np.pi - delta) / 2.0) % np.pi
    k_lo = int(np.ceil((phi.min() - 1e-9 - principal) / np.pi))
    k_hi = int(np.floor((phi.max() + 1e-9 - principal) / np.pi))
    locations = [principal + k * np.pi for k in range(k_lo, k_hi + 1)]
    if not locations:
        locations = [principal]

    n = len(locations)
    return FitResult(
        offset=float(c0),
        amplitude=amplitude,
        phase_origin=delta,
        residual_rms=rms,
        minima_locations=tuple(float(l) for l in locations),
        minima_values=(min_value,) * n,
        minima_stderr=(min_err,) * n,
        covariance=cov,
    )


def witness_from_run(config: RunConfig) -> dict:
    """Full pipeline: simulate, estimate, fit p_ac and p_aa, test the witness.

    The report's `fits` section is on the raw outcome scale. The witness
    section divides the fitted minima by the singlet component weight so the
    values compare against the two-copy probabilities of the conditioned
    singlet pair, and calls a violation only beyond MIN_SIGNIFICANCE. The
    `counts` section is one tuple per phase, in _COUNT_FIELDS order.
    """
    table = simulate_counts(config)
    estimates = estimate_probabilities(config.phi_grid, table, config.detector_model)
    # fit weights: the binomial stderr at (n + 1/2)/(N + 1), finite where a count is 0 or N
    n_total = table.sum(axis=1)[:, None]
    factors = _correction_factors(config.detector_model)
    sigma = _binomial_stderr((table + 0.5) / (n_total + 1.0), n_total, factors)
    fits = {
        ch: fit_interference(estimates[ch].phi, estimates[ch].value, sigma[:, CHANNELS.index(ch)])
        for ch in ("ac", "aa")
    }
    # each fitted minimum as (value clamped into [0, 1], stderr)
    clamped = any(not 0.0 <= fit.minima_values[0] <= 1.0 for fit in fits.values())
    minima = {ch: (min(max(fit.minima_values[0], 0.0), 1.0), fit.minima_stderr[0]) for ch, fit in fits.items()}
    (p_ac, s_ac), (p_aa, s_aa) = minima.values()
    # reconstruct the symmetric quadruple: p_ca tracks p_ac by the symmetry of
    # the curves and p_cc absorbs the remainder
    p_cc = 1.0 - p_aa - 2.0 * p_ac
    if not 0.0 <= p_cc <= 1.0:
        raise ValueError(
            f"fitted minima do not form a probability distribution: p_ac = {p_ac} and p_aa = {p_aa} "
            f"imply p_cc = 1 - p_aa - 2 p_ac = {p_cc}, outside [0, 1]"
        )
    verdict = entropic_witness(
        CollisionProbabilities(p_cc, p_ac, p_ac, p_aa),
        sigma=(0.0, s_ac, s_ac, s_aa),
    )
    violated_a = verdict.violated_a and verdict.significance_a >= MIN_SIGNIFICANCE
    violated_b = verdict.violated_b and verdict.significance_b >= MIN_SIGNIFICANCE

    witness = {
        "violated_a": violated_a,
        "violated_b": violated_b,
        "margins": {
            "a": verdict.margin_a / SINGLET_FRACTION,
            "b": verdict.margin_b / SINGLET_FRACTION,
        },
        "significance": float(verdict.significance),
        "p_min_ac": {"value": p_ac / SINGLET_FRACTION, "stderr": s_ac / SINGLET_FRACTION},
        "p_min_aa": {"value": p_aa / SINGLET_FRACTION, "stderr": s_aa / SINGLET_FRACTION},
        "scale": "singlet",
        "clamped": clamped,
        "verdict": "violated" if violated_a or violated_b else "not violated",
    }
    return {
        "config": config.as_dict(),
        "counts": list(zip(config.phi_grid, *table.T.tolist())),
        "fits": {f"p_{ch}": fit.as_dict() for ch, fit in fits.items()},
        "witness": witness,
    }
