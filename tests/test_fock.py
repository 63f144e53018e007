import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import renyi2
from renyi2.fock import CHANNELS, CURVE_AMPLITUDES, CURVE_OFFSETS, coincidence_curves, outcome_curves
from renyi2.qstate import SINGLET_VEC

import fock_network
from fock_network import (
    DEFAULT_CAP,
    CoincidenceRecord,
    FockState,
    ModeIndex,
    OutcomeClass,
    Polarization,
    apply_creation,
    beam_splitter,
    classify_outcome,
    coincidence_probabilities,
    conditional_state_after_anticoalescence,
    hamiltonian_expansion,
    hamiltonian_four_photon_term,
    spdc_four_photon_state,
    vacuum,
    _acc,
    _kdag,
    _ldag,
    _pair,
    _VACUUM_KEY,
)
from oracles import _check_phase_gram, phase_gram

PI = np.pi


def two_singlet_state():
    """K^dag L^dag |vac> / 2, the ideal singlet x singlet emission."""
    vac = {_VACUUM_KEY: 1.0 + 0j}
    raw = _ldag(_kdag(vac, DEFAULT_CAP), DEFAULT_CAP)
    return FockState({k: v / 2.0 for k, v in raw.items()})


def random_sparse_state(rng, n_kets=6, photons=4):
    amps = {}
    while len(amps) < n_kets:
        occ = [0] * 8
        for _ in range(photons):
            occ[rng.integers(0, 8)] += 1
        amps[tuple(occ)] = rng.normal() + 1j * rng.normal()
    nrm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return FockState({k: v / nrm for k, v in amps.items()})


def singlet_fidelity(rho):
    return float((SINGLET_VEC @ rho.matrix @ SINGLET_VEC).real)


# -- mode bookkeeping ---------------------------------------------------------


def test_mode_index_flat_layout():
    assert ModeIndex(1, Polarization.H).flat == 0
    assert ModeIndex(1, "V").flat == 1
    assert ModeIndex(4, Polarization.V).flat == 7
    flats = {ModeIndex(s, p).flat for s in (1, 2, 3, 4) for p in Polarization}
    assert flats == set(range(8))


def test_mode_index_validation():
    with pytest.raises(ValueError, match="spatial"):
        ModeIndex(5, Polarization.H)
    with pytest.raises(ValueError, match="polarization"):
        ModeIndex(1, "D")


def test_mode_index_reads_spatial_as_an_integer():
    flat = ModeIndex(1.0, "H").flat
    assert flat == 0 and type(flat) is int
    with pytest.raises(ValueError, match="^spatial index must be a number, got True$"):
        ModeIndex(True, "H")
    with pytest.raises(ValueError, match="^spatial index must be 1..4, got 2.5$"):
        ModeIndex(2.5, "H")


def test_fock_state_validation():
    with pytest.raises(ValueError, match="not normalized"):
        FockState({_VACUUM_KEY: 0.5})
    with pytest.raises(ValueError, match="cap"):
        FockState({(5, 0, 0, 0, 0, 0, 0, 0): 1.0})
    with pytest.raises(ValueError, match="negative"):
        FockState({(-1, 1, 0, 0, 0, 0, 0, 0): 1.0})
    # unnormalized intermediates are fine when flagged
    FockState({_VACUUM_KEY: 0.5}, normalized=False)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        for normalized in (True, False):
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                FockState({_VACUUM_KEY: bad}, normalized=normalized)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModeIndex(1, 0), "^polarization must be H or V, got 0$"),
        (lambda: FockState({_VACUUM_KEY: 1.0}, cap=0), r"^photon cap must be a positive integer below 2\*\*63, got 0$"),
        (
            lambda: FockState({_VACUUM_KEY: 1.0}, cap=2.5),
            r"^photon cap must be a positive integer below 2\*\*63, got 2.5$",
        ),
        (lambda: FockState({_VACUUM_KEY: 1.0}, cap=True), "^photon cap must be a number, got True$"),
        (lambda: FockState({(5, 0, 0, 0, 0, 0, 0, 0): 1.0}, cap=np.nan), "^photon cap must be finite, got nan$"),
        (lambda: FockState({(5, 0, 0, 0, 0, 0, 0, 0): 1.0}, cap=np.inf), "^photon cap must be finite, got inf$"),
        (lambda: hamiltonian_four_photon_term(0.0, 2, cap=np.nan), "^photon cap must be finite, got nan$"),
        (lambda: FockState({(0, 0): 1.0}), r"^occupation vector must have 8 entries, got \(0, 0\)$"),
        (lambda: FockState({}, normalized=False).to_normalized(), "^cannot normalize the zero state$"),
        (
            lambda: hamiltonian_expansion(0.3, -1),
            r"^expansion order must be a non-negative integer below 2\*\*63, got -1$",
        ),
        (
            lambda: hamiltonian_expansion(0.0, 2.5),
            r"^expansion order must be a non-negative integer below 2\*\*63, got 2.5$",
        ),
        (lambda: hamiltonian_expansion(0.0, True), "^expansion order must be a number, got True$"),
        (
            lambda: hamiltonian_four_photon_term(0.0, 1),
            r"^expansion order must be an integer of at least 2, below 2\*\*63, got 1$",
        ),
        (lambda: beam_splitter(vacuum(), 1, 5), "^spatial index must be 1..4, got 5$"),
        (lambda: beam_splitter(vacuum(), 1, 2, "lossy"), "^unknown beam-splitter convention 'lossy'$"),
        (lambda: classify_outcome((1, 1, 1, 1)), r"^pattern must have 8 entries, got \(1, 1, 1, 1\)$"),
        (
            lambda: CoincidenceRecord(-0.1, 0.1, 0.0, 0.0, 1.0),
            r"^negative probability in \(-0.1, 0.1, 0.0, 0.0, 1.0\)$",
        ),
        (
            lambda: coincidence_probabilities(FockState({_VACUUM_KEY: 0.5}, normalized=False)),
            "^coincidence probabilities need a normalized state$",
        ),
        (
            lambda: conditional_state_after_anticoalescence(FockState({_VACUUM_KEY: 0.5}, normalized=False), "A"),
            "^conditioning needs a normalized state$",
        ),
    ],
    ids=[
        "mode-polarization-type", "state-cap", "state-cap-fraction", "state-cap-bool", "state-cap-nan",
        "state-cap-inf", "four-photon-cap-nan", "state-length", "normalize-zero", "expansion-order",
        "expansion-order-fraction", "expansion-order-bool", "four-photon-order",
        "splitter-port", "splitter-convention", "pattern-length", "record-negative",
        "coincidence-unnormalized", "conditioning-unnormalized",
    ],
)
def test_network_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_inner_product_is_conjugate_symmetric_on_unequal_supports():
    rng = np.random.default_rng(5)
    small = random_sparse_state(rng, n_kets=2)
    big = random_sparse_state(rng, n_kets=7).amplitudes
    big.update({occ: (0.3 + 0.8j) * a for occ, a in small.amplitudes.items()})  # shares small's support
    big = FockState(big, normalized=False)
    assert small.inner(big).imag != 0
    assert small.inner(big) == np.conj(big.inner(small))


# -- creation operators -------------------------------------------------------


def test_apply_creation_on_vacuum():
    st = apply_creation(vacuum(), ModeIndex(1, "H"))
    assert st.amplitudes == {(1, 0, 0, 0, 0, 0, 0, 0): pytest.approx(1.0)}
    assert not st.normalized


def test_apply_creation_bosonic_enhancement():
    st = apply_creation(apply_creation(vacuum(), ModeIndex(1, "H")), ModeIndex(1, "H"))
    amp = st.amplitudes[(2, 0, 0, 0, 0, 0, 0, 0)]
    assert abs(amp - np.sqrt(2.0)) < 1e-12


def test_pair_creation_squared_norm():
    # (a+_1H a+_3V - a+_1V a+_3H)|vac> spans two orthogonal kets, norm^2 = 2
    raw = _kdag({_VACUUM_KEY: 1.0 + 0j}, DEFAULT_CAP)
    st = FockState(raw, normalized=False)
    assert abs(st.norm_sq() - 2.0) < 1e-12


def test_pair_creation_is_the_polarization_singlet():
    # K^dag |vac> = a+_1H a+_3V |vac> - a+_1V a+_3H |vac>, L^dag the same on ports 2 and 4
    vac = {_VACUUM_KEY: 1.0 + 0j}
    assert _kdag(vac, DEFAULT_CAP) == {(1, 0, 0, 0, 0, 1, 0, 0): 1.0, (0, 1, 0, 0, 1, 0, 0, 0): -1.0}
    assert _ldag(vac, DEFAULT_CAP) == {(0, 0, 1, 0, 0, 0, 0, 1): 1.0, (0, 0, 0, 1, 0, 0, 1, 0): -1.0}


@pytest.mark.parametrize("ports", [(1, 3), (2, 4)])
def test_pair_annihilation_is_the_adjoint_of_pair_creation(ports):
    # <x| P^dag y> = <P x| y>; x holds P^dag y, so the products are not zero
    rng = np.random.default_rng(8)
    for _ in range(50):
        y = random_sparse_state(rng, n_kets=int(rng.integers(1, 5)), photons=2).amplitudes
        x = random_sparse_state(rng, n_kets=int(rng.integers(1, 5)), photons=4).amplitudes
        _acc(x, _pair(y, ports, 1, DEFAULT_CAP), 0.7 - 0.2j)
        lhs = FockState(x, normalized=False).inner(FockState(_pair(y, ports, 1, DEFAULT_CAP), normalized=False))
        rhs = FockState(_pair(x, ports, -1, DEFAULT_CAP), normalized=False).inner(FockState(y, normalized=False))
        assert abs(lhs) > 0.1 and abs(lhs - rhs) < 1e-12


def test_apply_creation_cap_error():
    st = vacuum(cap=2)
    st = apply_creation(st, ModeIndex(2, "V"))
    st = apply_creation(st, ModeIndex(2, "V"))
    with pytest.raises(ValueError, match="cap"):
        apply_creation(st, ModeIndex(2, "V"))


# -- source state -------------------------------------------------------------


def test_source_state_component_weights():
    st = spdc_four_photon_state(0.7)
    w_sing = w_kk = w_ll = 0.0
    for occ, a in st.amplitudes.items():
        per_spatial = [occ[2 * s] + occ[2 * s + 1] for s in range(4)]
        w = abs(a) ** 2
        if per_spatial == [1, 1, 1, 1]:
            w_sing += w
        elif per_spatial == [2, 0, 2, 0]:
            w_kk += w
        elif per_spatial == [0, 2, 0, 2]:
            w_ll += w
        else:
            raise AssertionError(f"unexpected support {occ}")
    assert abs(w_sing - 0.4) < 1e-12
    assert abs(w_kk - 0.3) < 1e-12
    assert abs(w_ll - 0.3) < 1e-12


def test_source_probabilities_have_period_pi():
    for phi in (0.0, 0.4, 1.2):
        a = coincidence_probabilities(spdc_four_photon_state(phi))
        b = coincidence_probabilities(spdc_four_photon_state(phi + PI))
        assert np.allclose(
            list(a.as_dict().values()), list(b.as_dict().values()), atol=1e-12
        )


# -- Hamiltonian expansion ----------------------------------------------------


def test_expansion_order_zero_is_vacuum():
    st = hamiltonian_expansion(0.3, 0)
    assert st.amplitudes == {_VACUUM_KEY: pytest.approx(1.0)}


def test_expansion_first_order_two_photon_sector():
    phi = 0.9
    ser = hamiltonian_expansion(phi, 1)
    two = {occ: a for occ, a in ser.amplitudes.items() if sum(occ) == 4 // 2}
    got = FockState(two, normalized=False).to_normalized()
    vac = {_VACUUM_KEY: 1.0 + 0j}
    want = {}
    for occ, a in _kdag(vac, DEFAULT_CAP).items():
        want[occ] = want.get(occ, 0j) + a
    for occ, a in _ldag(vac, DEFAULT_CAP).items():
        want[occ] = want.get(occ, 0j) + np.exp(1j * phi) * a
    want = FockState(want, normalized=False).to_normalized()
    assert abs(abs(got.inner(want)) - 1.0) < 1e-12


def test_expansion_drops_kets_beyond_the_cap():
    # at cap 2 the third order reaches K^dag^3 |vac>, whose kets hold 3 photons in
    # a mode; they are dropped, where FockState would refuse them
    assert len(hamiltonian_expansion(0.3, 3, cap=2).amplitudes) == 31
    assert len(hamiltonian_expansion(0.3, 3, cap=4).amplitudes) == 35


@pytest.mark.parametrize("phi", [0.0, PI / 4, PI / 2, 2.3])
@pytest.mark.parametrize("order", [2, 3])
def test_four_photon_sector_matches_source_state(phi, order):
    h = hamiltonian_four_photon_term(phi, order)
    s = spdc_four_photon_state(phi)
    assert abs(abs(h.inner(s)) - 1.0) < 1e-10


def test_four_photon_term_order_validation():
    with pytest.raises(ValueError, match="at least 2"):
        hamiltonian_four_photon_term(0.0, 1)
    with pytest.raises(ValueError, match="photon cap"):
        hamiltonian_four_photon_term(0.0, 4)


# -- beam splitter ------------------------------------------------------------


def test_hom_dip_identical_photons():
    st = FockState({(1, 0, 1, 0, 0, 0, 0, 0): 1.0})  # one H photon in each of ports 1,2
    out = beam_splitter(st, 1, 2)
    p_split = sum(
        abs(a) ** 2
        for occ, a in out.amplitudes.items()
        if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1
    )
    assert p_split < 1e-12
    # photons bunch into |2,0> and |0,2> with equal weight
    assert abs(abs(out.amplitudes[(2, 0, 0, 0, 0, 0, 0, 0)]) ** 2 - 0.5) < 1e-12
    assert abs(abs(out.amplitudes[(0, 0, 2, 0, 0, 0, 0, 0)]) ** 2 - 0.5) < 1e-12


def test_distinguishable_photons_split_half_the_time():
    st = FockState({(1, 0, 0, 1, 0, 0, 0, 0): 1.0})  # 1H and 2V
    out = beam_splitter(st, 1, 2)
    p_split = sum(
        abs(a) ** 2
        for occ, a in out.amplitudes.items()
        if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1
    )
    assert abs(p_split - 0.5) < 1e-12


def test_polarization_singlet_always_anticoalesces():
    amps = {
        (1, 0, 0, 1, 0, 0, 0, 0): 1.0 / np.sqrt(2.0),
        (0, 1, 1, 0, 0, 0, 0, 0): -1.0 / np.sqrt(2.0),
    }
    out = beam_splitter(FockState(amps), 1, 2)
    p_split = sum(
        abs(a) ** 2
        for occ, a in out.amplitudes.items()
        if occ[0] + occ[1] == 1 and occ[2] + occ[3] == 1
    )
    assert abs(p_split - 1.0) < 1e-12


def test_beam_splitter_rejects_same_mode():
    with pytest.raises(ValueError, match="distinct"):
        beam_splitter(vacuum(), 3, 3)


def test_beam_splitter_unitarity_on_random_states():
    rng = np.random.default_rng(2718)
    for _ in range(500):
        st = random_sparse_state(rng, n_kets=int(rng.integers(1, 8)))
        out = beam_splitter(st, 1, 2)
        assert abs(out.norm_sq() - 1.0) < 1e-12


def random_capped_state(rng, cap):
    """A normalized state of 1-8 kets of 1-4 photons each, no mode above the cap."""
    amps, n_kets = {}, rng.integers(1, 9)
    while len(amps) < n_kets:
        occ = [0] * 8
        for _ in range(rng.integers(1, 5)):
            occ[rng.integers(0, 8)] += 1
        if max(occ) <= cap:
            amps[tuple(occ)] = rng.normal() + 1j * rng.normal()
    nrm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return FockState({k: v / nrm for k, v in amps.items()}, cap=cap)


def test_beam_splitter_raises_the_cap_to_the_photons_it_bunches():
    # three photons in ports 1 and 2 can all leave through one of them
    st = FockState({(2, 0, 1, 0, 0, 0, 0, 0): 1.0}, cap=2)
    out = beam_splitter(st, 1, 2)
    assert out.cap == 3 and abs(out.norm_sq() - 1.0) < 1e-12
    assert max(max(occ) for occ in out.amplitudes) == 3
    assert abs(coincidence_probabilities(st).other - 1.0) < 1e-12
    # a state whose output fits the input's cap keeps that cap
    assert beam_splitter(FockState({(1, 0, 0, 0, 0, 0, 0, 0): 1.0}, cap=2), 1, 2).cap == 2


def test_coincidence_probabilities_of_random_cap_two_states():
    rng = np.random.default_rng(58)
    bunched = 0
    for _ in range(300):
        st = random_capped_state(rng, cap=2)
        rec = coincidence_probabilities(st)
        assert abs(sum(rec.as_dict().values()) - 1.0) <= 1e-12
        # the splitters never touch the cap, so the numbers are those of the same
        # amplitudes under a cap no 1-4 photon state can exceed
        wide = FockState(st.amplitudes, cap=4)
        after = beam_splitter(beam_splitter(st, 1, 2), 3, 4)
        assert after.amplitudes == beam_splitter(beam_splitter(wide, 1, 2), 3, 4).amplitudes
        assert rec.as_dict() == coincidence_probabilities(wide).as_dict()
        bunched += after.cap > 2
    # the draw holds states whose splitters bunch photons above the cap, and others
    assert 0 < bunched < 300


def test_beam_splitter_is_self_inverse():
    rng = np.random.default_rng(9)
    st = random_sparse_state(rng)
    back = beam_splitter(beam_splitter(st, 1, 2), 1, 2)
    for occ, a in st.amplitudes.items():
        assert abs(back.amplitudes.get(occ, 0j) - a) < 1e-12


def test_beam_splitter_swapped_arguments_sign_rule():
    # applying (1,2) then (2,1) maps a->b, b->-a: occupations swap between the
    # spatial ports and the amplitude picks up (-1)^(original photons in port 2)
    rng = np.random.default_rng(10)
    st = random_sparse_state(rng)
    out = beam_splitter(beam_splitter(st, 1, 2), 2, 1)
    for occ, a in st.amplitudes.items():
        swapped = (occ[2], occ[3], occ[0], occ[1]) + occ[4:]
        sign = (-1.0) ** (occ[2] + occ[3])
        assert abs(out.amplitudes.get(swapped, 0j) - sign * a) < 1e-12


def test_outcome_probabilities_are_convention_independent():
    for phi in np.linspace(0.0, PI, 7):
        st = spdc_four_photon_state(phi)
        real = coincidence_probabilities(st).as_dict()
        # rebuild with the i-phase convention
        after = beam_splitter(beam_splitter(st, 1, 2, "symmetric"), 3, 4, "symmetric")
        totals = dict.fromkeys(OutcomeClass, 0.0)
        for occ, amp in after.amplitudes.items():
            totals[classify_outcome(occ)] += abs(amp) ** 2
        for key in ("cc", "ca", "ac", "aa"):
            assert abs(real[key] - totals[OutcomeClass(key)]) < 1e-12


# -- outcome classification ---------------------------------------------------


def test_classify_outcome_examples():
    assert classify_outcome((2, 0, 0, 0, 1, 0, 0, 1)) is OutcomeClass.CA
    assert classify_outcome((1, 0, 0, 1, 0, 1, 1, 0)) is OutcomeClass.AA
    assert classify_outcome((3, 0, 0, 0, 1, 0, 0, 0)) is OutcomeClass.OTHER
    assert classify_outcome((1, 1, 0, 0, 0, 0, 2, 0)) is OutcomeClass.CC


def test_classification_is_total_over_two_per_side_patterns():
    import itertools

    for pattern in itertools.product(range(3), repeat=8):
        if sum(pattern) != 4:
            continue
        cls = classify_outcome(pattern)
        a, b = pattern[0] + pattern[1] + pattern[2] + pattern[3], sum(pattern[4:])
        if a == 2 and b == 2:
            assert cls is not OutcomeClass.OTHER or True  # classified below
            assert cls in (
                OutcomeClass.CC,
                OutcomeClass.CA,
                OutcomeClass.AC,
                OutcomeClass.AA,
            )
        else:
            assert cls is OutcomeClass.OTHER


# -- coincidence probabilities and curves --------------------------------------


def test_two_singlet_collision_quadruple():
    rec = coincidence_probabilities(two_singlet_state())
    assert np.allclose(
        (rec.cc, rec.ca, rec.ac, rec.aa), (0.75, 0.0, 0.0, 0.25), atol=1e-12
    )
    assert rec.other < 1e-15


def test_source_curves_at_marked_phases():
    rec0 = coincidence_probabilities(spdc_four_photon_state(0.0))
    assert abs(rec0.ac) < 1e-12 and abs(rec0.ca) < 1e-12
    assert abs(rec0.aa - 0.4) < 1e-12
    rec90 = coincidence_probabilities(spdc_four_photon_state(PI / 2))
    assert abs(rec90.ca - 0.3) < 1e-12
    assert abs(rec90.ac - 0.3) < 1e-12
    assert abs(rec90.aa - 0.1) < 1e-12


def test_curves_match_closed_forms_on_dense_grid():
    grid = np.linspace(0.0, PI, 181)
    rows = coincidence_curves(grid)
    for phi, cc, ca, ac, aa in rows:
        c2 = np.cos(2.0 * phi)
        assert abs(ac - 0.15 * (1.0 - c2)) < 1e-10
        assert abs(ca - 0.15 * (1.0 - c2)) < 1e-10
        assert abs(aa - (0.25 + 0.15 * c2)) < 1e-10
        assert abs(cc - (0.45 + 0.15 * c2)) < 1e-10
        assert abs(cc + ca + ac + aa - 1.0) < 1e-10


def test_curves_quarter_period_row():
    ((_, cc, ca, ac, aa),) = coincidence_curves([PI / 4])
    assert abs(aa - 0.25) < 1e-12
    assert abs(ac - 0.15) < 1e-12


def test_curves_reject_empty_grid():
    with pytest.raises(ValueError, match="empty"):
        coincidence_curves([])


def test_spurious_terms_vanish_at_marked_phases():
    # single-crystal double-pair component alone: (K^dag^2 + e^{2i phi} L^dag^2)|vac>/2
    for phi, channel in ((0.0, "ac"), (0.0, "ca"), (PI / 2, "aa")):
        vac = {_VACUUM_KEY: 1.0 + 0j}
        out = {}
        for occ, a in _kdag(_kdag(vac, DEFAULT_CAP), DEFAULT_CAP).items():
            out[occ] = out.get(occ, 0j) + 0.5 * a
        for occ, a in _ldag(_ldag(vac, DEFAULT_CAP), DEFAULT_CAP).items():
            out[occ] = out.get(occ, 0j) + 0.5 * np.exp(2j * phi) * a
        # norm^2 of each half is 3, the two halves have disjoint support
        spurious = FockState({k: v / np.sqrt(6.0) for k, v in out.items()})
        rec = coincidence_probabilities(spurious).as_dict()
        assert abs(rec[channel]) < 1e-12, (phi, channel)


# -- closed-form curves against the Fock oracle ---------------------------------


def fock_oracle(grid):
    rows = []
    for phi in grid:
        rec = coincidence_probabilities(spdc_four_photon_state(phi))
        rows.append([rec.cc, rec.ca, rec.ac, rec.aa, rec.other])
    return np.array(rows)


def test_gram_curves_match_fock_oracle_on_dense_grid():
    grid = np.linspace(0.0, PI, 181)
    assert np.max(np.abs(outcome_curves(grid) - fock_oracle(grid))) <= 1e-15


def test_gram_curves_match_fock_oracle_on_random_phases():
    grid = np.random.default_rng(4242).uniform(-2.0 * PI, 4.0 * PI, 300)
    assert np.max(np.abs(outcome_curves(grid) - fock_oracle(grid))) <= 1e-15


def test_coincidence_curves_rows_follow_the_gram_curves():
    grid = [0.0, 0.3, PI / 2]
    want = outcome_curves(grid)
    for (phi, *probs), row, p in zip(coincidence_curves(grid), want, grid):
        assert phi == p
        assert probs == list(row[:4])


def test_curve_constants_equal_the_fock_built_gram():
    gram = phase_gram()
    assert np.max(np.abs(np.trace(gram, axis1=1, axis2=2) - CURVE_OFFSETS)) <= 1e-15
    assert np.max(np.abs(2.0 * gram[:, 0, 2] - CURVE_AMPLITUDES)) <= 1e-15


def test_curve_constants_are_read_only():
    for const in (CURVE_OFFSETS, CURVE_AMPLITUDES):
        with pytest.raises(ValueError):
            const[0] = 1.0


def _defined_names(module):
    """Names bound at the top level of a module's source by def, class or assignment."""
    names = []
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_network_table_lists_exactly_the_names_the_network_defines():
    # the oracle binds each of its names once, and the package's export table lists none of them
    defined = _defined_names(fock_network)
    assert len(set(defined)) == len(defined) and not set(defined) & set(renyi2._LAYER)


@pytest.mark.parametrize("name", _defined_names(fock_network))
def test_network_names_resolve_to_the_network_objects(name):
    # the oracle serves each of its names, and no layer of the package binds one
    assert hasattr(fock_network, name)
    assert not [layer for layer in renyi2._EXPORTS if hasattr(importlib.import_module(f"renyi2.{layer}"), name)]


def test_outcome_classes_follow_the_channels():
    assert tuple(c.value for c in OutcomeClass) == CHANNELS
    assert [c.name for c in OutcomeClass] == ["CC", "CA", "AC", "AA", "OTHER"]


def test_phase_gram_check_rejects_a_non_hermitian_matrix():
    gram = np.array(phase_gram())
    gram[3, 0, 2] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        _check_phase_gram(gram)


@pytest.mark.parametrize("entry", [(0, 1), (1, 2)])
def test_phase_gram_check_rejects_an_e_i_phi_coupling(entry):
    gram = np.array(phase_gram())
    j, k = entry
    gram[0, j, k] += 1e-3j
    gram[0, k, j] -= 1e-3j  # stays Hermitian, so only the coupling check can fire
    with pytest.raises(ValueError, match="coupling"):
        _check_phase_gram(gram)


def test_phase_gram_check_rejects_weight_on_other():
    gram = np.array(phase_gram())
    gram[4, 1, 1] = 1e-3
    with pytest.raises(ValueError, match="OTHER"):
        _check_phase_gram(gram)


def test_outcome_curves_reject_empty_and_non_finite_grids():
    with pytest.raises(ValueError, match="empty"):
        outcome_curves([])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^stack index 1: phi must be finite, got {bad}$"):
            outcome_curves([0.0, bad])


def test_completeness_on_random_states():
    rng = np.random.default_rng(31)
    for _ in range(100):
        st = random_sparse_state(
            rng, n_kets=int(rng.integers(1, 8)), photons=int(rng.integers(1, 5))
        )
        rec = coincidence_probabilities(st)
        total = rec.cc + rec.ca + rec.ac + rec.aa + rec.other
        assert abs(total - 1.0) < 1e-10


def test_coincidence_record_validation():
    with pytest.raises(ValueError, match="sum"):
        CoincidenceRecord(0.5, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="cc must be finite"):
        CoincidenceRecord(np.nan, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="other must be finite"):
        CoincidenceRecord(0.0, 0.0, 0.0, 0.0, np.inf)


# -- conditional state after anticoalescence ----------------------------------


def test_swapping_projects_far_side_onto_singlet():
    for side in ("A", "B"):
        rho = conditional_state_after_anticoalescence(two_singlet_state(), side)
        assert abs(singlet_fidelity(rho) - 1.0) < 1e-10


def test_swapping_with_marked_phase_stays_perfect():
    rho = conditional_state_after_anticoalescence(spdc_four_photon_state(PI / 2), "A")
    assert abs(singlet_fidelity(rho) - 1.0) < 1e-10


def test_swapping_degrades_off_the_marked_phase():
    rho = conditional_state_after_anticoalescence(spdc_four_photon_state(0.0), "A")
    fid = singlet_fidelity(rho)
    assert fid < 0.99
    # the double-pair aa amplitudes land in triplet components, so the
    # fidelity collapses to the two-singlet share of the aa sector, 0.1/0.4
    assert abs(fid - 0.25) < 1e-12


def test_conditioning_keeps_the_far_side():
    # after the splitters: a singlet on side A's ports, |H>|V> on side B's; the real
    # splitters are self-inverse, so running them back gives the input state
    after = FockState({(1, 0, 0, 1, 1, 0, 0, 1): 1.0 / np.sqrt(2.0), (0, 1, 1, 0, 1, 0, 0, 1): -1.0 / np.sqrt(2.0)})
    st = beam_splitter(beam_splitter(after, 1, 2), 3, 4)
    hv = np.zeros((4, 4))
    hv[1, 1] = 1.0
    assert np.max(np.abs(conditional_state_after_anticoalescence(st, "A").matrix - hv)) < 1e-12
    assert abs(singlet_fidelity(conditional_state_after_anticoalescence(st, "B")) - 1.0) < 1e-12


def test_conditioning_on_impossible_event_raises():
    st = FockState({(1, 0, 1, 0, 1, 0, 1, 0): 1.0})  # all H: both sides coalesce
    with pytest.raises(ValueError, match="zero probability"):
        conditional_state_after_anticoalescence(st, "A")


def test_conditioning_rejects_bad_side():
    with pytest.raises(ValueError, match="side"):
        conditional_state_after_anticoalescence(two_singlet_state(), "C")


def mirrored(state):
    """The state with side A (ports 1, 2) and side B (ports 3, 4) swapped."""
    return FockState({occ[4:] + occ[:4]: a for occ, a in state.amplitudes.items()})


def test_conditioning_on_a_equals_conditioning_the_mirror_on_b():
    rng = np.random.default_rng(77)
    compared = 0
    for _ in range(400):
        st = random_sparse_state(rng, n_kets=int(rng.integers(1, 9)))
        try:
            rho_a = conditional_state_after_anticoalescence(st, "A").matrix
        except ValueError as exc:
            assert "zero probability" in str(exc)
            with pytest.raises(ValueError, match="zero probability"):
                conditional_state_after_anticoalescence(mirrored(st), "B")
            continue
        rho_b = conditional_state_after_anticoalescence(mirrored(st), "B").matrix
        assert np.max(np.abs(rho_a - rho_b)) <= 1e-12
        compared += 1
    assert compared >= 200
