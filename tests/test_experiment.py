import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renyi2 import experiment
from renyi2.experiment import (
    CHANNELS,
    DETECTOR_MODELS,
    MAX_GRID_POINTS,
    MAX_SHOTS,
    ChannelEstimate,
    RunConfig,
    estimate_probabilities,
    fit_interference,
    outcome_distributions,
    simulate_counts,
    witness_from_run,
    _correction_factors,
    _phase_states,
)

from oracles import loop_estimates, loop_simulate_counts

PI = np.pi
GRID25 = tuple(np.linspace(0.0, PI, 25))


def aa_curve(phi):
    return 0.25 + 0.15 * np.cos(2.0 * np.asarray(phi))


def ac_curve(phi):
    return 0.15 * (1.0 - np.cos(2.0 * np.asarray(phi)))


# -- configuration and records --------------------------------------------------


def test_run_config_validation():
    ok = dict(phi_grid=(0.0, 1.0), shots_per_phase=10)
    RunConfig(**ok)
    with pytest.raises(ValueError, match="empty"):
        RunConfig(phi_grid=(), shots_per_phase=10)
    with pytest.raises(ValueError, match="positive integer"):
        RunConfig(phi_grid=(0.0,), shots_per_phase=0)
    with pytest.raises(ValueError, match="visibility"):
        RunConfig(**ok, visibility=1.5)
    with pytest.raises(ValueError, match="background_rate"):
        RunConfig(**ok, background_rate=-0.1)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(**ok, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(**ok, seed=2**64)
    with pytest.raises(ValueError, match="detector_model"):
        RunConfig(**ok, detector_model="photographic_plate")


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("phi_grid", (0.0, float("nan")), "finite"),
        ("phi_grid", (0.0, float("inf")), "finite"),
        ("phi_grid", 1.5, r"phi_grid must form an array of shape \(n,\), got shape \(\)$"),
        ("phi_grid", "0.5", "phi_grid must be a number, got a str$"),
        ("phi_grid", (0.0, "1"), "phi_grid must be a number, got a str$"),
        ("shots_per_phase", float("inf"), "shots_per_phase must be finite"),
        ("shots_per_phase", float("nan"), "shots_per_phase must be finite"),
        ("shots_per_phase", 1e30, "shots_per_phase"),
        ("shots_per_phase", MAX_SHOTS + 1, "shots_per_phase"),
        ("shots_per_phase", 2.5, "positive integer"),
        ("shots_per_phase", True, "shots_per_phase must be a number"),
        ("visibility", float("nan"), "visibility must be finite"),
        ("background_rate", "0.1", "background_rate must be a number"),
        ("seed", float("inf"), "seed must be finite"),
        ("seed", "7", "seed must be a number"),
        # a 0-d array has __iter__, and iterating it raised TypeError
        ("phi_grid", np.array(0.5), r"phi_grid must form an array of shape \(n,\), got shape \(\)$"),
        # a grid of rows reads as a 2-D array
        ("phi_grid", [[0.0, 1.0]], r"phi_grid must form an array of shape \(n,\), got shape \(1, 2\)$"),
    ],
)
def test_run_config_rejects_non_finite_and_mistyped_fields(field, value, match):
    fields = dict(phi_grid=(0.0, 1.0), shots_per_phase=10)
    fields[field] = value
    with pytest.raises(ValueError, match=match):
        RunConfig(**fields)


def test_run_config_normalizes_accepted_numbers():
    cfg = RunConfig(phi_grid=np.array([0, 1]), shots_per_phase=MAX_SHOTS, seed=np.uint64(2**64 - 1))
    assert cfg.phi_grid == (0.0, 1.0) and all(type(p) is float for p in cfg.phi_grid)
    assert cfg.shots_per_phase == MAX_SHOTS and cfg.seed == 2**64 - 1
    assert RunConfig(phi_grid=[0.5], shots_per_phase=2000.0).shots_per_phase == 2000


def test_detector_models_are_the_keys_of_the_correction_table():
    assert DETECTOR_MODELS == ("number_resolving", "bucket_with_pbs")
    assert DETECTOR_MODELS == tuple(experiment._KEEP)


def test_correction_factors_per_detector_model():
    # one read-only float vector per model, in CHANNELS order
    for model, want in (("number_resolving", (1, 1, 1, 1, 1)), ("bucket_with_pbs", (4, 2, 2, 1, 1))):
        factors = _correction_factors(model)
        assert factors.dtype == np.float64 and not factors.flags.writeable
        np.testing.assert_array_equal(factors, want)
    # a refused model is shown as every refused value is: by a short repr, else by its type
    deep = []
    for _ in range(950):
        deep = [deep]
    for bad, shown in (
        ("kaleidoscope", "'kaleidoscope'"),
        (None, "None"),
        (["bucket_with_pbs"], "['bucket_with_pbs']"),
        (["bucket_with_pbs"] * 2000, "a list"),
        (deep, "a list"),
    ):
        want = f"detector_model must be one of {DETECTOR_MODELS}, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            _correction_factors(bad)


def test_estimator_accepts_any_integer_table_and_numeric_phases():
    table = [[10, 0, 0, 5, 1]]
    want = estimate_probabilities([0.5], np.array(table), "number_resolving")
    for phi, counts in (
        ([np.float32(0.5)], table),
        (np.array([0.5]), np.array(table, dtype=np.uint64)),
        ((0.5,), np.array(table, dtype=np.int32)),
    ):
        got = estimate_probabilities(phi, counts, "number_resolving")
        assert set(got) == set(want)
        for ch in CHANNELS:
            for field in ("phi", "value", "sigma", "degenerate"):
                a, b = getattr(got[ch], field), getattr(want[ch], field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (ch, field)
    assert np.array_equal(want["cc"].phi, [0.5]) and want["cc"].phi.dtype == np.float64
    assert np.array_equal(want["cc"].value, [10 / 16])


def test_estimates_are_read_only_arrays_of_fixed_dtypes():
    est = estimate_probabilities([0.0, 0.5], [[10, 0, 0, 5, 1], [3, 3, 3, 3, 0]], "bucket_with_pbs")
    for ch in CHANNELS:
        fields = (est[ch].phi, est[ch].value, est[ch].sigma, est[ch].degenerate)
        assert [a.dtype for a in fields] == [np.float64, np.float64, np.float64, np.bool_]
        for a in fields:
            assert a.shape == (2,)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


def test_estimator_leaves_the_callers_arrays_writeable():
    phi = np.array([0.0, 0.5])
    counts = np.array([[10, 0, 0, 5, 1], [3, 3, 3, 3, 0]])
    est = estimate_probabilities(phi, counts, "number_resolving")
    assert phi.flags.writeable and counts.flags.writeable
    phi[0] = 9.0
    assert est["cc"].phi[0] == 0.0


@pytest.mark.parametrize(
    "phi, counts, match",
    [
        ([np.nan], [[1, 0, 0, 0, 0]], "^stack index 0: phi must be finite, got nan$"),
        ([np.inf], [[1, 0, 0, 0, 0]], "^stack index 0: phi must be finite, got inf$"),
        (["0.5"], [[1, 0, 0, 0, 0]], "^phi must be a number"),
        ([0.0], [[np.inf, 0, 0, 0, 0]], "^counts must be integers"),  # was OverflowError
        ([0.0], [[0, 0, 0, 0, -np.inf]], "^counts must be integers"),
        ([0.0], [[0, np.nan, 0, 0, 0]], "^counts must be integers"),
        ([0.0], [[0, 0, True, 0, 0]], "^counts must be integers, got a bool"),  # was accepted as 1
        ([0.0], np.array([[False, False, True, False, False]]), "^counts must be integers, got dtype bool"),
        ([0.0], [[0, 0, 0, 2.5, 0]], "^counts must be integers"),
        ([0.0], [[0, 0, 0, 0, -1]], "^n_other must be a non-negative integer"),
        ([0.0], np.array([[2**63, 0, 0, 0, 0]], dtype=np.uint64), "^n_cc must be a non-negative integer"),
        ([0.0], [[2**62, 2**62, 0, 0, 0]], "total more than"),  # its int64 sum wraps
        ([0.0, 1.0], [[1, 0, 0, 0, 0]], r"^counts must form an array of shape \(2, 5\), got shape \(1, 5\)$"),
        ([0.0], [1, 0, 0, 0, 0], r"^counts must form an array of shape \(1, 5\), got shape \(5,\)$"),
        ([0.0], [[1, 0, 0, 0]], r"^counts must form an array of shape \(1, 5\), got shape \(1, 4\)$"),
        ([[0.0]], [[1, 0, 0, 0, 0]], r"^phi must form an array of shape \(n,\), got shape \(1, 1\)$"),
    ],
    ids=[
        "nan-phi", "inf-phi", "string-phi", "inf-count", "minus-inf-count", "nan-count", "bool-count", "bool-table", "fraction-count",
        "negative-count", "count-2**63", "total-above-max", "missing-row", "flat-table",
        "four-columns", "nested-phi",
    ],
)
def test_estimator_rejects_bad_count_tables(phi, counts, match):
    with pytest.raises(ValueError, match=match):
        estimate_probabilities(phi, counts, "number_resolving")


# -- sampling ------------------------------------------------------------------


def test_outcome_distribution_mixture_limits():
    ideal = outcome_distributions([PI / 2], 1.0, 0.0)[0]
    assert np.allclose(ideal, [0.3, 0.3, 0.3, 0.1, 0.0], atol=1e-12)
    flat = outcome_distributions([0.7], 0.0, 0.0)[0]
    assert np.allclose(flat, [0.25, 0.25, 0.25, 0.25, 0.0], atol=1e-12)
    bg = outcome_distributions([0.7], 1.0, 1.0)[0]
    assert np.allclose(bg, [0.2] * 5, atol=1e-12)


def test_outcome_distribution_is_a_row_of_the_grid_form():
    grid = np.linspace(-1.0, 4.0, 11)
    table = outcome_distributions(grid, 0.9, 0.05)
    assert table.shape == (11, 5)
    for phi, row in zip(grid, table):
        assert np.array_equal(outcome_distributions([phi], 0.9, 0.05)[0], row)


@pytest.mark.parametrize("name", ["visibility", "background_rate"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.1, 1.1])
def test_noise_parameters_outside_the_unit_interval_are_refused(name, bad):
    # outcome_distributions returned a NaN row at visibility NaN, and negative
    # probabilities at visibility 2
    noise = {"visibility": 0.9, "background_rate": 0.05, name: bad}
    with pytest.raises(ValueError, match=name):
        outcome_distributions([0.7], noise["visibility"], noise["background_rate"])
    with pytest.raises(ValueError, match=name):
        RunConfig(phi_grid=(0.0, 1.0), shots_per_phase=10, **noise)


@settings(max_examples=200)
@given(
    phi=st.floats(allow_nan=False, allow_infinity=False),
    visibility=st.floats(min_value=0.0, max_value=1.0),
    background=st.floats(min_value=0.0, max_value=1.0),
)
def test_mixed_distribution_is_a_probability_vector(phi, visibility, background):
    probs = outcome_distributions([phi], visibility, background)[0]
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_simulate_counts_deterministic_and_complete():
    cfg = RunConfig(phi_grid=GRID25, shots_per_phase=2000, visibility=0.9, seed=99)
    a = simulate_counts(cfg)
    b = simulate_counts(cfg)
    assert a.dtype == np.int64 and a.shape == (len(GRID25), len(CHANNELS))
    assert np.array_equal(a, b)
    assert np.all(a.sum(axis=1) == 2000)


def test_run_config_bounds_the_grid_without_reading_past_the_limit(monkeypatch):
    monkeypatch.setattr(experiment, "MAX_GRID_POINTS", 4)
    assert len(RunConfig(phi_grid=(0.0, 1.0, 2.0, 3.0), shots_per_phase=1).phi_grid) == 4
    with pytest.raises(ValueError, match="more than 4 phases"):
        RunConfig(phi_grid=(0.0, 1.0, 2.0, 3.0, 4.0), shots_per_phase=1)
    # an iterator or a set is not a sequence: it is refused before any of it is read
    with pytest.raises(ValueError, match="^phi_grid must be a number, got a repeat$"):
        RunConfig(phi_grid=itertools.repeat(0.5), shots_per_phase=1)
    grid = iter((0.0, 1.0))
    with pytest.raises(ValueError, match="^phi_grid must be a number, got a tuple_iterator$"):
        RunConfig(phi_grid=grid, shots_per_phase=1)
    assert list(grid) == [0.0, 1.0]
    # a set reads in hash order, which is not a phase order
    with pytest.raises(ValueError, match="^phi_grid must be a number, got a set$"):
        RunConfig(phi_grid={2.5, 0.0, 1.0, 0.5}, shots_per_phase=1)


@settings(max_examples=200)
@given(st.integers(0, 2**64 - 1), st.integers(0, MAX_GRID_POINTS))
@example(0, 0)
@example(2**32 - 1, 1)
@example(2**32, MAX_GRID_POINTS - 1)
@example(2**64 - 1, MAX_GRID_POINTS)
def test_phase_state_rows_are_numpy_seed_sequence_states(seed, k):
    rows = _phase_states(seed, np.array([0, k]))
    for phase, row in zip((0, k), rows):
        expected = np.random.SeedSequence([seed, phase]).generate_state(4, np.uint64)
        assert row.dtype == np.uint64 and np.array_equal(row, expected)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**64 - 1),
    shots=st.integers(1, MAX_SHOTS),
    detector_model=st.sampled_from(["number_resolving", "bucket_with_pbs"]),
    visibility=st.floats(0.0, 1.0),
    n_phases=st.integers(1, 12),
)
@example(seed=0, shots=1, detector_model="bucket_with_pbs", visibility=1.0, n_phases=3)
@example(seed=2**64 - 1, shots=MAX_SHOTS, detector_model="bucket_with_pbs", visibility=0.5, n_phases=3)
@example(seed=7, shots=MAX_SHOTS, detector_model="number_resolving", visibility=0.9, n_phases=3)
def test_simulate_counts_matches_one_generator_per_phase(seed, shots, detector_model, visibility, n_phases):
    cfg = RunConfig(
        phi_grid=tuple(np.linspace(0.0, PI, n_phases)), shots_per_phase=shots,
        visibility=visibility, background_rate=0.01, seed=seed, detector_model=detector_model,
    )
    assert np.array_equal(simulate_counts(cfg), loop_simulate_counts(cfg))


def test_simulate_counts_seed_changes_table():
    cfg1 = RunConfig(phi_grid=GRID25, shots_per_phase=2000, seed=1)
    cfg2 = RunConfig(phi_grid=GRID25, shots_per_phase=2000, seed=2)
    assert not np.array_equal(simulate_counts(cfg1), simulate_counts(cfg2))


def test_frequencies_converge_to_ideal_curves():
    shots = 1_000_000
    cfg = RunConfig(phi_grid=(0.0, PI / 4, PI / 2), shots_per_phase=shots, seed=314)
    for phi, row in zip(cfg.phi_grid, simulate_counts(cfg)):
        truth = outcome_distributions([phi], 1.0, 0.0)[0]
        for i, ch in enumerate(CHANNELS):
            sig = np.sqrt(truth[i] * (1.0 - truth[i]) / shots)
            assert abs(row[i] / shots - truth[i]) <= 4.0 * sig + 1e-12, (phi, ch)


def test_zero_visibility_flattens_every_channel():
    cfg = RunConfig(phi_grid=(0.0, 0.8, PI / 2), shots_per_phase=100_000, visibility=0.0, seed=8)
    sig = np.sqrt(0.25 * 0.75 / 100_000)
    for n_cc, n_ca, n_ac, n_aa, n_other in simulate_counts(cfg):
        total = n_cc + n_ca + n_ac + n_aa + n_other
        assert abs(n_aa / total - 0.25) < 4.0 * sig
        assert abs(n_ac / total - 0.25) < 4.0 * sig
        assert n_other == 0


def test_pure_background_is_uniform_over_classes():
    cfg = RunConfig(phi_grid=(0.3,), shots_per_phase=200_000, background_rate=1.0, seed=21)
    (row,) = simulate_counts(cfg)
    sig = np.sqrt(0.2 * 0.8 / 200_000)
    for n in row:
        assert abs(n / row.sum() - 0.2) < 4.0 * sig


def test_bucket_model_sheds_coalescence_counts():
    base = dict(phi_grid=(0.0,), shots_per_phase=100_000, seed=4)
    (nr,) = simulate_counts(RunConfig(**base))
    (bk,) = simulate_counts(RunConfig(**base, detector_model="bucket_with_pbs"))
    cc, aa, other = (CHANNELS.index(ch) for ch in ("cc", "aa", "other"))
    assert bk.sum() == nr.sum()  # losses move to n_other, the sum is conserved
    assert bk[cc] < nr[cc]
    assert bk[other] > nr[other]
    # aa events have one photon per port and are never lost
    assert abs(bk[aa] / bk.sum() - nr[aa] / nr.sum()) < 0.01


# -- estimation ----------------------------------------------------------------


def test_estimator_fixed_example():
    est = estimate_probabilities([0.0], [[75, 0, 0, 25, 0]], "number_resolving")
    assert est["aa"].value[0] == pytest.approx(0.25)
    assert est["aa"].sigma[0] == pytest.approx(0.04330127018922193, abs=1e-15)
    assert est["aa"].degenerate == (False,)
    assert est["ca"].value[0] == 0.0
    assert est["ca"].sigma[0] == 0.0
    assert est["ca"].degenerate == (True,)


@settings(max_examples=60)
@given(
    table=st.lists(st.lists(st.integers(0, 10**6), min_size=5, max_size=5).filter(any), min_size=1, max_size=12),
    detector_model=st.sampled_from(DETECTOR_MODELS),
)
@example(table=[[0, 0, 0, 7, 0], [1, 2, 3, 4, 5], [0, 9, 0, 0, 1]], detector_model="bucket_with_pbs")
def test_estimates_match_one_channel_at_a_time(table, detector_model):
    est = estimate_probabilities(np.linspace(0.0, PI, len(table)), np.array(table), detector_model)
    for ch, (value, sigma, degenerate) in loop_estimates(table, detector_model).items():
        assert np.array_equal(est[ch].value, value) and np.array_equal(est[ch].sigma, sigma), ch
        assert np.array_equal(est[ch].degenerate, degenerate), ch


def test_estimator_errors():
    with pytest.raises(ValueError, match="zero total"):
        estimate_probabilities([0.0, 0.5], [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]], "number_resolving")
    with pytest.raises(ValueError, match="empty"):
        estimate_probabilities([], np.zeros((0, 5), dtype=np.int64), "number_resolving")
    with pytest.raises(ValueError, match="detector_model"):
        estimate_probabilities([0.0], [[1, 0, 0, 0, 0]], "kaleidoscope")


def test_bucket_correction_is_unbiased_against_truth():
    # corrected estimates track the true distribution within errors at 1e5 shots
    shots = 100_000
    cfg = RunConfig(
        phi_grid=(0.4, 1.1),
        shots_per_phase=shots,
        visibility=0.965,
        seed=606,
        detector_model="bucket_with_pbs",
    )
    est = estimate_probabilities(cfg.phi_grid, simulate_counts(cfg), "bucket_with_pbs")
    for j, phi in enumerate(cfg.phi_grid):
        truth = outcome_distributions([phi], 0.965, 0.0)[0]
        for i, ch in enumerate(("cc", "ca", "ac", "aa")):
            sig = est[ch].sigma[j]
            assert abs(est[ch].value[j] - truth[i]) < 4.0 * sig, (phi, ch)


def test_bucket_and_number_resolving_estimates_cross_check():
    shots = 100_000
    base = dict(phi_grid=GRID25, shots_per_phase=shots, visibility=0.9, seed=75)
    est_nr = estimate_probabilities(GRID25, simulate_counts(RunConfig(**base)), "number_resolving")
    est_bk = estimate_probabilities(
        GRID25,
        simulate_counts(RunConfig(**base, detector_model="bucket_with_pbs")),
        "bucket_with_pbs",
    )
    for ch in ("cc", "ca", "ac", "aa"):
        for j in range(len(GRID25)):
            combined = np.hypot(est_nr[ch].sigma[j], est_bk[ch].sigma[j])
            assert abs(est_nr[ch].value[j] - est_bk[ch].value[j]) < 5.0 * combined


# -- curve fitting --------------------------------------------------------------


def test_fit_recovers_exact_aa_curve():
    fit = fit_interference(GRID25, aa_curve(GRID25), np.full(25, 0.01))
    assert fit.offset == pytest.approx(0.25, abs=1e-10)
    assert fit.amplitude == pytest.approx(0.15, abs=1e-10)
    assert fit.residual_rms < 1e-9
    assert fit.minima_values[0] == pytest.approx(0.1, abs=1e-10)
    assert any(abs(loc - PI / 2) < 1e-8 for loc in fit.minima_locations)


def test_fit_recovers_exact_ac_curve_minimum_at_zero():
    fit = fit_interference(GRID25, ac_curve(GRID25), np.full(25, 0.01))
    assert fit.minima_values[0] == pytest.approx(0.0, abs=1e-10)
    locs = [loc % PI for loc in fit.minima_locations]
    assert any(min(l, PI - l) < 1e-8 for l in locs)


def test_fit_minima_repeat_each_period_inside_the_scan():
    grid = np.linspace(0.0, 2.0 * PI, 41)
    fit = fit_interference(grid, aa_curve(grid), np.full(41, 0.01))
    assert len(fit.minima_locations) == 2
    assert fit.minima_locations[0] == pytest.approx(PI / 2, abs=1e-8)
    assert fit.minima_locations[1] == pytest.approx(3 * PI / 2, abs=1e-8)
    assert fit.minima_values[0] == fit.minima_values[1]


def test_fit_input_validation():
    with pytest.raises(ValueError, match="at least 4"):
        fit_interference([0.0, 0.8, 1.6], [1.0] * 3, [0.1] * 3)
    with pytest.raises(ValueError, match="positive"):
        fit_interference(GRID25[:5], [1.0] * 5, [0.0] * 5)
    with pytest.raises(ValueError, match="finite"):
        fit_interference(GRID25[:5], [1.0] * 5, [np.nan] * 5)
    with pytest.raises(ValueError, match="condition"):
        fit_interference([0.3] * 5, [1.0] * 5, [0.1] * 5)
    with pytest.raises(ValueError, match="half a period"):
        fit_interference([0.0, 0.3, 0.6, 1.0], [1.0] * 4, [0.1] * 4)


@pytest.mark.parametrize(
    "phi, y, sigma, want",
    [
        (GRID25, aa_curve(GRID25)[:24], np.full(25, 0.01), "y must form an array of shape (25,), got shape (24,)"),
        # sigma is read first, and phi and y at its length
        (GRID25, aa_curve(GRID25), np.full(24, 0.01), "phi must form an array of shape (24,), got shape (25,)"),
        (GRID25[:24], aa_curve(GRID25), np.full(25, 0.01), "phi must form an array of shape (25,), got shape (24,)"),
        (
            np.array([GRID25] * 2), np.array([aa_curve(GRID25)] * 2), np.full((2, 25), 0.01),
            "sigma must form an array of shape (n,), got shape (2, 25)",
        ),
        (
            np.array(GRID25)[:, None], aa_curve(GRID25)[:, None], np.full((25, 1), 0.01),
            "sigma must form an array of shape (n,), got shape (25, 1)",
        ),
        (1.0, 1.0, 0.1, "sigma must form an array of shape (n,), got shape ()"),
    ],
    ids=["short-y", "short-sigma", "short-phi", "2-D", "column", "scalars"],
)
def test_fit_refuses_arrays_that_are_not_1d_of_one_length(phi, y, sigma, want):
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        fit_interference(phi, y, sigma)


def test_fit_rejects_phases_beyond_1000_periods():
    # the minima list has one entry per period: a phase of 1e30 built a list
    # of 3e29 floats until memory ran out; at 1e308, 2 phi overflowed to inf
    # and cos(inf) warned
    grids = [(0.0, 0.5, 1.0, 1.5, far) for far in (1000.5 * PI, -1000.5 * PI, 1e30)]
    grids.append((1e308,) * 5)
    for grid in grids:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="within 1000 periods"):
                fit_interference(grid, [1.0] * 5, [0.1] * 5)
    fit = fit_interference(np.linspace(-1000 * PI, 1000 * PI, 6001), np.ones(6001), np.full(6001, 0.1))
    assert len(fit.minima_locations) == 2000


def _six_points(bad_field: str, bad_value: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    phi = np.linspace(0.0, PI, 6)
    y = aa_curve(phi)
    (phi if bad_field == "phi" else y)[2] = bad_value
    return phi, y, np.full(6, 0.01)


def test_fit_rejects_nan_y():
    with pytest.raises(ValueError, match="y must be finite"):
        fit_interference(*_six_points("y", np.nan))


def test_fit_rejects_infinite_y():
    with pytest.raises(ValueError, match="y must be finite"):
        fit_interference(*_six_points("y", np.inf))


def test_fit_rejects_nan_phi():
    with pytest.raises(ValueError, match="phi must be finite"):
        fit_interference(*_six_points("phi", np.nan))


@pytest.mark.parametrize("bad", [slice(2, 3), slice(None)], ids=["one", "all"])
def test_fit_rejects_infinite_sigma(bad):
    # inf passes `sigma > 0`: one such point would drop out of the fit, and all of them give NaN
    phi = np.linspace(0.0, PI, 6)
    sigma = np.full(6, 0.01)
    sigma[bad] = np.inf
    with pytest.raises(ValueError, match="sigma must be finite"):
        fit_interference(phi, aa_curve(phi), sigma)


@pytest.mark.parametrize(
    "bad, match",
    [
        (0.0, "^stack index 2: sigma must be positive, got 0.0$"),
        (-0.1, "^stack index 2: sigma must be positive, got -0.1$"),
        (np.nan, "^stack index 2: sigma must be finite, got nan$"),
        (np.inf, "^stack index 2: sigma must be finite, got inf$"),
    ],
    ids=["zero", "negative", "nan", "inf"],
)
def test_fit_names_a_refused_sigma_and_its_index(bad, match):
    # the message was "standard errors must be positive", with no value or index
    phi = np.linspace(0.0, PI, 6)
    sigma = np.full(6, 0.01)
    sigma[2] = bad
    with pytest.raises(ValueError, match=match):
        fit_interference(phi, aa_curve(phi), sigma)


def test_fit_errors_scale_with_sigma_at_any_magnitude():
    # sigma = 1e300 gave an infinite stderr and 1e-300 gave 0.0, each with a
    # numpy warning, and the subnormal 1e-320 raised LinAlgError
    phi = np.linspace(0.0, PI, 6)
    y = aa_curve(phi)
    ref = fit_interference(phi, y, np.ones(6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-300, 1e300):
            fit = fit_interference(phi, y, np.full(6, scale))
            assert fit.minima_values[0] == pytest.approx(ref.minima_values[0], rel=1e-12, abs=1e-12)
            assert fit.minima_stderr[0] / scale == pytest.approx(ref.minima_stderr[0], rel=1e-12, abs=1e-12)
        stderr = fit_interference(phi, y, np.full(6, 1e-320)).minima_stderr[0]
        assert np.isfinite(stderr) and stderr > 0.0
        # scaling by a power of two is exact: the fit is the same to the bit
        sigma = np.linspace(0.01, 0.02, 6)
        fit, scaled = fit_interference(phi, y, sigma), fit_interference(phi, y, sigma * 2.0**-900)
        assert scaled.minima_values == fit.minima_values and scaled.offset == fit.offset
        assert scaled.minima_stderr[0] == fit.minima_stderr[0] * 2.0**-900


def test_fit_weights_are_the_binomial_stderr_at_the_shrunk_proportion():
    # witness_from_run weights each phase by the stderr at (n + 1/2)/(N + 1), not at n/N
    config = RunConfig(GRID25, 1000, visibility=0.9, seed=11, detector_model="bucket_with_pbs")
    table = simulate_counts(config)
    estimates = estimate_probabilities(config.phi_grid, table, config.detector_model)
    n_total = table.sum(axis=1)
    fits = witness_from_run(config)["fits"]
    for ch in ("ac", "aa"):
        c = CHANNELS.index(ch)
        q = (table[:, c] + 0.5) / (n_total + 1.0)
        sigma = _correction_factors(config.detector_model)[c] * np.sqrt(q * (1.0 - q) / n_total)
        assert fit_interference(estimates[ch].phi, estimates[ch].value, sigma).as_dict() == fits[f"p_{ch}"]


def test_fit_coverage_on_noisy_samples():
    truth = aa_curve(GRID25)
    failures = 0
    for s in range(100):
        rng = np.random.default_rng([424242, s])
        y = truth + rng.normal(0.0, 0.01, size=25)
        fit = fit_interference(GRID25, y, np.full(25, 0.01))
        s_off = np.sqrt(fit.covariance[0, 0])
        al = fit.amplitude * np.cos(fit.phase_origin)
        be = -fit.amplitude * np.sin(fit.phase_origin)
        g = np.array([0.0, al, be]) / fit.amplitude
        s_amp = np.sqrt(g @ fit.covariance @ g)
        if abs(fit.offset - 0.25) > 3 * s_off or abs(fit.amplitude - 0.15) > 3 * s_amp:
            failures += 1
    assert failures <= 3


def test_fit_is_unbiased_over_many_seeds():
    truth = aa_curve(GRID25)
    offs, amps, s_offs, s_amps = [], [], [], []
    for s in range(200):
        rng = np.random.default_rng([777, s])
        y = truth + rng.normal(0.0, 0.01, size=25)
        fit = fit_interference(GRID25, y, np.full(25, 0.01))
        offs.append(fit.offset)
        amps.append(fit.amplitude)
        s_offs.append(np.sqrt(fit.covariance[0, 0]))
        al = fit.amplitude * np.cos(fit.phase_origin)
        be = -fit.amplitude * np.sin(fit.phase_origin)
        g = np.array([0.0, al, be]) / fit.amplitude
        s_amps.append(np.sqrt(g @ fit.covariance @ g))
    sem_off = np.mean(s_offs) / np.sqrt(200)
    sem_amp = np.mean(s_amps) / np.sqrt(200)
    assert abs(np.mean(offs) - 0.25) < sem_off
    assert abs(np.mean(amps) - 0.15) < sem_amp


@pytest.mark.parametrize("detector_model", DETECTOR_MODELS)
def test_reported_minima_errors_are_calibrated_at_1e5_shots(detector_model):
    """Pulls (fitted minimum - true minimum) / reported stderr of the `ac` and
    `aa` fits over the fixed seed block 0..199, at 10**5 shots per phase.

    Calibrated errors make the pulls unit normal. The bounds come from sampling
    theory for 200 such pulls and were set before the first run: the mean within
    four standard errors of 0 (4/sqrt(200)), and the sample sd, whose own
    spread is about 1/sqrt(2 * 199) = 0.05, within [0.8, 1.2].
    """
    n_seeds = 200
    # every curve is a + b cos 2 phi, so its minimum over phi sits at 0 or pi/2
    truth = outcome_distributions([0.0, PI / 2], 0.95, 0.01).min(axis=0)
    pulls = {"ac": [], "aa": []}
    for seed in range(n_seeds):
        config = RunConfig(GRID25, 10**5, visibility=0.95, background_rate=0.01, seed=seed, detector_model=detector_model)
        fits = witness_from_run(config)["fits"]
        for ch, values in pulls.items():
            fit = fits[f"p_{ch}"]
            values.append((fit["minima_values"][0] - truth[CHANNELS.index(ch)]) / fit["minima_stderr"][0])
    for ch, values in pulls.items():
        assert abs(np.mean(values)) <= 4.0 / np.sqrt(n_seeds), (ch, np.mean(values))
        assert 0.8 <= np.std(values, ddof=1) <= 1.2, (ch, np.std(values, ddof=1))


def test_minima_errors_shrink_with_shot_count():
    lo = witness_from_run(RunConfig(phi_grid=GRID25, shots_per_phase=1000, visibility=0.965, seed=5))
    hi = witness_from_run(RunConfig(phi_grid=GRID25, shots_per_phase=100_000, visibility=0.965, seed=5))
    for curve in ("p_ac", "p_aa"):
        ratio = lo["fits"][curve]["minima_stderr"][0] / hi["fits"][curve]["minima_stderr"][0]
        assert 8.0 < ratio < 12.0  # x100 shots should shrink errors about x10


# -- end-to-end witness ---------------------------------------------------------


def test_ideal_run_violates_with_high_significance():
    rep = witness_from_run(
        RunConfig(phi_grid=GRID25, shots_per_phase=100_000, visibility=1.0, seed=7)
    )
    w = rep["witness"]
    assert w["verdict"] == "violated"
    assert w["violated_a"] and w["violated_b"]
    assert w["significance"] >= 5.0
    assert abs(w["p_min_ac"]["value"] - 0.0) < 0.01
    assert abs(w["p_min_aa"]["value"] - 0.25) < 0.01
    assert w["scale"] == "singlet"


def test_zero_visibility_run_reports_no_violation():
    rep = witness_from_run(
        RunConfig(phi_grid=GRID25, shots_per_phase=100_000, visibility=0.0, seed=11)
    )
    assert rep["witness"]["verdict"] == "not violated"
    assert not (rep["witness"]["violated_a"] and rep["witness"]["violated_b"])
    # raw curves are flat at 1/4
    assert abs(rep["fits"]["p_ac"]["minima_values"][0] - 0.25) < 0.01
    assert abs(rep["fits"]["p_aa"]["minima_values"][0] - 0.25) < 0.01


def test_report_structure_and_determinism():
    cfg = RunConfig(phi_grid=GRID25, shots_per_phase=2000, visibility=0.95, seed=3)
    rep = witness_from_run(cfg)
    assert set(rep) == {"config", "counts", "fits", "witness"}
    assert set(rep["fits"]) == {"p_ac", "p_aa"}
    for key in ("violated_a", "violated_b", "margins", "significance"):
        assert key in rep["witness"]
    assert rep["config"] == cfg.as_dict()
    assert len(rep["counts"]) == len(GRID25)
    phis, *columns = zip(*rep["counts"])
    assert list(phis) == list(cfg.phi_grid)
    assert np.array_equal(np.array(columns).T, simulate_counts(cfg))
    assert all(type(n) is int for row in rep["counts"] for n in row[1:])
    again = witness_from_run(cfg)
    assert json.dumps(rep, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_report_is_json_serializable_without_nan():
    rep = witness_from_run(RunConfig(phi_grid=GRID25, shots_per_phase=500, seed=13))
    json.dumps(rep, allow_nan=False)


def test_bucket_run_reaches_the_same_verdict():
    base = dict(phi_grid=GRID25, shots_per_phase=100_000, visibility=0.965, seed=20260817)
    nr = witness_from_run(RunConfig(**base))
    bk = witness_from_run(RunConfig(**base, detector_model="bucket_with_pbs"))
    assert nr["witness"]["verdict"] == bk["witness"]["verdict"] == "violated"
    for curve in ("p_ac", "p_aa"):
        a = nr["fits"][curve]["minima_values"][0]
        b = bk["fits"][curve]["minima_values"][0]
        err = np.hypot(nr["fits"][curve]["minima_stderr"][0], bk["fits"][curve]["minima_stderr"][0])
        assert abs(a - b) < 5.0 * err
