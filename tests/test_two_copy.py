import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi2.qstate import (
    make_density,
    partial_trace,
    purity,
    random_density,
    singlet,
    tensor,
    werner,
)
from renyi2.two_copy import (
    CollisionProbabilities,
    collision_probabilities,
    entropic_witness,
    purities_from_probabilities,
)

from oracles import projector_collision_probabilities, projectors

SQRT3 = np.sqrt(3.0)


def test_projector_ranks_dim2():
    pair = projectors(2)
    assert abs(np.trace(pair.p_sym).real - 3.0) < 1e-12
    assert abs(np.trace(pair.p_anti).real - 1.0) < 1e-12
    # the antisymmetric qubit subspace is spanned by the singlet
    vec = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(pair.p_anti @ vec, vec, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_projector_defining_relations(dim):
    pair = projectors(dim)
    for p in (pair.p_sym, pair.p_anti):
        assert np.max(np.abs(p @ p - p)) <= 1e-12
    assert np.max(np.abs(pair.p_sym @ pair.p_anti)) <= 1e-12
    assert np.max(np.abs(pair.p_sym + pair.p_anti - np.eye(dim * dim))) <= 1e-12
    assert abs(np.trace(pair.p_sym).real - dim * (dim + 1) / 2) < 1e-9
    assert abs(np.trace(pair.p_anti).real - dim * (dim - 1) / 2) < 1e-9


def test_projectors_reject_dim_below_two():
    with pytest.raises(ValueError, match="at least 2"):
        projectors(1)


def test_collision_probabilities_singlet():
    got = collision_probabilities(singlet()).as_tuple()
    want = (0.75, 0.0, 0.0, 0.25)
    assert np.allclose(got, want, atol=1e-12)


def test_collision_probabilities_product_pure_state():
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    got = collision_probabilities(make_density(hh, 2, 2)).as_tuple()
    assert np.allclose(got, (1.0, 0.0, 0.0, 0.0), atol=1e-12)


def test_collision_probabilities_maximally_mixed():
    # oracle: Tr[(P_X kron P_Y) I/16] = rank(P_X) rank(P_Y) / 16
    got = collision_probabilities(make_density(np.eye(4) / 4.0, 2, 2)).as_tuple()
    want = (9.0 / 16.0, 3.0 / 16.0, 3.0 / 16.0, 1.0 / 16.0)
    assert np.allclose(got, want, atol=1e-12)


@settings(max_examples=200)
@given(
    dim_a=st.sampled_from([2, 3, 4]),
    dim_b=st.sampled_from([2, 3, 4]),
    components=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_closed_form_matches_projector_trace(dim_a, dim_b, components, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(dim_a, dim_b, rng, components=min(components, dim_a * dim_b))
    got = collision_probabilities(rho).as_tuple()
    want = projector_collision_probabilities(rho)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12


def test_collision_probabilities_reject_monopartite():
    mono = make_density(np.eye(2) / 2.0, 2, 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        collision_probabilities(mono)


def test_purities_from_probabilities_fixed_points():
    sing = CollisionProbabilities(0.75, 0.0, 0.0, 0.25)
    assert np.allclose(purities_from_probabilities(sing), (1.0, 0.5, 0.5), atol=1e-15)
    prod = CollisionProbabilities(1.0, 0.0, 0.0, 0.0)
    assert np.allclose(purities_from_probabilities(prod), (1.0, 1.0, 1.0), atol=1e-15)
    mixed = CollisionProbabilities(9 / 16, 3 / 16, 3 / 16, 1 / 16)
    assert np.allclose(purities_from_probabilities(mixed), (0.25, 0.5, 0.5), atol=1e-15)


def test_purities_clamp_warns_on_inconsistent_input():
    bogus = CollisionProbabilities(0.0, 0.5, 0.5, 0.0)  # valid quadruple, no valid state
    with pytest.warns(RuntimeWarning, match="outside"):
        tr2, tra2, trb2 = purities_from_probabilities(bogus)
    assert tr2 == 0.0  # raw value -1, clamped
    assert tra2 == 0.0 and trb2 == 0.0


def test_collision_probability_validation():
    with pytest.raises(ValueError, match="outside"):
        CollisionProbabilities(1.2, -0.2, 0.0, 0.0)
    with pytest.raises(ValueError, match="sum"):
        CollisionProbabilities(0.5, 0.1, 0.1, 0.1)


def test_witness_on_singlet_probabilities():
    verdict = entropic_witness(collision_probabilities(singlet()))
    assert verdict.violated_a and verdict.violated_b and verdict.entangled
    assert abs(verdict.margin_a - 0.25) < 1e-12
    assert abs(verdict.margin_b - 0.25) < 1e-12


def test_witness_on_separable_product():
    verdict = entropic_witness(CollisionProbabilities(1.0, 0.0, 0.0, 0.0))
    assert not verdict.entangled
    assert verdict.margin_a <= 0.0 and verdict.margin_b <= 0.0


def test_witness_margin_on_werner_06():
    # margin = (tr rho^2 - tr rho_A^2)/2 = ((1 + 3*0.36)/4 - 1/2)/2 = 0.01
    verdict = entropic_witness(collision_probabilities(werner(0.6)))
    assert abs(verdict.margin_a - 0.01) < 1e-12
    assert abs(verdict.margin_b - 0.01) < 1e-12
    assert verdict.entangled


def test_witness_significance_propagation():
    p = collision_probabilities(werner(0.6))
    verdict = entropic_witness(p, sigma=(0.001, 0.003, 0.004, 0.002))
    assert abs(verdict.significance_a - 0.01 / np.hypot(0.002, 0.003)) < 1e-12
    assert abs(verdict.significance_b - 0.01 / np.hypot(0.002, 0.004)) < 1e-12
    assert verdict.significance == verdict.significance_a


def test_witness_rejects_negative_errors():
    p = collision_probabilities(singlet())
    with pytest.raises(ValueError, match="non-negative"):
        entropic_witness(p, sigma=(0.0, -0.1, 0.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_witness_rejects_non_finite_errors(bad):
    # NaN used to pass the sign check and come out as significance_a = nan
    p = collision_probabilities(werner(0.8))
    with pytest.raises(ValueError, match="sigma must be finite"):
        entropic_witness(p, sigma=(0.0, bad, 0.01, 0.01))


@pytest.mark.parametrize(
    "sigma", [(0.1,) * 3, (0.1,) * 5, [[0.1, 0.1], [0.1, 0.1]], 0.1], ids=["3", "5", "2x2", "scalar"]
)
def test_witness_names_sigma_and_its_length(sigma):
    # a 3-tuple died with "not enough values to unpack (expected 4, got 3)"
    p = collision_probabilities(werner(0.8))
    want = rf"sigma must form an array of shape \(4,\), got shape {re.escape(str(np.shape(sigma)))}"
    with pytest.raises(ValueError, match=f"^{want}$"):
        entropic_witness(p, sigma=sigma)


def test_identity_closure_on_random_states():
    # reconstruction from collision probabilities must match direct purities
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        rho = random_density(2, 2, rng, components=int(rng.integers(1, 6)))
        rec = purities_from_probabilities(collision_probabilities(rho))
        truth = (
            purity(rho),
            purity(partial_trace(rho, "A")),
            purity(partial_trace(rho, "B")),
        )
        assert np.max(np.abs(np.array(rec) - np.array(truth))) < 1e-10


def test_separable_states_never_violate():
    rng = np.random.default_rng(2024)
    margins = []
    for _ in range(1000):
        n_terms = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(n_terms)) if n_terms > 1 else np.array([1.0])
        m = np.zeros((4, 4), dtype=complex)
        for w in weights:
            pa = random_density(2, 1, rng, components=int(rng.integers(1, 3)))
            pb = random_density(2, 1, rng, components=int(rng.integers(1, 3)))
            m += w * np.kron(pa.matrix, pb.matrix)
        rho = make_density((m + m.conj().T) / 2.0, 2, 2)
        verdict = entropic_witness(collision_probabilities(rho))
        margins.append(max(verdict.margin_a, verdict.margin_b))
    assert max(margins) <= 1e-10


def test_witness_threshold_on_werner_family():
    def margin(p):
        v = entropic_witness(collision_probabilities(werner(p)))
        return v.margin_a

    lo, hi = 0.3, 0.9
    assert margin(lo) < 0.0 < margin(hi)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if margin(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2.0 - 1.0 / SQRT3) < 1e-8


def test_swap_symmetric_states_have_equal_cross_probabilities():
    rng = np.random.default_rng(77)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    for _ in range(50):
        rho0 = random_density(2, 2, rng).matrix
        sym = (rho0 + swap @ rho0 @ swap) / 2.0
        p = collision_probabilities(make_density(sym, 2, 2))
        assert abs(p.p_ca - p.p_ac) < 1e-12
