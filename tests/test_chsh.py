import numpy as np
import pytest

from renyi2.chsh import CorrelationMatrix, correlation_matrix, max_chsh
from renyi2.qstate import make_density, random_density, singlet, tensor, werner

from oracles import kron_correlation_matrix, settings_scan_max_chsh

SQRT2 = np.sqrt(2.0)


def test_correlation_matrix_singlet():
    # <sigma_i kron sigma_j> = -delta_ij on the singlet
    t = correlation_matrix(singlet()).t
    assert np.allclose(t, -np.eye(3), atol=1e-12)


def test_correlation_matrix_maximally_mixed():
    t = correlation_matrix(make_density(np.eye(4) / 4.0, 2, 2)).t
    assert np.max(np.abs(t)) < 1e-12


@pytest.mark.parametrize("p", [0.0, 0.25, 0.7, 1.0])
def test_correlation_matrix_werner_is_linear_in_p(p):
    t = correlation_matrix(werner(p)).t
    assert np.allclose(t, -p * np.eye(3), atol=1e-12)


def test_correlation_matrix_rejects_wrong_dimensions():
    with pytest.raises(ValueError, match="dimension mismatch"):
        correlation_matrix(make_density(np.eye(2) / 2.0, 2, 1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        correlation_matrix(tensor(singlet(), singlet()))


def test_correlation_matrix_validation():
    with pytest.raises(ValueError, match="\\[-1, 1\\]"):
        CorrelationMatrix(1.5 * np.eye(3))


def test_correlation_matrix_rejects_nan():
    # this used to reach the SVD and raise "SVD did not converge"
    t = np.eye(3) * 0.5
    t[1, 2] = np.nan
    with pytest.raises(ValueError, match="correlation matrix t must be finite"):
        CorrelationMatrix(t)


def test_correlation_matrix_matches_kron_oracle_on_random_states():
    # sixteen products of magnitude <= 1 per entry: agreement to a few ulp
    rng = np.random.default_rng(909)
    for _ in range(200):
        rho = random_density(2, 2, rng, components=int(rng.integers(1, 6)))
        assert np.max(np.abs(correlation_matrix(rho).t - kron_correlation_matrix(rho))) < 1e-14


def test_max_chsh_singlet_reaches_tsirelson():
    assert abs(max_chsh(singlet()) - 2.0 * SQRT2) < 1e-12
    assert abs(settings_scan_max_chsh(singlet()) - 2.0 * SQRT2) < 1e-4


def test_max_chsh_product_state_is_two():
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    rho = make_density(hh, 2, 2)
    assert abs(max_chsh(rho) - 2.0) < 1e-12
    assert abs(settings_scan_max_chsh(rho) - 2.0) < 1e-4


@pytest.mark.parametrize("p", [0.5, 0.8])
def test_max_chsh_werner_scaling(p):
    want = 2.0 * SQRT2 * p
    assert abs(max_chsh(werner(p)) - want) < 1e-12
    assert abs(settings_scan_max_chsh(werner(p)) - want) < 1e-4


def test_closed_form_matches_settings_oracle_on_random_states():
    rng = np.random.default_rng(606)
    for _ in range(200):
        rho = random_density(2, 2, rng, components=int(rng.integers(1, 6)))
        assert abs(max_chsh(rho) - settings_scan_max_chsh(rho)) < 1e-4


def _haar_qubit_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_local_unitary_invariance():
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_density(2, 2, rng)
        base = max_chsh(rho)
        for _ in range(4):
            u = np.kron(_haar_qubit_unitary(rng), _haar_qubit_unitary(rng))
            rotated = make_density(u @ rho.matrix @ u.conj().T, 2, 2)
            assert abs(max_chsh(rotated) - base) < 1e-8


def test_chsh_threshold_on_werner_family():
    lo, hi = 0.5, 0.9
    assert max_chsh(werner(lo)) < 2.0 < max_chsh(werner(hi))
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if max_chsh(werner(mid)) < 2.0:
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2.0 - 1.0 / SQRT2) < 1e-8


def test_entropic_witness_beats_chsh_between_thresholds():
    from renyi2.two_copy import collision_probabilities, entropic_witness

    for p in (0.58, 0.60, 0.65, 0.70, 0.705):
        verdict = entropic_witness(collision_probabilities(werner(p)))
        assert verdict.entangled, f"witness silent at p={p}"
        assert max_chsh(werner(p)) <= 2.0 + 1e-9, f"CHSH fired at p={p}"

