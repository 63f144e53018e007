import numpy as np
import pytest

from renyi2.qstate import (
    DensityOperator,
    SINGLET_VEC,
    make_density,
    partial_trace,
    ppt_min_eigenvalue,
    purity,
    random_density,
    singlet,
    tensor,
    werner,
)


def test_make_density_maximally_mixed():
    rho = make_density(np.eye(4) / 4.0, 2, 2)
    assert rho.dim == 4
    assert abs(purity(rho) - 0.25) < 1e-12


def test_make_density_rejects_non_hermitian():
    m = np.eye(4) / 4.0
    m[0, 1] = 0.3  # no conjugate partner
    with pytest.raises(ValueError, match="not Hermitian"):
        make_density(m, 2, 2)


def test_make_density_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        make_density(np.eye(4) / 2.0, 2, 2)


def test_make_density_rejects_negative_eigenvalue():
    m = np.diag([0.8, 0.4, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        make_density(m, 2, 2)


def test_make_density_rejects_nan_entry_that_passes_the_tolerance_checks():
    # NaN compares False against every tolerance, so this used to be accepted
    with pytest.raises(ValueError, match="matrix must be finite"):
        make_density(np.diag([np.nan, 0.5, 0.5, 0.0]), 2, 2)


def test_make_density_rejects_all_nan_matrix_before_the_eigensolver():
    # this used to reach eigvalsh and raise numpy's LinAlgError
    with pytest.raises(ValueError, match="matrix must be finite"):
        make_density(np.full((4, 4), np.nan), 2, 2)


def test_make_density_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        make_density(np.eye(4) / 4.0, 2, 3)


def test_make_density_accepts_singlet_projector():
    rho = make_density(np.outer(SINGLET_VEC, SINGLET_VEC), 2, 2)
    assert abs(purity(rho) - 1.0) < 1e-12


def test_singlet_is_pure_with_maximally_mixed_marginals():
    s = singlet()
    assert abs(purity(s) - 1.0) < 1e-12
    for side in ("A", "B"):
        red = partial_trace(s, side)
        assert np.allclose(red.matrix, np.eye(2) / 2.0, atol=1e-12)
    # no |HH> component
    assert abs(s.matrix[0, 0]) < 1e-15


def test_werner_endpoints():
    assert np.allclose(werner(1.0).matrix, singlet().matrix, atol=1e-15)
    assert np.allclose(werner(0.0).matrix, np.eye(4) / 4.0, atol=1e-15)


def test_werner_rejects_out_of_range():
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        werner(1.2)
    with pytest.raises(ValueError):
        werner(-0.1)


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / np.sqrt(3.0), 0.7, 1.0])
def test_werner_purity_against_direct_trace(p):
    # oracle: build the mixture by hand and take Tr(M @ M) directly
    m = p * np.outer(SINGLET_VEC, SINGLET_VEC) + (1.0 - p) * np.eye(4) / 4.0
    direct = np.trace(m @ m).real
    assert abs(purity(werner(p)) - direct) < 1e-12
    assert abs(direct - (1.0 + 3.0 * p * p) / 4.0) < 1e-12


def test_werner_at_inverse_sqrt3_has_purity_half():
    assert abs(purity(werner(1.0 / np.sqrt(3.0))) - 0.5) < 1e-12


def test_tensor_of_maximally_mixed_qubits():
    half = make_density(np.eye(2) / 2.0, 2, 1)
    prod = tensor(half, half)
    assert prod.dim_a == 2 and prod.dim_b == 2
    assert np.allclose(prod.matrix, np.eye(4) / 4.0, atol=1e-15)


def test_tensor_of_two_singlets_is_pure_16_dim():
    prod = tensor(singlet(), singlet())
    assert prod.dim == 16
    assert abs(purity(prod) - 1.0) < 1e-12


def test_tensor_purity_is_multiplicative_on_random_states():
    rng = np.random.default_rng(811)
    for _ in range(100):
        rho = random_density(2, 2, rng)
        assert abs(purity(tensor(rho, rho)) - purity(rho) ** 2) < 1e-10


def test_partial_trace_of_product_basis_states():
    h = make_density(np.diag([1.0, 0.0]).astype(complex), 2, 1)
    v = make_density(np.diag([0.0, 1.0]).astype(complex), 2, 1)
    hv = tensor(h, v)
    assert np.allclose(partial_trace(hv, "B").matrix, v.matrix, atol=1e-15)
    assert np.allclose(partial_trace(hv, "A").matrix, h.matrix, atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.6, 1.0])
def test_werner_marginals_are_maximally_mixed(p):
    red = partial_trace(werner(p), "A")
    assert np.allclose(red.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_rejects_bad_selector():
    with pytest.raises(ValueError, match="selector"):
        partial_trace(singlet(), "C")


def test_partial_trace_undoes_tensor():
    rng = np.random.default_rng(52)
    for _ in range(20):
        rho = random_density(2, 2, rng)
        sig = random_density(2, 2, rng)
        prod = tensor(rho, sig)
        assert np.max(np.abs(partial_trace(prod, "A").matrix - rho.matrix)) < 1e-12
        assert np.max(np.abs(partial_trace(prod, "B").matrix - sig.matrix)) < 1e-12


def test_purity_bounds_and_unitary_invariance():
    rng = np.random.default_rng(99)
    for _ in range(50):
        rho = random_density(2, 2, rng)
        pur = purity(rho)
        assert 1.0 / rho.dim - 1e-12 <= pur <= 1.0 + 1e-12
        # Haar-ish unitary from QR of a Ginibre matrix
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        rotated = make_density(q @ rho.matrix @ q.conj().T, 2, 2)
        assert abs(purity(rotated) - pur) < 1e-10


def test_ppt_min_eigenvalue_singlet():
    # partial-transpose eigendecomposition gives eigenvalues (1/2, 1/2, 1/2, -1/2)
    assert abs(ppt_min_eigenvalue(singlet()) - (-0.5)) < 1e-12


def test_ppt_min_eigenvalue_on_werner_family():
    # closed form for the Werner family: (1 - 3p)/4
    for p in (0.0, 1.0 / 3.0, 0.5, 0.9):
        assert abs(ppt_min_eigenvalue(werner(p)) - (1.0 - 3.0 * p) / 4.0) < 1e-10
    assert abs(ppt_min_eigenvalue(werner(1.0 / 3.0))) < 1e-10
    assert abs(ppt_min_eigenvalue(make_density(np.eye(4) / 4.0, 2, 2)) - 0.25) < 1e-12


def test_ppt_rejects_monopartite_state():
    mono = make_density(np.eye(2) / 2.0, 2, 1)
    with pytest.raises(ValueError, match="bipartite"):
        ppt_min_eigenvalue(mono)


def test_ppt_sign_change_at_one_third():
    lo, hi = 0.0, 1.0
    for _ in range(60):  # bisection well past 1e-8
        mid = (lo + hi) / 2.0
        if ppt_min_eigenvalue(werner(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs((lo + hi) / 2.0 - 1.0 / 3.0) < 1e-8


def test_operations_return_validated_states():
    # constructing a DensityOperator is the validation; a chain of operations
    # must therefore never raise on healthy inputs
    rng = np.random.default_rng(3)
    for _ in range(25):
        rho = random_density(2, 2, rng, components=int(rng.integers(1, 6)))
        chain = partial_trace(tensor(rho, werner(0.4)), "A")
        m = chain.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        assert abs(np.trace(m) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(m)[0] >= -1e-10


def test_random_density_rejects_zero_components():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="component"):
        random_density(2, 2, rng, components=0)
