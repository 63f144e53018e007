"""Stacked kernels: each row matches the per-state oracle, and a bad member is named."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi2 import chsh, cli
from renyi2.chsh import max_chsh, max_chsh_values
from renyi2.qstate import (
    DensityOperator,
    density_stack,
    make_density,
    partial_trace,
    ppt_min_eigenvalue,
    ppt_min_eigenvalues,
    purity,
    random_density,
    singlet,
    tensor,
    werner,
    werner_stack,
)
from renyi2.two_copy import (
    CollisionProbabilities,
    collision_probabilities,
    collision_quadruples,
    entropic_witness,
    purities_from_probabilities,
    witness_margins,
)

from oracles import kron_correlation_matrix, loop_ppt_min_eigenvalue, projector_collision_probabilities

DIMS = st.sampled_from([2, 3, 4])
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
SIZES = st.integers(min_value=1, max_value=6)


def random_states(dim_a: int, dim_b: int, n: int, seed: int) -> list[DensityOperator]:
    """n random states, pure through full rank."""
    rng = np.random.default_rng(seed)
    d = dim_a * dim_b
    return [random_density(dim_a, dim_b, rng, int(rng.integers(1, d + 1))) for _ in range(n)]


def stack_of(states) -> np.ndarray:
    return density_stack([r.matrix for r in states], states[0].dim_a, states[0].dim_b)


@settings(max_examples=100)
@given(dim_a=DIMS, dim_b=DIMS, n=SIZES, seed=SEEDS)
def test_stacked_rows_match_per_state_oracles(dim_a, dim_b, n, seed):
    states = random_states(dim_a, dim_b, n, seed)
    stack = stack_of(states)
    assert stack.shape == (n, dim_a * dim_b, dim_a * dim_b) and not stack.flags.writeable
    quads = collision_quadruples(stack, dim_a, dim_b)
    ppt = ppt_min_eigenvalues(stack, dim_a, dim_b)
    for k, rho in enumerate(states):
        np.testing.assert_array_equal(stack[k], rho.matrix)
        assert np.max(np.abs(quads[k] - projector_collision_probabilities(rho))) < 1e-12
        assert abs(ppt[k] - loop_ppt_min_eigenvalue(rho)) < 1e-12
        assert abs(ppt[k] - ppt_min_eigenvalue(rho)) < 1e-15


@settings(max_examples=100)
@given(n=SIZES, seed=SEEDS)
def test_stacked_chsh_matches_kron_oracle(n, seed):
    states = random_states(2, 2, n, seed)
    got = max_chsh_values(stack_of(states), 2, 2)
    for k, rho in enumerate(states):
        s = np.linalg.svd(kron_correlation_matrix(rho), compute_uv=False)
        assert abs(got[k] - 2.0 * np.hypot(s[0], s[1])) < 1e-12
        assert abs(got[k] - max_chsh(rho)) < 1e-15


@settings(max_examples=100)
@given(dim_a=DIMS, dim_b=DIMS, n=SIZES, seed=SEEDS)
def test_quadruples_sum_to_one_and_invert_to_purities(dim_a, dim_b, n, seed):
    states = random_states(dim_a, dim_b, n, seed)
    quads = collision_quadruples(stack_of(states), dim_a, dim_b)
    assert np.max(np.abs(quads.sum(axis=1) - 1.0)) < 1e-12
    for q, rho in zip(quads, states):
        rec = purities_from_probabilities(CollisionProbabilities(*q.tolist()))
        truth = (purity(rho), purity(partial_trace(rho, "A")), purity(partial_trace(rho, "B")))
        assert np.max(np.abs(np.subtract(rec, truth))) < 1e-12


@settings(max_examples=200)
@given(dim_a=DIMS, dim_b=DIMS, seed=SEEDS)
def test_witness_never_fires_on_product_states(dim_a, dim_b, seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density(dim_a, 1, rng, int(rng.integers(1, dim_a + 1)))
    rho_b = random_density(dim_b, 1, rng, int(rng.integers(1, dim_b + 1)))
    assert not entropic_witness(collision_probabilities(tensor(rho_a, rho_b))).entangled


def test_witness_does_not_fire_on_pure_product_states():
    # both margins are exactly 0 in theory; roundoff used to push some above 0
    rng = np.random.default_rng(31)
    for _ in range(200):
        rho = tensor(random_density(2, 1, rng, 1), random_density(3, 1, rng, 1))
        verdict = entropic_witness(collision_probabilities(rho))
        assert abs(verdict.margin_a) < 1e-15 and abs(verdict.margin_b) < 1e-15
        assert not verdict.entangled


def test_werner_stack_rows_are_werner_states():
    ps = np.linspace(0.0, 1.0, 11)
    stack = werner_stack(ps)
    for p, m in zip(ps, stack):
        np.testing.assert_array_equal(m, werner(float(p)).matrix)


# one corruption per invariant, applied to a valid d x d member
DENSITY_DEFECTS = {
    "finite": (lambda m: np.where(np.eye(len(m)) > 0, np.nan, m), "matrix must be finite"),
    "hermitian": (lambda m: m + np.triu(np.full_like(m, 1e-3), 1), "not Hermitian"),
    "trace": (lambda m: 1.5 * m, "trace is not 1"),
    "psd": (lambda m: m + np.diag([0.5, -0.5] + [0.0] * (len(m) - 2)),
            "not positive semidefinite"),
}


@settings(max_examples=100)
@given(dim_a=DIMS, dim_b=DIMS, n=st.integers(2, 6), kind=st.sampled_from(sorted(DENSITY_DEFECTS)),
       data=st.data())
def test_density_stack_names_the_bad_index(dim_a, dim_b, n, kind, data):
    bad = data.draw(st.integers(1, n - 1))
    d = dim_a * dim_b
    corrupt, message = DENSITY_DEFECTS[kind]
    m = np.repeat(np.eye(d, dtype=complex)[None] / d, n, axis=0)
    m[bad] = corrupt(m[bad])
    with pytest.raises(ValueError, match=f"^stack index {bad}: {message}"):
        density_stack(m, dim_a, dim_b)
    # the single-state message stays bare
    with pytest.raises(ValueError, match=f"^{message}"):
        make_density(m[bad], dim_a, dim_b)


@settings(max_examples=50)
@given(n=st.integers(2, 6), data=st.data())
def test_stacked_kernels_name_the_bad_index(n, data):
    bad = data.draw(st.integers(1, n - 1))
    ps = np.full(n, 0.5)
    ps[bad] = data.draw(st.sampled_from([-0.1, 1.5, np.nan]))
    with pytest.raises(ValueError, match=f"^stack index {bad}: mixing parameter"):
        werner_stack(ps)
    # the kernels check their own outputs, so an unvalidated stack cannot slip through
    m = np.repeat(np.eye(4, dtype=complex)[None] / 4, n, axis=0)
    m[bad] = 3.0 * singlet().matrix
    with pytest.raises(ValueError, match=f"^stack index {bad}: p_cc = .* outside"):
        collision_quadruples(m, 2, 2)
    with pytest.raises(ValueError, match=f"^stack index {bad}: correlation entries"):
        max_chsh_values(m, 2, 2)


def test_stacked_kernels_reject_wrong_dimensions():
    stack = werner_stack([0.2, 0.8])
    with pytest.raises(ValueError, match=r"^matrix must form an array of shape \(n, 4, 4\), got shape \(4, 4\)$"):
        density_stack(stack[0], 2, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        max_chsh_values(stack, 4, 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        collision_quadruples(stack, 4, 1)
    with pytest.raises(ValueError, match="bipartite"):
        ppt_min_eigenvalues(stack, 4, 1)
    with pytest.raises(ValueError, match=r"^mixing parameter must form an array of shape \(n,\), got shape \(\)$"):
        werner_stack(0.5)


def test_stacked_kernels_and_margins_refuse_other_shapes():
    # a single matrix used to reach numpy's einsum ("too many subscripts"), or
    # to be read as a stack of its rows; a single quadruple raised IndexError
    for kernel in (collision_quadruples, max_chsh_values, ppt_min_eigenvalues):
        with pytest.raises(ValueError, match=r"^matrix must form an array of shape \(n, 4, 4\), got shape \(4, 4\)$"):
            kernel(np.eye(4) / 4, 2, 2)
    with pytest.raises(ValueError, match=r"^quadruples must form an array of shape \(n, 4\), got shape \(4,\)$"):
        witness_margins([0.25] * 4)
    with pytest.raises(ValueError, match=r"^quadruples must form an array of shape \(n, 4\), got shape \(2, 3\)$"):
        witness_margins(np.zeros((2, 3)))


def test_stacked_kernels_read_their_dimensions_as_integers():
    stack = werner_stack([0.2, 0.8])
    for kernel in (collision_quadruples, max_chsh_values, ppt_min_eigenvalues):
        np.testing.assert_array_equal(kernel(stack, 2.0, np.int64(2)), kernel(stack, 2, 2))
        with pytest.raises(ValueError, match="^dim_a must be a number, got True$"):
            kernel(stack, True, 2)
        with pytest.raises(ValueError, match=r"^dim_b must be a positive integer below 2\*\*63, got 2.5$"):
            kernel(stack, 2, 2.5)


def test_werner_scan_calls_each_kernel_once(tmp_path, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("werner_stack", "ppt_min_eigenvalues", "collision_quadruples"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    # cli reads max_chsh_values from its layer when werner-scan runs
    monkeypatch.setattr(chsh, "max_chsh_values", counted("max_chsh_values", chsh.max_chsh_values))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))

    def no_single_states(self):
        raise AssertionError("werner-scan built a single DensityOperator")

    monkeypatch.setattr(DensityOperator, "__post_init__", no_single_states)
    out = str(tmp_path / "scan.csv")
    assert cli.main(["werner-scan", "--steps", "1001", "--out", out]) == 0
    assert calls == dict.fromkeys(
        ("werner_stack", "ppt_min_eigenvalues", "collision_quadruples", "max_chsh_values", "svd"), 1
    )
