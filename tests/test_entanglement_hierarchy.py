"""The paper's central claim over the whole state space: the entropic witness
is stronger than every CHSH test, and weaker than the reduction and PPT criteria.

    CHSH > 2  =>  entropic violation  =>  reduction criterion violated  =>  NPT

- CHSH => entropic holds for two qubits (R., P. & M. Horodecki, PLA 210 (1996)
  377). In Bloch form margin_a + margin_b = (sum t_ij^2 - 1) / 4, and a CHSH
  value B gives sum t_ij^2 >= B^2 / 4, so one side's margin is positive.
- A side-A violation, tr rho^2 > tr rho_A^2, breaks rho_A (x) 1 - rho >= 0,
  because tr[rho (rho_A (x) 1 - rho)] = tr rho_A^2 - tr rho^2 (Vollbrecht &
  Wolf, JMP 43 (2002) 4299). Side B is the same with 1 (x) rho_B.
- The reduction map is decomposable, so every PPT state satisfies it (M. & P.
  Horodecki, PRA 59 (1999) 4206).

Every quantity comes from the production stacked kernels, on random states of
every rank mixed with white noise, so that states sit near the thresholds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi2.chsh import max_chsh_values
from renyi2.qstate import density_stack, ppt_min_eigenvalues
from renyi2.two_copy import collision_quadruples, witness_margins

# A premise counts only when it holds by more than TOL, and its conclusion must
# then hold by its sign. Each step above has a linear bound with a constant of
# order one, and the kernels round at about 1e-15, far inside TOL.
TOL = 1e-9
SHAPES = [(2, 2), (2, 3), (3, 3), (2, 4)]


def noisy_states(dim_a: int, dim_b: int, rank: int, noise, n: int, seed: int) -> np.ndarray:
    """Validated stack of n random rank-`rank` states, each mixed with white noise of weight noise."""
    d = dim_a * dim_b
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, d, rank)) + 1j * rng.normal(size=(n, d, rank))
    m = g @ g.conj().transpose(0, 2, 1)
    m /= np.trace(m, axis1=1, axis2=2).real[:, None, None]
    w = np.broadcast_to(np.asarray(noise, dtype=float), (n,))[:, None, None]
    m = (1 - w) * m + w * np.eye(d) / d
    return density_stack((m + m.conj().transpose(0, 2, 1)) / 2, dim_a, dim_b)


def reduction_min_eigenvalues(stack: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Least eigenvalues of rho_A (x) 1 - rho and 1 (x) rho_B - rho, as an (n, 2) array."""
    d = dim_a * dim_b
    r = stack.reshape(-1, dim_a, dim_b, dim_a, dim_b)
    side_a = np.einsum("nac,bd->nabcd", np.einsum("nabcb->nac", r), np.eye(dim_b))
    side_b = np.einsum("ac,nbd->nabcd", np.eye(dim_a), np.einsum("nabad->nbd", r))
    return np.stack([np.linalg.eigvalsh(s.reshape(-1, d, d) - stack)[:, 0] for s in (side_a, side_b)], axis=1)


def criteria(stack: np.ndarray, dim_a: int, dim_b: int):
    """(CHSH values or None, (n, 2) entropic margins, (n, 2) reduction eigenvalues, PPT eigenvalues)."""
    chsh = max_chsh_values(stack, dim_a, dim_b) if (dim_a, dim_b) == (2, 2) else None
    margins = witness_margins(collision_quadruples(stack, dim_a, dim_b))
    return chsh, margins, reduction_min_eigenvalues(stack, dim_a, dim_b), ppt_min_eigenvalues(stack, dim_a, dim_b)


def assert_chain(chsh, margins, reduction, ppt) -> None:
    if chsh is not None:
        assert np.all(margins[chsh > 2 + TOL].max(axis=1) > 0)
    # side by side: a positive margin on a side breaks that side's reduction operator
    assert np.all(reduction[margins > TOL] < 0)
    assert np.all(ppt[reduction.min(axis=1) < -TOL] < 0)


@settings(max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    shape=st.sampled_from(SHAPES),
    rank=st.integers(min_value=1, max_value=16),
    noise=st.floats(min_value=0.0, max_value=1.0),
)
def test_chsh_entropic_reduction_and_ppt_form_a_chain(seed, shape, rank, noise):
    dim_a, dim_b = shape
    stack = noisy_states(dim_a, dim_b, min(rank, dim_a * dim_b), noise, 32, seed)
    assert_chain(*criteria(stack, dim_a, dim_b))


def test_a_fixed_batch_keeps_the_chain_and_shows_each_step_strict():
    # 200 states for each shape and rank, their noise weights uniform in [0, 1]
    found = dict.fromkeys(["entropic within CHSH", "reduction not entropic", "NPT within reduction", "NPT not entropic"], False)
    for dim_a, dim_b in SHAPES:
        for rank in range(1, dim_a * dim_b + 1):
            noise = np.random.default_rng([dim_a, dim_b, rank]).uniform(size=200)
            stack = noisy_states(dim_a, dim_b, rank, noise, 200, seed=100 * dim_a + 10 * dim_b + rank)
            chsh, margins, reduction, ppt = criteria(stack, dim_a, dim_b)
            assert_chain(chsh, margins, reduction, ppt)
            entropic, broken = margins.max(axis=1), reduction.min(axis=1)
            if chsh is not None:
                found["entropic within CHSH"] |= bool(np.any((entropic > TOL) & (chsh < 2 - TOL)))
            found["reduction not entropic"] |= bool(np.any((broken < -TOL) & (entropic < -TOL)))
            found["NPT within reduction"] |= bool(np.any((ppt < -TOL) & (broken > TOL)))
            found["NPT not entropic"] |= bool(np.any((ppt < -TOL) & (entropic < -TOL)))
    assert all(found.values()), found
