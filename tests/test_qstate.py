import math
import re
import warnings
from numbers import Integral

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renyi2.chsh import CorrelationMatrix, max_chsh_values
from renyi2.experiment import MAX_SHOTS, RunConfig, estimate_probabilities, fit_interference, outcome_distributions
from renyi2.fock import coincidence_curves, outcome_curves
from renyi2.qstate import (
    DensityOperator,
    SINGLET_VEC,
    _numbers,
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
from renyi2.two_copy import CollisionProbabilities, collision_quadruples, entropic_witness, witness_margins


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
    with pytest.raises(ValueError, match=r"^matrix must form an array of shape \(6, 6\), got shape \(4, 4\)$"):
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: make_density(np.eye(5) / 5, 2.5, 2), "dim_a must be a positive integer below 2**63, got 2.5"),
        (lambda: make_density(np.eye(4) / 4, True, 4), "dim_a must be a number, got True"),
        (lambda: make_density(np.eye(4) / 4, 4, 0), "dim_b must be a positive integer below 2**63, got 0"),
        (lambda: werner(True), "mixing parameter must be a number, got True"),
        (lambda: werner(np.nan), "mixing parameter must be finite, got nan"),
        (lambda: werner(-np.inf), "mixing parameter must be finite, got -inf"),
        (
            lambda: random_density(2, 2, np.random.default_rng(0), components=1.5),
            "components must be a positive integer below 2**63, got 1.5",
        ),
        (lambda: random_density(0.5, 2, np.random.default_rng(0)), "dim_a must be a positive integer below 2**63, got 0.5"),
    ],
    ids=["fractional-dim", "bool-dim", "zero-dim", "bool-p", "nan-p", "inf-p", "fractional-components", "fractional-random-dim"],
)
def test_refused_numbers_name_their_argument(call, message):
    # each used to build a state whose later use raised TypeError, or read True as 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_random_density_refuses_its_dimensions_before_drawing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^dim_b must be"):
        random_density(2, -3, rng)
    assert rng.bit_generator.state == before


def test_integral_numbers_read_as_ints():
    rho = make_density(np.eye(4) / 4, 2.0, np.int64(2))
    assert type(rho.dim_a) is int and type(rho.dim_b) is int and rho.dim_a == rho.dim_b == 2
    assert np.allclose(partial_trace(rho, "A").matrix, np.eye(2) / 2, atol=1e-15)
    # one component is a pure state
    assert abs(purity(random_density(2, 2, np.random.default_rng(0), components=1.0)) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "values",
    [
        [[0.5, 0], [0]],
        [np.array([1.0, 2.0]), np.array([1.0])],
        [[1, 2], [3, [4]]],
        [np.zeros(2), np.zeros((2, 2))],
    ],
    ids=["short-row", "short-array", "deeper-entry", "deeper-array"],
)
@pytest.mark.parametrize("dtype", [float, complex, np.int64])
def test_rows_that_do_not_stack_are_refused_as_ragged(values, dtype):
    # the first three were named by their row's type, "got a list" or "got a ndarray"
    what = "integers" if dtype is np.int64 else "a number"
    with pytest.raises(ValueError, match=f"^matrix must be {what}, got a ragged row$"):
        _numbers("matrix", values, dtype, (None, None))


@pytest.mark.parametrize("dtype", [float, complex, np.int64])
def test_a_0d_array_entry_is_not_a_row(dtype):
    # it was refused as "got a ragged row"; beside a 1-d array it is still ragged
    what = "integers" if dtype is np.int64 else "a number"
    with pytest.raises(ValueError, match=f"^phi must be {what}, got a ndarray$"):
        _numbers("phi", [np.array(1), 2], dtype, (None,))
    with pytest.raises(ValueError, match=f"^phi must be {what}, got a ragged row$"):
        _numbers("phi", [np.array(1), np.array([2])], dtype, (None,))


# any scalar a caller may pass: bools, ints beyond every C integer type, every
# float with NaN and the infinities
NUMBERS = st.one_of(st.booleans(), st.integers(-(2**70), 2**70), st.floats())
# random_density allocates arrays d = dim_a * dim_b and components wide, and a
# 10**15-wide state raises MemoryError, which is not a defect: its integral
# values stay at most 4
SMALL_NUMBERS = st.one_of(
    st.booleans(), st.integers(-(2**70), 4), st.floats().filter(lambda x: not (x > 4 and x.is_integer()))
)
STACK = werner_stack([0.3, 0.9])
SURE = CollisionProbabilities(0.75, 0.0, 0.0, 0.25)

# each scalar the library reads: the name its refusal gives, whether it is a
# count, its strategy, the call
LIBRARY_NUMBERS = {
    "make_density-dim_a": ("dim_a", True, NUMBERS, lambda x: make_density(np.eye(4) / 4, x, 2)),
    "make_density-dim_b": ("dim_b", True, NUMBERS, lambda x: make_density(np.eye(4) / 4, 2, x)),
    "random_density-dim_a": ("dim_a", True, SMALL_NUMBERS, lambda x: random_density(x, 2, np.random.default_rng(0))),
    "random_density-dim_b": ("dim_b", True, SMALL_NUMBERS, lambda x: random_density(2, x, np.random.default_rng(0))),
    "random_density-components": (
        "components", True, SMALL_NUMBERS, lambda x: random_density(2, 2, np.random.default_rng(0), x)
    ),
    "werner-p": ("mixing parameter", False, NUMBERS, werner),
    "visibility": ("visibility", False, NUMBERS, lambda x: outcome_distributions([0.0, 1.0], x, 0.0)),
    "background_rate": ("background_rate", False, NUMBERS, lambda x: outcome_distributions([0.0, 1.0], 1.0, x)),
    "sigma-entry": ("sigma", False, NUMBERS, lambda x: entropic_witness(SURE, (0.01, 0.01, 0.01, x))),
    "witness_margins": ("quadruples", False, NUMBERS, witness_margins),
    "witness_margins-entry": ("quadruples", False, NUMBERS, lambda x: witness_margins([[0.25, 0.25, 0.25, x]])),
    **{
        f"{kernel.__name__}-{name}": (name, True, NUMBERS, call)
        for kernel in (collision_quadruples, max_chsh_values, ppt_min_eigenvalues)
        for name, call in (
            ("dim_a", lambda x, kernel=kernel: kernel(STACK, x, 2)),
            ("dim_b", lambda x, kernel=kernel: kernel(STACK, 2, x)),
        )
    },
}


@pytest.mark.parametrize("case", sorted(LIBRARY_NUMBERS))
@settings(max_examples=100)
@given(data=st.data())
def test_any_number_in_any_argument_returns_or_is_refused(case, data):
    name, count, numbers, call = LIBRARY_NUMBERS[case]
    x = data.draw(numbers)
    refusal = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(x)
        except ValueError as exc:
            refusal = str(exc)
    # a bool is not a number, and a count is an integer
    if isinstance(x, bool) or (count and not float(x).is_integer()):
        assert refusal is not None and refusal.startswith(f"{name} must be"), (x, refusal)


@pytest.mark.parametrize("case", sorted(LIBRARY_NUMBERS))
@pytest.mark.parametrize("x", [10**400, -(10**400), 10**5000, -(10**5000)], ids=["e400", "-e400", "e5000", "-e5000"])
def test_an_integer_beyond_every_range_is_refused_in_one_short_line(case, x):
    # a float field printed all 401 digits, and str() of an int over 4300 digits
    # raised its own ValueError, which named no argument
    name, _, _, call = LIBRARY_NUMBERS[case]
    with pytest.raises(ValueError) as refused:
        call(x)
    message = str(refused.value)
    assert message.startswith(f"{name} must be") and "\n" not in message and len(message) < 200, message


# a scalar float field, a probability and the non-integral path of a count, each
# read by _numbers as an array of shape ()
SCALAR_FIELDS = {
    "visibility": ("visibility", lambda x: RunConfig([0.0, 1.0], 10, visibility=x)),
    "werner": ("mixing parameter", werner),
    "shots_per_phase": ("shots_per_phase", lambda x: RunConfig([0.0, 1.0], x)),
}
NOT_NUMBERS = [True, np.True_, "0.5", None, [0.5], {}, np.array(0.5)]


@pytest.mark.parametrize("field", sorted(SCALAR_FIELDS))
@pytest.mark.parametrize(
    "x, refusal",
    [
        *((x, f"must be a number, got {x!r}") for x in NOT_NUMBERS),
        (math.nan, "must be finite, got nan"),
        (np.float64("nan"), "must be finite, got nan"),
        (-math.inf, "must be finite, got -inf"),
        (10**400, None),
    ],
    ids=["bool", "np-bool", "str", "none", "list", "dict", "0d-array", "nan", "np-nan", "-inf", "e400"],
)
def test_a_refused_scalar_is_named_in_one_form(field, x, refusal):
    name, call = SCALAR_FIELDS[field]
    if refusal is None:  # a count reads an int whole, and shows one this long by its size
        refusal = (
            f"must be a positive integer no larger than {MAX_SHOTS}, got an integer of 1329 bits"
            if field == "shots_per_phase"
            else "must be a number within the float64 range"
        )
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {refusal}')}$"):
        call(x)


def _nested_lists(depth: int) -> list:
    outer = inner = []
    for _ in range(depth):
        inner.append([])
        inner = inner[0]
    return outer


@pytest.mark.parametrize("field", sorted(SCALAR_FIELDS))
@pytest.mark.parametrize(
    "x",
    [[10**5000], (10**400,), {1: 10**5000}, _nested_lists(10**5)],
    ids=["list-e5000", "tuple-e400", "dict-e5000", "deep-list"],
)
def test_a_refused_container_is_named_by_its_field_in_one_short_line(field, x):
    # the refusal showed the container's repr: an int of more than 4300 digits in it raised Python's
    # own unnamed ValueError, one of 401 digits was printed whole, and a deep list raised RecursionError
    name, call = SCALAR_FIELDS[field]
    with pytest.raises(ValueError) as refused:
        call(x)
    message = str(refused.value)
    assert message.startswith(f"{name} must be") and "\n" not in message and len(message) < 200, message


# an entry a caller may put in an array: numbers of every kind, and what is never one
ENTRIES = st.one_of(
    st.floats(), st.integers(-(2**70), 2**70), st.complex_numbers(), st.booleans(), st.none(), st.text(max_size=1)
)
# the entries of one array: all finite floats, all ints, any floats, any complex numbers, or any entries
ARRAY_ENTRIES = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**70), 2**70), st.floats(), st.complex_numbers(),
    ENTRIES,
])


@st.composite
def arrays(draw, shape):
    """(value, ragged): nested lists in the given shape, their entries drawn from one of
    ARRAY_ENTRIES with perhaps one from ENTRIES, perhaps with one entry made a row of its
    own or one row made longer (ragged), or the ndarray numpy makes of them."""
    entries = draw(ARRAY_ENTRIES)
    rows = np.empty(shape, dtype=object)
    for index in np.ndindex(shape):
        rows[index] = draw(entries)
    if draw(st.booleans()):
        rows[tuple(draw(st.integers(0, n - 1)) for n in shape)] = draw(ENTRIES)
    rows = rows.tolist()
    ragged = draw(st.sampled_from(["", "deeper"] + ["longer"] * (len(shape) > 1)))
    leaf_row = rows
    for _ in shape[1:]:
        leaf_row = leaf_row[-1]
    if ragged == "deeper":
        leaf_row[-1] = [leaf_row[-1], draw(ENTRIES)]
    elif ragged == "longer":
        leaf_row.append(draw(ENTRIES))
    if not ragged and draw(st.booleans()):
        return np.array(rows), False
    return rows, bool(ragged)


def never_a_number(value, ragged: bool, kind) -> bool:
    """True where no reader of kind (float, complex or int for counts) may take value: it holds a
    bool, None, a string, a ragged row, a non-finite number, a complex number where reals are read,
    or, in a count, a non-integer or an integer beyond int64; an ndarray of any other dtype kind."""
    if isinstance(value, np.ndarray):
        kinds = {float: "iuf", complex: "iufc", int: "iu"}[kind]
        return value.dtype.kind not in kinds or not np.isfinite(value).all()

    def never(x):
        if isinstance(x, (bool, np.bool_, str)) or x is None:
            return True
        if kind is int:
            return not isinstance(x, Integral) or not -(2**63) <= x < 2**63
        if isinstance(x, complex):
            return kind is float or not (math.isfinite(x.real) and math.isfinite(x.imag))
        return not math.isfinite(x)

    return ragged or any(map(never, np.array(value, dtype=object).ravel()))


PHI6 = np.linspace(0.0, np.pi, 6)
ONE_COUNT = [[1, 0, 0, 0, 0]] * 4

# each array argument the library reads: the name its refusal gives, the kind of
# number it holds, its shape, whether the call takes its entries one by one, the call
LIBRARY_ARRAYS = {
    "werner_stack": ("mixing parameter", float, (2,), False, werner_stack),
    "density_stack": ("matrix", complex, (2, 4, 4), False, lambda m: density_stack(m, 2, 2)),
    "make_density": ("matrix", complex, (4, 4), False, lambda m: make_density(m, 2, 2)),
    **{
        kernel.__name__: ("matrix", complex, (2, 4, 4), False, lambda m, kernel=kernel: kernel(m, 2, 2))
        for kernel in (collision_quadruples, max_chsh_values, ppt_min_eigenvalues)
    },
    "CollisionProbabilities": ("collision probabilities", float, (4,), True, lambda q: CollisionProbabilities(*q)),
    "witness_margins": ("quadruples", float, (2, 4), False, witness_margins),
    "entropic_witness-sigma": ("sigma", float, (4,), False, lambda s: entropic_witness(SURE, s)),
    "CorrelationMatrix": ("correlation matrix t", float, (3, 3), False, CorrelationMatrix),
    "outcome_curves": ("phi", float, (4,), False, outcome_curves),
    "coincidence_curves": ("phi", float, (4,), False, coincidence_curves),
    "estimate_probabilities-phi": (
        "phi", float, (4,), False, lambda phi: estimate_probabilities(phi, ONE_COUNT, "number_resolving")
    ),
    "estimate_probabilities-counts": (
        "counts", int, (4, 5), False, lambda counts: estimate_probabilities(PHI6[:4], counts, "number_resolving")
    ),
    "RunConfig-phi_grid": ("phi_grid", float, (4,), True, lambda grid: RunConfig(grid, 1)),
    "fit_interference-phi": ("phi", float, (6,), False, lambda phi: fit_interference(phi, np.ones(6), np.ones(6))),
    "fit_interference-y": ("y", float, (6,), False, lambda y: fit_interference(PHI6, y, np.ones(6))),
    "fit_interference-sigma": ("sigma", float, (6,), False, lambda sigma: fit_interference(PHI6, np.ones(6), sigma)),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_ARRAYS))
@settings(max_examples=100)
@given(data=st.data())
def test_any_array_in_any_argument_returns_or_is_refused(case, data):
    name, kind, shape, entrywise, call = LIBRARY_ARRAYS[case]
    value, ragged = data.draw(arrays(shape))
    if entrywise and isinstance(value, np.ndarray):
        value = list(value)
    refusal = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except ValueError as exc:
            refusal = str(exc)
    # any other refusal is the field's own check (a shape, a range, an invariant)
    if never_a_number(value, ragged, kind):
        assert refusal is not None and re.match(rf"(stack index \d+: )?{re.escape(name)} must be ", refusal), refusal
    # rows that do not stack are named as such, whatever else their entries hold
    if ragged:
        assert refusal.endswith(" got a ragged row"), refusal


@pytest.mark.parametrize("case", sorted(case for case, spec in LIBRARY_ARRAYS.items() if not spec[3]))
def test_an_array_of_another_rank_is_refused_by_the_reader(case):
    # each reader judged rank in its own words, and the phase curves flattened any array
    name, kind, shape, _, call = LIBRARY_ARRAYS[case]
    for wrong in (shape + (1,), shape[1:]):
        value = np.ones(wrong, dtype=np.int64 if kind is int else kind)
        want = rf"{re.escape(name)} must form an array of shape \([n\d, ]+\), got shape {re.escape(str(wrong))}"
        for given_as in (value, value.tolist()):
            with pytest.raises(ValueError) as refusal:
                call(given_as)
            assert re.fullmatch(want, str(refusal.value)), (wrong, str(refusal.value))
