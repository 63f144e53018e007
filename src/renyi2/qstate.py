"""Finite-dimensional density-operator algebra.

Basis convention: computational product ordering with H mapped to index 0 and
V to index 1, so a two-qubit matrix is indexed |HH>, |HV>, |VH>, |VV>.
Subsystem A is always the first tensor factor.
"""

from __future__ import annotations

import math
from numbers import Complex, Integral, Rational, Real

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Eigenvalue floor rather than Cholesky: boundary states (werner at the PPT
# threshold, projectors) sit numerically on the PSD edge.
PSD_TOL = 1e-10
# bounds of a local dimension or a component count: numpy sizes an axis with a C long
_COUNT = (1, 2**63 - 1, "a positive integer below 2**63")
# most points in a phase grid, a Werner scan or a phase scan; it also keeps
# every phase index within the one uint32 word experiment._phase_states gives it
MAX_GRID_POINTS = 10**6


def _require_all(ok, message, stacked: bool) -> None:
    """ValueError(message(i)) for the first member i whose flag in ok is False.

    In a stack the message names the index; a single value keeps it bare.
    """
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise ValueError(f"stack index {i}: {message(i)}" if stacked else message(i))


def _shown(x) -> str:
    """How a refused value is named: an integer beyond 64 bits by its size, else repr(x) when it can be built and is
    short, else x's type. str() refuses an int of more than 4300 digits, which a container or a Fraction may hold,
    and repr a container nested deeper than the recursion limit."""
    bits = int(x).bit_length() if isinstance(x, Integral) else 0
    if bits > 64:
        return f"an integer of {bits} bits"
    try:
        text = repr(x)
    except (ValueError, RecursionError):
        text = None
    return text if text is not None and len(text) <= 80 else f"a {type(x).__name__}"


def _numbers(name: str, values, dtype, shape: tuple) -> np.ndarray:
    """values as a new array of dtype (float, complex or np.int64) and shape (lengths, None for any, 0 included);
    ValueError naming the field unless an ndarray's dtype, or each entry of a sequence, is of that kind (a bool is
    not a number), the rows of a sequence stack, the shape fits, and every entry is finite. A scalar is a read of
    shape (), and a refused one is shown by _shown. A free first axis is the member axis: a member with a non-finite
    entry is named by its index."""
    kinds, number = {float: ("iuf", Real), complex: ("iufc", Complex), np.int64: ("iu", Integral)}[dtype]
    what = "integers" if dtype is np.int64 else "a number"
    if shape == () and (isinstance(values, bool) or not isinstance(values, number)):
        raise ValueError(f"{name} must be {what}, got {_shown(values)}")
    if not isinstance(values, np.ndarray):
        try:
            values = np.array(values, dtype=object)
        except ValueError:  # nested arrays whose shapes do not stack
            raise ValueError(f"{name} must be {what}, got a ragged row") from None
        types = set(map(type, values.flat))
        refused = sorted(t.__name__ for t in types if t is bool or not issubclass(t, number))
        if refused:  # rows that do not stack stay whole, as entries that are lists, tuples or ndarrays of ndim >= 1
            ragged = any(isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim > 0 for v in values.flat)
            raise ValueError(f"{name} must be {what}, got a {'ragged row' if ragged else refused[0]}")
    elif values.dtype.kind not in kinds:
        raise ValueError(f"{name} must be {what}, got dtype {values.dtype}")
    try:
        values = values.astype(dtype)
    except OverflowError:  # a Python int beyond the dtype's range
        raise ValueError(f"{name} must be {what} within the {np.dtype(dtype)} range") from None
    if values.ndim != len(shape) or not all(k in (None, n) for k, n in zip(shape, values.shape)):
        want = str(tuple("n" if k is None else k for k in shape)).replace("'", "")
        raise ValueError(f"{name} must form an array of shape {want}, got shape {values.shape}")
    # NaN passes any `x > tol`; the first non-finite entry in C order belongs to the first bad member
    stacked = shape[:1] == (None,)
    a = values if stacked else values[None]
    ok = np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    _require_all(ok, lambda i: f"{name} must be finite, got {a[~np.isfinite(a)][0]}", stacked)
    return values


def _probability(name: str, x) -> float:
    """x as a float in [0, 1]; ValueError naming the field otherwise."""
    value = float(_numbers(name, x, float, ()))
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {_shown(x)}")
    return value


def _integer(name: str, x, lo: int, hi: int, what: str) -> int:
    """x as an int in [lo, hi]; ValueError naming the field otherwise. A rational x (an int, a numpy integer, a
    Fraction) is read exactly, as a seed reaches 2**64 - 1, beyond int64 and float precision; any other x is read by
    _numbers. Either must be integral."""
    if isinstance(x, Rational) and not isinstance(x, bool):
        quotient, rest = divmod(int(x.numerator), int(x.denominator))
        n = None if rest else quotient
    else:
        value = float(_numbers(name, x, float, ()))
        n = int(value) if value.is_integer() else None
    if n is None or not lo <= n <= hi:
        raise ValueError(f"{name} must be {what}, got {_shown(x)}")
    return n


def _dims(dim_a, dim_b) -> tuple[int, int]:
    """Both local dimensions as ints (2.0 reads as 2); ValueError naming the first refused."""
    return _integer("dim_a", dim_a, *_COUNT), _integer("dim_b", dim_b, *_COUNT)


def _stack(matrices, dim_a, dim_b, stacked: bool = True) -> tuple[np.ndarray, int, int]:
    """(m, dim_a, dim_b) read by _numbers and _dims: m complex (n, d, d), or (d, d) unless stacked; d = dim_a dim_b."""
    dim_a, dim_b = _dims(dim_a, dim_b)
    d = dim_a * dim_b
    m = _numbers("matrix", matrices, complex, (None, d, d) if stacked else (d, d))
    return m, dim_a, dim_b


def _validated(matrices, dim_a, dim_b, stacked: bool) -> tuple[np.ndarray, int, int]:
    """_stack's (m, dim_a, dim_b), m made read-only once every density-operator check
    has passed on every member (one batched eigvalsh)."""
    m, dim_a, dim_b = _stack(matrices, dim_a, dim_b, stacked)
    s = m if stacked else m[None]
    with np.errstate(over="ignore", invalid="ignore"):  # an entry near the float limit fails these checks
        herm = np.abs(s - s.conj().swapaxes(1, 2)).max(axis=(1, 2))
        trace = np.abs(np.trace(s, axis1=1, axis2=2) - 1.0)
    _require_all(
        herm <= HERMITICITY_TOL,
        lambda i: f"not Hermitian: max |M - M^dag| = {herm[i]:.3e} exceeds {HERMITICITY_TOL:.0e}",
        stacked,
    )
    _require_all(
        trace <= TRACE_TOL,
        lambda i: f"trace is not 1: |Tr M - 1| = {trace[i]:.3e} exceeds {TRACE_TOL:.0e}",
        stacked,
    )
    min_eig = np.linalg.eigvalsh(s)[:, 0]
    _require_all(
        min_eig >= -PSD_TOL,
        lambda i: f"not positive semidefinite: min eigenvalue {min_eig[i]:.3e} below -{PSD_TOL:.0e}",
        stacked,
    )
    m.setflags(write=False)
    return m, dim_a, dim_b


def density_stack(matrices, dim_a: int, dim_b: int) -> np.ndarray:
    """Validate an (n, d, d) stack of density matrices on dim_a x dim_b at once.

    Runs the DensityOperator checks on every member and returns the stack as a
    read-only complex array, the input the stacked kernels take. A failure
    names the invariant and the index of the first member that breaks it.
    """
    return _validated(matrices, dim_a, dim_b, stacked=True)[0]


class _Record:
    """Base of renyi2's immutable records. A record lists its fields once, in
    constructor order, as its __slots__, and its __init__ sets them with _fill.

    Assigning or deleting an attribute raises AttributeError, the repr is
    Name(field=value, ...), and pickle and copy rebuild a record through its
    constructor. A record compares and hashes by identity, or by its field
    values when its class statement passes eq=True.
    """

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = False):
        super().__init_subclass__()
        if eq:
            cls.__eq__ = _Record._eq_values
            cls.__hash__ = _Record._hash_values

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _eq_values(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def _hash_values(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class DensityOperator(_Record):
    """Validated trace-one Hermitian PSD matrix on a dim_a x dim_b system.

    dim_b = 1 marks a monopartite state. Instances are immutable; every
    operation below returns a fresh validated value.
    """

    __slots__ = ("dim_a", "dim_b", "matrix")

    def __init__(self, dim_a: int, dim_b: int, matrix: np.ndarray):
        self._fill(dim_a, dim_b, matrix)
        self.__post_init__()

    # the validation; perfbench/tracer.py times it by wrapping this method on the class
    def __post_init__(self):
        m, dim_a, dim_b = _validated(self.matrix, self.dim_a, self.dim_b, stacked=False)
        self._fill(dim_a, dim_b, m)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def make_density(matrix, dim_a: int, dim_b: int) -> DensityOperator:
    """Validate a complex square matrix as a density operator.

    dim_a and dim_b are positive integers (2.0 reads as 2; a bool, 2.5 or
    NaN is refused) and are stored as ints. Raises ValueError naming the
    refused dimension or the violated invariant (Hermiticity, trace,
    positivity, or shape) and by how much.
    """
    return DensityOperator(dim_a, dim_b, matrix)


# (|HV> - |VH>)/sqrt(2) in the |HH>,|HV>,|VH>,|VV> basis
SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
SINGLET_VEC.setflags(write=False)


def singlet() -> DensityOperator:
    """Projector onto the two-qubit singlet (|HV> - |VH>)/sqrt(2)."""
    return DensityOperator(2, 2, np.outer(SINGLET_VEC, SINGLET_VEC))


def _werner_matrices(ps: np.ndarray) -> np.ndarray:
    ps = ps[:, None, None]
    return ps * np.outer(SINGLET_VEC, SINGLET_VEC) + (1.0 - ps) * np.eye(4) / 4.0


def werner(p: float) -> DensityOperator:
    """Werner-family state p * singlet + (1 - p) * I/4; p is a finite number in [0, 1], not a bool."""
    return DensityOperator(2, 2, _werner_matrices(np.array([_probability("mixing parameter", p)]))[0])


def werner_stack(ps) -> np.ndarray:
    """Validated (n, 4, 4) stack of the Werner states of a 1-D array of mixing parameters."""
    ps = _numbers("mixing parameter", ps, float, (None,))
    ok = (ps >= 0.0) & (ps <= 1.0)
    _require_all(ok, lambda i: f"mixing parameter must be in [0, 1], got {ps[i]}", stacked=True)
    return density_stack(_werner_matrices(ps), 2, 2)


def tensor(rho: DensityOperator, sigma: DensityOperator) -> DensityOperator:
    """Kronecker product; the two factors become subsystems A and B of the result."""
    return DensityOperator(rho.dim, sigma.dim, np.kron(rho.matrix, sigma.matrix))


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Reduced operator on the kept subsystem, selector "A" or "B"."""
    if keep not in ("A", "B"):
        raise ValueError(f'invalid subsystem selector {keep!r}, expected "A" or "B"')
    da, db = rho.dim_a, rho.dim_b
    r = rho.matrix.reshape(da, db, da, db)
    if keep == "A":
        return DensityOperator(da, 1, np.einsum("abcb->ac", r))
    return DensityOperator(db, 1, np.einsum("abad->bd", r))


def purity(rho: DensityOperator) -> float:
    """Tr(rho^2), real and in [1/d, 1]."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def ppt_min_eigenvalue(rho: DensityOperator) -> float:
    """Minimum eigenvalue of the partial transpose over subsystem B.

    Negative iff entangled for a 2x2 system. The B-side transpose is a fixed
    convention; in 2x2 the sign of the minimum eigenvalue is side-independent.
    """
    return float(ppt_min_eigenvalues(rho.matrix[None], rho.dim_a, rho.dim_b)[0])


def ppt_min_eigenvalues(matrices, dim_a: int, dim_b: int) -> np.ndarray:
    """ppt_min_eigenvalue of each member of a validated (n, d, d) stack, one batched eigvalsh;
    any other shape, or dimensions that are not positive integers, raise ValueError."""
    m, dim_a, dim_b = _stack(matrices, dim_a, dim_b)
    if dim_b < 2:
        raise ValueError("partial transpose needs a bipartite state (dim_b >= 2)")
    d = dim_a * dim_b
    r = m.reshape(-1, dim_a, dim_b, dim_a, dim_b)
    return np.linalg.eigvalsh(r.transpose(0, 1, 4, 3, 2).reshape(-1, d, d))[:, 0]


def random_density(
    dim_a: int,
    dim_b: int,
    rng: np.random.Generator,
    components: int | None = None,
) -> DensityOperator:
    """Random mixture of Haar pure states with Dirichlet weights.

    components defaults to the total dimension (generically full rank);
    components=1 draws a single Haar-random pure state. The dimensions and
    components are positive integers (1.0 reads as 1); a refused one raises
    ValueError before anything is drawn.
    """
    d = math.prod(_dims(dim_a, dim_b))
    k = d if components is None else _integer("components", components, *_COUNT)
    weights = rng.dirichlet(np.ones(k))
    m = np.zeros((d, d), dtype=complex)
    for w in weights:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    m = (m + m.conj().T) / 2.0  # scrub roundoff skew before validation
    return DensityOperator(dim_a, dim_b, m)
