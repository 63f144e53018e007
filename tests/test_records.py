"""The contract of the seven public records and the Fock network oracle's two.

Each record takes its fields positionally or by keyword, refuses assignment
and deletion, rebuilds through pickle and copy.deepcopy, prints as
Name(field=value, ...), and compares either by field values (RunConfig,
CollisionProbabilities, WitnessVerdict, ModeIndex, CoincidenceRecord) or by
identity (the other four).
"""

import copy
import math
import pickle

import numpy as np
import pytest

from fock_network import CoincidenceRecord, ModeIndex, Polarization
from renyi2.chsh import CorrelationMatrix
from renyi2.experiment import ChannelEstimate, FitResult, RunConfig
from renyi2.qstate import DensityOperator, SINGLET_VEC
from renyi2.two_copy import CollisionProbabilities, WitnessVerdict, entropic_witness


def _read_only(values):
    a = np.array(values)
    a.flags.writeable = False
    return a


# each record: its class, its fields in constructor order with one valid value
# each, and whether it compares and hashes by those values
RECORDS = {
    "DensityOperator": (
        DensityOperator,
        {"dim_a": 2, "dim_b": 2, "matrix": (0.5 * np.outer(SINGLET_VEC, SINGLET_VEC) + 0.125 * np.eye(4)).astype(complex)},
        False,
    ),
    "CollisionProbabilities": (
        CollisionProbabilities,
        {"p_cc": 0.5, "p_ca": 0.125, "p_ac": 0.25, "p_aa": 0.125},
        True,
    ),
    "WitnessVerdict": (
        WitnessVerdict,
        {
            "violated_a": False,
            "violated_b": True,
            "margin_a": -0.125,
            "margin_b": 0.25,
            "significance_a": None,
            "significance_b": 4.5,
            "entangled": True,
        },
        True,
    ),
    "CorrelationMatrix": (CorrelationMatrix, {"t": -0.5 * np.eye(3)}, False),
    "RunConfig": (
        RunConfig,
        {
            "phi_grid": (0.0, 0.5, 1.5, 3.0),
            "shots_per_phase": 1000,
            "visibility": 0.75,
            "background_rate": 0.125,
            "seed": 7,
            "detector_model": "bucket_with_pbs",
        },
        True,
    ),
    "ChannelEstimate": (
        ChannelEstimate,
        {
            "phi": _read_only([0.0, 1.0]),
            "value": _read_only([0.25, 0.5]),
            "sigma": _read_only([0.01, 0.02]),
            "degenerate": _read_only([False, True]),
        },
        False,
    ),
    "FitResult": (
        FitResult,
        {
            "offset": 0.25,
            "amplitude": 0.125,
            "phase_origin": -0.5,
            "residual_rms": 0.001,
            "minima_locations": (1.5, 4.5),
            "minima_values": (0.125, 0.125),
            "minima_stderr": (0.01, 0.01),
            "covariance": 0.001 * np.eye(3),
        },
        False,
    ),
    "ModeIndex": (ModeIndex, {"spatial": 3, "polarization": Polarization.V}, True),
    "CoincidenceRecord": (
        CoincidenceRecord,
        {"cc": 0.5, "ca": 0.125, "ac": 0.125, "aa": 0.25, "other": 0.0},
        True,
    ),
}
VALUE_EQUALITY = sorted(name for name, (_, _, by_value) in RECORDS.items() if by_value)


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def field_values(record, names):
    return [getattr(record, name) for name in names]


def all_same(a, b) -> bool:
    return len(a) == len(b) and all(map(same, a, b))


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, fields, by_value = RECORDS[name]
    names, values = list(fields), list(fields.values())

    # positional and keyword construction give the same fields
    record = cls(*values)
    assert all_same(field_values(record, names), values)
    assert all_same(field_values(cls(**fields), names), values)
    with pytest.raises(TypeError):
        cls(*values, None)

    # no field can be assigned or deleted, nor a new attribute set
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert all_same(field_values(record, names), values)

    # pickle and deepcopy rebuild a record of the same class with the same fields
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is cls
        assert all_same(field_values(twin, names), values)
        with pytest.raises(AttributeError):
            setattr(twin, names[0], values[0])

    # equality and hashing: by field values for three records, by identity for the rest
    other = cls(*values)
    assert record == record
    if by_value:
        assert record == other and hash(record) == hash(other)
        assert record != object() and record.__eq__(object()) is NotImplemented
    else:
        assert record != other
        assert hash(record) == object.__hash__(record)

    # the repr lists every field with the repr of its value, in constructor order
    listed = ", ".join(f"{field}={getattr(record, field)!r}" for field in names)
    assert repr(record) == f"{name}({listed})"


@pytest.mark.parametrize("name", VALUE_EQUALITY)
def test_value_records_differ_when_a_field_differs(name):
    cls, fields, _ = RECORDS[name]
    record = cls(**fields)
    changed = {
        "CollisionProbabilities": {"p_cc": 0.375, "p_ca": 0.25},
        "WitnessVerdict": {"margin_a": -0.25},
        "RunConfig": {"seed": 8},
        "ModeIndex": {"polarization": Polarization.H},
        "CoincidenceRecord": {"cc": 0.375, "other": 0.125},
    }[name]
    assert record != cls(**{**fields, **changed})


def test_records_normalize_their_fields():
    rho = DensityOperator(2.0, np.int64(2), (np.eye(4) / 4).tolist())
    assert type(rho.dim_a) is int and type(rho.dim_b) is int
    assert rho.matrix.dtype == complex and not rho.matrix.flags.writeable
    assert not CorrelationMatrix(np.eye(3).tolist()).t.flags.writeable

    config = RunConfig(np.array([0, 1]), 100.0, seed=np.uint64(5))
    assert config.phi_grid == (0.0, 1.0) and all(type(x) is float for x in config.phi_grid)
    assert type(config.shots_per_phase) is int and type(config.seed) is int
    assert (config.visibility, config.background_rate, config.seed, config.detector_model) == (
        1.0, 0.0, 5, "number_resolving"
    )
    assert config == RunConfig((0.0, 1.0), 100, seed=5)
    assert hash(config) == hash(RunConfig((0.0, 1.0), 100, 1.0, 0.0, 5))

    # the floats the reader read, not the int 0 given; a margin over a zero error is the float inf
    sure = CollisionProbabilities(0.75, 0, 0, 0.25)
    assert sure.as_tuple() == (0.75, 0.0, 0.0, 0.25) and all(type(p) is float for p in sure.as_tuple())
    verdict = entropic_witness(sure, sigma=(0.0, 0.0, 0.0, 0.0))
    assert verdict.significance_a == math.inf and type(verdict.significance_a) is float

    assert ModeIndex(1, "V").polarization is Polarization.V
    assert ModeIndex(1, "V") == ModeIndex(1, Polarization.V)
    with pytest.raises(ValueError, match=r"^outcome probabilities sum to 1\.125, expected 1$"):
        CoincidenceRecord(0.5, 0.125, 0.125, 0.25, 0.125)
