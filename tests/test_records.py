"""Plain-data records are immutable NamedTuples with a fixed field order.

The field orders below are those the records had as frozen dataclasses:
positional construction (io_cli builds network components as cls(*entry))
depends on them.
"""

import math

import numpy as np
import pytest

from fdpassivity.io_cli import PlotSpec, Scenario
from fdpassivity.network import Branch, ComponentRef, Device, ParticipationTable, Shunt, _Part
from fdpassivity.numerics import GeneralEigen, HermitianEigen
from fdpassivity.passivity import SensitivitySeries

FIELDS = {
    HermitianEigen: ("values", "vectors", "norm"),
    GeneralEigen: ("values", "right", "left", "defective"),
    SensitivitySeries: ("param_name", "omegas", "indices", "derivatives", "degenerate"),
    Branch: ("from_bus", "to_bus", "model"),
    Shunt: ("bus", "model"),
    Device: ("bus", "name", "model"),
    ComponentRef: ("name", "kind", "buses", "model"),
    _Part: ("evaluators", "rounds"),
    ParticipationTable: ("names", "omegas", "indices", "values", "degenerate"),
    Scenario: ("name", "omega_b", "omegas", "network", "standalone_stable", "analyses"),
    PlotSpec: ("kind", "title"),
}
RECORDS = sorted(FIELDS, key=lambda cls: cls.__name__)


def _by_keyword(cls):
    return cls(**{name: f"<{name}>" for name in FIELDS[cls]})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_keep_their_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_construction_sets_every_field(cls):
    record = _by_keyword(cls)
    assert [getattr(record, name) for name in FIELDS[cls]] == [f"<{n}>" for n in FIELDS[cls]]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = _by_keyword(cls)
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[cls][0], "changed")
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, FIELDS[cls][0]) == f"<{FIELDS[cls][0]}>"


def test_plot_spec_defaults():
    assert PlotSpec() == PlotSpec(kind="line", title="")
    assert PlotSpec(title="t").kind == "line"


def test_hermitian_eigen_properties():
    values = np.array([[-2.0, 1.0, 4.0], [0.5, 0.5, 3.0]])
    vectors = np.arange(18.0).reshape(2, 3, 3)
    stack = HermitianEigen(values=values, vectors=vectors)
    assert np.array_equal(stack.min_value, [-2.0, 0.5])
    assert np.array_equal(stack.min_vector, vectors[:, :, 0])
    assert np.array_equal(stack.eigen_gap, [3.0, 0.0])

    one = HermitianEigen(values=values[0], vectors=vectors[0])
    assert one.min_value == -2.0 and np.ndim(one.min_value) == 0
    assert np.array_equal(one.min_vector, [0.0, 3.0, 6.0])
    assert one.eigen_gap == 3.0 and np.ndim(one.eigen_gap) == 0

    scalar = HermitianEigen(values=np.array([7.0]), vectors=np.ones((1, 1)))
    assert scalar.eigen_gap == 0.0 and np.ndim(scalar.eigen_gap) == 0


@pytest.mark.parametrize("cls", [SensitivitySeries, ParticipationTable],
                         ids=lambda cls: cls.__name__)
def test_freqs_hz_is_omegas_over_two_pi(cls):
    fields = {name: None for name in FIELDS[cls]}
    record = cls(**{**fields, "omegas": 2.0 * math.pi * np.array([1.0, 10.0, 60.0])})
    assert np.allclose(record.freqs_hz, [1.0, 10.0, 60.0], rtol=1e-15)
