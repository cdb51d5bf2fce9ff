"""Which records check their fields.

A frozen dataclass in ``seqpol`` is a record that checks its fields in
``__post_init__``; a record that only holds values is a ``typing.NamedTuple``,
which prints as the dataclass it replaced did, equals the plain tuple of its
fields and cannot be assigned to.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import seqpol
from seqpol import (SetupParams, SweepConfig, find_crossings, make_linear_polarization,
                    make_stokes, quasi_probability, sequential_povm)
from seqpol.algebra import PovmElement, PovmSet, PovmValidation, validate_povm
from seqpol.analysis import QuasiProbabilityTable
from seqpol.cli import RunConfig, parse_config
from seqpol.harness import Crossing

# By record: a value built through the library, and its repr as the frozen dataclass gave it.
RECORDS = {
    "Crossing": (
        lambda: find_crossings(SweepConfig())[0],
        "Crossing(description='aopt[m1=-1] zero crossing', theta_deg=12.37109375)"),
    "Crossing without a root": (
        lambda: find_crossings(SweepConfig((0.0,)))[1],
        "Crossing(description='aopt[m1=-1 m2=+1] overtakes aopt[m1=+1 m2=+1]', theta_deg=None)"),
    "RunConfig": (
        lambda: parse_config(["reconstruct", "--steps", "2", "--lam", "0.5", "--format", "json",
                              "--output", "x.json"]),
        "RunConfig(command='reconstruct', sweep=SweepConfig(theta_grid=(0.0, 22.5), v_pm=0.93, "
        "v_hv=0.9976, input_angle_deg=67.5), output='x.json', fmt='json', n_photons=None, "
        "seed=None, lam=0.5)"),
    "PovmValidation": (
        lambda: validate_povm(PovmSet((PovmElement("H", [[1, 0], [0, 0]]),
                                       PovmElement("V", [[0, 0], [0, 1]])))),
        "PovmValidation(completeness_residual=0.0, min_eigenvalues=(np.float64(0.0), "
        "np.float64(0.0)), passed=np.True_)"),
    "PovmValidation of an incomplete set": (
        lambda: validate_povm(PovmSet((PovmElement("H", [[1, 0], [0, 0]]),))),
        "PovmValidation(completeness_residual=1.0, min_eigenvalues=(np.float64(0.0),), "
        "passed=False)"),
    "QuasiProbabilityTable": (
        lambda: quasi_probability(make_linear_polarization(67.5),
                                  sequential_povm(SetupParams(5.0)), make_stokes("PM")),
        "QuasiProbabilityTable(entries={(1, (1, 1)): 0.19840410382648682, "
        "(1, (1, -1)): 0.3641211821090222, (1, (-1, 1)): 0.06265551318761461, "
        "(1, (-1, -1)): 0.22837259147015007, (-1, (1, 1)): -0.05789227479336802, "
        "(-1, (1, -1)): 0.10782480348916737, (-1, (-1, 1)): -0.03460149878580432, "
        "(-1, (-1, -1)): 0.1311155794967311}, negativity_present=True)"),
}
FIELDS = {
    Crossing: ("description", "theta_deg"),
    RunConfig: ("command", "sweep", "output", "fmt", "n_photons", "seed", "lam"),
    PovmValidation: ("completeness_residual", "min_eigenvalues", "passed"),
    QuasiProbabilityTable: ("entries", "negativity_present"),
}


@pytest.mark.parametrize("build, text", RECORDS.values(), ids=RECORDS)
def test_a_plain_record_prints_as_before(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build, text", RECORDS.values(), ids=RECORDS)
def test_a_plain_record_is_a_named_tuple_that_cannot_be_assigned(build, text):
    record = build()
    assert type(record)._fields == FIELDS[type(record)]
    assert not dataclasses.is_dataclass(record)
    assert record == tuple(getattr(record, name) for name in record._fields)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def _classes():
    """Every class defined in a module of the package, by module and name."""
    for info in pkgutil.iter_modules(seqpol.__path__):
        module = importlib.import_module(f"seqpol.{info.name}")
        for name, value in inspect.getmembers(module, inspect.isclass):
            if value.__module__ == module.__name__:
                yield pytest.param(value, id=f"{info.name}.{name}")


@pytest.mark.parametrize("cls", _classes())
def test_a_frozen_dataclass_is_a_record_that_checks_its_fields(cls):
    checks = "__post_init__" in vars(cls)
    assert dataclasses.is_dataclass(cls) == checks
    assert not checks or cls.__dataclass_params__.frozen


def test_the_removed_alias_constructors_are_gone():
    assert not hasattr(seqpol.DichotomicObservable, "from_operator")
    assert not hasattr(seqpol.QubitState, "mixed")
