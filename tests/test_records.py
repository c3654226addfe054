"""The record classes: constructor signatures, frozen fields, equality,
hashing, repr and pickling."""

import inspect
import math
import pickle

import numpy as np
import pytest

from vactrap.cavity import (CavityConfig, Detuning, DipoleOrientation,
                            Position, Response)
from vactrap.config import RunConfig
from vactrap.fields import ForceResult, ScanResult, ScanSpec
from vactrap.validation import AngularGrid, CheckResult

REQUIRED = inspect.Parameter.empty
FRESH = object()  # a default that is a new empty list or dict per call

SIGNATURES = {
    CavityConfig: [("rho", REQUIRED), ("k_r_mirror", 8.0e4),
                   ("theta_m", math.pi / 4),
                   ("apply_diffraction_correction", False)],
    DipoleOrientation: [("kind", REQUIRED), ("d_hat", None)],
    Position: [("kr", REQUIRED)],
    Detuning: [("linewidths", REQUIRED)],
    Response: [("gamma_ratio", REQUIRED), ("shift_ratio", REQUIRED),
               ("shift_gradient", None)],
    AngularGrid: [("n_polar", REQUIRED), ("n_azimuth", REQUIRED)],
    ForceResult: [("force", REQUIRED), ("potential", REQUIRED),
                  ("excited_population", REQUIRED)],
    ScanSpec: [("axis", REQUIRED), ("start", REQUIRED), ("stop", REQUIRED),
               ("n_points", REQUIRED), ("config", REQUIRED),
               ("orientation", REQUIRED), ("detuning", Detuning(0.0))],
    ScanResult: [("columns", REQUIRED), ("values", REQUIRED),
                 ("non_converged", FRESH), ("weak_excitation", FRESH)],
    RunConfig: [("cavity", REQUIRED), ("orientation", REQUIRED),
                ("detuning", REQUIRED), ("pi_e", None), ("weak_drive", None),
                ("scan_type", None), ("scan_start", None),
                ("scan_stop", None), ("scan_points", None),
                ("out_path", None), ("out_format", "csv"),
                ("precision", 17)],
    CheckResult: [("name", REQUIRED), ("passed", REQUIRED),
                  ("detail", FRESH)],
}

# Keyword arguments of one instance of each value type, and of a second
# instance that differs from it in one field.
VALUES = {
    CavityConfig: (dict(rho=0.9, k_r_mirror=1.0e4, theta_m=0.5,
                        apply_diffraction_correction=True),
                   dict(rho=0.9, k_r_mirror=1.0e4, theta_m=0.6,
                        apply_diffraction_correction=True)),
    DipoleOrientation: (dict(kind="fixed", d_hat=(0.0, 0.6, 0.8)),
                        dict(kind="fixed", d_hat=(0.0, 0.8, 0.6))),
    Position: (dict(kr=(1.0, 2.0, 3.0)), dict(kr=(1.0, 2.0, -3.0))),
    Detuning: (dict(linewidths=-0.5), dict(linewidths=0.5)),
    AngularGrid: (dict(n_polar=64, n_azimuth=20),
                  dict(n_polar=64, n_azimuth=21)),
    ScanSpec: (dict(axis="axial", start=-1.0, stop=1.0, n_points=3,
                    config=CavityConfig(0.9),
                    orientation=DipoleOrientation.isotropic(),
                    detuning=Detuning(0.2)),
               dict(axis="axial", start=-1.0, stop=1.0, n_points=3,
                    config=CavityConfig(0.9),
                    orientation=DipoleOrientation.isotropic(),
                    detuning=Detuning(0.3))),
}
IDENTITY = {
    Response: dict(gamma_ratio=1.5, shift_ratio=-0.25,
                   shift_gradient=np.zeros(3)),
    ForceResult: dict(force=np.zeros(3), potential=0.1,
                      excited_population=0.05),
}
MUTABLE = {
    ScanResult: dict(columns=("kz",), values=np.zeros((2, 1))),
    RunConfig: dict(cavity=CavityConfig(0.98),
                    orientation=DipoleOrientation.isotropic(),
                    detuning=Detuning(0.0), pi_e=0.05),
    CheckResult: dict(name="parity", passed=True, detail={"worst": 1e-14}),
}
FROZEN = {cls: kwargs[0] for cls, kwargs in VALUES.items()} | IDENTITY


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [name for name, _ in SIGNATURES[cls]]
    for param, (_, default) in zip(params, SIGNATURES[cls]):
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if default is FRESH:
            assert param.default is not REQUIRED
        else:
            assert param.default == default


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_records_take_fresh_containers(cls):
    required = {name: MUTABLE[cls][name]
                for name, default in SIGNATURES[cls] if default is REQUIRED}
    first, second = cls(**required), cls(**required)
    for name, default in SIGNATURES[cls]:
        if default is FRESH:
            assert not getattr(first, name)
            assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_set_and_delete(cls):
    record = cls(**FROZEN[cls])
    for name in FROZEN[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is FROZEN[cls][name]
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_records_compare_by_field_and_are_unhashable(cls):
    record = cls(**MUTABLE[cls])
    if cls is not ScanResult:  # its values are an array
        assert record == cls(**MUTABLE[cls])
    name = next(iter(MUTABLE[cls]))
    setattr(record, name, "changed")
    assert getattr(record, name) == "changed"
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_value_types_compare_and_hash_by_field(cls):
    kwargs, changed = VALUES[cls]
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != cls(**changed)
    # another class with the same fields is never equal
    assert a != type("Lookalike", (cls,), {})(**kwargs)
    assert a != tuple(kwargs.values())


@pytest.mark.parametrize("cls", IDENTITY, ids=lambda c: c.__name__)
def test_results_compare_by_identity(cls):
    a, b = cls(**IDENTITY[cls]), cls(**IDENTITY[cls])
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    kwargs = {**VALUES, **IDENTITY, **MUTABLE}[cls]
    if isinstance(kwargs, tuple):
        kwargs = kwargs[0]
    record = cls(**kwargs)
    fields = ", ".join(f"{name}={getattr(record, name)!r}"
                       for name, _ in SIGNATURES[cls])
    assert repr(record) == f"{cls.__name__}({fields})"


def test_repr_literal():
    assert repr(ScanSpec("plane", -2.0, 2.0, 5, CavityConfig(0.5),
                         DipoleOrientation.parallel())) == (
        "ScanSpec(axis='plane', start=-2.0, stop=2.0, n_points=5, "
        "config=CavityConfig(rho=0.5, k_r_mirror=80000.0, "
        "theta_m=0.7853981633974483, apply_diffraction_correction=False), "
        "orientation=DipoleOrientation(kind='parallel', d_hat=None), "
        "detuning=Detuning(linewidths=0.0))")
    assert repr(CheckResult("parity", False)) == (
        "CheckResult(name='parity', passed=False, detail={})")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("cls", [*VALUES, RunConfig, CheckResult],
                         ids=lambda c: c.__name__)
def test_pickle_round_trip(cls, protocol):
    kwargs = VALUES[cls][0] if cls in VALUES else MUTABLE[cls]
    record = cls(**kwargs)
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert type(copy) is cls and copy == record
    if cls in VALUES:
        assert hash(copy) == hash(record)
        with pytest.raises(AttributeError):
            setattr(copy, next(iter(kwargs)), None)
