"""The package's public surface: one physics value, and README's example runs."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import feberi
from feberi import scenarios
from feberi.born_dynamics import InteractionProfile
from feberi.core import TlsSpec
from feberi.coulomb import DipoleCoupling

README = Path(__file__).resolve().parent.parent / "README.md"


def _public_functions():
    for info in pkgutil.iter_modules(feberi.__path__):
        module = importlib.import_module(f"feberi.{info.name}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and not name.startswith("_") \
                    and fn.__module__ == module.__name__:
                yield f"{info.name}.{name}", fn


def test_coupling_is_the_only_carrier_of_kinematics_and_tls():
    # a function that takes the coupling reads coupling.kin and coupling.tls,
    # so no second copy can disagree with it
    takers = {}
    for name, fn in _public_functions():
        params = set(inspect.signature(fn).parameters)
        if "coupling" in params:
            takers[name] = sorted(params & {"kin", "tls"})
    for name in ("analytic.p2_from_ground", "solver_density.assemble_hamiltonian",
                 "solver_density.grid_windows", "solver_momentum.integrate"):
        assert name in takers
    assert {name: both for name, both in takers.items() if both} == {}


def _field_names(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def test_each_physical_fact_is_stored_once():
    # the coupling alone holds the impact parameter and the orientation, and
    # the plan holds only the coupling, with no (kin, tls, geometry) beside it
    assert _field_names(DipoleCoupling) == ("tls", "r_perp", "kin", "orientation")
    assert _field_names(TlsSpec) == ("energy_gap", "dipole_magnitude")
    plan_fields = _field_names(scenarios.Plan)
    assert "coupling" in plan_fields and "physics" not in plan_fields
    assert not hasattr(feberi, "InteractionGeometry")
    assert "InteractionGeometry" not in feberi.__all__
    assert list(inspect.signature(scenarios.bunched_spectrum).parameters) == ["cfg", "coupling"]


def test_interaction_profile_keeps_only_times_and_values():
    assert _field_names(InteractionProfile) == ("times", "values")


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    grid_p2, closed_p2 = map(float, capsys.readouterr().out.split())
    assert grid_p2 == pytest.approx(closed_p2, rel=0.02)     # as its comment says
