"""The package's public surface: one physics handle, and README's example runs."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import feberi
from feberi.born_dynamics import InteractionProfile

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


def test_interaction_profile_keeps_only_times_and_values():
    assert [f.name for f in dataclasses.fields(InteractionProfile)] == ["times", "values"]


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    grid_p2, closed_p2 = map(float, capsys.readouterr().out.split())
    assert grid_p2 == pytest.approx(closed_p2, rel=0.02)     # as its comment says
