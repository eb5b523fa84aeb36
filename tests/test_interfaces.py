"""The package's public surface: one physics value, one electron-train path,
one packet path, no module reaching into another's private names, and
README's example runs."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import feberi
from feberi import analytic, born_dynamics, core, coulomb, grid, qew, scenarios, \
    solver_density
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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_imports(path):
    """'module: name' for each private (underscore, not dunder) name ``path``
    imports from a feberi module or reads off one it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("feberi"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.module}: {alias.name}")
                elif node.module == "feberi":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("feberi.") and alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) \
                and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append(f"{node.value.id}: {node.attr}")
    return found


def test_no_module_imports_another_modules_private_name():
    # a private name serves its own module only, so no second front end can
    # be built on another module's internals
    src = Path(feberi.__file__).resolve().parent
    found = {path.name: _private_imports(path) for path in sorted(src.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_one_electron_train_path():
    # trains step only through born_dynamics.simulate_train_ensemble; the grid
    # wrapper, the Born N^2 laws, the schedule kinds and a window's own omega_21
    # beside its coupling are gone
    for module, name in [(solver_density, "sequential_multi_qew"),
                         (solver_density, "_checked_tls_state"),
                         (analytic, "multi_qew_p2"), (analytic, "MULTI_QEW_VARIANTS"),
                         (born_dynamics, "SCHEDULE_KINDS"),
                         (solver_density.DensityTrajectory, "final_rho_b")]:
        assert not hasattr(module, name), name
    assert "omega_21" not in inspect.signature(born_dynamics.train_window).parameters
    assert "kind" not in inspect.signature(born_dynamics.arrival_schedule).parameters


def _spec_type_checks(path):
    """The lines of ``path`` that call isinstance on a wavepacket spec type."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and any(isinstance(n, (ast.Name, ast.Attribute))
                    and getattr(n, "id", getattr(n, "attr", "")).endswith("QewSpec")
                    for n in ast.walk(node.args[1]))]


def test_one_packet_path():
    # a Gaussian packet is the comb of the one sideband n = 0, so
    # packet_for_spec sizes and momentum_amplitudes samples every packet with
    # no fork on its kind; the single-caller sizing layers and the two
    # amplitude builders are gone
    for module, name in [(grid, "build_grid"), (qew, "grid_for_spec"),
                         (qew, "gaussian_momentum_amplitudes"),
                         (qew, "modulated_momentum_amplitudes")]:
        assert not hasattr(module, name), name
    src = Path(feberi.__file__).resolve().parent
    found = {path.name: _spec_type_checks(path) for path in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the view is class-level: a Gaussian spec keeps its three fields
    assert _field_names(qew.GaussianQewSpec) == ("kin", "sigma_p0", "t0")
    spec = qew.GaussianQewSpec(core.kinematics_from_kev(200.0), 1e-3)
    orders, weights = spec.sideband_amplitudes()
    assert spec.base is spec and (spec.sideband_count, spec.delta_p, spec.drift_time) == (0, 0, 0)
    assert orders.tolist() == [0] and weights.tolist() == [1.0]


def test_profile_builders_read_omega_21_from_their_coupling():
    # a Born profile is built for its coupling's TLS, with no second omega_21
    # beside it that could disagree
    for fn in (born_dynamics.profile_time_grid, born_dynamics.interaction_profile,
               born_dynamics.modulated_interaction_profile):
        params = list(inspect.signature(fn).parameters)
        assert params[0] == "coupling" and "omega_21" not in params, fn.__name__


def test_src_keeps_no_test_only_name():
    # each TLS fact under one name, and no helper or wrapper that only tests
    # reach: the reference implementations live in tests/helpers.py
    for owner, name in [(core, "e_nm_to_debye"), (TlsSpec, "dipole_debye"),
                        (TlsSpec, "dipole_length"),
                        (qew.GaussianQewSpec, "with_arrival"),
                        (qew.ModulatedQewSpec, "with_arrival"),
                        (qew, "density_profile"), (qew.ModulationSpectrum, "reconstruct"),
                        (born_dynamics, "kernel_prefactor"),
                        (born_dynamics, "ArrivalSchedule"),
                        (born_dynamics, "_check_increasing"),
                        (analytic.TransitionIncrement, "total"),
                        (coulomb, "_bessel_k"), (coulomb, "bessel_k0"), (coulomb, "bessel_k1"),
                        (DipoleCoupling, "spatial_kernel_unit"),
                        (solver_density, "partial_trace_bound"),
                        (solver_density, "_streamed_states"), (solver_density, "_observables")]:
        assert not hasattr(owner, name), name
    assert _field_names(analytic.TransitionIncrement) == ("dp1", "dp2", "flags")
    # and no field or parameter that only tests set or read
    assert "final_vector" not in _field_names(solver_density.DensityTrajectory)
    assert "schedule" not in _field_names(scenarios.Plan)
    assert list(inspect.signature(qew.sideband_cutoff).parameters) == ["g_abs"]
    assert list(inspect.signature(qew.tooth_sigma_et).parameters) == ["spectrum"]


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    grid_p2, closed_p2 = map(float, capsys.readouterr().out.split())
    assert grid_p2 == pytest.approx(closed_p2, rel=0.02)     # as its comment says
