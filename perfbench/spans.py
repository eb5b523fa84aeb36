"""Span recorder that traces feberi from outside, by wrapping its functions.

``Tracer.install()`` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent, run id).  The
replacement is made on the defining module and on every feberi module that
imported the function by name (``from feberi.coulomb import m_tilde`` binds
its own reference), so calls from any call site are seen.
``HamiltonianAssembly.eigensystem`` is wrapped on the class: a call that
decomposes records an ``solver_density.eigh`` span, a call served from the
cached decomposition only counts a request.

Spans stay in memory and are written once, by ``write``, when the run ends.
``metrics`` turns them into the per-layer metrics.  Every ``*_s`` metric is
a self time: the span's duration minus the time covered by its child spans,
so the layer times of one run add up without double counting.

Wrappers only time and count; arguments and results pass through untouched.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "scenarios", "solver_density", "solver_momentum", "born_dynamics",
          "analytic", "coulomb", "qew", "plotsvg")

# private functions that are layer boundaries of their own
EXTRA_FUNCTIONS = {"solver_density": ("_observables",)}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _rk4_steps(profile) -> int:
    """Steps of born_dynamics._rk4_columns: two profile samples per step."""
    n = len(profile.values)
    if n % 2 == 0:
        n -= 1
    return (n - 1) // 2


def _integrate_attrs(a, out):
    t_start, t_end = a["t_span"]
    steps = round((t_end - t_start) / out.dt)
    matvecs = 8 if a.get("method", "rk4") == "rk4" else 2
    n = a["grid"].n
    return {"steps": steps, "gflop": matvecs * 8.0 * n * n * steps / 1e9}


def _evolve_vector_attrs(a, out):
    d = _size(a["psi0"])
    cols = _size(a["t"])
    # coefficients V^H psi0, then V (phases * coeff): complex MACs at 8 flop each
    return {"dim": d, "columns": cols, "gflop": 8.0 * d * d * (1 + cols) / 1e9}


def _window_propagator_attrs(a, out):
    key = hashlib.sha1(a["profile"].values.tobytes() + repr(a["omega_21"]).encode())
    return {"steps": _rk4_steps(a["profile"]), "key": key.hexdigest()}


def _modulated_profile_attrs(a, out):
    order = a["spectrum"].order
    top = a.get("max_harmonic")
    return {"samples": len(out.values),
            "harmonics": (order if top is None else min(top, order)) + 1}


def _bytes_written(a, out):
    return {"bytes": sum(p.stat().st_size for p in out)}


_POINTS = lambda a, out: {"points": _size(next(iter(a.values())))}  # noqa: E731

# per-call attributes, computed after the span closes
METERS = {
    "coulomb.m_tilde": _POINTS,
    "coulomb.m_spatial": _POINTS,
    "coulomb.bessel_k0": _POINTS,
    "coulomb.bessel_k1": _POINTS,
    "solver_density.assemble_hamiltonian": lambda a, out: {"dim": 2 * a["grid"].n},
    "solver_density.evolve_vector": _evolve_vector_attrs,
    "solver_momentum.integrate": _integrate_attrs,
    "born_dynamics.evolve_tls": lambda a, out: {"steps": _rk4_steps(a["profile"])},
    "born_dynamics.window_propagator": _window_propagator_attrs,
    "born_dynamics.interaction_profile": lambda a, out: {"samples": len(out.values),
                                                         "harmonics": 1},
    "born_dynamics.modulated_interaction_profile": _modulated_profile_attrs,
    "born_dynamics.simulate_train": lambda a, out: {"electron_steps": _size(out)},
    "born_dynamics.simulate_train_ensemble": lambda a, out: {"electron_steps": _size(out)},
    "cli.write_result": _bytes_written,
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "run_id", "attrs")

    def __init__(self, name, layer, parent, run_id):
        self.name = name
        self.layer = layer
        self.start = self.end = 0.0
        self.parent = parent
        self.run_id = run_id
        self.attrs = {}


class Tracer:
    """Records spans of one scenario execution; ``run_id`` tags them all."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.eig_requests = 0
        self._stack: list[int] = []

    # -- recording --------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, parent, self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        meter = METERS.get(name)
        sig = inspect.signature(fn) if meter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if meter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx].attrs = meter(bound.arguments, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions everywhere feberi refers to them."""
        modules = {layer: importlib.import_module(f"feberi.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            extra = EXTRA_FUNCTIONS.get(layer, ())
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        feberi = [m for n, m in sys.modules.items()
                  if m is not None and n.split(".")[0] == "feberi"]
        for mod in feberi:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        self._wrap_eigensystem(modules["solver_density"].HamiltonianAssembly)

    def _wrap_eigensystem(self, cls) -> None:
        tracer = self
        orig = cls.eigensystem

        @functools.wraps(orig)
        def eigensystem(h):
            tracer.eig_requests += 1
            if h._eig is not None:
                return orig(h)
            idx = tracer._open("solver_density.eigh", "solver_density")
            try:
                return orig(h)
            finally:
                tracer._close(idx)
                tracer.spans[idx].attrs = {"dim": h.h_total.shape[0]}

        cls.eigensystem = eigensystem

    # -- output -----------------------------------------------------------------

    def write(self, path) -> None:
        """Write all spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run_id": s.run_id, "attrs": s.attrs}) + "\n")

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.spans, self.eig_requests)


def layer_metrics(spans: list[Span], eig_requests: int) -> dict[str, float]:
    """Per-layer metrics of one traced execution (see README.md)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    layer_entries: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for i, s in enumerate(spans):
        own = (s.end - s.start) - child_time[i]
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own
        outer = s.parent < 0 or spans[s.parent].layer != s.layer
        if outer:
            layer_entries[s.layer] = layer_entries.get(s.layer, 0) + 1
        for k, v in s.attrs.items():
            if isinstance(v, (int, float)) and (outer or s.layer != "coulomb"):
                attr_sum[(s.name, k)] = attr_sum.get((s.name, k), 0.0) + v

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def a(key, *names):
        return sum(attr_sum.get((n, key), 0.0) for n in names)

    sd, sm, bd = "solver_density.", "solver_momentum.", "born_dynamics."
    dims = [s.attrs.get("dim", 0) for s in spans if s.name.startswith(sd)]
    dim = max(dims, default=0)
    eigh_calls = c(sd + "eigh")
    evolve = (sd + "evolve_vector", sd + "evolve")
    rk4_steps = a("steps", sm + "integrate")
    tls_steps = a("steps", bd + "evolve_tls")
    prop_calls = c(bd + "window_propagator")
    prop_keys = {s.attrs["key"] for s in spans if s.name == bd + "window_propagator"}
    profiles = (bd + "interaction_profile", bd + "modulated_interaction_profile")
    trains = (bd + "simulate_train", bd + "simulate_train_ensemble")
    coulomb = ("coulomb.m_tilde", "coulomb.m_spatial", "coulomb.bessel_k0",
               "coulomb.bessel_k1")
    return {
        "cli.load_config_s": t("cli.load_config"),
        "cli.write_result_s": t("cli.write_result"),
        "cli.bytes_written": a("bytes", "cli.write_result"),
        "plotsvg.s": layer_self.get("plotsvg", 0.0),
        "scenarios.self_s": layer_self.get("scenarios", 0.0),
        "solver_density.assemble_s": t(sd + "assemble_hamiltonian"),
        "solver_density.assemble_calls": c(sd + "assemble_hamiltonian"),
        "solver_density.eigh_s": t(sd + "eigh"),
        "solver_density.eigh_calls": eigh_calls,
        "solver_density.eig_requests": eig_requests,
        "solver_density.eig_reuse": 1.0 - eigh_calls / eig_requests if eig_requests else 0.0,
        "solver_density.evolve_s": t(*evolve),
        "solver_density.evolve_calls": c(*evolve),
        "solver_density.evolved_columns": a("columns", *evolve),
        "solver_density.observables_s": t(sd + "_observables"),
        "solver_density.observables_calls": c(sd + "_observables"),
        "solver_density.dim": dim,
        "solver_density.matrix_mib": dim * dim * 16 / 2**20,
        "solver_density.evolve_gflop": a("gflop", *evolve),
        "solver_momentum.integrate_s": t(sm + "integrate"),
        "solver_momentum.rk4_steps": rk4_steps,
        "solver_momentum.step_us": t(sm + "integrate") / rk4_steps * 1e6 if rk4_steps else 0.0,
        "solver_momentum.matvec_gflop": a("gflop", sm + "integrate"),
        "born_dynamics.evolve_tls_s": t(bd + "evolve_tls"),
        "born_dynamics.evolve_tls_steps": tls_steps,
        "born_dynamics.ns_per_step": t(bd + "evolve_tls") / tls_steps * 1e9 if tls_steps else 0.0,
        "born_dynamics.window_propagator_s": t(bd + "window_propagator"),
        "born_dynamics.window_propagator_calls": prop_calls,
        "born_dynamics.propagator_reuse": len(prop_keys) / prop_calls if prop_calls else 0.0,
        "born_dynamics.profile_s": t(*profiles),
        "born_dynamics.profile_samples": a("samples", *profiles),
        "born_dynamics.profile_harmonics": a("harmonics", *profiles),
        "born_dynamics.train_s": t(*trains),
        "born_dynamics.train_electron_steps": a("electron_steps", *trains),
        "analytic.s": layer_self.get("analytic", 0.0),
        "analytic.calls": layer_entries.get("analytic", 0),
        "coulomb.kernel_s": layer_self.get("coulomb", 0.0),
        "coulomb.kernel_points": a("points", *coulomb),
        "qew.s": layer_self.get("qew", 0.0),
        "qew.calls": layer_entries.get("qew", 0),
    }
