"""Helpers shared by several test files."""

from feberi.grid import interaction_window
from feberi.qew import grid_for_spec
from feberi.solver_momentum import default_time_step, initial_amplitudes, integrate


def run_gaussian_scenario(spec, state, coupling, tls, n):
    """One Gaussian packet through the momentum-grid RK4: the grid sized for
    the packet, its interaction window, the initial state and the default dt."""
    grid = grid_for_spec(spec, coupling, n)
    window = interaction_window(spec.sigma_et, coupling.geometry.transit_time, spec.t0)
    state0 = initial_amplitudes(grid, spec, state, window[0])
    return integrate(state0, window, default_time_step(grid, coupling, tls), grid,
                     coupling, tls)
