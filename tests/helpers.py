"""Helpers shared by several test files."""

from feberi.grid import WINDOW_SIGMA_FACTOR, WINDOW_TRANSIT_FACTOR
from feberi.qew import packet_for_spec
from feberi.solver_momentum import default_time_step, initial_amplitudes, integrate


def default_packet(spec, coupling, n):
    """The packet of ``spec`` on n grid points, in the default window."""
    return packet_for_spec(spec, coupling, n, WINDOW_TRANSIT_FACTOR, WINDOW_SIGMA_FACTOR)


def run_gaussian_scenario(spec, state, coupling, tls, n):
    """One Gaussian packet through the momentum-grid RK4: the grid sized for
    the packet, its interaction window, the initial state and the default dt."""
    grid, window = default_packet(spec, coupling, n)[1:]
    state0 = initial_amplitudes(grid, spec, state, window[0])
    return integrate(state0, window, default_time_step(grid, coupling, tls), grid,
                     coupling, tls)
