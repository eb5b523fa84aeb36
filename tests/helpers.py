"""Helpers shared by several test files, and the reference implementations
that tests compare the package against."""

import math

import numpy as np

from feberi.core import TWO_PI
from feberi.grid import WINDOW_SIGMA_FACTOR, WINDOW_TRANSIT_FACTOR
from feberi.qew import ModulatedQewSpec, _modulated_amplitude_comoving, packet_for_spec
from feberi.solver_density import _SAMPLE_BLOCK, _trajectory
from feberi.solver_momentum import default_time_step, initial_amplitudes, integrate


def default_packet(spec, coupling, n):
    """The packet of ``spec`` on n grid points, in the default window."""
    return packet_for_spec(spec, coupling, n, WINDOW_TRANSIT_FACTOR, WINDOW_SIGMA_FACTOR)


def run_gaussian_scenario(spec, state, coupling, n):
    """One Gaussian packet through the momentum-grid RK4: the grid sized for
    the packet, its interaction window, the initial state and the default dt."""
    grid, window = default_packet(spec, coupling, n)[1:]
    state0 = initial_amplitudes(grid, spec, state, window[0])
    return integrate(state0, window, default_time_step(grid, coupling), grid, coupling)


def density_profile(spec, t, z_grid):
    """Probability density n(z, t) of a Gaussian or modulated packet, normalized
    to unit trapezoid integral over ``z_grid`` (which must cover the packet).

    The Gaussian case is the waist-profile Gaussian riding at v0; the
    modulated case evaluates the sideband sum (a bunch comb after drift).
    """
    z = np.asarray(z_grid, dtype=float)
    xi = z - spec.kin.v0 * (t - spec.t0)
    if isinstance(spec, ModulatedQewSpec):
        dens = np.abs(_modulated_amplitude_comoving(spec, xi)) ** 2
    else:
        sz = spec.sigma_z0
        dens = np.exp(-(xi**2) / (2.0 * sz * sz)) / math.sqrt(TWO_PI * sz * sz)
    total = np.trapezoid(dens, z)
    assert total > 0.0, "density grid does not cover the packet"
    return dens / total


def reconstruct(spectrum, t):
    """The modulation factor sum_m f_m e^{i m omega_b t} of a ModulationSpectrum
    (real), summed term by term at the times ``t``."""
    t = np.asarray(t, dtype=float)
    m = np.arange(-spectrum.order, spectrum.order + 1)
    vals = np.real(np.exp(1j * np.outer(t, m) * spectrum.omega_b) @ spectrum.f_m)
    return vals if vals.ndim else float(vals)


def partial_trace_bound(psi):
    """2x2 TLS density matrix of a joint pure vector (TLS index first)."""
    psi = psi.reshape(2, -1)
    return psi @ psi.conj().T


def observables(times, states, h, collect_rho_b):
    """The trajectory of the joint states (2N, T) sampled at ``times``, handed
    to the solver's observables _SAMPLE_BLOCK samples at a time, as the
    propagation hands over the states it sums a block of orders at a time."""
    step = _SAMPLE_BLOCK
    blocks = ((slice(i, i + step), states[:, i:i + step])
              for i in range(0, states.shape[-1], step))
    return _trajectory(times, blocks, h, collect_rho_b)
