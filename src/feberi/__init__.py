"""Simulator of resonant free-electron / two-level-system (TLS) interaction.

A single free electron, described as a quantum electron wavepacket (QEW),
passes a bound two-level system at an impact parameter of a few nanometers.
The package computes the TLS transition probability three independent ways:

* closed-form perturbative estimates (:mod:`feberi.analytic`),
* a probabilistic time-domain model of the TLS coupled equations
  (:mod:`feberi.born_dynamics`),
* two grid solvers for the entangled free+bound state, one integrating the
  momentum-space amplitude equations (:mod:`feberi.solver_momentum`) and one
  evolving the joint density matrix (:mod:`feberi.solver_density`),

and reproduces the wavepacket-size decay, arrival-phase matching, modulation
resonance, and N-squared correlated-train buildup effects.

One value, ``DipoleCoupling(tls, r_perp, kin, orientation)``, carries the
physics of a run: TLS, impact parameter, beam and dipole orientation.

Internal unit system: energies in eV, times in fs, lengths in nm.
"""

from feberi.core import (
    ElectronKinematics,
    TlsSpec,
    TlsState,
    bloch_phase,
    kinematics_from_kinetic_energy,
    transit_time,
)
from feberi.coulomb import DipoleCoupling

__all__ = [
    "ElectronKinematics",
    "TlsSpec",
    "TlsState",
    "DipoleCoupling",
    "bloch_phase",
    "kinematics_from_kinetic_energy",
    "transit_time",
]

__version__ = "0.1.0"
