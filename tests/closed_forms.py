"""Closed forms that the tests check the library's fast paths against; no
program path uses them."""

import math

import numpy as np

from fermichip.constants import HBAR, K_B
from fermichip.evaporation import min_start_temperature


def uniform_density_zero_T(e_fermi, species):
    """Density of a uniform zero-T Fermi gas, (1/6 pi^2) (2 M E_F / hbar^2)^(3/2)."""
    if not e_fermi > 0:
        raise ValueError("Fermi energy must be positive")
    return (2.0 * species.mass * e_fermi / HBAR**2) ** 1.5 / (6.0 * np.pi**2)


def column_density_boltzmann(n_atoms, temperature, trap, species, t, x, y):
    """Classical (Boltzmann) column density with the same r_i(t) definitions."""
    om = trap.omegas
    r = np.sqrt((om**-2.0 + t * t) * K_B * temperature / species.mass)
    rx, ry = r[0], r[1]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = (
        n_atoms
        / (2.0 * np.pi * rx * ry)
        * np.exp(-0.5 * (x / rx) ** 2 - 0.5 * (y / ry) ** 2)
    )
    return float(out) if out.ndim == 0 else out


def relative_velocity(species, temperature):
    """Mean relative speed sqrt(8 k_B T / pi M) of same-species collision partners."""
    return math.sqrt(8.0 * K_B * temperature / (math.pi * species.mass))


def min_start_temperature_scaling(species, rho0, gamma_min, a_s=None):
    """Pivot form T0 = T_ref (1e-6/rho0)^(1/2) (gamma/150 s^-1)^(1/2) (5.3 nm/a_s),
    anchored at the exact reference evaluation so both paths agree identically."""
    if a_s is None:
        a_s = species.s_wave_scattering_length
    t_ref = min_start_temperature(species, 1e-6, 150.0, 5.3e-9)
    return t_ref * math.sqrt(1e-6 / rho0) * math.sqrt(gamma_min / 150.0) * (5.3e-9 / a_s)


def atom_number_from_fermi_energy(e_fermi, trap):
    """Inverse of fermi_energy: N = (E_F / hbar wbar)^3 / 6."""
    return (e_fermi / (HBAR * trap.omega_bar)) ** 3 / 6.0
