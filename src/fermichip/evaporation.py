"""Evaporation and chip-loading design rules.

Effective trap volumes V_eff(T) = Int exp(-U/k_B T) d^3r for the standard trap
shapes, the resulting bound on the loadable atom number at a given phase-space
density, the wire-current scaling of that bound, elastic collision rates, the
minimum useful starting temperature, and the low-temperature s-wave
cross-section of identical bosons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .constants import HBAR, K_B, AtomSpecies, thermal_wavelength

__all__ = [
    "EffectiveVolumeModel",
    "LoadingBudget",
    "CurrentScalingFamily",
    "effective_volume",
    "power_law_exponent",
    "max_loadable_atoms",
    "current_scaling_exponent",
    "collision_rate",
    "relative_velocity",
    "min_start_temperature",
    "min_start_temperature_scaling",
    "sigma_identical_low_temperature",
]

Kind = Literal["sho", "quadrupole3d", "box", "quad2d_box"]

# V_eff = C_delta T^delta
_DELTA = {"sho": 1.5, "quadrupole3d": 3.0, "box": 0.0, "quad2d_box": 2.0}


@dataclass(frozen=True)
class EffectiveVolumeModel:
    """Trap shape for the effective-volume integral (eta >> 1 regime).

    kind="sho":          needs mass (kg) and omega_bar (rad/s)
    kind="quadrupole3d": needs mean_gradient (J/m, geometric mean of mu B'_i)
    kind="box":          needs side (m)
    kind="quad2d_box":   needs mean_gradient (J/m, 2D quadrupole) and side (m)
    """

    kind: Kind
    eta: float = 4.0
    mass: float | None = None
    omega_bar: float | None = None
    mean_gradient: float | None = None
    side: float | None = None

    def __post_init__(self):
        if self.kind not in _DELTA:
            raise ValueError(f"unknown trap kind {self.kind!r}")
        if self.eta < 1:
            raise ValueError("eta must be at least 1")


def power_law_exponent(model: EffectiveVolumeModel) -> float:
    """The delta in V_eff = C_delta T^delta (3/2, 3, 0 or 2)."""
    return _DELTA[model.kind]


def effective_volume(model: EffectiveVolumeModel, temperature: float) -> float:
    """V_eff(T) in m^3 for the given trap shape."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    kt = K_B * temperature
    if model.kind == "sho":
        return (2.0 * math.pi / (model.mass * model.omega_bar**2)) ** 1.5 * kt**1.5
    if model.kind == "quadrupole3d":
        return 8.0 * math.pi * model.mean_gradient**-3.0 * kt**3
    if model.kind == "box":
        return model.side**3
    return 2.0 * math.pi * model.side * model.mean_gradient**-2.0 * kt**2


@dataclass(frozen=True)
class LoadingBudget:
    """Loading conditions: initial phase-space density, trap depth, truncation eta."""

    phase_space_density: float
    trap_depth: float  # J
    eta: float
    species: AtomSpecies

    def __post_init__(self):
        if not self.phase_space_density > 0:
            raise ValueError("phase-space density must be positive")
        if self.eta < 1:
            raise ValueError("eta must be at least 1")

    @property
    def temperature(self) -> float:
        """Loading temperature T = U_td / (eta k_B)."""
        return self.trap_depth / (self.eta * K_B)


def max_loadable_atoms(budget: LoadingBudget, model: EffectiveVolumeModel) -> float:
    """N = rho_0 Lambda_T^-3 V_eff(T) evaluated at T = U_td/(eta k_B)."""
    t = budget.temperature
    lam = thermal_wavelength(budget.species.mass, t)
    return budget.phase_space_density * lam**-3.0 * effective_volume(model, t)


@dataclass(frozen=True)
class CurrentScalingFamily:
    """Single-wire microtrap family parameterized by wire current I.

    The trap depth scales with the transverse bias (held proportional to I at
    fixed trap-surface distance), the transverse frequency follows
    omega_perp ~ B_perp / I, and the axial frequency follows omega_z ~ I^(1/2),
    giving N_max ~ I^(5/2) for the reference exponents below.
    """

    species: AtomSpecies
    phase_space_density: float = 1e-6
    eta: float = 4.0
    depth_ref: float = K_B * 1.3e-3        # J at I = I_ref
    omega_perp_ref: float = 2.0 * math.pi * 1.0e3
    omega_z_ref: float = 2.0 * math.pi * 50.0
    i_ref: float = 1.0                     # A
    depth_exponent: float = 1.0            # U_td ~ I (B_perp ~ I)
    omega_perp_exponent: float = 0.0       # omega_perp ~ B_perp/I = const
    omega_z_exponent: float = 0.5          # omega_z ~ sqrt(I)

    def n_max(self, current: float) -> float:
        scale = current / self.i_ref
        depth = self.depth_ref * scale**self.depth_exponent
        omega_perp = self.omega_perp_ref * scale**self.omega_perp_exponent
        omega_z = self.omega_z_ref * scale**self.omega_z_exponent
        omega_bar = (omega_perp**2 * omega_z) ** (1.0 / 3.0)
        model = EffectiveVolumeModel(
            "sho", eta=self.eta, mass=self.species.mass, omega_bar=omega_bar
        )
        budget = LoadingBudget(self.phase_space_density, depth, self.eta, self.species)
        return max_loadable_atoms(budget, model)


def current_scaling_exponent(
    family: CurrentScalingFamily | Callable[[float], float],
    currents=None,
) -> float:
    """Log-log slope of N_max(I) over a decade of wire current."""
    n_of_i = family.n_max if isinstance(family, CurrentScalingFamily) else family
    if currents is None:
        currents = np.geomspace(0.3, 3.0, 15)
    currents = np.asarray(currents, dtype=float)
    n = np.array([n_of_i(i) for i in currents])
    slope = np.polyfit(np.log(currents), np.log(n), 1)[0]
    return float(slope)


def relative_velocity(species: AtomSpecies, temperature: float) -> float:
    """Mean relative speed sqrt(8 k_B T / pi M) of same-species collision partners."""
    return math.sqrt(8.0 * K_B * temperature / (math.pi * species.mass))


def collision_rate(species: AtomSpecies, rho0: float, temperature: float, sigma: float) -> float:
    """Peak elastic collision rate sigma rho0 M (k_B T)^2 / (pi^2 hbar^3), s^-1.

    Algebraically identical to n0 sigma v_rel with n0 = rho0 Lambda_T^-3;
    independent of atom number.  Valid in the Boltzmann regime (rho0 << 1).
    """
    if not (rho0 > 0 and temperature > 0 and sigma > 0):
        raise ValueError("rho0, temperature and sigma must be positive")
    return sigma * rho0 * species.mass * (K_B * temperature) ** 2 / (math.pi**2 * HBAR**3)


def min_start_temperature(
    species: AtomSpecies,
    rho0: float,
    gamma_min: float,
    a_s: float | None = None,
) -> float:
    """Minimum temperature (K) at the start of evaporation for the collision
    rate to reach gamma_min: (k_B T)^2 = gamma_min pi^2 hbar^3 / (M sigma rho0)
    with sigma = 8 pi a_s^2."""
    if a_s is None:
        a_s = species.s_wave_scattering_length
    if a_s is None:
        raise ValueError(f"no scattering length on record for {species.name}")
    sigma = sigma_identical_low_temperature(a_s)
    kt = math.sqrt(gamma_min * math.pi**2 * HBAR**3 / (species.mass * sigma * rho0))
    return kt / K_B


def min_start_temperature_scaling(
    species: AtomSpecies,
    rho0: float,
    gamma_min: float,
    a_s: float | None = None,
) -> float:
    """Pivot form T0 = T_ref (1e-6/rho0)^(1/2) (gamma/150 s^-1)^(1/2) (5.3 nm/a_s),
    anchored at the exact reference evaluation so both paths agree identically."""
    if a_s is None:
        a_s = species.s_wave_scattering_length
    t_ref = min_start_temperature(species, 1e-6, 150.0, 5.3e-9)
    return t_ref * math.sqrt(1e-6 / rho0) * math.sqrt(gamma_min / 150.0) * (5.3e-9 / a_s)


def sigma_identical_low_temperature(a: float) -> float:
    """Low-temperature limit 8 pi a^2 for identical bosons."""
    return 8.0 * math.pi * a * a
