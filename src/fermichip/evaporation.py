"""Evaporation and chip-loading design rules.

Effective trap volumes V_eff(T) = Int exp(-U/k_B T) d^3r for the standard trap
shapes, the resulting bound on the loadable atom number at a given phase-space
density, the wire-current scaling of that bound, elastic collision rates, the
minimum useful starting temperature, and the low-temperature s-wave
cross-section of identical bosons; and the four worked loading examples
(`LOADING_PRESETS`) that the `evap` command reports and paper-check checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .constants import (GAUSS_PER_CM, GAUSS_PER_CM2, HBAR, K_B, MU_B, AtomSpecies,
                        builtin_species, thermal_wavelength)

__all__ = [
    "EffectiveVolumeModel",
    "LoadingBudget",
    "CurrentScalingFamily",
    "effective_volume",
    "power_law_exponent",
    "max_loadable_atoms",
    "current_scaling_exponent",
    "collision_rate",
    "min_start_temperature",
    "sigma_identical_low_temperature",
    "LOADING_PRESETS",
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
    mass: float | None = None
    omega_bar: float | None = None
    mean_gradient: float | None = None
    side: float | None = None

    def __post_init__(self):
        if self.kind not in _DELTA:
            raise ValueError(f"unknown trap kind {self.kind!r}")


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


# Reference value at I = 1 A and current exponent of the family's trap depth
# and frequencies: U_td ~ I (B_perp ~ I at fixed trap-surface distance),
# omega_perp ~ B_perp / I = const and omega_z ~ I^(1/2).
_FAMILY_SCALING = (
    (K_B * 1.3e-3, 1.0),            # depth, J
    (2.0 * math.pi * 1.0e3, 0.0),   # omega_perp, rad/s
    (2.0 * math.pi * 50.0, 0.5),    # omega_z, rad/s
)


@dataclass(frozen=True)
class CurrentScalingFamily:
    """Single-wire microtrap family parameterized by wire current I, loaded at
    rho0 = 1e-6 and eta = 4.

    The trap depth scales with the transverse bias (held proportional to I at
    fixed trap-surface distance), the transverse frequency follows
    omega_perp ~ B_perp / I, and the axial frequency follows omega_z ~ I^(1/2),
    giving N_max ~ I^(5/2).
    """

    species: AtomSpecies

    def n_max(self, current: float) -> float:
        depth, omega_perp, omega_z = (ref * current**exponent for ref, exponent in _FAMILY_SCALING)
        omega_bar = (omega_perp**2 * omega_z) ** (1.0 / 3.0)
        model = EffectiveVolumeModel("sho", mass=self.species.mass, omega_bar=omega_bar)
        return max_loadable_atoms(LoadingBudget(1e-6, depth, 4.0, self.species), model)


def current_scaling_exponent(family: CurrentScalingFamily) -> float:
    """Log-log slope of N_max(I) over a decade of wire current, 0.3 A to 3 A."""
    import numpy as np  # the only numpy in this module; `evap` runs without it

    currents = np.geomspace(0.3, 3.0, 15)
    n = np.array([family.n_max(i) for i in currents])
    return float(np.polyfit(np.log(currents), np.log(n), 1)[0])


def collision_rate(species: AtomSpecies, rho0: float, temperature: float, sigma: float) -> float:
    """Peak elastic collision rate sigma rho0 M (k_B T)^2 / (pi^2 hbar^3), s^-1.

    Algebraically identical to n0 sigma v_rel with n0 = rho0 Lambda_T^-3;
    independent of atom number.  Valid in the Boltzmann regime (rho0 << 1).
    """
    if not (rho0 > 0 and temperature > 0 and sigma > 0):
        raise ValueError("rho0, temperature and sigma must be positive")
    return sigma * rho0 * species.mass * (K_B * temperature) ** 2 / (math.pi**2 * HBAR**3)


def min_start_temperature(species: AtomSpecies, rho0: float, gamma_min: float) -> float:
    """Minimum temperature (K) at the start of evaporation for the collision
    rate to reach gamma_min: (k_B T)^2 = gamma_min pi^2 hbar^3 / (M sigma rho0)
    with sigma = 8 pi a_s^2 and a_s the species' s-wave scattering length
    (ValueError if it has none on record)."""
    a_s = species.s_wave_scattering_length
    if a_s is None:
        raise ValueError(f"no scattering length on record for {species.name}")
    m_sigma_rho0 = species.mass * sigma_identical_low_temperature(a_s) * rho0
    if not m_sigma_rho0 > 0:
        raise ValueError(f"rho0 (--rho0) must be positive and M sigma rho0 representable, "
                         f"got rho0 = {rho0}")
    kt = math.sqrt(gamma_min * math.pi**2 * HBAR**3 / m_sigma_rho0)
    return kt / K_B


def sigma_identical_low_temperature(a: float) -> float:
    """Low-temperature limit 8 pi a^2 for identical bosons."""
    return 8.0 * math.pi * a * a


@dataclass(frozen=True)
class _LoadingPreset:
    """A worked Rb87 loading example: trap shape and depth, and the same trap
    for K40 where the example also loads K40."""

    name: str
    model: EffectiveVolumeModel
    depth: float                                   # J
    k40_model: EffectiveVolumeModel | None = None

    def report(self, rho0: float = 1e-6) -> dict:
        """Loading at phase-space density rho0 and eta = 4: temperature, V_eff
        and N_max, the start temperature a 150 s^-1 collision rate needs and
        the collision rate at loading (a_s = 5.3 nm), and the K40 N_max at
        rho0 = 4e-8 for a trap with a K40 model."""
        budget = LoadingBudget(rho0, self.depth, 4.0, _RB87)
        t_load = budget.temperature
        report = {
            "preset": self.name,
            "species": _RB87.name,
            "eta": 4.0,
            "rho0": rho0,
            "depth_mk": self.depth / K_B * 1e3,
            "load_temperature_uk": t_load * 1e6,
            "v_eff_um3": effective_volume(self.model, t_load) * 1e18,
            "n_max": max_loadable_atoms(budget, self.model),
            "t_min_uk": min_start_temperature(_RB87, rho0, 150.0) * 1e6,
            "gamma_coll_hz": collision_rate(
                _RB87, rho0, t_load, sigma_identical_low_temperature(5.3e-9)
            ),
        }
        if self.k40_model is not None:
            budget_k = LoadingBudget(4e-8, self.depth, 4.0, _K40)
            report["n_max_k40_at_rho0_4e-8"] = max_loadable_atoms(budget_k, self.k40_model)
        return report


def _science_trap(species: AtomSpecies) -> EffectiveVolumeModel:
    """The Toronto science trap, 3e4 G/cm^2 curvature, for one species."""
    omega_bar = math.sqrt(MU_B * 3e4 * GAUSS_PER_CM2 / species.mass)
    return EffectiveVolumeModel("sho", mass=species.mass, omega_bar=omega_bar)


_RB87, _K40 = (builtin_species()[name] for name in ("Rb87", "K40"))

# The loading examples, by `evap --preset` name: the Libbrecht loop quadrupole
# (5.4e5 G/cm axial gradient, 2:1 anisotropy), the Ioffe-C half-loop trap, the
# Reichel Z-trap, and the Toronto science trap, whose depth loads it at 300 uK.
LOADING_PRESETS = {preset.name: preset for preset in (
    _LoadingPreset("libbrecht-loop", EffectiveVolumeModel(
        "quadrupole3d", mean_gradient=MU_B * 5.4e5 * GAUSS_PER_CM / 2.0 ** (2.0 / 3.0)),
        K_B * 21e-3),
    _LoadingPreset("ioffe-c", EffectiveVolumeModel(
        "sho", mass=_RB87.mass, omega_bar=2 * math.pi * 94e3), K_B * 1.3e-3),
    _LoadingPreset("reichel-z", EffectiveVolumeModel(
        "sho", mass=_RB87.mass, omega_bar=2 * math.pi * 300.0), K_B * 1.3e-3),
    _LoadingPreset("toronto-z", _science_trap(_RB87), 4.0 * K_B * 300e-6, _science_trap(_K40)),
)}
