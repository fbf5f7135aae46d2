"""Physical constants in SI units, the registry of atomic species and spin
states, and the CSV writer the modules share.

Everything internal to the package is SI; the unit multipliers below convert
interface values (gauss, gauss per cm and per cm^2, micrometres) at the boundary.
g-factors, F and m_F are stored as exact rationals because the species-selective
evaporation algebra relies on exact ratios like 9/4 and 5/4.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction


# 2019 SI exact values where applicable, CODATA 2018 otherwise.
H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2.0 * math.pi)
K_B = 1.380649e-23
MU_B = 9.2740100783e-24
MU_0 = 1.25663706212e-6
ATOMIC_MASS_UNIT = 1.66053906660e-27
G_EARTH = 9.80665  # m / s^2

# Unit multipliers: value_in_unit * multiplier -> SI.
GAUSS = 1e-4             # T
GAUSS_PER_CM = 1e-2      # T/m
GAUSS_PER_CM2 = 1.0      # T/m^2
MICROMETER = 1e-6        # m


class NumericalError(RuntimeError):
    """A solver, fit or field evaluation failed on valid input.

    Every module's solver errors derive from this class, so a caller (the CLI's
    exit code 3) can catch them all without importing the modules that raise them.
    """


def write_csv(path, header, columns) -> None:
    """Write the header row, then row i of each column (to 17 significant
    digits), so the values read back bit for bit."""
    import numpy as np  # the light commands import this module but write no CSV

    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(line % row for row in zip(*columns))


def thermal_wavelength(mass: float, temperature: float) -> float:
    """Thermal de Broglie wavelength sqrt(2 pi hbar^2 / (M k_B T))."""
    return math.sqrt(2.0 * math.pi * HBAR * HBAR / (mass * K_B * temperature))


def _as_fraction(x) -> Fraction:
    """Coerce int, string ("9/2") or exactly-representable float to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        frac = Fraction(x)
        if frac.denominator in (1, 2):
            return frac
        raise ValueError(
            f"{x!r} is not an exact (half-)integer; pass a string like '2/9' instead"
        )
    raise TypeError(f"cannot interpret {x!r} as a rational quantum number")


@dataclass(frozen=True)
class AtomSpecies:
    """An atomic species: label, mass and (optionally) its s-wave scattering length."""

    name: str
    mass: float                                  # kg
    s_wave_scattering_length: float | None = None  # m

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("species mass must be positive")


@dataclass(frozen=True)
class SpinState:
    """Hyperfine Zeeman state |F, m_F> of a species, with its Lande g_F."""

    species: AtomSpecies
    F: Fraction
    m_F: Fraction
    g_F: Fraction

    def __post_init__(self):
        object.__setattr__(self, "F", _as_fraction(self.F))
        object.__setattr__(self, "m_F", _as_fraction(self.m_F))
        object.__setattr__(self, "g_F", _as_fraction(self.g_F))
        if self.F < 0 or (2 * self.F).denominator != 1:
            raise ValueError(f"F={self.F} is not a non-negative integer or half-integer")
        if (self.F - self.m_F).denominator != 1:
            raise ValueError(f"m_F={self.m_F} does not differ from F={self.F} by an integer")
        if abs(self.m_F) > self.F:
            raise ValueError(f"|m_F|={self.m_F} exceeds F={self.F}")

    @property
    def trappable(self) -> bool:
        """Magnetically trappable (weak-field seeking) iff m_F * g_F > 0."""
        return self.m_F * self.g_F > 0

    @property
    def moment_factor(self) -> Fraction:
        """Exact m_F * g_F."""
        return self.m_F * self.g_F

    def __str__(self):
        return f"{self.species.name}|{self.F},{self.m_F}>"


def magnetic_moment(state: SpinState) -> float:
    """Effective magnetic moment m_F * g_F * mu_B in J/T.

    The Zeeman potential in a static trap is U(r) = magnetic_moment(state) * |B(r)|.
    """
    return float(state.moment_factor) * MU_B


class SpeciesRegistry:
    """Species plus per-manifold g-factors."""

    def __init__(self, species: dict[str, AtomSpecies], g_factors: dict[str, dict[Fraction, Fraction]]):
        self.species = dict(species)
        self.g_factors = {k: dict(v) for k, v in g_factors.items()}

    def __getitem__(self, name: str) -> AtomSpecies:
        return self.species[name]

    def state(self, name: str, F, m_F) -> SpinState:
        """The |F, m_F> state of a species, with the g_F on record for F."""
        F = _as_fraction(F)
        try:
            g_F = self.g_factors[name][F]
        except KeyError:
            raise KeyError(f"no g_F on record for {name} F={F}")
        return SpinState(self.species[name], F, m_F, g_F)

    def stretched_state(self, name: str) -> SpinState:
        """The |F, m_F=F> state of the largest tabulated manifold."""
        F = max(self.g_factors[name])
        return self.state(name, F, F)


def builtin_species() -> SpeciesRegistry:
    """K40 and Rb87 with their ground-manifold g-factors.

    Rb87 carries the s-wave scattering length 5.3 nm used by the evaporation
    design rules; spin-polarized K40 has no s-wave channel at these temperatures.
    """
    k40 = AtomSpecies("K40", 39.96399848 * ATOMIC_MASS_UNIT, None)
    rb87 = AtomSpecies("Rb87", 86.909180527 * ATOMIC_MASS_UNIT, 5.3e-9)
    return SpeciesRegistry(
        {"K40": k40, "Rb87": rb87},
        {
            "K40": {Fraction(9, 2): Fraction(2, 9)},
            "Rb87": {Fraction(2): Fraction(1, 2)},
        },
    )
