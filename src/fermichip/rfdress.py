"""RF-dressed adiabatic potentials (rotating-wave approximation) and
species-selective evaporation relations for two-species mixtures.

Dressed potentials: U_eff(r) = m_F' sqrt(delta(r)^2 + Omega(r)^2) with

    delta(r) = hbar w_RF - g_F mu_B B_DC(r)      (local detuning)
    Omega(r) = g_F mu_B B_RFperp(r) / 2          (local Rabi coupling)

delta is negative where the RF runs below the local Zeeman splitting; the
worked single/double-well scenarios and the evaporation-knife algebra both
use this sign.  B_RFperp is the RF amplitude component perpendicular to the
local static field direction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import HBAR, K_B, MU_B, NumericalError, SpinState

__all__ = [
    "RFField",
    "DressedPotentialScan",
    "DoubleWellReport",
    "RWAWarning",
    "RWAViolationError",
    "TopologyError",
    "detuning_and_rabi",
    "adiabatic_branch",
    "dressed_potential",
    "characterize_wells",
    "eta_relation",
    "eta_relation_coefficients",
    "eta_min_over_sublevels",
    "k_only_evaporation_depth",
]


class RWAWarning(UserWarning):
    """RF amplitude large enough that the rotating-wave form is suspect."""


class RWAViolationError(NumericalError, ValueError):
    """RF amplitude comparable to the static field; RWA form invalid."""


class TopologyError(NumericalError):
    """Extremum counts inconsistent with a single- or double-well potential."""


@dataclass
class RFField:
    """Uniform RF dressing field: amplitude (T), angular frequency (rad/s),
    polarization axis."""

    amplitude: float
    omega: float
    polarization: tuple[float, float, float]

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"RF amplitude must be nonnegative and finite, got {self.amplitude} T")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(
                f"RF angular frequency must be positive and finite, got {self.omega} rad/s"
            )
        p = np.asarray(self.polarization, dtype=float)
        self.polarization = tuple(p / np.linalg.norm(p))


def detuning_and_rabi(model, rf: RFField, state: SpinState, r):
    """Local (delta, Omega) in J at position(s) r, shaped (..., 3)."""
    return _detuning_and_rabi(model.field(r), rf, state)


def _detuning_and_rabi(b_vec, rf: RFField, state: SpinState):
    """(delta, Omega) where the static field is b_vec."""
    b_dc = np.linalg.norm(b_vec, axis=-1)
    if np.any(b_dc <= 0):
        raise ValueError("static field vanishes at a requested point")
    g = abs(float(state.g_F))
    delta = HBAR * rf.omega - g * MU_B * b_dc
    b_hat = b_vec / b_dc[..., None]
    pol = np.asarray(rf.polarization, dtype=float)
    sin_theta = np.linalg.norm(np.cross(np.broadcast_to(pol, b_hat.shape), b_hat), axis=-1)
    b_perp = rf.amplitude * sin_theta
    rabi = g * MU_B * b_perp / 2.0
    return delta, rabi


def adiabatic_branch(state: SpinState, delta0: float) -> Fraction:
    """Dressed branch m_F' that the populated bare state joins as the RF
    amplitude ramps up from zero: m_F' = -m_F sign(delta0).

    The RWA Hamiltonian -delta0 F_z + Omega F_x is linear in the spin, so it is
    sqrt(delta0^2 + Omega^2) times the spin component along the unit vector
    n ~ (Omega, 0, -delta0), with eigenvalues m_F' sqrt(delta0^2 + Omega^2)
    (Majorana, Nuovo Cimento 9, 43 (1932); Garraway and Perrin, J. Phys. B
    49, 172001 (2016)).  As Omega ramps up from zero, n turns continuously
    away from -sign(delta0) z and the levels never cross, so the bare state
    m_F joins m_F' = -m_F sign(delta0) for every ratio Omega / |delta0|: for
    delta0 < 0 a stretched m_F = +F state joins m_F' = +F, for delta0 > 0 it
    joins -F.  The coupling does not enter the label.  At resonance
    (delta0 = 0) the branch is m_F, the undressed label.
    """
    return -state.m_F if delta0 > 0 else state.m_F


@dataclass
class DressedPotentialScan:
    """Adiabatic potential sampled along a line through the trap."""

    state: SpinState
    m_f_prime: Fraction
    positions: np.ndarray      # signed offsets s along the axis, m
    u_eff: np.ndarray          # J
    delta: np.ndarray          # J
    rabi: np.ndarray           # J
    axis: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        expect = float(self.m_f_prime) * np.hypot(self.delta, self.rabi)
        if not np.allclose(self.u_eff, expect, rtol=1e-10, atol=0.0):
            raise ValueError("scan inconsistent: U_eff != m_F' sqrt(delta^2 + Omega^2)")


def dressed_potential(
    model,
    rf: RFField,
    state: SpinState,
    center,
    axis=(1.0, 0.0, 0.0),
    half_range: float = 10e-6,
    npoints: int = 4096,
    connect_at_omega: float | None = None,
) -> DressedPotentialScan:
    """Sample the RWA dressed potential along `axis` through `center`.

    The populated branch m_F' is the one the bare m_F state joins by
    adiabatic connection (adiabatic_branch), from the detuning at `center`.
    When the RF amplitude was ramped on at a different frequency than the one
    being scanned (amplitude ramp followed by a frequency sweep), pass that
    ramp frequency as connect_at_omega: the branch label is set by the
    detuning sign at ramp-on and survives the sweep.  Raises
    RWAViolationError when B_RF >= B_DC anywhere on the scan and warns above
    0.3 B_DC.
    """
    if npoints < 3:
        raise ValueError(f"the scan needs at least 3 points (--points), got {npoints}")
    if not 0 < half_range < math.inf:
        raise ValueError(f"scan half-range (--extent-um) must be positive and finite, "
                         f"got {half_range} m")
    if connect_at_omega is not None and not 0 < connect_at_omega < math.inf:
        raise ValueError(f"ramp angular frequency (--ramp-khz) must be positive and finite, "
                         f"got {connect_at_omega} rad/s")
    center = np.asarray(center, dtype=float)
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    s = np.linspace(-half_range, half_range, npoints)
    pts = center[None, :] + s[:, None] * axis[None, :]
    # past ~1e154 m from the wires their squared distances overflow; the wire
    # terms there are exactly 0 and B is the bias
    with np.errstate(over="ignore"):
        b_vec = model.field(pts)
    delta, rabi = _detuning_and_rabi(b_vec, rf, state)

    b_dc_min = float(np.min(np.linalg.norm(b_vec, axis=-1)))
    amp = float(rf.amplitude)
    if amp >= b_dc_min:
        raise RWAViolationError(
            f"B_RF = {amp:.3e} T >= min B_DC = {b_dc_min:.3e} T on the scan"
        )
    if amp >= 0.3 * b_dc_min:
        warnings.warn(
            f"B_RF = {amp:.3e} T is above 0.3 min B_DC = {0.3*b_dc_min:.3e} T; "
            "rotating-wave potentials become inaccurate",
            RWAWarning,
        )

    i0 = int(np.argmin(np.abs(s)))
    delta0 = float(delta[i0])
    if connect_at_omega is not None:
        delta0 += HBAR * (connect_at_omega - rf.omega)
    m_f_prime = adiabatic_branch(state, delta0)
    u_eff = float(m_f_prime) * np.hypot(delta, rabi)
    return DressedPotentialScan(
        state=state,
        m_f_prime=m_f_prime,
        positions=s,
        u_eff=u_eff,
        delta=delta,
        rabi=rabi,
        axis=axis,
        center=center,
    )


def _parabolic_refine(s, u, i):
    if i == 0 or i == len(s) - 1:
        return s[i], u[i]
    denom = u[i - 1] - 2.0 * u[i] + u[i + 1]
    if denom == 0:
        return s[i], u[i]
    h = s[1] - s[0]
    shift = 0.5 * (u[i - 1] - u[i + 1]) / denom
    return s[i] + shift * h, u[i] - 0.25 * (u[i - 1] - u[i + 1]) * shift


def _extrema(u):
    """Indices of the interior minima and maxima of the samples u, ascending.

    An extremum sits at step i when the slope u[i+1] - u[i] has the opposite
    sign of the last nonzero slope before it, so a flat run counts once, at
    its last sample."""
    sign = np.sign(np.diff(u))
    steps = np.flatnonzero(sign)
    turns = steps[1:][sign[steps[:-1]] * sign[steps[1:]] < 0]
    return turns[sign[turns] > 0].tolist(), turns[sign[turns] < 0].tolist()


@dataclass
class DoubleWellReport:
    topology: str                    # "single" | "double"
    well_positions: list[float]      # m
    separation: float                # m (0 for single)
    barrier_height: float            # J above the lower well (0 for single)
    level_repulsion: list[float]     # Omega at the wells, J


def characterize_wells(scan: DressedPotentialScan) -> DoubleWellReport:
    """Locate the extrema of a dressed-potential scan and classify its topology."""
    s, u = scan.positions, scan.u_eff
    minima, maxima = _extrema(u)
    # interior extrema only; refine positions parabolically
    wells = [_parabolic_refine(s, u, i) for i in minima]
    bumps = [_parabolic_refine(s, u, i) for i in maxima]

    def rabi_at(pos):
        return float(np.interp(pos, s, scan.rabi))

    if len(wells) == 1 and not bumps:
        pos = wells[0][0]
        return DoubleWellReport("single", [pos], 0.0, 0.0, [rabi_at(pos)])
    if len(wells) == 2 and len(bumps) == 1:
        (s1, u1), (s2, u2) = sorted(wells)
        sb, ub = bumps[0]
        if not (s1 < sb < s2):
            raise TopologyError("interior maximum does not separate the two minima")
        barrier = ub - min(u1, u2)
        return DoubleWellReport(
            "double", [s1, s2], abs(s2 - s1), barrier, [rabi_at(s1), rabi_at(s2)]
        )
    raise TopologyError(
        f"ambiguous topology: {len(wells)} minima and {len(bumps)} interior maxima"
    )


def eta_relation_coefficients(state_target: SpinState, state_ref: SpinState):
    """Exact rational (slope, field-term) coefficients of the eta relation.

    eta_target = slope * eta_ref + field_coeff * mu_B B0 / (k_B T);
    slope = m_target/m_ref and field_coeff = m_target (g_ref - g_target).
    For the stretched K40/Rb87 pair these are exactly 9/4 and 5/4.
    """
    slope = state_target.m_F / state_ref.m_F
    field_coeff = state_target.m_F * (state_ref.g_F - state_target.g_F)
    return slope, field_coeff


def eta_relation(
    state_target: SpinState,
    state_ref: SpinState,
    eta_ref: float,
    b0: float,
    temperature: float,
) -> float:
    """Truncation parameter of the target species given eta of the reference
    species sharing the same RF knife, bottom field B0 and temperature."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if b0 < 0:
        raise ValueError("B0 must be nonnegative")
    slope, field_coeff = eta_relation_coefficients(state_target, state_ref)
    return float(slope) * eta_ref + float(field_coeff) * MU_B * b0 / (K_B * temperature)


def eta_min_over_sublevels(
    states: list[SpinState],
    state_ref: SpinState,
    eta_ref: float,
    b0: float,
    temperature: float,
) -> tuple[float, SpinState]:
    """Smallest eta among the given (trappable) sublevels, with its state."""
    trappable = [st for st in states if st.trappable]
    if not trappable:
        raise ValueError("no trappable sublevels supplied")
    etas = [(eta_relation(st, state_ref, eta_ref, b0, temperature), st) for st in trappable]
    return min(etas, key=lambda pair: pair[0])


def k_only_evaporation_depth(state_target: SpinState, state_ref: SpinState, b0: float) -> float:
    """Maximum target-species depth reachable without ejecting the reference
    species: U_td = m_target (g_ref - g_target) mu_B B0 (J), attained with the
    knife parked at the reference species' bottom frequency."""
    _, field_coeff = eta_relation_coefficients(state_target, state_ref)
    return float(field_coeff) * MU_B * b0
