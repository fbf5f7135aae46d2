"""Thermodynamics of the harmonically trapped ideal Fermi gas.

Grand-canonical relations for a 3D harmonic trap with density of states
g(eps) = eps^2 / (2 (hbar wbar)^3):

    N = (beta hbar wbar)^-3 f_3(Z),      E = 3 k_B T (beta hbar wbar)^-3 f_4(Z),
    E_F = hbar wbar (6 N)^(1/3),         6 f_3(Z) = (beta E_F)^3.

The last relation is inverted for Z by Halley's method in ln Z, bracketed,
from closed-form starts and with the exact derivatives d f_n / d ln Z =
f_(n-1), on a scalar or an array.  The start and the Halley step are each
one function that takes a float or an array; the bracket is kept with masks
on an array and with `if` at one point (a float, a 0-d array or any size-1
array), which then runs in Python floats: 10-26 us a solve instead of
70-170 us of numpy dispatch on one-element arrays.  A Halley pass takes f_3
and f_2 from one fermi_fns call.  An array solve runs masked passes until at
most _FLOAT_TAIL = 8 points remain and finishes those on floats, one point at
a time, as a pass costs 5-12 us on one float and 50-60 us on 2 to 24 points:
the 24 points of a degeneracy scan take passes over 24 and 13 points, then 2
points on floats, ~250 us a solve instead of ~350 us.  The bits are the array
path's.
Includes a brute-force discrete-sum oracle over oscillator levels for
finite-size cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import polylog
from .constants import HBAR, K_B, NumericalError, SpinState, thermal_wavelength, write_csv
from .polylog import fermi_fn, fermi_fns

__all__ = [
    "FugacityError",
    "HarmonicTrap",
    "TrappedGasState",
    "occupation",
    "fermi_energy",
    "fugacity_from_reduced_temperature",
    "reduced_temperature_from_fugacity",
    "chemical_potential_approx",
    "energy_per_particle",
    "degeneracy_parameter",
    "thermal_wavelength",
    "capacity_1d",
    "discrete_sum_oracle",
    "write_thermo_scan_csv",
]

_SOLVE_MAXITER = 100
_SOLVE_YTOL = 1e-8
# ln 1e-300, the classical end of the fugacity bracket, and the largest t
# whose root it holds: on the classical side Z exceeds t^-3/6, which is 1e-300
# at _T_MAX
_LN_Z_MIN = math.log(1e-300)
_T_MAX = 6e-300 ** (-1.0 / 3.0)
# f_3(1): 6 f_3(1) = t^-3 divides the classical side of the fugacity solve
# (Z < 1) from the degenerate one.  From polylog itself: a caller may replace
# this module's fermi_fn, and the value is kept.
_F3_AT_UNIT_FUGACITY = polylog.fermi_fn(3.0, 1.0)
# the array solve finishes on Python floats once at most this many points
# remain: a Halley pass costs 5-12 us on one float against 50-60 us on an
# array of 2 to 24 points, so up to about 8 points a float pass each costs no
# more than one array pass (AVX-512 Xeon, numpy 2.4)
_FLOAT_TAIL = 8


class FugacityError(NumericalError):
    """The root find for the fugacity at a reduced temperature failed."""


@dataclass(frozen=True)
class HarmonicTrap:
    """Triaxial harmonic trap, angular frequencies in rad/s."""

    omega_x: float
    omega_y: float
    omega_z: float

    def __post_init__(self):
        omegas = (self.omega_x, self.omega_y, self.omega_z)
        if not all(math.isfinite(w) and w > 0 for w in omegas):
            raise ValueError(f"trap frequencies must be positive and finite, got {omegas} rad/s")

    @classmethod
    def from_frequencies_hz(cls, fx, fy, fz):
        tau = 2.0 * math.pi
        return cls(tau * fx, tau * fy, tau * fz)

    @classmethod
    def isotropic(cls, omega):
        return cls(omega, omega, omega)

    @property
    def omega_bar(self) -> float:
        """Geometric mean (wx wy wz)^(1/3)."""
        return (self.omega_x * self.omega_y * self.omega_z) ** (1.0 / 3.0)

    @property
    def omegas(self) -> np.ndarray:
        return np.array([self.omega_x, self.omega_y, self.omega_z])


def occupation(epsilon, mu, temperature):
    """Mean occupation 1/(exp(beta(eps-mu)) + 1), bounded in [0, 1]: the
    logistic function by scipy.special.expit's formula, 0 without a warning
    where the exponential overflows to inf."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    beta = 1.0 / (K_B * temperature)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(beta * (np.asarray(epsilon, dtype=float) - mu)))


def _check_atom_number(n_atoms: float) -> None:
    if not (math.isfinite(n_atoms) and n_atoms >= 1):
        raise ValueError(f"atom number must be finite and at least 1, got {n_atoms}")


def fermi_energy(n_atoms: float, trap: HarmonicTrap) -> float:
    """E_F = hbar wbar (6 N)^(1/3) in J."""
    _check_atom_number(n_atoms)
    return HBAR * trap.omega_bar * (6.0 * n_atoms) ** (1.0 / 3.0)


def _check_domain(lowest, highest) -> None:
    """Raise ValueError unless every t, from lowest to highest, lies in the
    domain of the solve; a nan among them reads as not positive and finite."""
    if not (lowest > 0.0 and highest <= _T_MAX):
        if not (lowest > 0.0 and highest < math.inf):
            raise ValueError("reduced temperature must be positive and finite")
        raise ValueError(
            f"t = {highest} too deep in the classical regime: the fugacity "
            "falls below 1e-300 (need t < ~5e99)"
        )
    if 1.0 / lowest > 700.0:
        raise ValueError(
            f"t = {lowest} too deep in the degenerate regime: the fugacity "
            "overflows double precision (need t > ~0.0015)"
        )


def _target(t):
    """t^-3 and ln(t^-3/6): the root of h(y) = ln f_3(e^y) - ln(t^-3/6), which
    increases with y = ln Z, solves 6 f_3(Z) = t^-3."""
    return np.power(t, -3.0), -3.0 * np.log(t) - math.log(6.0)


def _classical_start(cube, ln_target):
    """ln Z from z = u + u^2/8 - 5 u^3/864, u = t^-3/6, which is below
    f_3(1) < 1 on the classical side."""
    u = cube / 6.0
    return ln_target + np.log1p(u / 8.0 - 5.0 * u * u / 864.0)


def _degenerate_start(cube):
    """Cardano's root a - pi^2 / (3 a) of y^3 + pi^2 y = t^-3, whose cube root
    adds two positive terms."""
    a = np.cbrt(0.5 * cube + np.sqrt(0.25 * cube * cube + math.pi**6 / 27.0))
    return a - math.pi**2 / (3.0 * a)


def _halley_step(y, ln_target):
    """h(y) and Halley's step on it from y = ln Z, from one pass of f_3 and f_2."""
    z = np.exp(y)
    f3, f2 = fermi_fns((3, 2), z)
    h = np.log(f3) - ln_target
    # as d f_n / d ln z = f_(n-1): h' = f_2/f_3, h'' = f_1/f_3 - h'^2
    slope = f2 / f3
    curvature = np.log1p(z) / f3 - slope * slope
    return h, -h / slope / (1.0 - 0.5 * h * curvature / (slope * slope))


def _converged(step, y):
    # convergence is cubic: a step this small leaves an error far below
    # round-off, so it is taken even onto a bracket end; a step that leaves
    # the bracket, as Halley's may from far off, is replaced by bisection
    return abs(step) <= _SOLVE_YTOL * np.maximum(1.0, abs(y))


def _failure(t, lo, hi, y) -> FugacityError:
    return FugacityError(
        f"fugacity root find failed for t={t} on ln Z bracket [{lo}, {hi}] at ln Z = {y}"
    )


def fugacity_from_reduced_temperature(t) -> float | np.ndarray:
    """Solve 6 f_3(Z) = t^-3 for the fugacity Z at reduced temperature t = T/T_F.

    Scalars or arrays, like fermi_fn; monotone decreasing in t.  A scalar or a
    0-d array gives a float, any other input an array of its shape.  Each point
    is iterated on its own, so an array gives the same bits as per-element calls.

    The iteration on y = ln Z starts from a closed form on each side of Z = 1.
    On the degenerate side it is the root of the Sommerfeld cubic
    y^3 + pi^2 y = t^-3, by Cardano's formula: 6 f_3(e^y) exceeds that cubic
    only by 6 f_3(e^-y).  On the classical side it is the inverse of the series
    f_3(z) = z - z^2/8 + z^3/27 to third order in t^-3/6.  It then takes
    Halley's steps on ln f_3(e^y) - ln(t^-3/6), whose derivatives need only
    f_3, f_2 and f_1(Z) = ln(1 + Z), inside a bracket that falls back to
    bisection.  From 0.0016 to 50 in t that takes 1 to 3 passes of f_3 and f_2.

    One point (a float, a 0-d array or any size-1 array) takes the same start
    and steps in Python floats and keeps its bracket with `if`, not masks, as
    do the last few points of an array, once at most _FLOAT_TAIL remain.  It
    gives the array path's bits: + - * / round alike on floats and in numpy's
    loops, and exp, log, log1p, cbrt, sqrt and the power are numpy ufuncs
    called on floats, as in fermi_fn.  On an AVX-512 Xeon with numpy 2.4 that
    is 10-26 us a solve instead of 70-170 us of dispatch on one-element arrays.
    """
    t = np.asarray(t, dtype=float)
    if t.size == 1:
        z = _solve_one(t.item())
        return float(z) if t.ndim == 0 else np.full(t.shape, z)
    ts = t.ravel()
    if ts.size:
        _check_domain(ts.min(), ts.max())
    # h's sign at Z = 1 picks the side; f_3(e^y) > y^3/6 keeps ln Z below 1/t,
    # capped for exp()
    cube, ln_target = _target(ts)
    classical = 6.0 * _F3_AT_UNIT_FUGACITY >= cube
    lo = np.where(classical, _LN_Z_MIN, 0.0)
    hi = np.where(classical, 0.0, np.minimum(3.0 / ts + 1.0, 708.0))
    y = np.empty_like(ts)
    y[classical] = _classical_start(cube[classical], ln_target[classical])
    y[~classical] = _degenerate_start(cube[~classical])
    y = np.clip(y, lo, hi)
    todo = np.arange(ts.size)
    passes = 0
    while todo.size > _FLOAT_TAIL and passes < _SOLVE_MAXITER:
        h, step = _halley_step(y[todo], ln_target[todo])
        if not np.all(np.isfinite(step)):
            # the float loop below takes the same step again and reports it
            todo = todo[~np.isfinite(step)]
            break
        lo[todo] = np.where(h < 0.0, y[todo], lo[todo])
        hi[todo] = np.where(h > 0.0, y[todo], hi[todo])
        done = _converged(step, y[todo])
        new = y[todo] + step
        bisect = ~done & ((new < lo[todo]) | (new > hi[todo]))
        new[bisect] = 0.5 * (lo[todo] + hi[todo])[bisect]
        y[todo] = new
        todo = todo[~done]
        passes += 1
    for k in todo.tolist():
        y[k] = _iterate(ts[k].item(), ln_target[k].item(), lo[k].item(), hi[k].item(),
                        y[k].item(), _SOLVE_MAXITER - passes)
    return np.exp(y).reshape(t.shape)


def _solve_one(t: float) -> float:
    """fugacity_from_reduced_temperature at one t, on Python floats."""
    _check_domain(t, t)
    # the array path's bracket and start, picked with `if`
    cube, ln_target = _target(t)
    if 6.0 * _F3_AT_UNIT_FUGACITY >= cube:
        lo, hi = _LN_Z_MIN, 0.0
        y = _classical_start(cube, ln_target)
    else:
        lo, hi = 0.0, min(3.0 / t + 1.0, 708.0)
        y = _degenerate_start(cube)
    return np.exp(_iterate(t, ln_target, lo, hi, min(max(y, lo), hi), _SOLVE_MAXITER))


def _iterate(t, ln_target, lo, hi, y, passes) -> float:
    """ln Z at one t after at most `passes` Halley steps from y inside the
    bracket [lo, hi], on Python floats: the steps of the masked array passes."""
    for _ in range(passes):
        h, step = _halley_step(y, ln_target)
        if not math.isfinite(step):
            break
        if h < 0.0:
            lo = y
        elif h > 0.0:
            hi = y
        if _converged(step, y):
            return y + step
        y += step
        if not lo <= y <= hi:
            y = 0.5 * (lo + hi)
    raise _failure(t, lo, hi, y)


def reduced_temperature_from_fugacity(z: float) -> float:
    """t = T/T_F at which the fugacity equals z: t = (6 f_3(z))^(-1/3)."""
    return (6.0 * fermi_fn(3.0, z)) ** (-1.0 / 3.0)


def chemical_potential_approx(t: float, regime: str) -> float:
    """Sommerfeld / Boltzmann closed forms for mu/E_F at reduced temperature t.

    regime="low":  1 - (pi^2/3) t^2      (good to 1% for t <= 0.2)
    regime="high": -t ln(6 t^3)          (good to 1% for t >= 2)

    Labeled approximations only; exact inversion goes through
    fugacity_from_reduced_temperature.
    """
    if not t > 0:
        raise ValueError("reduced temperature must be positive")
    if regime == "low":
        return 1.0 - (math.pi**2 / 3.0) * t * t
    if regime == "high":
        return -t * math.log(6.0 * t**3)
    raise ValueError("regime must be 'low' or 'high'")


@dataclass
class TrappedGasState:
    """A spin-polarized ideal Fermi gas of N atoms at temperature T in a trap."""

    state: SpinState
    trap: HarmonicTrap
    n_atoms: float
    temperature: float  # K

    def __post_init__(self):
        _check_atom_number(self.n_atoms)
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive and finite, got {self.temperature} K")

    @property
    def mass(self) -> float:
        return self.state.species.mass

    @cached_property
    def fermi_energy(self) -> float:
        return fermi_energy(self.n_atoms, self.trap)

    @property
    def fermi_temperature(self) -> float:
        return self.fermi_energy / K_B

    @property
    def t_reduced(self) -> float:
        return self.temperature / self.fermi_temperature

    @cached_property
    def fugacity(self) -> float:
        return fugacity_from_reduced_temperature(self.t_reduced)

    @property
    def chemical_potential(self) -> float:
        return K_B * self.temperature * math.log(self.fugacity)

    @property
    def thermal_wavelength(self) -> float:
        return thermal_wavelength(self.mass, self.temperature)

    @classmethod
    def from_reduced_temperature(cls, state, trap, n_atoms, t_over_tf):
        e_f = fermi_energy(n_atoms, trap)
        return cls(state, trap, n_atoms, t_over_tf * e_f / K_B)


def energy_per_particle(gas: TrappedGasState) -> float:
    """E/N = 3 k_B T f_4(Z) / f_3(Z) in J."""
    f4, f3 = fermi_fns((4, 3), gas.fugacity)
    return 3.0 * K_B * gas.temperature * f4 / f3


def degeneracy_parameter(z: float) -> float:
    """Central phase-space density n_0 Lambda_T^3 = f_3/2(Z) of the Fermi gas."""
    return fermi_fn(1.5, z)


def capacity_1d(trap: HarmonicTrap) -> float:
    """Number of fermions the 1D regime can hold: the trap aspect ratio.

    Requires the two transverse frequencies to agree within 1% (the trap must
    be axially symmetric for the 1D picture to apply).
    Integer capacity is the floor of the returned ratio.
    """
    om = sorted([trap.omega_x, trap.omega_y, trap.omega_z])
    omega_parallel, perp_lo, perp_hi = om
    if perp_hi - perp_lo > 0.01 * perp_hi:
        raise ValueError(
            f"trap is not axially symmetric: transverse frequencies {perp_lo:g}, "
            f"{perp_hi:g} differ by more than 1%"
        )
    omega_perp = math.sqrt(perp_lo * perp_hi)
    return omega_perp / omega_parallel


def discrete_sum_oracle(
    trap: HarmonicTrap,
    mu: float,
    temperature: float,
    cutoff: int,
) -> tuple[float, float]:
    """Brute-force (N, E) over discrete 3D oscillator levels.

    The levels sit at hbar(wx(nx+1/2) + ...), zero-point energy included, and
    mu and E are measured from the bottom of the potential: the continuum
    convention U(0) = 0.

    `cutoff` is the maximum oscillator shell index per axis; it must be large
    enough that the occupancy of the cutoff shell is below 1e-12.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    omegas = trap.omegas
    zero_point = 0.5 * HBAR * float(omegas.sum())

    e_top = HBAR * float(omegas.min()) * cutoff + zero_point
    occ_top = float(occupation(e_top, mu, temperature))
    if occ_top >= 1e-12:
        raise ValueError(
            f"cutoff too small: occupancy at the cutoff shell is {occ_top:.2e} >= 1e-12"
        )

    iso = np.allclose(omegas, omegas[0], rtol=1e-12)
    if iso:
        # Isotropic fast path: shell s has degeneracy (s+1)(s+2)/2.
        s = np.arange(cutoff + 1, dtype=float)
        degeneracy = 0.5 * (s + 1.0) * (s + 2.0)
        energies = HBAR * omegas[0] * s + zero_point
        occ = occupation(energies, mu, temperature)
        n_total = float(degeneracy @ occ)
        e_total = float(degeneracy @ (occ * energies))
        return n_total, e_total

    # General anisotropic case: vectorize over (ny, nz) planes per nx slice.
    e_min_axis = HBAR * omegas
    n_max = np.floor((e_top - zero_point) / e_min_axis).astype(int)
    n_max = np.minimum(n_max, cutoff)
    plane_states = (n_max[1] + 1) * (n_max[2] + 1)
    if plane_states > 4e7:
        raise ValueError("anisotropic enumeration too large; reduce cutoff or temperature")
    ny = np.arange(n_max[1] + 1.0)
    nz = np.arange(n_max[2] + 1.0)
    e_plane = HBAR * (omegas[1] * ny[:, None] + omegas[2] * nz[None, :]) + zero_point
    n_total = 0.0
    e_total = 0.0
    for nx in range(n_max[0] + 1):
        e = e_plane + HBAR * omegas[0] * nx
        occ = occupation(e, mu, temperature)
        n_total += float(occ.sum())
        e_total += float((occ * e).sum())
    return n_total, e_total


def write_thermo_scan_csv(path, gas_factory, t_values) -> None:
    """Emit a degeneracy scan as CSV, from one fugacity solve and one
    fermi_fns call for f_4, f_3 and f_3/2 of all rows.

    gas_factory(t) must return a TrappedGasState at reduced temperature t.
    Columns: T_over_TF, Z, mu_over_EF, E_per_N_over_EF, n0_lambda3.
    """
    t_values = np.asarray(t_values, dtype=float)
    gases = [gas_factory(t) for t in t_values]
    temp = np.array([gas.temperature for gas in gases])
    e_f = np.array([gas.fermi_energy for gas in gases])
    # temp / (e_f / K_B) has the bits of each gas.t_reduced
    z = fugacity_from_reduced_temperature(temp / (e_f / K_B))
    f4, f3, f32 = fermi_fns((4, 3, 1.5), z)
    e_per_n = 3.0 * K_B * temp * f4 / f3
    columns = [t_values, z, K_B * temp * np.log(z) / e_f, e_per_n / e_f, f32]
    write_csv(path, ["T_over_TF", "Z", "mu_over_EF", "E_per_N_over_EF", "n0_lambda3"], columns)
