"""In-trap and time-of-flight density distributions of the trapped ideal gas,
and the raster file format of column-density images.

The harmonic potential convention is U(0) = 0.  Finite-temperature in-trap
density: n(r) = Lambda_T^-3 f_3/2(Z exp(-beta U(r))); at T = 0 the
Thomas-Fermi profile.  Free expansion for a time t stretches each axis by
lambda_i = sqrt(1 + w_i^2 t^2); the column density imaged along z is

    ncol(x, y, t) = N / (2 pi r_x r_y f_3(Z)) * f_2(Z exp(-x^2/2r_x^2 - y^2/2r_y^2)),

with r_i^2(t) = (w_i^-2 + t^2) k_B T / M.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .constants import K_B
from .polylog import fermi_fn
from .thermo import TrappedGasState

__all__ = [
    "ThomasFermiExtent",
    "density_finite_T",
    "density_zero_T",
    "cloud_radii",
    "column_density_fermi",
    "write_raster",
    "read_raster",
]

RASTER_MAGIC = b"FCHIP1"


@dataclass(frozen=True)
class ThomasFermiExtent:
    """Zero-temperature cloud radii sqrt(2 E_F / M w_i^2) per axis."""

    x: float
    y: float
    z: float

    @property
    def mean(self) -> float:
        return (self.x * self.y * self.z) ** (1.0 / 3.0)

    @classmethod
    def from_state(cls, gas: TrappedGasState) -> "ThomasFermiExtent":
        e_f, m = gas.fermi_energy, gas.mass
        om = gas.trap.omegas
        r = np.sqrt(2.0 * e_f / (m * om**2))
        return cls(*r)


def _harmonic_potential(gas: TrappedGasState, r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    om = gas.trap.omegas
    return 0.5 * gas.mass * np.sum((om * r) ** 2, axis=-1)


def density_finite_T(gas: TrappedGasState, r) -> float | np.ndarray:
    """In-trap density n(r) = Lambda^-3 f_3/2(Z e^(-beta U(r))), r shaped (..., 3)."""
    r = np.asarray(r, dtype=float)
    beta = 1.0 / (K_B * gas.temperature)
    # where U(r) overflows to inf this is the zero-density limit, like
    # thermo.occupation, without a warning
    with np.errstate(over="ignore"):
        w = gas.fugacity * np.exp(-beta * _harmonic_potential(gas, r))
    return gas.thermal_wavelength**-3 * fermi_fn(1.5, w)


def density_zero_T(gas: TrappedGasState, r) -> float | np.ndarray:
    """Zero-temperature profile (8N / pi^2 Rbar^3) (1 - sum x_i^2/X_i^2)^(3/2)."""
    r = np.asarray(r, dtype=float)
    tf = ThomasFermiExtent.from_state(gas)
    radii = np.array([tf.x, tf.y, tf.z])
    with np.errstate(over="ignore"):  # an overflowed radius is outside the cloud
        arg = 1.0 - np.sum((r / radii) ** 2, axis=-1)
    arg = np.maximum(arg, 0.0)
    out = 8.0 * gas.n_atoms / (np.pi**2 * tf.mean**3) * arg**1.5
    return float(out) if out.ndim == 0 else out


def cloud_radii(gas: TrappedGasState, t: float) -> np.ndarray:
    """r_i(t) = sqrt((w_i^-2 + t^2) k_B T / M) for i = x, y, z."""
    if t < 0:
        raise ValueError("expansion time must be nonnegative")
    om = gas.trap.omegas
    return np.sqrt((om**-2.0 + t * t) * K_B * gas.temperature / gas.mass)


def column_density_fermi(gas: TrappedGasState, t: float, x, y) -> float | np.ndarray:
    """Column density along z after expansion time t, in m^-2."""
    rx, ry, _ = cloud_radii(gas, t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = gas.fugacity
    with np.errstate(over="ignore"):  # the zero-density limit where x/rx or y/ry overflows
        w = z * np.exp(-0.5 * (x / rx) ** 2 - 0.5 * (y / ry) ** 2)
    return gas.n_atoms / (2.0 * np.pi * rx * ry * fermi_fn(3.0, z)) * fermi_fn(2.0, w)


def write_raster(path, values: np.ndarray, pitch: float) -> None:
    """Row-major float64 raster with a 32-byte header: magic, dims, pixel pitch (m)."""
    values = np.ascontiguousarray(values, dtype=">f8")
    if values.ndim != 2:
        raise ValueError("raster must be a 2D array")
    ny, nx = values.shape
    header = struct.pack(">6sxxIId", RASTER_MAGIC, ny, nx, float(pitch))
    header += b"\x00" * (32 - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes())


def read_raster(path) -> tuple[np.ndarray, float]:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if header[:6] != RASTER_MAGIC:
            raise ValueError(f"not a raster file (bad magic {header[:6]!r})")
        if len(header) != 32:
            raise ValueError(f"truncated raster header: expected 32 bytes, found {len(header)}")
        ny, nx, pitch = struct.unpack(">IId", header[8:24])
        block = fh.read(ny * nx * 8)
        if len(block) != ny * nx * 8:
            raise ValueError(
                f"truncated raster data: {ny}x{nx} float64 needs {ny * nx * 8} bytes, "
                f"found {len(block)}"
            )
        data = np.frombuffer(block, dtype=">f8").reshape(ny, nx)
    return data.astype(float), pitch
