"""Synthetic time-of-flight images and envelope fits.

A Fermi-Dirac column-density envelope nests the Boltzmann Gaussian (it reduces
to it as Z -> 0), so comparing the two fits' chi-squared statistics provides a
degeneracy signature: at low T/T_F the Gaussian fit leaves a systematic
center-dip residual while the Fermi-Dirac fit does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import K_B, NumericalError
from .density import column_density_fermi, read_raster, write_raster
from .polylog import fermi_fn
from .thermo import HarmonicTrap, TrappedGasState, reduced_temperature_from_fugacity

__all__ = [
    "TofImage",
    "FitResult",
    "FitError",
    "synthesize_tof_image",
    "add_noise",
    "fit_gaussian",
    "fit_fermi_dirac",
    "apparent_temperature",
    "apparent_temperature_curve",
]


class FitError(NumericalError):
    """Nonlinear fit failed to converge; diagnostics in the message."""


@dataclass
class TofImage:
    """Pixelated column density: values in atoms/m^2 on a square-pitch grid."""

    values: np.ndarray
    pitch: float                      # m
    noise_rms: float = 0.0            # same units as values
    expansion_time: float = 0.0       # s
    gas: TrappedGasState | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("image must be 2D")
        if not self.pitch > 0:
            raise ValueError("pixel pitch must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("image contains non-finite values")

    def coordinates(self):
        ny, nx = self.values.shape
        x = (np.arange(nx) - 0.5 * (nx - 1)) * self.pitch
        y = (np.arange(ny) - 0.5 * (ny - 1)) * self.pitch
        return np.meshgrid(x, y)

    def save(self, path):
        write_raster(path, self.values, self.pitch)

    @classmethod
    def load(cls, path, noise_rms=0.0, expansion_time=0.0):
        values, pitch = read_raster(path)
        return cls(values, pitch, noise_rms, expansion_time)


def synthesize_tof_image(
    gas: TrappedGasState,
    t: float,
    shape: tuple[int, int],
    pitch: float,
    noise_rms: float = 0.0,
    seed: int = 0,
) -> TofImage:
    """Forward-model image: Fermi column density plus white Gaussian noise
    (see add_noise).

    Deterministic for a fixed seed.
    """
    ny, nx = shape
    img = TofImage(np.zeros((ny, nx)), pitch, 0.0, t, gas)
    xx, yy = img.coordinates()
    img.values = column_density_fermi(gas, t, xx, yy)
    return add_noise(img, noise_rms, seed)


def add_noise(img: TofImage, noise_rms: float, seed: int = 0) -> TofImage:
    """Copy of img plus white Gaussian noise of rms noise_rms (none unless
    noise_rms > 0) from a generator seeded with `seed`: the noise that
    synthesize_tof_image adds."""
    values = img.values
    if noise_rms > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_rms, size=values.shape)
    return replace(img, values=values, noise_rms=noise_rms)


@dataclass
class FitResult:
    model: str                        # "gaussian" | "fermi-dirac"
    params: dict                      # N, r_x, r_y, x0, y0 (+ Z, T_over_TF for FD)
    chi2: float                       # sum of squared noise-scaled residuals
    reduced_chi2: float
    covariance: np.ndarray | None
    flags: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.params.get("N", 1.0) <= 0:
            raise ValueError("fitted atom number must be positive")


def _gauss_model(theta, xx, yy):
    n, rx, ry, x0, y0 = theta
    return n / (2.0 * np.pi * rx * ry) * np.exp(
        -0.5 * ((xx - x0) / rx) ** 2 - 0.5 * ((yy - y0) / ry) ** 2
    )


def _fd_model(theta, xx, yy):
    n, rx, ry, x0, y0, ln_z = theta
    z = math.exp(ln_z)
    w = z * np.exp(-0.5 * ((xx - x0) / rx) ** 2 - 0.5 * ((yy - y0) / ry) ** 2)
    return n / (2.0 * np.pi * rx * ry * fermi_fn(3.0, z)) * fermi_fn(2.0, w)


def _initial_moments(img: TofImage):
    xx, yy = img.coordinates()
    v = np.clip(img.values, 0.0, None)
    total = v.sum()
    if total <= 0:
        raise FitError("image has no positive signal")
    n0 = total * img.pitch**2
    x0 = float((v * xx).sum() / total)
    y0 = float((v * yy).sum() / total)
    rx = math.sqrt(max(float((v * (xx - x0) ** 2).sum() / total), img.pitch**2))
    ry = math.sqrt(max(float((v * (yy - y0) ** 2).sum() / total), img.pitch**2))
    return n0, rx, ry, x0, y0


def _check_informative(img: TofImage):
    peak = float(np.max(np.abs(img.values)))
    if peak <= 0:
        raise FitError("empty image")
    if int(np.sum(np.abs(img.values) > 0.02 * peak)) < 100:
        raise FitError("fewer than 100 informative pixels")


def _run_fit(img, model_fn, theta0, bounds, n_params):
    from scipy.optimize import least_squares

    xx, yy = img.coordinates()
    data = img.values
    sigma = img.noise_rms if img.noise_rms > 0 else 1.0

    def residuals(theta):
        return ((model_fn(theta, xx, yy) - data) / sigma).ravel()

    res = least_squares(
        residuals, theta0, bounds=bounds, method="trf",
        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000,
    )
    if not res.success and res.status <= 0:
        raise FitError(f"fit did not converge: {res.message} (status {res.status})")
    chi2 = float(2.0 * res.cost)
    dof = data.size - n_params
    jac = res.jac
    try:
        cov = np.linalg.inv(jac.T @ jac) * chi2 / dof
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jac.T @ jac) * chi2 / dof
    return res, chi2, chi2 / dof, cov


def fit_gaussian(img: TofImage) -> FitResult:
    """Least-squares Boltzmann envelope fit over (N, r_x, r_y, x0, y0)."""
    _check_informative(img)
    n0, rx, ry, x0, y0 = _initial_moments(img)
    span = img.pitch * max(img.values.shape)
    lo = [n0 * 1e-6, img.pitch * 0.05, img.pitch * 0.05, x0 - span, y0 - span]
    hi = [n0 * 1e6, span * 10, span * 10, x0 + span, y0 + span]
    res, chi2, red, cov = _run_fit(img, _gauss_model, [n0, rx, ry, x0, y0], (lo, hi), 5)
    n, rx, ry, x0, y0 = res.x
    return FitResult(
        "gaussian",
        {"N": n, "r_x": rx, "r_y": ry, "x0": x0, "y0": y0},
        chi2,
        red,
        cov,
    )


def fit_fermi_dirac(img: TofImage) -> FitResult:
    """Least-squares Fermi-Dirac envelope fit over (N, r_x, r_y, x0, y0, ln Z).

    ln Z parameterization keeps the problem conditioned; three perturbed
    starts avoid the shallow valley in Z.  The fitted Z is converted to
    T/T_F through the number equation.
    """
    _check_informative(img)
    n0, rx, ry, x0, y0 = _initial_moments(img)
    span = img.pitch * max(img.values.shape)
    lo = [n0 * 1e-6, img.pitch * 0.05, img.pitch * 0.05, x0 - span, y0 - span, -30.0]
    hi = [n0 * 1e6, span * 10, span * 10, x0 + span, y0 + span, 30.0]
    best = None
    for ln_z0 in (-1.0, 1.0, 4.0):
        try:
            out = _run_fit(
                img, _fd_model, [n0, rx, ry, x0, y0, ln_z0], (lo, hi), 6
            )
        except FitError:
            continue
        if best is None or out[1] < best[1]:
            best = out
        # with a known noise scale, a reduced chi^2 at the noise floor cannot
        # be improved by further starts
        if img.noise_rms > 0 and best[2] < 1.2:
            break
    if best is None:
        raise FitError("all Fermi-Dirac starts failed to converge")
    res, chi2, red, cov = best
    n, rx, ry, x0, y0, ln_z = res.x
    z = math.exp(ln_z)
    flags = []
    if abs(ln_z - 30.0) < 1e-6 or abs(ln_z + 30.0) < 1e-6:
        flags.append("z_pinned_at_bound")
    if cov is not None and math.sqrt(max(cov[5, 5], 0.0)) > math.log(10.0):
        flags.append("z_poorly_constrained")
    return FitResult(
        "fermi-dirac",
        {
            "N": n,
            "r_x": rx,
            "r_y": ry,
            "x0": x0,
            "y0": y0,
            "Z": z,
            "T_over_TF": reduced_temperature_from_fugacity(z),
        },
        chi2,
        red,
        cov,
        flags,
    )


def apparent_temperature(
    img: TofImage,
    trap: HarmonicTrap,
    mass: float,
    t: float,
    axis: str = "x",
) -> float:
    """Temperature a Gaussian fit would report: r_fit^2 = (w^-2 + t^2) k_B T/M.

    At low T/T_F this plateaus above the true temperature (the cloud size is
    floored by the filled Fermi sea); in the Boltzmann regime it matches T.
    """
    fit = fit_gaussian(img)
    omega = trap.omega_x if axis == "x" else trap.omega_y
    r = fit.params["r_x"] if axis == "x" else fit.params["r_y"]
    return r * r * mass / ((omega**-2.0 + t * t) * K_B)


def apparent_temperature_curve(t_over_tf) -> float | np.ndarray:
    """Universal ideal-gas ratio T_apparent/T from second-moment matching.

    Equals f_4(Z)/f_3(Z) at the fugacity of the given reduced temperature (a
    scalar or an array): 1 in the Boltzmann limit, rising to T_F/(4T) as T -> 0.
    """
    from .thermo import fugacity_from_reduced_temperature

    z = fugacity_from_reduced_temperature(t_over_tf)
    return fermi_fn(4.0, z) / fermi_fn(3.0, z)
