"""Synthetic time-of-flight images and envelope fits.

A Fermi-Dirac column-density envelope nests the Boltzmann Gaussian (it reduces
to it as Z -> 0), so comparing the two fits' chi-squared statistics provides a
degeneracy signature: at low T/T_F the Gaussian fit leaves a systematic
center-dip residual while the Fermi-Dirac fit does not.

Both fits are N s(phi), an atom number times a unit-N shape with closed-form
derivatives in its nonlinear parameters phi. N is solved in closed form at
every step (variable projection), so a bounded Levenberg-Marquardt search
runs over phi alone with the exact Jacobian of the projected residual, built
only at the start and at accepted points. Shapes take the pixel grid as a row
of x times a column of y, so u and v cost one row and one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import K_B, NumericalError
from .density import column_density_fermi, read_raster, write_raster
from .polylog import fermi_fn, fermi_fns
from .thermo import (HarmonicTrap, TrappedGasState, fugacity_from_reduced_temperature,
                     reduced_temperature_from_fugacity)

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

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("image must be 2D")
        if not 0 < self.pitch < math.inf:
            raise ValueError(f"pixel pitch must be positive and finite, got {self.pitch} m")
        if not (self.noise_rms >= 0 and math.isfinite(self.noise_rms)):
            raise ValueError(f"noise rms must be non-negative and finite, got {self.noise_rms}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("image contains non-finite values")

    def axes(self):
        """Pixel-centre x as a (1, nx) row and y as an (ny, 1) column, in m."""
        ny, nx = self.values.shape
        x = (np.arange(nx) - 0.5 * (nx - 1)) * self.pitch
        y = (np.arange(ny) - 0.5 * (ny - 1)) * self.pitch
        return x[None, :], y[:, None]

    def coordinates(self):
        return np.meshgrid(*(a.ravel() for a in self.axes()))

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
    img = TofImage(np.zeros((ny, nx)), pitch, 0.0, t)
    img.values = column_density_fermi(gas, t, *img.axes())
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
    covariance: np.ndarray | None     # over (N, r_x, r_y, x0, y0[, ln Z]); None if singular
    flags: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)   # solver nfev, njev and status

    def __post_init__(self):
        if self.params.get("N", 1.0) <= 0:
            raise ValueError("fitted atom number must be positive")


def _gauss_shape(phi, x, y):
    """Unit-N Gaussian envelope s and its ds/dphi writer over phi = (r_x, r_y, x0, y0)."""
    rx, ry, x0, y0 = phi
    u, v = (x - x0) / rx, (y - y0) / ry
    s = np.exp(-0.5 * u * u - 0.5 * v * v) / (2.0 * np.pi * rx * ry)
    def derivatives(ds):
        for row, d in zip(ds, ((u * u - 1.0) / rx, (v * v - 1.0) / ry, u / rx, v / ry)):
            np.multiply(s, d, out=row)
    return s, derivatives


def _fd_shape(phi, x, y):
    """Unit-N Fermi-Dirac envelope f_2(w) / (2 pi r_x r_y f_3(Z)), w = Z e^(-u^2/2 - v^2/2),
    and its ds/dphi writer over phi = (r_x, r_y, x0, y0, ln Z), from d f_2(w)/d ln w =
    f_1(w) = ln(1 + w) and d ln f_3(Z)/d ln Z = f_2(Z)/f_3(Z)."""
    rx, ry, x0, y0, ln_z = phi
    z = math.exp(ln_z)
    u, v = (x - x0) / rx, (y - y0) / ry
    w = z * np.exp(-0.5 * u * u - 0.5 * v * v)
    f3 = fermi_fn(3.0, z)
    c = 1.0 / (2.0 * np.pi * rx * ry * f3)
    s = c * fermi_fn(2.0, w)
    def derivatives(ds):
        f1 = c * np.log1p(w)
        f1u, f1v = f1 * u, f1 * v
        np.divide(f1u * u - s, rx, out=ds[0])
        np.divide(f1v * v - s, ry, out=ds[1])
        np.divide(f1u, rx, out=ds[2])
        np.divide(f1v, ry, out=ds[3])
        np.subtract(f1, s * (fermi_fn(2.0, z) / f3), out=ds[4])
    return s, derivatives


def _projected(shape, phi, x, y, data, sigma, ds):
    """Residual (N* s - d)/sigma at the closed-form N* = <s,d>/<s,s> (Golub and
    Pereyra 1973) on the flattened pixels, a function that builds its exact Jacobian
    in phi, N* and s. shape(phi, x, y) gives s on the grid of row x and column y and
    a writer of ds/dphi there, which the Jacobian points at ds, a (k, pixels) block.
    Sums are einsum loops, not BLAS, so the bits do not depend on the thread count."""
    s, derivatives = shape(phi, x, y)
    grid, s = s.shape, s.ravel()
    ss = np.einsum("p,p", s, s)
    n = np.einsum("p,p", s, data) / ss

    def jacobian():
        derivatives(ds.reshape(len(ds), *grid))
        dn = (np.einsum("kp,p", ds, data) - 2.0 * n * np.einsum("kp,p", ds, s)) / ss
        jac = dn[:, None] * s
        jac += n * ds
        jac /= sigma
        return jac.T
    return (n * s - data) / sigma, jacobian, n, s


def _covariance(jac, chi2, dof):
    """(J^T J)^-1 chi2/dof, or None when J^T J with its columns scaled to unit
    diagonal is singular or has a condition number above 1/eps."""
    a = np.einsum("pi,pj", jac, jac)
    d = np.sqrt(np.diag(a))
    if not np.all(d > 0):
        return None
    a /= np.outer(d, d)
    if not np.linalg.cond(a) < 1.0 / np.finfo(float).eps:
        return None
    return np.linalg.inv(a) / np.outer(d, d) * (chi2 / dof)


def _start(img: TofImage):
    """Moment estimates of (r_x, r_y, x0, y0) and their bounds; ValueError if
    the image is uninformative, an input error rather than a fit failure."""
    peak = float(np.max(np.abs(img.values)))
    if peak <= 0:
        raise ValueError("empty image")
    if int(np.sum(np.abs(img.values) > 0.02 * peak)) < 100:
        raise ValueError("fewer than 100 informative pixels")
    x, y = img.axes()
    v = np.clip(img.values, 0.0, None)
    total = v.sum()
    if total <= 0:
        raise ValueError("image has no positive signal")
    x0 = float((v * x).sum() / total)
    y0 = float((v * y).sum() / total)
    rx = math.sqrt(max(float((v * (x - x0) ** 2).sum() / total), img.pitch**2))
    ry = math.sqrt(max(float((v * (y - y0) ** 2).sum() / total), img.pitch**2))
    span = img.pitch * max(img.values.shape)
    lo = [img.pitch * 0.05, img.pitch * 0.05, x0 - span, y0 - span]
    return [rx, ry, x0, y0], lo, [span * 10, span * 10, x0 + span, y0 + span]


_MAX_NFEV = 200   # residual evaluations a fit may take
_TOL = 1e-14     # relative gradient, step and reduction at which a fit stops
# peak / noise rms at which the squared residuals, Jacobian and chi2 of a fit
# can neither overflow nor vanish in double precision
_SNR_RANGE = (1e-50, 1e50)


def _levenberg_marquardt(evaluate, phi, lo, hi):
    """Minimise |r|^2 over lo <= phi <= hi; evaluate(phi) = (r, jacobian, ...), J = jacobian().

    Marquardt's scaling by the running maximum of diag(J^T J) (More, LNM 630,
    1978), Nielsen's damping update (Madsen, Nielsen and Tingleff, IMM DTU 2004)
    and trial points clipped to the box. A trial point costs its residual only:
    J is built at the start and at each accepted point, so the last J built is
    the returned point's. Returns phi, evaluate(phi), |r|^2, the evaluation and
    Jacobian counts and the stop: 1 gradient, 2 reduction, 3 step.
    """
    out, nfev, njev, accepted = evaluate(phi), 1, 1, True
    bounds = lo.tolist(), hi.tolist()
    jac = out[1]()
    chi2, lam, nu, d2 = np.einsum("p,p", out[0], out[0]), 1e-3, 2.0, 0.0
    while True:
        if accepted:
            a, g = np.einsum("pi,pj", jac, jac), np.einsum("pi,p", jac, out[0])
            d2 = np.maximum(d2, a.diagonal())
            # the gradient, zero where a bound blocks descent, against |J_i| |r|;
            # on the few parameters as Python floats, which round as numpy's loops do
            if all(abs(gi * (not (p <= l and gi > 0 or p >= h and gi < 0)))
                   <= _TOL * math.sqrt(di * chi2)
                   for p, l, h, gi, di in zip(phi.tolist(), *bounds, g.tolist(), d2.tolist())):
                return phi, out, chi2, nfev, njev, 1
        if nfev == _MAX_NFEV:
            raise FitError(f"fit did not converge in {nfev} evaluations (chi2 {chi2:.6g})")
        step = np.clip(phi - np.linalg.solve(a + lam * np.diag(d2), g), lo, hi) - phi
        pred = -np.einsum("i,i", step, 2.0 * g + np.einsum("ij,j", a, step))
        trial, nfev = evaluate(phi + step), nfev + 1
        chi2_trial = np.einsum("p,p", trial[0], trial[0])
        drop = chi2 - chi2_trial
        accepted = pred > 0 and drop > 0
        if accepted:
            lam, nu = lam * max(1.0 / 3.0, 1.0 - (2.0 * drop / pred - 1.0) ** 3), 2.0
            phi, out, chi2 = phi + step, trial, chi2_trial
            jac, njev = out[1](), njev + 1
            if max(drop, pred) <= _TOL * (chi2 + drop):
                return phi, out, chi2, nfev, njev, 2
        else:
            lam, nu = lam * nu, 2.0 * nu
        if np.einsum("i,i,i", d2, step, step) <= _TOL**2 * np.einsum("i,i,i", d2, phi, phi):
            return phi, out, chi2, nfev, njev, 3


def _run_fit(img, model, shape, phi0, bounds) -> FitResult:
    """Fit N shape(phi) with N projected out; covariance over (N, phi)."""
    x, y = img.axes()
    data = img.values.ravel()
    sigma = img.noise_rms if img.noise_rms > 0 else 1.0
    peak = float(np.max(np.abs(data)))
    if not _SNR_RANGE[0] <= peak / sigma <= _SNR_RANGE[1]:
        raise ValueError(f"noise rms (--noise-rms) {sigma:g} is out of scale with the image "
                         f"peak {peak:g}: their ratio must lie within {_SNR_RANGE}")
    ds = np.empty((len(phi0), data.size))   # ds/dphi of the last Jacobian built
    phi, (_, _, n, s), chi2, nfev, njev, status = _levenberg_marquardt(
        lambda p: _projected(shape, p, x, y, data, sigma, ds), np.array(phi0),
        *map(np.array, bounds))
    if not n > 0:
        raise FitError(f"fitted atom number {n:.3g} is not positive")
    chi2, dof = float(chi2), data.size - len(phi0) - 1
    cov = _covariance(np.column_stack([s, n * ds.T]) / sigma, chi2, dof)
    params = {"N": n, **dict(zip(("r_x", "r_y", "x0", "y0", "ln_z"), phi))}
    return FitResult(model, params, chi2, chi2 / dof, cov,
                     [] if cov is not None else ["covariance_singular"],
                     {"nfev": nfev, "njev": njev, "status": status})


def fit_gaussian(img: TofImage) -> FitResult:
    """Least-squares Boltzmann envelope fit over (N, r_x, r_y, x0, y0)."""
    phi0, lo, hi = _start(img)
    return _run_fit(img, "gaussian", _gauss_shape, phi0, (lo, hi))


def fit_fermi_dirac(img: TofImage) -> FitResult:
    """Least-squares Fermi-Dirac envelope fit over (N, r_x, r_y, x0, y0, ln Z).

    One start, ln Z = 1 at the moment estimates. ln Z is bounded to [-30, 30]:
    a classical image can run it to -30, where the model is the Gaussian to
    ~1e-13, and is flagged `z_pinned_at_bound`; `z_poorly_constrained` marks a
    standard error of ln Z above ln 10, or no covariance. Z is converted to
    T/T_F through the number equation.
    """
    phi0, lo, hi = _start(img)
    fit = _run_fit(img, "fermi-dirac", _fd_shape, phi0 + [1.0], (lo + [-30.0], hi + [30.0]))
    ln_z = fit.params.pop("ln_z")
    z = math.exp(ln_z)
    fit.params.update(Z=z, T_over_TF=reduced_temperature_from_fugacity(z))
    if abs(abs(ln_z) - 30.0) < 1e-6:
        fit.flags.append("z_pinned_at_bound")
    if fit.covariance is None or math.sqrt(max(fit.covariance[5, 5], 0.0)) > math.log(10.0):
        fit.flags.append("z_poorly_constrained")
    return fit


def apparent_temperature(
    gauss: FitResult,
    trap: HarmonicTrap,
    mass: float,
    t: float,
) -> float:
    """Temperature the Gaussian fit `gauss` of an image after expansion time t
    reports along x: r_x^2 = (w_x^-2 + t^2) k_B T/M.

    At low T/T_F this plateaus above the true temperature (the cloud size is
    floored by the filled Fermi sea); in the Boltzmann regime it matches T.
    """
    r = gauss.params["r_x"]
    return r * r * mass / ((trap.omega_x**-2.0 + t * t) * K_B)


def apparent_temperature_curve(t_over_tf) -> float | np.ndarray:
    """Universal ideal-gas ratio T_apparent/T from second-moment matching.

    Equals f_4(Z)/f_3(Z) at the fugacity of the given reduced temperature (a
    scalar or an array): 1 in the Boltzmann limit, rising to T_F/(4T) as T -> 0.
    """
    f4, f3 = fermi_fns((4, 3), fugacity_from_reduced_temperature(t_over_tf))
    return f4 / f3
