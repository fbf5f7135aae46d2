"""Computations made apart from fermichip, and the checks that compare the
program's outputs against them.

Nothing in this module imports fermichip.  Fermi functions come from mpmath,
wire fields from the closed-form finite-segment Biot-Savart expression of
Hanson & Hirshman (Phys. Plasmas 9, 4410 (2002)), which is a different
formula from the one the program evaluates, and the physical constants are
the CODATA 2018 values written out below.  Every check returns a list of
failure messages; an empty list means the output passed.

mpmath is imported on first use, so importing this module adds nothing to a
workload's set-up time that fermichip would not pay itself.
"""

from __future__ import annotations

import functools
import math

import numpy as np

H_PLANCK = 6.62607015e-34
HBAR = H_PLANCK / (2.0 * math.pi)
K_B = 1.380649e-23
MU_B = 9.2740100783e-24
MU_0 = 1.25663706212e-6
AMU = 1.66053906660e-27

MASS = {"K40": 39.96399848 * AMU, "Rb87": 86.909180527 * AMU}
G_F = {"K40": 2.0 / 9.0, "Rb87": 0.5}
STRETCHED_MF = {"K40": 4.5, "Rb87": 2.0}
# m_F g_F mu_B of the stretched states |9/2, 9/2> and |2, 2>: both equal mu_B
MOMENT = {name: STRETCHED_MF[name] * G_F[name] * MU_B for name in MASS}

_DPS = 30


# -- Fermi functions and the trapped-gas number equation ------------------------

@functools.lru_cache(maxsize=None)
def fermi(n: float, z: float) -> float:
    """f_n(z) = -Li_n(-z) by mpmath at 30 digits."""
    import mpmath

    with mpmath.workdps(_DPS):
        return float(mpmath.re(-mpmath.polylog(n, -mpmath.mpf(z))))


@functools.lru_cache(maxsize=None)
def fermi_ln(n: float, ln_z: float) -> float:
    """f_n(e^x), for fugacities too large for a float."""
    import mpmath

    with mpmath.workdps(_DPS):
        return float(mpmath.re(-mpmath.polylog(n, -mpmath.exp(ln_z))))


@functools.lru_cache(maxsize=None)
def ln_fugacity(t: float) -> float:
    """ln Z solving 6 f_3(Z) t^3 = 1, bracketed between the classical limit
    (f_3(z) < z) and the degenerate one (f_3(e^x) > x^3/6)."""
    import mpmath

    with mpmath.workdps(_DPS):
        target = mpmath.mpf(1) / (6 * mpmath.mpf(t) ** 3)

        def g(x):
            return mpmath.re(-mpmath.polylog(3, -mpmath.exp(x))) - target

        lo = mpmath.log(target)
        hi = max(1 / mpmath.mpf(t), lo + 1) + 1
        return float(mpmath.findroot(g, (lo, hi), solver="anderson"))


def omega_bar(freqs_hz) -> float:
    fx, fy, fz = freqs_hz
    return 2.0 * math.pi * (fx * fy * fz) ** (1.0 / 3.0)


def fermi_energy(n_atoms: float, freqs_hz) -> float:
    return HBAR * omega_bar(freqs_hz) * (6.0 * n_atoms) ** (1.0 / 3.0)


def thermal_wavelength(mass: float, temperature: float) -> float:
    return math.sqrt(2.0 * math.pi * HBAR**2 / (mass * K_B * temperature))


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0) if b != 0 else abs(a)


# -- thermo -------------------------------------------------------------------

ROW_TOL = 1e-8          # the program meets these identities to ~1e-11
SOMMERFELD_TOL = 0.01   # mu/E_F against 1 - pi^2 t^2 / 3 for t <= 0.2


def check_scan(rows, sample) -> list[str]:
    """Rows of (t, Z, mu/E_F, (E/N)/E_F, n0 lambda^3) ascending in t; the rows
    whose indices are in `sample` are checked against mpmath."""
    errors = []
    for i in sample:
        t, z, mu, e, n0 = rows[i]
        f3, f4, f32 = fermi(3, z), fermi(4, z), fermi(1.5, z)
        if abs(6.0 * f3 * t**3 - 1.0) > ROW_TOL:
            errors.append(f"row t={t:g}: 6 f3(Z) t^3 = {6.0 * f3 * t**3!r}, expected 1")
        if _rel(e, 3.0 * t * f4 / f3) > ROW_TOL:
            errors.append(f"row t={t:g}: E/N = {e!r}, 3 t f4/f3 = {3.0 * t * f4 / f3!r}")
        if _rel(n0, f32) > ROW_TOL:
            errors.append(f"row t={t:g}: n0 lambda^3 = {n0!r}, f_3/2(Z) = {f32!r}")
        if abs(mu - t * math.log(z)) > ROW_TOL * max(1.0, abs(mu)):
            errors.append(f"row t={t:g}: mu/E_F = {mu!r}, t ln Z = {t * math.log(z)!r}")
    for (t0, z0, *_), (t1, z1, *_) in zip(rows, rows[1:]):
        if not (t1 > t0 and z1 < z0):
            errors.append(f"Z does not fall as t rises: t {t0:g}->{t1:g}, Z {z0!r}->{z1!r}")
    for t, _, mu, _, _ in rows:
        if t <= 0.2:
            approx = 1.0 - math.pi**2 * t**2 / 3.0
            if _rel(mu, approx) > SOMMERFELD_TOL:
                errors.append(f"row t={t:g}: mu/E_F = {mu!r}, Sommerfeld {approx!r}")
    return errors


def check_profile(species, freqs_hz, n_atoms, t, axis, positions, values, sample) -> list[str]:
    """In-trap density along one axis: n(r) Lambda^3 = f_3/2(Z exp(-U(r)/kT))."""
    mass = MASS[species]
    e_f = fermi_energy(n_atoms, freqs_hz)
    temperature = t * e_f / K_B
    lam = thermal_wavelength(mass, temperature)
    ln_z = ln_fugacity(t)
    omega = 2.0 * math.pi * freqs_hz[axis]
    errors = []
    for i in sample:
        x = positions[i]
        beta_u = 0.5 * mass * (omega * x) ** 2 / (K_B * temperature)
        expect = fermi_ln(1.5, ln_z - beta_u) / lam**3
        if _rel(values[i], expect) > 1e-7:
            errors.append(f"density at {x:.3e} m: {values[i]!r}, expected {expect!r}")
    return errors


# -- trapfield ----------------------------------------------------------------

def segment_field(a, b, current, r) -> np.ndarray:
    """B of a straight segment a -> b, Hanson & Hirshman's compact form
    B = mu0 I / 4pi * 2 L (Ri + Rf) / (Ri Rf ((Ri + Rf)^2 - L^2)) * (e x Ri)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    r = np.asarray(r, dtype=float)
    length = float(np.linalg.norm(b - a))
    e = (b - a) / length
    ri = r - a
    rf = r - b
    ri_n = np.linalg.norm(ri, axis=-1)
    rf_n = np.linalg.norm(rf, axis=-1)
    s = ri_n + rf_n
    coef = MU_0 * current / (4.0 * math.pi) * 2.0 * length * s / (ri_n * rf_n * (s * s - length**2))
    return coef[..., None] * np.cross(np.broadcast_to(e, ri.shape), ri)


def wire_field(design, r) -> np.ndarray:
    """Total field of a design: {"segments": [(a, b, I), ...], "bias": (bx, by, bz)}."""
    r = np.asarray(r, dtype=float)
    out = np.broadcast_to(np.asarray(design["bias"], dtype=float), r.shape).copy()
    for a, b, current in design["segments"]:
        out += segment_field(a, b, current, r)
    return out


def field_norm(design, r) -> np.ndarray:
    return np.linalg.norm(wire_field(design, r), axis=-1)


_NEIGHBOURS = np.array(
    [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1) if (i, j, k) != (0, 0, 0)],
    dtype=float,
)
_NEIGHBOURS /= np.linalg.norm(_NEIGHBOURS, axis=1)[:, None]

FIELD_TOL = 1e-9      # relative, program field against the closed form
MIN_STEP = 0.5e-6     # m, probe distance of the local-minimum test


def check_field(design, points, program_b) -> list[str]:
    expect = wire_field(design, points)
    dev = np.linalg.norm(np.asarray(program_b) - expect, axis=-1) / np.linalg.norm(expect, axis=-1)
    if dev.max() > FIELD_TOL:
        return [f"FieldModel.field differs from Biot-Savart by {dev.max():.3e} relative"]
    return []


def check_minimum(design, position, b0) -> list[str]:
    """b0 is |B| at the position and no neighbour 0.5 um away is lower."""
    errors = []
    centre = float(field_norm(design, position))
    if _rel(b0, centre) > FIELD_TOL:
        errors.append(f"B0 = {b0!r} T, closed-form |B| there = {centre!r} T")
    ring = field_norm(design, np.asarray(position) + MIN_STEP * _NEIGHBOURS)
    if ring.min() < centre:
        errors.append(f"not a local minimum of |B|: a neighbour is lower by {centre - ring.min():.3e} T")
    return errors


def ray_length(design, r0) -> float:
    """The escape-ray length trap_depth uses by default: ten times the
    farthest wire end from r0, at least 5 mm."""
    far = max(np.linalg.norm(np.asarray(p) - r0) for a, b, _ in design["segments"] for p in (a, b))
    return max(5e-3, 10.0 * far)


DEPTH_TOL = 0.01


def check_depth(design, species, r0, direction, depth) -> list[str]:
    """The barrier along the reported escape ray, sampled 40x finer than the
    program samples it, equals the reported depth."""
    r0 = np.asarray(r0, dtype=float)
    d = np.asarray(direction, dtype=float)
    s = np.geomspace(1e-8, ray_length(design, r0), 20000)
    pts = r0 + s[:, None] * d
    normal, offset = design["chip_plane"]
    pts = pts[pts @ np.asarray(normal, dtype=float) <= offset]
    u = MOMENT[species] * field_norm(design, pts)
    barrier = float(u.max() - MOMENT[species] * field_norm(design, r0))
    if _rel(depth, barrier) > DEPTH_TOL:
        return [f"depth {depth!r} J, barrier along the escape ray {barrier!r} J"]
    return []


IP_TOL = 0.01


def check_ip(design, centre, axes, b0, b_prime, b_double_prime) -> list[str]:
    """(B0, B', B'') against |B| of the closed-form field along the fitted axes:
    |B|(s) = sqrt(B0^2 + B'^2 s^2) transverse, with B' the mean over the two
    transverse axes as in the fit, and B0 + B'' s^2 / 2 along the soft axis."""
    centre = np.asarray(centre, dtype=float)
    axes = np.asarray(axes, dtype=float)
    bc = float(field_norm(design, centre))
    s = 0.2 * bc / b_prime
    errors = []
    if _rel(b0, bc) > IP_TOL:
        errors.append(f"IP B0 {b0!r} T, |B| at the centre {bc!r} T")
    bp = np.mean([
        math.sqrt(max(float(np.mean(field_norm(design, centre + np.outer([-s, s], axes[:, k])) ** 2))
                      - bc**2, 0.0)) / s
        for k in (0, 1)
    ])
    if _rel(b_prime, bp) > IP_TOL:
        errors.append(f"IP B' {b_prime!r} T/m, mean over the transverse axes {bp!r}")
    bs = field_norm(design, centre + np.outer([-s, s], axes[:, 2]))
    bpp = 2.0 * (float(np.mean(bs)) - bc) / s**2
    if _rel(b_double_prime, bpp) > IP_TOL:
        errors.append(f"IP B'' {b_double_prime!r} T/m^2, soft axis gives {bpp!r}")
    return errors


FREQ_TOL = 0.01


def ip_frequencies(species, b0, b_prime, b_double_prime) -> tuple[float, float]:
    """Closed-form (axial, radial) angular frequencies of the Ioffe-Pritchard trap."""
    mu, m = MOMENT[species], MASS[species]
    return (
        math.sqrt(mu * b_double_prime / m),
        math.sqrt(mu * (b_prime**2 / b0 - b_double_prime / 2.0) / m),
    )


def check_ip_frequencies(species, b0, b_prime, b_double_prime, omega) -> list[str]:
    axial, radial = ip_frequencies(species, b0, b_prime, b_double_prime)
    om = np.sort(np.asarray(omega, dtype=float))
    errors = []
    for got, want in ((om[0], axial), (om[1], radial), (om[2], radial)):
        if _rel(got, want) > FREQ_TOL:
            errors.append(f"Hessian frequency {got!r} rad/s, closed form {want!r}")
    return errors


# -- rfdress ------------------------------------------------------------------

def dressed_reference(design, species, rf, centre, axis, positions, ramp_omega):
    """Detuning, coupling, branch and U_eff along the scan, from the closed-form
    field: delta = hbar w - |g_F| mu_B |B|, Omega = |g_F| mu_B B_rf sin(theta) / 2,
    branch +F if the detuning at ramp-on is negative, else -F."""
    pts = np.asarray(centre) + np.outer(positions, axis)
    b = wire_field(design, pts)
    bn = np.linalg.norm(b, axis=-1)
    g = G_F[species]
    delta = HBAR * rf["omega"] - g * MU_B * bn
    pol = np.asarray(rf["polarization"], dtype=float)
    pol = pol / np.linalg.norm(pol)
    sin_theta = np.linalg.norm(np.cross(pol, b / bn[:, None]), axis=-1)
    rabi = g * MU_B * rf["amplitude"] * sin_theta / 2.0
    i0 = int(np.argmin(np.abs(positions)))
    delta_ramp = delta[i0] + HBAR * (ramp_omega - rf["omega"])
    branch = STRETCHED_MF[species] * (1.0 if delta_ramp < 0 else -1.0)
    return delta, rabi, branch, branch * np.hypot(delta, rabi)


def transverse_axis(design, centre) -> np.ndarray:
    """The softer transverse principal axis of |B|^2 at the trap centre (the
    middle eigenvector of its closed-form Hessian, by central differences
    with 10 nm steps), along which the program scans dressed potentials.
    Its sign is arbitrary."""
    centre = np.asarray(centre, dtype=float)
    h = 1e-8
    steps = np.eye(3) * h

    def phi(r):
        b = wire_field(design, r)
        return float(b @ b)

    hess = np.array([[(phi(centre + steps[i] + steps[j]) - phi(centre + steps[i] - steps[j])
                       - phi(centre - steps[i] + steps[j]) + phi(centre - steps[i] - steps[j]))
                      / (4.0 * h * h) for j in range(3)] for i in range(3)])
    return np.linalg.eigh(hess)[1][:, 1]


def _interior_minima(u):
    i = np.arange(1, len(u) - 1)
    return i[(u[i] < u[i - 1]) & (u[i] <= u[i + 1])]


def check_dressed(design, species, rf, ramp_omega, scan, wells, tol=FIELD_TOL) -> list[str]:
    """scan: dict of positions, delta, rabi, m_f_prime, centre, axis;
    wells: dict of topology, well_positions, barrier_height.  Detuning and
    coupling must match the closed form to tol relative to their largest."""
    s = np.asarray(scan["positions"])
    delta, rabi, branch, u = dressed_reference(
        design, species, rf, scan["centre"], scan["axis"], s, ramp_omega
    )
    errors = []
    scale = float(np.max(np.abs(delta)))
    if np.max(np.abs(np.asarray(scan["delta"]) - delta)) > tol * scale:
        errors.append(f"{species}: detuning differs from the closed-form field")
    if np.max(np.abs(np.asarray(scan["rabi"]) - rabi)) > tol * max(float(np.max(rabi)), 1e-300):
        errors.append(f"{species}: Rabi coupling differs from the closed-form field")
    if float(scan["m_f_prime"]) != branch:
        errors.append(f"{species}: branch m_F' = {scan['m_f_prime']}, expected {branch}")
        return errors
    minima = _interior_minima(u)
    topology = {1: "single", 2: "double"}.get(len(minima), "ambiguous")
    if wells["topology"] != topology:
        errors.append(f"{species}: topology {wells['topology']}, closed form gives {topology}")
        return errors
    h = s[1] - s[0]
    for got, i in zip(sorted(wells["well_positions"]), minima):
        if abs(got - s[i]) > 2.0 * h:
            errors.append(f"{species}: well at {got:.4e} m, closed form at {s[i]:.4e} m")
    if topology == "double":
        barrier = float(u[minima[0]:minima[1] + 1].max() - u[minima].min())
        if _rel(wells["barrier_height"], barrier) > 0.01:
            errors.append(f"{species}: barrier {wells['barrier_height']!r} J, closed form {barrier!r} J")
    return errors


# -- imagefit -----------------------------------------------------------------

def column_density(species, freqs_hz, n_atoms, t, tof, x, y) -> float:
    """Fermi column density after free expansion tof, at pixel centre (x, y)."""
    mass = MASS[species]
    temperature = t * fermi_energy(n_atoms, freqs_hz) / K_B
    rx, ry = (
        math.sqrt(((2.0 * math.pi * f) ** -2 + tof**2) * K_B * temperature / mass)
        for f in freqs_hz[:2]
    )
    ln_z = ln_fugacity(t)
    arg = ln_z - 0.5 * (x / rx) ** 2 - 0.5 * (y / ry) ** 2
    return n_atoms / (2.0 * math.pi * rx * ry * fermi_ln(3, ln_z)) * fermi_ln(2, arg)


def fit_errors(species, freqs_hz, n_atoms, t, tof, pitch, shape, noise_rms) -> tuple[float, float]:
    """Standard errors of N and T/T_F that a least-squares Fermi-Dirac fit of
    a (ny, nx) image with white noise can reach, from the Fisher matrix of the
    column-density model in (N, r_x, r_y, x0, y0, ln Z) at the truth.
    f_2 is -spence(1 + w) and f_1 is log1p(w), both from numpy/scipy."""
    from scipy.special import spence

    mass = MASS[species]
    temperature = t * fermi_energy(n_atoms, freqs_hz) / K_B
    rx, ry = (
        math.sqrt(((2.0 * math.pi * f) ** -2 + tof**2) * K_B * temperature / mass)
        for f in freqs_hz[:2]
    )
    ln_z = ln_fugacity(t)
    f2z, f3z = fermi_ln(2, ln_z), fermi_ln(3, ln_z)
    ny, nx = shape
    x = (np.arange(nx) - 0.5 * (nx - 1)) * pitch
    y = (np.arange(ny) - 0.5 * (ny - 1)) * pitch
    xx, yy = np.meshgrid(x, y)
    w = np.exp(ln_z - 0.5 * (xx / rx) ** 2 - 0.5 * (yy / ry) ** 2)
    amp = n_atoms / (2.0 * math.pi * rx * ry * f3z)
    model = amp * -spence(1.0 + w)
    slope = amp * np.log1p(w)               # d model / d ln w
    jac = np.stack([
        model / n_atoms,
        -model / rx + slope * xx**2 / rx**3,
        -model / ry + slope * yy**2 / ry**3,
        slope * xx / rx**2,
        slope * yy / ry**2,
        slope - model * f2z / f3z,
    ], axis=-1).reshape(-1, 6)
    cov = np.linalg.inv(jac.T @ jac) * noise_rms**2
    sigma_t = t / 3.0 * f2z / f3z * math.sqrt(cov[5, 5])   # from 6 f_3(Z) t^3 = 1
    return math.sqrt(cov[0, 0]), sigma_t


@functools.lru_cache(maxsize=None)
def image_truth(species, freqs_hz, n_atoms, t, tof, pitch, shape, noise_frac) -> dict:
    """True N and T/T_F of a synthesized image whose noise RMS is noise_frac
    of its brightest noise-free pixel, with the standard errors of a fit."""
    half = 0.5 * pitch       # the four centre pixels are the brightest when nx, ny are even
    noise = noise_frac * column_density(species, freqs_hz, n_atoms, t, tof, half, half)
    sigma_n, sigma_t = fit_errors(species, freqs_hz, n_atoms, t, tof, pitch, shape, noise)
    return {"N": n_atoms, "t": t, "noise_rms": noise, "sigma_N": sigma_n, "sigma_t": sigma_t}


FIT_K = 5.0             # standard errors allowed between fitted and true N, T/T_F
DEGENERATE_T = 0.3      # T/T_F is checked at and below this
# The Fermi-Dirac envelope holds the Gaussian only in the limit Z -> 0, so on
# classical images its fit stops at a large negative ln Z a hair above the
# Gaussian chi2 (up to 5e-10 relative seen).  A chi2 this much above the
# Gaussian one is a failed fit; a meaningful chi2 difference is of order 1.
CHI2_TIE = 1e-6


def check_fits(truth, gauss, fd, n_pixels) -> list[str]:
    """truth: dict with N, t and the standard errors sigma_N, sigma_t of
    fit_errors; gauss, fd: dicts with N (fd also T_over_TF), chi2 and
    reduced_chi2 from noise-scaled residuals."""
    errors = []
    if abs(fd["N"] - truth["N"]) > FIT_K * truth["sigma_N"]:
        errors.append(f"Fermi-Dirac N {fd['N']!r}, true {truth['N']!r} +/- {truth['sigma_N']:.3g}")
    band = FIT_K * math.sqrt(2.0 / (n_pixels - 6))
    if abs(fd["reduced_chi2"] - 1.0) > band:
        errors.append(f"Fermi-Dirac reduced chi2 {fd['reduced_chi2']!r} outside 1 +/- {band:.3g}")
    if truth["t"] <= DEGENERATE_T and abs(fd["T_over_TF"] - truth["t"]) > FIT_K * truth["sigma_t"]:
        errors.append(f"Fermi-Dirac T/T_F {fd['T_over_TF']!r}, true {truth['t']!r} "
                      f"+/- {truth['sigma_t']:.3g}")
    if fd["chi2"] > gauss["chi2"] * (1.0 + CHI2_TIE):
        errors.append(f"chi2 Gauss {gauss['chi2']!r} below chi2 Fermi-Dirac {fd['chi2']!r}")
    return errors


def check_image(species, freqs_hz, n_atoms, t, tof, pitch, clean, sample) -> list[str]:
    """Noise-free synthesized pixels against the closed-form column density."""
    ny, nx = clean.shape
    errors = []
    for iy, ix in sample:
        x = (ix - 0.5 * (nx - 1)) * pitch
        y = (iy - 0.5 * (ny - 1)) * pitch
        expect = column_density(species, freqs_hz, n_atoms, t, tof, x, y)
        if _rel(clean[iy, ix], expect) > 1e-7:
            errors.append(f"pixel ({iy}, {ix}) = {clean[iy, ix]!r}, expected {expect!r}")
    return errors


# -- evaporation ----------------------------------------------------------------

def check_evap(report, eta=4.0, gamma_min=150.0, a_s=5.3e-9) -> list[str]:
    """Loading report of an Rb87 preset against the closed forms
    T = U/(eta k_B), N = rho0 Lambda^-3 V_eff, Gamma = sigma rho0 M (kT)^2/(pi^2 hbar^3)
    with sigma = 8 pi a^2, and (k T_min)^2 = Gamma_min pi^2 hbar^3 / (M sigma rho0)."""
    m = MASS["Rb87"]
    rho = report["rho0"]
    sigma = 8.0 * math.pi * a_s**2
    t_load = report["depth_mk"] * 1e-3 / eta
    lam = thermal_wavelength(m, t_load)
    expect = {
        "load_temperature_uk": t_load * 1e6,
        "n_max": rho * lam**-3 * report["v_eff_um3"] * 1e-18,
        "gamma_coll_hz": sigma * rho * m * (K_B * t_load) ** 2 / (math.pi**2 * HBAR**3),
        "t_min_uk": math.sqrt(gamma_min * math.pi**2 * HBAR**3 / (m * sigma * rho)) / K_B * 1e6,
    }
    return [
        f"{report['preset']}: {key} = {report[key]!r}, expected {want!r}"
        for key, want in expect.items()
        if _rel(report[key], want) > 1e-9
    ]
