import math

import numpy as np
import pytest
from scipy.integrate import quad

from fermichip import constants as C
from fermichip import density, thermo
from fermichip.polylog import fermi_fn

import closed_forms


@pytest.fixture(scope="module")
def warm_gas(k92, science_trap):
    # Z ~ 0.17, comfortably quantum but not deeply degenerate
    return thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, 1.0)


# -- in-trap density ---------------------------------------------------------------

def test_center_density_is_degeneracy_parameter(cold_gas):
    n0 = density.density_finite_T(cold_gas, np.zeros(3))
    expected = cold_gas.thermal_wavelength**-3 * fermi_fn(1.5, cold_gas.fugacity)
    assert n0 == pytest.approx(expected, rel=1e-12)


def test_low_fugacity_gaussian_shape(k92, science_trap):
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, 8.0)
    z = gas.fugacity
    assert z < 1e-3
    r = np.array([3e-6, 0.0, 0.0])
    beta = 1.0 / (C.K_B * gas.temperature)
    u = 0.5 * gas.mass * (science_trap.omega_x * 3e-6) ** 2
    gaussian = gas.thermal_wavelength**-3 * z * math.exp(-beta * u)
    assert density.density_finite_T(gas, r) == pytest.approx(gaussian, rel=1e-3)


def test_density_grid_normalization(warm_gas):
    radii = density.cloud_radii(warm_gas, 0.0)
    axes = [np.linspace(-4.5 * r, 4.5 * r, 72) for r in radii]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    values = density.density_finite_T(warm_gas, grid)
    voxel = np.prod([a[1] - a[0] for a in axes])
    assert float(values.sum() * voxel) == pytest.approx(warm_gas.n_atoms, rel=1e-3)
    assert np.all(values >= 0.0)


def test_density_adaptive_normalization(warm_gas):
    # tighter check: z-column closed form integrated numerically over (x, y)
    rx, ry, _ = density.cloud_radii(warm_gas, 0.0)

    def column(x):
        return quad(
            lambda y: density.column_density_fermi(warm_gas, 0.0, x, y),
            -8 * ry, 8 * ry, epsabs=1e-3, epsrel=1e-9,
        )[0]

    total = quad(column, -8 * rx, 8 * rx, epsabs=1.0, epsrel=1e-8)[0]
    assert total == pytest.approx(warm_gas.n_atoms, rel=1e-6)


def test_momentum_integral_equivalence(warm_gas):
    # semi-classical momentum quadrature against the closed polylog form
    rng = np.random.default_rng(3)
    radii = density.cloud_radii(warm_gas, 0.0)
    beta = 1.0 / (C.K_B * warm_gas.temperature)
    m = warm_gas.mass
    z = warm_gas.fugacity
    for _ in range(5):
        r = rng.uniform(-1.5, 1.5, 3) * radii
        u = 0.5 * m * np.sum((warm_gas.trap.omegas * r) ** 2)

        def integrand(p):
            return p * p / (math.exp(beta * (p * p / (2 * m) + u)) / z + 1.0)

        p_scale = math.sqrt(2 * m / beta)
        direct = (
            4.0 * math.pi / (2.0 * math.pi * C.HBAR) ** 3
            * quad(integrand, 0.0, 12.0 * p_scale, epsabs=0.0, epsrel=1e-10)[0]
        )
        assert density.density_finite_T(warm_gas, r) == pytest.approx(direct, rel=1e-6)


# -- zero temperature ----------------------------------------------------------------

def test_zero_t_center_value(cold_gas):
    tf = density.ThomasFermiExtent.from_state(cold_gas)
    expected = 8.0 * cold_gas.n_atoms / (math.pi**2 * tf.mean**3)
    assert density.density_zero_T(cold_gas, np.zeros(3)) == pytest.approx(expected, rel=1e-12)


def test_zero_t_boundary_continuous(cold_gas):
    tf = density.ThomasFermiExtent.from_state(cold_gas)
    just_in = density.density_zero_T(cold_gas, np.array([0.999 * tf.x, 0.0, 0.0]))
    outside = density.density_zero_T(cold_gas, np.array([1.001 * tf.x, 0.0, 0.0]))
    center = density.density_zero_T(cold_gas, np.zeros(3))
    assert outside == 0.0
    assert just_in < 1e-3 * center


def test_zero_t_profile_integrates_to_n(cold_gas):
    # 1D radial oracle in rescaled coordinates: N = n0 Rbar^3 * 4pi Int r^2 (1-r^2)^(3/2) dr
    tf = density.ThomasFermiExtent.from_state(cold_gas)
    n0 = density.density_zero_T(cold_gas, np.zeros(3))
    radial = quad(lambda r: r * r * (1.0 - r * r) ** 1.5, 0.0, 1.0, epsrel=1e-12)[0]
    total = n0 * tf.x * tf.y * tf.z * 4.0 * math.pi * radial
    assert total == pytest.approx(cold_gas.n_atoms, rel=1e-9)


def test_zero_t_radii_formula(cold_gas):
    tf = density.ThomasFermiExtent.from_state(cold_gas)
    expect_x = math.sqrt(2.0 * cold_gas.fermi_energy / (cold_gas.mass * cold_gas.trap.omega_x**2))
    assert tf.x == pytest.approx(expect_x, rel=1e-12)
    assert tf.mean == pytest.approx((tf.x * tf.y * tf.z) ** (1.0 / 3.0), rel=1e-12)


def test_finite_t_approaches_zero_t_profile(k92, science_trap):
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, 0.01)
    tf = density.ThomasFermiExtent.from_state(gas)
    s = np.linspace(-0.9, 0.9, 41)
    pts = np.zeros((41, 3))
    pts[:, 0] = s * tf.x
    finite = density.density_finite_T(gas, pts)
    zero = density.density_zero_T(gas, pts)
    rms = math.sqrt(float(np.mean((finite / zero - 1.0) ** 2)))
    assert rms < 0.02


def test_uniform_density_lda_consistency(cold_gas):
    # local-density equivalence at the trap center: E_F local = E_F global
    n_center = density.density_zero_T(cold_gas, np.zeros(3))
    n_uniform = closed_forms.uniform_density_zero_T(cold_gas.fermi_energy, cold_gas.state.species)
    assert n_uniform == pytest.approx(n_center, rel=1e-6)


def test_uniform_density_scaling(registry):
    k40 = registry["K40"]
    e_f = C.K_B * 1e-6
    assert closed_forms.uniform_density_zero_T(2 * e_f, k40) == pytest.approx(
        2.0**1.5 * closed_forms.uniform_density_zero_T(e_f, k40), rel=1e-12
    )


def test_uniform_density_reference_value(registry):
    # K40 at E_F = k_B x 1.1 uK; frozen from direct evaluation of the closed form
    n = closed_forms.uniform_density_zero_T(C.K_B * 1.1e-6, registry["K40"])
    assert n == pytest.approx(4.1206e19, rel=1e-3)  # m^-3, i.e. 4.12e13 cm^-3


# -- time of flight ---------------------------------------------------------------------

def test_tof_rescale_identity(cold_gas):
    # at t = 0 the cloud has its in-trap radii sqrt(k_B T / M) / w_i
    thermal = np.sqrt(C.K_B * cold_gas.temperature / cold_gas.mass)
    r0 = density.cloud_radii(cold_gas, 0.0)
    assert np.allclose(r0, thermal / cold_gas.trap.omegas, rtol=1e-12, atol=0.0)


def test_tof_rescale_long_time_limit(cold_gas):
    t = 5.0  # w t >> 1 for every axis
    stretch = density.cloud_radii(cold_gas, t) / density.cloud_radii(cold_gas, 0.0)
    omegas = cold_gas.trap.omegas
    assert np.allclose(stretch, np.sqrt(1.0 + (omegas * t) ** 2), rtol=1e-12, atol=0.0)
    assert np.allclose(stretch, omegas * t, rtol=1e-4, atol=0.0)


def test_tof_aspect_ratio_monotone_to_unity(cold_gas):
    times = np.linspace(0.0, 60e-3, 25)
    ratios = []
    for t in times:
        r = density.cloud_radii(cold_gas, t)
        ratios.append(r[0] / r[1])  # transverse (823 Hz) over axial (46 Hz)
    ratios = np.array(ratios)
    assert ratios[0] == pytest.approx(46.0 / 823.0, rel=1e-6)
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] < 1.0
    long = density.cloud_radii(cold_gas, 3.0)
    assert long[0] / long[1] == pytest.approx(1.0, abs=1e-4)


def test_tof_density_conserves_number(warm_gas):
    t = 4e-3
    rx, ry, _ = density.cloud_radii(warm_gas, t)
    x = np.linspace(-4.5 * rx, 4.5 * rx, 64)
    y = np.linspace(-4.5 * ry, 4.5 * ry, 64)
    xx, yy = np.meshgrid(x, y)
    vals = density.column_density_fermi(warm_gas, t, xx, yy)
    pixel = (x[1] - x[0]) * (y[1] - y[0])
    assert float(vals.sum() * pixel) == pytest.approx(warm_gas.n_atoms, rel=2e-3)


# -- column densities ----------------------------------------------------------------------

def test_column_fermi_reduces_to_boltzmann_at_low_z(k92, science_trap):
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, 8.0)
    x = np.linspace(-1e-4, 1e-4, 11)
    fermi = density.column_density_fermi(gas, 5e-3, x, 0.0)
    boltz = closed_forms.column_density_boltzmann(
        gas.n_atoms, gas.temperature, science_trap, k92.species, 5e-3, x, 0.0
    )
    assert np.allclose(fermi, boltz, rtol=2e-4)


def test_column_fermi_peak_at_unit_fugacity(k92, science_trap):
    t_unit = thermo.reduced_temperature_from_fugacity(1.0)
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, t_unit)
    rx, ry, _ = density.cloud_radii(gas, 10e-3)
    peak = density.column_density_fermi(gas, 10e-3, 0.0, 0.0)
    expected = gas.n_atoms * (math.pi**2 / 12.0) / (
        2.0 * math.pi * rx * ry * fermi_fn(3.0, 1.0)
    )
    assert peak == pytest.approx(expected, rel=1e-9)


def test_column_boltzmann_peak_and_width(rb22, science_trap):
    n, temp = 1e5, 2e-6
    peak = closed_forms.column_density_boltzmann(
        n, temp, science_trap, rb22.species, 0.0, 0.0, 0.0
    )
    r0 = np.sqrt(C.K_B * temp / rb22.species.mass) / science_trap.omegas
    assert peak == pytest.approx(n / (2.0 * math.pi * r0[0] * r0[1]), rel=1e-12)


def test_fermi_boltzmann_agreement_at_tf(k92, science_trap):
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, 1.0)
    rx, ry, _ = density.cloud_radii(gas, 8e-3)
    x = np.linspace(-3 * rx, 3 * rx, 61)
    fermi = density.column_density_fermi(gas, 8e-3, x, 0.0)
    boltz = closed_forms.column_density_boltzmann(
        gas.n_atoms, gas.temperature, science_trap, k92.species, 8e-3, x, 0.0
    )
    rms = math.sqrt(float(np.mean((fermi - boltz) ** 2))) / float(fermi.max())
    assert rms < 0.06


def test_fermi_flatter_than_matched_gaussian(k92, science_trap):
    # peak-to-wing contrast below the Gaussian of equal N and second moment
    for t_red in (thermo.reduced_temperature_from_fugacity(1.0), 0.2, 0.1):
        gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, t_red)
        z = gas.fugacity
        contrast_fermi = fermi_fn(2.0, z) / fermi_fn(2.0, z * math.exp(-0.5))
        sigma_sq_ratio = fermi_fn(4.0, z) / fermi_fn(3.0, z)  # <x^2> = r_x^2 f4/f3
        contrast_gauss = math.exp(0.5 / sigma_sq_ratio)
        assert contrast_fermi < contrast_gauss


# -- profile and raster IO --------------------------------------------------------------------

def test_profile_csv(tmp_path, cold_gas):
    # a profile written as `density` writes it reads back bit for bit
    s = np.linspace(-1e-5, 1e-5, 7)
    pts = np.zeros((7, 3))
    pts[:, 0] = s
    vals = density.density_finite_T(cold_gas, pts)
    path = tmp_path / "profile.csv"
    C.write_csv(path, ["x_m", "density_m3"], [s, vals])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x_m,density_m3"
    assert len(lines) == 8
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, np.column_stack([s, vals]))


def test_raster_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.normal(size=(17, 23))
    path = tmp_path / "img.raster"
    density.write_raster(path, img, 4.2e-6)
    back, pitch = density.read_raster(path)
    assert pitch == pytest.approx(4.2e-6)
    assert np.array_equal(back, img)
    assert path.read_bytes()[:6] == b"FCHIP1"
    assert len(path.read_bytes()) == 32 + 17 * 23 * 8


def test_raster_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.raster"
    path.write_bytes(b"NOTFCH" + b"\x00" * 100)
    with pytest.raises(ValueError):
        density.read_raster(path)
