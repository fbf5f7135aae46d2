import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fermichip import constants as C
from fermichip import evaporation as ev
from fermichip import thermo

import closed_forms


@pytest.fixture(scope="module")
def rb(registry):
    return registry["Rb87"]


@pytest.fixture(scope="module")
def k40(registry):
    return registry["K40"]


# -- effective volumes ------------------------------------------------------------------

def test_linear_trap_angular_integral_oracle():
    # the 8 pi prefactor of the quadrupole volume is Int e^{-|u|} d^3u
    radial = quad(lambda r: r * r * math.exp(-r), 0.0, 60.0, epsrel=1e-12)[0]
    assert 4.0 * math.pi * radial == pytest.approx(8.0 * math.pi, rel=1e-10)


def test_mean_gradient_convention_reproduces_loop_volume(rb):
    # strong (axial) gradient 5.4e5 G/cm, 2:1 quadrupole anisotropy:
    # direct integral over the anisotropic linear potential vs the
    # geometric-mean-gradient formula
    t = 21e-3 / 4.0
    kt = C.K_B * t
    f_axial = C.MU_B * 5.4e5 * C.GAUSS_PER_CM
    f_radial = f_axial / 2.0
    direct = 8.0 * math.pi * kt**3 / (f_radial * f_radial * f_axial)
    f_bar = f_axial / 2.0 ** (2.0 / 3.0)
    model = ev.EffectiveVolumeModel.quadrupole3d(f_bar)
    assert ev.effective_volume(model, t) == pytest.approx(direct, rel=1e-12)
    assert direct * 1e18 == pytest.approx(310.0, rel=0.2)


def test_reichel_volume_and_number(rb):
    model = ev.EffectiveVolumeModel.sho(rb.mass, 2 * math.pi * 300.0)
    t = 1.3e-3 / 4.0
    assert ev.effective_volume(model, t) * 1e18 == pytest.approx(1.3e7, rel=0.10)
    budget = ev.LoadingBudget(1e-6, C.K_B * 1.3e-3, 4.0, rb)
    assert ev.max_loadable_atoms(budget, model) == pytest.approx(1.2e7, rel=0.15)


def test_ioffe_c_volume_and_number(rb):
    model = ev.EffectiveVolumeModel.sho(rb.mass, 2 * math.pi * 94e3)
    assert ev.effective_volume(model, 1.3e-3 / 4.0) * 1e18 == pytest.approx(0.4, rel=0.25)
    budget = ev.LoadingBudget(1e-6, C.K_B * 1.3e-3, 4.0, rb)
    assert ev.max_loadable_atoms(budget, model) < 1.0


def test_loop_number(rb):
    f_bar = C.MU_B * 5.4e5 * C.GAUSS_PER_CM / 2.0 ** (2.0 / 3.0)
    model = ev.EffectiveVolumeModel.quadrupole3d(f_bar)
    budget = ev.LoadingBudget(1e-6, C.K_B * 21e-3, 4.0, rb)
    assert ev.max_loadable_atoms(budget, model) == pytest.approx(2e4, rel=0.20)


def test_science_trap_volume_and_numbers(rb, k40):
    omega_bar = math.sqrt(C.MU_B * 3e4 * C.GAUSS_PER_CM2 / rb.mass)
    assert omega_bar / (2 * math.pi) == pytest.approx(221.0, rel=1e-3)
    model = ev.EffectiveVolumeModel.sho(rb.mass, omega_bar)
    v = ev.effective_volume(model, 300e-6)
    assert v * 1e18 == pytest.approx(3e7, rel=0.15)
    lam_rb = thermo.thermal_wavelength(rb.mass, 300e-6)
    n_rb = 1e-6 * v / lam_rb**3
    assert n_rb == pytest.approx(2.26e7, rel=0.01)  # quoted as "3e7" to one digit
    omega_bar_k = math.sqrt(C.MU_B * 3e4 * C.GAUSS_PER_CM2 / k40.mass)
    model_k = ev.EffectiveVolumeModel.sho(k40.mass, omega_bar_k)
    budget_k = ev.LoadingBudget(4e-8, 4.0 * C.K_B * 300e-6, 4.0, k40)
    assert ev.max_loadable_atoms(budget_k, model_k) == pytest.approx(3e5, rel=0.10)


def test_box_volume_is_temperature_free():
    model = ev.EffectiveVolumeModel.box(1e-4)
    assert ev.effective_volume(model, 1e-6) == ev.effective_volume(model, 1e-3)
    assert ev.effective_volume(model, 1e-6) == pytest.approx(1e-12, rel=1e-12)


def shape(kind, rb):
    """The trap shape from its constructor `kind`, with fixed parameters."""
    g, side = C.MU_B * 500.0, 1e-4
    args = {"sho": (rb.mass, 2e3), "quadrupole3d": (g,), "box": (side,), "quad2d_box": (g, side)}
    return getattr(ev.EffectiveVolumeModel, kind)(*args[kind])


@pytest.mark.parametrize(
    "kind,delta",
    [("sho", 1.5), ("quadrupole3d", 3.0), ("box", 0.0), ("quad2d_box", 2.0)],
)
def test_power_law_exponents(kind, delta, rb):
    model = shape(kind, rb)
    assert model.exponent == delta
    temps = np.geomspace(1e-5, 1e-3, 7)
    v = [ev.effective_volume(model, t) for t in temps]
    if delta == 0.0:
        assert np.ptp(v) == 0.0
    else:
        slope = np.polyfit(np.log(temps), np.log(v), 1)[0]
        assert slope == pytest.approx(delta, abs=1e-6)


@pytest.mark.parametrize(
    "kind", ["sho", "quadrupole3d", "box", "quad2d_box"]
)
def test_number_depth_exponent(kind, rb):
    model = shape(kind, rb)
    depths = np.geomspace(C.K_B * 1e-4, C.K_B * 1e-2, 7)
    n = [
        ev.max_loadable_atoms(ev.LoadingBudget(1e-6, u, 4.0, rb), model) for u in depths
    ]
    slope = np.polyfit(np.log(depths), np.log(n), 1)[0]
    assert slope == pytest.approx(model.exponent + 1.5, abs=1e-3)


def test_microtrap_penalty_monotone(rb):
    # stiffer traps hold fewer atoms at equal depth and phase-space density
    budget = ev.LoadingBudget(1e-6, C.K_B * 1.3e-3, 4.0, rb)
    numbers = []
    for omega in (2 * math.pi * 100, 2 * math.pi * 1e3, 2 * math.pi * 1e4):
        model = ev.EffectiveVolumeModel.sho(rb.mass, omega)
        numbers.append(ev.max_loadable_atoms(budget, model))
    assert numbers[0] > numbers[1] > numbers[2]
    assert numbers[0] / numbers[1] == pytest.approx(1e3, rel=1e-9)  # N ~ wbar^-3


# -- current scaling ----------------------------------------------------------------------

def test_current_scaling_reference_family(rb):
    fam = ev.CurrentScalingFamily(rb)
    assert ev.current_scaling_exponent(fam) == pytest.approx(2.5, abs=1e-6)


def _family_with_exponents(monkeypatch, exponents):
    monkeypatch.setattr(ev, "_FAMILY_SCALING", tuple(
        (ref, exponent) for (ref, _), exponent in zip(ev._FAMILY_SCALING, exponents)
    ))


def test_current_scaling_fixed_axial(rb, monkeypatch):
    # N_max ~ U^3 / (omega_perp^2 omega_z): a fixed axial frequency leaves U^3
    _family_with_exponents(monkeypatch, (1.0, 0.0, 0.0))
    assert ev.current_scaling_exponent(ev.CurrentScalingFamily(rb)) == pytest.approx(3.0, abs=1e-6)


def test_current_scaling_everything_fixed(rb, monkeypatch):
    _family_with_exponents(monkeypatch, (0.0, 0.0, 0.0))
    assert ev.current_scaling_exponent(ev.CurrentScalingFamily(rb)) == pytest.approx(0.0, abs=1e-9)


# -- collision rate -------------------------------------------------------------------------

def test_collision_rate_reference(rb):
    sigma = ev.sigma_identical_low_temperature(5.3e-9)
    rate = ev.collision_rate(rb, 1e-6, 300e-6, sigma)
    assert rate == pytest.approx(150.0, rel=0.02)


def test_collision_rate_scalings(rb):
    sigma = ev.sigma_identical_low_temperature(5.3e-9)
    base = ev.collision_rate(rb, 1e-6, 300e-6, sigma)
    assert ev.collision_rate(rb, 1e-6, 600e-6, sigma) == pytest.approx(4 * base, rel=1e-12)
    assert ev.collision_rate(rb, 2e-6, 300e-6, sigma) == pytest.approx(2 * base, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    rho0=st.floats(1e-9, 1e-1),
    temp=st.floats(1e-7, 1e-2),
    a_nm=st.floats(0.5, 20.0),
)
def test_collision_rate_identity(rho0, temp, a_nm):
    # closed form equals n0 sigma v_rel exactly
    rb = C.builtin_species()["Rb87"]
    sigma = ev.sigma_identical_low_temperature(a_nm * 1e-9)
    closed = ev.collision_rate(rb, rho0, temp, sigma)
    n0 = rho0 * thermo.thermal_wavelength(rb.mass, temp) ** -3
    direct = n0 * sigma * closed_forms.relative_velocity(rb, temp)
    assert closed == pytest.approx(direct, rel=1e-12)


# -- minimum start temperature -----------------------------------------------------------------

def test_min_start_temperature_reference(rb):
    t0 = ev.min_start_temperature(rb, 1e-6, 150.0)
    assert t0 * 1e6 == pytest.approx(300.0, rel=0.02)


def test_min_start_temperature_scalings(rb):
    base = ev.min_start_temperature(rb, 1e-6, 150.0)
    assert ev.min_start_temperature(rb, 1e-4, 150.0) == pytest.approx(base / 10.0, rel=1e-12)
    half_a_s = dataclasses.replace(rb, s_wave_scattering_length=rb.s_wave_scattering_length / 2)
    assert ev.min_start_temperature(half_a_s, 1e-6, 150.0) == pytest.approx(2.0 * base, rel=1e-12)


def test_min_start_temperature_both_paths_agree(rb):
    for rho0, gamma in ((1e-6, 150.0), (3.3e-7, 95.0), (1e-5, 400.0)):
        direct = ev.min_start_temperature(rb, rho0, gamma)
        pivot = closed_forms.min_start_temperature_scaling(rb, rho0, gamma)
        assert pivot == pytest.approx(direct, rel=1e-3)


def test_min_start_temperature_needs_scattering_length(k40):
    with pytest.raises(ValueError):
        ev.min_start_temperature(k40, 1e-6, 150.0)


# -- cross-section -----------------------------------------------------------------------------

def test_sigma_identical_low_temperature():
    assert ev.sigma_identical_low_temperature(5.3e-9) == pytest.approx(
        8 * math.pi * 5.3e-9**2, rel=1e-15
    )
