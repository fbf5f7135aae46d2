"""Regression checks against the published worked numbers and property targets.

Each check compares a quantity computed by the library against its published
target at a fixed tolerance, returning one row per check.  The CLI
`paper-check` subcommand renders the rows as a pass/fail table; the acceptance
test suite asserts them one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import constants as C
from . import evaporation, imagefit, polylog, rfdress, thermo, trapfield

__all__ = ["CheckRow", "run_benchmarks", "BENCHMARK_GROUPS"]


@dataclass
class CheckRow:
    name: str
    description: str
    computed: str
    target: str
    passed: bool


def _row(name, description, computed, target, passed):
    if isinstance(computed, float):
        computed = f"{computed:.6g}"
    return CheckRow(name, description, str(computed), target, bool(passed))


def _within(value, center, tol):
    return abs(value - center) <= tol


# -- criterion 1: degeneracy crossover constants ------------------------------

def degeneracy_rows():
    f32 = polylog.fermi_fn(1.5, 1.0)
    # the Bose g_3/2(1) = zeta(3/2) = eta(3/2) / (1 - 2^(-1/2)), and eta(3/2) = f_3/2(1)
    g32 = f32 / -math.expm1(-0.5 * math.log(2.0))
    t_unit = thermo.reduced_temperature_from_fugacity(1.0)
    return [
        _row("c1-fermi-degeneracy", "n0 Lambda^3 at Z=1 (Fermi)", f32,
             "0.7651 +/- 0.0005", _within(f32, 0.7651, 5e-4)),
        _row("c1-bose-degeneracy", "n0 Lambda^3 at Z=1 (Bose)", g32,
             "2.612 +/- 0.001", _within(g32, 2.612, 1e-3)),
        _row("c1-unit-fugacity-temperature", "T/T_F at Z=1", t_unit,
             "0.5697 +/- 0.0005", _within(t_unit, 0.5697, 5e-4)),
    ]


# -- criterion 2: energy per particle -----------------------------------------

def energy_rows():
    reg = C.builtin_species()
    k92 = reg.stretched_state("K40")
    trap = thermo.HarmonicTrap.from_frequencies_hz(823, 46, 823)
    t_cold = 0.01
    cold = thermo.TrappedGasState.from_reduced_temperature(k92, trap, 4e4, t_cold)
    ratio_cold = thermo.energy_per_particle(cold) / cold.fermi_energy
    hot = thermo.TrappedGasState.from_reduced_temperature(k92, trap, 4e4, 5.0)
    ratio_hot = thermo.energy_per_particle(hot) / (3.0 * C.K_B * hot.temperature)
    # g(eps) ~ eps^2 gives E/N = (3/4) E_F at T = 0 (3/5 is the uniform-gas value);
    # the leading Sommerfeld term adds (2 pi^2 / 3) t^2, which is 4.9e-4 at t = 0.01.
    target_cold = 0.75 * (1.0 + 2.0 * math.pi**2 / 3.0 * t_cold**2)
    return [
        _row(
            "c2-zero-t-energy",
            "E/N at T/T_F = 0.01, units of E_F",
            ratio_cold,
            f"{target_cold:.6f} +/- 1e-4",
            _within(ratio_cold, target_cold, 1e-4),
        ),
        _row("c2-boltzmann-energy", "E/N / (3 k_B T) at T/T_F = 5", ratio_hot,
             "1.00 +/- 0.01", _within(ratio_hot, 1.0, 0.01)),
    ]


# -- criterion 3: chemical potential approximations ---------------------------

def mu_approx_rows():
    t = np.array([0.05, 0.1, 0.2, 2.0, 3.0, 5.0, 10.0])
    exact = t * np.log(thermo.fugacity_from_reduced_temperature(t))
    dev = [abs(thermo.chemical_potential_approx(ti, "low" if ti < 1.0 else "high") / ei - 1.0)
           for ti, ei in zip(t, exact)]
    dev_low, dev_high = max(dev[:3]), max(dev[3:])
    return [
        _row("c3-mu-low", "max rel. dev. of low-T mu form, t <= 0.2", dev_low,
             "<= 0.01", dev_low <= 0.01),
        _row("c3-mu-high", "max rel. dev. of high-T mu form, t >= 2", dev_high,
             "<= 0.01", dev_high <= 0.01),
    ]


# -- criterion 4: discrete-sum oracle ------------------------------------------

def discrete_oracle_rows():
    omega = 1000.0
    trap = thermo.HarmonicTrap.isotropic(omega)
    n_target = 1000.0
    kt = 50.0 * C.HBAR * omega
    t_kelvin = kt / C.K_B
    e_f = thermo.fermi_energy(n_target, trap)
    z = thermo.fugacity_from_reduced_temperature(t_kelvin / (e_f / C.K_B))
    mu = kt * math.log(z)
    n_disc, _ = thermo.discrete_sum_oracle(trap, mu, t_kelvin, cutoff=2500)
    dev = abs(n_disc / n_target - 1.0)
    return [
        _row("c4-discrete-oracle", "|N_discrete/N_continuum - 1| at k_B T = 50 hbar w",
             dev, "<= 0.02", dev <= 0.02),
    ]


# -- criterion 5: worked trap-volume examples ----------------------------------

def trap_volume_rows():
    reichel, loop, ioffe, toronto = (
        evaporation.LOADING_PRESETS[name].report(1e-6)
        for name in ("reichel-z", "libbrecht-loop", "ioffe-c", "toronto-z")
    )
    return [
        _row("c5-reichel-volume", "Z-trap V_eff (um^3)", reichel["v_eff_um3"],
             "1.3e7 +/- 10%", _within(reichel["v_eff_um3"], 1.3e7, 0.10 * 1.3e7)),
        _row("c5-reichel-atoms", "Z-trap N_max at rho0 = 1e-6", reichel["n_max"],
             "1.2e7 +/- 15%", _within(reichel["n_max"], 1.2e7, 0.15 * 1.2e7)),
        _row("c5-libbrecht-volume", "loop quadrupole V_eff (um^3)", loop["v_eff_um3"],
             "310 +/- 20%", _within(loop["v_eff_um3"], 310.0, 0.20 * 310.0)),
        _row("c5-libbrecht-atoms", "loop quadrupole N_max", loop["n_max"],
             "2e4 +/- 20%", _within(loop["n_max"], 2e4, 0.20 * 2e4)),
        _row("c5-ioffe-volume", "half-loop trap V_eff (um^3)", ioffe["v_eff_um3"],
             "0.4 +/- 25%", _within(ioffe["v_eff_um3"], 0.4, 0.25 * 0.4)),
        _row("c5-ioffe-atoms", "half-loop trap N_max", ioffe["n_max"],
             "< 1", ioffe["n_max"] < 1.0),
        _row("c5-toronto-volume", "science-trap V_eff at 300 uK (um^3)", toronto["v_eff_um3"],
             "3e7 +/- 15%", _within(toronto["v_eff_um3"], 3e7, 0.15 * 3e7)),
    ]


# -- criterion 6: minimum start temperature and collision rate -----------------

def collision_rows():
    # the science trap is loaded at 300 uK
    toronto = evaporation.LOADING_PRESETS["toronto-z"].report(1e-6)
    t0, gamma = toronto["t_min_uk"], toronto["gamma_coll_hz"]
    return [
        _row("c6-min-start-temperature", "T0 minimum (uK)", t0,
             "300 +/- 2%", _within(t0, 300.0, 0.02 * 300.0)),
        _row("c6-collision-rate", "Rb-Rb rate at rho0=1e-6, 300 uK (1/s)", gamma,
             "150 +/- 2%", _within(gamma, 150.0, 0.02 * 150.0)),
    ]


# -- criterion 7: species-selective eta algebra --------------------------------

def eta_rows():
    reg = C.builtin_species()
    k92 = reg.stretched_state("K40")
    rb22 = reg.stretched_state("Rb87")
    slope, field_coeff = rfdress.eta_relation_coefficients(k92, rb22)
    exact = slope == Fraction(9, 4) and field_coeff == Fraction(5, 4)
    states = [reg.state("K40", "9/2", Fraction(m, 2)) for m in range(1, 10, 2)]
    eta_min, _ = rfdress.eta_min_over_sublevels(states, rb22, 0.0, 5.7 * C.GAUSS, 220e-9)
    depth = rfdress.k_only_evaporation_depth(k92, rb22, 5.7 * C.GAUSS) / C.K_B * 1e6
    return [
        _row("c7-eta-coefficients", "stretched-pair coefficients",
             f"{slope}, {field_coeff}", "exactly 9/4 and 5/4", exact),
        _row("c7-eta-k-floor", "min eta_K at eta_Rb=0, T=220 nK, B0=5.7 G", eta_min,
             "242 +/- 2 (and > 220)", _within(eta_min, 242.0, 2.0) and eta_min > 220.0),
        _row("c7-k-only-depth", "K-only knife depth (uK)", depth,
             "479 +/- 1%", _within(depth, 479.0, 4.79)),
    ]


# -- criterion 8: dressed-potential anchors -------------------------------------

def _benchmark_ip_model():
    reg = C.builtin_species()
    rb = reg["Rb87"]
    b0 = 1.214 * C.GAUSS
    b_prime = 2 * math.pi * 1230.0 * math.sqrt(rb.mass * b0 / C.MU_B)
    b_double_prime = (2 * math.pi * 13.7) ** 2 * rb.mass / C.MU_B
    return trapfield.AnalyticIPField(b0, b_prime, b_double_prime), b0


def dressing_rows():
    reg = C.builtin_species()
    k92 = reg.stretched_state("K40")
    rb22 = reg.stretched_state("Rb87")
    model, b0 = _benchmark_ip_model()
    center = np.zeros(3)
    rf_final = rfdress.RFField(200e-3 * C.GAUSS, 2 * math.pi * 860e3, (0.0, 0.0, 1.0))
    rf_initial = rfdress.RFField(200e-3 * C.GAUSS, 2 * math.pi * 800e3, (0.0, 0.0, 1.0))

    delta_rb, _ = rfdress.detuning_and_rabi(model, rf_initial, rb22, center)
    delta_rb_khz = float(delta_rb) / C.H_PLANCK / 1e3
    delta_k, rabi_k = rfdress.detuning_and_rabi(model, rf_final, k92, center)
    delta_k_khz = abs(float(delta_k)) / C.H_PLANCK / 1e3
    _, rabi_rb = rfdress.detuning_and_rabi(model, rf_final, rb22, center)
    rabi_khz = float(rabi_rb) / C.H_PLANCK / 1e3

    ramp_on = rf_initial.omega  # amplitude ramped on at 800 kHz, then swept to 860 kHz
    scan_rb = rfdress.dressed_potential(
        model, rf_final, rb22, center, (1, 0, 0), 10e-6, connect_at_omega=ramp_on
    )
    scan_k = rfdress.dressed_potential(
        model, rf_final, k92, center, (1, 0, 0), 10e-6, connect_at_omega=ramp_on
    )
    wells_rb = rfdress.characterize_wells(scan_rb)
    wells_k = rfdress.characterize_wells(scan_k)
    separation_um = wells_rb.separation * 1e6
    barrier_khz = wells_rb.barrier_height / C.H_PLANCK / 1e3

    # potential energy (in the bare K trap) of the K resonance shell
    b_res = C.HBAR * rf_final.omega / (float(k92.g_F) * C.MU_B)
    shell_uk = C.magnetic_moment(k92) * (b_res - b0) / C.K_B * 1e6

    return [
        _row("c8-rb-detuning", "Rb detuning at 800 kHz, B0=1.214 G (kHz)", delta_rb_khz,
             "-50 +/- 1", _within(delta_rb_khz, -50.0, 1.0)),
        _row("c8-k-detuning", "|K detuning| at 860 kHz (kHz)", delta_k_khz,
             "482 +/- 2", _within(delta_k_khz, 482.0, 2.0)),
        _row("c8-rabi", "Rabi coupling at B_RFperp = 200 mG (kHz)", rabi_khz,
             "70 +/- 0.5", _within(rabi_khz, 70.0, 0.5)),
        _row("c8-k-shell-energy", "K resonance-shell energy (uK)", shell_uk,
             "104 to 115", 104.0 <= shell_uk <= 115.0),
        _row("c8-rb-topology", "Rb dressed topology at 860 kHz", wells_rb.topology,
             "double", wells_rb.topology == "double"),
        _row("c8-k-topology", "K dressed topology at 860 kHz", wells_k.topology,
             "single", wells_k.topology == "single"),
        _row("c8-separation", "Rb double-well separation (um)", separation_um,
             "0.4 to 40 (order of magnitude)", 0.4 <= separation_um <= 40.0),
        _row("c8-barrier", "Rb double-well barrier (h x kHz)", barrier_khz,
             "0.2 to 24 (order of magnitude)", 0.2 <= barrier_khz <= 24.0),
    ]


# -- criterion 9: fit discrimination and apparent temperature -------------------

def fit_rows():
    reg = C.builtin_species()
    k92 = reg.stretched_state("K40")
    trap = thermo.HarmonicTrap.from_frequencies_hz(823, 46, 823)
    rows = []
    for t_red, band, name in ((0.1, (2.0, 5.0), "c9-chi2-degenerate"),
                              (2.0, (0.95, 1.3), "c9-chi2-boltzmann")):
        gas = thermo.TrappedGasState.from_reduced_temperature(k92, trap, 4e4, t_red)
        pitch = 8e-6 if t_red < 1 else 25e-6
        clean = imagefit.synthesize_tof_image(gas, 10e-3, (64, 64), pitch)
        img = imagefit.add_noise(clean, 0.02 * float(clean.values.max()), seed=7)
        ratio = imagefit.fit_gaussian(img).reduced_chi2 / imagefit.fit_fermi_dirac(img).reduced_chi2
        rows.append(_row(name, f"chi2_gauss/chi2_FD at T/T_F = {t_red}, 2% noise", ratio,
                         f"{band[0]} to {band[1]}", band[0] <= ratio <= band[1]))

    curve = imagefit.apparent_temperature_curve(np.r_[0.5, 1.5, np.linspace(0.05, 3.0, 12)])
    dev_low, dev_high = curve[:2] - 1.0
    grid = curve[2:]
    monotone = all(a > b for a, b in zip(grid, grid[1:]))
    rows.append(_row("c9-apparent-t-low", "T_app/T - 1 at T/T_F = 0.5 (monotone below)",
                     dev_low, "> 0.05", dev_low > 0.05 and monotone))
    rows.append(_row("c9-apparent-t-high", "T_app/T - 1 at T/T_F = 1.5", dev_high,
                     "< 0.02", dev_high < 0.02))
    return rows


# -- criterion 10: scaling properties -------------------------------------------

def scaling_rows():
    reg = C.builtin_species()
    rb = reg["Rb87"]
    shape = evaporation.EffectiveVolumeModel
    models = (shape.sho(rb.mass, 2e3), shape.quadrupole3d(C.MU_B * 1e3), shape.box(1e-4),
              shape.quad2d_box(C.MU_B * 1e3, 1e-4))
    temps = np.geomspace(1e-5, 1e-3, 9)
    dev_v = 0.0
    dev_n = 0.0
    for model in models:
        v = [evaporation.effective_volume(model, t) for t in temps]
        slope = float(np.polyfit(np.log(temps), np.log(v), 1)[0])
        dev_v = max(dev_v, abs(slope - model.exponent))
        depths = np.geomspace(C.K_B * 1e-4, C.K_B * 1e-2, 9)
        n = [
            evaporation.max_loadable_atoms(
                evaporation.LoadingBudget(1e-6, u, 4.0, rb), model
            )
            for u in depths
        ]
        slope_n = float(np.polyfit(np.log(depths), np.log(n), 1)[0])
        dev_n = max(dev_n, abs(slope_n - (model.exponent + 1.5)))
    exponent = evaporation.current_scaling_exponent(evaporation.CurrentScalingFamily(rb))
    return [
        _row("c10-volume-exponents", "max |log-slope - delta| over trap kinds", dev_v,
             "<= 1e-6", dev_v <= 1e-6),
        _row("c10-atom-number-exponent", "max |N_max slope - (delta+3/2)|", dev_n,
             "<= 1e-3", dev_n <= 1e-3),
        _row("c10-current-exponent", "N_max vs wire current log-slope", exponent,
             "2.5 +/- 0.05", _within(exponent, 2.5, 0.05)),
    ]


# -- criterion 11: numerical hygiene --------------------------------------------

def numerics_rows():
    # polylog seams: z = 1 for the integer orders; the ends and piece boundaries
    # of the shipped tables for n = 1/2 and 3/2
    seam = max(
        abs(below / above - 1.0)
        for n in (0.5, 1.5, 2.0, 3.0, 4.0)
        for _, below, above in polylog.seams(n)
    )

    gauss_dev = 0.0
    for n, c in ((1.5, 1.0), (1.0, 5.0), (2.5, 0.3)):
        lhs, rhs = polylog.gaussian_reduction_check(n, c)
        gauss_dev = max(gauss_dev, abs(lhs / rhs - 1.0))

    # Maxwell checks on the shipped geometry
    model, seed = trapfield.load_geometry("toronto-z-trap")
    rng = np.random.default_rng(4)
    maxwell = 0.0
    for _ in range(5):
        pt = seed + rng.uniform(-40e-6, 40e-6, 3)
        jac = model.derivatives(pt)[1]  # exact, from the field's closed-form derivatives
        scale = np.abs(jac).max()
        div = abs(np.trace(jac)) / scale
        curl = np.linalg.norm([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]]) / scale
        maxwell = max(maxwell, div, curl)

    # Hessian frequencies against the analytic IP model
    reg = C.builtin_species()
    rb22 = reg.stretched_state("Rb87")
    ip, b0 = _benchmark_ip_model()
    freqs = trapfield.trap_frequencies(ip, rb22, np.zeros(3))
    mu = C.magnetic_moment(rb22)
    m = rb22.species.mass
    omega_perp = math.sqrt(mu * (ip.b_prime**2 / ip.b0 - ip.b_double_prime / 2.0) / m)
    omega_axial = math.sqrt(mu * ip.b_double_prime / m)
    om = np.sort(freqs.omega)
    ip_dev = max(
        abs(om[0] / omega_axial - 1.0),
        abs(om[1] / omega_perp - 1.0),
        abs(om[2] / omega_perp - 1.0),
    )

    return [
        _row("c11-polylog-seams", "max relative seam mismatch", seam,
             "<= 1e-8", seam <= 1e-8),
        _row("c11-gaussian-reduction", "max |lhs/rhs - 1| of the reduction identity",
             gauss_dev, "<= 1e-6", gauss_dev <= 1e-6),
        _row("c11-maxwell", "max relative |div B|, |curl B| off the wires", maxwell,
             "<= 1e-6", maxwell <= 1e-6),
        _row("c11-ip-frequencies", "Hessian frequencies vs analytic model", ip_dev,
             "<= 0.01", ip_dev <= 0.01),
    ]


BENCHMARK_GROUPS = [
    degeneracy_rows,
    energy_rows,
    mu_approx_rows,
    discrete_oracle_rows,
    trap_volume_rows,
    collision_rows,
    eta_rows,
    dressing_rows,
    fit_rows,
    scaling_rows,
    numerics_rows,
]


def run_benchmarks() -> list[CheckRow]:
    rows = []
    for group in BENCHMARK_GROUPS:
        rows.extend(group())
    return rows
