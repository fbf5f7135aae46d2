import csv
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichip import constants as C
from fermichip import thermo
from fermichip.polylog import fermi_fn, fermi_fns

import closed_forms


# -- occupation --------------------------------------------------------------------

def test_occupation_half_at_mu():
    assert thermo.occupation(3e-30, 3e-30, 1e-6) == pytest.approx(0.5)


def test_occupation_filled_sea_limit():
    e_f = C.K_B * 1e-6
    assert thermo.occupation(0.0, e_f, 1e-9) == pytest.approx(1.0, abs=1e-12)


def test_occupation_tail_value():
    # eps = 2 E_F, T = 0.1 T_F, mu from the low-T expansion
    e_f = C.K_B * 1e-6
    t = 0.1 * e_f / C.K_B
    mu = e_f * (1.0 - math.pi**2 / 300.0)
    expected = 1.0 / (math.exp((2.0 * e_f - mu) / (C.K_B * t)) + 1.0)
    assert thermo.occupation(2.0 * e_f, mu, t) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(3.267e-5, rel=1e-3)


def test_occupation_bounded_randomized():
    rng = np.random.default_rng(1)
    eps = rng.uniform(-1e-28, 1e-28, 10_000)
    mu = rng.uniform(-1e-28, 1e-28, 10_000)
    occ = np.array([thermo.occupation(e, m, 1e-7) for e, m in zip(eps[:100], mu[:100])])
    grid = thermo.occupation(eps, 0.0, 5e-7)
    assert np.all((grid >= 0.0) & (grid <= 1.0))
    assert np.all((occ >= 0.0) & (occ <= 1.0))


@settings(max_examples=50, deadline=None)
@given(
    eps=st.floats(-1e-27, 1e-27),
    mu=st.floats(-1e-27, 1e-27),
    t=st.floats(1e-9, 1e-3),
)
def test_occupation_bounds_property(eps, mu, t):
    n = thermo.occupation(eps, mu, t)
    assert 0.0 <= n <= 1.0


# -- Fermi energy -------------------------------------------------------------------

def test_fermi_energy_inversion():
    trap = thermo.HarmonicTrap.isotropic(2.0 * math.pi * 100.0)
    n = (100.0**3) / 6.0
    assert thermo.fermi_energy(n, trap) == pytest.approx(
        100.0 * C.HBAR * trap.omega_bar, rel=1e-12
    )
    assert closed_forms.atom_number_from_fermi_energy(
        thermo.fermi_energy(n, trap), trap
    ) == pytest.approx(n, rel=1e-12)


def test_fermi_energy_science_trap(k92, science_trap):
    e_f = thermo.fermi_energy(4e4, science_trap)
    assert e_f / C.K_B == pytest.approx(0.939e-6, rel=2e-3)


def test_fermi_energy_defect_enhanced_axial():
    # with the axial frequency raised by the local defect, E_F brackets ~1.1 uK
    trap = thermo.HarmonicTrap.isotropic(2.0 * math.pi * 427.0)
    e_f = thermo.fermi_energy(4e4, trap)
    assert e_f / C.K_B == pytest.approx(1.274e-6, rel=2e-3)


# -- fugacity ------------------------------------------------------------------------

def test_unit_fugacity_temperature():
    t = thermo.reduced_temperature_from_fugacity(1.0)
    assert t == pytest.approx((6.0 * fermi_fn(3.0, 1.0)) ** (-1.0 / 3.0), rel=1e-12)
    assert t == pytest.approx(0.5697, abs=5e-4)
    assert thermo.fugacity_from_reduced_temperature(t) == pytest.approx(1.0, rel=1e-9)


def test_fugacity_solves_without_recomputing_f3_at_one(monkeypatch):
    # f_3(1), which picks the side of Z = 1, is computed once, at import, and
    # not by each solve; the Halley steps still take f_3 and f_2
    calls = []

    def recording(n, z):
        calls.append((float(n), np.asarray(z).tolist()))
        return fermi_fn(n, z)

    def recording_fused(orders, z):
        calls.extend((float(n), np.asarray(z).tolist()) for n in orders)
        return fermi_fns(orders, z)

    monkeypatch.setattr(thermo, "fermi_fn", recording)
    monkeypatch.setattr(thermo, "fermi_fns", recording_fused)
    z = thermo.fugacity_from_reduced_temperature(0.3)
    assert calls and (3.0, 1.0) not in calls
    assert thermo._F3_AT_UNIT_FUGACITY == fermi_fn(3.0, 1.0)
    assert 6.0 * fermi_fn(3.0, z) * 0.3**3 == pytest.approx(1.0, rel=1e-14)


# the thermo-scan grid, and log-spaced reduced temperatures from near the
# deepest the solve takes (ln Z ~ 625) to far into the classical regime
SCAN_GRID = np.geomspace(0.02, 5.0, 24)
WIDE_GRID = np.geomspace(0.0016, 50.0, 400)
# t at Z = 1
SEAM = (6.0 * fermi_fn(3.0, 1.0)) ** (-1.0 / 3.0)


def test_fugacity_solve_passes(monkeypatch):
    # the closed-form starts leave at most 3 passes of f_3 (and f_2) per point;
    # at least one is counted, so each point takes f_3 from this module's
    # fermi_fns or fermi_fn.  An array pass counts one for every point still
    # iterating: `sizes` holds the number of points of each.  A float pass,
    # of the array solve's tail or of a one-point solve, counts for the point
    # that _iterate, wrapped below, is iterating
    sizes, passes = [], []

    def count(z):
        if np.ndim(z):
            sizes.append(np.size(z))
        else:
            passes[-1] += 1

    def counting(n, z):
        if float(n) == 3.0:
            count(z)
        return fermi_fn(n, z)

    def counting_fused(orders, z):
        if 3.0 in orders:
            count(z)
        return fermi_fns(orders, z)

    def iterate(*args):
        passes.append(0)
        return solve_tail(*args)

    thermo.fugacity_from_reduced_temperature(0.3)
    solve_tail = thermo._iterate
    monkeypatch.setattr(thermo, "fermi_fn", counting)
    monkeypatch.setattr(thermo, "fermi_fns", counting_fused)
    monkeypatch.setattr(thermo, "_iterate", iterate)
    thermo.fugacity_from_reduced_temperature(SCAN_GRID)
    # s_k - s_(k+1) points leave after k array passes; the tail's points
    # have had every array pass and then their own float passes
    ends = sizes[1:] + [len(passes)]
    per_point = [k for k, (s, e) in enumerate(zip(sizes, ends), 1) for _ in range(s - e)]
    per_point += [len(sizes) + p for p in passes]
    assert len(per_point) == SCAN_GRID.size
    assert min(per_point) >= 1 and max(per_point) <= 3
    sizes.clear()
    passes.clear()
    for t in WIDE_GRID:
        thermo.fugacity_from_reduced_temperature(float(t))
    assert not sizes and len(passes) == WIDE_GRID.size
    assert min(passes) >= 1 and max(passes) <= 3 and np.mean(passes) <= 1.5


def test_fugacity_matches_mpmath():
    # Z from 40-digit mpmath: the root in y = ln Z of -Li_3(-e^y) = t^-3/6,
    # on both grids and at the Z = 1 seam.  Z = e^y carries the round-off of
    # y as a relative error, so the bound is 8 eps max(1, |ln Z|)
    t = np.concatenate([SCAN_GRID, WIDE_GRID, [SEAM]])
    z = thermo.fugacity_from_reduced_temperature(t)
    with mpmath.workdps(40):
        for ti, zi in zip(t, z):
            target = mpmath.mpf(ti) ** -3 / 6
            y = mpmath.findroot(
                lambda y: mpmath.log(-mpmath.polylog(3, -mpmath.exp(y)) / target),
                mpmath.log(zi),
            )
            error = abs(mpmath.mpf(zi) / mpmath.exp(y) - 1)
            assert error <= 8 * np.finfo(float).eps * max(1.0, abs(math.log(zi))), ti


def test_fugacity_boltzmann_regime():
    z = thermo.fugacity_from_reduced_temperature(10.0)
    # leading order z = t^-3/6, with the first quantum correction z/8
    lead = 1e-3 / 6.0
    assert z == pytest.approx(lead, rel=1e-4)
    assert z > lead  # Pauli correction raises z at fixed N


def test_fugacity_degenerate_regime():
    t = 0.02
    z = thermo.fugacity_from_reduced_temperature(t)
    ln_z = math.log(z)
    sommerfeld = (1.0 / t) * (1.0 - math.pi**2 * t * t / 3.0)
    assert ln_z == pytest.approx(sommerfeld, rel=1e-4)


def test_fugacity_monotone_decreasing():
    ts = np.geomspace(0.02, 20.0, 25)
    zs = [thermo.fugacity_from_reduced_temperature(t) for t in ts]
    assert all(a > b for a, b in zip(zs, zs[1:]))

    # one array call from Z <= 1/2 through the interpolant to ln Z ~ 600
    t = np.geomspace(0.0016, 100.0, 200)
    z = thermo.fugacity_from_reduced_temperature(t)
    assert z[-1] <= 0.5 and math.log(z[0]) > 600.0
    assert np.array_equal(z, [thermo.fugacity_from_reduced_temperature(float(ti)) for ti in t])
    assert np.all(np.diff(z) < 0.0)
    assert np.max(np.abs(np.log(6.0 * fermi_fn(3.0, z) * t**3))) <= 1e-14


@pytest.mark.parametrize("bad", [0.0, -0.5, 0.001, 1e100],
                         ids=["zero", "negative", "too-deep", "too-classical"])
def test_fugacity_rejects_out_of_domain_array(bad):
    with pytest.raises(ValueError):
        thermo.fugacity_from_reduced_temperature(np.array([0.5, bad, 2.0]))


@pytest.mark.parametrize("t", [math.inf, np.array([0.5, math.inf])], ids=["scalar", "array"])
def test_fugacity_rejects_infinite_temperature(t):
    # outside the domain, a configuration error, not a failed root find
    with pytest.raises(ValueError, match="positive and finite"):
        thermo.fugacity_from_reduced_temperature(t)


# the Z = 1 seam and its neighbours, and points just inside both ends of the domain
EDGES = [np.nextafter(SEAM, 0.0), SEAM, np.nextafter(SEAM, 1.0), 1.0 / 700.0, thermo._T_MAX]


def assert_one_point_matches_array(t):
    # an array of two or more points takes the array path, each element alone
    # the one-point path; Z > 0, so == compares the bits
    z = thermo.fugacity_from_reduced_temperature(t)
    for ti, zi in zip(t, z):
        assert thermo.fugacity_from_reduced_temperature(float(ti)) == zi, ti


@pytest.mark.parametrize("t", [WIDE_GRID, EDGES], ids=["wide-grid", "seam-and-ends"])
def test_fugacity_one_point_matches_array(t):
    assert_one_point_matches_array(np.asarray(t))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(math.log(1.0 / 700.0), math.log(thermo._T_MAX)),
                min_size=2, max_size=12))
def test_fugacity_one_point_matches_array_drawn(log_t):
    # log-uniform over the domain; exp may round one ulp past either end
    assert_one_point_matches_array(np.clip(np.exp(log_t), 1.0 / 700.0, thermo._T_MAX))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(math.log(1.0 / 700.0), math.log(50.0)),
                min_size=thermo._FLOAT_TAIL + 1, max_size=12))
def test_fugacity_float_tail_matches_one_point_drawn(log_t):
    # more points than the float tail takes, most of them degenerate enough to
    # need a second pass: array passes first, then the tail on Python floats
    assert_one_point_matches_array(np.clip(np.exp(log_t), 1.0 / 700.0, 50.0))


@pytest.mark.parametrize("t", [0.3, np.array(0.3), np.full(1, 0.3), np.full((1, 1), 0.3)],
                         ids=["float", "0-d", "(1,)", "(1, 1)"])
def test_fugacity_one_point_return_types(t):
    # a scalar or a 0-d array gives a float, a size-1 array an array of its shape
    z = thermo.fugacity_from_reduced_temperature(t)
    if np.ndim(t):
        assert isinstance(z, np.ndarray) and z.shape == t.shape and z.dtype == float
    else:
        assert type(z) is float
    assert np.all(z == thermo.fugacity_from_reduced_temperature(np.array([0.3, 0.3]))[0])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e100, 1e-3])
def test_fugacity_one_point_domain_errors_match_array(bad):
    messages = []
    for t in (bad, np.array(bad), np.array([bad]), np.array([bad, bad]), np.full(12, bad)):
        with pytest.raises(ValueError) as error:
            thermo.fugacity_from_reduced_temperature(t)
        messages.append(str(error.value))
    assert len(set(messages)) == 1, messages


def test_fugacity_failure_names_t_bracket_and_ln_z(monkeypatch):
    # a nan f_3 fails every path at the first step, before the bracket moves,
    # with the same FugacityError: no ZeroDivisionError, no RuntimeWarning.
    # Two points run in the float tail alone, twelve take an array pass first
    def nan_f3(orders, z):
        return [f * math.nan if n == 3.0 else f for n, f in zip(orders, fermi_fns(orders, z))]

    monkeypatch.setattr(thermo, "fermi_fns", nan_f3)
    for t in (0.2, 2.0):
        messages = []
        for arg in (t, np.array([t, t]), np.full(12, t)):
            with pytest.raises(thermo.FugacityError) as error:
                thermo.fugacity_from_reduced_temperature(arg)
            messages.append(str(error.value))
        assert len(set(messages)) == 1, messages
        assert messages[0].startswith(f"fugacity root find failed for t={t} on ln Z bracket [")
        assert " at ln Z = " in messages[0]


@pytest.mark.parametrize("t", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0])
def test_number_round_trip(t, k92, science_trap):
    n_target = 4e4
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, n_target, t)
    x = C.K_B * gas.temperature / (C.HBAR * science_trap.omega_bar)
    n_back = x**3 * fermi_fn(3.0, gas.fugacity)
    assert n_back == pytest.approx(n_target, rel=1e-8)


# -- chemical potential approximations -------------------------------------------------

def test_mu_approx_closed_forms():
    assert thermo.chemical_potential_approx(0.1, "low") == pytest.approx(
        1.0 - math.pi**2 / 300.0, rel=1e-12
    )
    assert thermo.chemical_potential_approx(2.0, "high") == pytest.approx(
        -2.0 * math.log(48.0), rel=1e-12
    )


@pytest.mark.parametrize("t", [0.05, 0.1, 0.2])
def test_mu_low_form_within_percent(t):
    exact = t * math.log(thermo.fugacity_from_reduced_temperature(t))
    assert thermo.chemical_potential_approx(t, "low") == pytest.approx(exact, rel=0.01)


@pytest.mark.parametrize("t", [2.0, 5.0, 10.0])
def test_mu_high_form_within_percent(t):
    exact = t * math.log(thermo.fugacity_from_reduced_temperature(t))
    assert thermo.chemical_potential_approx(t, "high") == pytest.approx(exact, rel=0.01)


def test_mu_approx_bad_regime():
    with pytest.raises(ValueError):
        thermo.chemical_potential_approx(0.1, "middling")


# -- energy ------------------------------------------------------------------------------

def test_energy_zero_t_limit(k92, science_trap):
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, 0.003)
    # E/N -> (3/4) E_F for the harmonic trap (integral of eps^3 over eps^2 weights)
    assert thermo.energy_per_particle(gas) / gas.fermi_energy == pytest.approx(0.75, rel=1e-4)


def test_energy_boltzmann_limit(k92, science_trap):
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, 5.0)
    assert thermo.energy_per_particle(gas) == pytest.approx(
        3.0 * C.K_B * gas.temperature, rel=0.01
    )


def test_energy_unit_fugacity_ratio(k92, science_trap):
    t = thermo.reduced_temperature_from_fugacity(1.0)
    gas = thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, t)
    ratio = thermo.energy_per_particle(gas) / (3.0 * C.K_B * gas.temperature)
    assert ratio == pytest.approx(0.947033 / 0.901543, rel=1e-5)


# -- degeneracy parameter ------------------------------------------------------------------

def test_degeneracy_parameter_values():
    assert thermo.degeneracy_parameter(1.0) == pytest.approx(0.765, abs=1e-3)
    z = 1e-6
    assert thermo.degeneracy_parameter(z) == pytest.approx(z, rel=1e-5)


def test_ground_state_occupancy_bounded():
    for z in np.geomspace(1e-8, 1e8, 17):
        assert z / (1.0 + z) <= 1.0


# -- 1D capacity ----------------------------------------------------------------------------

def test_capacity_science_trap(science_trap):
    assert thermo.capacity_1d(science_trap) == pytest.approx(823.0 / 46.0, rel=1e-6)


def test_capacity_isotropic():
    trap = thermo.HarmonicTrap.isotropic(1000.0)
    assert thermo.capacity_1d(trap) == pytest.approx(1.0)


def test_capacity_extreme_aspect():
    trap = thermo.HarmonicTrap(1e4 * 2 * math.pi, 2 * math.pi, 1e4 * 2 * math.pi)
    assert thermo.capacity_1d(trap) == pytest.approx(1e4, rel=1e-9)


def test_capacity_requires_axial_symmetry():
    trap = thermo.HarmonicTrap(2e3, 100.0, 3e3)
    with pytest.raises(ValueError):
        thermo.capacity_1d(trap)


# -- discrete oracle --------------------------------------------------------------------------

def test_discrete_oracle_zero_t_shell_count():
    omega = 1000.0
    trap = thermo.HarmonicTrap.isotropic(omega)
    t = C.HBAR * omega / C.K_B * 1e-3  # k_B T = 1e-3 hbar w: effectively T = 0
    n, e = thermo.discrete_sum_oracle(trap, 5.0 * C.HBAR * omega, t, cutoff=40)
    # filled shells s = 0..3, at (s + 3/2) hbar w, hold 1 + 3 + 6 + 10 = 20 fermions
    assert n == pytest.approx(20.0, abs=1e-9)
    expected_e = 75.0 * C.HBAR * omega  # 1.5 * 1 + 2.5 * 3 + 3.5 * 6 + 4.5 * 10
    assert e == pytest.approx(expected_e, rel=1e-9)


def test_discrete_oracle_empty_at_deep_negative_mu():
    trap = thermo.HarmonicTrap.isotropic(1000.0)
    t = C.HBAR * 1000.0 / C.K_B
    n, e = thermo.discrete_sum_oracle(trap, -1e-25, t, cutoff=200)
    assert n == pytest.approx(0.0, abs=1e-12)
    assert e == pytest.approx(0.0, abs=1e-35)


def _continuum_mu(trap, n_target, temperature):
    e_f = thermo.fermi_energy(n_target, trap)
    z = thermo.fugacity_from_reduced_temperature(temperature / (e_f / C.K_B))
    return C.K_B * temperature * math.log(z)


def test_discrete_oracle_continuum_agreement():
    omega = 1000.0
    trap = thermo.HarmonicTrap.isotropic(omega)
    temperature = 50.0 * C.HBAR * omega / C.K_B
    mu = _continuum_mu(trap, 1000.0, temperature)
    n, _ = thermo.discrete_sum_oracle(trap, mu, temperature, cutoff=2500)
    assert n == pytest.approx(1000.0, rel=0.02)


def test_discrete_oracle_convergence_rate():
    # |N_disc/N - 1| <= C hbar w / k_B T with a modest constant
    omega = 1000.0
    trap = thermo.HarmonicTrap.isotropic(omega)
    ratios = []
    for scale in (20.0, 50.0, 100.0, 200.0):
        temperature = scale * C.HBAR * omega / C.K_B
        mu = _continuum_mu(trap, 1000.0, temperature)
        n, _ = thermo.discrete_sum_oracle(trap, mu, temperature, cutoff=int(40 * scale))
        dev = abs(n / 1000.0 - 1.0)
        ratios.append(dev * scale)  # = dev / (hbar w / k_B T)
    assert max(ratios) < 3.0


def test_discrete_oracle_anisotropic_path():
    trap = thermo.HarmonicTrap(1500.0, 700.0, 1100.0)
    temperature = 8.0 * C.HBAR * trap.omega_bar / C.K_B
    mu = _continuum_mu(trap, 50.0, temperature)
    n, _ = thermo.discrete_sum_oracle(trap, mu, temperature, cutoff=400)
    assert n == pytest.approx(50.0, rel=0.02)


def test_discrete_oracle_cutoff_guard():
    trap = thermo.HarmonicTrap.isotropic(1000.0)
    t = 50.0 * C.HBAR * 1000.0 / C.K_B
    with pytest.raises(ValueError, match="cutoff too small"):
        thermo.discrete_sum_oracle(trap, 0.0, t, cutoff=100)


# -- scan CSV -----------------------------------------------------------------------------------

def test_scan_csv_columns_and_values(tmp_path, k92, science_trap):
    path = tmp_path / "scan.csv"

    def factory(t):
        return thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, t)

    thermo.write_thermo_scan_csv(path, factory, [0.2, 1.0])
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T_over_TF", "Z", "mu_over_EF", "E_per_N_over_EF", "n0_lambda3"]
    t, z, mu, epn, n0l3 = map(float, rows[1])
    assert t == 0.2
    assert z == pytest.approx(thermo.fugacity_from_reduced_temperature(0.2), rel=1e-12)
    assert n0l3 == pytest.approx(thermo.degeneracy_parameter(z), rel=1e-12)


def test_scan_csv_one_row_matches_its_row_in_a_scan(tmp_path, k92, science_trap):
    # a one-row scan solves at one point, a longer one on the array path
    def factory(t):
        return thermo.TrappedGasState.from_reduced_temperature(k92, science_trap, 4e4, t)

    thermo.write_thermo_scan_csv(tmp_path / "scan.csv", factory, SCAN_GRID)
    rows = (tmp_path / "scan.csv").read_bytes().splitlines()[1:]
    assert len(rows) == len(SCAN_GRID)
    for t, row in zip(SCAN_GRID, rows):
        thermo.write_thermo_scan_csv(tmp_path / "row.csv", factory, [t])
        assert (tmp_path / "row.csv").read_bytes().splitlines()[1:] == [row]
