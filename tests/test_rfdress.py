import math
from fractions import Fraction

import numpy as np
import pytest

from fermichip import constants as C
from fermichip import rfdress as rf
from fermichip import trapfield as tf


def benchmark_ip():
    rb = C.builtin_species()["Rb87"]
    b0 = 1.214 * C.GAUSS
    b_prime = 2 * math.pi * 1230.0 * math.sqrt(rb.mass * b0 / C.MU_B)
    b_pp = (2 * math.pi * 13.7) ** 2 * rb.mass / C.MU_B
    return tf.AnalyticIPField(b0, b_prime, b_pp)


def rf_field(khz, amplitude_mg=200.0, pol=(0.0, 0.0, 1.0)):
    return rf.RFField(amplitude_mg * 1e-3 * C.GAUSS, 2 * math.pi * khz * 1e3, pol)


KHZ = C.H_PLANCK * 1e3  # J per kHz


# -- detuning and Rabi ------------------------------------------------------------------

def test_rb_detuning_below_resonance(rb22):
    model = benchmark_ip()
    delta, _ = rf.detuning_and_rabi(model, rf_field(800.0), rb22, np.zeros(3))
    assert delta / KHZ == pytest.approx(-49.57, abs=0.05)
    assert delta / KHZ == pytest.approx(-50.0, abs=1.0)


def test_k_detuning_above_resonance(k92):
    model = benchmark_ip()
    delta, _ = rf.detuning_and_rabi(model, rf_field(860.0), k92, np.zeros(3))
    assert delta / KHZ == pytest.approx(482.4, abs=0.1)


def test_rabi_coupling_value(rb22):
    model = benchmark_ip()
    _, rabi = rf.detuning_and_rabi(model, rf_field(860.0), rb22, np.zeros(3))
    assert rabi / KHZ == pytest.approx(69.98, abs=0.02)
    assert rabi / KHZ == pytest.approx(70.0, abs=0.5)


def test_rabi_projection_depends_on_polarization(rb22):
    model = benchmark_ip()
    # DC field at the center points along y: polarization along y couples nothing
    _, rabi_parallel = rf.detuning_and_rabi(
        model, rf_field(860.0, pol=(0.0, 1.0, 0.0)), rb22, np.zeros(3)
    )
    assert rabi_parallel / KHZ == pytest.approx(0.0, abs=1e-9)
    # at 45 degrees the perpendicular share is sin(45)
    _, rabi_45 = rf.detuning_and_rabi(
        model, rf_field(860.0, pol=(0.0, 1.0, 1.0)), rb22, np.zeros(3)
    )
    assert rabi_45 / KHZ == pytest.approx(69.98 / math.sqrt(2.0), abs=0.05)


# -- adiabatic connection -----------------------------------------------------------------

def test_adiabatic_branch_stretched_states(k92, rb22):
    assert rf.adiabatic_branch(rb22, -50.0 * KHZ) == Fraction(2)
    assert rf.adiabatic_branch(rb22, +50.0 * KHZ) == Fraction(-2)
    assert rf.adiabatic_branch(k92, +482.0 * KHZ) == Fraction(-9, 2)
    assert rf.adiabatic_branch(k92, -40.0 * KHZ) == Fraction(9, 2)


def test_adiabatic_branch_interior_state(registry):
    state = registry.state("Rb87", 2, 1)
    assert rf.adiabatic_branch(state, -10.0 * KHZ) == Fraction(1)
    assert rf.adiabatic_branch(state, +10.0 * KHZ) == Fraction(-1)


def _followed_branches(f, delta0, rabi_final, steps=200):
    """{m_F: m_F'} for each bare |f, m_F>, followed by overlap through the
    eigenstates of the RWA Hamiltonian -delta0 F_z + Omega F_x as Omega ramps
    geometrically from 1e-3 |delta0| to rabi_final."""
    m = np.arange(f, -f - 1.0, -1.0)
    fplus = np.diag(np.sqrt(f * (f + 1.0) - m[1:] * (m[1:] + 1.0)), k=1)
    fz, fx = np.diag(m), 0.5 * (fplus + fplus.T)
    followed = np.eye(m.size)  # columns: the bare states, in the order of m
    for rabi in np.geomspace(1e-3 * abs(delta0), rabi_final, steps):
        energies, vecs = np.linalg.eigh(-delta0 * fz + rabi * fx)
        picks = np.argmax(np.abs(vecs.T @ followed), axis=0)
        assert len(set(picks)) == m.size  # each state followed to its own level
        followed = vecs[:, picks]
    return dict(zip(m, energies[picks] / math.hypot(delta0, rabi_final)))


@pytest.mark.parametrize("ratio", [0.1, 1.0, 10.0, 100.0, 1e4])
def test_adiabatic_branch_closed_form(registry, ratio):
    # the Zeeman term only rotates the spin, so the label is -m_F sign(delta0)
    # however strong the coupling is against the detuning: each bare state,
    # followed as Omega ramps to ratio |delta0|, ends on the labelled branch
    rb = registry["Rb87"]
    for two_f in range(1, 10):
        f = Fraction(two_f, 2)
        for delta0 in (-1.0, +1.0):
            for m_f, branch in _followed_branches(float(f), delta0, ratio).items():
                state = C.SpinState(rb, f, Fraction(m_f), Fraction(1, 2))
                label = rf.adiabatic_branch(state, delta0 * 3.0 * KHZ)
                assert label == -state.m_F * int(delta0)
                assert float(label) == pytest.approx(branch, abs=1e-9)


def test_adiabatic_branch_at_resonance_is_bare_label(registry):
    # with no detuning the bare m_F labels the branch, whatever the coupling
    for m_f in range(-2, 3):
        state = registry.state("Rb87", 2, m_f)
        assert rf.adiabatic_branch(state, 0.0) == Fraction(m_f)


# -- dressed potentials --------------------------------------------------------------------

def test_zero_rabi_limit_kinked_at_resonance(rb22):
    model = benchmark_ip()
    field = rf.RFField(0.0, 2 * math.pi * 860e3, (0, 0, 1))
    scan = rf.dressed_potential(model, field, rb22, np.zeros(3), (1, 0, 0), 5e-6,
                                connect_at_omega=2 * math.pi * 800e3)
    assert scan.m_f_prime == Fraction(2)
    assert np.allclose(scan.u_eff, 2.0 * np.abs(scan.delta), rtol=1e-12)
    # |delta| has a genuine kink: the derivative jumps sign across resonance
    assert scan.delta.max() > 0 > scan.delta.min()


def test_dressed_potential_one_field_call(rb22):
    class Counting(tf.AnalyticIPField):
        calls = 0

        def field(self, r, **kwargs):
            self.calls += 1
            return super().field(r, **kwargs)

    ip = benchmark_ip()
    model = Counting(ip.b0, ip.b_prime, ip.b_double_prime)
    rf.dressed_potential(model, rf_field(860.0), rb22, np.zeros(3), (1, 0, 0), 10e-6, 512)
    assert model.calls == 1


def test_two_species_scans_take_one_kernel_pass(k92, rb22):
    # the second species scans the same points, which the field's kept array
    # pass answers with the bits a fresh field gives
    class Counting(tf.AnalyticIPField):
        passes = 0

        def _field_pass(self, r):
            self.passes += 1
            return super()._field_pass(r)

    ip = benchmark_ip()
    model = Counting(ip.b0, ip.b_prime, ip.b_double_prime)
    scans = [rf.dressed_potential(model, rf_field(860.0), state, np.zeros(3), (1, 0, 0), 10e-6)
             for state in (rb22, k92)]
    assert model.passes == 1
    fresh = rf.dressed_potential(benchmark_ip(), rf_field(860.0), k92, np.zeros(3), (1, 0, 0),
                                 10e-6)
    assert np.array_equal(scans[1].u_eff, fresh.u_eff)


def test_rb_double_well_and_k_single_well(k92, rb22):
    model = benchmark_ip()
    ramp_on = 2 * math.pi * 800e3
    scan_rb = rf.dressed_potential(
        model, rf_field(860.0), rb22, np.zeros(3), (1, 0, 0), 10e-6,
        connect_at_omega=ramp_on,
    )
    assert scan_rb.m_f_prime == Fraction(2)
    wells = rf.characterize_wells(scan_rb)
    assert wells.topology == "double"
    assert wells.separation == pytest.approx(3.59e-6, rel=0.01)
    assert wells.barrier_height / KHZ == pytest.approx(1.55, abs=0.05)
    for repulsion in wells.level_repulsion:
        assert repulsion / KHZ == pytest.approx(70.0, abs=1.0)
    # symmetric trap: wells mirror each other
    assert wells.well_positions[0] == pytest.approx(-wells.well_positions[1], rel=1e-6)

    scan_k = rf.dressed_potential(
        model, rf_field(860.0), k92, np.zeros(3), (1, 0, 0), 10e-6,
        connect_at_omega=ramp_on,
    )
    assert scan_k.m_f_prime == Fraction(-9, 2)
    wells_k = rf.characterize_wells(scan_k)
    assert wells_k.topology == "single"
    assert abs(wells_k.well_positions[0]) < 0.05e-6


def test_k_single_well_curvature_nearly_undressed(k92):
    model = benchmark_ip()
    scan = rf.dressed_potential(
        model, rf_field(860.0), k92, np.zeros(3), (1, 0, 0), 2e-6,
        connect_at_omega=2 * math.pi * 800e3,
    )
    s, u = scan.positions, scan.u_eff
    h = s[1] - s[0]
    i0 = int(np.argmin(np.abs(s)))
    curv_dressed = (u[i0 + 1] - 2 * u[i0] + u[i0 - 1]) / h**2
    pts = np.stack([s, np.zeros_like(s), np.zeros_like(s)], axis=-1)
    u_bare = C.magnetic_moment(k92) * np.linalg.norm(model.field(pts), axis=-1)
    curv_bare = (u_bare[i0 + 1] - 2 * u_bare[i0] + u_bare[i0 - 1]) / h**2
    assert curv_dressed == pytest.approx(curv_bare, rel=0.05)


def test_below_resonance_single_well(rb22):
    model = benchmark_ip()
    scan = rf.dressed_potential(model, rf_field(800.0), rb22, np.zeros(3), (1, 0, 0), 3e-6)
    assert scan.m_f_prime == Fraction(2)
    wells = rf.characterize_wells(scan)
    assert wells.topology == "single"
    assert abs(wells.well_positions[0]) < 0.05e-6


def test_scan_invariant_enforced(rb22):
    model = benchmark_ip()
    scan = rf.dressed_potential(model, rf_field(860.0), rb22, np.zeros(3), (1, 0, 0), 5e-6)
    with pytest.raises(ValueError):
        rf.DressedPotentialScan(
            state=scan.state,
            m_f_prime=scan.m_f_prime,
            positions=scan.positions,
            u_eff=scan.u_eff * 1.001,
            delta=scan.delta,
            rabi=scan.rabi,
            axis=scan.axis,
            center=scan.center,
        )


def test_rwa_warning_and_violation(rb22):
    model = benchmark_ip()
    with pytest.warns(rf.RWAWarning):
        rf.dressed_potential(
            model,
            rf.RFField(0.5 * C.GAUSS, 2 * math.pi * 860e3, (0, 0, 1)),
            rb22,
            np.zeros(3),
            (1, 0, 0),
            2e-6,
        )
    with pytest.raises(rf.RWAViolationError):
        rf.dressed_potential(
            model,
            rf.RFField(1.5 * C.GAUSS, 2 * math.pi * 860e3, (0, 0, 1)),
            rb22,
            np.zeros(3),
            (1, 0, 0),
            2e-6,
        )


def test_level_ordering_and_resonant_gap(rb22):
    # the dressed levels m_F' sqrt(delta^2 + Omega^2), m_F' = -2..2, of one scan
    scan = rf.dressed_potential(benchmark_ip(), rf_field(860.0), rb22, np.zeros(3), (1, 0, 0),
                                5e-6)
    levels = {m: m * np.hypot(scan.delta, scan.rabi) for m in range(-2, 3)}
    sample = [levels[m][1234] for m in range(-2, 3)]
    assert all(a < b for a, b in zip(sample, sample[1:]))
    # at the resonance point the adjacent-level gap equals the local Rabi energy
    i_res = int(np.argmin(np.abs(scan.delta)))
    gap = levels[2][i_res] - levels[1][i_res]
    assert gap == pytest.approx(float(scan.rabi[i_res]), rel=1e-3)


def test_avoided_crossing_floor(rb22):
    model = benchmark_ip()
    scan = rf.dressed_potential(model, rf_field(860.0), rb22, np.zeros(3), (1, 0, 0), 10e-6)
    gap = np.hypot(scan.delta, scan.rabi)  # adjacent-level spacing
    assert gap.min() >= scan.rabi.min() > 0


def test_ambiguous_topology_raises(rb22):
    s = np.linspace(-5e-6, 5e-6, 2001)
    rabi = np.full_like(s, 10.0 * KHZ)
    delta = 50.0 * KHZ * np.sin(s / 1e-6)  # several resonance crossings
    scan = rf.DressedPotentialScan(
        state=rb22,
        m_f_prime=Fraction(2),
        positions=s,
        u_eff=2.0 * np.hypot(delta, rabi),
        delta=delta,
        rabi=rabi,
        axis=np.array([1.0, 0.0, 0.0]),
        center=np.zeros(3),
    )
    with pytest.raises(rf.TopologyError):
        rf.characterize_wells(scan)


def reference_extrema(u):
    """Interior minima and maxima of u, one slope sign at a time: an extremum
    where a nonzero slope sign flips, skipping flat steps."""
    minima, maxima = [], []
    last_sign = 0
    for i, sign in enumerate(np.sign(np.diff(u))):
        if sign == 0:
            continue
        if last_sign < 0 and sign > 0:
            minima.append(i)
        elif last_sign > 0 and sign < 0:
            maxima.append(i)
        last_sign = sign
    return minima, maxima


def test_extrema_match_reference_loop():
    # random walks with flat runs (repeated values), plateaus at the ends and
    # the degenerate cases
    rng = np.random.default_rng(5)
    walks = [np.zeros(0), np.zeros(1), np.zeros(5), np.array([1.0, 0.0, 1.0]),
             np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])]
    for _ in range(200):
        steps = rng.choice([-1.0, 0.0, 1.0], size=rng.integers(2, 300), p=[0.4, 0.2, 0.4])
        walks.append(np.cumsum(steps * rng.uniform(0.5, 2.0, steps.size)))
    for u in walks:
        assert rf._extrema(u) == reference_extrema(u)


# -- eta relation -------------------------------------------------------------------------------

def test_eta_coefficients_exact(k92, rb22):
    slope, field_coeff = rf.eta_relation_coefficients(k92, rb22)
    assert slope == Fraction(9, 4)
    assert field_coeff == Fraction(5, 4)
    assert isinstance(slope, Fraction) and isinstance(field_coeff, Fraction)


def test_eta_always_above_nine_quarters(k92, rb22):
    for temp in (1e-7, 1e-6, 1e-4):
        eta_k = rf.eta_relation(k92, rb22, 8.0, 5.7 * C.GAUSS, temp)
        assert eta_k > 2.25 * 8.0


def test_eta_zero_field_limit(k92, rb22):
    assert rf.eta_relation(k92, rb22, 8.0, 0.0, 1e-6) == pytest.approx(18.0, rel=1e-14)


def test_eta_pure_dfg_floor(registry, rb22):
    states = [registry.state("K40", "9/2", Fraction(m, 2)) for m in range(-9, 10, 2)]
    eta_min, argmin = rf.eta_min_over_sublevels(states, rb22, 0.0, 5.7 * C.GAUSS, 220e-9)
    assert argmin.m_F == Fraction(1, 2)
    assert eta_min == pytest.approx(241.7, abs=0.2)
    assert eta_min > 220.0


def test_eta_monotone_decreasing_in_temperature(k92, rb22):
    temps = np.geomspace(5e-8, 5e-4, 12)
    etas = [rf.eta_relation(k92, rb22, 8.0, 5.7 * C.GAUSS, t) for t in temps]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_k_only_depth(k92, rb22):
    depth = rf.k_only_evaporation_depth(k92, rb22, 5.7 * C.GAUSS)
    assert depth / C.K_B * 1e6 == pytest.approx(478.6, abs=0.5)
    assert depth / C.K_B * 1e6 == pytest.approx(480.0, abs=5.0)
    assert rf.k_only_evaporation_depth(k92, rb22, 0.0) == 0.0


def test_k_only_depth_no_selectivity_if_equal_g(registry, rb22):
    fake_k = C.SpinState(registry["K40"], "9/2", "9/2", "1/2")
    assert rf.k_only_evaporation_depth(fake_k, rb22, 5.7 * C.GAUSS) == 0.0
