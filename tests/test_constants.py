import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from fermichip import constants as C


def test_planck_relation():
    assert C.H_PLANCK == pytest.approx(2.0 * math.pi * C.HBAR, rel=1e-12)


def test_bohr_magneton_in_mhz_per_gauss():
    mhz_per_gauss = C.MU_B / C.H_PLANCK * C.GAUSS / 1e6
    assert mhz_per_gauss == pytest.approx(1.39962, rel=1e-4)


def test_codata_values_to_four_figures():
    assert C.K_B == pytest.approx(1.381e-23, rel=5e-4)
    assert C.HBAR == pytest.approx(1.055e-34, rel=5e-4)
    assert C.MU_0 == pytest.approx(1.257e-6, rel=5e-4)
    assert C.ATOMIC_MASS_UNIT == pytest.approx(1.661e-27, rel=5e-4)


def test_species_masses(registry):
    assert registry["K40"].mass == pytest.approx(39.9640 * C.ATOMIC_MASS_UNIT, rel=1e-5)
    assert registry["Rb87"].mass == pytest.approx(86.9092 * C.ATOMIC_MASS_UNIT, rel=1e-5)


def test_rb_scattering_length(registry):
    assert registry["Rb87"].s_wave_scattering_length == pytest.approx(5.3e-9)


def test_magnetic_moment_stretched_states(k92, rb22):
    # both stretched states have m_F g_F = 1 exactly
    assert k92.moment_factor == 1 == rb22.moment_factor
    assert C.magnetic_moment(k92) == C.magnetic_moment(rb22) == pytest.approx(C.MU_B)


def test_magnetic_moment_zero_projection(registry):
    state = registry.state("Rb87", 2, 0)
    assert C.magnetic_moment(state) == 0.0


def test_trappable_flags(registry):
    assert registry.state("K40", "9/2", "9/2").trappable
    assert not registry.state("K40", "9/2", "-9/2").trappable


def test_mf_bound_enforced(registry):
    with pytest.raises(ValueError):
        registry.state("Rb87", 2, 3)
    # m_F runs from -F to F in steps of 1, and F is a multiple of 1/2
    for m_f in (1, "0.3", "1/3"):
        with pytest.raises(ValueError, match="by an integer"):
            registry.state("K40", "9/2", m_f)
    for f in ("3/4", "-1/2"):
        with pytest.raises(ValueError, match="half-integer"):
            C.SpinState(registry["K40"], f, f, Fraction(2, 9))


def test_g_factors_exact_rationals(k92, rb22):
    assert k92.g_F == Fraction(2, 9)
    assert rb22.g_F == Fraction(1, 2)
    with pytest.raises(ValueError):
        # inexact float cannot silently become a rational g-factor
        C._as_fraction(0.2222222)


def test_registry_extendable(registry):
    li6 = C.AtomSpecies("Li6", 6.0151228 * C.ATOMIC_MASS_UNIT)
    extended = C.SpeciesRegistry(
        {**registry.species, "Li6": li6},
        {**registry.g_factors, "Li6": {Fraction(3, 2): Fraction(2, 3)}},
    )
    st = extended.stretched_state("Li6")
    assert st.F == Fraction(3, 2) and st.trappable
    assert extended.stretched_state("K40") == registry.stretched_state("K40")


def csv_writer_reference(path, header, columns):
    """write_csv as one csv.writer row per line, each value formatted on its own."""
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") for v in row] for row in rows)


def test_write_csv_bytes_match_csv_writer(tmp_path):
    special = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0 / 3.0, 123456789.0, 1e17, -7]
    rng = np.random.default_rng(3)
    scattered = rng.normal(size=len(special)) * 10.0 ** rng.integers(-30, 30, len(special))
    header = ["a", "b,quoted", "c"]
    # three columns, one column, and no rows at all
    for cols in ([special, special[::-1], scattered], [special], [[], []]):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        C.write_csv(new, header[: len(cols)], cols)
        csv_writer_reference(old, header[: len(cols)], cols)
        assert new.read_bytes() == old.read_bytes()
