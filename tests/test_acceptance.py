"""Acceptance gate: every benchmark row asserted at its stated tolerance.

Each test prints one PASS/FAIL line per row it covers (visible with -s, and in
the captured output of failures).  Run the same table from the command line
with `fermichip paper-check`.
"""

import pytest

from fermichip.benchmarks import run_benchmarks


@pytest.fixture(scope="module")
def rows():
    table = {}
    for row in run_benchmarks():
        table[row.name] = row
    return table


def _assert_rows(rows, names):
    missing = [n for n in names if n not in rows]
    assert not missing, f"benchmark rows missing: {missing}"
    failed = []
    for name in names:
        row = rows[name]
        status = "PASS" if row.passed else "FAIL"
        print(f"{status} {row.name}: computed {row.computed}, target {row.target}")
        if not row.passed:
            failed.append(row)
    assert not failed, "; ".join(
        f"{r.name}: computed {r.computed} vs target {r.target}" for r in failed
    )


def test_criterion_1_degeneracy_constants(rows):
    _assert_rows(rows, ["c1-fermi-degeneracy", "c1-bose-degeneracy",
                        "c1-unit-fugacity-temperature"])


def test_criterion_2_zero_temperature_energy(rows):
    # The harmonic trap gives E/N -> 3/4 E_F; 3/5 E_F is the uniform-gas value.
    _assert_rows(rows, ["c2-zero-t-energy"])


def test_criterion_2_boltzmann_energy(rows):
    _assert_rows(rows, ["c2-boltzmann-energy"])


def test_criterion_3_chemical_potential_forms(rows):
    _assert_rows(rows, ["c3-mu-low", "c3-mu-high"])


def test_criterion_4_discrete_sum_oracle(rows):
    _assert_rows(rows, ["c4-discrete-oracle"])


def test_criterion_5_trap_volume_examples(rows):
    _assert_rows(
        rows,
        [
            "c5-reichel-volume",
            "c5-reichel-atoms",
            "c5-libbrecht-volume",
            "c5-libbrecht-atoms",
            "c5-ioffe-volume",
            "c5-ioffe-atoms",
            "c5-toronto-volume",
        ],
    )


def test_criterion_6_start_temperature_and_rate(rows):
    _assert_rows(rows, ["c6-min-start-temperature", "c6-collision-rate"])


def test_criterion_7_eta_algebra(rows):
    _assert_rows(rows, ["c7-eta-coefficients", "c7-eta-k-floor", "c7-k-only-depth"])


def test_criterion_8_dressed_potential_anchors(rows):
    _assert_rows(
        rows,
        [
            "c8-rb-detuning",
            "c8-k-detuning",
            "c8-rabi",
            "c8-k-shell-energy",
            "c8-rb-topology",
            "c8-k-topology",
            "c8-separation",
            "c8-barrier",
        ],
    )


def test_criterion_9_fit_discrimination(rows):
    _assert_rows(
        rows,
        ["c9-chi2-degenerate", "c9-chi2-boltzmann", "c9-apparent-t-low",
         "c9-apparent-t-high"],
    )


def test_criterion_10_scaling_properties(rows):
    _assert_rows(
        rows,
        ["c10-volume-exponents", "c10-atom-number-exponent", "c10-current-exponent"],
    )


def test_criterion_11_numerical_hygiene(rows):
    _assert_rows(
        rows,
        ["c11-polylog-seams", "c11-gaussian-reduction", "c11-maxwell",
         "c11-ip-frequencies"],
    )
