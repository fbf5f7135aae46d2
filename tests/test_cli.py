import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fermichip import benchmarks, cli, evaporation, imagefit, polylog, thermo
from fermichip import constants as C
from fermichip.constants import NumericalError
from fermichip.benchmarks import CheckRow
from fermichip.density import read_raster, write_raster


def run(argv):
    return cli.main([str(a) for a in argv])


# -- thermo -----------------------------------------------------------------------------

def test_thermo_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["thermo", "--species", "K40", "--n-atoms", "4e4", "--fbar-hz", "315",
         "--t-over-tf", "0.2", "--out", out]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["fermi_energy_uk"] == pytest.approx(0.939, rel=2e-3)
    assert doc["t_over_tf"] == pytest.approx(0.2)
    assert doc["fugacity"] > 1.0


def test_thermo_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["thermo", "--species", "Rb87", "--n-atoms", "1e5", "--fbar-hz", "220",
            "--temperature-uk", "0.5"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_thermo_scan_csv(tmp_path):
    scan = tmp_path / "scan.csv"
    code = run(
        ["thermo", "--species", "K40", "--n-atoms", "4e4", "--fx-hz", "823",
         "--fy-hz", "46", "--fz-hz", "823", "--t-over-tf", "0.2",
         "--out", tmp_path / "r.json", "--scan-out", scan,
         "--scan-min", "0.1", "--scan-max", "2.0", "--scan-points", "5"]
    )
    assert code == 0
    lines = scan.read_text().strip().splitlines()
    assert lines[0] == "T_over_TF,Z,mu_over_EF,E_per_N_over_EF,n0_lambda3"
    assert len(lines) == 6

    # the CLI writes its scan through the library writer
    k40 = C.builtin_species().stretched_state("K40")
    trap = thermo.HarmonicTrap.from_frequencies_hz(823, 46, 823)
    lib = tmp_path / "lib.csv"
    thermo.write_thermo_scan_csv(
        lib,
        lambda t: thermo.TrappedGasState.from_reduced_temperature(k40, trap, 4e4, t),
        np.geomspace(0.1, 2.0, 5),
    )
    assert scan.read_bytes() == lib.read_bytes()


THERMO_ARGS = ["thermo", "--species", "K40", "--n-atoms", "4e4", "--fbar-hz", "315",
               "--t-over-tf", "0.2"]


def _fail_quadrature(orders, z):
    # a NumericalError from a Fermi function; f_4 is first used after the
    # fugacity solve, so the error reaches main unwrapped
    if 4.0 in orders:
        raise NumericalError("fermi_fn failed (n=4.0)")
    return polylog.fermi_fns(orders, z)


def _nan_f3(orders, z):
    # a non-finite f_3 fails the fugacity solve
    values = polylog.fermi_fns(orders, z)
    return [f * math.nan if n == 3.0 else f for n, f in zip(orders, values)]


@pytest.mark.parametrize(
    "attr,failure,message",
    [
        ("fermi_fns", _fail_quadrature, "fermi_fn failed (n=4.0)"),
        ("fermi_fns", _nan_f3, "fugacity root find failed"),
    ],
    ids=["quadrature", "fugacity"],
)
def test_thermo_solver_failure_exits_3(tmp_path, capsys, monkeypatch, attr, failure, message):
    monkeypatch.setattr(thermo, attr, failure)
    assert run(THERMO_ARGS + ["--out", tmp_path / "r.json"]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "swap,message",
    [
        (("--fbar-hz", "inf"), "trap frequencies"),
        (("--fbar-hz", "nan"), "trap frequencies"),
        (("--n-atoms", "inf"), "atom number"),
        (("--n-atoms", "nan"), "atom number"),
        (("--t-over-tf", "inf"), "temperature must be positive and finite"),
    ],
    ids=["fbar-inf", "fbar-nan", "n-atoms-inf", "n-atoms-nan", "t-inf"],
)
def test_thermo_non_finite_input_is_config_error(tmp_path, capsys, swap, message):
    flag, value = swap
    argv = list(THERMO_ARGS)
    argv[argv.index(flag) + 1] = value
    assert run(argv + ["--out", tmp_path / "r.json"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err


@pytest.mark.parametrize(
    "flags",
    [["--t-over-tf", "1e100"], ["--scan-out", "scan.csv", "--scan-max", "1e120"]],
    ids=["t-over-tf", "scan-max"],
)
def test_thermo_classical_limit_is_config_error(tmp_path, capsys, flags):
    # past t ~ 5e99 the fugacity falls below the 1e-300 end of the solver's
    # bracket: an input out of range, not a failed root find
    argv = THERMO_ARGS + ["--out", tmp_path / "r.json"]
    argv += [tmp_path / f if f.endswith(".csv") else f for f in flags]
    assert run(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "classical regime" in err
    assert err.count("\n") == 1


def test_thermo_missing_trap_is_config_error(tmp_path):
    code = run(["thermo", "--species", "K40", "--n-atoms", "4e4", "--t-over-tf", "0.2"])
    assert code == cli.EXIT_CONFIG


def test_thermo_scan_too_deep_is_config_error(tmp_path, capsys):
    code = run(THERMO_ARGS + ["--out", tmp_path / "r.json", "--scan-out", tmp_path / "s.csv",
                              "--scan-min", "0.001"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")


# -- density / tof ------------------------------------------------------------------------

def test_density_profile_csv(tmp_path):
    out = tmp_path / "profile.csv"
    code = run(
        ["density", "--species", "K40", "--n-atoms", "4e4", "--fx-hz", "823",
         "--fy-hz", "46", "--fz-hz", "823", "--t-over-tf", "0.2",
         "--axis", "y", "--extent-um", "120", "--points", "41", "--out", out]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "y_m,density_m3"
    assert len(lines) == 42


GAS_ARGS = ["--species", "K40", "--n-atoms", "4e4", "--fbar-hz", "315", "--t-over-tf", "0.2"]


@pytest.mark.parametrize("zero_t", [False, True], ids=["finite-t", "zero-t"])
def test_density_far_out_is_zero(tmp_path, zero_t):
    # U(r) overflows to inf at the ends of the axis: the zero-density limit,
    # without an overflow warning (an error under this suite's filter)
    out = tmp_path / "profile.csv"
    argv = ["density", *GAS_ARGS, "--extent-um", "1e200", "--points", "5", "--out", out]
    assert run(argv + ["--zero-t"] * zero_t) == 0
    values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert values[0] == values[-1] == 0.0 and values[2] > 0.0


def test_tof_far_out_is_zero(tmp_path):
    out = tmp_path / "img.raster"
    argv = ["tof", *GAS_ARGS, "--pitch-um", "1e156", "--nx", "5", "--ny", "5", "--out", out]
    assert run(argv) == 0
    values, _ = read_raster(out)
    assert values[2, 2] > 0.0 and np.count_nonzero(values) == 1


def test_tof_csv_lists_every_pixel(tmp_path):
    # a row per pixel: its centre, as TofImage.axes gives it, and the raster's
    # value, all read back bit for bit
    out, csv_out = tmp_path / "img.raster", tmp_path / "img.csv"
    assert run(["tof", *GAS_ARGS, "--out", out, "--csv", csv_out]) == 0
    image = imagefit.TofImage.load(out)
    header, *lines = csv_out.read_text().splitlines()
    assert header == "x_m,y_m,column_density_m2"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    x, y = np.broadcast_arrays(*image.axes())
    assert rows.shape == (image.values.size, 3) == (64 * 64, 3)
    assert np.array_equal(rows, np.stack([x.ravel(), y.ravel(), image.values.ravel()], 1))


@pytest.mark.parametrize(
    "argv,message",
    [
        (["density", "--points", "0"], "--points"),
        (["density", "--extent-um", "nan"], "--extent-um"),
        (["density", "--extent-um", "-3"], "--extent-um"),
        (["tof", "--nx", "0"], "--nx"),
        (["tof", "--ny", "0"], "--ny"),
        (["thermo", "--scan-points", "0"], "--scan-points"),
        (["thermo", "--scan-min", "0"], "--scan-min"),
        (["tof", "--noise-frac", "-0.1"], "--noise-frac"),
        (["tof", "--noise-frac", "nan"], "--noise-frac"),
        (["tof", "--time-ms", "inf"], "--time-ms"),
        (["tof", "--time-ms", "nan"], "--time-ms"),
        (["tof", "--pitch-um", "inf"], "--pitch-um"),
    ],
    ids=["density-points-0", "density-extent-nan", "density-extent-negative", "tof-nx-0",
         "tof-ny-0", "thermo-scan-points-0", "thermo-scan-min-0", "tof-noise-negative",
         "tof-noise-nan", "tof-time-inf", "tof-time-nan", "tof-pitch-inf"],
)
def test_empty_or_non_finite_grid_is_config_error(tmp_path, capsys, argv, message):
    command, *flags = argv
    out = tmp_path / "out"
    extra = ["--scan-out", out] if command == "thermo" else ["--out", out]
    assert run([command, *GAS_ARGS, *flags, *extra]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_image(tmp_path_factory):
    """A 24x24 K40 time-of-flight raster with 2% noise, made once."""
    path = tmp_path_factory.mktemp("image") / "img.raster"
    assert run(["tof", *GAS_ARGS, "--nx", "24", "--ny", "24", "--pitch-um", "12",
                "--noise-frac", "0.02", "--out", path]) == 0
    return path


@pytest.mark.parametrize(
    "argv,message",
    [
        (["evap", "--preset", "toronto-z", "--rho0", "inf"], "--rho0"),
        (["evap", "--preset", "toronto-z", "--rho0", "nan"], "--rho0"),
        (["evap", "--preset", "reichel-z", "--rho0", "-1e-6"], "--rho0"),
        (["evap", "--preset", "ioffe-c", "--rho0", "1e-290"], "--rho0"),
        (["fit", "--noise-rms", "inf"], "--noise-rms"),
        (["fit", "--noise-rms", "nan"], "--noise-rms"),
        (["fit", "--noise-rms", "-1"], "--noise-rms"),
        (["fit", "--noise-rms", "1e-300"], "--noise-rms"),
    ],
    ids=["evap-rho0-inf", "evap-rho0-nan", "evap-rho0-negative", "evap-rho0-underflow",
         "fit-noise-inf", "fit-noise-nan", "fit-noise-negative", "fit-noise-out-of-scale"],
)
def test_non_finite_or_negative_value_is_config_error(tmp_path, capsys, small_image, argv,
                                                      message):
    command, *flags = argv
    out = tmp_path / "out.json"
    image = ["--image", small_image] if command == "fit" else []
    assert run([command, *image, *flags, "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_tof_raster_and_fit_roundtrip(tmp_path):
    img = tmp_path / "img.raster"
    code = run(
        ["tof", "--species", "K40", "--n-atoms", "4e4", "--fx-hz", "823",
         "--fy-hz", "46", "--fz-hz", "823", "--t-over-tf", "0.1",
         "--time-ms", "10", "--nx", "48", "--ny", "48", "--pitch-um", "10",
         "--noise-frac", "0.02", "--seed", "7", "--out", img]
    )
    assert code == 0
    values, pitch = read_raster(img)
    assert values.shape == (48, 48)
    assert pitch == pytest.approx(10e-6)

    fit_out = tmp_path / "fit.json"
    code = run(["fit", "--image", img, "--model", "both", "--out", fit_out])
    assert code == 0
    doc = json.loads(fit_out.read_text())
    assert doc["fermi-dirac"]["params"]["N"] == pytest.approx(4e4, rel=0.05)
    assert doc["chi2_ratio_gauss_over_fd"] > 1.5
    for model in ("gaussian", "fermi-dirac"):
        assert set(doc[model]["diagnostics"]) == {"nfev", "njev", "status"}


# `fit --model both` on 48x40 `tof` images (K40, 4e4 atoms, 823/46/823 Hz, 10 ms,
# 2% noise, seed 7) at T/T_F 0.1 and 1.2. The digits are those of fits started from
# the image's signed moments; they may move only with an intended change to the fits
FIT_REPORTS = {
    ("0.1", "10"): {
        "gaussian": {
            "params": {"N": 42652.38415940982, "r_x": 8.084461018927026e-05,
                       "r_y": 8.606717882534708e-05, "x0": 3.576123973736915e-07,
                       "y0": 2.9904635634457135e-07},
            "chi2": 2.275350869677441e+24, "reduced_chi2": 1.188172777899447e+21,
            "nfev": 11, "status": 2,
        },
        "fermi-dirac": {
            "params": {"N": 39847.6962957036, "T_over_TF": 0.09374943679702522,
                       "Z": 31520.560409680795, "r_x": 4.293758697517016e-05,
                       "r_y": 4.528062464460848e-05, "x0": 3.331630205379214e-07,
                       "y0": 3.155338323405906e-07},
            "chi2": 5.879832425122753e+23, "reduced_chi2": 3.072012761297154e+20,
            "nfev": 11, "status": 2,
        },
    },
    ("1.2", "20"): {
        "gaussian": {
            "params": {"N": 39914.339998712334, "r_x": 0.000154082821568767,
                       "r_y": 0.000162528601655591, "x0": 7.371679732671269e-07,
                       "y0": 6.023598617281536e-07},
            "chi2": 4.73042537477607e+22, "reduced_chi2": 2.4701960181598274e+19,
            "nfev": 7, "status": 2,
        },
        "fermi-dirac": {
            "params": {"N": 39831.776358496376, "T_over_TF": 1.0401577929377708,
                       "Z": 0.15082251089476295, "r_x": 0.0001528629020419276,
                       "r_y": 0.00016121151778943703, "x0": 7.340031892282284e-07,
                       "y0": 6.056074134307971e-07},
            "chi2": 4.721463388297631e+22, "reduced_chi2": 2.466804278107435e+19,
            "nfev": 8, "status": 2,
        },
    },
}


@pytest.mark.parametrize("t_over_tf,pitch_um", sorted(FIT_REPORTS))
def test_fit_report_pinned(tmp_path, t_over_tf, pitch_um):
    img, out = tmp_path / "img.raster", tmp_path / "fit.json"
    assert run(["tof", "--species", "K40", "--n-atoms", "4e4", "--fx-hz", "823", "--fy-hz", "46",
                "--fz-hz", "823", "--t-over-tf", t_over_tf, "--time-ms", "10", "--nx", "48",
                "--ny", "40", "--pitch-um", pitch_um, "--noise-frac", "0.02", "--seed", "7",
                "--out", img]) == 0
    assert run(["fit", "--image", img, "--model", "both", "--out", out]) == 0
    doc = json.loads(out.read_text())
    report = {model: {"params": doc[model]["params"], "chi2": doc[model]["chi2"],
                      "reduced_chi2": doc[model]["reduced_chi2"],
                      "nfev": doc[model]["diagnostics"]["nfev"],
                      "status": doc[model]["diagnostics"]["status"]}
              for model in ("gaussian", "fermi-dirac")}
    assert report == FIT_REPORTS[t_over_tf, pitch_um]


def test_fit_nonconvergence_is_numerical_error(tmp_path, capsys, monkeypatch):
    from fermichip import imagefit

    img = tmp_path / "img.raster"
    assert run(["tof", "--species", "K40", "--n-atoms", "4e4", "--fbar-hz", "315",
                "--t-over-tf", "0.2", "--nx", "48", "--ny", "48", "--out", img]) == 0
    monkeypatch.setattr(imagefit, "_MAX_NFEV", 3)
    assert run(["fit", "--image", img, "--model", "gauss"]) == cli.EXIT_NUMERICAL
    assert "did not converge in 3 evaluations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tof,message",
    [
        (["--nx", "2", "--ny", "2"], "fewer than 100 informative pixels"),
        (["--pitch-um", "1e5"], "empty image"),
        (None, "image has no positive signal"),
    ],
    ids=["few-pixels", "empty", "negative"],
)
def test_fit_uninformative_image_is_config_error(tmp_path, capsys, tof, message):
    img = tmp_path / "img.raster"
    if tof is None:
        write_raster(img, -np.ones((48, 48)), 8e-6)
    else:
        assert run(["tof", "--species", "K40", "--n-atoms", "4e4", "--fbar-hz", "200",
                    "--t-over-tf", "0.2", *tof, "--out", img]) == 0
    out = tmp_path / "fit.json"
    assert run(["fit", "--image", img, "--out", out]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def _dims(ny, nx):
    """A 48x48 raster whose header declares ny x nx pixels."""
    return lambda raw: raw[:8] + struct.pack(">II", ny, nx) + raw[16:]


@pytest.mark.parametrize(
    "damage,message",
    [
        (lambda raw: raw[:12], "truncated raster header: expected 32 bytes, found 12"),
        (lambda raw: raw[:32 + 100],
         "truncated raster data: 48x48 float64 needs 18432 bytes, found 100"),
        # a header whose dims overflow a size, checked before any buffer is made
        (_dims(0xFFFFFFFF, 0xFFFFFFFF), "truncated raster data: 4294967295x4294967295 float64 "
         f"needs {0xFFFFFFFF**2 * 8} bytes, found 18432"),
        (_dims(0, 5), "raster has no pixels: 0x5"),
    ],
    ids=["header", "data", "overflow", "no-pixels"],
)
def test_fit_truncated_raster_is_config_error(tmp_path, capsys, damage, message):
    img = tmp_path / "img.raster"
    code = run(
        ["tof", "--species", "K40", "--n-atoms", "4e4", "--fbar-hz", "315",
         "--t-over-tf", "0.2", "--nx", "48", "--ny", "48", "--out", img]
    )
    assert code == 0
    img.write_bytes(damage(img.read_bytes()))
    assert run(["fit", "--image", img]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


# -- trap / dress ---------------------------------------------------------------------------

def test_trap_report(tmp_path):
    out = tmp_path / "trap.json"
    code = run(["trap", "--geometry", "toronto-split-trap", "--species", "Rb87", "--out", out])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["b0_gauss"] == pytest.approx(1.214, abs=1e-4)
    freqs = doc["frequencies_hz"]
    assert freqs[0] == pytest.approx(13.7, rel=0.05)
    assert freqs[1] == pytest.approx(1230.0, rel=0.02)


@pytest.mark.parametrize("geometry", ["toronto-z-trap", "toronto-split-trap"])
@pytest.mark.parametrize("species", ["K40", "Rb87"])
def test_trap_report_deterministic(tmp_path, geometry, species):
    # the batched depth search gives byte-identical reports run to run
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["trap", "--geometry", geometry, "--species", species, "--out", out]) == 0
    doc = json.loads(a.read_text())
    assert doc["depth_j"] > 0 and doc["depth_mk"] > 0 and len(doc["escape_direction"]) == 3
    assert a.read_bytes() == b.read_bytes()


# K40 reports of the shipped geometries to the last digit: a change to how the
# field is evaluated (batching, segment order, blocks) must not move a bit
TRAP_REPORTS = {
    "toronto-z-trap": {
        "position_um": [-1.051189780714536e-14, -6.380860226365767e-14, 273.8797589957176],
        "frequencies_hz": [46.00024488679277, 817.3006307902962, 828.7391263403417],
        "depth_j": 1.408261095239575e-26,
        "escape_direction": [-0.3820196912922497, -0.8768056591166087, 0.2920150537319328],
        "ip_b0_gauss": 2.600000065555424,
        "ip_b_prime_t_per_m": 7.058965079124844,
        "ip_b_double_prime_t_per_m2": 597.7650123266136,
        "ip_residual_rms_gauss": 0.0007768707705205892,
    },
    "toronto-split-trap": {
        "position_um": [1.020040762749173e-17, -4.180050935601647e-15, 79.99999999733754],
        "frequencies_hz": [20.203374552643087, 1810.8196980222324, 1816.9029673022915],
        "depth_j": 6.709288041077497e-27,
        "escape_direction": [-0.4215573027455748, -0.8414188188170962, 0.3380884674790289],
        "ip_b0_gauss": 1.213999999247348,
        "ip_b_prime_t_per_m": 10.622628606049638,
        "ip_b_double_prime_t_per_m2": 115.30762715163598,
        "ip_residual_rms_gauss": 0.00039131375461382245,
    },
}


@pytest.mark.parametrize("geometry", sorted(TRAP_REPORTS))
def test_trap_report_pinned(tmp_path, geometry):
    out = tmp_path / "trap.json"
    assert run(["trap", "--geometry", geometry, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert {k: doc[k] for k in TRAP_REPORTS[geometry]} == TRAP_REPORTS[geometry]


@pytest.mark.parametrize("seed", ["0,0,nan", "0,inf,300", "1,2"])
def test_trap_bad_seed_is_config_error(capsys, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from a search on nan
        code = run(["trap", "--geometry", "toronto-z-trap", f"--seed-um={seed}"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --seed-um ") and "Traceback" not in err


def test_trap_seed_beyond_chip_is_config_error(capsys):
    # the z-trap's chip plane is z = 0, with the trap above it
    code = run(["trap", "--geometry", "toronto-z-trap", "--seed-um=0,0,-50"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "beyond the chip surface" in err


def test_trap_seed_on_trap_axis_reaches_trap(tmp_path, capsys):
    # 2 um above the chip, straight below the trap: the search's step in the
    # trust-region hard case is finite, and the report is the shipped trap's
    out = tmp_path / "trap.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["trap", "--geometry", "toronto-z-trap", "--seed-um=0,0,2", "--out", out])
    assert code == 0 and capsys.readouterr().err == ""
    position = json.loads(out.read_text())["position_um"]
    assert position == pytest.approx(TRAP_REPORTS["toronto-z-trap"]["position_um"], abs=1e-9)


# seeds straight above the central wire where the search met the trust-region
# hard case (a NaN step) before it was handled, as in test_trapfield.py
HARD_CASE_SEEDS_UM = {
    "toronto-z-trap": ["0,0,1.01", "0,0,1.5", "0,0,2", "0,0,5"],
    "toronto-split-trap": ["0,0,1.01", "0,0,1.5", "0,0,2"],
}


@pytest.mark.parametrize("geometry", sorted(HARD_CASE_SEEDS_UM))
def test_trap_seed_sweep(tmp_path, capsys, geometry):
    # 40 seeds above the chip, |x| <= 2 mm, |y| <= 1.5 mm, z log-uniform in
    # 1 um - 1 mm, and the hard-case seeds: every run exits 0, 2 or 3 with at
    # most one line on stderr and no traceback or warning, and a reported
    # minimum meets the search's gradient tolerance
    rng = np.random.default_rng(23)
    seeds = [
        ",".join(repr(float(v)) for v in (rng.uniform(-2e3, 2e3), rng.uniform(-1.5e3, 1.5e3),
                                          math.exp(rng.uniform(0.0, math.log(1e3)))))
        for _ in range(40)
    ]
    out = tmp_path / "trap.json"
    reached = 0
    for seed in seeds + HARD_CASE_SEEDS_UM[geometry]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["trap", "--geometry", geometry, f"--seed-um={seed}", "--out", out])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL), seed
        assert not caught and err.count("\n") <= 1, seed
        assert "Traceback" not in err and "Warning" not in err, seed
        if code == cli.EXIT_OK:
            assert err == "" and json.loads(out.read_text())["grad_norm_t_per_m"] <= 1e-10, seed
            reached += 1
    assert reached >= 30


def test_trap_search_into_chip_exits_3(capsys):
    # near (-4.06, -1.24) mm |B| has a minimum on the chip surface and falls
    # only through the chip; the search stops against it, not below it
    code = run(["trap", "--geometry", "toronto-z-trap", "--seed-um=-4060,-1236,5"])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "chip surface" in err
    assert "Traceback" not in err


MF_TRAP = ["trap", "--geometry", "toronto-z-trap", "--species", "K40", "--f-quantum", "9/2"]


def _mf_negative_config(tmp_path):
    params = dict(zip(("geometry", "species", "f_quantum"), MF_TRAP[2::2]), mf="-9/2")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "trap", "params": params}))
    return ["run", "--config", cfg]


@pytest.mark.parametrize(
    "argv",
    [lambda tmp: MF_TRAP + ["--mf", "-9/2"], _mf_negative_config],
    ids=["flag", "config"],
)
def test_negative_mf_parses_like_attached_value(tmp_path, capsys, argv):
    # -9/2 is a value, not an option, as in --mf=-9/2; that state of K40 is
    # high-field seeking, so the trap is no trap for it
    assert run(MF_TRAP + ["--mf=-9/2"]) == cli.EXIT_NUMERICAL
    attached = capsys.readouterr().err
    assert run(argv(tmp_path)) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == attached
    assert attached.startswith("numerical failure: ") and "non-positive" in attached


def test_negative_decimal_seed_parses_like_attached_value(capsys):
    # -.5,0,300 is a value, not an option, as in --seed-um=-.5,0,300
    assert run(["trap", "--seed-um=-.5,0,300"]) == cli.EXIT_OK
    attached = capsys.readouterr()
    assert run(["trap", "--seed-um", "-.5,0,300"]) == cli.EXIT_OK
    assert capsys.readouterr() == attached


@pytest.mark.parametrize("mf", ["1", "0.3", "1/3"], ids=["integer", "decimal", "third"])
def test_impossible_mf_is_config_error(capsys, mf):
    # the F = 9/2 manifold holds only m_F = -9/2, -7/2, ..., 9/2
    assert run(MF_TRAP + ["--mf", mf]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: m_F=") and "not differ from F=9/2" in err
    assert "Traceback" not in err


def test_unrecorded_f_is_config_error(capsys):
    # K40's g_F is on record for F = 9/2 only; the message is not quoted
    assert run(["trap", "--species", "K40", "--f-quantum", "7/2", "--mf", "1/2"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: no g_F on record for K40 F=7/2\n"


def test_trap_unknown_geometry(tmp_path):
    assert run(["trap", "--geometry", "no-such-trap"]) == cli.EXIT_CONFIG


def test_trap_geometry_missing_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"segments": [{"start_um": [0, 0, 0], "end_um": [1, 0, 0]}]}))
    assert run(["trap", "--geometry", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: geometry file {path} has no key 'current_a'\n")


def _geometry(*, segment=None, **keys):
    """A one-wire geometry file's text, with the given keys of its segment and
    of the file replaced."""
    doc = {"segments": [{"start_um": [-1000, 0, 0], "end_um": [1000, 0, 0], "current_a": 1.0,
                         **(segment or {})}],
           "bias_gauss": [0, 1, 0], "chip_plane": {"normal": [0, 0, -1], "offset_um": 0}}
    return json.dumps({**doc, **keys})


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1, 2]", "is not a JSON object"),
        ("{segments", "is not JSON: "),
        (_geometry(segments={"start_um": [0, 0, 0]}), "key 'segments' is not a list of objects"),
        (_geometry(segments=[[0, 0, 0]]), "key 'segments' is not a list of objects"),
        (_geometry(segment={"start_um": [math.nan, 0, 0]}),
         "key 'start_um' is [nan, 0.0, 0.0], not three finite numbers"),
        (_geometry(segment={"current_a": math.inf}), "key 'current_a' is inf, not a finite number"),
        (_geometry(segment={"start_um": [0, 0]}),
         "key 'start_um' is [0.0, 0.0], not three finite numbers"),
        (_geometry(bias_gauss=[0, 1]), "key 'bias_gauss' is [0.0, 1.0], not three finite numbers"),
        (_geometry(chip_plane={"normal": [0, -1], "offset_um": 0}),
         "key 'normal' is [0.0, -1.0], not three finite numbers"),
        (_geometry(chip_plane={"normal": [0, 0, 0], "offset_um": 0}),
         "key 'normal' is [0.0, 0.0, 0.0], not a unit vector"),
        (_geometry(chip_plane={"normal": [0, 0, -1], "offset_um": math.nan}),
         "key 'offset_um' is nan, not a finite number"),
    ],
    ids=["list", "not-json", "segments-object", "segment-list", "nan-start", "inf-current",
         "start-2", "bias-2", "normal-2", "normal-0", "nan-offset"],
)
def test_trap_malformed_geometry_is_config_error(tmp_path, capsys, text, message):
    # the message names the file and the key; at fault is the file, not the solver
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["trap", "--geometry", path, "--seed-um", "0,0,100"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: geometry file {path} {message}")
    assert err.count("\n") == 1


def test_trap_seed_on_wire_axis_exits_3(capsys):
    # the origin lies on the axis of the z-trap's central wire
    code = run(["trap", "--geometry", "toronto-z-trap", "--species", "K40", "--seed-um", "0,0,0"])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "from a wire axis" in err
    assert "Traceback" not in err


def test_dress_preset(tmp_path):
    prefix = tmp_path / "dw"
    code = run(["dress", "--preset", "rb-doublewell", "--out-prefix", prefix,
                "--points", "2048"])
    assert code == 0
    doc = json.loads((tmp_path / "dw_report.json").read_text())
    assert doc["species"]["Rb87"]["topology"] == "double"
    assert doc["species"]["K40"]["topology"] == "single"
    assert doc["species"]["Rb87"]["separation_um"] == pytest.approx(4.5, abs=1.0)
    rb_csv = (tmp_path / "dw_rb87.csv").read_text().splitlines()
    assert rb_csv[0] == "position_um,u_eff_khz,delta_khz,rabi_khz"
    assert len(rb_csv) == 2049


def test_dress_near_resonance_branch(tmp_path):
    # 1820 kHz lies 0.5 kHz above the Rb87 bottom resonance of the z-trap, and
    # the 70 kHz coupling is ~140 times that detuning: the stretched state
    # still joins the stretched branch -2
    prefix = tmp_path / "nr"
    code = run(["dress", "--geometry", "toronto-z-trap", "--rf-khz", "1820",
                "--out-prefix", prefix])
    assert code == 0
    doc = json.loads((tmp_path / "nr_report.json").read_text())
    assert doc["species"]["Rb87"]["m_f_prime"] == "-2"
    assert doc["species"]["K40"]["m_f_prime"] == "-9/2"


@pytest.mark.parametrize("preset", ["rb-doublewell", "k-doublewell"])
def test_dress_far_out_is_bias_field(tmp_path, preset):
    # ~1e194 m from the wires their squared distances overflow and the wire
    # terms are 0: every point sees the bias alone, without an overflow
    # warning (an error under this suite's filter)
    prefix = tmp_path / "far"
    code = run(["dress", "--preset", preset, "--extent-um", "1e200", "--points", "64",
                "--out-prefix", prefix])
    assert code == 0
    rows = (tmp_path / "far_rb87.csv").read_text().splitlines()[1:]
    assert len(rows) == 64 and len({row.split(",", 1)[1] for row in rows}) == 1


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--geometry", "toronto-split-trap", "--rf-khz", "-5"], "RF angular frequency"),
        (["--geometry", "toronto-split-trap", "--rf-khz", "100", "--amplitude-mg", "nan"],
         "RF amplitude"),
        (["--preset", "rb-doublewell", "--points", "0"], "--points"),
        (["--preset", "rb-doublewell", "--points", "1"], "--points"),
        (["--preset", "rb-doublewell", "--extent-um", "0"], "--extent-um"),
        (["--preset", "rb-doublewell", "--extent-um", "-5"], "--extent-um"),
        (["--geometry", "toronto-split-trap", "--rf-khz", "100", "--ramp-khz", "-5"],
         "--ramp-khz"),
        (["--geometry", "toronto-split-trap", "--rf-khz", "100", "--ramp-khz", "0"],
         "--ramp-khz"),
        (["--geometry", "toronto-split-trap"], "--rf-khz"),
        # a preset sets these, and an explicit value is not silently dropped
        (["--preset", "rb-doublewell", "--amplitude-mg", "0"], "--amplitude-mg"),
        (["--preset", "rb-doublewell", "--rf-khz", "860"], "--rf-khz"),
        (["--preset", "k-doublewell", "--geometry", "toronto-split-trap"], "--geometry"),
        (["--preset", "k-doublewell", "--ramp-khz", "338"], "--ramp-khz"),
    ],
    ids=["negative-rf", "nan-amplitude", "points-0", "points-1", "extent-0", "extent-negative",
         "negative-ramp", "ramp-zero", "no-rf", "preset-amplitude", "preset-rf",
         "preset-geometry", "preset-ramp"],
)
def test_dress_bad_input_is_config_error(tmp_path, capsys, argv, message):
    code = run(["dress", *argv, "--out-prefix", tmp_path / "dw"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err


# -- evap -------------------------------------------------------------------------------------

@pytest.mark.parametrize(
    "preset,v_um3,n_max",
    [
        ("libbrecht-loop", 305.0, 1.77e4),
        ("ioffe-c", 0.419, 0.374),
        ("reichel-z", 1.289e7, 1.15e7),
        ("toronto-z", 2.861e7, 2.263e7),
    ],
)
def test_evap_presets(tmp_path, preset, v_um3, n_max):
    out = tmp_path / f"{preset}.json"
    assert run(["evap", "--preset", preset, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["v_eff_um3"] == pytest.approx(v_um3, rel=5e-3)
    assert doc["n_max"] == pytest.approx(n_max, rel=5e-3)


def test_evap_choices_are_the_loading_presets():
    # the parser names the presets itself, so that no other command imports evaporation
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    preset = next(a for a in commands.choices["evap"]._actions if a.dest == "preset")
    assert preset.choices == list(evaporation.LOADING_PRESETS)


def test_evap_rho0_override(tmp_path):
    out = tmp_path / "evap.json"
    assert run(["evap", "--preset", "reichel-z", "--rho0", "1e-7", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_max"] == pytest.approx(1.15e6, rel=5e-3)


# -- run (config file) --------------------------------------------------------------------------

def test_run_config(tmp_path):
    out = tmp_path / "evap.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "evap", "params": {"preset": "ioffe-c", "out": str(out)}}))
    assert run(["run", "--config", cfg]) == 0
    assert json.loads(out.read_text())["n_max"] < 1.0


@pytest.mark.parametrize(
    "text",
    [
        json.dumps([{"command": "evap"}]),
        json.dumps({"params": {"preset": "ioffe-c"}}),
        json.dumps({"command": "evap", "params": {"preset": "ioffe-c"}, "x": 1}),
        json.dumps({"command": "explode"}),
        json.dumps({"command": "run", "params": {"config": "cfg.json"}}),
        json.dumps({"command": "evap", "params": ["--preset", "ioffe-c"]}),
        json.dumps({"command": "evap", "params": {"preset": "ioffe-c", "rho0": None}}),
        json.dumps({"command": "evap", "params": {"preset": {"name": "ioffe-c"}}}),
        '{"command": "evap", "params": {',
        json.dumps({"command": "evap", "params": {"preset": "ioffe-c", "bogus": 1}}),
        json.dumps({"command": "dress", "params": {"preset": "k-doublewell", "points": 512.0}}),
    ],
    ids=["list", "no-command", "unknown-key", "unknown-command", "run-command",
         "params-list", "null-param", "nested-param", "invalid-json", "unknown-param",
         "mistyped-param"],
)
def test_run_config_validation(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(["run", "--config", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert sum(line.startswith("configuration error:") for line in err.splitlines()) == 1
    assert "Traceback" not in err
    assert str(cfg) in err
    for param in ("bogus", "points"):
        assert (f'"{param}"' in text) == (f"--{param}" in err)


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["evap", "--preset", "reichel-z", "--bogus", "1"])
    assert err.value.code == 2


# -- paper-check --------------------------------------------------------------------------------

def test_paper_check_table(tmp_path, capsys, monkeypatch):
    out = tmp_path / "table.json"
    code = run(["paper-check", "--out", out])
    assert code == cli.EXIT_OK
    rows = json.loads(out.read_text())
    assert [r["name"] for r in rows if not r["passed"]] == []
    assert len(rows) > 35
    assert "PASS" in capsys.readouterr().out

    # one failing row turns the whole table into a benchmark failure
    real_rows = [CheckRow(**r) for r in rows]
    bad = CheckRow("injected-fail", "always fails", "1", "0 +/- 0", False)
    monkeypatch.setattr(benchmarks, "run_benchmarks", lambda: real_rows + [bad])
    code = run(["paper-check", "--out", out])
    assert code == cli.EXIT_BENCH_FAIL
    assert any(
        line.startswith("FAIL") and "injected-fail" in line
        for line in capsys.readouterr().out.splitlines()
    )
    rows = {r["name"]: r for r in json.loads(out.read_text())}
    assert rows["injected-fail"]["passed"] is False


# -- BLAS threads -------------------------------------------------------------------------------

def test_artifacts_independent_of_blas_threads(tmp_path):
    # each command as a fresh process writes the same bytes whether OpenBLAS
    # runs one thread or two
    image = tmp_path / "img.raster"
    assert run(["tof", "--species", "K40", "--n-atoms", "4e4", "--fx-hz", "823", "--fy-hz", "46",
                "--fz-hz", "823", "--t-over-tf", "0.1", "--time-ms", "10", "--nx", "48",
                "--ny", "48", "--noise-frac", "0.02", "--out", image]) == 0
    commands = [
        ["trap", "--geometry", "toronto-z-trap", "--out", "trap_z.json"],
        ["trap", "--geometry", "toronto-split-trap", "--out", "trap_split.json"],
        ["fit", "--image", str(image), "--model", "both", "--out", "fit.json"],
        ["dress", "--preset", "rb-doublewell", "--out-prefix", "rb"],
        ["dress", "--preset", "k-doublewell", "--out-prefix", "k"],
        ["paper-check", "--out", "table.json"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        workdir = tmp_path / f"threads-{threads}"
        workdir.mkdir()
        for argv in commands:
            subprocess.run([sys.executable, "-m", "fermichip.cli", *argv], cwd=workdir,
                           env={**env, "OPENBLAS_NUM_THREADS": threads},
                           capture_output=True, check=True)
        outputs[threads] = {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}
    assert len(outputs["1"]) == 10
    assert outputs["1"] == outputs["2"]


# -- deterministic JSON writer ------------------------------------------------------------------

def test_json_format_17_digits(tmp_path):
    path = tmp_path / "x.json"
    cli.write_json(path, {"a": 1.0 / 3.0, "b": [1, 2.5], "c": {"n": None, "t": True}})
    text = path.read_text()
    assert "0.33333333333333331" in text
    assert '"t": true' in text
    assert '"n": null' in text


def test_json_format_numpy_values():
    doc = {"a": np.array([[0.5, 1.0]]), "e": np.array([]), "f": np.float32(0.1),
           "g": np.float64(2.0), "i": np.int64(-3), "n": np.float64("nan")}
    assert cli._json_fmt(doc) == (
        '{\n  "a": [\n    [\n      0.5,\n      1\n    ]\n  ],\n  "e": [],\n'
        '  "f": 0.10000000149011612,\n  "g": 2,\n  "i": -3,\n  "n": "nan"\n}')


# -- exit codes ---------------------------------------------------------------------------------

@pytest.mark.parametrize(
    "exc,code,prefix",
    [(np.linalg.LinAlgError("Singular matrix"), cli.EXIT_NUMERICAL, "numerical failure: "),
     (ValueError("bad value"), cli.EXIT_CONFIG, "configuration error: ")],
    ids=["linalg", "value"],
)
def test_command_exception_maps_to_exit_code(capsys, monkeypatch, exc, code, prefix):
    # main matches numpy's LinAlgError without importing numpy itself
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_evap", fail)
    assert run(["evap", "--preset", "ioffe-c"]) == code
    assert capsys.readouterr().err == f"{prefix}{exc}\n"


# -- numeric flags, property test ---------------------------------------------------------------

EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -1.0]


NUMERIC_FLAGS = {
    "thermo": ["n_atoms", "fbar_hz", "t_over_tf", "scan_min", "scan_max"],
    "density": ["n_atoms", "fbar_hz", "t_over_tf", "extent_um"],
    "tof": ["n_atoms", "fbar_hz", "t_over_tf", "time_ms", "pitch_um", "noise_frac"],
    "fit": ["noise_rms"],
    "evap": ["rho0"],
    "dress": ["rf_khz", "ramp_khz", "amplitude_mg", "extent_um"],
}


@st.composite
def numeric_flags(draw, command):
    """The flags of `command`: up to two of its float flags take an edge value
    (nan, +-inf, 0 or -1), the others an ordinary one, log-uniform in a range,
    or for a flag with a far range, one draw in four (dress's extent: one in
    two) log-uniform in that; counts come only from small ranges, and dress's
    one draw in four below its least of 3 points."""
    edged = draw(st.sets(st.sampled_from(NUMERIC_FLAGS[command]), max_size=2))

    def value(name, lo, hi, far=None, odds=4):
        if name in edged:
            return draw(st.sampled_from(EDGE_VALUES))
        if far is not None and draw(st.integers(1, odds)) == odds:
            lo, hi = far
        return draw(st.floats(math.log(lo), math.log(hi)).map(math.exp))

    def count(hi):
        return draw(st.integers(-1, hi))

    if command == "fit":
        # the fits reject a noise rms out of scale with the image peak (~1e12)
        return {"model": draw(st.sampled_from(["gauss", "fd", "both"])),
                "noise_rms": value("noise_rms", 1e-320, 1e300)}
    if command == "evap":
        return {"preset": draw(st.sampled_from(sorted(evaporation.LOADING_PRESETS))),
                "rho0": value("rho0", 1e-9, 1.0)}
    if command == "dress":
        # below 0.3 B0 (364 mG on the split trap) the RF amplitude draws no
        # RWAWarning; past an extent of ~1e160 um the scan sees the bias alone,
        # which the valid runs reach only with the far range drawn often
        return {"rf_khz": value("rf_khz", 100.0, 3000.0),
                "ramp_khz": value("ramp_khz", 100.0, 3000.0),
                "amplitude_mg": value("amplitude_mg", 1.0, 300.0),
                "extent_um": value("extent_um", 0.1, 50.0, far=(1e30, 1e300), odds=2),
                "points": count(2) if draw(st.integers(0, 3)) == 3 else draw(st.integers(3, 48))}
    flags = {"species": draw(st.sampled_from(["K40", "Rb87"])),
             "n_atoms": value("n_atoms", 1.0, 1e7), "fbar_hz": value("fbar_hz", 1.0, 1e4),
             "t_over_tf": value("t_over_tf", 1e-3, 30.0, far=(1e30, 1e120))}
    # the far ranges straddle the limits: T/T_F past ~5e99 is out of range
    # (exit 2); a potential that overflows far out, past an extent of ~1e156 um
    # or a pitch of ~1e150 um, is zero density
    if command == "thermo":
        flags.update(scan_min=value("scan_min", 1e-3, 1.0),
                     scan_max=value("scan_max", 0.5, 30.0, far=(1e30, 1e120)),
                     scan_points=count(8))
    elif command == "density":
        flags.update(extent_um=value("extent_um", 0.1, 1e3, far=(1e30, 1e250)),
                     points=count(40), zero_t=draw(st.booleans()))
    else:
        flags.update(time_ms=value("time_ms", 1e-3, 100.0),
                     pitch_um=value("pitch_um", 0.1, 100.0, far=(1e30, 1e200)),
                     noise_frac=value("noise_frac", 1e-4, 1.0), nx=count(24), ny=count(24),
                     seed=draw(st.integers(0, 9)))
    return flags


def _outputs(command, work, image):
    if command == "thermo":
        return {"out": work / "thermo.json", "scan_out": work / "scan.csv"}
    if command == "dress":
        return {"out_prefix": work / "dress"}
    if command == "fit":
        return {"image": image, "out": work / "fit.json"}
    return {"out": work / f"{command}.out"}


@pytest.mark.parametrize("command", ["thermo", "density", "tof", "fit", "evap", "dress"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_numeric_flags_exit_cleanly(small_image, command, data):
    # each command, directly or through `run --config`, exits 0, 2 or 3 with at
    # most one line on stderr and no traceback or warning; a non-finite value
    # is a configuration error
    flags = data.draw(numeric_flags(command), label="flags")
    params = {**flags, **{k: str(v) for k, v in _outputs(command, small_image.parent,
                                                         small_image).items()}}
    if data.draw(st.booleans(), label="via config"):
        config = small_image.parent / "config.json"
        config.write_text(json.dumps({"command": command, "params": params}))
        argv = ["run", "--config", config]
    else:
        argv = [command] + [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
                            for key, value in params.items() if value is not False]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = run(argv)
    err = stderr.getvalue()
    # dress's far extents reach past ~1e160 um, where the wire field overflows
    far = command == "dress" and flags["extent_um"] > 1e160
    event(f"exit {code}" + (", extent past 1e160 um" if far else ""))
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    assert err.count("\n") <= 1 and "Traceback" not in err and "Warning" not in err
    assert [str(w.message) for w in caught] == []
    if any(isinstance(v, float) and not math.isfinite(v) for v in flags.values()):
        assert code == cli.EXIT_CONFIG and err.startswith("configuration error: ")


# -- every flag has a test --------------------------------------------------------------

def _passed_by_tests() -> set[str]:
    """The strings and keyword names in the test files: a flag a test passes
    appears there as "--flag" (or "--flag=value"), or as the `run --config`
    params key flag_name, written as a string or a keyword argument."""
    passed = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                passed.add(node.value.split("=", 1)[0])
            elif isinstance(node, ast.keyword) and node.arg:
                passed.add(node.arg)
    return passed


def test_every_flag_is_passed_by_a_test():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    passed = _passed_by_tests()
    untested = sorted(
        f"{name} {flag}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
        and flag not in passed and flag[2:].replace("-", "_") not in passed
    )
    assert untested == []


# the options that name a file to read or write
FILE_FLAGS = {"--out", "--scan-out", "--csv", "--out-prefix", "--image", "--geometry", "--config"}


def test_every_file_flag_fails_cleanly_on_a_bad_path(tmp_path, capsys, small_image):
    # each option that names a file, pointed at a directory (or, for a prefix,
    # at a path under a regular file), is a configuration error on one line;
    # each command's other arguments are valid, and the bad path comes last
    regular = tmp_path / "regular"
    regular.write_text("")
    others = {
        "thermo": GAS_ARGS,
        "density": [*GAS_ARGS, "--points", "5", "--out", tmp_path / "d.csv"],
        "tof": [*GAS_ARGS, "--nx", "8", "--ny", "8", "--out", tmp_path / "t.raster"],
        "trap": [],
        "dress": ["--geometry", "toronto-z-trap", "--rf-khz", "1820", "--points", "64"],
        "evap": ["--preset", "reichel-z"],
        "fit": ["--image", small_image, "--model", "gauss"],
        "paper-check": [],
        "run": [],
    }
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    tried, failed = set(), []
    for name, sub in commands.choices.items():
        for flag in [f for a in sub._actions for f in a.option_strings if f in FILE_FLAGS]:
            tried.add(flag)
            bad = regular / "x" if flag == "--out-prefix" else tmp_path
            code = run([name, *others[name], flag, bad])
            err = capsys.readouterr().err
            if not (code == cli.EXIT_CONFIG and err.startswith("configuration error: ")
                    and err.count("\n") == 1 and "Traceback" not in err):
                failed.append((name, flag, code, err))
    assert tried == FILE_FLAGS
    assert failed == []
