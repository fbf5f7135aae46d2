"""Every correctness check of the benchmark passes on the program's real
output and reports a failure when fed a wrong answer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import workloads
from cliload import Cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "fermichip" / "data"


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    wl = workloads.ThermoScan(0, tmp_path_factory.mktemp("scan"))
    inp = wl.items[0]
    profile = wl.run(inp)
    assert wl.check(inp, profile) == []
    with open(inp["path"]) as fh:
        rows = [tuple(float(v) for v in line.split(",")) for line in fh.readlines()[1:]]
    return inp, rows, profile


@pytest.fixture(scope="module")
def design(tmp_path_factory):
    wl = workloads.TrapDesign(0, tmp_path_factory.mktemp("trap"), DATA)
    inp = wl.items[0]
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    return inp, out


@pytest.fixture(scope="module")
def image(tmp_path_factory):
    wl = workloads.ImageFit(0, tmp_path_factory.mktemp("image"))
    inp = max(wl.items, key=lambda i: i["t"])   # fits fastest
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    return inp, out


def _with(rows, i, col, factor):
    rows = [list(r) for r in rows]
    rows[i][col] *= factor
    return [tuple(r) for r in rows]


def test_scan_rows_reject_wrong_values(scan):
    _, rows, _ = scan
    hot = len(rows) - 1                      # t = 5, where f_2/f_3 is near 1
    assert oracles.check_scan(rows, [hot]) == []
    assert oracles.check_scan(_with(rows, hot, 1, 1 + 1e-6), [hot])          # perturbed Z
    assert oracles.check_scan(_with(rows, hot, 3, 1 + 1e-7), [hot])          # E/N
    assert oracles.check_scan(_with(rows, hot, 4, 1 + 1e-7), [hot])          # n0 lambda^3
    assert oracles.check_scan(_with(rows, 0, 2, 1.02), [])                   # mu/E_F at t = 0.02
    swapped = list(rows)
    swapped[5], swapped[6] = (rows[5][0], *rows[6][1:]), (rows[6][0], *rows[5][1:])
    assert oracles.check_scan(swapped, [])                                   # Z rising with t


def test_profile_rejects_wrong_atom_number(scan):
    inp, _, profile = scan
    args = ("K40", inp["freqs"], inp["n_atoms"], inp["t_profile"], 1, inp["positions"], profile,
            inp["points"])
    assert oracles.check_profile(*args) == []
    wrong = list(args)
    wrong[2] = inp["n_atoms"] * 1.01
    assert oracles.check_profile(*wrong)


def test_field_and_minimum_reject_wrong_values(design):
    inp, out = design
    pos, b0 = out["minimum"].position, out["minimum"].b0
    pts = np.vstack([pos, inp["probe_points"]])
    b = out["model"].field(pts, guard=0.0)
    assert oracles.check_field(inp, pts, b) == []
    assert oracles.check_field(inp, pts, b * (1 + 1e-6))
    assert oracles.check_minimum(inp, pos, b0) == []
    assert oracles.check_minimum(inp, pos, b0 * (1 + 1e-6))
    assert oracles.check_minimum(inp, pos + 3e-6 * out["ip"].axes[:, 2], b0)


def test_depth_rejects_wrong_values(design):
    inp, out = design
    depth, pos = out["depth"], out["minimum"].position
    assert oracles.check_depth(inp, "K40", pos, depth.escape_direction, depth.depth) == []
    assert oracles.check_depth(inp, "K40", pos, depth.escape_direction, depth.depth * 1.05)
    assert oracles.check_depth(inp, "K40", pos, -depth.escape_direction, depth.depth)


def test_ip_fit_and_frequencies_reject_wrong_values(design):
    inp, out = design
    ip = out["ip"]
    args = [inp, ip.center, ip.axes, ip.b0, ip.b_prime, ip.b_double_prime]
    assert oracles.check_ip(*args) == []
    for k in (3, 4, 5):
        wrong = list(args)
        wrong[k] *= 1.05
        assert oracles.check_ip(*wrong)
    omega = out["ip_freqs"].omega
    assert oracles.check_ip_frequencies("K40", ip.b0, ip.b_prime, ip.b_double_prime, omega) == []
    assert oracles.check_ip_frequencies("K40", ip.b0, ip.b_prime, ip.b_double_prime, omega * 1.02)


def test_dressed_scan_rejects_wrong_values(design):
    inp, out = design
    rf = out["rf"]
    rf_doc = {"omega": rf.omega, "amplitude": rf.amplitude, "polarization": rf.polarization}
    scan, wells = out["dressed"]["Rb87"]
    doc = {"positions": scan.positions, "delta": scan.delta, "rabi": scan.rabi,
           "m_f_prime": scan.m_f_prime, "centre": scan.center, "axis": scan.axis}
    w = {"topology": wells.topology, "well_positions": wells.well_positions,
         "barrier_height": wells.barrier_height}
    assert oracles.check_dressed(inp, "Rb87", rf_doc, out["ramp"], doc, w) == []
    assert oracles.check_dressed(inp, "Rb87", rf_doc, out["ramp"], dict(doc, delta=doc["delta"] * (1 + 1e-6)), w)
    assert oracles.check_dressed(inp, "Rb87", rf_doc, out["ramp"], dict(doc, m_f_prime=-2), w)
    assert oracles.check_dressed(inp, "Rb87", rf_doc, out["ramp"], doc, dict(w, topology="single"))
    shifted = [p + 0.5e-6 for p in w["well_positions"]]
    assert oracles.check_dressed(inp, "Rb87", rf_doc, out["ramp"], doc, dict(w, well_positions=shifted))
    assert oracles.check_dressed(inp, "Rb87", rf_doc, out["ramp"], doc,
                                 dict(w, barrier_height=w["barrier_height"] * 1.05))


def test_image_and_fits_reject_wrong_values(image):
    inp, out = image
    clean = out["clean"]
    args = ("K40", workloads.PAPER_TRAP_HZ, inp["N"], inp["t"], 10e-3, 16e-6)
    assert oracles.check_image(*args, clean, inp["pixels"]) == []
    assert oracles.check_image(*args, clean * (1 + 1e-6), inp["pixels"])
    gauss, fd = out["gauss"], out["fd"]
    g = {"N": gauss.params["N"], "chi2": gauss.chi2, "reduced_chi2": gauss.reduced_chi2}
    f = {"N": fd.params["N"], "T_over_TF": fd.params["T_over_TF"], "chi2": fd.chi2,
         "reduced_chi2": fd.reduced_chi2}
    truth = oracles.image_truth("K40", workloads.PAPER_TRAP_HZ, inp["N"], inp["t"], 10e-3, 16e-6,
                                clean.shape, 0.02)
    assert oracles.check_fits(truth, g, f, clean.size) == []
    assert oracles.check_fits(dict(truth, N=fd.params["N"] * 1.03), g, f, clean.size)
    assert oracles.check_fits(truth, g, dict(f, reduced_chi2=1.2), clean.size)
    assert oracles.check_fits(truth, dict(g, chi2=fd.chi2 * (1 - 1e-5)), f, clean.size)
    assert oracles.check_fits(truth, dict(g, chi2=fd.chi2 * (1 - 1e-9)), f, clean.size) == []  # a tie
    degenerate = dict(truth, t=0.1, sigma_t=0.005)
    assert oracles.check_fits(degenerate, g, dict(f, T_over_TF=0.1), clean.size) == []
    assert oracles.check_fits(degenerate, g, dict(f, T_over_TF=0.13), clean.size)


def test_evap_rejects_wrong_values():
    from fermichip import cli

    for preset in ("libbrecht-loop", "ioffe-c", "reichel-z", "toronto-z"):
        report = cli._evap_preset(preset, 3e-6)
        assert oracles.check_evap(report) == []
        assert oracles.check_evap(dict(report, n_max=report["n_max"] * 1.01))
        assert oracles.check_evap(dict(report, gamma_coll_hz=report["gamma_coll_hz"] * 1.01))


def test_cli_artifact_checks_reject_wrong_values(tmp_path):
    wl = Cli(0, tmp_path, ROOT)
    (tmp_path / "evap_reichel-z.json").write_text('{"n_max": 1}\n')
    (tmp_path / "evap_run.json").write_text('{"n_max": 1}\n')
    assert wl._check_run(None) == []
    (tmp_path / "evap_run.json").write_text('{"n_max": 1.0}\n')
    assert wl._check_run(None)
    (tmp_path / "paper.json").write_text(json.dumps([{"name": "c1", "passed": True}]))
    assert wl._check_paper_check(None) == []
    (tmp_path / "paper.json").write_text(json.dumps([{"name": "c1", "passed": False}]))
    assert wl._check_paper_check(None)
    cmd = {"name": "run", "argv": []}
    assert wl.check(cmd, None)               # evap_run.json still differs
    (tmp_path / "evap_run.json").write_text('{"n_max": 1}\n')
    assert wl.check(cmd, None)               # and now differs from the bytes first seen


def test_cli_dress_check_rejects_a_wrong_field(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    wl = Cli(0, tmp_path, ROOT)
    trap = next(c for c in wl.items if "toronto-split-trap" in c["argv"])
    dress = next(c for c in wl.items if "rb-doublewell" in c["argv"])
    wl.run(trap)
    wl.run(dress)
    assert wl._check_dress(dress) == []
    report_path = tmp_path / "dress_rb-doublewell_report.json"
    report = json.loads(report_path.read_text())
    csv_path = tmp_path / "dress_rb-doublewell_rb87.csv"
    lines = csv_path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    # the scan of a field 1e-6 too strong: a larger Zeeman splitting, a smaller detuning
    s, u, delta, rabi = rows.T
    delta = delta - (report["rf_khz"] - delta) * 1e-6
    u = np.sign(u) * np.hypot(delta, rabi)
    csv_path.write_text("\n".join([lines[0]] + [",".join(f"{v:.17g}" for v in row)
                                                for row in zip(s, u, delta, rabi)]) + "\n")
    assert wl._check_dress(dress)
    csv_path.write_text("\n".join(lines) + "\n")
    assert wl._check_dress(dress) == []
    report_path.write_text(json.dumps(dict(report, b0_gauss=report["b0_gauss"] * (1 + 1e-6))))
    assert wl._check_dress(dress)


def test_oracle_fugacity_matches_sommerfeld_limit():
    t = 0.02
    assert math.isclose(t * oracles.ln_fugacity(t), 1 - math.pi**2 * t**2 / 3, rel_tol=1e-6)


def test_benchmark_json_lists_the_metrics_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
