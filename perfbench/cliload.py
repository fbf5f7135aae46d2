"""The `cli` workload: one fixed cycle of README commands, each run as a fresh
`python3 -m fermichip.cli` process, one at a time, with the default --jobs.

Only the parameters of the thermo, density, tof and evap commands come from
the seed; trap, dress and paper-check use the shipped inputs.  This module
does not import fermichip: every artifact is checked with perfbench.oracles.
"""

from __future__ import annotations

import csv
import json
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from inputs import PAPER_N, PAPER_TRAP_HZ, load_design

HERE = Path(__file__).resolve().parent
EVAP_PRESETS = ("libbrecht-loop", "ioffe-c", "reichel-z", "toronto-z")
PITCH_UM = 16.0
IMAGE_PX = 48
TOF_MS = 10.0
NOISE_FRAC = 0.02
COMMAND_TIMEOUT_S = 60.0
# relative, dress scans against the closed form: the scan axis the checks
# take from a finite-difference Hessian is good to about 1e-8 rad, which
# moves the closed-form detuning by up to 4e-9 of its largest value
DRESS_TOL = 1e-7


class CommandFailed(RuntimeError):
    pass


class Cli:
    def __init__(self, seed: int, workdir: Path, root: Path, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.data_dir = root / "src" / "fermichip" / "data"
        self.artifacts = {}
        rng = np.random.default_rng([seed, 4])
        u = rng.uniform(size=6)
        freqs = tuple(float(f * (0.9 + 0.2 * u[i])) for i, f in enumerate(PAPER_TRAP_HZ))
        self.gas = {"freqs": freqs, "N": float(PAPER_N * 10 ** (0.2 * u[3] - 0.1)),
                    "t": float(np.exp(np.log(0.05) + u[4] * np.log(2.0 / 0.05)))}
        self.image = {"t": float(np.exp(np.log(0.08) + u[5] * np.log(1.5 / 0.08))),
                      "N": float(10 ** rng.uniform(4.0, 5.0)), "seed": int(rng.integers(2**31))}
        self.rho0 = {p: float(10 ** rng.uniform(-7.0, -5.0)) for p in EVAP_PRESETS}
        self.scan_rows = sorted(rng.choice(25, 4, replace=False).tolist())
        self.profile_rows = sorted(rng.choice(401, 5, replace=False).tolist())
        (workdir / "run.json").write_text(json.dumps({
            "command": "evap",
            "params": {"preset": "reichel-z", "rho0": self.rho0["reichel-z"],
                       "out": str(workdir / "evap_run.json")},
        }))
        self.items = self._commands()

    def _gas_args(self, gas):
        fx, fy, fz = gas["freqs"]
        return ["--species", "K40", "--n-atoms", repr(gas["N"]), "--fx-hz", repr(fx),
                "--fy-hz", repr(fy), "--fz-hz", repr(fz), "--t-over-tf", repr(gas["t"])]

    def _commands(self):
        w = self.workdir
        img = dict(self.image, freqs=PAPER_TRAP_HZ)
        cmds = [
            ("thermo", ["thermo", *self._gas_args(self.gas), "--out", str(w / "thermo.json"),
                        "--scan-out", str(w / "scan.csv")]),
            ("density", ["density", *self._gas_args(self.gas), "--axis", "y", "--extent-um", "120",
                         "--out", str(w / "profile.csv")]),
            ("tof", ["tof", *self._gas_args(img), "--time-ms", repr(TOF_MS), "--nx", str(IMAGE_PX),
                     "--ny", str(IMAGE_PX), "--pitch-um",
                     repr(PITCH_UM), "--noise-frac", repr(NOISE_FRAC), "--seed",
                     str(self.image["seed"]), "--out", str(w / "image.raster")]),
            ("fit", ["fit", "--image", str(w / "image.raster"), "--model", "both",
                     "--noise-rms", repr(self._truth()["noise_rms"]), "--out", str(w / "fit.json")]),
        ]
        for geometry in ("toronto-z-trap", "toronto-split-trap"):
            cmds.append(("trap", ["trap", "--geometry", geometry, "--species", "K40",
                                  "--out", str(w / f"trap_{geometry}.json")]))
        for preset in ("rb-doublewell", "k-doublewell"):
            cmds.append(("dress", ["dress", "--preset", preset,
                                   "--out-prefix", str(w / f"dress_{preset}")]))
        for preset in EVAP_PRESETS:
            cmds.append(("evap", ["evap", "--preset", preset, "--rho0", repr(self.rho0[preset]),
                                  "--out", str(w / f"evap_{preset}.json")]))
        cmds.append(("run", ["run", "--config", str(w / "run.json")]))
        cmds.append(("paper-check", ["paper-check", "--out", str(w / "paper.json")]))
        return [{"name": name, "argv": argv, "index": i} for i, (name, argv) in enumerate(cmds)]

    def _truth(self) -> dict:
        return oracles.image_truth("K40", PAPER_TRAP_HZ, self.image["N"], self.image["t"],
                                   TOF_MS * 1e-3, PITCH_UM * 1e-6, (IMAGE_PX, IMAGE_PX), NOISE_FRAC)

    def run(self, cmd):
        if self.tracer is None:
            argv = [sys.executable, "-m", "fermichip.cli", *cmd["argv"]]
        else:
            trace_out = self.workdir / f"trace{cmd['index']}.json"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *cmd["argv"]]
        proc = subprocess.run(argv, cwd=self.workdir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=COMMAND_TIMEOUT_S)
        if proc.returncode != 0:
            raise CommandFailed(f"{cmd['name']} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        if self.tracer is not None:
            self.tracer.merge_file(trace_out)

    # -- checks ---------------------------------------------------------------

    def check(self, cmd, _):
        method = getattr(self, "_check_" + cmd["name"].replace("-", "_"))
        errors = method(cmd)
        for path in sorted(self.workdir.glob("*.json")):
            if path.name == "run.json" or path.name.startswith("trace"):
                continue
            data = path.read_bytes()
            if self.artifacts.setdefault(path.name, data) != data:
                errors.append(f"{path.name}: repeated identical command wrote different bytes")
        return errors

    def _json(self, name):
        return json.loads((self.workdir / name).read_text())

    def _check_thermo(self, cmd):
        g = self.gas
        rep = self._json("thermo.json")
        errors = []
        e_f = oracles.fermi_energy(g["N"], g["freqs"])
        if abs(rep["fermi_energy_j"] / e_f - 1.0) > 1e-9:
            errors.append(f"thermo: E_F {rep['fermi_energy_j']!r} J, expected {e_f!r}")
        row = (rep["t_over_tf"], rep["fugacity"], rep["chemical_potential_over_ef"],
               rep["energy_per_particle_over_ef"], rep["degeneracy_parameter"])
        errors += oracles.check_scan([row], [0])
        with open(self.workdir / "scan.csv", newline="") as fh:
            rows = [tuple(float(v) for v in r) for r in list(csv.reader(fh))[1:]]
        if len(rows) != 25:
            return errors + [f"thermo: scan has {len(rows)} rows, expected 25"]
        return errors + oracles.check_scan(rows, self.scan_rows)

    def _check_density(self, cmd):
        g = self.gas
        with open(self.workdir / "profile.csv", newline="") as fh:
            rows = np.array([[float(v) for v in r] for r in list(csv.reader(fh))[1:]])
        return oracles.check_profile("K40", g["freqs"], g["N"], g["t"], 1, rows[:, 0], rows[:, 1],
                                     self.profile_rows)

    def _check_tof(self, cmd):
        raw = (self.workdir / "image.raster").read_bytes()
        magic, ny, nx, pitch = struct.unpack(">6sxxIId", raw[:24])
        if (magic, ny, nx) != (b"FCHIP1", IMAGE_PX, IMAGE_PX) or abs(pitch / (PITCH_UM * 1e-6) - 1) > 1e-15:
            return [f"tof: raster header {magic!r} {ny}x{nx} pitch {pitch!r}"]
        if len(raw) != 32 + 8 * ny * nx:
            return [f"tof: raster has {len(raw)} bytes"]
        return []

    def _check_fit(self, cmd):
        rep = self._json("fit.json")
        fd, gauss = rep["fermi-dirac"], rep["gaussian"]
        return oracles.check_fits(
            self._truth(),
            {"N": gauss["params"]["N"], "chi2": gauss["chi2"], "reduced_chi2": gauss["reduced_chi2"]},
            {"N": fd["params"]["N"], "T_over_TF": fd["params"]["T_over_TF"], "chi2": fd["chi2"],
             "reduced_chi2": fd["reduced_chi2"]},
            IMAGE_PX * IMAGE_PX,
        )

    def _check_trap(self, cmd):
        geometry = cmd["argv"][cmd["argv"].index("--geometry") + 1]
        rep = self._json(f"trap_{geometry}.json")
        design = load_design(self.data_dir / f"{geometry.replace('-', '_')}.json")
        pos = np.asarray(rep["position_um"]) * 1e-6
        errors = oracles.check_minimum(design, pos, rep["b0_gauss"] * 1e-4)
        errors += oracles.check_depth(design, "K40", pos, rep["escape_direction"], rep["depth_j"])
        return [f"trap {geometry}: {e}" for e in errors]

    def _check_dress(self, cmd):
        """Scans against the closed-form field of the preset's geometry along
        its own transverse axis, through the minimum the trap command reported
        (which _check_trap holds to the closed form)."""
        prefix = Path(cmd["argv"][cmd["argv"].index("--out-prefix") + 1]).name
        rep = self._json(prefix + "_report.json")
        expect = {"rb-doublewell": {"Rb87": "double", "K40": "single"},
                  "k-doublewell": {"Rb87": "single", "K40": "double"}}[prefix[len("dress_"):]]
        design = load_design(self.data_dir / f"{rep['geometry'].replace('-', '_')}.json")
        centre = np.asarray(self._json(f"trap_{rep['geometry']}.json")["position_um"]) * 1e-6
        axis = oracles.transverse_axis(design, centre)
        b_hat = oracles.wire_field(design, centre)
        rf = {"omega": 2.0 * np.pi * rep["rf_khz"] * 1e3, "amplitude": rep["amplitude_mg"] * 1e-7,
              "polarization": np.cross(axis, b_hat / np.linalg.norm(b_hat))}
        ramp = 2.0 * np.pi * rep["ramp_khz"] * 1e3
        khz = oracles.H_PLANCK * 1e3
        errors = []
        if abs(rep["b0_gauss"] * 1e-4 / oracles.field_norm(design, centre) - 1.0) > oracles.FIELD_TOL:
            errors.append(f"dress {prefix}: B0 {rep['b0_gauss']!r} G differs from the closed form")
        for name, topology in expect.items():
            sp = rep["species"][name]
            if sp["topology"] != topology:
                errors.append(f"dress {prefix}: {name} topology {sp['topology']}, expected {topology}")
                continue
            with open(self.workdir / f"{prefix}_{name.lower()}.csv", newline="") as fh:
                s, u, delta, rabi = np.array([[float(v) for v in r] for r in list(csv.reader(fh))[1:]]).T
            scan = {"positions": s * 1e-6, "delta": delta * khz, "rabi": rabi * khz,
                    "m_f_prime": eval_fraction(sp["m_f_prime"]), "centre": centre}
            wells = {"topology": sp["topology"],
                     "well_positions": [p * 1e-6 for p in sp["well_positions_um"]],
                     "barrier_height": sp["barrier_khz"] * khz}
            # the scan runs along +axis or -axis, whichever sign the program's eigensolver gave
            found = []
            for sign in (1.0, -1.0):
                found = oracles.check_dressed(design, name, rf, ramp, dict(scan, axis=sign * axis), wells,
                                              DRESS_TOL)
                u_ref = oracles.dressed_reference(design, name, rf, centre, sign * axis, scan["positions"],
                                                  ramp)[3]
                if np.max(np.abs(u * khz - u_ref)) > DRESS_TOL * np.max(np.abs(u_ref)):
                    found.append(f"{name}: U_eff differs from the closed form")
                if not found:
                    break
            errors += [f"dress {prefix}: {e}" for e in found]
        return errors

    def _check_evap(self, cmd):
        preset = cmd["argv"][cmd["argv"].index("--preset") + 1]
        rep = self._json(f"evap_{preset}.json")
        errors = oracles.check_evap(rep)
        if rep["rho0"] != self.rho0[preset]:
            errors.append(f"evap {preset}: rho0 {rep['rho0']!r}, asked {self.rho0[preset]!r}")
        return errors

    def _check_run(self, cmd):
        if (self.workdir / "evap_run.json").read_bytes() != (self.workdir / "evap_reichel-z.json").read_bytes():
            return ["run --config: evap artifact differs from the identical direct command"]
        return []

    def _check_paper_check(self, cmd):
        rows = self._json("paper.json")
        failed = [r["name"] for r in rows if not r["passed"]]
        return [f"paper-check rows failed: {failed}"] if failed or not rows else []


def eval_fraction(text: str) -> float:
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)
