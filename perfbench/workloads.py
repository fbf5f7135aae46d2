"""The three in-process workloads.  Each builds one round of seeded inputs;
a run repeats that round, so every round does the same operations and the
per-item counts repeat exactly.  `run` is the timed call into fermichip,
`check` compares its output with perfbench.oracles outside the timed region.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from fermichip import constants, density, imagefit, rfdress, thermo, trapfield

import oracles
from inputs import PAPER_N, PAPER_TRAP_HZ, load_design, stratified

K40 = constants.builtin_species().stretched_state("K40")
RB87 = constants.builtin_species().stretched_state("Rb87")


class ThermoScan:
    """Degeneracy scans over T/T_F in [0.02, 5] for K40 in traps drawn around
    the paper's 823/46/823 Hz, 4e4 atoms, each with an in-trap density profile
    along the soft axis."""

    T_GRID = np.geomspace(0.02, 5.0, 24)
    ROUND = 4
    PROFILE_POINTS = 401

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        u = stratified(rng, self.ROUND, 4)
        self.items = []
        for k in range(self.ROUND):
            freqs = tuple(f * (0.9 + 0.2 * u[k, i]) for i, f in enumerate(PAPER_TRAP_HZ))
            n_atoms = PAPER_N * 10 ** (0.2 * u[k, 3] - 0.1)
            t_profile = float(self.T_GRID[rng.integers(len(self.T_GRID))])
            self.items.append(self._item(workdir / f"scan{k}.csv", freqs, n_atoms, t_profile, rng))
        self.warm_item = self._item(workdir / "warm.csv", PAPER_TRAP_HZ, PAPER_N, 0.2,
                                    np.random.default_rng(0))

    def _item(self, path, freqs, n_atoms, t_profile, rng):
        e_f = oracles.fermi_energy(n_atoms, freqs)
        radius = math.sqrt(2.0 * e_f / (K40.species.mass * (2 * math.pi * freqs[1]) ** 2))
        return {
            "path": path,
            "freqs": freqs,
            "n_atoms": n_atoms,
            "t_profile": t_profile,
            "positions": np.linspace(-1.5 * radius, 1.5 * radius, self.PROFILE_POINTS),
            "rows": sorted(rng.choice(len(self.T_GRID), 4, replace=False).tolist()),
            "points": sorted(rng.choice(self.PROFILE_POINTS, 5, replace=False).tolist()),
        }

    def run(self, inp):
        trap = thermo.HarmonicTrap.from_frequencies_hz(*inp["freqs"])
        n_atoms = inp["n_atoms"]

        def gas(t):
            return thermo.TrappedGasState.from_reduced_temperature(K40, trap, n_atoms, t)

        thermo.write_thermo_scan_csv(inp["path"], gas, self.T_GRID)
        pts = np.zeros((self.PROFILE_POINTS, 3))
        pts[:, 1] = inp["positions"]
        return density.density_finite_T(gas(inp["t_profile"]), pts)

    def check(self, inp, profile):
        with open(inp["path"], newline="") as fh:
            rows = [tuple(float(v) for v in row) for row in list(csv.reader(fh))[1:]]
        errors = []
        if len(rows) != len(self.T_GRID):
            return [f"scan has {len(rows)} rows, expected {len(self.T_GRID)}"]
        errors += oracles.check_scan(rows, inp["rows"])
        errors += oracles.check_profile("K40", inp["freqs"], inp["n_atoms"], inp["t_profile"], 1,
                                        inp["positions"], profile, inp["points"])
        return errors


class TrapDesign:
    """Seeded +/-15% wire-current and bias perturbations of toronto-z-trap,
    stratified in all four scale factors.

    Each design: minimum, frequencies, depth and IP fit on the wire model,
    searched from the shipped seed; minimum and frequencies on the analytic
    IP field built from the fit, searched from the same offset; an
    RF-dressed scan and well characterization for Rb87 and K40 with the RF
    60 kHz above the Rb87 trap-bottom resonance, ramped on 50 kHz below it.
    """

    ROUND = 9
    RF_ABOVE_HZ = 60e3
    RAMP_BELOW_HZ = 50e3
    RF_AMPLITUDE_T = 200e-3 * 1e-4
    SCAN_HALF_RANGE = 25e-6
    SCAN_POINTS = 2048

    def __init__(self, seed: int, workdir: Path, data_dir: Path):
        base = load_design(data_dir / "toronto_z_trap.json")
        rng = np.random.default_rng([seed, 2])
        u = stratified(rng, self.ROUND, 4)
        self.items = []
        for k in range(self.ROUND):
            scale = 0.85 + 0.3 * u[k]
            design = dict(base)
            design["segments"] = [(a, b, i * scale[0]) for a, b, i in base["segments"]]
            design["bias"] = tuple(np.asarray(base["bias"]) * scale[1:])
            design["probe_points"] = base["seed"] + rng.uniform(-50e-6, 50e-6, (4, 3))
            self.items.append(design)
        self.warm_item = base

    def run(self, design):
        model = trapfield.FieldModel(
            [trapfield.WireSegment(tuple(a), tuple(b), i) for a, b, i in design["segments"]],
            design["bias"],
            None,
            design["chip_plane"],
        )
        minimum = trapfield.find_minimum(model, design["seed"])
        freqs = trapfield.trap_frequencies(model, K40, minimum.position)
        depth = trapfield.trap_depth(model, K40, minimum.position)
        ip = trapfield.ip_fit(model, minimum.position)
        # local y of the analytic field is its soft axis
        ip_axes = np.column_stack([ip.axes[:, 0], ip.axes[:, 2], ip.axes[:, 1]])
        analytic = trapfield.AnalyticIPField(ip.b0, ip.b_prime, ip.b_double_prime,
                                             tuple(ip.center), ip_axes)
        # searched from where the wire-model search started, relative to its minimum
        ip_minimum = trapfield.find_minimum(analytic, ip.center + design["seed"] - minimum.position)
        ip_freqs = trapfield.trap_frequencies(analytic, K40, ip_minimum.position)

        f_bottom = oracles.G_F["Rb87"] * oracles.MU_B * minimum.b0 / oracles.H_PLANCK
        axis = ip.axes[:, 0]
        b_hat = model.field(minimum.position)
        pol = np.cross(axis, b_hat / np.linalg.norm(b_hat))
        rf = rfdress.RFField(self.RF_AMPLITUDE_T, 2 * math.pi * (f_bottom + self.RF_ABOVE_HZ), tuple(pol))
        ramp = 2 * math.pi * (f_bottom - self.RAMP_BELOW_HZ)
        dressed = {}
        for state in (RB87, K40):
            scan = rfdress.dressed_potential(model, rf, state, minimum.position, axis,
                                             self.SCAN_HALF_RANGE, self.SCAN_POINTS,
                                             connect_at_omega=ramp)
            dressed[state.species.name] = (scan, rfdress.characterize_wells(scan))
        return {
            "model": model, "minimum": minimum, "freqs": freqs, "depth": depth, "ip": ip,
            "ip_minimum": ip_minimum, "ip_freqs": ip_freqs, "rf": rf, "ramp": ramp,
            "dressed": dressed,
        }

    def check(self, design, out):
        minimum, depth, ip = out["minimum"], out["depth"], out["ip"]
        points = np.vstack([minimum.position, design["probe_points"]])
        errors = oracles.check_field(design, points, out["model"].field(points, guard=0.0))
        errors += oracles.check_minimum(design, minimum.position, minimum.b0)
        errors += oracles.check_depth(design, "K40", minimum.position, depth.escape_direction,
                                      depth.depth)
        errors += oracles.check_ip(design, ip.center, ip.axes, ip.b0, ip.b_prime, ip.b_double_prime)
        if np.linalg.norm(out["ip_minimum"].position - ip.center) > 1e-9:
            errors.append("minimum of the analytic IP field is not at its centre")
        errors += oracles.check_ip_frequencies("K40", ip.b0, ip.b_prime, ip.b_double_prime,
                                               out["ip_freqs"].omega)
        rf = out["rf"]
        rf_doc = {"omega": rf.omega, "amplitude": rf.amplitude, "polarization": rf.polarization}
        for name, (scan, wells) in out["dressed"].items():
            errors += oracles.check_dressed(
                design, name, rf_doc, out["ramp"],
                {"positions": scan.positions, "delta": scan.delta, "rabi": scan.rabi,
                 "m_f_prime": scan.m_f_prime, "centre": scan.center, "axis": scan.axis},
                {"topology": wells.topology, "well_positions": wells.well_positions,
                 "barrier_height": wells.barrier_height},
            )
        topologies = {name: w.topology for name, (_, w) in out["dressed"].items()}
        if topologies != {"Rb87": "double", "K40": "single"}:
            errors.append(f"dressed topologies {topologies}, expected Rb87 double and K40 single")
        return errors


class ImageFit:
    """Seeded 48x48 time-of-flight images of K40 from the paper trap after
    10 ms, 2% noise, each saved and reloaded as a raster and then fitted with
    the Gaussian and Fermi-Dirac envelopes.  A round's images lie on a
    randomly shifted rank-1 lattice over log T/T_F in [0.08, 1.5] and log N
    in [1e4, 1e5]: every seed's images cover the plane as evenly, so the cost
    of a round, which falls steeply with T/T_F and N, changes little between
    seeds.  One image is one item, so a run times dozens of items and the
    reference computation is sampled between every two fits."""

    ROUND = 48
    LATTICE = 7             # lattice generator: no two of 48 points closer than sqrt(50)/48
    SHAPE = (48, 48)
    PITCH = 16e-6
    TOF = 10e-3
    NOISE_FRAC = 0.02
    T_RANGE = (0.08, 1.5)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        # T/T_F at fixed log-spaced points, N from a randomly shifted lattice
        k = np.arange(self.ROUND)
        u = np.column_stack([(k + 0.5) / self.ROUND,
                             (self.LATTICE * k / self.ROUND + rng.uniform()) % 1.0])
        lo, hi = (math.log(v) for v in self.T_RANGE)
        self.items = [
            self._image(workdir / f"image{i}.raster", math.exp(lo + (hi - lo) * u[i, 0]),
                        10 ** (4.0 + u[i, 1]), rng)
            for i in rng.permutation(self.ROUND)
        ]
        self.warm_item = self._image(workdir / "warm.raster", 1.0, PAPER_N, np.random.default_rng(0))

    @staticmethod
    def _image(path, t, n_atoms, rng):
        return {
            "path": path,
            "t": t,
            "N": n_atoms,
            "noise_seed": int(rng.integers(2**31)),
            "pixels": [(23, 23), (24, 24), (23, 24)]
            + [tuple(int(v) for v in rng.integers(12, 36, 2)) for _ in range(3)],
        }

    def run(self, inp):
        trap = thermo.HarmonicTrap.from_frequencies_hz(*PAPER_TRAP_HZ)
        gas = thermo.TrappedGasState.from_reduced_temperature(K40, trap, inp["N"], inp["t"])
        clean = imagefit.synthesize_tof_image(gas, self.TOF, self.SHAPE, self.PITCH)
        noise = self.NOISE_FRAC * float(clean.values.max())
        img = imagefit.synthesize_tof_image(gas, self.TOF, self.SHAPE, self.PITCH, noise,
                                            inp["noise_seed"])
        img.save(inp["path"])
        loaded = imagefit.TofImage.load(inp["path"], noise_rms=noise, expansion_time=self.TOF)
        return {
            "clean": clean.values, "noisy": img.values, "loaded": loaded,
            "gauss": imagefit.fit_gaussian(loaded), "fd": imagefit.fit_fermi_dirac(loaded),
        }

    def check(self, inp, out):
        errors = oracles.check_image("K40", PAPER_TRAP_HZ, inp["N"], inp["t"], self.TOF,
                                     self.PITCH, out["clean"], inp["pixels"])
        loaded = out["loaded"]
        if loaded.pitch != self.PITCH or not np.array_equal(loaded.values, out["noisy"]):
            errors.append("raster reload differs from the saved image")
        gauss, fd = out["gauss"], out["fd"]
        truth = oracles.image_truth("K40", PAPER_TRAP_HZ, inp["N"], inp["t"], self.TOF, self.PITCH,
                                    self.SHAPE, self.NOISE_FRAC)
        errors += oracles.check_fits(
            truth,
            {"N": gauss.params["N"], "chi2": gauss.chi2, "reduced_chi2": gauss.reduced_chi2},
            {"N": fd.params["N"], "T_over_TF": fd.params["T_over_TF"], "chi2": fd.chi2,
             "reduced_chi2": fd.reduced_chi2},
            loaded.values.size,
        )
        return errors
