"""Command-line front end: batch computation, scans and benchmark regression.

Exit codes: 0 success, 1 benchmark-table failure (paper-check), 2 bad
configuration or arguments, or a named file that cannot be read or written
(any OSError), 3 numerical failure: any `constants.NumericalError` (fugacity,
field, dressing and fit failures) or a singular matrix.
JSON artifacts are written deterministically (sorted keys, floats at 17
significant digits) so identical configurations produce byte-identical output.

Every command is a fresh process, so this module imports only the standard
library and `constants` at the top; each `cmd_*` imports the modules it uses,
numpy included.  `evap`, `run` with an `evap` config and `--help` compute in
`math` alone and never start numpy, which would be about half of their time.
Where a command's exception types or a JSON value may be numpy's, the types
are looked up in `sys.modules` (`_numpy_types`): without numpy loaded there is
no such value to match.

No command gives BLAS any work worth a thread pool (its linear algebra is 3x3
and 6x6), so when this module is imported before numpy, and none of
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS has a value, it sets
OPENBLAS_NUM_THREADS=1 for the numpy a command starts: the command runs on one
OS thread instead of starting one idle OpenBLAS worker per core.  Set any of
the three to choose another count.  A process that imported numpy before this
module keeps its environment and its pool.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(os.environ.get(v) for v in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import constants as C

if TYPE_CHECKING:
    from . import rfdress, thermo

EXIT_OK = 0
EXIT_BENCH_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _numpy_types(*names: str) -> tuple:
    """The numpy attributes `names` (e.g. "ndarray", "linalg.LinAlgError"), or
    () when numpy is not loaded: no numpy value or exception exists then, so a
    type check against them needs no numpy import."""
    np = sys.modules.get("numpy")
    return tuple(operator.attrgetter(name)(np) for name in names) if np else ()


# -- deterministic JSON ----------------------------------------------------------

def _json_fmt(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_json_fmt(v, indent + 1)}'
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, *_numpy_types("ndarray"))):
        seq = list(obj) if isinstance(obj, (list, tuple)) else obj.tolist()
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_fmt(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, (float, *_numpy_types("floating"))):
        x = float(obj)
        if not math.isfinite(x):
            return json.dumps(str(x))
        return format(x, ".17g")
    if isinstance(obj, (int, *_numpy_types("integer"))):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def write_json(path, obj) -> None:
    """Write obj as deterministic JSON to path, or print it when path is empty."""
    if path:
        Path(path).write_text(_json_fmt(obj) + "\n")
    else:
        print(_json_fmt(obj))


def _state_from_args(args) -> C.SpinState:
    reg = C.builtin_species()
    f_quantum = getattr(args, "f_quantum", None)
    mf = getattr(args, "mf", None)
    if f_quantum is not None or mf is not None:
        if f_quantum is None or mf is None:
            raise ValueError("--f-quantum and --mf must be given together")
        return reg.state(args.species, f_quantum, mf)
    return reg.stretched_state(args.species)


def _require_positive(*flags) -> None:
    """Raise ValueError naming the first (flag, value) pair whose value is not
    positive and finite."""
    for flag, value in flags:
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{flag} must be positive and finite, got {value}")


def _require_non_negative(*flags) -> None:
    """Raise ValueError naming the first (flag, value) pair whose value is not
    non-negative and finite."""
    for flag, value in flags:
        if not (value >= 0 and math.isfinite(value)):
            raise ValueError(f"{flag} must be non-negative and finite, got {value}")


def _trap_from_args(args) -> thermo.HarmonicTrap:
    from . import thermo

    if args.fbar_hz is not None:
        omega = 2 * math.pi * args.fbar_hz
        return thermo.HarmonicTrap(omega, omega, omega)
    if None in (args.fx_hz, args.fy_hz, args.fz_hz):
        raise ValueError("give either --fbar-hz or all of --fx-hz/--fy-hz/--fz-hz")
    return thermo.HarmonicTrap.from_frequencies_hz(args.fx_hz, args.fy_hz, args.fz_hz)


# -- thermo ----------------------------------------------------------------------

def cmd_thermo(args) -> int:
    import numpy as np

    from . import thermo

    _require_positive(("--scan-min", args.scan_min), ("--scan-max", args.scan_max),
                      ("--scan-points", args.scan_points))
    state = _state_from_args(args)
    trap = _trap_from_args(args)
    if args.t_over_tf is not None:
        gas = thermo.TrappedGasState.from_reduced_temperature(
            state, trap, args.n_atoms, args.t_over_tf
        )
    elif args.temperature_uk is not None:
        gas = thermo.TrappedGasState(state, trap, args.n_atoms, args.temperature_uk * 1e-6)
    else:
        raise ValueError("give --t-over-tf or --temperature-uk")
    energy = thermo.energy_per_particle(gas)
    report = {
        "species": args.species,
        "n_atoms": args.n_atoms,
        "omega_bar_hz": trap.omega_bar / (2 * math.pi),
        "fermi_energy_j": gas.fermi_energy,
        "fermi_energy_uk": gas.fermi_energy / C.K_B * 1e6,
        "fermi_temperature_uk": gas.fermi_temperature * 1e6,
        "temperature_uk": gas.temperature * 1e6,
        "t_over_tf": gas.t_reduced,
        "fugacity": gas.fugacity,
        "chemical_potential_over_ef": gas.chemical_potential / gas.fermi_energy,
        "energy_per_particle_j": energy,
        "energy_per_particle_over_ef": energy / gas.fermi_energy,
        "degeneracy_parameter": thermo.degeneracy_parameter(gas.fugacity),
        "capacity_1d": None,
    }
    try:
        report["capacity_1d"] = thermo.capacity_1d(trap)
    except ValueError:
        pass
    write_json(args.out, report)
    if args.scan_out:
        def gas_at(t):
            return thermo.TrappedGasState.from_reduced_temperature(state, trap, args.n_atoms, t)

        t_values = np.geomspace(args.scan_min, args.scan_max, args.scan_points)
        thermo.write_thermo_scan_csv(args.scan_out, gas_at, t_values)
    return EXIT_OK


# -- density / tof ----------------------------------------------------------------

def _gas_from_args(args) -> thermo.TrappedGasState:
    from . import thermo

    return thermo.TrappedGasState.from_reduced_temperature(
        _state_from_args(args), _trap_from_args(args), args.n_atoms, args.t_over_tf)


def cmd_density(args) -> int:
    import numpy as np

    from . import density

    _require_positive(("--extent-um", args.extent_um), ("--points", args.points))
    gas = _gas_from_args(args)
    s = np.linspace(-args.extent_um * 1e-6, args.extent_um * 1e-6, args.points)
    axis = {"x": 0, "y": 1, "z": 2}[args.axis]
    pts = np.zeros((args.points, 3))
    pts[:, axis] = s
    values = (
        density.density_zero_T(gas, pts) if args.zero_t else density.density_finite_T(gas, pts)
    )
    C.write_csv(args.out, [f"{args.axis}_m", "density_m3"], [s, values])
    return EXIT_OK


def cmd_tof(args) -> int:
    from . import imagefit

    _require_positive(("--nx", args.nx), ("--ny", args.ny), ("--pitch-um", args.pitch_um))
    _require_non_negative(("--time-ms", args.time_ms), ("--noise-frac", args.noise_frac))
    gas = _gas_from_args(args)
    pitch = args.pitch_um * 1e-6
    t = args.time_ms * 1e-3
    img = imagefit.synthesize_tof_image(gas, t, (args.ny, args.nx), pitch)
    if args.noise_frac > 0:
        img = imagefit.add_noise(img, args.noise_frac * float(img.values.max()), args.seed)
    img.save(args.out)
    if args.csv:
        xx, yy = img.coordinates()
        C.write_csv(args.csv, ["x_m", "y_m", "column_density_m2"],
                    [xx.ravel(), yy.ravel(), img.values.ravel()])
    return EXIT_OK


# -- trap -------------------------------------------------------------------------

def cmd_trap(args) -> int:
    import numpy as np

    from . import trapfield

    model, seed = trapfield.load_geometry(args.geometry)
    if args.seed_um:
        seed = np.asarray([float(v) for v in args.seed_um.split(",")]) * 1e-6
        if seed.shape != (3,) or not np.isfinite(seed).all():
            raise ValueError(f"--seed-um needs 3 finite numbers x,y,z, got {args.seed_um!r}")
    if seed is None:
        raise ValueError("geometry file has no seed; pass --seed-um x,y,z")
    state = _state_from_args(args)
    minimum = trapfield.find_minimum(model, seed)
    report = {
        "geometry": str(args.geometry),
        "state": str(state),
        "position_um": (minimum.position * 1e6).tolist(),
        "b0_gauss": minimum.b0 / C.GAUSS,
        "zero_minimum": minimum.zero_minimum,
        "grad_norm_t_per_m": minimum.grad_norm,
    }
    if not minimum.zero_minimum:
        freqs = trapfield.trap_frequencies(model, state, minimum.position)
        depth = trapfield.trap_depth(model, state, minimum.position)
        ip = trapfield.ip_fit(model, minimum.position)
        report.update(
            {
                "frequencies_hz": sorted((freqs.omega / (2 * math.pi)).tolist()),
                "depth_j": depth.depth,
                "depth_mk": depth.temperature_equiv * 1e3,
                "escape_direction": depth.escape_direction.tolist(),
                "ip_b0_gauss": ip.b0 / C.GAUSS,
                "ip_b_prime_t_per_m": ip.b_prime,
                "ip_b_double_prime_t_per_m2": ip.b_double_prime,
                "ip_residual_rms_gauss": ip.residual_rms / C.GAUSS,
            }
        )
    write_json(args.out, report)
    return EXIT_OK


# -- dress ------------------------------------------------------------------------

DRESS_PRESETS = {
    # amplitude ramped on at ramp_khz, then swept to rf_khz
    "rb-doublewell": dict(geometry="toronto-split-trap", rf_khz=860.0, ramp_khz=800.0,
                          amplitude_mg=200.0),
    "k-doublewell": dict(geometry="toronto-split-trap", rf_khz=383.0, ramp_khz=338.0,
                         amplitude_mg=450.0),
}


def _dress_scan_report(scan: rfdress.DressedPotentialScan):
    from . import rfdress

    try:
        wells = rfdress.characterize_wells(scan)
        report = {
            "topology": wells.topology,
            "well_positions_um": [p * 1e6 for p in wells.well_positions],
            "separation_um": wells.separation * 1e6,
            "barrier_khz": wells.barrier_height / C.H_PLANCK / 1e3,
            "level_repulsion_khz": [o / C.H_PLANCK / 1e3 for o in wells.level_repulsion],
        }
    except rfdress.TopologyError as exc:
        report = {"topology": "ambiguous", "detail": str(exc)}
    report["m_f_prime"] = str(scan.m_f_prime)
    return report


def cmd_dress(args) -> int:
    import numpy as np

    from . import rfdress, trapfield

    if args.preset:
        for flag, value in (("--geometry", args.geometry), ("--rf-khz", args.rf_khz),
                            ("--ramp-khz", args.ramp_khz), ("--amplitude-mg", args.amplitude_mg)):
            if value is not None:
                raise ValueError(f"{flag} cannot be combined with --preset, which sets it")
        cfg = DRESS_PRESETS[args.preset]
        geometry, rf_khz = cfg["geometry"], cfg["rf_khz"]
        ramp_khz, amplitude_mg = cfg["ramp_khz"], cfg["amplitude_mg"]
    elif args.rf_khz is None:
        raise ValueError("give --preset, or --rf-khz for --geometry")
    else:
        geometry = "toronto-split-trap" if args.geometry is None else args.geometry
        rf_khz = args.rf_khz
        ramp_khz = args.rf_khz if args.ramp_khz is None else args.ramp_khz
        amplitude_mg = 200.0 if args.amplitude_mg is None else args.amplitude_mg
    model, seed = trapfield.load_geometry(geometry)
    minimum = trapfield.find_minimum(model, seed)
    ip = trapfield.ip_fit(model, minimum.position)
    axis = ip.axes[:, 0]
    b_hat = model.field(minimum.position)
    b_hat = b_hat / np.linalg.norm(b_hat)
    pol = np.cross(axis, b_hat)
    pol /= np.linalg.norm(pol)
    rf = rfdress.RFField(amplitude_mg * 1e-3 * C.GAUSS, 2 * math.pi * rf_khz * 1e3, tuple(pol))

    reg = C.builtin_species()
    report = {
        "geometry": geometry,
        "rf_khz": rf_khz,
        "ramp_khz": ramp_khz,
        "amplitude_mg": amplitude_mg,
        "b0_gauss": minimum.b0 / C.GAUSS,
        "species": {},
    }
    prefix = Path(args.out_prefix)
    for name in ("Rb87", "K40"):
        scan = rfdress.dressed_potential(
            model, rf, reg.stretched_state(name), minimum.position, axis, args.extent_um * 1e-6,
            args.points, connect_at_omega=2 * math.pi * ramp_khz * 1e3)
        report["species"][name] = _dress_scan_report(scan)
        C.write_csv(prefix.with_name(prefix.name + f"_{name.lower()}.csv"),
                    ["position_um", "u_eff_khz", "delta_khz", "rabi_khz"],
                    [scan.positions * 1e6,
                     *(e / C.H_PLANCK / 1e3 for e in (scan.u_eff, scan.delta, scan.rabi))])
    write_json(prefix.with_name(prefix.name + "_report.json"), report)
    return EXIT_OK


# -- evap -------------------------------------------------------------------------

def _evap_preset(name: str, rho0: float | None):
    """The report of loading preset `name` at rho0 (default 1e-6)."""
    from . import evaporation

    return evaporation.LOADING_PRESETS[name].report(1e-6 if rho0 is None else rho0)


def cmd_evap(args) -> int:
    if args.rho0 is not None:
        _require_positive(("--rho0", args.rho0))
    report = _evap_preset(args.preset, args.rho0)
    write_json(args.out, report)
    return EXIT_OK


# -- fit --------------------------------------------------------------------------

def cmd_fit(args) -> int:
    from . import imagefit

    _require_non_negative(("--noise-rms", args.noise_rms))
    img = imagefit.TofImage.load(args.image, noise_rms=args.noise_rms)
    results = {}
    if args.model in ("gauss", "both"):
        results["gaussian"] = imagefit.fit_gaussian(img)
    if args.model in ("fd", "both"):
        results["fermi-dirac"] = imagefit.fit_fermi_dirac(img)
    report = {}
    for key, fit in results.items():
        report[key] = {
            "params": fit.params,
            "chi2": fit.chi2,
            "reduced_chi2": fit.reduced_chi2,
            "flags": fit.flags,
            "diagnostics": fit.diagnostics,
        }
    if len(results) == 2:
        report["chi2_ratio_gauss_over_fd"] = (
            results["gaussian"].reduced_chi2 / results["fermi-dirac"].reduced_chi2
        )
    write_json(args.out, report)
    return EXIT_OK


# -- paper-check --------------------------------------------------------------------

def cmd_paper_check(args) -> int:
    from . import benchmarks

    rows = benchmarks.run_benchmarks()
    width = max(len(r.name) for r in rows)
    n_fail = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            n_fail += 1
        print(f"{status}  {r.name:<{width}}  computed {r.computed:>12}  target {r.target}")
    print(f"{len(rows) - n_fail}/{len(rows)} checks passed")
    if args.out:
        write_json(args.out, [vars(r) for r in rows])
    return EXIT_OK if n_fail == 0 else EXIT_BENCH_FAIL


# -- run (config file) ---------------------------------------------------------------

CONFIG_COMMANDS = ("thermo", "density", "tof", "trap", "dress", "evap", "fit", "paper-check")


def check_config(doc) -> None:
    """Raise ValueError unless doc is {"command": ..., "params": {...}}.

    `command` is required and one of CONFIG_COMMANDS; the optional `params`
    maps flag names to strings, numbers or booleans; no other key is allowed.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, not {type(doc).__name__}")
    unknown = sorted(set(doc) - {"command", "params"})
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}; allowed: command, params")
    if "command" not in doc:
        raise ValueError("config has no 'command'")
    if doc["command"] not in CONFIG_COMMANDS:
        raise ValueError(
            f"config command {doc['command']!r} is not one of {list(CONFIG_COMMANDS)}"
        )
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"config 'params' must be an object, not {type(params).__name__}")
    for key, value in params.items():
        if not isinstance(value, (str, int, float)):  # bool is an int
            raise ValueError(
                f"config param {key!r} must be a string, number or boolean, not {value!r}"
            )


class _ConfigArgumentParser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print usage and exit."""

    def error(self, message):
        raise ValueError(message)


def cmd_run(args) -> int:
    try:
        doc = json.loads(Path(args.config).read_text())
        check_config(doc)
        argv = [doc["command"]]
        for key, value in doc.get("params", {}).items():
            flag = "--" + key.replace("_", "-")
            if isinstance(value, bool):
                if value:
                    argv.append(flag)
            else:
                argv.append(f"{flag}={value}")  # a value may start with a minus
        run_args = build_parser(_ConfigArgumentParser).parse_args(argv)
    except ValueError as exc:
        raise ValueError(f"config {args.config}: {exc}") from None
    return run_args.fn(run_args)


# -- parser ---------------------------------------------------------------------------

def _add_species(p):
    p.add_argument("--species", default="K40", choices=["K40", "Rb87"])
    p.add_argument("--f-quantum", dest="f_quantum", default=None,
                   help="hyperfine F as a fraction, e.g. 9/2 (default: stretched)")
    p.add_argument("--mf", default=None, help="m_F as a fraction, e.g. 9/2")


def _add_trap(p):
    p.add_argument("--fbar-hz", type=float, default=None, help="isotropic mean frequency")
    p.add_argument("--fx-hz", type=float, default=None)
    p.add_argument("--fy-hz", type=float, default=None)
    p.add_argument("--fz-hz", type=float, default=None)


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    ap = parser_class(
        prog="fermichip",
        description="Ideal Fermi gases in atom-chip microtraps: thermodynamics, "
        "fields, dressed potentials, evaporation rules and profile fits.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thermo", help="trapped-gas thermodynamics report and scans")
    _add_species(p)
    _add_trap(p)
    p.add_argument("--n-atoms", type=float, required=True)
    p.add_argument("--t-over-tf", type=float, default=None)
    p.add_argument("--temperature-uk", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--scan-out", default=None, help="CSV degeneracy scan path")
    p.add_argument("--scan-min", type=float, default=0.05)
    p.add_argument("--scan-max", type=float, default=5.0)
    p.add_argument("--scan-points", type=int, default=25)
    p.set_defaults(fn=cmd_thermo)

    p = sub.add_parser("density", help="in-trap density profile along an axis (CSV)")
    _add_species(p)
    _add_trap(p)
    p.add_argument("--n-atoms", type=float, required=True)
    p.add_argument("--t-over-tf", type=float, required=True)
    p.add_argument("--axis", choices=["x", "y", "z"], default="x")
    p.add_argument("--extent-um", type=float, default=30.0)
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--zero-t", action="store_true", help="emit the T=0 profile instead")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("tof", help="synthesize a time-of-flight column-density image")
    _add_species(p)
    _add_trap(p)
    p.add_argument("--n-atoms", type=float, required=True)
    p.add_argument("--t-over-tf", type=float, required=True)
    p.add_argument("--time-ms", type=float, default=10.0)
    p.add_argument("--nx", type=int, default=64)
    p.add_argument("--ny", type=int, default=64)
    p.add_argument("--pitch-um", type=float, default=8.0)
    p.add_argument("--noise-frac", type=float, default=0.0, help="noise RMS as fraction of peak")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="binary raster output")
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_tof)

    p = sub.add_parser("trap", help="wire-trap report: minimum, frequencies, depth, IP fit")
    _add_species(p)
    p.add_argument("--geometry", default="toronto-z-trap",
                   help="geometry JSON path or shipped preset name")
    p.add_argument("--seed-um", default=None, help="comma-separated search seed")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_trap)

    p = sub.add_parser("dress", help="RF-dressed potential scans for both species")
    p.add_argument("--preset", choices=sorted(DRESS_PRESETS), default=None)
    p.add_argument("--geometry", default=None,
                   help="geometry JSON path or shipped preset name (default toronto-split-trap); "
                   "not with --preset")
    p.add_argument("--rf-khz", type=float, default=None, help="not with --preset")
    p.add_argument("--ramp-khz", type=float, default=None,
                   help="frequency at which the RF amplitude was ramped on (default --rf-khz); "
                   "not with --preset")
    p.add_argument("--amplitude-mg", type=float, default=None,
                   help="RF amplitude (default 200); not with --preset")
    p.add_argument("--extent-um", type=float, default=10.0)
    p.add_argument("--points", type=int, default=4096)
    p.add_argument("--out-prefix", default="dress")
    p.set_defaults(fn=cmd_dress)

    p = sub.add_parser("evap", help="loading and evaporation design report")
    # the names of evaporation.LOADING_PRESETS, which only `evap` imports
    p.add_argument("--preset", required=True,
                   choices=["libbrecht-loop", "ioffe-c", "reichel-z", "toronto-z"])
    p.add_argument("--rho0", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_evap)

    p = sub.add_parser("fit", help="fit envelope models to a raster image")
    p.add_argument("--image", required=True)
    p.add_argument("--model", choices=["gauss", "fd", "both"], default="both")
    p.add_argument("--noise-rms", type=float, default=0.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("paper-check",
                       help="regression table of published benchmark values")
    p.add_argument("--out", default=None, help="also write the table as JSON")
    p.set_defaults(fn=cmd_paper_check)

    p = sub.add_parser("run", help="execute a scenario config file (JSON)")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_run)

    return ap


def _attach_negative_values(argv) -> list[str]:
    """argv with each `--flag VALUE` whose VALUE starts with a minus and a
    digit, or a minus, a point and a digit, written `--flag=VALUE`: argparse
    takes only plain numbers such as -9 or -4.5 for values, and reads a VALUE
    such as -9/2, -5,0,300 or -.5,0,300 as an option."""
    out = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1] and out[-1] != "--"
                and token[:1] == "-" and token[1:].removeprefix(".")[:1].isdigit()):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    # an except clause's types are evaluated only once something is raised
    except (C.NumericalError, *_numpy_types("linalg.LinAlgError")) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # an OSError is a file the user named that cannot be read or written
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
