#!/usr/bin/env python3
"""Calibrate the shipped Z-wire geometries.

Solves for wire current, Z-bar half-length and bias fields so the resulting
Ioffe-Pritchard microtraps reproduce the benchmark observables:

  toronto_z_trap:     K40 |9/2,9/2>  w_x,z = 2pi x 823 Hz, w_y = 2pi x 46 Hz,
                      B0 = 2.6 G, depth ~ k_B x 1.0 mK
  toronto_split_trap: Rb87 |2,2>     w_x,z = 2pi x 1.23 kHz, w_y = 2pi x 13.7 Hz,
                      B0 = 1.214 G at 80 um from the chip plane

Writes JSON geometry files into src/fermichip/data/.  Needs the test extras
(`pip install -e .[test]`): it solves with `scipy.optimize.least_squares`, which
the package itself does not depend on.
"""

import math
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fermichip import constants as C
from fermichip.trapfield import (
    FieldModel,
    WireSegment,
    find_minimum,
    ip_fit,
    save_geometry,
    trap_depth,
    trap_frequencies,
)

LEAD_LEN = 4e-3   # m
RETURN_DEPTH = 5e-2  # m, return path routed this far behind the chip


def build_model(current, half_len, bx_gauss, by_gauss):
    # Closed circuit: Z on the chip face, return legs behind the substrate.
    # A closed path keeps curl B = 0 exactly away from the wires.
    a = half_len
    h = RETURN_DEPTH
    path = [
        (-LEAD_LEN, -a, 0.0),
        (0.0, -a, 0.0),
        (0.0, a, 0.0),
        (LEAD_LEN, a, 0.0),
        (LEAD_LEN, a, -h),
        (-LEAD_LEN, -a, -h),
        (-LEAD_LEN, -a, 0.0),
    ]
    segs = [WireSegment(p, q, current) for p, q in zip(path, path[1:])]
    bias = (bx_gauss * C.GAUSS, by_gauss * C.GAUSS, 0.0)
    return FieldModel(segments=segs, bias=bias, chip_plane=((0.0, 0.0, -1.0), 0.0))


def calibrate(state, f_perp, f_axial, b0_gauss, depth_mk=None, height_um=None, x0=None):
    """Returns optimized (I, a, bx, by) hitting the requested observables."""
    seed_holder = {"seed": None}

    def observables(p):
        current, a_mm, bx, by = p
        model = build_model(current, a_mm * 1e-3, bx, by)
        seed = seed_holder["seed"]
        if seed is None:
            d_est = C.MU_0 * current / (2.0 * math.pi * abs(bx) * C.GAUSS)
            seed = np.array([0.0, 0.0, d_est])
        m = find_minimum(model, seed, grad_tol=1e-6)
        seed_holder["seed"] = m.position
        freqs = trap_frequencies(model, state, m.position)
        om = np.sort(freqs.omega)
        perp = math.sqrt(om[1] * om[2]) / (2 * math.pi)
        axial = om[0] / (2 * math.pi)
        # cheap depth proxy: escape to the asymptotic bias field
        depth_proxy = (
            C.magnetic_moment(state)
            * (math.hypot(bx, by) * C.GAUSS - m.b0)
            / C.K_B
            * 1e3
        )
        return model, m, perp, axial, depth_proxy

    def residuals(p):
        _, m, perp, axial, depth_proxy = observables(p)
        res = [
            (perp - f_perp) / f_perp,
            (axial - f_axial) / f_axial,
            (m.b0 / C.GAUSS - b0_gauss) / b0_gauss,
        ]
        if depth_mk is not None:
            res.append(0.5 * (depth_proxy - depth_mk) / depth_mk)
        if height_um is not None:
            res.append((m.position[2] * 1e6 - height_um) / height_um)
        return res

    fit = least_squares(residuals, x0, x_scale=[1.0, 1.0, 10.0, 3.0], diff_step=1e-4)
    print("residuals:", fit.fun, "params:", fit.x)
    model, m, perp, axial, _ = observables(fit.x)
    return fit.x, model, m, perp, axial


def report(tag, model, state, minimum):
    freqs = trap_frequencies(model, state, minimum.position)
    om = np.sort(freqs.omega) / (2 * math.pi)
    depth = trap_depth(model, state, minimum.position)
    ip = ip_fit(model, minimum.position)
    print(
        f"{tag}: B0 = {minimum.b0/C.GAUSS:.4f} G at z = {minimum.position[2]*1e6:.1f} um\n"
        f"  f = {om[2]:.1f}, {om[1]:.1f}, {om[0]:.2f} Hz   depth = {depth.temperature_equiv*1e3:.3f} mK\n"
        f"  IP fit: B' = {ip.b_prime:.3f} T/m  B'' = {ip.b_double_prime:.1f} T/m^2"
    )
    return om, depth


def main():
    reg = C.builtin_species()
    k92 = reg.stretched_state("K40")
    rb22 = reg.stretched_state("Rb87")
    data_dir = Path(__file__).resolve().parents[1] / "src" / "fermichip" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    print("== main science trap (K40 targets) ==")
    p, model, minimum, perp, axial = calibrate(
        k92, 823.0, 46.0, 2.6, depth_mk=1.02, x0=[2.0, 0.99, -16.8, -1.68]
    )
    report("toronto_z_trap", model, k92, minimum)
    save_geometry(
        data_dir / "toronto_z_trap.json",
        model,
        seed=minimum.position,
        description=(
            "Z-wire microtrap calibrated so the K40 |9/2,9/2> observables match the "
            "benchmark values (f_perp about 823 Hz, f_axial about 46 Hz, B0 = 2.6 G, "
            "depth about k_B x 1 mK). Wire layout and trap height are model choices, "
            "not measured hardware dimensions."
        ),
    )

    print("== RF splitting trap (Rb87 targets) ==")
    p, model, minimum, perp, axial = calibrate(
        rb22, 1230.0, 13.7, 1.214, height_um=80.0, x0=[0.34, 0.73, -8.5, -1.11]
    )
    report("toronto_split_trap", model, rb22, minimum)
    save_geometry(
        data_dir / "toronto_split_trap.json",
        model,
        seed=minimum.position,
        description=(
            "Z-wire microtrap 80 um from the chip plane, calibrated so the Rb87 |2,2> "
            "observables match the RF-splitting scenario (f_perp about 1.23 kHz, "
            "f_axial about 13.7 Hz, B0 = 1.214 G)."
        ),
    )


if __name__ == "__main__":
    main()
