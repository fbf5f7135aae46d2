#!/usr/bin/env python3
"""End-to-end degeneracy-signature demo.

Synthesizes time-of-flight images of a trapped K40 cloud across a range of
T/T_F, fits Gaussian and Fermi-Dirac envelopes to each, and prints the
discrimination table: chi^2 ratio, recovered T/T_F and apparent temperature.
At low T/T_F the Gaussian fit degrades and the apparent temperature plateaus
(Fermi pressure); in the Boltzmann regime the two models coincide.  There the
image no longer constrains the fugacity Z, and the fit's flags stand in place
of a T/T_F that would mean nothing.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fermichip import constants as C
from fermichip import imagefit, thermo


def main():
    reg = C.builtin_species()
    k92 = reg.stretched_state("K40")
    trap = thermo.HarmonicTrap.from_frequencies_hz(823.0, 46.0, 823.0)
    t_expand = 10e-3
    print(f"{'T/T_F':>6} {'chi2_G/chi2_FD':>14} {'fitted T/T_F':>20} "
          f"{'T_app/T':>8} {'curve':>7}")
    for t_red, pitch_um in ((0.1, 8), (0.2, 10), (0.35, 11), (0.6, 13), (1.0, 16), (2.0, 25)):
        gas = thermo.TrappedGasState.from_reduced_temperature(k92, trap, 4e4, t_red)
        clean = imagefit.synthesize_tof_image(gas, t_expand, (64, 64), pitch_um * 1e-6)
        img = imagefit.add_noise(clean, 0.02 * float(clean.values.max()), seed=11)
        gauss = imagefit.fit_gaussian(img)
        fd = imagefit.fit_fermi_dirac(img)
        t_app = imagefit.apparent_temperature(gauss, trap, k92.species.mass, t_expand)
        # every flag of the Fermi-Dirac fit says that Z is not constrained
        fitted = ",".join(fd.flags) or f"{fd.params['T_over_TF']:.3f}"
        print(
            f"{t_red:6.2f} {gauss.reduced_chi2 / fd.reduced_chi2:14.2f} "
            f"{fitted:>20} {t_app / gas.temperature:8.3f} "
            f"{imagefit.apparent_temperature_curve(t_red):7.3f}"
        )


if __name__ == "__main__":
    main()
