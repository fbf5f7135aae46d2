"""Reference fugacities of the trapped Fermi gas at given T/T_F, in mpmath.

    python scripts/fugacity_reference.py 0.1 0.2 5
    python scripts/fugacity_reference.py            # the --scan-out grid

For each reduced temperature t, read as a double, the fugacity Z solves
6 f_3(Z) = t^-3, with f_3(Z) = -Li_3(-Z).  The script finds the root in
y = ln Z of ln(-Li_3(-e^y)) - ln(t^-3/6) with `mpmath.findroot` at 40 digits
and prints, per t, that Z to 20 digits, the program's Z from
`fermichip.thermo.fugacity_from_reduced_temperature` to 17, and their
difference in units of the last place (ulp) of the program's Z.  Run it from
two checkouts to see which digits a change to the solve moved, and whether
they moved towards the reference.  Without arguments it takes the default
grid of `fermichip thermo --scan-out`: 25 points log-spaced from 0.05 to 5.

The program's Z is the one-point solve at each t.  The script also solves
all the t in one array call.  An array solve finishes its last few points on
Python floats, so the t are padded with the 25 points of the scan grid: each
t then takes at least one masked array pass.  The last column marks with
`DIFFERS` any t where the two paths disagree in any bit; the script then
exits 1.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fermichip import thermo  # noqa: E402

DPS = 40
SCAN_GRID = np.geomspace(0.05, 5.0, 25)


def reference(t: float, start: float) -> mpmath.mpf:
    """Z at reduced temperature t to DPS digits, by a root find from Z = start."""
    with mpmath.workdps(DPS):
        target = mpmath.mpf(t) ** -3 / 6
        y = mpmath.findroot(
            lambda y: mpmath.log(-mpmath.polylog(3, -mpmath.exp(y)) / target),
            mpmath.log(start),
        )
        return mpmath.exp(y)


def main(argv: list[str]) -> int:
    ts = [float(a) for a in argv] if argv else SCAN_GRID.tolist()
    padded = np.concatenate([ts, SCAN_GRID])
    batch = thermo.fugacity_from_reduced_temperature(padded)[:len(ts)].tolist()
    print(f"{'t':>24} {'Z (mpmath, 40 digits)':>28} {'Z (fermichip)':>25} {'ulps':>6} array")
    status = 0
    for t, z_batch in zip(ts, batch):
        z = thermo.fugacity_from_reduced_temperature(t)
        ref = reference(t, z)
        with mpmath.workdps(DPS):
            ulps = float((mpmath.mpf(z) - ref) / math.ulp(z))
        same = z_batch == z
        status = status if same else 1
        flag = "same" if same else "DIFFERS"
        print(f"{t!r:>24} {mpmath.nstr(ref, 20):>28} {z!r:>25} {ulps:>6.2f} {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
