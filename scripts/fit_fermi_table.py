"""Fit the shipped Chebyshev table of f_3/2(e^x) on 0 <= x <= 36 against mpmath.

    python scripts/fit_fermi_table.py            # rewrite the table
    python scripts/fit_fermi_table.py --check    # only compare the shipped table

Each piece of width 0.5 holds the degree-11 Chebyshev interpolant of
f_3/2(e^x) = -Li_3/2(-e^x) through the 12 first-kind nodes of the piece, with
the values and the coefficients computed in 40-digit mpmath and rounded to
double once.  The table lives in `src/fermichip/data/fermi_tables.json`,
which `fermichip.polylog` loads and evaluates for 1 < z < e^36.  Floats are
written as their shortest repr, so they read back bit for bit.  Both modes
end by printing the largest relative error of the shipped table, as
`polylog` evaluates it, against mpmath at 4000 seeded points, which takes
most of the two minutes either mode runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]

ORDER = 1.5
LO, HI, WIDTH, NODES = 0.0, 36.0, 0.5, 12
DPS = 40
TARGET = ROOT / "src" / "fermichip" / "data" / "fermi_tables.json"
NOTE = ("Chebyshev coefficients of f_3/2(e^x) = -Li_3/2(-e^x) on 0 <= x <= 36, written "
        "by scripts/fit_fermi_table.py from 40-digit mpmath values; do not edit. Row k of "
        "coef covers lo + k width <= x <= lo + (k + 1) width and holds the coefficients of "
        "T_0 .. T_11 in t = 2 (x - lo - k width) / width - 1.")


def fermi(x) -> mpmath.mpf:
    return mpmath.re(-mpmath.polylog(mpmath.mpf(ORDER), -mpmath.exp(x)))


def piece_coefficients(a: float) -> list[float]:
    """Chebyshev coefficients of the interpolant of f_3/2 on [a, a + WIDTH]."""
    theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
    mid, half = mpmath.mpf(a) + mpmath.mpf(WIDTH) / 2, mpmath.mpf(WIDTH) / 2
    vals = [fermi(mid + half * mpmath.cos(th)) for th in theta]
    coef = [2 * mpmath.fsum(v * mpmath.cos(k * th) for v, th in zip(vals, theta)) / NODES
            for k in range(NODES)]
    coef[0] /= 2
    return [float(c) for c in coef]


def render(coef: list[list[float]]) -> str:
    """The table file: NOTE, lo, width, then one row of coefficients per line."""
    rows = ",\n".join("    " + json.dumps(row) for row in coef)
    return (f'{{\n  "note": {json.dumps(NOTE)},\n  "lo": {LO!r},\n  "width": {WIDTH!r},\n'
            f'  "coef": [\n{rows}\n  ]\n}}\n')


def max_error(points: int = 4000, seed: int = 32) -> float:
    sys.path.insert(0, str(ROOT / "src"))
    from fermichip import polylog

    x = np.random.default_rng(seed).uniform(LO, HI, points)
    got = polylog._piecewise(x)
    return max(abs(float(g / fermi(mpmath.mpf(xi)) - 1)) for g, xi in zip(got, x))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="only compare the shipped table")
    args = parser.parse_args()
    mpmath.mp.dps = DPS
    if not args.check:
        pieces = round((HI - LO) / WIDTH)
        TARGET.write_text(render([piece_coefficients(LO + k * WIDTH) for k in range(pieces)]))
        print(f"wrote {pieces} pieces x {NODES} coefficients to {TARGET.relative_to(ROOT)}")
    print(f"max relative error against mpmath: {max_error():.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
