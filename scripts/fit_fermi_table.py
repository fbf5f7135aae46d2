"""Fit a shipped Chebyshev table of f_n(e^x) on 0 <= x <= 36 against mpmath,
for a half-integer order n = 1/2, 3/2 or 5/2.

    python scripts/fit_fermi_table.py --order 1.5            # rewrite that order's table
    python scripts/fit_fermi_table.py --order 1.5 --check    # only compare the shipped table

Each piece of width 0.5 holds the degree-11 Chebyshev interpolant of
f_n(e^x) = -Li_n(-e^x) through the 12 first-kind nodes of the piece, with the
values and the coefficients computed in 40-digit mpmath and rounded to double
once.  The tables of all three orders live in one file,
`src/fermichip/data/fermi_tables.json`, which `fermichip.polylog` loads and
evaluates for 1 < z < e^36; writing one order leaves the others as they are.
Floats are written as their shortest repr, so they read back bit for bit.
Both modes end by printing the largest relative error of the shipped table
of that order, as `polylog` evaluates it, against mpmath at 4000 seeded
points, which takes most of the two minutes either mode runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]

ORDERS = (0.5, 1.5, 2.5)
LO, HI, WIDTH, NODES = 0.0, 36.0, 0.5, 12
DPS = 40
TARGET = ROOT / "src" / "fermichip" / "data" / "fermi_tables.json"
NOTE = ("Chebyshev coefficients of f_n(e^x) = -Li_n(-e^x) on 0 <= x <= 36 for each "
        "half-integer order n, written by scripts/fit_fermi_table.py from 40-digit mpmath "
        "values; do not edit. Row k of coef covers lo + k width <= x <= lo + (k + 1) width "
        "and holds the coefficients of T_0 .. T_11 in t = 2 (x - lo - k width) / width - 1.")


def fermi(order: float, x) -> mpmath.mpf:
    return mpmath.re(-mpmath.polylog(mpmath.mpf(order), -mpmath.exp(x)))


def piece_coefficients(order: float, a: float) -> list[float]:
    """Chebyshev coefficients of the interpolant of f_order on [a, a + WIDTH]."""
    theta = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
    mid, half = mpmath.mpf(a) + mpmath.mpf(WIDTH) / 2, mpmath.mpf(WIDTH) / 2
    vals = [fermi(order, mid + half * mpmath.cos(th)) for th in theta]
    coef = [2 * mpmath.fsum(v * mpmath.cos(k * th) for v, th in zip(vals, theta)) / NODES
            for k in range(NODES)]
    coef[0] /= 2
    return [float(c) for c in coef]


def render(coef: dict[float, list[list[float]]]) -> str:
    """The table file: NOTE, then per order its lo, width and one row of
    coefficients per line."""
    orders = ",\n".join(
        f'    "{order}": {{\n      "lo": {LO!r},\n      "width": {WIDTH!r},\n      "coef": [\n'
        + ",\n".join("        " + json.dumps(row) for row in rows) + "\n      ]\n    }"
        for order, rows in coef.items())
    return '{\n  "note": ' + json.dumps(NOTE) + ',\n  "orders": {\n' + orders + "\n  }\n}\n"


def max_error(order: float, points: int = 4000, seed: int = 32) -> float:
    sys.path.insert(0, str(ROOT / "src"))
    from fermichip import polylog

    x = np.random.default_rng(seed).uniform(LO, HI, points)
    got = polylog._piecewise(polylog._TABLES[order], x)
    return max(abs(float(g / fermi(order, mpmath.mpf(xi)) - 1)) for g, xi in zip(got, x))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=float, choices=ORDERS, required=True,
                        help="the half-integer order n of the table")
    parser.add_argument("--check", action="store_true", help="only compare the shipped table")
    args = parser.parse_args()
    mpmath.mp.dps = DPS
    if not args.check:
        pieces = round((HI - LO) / WIDTH)
        rows = [piece_coefficients(args.order, LO + k * WIDTH) for k in range(pieces)]
        shipped = json.loads(TARGET.read_text())["orders"] if TARGET.exists() else {}
        coef = {n: rows if n == args.order else shipped[str(n)]["coef"]
                for n in ORDERS if n == args.order or str(n) in shipped}
        TARGET.write_text(render(coef))
        print(f"wrote {pieces} pieces x {NODES} coefficients of order {args.order} "
              f"to {TARGET.relative_to(ROOT)}")
    print(f"max relative error against mpmath: {max_error(args.order):.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
