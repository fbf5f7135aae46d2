"""Fit a shipped Chebyshev table of f_n(e^x) on 0 <= x <= 36 against mpmath,
for a half-integer order n = 1/2, 3/2 or 5/2.

    python scripts/fit_fermi_table.py --order 1.5            # rewrite the table module
    python scripts/fit_fermi_table.py --order 1.5 --check    # only compare the shipped table

Each piece of width 0.5 holds the degree-11 Chebyshev interpolant of
f_n(e^x) = -Li_n(-e^x) through the 12 first-kind nodes of the piece, with the
values and the coefficients computed in 40-digit mpmath and rounded to double
once.  The module written, `src/fermichip/_fermi{2n}2_table.py` (so
`_fermi32_table.py` for n = 3/2), is what `fermichip.polylog` evaluates for
1 < z < e^36.  Both modes end by printing the largest relative error of that
module's table, as `polylog` evaluates it, against mpmath at 4000 seeded
points, which takes most of the two minutes either mode runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]

ORDERS = (0.5, 1.5, 2.5)
LO, HI, WIDTH, NODES = 0.0, 36.0, 0.5, 12
DPS = 40


def target(order: float) -> Path:
    return ROOT / "src" / "fermichip" / f"_fermi{round(2 * order)}2_table.py"


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


def render(order: float, rows: list[list[float]]) -> str:
    name = f"{round(2 * order)}/2"
    lines = [
        f'"""Chebyshev coefficients of f_{name}(e^x) on 0 <= x <= 36, written by',
        f"scripts/fit_fermi_table.py --order {order} from 40-digit mpmath values; do",
        "not edit.",
        "",
        "Row k covers LO + k WIDTH <= x <= LO + (k + 1) WIDTH and holds the",
        "coefficients of T_0 .. T_11 in t = 2 (x - LO - k WIDTH) / WIDTH - 1.",
        '"""',
        "",
        f"LO = {LO!r}",
        f"WIDTH = {WIDTH!r}",
        "COEF = (",
    ]
    for row in rows:
        lines.append("    (" + ", ".join(repr(c) for c in row) + "),")
    lines.append(")")
    return "\n".join(lines) + "\n"


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
        path = target(args.order)
        path.write_text(render(args.order, rows))
        print(f"wrote {pieces} pieces x {NODES} coefficients to {path.relative_to(ROOT)}")
    print(f"max relative error against mpmath: {max_error(args.order):.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
