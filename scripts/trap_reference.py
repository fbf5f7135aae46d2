"""Reference trap minima and frequencies of the shipped geometries, in mpmath.

    python scripts/trap_reference.py

For each shipped geometry, read into doubles by name with
`fermichip.trapfield.load_geometry`, the field is the closed-form
finite-segment Biot-Savart expression of Hanson and Hirshman (Phys. Plasmas 9,
4410 (2002)) plus the bias, evaluated in 40-digit mpmath.  The minimum of |B|
is found by Newton iteration from the shipped seed, with the gradient and the
Hessian of |B| from `mpmath.diff`, and the trap frequencies of the stretched
K40 and Rb87 states are sqrt(mu lambda / m) over the eigenvalues lambda of
that Hessian, with the program's own moments and masses.  The Ioffe-Pritchard
parameters come from the same eigenvalues: B'' is the soft one lambda_s, and
each transverse lambda_t gives B'_t = sqrt(B0 (lambda_t + B''/2)).  The script
prints the position (um), B0 (gauss), the frequencies (Hz), B'' (T/m^2), both
B'_t and their mean (T/m) to 20 digits; the reference test in
`tests/test_trapfield.py` hardcodes them.  Next to each value that
`fermichip trap` reports it prints the program's value, found from the same
seed and computed as the command computes it, and their difference in units
of the last place (ulp) of the program's value.  The x and y of both traps
are 0 by symmetry, so there the program's value is round-off and its ulps
are no measure; read its size instead.  Run it from two checkouts to see
which digits a change moved, and whether they moved towards the reference.
It takes a few seconds.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fermichip import constants as C  # noqa: E402
from fermichip import trapfield  # noqa: E402

DPS = 40
GEOMETRIES = ("toronto-z-trap", "toronto-split-trap")
SPECIES = ("K40", "Rb87")


def field_norm(model):
    """|B|(x, y, z) of the model in mpmath, from the doubles of its geometry."""
    segments = []
    for seg in model.segments:
        a = mpmath.matrix([mpmath.mpf(float(v)) for v in seg.a])
        b = mpmath.matrix([mpmath.mpf(float(v)) for v in seg.b])
        length = mpmath.norm(b - a)
        k = mpmath.mpf(float(C.MU_0)) * mpmath.mpf(float(seg.current)) / (4 * mpmath.pi)
        segments.append((a, b, (b - a) / length, length, k))
    bias = mpmath.matrix([mpmath.mpf(float(v)) for v in model.bias])

    def norm(x, y, z):
        r = mpmath.matrix([x, y, z])
        total = bias.copy()
        for a, b, e, length, k in segments:
            ri, rf = r - a, r - b
            ri_n, rf_n = mpmath.norm(ri), mpmath.norm(rf)
            s = ri_n + rf_n
            coef = k * 2 * length * s / (ri_n * rf_n * (s * s - length**2))
            total += coef * mpmath.matrix([
                e[1] * ri[2] - e[2] * ri[1],
                e[2] * ri[0] - e[0] * ri[2],
                e[0] * ri[1] - e[1] * ri[0],
            ])
        return mpmath.norm(total)

    return norm


def gradient_and_hessian(f, x):
    grad = mpmath.matrix([mpmath.diff(f, x, tuple(int(i == j) for i in range(3))) for j in range(3)])
    hess = mpmath.matrix(3, 3)
    for j in range(3):
        for k in range(j, 3):
            order = [0, 0, 0]
            order[j] += 1
            order[k] += 1
            hess[j, k] = hess[k, j] = mpmath.diff(f, x, tuple(order))
    return grad, hess


def reference(name):
    model, seed = trapfield.load_geometry(name)
    f = field_norm(model)
    x = [mpmath.mpf(float(v)) for v in seed]
    for _ in range(30):
        grad, hess = gradient_and_hessian(f, x)
        step = mpmath.lu_solve(hess, grad)
        x = [xi - si for xi, si in zip(x, step)]
        if mpmath.norm(step) < mpmath.mpf(10) ** (-DPS + 5) * abs(x[2]):
            break
    else:
        raise RuntimeError(f"{name}: Newton iteration did not converge")
    _, hess = gradient_and_hessian(f, x)
    lam = sorted(mpmath.eigsy(hess, eigvals_only=True))
    registry = C.builtin_species()
    freqs = {}
    for species in SPECIES:
        state = registry.stretched_state(species)
        mu = mpmath.mpf(float(C.magnetic_moment(state)))
        mass = mpmath.mpf(float(state.species.mass))
        freqs[species] = [mpmath.sqrt(mu * v / mass) / (2 * mpmath.pi) for v in lam]
    b0 = f(*x)
    b_primes = [mpmath.sqrt(b0 * (v + lam[0] / 2)) for v in lam[1:]]
    return x, b0, freqs, lam[0], b_primes


def program(name):
    """The values `fermichip trap` reports for the geometry, per species."""
    model, seed = trapfield.load_geometry(name)
    minimum = trapfield.find_minimum(model, seed)
    ip = trapfield.ip_fit(model, minimum.position)
    registry = C.builtin_species()
    freqs = {
        species: sorted(
            (trapfield.trap_frequencies(model, registry.stretched_state(species), minimum.position)
             .omega / (2 * math.pi)).tolist()
        )
        for species in SPECIES
    }
    return (minimum.position * 1e6).tolist(), minimum.b0 / C.GAUSS, freqs, ip


def row(label, ref, value=None):
    """One line: the reference to 20 digits, then the program's value and
    their difference in ulps of it, if the program reports the quantity."""
    line = f"  {label:<34} {mpmath.nstr(ref, 20):>28}"
    if value is not None:
        line += f" {value!r:>25} {float((mpmath.mpf(value) - ref) / math.ulp(value)):>10.3g}"
    print(line)


def main() -> int:
    mpmath.mp.dps = DPS
    for name in GEOMETRIES:
        x, b0, freqs, b_double_prime, b_primes = reference(name)
        position, b0_gauss, program_freqs, ip = program(name)
        print(f"{name}:{'reference':>55} {'fermichip':>25} {'ulps':>10}")
        for axis, ref, value in zip("xyz", x, position):
            row(f"position_um {axis}", ref * 10**6, value)
        row("b0_gauss", b0 / mpmath.mpf(float(C.GAUSS)), b0_gauss)
        for species, values in freqs.items():
            for k, (ref, value) in enumerate(zip(values, program_freqs[species])):
                row(f"{species} frequencies_hz {k}", ref, value)
        row("ip_b_double_prime_t_per_m2", b_double_prime, ip.b_double_prime)
        for k, ref in enumerate(b_primes):
            row(f"ip_b_prime_t_per_m transverse {k}", ref)
        row("ip_b_prime_t_per_m", sum(b_primes) / 2, ip.b_prime)
    return 0


if __name__ == "__main__":
    sys.exit(main())
