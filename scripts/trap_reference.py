"""Reference trap minima and frequencies of the shipped geometries, in mpmath.

    python scripts/trap_reference.py

For each geometry in `src/fermichip/data/`, read into doubles as
`fermichip.trapfield.load_geometry` reads it, the field is the closed-form
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
`tests/test_trapfield.py` hardcodes them.  It takes a few seconds.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fermichip import constants as C  # noqa: E402
from fermichip import trapfield  # noqa: E402

DPS = 40
GEOMETRIES = ("toronto_z_trap", "toronto_split_trap")
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
    model, seed = trapfield.load_geometry(ROOT / "src" / "fermichip" / "data" / f"{name}.json")
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


def main() -> int:
    mpmath.mp.dps = DPS
    for name in GEOMETRIES:
        x, b0, freqs, b_double_prime, b_primes = reference(name)
        print(f"{name}:")
        print("  position_um", [mpmath.nstr(v * 10**6, 20) for v in x])
        print("  b0_gauss", mpmath.nstr(b0 / mpmath.mpf(float(C.GAUSS)), 20))
        for species, values in freqs.items():
            print(f"  {species} frequencies_hz", [mpmath.nstr(v, 20) for v in values])
        print("  ip_b_double_prime_t_per_m2", mpmath.nstr(b_double_prime, 20))
        print("  ip_b_prime_t_per_m (transverse)", [mpmath.nstr(v, 20) for v in b_primes])
        print("  ip_b_prime_t_per_m (mean)", mpmath.nstr(sum(b_primes) / 2, 20))
    return 0


if __name__ == "__main__":
    sys.exit(main())
