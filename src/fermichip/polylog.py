"""Fermi functions of the orders the program uses, and Bose functions of real
order n >= 1/2, from numpy and `math` alone.

fermi_fn(n, z) = -Li_n(-z) for z > 0, the integral (1/Gamma(n)) * Int_0^inf
t^(n-1) dt / (exp(t)/z + 1), for an integer order 1 <= n <= 24 or a
half-integer order n = 1/2, 3/2 or 5/2; any other order raises ValueError.
bose_fn(n, z) = Li_n(z) for 0 < z <= 1 and real n >= 1/2.

fermi_fn is evaluated in these regimes, with x = ln z:

  z <= 1                   the alternating series, summed with the fixed
                           24-term acceleration of Cohen, Rodriguez Villegas
                           and Zagier (Exp. Math. 9, 3 (2000)): a polynomial in z;
  z > 1, integer n         f_n(e^x) = P_n(x) - (-1)^n f_n(e^-x), exact, with P_n
                           the terminating Sommerfeld polynomial;
  1 < z < e^36, n = 1/2,   a shipped piecewise Chebyshev table in x per order,
  3/2, 5/2                 fitted against mpmath by scripts/fit_fermi_table.py;
  z >= e^36, n = 1/2,      Sommerfeld asymptotic expansion through the eta(24)
  3/2, 5/2                 term.

No regime runs quadrature or builds anything at run time.  The test suite
checks the seams between regimes (`seams`) to 1e-8.  Every regime is
elementwise, so an array call gives the same bits as per-element calls.

The special functions behind the Sommerfeld and Wood expansions need no
library either: 1/Gamma is rounded once from its exact factorial forms at the
integers and half-integers (`math.gamma` elsewhere); zeta(s) is
eta(s) / (1 - 2^(1-s)) with eta(s) = f_s(1) from the accelerated series for
s >= 1/2, and the reflection formula below that; zeta at the even and the
non-positive integers is exact, from Bernoulli numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _fermi12_table, _fermi32_table, _fermi52_table

__all__ = [
    "fermi_fn",
    "bose_fn",
    "fermi_fn_degenerate_limit",
    "gaussian_reduction_check",
    "seams",
    "SERIES_CUT",
    "SOMMERFELD_CUT_LOG",
]

SERIES_CUT = 1.0
SOMMERFELD_CUT_LOG = 36.0
_SERIES_TERMS = 24
_BOSE_TERMS = 72
_WOOD_TERMS = 16
# bose_fn uses the duplication formula up to here and Wood's expansion above
_BOSE_DUPLICATION_CUT = 2.0**-0.5
# trapezoid step of gaussian_reduction_check on the real line
_GAUSS_STEP = 0.1

# f_n(e^x) for 0 <= x <= SOMMERFELD_CUT_LOG and each half-integer order:
# (lower end, piece width, one row of Chebyshev coefficients per piece)
_TABLES = {
    n: (m.LO, m.WIDTH, np.array(m.COEF))
    for n, m in ((0.5, _fermi12_table), (1.5, _fermi32_table), (2.5, _fermi52_table))
}
_MAX_EXACT_ORDER = 24


def _bernoulli(m: int) -> list[Fraction]:
    """B_0 .. B_m exactly (B_1 = -1/2), from sum_k C(j+1, k) B_k = 0."""
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b


_BERNOULLI = _bernoulli(_MAX_EXACT_ORDER)
# zeta(-m) = (-1)^m B_(m+1) / (m+1): the trivial zeros are exactly 0
_ZETA_NONPOSITIVE = [float((-1) ** m * b / (m + 1)) for m, b in enumerate(_BERNOULLI[1:])]
# Dirichlet eta(2k) = (1 - 2^(1-2k)) zeta(2k) for 2k = 0, 2, ..., 24, with
# zeta(2k) = (-1)^(k+1) B_2k (2 pi)^2k / (2 (2k)!) rounded once from a 50-digit
# pi; eta(0) = 1/2 makes the Sommerfeld sum start at the leading x^n / Gamma(n+1)
_PI = Fraction("3.1415926535897932384626433832795028841971693993751")
_INV_SQRT_PI = Fraction("0.56418958354775628694807945156077258584405062932900")
_TWO_K = np.arange(0.0, _MAX_EXACT_ORDER + 1.0, 2.0)
_ZETA_EVEN = np.array([
    float((-1) ** (k + 1) * _BERNOULLI[2 * k] * (2 * _PI) ** (2 * k) / (2 * math.factorial(2 * k)))
    for k in range(len(_TWO_K))
])
_ETA_EVEN = (1.0 - 2.0 ** (1.0 - _TWO_K)) * _ZETA_EVEN


def _check_order(n: float) -> float:
    n = float(n)
    if not n >= 0.5:
        raise ValueError(f"order n={n} out of domain (need n >= 1/2)")
    return n


def _fermi_order(n: float) -> float:
    n = float(n)
    if n in _TABLES or (n.is_integer() and 1.0 <= n <= _MAX_EXACT_ORDER):
        return n
    raise ValueError(
        f"fermi_fn order n={n} is not supported: need an integer 1 <= n <= "
        f"{_MAX_EXACT_ORDER} or n = 1/2, 3/2, 5/2"
    )


def _rgamma(x: float) -> float:
    """1/Gamma(x), 0 at the poles x = 0, -1, -2, ...  At the integers and the
    half-integers, which are all the Sommerfeld terms use, it is rounded once
    from the exact forms 1/(x-1)! and, for x = m + 1/2,
    4^m m! / ((2m)! sqrt(pi)) (m >= 0) or (2k)! / ((-4)^k k! sqrt(pi)) (m = -k)."""
    if x.is_integer():
        return 0.0 if x <= 0.0 else 1 / math.factorial(int(x) - 1)
    if not (2.0 * x).is_integer():
        return 1.0 / math.gamma(x)
    m = int(x - 0.5)
    if m >= 0:
        exact = Fraction(4**m * math.factorial(m), math.factorial(2 * m))
    else:
        exact = Fraction(math.factorial(-2 * m), (-4) ** -m * math.factorial(-m))
    return float(exact * _INV_SQRT_PI)


def _crvz_weights(terms: int) -> np.ndarray:
    """Weights c_k with sum_k (-1)^k a_k ~= sum_k c_k a_k (Cohen, Rodriguez
    Villegas and Zagier, Algorithm 1), computed exactly: their d is the
    Chebyshev value T_terms(3), an integer.  For a_k the moments of a positive
    measure on [0, 1], as (w^(k+1) / (k+1)^n) are for 0 < w <= 1 and n > 0, the
    relative error is below 4 / (3 + sqrt 8)^terms, 1.7e-18 at 24 terms."""
    d_prev, d = 1, 3
    for _ in range(terms - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c = Fraction(-1), Fraction(-d)
    weights = []
    for k in range(terms):
        c = b - c
        weights.append(float(c / d))
        b = b * (k + terms) * (k - terms) / (Fraction(2 * k + 1, 2) * (k + 1))
    return np.array(weights)


_CRVZ_WEIGHTS = _crvz_weights(_SERIES_TERMS)


def _power_series(coeff: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j coeff[j-1] w^j by Horner's rule, smallest terms first: elementwise,
    so a value does not depend on the batch (a BLAS product's rounding does)."""
    acc = 0.0
    for c in coeff[::-1]:
        acc = acc * w + c
    return acc * w


def _fermi_series(n: float, w: np.ndarray) -> np.ndarray:
    # Accelerated alternating series sum_j (-1)^(j+1) w^j / j^n, w <= 1.
    j = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    return _power_series(_CRVZ_WEIGHTS / j**n, w)


def _zeta(s: float) -> float:
    """Riemann zeta(s) for real s != 1: eta(s) / (1 - 2^(1-s)) for s >= 1/2,
    the exact Bernoulli values at s = 0, -1, -2, ..., and the reflection
    zeta(s) = 2 (2 pi)^(s-1) sin(pi s / 2) Gamma(1-s) zeta(1-s) otherwise."""
    if s >= 0.5:
        eta = float(_fermi_series(s, np.ones(1))[0])
        return eta / -math.expm1((1.0 - s) * math.log(2.0))
    if s.is_integer():
        return _ZETA_NONPOSITIVE[int(-s)]
    # sin(pi s / 2) has period 4 in s, and fmod is exact
    sine = math.sin(0.5 * math.pi * math.fmod(s, 4.0))
    return 2.0 * (2.0 * math.pi) ** (s - 1.0) * sine * math.gamma(1.0 - s) * _zeta(1.0 - s)


@lru_cache(maxsize=64)
def _sommerfeld_terms(n: float) -> tuple[tuple[float, float], ...]:
    """(power, coefficient) of the nonzero terms 2 eta(2k) x^(n-2k) / Gamma(n-2k+1)."""
    terms = ((n - two_k, 2.0 * eta * _rgamma(n - two_k + 1.0))
             for two_k, eta in zip(_TWO_K, _ETA_EVEN))
    return tuple((power, coeff) for power, coeff in terms if coeff != 0.0)


def _fermi_sommerfeld(n: float, x: np.ndarray) -> np.ndarray:
    """sum_k 2 eta(2k) x^(n-2k) / Gamma(n-2k+1): exact with the f_n(e^-x) term
    for integer n (the sum terminates), asymptotic for x -> inf otherwise."""
    out = np.zeros_like(x)
    for power, coeff in _sommerfeld_terms(n):
        out += coeff * x**power
    return out


def _chebyshev(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Clenshaw's sum_k coef[i, k] T_k(t[i]): one row of coefficients per point."""
    b1 = b2 = np.zeros_like(t)
    for c in coef.T[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    return t * b1 - b2 + coef[:, 0]


def _piecewise(table, x: np.ndarray) -> np.ndarray:
    """A piecewise Chebyshev series (lo, width, coef) at x, which lies in
    [lo, lo + width * len(coef)]."""
    lo, width, coef = table
    k = np.minimum(((x - lo) // width).astype(np.intp), len(coef) - 1)
    t = 2.0 * (x - lo - k * width) / width - 1.0
    return _chebyshev(coef[k], t)


def fermi_fn(n: float, z) -> float | np.ndarray:
    """-Li_n(-z) for an integer order 1 <= n <= 24 or n = 1/2, 3/2, 5/2, and
    fugacity-like argument z > 0.

    Accepts scalars or arrays; strictly increasing in z.  Raises ValueError
    for any other order.
    """
    n = _fermi_order(n)
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0.0):
        raise ValueError("fermi_fn requires z > 0")
    scalar = z.ndim == 0
    w = np.atleast_1d(z)

    if n.is_integer():
        # one series pass over min(w, 1/w); above z = 1 reflect it through P_n
        high = w > SERIES_CUT
        out = _fermi_series(n, np.where(high, 1.0 / w, w))
        if high.any():
            out[high] = _fermi_sommerfeld(n, np.log(w[high])) - (-1.0) ** n * out[high]
        return float(out[0]) if scalar else out

    out = np.empty_like(w)
    low = w <= SERIES_CUT
    if low.any():
        out[low] = _fermi_series(n, w[low])
    rest = ~low
    if rest.any():
        x = np.log(w[rest])
        high = x >= SOMMERFELD_CUT_LOG
        mid = ~high
        vals = np.empty_like(x)
        if mid.any():
            vals[mid] = _piecewise(_TABLES[n], x[mid])
        if high.any():
            vals[high] = _fermi_sommerfeld(n, x[high])
        out[rest] = vals
    return float(out[0]) if scalar else out


def seams(n: float) -> list[tuple[float, float, float]]:
    """(ln z, value from the regime below, value from the regime above) at each
    seam of fermi_fn(n, .); each side is evaluated by its own formula at the
    seam itself, so the pair shows how well the regimes meet.  For integer n
    the one seam is z = 1; for a tabled order, both ends of the table and every
    boundary between its pieces."""
    n = _fermi_order(n)
    below = _fermi_series(n, np.array([SERIES_CUT]))[0]
    if n.is_integer():
        zero = np.zeros(1)
        return [(0.0, below, _fermi_sommerfeld(n, zero)[0] - (-1.0) ** n * below)]
    lo, width, coef = _TABLES[n]
    ends = _chebyshev(coef, np.full(len(coef), -1.0)), _chebyshev(coef, np.ones(len(coef)))
    above = _fermi_sommerfeld(n, np.array([SOMMERFELD_CUT_LOG]))[0]
    out = [(lo, below, ends[0][0])]
    out += [(lo + (k + 1) * width, ends[1][k], ends[0][k + 1]) for k in range(len(coef) - 1)]
    out.append((SOMMERFELD_CUT_LOG, ends[1][-1], above))
    return out


def _bose_series(n: float, w: np.ndarray) -> np.ndarray:
    # sum_j w^j / j^n, w <= 1/2: the tail is below 1e-20 after 72 terms
    j = np.arange(1, _BOSE_TERMS + 1, dtype=float)
    return _power_series(1.0 / j**n, w)


@lru_cache(maxsize=64)
def _wood_coefficients(n: float) -> np.ndarray:
    """zeta(n-k) / k! for k < _WOOD_TERMS, 0 at the pole k = n - 1 of integer n."""
    pole = n - 1.0 if n.is_integer() else -1.0
    a = [0.0 if k == pole else _zeta(n - k) / math.factorial(k) for k in range(_WOOD_TERMS)]
    return np.array(a)


def _bose_wood(n: float, mu: np.ndarray) -> np.ndarray:
    """Li_n(e^mu) for -2 pi < mu < 0 by the expansion about mu = 0 of D. C. Wood
    ("The computation of polylogarithms", Kent TR 15-92, 1992):
    Gamma(1-n) (-mu)^(n-1) + sum_k zeta(n-k) mu^k / k!, where for integer n the
    zeta(1) pole and the Gamma term merge into mu^(n-1) (H_(n-1) - ln(-mu)) / (n-1)!."""
    a = _wood_coefficients(n)
    if n.is_integer():
        m = int(n) - 1
        harmonic = math.fsum(1.0 / j for j in range(1, m + 1))
        head = mu**m / math.factorial(m) * (harmonic - np.log(-mu))
    else:
        head = math.gamma(1.0 - n) * (-mu) ** (n - 1.0)
    return head + (a[0] + _power_series(a[1:], mu))


def bose_fn(n: float, z) -> float | np.ndarray:
    """Li_n(z) for 0 < z <= 1 (z = 1 needs n > 1; the condensed branch z > 1
    is out of domain).

    Up to z = 2^(-1/2), the duplication formula Li_n(z) = f_n(z) + 2^(1-n)
    Li_n(z^2) with the direct series for Li_n(z^2) (all terms positive); above
    it, Wood's expansion in ln z; Li_n(1) = zeta(n).
    """
    n = _check_order(n)
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0.0):
        raise ValueError("bose_fn requires z > 0")
    if np.any(z > 1.0):
        raise ValueError("bose_fn requires z <= 1 (condensed regime not modeled)")
    if np.any(z == 1.0) and not n > 1.0:
        raise ValueError("bose_fn at z=1 diverges unless n > 1")
    scalar = z.ndim == 0
    w = np.atleast_1d(z)
    out = np.empty_like(w)
    low = w <= _BOSE_DUPLICATION_CUT
    if low.any():
        wl = w[low]
        out[low] = _fermi_series(n, wl) + 2.0 ** (1.0 - n) * _bose_series(n, wl * wl)
    unit = w == 1.0
    if unit.any():
        out[unit] = _zeta(n)
    rest = ~low & ~unit
    if rest.any():
        out[rest] = _bose_wood(n, np.log(w[rest]))
    return float(out[0]) if scalar else out


def fermi_fn_degenerate_limit(n: float, beta_mu) -> float | np.ndarray:
    """Deep-degeneracy limit (beta*mu)^n / Gamma(n+1) of fermi_fn(n, e^(beta*mu)).

    Leading term only; the relative error is O((beta*mu)^-2) and is already a
    few percent at beta*mu = 10 for n = 3.
    """
    n = _check_order(n)
    x = np.asarray(beta_mu, dtype=float)
    out = x**n * _rgamma(n + 1.0)
    return float(out) if out.ndim == 0 else out


def gaussian_reduction_check(n: float, c: float) -> tuple[float, float]:
    """Return (Int f_n(c e^{-x^2}) dx over the real line, sqrt(pi) f_{n+1/2}(c)).

    The two sides agree identically; evaluating both is a self-test of the
    evaluator.  Both orders n and n + 1/2 must be ones fermi_fn supports.  The
    integral is the trapezoid rule with step 0.1, which converges exponentially
    for this analytic, fast-decaying integrand (Trefethen and Weideman, SIAM
    Rev. 56, 385 (2014)), out to where c e^{-x^2} < e^{-40} min(c, 1).
    """
    c = float(c)
    if not c > 0.0:
        raise ValueError("need c > 0")
    rhs = math.sqrt(math.pi) * fermi_fn(n + 0.5, c)
    upper = math.sqrt(max(math.log(c), 0.0) + 40.0)
    u = _GAUSS_STEP * np.arange(math.ceil(upper / _GAUSS_STEP) + 1)
    w = c * np.exp(-u * u)
    vals = fermi_fn(n, w[w > 0.0])
    # the nodes +-u pair up; u = 0 is counted once
    lhs = _GAUSS_STEP * (2.0 * math.fsum(vals) - float(vals[0]))
    return lhs, rhs
