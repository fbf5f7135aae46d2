"""Fermi and Bose functions of real order n >= 1/2.

fermi_fn(n, z) = -Li_n(-z) for z > 0, the integral (1/Gamma(n)) * Int_0^inf
t^(n-1) dt / (exp(t)/z + 1).  bose_fn(n, z) = Li_n(z) for 0 < z <= 1.

fermi_fn is evaluated in these regimes, with x = ln z:

  z <= 1                   the alternating series, summed with the fixed
                           24-term acceleration of Cohen, Rodriguez Villegas
                           and Zagier (Exp. Math. 9, 3 (2000)): a polynomial in z;
  z > 1, integer n <= 24   f_n(e^x) = P_n(x) - (-1)^n f_n(e^-x), exact, with P_n
                           the terminating Sommerfeld polynomial;
  1 < z < e^36, n = 3/2    a shipped piecewise Chebyshev table in x, fitted
                           against mpmath by scripts/fit_fermi32_table.py;
  1 < z < e^36, other n    adaptive quadrature of the integral representation,
                           served through a Chebyshev interpolant of ln f_n in
                           x that is built on the order's first call;
  z >= e^36, non-integer n Sommerfeld asymptotic expansion through the eta(24)
                           term.

So the orders the library uses, 3/2, 2, 3 and 4, never run quadrature or build
an interpolant.  The test suite checks the seams between regimes (`seams`) to
1e-8.  Every regime is elementwise, so an array call gives the same bits as
per-element calls.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate
from scipy.special import expit, gamma, rgamma, zeta

from . import _fermi32_table
from .constants import NumericalError

__all__ = [
    "fermi_fn",
    "bose_fn",
    "fermi_fn_degenerate_limit",
    "gaussian_reduction_check",
    "seams",
    "QuadratureError",
    "SERIES_CUT",
    "SOMMERFELD_CUT_LOG",
]

SERIES_CUT = 1.0
SOMMERFELD_CUT_LOG = 36.0
_SERIES_TERMS = 24
_BOSE_TERMS = 72
_WOOD_TERMS = 16
_CHEB_POINTS = 220
# bose_fn uses the duplication formula up to here and Wood's expansion above
_BOSE_DUPLICATION_CUT = 2.0**-0.5

# Quadrature tolerances used for the integral representation.
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-10

# Dirichlet eta(2k) = (1 - 2^(1-2k)) zeta(2k) for 2k = 0, 2, ..., 24; eta(0) =
# 1/2 makes the Sommerfeld sum start at the leading x^n / Gamma(n+1) term.
_TWO_K = np.arange(0.0, 25.0, 2.0)
_ETA_EVEN = (1.0 - 2.0 ** (1.0 - _TWO_K)) * zeta(_TWO_K)
_MAX_EXACT_ORDER = int(_TWO_K[-1])

# f_3/2(e^x) for 0 <= x <= SOMMERFELD_CUT_LOG: (lower end, piece width,
# one row of Chebyshev coefficients per piece)
_FERMI32 = (_fermi32_table.LO, _fermi32_table.WIDTH, np.array(_fermi32_table.COEF))


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


def _check_order(n: float) -> float:
    n = float(n)
    if not n >= 0.5:
        raise ValueError(f"order n={n} out of domain (need n >= 1/2)")
    return n


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


@lru_cache(maxsize=64)
def _sommerfeld_terms(n: float) -> tuple[tuple[float, float], ...]:
    """(power, coefficient) of the nonzero terms 2 eta(2k) x^(n-2k) / Gamma(n-2k+1)."""
    r = rgamma(n - _TWO_K + 1.0)
    keep = r != 0.0
    return tuple(zip(n - _TWO_K[keep], 2.0 * _ETA_EVEN[keep] * r[keep]))


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


def _fermi_quad(n: float, x: float) -> float:
    """f_n(e^x) by adaptive quadrature; t = s^2 removes the t^(n-1) endpoint
    singularity and compresses the exponential tail."""
    from scipy.integrate import IntegrationWarning, quad

    def integrand(s):
        return s ** (2.0 * n - 1.0) * expit(x - s * s)

    edge = math.sqrt(max(x, 0.0) + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            core, _ = quad(integrand, 0.0, edge, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=200)
            tail, _ = quad(integrand, edge, np.inf, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=200)
        except IntegrationWarning as exc:
            raise QuadratureError(f"fermi_fn quadrature did not converge (n={n}, ln z={x}): {exc}")
    return 2.0 * rgamma(n) * (core + tail)


@lru_cache(maxsize=64)
def _mid_interpolant(n: float):
    """One-piece Chebyshev interpolant of ln f_n(e^x), as a `_piecewise` table,
    over the quadrature regime 0 < x < SOMMERFELD_CUT_LOG."""
    lo = math.log(SERIES_CUT) - 0.25
    hi = SOMMERFELD_CUT_LOG + 0.25

    def log_f(t):
        return np.array([math.log(_fermi_quad(n, 0.5 * (lo + hi) + 0.5 * (hi - lo) * ti)) for ti in t])

    return lo, hi - lo, chebinterpolate(log_f, _CHEB_POINTS - 1)[None, :]


def _exact_order(n: float) -> bool:
    return n.is_integer() and n <= _MAX_EXACT_ORDER


def fermi_fn(n: float, z) -> float | np.ndarray:
    """-Li_n(-z) for real order n >= 1/2 and fugacity-like argument z > 0.

    Accepts scalars or arrays; strictly increasing in z.
    """
    n = _check_order(n)
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0.0):
        raise ValueError("fermi_fn requires z > 0")
    scalar = z.ndim == 0
    w = np.atleast_1d(z)

    if _exact_order(n):
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
            if n == 1.5:
                vals[mid] = _piecewise(_FERMI32, x[mid])
            else:
                vals[mid] = np.exp(_piecewise(_mid_interpolant(n), x[mid]))
        if high.any():
            vals[high] = _fermi_sommerfeld(n, x[high])
        out[rest] = vals
    return float(out[0]) if scalar else out


def seams(n: float) -> list[tuple[float, float, float]]:
    """(ln z, value from the regime below, value from the regime above) at each
    seam of fermi_fn(n, .); each side is evaluated by its own formula at the
    seam itself, so the pair shows how well the regimes meet."""
    n = _check_order(n)
    one = np.array([SERIES_CUT])
    below = _fermi_series(n, one)[0]
    if _exact_order(n):
        zero = np.zeros(1)
        return [(0.0, below, _fermi_sommerfeld(n, zero)[0] - (-1.0) ** n * below)]
    cut = np.array([SOMMERFELD_CUT_LOG])
    above = _fermi_sommerfeld(n, cut)[0]
    if n != 1.5:
        mid = _mid_interpolant(n)
        return [
            (0.0, below, math.exp(_piecewise(mid, np.zeros(1))[0])),
            (SOMMERFELD_CUT_LOG, math.exp(_piecewise(mid, cut)[0]), above),
        ]
    lo, width, coef = _FERMI32
    ends = _chebyshev(coef, np.full(len(coef), -1.0)), _chebyshev(coef, np.ones(len(coef)))
    out = [(lo, below, ends[0][0])]
    out += [(lo + (k + 1) * width, ends[1][k], ends[0][k + 1]) for k in range(len(coef) - 1)]
    out.append((SOMMERFELD_CUT_LOG, ends[1][-1], above))
    return out


def _bose_series(n: float, w: np.ndarray) -> np.ndarray:
    # sum_j w^j / j^n, w <= 1/2: the tail is below 1e-20 after 72 terms
    j = np.arange(1, _BOSE_TERMS + 1, dtype=float)
    return _power_series(1.0 / j**n, w)


def _bose_wood(n: float, mu: np.ndarray) -> np.ndarray:
    """Li_n(e^mu) for -2 pi < mu < 0 by the expansion about mu = 0 of D. C. Wood
    ("The computation of polylogarithms", Kent TR 15-92, 1992):
    Gamma(1-n) (-mu)^(n-1) + sum_k zeta(n-k) mu^k / k!, where for integer n the
    zeta(1) pole and the Gamma term merge into mu^(n-1) (H_(n-1) - ln(-mu)) / (n-1)!."""
    k = np.arange(_WOOD_TERMS, dtype=float)
    a = zeta(n - k) * rgamma(k + 1.0)
    if n.is_integer():
        m = int(n) - 1
        a[k == m] = 0.0
        harmonic = math.fsum(1.0 / j for j in range(1, m + 1))
        head = mu**m * rgamma(n) * (harmonic - np.log(-mu))
    else:
        head = gamma(1.0 - n) * (-mu) ** (n - 1.0)
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
    out[unit] = zeta(n)
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
    out = x**n * rgamma(n + 1.0)
    return float(out) if out.ndim == 0 else out


def gaussian_reduction_check(n: float, c: float) -> tuple[float, float]:
    """Return (Int f_n(c e^{-x^2}) dx over the real line, sqrt(pi) f_{n+1/2}(c)).

    The two sides agree identically; evaluating both is a self-test of the evaluator.
    """
    from scipy.integrate import IntegrationWarning, quad

    n = _check_order(n)
    c = float(c)
    if not c > 0.0:
        raise ValueError("need c > 0")

    def integrand(u):
        arg = c * math.exp(-u * u)
        if arg <= 0.0:
            return 0.0
        return fermi_fn(n, arg)

    upper = math.sqrt(max(math.log(c), 0.0) + 40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, _ = quad(integrand, 0.0, upper, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=200)
        except IntegrationWarning as exc:
            raise QuadratureError(f"gaussian reduction quadrature did not converge: {exc}")
    lhs = 2.0 * val
    rhs = math.sqrt(math.pi) * fermi_fn(n + 0.5, c)
    return lhs, rhs
