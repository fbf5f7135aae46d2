"""Fermi and Bose functions of real order n >= 1/2.

fermi_fn(n, z) = -Li_n(-z) for z > 0, the integral (1/Gamma(n)) * Int_0^inf
t^(n-1) dt / (exp(t)/z + 1).  bose_fn(n, z) = Li_n(z) for 0 < z <= 1.

fermi_fn is evaluated in three regimes, with seams verified against each
other to 1e-8 by the test suite:

  z <= 1/2            alternating power series,
  1/2 < z < e^30      adaptive quadrature of the integral representation,
                      served through a cached Chebyshev interpolant in ln z
                      so array arguments stay cheap,
  z >= e^30           Sommerfeld asymptotic expansion through the x^(n-8) term.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from numpy.polynomial import Chebyshev
from scipy.integrate import IntegrationWarning, quad
from scipy.special import expit, rgamma, zeta

from .constants import NumericalError

__all__ = [
    "fermi_fn",
    "bose_fn",
    "fermi_fn_degenerate_limit",
    "gaussian_reduction_check",
    "QuadratureError",
    "SERIES_CUT",
    "SOMMERFELD_CUT_LOG",
]

SERIES_CUT = 0.5
SOMMERFELD_CUT_LOG = 30.0
_SERIES_TERMS = 72
_CHEB_POINTS = 220

# Quadrature tolerances used for the integral representation.
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-10

# Dirichlet eta at even arguments; eta(0) = 1/2 makes the Sommerfeld sum start
# at the leading x^n / Gamma(n+1) term.
_ETA_EVEN = {
    0: 0.5,
    2: math.pi**2 / 12.0,
    4: 7.0 * math.pi**4 / 720.0,
    6: 31.0 * math.pi**6 / 30240.0,
    8: 127.0 * math.pi**8 / 1209600.0,
}


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


def _check_order(n: float) -> float:
    n = float(n)
    if not n >= 0.5:
        raise ValueError(f"order n={n} out of domain (need n >= 1/2)")
    return n


def _power_series(coeff: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j coeff[j-1] w^j by Horner's rule, smallest terms first: elementwise,
    so a value does not depend on the batch (a BLAS product's rounding does)."""
    acc = 0.0
    for c in coeff[::-1]:
        acc = acc * w + c
    return acc * w


def _fermi_series(n: float, w: np.ndarray) -> np.ndarray:
    # Alternating series sum_j (-1)^(j+1) w^j / j^n, w <= 1/2.
    j = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    return _power_series((-1.0) ** (j + 1) / j**n, w)


def _fermi_quad(n: float, x: float) -> float:
    """f_n(e^x) by adaptive quadrature; t = s^2 removes the t^(n-1) endpoint
    singularity and compresses the exponential tail."""

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
def _mid_interpolant(n: float) -> Chebyshev:
    """Chebyshev interpolant of ln f_n(e^y) over the quadrature regime."""
    lo = math.log(SERIES_CUT) - 0.25
    hi = SOMMERFELD_CUT_LOG + 0.25
    k = np.arange(_CHEB_POINTS)
    nodes = np.cos(math.pi * (k + 0.5) / _CHEB_POINTS)
    y = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    vals = np.array([math.log(_fermi_quad(n, yi)) for yi in y])
    return Chebyshev.fit(y, vals, deg=_CHEB_POINTS - 1, domain=[lo, hi])


def _fermi_sommerfeld(n: float, x: np.ndarray) -> np.ndarray:
    """Asymptotic expansion f_n(e^x) = sum_k 2 eta(2k) x^(n-2k) / Gamma(n-2k+1)."""
    out = np.zeros_like(x)
    for two_k, eta in _ETA_EVEN.items():
        out += 2.0 * eta * x ** (n - two_k) * rgamma(n - two_k + 1.0)
    return out


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
            vals[mid] = np.exp(_mid_interpolant(n)(x[mid]))
        if high.any():
            vals[high] = _fermi_sommerfeld(n, x[high])
        out[rest] = vals
    return float(out[0]) if scalar else out


def _bose_series(n: float, w: np.ndarray) -> np.ndarray:
    j = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    return _power_series(1.0 / j**n, w)


def bose_fn(n: float, z) -> float | np.ndarray:
    """Li_n(z) for 0 < z <= 1 (z = 1 needs n > 1; the condensed branch z > 1
    is out of domain).

    Direct series below z = 1/2 (tail < 1e-12 by construction); Li_n(1) =
    zeta(n) at z = 1; arbitrary precision evaluation in between, where naive
    summation cannot reach the requested tail bound.
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
    low = w <= SERIES_CUT
    if low.any():
        out[low] = _bose_series(n, w[low])
    unit = w == 1.0
    out[unit] = zeta(n)
    rest = ~low & ~unit
    if rest.any():
        import mpmath

        out[rest] = [float(mpmath.polylog(n, wi)) for wi in w[rest]]
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
