"""Fermi functions of the orders the program uses, from numpy and `math` alone.

fermi_fn(n, z) = -Li_n(-z) for z >= 0, the integral (1/Gamma(n)) * Int_0^inf
t^(n-1) dt / (exp(t)/z + 1), for an integer order 1 <= n <= 24 or the
half-integer order n = 3/2, the orders the trapped-gas relations use; any
other order raises ValueError.
f_n(0) = 0, the series' value there, so a fugacity-like argument that
underflowed to 0 needs no special case.

fermi_fn is evaluated in these regimes, with x = ln z:

  z <= 1                   the alternating series, summed with the fixed
                           24-term acceleration of Cohen, Rodriguez Villegas
                           and Zagier (Exp. Math. 9, 3 (2000)): a polynomial in z;
  z > 1, integer n         f_n(e^x) = P_n(x) - (-1)^n f_n(e^-x), exact, with P_n
                           the terminating Sommerfeld polynomial;
  1 < z < e^36, n = 3/2    a shipped piecewise Chebyshev table in x, fitted
                           against mpmath by scripts/fit_fermi_table.py and
                           read from data/fermi_tables.json at import;
  z >= e^36, n = 3/2       Sommerfeld asymptotic expansion through the eta(24)
                           term.

No regime runs quadrature or builds anything at run time.  The test suite
checks the seams between regimes (`seams`) to 1e-8.  Every regime is
elementwise, so an array call gives the same bits as per-element calls.

fermi_fns(orders, z) gives several orders at one z, each with the bits
fermi_fn gives it, and fermi_fn(n, z) is its one-order case.  z is validated,
split at z = 1, inverted and logged once for all orders.  On an array the
orders' series coefficients lie end to end along each Horner row, against
min(z, 1/z) repeated once per order, so the sum takes one numpy call per
coefficient and step however many orders it serves: f_3 and f_2 at the 24
points of a degeneracy scan take ~50 us in one call against ~80 us in two
(AVX-512 Xeon, numpy 2.4); one order keeps float coefficients and repeats
nothing.  Above z = 1 one function gives each order's value from a float or
an array, choosing between order 3/2's table and its asymptotic series with
masks for an array and with `if` for one point.  One point (a float, a 0-d
array or any size-1 array) runs in Python floats: 3-25 us a call instead of
45-90 us of numpy dispatch on one-element arrays.  The bits are the array
path's.  + - * / and the floor division that picks a table piece round alike
on floats and in numpy's loops; the transcendental steps need not, so they go
through numpy ufuncs on floats too, np.log(w) and np.power(x, p).  On an
AVX-512 Xeon with numpy 2.4, math.log differed from numpy's array log on
0.35% of z in (1, 2), and x ** p, on a float or an np.float64, from the array
power on about 5% of points; the ufuncs called on one value matched the array
loops on every point.

The special functions behind the Sommerfeld expansion need no library either:
1/Gamma is rounded once from its exact factorial forms at the integers and
half-integers, and zeta at the even integers is exact, from Bernoulli numbers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "fermi_fn",
    "fermi_fns",
    "gaussian_reduction_check",
    "seams",
    "SERIES_CUT",
    "SOMMERFELD_CUT_LOG",
]

SERIES_CUT = 1.0
SOMMERFELD_CUT_LOG = 36.0
_SERIES_TERMS = 24
# trapezoid step of gaussian_reduction_check on the real line
_GAUSS_STEP = 0.1


def _load_table() -> tuple[float, float, np.ndarray]:
    """f_3/2(e^x) for 0 <= x <= SOMMERFELD_CUT_LOG: (lower end, piece width,
    one row of Chebyshev coefficients per piece), read from the data file that
    scripts/fit_fermi_table.py writes."""
    t = json.loads((Path(__file__).parent / "data" / "fermi_tables.json").read_text())
    return t["lo"], t["width"], np.array(t["coef"])


_TABLE_ORDER = 1.5
_TABLE = _load_table()
_MAX_EXACT_ORDER = 24


def _bernoulli(m: int) -> list[Fraction]:
    """B_0 .. B_m exactly (B_1 = -1/2), from sum_k C(j+1, k) B_k = 0."""
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b


_BERNOULLI = _bernoulli(_MAX_EXACT_ORDER)
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


@lru_cache(maxsize=64)
def _orders(orders: tuple) -> tuple[float, ...]:
    """orders as floats; ValueError unless there is at least one and each is an
    integer 1 <= n <= 24 or n = 3/2."""
    out = tuple(float(n) for n in orders)
    if not out or not all(n == _TABLE_ORDER or (n.is_integer() and 1.0 <= n <= _MAX_EXACT_ORDER)
                          for n in out):
        raise ValueError(
            f"Fermi function orders {orders} are not supported: need one or more "
            f"integers 1 <= n <= {_MAX_EXACT_ORDER} or n = 3/2"
        )
    return out


def _rgamma(x: float) -> float:
    """1/Gamma(x) at an integer or a half-integer x, which are all the
    Sommerfeld terms use, 0 at the poles x = 0, -1, -2, ...  It is rounded once
    from the exact forms 1/(x-1)! and, for x = m + 1/2,
    4^m m! / ((2m)! sqrt(pi)) (m >= 0) or (2k)! / ((-4)^k k! sqrt(pi)) (m = -k)."""
    if x.is_integer():
        return 0.0 if x <= 0.0 else 1 / math.factorial(int(x) - 1)
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


def _power_series(coeff: tuple[float, ...] | np.ndarray,
                  w: float | np.ndarray) -> float | np.ndarray:
    """sum_j coeff[j-1] w^j by Horner's rule, smallest terms first: elementwise,
    so a value does not depend on the batch (a BLAS product's rounding does).
    coeff holds floats, or one array row per term.  On an array the first
    product allocates the accumulator and every later step runs in place,
    which rounds the same as the float path."""
    acc = coeff[-1] * w
    for c in coeff[-2::-1]:
        acc += c
        acc *= w
    return acc


@lru_cache(maxsize=64)
def _series_coefficients(n: float) -> tuple[float, ...]:
    """c_j / j^n for the terms of the accelerated series of order n, as floats."""
    j = np.arange(1, _SERIES_TERMS + 1, dtype=float)
    return tuple((_CRVZ_WEIGHTS / j**n).tolist())


def _fermi_series(n: float, w: float | np.ndarray) -> float | np.ndarray:
    # Accelerated alternating series sum_j (-1)^(j+1) w^j / j^n, w <= 1.
    return _power_series(_series_coefficients(n), w)


@lru_cache(maxsize=64)
def _series_rows(orders: tuple[float, ...]) -> np.ndarray:
    """The series coefficients of several orders, read-only: one row per
    term, one column per order."""
    rows = np.array([_series_coefficients(n) for n in orders]).T
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=64)
def _sommerfeld_terms(n: float) -> tuple[tuple[float, float], ...]:
    """(power, coefficient) of the nonzero terms 2 eta(2k) x^(n-2k) / Gamma(n-2k+1)."""
    terms = ((float(n - two_k), float(2.0 * eta * _rgamma(n - two_k + 1.0)))
             for two_k, eta in zip(_TWO_K, _ETA_EVEN))
    return tuple((power, coeff) for power, coeff in terms if coeff != 0.0)


def _fermi_sommerfeld(n: float, x: float | np.ndarray) -> float | np.ndarray:
    """sum_k 2 eta(2k) x^(n-2k) / Gamma(n-2k+1): exact with the f_n(e^-x) term
    for integer n (the sum terminates), asymptotic for x -> inf otherwise."""
    out = 0.0
    for power, coeff in _sommerfeld_terms(n):
        # the ufunc, not **, so a float x gets the array loop's bits; x^0 is exactly 1
        out = out + (coeff * np.power(x, power) if power else coeff)
    return out


def _chebyshev(coef: np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """Clenshaw's sum_k coef[..., k] T_k(t): one row of coefficients per point,
    or one row for one point."""
    b1 = b2 = 0.0
    for c in coef.T[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    return t * b1 - b2 + coef[..., 0]


def _piecewise(x: float | np.ndarray) -> float | np.ndarray:
    """The piecewise Chebyshev series _TABLE = (lo, width, coef) at x, which
    lies in [lo, lo + width * len(coef)]."""
    lo, width, coef = _TABLE
    k = np.minimum((x - lo) // width, len(coef) - 1)
    t = 2.0 * (x - lo - k * width) / width - 1.0
    return _chebyshev(coef[k.astype(np.intp)], t)


def _checked(z) -> tuple[np.ndarray, float | None]:
    """z as a float array, and its value as a float if it holds one point;
    ValueError unless every z is finite and >= 0."""
    z = np.asarray(z, dtype=float)
    if z.size == 1:
        one = z.item()
        ok = 0.0 <= one < math.inf
    else:
        one = None
        ok = np.all((z >= 0.0) & (z < math.inf))
    if not ok:
        raise ValueError("fermi_fn requires a finite z >= 0")
    return z, one


def _above_one(n: float, x: float | np.ndarray, series) -> float | np.ndarray:
    """f_n(e^x) for x > 0, from a float or an array x.  An integer order is
    reflected through P_n, with series() its accelerated series at e^-x; order
    3/2 reads the table below SOMMERFELD_CUT_LOG and the asymptotic series from
    there on, and never calls series()."""
    if n != _TABLE_ORDER:
        return _fermi_sommerfeld(n, x) - (-1.0) ** n * series()
    if x.ndim == 0:
        return _fermi_sommerfeld(n, x) if x >= SOMMERFELD_CUT_LOG else _piecewise(x)
    high = x >= SOMMERFELD_CUT_LOG
    if not high.any():
        return _piecewise(x)
    out = np.empty_like(x)
    out[~high] = _piecewise(x[~high])
    out[high] = _fermi_sommerfeld(n, x[high])
    return out


def fermi_fns(orders, z) -> list:
    """fermi_fn(n, z) for each order n in `orders` (an integer 1 <= n <= 24 or
    3/2), with the same bits, in one pass: `f4, f3, f32 = fermi_fns((4, 3, 1.5), z)`.

    z is validated, split at z = 1 and inverted once for all orders.  On an
    array one Horner sum serves every order, one numpy call per coefficient
    and step; where z > 1 each integer order is then reflected through its
    Sommerfeld polynomial, and order 3/2 reads its table or its asymptotic
    series.  One point runs in Python floats.
    A scalar or a 0-d z gives floats, any other input arrays of its shape.
    Raises ValueError for any other order or z (negative, nan or inf).
    """
    orders = _orders(tuple(orders))
    z, one = _checked(z)
    if one is not None:
        if one <= SERIES_CUT:
            vals = [_fermi_series(n, one) for n in orders]
        else:
            x, w = np.log(one), 1.0 / one
            vals = [float(_above_one(n, x, lambda: _fermi_series(n, w))) for n in orders]
        return vals if z.ndim == 0 else [np.full(z.shape, v) for v in vals]

    # one series pass over min(z, 1/z); above z = 1 each order takes its own form
    flat = z.ravel()
    high = flat > SERIES_CUT
    w = np.divide(1.0, flat, out=flat.copy(), where=high)
    if len(orders) == 1:
        out = _fermi_series(orders[0], w)
    else:
        # the orders' coefficients end to end along each row, against w
        # repeated as often: contiguous rows, one numpy call per step
        rows = _series_rows(orders).repeat(w.size, axis=1)
        out = _power_series(rows, np.concatenate([w] * len(orders)))
    out = out.reshape(len(orders), -1)
    if high.any():
        x = np.log(flat[high])
        for row, n in zip(out, orders):
            row[high] = _above_one(n, x, lambda: row[high])
    return list(out.reshape(len(orders), *z.shape))


def fermi_fn(n: float, z) -> float | np.ndarray:
    """-Li_n(-z) for an integer order 1 <= n <= 24 or n = 3/2, and
    finite fugacity-like argument z >= 0; f_n(0) = 0 exactly.

    Accepts scalars or arrays; strictly increasing in z.  A scalar or a 0-d
    array gives a float, any other input an array of its shape.  Raises
    ValueError for any other order or z (negative, nan or inf).
    """
    return fermi_fns((n,), z)[0]


def seams(n: float) -> list[tuple[float, float, float]]:
    """(ln z, value from the regime below, value from the regime above) at each
    seam of fermi_fn(n, .); each side is evaluated by its own formula at the
    seam itself, so the pair shows how well the regimes meet.  For integer n
    the one seam is z = 1; for n = 3/2, both ends of the table and every
    boundary between its pieces."""
    (n,) = _orders((n,))
    below = _fermi_series(n, SERIES_CUT)
    if n.is_integer():
        return [(0.0, below, _fermi_sommerfeld(n, 0.0) - (-1.0) ** n * below)]
    lo, width, coef = _TABLE
    ends = _chebyshev(coef, np.full(len(coef), -1.0)), _chebyshev(coef, np.ones(len(coef)))
    above = _fermi_sommerfeld(n, SOMMERFELD_CUT_LOG)
    out = [(lo, below, ends[0][0])]
    out += [(lo + (k + 1) * width, ends[1][k], ends[0][k + 1]) for k in range(len(coef) - 1)]
    out.append((SOMMERFELD_CUT_LOG, ends[1][-1], above))
    return out


def gaussian_reduction_check(n: float, c: float) -> tuple[float, float]:
    """Return (Int f_n(c e^{-x^2}) dx over the real line, sqrt(pi) f_{n+1/2}(c)).

    The two sides agree identically; evaluating both is a self-test of the
    evaluator.  Both orders n and n + 1/2 must be ones fermi_fn supports, so n
    is 1 or 3/2.  The integral is the trapezoid rule with step 0.1, which
    converges exponentially for this analytic, fast-decaying integrand
    (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)), out to where
    c e^{-x^2} < e^{-40} min(c, 1).
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
