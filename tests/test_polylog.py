import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermichip import polylog as pl

mpmath.mp.dps = 20


def mp_fermi(n, z):
    """Independent oracle: arbitrary-precision quadrature of the defining integral."""
    x = float(mpmath.log(z))
    knot = max(x, 1.0)
    val = mpmath.quad(
        lambda t: t ** (n - 1) / (mpmath.exp(t - x) + 1), [0, knot, knot + 50]
    )
    return float(val / mpmath.gamma(n))


# -- fermi_fn ---------------------------------------------------------------------

def test_f1_closed_form():
    assert pl.fermi_fn(1.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-10)
    for z in (0.3, 2.0, 50.0):
        assert pl.fermi_fn(1.0, z) == pytest.approx(math.log1p(z), rel=1e-9)


def test_f32_at_unit_fugacity():
    # (1 - 2^(-1/2)) zeta(3/2), the degeneracy-parameter constant
    ref = (1.0 - 2.0**-0.5) * float(mpmath.zeta(1.5))
    assert pl.fermi_fn(1.5, 1.0) == pytest.approx(ref, rel=1e-9)
    assert pl.fermi_fn(1.5, 1.0) == pytest.approx(0.765147, abs=5e-6)


def test_f3_small_argument_leading_term():
    z = 1e-9
    assert pl.fermi_fn(3.0, z) == pytest.approx(z, rel=1e-8)


def test_f2_against_dilogarithm():
    # scipy's spence gives -Li_2(-z) = -spence(1+z): an exact cross-route
    from scipy.special import spence

    for z in (0.01, 0.5, 1.0, 7.0, 1e3, 1e8):
        assert pl.fermi_fn(2.0, z) == pytest.approx(-spence(1.0 + z), rel=1e-9)


@pytest.mark.parametrize("n", [0.5, 1.5, 2.0, 3.0, 4.0])
def test_against_high_precision_oracle(n):
    for z in (0.3, 0.7, 200.0, 2e13, 1e20):
        assert pl.fermi_fn(n, z) == pytest.approx(mp_fermi(n, z), rel=3e-9)


def mp_fermi_exact(n, z):
    """f_n(z) by mpmath's polylog at 30 digits, of the float z as given."""
    with mpmath.workdps(30):
        return float(mpmath.re(-mpmath.polylog(n, -mpmath.mpf(z))))


@pytest.mark.parametrize("n", [0.5, 1.5, 2.0, 3.0, 4.0])
def test_regime_seams_agree(n):
    found = pl.seams(n)
    where = [x for x, _, _ in found]
    if n.is_integer():
        assert where == [0.0]  # series below z = 1, its reflection above
    else:
        # both ends of the shipped table and every boundary between its pieces
        lo, width, coef = pl._TABLES[n]
        assert where == pytest.approx(lo + width * np.arange(len(coef) + 1))
        assert where[0] == 0.0 and where[-1] == pl.SOMMERFELD_CUT_LOG
    for _, below, above in found:
        assert abs(below / above - 1.0) < 1e-8


@pytest.mark.parametrize("n", [0.5, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_paper_orders_match_mpmath(n):
    x = np.random.default_rng(int(2 * n)).uniform(-30.0, 80.0, 150)
    z = np.exp(np.concatenate([x, [-1e-9, 0.0, 1e-9, pl.SOMMERFELD_CUT_LOG]]))
    got = pl.fermi_fn(n, z)
    ref = np.array([mp_fermi_exact(n, zi) for zi in z])
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-15


@pytest.mark.parametrize("n", [0.5, 1.5, 2.5])
def test_shipped_tables_match_mpmath(n):
    lo, width, coef = pl._TABLES[n]
    x = np.random.default_rng(32).uniform(lo, lo + width * len(coef), 300)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.re(-mpmath.polylog(n, -mpmath.exp(xi)))) for xi in x])
    assert np.max(np.abs(pl._piecewise(pl._TABLES[n], x) / ref - 1.0)) <= 5e-16


def test_paper_orders_run_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature on a paper order")

    monkeypatch.setattr(mpmath, "quad", refuse)
    monkeypatch.setattr(mpmath, "polylog", refuse)
    z = np.exp(np.random.default_rng(7).uniform(-30.0, 700.0, 500))
    for n in (0.5, 1.5, 2.0, 2.5, 3.0, 4.0):
        assert np.all(np.isfinite(pl.fermi_fn(n, z)))
        assert np.isfinite(pl.fermi_fn(n, float(z[0])))
    assert not any(hasattr(pl, name) for name in ("_fermi_quad", "_mid_interpolant"))


def test_vectorized_matches_scalar():
    z = np.array([1e-4, 0.4, 2.0, 1e5, 1e14])
    vec = pl.fermi_fn(2.5, z)
    for zi, vi in zip(z, vec):
        assert vi == pytest.approx(pl.fermi_fn(2.5, float(zi)), rel=1e-12)


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 4.0])
def test_array_call_matches_per_element_bits(n):
    # each value is independent of the rest of the batch, in every regime
    rng = np.random.default_rng(11)
    series = rng.uniform(1e-6, pl.SERIES_CUT, 200)
    mid = np.exp(rng.uniform(math.log(pl.SERIES_CUT), pl.SOMMERFELD_CUT_LOG, 200))
    sommerfeld = np.exp(rng.uniform(pl.SOMMERFELD_CUT_LOG, 700.0, 200))
    z = rng.permutation(np.concatenate([series, mid, sommerfeld]))
    assert np.array_equal(pl.fermi_fn(n, z), [pl.fermi_fn(n, float(zi)) for zi in z])
    # bose_fn: duplication formula up to 2^(-1/2), Wood's expansion above, zeta(n) at 1
    bose = rng.permutation(np.concatenate([series, rng.uniform(0.5, 1.0, 200), [1.0]]))
    assert np.array_equal(pl.bose_fn(n, bose), [pl.bose_fn(n, float(zi)) for zi in bose])


def test_domain_errors():
    with pytest.raises(ValueError):
        pl.fermi_fn(0.4, 1.0)
    # integers 1-24 and the tabled 1/2, 3/2, 5/2 only
    for n in (3.5, 25.0, 0.0, 1.25, math.nan):
        with pytest.raises(ValueError, match="not supported"):
            pl.fermi_fn(n, 2.0)
        with pytest.raises(ValueError, match="not supported"):
            pl.seams(n)
    with pytest.raises(ValueError):
        pl.fermi_fn(2.0, 0.0)
    with pytest.raises(ValueError):
        pl.fermi_fn(2.0, -1.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    lo=st.floats(min_value=-13.0, max_value=13.0),
    hi=st.floats(min_value=-13.0, max_value=13.0),
)
def test_monotonic_in_z(n, lo, hi):
    # separations below the evaluator accuracy (~1e-10) cannot be ordered
    if abs(hi - lo) < 1e-6:
        return
    z1, z2 = math.exp(min(lo, hi)), math.exp(max(lo, hi))
    assert pl.fermi_fn(n, z1) < pl.fermi_fn(n, z2)


def test_monotonic_on_wide_log_grid():
    for n in (0.5, 1.5, 3.0):
        z = np.geomspace(1e-6, 1e6, 200)
        vals = pl.fermi_fn(n, z)
        assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 4.0])
def test_derivative_identity(n):
    # z d/dz f_n(z) = f_(n-1)(z), checked by central differences
    for z in (0.05, 0.7, 3.0, 40.0, 1e4):
        h = 1e-4 * z
        deriv = (pl.fermi_fn(n, z + h) - pl.fermi_fn(n, z - h)) / (2.0 * h)
        assert z * deriv == pytest.approx(pl.fermi_fn(n - 1.0, z), rel=1e-5)


def test_boltzmann_limit():
    z = 1e-8
    for n in (0.5, 1.5, 3.0):
        assert pl.fermi_fn(n, z) / z == pytest.approx(1.0, rel=1e-7)
        assert pl.bose_fn(n, z) / z == pytest.approx(1.0, rel=1e-7)


# -- zeta and eta --------------------------------------------------------------------

def test_zeta_at_wood_arguments_vs_mpmath():
    # every zeta(n - k) that Wood's expansion of bose_fn uses
    worst = 0.0
    for n in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
        for k in range(pl._WOOD_TERMS):
            s = n - k
            if s == 1.0:
                continue
            if s < 0.0 and s % 2.0 == 0.0:
                assert pl._zeta(s) == 0.0  # the trivial zeros, exactly
            else:
                worst = max(worst, abs(float(pl._zeta(s) / mpmath.zeta(s)) - 1.0))
    assert worst <= 2.5e-15


def test_sommerfeld_eta_vs_mpmath():
    for two_k, eta in zip(pl._TWO_K, pl._ETA_EVEN):
        ref = (1 - mpmath.mpf(2) ** (1 - int(two_k))) * mpmath.zeta(int(two_k))
        assert abs(float(eta / ref) - 1.0) <= 2.3e-16


# -- degenerate limit ----------------------------------------------------------------

def test_degenerate_limit_formula():
    assert pl.fermi_fn_degenerate_limit(3.0, 30.0) == pytest.approx(4500.0, rel=1e-12)


def test_degenerate_limit_vs_full_n3():
    x = 30.0
    full = pl.fermi_fn(3.0, math.exp(x))
    lim = pl.fermi_fn_degenerate_limit(3.0, x)
    # next Sommerfeld term is pi^2 x / 6, a ~1.1% relative correction here
    dev = abs(lim / full - 1.0)
    assert dev < math.pi**2 / (2.0 * x**2) * 6.0
    assert dev > 1e-3


def test_degenerate_limit_n1():
    x = 20.0
    exact = math.log1p(math.exp(x))
    assert abs(pl.fermi_fn_degenerate_limit(1.0, x) / exact - 1.0) < 1e-8


# -- bose_fn ---------------------------------------------------------------------------

def test_bose_at_unit_fugacity():
    assert pl.bose_fn(1.5, 1.0) == pytest.approx(float(mpmath.zeta(1.5)), rel=1e-9)
    assert pl.bose_fn(1.5, 1.0) == pytest.approx(2.612, abs=1e-3)
    assert pl.bose_fn(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-10)


@pytest.mark.parametrize("n", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_bose_at_unit_fugacity_vs_mpmath(n):
    assert pl.bose_fn(n, 1.0) == pytest.approx(float(mpmath.polylog(n, 1.0)), rel=2e-16)
    assert pl.bose_fn(n, np.array([0.75, 1.0]))[1] == pl.bose_fn(n, 1.0)


def test_bose_small_z():
    assert pl.bose_fn(2.0, 1e-10) == pytest.approx(1e-10, rel=1e-8)


def test_bose_series_vs_mpmath_seam():
    for n in (1.5, 2.0, 3.0):
        lo = pl.bose_fn(n, 0.4999)
        assert lo == pytest.approx(float(mpmath.polylog(n, 0.4999)), rel=1e-11)
        mid = pl.bose_fn(n, 0.75)
        assert mid == pytest.approx(float(mpmath.polylog(n, 0.75)), rel=1e-11)


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0])
def test_bose_matches_mpmath_below_unit_fugacity(n):
    z = np.random.default_rng(int(2 * n)).uniform(0.5, 1.0, 300)
    z = np.concatenate([z, [0.5, 2.0**-0.5, np.nextafter(2.0**-0.5, 1.0), 1.0 - 2.0**-40]])
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.polylog(n, mpmath.mpf(zi))) for zi in z])
    assert np.max(np.abs(pl.bose_fn(n, z) / ref - 1.0)) <= 1e-15


def test_bose_domain_errors():
    with pytest.raises(ValueError):
        pl.bose_fn(1.5, 1.2)
    with pytest.raises(ValueError):
        pl.bose_fn(1.0, 1.0)  # diverges at z=1 unless n > 1
    with pytest.raises(ValueError):
        pl.bose_fn(1.5, 0.0)


# -- gaussian reduction ------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,c",
    [(1.5, 1.0), (1.0, 5.0), (2.0, 0.01), (2.0, 1e4)],
)
def test_gaussian_reduction_identity(n, c):
    lhs, rhs = pl.gaussian_reduction_check(n, c)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_gaussian_reduction_closed_form():
    lhs, rhs = pl.gaussian_reduction_check(1.5, 1.0)
    assert rhs == pytest.approx(math.sqrt(math.pi) * math.pi**2 / 12.0, rel=1e-9)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_gaussian_reduction_small_c_limit():
    c = 1e-7
    lhs, rhs = pl.gaussian_reduction_check(2.0, c)
    assert lhs == pytest.approx(c * math.sqrt(math.pi), rel=1e-5)
    assert rhs == pytest.approx(c * math.sqrt(math.pi), rel=1e-5)
