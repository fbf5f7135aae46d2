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


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 4.0])
def test_against_high_precision_oracle(n):
    for z in (0.3, 0.7, 200.0, 2e13, 1e20):
        assert pl.fermi_fn(n, z) == pytest.approx(mp_fermi(n, z), rel=3e-9)


def mp_fermi_exact(n, z):
    """f_n(z) by mpmath's polylog at 30 digits, of the float z as given."""
    with mpmath.workdps(30):
        return float(mpmath.re(-mpmath.polylog(n, -mpmath.mpf(z))))


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 4.0])
def test_regime_seams_agree(n):
    found = pl.seams(n)
    where = [x for x, _, _ in found]
    if n.is_integer():
        assert where == [0.0]  # series below z = 1, its reflection above
    else:
        # both ends of the shipped table and every boundary between its pieces
        lo, width, coef = pl._TABLE
        assert where == pytest.approx(lo + width * np.arange(len(coef) + 1))
        assert where[0] == 0.0 and where[-1] == pl.SOMMERFELD_CUT_LOG
    for _, below, above in found:
        assert abs(below / above - 1.0) < 1e-8


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 4.0])
def test_paper_orders_match_mpmath(n):
    x = np.random.default_rng(int(2 * n)).uniform(-30.0, 80.0, 150)
    z = np.exp(np.concatenate([x, [-1e-9, 0.0, 1e-9, pl.SOMMERFELD_CUT_LOG]]))
    got = pl.fermi_fn(n, z)
    ref = np.array([mp_fermi_exact(n, zi) for zi in z])
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-15


@pytest.mark.parametrize("n", [1.5])
def test_shipped_tables_match_mpmath(n):
    lo, width, coef = pl._TABLE
    x = np.random.default_rng(32).uniform(lo, lo + width * len(coef), 300)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.re(-mpmath.polylog(n, -mpmath.exp(xi)))) for xi in x])
    assert np.max(np.abs(pl._piecewise(x) / ref - 1.0)) <= 5e-16


def test_paper_orders_run_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature on a paper order")

    monkeypatch.setattr(mpmath, "quad", refuse)
    monkeypatch.setattr(mpmath, "polylog", refuse)
    z = np.exp(np.random.default_rng(7).uniform(-30.0, 700.0, 500))
    for n in (1.5, 2.0, 3.0, 4.0):
        assert np.all(np.isfinite(pl.fermi_fn(n, z)))
        assert np.isfinite(pl.fermi_fn(n, float(z[0])))
    assert not any(hasattr(pl, name) for name in ("_fermi_quad", "_mid_interpolant"))


def test_vectorized_matches_scalar():
    z = np.array([1e-4, 0.4, 2.0, 1e5, 1e14])
    vec = pl.fermi_fn(1.5, z)
    for zi, vi in zip(z, vec):
        assert vi == pytest.approx(pl.fermi_fn(1.5, float(zi)), rel=1e-12)


FERMI_ORDERS = [1.5] + [float(k) for k in range(1, pl._MAX_EXACT_ORDER + 1)]


def regime_edges():
    """z = 1, e^36 and the boundaries of the shipped table, each with its two
    neighbouring floats, and the extremes 5e-324 and 1e308, where a step
    taken over the whole batch could overflow (RuntimeWarning is an error
    under the test configuration)."""
    lo, width, coef = pl._TABLE
    x = [0.0, pl.SOMMERFELD_CUT_LOG, *(lo + width * np.arange(len(coef) + 1))]
    z = np.exp(np.unique(x))
    return np.concatenate([z, np.nextafter(z, 0.0), np.nextafter(z, np.inf), [5e-324, 1e308]])


def log_disagreements(rng):
    """z above 1 where the C library's log and numpy's array log differ, if
    they do on this machine: a one-point path must take numpy's."""
    z = 1.0 + rng.uniform(0.0, 1.0, 20_000)  # where they differ most often
    return z[np.log(z) != [math.log(v) for v in z.tolist()]]


@pytest.mark.parametrize("n", FERMI_ORDERS)
def test_array_call_matches_per_element_bits(n):
    # each value is independent of the rest of the batch, in every regime; a
    # one-point call (a float, a 0-d array or a size-1 array of any shape)
    # runs in floats and gives the batch's bits
    rng = np.random.default_rng(11)
    series = rng.uniform(1e-6, pl.SERIES_CUT, 200)
    mid = np.exp(rng.uniform(math.log(pl.SERIES_CUT), pl.SOMMERFELD_CUT_LOG, 200))
    sommerfeld = np.exp(rng.uniform(pl.SOMMERFELD_CUT_LOG, 700.0, 200))
    edges = np.concatenate([regime_edges(), log_disagreements(rng)])
    z = rng.permutation(np.concatenate([series, mid, sommerfeld, edges]))
    batch = pl.fermi_fn(n, z)
    assert batch.shape == z.shape
    for zi, want in zip(z.tolist(), batch.tolist()):
        scalars = pl.fermi_fn(n, zi), pl.fermi_fn(n, np.array(zi))
        arrays = pl.fermi_fn(n, np.array([zi])), pl.fermi_fn(n, np.array([[zi]]))
        assert [type(v) for v in scalars] == [float, float]
        assert [(type(v), v.shape) for v in arrays] == [(np.ndarray, (1,)), (np.ndarray, (1, 1))]
        # every value is finite and positive, so equal values have equal bits
        assert [*scalars, *(v.item() for v in arrays)] == [want] * 4


def test_domain_errors():
    with pytest.raises(ValueError):
        pl.fermi_fn(0.4, 1.0)
    # integers 1-24 and the tabled 3/2 only
    for n in (0.5, 2.5, 3.5, 25.0, 0.0, 1.25, math.nan):
        with pytest.raises(ValueError, match="not supported"):
            pl.fermi_fn(n, 2.0)
        with pytest.raises(ValueError, match="not supported"):
            pl.seams(n)
    # a point or a batch: z must be finite and not negative
    for bad in (-1.0, -math.inf, math.nan, math.inf):
        for z in (bad, np.array([2.0, bad])):
            with pytest.raises(ValueError, match="finite z >= 0"):
                pl.fermi_fn(2.0, z)


@pytest.mark.parametrize("n", FERMI_ORDERS)
def test_zero_fugacity_is_zero(n):
    # f_n(0) = 0 exactly, for one point and for a point among others, so an
    # argument that underflowed to 0 needs no special case in the callers
    assert pl.fermi_fn(n, 0.0) == 0.0
    out = pl.fermi_fn(n, np.array([0.5, 0.0, 2.0, 1e40]))
    assert out[1] == 0.0
    assert np.all(out[[0, 2, 3]] > 0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
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
    for n in (1.5, 3.0):
        z = np.geomspace(1e-6, 1e6, 200)
        vals = pl.fermi_fn(n, z)
        assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 4.0])
def test_derivative_identity(n):
    # z d/dz f_n(z) = f_(n-1)(z), checked by central differences; f_(n-1)
    # comes from mpmath, as fermi_fn has no order 1/2
    for z in (0.05, 0.7, 3.0, 40.0, 1e4):
        h = 1e-4 * z
        deriv = (pl.fermi_fn(n, z + h) - pl.fermi_fn(n, z - h)) / (2.0 * h)
        assert z * deriv == pytest.approx(mp_fermi_exact(n - 1.0, z), rel=1e-5)


def test_boltzmann_limit():
    z = 1e-8
    for n in (1.5, 3.0):
        assert pl.fermi_fn(n, z) / z == pytest.approx(1.0, rel=1e-7)


# -- eta --------------------------------------------------------------------

def test_sommerfeld_eta_vs_mpmath():
    for two_k, eta in zip(pl._TWO_K, pl._ETA_EVEN):
        ref = (1 - mpmath.mpf(2) ** (1 - int(two_k))) * mpmath.zeta(int(two_k))
        assert abs(float(eta / ref) - 1.0) <= 2.3e-16


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0])
def test_unit_fugacity_gives_zeta(n):
    # f_n(1) = eta(n) = (1 - 2^(1-n)) zeta(n): paper-check's c1-bose-degeneracy
    # row takes the Bose g_3/2(1) = zeta(3/2) this way
    zeta = pl.fermi_fn(n, 1.0) / -math.expm1((1.0 - n) * math.log(2.0))
    assert zeta == pytest.approx(float(mpmath.zeta(n)), rel=2.3e-16)


# -- gaussian reduction ------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,c",
    [(1.5, 1.0), (1.0, 5.0), (1.0, 0.01), (1.0, 1e4)],
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
    lhs, rhs = pl.gaussian_reduction_check(1.0, c)
    assert lhs == pytest.approx(c * math.sqrt(math.pi), rel=1e-5)
    assert rhs == pytest.approx(c * math.sqrt(math.pi), rel=1e-5)
