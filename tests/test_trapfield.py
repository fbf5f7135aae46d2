import dataclasses
import math
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest

from fermichip import constants as C
from fermichip import trapfield as tf


def geometry_path(name):
    return Path(resources.files("fermichip").joinpath(f"data/{name}.json"))


@pytest.fixture(scope="module")
def z_trap():
    model, seed = tf.load_geometry(geometry_path("toronto_z_trap"))
    return model, seed


@pytest.fixture(scope="module")
def split_trap():
    model, seed = tf.load_geometry(geometry_path("toronto_split_trap"))
    return model, seed


@pytest.fixture(scope="module")
def z_minimum(z_trap):
    model, seed = z_trap
    return tf.find_minimum(model, seed)


def benchmark_ip(b0_gauss=1.214, f_perp=1230.0, f_axial=13.7):
    rb = C.builtin_species()["Rb87"]
    b0 = b0_gauss * C.GAUSS
    b_prime = 2 * math.pi * f_perp * math.sqrt(rb.mass * b0 / C.MU_B)
    b_pp = (2 * math.pi * f_axial) ** 2 * rb.mass / C.MU_B
    return tf.AnalyticIPField(b0, b_prime, b_pp)


def counting(base):
    """Subclass of a field class that counts its kernel passes, on arrays
    (field, field_and_distance) or of the closed-form derivatives
    (derivatives, derivatives_and_distance), and the points they take.  A
    call that the field's kept pass answers runs no kernel and is not counted."""

    class Counting(base):
        evaluations = 0
        points = 0

        def _count(self, r):
            self.evaluations += 1
            self.points += np.asarray(r).size // 3

        def _field_pass(self, r):
            self._count(r)
            return super()._field_pass(r)

        def _derivative_pass(self, r):
            self._count(r)
            return super()._derivative_pass(r)

    return Counting


def _sym(a, b):
    """a b^T + b a^T for gradients a, b of shape (3, N)."""
    return a[:, None] * b[None, :] + b[:, None] * a[None, :]


class Jet:
    """Value v (N,), gradient g (3, N) and Hessian h (3, 3, N) in the
    coordinates of N points, carried through a field kernel's elementwise
    arithmetic (forward mode; Griewank and Walther, Evaluating Derivatives,
    SIAM 2008); h is the scalar 0 while affine.  The oracle of the fields'
    closed-form derivatives."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h=0.0):
        self.v, self.g, self.h = v, g, h

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.g + other.g, self.h + other.h)
        return Jet(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v - other.v, self.g - other.g, self.h - other.h)
        return Jet(self.v - other, self.g, self.h)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            h = self.h * other if isinstance(self.h, np.ndarray) else self.h
            return Jet(self.v * other, self.g * other, h)
        h = _sym(self.g, other.g)
        if isinstance(other.h, np.ndarray):  # else other is affine
            h = h + self.v * other.h
        if isinstance(self.h, np.ndarray):
            h = h + other.v * self.h
        return Jet(self.v * other.v, self.v * other.g + other.v * self.g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # q = a / b from a = q b, differentiated once and twice
        q = self.v / other.v
        g = (self.g - q * other.g) / other.v
        return Jet(q, g, (self.h - q * other.h - _sym(g, other.g)) / other.v)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # np.sqrt, the np.maximum clamp, and numpy scalars on the left of a jet
        if ufunc is np.sqrt:
            v = np.sqrt(self.v)
            g = self.g / (2.0 * v)
            return Jet(v, g, (self.h - _sym(g, g)) / (2.0 * v))
        if ufunc is np.maximum:  # a clamped value is constant
            v, free = np.maximum(self.v, inputs[1]), self.v > inputs[1]
            return Jet(v, np.where(free, self.g, 0.0), np.where(free, self.h, 0.0))
        reflected = {np.add: self.__radd__, np.multiply: self.__rmul__}.get(ufunc)
        return NotImplemented if reflected is None else reflected(inputs[0])


def jet_pass(model, r):
    """B (..., 3), J (..., 3, 3) and H (..., 3, 3, 3) of a field at the
    points r from its kernel run on coordinate jets: a FieldModel's
    `_biot_savart` on the segment columns, each segment added to the bias
    in order, or any other field's `_components`."""
    r = np.asarray(r, dtype=float)
    x = tf._coordinates(r)
    n = x.shape[-1]
    seeds = np.broadcast_to(np.eye(3)[:, :, None, None], (3, 3, 1, n))
    jets = [Jet(xi, gi) for xi, gi in zip(x, seeds)]
    if isinstance(model, tf.FieldModel):
        f, w, _, _ = tf._biot_savart(*model._columns, *jets)
        b = []
        for c, wi in zip(model.bias, w):
            bi = f * wi
            b.append(Jet(*(tf._add_in_order(start, rows) for start, rows in zip(
                (c, 0.0, 0.0), (bi.v, bi.g, bi.h)))))
    else:
        b = model._components(*jets)[:3]
    shape = r.shape[:-1]
    return (
        np.stack([c.v[0] for c in b], axis=-1).reshape(r.shape),
        np.stack([c.g[:, 0] for c in b]).transpose(2, 0, 1).reshape(shape + (3, 3)),
        np.stack([np.broadcast_to(c.h, (3, 3, 1, n))[:, :, 0] for c in b])
        .transpose(3, 0, 1, 2)
        .reshape(shape + (3, 3, 3)),
    )


def array_field(fn):
    """A field whose B at the points r (..., 3) is fn(r), run on arrays only:
    for the depth search, which takes no derivatives."""

    class ArrayField(tf._KernelField):
        def _components(self, x, y, z):
            b = fn(np.stack([x, y, z], axis=-1))
            return b[..., 0], b[..., 1], b[..., 2], None

    return ArrayField()


def central_jacobian(model, pt, h):
    """dB_i/dr_j by central differences of the field."""
    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (model.field(pt + e) - model.field(pt - e)) / (2 * h)
    return jac


def central_hessian(model, pt, h):
    """d_j d_k B_i by central differences of the exact Jacobian."""
    hess = np.empty((3, 3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        hess[:, :, k] = (model.derivatives(pt + e)[1] - model.derivatives(pt - e)[1]) / (2 * h)
    return hess


def assert_div_and_curl_free(jac):
    for jj in jac.reshape(-1, 3, 3):
        scale = np.linalg.norm(jj, 2)
        assert abs(np.trace(jj)) < 1e-12 * scale
        assert np.abs(jj - jj.T).max() < 1e-12 * scale


# -- field protocol ---------------------------------------------------------------------

def test_every_field_class_is_a_kernel_field():
    # one field protocol: each exported class with a field writes its
    # components once and takes field, derivatives and the rest from the base
    exported = [getattr(tf, name) for name in tf.__all__]
    fields = [c for c in exported if isinstance(c, type) and hasattr(c, "field")]
    assert {c.__name__ for c in fields} >= {"FieldModel", "AnalyticIPField"}
    for c in fields:
        assert issubclass(c, tf._KernelField), c.__name__


# -- Biot-Savart --------------------------------------------------------------------

def test_infinite_wire_field():
    seg = tf.WireSegment((-2.0, 0.0, 0.0), (2.0, 0.0, 0.0), 2.0)
    d = 190e-6
    b = tf.FieldModel([seg]).field(np.array([0.0, 0.0, d]))
    expected = C.MU_0 * 2.0 / (2.0 * math.pi * d)
    assert np.linalg.norm(b) == pytest.approx(expected, rel=1e-6)
    assert expected / C.GAUSS == pytest.approx(21.05, abs=0.01)
    # right-hand rule: current +x, point above (+z) -> field along -y
    assert b[1] < 0 and abs(b[0]) < 1e-12 * expected and abs(b[2]) < 1e-9 * expected


def test_superposition_linearity():
    s1 = tf.WireSegment((0.0, -1.0, 0.0), (0.0, 1.0, 0.0), 1.3)
    s2 = tf.WireSegment((1e-3, -1.0, 1e-3), (1e-3, 1.0, 0.0), -0.7)
    model = tf.FieldModel(segments=[s1, s2], bias=(1e-4, 0.0, -2e-4))
    pts = np.array([[3e-4, 1e-4, 4e-4], [-2e-4, 0.0, 6e-4]])
    total = model.field(pts)
    manual = (tf.FieldModel([s1]).field(pts) + tf.FieldModel([s2]).field(pts)
              + np.array([1e-4, 0.0, -2e-4]))
    assert np.allclose(total, manual, rtol=1e-14)


def test_current_reversal_antisymmetry():
    fwd = tf.WireSegment((0.0, -0.01, 0.0), (0.0, 0.01, 0.0), 1.5)
    rev = tf.WireSegment((0.0, -0.01, 0.0), (0.0, 0.01, 0.0), -1.5)
    pt = np.array([2e-4, 3e-4, -1e-4])
    assert np.allclose(tf.FieldModel([fwd]).field(pt), -tf.FieldModel([rev]).field(pt),
                       rtol=1e-15)


def test_singularity_guard():
    model = tf.FieldModel(segments=[tf.WireSegment((0, 0, 0), (0, 1e-2, 0), 1.0)])
    with pytest.raises(tf.SingularityError):
        model.field(np.array([5e-7, 5e-3, 0.0]))
    # one point inside the guard fails the whole batch
    pts = np.array([[1e-3, 5e-3, 0.0], [5e-7, 5e-3, 0.0], [1e-9, 5e-3, 0.0], [0.0, 5e-3, 0.0]])
    with pytest.raises(tf.SingularityError):
        model.field(pts)
    # unguarded, the radial distance is clamped at a quarter guard, so |B|
    # stays finite up to and on the axis
    b = np.linalg.norm(model.field(pts, guard=0.0), axis=-1)
    wall = C.MU_0 / (2 * math.pi * 0.25 * tf.SINGULARITY_GUARD)  # 1 A at the clamp radius
    assert np.all(np.isfinite(b))
    assert b.max() <= wall * (1 + 1e-6)
    assert b[1] == pytest.approx(wall / 2, rel=1e-6)


@pytest.mark.parametrize("name", ["toronto_z_trap", "toronto_split_trap"])
def test_field_independent_of_batch(name):
    # a point's field and axis distance are the same alone as in a batch,
    # from 0.1 um to 10 cm off the seed, the range the escape rays cover
    model, seed = tf.load_geometry(geometry_path(name))
    rng = np.random.default_rng(5)
    direction = rng.normal(size=(2000, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = np.exp(rng.uniform(np.log(1e-7), np.log(1e-1), 2000))
    pts = seed + radius[:, None] * direction
    batch = model.field(pts, guard=0.0)
    assert np.array_equal(batch, [model.field(p, guard=0.0) for p in pts])
    dist = model.field_and_distance(pts)[1]
    assert np.array_equal(dist, [model.field_and_distance(p)[1] for p in pts])
    # so are B, J and H from the derivative pass, and their B is field()'s B
    b, jac, hess = model.derivatives(pts[:300])
    assert np.array_equal(b, batch[:300])
    alone = [model.derivatives(p) for p in pts[:300]]
    assert np.array_equal(jac, [d[1] for d in alone])
    assert np.array_equal(hess, [d[2] for d in alone])


def test_segments_summed_in_order():
    # all segments go through the kernel in one pass, yet B is the bias plus
    # each segment's own field, added in order, ((bias + B_0) + B_1) + ...,
    # bit for bit; 12 segments, so a pairwise sum over them would show
    rng = np.random.default_rng(3)
    segments = [
        tf.WireSegment(tuple(rng.uniform(-2e-3, 2e-3, 3)), tuple(rng.uniform(-2e-3, 2e-3, 3)),
                       rng.uniform(-3.0, 3.0))
        for _ in range(12)
    ]
    bias = tuple(rng.uniform(-1e-3, 1e-3, 3))
    model = tf.FieldModel(segments, bias)
    pts = rng.uniform(-3e-3, 3e-3, (2500, 3))  # across two block boundaries
    expected = np.broadcast_to(bias, pts.shape)
    for seg in segments:
        expected = expected + tf.FieldModel([seg]).field(pts, guard=0.0)
    assert np.array_equal(model.field(pts, guard=0.0), expected)
    field, dist = model.field_and_distance(pts)
    assert np.array_equal(field, expected)
    assert np.array_equal(dist, np.min(
        [tf.FieldModel([seg]).field_and_distance(pts)[1] for seg in segments], axis=0))
    # B, J and H: the in-order sum of the single-segment models' derivatives
    b, jac, hess = model.derivatives(pts[:200])
    expected = [np.broadcast_to(bias, (200, 3)), 0.0, 0.0]
    for seg in segments:
        alone = tf.FieldModel([seg]).derivatives(pts[:200])
        expected = [e + a for e, a in zip(expected, alone)]
    assert np.array_equal(b, expected[0])
    assert np.array_equal(jac, expected[1])
    assert np.array_equal(hess, expected[2])


def test_maxwell_free_space(z_trap):
    model, seed = z_trap
    rng = np.random.default_rng(11)
    h = 1e-7
    for _ in range(5):
        pt = seed + rng.uniform(-50e-6, 50e-6, 3)
        jac = central_jacobian(model, pt, h)
        scale = np.abs(jac).max()
        assert abs(np.trace(jac)) / scale < 1e-6
        curl = [jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]]
        assert np.linalg.norm(curl) / scale < 1e-6


@pytest.mark.parametrize("name", ["toronto_z_trap", "toronto_split_trap"])
def test_jacobian_matches_central_difference(name):
    model, seed = tf.load_geometry(geometry_path(name))
    pts = seed + np.random.default_rng(12).uniform(-50e-6, 50e-6, (5, 3))
    _, jac, hess = model.derivatives(pts)
    assert jac.shape == (5, 3, 3) and hess.shape == (5, 3, 3, 3)
    assert_div_and_curl_free(jac)
    for pt, exact, exact_h in zip(pts, jac, hess):
        # J against differences of B, and H against differences of the exact J;
        # H is one order higher, with twice J's truncation error at one step
        for difference, value, steps in (
            (central_jacobian, exact, (5e-8, 2.5e-8)),
            (central_hessian, exact_h, (2.5e-8, 1.25e-8)),
        ):
            gap = [
                np.linalg.norm(difference(model, pt, h) - value) / np.linalg.norm(value)
                for h in steps
            ]
            assert gap[0] < 1e-6
            # the O(h^2) truncation error of the difference, not a mismatch, is what remains
            assert gap[0] / gap[1] == pytest.approx(4.0, rel=0.1)


def test_analytic_ip_jacobian_rotated_axes():
    ip = benchmark_ip()
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    rotated = tf.AnalyticIPField(ip.b0, ip.b_prime, ip.b_double_prime, (1e-4, -2e-4, 3e-4), q)
    pts = np.array(rotated.center) + np.random.default_rng(4).uniform(-20e-6, 20e-6, (5, 3))
    _, jac, hess = rotated.derivatives(pts)
    assert jac.shape == (5, 3, 3)
    assert_div_and_curl_free(jac)
    for pt, exact in zip(pts, jac):
        # the field is quadratic, so the central difference is exact up to rounding
        fd = central_jacobian(rotated, pt, 1e-7)
        assert np.linalg.norm(fd - exact) / np.linalg.norm(exact) < 1e-6
    # H is constant: the local second derivatives -c, 2c, -c on the diagonal of
    # B_y and -c at (x, y) of B_x and (y, z) of B_z, c = B''/2, rotated by q
    c = 0.5 * ip.b_double_prime
    local = np.zeros((3, 3, 3))
    local[0, 0, 1] = local[0, 1, 0] = local[2, 1, 2] = local[2, 2, 1] = -c
    local[1] = np.diag([-c, 2 * c, -c])
    closed = np.einsum("ia,jb,kc,abc->ijk", q, q, q, local)
    for h in hess:
        assert np.abs(h - closed).max() < 1e-12 * np.abs(closed).max()


# -- closed-form derivatives against the jet oracle -------------------------------------

EPS = np.finfo(float).eps


def oracle_points(name):
    """Points about a shipped geometry by category: random within 1 mm of
    the seed; 0.1 um from each wire endpoint and 0.1 um from each axis
    within its segment, both inside the clamp radius (0.25 um); and on each
    axis line 1 um - 1 mm beyond each end, on it and 0.1 um off it.  700
    points in all."""
    model, seed = tf.load_geometry(geometry_path(name))
    rng = np.random.default_rng(16)

    def across(u, n):  # unit vectors normal to the axis u
        v = np.cross(u, rng.normal(size=(n, 3)))
        return v / np.linalg.norm(v, axis=1)[:, None]

    points = {"random": seed + rng.uniform(-1e-3, 1e-3, (304, 3))}
    endpoint, axis, beyond = [], [], []
    beyond_by = np.geomspace(1e-6, 1e-3, 10)[:, None]
    for seg in model.segments:
        a, b, u = (np.asarray(v) for v in (seg.a, seg.b, seg._u))
        for end in (a, b):
            d = rng.normal(size=(8, 3))
            endpoint.append(end + 1e-7 * d / np.linalg.norm(d, axis=1)[:, None])
        along = rng.uniform(0.05, 0.95, (10, 1))
        axis.append(a + along * (b - a) + 1e-7 * across(u, 10))
        for line in (b + beyond_by * u, a - beyond_by * u):
            beyond += [line, line + 1e-7 * across(u, 10)]
    points.update(endpoint=np.vstack(endpoint), axis=np.vstack(axis), beyond=np.vstack(beyond))
    return model, points


def assert_batch_independent(model, pts):
    """A batch of 700 points gives each point's one-point B, J and H bit for bit."""
    assert pts.shape == (700, 3)
    batch = model.derivatives(pts)
    for i, pt in enumerate(pts):
        for whole, alone in zip(batch, model.derivatives(pt)):
            assert np.array_equal(whole[i], alone)


# |closed form - jet| bounds on J and H per category, in eps times the
# category's max |J| and max |H|, 2-8 times the largest gap measured on the
# two geometries: random 1.4 and 3.5, endpoint 0.6 and 1.0, axis 0.13 and
# 436, beyond 9.7e3 and 2.4e4.  Where rho << |p| the jet's axial derivative
# of s / |p|, (1 - (s / |p|)^2) / |p|, cancels: an error of eps / |p|, which
# k / d (up to k / c^2 in the clamp) carries into H.  The closed form's
# rho^2 / |p|^3 does not cancel, and is within 4 eps of 40-digit derivatives
# there (the mpmath test below).  J 0.1 um off a line beyond an end carries
# the round-off of g = pa.u / |pa| - pb.u / |pb| ~ 1 - 1, which B and both
# derivatives share.
ORACLE_BOUNDS = {"random": (4, 8), "endpoint": (2, 4), "axis": (1, 1e3), "beyond": (2e4, 5e4)}


@pytest.mark.parametrize("name", ["toronto_z_trap", "toronto_split_trap"])
def test_derivatives_match_jet_oracle(name):
    model, points = oracle_points(name)
    assert_batch_independent(model, np.vstack(list(points.values())))
    for category, pts in points.items():
        b, jac, hess = model.derivatives(pts)
        b_jet, jac_jet, hess_jet = jet_pass(model, pts)
        assert np.array_equal(b, b_jet)
        for exact, oracle, bound in zip((jac, hess), (jac_jet, hess_jet), ORACLE_BOUNDS[category]):
            gap = np.abs(exact - oracle).max() / (EPS * np.abs(oracle).max())
            assert gap <= bound, (category, gap)


def test_derivatives_near_axes_match_mpmath():
    # 40-digit derivatives (mpmath.diff) of the clamped Biot-Savart
    # expression of the z-trap, from the doubles of its constants, at points
    # 0.1 um from the central wire's axis, on its line beyond its end and
    # 0.1 um off it: H to 4 eps of its max, and J where g does not cancel
    model, _ = tf.load_geometry(geometry_path("toronto_z_trap"))
    mp = mpmath.mp.clone()
    mp.dps = 40
    clamp = mp.mpf(tf._CLAMP)
    segments = [[[mp.mpf(v) for v in vec] for vec in (seg.a, seg.b, seg._u)] + [mp.mpf(seg._k)]
                for seg in model.segments]

    def component(i):
        def field(*p):
            total = mp.mpf(model.bias[i])
            for a, b, u, k in segments:
                pa, pb = [p[j] - a[j] for j in range(3)], [p[j] - b[j] for j in range(3)]
                s, t = mp.fdot(pa, u), mp.fdot(pb, u)
                r = [pa[j] - s * u[j] for j in range(3)]
                n = [max(mp.sqrt(mp.fdot(v, v)), clamp) for v in (pa, pb)]
                w = u[(i + 1) % 3] * r[(i + 2) % 3] - u[(i + 2) % 3] * r[(i + 1) % 3]
                total += k * (s / n[0] - t / n[1]) / max(mp.fdot(r, r), clamp**2) * w
            return total
        return field

    fields = [component(i) for i in range(3)]
    seg = model.segments[1]
    a, b, u = (np.asarray(v) for v in (seg.a, seg.b, seg._u))
    off = np.array([0.6, 0.0, 0.8]) * 1e-7  # normal to the wire, along y
    e = np.eye(3, dtype=int)
    for pt, check_jac in ((a + 0.3 * (b - a) + off, True), (b + 1e-5 * u, True),
                          (a - 3e-4 * u, True), (b + 1e-5 * u + off, False)):
        x = [mp.mpf(v) for v in pt]
        jac, hess = np.empty((3, 3)), np.empty((3, 3, 3))
        for i, f in enumerate(fields):
            for k in range(3):
                jac[i, k] = float(mp.diff(f, x, tuple(e[k].tolist())))
                for j in range(3):
                    hess[i, j, k] = float(mp.diff(f, x, tuple((e[j] + e[k]).tolist())))
        _, jac_cf, hess_cf = model.derivatives(pt)
        assert np.abs(hess_cf - hess).max() <= 4 * EPS * np.abs(hess).max()
        if check_jac:
            assert np.abs(jac_cf - jac).max() <= 4 * EPS * np.abs(jac).max()


def test_analytic_ip_derivatives_match_jet_oracle():
    # rotated and shifted; measured gaps 1.9 (J) and 1.2 (H) eps of the max
    ip = benchmark_ip()
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    rotated = tf.AnalyticIPField(ip.b0, ip.b_prime, ip.b_double_prime, (1e-4, -2e-4, 3e-4), q)
    pts = np.array(rotated.center) + np.random.default_rng(6).uniform(-1e-3, 1e-3, (700, 3))
    assert_batch_independent(rotated, pts)
    b, jac, hess = rotated.derivatives(pts)
    b_jet, jac_jet, hess_jet = jet_pass(rotated, pts)
    assert np.array_equal(b, b_jet) and np.array_equal(b, rotated.field(pts))
    for exact, oracle in ((jac, jac_jet), (hess, hess_jet)):
        assert np.abs(exact - oracle).max() <= 4 * EPS * np.abs(oracle).max()


@pytest.mark.parametrize("name", ["toronto_z_trap", "toronto_split_trap"])
def test_derivatives_at_wire_endpoints(name):
    # |pa| = 0 is clamped before any division: finite B, J and H with no
    # warning, and the minimum search refuses the point as on a wire axis
    # (without the chip plane, which refuses the leads' far ends first)
    model, _ = tf.load_geometry(geometry_path(name))
    wires = tf.FieldModel(model.segments, model.bias)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seg in model.segments:
            for end in (seg.a, seg.b):
                assert all(np.isfinite(d).all() for d in model.derivatives(np.array(end)))
                with pytest.raises(tf.SingularityError, match="from a wire axis"):
                    tf.find_minimum(wires, end)


# -- minima --------------------------------------------------------------------------

def test_find_minimum_analytic_ip():
    ip = benchmark_ip()
    m = tf.find_minimum(ip, np.array([2e-6, -3e-6, 1e-6]))
    assert m.b0 == pytest.approx(1.214 * C.GAUSS, rel=1e-10)
    assert np.linalg.norm(m.position) < 1e-9
    assert not m.zero_minimum
    assert m.grad_norm < 1e-10


def test_find_minimum_split_trap_b0(split_trap):
    model, seed = split_trap
    m = tf.find_minimum(model, seed)
    # configured to the published bottom field; agreement well inside 0.1 mG
    assert abs(m.b0 - 1.214 * C.GAUSS) < 0.1e-3 * C.GAUSS
    assert m.grad_norm < 1e-10


def test_find_minimum_science_trap(z_trap, z_minimum):
    assert z_minimum.b0 / C.GAUSS == pytest.approx(2.6, abs=1e-4)
    assert z_minimum.grad_norm < 1e-10
    # B, J and H at the shipped seed, then one pass per Newton step: 2 in all
    model, seed = z_trap
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    tf.find_minimum(counted, seed)
    assert counted.evaluations <= 2


@pytest.mark.parametrize("name", ["toronto_z_trap", "toronto_split_trap"])
def test_find_minimum_one_pass_per_step(name, k92):
    # the shipped seed lies within ~1e-15 m of the minimum: its pass, then one
    # Newton step, after which the next would be below round-off; the guard
    # reads the axis distance from the same passes
    model, seed = tf.load_geometry(geometry_path(name))
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    m = tf.find_minimum(counted, seed)
    assert counted.evaluations <= 2
    # the frequencies and the IP fit at the minimum just found take B, J and H
    # from the search's last pass; the fit then runs one batch for its profiles
    passes = counted.evaluations
    tf.trap_frequencies(counted, k92, m.position)
    assert counted.evaluations == passes
    points = counted.points
    tf.ip_fit(counted, m.position)
    assert (counted.evaluations, counted.points) == (passes + 1, points + 2 * 41)


def test_kept_pass_is_safe_from_callers(z_trap):
    # the arrays handed out are copies: changing them leaves the kept pass,
    # which still answers field and derivatives at its point with the bits a
    # fresh model gives
    model, seed = z_trap
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    r0 = tf.find_minimum(counted, seed).position
    fresh = tf.FieldModel(model.segments, model.bias).derivatives(r0)
    passes = counted.evaluations
    for out in (counted.derivatives(r0), counted.derivatives_and_distance(r0)):
        for a in out[:3]:
            a[...] = 0.0
    counted.field(r0)[...] = 0.0
    for a, b in zip(counted.derivatives(r0), fresh):
        assert np.array_equal(a, b)
    assert np.array_equal(counted.field(r0), fresh[0])
    distance = tf.FieldModel(model.segments).field_and_distance(r0)[1]
    assert counted.field_and_distance(r0)[1] == distance
    assert counted.evaluations == passes
    # any other point runs the kernel
    counted.field(np.nextafter(r0, 1.0))
    assert counted.evaluations == passes + 1
    # and the model cannot change under the kept pass
    with pytest.raises(dataclasses.FrozenInstanceError):
        counted.bias = (0.0, 0.0, 0.0)
    assert isinstance(counted.segments, tuple)


def test_kept_pass_of_any_shape(z_trap):
    # the last array pass and the last jet pass are kept whatever their
    # shape, keyed by the shape and then the bytes of the points
    model, seed = z_trap
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    pts = seed + np.random.default_rng(8).uniform(-50e-6, 50e-6, (700, 3))
    b = counted.field(pts)
    b[...] = 0.0
    assert np.array_equal(counted.field_and_distance(pts.copy())[0], model.field(pts))
    assert counted.evaluations == 1
    # the same bytes in another shape run the kernel
    counted.field(pts.reshape(1, 700, 3))
    assert counted.evaluations == 2
    # jets at several points, then the field there, from one jet pass
    jac = counted.derivatives(pts[:5])[1]
    jac[...] = 0.0
    assert np.array_equal(counted.derivatives(pts[:5])[1], model.derivatives(pts[:5])[1])
    assert np.array_equal(counted.field(pts[:5]), model.field(pts[:5]))
    assert counted.evaluations == 3


def test_zero_minimum_flagged():
    # side guide: wire + transverse bias has a field-zero line
    current = 1.0
    d = 2e-4
    bias = C.MU_0 * current / (2.0 * math.pi * d)
    model = tf.FieldModel(
        segments=[tf.WireSegment((-0.05, 0.0, 0.0), (0.05, 0.0, 0.0), current)],
        bias=(0.0, bias, 0.0),
    )
    m = tf.find_minimum(model, np.array([0.0, 1e-5, 0.9 * d]))
    assert m.zero_minimum
    assert m.b0 < 1e-9


@pytest.mark.parametrize("offset", [0.0, 1e-8, 1e-7])
def test_find_minimum_refuses_seed_on_wire_axis(z_trap, offset):
    # inside the clamp radius |B| falls to 0 on the axis, a false field zero
    # a search would run to; a seed within the guard of an axis is refused
    model, _ = z_trap
    seg = model.segments[0]  # runs along x
    seed = 0.5 * (np.asarray(seg.a) + np.asarray(seg.b)) + np.array([0.0, 0.0, offset])
    with pytest.raises(tf.SingularityError, match="from a wire axis"):
        tf.find_minimum(model, seed)


@pytest.mark.parametrize("seed", [[0.0, 0.0, np.nan], [0.0, np.inf, 3e-4], [1e-6, 2e-6]])
def test_find_minimum_rejects_bad_seed(z_trap, seed):
    with pytest.raises(ValueError, match="seed of 3 finite coordinates"):
        tf.find_minimum(z_trap[0], seed)


def test_find_minimum_rejects_seed_beyond_chip(z_trap):
    with pytest.raises(ValueError, match="beyond the chip surface"):
        tf.find_minimum(z_trap[0], [0.0, 0.0, -50e-6])


@pytest.mark.parametrize("name", ["toronto_z_trap", "toronto_split_trap"])
def test_find_minimum_reaches_trap_from_afar(name):
    # seeds 1 um to 1 mm from the minimum in random directions above the
    # chip: the bounded steps reach the trap from every one
    model, seed = tf.load_geometry(geometry_path(name))
    r0 = tf.find_minimum(model, seed).position
    rng = np.random.default_rng(1)
    for radius in np.geomspace(1e-6, 1e-3, 40):
        d = rng.normal(size=3)
        start = r0 + radius * d / np.linalg.norm(d)
        start[2] = abs(start[2])
        assert np.linalg.norm(tf.find_minimum(model, start).position - r0) < 1e-9


# seeds straight above the central wire where the search met the trust-region
# hard case (a NaN step) before it was handled
HARD_CASE_SEEDS_UM = {
    "toronto_z_trap": [(0.0, 0.0, 1.01), (0.0, 0.0, 1.5), (0.0, 0.0, 2.0), (0.0, 0.0, 5.0)],
    "toronto_split_trap": [(0.0, 0.0, 1.01), (0.0, 0.0, 1.5), (0.0, 0.0, 2.0)],
}


@pytest.mark.parametrize("name", sorted(HARD_CASE_SEEDS_UM))
def test_find_minimum_seed_sweep(name):
    # 100 seeds above the chip, |x| <= 2 mm, |y| <= 1.5 mm, z log-uniform in
    # 1 um - 1 mm, and the hard-case seeds: every search ends at the trap or
    # raises NumericalError or ValueError (past the wire ends |B| can fall
    # only through the chip), with no other exception and no warning
    model, seed = tf.load_geometry(geometry_path(name))
    r0 = tf.find_minimum(model, seed).position
    rng = np.random.default_rng(22)
    seeds = np.column_stack([
        rng.uniform(-2e-3, 2e-3, 100),
        rng.uniform(-1.5e-3, 1.5e-3, 100),
        np.exp(rng.uniform(math.log(1e-6), math.log(1e-3), 100)),
    ])
    seeds = np.vstack([seeds, 1e-6 * np.array(HARD_CASE_SEEDS_UM[name])])
    reached = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in seeds:
            try:
                m = tf.find_minimum(model, start)
            except (C.NumericalError, ValueError):
                continue
            assert np.linalg.norm(m.position - r0) < 1e-9, start
            reached += 1
    assert reached >= 80


@pytest.mark.parametrize("direction", ["+z", "+y", "-y"])
def test_find_minimum_near_wire_stays_above_chip(z_trap, z_minimum, direction):
    # seeds 1.01-30 um from the midpoint of the z-trap's first wire, which lies
    # in the chip surface: the descent leads into the chip, and the steps
    # along the chip surface lead on to the trap (the +-y seeds start on the
    # surface), well inside the search's 100 steps
    model, _ = z_trap
    seg = model.segments[0]
    mid = 0.5 * (np.asarray(seg.a) + np.asarray(seg.b))
    axis = {"+z": (0.0, 0.0, 1.0), "+y": (0.0, 1.0, 0.0), "-y": (0.0, -1.0, 0.0)}[direction]
    for offset in (1.01, 1.5, 2, 5, 10, 20, 30):
        counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
        m = tf.find_minimum(counted, mid + offset * 1e-6 * np.asarray(axis))
        assert np.linalg.norm(m.position - z_minimum.position) < 1e-9
        assert counted.evaluations <= 70


def test_trust_step_hard_case():
    # g has no component along the eigenvector of the negative eigenvalue and
    # p(-lam[0]) lies inside the radius: the step reaches the boundary along
    # that eigenvector, and its model value beats p(-lam[0]) alone
    lam, vec = np.array([-2.0, 1.0, 3.0]), np.eye(3)
    g = np.array([0.0, 1.0, -3.0])
    step, newton = tf._trust_step(lam, vec, g, 2.0)
    assert not newton and np.all(np.isfinite(step))
    assert np.linalg.norm(step) == pytest.approx(2.0, rel=1e-15)
    assert step[1:] == pytest.approx([-1.0 / 3.0, 3.0 / 5.0], rel=1e-15)
    model = lambda p: g @ p + 0.5 * p @ (lam * p)
    assert model(step) < model(np.array([0.0, *step[1:]]))


@pytest.mark.parametrize("height_um", [1, 2, 5])
def test_find_minimum_from_trap_axis_near_chip(z_trap, z_minimum, height_um):
    # straight below the trap, 1-5 um above the chip, the gradient has no
    # component along the Hessian's negative eigenvector (the trust-region
    # hard case): the step along that eigenvector leads on to the trap
    model, _ = z_trap
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    m = tf.find_minimum(counted, [0.0, 0.0, height_um * 1e-6])
    assert np.linalg.norm(m.position - z_minimum.position) < 1e-9
    assert m.position[2] * 1e6 == pytest.approx(273.88, abs=0.01)
    assert counted.evaluations <= 30


@pytest.mark.parametrize("height_um", [1.01, 3, 10, 30])
def test_find_minimum_walks_along_chip_to_trap(z_trap, z_minimum, height_um):
    # above the z-trap's first wire, 0.4 mm from its end, |B| falls towards
    # the chip: the steps cut at the chip surface go on along it and reach
    # the trap in 24-28 kernel passes (22-50 when each step that crossed the
    # chip plane was rejected and the radius quartered)
    model, _ = z_trap
    seg = model.segments[0]
    seed = np.asarray(seg.a) + 0.9 * (np.asarray(seg.b) - np.asarray(seg.a))
    seed[2] = height_um * 1e-6
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    m = tf.find_minimum(counted, seed)
    assert np.linalg.norm(m.position - z_minimum.position) < 1e-9
    assert counted.evaluations <= 30


@pytest.mark.parametrize("corner", [-1.0, 1.0])
@pytest.mark.parametrize("height_um", [1, 5, 30, 100])
def test_find_minimum_blocked_by_chip_ends_on_it(z_trap, corner, height_um):
    # near (+-4.06, +-1.24) mm, past the ends of the z-trap's outer wires,
    # |B| has a minimum on the chip surface and falls only through the chip:
    # the search cuts its step at the surface, settles along it and ends
    # there within 10 kernel passes
    model, _ = z_trap
    seed = corner * np.array([4060.0, 1236.0, 0.0]) * 1e-6
    seed[2] = height_um * 1e-6
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    with pytest.raises(tf.ConvergenceError, match="chip surface"):
        tf.find_minimum(counted, seed)
    assert counted.evaluations <= 10


def test_uniform_field_not_a_trap():
    with pytest.raises(tf.NotATrapError):
        tf.find_minimum(tf.FieldModel(bias=(0.0, 2.0 * C.GAUSS, 0.0)), np.zeros(3))


def test_axial_bias_raises_b0(split_trap):
    model, seed = split_trap
    m0 = tf.find_minimum(model, seed)
    b_hat = model.field(m0.position)
    b_hat = b_hat / np.linalg.norm(b_hat)
    delta = 0.05 * C.GAUSS
    shifted = tf.FieldModel(
        segments=model.segments,
        bias=tuple(np.asarray(model.bias) + delta * b_hat),
        chip_plane=model.chip_plane,
    )
    m1 = tf.find_minimum(shifted, m0.position)
    assert m1.b0 - m0.b0 == pytest.approx(delta, rel=1e-3)


def test_find_minimum_perturbed_split_traps(split_trap):
    # the exact gradient leaves |grad |B|| far below _GRAD_TOL at perturbed minima
    model, seed = split_trap
    rng = np.random.default_rng(7)
    variants = [
        tf.FieldModel(
            segments=[tf.WireSegment(s.a, s.b, 0.98 * s.current) for s in model.segments],
            bias=model.bias,
            chip_plane=model.chip_plane,
        )
    ] + [
        tf.FieldModel(
            segments=model.segments,
            bias=tuple(np.asarray(model.bias) * rng.uniform(0.95, 1.05, 3)),
            chip_plane=model.chip_plane,
        )
        for _ in range(40)
    ]
    for variant in variants:
        assert tf.find_minimum(variant, seed).grad_norm < 1e-10


def test_find_minimum_from_soft_axis_offsets(z_trap, z_minimum):
    # a seed off the minimum along the soft axis costs a few Newton steps
    model, seed = z_trap
    ip = tf.ip_fit(model, z_minimum.position)
    soft = ip.axes[:, 2]
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    m = tf.find_minimum(counted, seed + 2e-6 * soft)
    assert np.linalg.norm(m.position - z_minimum.position) < 1e-9
    assert counted.evaluations <= 200

    axes = np.column_stack([ip.axes[:, 0], ip.axes[:, 2], ip.axes[:, 1]])  # local y is soft
    analytic = counting(tf.AnalyticIPField)(
        ip.b0, ip.b_prime, ip.b_double_prime, tuple(ip.center), axes
    )
    m = tf.find_minimum(analytic, ip.center + 2e-6 * soft)
    assert np.linalg.norm(m.position - ip.center) < 1e-9
    assert analytic.evaluations <= 200


# -- frequencies -----------------------------------------------------------------------

def test_frequencies_analytic_ip_against_closed_form(rb22):
    ip = benchmark_ip()
    freqs = tf.trap_frequencies(ip, rb22, np.zeros(3))
    mu = C.magnetic_moment(rb22)
    m = rb22.species.mass
    om_perp = math.sqrt(mu * (ip.b_prime**2 / ip.b0 - ip.b_double_prime / 2.0) / m)
    om_ax = math.sqrt(mu * ip.b_double_prime / m)
    om = np.sort(freqs.omega)
    assert om[0] == pytest.approx(om_ax, rel=0.01)
    assert om[1] == pytest.approx(om_perp, rel=0.01)
    assert om[2] == pytest.approx(om_perp, rel=0.01)


def test_frequencies_science_trap(z_trap, z_minimum, k92):
    model, _ = z_trap
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    freqs = tf.trap_frequencies(counted, k92, z_minimum.position)
    assert counted.evaluations == 1  # B, J and H at r0
    f = np.sort(freqs.omega) / (2 * math.pi)
    assert f[0] == pytest.approx(46.0, rel=0.05)
    assert f[1] == pytest.approx(823.0, rel=0.02)
    assert f[2] == pytest.approx(823.0, rel=0.02)


# from scripts/trap_reference.py: the 40-digit Hanson-Hirshman field of each
# shipped geometry, minimum by Newton, Hessian by mpmath.diff; B0 (G), the
# frequencies (Hz), B'' (T/m^2) and the two transverse B'_t (T/m)
TRAP_REFERENCE = {
    "toronto_z_trap": (
        2.6000000655554234483,
        {
            "K40": (46.000244886792794248, 817.30063079029609576, 828.7391263403411788),
            "Rb87": (31.193333116187495495, 554.22163284247192733, 561.97821768063280857),
        },
        597.76501232661436566,
        (7.0099881256879957218, 7.10794203256168655),
    ),
    "toronto_split_trap": (
        1.2139999992473481235,
        {
            "K40": (20.203374552643101899, 1810.8196980222319197, 1816.9029673022898767),
            "Rb87": (13.700157337045885908, 1227.9391597321511719, 1232.0642996211955346),
        },
        115.30762715163614693,
        (10.604816797375008243, 10.640440414724256345),
    ),
}


@pytest.mark.parametrize("name", sorted(TRAP_REFERENCE))
def test_frequencies_match_reference(name, registry):
    model, seed = tf.load_geometry(geometry_path(name))
    m = tf.find_minimum(model, seed)
    b0_gauss, frequencies, _, _ = TRAP_REFERENCE[name]
    assert m.b0 / C.GAUSS == pytest.approx(b0_gauss, rel=1e-14)
    for species, expected in frequencies.items():
        state = registry.stretched_state(species)
        f = np.sort(tf.trap_frequencies(model, state, m.position).omega) / (2 * math.pi)
        assert f == pytest.approx(expected, rel=1e-12)


def test_frequencies_scale_with_current(z_trap, z_minimum, k92):
    model, _ = z_trap
    doubled = tf.FieldModel(
        segments=[tf.WireSegment(s.a, s.b, 2.0 * s.current) for s in model.segments],
        bias=tuple(2.0 * np.asarray(model.bias)),
        chip_plane=model.chip_plane,
    )
    m2 = tf.find_minimum(doubled, z_minimum.position)
    assert np.allclose(m2.position, z_minimum.position, atol=1e-9)
    assert m2.b0 == pytest.approx(2.0 * z_minimum.b0, rel=1e-9)
    f1 = np.sort(tf.trap_frequencies(model, k92, z_minimum.position).omega)
    f2 = np.sort(tf.trap_frequencies(doubled, k92, m2.position).omega)
    assert np.allclose(f2 / f1, math.sqrt(2.0), rtol=1e-6)


def test_frequencies_scale_with_moment(registry):
    ip = benchmark_ip()
    base = None
    for m_f in ("1/2", "3/2", "5/2", "7/2", "9/2"):
        state = registry.state("K40", "9/2", m_f)
        om = np.sort(tf.trap_frequencies(ip, state, np.zeros(3)).omega)
        scaled = om / math.sqrt(float(state.moment_factor))
        if base is None:
            base = scaled
        assert np.allclose(scaled, base, rtol=1e-8)


def test_frequencies_translation_invariance(k92):
    ip = benchmark_ip()
    shifted = tf.AnalyticIPField(
        ip.b0, ip.b_prime, ip.b_double_prime, center=(1e-4, -2e-4, 3e-4)
    )
    f0 = np.sort(tf.trap_frequencies(ip, k92, np.zeros(3)).omega)
    f1 = np.sort(tf.trap_frequencies(shifted, k92, np.array([1e-4, -2e-4, 3e-4])).omega)
    assert np.allclose(f0, f1, rtol=1e-9)


def test_untrappable_state_not_a_trap(registry):
    ip = benchmark_ip()
    falling = registry.state("K40", "9/2", "-9/2")
    with pytest.raises(tf.NotATrapError):
        tf.trap_frequencies(ip, falling, np.zeros(3))


# -- depth ------------------------------------------------------------------------------

def depth_after(rounds, model, state, r0):
    """trap_depth with `rounds` refinement fans in place of _REFINE_ROUNDS."""
    with mock.patch.object(tf, "_REFINE_ROUNDS", rounds):
        return tf.trap_depth(model, state, r0)


def default_ray_length(model, r0):
    """trap_depth's ray length: 5 mm, or 10 times the farthest wire end from r0."""
    ends = [p for seg in model.segments for p in (seg.a, seg.b)]
    return max(5e-3, 10.0 * max((np.linalg.norm(np.asarray(p) - r0) for p in ends), default=0.0))


def test_depth_science_trap(z_trap, z_minimum, k92):
    model, _ = z_trap
    report = tf.trap_depth(model, k92, z_minimum.position)
    assert report.temperature_equiv * 1e3 == pytest.approx(1.05, abs=0.15)


@pytest.mark.parametrize("start", [[0.0, 0.0, np.nan], [0.0, np.inf, 3e-4], [1e-6, 2e-6]])
def test_depth_rejects_bad_start(z_trap, k92, start):
    # the check find_minimum makes of its seed
    with pytest.raises(ValueError, match="start of 3 finite coordinates"):
        tf.trap_depth(z_trap[0], k92, start)


@pytest.mark.parametrize("rounds", [0, 1, 2])
def test_depth_one_field_call_per_round(z_trap, z_minimum, k92, rounds):
    # U(r0), at most three batched calls for the 26-ray grid and four per
    # 49-ray refinement fan, however many rays they have
    model, _ = z_trap
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    depth_after(rounds, counted, k92, z_minimum.position)
    assert counted.evaluations <= 1 + 3 + 4 * rounds
    # U(r0) and about a fifth of the grid's 10,924 points above the chip, then
    # about a twentieth of each fan's 49 x 500 points: every 8th sample, then
    # only the rays that could still be the first lowest are filled in; a fan
    # first takes only the crest sample and every 64th, and of its survivors
    # only the one that peaks lowest is filled before the others are bounded
    # by its barrier
    assert counted.points <= {0: 2_254, 1: 3_516, 2: 4_888}[rounds]


@pytest.mark.parametrize("tie", [False, True])
def test_depth_grid_refills_rays_that_can_still_win(k92, tie):
    # along +y a narrow barrier between two coarse samples, along -y a wide one
    # as high (tie) or a hair lower: the coarse batch sees -y's and not +y's, so
    # +y is filled first and -y must still be filled and win, as the lower
    # barrier or, tied, as the ray of lower index
    s = np.geomspace(1e-7, 5e-3, 500)
    b0, b_prime, up = 2.0 * C.GAUSS, 40.0, 0.5
    down = up if tie else up * (1.0 - 1e-4)

    def field(r):
        x, y, z = r[..., 0], r[..., 1], r[..., 2]
        bump = np.where((s[299] < y) & (y < s[304]), up, 0.0)  # samples 300-303
        bump = np.where((-s[311] < y) & (y < -s[289]), down, bump)  # samples 290-310
        return np.stack([b_prime * x, b0 * (1.0 + bump), -b_prime * z], axis=-1)

    model = array_field(field)
    report = tf.trap_depth(model, k92, np.zeros(3))
    assert report.escape_direction.tolist() == [0.0, -1.0, 0.0]
    crest = tf.potential(model, k92, np.array([0.0, -s[300], 0.0]))
    assert report.depth == float(crest - tf.potential(model, k92, np.zeros(3)))


def test_depth_excludes_slowly_rising_rays(k92):
    # off the y axis |B| grows as (distance from it / 1 mm)^0.05, so the last
    # fifth of each such ray climbs by 10% of its rise above U(r0), more than
    # the 5% that marks a ray as still rising; along y a bump of 0.1 B0 between
    # 10 and 20 um is the lowest barrier
    b0 = 2.0 * C.GAUSS

    def field(r):
        x, y, z = r[..., 0], r[..., 1], r[..., 2]
        rise = (np.hypot(x, z) / 1e-3) ** 0.05
        bump = np.where((1e-5 < np.abs(y)) & (np.abs(y) < 2e-5), 0.1, 0.0)
        return np.stack([0.0 * x, b0 * (1.0 + rise + bump), 0.0 * x], axis=-1)

    model = array_field(field)
    report = tf.trap_depth(model, k92, np.zeros(3))
    assert report.escape_direction.tolist() == [0.0, -1.0, 0.0]
    assert report.depth == pytest.approx(0.1 * C.magnetic_moment(k92) * b0, rel=1e-12)


def test_depth_rising_rays_peaking_low_never_win(k92):
    # off the y axis |B| rises linearly, by 0.05 B0 over 5 mm from it, so each
    # such ray is still rising at its end and peaks below the 0.1 B0 bump
    # between 10 and 20 um along y: the grid ray that peaks lowest is a rising
    # one, sets no bound, and the y rays must still be filled and win
    b0 = 2.0 * C.GAUSS

    def field(r):
        x, y, z = r[..., 0], r[..., 1], r[..., 2]
        rise = 0.05 * np.hypot(x, z) / 5e-3
        bump = np.where((1e-5 < np.abs(y)) & (np.abs(y) < 2e-5), 0.1, 0.0)
        return np.stack([0.0 * x, b0 * (1.0 + rise + bump), 0.0 * x], axis=-1)

    model = counting(type(array_field(field)))()
    expected = reference_depths(model, k92, np.zeros(3), 2)
    for rounds, (depth, direction) in enumerate(expected):
        model.points = 0
        report = depth_after(rounds, model, k92, np.zeros(3))
        assert report.escape_direction.tolist() == [0.0, -1.0, 0.0]
        assert np.float64(report.depth).tobytes() == np.float64(depth).tobytes()
        assert report.escape_direction.tobytes() == np.asarray(direction).tobytes()
        if rounds == 0:
            # the rays' last samples show which cannot be rising; -y, the
            # lowest of those, bounds the rest, and only the 8 rising rays
            # off y (which peak lower) are filled too, not all 26
            assert model.points <= 5_606


def reference_barrier(u, u0):
    """(barrier, still rising at truncation) of the potential u along one ray;
    u is inf where the ray passes within the singularity guard of a wire."""
    finite = np.isfinite(u)
    if not finite.any():
        return np.inf, False
    u_max = float(np.max(u[finite]))
    barrier = u_max - u0
    if np.isinf(u).any():
        return barrier if barrier > 0 else np.inf, False
    i80 = int(0.8 * len(u))
    tail_rise = u[-1] - u[i80]
    still_rising = (np.argmax(u) >= len(u) - 2) and tail_rise > 0.05 * max(u_max - u0, 1e-300)
    return barrier, still_rising


def reference_depths(model, state, r0, rounds):
    """The depth search as a loop over rays, with every sample of every ray
    evaluated: (depth, escape direction) after each of 0, 1, ..., rounds
    refinement rounds."""
    s = np.geomspace(1e-7, default_ray_length(model, r0), 500)
    u0 = float(tf.potential(model, state, r0, guard=0.0))

    def barriers(directions):
        for d in directions:
            pts = r0 + s[:, None] * d
            pts = pts[~model.beyond_chip(pts)]
            if len(pts) < 8:
                yield None
                continue
            b, dist = model.field_and_distance(pts)
            u = C.magnetic_moment(state) * np.linalg.norm(b, axis=-1)
            if model.gravity is not None:
                (gx, gy, gz), (x, y, z) = model.gravity, pts.T
                u = u - state.species.mass * (x * gx + y * gy + z * gz)
            yield reference_barrier(np.where(dist >= tf.SINGULARITY_GUARD, u, np.inf), u0)

    grid = np.array(
        [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1) if i or j or k],
        dtype=float,
    )
    grid /= np.linalg.norm(grid, axis=1)[:, None]
    best = (np.inf, None)
    for d, res in zip(grid, barriers(grid)):
        if res is not None and not res[1] and res[0] < best[0]:
            best = (res[0], d)
    if best[1] is None:
        return [(np.inf, np.zeros(3))] * (rounds + 1)
    results = [(max(best[0], 0.0), best[1])]
    width = 0.45
    for _ in range(rounds):
        d = best[1]
        t1 = np.cross(d, [0.0, 0.0, 1.0])
        if np.linalg.norm(t1) < 1e-8:
            t1 = np.cross(d, [0.0, 1.0, 0.0])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(d, t1)
        fan = []
        for a in np.linspace(-width, width, 7):
            for b in np.linspace(-width, width, 7):
                dd = d + a * t1 + b * t2
                dd /= np.linalg.norm(dd)
                fan.append(dd)
        for dd, res in zip(fan, barriers(fan)):
            if res is not None and not res[1] and res[0] < best[0]:
                best = (res[0], dd)
        results.append((max(best[0], 0.0), best[1]))
        width /= 3.0
    return results


def fan_field(bumps):
    """A field with B along y of b0 (1 + h), h set by the ray and the sample
    index along it (samples s of a 5 mm search): on the ray towards (a, 1, 0)
    of each a in `bumps`, its value over each of its (first, last sample,
    value) ranges, 0 elsewhere; on every other ray 1 over samples 290-310."""
    s = np.geomspace(1e-7, 5e-3, 500)
    b0 = 2.0 * C.GAUSS

    def over(dist, lo, hi):
        return (s[lo] * 0.99 < dist) & (dist < s[hi] * 1.01)

    def field(r):
        x, y, z = r[..., 0], r[..., 1], r[..., 2]
        dist = np.sqrt(x * x + y * y + z * z)
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b = x / y, -z / y
        h = np.where(over(dist, 290, 310), 1.0, 0.0)
        for a0, ranges in bumps.items():
            on_ray = (y > 0) & (np.abs(a - a0) < 1e-9) & (np.abs(b) < 1e-9)
            h_ray = 0.0
            for lo, hi, value in ranges:
                h_ray = np.where(over(dist, lo, hi), value, h_ray)
            h = np.where(on_ray, h_ray, h)
        return np.stack([0.0 * x, b0 * (1.0 + h), 0.0 * x], axis=-1)

    return array_field(field)


def assert_fan_winner(model, k92, h):
    """The first fan around +y picks W = (-0.15, 1, 0) with the barrier h b0,
    and every round's depth and direction are the reference's bit for bit."""
    expected = reference_depths(model, k92, np.zeros(3), 2)
    w = np.array([-0.15, 1.0, 0.0]) / np.linalg.norm([-0.15, 1.0, 0.0])
    assert np.allclose(expected[1][1], w, rtol=0, atol=1e-15)
    assert expected[1][0] == pytest.approx(h * C.magnetic_moment(k92) * 2.0 * C.GAUSS, rel=1e-12)
    for rounds, (depth, direction) in enumerate(expected):
        report = depth_after(rounds, model, k92, np.zeros(3))
        assert np.float64(report.depth).tobytes() == np.float64(depth).tobytes()
        assert report.escape_direction.tobytes() == np.asarray(direction).tobytes()


@pytest.mark.parametrize("tie", [False, True])
def test_depth_fan_bounds_survivors_by_lowest_first(k92, tie):
    # B along y is b0 (1 + h) with h set by the ray: 1 on every ray but three,
    # in a bump over samples 290-310, which the fan's first batch (the grid
    # crest's sample among them) sees.  The grid's weakest ray +y has h = 0.3
    # there, and in the first fan around it the ray W (a = -0.15, b = 0) has
    # h = 0.2 and the ray P (a = 0.15, b = 0, higher index) h = 0.1, both over
    # samples 350-370, where the coarse batch sees them.  P therefore peaks
    # lowest and is filled first, and a narrow bump over samples 401-403,
    # between coarse samples, gives it the barrier 0.25 (tie: 0.2).  W must
    # still be filled and win, as the lower barrier or, tied, as the ray of
    # lower index.
    hidden = 0.2 if tie else 0.25
    model = fan_field({0.0: [(290, 310, 0.3)], -0.15: [(350, 370, 0.2)],
                       0.15: [(350, 370, 0.1), (401, 403, hidden)]})
    assert_fan_winner(model, k92, 0.2)


def test_depth_fan_finds_winner_between_sparse_samples(k92):
    # as above, but W (h = 0.2) and P (h = 0.1) peak over samples 396-404:
    # away from the grid crest (sample 290) and between the 64th samples 384
    # and 448, so the fan's first batch sees neither, while it drops every
    # other ray on its crest sample; every 8th sample (400) sees both.  P is
    # filled first, a narrow bump over samples 409-411 gives it 0.25, and W
    # must still be filled and win.
    model = fan_field({0.0: [(290, 310, 0.3)], -0.15: [(396, 404, 0.2)],
                       0.15: [(396, 404, 0.1), (409, 411, 0.25)]})
    assert_fan_winner(model, k92, 0.2)


def depth_start(model, seed, where):
    """A start point for the depth search: the trap minimum, a point 2-300 um
    from it, a point beyond the chip plane, or one 3 um from a wire axis."""
    m = tf.find_minimum(model, seed).position
    if where == "minimum":
        return m
    if where.startswith("offset"):
        rng = np.random.default_rng(int(where[-1]))
        d = rng.normal(size=3)
        return m + np.geomspace(2e-6, 3e-4, 3)[int(where[-1])] * d / np.linalg.norm(d)
    normal, offset = (np.asarray(v, dtype=float) for v in model.chip_plane)
    if where == "beyond-chip":
        return m + (offset - m @ normal + 5e-6) * normal
    # nearest point of the nearest segment's axis, then 3 um towards the minimum
    feet = []
    for seg in model.segments:
        a, b = np.asarray(seg.a), np.asarray(seg.b)
        u = (b - a) / np.linalg.norm(b - a)
        feet.append(a + ((m - a) @ u) * u)
    foot = min(feet, key=lambda f: np.linalg.norm(m - f))
    return foot + 3e-6 * (m - foot) / np.linalg.norm(m - foot)


# the z-trap with its wire current and bias components scaled by up to +-15%
# (current, bias x, y, z), as the trap-design benchmark perturbs it, and with
# gravity along no axis
DEPTH_VARIANTS = {
    "z-trap-scaled-down": dict(scale=(0.85, 1.15, 0.9, 1.1)),
    "z-trap-scaled-up": dict(scale=(1.15, 0.85, 1.1, 0.9)),
    "z-trap-tilted-gravity": dict(gravity=tuple(C.G_EARTH * np.array([0.1, -0.3, -0.948]))),
}


def depth_geometry(name):
    if name not in DEPTH_VARIANTS:
        return tf.load_geometry(geometry_path(name))
    model, seed = tf.load_geometry(geometry_path("toronto_z_trap"))
    scale = DEPTH_VARIANTS[name].get("scale", (1.0, 1.0, 1.0, 1.0))
    segments = [tf.WireSegment(seg.a, seg.b, seg.current * scale[0]) for seg in model.segments]
    bias = tuple(np.asarray(model.bias) * scale[1:])
    gravity = DEPTH_VARIANTS[name].get("gravity")
    return tf.FieldModel(segments, bias, gravity, model.chip_plane), seed


@pytest.mark.parametrize(
    "where", ["minimum", "offset-0", "offset-1", "offset-2", "beyond-chip", "near-wire"]
)
@pytest.mark.parametrize("name", ["toronto_z_trap", "toronto_split_trap", *DEPTH_VARIANTS])
def test_depth_matches_unpruned_reference(name, where, k92, rb22):
    # dropping grid and fan rays that cannot win leaves every output bit as
    # the per-ray search over every sample gives it; a start beyond the chip
    # (the split trap's offset-2 among them) is refused
    model, seed = depth_geometry(name)
    r0 = depth_start(model, seed, where)
    if where == "beyond-chip" or (name, where) == ("toronto_split_trap", "offset-2"):
        with pytest.raises(ValueError, match="beyond the chip surface"):
            tf.trap_depth(model, k92, r0)
        return
    for state in (k92, rb22):
        expected = reference_depths(model, state, r0, 2)
        for rounds, (depth, direction) in enumerate(expected):
            report = depth_after(rounds, model, state, r0)
            assert np.float64(report.depth).tobytes() == np.float64(depth).tobytes()
            assert report.escape_direction.tobytes() == np.asarray(direction).tobytes()


@pytest.mark.parametrize("name", ["toronto_z_trap", "toronto_split_trap"])
def test_depth_is_barrier_along_escape_direction(name, k92):
    # the batched search reports exactly the barrier of its escape ray alone
    model, seed = tf.load_geometry(geometry_path(name))
    r0 = tf.find_minimum(model, seed).position
    report = tf.trap_depth(model, k92, r0)
    s = np.geomspace(1e-7, default_ray_length(model, r0), 500)
    pts = r0 + s[:, None] * report.escape_direction
    pts = pts[~model.beyond_chip(pts)]
    assert model.field_and_distance(pts)[1].min() >= tf.SINGULARITY_GUARD
    u = tf.potential(model, k92, pts, guard=0.0)
    assert report.depth == float(np.max(u)) - float(tf.potential(model, k92, r0, guard=0.0))


def test_depth_single_wire_with_bias(rb22):
    # escape over the transverse-bias saddle: depth ~ mu_B x 20 G ~ k_B x 1.3 mK
    current = 2.0
    bias = 20.0 * C.GAUSS
    d = C.MU_0 * current / (2.0 * math.pi * bias)
    model = tf.FieldModel(
        segments=[tf.WireSegment((-0.004, 0.0, 0.0), (0.004, 0.0, 0.0), current)],
        bias=(0.0, bias, 1.0 * C.GAUSS),
    )
    m = tf.find_minimum(model, np.array([0.0, 0.0, d]))
    report = tf.trap_depth(model, rb22, m.position)
    approx_depth = C.magnetic_moment(rb22) * bias
    assert report.depth == pytest.approx(approx_depth, rel=0.15)
    assert approx_depth / C.K_B == pytest.approx(1.34e-3, rel=0.01)


def test_depth_excludes_unbounded_rays(k92):
    # transverse confinement rises without bound; the axial direction has a
    # finite bump and sets the depth
    b0 = 2.0 * C.GAUSS
    b_prime = 40.0
    length = 3e-4
    bump = 0.5

    def field(r):
        x, y, z = r[..., 0], r[..., 1], r[..., 2]
        u = y / length
        by = b0 * (1.0 + bump * u * u * np.exp(-(u * u)))
        return np.stack([b_prime * x, by, -b_prime * z], axis=-1)

    model = array_field(field)
    report = tf.trap_depth(model, k92, np.zeros(3))
    expected = C.magnetic_moment(k92) * b0 * bump * math.exp(-1.0)
    assert report.depth == pytest.approx(expected, rel=0.01)
    # the weakest escape is along the trap axis
    assert abs(report.escape_direction[1]) > 0.99


# -- Ioffe-Pritchard fit --------------------------------------------------------------------

def test_ip_fit_recovers_synthetic_parameters():
    # the closed form from the exact Hessian is exact for an IP field
    ip = benchmark_ip()
    fit = tf.ip_fit(ip, np.zeros(3))
    assert fit.b0 == pytest.approx(ip.b0, rel=1e-12)
    assert fit.b_prime == pytest.approx(ip.b_prime, rel=1e-12)
    assert fit.b_double_prime == pytest.approx(ip.b_double_prime, rel=1e-12)
    assert fit.transverse_trapping
    assert fit.residual_rms < 1e-4 * ip.b0


@pytest.mark.parametrize("name", sorted(TRAP_REFERENCE))
def test_ip_fit_matches_reference(name):
    model, seed = tf.load_geometry(geometry_path(name))
    m = tf.find_minimum(model, seed)
    b0_gauss, _, b_double_prime, b_primes = TRAP_REFERENCE[name]
    fit = tf.ip_fit(model, m.position)
    assert fit.b0 == m.b0
    assert fit.b0 / C.GAUSS == pytest.approx(b0_gauss, rel=1e-12)
    assert fit.b_double_prime == pytest.approx(b_double_prime, rel=1e-12)
    assert fit.b_prime == pytest.approx(0.5 * sum(b_primes), rel=1e-12)
    assert fit.residual_rms < 1e-3 * fit.b0


def test_ip_fit_profiles_in_one_field_call(z_trap, z_minimum):
    # B, J and H at r0, then one batch for the two transverse profiles
    model, _ = z_trap
    counted = counting(tf.FieldModel)(model.segments, model.bias, None, model.chip_plane)
    tf.ip_fit(counted, z_minimum.position)
    assert (counted.evaluations, counted.points) == (2, 1 + 2 * 41)


def test_ip_fit_frequency_inversion():
    # B' implied by a 1.23 kHz Rb transverse frequency at B0 = 1.214 G
    ip = benchmark_ip()
    fit = tf.ip_fit(ip, np.zeros(3))
    assert fit.b_prime == pytest.approx(10.6226, rel=1e-3)  # T/m


def test_ip_fit_transverse_profile_invariant():
    ip = benchmark_ip()
    fit = tf.ip_fit(ip, np.zeros(3))
    s = np.linspace(-0.3, 0.3, 11) * fit.b0 / fit.b_prime
    pts = np.zeros((11, 3))
    pts[:, 0] = s
    bmag = np.linalg.norm(ip.field(pts), axis=-1)
    model_b = np.sqrt(fit.b0**2 + fit.b_prime**2 * s**2)
    assert np.allclose(bmag, model_b, rtol=0.01)


def test_ip_fit_pure_bias_flagged():
    model = tf.FieldModel(bias=(0.0, 2.0 * C.GAUSS, 0.0))
    fit = tf.ip_fit(model, np.zeros(3))
    assert not fit.transverse_trapping
    assert fit.b_prime == 0.0


def test_ip_fit_warns_on_poor_profile():
    b0 = 1.0 * C.GAUSS
    b_prime = 10.0
    scale = 0.02 * b0 / b_prime

    class Cubic(tf._KernelField):
        # B_x = B' x (1 + (x / scale)^2), B_y = B0, as arithmetic on arrays or
        # jets, with its derivatives from the jet oracle
        def _components(self, x, y, z):
            u = x * (1.0 / scale)
            return b_prime * x * (1.0 + u * u), x * 0.0 + b0, x * 0.0, None

        def _derivative_pass(self, r):
            return (*jet_pass(self, r), np.full(r.shape[:-1], np.inf))

    with pytest.warns(tf.PoorFitWarning):
        tf.ip_fit(Cubic(), np.zeros(3))


# -- geometry files ----------------------------------------------------------------------

def test_gravity_term(k92):
    model = tf.FieldModel(bias=(0.0, 1.0 * C.GAUSS, 0.0), gravity=(0.0, 0.0, -C.G_EARTH))
    r = np.array([0.0, 0.0, 1e-3])
    u = tf.potential(model, k92, r)
    u0 = tf.potential(model, k92, np.zeros(3))
    assert u - u0 == pytest.approx(k92.species.mass * C.G_EARTH * 1e-3, rel=1e-12)


def test_potential_with_tilted_gravity_independent_of_batch(z_trap, k92):
    # with gravity along no axis the potential of a point is the same alone as
    # in a batch, as its field is
    model, seed = z_trap
    tilted = tf.FieldModel(model.segments, model.bias, (0.1, -0.3, -0.948), model.chip_plane)
    rng = np.random.default_rng(3)
    direction = rng.normal(size=(4096, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radius = np.exp(rng.uniform(np.log(1e-7), np.log(1e-1), 4096))
    pts = seed + radius[:, None] * direction
    batch = tf.potential(tilted, k92, pts, guard=0.0)
    assert np.array_equal(batch, [tf.potential(tilted, k92, p, guard=0.0) for p in pts])
