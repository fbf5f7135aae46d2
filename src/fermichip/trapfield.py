"""Magnetostatics of chip wire traps.

Finite straight segments (Biot-Savart) plus uniform bias fields.  Every field
class subclasses `_KernelField` and writes its field once, as elementwise
arithmetic on the x, y, z components (`_components`); the base gives the one
protocol.  `field(r, guard=...)` returns B with shape (..., 3),
`field_and_distance(r)` returns B together with the distance to the nearest
wire axis from the same evaluation (inf without wires), `derivatives(r)`
returns B, J[..., i, j] = d_j B_i and H[..., i, j, k] = d_j d_k B_i,
`derivatives_and_distance(r)` returns those and the axis distance from one
evaluation, and `segments`, `gravity` and `beyond_chip` describe what else
the searches need (no wires, no gravity, no chip plane unless a class sets
them).  `field` runs the components on arrays and `derivatives` on
forward-mode jets: the derivatives are exact, and a point's B, J and H do not
depend on the batch it is evaluated in.  A `FieldModel` runs the Biot-Savart
kernel once for all its segments and adds them to the bias one at a time in
their order.  Arrays go through it in blocks of `_BLOCK` points, the segment
constants and the coordinates as contiguous (segments, points) arrays; jets
go in one pass, the constants as (segments, 1) columns.  The field classes
are frozen, and each keeps its last jet pass (B, J, H and the axis distance)
and its last array pass (B and the axis distance), whatever their shape, so
a caller asking again at the same points runs no kernel: the frequencies and
the IP parameters at a minimum just found, or a second species' dressed scan.

On top of the field model: location of the trap minimum (trust-region Newton
on the exact gradient J^T B and Hessian of |B|^2 / 2, one kernel pass per
step), bottom field B0, harmonic frequencies per spin state from the exact
Hessian of |B|, trap depth from an escape-ray search, and the
Ioffe-Pritchard parameters (B0, B', B'') in closed form from that Hessian, whose
axes the RF-dressing scans follow.

Positions are in metres, fields in tesla, currents in ampere.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import GAUSS, K_B, MICROMETER, MU_0, NumericalError, SpinState, magnetic_moment

__all__ = [
    "WireSegment",
    "FieldModel",
    "AnalyticIPField",
    "IPTrapParams",
    "TrapMinimum",
    "TrapFrequencies",
    "TrapDepthReport",
    "SingularityError",
    "ConvergenceError",
    "SaddlePointError",
    "NotATrapError",
    "PoorFitWarning",
    "potential",
    "find_minimum",
    "trap_frequencies",
    "trap_depth",
    "ip_fit",
    "load_geometry",
    "save_geometry",
]

SINGULARITY_GUARD = 1e-6  # m, minimum approach to a segment axis
# The unguarded field stays finite, but inside this radius |B| falls linearly
# to 0 on the axis: a false zero that find_minimum refuses to search near.
_CLAMP = 0.25 * SINGULARITY_GUARD
# points per pass of a FieldModel's kernel: its (segments, points) temporaries
# stay small enough for the cache (a 6-segment pass over 8192 points took
# 5.0 ms in blocks of 1024 and 3.6 ms in blocks of 512 on a 2-vCPU Xeon)
_BLOCK = 512
_ZERO_FIELD_TOL = 1e-9  # T, |B| below which a minimum is a field zero
_DEPTH_SAMPLES = 500  # samples per escape ray of trap_depth
_IP_RESIDUAL_THRESHOLD = 0.01  # ip_fit warns above this |B| residual RMS / B0


def _coordinates(r: np.ndarray) -> np.ndarray:
    """x, y, z of the points r (..., 3) as (1, N) rows of a contiguous (3, 1, N) array."""
    return np.array(r.reshape(-1, 3).T[:, None, :])


def _sym(a, b):
    """a b^T + b a^T for gradients a, b of shape (3, N)."""
    return a[:, None] * b[None, :] + b[:, None] * a[None, :]


class _Jet:
    """Value v (N,), gradient g (3, N) and Hessian h (3, 3, N) in the
    coordinates of N points, carried through a field kernel's elementwise
    arithmetic (forward mode; Griewank and Walther, Evaluating Derivatives,
    SIAM 2008); h is the scalar 0 while affine.  Values are computed as on
    arrays, so B from jets is bit for bit the B of field()."""

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h=0.0):
        self.v, self.g, self.h = v, g, h

    def __add__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v + other.v, self.g + other.g, self.h + other.h)
        return _Jet(self.v + other, self.g, self.h)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Jet):
            return _Jet(self.v - other.v, self.g - other.g, self.h - other.h)
        return _Jet(self.v - other, self.g, self.h)

    def __mul__(self, other):
        if not isinstance(other, _Jet):
            h = self.h * other if isinstance(self.h, np.ndarray) else self.h
            return _Jet(self.v * other, self.g * other, h)
        h = _sym(self.g, other.g)
        if isinstance(other.h, np.ndarray):  # else other is affine
            h = h + self.v * other.h
        if isinstance(self.h, np.ndarray):
            h = h + other.v * self.h
        return _Jet(self.v * other.v, self.v * other.g + other.v * self.g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # q = a / b from a = q b, differentiated once and twice
        q = self.v / other.v
        g = (self.g - q * other.g) / other.v
        return _Jet(q, g, (self.h - q * other.h - _sym(g, other.g)) / other.v)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # np.sqrt, the np.maximum clamp, and numpy scalars on the left of a jet
        if ufunc is np.sqrt:
            v = np.sqrt(self.v)
            g = self.g / (2.0 * v)
            return _Jet(v, g, (self.h - _sym(g, g)) / (2.0 * v))
        if ufunc is np.maximum:  # a clamped value is constant
            v, free = np.maximum(self.v, inputs[1]), self.v > inputs[1]
            return _Jet(v, np.where(free, self.g, 0.0), np.where(free, self.h, 0.0))
        reflected = {np.add: self.__radd__, np.multiply: self.__rmul__}.get(ufunc)
        return NotImplemented if reflected is None else reflected(inputs[0])


def _add_in_order(start, rows):
    """start + rows[0] + rows[1] + ... over the segment rows (axis -2) of a
    kernel output, added one row at a time in their order, as a (..., 1, N)
    array; on jets, on the raw value, gradient and Hessian arrays, with the
    number start as a constant (zero derivatives)."""
    if isinstance(rows, _Jet):
        return _Jet(*(_add_in_order(a, b) for a, b in zip(
            (start, 0.0, 0.0), (rows.v, rows.g, rows.h))))
    total = start + rows[..., :1, :]
    for k in range(1, rows.shape[-2]):
        total += rows[..., k : k + 1, :]
    return total


def _biot_savart(a, b, u, k, x, y, z):
    """B_x, B_y, B_z and the unclamped squared axis distance rho^2 of straight
    segments from a to b with unit axis u and prefactor k = mu0 I / 4 pi, at
    the points with coordinates x, y, z (arrays or jets).

    The segment constants and the coordinates are (S, N) arrays for S
    segments, or (S, 1) columns against (1, N) rows, so each output has a row
    per segment.  Elementwise arithmetic on the components only (no matmul,
    whose rounding depends on the batch), so a point's field is the same
    whatever else is evaluated with it; rho, |pa| and |pb| are clamped.
    """
    ax, ay, az = a
    bx, by, bz = b
    ux, uy, uz = u
    pax, pay, paz = x - ax, y - ay, z - az
    pa_u = pax * ux + pay * uy + paz * uz
    rx, ry, rz = pax - pa_u * ux, pay - pa_u * uy, paz - pa_u * uz
    rho2 = rx * rx + ry * ry + rz * rz
    pbx, pby, pbz = x - bx, y - by, z - bz
    pb_u = pbx * ux + pby * uy + pbz * uz
    na = np.maximum(np.sqrt(pax * pax + pay * pay + paz * paz), _CLAMP)
    nb = np.maximum(np.sqrt(pbx * pbx + pby * pby + pbz * pbz), _CLAMP)
    factor = k * (pa_u / na - pb_u / nb) / np.maximum(rho2, _CLAMP**2)
    return (
        factor * (uy * rz - uz * ry),
        factor * (uz * rx - ux * rz),
        factor * (ux * ry - uy * rx),
        rho2,
    )


class SingularityError(NumericalError, ValueError):
    """Field requested within the singularity guard of a wire axis."""


class ConvergenceError(NumericalError):
    """Minimum search did not converge to the requested gradient norm."""


class SaddlePointError(NumericalError):
    """Search converged to a critical point that is not a minimum of |B|."""


class NotATrapError(NumericalError):
    """Potential Hessian has a non-positive eigenvalue at the minimum."""


class PoorFitWarning(UserWarning):
    """|B| departs from the Ioffe-Pritchard form by more than the reporting threshold."""


@dataclass(frozen=True)
class WireSegment:
    """Straight wire from a to b (m) carrying signed current (A, along a -> b)."""

    a: tuple[float, float, float]
    b: tuple[float, float, float]
    current: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        length = np.linalg.norm(b - a)
        if length <= 0:
            raise ValueError("segment endpoints coincide")
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "b", tuple(b))
        # unit axis and Biot-Savart prefactor mu0 I / 4 pi, fixed per segment
        object.__setattr__(self, "_u", tuple((b - a) / length))
        object.__setattr__(self, "_k", MU_0 * self.current / (4.0 * np.pi))


class _KernelField:
    """Base of every field: a subclass writes one elementwise kernel,
    `_components(x, y, z)`: B_x, B_y, B_z and the squared distances to the
    wire axes, a row per segment (None without wires), on arrays or jets.
    A field has no wire segments, no gravity and no chip plane unless its
    class sets `segments`, `gravity` (m/s^2) or `chip_plane`.

    The last jet pass and the last array pass are kept, each keyed by the
    shape and then the bytes of its points; the fields are frozen
    dataclasses, so they cannot go stale, and copies are handed out, so a
    caller cannot change them.  `_field_pass` and `_jet_pass` are the kernel
    passes themselves."""

    segments = ()
    gravity = None
    chip_plane = None
    # (shape of the points, their bytes, the pass's outputs) of the last pass
    _kept_jets = None
    _kept_field = None

    def _field_pass(self, r):
        """B (..., 3) at the points r and the squared distance (...) to the
        nearest wire axis, from the kernel run on blocks of _BLOCK points.
        Each block's coordinates go in as contiguous rows, one per segment
        (one without wires), as the segment constants are: an operation
        against an (S, 1) column costs more than one on two (S, n) arrays."""
        x = _coordinates(r)
        n = x.shape[-1]
        rows = max(len(self.segments), 1)
        b = np.empty((n, 3))
        rho2 = np.full(n, np.inf)
        for lo in range(0, n, _BLOCK):
            *b_blk, rho2_blk = self._components(*np.repeat(x[..., lo : lo + _BLOCK], rows, axis=1))
            b[lo : lo + _BLOCK] = np.stack(b_blk, axis=-1)[0]
            if rho2_blk is not None:
                rho2[lo : lo + _BLOCK] = rho2_blk.min(axis=0)
        return b.reshape(r.shape), rho2.reshape(r.shape[:-1])

    def _jet_pass(self, r):
        """B (..., 3), J (..., 3, 3), H (..., 3, 3, 3) and the squared
        distance (...) to the nearest wire axis at the points r, from one pass
        of the kernel on coordinate jets."""
        x = _coordinates(r)
        n = x.shape[-1]
        seeds = np.broadcast_to(np.eye(3)[:, :, None, None], (3, 3, 1, n))
        *b, rho2 = self._components(*(_Jet(xi, gi) for xi, gi in zip(x, seeds)))
        shape = r.shape[:-1]
        return (
            np.stack([c.v[0] for c in b], axis=-1).reshape(r.shape),
            np.stack([c.g[:, 0] for c in b]).transpose(2, 0, 1).reshape(shape + (3, 3)),
            np.stack([np.broadcast_to(c.h, (3, 3, 1, n))[:, :, 0] for c in b])
            .transpose(3, 0, 1, 2)
            .reshape(shape + (3, 3, 3)),
            (np.full(n, np.inf) if rho2 is None else rho2.v.min(axis=0)).reshape(shape),
        )

    @staticmethod
    def _recall(kept, r):
        """The outputs of the kept pass `kept` if it ran at the points r, else None."""
        if kept is not None and kept[0] == r.shape and kept[1] == r.tobytes():
            return kept[2]
        return None

    def _field_and_rho2(self, r):
        r = np.asarray(r, dtype=float)
        kept = self._recall(self._kept_jets, r)
        if kept is not None:
            return kept[0].copy(), kept[3]
        kept = self._recall(self._kept_field, r)
        if kept is None:
            kept = self._field_pass(r)
            object.__setattr__(self, "_kept_field", (r.shape, r.tobytes(), kept))
        return kept[0].copy(), kept[1]

    def field(self, r, guard: float = SINGULARITY_GUARD) -> np.ndarray:
        b, rho2 = self._field_and_rho2(r)
        if guard > 0 and np.any(np.sqrt(rho2) < guard):
            raise SingularityError(
                f"field evaluated within {guard*1e6:.3g} um of a wire axis"
            )
        return b

    def field_and_distance(self, r):
        """B (..., 3) and the distance (...) to the nearest wire axis, unguarded."""
        b, rho2 = self._field_and_rho2(r)
        return b, np.sqrt(rho2)

    def derivatives_and_distance(self, r):
        """B (..., 3), dB_i/dr_j (..., 3, 3), d_j d_k B_i (..., 3, 3, 3) and
        the distance (...) to the nearest wire axis, unguarded."""
        r = np.asarray(r, dtype=float)
        kept = self._recall(self._kept_jets, r)
        if kept is None:
            kept = self._jet_pass(r)
            object.__setattr__(self, "_kept_jets", (r.shape, r.tobytes(), kept))
        b, jac, hess, rho2 = kept
        return b.copy(), jac.copy(), hess.copy(), np.sqrt(rho2)

    def derivatives(self, r):
        """B (..., 3), dB_i/dr_j (..., 3, 3) and d_j d_k B_i (..., 3, 3, 3)."""
        return self.derivatives_and_distance(r)[:3]

    def beyond_chip(self, r) -> np.ndarray:
        """Whether each point r (..., 3) lies beyond the chip plane."""
        r = np.asarray(r, dtype=float)
        if self.chip_plane is None:
            return np.zeros(r.shape[:-1], dtype=bool)
        normal, offset = self.chip_plane
        return r @ np.asarray(normal, dtype=float) > offset


@dataclass(frozen=True)
class FieldModel(_KernelField):
    """Wire segments plus a uniform bias field; optionally gravity and a chip plane.

    gravity: acceleration vector (m/s^2) or None (off, the default).
    chip_plane: (normal, offset) such that points with normal . r > offset lie
    beyond the chip surface (escape rays are truncated there).
    """

    segments: tuple[WireSegment, ...] = ()
    bias: tuple[float, float, float] = (0.0, 0.0, 0.0)
    gravity: tuple[float, float, float] | None = None
    chip_plane: tuple[tuple[float, float, float], float] | None = None

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "bias", tuple(float(c) for c in self.bias))
        # the segment ends a, b, unit axes and prefactors as contiguous
        # (S, _BLOCK) blocks, sliced to the width of each pass
        ends = [
            np.array([getattr(seg, name) for seg in segments]).reshape(-1, 3).T
            for name in ("a", "b", "_u")
        ]
        k = np.array([seg._k for seg in segments])
        blocks = [np.repeat(c[..., None], _BLOCK, axis=-1) for c in (*ends, k)]
        object.__setattr__(self, "_blocks", blocks)

    def _components(self, x, y, z):
        """B_x, B_y, B_z at the coordinates x, y, z and the squared distances
        to each axis, a row per segment (None without segments).  An array
        pass gives the coordinates as (S, n) rows, one per segment (one row
        without segments, to whose shape x * 0.0 lifts the bias); jets are
        the n = 1 case, and their (1, N) rows meet the constants' (S, 1)
        columns.

        One kernel pass for all segments; their fields are added to the bias
        one at a time in their order, as a segment-by-segment sum would."""
        if not self.segments:
            return (*(x * 0.0 + c for c in self.bias), None)
        n = x.shape[-1] if isinstance(x, np.ndarray) else 1
        # a partial block's slices are copied: contiguous like the coordinates
        consts = (np.ascontiguousarray(c[..., :n]) for c in self._blocks)
        *db, rho2 = _biot_savart(*consts, x, y, z)
        return (*(_add_in_order(c, d) for c, d in zip(self.bias, db)), rho2)


@dataclass(frozen=True)
class AnalyticIPField(_KernelField):
    """Quadratic Ioffe-Pritchard field, Maxwell-consistent, longitudinal axis = local y.

    B_x = B' x - (B''/2) x y,  B_z = -B' z - (B''/2) y z,
    B_y = B0 + (B''/2) (y^2 - (x^2 + z^2)/2),
    expressed in the frame with columns of `axes` as local basis vectors.
    """

    b0: float
    b_prime: float
    b_double_prime: float = 0.0
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    axes: np.ndarray | None = None

    def __post_init__(self):
        # copies the caller cannot change, so the kept pass cannot go stale
        axes = np.array(np.eye(3) if self.axes is None else self.axes, dtype=float)
        axes.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    def _components(self, x, y, z):
        """B_x, B_y, B_z at the coordinates x, y, z (arrays or jets): the local
        coordinates are (r - center) @ axes, and B = axes @ B_local.  No wires."""
        a = self.axes
        dx, dy, dz = x - self.center[0], y - self.center[1], z - self.center[2]
        lx, ly, lz = (dx * a[0, j] + dy * a[1, j] + dz * a[2, j] for j in range(3))
        bp, c = self.b_prime, 0.5 * self.b_double_prime
        bl = (
            bp * lx - c * lx * ly,
            self.b0 + c * (ly * ly - 0.5 * (lx * lx + lz * lz)),
            -bp * lz - c * ly * lz,
        )
        return (*(bl[0] * a[i, 0] + bl[1] * a[i, 1] + bl[2] * a[i, 2] for i in range(3)), None)


def potential(model, state: SpinState, r, guard: float = SINGULARITY_GUARD) -> np.ndarray:
    """Zeeman potential m_F g_F mu_B |B(r)|, plus gravity if the model carries it."""
    r = np.asarray(r, dtype=float)
    return _potential(model, state, r, model.field(r, guard=guard))


def _potential(model, state: SpinState, r, b) -> np.ndarray:
    """potential() at the points r, where the field is b."""
    u = magnetic_moment(state) * np.linalg.norm(b, axis=-1)
    if model.gravity is not None:
        # summed elementwise, so a point's value does not depend on its batch
        gx, gy, gz = (float(g) for g in model.gravity)
        u = u - state.species.mass * (r[..., 0] * gx + r[..., 1] * gy + r[..., 2] * gz)
    return u


def _square_hessian(b, jac, hess) -> np.ndarray:
    """Hessian of |B|^2 / 2 from B, J and H at one point: J^T J + sum_i B_i H_i."""
    return jac.T @ jac + np.einsum("i,ijk->jk", b, hess)


def _norm_hessian(r0, b, jac, hess) -> np.ndarray:
    """Hessian of |B| at r0 from B, J and H there."""
    b0 = float(np.linalg.norm(b))
    if b0 == 0.0:
        raise NotATrapError(f"the field vanishes at {r0}, where |B| has no Hessian")
    grad = jac.T @ b / b0
    return (_square_hessian(b, jac, hess) - np.outer(grad, grad)) / b0


@dataclass(frozen=True)
class TrapMinimum:
    position: np.ndarray
    b0: float                 # T
    zero_minimum: bool
    grad_norm: float          # |grad |B|| at the returned point, T/m


_EPS = float(np.finfo(float).eps)


def _trust_step(lam, vec, g, radius):
    """The step p minimising the model g.p + p.H p / 2 over |p| <= radius,
    where H = vec diag(lam) vec^T with lam ascending, and whether p is the
    Newton step -H^-1 g inside the region (More and Sorensen, SIAM J. Sci.
    Stat. Comput. 4, 553 (1983), on the eigenbasis)."""
    a = vec.T @ g
    if not a.any():
        return np.zeros_like(g), True
    if lam[0] > 0:
        c = a / lam
        if c @ c <= radius * radius:
            return -(vec @ c), True
    # On the boundary, (H + mu) p = -g for the mu > max(0, -lam[0]) where
    # |p(mu)| = radius.  |p| falls with mu, and 1/|p| - 1/radius is concave:
    # Newton's method on it from mu0, where |p| <= radius, drops below the
    # root and then climbs to it; a step past the pole is halved back.
    lo = max(0.0, -float(lam[0]))
    pole = lam == lam[0]
    if lam[0] <= 0 and not a[pole].any():
        # the hard case: with no component of g along the lowest eigenvectors
        # |p(mu)| has no pole at mu = lo.  If it is within the radius there,
        # no mu > lo reaches the boundary, and the step is p(lo) plus the
        # multiple of the lowest eigenvector that does
        c = np.zeros_like(a)
        np.divide(a, lam + lo, out=c, where=~pole)
        slack = radius * radius - float(c @ c)
        if slack >= 0.0:
            c[0] = math.sqrt(slack)
            return -(vec @ c), False
    mu = lo + float(np.linalg.norm(a)) / radius
    for _ in range(50):
        d = lam + mu
        c = a / d
        length = float(np.linalg.norm(c))
        if abs(length - radius) <= 1e-3 * radius:
            break
        mu_next = mu - (1.0 - length / radius) * length * length / float(c @ (c / d))
        mu = mu_next if mu_next > lo else 0.5 * (lo + mu)
    return -(vec @ c), False


def _plane_step(hess, g, normal, radius):
    """_trust_step for the model g.p + p.H p / 2 restricted to the plane
    normal . p = 0: the step within it, and whether that is the model's
    Newton step there."""
    normal = np.asarray(normal, dtype=float)
    # the eigenvectors of the projector onto the plane with eigenvalue 1
    # span it; an axis normal gives axis vectors, so the step keeps the
    # normal coordinate exactly
    basis = np.linalg.eigh(np.eye(3) - np.outer(normal, normal))[1][:, 1:]
    lam, vec = np.linalg.eigh(basis.T @ hess @ basis)
    step, newton = _trust_step(lam, vec, basis.T @ g, radius)
    return basis @ step, newton


def _newton(model, x):
    """Trust-region Newton search on |B|^2 / 2 from x, one kernel pass per
    trial point; returns the last point with B, J and H there, and why the
    search was last held back: "chip" (a step reached the chip plane),
    "wire" (a trial within the singularity guard of an axis) or None (a
    rise of |B|^2, or nothing)."""
    b, jac, hess, dist = model.derivatives_and_distance(x)
    if dist < SINGULARITY_GUARD:
        raise SingularityError(f"minimum search at {x} m is {dist*1e6:.3g} um from a wire axis")
    radius = 0.25 * float(dist)
    blocked = None
    on_chip = False  # x is where a step cut at the chip plane landed
    for _ in range(100):
        j_norm = float(np.linalg.norm(jac))
        if j_norm == 0.0:
            raise NotATrapError("the field is uniform here, so |B| has no curvature")
        # the length over which the field changes: near a trap minimum the IP
        # length B0 / B', with _ZERO_FIELD_TOL for |B| at a field zero
        scale = max(float(np.linalg.norm(b)), _ZERO_FIELD_TOL) / j_norm
        g = jac.T @ b
        h = _square_hessian(b, jac, hess)
        lam, vec = np.linalg.eigh(h)
        if lam[0] <= 0 and not math.isfinite(radius):
            radius = scale  # no wire sets a radius, and the model has no minimum
        step, newton = _trust_step(lam, vec, g, radius)
        cut = planar = False
        if model.beyond_chip(x + step):
            # a step that would cross the chip plane is cut where it meets
            # it; from the plane, or from where the last cut landed, the
            # model's step within the plane is taken instead
            blocked = "chip"
            normal, offset = model.chip_plane
            rise = float(step @ normal)
            t = (offset - float(x @ normal)) / rise if rise > 0 else 0.0
            if on_chip or not t * float(np.linalg.norm(step)) > _EPS * scale:
                step, newton = _plane_step(h, g, normal, radius)
                planar = True
            else:
                step, newton, cut = t * step, False, True
        length = float(np.linalg.norm(step))
        if not length > _EPS * scale:
            break  # round-off is all that is left
        trial = x + step
        if (cut or planar) and model.beyond_chip(trial):
            radius = 0.25 * length  # the step rounded beyond the plane
            continue
        bt, jt, ht, dist = model.derivatives_and_distance(trial)
        if dist < SINGULARITY_GUARD:
            blocked, radius = "wire", 0.25 * length
            continue
        # the actual and the predicted fall of |B|^2 / 2
        actual = 0.5 * float(b @ b - bt @ bt)
        c = vec.T @ step
        predicted = -float(g @ step + 0.5 * (lam * c) @ c)
        if actual < 0.25 * predicted:
            radius = 0.25 * length
        elif actual > 0.75 * predicted and not newton:
            radius = 2.0 * radius
        # below the resolution of |B|^2 the gradient still shows progress
        if actual < 0.0 and np.linalg.norm(jt.T @ bt) >= np.linalg.norm(g):
            blocked = None
            continue
        x, b, jac, hess, on_chip = trial, bt, jt, ht, cut or planar
        # Newton converges quadratically: after this step the next would be
        # about length^2 / scale, under the round-off eps * scale
        if newton and length * length <= _EPS * scale * scale:
            break
    return x, b, jac, hess, blocked


_BLOCKED = {
    "chip": "the search ended against the chip surface, where its steps were cut",
    "wire": "the search ended against the singularity guard of a wire axis, within which its "
    "last rejected trial lay",
    None: "bracket state",
}


def find_minimum(model, seed, grad_tol: float = 1e-10) -> TrapMinimum:
    """Locate a local minimum of |B| near `seed`.

    Deterministic trust-region Newton search (Nocedal and Wright, Numerical
    Optimization, 2nd ed., ch. 4) on |B|^2 / 2, with the exact gradient
    J^T B and Hessian J^T J + sum_i B_i H_i, which stay smooth through
    zero-field minima.  Each step minimises that quadratic model within a
    radius (More and Sorensen) and costs one kernel pass, which also gives
    the trial point's distance to the wire axes.  The radius starts at a
    quarter of the seed's axis distance (unbounded without wires).  A step
    that would cross the chip plane is cut where it meets the plane; from the
    plane, a step that would cross it again is replaced by the step of the
    quadratic model restricted to the plane, so the search goes on along the
    chip surface while |B| falls there.  A trial point within
    SINGULARITY_GUARD of an axis is rejected, as is one where |B|^2 and
    |grad |B|^2| both rise; the radius is cut to a quarter of the step when
    |B|^2 falls by less than a quarter of the predicted amount, and doubled
    when a step on the boundary gets more than three quarters of it.  The
    search stops when the step is below the round-off length eps l,
    l = max(|B|, 1 nT) / ||J||_F, or right after a Newton step inside the
    region shorter than sqrt(eps) l (the next one, quadratically shorter,
    would be below eps l).

    The seed must be three finite coordinates on the near side of the chip
    plane (ValueError otherwise).  Raises SingularityError if the seed lies
    within SINGULARITY_GUARD of a wire axis, ConvergenceError if
    |grad |B|| > grad_tol at the end (naming the chip surface when steps
    were cut there, as where |B| falls only through the chip, or the wire
    guard when the last rejected trial lay within it),
    SaddlePointError if the Hessian of |B| is indefinite and NotATrapError if
    the field is uniform.
    """
    seed = np.array(seed, dtype=float)
    if seed.shape != (3,) or not np.isfinite(seed).all():
        raise ValueError(f"the minimum search needs a seed of 3 finite coordinates (m), got {seed}")
    if model.beyond_chip(seed):
        raise ValueError(f"the minimum search seed {seed} m lies beyond the chip surface")
    x, b, jac, hess, blocked = _newton(model, seed)
    b0 = float(np.linalg.norm(b))
    zero = b0 < _ZERO_FIELD_TOL
    if zero:
        grad_norm = float("nan")
    else:
        grad_norm = float(np.linalg.norm(jac.T @ b)) / b0
        if grad_norm > grad_tol:
            raise ConvergenceError(
                f"|grad |B|| = {grad_norm:.3e} T/m exceeds tolerance {grad_tol:.1e}; "
                f"{_BLOCKED[blocked]}: position {x}, B0 = {b0:.6e} T"
            )
        eigs = np.linalg.eigvalsh(_norm_hessian(x, b, jac, hess))
        scale = max(abs(eigs).max(), 1e-30)
        if eigs.min() < -1e-6 * scale:
            raise SaddlePointError(
                f"critical point at {x} is not a minimum (|B| Hessian eigenvalues {eigs})"
            )
    return TrapMinimum(position=x, b0=b0, zero_minimum=zero, grad_norm=grad_norm)


@dataclass(frozen=True)
class TrapFrequencies:
    omega: np.ndarray   # rad/s, ascending
    axes: np.ndarray    # columns are the corresponding principal directions


def trap_frequencies(model, state: SpinState, r0) -> TrapFrequencies:
    """Harmonic frequencies sqrt(eigenvalues(Hessian U)/M) at the minimum r0.

    Gravity is linear in r, so the Hessian of U is the magnetic moment times
    the Hessian of |B|, from one evaluation of B, J and H.  Raises
    NotATrapError on a non-positive eigenvalue.
    """
    r0 = np.asarray(r0, dtype=float)
    hess = _norm_hessian(r0, *model.derivatives(r0))
    lam, vec = np.linalg.eigh(magnetic_moment(state) * hess)
    if lam.min() <= 0:
        raise NotATrapError(f"potential Hessian eigenvalues {lam} include a non-positive value")
    omega = np.sqrt(lam / state.species.mass)
    return TrapFrequencies(omega=omega, axes=vec)


_RAY_DIRECTIONS = np.array(
    [
        (i, j, k)
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
        for k in (-1, 0, 1)
        if (i, j, k) != (0, 0, 0)
    ],
    dtype=float,
)
_RAY_DIRECTIONS /= np.linalg.norm(_RAY_DIRECTIONS, axis=1)[:, None]


@dataclass(frozen=True)
class TrapDepthReport:
    depth: float                      # J
    temperature_equiv: float          # depth / k_B, K
    escape_direction: np.ndarray
    excluded_directions: list         # rays still rising at truncation


# the batches of a refinement fan (see trap_depth): the samples within
# _CREST_HALF_WIDTH of the weakest ray's crest, every _COARSE_STRIDE-th, the
# rest; the grid's first batch takes every _COARSE_STRIDE-th sample too
_CREST_HALF_WIDTH = 16
_COARSE_STRIDE = 8
# a ray of n samples is still rising when its maximum is one of its last two
# and its samples from _TAIL_START n on climb by more than _TAIL_RISE of its
# barrier
_TAIL_START = 0.8
_TAIL_RISE = 0.05


def _ray_points(model, r0, directions, s):
    """The points r0 + s d of each ray (rays, samples, 3) and the mask of those
    kept: the samples on the near side of the chip plane, and none of a ray the
    plane truncates within 8 samples (no escape information that way)."""
    pts = np.empty((len(directions), len(s), 3))
    for k in range(3):
        pts[:, :, k] = r0[k] + s * directions[:, k, None]
    keep = ~model.beyond_chip(pts)
    keep[keep.sum(axis=1) < 8] = False
    return pts, keep


def _fill_potential(model, state, pts, mask, u) -> None:
    """Set u[mask] to the potential at pts[mask], inf where a point is within
    the singularity guard of a wire, from one field_and_distance call."""
    flat = pts[mask]
    b, dist = model.field_and_distance(flat)
    u[mask] = np.where(dist >= SINGULARITY_GUARD, _potential(model, state, flat, b), np.inf)


def _finite(u) -> np.ndarray:
    """u with -inf for each value that is not finite."""
    return np.where(np.isfinite(u), u, -np.inf)


def _barriers(u, keep, u0):
    """Barrier above u0 and whether the potential is still rising at
    truncation, for each ray from its kept samples u[keep] in order.

    A ray with no finite sample has barrier inf.  A ray that passes within the
    singularity guard of a wire (an inf sample) is never rising, and has the
    barrier of its highest finite sample if that is positive, else inf: the
    wire is a huge wall.  A ray is still rising when its maximum is one of its
    last two samples and its last fifth climbs by more than 5% of its barrier."""
    n = keep.sum(axis=1)
    v = np.take_along_axis(u, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    valid = np.arange(u.shape[1]) < n[:, None]
    height = np.where(valid, _finite(v), -np.inf).max(axis=1)
    seen = height > -np.inf
    barrier = height - u0
    wired = (valid & np.isinf(v)).any(axis=1)
    rising = np.zeros(len(n), dtype=bool)
    tested = np.flatnonzero(seen & ~wired)
    if len(tested):
        vt, nt, rows = v[tested], n[tested], np.arange(len(tested))
        tail_rise = vt[rows, nt - 1] - vt[rows, (_TAIL_START * nt).astype(int)]
        top = np.where(valid[tested], vt, -np.inf).argmax(axis=1)
        rising[tested] = (top >= nt - 2) & (
            tail_rise > _TAIL_RISE * np.maximum(barrier[tested], 1e-300)
        )
    barrier[~seen | (wired & ~(barrier > 0))] = np.inf
    return barrier, rising


def _weakest(barrier, rising, bound):
    """Index of the first lowest barrier below bound among the rays not
    rising, or None."""
    candidates = np.flatnonzero(~rising & (barrier < bound))
    return candidates[np.argmin(barrier[candidates])] if len(candidates) else None


def _fill_lowest_first(model, state, pts, keep, u, u0, fill, candidates, bound):
    """Each ray's barrier and whether it is still rising (_barriers), once
    the kept samples of the rays that could be the first lowest below bound
    are all filled in u, where -inf marks a sample not yet evaluated.

    The rays `fill` go first, with the candidate ray whose samples so far
    peak lowest (first index on ties); then, in one more batch, the other
    candidates whose highest sample so far lies below the weakest filled
    barrier under bound, or equals it with a lower index.  A ray's highest
    sample bounds its barrier from below, and a point's potential does not
    depend on its batch, so a ray left out could not be the first lowest: it
    gets barrier inf and is not rising."""
    rows = np.arange(len(u))
    low = _finite(u).max(axis=1) - u0
    barrier, rising = np.full(len(u), np.inf), np.zeros(len(u), dtype=bool)
    fill = fill.copy()
    if candidates.any():
        fill[np.flatnonzero(candidates)[np.argmin(low[candidates])]] = True
    done = fill.copy()
    while fill.any():  # twice at most: the bound only falls
        _fill_potential(model, state, pts, keep & fill[:, None] & (u == -np.inf), u)
        barrier[fill], rising[fill] = _barriers(u[fill], keep[fill], u0)
        i = _weakest(barrier, rising, bound)
        lowest, first = (bound, -1) if i is None else (barrier[i], i)
        fill = candidates & ~done & ((low < lowest) | ((low == lowest) & (rows < first)))
        done |= fill
    return barrier, rising


def _grid(model, state, r0, s, u0):
    """The potential samples u (rays, samples) of the 26-ray grid, and each
    ray's barrier and whether it is still rising, from at most three batches.

    The first batch takes every _COARSE_STRIDE-th kept sample of each ray, its
    last two and the one at 0.8 n that the rising test reads.  A ray is then
    settled as not rising when an earlier sample reaches the larger of its
    last two, or when its tail climbs by no more than 5% of that value above
    u0; the others are filled in full, and with them the settled ray whose
    samples so far peak lowest, then the settled rays that could still be the
    first lowest (_fill_lowest_first).  A filled ray gets the barrier and
    rising flag that all its samples give; one left unfilled gets barrier inf
    and is not rising."""
    pts, keep = _ray_points(model, r0, _RAY_DIRECTIONS, s)
    u = np.full(keep.shape, -np.inf)
    n = keep.sum(axis=1)
    rank = np.cumsum(keep, axis=1) - 1
    tail = (_TAIL_START * n).astype(int)
    coarse = keep & (
        (rank % _COARSE_STRIDE == 0) | (rank >= n[:, None] - 2) | (rank == tail[:, None])
    )
    if coarse.any():
        _fill_potential(model, state, pts, coarse, u)

    # a ray is still rising only if its maximum is one of its last two kept
    # samples (v: each ray's kept samples moved to the front, as in _barriers)
    v = np.take_along_axis(u, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    rows = np.arange(len(n))
    top = np.maximum(v[rows, n - 2], v[rows, n - 1])
    earlier = np.where(np.arange(len(s)) < n[:, None] - 2, v, -np.inf).max(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf: a wired or empty ray, never rising
        climbs = v[rows, n - 1] - v[rows, tail] > _TAIL_RISE * np.maximum(top - u0, 1e-300)
    full = (n > 0) & ~(earlier >= top) & climbs
    barrier, rising = _fill_lowest_first(
        model, state, pts, keep, u, u0, full, (n > 0) & ~full, np.inf
    )
    return u, barrier, rising


def trap_depth(
    model,
    state: SpinState,
    r0,
    ray_length: float | None = None,
    refine_rounds: int = 2,
) -> TrapDepthReport:
    """Lowest escape barrier: min over ray directions of (max U along ray - U(r0)).

    26-direction grid plus angular refinement around the weakest ray.  Rays whose
    potential is still rising at truncation have no barrier inside the search
    range and are excluded (reported in the result).  The grid is evaluated
    in at most three batches: every 8th sample of each ray with the samples
    the rising test reads, then in full the rays that may still be rising and
    the ray lowest so far, then the rays that could still be the first lowest
    (branch and bound).  Each 49-ray refinement fan is evaluated in at most
    four batches: the samples near the crest of the weakest ray so far, then
    every 8th sample, each time dropping a ray whose highest sample already
    stands at least the weakest barrier above U(r0); then the rest of the
    surviving ray that peaks lowest, whose barrier, if lower, bounds the
    others; then the rest of the rays that could still be the first lowest.
    A ray's highest sample bounds its barrier from below, and a point's
    potential does not depend on its batch, so the depth, escape direction
    and excluded list are the ones every sample of every ray would give.
    """
    r0 = np.asarray(r0, dtype=float)
    if ray_length is None:
        if model.segments:
            far = max(
                np.linalg.norm(np.asarray(p) - r0)
                for seg in model.segments
                for p in (seg.a, seg.b)
            )
            ray_length = max(5e-3, 10.0 * far)
        else:
            ray_length = 5e-3
    s = np.geomspace(1e-7, ray_length, _DEPTH_SAMPLES)
    u0 = float(potential(model, state, r0, guard=0.0))

    u, barrier, rising = _grid(model, state, r0, s, u0)
    excluded = [d for d, r in zip(_RAY_DIRECTIONS, rising) if r]
    i = _weakest(barrier, rising, np.inf)
    if i is None:
        return TrapDepthReport(np.inf, np.inf, np.zeros(3), excluded)
    best, d = float(barrier[i]), _RAY_DIRECTIONS[i]
    crest = _finite(u[i]).argmax()

    # refine directions around the weakest ray
    index = np.arange(_DEPTH_SAMPLES)
    width = 0.45
    for _ in range(refine_rounds):
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
        fan = np.array(fan)
        pts, keep = _ray_points(model, r0, fan, s)
        u = np.full(keep.shape, -np.inf)
        alive = keep.any(axis=1)
        near = np.abs(index - crest) <= _CREST_HALF_WIDTH
        coarse = ~near & (index % _COARSE_STRIDE == 0)
        for batch in (near, coarse):
            mask = keep & alive[:, None] & batch
            if mask.any():
                _fill_potential(model, state, pts, mask, u)
            alive &= ~(_finite(u).max(axis=1) - u0 >= best)
        barrier, rising = _fill_lowest_first(
            model, state, pts, keep, u, u0, np.zeros_like(alive), alive, best
        )
        i = _weakest(barrier, rising, best)
        if i is not None:
            best, d = float(barrier[i]), fan[i]
            crest = _finite(u[i]).argmax()
        width /= 3.0

    depth = max(best, 0.0)
    return TrapDepthReport(depth, depth / K_B, d, excluded)


@dataclass(frozen=True)
class IPTrapParams:
    """Ioffe-Pritchard parameterization near the minimum.

    Along transverse axis t, |B|(s) = sqrt(B0^2 + B'_t^2 s^2), and b_prime is
    the mean of the two B'_t; along the soft axis |B|(s) = B0 + B'' s^2 / 2.
    """

    b0: float                # T
    b_prime: float           # T/m
    b_double_prime: float    # T/m^2
    center: np.ndarray
    axes: np.ndarray         # columns: [transverse1, transverse2, longitudinal]
    residual_rms: float      # of |B| against the IP form over the transverse windows, T
    transverse_trapping: bool = True


def ip_fit(model, r0) -> IPTrapParams:
    """Ioffe-Pritchard parameters at the minimum r0 in closed form, from B, J
    and H there.

    B0 is |B(r0)| and B'' the soft eigenvalue lambda_s of the Hessian of |B|.
    An IP field has the transverse eigenvalues B'^2 / B0 - B'' / 2, so each
    transverse axis gives B'_t = sqrt(B0 (lambda_t + B'' / 2)), clamped at 0;
    B' is the mean of the two.  The residual is the RMS of |B| against
    sqrt(B0^2 + B'_t^2 s^2) over |s| <= 0.2 B0/B' on each transverse axis, and
    PoorFitWarning is raised if it exceeds 1% of B0.  A zero field or a B'
    below 1e-6 T/m is reported as no transverse trapping.
    """
    r0 = np.asarray(r0, dtype=float)
    b, jac, hess = model.derivatives(r0)
    b0 = float(np.linalg.norm(b))
    if b0 == 0:
        return IPTrapParams(b0, 0.0, 0.0, r0, np.eye(3), 0.0, transverse_trapping=False)
    # eigenvalues ascending: the soft (longitudinal) axis first, then the two transverse
    lam, vec = np.linalg.eigh(_norm_hessian(r0, b, jac, hess))
    bpp = float(lam[0])
    b_primes = np.sqrt(np.maximum(b0 * (lam[1:] + 0.5 * bpp), 0.0))
    b_prime = float(np.mean(b_primes))
    if b_prime < 1e-6:
        return IPTrapParams(b0, 0.0, 0.0, r0, np.eye(3), 0.0, transverse_trapping=False)

    window = 0.2 * b0 / b_prime
    s = np.linspace(-window, window, 41)
    # |B| along the two transverse axes, in one batch
    pts = r0 + s[None, :, None] * vec[:, 1:].T[:, None, :]
    profiles = np.linalg.norm(model.field(pts.reshape(-1, 3)), axis=-1).reshape(2, len(s))
    model_b = np.sqrt(b0**2 + (b_primes[:, None] * s) ** 2)
    residual = math.sqrt(float(np.mean((profiles - model_b) ** 2)))
    if residual > _IP_RESIDUAL_THRESHOLD * b0:
        warnings.warn(
            f"IP residual RMS {residual:.3e} T exceeds {_IP_RESIDUAL_THRESHOLD:.0%} of B0",
            PoorFitWarning,
        )
    return IPTrapParams(
        b0=b0,
        b_prime=b_prime,
        b_double_prime=bpp,
        center=r0,
        axes=vec[:, [1, 2, 0]],
        residual_rms=residual,
    )


def save_geometry(path, model: FieldModel, seed=None, description: str = "") -> None:
    doc = {
        "description": description,
        "segments": [
            {
                "start_um": [p / MICROMETER for p in seg.a],
                "end_um": [p / MICROMETER for p in seg.b],
                "current_a": seg.current,
            }
            for seg in model.segments
        ],
        "bias_gauss": [b / GAUSS for b in model.bias],
    }
    if model.chip_plane is not None:
        normal, offset = model.chip_plane
        doc["chip_plane"] = {"normal": list(normal), "offset_um": offset / MICROMETER}
    if seed is not None:
        doc["seed_um"] = [p / MICROMETER for p in np.asarray(seed, dtype=float)]
    Path(path).write_text(json.dumps(doc, indent=2))


def load_geometry(path) -> tuple[FieldModel, np.ndarray | None]:
    """Read a geometry file; returns (model, suggested minimum seed or None)."""
    doc = json.loads(Path(path).read_text())
    segments = [
        WireSegment(
            tuple(np.asarray(s["start_um"], dtype=float) * MICROMETER),
            tuple(np.asarray(s["end_um"], dtype=float) * MICROMETER),
            float(s["current_a"]),
        )
        for s in doc.get("segments", [])
    ]
    bias = tuple(np.asarray(doc.get("bias_gauss", [0.0, 0.0, 0.0]), dtype=float) * GAUSS)
    chip_plane = None
    if "chip_plane" in doc:
        cp = doc["chip_plane"]
        chip_plane = (tuple(cp["normal"]), float(cp["offset_um"]) * MICROMETER)
    model = FieldModel(segments=segments, bias=bias, chip_plane=chip_plane)
    seed = None
    if "seed_um" in doc:
        seed = np.asarray(doc["seed_um"], dtype=float) * MICROMETER
    return model, seed
