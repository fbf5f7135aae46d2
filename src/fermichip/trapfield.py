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
them).  `field` runs the components on arrays and `derivatives` the class's
closed-form derivatives, which compute B with the same arithmetic: the
derivatives are exact, and a point's B, J and H do not depend on the batch it
is evaluated in.  A `FieldModel` runs the Biot-Savart kernel once for all its
segments and adds them to the bias one at a time in their order.  Arrays go
through it in blocks of `_BLOCK` points, the segment constants and the
coordinates as contiguous (segments, points) arrays; derivatives go in one
pass, the constants as (segments, 1) columns.  The field classes are frozen,
and each keeps its last derivative pass (B, J, H and the axis distance) and
its last array pass (B and the axis distance), whatever their shape, so a
caller asking again at the same points runs no kernel: the frequencies and
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
import os
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
_GRAD_TOL = 1e-10  # T/m, largest |grad |B|| find_minimum accepts at a minimum
_DEPTH_SAMPLES = 500  # samples per escape ray of trap_depth
_REFINE_ROUNDS = 2  # refinement fans of trap_depth around the weakest ray
_IP_RESIDUAL_THRESHOLD = 0.01  # ip_fit warns above this |B| residual RMS / B0


def _coordinates(r: np.ndarray) -> np.ndarray:
    """x, y, z of the points r (..., 3) as (1, N) rows of a contiguous (3, 1, N) array."""
    return np.array(r.reshape(-1, 3).T[:, None, :])


def _add_in_order(start, rows):
    """start + rows[0] + rows[1] + ... over the segment rows (axis -2) of a
    kernel output, added one at a time in their order, as a (..., 1, N) array."""
    total = start + rows[..., :1, :]
    for k in range(1, rows.shape[-2]):
        total += rows[..., k : k + 1, :]
    return total


def _biot_savart(a, b, u, k, x, y, z):
    """The field B = f w of straight segments from a to b with unit axis u
    and prefactor k = mu0 I / 4 pi at the points with coordinates x, y, z:
    f = k g / d, w = u x r, g = pa.u / |pa| - pb.u / |pb|, r = pa - (pa.u) u
    the radial vector and d = max(rho^2, c^2), with |pa| and |pb| clamped at
    c = _CLAMP too.  Returns f, w, the unclamped rho^2 = r.r and the terms
    (pa.u, pb.u, r, |pa|, |pb|, g, d), each w and r component separately.

    The segment constants and the coordinates are (S, N) arrays for S
    segments, or (S, 1) columns against (1, N) rows, so each output has a row
    per segment.  Elementwise arithmetic on the components only (no matmul,
    whose rounding depends on the batch), so a point's field is the same
    whatever else is evaluated with it.
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
    g, d = pa_u / na - pb_u / nb, np.maximum(rho2, _CLAMP**2)
    w = (uy * rz - uz * ry, uz * rx - ux * rz, ux * ry - uy * rx)
    return k * g / d, w, rho2, (pa_u, pb_u, (rx, ry, rz), na, nb, g, d)


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
    wire axes, a row per segment (None without wires), and its closed-form
    derivatives `_derivatives(x, y, z)`: B (3, N), J (3, 3, N), H (3, 3, 3, N)
    and the same distances at (1, N) coordinate rows.  A field has no wire
    segments, no gravity and no chip plane unless its class sets `segments`,
    `gravity` (m/s^2) or `chip_plane`.

    The last derivative pass and the last array pass are kept, each keyed by
    the shape and then the bytes of its points; the fields are frozen
    dataclasses, so they cannot go stale, and copies are handed out, so a
    caller cannot change them.  `_field_pass` and `_derivative_pass` are the
    kernel passes themselves."""

    segments = ()
    gravity = None
    chip_plane = None
    # (shape of the points, their bytes, the pass's outputs) of the last pass
    _kept_derivatives = None
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

    def _derivative_pass(self, r):
        """B (..., 3), J (..., 3, 3), H (..., 3, 3, 3) and the squared
        distance (...) to the nearest wire axis at the points r, from one pass
        of the class's closed-form derivatives."""
        x = _coordinates(r)
        b, jac, hess, rho2 = self._derivatives(*x)
        shape = r.shape[:-1]
        return (
            b.T.reshape(r.shape),
            jac.transpose(2, 0, 1).reshape(shape + (3, 3)),
            hess.transpose(3, 0, 1, 2).reshape(shape + (3, 3, 3)),
            (np.full(x.shape[-1], np.inf) if rho2 is None else rho2.min(axis=0)).reshape(shape),
        )

    @staticmethod
    def _recall(kept, r):
        """The outputs of the kept pass `kept` if it ran at the points r, else None."""
        if kept is not None and kept[0] == r.shape and kept[1] == r.tobytes():
            return kept[2]
        return None

    def _field_and_rho2(self, r):
        r = np.asarray(r, dtype=float)
        kept = self._recall(self._kept_derivatives, r)
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
        kept = self._recall(self._kept_derivatives, r)
        if kept is None:
            kept = self._derivative_pass(r)
            object.__setattr__(self, "_kept_derivatives", (r.shape, r.tobytes(), kept))
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
    beyond the chip surface (escape rays end where they first cross it).
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
        # for the derivatives: (S, 1) columns, W = [u]_x = dw/dr, u u^T and I -
        # u u^T as (3, 3, S, 1), and the bias in the B slot of (B, J, H) rows
        u = blocks[2][..., :1]
        start = np.zeros((3, 13, 1, 1))
        start[:, 0, 0, 0] = self.bias
        object.__setattr__(self, "_columns", [np.array(c[..., :1]) for c in blocks])
        object.__setattr__(self, "_cross", np.cross(ends[2].T[:, None], np.eye(3)).T[..., None])
        object.__setattr__(self, "_uu", u[:, None] * u[None])
        object.__setattr__(self, "_perp", np.eye(3)[:, :, None, None] - self._uu)
        object.__setattr__(self, "_start", start)

    def _components(self, x, y, z):
        """B_x, B_y, B_z at the coordinates x, y, z, given as (S, n) rows, one
        per segment (one row without segments, to whose shape x * 0.0 lifts
        the bias), and the squared distances to each axis, a row per segment
        (None without segments).

        One kernel pass for all segments; their fields are added to the bias
        one at a time in their order, as a segment-by-segment sum would."""
        if not self.segments:
            return (*(x * 0.0 + c for c in self.bias), None)
        # a partial block's slices are copied: contiguous like the coordinates
        consts = (np.ascontiguousarray(c[..., : x.shape[-1]]) for c in self._blocks)
        f, w, rho2, _ = _biot_savart(*consts, x, y, z)
        return (*(_add_in_order(c, f * wi) for c, wi in zip(self.bias, w)), rho2)

    def _derivatives(self, x, y, z):
        """B, J and H of _biot_savart's B = f w, f = k g / d, in closed form;
        B and rho^2 come from _biot_savart on the (S, 1) columns, bit for bit.

        On u, r and P = I - uu (ur = u r^T), for each end p = pa, pb with s =
        p.u, n = |p|, e = 1 / n^3, l = rho^2 / n^2: grad(s / n) = rho^2 e u -
        s e r, Hessian -3 s e l uu + e (2 - 3 l)(ur + ru) + 3 s e rr / n^2 -
        s e P; and with q = -2 / d, grad(1 / d) = q r / d, Hessian (q P +
        2 q^2 rr) / d.  The product rule's q rho^2 e (ur + ru) is taken per
        end as -2 e, and g meets q after the ends' difference, so no
        derivative along a wire is lost to cancellation.  Where n = c, e = 0
        and grad(s / n) = u / c; where d = c^2, q = 0.  J = w grad(f)^T + f W
        and H_ijk = w_i d_j d_k f + W_ij d_k f + W_ik d_j f (W = [u]_x) of
        each segment are added to the bias and to 0 in segment order."""
        if not self.segments:
            zeros = np.zeros((3, 3, 3) + x.shape[1:])
            return np.array(self._components(x, y, z)[:3])[:, 0], zeros[0], zeros, None
        a, b, u, k = self._columns
        f, w, rho2, (s, t, r, na, nb, g, d) = _biot_savart(a, b, u, k, x, y, z)
        w, r = np.array(w), np.array(r)
        s, n = np.array((s, t)), np.array((na, nb))  # both ends at once
        nsq, free = n * n, rho2 > _CLAMP**2
        e, clamped = (n > _CLAMP) / (nsq * n), (n <= _CLAMP) / n
        se, l3, q = s * e, 3.0 * rho2 / nsq, free * (-2.0 / d)
        ends = np.array((rho2 * e + clamped, -se, -se * l3,
                         e * (2.0 * ~free - l3) + q * clamped, 3.0 * se / nsq))
        # along u, r, uu, ur + ru and rr; r with the product rule's g q
        gu, gr, huu, hur, hrr = ends[:, 0] - ends[:, 1]
        gr = gr + g * q
        fu, fr, cuu, cur, crr = (k / d) * np.array((gu, gr, huu, hur, hrr + 2.0 * q * gr))
        grad = fu * u + fr * r
        ur = u[:, None] * r[None]
        hess = (cuu * self._uu + cur * (ur + ur.swapaxes(0, 1)) + crr * (r[:, None] * r[None])
                + fr * self._perp)
        cross = self._cross[:, :, None] * grad[None, None]
        hess = w[:, None, None] * hess[None] + (cross + cross.swapaxes(1, 2))
        rows = np.concatenate(((f * w)[:, None], w[:, None] * grad[None] + f * self._cross,
                               hess.reshape(3, 9, *f.shape)), axis=1)
        total = _add_in_order(self._start, rows)[..., 0, :]
        return total[:, 0], total[:, 1:4], total[:, 4:].reshape(3, 3, 3, -1), rho2


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
        # J at the center, A diag(B', 0, -B') A^T, and the constant H: the
        # local second derivatives -c, 2c, -c on the diagonal of B_y and -c
        # at (x, y) of B_x and (y, z) of B_z, c = B''/2, rotated by A = axes
        c = 0.5 * self.b_double_prime
        local = np.zeros((3, 3, 3))
        local[0, 0, 1] = local[0, 1, 0] = local[2, 1, 2] = local[2, 2, 1] = -c
        local[1] = np.diag([-c, 2.0 * c, -c])
        object.__setattr__(self, "_jac0", axes * [self.b_prime, 0.0, -self.b_prime] @ axes.T)
        object.__setattr__(self, "_hess", np.einsum("ia,jb,kc,abc->ijk", axes, axes, axes, local))

    def _components(self, x, y, z):
        """B_x, B_y, B_z at the coordinates x, y, z: the local coordinates are
        (r - center) @ axes, and B = axes @ B_local.  No wires."""
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

    def _derivatives(self, x, y, z):
        """B from _components; J = A J_local A^T is affine, J(center) + H (r -
        center), summed over x, y, z in order; H is constant."""
        b = np.array(self._components(x, y, z)[:3])[:, 0]
        h = self._hess[..., None]
        jac = self._jac0[..., None] + h[:, :, 0] * (x[0] - self.center[0])
        jac += h[:, :, 1] * (y[0] - self.center[1])
        jac += h[:, :, 2] * (z[0] - self.center[2])
        return b, jac, np.broadcast_to(h, (3, 3, 3, x.shape[-1])), None


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


def _start_point(model, r, search, point):
    """r as an array of 3 finite coordinates on the near side of the chip
    plane, or ValueError naming the search and its starting point."""
    r = np.array(r, dtype=float)
    if r.shape != (3,) or not np.isfinite(r).all():
        raise ValueError(f"the {search} search needs a {point} of 3 finite coordinates (m), got {r}")
    if model.beyond_chip(r):
        raise ValueError(f"the {search} search {point} {r} m lies beyond the chip surface")
    return r


def find_minimum(model, seed) -> TrapMinimum:
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
    |grad |B|| > _GRAD_TOL at the end (naming the chip surface when steps
    were cut there, as where |B| falls only through the chip, or the wire
    guard when the last rejected trial lay within it),
    SaddlePointError if the Hessian of |B| is indefinite and NotATrapError if
    the field is uniform.
    """
    x, b, jac, hess, blocked = _newton(model, _start_point(model, seed, "minimum", "seed"))
    b0 = float(np.linalg.norm(b))
    zero = b0 < _ZERO_FIELD_TOL
    if zero:
        grad_norm = float("nan")
    else:
        grad_norm = float(np.linalg.norm(jac.T @ b)) / b0
        if grad_norm > _GRAD_TOL:
            raise ConvergenceError(
                f"|grad |B|| = {grad_norm:.3e} T/m exceeds tolerance {_GRAD_TOL:.1e}; "
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
    [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1) if i or j or k], dtype=float
)
_RAY_DIRECTIONS /= np.linalg.norm(_RAY_DIRECTIONS, axis=1)[:, None]


@dataclass(frozen=True)
class TrapDepthReport:
    depth: float                      # J
    temperature_equiv: float          # depth / k_B, K
    escape_direction: np.ndarray


# a refinement fan's first batch (see trap_depth): the weakest ray's crest and
# every _FAN_STRIDE-th sample; then every _COARSE_STRIDE-th, the grid's one batch
_FAN_STRIDE = 64
_COARSE_STRIDE = 8
# the tail of the still-rising test (_settled): a ray's samples from
# _TAIL_START n on, and the share of its top above u0 they must climb
_TAIL_START = 0.8
_TAIL_RISE = 0.05


def _ray_lengths(model, r0, directions, s):
    """The number of samples r0 + s d of each ray before it first crosses the
    chip plane, 0 for a ray the plane cuts within 8 samples (no escape
    information that way).  r0 lies on the near side and s ascends, so
    r0 . n + s (d . n) is monotone along a ray and its near samples are a
    prefix."""
    n = np.full(len(directions), len(s))
    if model.chip_plane is not None:
        normal, offset = model.chip_plane
        normal = np.asarray(normal, dtype=float)
        n = (~(r0 @ normal + s * (directions @ normal)[:, None] > offset)).sum(axis=1)
    return np.where(n < 8, 0, n)


def _finite(u) -> np.ndarray:
    """u with -inf for each value that is not finite."""
    return np.where(np.isfinite(u), u, -np.inf)


def _settled(u, n, u0):
    """Whether each ray cannot be still rising, from its samples evaluated in
    u (-inf elsewhere), among them its last two and the one at _TAIL_START n.
    A ray is still rising when no earlier sample reaches the larger of its
    last two and its tail climbs by more than _TAIL_RISE of that value above
    u0; samples not evaluated only lower the earlier ones' maximum, so a ray
    settled on some of its samples is settled on all of them."""
    rows = np.arange(len(n))
    top = np.maximum(u[rows, n - 2], u[rows, n - 1])
    earlier = np.where(np.arange(u.shape[1]) < n[:, None] - 2, u, -np.inf).max(axis=1)
    tail_rise = u[rows, n - 1] - u[rows, (_TAIL_START * n).astype(int)]
    with np.errstate(invalid="ignore"):  # inf - inf: a ray through a wire, never rising
        return (earlier >= top) | ~(tail_rise > _TAIL_RISE * np.maximum(top - u0, 1e-300))


def _barriers(u, n, u0):
    """Barrier above u0 and whether the potential is still rising at the
    ray's end (_settled), for each ray from its samples u[:n], with -inf
    beyond them.

    A ray with no finite sample has barrier inf.  A ray that passes within the
    singularity guard of a wire (an inf sample) is never rising, and has the
    barrier of its highest finite sample if that is positive, else inf: the
    wire is a huge wall."""
    height = _finite(u).max(axis=1)
    seen = height > -np.inf
    barrier = height - u0
    wired = ((np.arange(u.shape[1]) < n[:, None]) & np.isinf(u)).any(axis=1)
    rising = np.zeros(len(n), dtype=bool)
    tested = seen & ~wired
    rising[tested] = ~_settled(u[tested], n[tested], u0)
    barrier[~seen | (wired & ~(barrier > 0))] = np.inf
    return barrier, rising


def _search(model, state, r0, directions, s, u0, batches, bound):
    """The first ray of lowest barrier below bound among the rays from r0
    along `directions` that are not still rising (_settled), as (its index,
    its barrier, the index of its highest finite sample), or None.  Each ray
    takes the samples s until it first crosses the chip plane (_ray_lengths).

    The sample index arrays `batches` are evaluated first, in turn, and a
    running maximum per ray drops a ray once its highest sample so far stands
    bound or more above u0.  Then the surviving ray that peaks lowest (first
    index on ties) is filled in.  If it is still rising it bounds nothing:
    then the others' last two samples and the one at _TAIL_START n are
    evaluated, and the lowest-peaking ray that cannot be rising (_settled) is
    filled in.  Last, every other survivor whose highest sample lies below
    the lowest barrier found under bound, or equals it from a lower index.  A
    ray's highest sample bounds its barrier from below, and a point's
    potential does not depend on its batch, so a ray left out could not be
    the first lowest."""
    n = _ray_lengths(model, r0, directions, s)
    u = np.full((len(directions), len(s)), -np.inf)  # -inf: not evaluated
    high = np.full(len(directions), -np.inf)  # each ray's highest finite sample so far
    barrier, rising = np.full(len(u), np.inf), np.zeros(len(u), dtype=bool)
    rows = np.arange(len(u))

    def evaluate(rays, cols):
        # the samples cols (one row, or a row per ray) of the rays before their
        # ends not evaluated yet, in one field call; inf within a wire's guard
        cols = np.broadcast_to(cols, (len(rays), cols.shape[-1]))
        new = (cols < n[rays, None]) & (u[rays[:, None], cols] == -np.inf)
        i, j = np.broadcast_to(rays[:, None], cols.shape)[new], cols[new]
        if len(i):
            pts = r0 + s[j, None] * directions[i]
            b, dist = model.field_and_distance(pts)
            u[i, j] = np.where(dist >= SINGULARITY_GUARD, _potential(model, state, pts, b), np.inf)
        high[rays] = np.maximum(high[rays], _finite(u[rays[:, None], cols]).max(axis=1))

    def fill_in(fill):
        # every sample of the rays fill; the first lowest filled ray, or None
        rays = np.flatnonzero(fill)
        evaluate(rays, np.arange(len(s)))
        barrier[rays], rising[rays] = _barriers(u[rays], n[rays], u0)
        candidates = np.flatnonzero(~rising & (barrier < bound))
        return candidates[np.argmin(barrier[candidates])] if len(candidates) else None

    alive = n > 0
    for batch in batches:
        evaluate(np.flatnonzero(alive), batch)
        alive &= ~(high - u0 >= bound)
    if not alive.any():
        return None
    done = rows == np.flatnonzero(alive)[np.argmin(high[alive] - u0)]
    i = fill_in(done)
    if rising[done].any():
        rest = np.flatnonzero(alive & ~done)
        evaluate(rest, np.stack([(_TAIL_START * n[rest]).astype(int), n[rest] - 2, n[rest] - 1], 1))
        settled = rest[_settled(u[rest], n[rest], u0) & (high[rest] - u0 < bound)]
        if len(settled):
            done[settled[np.argmin(high[settled])]] = True
            i = fill_in(done)
    lowest, first = (bound, -1) if i is None else (barrier[i], i)
    i = fill_in(alive & ~done & ((high - u0 < lowest) | ((high - u0 == lowest) & (rows < first))))
    return None if i is None else (i, float(barrier[i]), _finite(u[i]).argmax())


def trap_depth(model, state: SpinState, r0) -> TrapDepthReport:
    """Lowest escape barrier: min over ray directions of (max U along ray - U(r0)).

    26-direction grid plus _REFINE_ROUNDS fans of angular refinement around
    the weakest ray.  Each ray takes _DEPTH_SAMPLES geometric steps out to
    max(5 mm, 10 times the distance from r0 to the farthest wire end) and
    ends where it first crosses the chip plane.  A ray whose potential is
    still rising at its end has no barrier inside the search range and never
    sets the depth.  One staged search (_search) serves the grid and each 49-ray
    refinement fan, and gives the depth and escape direction that every
    sample of every ray would.  Its first batches are every 8th sample on the
    grid, and on a fan the crest sample of the weakest ray so far and every
    64th, then the other 8th samples: at most three field passes for the grid
    and four for a fan, two more where the ray that peaks lowest is rising.

    r0 must be three finite coordinates on the near side of the chip plane
    (ValueError otherwise).
    """
    r0 = _start_point(model, r0, "depth", "start")
    ends = [p for seg in model.segments for p in (seg.a, seg.b)]
    far = max((np.linalg.norm(np.asarray(p) - r0) for p in ends), default=0.0)
    s = np.geomspace(1e-7, max(5e-3, 10.0 * far), _DEPTH_SAMPLES)
    u0 = float(potential(model, state, r0, guard=0.0))

    coarse = np.arange(0, _DEPTH_SAMPLES, _COARSE_STRIDE)
    found = _search(model, state, r0, _RAY_DIRECTIONS, s, u0, [coarse], np.inf)
    if found is None:
        return TrapDepthReport(np.inf, np.inf, np.zeros(3))
    i, best, crest = found
    d = _RAY_DIRECTIONS[i]

    # refine directions around the weakest ray
    width = 0.45
    for _ in range(_REFINE_ROUNDS):
        t1 = np.cross(d, [0.0, 0.0, 1.0])
        if np.linalg.norm(t1) < 1e-8:
            t1 = np.cross(d, [0.0, 1.0, 0.0])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(d, t1)
        # 7 x 7 offsets a (outer), b (inner), each normalised as np.linalg.norm does
        steps = np.linspace(-width, width, 7)
        fan = d + np.repeat(steps, 7)[:, None] * t1 + np.tile(steps, 7)[:, None] * t2
        fan /= np.sqrt(fan[:, None, :] @ fan[:, :, None])[:, 0]
        # the crest and every 64th sample, then the other 8th ones; a sorting
        # set operation would add its code pages to a fresh process's memory
        sparse, off_crest = coarse % _FAN_STRIDE == 0, coarse != crest
        batches = [np.append(coarse[sparse & off_crest], crest), coarse[~sparse & off_crest]]
        found = _search(model, state, r0, fan, s, u0, batches, best)
        if found is not None:
            i, best, crest = found
            d = fan[i]
        width /= 3.0

    depth = max(best, 0.0)
    return TrapDepthReport(depth, depth / K_B, d)


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


def load_geometry(name_or_path) -> tuple[FieldModel, np.ndarray | None]:
    """Read a geometry file; returns (model, suggested minimum seed or None).

    name_or_path is a path to an existing file, or else the name of a shipped
    geometry, such as "toronto-z-trap": the file name with "-" for "_" and no
    ".json", looked up in the directory FERMICHIP_DATA_DIR names, or else in
    the package's data.  FileNotFoundError names the file tried last.
    """
    name, path = str(name_or_path), Path(name_or_path)
    if not path.exists():
        data = os.environ.get("FERMICHIP_DATA_DIR") or Path(__file__).parent / "data"
        path = Path(data) / f"{name.replace('-', '_')}.json"
        if not path.exists():
            raise FileNotFoundError(f"geometry {name!r} not found (also tried {path})")
    doc = json.loads(path.read_text())
    try:
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
    except KeyError as exc:
        raise ValueError(f"geometry file {path} has no key {exc}") from None
    model = FieldModel(segments=segments, bias=bias, chip_plane=chip_plane)
    seed = None
    if "seed_um" in doc:
        seed = np.asarray(doc["seed_um"], dtype=float) * MICROMETER
    return model, seed
