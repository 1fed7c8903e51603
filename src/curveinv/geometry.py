"""Numerical differential geometry on the round sphere and the flat torus.

This module evaluates the curve invariants from their integral definitions
and bridges back to the combinatorial machinery, giving an independent
cross-check of the exact formulas:

    I_q = (1/2pi) [ integral k_g q^(ind) ds
                    - sum_d theta_d q^(ind d) (q^(1/2) - q^(-1/2))
                    + integral_S K (q^(ind) - 1)/(q^(1/2) - q^(-1/2)) dA ]

Each model surface, UNIT_SPHERE or FLAT_TORUS, is one object holding every
formula that differs between surfaces.  On the unit sphere K = 1 and each
index level's area is, by Stokes, the integral of a 1-form alpha with
d alpha = dA along the arcs that bound it, plus 4 pi for the level holding
alpha's singular pole.  In I_q each arc's integral of alpha joins its
integral of k_g ds, so agreement with the exact I_q tests their sum per
arc, not the areas.  On the flat torus K = 0 and the area term vanishes.
The index of a point is the curve's winding number around it in a planar
chart of the surface (stereographic on the sphere, the fundamental domain
on the torus), less that around the base point.

Orientation conventions match the diagram module: the left of the curve is
the tangent rotated +90 degrees (outward normal on the sphere), a small
counterclockwise contractible loop has positive geodesic curvature and
interior index +1, and crossing signs come from the frame of the two
visiting tangents in visit order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .diagram import (
    LEFT,
    RIGHT,
    SignedGaussCode,
    _assemble_diagram,
    dart_id,
    index_function,
    subsurface_chi,
    trace_boundary_cycles,
)
from .errors import (
    ChartViolation,
    ChiZero,
    DegenerateTangency,
    NonPositiveQ,
    PointOnCurve,
    TopologyError,
)

TWO_PI = 2.0 * math.pi

PARAM_TOL = 1e-12      # Newton convergence in parameter
POSITION_TOL = 1e-9    # accepted residual distance at a crossing
MERGE_TOL = 1e-8       # duplicate merge radius in parameter space
ANGLE_FLOOR = 1e-4     # genericity floor on crossing angles (rad)
DIAG_GAP = 5e-3        # excluded |t1 - t2| band near the diagonal
PROBE_EPS = 1e-3       # offset of the side probes from the curve
POINT_TOL = 1e-6       # minimum probe distance from the curve


@dataclass(frozen=True)
class NumericConfig:
    """Grid sizes of the numerical path; `halved` gives the coarser grid.
    Nothing reads `meridians`, kept for callers that still pass it."""

    double_grid: int = 400        # coarse grid per parameter for double points
    line_nodes: int = 96          # Gauss-Legendre nodes per smooth arc
    meridians: int = 1024         # read by nothing
    curve_samples: int = 8192     # dense samples for winding numbers and distance tests

    def halved(self):
        """The next-coarsest grid, used for error estimates."""
        return replace(
            self,
            double_grid=max(50, self.double_grid // 2),
            line_nodes=max(8, self.line_nodes // 2),
            curve_samples=max(512, self.curve_samples // 2),
        )


# ---------------------------------------------------------------------------
# model surfaces; each has chi, fixed_probes (the (k, d) points whose index
# area_form reads from ctx.fixed_index) and these methods:
#   orientation(x, u, w)  det of the frame (u, w) in the tangent plane at x
#   project(x)            ambient points onto the surface
#   left_normal(x, u)     the left unit normal of a unit tangent u at x
#   plane(pts, x)         points x in an orientation-preserving planar chart
#                         of the surface minus one point off the samples pts;
#                         that point maps to nan
#   area_form(ctx, x, v)  (alpha(v) at curve points x, index of alpha's
#                         singular point), d alpha = K dA; None where K = 0
#   regions(ctx, cycles)  (genus, cycles) of each extracted face; None: disks


class _UnitSphere:
    """The unit sphere in R^3: K = 1, chi = 2."""

    chi = 2
    fixed_probes = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])   # the poles

    def orientation(self, x, u, w):
        return np.einsum("...i,...i->...", x, np.cross(u, w))

    def project(self, x):
        return x / np.linalg.norm(x, axis=-1, keepdims=True)

    def left_normal(self, x, u):
        return np.cross(self.project(x), u)

    def plane(self, pts, x):
        """Stereographic projection of x from s, the one of +-e1, +-e2, +-e3
        whose nearest sample of pts is farthest, onto axes (e1, e2) with
        (e1, e2, -s) right-handed."""
        cols = pts.T   # one reduction per column: an axis-0 one is far slower
        k = int(np.argmin([c.max() for c in cols] + [-c.min() for c in cols]))
        a, sign = k % 3, 1.0 if k < 3 else -1.0
        e1, e2 = (a + 2) % 3, (a + 1) % 3
        if sign < 0:
            e1, e2 = e2, e1
        d = 1.0 - sign * x[..., a]
        out = np.empty(d.shape + (2,))   # written in place: x may hold every sample
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x[..., e1], d, out=out[..., 0])
            np.divide(x[..., e2], d, out=out[..., 1])
        out[~(d > 0.0)] = np.nan
        return out

    def regions(self, ctx, cycles):
        return None   # every face of a connected curve is a disk

    def singular_pole(self, pts):
        """The sign of z at the pole farther from the points pts."""
        return 1.0 if pts[:, 2].max() + pts[:, 2].min() < 0.0 else -1.0

    def area_form(self, ctx, x, v):
        """alpha = -sigma (x dy - y dx) / (1 - sigma z), with d alpha = dA
        away from the pole (0, 0, sigma) farther from the curve samples."""
        sigma = self.singular_pole(ctx.samples[1])
        alpha = -sigma * (x[:, 0] * v[:, 1] - x[:, 1] * v[:, 0]) / (1.0 - sigma * x[:, 2])
        return alpha, ctx.fixed_index[0 if sigma > 0 else 1]


class _FlatTorus:
    """The flat torus, fundamental domain [0,1)^2: K = 0, chi = 0; curves
    are given by their plane lift."""

    chi = 0
    fixed_probes = np.empty((0, 2))

    def orientation(self, x, u, w):
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    def project(self, x):
        return x

    def left_normal(self, x, u):
        return np.stack([-u[..., 1], u[..., 0]], axis=-1)

    def plane(self, pts, x):
        return x   # the chart holds the curve's plane lift

    def area_form(self, ctx, x, v):
        return None   # K = 0: no area term

    def regions(self, ctx, cycles):
        """Genus 1 for the chart-unbounded face, 0 for the others.  That face
        is on the outward side of the rightmost point of the lift (nothing
        lies to its right)."""
        curve = ctx.curve
        ts, pts = ctx.samples
        if pts[:-1].min() < 1e-6 or pts[:-1].max() > 1 - 1e-6:
            raise ChartViolation("the curve leaves the open fundamental-domain chart")
        t = ts[int(np.argmax(pts[:-1, 0]))]
        for _ in range(40):   # polish the x-extremum: vx(t) = 0
            v = curve.velocity(t)
            a = curve.acceleration(t)
            if abs(a[0]) < 1e-12:
                break
            step = v[0] / a[0]
            t = (t - step) % 1.0
            if abs(step) < 1e-13:
                break
        v = curve.velocity(t)
        # +x points left of the curve iff det(v, +x) = -v_y is positive
        side = LEFT if -v[1] > 0 else RIGHT
        spans = ctx.arc_spans   # the arc holding parameter t
        k = next((k for k, (a0, b0) in enumerate(spans)
                  if a0 <= t < b0 or a0 <= t + 1.0 < b0), len(spans) - 1)
        outer = dart_id(k, side)
        return [(1 if outer in cycle else 0, (c,)) for c, cycle in enumerate(cycles)]


UNIT_SPHERE = _UnitSphere()
FLAT_TORUS = _FlatTorus()


class ParametricCurve:
    """A smooth closed curve, parametrized by t in [0, 1).

    Subclasses provide point/velocity/acceleration as numpy-vectorized
    functions of t; `surface` is UNIT_SPHERE (K = 1) or FLAT_TORUS (K = 0,
    fundamental domain [0,1)^2, curve given by its plane lift).
    """

    surface = None

    def point(self, t):
        raise NotImplementedError

    def velocity(self, t):
        raise NotImplementedError

    def acceleration(self, t):
        raise NotImplementedError


class GreatCircle(ParametricCurve):
    """The equator of the unit sphere, counterclockwise around the north pole."""

    surface = UNIT_SPHERE

    def point(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        return np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=-1)

    def velocity(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        return TWO_PI * np.stack([-np.sin(s), np.cos(s), np.zeros_like(s)], axis=-1)

    def acceleration(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        return -TWO_PI ** 2 * np.stack([np.cos(s), np.sin(s), np.zeros_like(s)], axis=-1)


class LatitudeCircle(ParametricCurve):
    """The circle at colatitude alpha, traversed eastward (counterclockwise
    as seen from the north pole), so its geodesic curvature is cot(alpha)."""

    surface = UNIT_SPHERE

    def __init__(self, alpha):
        if not 0 < alpha < math.pi:
            raise ValueError("colatitude must lie in (0, pi)")
        self.alpha = float(alpha)

    def point(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        sa, ca = math.sin(self.alpha), math.cos(self.alpha)
        return np.stack(
            [sa * np.cos(s), sa * np.sin(s), ca * np.ones_like(s)], axis=-1
        )

    def velocity(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        sa = math.sin(self.alpha)
        return TWO_PI * sa * np.stack(
            [-np.sin(s), np.cos(s), np.zeros_like(s)], axis=-1
        )

    def acceleration(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        sa = math.sin(self.alpha)
        return -TWO_PI ** 2 * sa * np.stack(
            [np.cos(s), np.sin(s), np.zeros_like(s)], axis=-1
        )


class SphereFigureEight(ParametricCurve):
    """A spherical figure-eight with one transverse double point.

    The curve (cos^2 s, cos s sin s, sin s) lies on the unit sphere and
    crosses itself at (1, 0, 0) with perpendicular tangents; a tilt about
    the x-axis moves it off the poles, and a phase offset keeps the double
    point away from the parameter seam t = 0.
    """

    surface = UNIT_SPHERE

    def __init__(self, tilt=0.7, phase=0.35):
        self.tilt = float(tilt)
        self.phase = float(phase)
        c, s = math.cos(self.tilt), math.sin(self.tilt)
        self._rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])

    def _base(self, s, order):
        if order == 0:
            return np.stack(
                [0.5 * (1.0 + np.cos(2 * s)), 0.5 * np.sin(2 * s), np.sin(s)], axis=-1
            )
        if order == 1:
            return np.stack([-np.sin(2 * s), np.cos(2 * s), np.cos(s)], axis=-1)
        return np.stack([-2 * np.cos(2 * s), -2 * np.sin(2 * s), -np.sin(s)], axis=-1)

    def point(self, t):
        s = TWO_PI * np.asarray(t, dtype=float) + self.phase
        return self._base(s, 0) @ self._rot.T

    def velocity(self, t):
        s = TWO_PI * np.asarray(t, dtype=float) + self.phase
        return TWO_PI * self._base(s, 1) @ self._rot.T

    def acceleration(self, t):
        s = TWO_PI * np.asarray(t, dtype=float) + self.phase
        return TWO_PI ** 2 * self._base(s, 2) @ self._rot.T


class TorusCircle(ParametricCurve):
    """A round circle in the flat torus chart, counterclockwise."""

    surface = FLAT_TORUS

    def __init__(self, rho=0.2, center=(0.5, 0.5)):
        if not 0 < rho < 0.5:
            raise ValueError("radius must keep the circle inside the chart")
        self.rho = float(rho)
        self.center = np.asarray(center, dtype=float)

    def point(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        return self.center + self.rho * np.stack([np.cos(s), np.sin(s)], axis=-1)

    def velocity(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        return TWO_PI * self.rho * np.stack([-np.sin(s), np.cos(s)], axis=-1)

    def acceleration(self, t):
        s = TWO_PI * np.asarray(t, dtype=float)
        return -TWO_PI ** 2 * self.rho * np.stack([np.cos(s), np.sin(s)], axis=-1)


@dataclass(frozen=True)
class DoublePointNumeric:
    """A transverse self-intersection: parameters t1 < t2, the common
    position, the unsigned angle theta in (0, pi) between the first tangent
    and the reversed second tangent, and the frame sign of (v1, v2)."""

    t1: float
    t2: float
    position: tuple
    theta: float
    sign: int


def geodesic_curvature(curve: ParametricCurve, t):
    """Signed geodesic curvature at parameter t (scalar or array):
    det(p, p', p'') in the tangent plane at p, over |p'|^3.
    Positive for a small counterclockwise contractible loop.
    """
    v = curve.velocity(t)
    det = curve.surface.orientation(curve.point(t), v, curve.acceleration(t))
    return det / np.linalg.norm(v, axis=-1) ** 3


def find_double_points(curve: ParametricCurve, cfg: NumericConfig = None):
    """Locate all transverse double points.

    A coarse grid over ordered parameter pairs, scanned a block of rows at a
    time, seeds Newton refinement of the stationarity system of the squared
    (lift) distance.  Close pairs whose short way between them cannot hold
    a crossing are dropped; the other seeds are refined, all of them
    together as arrays.  Converged roots with near-zero residual are kept,
    duplicates merged in seed order (_distinct_roots), and crossings with
    angle below the genericity floor rejected.
    """
    cfg = cfg or NumericConfig()
    n = cfg.double_grid
    ts = np.arange(n) / n
    pts = curve.point(ts)
    step = float(np.max(np.linalg.norm(curve.velocity(ts), axis=-1))) / n
    cand = _close_pairs(ts, pts, (4.0 * step) ** 2, DIAG_GAP)
    cand = cand[_may_cross(pts, cand)]
    roots = _refine_double_points(curve, ts[cand[:, 0]], ts[cand[:, 1]])
    keep = _distinct_roots(*roots)
    found = []
    for t1, t2 in zip(*(r[keep].tolist() for r in roots)):
        x = curve.surface.project(curve.point(t1))
        v1 = curve.velocity(t1)
        v2 = curve.velocity(t2)
        cosang = float(
            np.dot(v1, -v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
        )
        theta = math.acos(max(-1.0, min(1.0, cosang)))
        if min(theta, math.pi - theta) < ANGLE_FLOOR:
            raise DegenerateTangency(
                f"branches at t=({t1:.6f},{t2:.6f}) meet at angle {theta:.2e}"
            )
        found.append(
            DoublePointNumeric(
                t1=t1, t2=t2, position=tuple(float(c) for c in x), theta=theta,
                sign=1 if curve.surface.orientation(x, v1, v2) > 0 else -1,
            )
        )
    found.sort(key=lambda d: (d.t1, d.t2))
    return found


def _distinct_roots(t1, t2):
    """Indices, in seed order, of the roots (t1[r], t2[r]) that remain when
    each root in turn is dropped if it lies within MERGE_TOL, cyclically in
    both parameters and in either orientation, of a root kept before it.

    The pairs of roots within MERGE_TOL are found by a searchsorted window
    on the first parameter, among both parameters of every root, each also
    shifted by -1 and +1 across the seam; so the pairs scale with the
    duplicates.  The greedy rule is then settled in rounds over all roots
    at once: an undecided root whose earlier neighbours are all dropped is
    kept, and then an undecided root with a kept earlier neighbour is
    dropped.  Each round settles at least the first undecided root, and
    one round settles roots whose duplicates are all near each other."""
    m = len(t1)
    if not m:   # a curve without crossings: skip the passes below
        return np.empty(0, dtype=np.intp)
    key = np.concatenate([u + s for s in (-1.0, 0.0, 1.0) for u in (t1, t2)])
    order = np.argsort(key, kind="stable")
    key, owner = key[order], order % m
    # twice as wide as the merge radius, so rounding drops no pair
    lo = np.searchsorted(key, t1 - 2 * MERGE_TOL, side="left")
    count = np.searchsorted(key, t1 + 2 * MERGE_TOL, side="right") - lo
    later = np.repeat(np.arange(m), count)
    earlier = owner[np.repeat(lo - np.cumsum(count) + count, count) + np.arange(len(later))]
    pair = earlier < later
    earlier, later = earlier[pair], later[pair]
    a1, a2, b1, b2 = t1[later], t2[later], t1[earlier], t2[earlier]

    def close(a, b):   # cyclically within MERGE_TOL
        d = np.abs(a - b)
        return np.minimum(d, 1.0 - d) < MERGE_TOL

    near = (close(a1, b1) & close(a2, b2)) | (close(a1, b2) & close(a2, b1))
    earlier, later = earlier[near], later[near]
    state = np.zeros(m, dtype=np.int8)   # 0 undecided, 1 kept, -1 dropped
    while not state.all():
        pending = np.bincount(later[state[earlier] >= 0], minlength=m) > 0
        state[(state == 0) & ~pending] = 1
        blocked = np.bincount(later[state[earlier] == 1], minlength=m) > 0
        state[(state == 0) & blocked] = -1
    return np.flatnonzero(state == 1)


_SCAN_ROWS = 32   # _close_pairs compares at most this many grid rows' worth of pairs at once


def _close_pairs(ts, pts, threshold, diag_gap):
    """Index pairs (i, j), i < j, of samples with squared distance below
    threshold and cyclic parameter gap at least diag_gap, in row-major
    order.  Only pairs within the distance along the coordinate of widest
    spread are compared: the samples are sorted by that coordinate, and
    each is paired with the later ones of its searchsorted window, in
    chunks of at most _SCAN_ROWS rows of the pair grid.  The distances are
    summed from one gather per coordinate column, not from gathered rows."""
    n = len(ts)
    key = pts[:, int(np.argmax([np.ptp(c) for c in pts.T]))]
    order = np.argsort(key, kind="stable")
    key = key[order]
    # a little wider than the distance, so rounding drops no pair
    count = np.searchsorted(key, key + 1.000001 * math.sqrt(threshold), side="right")
    count -= np.arange(1, n + 1)   # the later samples of each window
    start = np.cumsum(count) - count
    # a chunk starts every (_SCAN_ROWS - 1)(n - 1) pairs, and its last row
    # adds at most n - 1 more
    chunk = start // max(1, (_SCAN_ROWS - 1) * (n - 1))
    out = [np.empty(0, dtype=np.intp)]
    for rows in np.split(np.arange(n), np.flatnonzero(np.diff(chunk)) + 1):
        c = count[rows]
        row = np.repeat(rows, c)
        col = row + 1 + np.arange(len(row)) - np.repeat(start[rows] - start[rows[0]], c)
        i, j = np.minimum(order[row], order[col]), np.maximum(order[row], order[col])
        d2 = _sum_terms([(np.take(c, i) - np.take(c, j)) ** 2 for c in pts.T])
        sep = np.abs(ts[i] - ts[j])
        keep = (d2 < threshold) & ~(np.minimum(sep, 1.0 - sep) < diag_gap)
        out.append(i[keep] * n + j[keep])
    pair = np.sort(np.concatenate(out))
    return np.stack((pair // n, pair % n), axis=1)


_MONOTONE_SPAN = 16   # longest short way, in grid steps, that _may_cross inspects


def _may_cross(pts, cand):
    """Mask of the seed pairs (i, j) of the cyclic grid pts that can lie
    near a crossing.  A pair fails when the samples along its short way,
    at most _MONOTONE_SPAN steps, run monotonically along their own chord:
    every segment has a positive dot product with the chord.  Such an arc
    is injective, so it holds no crossing.

    The segments of all short ways come from one gather per coordinate of
    (pairs x the longest short way) cells, on the grid's segments extended
    past its seam so that no index wraps; no temporary is larger than that
    gather."""
    n = len(pts)
    i, j = cand[:, 0], cand[:, 1]
    forward = 2 * (j - i) <= n
    span = np.where(forward, j - i, n - (j - i))
    near = np.flatnonzero(span <= _MONOTONE_SPAN)
    start, span = np.where(forward, i, j)[near], span[near]
    end = np.where(forward, j, i)[near]
    width = int(span.max(initial=0))
    steps = start[:, None] + np.arange(width)   # the segments of each short way
    wrap = np.arange(n + width + 1) % n         # the grid, extended past its seam
    terms = [np.take(np.diff(c[wrap]), steps) * (c[end] - c[start])[:, None] for c in pts.T]
    along = (np.arange(width) >= span[:, None]) | (_sum_terms(terms) > 0)
    keep = np.ones(len(cand), dtype=bool)
    keep[near[along.all(axis=1)]] = False
    return keep


def _dot(u, w):
    """Row-wise dot products, each rounded as np.dot rounds a single one."""
    return np.matmul(u[:, None, :], w[:, :, None])[:, 0, 0]


def _sum_terms(terms):
    """The sum of the per-coordinate products of a dot product, rounded as
    np.einsum("md,md->m") rounds it: the even coordinates' sum plus the
    odd ones'."""
    return functools.reduce(np.add, terms[0::2]) + functools.reduce(np.add, terms[1::2])


def _refine_double_points(curve, t1, t2):
    """Newton iteration on the stationarity system of |p(t1) - p(t2)|^2,
    run on all seed pairs at once.

    A seed leaves the batch where a lone iteration would stop: rejected at
    a near-singular Jacobian, converged once both steps fall below
    PARAM_TOL, rejected after 60 steps.  Returns arrays (t1, t2) of the
    converged roots, wrapped into [0, 1) with t1 <= t2, at least DIAG_GAP
    from the diagonal and with residual distance within POSITION_TOL, in
    seed order."""
    t1 = np.array(t1, dtype=float)
    t2 = np.array(t2, dtype=float)
    live = np.arange(len(t1))
    converged = np.zeros(len(t1), dtype=bool)
    for _ in range(60):
        if not live.size:
            break
        s1, s2 = t1[live], t2[live]
        v1, v2 = curve.velocity(s1), curve.velocity(s2)
        d = curve.point(s1) - curve.point(s2)
        f1 = _dot(d, v1)
        f2 = _dot(d, v2)
        j11 = _dot(v1, v1) + _dot(d, curve.acceleration(s1))
        j21 = _dot(v1, v2)
        j12 = -j21
        j22 = -_dot(v2, v2) + _dot(d, curve.acceleration(s2))
        det = j11 * j22 - j12 * j21
        with np.errstate(divide="ignore", invalid="ignore"):
            dt1 = (f1 * j22 - f2 * j12) / det
            dt2 = (j11 * f2 - j21 * f1) / det
        ok = ~(np.abs(det) < 1e-14)   # near-singular Jacobian: rejected
        live, dt1, dt2 = live[ok], dt1[ok], dt2[ok]
        t1[live] -= dt1
        t2[live] -= dt2
        done = (np.abs(dt1) < PARAM_TOL) & (np.abs(dt2) < PARAM_TOL)
        converged[live[done]] = True
        live = live[~done]
    t1 = t1[converged] % 1.0
    t2 = t2[converged] % 1.0
    t1, t2 = np.minimum(t1, t2), np.maximum(t1, t2)
    sep = t2 - t1
    keep = ~(np.minimum(sep, 1.0 - sep) < DIAG_GAP)
    t1, t2 = t1[keep], t2[keep]
    gap = curve.point(t1) - curve.point(t2)
    keep = ~(np.sqrt(_dot(gap, gap)) > POSITION_TOL)
    return t1[keep], t2[keep]


def _curve_samples(curve, cfg):
    """The curve at cfg.curve_samples + 1 evenly spaced parameters
    t = 0, ..., 1, for distance tests, winding numbers and the choice of
    the sphere's singular pole."""
    ts = np.arange(cfg.curve_samples + 1) / cfg.curve_samples
    return ts, curve.point(ts)


def _min_distance_to_curve(curve, samples, points):
    """Distance of each of the points (k, d) to the curve.

    The nearest sample gives an upper bound.  Where a branch of the curve
    comes within one sample spacing of a point, the branch's nearest sample
    seeds Newton's method on (p(t) - x).p'(t) = 0, for all such seeds
    together, and the distance to the curve point reached replaces the
    bound when smaller.  The samples are scanned one point at a time, on
    contiguous copies of their coordinate columns: no temporary is larger
    than one column of samples, besides the seeds."""
    ts, pts = samples
    gap = pts[1:] - pts[:-1]
    spacing2 = float(np.max(np.einsum("ij,ij->i", gap, gap)))
    del gap   # before the column copies: at --grid 65536 each is 12 MB
    cols = [np.ascontiguousarray(c) for c in pts[:-1].T]   # t = 1 repeats t = 0
    best = np.empty(len(points))
    node, seed = [], []
    for k, x in enumerate(points):
        d2 = sum((c - xc) ** 2 for c, xc in zip(cols, x))
        best[k] = np.min(d2)
        if best[k] < spacing2:
            # the nearest sample of each branch: a cyclic local minimum
            i = np.flatnonzero(d2 < spacing2)
            i = i[(d2[i] <= d2[i - 1]) & (d2[i] <= d2[(i + 1) % len(d2)])]
            node.extend([k] * len(i))
            seed.extend(ts[i])
    if node:
        x, t = np.asarray(points, dtype=float)[node], np.array(seed)
        for _ in range(8):
            p, v = curve.point(t) - x, curve.velocity(t)
            step = _dot(p, v) / (_dot(v, v) + _dot(p, curve.acceleration(t)))
            t = t - step
            if not np.any(np.abs(step) > PARAM_TOL):
                break
        p = curve.point(t) - x
        np.fmin.at(best, node, _dot(p, p))
    return np.sqrt(best)


def point_index(curve: ParametricCurve, b, p, cfg: NumericConfig = None, samples=None):
    """Signed number of transversal crossings of a path from b to p with the
    curve: +1 whenever the path crosses from the curve's right to its left.
    Given a (K, d) stack of probe points p, returns the list of K indices.

    For a homologically trivial curve this is w(p) - w(b), w the curve's
    winding number in the surface's planar chart (curve.surface.plane), as
    in the plane: the path crosses from right to left exactly where w
    steps up.  w is read from the closed polygon of the curve's dense
    samples, so a point closer to the curve than a chord's sagitta (about
    h^2 kappa / 8 for sample spacing h and curvature kappa) can be
    misjudged; a point within POINT_TOL of the curve raises PointOnCurve.
    `samples` is the curve's dense sampling as a NumericContext holds it;
    it is computed when not given.
    """
    samples = samples if samples is not None else _curve_samples(curve, cfg or NumericConfig())
    pts = samples[1]
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    nodes = np.vstack((b, p.reshape(-1, len(b))))   # node 0 is b, node k probe k
    near = _min_distance_to_curve(curve, samples, nodes) < POINT_TOL
    if near.any():
        k = int(np.argmax(near))
        raise PointOnCurve(
            f"{'probe' if k else 'base'} point {tuple(nodes[k].tolist())} lies on the curve")
    n = len(pts) - 1   # t = 1 repeats t = 0
    chart = curve.surface.plane(pts, np.concatenate((pts[:-1], nodes)))
    w = _winding(chart[:n], chart[n:])
    index = (w[1:] - w[0]).tolist()
    return index if p.ndim > 1 else index[0]


_CHUNK_CELLS = 1 << 18   # most (points x vertices) cells _winding marks at once


def _winding(polygon, points):
    """The winding number of the closed polygon (its vertices in order, the
    last joined to the first) around each of the (k, 2) points: the signed
    count of its edges that cross the point's rightward ray, +1 upward.  An
    edge holds its lower end but not its upper one, so a vertex on a ray is
    counted once; a nan point is outside.

    Only an edge with one end on or below the point's line and the other
    above it can count, so the orientation test runs on those edges alone;
    an edge with a nan end fails it both ways.  The edges are marked for a
    block of points at a time: no temporary holds more than _CHUNK_CELLS
    (points x vertices) cells, and the rest scale with the polygon or with
    the edges marked."""
    x, y = (np.append(c, c[0]) for c in polygon.T)   # closed: vertex n is vertex 0
    rows = max(1, _CHUNK_CELLS // len(y))
    out = np.zeros(len(points), dtype=int)
    for s in range(0, len(points), rows):
        block = points[s:s + rows]
        below = y <= block[:, 1, None]
        k, e = np.nonzero(below[:, :-1] != below[:, 1:])   # point k straddled by edge e
        up = below[k, e]
        px, py = block[k].T
        x0, y0 = x[e], y[e]
        # > 0: the point is left of the edge
        left = (x[e + 1] - x0) * (py - y0) - (y[e + 1] - y0) * (px - x0)
        out[s:s + rows] = (np.bincount(k[up & (left > 0)], minlength=len(block))
                           - np.bincount(k[~up & (left < 0)], minlength=len(block)))
    return out


# ---------------------------------------------------------------------------
# cached numeric context: arcs, their line integrals, and the level areas


@functools.cache
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


class NumericContext:
    """All quadrature data for one (curve, base point, config).

    Samples the curve once (`samples`, shared by every winding number and
    distance test) and caches the double points, the arc table (per smooth
    arc: its index and its integrals of k_g ds and of the area form, all on
    one (arcs x line_nodes) array of Gauss-Legendre nodes) and the area of
    every index level, folded from the latter; every invariant is then a
    cheap weighted sum over these tables.  The double points come from one
    batched Newton refinement of all seeds, and every index from one
    point_index call: the winding numbers, in the surface's planar chart,
    of the side probes of all arcs and of the surface's fixed probes.
    """

    def __init__(self, curve: ParametricCurve, base_point, cfg: NumericConfig = None):
        self.curve = curve
        self.cfg = cfg or NumericConfig()
        self.base_point = np.asarray(base_point, dtype=float)
        self.samples = _curve_samples(curve, self.cfg)
        self.double_points = find_double_points(curve, self.cfg)
        self._build_arcs()

    # -- smooth arcs between crossing parameters

    def _build_arcs(self):
        events = sorted(
            [(d.t1, k) for k, d in enumerate(self.double_points)]
            + [(d.t2, k) for k, d in enumerate(self.double_points)]
        )
        self.events = events
        curve, cfg = self.curve, self.cfg
        bounds = [t for t, _ in events] or [0.0]
        spans = list(zip(bounds, bounds[1:] + [bounds[0] + 1.0]))
        self._index_probes(spans)
        nodes, weights = _leggauss(cfg.line_nodes)
        a, b = np.array(spans).T
        half = 0.5 * (b - a)
        ts = ((half[:, None] * nodes + 0.5 * (a + b)[:, None]) % 1.0).ravel()
        x, v = curve.point(ts), curve.velocity(ts)
        kg = geodesic_curvature(curve, ts) * np.linalg.norm(v, axis=-1)

        def integral(f):   # over each arc, of f at its nodes
            return half * np.sum(weights * f.reshape(len(spans), -1), axis=1)

        self.arc_spans = spans
        self.arc_kg = integral(kg).tolist()
        form = curve.surface.area_form(self, x, v)
        self.level_area = {} if form is None else self._fold_levels(integral(form[0]), form[1])
        # crossing index = mean of the four incident arc indices v + 1/2:
        # the arcs after and before each of the crossing's two events
        incident = [0] * len(self.double_points)
        for pos, (_t, k) in enumerate(events):
            incident[k] += self.arc_index[pos] + self.arc_index[pos - 1]
        self.crossing_index = []
        for k, total in enumerate(incident):
            if (total + 2) % 4:
                raise TopologyError(
                    f"double point {k} has non-integer index {(total + 2) / 4}"
                )
            self.crossing_index.append((total + 2) // 4)

    def _fold_levels(self, alpha, pole_index):
        """Each level's area by Stokes, from the area form's integral alpha
        along each arc: +alpha for the level v + 1 on its left, -alpha for
        v on its right, and 2 pi chi (K = 1) for the level of the form's
        singular point.  A level is a non-empty open set, so an area that
        is not positive means that the arc indices are wrong."""
        area = dict.fromkeys(sorted({pole_index, *self.arc_index,
                                     *(v + 1 for v in self.arc_index)}), 0.0)
        for v, a in zip(self.arc_index, alpha.tolist()):
            area[v + 1] += a
            area[v] -= a
        area[pole_index] += TWO_PI * self.curve.surface.chi
        for i, a in area.items():
            if not a > 0.0:
                raise TopologyError(f"index level {i} has area {a}")
        return area

    def _index_probes(self, spans):
        """One point_index call for the side probes at the middle of every
        arc and the surface's fixed probes: sets arc_index and
        fixed_index."""
        t = 0.5 * np.sum(spans, axis=1) % 1.0
        n = len(t)
        probes = np.concatenate((*self._side_probes(t), self.curve.surface.fixed_probes))
        ind = point_index(self.curve, self.base_point, probes, self.cfg, samples=self.samples)
        for tk, il, ir in zip(t, ind[:n], ind[n:2 * n]):
            if il != ir + 1:
                raise TopologyError(
                    f"side probes at t={tk:.6f} give indices {il}/{ir}, expected a +1 jump"
                )
        self.arc_index = ind[n:2 * n]   # the lower side v of index v + 1/2
        self.fixed_index = ind[2 * n:]

    def _side_probes(self, t):
        """The points PROBE_EPS left and right of the curve at t (one
        parameter, or an array of them)."""
        surface = self.curve.surface
        x = self.curve.point(t)
        v = self.curve.velocity(t)
        left = surface.left_normal(x, v / np.linalg.norm(v, axis=-1, keepdims=True))
        return (surface.project(x + PROBE_EPS * left),
                surface.project(x - PROBE_EPS * left))

    # -- weighted sums over the cached tables

    def line_integral(self, weight):
        """sum over arcs of weight(arc index) * integral of k_g ds."""
        return sum(w * weight(v + 0.5) for v, w in zip(self.arc_index, self.arc_kg))

    def area_integral(self, weight):
        """sum over index levels of weight(level) * area (zero on the torus)."""
        return sum(a * weight(i) for i, a in self.level_area.items())

    def crossing_sum(self, weight):
        """sum over double points of weight(theta, crossing index)."""
        return sum(
            weight(d.theta, i)
            for d, i in zip(self.double_points, self.crossing_index)
        )


def numeric_iq(curve, base_point, q_values, cfg: NumericConfig = None, context=None):
    """I_q from the integral definition, for each q in q_values (q > 0).

    q = 1 is evaluated by the limit formula (the Gauss-Bonnet form of the
    rotation number) rather than the divided difference.
    """
    ctx = context or NumericContext(curve, base_point, cfg)
    out = []
    for q in q_values:
        if q <= 0:
            raise NonPositiveQ(f"q must be positive, got {q}")
        if q == 1:
            out.append(numeric_i1(curve, base_point, cfg, context=ctx))
            continue
        rq = math.sqrt(q)
        denom = rq - 1.0 / rq
        total = ctx.line_integral(lambda i: q ** i)
        total -= ctx.crossing_sum(lambda theta, i: theta * q ** i * denom)
        total += ctx.area_integral(lambda i: (q ** i - 1.0) / denom)
        out.append(total / TWO_PI)
    return out


def numeric_i1(curve, base_point, cfg: NumericConfig = None, context=None):
    """The rotation number as (1/2pi)(integral k_g ds + integral K ind dA)."""
    ctx = context or NumericContext(curve, base_point, cfg)
    return (ctx.line_integral(lambda i: 1.0) + ctx.area_integral(lambda i: i)) / TWO_PI


def numeric_jplus(curve, base_point, cfg: NumericConfig = None, context=None):
    """J+ from its integral formula (chi(S) != 0 only)."""
    chi = curve.surface.chi
    if chi == 0:
        raise ChiZero("the J+ integral formula needs chi(S) != 0")
    ctx = context or NumericContext(curve, base_point, cfg)
    gb = ctx.line_integral(lambda i: 1.0) + ctx.area_integral(lambda i: i)
    middle = (
        ctx.line_integral(lambda i: i)
        - ctx.crossing_sum(lambda theta, i: theta)
        + 0.5 * ctx.area_integral(lambda i: i * i)
    )
    return gb * gb / (4.0 * math.pi ** 2 * chi) - middle / math.pi + 1.0


def gauss_bonnet_region_check(curve, base_point, j, cfg: NumericConfig = None,
                              context=None, extracted=None):
    """Both sides of the Gauss-Bonnet identity for the subsurface above j.

    lhs = 2 pi chi(S_j) from the extracted combinatorial diagram; rhs is the
    numeric total curvature of that subsurface: its area integral of K, the
    geodesic curvature along its boundary arcs (index = j), plus the corner
    turning angles (pi - theta) at double points of index j -+ 1/2.
    """
    ctx = context or NumericContext(curve, base_point, cfg)
    j = Fraction(j)
    if extracted is None:
        extracted = extract_diagram(curve, base_point, cfg, context=ctx)
    diagram, base = extracted
    ind = index_function(diagram, base)
    lhs = TWO_PI * subsurface_chi(diagram, ind, j)
    rhs = ctx.area_integral(lambda i: 1.0 if i > j else 0.0)
    rhs += sum(w for v, w in zip(ctx.arc_index, ctx.arc_kg) if 2 * v + 1 == 2 * j)
    half = Fraction(1, 2)
    rhs += ctx.crossing_sum(lambda theta, i: (math.pi - theta) if i == j - half else 0.0)
    rhs -= ctx.crossing_sum(lambda theta, i: (math.pi - theta) if i == j + half else 0.0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# bridge to the combinatorial path


def extract_diagram(curve, base_point, cfg: NumericConfig = None, context=None):
    """Build the signed Gauss code diagram of a parametric curve.

    Crossing signs come from the tangent frames in visit order.  The code
    is traced once, and the surface assigns the genus of each face: on the
    sphere every complement region of a connected curve is a disk, on the
    torus the unique chart-unbounded face receives genus 1.  The base
    region is identified by matching the index just left of the first arc
    against the combinatorial index function.  A given context supplies
    the samples and the config.  Returns (diagram, base region id).
    """
    ctx = context or NumericContext(curve, base_point, cfg)
    code = SignedGaussCode(tuple(
        (k + 1, ctx.double_points[k].sign) for _t, k in ctx.events
    ))
    cycles = trace_boundary_cycles(code)
    diagram = _assemble_diagram(code, cycles, curve.surface.regions(ctx, cycles),
                                curve.surface.chi, 0)
    # the left side probe of arc 0 has index arc_index[0] + 1
    ind0 = index_function(diagram, 0)
    left_region = diagram.dart_region[dart_id(0, LEFT)]
    want = ind0.values[left_region] - (ctx.arc_index[0] + 1)
    base = next((r for r in range(len(diagram.regions)) if ind0.values[r] == want), None)
    if base is None:
        raise TopologyError("no region matches the base point's index offset")
    return replace(diagram, base_region=base), base
