"""Numerical differential geometry on the round sphere and the flat torus.

This module evaluates the curve invariants from their integral definitions
and bridges back to the combinatorial machinery, giving an independent
cross-check of the exact formulas:

    I_q = (1/2pi) [ integral k_g q^(ind) ds
                    - sum_d theta_d q^(ind d) (q^(1/2) - q^(-1/2))
                    + integral_S K (q^(ind) - 1)/(q^(1/2) - q^(-1/2)) dA ]

On the unit sphere K = 1 and the area term is computed by a meridian sweep:
along each meridian the index is advanced at curve crossings, and the exact
band areas between consecutive crossing colatitudes are accumulated per
index level.  On the flat torus K = 0 and the area term vanishes.

Orientation conventions match the diagram module: the left of the curve is
the tangent rotated +90 degrees (outward normal on the sphere), a small
counterclockwise contractible loop has positive geodesic curvature and
interior index +1, and crossing signs come from the frame of the two
visiting tangents in visit order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .diagram import LEFT, RIGHT, build_diagram, dart_id, index_function, subsurface_chi
from .errors import (
    ChartViolation,
    ChiZero,
    DegenerateTangency,
    NonPositiveQ,
    NotSphere,
    PointOnCurve,
    TopologyError,
)

UNIT_SPHERE = "unit_sphere"
FLAT_TORUS = "flat_torus"

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NumericConfig:
    """Tunable grids and tolerances for the numerical path."""

    double_grid: int = 400        # coarse grid per parameter for double points
    param_tol: float = 1e-12      # Newton convergence in parameter
    position_tol: float = 1e-9    # accepted residual distance at a crossing
    merge_tol: float = 1e-8       # duplicate merge radius in parameter space
    angle_floor: float = 1e-4     # genericity floor on crossing angles (rad)
    diag_gap: float = 5e-3        # excluded |t1 - t2| band near the diagonal
    line_nodes: int = 96          # Gauss-Legendre nodes per smooth arc
    meridians: int = 1024         # azimuth resolution of the area sweep
    curve_samples: int = 8192     # dense samples for sweeps and ray tests
    probe_eps: float = 1e-3       # offset of the side probes from the curve
    point_tol: float = 1e-6       # minimum probe distance from the curve

    def halved(self):
        """The next-coarsest grid, used for error estimates."""
        return replace(
            self,
            double_grid=max(50, self.double_grid // 2),
            line_nodes=max(8, self.line_nodes // 2),
            meridians=max(64, self.meridians // 2),
            curve_samples=max(512, self.curve_samples // 2),
        )


class ParametricCurve:
    """A smooth closed curve, parametrized by t in [0, 1).

    Subclasses provide point/velocity/acceleration as numpy-vectorized
    functions of t; `surface` is "unit_sphere" (K = 1) or "flat_torus"
    (K = 0, fundamental domain [0,1)^2, curve given by its plane lift).
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
    """Signed geodesic curvature at parameter t (scalar or array).

    Sphere: det(p, p', p'') / |p'|^3.  Torus lift: det(p', p'') / |p'|^3.
    Positive for a small counterclockwise contractible loop.
    """
    v = curve.velocity(t)
    a = curve.acceleration(t)
    if curve.surface == UNIT_SPHERE:
        p = curve.point(t)
        det = np.einsum("...i,...i->...", p, np.cross(v, a))
    else:
        det = v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]
    speed = np.linalg.norm(v, axis=-1)
    return det / speed ** 3


def _frame_sign(curve, x, v1, v2):
    """Sign of the frame (v1, v2) in the oriented tangent plane at x."""
    if curve.surface == UNIT_SPHERE:
        det = float(np.dot(x, np.cross(v1, v2)))
    else:
        det = float(v1[0] * v2[1] - v1[1] * v2[0])
    return 1 if det > 0 else -1


def find_double_points(curve: ParametricCurve, cfg: NumericConfig = None):
    """Locate all transverse double points.

    A coarse grid over ordered parameter pairs seeds Newton refinement of
    the stationarity system of the squared (lift) distance; converged roots
    with near-zero residual are kept, duplicates merged, and crossings with
    angle below the genericity floor rejected.
    """
    cfg = cfg or NumericConfig()
    n = cfg.double_grid
    ts = np.arange(n) / n
    pts = curve.point(ts)
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    gap = np.minimum(
        np.abs(ts[:, None] - ts[None, :]), 1.0 - np.abs(ts[:, None] - ts[None, :])
    )
    d2[gap < cfg.diag_gap] = np.inf
    d2[np.tril_indices(n)] = np.inf

    step = float(np.max(np.linalg.norm(curve.velocity(ts), axis=-1))) / n
    threshold = (4.0 * step) ** 2
    cand = np.argwhere(d2 < threshold)
    found = []
    for i, j in cand:
        root = _refine_double_point(curve, ts[i], ts[j], cfg)
        if root is None:
            continue
        t1, t2 = root

        def _cyc(a, b):
            return min(abs(a - b), 1.0 - abs(a - b))

        if any(
            (_cyc(t1, a) < cfg.merge_tol and _cyc(t2, b) < cfg.merge_tol)
            or (_cyc(t1, b) < cfg.merge_tol and _cyc(t2, a) < cfg.merge_tol)
            for a, b in ((f.t1, f.t2) for f in found)
        ):
            continue
        x1 = curve.point(t1)
        v1 = curve.velocity(t1)
        v2 = curve.velocity(t2)
        x = x1
        if curve.surface == UNIT_SPHERE:
            x = x / np.linalg.norm(x)
        cosang = float(
            np.dot(v1, -v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
        )
        theta = math.acos(max(-1.0, min(1.0, cosang)))
        if min(theta, math.pi - theta) < cfg.angle_floor:
            raise DegenerateTangency(
                f"branches at t=({t1:.6f},{t2:.6f}) meet at angle {theta:.2e}"
            )
        found.append(
            DoublePointNumeric(
                t1=t1, t2=t2, position=tuple(float(c) for c in x),
                theta=theta, sign=_frame_sign(curve, x, v1, v2),
            )
        )
    found.sort(key=lambda d: (d.t1, d.t2))
    return found


def _refine_double_point(curve, t1, t2, cfg):
    """Newton iteration on the stationarity system of |p(t1) - p(t2)|^2."""
    for _ in range(60):
        p1, p2 = curve.point(t1), curve.point(t2)
        v1, v2 = curve.velocity(t1), curve.velocity(t2)
        a1, a2 = curve.acceleration(t1), curve.acceleration(t2)
        d = p1 - p2
        f1 = float(np.dot(d, v1))
        f2 = float(np.dot(d, v2))
        j11 = float(np.dot(v1, v1) + np.dot(d, a1))
        j12 = float(-np.dot(v2, v1))
        j21 = float(np.dot(v1, v2))
        j22 = float(-np.dot(v2, v2) + np.dot(d, a2))
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            return None
        dt1 = (f1 * j22 - f2 * j12) / det
        dt2 = (j11 * f2 - j21 * f1) / det
        t1 -= dt1
        t2 -= dt2
        if abs(dt1) < cfg.param_tol and abs(dt2) < cfg.param_tol:
            break
    else:
        return None
    t1 %= 1.0
    t2 %= 1.0
    if t1 > t2:
        t1, t2 = t2, t1
    sep = min(t2 - t1, 1.0 - (t2 - t1))
    if sep < cfg.diag_gap:
        return None
    residual = float(np.linalg.norm(curve.point(t1) - curve.point(t2)))
    if residual > cfg.position_tol:
        return None
    return t1, t2


def _min_distance_to_curve(curve, p, cfg):
    ts = np.arange(cfg.curve_samples) / cfg.curve_samples
    pts = curve.point(ts)
    return float(np.min(np.linalg.norm(pts - np.asarray(p, dtype=float), axis=-1)))


def _normalize(v):
    return v / np.linalg.norm(v)


def point_index(curve: ParametricCurve, b, p, cfg: NumericConfig = None):
    """Signed number of transversal crossings of a path from b to p with the
    curve: +1 whenever the path crosses from the curve's right to its left.

    The path is a great-circle arc on the sphere and a straight chart
    segment on the torus; if a crossing is too close to an endpoint or too
    tangential, the path is re-routed through a deterministic sequence of
    waypoints (path independence is guaranteed by homological triviality).
    """
    cfg = cfg or NumericConfig()
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    for point, name in ((b, "base point"), (p, "probe point")):
        if _min_distance_to_curve(curve, point, cfg) < cfg.point_tol:
            raise PointOnCurve(f"{name} {tuple(point)} lies on the curve")
    if np.linalg.norm(b - p) < 1e-14:
        return 0
    total = _segment_index(curve, b, p, cfg)
    if total is not None:
        return total
    waypoints = _waypoint_candidates(curve, b, p, cfg)
    for w in waypoints:
        first = _segment_index(curve, b, w, cfg)
        second = _segment_index(curve, w, p, cfg)
        if first is not None and second is not None:
            return first + second
    raise PointOnCurve("could not find a transversal path between the points")


def _waypoint_candidates(curve, b, p, cfg):
    rng = np.random.default_rng(20240615)
    out = []
    for _ in range(12):
        if curve.surface == UNIT_SPHERE:
            w = _normalize(rng.normal(size=3))
        else:
            w = rng.uniform(0.02, 0.98, size=2)
        if _min_distance_to_curve(curve, w, cfg) > 5 * cfg.point_tol:
            out.append(w)
    return out


def _segment_index(curve, b, p, cfg):
    """Signed crossing count along one geodesic leg; None if degenerate."""
    ts = np.arange(cfg.curve_samples + 1) / cfg.curve_samples
    pts = curve.point(ts)
    if curve.surface == UNIT_SPHERE:
        m = np.cross(b, p)
        norm = np.linalg.norm(m)
        if norm < 1e-9:
            return None   # endpoints (anti)parallel: no unique great circle
        m = m / norm
        f = pts @ m
        span = math.acos(max(-1.0, min(1.0, float(np.dot(_normalize(b), _normalize(p))))))
    else:
        chord = p - b
        # signed side of the chord line: cross(chord, pts - b)
        f = chord[0] * (pts[:, 1] - b[1]) - chord[1] * (pts[:, 0] - b[0])
    total = 0
    for i in range(cfg.curve_samples):
        if f[i] == 0.0:
            return None
        if f[i] * f[i + 1] >= 0:
            continue
        lo, hi = ts[i], ts[i + 1]
        flo = f[i]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            x = curve.point(mid)
            if curve.surface == UNIT_SPHERE:
                fm = float(x @ m)
            else:
                fm = float(chord[0] * (x[1] - b[1]) - chord[1] * (x[0] - b[0]))
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        tstar = 0.5 * (lo + hi)
        x = curve.point(tstar)
        v = curve.velocity(tstar)
        if curve.surface == UNIT_SPHERE:
            x = _normalize(x)
            angb = math.acos(max(-1.0, min(1.0, float(np.dot(x, _normalize(b))))))
            angp = math.acos(max(-1.0, min(1.0, float(np.dot(x, _normalize(p))))))
            if angb + angp > span + 1e-9:
                continue   # the great circle is hit outside the arc
            if min(angb, angp) < 1e-7:
                return None
            direction = np.cross(m, x)
            det = float(np.dot(x, np.cross(v, direction)))
        else:
            s = float(np.dot(x - b, chord) / np.dot(chord, chord))
            if not 0.0 <= s <= 1.0:
                continue
            if min(s, 1.0 - s) < 1e-9:
                return None
            det = float(v[0] * chord[1] - v[1] * chord[0])
        scale = float(np.linalg.norm(v))
        if abs(det) < 1e-7 * scale:
            return None   # tangential hit: re-route
        total += 1 if det > 0 else -1
    return total


# ---------------------------------------------------------------------------
# cached numeric context: arcs, line integrals, and the area sweep


_LEGENDRE_CACHE = {}


def _leggauss(n):
    if n not in _LEGENDRE_CACHE:
        _LEGENDRE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGENDRE_CACHE[n]


class NumericContext:
    """All quadrature data for one (curve, base point, config).

    Caches the double points, the arc table (per smooth arc: its index and
    its geodesic-curvature line integral) and, on the sphere, the area of
    every index level from the meridian sweep; every invariant is then a
    cheap weighted sum over these tables.
    """

    def __init__(self, curve: ParametricCurve, base_point, cfg: NumericConfig = None):
        self.curve = curve
        self.cfg = cfg or NumericConfig()
        self.base_point = np.asarray(base_point, dtype=float)
        self.double_points = find_double_points(curve, self.cfg)
        self._build_arcs()
        if curve.surface == UNIT_SPHERE:
            self._sweep_levels()
        else:
            self.level_area = {}

    # -- smooth arcs between crossing parameters

    def _build_arcs(self):
        events = sorted(
            [(d.t1, k) for k, d in enumerate(self.double_points)]
            + [(d.t2, k) for k, d in enumerate(self.double_points)]
        )
        self.events = events
        curve, cfg = self.curve, self.cfg
        if events:
            bounds = [t for t, _ in events]
            spans = [
                (bounds[i], bounds[i + 1] if i + 1 < len(bounds) else bounds[0] + 1.0)
                for i in range(len(bounds))
            ]
        else:
            spans = [(0.0, 1.0)]
        nodes, weights = _leggauss(cfg.line_nodes)
        arc_index = []
        arc_kg = []
        for a, b in spans:
            mid_t = 0.5 * (a + b) % 1.0
            arc_index.append(self._arc_index_at(mid_t))
            ts = (0.5 * (b - a) * nodes + 0.5 * (a + b)) % 1.0
            kg = geodesic_curvature(curve, ts)
            speed = np.linalg.norm(curve.velocity(ts), axis=-1)
            arc_kg.append(0.5 * (b - a) * float(np.sum(weights * kg * speed)))
        self.arc_spans = spans
        self.arc_index = arc_index
        self.arc_kg = arc_kg
        # crossing index = mean of the four incident arc indices
        self.crossing_index = []
        for k, d in enumerate(self.double_points):
            incident = []
            for t in (d.t1, d.t2):
                pos = next(i for i, (tt, kk) in enumerate(events) if tt == t)
                incident.append(arc_index[pos])                      # arc after
                incident.append(arc_index[(pos - 1) % len(events)])  # arc before
            mean = sum(incident) / 4.0
            level = round(mean)
            if abs(mean - level) > 1e-9:
                raise TopologyError(
                    f"double point {k} has non-integer index {mean}"
                )
            self.crossing_index.append(int(level))

    def _side_probes(self, t):
        curve, cfg = self.curve, self.cfg
        x = curve.point(t)
        v = curve.velocity(t)
        u = v / np.linalg.norm(v)
        if curve.surface == UNIT_SPHERE:
            left = np.cross(x / np.linalg.norm(x), u)
            pl = _normalize(x + cfg.probe_eps * left)
            pr = _normalize(x - cfg.probe_eps * left)
        else:
            left = np.array([-u[1], u[0]])
            pl = x + cfg.probe_eps * left
            pr = x - cfg.probe_eps * left
        return pl, pr

    def _arc_index_at(self, t):
        pl, pr = self._side_probes(t)
        il = point_index(self.curve, self.base_point, pl, self.cfg)
        ir = point_index(self.curve, self.base_point, pr, self.cfg)
        if il != ir + 1:
            raise TopologyError(
                f"side probes at t={t:.6f} give indices {il}/{ir}, expected a +1 jump"
            )
        return ir + 0.5

    # -- meridian sweep of the sphere area, exact in colatitude

    def _sweep_levels(self):
        curve, cfg = self.curve, self.cfg
        ns = cfg.curve_samples
        ts = np.arange(ns + 1) / ns
        pts = curve.point(ts)
        az = np.arctan2(pts[:, 1], pts[:, 0])
        north = np.array([0.0, 0.0, 1.0])
        south = np.array([0.0, 0.0, -1.0])
        ind_n = point_index(curve, self.base_point, north, cfg)
        ind_s = point_index(curve, self.base_point, south, cfg)
        m = cfg.meridians
        dphi = TWO_PI / m
        phis = (np.arange(m) + 0.3819660112501051) * dphi - math.pi
        # bucket the curve's meridian crossings: for each sample interval,
        # every meridian inside the (short-way) azimuth step is crossed once
        hits = [[] for _ in range(m)]
        for i in range(ns):
            a0, a1 = az[i], az[i + 1]
            delta = (a1 - a0 + math.pi) % TWO_PI - math.pi
            if delta == 0.0:
                continue
            lo, hi = (a0, a0 + delta) if delta > 0 else (a0 + delta, a0)
            k0 = math.ceil((lo + math.pi) / dphi - 0.3819660112501051)
            k1 = math.floor((hi + math.pi) / dphi - 0.3819660112501051)
            for k in range(k0, k1 + 1):
                phi = (k % m + 0.3819660112501051) * dphi - math.pi
                tstar = self._refine_meridian_hit(ts[i], ts[i + 1], a0, phi)
                if tstar is not None:
                    hits[k % m].append(tstar)
        area = {}
        for k in range(m):
            phi = phis[k]
            cuts = []
            for t in hits[k]:
                x = curve.point(t)
                v = curve.velocity(t)
                colat = math.acos(max(-1.0, min(1.0, float(x[2] / np.linalg.norm(x)))))
                xn = _normalize(x)
                southward = -north + float(np.dot(north, xn)) * xn
                nrm = np.linalg.norm(southward)
                if nrm < 1e-12:
                    raise TopologyError("curve crosses a meridian at a pole")
                southward /= nrm
                jump = 1 if float(np.dot(xn, np.cross(v, southward))) > 0 else -1
                cuts.append((colat, jump))
            cuts.sort()
            ind = ind_n
            prev = 0.0
            for colat, jump in cuts:
                area[ind] = area.get(ind, 0.0) + dphi * (math.cos(prev) - math.cos(colat))
                ind += jump
                prev = colat
            area[ind] = area.get(ind, 0.0) + dphi * (math.cos(prev) + 1.0)
            if ind != ind_s:
                raise TopologyError(
                    f"meridian {phi:.4f} ends at index {ind}, expected {ind_s}"
                )
        total = sum(area.values())
        if abs(total - 4.0 * math.pi) > 1e-6:
            raise TopologyError(f"swept area {total} != 4 pi")
        self.level_area = {i: a for i, a in area.items() if a != 0.0}

    def _refine_meridian_hit(self, t0, t1, a0, phi):
        curve = self.curve

        def g(t):
            x = curve.point(t)
            return (math.atan2(x[1], x[0]) - phi + math.pi) % TWO_PI - math.pi

        lo, hi = t0, t1
        glo = g(lo)
        ghi = g(hi)
        if glo == 0.0:
            return lo
        if glo * ghi > 0:
            return None
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if glo * gm <= 0:
                hi = mid
            else:
                lo, glo = mid, gm
        return 0.5 * (lo + hi)

    # -- weighted sums over the cached tables

    def line_integral(self, weight):
        """sum over arcs of weight(arc index) * integral of k_g ds."""
        return sum(w * weight(i) for i, w in zip(self.arc_index, self.arc_kg))

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
    """J+ from its integral formula (chi(S) != 0 only; here: the sphere)."""
    if curve.surface == FLAT_TORUS:
        raise ChiZero("the J+ integral formula needs chi(S) != 0")
    ctx = context or NumericContext(curve, base_point, cfg)
    chi = 2.0
    gb = ctx.line_integral(lambda i: 1.0) + ctx.area_integral(lambda i: i)
    middle = (
        ctx.line_integral(lambda i: i)
        - ctx.crossing_sum(lambda theta, i: theta)
        + 0.5 * ctx.area_integral(lambda i: i * i)
    )
    return gb * gb / (4.0 * math.pi ** 2 * chi) - middle / math.pi + 1.0


def numeric_sjplus(curve, base_point, cfg: NumericConfig = None, context=None):
    """The spherical J+ expression (K = 1 and chi = 2 substituted)."""
    if curve.surface != UNIT_SPHERE:
        raise NotSphere("SJ+ is defined for spherical curves")
    ctx = context or NumericContext(curve, base_point, cfg)
    gb = ctx.line_integral(lambda i: 1.0) + ctx.area_integral(lambda i: i)
    middle = (
        ctx.line_integral(lambda i: i)
        - ctx.crossing_sum(lambda theta, i: theta)
        + 0.5 * ctx.area_integral(lambda i: i * i)
    )
    return gb * gb / (8.0 * math.pi ** 2) - middle / math.pi + 1.0


def gauss_bonnet_region_check(curve, base_point, j, cfg: NumericConfig = None,
                              context=None, extracted=None):
    """Both sides of the Gauss-Bonnet identity for the subsurface above j.

    lhs = 2 pi chi(S_j) from the extracted combinatorial diagram; rhs is the
    numeric total curvature of that subsurface: its area integral of K, the
    geodesic curvature along its boundary arcs (index = j), plus the corner
    turning angles (pi - theta) at double points of index j -+ 1/2.
    """
    ctx = context or NumericContext(curve, base_point, cfg)
    jf = float(j)
    if extracted is None:
        extracted = extract_diagram(curve, base_point, cfg, context=ctx)
    diagram, base = extracted
    ind = index_function(diagram, base)
    lhs = TWO_PI * subsurface_chi(diagram, ind, Fraction(j))
    rhs = ctx.area_integral(lambda i: 1.0 if i > jf else 0.0)
    rhs += sum(
        w for i, w in zip(ctx.arc_index, ctx.arc_kg) if abs(i - jf) < 1e-9
    )
    rhs += ctx.crossing_sum(
        lambda theta, i: (math.pi - theta) if i == round(jf - 0.5) else 0.0
    )
    rhs -= ctx.crossing_sum(
        lambda theta, i: (math.pi - theta) if i == round(jf + 0.5) else 0.0
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# bridge to the combinatorial path


def extract_diagram(curve, base_point, cfg: NumericConfig = None, context=None):
    """Build the signed Gauss code diagram of a parametric curve.

    Crossing signs come from the tangent frames in visit order.  On the
    sphere every complement region of a connected curve is a disk, so the
    cellular default applies; on the torus the unique chart-unbounded face
    receives genus 1.  The base region is identified by matching the index
    of a probe just left of the curve start against the combinatorial index
    function.  Returns (diagram, base region id).
    """
    cfg = cfg or NumericConfig()
    ctx = context or NumericContext(curve, base_point, cfg)
    if curve.surface == FLAT_TORUS:
        ts = np.arange(cfg.curve_samples) / cfg.curve_samples
        pts = curve.point(ts)
        if pts.min() < 1e-6 or pts.max() > 1 - 1e-6:
            raise ChartViolation("the curve leaves the open fundamental-domain chart")

    code_visits = tuple(
        (k + 1, ctx.double_points[k].sign) for _t, k in ctx.events
    )

    if curve.surface == UNIT_SPHERE:
        diagram = build_diagram(code_visits, base_region=0)
        if diagram.surface_chi != 2:
            raise TopologyError(
                "extracted code does not trace a spherical map; the curve "
                "may be non-generic at this resolution"
            )
    else:
        diagram0 = build_diagram(code_visits, base_region=0)
        outer_dart = _torus_unbounded_dart(curve, ctx)
        outer_cycle = diagram0.dart_cycle[outer_dart]
        regions = [
            (1 if c == outer_cycle else 0, (c,))
            for c in range(len(diagram0.cycles))
        ]
        diagram = build_diagram(
            code_visits, regions=regions, surface_chi=0, base_region=0
        )

    # identify the base region from a probe just left of the first arc
    ind0 = index_function(diagram, 0)
    left_region = diagram.dart_region[dart_id(0, LEFT)]
    mid_t = 0.5 * (ctx.arc_spans[0][0] + ctx.arc_spans[0][1]) % 1.0
    probe_left, _ = ctx._side_probes(mid_t)
    r = point_index(curve, ctx.base_point, probe_left, cfg)
    want = ind0.values[left_region] - r
    base = next(
        (rid for rid in range(len(diagram.regions)) if ind0.values[rid] == want),
        None,
    )
    if base is None:
        raise TopologyError("no region matches the base point's index offset")
    if base != diagram.base_region:
        diagram = build_diagram(
            diagram.code.visits,
            regions=[(reg.genus, reg.cycles) for reg in diagram.regions],
            surface_chi=diagram.surface_chi,
            base_region=base,
        )
    return diagram, base


def _torus_unbounded_dart(curve, ctx):
    """A dart whose face is the chart-unbounded one: the outward side of the
    rightmost point of the lift (nothing lies to its right)."""
    cfg = ctx.cfg
    ts = np.arange(cfg.curve_samples) / cfg.curve_samples
    pts = curve.point(ts)
    i = int(np.argmax(pts[:, 0]))
    t = ts[i]
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
    # the arc containing parameter t
    if not ctx.events:
        return dart_id(0, side)
    for k, (a0, b0) in enumerate(ctx.arc_spans):
        if a0 <= t < b0 or a0 <= t + 1.0 < b0:
            return dart_id(k, side)
    return dart_id(len(ctx.arc_spans) - 1, side)
