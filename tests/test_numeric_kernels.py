"""The numeric route's array kernels against what they replaced.

The references below are the dense n x n pair grid and the one-seed /
one-interval loops that the kernels in curveinv.geometry run for all seeds
or intervals at once, with the same seeds, iteration counts and
accept/reject tests.  Where a kernel keeps the loop's arithmetic the
results must be equal.  The meridian sweep that the Stokes level areas
replaced is kept as a first-order reference: with m meridians it must lie
within 2 pi / m of them.  The probe index, a winding number in a planar
chart, must equal the crossing count along the geodesic leg that it
replaced, kept as a scalar loop with an 80-step bisection per crossing,
wherever that leg is not degenerate; the windowed pair scan must return
the pairs of the dense grid in the same order; double-point seeding skips
pairs that cannot cross, and seeding from every close pair is kept as a
reference.  The loops that the straddling-edge winding count, the one-gather
seed filter and the whole-array root merge replaced are kept too, and the
kernels must equal them exactly.
"""

import math

import numpy as np
import pytest

from curveinv import geometry
from curveinv.catalog import parametric_fixture
from curveinv.geometry import (
    FLAT_TORUS,
    LatitudeCircle,
    NumericConfig,
    NumericContext,
    ParametricCurve,
    SphereFigureEight,
    TorusCircle,
    UNIT_SPHERE,
    find_double_points,
)

CFG = NumericConfig(double_grid=100, curve_samples=1024)
SHIFT = 0.3819660112501051


def newton_reference(curve, t1, t2):
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
        if abs(dt1) < geometry.PARAM_TOL and abs(dt2) < geometry.PARAM_TOL:
            break
    else:
        return None
    t1 %= 1.0
    t2 %= 1.0
    if t1 > t2:
        t1, t2 = t2, t1
    if min(t2 - t1, 1.0 - (t2 - t1)) < geometry.DIAG_GAP:
        return None
    if float(np.linalg.norm(curve.point(t1) - curve.point(t2))) > geometry.POSITION_TOL:
        return None
    return float(t1), float(t2)


def segment_reference(curve, b, p, ts, pts):
    if curve.surface == UNIT_SPHERE:
        m = np.cross(b, p)
        if np.linalg.norm(m) < 1e-9:
            return None
        m = m / np.linalg.norm(m)
        f = pts @ m
        bn, pn = b / np.linalg.norm(b), p / np.linalg.norm(p)
        span = math.acos(max(-1.0, min(1.0, float(np.dot(bn, pn)))))
    else:
        chord = p - b
        f = chord[0] * (pts[:, 1] - b[1]) - chord[1] * (pts[:, 0] - b[0])
    total = 0
    for i in range(len(ts) - 1):
        if f[i] == 0.0:
            return None
        if f[i] * f[i + 1] >= 0:
            continue
        lo, hi, flo = ts[i], ts[i + 1], f[i]
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
        x = curve.point(0.5 * (lo + hi))
        v = curve.velocity(0.5 * (lo + hi))
        if curve.surface == UNIT_SPHERE:
            x = x / np.linalg.norm(x)
            angb = math.acos(max(-1.0, min(1.0, float(np.dot(x, b / np.linalg.norm(b))))))
            angp = math.acos(max(-1.0, min(1.0, float(np.dot(x, p / np.linalg.norm(p))))))
            if angb + angp > span + 1e-9:
                continue
            if min(angb, angp) < 1e-7:
                return None
            det = float(np.dot(x, np.cross(v, np.cross(m, x))))
        else:
            s = float(np.dot(x - b, chord) / np.dot(chord, chord))
            if not 0.0 <= s <= 1.0:
                continue
            if min(s, 1.0 - s) < 1e-9:
                return None
            det = float(v[0] * chord[1] - v[1] * chord[0])
        if abs(det) < 1e-7 * float(np.linalg.norm(v)):
            return None
        total += 1 if det > 0 else -1
    return total


def winding_reference(polygon, points):
    """_winding as one pass over every edge for each point."""
    x0, y0 = polygon.T
    x1, y1 = np.roll(polygon, -1, axis=0).T
    dx, dy = x1 - x0, y1 - y0
    out = np.zeros(len(points), dtype=int)
    for k, (px, py) in enumerate(points):
        left = dx * (py - y0) - dy * (px - x0)
        out[k] = (np.count_nonzero((y0 <= py) & (py < y1) & (left > 0))
                  - np.count_nonzero((y1 <= py) & (py < y0) & (left < 0)))
    return out


def may_cross_reference(pts, cand):
    """_may_cross as one gather, modulo and einsum per step of the short way."""
    n = len(pts)
    i, j = cand[:, 0], cand[:, 1]
    forward = 2 * (j - i) <= n
    span = np.where(forward, j - i, n - (j - i))
    near = np.flatnonzero(span <= geometry._MONOTONE_SPAN)
    start, span = np.where(forward, i, j)[near], span[near]
    chord = pts[np.where(forward, j, i)[near]] - pts[start]
    seg = np.roll(pts, -1, axis=0) - pts
    along = np.ones(len(near), dtype=bool)
    for k in range(geometry._MONOTONE_SPAN):
        along &= (k >= span) | (np.einsum("md,md->m", seg[(start + k) % n], chord) > 0)
    keep = np.ones(len(cand), dtype=bool)
    keep[near[along]] = False
    return keep


def merge_reference(t1s, t2s):
    """The indices of the roots that find_double_points' greedy loop kept:
    each root in seed order unless it is near a kept one."""
    def cyc(a, b):
        return min(abs(a - b), 1.0 - abs(a - b))

    t1s, t2s = np.asarray(t1s).tolist(), np.asarray(t2s).tolist()
    tol, kept = geometry.MERGE_TOL, []
    for r, (t1, t2) in enumerate(zip(t1s, t2s)):
        if not any((cyc(t1, t1s[k]) < tol and cyc(t2, t2s[k]) < tol)
                   or (cyc(t1, t2s[k]) < tol and cyc(t2, t1s[k]) < tol) for k in kept):
            kept.append(r)
    return kept


def plane_reference(pts, x):
    """UNIT_SPHERE.plane with its pole chosen by axis-0 reductions."""
    k = int(np.argmin(np.concatenate((pts.max(axis=0), -pts.min(axis=0)))))
    a, sign = k % 3, 1.0 if k < 3 else -1.0
    e1, e2 = ((a + 2) % 3, (a + 1) % 3)[::1 if sign > 0 else -1]
    d = 1.0 - sign * x[..., a]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((d > 0.0)[..., None], x[..., [e1, e2]] / d[..., None], np.nan), k


def double_points_all_seeds(curve, cfg):
    """find_double_points seeded from every close pair of the grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_may_cross", lambda pts, cand: np.ones(len(cand), dtype=bool))
        return find_double_points(curve, cfg)


# (k, a, crossings) of the epicycles below
EPICYCLES = [(5, 0.5, 4), (9, 0.5, 24), (17, 0.5, 80), (13, 0.45, 36)]


class Meridian(ParametricCurve):
    """The great circle through both poles and (1, 0, 0)."""

    surface = UNIT_SPHERE

    def _x(self, t, order):
        s = 2 * math.pi * np.asarray(t, dtype=float)
        c, d = np.cos(s), np.sin(s)
        x, z = [(d, c), (c, -d), (-d, -c)][order]
        return (2 * math.pi) ** order * np.stack([x, np.zeros_like(s), z], axis=-1)

    def point(self, t):
        return self._x(t, 0)

    def velocity(self, t):
        return self._x(t, 1)

    def acceleration(self, t):
        return self._x(t, 2)


class Epicycle(ParametricCurve):
    """z(t) = c + r (e^(2 pi i t) + a e^(2 pi i k t)) in the torus chart,
    c = (1 + i)/2, r = 1/4: a circle with k - 1 small loops, or none."""

    surface = FLAT_TORUS

    def __init__(self, k, a):
        self.k, self.a = k, a

    def _z(self, t, order):
        w1, wk = 2j * math.pi, 2j * math.pi * self.k
        t = np.asarray(t, dtype=float)
        z = 0.25 * (w1 ** order * np.exp(w1 * t) + self.a * wk ** order * np.exp(wk * t))
        if order == 0:
            z = z + (0.5 + 0.5j)
        return np.stack([z.real, z.imag], axis=-1)

    def point(self, t):
        return self._z(t, 0)

    def velocity(self, t):
        return self._z(t, 1)

    def acceleration(self, t):
        return self._z(t, 2)


def sweep_reference(ctx, m):
    """The area of each index level from m meridians: along each, the index
    advances at the curve's crossings, and the exact band areas between
    consecutive crossing colatitudes are added to their levels."""
    curve, cfg = ctx.curve, ctx.cfg
    ts, pts = ctx.samples
    north = np.array([0.0, 0.0, 1.0])
    ind_n = geometry.point_index(curve, ctx.base_point, north, cfg)
    dphi = 2 * math.pi / m
    az = np.arctan2(pts[:, 1], pts[:, 0])

    def g(t, phi):
        x = curve.point(t)
        return (math.atan2(x[1], x[0]) - phi + math.pi) % (2 * math.pi) - math.pi

    hits = [[] for _ in range(m)]
    for i in range(len(ts) - 1):
        a0 = az[i]
        delta = (az[i + 1] - a0 + math.pi) % (2 * math.pi) - math.pi
        if delta == 0.0:
            continue
        lo, hi = (a0, a0 + delta) if delta > 0 else (a0 + delta, a0)
        for k in range(math.ceil((lo + math.pi) / dphi - SHIFT),
                       math.floor((hi + math.pi) / dphi - SHIFT) + 1):
            phi = (k % m + SHIFT) * dphi - math.pi
            lo_t, hi_t = ts[i], ts[i + 1]
            glo, ghi = g(lo_t, phi), g(hi_t, phi)
            if glo == 0.0:
                hits[k % m].append(lo_t)
                continue
            if glo * ghi > 0:
                continue
            for _ in range(80):
                mid = 0.5 * (lo_t + hi_t)
                gm = g(mid, phi)
                if glo * gm <= 0:
                    hi_t = mid
                else:
                    lo_t, glo = mid, gm
            hits[k % m].append(0.5 * (lo_t + hi_t))
    area = {}
    for k in range(m):
        cuts = []
        for t in hits[k]:
            x = curve.point(t)
            xn = x / np.linalg.norm(x)
            southward = -north + float(np.dot(north, xn)) * xn
            southward /= np.linalg.norm(southward)
            det = float(np.dot(xn, np.cross(curve.velocity(t), southward)))
            jump = 1 if det > 0 else -1
            cuts.append((math.acos(max(-1.0, min(1.0, float(xn[2])))), jump))
        ind, prev = ind_n, 0.0
        for colat, jump in sorted(cuts):
            area[ind] = area.get(ind, 0.0) + dphi * (math.cos(prev) - math.cos(colat))
            ind += jump
            prev = colat
        area[ind] = area.get(ind, 0.0) + dphi * (math.cos(prev) + 1.0)
    return {i: a for i, a in area.items() if a != 0.0}


def dense_close_pairs(curve, n):
    """The grid of n samples, the threshold of find_double_points, and the
    close pairs (i, j), i < j, of the dense n x n grid in row-major order."""
    ts = np.arange(n) / n
    pts = curve.point(ts)
    threshold = (4.0 * float(np.max(np.linalg.norm(curve.velocity(ts), axis=-1))) / n) ** 2
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    sep = np.abs(ts[:, None] - ts[None, :])
    d2[np.minimum(sep, 1.0 - sep) < geometry.DIAG_GAP] = np.inf
    d2[np.tril_indices(n)] = np.inf
    return ts, pts, threshold, np.argwhere(d2 < threshold)


@pytest.mark.parametrize("n", [50, 100, 101])
def test_blocked_pair_scan_matches_dense_grid(n):
    # the windowed scan finds the pairs of the dense n x n grid, in order
    ts, pts, threshold, dense = dense_close_pairs(SphereFigureEight(), n)
    assert len(dense) > 0
    blocked = geometry._close_pairs(ts, pts, threshold, geometry.DIAG_GAP)
    assert blocked.tolist() == dense.tolist()


@pytest.mark.parametrize("curve", [TorusCircle(0.2), Epicycle(17, 0.5)])
@pytest.mark.parametrize("n", [200, 400, 800])
def test_pair_scan_matches_dense_grid_on_loops(curve, n):
    ts, pts, threshold, dense = dense_close_pairs(curve, n)
    assert len(dense) > 0
    assert geometry._close_pairs(ts, pts, threshold, geometry.DIAG_GAP).tolist() == dense.tolist()


@pytest.mark.parametrize("curve", [SphereFigureEight(), SphereFigureEight(0.6, 0.3),
                                   LatitudeCircle(1.0), TorusCircle(0.2)])
def test_batched_newton_equals_scalar_loop(curve):
    n = CFG.double_grid
    ts = np.arange(n) / n
    pts = curve.point(ts)
    step = float(np.max(np.linalg.norm(curve.velocity(ts), axis=-1))) / n
    cand = geometry._close_pairs(ts, pts, (4.0 * step) ** 2, geometry.DIAG_GAP)
    # the near pairs that seed the search, far pairs that mostly fail, and
    # a pair of the 400-grid that, on the figure eight, meets a Jacobian
    # with det ~ -1e-6 and converges only after wandering to t ~ 1400
    seeds = np.concatenate([cand, [(i, (i + 37) % n) for i in range(0, n, 7)]])
    t1 = np.append(ts[seeds[:, 0]], 31 / 400)
    t2 = np.append(ts[seeds[:, 1]], 34 / 400)
    roots = geometry._refine_double_points(curve, t1, t2)
    expected = [newton_reference(curve, a, b) for a, b in zip(t1, t2)]
    assert list(zip(*(r.tolist() for r in roots))) == [r for r in expected if r is not None]


def probe_sets():
    """(context, probes) on three curves, with the probes of every pair
    leg among: the base, side probes at four parameters and, on the
    sphere, the north pole and the base's antipode.  Call with PROBE_EPS
    set to 2e-4: side probes close to the curve, so that legs between them
    end just short of a crossing of their great circle (chord line)."""
    out = []
    for ctx in (NumericContext(SphereFigureEight(), (-1.0, 0.0, 0.0), CFG),
                NumericContext(LatitudeCircle(1.0), (0.0, 0.0, -1.0), CFG),
                NumericContext(TorusCircle(0.2), (0.05, 0.05), CFG)):
        probes = [ctx.base_point] + [p for t in np.linspace(0.05, 0.95, 4)
                                     for p in ctx._side_probes(t)]
        if ctx.curve.surface == UNIT_SPHERE:
            probes += [np.array([0.0, 0.0, 1.0]), -ctx.base_point]
        out.append((ctx, probes))
    return out


def test_segment_index_equals_scalar_loop(monkeypatch):
    # every ordered pair of probes, degenerate legs of the reference skipped
    monkeypatch.setattr(geometry, "PROBE_EPS", 2e-4)
    seen = set()
    for ctx, probes in probe_sets():
        for b in probes:
            for p in probes:
                want = segment_reference(ctx.curve, b, p, *ctx.samples)
                seen.add(want)
                if want is not None:
                    got = geometry.point_index(ctx.curve, b, p, samples=ctx.samples)
                    assert got == want
    assert None in seen and {-1, 0, 1} <= seen


def test_meridian_index_equals_scalar_loop():
    # a great circle through both poles, between random points
    curve = Meridian()
    samples = geometry._curve_samples(curve, CFG)
    rng = np.random.default_rng(5)
    bases, probes = (UNIT_SPHERE.project(rng.normal(size=(k, 3))) for k in (12, 26))
    seen = []
    for b in bases:
        got = geometry.point_index(curve, b, probes, samples=samples)
        for p, g in zip(probes, got):
            want = segment_reference(curve, b, p, *samples)
            if want is not None:
                assert g == want
                seen.append(want)
    assert len(seen) >= 300 and {-1, 1} <= set(seen)


@pytest.mark.parametrize("curve,base", [
    (SphereFigureEight(), (-1.0, 0.0, 0.0)),
    (LatitudeCircle(2.0), (0.0, 0.0, -1.0)),
])
def test_sweep_reference_within_2pi_over_m_of_stokes_areas(curve, base):
    # the sweep is first order in 1/m: on the figure eight it is 8.6e-3 off
    # at m = 128 and 2.2e-4 at m = 1024
    ctx = NumericContext(curve, base, CFG)
    for m in (128, 256, 512, 1024):
        swept = sweep_reference(ctx, m)
        assert sorted(swept) == list(ctx.level_area)
        for level, area in swept.items():
            assert abs(ctx.level_area[level] - area) <= 2 * math.pi / m


def context_probes(ctx, stride=1):
    """The side probes of every stride-th arc of a context, with the index
    that the context gives each, then its fixed probes with theirs."""
    t = (0.5 * np.sum(ctx.arc_spans, axis=1) % 1.0)[::stride]
    left, right = ctx._side_probes(t)
    arcs = ctx.arc_index[::stride]
    return (list(zip(left, (v + 1 for v in arcs))) + list(zip(right, arcs))
            + list(zip(ctx.curve.surface.fixed_probes, ctx.fixed_index)))


@pytest.mark.parametrize("curve,base,cfg", [
    (SphereFigureEight(), (-1.0, 0.0, 0.0), CFG),
    (LatitudeCircle(1.0), (0.0, 0.0, -1.0), CFG),
    (TorusCircle(0.2), (0.05, 0.05), CFG),
    *((Epicycle(k, a), (0.05, 0.05), NumericConfig()) for k, a, _ in EPICYCLES),
])
def test_context_indices_match_scalar_loop(curve, base, cfg):
    # the arc and fixed indices of a context, on at most 8 of its arcs
    ctx = NumericContext(curve, base, cfg)
    checked = 0
    for p, index in context_probes(ctx, max(1, len(ctx.arc_spans) // 8)):
        want = segment_reference(curve, ctx.base_point, p, *ctx.samples)
        if want is not None:
            assert index == want
            checked += 1
    assert checked >= 2


def test_epicycle_index_equals_scalar_loop():
    # the side probes of every other arc of the 80 crossings of k = 17, on
    # a coarser sampling, in one stacked call
    ctx = NumericContext(Epicycle(17, 0.5), (0.05, 0.05), NumericConfig(curve_samples=1024))
    probes, indices = zip(*context_probes(ctx, 2))
    got = geometry.point_index(ctx.curve, ctx.base_point, np.array(probes), samples=ctx.samples)
    assert got == list(indices)
    checked = 0
    for p, g in zip(probes, got):
        want = segment_reference(ctx.curve, ctx.base_point, p, *ctx.samples)
        if want is not None:
            assert g == want
            checked += 1
    assert checked >= 150 and max(got) == 4


def test_stacked_point_index_equals_single_calls():
    # the base's antipode is left out, as the figure eight passes through it
    for ctx, probes in probe_sets():
        stack = np.array(probes[1:-1] if ctx.curve.surface == UNIT_SPHERE else probes[1:])
        assert geometry.point_index(ctx.curve, ctx.base_point, stack, samples=ctx.samples) == [
            geometry.point_index(ctx.curve, ctx.base_point, p, samples=ctx.samples)
            for p in stack]


def test_winding_on_hand_made_polygons():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    points = np.array([[0.5, 0.5],     # inside
                       [-1.0, 0.0],    # level with the bottom edge
                       [-1.0, 1.0],    # level with the top edge
                       [0.5, 2.0],     # above
                       [np.nan, np.nan]])
    assert geometry._winding(square, points).tolist() == [1, 0, 0, 0, 0]
    assert geometry._winding(square[::-1], points).tolist() == [-1, 0, 0, 0, 0]
    assert geometry._winding(np.concatenate([square, square]), points).tolist() == [2, 0, 0, 0, 0]
    # rays through the side vertices of a diamond
    diamond = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    points = np.array([[-2.0, 0.0], [0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
    assert geometry._winding(diamond, points).tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("cells", [None, 1, 40])
def test_winding_equals_reference_on_hand_made_polygons(monkeypatch, cells):
    # cells: blocks of one point, of a few points, or all points at once
    nan = math.nan
    if cells is not None:
        monkeypatch.setattr(geometry, "_CHUNK_CELLS", cells)
    diamond = [[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
    # horizontal edges at y = 0 and y = 1, and vertices on the rays y = 0, 1, 2
    stairs = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0],
              [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]]
    # the chart of a curve through the pole: nan vertices, and one with x alone nan
    holed = [[0.0, -1.0], [1.0, 0.0], [nan, nan], [0.0, 1.0], [-1.0, 0.5],
             [nan, 0.0], [-1.0, -0.5]]
    points = np.array([[x, y] for x in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
                       for y in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)]
                      + [[nan, nan], [nan, 0.5], [0.5, nan]])
    seen = set()
    for polygon in (diamond, stairs, holed):
        polygon = np.array(polygon)
        for poly in (polygon, polygon[::-1], np.concatenate([polygon, polygon])):
            got = geometry._winding(poly, points)
            assert got.tolist() == winding_reference(poly, points).tolist()
            assert got[-3:].tolist() == [0, 0, 0]
            seen.update(got.tolist())
    assert {-1, 0, 1, 2} <= seen


FIXTURE_AND_EPICYCLE_CONTEXTS = [
    *((name, cfg) for name in ("great_circle", "latitude", "circle_torus",
                               "figure8_sphere_param")
      for cfg in (NumericConfig(), NumericConfig().halved())),
    *(((k, a), cfg) for k, a, _ in EPICYCLES
      for cfg in (NumericConfig(), NumericConfig().halved())),
]


@pytest.mark.parametrize("which,cfg", FIXTURE_AND_EPICYCLE_CONTEXTS)
def test_winding_equals_reference_on_probe_stacks(which, cfg):
    # every probe stack that a context charts, as point_index charts it
    if isinstance(which, str):
        fx = parametric_fixture(which)
        curve, base = fx.curve, fx.base_point
    else:
        curve, base = Epicycle(*which), (0.05, 0.05)
    ctx = NumericContext(curve, base, cfg)
    probes, indices = zip(*context_probes(ctx))
    pts, nodes = ctx.samples[1], np.vstack((ctx.base_point, *probes))
    polygon, points = curve.surface.plane(pts, pts[:-1]), curve.surface.plane(pts, nodes)
    got = geometry._winding(polygon, points)
    assert got.tolist() == winding_reference(polygon, points).tolist()
    assert (got[1:] - got[0]).tolist() == list(indices)


@pytest.mark.parametrize("curve", [SphereFigureEight(), LatitudeCircle(1.0), TorusCircle(0.2),
                                   *(Epicycle(k, a) for k, a, _ in EPICYCLES)])
@pytest.mark.parametrize("n", [50, 100, 200, 400, 800])
def test_may_cross_equals_reference(curve, n):
    # the close pairs of the grid, and pairs across the seam, some of whose
    # short ways wrap it
    ts = np.arange(n) / n
    pts = curve.point(ts)
    step = float(np.max(np.linalg.norm(curve.velocity(ts), axis=-1))) / n
    close = geometry._close_pairs(ts, pts, (4.0 * step) ** 2, geometry.DIAG_GAP)
    seam = np.array([(i, j) for i in range(20) for j in range(n - 20, n) if i < j])
    cand = np.concatenate([close, seam])
    got = geometry._may_cross(pts, cand)
    assert got.tolist() == may_cross_reference(pts, cand).tolist()
    wraps = (seam[:, 1] - seam[:, 0] > n // 2) & (n - (seam[:, 1] - seam[:, 0]) <= 16)
    assert wraps.any() and not got[len(close):][wraps].all()
    assert not got[:len(close)].all()


def test_distinct_roots_equals_greedy_loop_on_hand_made_roots():
    tol = geometry.MERGE_TOL
    cases = [
        # seam-wrapped duplicates, both orientations
        ([1e-10, 0.3, 0.3, 1 - 1e-10, 0.5], [0.3, 1 - 1e-10, 1e-10, 0.3, 0.7]),
        ([1e-10, 0.2, 1 - 1e-10], [0.6, 0.6 + 1e-10, 0.6 - 1e-10]),
        # swapped orientation away from the seam
        ([0.25, 0.75, 0.25 + 0.5 * tol], [0.75, 0.25, 0.75]),
        # a chain: the second root is near both, the first and third are not
        # near each other, so the third stays
        ([0.4, 0.4 + 0.9 * tol, 0.4 + 1.8 * tol], [0.8, 0.8, 0.8]),
        # just outside the radius, and exactly at it
        ([0.1, 0.1 + 1.01 * tol, 0.1 + tol], [0.9, 0.9, 0.9]),
        ([], []),
    ]
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = int(rng.integers(1, 60))
        centres = rng.uniform(0, 1, size=(int(rng.integers(1, 6)), 2))
        pick = centres[rng.integers(0, len(centres), size=m)]
        roots = (pick + rng.normal(scale=tol, size=(m, 2))) % 1.0
        swap = rng.random(m) < 0.3
        roots[swap] = roots[swap][:, ::-1]
        cases.append((roots[:, 0], roots[:, 1]))
    chains = 0
    for t1, t2 in cases:
        t1, t2 = np.array(t1, dtype=float), np.array(t2, dtype=float)
        want = merge_reference(t1, t2)
        assert geometry._distinct_roots(t1, t2).tolist() == want
        chains += len(want) > 1 and len(t1) > len(want)
    assert chains > 50


@pytest.mark.parametrize("curve", [SphereFigureEight(), SphereFigureEight(0.6, 0.3),
                                   *(Epicycle(k, a) for k, a, _ in EPICYCLES)])
def test_distinct_roots_equals_greedy_loop_on_refined_roots(monkeypatch, curve):
    roots = []
    refine = geometry._refine_double_points
    monkeypatch.setattr(geometry, "_refine_double_points",
                        lambda *args: roots.append(refine(*args)) or roots[-1])
    found = find_double_points(curve)
    (t1, t2), = roots
    keep = geometry._distinct_roots(t1, t2)
    assert keep.tolist() == merge_reference(t1, t2)
    assert sorted(zip(t1[keep].tolist(), t2[keep].tolist())) == [(d.t1, d.t2) for d in found]


@pytest.mark.parametrize("cfg", [NumericConfig(), NumericConfig().halved()])
def test_latitude_seam_fixed_index(cfg):
    # a regression case for the seam of the chart polygon: the latitude of
    # numeric_verify seed 7, spec 13, from the south pole
    ctx = NumericContext(LatitudeCircle(2.0150167225273448), (0.0, 0.0, -1.0), cfg)
    assert ctx.fixed_index == [1, 0]


def _same_double_points(got, want):
    assert len(got) == len(want)
    assert [d.sign for d in got] == [d.sign for d in want]
    for d, e in zip(got, want):
        assert abs(d.t1 - e.t1) < 1e-9 and abs(d.t2 - e.t2) < 1e-9


@pytest.mark.parametrize("name", ["great_circle", "latitude", "circle_torus",
                                  "figure8_sphere_param"])
def test_seed_filter_keeps_fixture_double_points(name):
    curve = parametric_fixture(name).curve
    for cfg in (NumericConfig(), NumericConfig().halved()):
        _same_double_points(find_double_points(curve, cfg), double_points_all_seeds(curve, cfg))


def test_seed_filter_keeps_figure_eight_double_points():
    for tilt in (0.0, 0.3, 0.7, 1.1, 1.5):
        for phase in (0.0, 0.35, 1.3, 2.9):
            curve = SphereFigureEight(tilt, phase)
            _same_double_points(find_double_points(curve, CFG),
                                double_points_all_seeds(curve, CFG))


@pytest.mark.parametrize("k,a,crossings", EPICYCLES)
@pytest.mark.parametrize("grid", [200, 400, 800])
def test_seed_filter_keeps_epicycle_double_points(k, a, crossings, grid):
    # many small loops; a bare local-minimum filter on the pair distances
    # finds only 16 of the 24 crossings of k = 9 at grid 200
    curve, cfg = Epicycle(k, a), NumericConfig(double_grid=grid)
    got = find_double_points(curve, cfg)
    assert len(got) == crossings
    _same_double_points(got, double_points_all_seeds(curve, cfg))


# -- call counts of one default context ---------------------------------------


@pytest.mark.parametrize("name", ["great_circle", "latitude", "figure8_sphere_param"])
def test_context_makes_one_point_index_call(monkeypatch, name):
    calls = []
    index = geometry.point_index
    monkeypatch.setattr(geometry, "point_index",
                        lambda *args, **kw: calls.append(1) or index(*args, **kw))
    fx = parametric_fixture(name)
    NumericContext(fx.curve, fx.base_point)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["great_circle", "latitude", "figure8_sphere_param"])
def test_point_index_makes_one_plane_call(monkeypatch, name):
    # one chart for the polygon and the probes, from the pole that the
    # axis-0 reductions chose
    fx = parametric_fixture(name)
    for cfg in (NumericConfig(), NumericConfig().halved()):
        ctx = NumericContext(fx.curve, fx.base_point, cfg)
        pts = ctx.samples[1]
        nodes = np.vstack((ctx.base_point, *(p for p, _ in context_probes(ctx))))
        charts = []
        plane = UNIT_SPHERE.plane
        monkeypatch.setattr(UNIT_SPHERE, "plane",
                            lambda p, x: charts.append(plane(p, x)) or charts[-1])
        geometry.point_index(fx.curve, ctx.base_point, nodes[1:], samples=ctx.samples)
        monkeypatch.undo()
        assert len(charts) == 1
        want, k = plane_reference(pts, np.concatenate((pts[:-1], nodes)))
        np.testing.assert_array_equal(charts[0], want)
        pole = np.zeros(3)
        pole[k % 3] = 1.0 if k < 3 else -1.0
        assert np.isnan(plane(pts, pole)).all() and not np.isnan(charts[0][:len(pts) - 1]).any()


@pytest.mark.parametrize("name", ["great_circle", "latitude", "figure8_sphere_param"])
def test_fixture_indices_equal_scalar_loop(name):
    # at both grids every probe index of these contexts equals the count
    # along its leg from the base, or, where that leg is degenerate, along
    # the two legs through a waypoint
    fx = parametric_fixture(name)
    via = UNIT_SPHERE.project(np.array([0.3, -0.5, 0.8]))
    for cfg in (NumericConfig(), NumericConfig().halved()):
        ctx = NumericContext(fx.curve, fx.base_point, cfg)
        for p, index in context_probes(ctx):
            want = segment_reference(fx.curve, ctx.base_point, p, *ctx.samples)
            if want is None:
                want = (segment_reference(fx.curve, ctx.base_point, via, *ctx.samples)
                        + segment_reference(fx.curve, via, p, *ctx.samples))
            assert index == want


def test_figure_eight_refines_few_seeds(monkeypatch):
    seeds = []
    refine = geometry._refine_double_points
    monkeypatch.setattr(geometry, "_refine_double_points",
                        lambda curve, t1, t2: seeds.append(len(t1)) or refine(curve, t1, t2))
    (_,) = find_double_points(parametric_fixture("figure8_sphere_param").curve)
    assert seeds and seeds[0] <= 60   # every close pair: 1349
