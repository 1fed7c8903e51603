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
wherever that leg is not degenerate, and the winding number of the closed
polygon of the dense samples that the guarded angle sum over the arc
nodes replaced (winding_reference, scan_reference), on every probe stack
of the fixtures and the epicycles.  The seeding kernel (_seed_pairs)
must return the close pairs of the dense grid, formed a block of rows at a
time, that the one-gather-per-step filter keeps, in the same order;
seeding from every close pair, past both seed filters, is kept as a
reference.  The loops that the one-gather seed filter, the prefix-sum
turning rule (a loop summing the angles of each short way) and the
whole-array root merge replaced are kept too, and the kernels must equal
them exactly; the kernel asks _may_cross
about the close near pairs that the turning loop leaves undecided.  A
context makes one jet per Newton step and one for the roots (one per
parameter above _JOINT_JET seeds, with the same bits), and chooses the
sphere's pole once.  Every curve's jet must agree with central
differences of its own lower terms.  The kernels build their frames, norms
and jets in components; the numpy helper formulas they replaced (np.stack
jets, np.cross, np.einsum, np.linalg.norm) are kept as references, to
rounding, and a context must call none of those helpers.  The arc indices
are prefix sums of the crossing signs plus one anchor; the side probes they
replaced, a point PROBE_EPS to either side of the middle of every arc, are
kept as a reference (side_probe_indices).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from curveinv import geometry
from curveinv.catalog import PARAMETRIC_NAMES, parametric_fixture
from curveinv.errors import PointOnCurve
from curveinv.geometry import (
    FLAT_TORUS,
    GreatCircle,
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
        p1, v1, a1 = curve.jet(t1)
        p2, v2, a2 = curve.jet(t2)
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
    return float(t1), float(t2)


def residual_reference(curve, t1, t2):
    """Whether the refined root (t1, t2) passes find_double_points'
    residual test."""
    gap = float(np.linalg.norm(curve.jet(t1, 0)[0] - curve.jet(t2, 0)[0]))
    return not gap > geometry.POSITION_TOL


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
            x = curve.jet(mid, 0)[0]
            if curve.surface == UNIT_SPHERE:
                fm = float(x @ m)
            else:
                fm = float(chord[0] * (x[1] - b[1]) - chord[1] * (x[0] - b[0]))
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        x, v = curve.jet(0.5 * (lo + hi), 1)
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
    """The winding number of the closed polygon around each of the (k, 2)
    points, as one pass over every edge for each point: the signed count of
    its edges that cross the point's rightward ray, +1 upward.  An edge
    holds its lower end but not its upper one; a nan point is outside."""
    x0, y0 = polygon.T
    x1, y1 = np.roll(polygon, -1, axis=0).T
    dx, dy = x1 - x0, y1 - y0
    out = np.zeros(len(points), dtype=int)
    for k, (px, py) in enumerate(points):
        left = dx * (py - y0) - dy * (px - x0)
        out[k] = (np.count_nonzero((y0 <= py) & (py < y1) & (left > 0))
                  - np.count_nonzero((y1 <= py) & (py < y0) & (left < 0)))
    return out


def dense_samples(curve, n):
    """(ts, pts): the curve at n + 1 evenly spaced parameters t = 0, ..., 1,
    the dense samples that the scan below reads."""
    ts = np.arange(n + 1) / n
    return ts, curve.jet(ts, 0)[0]


def min_distance_reference(curve, samples, points):
    """The distance of each of the points (k, d) to the curve, and the
    index of each point's nearest sample: the nearest sample's distance,
    polished by 8 Newton steps on (p(t) - x).p'(t) = 0 from the nearest
    sample of every branch that comes within one sample spacing."""
    ts, pts = samples
    gap = pts[1:] - pts[:-1]
    spacing2 = float(np.max(np.einsum("ij,ij->i", gap, gap)))
    cols = [np.ascontiguousarray(c) for c in pts[:-1].T]   # t = 1 repeats t = 0
    best = np.empty(len(points))
    nearest, node, seed = [], [], []
    for k, x in enumerate(points):
        d2 = sum((c - xc) ** 2 for c, xc in zip(cols, x))
        nearest.append(int(d2.argmin()))
        best[k] = d2[nearest[-1]]
        if best[k] < spacing2:
            i = np.flatnonzero(d2 < spacing2)
            i = i[(d2[i] <= d2[i - 1]) & (d2[i] <= d2[(i + 1) % len(d2)])]
            node.extend([k] * len(i))
            seed.extend(ts[i])
    if node:
        x, t = np.asarray(points, dtype=float)[node], np.array(seed)
        for _ in range(8):
            p, v, a = curve.jet(t)
            p = p - x
            step = np.einsum("ij,ij->i", p, v) / (np.einsum("ij,ij->i", v, v)
                                                   + np.einsum("ij,ij->i", p, a))
            t = t - step
            if not np.any(np.abs(step) > geometry.PARAM_TOL):
                break
        p = curve.jet(t, 0)[0] - x
        np.fmin.at(best, node, np.einsum("ij,ij->i", p, p))
    return np.sqrt(best), nearest


def scan_reference(curve, samples, anchor, nodes):
    """(index, nearest): the index of each of nodes[1:] from nodes[0], as
    the winding numbers of the closed polygon of the dense samples in the
    chart from anchor, and each node's nearest sample.  A node within
    POINT_TOL of the curve raises PointOnCurve."""
    distance, nearest = min_distance_reference(curve, samples, nodes)
    if (distance < geometry.POINT_TOL).any():
        raise PointOnCurve("a node lies on the curve")
    pts = samples[1]
    n = len(pts) - 1
    chart = curve.surface.plane(anchor, np.concatenate((pts[:-1], nodes)))
    w = winding_reference(chart[:n], chart[n:])
    return (w[1:] - w[0]).tolist(), nearest


def sample_face_reference(ctx, samples, point, i):
    """The dart of the face holding point, read at its nearest sample i:
    the side from the chord of the sample's neighbours, the arc from the
    sample's parameter."""
    ts, pts = samples
    chord = pts[i + 1] - pts[i - 1 if i else -2]
    left = ctx.curve.surface.orientation(pts[i], chord, np.asarray(point) - pts[i]) > 0
    k = int(np.searchsorted(ctx.arc_starts, ts[i], side="right")) - 1
    return 2 * (k % len(ctx.arc_starts)) + (0 if left else 1)


def scan_indices_reference(ctx, n):
    """(anchor, anchor index, arc indices, base dart) of a context as the
    dense scan of n samples gives them: the anchor chosen from the samples,
    its index from the winding numbers of the sample polygon and its face,
    like the base's, read at its nearest sample."""
    samples = dense_samples(ctx.curve, n)
    anchor = ctx.curve.surface.anchor(samples[1])
    (index,), (base_i, anchor_i) = scan_reference(ctx.curve, samples, anchor,
                                                  np.array((ctx.base_point, anchor)))
    arc, side = divmod(sample_face_reference(ctx, samples, anchor, anchor_i), 2)
    right, total = [], 0
    for t, k, _step in ctx.passages:
        d = ctx.double_points[k]
        total += -d.sign if t == d.t1 else d.sign
        right.append(total)
    right = right or [0]
    shift = index - right[arc] - (1 if side == 0 else 0)
    return (anchor, index, [v + shift for v in right],
            sample_face_reference(ctx, samples, ctx.base_point, base_i))


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


def short_spans(n, cand):
    """The cyclic span of the short way of each pair (i, j), i < j, of cand."""
    gap = cand[:, 1] - cand[:, 0]
    return np.minimum(gap, n - gap)


def on_pairs(kernel, pts, cand, far):
    """A seed kernel's mask over the short ways of the near pairs of cand,
    spread over cand: far pairs read `far`."""
    n = len(pts)
    i, j = cand[:, 0], cand[:, 1]
    forward = 2 * (j - i) <= n
    span = np.where(forward, j - i, n - (j - i))
    near = span <= geometry._MONOTONE_SPAN
    out = np.full(len(cand), far)
    out[near] = kernel(pts, np.where(forward, i, j)[near], span[near])
    return out


def turns_little_reference(pts, cand):
    """_seed_pairs' turning rule as a loop over the pairs: the angles
    between the consecutive segments of each near pair's short way, summed
    one by one; a way with a zero-length segment is undecided.  True where
    the turning drops the pair."""
    n, out = len(pts), []
    for i, j in cand.tolist():
        forward = 2 * (j - i) <= n
        start, span = (i, j - i) if forward else (j, n - (j - i))
        way = pts[[(start + k) % n for k in range(span + 1)]]
        seg = way[1:] - way[:-1]
        if span > geometry._MONOTONE_SPAN or not (np.einsum("md,md->m", seg, seg) > 0).all():
            out.append(False)
            continue
        turn = 0.0
        for u, w in zip(seg, seg[1:]):
            wedge = (np.linalg.norm(np.cross(u, w)) if len(u) == 3
                     else abs(u[0] * w[1] - u[1] * w[0]))
            turn += math.atan2(wedge, float(np.dot(u, w)))
        out.append(turn < geometry._TURN_LIMIT)
    return np.array(out, dtype=bool)


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


def double_points_all_seeds(curve, cfg):
    """find_double_points seeded from every close pair of the grid, as the
    dense reference finds them: neither the turning nor _may_cross drops a
    pair."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_seed_pairs",
                   lambda ts, pts, threshold: tuple(close_pairs_reference(ts, pts, threshold).T))
        return find_double_points(curve, cfg)


def seed_grid(curve, n):
    """The seed grid of n samples of find_double_points, and its threshold."""
    ts = np.arange(n) / n
    pts, vel = curve.jet(ts, 1)
    step = float(np.max(np.linalg.norm(vel, axis=-1))) / n
    return ts, pts, (4.0 * step) ** 2


def close_pairs_reference(ts, pts, threshold, gap=geometry.DIAG_GAP, rows=128):
    """The close pairs (i, j), i < j, of the dense n x n grid in row-major
    order: squared distance below threshold and cyclic parameter gap at
    least gap.  The grid is formed a block of rows at a time, each row from
    its diagonal on."""
    n, out = len(ts), [np.empty((0, 2), dtype=np.intp)]
    for lo in range(0, n, rows):
        diff = pts[lo:lo + rows, None, :] - pts[None, lo:, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        sep = np.abs(ts[lo:lo + rows, None] - ts[None, lo:])
        close = (d2 < threshold) & ~(np.minimum(sep, 1.0 - sep) < gap)
        close &= np.arange(n - lo) > np.arange(len(d2))[:, None]   # above the diagonal
        out.append(np.argwhere(close) + lo)
    return np.concatenate(out)


def seed_reference(ts, pts, threshold):
    """The seeds of _seed_pairs: the close pairs that may_cross_reference keeps."""
    close = close_pairs_reference(ts, pts, threshold)
    return close[may_cross_reference(pts, close)]


def seed_kernel(ts, pts, threshold):
    """_seed_pairs' seeds as an (m, 2) array of pairs."""
    return np.column_stack(geometry._seed_pairs(ts, pts, threshold))


def ways_to_may_cross(ts, pts, threshold):
    """The seeds of _seed_pairs, and the pairs, sorted, whose short ways it
    asks _may_cross about."""
    asked = [(np.empty(0, dtype=np.intp),) * 2]
    may_cross = geometry._may_cross
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_may_cross", lambda pts, start, span:
                   asked.append((start, span)) or may_cross(pts, start, span))
        seeds = seed_kernel(ts, pts, threshold)
    start, span = (np.concatenate(c) for c in zip(*asked))
    end = (start + span) % len(ts)
    return seeds, sorted(zip(np.minimum(start, end).tolist(), np.maximum(start, end).tolist()))


# (k, a, crossings) of the epicycles below
EPICYCLES = [(5, 0.5, 4), (9, 0.5, 24), (17, 0.5, 80), (13, 0.45, 36)]


class Meridian(ParametricCurve):
    """The great circle through both poles and (1, 0, 0)."""

    surface = UNIT_SPHERE

    def _jet(self, t):
        s = 2 * math.pi * t
        c, d = np.cos(s), np.sin(s)
        for order, (x, z) in enumerate([(d, c), (c, -d), (-d, -c)]):
            yield (2 * math.pi) ** order * np.stack([x, np.zeros_like(s), z], axis=-1)


class Epicycle(ParametricCurve):
    """z(t) = c + r (e^(2 pi i t) + a e^(2 pi i k t)) in the torus chart,
    c = (1 + i)/2, r = 1/4: a circle with k - 1 small loops, or none."""

    surface = FLAT_TORUS

    def __init__(self, k, a):
        self.k, self.a = k, a

    def _jet(self, t):
        w1, wk = 2j * math.pi, 2j * math.pi * self.k
        e1, ek = np.exp(w1 * t), np.exp(wk * t)
        for order in range(3):
            z = 0.25 * (w1 ** order * e1 + self.a * wk ** order * ek)
            if order == 0:
                z = z + (0.5 + 0.5j)
            yield np.stack([z.real, z.imag], axis=-1)


def reference_samples(ctx):
    """The dense samples of a context's curve, cfg.curve_samples of them,
    for the references below."""
    return dense_samples(ctx.curve, ctx.cfg.curve_samples)


def sweep_reference(ctx, m):
    """The area of each index level from m meridians: along each, the index
    advances at the curve's crossings, and the exact band areas between
    consecutive crossing colatitudes are added to their levels."""
    curve, cfg = ctx.curve, ctx.cfg
    ts, pts = reference_samples(ctx)
    north = np.array([0.0, 0.0, 1.0])
    ind_n = geometry.point_index(curve, ctx.base_point, north, cfg)
    dphi = 2 * math.pi / m
    az = np.arctan2(pts[:, 1], pts[:, 0])

    def g(t, phi):
        x = curve.jet(t, 0)[0]
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
            x, v = curve.jet(t, 1)
            xn = x / np.linalg.norm(x)
            southward = -north + float(np.dot(north, xn)) * xn
            southward /= np.linalg.norm(southward)
            det = float(np.dot(xn, np.cross(v, southward)))
            jump = 1 if det > 0 else -1
            cuts.append((math.acos(max(-1.0, min(1.0, float(xn[2])))), jump))
        ind, prev = ind_n, 0.0
        for colat, jump in sorted(cuts):
            area[ind] = area.get(ind, 0.0) + dphi * (math.cos(prev) - math.cos(colat))
            ind += jump
            prev = colat
        area[ind] = area.get(ind, 0.0) + dphi * (math.cos(prev) + 1.0)
    return {i: a for i, a in area.items() if a != 0.0}


@pytest.mark.parametrize("n", [50, 100, 101])
def test_blocked_pair_scan_matches_dense_grid(n):
    # the seeding kernel keeps the seeds of the dense n x n grid, in order:
    # the crossing's far pairs, found through the boxes
    ts, pts, threshold = seed_grid(SphereFigureEight(), n)
    want = seed_reference(ts, pts, threshold)
    assert len(want) > 0 and (short_spans(n, want) > geometry._MONOTONE_SPAN).all()
    assert seed_kernel(ts, pts, threshold).tolist() == want.tolist()


@pytest.mark.parametrize("curve", [TorusCircle(0.2), Epicycle(17, 0.5)])
@pytest.mark.parametrize("n", [200, 400, 800])
def test_pair_scan_matches_dense_grid_on_loops(curve, n):
    # the circle has close pairs but no seed
    ts, pts, threshold = seed_grid(curve, n)
    assert len(close_pairs_reference(ts, pts, threshold)) > 0
    want = seed_reference(ts, pts, threshold)
    assert seed_kernel(ts, pts, threshold).tolist() == want.tolist()
    assert (len(want) > 0) is isinstance(curve, Epicycle)


@pytest.mark.parametrize("curve", [SphereFigureEight(), SphereFigureEight(0.6, 0.3),
                                   LatitudeCircle(1.0), TorusCircle(0.2)])
def test_batched_newton_equals_scalar_loop(curve):
    n = CFG.double_grid
    ts, pts, threshold = seed_grid(curve, n)
    cand = close_pairs_reference(ts, pts, threshold)
    # the near pairs that seed the search, far pairs that mostly fail, and
    # a pair of the 400-grid that, on the figure eight, meets a Jacobian
    # with det ~ -1e-6 and converges only after wandering to t ~ 1400
    seeds = np.concatenate([cand, [(i, (i + 37) % n) for i in range(0, n, 7)]])
    t1 = np.append(ts[seeds[:, 0]], 31 / 400)
    t2 = np.append(ts[seeds[:, 1]], 34 / 400)
    roots = geometry._refine_double_points(curve, t1, t2)
    expected = [newton_reference(curve, a, b) for a, b in zip(t1, t2)]
    assert list(zip(*(r.tolist() for r in roots))) == [r for r in expected if r is not None]


PROBE_EPS = 1e-3   # the offset of side probes from the curve


def arc_spans(ctx):
    """(start, end) of each arc of a context: from its start to the next
    arc's, the last one turn on."""
    starts = ctx.arc_starts
    return list(zip(starts, starts[1:] + [starts[0] + 1.0]))


def project(surface, x):
    """Ambient points x onto the surface: scaled to unit norm on the
    sphere, as they are on the torus."""
    return x / geometry._norm(x)[..., None] if surface is UNIT_SPHERE else x


def side_probes(ctx, t, eps=PROBE_EPS):
    """The points eps left and right of a context's curve at t (one
    parameter, or an array of them)."""
    surface = ctx.curve.surface
    x, v = ctx.curve.jet(t, 1)
    u = v / np.linalg.norm(v, axis=-1, keepdims=True)
    if surface is UNIT_SPHERE:
        left = np.cross(x, u)
    else:
        left = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    return project(surface, x + eps * left), project(surface, x - eps * left)


def side_probe_indices(ctx, eps=PROBE_EPS):
    """The arc indices as the side probes at the middle of every arc read
    them, on the context's own nodes as point_index reads them: the index
    of each arc's right probe.  None where a probe lies on the curve, or
    where the two probes of an arc do not differ by one."""
    t = 0.5 * np.sum(arc_spans(ctx), axis=1) % 1.0
    left, right = side_probes(ctx, t, eps)
    probes = np.concatenate((left, right))
    try:
        geometry._feet(ctx, probes, ["probe"] * len(probes))
    except PointOnCurve:
        return None
    base, *ind = geometry._winding(ctx, np.concatenate(([ctx.base_point], probes)))
    ind = [w - base for w in ind]
    above, below = ind[:len(t)], ind[len(t):]
    return below if above == [v + 1 for v in below] else None


def probe_sets(eps=PROBE_EPS):
    """(context, probes) on three curves, with the probes of every pair
    leg among: the base, side probes eps off the curve at four parameters
    and, on the sphere, the north pole and the base's antipode.  At
    eps = 2e-4 the side probes are close to the curve, so that legs between
    them end just short of a crossing of their great circle (chord line)."""
    out = []
    for ctx in (NumericContext(SphereFigureEight(), (-1.0, 0.0, 0.0), CFG),
                NumericContext(LatitudeCircle(1.0), (0.0, 0.0, -1.0), CFG),
                NumericContext(TorusCircle(0.2), (0.05, 0.05), CFG)):
        probes = [ctx.base_point] + [p for t in np.linspace(0.05, 0.95, 4)
                                     for p in side_probes(ctx, t, eps)]
        if ctx.curve.surface == UNIT_SPHERE:
            probes += [np.array([0.0, 0.0, 1.0]), -ctx.base_point]
        out.append((ctx, probes))
    return out


def test_segment_index_equals_scalar_loop():
    # every ordered pair of probes, degenerate legs of the reference skipped
    seen = set()
    for ctx, probes in probe_sets(2e-4):
        samples = reference_samples(ctx)
        for b in probes:
            for p in probes:
                want = segment_reference(ctx.curve, b, p, *samples)
                seen.add(want)
                if want is not None:
                    assert geometry.point_index(ctx.curve, b, p, ctx.cfg) == want
    assert None in seen and {-1, 0, 1} <= seen


def test_meridian_index_equals_scalar_loop():
    # a great circle through both poles, between random points
    curve = Meridian()
    samples = dense_samples(curve, CFG.curve_samples)
    rng = np.random.default_rng(5)
    bases, probes = (project(UNIT_SPHERE, rng.normal(size=(k, 3))) for k in (12, 26))
    seen = []
    for b in bases:
        got = geometry.point_index(curve, b, probes, CFG)
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
    that the context gives each, then, on the sphere, its anchor with its."""
    t = (0.5 * np.sum(arc_spans(ctx), axis=1) % 1.0)[::stride]
    left, right = side_probes(ctx, t)
    arcs = ctx.arc_index[::stride]
    pole = [(ctx.anchor, ctx.anchor_index)] if ctx.curve.surface is UNIT_SPHERE else []
    return list(zip(left, (v + 1 for v in arcs))) + list(zip(right, arcs)) + pole


@pytest.mark.parametrize("curve,base,cfg", [
    (SphereFigureEight(), (-1.0, 0.0, 0.0), CFG),
    (LatitudeCircle(1.0), (0.0, 0.0, -1.0), CFG),
    (TorusCircle(0.2), (0.05, 0.05), CFG),
    *((Epicycle(k, a), (0.05, 0.05), NumericConfig()) for k, a, _ in EPICYCLES),
])
def test_context_indices_match_scalar_loop(curve, base, cfg):
    # the arc and fixed indices of a context, on at most 8 of its arcs
    ctx = NumericContext(curve, base, cfg)
    samples = reference_samples(ctx)
    checked = 0
    for p, index in context_probes(ctx, max(1, len(ctx.arc_starts) // 8)):
        want = segment_reference(curve, ctx.base_point, p, *samples)
        if want is not None:
            assert index == want
            checked += 1
    assert checked >= 2


def test_epicycle_index_equals_scalar_loop():
    # the side probes of every other arc of the 80 crossings of k = 17, in
    # one stacked call, against a reference on a coarser sampling
    ctx = NumericContext(Epicycle(17, 0.5), (0.05, 0.05), NumericConfig(curve_samples=1024))
    probes, indices = zip(*context_probes(ctx, 2))
    got = geometry.point_index(ctx.curve, ctx.base_point, np.array(probes), ctx.cfg)
    assert got == list(indices)
    samples = reference_samples(ctx)
    checked = 0
    for p, g in zip(probes, got):
        want = segment_reference(ctx.curve, ctx.base_point, p, *samples)
        if want is not None:
            assert g == want
            checked += 1
    assert checked >= 150 and max(got) == 4


def test_stacked_point_index_equals_single_calls():
    # the base's antipode is left out, as the figure eight passes through it
    for ctx, probes in probe_sets():
        stack = np.array(probes[1:-1] if ctx.curve.surface == UNIT_SPHERE else probes[1:])
        assert geometry.point_index(ctx.curve, ctx.base_point, stack, ctx.cfg) == [
            geometry.point_index(ctx.curve, ctx.base_point, p, ctx.cfg) for p in stack]


class Polygon(ParametricCurve):
    """The closed polygon of the given vertices in the torus chart, each
    edge traversed at constant speed in an equal share of the parameter."""

    surface = FLAT_TORUS

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)

    def _jet(self, t):
        n = len(self.vertices)
        k, frac = np.divmod(t * n, 1.0)
        k = k.astype(int) % n
        start, edge = self.vertices[k], np.roll(self.vertices, -1, axis=0)[k] - self.vertices[k]
        yield start + frac[..., None] * edge
        yield n * edge
        yield np.zeros_like(edge)


def polygon_winding(vertices, points):
    """_winding of the polygon of vertices around each of points, on a
    context whose nodes are the polygon's vertices and whose anchor is far
    outside it."""
    curve = Polygon(vertices)
    ts = np.arange(len(curve.vertices)) / len(curve.vertices)
    ctx = SimpleNamespace(curve=curve, anchor=np.array([-50.0, -50.0]),
                          nodes=(ts, curve.vertices), arc_starts=[0.0])
    return geometry._winding(ctx, np.asarray(points, dtype=float))


def test_winding_on_hand_made_polygons():
    # the guarded angle sum on polygons whose vertices are the nodes: the
    # halvings of its wide steps run along the edges, and a nan point is
    # outside
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    points = np.array([[0.5, 0.5],     # inside
                       [-1.0, 0.0],    # level with the bottom edge
                       [-1.0, 1.0],    # level with the top edge
                       [0.5, 2.0],     # above
                       [np.nan, np.nan]])
    assert polygon_winding(square, points) == [1, 0, 0, 0, 0]
    assert polygon_winding(square[::-1], points) == [-1, 0, 0, 0, 0]
    assert polygon_winding(np.concatenate([square, square]), points) == [2, 0, 0, 0, 0]
    # rays through the side vertices of a diamond
    diamond = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    points = np.array([[-2.0, 0.0], [0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
    assert polygon_winding(diamond, points) == [0, 1, 1, 0]
    # stairs, and points off its edges on a grid: the ray count agrees
    stairs = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0],
                       [0.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]])
    points = np.array([[x, y] for x in (-1.5, -0.3, 0.25, 0.55, 1.5, 2.5)
                       for y in (-0.5, 0.3, 0.6, 1.5, 2.5)])
    for poly in (diamond, stairs, stairs[::-1], np.concatenate([stairs, stairs])):
        assert polygon_winding(poly, points) == winding_reference(poly, points).tolist()


FIXTURE_AND_EPICYCLE_CONTEXTS = [
    *((name, cfg) for name in ("great_circle", "latitude", "circle_torus",
                               "figure8_sphere_param")
      for cfg in (NumericConfig(), NumericConfig().halved())),
    *(((k, a), cfg) for k, a, _ in EPICYCLES
      for cfg in (NumericConfig(), NumericConfig().halved())),
]


@pytest.mark.parametrize("which,cfg", FIXTURE_AND_EPICYCLE_CONTEXTS)
def test_winding_equals_reference_on_probe_stacks(which, cfg):
    # every probe stack of a context, read on its arc nodes, against the
    # winding numbers of the closed polygon of the dense samples
    if isinstance(which, str):
        fx = parametric_fixture(which)
        curve, base = fx.curve, fx.base_point
    else:
        curve, base = Epicycle(*which), (0.05, 0.05)
    ctx = NumericContext(curve, base, cfg)
    probes, indices = zip(*context_probes(ctx))
    got = geometry.point_index(curve, base, np.array(probes), cfg)
    want, _nearest = scan_reference(curve, reference_samples(ctx), ctx.anchor,
                                    np.vstack((ctx.base_point, *probes)))
    assert got == want == list(indices)


@pytest.mark.parametrize("curve", [SphereFigureEight(), LatitudeCircle(1.0), TorusCircle(0.2),
                                   *(Epicycle(k, a) for k, a, _ in EPICYCLES)])
@pytest.mark.parametrize("n", [50, 100, 200, 400, 800])
def test_may_cross_equals_reference(curve, n):
    # the close pairs of the grid, and pairs across the seam, some of whose
    # short ways wrap it
    ts, pts, threshold = seed_grid(curve, n)
    close = close_pairs_reference(ts, pts, threshold)
    seam = np.array([(i, j) for i in range(20) for j in range(n - 20, n) if i < j])
    cand = np.concatenate([close, seam])
    got = on_pairs(geometry._may_cross, pts, cand, True)
    assert got.tolist() == may_cross_reference(pts, cand).tolist()
    wraps = (seam[:, 1] - seam[:, 0] > n // 2) & (n - (seam[:, 1] - seam[:, 0]) <= 16)
    assert wraps.any() and not got[len(close):][wraps].all()
    assert not got[:len(close)].all()


@pytest.mark.parametrize("curve", [SphereFigureEight(), LatitudeCircle(1.0), TorusCircle(0.2),
                                   *(Epicycle(k, a) for k, a, _ in EPICYCLES)])
@pytest.mark.parametrize("n", [50, 100, 200, 400, 800])
def test_turning_mask_equals_scalar_loop(curve, n):
    # the close pairs and the seam pairs of test_may_cross_equals_reference:
    # the turning decides most near pairs, _may_cross sees the close ones
    # it leaves, and the seeds are _may_cross's.  With no distance bound,
    # _may_cross sees every near pair off the diagonal band that it leaves
    ts, pts, threshold = seed_grid(curve, n)
    close = close_pairs_reference(ts, pts, threshold)
    seam = np.array([(i, j) for i in range(20) for j in range(n - 20, n) if i < j])
    straight = turns_little_reference(pts, np.concatenate([close, seam]))
    undecided = (short_spans(n, close) <= geometry._MONOTONE_SPAN) & ~straight[:len(close)]
    seeds, asked = ways_to_may_cross(ts, pts, threshold)
    assert asked == list(map(tuple, close[undecided].tolist()))
    assert seeds.tolist() == close[may_cross_reference(pts, close)].tolist()
    sep = np.abs(ts[seam[:, 0]] - ts[seam[:, 1]])
    undecided = ((short_spans(n, seam) <= geometry._MONOTONE_SPAN) & ~straight[len(close):]
                 & ~(np.minimum(sep, 1.0 - sep) < geometry.DIAG_GAP))
    _, asked = ways_to_may_cross(ts, pts, math.inf)
    assert set(asked) & set(map(tuple, seam.tolist())) == set(map(tuple, seam[undecided].tolist()))
    assert straight[:len(close)].any() and straight[len(close):].any()


def test_turning_leaves_zero_length_segments_undecided():
    # a repeated grid sample: its segment has no direction.  The pairs whose
    # short way holds it are left to _may_cross, with no RuntimeWarning; no
    # distance bound keeps any of these pairs from the kernel
    n = 100
    ts = np.arange(n) / n
    pts = TorusCircle(0.2).jet(ts, 0)[0]
    pts[[41, 97]] = pts[[40, 96]]   # segments 40 and 96 have zero length
    cand = np.array([(i, j) for i in range(n) for j in range(i + 1, min(i + 9, n))]
                    + [(2, 95), (1, 99)])   # short ways across the seam, one through 96
    zero = np.array([(i <= 40 < j or i <= 96 < j) if 2 * (j - i) <= n else j <= 96
                     for i, j in cand.tolist()])
    straight = turns_little_reference(pts, cand)
    assert zero.sum() == 58 and not straight[zero].any() and straight[~zero].all()
    seeds, asked = ways_to_may_cross(ts, pts, math.inf)
    pairs = set(map(tuple, cand.tolist()))
    assert [p for p in asked if p in pairs] == sorted(map(tuple, cand[zero].tolist()))
    kept = [p for p in map(tuple, seeds.tolist()) if p in pairs]
    assert kept == sorted(map(tuple, cand[may_cross_reference(pts, cand)].tolist()))
    assert kept == sorted(map(tuple, cand[zero].tolist()))


def test_distinct_roots_equals_greedy_loop_on_hand_made_roots():
    tol = geometry.MERGE_TOL
    rng_seam = np.random.default_rng(4)
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
        # first parameters across the seam, found only through the shifted
        # copies of an earlier root's parameters: its first, then its second
        # (swapped orientation), and t = 1, where a tiny negative root
        # rounds mod 1
        ([1 - 0.8 * tol, 0.1 * tol, 1.0, 0.0, 0.5 * tol], [0.5, 0.5, 0.7, 0.7, 0.7]),
        ([0.1 * tol, 1 - 0.8 * tol, 0.9 * tol], [0.5, 0.5, 0.5]),
        ([0.5, 0.2 * tol, 1 - 0.3 * tol], [1 - 0.7 * tol, 0.5, 0.5]),
        ([0.6, 0.6, 0.6, 0.6], [1.9 * tol, 1 - 0.05 * tol, 3.9 * tol, 1 - 2.1 * tol]),
    ]
    for centre in ((0.0, 0.4), (1 - 2 * tol, 0.7), (0.2, 1 - 3 * tol)):
        roots = (np.array(centre) + rng_seam.normal(scale=1.5 * tol, size=(40, 2))) % 1.0
        cases.append((roots[:, 0], roots[:, 1]))
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
    met = np.array([residual_reference(curve, a, b) for a, b in zip(t1, t2)], dtype=bool)
    t1, t2 = t1[met], t2[met]
    keep = geometry._distinct_roots(t1, t2)
    assert keep.tolist() == merge_reference(t1, t2)
    assert sorted(zip(t1[keep].tolist(), t2[keep].tolist())) == [(d.t1, d.t2) for d in found]


@pytest.mark.parametrize("cfg", [NumericConfig(), NumericConfig().halved()])
def test_latitude_seam_fixed_index(cfg):
    # a regression case for the seam of the chart polygon: the latitude of
    # numeric_verify seed 7, spec 13, from the south pole; its anchor is
    # the north pole, farther from it than the south pole
    ctx = NumericContext(LatitudeCircle(2.0150167225273448), (0.0, 0.0, -1.0), cfg)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert geometry.point_index(ctx.curve, ctx.base_point, poles, cfg) == [1, 0]
    assert UNIT_SPHERE.anchor(ctx.nodes[1]).tolist() == ctx.anchor.tolist() == [0.0, 0.0, 1.0]
    assert ctx.anchor_index == 1


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
    # the context's winding numbers of its anchor and base, in one pass, as
    # point_index reads its base's and every probe's
    calls = []
    winding = geometry._winding
    monkeypatch.setattr(geometry, "_winding",
                        lambda *args: calls.append(1) or winding(*args))
    fx = parametric_fixture(name)
    NumericContext(fx.curve, fx.base_point)
    assert len(calls) == 1


@pytest.mark.parametrize("name,crossings", [("figure8_sphere_param", 1), ("great_circle", 0)])
@pytest.mark.parametrize("cfg", [NumericConfig(), NumericConfig().halved()])
def test_context_evaluates_each_array_once(monkeypatch, name, crossings, cfg):
    # the arc nodes take one jet; each Newton step one jet of both
    # parameters of its live seeds (fewer than _JOINT_JET), for as many
    # steps as the slowest seed's scalar loop takes; the Newton roots one
    # jet of order 1 (none on an embedded curve); nothing evaluates an empty
    # array; and the sphere's pole, the anchor, is chosen once, for its
    # index, the chart and the area form
    calls, poles, finding, seeds = [], [], [], []
    jet, find, anchor = ParametricCurve.jet, geometry.find_double_points, UNIT_SPHERE.anchor
    refine = geometry._refine_double_points

    def counted_jet(curve, t, order=2):
        calls.append((np.size(t), order, bool(finding)))
        return jet(curve, t, order)

    def counted_find(*args):
        finding.append(1)
        try:
            return find(*args)
        finally:
            finding.clear()

    monkeypatch.setattr(ParametricCurve, "jet", counted_jet)
    monkeypatch.setattr(geometry, "find_double_points", counted_find)
    monkeypatch.setattr(UNIT_SPHERE, "anchor", lambda pts: poles.append(1) or anchor(pts))
    monkeypatch.setattr(geometry, "_refine_double_points",
                        lambda curve, t1, t2: seeds.append((t1, t2)) or refine(curve, t1, t2))
    fx = parametric_fixture(name)
    ctx = NumericContext(fx.curve, fx.base_point, cfg)
    assert len(ctx.double_points) == crossings
    nodes = len(ctx.arc_starts) * cfg.line_nodes
    assert [c for c in calls if c[0] == nodes] == [(nodes, 2, False)]
    lower = [(size, order) for size, order, inside in calls if inside and order < 2]
    assert lower[0] == (cfg.double_grid, 1)   # the seed grid
    assert [order for _, order in lower[1:]] == [1] * crossings
    assert all(size % 2 == 0 for size, _ in lower[1:])   # both parameters of each root
    assert all(size for size, _, _ in calls)
    assert len(poles) == 1
    newton = [size for size, order, inside in calls if inside and order == 2]
    (t1, t2), = seeds
    assert all(size % 2 == 0 for size in newton) and sum(newton[:1]) == 2 * len(t1)
    steps = 0
    for a, b in zip(t1, t2):   # the scalar loop makes two jets a step
        calls.clear()
        newton_reference(fx.curve, a, b)
        steps = max(steps, len(calls) // 2)
    assert len(newton) == steps
    assert (steps > 0) == (crossings > 0)


@pytest.mark.parametrize("name", ["great_circle", "latitude", "figure8_sphere_param"])
def test_fixture_indices_equal_scalar_loop(name):
    # at both grids every probe index of these contexts equals the count
    # along its leg from the base, or, where that leg is degenerate, along
    # the two legs through a waypoint
    fx = parametric_fixture(name)
    via = project(UNIT_SPHERE, np.array([0.3, -0.5, 0.8]))
    for cfg in (NumericConfig(), NumericConfig().halved()):
        ctx = NumericContext(fx.curve, fx.base_point, cfg)
        samples = reference_samples(ctx)
        for p, index in context_probes(ctx):
            want = segment_reference(fx.curve, ctx.base_point, p, *samples)
            if want is None:
                want = (segment_reference(fx.curve, ctx.base_point, via, *samples)
                        + segment_reference(fx.curve, via, p, *samples))
            assert index == want


def test_figure_eight_refines_few_seeds(monkeypatch):
    seeds = []
    refine = geometry._refine_double_points
    monkeypatch.setattr(geometry, "_refine_double_points",
                        lambda curve, t1, t2: seeds.append(len(t1)) or refine(curve, t1, t2))
    (_,) = find_double_points(parametric_fixture("figure8_sphere_param").curve)
    assert seeds and seeds[0] <= 60   # every close pair: 1349


JET_CURVES = [GreatCircle(), LatitudeCircle(math.pi / 3), LatitudeCircle(2.5),
              SphereFigureEight(), SphereFigureEight(0.2, 0.1), TorusCircle(),
              TorusCircle(0.35, center=(0.4, 0.6)), Meridian(), Epicycle(17, 0.5)]


@pytest.mark.parametrize("curve", JET_CURVES, ids=lambda c: type(c).__name__)
def test_jet_derivatives_match_central_differences(curve):
    # p' and p'' against central differences of p and p': a sign or factor
    # slip in one formula is off by the size of the derivative itself
    t, h = (np.arange(64) + 0.37) / 64, 1e-6
    here, ahead, behind = curve.jet(t), curve.jet(t + h, 1), curve.jet(t - h, 1)
    for k in (1, 2):
        diff = (ahead[k - 1] - behind[k - 1]) / (2 * h)
        scale = np.max(np.linalg.norm(here[k], axis=-1))
        assert np.max(np.linalg.norm(diff - here[k], axis=-1)) < 1e-6 * scale


@pytest.mark.parametrize("curve", JET_CURVES, ids=lambda c: type(c).__name__)
@pytest.mark.parametrize("t", [0.3, (np.arange(50) + 0.5) / 50], ids=["scalar", "array"])
def test_lower_order_jets_are_bitwise_prefixes(curve, t):
    full = curve.jet(t)
    assert len(full) == 3
    assert all(term.shape == np.shape(t) + full[0].shape[-1:] for term in full)
    for order in (0, 1):
        low = curve.jet(t, order)
        assert len(low) == order + 1
        assert [a.tobytes() for a in low] == [a.tobytes() for a in full[:order + 1]]


@pytest.mark.parametrize("curve", JET_CURVES, ids=lambda c: type(c).__name__)
def test_pair_jet_equals_two_jets(curve):
    # one joint jet up to _JOINT_JET parameters each, one jet each above:
    # the same bits either way, since a jet is elementwise
    rng, cap = np.random.default_rng(7), geometry._JOINT_JET
    jet = ParametricCurve.jet
    for m, order in ((1, 2), (7, 1), (60, 2), (cap, 2), (cap + 1, 1)):
        t1, t2 = rng.random(m + 9), rng.random(m + 9)
        at = rng.permutation(m + 9)[:m]   # live seeds, in any order
        sizes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ParametricCurve, "jet",
                       lambda c, t, order=2: sizes.append(np.size(t)) or jet(c, t, order))
            got = geometry._pair_jet(curve, t1, t2, at, order)
        assert sizes == ([2 * m] if m <= cap else [m, m])
        want = (curve.jet(t1[at], order), curve.jet(t2[at], order))
        for g, w in zip(got, want):
            assert [a.shape for a in g] == [a.shape for a in w]
            assert [a.tobytes() for a in g] == [a.tobytes() for a in w]


# -- component arithmetic against the numpy helpers it replaced ----------------

PARAMS = {"scalar": 0.3, "1-D": (np.arange(50) + 0.5) / 50,
          "arcs x nodes": ((np.arange(24) + 0.25) / 24).reshape(4, 6)}
FIXTURE_CURVES = [GreatCircle(), LatitudeCircle(math.pi / 3), SphereFigureEight(),
                  SphereFigureEight(0.2, 0.1), TorusCircle(), TorusCircle(0.35, center=(0.4, 0.6))]


def jet_reference(curve, t):
    """p, p', p'' as the fixture curves wrote them with np.stack, and the
    figure eight's tilt as a matrix product."""
    s = 2 * math.pi * np.asarray(t, dtype=float)
    w = 2 * math.pi
    if isinstance(curve, SphereFigureEight):
        c, d = math.cos(curve.tilt), math.sin(curve.tilt)
        rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -d], [0.0, d, c]])
        s = s + curve.phase
        c2, s2, s1 = np.cos(2 * s), np.sin(2 * s), np.sin(s)
        return (np.stack([0.5 * (1.0 + c2), 0.5 * s2, s1], axis=-1) @ rot.T,
                w * np.stack([-s2, c2, np.cos(s)], axis=-1) @ rot.T,
                w ** 2 * np.stack([-2 * c2, -2 * s2, -s1], axis=-1) @ rot.T)
    c, d, z = np.cos(s), np.sin(s), np.zeros_like(s)
    if isinstance(curve, TorusCircle):
        return (curve.center + curve.rho * np.stack([c, d], axis=-1),
                w * curve.rho * np.stack([-d, c], axis=-1),
                -w ** 2 * curve.rho * np.stack([c, d], axis=-1))
    sa, ca = ((1.0, 0.0) if isinstance(curve, GreatCircle)
              else (math.sin(curve.alpha), math.cos(curve.alpha)))
    return (np.stack([sa * c, sa * d, ca * np.ones_like(s)], axis=-1),
            w * sa * np.stack([-d, c, z], axis=-1),
            -w ** 2 * sa * np.stack([c, d, z], axis=-1))


def assert_same(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("curve", FIXTURE_CURVES, ids=lambda c: type(c).__name__)
@pytest.mark.parametrize("t", PARAMS.values(), ids=PARAMS.keys())
def test_jets_match_stack_reference(curve, t):
    want = jet_reference(curve, t)
    for order in (0, 1, 2):
        got = curve.jet(t, order)
        assert len(got) == order + 1
        for g, w in zip(got, want):
            assert_same(g, w)


@pytest.mark.parametrize("curve", FIXTURE_CURVES, ids=lambda c: type(c).__name__)
@pytest.mark.parametrize("t", PARAMS.values(), ids=PARAMS.keys())
def test_norms_and_curvature_match_helper_formulas(curve, t):
    x, v, a = curve.jet(t)
    for u in (x, v, a):
        assert_same(geometry._norm(u), np.linalg.norm(u, axis=-1))
    speed = np.linalg.norm(v, axis=-1)
    if curve.surface is FLAT_TORUS:
        turn = v[..., 0] * a[..., 1] - v[..., 1] * a[..., 0]
    else:
        turn = np.einsum("...i,...i->...", x, np.cross(v, a))
    assert_same(geometry.geodesic_curvature(curve, t), turn / speed ** 3)


@pytest.mark.parametrize("curve", FIXTURE_CURVES[:4], ids=lambda c: type(c).__name__)
@pytest.mark.parametrize("t", PARAMS.values(), ids=PARAMS.keys())
def test_sphere_frames_match_helper_formulas(curve, t):
    x, v, a = curve.jet(t)
    for frame in ((v, a), (a, v), (x, v)):
        assert_same(UNIT_SPHERE.orientation(x, *frame),
                    np.einsum("...i,...i->...", x, np.cross(*frame)))
    for s in np.vstack((np.eye(3), -np.eye(3))):   # the six poles, those off the curve
        if np.min(1.0 - x @ s) < 1e-3:
            continue
        assert_same(UNIT_SPHERE.area_form(s, x, v), -(np.cross(x, v) @ s) / (1.0 - x @ s))


def test_contexts_call_no_numpy_helper(monkeypatch):
    # the kernels' frames, norms, jets and pair table are written in
    # components: at a context's array sizes these helpers' per-call checks
    # cost more than their arithmetic
    calls = []

    def counting(name, helper):
        return lambda *args, **kw: calls.append(name) or helper(*args, **kw)

    for owner, name in ((np, "cross"), (np.linalg, "norm"), (np, "ptp"), (np, "split"),
                        (np, "stack")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for name in PARAMETRIC_NAMES:
        fx = parametric_fixture(name)
        for cfg in (NumericConfig(), NumericConfig().halved()):
            ctx = NumericContext(fx.curve, fx.base_point, cfg)
            geometry.extract_diagram(fx.curve, fx.base_point, cfg, context=ctx)
    assert calls == []
