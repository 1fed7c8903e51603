"""The numeric route's array kernels against what they replaced.

The references below are the dense n x n pair grid and the one-seed /
one-interval loops that the kernels in curveinv.geometry run for all seeds
or intervals at once, with the same seeds, iteration counts and
accept/reject tests.  Where a kernel keeps the loop's arithmetic the
results must be equal.  The meridian sweep that the Stokes level areas
replaced is kept as a first-order reference: with m meridians it must lie
within 2 pi / m of them.  The secant
root search must land within 1e-14 of the 80-step bisection it replaced,
which is kept as a reference, and is also run on hand-made brackets; the
windowed pair scan must return the pairs of the dense grid in the same
order; double-point seeding skips pairs that cannot cross, and seeding
from every close pair is kept as a reference.
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


def bisect_reference(curve, lo, hi, flo, f):
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = f(curve.point(mid))
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    return lo, hi


def double_points_all_seeds(curve, cfg):
    """find_double_points seeded from every close pair of the grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_may_cross", lambda pts, cand: np.ones(len(cand), dtype=bool))
        return find_double_points(curve, cfg)


# (k, a, crossings) of the epicycles below
EPICYCLES = [(5, 0.5, 4), (9, 0.5, 24), (17, 0.5, 80), (13, 0.45, 36)]


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
    monkeypatch.setattr(geometry, "PROBE_EPS", 2e-4)
    seen = set()
    for ctx, probes in probe_sets():
        for b in probes:
            for p in probes:
                got = geometry._leg_counts(ctx.curve, [ctx.curve.surface.leg(b, p)],
                                           *ctx.samples)[0]
                assert got == segment_reference(ctx.curve, b, p, *ctx.samples)
                seen.add(got)
    assert None in seen and {-1, 0, 1} <= seen


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


@pytest.mark.parametrize("curve,base,cfg", [
    (SphereFigureEight(), (-1.0, 0.0, 0.0), CFG),
    (LatitudeCircle(1.0), (0.0, 0.0, -1.0), CFG),
    (TorusCircle(0.2), (0.05, 0.05), CFG),
    *((Epicycle(k, a), (0.05, 0.05), NumericConfig()) for k, a, _ in EPICYCLES),
])
def test_secant_roots_match_80_step_bisection(monkeypatch, curve, base, cfg):
    # the root search of a context (its probe brackets) lands inside its
    # brackets, within 1e-14 of the 80-step bisection, in at most 8 passes
    roots = geometry._secant_roots
    passes = []

    def both(curve, lo, hi, flo, fhi, f):
        def counted(x):
            passes[-1] += 1
            return f(x)
        passes.append(0)
        got = roots(curve, lo, hi, flo, fhi, counted)
        ref_lo, ref_hi = bisect_reference(curve, lo, hi, flo, f)
        want = np.where(flo == 0.0, ref_lo, 0.5 * (ref_lo + ref_hi))
        assert np.all((lo <= got) & (got <= hi))
        assert np.max(np.abs(got - want)) <= 1e-14
        return got

    monkeypatch.setattr(geometry, "_secant_roots", both)
    NumericContext(curve, base, cfg)
    assert len(passes) == 1
    assert max(passes) <= 8


class Line(ParametricCurve):
    """The parameter itself as a one-coordinate point: a root search on
    Line() finds a sign change of f(t)."""

    def point(self, t):
        return np.asarray(t, dtype=float)[:, None]


def line_roots(f, lo, hi):
    """_secant_roots of f on the brackets [lo, hi], and for each pass the
    number of brackets that evaluated the midpoint of their bracket."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    a, b, fa = lo.copy(), hi.copy(), f(lo)
    midpoints = []

    def g(x):
        x = x[:, 0]
        fx = f(x)
        midpoints.append(int(np.sum(x == 0.5 * (a + b))))
        up = np.sign(fx) == np.sign(fa)
        a[up], fa[up], b[~up] = x[up], fx[up], x[~up]
        return fx

    return geometry._secant_roots(Line(), lo, hi, f(lo), f(hi), g), midpoints


def test_secant_roots_stop_where_f_vanishes():
    # f = 0 at an end: that end, without a pass; at the first
    # false-position point: that point, after one pass
    f = lambda t: t - 0.25
    t, passes = line_roots(f, [0.25, 0.0], [1.0, 0.25])
    assert t.tolist() == [0.25, 0.25] and passes == []
    t, passes = line_roots(f, [0.0], [1.0])
    assert t.tolist() == [0.25] and len(passes) == 1


def test_secant_roots_keep_a_sign_change():
    # three sign changes in one bracket: the root found is one of them
    zeros = np.array([0.2, 0.5, 0.7])
    f = lambda t: (t - zeros[0]) * (t - zeros[1]) * (t - zeros[2])
    lo, hi = [0.0, 0.1, 0.05, 0.15], [1.0, 0.9, 0.75, 0.85]
    t, _ = line_roots(f, lo, hi)
    assert np.all((lo <= t) & (t <= hi))
    assert np.all(np.min(np.abs(t[:, None] - zeros), axis=1) <= 1e-14)


def test_secant_roots_fall_back_to_midpoints():
    # false position creeps along t^20 - r^20 from t = 0: a bracket that
    # has not halved in two passes takes its midpoint, and still ends
    # within 1e-14 of the root in fewer passes than bisection
    r = np.array([0.3, 0.55, 0.6, 0.9])
    t, midpoints = line_roots(lambda t: t ** 20 - r ** 20, np.zeros(4), np.ones(4))
    assert np.max(np.abs(t - r)) <= 1e-14
    assert sum(midpoints) > 0 and len(midpoints) < 53
    # a jump of f with no zero: every step is a midpoint, and the search
    # ends within ROOT_TOL of where the bisection does
    step = lambda t: np.where(t < 0.3, -1.0, 1.0)
    t, midpoints = line_roots(step, [0.0], [1.0])
    lo, hi = bisect_reference(Line(), np.zeros(1), np.ones(1), -np.ones(1),
                              lambda x: step(x[:, 0]))
    assert abs(t[0] - 0.5 * (lo[0] + hi[0])) <= geometry.ROOT_TOL
    assert midpoints == [1] * len(midpoints)


def test_joint_leg_counts_equal_scalar_loop(monkeypatch):
    # one joint call over every pair leg of each probe set, degenerate
    # legs included
    monkeypatch.setattr(geometry, "PROBE_EPS", 2e-4)
    seen = set()
    for ctx, probes in probe_sets():
        pairs = [(b, p) for b in probes for p in probes]
        legs = [ctx.curve.surface.leg(b, p) for b, p in pairs]
        joint = geometry._leg_counts(ctx.curve, legs, *ctx.samples)
        for (b, p), got in zip(pairs, joint):
            assert got == segment_reference(ctx.curve, b, p, *ctx.samples)
            seen.add(got)
        # the stacked point_index routes each probe as a call of its own;
        # the base's antipode is left out, as the figure eight passes through it
        stack = np.array(probes[1:-1] if ctx.curve.surface == UNIT_SPHERE else probes[1:])
        assert geometry.point_index(ctx.curve, ctx.base_point, stack, samples=ctx.samples) == [
            geometry.point_index(ctx.curve, ctx.base_point, p, samples=ctx.samples)
            for p in stack]
    assert None in seen and {-1, 0, 1} <= seen


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
def test_context_runs_one_root_search(monkeypatch, name):
    calls = []
    roots = geometry._secant_roots
    monkeypatch.setattr(geometry, "_secant_roots",
                        lambda *args: calls.append(1) or roots(*args))
    fx = parametric_fixture(name)
    NumericContext(fx.curve, fx.base_point)
    assert len(calls) == 1   # one joint probe root search


@pytest.mark.parametrize("name", ["great_circle", "latitude", "figure8_sphere_param"])
def test_side_probe_legs_are_not_degenerate(monkeypatch, name):
    # no probe leg of these contexts needs a re-route: the poles are probed
    # through a waypoint, and the side probes sit off the sample lattice
    counts = []
    leg_counts = geometry._leg_counts

    def recorded(*args):
        out = leg_counts(*args)
        counts.extend(out)
        return out

    monkeypatch.setattr(geometry, "_leg_counts", recorded)
    fx = parametric_fixture(name)
    for cfg in (NumericConfig(), NumericConfig().halved()):
        counts.clear()
        NumericContext(fx.curve, fx.base_point, cfg)
        assert counts and None not in counts


def test_figure_eight_refines_few_seeds(monkeypatch):
    seeds = []
    refine = geometry._refine_double_points
    monkeypatch.setattr(geometry, "_refine_double_points",
                        lambda curve, t1, t2: seeds.append(len(t1)) or refine(curve, t1, t2))
    (_,) = find_double_points(parametric_fixture("figure8_sphere_param").curve)
    assert seeds and seeds[0] <= 60   # every close pair: 1349
