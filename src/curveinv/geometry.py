"""Numerical differential geometry on the round sphere and the flat torus.

This module evaluates the curve invariants from their integral definitions
and bridges back to the combinatorial machinery, giving an independent
cross-check of the exact formulas:

    I_q = (1/2pi) [ integral k_g q^(ind) ds
                    - sum_d theta_d q^(ind d) (q^(1/2) - q^(-1/2))
                    + integral_S K (q^(ind) - 1)/(q^(1/2) - q^(-1/2)) dA ]

A curve is a surface plus one evaluation, jet(t, order): its position and
first two derivatives at a parameter array, each formula written once, and
every kernel below reads one jet per array.  Each model surface,
UNIT_SPHERE or FLAT_TORUS, is one object holding every formula that
differs between surfaces.  On the unit sphere K = 1 and each
index level's area is, by Stokes, the integral of a 1-form alpha with
d alpha = dA along the arcs that bound it, plus 4 pi for the level holding
alpha's singular point.  In I_q each arc's integral of alpha joins its
integral of k_g ds, so agreement with the exact I_q tests their sum per
arc, not the areas.  On the flat torus K = 0 and the area term vanishes.
The index of a point is the curve's winding number around it in a planar
chart of the surface (stereographic on the sphere, the fundamental domain
on the torus), less that around the base point.  The arc indices are
prefix sums of the crossing signs along the curve plus one constant, fixed
by one anchor point (surface.anchor): its index, and its face read at its
foot on the curve (_face_dart).  The anchor is the chart's corner (0, 0),
in the genus-1 face, on the torus; on the sphere it is the axis pole
farthest from the curve, which is also the chart's point at infinity and
alpha's singular point, whose level alpha reads as the anchor's index.
The base point's face is read once, with the anchor's (base_dart), and
must have index 0 by the arc indices.  A base at the pole is the anchor:
its misread face shifts every arc index, and the level areas, whose 4 pi
goes by the pole's winding number, fail.

Each entry point answers from one NumericContext, new or given; a given
one must be that of the call (_context), else ValueError.  It builds the
extracted diagram and its profile once, on first read.

A context derives each fact of its two grids once: the seed grid of
find_double_points, with one jet per Newton step and one for the roots
(up to _JOINT_JET seeds), and the Gauss-Legendre nodes of the arcs, whose
one jet serves both line integrals and every point reading.  The anchor
is chosen from the nodes.  A winding number is the sum of the steps of
the angle of the curve's chart around the point's from node to node, a
new node halving any step whose chord is as long as the point's distance
to its nearer end; one pass reads those of a batch of points (_winding).
A face is read at a point's foot, reached by Newton's method from its
nearest node (_feet).

Orientation conventions match the diagram module: the left of the curve is
the tangent rotated +90 degrees (outward normal on the sphere), a small
counterclockwise contractible loop has positive geodesic curvature and
interior index +1, and crossing signs come from the frame of the two
visiting tangents in visit order.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .diagram import (
    LEFT,
    RIGHT,
    SignedGaussCode,
    _assemble_diagram,
    _check_half_integer,
    _region_table,
    _trace,
    dart_arc,
    dart_id,
    dart_side,
    index_function,
    subsurface_profile,
)
from .errors import (
    ChartViolation,
    ChiZero,
    DegenerateTangency,
    InvalidBasePoint,
    InvalidConfig,
    NonPositiveQ,
    PointOnCurve,
    QOverflow,
    TopologyError,
)

TWO_PI = 2.0 * math.pi

PARAM_TOL = 1e-12      # Newton convergence in parameter
POSITION_TOL = 1e-9    # accepted residual distance at a crossing
MERGE_TOL = 1e-8       # duplicate merge radius in parameter space
ANGLE_FLOOR = 1e-4     # genericity floor on crossing angles (rad)
DIAG_GAP = 5e-3        # excluded |t1 - t2| band near the diagonal
POINT_TOL = 1e-6       # minimum probe distance from the curve


# the smallest size of each grid; a seed grid of more than 2 _MONOTONE_SPAN
# samples gives each near pair one short way (_seed_pairs)
_FLOORS = {"double_grid": 50, "line_nodes": 8, "curve_samples": 512}


@dataclass(frozen=True)
class NumericConfig:
    """Grid sizes of the numerical path; `halved` gives the coarser grid.
    Each size is an int (not a bool) at or above its floor in _FLOORS, or
    the config raises InvalidConfig."""

    double_grid: int = 400        # coarse grid per parameter for double points
    line_nodes: int = 96          # Gauss-Legendre nodes per smooth arc
    meridians: int = 1024         # read by nothing, kept for callers
    curve_samples: int = 8192     # read by nothing, kept for callers

    def __post_init__(self):
        for name, floor in _FLOORS.items():
            size = getattr(self, name)
            if not isinstance(size, int) or size < floor:   # a bool is below every floor
                raise InvalidConfig(f"{name} must be an integer of at least {floor}, got {size!r}")

    def halved(self):
        """The next-coarsest grid, used for error estimates."""
        return replace(self, **{name: max(floor, getattr(self, name) // 2)
                                for name, floor in _FLOORS.items()})


# ---------------------------------------------------------------------------
# component arithmetic on (..., d) arrays, in place of np.stack, np.cross and
# np.linalg.norm, whose per-call argument handling costs more than their
# arithmetic on the few hundred rows of a context's arrays


def _columns(*cols):
    """np.stack(cols, axis=-1): the (..., d) array of the d columns cols.
    The first is an array, of shape () at a scalar parameter (the result
    then has shape (d,)); the others have its shape or are numbers."""
    first = cols[0]
    out = np.empty(first.shape + (len(cols),), first.dtype)
    for k, c in enumerate(cols):
        out[..., k] = c
    return out


def _norm(v):
    """|v| along the last axis, the squares summed in np.linalg.norm's order."""
    return np.sqrt(functools.reduce(np.add, [v[..., k] * v[..., k] for k in range(v.shape[-1])]))


def _cross(u, w):
    """The three columns of u x w, each formed as np.cross forms it."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    w0, w1, w2 = w[..., 0], w[..., 1], w[..., 2]
    return u1 * w2 - u2 * w1, u2 * w0 - u0 * w2, u0 * w1 - u1 * w0


# ---------------------------------------------------------------------------
# model surfaces; each has chi, dim (the length of a point) and these methods,
# each a formula of its arguments:
#   orientation(x, u, w)  det of the frame (u, w) in the tangent plane at x
#   place(x, name)        finite (k, dim) points x as a context reads them;
#                         InvalidBasePoint, naming one off the surface
#   anchor(pts)           the point off the curve whose index and face fix
#                         the arc indices, chosen from the arc nodes pts
#   plane(anchor, x)      points x in an orientation-preserving planar chart
#                         of the surface, less the anchor on the sphere,
#                         which maps to nan
#   area_form(anchor, x, v)  alpha(v) at curve points x, d alpha = K dA,
#                         singular at the anchor; None where K = 0
#   regions(nodes, outer, cycles)  (genus, cycles) of each face, from the
#                         arc nodes and the anchor's dart outer; None: disks


class _UnitSphere:
    """The unit sphere in R^3: K = 1, chi = 2."""

    chi = 2
    dim = 3

    def orientation(self, x, u, w):
        c0, c1, c2 = _cross(u, w)
        return x[..., 0] * c0 + x[..., 1] * c1 + x[..., 2] * c2

    def place(self, x, name):
        """x itself, if each point's norm is 1 within 1e-9."""
        for point in x.tolist():
            if not abs(math.hypot(*point) - 1.0) <= 1e-9:
                raise InvalidBasePoint(f"{name} {tuple(point)} is not on the unit sphere")
        return x

    def anchor(self, pts):
        """The pole s = sign e_a: the one of +-e1, +-e2, +-e3 whose nearest
        node of pts is farthest."""
        # reduced along rows of a contiguous copy: an axis-0 reduction of pts
        # is far slower
        cols = np.ascontiguousarray(pts.T)
        k = int(np.argmin(np.concatenate((cols.max(axis=1), -cols.min(axis=1)))))
        s = np.zeros(3)
        s[k % 3] = 1.0 if k < 3 else -1.0
        return s

    def plane(self, anchor, x):
        """Stereographic projection of x from the pole s = anchor onto axes
        (e1, e2) with (e1, e2, -s) right-handed."""
        a = int(np.abs(anchor).argmax())
        sign = anchor[a]
        e1, e2 = (a + 2) % 3, (a + 1) % 3
        if sign < 0:
            e1, e2 = e2, e1
        d = 1.0 - sign * x[..., a]
        out = np.empty(d.shape + (2,))   # written in place: x may hold every node
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x[..., e1], d, out=out[..., 0])
            np.divide(x[..., e2], d, out=out[..., 1])
        out[~(d > 0.0)] = np.nan
        return out

    def regions(self, nodes, outer, cycles):
        return None   # every face of a connected curve is a disk

    def area_form(self, s, x, v):
        """alpha = -s.(x cross v) / (1 - s.x), with d alpha = dA away from
        the pole s, the anchor.  s = sign e_a, so both dot products read
        component a alone."""
        a = int(np.abs(s).argmax())
        i, j = (a + 1) % 3, (a + 2) % 3
        cross = x[..., i] * v[..., j] - x[..., j] * v[..., i]
        return -(s[a] * cross) / (1.0 - s[a] * x[..., a])


class _FlatTorus:
    """The flat torus, fundamental domain [0,1)^2: K = 0, chi = 0; curves
    are given by their plane lift."""

    chi = 0
    dim = 2

    def orientation(self, x, u, w):
        return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

    def place(self, x, name):
        """x reduced mod 1 into the chart [0, 1)^2."""
        x = x % 1.0
        return np.where(x < 1.0, x, 0.0)   # a tiny negative coordinate rounds to 1

    def anchor(self, pts):
        return np.zeros(2)   # the chart's corner, outside the curve

    def plane(self, anchor, x):
        return x   # the chart holds the curve's plane lift

    def area_form(self, anchor, x, v):
        return None   # K = 0: no area term

    def regions(self, nodes, outer, cycles):
        """Genus 1 for the chart-unbounded face, 0 for the others: the face
        of outer, the anchor's at the chart's corner (0, 0).  The curve
        must stay 1e-6 inside the chart; between two arc nodes a parameter
        step h apart it strays at most max|x''| h^2 / 8 from their chord."""
        ts, x, _v, acc = nodes
        h = max(float((ts[1:] - ts[:-1]).max()), ts[0] + 1.0 - ts[-1])
        sag = float(_norm(acc).max()) * h * h / 8
        if x.min() - sag < 1e-6 or x.max() + sag > 1 - 1e-6:
            raise ChartViolation("the curve leaves the open fundamental-domain chart")
        return [(1 if outer in cycle else 0, (c,)) for c, cycle in enumerate(cycles)]


UNIT_SPHERE = _UnitSphere()
FLAT_TORUS = _FlatTorus()


class ParametricCurve:
    """A smooth closed curve, parametrized by t in [0, 1).

    `jet` is the curve's one evaluation; a subclass writes each formula
    once, in the generator `_jet(t)` of p(t), p'(t), p''(t) at an array t.
    `surface` is UNIT_SPHERE (K = 1) or FLAT_TORUS (K = 0, fundamental
    domain [0,1)^2, curve given by its plane lift).
    """

    surface = None

    def jet(self, t, order=2):
        """(p, p', p'')[:order + 1] at t, a parameter or an array of them,
        from one evaluation of the curve's trigonometric functions.  Only
        the terms asked for are computed: a caller of points alone asks for
        order=0."""
        return tuple(itertools.islice(self._jet(np.asarray(t, dtype=float)), order + 1))

    def _jet(self, t):
        raise NotImplementedError


class GreatCircle(ParametricCurve):
    """The equator of the unit sphere, counterclockwise around the north pole."""

    surface = UNIT_SPHERE

    def _jet(self, t):
        s = TWO_PI * t
        c, d = np.cos(s), np.sin(s)
        yield _columns(c, d, 0.0)
        yield _columns(TWO_PI * -d, TWO_PI * c, 0.0)
        yield _columns(-TWO_PI ** 2 * c, -TWO_PI ** 2 * d, 0.0)


class LatitudeCircle(ParametricCurve):
    """The circle at colatitude alpha, traversed eastward (counterclockwise
    as seen from the north pole), so its geodesic curvature is cot(alpha)."""

    surface = UNIT_SPHERE

    def __init__(self, alpha):
        if not 0 < alpha < math.pi:
            raise ValueError("colatitude must lie in (0, pi)")
        self.alpha = float(alpha)

    def _jet(self, t):
        s = TWO_PI * t
        sa, ca = math.sin(self.alpha), math.cos(self.alpha)
        c, d = np.cos(s), np.sin(s)
        yield _columns(sa * c, sa * d, ca)
        yield _columns(TWO_PI * sa * -d, TWO_PI * sa * c, 0.0)
        yield _columns(-TWO_PI ** 2 * sa * c, -TWO_PI ** 2 * sa * d, 0.0)


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

    def _tilted(self, x, y, z):
        """The columns (x, y, z) @ self._rot.T: the tilt turns about the x-axis."""
        r = self._rot
        return _columns(x, r[1, 1] * y + r[1, 2] * z, r[2, 1] * y + r[2, 2] * z)

    def _jet(self, t):
        s = TWO_PI * t + self.phase
        c2, s2, s1 = np.cos(2 * s), np.sin(2 * s), np.sin(s)
        yield self._tilted(0.5 * (1.0 + c2), 0.5 * s2, s1)
        yield self._tilted(TWO_PI * -s2, TWO_PI * c2, TWO_PI * np.cos(s))
        yield self._tilted(TWO_PI ** 2 * (-2 * c2), TWO_PI ** 2 * (-2 * s2), TWO_PI ** 2 * -s1)


class TorusCircle(ParametricCurve):
    """A round circle in the flat torus chart, counterclockwise."""

    surface = FLAT_TORUS

    def __init__(self, rho=0.2, center=(0.5, 0.5)):
        if not 0 < rho < 0.5:
            raise ValueError("radius must keep the circle inside the chart")
        self.rho = float(rho)
        self.center = np.asarray(center, dtype=float)

    def _jet(self, t):
        s = TWO_PI * t
        c, d = np.cos(s), np.sin(s)
        (cx, cy), r = self.center, self.rho
        yield _columns(cx + r * c, cy + r * d)
        yield _columns(TWO_PI * r * -d, TWO_PI * r * c)
        yield _columns(-TWO_PI ** 2 * r * c, -TWO_PI ** 2 * r * d)


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
    return _geodesic_curvature(curve.surface, *curve.jet(t))


def _geodesic_curvature(surface, x, v, a):
    """The geodesic curvature of the jet (x, v, a) on surface."""
    return surface.orientation(x, v, a) / _norm(v) ** 3


def find_double_points(curve: ParametricCurve, cfg: NumericConfig = None):
    """Locate all transverse double points.

    The close pairs of a coarse grid of parameters seed Newton refinement
    of the stationarity system of the squared (lift) distance
    (_seed_pairs; near pairs only where their short way can hold a
    crossing).  The seeds are refined, all together, with one jet of both
    parameters per Newton step (_pair_jet).  Converged roots with near-zero
    residual, read from one more such jet, are kept, duplicates merged in
    seed order (_distinct_roots), and crossings with angle below the
    genericity floor rejected.
    """
    cfg = cfg or NumericConfig()
    n = cfg.double_grid
    ts = np.arange(n) / n
    pts, vel = curve.jet(ts, 1)
    step = float(_norm(vel).max()) / n
    i, j = _seed_pairs(ts, pts, (4.0 * step) ** 2)
    t1, t2 = _refine_double_points(curve, ts[i], ts[j])
    if not len(t1):   # an embedded curve: nothing to evaluate
        return []
    (x, v1), (x2, v2) = _pair_jet(curve, t1, t2, np.arange(len(t1)), 1)
    gap = x - x2
    met = np.flatnonzero(~(np.sqrt(_dot(gap, gap)) > POSITION_TOL))
    keep = met[_distinct_roots(t1[met], t2[met])]
    t1, t2, x, v1, v2 = t1[keep], t2[keep], x[keep], v1[keep], v2[keep]
    cosang = _dot(v1, -v2) / (np.sqrt(_dot(v1, v1)) * np.sqrt(_dot(v2, v2)))
    positive = curve.surface.orientation(x, v1, v2) > 0
    found = []
    for r1, r2, c, xr, pos in zip(t1.tolist(), t2.tolist(), cosang.tolist(),
                                  x.tolist(), positive.tolist()):
        theta = math.acos(max(-1.0, min(1.0, c)))
        if min(theta, math.pi - theta) < ANGLE_FLOOR:
            raise DegenerateTangency(
                f"branches at t=({r1:.6f},{r2:.6f}) meet at angle {theta:.2e}"
            )
        found.append(DoublePointNumeric(t1=r1, t2=r2, position=tuple(xr), theta=theta,
                                        sign=1 if pos else -1))
    found.sort(key=lambda d: (d.t1, d.t2))
    return found


def _distinct_roots(t1, t2):
    """Indices, in seed order, of the roots (t1[r], t2[r]) that remain when
    each root in turn is dropped if it lies within MERGE_TOL, cyclically in
    both parameters and in either orientation, of a root kept before it.

    The pairs of roots within MERGE_TOL are found by a searchsorted window
    on the first parameter, among both parameters of every root and, shifted
    by -1 or +1 across the seam, those parameters near enough to it to fall
    in a window; so the sort scales with the roots and the pairs with the
    duplicates.  The greedy rule is then settled in rounds over all roots
    at once: an undecided root whose earlier neighbours are all dropped is
    kept, and then an undecided root with a kept earlier neighbour is
    dropped.  Each round settles at least the first undecided root, and
    one round settles roots whose duplicates are all near each other."""
    m = len(t1)
    if not m:   # a curve without crossings: skip the passes below
        return np.empty(0, dtype=np.intp)
    both = np.concatenate((t1, t2))
    # a window reaches 2 MERGE_TOL past the seam; no other shifted copy falls in one
    low, high = np.flatnonzero(both < 4 * MERGE_TOL), np.flatnonzero(both > 1.0 - 4 * MERGE_TOL)
    key = np.concatenate((both, both[low] + 1.0, both[high] - 1.0))
    order = np.argsort(key, kind="stable")
    key, owner = key[order], np.concatenate((np.arange(2 * m), low, high))[order] % m
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


_MONOTONE_SPAN = 16   # longest short way, in grid steps, of a near pair
# below pi/2 by a margin far above the rounding of the angles and their sums
_TURN_LIMIT = 0.5 * math.pi - 1e-6
_BOX = (_MONOTONE_SPAN + 1) // 2   # samples per box: two boxes one apart hold only near pairs
_BOX_CELLS = np.divmod(np.arange(_BOX * _BOX), _BOX)   # the sample offsets of a box pair's pairs
_CHUNK_CELLS = 1 << 18   # most cells of a temporary of _seed_pairs' far pairs


def _seed_pairs(ts, pts, threshold):
    """Index arrays (i, j), i < j, of the sample pairs of the cyclic grid
    (ts, pts) that seed the search, in row-major order: the pairs with
    squared distance below threshold and cyclic parameter gap at least
    DIAG_GAP, less the near pairs whose short way cannot hold a crossing.

    A pair is near when its short way spans s <= _MONOTONE_SPAN steps; on
    a grid of more than 2 _MONOTONE_SPAN samples each near pair has one
    short way (i, s), from sample i.  Each way is first tested by its
    turning: a way that turns by less than _TURN_LIMIT at its inner
    samples and has no zero-length segment runs along its chord (each
    segment lies within pi/2 of every other, so of their sum), and
    _may_cross would drop it.  The turning at a sample is the angle between
    its two segments; one prefix sum of the turnings, and one count of
    zero-length segments, on the grid extended past its seam, give every
    way's totals.  Both grow with s, so only the samples whose longest way
    is undecided have their shorter ways tested.  Only the ways left get a
    distance, the gap test and _may_cross: on a smooth curve, none.

    Far pairs come from a broad phase on boxes of _BOX consecutive samples.
    Boxes at most one box apart, cyclically, hold near pairs only; two
    boxes farther apart are a candidate when, widened by the distance,
    they overlap in every coordinate; their sample pairs get a distance,
    the close ones the gap test, and the far ones among those are kept.
    The box-pair table is built a block of rows at a time, and the sample
    pairs tested in chunks: but for the list of candidate box pairs, no
    temporary of the far pairs holds more than _CHUNK_CELLS cells."""
    n, most = len(ts), _MONOTONE_SPAN
    # the coordinate columns, padded with nan to whole boxes: a padded
    # sample is close to nothing
    cols = np.full((pts.shape[1], -(-n // _BOX) * _BOX), np.nan)
    coords = cols[:, :n]
    coords[...] = pts.T

    def close(i, j):   # mask of the pairs i < j near enough and off the diagonal band
        keep = _sum_terms([(c.take(i) - c.take(j)) ** 2 for c in cols]) < threshold
        k = np.flatnonzero(keep)
        sep = np.abs(ts[i[k]] - ts[j[k]])
        keep[k] = ~(np.minimum(sep, 1.0 - sep) < DIAG_GAP)
        return keep

    ext = np.concatenate((coords[:, -1:], coords, coords[:, :most + 1]), axis=1)
    seg = ext[:, 1:] - ext[:, :-1]   # column k + 1: segment k, from sample k to k + 1
    u, w = seg[:, :-1], seg[:, 1:]   # column k: the segments into and out of sample k
    if len(seg) == 3:
        wedge = np.sqrt(sum(c * c for c in _cross(u.T, w.T)))
    else:
        wedge = np.abs(u[0] * w[1] - u[1] * w[0])
    turned = np.concatenate(([0.0], np.cumsum(np.arctan2(wedge, sum(u * w)))))
    flat = np.concatenate(([0], np.cumsum(~(sum(w * w) > 0.0))))

    def undecided(start, end):   # the ways from start to end that _may_cross must see
        return ~((turned[end] - turned[start + 1] < _TURN_LIMIT) & (flat[end] == flat[start]))

    first = np.flatnonzero(undecided(np.arange(n), np.arange(most, most + n)))
    keys = [np.empty(0, dtype=np.intp)]
    if len(first):   # none on a smooth curve on a fine grid
        row, span = np.nonzero(undecided(first[:, None], first[:, None] + np.arange(1, most + 1)))
        start, span = first[row], span + 1
        end = start + span
        i, j = np.where(end < n, start, end - n), np.where(end < n, end, start)
        keep = close(i, j)
        keep[keep] = _may_cross(pts, start[keep], span[keep])
        keys.append(i[keep] * n + j[keep])

    firsts = np.arange(0, n, _BOX)
    m = len(firsts)
    # a little wider than the distance, so rounding drops no pair
    low = np.minimum.reduceat(coords, firsts, axis=1) - 1.000001 * math.sqrt(threshold)
    high = np.maximum.reduceat(coords, firsts, axis=1)
    rows = max(1, _CHUNK_CELLS // (len(coords) * m))
    pairs = []
    for r in range(0, m, rows):
        meet = ((low[:, r:r + rows, None] <= high[:, None, :])
                & (low[:, None, :] <= high[:, r:r + rows, None]))
        pairs.append(np.flatnonzero(meet.all(axis=0)) + r * m)
    a, b = np.divmod(np.concatenate(pairs), m)
    apart = (b - a >= 2) & (b - a <= m - 2)   # two boxes apart or more, cyclically
    a, b = a[apart], b[apart]
    per = _CHUNK_CELLS // _BOX ** 2
    for s in range(0, len(a), per):
        i = (_BOX * a[s:s + per, None] + _BOX_CELLS[0]).ravel()
        j = (_BOX * b[s:s + per, None] + _BOX_CELLS[1]).ravel()
        keep = close(i, j)
        i, j = i[keep], j[keep]
        far = (j - i > most) & (n - (j - i) > most)
        keys.append(i[far] * n + j[far])
    return np.divmod(np.sort(np.concatenate(keys)), n)


def _may_cross(pts, start, span):
    """Mask of the short ways, span <= _MONOTONE_SPAN steps from sample
    start of the cyclic grid pts, that can hold a crossing.  A way fails
    when its samples run monotonically along their own chord: every
    segment has a positive dot product with the chord.  Such an arc is
    injective, so it holds no crossing.  _seed_pairs asks only about the
    close pairs' ways that their turning leaves undecided.

    The segments of all ways come from one gather per coordinate of
    (ways x the longest way) cells, on the grid's segments extended past
    its seam so that no index wraps; no temporary is larger than that
    gather."""
    n = len(pts)
    width = int(span.max(initial=0))
    steps = start[:, None] + np.arange(width)   # the segments of each way
    wrap = np.arange(n + width + 1) % n         # the grid, extended past its seam
    end = wrap[start + span]
    terms = [(c[wrap[1:]] - c[wrap[:-1]]).take(steps) * (c[end] - c[start])[:, None]
             for c in pts.T]
    along = (np.arange(width) >= span[:, None]) | (_sum_terms(terms) > 0)
    return ~along.all(axis=1)


def _dot(u, w):
    """Row-wise dot products, each rounded as np.dot rounds a single one."""
    return np.matmul(u[:, None, :], w[:, :, None])[:, 0, 0]


def _sum_terms(terms):
    """The sum of the per-coordinate products of a dot product, rounded as
    np.einsum("md,md->m") rounds it: the even coordinates' sum plus the
    odd ones'."""
    return functools.reduce(np.add, terms[0::2]) + functools.reduce(np.add, terms[1::2])


_JOINT_JET = 2048   # most parameters of each of t1 and t2 in one joint jet


def _pair_jet(curve, t1, t2, at, order=2):
    """(curve.jet(t1[at], order), curve.jet(t2[at], order)), from one jet of
    both while the indices at pick at most _JOINT_JET parameters (the same
    values: a jet is elementwise).  On the tens of thousands of seeds of a
    curve with hundreds of crossings one jet's arrays outgrow the cache,
    and two jets, each on parameters gathered just before it, are faster."""
    m = len(at)
    if m > _JOINT_JET:
        return curve.jet(t1[at], order), curve.jet(t2[at], order)
    both = curve.jet(np.concatenate((t1[at], t2[at])), order)
    return tuple(x[:m] for x in both), tuple(x[m:] for x in both)


def _refine_double_points(curve, t1, t2):
    """Newton iteration on the stationarity system of |p(t1) - p(t2)|^2,
    run on all seed pairs at once, with one _pair_jet of both parameters
    per step.

    A seed leaves the batch where a lone iteration would stop: rejected at
    a near-singular Jacobian, converged once both steps fall below
    PARAM_TOL, rejected after 60 steps.  Returns arrays (t1, t2) of the
    converged roots, wrapped into [0, 1) with t1 <= t2 and at least
    DIAG_GAP from the diagonal, in seed order."""
    t1 = np.array(t1, dtype=float)
    t2 = np.array(t2, dtype=float)
    live = np.arange(len(t1))
    converged = np.zeros(len(t1), dtype=bool)
    for _ in range(60):
        if not live.size:
            break
        (p1, v1, a1), (p2, v2, a2) = _pair_jet(curve, t1, t2, live)
        d = p1 - p2
        f1 = _dot(d, v1)
        f2 = _dot(d, v2)
        j11 = _dot(v1, v1) + _dot(d, a1)
        j21 = _dot(v1, v2)
        j12 = -j21
        j22 = -_dot(v2, v2) + _dot(d, a2)
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
    return t1[keep], t2[keep]


def point_index(curve: ParametricCurve, b, p, cfg: NumericConfig = None):
    """Signed number of transversal crossings of a path from b to p with the
    curve: +1 whenever the path crosses from the curve's right to its left.
    Given a (K, d) stack of probe points p, returns the list of K indices.

    For a homologically trivial curve this is w(p) - w(b), w the curve's
    winding number in the surface's planar chart (curve.surface.plane), as
    in the plane: the path crosses from right to left exactly where w
    steps up.  The base's and all probes' are read in one pass on the arc
    nodes of the context of (curve, b, cfg) (_winding): a point around
    which an arc between two nodes winds, while their chord stays shorter
    than the point's distance to both, can be misjudged.  The probes are
    checked and placed as the base is (InvalidBasePoint names a bad one).
    A point within POINT_TOL of the curve raises PointOnCurve.
    """
    ctx = NumericContext(curve, b, cfg)
    p = _place_points(curve.surface, p, "probe point", stack=True)
    probes = p.reshape(-1, len(ctx.base_point))
    _feet(ctx, probes, ["probe"] * len(probes))
    base, *index = _winding(ctx, np.concatenate((ctx.base_point[None], probes)))
    index = [w - base for w in index]
    return index if p.ndim > 1 else index[0]


_BISECTIONS = 40   # most rounds of halving node steps in _winding


def _winding(ctx, points):
    """The winding numbers w(p) of the curve around each of the (k, d)
    points p in the surface's planar chart from the context's anchor, as a
    list: the sums of the principal-value steps of the angle of
    z(t) = chart(x(t)) - chart(p) over the context's arc nodes, charted
    once, in cyclic order (the turns of the closed polygon of the nodes).
    A step is halved, with a new node from a jet of its mid-parameter,
    while its chord is at least as long as |z| at the nearer of its ends;
    each round reads only the steps, of all points, that the last halved.
    That covers every step above pi/2, where the chord is its triangle's
    longest side, and also a narrower step whose arc bulges around a point
    near the curve: on seeded torus draw 88 at the halved grid, a step of
    1.56 where the arc turns by -4.72.  After _BISECTIONS rounds it raises
    a TopologyError naming a point and an arc.  A point charting to nan,
    the sphere's anchor, is outside: 0."""
    plane, anchor = ctx.curve.surface.plane, ctx.anchor
    origin = plane(anchor, points)
    inside = np.flatnonzero(~np.isnan(origin).any(axis=1))
    if not len(inside):
        return [0] * len(points)
    ts, x = ctx.nodes[:2]
    ends, chart, m = np.concatenate((ts[1:], ts[:1] + 1.0)), plane(anchor, x), len(inside)
    # each inside point's steps; the last ends one turn on
    owner, t0 = np.repeat(inside, len(ts)), np.concatenate((ts,) * m)
    t1 = np.concatenate((ends,) * m)
    z0 = (chart - origin[inside, None]).reshape(-1, 2)
    z1 = (np.concatenate((chart[1:], chart[:1])) - origin[inside, None]).reshape(-1, 2)
    total = np.zeros(len(points))
    for halvings in itertools.count():
        (x0, y0), (x1, y1) = z0.T, z1.T
        step = np.arctan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1)
        wide = np.hypot(x1 - x0, y1 - y0) >= np.minimum(np.hypot(x0, y0), np.hypot(x1, y1))
        total += np.bincount(owner[~wide], step[~wide], minlength=len(points))
        if not wide.any():
            return [round(w) for w in (total / TWO_PI).tolist()]
        owner, t0, t1, z0, z1 = owner[wide], t0[wide], t1[wide], z0[wide], z1[wide]
        if halvings == _BISECTIONS:
            raise TopologyError(
                f"the winding number around {tuple(points[owner[0]].tolist())} is unresolved "
                f"on arc {_arc_at(ctx, t0[0])} after {_BISECTIONS} halvings")
        mid = 0.5 * (t0 + t1)
        zm = plane(anchor, ctx.curve.jet(mid % 1.0, 0)[0]) - origin[owner]
        owner = np.concatenate((owner, owner))
        t0, t1 = np.concatenate((t0, mid)), np.concatenate((mid, t1))
        z0, z1 = np.concatenate((z0, zm)), np.concatenate((zm, z1))


_FOOT_STEPS = 30   # most Newton steps of _feet


def _feet(ctx, points, names):
    """(t, x, v): the parameter, point and velocity of the foot of each of
    the (k, d) points, its nearest curve point.  Newton's method on
    (x(t) - p).x'(t) = 0 starts from the point's nearest arc node and runs
    on all points together, one jet per step.  A point steps only where the
    squared distance is convex, its second derivative above 1e-9 |x'|^2: at
    the pole of a circle, equidistant from the whole curve, the foot stays
    at the node.  A point whose foot lies within
    POINT_TOL of it raises PointOnCurve, named by names."""
    ts, x, v, a = ctx.nodes
    d2 = sum((x[:, c] - points[:, c, None]) ** 2 for c in range(points.shape[1]))
    near = d2.argmin(axis=1)
    t, x, v, a = ts[near], x[near], v[near], a[near]
    for _ in range(_FOOT_STEPS):
        d = x - points
        speed2 = _dot(v, v)
        curving = speed2 + _dot(d, a)
        step = np.divide(_dot(d, v), curving, out=np.zeros(len(t)),
                         where=curving > 1e-9 * speed2)
        if not (np.abs(step) > PARAM_TOL).any():
            break
        t = t - step
        x, v, a = ctx.curve.jet(t % 1.0)
    gap = x - points
    on = np.flatnonzero(np.sqrt(_dot(gap, gap)) < POINT_TOL)
    if len(on):
        k = int(on[0])
        raise PointOnCurve(f"{names[k]} point {tuple(points[k].tolist())} lies on the curve")
    return t, x, v


# ---------------------------------------------------------------------------
# cached numeric context: arcs, their line integrals, and the level areas


@functools.cache
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


class NumericContext:
    """All quadrature data for one (curve, base point, config).

    The base point is checked once (_place_points): InvalidBasePoint off
    the surface, reduced mod 1 into the chart on the torus.  The context
    caches the double points, the arc table (per smooth arc: its index and
    its integrals of k_g ds and of the area form, all on one (arcs x
    line_nodes) array of Gauss-Legendre nodes, whose parameters and jet it
    keeps as `nodes`) and the area of every index level, folded from the
    latter; every invariant is then a cheap weighted sum over these tables.
    The double points come from one batched Newton refinement of all seeds.
    Their passages, sorted once into `passages` ((t, crossing, step) in
    curve order), start the arcs (`arc_starts`, arc k from passage k) and
    give the arc indices as prefix sums of the steps, fixed by the
    `anchor_index` and face of the anchor (the sphere's pole, chosen from
    the nodes; the torus chart's corner).  That index is the anchor's
    winding number less the base's (_winding), and that face is read at the
    anchor's foot (_face_dart) with the base's, kept as `base_dart`: either
    raises PointOnCurve within POINT_TOL of the curve.  An arc's k_g ds
    integral not finite, two consecutive nodes that coincide (a curve below
    its chart's resolution), a base face of index not 0, a crossing index
    not an integer or a level area not positive is a TopologyError.
    `extracted` and its `profile` are built on first read.
    """

    def __init__(self, curve: ParametricCurve, base_point, cfg: NumericConfig = None):
        self.curve = curve
        self.cfg = cfg or NumericConfig()
        self.base_point = _place_points(curve.surface, base_point, "base point")
        self.double_points = find_double_points(curve, self.cfg)
        self._build_arcs()

    # -- smooth arcs between crossing parameters

    def _build_arcs(self):
        dps, curve, cfg = self.double_points, self.curve, self.cfg
        # the passage table: (t, crossing, step) of every crossing passage in
        # curve order, step the change of the index just right of the curve
        self.passages = sorted([(d.t1, k, -d.sign) for k, d in enumerate(dps)]
                               + [(d.t2, k, d.sign) for k, d in enumerate(dps)])
        starts = self.arc_starts = [t for t, _k, _step in self.passages] or [0.0]
        a, b = np.array(starts), np.array(starts[1:] + [starts[0] + 1.0])
        nodes, weights = _leggauss(cfg.line_nodes)
        half = 0.5 * (b - a)
        # in cyclic order from starts[0], so past 1 on the last arcs
        ts = (half[:, None] * nodes + 0.5 * (a + b)[:, None]).ravel()
        x, v, acc = curve.jet(ts % 1.0)
        self.nodes = ts, x, v, acc

        def integral(f):   # over each arc, of f at its nodes
            return half * (weights * f.reshape(len(starts), -1)).sum(axis=1)

        with np.errstate(divide="ignore", invalid="ignore"):   # |v|^3 may underflow to 0
            kg = _geodesic_curvature(curve.surface, x, v, acc) * _norm(v)
            self.arc_kg = integral(kg).tolist()
        for k, w in enumerate(self.arc_kg):
            if not math.isfinite(w):
                raise TopologyError(f"arc {k}: the integral of k_g ds is {w}")
        # a curve below its chart's resolution: its nodes round onto each other,
        # and every side read from them is arbitrary
        same = np.flatnonzero((x[1:] == x[:-1]).all(axis=1))
        if len(same):
            raise TopologyError(f"arc {same[0] // cfg.line_nodes}: two consecutive nodes coincide, "
                                "the curve is below its chart's resolution")
        self._index_arcs()
        alpha = curve.surface.area_form(self.anchor, x, v)
        self.level_area = {} if alpha is None else self._fold_levels(integral(alpha))
        # crossing index = mean of the four incident arc indices v + 1/2:
        # the arcs after and before each of the crossing's two passages
        incident = [0] * len(dps)
        for pos, (_t, k, _step) in enumerate(self.passages):
            incident[k] += self.arc_index[pos] + self.arc_index[pos - 1]
        self.crossing_index = [(total + 2) // 4 for total in incident]
        for k, total in enumerate(incident):
            if (total + 2) % 4:
                raise TopologyError(f"double point {k} has non-integer index {(total + 2) / 4}")

    def _fold_levels(self, alpha):
        """Each level's area by Stokes, from the area form's integral alpha
        along each arc: +alpha for the level v + 1 on its left, -alpha for
        v on its right, and 2 pi chi (K = 1) for the anchor's, the form's
        singular point.  A level is a non-empty open set, so an area that
        is not positive means that the arc indices are wrong."""
        area = dict.fromkeys(sorted({self.anchor_index, *self.arc_index,
                                     *(v + 1 for v in self.arc_index)}), 0.0)
        for v, a in zip(self.arc_index, alpha.tolist()):
            area[v + 1] += a
            area[v] -= a
        area[self.anchor_index] += TWO_PI * self.curve.surface.chi
        for i, a in area.items():
            if not a > 0.0:
                raise TopologyError(f"index level {i} has area {a}")
        return area

    def _index_arcs(self):
        """Sets anchor, anchor_index, anchor_dart, base_dart and arc_index.
        The index just right of the curve changes at each passage by its
        step, -sign at a crossing's first parameter and +sign at its
        second, from the anchor's index and face.  The base's face must
        then have index 0, else TopologyError.  On the torus the anchor's
        winding number is 0 unless the curve's lift goes around the chart's
        corner, leaving the chart."""
        self.anchor = self.curve.surface.anchor(self.nodes[1])
        points = np.array((self.base_point, self.anchor))
        self.base_dart, self.anchor_dart = _face_dart(self, points, ("base", "anchor"))
        base, anchor = _winding(self, points)
        self.anchor_index = anchor - base
        right = list(itertools.accumulate(step for _t, _k, step in self.passages)) or [0]
        anchor_dart, base_dart = self.anchor_dart, self.base_dart
        shift = self.anchor_index - right[dart_arc(anchor_dart)] - (dart_side(anchor_dart) == LEFT)
        self.arc_index = [v + shift for v in right]   # the lower side v of index v + 1/2
        if self.arc_index[dart_arc(base_dart)] + (dart_side(base_dart) == LEFT) != 0:
            raise TopologyError("the base point's face disagrees with the arc indices")

    # -- the bridge to the combinatorial path

    @functools.cached_property
    def extracted(self):
        """(diagram, base region id): the signed Gauss code diagram, its
        crossing signs from the tangent frames in visit order, traced once;
        the surface assigns each face's genus (surface.regions).  The base
        region is the face of base_dart, checked by _index_arcs."""
        code = SignedGaussCode(tuple((k + 1, self.double_points[k].sign)
                                     for _t, k, _step in self.passages))
        cycles, dart_cycle = _trace(code)
        surface = self.curve.surface
        table = _region_table(surface.regions(self.nodes, self.anchor_dart, cycles), len(cycles))
        diagram = _assemble_diagram(code, cycles, dart_cycle, *table, surface.chi, 0)
        base = diagram.dart_region[self.base_dart]
        return replace(diagram, base_region=base), base

    @functools.cached_property
    def profile(self):
        """The subsurface profile of `extracted`."""
        return subsurface_profile(self.extracted[0], index_function(*self.extracted))

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


def _place_points(surface, points, name, stack=False):
    """points as a float array of shape (dim,), or (K, dim) if stack, each
    finite and on the surface (surface.place); else InvalidBasePoint."""
    try:
        x = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise InvalidBasePoint(f"{name} {points!r} is not a point") from None
    if x.shape[-1:] != (surface.dim,) or x.ndim > 1 + stack:
        raise InvalidBasePoint(
            f"{name} {points!r} does not have the surface's {surface.dim} coordinates")
    rows = x.reshape(-1, surface.dim)
    for point in rows.tolist():
        if not all(map(math.isfinite, point)):
            raise InvalidBasePoint(f"{name} {tuple(point)} is not finite")
    return surface.place(rows, name).reshape(x.shape)


def _context(curve, base_point, cfg, context):
    """A new NumericContext of (curve, base_point, cfg) if context is None;
    else context, if its curve is curve, its config cfg and its base point,
    placed, within POINT_TOL of base_point (so in its face); None for cfg
    or base_point reads the context's.  A tuple or list is compared before
    it is placed.  Any other context raises ValueError."""
    if context is None:
        return NumericContext(curve, base_point, cfg)
    x = context.base_point.tolist()
    if (curve is not context.curve or cfg not in (context.cfg, None) or base_point is not None
            and not (isinstance(base_point, (tuple, list)) and list(base_point) == x)
            and math.dist(_place_points(curve.surface, base_point, "base point"), x) >= POINT_TOL):
        raise ValueError("the context is not that of this curve, base point and config")
    return context


def numeric_iq(curve, base_point, q_values, cfg: NumericConfig = None, context=None):
    """I_q from the integral definition, for each finite q > 0 in q_values.

    q = 1 is evaluated by the limit formula (the Gauss-Bonnet form of the
    rotation number) rather than the divided difference.  A power q^i or a
    sum that overflows a float raises QOverflow.
    """
    ctx = _context(curve, base_point, cfg, context)
    out = []
    for q in q_values:
        if not 0 < q < math.inf:
            raise NonPositiveQ(f"q must be finite and positive, got {q}")
        if q == 1:
            out.append(_i1(ctx))
            continue
        rq = math.sqrt(q)
        denom = rq - 1.0 / rq
        try:
            total = ctx.line_integral(lambda i: q ** i)
            total -= ctx.crossing_sum(lambda theta, i: theta * q ** i * denom)
            total += ctx.area_integral(lambda i: (q ** i - 1.0) / denom)
        except OverflowError:
            raise QOverflow(f"q = {q}: a power q^i at this curve's index levels "
                            "overflows a float") from None
        if not math.isfinite(total):
            raise QOverflow(f"q = {q}: the integrals at this curve's index levels "
                            "overflow a float")
        out.append(total / TWO_PI)
    return out


def numeric_i1(curve, base_point, cfg: NumericConfig = None, context=None):
    """The rotation number as (1/2pi)(integral k_g ds + integral K ind dA)."""
    return _i1(_context(curve, base_point, cfg, context))


def _i1(ctx):
    return (ctx.line_integral(lambda i: 1.0) + ctx.area_integral(lambda i: i)) / TWO_PI


def numeric_jplus(curve, base_point, cfg: NumericConfig = None, context=None):
    """J+ from its integral formula (chi(S) != 0 only)."""
    ctx = _context(curve, base_point, cfg, context)
    chi = curve.surface.chi
    if chi == 0:
        raise ChiZero("the J+ integral formula needs chi(S) != 0")
    gb = TWO_PI * _i1(ctx)
    middle = (
        ctx.line_integral(lambda i: i)
        - ctx.crossing_sum(lambda theta, i: theta)
        + 0.5 * ctx.area_integral(lambda i: i * i)
    )
    return gb * gb / (4.0 * math.pi ** 2 * chi) - middle / math.pi + 1.0


def gauss_bonnet_region_check(curve, base_point, j, cfg: NumericConfig = None,
                              context=None, extracted=None):
    """Both sides of the Gauss-Bonnet identity for the subsurface above j.

    lhs = 2 pi chi(S_j) from the context's extracted diagram, read off its
    profile (NumericContext.profile): a_j, plus chi(S) for negative j; rhs
    is the numeric total curvature of that subsurface: its area integral of
    K, the geodesic curvature along its boundary arcs (index = j), plus the
    corner turning angles (pi - theta) at double points of index j -+ 1/2.
    Levels are compared as the odd integer 2j; another j raises ValueError,
    as does an extracted pair other than the context's.
    """
    twice_j = _check_half_integer(j)
    ctx = _context(curve, base_point, cfg, context)
    if extracted not in (None, ctx.extracted):
        raise ValueError("extracted is not the context's own (diagram, base region)")
    profile = ctx.profile
    chi_sj = profile.a_j.get(twice_j, 0) + (profile.surface_chi if twice_j < 0 else 0)
    lhs = TWO_PI * chi_sj
    rhs = ctx.area_integral(lambda i: 1.0 if 2 * i > twice_j else 0.0)
    rhs += sum(w for v, w in zip(ctx.arc_index, ctx.arc_kg) if 2 * v + 1 == twice_j)
    rhs += ctx.crossing_sum(lambda theta, i: (math.pi - theta) if 2 * i == twice_j - 1 else 0.0)
    rhs -= ctx.crossing_sum(lambda theta, i: (math.pi - theta) if 2 * i == twice_j + 1 else 0.0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# bridge to the combinatorial path


def extract_diagram(curve, base_point, cfg: NumericConfig = None, context=None):
    """(diagram, base region id) of a parametric curve: the context's
    `extracted` pair, the same object on every call with one context
    (_context checks a given one)."""
    return _context(curve, base_point, cfg, context).extracted


def _face_dart(ctx, points, names):
    """A dart of the face holding each of points, points off the curve
    named by names: the segment to a point's foot, its nearest curve point
    (_feet), meets the curve nowhere else.  The side is read at the foot,
    from its velocity and the offset to the point, and the arc from its
    parameter.  A point within about one node spacing of a crossing can
    land in the opposite corner's face, which has the same index."""
    t, x, v = _feet(ctx, points, names)
    left = ctx.curve.surface.orientation(x, v, points - x) > 0
    return [dart_id(_arc_at(ctx, s), LEFT if is_left else RIGHT)
            for s, is_left in zip(t.tolist(), left.tolist())]


def _arc_at(ctx, t):
    """The index of the context's arc whose span holds parameter t."""
    return (bisect.bisect_right(ctx.arc_starts, t % 1.0) - 1) % len(ctx.arc_starts)
