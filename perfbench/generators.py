"""Seeded input generators for the benchmark, built on public curveinv calls.

Every diagram is grown from an embedded counterclockwise circle by
tangency births and triple-point moves (``curveinv.moves``), because
``random_diagram`` rejection-samples Gauss codes and cannot reach n >= 12.
Each generator keeps the J+ and rotation number that the jump laws predict
for its own history of moves, so the benchmark can check the library's
reports against values it did not compute:

* J+ changes by +2 at a direct birth, by -2 at a direct death, and not at
  all at opposite births or deaths and triple-point moves;
* the rotation number never changes (modulo |chi(S)|, exactly on the torus).

The embedded counterclockwise circle with its base point outside has
I_1 = 1 and I_1' = 1/2, so J+ = I_1^2 / chi - 2 I_1' + 1 = 1 / chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from curveinv import diagram, geometry, moves
from curveinv.catalog import parametric_fixture
from curveinv.errors import PlanInvalid

# file-format texts of the three start curves, keyed by surface genus
CIRCLES = {
    0: "curve -\nbase 1\n",
    1: "surface genus=1\ncurve -\nregion 0 genus=0 cycles=0\n"
       "region 1 genus=1 cycles=1\nbase 1\n",
    2: "surface genus=2\ncurve -\nregion 0 genus=0 cycles=0\n"
       "region 1 genus=2 cycles=1\nbase 1\n",
}

# J+ jump of each move kind (the moves' MoveSite.kind names)
JPLUS_JUMP = {
    "birth_direct": 2, "birth_opposite": 0,
    "bigon_direct": -2, "bigon_opposite": 0,
    "triangle": 0,
}


@dataclass
class Expected:
    """J+ (None when chi(S) = 0) and the rotation number (value, modulus)
    that the jump laws predict; `apply` advances them over one move."""

    jplus: Fraction | None
    rotation: tuple

    @classmethod
    def circle(cls, chi):
        jplus = None if chi == 0 else Fraction(1, chi)
        return cls(jplus, (1, abs(chi)))

    def apply(self, kind):
        if self.jplus is not None:
            self.jplus += JPLUS_JUMP[kind]

    def mismatch(self, report):
        """A description of how `report` breaks the prediction, or None."""
        if report.jplus != self.jplus:
            return f"J+ {report.jplus} != predicted {self.jplus}"
        value, modulus = report.rotation
        if modulus != self.rotation[1]:
            return f"rotation modulus {modulus} != {self.rotation[1]}"
        drift = value - self.rotation[0]
        if (drift % modulus if modulus else drift) != 0:
            return f"rotation {report.rotation} != predicted {self.rotation}"
        return None


def _fractions(rng):
    """Two distinct walk fractions in (0, 1), ascending."""
    a, b = sorted(rng.sample(range(1, 32), 2))
    return Fraction(a, 32), Fraction(b, 32)


def _disk_regions(d):
    return [r for r, reg in enumerate(d.regions)
            if reg.genus == 0 and len(reg.cycles) == 1]


# ---------------------------------------------------------------------------
# deep index: opposite births stacked on the deepest level


def grow_deep(rng, sizes):
    """Grow a genus-0 diagram by opposite births and snapshot it at `sizes`.

    An opposite birth whose two positions both lie on right-side darts of a
    region at index i makes a lens at index i + 2.  Each birth is placed in
    a region of the highest index that has a right-side dart, so every birth
    adds one index level and a diagram with n crossings has about n/2 + 2
    levels.  Returns ({n: (diagram, its Expected)}, births attempted,
    births accepted).
    """
    d = diagram.parse_diagram(CIRCLES[0])
    expected = Expected.circle(2)
    snaps = {}
    attempted = accepted = 0
    while d.n < max(sizes):
        values = diagram.index_function(d).values
        best, choices = None, []
        for r, reg in enumerate(d.regions):
            rights = [x for c in reg.cycles for x in d.cycles[c]
                      if diagram.dart_side(x) == diagram.RIGHT]
            if not rights:
                continue
            if best is None or values[r] > best:
                best, choices = values[r], []
            if values[r] == best:
                choices.append((r, rights))
        r, rights = rng.choice(choices)
        t1, t2 = _fractions(rng)
        site = moves.birth_site(r, (rng.choice(rights), t1),
                                (rng.choice(rights), t2), "opposite")
        attempted += 1
        try:
            d = moves.tangency_birth(d, site)
        except PlanInvalid:
            continue
        accepted += 1
        expected.apply(site.kind)
        if d.n in sizes:
            snaps[d.n] = (d, Expected(expected.jplus, expected.rotation))
    return snaps, attempted, accepted


def relabel_rotate(d, rng):
    """The same based diagram written with permuted crossing labels and the
    Gauss code started at a random visit (signs flip where the rotation
    swaps which visit of a crossing comes first)."""
    m = 2 * d.n
    r = rng.randrange(m)
    labels = list(range(1, d.n + 1))
    rng.shuffle(labels)
    relabel = dict(zip(sorted({lab for lab, _ in d.code.visits}), labels))
    sign = {lab: s if (p1 - r) % m < (p2 - r) % m else -s
            for lab, (p1, p2, s) in d.code.crossing_positions().items()}
    visits = d.code.visits[r:] + d.code.visits[:r]
    code = diagram.SignedGaussCode(
        tuple((relabel[lab], sign[lab]) for lab, _ in visits))
    # the base region is the face holding the rotated image of one of its darts
    dart = d.cycles[d.regions[d.base_region].cycles[0]][0]
    moved = diagram.dart_id((diagram.dart_arc(dart) - r) % m,
                            diagram.dart_side(dart))
    cycles = diagram.trace_boundary_cycles(code)
    base = next(c for c, cyc in enumerate(cycles) if moved in cyc)
    return diagram.serialize_diagram(diagram.build_diagram(code, base_region=base))


# ---------------------------------------------------------------------------
# shallow walk on genus 0, 1 and 2


@dataclass
class Walker:
    """One random walk of moves; `expected` follows its history."""

    diagram: object
    expected: Expected
    births_attempted: int = 0
    births_accepted: int = 0

    def random_birth(self, rng, tries=64):
        """A birth at random positions of a random disk region; rejected
        (unrealizable) births are retried.  Returns (kind, new diagram).

        A lens differs from its region's index by -2, 0 or +2, so births
        are placed only in regions whose lens keeps the diagram within
        MAX_LEVELS index levels (any disk if none qualifies)."""
        d = self.diagram
        values = diagram.index_function(d).values
        lo, hi = min(values.values()), max(values.values())
        disks = _disk_regions(d)
        disks = [r for r in disks
                 if max(hi, values[r] + 2) - min(lo, values[r] - 2) < MAX_LEVELS] or disks
        for _ in range(tries):
            r = rng.choice(disks)
            cycle = d.cycles[d.regions[r].cycles[0]]
            t1, t2 = _fractions(rng)
            site = moves.birth_site(r, (rng.choice(cycle), t1),
                                    (rng.choice(cycle), t2),
                                    rng.choice(("direct", "opposite")))
            self.births_attempted += 1
            try:
                moved = moves.tangency_birth(d, site)
            except PlanInvalid:
                continue
            self.births_accepted += 1
            return site.kind, moved
        raise RuntimeError(f"no realizable birth in {tries} tries")

    def step(self, rng, target):
        """One move that keeps n near `target`: a triple move with
        probability 0.4, otherwise a death at or above the target and a
        birth below it (a missing triangle or bigon falls back to a birth)."""
        d = self.diagram
        if rng.random() < 0.4:
            sites = moves.find_triangles(d)
            if sites:
                return "triangle", moves.triple_move(d, rng.choice(sites))
        if d.n >= target:
            sites = moves.find_bigons(d)
            if sites:
                site = rng.choice(sites)
                return site.kind, moves.bigon_death(d, site)
        return self.random_birth(rng)

    def commit(self, kind, moved):
        self.diagram = moved
        self.expected.apply(kind)


def index_levels(d):
    """Number of index levels L = max - min + 1 of the base-normalized index."""
    values = diagram.index_function(d).values.values()
    return int(max(values) - min(values)) + 1


# Plateau size of each genus's walk, and the index depth its growth may not
# exceed: fixed, so that the seed changes the diagrams but not their size.
PLATEAU = {0: 96, 1: 128, 2: 160}
MAX_LEVELS = 6


def grow_walkers(rng, plateau=PLATEAU):
    """Walkers on genus 0, 1 and 2, each grown to its plateau size by births
    and triple moves; a move that would make more than MAX_LEVELS index
    levels is not taken."""
    walkers = []
    for genus, target in plateau.items():
        w = Walker(diagram.parse_diagram(CIRCLES[genus]),
                   Expected.circle(2 - 2 * genus))
        while w.diagram.n < target:
            kind, moved = w.step(rng, target)
            if index_levels(moved) <= MAX_LEVELS:
                w.commit(kind, moved)
        walkers.append(w)
    return walkers


# ---------------------------------------------------------------------------
# numeric curves


@dataclass(frozen=True)
class CurveSpec:
    """A parametric curve with its base point, the fixture tolerance of its
    kind, and the diagram fixture its extraction must be isomorphic to."""

    kind: str
    curve: object
    base_point: tuple
    tolerance: float
    fixture: str


# Parameter ranges: the figure-eight's tilt and phase stay near the
# catalog's (0.7, 0.35), so its double point stays away from the poles and
# the parameter seam; latitudes stay half a radian from the poles; torus
# circles stay well inside the chart around its centre.
NUMERIC_KINDS = ("figure8", "latitude", "great_circle", "torus_circle")


def draw_curve(rng, kind):
    """A CurveSpec of the given kind with parameters drawn from rng."""
    if kind == "figure8":
        fx = parametric_fixture("figure8_sphere_param")
        curve = geometry.SphereFigureEight(tilt=rng.uniform(0.55, 0.85),
                                           phase=rng.uniform(0.25, 0.45))
        return CurveSpec(kind, curve, fx.base_point, fx.tolerance, "figure8_sphere")
    if kind == "latitude":
        fx = parametric_fixture("latitude", alpha=rng.uniform(0.5, math.pi - 0.5))
        return CurveSpec(kind, fx.curve, fx.base_point, fx.tolerance, "circle_sphere")
    if kind == "great_circle":
        fx = parametric_fixture("great_circle")
        return CurveSpec(kind, fx.curve, fx.base_point, fx.tolerance, "circle_sphere")
    fx = parametric_fixture("circle_torus", rho=rng.uniform(0.1, 0.3))
    return CurveSpec(kind, fx.curve, fx.base_point, fx.tolerance, "circle_torus")
