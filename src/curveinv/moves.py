"""Self-tangency and triple-point moves on curve diagrams.

Each move edits the visit list of the signed Gauss code directly:

* A tangency birth pushes a finger from one boundary position of a region
  across it to a second boundary position, overshooting into a lens of two
  new crossings.  Along each of the two strands the new visits are adjacent:
  each strand's pair lands right after the start visit of the arc it
  touches.  A direct tangency (strands parallel at contact) inserts the pair
  in the same order on both strands, an opposite tangency (antiparallel) in
  reversed order.  The new crossings get opposite frame signs, fixed by
  which side of the static strand faces the region.

* A bigon death deletes the four visits of the lens's two corner
  crossings.  The lens and the two regions at its corner-opposite sectors
  merge into one region whose chi is the sum of the distinct merged chis
  plus 1 (the lens) minus 2 (the two corridors opened at the corners); the
  merged genus is recovered from the traced cycle count.

* A triple-point move slides a strand across the opposite crossing of a
  triangle: on each of the three strands the two consecutive visits at the
  triangle's corners swap.  Crossing count, region chis and the triangle
  itself persist.

In a disk region (genus 0, one boundary cycle) the two birth positions fix
the tangency.  The finger's tip stays parallel to its own arc at pos1, and
it meets the far arc where the disk's boundary walk runs against the walk
at pos1.  A walk runs along its arc on a left-side dart and against it on a
right-side one, so the birth is direct exactly when the two positions lie
on darts of different sides.  A birth of the other tangency is not
realizable; it is rejected with PlanInvalid before any new code is built.
Births in non-disk regions need a SplitPlan because the finger's isotopy
class (how it winds around handles or separates boundary cycles) is not
determined by the endpoints; the plan declares the outcome and is validated
against chi conservation and the traced cycle structure.

Every move that goes ahead traces its new code once and carries the regions
over along one path.  It states `parents`: for each new arc, the old arcs it
runs along (none for the sides of a new lens, a dead bigon or a moved
triangle).  `_inherited_darts` turns these into the old darts each new face
continues; the move keys each face by the old region of those darts, or by
a new region (split pieces, lens, merged region).  `_moved_diagram` groups
the faces by key, checks that every carried-over region keeps its boundary
count, places the base and assembles the diagram from the traced cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .diagram import (
    LEFT,
    CurveDiagram,
    SignedGaussCode,
    _assemble_diagram,
    _trace,
    dart_arc,
    dart_id,
    dart_side,
    index_function,
    rotation_prev,
)
from .errors import (
    ExhaustedRetries,
    HomologicallyNontrivial,
    PlanInvalid,
    PlanRequired,
    SiteError,
    TopologyError,
)


@dataclass(frozen=True)
class SplitPlan:
    """How a birth distributes a region's topology among its pieces.

    pieces: one or two (genus, untouched-cycle-ids) entries.  pieces[0] is
    the piece on the walk-predecessor side of the first birth position.
    base_piece: index of the piece keeping the base when the split region is
    the base region (defaults to piece 0).
    """

    pieces: tuple
    base_piece: int = 0


@dataclass(frozen=True)
class MoveSite:
    """A move location: kind is one of bigon_direct, bigon_opposite,
    triangle, birth_direct, birth_opposite (a bare "bigon" names a bigon of
    either tangency).  Deaths and triple moves read only the region id.
    Births carry two boundary positions (dart id, fractional offset along
    the dart's walk) and an optional SplitPlan."""

    kind: str
    region: int
    positions: tuple = None
    plan: SplitPlan = None


# ---------------------------------------------------------------------------
# site detection


def _disk(diagram, rid, corners):
    """(cycle, arcs, arc ends) of region rid if it is a genus-0 single-cycle
    disk with `corners` corners whose corner crossings and boundary arcs are
    pairwise distinct; None otherwise, and for an id that names no region.
    An arc's ends are the labels of its start and end crossings."""
    if not 0 <= rid < len(diagram.regions):
        return None
    region = diagram.regions[rid]
    if region.genus != 0 or len(region.cycles) != 1:
        return None
    cycle = diagram.cycles[region.cycles[0]]
    if len(cycle) != corners:
        return None
    arcs = [dart_arc(d) for d in cycle]
    if len(set(arcs)) != corners:
        return None
    visits = diagram.code.visits
    ends = [(visits[a][0], visits[(a + 1) % len(visits)][0]) for a in arcs]
    if len({c for end in ends for c in end}) != corners:
        return None
    return cycle, arcs, ends


def _short_cycle_regions(diagram, corners):
    """Ascending ids of the regions that own a boundary cycle of `corners`
    darts: the only regions where _disk can find `corners` corners."""
    dart_region = diagram.dart_region
    return sorted({dart_region[cycle[0]] for cycle in diagram.cycles
                   if len(cycle) == corners})


def find_bigons(diagram: CurveDiagram):
    """All bigon sites: the 2-corner _disk regions, whose two arcs join the
    same two crossings.  Direct if both arcs run P -> Q (parallel strands),
    opposite if one runs P -> Q and the other Q -> P."""
    sites = []
    for rid in _short_cycle_regions(diagram, 2):
        if (disk := _disk(diagram, rid, 2)) is not None:
            _cycle, _arcs, (ends0, ends1) = disk
            kind = "bigon_direct" if ends0 == ends1 else "bigon_opposite"
            sites.append(MoveSite(kind=kind, region=rid))
    return sites


def find_triangles(diagram: CurveDiagram):
    """All triangle sites: 3-corner disk regions with three distinct
    boundary arcs meeting three distinct crossings pairwise."""
    return [MoveSite(kind="triangle", region=rid)
            for rid in _short_cycle_regions(diagram, 3)
            if _disk(diagram, rid, 3) is not None]


# ---------------------------------------------------------------------------
# carrying regions over a move


def _inherited_darts(cycles, parents):
    """For each new face, the old darts it continues.

    parents[k] lists the old arcs that new arc k runs along; a dart keeps
    its side, so new dart 2k + side continues the old darts 2a + side."""
    return [[2 * a + (d & 1) for d in cycle for a in parents[d >> 1]]
            for cycle in cycles]


def _moved_diagram(diagram, code, traced, face_key, layout, base_key):
    """Assemble the diagram after a move from the (cycles, dart -> cycle)
    traced from its new code.

    face_key[c] names the region of new face c.  layout lists the new
    regions in order: an int r carries old region r over (its key is r, and
    it must keep its boundary count), a pair (key, genus) is a new region.
    The base goes to the region whose key is base_key."""
    faces = {}
    for c, key in enumerate(face_key):
        faces.setdefault(key, []).append(c)
    regions, base = [], None
    for entry in layout:
        if isinstance(entry, int):
            key, genus = entry, diagram.regions[entry].genus
            if len(faces.get(key, ())) != len(diagram.regions[entry].cycles):
                raise TopologyError(f"region {entry} changed its boundary count")
        else:
            key, genus = entry
        if key == base_key:
            base = len(regions)
        regions.append((genus, faces.get(key, ())))
    return _assemble_diagram(code, *traced, regions, diagram.surface_chi, base)


# ---------------------------------------------------------------------------
# tangency birth


_UNREALIZABLE = "the tangency is not realizable in this region of the surface"


def birth_site(region, pos1, pos2, kind, plan=None):
    """Convenience constructor; positions are (dart id, walk fraction)."""
    if kind not in ("direct", "opposite"):
        raise SiteError(f"birth kind must be direct or opposite, got {kind!r}")
    p1 = (int(pos1[0]), Fraction(pos1[1]))
    p2 = (int(pos2[0]), Fraction(pos2[1]))
    return MoveSite(kind=f"birth_{kind}", region=int(region),
                    positions=(p1, p2), plan=plan)


def tangency_birth(diagram: CurveDiagram, site: MoveSite) -> CurveDiagram:
    """Perform a self-tangency birth at the given site."""
    if site.kind not in ("birth_direct", "birth_opposite"):
        raise SiteError(f"not a birth site: {site.kind}")
    direct = site.kind == "birth_direct"
    rid = site.region
    if not 0 <= rid < len(diagram.regions):
        raise SiteError(f"region {rid} does not exist")
    region = diagram.regions[rid]
    (d1, t1), (d2, t2) = site.positions
    dart_cycle, dart_region = diagram.dart_cycle, diagram.dart_region
    for d, t in site.positions:
        if not 0 <= d < len(dart_region) or dart_region[d] != rid:
            raise SiteError(f"dart {d} is not on the boundary of region {rid}")
        if not 0 < t < 1:
            raise SiteError(f"walk fraction {t} of dart {d} is not in (0, 1)")
    plan = site.plan
    is_disk = region.genus == 0 and len(region.cycles) == 1
    if plan is None and not is_disk:
        raise PlanRequired(
            f"region {rid} is not a disk; a split plan is required"
        )

    a1, s1 = dart_arc(d1), dart_side(d1)
    a2, s2 = dart_arc(d2), dart_side(d2)
    # in a disk the birth is direct exactly when the two darts' sides differ
    # (module docstring); the other tangency is rejected before any tracing
    if is_disk and direct == (s1 == s2):
        raise PlanInvalid(_UNREALIZABLE)
    # walk fraction -> fraction along the arc's own direction
    f1 = Fraction(t1) if s1 == LEFT else 1 - Fraction(t1)
    f2 = Fraction(t2) if s2 == LEFT else 1 - Fraction(t2)

    visits = list(diagram.code.visits)
    p_label = max((lab for lab, _sign in visits), default=0) + 1
    q_label = p_label + 1
    # strand 0 pushes, strand 1 is static.  Sorted by (arc, fraction, pusher
    # first), each strand's pair of visits lands right after its arc's start
    # visit (at 0 when n = 0), and the later pair sits 2 further on
    order = sorted([(a1, f1, 0), (a2, f2, 1)])
    at = [a + 1 if diagram.n else 0 for a, _f, _strand in order]
    first = [None, None]
    for i, (_a, _f, strand) in enumerate(order):
        first[strand] = at[i] + 2 * i
    # frame sign of (pusher tangent, static tangent) at the pusher's first
    # crossing: +1 iff the region lies on the static arc's left
    sign = 1 if s2 == LEFT else -1
    if first[1] < first[0]:
        sign = -sign
    p, q = (p_label, sign), (q_label, -sign)
    # the pusher visits (P, Q); the static strand (P, Q) for a direct
    # tangency and (Q, P) for an opposite one
    pairs = ([p, q], [p, q] if direct else [q, p])
    parent = list(range(len(visits)))
    for i in (1, 0):
        a, _f, strand = order[i]
        visits[at[i]:at[i]] = pairs[strand]
        parent[at[i]:at[i]] = [a, a]
    code = SignedGaussCode(tuple(visits))
    traced = _trace(code)
    cycles, face_of = traced

    # each strand's lens-bounding mid arc is the slot at its first visit;
    # the two lens sides continue no old arc, every other slot its parent
    parents = [[] if k in first else [a] for k, a in enumerate(parent)]
    inherited = _inherited_darts(cycles, parents)

    lens = [ci for ci, darts in enumerate(inherited) if not darts]
    if len(lens) != 1 or len(cycles[lens[0]]) != 2:
        raise PlanInvalid("the inserted lens does not close up into a bigon face")

    face_key = [None] * len(cycles)
    face_key[lens[0]] = "lens"
    r_faces = {}     # face of the split region -> its old cycles
    for ci, darts in enumerate(inherited):
        regs = {dart_region[x] for x in darts}
        if len(regs) > 1:
            # the declared tangency would force distinct regions to merge,
            # i.e. it is not realizable on the fixed surface
            raise PlanInvalid(_UNREALIZABLE)
        if regs == {rid}:
            r_faces[ci] = {dart_cycle[x] for x in darts}
        elif regs:
            face_key[ci] = regs.pop()

    cut_cycles = {dart_cycle[d1], dart_cycle[d2]}
    untouched = set(region.cycles) - cut_cycles
    cut_faces = [ci for ci, cyc_set in r_faces.items() if cyc_set & cut_cycles]
    plain_faces = {ci: cyc_set for ci, cyc_set in r_faces.items() if not cyc_set & cut_cycles}

    if plan is None:
        plan = SplitPlan(pieces=((0, frozenset()), (0, frozenset())), base_piece=0)
    pieces = [(int(g), frozenset(cs)) for g, cs in plan.pieces]
    if len(pieces) not in (1, 2):
        raise PlanInvalid("a split plan must declare one or two pieces")
    declared = set()
    for g, cs in pieces:
        if g < 0:
            raise PlanInvalid("piece genus must be nonnegative")
        declared |= cs
    if declared != untouched or (len(pieces) == 2 and pieces[0][1] & pieces[1][1]):
        raise PlanInvalid(
            f"plan must partition the untouched cycles {sorted(untouched)}"
        )
    if plan.base_piece not in range(len(pieces)):
        raise PlanInvalid(
            f"base piece {plan.base_piece!r} is not one of the plan's "
            f"{len(pieces)} piece(s)"
        )
    if len(cut_faces) != len(pieces):
        raise PlanInvalid(
            f"plan declares {len(pieces)} piece(s) but the cut produced "
            f"{len(cut_faces)} boundary face(s)"
        )

    # piece 0 sits on the walk-predecessor side of pos1
    marker_slot = first[0] - 1 if s1 == LEFT else first[0] + 1
    marker_dart = dart_id(marker_slot % len(visits), s1)
    if len(pieces) == 1:
        for ci in cut_faces:
            face_key[ci] = ("piece", 0)
    else:
        marker_face = face_of[marker_dart]
        if marker_face not in cut_faces:
            raise PlanInvalid("cannot locate the piece adjacent to pos1")
        for ci in cut_faces:
            face_key[ci] = ("piece", 0 if ci == marker_face else 1)
    for ci, cyc_set in plain_faces.items():
        homes = {k for k, (_g, cs) in enumerate(pieces) if cyc_set & cs}
        if len(homes) != 1:
            raise PlanInvalid(
                f"face with cycles {sorted(cyc_set)} does not fit the plan's partition"
            )
        face_key[ci] = ("piece", homes.pop())

    chi_total = 0
    for p, (g, _cs) in enumerate(pieces):
        faces = face_key.count(("piece", p))
        if not faces:
            raise PlanInvalid(f"piece {p} has no boundary faces")
        chi_total += 2 - 2 * g - faces
    if chi_total != region.chi + 1:
        raise PlanInvalid(
            f"plan chi {chi_total} != region chi {region.chi} + 1"
        )

    layout = [*range(rid),
              *((("piece", p), g) for p, (g, _cs) in enumerate(pieces)),
              *range(rid + 1, len(diagram.regions)),
              ("lens", 0)]
    base_key = diagram.base_region
    if base_key == rid:
        base_key = ("piece", plan.base_piece)
    return _moved_diagram(diagram, code, traced, face_key, layout, base_key)


# ---------------------------------------------------------------------------
# bigon death


def bigon_death(diagram: CurveDiagram, site) -> CurveDiagram:
    """Remove the two crossings of a bigon (the inverse of a birth)."""
    rid = site.region if isinstance(site, MoveSite) else int(site)
    disk = _disk(diagram, rid, 2)
    if disk is None:
        raise SiteError(f"region {rid} is not a bigon")
    cycle, mid_arcs, ends = disk
    m = 2 * diagram.n
    dart_region = diagram.dart_region

    # regions at the corner-opposite sectors: at each corner the bigon's
    # outgoing dart e occupies the sector (e, sigma(e)); the region two
    # rotation steps away faces it across the crossing
    prev = rotation_prev(diagram.code)
    opposite_regions = [dart_region[prev[prev[e]]] for e in cycle]
    merged_old = {rid, *opposite_regions}
    if rid in opposite_regions:
        raise TopologyError("bigon region touches its own opposite sector")
    chi_merged = diagram.regions[rid].chi - 2
    for r in set(opposite_regions):
        chi_merged += diagram.regions[r].chi

    # every visit but the two of each corner crossing stays
    corners = set(ends[0])
    kept = [k for k, (lab, _sign) in enumerate(diagram.code.visits) if lab not in corners]
    visits = tuple(diagram.code.visits[k] for k in kept)
    code = SignedGaussCode(visits)
    traced = _trace(code)
    cycles = traced[0]

    # each new arc spans the old arcs from its kept visit up to the next
    # one (all of them when no crossing is kept), less the bigon's sides
    mid_set = set(mid_arcs)
    starts, ends = (kept, kept[1:] + [kept[0] + m]) if kept else ([0], [m])
    parents = [[a % m for a in range(s, e) if a % m not in mid_set]
               for s, e in zip(starts, ends)]

    face_key = []
    for darts in _inherited_darts(cycles, parents):
        regs = {dart_region[x] for x in darts}
        if not regs:
            raise TopologyError("a face lost all boundary material in a death")
        if regs & merged_old:
            if not regs <= merged_old:
                raise TopologyError("a death merged an unexpected region")
            face_key.append("merged")
        else:
            if len(regs) != 1:
                raise TopologyError("a death merged an unexpected region")
            face_key.append(regs.pop())

    merged_faces = face_key.count("merged")
    if not merged_faces:
        raise TopologyError("merged region has no boundary faces")
    genus2 = 2 - chi_merged - merged_faces
    if genus2 < 0 or genus2 % 2 != 0:
        raise TopologyError(
            f"merged region chi {chi_merged} with {merged_faces} cycles "
            "gives a non-integer or negative genus"
        )

    first = min(merged_old)
    layout = [("merged", genus2 // 2) if r == first else r
              for r in range(len(diagram.regions)) if r == first or r not in merged_old]
    base_key = "merged" if diagram.base_region in merged_old else diagram.base_region
    return _moved_diagram(diagram, code, traced, face_key, layout, base_key)


# ---------------------------------------------------------------------------
# triple-point move


def triple_move(diagram: CurveDiagram, site) -> CurveDiagram:
    """Slide the three strands of a triangle across each other."""
    rid = site.region if isinstance(site, MoveSite) else int(site)
    disk = _disk(diagram, rid, 3)
    if disk is None:
        raise SiteError(f"region {rid} is not a triangle")
    _cycle, side_arcs, _ends = disk
    m = 2 * diagram.n
    blocks = [(a, (a + 1) % m) for a in side_arcs]
    touched = [p for b in blocks for p in b]
    if len(set(touched)) != 6:
        raise SiteError("triangle strand passages overlap")

    perm = list(range(m))
    for a, b in blocks:
        perm[a], perm[b] = b, a
    # a crossing's stored sign flips where the swap reverses its visit order
    partner = diagram.code.partner
    visits = [None] * m
    for p, (lab, sign) in enumerate(diagram.code.visits):
        q = partner[p]
        visits[perm[p]] = (lab, sign if (p < q) == (perm[p] < perm[q]) else -sign)
    code = SignedGaussCode(tuple(visits))
    traced = _trace(code)
    cycles = traced[0]

    # the triangle's sides continue no old arc; every other arc stays put
    side_set = set(side_arcs)
    parents = [[] if k in side_set else [k] for k in range(m)]
    face_key = []
    for darts, cyc in zip(_inherited_darts(cycles, parents), cycles):
        regs = {diagram.dart_region[x] for x in darts}
        if not regs:
            if rid in face_key:
                raise TopologyError("two faces claim the triangle after the move")
            if len(cyc) != 3:
                raise TopologyError("the moved triangle is not a 3-corner face")
            regs = {rid}
        if len(regs) != 1:
            raise TopologyError("a triple move may not merge regions")
        face_key.append(regs.pop())
    if rid not in face_key:
        raise TopologyError("the triangle vanished in a triple move")
    return _moved_diagram(diagram, code, traced, face_key, range(len(diagram.regions)),
                          diagram.base_region)


# ---------------------------------------------------------------------------
# random diagrams


def random_diagram(n: int, genus: int, seed, max_tries: int = 20000) -> CurveDiagram:
    """Rejection-sample a homologically trivial diagram with n crossings on
    the closed oriented surface of the given genus.

    Signed Gauss codes are drawn uniformly (random visit pairing, random
    signs); codes whose carrier genus exceeds the target are rejected, lower
    carrier genus is padded onto the region of cycle 0.  Deterministic for a
    fixed (n, genus, seed)."""
    if n < 0 or genus < 0:
        raise ValueError("n and genus must be nonnegative")
    rng = random.Random(f"curveinv:{n}:{genus}:{seed}")
    for _ in range(max_tries):
        slots = list(range(2 * n))
        rng.shuffle(slots)
        entries = [None] * (2 * n)
        for lab in range(1, n + 1):
            sign = rng.choice((1, -1))
            entries[slots[2 * lab - 2]] = (lab, sign)
            entries[slots[2 * lab - 1]] = (lab, sign)
        code = SignedGaussCode(tuple(entries))
        cycles, dart_cycle = _trace(code)
        carrier_chi = len(cycles) - n
        if (2 - carrier_chi) % 2 != 0:
            raise TopologyError("carrier chi of a 4-valent map must be even")
        carrier_genus = (2 - carrier_chi) // 2
        if carrier_genus > genus:
            continue
        deficit = genus - carrier_genus
        regions = [
            (deficit if c == 0 else 0, (c,)) for c in range(len(cycles))
        ]
        diagram = _assemble_diagram(code, cycles, dart_cycle, regions, 2 - 2 * genus, 0)
        try:
            index_function(diagram, 0)
        except HomologicallyNontrivial:
            continue
        return replace(diagram, base_region=rng.randrange(len(diagram.regions)))
    raise ExhaustedRetries(
        f"no homologically trivial diagram with n={n}, genus={genus} "
        f"found in {max_tries} tries"
    )
