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
over in one table pass.  Each new arc continues an old arc, or none: in a
birth every arc but the two lens sides continues its parent, in a triple
move every arc but the triangle's three sides continues itself, and in a
death every old arc but the bigon's two sides continues into the new arc of
the last kept visit at or before it.  A dart keeps its side, so this pairs
darts: the move zips a list of new faces with a list of keys over the same
darts, the key being the old region of the continued dart (in a death its
new region, the merged regions as one) and None where no arc is continued.
`_face_keys` reads each new face's key from the distinct (face, key) pairs,
O(faces) work after the one pass over the darts; a face with two keys is a
merge.  A birth reads the old cycles of the split region's faces from their
darts.  The move then names each face's new region (split pieces, lens,
merged region, or a carried-over one), and `_moved_diagram` checks that
every carried-over region keeps its boundary count and assembles the
diagram from the finished face -> region table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .diagram import (
    LEFT,
    CurveDiagram,
    SignedGaussCode,
    _assemble_diagram,
    _is_int,
    _trace,
    dart_arc,
    dart_id,
    dart_side,
    index_function,
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
    the piece on the walk-predecessor side of the first birth position.  One
    piece may own both faces that the cut leaves: a finger around a handle,
    whose piece then has genus g - 1.
    base_piece: index of the piece keeping the base when the split region is
    the base region (defaults to piece 0).
    """

    pieces: tuple
    base_piece: int = 0


class MoveSite(NamedTuple):
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
    """(cycle, arcs) of region rid if it is a genus-0 single-cycle disk with
    `corners` corners whose corner crossings and boundary arcs are pairwise
    distinct; None otherwise, and for an id that names no region.

    The walk along a dart of arc a ends at visit a + 1 on a left side and at
    visit a on a right side, and it starts where the previous dart of the
    cycle ends, so these ends are the cycle's corners."""
    if not 0 <= rid < len(diagram.regions):
        return None
    genus, cycle_ids = diagram.regions[rid]
    if genus != 0 or len(cycle_ids) != 1:
        return None
    cycle = diagram.cycles[cycle_ids[0]]
    if len(cycle) != corners:
        return None
    visits = diagram.code.visits
    m = len(visits)
    arcs, labels = [], set()
    for d in cycle:
        a = d >> 1
        arcs.append(a)
        labels.add(visits[(a + 1 - (d & 1)) % m][0])
    if len(set(arcs)) != corners or len(labels) != corners:
        return None
    return cycle, arcs


def _short_cycle_regions(diagram, corners):
    """Ascending ids of the regions that own a boundary cycle of `corners`
    darts: the only regions where _disk can find `corners` corners."""
    dart_region = diagram.dart_region
    return sorted({dart_region[cycle[0]] for cycle in diagram.cycles
                   if len(cycle) == corners})


def find_bigons(diagram: CurveDiagram):
    """All bigon sites: the 2-corner _disk regions, whose two arcs join the
    same two crossings.  Direct if both arcs run P -> Q (parallel strands),
    i.e. start at the same crossing; opposite if one runs P -> Q and the
    other Q -> P."""
    visits = diagram.code.visits
    sites = []
    for rid in _short_cycle_regions(diagram, 2):
        if (disk := _disk(diagram, rid, 2)) is not None:
            a0, a1 = disk[1]
            same = visits[a0][0] == visits[a1][0]
            sites.append(MoveSite("bigon_direct" if same else "bigon_opposite", rid))
    return sites


def find_triangles(diagram: CurveDiagram):
    """All triangle sites: 3-corner disk regions with three distinct
    boundary arcs meeting three distinct crossings pairwise."""
    return [MoveSite("triangle", rid)
            for rid in _short_cycle_regions(diagram, 3)
            if _disk(diagram, rid, 3) is not None]


# ---------------------------------------------------------------------------
# carrying regions over a move


_MERGED = -1     # the key of a face whose darts carry two keys


def _face_keys(dart_face, dart_key, faces):
    """The key each of the `faces` new faces carries over, read from the
    distinct (face, key) pairs of its darts: None for a face whose darts
    all have the blank key None, _MERGED for a face whose darts carry two
    keys."""
    keys = [None] * faces
    for f, k in set(zip(dart_face, dart_key)):
        if k is not None:
            have = keys[f]
            if have is None:
                keys[f] = k
            elif have != k:
                keys[f] = _MERGED
    return keys


def _moved_diagram(diagram, code, traced, genera, face_region, carried, base):
    """Assemble the diagram after a move from the (cycles, dart -> face)
    traced from its new code and its finished face -> region table.

    genera[r] is the genus of new region r, and carried[r] the old region
    it carries over, None for a new region (split pieces, lens, merged
    region).  A carried-over region must keep its boundary count."""
    counts = [0] * len(genera)
    for r in face_region:
        counts[r] += 1
    old = diagram.regions
    for r, o in enumerate(carried):
        if o is not None and counts[r] != len(old[o].cycles):
            raise TopologyError(f"region {o} changed its boundary count")
    return _assemble_diagram(code, *traced, genera, face_region, diagram.surface_chi, base)


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
    p_label = max(visits, default=(0, 0))[0] + 1
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
    # the old region and cycle of the old dart each new dart continues: a
    # strand's first new arc is a lens side and continues none (None), its
    # second continues the old arc, and every other arc continues itself
    reg_src = list(dart_region) if diagram.n else []
    cyc_src = list(dart_cycle) if diagram.n else []
    for i in (1, 0):
        a, _f, strand = order[i]
        visits[at[i]:at[i]] = pairs[strand]
        x, left, right = 2 * at[i], 2 * a, 2 * a + 1
        reg_src[x:x] = [None, None, dart_region[left], dart_region[right]]
        cyc_src[x:x] = [None, None, dart_cycle[left], dart_cycle[right]]
    code = SignedGaussCode(tuple(visits))
    traced = _trace(code)
    cycles, face_of = traced

    keys = _face_keys(face_of, reg_src, len(cycles))
    if keys.count(None) != 1 or len(cycles[keys.index(None)]) != 2:
        raise PlanInvalid("the inserted lens does not close up into a bigon face")
    if _MERGED in keys:
        # the declared tangency would force distinct regions to merge, i.e.
        # it is not realizable on the fixed surface
        raise PlanInvalid(_UNREALIZABLE)
    # the faces of the split region, ascending, and the old cycles each one
    # continues, read from the old cycles of its darts
    r_faces = {ci: set(map(cyc_src.__getitem__, cycles[ci])) - {None}
               for ci, k in enumerate(keys) if k == rid}

    cut_cycles = {dart_cycle[d1], dart_cycle[d2]}
    untouched = set(region.cycles) - cut_cycles
    cut_faces = [ci for ci, cyc_set in r_faces.items() if cyc_set & cut_cycles]
    plain_faces = {ci: cyc_set for ci, cyc_set in r_faces.items() if not cyc_set & cut_cycles}

    if plan is None:
        plan = SplitPlan(pieces=((0, frozenset()), (0, frozenset())), base_piece=0)
    # a genus that is not an int is kept as -1, rejected as a negative one
    pieces = [(g if _is_int(g) else -1, frozenset(cs)) for g, cs in plan.pieces]
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
    # a face per piece, or two faces that one piece owns: a finger around a
    # handle
    if len(cut_faces) not in (len(pieces), 2):
        raise PlanInvalid(
            f"plan declares {len(pieces)} piece(s) but the cut produced "
            f"{len(cut_faces)} boundary face(s)"
        )

    # piece 0 sits on the walk-predecessor side of pos1; piece_of maps each
    # face of the split region to its piece
    marker_slot = first[0] - 1 if s1 == LEFT else first[0] + 1
    marker_dart = dart_id(marker_slot % len(visits), s1)
    if len(pieces) == 1:
        piece_of = dict.fromkeys(cut_faces, 0)
    else:
        marker_face = face_of[marker_dart]
        if marker_face not in cut_faces:
            raise PlanInvalid("cannot locate the piece adjacent to pos1")
        piece_of = {ci: 0 if ci == marker_face else 1 for ci in cut_faces}
    for ci, cyc_set in plain_faces.items():
        homes = {k for k, (_g, cs) in enumerate(pieces) if cyc_set & cs}
        if len(homes) != 1:
            raise PlanInvalid(
                f"face with cycles {sorted(cyc_set)} does not fit the plan's partition"
            )
        piece_of[ci] = homes.pop()

    chi_total = 0
    piece_faces = list(piece_of.values())
    for p, (g, _cs) in enumerate(pieces):
        faces = piece_faces.count(p)
        if not faces:
            raise PlanInvalid(f"piece {p} has no boundary faces")
        chi_total += 2 - 2 * g - faces
    if chi_total != region.chi + 1:
        raise PlanInvalid(
            f"plan chi {chi_total} != region chi {region.chi} + 1"
        )

    # new regions: the old ones before rid, the pieces, the old ones after
    # rid, the lens; old region r > rid moves up by len(pieces) - 1, and
    # key len(regions) stands for the lens
    count, shift = len(diagram.regions), len(pieces) - 1
    keys[keys.index(None)] = count
    renumber = [*range(rid + 1), *range(rid + 1 + shift, count + shift + 1)]
    face_region = list(map(renumber.__getitem__, keys))
    for ci, piece in piece_of.items():
        face_region[ci] = rid + piece
    old_genera = [g for g, _cs in diagram.regions]
    genera = [*old_genera[:rid], *(g for g, _cs in pieces), *old_genera[rid + 1:], 0]
    carried = [*range(rid), *[None] * len(pieces), *range(rid + 1, count), None]
    base = diagram.base_region
    base = rid + plan.base_piece if base == rid else renumber[base]
    return _moved_diagram(diagram, code, traced, genera, face_region, carried, base)


# ---------------------------------------------------------------------------
# bigon death


def bigon_death(diagram: CurveDiagram, site) -> CurveDiagram:
    """Remove the two crossings of a bigon (the inverse of a birth)."""
    rid = site.region if isinstance(site, MoveSite) else int(site)
    disk = _disk(diagram, rid, 2)
    if disk is None:
        raise SiteError(f"region {rid} is not a bigon")
    cycle, mid_arcs = disk
    m = 2 * diagram.n
    dart_region = diagram.dart_region

    # regions at the corner-opposite sectors: at each corner the bigon's
    # outgoing dart e occupies the sector (e, sigma(e)); the region two
    # rotation steps away faces it across the crossing
    prev = diagram.code.rotation_prev
    opposite_regions = [dart_region[prev[prev[e]]] for e in cycle]
    merged_old = {rid, *opposite_regions}
    if rid in opposite_regions:
        raise TopologyError("bigon region touches its own opposite sector")
    chi_merged = diagram.regions[rid].chi - 2
    for r in set(opposite_regions):
        chi_merged += diagram.regions[r].chi

    # every visit but the two of each corner crossing stays: the bigon's
    # side a runs between corners visited at a and a + 1, and partner gives
    # their other visits
    partner = diagram.code.partner
    start, end = mid_arcs[0], (mid_arcs[0] + 1) % m
    corners = sorted((start, partner[start], end, partner[end]))
    old_visits = diagram.code.visits
    visits = old_visits[:corners[0]]
    for lo, hi in zip(corners, corners[1:] + [m]):
        visits += old_visits[lo + 1:hi]
    code = SignedGaussCode(visits)
    traced = _trace(code)
    cycles, face_of = traced

    # the new face of each old dart: old arc a continues in the new arc of
    # the last kept visit at or before it, a - k - 1 where k + 1 corners lie
    # at or before a.  With the last new arc's two darts prepended, old dart
    # x reads slot x - 2k, and an arc before the first corner slot x + 2;
    # an arc before the first kept visit thus wraps to the last new arc
    wrapped = face_of[-2:] + face_of
    old_face = list(wrapped[2:2 * corners[0] + 2])
    for k, (lo, hi) in enumerate(zip(corners, corners[1:] + [m])):
        old_face += wrapped[2 * lo - 2 * k:2 * hi - 2 * k]
    # the old darts keyed by their new region, the merged regions as one
    # (numbered as the least of them); the bigon's sides continue no arc
    first = min(merged_old)
    renumber, carried = [], []
    for r in range(len(diagram.regions)):
        if r in merged_old:
            renumber.append(first)
            if r == first:
                carried.append(None)
        else:
            renumber.append(len(carried))
            carried.append(r)
    dart_key = list(map(renumber.__getitem__, dart_region))
    for a in mid_arcs:
        dart_key[2 * a] = dart_key[2 * a + 1] = None

    keys = _face_keys(old_face, dart_key, len(cycles))
    for key in keys:
        if key is None:
            raise TopologyError("a face lost all boundary material in a death")
        if key == _MERGED:
            raise TopologyError("a death merged an unexpected region")
    merged_faces = keys.count(first)
    if not merged_faces:
        raise TopologyError("merged region has no boundary faces")
    genus2 = 2 - chi_merged - merged_faces
    if genus2 < 0 or genus2 % 2 != 0:
        raise TopologyError(
            f"merged region chi {chi_merged} with {merged_faces} cycles "
            "gives a non-integer or negative genus"
        )

    genera = [genus2 // 2 if r is None else diagram.regions[r].genus for r in carried]
    return _moved_diagram(diagram, code, traced, genera, keys, carried,
                          renumber[diagram.base_region])


# ---------------------------------------------------------------------------
# triple-point move


def triple_move(diagram: CurveDiagram, site) -> CurveDiagram:
    """Slide the three strands of a triangle across each other."""
    rid = site.region if isinstance(site, MoveSite) else int(site)
    disk = _disk(diagram, rid, 3)
    if disk is None:
        raise SiteError(f"region {rid} is not a triangle")
    _cycle, side_arcs = disk
    m = 2 * diagram.n
    blocks = [(a, (a + 1) % m) for a in side_arcs]
    touched = [p for b in blocks for p in b]
    if len(set(touched)) != 6:
        raise SiteError("triangle strand passages overlap")

    perm = list(range(m))
    for a, b in blocks:
        perm[a], perm[b] = b, a
    # only the six swapped visits, both visits of each corner, move; a
    # crossing's stored sign flips where the swap reverses its visit order
    partner, old_visits = diagram.code.partner, diagram.code.visits
    visits = list(old_visits)
    for p in touched:
        lab, sign = old_visits[p]
        q = partner[p]
        visits[perm[p]] = (lab, sign if (p < q) == (perm[p] < perm[q]) else -sign)
    code = SignedGaussCode(tuple(visits))
    traced = _trace(code)
    cycles, face_of = traced

    # the triangle's sides continue no old arc; every other arc stays put
    dart_key = list(diagram.dart_region)
    for a in side_arcs:
        dart_key[2 * a] = dart_key[2 * a + 1] = None
    keys = _face_keys(face_of, dart_key, len(cycles))
    triangle = None
    for ci, key in enumerate(keys):
        if key is None:
            if triangle is not None:
                raise TopologyError("two faces claim the triangle after the move")
            if len(cycles[ci]) != 3:
                raise TopologyError("the moved triangle is not a 3-corner face")
            triangle = ci
        elif key == _MERGED:
            raise TopologyError("a triple move may not merge regions")
    if triangle is None:
        raise TopologyError("the triangle vanished in a triple move")
    keys[triangle] = rid
    genera = [g for g, _cs in diagram.regions]
    return _moved_diagram(diagram, code, traced, genera, keys, range(len(genera)),
                          diagram.base_region)


# ---------------------------------------------------------------------------
# random diagrams


RANDOM_TRIES = 20000   # most codes random_diagram draws before ExhaustedRetries


def random_diagram(n: int, genus: int, seed) -> CurveDiagram:
    """Rejection-sample a homologically trivial diagram with n crossings on
    the closed oriented surface of the given genus.

    Signed Gauss codes are drawn uniformly (random visit pairing, random
    signs); codes whose carrier genus exceeds the target are rejected, lower
    carrier genus is padded onto the region of cycle 0.  Deterministic for a
    fixed (n, genus, seed)."""
    if n < 0 or genus < 0:
        raise ValueError("n and genus must be nonnegative")
    rng = random.Random(f"curveinv:{n}:{genus}:{seed}")
    for _ in range(RANDOM_TRIES):
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
        # the missing genus goes to the region of cycle 0
        genera = [genus - carrier_genus] + [0] * (len(cycles) - 1)
        diagram = _assemble_diagram(code, cycles, dart_cycle, genera, None, 2 - 2 * genus, 0)
        try:
            index_function(diagram, 0)
        except HomologicallyNontrivial:
            continue
        return replace(diagram, base_region=rng.randrange(len(diagram.regions)))
    raise ExhaustedRetries(
        f"no homologically trivial diagram with n={n}, genus={genus} "
        f"found in {RANDOM_TRIES} tries"
    )
