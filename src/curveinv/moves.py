"""Self-tangency and triple-point moves on curve diagrams.

Move semantics in terms of the signed Gauss code:

* A tangency birth pushes a finger from one boundary position of a region
  across it to a second boundary position, overshooting into a lens of two
  new crossings.  Along each of the two strands the new visits are adjacent;
  a direct tangency (strands parallel at contact) inserts the pair in the
  same order on both strands, an opposite tangency (antiparallel) in
  reversed order.  The new crossings get opposite frame signs, fixed by
  which side of the static strand faces the region.

* A bigon death deletes the two crossings of a lens.  The lens and the two
  regions at its corner-opposite sectors merge into one region whose chi is
  the sum of the distinct merged chis plus 1 (the lens) minus 2 (the two
  corridors opened at the corners); the merged genus is recovered from the
  traced cycle count.

* A triple-point move slides a strand across the opposite crossing of a
  triangle: on each of the three strands the two consecutive visits at the
  triangle's corners swap.  Crossing count, region chis and the triangle
  itself persist.

Births in non-disk regions need a SplitPlan because the finger's isotopy
class (how it winds around handles or separates boundary cycles) is not
determined by the endpoints; the plan declares the outcome and is validated
against chi conservation and the traced cycle structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .diagram import (
    LEFT,
    RIGHT,
    CurveDiagram,
    Region,
    SignedGaussCode,
    _rotations,
    build_diagram,
    dart_arc,
    dart_id,
    dart_side,
    index_function,
    trace_boundary_cycles,
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
    triangle, birth_direct, birth_opposite.  Births carry two boundary
    positions (dart id, fractional offset along the dart's walk) and an
    optional SplitPlan."""

    kind: str
    region: int
    positions: tuple = None
    plan: SplitPlan = None


# ---------------------------------------------------------------------------
# site detection


def _arc_endpoints(diagram, arc):
    """(start crossing label, end crossing label) of an arc, n >= 1."""
    m = 2 * diagram.n
    start = diagram.code.visits[arc][0]
    end = diagram.code.visits[(arc + 1) % m][0]
    return start, end


def _disk_cycles(diagram, corners):
    """Regions that are genus-0 single-cycle disks with `corners` corners,
    whose corner crossings and boundary arcs are pairwise distinct."""
    found = []
    for rid, region in enumerate(diagram.regions):
        if region.genus != 0 or len(region.cycles) != 1:
            continue
        cycle = diagram.cycles[region.cycles[0]]
        if diagram.n == 0 or len(cycle) != corners:
            continue
        arcs = [dart_arc(d) for d in cycle]
        if len(set(arcs)) != corners:
            continue
        ends = [_arc_endpoints(diagram, a) for a in arcs]
        crossings = set()
        for s, e in ends:
            crossings.update((s, e))
        if len(crossings) != corners:
            continue
        found.append((rid, cycle, arcs, ends))
    return found


def find_bigons(diagram: CurveDiagram):
    """All bigon sites: 2-corner disk regions bounded by two distinct arcs
    joining two distinct crossings.  Direct if both arcs run P -> Q
    (parallel strands), opposite if one runs P -> Q and the other Q -> P."""
    sites = []
    for rid, _cycle, _arcs, ends in _disk_cycles(diagram, 2):
        (s1, e1), (s2, e2) = ends
        if (s1, e1) == (s2, e2):
            kind = "bigon_direct"
        elif (s1, e1) == (e2, s2):
            kind = "bigon_opposite"
        else:
            continue
        sites.append(MoveSite(kind=kind, region=rid))
    return sites


def find_triangles(diagram: CurveDiagram):
    """All triangle sites: 3-corner disk regions with three distinct
    boundary arcs meeting three distinct crossings pairwise."""
    return [
        MoveSite(kind="triangle", region=rid)
        for rid, _cycle, _arcs, _ends in _disk_cycles(diagram, 3)
    ]


# ---------------------------------------------------------------------------
# tangency birth


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
    for d in (d1, d2):
        if not 0 <= d < len(dart_region) or dart_region[d] != rid:
            raise SiteError(f"dart {d} is not on the boundary of region {rid}")
    plan = site.plan
    is_disk = region.genus == 0 and len(region.cycles) == 1
    if plan is None and not is_disk:
        raise PlanRequired(
            f"region {rid} is not a disk; a split plan is required"
        )

    a1, s1 = dart_arc(d1), dart_side(d1)
    a2, s2 = dart_arc(d2), dart_side(d2)
    # walk fraction -> fraction along the arc's own direction
    f1 = Fraction(t1) if s1 == LEFT else 1 - Fraction(t1)
    f2 = Fraction(t2) if s2 == LEFT else 1 - Fraction(t2)

    old_visits = diagram.code.visits
    labels = [lab for lab, _ in old_visits]
    p_label = (max(labels) if labels else 0) + 1
    q_label = p_label + 1
    # pusher inserts (P, Q) along its arc; the static strand inserts (P, Q)
    # for a direct tangency and (Q, P) for an opposite one
    events = [
        (a1, f1, 0, "pusher", (p_label, q_label)),
        (a2, f2, 1, "static", (p_label, q_label) if direct else (q_label, p_label)),
    ]
    events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))

    new_entries = []           # (label,) placeholders; signs fixed later
    parent = []                # parent[j] = old arc of the gap after entry j
    event_pos = {}             # (tag, label) -> new position
    num_arcs = diagram.num_arcs

    def lay_events(arc):
        for ev_arc, _frac, _tie, tag, pair in events:
            if ev_arc != arc:
                continue
            for lab in pair:
                event_pos[(tag, lab)] = len(new_entries)
                new_entries.append(lab)
                parent.append(arc)

    if diagram.n == 0:
        lay_events(0)
    else:
        for k in range(2 * diagram.n):
            new_entries.append(old_visits[k][0])
            parent.append(k)
            lay_events(k)

    # frame sign of (pusher tangent, static tangent) at the pusher's first
    # crossing: +1 iff the region lies on the static arc's left
    det_p = 1 if s2 == LEFT else -1
    det = {p_label: det_p, q_label: -det_p}
    new_sign = {}
    for lab in (p_label, q_label):
        pp, ps = event_pos[("pusher", lab)], event_pos[("static", lab)]
        new_sign[lab] = det[lab] if pp < ps else -det[lab]
    old_sign = {lab: sign for lab, sign in old_visits}
    visits = tuple(
        (lab, new_sign.get(lab, old_sign.get(lab))) for lab in new_entries
    )
    code = SignedGaussCode(visits)
    cycles = trace_boundary_cycles(code)

    # each strand's two entries are adjacent, so its lens-bounding mid arc
    # is the slot starting at its first laid label
    pusher_first = min(event_pos[("pusher", p_label)], event_pos[("pusher", q_label)])
    static_first = min(event_pos[("static", p_label)], event_pos[("static", q_label)])
    mid_slots = {pusher_first, static_first}

    lens_cycles = []
    face_info = []   # per new cycle: (old regions touched, old R-cycles touched)
    for cyc in cycles:
        regions_touched = set()
        r_cycles = set()
        all_mid = True
        for d in cyc:
            slot, side = dart_arc(d), dart_side(d)
            if slot in mid_slots:
                continue
            all_mid = False
            old_dart = dart_id(parent[slot], side)
            reg = dart_region[old_dart]
            regions_touched.add(reg)
            if reg == rid:
                r_cycles.add(dart_cycle[old_dart])
        if all_mid:
            lens_cycles.append(cyc)
        face_info.append((regions_touched, r_cycles))

    if len(lens_cycles) != 1 or len(lens_cycles[0]) != 2:
        raise PlanInvalid("the inserted lens does not close up into a bigon face")
    lens_index = cycles.index(lens_cycles[0])

    cut_cycles = {dart_cycle[d1], dart_cycle[d2]}
    untouched = set(region.cycles) - cut_cycles
    r_faces, other_faces = {}, {}
    for ci, (regs, r_cycles) in enumerate(face_info):
        if ci == lens_index:
            continue
        if not regs:
            raise PlanInvalid("a face carries no surviving boundary material")
        if len(regs) != 1:
            # the declared tangency would force distinct regions to merge,
            # i.e. it is not realizable on the fixed surface
            raise PlanInvalid(
                "the tangency is not realizable in this region of the surface"
            )
        if rid in regs:
            r_faces[ci] = r_cycles
        else:
            other_faces[ci] = next(iter(regs))

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
    if len(cut_faces) != len(pieces):
        raise PlanInvalid(
            f"plan declares {len(pieces)} piece(s) but the cut produced "
            f"{len(cut_faces)} boundary face(s)"
        )

    # piece 0 sits on the walk-predecessor side of pos1
    marker_slot = None
    if s1 == LEFT:
        marker_slot = event_pos[("pusher", p_label)] - 1
        if diagram.n == 0 and marker_slot < 0:
            marker_slot = len(new_entries) - 1
    else:
        marker_slot = event_pos[("pusher", q_label)]
    marker_dart = dart_id(marker_slot % len(new_entries), s1)
    piece_of_face = {}
    if len(pieces) == 1:
        for ci in cut_faces:
            piece_of_face[ci] = 0
    else:
        marker_face = next(
            ci for ci, cyc in enumerate(cycles) if marker_dart in cyc
        )
        if marker_face not in cut_faces:
            raise PlanInvalid("cannot locate the piece adjacent to pos1")
        for ci in cut_faces:
            piece_of_face[ci] = 0 if ci == marker_face else 1
    for ci, cyc_set in plain_faces.items():
        homes = {k for k, (_g, cs) in enumerate(pieces) if cyc_set & cs}
        if len(homes) != 1:
            raise PlanInvalid(
                f"face with cycles {sorted(cyc_set)} does not fit the plan's partition"
            )
        piece_of_face[ci] = homes.pop()

    piece_faces = [
        [ci for ci, k in piece_of_face.items() if k == p] for p in range(len(pieces))
    ]
    chi_total = 0
    for p, (g, _cs) in enumerate(pieces):
        if not piece_faces[p]:
            raise PlanInvalid(f"piece {p} has no boundary faces")
        chi_total += 2 - 2 * g - len(piece_faces[p])
    if chi_total != region.chi + 1:
        raise PlanInvalid(
            f"plan chi {chi_total} != region chi {region.chi} + 1"
        )

    new_regions = []
    new_base = None
    for r, reg in enumerate(diagram.regions):
        if r == rid:
            for p, (g, _cs) in enumerate(pieces):
                if r == diagram.base_region and p == (plan.base_piece or 0):
                    new_base = len(new_regions)
                new_regions.append((g, tuple(sorted(piece_faces[p]))))
        else:
            faces = tuple(sorted(ci for ci, rr in other_faces.items() if rr == r))
            if len(faces) != len(reg.cycles):
                raise TopologyError(
                    f"region {r} changed its boundary count in a birth"
                )
            if r == diagram.base_region:
                new_base = len(new_regions)
            new_regions.append((reg.genus, faces))
    new_regions.append((0, (lens_index,)))

    return build_diagram(
        code, regions=new_regions, surface_chi=diagram.surface_chi,
        base_region=new_base,
    )


# ---------------------------------------------------------------------------
# bigon death


def _bigon_data(diagram, rid):
    for r, cycle, arcs, ends in _disk_cycles(diagram, 2):
        if r == rid:
            (s1, e1), (s2, e2) = ends
            if (s1, e1) == (s2, e2) or (s1, e1) == (e2, s2):
                return cycle, arcs
    raise SiteError(f"region {rid} is not a bigon")


def bigon_death(diagram: CurveDiagram, site) -> CurveDiagram:
    """Remove the two crossings of a bigon (the inverse of a birth)."""
    rid = site.region if isinstance(site, MoveSite) else int(site)
    cycle, mid_arcs = _bigon_data(diagram, rid)
    m = 2 * diagram.n
    corner_labels = set()
    for a in mid_arcs:
        s, e = _arc_endpoints(diagram, a)
        corner_labels.update((s, e))
    positions = diagram.code.crossing_positions()
    removed = set()
    for lab in corner_labels:
        p1, p2, _ = positions[lab]
        removed.update((p1, p2))
    dart_region = diagram.dart_region

    # regions at the corner-opposite sectors: at each corner the bigon's
    # outgoing dart e occupies the sector (e, sigma(e)); the region two
    # rotation steps away faces it across the crossing
    rot, at = _rotations(diagram.code)
    opposite_regions = []
    for e in cycle:
        lab, i = at[e]
        opp = rot[lab][(i + 2) % 4]
        opposite_regions.append(dart_region[opp])
    merged_old = {rid, *opposite_regions}
    if rid in opposite_regions:
        raise TopologyError("bigon region touches its own opposite sector")
    chi_merged = diagram.regions[rid].chi - 2
    for r in set(opposite_regions):
        chi_merged += diagram.regions[r].chi

    kept = [k for k in range(m) if k not in removed]
    visits = tuple(diagram.code.visits[k] for k in kept)
    code = SignedGaussCode(visits)
    cycles = trace_boundary_cycles(code)

    # each new arc spans the old arcs between consecutive kept visits
    parents = []
    if kept:
        for i in range(len(kept)):
            start = kept[i]
            end = kept[(i + 1) % len(kept)]
            span = []
            a = start
            while True:
                span.append(a)
                a = (a + 1) % m
                if a == end:
                    break
                if len(span) > m:
                    raise TopologyError("arc span failed to close")
            parents.append(span)
    else:
        parents.append(list(range(m)))

    mid_set = set(mid_arcs)
    face_region = []
    for cyc in cycles:
        regions_touched = set()
        for d in cyc:
            slot, side = dart_arc(d), dart_side(d)
            for a in parents[slot]:
                if a in mid_set:
                    continue
                regions_touched.add(dart_region[dart_id(a, side)])
        if not regions_touched:
            raise TopologyError("a face lost all boundary material in a death")
        if regions_touched & merged_old:
            if not regions_touched <= merged_old:
                raise TopologyError("a death merged an unexpected region")
            face_region.append(None)   # merged
        else:
            if len(regions_touched) != 1:
                raise TopologyError("a death merged an unexpected region")
            face_region.append(regions_touched.pop())

    merged_faces = tuple(sorted(ci for ci, r in enumerate(face_region) if r is None))
    if not merged_faces:
        raise TopologyError("merged region has no boundary faces")
    genus2 = 2 - chi_merged - len(merged_faces)
    if genus2 < 0 or genus2 % 2 != 0:
        raise TopologyError(
            f"merged region chi {chi_merged} with {len(merged_faces)} cycles "
            "gives a non-integer or negative genus"
        )

    new_regions = []
    new_base = None
    merged_placed = False
    base_merged = diagram.base_region in merged_old
    for r, reg in enumerate(diagram.regions):
        if r in merged_old:
            if not merged_placed:
                if base_merged:
                    new_base = len(new_regions)
                new_regions.append((genus2 // 2, merged_faces))
                merged_placed = True
            continue
        faces = tuple(sorted(ci for ci, rr in enumerate(face_region) if rr == r))
        if len(faces) != len(reg.cycles):
            raise TopologyError(f"region {r} changed its boundary count in a death")
        if r == diagram.base_region:
            new_base = len(new_regions)
        new_regions.append((reg.genus, faces))

    return build_diagram(
        code, regions=new_regions, surface_chi=diagram.surface_chi,
        base_region=new_base,
    )


# ---------------------------------------------------------------------------
# triple-point move


def triple_move(diagram: CurveDiagram, site) -> CurveDiagram:
    """Slide the three strands of a triangle across each other."""
    rid = site.region if isinstance(site, MoveSite) else int(site)
    found = [item for item in _disk_cycles(diagram, 3) if item[0] == rid]
    if not found:
        raise SiteError(f"region {rid} is not a triangle")
    _, cycle, side_arcs, _ = found[0]
    m = 2 * diagram.n
    blocks = [(a, (a + 1) % m) for a in side_arcs]
    touched = [p for b in blocks for p in b]
    if len(set(touched)) != 6:
        raise SiteError("triangle strand passages overlap")

    perm = {p: p for p in range(m)}
    for a, b in blocks:
        perm[a], perm[b] = b, a
    entries = list(diagram.code.visits)
    new_entries = [None] * m
    for p, visit in enumerate(entries):
        new_entries[perm[p]] = visit
    positions = diagram.code.crossing_positions()
    flip = set()
    for lab, (p1, p2, _sign) in positions.items():
        if perm[p1] > perm[p2]:
            flip.add(lab)
    visits = tuple(
        (lab, -sign if lab in flip else sign) for lab, sign in new_entries
    )
    code = SignedGaussCode(visits)
    cycles = trace_boundary_cycles(code)

    side_set = set(side_arcs)
    face_region = []
    triangle_face = None
    for ci, cyc in enumerate(cycles):
        regions_touched = set()
        for d in cyc:
            if dart_arc(d) in side_set:
                continue
            regions_touched.add(diagram.dart_region[d])
        if not regions_touched:
            if triangle_face is not None:
                raise TopologyError("two faces claim the triangle after the move")
            if len(cyc) != 3:
                raise TopologyError("the moved triangle is not a 3-corner face")
            triangle_face = ci
            face_region.append(rid)
            continue
        if len(regions_touched) != 1:
            raise TopologyError("a triple move may not merge regions")
        face_region.append(regions_touched.pop())
    if triangle_face is None:
        raise TopologyError("the triangle vanished in a triple move")

    new_regions = []
    new_base = None
    for r, reg in enumerate(diagram.regions):
        faces = tuple(sorted(ci for ci, rr in enumerate(face_region) if rr == r))
        if len(faces) != len(reg.cycles):
            raise TopologyError(f"region {r} changed its boundary count")
        if r == diagram.base_region:
            new_base = len(new_regions)
        new_regions.append((reg.genus, faces))

    return build_diagram(
        code, regions=new_regions, surface_chi=diagram.surface_chi,
        base_region=new_base,
    )


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
        if n == 0:
            visits = ()
        else:
            slots = list(range(2 * n))
            rng.shuffle(slots)
            entries = [None] * (2 * n)
            for lab in range(1, n + 1):
                sign = rng.choice((1, -1))
                entries[slots[2 * lab - 2]] = (lab, sign)
                entries[slots[2 * lab - 1]] = (lab, sign)
            visits = tuple(entries)
        code = SignedGaussCode(visits)
        cycles = trace_boundary_cycles(code)
        carrier_chi = (len(cycles) - n) if n > 0 else 2
        if (2 - carrier_chi) % 2 != 0:
            raise TopologyError("carrier chi of a 4-valent map must be even")
        carrier_genus = (2 - carrier_chi) // 2
        if carrier_genus > genus:
            continue
        deficit = genus - carrier_genus
        regions = [
            (deficit if c == 0 else 0, (c,)) for c in range(len(cycles))
        ]
        diagram = build_diagram(
            code, regions=regions, surface_chi=2 - 2 * genus, base_region=0
        )
        try:
            index_function(diagram, 0)
        except HomologicallyNontrivial:
            continue
        base = rng.randrange(len(diagram.regions))
        if base != 0:
            diagram = build_diagram(
                code, regions=regions, surface_chi=2 - 2 * genus, base_region=base
            )
        return diagram
    raise ExhaustedRetries(
        f"no homologically trivial diagram with n={n}, genus={genus} "
        f"found in {max_tries} tries"
    )
