"""Moves against a reference copy of the earlier carry-over path.

The reference below is the move code as it was before the moves read their
(new face, old region) pairs in one table pass: each new face collects the
old darts it continues (`ref_inherited_darts`), the move keys the face by
the regions of those darts, and `ref_moved_diagram` groups the faces and
assembles the diagram through the region-list `ref_assemble_diagram`.  The
finders gate sites with the earlier `ref_disk`.

The inputs are the benchmark's walkers at their plateau sizes (n = 96, 128
and 160 on genus 0, 1 and 2), beyond the n <= 64 of the golden corpora:
every region id for a death and a triple move, seeded births in disks of
both tangencies, and births with one- and two-piece plans in the non-disk
regions, also with the base in the split region and in regions of two
boundary cycles.  Each case must give an equal diagram with equal dart
tables, or the same error class and message.
"""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from test_report_differential import ref_rotation_prev

from curveinv.catalog import DIAGRAM_FIXTURES
from curveinv.diagram import (
    LEFT,
    CurveDiagram,
    Region,
    SignedGaussCode,
    _trace,
    dart_arc,
    dart_id,
    dart_side,
    parse_diagram,
)
from curveinv.errors import CurveInvError, PlanInvalid, PlanRequired, SiteError, TopologyError
from curveinv.moves import (
    SplitPlan,
    bigon_death,
    birth_site,
    find_bigons,
    find_triangles,
    tangency_birth,
    triple_move,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.generators import grow_walkers  # noqa: E402

# ---------------------------------------------------------------------------
# reference: the earlier carry-over path


def ref_assemble_diagram(code, cycles, dart_cycle, regions, surface_chi, base_region):
    if regions is None:
        regs = tuple([Region(0, (c,)) for c in range(len(cycles))])
        dart_region, region_chi = dart_cycle, len(cycles)
    else:
        regs = tuple([Region(int(g), tuple(sorted(cs))) for g, cs in regions])
        owner, ids = [None] * len(cycles), range(len(cycles))
        for r, region in enumerate(regs):
            for c in region.cycles:
                if c not in ids or owner[c] is not None:
                    owner = None
                    break
                owner[c] = r
            if owner is None:
                break
        if owner is None or None in owner:
            claimed = sorted(c for r in regs for c in r.cycles)
            raise TopologyError(
                f"region lines must partition cycles 0..{len(cycles) - 1}, got {claimed}")
        genera = 0
        for genus, cs in regs:
            if genus < 0:
                raise TopologyError("region genus must be a nonnegative integer")
            if not cs:
                raise TopologyError("every region needs at least one boundary cycle")
            genera += genus
        region_chi = 2 * len(regs) - 2 * genera - len(cycles)
        dart_region = tuple(owner[c] for c in dart_cycle)
    derived_chi = region_chi - code.n
    if surface_chi is None:
        surface_chi = derived_chi
    elif surface_chi != derived_chi:
        raise TopologyError(
            f"declared chi(S) = {surface_chi} inconsistent with chi conservation "
            f"(regions give {derived_chi})")
    if (2 - surface_chi) % 2 != 0 or surface_chi > 2:
        raise TopologyError(f"chi(S) = {surface_chi} is not 2 - 2g for genus g >= 0")
    if not 0 <= base_region < len(regs):
        raise TopologyError(f"base region {base_region} does not exist")
    return CurveDiagram(code=code, cycles=cycles, regions=regs, surface_chi=surface_chi,
                        base_region=base_region, dart_cycle=dart_cycle,
                        dart_region=dart_region)


def ref_disk(diagram, rid, corners):
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


def ref_find_bigons(diagram):
    sites = []
    for rid in range(len(diagram.regions)):
        if (disk := ref_disk(diagram, rid, 2)) is not None:
            ends0, ends1 = disk[2]
            sites.append(("bigon_direct" if ends0 == ends1 else "bigon_opposite", rid))
    return sites


def ref_find_triangles(diagram):
    return [("triangle", rid) for rid in range(len(diagram.regions))
            if ref_disk(diagram, rid, 3) is not None]


def ref_inherited_darts(cycles, parents):
    return [[2 * a + (d & 1) for d in cycle for a in parents[d >> 1]]
            for cycle in cycles]


def ref_moved_diagram(diagram, code, traced, face_key, layout, base_key):
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
    return ref_assemble_diagram(code, *traced, regions, diagram.surface_chi, base)


UNREALIZABLE = "the tangency is not realizable in this region of the surface"


def ref_tangency_birth(diagram, site):
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
        raise PlanRequired(f"region {rid} is not a disk; a split plan is required")
    a1, s1 = dart_arc(d1), dart_side(d1)
    a2, s2 = dart_arc(d2), dart_side(d2)
    if is_disk and direct == (s1 == s2):
        raise PlanInvalid(UNREALIZABLE)
    f1 = Fraction(t1) if s1 == LEFT else 1 - Fraction(t1)
    f2 = Fraction(t2) if s2 == LEFT else 1 - Fraction(t2)

    visits = list(diagram.code.visits)
    p_label = max((lab for lab, _sign in visits), default=0) + 1
    q_label = p_label + 1
    order = sorted([(a1, f1, 0), (a2, f2, 1)])
    at = [a + 1 if diagram.n else 0 for a, _f, _strand in order]
    first = [None, None]
    for i, (_a, _f, strand) in enumerate(order):
        first[strand] = at[i] + 2 * i
    sign = 1 if s2 == LEFT else -1
    if first[1] < first[0]:
        sign = -sign
    p, q = (p_label, sign), (q_label, -sign)
    pairs = ([p, q], [p, q] if direct else [q, p])
    parent = list(range(len(visits)))
    for i in (1, 0):
        a, _f, strand = order[i]
        visits[at[i]:at[i]] = pairs[strand]
        parent[at[i]:at[i]] = [a, a]
    code = SignedGaussCode(tuple(visits))
    traced = _trace(code)
    cycles, face_of = traced

    parents = [[] if k in first else [a] for k, a in enumerate(parent)]
    inherited = ref_inherited_darts(cycles, parents)
    lens = [ci for ci, darts in enumerate(inherited) if not darts]
    if len(lens) != 1 or len(cycles[lens[0]]) != 2:
        raise PlanInvalid("the inserted lens does not close up into a bigon face")
    face_key = [None] * len(cycles)
    face_key[lens[0]] = "lens"
    r_faces = {}
    for ci, darts in enumerate(inherited):
        regs = {dart_region[x] for x in darts}
        if len(regs) > 1:
            raise PlanInvalid(UNREALIZABLE)
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
        raise PlanInvalid(f"plan must partition the untouched cycles {sorted(untouched)}")
    if plan.base_piece not in range(len(pieces)):
        raise PlanInvalid(f"base piece {plan.base_piece!r} is not one of the plan's "
                          f"{len(pieces)} piece(s)")
    if len(cut_faces) not in (len(pieces), 2):
        raise PlanInvalid(f"plan declares {len(pieces)} piece(s) but the cut produced "
                          f"{len(cut_faces)} boundary face(s)")
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
                f"face with cycles {sorted(cyc_set)} does not fit the plan's partition")
        face_key[ci] = ("piece", homes.pop())
    chi_total = 0
    for p, (g, _cs) in enumerate(pieces):
        faces = face_key.count(("piece", p))
        if not faces:
            raise PlanInvalid(f"piece {p} has no boundary faces")
        chi_total += 2 - 2 * g - faces
    if chi_total != region.chi + 1:
        raise PlanInvalid(f"plan chi {chi_total} != region chi {region.chi} + 1")
    layout = [*range(rid),
              *((("piece", p), g) for p, (g, _cs) in enumerate(pieces)),
              *range(rid + 1, len(diagram.regions)),
              ("lens", 0)]
    base_key = diagram.base_region
    if base_key == rid:
        base_key = ("piece", plan.base_piece)
    return ref_moved_diagram(diagram, code, traced, face_key, layout, base_key)


def ref_bigon_death(diagram, rid):
    disk = ref_disk(diagram, rid, 2)
    if disk is None:
        raise SiteError(f"region {rid} is not a bigon")
    cycle, mid_arcs, ends = disk
    m = 2 * diagram.n
    dart_region = diagram.dart_region
    prev = ref_rotation_prev(diagram.code.partner, diagram.code.own)
    opposite_regions = [dart_region[prev[prev[e]]] for e in cycle]
    merged_old = {rid, *opposite_regions}
    if rid in opposite_regions:
        raise TopologyError("bigon region touches its own opposite sector")
    chi_merged = diagram.regions[rid].chi - 2
    for r in set(opposite_regions):
        chi_merged += diagram.regions[r].chi
    corners = set(ends[0])
    kept = [k for k, (lab, _sign) in enumerate(diagram.code.visits) if lab not in corners]
    code = SignedGaussCode(tuple(diagram.code.visits[k] for k in kept))
    traced = _trace(code)
    cycles = traced[0]
    mid_set = set(mid_arcs)
    starts, ends = (kept, kept[1:] + [kept[0] + m]) if kept else ([0], [m])
    parents = [[a % m for a in range(s, e) if a % m not in mid_set]
               for s, e in zip(starts, ends)]
    face_key = []
    for darts in ref_inherited_darts(cycles, parents):
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
        raise TopologyError(f"merged region chi {chi_merged} with {merged_faces} cycles "
                            "gives a non-integer or negative genus")
    first = min(merged_old)
    layout = [("merged", genus2 // 2) if r == first else r
              for r in range(len(diagram.regions)) if r == first or r not in merged_old]
    base_key = "merged" if diagram.base_region in merged_old else diagram.base_region
    return ref_moved_diagram(diagram, code, traced, face_key, layout, base_key)


def ref_triple_move(diagram, rid):
    disk = ref_disk(diagram, rid, 3)
    if disk is None:
        raise SiteError(f"region {rid} is not a triangle")
    _cycle, side_arcs, _ends = disk
    m = 2 * diagram.n
    blocks = [(a, (a + 1) % m) for a in side_arcs]
    if len({p for b in blocks for p in b}) != 6:
        raise SiteError("triangle strand passages overlap")
    perm = list(range(m))
    for a, b in blocks:
        perm[a], perm[b] = b, a
    partner = diagram.code.partner
    visits = [None] * m
    for p, (lab, sign) in enumerate(diagram.code.visits):
        q = partner[p]
        visits[perm[p]] = (lab, sign if (p < q) == (perm[p] < perm[q]) else -sign)
    code = SignedGaussCode(tuple(visits))
    traced = _trace(code)
    cycles = traced[0]
    side_set = set(side_arcs)
    parents = [[] if k in side_set else [k] for k in range(m)]
    face_key = []
    for darts, cyc in zip(ref_inherited_darts(cycles, parents), cycles):
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
    return ref_moved_diagram(diagram, code, traced, face_key, range(len(diagram.regions)),
                             diagram.base_region)


# ---------------------------------------------------------------------------
# the differential


def outcome(move, diagram, site):
    """(diagram, dart -> cycle, dart -> region), or (error class, message)."""
    try:
        d = move(diagram, site)
    except CurveInvError as exc:
        return type(exc), str(exc)
    return d, d.dart_cycle, d.dart_region


@pytest.fixture(scope="module")
def plateau_walkers():
    return [w.diagram for w in grow_walkers(random.Random("move-differential"))]


@pytest.fixture(scope="module")
def grown_annulus():
    """The essential circle of the torus grown to n >= 128 by births: its
    annulus region (two boundary cycles) takes two-piece plans that keep one
    cycle untouched, every disk a birth of its realizable tangency."""
    d = parse_diagram(DIAGRAM_FIXTURES["essential_torus_circle"])
    rng = random.Random("move-differential:annulus")
    while d.n < 128:
        r = rng.randrange(len(d.regions))
        region = d.regions[r]
        cycles = [d.cycles[c] for c in region.cycles]
        one, plan = rng.choice(cycles), None
        d1, d2 = rng.choice(one), rng.choice(one)
        kind = "direct" if (d1 & 1) != (d2 & 1) else "opposite"
        if len(cycles) > 1:
            rest = frozenset(region.cycles) - {d.dart_cycle[d1]}
            plan = SplitPlan(((0, rest), (0, frozenset()))[::rng.choice((1, -1))])
            kind = rng.choice(("direct", "opposite"))
        try:
            d = tangency_birth(d, birth_site(r, (d1, _fraction(rng)), (d2, _fraction(rng)),
                                             kind, plan))
        except PlanInvalid:
            continue
    assert max(len(region.cycles) for region in d.regions) == 2
    return d


def _fraction(rng):
    return Fraction(rng.randrange(1, 32), 32)


def disk_births(d, rng, count):
    """Seeded births in disk regions, the two tangencies drawn at random, so
    that about half are the unrealizable one."""
    disks = [r for r, reg in enumerate(d.regions) if reg.genus == 0 and len(reg.cycles) == 1]
    sites = []
    for _ in range(count):
        r = rng.choice(disks)
        cycle = d.cycles[d.regions[r].cycles[0]]
        sites.append(birth_site(r, (rng.choice(cycle), _fraction(rng)),
                                (rng.choice(cycle), _fraction(rng)),
                                rng.choice(("direct", "opposite"))))
    return sites


def plan_births(d, r, rng):
    """Births in region r (not a disk) with every one- and two-piece plan,
    and five faulty plans: positions on one cycle, and on two cycles where r
    has several."""
    region = d.regions[r]
    cycles = [d.cycles[c] for c in region.cycles]
    pairs = [(cycles[0], cycles[0]), (cycles[-1], cycles[-1])]
    if len(cycles) > 1:
        pairs += [tuple(rng.sample(cycles, 2)) for _ in range(3)]
    sites = []
    for one, other in pairs:
        for kind in ("direct", "opposite"):
            p1 = (rng.choice(one), _fraction(rng))
            p2 = (rng.choice(other), _fraction(rng))
            cut = {d.dart_cycle[p1[0]], d.dart_cycle[p2[0]]}
            untouched = frozenset(region.cycles) - cut
            plans = [SplitPlan(((g, untouched),)) for g in range(region.genus + 2)]
            plans += [SplitPlan(((-1, untouched),)), SplitPlan(((0, untouched | cut),)),
                      SplitPlan(((0, untouched),), base_piece=1),
                      SplitPlan(((0, untouched), (0, frozenset()), (0, frozenset())))]
            for g in range(region.genus + 1):
                side = frozenset(c for c in untouched if rng.random() < 0.5)
                plans.append(SplitPlan(((g, side), (region.genus - g, untouched - side)),
                                       base_piece=rng.randrange(2)))
            sites += [birth_site(r, p1, p2, kind, plan) for plan in plans]
    return sites


def test_moves_match_the_reference_carry_over_at_plateau_size(plateau_walkers,
                                                              grown_annulus):
    rng = random.Random(21)
    compared = {"death": 0, "triple": 0, "birth": 0, "plan": 0}
    errors = set()

    def check(move, ref, d, site, arg, key):
        got, want = outcome(move, d, site), outcome(ref, d, arg)
        assert got == want, (key, site)
        compared[key] += 1
        if isinstance(got[0], type):
            errors.add(got)

    for d in [*plateau_walkers, grown_annulus]:
        assert [(s.kind, s.region) for s in find_bigons(d)] == ref_find_bigons(d)
        assert [(s.kind, s.region) for s in find_triangles(d)] == ref_find_triangles(d)
        for rid in range(-1, len(d.regions) + 1):
            check(bigon_death, ref_bigon_death, d, rid, rid, "death")
            check(triple_move, ref_triple_move, d, rid, rid, "triple")
        for site in disk_births(d, rng, 60):
            check(tangency_birth, ref_tangency_birth, d, site, site, "birth")
        for r, reg in enumerate(d.regions):
            if reg.genus == 0 and len(reg.cycles) == 1:
                continue
            for base in (r, (r + 1) % len(d.regions)):
                based = replace(d, base_region=base)
                for site in plan_births(based, r, rng):
                    check(tangency_birth, ref_tangency_birth, based, site, site, "plan")
    assert compared["birth"] >= 200 and compared["plan"] >= 200, compared
    # the rejected tangency and the plan faults were reached, not only results
    faults = {msg.split(" ")[0] for cls, msg in errors if cls is PlanInvalid}
    assert (PlanInvalid, UNREALIZABLE) in errors
    assert {"a", "piece", "plan", "base"} <= faults, faults
