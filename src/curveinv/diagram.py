"""Combinatorial model of a generic closed curve on an oriented closed surface.

A curve with n transverse double points is recorded as a signed Gauss code:
the cyclic sequence of its 2n crossing visits.  Conventions used throughout:

* Crossing sign.  At a crossing first visited with tangent v1 and later with
  tangent v2, the sign is +1 iff (v1, v2) is a positively oriented frame of
  the oriented surface.

* Arcs and darts.  Arc k runs from visit k to visit k+1 (mod 2n); for n = 0
  the whole curve is a single closed arc 0.  Each arc has two sides, encoded
  as darts: dart 2k is the left side of arc k (traversed forward), dart 2k+1
  the right side (traversed backward).  A face-boundary cycle keeps its
  region on the left of every dart it contains.

* Vertex rotation.  The counterclockwise order of the four arc-ends at a
  crossing is (out1, out2, in1, in2) for sign +, and (out1, in2, in1, out2)
  for sign -, where out_i/in_i are the outgoing/incoming ends of the i-th
  visit.  Faces are traced with next(d) = sigma^{-1}(alpha(d)), which keeps
  the face on the left.

* Index jump.  Crossing the curve from its right side to its left side
  (left = tangent rotated +90 degrees) increases the index by exactly 1, so
  a small counterclockwise contractible loop has interior index +1.

Regions group boundary cycles and carry a genus, allowing non-cellular
embeddings (for example a contractible circle on the torus).  A region with
genus g and b boundary cycles has chi = 2 - 2g - b, and Euler-characteristic
conservation reads  sum_r chi_r - n = chi(S)  (for n = 0, sum_r chi_r).

The incidence tables dart -> cycle and dart -> region are built once, in
build_diagram, and stored on the CurveDiagram; every later step reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    HomologicallyNontrivial,
    LabelError,
    ParseError,
    TopologyError,
)

LEFT = 0
RIGHT = 1


def dart_id(arc: int, side: int) -> int:
    return 2 * arc + side

def dart_arc(dart: int) -> int:
    return dart // 2

def dart_side(dart: int) -> int:
    return dart % 2

def dart_mate(dart: int) -> int:
    """The same arc traversed the other way (the edge involution)."""
    return dart ^ 1


@dataclass(frozen=True)
class SignedGaussCode:
    """Cyclic sequence of (label, sign) crossing visits; n = 0 is empty."""

    visits: tuple

    def __post_init__(self):
        seen = {}
        for label, sign in self.visits:
            if sign not in (1, -1):
                raise LabelError(f"sign of crossing {label} must be +1 or -1")
            seen.setdefault(label, []).append(sign)
        for label, signs in seen.items():
            if len(signs) != 2:
                raise LabelError(
                    f"crossing {label} appears {len(signs)} time(s), expected 2"
                )
            if signs[0] != signs[1]:
                raise LabelError(f"crossing {label} has mismatched signs")

    @property
    def n(self):
        return len(self.visits) // 2

    def crossing_positions(self):
        """Map label -> (first position, second position, sign)."""
        pos = {}
        for k, (label, sign) in enumerate(self.visits):
            if label in pos:
                pos[label] = (pos[label][0], k, sign)
            else:
                pos[label] = (k, None, sign)
        return pos


def _rotations(code: SignedGaussCode):
    """Counterclockwise outgoing-dart rotation at each crossing.

    Returns (rot, at) where rot maps label -> 4-tuple of darts and
    at maps dart -> (label, position in the rotation tuple).
    """
    m = 2 * code.n
    rot = {}
    at = {}
    for label, (p1, p2, sign) in code.crossing_positions().items():
        out1 = dart_id(p1, LEFT)
        out2 = dart_id(p2, LEFT)
        in1 = dart_id((p1 - 1) % m, RIGHT)
        in2 = dart_id((p2 - 1) % m, RIGHT)
        if sign == 1:
            order = (out1, out2, in1, in2)
        else:
            order = (out1, in2, in1, out2)
        rot[label] = order
        for i, d in enumerate(order):
            at[d] = (label, i)
    return rot, at


def trace_boundary_cycles(code: SignedGaussCode):
    """Trace the face boundaries of the combinatorial map.

    Each of the 2n arcs contributes two darts; every dart lies on exactly one
    cycle, and each cycle keeps its region on the left.  Cycles are emitted
    in order of their smallest dart id, each starting at its smallest dart,
    so the numbering is deterministic.  For n = 0 the two sides of the closed
    curve form two one-dart cycles.
    """
    if code.n == 0:
        return ((dart_id(0, LEFT),), (dart_id(0, RIGHT),))
    rot, at = _rotations(code)
    total = 4 * code.n
    seen = set()
    cycles = []
    for start in range(total):
        if start in seen:
            continue
        cycle = []
        d = start
        while True:
            cycle.append(d)
            seen.add(d)
            mate = dart_mate(d)
            label, i = at[mate]
            d = rot[label][(i - 1) % 4]
            if d == start:
                break
        cycles.append(tuple(cycle))
    return tuple(cycles)


@dataclass(frozen=True)
class Region:
    genus: int
    cycles: tuple

    @property
    def chi(self):
        return 2 - 2 * self.genus - len(self.cycles)


@dataclass(frozen=True)
class CurveDiagram:
    code: SignedGaussCode
    cycles: tuple            # traced boundary cycles, deterministic order
    regions: tuple           # tuple of Region
    surface_chi: int
    base_region: int
    # derived from cycles and regions, indexed by dart id
    dart_cycle: tuple = field(compare=False, repr=False)
    dart_region: tuple = field(compare=False, repr=False)

    @property
    def n(self):
        return self.code.n

    @property
    def num_arcs(self):
        return max(2 * self.n, 1)


def build_diagram(code, regions=None, surface_chi=None, base_region=0):
    """Assemble and validate a CurveDiagram.

    regions: optional list of (genus, iterable-of-cycle-ids); by default each
    traced cycle becomes its own genus-0 region (the cellular embedding in
    the carrier surface).  surface_chi: optional declared chi(S), checked
    against chi conservation (and derived from it when omitted).
    """
    if not isinstance(code, SignedGaussCode):
        code = SignedGaussCode(tuple(code))
    cycles = trace_boundary_cycles(code)
    if regions is None:
        regs = tuple(Region(0, (c,)) for c in range(len(cycles)))
    else:
        regs = tuple(Region(int(g), tuple(sorted(cs))) for g, cs in regions)
        claimed = [c for r in regs for c in r.cycles]
        if sorted(claimed) != list(range(len(cycles))):
            raise TopologyError(
                f"region lines must partition cycles 0..{len(cycles) - 1}, got {sorted(claimed)}"
            )
        for r in regs:
            if r.genus < 0:
                raise TopologyError("region genus must be a nonnegative integer")
    region_chi = sum(r.chi for r in regs)
    derived_chi = region_chi - (code.n if code.n > 0 else 0)
    if surface_chi is None:
        surface_chi = derived_chi
    elif surface_chi != derived_chi:
        raise TopologyError(
            f"declared chi(S) = {surface_chi} inconsistent with chi conservation "
            f"(regions give {derived_chi})"
        )
    if (2 - surface_chi) % 2 != 0 or surface_chi > 2:
        raise TopologyError(f"chi(S) = {surface_chi} is not 2 - 2g for genus g >= 0")
    if not 0 <= base_region < len(regs):
        raise TopologyError(f"base region {base_region} does not exist")
    dart_cycle = [0] * sum(len(cycle) for cycle in cycles)
    for c, cycle in enumerate(cycles):
        for d in cycle:
            dart_cycle[d] = c
    cycle_region = [0] * len(cycles)
    for r, region in enumerate(regs):
        for c in region.cycles:
            cycle_region[c] = r
    return CurveDiagram(
        code=code,
        cycles=cycles,
        regions=regs,
        surface_chi=surface_chi,
        base_region=base_region,
        dart_cycle=tuple(dart_cycle),
        dart_region=tuple(cycle_region[c] for c in dart_cycle),
    )


# ---------------------------------------------------------------------------
# diagram file format


def parse_diagram(text: str) -> CurveDiagram:
    """Parse the diagram file format.

    Directives, one per line ('#' starts a comment):
        surface genus=<g>                       optional
        curve <label><+|-> ... | curve -        required
        region <rid> genus=<g> cycles=<c,...>   optional, must partition cycles
        base <rid>                              required
    """
    curve_tokens = None
    surface_genus = None
    region_lines = []   # (line_no, rid, genus, cycles)
    base_rid = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "surface":
            surface_genus = _parse_kv(fields[1:], "genus", line_no)
        elif kind == "curve":
            if curve_tokens is not None:
                raise ParseError("duplicate curve line", line_no)
            curve_tokens = (fields[1:], line_no)
        elif kind == "region":
            if len(fields) < 4:
                raise ParseError("region needs <rid> genus=<g> cycles=<c,...>", line_no)
            rid = _parse_int(fields[1], line_no, "region id")
            genus = _parse_kv([fields[2]], "genus", line_no)
            if not fields[3].startswith("cycles="):
                raise ParseError("expected cycles=<c1,c2,...>", line_no)
            try:
                cycles = tuple(int(c) for c in fields[3][len("cycles="):].split(","))
            except ValueError:
                raise ParseError("bad cycle list", line_no) from None
            region_lines.append((line_no, rid, genus, cycles))
        elif kind == "base":
            if len(fields) != 2:
                raise ParseError("base needs exactly one region id", line_no)
            base_rid = (_parse_int(fields[1], line_no, "base region"), line_no)
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no)

    if curve_tokens is None:
        raise ParseError("missing curve line")
    if base_rid is None:
        raise ParseError("missing base line")

    tokens, curve_line = curve_tokens
    visits = []
    if tokens != ["-"]:
        for tok in tokens:
            if len(tok) < 2 or tok[-1] not in "+-":
                raise ParseError(f"bad visit token {tok!r}", curve_line)
            label = _parse_int(tok[:-1], curve_line, "crossing label")
            if label <= 0:
                raise ParseError(f"crossing label must be positive: {tok!r}", curve_line)
            visits.append((label, 1 if tok[-1] == "+" else -1))
    try:
        code = SignedGaussCode(tuple(visits))
    except LabelError as exc:
        raise LabelError(f"line {curve_line}: {exc}") from None

    regions = None
    rid_to_index = None
    if region_lines:
        region_lines.sort(key=lambda item: item[1])
        rids = [rid for _, rid, _, _ in region_lines]
        if len(set(rids)) != len(rids):
            raise ParseError("duplicate region id", region_lines[0][0])
        regions = [(genus, cycles) for _, _, genus, cycles in region_lines]
        rid_to_index = {rid: i for i, (_, rid, _, _) in enumerate(region_lines)}

    base, base_line = base_rid
    if rid_to_index is not None:
        if base not in rid_to_index:
            raise ParseError(f"base region {base} not declared", base_line)
        base = rid_to_index[base]

    surface_chi = None if surface_genus is None else 2 - 2 * surface_genus
    diagram = build_diagram(code, regions=regions, surface_chi=surface_chi,
                            base_region=base if rid_to_index is not None else base)
    if rid_to_index is None and not 0 <= base < len(diagram.regions):
        raise ParseError(f"base region {base} does not exist", base_line)
    return diagram


def _parse_int(text, line_no, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}", line_no) from None


def _parse_kv(fields, key, line_no):
    for f in fields:
        if f.startswith(key + "="):
            value = _parse_int(f[len(key) + 1:], line_no, key)
            if value < 0:
                raise ParseError(f"{key} must be nonnegative", line_no)
            return value
    raise ParseError(f"expected {key}=<value>", line_no)


def serialize_diagram(diagram: CurveDiagram) -> str:
    """Render a diagram back into the file format (region lines explicit)."""
    lines = []
    genus = (2 - diagram.surface_chi) // 2
    lines.append(f"surface genus={genus}")
    if diagram.n == 0:
        lines.append("curve -")
    else:
        toks = [f"{label}{'+' if sign > 0 else '-'}" for label, sign in diagram.code.visits]
        lines.append("curve " + " ".join(toks))
    for rid, region in enumerate(diagram.regions):
        cyc = ",".join(str(c) for c in region.cycles)
        lines.append(f"region {rid} genus={region.genus} cycles={cyc}")
    lines.append(f"base {diagram.base_region}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# index functions


@dataclass(frozen=True)
class IndexFunction:
    """Integer values of the base-point normalized index function per region.

    values[base_region] = 0; crossing any arc from its right side to its left
    side raises the value by exactly 1.
    """

    base_region: int
    values: dict


def index_function(diagram: CurveDiagram, base_region=None) -> IndexFunction:
    """The unique index function vanishing at the base region.

    Propagates the +1 jump rule over the region adjacency graph by breadth
    first search; a conflict means no consistent assignment exists, i.e. the
    curve is homologically nontrivial.
    """
    if base_region is None:
        base_region = diagram.base_region
    if not 0 <= base_region < len(diagram.regions):
        raise TopologyError(f"base region {base_region} does not exist")
    side = diagram.dart_region
    adjacency = {r: [] for r in range(len(diagram.regions))}
    for arc in range(diagram.num_arcs):
        left, right = side[dart_id(arc, LEFT)], side[dart_id(arc, RIGHT)]
        adjacency[right].append((left, 1))
        adjacency[left].append((right, -1))
    values = {base_region: 0}
    queue = [base_region]
    while queue:
        r = queue.pop()
        for other, delta in adjacency[r]:
            v = values[r] + delta
            if other in values:
                if values[other] != v:
                    raise HomologicallyNontrivial(
                        "index propagation is inconsistent: the curve does not bound"
                    )
            else:
                values[other] = v
                queue.append(other)
    if len(values) != len(diagram.regions):
        raise TopologyError("region adjacency graph is not connected")
    return IndexFunction(base_region=base_region, values=values)


def arc_and_crossing_indices(diagram: CurveDiagram, ind: IndexFunction):
    """Indices of the curve's own points, by averaging adjacent regions.

    Arc index = mean of the two side values (= smaller side + 1/2), a
    half-integer Fraction; crossing index = the integer mean of its four
    corner values, which form {i-1, i, i, i+1}.
    """
    value_at = [ind.values[r] for r in diagram.dart_region]
    arc_idx = {}
    for arc in range(diagram.num_arcs):
        arc_idx[arc] = Fraction(
            value_at[dart_id(arc, LEFT)] + value_at[dart_id(arc, RIGHT)], 2
        )
    crossing_idx = {}
    m = 2 * diagram.n
    for label, (p1, p2, _sign) in diagram.code.crossing_positions().items():
        corners = [
            dart_id((p1 - 1) % m, LEFT),
            dart_id((p2 - 1) % m, LEFT),
            dart_id(p1, RIGHT),
            dart_id(p2, RIGHT),
        ]
        vals = sorted(value_at[d] for d in corners)
        i = vals[1]
        if vals != [i - 1, i, i, i + 1]:
            raise TopologyError(f"crossing {label} corners {vals} are not i-1,i,i,i+1")
        crossing_idx[label] = i
    return arc_idx, crossing_idx


# ---------------------------------------------------------------------------
# subsurfaces over half-integer levels


def _check_half_integer(j) -> Fraction:
    j = Fraction(j)
    if j.denominator != 2:
        raise ValueError(f"level j must be a half odd integer, got {j}")
    return j


def subsurface_chi(diagram: CurveDiagram, ind: IndexFunction, j) -> int:
    """chi of the closed subsurface where the index exceeds the level j.

    Computed by compactly-supported additivity over the interior: regions
    with value > j, minus one per open arc with both sides > j, plus one per
    crossing with all four corners > j.  A crossing-free closed component
    strictly inside contributes 0.
    """
    j = _check_half_integer(j)
    total = sum(r.chi for rid, r in enumerate(diagram.regions) if ind.values[rid] > j)
    arc_idx, crossing_idx = arc_and_crossing_indices(diagram, ind)
    if diagram.n > 0:
        total -= sum(1 for v in arc_idx.values() if v > j)
        total += sum(1 for v in crossing_idx.values() if v - 1 > j)
    return total


@dataclass(frozen=True)
class SubsurfaceProfile:
    """a_j over half-integer levels, plus crossing indices.

    Keys of a_j are twice the level (odd integers).  a_j is chi(S_j) minus
    chi(S) for negative j, which vanishes outside the stored window.
    crossing_indices is the sorted multiset of double-point indices.
    """

    a_j: dict
    crossing_indices: tuple
    surface_chi: int

    def a_at(self, twice_j: int) -> int:
        return self.a_j.get(twice_j, 0)


def subsurface_profile(diagram: CurveDiagram, ind: IndexFunction) -> SubsurfaceProfile:
    """a_j at every level from lo - 1/2 to hi + 1/2 in one pass.

    Each term of subsurface_chi counts at level j iff an integer threshold t
    satisfies t > j: a region at its value, an arc at its smaller side, a
    crossing at i - 1.  Summing a histogram of thresholds from the top gives
    chi(S_j) for every level at once.
    """
    arc_idx, crossing_idx = arc_and_crossing_indices(diagram, ind)
    lo = min(min(ind.values.values()), 0)
    hi = max(max(ind.values.values()), 0)
    hist = [0] * (hi - lo + 2)
    for rid, region in enumerate(diagram.regions):
        hist[ind.values[rid] - lo] += region.chi
    if diagram.n > 0:
        for v in arc_idx.values():
            hist[math.floor(v) - lo] -= 1
        for i in crossing_idx.values():
            hist[i - 1 - lo] += 1
    chi_sj = [0] * len(hist)    # chi_sj[k] = chi(S_j) at j = lo + k - 1/2
    for k in range(len(hist) - 2, -1, -1):
        chi_sj[k] = chi_sj[k + 1] + hist[k]
    a_j = {}
    for k, chi in enumerate(chi_sj):
        twice_j = 2 * (lo + k) - 1
        a_j[twice_j] = chi - (diagram.surface_chi if twice_j < 0 else 0)
    return SubsurfaceProfile(
        a_j=a_j, crossing_indices=tuple(sorted(crossing_idx.values())),
        surface_chi=diagram.surface_chi,
    )


@dataclass(frozen=True)
class SmoothedProfile:
    """chi of each level set of the index function of the smoothed curve.

    Smoothing resolves every double point respecting orientation, so the
    complement regions are unions of the original ones; the level-i region
    has chi = a_{i-1/2} - a_{i+1/2} + [i = 0] chi(S), and the levels sum to
    chi(S) by telescoping.
    """

    level_chi: dict
    surface_chi: int


def smoothed_level_chi(profile: SubsurfaceProfile) -> SmoothedProfile:
    twice = sorted(profile.a_j)
    lo = (twice[0] + 1) // 2
    hi = (twice[-1] - 1) // 2
    levels = {}
    for i in range(lo, hi + 1):
        chi = profile.a_at(2 * i - 1) - profile.a_at(2 * i + 1)
        if i == 0:
            chi += profile.surface_chi
        levels[i] = chi
    if sum(levels.values()) != profile.surface_chi:
        raise TopologyError("smoothed level chis do not telescope to chi(S)")
    return SmoothedProfile(level_chi=levels, surface_chi=profile.surface_chi)


def euler_moments(smoothed: SmoothedProfile):
    """First and second moments of the smoothed index against d(chi).

    m1 = sum_i i * chi_i is the Euler-characteristic integral of the index;
    m2 = sum_i i^2 * chi_i.
    """
    m1 = sum(i * chi for i, chi in smoothed.level_chi.items())
    m2 = sum(i * i * chi for i, chi in smoothed.level_chi.items())
    return m1, m2


# ---------------------------------------------------------------------------
# canonical form


def canonicalize(diagram: CurveDiagram):
    """A representative invariant under crossing relabeling, rotation of the
    code start point (with the induced sign adjustments), and region
    relabeling.  Two based diagrams are isomorphic iff their canonical forms
    are equal.
    """
    if diagram.n == 0:
        regions = _region_descriptor(diagram, {0: 0, 1: 1})
        return ("n0", regions, _base_position(diagram, regions, {0: 0, 1: 1}))
    m = 2 * diagram.n
    best = None
    positions = diagram.code.crossing_positions()
    for r in range(m):
        rotated = [diagram.code.visits[(k + r) % m] for k in range(m)]
        # stored signs flip when the rotation swaps which visit comes first
        new_sign = {}
        for label, (p1, p2, sign) in positions.items():
            q1, q2 = (p1 - r) % m, (p2 - r) % m
            new_sign[label] = sign if q1 < q2 else -sign
        relabel = {}
        code = []
        for label, _ in rotated:
            if label not in relabel:
                relabel[label] = len(relabel) + 1
            code.append((relabel[label], new_sign[label]))
        dart_translation = {
            dart_id(a, s): dart_id((a - r) % m, s)
            for a in range(m) for s in (LEFT, RIGHT)
        }
        # the traced cycles are the same dart sets; renumber them as the
        # trace of the rotated code would (ascending min dart id)
        translated = [
            frozenset(dart_translation[d] for d in cycle) for cycle in diagram.cycles
        ]
        order = sorted(range(len(translated)), key=lambda c: min(translated[c]))
        cycle_renumber = {old: new for new, old in enumerate(order)}
        regions = _region_descriptor(diagram, cycle_renumber)
        base = _base_position(diagram, regions, cycle_renumber)
        candidate = (tuple(code), regions, base)
        if best is None or candidate < best:
            best = candidate
    return best


def _region_descriptor(diagram, cycle_renumber):
    descr = [
        (region.genus, tuple(sorted(cycle_renumber[c] for c in region.cycles)))
        for region in diagram.regions
    ]
    return tuple(sorted(descr, key=lambda item: item[1]))


def _base_position(diagram, descriptor, cycle_renumber):
    base = diagram.regions[diagram.base_region]
    key = (base.genus, tuple(sorted(cycle_renumber[c] for c in base.cycles)))
    return descriptor.index(key)
