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
  the face on the left; alpha(d) = d ^ 1 is the same arc traversed the
  other way.

* Index jump.  Crossing the curve from its right side to its left side
  (left = tangent rotated +90 degrees) increases the index by exactly 1, so
  a small counterclockwise contractible loop has interior index +1.

Regions group boundary cycles and carry a genus, allowing non-cellular
embeddings (for example a contractible circle on the torus).  A region with
genus g and b boundary cycles has chi = 2 - 2g - b, and Euler-characteristic
conservation reads  sum_r chi_r - n = chi(S)  (for n = 0, sum_r chi_r).

Incidence is derived once per object.  One pass over a code's visits
stores four tables on it: `partner`, where partner[k] is the other visit of
the crossing at visit k; `own`, the per-visit sign (the crossing's sign at
its first visit, the negated sign at its second); `rotation_prev`, the one
list sigma^{-1} over darts that face tracing and the moves follow; and
`crossings`, each crossing's (first visit, second visit) in order of first
visit.  Index functions read own, canonical forms partner and own, the
trace and the moves sigma^{-1} and partner, and the crossing pass of the
report the crossing list, n steps instead of 2n.  The trace that finds the
boundary cycles records dart -> cycle as it walks them.  Assembly takes a
finished cycle -> region table (a declared region list is checked to
partition the cycles first, a move builds its table from the old one, and
the default region lines that serialize_diagram writes, matched as text,
need none), groups the cycles into regions from it and maps dart -> cycle
through it to dart -> region (the same table when every cycle is its own
region); both tables are stored on the CurveDiagram for every later step
to read.  An index
function is read off the code and dart -> region in one pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby, repeat
from operator import itemgetter, neg
from typing import NamedTuple

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


@dataclass(frozen=True)
class SignedGaussCode:
    """Cyclic sequence of (label, sign) crossing visits; n = 0 is empty.

    partner[k] is the position of the other visit of the crossing visited
    at position k, and own[k] is the crossing's sign if k is its first
    visit, else the negated sign: +1 where the curve passes from the other
    strand's left to its right.  rotation_prev is sigma^{-1} over darts:
    rotation_prev[d] is the dart before d in the counterclockwise rotation
    at its crossing.  crossings holds each crossing's (first visit, second
    visit), in order of first visit.  All four are derived in one pass over
    the visits when the code is made."""

    visits: tuple
    partner: tuple = field(init=False, compare=False, repr=False)
    own: tuple = field(init=False, compare=False, repr=False)
    rotation_prev: tuple = field(init=False, compare=False, repr=False)
    crossings: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        tables = _code_tables(self.visits)
        if tables is None:
            _code_fault(self.visits)
        for name, table in zip(("partner", "own", "rotation_prev", "crossings"), tables):
            object.__setattr__(self, name, table)

    @property
    def n(self):
        return len(self.visits) // 2

    def crossing_positions(self):
        """Map label -> (first position, second position, sign), read from
        the crossing list."""
        visits = self.visits
        return {visits[k][0]: (k, j, visits[k][1]) for k, j in self.crossings}


def _code_tables(visits):
    """(partner, own, sigma^{-1}, crossing list) of a visit list, from one
    pass over its visits; None if the list has a fault.

    Visit k has the outgoing end 2k (left side of arc k) and the incoming
    end 2k - 1 (right side of arc k - 1).  At the second visit j of a
    crossing first visited at k, the rotations of the module docstring give
    the four entries of sigma^{-1} there: for sign +, out_k follows in_j,
    in_k follows out_j, out_j follows out_k and in_j follows in_k; for sign
    -, out_k follows out_j, in_k follows in_j, out_j follows in_k and in_j
    follows out_k."""
    m = len(visits)
    darts = 2 * m
    partner, own, prev = [0] * m, [0] * m, [0] * darts
    first = {}
    try:
        for j, (label, sign) in enumerate(visits):
            k = first.setdefault(label, j)
            if k == j:
                continue
            s = visits[k][1]
            if partner[k] or sign != s or s not in (1, -1):
                return None     # a third visit, or a sign that is wrong
            # one store per statement: a quarter faster than tuple stores
            partner[k] = j
            partner[j] = k
            own[k] = s
            own[j] = -s
            out1 = 2 * k
            out2 = 2 * j
            in1 = out1 - 1 if k else darts - 1
            in2 = out2 - 1
            if s == 1:
                prev[out1] = in2
                prev[in1] = out2
                prev[out2] = out1
                prev[in2] = in1
            else:
                prev[out1] = out2
                prev[in1] = in2
                prev[out2] = in1
                prev[in2] = out1
    except (TypeError, ValueError):
        return None             # a malformed visit or an unhashable label
    if 2 * len(first) != m:
        return None             # a label visited once
    firsts = first.values()
    return (tuple(partner), tuple(own), tuple(prev),
            tuple(zip(firsts, map(partner.__getitem__, firsts))))


def _code_fault(visits):
    """Raise the error for the first fault of a visit list: a sign other
    than +1 or -1 in visit order, then per label in order of first visit a
    count other than 2 or mismatched signs (a malformed visit or label
    raises the Python error that reading it does)."""
    where = {}
    for k, (label, sign) in enumerate(visits):
        if sign not in (1, -1):
            raise LabelError(f"sign of crossing {label} must be +1 or -1")
        where.setdefault(label, []).append(k)
    for label, ks in where.items():
        if len(ks) != 2:
            raise LabelError(f"crossing {label} appears {len(ks)} time(s), expected 2")
        if visits[ks[1]][1] != visits[ks[0]][1]:
            raise LabelError(f"crossing {label} has mismatched signs")
    raise AssertionError("a visit list without fault was sent to _code_fault")


def trace_boundary_cycles(code: SignedGaussCode, *, dart_cycle=None):
    """Trace the face boundaries of the combinatorial map.

    Each of the 2n arcs contributes two darts; every dart lies on exactly one
    cycle, and each cycle keeps its region on the left.  Cycles are emitted
    in order of their smallest dart id, each starting at its smallest dart,
    so the numbering is deterministic.  For n = 0 the two sides of the closed
    curve form two one-dart cycles.

    dart_cycle, if given, is a list that is filled from the same walk with
    the index of the cycle that holds each dart.
    """
    if code.n == 0:
        owner, cycles = [0, 1], ((dart_id(0, LEFT),), (dart_id(0, RIGHT),))
    else:
        prev = code.rotation_prev
        owner = [-1] * len(prev)
        cycles = []
        for start in range(len(prev)):
            if owner[start] >= 0:
                continue
            c = len(cycles)
            cycle = []
            d = start
            while owner[d] < 0:
                owner[d] = c
                cycle.append(d)
                d = prev[d ^ 1]
            cycles.append(tuple(cycle))
        cycles = tuple(cycles)
    if dart_cycle is not None:
        dart_cycle[:] = owner
    return cycles


def _trace(code):
    """(cycles, dart_cycle) from one call of trace_boundary_cycles."""
    dart_cycle = []
    return trace_boundary_cycles(code, dart_cycle=dart_cycle), tuple(dart_cycle)


class Region(NamedTuple):
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
    # indexed by dart id: dart_cycle from the trace, dart_region through
    # each cycle's region
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
    cycles, dart_cycle = _trace(code)
    return _assemble_diagram(code, cycles, dart_cycle, *_region_table(regions, len(cycles)),
                             surface_chi, base_region)


def _region_table(regions, count):
    """(genera, cycle -> region) of a declared list of (genus, cycle ids),
    which must partition the cycles 0 .. count - 1.  regions None makes each
    cycle its own genus-0 region, with the table None."""
    if regions is None:
        return [0] * count, None
    # a genus that is not an int is kept as -1, which assembly rejects in
    # region order with the message of a negative genus
    regs = [(g if _is_int(g) else -1, tuple(cs)) for g, cs in regions]
    owner = _cycle_regions(regs, count)
    if owner is None:   # the int ids ascending, then the others
        claimed = sorted((c for _genus, cs in regs for c in cs),
                         key=lambda c: (0, c) if _is_int(c) else (1, repr(c)))
        raise TopologyError(
            f"region lines must partition cycles 0..{count - 1}, got {claimed}"
        )
    return [genus for genus, _cs in regs], owner


def _assemble_diagram(code, cycles, dart_cycle, genera, cycle_region, surface_chi,
                      base_region):
    """A CurveDiagram from the boundary cycles and dart -> cycle table traced
    from code, and a finished cycle -> region table.

    Region r has genus genera[r] and the cycles c with cycle_region[c] == r,
    ascending; a cycle_region of None makes cycle c its own region c.  The
    table must map every cycle into range(len(genera)): _region_table
    checks a declared region list, and a move builds its table itself.
    The faults are checked in a fixed order: each region's genus and
    boundary count in region order, then chi conservation, the surface's
    chi and the base region."""
    if cycle_region is None:
        owned = [(c,) for c in range(len(cycles))]
        dart_region = dart_cycle
    else:
        owned = [()] * len(genera)
        for c, r in enumerate(cycle_region):
            owned[r] += (c,)
        dart_region = tuple(map(cycle_region.__getitem__, dart_cycle))
    # tuple.__new__ makes each Region without a call of Region's own Python
    # __new__: half the cost on a move's 100-160 regions
    regs = tuple(map(tuple.__new__, repeat(Region), zip(genera, owned)))
    if min(genera, default=0) < 0 or not all(owned):
        for genus, cs in regs:
            if genus < 0:
                raise TopologyError("region genus must be a nonnegative integer")
            if not cs:
                raise TopologyError("every region needs at least one boundary cycle")
    # the regions' boundary counts add up to the cycles
    derived_chi = 2 * len(regs) - 2 * sum(genera) - len(cycles) - code.n
    if surface_chi is None:
        surface_chi = derived_chi
    elif surface_chi != derived_chi:
        raise TopologyError(
            f"declared chi(S) = {surface_chi} inconsistent with chi conservation "
            f"(regions give {derived_chi})"
        )
    if (2 - surface_chi) % 2 != 0 or surface_chi > 2:
        raise TopologyError(f"chi(S) = {surface_chi} is not 2 - 2g for genus g >= 0")
    if not _is_int(base_region) or not 0 <= base_region < len(regs):
        raise TopologyError(f"base region {base_region} does not exist")
    return CurveDiagram(
        code=code,
        cycles=cycles,
        regions=regs,
        surface_chi=surface_chi,
        base_region=base_region,
        dart_cycle=dart_cycle,
        dart_region=dart_region,
    )


def _is_int(value):
    """Whether value is an int, not a bool: region ids and genera must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def _cycle_regions(regs, count):
    """cycle -> index of the region that owns it, or None unless the
    (genus, cycles) regions partition the cycles 0 .. count - 1, each id an
    int."""
    owner, ids = [None] * count, range(count)
    for r, (_genus, cs) in enumerate(regs):
        for c in cs:
            if not _is_int(c) or c not in ids or owner[c] is not None:
                return None
            owner[c] = r
    return None if None in owner else owner


# ---------------------------------------------------------------------------
# diagram file format


def parse_diagram(text: str) -> CurveDiagram:
    """Parse the diagram file format.

    Directives, one per line ('#' starts a comment):
        surface genus=<g>                       optional
        curve <label><+|-> ... | curve -        required
        region <rid> genus=<g> cycles=<c,...>   optional, must partition cycles
        base <rid>                              required
    A surface, curve or base line may appear at most once.
    """
    curve_tokens = None
    surface_genus = None
    region_lines = []   # (line_no, rid, genus, cycles)
    base_rid = None
    # the next default region line as serialize_diagram writes it, region i
    # of genus 0 with cycle i; None once a region line was read otherwise
    default = "region 0 genus=0 cycles=0"
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw == default:
            i = len(region_lines)
            region_lines.append((line_no, i, 0, (i,)))
            rid = str(i + 1)
            default = f"region {rid} genus=0 cycles={rid}"
            continue
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        kind = fields[0]
        if kind == "region":
            if len(fields) != 4:
                raise ParseError("region needs exactly <rid> genus=<g> cycles=<c,...>",
                                 line_no)
            _, rid, genus, cycle_list = fields
            rid = _parse_int(rid, line_no, "region id")
            genus = _parse_kv(genus, "genus", line_no)
            if not cycle_list.startswith("cycles="):
                raise ParseError("expected cycles=<c1,c2,...>", line_no)
            try:
                cycle_list = tuple(map(_decimal, cycle_list[7:].split(",")))
            except ValueError:
                raise ParseError("bad cycle list", line_no) from None
            region_lines.append((line_no, rid, genus, cycle_list))
            default = None
        elif kind == "surface":
            if len(fields) != 2:
                raise ParseError("surface needs exactly genus=<g>", line_no)
            if surface_genus is not None:
                raise ParseError("duplicate surface line", line_no)
            surface_genus = _parse_kv(fields[1], "genus", line_no)
        elif kind == "curve":
            if curve_tokens is not None:
                raise ParseError("duplicate curve line", line_no)
            if len(fields) == 1:
                raise ParseError("curve needs visit tokens, or - for no crossing", line_no)
            curve_tokens = (fields[1:], line_no, raw)
        elif kind == "base":
            if len(fields) != 2:
                raise ParseError("base needs exactly one region id", line_no)
            if base_rid is not None:
                raise ParseError("duplicate base line", line_no)
            base_rid = (_parse_int(fields[1], line_no, "base region"), line_no)
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no)

    if curve_tokens is None:
        raise ParseError("missing curve line")
    if base_rid is None:
        raise ParseError("missing base line")

    tokens, curve_line, line = curve_tokens
    visits = ()
    if tokens != ["-"]:
        try:
            visits = tuple([(int(tok[:-1]), _SIGNS[tok[-1]]) for tok in tokens])
        except (ValueError, KeyError):
            visits = None
        # int() also reads 1_0, +1, 01 and non-ASCII digits.  Whole-line tests
        # rule them out: a label's leading + or 0 follows a space, or the tab
        # or \x1f that are a line's other ASCII whitespace.  A line they flag
        # (a comment may) gets the per-token checks, which raise only at a
        # faulty token.
        if (visits is None or min(visits)[0] <= 0 or not line.isascii() or "_" in line
                or "\t" in line or "\x1f" in line or " +" in line or " 0" in line):
            _visit_fault(tokens, curve_line)
    try:
        code = SignedGaussCode(visits)
    except LabelError as exc:
        raise LabelError(f"line {curve_line}: {exc}") from None

    cycles, dart_cycle = _trace(code)
    count = len(cycles)
    base, base_line = base_rid
    table = [0] * count, None    # one default region per cycle
    if default is not None and len(region_lines) == count:
        # every cycle's default line, in order: ids, partition and the base's
        # index hold as written
        if not 0 <= base < count:
            raise ParseError(f"base region {base} not declared", base_line)
    elif region_lines:
        region_lines.sort(key=itemgetter(1))
        rids = [rid for _, rid, _, _ in region_lines]
        if len(set(rids)) != len(rids):
            raise ParseError("duplicate region id", region_lines[0][0])
        if base not in rids:
            raise ParseError(f"base region {base} not declared", base_line)
        base = rids.index(base)
        table = _region_table([(genus, cs) for _, _, genus, cs in region_lines], count)
    elif not 0 <= base < count:
        raise ParseError(f"base region {base} does not exist", base_line)

    surface_chi = None if surface_genus is None else 2 - 2 * surface_genus
    return _assemble_diagram(code, cycles, dart_cycle, *table, surface_chi, base)


_SIGNS = {"+": 1, "-": -1}


def _visit_fault(tokens, line_no):
    """Raise the error for the first faulty visit token, if there is one."""
    for tok in tokens:
        if len(tok) < 2 or tok[-1] not in "+-":
            raise ParseError(f"bad visit token {tok!r}", line_no)
        if _parse_int(tok[:-1], line_no, "crossing label") <= 0:
            raise ParseError(f"crossing label must be positive: {tok!r}", line_no)


_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def _decimal(text):
    """int(text) for an integer written as serialize_diagram writes one, 0 or
    [1-9][0-9]* in ASCII, or with a leading '-' that the callers' range
    checks reject; ValueError for the other forms int() reads, such as 1_0,
    +1, 01, -0 or non-ASCII digits."""
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_int(text, line_no, what):
    try:
        return _decimal(text)
    except ValueError:
        raise ParseError(f"bad {what}: {text!r}", line_no) from None


def _parse_kv(field, key, line_no):
    if not field.startswith(key + "="):
        raise ParseError(f"expected {key}=<value>", line_no)
    value = _parse_int(field[len(key) + 1:], line_no, key)
    if value < 0:
        raise ParseError(f"{key} must be nonnegative", line_no)
    return value


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

    Read off the code in one pass.  At visit k the curve crosses the other
    strand, from its left to its right where own[k] = +1, so the value just
    right of the curve drops by own[k] there: the right-side values of the
    arcs are prefix sums of -own.  A region takes the value v + 1 on the
    left of an arc and v on its right; two darts of one region that disagree
    mean no index function exists, i.e. the curve is homologically
    nontrivial.
    """
    if base_region is None:
        base_region = diagram.base_region
    if not _is_int(base_region) or not 0 <= base_region < len(diagram.regions):
        raise TopologyError(f"base region {base_region} does not exist")
    side = diagram.dart_region
    values = {}
    rights = accumulate(map(neg, diagram.code.own[1:]), initial=0)
    for left, right, v in zip(side[0::2], side[1::2], rights):
        if values.setdefault(left, v + 1) != v + 1 or values.setdefault(right, v) != v:
            raise HomologicallyNontrivial(
                "index propagation is inconsistent: the curve does not bound"
            )
    shift = values[base_region]
    return IndexFunction(base_region=base_region,
                         values={r: values[r] - shift for r in range(len(diagram.regions))})


def arc_and_crossing_indices(diagram: CurveDiagram, ind: IndexFunction):
    """Indices of the curve's own points, by averaging adjacent regions.

    An arc's index is the mean of its two side values, which differ by 1; it
    is stored as the integer smaller side v, read on its right, so the index
    is v + 1/2.  A crossing's index is the integer mean of its four corner
    values, which form {i-1, i, i, i+1}: left of the arcs into its visits,
    right of the arcs out of them.
    """
    low = list(map(ind.values.__getitem__, diagram.dart_region[1::2]))
    crossing_idx = {}
    visits = diagram.code.visits
    for p1, p2 in diagram.code.crossings:
        # integers with sum 4i and squared deviations from i summing to 2
        # are exactly {i-1, i, i, i+1}; with the sum 4i, those deviations
        # sum to a^2 + b^2 + c^2 + d^2 - 4i^2
        a, b, c, d = low[p1 - 1] + 1, low[p2 - 1] + 1, low[p1], low[p2]
        total = a + b + c + d
        i = total >> 2
        if total & 3 or a * a + b * b + c * c + d * d != 4 * i * i + 2:
            raise TopologyError(f"crossing {visits[p1][0]} corners "
                                f"{sorted((a, b, c, d))} are not i-1,i,i,i+1")
        crossing_idx[visits[p1][0]] = i
    return dict(enumerate(low)), crossing_idx


# ---------------------------------------------------------------------------
# subsurfaces over half-integer levels


def _check_half_integer(j) -> int:
    """2j, the odd integer that names a half odd integer level j."""
    j = Fraction(j)
    if j.denominator != 2:
        raise ValueError(f"level j must be a half odd integer, got {j}")
    return j.numerator


def subsurface_chi(diagram: CurveDiagram, ind: IndexFunction, j) -> int:
    """chi of the closed subsurface where the index exceeds the level j.

    Computed by compactly-supported additivity over the interior: regions
    with value > j, minus one per open arc with both sides > j, plus one per
    crossing with all four corners > j.  A crossing-free closed component
    strictly inside contributes 0.  The library reads chi(S_j) from
    subsurface_profile; this one-level count is the reference the tests
    compare that profile with.
    """
    twice_j = _check_half_integer(j)
    total = sum(r.chi for rid, r in enumerate(diagram.regions)
                if 2 * ind.values[rid] > twice_j)
    arc_idx, crossing_idx = arc_and_crossing_indices(diagram, ind)
    if diagram.n > 0:
        total -= sum(1 for v in arc_idx.values() if 2 * v + 1 > twice_j)
        total += sum(1 for v in crossing_idx.values() if 2 * (v - 1) > twice_j)
    return total


@dataclass(frozen=True)
class SubsurfaceProfile:
    """a_j over half-integer levels, the threshold histogram's bins, plus
    crossing indices.

    Keys of a_j are twice the level (odd integers).  a_j is chi(S_j) minus
    chi(S) for negative j, which vanishes outside the stored window.
    bins[i] = chi(S_{i-1/2}) - chi(S_{i+1/2}) for each integer level i of
    the window; it is the chi of the smoothed curve's level-i region.
    crossing_indices is the sorted multiset of double-point indices.
    """

    a_j: dict
    bins: dict
    crossing_indices: tuple
    surface_chi: int


def subsurface_profile(diagram: CurveDiagram, ind: IndexFunction) -> SubsurfaceProfile:
    """a_j at every level from lo - 1/2 to hi + 1/2 in one pass.

    Each term of subsurface_chi counts at level j iff an integer threshold t
    satisfies t > j: a region at its value, an arc at its smaller side, a
    crossing at i - 1.  Summing a histogram of thresholds from the top gives
    chi(S_j) for every level at once, and the histogram's bins are the
    differences chi(S_{i-1/2}) - chi(S_{i+1/2}).  The top bin, at hi + 1,
    holds no term and is not kept.
    """
    arc_idx, crossing_idx = arc_and_crossing_indices(diagram, ind)
    crossing_indices = tuple(sorted(crossing_idx.values()))
    lo = min(min(ind.values.values()), 0)
    hi = max(max(ind.values.values()), 0)
    hist = [0] * (hi - lo + 2)
    for rid, (genus, cycles) in enumerate(diagram.regions):
        hist[ind.values[rid] - lo] += 2 - 2 * genus - len(cycles)
    if diagram.n > 0:
        for v in arc_idx.values():
            hist[v - lo] -= 1
        # the crossings once per distinct index, read off the sorted indices
        for i, same in groupby(crossing_indices):
            hist[i - 1 - lo] += len(list(same))
    chi_sj = [0] * len(hist)    # chi_sj[k] = chi(S_j) at j = lo + k - 1/2
    for k in range(len(hist) - 2, -1, -1):
        chi_sj[k] = chi_sj[k + 1] + hist[k]
    a_j = {}
    for k, chi in enumerate(chi_sj):
        twice_j = 2 * (lo + k) - 1
        a_j[twice_j] = chi - (diagram.surface_chi if twice_j < 0 else 0)
    return SubsurfaceProfile(a_j=a_j, bins=dict(zip(range(lo, hi + 1), hist)),
                             crossing_indices=crossing_indices,
                             surface_chi=diagram.surface_chi)


@dataclass(frozen=True)
class SmoothedProfile:
    """chi of each level set of the index function of the smoothed curve.

    Smoothing resolves every double point respecting orientation, so the
    complement regions are unions of the original ones; the level-i region
    has chi = chi(S_{i-1/2}) - chi(S_{i+1/2}), the profile's bin i, and the
    levels sum to chi(S) by telescoping.
    """

    level_chi: dict
    surface_chi: int


def smoothed_level_chi(profile: SubsurfaceProfile) -> SmoothedProfile:
    if sum(profile.bins.values()) != profile.surface_chi:
        raise TopologyError("smoothed level chis do not telescope to chi(S)")
    return SmoothedProfile(level_chi=profile.bins, surface_chi=profile.surface_chi)


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

    The form is the least (code, region descriptor, base position) over the
    2n rotations of the code start, each code relabelled in order of first
    appearance.  Only the rotations whose relabelled code is least are built
    in full.  They are found a visit at a time from a per-visit key, with no
    relabelling: visit v lies back[v] visits after its partner (cyclically),
    and own[v] is the crossing's sign if v is its first visit in the stored
    code, else the negated sign.  At position k of rotation r, visit
    v = r + k (mod 2n) repeats a label iff back[v] <= k; its key is then
    -3 back[v] - own[v], at most -2, and own[v] otherwise: as back[v] >= 1
    and own[v] = +-1, these integers order as the pairs (-back[v], -own[v])
    and (0, own[v]) would.  Among rotations whose codes agree before k, the
    key orders them as their (label, sign) pairs at k do: a first visit
    takes the next new label, larger than every label so far; a repeat with
    a larger back reuses the label of an earlier, so smaller, first visit;
    and the sign is own[v] at the rotated first visit and -own[v] at the
    repeat.  Rotations are dropped while their key exceeds the least one;
    the survivors share one code, and several survive only when the code
    has a rotational symmetry.

    When every region is one genus-0 cycle, as on the sphere, renumbering
    the cycles only permutes the regions: every candidate then shares one
    region descriptor, and only the base position is read per candidate.
    """
    if diagram.n == 0:
        regions = _region_descriptor(diagram, {0: 0, 1: 1})
        return ("n0", regions, _base_position(diagram, regions, {0: 0, 1: 1}))
    m = 2 * diagram.n
    partner, own = diagram.code.partner, diagram.code.own
    back = [(v - partner[v]) % m for v in range(m)]
    back2, own2 = back * 2, own * 2     # visit r + k of rotation r, unwrapped
    live = range(m)
    for k in range(m):
        if len(live) == 1:
            break
        keys = [own2[r + k] if back2[r + k] > k else -3 * back2[r + k] - own2[r + k]
                for r in live]
        least = min(keys)
        live = [r for r, key in zip(live, keys) if key == least]
    shared = _shared_descriptor(diagram)
    return min(_rotation_candidate(diagram, back, own, r, shared) for r in live)


def _shared_descriptor(diagram):
    """The region descriptor of every candidate when each region is one
    genus-0 cycle, as on the sphere, else None: renumbering the cycles
    then only permutes the regions."""
    regions = diagram.regions
    if len(regions) == len(diagram.cycles) and not any(map(itemgetter(0), regions)):
        return tuple((0, (c,)) for c in range(len(regions)))
    return None


def _rotation_candidate(diagram, back, own, r, shared):
    """The (code, region descriptor, base position) of the code started at
    visit r, from the per-visit back and own of canonicalize; shared is
    _shared_descriptor's descriptor, or None to build the descriptor."""
    # a first visit takes the next label and its own sign; a repeat copies
    # the entry of its partner, back[v] positions earlier
    code = []
    labels = 0
    for k, (b, s) in enumerate(zip(back[r:] + back[:r], own[r:] + own[:r])):
        if b <= k:
            code.append(code[k - b])
        else:
            labels += 1
            code.append((labels, s))
    # the traced cycles are the same dart sets with every arc moved back by
    # r; renumber them as the trace of the rotated code would, in order of
    # each cycle's first dart from dart 2r on
    dart_cycle = diagram.dart_cycle
    darts = dart_cycle[2 * r:] + dart_cycle[:2 * r]
    if shared is not None:
        # the base's one cycle is numbered by the cycles seen before it
        first = darts.index(diagram.regions[diagram.base_region].cycles[0])
        return (tuple(code), shared, len(set(darts[:first])))
    order = dict.fromkeys(darts)
    cycle_renumber = dict(zip(order, range(len(order))))
    regions = _region_descriptor(diagram, cycle_renumber)
    return (tuple(code), regions, _base_position(diagram, regions, cycle_renumber))


def _region_descriptor(diagram, cycle_renumber):
    renumber = cycle_renumber.__getitem__
    descr = [(genus, tuple(sorted(map(renumber, cycles))))
             for genus, cycles in diagram.regions]
    descr.sort(key=itemgetter(1))
    return tuple(descr)


def _base_position(diagram, descriptor, cycle_renumber):
    genus, cycles = diagram.regions[diagram.base_region]
    key = (genus, tuple(sorted(map(cycle_renumber.__getitem__, cycles))))
    return descriptor.index(key)
