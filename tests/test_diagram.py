import json
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import curveinv.diagram as diagram_module
from curveinv.catalog import DIAGRAM_FIXTURES
from curveinv.diagram import (
    LEFT,
    RIGHT,
    IndexFunction,
    Region,
    SignedGaussCode,
    _base_position,
    _region_descriptor,
    _rotation_candidate,
    _shared_descriptor,
    arc_and_crossing_indices,
    build_diagram,
    canonicalize,
    dart_id,
    euler_moments,
    index_function,
    parse_diagram,
    serialize_diagram,
    smoothed_level_chi,
    subsurface_chi,
    subsurface_profile,
    trace_boundary_cycles,
)
from curveinv.errors import (
    CurveInvError,
    HomologicallyNontrivial,
    LabelError,
    ParseError,
    TopologyError,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.generators import grow_deep, grow_walkers  # noqa: E402


# -- parsing ---------------------------------------------------------------


def test_parse_circle_sphere(fixtures):
    d = fixtures["circle_sphere"]
    assert d.n == 0
    assert len(d.regions) == 2
    assert d.surface_chi == 2


def test_parse_figure8(fixtures):
    d = fixtures["figure8_sphere"]
    assert d.n == 1
    assert len(d.regions) == 3
    assert d.surface_chi == 2


def test_parse_label_appearing_once():
    with pytest.raises(LabelError):
        parse_diagram("curve 1+ 2+ 1+\nbase 0\n")


def test_parse_sign_mismatch():
    with pytest.raises(LabelError):
        parse_diagram("curve 1+ 1-\nbase 0\n")


@pytest.mark.parametrize("visits,message", [
    (((1, 1), (2, 1), (1, 1)), "crossing 2 appears 1 time(s), expected 2"),
    (((1, 1), (1, 1), (1, 1)), "crossing 1 appears 3 time(s), expected 2"),
    (((1, 1), (1, -1)), "crossing 1 has mismatched signs"),
    (((1, 2), (1, 2)), "sign of crossing 1 must be +1 or -1"),
    # a bad sign anywhere comes first, then the labels in order of first visit
    (((3, 1), (1, 1), (1, 0)), "sign of crossing 1 must be +1 or -1"),
    (((2, 1), (2, -1), (1, 1)), "crossing 2 has mismatched signs"),
    (((2, 1), (1, 1), (2, -1)), "crossing 2 has mismatched signs"),
])
def test_label_error_messages(visits, message):
    with pytest.raises(LabelError) as exc:
        SignedGaussCode(visits)
    assert str(exc.value) == message


def test_parse_label_error_names_the_curve_line():
    with pytest.raises(LabelError) as exc:
        parse_diagram("surface genus=0\ncurve 1+ 2+ 1+\nbase 0\n")
    assert str(exc.value) == "line 2: crossing 2 appears 1 time(s), expected 2"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_diagram("curve 1+ 1+\nbogus directive\nbase 0\n")
    with pytest.raises(ParseError, match="missing base"):
        parse_diagram("curve 1+ 1+\n")
    # without region lines there is one region per traced cycle
    with pytest.raises(ParseError, match="line 2: base region 7 does not exist"):
        parse_diagram("curve -\nbase 7\n")
    with pytest.raises(ParseError, match="line 3: base region -1 does not exist"):
        parse_diagram("curve 1+ 1+\n\nbase -1\n")


@pytest.mark.parametrize("text,message", [
    ("curve 1+ x+ 0+ 2\nbase 0\n", "line 1: bad crossing label: 'x'"),
    ("curve 1+ 1+ 0+ 2\nbase 0\n", "line 1: crossing label must be positive: '0+'"),
    ("curve 1+ 1+ 2\nbase 0\n", "line 1: bad visit token '2'"),
    ("curve 1+ 1+ -3-\nbase 0\n", "line 1: crossing label must be positive: '-3-'"),
    # region lines are read in the line loop, visit tokens after it
    ("curve 1+ x+\nregion 0 genus=a cycles=0\nbase 0\n", "line 2: bad genus: 'a'"),
    ("curve -\nregion x genus=-1 cycles=y\nbase 0\n", "line 2: bad region id: 'x'"),
    ("curve -\nregion 0 genux=-1 cycles=y\nbase 0\n", "line 2: expected genus=<value>"),
    ("curve -\nregion 0 genus=-1 cycles=y\nbase 0\n", "line 2: genus must be nonnegative"),
    ("curve -\nregion 0 genus=0 cycle=y\nbase 0\n", "line 2: expected cycles=<c1,c2,...>"),
    ("curve -\nregion 0 genus=0 cycles=0,y\nbase 0\n", "line 2: bad cycle list"),
])
def test_parse_names_the_first_fault(text, message):
    with pytest.raises(ParseError) as exc:
        parse_diagram(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    ("curve 1_0+ 1_0+\nbase 0\n", "line 1: bad crossing label: '1_0'"),
    ("curve 01+ 01+\nbase 0\n", "line 1: bad crossing label: '01'"),
    ("curve +1+ +1+\nbase 0\n", "line 1: bad crossing label: '+1'"),
    ("curve 1+ 2- 2- 1\u0661+\nbase 0\n", "line 1: bad crossing label: '1\u0661'"),
    ("curve 1+ 1+\nregion \u0661 genus=0 cycles=0\nbase 0\n",
     "line 2: bad region id: '\u0661'"),
    ("curve 1+ 1+\nregion 02 genus=0 cycles=2\nbase 2\n", "line 2: bad region id: '02'"),
    ("curve 1+ 1+\nregion 0 genus=+0 cycles=0\nbase 0\n", "line 2: bad genus: '+0'"),
    ("curve 1+ 1+\nregion 0 genus=0 cycles=+2\nbase 0\n", "line 2: bad cycle list"),
    ("curve 1+ 1+\nbase \u0662\n", "line 2: bad base region: '\u0662'"),
    ("curve 1+ 1+\nbase -0\n", "line 2: bad base region: '-0'"),
    ("surface genus=0_0\ncurve 1+ 1+\nbase 0\n", "line 1: bad genus: '0_0'"),
    ("curve\t1+\t01+ 2- 2-\nbase 0\n", "line 1: bad crossing label: '01'"),
    ("curve 1+ 2-\x1f+1+ 2-\nbase 0\n", "line 1: bad crossing label: '+1'"),
])
def test_parse_reads_integers_only_as_serialize_writes_them(text, message):
    # 0 or [1-9][0-9]* in ASCII; int() alone reads each of these
    with pytest.raises(ParseError) as exc:
        parse_diagram(text)
    assert str(exc.value) == message


def test_parse_reads_curve_lines_that_only_look_faulty():
    # a comment or other whitespace that the whole-line tests flag: the
    # per-token checks find no fault
    want = parse_diagram("curve 1+ 2- 10+ 2- 1+ 10+\nbase 0\n")
    for line in ("curve 1+ 2- 10+ 2- 1+ 10+ # 0_1 +1 \u0661",
                 "curve\t1+ 2-\x1f10+ 2- 1+\t10+"):
        assert parse_diagram(line + "\nbase 0\n") == want


def test_parse_and_build_trace_once_and_assemble_without_walking_cycles(monkeypatch):
    """The trace yields dart -> cycle, so assembly never walks the cycles."""
    calls, walks = [], []
    trace = diagram_module._trace

    class Watched(tuple):
        def __iter__(self):
            walks.append("iter")
            return super().__iter__()

        def __getitem__(self, i):
            walks.append(i)
            return super().__getitem__(i)

    def counted(code):
        calls.append(code)
        cycles, dart_cycle = trace(code)
        return Watched(cycles), dart_cycle

    # the walk itself runs inside the public trace_boundary_cycles, the name
    # that span tracers wrap
    public = diagram_module.trace_boundary_cycles
    walked = []
    monkeypatch.setattr(diagram_module, "_trace", counted)
    monkeypatch.setattr(diagram_module, "trace_boundary_cycles",
                        lambda code, **kw: walked.append(code) or public(code, **kw))
    code = ((1, 1), (1, 1))
    torus = "surface genus=1\ncurve -\n" + TORUS_REGIONS + "base 1\n"
    for make in (lambda: parse_diagram("curve 1+ 1+\nbase 2\n"),
                 lambda: parse_diagram(torus),
                 lambda: build_diagram(code, base_region=1),
                 lambda: build_diagram(code, regions=[(0, (2,)), (0, (1, 0))])):
        calls.clear()
        walks.clear()
        walked.clear()
        d = make()
        assert len(calls) == 1 and walks == [] and walked == calls
        assert d.dart_cycle == dart_tables_reference(d)[0]


TORUS_REGIONS = "region 0 genus=0 cycles=0\nregion 1 genus=1 cycles=1\n"


def test_parse_reads_default_region_lines_without_a_region_table(monkeypatch):
    """Region lines that declare region i = genus 0 and cycle i, written
    as serialize_diagram writes a diagram of default regions, give that
    diagram without a region table; any other lines go through one, the
    same regions written another way (extra spaces, a comment) too."""
    # each golden code with its default regions on the carrier surface
    defaults = [build_diagram(d.code, base_region=d.n % 3) for d in GOLDEN.values()]
    assert len(defaults) > 30
    tables = []
    table = diagram_module._region_table
    monkeypatch.setattr(diagram_module, "_region_table",
                        lambda *args: tables.append(args) or table(*args))
    for d in defaults:
        back = parse_diagram(serialize_diagram(d))
        assert back == d and back.dart_region is back.dart_cycle == d.dart_region
    assert tables == []
    fig8 = "curve 1+ 1+\nregion 0 genus=0 cycles=0\nregion 1 genus=0 cycles=1\n"
    for text, table_calls in ((fig8 + "region 2 genus=0 cycles=2\nbase 2\n", 0),
                              (fig8 + "region 3 genus=0 cycles=2\nbase 3\n", 1),
                              (fig8 + "region 2 genus=0 cycles=0,2\nbase 2\n", 1),
                              ("surface genus=1\ncurve -\n" + TORUS_REGIONS + "base 1\n", 1),
                              (fig8 + "region 2  genus=0 cycles=2\nbase 2\n", 1),
                              (fig8 + "region 2 genus=0 cycles=2 # outside\nbase 2\n", 1)):
        tables.clear()
        try:
            parse_diagram(text)
        except TopologyError:
            pass
        assert len(tables) == table_calls, text


@pytest.mark.parametrize("text,line", [
    ("surface genus=1 genus=7\ncurve -\n" + TORUS_REGIONS + "base 1\n", 1),
    ("surface\ncurve -\nbase 0\n", 1),
    ("curve -\nregion 0 genus=0 cycles=0 genus=3\nregion 1 genus=0 cycles=1\nbase 0\n", 2),
    ("surface genus=1\ncurve -\nregion 0 genus=0 cycles=0\n"
     "region 1 genus=1 cycles=1 junk\nbase 1\n", 4),
], ids=["surface-genus-twice", "surface-bare", "region-genus-twice", "region-junk"])
def test_parse_rejects_extra_surface_and_region_fields(text, line):
    # a surface line is exactly genus=<g>; a region line exactly
    # <rid> genus=<g> cycles=<c,...>
    with pytest.raises(ParseError, match=f"line {line}: (surface|region) needs exactly"):
        parse_diagram(text)
    parse_diagram("surface genus=1\ncurve -\n" + TORUS_REGIONS + "base 1\n")


@pytest.mark.parametrize("text,message", [
    ("surface genus=1\nsurface genus=0\ncurve -\nbase 0\n", "line 2: duplicate surface line"),
    ("curve -\nbase 0\nbase 1\n", "line 3: duplicate base line"),
    ("curve 1+ 1+\nbase 0\n# the same again\ncurve 1+ 1+\n", "line 4: duplicate curve line"),
    ("surface genus=0\ncurve\nbase 0\n", "line 2: curve needs visit tokens, or - for no crossing"),
], ids=["surface-twice", "base-twice", "curve-twice", "curve-bare"])
def test_parse_rejects_repeated_lines_and_a_bare_curve_line(text, message):
    # a repeated line is not overridden by the last one, and n = 0 is
    # written `curve -`
    with pytest.raises(ParseError) as exc:
        parse_diagram(text)
    assert str(exc.value) == message


def test_parse_inconsistent_surface_chi():
    with pytest.raises(TopologyError):
        parse_diagram("surface genus=1\ncurve 1+ 1+\nbase 0\n")


def test_parse_region_partition_must_cover():
    text = (
        "surface genus=1\ncurve -\n"
        "region 0 genus=1 cycles=0\n"   # cycle 1 unassigned
        "base 0\n"
    )
    with pytest.raises(TopologyError):
        parse_diagram(text)


# -- face tracing ----------------------------------------------------------


def test_trace_figure_eight_cycles():
    cycles = trace_boundary_cycles(SignedGaussCode(((1, 1), (1, 1))))
    assert len(cycles) == 3
    assert sorted(len(c) for c in cycles) == [1, 1, 2]


def test_trace_embedded_circle():
    cycles = trace_boundary_cycles(SignedGaussCode(()))
    assert cycles == ((0,), (1,))


def test_trace_mirror_figure_eight():
    cycles = trace_boundary_cycles(SignedGaussCode(((1, -1), (1, -1))))
    assert len(cycles) == 3


def test_carrier_chi_identity(random_corpus):
    for d in random_corpus:
        if d.n > 0:
            carrier_chi = len(d.cycles) - d.n
        else:
            carrier_chi = 2
        assert (2 - carrier_chi) % 2 == 0
        # region genus data reproduces chi(S) through conservation
        total = sum(r.chi for r in d.regions) - (d.n if d.n else 0)
        assert total == d.surface_chi


# -- index functions -------------------------------------------------------


def test_index_figure8(fixtures):
    d = fixtures["figure8_sphere"]
    ind = index_function(d, 0)
    assert sorted(ind.values.values()) == [-1, 0, 1]
    assert ind.values[0] == 0


def test_index_circle_torus(fixtures):
    d = fixtures["circle_torus"]
    ind = index_function(d, d.base_region)
    assert ind.values[d.base_region] == 0
    assert sorted(ind.values.values()) == [0, 1]


def test_index_essential_circle(fixtures):
    with pytest.raises(HomologicallyNontrivial):
        index_function(fixtures["essential_torus_circle"], 0)


def test_index_jump_rule_everywhere(random_corpus):
    for d in random_corpus:
        ind = index_function(d, d.base_region)
        for arc in range(max(2 * d.n, 1)):
            left, right = d.dart_region[2 * arc], d.dart_region[2 * arc + 1]
            assert ind.values[left] == ind.values[right] + 1


def test_index_base_pairs_differ_by_constant(fixtures):
    for d in fixtures.values():
        try:
            inds = [index_function(d, b) for b in range(len(d.regions))]
        except HomologicallyNontrivial:
            continue
        for ia in inds:
            for ib in inds:
                deltas = {ia.values[r] - ib.values[r] for r in ia.values}
                assert len(deltas) == 1


# -- point indices on the curve --------------------------------------------


def test_arc_and_crossing_indices_figure8(fixtures):
    d = fixtures["figure8_sphere"]
    ind = index_function(d, 0)
    arcs, crossings = arc_and_crossing_indices(d, ind)
    assert crossings == {1: 0}
    assert sorted(v + Fraction(1, 2) for v in arcs.values()) == [
        Fraction(-1, 2), Fraction(1, 2)
    ]


def test_arc_index_circle(fixtures):
    d = fixtures["circle_sphere"]
    ind = index_function(d, d.base_region)
    arcs, crossings = arc_and_crossing_indices(d, ind)
    assert {arc: v + Fraction(1, 2) for arc, v in arcs.items()} == {0: Fraction(1, 2)}
    assert crossings == {}


def crossing_indices_reference(d, ind):
    """Each crossing's index by sorting its four corner values."""
    low = [ind.values[r] for r in d.dart_region[1::2]]
    out = {}
    for label, (p1, p2, _sign) in d.code.crossing_positions().items():
        vals = sorted((low[p1 - 1] + 1, low[p2 - 1] + 1, low[p1], low[p2]))
        i = vals[1]
        if vals != [i - 1, i, i, i + 1]:
            raise TopologyError(f"crossing {label} corners {vals} are not i-1,i,i,i+1")
        out[label] = i
    return out


def test_crossing_corner_check_matches_sorting(random_corpus):
    """On arbitrary region values the corner test accepts, indexes and
    rejects (with the same message) exactly as sorting the corners does."""
    rng = random.Random(1907)
    accepted = rejected = 0
    for d in random_corpus:
        if d.n == 0:
            continue
        for _ in range(5):
            values = {r: rng.randint(-2, 2) for r in range(len(d.regions))}
            ind = IndexFunction(base_region=0, values=values)
            try:
                want = crossing_indices_reference(d, ind)
            except TopologyError as exc:
                with pytest.raises(TopologyError) as got:
                    arc_and_crossing_indices(d, ind)
                assert str(got.value) == str(exc)
                rejected += 1
            else:
                assert arc_and_crossing_indices(d, ind)[1] == want
                accepted += 1
        assert arc_and_crossing_indices(d, index_function(d))[1] == \
            crossing_indices_reference(d, index_function(d))
    assert accepted >= 100 and rejected >= 100


# -- subsurface machinery ---------------------------------------------------


def test_subsurface_chi_figure8(fixtures):
    d = fixtures["figure8_sphere"]
    ind = index_function(d, 0)
    assert subsurface_chi(d, ind, Fraction(-1, 2)) == 1
    assert subsurface_chi(d, ind, Fraction(-3, 2)) == 2
    assert subsurface_chi(d, ind, Fraction(3, 2)) == 0


def test_profile_figure8(fixtures):
    d = fixtures["figure8_sphere"]
    prof = subsurface_profile(d, index_function(d, 0))
    assert prof.a_j == {-3: 0, -1: -1, 1: 1, 3: 0}
    assert prof.bins == {-1: 1, 0: 0, 1: 1}
    assert prof.crossing_indices == (0,)


def test_profile_circles(fixtures):
    sphere = fixtures["circle_sphere"]
    prof = subsurface_profile(sphere, index_function(sphere, sphere.base_region))
    assert {k: v for k, v in prof.a_j.items() if v} == {1: 1}
    assert prof.crossing_indices == ()

    torus = fixtures["circle_torus"]
    prof = subsurface_profile(torus, index_function(torus, torus.base_region))
    assert {k: v for k, v in prof.a_j.items() if v} == {1: 1}


def test_subsurface_extremes(random_corpus):
    for d in random_corpus:
        ind = index_function(d, d.base_region)
        lo = min(ind.values.values()) - Fraction(1, 2)
        hi = max(ind.values.values()) + Fraction(1, 2)
        assert subsurface_chi(d, ind, lo - 1) == d.surface_chi
        assert subsurface_chi(d, ind, hi) == 0


def test_smoothed_levels(fixtures):
    d = fixtures["figure8_sphere"]
    sm = smoothed_level_chi(subsurface_profile(d, index_function(d, 0)))
    assert sm.level_chi == {-1: 1, 0: 0, 1: 1}

    c = fixtures["circle_sphere"]
    sm = smoothed_level_chi(
        subsurface_profile(c, index_function(c, c.base_region))
    )
    assert sm.level_chi == {0: 1, 1: 1}


def test_smoothed_levels_sum_to_chi(random_corpus):
    for d in random_corpus:
        prof = subsurface_profile(d, index_function(d, d.base_region))
        sm = smoothed_level_chi(prof)
        assert sum(sm.level_chi.values()) == d.surface_chi


def test_euler_moments(fixtures):
    d = fixtures["figure8_sphere"]
    sm = smoothed_level_chi(subsurface_profile(d, index_function(d, 0)))
    assert euler_moments(sm) == (0, 2)

    c = fixtures["circle_sphere"]
    sm = smoothed_level_chi(
        subsurface_profile(c, index_function(c, c.base_region))
    )
    assert euler_moments(sm) == (1, 1)


def test_m1_always_integer(random_corpus):
    for d in random_corpus:
        sm = smoothed_level_chi(
            subsurface_profile(d, index_function(d, d.base_region))
        )
        m1, _ = euler_moments(sm)
        assert isinstance(m1, int)


# -- canonical form ---------------------------------------------------------


def test_canonicalize_relabeling():
    a = parse_diagram("curve 1+ 1+\nbase 0\n")
    b = parse_diagram("curve 7+ 7+\nbase 0\n")
    assert canonicalize(a) == canonicalize(b)


def rotate_code_start(diagram, r):
    """The same based diagram with the code start moved by r visits: signs
    flip for crossings whose visit order wraps, regions and base carried
    along through the dart translation."""
    m = 2 * diagram.n
    visits = [diagram.code.visits[(k + r) % m] for k in range(m)]
    flips = set()
    for lab, (p1, p2, _s) in diagram.code.crossing_positions().items():
        if (p1 - r) % m > (p2 - r) % m:
            flips.add(lab)
    code = tuple(
        (lab, -s if lab in flips else s) for lab, s in visits
    )
    new_cycles = trace_boundary_cycles(SignedGaussCode(code))
    def translate(d):
        return dart_id((d // 2 - r) % m, d % 2)
    cycle_map = {}
    for c, cycle in enumerate(diagram.cycles):
        target = translate(cycle[0])
        cycle_map[c] = next(
            nc for nc, ncyc in enumerate(new_cycles) if target in ncyc
        )
    regions = [
        (reg.genus, tuple(cycle_map[c] for c in reg.cycles))
        for reg in diagram.regions
    ]
    return build_diagram(code, regions=regions,
                         surface_chi=diagram.surface_chi,
                         base_region=diagram.base_region)


def test_canonicalize_rotation():
    a = parse_diagram("curve 1+ 2+ 1+ 2+\nbase 0\n")
    for r in range(1, 4):
        assert canonicalize(rotate_code_start(a, r)) == canonicalize(a)


def test_canonicalize_rotation_random(random_corpus):
    for d in random_corpus[::17]:
        if d.n == 0:
            continue
        assert canonicalize(rotate_code_start(d, 1)) == canonicalize(d)
        assert canonicalize(rotate_code_start(d, 3 % (2 * d.n))) == canonicalize(d)


def canonicalize_all_rotations(diagram):
    """Reference: the full candidate of every one of the 2n rotations, as
    canonicalize built them before it narrowed the rotations by prefix."""
    if diagram.n == 0:
        regions = _region_descriptor(diagram, {0: 0, 1: 1})
        return ("n0", regions, _base_position(diagram, regions, {0: 0, 1: 1}))
    m = 2 * diagram.n
    best = None
    positions = diagram.code.crossing_positions()
    for r in range(m):
        rotated = [diagram.code.visits[(k + r) % m] for k in range(m)]
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


DATA = Path(__file__).parent / "data"
GOLDEN = {
    entry["name"]: parse_diagram(entry["text"])
    for name in ("golden_exact.json", "golden_moves.json")
    for entry in json.loads((DATA / name).read_text(encoding="utf-8"))["diagrams"]
}
GROWN = [d for name, d in GOLDEN.items() if name.startswith(("grown:", "walk:"))]
SYMMETRIC = build_diagram([(i, 1) for i in range(1, 10)] * 2)


def assert_matches_reference(d):
    got, want = canonicalize(d), canonicalize_all_rotations(d)
    assert got == want and repr(got) == repr(want), serialize_diagram(d)


def test_canonicalize_matches_reference_golden():
    """Every golden diagram at every base, n = 0 and the symmetric code too."""
    for d in [*GOLDEN.values(), SYMMETRIC]:
        for base in range(len(d.regions)):
            assert_matches_reference(replace(d, base_region=base))


def test_canonicalize_matches_reference_random(random_corpus):
    for d in random_corpus:
        assert_matches_reference(d)


def test_canonicalize_symmetric_code():
    """All 18 rotations of the code share one relabelled code, so every
    rotation survives the prefix narrowing and the regions decide."""
    form = canonicalize(SYMMETRIC)
    assert form[0] == tuple((i, -1) for i in range(1, 10)) * 2
    for r in range(18):
        assert canonicalize(rotate_code_start(SYMMETRIC, r)) == form


def permuted_region_text(d, rng):
    """The file text of d with its regions declared under shuffled ids and
    in shuffled line order, and the new id of each region."""
    rids = list(range(len(d.regions)))
    rng.shuffle(rids)
    lines = [f"region {rid} genus={region.genus} cycles={','.join(map(str, region.cycles))}"
             for rid, region in zip(rids, d.regions)]
    rng.shuffle(lines)
    head, base = serialize_diagram(d).split("region", 1)[0], rids[d.base_region]
    return head + "\n".join(lines) + f"\nbase {base}\n", rids


def sphere_diagrams(random_corpus):
    """The golden sphere diagrams with 1 to 16 crossings, and a third of
    the random ones."""
    return [d for d in [*GOLDEN.values(), *random_corpus[::3]]
            if d.surface_chi == 2 and 0 < d.n <= 16]


def test_canonicalize_shares_the_descriptor_of_permuted_sphere_regions(random_corpus):
    """Sphere diagrams whose region r holds a cycle other than r take the
    shared descriptor, and match the reference at every base."""
    rng = random.Random(24)
    permuted = 0
    for d in sphere_diagrams(random_corpus):
        text, rids = permuted_region_text(d, rng)
        moved = parse_diagram(text)
        assert _shared_descriptor(moved) == tuple((0, (c,)) for c in range(len(d.cycles)))
        permuted += any(region.cycles != (r,) for r, region in enumerate(moved.regions))
        for r, rid in enumerate(rids):
            based = replace(moved, base_region=rid)
            assert_matches_reference(based)
            assert canonicalize(based) == canonicalize(replace(d, base_region=r))
    assert permuted > 30


@pytest.mark.parametrize("name", sorted(DIAGRAM_FIXTURES))
def test_canonicalize_matches_reference_on_the_small_fixtures(name):
    d = parse_diagram(DIAGRAM_FIXTURES[name])
    assert d.n <= 1
    for base in range(len(d.regions)):
        assert_matches_reference(replace(d, base_region=base))


@pytest.mark.parametrize("genera", [(1,), (2,), (1, 1)])
def test_one_cycle_regions_with_a_genus_take_the_general_descriptor(genera, random_corpus):
    """Regions of one cycle each, but some of nonzero genus: the shared
    descriptor does not apply, and canonicalize matches the reference."""
    built = 0
    for d in sphere_diagrams(random_corpus):
        regions = [(genera[r] if r < len(genera) else 0, region.cycles)
                   for r, region in enumerate(d.regions)]
        torus = build_diagram(d.code, regions=regions)
        assert torus.surface_chi == 2 - 2 * sum(genera)
        assert len(torus.regions) == len(torus.cycles) and _shared_descriptor(torus) is None
        for base in range(len(torus.regions)):
            assert_matches_reference(replace(torus, base_region=base))
        built += 1
    assert built > 30


def relabel_crossings(diagram, labels):
    """The same based diagram with crossing k renamed labels[k]."""
    names = {}
    for label, _sign in diagram.code.visits:
        if label not in names:
            names[label] = labels[len(names)]
    code = tuple((names[label], sign) for label, sign in diagram.code.visits)
    regions = [(reg.genus, reg.cycles) for reg in diagram.regions]
    return build_diagram(code, regions=regions, surface_chi=diagram.surface_chi,
                         base_region=diagram.base_region)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonicalize_invariant_under_rotation_and_relabelling(data):
    d = data.draw(st.sampled_from(GROWN))
    d = replace(d, base_region=data.draw(st.integers(0, len(d.regions) - 1)))
    r = data.draw(st.integers(0, 2 * d.n - 1))
    labels = data.draw(st.lists(st.integers(1, 10**6), min_size=d.n,
                                max_size=d.n, unique=True))
    moved = relabel_crossings(rotate_code_start(d, r), labels)
    assert canonicalize(moved) == canonicalize(d)


def test_canonicalize_distinguishes_base():
    a = parse_diagram("curve 1+ 1+\nbase 0\n")
    b = parse_diagram("curve 1+ 1+\nbase 1\n")
    assert canonicalize(a) != canonicalize(b)


def test_build_diagram_rejects_bad_genus():
    with pytest.raises(TopologyError):
        build_diagram(SignedGaussCode(()), regions=[(-1, (0, 1))], base_region=0)


@pytest.mark.parametrize("genus,chi", [(0.9, None), ("0", None), (True, 0)])
def test_build_diagram_rejects_a_genus_that_is_not_an_int(genus, chi):
    # on the figure eight's cycles (0,), (1,), (2,), int() would read 0.9
    # and "0" as genus 0 and True as genus 1
    with pytest.raises(TopologyError, match="^region genus must be a nonnegative integer$"):
        build_diagram(FIG8_CODE, regions=[(genus, (0,)), (0, (1,)), (0, (2,))],
                      surface_chi=chi)


@pytest.mark.parametrize("cycle,claimed", [(1.0, "[0, 2, 1.0]"), ("1", "[0, 2, '1']"),
                                           (True, "[0, 2, True]")])
def test_build_diagram_rejects_a_cycle_id_that_is_not_an_int(cycle, claimed):
    # 1.0 indexed a list, "1" could not be sorted among ints, True was cycle 1
    with pytest.raises(TopologyError) as exc:
        build_diagram(FIG8_CODE, regions=[(0, (0,)), (0, (cycle,)), (0, (2,))])
    assert str(exc.value) == PARTITION + claimed
    with pytest.raises(TopologyError, match=f"^{re.escape(PARTITION)}"):
        build_diagram(FIG8_CODE, regions=[(0, (0, cycle)), (0, (2,))])


@pytest.mark.parametrize("base", [1.0, True])
def test_a_base_region_that_is_not_an_int_does_not_exist(base):
    with pytest.raises(TopologyError, match=f"^base region {base} does not exist$"):
        build_diagram(FIG8_CODE, base_region=base)
    d = build_diagram(FIG8_CODE)
    with pytest.raises(TopologyError, match=f"^base region {base} does not exist$"):
        index_function(d, base)


# -- crossing incidence ---------------------------------------------------------


def crossing_positions_reference(code):
    """label -> (first position, second position, sign), rebuilt from the
    labels as the code's crossing table was before it stored partner."""
    pos = {}
    for k, (label, sign) in enumerate(code.visits):
        if label in pos:
            pos[label] = (pos[label][0], k, sign)
        else:
            pos[label] = (k, None, sign)
    return pos


def rotations_reference(code):
    """The label-keyed rotation tables face tracing was first written with:
    rot maps label -> its four outgoing darts counterclockwise, and at maps
    dart -> (label, place in rot)."""
    m = 2 * code.n
    rot, at = {}, {}
    for label, (p1, p2, sign) in crossing_positions_reference(code).items():
        out1, out2 = dart_id(p1, LEFT), dart_id(p2, LEFT)
        in1, in2 = dart_id((p1 - 1) % m, RIGHT), dart_id((p2 - 1) % m, RIGHT)
        rot[label] = (out1, out2, in1, in2) if sign == 1 else (out1, in2, in1, out2)
        for i, d in enumerate(rot[label]):
            at[d] = (label, i)
    return rot, at


def trace_reference(code):
    """Face tracing over rotations_reference, next(d) = sigma^-1(d ^ 1)."""
    if code.n == 0:
        return ((dart_id(0, LEFT),), (dart_id(0, RIGHT),))
    rot, at = rotations_reference(code)
    seen, cycles = set(), []
    for start in range(4 * code.n):
        if start in seen:
            continue
        cycle, d = [], start
        while True:
            cycle.append(d)
            seen.add(d)
            label, i = at[d ^ 1]
            d = rot[label][(i - 1) % 4]
            if d == start:
                break
        cycles.append(tuple(cycle))
    return tuple(cycles)


def assert_incidence_matches_reference(d):
    code = d.code
    positions = crossing_positions_reference(code)
    got = code.crossing_positions()
    assert got == positions and list(got) == list(positions)
    partner = [None] * len(code.visits)
    for p1, p2, _sign in positions.values():
        partner[p1], partner[p2] = p2, p1
    assert code.partner == tuple(partner)
    prev = code.rotation_prev
    assert sorted(prev) == list(range(4 * code.n))
    for order in rotations_reference(code)[0].values():
        for i, dart in enumerate(order):
            assert prev[dart] == order[i - 1]
    assert trace_boundary_cycles(code) == trace_reference(code) == d.cycles


@pytest.fixture(scope="module")
def deep():
    snaps, _, _ = grow_deep(random.Random(74), (16, 32, 64, 128, 256))
    return [d for d, _expected in snaps.values()]


def test_incidence_matches_reference_golden():
    for d in GOLDEN.values():
        assert_incidence_matches_reference(d)


def test_incidence_matches_reference_random(random_corpus):
    for d in random_corpus:
        assert_incidence_matches_reference(d)


def test_incidence_matches_reference_deep(deep):
    assert [d.n for d in deep] == [16, 32, 64, 128, 256]
    for d in deep:
        assert_incidence_matches_reference(d)


def test_partner_is_not_part_of_equality_or_repr():
    a = SignedGaussCode(((1, 1), (2, -1), (1, 1), (2, -1)))
    b = SignedGaussCode(((1, 1), (2, -1), (1, 1), (2, -1)))
    assert a.partner == (2, 3, 0, 1)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "SignedGaussCode(visits=((1, 1), (2, -1), (1, 1), (2, -1)))"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_serialize_round_trip_grown(data):
    d = data.draw(st.sampled_from(GROWN))
    d = replace(d, base_region=data.draw(st.integers(0, len(d.regions) - 1)))
    r = data.draw(st.integers(0, 2 * d.n - 1))
    labels = data.draw(st.lists(st.integers(1, 10**6), min_size=d.n,
                                max_size=d.n, unique=True))
    d = relabel_crossings(rotate_code_start(d, r), labels)
    back = parse_diagram(serialize_diagram(d))
    assert back == d
    assert back.code.partner == d.code.partner
    assert (back.dart_cycle, back.dart_region) == (d.dart_cycle, d.dart_region)


def test_own_is_the_sign_at_first_visits_and_its_negation_at_second(random_corpus):
    for d in [*GOLDEN.values(), *random_corpus]:
        own = d.code.own
        assert len(own) == len(d.code.visits)
        for p1, p2, sign in d.code.crossing_positions().values():
            assert (own[p1], own[p2]) == (sign, -sign)
    a = SignedGaussCode(((1, 1), (2, -1), (1, 1), (2, -1)))
    assert a.own == (1, -1, -1, 1)
    assert a == SignedGaussCode(a.visits) and "own" not in repr(a)


# region lists with two faults at once, on the figure eight's cycles
# (0, 3), (1,), (2,): the fault checked first names the error
FIG8_CODE = ((1, 1), (1, 1))
PARTITION = "region lines must partition cycles 0..2, got "


@pytest.mark.parametrize("regions,chi,base,message", [
    ([(-1, (0,)), (0, (1,))], None, 0, PARTITION + "[0, 1]"),
    ([(0, (0, 1)), (0, ())], None, 0, PARTITION + "[0, 1]"),
    ([], None, 0, PARTITION + "[]"),
    ([(-1, (0, 1, 2, 3))], None, 0, PARTITION + "[0, 1, 2, 3]"),
    ([(0, (0, 0, 1, 2)), (0, ())], None, 0, PARTITION + "[0, 0, 1, 2]"),
    ([(0, (-1, 0, 1, 2))], 2, 0, PARTITION + "[-1, 0, 1, 2]"),
    ([(0, (0,)), (1, (0, 1, 2))], None, 0, PARTITION + "[0, 0, 1, 2]"),
    ([(-1, (0,)), (0, ()), (0, (1, 2))], None, 0,
     "region genus must be a nonnegative integer"),
    ([(0, ()), (-1, (0,)), (0, (1, 2))], None, 0,
     "every region needs at least one boundary cycle"),
    ([(-1, (0,)), (0, (1,)), (0, (2,))], 0, 0, "region genus must be a nonnegative integer"),
    ([(1, (0,)), (0, (1,)), (0, (2,))], 2, 7,
     "declared chi(S) = 2 inconsistent with chi conservation (regions give 0)"),
    (None, 0, 5, "declared chi(S) = 0 inconsistent with chi conservation (regions give 2)"),
])
def test_build_reports_the_first_of_two_region_faults(regions, chi, base, message):
    with pytest.raises(TopologyError) as exc:
        build_diagram(FIG8_CODE, regions, chi, base)
    assert (type(exc.value), str(exc.value)) == (TopologyError, message)


@pytest.mark.parametrize("body,error,message", [
    ("surface genus=1\ncurve 1+ 1+\nregion 0 genus=0 cycles=0,1,2,3\nbase 0\n",
     TopologyError, PARTITION + "[0, 1, 2, 3]"),
    ("curve 1+ 1+\nregion 0 genus=0 cycles=0,0,1\nregion 1 genus=0 cycles=2\nbase 1\n",
     TopologyError, PARTITION + "[0, 0, 1, 2]"),
    ("surface genus=2\ncurve 1+ 1+\nregion 0 genus=1 cycles=0,1,2,5\nbase 0\n",
     TopologyError, PARTITION + "[0, 1, 2, 5]"),
    ("curve 1+ 1+\nregion 0 genus=0 cycles=-1,0,1,2\nbase 0\n",
     TopologyError, PARTITION + "[-1, 0, 1, 2]"),
    ("curve 1+ 1+\nregion 0 genus=-1 cycles=0,1\nbase 0\n",
     ParseError, "line 2: genus must be nonnegative"),
    ("curve 1+ 1+\nregion 0 genus=0 cycles=\nregion 1 genus=0 cycles=0,1\nbase 0\n",
     ParseError, "line 2: bad cycle list"),
    ("curve 1+ 1+\nregion 0 genus=0 cycles=0,1\nregion 1 genus=0 cycles=1,2\nbase 3\n",
     ParseError, "line 4: base region 3 not declared"),
])
def test_parse_reports_the_first_of_two_region_faults(body, error, message):
    with pytest.raises(CurveInvError) as exc:
        parse_diagram(body)
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_region_without_boundary_cycle_is_rejected():
    # a genus-1 region with no boundary keeps chi conservation on the sphere
    with pytest.raises(TopologyError, match="at least one boundary cycle"):
        build_diagram(SignedGaussCode(()), regions=[(0, (0,)), (0, (1,)), (1, ())])


# -- index function against the breadth-first search ---------------------------


def bfs_index_reference(diagram, base_region):
    """The index function as a breadth-first search over the region
    adjacency graph, as index_function computed it before it read the code;
    it raises where the +1 jump rule conflicts."""
    if not 0 <= base_region < len(diagram.regions):
        raise TopologyError(f"base region {base_region} does not exist")
    side = diagram.dart_region
    adjacency = {r: [] for r in range(len(diagram.regions))}
    for arc in range(max(2 * diagram.n, 1)):
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
                    raise HomologicallyNontrivial("index propagation is inconsistent")
            else:
                values[other] = v
                queue.append(other)
    if len(values) != len(diagram.regions):
        raise TopologyError("region adjacency graph is not connected")
    return IndexFunction(base_region=base_region, values=values)


def index_outcome(diagram, base, fn):
    """fn's values at base, or the class of the error it raises."""
    try:
        return fn(diagram, base).values
    except CurveInvError as exc:
        return type(exc)


def assert_index_matches_reference(d):
    """index_function equals the search at every base, and both reject the
    bases just out of range; returns the number of bases that raise."""
    raised = 0
    for base in range(-1, len(d.regions) + 1):
        got = index_outcome(d, base, index_function)
        assert got == index_outcome(d, base, bfs_index_reference), serialize_diagram(d)
        if 0 <= base < len(d.regions):
            assert got is HomologicallyNontrivial or got[base] == 0
            raised += got is HomologicallyNontrivial
        else:
            assert got is TopologyError
    return raised


def random_grouped_diagram(rng, n):
    """A random signed Gauss code with n crossings whose traced cycles are
    grouped into regions at random; one region takes the genus that keeps
    chi(S) at most 2, and now and then a random region one more."""
    slots = list(range(2 * n))
    rng.shuffle(slots)
    visits = [None] * (2 * n)
    for label in range(1, n + 1):
        sign = rng.choice((1, -1))
        visits[slots[2 * label - 2]] = visits[slots[2 * label - 1]] = (label, sign)
    code = SignedGaussCode(tuple(visits))
    cycles = trace_boundary_cycles(code)
    groups = [rng.randrange(rng.randint(1, len(cycles))) for _ in cycles]
    members = [[c for c, g in enumerate(groups) if g == k] for k in sorted(set(groups))]
    genus = [0] * len(members)
    genus[0] = max(0, (2 * len(members) - len(cycles) - n - 2) // 2)
    if rng.random() < 0.2:
        genus[rng.randrange(len(members))] += 1
    return build_diagram(code, regions=list(zip(genus, members)))


def test_index_matches_reference_golden_and_random(random_corpus):
    diagrams = [*GOLDEN.values(), *random_corpus]
    raised = sum(assert_index_matches_reference(d) for d in diagrams)
    # the essential circle on the torus bounds nothing
    assert 0 < raised < 10 and sum(len(d.regions) for d in diagrams) >= 1500


def test_index_matches_reference_on_random_groupings():
    rng = random.Random(1303)
    raised = clean = 0
    for trial in range(5000):
        d = random_grouped_diagram(rng, trial % 11)
        if assert_index_matches_reference(d):
            raised += 1
        else:
            clean += 1
    assert raised >= 1000 and clean >= 200


# -- dart tables and canonical renumbering against their references ----------


def dart_tables_reference(d):
    """dart -> cycle and dart -> region by walking every cycle."""
    darts = sum(map(len, d.cycles))
    cycle_region = {c: r for r, region in enumerate(d.regions) for c in region.cycles}
    dart_cycle, dart_region = [0] * darts, [0] * darts
    for c, cycle in enumerate(d.cycles):
        for dart in cycle:
            dart_cycle[dart] = c
            dart_region[dart] = cycle_region[c]
    return tuple(dart_cycle), tuple(dart_region)


def rotation_candidate_reference(diagram, back, own, r):
    """_rotation_candidate with the cycles renumbered by their least dart
    id after the rotation, found over each cycle's darts and sorted."""
    m = 2 * diagram.n
    code = []
    labels = 0
    for k in range(m):
        v = (k + r) % m
        if back[v] <= k:
            code.append(code[k - back[v]])
        else:
            labels += 1
            code.append((labels, own[v]))
    least = [min((d - 2 * r) % (2 * m) for d in cycle) for cycle in diagram.cycles]
    order = sorted(range(len(least)), key=least.__getitem__)
    renumber = {old: new for new, old in enumerate(order)}
    descr = sorted(((region.genus, tuple(sorted(renumber[c] for c in region.cycles)))
                    for region in diagram.regions), key=lambda item: item[1])
    base = diagram.regions[diagram.base_region]
    key = (base.genus, tuple(sorted(renumber[c] for c in base.cycles)))
    return tuple(code), tuple(descr), descr.index(key)


def assert_tables_and_rotations_match_reference(d):
    assert (d.dart_cycle, d.dart_region) == dart_tables_reference(d)
    assert type(d.dart_cycle) is tuple and type(d.dart_region) is tuple
    m = 2 * d.n
    partner, own = d.code.partner, d.code.own
    back = [(v - partner[v]) % m for v in range(m)]
    shared = _shared_descriptor(d)
    for r in range(m):
        want = rotation_candidate_reference(d, back, own, r)
        for got in (_rotation_candidate(d, back, own, r, None),
                    _rotation_candidate(d, back, own, r, shared)):
            assert got == want and repr(got) == repr(want), (r, serialize_diagram(d))


def test_tables_and_rotations_match_reference_golden():
    for d in [*GOLDEN.values(), SYMMETRIC]:
        assert_tables_and_rotations_match_reference(d)


def test_tables_and_rotations_match_reference_random(random_corpus):
    for d in random_corpus:
        assert_tables_and_rotations_match_reference(d)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0, 1, 2)), st.integers(1, 12),
       st.data())
def test_tables_and_rotations_match_reference_grown(seed, genus, n, data):
    d = grow_walkers(random.Random(seed), {genus: n})[0].diagram
    assert (2 - d.surface_chi) // 2 == genus and d.n >= n
    d = replace(d, base_region=data.draw(st.integers(0, len(d.regions) - 1)))
    assert_tables_and_rotations_match_reference(d)


def test_region_is_a_named_pair_with_chi():
    region = Region(1, (0, 2))
    assert (region.genus, region.cycles, region.chi) == (1, (0, 2), -2)
    assert repr(region) == "Region(genus=1, cycles=(0, 2))"
    assert region == (1, (0, 2)) and hash(region) == hash((1, (0, 2)))
