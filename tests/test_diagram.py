from fractions import Fraction

import pytest

from curveinv.diagram import (
    SignedGaussCode,
    arc_and_crossing_indices,
    build_diagram,
    canonicalize,
    euler_moments,
    index_function,
    parse_diagram,
    smoothed_level_chi,
    subsurface_chi,
    subsurface_profile,
    trace_boundary_cycles,
)
from curveinv.errors import (
    HomologicallyNontrivial,
    LabelError,
    ParseError,
    TopologyError,
)


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


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_diagram("curve 1+ 1+\nbogus directive\nbase 0\n")
    with pytest.raises(ParseError, match="missing base"):
        parse_diagram("curve 1+ 1+\n")


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
        for arc in range(d.num_arcs):
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
    assert sorted(arcs.values()) == [Fraction(-1, 2), Fraction(1, 2)]


def test_arc_index_circle(fixtures):
    d = fixtures["circle_sphere"]
    ind = index_function(d, d.base_region)
    arcs, crossings = arc_and_crossing_indices(d, ind)
    assert arcs == {0: Fraction(1, 2)}
    assert crossings == {}


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
    from curveinv.diagram import dart_id

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


def test_canonicalize_distinguishes_base():
    a = parse_diagram("curve 1+ 1+\nbase 0\n")
    b = parse_diagram("curve 1+ 1+\nbase 1\n")
    assert canonicalize(a) != canonicalize(b)


def test_build_diagram_rejects_bad_genus():
    with pytest.raises(TopologyError):
        build_diagram(SignedGaussCode(()), regions=[(-1, (0, 1))], base_region=0)
