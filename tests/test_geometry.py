import copy
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from test_numeric_kernels import (
    EPICYCLES,
    Epicycle,
    close_pairs_reference,
    double_points_all_seeds,
    may_cross_reference,
    scan_indices_reference,
    seed_grid,
    seed_kernel,
    seed_reference,
    short_spans,
    side_probe_indices,
    side_probes,
    ways_to_may_cross,
)

import curveinv.diagram as diagram_module
from curveinv import geometry, laurent
from curveinv.catalog import PARAMETRIC_NAMES, parametric_fixture
from curveinv.diagram import LEFT, canonicalize, dart_id, index_function
from curveinv.errors import (
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
from curveinv.geometry import (
    FLAT_TORUS,
    GreatCircle,
    LatitudeCircle,
    NumericConfig,
    NumericContext,
    ParametricCurve,
    SphereFigureEight,
    TorusCircle,
    UNIT_SPHERE,
    extract_diagram,
    find_double_points,
    gauss_bonnet_region_check,
    geodesic_curvature,
    numeric_i1,
    numeric_iq,
    numeric_jplus,
    point_index,
)
from curveinv.invariants import full_report

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.generators import NUMERIC_KINDS, draw_curve  # noqa: E402

CFG = NumericConfig()   # the default grid
SOUTH = (0.0, 0.0, -1.0)
ALPHA = math.pi / 3


@pytest.fixture(scope="module")
def contexts():
    out = {
        "latitude": NumericContext(LatitudeCircle(ALPHA), SOUTH, CFG),
        "great": NumericContext(GreatCircle(), SOUTH, CFG),
        "torus": NumericContext(TorusCircle(0.2), (0.05, 0.05), CFG),
        "fig8": NumericContext(SphereFigureEight(), (-1.0, 0.0, 0.0), CFG),
    }
    return out


# -- geodesic curvature -------------------------------------------------------


def test_latitude_curvature_gauss_bonnet_oracle():
    # the cap bounded by the latitude circle: total k_g = 2 pi - cap area
    curve = LatitudeCircle(ALPHA)
    ts = np.linspace(0, 1, 200, endpoint=False)
    kg = geodesic_curvature(curve, ts)
    assert np.allclose(kg, 1 / math.tan(ALPHA), atol=1e-12)
    length = 2 * math.pi * math.sin(ALPHA)
    cap_area = 2 * math.pi * (1 - math.cos(ALPHA))
    assert float(kg[0]) * length == pytest.approx(2 * math.pi - cap_area, abs=1e-9)


def test_great_circle_is_geodesic():
    kg = geodesic_curvature(GreatCircle(), np.linspace(0, 1, 50, endpoint=False))
    assert np.allclose(kg, 0.0, atol=1e-12)


def test_torus_circle_curvature():
    kg = geodesic_curvature(TorusCircle(0.2), 0.37)
    assert float(kg) == pytest.approx(5.0, abs=1e-10)


# -- double points ------------------------------------------------------------


def test_embedded_curves_have_no_double_points():
    assert find_double_points(GreatCircle(), CFG) == []
    assert find_double_points(LatitudeCircle(ALPHA), CFG) == []
    assert find_double_points(TorusCircle(0.2), CFG) == []


def test_figure_eight_double_point_oracle():
    # the untilted curve crosses itself at (1, 0, 0) at s = 0 and s = pi,
    # with perpendicular tangents (0, 1, 1) and (0, 1, -1)
    curve = SphereFigureEight()
    (d,) = find_double_points(curve, CFG)
    assert np.allclose(d.position, curve._rot @ (1.0, 0.0, 0.0), rtol=0, atol=1e-12)
    assert d.theta == pytest.approx(math.pi / 2, abs=1e-9)
    assert d.t2 - d.t1 == pytest.approx(0.5, abs=1e-14)


def test_figure_eight_has_one_double_point():
    dps = find_double_points(SphereFigureEight(), CFG)
    assert len(dps) == 1
    d = dps[0]
    assert 0 < d.theta < math.pi
    assert d.theta == pytest.approx(math.pi / 2, abs=1e-9)
    assert abs(np.linalg.norm(np.array(d.position)) - 1) < 1e-9


def test_theta_symmetric_under_role_reversal():
    d = find_double_points(SphereFigureEight(), CFG)[0]
    curve = SphereFigureEight()
    v1 = curve.jet(d.t1, 1)[1]
    v2 = curve.jet(d.t2, 1)[1]

    def angle(u, w):
        c = float(np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w)))
        return math.acos(max(-1.0, min(1.0, c)))

    assert abs(angle(v1, -v2) - angle(v2, -v1)) < 1e-9


def test_angle_floor_triggers_degenerate_tangency(monkeypatch):
    monkeypatch.setattr(geometry, "ANGLE_FLOOR", 2.0)
    cfg = NumericConfig(curve_samples=2048)
    with pytest.raises(DegenerateTangency):
        find_double_points(SphereFigureEight(), cfg)


# -- point index --------------------------------------------------------------


def test_point_index_latitude_poles():
    curve = LatitudeCircle(ALPHA)
    assert point_index(curve, SOUTH, (0, 0, 1), CFG) == 1
    assert point_index(curve, SOUTH, SOUTH, CFG) == 0


def test_point_index_rejects_points_on_curve():
    curve = GreatCircle()
    with pytest.raises(PointOnCurve):
        point_index(curve, SOUTH, (1.0, 0.0, 0.0), CFG)


# curve_samples is read by nothing: both sizes read the same arc nodes
@pytest.mark.parametrize("samples", [1024, 8192])
@pytest.mark.parametrize("curve,base,point", [
    # off the arc nodes
    (TorusCircle(0.2), (0.05, 0.05), 0.3 + 0.5 / 8192),
    (LatitudeCircle(1.0), SOUTH, 0.3 + 0.5 / 8192),
    (SphereFigureEight(), (-1.0, 0.0, 0.0), 0.3 + 0.5 / 8192),
    # the figure eight's double point
    (SphereFigureEight(), (-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
])
def test_point_index_rejects_points_between_samples(samples, curve, base, point):
    """A probe on the curve but off its arc nodes is found on the curve
    itself, at its foot, not reported as a crossing count or a failed
    path."""
    p = curve.jet(point, 0)[0] if isinstance(point, float) else np.array(point)
    with pytest.raises(PointOnCurve, match=r"^probe point \(.*\) lies on the curve$"):
        point_index(curve, base, p, NumericConfig(curve_samples=samples))


@pytest.mark.parametrize("curve,base,probe,message", [
    (GreatCircle(), SOUTH, (math.nan, 0.0, 0.0), r"^probe point \(nan, 0\.0, 0\.0\) is not fin"),
    (GreatCircle(), SOUTH, (0.0, 0.0, 5.0), r"^probe point \(0\.0, 0\.0, 5\.0\) is not on the "),
    (GreatCircle(), SOUTH, [(0.0, 0.0, 1.0), (0.0, 0.0, 5.0)], r"\(0\.0, 0\.0, 5\.0\) is not on"),
    (GreatCircle(), SOUTH, (0.0, 0.0, 1.0, 0.0, 0.0, -1.0), "the surface's 3 coordinates"),
    (GreatCircle(), SOUTH, np.zeros((1, 2, 3)), "the surface's 3 coordinates"),
    (GreatCircle(), SOUTH, "north", r"^probe point 'north' is not a point$"),
    (TorusCircle(0.2), (0.05, 0.05), (math.nan, 0.5), r"^probe point \(nan, 0\.5\) is not fin"),
    (TorusCircle(0.2), (0.05, 0.05), [(0.5, 0.5), (0.5, math.inf)], r"\(0\.5, inf\) is not"),
    (TorusCircle(0.2), (0.05, 0.05), (0.5, 0.5, 0.5), "the surface's 2 coordinates"),
], ids=["nan", "off_sphere", "off_sphere_in_stack", "flat_pair", "deep_stack", "string",
        "torus_nan", "torus_inf_in_stack", "torus_3_vector"])
def test_point_index_checks_its_probes_as_a_context_checks_its_base(curve, base, probe, message):
    # before, (nan, 0, 0) and (0, 0, 5) read 1 on the great circle, the flat
    # 6-vector read its first half alone, (nan, 0.5) read 0 on the torus and
    # a 3-vector there raised a bare ValueError
    with pytest.raises(InvalidBasePoint, match=message):
        point_index(curve, base, probe, CFG)


def test_point_index_reduces_torus_probes_into_the_chart():
    # the circle of radius 0.2 about (0.05, 0.05) holds the torus point
    # (0.5, 0.5) however it is written; (1.5, 0.5) read 0 before
    curve, base = TorusCircle(0.2), (0.05, 0.05)
    assert point_index(curve, base, (0.5, 0.5), CFG) == 1
    probes = [(1.5, 0.5), (-0.5, 0.5), (0.5, -2.5), (0.5, 0.5)]
    assert point_index(curve, base, probes, CFG) == [1, 1, 1, 1]


def test_point_index_reads_every_probe_in_one_winding_pass(monkeypatch):
    # the context's pass on its base and anchor, then one on the base and
    # all K probes; the probes' feet in one batch
    feet, windings = [], []
    foot, winding = geometry._feet, geometry._winding
    monkeypatch.setattr(geometry, "_feet", lambda ctx, points, names:
                        feet.append(list(names)) or foot(ctx, points, names))
    monkeypatch.setattr(geometry, "_winding", lambda ctx, points:
                        windings.append(points.tolist()) or winding(ctx, points))
    curve, probes = LatitudeCircle(ALPHA), [(0.0, 0.0, 1.0), SOUTH, (0.6, 0.0, -0.8)]
    assert point_index(curve, SOUTH, probes, CFG) == [1, 0, 0]
    assert feet == [["base", "anchor"], ["probe"] * 3]
    assert len(windings) == 2 and windings[1] == [list(SOUTH), *map(list, probes)]


def test_point_index_path_independence(contexts):
    # index differences between probes equal the signed crossing count of
    # the direct path: differences must be consistent across probe chains
    ctx = contexts["fig8"]
    curve = ctx.curve
    probes = []
    for t in (0.1, 0.3, 0.6, 0.85):
        pl, pr = side_probes(ctx, t)
        probes.extend([pl, pr])
    idx = [point_index(curve, ctx.base_point, p, CFG) for p in probes]
    for p, i in zip(probes, idx):
        for q, j in zip(probes, idx):
            direct = point_index(curve, p, q, CFG)
            assert direct == j - i


def test_figure8_probe_matches_combinatorial_index(contexts):
    ctx = contexts["fig8"]
    diagram, base = extract_diagram(ctx.curve, ctx.base_point, CFG, context=ctx)
    ind = index_function(diagram, base)
    assert sorted(int(v) for v in ind.values.values()) == [-1, 0, 1]
    # the numeric arc indices agree with the combinatorial ones
    from curveinv.diagram import arc_and_crossing_indices

    arcs, crossings = arc_and_crossing_indices(diagram, ind)
    assert sorted(ctx.arc_index) == sorted(arcs.values())
    assert ctx.crossing_index == list(crossings.values())


def test_torus_extraction_traces_once(contexts, monkeypatch):
    """The genus-1 diagram is assembled from the cycles already traced."""
    calls = []
    trace = diagram_module._trace

    def counted(code):
        calls.append(code)
        return trace(code)

    public, walked = diagram_module.trace_boundary_cycles, []
    monkeypatch.setattr(diagram_module, "_trace", counted)
    monkeypatch.setattr(geometry, "_trace", counted)
    monkeypatch.setattr(diagram_module, "trace_boundary_cycles",
                        lambda code, **kw: walked.append(code) or public(code, **kw))
    ctx = contexts["torus"]
    diagram, _base = extract_diagram(ctx.curve, ctx.base_point, CFG, context=ctx)
    assert len(calls) == 1 and walked == calls
    assert sorted(r.genus for r in diagram.regions) == [0, 1]


# -- numeric invariants vs the exact path --------------------------------------


def expected_iq(ctx):
    diagram, base = extract_diagram(ctx.curve, ctx.base_point, CFG, context=ctx)
    return full_report(diagram, base)


# the catalog's fixture tolerances, then the default grid's 1e-10 on the
# sphere, where the level areas come from Stokes
ROUTE_TOLERANCES = [
    ("torus", 1e-6), ("latitude", 5e-3), ("great", 5e-3), ("fig8", 1e-2),
    ("latitude", 1e-10), ("great", 1e-10), ("fig8", 1e-10),
]


@pytest.mark.parametrize("name,tol", ROUTE_TOLERANCES)
def test_numeric_iq_matches_exact(contexts, name, tol):
    ctx = contexts[name]
    rep = expected_iq(ctx)
    for q in (0.5, 2.0, 3.0):
        numeric = numeric_iq(ctx.curve, ctx.base_point, [q], CFG, context=ctx)[0]
        assert abs(numeric - laurent.eval_real(rep.iq, q)) <= tol


@pytest.mark.parametrize("q", [1e-320, 5e-324])
def test_numeric_iq_names_a_q_whose_powers_overflow(contexts, q):
    # q^i at the figure eight's level -1 is beyond a float
    ctx = contexts["fig8"]
    with pytest.raises(QOverflow) as exc:
        numeric_iq(ctx.curve, ctx.base_point, [q], CFG, context=ctx)
    assert str(exc.value) == (f"q = {q}: a power q^i at this curve's index levels "
                              "overflows a float")


def test_numeric_iq_names_integrals_that_overflow(contexts):
    # every power q^i is finite, but the line integral of a context whose
    # arc weights are near the float range is not; before, the value was inf
    ctx = copy.copy(contexts["fig8"])
    ctx.arc_kg = [1e308 for _ in ctx.arc_kg]
    with pytest.raises(QOverflow) as exc:
        numeric_iq(ctx.curve, ctx.base_point, [4.0], CFG, context=ctx)
    assert str(exc.value) == ("q = 4.0: the integrals at this curve's index levels "
                              "overflow a float")


@pytest.mark.parametrize("q", [math.inf, math.nan])
def test_numeric_iq_rejects_a_q_that_is_not_finite(contexts, q):
    # numeric_iq(figure eight, [inf]) returned [nan]
    ctx = contexts["fig8"]
    with pytest.raises(NonPositiveQ) as exc:
        numeric_iq(ctx.curve, ctx.base_point, [q], CFG, context=ctx)
    assert str(exc.value) == f"q must be finite and positive, got {q}"


@pytest.mark.parametrize("name,tol", ROUTE_TOLERANCES)
def test_numeric_i1_matches_rotation(contexts, name, tol):
    ctx = contexts[name]
    rep = expected_iq(ctx)
    assert abs(numeric_i1(ctx.curve, ctx.base_point, CFG, context=ctx) - rep.i1) <= tol


def test_numeric_jplus_sphere(contexts):
    for name in ("latitude", "great", "fig8"):
        ctx = contexts[name]
        rep = expected_iq(ctx)
        jp = numeric_jplus(ctx.curve, ctx.base_point, CFG, context=ctx)
        assert abs(jp - float(rep.jplus)) <= 1e-10


def test_numeric_jplus_rejects_torus(contexts):
    ctx = contexts["torus"]
    with pytest.raises(ChiZero):
        numeric_jplus(ctx.curve, ctx.base_point, CFG, context=ctx)


def test_latitude_level_areas_are_the_two_caps(contexts):
    # the base point is south: the northern cap has index 1, the rest 0
    area = contexts["latitude"].level_area
    assert set(area) == {0, 1}
    assert area[1] == pytest.approx(2 * math.pi * (1 - math.cos(ALPHA)), abs=1e-12)
    assert area[0] == pytest.approx(2 * math.pi * (1 + math.cos(ALPHA)), abs=1e-12)


def test_figure8_level_areas_are_vivianis_window(contexts):
    # the untilted figure eight is Viviani's curve, the sphere's cut with
    # the cylinder (x - 1/2)^2 + y^2 = 1/4: each lobe has area pi - 2
    area = contexts["fig8"].level_area
    assert set(area) == {-1, 0, 1}
    assert area[-1] == pytest.approx(math.pi - 2, abs=1e-12)
    assert area[1] == pytest.approx(math.pi - 2, abs=1e-12)
    assert area[0] == pytest.approx(2 * math.pi + 4, abs=1e-12)


# figure eights through or near both of +-e3: tilt 0 passes through them, and
# the last is numeric_verify seed 61, spec 8
NEAR_POLE_FIGURE_EIGHTS = [(0.0, 0.35), (0.1, 0.35), (0.2, 0.35),
                           (0.5540890692507796, 0.30999560767158624)]


@pytest.mark.parametrize("cfg", [CFG, CFG.halved()], ids=["default", "halved"])
@pytest.mark.parametrize("tilt,phase", NEAR_POLE_FIGURE_EIGHTS)
def test_figure_eights_near_the_poles_match_exact(tilt, phase, cfg):
    ctx = NumericContext(SphereFigureEight(tilt, phase), (-1.0, 0.0, 0.0), cfg)
    curve, base = ctx.curve, ctx.base_point
    diagram, b = extract_diagram(curve, base, cfg, context=ctx)
    rep = full_report(diagram, b)
    for q, v in zip((0.5, 2.0, 3.0), numeric_iq(curve, base, (0.5, 2.0, 3.0), context=ctx)):
        assert abs(v - laurent.eval_real(rep.iq, q)) <= 1e-12
    assert abs(numeric_i1(curve, base, context=ctx) - rep.i1) <= 1e-12
    assert abs(numeric_jplus(curve, base, context=ctx) - float(rep.jplus)) <= 1e-12
    # a tilt is a rotation: the lobes stay Viviani's, pi - 2 each
    assert abs(ctx.level_area[-1] - (math.pi - 2)) <= 1e-12
    assert abs(ctx.level_area[1] - (math.pi - 2)) <= 1e-12


@pytest.mark.parametrize("name", ["great_circle", "latitude", "figure8_sphere_param"])
def test_level_areas_agree_for_every_axis_pole(monkeypatch, name):
    # the area form singular at any of +-e1, +-e2, +-e3 at least 0.3 from
    # the curve gives the same table: the 4 pi goes to the level of the pole
    fx = parametric_fixture(name)
    pts = NumericContext(fx.curve, fx.base_point, CFG).nodes[1]
    tables = []
    for a in range(3):
        for sign in (1.0, -1.0):
            if np.min(np.linalg.norm(pts - sign * np.eye(3)[a], axis=1)) < 0.3:
                continue
            monkeypatch.setattr(UNIT_SPHERE, "anchor", lambda pts, s=sign * np.eye(3)[a]: s)
            tables.append(NumericContext(fx.curve, fx.base_point, CFG).level_area)
    assert len(tables) >= 2
    for table in tables:
        assert list(table) == list(tables[0])
        for level, area in tables[0].items():
            assert abs(table[level] - area) <= 1e-12


def test_quadrature_convergence():
    # doubling the grid moves the result by less than the reported estimate
    coarse_cfg = NumericConfig(line_nodes=24, curve_samples=1024)
    fine_cfg = NumericConfig(line_nodes=48, curve_samples=2048)
    finest_cfg = NumericConfig(line_nodes=96, curve_samples=4096)
    for curve, base in ((LatitudeCircle(ALPHA), SOUTH),
                        (SphereFigureEight(), (-1.0, 0.0, 0.0))):
        v_coarse = numeric_iq(curve, base, [2.0], coarse_cfg)[0]
        v_fine = numeric_iq(curve, base, [2.0], fine_cfg)[0]
        v_finest = numeric_iq(curve, base, [2.0], finest_cfg)[0]
        estimate = abs(v_fine - v_coarse) / 2
        assert abs(v_finest - v_fine) <= estimate + 1e-9


# -- per-level Gauss-Bonnet -----------------------------------------------------


def test_gauss_bonnet_latitude(contexts):
    ctx = contexts["latitude"]
    extracted = extract_diagram(ctx.curve, ctx.base_point, CFG, context=ctx)
    lhs, rhs = gauss_bonnet_region_check(
        ctx.curve, ctx.base_point, Fraction(1, 2), CFG, context=ctx,
        extracted=extracted,
    )
    assert lhs == pytest.approx(2 * math.pi, abs=1e-12)
    expected = 2 * math.pi * (1 - math.cos(ALPHA)) + 2 * math.pi * math.cos(ALPHA)
    assert rhs == pytest.approx(expected, rel=5e-3)


def test_gauss_bonnet_levels(contexts):
    for name in ("latitude", "great", "fig8"):
        ctx = contexts[name]
        extracted = extract_diagram(ctx.curve, ctx.base_point, CFG, context=ctx)
        diagram, base = extracted
        ind = index_function(diagram, base)
        for v in sorted({int(x) for x in ind.values.values()}):
            for twice_j in (2 * v - 1, 2 * v + 1):
                j = Fraction(twice_j, 2)
                lhs, rhs = gauss_bonnet_region_check(
                    ctx.curve, ctx.base_point, j, CFG, context=ctx,
                    extracted=extracted,
                )
                assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-2


@pytest.mark.parametrize("name", PARAMETRIC_NAMES)
@pytest.mark.parametrize("halved", [False, True])
def test_gauss_bonnet_lhs_is_the_direct_chi(name, halved):
    """The left side, read from the subsurface profile, is 2 pi times the
    one-level count subsurface_chi at every level from two below the
    index window to two above it, where the identity still holds."""
    fx = parametric_fixture(name)
    cfg = CFG.halved() if halved else CFG
    ctx = NumericContext(fx.curve, fx.base_point, cfg)
    extracted = extract_diagram(fx.curve, fx.base_point, cfg, context=ctx)
    diagram, base = extracted
    ind = index_function(diagram, base)
    lo, hi = min(ind.values.values()), max(ind.values.values())
    for twice_j in range(2 * lo - 3, 2 * hi + 4, 2):
        j = Fraction(twice_j, 2)
        lhs, rhs = gauss_bonnet_region_check(fx.curve, fx.base_point, j, cfg,
                                             context=ctx, extracted=extracted)
        assert lhs == 2 * math.pi * diagram_module.subsurface_chi(diagram, ind, j)
        assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-2
    for j in (1, 0.25):
        with pytest.raises(ValueError, match="half odd integer"):
            gauss_bonnet_region_check(fx.curve, fx.base_point, j, cfg,
                                      context=ctx, extracted=extracted)


# -- extraction -----------------------------------------------------------------


def test_extract_latitude(contexts):
    ctx = contexts["latitude"]
    diagram, base = extract_diagram(ctx.curve, ctx.base_point, CFG, context=ctx)
    assert diagram.n == 0 and diagram.surface_chi == 2
    ind = index_function(diagram, base)
    assert sorted(ind.values.values()) == [0, 1]
    assert full_report(diagram, base).iq == laurent.HalfLaurent({1: 1})


def test_extract_figure_eight(contexts):
    ctx = contexts["fig8"]
    diagram, base = extract_diagram(ctx.curve, ctx.base_point, CFG, context=ctx)
    assert diagram.n == 1
    rep = full_report(diagram, base)
    assert rep.rotation == (0, 2)
    assert rep.jplus == 0


def test_extract_torus_circle(contexts):
    ctx = contexts["torus"]
    diagram, base = extract_diagram(ctx.curve, ctx.base_point, CFG, context=ctx)
    assert diagram.n == 0 and diagram.surface_chi == 0
    genera = sorted(r.genus for r in diagram.regions)
    assert genera == [0, 1]
    rep = full_report(diagram, base)
    assert rep.rotation == (1, 0)
    assert rep.iq == laurent.HalfLaurent({1: 1})


@pytest.mark.parametrize("base_point,base_genus", [((0.05, 0.05), 1), ((0.5, 0.5), 0)])
def test_torus_genus_goes_to_the_face_of_the_chart_corner(base_point, base_genus):
    # the genus-1 face holds the chart's corner, wherever the base point is
    diagram, base = extract_diagram(TorusCircle(0.2), base_point, CFG)
    assert [r.genus for r in diagram.regions] == [base_genus if r == base else 1 - base_genus
                                                  for r in range(2)]


def test_a_torus_lift_around_the_chart_corner_keeps_its_index():
    # the circle's lift goes around the corner (0, 0), the anchor: its
    # winding number there is 1, not 0, and the base outside the circle is
    # one level below it.  Only extraction's chart test rejects the curve
    curve, base_point = TorusCircle(0.2, center=(0.05, 0.05)), (0.6, 0.6)
    ctx = NumericContext(curve, base_point, CFG)
    assert (ctx.anchor_index, ctx.arc_index) == (1, [0])
    assert numeric_iq(curve, base_point, [2.0], context=ctx)[0] == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ChartViolation):
        extract_diagram(curve, base_point, context=ctx)


def test_torus_curve_leaving_the_chart_is_a_chart_violation():
    # the circle reaches x = -0.1: its plane lift leaves the open
    # fundamental domain that the torus regions are read in
    curve = TorusCircle(0.2, center=(0.1, 0.5))
    with pytest.raises(ChartViolation, match="leaves the open fundamental-domain chart"):
        extract_diagram(curve, (0.6, 0.9), CFG)


# -- the base region against a segment reference --------------------------------


class ThreeHarmonic(ParametricCurve):
    """z(t) = (1 + i)/2 + sum of c e^(2 pi i k t) over the (c, k) terms, in the
    torus chart."""

    surface = FLAT_TORUS

    def __init__(self, terms):
        self.terms = terms

    def _jet(self, t):
        for order in range(3):
            z = sum(c * (2j * math.pi * k) ** order * np.exp(2j * math.pi * k * t)
                    for c, k in self.terms)
            if order == 0:
                z = z + (0.5 + 0.5j)
            yield np.stack([z.real, z.imag], axis=-1)


def seeded_torus_curves(count):
    """(draw, curve, base point) of seeded three-harmonic torus curves."""
    rng = random.Random(5)
    for i in range(count):
        terms = [(0.22, 1)]
        for ks, lo, hi in (([-4, -3, -2, 2, 3, 4, 5], 0.03, 0.12),
                           ([-7, -6, -5, 5, 6, 7], 0.005, 0.04)):
            k, r = rng.choice(ks), rng.uniform(lo, hi)
            terms.append((r * np.exp(1j * rng.uniform(0, 6.28)), k))
        base = (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))
        yield i, ThreeHarmonic(terms), base


def _cross(u, w):
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def segment_base_regions(ctx, diagram, samples=16384, off=1e-5):
    """The regions that hold a torus curve's base point: those with a probe
    `off` to one side of one of their arcs that a straight segment from the
    base point reaches without crossing an edge of the curve's polygon of
    `samples` vertices.  Probes are spread along each arc, 4 of them and
    then 32 if no segment was free."""
    curve, b = ctx.curve, ctx.base_point
    poly = curve.jet(np.arange(samples + 1) / samples, 0)[0]   # closed
    edge = np.diff(poly, axis=0)
    for per_arc in (4, 32):
        found = set()
        for k, (lo, hi) in enumerate(ctx.arc_spans):
            x, v = curve.jet(lo + (hi - lo) * (np.arange(per_arc) + 0.5) / per_arc, 1)
            left = np.stack([-v[:, 1], v[:, 0]], axis=-1) / np.linalg.norm(v, axis=-1)[:, None]
            for side, probes in enumerate((x + off * left, x - off * left)):
                # probe j's segment crosses edge e: e's ends lie on either side
                # of the segment's line, and b and probe j on either side of e's
                s = _cross((probes - b)[:, None, :], poly - b)
                j, e = np.nonzero(s[:, :-1] * s[:, 1:] < 0)
                hit = (_cross(edge[e], b - poly[e]) * _cross(edge[e], probes[j] - poly[e]) < 0)
                if len(set(j[hit].tolist())) < per_arc:
                    found.add(diagram.dart_region[2 * k + side])
        if found:
            return found
    return found


@pytest.mark.parametrize("k,a,base_region", [(9, 0.5, 4), (13, 0.45, 4), (17, 0.5, 8)])
def test_epicycle_base_region_holds_the_base_point(k, a, base_region):
    ctx = NumericContext(Epicycle(k, a), (0.5, 0.5), CFG)
    diagram, base = extract_diagram(ctx.curve, ctx.base_point, context=ctx)
    assert segment_base_regions(ctx, diagram) == {base_region}
    # region 1 has the base point's index but another based canonical form
    assert canonicalize(diagram) == canonicalize(replace(diagram, base_region=base_region))
    assert base == diagram.base_region == base_region


def test_seeded_torus_base_regions_hold_the_base_point():
    # in draws 62, 77, 89 and 97 another region has the base point's index
    for i, curve, base_point in seeded_torus_curves(100):
        ctx = NumericContext(curve, base_point, CFG.halved())
        diagram, base = extract_diagram(curve, base_point, context=ctx)
        assert segment_base_regions(ctx, diagram) == {base}, i


def seed_filter_curves():
    """The four parametric fixtures, the epicycles of EPICYCLES and the 100
    seeded torus curves."""
    yield from (parametric_fixture(name).curve for name in PARAMETRIC_NAMES)
    yield from (Epicycle(k, a) for k, a, _ in EPICYCLES)
    yield from (curve for _i, curve, _b in seeded_torus_curves(100))


@pytest.mark.parametrize("cfg", [CFG, CFG.halved()], ids=["default", "halved"])
def test_refined_seeds_are_the_may_cross_seeds(monkeypatch, cfg):
    # the turning decides most near pairs before _may_cross sees them; the
    # seeds that reach Newton's method are still the close pairs that the
    # one-einsum-per-step reference keeps, in the same order
    seeds = []
    refine = geometry._refine_double_points
    monkeypatch.setattr(geometry, "_refine_double_points",
                        lambda curve, t1, t2: seeds.append((t1, t2)) or refine(curve, t1, t2))
    for curve in seed_filter_curves():
        seeds.clear()
        find_double_points(curve, cfg)
        ts, pts, threshold = seed_grid(curve, cfg.double_grid)
        want = seed_reference(ts, pts, threshold)
        (t1, t2), = seeds
        assert t1.tolist() == ts[want[:, 0]].tolist() and t2.tolist() == ts[want[:, 1]].tolist()


@pytest.mark.parametrize("n", [50, 101, 400, 800])
def test_seed_kernel_equals_dense_reference(n):
    # the seeds are the dense grid's close pairs that the one-gather filter
    # keeps, in row-major order, near and far ones; the fixtures, the
    # epicycles (with k = 25 and 33) and the seeded torus curves
    near = far = 0
    for k, curve in enumerate([*seed_filter_curves(), Epicycle(25, 0.5), Epicycle(33, 0.5)]):
        ts, pts, threshold = seed_grid(curve, n)
        want = seed_reference(ts, pts, threshold)
        assert seed_kernel(ts, pts, threshold).tolist() == want.tolist(), k
        spans = short_spans(n, want)
        near += (spans <= geometry._MONOTONE_SPAN).sum()
        far += (spans > geometry._MONOTONE_SPAN).sum()
    assert near and far


def test_seed_kernel_gap_test_reaches_far_pairs():
    # at n = 3400, DIAG_GAP n = 17 > _MONOTONE_SPAN: far pairs along the slow
    # parts of draws 22 and 27 are close but within the diagonal band, and
    # at a span of 17 the float gap test drops some pairs and keeps others
    n = 3400
    assert geometry.DIAG_GAP * n > geometry._MONOTONE_SPAN
    for i, curve, _b in seeded_torus_curves(28):
        if i not in (22, 27):
            continue
        ts, pts, threshold = seed_grid(curve, n)
        banded = close_pairs_reference(ts, pts, threshold, gap=0.0)
        sep = np.abs(ts[banded[:, 0]] - ts[banded[:, 1]])
        off = ~(np.minimum(sep, 1.0 - sep) < geometry.DIAG_GAP)
        spans = short_spans(n, banded)
        assert (spans[~off] == 17).any() and (spans[off] == 17).any()
        close = banded[off]
        want = close[may_cross_reference(pts, close)]
        assert seed_kernel(ts, pts, threshold).tolist() == want.tolist()


@pytest.mark.parametrize("n", [101, 400])
def test_seed_kernel_sends_a_stalled_parametrization_to_may_cross(n):
    # a circle that rests at its start for a tenth of its parameter: its
    # repeated samples join zero-length segments, whose ways the turning
    # leaves to _may_cross
    ts = np.arange(n) / n
    stall = np.where(ts < 0.1, 0.0, (ts - 0.1) / 0.9)
    pts, vel = TorusCircle(0.2).jet(stall, 1)
    threshold = (4.0 * float(np.max(np.linalg.norm(vel, axis=-1))) / 0.9 / n) ** 2
    seeds, asked = ways_to_may_cross(ts, pts, threshold)
    assert seeds.tolist() == seed_reference(ts, pts, threshold).tolist()
    # segments 0 ... resting - 2 have zero length: each way asked about
    # starts on one, or wraps the seam through segment 0
    resting = int(np.count_nonzero(stall == 0.0))
    assert asked and all(i < resting - 1 or 2 * (j - i) > n for i, j in asked)


def test_seed_kernel_on_the_smallest_grid():
    # the floor of double_grid, with a partial last box (50 = 6 * 8 + 2)
    n = geometry._FLOORS["double_grid"]
    with pytest.raises(InvalidConfig):
        NumericConfig(double_grid=n - 1)
    cfg = NumericConfig(double_grid=n)
    for curve in (*(parametric_fixture(name).curve for name in PARAMETRIC_NAMES),
                  *(Epicycle(k, a) for k, a, _ in EPICYCLES)):
        ts, pts, threshold = seed_grid(curve, n)
        want = seed_reference(ts, pts, threshold)
        assert seed_kernel(ts, pts, threshold).tolist() == want.tolist()
    got = find_double_points(SphereFigureEight(), cfg)
    assert len(got) == 1 and got == double_points_all_seeds(SphereFigureEight(), cfg)


def test_seed_memory_grows_linearly_with_the_grid():
    # a box x box table would grow 16 x from 3200 to 12800 samples; the
    # blocked one stays below _CHUNK_CELLS cells, and the rest of the search
    # grows 4 x
    peaks = []
    for n in (3200, 12800):
        tracemalloc.start()
        find_double_points(TorusCircle(), NumericConfig(double_grid=n))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 6 * peaks[0]


def test_faces_are_read_at_the_newton_foot(monkeypatch):
    # seeded torus draw 22: the side read at the base's nearest arc node,
    # not at its foot, puts the base in the wrong face, at both grids
    _i, curve, base_point = next(d for d in seeded_torus_curves(23) if d[0] == 22)

    def at_node(ctx, points, names):   # the nearest node in place of the foot
        ts, x, v, _a = ctx.nodes
        d2 = sum((x[:, c] - points[:, c, None]) ** 2 for c in range(points.shape[1]))
        near = d2.argmin(axis=1)
        return ts[near], x[near], v[near]

    for cfg in (CFG, CFG.halved()):
        ctx = NumericContext(curve, base_point, cfg)
        diagram, base = extract_diagram(curve, base_point, context=ctx)
        assert segment_base_regions(ctx, diagram) == {base}
        with monkeypatch.context() as patched:
            patched.setattr(geometry, "_feet", at_node)
            with pytest.raises(TopologyError, match="base point's face disagrees"):
                extract_diagram(curve, base_point, context=NumericContext(curve, base_point, cfg))


@pytest.mark.parametrize("cfg", [CFG, CFG.halved()], ids=["default", "halved"])
def test_node_readings_equal_the_dense_scan(cfg):
    # the anchor, its index, every arc index and the base region, read on
    # the arc nodes, are those of the dense scan of cfg.curve_samples
    # samples that they replaced, on the fixtures, the 192 numeric_verify
    # curves, five epicycles and the 100 seeded torus draws
    cases = [(fx.curve, fx.base_point) for fx in map(parametric_fixture, PARAMETRIC_NAMES)]
    cases += [*side_probe_cases("specs"), *side_probe_cases("epicycles"),
              *side_probe_cases("seeded_torus")]
    assert len(cases) == 4 + 192 + 5 + 100
    for curve, base_point in cases:
        ctx = NumericContext(curve, base_point, cfg)
        anchor, index, arcs, base_dart = scan_indices_reference(ctx, cfg.curve_samples)
        diagram, base = extract_diagram(curve, base_point, context=ctx)
        assert ctx.anchor.tolist() == anchor.tolist()
        assert ctx.anchor_index == index
        assert ctx.arc_index == arcs
        assert base == diagram.dart_region[base_dart]


def test_a_base_point_off_the_torus_chart_is_reduced_into_it():
    # (1.5, 0.5) and (-0.5, 0.5) are the torus point (0.5, 0.5)
    curve, qs = TorusCircle(), (0.5, 2.0, 3.0)
    want = NumericContext(curve, (0.5, 0.5), CFG)
    for point in ((1.5, 0.5), (-0.5, 0.5), (0.5, -2.5)):
        ctx = NumericContext(curve, point, CFG)
        assert ctx.base_point.tolist() == [0.5, 0.5]
        assert ctx.arc_index == want.arc_index
        assert extract_diagram(curve, point, context=ctx)[1] == \
            extract_diagram(curve, (0.5, 0.5), context=want)[1] == 0
        assert numeric_iq(curve, point, qs, context=ctx) == numeric_iq(curve, None, qs,
                                                                       context=want)
    # a coordinate just below 0 rounds to 1 mod 1: the chart holds it as 0
    assert NumericContext(curve, (-1e-17, 0.25), CFG).base_point.tolist() == [0.0, 0.25]


@pytest.mark.parametrize("curve,base_point,message", [
    (TorusCircle(), (math.nan, 0.5), "not finite"),
    (TorusCircle(), (0.5, math.inf), "not finite"),
    (TorusCircle(), (0.5, 0.5, 0.5), "2 coordinates"),
    (TorusCircle(), 0.5, "2 coordinates"),
    (TorusCircle(), "corner", "not a point"),
    (GreatCircle(), (0.0, 0.0, math.nan), "not finite"),
    (GreatCircle(), (0.0, 0.0, 0.0), "not on the unit sphere"),
    (GreatCircle(), (0.0, 0.0, 2.0), "not on the unit sphere"),
    (GreatCircle(), (0.0, 0.0, -1.0 - 2e-9), "not on the unit sphere"),
    (GreatCircle(), (0.0, -1.0), "3 coordinates"),
    (GreatCircle(), [[0.0, 0.0, -1.0]], "3 coordinates"),
    (GreatCircle(), [(0.0, 0.0), (1.0,)], "not a point"),
])
def test_a_base_point_the_context_cannot_place_is_rejected(curve, base_point, message):
    with pytest.raises(InvalidBasePoint, match=message):
        NumericContext(curve, base_point, CFG)


def test_a_sphere_base_point_within_1e_9_of_unit_norm_is_kept():
    point = (0.0, 0.0, -1.0 - 5e-10)
    ctx = NumericContext(GreatCircle(), point, CFG)
    assert ctx.base_point.tolist() == list(point) and ctx.anchor_index == 1


def test_a_missed_crossing_fails_the_parity_check(monkeypatch):
    # without one double point, a crossing interleaved with it has an odd
    # number of passages between its own two: its arcs give no integer index
    find = geometry.find_double_points
    monkeypatch.setattr(geometry, "find_double_points", lambda curve, cfg: find(curve, cfg)[1:])
    with pytest.raises(TopologyError, match="non-integer index"):
        NumericContext(Epicycle(9, 0.5), (0.05, 0.05), CFG)


@pytest.mark.parametrize("field,size", [
    ("double_grid", 0), ("double_grid", -5), ("double_grid", 49), ("double_grid", 2.5),
    ("double_grid", True), ("line_nodes", 0), ("line_nodes", 7),
    ("curve_samples", 0), ("curve_samples", 1), ("curve_samples", 511), ("curve_samples", 1024.0),
])
def test_config_rejects_a_size_its_kernels_cannot_use(field, size):
    # before, 0 and -5 gave a bare ValueError, 2.5 was accepted, and
    # curve_samples=1 gave I_2 = 1.414 for a torus circle whose I_2 is 0.707
    with pytest.raises(InvalidConfig, match=field):
        NumericConfig(**{field: size})


def test_config_floors_are_the_halved_grids_floors():
    smallest = NumericConfig(**geometry._FLOORS)
    assert smallest.halved() == smallest
    assert NumericConfig().halved().halved().halved().halved().double_grid == 50
    ctx = NumericContext(TorusCircle(), (0.5, 0.5), smallest)
    assert abs(numeric_iq(ctx.curve, ctx.base_point, [2.0], context=ctx)[0]
               - math.sqrt(2.0) / 2) < 1e-6


def test_a_context_makes_one_point_index_call_on_two_nodes(monkeypatch):
    # one foot reading on two nodes, the base point and the anchor (the
    # pole, or the torus chart's corner), and one pass for their winding
    # numbers
    feet, windings = [], []
    foot, winding = geometry._feet, geometry._winding
    monkeypatch.setattr(geometry, "_feet", lambda ctx, points, names:
                        feet.append(list(names)) or foot(ctx, points, names))
    monkeypatch.setattr(geometry, "_winding", lambda ctx, points:
                        windings.append(points.tolist()) or winding(ctx, points))
    cases = [(fx.curve, fx.base_point) for fx in map(parametric_fixture, PARAMETRIC_NAMES)]
    for curve, base_point in cases + [(Epicycle(17, 0.5), (0.05, 0.05))]:
        feet.clear()
        windings.clear()
        ctx = NumericContext(curve, base_point, CFG)
        assert feet == [["base", "anchor"]]
        assert windings == [[ctx.base_point.tolist(), ctx.anchor.tolist()]]


def test_extraction_reads_the_contexts_base_face(monkeypatch):
    # the base's face comes from the context's one batch of feet
    contexts = [NumericContext(fx.curve, fx.base_point, CFG)
                for fx in map(parametric_fixture, PARAMETRIC_NAMES)]

    def refuse(*args):
        raise AssertionError("_feet was called")

    monkeypatch.setattr(geometry, "_feet", refuse)
    for ctx in contexts:
        diagram, base = extract_diagram(ctx.curve, ctx.base_point, context=ctx)
        assert base == diagram.dart_region[ctx.base_dart]


@pytest.mark.parametrize("off,index", [(1e-4, 0), (-1e-4, -1), (1e-5, 0), (-1e-5, -1)])
def test_the_winding_guard_halves_wide_steps(monkeypatch, off, index):
    # a base this close to a circle sees a node step of the angle above
    # pi/2: new nodes halve it until none is, and the base's winding number
    # (1 inside, 0 outside) is read right
    halved = []
    jet = ParametricCurve.jet
    monkeypatch.setattr(ParametricCurve, "jet", lambda curve, t, order=2:
                        (order == 0 and halved.append(np.size(t))) or jet(curve, t, order))
    # at t = 0.5, the middle of the circle's one arc, where its nodes are
    # farthest apart
    curve, base_point = TorusCircle(0.2), (0.3 - off, 0.5)
    ctx = NumericContext(curve, base_point, CFG)
    assert ctx.anchor_index == index and ctx.arc_index == [index]
    assert len(halved) >= 4 and all(halved)
    assert point_index(curve, base_point, ctx.anchor, CFG) == index


def test_the_winding_guard_names_the_arc_past_its_depth_bound(monkeypatch):
    # the same base 1e-4 outside the circle needs more rounds than 3
    monkeypatch.setattr(geometry, "_BISECTIONS", 3)
    with pytest.raises(TopologyError, match=r"^the winding number around \(0\.2999, 0\.5\) is "
                       r"unresolved on arc 0 after 3 halvings$"):
        NumericContext(TorusCircle(0.2), (0.2999, 0.5), CFG)


def side_probe_cases(family):
    """(curve, base point) of one family of contexts: the 64 curves of the
    numeric_verify benchmark workload at seeds 3, 5 and 7, five epicycles,
    or the 100 seeded torus curves."""
    if family == "specs":
        for seed in (3, 5, 7):
            rng = random.Random(f"numeric_verify:{seed}")
            for k in range(64):
                spec = draw_curve(rng, NUMERIC_KINDS[k % len(NUMERIC_KINDS)])
                yield spec.curve, spec.base_point
    elif family == "epicycles":
        for k, a in ((5, 0.5), (9, 0.5), (13, 0.45), (17, 0.5), (25, 0.5)):
            yield Epicycle(k, a), (0.05, 0.05)
    else:
        for _i, curve, base_point in seeded_torus_curves(100):
            yield curve, base_point


@pytest.mark.parametrize("cfg", [CFG, CFG.halved()], ids=["default", "halved"])
def test_point_index_of_the_anchor_is_the_contexts(cfg):
    # the public entry reads the anchor's index as the context does
    cases = [(fx.curve, fx.base_point) for fx in map(parametric_fixture, PARAMETRIC_NAMES)]
    cases += [*side_probe_cases("specs"), *side_probe_cases("epicycles")]
    assert len(cases) == 4 + 192 + 5
    for curve, base_point in cases:
        ctx = NumericContext(curve, base_point, cfg)
        assert point_index(curve, base_point, ctx.anchor, cfg) == ctx.anchor_index


@pytest.mark.parametrize("family,least", [("specs", 192), ("epicycles", 5),
                                          ("seeded_torus", 94)])
@pytest.mark.parametrize("cfg", [CFG, CFG.halved()], ids=["default", "halved"])
def test_arc_indices_equal_side_probe_indices(family, least, cfg):
    # the arc indices, prefix sums of the crossing signs from one anchor,
    # equal the side probes' wherever the probes succeed: every spec and
    # epicycle; 6 seeded draws (near-cusps and close branches) fail them
    checked = 0
    for curve, base_point in side_probe_cases(family):
        ctx = NumericContext(curve, base_point, cfg)
        want = side_probe_indices(ctx)
        if want is not None:
            assert ctx.arc_index == want
            checked += 1
    assert checked >= least


@pytest.mark.parametrize("cfg", [CFG, CFG.halved()], ids=["default", "halved"])
def test_epicycle_with_352_crossings_matches_exact_iq(cfg):
    # k = 33: the mid-arc side probes 1e-3 off the curve misread it at both
    # grids (side_probe_indices is None); the arc indices do not use them
    curve = Epicycle(33, 0.5)
    ctx = NumericContext(curve, (0.05, 0.05), cfg)
    assert len(ctx.double_points) == 352
    diagram, base = extract_diagram(curve, ctx.base_point, context=ctx)
    iq = full_report(diagram, base).iq
    for q, got in zip((0.5, 2.0, 3.0), numeric_iq(curve, ctx.base_point, (0.5, 2.0, 3.0),
                                                   context=ctx)):
        assert abs(got - laurent.eval_real(iq, q)) <= 1e-10, q


def flip_the_base_face(monkeypatch):
    """Patch _face_dart to read the face of the point named "base" on the
    wrong side of its arc, and every other point's as before."""
    face_dart = geometry._face_dart
    monkeypatch.setattr(geometry, "_face_dart", lambda ctx, points, names: [
        d ^ (name == "base") for d, name in zip(face_dart(ctx, points, names), names)])


@pytest.mark.parametrize("curve,base_point", [(LatitudeCircle(ALPHA), SOUTH),
                                              (SphereFigureEight(), (-1.0, 0.0, 0.0))],
                         ids=["latitude", "fig8"])
def test_a_base_face_on_the_wrong_side_fails_the_cross_check(monkeypatch, curve, base_point):
    # the context checks the base's face where it reads it, before any
    # extraction.  Here the base is the anchor, whose own reading fixes the
    # arc indices and is kept; a base elsewhere is misread in
    # test_a_base_face_misread_by_a_new_context_is_a_topology_error
    flip_the_base_face(monkeypatch)
    with pytest.raises(TopologyError, match="base point's face disagrees with the arc indices"):
        NumericContext(curve, base_point, CFG)


def base_face_reference(ctx, dart):
    """The reference check of a base face by the diagram's index function:
    with the base in the face of dart, arc 0's left side has index
    arc_index[0] + 1."""
    diagram = ctx.extracted[0]
    ind = index_function(diagram, diagram.dart_region[dart])
    return ind.values[diagram.dart_region[dart_id(0, LEFT)]] == ctx.arc_index[0] + 1


@pytest.mark.parametrize("cfg", [CFG, CFG.halved()], ids=["default", "halved"])
def test_the_base_face_check_equals_the_index_function_reference(monkeypatch, cfg):
    # the context's check, that the base's face has index 0 by the arc
    # indices, accepts each base face and refuses each flipped one, as the
    # reference does
    cases = [(fx.curve, fx.base_point) for fx in map(parametric_fixture, PARAMETRIC_NAMES)]
    cases += list(side_probe_cases("specs"))
    assert len(cases) == 4 + 192
    contexts = [NumericContext(curve, base_point, cfg) for curve, base_point in cases]
    flip_the_base_face(monkeypatch)
    for ctx in contexts:
        assert base_face_reference(ctx, ctx.base_dart)
        assert not base_face_reference(ctx, ctx.base_dart ^ 1)
        with pytest.raises(TopologyError, match="base point's face disagrees"):
            NumericContext(ctx.curve, ctx.base_point, cfg).extracted


# the five numeric entry points, each called with (curve, base point, config,
# context)
ENTRY_POINTS = {
    "numeric_iq": lambda c, b, cfg, ctx: numeric_iq(c, b, [0.5, 1.0, 2.0], cfg, context=ctx),
    "numeric_i1": lambda c, b, cfg, ctx: numeric_i1(c, b, cfg, context=ctx),
    "numeric_jplus": lambda c, b, cfg, ctx: numeric_jplus(c, b, cfg, context=ctx),
    "extract_diagram": lambda c, b, cfg, ctx: extract_diagram(c, b, cfg, context=ctx),
    "gauss_bonnet_region_check": lambda c, b, cfg, ctx: gauss_bonnet_region_check(
        c, b, Fraction(1, 2), cfg, context=ctx),
}
NORTH = (0.0, 0.0, 1.0)


def other_pole():   # (curve, base point, config, context of another base point)
    curve = LatitudeCircle(1.0)
    return curve, NORTH, CFG, NumericContext(curve, SOUTH, CFG)


def other_torus_face():   # the circle's centre against a base outside it
    curve = TorusCircle(0.2)
    return curve, (0.5, 0.5), CFG, NumericContext(curve, (0.05, 0.05), CFG)


def other_grid():
    curve = SphereFigureEight()
    return curve, (-1.0, 0.0, 0.0), CFG.halved(), NumericContext(curve, (-1.0, 0.0, 0.0), CFG)


def other_curve():   # an equal curve, but not the context's
    return LatitudeCircle(1.0), SOUTH, CFG, NumericContext(LatitudeCircle(1.0), SOUTH, CFG)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("mismatch", [other_pole, other_torus_face, other_grid, other_curve])
def test_a_context_of_another_base_point_grid_or_curve_is_refused(entry, mismatch):
    # answered for the context's own base, the north pole of
    # LatitudeCircle(1.0) would read I_2 = 1.414 (-0.707 is right) and base
    # region 1 (0 is right) from the south pole's context
    curve, base_point, cfg, ctx = mismatch()
    with pytest.raises(ValueError, match="the context is not that of this curve"):
        ENTRY_POINTS[entry](curve, base_point, cfg, ctx)


def outcome(call):
    """call's result, or ChiZero if it raises that (J+ on the torus)."""
    try:
        return call()
    except ChiZero as exc:
        return type(exc)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("curve,base_point,given", [
    (LatitudeCircle(1.0), SOUTH, None),
    (LatitudeCircle(1.0), NORTH, "own array"),
    (SphereFigureEight(), (-1.0, 0.0, 0.0), [-1.0, 0.0, 0.0]),
    (TorusCircle(0.2), (0.05, 0.05), (1.05, 0.05)),   # 1.05 % 1 is 0.05 + 4e-17
], ids=["none", "own-array", "list", "torus-shifted"])
@pytest.mark.parametrize("cfg", [CFG, None], ids=["cfg", "no-cfg"])
def test_a_context_answers_for_its_own_base_point_given_in_any_form(entry, curve, base_point,
                                                                     given, cfg):
    # each answer is the one a new context of the point as given reads
    ctx = NumericContext(curve, base_point, CFG)
    if isinstance(given, str):
        given = ctx.base_point
    call = ENTRY_POINTS[entry]
    want = outcome(lambda: call(curve, base_point, CFG, None))
    assert outcome(lambda: call(curve, given, cfg, ctx)) == want
    if given is not None:
        assert outcome(lambda: call(curve, given, CFG, None)) == want


def test_extraction_is_the_contexts_one_pair():
    curve = SphereFigureEight()
    ctx = NumericContext(curve, (-1.0, 0.0, 0.0), CFG)
    first = extract_diagram(curve, (-1.0, 0.0, 0.0), CFG, context=ctx)
    assert first is ctx.extracted
    assert extract_diagram(curve, None, context=ctx) is first is ctx.extracted


def test_gauss_bonnet_refuses_a_pair_extracted_for_another_base_point():
    # the north pole's pair has another base region: its profile is not the
    # south pole's
    curve = LatitudeCircle(1.0)
    ctx, north = NumericContext(curve, SOUTH, CFG), NumericContext(curve, NORTH, CFG)
    extracted = extract_diagram(curve, NORTH, CFG, context=north)
    assert extracted[1] != ctx.extracted[1]
    with pytest.raises(ValueError, match="not the context's own"):
        gauss_bonnet_region_check(curve, SOUTH, Fraction(1, 2), CFG, context=ctx,
                                  extracted=extracted)
    assert gauss_bonnet_region_check(curve, SOUTH, Fraction(1, 2), CFG, context=ctx,
                                     extracted=ctx.extracted) == \
        gauss_bonnet_region_check(curve, SOUTH, Fraction(1, 2), CFG, context=ctx)


@pytest.mark.parametrize("cfg", [CFG, CFG.halved()], ids=["default", "halved"])
def test_the_profiles_levels_are_those_next_to_each_index_value(cfg):
    # curveinv numeric checks Gauss-Bonnet at sorted(ctx.profile.a_j): the
    # levels 2v -+ 1 of the index values v, which include the base's 0 and
    # run without a gap
    cases = [(fx.curve, fx.base_point) for fx in map(parametric_fixture, PARAMETRIC_NAMES)]
    cases += list(side_probe_cases("specs"))
    assert len(cases) == 4 + 192
    for curve, base_point in cases:
        ctx = NumericContext(curve, base_point, cfg)
        ind = index_function(*ctx.extracted)
        assert sorted(ctx.profile.a_j) == sorted(
            {2 * int(v) + s for v in ind.values.values() for s in (-1, 1)})


@pytest.mark.parametrize("curve,base_point,value", [
    (TorusCircle(1e-160), (0.05, 0.05), "inf"),   # |v|^3 underflows to 0
    (LatitudeCircle(1e-300), SOUTH, "nan"),       # and so does det(x, v, a)
], ids=["torus", "latitude"])
def test_an_arc_integral_that_is_not_finite_is_a_topology_error(curve, base_point, value):
    # the integrand's 0 denominators warn nothing: the integral is checked
    with pytest.raises(TopologyError, match=rf"^arc 0: the integral of k_g ds is {value}$"):
        NumericContext(curve, base_point, CFG)


AREA_CHECK = "index level .* has area"
FACE_CHECK = "base point's face disagrees with the arc indices"


@pytest.mark.parametrize("curve,base_point,check", [
    (LatitudeCircle(ALPHA), SOUTH, AREA_CHECK),                 # the base is the anchor
    (SphereFigureEight(), (-1.0, 0.0, 0.0), AREA_CHECK),        # the base is the anchor
    (LatitudeCircle(ALPHA), (0.6, 0.0, -0.8), FACE_CHECK),
    (TorusCircle(0.2), (0.05, 0.05), FACE_CHECK),
])
def test_a_base_face_misread_by_a_new_context_is_a_topology_error(monkeypatch, curve,
                                                                   base_point, check):
    # the arc indices rest on the anchor's index and face.  A base point
    # elsewhere is read against them; a base at the sphere's pole is the
    # anchor, whose level areas then disagree with its winding number
    face_dart = geometry._face_dart

    def misread(ctx, points, names):
        return [d ^ (np.asarray(p, dtype=float).tolist() == list(base_point))
                for d, p in zip(face_dart(ctx, points, names), points)]

    monkeypatch.setattr(geometry, "_face_dart", misread)
    with pytest.raises(TopologyError, match=check):
        extract_diagram(curve, base_point, context=NumericContext(curve, base_point, CFG))
