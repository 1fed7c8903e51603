"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them); a
failure of any assertion marks the criterion FAIL.
"""

import math
import random
from fractions import Fraction

import pytest

from curveinv import laurent
from curveinv.diagram import (
    canonicalize,
    euler_moments,
    index_function,
    parse_diagram,
)
from curveinv.errors import ChiZero, PlanInvalid
from curveinv.geometry import (
    NumericConfig,
    NumericContext,
    extract_diagram,
    gauss_bonnet_region_check,
    numeric_i1,
    numeric_iq,
    numeric_jplus,
)
from curveinv.invariants import (
    change_base,
    full_report,
    iq_euler,
    iq_rational_eval,
    iq_topological,
    jplus,
    report_ingredients,
    viro_jminus,
)
from curveinv.catalog import parametric_fixture
from curveinv.laurent import HalfLaurent
from curveinv.moves import (
    bigon_death,
    birth_site,
    find_bigons,
    find_triangles,
    tangency_birth,
    triple_move,
)

Q_HALF = HalfLaurent({1: 1})
NUMERIC_CFG = NumericConfig()   # the default grid


@pytest.fixture(scope="module")
def numeric_fixtures():
    """Contexts and extracted diagrams for the parametric fixtures."""
    out = {}
    for name, kwargs in (
        ("circle_torus", {"rho": 0.2}),
        ("latitude", {"alpha": math.pi / 3}),
        ("great_circle", {}),
        ("figure8_sphere_param", {}),
    ):
        fx = parametric_fixture(name, **kwargs)
        ctx = NumericContext(fx.curve, fx.base_point, NUMERIC_CFG)
        extracted = extract_diagram(fx.curve, fx.base_point, NUMERIC_CFG, context=ctx)
        out[name] = (fx, ctx, extracted, full_report(*extracted))
    return out


def test_criterion_1_exact_fixture_values(fixtures):
    rep = full_report(fixtures["circle_sphere"])
    assert rep.iq == Q_HALF
    assert rep.rotation == (1, 2)
    assert rep.jplus == rep.jminus == rep.sjplus == Fraction(1, 2)

    rep8 = full_report(fixtures["figure8_sphere"])
    assert rep8.iq == HalfLaurent({1: Fraction(1, 2), -1: Fraction(-1, 2)})
    assert rep8.i1 == 0 and rep8.i1_prime == Fraction(1, 2)
    assert rep8.rotation == (0, 2)
    assert (rep8.jplus, rep8.jminus, rep8.sjplus) == (0, -1, 0)

    rept = full_report(fixtures["circle_torus"])
    assert rept.iq == Q_HALF
    assert rept.rotation == (1, 0)
    assert rept.jplus is None and rept.jplus_reason == "chi_zero"
    with pytest.raises(ChiZero):
        jplus(rept.i1, rept.i1_prime, 0)

    # base moved into the +1 loop: the index function drops by 1 (C = -1)
    d8 = fixtures["figure8_sphere"]
    ind = index_function(d8, d8.base_region)
    plus_loop = next(r for r, v in ind.values.items() if v == 1)
    moved = full_report(d8, plus_loop)
    assert moved.iq == HalfLaurent({-1: Fraction(-3, 2), -3: Fraction(-1, 2)})
    assert moved.iq == change_base(rep8.iq, -1, 2)
    assert moved.jplus == 0
    print("\nACCEPTANCE 1 (exact fixture values): PASS")


def test_criterion_2_cross_formula_equality(fixtures, random_corpus):
    diagrams = [fixtures[k] for k in
                ("circle_sphere", "figure8_sphere", "circle_torus")]
    diagrams += random_corpus
    assert len(random_corpus) >= 200
    for d in diagrams:
        for base in range(len(d.regions)):
            _ind, prof, sm = report_ingredients(d, base)
            a = iq_topological(prof)
            b = iq_euler(sm, prof.crossing_indices)
            assert a == b
            if d.surface_chi != 0:
                m1, _ = euler_moments(sm)
                i1 = laurent.value_at_1(a)
                i1p = laurent.derivative_at_1(a)
                jp = jplus(i1, i1p, d.surface_chi)
                assert viro_jminus(sm, m1, d.surface_chi) == jp - d.n
    print("\nACCEPTANCE 2 (cross-formula equality, "
          f"{len(diagrams)} diagrams x all bases): PASS")


def test_criterion_3_identity_suite(fixtures, random_corpus):
    diagrams = [fixtures[k] for k in
                ("circle_sphere", "figure8_sphere", "circle_torus")]
    diagrams += random_corpus
    for d in diagrams:
        ind0 = index_function(d, 0)
        iq_by_base = {}
        for base in range(len(d.regions)):
            _ind, prof, sm = report_ingredients(d, base)
            iq = iq_topological(prof)
            iq_by_base[base] = iq
            m1, m2 = euler_moments(sm)
            assert laurent.value_at_1(iq) == m1
            assert laurent.value_at_1(iq).denominator == 1
            assert laurent.derivative_at_1(iq) == Fraction(-d.n, 2) + Fraction(m2, 2)
            assert sum(sm.level_chi.values()) == d.surface_chi
        if d.surface_chi != 0:
            jps = {
                jplus(laurent.value_at_1(iq), laurent.derivative_at_1(iq),
                      d.surface_chi)
                for iq in iq_by_base.values()
            }
            assert len(jps) == 1
        # base-change law over all base pairs
        inds = {b: index_function(d, b) for b in range(len(d.regions))}
        for b1 in range(len(d.regions)):
            for b2 in range(len(d.regions)):
                c = inds[b1].values[b2]   # ind_b2 = ind_b1 - ind_b1(b2)
                assert iq_by_base[b2] == change_base(
                    iq_by_base[b1], int(-c), d.surface_chi
                )
    print(f"\nACCEPTANCE 3 (identity suite, {len(diagrams)} diagrams): PASS")


def test_criterion_4_move_laws(random_corpus):
    rng = random.Random(12345)
    births_direct = births_opposite = triples = 0
    for d in random_corpus:
        if d.surface_chi == 0:
            continue
        before = full_report(d)
        disks = [rid for rid, r in enumerate(d.regions)
                 if r.genus == 0 and len(r.cycles) == 1]
        moves = []
        for rid in disks[:2]:
            cycle = d.cycles[d.regions[rid].cycles[0]]
            dart = rng.choice(cycle)
            moves.append(("opposite", birth_site(
                rid, (dart, Fraction(1, 3)), (dart, Fraction(2, 3)), "opposite")))
            for other in cycle:
                moves.append(("direct", birth_site(
                    rid, (dart, Fraction(1, 2)), (other, Fraction(1, 2)), "direct")))
        for kind, site in moves:
            try:
                born = tangency_birth(d, site)
            except PlanInvalid:
                continue
            after = full_report(born)
            jump = 2 if kind == "direct" else 0
            assert after.jplus - before.jplus == jump
            m = before.rotation[1]
            if m:
                assert (after.rotation[0] - before.rotation[0]) % m == 0
            else:
                assert after.rotation[0] == before.rotation[0]
            lens = [s for s in find_bigons(born)
                    if s.region == len(born.regions) - 1]
            assert lens and lens[0].kind == f"bigon_{kind}"
            back = bigon_death(born, lens[0])
            assert canonicalize(back) == canonicalize(d)
            if kind == "direct":
                births_direct += 1
            else:
                births_opposite += 1
        for site in find_triangles(d)[:2]:
            after = full_report(triple_move(d, site))
            assert after.jplus == before.jplus
            m = before.rotation[1]
            if m:
                assert (after.rotation[0] - before.rotation[0]) % m == 0
            else:
                assert after.rotation[0] == before.rotation[0]
            triples += 1
    total = births_direct + births_opposite + triples
    assert total >= 200
    assert births_direct >= 30 and births_opposite >= 30 and triples >= 30
    print(f"\nACCEPTANCE 4 (move laws: {births_direct} direct births, "
          f"{births_opposite} opposite births, {triples} triple moves): PASS")


def test_criterion_5_numeric_vs_exact(numeric_fixtures):
    tolerances = {
        "circle_torus": 1e-6,
        "latitude": 1e-10,
        "great_circle": 1e-10,
        "figure8_sphere_param": 1e-10,
    }
    for name, tol in tolerances.items():
        fx, ctx, _extracted, rep = numeric_fixtures[name]
        for q in (0.5, 2.0, 3.0):
            numeric = numeric_iq(fx.curve, fx.base_point, [q],
                                 NUMERIC_CFG, context=ctx)[0]
            exact = laurent.eval_real(rep.iq, q)
            assert abs(numeric - exact) <= tol, (name, q)
        i1 = numeric_i1(fx.curve, fx.base_point, NUMERIC_CFG, context=ctx)
        assert abs(i1 - rep.i1) <= tol
        if fx.curve.surface.chi != 0:
            jp = numeric_jplus(fx.curve, fx.base_point, NUMERIC_CFG, context=ctx)
            assert abs(jp - float(rep.jplus)) <= 1e-10
    print("\nACCEPTANCE 5 (numeric vs exact at stated tolerances): PASS")


def test_criterion_6_per_level_gauss_bonnet(numeric_fixtures):
    checked = 0
    for name in ("latitude", "great_circle", "figure8_sphere_param"):
        fx, ctx, extracted, _rep = numeric_fixtures[name]
        diagram, base = extracted
        ind = index_function(diagram, base)
        levels = sorted({2 * int(v) + s
                         for v in ind.values.values() for s in (-1, 1)})
        for twice_j in levels:
            j = Fraction(twice_j, 2)
            lhs, rhs = gauss_bonnet_region_check(
                fx.curve, fx.base_point, j, NUMERIC_CFG,
                context=ctx, extracted=extracted,
            )
            if lhs == 0 and abs(rhs) < 1e-6:
                continue   # unoccupied level
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-2, (name, j)
            checked += 1
    assert checked >= 6
    print(f"\nACCEPTANCE 6 (per-level Gauss-Bonnet, {checked} levels): PASS")


def test_criterion_7_rational_shift(fixtures, random_corpus):
    rep = full_report(fixtures["figure8_sphere"])
    value = iq_rational_eval(rep.iq, Fraction(1, 2), 2, 4.0)
    assert abs(value - 17 / 6) <= 1e-9
    for d in random_corpus[::10]:
        r = full_report(d)
        for c in (-2, 1, 3):
            via_poly = laurent.eval_real(change_base(r.iq, c, d.surface_chi), 4.0)
            via_eval = iq_rational_eval(r.iq, c, d.surface_chi, 4.0)
            assert via_eval == pytest.approx(via_poly, rel=1e-12, abs=1e-12)
    print("\nACCEPTANCE 7 (rational-shift evaluation): PASS")
