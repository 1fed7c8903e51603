import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from curveinv import invariants, laurent
from curveinv.cli import main
from curveinv.diagram import (
    SmoothedProfile,
    SubsurfaceProfile,
    euler_moments,
    index_function,
    parse_diagram,
)
from curveinv.errors import (
    ChiZero,
    CrossCheckFailed,
    HomologicallyNontrivial,
    NonPositiveQ,
    NotSphere,
    QOverflow,
    TopologyError,
)
from curveinv.invariants import (
    change_base,
    full_report,
    iq_euler,
    iq_rational_eval,
    iq_topological,
    jminus,
    jplus,
    report_ingredients,
    rotation_number,
    sjplus,
    viro_jminus,
)
from curveinv.laurent import HalfLaurent

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.generators import grow_deep  # noqa: E402


Q_HALF = HalfLaurent({1: 1})
FIG8_IQ = HalfLaurent({1: Fraction(1, 2), -1: Fraction(-1, 2)})


def ingredients(fixtures, name, base=None):
    d = fixtures[name]
    return d, report_ingredients(d, d.base_region if base is None else base)


def test_iq_topological_fixtures(fixtures):
    for name, expected in (
        ("circle_sphere", Q_HALF),
        ("figure8_sphere", FIG8_IQ),
        ("circle_torus", Q_HALF),
    ):
        _, (_ind, prof, _sm) = ingredients(fixtures, name)
        assert iq_topological(prof) == expected


def test_iq_euler_matches_everywhere(fixtures, random_corpus):
    diagrams = list(fixtures.values()) + random_corpus
    for d in diagrams:
        for base in range(len(d.regions)):
            try:
                _ind, prof, sm = report_ingredients(d, base)
            except Exception:
                continue
            assert iq_euler(sm, prof.crossing_indices) == iq_topological(prof)


def test_change_base_examples(fixtures):
    _, (_i, prof, _s) = ingredients(fixtures, "figure8_sphere")
    iq = iq_topological(prof)
    moved = change_base(iq, -1, 2)
    assert moved == HalfLaurent({-1: Fraction(-3, 2), -3: Fraction(-1, 2)})
    assert change_base(iq, 0, 2) == iq
    assert change_base(Q_HALF, 1, 2) == HalfLaurent({3: 1, 1: 2})


def test_change_base_matches_direct_recomputation(fixtures):
    d = fixtures["figure8_sphere"]
    ind0 = index_function(d, 0)
    _, prof0, _ = report_ingredients(d, 0)
    iq0 = iq_topological(prof0)
    for base in range(len(d.regions)):
        # ind w.r.t. the new base = old ind + C with C = -old-ind(new base)
        c = -ind0.values[base]
        _, profb, _ = report_ingredients(d, base)
        assert iq_topological(profb) == change_base(iq0, int(c), d.surface_chi)


def test_rotation_numbers(fixtures):
    reports = {name: full_report(d) for name, d in fixtures.items()
               if name != "essential_torus_circle"}
    assert reports["circle_sphere"].rotation == (1, 2)
    assert reports["figure8_sphere"].rotation == (0, 2)
    assert reports["circle_torus"].rotation == (1, 0)
    assert rotation_number(5, -2) == (5, 2)


def test_jplus_values(fixtures):
    assert jplus(1, Fraction(1, 2), 2) == Fraction(1, 2)
    assert jplus(0, Fraction(1, 2), 2) == 0
    with pytest.raises(ChiZero):
        jplus(1, Fraction(1, 2), 0)


def test_jminus_values():
    assert jminus(0, 1) == -1
    assert jminus(Fraction(1, 2), 0) == Fraction(1, 2)
    for jp, n in ((Fraction(5, 2), 3), (0, 0), (-2, 4)):
        assert jminus(jp, n) + n == jp


def test_viro_jminus(fixtures):
    _, (_i, prof, sm) = ingredients(fixtures, "figure8_sphere")
    m1, _ = euler_moments(sm)
    assert viro_jminus(sm, m1, 2) == -1

    _, (_i, prof, sm) = ingredients(fixtures, "circle_sphere")
    m1, _ = euler_moments(sm)
    assert viro_jminus(sm, m1, 2) == Fraction(1, 2)

    with pytest.raises(ChiZero):
        viro_jminus(sm, m1, 0)


def test_viro_cross_path(random_corpus):
    for d in random_corpus:
        if d.surface_chi == 0:
            continue
        rep = full_report(d)
        _, _, sm = report_ingredients(d, d.base_region)
        m1, _ = euler_moments(sm)
        assert viro_jminus(sm, m1, d.surface_chi) == rep.jplus - d.n


def test_sjplus(fixtures):
    assert sjplus(Fraction(1, 2), 2) == Fraction(1, 2)
    assert sjplus(0, 2) == 0
    with pytest.raises(NotSphere):
        sjplus(Fraction(1, 2), 0)
    with pytest.raises(NotSphere):
        sjplus(Fraction(1, 2), -2)


def test_iq_rational_eval(fixtures):
    d = fixtures["figure8_sphere"]
    rep = full_report(d)
    assert iq_rational_eval(rep.iq, 0, 2, 4.0) == pytest.approx(0.75, abs=1e-12)
    # the half-integer shift law: 2 * 0.75 + 2 * (2 - 1)/(2 - 1/2) = 17/6
    value = iq_rational_eval(rep.iq, Fraction(1, 2), 2, 4.0)
    assert value == pytest.approx(17 / 6, abs=1e-9)
    with pytest.raises(NonPositiveQ):
        iq_rational_eval(rep.iq, Fraction(1, 2), 2, 0.0)


def test_iq_rational_eval_names_a_q_whose_powers_overflow(fixtures):
    # a grown n = 64 diagram at its deepest base, where I_q reaches
    # q^(-65/2): at q = 1e-300 its powers overflow, and so does the shift
    # q^400 at q = 1e300; before, a bare OverflowError from both functions
    snaps, _, _ = grow_deep(random.Random("exact_deep:7"), {64})
    d, _ = snaps[64]
    rep = min((full_report(d, b) for b in range(len(d.regions))), key=lambda r: min(r.iq.terms))
    assert min(rep.iq.terms) <= -39
    for evaluate in (lambda q: laurent.eval_real(rep.iq, q),
                     lambda q: iq_rational_eval(rep.iq, 0, d.surface_chi, q)):
        with pytest.raises(QOverflow):
            evaluate(1e-300)
    with pytest.raises(QOverflow):
        iq_rational_eval(full_report(fixtures["figure8_sphere"]).iq, 400, 2, 1e300)


def test_iq_rational_eval_names_a_value_that_overflows():
    # every power of q is finite, but I_q's value at q = 1e300, or q^C times
    # a finite value at q = 1e200, is not; before, both gave inf
    with pytest.raises(QOverflow, match="the sum of the polynomial's terms overflows"):
        iq_rational_eval(HalfLaurent({2: 10**10}), 0, 2, 1e300)
    with pytest.raises(QOverflow) as exc:
        iq_rational_eval(HalfLaurent({2: 1}), 1, 2, 1e200)
    assert str(exc.value) == "q = 1e+200: the shifted value overflows a float"


@pytest.mark.parametrize("C,q,shown", [
    (10**400, 2.0, "C (C has 401 digits)"),
    (10**400, 0.5, "C (C has 401 digits)"),
    (Fraction(-10**400, 3), 2.0, "C (C has 401/1 digits)"),
    (400, 1e300, "400"),   # a short C is shown in full
])
def test_iq_rational_eval_names_a_huge_shift_briefly(C, q, shown):
    # before, C = 10**400 was printed in full, a 440-character message
    with pytest.raises(QOverflow) as exc:
        iq_rational_eval(HalfLaurent({2: 1}), C, 2, q)
    assert str(exc.value) == f"q = {q}: the shift q^{shown} overflows a float"
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("iq,C", [(HalfLaurent({2: 10**400}), 0), (HalfLaurent({2: 1}), 10**400)])
def test_iq_rational_eval_at_1_names_a_value_that_overflows(iq, C):
    # before, a bare OverflowError from the Fraction's conversion
    with pytest.raises(QOverflow) as exc:
        iq_rational_eval(iq, C, 2, 1.0)
    assert str(exc.value) == "q = 1.0: the value I_1 + C chi(S) overflows a float"


def test_iq_rational_eval_names_a_coefficient_that_overflows():
    with pytest.raises(QOverflow) as exc:
        iq_rational_eval(HalfLaurent({2: 10**400}), 0, 2, 2.0)
    assert str(exc.value) == "q = 2.0: the coefficient of q^1 overflows a float"


@pytest.mark.parametrize("q", [float("inf"), float("nan")])
def test_iq_rational_eval_rejects_a_q_that_is_not_finite(fixtures, q):
    rep = full_report(fixtures["figure8_sphere"])
    with pytest.raises(NonPositiveQ) as exc:
        iq_rational_eval(rep.iq, Fraction(1, 2), 2, q)
    assert str(exc.value) == f"q must be finite and positive, got {q}"


def test_iq_rational_eval_integer_shift_matches_change_base(random_corpus):
    for d in random_corpus[::11]:
        rep = full_report(d)
        for c in (-2, -1, 1, 3):
            via_poly = laurent.eval_real(
                change_base(rep.iq, c, d.surface_chi), 4.0
            )
            via_eval = iq_rational_eval(rep.iq, c, d.surface_chi, 4.0)
            assert via_eval == pytest.approx(via_poly, rel=1e-12, abs=1e-12)


def test_iq_rational_eval_q1_limit(fixtures):
    d = fixtures["figure8_sphere"]
    rep = full_report(d)
    assert iq_rational_eval(rep.iq, Fraction(1, 2), 2, 1.0) == pytest.approx(
        rep.i1 + 0.5 * 2, abs=1e-12
    )


def test_full_report_fixtures(fixtures):
    rep = full_report(fixtures["circle_sphere"])
    assert rep.iq == Q_HALF
    assert (rep.i1, rep.i1_prime) == (1, Fraction(1, 2))
    assert rep.rotation == (1, 2)
    assert rep.jplus == rep.jminus == rep.sjplus == Fraction(1, 2)

    rep = full_report(fixtures["figure8_sphere"])
    assert rep.iq == FIG8_IQ
    assert (rep.i1, rep.i1_prime) == (0, Fraction(1, 2))
    assert rep.rotation == (0, 2)
    assert (rep.jplus, rep.jminus, rep.sjplus) == (0, -1, 0)

    rep = full_report(fixtures["circle_torus"])
    assert rep.iq == Q_HALF
    assert rep.rotation == (1, 0)
    assert rep.jplus is None and rep.jplus_reason == "chi_zero"
    assert rep.sjplus is None


@pytest.mark.parametrize("base", [1.0, True])
def test_full_report_rejects_a_base_region_that_is_not_an_int(fixtures, base):
    # region 1 of the figure eight exists, and 1.0 and True compare equal to 1
    with pytest.raises(TopologyError, match=f"^base region {base} does not exist$"):
        full_report(fixtures["figure8_sphere"], base)


def test_report_invariant_relations(random_corpus):
    for d in random_corpus[::7]:
        rep = full_report(d)
        assert laurent.value_at_1(rep.iq) == rep.i1
        assert laurent.derivative_at_1(rep.iq) == rep.i1_prime
        if rep.jplus is not None:
            assert rep.jplus - rep.jminus == rep.crossing_count


def test_i1_prime_moment_identity(random_corpus):
    for d in random_corpus:
        rep = full_report(d)
        _, _, sm = report_ingredients(d, d.base_region)
        m1, m2 = euler_moments(sm)
        assert rep.i1 == m1
        assert rep.i1_prime == Fraction(-d.n, 2) + Fraction(m2, 2)


def test_base_change_coherence(random_corpus):
    for d in random_corpus[::9]:
        ind0 = index_function(d, 0)
        _, prof0, _ = report_ingredients(d, 0)
        iq0 = iq_topological(prof0)
        for base in range(1, len(d.regions)):
            c = -ind0.values[base]
            _, profb, _ = report_ingredients(d, base)
            assert iq_topological(profb) == change_base(iq0, int(c), d.surface_chi)


def test_jplus_base_independent(random_corpus):
    for d in random_corpus[::5]:
        if d.surface_chi == 0:
            continue
        values = {full_report(d, b).jplus for b in range(len(d.regions))}
        assert len(values) == 1


def test_i1_integer_and_half_integer_coefficients(random_corpus):
    for d in random_corpus:
        rep = full_report(d)
        assert laurent.value_at_1(rep.iq).denominator == 1
        assert all(c.denominator in (1, 2) for c in rep.iq.terms.values())


# -- one-pass routes against the repeated-add references --------------------


def iq_topological_reference(profile):
    """I_q by one laurent.add per crossing, as iq_topological built it
    before it kept integer numerators per exponent."""
    terms = {}
    for twice_j, a in profile.a_j.items():
        if a != 0:
            terms[twice_j] = terms.get(twice_j, Fraction(0)) + a
    out = HalfLaurent(terms)
    for i in profile.crossing_indices:
        spike = HalfLaurent({2 * i + 1: Fraction(-1, 2), 2 * i - 1: Fraction(1, 2)})
        out = laurent.add(out, spike)
    return out


def iq_euler_reference(smoothed, crossing_indices):
    """I_q by one laurent.add per crossing and one geom_div per level, as
    iq_euler built it before the suffix and prefix sums."""
    out = HalfLaurent.zero()
    for i in crossing_indices:
        spike = HalfLaurent({2 * i + 1: Fraction(-1, 2), 2 * i - 1: Fraction(1, 2)})
        out = laurent.add(out, spike)
    for i, chi in sorted(smoothed.level_chi.items()):
        if chi != 0:
            out = laurent.add(out, laurent.mul_monomial(laurent.geom_div(i), chi, 0))
    return out


def viro_jminus_reference(smoothed, m1, chi_s):
    """J- summed in Fractions, as viro_jminus computed it before."""
    c0 = -Fraction(int(m1), chi_s)
    total = Fraction(0)
    for i, chi in smoothed.level_chi.items():
        total += (i + c0) ** 2 * chi
    return 1 - total


def assert_same(got, want):
    assert got == want and repr(got) == repr(want)


def assert_routes_match_reference(d, base):
    try:
        _ind, prof, sm = report_ingredients(d, base)
    except HomologicallyNontrivial:
        return
    assert_same(iq_topological(prof), iq_topological_reference(prof))
    assert_same(iq_euler(sm, prof.crossing_indices),
                iq_euler_reference(sm, prof.crossing_indices))
    if d.surface_chi != 0:
        m1, _ = euler_moments(sm)
        assert_same(viro_jminus(sm, m1, d.surface_chi),
                    viro_jminus_reference(sm, m1, d.surface_chi))


DATA = Path(__file__).parent / "data"
GOLDEN = {
    entry["name"]: parse_diagram(entry["text"])
    for name in ("golden_exact.json", "golden_moves.json")
    for entry in json.loads((DATA / name).read_text(encoding="utf-8"))["diagrams"]
}


def test_routes_match_reference_golden():
    for d in GOLDEN.values():
        for base in range(len(d.regions)):
            assert_routes_match_reference(d, base)


def test_routes_match_reference_grown_deep():
    """Sphere diagrams grown by opposite births, n = 16 ... 256 with about
    n/2 levels.  Bases with the same index value give the same profile, so
    one base per value covers every base; above n = 64, about ten values
    spread from the lowest to the highest."""
    snaps, _, _ = grow_deep(random.Random(74), (16, 32, 64, 128, 256))
    assert sorted(snaps) == [16, 32, 64, 128, 256]
    for n, (d, _expected) in snaps.items():
        by_value = {v: r for r, v in index_function(d, 0).values.items()}
        values = sorted(by_value)
        if n > 64:
            values = values[::len(values) // 8] + values[-1:]
        for v in values:
            assert_routes_match_reference(d, by_value[v])


@settings(max_examples=200, deadline=None)
@given(
    crossings=st.lists(st.integers(-12, 12), max_size=24),
    lo=st.integers(-10, 10),
    chis=st.lists(st.integers(-6, 6), min_size=1, max_size=14),
    chi_s=st.sampled_from([2, 0, -2, -4]),
)
def test_routes_match_reference_property(crossings, lo, chis, chi_s):
    """Random crossing-index multisets against contiguous level windows
    lo .. lo + len(chis) - 1, read both as level_chi and as a_j."""
    crossings = tuple(sorted(crossings))
    levels = {lo + k: chi for k, chi in enumerate(chis)}
    smoothed = SmoothedProfile(level_chi=levels, surface_chi=chi_s)
    assert_same(iq_euler(smoothed, crossings), iq_euler_reference(smoothed, crossings))
    a_j = {2 * i - 1: chi for i, chi in levels.items()}
    profile = SubsurfaceProfile(a_j=a_j, bins=levels, crossing_indices=crossings,
                                surface_chi=chi_s)
    assert_same(iq_topological(profile), iq_topological_reference(profile))
    if chi_s != 0:
        m1, _ = euler_moments(smoothed)
        assert_same(viro_jminus(smoothed, m1, chi_s),
                    viro_jminus_reference(smoothed, m1, chi_s))


def test_base_change_law_grown_genus_1_and_2():
    """change_base from base 0 reproduces the direct I_q at every base of the
    grown genus-1 and genus-2 walks (n = 8 ... 32)."""
    walks = [d for name, d in GOLDEN.items() if name.startswith("walk:")]
    assert {d.surface_chi for d in walks} == {0, -2}
    for d in walks:
        ind0 = index_function(d, 0)
        iq0 = iq_topological(report_ingredients(d, 0)[1])
        for base in range(1, len(d.regions)):
            _, profb, _ = report_ingredients(d, base)
            c = -ind0.values[base]
            assert iq_topological(profb) == change_base(iq0, c, d.surface_chi)


# -- the two exact routes read separate inputs ------------------------------


def shift_level_chi(monkeypatch, level):
    """Make smoothed_level_chi move one unit of chi from `level` + 1 to
    `level`; the levels still telescope to chi(S), and the subsurface
    profile is left alone."""
    real = invariants.smoothed_level_chi

    def shifted(profile):
        sm = real(profile)
        levels = dict(sm.level_chi)
        levels[level] = levels.get(level, 0) + 1
        levels[level + 1] = levels.get(level + 1, 0) - 1
        return replace(sm, level_chi=levels)

    monkeypatch.setattr(invariants, "smoothed_level_chi", shifted)


@pytest.mark.parametrize("name", ["figure8_sphere", "grown:16", "walk:2,8,7"])
def test_shifted_level_chi_fails_cross_check(name, monkeypatch, fixtures):
    d = fixtures[name] if name in fixtures else GOLDEN[name]
    levels = sorted(report_ingredients(d, d.base_region)[2].level_chi)
    for level in levels[:-1]:
        with monkeypatch.context() as m:
            shift_level_chi(m, level)
            with pytest.raises(CrossCheckFailed) as info:
                full_report(d)
        assert info.value.what == "I_q topological vs euler"
    full_report(d)   # unpatched, the routes agree


@pytest.mark.parametrize("name", ["figure8_sphere", "grown:16", "walk:2,8,7"])
def test_moment_and_viro_checks_stay_hard_errors(name, monkeypatch, fixtures):
    """Shifted Euler moments fail the I_1 and I_1' checks, and a shifted
    Viro J- the J- check, each with the values it compared."""
    d = fixtures[name] if name in fixtures else GOLDEN[name]
    rep = full_report(d)
    real_moments, real_viro = invariants.euler_moments, invariants.viro_jminus
    m1, m2 = real_moments(report_ingredients(d, d.base_region)[2])
    for dm1, dm2, what, first, second in (
        (1, 0, "I_1 vs Euler moment m1", Fraction(rep.i1), m1 + 1),
        (0, 2, "I_1' vs -n/2 + m2/2", rep.i1_prime, rep.i1_prime + 1),
    ):
        with monkeypatch.context() as m:
            m.setattr(invariants, "euler_moments", lambda sm, dm1=dm1, dm2=dm2: tuple(
                map(sum, zip(real_moments(sm), (dm1, dm2)))))
            with pytest.raises(CrossCheckFailed) as info:
                full_report(d)
        got = info.value
        assert (got.what, got.first, got.second) == (what, first, second)
        assert type(got.first) is Fraction
    with monkeypatch.context() as m:
        m.setattr(invariants, "viro_jminus", lambda *args: real_viro(*args) + 1)
        with pytest.raises(CrossCheckFailed) as info:
            full_report(d)
    assert (info.value.what, info.value.first, info.value.second) == (
        "J- Viro vs J+ - n", rep.jminus + 1, rep.jminus)
    full_report(d)   # unpatched, every check passes


def test_shifted_level_chi_exits_3(monkeypatch, capsys):
    shift_level_chi(monkeypatch, 0)
    code = main(["invariant", "figure8_sphere"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: internal cross-check failed: I_q")
