import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import curveinv.diagram as diagram_module
from curveinv import moves
from curveinv.diagram import (
    SignedGaussCode,
    build_diagram,
    canonicalize,
    dart_side,
    index_function,
    parse_diagram,
    serialize_diagram,
)
from curveinv.errors import (
    ExhaustedRetries,
    PlanInvalid,
    PlanRequired,
    SiteError,
)
from curveinv.invariants import change_base, full_report
from curveinv.moves import (
    MoveSite,
    SplitPlan,
    bigon_death,
    birth_site,
    find_bigons,
    find_triangles,
    random_diagram,
    tangency_birth,
    triple_move,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.generators import grow_walkers  # noqa: E402

UNREALIZABLE = "the tangency is not realizable in this region of the surface"


def disk_regions(diagram):
    out = []
    for rid, region in enumerate(diagram.regions):
        if region.genus == 0 and len(region.cycles) == 1:
            out.append(rid)
    return out


@pytest.fixture(scope="module")
def grown():
    """Diagrams on genus 0, 1 and 2 grown from the circle by seeded births
    and triple moves, two walks each."""
    return [w.diagram for seed in (1, 2)
            for w in grow_walkers(random.Random(seed), {0: 10, 1: 12, 2: 14})]


def scanned_sites(diagram, corners):
    """The region ids of the `corners`-corner sites, by the _disk test of
    every region: the reference for find_bigons and find_triangles."""
    return [rid for rid in range(len(diagram.regions))
            if moves._disk(diagram, rid, corners) is not None]


def make_birth(diagram, rid, kind, rng):
    """A random birth site inside a disk region."""
    region = diagram.regions[rid]
    cycle = diagram.cycles[region.cycles[0]]
    d1 = rng.choice(cycle)
    d2 = rng.choice(cycle)
    t1 = Fraction(rng.randrange(1, 10), 10)
    t2 = Fraction(rng.randrange(1, 10), 10)
    return birth_site(rid, (d1, t1), (d2, t2), kind)


# -- bigon detection ---------------------------------------------------------


def test_find_bigons_circle_empty(fixtures):
    assert find_bigons(fixtures["circle_sphere"]) == []


def test_figure8_has_no_bigons(fixtures):
    # its only 2-corner face has both corners at the same crossing
    assert find_bigons(fixtures["figure8_sphere"]) == []


def test_opposite_birth_then_detect(fixtures):
    circle = fixtures["circle_sphere"]
    site = birth_site(0, (0, Fraction(1, 4)), (0, Fraction(3, 4)), "opposite")
    born = tangency_birth(circle, site)
    bigons = find_bigons(born)
    assert len(bigons) == 1
    assert bigons[0].kind == "bigon_opposite"


def test_direct_birth_then_detect(fixtures):
    # direct tangencies need an interleaving-breaking crossing, so the
    # smallest host is the figure eight's two-corner disk region; the move
    # also creates further direct lenses against the old crossing, so we
    # check the created lens (the appended region) is detected
    fig8 = fixtures["figure8_sphere"]
    site = birth_site(0, (0, Fraction(1, 2)), (3, Fraction(1, 2)), "direct")
    born = tangency_birth(fig8, site)
    lens_region = len(born.regions) - 1
    bigons = {s.region: s.kind for s in find_bigons(born)}
    assert bigons[lens_region] == "bigon_direct"


# -- births ------------------------------------------------------------------


def test_direct_birth_impossible_on_embedded_circle(fixtures):
    circle = fixtures["circle_sphere"]
    for positions in (
        ((0, Fraction(1, 4)), (0, Fraction(3, 4))),
        ((0, Fraction(1, 10)), (0, Fraction(2, 5))),
    ):
        site = birth_site(0, *positions, "direct")
        with pytest.raises(PlanInvalid):
            tangency_birth(circle, site)


def test_disk_birth_tangency_is_fixed_by_the_dart_sides(fixtures, grown):
    """In a disk region a birth is direct exactly when its two darts lie on
    different sides.  Every ordered dart pair of every disk, at two fraction
    orders: the other tangency raises PlanInvalid, the rule's one succeeds."""
    rejected = accepted = 0
    for d in [*grown, *fixtures.values()]:
        for rid in disk_regions(d):
            cycle = d.cycles[d.regions[rid].cycles[0]]
            for (d1, d2), (t1, t2), kind in itertools.product(
                    itertools.product(cycle, repeat=2),
                    ((Fraction(1, 4), Fraction(3, 4)), (Fraction(3, 4), Fraction(1, 4))),
                    ("direct", "opposite")):
                site = birth_site(rid, (d1, t1), (d2, t2), kind)
                if (kind == "direct") == (dart_side(d1) == dart_side(d2)):
                    with pytest.raises(PlanInvalid, match=f"^{UNREALIZABLE}$"):
                        tangency_birth(d, site)
                    rejected += 1
                else:
                    assert tangency_birth(d, site).n == d.n + 2
                    accepted += 1
    assert rejected == accepted > 1000


def test_birth_jump_laws_on_fixtures(fixtures):
    fig8 = fixtures["figure8_sphere"]
    before = full_report(fig8)
    direct = tangency_birth(
        fig8, birth_site(0, (0, Fraction(1, 2)), (3, Fraction(1, 2)), "direct")
    )
    assert full_report(direct).jplus == before.jplus + 2

    opposite = tangency_birth(
        fig8, birth_site(0, (0, Fraction(1, 3)), (0, Fraction(2, 3)), "opposite")
    )
    assert full_report(opposite).jplus == before.jplus


def test_birth_positions_are_symmetric(fixtures):
    circle = fixtures["circle_sphere"]
    a = tangency_birth(
        circle, birth_site(0, (0, Fraction(1, 4)), (0, Fraction(3, 4)), "opposite")
    )
    b = tangency_birth(
        circle, birth_site(0, (0, Fraction(3, 4)), (0, Fraction(1, 4)), "opposite")
    )
    assert canonicalize(a) == canonicalize(b)


def test_birth_requires_plan_outside_disks(fixtures):
    torus = fixtures["circle_torus"]
    site = birth_site(1, (1, Fraction(1, 4)), (1, Fraction(3, 4)), "opposite")
    with pytest.raises(PlanRequired):
        tangency_birth(torus, site)


def test_birth_with_plan_in_genus_one_region(fixtures):
    torus = fixtures["circle_torus"]
    # opposite tangency splits the genus-1 region; the handle goes to one
    # piece, chosen by the plan
    for genera in ((0, 1), (1, 0)):
        plan = SplitPlan(pieces=((genera[0], frozenset()), (genera[1], frozenset())))
        site = birth_site(
            1, (1, Fraction(1, 4)), (1, Fraction(3, 4)), "opposite", plan
        )
        born = tangency_birth(torus, site)
        assert born.surface_chi == 0
        assert sorted(r.genus for r in born.regions) == [0, 0, 0, 1]
        handle = [r for r in born.regions if r.genus == 1]
        assert len(handle[0].cycles) == 1
        rep = full_report(born)
        assert rep.rotation == full_report(torus).rotation
    # a direct tangency there would carve its lens from the disk across the
    # curve, merging regions: not realizable on the fixed surface
    plan = SplitPlan(pieces=((0, frozenset()),))
    site = birth_site(1, (1, Fraction(1, 4)), (1, Fraction(3, 4)), "direct", plan)
    with pytest.raises(PlanInvalid):
        tangency_birth(torus, site)


def test_direct_birth_absorbed_by_handle(fixtures):
    # across the essential torus circle a direct tangency is carried by the
    # handle: the cut does not separate and the single piece loses no genus
    ess = fixtures["essential_torus_circle"]
    plan = SplitPlan(pieces=((0, frozenset()),))
    site = birth_site(0, (0, Fraction(1, 4)), (1, Fraction(1, 4)), "direct", plan)
    born = tangency_birth(ess, site)
    assert born.surface_chi == 0
    assert born.n == 2
    lens = [s for s in find_bigons(born) if s.region == len(born.regions) - 1]
    assert lens and lens[0].kind == "bigon_direct"
    back = bigon_death(born, lens[0])
    assert canonicalize(back) == canonicalize(ess)


def test_one_piece_births_around_a_handle_obey_the_laws(fixtures, grown):
    """A finger between two positions on one boundary cycle of a region of
    genus g >= 1, declared as one piece of genus g - 1 that owns both faces
    of the cut: as in a disk, the birth is direct exactly when the two darts
    lie on different sides.  It adds the lens and one boundary cycle to the
    region, moves J+ by 2 (direct) or 0 (opposite) when chi(S) != 0, keeps
    the rotation number, and the lens's death undoes it."""
    rng = random.Random(23)
    fraction = [Fraction(k, 10) for k in range(1, 10)]
    born_count = 0
    for d in [fixtures["circle_torus"], *grown]:
        before = full_report(d)
        for rid, region in enumerate(d.regions):
            if region.genus == 0:
                continue
            for c in region.cycles:
                plan = SplitPlan(((region.genus - 1, frozenset(region.cycles) - {c}),))
                for _ in range(16):
                    p1, p2 = ((rng.choice(d.cycles[c]), rng.choice(fraction)) for _ in "12")
                    move = "direct" if dart_side(p1[0]) != dart_side(p2[0]) else "opposite"
                    other = "opposite" if move == "direct" else "direct"
                    with pytest.raises(PlanInvalid, match=UNREALIZABLE):
                        tangency_birth(d, birth_site(rid, p1, p2, other, plan))
                    born = tangency_birth(d, birth_site(rid, p1, p2, move, plan))
                    assert born.n == d.n + 2
                    assert born.regions[rid] == (region.genus - 1, born.regions[rid].cycles)
                    assert len(born.regions[rid].cycles) == len(region.cycles) + 1
                    after = full_report(born)
                    if d.surface_chi:
                        assert after.jplus - before.jplus == (2 if move == "direct" else 0)
                    assert same_rotation(before, after)
                    lens = len(born.regions) - 1
                    assert canonicalize(bigon_death(born, lens)) == canonicalize(d)
                    born_count += 1
    assert born_count >= 80


def test_birth_rejects_wrong_plan(fixtures):
    torus = fixtures["circle_torus"]
    bad = SplitPlan(pieces=((0, frozenset()), (0, frozenset())))  # chi law fails
    site = birth_site(1, (1, Fraction(1, 4)), (1, Fraction(3, 4)), "opposite", bad)
    with pytest.raises(PlanInvalid):
        tangency_birth(torus, site)


def test_birth_rejects_base_piece_out_of_range(fixtures):
    torus = fixtures["circle_torus"]
    pieces = ((0, frozenset()), (1, frozenset()))
    for base_piece in (2, -1):
        plan = SplitPlan(pieces, base_piece=base_piece)
        site = birth_site(1, (1, Fraction(1, 4)), (1, Fraction(3, 4)),
                          "opposite", plan)
        with pytest.raises(PlanInvalid, match="base piece"):
            tangency_birth(torus, site)


def test_birth_site_errors(fixtures):
    circle = fixtures["circle_sphere"]
    with pytest.raises(SiteError):
        tangency_birth(
            circle, birth_site(0, (1, Fraction(1, 2)), (0, Fraction(1, 2)), "opposite")
        )  # dart 1 bounds region 1, not region 0
    with pytest.raises(SiteError):
        birth_site(0, (0, 0), (0, 0), "sideways")
    with pytest.raises(SiteError, match=r"walk fraction 2 of dart 0 is not in \(0, 1\)"):
        tangency_birth(
            circle, birth_site(0, (0, 2), (0, Fraction(3, 4)), "opposite")
        )  # a birth position lies inside its dart's walk


def test_birth_rejections(fixtures):
    torus = fixtures["circle_torus"]
    with pytest.raises(SiteError, match="^not a birth site: bigon_direct$"):
        tangency_birth(torus, MoveSite(kind="bigon_direct", region=1))
    with pytest.raises(SiteError, match="^region 99 does not exist$"):
        tangency_birth(torus, birth_site(99, (1, Fraction(1, 4)), (1, Fraction(3, 4)),
                                         "opposite"))
    for pieces, message in (
        (((0, ()), (0, ()), (0, ())), "a split plan must declare one or two pieces"),
        (((-1, ()), (1, ())), "piece genus must be nonnegative"),
        (((0, (5,)), (1, ())), r"plan must partition the untouched cycles \[\]"),
    ):
        site = birth_site(1, (1, Fraction(1, 4)), (1, Fraction(3, 4)), "opposite",
                          SplitPlan(pieces))
        with pytest.raises(PlanInvalid, match=f"^{message}$"):
            tangency_birth(torus, site)


@pytest.mark.parametrize("pieces", [((0.9, ()), (1, ())), (("0", ()), (1, ())),
                                    ((0, ()), (True, ()))])
def test_birth_rejects_a_piece_genus_that_is_not_an_int(fixtures, pieces):
    # int() would read 0.9 and "0" as genus 0 and True as genus 1, a plan
    # that goes ahead
    site = birth_site(1, (1, Fraction(1, 3)), (1, Fraction(2, 3)), "opposite",
                      SplitPlan(pieces))
    with pytest.raises(PlanInvalid, match="^piece genus must be nonnegative$"):
        tangency_birth(fixtures["circle_torus"], site)


# -- deaths ------------------------------------------------------------------


def test_death_restores_circle(fixtures):
    circle = fixtures["circle_sphere"]
    born = tangency_birth(
        circle, birth_site(0, (0, Fraction(1, 4)), (0, Fraction(3, 4)), "opposite")
    )
    back = bigon_death(born, find_bigons(born)[0])
    assert canonicalize(back) == canonicalize(circle)


def test_death_of_direct_lens_drops_jplus_by_two(fixtures):
    fig8 = fixtures["figure8_sphere"]
    born = tangency_birth(
        fig8, birth_site(0, (0, Fraction(1, 2)), (3, Fraction(1, 2)), "direct")
    )
    site = find_bigons(born)[0]
    dead = bigon_death(born, site)
    assert full_report(dead).jplus == full_report(born).jplus - 2
    assert canonicalize(dead) == canonicalize(fig8)


def test_death_requires_bigon(fixtures):
    with pytest.raises(SiteError):
        bigon_death(fixtures["figure8_sphere"], 0)


# -- triple moves ------------------------------------------------------------


def triple_host(fixtures):
    fig8 = fixtures["figure8_sphere"]
    return tangency_birth(
        fig8, birth_site(0, (0, Fraction(1, 2)), (3, Fraction(1, 2)), "direct")
    )


def test_triple_move_involution(fixtures):
    host = triple_host(fixtures)
    triangles = find_triangles(host)
    assert triangles
    for site in triangles:
        once = triple_move(host, site)
        twice = triple_move(once, site.region)
        assert canonicalize(twice) == canonicalize(host)


def test_triple_move_preserves_invariants(fixtures):
    host = triple_host(fixtures)
    before = full_report(host)
    for site in find_triangles(host):
        after = full_report(triple_move(host, site))
        assert after.jplus == before.jplus
        assert after.i1 == before.i1
        assert after.crossing_count == before.crossing_count


def test_triple_move_requires_triangle(fixtures):
    with pytest.raises(SiteError):
        triple_move(fixtures["figure8_sphere"], 0)


# -- tracing -----------------------------------------------------------------


def test_each_move_traces_once(fixtures, monkeypatch):
    """A parse, a build and a move each make one code in one pass, and the
    trace and bigon_death read sigma^{-1} from it without a second loop over
    its visits.  A move traces its new code once and assembles the diagram
    from it once, from that trace."""
    passes, scans = [], []
    post_init = SignedGaussCode.__post_init__

    class Scanned(tuple):
        """A code table that records each loop over it, as rebuilding
        sigma^{-1} from partner and own visit by visit would make."""

        def __iter__(self):
            scans.append("iter")
            return super().__iter__()

    def one_pass(code):
        post_init(code)
        passes.append(code)
        for name in ("partner", "own"):
            object.__setattr__(code, name, Scanned(getattr(code, name)))

    monkeypatch.setattr(SignedGaussCode, "__post_init__", one_pass)
    fig8, host = (parse_diagram(serialize_diagram(d))
                  for d in (fixtures["figure8_sphere"], triple_host(fixtures)))
    for make in (lambda: parse_diagram("curve 1+ 2- 1+ 2-\nbase 0\n"),
                 lambda: build_diagram(((1, 1), (1, 1)), base_region=1)):
        passes.clear()
        scans.clear()
        made = make()
        assert len(passes) == 1 and passes[0] is made.code and scans == []

    calls = []
    trace = diagram_module._trace
    for module in (diagram_module, moves):
        monkeypatch.setattr(module, "_trace",
                            lambda code: calls.append(code) or trace(code))
    public, walked = diagram_module.trace_boundary_cycles, []
    monkeypatch.setattr(diagram_module, "trace_boundary_cycles",
                        lambda code, **kw: walked.append(code) or public(code, **kw))
    assemble, assembled = diagram_module._assemble_diagram, []
    for module in (diagram_module, moves):
        monkeypatch.setattr(module, "_assemble_diagram", lambda code, *args:
                            assembled.append(code) or assemble(code, *args))
    counts = []
    for move, d, site in (
        (tangency_birth, fig8,
         birth_site(0, (0, Fraction(1, 3)), (0, Fraction(2, 3)), "opposite")),
        (bigon_death, host, find_bigons(host)[0]),
        (triple_move, host, find_triangles(host)[0]),
    ):
        calls.clear()
        walked.clear()
        assembled.clear()
        passes.clear()
        scans.clear()
        moved = move(d, site)
        counts.append((len(calls), len(assembled), len(passes)))
        assert walked == calls == assembled == [moved.code]
        assert passes[0] is moved.code and scans == []
    assert counts == [(1, 1, 1), (1, 1, 1), (1, 1, 1)]
    # the wrong tangency in a disk is rejected from the darts' sides alone
    calls.clear()
    with pytest.raises(PlanInvalid, match=f"^{UNREALIZABLE}$"):
        tangency_birth(fig8, birth_site(0, (0, Fraction(1, 3)), (0, Fraction(2, 3)),
                                        "direct"))
    assert calls == []


def test_each_move_checks_only_its_own_region(fixtures, monkeypatch):
    calls = []
    disk = moves._disk
    monkeypatch.setattr(moves, "_disk", lambda d, rid, corners:
                        calls.append((rid, corners)) or disk(d, rid, corners))
    host = triple_host(fixtures)
    bigon, triangle = find_bigons(host)[0], find_triangles(host)[0]
    calls.clear()
    bigon_death(host, bigon)
    triple_move(host, triangle)
    assert calls == [(bigon.region, 2), (triangle.region, 3)]


def test_move_sites_agree_with_the_finders(fixtures, random_corpus, grown):
    """The finders give the sites of the _disk scan over every region, and
    at every region id, and one past each end, a death or a triple move
    raises SiteError exactly where the finder has no site."""
    host = triple_host(fixtures)
    diagrams = [host, triple_move(host, find_triangles(host)[0]),
                *fixtures.values(), *random_corpus, *grown]
    for d in diagrams:
        for move, finder, corners in ((bigon_death, find_bigons, 2),
                                      (triple_move, find_triangles, 3)):
            sites = [s.region for s in finder(d)]
            assert sites == scanned_sites(d, corners)
            for rid in range(-1, len(d.regions) + 1):
                if rid in sites:
                    move(d, rid)
                else:
                    with pytest.raises(SiteError):
                        move(d, rid)


# -- random generator --------------------------------------------------------


def test_random_zero_crossings_is_circle(fixtures):
    d = random_diagram(0, 0, seed=5)
    # up to base choice this is the embedded circle on the sphere
    assert d.n == 0 and d.surface_chi == 2 and len(d.regions) == 2


def test_random_one_crossing_is_figure_eight(fixtures):
    d = random_diagram(1, 0, seed=5)
    fig8 = fixtures["figure8_sphere"]
    variants = {
        canonicalize(parse_diagram(f"curve 1{s} 1{s}\nbase {b}\n"))
        for s in "+-" for b in range(3)
    }
    assert canonicalize(d) in variants


def test_random_outputs_are_trivial(random_corpus):
    for d in random_corpus:
        index_function(d, d.base_region)   # must not raise


def test_random_deterministic():
    a = random_diagram(5, 2, seed=123)
    b = random_diagram(5, 2, seed=123)
    assert a == b
    assert random_diagram(5, 2, seed=124) != a


def test_random_exhausted_retries(monkeypatch):
    monkeypatch.setattr(moves, "RANDOM_TRIES", 1)
    with pytest.raises(ExhaustedRetries, match="found in 1 tries$"):
        random_diagram(5, 0, seed=0)


def same_rotation(before, after):
    """The rotation number of two reports agrees (mod |chi(S)| when chi != 0)."""
    m = before.rotation[1]
    if after.rotation[1] != m:
        return False
    if m:
        return (after.rotation[0] - before.rotation[0]) % m == 0
    return after.rotation[0] == before.rotation[0]


# -- randomized move campaign -------------------------------------------------


def test_move_campaign_jump_laws(random_corpus):
    """Births and triangle moves across the corpus obey the jump laws."""
    rng = random.Random(20240601)
    applied = 0
    for d in random_corpus[::3]:
        if d.surface_chi == 0:
            continue
        before = full_report(d)
        disks = disk_regions(d)
        if not disks:
            continue
        rid = rng.choice(disks)
        for kind, jump in (("opposite", 0), ("direct", 2)):
            site = make_birth(d, rid, kind, rng)
            try:
                born = tangency_birth(d, site)
            except PlanInvalid:
                continue
            after = full_report(born)
            assert after.jplus - before.jplus == jump
            assert same_rotation(before, after)
            # birth then death of the created lens is the identity
            lens = [s for s in find_bigons(born)
                    if s.region == len(born.regions) - 1]
            assert lens and lens[0].kind == f"bigon_{kind}"
            back = bigon_death(born, lens[0])
            assert canonicalize(back) == canonicalize(d)
            applied += 1
        for site in find_triangles(d)[:2]:
            after = full_report(triple_move(d, site))
            assert after.jplus == before.jplus
            assert same_rotation(before, after)
            if site.region != d.base_region:
                # away from the base the move is a regular homotopy of the
                # based curve, so the representative itself is unchanged
                assert after.i1 == before.i1
            else:
                # the strands sweep across a base point inside the triangle,
                # shifting its index; i1 moves by a multiple of chi(S)
                assert (after.i1 - before.i1) % d.surface_chi == 0
            applied += 1
    assert applied >= 40


@settings(max_examples=400, deadline=None)
@given(genus=st.integers(0, 2), data=st.data())
def test_grown_diagrams_obey_the_move_laws(genus, data):
    """From the embedded circle on a surface of genus 0, 1 or 2, up to 8
    births in disk regions and triple moves.  A disk's boundary walk keeps
    the disk on its left, so a birth between two darts on the same side is
    opposite and one between darts on different sides is direct; the other
    tangency is not realizable.  Each birth is undone by the death of its
    lens, moves J+ by 2 (direct) or 0 (opposite) when chi(S) != 0 and keeps
    the rotation number; I_q of the grown diagram obeys the base-change law
    for every pair of base regions."""
    d = parse_diagram(f"surface genus={genus}\ncurve -\nregion 0 genus=0 cycles=0\n"
                      f"region 1 genus={genus} cycles=1\nbase 0\n")
    fraction = st.integers(1, 9).map(lambda k: Fraction(k, 10))
    for move in data.draw(st.lists(st.sampled_from(["direct", "opposite", "triple"]),
                                   max_size=8)):
        before = full_report(d)
        if move == "triple":
            triangles = find_triangles(d)
            if triangles:
                d = triple_move(d, data.draw(st.sampled_from(triangles)))
                assert full_report(d).jplus == before.jplus
            continue
        rid = data.draw(st.sampled_from(disk_regions(d)))
        cycle = d.cycles[d.regions[rid].cycles[0]]
        d1 = data.draw(st.sampled_from(cycle))
        side = dart_side(d1) if move == "opposite" else 1 - dart_side(d1)
        partners = [x for x in cycle if dart_side(x) == side]
        if not partners:
            continue
        positions = (d1, data.draw(fraction)), (data.draw(st.sampled_from(partners)),
                                                data.draw(fraction))
        other = "direct" if move == "opposite" else "opposite"
        with pytest.raises(PlanInvalid):
            tangency_birth(d, birth_site(rid, *positions, other))
        born = tangency_birth(d, birth_site(rid, *positions, move))
        assert canonicalize(bigon_death(born, len(born.regions) - 1)) == canonicalize(d)
        after = full_report(born)
        if d.surface_chi:
            assert after.jplus - before.jplus == (2 if move == "direct" else 0)
        assert same_rotation(before, after)
        d = born
    iqs = [full_report(d, b).iq for b in range(len(d.regions))]
    for b1, iq in enumerate(iqs):
        ind = index_function(d, b1)
        for b2, iq2 in enumerate(iqs):
            assert iq2 == change_base(iq, -ind.values[b2], d.surface_chi)
