"""The code's tables and the invariant report against reference copies of
the earlier per-visit and per-element code.

The references below are the exact path as it was before one pass over the
visits built the code's tables and the report read integer counts: the code
grouped its visits per label and `ref_rotation_prev` built sigma^{-1} in a
second loop over the visits; the crossing pass ran over every visit and
skipped second visits; the subsurface profile added one threshold per arc
and per crossing; the smoothed level chi were differences of a_j; each I_q
route added the spikes one crossing at a time; and I_1 and I_1' were
Fraction sums over the terms of I_q.

Inputs: both golden corpora at every base, the benchmark's walkers at their
plateau sizes (n = 96, 128 and 160 on genus 0, 1 and 2) at every fifth
base, and deep sphere diagrams grown to n = 128 and 256.  Every report must
equal the reference field by field, also in repr, or raise the same error.
The code tables are checked on the fuzz test's visit lists, corrupted ones
included, each giving the reference's tables or its LabelError message.
"""

import json
import random
import sys
from collections import defaultdict
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from test_fuzz import curve_tokens, random_visits

from curveinv import laurent
from curveinv.diagram import (
    SignedGaussCode,
    SmoothedProfile,
    SubsurfaceProfile,
    arc_and_crossing_indices,
    euler_moments,
    index_function,
    parse_diagram,
    serialize_diagram,
    smoothed_level_chi,
    subsurface_profile,
)
from curveinv.errors import CrossCheckFailed, CurveInvError, LabelError, TopologyError
from curveinv.invariants import (
    InvariantReport,
    full_report,
    iq_euler,
    iq_topological,
    jminus,
    jplus,
    rotation_number,
    sjplus,
    viro_jminus,
)
from curveinv.laurent import HalfLaurent

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.generators import PLATEAU, grow_deep, grow_walkers  # noqa: E402

# ---------------------------------------------------------------------------
# reference: the earlier per-visit and per-element code


def ref_code_tables(visits):
    """(partner, own, sigma^{-1}, crossing list) as two loops over the
    visits built them, or the LabelError of the first fault."""
    where = {}
    for k, (label, sign) in enumerate(visits):
        if sign not in (1, -1):
            raise LabelError(f"sign of crossing {label} must be +1 or -1")
        where.setdefault(label, []).append(k)
    partner = [0] * len(visits)
    own = [0] * len(visits)
    for label, ks in where.items():
        if len(ks) != 2:
            raise LabelError(f"crossing {label} appears {len(ks)} time(s), expected 2")
        p1, p2 = ks
        sign = visits[p1][1]
        if visits[p2][1] != sign:
            raise LabelError(f"crossing {label} has mismatched signs")
        partner[p1], partner[p2] = p2, p1
        own[p1], own[p2] = sign, -sign
    crossings = [(k, j) for k, j in enumerate(partner) if k < j]
    return (tuple(partner), tuple(own), tuple(ref_rotation_prev(partner, own)),
            tuple(crossings))


def ref_rotation_prev(partner, own):
    """sigma^{-1} over darts, one visit at a time."""
    darts = 2 * len(partner)
    prev = [0] * darts
    for k, (j, o) in enumerate(zip(partner, own)):
        out_j, in_j = 2 * j, (2 * j - 1) % darts
        if o > 0:
            prev[2 * k], prev[(2 * k - 1) % darts] = in_j, out_j
        else:
            prev[2 * k], prev[(2 * k - 1) % darts] = out_j, in_j
    return prev


def ref_arc_and_crossing_indices(diagram, ind):
    low = [ind.values[r] for r in diagram.dart_region[1::2]]
    crossing_idx = {}
    code = diagram.code
    for p1, (p2, (label, _sign)) in enumerate(zip(code.partner, code.visits)):
        if p2 < p1:
            continue
        a, b, c, d = low[p1 - 1] + 1, low[p2 - 1] + 1, low[p1], low[p2]
        i, rem = divmod(a + b + c + d, 4)
        if rem or (a - i) ** 2 + (b - i) ** 2 + (c - i) ** 2 + (d - i) ** 2 != 2:
            raise TopologyError(
                f"crossing {label} corners {sorted((a, b, c, d))} are not i-1,i,i,i+1")
        crossing_idx[label] = i
    return dict(enumerate(low)), crossing_idx


def ref_subsurface_profile(diagram, ind):
    arc_idx, crossing_idx = ref_arc_and_crossing_indices(diagram, ind)
    lo = min(min(ind.values.values()), 0)
    hi = max(max(ind.values.values()), 0)
    hist = [0] * (hi - lo + 2)
    for rid, (genus, cycles) in enumerate(diagram.regions):
        hist[ind.values[rid] - lo] += 2 - 2 * genus - len(cycles)
    if diagram.n > 0:
        for v in arc_idx.values():
            hist[v - lo] -= 1
        for i in crossing_idx.values():
            hist[i - 1 - lo] += 1
    chi_sj = [0] * len(hist)
    for k in range(len(hist) - 2, -1, -1):
        chi_sj[k] = chi_sj[k + 1] + hist[k]
    a_j = {}
    for k, chi in enumerate(chi_sj):
        twice_j = 2 * (lo + k) - 1
        a_j[twice_j] = chi - (diagram.surface_chi if twice_j < 0 else 0)
    bins = {lo + k: hist[k] for k in range(hi - lo + 1)}
    return SubsurfaceProfile(a_j=a_j, bins=bins,
                             crossing_indices=tuple(sorted(crossing_idx.values())),
                             surface_chi=diagram.surface_chi)


def ref_spike_halves(crossing_indices):
    halves = defaultdict(int)
    for i in crossing_indices:
        halves[2 * i + 1] -= 1
        halves[2 * i - 1] += 1
    return halves


def ref_smoothed_level_chi(profile):
    """The level chi as differences of a_j, a_{i-1/2} - a_{i+1/2} plus
    chi(S) at i = 0, as smoothed_level_chi derived them before it read the
    profile's bins."""
    twice = sorted(profile.a_j)
    levels = {}
    for i in range((twice[0] + 1) // 2, (twice[-1] - 1) // 2 + 1):
        levels[i] = profile.a_j.get(2 * i - 1, 0) - profile.a_j.get(2 * i + 1, 0)
        if i == 0:
            levels[i] += profile.surface_chi
    if sum(levels.values()) != profile.surface_chi:
        raise TopologyError("smoothed level chis do not telescope to chi(S)")
    return SmoothedProfile(level_chi=levels, surface_chi=profile.surface_chi)


def ref_from_halves(halves):
    return HalfLaurent({e: Fraction(c, 2) for e, c in halves.items() if c})


def ref_iq_topological(profile):
    halves = ref_spike_halves(profile.crossing_indices)
    for twice_j, a in profile.a_j.items():
        halves[twice_j] += 2 * a
    return ref_from_halves(halves)


def ref_iq_euler(smoothed, crossing_indices):
    halves = ref_spike_halves(crossing_indices)
    levels = smoothed.level_chi
    total = sum(levels.values())
    below = 0
    for k in range(min([0, *levels]), max([0, *levels])):
        below += levels.get(k, 0)
        halves[2 * k + 1] += 2 * (total - below if k >= 0 else -below)
    return ref_from_halves(halves)


def ref_full_report(diagram, base_region):
    ind = index_function(diagram, base_region)
    profile = ref_subsurface_profile(diagram, ind)
    smoothed = ref_smoothed_level_chi(profile)
    iq = ref_iq_topological(profile)
    iq2 = ref_iq_euler(smoothed, profile.crossing_indices)
    if iq != iq2:
        raise CrossCheckFailed("I_q topological vs euler", iq, iq2, serialize_diagram(diagram))
    m1, m2 = euler_moments(smoothed)
    i1 = laurent.value_at_1(iq)
    i1p = laurent.derivative_at_1(iq)
    n = diagram.n
    if i1 != m1:
        raise CrossCheckFailed("I_1 vs Euler moment m1", i1, m1, serialize_diagram(diagram))
    i1p_moments = Fraction(-n, 1) / 2 + Fraction(m2, 2)
    if i1p != i1p_moments:
        raise CrossCheckFailed("I_1' vs -n/2 + m2/2", i1p, i1p_moments,
                               serialize_diagram(diagram))
    chi_s = diagram.surface_chi
    jp = jm = sj = None
    jp_reason = sj_reason = None
    if chi_s == 0:
        jp_reason = sj_reason = "chi_zero"
    else:
        jp = jplus(i1, i1p, chi_s)
        jm = jminus(jp, n)
        jm_viro = viro_jminus(smoothed, m1, chi_s)
        if jm_viro != jm:
            raise CrossCheckFailed("J- Viro vs J+ - n", jm_viro, jm, serialize_diagram(diagram))
        if chi_s == 2:
            sj = sjplus(jp, chi_s)
        else:
            sj_reason = "not_sphere"
    return InvariantReport(
        iq=iq, i1=int(i1), i1_prime=i1p, rotation=rotation_number(i1, chi_s),
        jplus=jp, jminus=jm, sjplus=sj, jplus_reason=jp_reason, sjplus_reason=sj_reason,
        crossing_count=n, chi_s=chi_s, base_region=base_region,
    )


# ---------------------------------------------------------------------------
# comparisons


def outcome(fn, *args):
    try:
        return fn(*args)
    except CurveInvError as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    assert got == want and repr(got) == repr(want)
    assert type(got) is type(want)


def assert_report_matches_reference(d, base):
    got, want = outcome(full_report, d, base), outcome(ref_full_report, d, base)
    if isinstance(want, tuple):
        assert got == want, (base, serialize_diagram(d))
        return
    for f in fields(InvariantReport):
        assert_same(getattr(got, f.name), getattr(want, f.name))
    assert got.iq.terms == want.iq.terms
    assert all(type(c) is Fraction for c in got.iq.terms.values())
    # the layers the report reads, one by one
    ind = index_function(d, base)
    assert_same(arc_and_crossing_indices(d, ind), ref_arc_and_crossing_indices(d, ind))
    profile, ref_profile = subsurface_profile(d, ind), ref_subsurface_profile(d, ind)
    assert_same(profile, ref_profile)
    smoothed = smoothed_level_chi(profile)
    assert_same(smoothed, ref_smoothed_level_chi(ref_profile))
    for got_iq, want_iq in ((iq_topological(profile), ref_iq_topological(profile)),
                            (iq_euler(smoothed, profile.crossing_indices),
                             ref_iq_euler(smoothed, profile.crossing_indices))):
        assert_same(got_iq, want_iq)
        assert got_iq.terms == want_iq.terms


DATA = Path(__file__).parent / "data"
GOLDEN = [
    parse_diagram(entry["text"])
    for name in ("golden_exact.json", "golden_moves.json")
    for entry in json.loads((DATA / name).read_text(encoding="utf-8"))["diagrams"]
]


def test_reports_match_reference_golden():
    bases = 0
    for d in GOLDEN:
        for base in range(len(d.regions)):
            assert_report_matches_reference(d, base)
            bases += 1
    assert bases > 500


def test_reports_match_reference_at_plateau_and_deep():
    walkers = [w.diagram for w in grow_walkers(random.Random("report-differential"))]
    assert [d.n for d in walkers] == list(PLATEAU.values())
    snaps, _, _ = grow_deep(random.Random(74), (128, 256))
    deep = [snaps[n][0] for n in (128, 256)]
    for d in walkers:
        for base in range(0, len(d.regions), 5):
            assert_report_matches_reference(d, base)
    for d in deep:
        for base in range(0, len(d.regions), 8):
            assert_report_matches_reference(d, base)


def assert_tables_match_reference(visits):
    visits = tuple(visits)
    try:
        want = ref_code_tables(visits)
    except LabelError as exc:
        with pytest.raises(LabelError) as got:
            SignedGaussCode(visits)
        assert str(got.value) == str(exc)
        return False
    code = SignedGaussCode(visits)
    got = (code.partner, code.own, code.rotation_prev, code.crossings)
    assert got == want and all(type(table) is tuple for table in got)
    assert code.crossing_positions() == {
        visits[k][0]: (k, j, visits[k][1]) for k, j in want[3]}
    return True


def token_visits(tokens):
    """The visits of curve tokens, reading a bad label or sign as it comes:
    the code, not the parser, must reject what is left."""
    visits = []
    for tok in " ".join(tokens).split():
        try:
            label = int(tok[:-1])
        except ValueError:
            label = tok[:-1]
        visits.append((label, {"+": 1, "-": -1}.get(tok[-1], tok[-1])))
    return visits


def test_code_tables_match_reference_on_fuzzed_visits():
    rng = random.Random(2015)
    accepted = rejected = 0
    for _ in range(3000):
        visits = random_visits(rng, rng.randrange(12))
        for vs in (visits, token_visits(curve_tokens(rng, visits))):
            if assert_tables_match_reference(vs):
                accepted += 1
            else:
                rejected += 1
    assert accepted >= 3000 and rejected >= 300


@pytest.mark.parametrize("visits", [
    ((1, 1), (1, 1), (1, 1)),                   # three visits
    ((1, 1), (2, 1), (1, 1)),                   # an unpaired label
    ((1, 1), (2, 1), (1, 1), (1, 1)),           # three visits and one: 2n visits
    ((1, 1), (2, -1), (1, -1), (2, -1)),        # mismatched signs
    ((1, 0), (1, 0)),                           # a sign that is not +-1
    ((1, 1), (2, 1), (2, 1), (1, 2)),           # bad sign on a second visit
    ((1, 1), (2, 2), (1, 1), (3, 1)),           # bad sign before a count fault
    ((2, 1), (1, 1), (1, -1), (2, 1), (2, 1)),  # mismatch before a count fault
    ((1, 1), (2, 1), (1, 1), (2, 1), (3, 1), (3, 1), (3, 1)),
    ((1, True), (1, 1)),
    ((1, 1.0), (2, -1), (2, -1.0), (1, 1)),
])
def test_code_tables_match_reference_on_edge_visits(visits):
    assert_tables_match_reference(visits)


def test_code_faults_of_malformed_visits_come_in_the_reference_order():
    # a bad sign before an unhashable label is named first, as before
    assert not assert_tables_match_reference(((1, 5), ([2], 1)))
    with pytest.raises(TypeError):
        SignedGaussCode(((1, 1), ([2], 1)))
    with pytest.raises(ValueError):
        SignedGaussCode(((1, 1), (1, 1, 1)))
