"""Exact outputs checked against a recorded golden corpus.

tests/data/golden_exact.json holds one entry per diagram, stored as
serialize_diagram text: the four diagram fixtures, random_diagram(n, g, 7)
for n <= 6 and g <= 2, and genus-0 diagrams grown by opposite births up to
n = 64.  Each entry records, for every base region, the full report (or the
name of the error it raises), the canonical form, and the serialized result
of every bigon death and triple move.  Refactors of the exact path must
reproduce all of it byte for byte.

tests/data/golden_moves.json holds seeded birth sites on the same diagrams
and on grown genus-1 and genus-2 diagrams (which also carry a full record),
with each birth's serialized result or error name and the death of its lens.
tests/data/record_golden_moves.py wrote it; both files were recorded with the
library as it was before the moves were rebuilt on one shared path.
golden_moves.json was recorded again when one-piece plans became able to
take both faces of a cut (a finger around a handle): only births of such
plans, rejected before, changed, and the results born from them were added.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from curveinv.catalog import DIAGRAM_FIXTURES
from curveinv.diagram import (
    canonicalize,
    index_function,
    parse_diagram,
    serialize_diagram,
    subsurface_chi,
    subsurface_profile,
)
from curveinv.errors import CurveInvError, HomologicallyNontrivial
from curveinv.invariants import full_report
from curveinv.moves import (
    SplitPlan,
    bigon_death,
    birth_site,
    find_bigons,
    find_triangles,
    random_diagram,
    tangency_birth,
    triple_move,
)

GOLDEN = Path(__file__).parent / "data" / "golden_exact.json"
ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))["diagrams"]
MOVES = json.loads(
    (GOLDEN.parent / "golden_moves.json").read_text(encoding="utf-8")
)["diagrams"]


def _str(value):
    return None if value is None else str(value)


def outcome(move, *args):
    """The serialized result of a move, or the name of its error."""
    try:
        return serialize_diagram(move(*args))
    except CurveInvError as exc:
        return type(exc).__name__


def birth_outcome(d, site):
    """A birth's outcome and, for a result, the outcome of its lens death."""
    try:
        born = tangency_birth(d, site)
    except CurveInvError as exc:
        return type(exc).__name__, None
    lens = [s for s in find_bigons(born) if s.region == len(born.regions) - 1]
    return serialize_diagram(born), outcome(bigon_death, born, lens[0]) if lens else None


def record(d):
    """Every exact output of one diagram, as JSON-ready values."""
    reports = []
    for base in range(len(d.regions)):
        try:
            rep = full_report(d, base)
        except CurveInvError as exc:
            reports.append({"error": type(exc).__name__})
            continue
        reports.append({
            "iq": str(rep.iq), "i1": rep.i1, "i1_prime": str(rep.i1_prime),
            "jplus": _str(rep.jplus), "jminus": _str(rep.jminus),
            "sjplus": _str(rep.sjplus), "error": None,
        })
    moves = []
    for site in find_bigons(d) + find_triangles(d):
        move = triple_move if site.kind == "triangle" else bigon_death
        moves.append([site.kind, site.region, outcome(move, d, site)])
    return {"reports": reports, "canonical": repr(canonicalize(d)), "moves": moves}


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_golden_exact_outputs(entry):
    d = parse_diagram(entry["text"])
    assert serialize_diagram(d) == entry["text"]
    assert record(d) == entry["record"]


@pytest.mark.parametrize("entry", MOVES, ids=[e["name"] for e in MOVES])
def test_golden_births_and_moves(entry):
    d = parse_diagram(entry["text"])
    for birth in entry["births"]:
        plan = birth["plan"]
        if plan is not None:
            plan = SplitPlan(tuple((g, frozenset(cs)) for g, cs in plan["pieces"]),
                             plan["base_piece"])
        site = birth_site(birth["region"], *birth["positions"],
                          birth["kind"][len("birth_"):], plan)
        assert birth_outcome(d, site) == (birth["result"], birth["death"]), birth
    if "record" in entry:
        assert record(d) == entry["record"]


def test_golden_sources_regenerate():
    """The fixture and random entries still come out of their sources."""
    for entry in ENTRIES:
        kind, _, rest = entry["name"].partition(":")
        if kind == "fixture":
            d = parse_diagram(DIAGRAM_FIXTURES[rest])
        elif kind == "random":
            n, genus = (int(x) for x in rest.split(","))
            d = random_diagram(n, genus, 7)
        else:
            continue
        assert serialize_diagram(d) == entry["text"], entry["name"]


def test_profile_matches_direct_formula(random_corpus):
    """The one-pass profile agrees with subsurface_chi at every stored level,
    and each bin is the drop of chi(S_j) across its level."""
    golden = [parse_diagram(entry["text"]) for entry in ENTRIES]
    for d in random_corpus + golden:
        try:
            ind = index_function(d, d.base_region)
        except HomologicallyNontrivial:
            continue
        prof = subsurface_profile(d, ind)
        for twice_j, a in prof.a_j.items():
            j = Fraction(twice_j, 2)
            expected = subsurface_chi(d, ind, j) - (d.surface_chi if j < 0 else 0)
            assert a == expected, (serialize_diagram(d), twice_j)
        for i, chi in prof.bins.items():
            drop = (subsurface_chi(d, ind, Fraction(2 * i - 1, 2))
                    - subsurface_chi(d, ind, Fraction(2 * i + 1, 2)))
            assert chi == drop, (serialize_diagram(d), i)
