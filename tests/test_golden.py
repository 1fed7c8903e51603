"""Exact outputs checked against a recorded golden corpus.

tests/data/golden_exact.json holds one entry per diagram, stored as
serialize_diagram text: the four diagram fixtures, random_diagram(n, g, 7)
for n <= 6 and g <= 2, and genus-0 diagrams grown by opposite births up to
n = 64.  Each entry records, for every base region, the full report (or the
name of the error it raises), the canonical form, and the serialized result
of every bigon death and triple move.  Refactors of the exact path must
reproduce all of it byte for byte.
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
    bigon_death,
    find_bigons,
    find_triangles,
    random_diagram,
    triple_move,
)

GOLDEN = Path(__file__).parent / "data" / "golden_exact.json"
ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))["diagrams"]


def _str(value):
    return None if value is None else str(value)


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
        try:
            result = serialize_diagram(move(d, site))
        except CurveInvError as exc:
            result = type(exc).__name__
        moves.append([site.kind, site.region, result])
    return {"reports": reports, "canonical": repr(canonicalize(d)), "moves": moves}


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_golden_exact_outputs(entry):
    d = parse_diagram(entry["text"])
    assert serialize_diagram(d) == entry["text"]
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
    """The one-pass profile agrees with subsurface_chi at every stored level."""
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
