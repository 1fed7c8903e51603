"""Numeric outputs checked against a recorded golden corpus.

tests/data/golden_numeric.json holds, for each parametric fixture at the
default grid and at its halved() grid, the context's index tables (arc
lower sides, crossing indices and, under `fixed_index`, the index of the
sphere's pole, the anchor; none on the torus), the double-point signs, the
canonical form and base of the extracted diagram, and the float tables the
integrals read: level areas, arc geodesic-curvature integrals and I_q at
q = 0.5, 2, 3.  tests/data/record_golden_numeric.py wrote it.  Integers
must match exactly, floats within 1e-12 relative.
"""

import json
from pathlib import Path

import pytest

from curveinv.catalog import PARAMETRIC_NAMES, parametric_fixture
from curveinv.diagram import canonicalize
from curveinv.geometry import (
    UNIT_SPHERE,
    NumericConfig,
    NumericContext,
    extract_diagram,
    numeric_iq,
)

GOLDEN = Path(__file__).parent / "data" / "golden_numeric.json"
GRIDS = {"default": NumericConfig(), "halved": NumericConfig().halved()}
Q_VALUES = (0.5, 2.0, 3.0)


def record(name, grid):
    """The recorded numeric outputs of one fixture on one grid."""
    fx = parametric_fixture(name)
    ctx = NumericContext(fx.curve, fx.base_point, GRIDS[grid])
    diagram, base = extract_diagram(fx.curve, fx.base_point, context=ctx)
    return {
        "name": name, "grid": grid,
        "arc_index": list(ctx.arc_index),
        "crossing_index": list(ctx.crossing_index),
        # the index of the sphere's pole; the torus records none
        "fixed_index": [ctx.anchor_index] if fx.curve.surface is UNIT_SPHERE else [],
        "double_point_signs": [d.sign for d in ctx.double_points],
        "canonical": repr(canonicalize(diagram)),
        "base": base,
        "level_area": [[i, a] for i, a in ctx.level_area.items()],
        "arc_kg": list(ctx.arc_kg),
        "numeric_iq": numeric_iq(fx.curve, fx.base_point, Q_VALUES, context=ctx),
    }


def records():
    return [record(name, grid) for name in PARAMETRIC_NAMES for grid in GRIDS]


ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))["contexts"]


@pytest.mark.parametrize("entry", ENTRIES, ids=[f"{e['name']}:{e['grid']}" for e in ENTRIES])
def test_golden_numeric_outputs(entry):
    got = record(entry["name"], entry["grid"])
    assert set(got) == set(entry)
    for key in ("arc_index", "crossing_index", "fixed_index", "double_point_signs",
                "canonical", "base"):
        assert got[key] == entry[key], key
    assert [i for i, _ in got["level_area"]] == [i for i, _ in entry["level_area"]]
    for key, want in (("level_area", [a for _, a in entry["level_area"]]),
                      ("arc_kg", entry["arc_kg"]), ("numeric_iq", entry["numeric_iq"])):
        have = [a for _, a in got[key]] if key == "level_area" else got[key]
        assert have == pytest.approx(want, rel=1e-12, abs=1e-14), key


def test_golden_numeric_covers_every_fixture():
    assert {(e["name"], e["grid"]) for e in ENTRIES} == \
        {(name, grid) for name in PARAMETRIC_NAMES for grid in GRIDS}
