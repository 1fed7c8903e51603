"""Record tests/data/golden_moves.json: seeded births and moves.

Run from the repository root:

    PYTHONPATH=src:. python tests/data/record_golden_moves.py

For every diagram of golden_exact.json, and for genus-1 and genus-2
diagrams grown by perfbench.generators.grow_walkers, it draws birth sites
from a seed fixed by the diagram's name: both kinds in disk regions, and in
non-disk regions with one- and two-piece split plans.  Each birth stores the
serialized result, or the name of the error it raises, and for a result the
death of its lens.  The grown diagrams also store the full golden record of
tests/test_golden.py (reports, canonical form, every bigon and triangle
move).  Birth results with a region of two or more cycles get births of
their own.  tests/test_golden.py replays the stored sites.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from curveinv.diagram import parse_diagram, serialize_diagram
from curveinv.moves import SplitPlan, birth_site

from perfbench.generators import grow_walkers

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parent))
from test_golden import birth_outcome, record  # noqa: E402

# (seed, {genus: crossings}) of each grown pair of walkers
GROWN = ((7, {1: 8, 2: 8}), (8, {1: 16, 2: 16}), (9, {1: 32, 2: 32}))


def _fraction(rng):
    return Fraction(rng.randrange(1, 16), 16)


def _plans(region, cut, rng):
    """One- and two-piece plans for a birth whose positions lie on the
    region's cycles `cut`: every genus split, the untouched cycles dealt
    out at random."""
    untouched = sorted(set(region.cycles) - cut)
    plans = [SplitPlan(((g, frozenset(untouched)),))
             for g in range(region.genus + 1)]
    for g in range(region.genus + 1):
        side = [c for c in untouched if rng.random() < 0.5]
        rest = [c for c in untouched if c not in side]
        plans.append(SplitPlan(((g, frozenset(side)),
                                (region.genus - g, frozenset(rest))),
                               base_piece=rng.randrange(2)))
    return plans


def _sites(d, rng):
    """Birth sites of one diagram: two draws of each kind in up to three
    disk regions, and in up to two non-disk regions both kinds with every
    plan of `_plans`, for positions on one cycle and (four draws) on two
    cycles."""
    disks, others = [], []
    for r, region in enumerate(d.regions):
        (disks if region.genus == 0 and len(region.cycles) == 1 else others).append(r)
    sites = []
    for r in rng.sample(disks, min(3, len(disks))):
        cycle = d.cycles[d.regions[r].cycles[0]]
        for kind in ("direct", "opposite", "direct", "opposite"):
            sites.append(birth_site(r, (rng.choice(cycle), _fraction(rng)),
                                    (rng.choice(cycle), _fraction(rng)), kind))
    for r in rng.sample(others, min(2, len(others))):
        region = d.regions[r]
        cycles = [d.cycles[c] for c in region.cycles]
        pairs = [(cycles[0], cycles[0])]
        if len(cycles) > 1:
            pairs += [tuple(rng.sample(cycles, 2)) for _ in range(4)]
        for first, second in pairs:
            for kind in ("direct", "opposite"):
                p1 = (rng.choice(first), _fraction(rng))
                p2 = (rng.choice(second), _fraction(rng))
                cut = {d.dart_cycle[p1[0]], d.dart_cycle[p2[0]]}
                for plan in _plans(region, cut, rng):
                    sites.append(birth_site(r, p1, p2, kind, plan))
    return sites


def _plan_json(plan):
    if plan is None:
        return None
    return {"pieces": [[g, sorted(cs)] for g, cs in plan.pieces],
            "base_piece": plan.base_piece}


def births(name, d):
    rng = random.Random(f"golden-births:{name}")
    out = []
    for site in _sites(d, rng):
        result, death = birth_outcome(d, site)
        out.append({
            "kind": site.kind, "region": site.region,
            "positions": [[dart, str(t)] for dart, t in site.positions],
            "plan": _plan_json(site.plan), "result": result, "death": death,
        })
    return out


def main():
    exact = json.loads((HERE / "golden_exact.json").read_text(encoding="utf-8"))
    entries = []
    for entry in exact["diagrams"]:
        d = parse_diagram(entry["text"])
        entries.append({"name": entry["name"], "text": entry["text"],
                        "births": births(entry["name"], d)})
    for seed, plateau in GROWN:
        for w in grow_walkers(random.Random(seed), plateau):
            d = w.diagram
            genus = (2 - d.surface_chi) // 2
            name = f"walk:{genus},{d.n},{seed}"
            entries.append({"name": name, "text": serialize_diagram(d),
                            "births": births(name, d), "record": record(d)})
    # births produce few regions with two or more cycles, where one-piece
    # plans apply: draw births again on each such result
    for entry in list(entries):
        for i, birth in enumerate(entry["births"]):
            if not birth["result"].startswith("surface"):
                continue
            d = parse_diagram(birth["result"])
            if max(len(region.cycles) for region in d.regions) > 1:
                name = f"born:{entry['name']}:{i}"
                entries.append({"name": name, "text": birth["result"],
                                "births": births(name, d)})
    text = json.dumps({"diagrams": entries}, indent=1, sort_keys=True) + "\n"
    (HERE / "golden_moves.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
