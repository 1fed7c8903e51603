"""Seeded fuzzing of the diagram file format and everything that reads it.

Each text is built from a random signed Gauss code, sometimes corrupted,
with random `surface genus=`, region and `base` lines and stray tokens.  It
goes through parse_diagram, full_report at every base, canonicalize, and a
bigon death and a triple move at every region id (and one past each end).
Every step must end in a result or a CurveInvError, and the bigon and
triangle finders must give the sites of the _disk scan over every region.
"""

import random

from curveinv.diagram import (
    SignedGaussCode,
    canonicalize,
    parse_diagram,
    trace_boundary_cycles,
)
from curveinv.errors import CurveInvError
from curveinv.invariants import full_report
from curveinv.moves import _disk, bigon_death, find_bigons, find_triangles, triple_move

STRAY = ["", "   ", "# comment", "bogus", "curve", "region", "base", "surface",
         "surface genus=", "surface genus=x", "region 0", "region 0 genus=0",
         "region 0 genus=0 cycles=", "region 0 genus=0 cycles=0,,1",
         "region x genus=0 cycles=0", "base 0 1", "base x", "1+", "curve -"]


def random_visits(rng, n):
    slots = list(range(2 * n))
    rng.shuffle(slots)
    visits = [None] * (2 * n)
    for label in range(1, n + 1):
        sign = rng.choice((1, -1))
        visits[slots[2 * label - 2]] = visits[slots[2 * label - 1]] = (label, sign)
    return visits


def curve_tokens(rng, visits):
    """The curve line's tokens, corrupted one time in four."""
    tokens = [f"{label}{'+' if sign > 0 else '-'}" for label, sign in visits] or ["-"]
    if rng.random() < 0.25:
        k = rng.randrange(len(tokens))
        tokens[k] = rng.choice([tokens[k][:-1], tokens[k][:-1] + "*", "0+", "-3+",
                                "x+", tokens[k][:-1] + ("-" if tokens[k][-1] == "+" else "+"),
                                tokens[k] + " " + tokens[k], "+"])
    return tokens


def region_lines(rng, cycles, n):
    """Region lines grouping the traced cycles at random, and their chi(S).
    Mostly the first region takes the genus that keeps chi(S) at most 2;
    otherwise every genus is random, and now and then a cycle id is."""
    groups = [rng.randrange(rng.randint(1, cycles)) for _ in range(cycles)]
    members = [[c for c, g in enumerate(groups) if g == k] for k in sorted(set(groups))]
    if rng.random() < 0.7:
        genus = [0] * len(members)
        genus[0] = max(0, (2 * len(members) - cycles - n - 2) // 2)
    else:
        genus = [rng.choice([0, 0, 1, 2, -1]) for _ in members]
    if rng.random() < 0.05:
        members[0].append(rng.randrange(-1, cycles + 2))
    rids = rng.sample(range(10), len(members))
    lines = [f"region {rid} genus={g} cycles={','.join(map(str, cs))}"
             for rid, g, cs in zip(rids, genus, members)]
    chi = 2 * len(members) - 2 * sum(genus) - cycles - n
    return lines, rids, chi


def fuzz_text(rng):
    n = rng.randrange(7)
    visits = random_visits(rng, n)
    lines = ["curve " + " ".join(curve_tokens(rng, visits))]
    cycles = len(trace_boundary_cycles(SignedGaussCode(tuple(visits))))
    rids, chi = range(cycles), cycles - n
    if rng.random() < 0.4:
        more, rids, chi = region_lines(rng, cycles, n)
        lines += more
    if rng.random() < 0.5:
        genus = (2 - chi) // 2 if rng.random() < 0.6 else rng.choice([0, 1, 2, 3])
        lines.append(f"surface genus={genus}")
    if rng.random() < 0.95:
        lines.append(f"base {rng.choice([*rids, -1, len(rids)]) if rng.random() < 0.9 else 99}")
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(STRAY))
    if rng.random() < 0.2:
        rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def run_all(text):
    """Parse the text and run everything on it; returns (parsed, reports)."""
    try:
        d = parse_diagram(text)
    except CurveInvError:
        return 0, 0
    reports = 0
    for base in range(len(d.regions)):
        try:
            full_report(d, base)
            reports += 1
        except CurveInvError:
            pass
    canonicalize(d)
    for finder, corners in ((find_bigons, 2), (find_triangles, 3)):
        scan = [rid for rid in range(len(d.regions)) if _disk(d, rid, corners) is not None]
        assert [s.region for s in finder(d)] == scan
    for rid in range(-1, len(d.regions) + 1):
        for move in (bigon_death, triple_move):
            try:
                move(d, rid)
            except CurveInvError:
                pass
    return 1, reports


def test_fuzzed_diagram_texts_end_in_results_or_curveinv_errors():
    rng = random.Random(2015)
    total = 20000
    parsed = reports = 0
    for _ in range(total):
        text = fuzz_text(rng)
        try:
            p, r = run_all(text)
        except Exception as exc:   # anything but a CurveInvError fails
            raise AssertionError(f"{type(exc).__name__}: {exc}\n{text}") from exc
        parsed += p
        reports += r
    assert parsed >= total // 6 and reports >= 1000
