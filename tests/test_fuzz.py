"""Seeded fuzzing of the diagram file format and everything that reads it.

Each text is built from a random signed Gauss code, sometimes corrupted,
with random `surface genus=`, region and `base` lines and stray tokens; a
quarter of the texts are the default-region texts serialize_diagram writes,
most of them written another way (near misses of the lines it writes).  It
goes through parse_diagram, full_report at every base, canonicalize, and a
bigon death and a triple move at every region id (and one past each end).
Every step must end in a result or a CurveInvError, and the bigon and
triangle finders must give the sites of the _disk scan over every region.
The parser must also agree with `reference_parse`, a plain line-by-line
reading of the format kept here: the same diagram with the same dart
tables, or the same error class and message.
"""

import random
import re
from dataclasses import replace

from curveinv.diagram import (
    CurveDiagram,
    Region,
    SignedGaussCode,
    build_diagram,
    canonicalize,
    parse_diagram,
    serialize_diagram,
    trace_boundary_cycles,
)
from curveinv.errors import CurveInvError, LabelError, ParseError, TopologyError
from curveinv.invariants import full_report
from curveinv.moves import _disk, bigon_death, find_bigons, find_triangles, triple_move

STRAY = ["", "   ", "# comment", "bogus", "curve", "region", "base", "surface",
         "surface genus=", "surface genus=x", "region 0", "region 0 genus=0",
         "region 0 genus=0 cycles=", "region 0 genus=0 cycles=0,,1",
         "region x genus=0 cycles=0", "base 0 1", "base x", "1+", "curve -",
         "region 0 genux=0 cycles=0", "region 0 genus=-1 cycles=0",
         "region 0 genus=0 cycle=0", "region 0 genus=x cycles=y", "region -1 genus=0 cycles=0",
         "base +0", "base \u0662", "surface genus=0_0", "region 0 genus=-0 cycles=0"]
DECIMAL = re.compile(r"0|-?[1-9][0-9]*")   # an integer as serialize_diagram writes it, or negative


def reference_parse(text):
    """The diagram file format read one field at a time, with the dart
    tables built by walking every traced cycle."""
    def decimal(text):
        if DECIMAL.fullmatch(text) is None:
            raise ValueError(text)
        return int(text)

    def parse_int(text, line_no, what):
        try:
            return decimal(text)
        except ValueError:
            raise ParseError(f"bad {what}: {text!r}", line_no) from None

    def parse_kv(field, key, line_no):
        if not field.startswith(key + "="):
            raise ParseError(f"expected {key}=<value>", line_no)
        value = parse_int(field[len(key) + 1:], line_no, key)
        if value < 0:
            raise ParseError(f"{key} must be nonnegative", line_no)
        return value

    curve_tokens = surface_genus = base_rid = None
    region_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "surface":
            if len(fields) != 2:
                raise ParseError("surface needs exactly genus=<g>", line_no)
            if surface_genus is not None:
                raise ParseError("duplicate surface line", line_no)
            surface_genus = parse_kv(fields[1], "genus", line_no)
        elif kind == "curve":
            if curve_tokens is not None:
                raise ParseError("duplicate curve line", line_no)
            if len(fields) == 1:
                raise ParseError("curve needs visit tokens, or - for no crossing", line_no)
            curve_tokens = (fields[1:], line_no)
        elif kind == "region":
            if len(fields) != 4:
                raise ParseError("region needs exactly <rid> genus=<g> cycles=<c,...>",
                                 line_no)
            rid = parse_int(fields[1], line_no, "region id")
            genus = parse_kv(fields[2], "genus", line_no)
            if not fields[3].startswith("cycles="):
                raise ParseError("expected cycles=<c1,c2,...>", line_no)
            try:
                cycles = tuple(decimal(c) for c in fields[3][len("cycles="):].split(","))
            except ValueError:
                raise ParseError("bad cycle list", line_no) from None
            region_lines.append((line_no, rid, genus, cycles))
        elif kind == "base":
            if len(fields) != 2:
                raise ParseError("base needs exactly one region id", line_no)
            if base_rid is not None:
                raise ParseError("duplicate base line", line_no)
            base_rid = (parse_int(fields[1], line_no, "base region"), line_no)
        else:
            raise ParseError(f"unknown directive {kind!r}", line_no)
    if curve_tokens is None:
        raise ParseError("missing curve line")
    if base_rid is None:
        raise ParseError("missing base line")

    tokens, curve_line = curve_tokens
    visits = []
    if tokens != ["-"]:
        for tok in tokens:
            if len(tok) < 2 or tok[-1] not in "+-":
                raise ParseError(f"bad visit token {tok!r}", curve_line)
            label = parse_int(tok[:-1], curve_line, "crossing label")
            if label <= 0:
                raise ParseError(f"crossing label must be positive: {tok!r}", curve_line)
            visits.append((label, 1 if tok[-1] == "+" else -1))
    try:
        code = SignedGaussCode(tuple(visits))
    except LabelError as exc:
        raise LabelError(f"line {curve_line}: {exc}") from None

    regions = rid_to_index = None
    if region_lines:
        region_lines.sort(key=lambda item: item[1])
        rids = [rid for _, rid, _, _ in region_lines]
        if len(set(rids)) != len(rids):
            raise ParseError("duplicate region id", region_lines[0][0])
        regions = [(genus, cycles) for _, _, genus, cycles in region_lines]
        rid_to_index = {rid: i for i, (_, rid, _, _) in enumerate(region_lines)}
    cycles = trace_boundary_cycles(code)
    base, base_line = base_rid
    if rid_to_index is not None:
        if base not in rid_to_index:
            raise ParseError(f"base region {base} not declared", base_line)
        base = rid_to_index[base]
    elif not 0 <= base < len(cycles):
        raise ParseError(f"base region {base} does not exist", base_line)

    # assembly, faults in the order: partition, each region, chi, base
    if regions is None:
        regs = tuple(Region(0, (c,)) for c in range(len(cycles)))
        cycle_region = list(range(len(cycles)))
    else:
        regs = tuple(Region(g, tuple(sorted(cs))) for g, cs in regions)
        cycle_region = [None] * len(cycles)
        for r, region in enumerate(regs):
            for c in region.cycles:
                if c not in range(len(cycles)) or cycle_region[c] is not None:
                    cycle_region = None
                    break
                cycle_region[c] = r
            if cycle_region is None:
                break
        if cycle_region is None or None in cycle_region:
            claimed = sorted(c for r in regs for c in r.cycles)
            raise TopologyError(
                f"region lines must partition cycles 0..{len(cycles) - 1}, got {claimed}")
        for r in regs:
            if r.genus < 0:
                raise TopologyError("region genus must be a nonnegative integer")
            if not r.cycles:
                raise TopologyError("every region needs at least one boundary cycle")
    derived_chi = sum(r.chi for r in regs) - code.n
    surface_chi = derived_chi if surface_genus is None else 2 - 2 * surface_genus
    if surface_chi != derived_chi:
        raise TopologyError(
            f"declared chi(S) = {surface_chi} inconsistent with chi conservation "
            f"(regions give {derived_chi})")
    if (2 - surface_chi) % 2 != 0 or surface_chi > 2:
        raise TopologyError(f"chi(S) = {surface_chi} is not 2 - 2g for genus g >= 0")
    if not 0 <= base < len(regs):
        raise TopologyError(f"base region {base} does not exist")
    darts = sum(map(len, cycles))
    dart_cycle, dart_region = [0] * darts, [0] * darts
    for c, cycle in enumerate(cycles):
        for d in cycle:
            dart_cycle[d] = c
            dart_region[d] = cycle_region[c]
    return CurveDiagram(code=code, cycles=cycles, regions=regs, surface_chi=surface_chi,
                        base_region=base, dart_cycle=tuple(dart_cycle),
                        dart_region=tuple(dart_region))


def parse_outcome(parse, text):
    """(diagram, dart -> cycle, dart -> region), or (error class, message)."""
    try:
        d = parse(text)
    except CurveInvError as exc:
        return type(exc), str(exc)
    return d, d.dart_cycle, d.dart_region


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
                                tokens[k] + " " + tokens[k], "+", "1_0+", "01+", "+1+",
                                "\u0661+"])
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


BAD_REGION = ["region", "region 0 genus=0", "region 0 genus=0 cycles=",
              "region x genus=0 cycles=0", "region 0 genus=-1 cycles=0"]


def default_region_text(rng):
    """The text serialize_diagram writes for a random code with its default
    regions (region i of genus 0 with cycle i), three times in four written
    another way: a near miss of the default lines, or an undeclared base."""
    d = build_diagram(random_visits(rng, rng.randrange(7)))
    lines = serialize_diagram(replace(d, base_region=rng.randrange(len(d.regions)))).splitlines()
    count = len(d.regions)
    k = rng.randrange(2, 2 + count)     # a region line; i = k - 2 is its id
    line, i = lines[k], k - 2
    kind = rng.randrange(17)
    if kind == 0:       # a doubled space
        cut = rng.choice([j for j, ch in enumerate(line) if ch == " "])
        lines[k] = line[:cut] + " " + line[cut:]
    elif kind == 1:
        lines[k] = line.replace(" ", "\t", 1)
    elif kind == 2:
        lines[k] = line + " # comment"
    elif kind == 3:
        return "\r\n".join(lines) + "\r\n"
    elif kind == 4:     # a bad region id or cycle list: a leading zero or sign
        lead, lead2 = rng.choice(["0", "+"]), rng.choice(["", "0", "+"])
        lines[k] = f"region {lead}{i} genus=0 cycles={lead2}{i}"
    elif kind == 5:
        j = rng.randrange(2, 2 + count)
        lines[k], lines[j] = lines[j], lines[k]
    elif kind == 6:
        lines.insert(k, line)
    elif kind == 7:
        del lines[k]
    elif kind == 8:
        lines.insert(2 + count, f"region {count} genus=0 cycles={count}")
    elif kind == 9:
        lines[k] = line.replace("genus=0", "genus=1")
    elif kind == 10:
        lines[k] = f"{line},{rng.randrange(count + 1)}"
    elif kind == 11:    # the region line's fault comes first
        lines[k] = rng.choice(BAD_REGION)
        lines[1] = rng.choice(["curve x+", "curve 0+ 0+", "curve 1* 1+", "curve +"])
    elif kind == 12:
        lines[-1] = f"base {rng.choice([-1, count, 99])}"
    return "\n".join(lines) + "\n"


def fuzz_text(rng):
    if rng.random() < 0.25:
        return default_region_text(rng)
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
    parsed = reports = exact = 0
    for _ in range(total):
        text = fuzz_text(rng)
        outcome = parse_outcome(parse_diagram, text)
        assert outcome == parse_outcome(reference_parse, text), text
        # a default-region text exactly as serialize_diagram writes it
        exact += isinstance(outcome[0], CurveDiagram) and (
            serialize_diagram(outcome[0]) == text and outcome[2] is outcome[1])
        try:
            p, r = run_all(text)
        except Exception as exc:   # anything but a CurveInvError fails
            raise AssertionError(f"{type(exc).__name__}: {exc}\n{text}") from exc
        parsed += p
        reports += r
    assert parsed >= total // 6 and reports >= 1000 and exact >= total // 20
