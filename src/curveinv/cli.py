"""Command-line interface.

Commands: validate, invariant, compare, move, numeric, random, catalog.
Exit codes: 0 success, 1 input or usage error, 2 homologically nontrivial,
3 internal cross-check failure.

Diagram arguments accept a file path or a built-in fixture name.  Move sites:

    --site bigon:<region-id>
    --site triangle:<region-id>
    --site birth:<region>:<pos1>:<pos2>:<direct|opposite>[:plan=<spec>]

where a birth position is <cycle>.<dart-index>[.<permille>] (the fractional
offset along that dart's boundary walk, default 500 = halfway), and a plan
is pieces separated by '~', each piece g<genus>[+<cycle>,<cycle>...] with a
trailing '*' marking the piece that keeps the base point.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import laurent
from .catalog import (
    DIAGRAM_FIXTURES,
    PARAMETRIC_NAMES,
    diagram_fixture,
    parametric_fixture,
)
from .diagram import euler_moments, index_function, parse_diagram, serialize_diagram
from .errors import (
    CrossCheckFailed,
    CurveInvError,
    HomologicallyNontrivial,
    ParseError,
    PlanInvalid,
    PlanRequired,
    SiteError,
)
from .invariants import (
    full_report,
    iq_euler,
    iq_topological,
    report_ingredients,
    viro_jminus,
)
from .moves import (
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

MAX_GRID = 65536   # largest --grid: 8 * 65536 curve samples per context


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_diagram(spec):
    if spec in DIAGRAM_FIXTURES:
        return diagram_fixture(spec)
    try:
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {spec}: {exc}") from None
    return parse_diagram(text)


def _write_output(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CurveInvError(f"cannot write {path}: {exc}") from None


def _frac(x) -> str:
    return str(Fraction(x))


def _report_dict(rep):
    return {
        "iq": str(rep.iq),
        "i1": rep.i1,
        "i1_prime": _frac(rep.i1_prime),
        "rotation": {"value": rep.rotation[0], "modulus": rep.rotation[1]},
        "jplus": None if rep.jplus is None else _frac(rep.jplus),
        "jminus": None if rep.jminus is None else _frac(rep.jminus),
        "sjplus": None if rep.sjplus is None else _frac(rep.sjplus),
        "jplus_reason": rep.jplus_reason,
        "sjplus_reason": rep.sjplus_reason,
        "crossings": rep.crossing_count,
        "chi": rep.chi_s,
        "base_region": rep.base_region,
    }


def cmd_validate(args):
    try:
        diagram = _load_diagram(args.diagram)
    except CurveInvError as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"chi={diagram.surface_chi}, regions={len(diagram.regions)}, "
          f"crossings={diagram.n}")
    for rid, region in enumerate(diagram.regions):
        marker = " (base)" if rid == diagram.base_region else ""
        print(f"  region {rid}: genus={region.genus} "
              f"cycles={','.join(str(c) for c in region.cycles)} "
              f"chi={region.chi}{marker}")
    try:
        index_function(diagram)
    except HomologicallyNontrivial:
        print("homologically nontrivial")
        return 2
    print("homologically trivial")
    return 0


def cmd_invariant(args):
    diagram = _load_diagram(args.diagram)
    base = args.base if args.base is not None else diagram.base_region
    try:
        rep = full_report(diagram, base)
    except HomologicallyNontrivial as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(_report_dict(rep), indent=2))
        return 0
    print(f"iq = {rep.iq}")
    print(f"i1 = {rep.i1}")
    print(f"i1' = {_frac(rep.i1_prime)}")
    if rep.rotation[1] == 0:
        print(f"rot = {rep.rotation[0]} (exact)")
    else:
        print(f"rot = {rep.rotation[0]} (mod {rep.rotation[1]})")
    for name, value, reason in (
        ("jplus", rep.jplus, rep.jplus_reason),
        ("jminus", rep.jminus, rep.jplus_reason),
        ("sjplus", rep.sjplus, rep.sjplus_reason),
    ):
        if value is None:
            why = "chi = 0" if reason == "chi_zero" else "chi != 2"
            print(f"{name}: undefined ({why})")
        else:
            print(f"{name} = {_frac(value)}")
    return 0


def cmd_compare(args):
    diagram = _load_diagram(args.diagram)
    rows = []
    ok = True
    for base in range(len(diagram.regions)):
        try:
            ind, profile, smoothed = report_ingredients(diagram, base)
        except HomologicallyNontrivial as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        a = iq_topological(profile)
        b = iq_euler(smoothed, profile.crossing_indices)
        row = {"base": base, "iq_topological": str(a), "iq_euler": str(b),
               "iq_equal": a == b}
        if diagram.surface_chi != 0:
            jm = full_report(diagram, base).jminus
            m1, _ = euler_moments(smoothed)
            jv = viro_jminus(smoothed, m1, diagram.surface_chi)
            row["jminus_viro"] = _frac(jv)
            row["jminus_jplus"] = _frac(jm)
            row["jminus_equal"] = jv == jm
        rows.append(row)
        ok = ok and row["iq_equal"] and row.get("jminus_equal", True)
    if args.format == "json":
        print(json.dumps({"rows": rows, "pass": ok}, indent=2))
    else:
        for row in rows:
            verdict = "PASS" if row["iq_equal"] and row.get("jminus_equal", True) else "FAIL"
            print(f"base {row['base']}: iq[topological] = {row['iq_topological']}")
            print(f"          iq[euler]       = {row['iq_euler']}")
            if "jminus_viro" in row:
                print(f"          jminus[viro] = {row['jminus_viro']}  "
                      f"jminus[jplus-n] = {row['jminus_jplus']}")
            print(f"          {verdict}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def _site_int(text, what):
    """int(text), or a SiteError naming the bad field of --site."""
    try:
        return int(text)
    except ValueError:
        raise SiteError(f"bad {what}: {text!r}") from None


def _parse_position(diagram, text):
    parts = text.split(".")
    if len(parts) not in (2, 3):
        raise SiteError(f"bad position {text!r}: expected <cycle>.<index>[.<permille>]")
    where = f"in position {text!r}"
    cycle = _site_int(parts[0], f"cycle {where}")
    index = _site_int(parts[1], f"dart index {where}")
    permille = _site_int(parts[2], f"permille {where}") if len(parts) == 3 else 500
    if not 0 <= cycle < len(diagram.cycles):
        raise SiteError(f"no cycle {cycle}")
    darts = diagram.cycles[cycle]
    if not 0 <= index < len(darts):
        raise SiteError(f"cycle {cycle} has no dart index {index}")
    return darts[index], Fraction(permille, 1000)


def _parse_plan(text):
    pieces = []
    base_piece = 0
    for k, chunk in enumerate(text.split("~")):
        if chunk.endswith("*"):
            base_piece = k
            chunk = chunk[:-1]
        if "+" in chunk:
            ghead, cycles = chunk.split("+", 1)
            cycle_ids = frozenset(_site_int(c, f"cycle in plan piece {chunk!r}")
                                  for c in cycles.split(","))
        else:
            ghead, cycle_ids = chunk, frozenset()
        if not ghead.startswith("g"):
            raise SiteError(f"bad plan piece {chunk!r}: expected g<genus>[+cycles]")
        pieces.append((_site_int(ghead[1:], f"genus in plan piece {chunk!r}"), cycle_ids))
    return SplitPlan(pieces=tuple(pieces), base_piece=base_piece)


def _parse_site(diagram, text):
    fields = text.split(":")
    kind = fields[0]
    if kind in ("bigon", "triangle"):
        if len(fields) != 2:
            raise SiteError(f"--site {kind}:<region-id>")
        rid = _site_int(fields[1], "region id")
        finder = find_bigons if kind == "bigon" else find_triangles
        for site in finder(diagram):
            if site.region == rid:
                return site
        raise SiteError(f"region {rid} is not a {kind}")
    if kind == "birth":
        if len(fields) < 5:
            raise SiteError(
                "--site birth:<region>:<pos1>:<pos2>:<direct|opposite>[:plan=...]"
            )
        rid = _site_int(fields[1], "region id")
        pos1 = _parse_position(diagram, fields[2])
        pos2 = _parse_position(diagram, fields[3])
        tangency = fields[4]
        plan = None
        if len(fields) > 5:
            if not fields[5].startswith("plan="):
                raise SiteError(f"unexpected site field {fields[5]!r}")
            plan = _parse_plan(fields[5][5:])
        return birth_site(rid, pos1, pos2, tangency, plan)
    raise SiteError(f"unknown site kind {kind!r}")


def cmd_move(args):
    diagram = _load_diagram(args.diagram)
    try:
        site = _parse_site(diagram, args.site)
        if site.kind.startswith("birth"):
            moved = tangency_birth(diagram, site)
        elif site.kind.startswith("bigon"):
            moved = bigon_death(diagram, site)
        else:
            moved = triple_move(diagram, site)
    except (SiteError, PlanRequired, PlanInvalid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    before = full_report(diagram)
    after = full_report(moved)
    deltas = {
        "delta_n": after.crossing_count - before.crossing_count,
        "delta_jplus": None
        if before.jplus is None
        else _frac(after.jplus - before.jplus),
        "rot_before": {"value": before.rotation[0], "modulus": before.rotation[1]},
        "rot_after": {"value": after.rotation[0], "modulus": after.rotation[1]},
    }
    if args.output:
        _write_output(args.output, serialize_diagram(moved))
    if args.format == "json":
        print(json.dumps(deltas, indent=2))
    else:
        jp = deltas["delta_jplus"]
        print(f"delta n = {deltas['delta_n']:+d}")
        print(f"delta jplus = {jp if jp is not None else 'n/a (chi = 0)'}")
        m = before.rotation[1]
        print(f"rot: {before.rotation[0]} -> {after.rotation[0]} (mod {m})"
              if m else f"rot: {before.rotation[0]} -> {after.rotation[0]} (exact)")
    return 0


def cmd_numeric(args):
    # the numeric route alone needs numpy; the exact commands start without it
    from .geometry import (
        NumericConfig,
        NumericContext,
        extract_diagram,
        gauss_bonnet_region_check,
        numeric_i1,
        numeric_iq,
        numeric_jplus,
    )

    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        try:
            params[key] = float(value)
        except ValueError:
            print(f"error: bad value for --param {key}: {value!r}", file=sys.stderr)
            return 1
    qs = []
    for value in (args.q or "0.5,2,3").split(","):
        try:
            qs.append(float(value))
        except ValueError:
            print(f"error: bad value for --q: {value!r}", file=sys.stderr)
            return 1
    try:
        fx = parametric_fixture(args.fixture, **params)
        if not all(math.isfinite(q) for q in qs):
            raise ValueError(f"--q values must be finite, got {args.q}")
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
            raise ValueError(f"--tol must be finite and nonnegative, got {args.tol}")
        if args.grid is not None and args.grid <= 0:
            raise ValueError(f"--grid must be positive, got {args.grid}")
        if args.grid is not None and args.grid > MAX_GRID:
            raise ValueError(f"--grid must be at most {MAX_GRID}")
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)   # str(KeyError) quotes it
        return 1
    cfg = NumericConfig()
    if args.grid is not None:
        cfg = NumericConfig(curve_samples=max(2048, 8 * args.grid))
    tol = args.tol if args.tol is not None else fx.tolerance
    ctx = NumericContext(fx.curve, fx.base_point, cfg)
    coarse = NumericContext(fx.curve, fx.base_point, cfg.halved())
    extracted = extract_diagram(fx.curve, fx.base_point, cfg, context=ctx)
    diagram, base = extracted
    rep = full_report(diagram, base)
    rows = []
    ok = True
    for q in qs:
        nv = float(numeric_iq(fx.curve, fx.base_point, [q], cfg, context=ctx)[0])
        cv = float(numeric_iq(fx.curve, fx.base_point, [q], context=coarse)[0])
        exact = float(laurent.eval_real(rep.iq, q))
        est = abs(nv - cv) / 2
        status = abs(nv - exact) <= tol
        ok = ok and status
        rows.append({
            "q": q, "numeric": nv, "exact": exact,
            "difference": abs(nv - exact), "error_estimate": est,
            "pass": status,
        })
    i1_num = float(numeric_i1(fx.curve, fx.base_point, cfg, context=ctx))
    i1_ok = abs(i1_num - rep.i1) <= tol
    ok = ok and i1_ok
    jp_num = jp_exact = None
    if fx.curve.surface.chi != 0:
        jp_num = float(numeric_jplus(fx.curve, fx.base_point, cfg, context=ctx))
        jp_exact = float(rep.jplus)
        jp_ok = abs(jp_num - jp_exact) <= tol
        ok = ok and jp_ok
    gb_rows = []
    ind = index_function(diagram, base)
    levels = sorted(
        {2 * int(v) + s for v in ind.values.values() for s in (-1, 1)}
    )
    for twice_j in levels:
        j = Fraction(twice_j, 2)
        lhs, rhs = (float(x) for x in gauss_bonnet_region_check(
            fx.curve, fx.base_point, j, cfg, context=ctx, extracted=extracted
        ))
        if lhs == 0 and abs(rhs) < 1e-6:
            continue
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        gb_ok = rel <= 1e-2
        ok = ok and gb_ok
        gb_rows.append({"j": str(j), "lhs": lhs, "rhs": rhs,
                        "relative": rel, "pass": gb_ok})
    if args.format == "json":
        print(json.dumps({
            "fixture": fx.name, "params": fx.params, "tolerance": tol,
            "iq": rows,
            "i1": {"numeric": i1_num, "exact": rep.i1, "pass": i1_ok},
            "jplus": None if jp_num is None else
                {"numeric": jp_num, "exact": jp_exact, "sjplus": jp_num},
            "gauss_bonnet": gb_rows,
            "pass": ok,
        }, indent=2))
        return 0 if ok else 3
    print(f"fixture {fx.name} {fx.params or ''} tol={tol:g}")
    print(f"exact iq = {rep.iq}")
    for row in rows:
        print(f"  q={row['q']:<5g} numeric={row['numeric']:.9g} "
              f"exact={row['exact']:.9g} diff={row['difference']:.3g} "
              f"est={row['error_estimate']:.3g} "
              f"{'PASS' if row['pass'] else 'FAIL'}")
    print(f"  i1: numeric={i1_num:.9g} exact={rep.i1} "
          f"{'PASS' if i1_ok else 'FAIL'}")
    if jp_num is not None:
        print(f"  jplus: numeric={jp_num:.9g} exact={jp_exact:.9g} "
              f"sjplus={jp_num:.9g} {'PASS' if jp_ok else 'FAIL'}")
    for row in gb_rows:
        print(f"  gauss-bonnet j={row['j']}: lhs={row['lhs']:.9g} "
              f"rhs={row['rhs']:.9g} rel={row['relative']:.3g} "
              f"{'PASS' if row['pass'] else 'FAIL'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def cmd_random(args):
    try:
        diagram = random_diagram(args.crossings, args.genus, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = serialize_diagram(diagram)
    if args.output:
        _write_output(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_catalog(args):
    print("diagram fixtures:")
    for name in DIAGRAM_FIXTURES:
        print(f"  {name}")
    print("parametric fixtures:")
    for name in PARAMETRIC_NAMES:
        print(f"  {name}")
    return 0


def main(argv=None):
    parser = _Parser(prog="curveinv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram file")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariant", help="print all invariants")
    p.add_argument("diagram")
    p.add_argument("--base", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("compare", help="cross-check the two exact paths")
    p.add_argument("diagram")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("move", help="apply a tangency/triangle move")
    p.add_argument("diagram")
    p.add_argument("--site", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_move)

    p = sub.add_parser("numeric", help="numeric-vs-exact verification")
    p.add_argument("--fixture", required=True)
    p.add_argument("--param", action="append",
                   help="fixture parameter k=v (alpha, rho)")
    p.add_argument("--q", default=None, help="comma-separated q values")
    p.add_argument("--grid", type=int, default=None,
                   help=f"N sets 8 N curve samples, at least 2048 (N at most {MAX_GRID})")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_numeric)

    p = sub.add_parser("random", help="generate a random trivial diagram")
    p.add_argument("--crossings", type=int, required=True)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("catalog", help="list built-in fixtures")
    p.set_defaults(func=cmd_catalog)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HomologicallyNontrivial as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CrossCheckFailed as exc:
        print(f"error: {exc}\nreproducer:\n{exc.reproducer}", end="", file=sys.stderr)
        return 3
    except CurveInvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
