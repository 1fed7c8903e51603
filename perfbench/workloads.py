"""The benchmark's three workloads.

Each is a closed loop with one caller: `run_op(k)` performs op k, checks
its outputs against a reference the library did not compute in the same
op, and raises `CheckFailed` when they disagree; it returns the op's class
(ops of one class do the same work on like inputs), diagram and report.
The op order repeats every `cycle` ops.  The constructor is the set-up:
it makes every input from the seed through public curveinv calls.

* exact_deep      `curveinv invariant` on deep-index genus-0 diagrams given
                  as text, n = 16 ... 256 with about n/2 index levels, plus a
                  canonical-form identity check.  Index depth drives
                  subsurface_profile (O(n L)) and n drives canonicalize; no
                  move code runs in the timed ops.
* move_walk       `curveinv move`: one birth, death or triple move and the
                  invariants of the result, on walks over genus 0, 1 and 2
                  (chi = 2, 0, -2) at n = 96 ... 160 with 5 to 9 index
                  levels.  The same exact layers through the write side,
                  with shallow indices and no canonicalize.
* numeric_verify  `curveinv numeric`: two quadrature contexts, extraction and
                  every numeric-vs-exact check, on seeded sphere and torus
                  curves.  The numeric route dominates; the exact layers see
                  diagrams with n <= 1.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from curveinv import diagram, geometry, invariants, laurent
from curveinv.catalog import diagram_fixture

import generators


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


@dataclass
class Sizes:
    n: int
    levels: int
    regions: int
    iq_terms: int


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------


def _spread_deck(counts):
    """A fixed op order holding size n counts[n] times, each size spread
    evenly through the deck, so every stretch of it has about the same mix."""
    slots = [((j + 0.5) / c, n) for n, c in counts.items() for j in range(c)]
    return [n for _, n in sorted(slots)]


class ExactDeep:
    name = "exact_deep"
    # ops per deck at each size: more small diagrams than large ones, and
    # 11 of 53 ops (21 %) at n >= 128, so the slowest tenth lies among them.
    # The median op falls inside the n = 32 share (38-57 % of the deck) and
    # the 90th percentile inside the n = 128 share (79-94 %), away from the
    # edges where a percentile would jump between sizes.
    DECK = {16: 12, 24: 8, 32: 10, 48: 5, 64: 4, 96: 3, 128: 8, 192: 2, 256: 1}
    TINY_DECK = {4: 2, 6: 1, 8: 1}
    VARIANTS = 4

    def __init__(self, seed, tiny=False):
        rng = random.Random(f"{self.name}:{seed}")
        counts = self.TINY_DECK if tiny else self.DECK
        snaps, *births = generators.grow_deep(rng, set(counts))
        self.births = tuple(births)
        self.deck = _spread_deck(counts)
        self.cycle = len(self.deck)
        self.corpus = {}
        for n, (d, expected) in snaps.items():
            texts = [generators.relabel_rotate(d, rng) for _ in range(self.VARIANTS)]
            self.corpus[n] = (texts, diagram.canonicalize(d), expected,
                              Sizes(n, generators.index_levels(d), len(d.regions), 0))
        self.digest = _digest([self.deck] + [self.corpus[n][:3] for n in sorted(self.corpus)])

    def run_op(self, k):
        n = self.deck[k % len(self.deck)]
        texts, canonical, expected, _ = self.corpus[n]
        d = diagram.parse_diagram(texts[(k // len(self.deck)) % len(texts)])
        rep = invariants.full_report(d)
        wrong = expected.mismatch(rep)
        if wrong:
            raise CheckFailed(f"n={n}: {wrong}")
        if diagram.canonicalize(d) != canonical:
            raise CheckFailed(f"n={n}: canonical form changed under relabelling")
        return f"n{n}", d, rep

    def sizes(self, result):
        _, d, rep = result
        s = self.corpus[d.n][3]
        return Sizes(s.n, s.levels, s.regions, len(rep.iq.terms))

    def birth_counts(self):
        """(attempted, accepted) births of the set-up growth."""
        return self.births


# ---------------------------------------------------------------------------


class MoveWalk:
    name = "move_walk"
    TINY_PLATEAU = {0: 6, 1: 8, 2: 10}

    def __init__(self, seed, tiny=False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.plateau = self.TINY_PLATEAU if tiny else generators.PLATEAU
        self.walkers = generators.grow_walkers(self.rng, self.plateau)
        self.cycle = len(self.walkers)
        self.digest = _digest(diagram.serialize_diagram(w.diagram) for w in self.walkers)

    def run_op(self, k):
        genus = k % len(self.walkers)
        walker = self.walkers[genus]
        kind, moved = walker.step(self.rng, self.plateau[genus])
        rep = invariants.full_report(moved)
        walker.commit(kind, moved)
        wrong = walker.expected.mismatch(rep)
        if wrong:
            raise CheckFailed(f"genus {genus}, {kind}: {wrong}")
        return f"genus{genus}.{kind}", moved, rep

    def birth_counts(self):
        """(attempted, accepted) births over set-up and ops."""
        return (sum(w.births_attempted for w in self.walkers),
                sum(w.births_accepted for w in self.walkers))

    def sizes(self, result):
        _, d, rep = result
        return Sizes(d.n, generators.index_levels(d), len(d.regions), len(rep.iq.terms))


# ---------------------------------------------------------------------------


class NumericVerify:
    name = "numeric_verify"
    QS = (0.5, 2.0, 3.0)
    GAUSS_BONNET_GATE = 1e-2
    SPECS = 64    # curves drawn in set-up; ops cycle through them
    # small grids for the self-test; every tolerance still holds on them
    TINY_CFG = geometry.NumericConfig(double_grid=100, line_nodes=48,
                                      meridians=256, curve_samples=2048)

    def __init__(self, seed, tiny=False):
        rng = random.Random(f"{self.name}:{seed}")
        kinds = generators.NUMERIC_KINDS
        self.cycle = len(kinds)
        self.specs = [generators.draw_curve(rng, kinds[k % len(kinds)])
                      for k in range(self.SPECS)]
        self.cfg = self.TINY_CFG if tiny else geometry.NumericConfig()
        self.references = {
            name: diagram.canonicalize(diagram_fixture(name))
            for name in {spec.fixture for spec in self.specs}
        }
        self.err_to_tol = 0.0
        self.digest = _digest((s.kind, vars(s.curve)) for s in self.specs)

    def run_op(self, k):
        spec = self.specs[k % len(self.specs)]
        curve, base, cfg, tol = spec.curve, spec.base_point, self.cfg, spec.tolerance
        ctx = geometry.NumericContext(curve, base, cfg)
        coarse = geometry.NumericContext(curve, base, cfg.halved())
        extracted = geometry.extract_diagram(curve, base, cfg, context=ctx)
        d, b = extracted
        if diagram.canonicalize(d) != self.references[spec.fixture]:
            raise CheckFailed(f"{spec.kind}: extracted diagram is not {spec.fixture}")
        rep = invariants.full_report(d, b)
        problems = []
        for q in self.QS:
            nv = geometry.numeric_iq(curve, base, [q], cfg, context=ctx)[0]
            geometry.numeric_iq(curve, base, [q], context=coarse)
            ratio = abs(nv - laurent.eval_real(rep.iq, q)) / tol
            self.err_to_tol = max(self.err_to_tol, ratio)
            if ratio > 1:
                problems.append(f"I_q at q={q} off by {ratio:.3g} tolerances")
        if abs(geometry.numeric_i1(curve, base, cfg, context=ctx) - rep.i1) > tol:
            problems.append("I_1 outside tolerance")
        if curve.surface == geometry.UNIT_SPHERE:
            jp = geometry.numeric_jplus(curve, base, cfg, context=ctx)
            if abs(jp - float(rep.jplus)) > max(tol, 5e-3):
                problems.append("J+ outside tolerance")
        ind = diagram.index_function(d, b)
        for twice_j in sorted({2 * int(v) + s for v in ind.values.values() for s in (-1, 1)}):
            lhs, rhs = geometry.gauss_bonnet_region_check(
                curve, base, Fraction(twice_j, 2), cfg, context=ctx, extracted=extracted)
            if lhs == 0 and abs(rhs) < 1e-6:
                continue
            if abs(lhs - rhs) / max(1.0, abs(lhs)) > self.GAUSS_BONNET_GATE:
                problems.append(f"Gauss-Bonnet fails at j={twice_j}/2")
        if problems:
            raise CheckFailed(f"{spec.kind} {vars(spec.curve)}: " + "; ".join(problems))
        return spec.kind, d, rep

    def sizes(self, result):
        _, d, rep = result
        return Sizes(d.n, generators.index_levels(d), len(d.regions), len(rep.iq.terms))

    def birth_counts(self):
        return (0, 0)


WORKLOADS = {cls.name: cls for cls in (ExactDeep, MoveWalk, NumericVerify)}
