"""Exact curve invariants assembled from the diagram machinery.

The central object is the Laurent polynomial I_q attached to a homologically
trivial curve with a base region.  It is computed here by two independent
exact routes that must agree term by term:

* the finite topological form   sum_j a_j q^j  -  (1/2) sum_d (q^(i_d + 1/2)
  - q^(i_d - 1/2)),  summed over half-integer levels j and double points d
  of index i_d, and

* the Euler-characteristic integral of the smoothed curve,
  -(1/2) sum_d (q^(1/2) - q^(-1/2)) q^(i_d)
  + sum_i level_chi[i] * (q^i - 1)/(q^(1/2) - q^(-1/2)).

Both routes keep twice each coefficient as an integer per exponent (in
half-units) and build the HalfLaurent once.  The double points of index i
add -c at 2i + 1 and +c at 2i - 1, with c their count, once per distinct
index; the topological route adds 2 a_j at 2j; the Euler route sums the
geometric series by suffix and prefix sums over the levels, in O(L):
q^(k + 1/2) gets sum_{i > k} level_chi[i] for k >= 0 and
-sum_{i <= k} level_chi[i] for k < 0.  The report reads I_1 and I_1' as
integers from twice each coefficient c of I_q at exponent e: 2 I_1 is the
sum of the c and 4 I_1' the sum of the e c; only I_1' and J+- become
Fractions.

Evaluations at q = 1 give the rotation number (mod |chi(S)| unless the
surface is the torus) and, for chi(S) != 0, the J+ and J- invariants.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from . import laurent
from .diagram import (
    CurveDiagram,
    SmoothedProfile,
    SubsurfaceProfile,
    euler_moments,
    index_function,
    serialize_diagram,
    smoothed_level_chi,
    subsurface_profile,
)
from .errors import ChiZero, CrossCheckFailed, NonPositiveQ, NotSphere, QOverflow
from .laurent import HalfLaurent


def _spike_halves(crossing_indices) -> defaultdict:
    """Twice the crossing spikes -(1/2) (q^(i + 1/2) - q^(i - 1/2)), as
    integer counts per exponent in half-units, added once per run of equal
    indices: once per distinct index of a sorted multiset."""
    halves = defaultdict(int)
    for i, same in groupby(crossing_indices):
        count = len(list(same))
        halves[2 * i + 1] -= count
        halves[2 * i - 1] += count
    return halves


def _from_halves(halves) -> HalfLaurent:
    """The HalfLaurent with coefficient c/2 at each exponent e of {e: c}.
    The terms are built here already clean (integer exponents, nonzero
    Fractions), so HalfLaurent does not normalize them again."""
    iq = HalfLaurent()
    iq.terms = {e: Fraction(c, 2) for e, c in halves.items() if c}
    return iq


def iq_topological(profile: SubsurfaceProfile) -> HalfLaurent:
    """I_q from the subsurface profile (the finite topological form)."""
    halves = _spike_halves(profile.crossing_indices)
    for twice_j, a in profile.a_j.items():
        halves[twice_j] += 2 * a
    return _from_halves(halves)


def iq_euler(smoothed: SmoothedProfile, crossing_indices) -> HalfLaurent:
    """I_q as an Euler-characteristic integral over the smoothed curve."""
    halves = _spike_halves(crossing_indices)
    levels = smoothed.level_chi
    total = sum(levels.values())
    below = 0                                   # sum of level_chi[i], i <= k
    for k in range(min([0, *levels]), max([0, *levels])):
        below += levels.get(k, 0)
        halves[2 * k + 1] += 2 * (total - below if k >= 0 else -below)
    return _from_halves(halves)


def change_base(iq: HalfLaurent, C: int, chi_s: int) -> HalfLaurent:
    """Base-point change by an integer index offset C:
    q^C * I_q + chi(S) * (q^C - 1)/(q^(1/2) - q^(-1/2))."""
    C = int(C)
    shifted = laurent.mul_monomial(iq, 1, 2 * C)
    return laurent.add(shifted, laurent.mul_monomial(laurent.geom_div(C), chi_s, 0))


def rotation_number(i1, chi_s: int):
    """(value, modulus): the rotation number is i1 exactly on the torus and
    i1 mod |chi(S)| otherwise; modulus 0 encodes the exact case."""
    modulus = 0 if chi_s == 0 else abs(chi_s)
    return int(i1), modulus


def jplus(i1, i1_prime, chi_s: int) -> Fraction:
    """J+ = I1^2/chi(S) - 2 I1' + 1, defined only for chi(S) != 0."""
    if chi_s == 0:
        raise ChiZero("J+ is undefined via this formula when chi(S) = 0")
    return Fraction(int(i1) ** 2, chi_s) - 2 * Fraction(i1_prime) + 1


def jminus(jplus_value, n: int) -> Fraction:
    """J- = J+ - n, with n the number of double points."""
    return Fraction(jplus_value) - n


def viro_jminus(smoothed: SmoothedProfile, m1, chi_s: int) -> Fraction:
    """J- computed independently from the centered rational index function.

    The unique rational index function of the smoothed curve with vanishing
    Euler-characteristic integral is ind - m1/chi(S); J- is one minus the
    integral of its square, kept over the common denominator chi(S)^2:
    (chi^2 - sum_i (chi i - m1)^2 level_chi[i]) / chi^2.
    """
    if chi_s == 0:
        raise ChiZero("the centered index function needs chi(S) != 0")
    m1 = int(m1)
    spread = sum((chi_s * i - m1) ** 2 * chi for i, chi in smoothed.level_chi.items())
    return Fraction(chi_s * chi_s - spread, chi_s * chi_s)


def sjplus(jplus_value, chi_s: int) -> Fraction:
    """The spherical J+ invariant; on the sphere it equals J+."""
    if chi_s != 2:
        raise NotSphere(f"SJ+ requires chi(S) = 2, got {chi_s}")
    return Fraction(jplus_value)


def iq_rational_eval(iq: HalfLaurent, C, chi_s: int, q: float) -> float:
    """Numeric I_q after a rational index shift C, evaluated pointwise at a
    finite q > 0.

    Uses the shift law q^C I_q + chi(S) (q^C - 1)/(q^(1/2) - q^(-1/2));
    the q = 1 value is the removable-singularity limit I_1 + C chi(S).
    Non-integer C does not stay in the half-integer Laurent ring, which is
    why this is a pointwise evaluation rather than a HalfLaurent.  A power
    of q or a value that overflows a float raises QOverflow.
    """
    if not 0 < q < math.inf:
        raise NonPositiveQ(f"q must be finite and positive, got {q}")
    C = Fraction(C)
    if q == 1:
        try:
            return float(laurent.value_at_1(iq) + C * chi_s)
        except OverflowError:
            raise QOverflow(f"q = {q}: the value I_1 + C chi(S) overflows a float") from None
    try:
        qc = float(q) ** float(C)
    except OverflowError:
        raise QOverflow(f"q = {q}: the shift q^{_brief(C)} overflows a float") from None
    denom = q ** 0.5 - q ** -0.5
    value = qc * laurent.eval_real(iq, q) + chi_s * (qc - 1.0) / denom
    if not math.isfinite(value):
        raise QOverflow(f"q = {q}: the shifted value overflows a float")
    return value


def _brief(c):
    """The Fraction c as a message shows it: in full up to 30 characters,
    else as C with the digit counts of its numerator and denominator."""
    text = str(c)
    if len(text) <= 30:
        return text
    digits = str(len(str(abs(c.numerator))))
    if c.denominator != 1:
        digits += f"/{len(str(c.denominator))}"
    return f"C (C has {digits} digits)"


@dataclass(frozen=True)
class InvariantReport:
    """All invariants of one (diagram, base region) pair.

    jplus/jminus/sjplus are None when undefined, with the reason recorded
    ('chi_zero' for the torus formulas, 'not_sphere' for SJ+).
    """

    iq: HalfLaurent
    i1: int
    i1_prime: Fraction
    rotation: tuple
    jplus: Fraction | None
    jminus: Fraction | None
    sjplus: Fraction | None
    jplus_reason: str | None
    sjplus_reason: str | None
    crossing_count: int
    chi_s: int
    base_region: int


def full_report(diagram: CurveDiagram, base_region=None) -> InvariantReport:
    """Compute everything for one base region, cross-checking the two exact
    I_q routes and the two J- routes along the way."""
    if base_region is None:
        base_region = diagram.base_region
    _ind, profile, smoothed = report_ingredients(diagram, base_region)
    iq = iq_topological(profile)
    iq2 = iq_euler(smoothed, profile.crossing_indices)
    if iq != iq2:
        raise CrossCheckFailed("I_q topological vs euler", iq, iq2,
                               serialize_diagram(diagram))
    m1, m2 = euler_moments(smoothed)
    # every coefficient is a half-integer c/2, so I_1 = sum(c) / 2 and
    # I_1' = sum(e c) / 4 over the exponents e in half-units
    twice_i1 = quad_i1p = 0
    for e, coeff in iq.terms.items():
        num, den = coeff.as_integer_ratio()
        c = 2 * num // den
        twice_i1 += c
        quad_i1p += e * c
    n = diagram.n
    if twice_i1 != 2 * m1:
        raise CrossCheckFailed("I_1 vs Euler moment m1", Fraction(twice_i1, 2), m1,
                               serialize_diagram(diagram))
    i1 = twice_i1 // 2
    i1p = Fraction(quad_i1p, 4)
    i1p_moments = Fraction(m2 - n, 2)
    if i1p != i1p_moments:
        raise CrossCheckFailed("I_1' vs -n/2 + m2/2", i1p, i1p_moments,
                               serialize_diagram(diagram))
    chi_s = diagram.surface_chi
    rotation = rotation_number(i1, chi_s)
    jp = jm = sj = None
    jp_reason = sj_reason = None
    if chi_s == 0:
        jp_reason = "chi_zero"
        sj_reason = "chi_zero"
    else:
        jp = jplus(i1, i1p, chi_s)
        jm = jminus(jp, n)
        jm_viro = viro_jminus(smoothed, m1, chi_s)
        if jm_viro != jm:
            raise CrossCheckFailed("J- Viro vs J+ - n", jm_viro, jm,
                                   serialize_diagram(diagram))
        if chi_s == 2:
            sj = sjplus(jp, chi_s)
        else:
            sj_reason = "not_sphere"
    report = InvariantReport(
        iq=iq, i1=i1, i1_prime=i1p, rotation=rotation,
        jplus=jp, jminus=jm, sjplus=sj,
        jplus_reason=jp_reason, sjplus_reason=sj_reason,
        crossing_count=n, chi_s=chi_s, base_region=base_region,
    )
    return report


def report_ingredients(diagram: CurveDiagram, base_region=None):
    """(index function, profile, smoothed profile) for one base region."""
    ind = index_function(diagram, base_region)
    profile = subsurface_profile(diagram, ind)
    smoothed = smoothed_level_chi(profile)
    return ind, profile, smoothed


__all__ = [
    "InvariantReport",
    "change_base",
    "full_report",
    "iq_euler",
    "iq_rational_eval",
    "iq_topological",
    "jminus",
    "jplus",
    "report_ingredients",
    "rotation_number",
    "sjplus",
    "viro_jminus",
]
