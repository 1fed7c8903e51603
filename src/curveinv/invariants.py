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

Evaluations at q = 1 give the rotation number (mod |chi(S)| unless the
surface is the torus) and, for chi(S) != 0, the J+ and J- invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import laurent
from .diagram import (
    CurveDiagram,
    SmoothedProfile,
    SubsurfaceProfile,
    arc_and_crossing_indices,
    euler_moments,
    index_function,
    serialize_diagram,
    smoothed_level_chi,
    subsurface_profile,
)
from .errors import ChiZero, CrossCheckFailed, NonPositiveQ, NotSphere
from .laurent import HalfLaurent


def iq_topological(profile: SubsurfaceProfile) -> HalfLaurent:
    """I_q from the subsurface profile (the finite topological form)."""
    terms = {}
    for twice_j, a in profile.a_j.items():
        if a != 0:
            terms[twice_j] = terms.get(twice_j, Fraction(0)) + a
    out = HalfLaurent(terms)
    for i in profile.crossing_indices:
        spike = HalfLaurent({2 * i + 1: Fraction(-1, 2), 2 * i - 1: Fraction(1, 2)})
        out = laurent.add(out, spike)
    return out


def iq_euler(smoothed: SmoothedProfile, crossing_indices) -> HalfLaurent:
    """I_q as an Euler-characteristic integral over the smoothed curve."""
    out = HalfLaurent.zero()
    for i in crossing_indices:
        spike = HalfLaurent({2 * i + 1: Fraction(-1, 2), 2 * i - 1: Fraction(1, 2)})
        out = laurent.add(out, spike)
    for i, chi in sorted(smoothed.level_chi.items()):
        if chi != 0:
            out = laurent.add(out, laurent.mul_monomial(laurent.geom_div(i), chi, 0))
    return out


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
    integral of its square.
    """
    if chi_s == 0:
        raise ChiZero("the centered index function needs chi(S) != 0")
    c0 = -Fraction(int(m1), chi_s)
    total = Fraction(0)
    for i, chi in smoothed.level_chi.items():
        total += (i + c0) ** 2 * chi
    return 1 - total


def sjplus(jplus_value, chi_s: int) -> Fraction:
    """The spherical J+ invariant; on the sphere it equals J+."""
    if chi_s != 2:
        raise NotSphere(f"SJ+ requires chi(S) = 2, got {chi_s}")
    return Fraction(jplus_value)


def iq_rational_eval(iq: HalfLaurent, C, chi_s: int, q: float) -> float:
    """Numeric I_q after a rational index shift C, evaluated pointwise.

    Uses the shift law q^C I_q + chi(S) (q^C - 1)/(q^(1/2) - q^(-1/2));
    the q = 1 value is the removable-singularity limit I_1 + C chi(S).
    Non-integer C does not stay in the half-integer Laurent ring, which is
    why this is a pointwise evaluation rather than a HalfLaurent.
    """
    if q <= 0:
        raise NonPositiveQ(f"q must be positive, got {q}")
    C = Fraction(C)
    if q == 1:
        return float(laurent.value_at_1(iq) + C * chi_s)
    qc = float(q) ** float(C)
    denom = q ** 0.5 - q ** -0.5
    return qc * laurent.eval_real(iq, q) + chi_s * (qc - 1.0) / denom


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
    i1 = laurent.value_at_1(iq)
    i1p = laurent.derivative_at_1(iq)
    n = diagram.n
    if i1 != m1:
        raise CrossCheckFailed("I_1 vs Euler moment m1", i1, m1,
                               serialize_diagram(diagram))
    i1p_moments = Fraction(-n, 1) / 2 + Fraction(m2, 2)
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
        iq=iq, i1=int(i1), i1_prime=i1p, rotation=rotation,
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
    "arc_and_crossing_indices",
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
