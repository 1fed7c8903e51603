"""Exact Laurent polynomials in a half-integer power of q.

A HalfLaurent stores a sparse map  {e: c}  representing the sum of terms
c * q^(e/2) with integer e and nonzero rational c.  Every exponent the
curve invariants need lies in (1/2)Z, so exponents are kept as integers
counting half-units; this makes equality testing exact and canonical.
Coefficients are fractions.Fraction throughout.

The zero polynomial has an empty term map.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NonPositiveQ, QOverflow


class HalfLaurent:
    """Sparse Laurent polynomial in q^(1/2) with rational coefficients.

    Immutable by convention: no method mutates self, all operations return
    new values, so instances are safe to share between threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """terms: map {exponent-in-half-units: coefficient}; zeros are dropped."""
        clean = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return add(self, other)

    def __repr__(self):
        return f"HalfLaurent({self})"

    def __str__(self):
        return render(self)


def add(a: HalfLaurent, b: HalfLaurent) -> HalfLaurent:
    """Termwise sum in canonical form."""
    terms = dict(a.terms)
    for e, c in b.terms.items():
        s = terms.get(e, Fraction(0)) + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return HalfLaurent(terms)


def mul_monomial(a: HalfLaurent, coeff, shift: int) -> HalfLaurent:
    """Multiply by coeff * q^(shift/2): scale every coefficient, shift every
    exponent by `shift` half-units."""
    coeff = Fraction(coeff)
    if coeff == 0:
        return HalfLaurent.zero()
    return HalfLaurent({e + shift: c * coeff for e, c in a.terms.items()})


def geom_div(v: int) -> HalfLaurent:
    """(q^v - 1) / (q^(1/2) - q^(-1/2)) in closed form, for integer v.

    Returns sum_{k=0}^{v-1} q^(k+1/2) for v > 0, zero for v = 0, and
    -sum_{k=0}^{-v-1} q^(-k-1/2) for v < 0.  Multiplying the result back
    by (q^(1/2) - q^(-1/2)) recovers q^v - 1 exactly.
    """
    v = int(v)
    if v == 0:
        return HalfLaurent.zero()
    if v > 0:
        return HalfLaurent({2 * k + 1: Fraction(1) for k in range(v)})
    return HalfLaurent({-(2 * k + 1): Fraction(-1) for k in range(-v)})


def value_at_1(a: HalfLaurent) -> Fraction:
    """Value at q = 1: the sum of the coefficients."""
    return sum(a.terms.values(), Fraction(0))


def derivative_at_1(a: HalfLaurent) -> Fraction:
    """d/dq at q = 1: sum of c * (e/2) over the stored terms."""
    return sum((c * Fraction(e, 2) for e, c in a.terms.items()), Fraction(0))


def eval_real(a: HalfLaurent, q: float) -> float:
    """Numeric value at a finite real q > 0, summed in ascending exponent
    order; QOverflow where a coefficient, a power q^(e/2) or the sum
    overflows a float."""
    if not 0 < q < math.inf:
        raise NonPositiveQ(f"q must be finite and positive, got {q}")
    sqrt_q = float(q) ** 0.5
    total = 0.0
    for e in sorted(a.terms):
        try:
            c = float(a.terms[e])
        except OverflowError:
            raise QOverflow(f"q = {q}: the coefficient of {_render_exponent(e)} "
                            "overflows a float") from None
        try:
            total += c * sqrt_q ** e
        except OverflowError:
            raise QOverflow(f"q = {q}: a power q^(e/2) of the polynomial overflows a float") from None
    if not math.isfinite(total):
        raise QOverflow(f"q = {q}: the sum of the polynomial's terms overflows a float")
    return total


def _render_exponent(e: int) -> str:
    """Exponent e/2 as a reduced fraction: q^2, q^(1/2), q^(-1), q^(-3/2)."""
    if e % 2 == 0:
        k = e // 2
        return f"q^{k}" if k > 0 else f"q^({k})"
    sign = "-" if e < 0 else ""
    return f"q^({sign}{abs(e)}/2)"


def render(a: HalfLaurent) -> str:
    """Canonical string: terms ascending by exponent, exact rationals."""
    if a.is_zero():
        return "0"
    parts = []
    for e in sorted(a.terms):
        c = a.terms[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif mag == 1:
            body = _render_exponent(e)
        else:
            body = f"{mag}*{_render_exponent(e)}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
