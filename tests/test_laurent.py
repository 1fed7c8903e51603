from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from curveinv import laurent
from curveinv.errors import NonPositiveQ, QOverflow
from curveinv.laurent import HalfLaurent


def hl(**terms):
    """Shorthand: hl(m1=Fraction(1,2), ...) with keys e<half-units>."""
    return HalfLaurent({int(k[1:]) * (-1 if k[0] == "m" else 1): v
                        for k, v in terms.items()})


Q_HALF = HalfLaurent({1: 1})          # q^(1/2)
Q_MINUS_HALF = HalfLaurent({-1: 1})   # q^(-1/2)
BASE = HalfLaurent({1: 1, -1: -1})    # q^(1/2) - q^(-1/2)


def product(a, b):
    """Reference product, term by term (the library keeps no general product)."""
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            terms[ea + eb] = terms.get(ea + eb, 0) + ca * cb
    return HalfLaurent(terms)


def negated(a):
    return HalfLaurent({e: -c for e, c in a.terms.items()})


def test_add_examples():
    assert laurent.add(Q_HALF, HalfLaurent({1: -1})).is_zero()
    assert laurent.add(Q_HALF, Q_HALF) == HalfLaurent({1: 2})
    diff = laurent.add(Q_HALF, HalfLaurent({-1: -1}))
    assert diff == BASE
    assert laurent.add(diff, Q_MINUS_HALF) == Q_HALF


def test_mul_monomial_examples():
    assert laurent.mul_monomial(Q_HALF, 1, -2) == Q_MINUS_HALF
    half_diff = laurent.mul_monomial(BASE, Fraction(1, 2), 0)
    assert half_diff == HalfLaurent({1: Fraction(1, 2), -1: Fraction(-1, 2)})
    assert laurent.mul_monomial(half_diff, 1, -2) == HalfLaurent(
        {-1: Fraction(1, 2), -3: Fraction(-1, 2)}
    )


def test_geom_div_examples():
    assert laurent.geom_div(0).is_zero()
    assert laurent.geom_div(1) == Q_HALF
    assert laurent.geom_div(-1) == HalfLaurent({-1: -1})
    # multiply-back oracle for the small cases
    assert product(laurent.geom_div(1), BASE) == HalfLaurent({2: 1, 0: -1})
    assert product(laurent.geom_div(-1), BASE) == HalfLaurent({-2: 1, 0: -1})


@pytest.mark.parametrize("v", range(-8, 9))
def test_geom_div_identity(v):
    expected = HalfLaurent({2 * v: 1, 0: -1}) if v != 0 else HalfLaurent()
    assert product(laurent.geom_div(v), BASE) == expected


def test_value_at_1():
    assert laurent.value_at_1(Q_HALF) == 1
    half_diff = HalfLaurent({1: Fraction(1, 2), -1: Fraction(-1, 2)})
    assert laurent.value_at_1(half_diff) == 0
    assert laurent.value_at_1(HalfLaurent({4: 3, -2: 1})) == 4


def test_derivative_at_1():
    assert laurent.derivative_at_1(Q_HALF) == Fraction(1, 2)
    half_diff = HalfLaurent({1: Fraction(1, 2), -1: Fraction(-1, 2)})
    assert laurent.derivative_at_1(half_diff) == Fraction(1, 2)
    assert laurent.derivative_at_1(HalfLaurent({0: 5})) == 0


def test_eval_real():
    assert laurent.eval_real(Q_HALF, 4.0) == 2.0
    half_diff = HalfLaurent({1: Fraction(1, 2), -1: Fraction(-1, 2)})
    assert laurent.eval_real(half_diff, 4.0) == pytest.approx(0.75, abs=1e-15)
    for poly in (Q_HALF, half_diff, HalfLaurent({4: 3, -2: 1})):
        assert laurent.eval_real(poly, 1.0) == pytest.approx(
            float(laurent.value_at_1(poly)), abs=1e-15
        )


@pytest.mark.parametrize("q", [1e-300, 1e300])
def test_eval_real_names_a_q_whose_powers_overflow(q):
    # q^(-39/2) at q = 1e-300 and q^(39/2) at q = 1e300 leave the float
    # range; before, a bare OverflowError
    for e in (-39, 39):
        poly = HalfLaurent({e: 1, 0: 2})
        if (e < 0) == (q < 1):
            with pytest.raises(QOverflow, match="overflows a float"):
                laurent.eval_real(poly, q)
        else:
            assert laurent.eval_real(poly, q) == 2.0


@pytest.mark.parametrize("poly, q", [
    (HalfLaurent({2: 10**10}), 1e300),           # a term beyond the float range
    (HalfLaurent({0: 10**308, 2: 1}), 1e308),    # two terms whose sum is
])
def test_eval_real_names_a_sum_that_overflows(poly, q):
    # every power q^(e/2) is finite; before, the value was inf
    with pytest.raises(QOverflow) as exc:
        laurent.eval_real(poly, q)
    assert str(exc.value) == f"q = {q}: the sum of the polynomial's terms overflows a float"


@pytest.mark.parametrize("poly, q, power", [
    (HalfLaurent({2: 10**400}), 2.0, "q^1"),
    (HalfLaurent({0: 1, -3: Fraction(10**400, 3)}), 0.5, "q^(-3/2)"),
])
def test_eval_real_names_a_coefficient_that_overflows(poly, q, power):
    # before, the message named a power q^(e/2), which was finite
    with pytest.raises(QOverflow) as exc:
        laurent.eval_real(poly, q)
    assert str(exc.value) == f"q = {q}: the coefficient of {power} overflows a float"


def test_eval_real_rejects_nonpositive_q():
    with pytest.raises(NonPositiveQ):
        laurent.eval_real(Q_HALF, 0.0)
    with pytest.raises(NonPositiveQ):
        laurent.eval_real(Q_HALF, -2.0)


@pytest.mark.parametrize("q", [float("inf"), float("nan"), float("-inf")])
def test_eval_real_rejects_a_q_that_is_not_finite(q):
    # nan slipped past a q <= 0 test and gave nan, inf gave inf
    with pytest.raises(NonPositiveQ) as exc:
        laurent.eval_real(Q_HALF, q)
    assert str(exc.value) == f"q must be finite and positive, got {q}"


FIXTURE_POLYS = [
    HalfLaurent(),
    Q_HALF,
    HalfLaurent({1: Fraction(1, 2), -1: Fraction(-1, 2)}),
    HalfLaurent({-3: Fraction(-1, 2), -1: Fraction(-3, 2)}),
    HalfLaurent({0: 5}),
    HalfLaurent({4: 3, -2: 1, 1: Fraction(-7, 3)}),
]


@pytest.mark.parametrize("q", [0.5, 2.0])
def test_eval_additivity(q):
    for a in FIXTURE_POLYS:
        for b in FIXTURE_POLYS:
            lhs = laurent.eval_real(laurent.add(a, b), q)
            rhs = laurent.eval_real(a, q) + laurent.eval_real(b, q)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_derivative_matches_finite_difference():
    h = 1e-6
    for poly in FIXTURE_POLYS:
        fd = (laurent.eval_real(poly, 1 + h) - laurent.eval_real(poly, 1 - h)) / (2 * h)
        assert abs(fd - float(laurent.derivative_at_1(poly))) < 1e-5


def test_canonical_zero():
    for poly in FIXTURE_POLYS:
        assert laurent.add(poly, negated(poly)).terms == {}


def test_render():
    assert str(HalfLaurent()) == "0"
    assert str(Q_HALF) == "q^(1/2)"
    assert str(HalfLaurent({1: Fraction(1, 2), -1: Fraction(-1, 2)})) == (
        "-1/2*q^(-1/2) + 1/2*q^(1/2)"
    )
    assert str(HalfLaurent({4: 3, -2: 1})) == "q^(-1) + 3*q^2"
    assert str(HalfLaurent({0: Fraction(5, 3)})) == "5/3"


coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
polys = st.dictionaries(st.integers(-8, 8), coeffs, max_size=6).map(HalfLaurent)


@given(polys, polys)
def test_add_commutes(a, b):
    assert laurent.add(a, b) == laurent.add(b, a)


@given(polys, polys, polys)
def test_add_associates(a, b, c):
    assert laurent.add(laurent.add(a, b), c) == laurent.add(a, laurent.add(b, c))


@given(polys, st.integers(-6, 6))
def test_monomial_shift_roundtrip(a, shift):
    shifted = laurent.mul_monomial(a, 1, shift)
    assert laurent.mul_monomial(shifted, 1, -shift) == a
