"""The differential-geometry route, cross-validated against the exact one.
==========================================================================

On a concrete surface (round sphere, flat torus) I_q has an integral
definition: geodesic curvature weighted by q^(index) along the curve, a
crossing-angle term, and a Gaussian-curvature area term.  Its value must
not depend on the metric, so quadrature on the sphere and the exact
combinatorics of the extracted diagram have to agree.
"""

import math

from curveinv import laurent, full_report
from curveinv.catalog import parametric_fixture
from curveinv.geometry import (
    NumericConfig,
    NumericContext,
    extract_diagram,
    gauss_bonnet_region_check,
    numeric_i1,
    numeric_iq,
    numeric_jplus,
)

cfg = NumericConfig()   # the default grid

for name, kwargs in (
    ("latitude", {"alpha": math.pi / 3}),
    ("great_circle", {}),
    ("circle_torus", {"rho": 0.2}),
    ("figure8_sphere_param", {}),
):
    fx = parametric_fixture(name, **kwargs)
    ctx = NumericContext(fx.curve, fx.base_point, cfg)
    diagram, base = extract_diagram(fx.curve, fx.base_point, cfg, context=ctx)
    exact = full_report(diagram, base)
    print(f"\n{name} {fx.params or ''}")
    print(f"  extracted code: {diagram.code.visits or 'embedded circle'},"
          f" chi(S) = {diagram.surface_chi}")
    print(f"  exact I_q = {exact.iq}")
    for q in (0.5, 2.0, 3.0):
        numeric = numeric_iq(fx.curve, fx.base_point, [q], cfg, context=ctx)[0]
        reference = laurent.eval_real(exact.iq, q)
        print(f"  q = {q:<4}: quadrature {numeric: .8f}"
              f"  exact {reference: .8f}  |diff| = {abs(numeric - reference):.2e}")
    i1 = numeric_i1(fx.curve, fx.base_point, cfg, context=ctx)
    print(f"  rotation number: quadrature {i1: .8f}  exact {exact.i1}")
    if fx.curve.surface.chi != 0:
        jp = numeric_jplus(fx.curve, fx.base_point, cfg, context=ctx)
        print(f"  J+: quadrature {jp: .8f}  exact {float(exact.jplus)}")

# The identity behind the invariance proof: for each half-integer level j,
# 2 pi chi(S_j) equals the total curvature of the subsurface above j
# (area + boundary geodesic curvature + corner angles).
print("\nper-level Gauss-Bonnet on the spherical figure-eight:")
fx = parametric_fixture("figure8_sphere_param")
ctx = NumericContext(fx.curve, fx.base_point, cfg)
extracted = extract_diagram(fx.curve, fx.base_point, cfg, context=ctx)
from fractions import Fraction

for twice_j in (-3, -1, 1, 3):
    j = Fraction(twice_j, 2)
    lhs, rhs = gauss_bonnet_region_check(
        fx.curve, fx.base_point, j, cfg, context=ctx, extracted=extracted
    )
    print(f"  j = {str(j):>4}: 2 pi chi(S_j) = {lhs: .6f},"
          f" curvature total = {rhs: .6f}")
