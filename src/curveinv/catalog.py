"""Built-in fixtures: diagram files and parametric curves.

Diagram fixtures are file-format texts; parametric fixtures package a curve
together with its default base point and the tolerance its numeric results
are expected to meet against the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import parse_diagram

DIAGRAM_FIXTURES = {
    # embedded counterclockwise circle on the sphere, base outside
    "circle_sphere": "curve -\nbase 1\n",
    # one-crossing figure eight on the sphere, base in the two-corner region
    "figure8_sphere": "curve 1+ 1+\nbase 0\n",
    # contractible counterclockwise circle on the torus, base outside the disk
    "circle_torus": (
        "surface genus=1\n"
        "curve -\n"
        "region 0 genus=0 cycles=0\n"
        "region 1 genus=1 cycles=1\n"
        "base 1\n"
    ),
    # non-bounding circle on the torus: both sides lie in one region
    "essential_torus_circle": (
        "surface genus=1\n"
        "curve -\n"
        "region 0 genus=0 cycles=0,1\n"
        "base 0\n"
    ),
}


@dataclass(frozen=True)
class ParametricFixture:
    name: str
    curve: object
    base_point: tuple
    tolerance: float
    params: dict


def parametric_fixture(name: str, **params) -> ParametricFixture:
    """Construct a named parametric fixture.

    great_circle            the equator, base at the south pole
    latitude [alpha]        circle at colatitude alpha (default pi/3)
    circle_torus [rho]      chart circle of radius rho (default 0.2)
    figure8_sphere_param    tilted spherical figure eight

    The curves come from geometry, imported here so that the exact path
    never loads numpy.
    """
    from .geometry import GreatCircle, LatitudeCircle, SphereFigureEight, TorusCircle

    if name == "great_circle":
        fx = ParametricFixture(name, GreatCircle(), (0.0, 0.0, -1.0), 5e-3, {})
    elif name == "latitude":
        alpha = float(params.pop("alpha", math.pi / 3))
        fx = ParametricFixture(
            name, LatitudeCircle(alpha), (0.0, 0.0, -1.0), 5e-3, {"alpha": alpha}
        )
    elif name == "circle_torus":
        rho = float(params.pop("rho", 0.2))
        fx = ParametricFixture(
            name, TorusCircle(rho), (0.05, 0.05), 1e-6, {"rho": rho}
        )
    elif name == "figure8_sphere_param":
        fx = ParametricFixture(
            name, SphereFigureEight(), (-1.0, 0.0, 0.0), 1e-2, {}
        )
    else:
        raise KeyError(f"unknown parametric fixture {name!r}")
    if params:
        raise ValueError(
            f"fixture {name!r} takes no parameter {', '.join(sorted(params))}"
        )
    return fx


PARAMETRIC_NAMES = ("great_circle", "latitude", "circle_torus", "figure8_sphere_param")


def diagram_fixture(name: str):
    return parse_diagram(DIAGRAM_FIXTURES[name])


def validate_catalog():
    """Every diagram fixture parses; every parametric fixture is an immersion
    lying on its surface, as surface.place reads its points (on the sphere,
    each of norm 1 within 1e-9; else InvalidBasePoint)."""
    import numpy as np

    for name in DIAGRAM_FIXTURES:
        diagram_fixture(name)
    for name in PARAMETRIC_NAMES:
        fx = parametric_fixture(name)
        ts = np.arange(512) / 512
        pts, vel = fx.curve.jet(ts, 1)
        speed = np.linalg.norm(vel, axis=-1)
        if speed.min() <= 0:
            raise ValueError(f"{name}: not an immersion")
        fx.curve.surface.place(pts, f"{name}: curve point")
    return True
