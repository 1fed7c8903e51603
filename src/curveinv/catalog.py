"""Built-in fixtures: diagram files and parametric curves.

Diagram fixtures are file-format texts; parametric fixtures package a curve
together with its default base point and the tolerance its numeric results
are expected to meet against the exact path.
"""

from __future__ import annotations

import math
from collections import namedtuple
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


# a row: the curve's class in geometry, the (name, default) of its one
# parameter or None, the base point and the tolerance
_Row = namedtuple("_Row", "curve param base_point tolerance")


# one row per parametric fixture; a new fixture is a new row
PARAMETRIC = {
    # the equator, base at the south pole
    "great_circle": _Row("GreatCircle", None, (0.0, 0.0, -1.0), 5e-3),
    # circle at colatitude alpha
    "latitude": _Row("LatitudeCircle", ("alpha", math.pi / 3), (0.0, 0.0, -1.0), 5e-3),
    # chart circle of radius rho
    "circle_torus": _Row("TorusCircle", ("rho", 0.2), (0.05, 0.05), 1e-6),
    # tilted spherical figure eight
    "figure8_sphere_param": _Row("SphereFigureEight", None, (-1.0, 0.0, 0.0), 1e-2),
}

PARAMETRIC_NAMES = tuple(PARAMETRIC)


def parametric_fixture(name: str, **params) -> ParametricFixture:
    """Construct a named parametric fixture from its row of PARAMETRIC: an
    unknown name raises KeyError, the curve's own ValueError comes before
    one for a parameter that the fixture does not take.

    The curves come from geometry, imported here so that the exact path
    never loads numpy.
    """
    from . import geometry

    if name not in PARAMETRIC:
        raise KeyError(f"unknown parametric fixture {name!r}")
    row = PARAMETRIC[name]
    args = {}
    if row.param is not None:
        key, default = row.param
        args[key] = float(params.pop(key, default))
    curve = getattr(geometry, row.curve)(**args)
    if params:
        raise ValueError(f"fixture {name!r} takes no parameter {', '.join(sorted(params))}")
    return ParametricFixture(name, curve, row.base_point, row.tolerance, args)


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
