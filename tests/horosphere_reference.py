"""Object-based horosphere geometry: the reference for the float sector kernel.

``horoball_at`` builds a ball from its type parameter s,
``horospheric_chord_length`` measures the intrinsic chord of two surface
points from ProjectivePoints and the Lorentz form, and ``heron_area`` is the
area of a horospheric triangle from its sides.  ``reference_fan`` fans them
over the ``reference_crossing`` points of a cone's rays, and
``reference_sector`` over a cell vertex's cone, giving the sector volume at
one level, which ``horopack.horoball`` reads off the Lorentz form without
any crossing; tests compare the two to a relative tolerance (the fan's
chords cancel in cosh d - 1 below about 0.1 H_v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from horopack.horoball import Horoball, horoball_level, pencil_value
from horopack.lorentz import GeometryError, ProjectivePoint, as_vector, bilinear_form

# Absolute tolerance on the pencil form Q at chart-normalized points deciding
# "on the horosphere".
SURFACE_TOL = 1e-9


def horoball_at(center, s: float) -> Horoball:
    """Horoball from its ideal center and type parameter -1 < s < 1."""
    s = float(s)
    if not -1.0 < s < 1.0:
        raise GeometryError(f"type parameter s = {s} must lie in (-1, 1)")
    return horoball_level(center, math.sqrt((1.0 - s) / (1.0 + s)))


def _chartify(x):
    v = as_vector(x)
    return v / v[0]


def horospheric_chord_length(hb: Horoball, p, q) -> float:
    """Intrinsic horospherical distance 2 sinh(d(p,q)/2) of two surface points."""
    for x in (p, q):
        if abs(pencil_value(hb, _chartify(x))) > SURFACE_TOL:
            raise GeometryError("point is not on the horosphere")
    pv, qv = _chartify(p), _chartify(q)
    pp, qq = bilinear_form(pv, pv), bilinear_form(qv, qv)
    if pp >= 0 or qq >= 0:
        raise GeometryError("chord endpoints must be interior points")
    cosh_d = abs(bilinear_form(pv, qv)) / math.sqrt(pp * qq)
    return math.sqrt(max(2.0 * (cosh_d - 1.0), 0.0))


@dataclass(frozen=True)
class HorosphericTriangle:
    """Side lengths in the intrinsic (Euclidean) horospherical metric."""

    a: float
    b: float
    c: float


def heron_area(tri: HorosphericTriangle) -> float:
    a, b, c = tri.a, tri.b, tri.c
    slack = 1e-12 * max(a, b, c, 1.0)
    if a + b < c - slack or b + c < a - slack or c + a < b - slack:
        raise GeometryError(f"triangle inequality violated: {(a, b, c)}")
    p = 0.5 * (a + b + c)
    return math.sqrt(max(p * (p - a) * (p - b) * (p - c), 0.0))


def reference_crossing(hb, target) -> ProjectivePoint:
    w = as_vector(target)
    kappa = -bilinear_form(hb.center, w)
    if kappa <= 0.0:
        raise GeometryError("ray target is not on the interior side of the center")
    qw = pencil_value(hb, w)
    if abs(qw) < 1e-300:
        return ProjectivePoint(w).chart_normalized()
    mu = 2.0 * hb.h * hb.h * kappa / qw
    return ProjectivePoint(hb.center.coords + mu * w).chart_normalized()


def reference_fan(hb, targets) -> float:
    crossings = [reference_crossing(hb, t) for t in targets]
    total = 0.0
    for t in range(1, len(crossings) - 1):
        total += heron_area(
            HorosphericTriangle(
                horospheric_chord_length(hb, crossings[0], crossings[t]),
                horospheric_chord_length(hb, crossings[t], crossings[t + 1]),
                horospheric_chord_length(hb, crossings[0], crossings[t + 1]),
            )
        )
    return 0.5 * total


def reference_sector(cell, vertex: int, h: float) -> float:
    hb = horoball_level(cell.vertices[vertex], h)
    return reference_fan(hb, [cell.vertices[j] for j in cell.neighbors[vertex]])
