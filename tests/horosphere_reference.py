"""Object-based horosphere geometry: the reference for the float crossings.

``horoball_at`` builds a ball from its type parameter s, and
``reference_crossing`` finds where the ray from a ball's centre toward a
target meets its horosphere, on ProjectivePoints and the pencil form.
``horopack.horoball.ray_crossing`` reads the same point off the Lorentz form;
tests pin the two to each other exactly.  The sector volumes themselves are
checked against the cusp-cone integral of ``cusp_cones``.
"""

from __future__ import annotations

import math

from horopack.horoball import Horoball, horoball_level, pencil_value
from horopack.lorentz import GeometryError, ProjectivePoint, as_vector, bilinear_form


def horoball_at(center, s: float) -> Horoball:
    """Horoball from its ideal center and type parameter -1 < s < 1."""
    s = float(s)
    if not -1.0 < s < 1.0:
        raise GeometryError(f"type parameter s = {s} must lie in (-1, 1)")
    return horoball_level(center, math.sqrt((1.0 - s) / (1.0 + s)))


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
