"""Balls in cones from their cusp: the one oracle for the sector law C h^2.
It reads only chart points (and a cell's vertices and faces), and no
horopack code.

A cone from the cusp a (|a| = 1) over a convex polygon is the union of the
rays p = a + tau e, e = q - a, through the polygon's points q.  There
1 - |p|^2 = tau (d - tau |e|^2) with d = 2 (1 - a.q), and the cone over a
fan triangle (q0, q1, q2) of the polygon has dp = tau^2 D dtau du dv with
D = |det(q1 - q0, q2 - q0, q0 - a)|.  The convex ball of level h,
(1 - p.a)^2 <= h^2 (1 - |p|^2), has a on its boundary and holds the ray up
to tau_e = d / (d^2 / (4 h^2) + |e|^2), so the ray carries
tau_e / (d (d - tau_e |e|^2)) = 4 h^2 / d^3 of it: ``cone_coefficient`` is
the integral of 4 D / d^3 over the fan, C in Vol(B(h) ∩ cone) = C h^2 for
targets q that are ideal or interior.  ``ball_volume`` cones a cell's faces
that do not hold a, and cuts each ray at the face with tau = min(tau_e, 1),
so it gives Vol(B(h) ∩ cell) at any level.  Both sum the rays over each fan
triangle with one Duffy-collapsed Gauss-Legendre rule.
"""

from __future__ import annotations

import numpy as np


def ray_term(d, ee, h):
    """The integral of dtau / (d - tau |e|^2)^2, |e|^2 = ``ee``, over the
    part of the ray inside the ball of level ``h``."""
    tau = np.minimum(d / (d * d / (4.0 * h * h) + ee), 1.0)
    return tau / (d * (d - tau * ee))


def chart_points(cell) -> np.ndarray:
    """The cell's vertices as (n, 3) chart points."""
    return np.array([p.coords[1:] / p.coords[0] for p in cell.vertices])


def _fan_sum(a, polygons, term, order: int) -> float:
    """The sum of D * term(d, |e|^2) over the fan triangles of each polygon
    (chart points in ring order), each integrated by the collapsed rule."""
    x, w = np.polynomial.legendre.leggauss(order)
    s, t = np.meshgrid(0.5 * (x + 1.0), 0.5 * (x + 1.0), indexing="ij")
    weights = (0.25 * np.outer(w, w) * s).ravel()  # they add up to the area 1/2
    corners = np.stack((1.0 - s, s * (1.0 - t), s * t)).reshape(3, -1)  # barycentric
    total = 0.0
    for polygon in polygons:
        for k in range(1, len(polygon) - 1):
            q0, q1, q2 = triangle = polygon[[0, k, k + 1]]
            q = corners.T @ triangle
            cone = abs(np.linalg.det(np.stack((q1 - q0, q2 - q0, q0 - a))))
            terms = term(2.0 * (1.0 - q @ a), np.einsum("ij,ij->i", q - a, q - a))
            total += cone * (weights @ terms)
    return total


def cone_coefficient(a, polygon, order: int = 24) -> float:
    """C in Vol(B(h) ∩ cone) = C h^2 for the cone from the ideal chart point
    ``a`` over the convex ``polygon`` of chart points."""
    a, polygon = np.asarray(a, dtype=float), np.asarray(polygon, dtype=float)
    return _fan_sum(a, [polygon], lambda d, ee: 4.0 / d**3, order)


def ball_volume(cell, vertex: int, h: float, order: int = 24) -> float:
    chart = chart_points(cell)
    faces = [chart[list(face)] for face in cell.faces if vertex not in face]
    return _fan_sum(chart[vertex], faces, lambda d, ee: ray_term(d, ee, h), order)
