"""Vol(B(h) ∩ cell) by cones from the cusp: an oracle for the law C_v h^2
that reads only the cell's chart vertices and faces, and no horopack code.

The convex cell is the union of the segments p = a + tau e, e = q - a, from
its cusp a (|a| = 1) to the points q of its faces that do not hold a.  There
1 - |p|^2 = tau (d - tau |e|^2) with d = 2 (1 - a.q), and the cone over a
face triangle (q0, q1, q2) has dp = tau^2 D dtau du dv with D = |det(q1 - q0,
q2 - q0, q0 - a)|.  The convex ball of level h, (1 - p.a)^2 <= h^2 (1 - |p|^2),
has a on its boundary and holds the segment up to tau_e = d / (d^2 / (4 h^2)
+ |e|^2), so at any level each ray carries tau / (d (d - tau |e|^2)) with
tau = min(tau_e, 1); a Duffy-collapsed Gauss-Legendre rule sums the rays
over each triangle.
"""

from __future__ import annotations

import numpy as np


def ray_term(d, ee, h):
    """The integral of dtau / (d - tau |e|^2)^2, |e|^2 = ``ee``, over the
    part of the ray inside the ball of level ``h``."""
    tau = np.minimum(d / (d * d / (4.0 * h * h) + ee), 1.0)
    return tau / (d * (d - tau * ee))


def ball_volume(cell, vertex: int, h: float, order: int = 24) -> float:
    x, w = np.polynomial.legendre.leggauss(order)
    s, t = np.meshgrid(0.5 * (x + 1.0), 0.5 * (x + 1.0), indexing="ij")
    weights = (0.25 * np.outer(w, w) * s).ravel()  # they add up to the area 1/2
    corners = np.stack((1.0 - s, s * (1.0 - t), s * t)).reshape(3, -1)  # barycentric
    chart = np.array([p.coords[1:] / p.coords[0] for p in cell.vertices])
    a, total = chart[vertex], 0.0
    for face in (f for f in cell.faces if vertex not in f):
        for k in range(1, len(face) - 1):
            q0, q1, q2 = triangle = chart[[face[0], face[k], face[k + 1]]]
            q = corners.T @ triangle
            cone = abs(np.linalg.det(np.stack((q1 - q0, q2 - q0, q0 - a))))
            terms = ray_term(2.0 * (1.0 - q @ a), np.einsum("ij,ij->i", q - a, q - a), h)
            total += cone * (weights @ terms)
    return total
