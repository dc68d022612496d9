"""Independent horoball sector volumes by direct chart integration.

The hyperbolic volume element in the projective chart is
dV = dx dy dz / (1 - x^2 - y^2 - z^2)^2.  To integrate a horoball sector,
rotate the chart (a rotation about the origin is an isometry of the model)
so the ball's ideal center sits at (0,0,1); the ball becomes the affine
ellipsoid 2(x^2+y^2)/(1-s) + 4(z-(1+s)/2)^2/(1-s)^2 <= 1 and every cell face
an affine half-space.  Slice in z: for each polar angle the radial integral
has the closed form int rho drho / (1-z^2-rho^2)^2 = (1/2)/(1-z^2-rho^2),
leaving two nested adaptive quadratures (angle, then z).  The angular
integrand is only piecewise smooth, so the candidate kink angles (half-space
activations and crossings inside the disk) are passed to the integrator as
breakpoints.

This deliberately shares no code path with the cone-sector evaluation under
test: no horosphere crossings, no chord lengths, no Heron areas.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from reference_charts import face_planes

from horopack.coxeter import Cell
from horopack.lorentz import rotation_from_z

TWO_PI = 2.0 * math.pi


def _wrap(angle: float) -> float:
    return angle % TWO_PI


def _break_angles(planes, z: float, r_ball: float) -> list[float]:
    """Angles where the active radial bound can switch on the z-slice."""
    lines = []
    for n, c in planes:
        norm = math.hypot(n[0], n[1])
        d = c - n[2] * z
        if norm < 1e-13:
            continue
        lines.append((n[0] / norm, n[1] / norm, d / norm))
    angles = []
    for mx, my, delta in lines:
        phi0 = math.atan2(my, mx)
        angles.extend((_wrap(phi0 + 0.5 * math.pi), _wrap(phi0 - 0.5 * math.pi)))
        if abs(delta) <= r_ball:
            shift = math.acos(max(-1.0, min(1.0, delta / r_ball)))
            angles.extend((_wrap(phi0 + shift), _wrap(phi0 - shift)))
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            ax, ay, da = lines[i]
            bx, by, db = lines[j]
            det = ax * by - ay * bx
            if abs(det) < 1e-12:
                continue
            qx = (da * by - db * ay) / det
            qy = (ax * db - bx * da) / det
            if math.hypot(qx, qy) <= r_ball:
                angles.append(_wrap(math.atan2(qy, qx)))
    return sorted(set(angles))


def sector_volume_quadrature(cell: Cell, vertex: int, h: float) -> float:
    s = (1.0 - h * h) / (1.0 + h * h)
    center = cell.vertices[vertex].chart()
    rot = rotation_from_z(center)[1:, 1:]

    # half-spaces {p . n >= c} seen from the rotated frame
    planes = []
    for plane in face_planes(cell):
        b = plane.normal
        planes.append((rot.T @ b[1:], float(b[0])))

    z_center = 0.5 * (1.0 + s)
    z_span = 0.5 * (1.0 - s)

    def ring_area(z: float) -> float:
        # ellipsoid cross-section: x^2+y^2 = (1-s)/2 * (1 - ((z-zc)/zspan)^2)
        shape = 1.0 - ((z - z_center) / z_span) ** 2
        if shape <= 0.0:
            return 0.0
        r_ball = math.sqrt(0.5 * (1.0 - s) * shape)

        def per_angle(phi: float) -> float:
            u = (math.cos(phi), math.sin(phi))
            t_lo, t_hi = 0.0, r_ball
            for n, c in planes:
                a = n[0] * u[0] + n[1] * u[1]
                d = c - n[2] * z
                if abs(a) < 1e-14:
                    if d > 1e-12:
                        return 0.0
                elif a > 0.0:
                    if d / a > t_lo:
                        t_lo = d / a
                else:
                    if d / a < t_hi:
                        t_hi = d / a
            if t_lo >= t_hi:
                return 0.0
            base = 1.0 - z * z
            return 0.5 * (1.0 / (base - t_hi * t_hi) - 1.0 / (base - t_lo * t_lo))

        breaks = _break_angles(planes, z, r_ball)
        val, _ = quad(
            per_angle,
            0.0,
            TWO_PI,
            points=breaks or None,
            limit=50 + 10 * len(breaks),
            epsabs=1e-11,
            epsrel=1e-10,
        )
        return val

    volume, _ = quad(ring_area, s, 1.0, limit=200, epsabs=1e-10, epsrel=1e-9)
    return volume
