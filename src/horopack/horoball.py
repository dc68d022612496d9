"""Horosphere and horoball geometry in the Klein chart.

A horoball is parameterized by its ideal center c (chart-normalized, on the
absolute) and the scalar type parameter -1 < s < 1: for the canonical center
(1,0,0,1) the horosphere passes through S(1,0,0,s) on the model axis, with
s = 0 giving the horosphere through the origin and s -> 1 the degenerate
ball.  Internally the chart Busemann level

    h = sqrt((1 - s) / (1 + s)),   so that  s = (1 - h^2) / (1 + h^2),

is the workhorse: the closed horoball is {x : Q(x) <= 0} with the pencil form

    Q(x) = <x, c>^2 + h^2 <x, x>,

boundary points x satisfy -<x/|x|, c> = h, a ball pushed in by hyperbolic
distance t has level h e^(-t), and two horoballs with centers c1, c2 are
tangent exactly when 2 h1 h2 = kappa with kappa = -<c1, c2> (their boundary
gap along the joining line is log(kappa / (2 h1 h2))).

Sector volumes come from one float kernel, ``_fan_sector``: the part of a
ball inside a cone of rays from its center is half the Heron area of the
horospheric polygon the rays cut out.  It takes the center, the level and the
ray targets as tuples of Python floats, computes each crossing c + mu w,
checks that it lies on the horosphere and inside the model, and sums the
Heron areas of the fan from the first crossing, with chords 2 sinh(d/2).
Vertex and cone sectors, the cell's sector coefficients and the Monte Carlo
carve-outs all call it, reading each cell's vertices and cyclic neighbour
lists from the cell's ``fans`` table.  ``ray_crossing`` wraps the crossing
for ProjectivePoint arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorentz import (
    GeometryError,
    PointClass,
    ProjectivePoint,
    as_vector,
    bilinear_form,
    classify,
    rotation_from_z,
)
from .volume import VolumeResult, monte_carlo_volume

# Absolute tolerance on the pencil form Q at chart-normalized points deciding
# "on the horosphere", and slack allowed on face tangency.
SURFACE_TOL = 1e-9
FACE_TOL = 1e-9


class FaceOverflowError(GeometryError):
    """A horoball crosses a non-adjacent face plane of its cell."""

    def __init__(self, message: str, face_index: int):
        super().__init__(message)
        self.face_index = face_index


@dataclass(frozen=True, eq=False)
class Horoball:
    """Horoball at a chart-normalized ideal center with type parameter s and
    chart Busemann level h (see module docs); membership is the sign of the
    pencil form Q (pencil_value)."""

    center: ProjectivePoint
    s: float
    h: float


def horoball_level(center, h: float) -> Horoball:
    """Horoball from its ideal center and finite chart Busemann level h > 0."""
    h = float(h)
    if not 0.0 < h < math.inf:
        raise GeometryError(f"level h = {h} must be positive and finite")
    pt = center if isinstance(center, ProjectivePoint) else ProjectivePoint(center)
    if classify(pt) is not PointClass.ABSOLUTE:
        raise GeometryError(f"horoball center must lie on the absolute, got {pt}")
    pt = pt.chart_normalized()
    s = (1.0 - h * h) / (1.0 + h * h)
    return Horoball(center=pt, s=s, h=h)


def pencil_value(hb: Horoball, x) -> float:
    """Q(x) = <x,c>^2 + h^2 <x,x> at the given representative of x."""
    v = as_vector(x)
    return bilinear_form(v, hb.center) ** 2 + hb.h * hb.h * bilinear_form(v, v)


def polar_point(hb: Horoball, theta: float, phi: float) -> ProjectivePoint:
    """Point of the horosphere at polar angles (theta, phi).

    In the canonical chart the surface is

        x = sqrt((1-s)/2) sin(theta) cos(phi)
        y = sqrt((1-s)/2) sin(theta) sin(phi)
        z = (1+s)/2 + ((1-s)/2) cos(theta)

    with theta = 0 at the apex (the ideal center).  Other centers reuse the
    canonical surface rotated about the model origin onto the center
    direction.
    """
    s = hb.s
    radial = math.sqrt((1.0 - s) / 2.0)
    p = np.array(
        [
            1.0,
            radial * math.sin(theta) * math.cos(phi),
            radial * math.sin(theta) * math.sin(phi),
            (1.0 + s) / 2.0 + ((1.0 - s) / 2.0) * math.cos(theta),
        ]
    )
    rot = rotation_from_z(hb.center.chart())
    return ProjectivePoint(rot @ p)


def ray_crossing(hb: Horoball, target) -> ProjectivePoint:
    """Crossing of the horosphere with the ray from its own ideal center.

    The ray from the center c through ``target`` w meets the horosphere at
    the projective point c + mu w with mu = 2 h^2 kappa / Q(w), kappa =
    -<c, w>; works for ideal and interior targets alike (for a target inside
    the ball the crossing lies beyond it on the same ray).
    """
    return ProjectivePoint(_crossing(_floats(hb.center), hb.h, _floats(target)))


def _floats(x) -> tuple:
    return tuple(as_vector(x).tolist())


def _crossing(c, h: float, w) -> tuple:
    """ray_crossing on float 4-tuples, returned chart-normalized."""
    b = -w[0] * c[0] + w[1] * c[1] + w[2] * c[2] + w[3] * c[3]
    kappa = -b
    if kappa <= 0.0:
        raise GeometryError("ray target is not on the interior side of the center")
    qw = b**2 + h * h * (-w[0] * w[0] + w[1] * w[1] + w[2] * w[2] + w[3] * w[3])
    if abs(qw) < 1e-300:
        x = w
    else:
        mu = 2.0 * h * h * kappa / qw
        x = (c[0] + mu * w[0], c[1] + mu * w[1], c[2] + mu * w[2], c[3] + mu * w[3])
    if abs(x[0]) < 1e-300:
        raise GeometryError("point at infinity of the chart (x0 = 0)")
    return (1.0, x[1] / x[0], x[2] / x[0], x[3] / x[0])


def _surface_norm(c, h: float, x) -> float:
    """<x, x> of a chart-normalized point x, checked to lie on the horosphere
    (|Q(x)| <= SURFACE_TOL) and inside the model."""
    xx = -x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
    b = -x[0] * c[0] + x[1] * c[1] + x[2] * c[2] + x[3] * c[3]
    if abs(b**2 + h * h * xx) > SURFACE_TOL:
        raise GeometryError("point is not on the horosphere")
    if xx >= 0:
        raise GeometryError("chord endpoints must be interior points")
    return xx


def _chord(p, q, pp: float, qq: float) -> float:
    """2 sinh(d/2) = sqrt(2 (cosh d - 1)) of interior points p, q with <p,p> =
    pp and <q,q> = qq."""
    pq = -p[0] * q[0] + p[1] * q[1] + p[2] * q[2] + p[3] * q[3]
    cosh_d = abs(pq) / math.sqrt(pp * qq)
    return math.sqrt(max(2.0 * (cosh_d - 1.0), 0.0))


def _heron(a: float, b: float, c: float) -> float:
    slack = 1e-12 * max(a, b, c, 1.0)
    if a + b < c - slack or b + c < a - slack or c + a < b - slack:
        raise GeometryError(f"triangle inequality violated: {(a, b, c)}")
    p = 0.5 * (a + b + c)
    return math.sqrt(max(p * (p - a) * (p - b) * (p - c), 0.0))


def sector_volume(area: float) -> float:
    """Volume area/2 between a horospherical domain and its axis bundle."""
    if area < 0:
        raise GeometryError("negative horospherical area")
    return 0.5 * area


def _fan_sector(c, h: float, targets) -> float:
    """Vol(B ∩ cone) for the ball of level h at c and the cone of rays from c
    through ``targets`` (float 4-tuples in convex cyclic order): half the
    Heron area of the crossing polygon, fanned from the first crossing."""
    pts = [_crossing(c, h, w) for w in targets]
    norms = [_surface_norm(c, h, x) for x in pts]
    first, n0 = pts[0], norms[0]
    total = 0.0
    spoke = _chord(first, pts[1], n0, norms[1])
    for t in range(1, len(pts) - 1):
        rim = _chord(pts[t], pts[t + 1], norms[t], norms[t + 1])
        next_spoke = _chord(first, pts[t + 1], n0, norms[t + 1])
        total += _heron(spoke, rim, next_spoke)
        spoke = next_spoke
    return sector_volume(total)


def cone_sector_volume(hb: Horoball, ray_targets) -> float:
    """Volume of the horoball inside the cone of rays from its ideal center.

    ``ray_targets`` are at least three points spanning the cone, listed in
    convex cyclic order as seen from the center.  Each cone face contains the
    ideal center, so it cuts the horosphere in an intrinsic straight line and
    the crossing points bound a Euclidean polygon triangulated by Heron.
    """
    targets = [_floats(t) for t in ray_targets]
    if len(targets) < 3:
        raise GeometryError("a solid cone needs at least three rays")
    return _fan_sector(_floats(hb.center), hb.h, targets)


def vertex_sector_volume(hb: Horoball, cell, vertex: int) -> float:
    """Volume of the horoball inside its cell, Vol(B ∩ P).

    The horoball must be centered at cell vertex ``vertex`` (to 1e-9 in the
    chart; it is measured from the vertex itself).  For a ball within the
    face-tangency bound the intersection with the cell equals the
    intersection with the vertex cone, whose horospheric cross-section is the
    convex polygon over the incident-edge crossings; the volume is half its
    Heron area.  Crossing a non-adjacent face raises FaceOverflowError with
    the violated face index.
    """
    v = cell.vertices[vertex]
    if np.max(np.abs(hb.center.chart() - v.chart())) > 1e-9:
        raise GeometryError("horoball is not centered at the requested vertex")
    return _cell_sector_volume(cell, vertex, hb.h)


def _cell_sector_volume(cell, vertex: int, h: float) -> float:
    """vertex_sector_volume of the ball of level h at the vertex, without
    building the ball."""
    bound, face_idx = cell.face_bound(vertex)
    if h > bound + FACE_TOL:
        raise FaceOverflowError(
            f"horoball level {h:.12g} at vertex {vertex} crosses "
            f"non-adjacent face {face_idx} (bound {bound:.12g})",
            face_index=face_idx,
        )
    if not h > 0.0:
        raise GeometryError(f"level h = {h} must be positive")
    center, targets = cell.fans[vertex]
    return _fan_sector(center, h, targets)


def same_type_level(cell, vertex: int) -> float:
    """Largest level at the vertex with no overlap along any incident edge
    when every vertex carries the same construction: h = sqrt(kappa_min / 2)."""
    kmin = min(cell.kappa(vertex, j) for j in cell.neighbors[vertex])
    return math.sqrt(0.5 * kmin)


def _cusp_balls(cell) -> list:
    """Per vertex, the same-type horoball shrunk by 0.1%: pairwise disjoint
    and inside its face bound, so each one's cell sector is exact."""
    return [
        horoball_level(v, 0.999 * same_type_level(cell, i))
        for i, v in enumerate(cell.vertices)
    ]


def _union_predicate(balls):
    """Membership in any of the horoballs, for an (n, 3) array of chart points.

    A point p of the open unit ball lies in the ball with chart center c and
    level h when Q = (1 - p.c)^2 - h^2 (1 - |p|^2) <= 0.  As 1 - p.c > 0 there,
    that is (1 - p.c) / h <= sqrt(1 - |p|^2), so one (k x 3) @ (3 x n) product
    and a minimum over the k balls test them all.  Points on or outside the
    unit sphere are in no ball.
    """
    inv_h = np.array([1.0 / hb.h for hb in balls])[:, None]
    scaled = np.array([hb.center.chart() for hb in balls]) * inv_h

    def predicate(pts: np.ndarray) -> np.ndarray:
        q = pts.T
        depth = scaled @ q
        np.subtract(inv_h, depth, out=depth)
        r2 = np.einsum("ij,ij->j", q, q)
        with np.errstate(invalid="ignore"):
            return depth.min(axis=0) <= np.sqrt(1.0 - r2)

    return predicate


def cell_volume_oracle(cell, samples: int, seed: int) -> VolumeResult:
    """Monte Carlo volume of a fully asymptotic cell with sound error bars.

    Sampling the chart volume element has infinite variance at the ideal
    vertices, so the cusps are carved out by slightly shrunk same-type
    horoballs whose cell sectors are known exactly (half the horospheric
    polygon area); only the compact remainder is sampled.  The balls form one
    carve-out, tested together by a fused predicate.
    """
    balls = _cusp_balls(cell)
    exact = math.fsum(_cell_sector_volume(cell, v, hb.h) for v, hb in enumerate(balls))
    region = [v.chart() for v in cell.vertices]
    return monte_carlo_volume(
        region, samples, seed, carve_outs=[(_union_predicate(balls), exact)]
    )
