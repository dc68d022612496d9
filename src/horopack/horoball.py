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
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .lorentz import (
    GeometryError,
    MINKOWSKI,
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


CartesianForm = namedtuple("CartesianForm", ["coeff_xy", "coeff_z", "center_z"])


@dataclass(frozen=True, eq=False)
class Horoball:
    """Horoball at a chart-normalized ideal center with type parameter s and
    chart Busemann level h (see module docs); membership is the sign of the
    pencil form Q (pencil_value, contains)."""

    center: ProjectivePoint
    s: float
    h: float


def horoball_at(center, s: float) -> Horoball:
    """Horoball from its ideal center and type parameter -1 < s < 1."""
    s = float(s)
    if not -1.0 < s < 1.0:
        raise GeometryError(f"type parameter s = {s} must lie in (-1, 1)")
    h = math.sqrt((1.0 - s) / (1.0 + s))
    return horoball_level(center, h)


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


def pushed(hb: Horoball, x: float) -> Horoball:
    """Horoball pushed in toward its center by hyperbolic distance x."""
    return horoball_level(hb.center, hb.h * math.exp(-x))


def pencil_value(hb: Horoball, x) -> float:
    """Q(x) = <x,c>^2 + h^2 <x,x> at the given representative of x."""
    v = as_vector(x)
    return bilinear_form(v, hb.center) ** 2 + hb.h * hb.h * bilinear_form(v, v)


def contains(hb: Horoball, x, tol: float = SURFACE_TOL) -> bool:
    v = as_vector(x)
    if abs(v[0]) > 1e-300:
        v = v / v[0]
    return pencil_value(hb, v) <= tol


def busemann_level(hb: Horoball, x) -> float:
    """-<x_hat, c> on the unit hyperboloid; equals h exactly on the boundary."""
    v = as_vector(x)
    q = bilinear_form(v, v)
    if q >= 0:
        raise GeometryError("Busemann level needs an interior point")
    v = v / math.sqrt(-q)
    if v[0] < 0:
        v = -v
    return -bilinear_form(v, hb.center)


def cartesian_form(hb: Horoball) -> CartesianForm:
    """Affine ellipsoid of the horosphere for the canonical center (1,0,0,1):

        coeff_xy (x^2 + y^2) + coeff_z (z - center_z)^2 = 1
    """
    if np.max(np.abs(hb.center.coords - np.array([1.0, 0.0, 0.0, 1.0]))) > 1e-12:
        raise GeometryError("cartesian_form is defined in the canonical chart")
    s = hb.s
    return CartesianForm(
        coeff_xy=2.0 / (1.0 - s),
        coeff_z=4.0 / (1.0 - s) ** 2,
        center_z=(1.0 + s) / 2.0,
    )


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
    w = as_vector(target)
    kappa = -bilinear_form(hb.center, w)
    if kappa <= 0.0:
        raise GeometryError("ray target is not on the interior side of the center")
    qw = pencil_value(hb, w)
    if abs(qw) < 1e-300:
        return ProjectivePoint(w).chart_normalized()
    mu = 2.0 * hb.h * hb.h * kappa / qw
    return ProjectivePoint(hb.center.coords + mu * w).chart_normalized()


def edge_intersection(hb: Horoball, a, b):
    """Intersection of the chart segment ab with the horosphere, or None.

    Solves the restriction of the quadric to the segment.  A tangential
    double root is returned as a single point; with two crossings the one on
    the horoball center's side (nearer the deeper endpoint) is returned.
    Roots at the ideal center itself are not crossings and are discarded.
    """
    pa = (a if isinstance(a, ProjectivePoint) else ProjectivePoint(a)).chart_normalized()
    pb = (b if isinstance(b, ProjectivePoint) else ProjectivePoint(b)).chart_normalized()

    def q_at(t: float) -> float:
        return pencil_value(hb, (1.0 - t) * pa.coords + t * pb.coords)

    q0, qh, q1 = q_at(0.0), q_at(0.5), q_at(1.0)
    # exact quadratic through three samples
    ca = 2.0 * q0 - 4.0 * qh + 2.0 * q1
    cb = q1 - q0 - ca
    cc = q0
    tol = 1e-12
    if abs(ca) < 1e-14 * max(abs(cb), abs(cc), 1.0):
        roots = [] if abs(cb) < 1e-300 else [-cc / cb]
    else:
        disc = cb * cb - 4.0 * ca * cc
        if disc < -1e-12 * max(cb * cb, abs(4.0 * ca * cc), 1e-30):
            return None
        sq = math.sqrt(max(disc, 0.0))
        roots = [(-cb - sq) / (2.0 * ca), (-cb + sq) / (2.0 * ca)]
        if abs(roots[0] - roots[1]) < 1e-9:
            roots = [0.5 * (roots[0] + roots[1])]

    center_chart = hb.center.chart()
    points = []
    for t in roots:
        if not (-tol <= t <= 1.0 + tol):
            continue
        x = (1.0 - t) * pa.coords + t * pb.coords
        if np.max(np.abs(x[1:] / x[0] - center_chart)) < 1e-9:
            continue  # the center lies on the closure of its own horosphere
        points.append((t, ProjectivePoint(x).chart_normalized()))
    if not points:
        return None
    if len(points) == 1:
        return points[0][1]
    # two genuine crossings: enter from the endpoint deeper inside the ball
    t_near = 0.0 if q0 <= q1 else 1.0
    points.sort(key=lambda item: abs(item[0] - t_near))
    return points[0][1]


def horospheric_chord_length(hb: Horoball, p, q) -> float:
    """Intrinsic horospherical distance 2 sinh(d(p,q)/2) of two surface points."""
    for x in (p, q):
        if abs(pencil_value(hb, _chartify(x))) > SURFACE_TOL:
            raise GeometryError("point is not on the horosphere")
    pv, qv = _chartify(p), _chartify(q)
    qp, qq = bilinear_form(pv, pv), bilinear_form(qv, qv)
    if qp >= 0 or qq >= 0:
        raise GeometryError("chord endpoints must be interior points")
    cosh_d = abs(bilinear_form(pv, qv)) / math.sqrt(qp * qq)
    return math.sqrt(max(2.0 * (cosh_d - 1.0), 0.0))


def _chartify(x) -> np.ndarray:
    v = as_vector(x)
    return v / v[0]


def bolyai_arc_length(x: float) -> float:
    """Horocyclic arc length l(x) = sinh(x) subtended by a chord of length x.

    The chord convention used for Heron inputs elsewhere is 2 sinh(d/2);
    this is the companion arc form, exposed separately.
    """
    if x < 0:
        raise GeometryError("arc length needs a nonnegative chord")
    return math.sinh(x)


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


def sector_volume(area: float) -> float:
    """Volume area/2 between a horospherical domain and its axis bundle."""
    if area < 0:
        raise GeometryError("negative horospherical area")
    return 0.5 * area


def _fan_volume(hb: Horoball, crossings) -> float:
    chords = {}

    def chord(i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in chords:
            chords[key] = horospheric_chord_length(hb, crossings[i], crossings[j])
        return chords[key]

    total = 0.0
    for t in range(1, len(crossings) - 1):
        tri = HorosphericTriangle(chord(0, t), chord(t, t + 1), chord(0, t + 1))
        total += heron_area(tri)
    return sector_volume(total)


def cone_sector_volume(hb: Horoball, ray_targets) -> float:
    """Volume of the horoball inside the cone of rays from its ideal center.

    ``ray_targets`` are at least three points spanning the cone, listed in
    convex cyclic order as seen from the center.  Each cone face contains the
    ideal center, so it cuts the horosphere in an intrinsic straight line and
    the crossing points bound a Euclidean polygon triangulated by Heron.
    """
    targets = list(ray_targets)
    if len(targets) < 3:
        raise GeometryError("a solid cone needs at least three rays")
    crossings = [ray_crossing(hb, t) for t in targets]
    return _fan_volume(hb, crossings)


def vertex_sector_volume(hb: Horoball, cell, vertex: int) -> float:
    """Volume of the horoball inside its cell, Vol(B ∩ P).

    The horoball must be centered at cell vertex ``vertex``.  For a ball
    within the face-tangency bound the intersection with the cell equals the
    intersection with the vertex cone, whose horospheric cross-section is the
    convex polygon over the incident-edge crossings; the volume is half its
    Heron area.  Crossing a non-adjacent face raises FaceOverflowError with
    the violated face index.
    """
    v = cell.vertices[vertex]
    if np.max(np.abs(hb.center.chart() - v.chart())) > 1e-9:
        raise GeometryError("horoball is not centered at the requested vertex")
    bound, face_idx = cell.face_bound(vertex)
    if hb.h > bound + FACE_TOL:
        raise FaceOverflowError(
            f"horoball level {hb.h:.12g} at vertex {vertex} crosses "
            f"non-adjacent face {face_idx} (bound {bound:.12g})",
            face_index=face_idx,
        )
    crossings = [ray_crossing(hb, cell.vertices[j]) for j in cell.neighbors[vertex]]
    return _fan_volume(hb, crossings)


def same_type_level(cell, vertex: int) -> float:
    """Largest level at the vertex with no overlap along any incident edge
    when every vertex carries the same construction: h = sqrt(kappa_min / 2)."""
    kmin = min(cell.kappa(vertex, j) for j in cell.neighbors[vertex])
    return math.sqrt(0.5 * kmin)


def _ball_predicate(hb: Horoball):
    w = MINKOWSKI @ hb.center.coords
    h2 = hb.h * hb.h

    def predicate(pts: np.ndarray) -> np.ndarray:
        lin = w[0] + pts @ w[1:]
        r2 = np.einsum("ij,ij->i", pts, pts)
        return lin * lin + h2 * (r2 - 1.0) <= 0.0

    return predicate


def cell_volume_oracle(cell, samples: int, seed: int) -> VolumeResult:
    """Monte Carlo volume of a fully asymptotic cell with sound error bars.

    Naive rejection sampling of the chart volume element has infinite
    variance at the ideal vertices, so each cusp is carved out by a slightly
    shrunk same-type horoball whose cell sector is known exactly (half the
    horospheric polygon area); only the compact remainder is sampled.
    """
    carve_outs = []
    for vertex in range(cell.n_vertices):
        hb = horoball_level(cell.vertices[vertex], 0.999 * same_type_level(cell, vertex))
        exact = vertex_sector_volume(hb, cell, vertex)
        carve_outs.append((_ball_predicate(hb), exact))
    region = [v.chart() for v in cell.vertices]
    return monte_carlo_volume(region, samples, seed, carve_outs=carve_outs)
