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

A ball's volume inside its cell is the paper's law C_v h^2:
``vertex_sector_volume(cell, vertex, h)`` forms the same product as
``packing.evaluate``, for packings, the sliding-tangency law and the Monte
Carlo carve-outs alike; ``volume.monte_carlo_volume`` takes the cell and
one carve-out level per vertex, the ball of vertex v centred at vertex v.
It samples the cell near each cusp along rays from the ideal vertex, which
leave the cusp's ball exactly at the tau_e that ``_chart_sector``
integrates, and solves Q <= 0 on each ray only for the neighbour balls.
C_v is half the Heron area of the vertex's horospheric polygon at level 1,
whose chord toward neighbours a, b is sqrt(2 K_ab / (K_va K_vb)) in the
Gram table; the cell is built with C_v read off its 40-digit K.
``cone_sector_volume`` prices a Horoball in any cone as h^2 times the float
kernel ``_sector_coefficient``, which forms the same chords as the Lorentz
lengths of E_a / kappa_a - E_b / kappa_b, kappa = -<E_v, .>.  No horosphere
crossing is computed; ``ray_crossing`` gives the crossing point itself.
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
    bilinear_matrix,
    classify,
    rotation_from_z,
)
from .volume import VolumeResult, _index, _real, _triangle_rule, monte_carlo_volume

# Slack allowed on face tangency.
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
    """Horoball from its ideal center and finite chart Busemann level h > 0,
    a real number."""
    h = _real(h)
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
    direction.  GeometryError unless both angles are finite.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise GeometryError(f"polar angles ({theta}, {phi}) must be finite")
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
    the ball the crossing lies beyond it on the same ray).  Returned
    chart-normalized.
    """
    c, w = as_vector(hb.center).tolist(), as_vector(target).tolist()
    h = hb.h
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
    return ProjectivePoint((1.0, x[1] / x[0], x[2] / x[0], x[3] / x[0]))


def _heron(a: float, b: float, c: float) -> float:
    slack = 1e-12 * max(a, b, c, 1.0)
    if a + b < c - slack or b + c < a - slack or c + a < b - slack:
        raise GeometryError(f"triangle inequality violated: {(a, b, c)}")
    p = 0.5 * (a + b + c)
    return math.sqrt(max(p * (p - a) * (p - b) * (p - c), 0.0))


def _sector_coefficient(c: np.ndarray, targets: np.ndarray) -> float:
    """C of Vol(B ∩ cone) = C h^2 for every ball at the ideal center c and
    the cone of rays from c through the rows of ``targets`` (an (n, 4) array
    in convex cyclic order).

    With kappa_w = -<c, w>, the ray toward w crosses the horosphere of level
    h at x_w = c (1 + h^2 <w, w> / kappa_w^2) / (2 h) + (h / kappa_w) w, and
    <c, w / kappa_w> = -1 for every w, so the horospheric chord is
    |x_u - x_w| = h |u / kappa_u - w / kappa_w| in the Lorentz form (for
    ideal targets, h sqrt(2 K_uw / (kappa_u kappa_w))).  C is half the Heron
    area of the level-1 chords, fanned from the first ray, in floats: on a
    cell's rounded chart it lies within a few ulp of the cell's C_v, which
    build_cell reads off the 40-digit Gram table.
    """
    kappa = -bilinear_matrix(c[None, :], targets)[0]
    if not np.all(kappa > 0.0):
        raise GeometryError("ray target is not on the interior side of the center")
    unit = targets / kappa[:, None]
    g = bilinear_matrix(unit, unit)
    norms = np.diag(g)
    chord = np.sqrt(np.maximum(norms[:, None] + norms[None, :] - 2.0 * g, 0.0)).tolist()
    total = 0.0
    for t in range(1, len(chord) - 1):
        total += _heron(chord[0][t], chord[t][t + 1], chord[0][t + 1])
    return 0.5 * total


def cone_sector_volume(hb: Horoball, ray_targets) -> float:
    """Volume of the horoball inside the cone of rays from its ideal center.

    ``ray_targets`` are at least three points spanning the cone, listed in
    convex cyclic order as seen from the center.  Each cone face contains the
    ideal center, so it cuts the horosphere in an intrinsic straight line and
    the crossings bound a Euclidean polygon; its area is h^2 times that of
    the level-1 polygon, whose Heron fan ``_sector_coefficient`` reads off
    the Lorentz form of the targets in floats.  At a cell vertex this is
    within a few ulp of the law C_v h^2, not equal to it.
    """
    targets = [as_vector(t) for t in ray_targets]
    if len(targets) < 3:
        raise GeometryError("a solid cone needs at least three rays")
    return hb.h * hb.h * _sector_coefficient(hb.center.coords, np.stack(targets))


def vertex_sector_volume(cell, vertex: int, h: float) -> float:
    """Vol(B ∩ P) = C_v h^2 of the ball of level h at cell vertex ``vertex``.

    Within the face-tangency bound the ball meets the cell in its vertex
    cone, so the volume is the cell's sector coefficient C_v times h^2, the
    product ``packing.evaluate`` forms.  C_v and the bound H_v are read from
    the cell's per-vertex float tuples (``Cell.vertex_law``); the sliding-
    tangency law prices both balls of its edge row here.  Crossing a
    non-adjacent face raises FaceOverflowError with the violated face index
    (``Cell.face_bound``); GeometryError names a vertex index outside the
    cell or a level that is not a positive real number.
    """
    v = _index(vertex, cell.n_vertices, "vertex")
    h = _real(h)
    coefficients, bounds = cell.vertex_law
    if h > bounds[v] + FACE_TOL:
        bound, face_idx = cell.face_bound(v)
        raise FaceOverflowError(
            f"horoball level {h:.12g} at vertex {v} crosses "
            f"non-adjacent face {face_idx} (bound {bound:.12g})",
            face_index=face_idx,
        )
    if not h > 0.0:
        raise GeometryError(f"level h = {h} must be positive")
    return coefficients[v] * (h * h)


def _chart_sector(cell, vertex: int, h: float, order: int = 16) -> float:
    """Euclidean (Klein chart) volume of the ball of level h at the vertex
    inside the vertex cone; within the face bound that is ball ∩ cell.

    The cone is fanned into triangles (a, b, d) of neighbour chart points
    from the first one.  The ray c + tau e, e = y - c, from the vertex c
    through a point y of a triangle leaves the ball at
    tau = -2 h^2 (c.e) / ((c.e)^2 + h^2 |e|^2), and the cone over the
    triangle holds D tau^3 / 3 per unit (u, v) area of y = a + u (b - a) +
    v (d - a), with D = |det(b - a, d - a, a - c)|.
    """
    c = cell.vertices[vertex].coords[1:]
    pts = np.array([cell.vertices[j].coords[1:] for j in cell.neighbors[vertex]])
    a = pts[0] - c
    ba = pts[1:-1] - pts[0]
    da = pts[2:] - pts[0]
    det = np.abs(np.linalg.det(np.stack((ba, da, np.broadcast_to(a, ba.shape)), 1)))
    u, v, w = _triangle_rule(order)
    e = a + u[:, None, None] * ba + v[:, None, None] * da  # (nodes, triangles, 3)
    ce = e @ c
    h2 = h * h
    tau = -2.0 * h2 * ce / (ce * ce + h2 * np.einsum("qkj,qkj->qk", e, e))
    return float(det @ (w @ tau**3)) / 3.0


def same_type_level(cell, vertex: int) -> float:
    """Largest level at the vertex with no overlap along any incident edge
    when every vertex carries the same construction: h = sqrt(kappa_min / 2).
    GeometryError unless ``vertex`` is a vertex index of the cell."""
    v = _index(vertex, cell.n_vertices, "vertex")
    kmin = min(cell.gram[v, j] for j in cell.neighbors[v])
    return math.sqrt(0.5 * kmin)


def cell_volume_oracle(cell, samples: int, seed: int) -> VolumeResult:
    """Monte Carlo volume of a fully asymptotic cell with sound error bars.

    Sampling the chart volume element has infinite variance at the ideal
    vertices, so the cusps are carved out by the same-type balls shrunk by
    0.1% (pairwise disjoint and inside their face bounds), whose cell
    sectors are known exactly (C_v h^2, vertex_sector_volume); only the compact
    remainder is sampled, at its known chart volume (the cell's less the
    balls' chart sectors).  ``monte_carlo_volume`` takes the cell and one
    level per vertex and places ball v at vertex v.  From the balls' types
    it derives the cusp-free core, which it integrates by quadrature, and it
    spends every sample on the shell outside it, along rays from the cusps:
    each tetrahedron of the fan over the cell's faces is cut into 18 pieces,
    6 from each corner of its face triangle, and a sample is a point of a
    piece's face standing for the ray from the cusp through it.  The ray is
    integrated in closed form from where it leaves its own cusp's ball, less
    where it crosses one of the 0 or 1 neighbour balls that reach the piece
    (those rays count as ``carved``), so only the face point is random.
    GeometryError unless ``samples`` is an integer of at least
    ``volume.MIN_SAMPLES`` and ``seed`` a non-negative integer.
    """
    levels = 0.999 * np.array([same_type_level(cell, v) for v in range(cell.n_vertices)])
    exact = math.fsum(vertex_sector_volume(cell, v, h) for v, h in enumerate(levels))
    chart = math.fsum(_chart_sector(cell, v, h) for v, h in enumerate(levels))
    return monte_carlo_volume(cell, levels, exact, chart, samples, seed)
