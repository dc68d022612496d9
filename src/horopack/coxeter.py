"""Coxeter-Schlafli matrices and cell construction.

A tiling is its Schlafli symbol, a plain (p, q, r) tuple of ints.  Covers
the linear (orthoscheme) schemes of rank 4: the weights (n1, n2, n3) yield
the tridiagonal Gram matrix of the characteristic simplex, vertex distances
through its inverse, and explicit projective coordinates for the four fully
asymptotic honeycombs (3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6) together
with their characteristic orthoschemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull

from . import volume as _volume
from .horoball import _sector_coefficient
from .lorentz import (
    GeometryError,
    Hyperplane,
    MINKOWSKI,
    PointClass,
    ProjectivePoint,
    bilinear_form,
    bilinear_matrix,
    classify,
)

# Diagonal entries of the inverse Gram matrix at or below this are treated as
# vanishing, i.e. the corresponding simplex vertex is ideal.
IDEAL_DIAG_TOL = 1e-10

INFINITE = math.inf


class UnsupportedSymbolError(GeometryError):
    """Symbol outside the scope of the requested construction."""


@dataclass(frozen=True, eq=False)
class CoxeterMatrix:
    """Gram matrix b of the orthoscheme wall normals and its inverse a."""

    b: np.ndarray
    a: np.ndarray


def coxeter_matrix(weights) -> CoxeterMatrix:
    """Tridiagonal Gram matrix with off-diagonals -cos(pi/n_i), plus inverse;
    GeometryError unless the weights (n1, ..., nd) are one or more ints >= 2."""
    ws = tuple(_volume._integer(w, "Schlafli weight") for w in weights)
    if not ws or min(ws) < 2:
        raise GeometryError(f"invalid Schlafli weights {ws}")
    b = np.eye(len(ws) + 1)
    for i, n in enumerate(ws):
        c = -math.cos(math.pi / n)
        b[i, i + 1] = c
        b[i + 1, i] = c
    return CoxeterMatrix(b=b, a=np.linalg.inv(b))


def vertex_distance(m: CoxeterMatrix, i: int, j: int) -> float:
    """Distance of simplex vertices A_i, A_j from the inverse Gram matrix.

    The dual basis vector of vertex A_i is timelike for a finite vertex, so
    a_ii < 0, and a_ii = 0 exactly when the vertex is ideal.  Finite pairs
    give arcosh(|a_ij| / sqrt(a_ii * a_jj)); any ideal endpoint gives
    INFINITE.  GeometryError unless i, j are two distinct vertex indices.
    """
    a = m.a
    n = len(a)
    i, j = _volume._integer(i, "vertex index"), _volume._integer(j, "vertex index")
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise GeometryError(f"vertex pair {i},{j} is not two distinct indices below {n}")
    scale = float(np.abs(a).max())
    aii, ajj = float(a[i, i]), float(a[j, j])
    if abs(aii) <= IDEAL_DIAG_TOL * scale or abs(ajj) <= IDEAL_DIAG_TOL * scale:
        return INFINITE
    if aii > 0 or ajj > 0:
        raise GeometryError("vertex lies beyond the absolute")
    c = abs(float(a[i, j])) / math.sqrt(aii * ajj)
    return math.acosh(max(c, 1.0))


@dataclass(frozen=True, eq=False)
class Face:
    """Cell facet: cyclically ordered vertex indices plus the inward wall."""

    indices: tuple
    plane: Hyperplane


@dataclass(frozen=True, eq=False)
class Cell:
    """Fully asymptotic honeycomb cell in a fixed projective chart.

    ``tiling`` is the Schlafli symbol (p, q, r) and ``orthoscheme_symbol``
    that of the characteristic orthoscheme, both plain tuples of ints.  All
    vertices are ideal and stored chart-normalized (x0 = 1).  ``neighbors``
    lists, for each vertex, the adjacent vertex indices in cyclic order around
    the vertex (as seen from outside the model ball).  ``volume`` is the
    closed-form hyperbolic cell volume, orthoschemes_per_cell times the
    characteristic orthoscheme volume.  ``gram`` is the vertex table
    K_ij = -<E_i, E_j> (zero diagonal), ``face_bounds`` and ``bound_faces``
    hold each vertex's face-tangency level H_v and the face that sets it.
    ``edge_index`` stacks the endpoint arrays of ``edges`` (2 x E), and
    ``sector_coefficients`` holds the C_v of Vol(B(h) ∩ cell) = C_v h^2: half
    the Heron area of the vertex's horospheric polygon at level 1, read off
    the Lorentz form (the Gram table) once by build_cell, with no horosphere
    crossing.  build_cell shares one Cell per tiling, so every array is
    read-only.
    """

    tiling: tuple
    vertices: tuple
    edges: tuple
    faces: tuple
    neighbors: tuple
    n_vertices: int
    orthoscheme_symbol: tuple
    orthoschemes_per_cell: int
    volume: float
    incenter: ProjectivePoint
    gram: np.ndarray
    face_bounds: np.ndarray
    bound_faces: tuple
    edge_index: np.ndarray
    sector_coefficients: np.ndarray

    def face_bound(self, vertex: int) -> tuple:
        """(H, face_position) tightest non-adjacent face constraint for a ball.

        A horoball at the vertex with chart Busemann level h stays off every
        non-adjacent face plane iff h <= H.  GeometryError unless ``vertex``
        is a vertex index of the cell.
        """
        v = _volume._index(vertex, self.n_vertices, "vertex")
        return float(self.face_bounds[v]), self.bound_faces[v]


@dataclass(frozen=True, eq=False)
class Orthoscheme:
    """Characteristic simplex A0..A3 with walls H^i opposite A_i."""

    vertices: tuple
    walls: tuple
    matrix: CoxeterMatrix
    volume: float


def _null_covector(rows, inside) -> np.ndarray:
    """Covector b with <b, q> = 0 on the rows q (the SVD's least-squares
    null vector), oriented so that <b, inside> >= 0."""
    # <b, q> = 0 is (q MINKOWSKI) b = 0
    _, _, vt = np.linalg.svd(rows @ MINKOWSKI)
    b = vt[-1]
    if bilinear_form(b, inside) < 0:
        b = -b
    return b


def _wall_through(points, inward_point) -> Hyperplane:
    """Plane containing three projective points, oriented toward inward_point."""
    return Hyperplane(_null_covector(np.stack([p.coords for p in points]), inward_point))


def _angular_order(chart_pts, indices, axis, centre) -> list:
    """``indices`` sorted by the angle of their points about the line through
    ``centre`` along ``axis``, counterclockwise seen from the axis tip."""
    e1 = np.cross(axis, np.array([0.31, 0.51, 0.81]))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)

    def angle(i):
        t = chart_pts[i] - centre
        return math.atan2(t @ e2, t @ e1)

    return sorted(indices, key=angle)


def _merged_faces(chart_pts):
    """Convex-hull facets with coplanar triangles merged into polygons.

    Rounded hull equations only group coplanar simplices; each face's cycle
    runs counterclockwise about its outward normal from its smallest vertex
    index, and its plane is refit exactly as the null covector of its full
    vertex set, oriented toward the vertex mean (inside the cell).
    """
    inside = np.concatenate(([1.0], np.mean(chart_pts, axis=0)))
    hull = ConvexHull(chart_pts)
    groups = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        key = tuple(np.round(eq, 9))
        groups.setdefault(key, set()).update(int(i) for i in simplex)
    faces = []
    for key in sorted(groups):
        idx = sorted(groups[key])
        centroid = np.mean([chart_pts[i] for i in idx], axis=0)
        idx = _angular_order(chart_pts, idx, np.array(key[:3]), centroid)
        start = idx.index(min(idx))
        idx = idx[start:] + idx[:start]
        lifted = np.stack([np.concatenate(([1.0], chart_pts[i])) for i in idx])
        faces.append((tuple(idx), _null_covector(lifted, inside)))
    return faces


def _assemble_cell(tiling, chart_pts, ortho_symbol, count) -> Cell:
    chart_pts = np.asarray(chart_pts, dtype=float)
    vertices = tuple(ProjectivePoint.from_chart(p) for p in chart_pts)
    for v in vertices:
        if classify(v) is not PointClass.ABSOLUTE:
            raise GeometryError(f"cell vertex {v} is not ideal")

    raw_faces = _merged_faces(chart_pts)
    incenter = _incenter([b for _, b in raw_faces])
    faces = tuple(Face(indices=idx, plane=Hyperplane(b)) for idx, b in raw_faces)

    # consecutive vertices of a face cycle share an edge
    pairs = {(i, j) for f in faces for i, j in zip(f.indices, f.indices[1:] + f.indices[:1])}
    edges = tuple(sorted({(min(p), max(p)) for p in pairs}))

    adj = {i: [] for i in range(len(vertices))}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    neighbors = tuple(
        tuple(_angular_order(chart_pts, adj[i], chart_pts[i], chart_pts[i]))
        for i in range(len(vertices))
    )

    coords = np.stack([v.coords for v in vertices])
    gram = -bilinear_matrix(coords, coords)
    # face margins <E_v, b_f>; a vertex's own faces never bound it
    margins = bilinear_matrix(coords, np.stack([f.plane.normal for f in faces]))
    for k, face in enumerate(faces):
        margins[list(face.indices), k] = math.inf
    bound_faces = np.argmin(margins, axis=1)
    face_bounds = margins[np.arange(len(vertices)), bound_faces]
    edge_index = np.array(edges).T
    sector_coefficients = np.array(
        [_sector_coefficient(coords[v], coords[list(nbrs)]) for v, nbrs in enumerate(neighbors)]
    )
    for table in (gram, face_bounds, edge_index, sector_coefficients):
        table.setflags(write=False)

    vol = count * _volume.orthoscheme_volume(ortho_symbol).value
    return Cell(
        tiling=tiling,
        vertices=vertices,
        edges=edges,
        faces=faces,
        neighbors=neighbors,
        n_vertices=len(vertices),
        orthoscheme_symbol=ortho_symbol,
        orthoschemes_per_cell=count,
        volume=vol,
        incenter=incenter,
        gram=gram,
        face_bounds=face_bounds,
        bound_faces=tuple(int(k) for k in bound_faces),
        edge_index=edge_index,
        sector_coefficients=sector_coefficients,
    )


def _incenter(normals) -> ProjectivePoint:
    """Interior point equidistant from all facet planes (solve <x,b_f> = t)."""
    rows = []
    for b in normals:
        bb = bilinear_form(b, b)
        rows.append((MINKOWSKI @ (b / math.sqrt(bb))))
    mat = np.stack(rows)
    # [mat | -1] (x, t) = 0
    sys = np.hstack([mat, -np.ones((mat.shape[0], 1))])
    _, _, vt = np.linalg.svd(sys)
    x = vt[-1][:4]
    if x[0] < 0:
        x = -x
    pt = ProjectivePoint(x).chart_normalized()
    if classify(pt) is not PointClass.INTERIOR:
        raise GeometryError("incenter computation left the interior")
    return pt


_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)
_SQ6 = math.sqrt(6.0)


def _tetrahedron_charts():
    # reference chart: apex on the z-axis, base triangle in the plane z = 0
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [_SQ3 / 2, -0.5, 0.0],
            [-_SQ3 / 2, -0.5, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )


def _octahedron_charts():
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]
    )


def _cube_charts():
    # five reference vertices; the remaining three complete the combinatorial
    # cube via the order-3 rotation about the E3 main diagonal (the z-axis)
    # and the antipode of E3.
    e0 = np.array([-_SQ6 / 3, _SQ2 / 3, 1.0 / 3.0])
    e1 = np.array([-_SQ6 / 3, -_SQ2 / 3, -1.0 / 3.0])
    e2 = np.array([0.0, 2 * _SQ2 / 3, -1.0 / 3.0])
    e3 = np.array([0.0, 0.0, 1.0])
    e4 = np.array([_SQ6 / 3, -_SQ2 / 3, -1.0 / 3.0])
    rot120 = np.array(
        [
            [-0.5, -_SQ3 / 2, 0.0],
            [_SQ3 / 2, -0.5, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    e5 = rot120 @ e0
    e6 = rot120 @ e5
    e7 = -e3
    return np.array([e0, e1, e2, e3, e4, e5, e6, e7])


def _dodecahedron_charts():
    """Cube sublattice in the (4,3,6) chart extended to the dodecahedron.

    Starts from the standard dodecahedron (cube corners plus the cyclic
    (0, 1/phi, phi) orbit, all scaled to the unit sphere) and applies the
    rotation aligning its inscribed cube with the cube chart above.  The 8
    cube vertices keep their (4,3,6) indices; the 12 new vertices follow in
    a fixed lexicographic order.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    new_std = []
    for axis in range(3):
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                v = np.zeros(3)
                v[(axis + 1) % 3] = s1 / phi
                v[(axis + 2) % 3] = s2 * phi
                new_std.append(v / _SQ3)
    u1 = np.array([1.0, 1.0, 1.0]) / _SQ3
    w = np.array([-1.0, 1.0, 1.0]) / _SQ3
    u2 = w - (w @ u1) * u1
    u2 /= np.linalg.norm(u2)
    u3 = np.cross(u1, u2)
    cube = _cube_charts()
    v1 = np.array([0.0, 0.0, 1.0])
    t = cube[0]
    v2 = t - (t @ v1) * v1
    v2 /= np.linalg.norm(v2)
    v3 = np.cross(v1, v2)
    rot = np.column_stack([v1, v2, v3]) @ np.column_stack([u1, u2, u3]).T
    new = [rot @ v for v in new_std]
    key = np.round(np.stack(new), 9)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    new = [new[i] for i in order]
    return np.vstack([cube, new])


# tiling -> (chart builder, characteristic orthoscheme, orthoschemes per cell)
_CELL_RECIPES = {
    (3, 3, 6): (_tetrahedron_charts, (3, 6, 3), 6),
    (3, 4, 4): (_octahedron_charts, (4, 4, 4), 16),
    (4, 3, 6): (_cube_charts, (4, 3, 6), 48),
    (5, 3, 6): (_dodecahedron_charts, (5, 3, 6), 120),
}

FULLY_ASYMPTOTIC_TILINGS = tuple(_CELL_RECIPES)


@lru_cache(maxsize=None)
def _build_cell_cached(weights) -> Cell:
    maker, ortho, count = _CELL_RECIPES[weights]
    return _assemble_cell(weights, maker(), ortho, count)


def build_cell(tiling) -> Cell:
    """Ideal vertex set, faces, edges, and volume of a fully asymptotic cell."""
    key = tuple(_volume._integer(w, "Schlafli weight") for w in tiling)
    if key not in _CELL_RECIPES:
        raise UnsupportedSymbolError(
            f"no cell construction for {key}; supported: "
            + ", ".join(str(w) for w in sorted(_CELL_RECIPES))
        )
    return _build_cell_cached(key)


_ORTHOSCHEME_EXPLICIT = {
    (3, 6, 3): np.array(
        [
            [0.0, 1.0, 0.0],
            [_SQ3 / 4, 0.25, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    ),
    (4, 4, 4): np.array(
        [
            [0.0, 1.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    ),
}


def build_orthoscheme(symbol) -> Orthoscheme:
    """Characteristic orthoscheme with explicit projective coordinates.

    (3,6,3) and (4,4,4) use the reference vertex-to-vertex coordinates (both
    principal vertices ideal).  (4,3,6) and (5,3,6) take the simplex flag of
    the cell from build_cell: ideal vertex, edge foot, face center, cell
    center.
    """
    key = tuple(_volume._integer(w, "Schlafli weight") for w in symbol)
    if key in _ORTHOSCHEME_EXPLICIT:
        verts = tuple(ProjectivePoint.from_chart(p) for p in _ORTHOSCHEME_EXPLICIT[key])
    elif key in ((4, 3, 6), (5, 3, 6)):
        verts = _flag_simplex(build_cell(key))
    else:
        raise UnsupportedSymbolError(f"no orthoscheme construction for {key}")

    walls = tuple(
        _wall_through([verts[j] for j in range(4) if j != i], verts[i])
        for i in range(4)
    )
    return Orthoscheme(verts, walls, coxeter_matrix(key),
                       _volume.orthoscheme_volume(key).value)


def _flag_simplex(cell: Cell):
    """(ideal vertex, edge foot, face center, cell center) flag of a cell."""
    apex = 3
    cyc = next(face.indices for face in cell.faces if apex in face.indices)
    nxt = cyc[(cyc.index(apex) + 1) % len(cyc)]
    a0 = cell.vertices[apex]
    a1 = ProjectivePoint.from_chart(0.5 * (a0.chart() + cell.vertices[nxt].chart()))
    a2 = ProjectivePoint.from_chart(
        np.mean([cell.vertices[i].chart() for i in cyc], axis=0)
    )
    a3 = cell.incenter
    return (a0, a1, a2, a3)
