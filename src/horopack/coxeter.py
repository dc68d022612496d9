"""Coxeter-Schlafli matrices and cell construction.

A tiling is its Schlafli symbol, a plain (p, q, r) tuple of ints.  Covers
the linear (orthoscheme) schemes of rank 4: the weights (n1, n2, n3) yield
the tridiagonal Gram matrix of the characteristic simplex and vertex
distances through its inverse.  The cells of the four fully asymptotic
honeycombs (3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6) are built from the
same data: a cell's vertices are the orbit of one ideal vertex under the
reflection group [p, q] of the matrix's leading block, and its faces the
images of one face under that group.  Their characteristic orthoschemes
come from the full matrix: wall normals from its eigendecomposition,
vertices as the dual basis of the normals.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from . import volume as _volume
from .lorentz import (
    GeometryError,
    Hyperplane,
    MINKOWSKI,
    PointClass,
    ProjectivePoint,
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
class Cell:
    """Fully asymptotic honeycomb cell in a fixed projective chart.

    ``tiling`` is the Schlafli symbol (p, q, r) and ``orthoscheme_symbol``
    that of the characteristic orthoscheme, both plain tuples of ints.  All
    vertices are ideal and stored chart-normalized (x0 = 1).  ``symmetries``
    is the cell's reflection group, one vertex permutation per row (|G| x n),
    the identity first.  ``faces`` holds the images of the face at the pole
    as vertex index cycles, each counterclockwise seen from outside the
    model ball, and ``neighbors`` rings each vertex's adjacent vertices in
    the same sense, chained from its face cycles from the smallest index.
    ``volume`` is the closed-form hyperbolic cell volume,
    orthoschemes_per_cell times the characteristic orthoscheme volume.
    ``gram`` is the vertex table K_ij = -<E_i, E_j> (exact zero diagonal),
    ``face_bounds`` and ``bound_faces`` hold each vertex's face-tangency
    level H_v and the face that sets it, and ``sector_coefficients`` the C_v
    of Vol(B(h) ∩ cell) = C_v h^2.  build_cell reads all three tables off
    the 40-digit K and rounds each entry once (``_tables``), with no face
    plane and no horosphere crossing.  A symmetry keeps K_ij sqrt(C_i C_j)
    and H_v sqrt(C_v), not K and H themselves where the chart is boosted, on
    (3,3,6).  ``edge_index`` stacks the endpoint arrays of ``edges``
    (2 x E).  build_cell shares one Cell per tiling, so every array is
    read-only.  ``vertex_law`` and ``edge_law`` are the scalar views of these
    tables that the per-call paths read, built when first read.
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
    gram: np.ndarray
    face_bounds: np.ndarray
    bound_faces: tuple
    edge_index: np.ndarray
    sector_coefficients: np.ndarray
    symmetries: np.ndarray

    def face_bound(self, vertex: int) -> tuple:
        """(H, face_position) tightest non-adjacent face constraint for a ball.

        A horoball at the vertex with chart Busemann level h stays off every
        non-adjacent face plane iff h <= H.  GeometryError unless ``vertex``
        is a vertex index of the cell.
        """
        v = _volume._index(vertex, self.n_vertices, "vertex")
        return float(self.face_bounds[v]), self.bound_faces[v]

    @cached_property
    def vertex_law(self) -> tuple:
        """(C, H): ``sector_coefficients`` and ``face_bounds`` as tuples of
        Python floats, one entry per vertex."""
        return tuple(self.sector_coefficients.tolist()), tuple(self.face_bounds.tolist())

    @cached_property
    def edge_law(self) -> MappingProxyType:
        """Sliding-tangency row (h_i0, h_j0, lo, hi, kappa) of every directed
        edge (i, j), keyed by the pair of int indices; read-only.

        kappa = K_ij, and (h_i0, h_j0) are the tangent levels 2 h_i0 h_j0 =
        kappa with equal sectors C_i h_i0^2 = C_j h_j0^2.  [lo, hi] is the
        range of the offset x, h_i = h_i0 e^x and h_j = h_j0 e^-x, within
        both face bounds.
        """
        c, bounds = self.sector_coefficients, self.face_bounds
        rows = {}
        for edge in self.edges:
            for i, j in (edge, edge[::-1]):
                kappa = float(self.gram[i, j])
                hi0 = math.sqrt(0.5 * kappa * math.sqrt(c[j] / c[i]))
                hj0 = 0.5 * kappa / hi0
                lo, hi = -math.log(bounds[j] / hj0), math.log(bounds[i] / hi0)
                rows[i, j] = (hi0, hj0, lo, hi, kappa)
        return MappingProxyType(rows)


@dataclass(frozen=True, eq=False)
class Orthoscheme:
    """Characteristic simplex A0..A3 with walls H^i opposite A_i: wall
    normals with <n_i, n_j> = matrix.b[i, j] and <n_i, A_j> = delta_ij."""

    vertices: tuple
    walls: tuple
    matrix: CoxeterMatrix
    volume: float


# Orbit coordinates are exact to 40 digits (volume._DIGITS), so a rounding
# residue (an exact zero, two copies of one orbit point, or two squared face
# margins that tie) is far below this.
_EXACT_ZERO = Decimal("1e-30")


def _cos_pi(n: int) -> Decimal:
    """cos(pi/n) in closed form for n = 3, 4, 5, in the current context."""
    return {3: Decimal(1) / 2, 4: Decimal(2).sqrt() / 2, 5: (1 + Decimal(5).sqrt()) / 4}[n]


def _mirrors(p: int, q: int) -> tuple:
    """Unit normals n0, n1, n2 of the finite reflection group [p, q].

    Their products -cos(pi/p), -cos(pi/q) and 0 are the leading 3x3 block
    of ``coxeter_matrix``.  Mirrors 1 and 2 contain the pole (0, 0, 1), so
    the pole is a vertex of {p, q}, and n2 = (1, 0, 0), so the pole's image
    in mirror 0 lies at azimuth +90 degrees.
    """
    cp, cq = _cos_pi(p), _cos_pi(q)
    sq = (1 - cq * cq).sqrt()
    s = -cp / sq
    zero = Decimal(0)
    return ((zero, s, (1 - s * s).sqrt()), (-cq, sq, zero), (Decimal(1), zero, zero))


def _orbit(seed, mirrors) -> tuple:
    """Orbit of a unit vector under the reflections in ``mirrors``, in
    breadth-first order from ``seed``, and for each mirror the orbit
    position of each point's image."""
    pts, images = [seed], tuple([] for _ in mirrors)
    for x in pts:
        for n, image in zip(mirrors, images):
            d = 2 * sum(a * b for a, b in zip(x, n))
            y0, y1, y2 = y = tuple(a - d * b for a, b in zip(x, n))
            k = next(
                (k for k, (z0, z1, z2) in enumerate(pts)
                 if abs(y0 - z0) + abs(y1 - z1) + abs(y2 - z2) <= _EXACT_ZERO),
                len(pts),
            )
            if k == len(pts):
                pts.append(y)
            image.append(k)
    return pts, images


def _floats(points) -> np.ndarray:
    """Decimal points rounded once to float, with exact zeros as 0.0."""
    return np.array([[float(c) if abs(c) > _EXACT_ZERO else 0.0 for c in p] for p in points])


def _cell_points(tiling, beta, anchor, order):
    """Klein-chart vertices, symmetries, face cycles and tables of the ideal
    regular cell {p, q}.

    In the chart the cell is the Euclidean {p, q} inscribed in the unit
    sphere: its vertices are the orbit of the pole under [p, q], computed to
    40 digits and numbered by ``order`` (the orbit position of each vertex).
    The orbit also gives each mirror's permutation of the vertices, and the
    symmetries are their products, breadth-first from the identity, each
    mapped to whether it is odd.  The face at the pole is the pole's orbit
    under the rotation "mirror 0, then mirror 1", and every other face its
    image under a symmetry, reversed under an odd one, so every cycle runs
    counterclockwise seen from outside; each starts at its smallest index,
    and the faces follow the lexicographic order of their centres (the sums
    of their vertices).  The orbit is rotated about z until vertex
    ``anchor`` lies at azimuth +90 degrees, then boosted along z by
    ``beta``, which moves the cell's centre from the origin to
    (0, 0, -beta).  ``_tables`` reads K, C and H off the 40-digit chart.
    """
    p, q, _ = tiling
    with decimal.localcontext(_volume._DIGITS):
        zero = Decimal(0)
        orbit, images = _orbit((zero, zero, Decimal(1)), _mirrors(p, q))
        unorder = sorted(range(len(order)), key=order.__getitem__)
        s0, s1, _ = reflections = [tuple(unorder[image[k]] for k in order) for image in images]
        group = {tuple(range(len(order))): False}
        queue = list(group)
        for g in queue:
            for m in reflections:
                h = tuple(m[v] for v in g)
                if h not in group:
                    group[h] = not group[g]
                    queue.append(h)
        cycle = [POLE]
        while (v := s1[s0[cycle[-1]]]) != POLE:
            cycle.append(v)
        cycles = {}
        for g, odd in group.items():
            face = [g[v] for v in (cycle[::-1] if odd else cycle)]
            start = face.index(min(face))
            cycles.setdefault(frozenset(face), tuple(face[start:] + face[:start]))

        x, y, _ = orbit[order[anchor]]
        r = (x * x + y * y).sqrt()
        cos, sin = y / r, x / r
        turned = [(cos * x - sin * y, sin * x + cos * y, z) for x, y, z in orbit]
        sphere = [turned[k] for k in order]
        centres = _floats([map(sum, zip(*(sphere[v] for v in f))) for f in cycles.values()])
        faces = tuple(f for _, f in sorted(zip(centres.tolist(), cycles.values())))
        beta = Decimal(beta.numerator) / beta.denominator
        k = (1 - beta * beta).sqrt()
        chart = [
            (x * k / (1 - beta * z), y * k / (1 - beta * z), (z - beta) / (1 - beta * z))
            for x, y, z in sphere
        ]
        return _floats(chart), group, faces, _tables(chart, faces)


def _tables(chart, faces) -> tuple:
    """K, C, H and the bounding faces of a cell from its decimal chart, each
    entry rounded once to float.

    The chart points lie on the unit sphere, so K_ij = -<E_i, E_j> =
    1 - p_i.p_j.  C_v is half the Heron area of the vertex's horospheric
    polygon at level 1, with chords sqrt(2 K_ab / (K_va K_vb)) between the
    crossings toward neighbours a, b: each face at v gives the side between
    its neighbours of v, and the polygon is fanned from the first of them.
    H_v is the least margin <E_v, n_f> over the faces f not at v, n_f the
    unit inward normal: for three vertices a, b, d of f, <E_v, n_f>^2 is
    det G(v, a, b, d) / det G(a, b, d) = -det K[v, a, b, d] / (2 K_ab K_bd K_da),
    and the zero-diagonal determinant is x^2 + y^2 + z^2 - 2 (xy + yz + zx)
    with x = K_va K_bd, y = K_vb K_da, z = K_vd K_ab.  The bounding face is
    the lowest index whose squared margin ties the least one.
    """
    k = [[1 - sum(a * b for a, b in zip(p, q)) for q in chart] for p in chart]

    def chord(v, a, b):
        return (2 * k[a][b] / (k[v][a] * k[v][b])).sqrt()

    def squared_margin(v, a, b, d):
        x, y, z = k[v][a] * k[b][d], k[v][b] * k[d][a], k[v][d] * k[a][b]
        det = x * x + y * y + z * z - 2 * (x * y + y * z + z * x)
        return -det / (2 * k[a][b] * k[b][d] * k[d][a])

    coefficients, bounds, bound_faces = [], [], []
    for v in range(len(chart)):
        sides = [(f[f.index(v) - 1], f[(f.index(v) + 1) % len(f)]) for f in faces if v in f]
        fan = sides[0][0]
        area = Decimal(0)
        for a, b in sides:
            if fan not in (a, b):
                x, y, z = chord(v, fan, a), chord(v, a, b), chord(v, b, fan)
                s = (x + y + z) / 2
                area += (s * (s - x) * (s - y) * (s - z)).sqrt()
        coefficients.append(float(area / 2))
        margins = {i: squared_margin(v, *f[:3]) for i, f in enumerate(faces) if v not in f}
        least = min(margins.values())
        bounds.append(float(least.sqrt()))
        bound_faces.append(next(i for i, m in margins.items() if m - least <= _EXACT_ZERO))
    return _floats(k), np.array(coefficients), np.array(bounds), tuple(bound_faces)


def _assemble_cell(tiling, ortho_symbol, count, beta, anchor, order) -> Cell:
    chart_pts, group, faces, (gram, sector_coefficients, face_bounds, bound_faces) = _cell_points(
        tiling, beta, anchor, order
    )
    vertices = tuple(ProjectivePoint.from_chart(p) for p in chart_pts)
    for v in vertices:
        if classify(v) is not PointClass.ABSOLUTE:
            raise GeometryError(f"cell vertex {v} is not ideal")

    # around a vertex v, seen from outside, each face's successor of v is
    # followed by its predecessor; consecutive vertices share an edge
    turn = {(v, b): a for f in faces for a, v, b in zip(f[-1:] + f[:-1], f, f[1:] + f[:1])}
    edges = tuple(sorted({(min(e), max(e)) for e in turn}))
    neighbors = []
    for v in range(len(vertices)):
        ring = [min(b for w, b in turn if w == v)]
        while (a := turn[v, ring[-1]]) != ring[0]:
            ring.append(a)
        neighbors.append(tuple(ring))

    edge_index = np.array(edges).T
    symmetries = np.array(list(group))
    for table in (gram, face_bounds, edge_index, sector_coefficients, symmetries):
        table.setflags(write=False)

    vol = count * _volume.orthoscheme_volume(ortho_symbol)
    return Cell(
        tiling=tiling,
        vertices=vertices,
        edges=edges,
        faces=faces,
        neighbors=tuple(neighbors),
        n_vertices=len(vertices),
        orthoscheme_symbol=ortho_symbol,
        orthoschemes_per_cell=count,
        volume=vol,
        gram=gram,
        face_bounds=face_bounds,
        bound_faces=bound_faces,
        edge_index=edge_index,
        sector_coefficients=sector_coefficients,
        symmetries=symmetries,
    )


# The number of the vertex at the pole (0, 0, 1), where every cell's orbit starts.
POLE = 3

# tiling -> (characteristic orthoscheme, orthoschemes per cell, boost beta,
# anchor vertex, orbit position of each vertex).  The numbering is the one
# the families, the CLI columns and the README read: vertex 3 is the pole,
# and on (5,3,6) vertices 0-7 are the inscribed cube of the (4,3,6) cell.
# Only the tetrahedron is boosted, so that its chart is centred on the face
# opposite the pole.
_CELL_RECIPES = {
    (3, 3, 6): ((3, 6, 3), 6, Fraction(-1, 3), 0, (1, 2, 3, 0)),
    (3, 4, 4): ((4, 4, 4), 16, Fraction(0), 0, (1, 2, 3, 0, 4, 5)),
    (4, 3, 6): ((4, 3, 6), 48, Fraction(0), 2, (1, 5, 3, 0, 6, 4, 2, 7)),
    (5, 3, 6): (
        (5, 3, 6), 120, Fraction(0), 2,
        (7, 16, 11, 0, 12, 8, 3, 19, 14, 9, 4, 17, 18, 6, 13, 1, 2, 15, 10, 5),
    ),
}

FULLY_ASYMPTOTIC_TILINGS = tuple(_CELL_RECIPES)


@lru_cache(maxsize=None)
def _build_cell_cached(weights) -> Cell:
    return _assemble_cell(weights, *_CELL_RECIPES[weights])


def build_cell(tiling) -> Cell:
    """Ideal vertex set, faces, edges, and volume of a fully asymptotic cell."""
    key = tuple(_volume._integer(w, "Schlafli weight") for w in tiling)
    if key not in _CELL_RECIPES:
        raise UnsupportedSymbolError(
            f"no cell construction for {key}; supported: "
            + ", ".join(str(w) for w in sorted(_CELL_RECIPES))
        )
    return _build_cell_cached(key)


_ORTHOSCHEME_SYMBOLS = frozenset(recipe[0] for recipe in _CELL_RECIPES.values())


def build_orthoscheme(symbol) -> Orthoscheme:
    """Characteristic orthoscheme of a cell, (3,6,3), (4,4,4), (4,3,6) or
    (5,3,6), from its Coxeter-Schlafli matrix b = V L V^T (``eigh``, with
    the one negative eigenvalue first).  The wall normals are the rows of
    V |L|^(1/2), so <n_i, n_j> = b_ij, and the vertices their dual basis,
    <n_i, A_j> = delta_ij, reversed in time (which keeps b) if x0 < 0.
    """
    key = tuple(_volume._integer(w, "Schlafli weight") for w in symbol)
    if key not in _ORTHOSCHEME_SYMBOLS:
        raise UnsupportedSymbolError(f"no orthoscheme construction for {key}")
    matrix = coxeter_matrix(key)
    eigenvalues, eigenvectors = np.linalg.eigh(matrix.b)
    normals = eigenvectors * np.sqrt(np.abs(eigenvalues))
    dual = np.linalg.inv(normals @ MINKOWSKI).T
    if dual[0, 0] < 0:
        normals[:, 0] = -normals[:, 0]
        dual[:, 0] = -dual[:, 0]
    return Orthoscheme(
        vertices=tuple(ProjectivePoint(a) for a in dual),
        walls=tuple(Hyperplane(n) for n in normals),
        matrix=matrix,
        volume=_volume.orthoscheme_volume(key),
    )
