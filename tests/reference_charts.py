"""The hand-placed Klein charts of the four cells and of their
characteristic orthoschemes, kept as the reference for the constructions in
``horopack.coxeter``.

Each ``REFERENCE_CHARTS`` function returns the cell's vertices in the
numbering the package uses (vertex 3 is the pole (0, 0, 1); the
dodecahedron's vertices 0-7 are the cube's).  ``build_cell`` takes its
vertices from the orbit of the pole under the reflection group [p, q]
instead; tests require the two to agree within a few ulp, with the same
faces, edges and neighbour cycles.

``reference_orthoscheme`` places the simplex A0..A3 by hand for (3,6,3) and
(4,4,4), and as the flag of a built cell for (4,3,6) and (5,3,6).
``build_orthoscheme`` realises it from the Coxeter matrix instead; tests
require the two to agree on every vertex class and finite distance.

``face_planes`` fits each face's plane to its float vertices (the SVD null
vector), oriented toward the cell's ``incenter``.  ``build_cell`` reads its
face bounds off the Gram table instead, with no plane; tests check the
planes' dihedral products and margins against those tables.
"""

from __future__ import annotations

import math

import numpy as np

from horopack.coxeter import build_cell
from horopack.lorentz import MINKOWSKI, Hyperplane, ProjectivePoint, bilinear_form

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


REFERENCE_CHARTS = {
    (3, 3, 6): _tetrahedron_charts,
    (3, 4, 4): _octahedron_charts,
    (4, 3, 6): _cube_charts,
    (5, 3, 6): _dodecahedron_charts,
}


# vertex-to-vertex charts of the two orthoschemes with both principal
# vertices A0 and A3 ideal
_ORTHOSCHEME_CHARTS = {
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


# the point equidistant from all face planes: the chart origin, except on
# the (3,3,6) chart, which is centred on the face opposite the pole
INCENTER_CHART = {
    (3, 3, 6): (0.0, 0.0, 1.0 / 3.0),
    (3, 4, 4): (0.0, 0.0, 0.0),
    (4, 3, 6): (0.0, 0.0, 0.0),
    (5, 3, 6): (0.0, 0.0, 0.0),
}


def incenter(cell) -> ProjectivePoint:
    return ProjectivePoint.from_chart(INCENTER_CHART[cell.tiling])


def null_covector(rows, inside) -> np.ndarray:
    """Covector b with <b, q> = 0 on the rows q (the SVD's least-squares
    null vector), oriented so that <b, inside> >= 0."""
    # <b, q> = 0 is (q MINKOWSKI) b = 0
    _, _, vt = np.linalg.svd(rows @ MINKOWSKI)
    b = vt[-1]
    if bilinear_form(b, inside) < 0:
        b = -b
    return b


def face_planes(cell, coords=None) -> list:
    """Each face's inward plane through its vertices, fitted to the cell's
    vertex coordinates or to the (n, 4) array ``coords``."""
    if coords is None:
        coords = np.stack([v.coords for v in cell.vertices])
    inside = incenter(cell).coords
    return [Hyperplane(null_covector(coords[list(f)], inside)) for f in cell.faces]


def flag_simplex(cell):
    """(ideal vertex, edge foot, face center, cell center) flag of a cell."""
    apex = 3
    cyc = next(face for face in cell.faces if apex in face)
    nxt = cyc[(cyc.index(apex) + 1) % len(cyc)]
    a0 = cell.vertices[apex]
    a1 = ProjectivePoint.from_chart(0.5 * (a0.chart() + cell.vertices[nxt].chart()))
    a2 = ProjectivePoint.from_chart(
        np.mean([cell.vertices[i].chart() for i in cyc], axis=0)
    )
    a3 = incenter(cell)
    return (a0, a1, a2, a3)


def reference_orthoscheme(symbol):
    """Vertices A0..A3 of the characteristic orthoscheme ``symbol``."""
    if symbol in _ORTHOSCHEME_CHARTS:
        return tuple(ProjectivePoint.from_chart(p) for p in _ORTHOSCHEME_CHARTS[symbol])
    return flag_simplex(build_cell(symbol))
