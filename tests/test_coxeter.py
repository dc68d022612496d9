from __future__ import annotations

import contextlib
import csv
import decimal
import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from reference_charts import (
    INCENTER_CHART,
    REFERENCE_CHARTS,
    face_planes,
    incenter,
    null_covector,
    reference_orthoscheme,
)

import horopack
from horopack import cli
from horopack.coxeter import (
    _mirrors,
    FULLY_ASYMPTOTIC_TILINGS,
    GeometryError,
    UnsupportedSymbolError,
    build_cell,
    build_orthoscheme,
    coxeter_matrix,
)
from horopack.lorentz import Hyperplane, PointClass, ProjectivePoint, bilinear_form, distance
from horopack.packing import catalog, families
from horopack.volume import _DIGITS, orthoscheme_volume

SUPPORTED = [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)]

# combinatorics and frozen chart invariants per supported symbol
COUNTS = {
    (3, 3, 6): (4, 6, 4),
    (3, 4, 4): (6, 12, 8),
    (4, 3, 6): (8, 12, 6),
    (5, 3, 6): (20, 30, 12),
}
ORTHOSCHEMES_PER_CELL = {(3, 3, 6): 6, (3, 4, 4): 16, (4, 3, 6): 48, (5, 3, 6): 120}
GROUP_ORDER = {(3, 3, 6): 24, (3, 4, 4): 48, (4, 3, 6): 48, (5, 3, 6): 120}

# the exact values of K_ij = -<E_i, E_j> off the diagonal, of the sector
# coefficients C_v and of the face bounds H_v, to 50 digits
with mpmath.workdps(50):
    _R2, _R3, _R5 = mpmath.sqrt(2), mpmath.sqrt(3), mpmath.sqrt(5)
    _ONE = mpmath.mpf(1)
    EXACT_GRAM = {
        (3, 3, 6): (_ONE, 3 * _ONE / 2),
        (3, 4, 4): (_ONE, 2 * _ONE),
        (4, 3, 6): (2 * _ONE / 3, 4 * _ONE / 3, 2 * _ONE),
        (5, 3, 6): ((3 - _R5) / 3, 2 * _ONE / 3, 4 * _ONE / 3, (3 + _R5) / 3, 2 * _ONE),
    }
    EXACT_COEFFICIENTS = {
        (3, 3, 6): (_R3 / 6, 3 * _R3 / 8),
        (3, 4, 4): (_ONE,),
        (4, 3, 6): (3 * _R3 / 4,),
        (5, 3, 6): (_R3 * (21 + 9 * _R5) / 16,),
    }
    EXACT_FACE_BOUNDS = {
        (3, 3, 6): (_ONE, 3 * _ONE / 2),
        (3, 4, 4): (_R2,),
        (4, 3, 6): (_R2,),
        (5, 3, 6): (_ONE,),
    }


# the edge values of K
EDGE_KAPPA = {
    (3, 3, 6): {1.0, 1.5},
    (3, 4, 4): {1.0},
    (4, 3, 6): {2.0 / 3.0},
    (5, 3, 6): {float(EXACT_GRAM[(5, 3, 6)][0])},
}
ADJACENT_FACE_DOT = {
    (3, 3, 6): -0.5,
    (3, 4, 4): 0.0,
    (4, 3, 6): -0.5,
    (5, 3, 6): -0.5,
}


def test_classification_table(tmp_path):
    # one tiling list, and the CLI's table2 rows follow its order
    assert FULLY_ASYMPTOTIC_TILINGS == tuple(SUPPORTED)
    out = tmp_path / "table2.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["table2", "--format", "csv", "--out", str(out)]) == 0
    with out.open(newline="") as fh:
        shown = [row["tiling"] for row in csv.DictReader(fh)]
    assert shown == [cli._tiling_name(t) for t in FULLY_ASYMPTOTIC_TILINGS]


def test_a_tiling_is_a_plain_tuple():
    # coxeter_matrix takes any linear scheme, so it checks the weights
    for weights in ((3, 1, 6), ()):
        with pytest.raises(GeometryError):
            coxeter_matrix(weights)
    # every spelling of a tiling reaches the one shared cell and families
    cell, fams = build_cell((5, 3, 6)), families((5, 3, 6))
    for tiling in ((5, 3, 6), [5, 3, 6], np.array([5, 3, 6])):
        assert build_cell(tiling) is cell
        assert families(tiling) is fams
    for symbol in SUPPORTED:
        cell = build_cell(symbol)
        config = catalog(symbol)[0]
        for tiling in (cell.tiling, families(symbol)[0].tiling, config.tiling):
            assert type(tiling) is tuple and tiling == symbol
            assert all(type(w) is int for w in tiling)
    with pytest.raises(UnsupportedSymbolError) as err:
        build_cell((3, 5, 3))
    assert "(3, 5, 3)" in str(err.value) and "(3,5,3)" not in str(err.value)


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_coxeter_matrix_structure(symbol):
    m = coxeter_matrix(symbol)
    b = m.b
    assert b.shape == (4, 4)
    assert np.allclose(np.diag(b), 1.0)
    for i, n in enumerate(symbol):
        assert b[i, i + 1] == pytest.approx(-math.cos(math.pi / n), abs=1e-15)
        assert b[i + 1, i] == b[i, i + 1]
    assert b[0, 2] == 0.0 and b[0, 3] == 0.0 and b[1, 3] == 0.0
    eig = np.linalg.eigvalsh(b)
    assert (int(np.sum(eig < 0)), int(np.sum(eig > 0))) == (1, 3)
    assert np.allclose(b @ m.a, np.eye(4), atol=1e-12)
    assert np.linalg.cond(b) < 1e3


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_combinatorics(symbol):
    cell = build_cell(symbol)
    nv, ne, nf = COUNTS[symbol]
    assert cell.n_vertices == nv
    assert len(cell.vertices) == nv
    assert len(cell.edges) == ne
    assert len(cell.faces) == nf
    assert cell.orthoschemes_per_cell == ORTHOSCHEMES_PER_CELL[symbol]
    expected_ortho = {
        (3, 3, 6): (3, 6, 3),
        (3, 4, 4): (4, 4, 4),
        (4, 3, 6): (4, 3, 6),
        (5, 3, 6): (5, 3, 6),
    }[symbol]
    assert cell.orthoscheme_symbol == expected_ortho
    # Euler characteristic of the boundary sphere
    assert nv - ne + nf == 2
    degree = {(3, 3, 6): 3, (3, 4, 4): 4, (4, 3, 6): 3, (5, 3, 6): 3}[symbol]
    edge_set = {tuple(sorted(e)) for e in cell.edges}
    assert len(edge_set) == ne
    nbr_set = set()
    for v, nbrs in enumerate(cell.neighbors):
        assert len(nbrs) == degree
        for u in nbrs:
            nbr_set.add(tuple(sorted((v, u))))
    assert nbr_set == edge_set


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_vertices_ideal_and_vertex_up(symbol):
    cell = build_cell(symbol)
    for v in cell.vertices:
        assert v.classify() is PointClass.ABSOLUTE
        assert v.coords[0] == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(v.chart()) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(cell.vertices[3].chart(), [0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_face_planes_contain_their_vertices(symbol):
    cell = build_cell(symbol)
    for face, plane in zip(cell.faces, face_planes(cell)):
        b = plane.normal
        assert plane.is_spacelike()
        for i in face:
            assert abs(bilinear_form(cell.vertices[i], b)) < 1e-13
        # inward orientation: the incenter has positive margin
        assert bilinear_form(incenter(cell), b) > 0


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_dihedral_products(symbol):
    cell = build_cell(symbol)
    expected = ADJACENT_FACE_DOT[symbol]
    planes = face_planes(cell)
    seen = 0
    for i in range(len(cell.faces)):
        for j in range(i + 1, len(cell.faces)):
            shared = set(cell.faces[i]) & set(cell.faces[j])
            if len(shared) == 2:
                dot = bilinear_form(planes[i].normal, planes[j].normal)
                assert dot == pytest.approx(expected, abs=1e-12)
                seen += 1
    assert seen == len(cell.edges)


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_edge_kappa_values(symbol):
    # every edge's K is one of the exact edge values, rounded once
    cell = build_cell(symbol)
    assert {cell.gram[i, j] for i, j in cell.edges} == EDGE_KAPPA[symbol]


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_face_bounds(symbol):
    cell = build_cell(symbol)
    bounds = set()
    for v in range(cell.n_vertices):
        h_max, face_idx = cell.face_bound(v)
        assert v not in cell.faces[face_idx]
        assert h_max > 0
        bounds.add(h_max)
    assert bounds == {float(b) for b in EXACT_FACE_BOUNDS[symbol]}


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_tables_match_scalar_forms(symbol):
    # the K and H tables against the scalar forms on the float chart and its
    # fitted face planes: each entry is the exact value nearest its scalar
    # form, rounded once, and the bounding face is the lowest whose margin
    # ties the least one within 1e-12
    cell = build_cell(symbol)
    planes = face_planes(cell)
    for i in range(cell.n_vertices):
        for j in range(cell.n_vertices):
            if i != j:
                scalar = -bilinear_form(cell.vertices[i], cell.vertices[j])
                exact = min(EXACT_GRAM[symbol], key=lambda e: abs(e - scalar))
                assert cell.gram[i, j] == float(exact)
        margins = {
            k: bilinear_form(cell.vertices[i].coords, plane.normal)
            for k, (face, plane) in enumerate(zip(cell.faces, planes))
            if i not in face
        }
        best = min(margins.values())
        bound, face_idx = cell.face_bound(i)
        assert bound == float(min(EXACT_FACE_BOUNDS[symbol], key=lambda e: abs(e - best)))
        assert face_idx == min(k for k, m in margins.items() if m <= best + 1e-12 * abs(best))


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_arrays_are_read_only(symbol):
    # build_cell shares one Cell per tiling, so a write would reach every caller
    cell = build_cell(symbol)
    first, second = cell.edge_index
    tables = (cell.gram, cell.face_bounds, cell.sector_coefficients, cell.symmetries)
    for table in (*tables, first, second):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_incenter(symbol):
    cell = build_cell(symbol)
    assert np.allclose(incenter(cell).chart(), INCENTER_CHART[symbol], atol=1e-12)
    # equidistant from all face planes
    margins = [bilinear_form(incenter(cell), plane.normal) for plane in face_planes(cell)]
    assert max(margins) - min(margins) < 1e-12


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_volume_consistency(symbol):
    cell = build_cell(symbol)
    closed_form = cell.orthoschemes_per_cell * orthoscheme_volume(cell.orthoscheme_symbol)
    assert cell.volume == pytest.approx(closed_form, rel=1e-15)
    assert cell.volume > 0


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_mirrors_realize_leading_coxeter_block(symbol):
    # the mirrors whose orbit builds the cell are the walls of the
    # orthoscheme's vertex figure: their products are b[:3, :3]
    with decimal.localcontext(_DIGITS):
        mirrors = _mirrors(*symbol[:2])
        gram = np.array([[float(sum(a * b for a, b in zip(m, n))) for n in mirrors] for m in mirrors])
    assert np.allclose(gram, coxeter_matrix(symbol).b[:3, :3], rtol=0, atol=1e-15)


@pytest.mark.parametrize("symbol", [(3, 6, 3), (4, 4, 4), (4, 3, 6), (5, 3, 6)])
def test_orthoscheme_walls_realize_coxeter_matrix(symbol):
    ortho = build_orthoscheme(symbol)
    m = coxeter_matrix(symbol)
    gram = np.array(
        [
            [
                bilinear_form(ortho.walls[i].normal, ortho.walls[j].normal)
                for j in range(4)
            ]
            for i in range(4)
        ]
    )
    assert np.allclose(gram, m.b, atol=1e-13)
    assert ortho.volume > 0
    # principal vertices A0, A3 are ideal for every supported symbol
    assert ortho.vertices[0].classify() is PointClass.ABSOLUTE
    assert ortho.vertices[3].classify() in (PointClass.ABSOLUTE, PointClass.INTERIOR)
    # each wall H^i misses its opposite vertex A_i and contains the others
    for i in range(4):
        for j in range(4):
            incidence = abs(
                bilinear_form(ortho.vertices[j], ortho.walls[i].normal)
            )
            if i == j:
                assert incidence > 1e-3
            else:
                assert incidence < 1e-12


@pytest.mark.parametrize("symbol", [(4, 3, 6), (5, 3, 6)])
def test_cell_flag_realizes_coxeter_matrix(symbol):
    # the flag of the built cell (ideal vertex, edge foot, face centre, cell
    # centre) is a simplex whose walls have the Coxeter matrix's Gram matrix,
    # which ties the cell to its characteristic orthoscheme
    flag = reference_orthoscheme(symbol)
    walls = [
        Hyperplane(
            null_covector(np.stack([flag[j].coords for j in range(4) if j != i]), flag[i].coords)
        )
        for i in range(4)
    ]
    gram = np.array([[bilinear_form(u, w) for w in walls] for u in walls])
    assert np.allclose(gram, coxeter_matrix(symbol).b, rtol=0, atol=1e-13)


@pytest.mark.parametrize("symbol", [(3, 6, 3), (4, 4, 4), (4, 3, 6), (5, 3, 6)])
def test_orthoscheme_matches_reference_simplex(symbol):
    # the simplex realised from the matrix is the hand-placed one (or the
    # cell's flag) up to an isometry: same vertex classes, same distances
    ortho = build_orthoscheme(symbol)
    reference = reference_orthoscheme(symbol)
    assert [p.classify() for p in ortho.vertices] == [p.classify() for p in reference]
    finite = [i for i, p in enumerate(reference) if p.classify() is PointClass.INTERIOR]
    assert len(finite) >= 2
    for i, j in itertools.combinations(finite, 2):
        assert distance(ortho.vertices[i], ortho.vertices[j]) == pytest.approx(
            distance(reference[i], reference[j]), rel=0, abs=1e-12
        )


def test_unsupported_symbols_raise():
    with pytest.raises(UnsupportedSymbolError):
        build_cell((3, 5, 3))
    with pytest.raises(UnsupportedSymbolError):
        build_cell((6, 3, 6))
    with pytest.raises(UnsupportedSymbolError):
        build_orthoscheme((3, 5, 3))


def _support_faces(pts):
    """(vertex set, outward unit normal) of every face of the convex hull of
    ``pts``, by brute force: a triple spans a face when no point lies
    beyond its plane."""
    centre = pts.mean(axis=0)
    faces = {}
    for a, b, c in itertools.combinations(range(len(pts)), 3):
        n = np.cross(pts[b] - pts[a], pts[c] - pts[a])
        n /= np.linalg.norm(n)
        if (centre - pts[a]) @ n > 0:
            n = -n
        side = (pts - pts[a]) @ n
        if side.max() < 1e-12:
            faces[frozenset(np.flatnonzero(np.abs(side) < 1e-12).tolist())] = n
    return faces


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_orbit_cells_match_the_reference_charts(symbol):
    # the orbit of the pole under [p, q], placed in the chart, against the
    # hand-placed reference: every vertex within 4 ulp of its largest
    # coordinate, and the faces, edges and neighbour cycles of the reference
    cell = build_cell(symbol)
    ref = REFERENCE_CHARTS[symbol]()
    chart = np.array([v.chart() for v in cell.vertices])
    for got, want in zip(chart, ref):
        assert np.abs(got - want).max() <= 4 * np.spacing(np.abs(want).max())
    # both charts are correctly rounded where the reference is exact, and
    # exact zeros come out as 0.0, not -0.0 or a rounding residue
    if symbol in ((3, 3, 6), (3, 4, 4)):
        assert np.array_equal(chart, ref)
    assert not np.signbit(chart[chart == 0.0]).any()

    # faces in the order of their outward normals, each cycle counterclockwise
    # seen from outside and starting at its smallest index
    faces = _support_faces(ref)
    order = sorted(faces, key=lambda f: tuple(np.round(faces[f], 9)))
    assert [frozenset(f) for f in cell.faces] == order
    for idx in cell.faces:
        assert idx[0] == min(idx)
        n = faces[frozenset(idx)]
        for a, b, c in zip(idx, idx[1:] + idx[:1], idx[2:] + idx[:2]):
            assert np.cross(ref[b] - ref[a], ref[c] - ref[b]) @ n > 0

    edges = sorted(
        (i, j) for i, j in itertools.combinations(range(len(ref)), 2)
        if sum({i, j} <= f for f in faces) == 2
    )
    assert list(cell.edges) == edges
    # each neighbour ring is the angular order about the vertex, seen from
    # outside, from its smallest index; around v, each face's successor of v
    # is followed by its predecessor
    for v, ring in enumerate(cell.neighbors):
        adjacent = [u for e in edges if v in e for u in e if u != v]
        want = _angular_order(ref, adjacent, ref[v], ref[v])
        start = want.index(ring[0])
        assert list(ring) == want[start:] + want[:start]
        assert ring[0] == min(ring)
        for idx in (f for f in cell.faces if v in f):
            k = idx.index(v)
            after = ring[(ring.index(idx[(k + 1) % len(idx)]) + 1) % len(ring)]
            assert after == idx[k - 1]


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


def _cycle(indices) -> tuple:
    """A vertex cycle rotated to start at its smallest index."""
    start = indices.index(min(indices))
    return tuple(indices[start:] + indices[:start])


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_symmetries_form_the_reflection_group(symbol):
    # |G| vertex permutations, the identity first, closed under composition,
    # each mapping the edges and the faces onto themselves; an odd element
    # reverses every face cycle and an even one keeps every cycle's sense
    cell = build_cell(symbol)
    g, n = cell.symmetries, cell.n_vertices
    assert g.shape == (GROUP_ORDER[symbol], n)
    assert g[0].tolist() == list(range(n))
    assert (np.sort(g, axis=1) == np.arange(n)).all()
    rows = {tuple(row) for row in g.tolist()}
    assert len(rows) == len(g)
    assert {tuple(a[b].tolist()) for a in g for b in g} == rows
    edges = set(cell.edges)
    cycles = set(cell.faces)
    for row in g.tolist():
        assert {(min(row[i], row[j]), max(row[i], row[j])) for i, j in edges} == edges
        images = [[row[v] for v in f] for f in cycles]
        kept = {_cycle(f) for f in images} == cycles
        reversed_ = {_cycle(f[::-1]) for f in images} == cycles
        assert kept != reversed_


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_symmetries_keep_the_chart_free_tables(symbol):
    # the chart normalizes every vertex to x0 = 1, so a symmetry keeps
    # K_ij sqrt(C_i C_j) and H_v sqrt(C_v); K itself moves on the boosted
    # (3,3,6) chart, where C_3 differs from C_0
    cell = build_cell(symbol)
    root = np.sqrt(cell.sector_coefficients)
    k_hat = cell.gram * np.outer(root, root)
    h_hat = cell.face_bounds * root
    for g in cell.symmetries:
        np.testing.assert_allclose(k_hat[np.ix_(g, g)], k_hat, rtol=2e-15, atol=0)
        np.testing.assert_allclose(h_hat[g], h_hat, rtol=5.3e-15, atol=0)
    moved = max(np.abs(cell.gram[np.ix_(g, g)] - cell.gram).max() for g in cell.symmetries)
    assert bool(moved > 0.1) == (symbol == (3, 3, 6))


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_gram_diagonal_is_an_exact_zero(symbol):
    # ideal vertices are null: the diagonal is +0.0, not -0.0 or a residue
    diagonal = np.diag(build_cell(symbol).gram)
    assert (diagonal == 0.0).all() and not np.signbit(diagonal).any()


def test_dodecahedral_cube_has_the_pyritohedral_stabiliser():
    # vertices 0-7 of (5,3,6) are an inscribed cube: pair parameters 2/3,
    # 4/3 and 2 among themselves, and 24 symmetries map them onto themselves
    cell = build_cell((5, 3, 6))
    kappas = cell.gram[:8, :8][np.triu_indices(8, 1)]
    assert (np.abs(kappas[:, None] - (2.0 / 3.0, 4.0 / 3.0, 2.0)).min(axis=1) <= 1e-9).all()
    g = cell.symmetries
    assert np.count_nonzero((g[:, :8] < 8).all(axis=1)) == 24


# faces that bound each vertex at its least margin, in exact arithmetic
TIED_BOUND_FACES = {(3, 3, 6): 1, (3, 4, 4): 4, (4, 3, 6): 3, (5, 3, 6): 3}


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_bound_faces_do_not_depend_on_float_noise(symbol):
    # congruent faces tie in exact arithmetic, so there is a choice to make:
    # the bounding face is the lowest index among the exact ties, the
    # squared margins -det K[v, a, b, d] / (2 K_ab K_bd K_da) over three
    # vertices of the face, on the exact K.  The planes fitted to the
    # reference charts, which differ from the orbit cells in the last ulps,
    # tie within 1e-12 on the same faces, and their least margin is H_v
    cell = build_cell(symbol)
    ref = np.stack([ProjectivePoint.from_chart(p).coords for p in REFERENCE_CHARTS[symbol]()])
    planes = face_planes(cell, ref)
    with mpmath.workdps(50):
        k = mpmath.matrix(
            [[min(EXACT_GRAM[symbol], key=lambda e: abs(e - x)) if x else 0 for x in row]
             for row in cell.gram.tolist()]
        )
        for v in range(cell.n_vertices):
            far = [f for f, face in enumerate(cell.faces) if v not in face]
            squared = {}
            for f in far:
                a, b, d = cell.faces[f][:3]
                idx = [v, a, b, d]
                sub = mpmath.matrix([[k[i, j] for j in idx] for i in idx])
                squared[f] = -mpmath.det(sub) / (2 * k[a, b] * k[b, d] * k[d, a])
            least = min(squared.values())
            ties = [f for f in far if squared[f] - least < mpmath.mpf(10) ** -40]
            assert len(ties) == TIED_BOUND_FACES[symbol]
            assert cell.bound_faces[v] == ties[0]
            assert cell.face_bounds[v] == float(mpmath.sqrt(least))

            margins = {f: bilinear_form(ref[v], planes[f].normal) for f in far}
            best = min(margins.values())
            assert [f for f in far if margins[f] <= best + 1e-12 * best] == ties
            assert best == pytest.approx(cell.face_bounds[v], rel=1e-14)


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_gram_entries_are_exact(symbol):
    # every off-diagonal K_ij is its exact value rounded once, and every
    # exact value occurs
    cell = build_cell(symbol)
    off_diagonal = cell.gram[~np.eye(cell.n_vertices, dtype=bool)]
    assert set(off_diagonal.tolist()) == {float(e) for e in EXACT_GRAM[symbol]}


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_sector_coefficients_and_face_bounds_are_exact(symbol):
    # every C_v and H_v is its closed form rounded once, and every closed
    # form occurs: the tables are read off the 40-digit K, not the float chart
    cell = build_cell(symbol)
    for table, exact in (
        (cell.sector_coefficients, EXACT_COEFFICIENTS),
        (cell.face_bounds, EXACT_FACE_BOUNDS),
    ):
        assert set(table.tolist()) == {float(e) for e in exact[symbol]}


def test_building_the_cells_loads_no_scipy():
    # the runtime needs only numpy: importing horopack, building the cells
    # and the orthoschemes, and running table2, bf, a sweep and the Monte
    # Carlo volumes load no scipy module at all
    code = (
        "import contextlib, io, sys, horopack\n"
        "from horopack import cli\n"
        "for tiling in horopack.coxeter.FULLY_ASYMPTOTIC_TILINGS:\n"
        "    horopack.build_cell(tiling)\n"
        "for symbol in ((3, 6, 3), (4, 4, 4), (4, 3, 6), (5, 3, 6)):\n"
        "    horopack.build_orthoscheme(symbol)\n"
        "for argv in (['table2'], ['bf'], ['sweep', '536', '--family', 'apex'],\n"
        "             ['volumes', '--samples', '10000']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, f'scipy modules were imported: {loaded}'\n"
    )
    src = Path(horopack.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
