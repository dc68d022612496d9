from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np
import pytest

from horopack import cli
from horopack.coxeter import (
    FULLY_ASYMPTOTIC_TILINGS,
    GeometryError,
    UnsupportedSymbolError,
    build_cell,
    build_orthoscheme,
    coxeter_matrix,
)
from horopack.lorentz import PointClass, bilinear_form
from horopack.packing import catalog, families
from horopack.volume import orthoscheme_volume

SUPPORTED = [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)]

# combinatorics and frozen chart invariants per supported symbol
COUNTS = {
    (3, 3, 6): (4, 6, 4),
    (3, 4, 4): (6, 12, 8),
    (4, 3, 6): (8, 12, 6),
    (5, 3, 6): (20, 30, 12),
}
ORTHOSCHEMES_PER_CELL = {(3, 3, 6): 6, (3, 4, 4): 16, (4, 3, 6): 48, (5, 3, 6): 120}
EDGE_KAPPA = {
    (3, 3, 6): {1.0, 1.5},
    (3, 4, 4): {1.0},
    (4, 3, 6): {2.0 / 3.0},
    (5, 3, 6): {(3.0 - math.sqrt(5.0)) / 3.0},
}
FACE_BOUNDS = {
    (3, 3, 6): {1.0, 1.5},
    (3, 4, 4): {math.sqrt(2.0)},
    (4, 3, 6): {math.sqrt(2.0)},
    (5, 3, 6): {1.0},
}
ADJACENT_FACE_DOT = {
    (3, 3, 6): -0.5,
    (3, 4, 4): 0.0,
    (4, 3, 6): -0.5,
    (5, 3, 6): -0.5,
}
INCENTER_CHART = {
    (3, 3, 6): (0.0, 0.0, 1.0 / 3.0),
    (3, 4, 4): (0.0, 0.0, 0.0),
    (4, 3, 6): (0.0, 0.0, 0.0),
    (5, 3, 6): (0.0, 0.0, 0.0),
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
    for face in cell.faces:
        b = face.plane.normal
        assert face.plane.is_spacelike()
        for i in face.indices:
            assert abs(bilinear_form(cell.vertices[i], b)) < 1e-13
        # inward orientation: the incenter has positive margin
        assert bilinear_form(cell.incenter, b) > 0


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_dihedral_products(symbol):
    cell = build_cell(symbol)
    expected = ADJACENT_FACE_DOT[symbol]
    seen = 0
    for i in range(len(cell.faces)):
        for j in range(i + 1, len(cell.faces)):
            shared = set(cell.faces[i].indices) & set(cell.faces[j].indices)
            if len(shared) == 2:
                dot = bilinear_form(
                    cell.faces[i].plane.normal, cell.faces[j].plane.normal
                )
                assert dot == pytest.approx(expected, abs=1e-12)
                seen += 1
    assert seen == len(cell.edges)


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_edge_kappa_values(symbol):
    cell = build_cell(symbol)
    kappas = {round(cell.kappa(i, j), 10) for i, j in cell.edges}
    expected = {round(k, 10) for k in EDGE_KAPPA[symbol]}
    assert kappas == expected
    i, j = cell.edges[0]
    assert cell.kappa(i, j) == pytest.approx(
        -bilinear_form(cell.vertices[i], cell.vertices[j]), abs=0
    )


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_face_bounds(symbol):
    cell = build_cell(symbol)
    bounds = set()
    for v in range(cell.n_vertices):
        h_max, face_idx = cell.face_bound(v)
        assert v not in cell.faces[face_idx].indices
        assert h_max > 0
        bounds.add(round(h_max, 10))
    assert bounds == {round(b, 10) for b in FACE_BOUNDS[symbol]}


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_tables_match_scalar_forms(symbol):
    # the cached K and H tables against the scalar form they replace
    cell = build_cell(symbol)
    for i in range(cell.n_vertices):
        for j in range(cell.n_vertices):
            if i != j:
                expected = -bilinear_form(cell.vertices[i], cell.vertices[j])
                assert cell.kappa(i, j) == pytest.approx(expected, abs=0)
        best, best_face = None, -1
        for k, face in enumerate(cell.faces):
            if i in face.indices:
                continue
            margin = bilinear_form(cell.vertices[i].coords, face.plane.normal)
            if best is None or margin < best:
                best, best_face = margin, k
        bound, face_idx = cell.face_bound(i)
        assert bound == pytest.approx(best, abs=0)
        assert face_idx == best_face


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_arrays_are_read_only(symbol):
    # build_cell shares one Cell per tiling, so a write would reach every caller
    cell = build_cell(symbol)
    first, second = cell.edge_index
    for table in (cell.gram, cell.face_bounds, cell.sector_coefficients, first, second):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_incenter(symbol):
    cell = build_cell(symbol)
    assert np.allclose(cell.incenter.chart(), INCENTER_CHART[symbol], atol=1e-12)
    # equidistant from all face planes
    margins = [bilinear_form(cell.incenter, f.plane.normal) for f in cell.faces]
    assert max(margins) - min(margins) < 1e-12


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_cell_volume_consistency(symbol):
    cell = build_cell(symbol)
    closed_form = cell.orthoschemes_per_cell * orthoscheme_volume(cell.orthoscheme_symbol).value
    assert cell.volume == pytest.approx(closed_form, rel=1e-15)
    assert cell.volume > 0


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


def test_unsupported_symbols_raise():
    with pytest.raises(UnsupportedSymbolError):
        build_cell((3, 5, 3))
    with pytest.raises(UnsupportedSymbolError):
        build_cell((6, 3, 6))
    with pytest.raises(UnsupportedSymbolError):
        build_orthoscheme((3, 5, 3))
