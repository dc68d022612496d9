"""The sector law C_v h^2, the level-free Heron kernel behind C_v, and the
one oracle for both: the cusp-cone integral of ``cusp_cones``.

``vertex_sector_volume`` and ``volume_function`` price a ball in its cell as
C_v h^2, the product ``packing.evaluate`` forms, so they are pinned to that
product exactly (``==``); the per-edge table ``Cell.edge_law`` behind
``volume_function`` is pinned to its closed form from K, C and H.  The float
Heron kernel ``_sector_coefficient`` runs only in ``cone_sector_volume``; it
reads the level-1 chords off the Lorentz form, with no horosphere crossing.
On a cell's rounded chart it stays within 4 ulp of the stored C_v, which
``build_cell`` reads off the 40-digit Gram table instead.
``ray_crossing`` is pinned to the object-based crossing of
``horosphere_reference`` exactly.

``cusp_cones`` shares no horopack code.  A ray from the cusp carries
4 h^2 / d^3 of its cone, so ``cone_coefficient`` prices any cone with ideal
or interior targets: every C_v, the law and the cone path match it within
1e-14 at every level from 1e-3 H_v to H_v, and so do the cones of
characteristic simplices with interior targets.  ``ball_volume`` cuts each
ray at the cell's faces, so it gives the ball in its cell at any level:
C_v h^2 matches it up to H_v and falls short of it just past H_v.
"""

from __future__ import annotations

import ast
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from cusp_cones import ball_volume, chart_points, cone_coefficient, ray_term
from horosphere_reference import reference_crossing

from horopack import coxeter, horoball
from horopack.coxeter import build_cell
from horopack.horoball import (
    FACE_TOL,
    FaceOverflowError,
    cell_volume_oracle,
    cone_sector_volume,
    horoball_level,
    ray_crossing,
    vertex_sector_volume,
)
from horopack.lorentz import GeometryError, ProjectivePoint
from horopack.packing import (
    AdmissibilityError,
    admissible_interval,
    balanced_levels,
    ball_gap,
    catalog,
    configuration,
    contact_offset,
    density,
    evaluate,
    families,
    sweep,
    volume_function,
)

TILINGS = [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)]


# ---------------------------------------------------------------------------
# the sector law and the kernel's public cone entry


def law(cell, vertex: int, h: float) -> float:
    return float(cell.sector_coefficients[vertex] * (h * h))


def heron_sector(cell, vertex: int, h: float) -> float:
    """The Heron kernel on the vertex cone, through the public cone entry."""
    hb = horoball_level(cell.vertices[vertex], h)
    return cone_sector_volume(hb, [cell.vertices[j] for j in cell.neighbors[vertex]])


def vertex_cone(cell, vertex: int, order: int = 24) -> float:
    """C of the cone from the vertex over its ring of neighbours, by the
    cusp-cone integral."""
    chart = chart_points(cell)
    return cone_coefficient(chart[vertex], chart[list(cell.neighbors[vertex])], order)


def reference_balanced_levels(cell, edge) -> tuple[float, float]:
    """2 h_i h_j = K_ij with C_i h_i^2 = C_j h_j^2, in closed form from the
    cell's arrays (not from ``Cell.edge_law``)."""
    i, j = edge
    kappa = float(cell.gram[i, j])
    coefficients = cell.sector_coefficients
    hi = math.sqrt(0.5 * kappa * math.sqrt(coefficients[j] / coefficients[i]))
    return hi, 0.5 * kappa / hi


def reference_interval(cell, edge) -> tuple[float, float]:
    hi0, hj0 = reference_balanced_levels(cell, edge)
    i, j = edge
    return -math.log(cell.face_bounds[j] / hj0), math.log(cell.face_bounds[i] / hi0)


def reference_volume_function(cell, edge, x: float) -> float:
    i, j = edge
    hi0, hj0 = reference_balanced_levels(cell, edge)
    return law(cell, i, hi0 * math.exp(x)) + law(cell, j, hj0 * math.exp(-x))


# ---------------------------------------------------------------------------
# pins against the law and the cusp-cone integral


def _states(tiling):
    """Catalog states and five interior points of every family."""
    configs = list(catalog(tiling))
    for fam in families(tiling):
        lo, hi = fam.s_range
        configs += [fam.at(lo + k * (hi - lo) / 6.0) for k in range(1, 6)]
    return configs


def assert_sector_accuracy(cell, v: int, h: float, coefficient: float) -> None:
    """The float kernel on the rounded chart within 4 ulp of the stored C_v,
    and the cone path at level h within 1e-14 of the cusp-cone C h^2."""
    stored = cell.sector_coefficients[v]
    ring = np.stack([cell.vertices[j].coords for j in cell.neighbors[v]])
    kernel = horoball._sector_coefficient(cell.vertices[v].coords, ring)
    assert abs(kernel - stored) <= 4 * np.spacing(stored)
    assert heron_sector(cell, v, h) == pytest.approx(coefficient * h * h, rel=1e-14, abs=0)


@pytest.mark.parametrize("tiling", TILINGS)
def test_states_match_reference(tiling):
    rng = np.random.default_rng(61)
    cell = build_cell(tiling)
    coefficients = [vertex_cone(cell, v) for v in range(cell.n_vertices)]
    for config in _states(tiling):
        for v in range(cell.n_vertices):
            h = config.levels[v]
            assert vertex_sector_volume(cell, v, h) == law(cell, v, h)
            assert_sector_accuracy(cell, v, h, coefficients[v])
        for edge in cell.edges:
            if abs(ball_gap(cell, config.levels, *edge)) > 1e-9:
                continue
            lo, hi = admissible_interval(cell, edge)
            for x in [0.0, lo, hi] + list(lo + rng.random(2) * (hi - lo)):
                x = float(x)
                assert volume_function(config, edge, x) == reference_volume_function(
                    cell, edge, x
                )


@pytest.mark.parametrize("tiling", TILINGS)
def test_random_levels_match_reference(tiling):
    cell = build_cell(tiling)
    coefficients = [vertex_cone(cell, v) for v in range(cell.n_vertices)]
    rng = np.random.default_rng(20240816)
    for _ in range(200):
        v = int(rng.integers(cell.n_vertices))
        h = float(rng.uniform(1e-3, 1.0) * cell.face_bound(v)[0])
        hb = horoball_level(cell.vertices[v], h)
        assert_sector_accuracy(cell, v, h, coefficients[v])
        assert vertex_sector_volume(cell, v, h) == law(cell, v, h)
        for j in cell.neighbors[v]:
            crossing = ray_crossing(hb, cell.vertices[j]).coords.tolist()
            assert crossing == reference_crossing(hb, cell.vertices[j]).coords.tolist()

        i, j = cell.edges[int(rng.integers(len(cell.edges)))]
        levels = [1e-3] * cell.n_vertices
        levels[i], levels[j] = balanced_levels(cell, (i, j))
        config = configuration(tiling, levels)
        lo, hi = admissible_interval(cell, (i, j))
        x = float(rng.uniform(lo, hi))
        assert volume_function(config, (i, j), x) == reference_volume_function(
            cell, (i, j), x
        )


@pytest.mark.parametrize("tiling", TILINGS)
def test_edge_law_is_the_closed_form(tiling):
    # the per-edge table gives the closed form's values bit for bit, on
    # every directed edge and at seeded offsets across the interval
    cell = build_cell(tiling)
    rng = np.random.default_rng(2417)
    assert len(cell.edge_law) == 2 * len(cell.edges)
    for a, b in cell.edges:
        for edge in ((a, b), (b, a)):
            i, j = edge
            hi0, hj0 = reference_balanced_levels(cell, edge)
            lo, hi = reference_interval(cell, edge)
            assert balanced_levels(cell, edge) == (hi0, hj0)
            assert admissible_interval(cell, edge) == (lo, hi)
            levels = [1e-3] * cell.n_vertices
            levels[i], levels[j] = hi0, hj0
            config = configuration(tiling, levels)
            for x in [0.0, lo, hi, *(lo + rng.random(4) * (hi - lo)).tolist()]:
                assert volume_function(config, edge, x) == reference_volume_function(
                    cell, edge, x
                )
    with pytest.raises(TypeError):
        cell.edge_law[cell.edges[0]] = (1.0, 1.0, -1.0, 1.0, 2.0)


@pytest.mark.parametrize("tiling", TILINGS)
def test_sector_coefficients_match_reference(tiling):
    # every C_v within 1e-14 of the cusp-cone integral over its vertex cone
    # at orders 24 and 32 (the rounding of C_v itself is pinned by
    # test_coxeter's closed forms)
    cell = build_cell(tiling)
    for v in range(cell.n_vertices):
        for order in (24, 32):
            assert cell.sector_coefficients[v] == pytest.approx(
                vertex_cone(cell, v, order), rel=1e-14, abs=0
            )


def test_cone_sectors_match_reference():
    # the characteristic-simplex cones of test_octahedron_cone_sectors
    chart = ProjectivePoint.from_chart
    apex, antipode = chart((0.0, 0.0, 1.0)), chart((0.0, 0.0, -1.0))
    equator, mid = chart((0.0, 1.0, 0.0)), chart((0.5, 0.5, 0.0))
    center = ProjectivePoint((1.0, 0.0, 0.0, 0.0))
    cases = [
        (horoball_level(apex, math.sqrt(2.0)), [equator, mid, center], 1 / 4),
        (horoball_level(antipode, 1.0 / math.sqrt(2.0)), [equator, mid, center], 1 / 16),
        (horoball_level(equator, 1.0 / (2.0 * math.sqrt(2.0))), [mid, center, apex], 1 / 32),
    ]
    # interior targets: the exact volumes of the octahedral characteristic
    # simplex, and the cusp-cone integral over the same cone
    for hb, rays, exact in cases:
        sector = cone_sector_volume(hb, rays)
        assert sector == pytest.approx(exact, rel=2e-15)
        coefficient = cone_coefficient(hb.center.chart(), [ray.chart() for ray in rays])
        assert sector == pytest.approx(coefficient * hb.h * hb.h, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# accuracy at every level, and one price everywhere

@pytest.mark.parametrize("tiling", TILINGS)
def test_sectors_match_the_digit_oracle(tiling):
    # the law and the cone path carry C_v's accuracy to every level: both
    # within 1e-14 of the cusp-cone C h^2 from 1e-3 H_v to H_v
    cell = build_cell(tiling)
    rng = np.random.default_rng(1801)
    for v in range(cell.n_vertices):
        coefficient = vertex_cone(cell, v)
        for f in [1e-3, 1e-2, 0.1, 0.5, 1.0, *rng.uniform(1e-3, 1.0, 8).tolist()]:
            h = float(f * cell.face_bounds[v])
            exact = coefficient * h * h
            assert vertex_sector_volume(cell, v, h) == pytest.approx(exact, rel=1e-14, abs=0)
            assert heron_sector(cell, v, h) == pytest.approx(exact, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# the law out of rays from the cusp


@pytest.mark.parametrize("tiling", TILINGS)
def test_cusp_cones_pin_every_coefficient_and_face_bound(tiling):
    # the cusp-cone kernel gives the ball in its cell at any level, so C_v
    # h^2 has to come out of it up to the face bound H_v, where orders 24
    # and 32 agree (the kernel's own error); just past H_v the ball leaves
    # the cell and falls short of the law
    cell = build_cell(tiling)
    for v in range(cell.n_vertices):
        bound = float(cell.face_bounds[v])
        for h in (0.5 * bound, bound):
            kernel = ball_volume(cell, v, h)
            assert kernel == pytest.approx(vertex_sector_volume(cell, v, h), rel=1e-14, abs=0)
            assert kernel == pytest.approx(ball_volume(cell, v, h, order=32), rel=1e-14, abs=0)
        h = 1.01 * bound
        assert ball_volume(cell, v, h) < (1.0 - 1e-5) * law(cell, v, h)


def test_ray_algebra_gives_the_law_in_h_squared():
    # on the ray p = a + tau e from the cusp a (|a| = 1), e = q - a and d =
    # 2 (1 - a.q), the ball of level h ends at tau_e = d / (d^2 / (4 h^2) +
    # |e|^2), on its pencil form (1 - p.a)^2 = h^2 (1 - |p|^2), and the ray
    # carries tau_e / (d (d - tau_e |e|^2)) = 4 h^2 / d^3 of it
    # the rays end at |q| <= 0.9 and h <= 2: nearer the sphere d - tau_e |e|^2
    # cancels in floats
    rng = np.random.default_rng(3603)
    a, q = rng.standard_normal((2, 1000, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    q *= 0.9 * rng.random((1000, 1)) ** (1.0 / 3.0) / np.linalg.norm(q, axis=1, keepdims=True)
    h, e = rng.uniform(0.1, 2.0, 1000), q - a
    d, ee = 2.0 * (1.0 - np.einsum("ij,ij->i", a, q)), np.einsum("ij,ij->i", e, e)
    tau_e = d / (d * d / (4.0 * h * h) + ee)
    p = a + tau_e[:, None] * e
    assert np.abs((1.0 - (p * a).sum(1)) ** 2 - h * h * (1.0 - (p * p).sum(1))).max() <= 1e-13
    law_term = 4.0 * h * h / d**3
    assert np.abs(tau_e / (d * (d - tau_e * ee)) / law_term - 1.0).max() <= 1e-13
    inside = tau_e <= 1.0
    assert 0.2 < inside.mean() < 0.8
    assert np.abs(ray_term(d, ee, h)[inside] / law_term[inside] - 1.0).max() <= 1e-13


def test_cusp_cones_share_no_code_with_the_sector_tables():
    # the kernel imports only math, numpy and build_cell, and reads only
    # the cell's chart vertices and faces, so no horopack function behind
    # C_v or H_v is on its path
    tree = ast.parse((Path(__file__).parent / "cusp_cones.py").read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "cell":
            read.add(node.attr)
        assert not (isinstance(node, ast.Name) and node.id == "__import__")
    assert "numpy" in imported
    assert imported <= {"math", "numpy", "horopack.coxeter.build_cell"}
    assert read == {"vertices", "faces"}


@pytest.mark.parametrize("tiling", TILINGS)
def test_one_price_for_every_family_entry(tiling):
    for fam in families(tiling):
        levels = fam.level_matrix(np.linspace(*fam.s_range, 101))
        sectors = evaluate(fam.cell, levels).sectors
        for r, v in np.ndindex(*levels.shape):
            assert sectors[r, v] == vertex_sector_volume(fam.cell, v, levels[r, v])


@pytest.mark.parametrize("tiling", TILINGS)
def test_chart_free_tables_are_one_value_per_cell(tiling):
    # every vertex and every edge of a cell is alike, so the level-free
    # face bounds H_v sqrt(C_v) and edge entries K_ij sqrt(C_i C_j) are one
    # value each, bit for bit, as each of K, C and H is rounded once
    cell = build_cell(tiling)
    c = cell.sector_coefficients
    i, j = cell.edge_index
    for table in (cell.face_bounds * np.sqrt(c), cell.gram[i, j] * np.sqrt(c[i] * c[j])):
        assert table.max() == table.min()


def test_no_heron_after_the_cells_are_built(monkeypatch):
    pairs = {tiling: _tangent_pair(tiling) for tiling in TILINGS}

    def refuse(*args):
        raise AssertionError("float Heron kernel called")

    # building a cell does not run the float kernel either; a fresh build
    # leaves build_cell's cache, which the cached families share, alone
    monkeypatch.setattr(horoball, "_sector_coefficient", refuse)
    for tiling, (config, edge) in pairs.items():
        coxeter._assemble_cell(tiling, *coxeter._CELL_RECIPES[tiling])
        density(config)
        for fam in families(tiling):
            sweep(tiling, fam, np.linspace(*fam.s_range, 11))
        volume_function(config, edge, 0.0)
        cell_volume_oracle(config.cell, 10_000, 1)


# ---------------------------------------------------------------------------
# errors without horoball_level in front of the kernel


def _tangent_pair(tiling):
    config = catalog(tiling)[0]
    edge = next(
        e for e in config.cell.edges if abs(ball_gap(config.cell, config.levels, *e)) <= 1e-9
    )
    return config, edge


@pytest.mark.parametrize("tiling", TILINGS)
def test_volume_function_rejects_non_finite_offsets(tiling):
    config, edge = _tangent_pair(tiling)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(AdmissibilityError):
            volume_function(config, edge, x)


def test_balanced_levels_reject_pairs_that_are_not_edges():
    cell = build_cell((3, 3, 6))
    config, _ = _tangent_pair((3, 3, 6))
    for pair in ((0, 5), (0, 0), (5, 0), (-1, 1)):
        for call in (
            lambda: balanced_levels(cell, pair),
            lambda: admissible_interval(cell, pair),
            lambda: volume_function(config, pair, 0.0),
            lambda: contact_offset(config, pair),
        ):
            with pytest.raises(GeometryError, match=f"pair {pair[0]},{pair[1]} is not an edge"):
                call()
    # every cell edge passes in both orientations
    for i, j in cell.edges:
        assert balanced_levels(cell, (j, i)) == pytest.approx(balanced_levels(cell, (i, j))[::-1])


def test_edge_indices_are_read_whole():
    # a float pair hashes like the int pair, so the indices are read before
    # the table lookup: floats and strings are refused, numpy ints read as
    # ints, and a pair of vertices that share no edge is refused either way
    # round
    config, edge = _tangent_pair((4, 3, 6))
    cell = config.cell
    i, j = edge
    readers = (
        lambda pair: balanced_levels(cell, pair),
        lambda pair: admissible_interval(cell, pair),
        lambda pair: volume_function(config, pair, 0.0),
        lambda pair: contact_offset(config, pair),
    )
    far = [k for k in range(cell.n_vertices) if k != i and k not in cell.neighbors[i]]
    assert far
    for read in readers:
        for bad in ((float(i), float(j)), (i, float(j)), (str(i), j), (i, str(j))):
            with pytest.raises(GeometryError, match="vertex index must be an integer"):
                read(bad)
        assert read((np.int64(i), np.int64(j))) == read((i, j))
        for k in far:
            for a, b in ((i, k), (k, i)):
                with pytest.raises(GeometryError, match=f"pair {a},{b} is not an edge"):
                    read((a, b))


@pytest.mark.parametrize("tiling", TILINGS)
def test_level_above_face_bound_names_the_face(tiling):
    # the tolerance is FACE_TOL, and the message and face index are the
    # cell's face_bound
    cell = build_cell(tiling)
    for v in range(cell.n_vertices):
        bound, face = cell.face_bound(v)
        assert vertex_sector_volume(cell, v, bound + 0.5 * FACE_TOL) == law(
            cell, v, bound + 0.5 * FACE_TOL
        )
        for h in (bound + 2.0 * FACE_TOL, 1.01 * bound, math.inf):
            text = (
                f"horoball level {h:.12g} at vertex {v} crosses "
                f"non-adjacent face {face} (bound {bound:.12g})"
            )
            with pytest.raises(FaceOverflowError, match=re.escape(text)) as exc:
                vertex_sector_volume(cell, v, h)
            assert exc.value.face_index == face


def test_non_positive_levels_raise():
    for cell in map(build_cell, TILINGS):
        for v, h in itertools.product(range(cell.n_vertices), (0.0, -0.5, math.nan)):
            with pytest.raises(GeometryError, match=f"level h = {h} must be positive") as exc:
                vertex_sector_volume(cell, v, h)
            assert type(exc.value) is GeometryError


def test_levels_are_read_as_real_numbers():
    # every entry point that reads a level refuses a numeric string rather
    # than parsing it, passes numpy floats and keeps the level as a float
    cell = build_cell((3, 3, 6))
    readers = (
        lambda h: vertex_sector_volume(cell, 0, h),
        lambda h: horoball_level(cell.vertices[0], h).h,
        lambda h: configuration((3, 3, 6), [h] * 4).levels[0],
    )
    for read in readers:
        for h in ("0.3", None, [0.3], 0.3j):
            with pytest.raises(GeometryError, match="real number"):
                read(h)
        value = read(np.float64(0.3))
        assert type(value) is float and value == read(0.3)
    # the reader itself: a float comes back as it is, other reals as floats
    for value in (0.3, -0.0, 3, True, np.float64(0.3), np.int64(2)):
        read = horoball._real(value)
        assert type(read) is float and read == float(value)
    for value in ("0.3", None, np.array(0.3), [0.3], 0.3j):
        with pytest.raises(GeometryError, match="real number"):
            horoball._real(value)


def test_ray_target_behind_the_center_raises():
    apex = ProjectivePoint.from_chart((0.0, 0.0, 1.0))
    hb = horoball_level(apex, 1.0)
    rays = [ProjectivePoint.from_chart(p) for p in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))]
    # kappa = 0 at the center itself, kappa < 0 for a representative with x0 < 0
    for bad in (apex, ProjectivePoint((-1.0, 0.0, 0.0, 0.0))):
        with pytest.raises(GeometryError):
            cone_sector_volume(hb, rays + [bad])
        with pytest.raises(GeometryError):
            ray_crossing(hb, bad)


def test_ball_at_the_wrong_vertex_raises():
    # a ball is named by its vertex index, read whole and inside the cell
    cell = build_cell((4, 3, 6))
    for vertex in (-1, 8, 0.5, "1"):
        with pytest.raises(GeometryError, match="vertex"):
            vertex_sector_volume(cell, vertex, 0.3)
    value = vertex_sector_volume(cell, 7, 0.3)
    assert vertex_sector_volume(cell, np.int64(7), 0.3) == value
