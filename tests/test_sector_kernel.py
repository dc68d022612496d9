"""The float Heron kernel against the object-based fan it replaced.

The reference below is the former sector path: ``ray_crossing`` on
ProjectivePoints, ``horospheric_chord_length`` and ``heron_area`` (from
``horosphere_reference``), fanned from the first crossing.  The kernel performs the same floating-point
operations in the same order, so every comparison is exact (``==``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from horosphere_reference import HorosphericTriangle, heron_area, horospheric_chord_length

from horopack.coxeter import build_cell
from horopack.horoball import (
    FaceOverflowError,
    _cell_sector_volume,
    cone_sector_volume,
    horoball_level,
    pencil_value,
    ray_crossing,
    vertex_sector_volume,
)
from horopack.lorentz import GeometryError, ProjectivePoint, as_vector, bilinear_form
from horopack.packing import (
    AdmissibilityError,
    admissible_interval,
    balanced_levels,
    ball_gap,
    catalog,
    configuration,
    contact_offset,
    families,
    sector_coefficient,
    volume_function,
)

TILINGS = [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)]


# ---------------------------------------------------------------------------
# reference: the object-based fan


def reference_crossing(hb, target) -> ProjectivePoint:
    w = as_vector(target)
    kappa = -bilinear_form(hb.center, w)
    if kappa <= 0.0:
        raise GeometryError("ray target is not on the interior side of the center")
    qw = pencil_value(hb, w)
    if abs(qw) < 1e-300:
        return ProjectivePoint(w).chart_normalized()
    mu = 2.0 * hb.h * hb.h * kappa / qw
    return ProjectivePoint(hb.center.coords + mu * w).chart_normalized()


def reference_fan(hb, targets) -> float:
    crossings = [reference_crossing(hb, t) for t in targets]
    total = 0.0
    for t in range(1, len(crossings) - 1):
        total += heron_area(
            HorosphericTriangle(
                horospheric_chord_length(hb, crossings[0], crossings[t]),
                horospheric_chord_length(hb, crossings[t], crossings[t + 1]),
                horospheric_chord_length(hb, crossings[0], crossings[t + 1]),
            )
        )
    return 0.5 * total


def reference_sector(cell, vertex: int, h: float) -> float:
    hb = horoball_level(cell.vertices[vertex], h)
    return reference_fan(hb, [cell.vertices[j] for j in cell.neighbors[vertex]])


def reference_volume_function(cell, edge, x: float) -> float:
    i, j = edge
    hi0, hj0 = balanced_levels(cell, edge)
    return reference_sector(cell, i, hi0 * math.exp(x)) + reference_sector(
        cell, j, hj0 * math.exp(-x)
    )


# ---------------------------------------------------------------------------
# bit-for-bit pins


def _states(tiling):
    """Catalog states and five interior points of every family."""
    configs = list(catalog(tiling))
    for fam in families(tiling):
        lo, hi = fam.s_range
        configs += [fam.at(lo + k * (hi - lo) / 6.0) for k in range(1, 6)]
    return configs


@pytest.mark.parametrize("tiling", TILINGS)
def test_states_match_reference(tiling):
    rng = np.random.default_rng(61)
    for config in _states(tiling):
        cell = config.cell
        for v in range(cell.n_vertices):
            value = vertex_sector_volume(config.horoball(v), cell, v)
            assert value == reference_sector(cell, v, config.levels[v])
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
    rng = np.random.default_rng(20240816)
    for _ in range(200):
        v = int(rng.integers(cell.n_vertices))
        h = float(rng.uniform(1e-3, 1.0) * cell.face_bound(v)[0])
        hb = horoball_level(cell.vertices[v], h)
        assert vertex_sector_volume(hb, cell, v) == reference_sector(cell, v, h)
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
def test_sector_coefficients_match_reference(tiling):
    cell = build_cell(tiling)
    for v in range(cell.n_vertices):
        h = 0.5 * min(math.sqrt(0.5 * cell.kappa(v, j)) for j in cell.neighbors[v])
        assert sector_coefficient(cell, v) == reference_sector(cell, v, h) / (h * h)


def test_cone_sectors_match_reference():
    # the characteristic-simplex cones of test_octahedron_cone_sectors
    chart = ProjectivePoint.from_chart
    apex, antipode = chart((0.0, 0.0, 1.0)), chart((0.0, 0.0, -1.0))
    equator, mid = chart((0.0, 1.0, 0.0)), chart((0.5, 0.5, 0.0))
    center = ProjectivePoint((1.0, 0.0, 0.0, 0.0))
    cases = [
        (horoball_level(apex, math.sqrt(2.0)), [equator, mid, center]),
        (horoball_level(antipode, 1.0 / math.sqrt(2.0)), [equator, mid, center]),
        (horoball_level(equator, 1.0 / (2.0 * math.sqrt(2.0))), [mid, center, apex]),
    ]
    for hb, rays in cases:
        assert cone_sector_volume(hb, rays) == reference_fan(hb, rays)


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


@pytest.mark.parametrize("tiling", TILINGS)
def test_level_above_face_bound_names_the_face(tiling):
    cell = build_cell(tiling)
    for v in range(cell.n_vertices):
        bound, face = cell.face_bound(v)
        for h in (1.01 * bound, math.inf):
            with pytest.raises(FaceOverflowError) as exc:
                _cell_sector_volume(cell, v, h)
            assert exc.value.face_index == face
        with pytest.raises(FaceOverflowError) as exc:
            vertex_sector_volume(horoball_level(cell.vertices[v], 1.01 * bound), cell, v)
        assert exc.value.face_index == face


def test_non_positive_levels_raise():
    cell = build_cell((3, 3, 6))
    for h in (0.0, -0.5, math.nan):
        with pytest.raises(GeometryError):
            _cell_sector_volume(cell, 0, h)


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
    cell = build_cell((4, 3, 6))
    hb = horoball_level(cell.vertices[0], 0.3)
    with pytest.raises(GeometryError, match="not centered"):
        vertex_sector_volume(hb, cell, 1)
