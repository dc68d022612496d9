from __future__ import annotations

import math

import numpy as np
import pytest
from quadrature import sector_volume_quadrature

from horopack.coxeter import build_cell
from horopack.horoball import (
    FaceOverflowError,
    HorosphericTriangle,
    bolyai_arc_length,
    busemann_level,
    cartesian_form,
    cell_volume_oracle,
    cone_sector_volume,
    contains,
    edge_intersection,
    heron_area,
    horoball_at,
    horoball_level,
    horospheric_chord_length,
    pencil_value,
    polar_point,
    pushed,
    ray_crossing,
    same_type_level,
    sector_volume,
    vertex_sector_volume,
)
from horopack.lorentz import GeometryError, ProjectivePoint, distance

CANONICAL = ProjectivePoint((1.0, 0.0, 0.0, 1.0))


def chart_point(*xyz):
    return ProjectivePoint.from_chart(xyz)


def test_level_parameter_round_trip():
    for s in (-0.5, 0.0, 0.3, 0.9):
        hb = horoball_at(CANONICAL, s)
        assert hb.h == pytest.approx(math.sqrt((1.0 - s) / (1.0 + s)), abs=1e-15)
        back = horoball_level(CANONICAL, hb.h)
        assert back.s == pytest.approx(s, abs=1e-14)
    assert horoball_level(CANONICAL, 1.0).s == pytest.approx(0.0, abs=1e-15)


def test_construction_validation():
    for s in (1.0, -1.0, math.nan, -math.inf):
        with pytest.raises(GeometryError):
            horoball_at(CANONICAL, s)
    for h in (math.nan, math.inf):
        with pytest.raises(GeometryError):
            horoball_level(CANONICAL, h)
    with pytest.raises(GeometryError):
        horoball_level(CANONICAL, 0.0)
    with pytest.raises(GeometryError):
        horoball_level(CANONICAL, -0.2)
    with pytest.raises(GeometryError):
        horoball_level(ProjectivePoint((1.0, 0.0, 0.0, 0.0)), 1.0)


def test_pushed_rescales_level():
    hb = horoball_level(CANONICAL, 0.9)
    assert pushed(hb, 0.0).h == pytest.approx(hb.h, abs=1e-15)
    assert pushed(hb, 0.7).h == pytest.approx(0.9 * math.exp(-0.7), abs=1e-15)
    assert pushed(hb, -0.7).h == pytest.approx(0.9 * math.exp(0.7), abs=1e-15)


def test_membership_consistency():
    hb = horoball_level(CANONICAL, 1.0)
    inside = chart_point(0.0, 0.0, 0.5)
    outside = chart_point(0.0, 0.0, -0.5)
    assert contains(hb, inside) and not contains(hb, outside)
    assert pencil_value(hb, inside.coords) < 0 < pencil_value(hb, outside.coords)


def test_busemann_level_on_surface():
    hb = horoball_level(CANONICAL, 0.75)
    for theta, phi in [(0.3, 0.0), (1.2, 2.0), (2.5, -1.1)]:
        p = polar_point(hb, theta, phi)
        assert busemann_level(hb, p) == pytest.approx(hb.h, abs=1e-12)
    # deeper points have smaller Busemann level
    assert busemann_level(hb, chart_point(0.0, 0.0, 0.9)) < hb.h
    with pytest.raises(GeometryError):
        busemann_level(hb, (1.0, 1.0, 0.0, 0.0))


def test_cartesian_form():
    hb = horoball_level(CANONICAL, 1.0)
    form = cartesian_form(hb)
    assert form.coeff_xy == pytest.approx(2.0, abs=1e-15)
    assert form.coeff_z == pytest.approx(4.0, abs=1e-15)
    assert form.center_z == pytest.approx(0.5, abs=1e-15)
    for h in (0.4, 0.9, 1.3):
        f = cartesian_form(horoball_level(CANONICAL, h))
        s = (1.0 - h * h) / (1.0 + h * h)
        semi_z = 1.0 / math.sqrt(f.coeff_z)
        assert f.center_z + semi_z == pytest.approx(1.0, abs=1e-14)
        assert f.center_z - semi_z == pytest.approx(s, abs=1e-14)
    with pytest.raises(GeometryError):
        cartesian_form(horoball_level(chart_point(0.0, 1.0, 0.0), 1.0))


def test_polar_points_lie_on_surface():
    centers = [CANONICAL] + list(build_cell((3, 3, 6)).vertices)
    for center in centers:
        hb = horoball_level(center, 0.85)
        for theta in (0.0, 0.4, 1.3, 2.8):
            for phi in (0.0, 1.0, 4.5):
                p = polar_point(hb, theta, phi)
                assert abs(pencil_value(hb, p.coords)) < 1e-12
    # theta = 0 is the tangency apex at the ideal center
    hb = horoball_level(CANONICAL, 0.85)
    assert np.allclose(polar_point(hb, 0.0, 0.0).chart(), [0.0, 0.0, 1.0], atol=1e-14)


def test_ray_crossing_depends_only_on_ray():
    hb = horoball_level(chart_point(0.0, 0.0, 1.0), math.sqrt(2.0))
    assert hb.s == pytest.approx(-1.0 / 3.0, abs=1e-15)
    for target in [(0.0, 0.0, 0.0), (0.0, 0.0, -0.5), (0.0, 0.0, 0.5)]:
        x = ray_crossing(hb, chart_point(*target))
        assert np.allclose(x.chart(), [0.0, 0.0, -1.0 / 3.0], atol=1e-12)
    # ideal target on the same ray
    x = ray_crossing(hb, chart_point(0.0, 0.0, -1.0))
    assert np.allclose(x.chart(), [0.0, 0.0, -1.0 / 3.0], atol=1e-12)
    assert abs(pencil_value(hb, x.coords)) < 1e-12
    with pytest.raises(GeometryError):
        ray_crossing(hb, hb.center)


def test_edge_intersection_axis():
    for h in (0.6, 1.0, 1.4):
        hb = horoball_level(CANONICAL, h)
        x = edge_intersection(hb, chart_point(0.0, 0.0, -1.0), chart_point(0.0, 0.0, 1.0))
        assert np.allclose(x.chart(), [0.0, 0.0, hb.s], atol=1e-12)


def test_edge_intersection_miss_and_tangency():
    hb = horoball_level(CANONICAL, 1.0)
    assert (
        edge_intersection(hb, chart_point(0.0, 0.9, -0.5), chart_point(0.0, -0.9, -0.5))
        is None
    )
    # the chart x-axis touches the surface exactly at the origin
    x = edge_intersection(hb, chart_point(-1.0, 0.0, 0.0), chart_point(1.0, 0.0, 0.0))
    assert np.allclose(x.chart(), [0.0, 0.0, 0.0], atol=1e-9)


def test_edge_intersection_two_crossings_picks_deeper_side():
    hb = horoball_level(CANONICAL, 1.0)
    # chord at height 1/2 crosses at x = -+ sqrt(1/2)
    a, b = chart_point(-1.0, 0.0, 0.5), chart_point(0.8, 0.0, 0.5)
    x = edge_intersection(hb, a, b)
    assert np.allclose(x.chart(), [math.sqrt(0.5), 0.0, 0.5], atol=1e-12)
    x = edge_intersection(hb, chart_point(0.8, 0.0, 0.5), chart_point(-1.0, 0.0, 0.5))
    assert np.allclose(x.chart(), [math.sqrt(0.5), 0.0, 0.5], atol=1e-12)


def test_horospheric_chord_length():
    hb = horoball_level(CANONICAL, 0.8)
    p = polar_point(hb, 0.9, 0.3)
    q = polar_point(hb, 1.7, 2.2)
    chord = horospheric_chord_length(hb, p, q)
    d = distance(p, q)
    assert chord == pytest.approx(math.sqrt(2.0 * (math.cosh(d) - 1.0)), abs=1e-12)
    assert chord == pytest.approx(2.0 * math.sinh(d / 2.0), abs=1e-12)
    with pytest.raises(GeometryError):
        horospheric_chord_length(hb, p, chart_point(0.0, 0.0, 0.0))


def test_bolyai_arc_length():
    assert bolyai_arc_length(0.0) == 0.0
    assert bolyai_arc_length(1.3) == pytest.approx(math.sinh(1.3), abs=1e-15)
    with pytest.raises(GeometryError):
        bolyai_arc_length(-0.1)


def test_heron_area():
    assert heron_area(HorosphericTriangle(3.0, 4.0, 5.0)) == pytest.approx(6.0)
    assert heron_area(HorosphericTriangle(1.0, 1.0, 2.0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(GeometryError):
        heron_area(HorosphericTriangle(1.0, 1.0, 2.2))
    with pytest.raises(GeometryError):
        sector_volume(-1.0)


def test_sector_volume_scales_with_level_squared():
    cell = build_cell((4, 3, 6))
    base = vertex_sector_volume(horoball_level(cell.vertices[3], 0.3), cell, 3)
    for h in (0.6, 0.9, 1.2):
        v = vertex_sector_volume(horoball_level(cell.vertices[3], h), cell, 3)
        assert v == pytest.approx(base * (h / 0.3) ** 2, rel=1e-13)


QUADRATURE_CASES = [
    ((3, 3, 6), 0, 1.2, 0.41569219381653094),
    ((3, 4, 4), 0, 0.8, 0.6400000000000005),
    ((4, 3, 6), 3, 0.9, 1.0522208655980918),
    ((5, 3, 6), 3, 0.6, 1.6026731341833005),
]


@pytest.mark.parametrize("symbol,vertex,h,frozen", QUADRATURE_CASES)
def test_vertex_sector_volume_against_quadrature(symbol, vertex, h, frozen):
    cell = build_cell(symbol)
    hb = horoball_level(cell.vertices[vertex], h)
    value = vertex_sector_volume(hb, cell, vertex)
    assert value == pytest.approx(frozen, rel=1e-12)
    oracle = sector_volume_quadrature(cell, vertex, h)
    assert value == pytest.approx(oracle, rel=5e-7)


def test_vertex_sector_volume_validation():
    cell = build_cell((3, 3, 6))
    # apex face bound is 1.0; exceeding it reports the violated face
    with pytest.raises(FaceOverflowError) as exc:
        vertex_sector_volume(horoball_level(cell.vertices[3], 1.2), cell, 3)
    assert exc.value.face_index == cell.face_bound(3)[1]
    with pytest.raises(GeometryError):
        vertex_sector_volume(horoball_level(cell.vertices[0], 0.5), cell, 1)


def test_octahedron_cone_sectors():
    # one characteristic simplex of the octahedral cell: ideal vertices at
    # (0,1,0) and (0,0,1), edge midpoint (1/2,1/2,0), cell center at origin
    apex = chart_point(0.0, 0.0, 1.0)
    equator = chart_point(0.0, 1.0, 0.0)
    mid = chart_point(0.5, 0.5, 0.0)
    center = ProjectivePoint((1.0, 0.0, 0.0, 0.0))
    big = horoball_level(apex, math.sqrt(2.0))
    small = horoball_level(chart_point(0.0, 0.0, -1.0), 1.0 / math.sqrt(2.0))
    tiny = horoball_level(equator, 1.0 / (2.0 * math.sqrt(2.0)))
    assert cone_sector_volume(big, [equator, mid, center]) == pytest.approx(
        0.25, abs=1e-12
    )
    assert cone_sector_volume(small, [equator, mid, center]) == pytest.approx(
        0.0625, abs=1e-12
    )
    assert cone_sector_volume(tiny, [mid, center, apex]) == pytest.approx(
        0.03125, abs=1e-12
    )
    with pytest.raises(GeometryError):
        cone_sector_volume(big, [equator, mid])


def test_same_type_level():
    expected = {
        (3, 3, 6): 1.0 / math.sqrt(2.0),
        (3, 4, 4): 1.0 / math.sqrt(2.0),
        (4, 3, 6): 1.0 / math.sqrt(3.0),
        (5, 3, 6): math.sqrt((3.0 - math.sqrt(5.0)) / 6.0),
    }
    for symbol, level in expected.items():
        cell = build_cell(symbol)
        for v in range(cell.n_vertices):
            assert same_type_level(cell, v) == pytest.approx(level, abs=1e-13)


def test_cell_volume_oracle_tetrahedron():
    cell = build_cell((3, 3, 6))
    res = cell_volume_oracle(cell, samples=200_000, seed=20240816)
    assert res.stderr > 0
    assert abs(res.value - cell.volume) < 3.0 * res.stderr
    assert res.stderr < 0.01 * cell.volume
