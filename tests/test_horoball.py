from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull
from cusp_cones import ball_volume
from horosphere_reference import horoball_at
from membership import in_balls

from horopack import volume
from horopack.coxeter import build_cell
from horopack.horoball import (
    FaceOverflowError,
    cell_volume_oracle,
    cone_sector_volume,
    horoball_level,
    pencil_value,
    polar_point,
    ray_crossing,
    same_type_level,
    vertex_sector_volume,
    _chart_sector,
)
from horopack.lorentz import (
    MINKOWSKI,
    GeometryError,
    ProjectivePoint,
    bilinear_form,
    distance,
)

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
    # a ball pushed in by hyperbolic distance t has level h e^(-t): the two
    # horospheres cross the axis at points t apart
    target = chart_point(0.0, 0.0, -1.0)
    surface = ray_crossing(horoball_level(CANONICAL, 0.9), target)
    for t in (0.7, -0.7):
        pushed = horoball_level(CANONICAL, 0.9 * math.exp(-t))
        assert distance(surface, ray_crossing(pushed, target)) == pytest.approx(
            abs(t), abs=1e-12
        )


def test_membership_consistency():
    hb = horoball_level(CANONICAL, 1.0)
    inside = chart_point(0.0, 0.0, 0.5)
    outside = chart_point(0.0, 0.0, -0.5)
    assert pencil_value(hb, inside.coords) < 0 < pencil_value(hb, outside.coords)


def busemann_level(hb, p):
    # -<x, c> with x the representative of p on the hyperboloid <x, x> = -1
    return -bilinear_form(p, hb.center) / math.sqrt(-bilinear_form(p, p))


def test_busemann_level_on_surface():
    hb = horoball_level(CANONICAL, 0.75)
    for theta, phi in [(0.3, 0.0), (1.2, 2.0), (2.5, -1.1)]:
        p = polar_point(hb, theta, phi)
        assert busemann_level(hb, p) == pytest.approx(hb.h, abs=1e-12)
    # deeper points have smaller Busemann level
    assert busemann_level(hb, chart_point(0.0, 0.0, 0.9)) < hb.h


def test_polar_points_lie_on_surface():
    # the canonical ball at three levels on either side of h = 1, under
    # 1e-14, and every (3,3,6) cusp's ball under 1e-12
    balls = [(CANONICAL, h, 1e-14) for h in (0.4, 0.9, 1.3)]
    balls += [(center, 0.85, 1e-12) for center in build_cell((3, 3, 6)).vertices]
    for center, h, bound in balls:
        hb = horoball_level(center, h)
        for theta in (0.0, 0.4, 1.3, 2.8):
            for phi in (0.0, 1.0, 4.5):
                p = polar_point(hb, theta, phi)
                assert abs(pencil_value(hb, p.coords)) < bound
    # theta = 0 is the tangency apex at the ideal center
    hb = horoball_level(CANONICAL, 0.85)
    assert np.allclose(polar_point(hb, 0.0, 0.0).chart(), [0.0, 0.0, 1.0], atol=1e-14)
    # angles must be finite: nan gave an all-NaN point, inf a math domain error
    for theta, phi in ((math.nan, 0.0), (math.inf, 0.0), (0.4, -math.inf), (0.4, math.nan)):
        with pytest.raises(GeometryError, match="must be finite"):
            polar_point(hb, theta, phi)


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


def test_sector_volume_scales_with_level_squared():
    cell = build_cell((4, 3, 6))
    base = vertex_sector_volume(cell, 3, 0.3)
    for h in (0.6, 0.9, 1.2):
        v = vertex_sector_volume(cell, 3, h)
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
    value = vertex_sector_volume(cell, vertex, h)
    assert value == pytest.approx(frozen, rel=1e-12)
    # the cusp-cone kernel integrates the ball in the cell ray by ray, with
    # no sector table and no Heron area
    kernel = ball_volume(cell, vertex, h)
    assert frozen == pytest.approx(kernel, rel=1e-14, abs=0)
    assert value == pytest.approx(kernel, rel=1e-14, abs=0)


def test_vertex_sector_volume_validation():
    cell = build_cell((3, 3, 6))
    # apex face bound is 1.0; exceeding it reports the violated face
    with pytest.raises(FaceOverflowError) as exc:
        vertex_sector_volume(cell, 3, 1.2)
    assert exc.value.face_index == cell.face_bound(3)[1]
    with pytest.raises(GeometryError):
        vertex_sector_volume(cell, 4, 0.5)


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


def cusp_levels(cell):
    # the levels of the oracle's carve-out: same-type balls shrunk by 0.1%
    return 0.999 * np.array([same_type_level(cell, v) for v in range(cell.n_vertices)])


def _ball_predicate(hb):
    # one ball's membership, straight from the pencil form Q <= 0
    w = MINKOWSKI @ hb.center.coords
    h2 = hb.h * hb.h

    def predicate(pts):
        lin = w[0] + pts @ w[1:]
        r2 = np.einsum("ij,ij->i", pts, pts)
        return lin * lin + h2 * (r2 - 1.0) <= 0.0

    return predicate


def _in_cusps(cell, pts):
    """Membership of the (n, 3) array ``pts`` in the oracle's cusp balls,
    by the sampler's ball table."""
    chart = np.array([v.chart() for v in cell.vertices])
    balls, _ = volume._carve_balls(chart, cusp_levels(cell))
    return in_balls(pts.T, 1.0, 1.0 - np.einsum("ij,ij->i", pts, pts), balls[1:3])


@pytest.mark.parametrize("symbol", [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)])
def test_union_predicate_matches_separate_balls(symbol):
    cell = build_cell(symbol)
    levels = cusp_levels(cell)
    balls = [horoball_level(cell.vertices[v], h) for v, h in enumerate(levels)]
    chart = np.array([v.chart() for v in cell.vertices])
    # small Dirichlet weights put many of the points near the cusps
    rng = np.random.default_rng(2024)
    pts = rng.dirichlet(np.full(len(chart), 1.0 / len(chart)), size=100_000) @ chart
    fused = _in_cusps(cell, pts)
    separate = np.zeros(len(pts), dtype=bool)
    for hb in balls:
        separate |= _ball_predicate(hb)(pts)
    assert np.array_equal(fused, separate)
    assert 0.05 < fused.mean() < 0.95


ALL_CELLS = [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)]


@pytest.mark.parametrize("symbol", ALL_CELLS)
def test_chart_sector_quadrature_converged(symbol):
    cell = build_cell(symbol)
    for v, h in enumerate(cusp_levels(cell)):
        low = _chart_sector(cell, v, h)
        high = _chart_sector(cell, v, h, order=32)
        assert low > 0.0
        assert abs(low - high) <= 1e-13 * high


@pytest.mark.parametrize("symbol", [(3, 4, 4), (4, 3, 6), (5, 3, 6)])
def test_chart_sector_equal_on_origin_centred_cells(symbol):
    # the cell is centred at the chart origin, so its Euclidean symmetries
    # carry any vertex cone onto any other
    cell = build_cell(symbol)
    h = 0.999 * min(same_type_level(cell, v) for v in range(cell.n_vertices))
    sectors = [_chart_sector(cell, v, h) for v in range(cell.n_vertices)]
    assert max(sectors) - min(sectors) <= 1e-12 * max(sectors)


@pytest.mark.parametrize("symbol", ALL_CELLS)
def test_chart_sectors_match_carved_share(symbol, monkeypatch):
    # the sampler integrates each ray outside the piece's own ball and the
    # neighbour balls it tests (x = 1 - tau_e^3 less t2^3 - t1^3 where the
    # ray crosses a neighbour); its estimate of the shell's chart volume outside the balls,
    # sum W_c xbar_c of the shell (the core meets no ball), leaves the balls'
    # chart volume, which must match the quadrature of their sectors
    cell = build_cell(symbol)
    seen = []
    combined_ratio = volume._combined_ratio

    def spy(y_bar, x_bar, var_y, var_xy, var_x):
        seen.append((x_bar, var_x))
        return combined_ratio(y_bar, x_bar, var_y, var_xy, var_x)

    monkeypatch.setattr(volume, "_combined_ratio", spy)
    cell_volume_oracle(cell, 200_000, seed=11)
    [(x_bar, var_x)] = seen
    pts = np.array([v.chart() for v in cell.vertices])
    radius = volume._carve_balls(pts, cusp_levels(cell))[1]
    apex = volume._hull_fan(pts, cell.faces)[0]
    shell = ConvexHull(pts).volume * (1.0 - volume._core_scale(pts, apex, radius) ** 3)
    chart = math.fsum(_chart_sector(cell, v, h) for v, h in enumerate(cusp_levels(cell)))
    # x_bar is the share of the shell outside the balls: the weights W_c
    # add up to 1 over the shell
    assert abs(chart - shell * (1.0 - x_bar)) < 4.0 * shell * math.sqrt(var_x)


@pytest.mark.parametrize("symbol", ALL_CELLS)
def test_cell_volume_oracle_error_bars_cover(symbol):
    # the stated standard error must match the spread of the estimates
    cell = build_cell(symbol)
    z = [
        (res.value - cell.volume) / res.stderr
        for res in (cell_volume_oracle(cell, 20_000, seed) for seed in range(100))
    ]
    assert 0.8 <= np.std(z) <= 1.2


@pytest.mark.parametrize("symbol", ALL_CELLS)
def test_cell_volume_oracle_carve_free_radius_is_tight(symbol, monkeypatch):
    # the sampler derives its core's radius from the balls' types, no ball
    # reaches inside it, and every ball reaches in to its own type
    # s_v = (1 - h^2) / (1 + h^2)
    cell = build_cell(symbol)
    levels = cusp_levels(cell)
    types = np.array([(1.0 - h * h) / (1.0 + h * h) for h in levels])
    seen = []
    core_scale = volume._core_scale

    def spy(pts, apex, radius):
        seen.append(radius)
        return core_scale(pts, apex, radius)

    monkeypatch.setattr(volume, "_core_scale", spy)
    cell_volume_oracle(cell, 10_000, 1)
    assert seen == [types.min()]
    radius = seen[0]
    chart = np.array([v.chart() for v in cell.vertices])
    rng = np.random.default_rng(7)
    dirs = rng.standard_normal((100_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    near = dirs * (radius * rng.random(100_000) ** (1.0 / 3.0))[:, None]
    assert not _in_cusps(cell, np.vstack((near, (radius - 1e-9) * chart))).any()
    assert _in_cusps(cell, (types + 1e-9)[:, None] * chart).all()


@pytest.mark.parametrize("symbol", ALL_CELLS)
def test_cell_volume_oracle_error_bars_cover_at_200k(symbol):
    # the within-cell variances of the stratified sampler must neither
    # understate nor overstate the spread of the estimates, nor may the
    # ratio estimator leave a bias
    cell = build_cell(symbol)
    z = [
        (res.value - cell.volume) / res.stderr
        for res in (cell_volume_oracle(cell, 200_000, seed) for seed in range(100))
    ]
    assert 0.8 <= np.std(z) <= 1.2
    assert abs(np.mean(z)) < 0.35


def _pieces_of(cell, monkeypatch):
    """The pieces the oracle samples the cell's shell in, as ``_stratum``
    receives them."""
    seen = []
    stratum = volume._stratum

    def spy(rng, pieces, weights, n):
        seen.append(pieces)
        return stratum(rng, pieces, weights, n)

    monkeypatch.setattr(volume, "_stratum", spy)
    cell_volume_oracle(cell, 10_000, 1)
    monkeypatch.undo()
    [pieces] = seen
    return pieces


@pytest.mark.parametrize("symbol", ALL_CELLS)
def test_union_prefilter_keeps_every_block_bit_for_bit(symbol, monkeypatch):
    # every block the sampler integrates holds the rays of one fan
    # tetrahedron's pieces; testing each ray against every ball of the cell
    # but its own, by the same arithmetic, must not change a single bit of
    # its (y, x) nor a count: the prefilter drops no ball that a ray of the
    # piece crosses.  The own ball needs no test, as each ray is integrated
    # only from where it leaves that ball
    cell = build_cell(symbol)
    chart = np.array([v.chart() for v in cell.vertices])
    balls, _ = volume._carve_balls(chart, cusp_levels(cell))
    everywhere = (*balls[:3], np.full(len(chart), -np.inf))  # every half-space reaches
    tables = {}
    ray_tables = volume._ray_tables

    def collect(apexes, steps, h2, near):
        kept = ray_tables(apexes, steps, h2, near)
        corners = np.dstack((apexes, apexes[:, :, None] + np.cumsum(steps[:, :, ::-1], 2)))
        own = np.array([int(np.flatnonzero((chart == a).all(axis=1))[0]) for a in apexes])
        others = volume._near_balls(everywhere, corners, own)
        assert len(others[0][0]) == len(chart) - 1
        tables[id(kept)] = ray_tables(apexes, steps, h2, others)
        return kept

    ray_block = volume._ray_block
    blocks = []

    def checked(r, kept, drawn, work, flags):
        fresh = r.copy()
        yx, accepted, carved = ray_block(r, kept, drawn, work, flags)
        n_pieces, _, m = yx.shape
        again = ray_block(
            fresh, tables[id(kept)], drawn, np.empty(7 * n_pieces * m), np.empty_like(flags)
        )
        blocks.append((carved, np.array_equal(yx, again[0]) and (accepted, carved) == again[1:]))
        return yx, accepted, carved

    monkeypatch.setattr(volume, "_ray_tables", collect)
    monkeypatch.setattr(volume, "_ray_block", checked)
    res = cell_volume_oracle(cell, 200_000, 5)
    assert len(blocks) >= sum(len(f) - 2 for f in cell.faces)  # one per tetrahedron
    assert all(same for _, same in blocks)
    # on (3,4,4) no ray crosses a neighbour ball (carved == 0)
    assert res.carved == sum(carved for carved, _ in blocks)
    assert res.carved > 0 or symbol == (3, 4, 4)
    # a point just inside a ball's point nearest the origin lies in the
    # ball, and a point just outside it does not
    monkeypatch.undo()
    types = np.array([(1.0 - h * h) / (1.0 + h * h) for h in cusp_levels(cell)])
    for c, s in zip(chart, types):
        assert _in_cusps(cell, ((s + 1e-9) * c)[None, :]).tolist() == [True]
        assert _in_cusps(cell, ((s - 1e-9) * c)[None, :]).tolist() == [False]


@pytest.mark.parametrize("symbol", ALL_CELLS)
def test_prefilter_keeps_the_three_corner_balls_of_every_tetrahedron(symbol, monkeypatch):
    # a piece's rays are tested against a ball when its half-space
    # reaches one of the piece's four corners, its own ball (at its apex)
    # excluded; on every cell that leaves 0 or 1 ball per piece, and the
    # own and kept balls of a fan tetrahedron's pieces are the 3 balls at
    # the corners of its face triangle
    cell = build_cell(symbol)
    chart = np.array([v.chart() for v in cell.vertices])
    balls, _ = volume._carve_balls(chart, cusp_levels(cell))
    centres, _, scaled, reach = balls
    triangles = [(f[0], f[k], f[k + 1]) for f in cell.faces for k in range(1, len(f) - 1)]
    pieces = _pieces_of(cell, monkeypatch)
    assert len(pieces) == len(triangles)
    for (apexes, steps, _, h2, near), triangle in zip(pieces, triangles):
        assert h2 is not None and len(apexes) == 18
        own = [int(np.flatnonzero((chart == a).all(axis=1))[0]) for a in apexes]
        corners = np.dstack((apexes, apexes[:, :, None] + np.cumsum(steps[:, :, ::-1], 2)))
        # a kept ball is named by its scaled centre c / h
        kept = [[] for _ in apexes] if near is None else [
            sorted(int(np.flatnonzero((scaled == c).all(axis=1))[0]) for c in row[np.isfinite(depth[:, 0])])
            for depth, row in zip(*near)
        ]
        for p in range(len(apexes)):
            reaches = (centres @ corners[p]).max(axis=1) >= reach
            assert kept[p] == [v for v in np.flatnonzero(reaches) if v != own[p]]
            assert len(kept[p]) <= 1
        assert set(own) | {v for row in kept for v in row} == set(triangle)
        # the pieces that keep a ball lead, so a block tests a prefix of them
        assert [len(row) for row in kept] == sorted((len(row) for row in kept), reverse=True)
    # and the sampler tests every block on at most one ball per piece: one
    # _crossings call per block, on exactly the pieces that keep a ball,
    # each against the depth of its kept ball
    ray_block, crossings = volume._ray_block, volume._crossings
    calls = []

    def block_spy(r, tables, drawn, work, flags):
        calls.append((len(tables[2]), []))
        return ray_block(r, tables, drawn, work, flags)

    def crossings_spy(d, ee, beta, alpha, *scratch):
        calls[-1][1].append(alpha.copy())
        return crossings(d, ee, beta, alpha, *scratch)

    monkeypatch.setattr(volume, "_ray_block", block_spy)
    monkeypatch.setattr(volume, "_crossings", crossings_spy)
    cell_volume_oracle(cell, 20_000, 1)
    columns = [near[0][:, 0, 0] for *_, near in pieces if near is not None]
    depths = {tuple(depth[np.isfinite(depth)]) for depth in columns}
    assert len(calls) >= len(triangles)
    assert all(len(tested) == kept <= 1 for kept, tested in calls)
    assert {tuple(tested[0][:, 0]) for _, tested in calls if tested} == depths


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cell_volume_oracle_stratified_dodecahedral_error(seed):
    # stratifying the fan by tetrahedron and on a grid inside each brings the
    # relative standard error at 200k samples under 4e-4 (about 2.7e-4 with
    # the core sampled, 1.7e-4 with it integrated), where core and shell
    # alone give about 5.6e-4
    cell = build_cell((5, 3, 6))
    res = cell_volume_oracle(cell, 200_000, seed)
    assert res.stderr / res.value < 4e-4


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cell_volume_oracle_core_cuts_dodecahedral_error(seed):
    # the cusp-free core holds 46% of the (5,3,6) hull; integrating it and
    # sampling only the shell brings the relative standard error under
    # 6.5e-4 at 200k samples, where one stratum over the hull gives about
    # 7.9e-4
    cell = build_cell((5, 3, 6))
    res = cell_volume_oracle(cell, 200_000, seed)
    assert res.stderr / res.value < 6.5e-4


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("symbol, bound", [((3, 4, 4), 2.5e-5), ((5, 3, 6), 1.2e-4)])
def test_cell_volume_oracle_rays_from_the_cusps_cut_the_error(symbol, bound, seed):
    # sampling each cusp's pieces along rays from its ideal vertex, which
    # skip its own ball exactly, brings the relative standard error at 200k
    # samples to about 1.4e-5 on (3,4,4) and 9.5e-5 on (5,3,6); whole fan
    # tetrahedra sampled from the apex, every point tested against the
    # balls, gave 6.1e-5 and 1.7e-4 to 1.8e-4
    cell = build_cell(symbol)
    res = cell_volume_oracle(cell, 200_000, seed)
    assert res.stderr / res.value < bound

