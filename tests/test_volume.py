from __future__ import annotations

import itertools
import math
import time
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.spatial import ConvexHull
from scipy.special import polygamma, zeta

from horopack.coxeter import (
    FULLY_ASYMPTOTIC_TILINGS,
    build_cell,
    build_orthoscheme,
    coxeter_matrix,
    vertex_distance,
)
from horopack.horoball import cell_volume_oracle, same_type_level, vertex_sector_volume
from horopack.lorentz import GeometryError
from horopack.packing import balanced_levels, ball_gap, catalog, families
from horopack import volume
from horopack.volume import (
    _LOB_COEF,
    MIN_SAMPLES,
    _core_scale,
    _face_grid,
    _grid_shape,
    _hull_fan,
    bf_constant,
    bf_series_tail_bound,
    lobachevsky,
    monte_carlo_volume,
    orthoscheme_volume,
)

# closed-form volumes of the four characteristic orthoschemes
ORTHOSCHEME_VOLUMES = {
    (3, 6, 3): 0.1691569344016089,
    (4, 4, 4): 0.22899139854430473,
    (4, 3, 6): 0.10572308400100967,
    (5, 3, 6): 0.17150166128250002,
}
CELL_VOLUMES = {
    (3, 3, 6): 1.0149416064096537,
    (3, 4, 4): 3.6638623767088756,
    (4, 3, 6): 5.0747080320484645,
    (5, 3, 6): 20.580199353900003,
}
CATALAN = 0.915965594177219015054603514932

# chart volume of the cube [-0.3, 0.3]^3, adaptive quadrature of (1-r^2)^-2
CUBE_ORACLE = 0.2629565977926768


def quad_lobachevsky(theta):
    # split off the closed-form integral of -log(2t); the remainder
    # -log(sin(t)/t) is smooth on [0, theta]
    def smooth(t):
        return -math.log(math.sin(t) / t) if t > 0 else 0.0

    val, err = integrate.quad(smooth, 0.0, theta, limit=200)
    assert err < 1e-11
    return theta * (1.0 - math.log(2.0 * theta)) + val


# the series coefficients zeta(2n)/(n(2n+1)) as scipy's float expression
# gives them, which set the coefficients before the exact table
N_TERMS = np.arange(1, 41)
SCIPY_LOB_COEF = zeta(2 * N_TERMS) / (N_TERMS * (2 * N_TERMS + 1))


def test_lobachevsky_coefficients_are_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    assert len(_LOB_COEF) == 40
    with mpmath.workdps(50):
        for n in range(1, 41):
            exact = mpmath.zeta(2 * n) / (n * (2 * n + 1))
            assert _LOB_COEF[n - 1] == float(exact), n
    # scipy's float expression is off by at most one ulp
    assert np.all(np.abs(np.array(_LOB_COEF) - SCIPY_LOB_COEF) <= np.spacing(SCIPY_LOB_COEF))


def test_lobachevsky_agrees_with_the_scipy_coefficients(monkeypatch):
    grid = np.linspace(-4.0, 4.0, 20001)
    exact = [lobachevsky(t) for t in grid]
    monkeypatch.setattr(volume, "_LOB_COEF", tuple(SCIPY_LOB_COEF))
    scipy_table = [lobachevsky(t) for t in grid]
    assert np.abs(np.subtract(exact, scipy_table)).max() <= 2.3e-16


@pytest.mark.parametrize("theta", [0.2, math.pi / 6, 0.9, math.pi / 2 - 0.05])
def test_lobachevsky_matches_quadrature(theta):
    assert lobachevsky(theta) == pytest.approx(quad_lobachevsky(theta), abs=1e-10)


def test_lobachevsky_symmetries():
    assert lobachevsky(0.0) == 0.0
    assert lobachevsky(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert lobachevsky(math.pi) == pytest.approx(0.0, abs=1e-15)
    for theta in (0.3, 1.1, 2.0):
        assert lobachevsky(-theta) == pytest.approx(-lobachevsky(theta), abs=1e-15)
        assert lobachevsky(theta + math.pi) == pytest.approx(
            lobachevsky(theta), abs=1e-14
        )
    # duplication-style identity at the maximum
    assert lobachevsky(math.pi / 6) == pytest.approx(
        1.5 * lobachevsky(math.pi / 3), abs=1e-15
    )
    assert lobachevsky(math.pi / 6) > lobachevsky(math.pi / 6 + 0.05)
    assert lobachevsky(math.pi / 6) > lobachevsky(math.pi / 6 - 0.05)


def test_lobachevsky_rejects_non_finite_angles_and_returns_floats():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(GeometryError, match="finite angle"):
            lobachevsky(theta)
    assert type(lobachevsky(np.float64(0.9))) is float
    for symbol in CELL_VOLUMES:
        assert type(build_cell(symbol).volume) is float


@pytest.mark.parametrize("theta", ["0.5", None, 1 + 0j, np.array([0.5])])
def test_lobachevsky_reads_its_angle_as_a_real_number(theta):
    # read as levels are: a numeric string is refused, not parsed
    with pytest.raises(GeometryError, match="Lobachevsky angle .* must be a real number"):
        lobachevsky(theta)
    assert lobachevsky(np.float32(0.5)) == lobachevsky(float(np.float32(0.5)))


@pytest.mark.parametrize("symbol", sorted(ORTHOSCHEME_VOLUMES))
def test_orthoscheme_volume(symbol):
    res = orthoscheme_volume(symbol)
    assert res.value == pytest.approx(ORTHOSCHEME_VOLUMES[symbol], rel=1e-13)


@pytest.mark.parametrize("symbol", sorted(CELL_VOLUMES))
def test_cell_volume(symbol):
    assert build_cell(symbol).volume == pytest.approx(CELL_VOLUMES[symbol], rel=1e-13)


def test_cell_volumes_against_classical_constants():
    # ideal regular tetrahedron: 2 Lob(pi/6); ideal regular octahedron: 4 G
    tetra = build_cell((3, 3, 6)).volume
    assert tetra == pytest.approx(2.0 * lobachevsky(math.pi / 6), abs=1e-13)
    octa = build_cell((3, 4, 4)).volume
    assert octa == pytest.approx(4.0 * CATALAN, abs=1e-12)
    assert orthoscheme_volume((3, 6, 3)).value == pytest.approx(
        lobachevsky(math.pi / 6) / 3.0, abs=1e-14
    )


# the symbols with an ideal (n2, n3) vertex and a finite volume
IDEAL_END_SYMBOLS = {
    (3, 3, 6), (4, 3, 6), (5, 3, 6), (6, 3, 6), (3, 4, 4), (4, 4, 4), (3, 6, 3),
}


def seven_term_volume(symbol):
    """The classical orthoscheme volume at 50 digits, theta by atan2:
    1/4 [L(a1+t) - L(a1-t) + L(a3+t) - L(a3-t) - L(pi/2-a2+t)
    + L(pi/2-a2-t) + 2 L(pi/2-t)], with L(x) = Cl_2(2x)/2."""
    with mpmath.workdps(50):
        a1, a2, a3 = (mpmath.pi / n for n in symbol)
        num = mpmath.cos(a2) ** 2 - mpmath.sin(a1) ** 2 * mpmath.sin(a3) ** 2
        t = mpmath.atan2(mpmath.sqrt(max(num, 0)), mpmath.cos(a1) * mpmath.cos(a3))
        lob = lambda x: mpmath.clsin(2, 2 * x) / 2
        half = mpmath.pi / 2
        return (
            lob(a1 + t) - lob(a1 - t) + lob(a3 + t) - lob(a3 - t)
            - lob(half - a2 + t) + lob(half - a2 - t) + 2 * lob(half - t)
        ) / 4


def ulps(value: float, exact) -> float:
    return float((mpmath.mpf(value) - exact) / math.ulp(float(exact)))


def test_cell_volumes_pinned_to_50_digits():
    with mpmath.workdps(50):
        lob = lambda k: mpmath.clsin(2, 2 * mpmath.pi / k) / 2
        closed = {
            (3, 3, 6): 3 * lob(3),
            (3, 4, 4): 8 * lob(4),
            (4, 3, 6): 15 * lob(3),
            (5, 3, 6): 30 * (lob(mpmath.mpf(30) / 11) - lob(30) + 2 * lob(3)),
        }
        for tiling, exact in closed.items():
            cell = build_cell(tiling)
            oracle = cell.orthoschemes_per_cell * seven_term_volume(cell.orthoscheme_symbol)
            assert abs(oracle - exact) < mpmath.mpf(10) ** -40, tiling
            assert abs(ulps(cell.volume, oracle)) <= 2.0, tiling


@pytest.mark.parametrize("symbol", sorted(IDEAL_END_SYMBOLS))
def test_orthoscheme_volume_against_the_seven_term_formula(symbol):
    assert abs(ulps(orthoscheme_volume(symbol).value, seven_term_volume(symbol))) <= 16.0


def test_orthoscheme_volume_domain():
    # exactly the symbols with 1/n2 + 1/n3 = 1/2 and 1/n1 + 1/n2 >= 1/2,
    # each n_i >= 3; compact, reversed, Euclidean and non-positive ones fail
    accepted = set()
    for symbol in itertools.product(range(2, 9), repeat=3):
        try:
            orthoscheme_volume(symbol)
        except GeometryError:
            continue
        accepted.add(symbol)
    assert accepted == IDEAL_END_SYMBOLS
    for symbol in [(4, 3, 5), (6, 3, 4), (2, 4, 4), (7, 3, 6), (3, 0, 0), (3, 1, -2), (3, -2, 1)]:
        with pytest.raises(GeometryError, match="ideal"):
            orthoscheme_volume(symbol)


def cube_region(a=0.3):
    corners = []
    for sx in (-a, a):
        for sy in (-a, a):
            for sz in (-a, a):
                corners.append((sx, sy, sz))
    return corners


# the six squares of cube_region, corner i having the bits of i as (x, y, z)
CUBE_FACES = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1), (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]


def hull_faces(points):
    """Qhull's triangles of the convex hull of ``points``: valid faces."""
    return ConvexHull(np.asarray(points, dtype=float)).simplices


def cusp_ball(s, centre=(0.0, 0.0, 1.0)):
    """Centres and levels of one ideal ball of type s, which lies in the
    half-space p.c >= s.  Centred at (0, 0, 1) it is the ellipsoid with
    centre (0, 0, (1 + s) / 2) and semi-axes sqrt((1 - s) / 2),
    sqrt((1 - s) / 2) and (1 - s) / 2."""
    return [centre], [math.sqrt((1.0 - s) / (1.0 + s))]


# the ball of type 0.35 lies in z >= 0.35 and misses the cube of half-width
# 0.3, so it carves nothing from it and leaves a carve-free core of radius 0.35
MISS = (*cusp_ball(0.35), 0.0, 0.0)


@lru_cache(maxsize=None)
def cube_cap(s, a=0.3):
    """Hyperbolic and chart volumes of the ball of type s at (0, 0, 1)
    inside the cube [-a, a]^3, by quadrature over its quarter x, y >= 0 with
    the integral over y in closed form."""
    half = (1.0 - s) / 2.0

    def section(z):  # squared radius of the ball's section at height z
        return half * (1.0 - ((z - 1.0 + half) / half) ** 2)

    def x_top(z):
        return min(a, math.sqrt(max(section(z), 0.0)))

    def y_top(x, z):
        return min(a, math.sqrt(max(section(z) - x * x, 0.0)))

    def hyperbolic(x, z):  # integral of (c - y^2)^-2 over 0 <= y <= y_top
        c, y = 1.0 - x * x - z * z, y_top(x, z)
        return y / (2.0 * c * (c - y * y)) + math.atanh(y / math.sqrt(c)) / (2.0 * c**1.5)

    return tuple(
        4.0 * integrate.dblquad(f, s, min(a, 1.0), 0.0, x_top, epsabs=1e-11, epsrel=1e-11)[0]
        for f in (hyperbolic, y_top)
    )


def test_cube_cap_quadrature():
    # no section of the type-0.2 ball is clipped by the cube of half-width
    # 0.7, which cuts it at z = 0.7: the chart volume is pi times the
    # integral of the squared section radius 0.4 (1 - (z - 0.6)^2 / 0.16)
    chart = 0.4 * math.pi * (0.5 - (0.1**3 + 0.4**3) / (3.0 * 0.16))
    assert cube_cap(0.2, 0.7)[1] == pytest.approx(chart, rel=1e-9)
    # in the cube of half-width 0.3 the sections of radius R > 0.3 lose four
    # circular segments R^2 acos(0.3 / R) - 0.3 sqrt(R^2 - 0.3^2) each

    def area(z):
        r2 = 0.4 * (1.0 - (z - 0.6) ** 2 / 0.16)
        cut = 0.0 if r2 <= 0.09 else r2 * math.acos(0.3 / math.sqrt(r2)) - 0.3 * math.sqrt(r2 - 0.09)
        return math.pi * r2 - 4.0 * cut

    chart = integrate.quad(area, 0.2, 0.3, epsabs=1e-13, epsrel=1e-12)[0]
    assert cube_cap(0.2)[1] == pytest.approx(chart, rel=1e-8)


def test_monte_carlo_matches_quadrature():
    res = monte_carlo_volume(cube_region(), CUBE_FACES, samples=200_000, seed=123)
    assert res.stderr > 0
    assert abs(res.value - CUBE_ORACLE) < 4.0 * res.stderr
    assert res.stderr < 0.01 * CUBE_ORACLE


def test_monte_carlo_deterministic():
    a = monte_carlo_volume(cube_region(), CUBE_FACES, samples=50_000, seed=9)
    b = monte_carlo_volume(cube_region(), CUBE_FACES, samples=50_000, seed=9)
    c = monte_carlo_volume(cube_region(), CUBE_FACES, samples=50_000, seed=10)
    assert a.value == b.value and a.stderr == b.stderr
    assert c.value != a.value


def test_monte_carlo_carve_out_additivity():
    # carving the type-0.2 ball, which meets the cube in 0.2 <= z <= 0.3,
    # and adding its volume in the cube back must reproduce the plain
    # estimate of the same region
    exact, chart = cube_cap(0.2)
    plain = monte_carlo_volume(cube_region(), CUBE_FACES, samples=400_000, seed=77)
    carved = monte_carlo_volume(
        cube_region(), CUBE_FACES, samples=400_000, seed=78,
        carve=(*cusp_ball(0.2), exact, chart),
    )
    assert carved.carved > 0
    sigma = math.hypot(plain.stderr, carved.stderr)
    assert abs(carved.value - plain.value) < 4.0 * sigma
    assert abs(carved.value - CUBE_ORACLE) < 4.0 * carved.stderr


def cube_pieces(normal, offset, a=0.3):
    """Vertex sets of the two pieces of the cube cut by normal . x = offset."""
    corners = np.array(cube_region(a))
    side = corners @ np.asarray(normal, dtype=float) - offset
    cuts = []
    for i in range(8):
        for j in range(i + 1, 8):
            if np.count_nonzero(corners[i] != corners[j]) == 1 and side[i] * side[j] < 0:
                t = side[i] / (side[i] - side[j])
                cuts.append(corners[i] + t * (corners[j] - corners[i]))
    return list(corners[side < 0]) + cuts, list(corners[side > 0]) + cuts


def test_monte_carlo_asymmetric_pieces_sum_to_cube():
    # an oblique cut that misses the centre leaves two irregular pieces whose
    # fan tetrahedra differ in volume; wrong fan weights bias both estimates
    below, above = cube_pieces((1.0, 0.5, 0.25), 0.1)
    assert len(below) > 4 and len(above) > 4
    lo = monte_carlo_volume(below, hull_faces(below), samples=200_000, seed=31)
    hi = monte_carlo_volume(above, hull_faces(above), samples=200_000, seed=32)
    sigma = math.hypot(lo.stderr, hi.stderr)
    assert abs(lo.value + hi.value - CUBE_ORACLE) < 4.0 * sigma
    assert sigma < 0.01 * CUBE_ORACLE


def test_monte_carlo_sample_accounting():
    # the cube of half-width 0.7 pokes out of the unit ball, so some samples
    # are rejected; the type-0.2 ball, cut by the cube at z = 0.7, carves
    # out others
    samples = 150_001
    res = monte_carlo_volume(
        cube_region(0.7), CUBE_FACES, samples=samples, seed=5,
        carve=(*cusp_ball(0.2), *cube_cap(0.2, 0.7)),
    )
    assert res.accepted + res.carved + res.rejected == samples
    assert min(res.accepted, res.carved, res.rejected) > 0
    # samples are uniform in the cube: the carved share is the ball's share
    ball_share = cube_cap(0.2, 0.7)[1] / 1.4**3
    assert res.carved / samples == pytest.approx(ball_share, rel=0.1)
    plain = monte_carlo_volume(cube_region(), CUBE_FACES, samples=20_000, seed=5)
    assert (plain.accepted, plain.carved, plain.rejected) == (20_000, 0, 0)
    closed = orthoscheme_volume((4, 3, 6))
    assert (closed.accepted, closed.carved, closed.rejected) == (0, 0, 0)


def test_monte_carlo_validation():
    with pytest.raises(GeometryError):
        monte_carlo_volume(cube_region(), CUBE_FACES, samples=500, seed=1)
    with pytest.raises(GeometryError):
        monte_carlo_volume(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(0, 1, 2), (0, 2, 1)], samples=10_000, seed=1
        )
    # a square seen from both sides closes a surface of zero volume
    coplanar = [(0, 0, 0), (0.1, 0, 0), (0, 0.1, 0), (0.1, 0.1, 0)]
    with pytest.raises(GeometryError, match="zero Euclidean volume"):
        monte_carlo_volume(coplanar, [(0, 1, 3, 2), (0, 2, 3, 1)], samples=10_000, seed=1)
    for bad in (math.nan, math.inf):
        region = cube_region()[:-1] + [(bad, 0.3, 0.3)]
        with pytest.raises(GeometryError, match="must be finite"):
            monte_carlo_volume(region, CUBE_FACES, samples=10_000, seed=1)


BAD_CUBE_FACES = {
    "index out of range": ([(0, 1, 3, 8)] + CUBE_FACES[1:], "index below 8"),
    "negative index": ([(0, 1, 3, -1)] + CUBE_FACES[1:], "index below 8"),
    "float index": ([(0, 1, 3, 2.0)] + CUBE_FACES[1:], "must be an integer"),
    "two-vertex face": (CUBE_FACES + [(0, 1)], "at least 3 vertices"),
    "dropped face": (CUBE_FACES[:-1], "exactly two faces"),
    "no faces": ([], "at least 3 vertices"),
}


@pytest.mark.parametrize("case", sorted(BAD_CUBE_FACES))
def test_monte_carlo_rejects_bad_faces(case):
    # the faces are read whole: every index an integer index into the
    # region, every face a polygon, every edge on two faces
    faces, message = BAD_CUBE_FACES[case]
    with pytest.raises(GeometryError, match=message):
        monte_carlo_volume(cube_region(), faces, samples=10_000, seed=1)


def fan_triples(pts, faces):
    """Vertex index triples of the fan's face triangles, read back from its
    step matrices as the nearest vertices."""
    apex, steps, _ = _hull_fan(pts, faces)
    p2 = apex + steps[:, :, 2]
    p1 = p2 + steps[:, :, 1]
    p0 = p1 + steps[:, :, 0]
    return [
        tuple(int(np.argmin(np.linalg.norm(pts - q, axis=1))) for q in triangle)
        for triangle in zip(p0, p1, p2)
    ]


def cell_region(symbol):
    cell = build_cell(symbol)
    return np.array([v.chart() for v in cell.vertices]), cell.faces


@pytest.mark.parametrize("symbol", FULLY_ASYMPTOTIC_TILINGS)
def test_cell_fan_ignores_vertex_noise(symbol):
    # moving every chart coordinate by one ulp either way keeps the fan's
    # triangles, which come from the faces and not from a hull of the points
    pts, faces = cell_region(symbol)
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(5):
        noisy = np.nextafter(pts, np.where(rng.random(pts.shape) < 0.5, -np.inf, np.inf))
        assert fan_triples(noisy, faces) == fan_triples(pts, faces)


@pytest.mark.parametrize("symbol", FULLY_ASYMPTOTIC_TILINGS)
def test_cell_fan_volume_is_the_hull_volume(symbol):
    pts, faces = cell_region(symbol)
    volumes = _hull_fan(pts, faces)[2]
    assert volumes.sum() == pytest.approx(ConvexHull(pts).volume, rel=1e-14)


# entry points that read an integer, each with an integer it accepts
INTEGER_READERS = {
    "coxeter_matrix": (lambda w: coxeter_matrix((w, 3, 6)), 4),
    "build_cell": (lambda w: build_cell((w, 3, 6)), 4),
    "build_orthoscheme": (lambda w: build_orthoscheme((w, 3, 6)), 4),
    "families": (lambda w: families((w, 3, 6)), 4),
    "orthoscheme_volume": (lambda w: orthoscheme_volume((w, 3, 6)), 4),
    "monte_carlo_samples": (
        lambda n: monte_carlo_volume(cube_region(), CUBE_FACES, samples=n, seed=1), 10_000),
    "monte_carlo_seed": (
        lambda seed: monte_carlo_volume(cube_region(), CUBE_FACES, samples=10_000, seed=seed), 1),
    "oracle_seed": (
        lambda seed: cell_volume_oracle(build_cell((3, 3, 6)), 10_000, seed), 1),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_READERS))
def test_integer_inputs_reject_floats_and_strings(entry):
    # a float or numeric string is refused, never truncated; numpy ints pass
    read, good = INTEGER_READERS[entry]
    read(good)
    read(np.int64(good))
    for bad in (float(good), good + 0.7, str(good), math.nan):
        with pytest.raises(GeometryError, match="must be an integer"):
            read(bad)


def _index_readers():
    """Entry points that read one vertex index of the (4,3,6) cell (8
    vertices) or of its orthoscheme matrix (4), each with its index count;
    the other index of a pair is a fixed neighbour."""
    cell = build_cell((4, 3, 6))
    config = catalog((4, 3, 6))[0]
    j = cell.neighbors[0][0]
    matrix = coxeter_matrix((4, 3, 6))
    return {
        "face_bound": (cell.face_bound, 8),
        "horoball": (config.horoball, 8),
        "vertex_sector_volume": (lambda v: vertex_sector_volume(cell, v, 0.3), 8),
        "same_type_level": (lambda v: same_type_level(cell, v), 8),
        "ball_gap": (lambda v: ball_gap(cell, config.levels, v, j), 8),
        "balanced_levels": (lambda v: balanced_levels(cell, (v, j)), 8),
        "vertex_distance": (lambda v: vertex_distance(matrix, v, 1), 4),
    }


@pytest.mark.parametrize("entry", sorted(_index_readers()))
def test_vertex_indices_are_read_whole_and_in_range(entry):
    # an index is never wrapped, truncated or left to numpy to refuse
    read, n = _index_readers()[entry]
    read(np.int64(0))
    for bad in (-1, n, 0.5, "1"):
        with pytest.raises(GeometryError):
            read(bad)


@pytest.mark.parametrize("chart", [math.nan, math.inf, -1e-3])
def test_monte_carlo_rejects_bad_chart_volume(chart):
    with pytest.raises(GeometryError, match="chart volume"):
        monte_carlo_volume(
            cube_region(), CUBE_FACES, samples=10_000, seed=1, carve=(*MISS[:3], chart)
        )


@pytest.mark.parametrize("volume", [math.nan, math.inf, -1.0])
def test_monte_carlo_rejects_bad_carved_volume(volume):
    # the carve's hyperbolic volume is added to the estimate as it stands
    with pytest.raises(GeometryError, match="carved volume"):
        monte_carlo_volume(
            cube_region(), CUBE_FACES, samples=10_000, seed=1, carve=(*MISS[:2], volume, 0.0)
        )


BAD_CENTRES = {
    "one vector": ((0.0, 0.0, 1.0), "must form a \\(k, 3\\) array"),
    "two coordinates": ([(0.0, 1.0)], "must form a \\(k, 3\\) array"),
    "no centres": (np.empty((0, 3)), "must form a \\(k, 3\\) array"),
    "nan": ([(math.nan, 0.0, 1.0)], "must be finite"),
    "inf": ([(0.0, 0.0, math.inf)], "must be finite"),
    "inside the sphere": ([(0.0, 0.0, 0.9)], "on the unit sphere"),
    "just off the sphere": ([(0.0, 0.0, 1.0 + 1e-9)], "on the unit sphere"),
}


@pytest.mark.parametrize("case", sorted(BAD_CENTRES))
def test_monte_carlo_rejects_bad_carve_centres(case):
    # the membership test needs 1 - p.c > 0 inside the unit ball, which
    # holds for centres on the unit sphere
    centres, message = BAD_CENTRES[case]
    carve = (centres, *MISS[1:])
    with pytest.raises(GeometryError, match=message):
        monte_carlo_volume(cube_region(), CUBE_FACES, samples=10_000, seed=1, carve=carve)


@pytest.mark.parametrize("level", [0, -1.0, math.inf, math.nan, "0.5"])
def test_monte_carlo_rejects_bad_carve_levels(level):
    # levels are read like every other level, by _real; numeric strings are refused
    carve = (MISS[0], [level], *MISS[2:])
    message = "must be a real number" if isinstance(level, str) else "must be positive and finite"
    with pytest.raises(GeometryError, match=message):
        monte_carlo_volume(cube_region(), CUBE_FACES, samples=10_000, seed=1, carve=carve)


@pytest.mark.parametrize("levels", [[], [0.5, 0.5], 0.5, [[0.5]]])
def test_monte_carlo_needs_one_carve_level_per_centre(levels):
    carve = (MISS[0], levels, *MISS[2:])
    with pytest.raises(GeometryError, match="one level per centre"):
        monte_carlo_volume(cube_region(), CUBE_FACES, samples=10_000, seed=1, carve=carve)


def test_monte_carlo_core_stratum_on_cube():
    # a ball of type 0.35 that misses the cube gives it a core (scale
    # 0.35 / 0.3 sqrt(3) about the origin) sampled on its own
    empty = monte_carlo_volume(cube_region(), CUBE_FACES, samples=200_000, seed=123)
    cored = monte_carlo_volume(cube_region(), CUBE_FACES, samples=200_000, seed=123, carve=MISS)
    assert abs(cored.value - CUBE_ORACLE) < 4.0 * cored.stderr
    assert cored.stderr < empty.stderr
    assert (cored.accepted, cored.carved, cored.rejected) == (200_000, 0, 0)


def test_monte_carlo_core_stratum_off_centre_pieces():
    # the pieces' apexes are off the origin, so the core is found by the
    # quadratic per vertex rather than by the radius alone
    below, above = cube_pieces((1.0, 0.5, 0.25), 0.1)
    lo = monte_carlo_volume(below, hull_faces(below), samples=200_000, seed=31, carve=MISS)
    hi = monte_carlo_volume(above, hull_faces(above), samples=200_000, seed=32, carve=MISS)
    sigma = math.hypot(lo.stderr, hi.stderr)
    assert abs(lo.value + hi.value - CUBE_ORACLE) < 4.0 * sigma
    assert sigma < 0.01 * CUBE_ORACLE


def test_monte_carlo_all_core_matches_one_stratum(monkeypatch):
    # the cube's corners are 0.52 from the origin, so a ball of type 0.6,
    # which misses the cube, makes the whole hull the core: the quadrature
    # alone gives the volume, and the one stratum, the shell t^3 in [1, 1]
    # of zero thickness, takes every sample on the hull's boundary with no
    # path of its own, adding no volume and no variance
    strata = []
    stratum = volume._stratum

    def spy(rng, apex, steps, weights, n, c0, c1, balls):
        strata.append((n, c0, c1))
        return stratum(rng, apex, steps, weights, n, c0, c1, balls)

    monkeypatch.setattr(volume, "_stratum", spy)
    core = monte_carlo_volume(
        cube_region(), CUBE_FACES, samples=50_000, seed=9, carve=(*cusp_ball(0.6), 0.0, 0.0)
    )
    assert strata == [(50_000, 1.0, 1.0)]
    assert core.value == pytest.approx(CUBE_ORACLE, rel=1e-12)
    assert core.stderr <= 1e-12 * CUBE_ORACLE
    assert core.accepted + core.carved + core.rejected == 50_000
    assert (core.accepted, core.carved, core.rejected) == (50_000, 0, 0)


def test_core_scale_reaches_the_radius():
    # the hull scaled about its apex by t0 touches the sphere |p| = radius
    # from inside; an apex outside the ball leaves no core
    for piece in cube_pieces((1.0, 0.5, 0.25), 0.1):
        pts = np.array(piece, dtype=float)
        apex = pts.mean(axis=0)
        t0 = _core_scale(pts, apex, 0.2)
        assert 0.0 < t0 < 1.0
        reach = np.linalg.norm(apex + t0 * (pts - apex), axis=1).max()
        assert reach == pytest.approx(0.2, rel=1e-12)
        assert _core_scale(pts, apex, 0.5 * np.linalg.norm(apex)) == 0.0


def _core_cases():
    """Points, faces and carve-free radius of the four cells with the
    oracle's cusp balls, the cube with ``MISS`` and the two cube pieces."""
    for symbol in FULLY_ASYMPTOTIC_TILINGS:
        pts, faces = cell_region(symbol)
        levels = [0.999 * same_type_level(build_cell(symbol), v) for v in range(len(pts))]
        yield pytest.param(pts, faces, volume._carve_balls(pts, levels)[1], id=str(symbol))
    yield pytest.param(np.array(cube_region()), CUBE_FACES, 0.35, id="MISS cube")
    for name, piece in zip(("below", "above"), cube_pieces((1.0, 0.5, 0.25), 0.1)):
        yield pytest.param(np.array(piece), hull_faces(piece), 0.35, id=f"piece {name}")


@pytest.mark.parametrize("pts, faces, radius", _core_cases())
def test_core_rule_converged(pts, faces, radius):
    apex, steps, _ = _hull_fan(pts, faces)
    t0 = _core_scale(pts, apex, radius)
    assert t0 > 0.0
    low = volume._core_integral(apex, steps, t0)
    high = volume._core_integral(apex, steps, t0, order=32)
    assert low > 0.0
    assert abs(low - high) <= 1e-12 * high


@pytest.mark.parametrize("half_width", [0.5, 0.55, 0.56, 0.57])
def test_core_rule_error_is_in_the_error_bar(half_width):
    # an all-core cube whose corners come within 0.13 to 0.013 of the unit
    # sphere: the order-16 rule misses by 3e-11 to 5e-5 relative, and the
    # stated error, which holds the difference from order 12, covers it
    pts = np.array(cube_region(half_width))
    radius = min(math.sqrt(3.0) * half_width + 1e-3, 0.9999)
    res = monte_carlo_volume(pts, CUBE_FACES, 10_000, 1, carve=(*cusp_ball(radius), 0.0, 0.0))
    apex, steps, _ = _hull_fan(pts, CUBE_FACES)
    reference = volume._core_integral(apex, steps, 1.0, order=64)
    assert 0.0 < abs(res.value - reference) <= res.stderr


@pytest.mark.parametrize("field, index", [("carved volume", 2), ("carved chart volume", 3)])
def test_monte_carlo_reads_the_carve_as_real_numbers(field, index):
    carve = list(MISS)
    carve[index] = "0.01"
    with pytest.raises(GeometryError, match=f"{field} = '0.01' must be a real number"):
        monte_carlo_volume(cube_region(), CUBE_FACES, samples=10_000, seed=1, carve=tuple(carve))


def per_cell(count):
    """Fewest samples a cell of a tetrahedron with ``count`` samples gets."""
    slices, face_bits = _grid_shape(count)
    return count // (slices << face_bits)


def test_grid_cells_hold_two_samples_and_tile_the_square():
    for count in range(2, 5000):
        slices, face_bits = _grid_shape(count)
        cells = slices << face_bits
        assert per_cell(count) >= 2
        assert cells > count // 4
        assert 8 <= slices < 16 or face_bits == 0
    cap = 1 << volume._MC_GRID_BITS
    assert cap <= volume._MC_CHUNK
    assert _grid_shape(10**9)[0] << _grid_shape(10**9)[1] == cap
    for face_bits in range(volume._MC_GRID_BITS + 1):
        side, corners = _face_grid(face_bits)
        assert np.prod(side) == 0.5**face_bits
        # the second half repeats the first, which holds every cell once
        assert np.array_equal(corners[:, 1 << face_bits :], corners[:, : 1 << face_bits])
        corners = corners[:, : 1 << face_bits]
        index = corners / side
        assert np.array_equal(index, np.rint(index))
        assert len({tuple(i) for i in index.T}) == 1 << face_bits
        assert ((index >= 0) & (index < 1 / side)).all()
        # every aligned run of 4 visits has one cell in each quadrant of the
        # square, so the cells of a partial round are spread over it
        if face_bits >= 2:
            runs = (corners >= 0.5).T.reshape(-1, 4, 2)
            assert all(len({tuple(quadrant) for quadrant in run}) == 4 for run in runs)


_ALLOCATE = volume._allocate


def _fan_sizes(run, monkeypatch):
    """Per-tetrahedron sample counts of the strata that draw samples in
    ``run()``."""
    seen = []

    def spy(n, weights):
        counts = _ALLOCATE(n, weights)
        seen.append(counts)
        return counts

    monkeypatch.setattr(volume, "_allocate", spy)
    run()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("symbol", FULLY_ASYMPTOTIC_TILINGS)
def test_every_cell_stratum_holds_two_samples_at_the_least_sample_count(symbol, monkeypatch):
    cell = build_cell(symbol)
    pts, faces = cell_region(symbol)
    for counts in _fan_sizes(lambda: cell_volume_oracle(cell, MIN_SAMPLES, 1), monkeypatch):
        assert min(map(per_cell, counts)) >= 2
        assert len(counts) == len(_hull_fan(pts, faces)[2])


def test_every_piece_stratum_holds_two_samples_at_the_least_sample_count(monkeypatch):
    # the core is integrated, not sampled, so every call draws one stratum,
    # the shell, with all the samples, whatever the core: the first piece
    # has a core at radius 0.2 and a thin one at radius 0.12, the second
    # none at radius 0.2.  The radius is the type of a ball that misses the
    # piece: centred on the cut's unit normal n, the ball lies in
    # p.n >= s, and the first piece in p.n <= 0.1 / |n| < 0.12 (the second
    # piece lies on the other side)
    normal = np.array([1.0, 0.5, 0.25])
    below, above = cube_pieces(normal, 0.1)
    normal /= np.linalg.norm(normal)
    for piece, side, radius, strata in (
        (below, 1.0, 0.2, 1), (below, 1.0, 0.12, 1), (above, -1.0, 0.2, 1),
    ):
        carve = (*cusp_ball(radius, side * normal), 0.0, 0.0)
        seen = _fan_sizes(
            lambda: monte_carlo_volume(piece, hull_faces(piece), MIN_SAMPLES, 1, carve=carve),
            monkeypatch,
        )
        assert len(seen) == strata
        for counts in seen:
            assert min(map(per_cell, counts)) >= 2


def prism(sides, radius=0.3, height=0.1):
    """An n-gon prism: its vertices and its faces, two n-gons and n squares;
    its fan has 4 n - 4 tetrahedra."""
    angle = 2.0 * math.pi * np.arange(sides) / sides
    ring = np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))
    pts = np.vstack([np.column_stack((ring, np.full(sides, z))) for z in (-height, height)])
    top = list(range(sides, 2 * sides))
    walls = [(i, (i + 1) % sides, sides + (i + 1) % sides, sides + i) for i in range(sides)]
    return pts, [list(range(sides))[::-1], top] + walls


def test_monte_carlo_needs_two_samples_per_fan_tetrahedron():
    # 2 x (4 n - 4) samples are the fewest a stratum of the n-gon prism takes
    pts, faces = prism(1252)
    assert len(_hull_fan(pts, faces)[2]) == 5004
    with pytest.raises(GeometryError, match="10000 samples leave fewer than 2 for each of 5004"):
        monte_carlo_volume(pts, faces, samples=10_000, seed=1)
    pts, faces = prism(1251)
    res = monte_carlo_volume(pts, faces, samples=10_000, seed=1)
    assert res.accepted == 10_000


def test_monte_carlo_rejects_carving_the_whole_hull():
    # the cube of half-width 0.3 has chart volume 0.216
    whole = (*MISS[:3], 0.108 + 0.108 + 1e-9)
    with pytest.raises(GeometryError, match="carved chart volume"):
        monte_carlo_volume(cube_region(), CUBE_FACES, samples=10_000, seed=1, carve=whole)


def test_monte_carlo_rejects_every_sample_carved():
    # the box [-0.05, 0.05]^2 x [0.8, 0.9] lies inside the type-0.2 ball and
    # has no core, so a carve that leaves it chart volume carves every sample
    box = [(x, y, z) for x in (-0.05, 0.05) for y in (-0.05, 0.05) for z in (0.8, 0.9)]
    carve = (*cusp_ball(0.2), 0.0, 5e-4)
    with pytest.raises(GeometryError, match="all 10000 samples"):
        monte_carlo_volume(box, CUBE_FACES, samples=10_000, seed=1, carve=carve)


def test_series_constant_against_trigamma():
    # the defining series sums 1/(6k+a)^2 blocks, so its value has the exact
    # closed form 36 / (psi1(1/6) + psi1(1/3) - psi1(2/3) - psi1(5/6))
    p = lambda x: float(polygamma(1, x))
    closed = 36.0 / (p(1 / 6) + p(1 / 3) - p(2 / 3) - p(5 / 6))
    tail = bf_series_tail_bound()
    assert tail < 1e-10
    assert abs(bf_constant() - closed) <= tail
    geometric = math.sqrt(3.0) / (6.0 * lobachevsky(math.pi / 3))
    assert geometric == pytest.approx(closed, abs=1e-12)
    assert bf_constant() == pytest.approx(0.85327609, abs=1e-7)


def _bf_exact():
    with mpmath.workdps(30):
        return mpmath.sqrt(3) / (6 * mpmath.clsin(2, 2 * mpmath.pi / 3) / 2)


def test_series_constant_within_one_ulp_and_its_bound():
    # sqrt(3)/(6 Lob(pi/3)) at 30 digits, Lob(x) = Cl_2(2x)/2
    exact = _bf_exact()
    error = abs(float(mpmath.mpf(bf_constant()) - exact))
    assert error <= math.ulp(float(exact))
    assert error <= bf_series_tail_bound() <= 1e-14


@pytest.mark.parametrize("blocks", [1, 2, 5, 20])
def test_series_tail_bound_holds_with_few_blocks(blocks, monkeypatch):
    # with few blocks the Euler-Maclaurin remainder dominates the rounding,
    # and the stated bound must still cover the error
    monkeypatch.setattr(volume, "BF_SERIES_BLOCKS", blocks)
    error = abs(float(mpmath.mpf(bf_constant.__wrapped__()) - _bf_exact()))
    assert error <= bf_series_tail_bound()


def test_series_constant_is_fast():
    t0 = time.perf_counter()
    value = bf_constant.__wrapped__()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert value == bf_constant()
