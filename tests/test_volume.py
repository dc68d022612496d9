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
    assert type(orthoscheme_volume(symbol)) is float
    assert orthoscheme_volume(symbol) == pytest.approx(ORTHOSCHEME_VOLUMES[symbol], rel=1e-13)


@pytest.mark.parametrize("symbol", sorted(CELL_VOLUMES))
def test_cell_volume(symbol):
    assert build_cell(symbol).volume == pytest.approx(CELL_VOLUMES[symbol], rel=1e-13)


def test_cell_volumes_against_classical_constants():
    # ideal regular tetrahedron: 2 Lob(pi/6); ideal regular octahedron: 4 G
    tetra = build_cell((3, 3, 6)).volume
    assert tetra == pytest.approx(2.0 * lobachevsky(math.pi / 6), abs=1e-13)
    octa = build_cell((3, 4, 4)).volume
    assert octa == pytest.approx(4.0 * CATALAN, abs=1e-12)
    assert orthoscheme_volume((3, 6, 3)) == pytest.approx(
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
    assert abs(ulps(orthoscheme_volume(symbol), seven_term_volume(symbol))) <= 16.0


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


def test_monte_carlo_deterministic():
    for symbol in FULLY_ASYMPTOTIC_TILINGS:
        cell = build_cell(symbol)
        a = cell_volume_oracle(cell, samples=50_000, seed=9)
        b = cell_volume_oracle(cell, samples=50_000, seed=9)
        c = cell_volume_oracle(cell, samples=50_000, seed=10)
        assert a.value == b.value and a.stderr == b.stderr
        assert c.value != a.value


def test_monte_carlo_sample_accounting():
    # every sample is accepted, carved out by a neighbour ball or rejected
    # outside the unit ball; the cells lie inside the ball, so none is
    # rejected, and on (3,4,4) no neighbour ball holds a sample
    samples = 150_001
    for symbol in FULLY_ASYMPTOTIC_TILINGS:
        res = cell_volume_oracle(build_cell(symbol), samples=samples, seed=5)
        assert res.accepted + res.carved + res.rejected == samples
        assert res.rejected == 0
        assert (res.carved > 0) == (symbol != (3, 4, 4))


def test_monte_carlo_validation():
    cell = build_cell((3, 3, 6))
    with pytest.raises(GeometryError, match="at least 10\\^4 samples"):
        cell_volume_oracle(cell, MIN_SAMPLES - 1, 1)
    with pytest.raises(GeometryError, match="seed must be non-negative"):
        cell_volume_oracle(cell, MIN_SAMPLES, -1)
    assert cell_volume_oracle(cell, MIN_SAMPLES, 1).accepted > 0


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


def fan_triples(pts, faces):
    """Vertex index triples of the fan's face triangles, read back from its
    step matrices as the nearest vertices."""
    apex, steps, _, _ = _hull_fan(pts, faces)
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


def oracle_levels(cell):
    """The levels of ``cell_volume_oracle``'s cusp balls: the same-type
    balls shrunk by 0.1%."""
    return 0.999 * np.array([same_type_level(cell, v) for v in range(cell.n_vertices)])


@pytest.mark.parametrize("symbol", FULLY_ASYMPTOTIC_TILINGS)
def test_cell_fan_ignores_vertex_noise(symbol):
    # moving every chart coordinate by one ulp either way keeps the fan's
    # triangles, which come from the faces and not from a hull of the points
    pts, faces = cell_region(symbol)
    # the triangles the fan returns are the ones its steps span
    assert fan_triples(pts, faces) == [tuple(t) for t in _hull_fan(pts, faces)[3].tolist()]
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(5):
        noisy = np.nextafter(pts, np.where(rng.random(pts.shape) < 0.5, -np.inf, np.inf))
        assert fan_triples(noisy, faces) == fan_triples(pts, faces)


@pytest.mark.parametrize("symbol", FULLY_ASYMPTOTIC_TILINGS)
def test_cell_fan_volume_is_the_hull_volume(symbol):
    pts, faces = cell_region(symbol)
    volumes = _hull_fan(pts, faces)[2]
    assert volumes.sum() == pytest.approx(ConvexHull(pts).volume, rel=1e-14)


def _sample_cell(symbol, samples, seed):
    """``monte_carlo_volume`` on a cell with the oracle's cusp balls; the
    balls' volumes are left at 0, which only shifts the estimate."""
    cell = build_cell(symbol)
    return volume.monte_carlo_volume(cell, oracle_levels(cell), 0.0, 0.0, samples, seed)


# entry points that read an integer, each with an integer it accepts
INTEGER_READERS = {
    "coxeter_matrix": (lambda w: coxeter_matrix((w, 3, 6)), 4),
    "build_cell": (lambda w: build_cell((w, 3, 6)), 4),
    "build_orthoscheme": (lambda w: build_orthoscheme((w, 3, 6)), 4),
    "families": (lambda w: families((w, 3, 6)), 4),
    "orthoscheme_volume": (lambda w: orthoscheme_volume((w, 3, 6)), 4),
    "monte_carlo_samples": (lambda n: _sample_cell((3, 3, 6), n, 1), 10_000),
    "monte_carlo_seed": (lambda seed: _sample_cell((3, 3, 6), 10_000, seed), 1),
    "oracle_samples": (lambda n: cell_volume_oracle(build_cell((3, 3, 6)), n, 1), 10_000),
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
    oracle's cusp balls, and of the cube and the two cube pieces with the
    radius 0.35 of a ball of type 0.35 at (0, 0, 1), which misses the cube."""
    for symbol in FULLY_ASYMPTOTIC_TILINGS:
        pts, faces = cell_region(symbol)
        radius = volume._carve_balls(pts, oracle_levels(build_cell(symbol)))[1]
        yield pytest.param(pts, faces, radius, id=str(symbol))
    yield pytest.param(np.array(cube_region()), CUBE_FACES, 0.35, id="MISS cube")
    for name, piece in zip(("below", "above"), cube_pieces((1.0, 0.5, 0.25), 0.1)):
        yield pytest.param(np.array(piece), hull_faces(piece), 0.35, id=f"piece {name}")


@pytest.mark.parametrize("pts, faces, radius", _core_cases())
def test_core_rule_converged(pts, faces, radius):
    apex, steps, _, _ = _hull_fan(pts, faces)
    t0 = _core_scale(pts, apex, radius)
    assert t0 > 0.0
    low = volume._core_integral(apex, steps, t0)
    high = volume._core_integral(apex, steps, t0, order=32)
    assert low > 0.0
    assert abs(low - high) <= 1e-12 * high


@pytest.mark.parametrize("half_width", [0.5, 0.55, 0.56, 0.57])
def test_core_rule_error_is_in_the_error_bar(half_width):
    # a cube whose corners come within 0.13 to 0.013 of the unit sphere,
    # integrated whole as a core: the order-16 rule misses by 3e-11 to 5e-5
    # relative, and the error booked for a core, the difference from order
    # 12, covers it
    pts = np.array(cube_region(half_width))
    apex, steps, _, _ = _hull_fan(pts, CUBE_FACES)
    value = volume._core_integral(apex, steps, 1.0)
    error = value - volume._core_integral(apex, steps, 1.0, volume._CORE_CHECK_ORDER)
    reference = volume._core_integral(apex, steps, 1.0, order=64)
    assert 0.0 < abs(value - reference) <= abs(error)


def per_cell(count, pieces=1):
    """Fewest samples a cell gets in a tetrahedron with ``count`` samples
    over ``pieces`` pieces."""
    each = count // pieces
    slices, face_bits = _grid_shape(each, pieces)
    return each // (slices << face_bits)


def test_grid_cells_hold_two_samples_and_tile_the_square():
    for count in range(2, 5000):
        slices, face_bits = _grid_shape(count, 1)
        cells = slices << face_bits
        assert per_cell(count) >= 2
        assert cells > count // 4
        assert 8 <= slices < 16 or face_bits == 0
    cap = 1 << volume._MC_GRID_BITS
    assert cap <= volume._MC_CHUNK
    assert _grid_shape(10**9, 1)[0] << _grid_shape(10**9, 1)[1] == cap
    # the cells of all 18 pieces of a split tetrahedron fit one block
    slices, face_bits = _grid_shape(10**9, 18)
    assert cap // 36 < slices << face_bits <= cap // 18
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
    """Per-tetrahedron sample counts and piece counts of the strata that
    draw samples in ``run()``."""
    seen = []

    def spy(n, weights, least):
        counts = _ALLOCATE(n, weights, least)
        seen.append((counts, (least // 2).tolist()))
        return counts

    monkeypatch.setattr(volume, "_allocate", spy)
    run()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("symbol", FULLY_ASYMPTOTIC_TILINGS)
def test_every_cell_stratum_holds_two_samples_at_the_least_sample_count(symbol, monkeypatch):
    # every fan tetrahedron of a cell is split into 18 pieces, one frustum
    # per face corner fanned into 6, and every cell of every piece's grid
    # holds 2 samples or more
    cell = build_cell(symbol)
    pts, faces = cell_region(symbol)
    for counts, pieces in _fan_sizes(lambda: cell_volume_oracle(cell, MIN_SAMPLES, 1), monkeypatch):
        assert min(map(per_cell, counts, pieces)) >= 2
        assert len(counts) == len(_hull_fan(pts, faces)[2])
        assert set(pieces) == {18}


def _cell_shell(symbol, t0=None):
    """The fan, core scale and shell pieces of a cell with the oracle's
    cusp balls (or with the core scale ``t0``)."""
    pts, faces = cell_region(symbol)
    levels = oracle_levels(build_cell(symbol))
    balls, radius = volume._carve_balls(pts, levels)
    apex, steps, volumes, triangles = _hull_fan(pts, faces)
    if t0 is None:
        t0 = _core_scale(pts, apex, radius)
    return pts, levels, (apex, steps, volumes), t0, volume._shell_pieces(apex, triangles, t0, balls)


def _barycentric(apexes, steps, points):
    """Barycentric coordinates (pieces, points, 4) of ``points`` in each
    piece (apex, q0, q1, q2)."""
    corners = np.cumsum(steps[:, :, ::-1], axis=2)  # q2, q1, q0 less the apex
    local = np.linalg.solve(corners[:, None], (points[None] - apexes[:, None])[..., None])[..., 0]
    return np.concatenate((1.0 - local.sum(axis=2, keepdims=True), local), axis=2)


@pytest.mark.parametrize("symbol", FULLY_ASYMPTOTIC_TILINGS)
@pytest.mark.parametrize("core", [True, False])
def test_shell_pieces_tile_each_fan_tetrahedron(symbol, core):
    # the 18 pieces of a fan tetrahedron, 6 from each face corner, tile its
    # shell between the scales t0 and 1 about the apex: their volumes add
    # up to the shell's, and a point of the shell lies in exactly one of
    # them.  Each piece's apex is the ball centre at its corner and carries
    # that ball's squared level.  With no core (t0 = 0) each corner's
    # inner quad collapses to the apex and 2 pieces of 6 remain
    pts, levels, (fan_apex, fan_steps, volumes), t0, pieces = _cell_shell(
        symbol, None if core else 0.0
    )
    assert (t0 > 0.0) == core
    rng = np.random.default_rng(5)
    for (apexes, steps, shares, h2, _), volume_k, k in zip(pieces, volumes, itertools.count()):
        piece_volumes = np.abs(np.linalg.det(steps)) / 6.0
        assert len(apexes) == (18 if core else 6)
        assert piece_volumes.min() > 0.0
        assert piece_volumes.sum() == pytest.approx(volume_k * (1.0 - t0**3), rel=1e-12)
        assert shares == pytest.approx(piece_volumes / piece_volumes.sum(), rel=1e-12)
        for a, level2 in zip(apexes, h2[:, 0]):
            [v] = np.flatnonzero((pts == a).all(axis=1))
            assert level2 == pytest.approx(levels[v] ** 2, rel=1e-15)
        if k % 4:
            continue
        # uniform points of the fan tetrahedron's shell
        lo, mid = np.sort(rng.random((2, 2000)), axis=0)
        t = np.cbrt(t0**3 + (1.0 - t0**3) * rng.random(2000))
        points = fan_apex + t[:, None] * (np.stack((lo, mid, np.ones(2000)), 1) @ fan_steps[k].T)
        inside = (_barycentric(apexes, steps, points) > -1e-12).all(axis=2)
        assert (inside.sum(axis=0) >= 1).all()
        assert (inside.sum(axis=0) <= 2).all()
        assert (inside.sum(axis=0) == 1).mean() > 0.999


@pytest.mark.parametrize("symbol", FULLY_ASYMPTOTIC_TILINGS)
def test_piece_tables_test_rays_as_the_pencil_form(symbol):
    # a piece's table holds each ball's depth (1 - a.c) / h at the piece's
    # apex a, so the ray form of _in_balls answers for p = a + tau e what the
    # pencil form (1 - p.c)^2 <= h^2 (1 - |p|^2) answers; here every ball of
    # the cell is kept, the piece's own ball included (no vertex is number -1)
    pts, levels, _, _, pieces = _cell_shell(symbol)
    balls, _ = volume._carve_balls(pts, levels)
    everywhere = (*balls[:3], np.full(len(pts), -np.inf))
    h = levels[None, :, None]
    rng = np.random.default_rng(3)
    for apexes, steps, _, _, _ in pieces:
        corners = np.dstack((apexes, apexes[:, :, None] + np.cumsum(steps[:, :, ::-1], 2)))
        lo, mid = np.sort(rng.random((2, len(apexes), 200)), axis=0)
        e = steps @ np.stack((lo, mid, np.ones_like(lo)), axis=1)
        tau = rng.random((len(apexes), 1, 200))
        p = apexes[:, :, None] + tau * e
        gap = 1.0 - np.einsum("pjm,pjm->pm", p, p)
        near = volume._near_balls(everywhere, corners, np.full(len(apexes), -1))
        got = volume._in_balls(e, tau, gap, near)
        pencil = (1.0 - pts @ p) ** 2 - h * h * gap[:, None, :]  # (pieces, balls, points)
        sure = (np.abs(pencil) > 1e-12).all(axis=1)
        assert np.array_equal(got[sure], (pencil <= 0.0).any(axis=1)[sure])
        assert 0.0 < got.mean() < 1.0


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
