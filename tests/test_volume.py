from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.special import polygamma

from horopack.coxeter import build_cell
from horopack.lorentz import GeometryError
from horopack.volume import (
    VolumeMethod,
    bf_constant,
    bf_series_tail_bound,
    hyperbolic_ball_volume,
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


@pytest.mark.parametrize("symbol", sorted(ORTHOSCHEME_VOLUMES))
def test_orthoscheme_volume(symbol):
    res = orthoscheme_volume(symbol)
    assert res.method is VolumeMethod.CLOSED_FORM
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


def test_hyperbolic_ball_volume():
    assert hyperbolic_ball_volume(0.0) == 0.0
    assert hyperbolic_ball_volume(0.5) == pytest.approx(
        math.pi * (4.0 / 3.0 - math.log(3.0)), abs=1e-14
    )
    # Euclidean limit for small radii
    r = 1e-3
    rho = math.atanh(r)
    assert hyperbolic_ball_volume(r) == pytest.approx(
        4.0 * math.pi / 3.0 * rho**3, rel=1e-5
    )
    radii = np.linspace(0.05, 0.9, 10)
    vols = [hyperbolic_ball_volume(r) for r in radii]
    assert all(a < b for a, b in zip(vols, vols[1:]))


def cube_region(a=0.3):
    corners = []
    for sx in (-a, a):
        for sy in (-a, a):
            for sz in (-a, a):
                corners.append((sx, sy, sz))
    return corners


def test_monte_carlo_matches_quadrature():
    res = monte_carlo_volume(cube_region(), samples=200_000, seed=123)
    assert res.method is VolumeMethod.MONTE_CARLO
    assert res.stderr > 0
    assert abs(res.value - CUBE_ORACLE) < 4.0 * res.stderr
    assert res.stderr < 0.01 * CUBE_ORACLE


def test_monte_carlo_deterministic():
    a = monte_carlo_volume(cube_region(), samples=50_000, seed=9)
    b = monte_carlo_volume(cube_region(), samples=50_000, seed=9)
    c = monte_carlo_volume(cube_region(), samples=50_000, seed=10)
    assert a.value == b.value and a.stderr == b.stderr
    assert c.value != a.value


def test_monte_carlo_carve_out_additivity():
    # carving an origin ball and adding its closed-form volume back must
    # reproduce the plain estimate of the same region
    r_ball = 0.15
    exact = hyperbolic_ball_volume(r_ball)

    def in_ball(pts):
        return np.einsum("ij,ij->i", pts, pts) <= r_ball * r_ball

    plain = monte_carlo_volume(cube_region(), samples=400_000, seed=77)
    carved = monte_carlo_volume(
        cube_region(), samples=400_000, seed=78, carve_outs=[(in_ball, exact)]
    )
    sigma = math.hypot(plain.stderr, carved.stderr)
    assert abs(carved.value - plain.value) < 4.0 * sigma
    assert abs(carved.value - CUBE_ORACLE) < 4.0 * carved.stderr


def test_monte_carlo_validation():
    with pytest.raises(GeometryError):
        monte_carlo_volume(cube_region(), samples=500, seed=1)
    with pytest.raises(GeometryError):
        monte_carlo_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0)], samples=10_000, seed=1)
    coplanar = [(0, 0, 0), (0.1, 0, 0), (0, 0.1, 0), (0.1, 0.1, 0)]
    with pytest.raises(GeometryError):
        monte_carlo_volume(coplanar, samples=10_000, seed=1)


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


def test_series_constant_is_fast():
    t0 = time.perf_counter()
    value = bf_constant.__wrapped__()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert value == bf_constant()
