from __future__ import annotations

import math

import numpy as np
import pytest

from horopack.coxeter import INFINITE, build_orthoscheme, vertex_distance
from horopack.lorentz import (
    MINKOWSKI,
    GeometryError,
    Hyperplane,
    PointClass,
    ProjectivePoint,
    as_vector,
    bilinear_form,
    classify,
    distance,
    reflect,
    rotation_from_z,
)

ORTHOSCHEME_SYMBOLS = [(3, 6, 3), (4, 4, 4), (4, 3, 6), (5, 3, 6)]


def random_interior_charts(rng, n, radius=0.9):
    pts = rng.standard_normal((n, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return pts * (radius * rng.random((n, 1)))


def test_bilinear_form_signature():
    e = np.eye(4)
    assert bilinear_form(e[0], e[0]) == -1.0
    for k in (1, 2, 3):
        assert bilinear_form(e[k], e[k]) == 1.0
    assert bilinear_form(e[0], e[3]) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert math.isclose(
            bilinear_form(x, y), bilinear_form(y, x), rel_tol=0, abs_tol=1e-14
        )
        assert math.isclose(
            bilinear_form(x, y), float(x @ MINKOWSKI @ y), rel_tol=1e-14
        )


def test_classify_scale_invariant():
    cases = [
        ((1.0, 0.0, 0.0, 0.0), PointClass.INTERIOR),
        ((1.0, 0.0, 0.0, 1.0), PointClass.ABSOLUTE),
        ((1.0, 0.0, 0.0, 2.0), PointClass.OUTER),
        ((1.0, 0.3, -0.2, 0.1), PointClass.INTERIOR),
    ]
    for coords, expected in cases:
        v = np.array(coords)
        assert classify(v) is expected
        assert classify(-7.0 * v) is expected
        assert ProjectivePoint(v).classify() is expected
    with pytest.raises(GeometryError):
        classify(np.zeros(4))


def test_chart_roundtrip():
    rng = np.random.default_rng(11)
    for p in random_interior_charts(rng, 25, radius=0.95):
        pt = ProjectivePoint.from_chart(p)
        assert np.allclose(pt.chart(), p, atol=1e-14)
        scaled = ProjectivePoint(3.5 * pt.coords)
        assert np.allclose(scaled.chart(), p, atol=1e-14)
        norm = scaled.chart_normalized()
        assert norm.coords[0] == pytest.approx(1.0, abs=1e-14)


def test_projective_point_rejects_non_finite_coordinates():
    for bad in ((math.nan, 0.0, 0.0, 1.0), (1.0, math.inf, 0.0, 0.0), (1.0, 0.0, 0.0, -math.inf)):
        with pytest.raises(GeometryError, match="not all finite"):
            ProjectivePoint(bad)
    with pytest.raises(GeometryError, match="not all finite"):
        ProjectivePoint.from_chart((0.0, math.nan, 0.0))
    with pytest.raises(GeometryError, match="zero vector"):
        ProjectivePoint(np.zeros(4))


def test_as_vector_accepts_points_and_rejects_bad_shapes():
    pt = ProjectivePoint((1.0, 0.1, 0.2, 0.3))
    assert np.array_equal(as_vector(pt), pt.coords)
    assert np.array_equal(as_vector([1.0, 0.0, 0.0, 0.0]), np.eye(4)[0])
    with pytest.raises(GeometryError):
        as_vector([1.0, 2.0, 3.0])


def test_distance_on_axis():
    origin = (1.0, 0.0, 0.0, 0.0)
    assert distance(origin, (1.0, 0.0, 0.0, 0.5)) == pytest.approx(
        math.atanh(0.5), abs=1e-14
    )
    assert distance(origin, origin) == 0.0
    with pytest.raises(GeometryError):
        distance(origin, (1.0, 0.0, 0.0, 1.0))


def test_distance_metric_properties():
    rng = np.random.default_rng(23)
    pts = [ProjectivePoint.from_chart(p) for p in random_interior_charts(rng, 12)]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dij = distance(pts[i], pts[j])
            assert dij >= 0.0
            assert distance(pts[j], pts[i]) == pytest.approx(dij, abs=1e-12)
            # representative scaling does not matter
            assert distance(ProjectivePoint(-2.0 * pts[i].coords), pts[j]) == (
                pytest.approx(dij, abs=1e-12)
            )
    for i, j, k in [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]:
        assert distance(pts[i], pts[k]) <= (
            distance(pts[i], pts[j]) + distance(pts[j], pts[k]) + 1e-12
        )


@pytest.mark.parametrize("symbol", ORTHOSCHEME_SYMBOLS)
def test_vertex_distance_matches_direct_distance(symbol):
    # the inverse Gram matrix and the explicit simplex coordinates describe
    # the same simplex, so finite vertex pairs must agree through both routes
    ortho = build_orthoscheme(symbol)
    finite = [
        i
        for i in range(4)
        if ortho.vertices[i].classify() is PointClass.INTERIOR
    ]
    assert len(finite) >= 2
    checked = 0
    for a in range(len(finite)):
        for b in range(a + 1, len(finite)):
            i, j = finite[a], finite[b]
            direct = distance(ortho.vertices[i], ortho.vertices[j])
            from_gram = vertex_distance(ortho.matrix, i, j)
            assert from_gram == pytest.approx(direct, abs=1e-9)
            checked += 1
    assert checked == len(finite) * (len(finite) - 1) // 2


@pytest.mark.parametrize("symbol", ORTHOSCHEME_SYMBOLS)
def test_vertex_distance_ideal_and_degenerate(symbol):
    ortho = build_orthoscheme(symbol)
    ideal = [
        i for i in range(4) if ortho.vertices[i].classify() is PointClass.ABSOLUTE
    ]
    assert ideal, "every supported orthoscheme has an ideal principal vertex"
    for i in ideal:
        j = (i + 1) % 4
        assert vertex_distance(ortho.matrix, i, j) == INFINITE
    # out-of-range indices are refused, not wrapped or left to numpy
    for i, j in ((1, 1), (-1, 1), (0, 9)):
        with pytest.raises(GeometryError):
            vertex_distance(ortho.matrix, i, j)


def test_hyperplane_normalization_and_incidence():
    h = Hyperplane((0.0, 0.0, 0.0, 2.0))
    assert np.allclose(h.normal, [0.0, 0.0, 0.0, 1.0])
    assert h.is_spacelike()
    assert bilinear_form(h.normal, (1.0, 0.3, -0.4, 0.0)) == 0.0
    assert bilinear_form(h.normal, (1.0, 0.0, 0.0, 0.5)) == 0.5
    with pytest.raises(GeometryError):
        Hyperplane((0.0, 0.0, 0.0, 0.0))
    with pytest.raises(GeometryError):
        Hyperplane((1.0, 0.0))
    # timelike normals are legal planes but not mirrors
    t = Hyperplane((1.0, 0.0, 0.0, 0.0))
    assert not t.is_spacelike()


def test_polar_planes():
    # the polar plane {y : <x, y> = 0} of a point x is Hyperplane(x)
    outer = (1.0, 0.0, 0.0, 2.0)
    h = Hyperplane(outer)
    assert h.is_spacelike()
    assert abs(bilinear_form(h.normal, (2.0, 0.0, 0.0, 1.0))) < 1e-15
    # an absolute point lies on its own polar (tangent plane)
    ideal = (1.0, 0.0, 1.0, 0.0)
    assert bilinear_form(Hyperplane(ideal).normal, ideal) == 0.0
    assert not Hyperplane(ideal).is_spacelike()


def test_reflect_preserves_form_and_is_involutive():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        b = np.concatenate(([0.4 * rng.random()], n))  # <b,b> > 0
        h = Hyperplane(b)
        assert h.is_spacelike()
        x = np.concatenate(([1.0], random_interior_charts(rng, 1)[0]))
        y = np.concatenate(([1.0], random_interior_charts(rng, 1)[0]))
        rx, ry = reflect(h, x), reflect(h, y)
        assert isinstance(rx, np.ndarray)
        assert bilinear_form(rx, ry) == pytest.approx(
            bilinear_form(x, y), abs=1e-12
        )
        assert np.allclose(reflect(h, rx), x, atol=1e-12)
        pt = ProjectivePoint(x)
        image = reflect(h, pt)
        assert isinstance(image, ProjectivePoint)
        assert np.allclose(image.coords, rx, atol=1e-14)


def test_reflect_rejects_non_spacelike_mirror():
    t = Hyperplane((1.0, 0.0, 0.0, 0.0))
    with pytest.raises(GeometryError):
        reflect(t, (1.0, 0.0, 0.0, 0.0))


def test_rotation_from_z():
    rng = np.random.default_rng(57)
    dirs = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
    for _ in range(8):
        d = rng.standard_normal(3)
        dirs.append(d / np.linalg.norm(d))
    for d in dirs:
        rot = rotation_from_z(d)
        assert rot[0, 0] == 1.0
        assert np.allclose(rot[0, 1:], 0.0) and np.allclose(rot[1:, 0], 0.0)
        assert np.allclose(rot.T @ MINKOWSKI @ rot, MINKOWSKI, atol=1e-12)
        image = rot @ np.array([1.0, 0.0, 0.0, 1.0])
        assert np.allclose(image[1:] / image[0], d, atol=1e-12)
