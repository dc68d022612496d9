"""Lorentzian linear algebra for the projective model of hyperbolic 3-space.

Points are homogeneous 4-vectors (x0, x1, x2, x3) with the bilinear form of
signature (1,3):

    <x, y> = -x0*y0 + x1*y1 + x2*y2 + x3*y3

Interior points of the model satisfy <x,x> < 0, ideal points lie on the
absolute quadric <x,x> = 0, and outer points have <x,x> > 0.  The sectional
curvature is fixed to k = 1 throughout, so distances come out in natural
hyperbolic units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Signature (1,3) metric, fixed basis.
MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])
MINKOWSKI.setflags(write=False)

# Relative tolerance on <x,x>/|x|^2 deciding membership in the absolute.
# Ideal vertices are exact in all reference coordinates; this only absorbs
# rounding from rotations.
ABSOLUTE_TOL = 1e-10


class GeometryError(ValueError):
    """Invalid geometric input (zero vectors, wrong point class, ...)."""


class PointClass(Enum):
    INTERIOR = "interior"
    ABSOLUTE = "absolute"
    OUTER = "outer"


def as_vector(x) -> np.ndarray:
    """Coerce a ProjectivePoint, Hyperplane or raw sequence to a float 4-vector."""
    if isinstance(x, ProjectivePoint):
        return x.coords
    if isinstance(x, Hyperplane):
        return x.normal
    v = np.asarray(x, dtype=float)
    if v.shape != (4,):
        raise GeometryError(f"expected a 4-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """Homogeneous coordinate 4-vector, defined up to a nonzero real factor;
    GeometryError unless its coordinates are finite and not all zero."""

    coords: np.ndarray

    def __init__(self, coords):
        v = np.array(coords, dtype=float)
        if v.shape != (4,):
            raise GeometryError(f"expected a 4-vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise GeometryError(f"coordinates {tuple(v.tolist())} are not all finite")
        if not np.any(v):
            raise GeometryError("the zero vector is not a projective point")
        v.setflags(write=False)
        object.__setattr__(self, "coords", v)

    @classmethod
    def from_chart(cls, p) -> "ProjectivePoint":
        """Point from affine Klein-chart coordinates (x, y, z), so x0 = 1."""
        p = np.asarray(p, dtype=float)
        return cls(np.concatenate(([1.0], p)))

    def chart(self) -> np.ndarray:
        """Affine chart coordinates (x1,x2,x3)/x0.  Requires x0 != 0."""
        if abs(self.coords[0]) < 1e-300:
            raise GeometryError("point at infinity of the chart (x0 = 0)")
        return self.coords[1:] / self.coords[0]

    def chart_normalized(self) -> "ProjectivePoint":
        """Representative scaled so that x0 = 1."""
        return ProjectivePoint(np.concatenate(([1.0], self.chart())))

    def classify(self) -> PointClass:
        return classify(self)

    def __repr__(self) -> str:
        return f"ProjectivePoint({tuple(self.coords)})"


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """Projective plane {x : <normal, x> = 0}.

    ``normal`` is the Lorentzian normal vector.  Spacelike normals
    (<b,b> > 0) are stored normalized to <b,b> = 1 so that reflections are
    immediate.
    """

    normal: np.ndarray

    def __init__(self, normal):
        b = np.array(normal, dtype=float)
        if b.shape != (4,):
            raise GeometryError(f"expected a 4-vector normal, got shape {b.shape}")
        if not np.any(b):
            raise GeometryError("zero normal")
        bb = float(b @ MINKOWSKI @ b)
        if bb > 0:
            b = b / math.sqrt(bb)
        b.setflags(write=False)
        object.__setattr__(self, "normal", b)

    def is_spacelike(self) -> bool:
        return abs(float(self.normal @ MINKOWSKI @ self.normal) - 1.0) <= 1e-12


def bilinear_form(x, y) -> float:
    """<x, y> = -x0*y0 + x1*y1 + x2*y2 + x3*y3."""
    xv = as_vector(x)
    yv = as_vector(y)
    return float(-xv[0] * yv[0] + xv[1] * yv[1] + xv[2] * yv[2] + xv[3] * yv[3])


def bilinear_matrix(xs, ys) -> np.ndarray:
    """Table of <x_i, y_j> over the rows of two (n, 4) and (m, 4) arrays.

    Products are summed in bilinear_form's order, so every entry equals the
    scalar form bit for bit.
    """
    return (
        -np.outer(xs[:, 0], ys[:, 0])
        + np.outer(xs[:, 1], ys[:, 1])
        + np.outer(xs[:, 2], ys[:, 2])
        + np.outer(xs[:, 3], ys[:, 3])
    )


def classify(x) -> PointClass:
    """Interior, Absolute or Outer by the sign of <x,x>, scale invariant."""
    v = as_vector(x)
    n2 = float(v @ v)
    if n2 == 0.0:
        raise GeometryError("cannot classify the zero vector")
    q = bilinear_form(v, v)
    if abs(q) <= ABSOLUTE_TOL * n2:
        return PointClass.ABSOLUTE
    return PointClass.INTERIOR if q < 0 else PointClass.OUTER


def distance(x, y) -> float:
    """Hyperbolic distance arcosh(-<x,y>/sqrt(<x,x><y,y>)) of interior points."""
    xv, yv = as_vector(x), as_vector(y)
    qx, qy = bilinear_form(xv, xv), bilinear_form(yv, yv)
    if qx >= 0 or qy >= 0:
        raise GeometryError("distance requires two interior points")
    c = -bilinear_form(xv, yv) / math.sqrt(qx * qy)
    # Sign ambiguity of homogeneous representatives: distance is |.|.
    c = abs(c)
    return math.acosh(max(c, 1.0))


def reflect(h: Hyperplane, x):
    """Reflection x - 2<x,b>b in a spacelike hyperplane with <b,b> = 1.

    Returns the same kind of object it was given (ProjectivePoint in,
    ProjectivePoint out).  Involution; preserves the bilinear form.
    """
    if not h.is_spacelike():
        raise GeometryError("reflection needs a spacelike unit normal")
    v = as_vector(x)
    image = v - 2.0 * bilinear_form(v, h.normal) * h.normal
    if isinstance(x, ProjectivePoint):
        return ProjectivePoint(image)
    return image


def rotation_from_z(direction) -> np.ndarray:
    """4x4 Lorentz rotation (fixing x0) taking chart direction (0,0,1) to ``direction``."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    z = np.array([0.0, 0.0, 1.0])
    c = float(z @ d)
    out = np.eye(4)
    if c > 1.0 - 1e-14:
        return out
    if c < -1.0 + 1e-14:
        # half turn about any axis orthogonal to z
        out[1, 1] = -1.0
        out[3, 3] = -1.0
        return out
    axis = np.cross(z, d)
    s = float(np.linalg.norm(axis))
    axis = axis / s
    kmat = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    out[1:, 1:] = np.eye(3) + s * kmat + (1.0 - c) * (kmat @ kmat)
    return out
