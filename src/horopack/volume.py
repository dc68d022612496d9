"""Lobachevsky function, the three-term volume of an orthoscheme with an
ideal vertex, series constant, and a Monte Carlo volume oracle in the Klein
chart.

All volumes are hyperbolic volumes at curvature k = 1.
"""

from __future__ import annotations

import decimal
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache

import numpy as np

from .lorentz import GeometryError

# exact constants are evaluated in this context and rounded to float once
_DIGITS = decimal.Context(prec=40)


def _integer(value, what: str) -> int:
    """``value`` as an int if it is a Python or numpy integer; GeometryError
    names ``what`` for anything else, floats and numeric strings included."""
    try:
        return operator.index(value)
    except TypeError:
        raise GeometryError(f"{what} must be an integer, got {value!r}") from None


def _real(value, what: str = "level h") -> float:
    """``value`` as a Python float; GeometryError names ``what`` unless it
    is a ``numbers.Real`` (numeric strings are refused, numpy floats pass)."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real):
        raise GeometryError(f"{what} = {value!r} must be a real number")
    return float(value)


def _index(value, size: int, what: str) -> int:
    """``value`` read by ``_integer`` as an index into ``size`` items;
    GeometryError names ``what`` unless 0 <= index < size."""
    i = _integer(value, what)
    if not 0 <= i < size:
        raise GeometryError(f"{what} must be an index below {size}, got {i}")
    return i


@dataclass(frozen=True)
class VolumeResult:
    """A volume with its standard error (0 for closed forms).

    Monte Carlo results also account for every sample drawn:
    ``accepted + carved + rejected == samples``.
    """

    value: float
    stderr: float = 0.0
    accepted: int = 0
    rejected: int = 0
    carved: int = 0


# --- Lobachevsky function ---------------------------------------------------

# Lob(t) = t - t*log(2t) + t * sum_n zeta(2n)/(n(2n+1)) (t/pi)^(2n), |t|<=pi/2.
# With the argument reduced to [0, pi/2] the ratio (t/pi)^2 <= 1/4, so the
# series gains two bits per term; 40 terms are far below double rounding.
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _lobachevsky_coefficients(terms: int) -> tuple:
    """zeta(2n)/(n(2n+1)) for n = 1..terms, each correctly rounded to float.

    The tangent numbers T_n of tan x = sum T_n x^(2n-1)/(2n-1)! come from
    the integer recurrence of Knuth and Buckholtz (Math. Comp. 21, 1967).
    With |B_2n| = 2n T_n / (4^n (4^n - 1)) and
    zeta(2n) = (2 pi)^(2n) |B_2n| / (2 (2n)!) the coefficient is
    T_n pi^(2n) / ((4^n - 1) (2n+1)!), evaluated to 40 digits.
    """
    t = [0, 1]
    for k in range(2, terms + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, terms + 1):
        for j in range(k, terms + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    with decimal.localcontext(_DIGITS):
        pi2 = _PI * _PI
        return tuple(
            float(t[n] * pi2**n / ((4**n - 1) * math.factorial(2 * n + 1)))
            for n in range(1, terms + 1)
        )


_LOB_COEF = _lobachevsky_coefficients(40)


def lobachevsky(theta: float) -> float:
    """Lob(theta) = -integral_0^theta log|2 sin t| dt.

    Odd, pi-periodic; maximum at pi/6.  Evaluated by the zeta power series
    after reduction to [0, pi/2] via Lob(pi - t) = -Lob(t).  GeometryError
    unless theta is a finite real number (read as levels are, by ``_real``:
    numeric strings are refused).
    """
    theta = _real(theta, "Lobachevsky angle")
    if not math.isfinite(theta):
        raise GeometryError(f"Lobachevsky function needs a finite angle, got {theta!r}")
    t = math.fmod(theta, math.pi)
    if t < 0.0:
        t += math.pi
    sign = 1.0
    if t > math.pi / 2.0:
        t = math.pi - t
        sign = -1.0
    if t < 1e-300:
        return 0.0
    ratio = (t / math.pi) ** 2
    series = 0.0
    power = 1.0
    for coef in _LOB_COEF:
        power *= ratio
        term = coef * power
        series += term
        if term < 1e-18:
            break
    return float(sign * t * (1.0 - math.log(2.0 * t) + series))


# --- orthoscheme and cell volumes -------------------------------------------


def orthoscheme_volume(symbol) -> VolumeResult:
    """Closed-form volume of the orthoscheme (n1, n2, n3) whose (n2, n3)
    vertex is ideal, as in every characteristic orthoscheme of a fully
    asymptotic cell.

    With a_i = pi/n_i the classical formula takes theta from
    tan(theta) = sqrt(cos^2 a2 - sin^2 a1 sin^2 a3) / (cos a1 cos a3) and
    sums 1/4 [Lob(a1+theta) - Lob(a1-theta) + Lob(a3+theta) - Lob(a3-theta)
    - Lob(pi/2-a2+theta) + Lob(pi/2-a2-theta) + 2 Lob(pi/2-theta)].  The
    (n2, n3) vertex is ideal exactly when 1/n2 + 1/n3 = 1/2, i.e.
    a2 = pi/2 - a3; then the root is sin a3 cos a1, so theta = a3 = pi/n3
    (cos a1 > 0 for n1 >= 3).  Lob(a3-theta) and Lob(pi/2-a2-theta) are
    Lob(0) = 0, Lob(a3+theta) and -Lob(pi/2-a2+theta) cancel as
    +-Lob(2 a3), and

        vol = 1/4 [Lob(a1 + a3) - Lob(a1 - a3) + 2 Lob(pi/2 - a3)].

    The volume is finite when the (n1, n2) vertex is finite or ideal,
    1/n1 + 1/n2 >= 1/2.  Seven symbols pass: (3,3,6), (4,3,6), (5,3,6),
    (6,3,6), (3,4,4), (4,4,4) and (3,6,3); any other raises GeometryError.
    """
    ws = tuple(_integer(w, "Schlafli weight") for w in symbol)
    if len(ws) != 3:
        raise GeometryError(f"orthoscheme volume needs a rank-4 symbol, got {ws}")
    n1, n2, n3 = ws
    if not (min(ws) >= 3 and n2 * n3 == 2 * (n2 + n3) and n1 * n2 <= 2 * (n1 + n2)):
        raise GeometryError(
            f"symbol {ws} is not a finite orthoscheme with an ideal (n2, n3) vertex"
        )
    a1, a3 = math.pi / n1, math.pi / n3
    vol = lobachevsky(a1 + a3) - lobachevsky(a1 - a3) + 2.0 * lobachevsky(math.pi / 2.0 - a3)
    return VolumeResult(value=0.25 * vol)


# --- Monte Carlo oracle -----------------------------------------------------

# Points per block of one fan tetrahedron, a whole number of rounds of its
# cell grid.  Blocks this small keep a block's arrays in cache: the largest,
# the (balls x points) depth table of the carve-out balls whose half-spaces
# reach the tetrahedron (the 3 balls at its face corners on every cell),
# takes 0.4 MB.
_MC_CHUNK = 1 << 14
# Most bits of the cell grid on one tetrahedron's uniforms (u, a, b); 2^14
# cells fill one block.
_MC_GRID_BITS = 14
MIN_SAMPLES = 10_000  # fewest samples for which a standard error is reported
# order of the core rule whose difference from ``_core_integral``'s order 16
# is booked as the core's error
_CORE_CHECK_ORDER = 12


def _hull_fan(pts: np.ndarray, faces):
    """Tetrahedral fan of a convex polyhedron from its vertex mean: each
    face, a cycle of indices into ``pts`` in convex order, is split into
    triangles from its first vertex, and each triangle is coned from the
    mean of the points on the faces.

    Returns the apex, per-tetrahedron step matrices and Euclidean volumes.
    For sorted uniforms lo <= mid, apex + steps[k] @ (lo, mid, 1) is uniform
    on the face (P0, P1, P2) of tetrahedron k opposite the apex: its
    barycentric weights (lo, mid - lo, 1 - mid) are the spacings of two
    uniforms, which are uniform on the triangle.  Scaling that step by a
    gauge t with density 3 t^2 on [0, 1] makes the point uniform in the
    tetrahedron, and restricting t to [t0, t1] makes it uniform in the
    slab between the copies of that face scaled about the apex by t0 and t1.
    GeometryError unless every index is an integer index into ``pts``, every
    face has 3 or more vertices, every edge lies on exactly two faces and
    the fan has positive volume.
    """
    cycles = [[_index(i, len(pts), "face vertex") for i in face] for face in faces]
    if not cycles or min(map(len, cycles)) < 3:
        raise GeometryError("region needs faces of at least 3 vertices each")
    edges = Counter(frozenset(e) for c in cycles for e in zip(c, c[1:] + c[:1]))
    open_edges = sorted(tuple(sorted(e)) for e, n in edges.items() if n != 2)
    if open_edges:
        raise GeometryError(f"edges {open_edges} do not lie on exactly two faces")
    triangles = np.array([(c[0], c[k], c[k + 1]) for c in cycles for k in range(1, len(c) - 1)])
    apex = pts[np.unique(triangles)].mean(axis=0)
    p0, p1, p2 = (pts[triangles[:, i]] for i in range(3))
    steps = np.stack((p0 - p1, p1 - p2, p2 - apex), axis=2)
    volumes = np.abs(np.linalg.det(np.stack((p0, p1, p2), axis=1) - apex)) / 6.0
    if not volumes.sum() > 0.0:
        raise GeometryError("degenerate region: zero Euclidean volume")
    return apex, steps, volumes


def _core_scale(pts: np.ndarray, apex: np.ndarray, radius: float) -> float:
    """Largest t0 <= 1 with the hull scaled about ``apex`` by t0 inside the
    ball |p| <= radius; 0 unless the apex lies strictly inside that ball.

    The scaled hull is convex, so it is inside when every scaled point
    apex + t d, d = p - apex, is: |apex + t d|^2 = radius^2 has one positive
    root t = -C / (B + sqrt(B^2 - A C)) with A = |d|^2, B = apex . d and
    C = |apex|^2 - radius^2 < 0, the form that does not cancel.
    """
    c = float(apex @ apex) - radius * radius
    if not c < 0.0:
        return 0.0
    d = pts - apex
    b = d @ apex
    a = np.einsum("ij,ij->i", d, d)
    with np.errstate(divide="ignore"):
        roots = -c / (b + np.sqrt(b * b - a * c))
    return min(1.0, float(roots.min()))


@lru_cache(maxsize=None)
def _triangle_rule(order: int):
    """Nodes (u, v) and weights of an order x order Gauss-Legendre rule on the
    unit triangle u, v >= 0, u + v <= 1, collapsed from the unit square by
    the Duffy map u = s (1 - t), v = s t (Jacobian s)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x = 0.5 * (x + 1.0)
    s, t = np.meshgrid(x, x, indexing="ij")
    rule = (s * (1.0 - t)).ravel(), (s * t).ravel(), (np.outer(0.25 * w, w) * s).ravel()
    for table in rule:
        table.setflags(write=False)
    return rule


def _core_integral(apex, steps, t0: float, order: int = 16) -> float:
    """Integral of the chart volume element 1/(1 - |p|^2)^2 over the fan
    scaled about the apex by t0 <= ``_core_scale``, by a tensor rule.

    Tetrahedron k is p = apex + t steps[k] @ (lo, mid, 1), 0 <= lo <= mid
    <= 1, 0 <= t <= t0, with dp = t^2 |det steps[k]| dt dlo dmid.  The gauge
    t takes ``order`` Gauss-Legendre nodes on [0, t0] and (lo, mid) = (u,
    1 - v) the nodes of ``_triangle_rule(order)``.  The integrand is analytic
    on the scaled fan, which lies strictly inside the unit ball: at order 16
    the four cells agree with order 48 to 1.4e-14 relative.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * t0 * (x + 1.0)
    u, v, weights = _triangle_rule(order)
    d = steps @ np.stack((u, 1.0 - v, np.ones_like(u)))  # (tetrahedra, 3, nodes)
    twice_ad = 2.0 * np.einsum("j,kjq->kq", apex, d)
    dd = np.einsum("kjq,kjq->kq", d, d)
    gap_at_apex = 1.0 - float(apex @ apex)
    per_tetrahedron = np.zeros(len(steps))
    for ti, wi in zip(t, 0.5 * t0 * w * t * t):
        gap = gap_at_apex - ti * (twice_ad + ti * dd)  # 1 - |p|^2
        per_tetrahedron += wi * (gap**-2 @ weights)
    return float(np.abs(np.linalg.det(steps)) @ per_tetrahedron)


def _allocate(n: int, weights: np.ndarray) -> list:
    """``n`` samples over the fan's tetrahedra: 2 each, and the rest in
    proportion to ``weights`` by cumulative rounding.  Needs n >= 2 len(weights)."""
    cumulative = np.cumsum(weights)
    edges = np.rint((n - 2 * len(weights)) * cumulative / cumulative[-1]).astype(np.int64)
    return (2 + np.diff(edges, prepend=0)).tolist()


def _grid_shape(count: int) -> tuple:
    """(slices, face_bits) of the cell grid of a tetrahedron with ``count``
    >= 2 samples: count // 2 cells, at most 2^_MC_GRID_BITS, so that every
    cell gets 2 or more samples.  The gauge u is cut into 8 to 15 slices
    (fewer only below 8 cells) and the face uniforms (a, b) into 2^face_bits
    cells; at 10^6 samples on the four cells this split had 1.2 to 1.7 times
    less variance than a grid with about as many intervals along each
    uniform."""
    cells = min(count // 2, 1 << _MC_GRID_BITS)
    face_bits = max(cells.bit_length() - 4, 0)
    return cells >> face_bits, face_bits


@lru_cache(maxsize=None)
def _face_grid(face_bits: int) -> tuple:
    """Side lengths (2, 1) and lower corners of the cells of a grid on the
    unit square of (a, b), a cut into 2^ceil(face_bits / 2) intervals and b
    into 2^floor(face_bits / 2), listed in the order they are visited and
    then once more, as a (2, 2^(face_bits + 1)) table: the cells visited
    from position s on are its columns s .. s + 2^face_bits - 1.

    Bit i of the visit position is the (i // 2)-th most significant bit of
    coordinate i mod 2, so the first 4 positions visit the 4 quadrants, the
    first 16 every cell of the 4 x 4 grid, and so on: any run of visits is
    spread over the square."""
    dims = np.array([[(face_bits + 1) // 2], [face_bits // 2]])
    position = np.arange(1 << face_bits)
    index = np.zeros((2, 1 << face_bits), dtype=np.int64)
    for i in range(face_bits):
        index[i % 2] |= ((position >> i) & 1) << (dims[i % 2, 0] - 1 - i // 2)
    side, corners = np.ldexp(1.0, -dims), np.tile(np.ldexp(index, -dims), 2)
    side.setflags(write=False)
    corners.setflags(write=False)
    return side, corners


def _fold(values: np.ndarray, cells: int, into: np.ndarray, work: np.ndarray) -> None:
    """Adds to ``into`` the sums per cell of a block whose point j lies in
    cell j mod ``cells``, summed in ``work`` (``cells`` long)."""
    whole = len(values) // cells * cells
    np.add.reduce(values[:whole].reshape(-1, cells), axis=0, out=work)
    work[: len(values) - whole] += values[whole:]
    into += work


def _in_balls(x: np.ndarray, r2: np.ndarray, balls) -> np.ndarray:
    """Membership of the (3, m) chart points ``x``, with |x|^2 = ``r2``, in
    any of the ``balls`` of ``_carve_balls``.

    A point p of the open unit ball lies in the ball with ideal centre c and
    level h when (1 - p.c)^2 <= h^2 (1 - |p|^2), that is (1 - p.c) / h <=
    sqrt(1 - |p|^2) as 1 - p.c > 0, so one (k x 3) @ (3 x m) product and a
    minimum over the k balls test them all; points on or outside the unit
    sphere are in no ball.
    """
    _, inv_h, scaled, _ = balls
    depth = scaled @ x
    np.subtract(inv_h, depth, out=depth)
    with np.errstate(invalid="ignore"):
        return depth.min(axis=0) <= np.sqrt(1.0 - r2)


def _near_balls(balls, corners: np.ndarray):
    """The ``balls`` whose half-space p.c_v >= s_v (``monte_carlo_volume``)
    reaches one of the (3, 4) ``corners`` of a tetrahedron, or None if
    ``balls`` is None or none does.  A linear function is largest over a
    tetrahedron at a corner, so a ball left out holds no point of it."""
    if balls is None:
        return None
    centres, _, _, reach = balls
    near = (centres @ corners).max(axis=1) >= reach
    if not near.any():
        return None
    return tuple(table[near] for table in balls)


def _carve_balls(centres, levels) -> tuple:
    """The ``_in_balls`` table of ideal balls at chart ``centres`` (a (k, 3)
    array, k >= 1, of points on the unit sphere) with ``levels`` h (positive
    finite real numbers, read by ``_real``), and the carve-free radius
    max(0, min_v s_v) of their types s_v = (1 - h_v^2) / (1 + h_v^2);
    GeometryError otherwise."""
    c = np.asarray(centres, dtype=float)
    if c.ndim != 2 or c.shape[1] != 3 or c.shape[0] < 1:
        raise GeometryError(f"carve centres must form a (k, 3) array, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise GeometryError("carve centres must be finite")
    if not (np.abs(np.linalg.norm(c, axis=1) - 1.0) <= 1e-12).all():
        raise GeometryError("carve centres must lie on the unit sphere")
    if np.shape(levels) != (len(c),):
        raise GeometryError(f"carve needs one level per centre: {len(c)} centres")
    h = np.array([_real(level) for level in levels])
    if not ((h > 0.0) & (h < math.inf)).all():
        raise GeometryError(f"carve levels {h.tolist()} must be positive and finite")
    inv_h = (1.0 / h)[:, None]
    types = (1.0 - h * h) / (1.0 + h * h)
    # the types less a slack that rounding in a corner's or a point's p.c
    # cannot cross
    return (c, inv_h, c * inv_h, types - 1e-12), max(0.0, float(types.min()))


def _stratum(rng, apex, steps, weights, n: int, c0: float, c1: float, balls):
    """Draw ``n`` points uniformly in the slab c0 <= t^3 <= c1 of the fan and
    estimate the mean chart volume element over the part of the slab not
    carved by ``balls`` (``_in_balls``; None carves nothing).  The slab is
    the shell of ``monte_carlo_volume``, c0 = t0^3 and c1 = 1; when c0 = c1
    it has no thickness and every point lies on the faces scaled by t0.

    Tetrahedron k gets a fixed share of the samples (``_allocate``: 2 or
    more, the rest in proportion to its weight w_k), and its uniforms
    (u, a, b) are stratified on a grid of K_k equal cells (``_grid_shape``:
    2 or more samples per cell), slices of u times a grid on the face
    uniforms.  A point is apex + t steps[k] @ (lo, mid, 1) with lo, mid =
    sorted(a, b) and t = cbrt(c0 + u (c1 - c0)), so every cell is a known
    share w_k / K_k of the slab's chart volume.  The samples visit the cells
    in whole rounds, then one partial round over the face cells that follow
    a random start in their visit order (``_face_grid``), so the cells with
    one sample more lie spread over the tetrahedron.  Only the balls that
    reach the tetrahedron (``_near_balls``) are tested on its points, by
    ``_in_balls``, which reuses their |p|^2.

    With y the volume element of a point not carved (0 outside the unit
    ball) and x = 1 for it, y = x = 0 for a carved one, the combined ratio
    estimator (Cochran, Sampling Techniques, 3rd ed., 6.11-6.12) of the mean
    over the uncarved slab is R = sum W_c ybar_c / sum W_c xbar_c, with
    variance sum W_c^2 s_c^2 / n_c / (sum W_c xbar_c)^2, s_c^2 the
    within-cell variance of y - R x.  Without a carve-out x = 1 throughout
    and R is the stratified mean.

    Returns (R, variance of R, accepted, carved), with R = 0 and variance 0
    when every sample is carved.
    """
    accepted = carved = 0
    # a block's arrays are views of this one allocation, which every block
    # reuses: allocated anew per block, their memory went back to the system
    # when freed and took minor page faults again in the next block
    work = np.empty(11 * _MC_CHUNK)
    # sums over the cells of W_c ybar_c, W_c xbar_c and the terms of the
    # variance that multiply 1, -2 R and R^2
    y_bar = x_bar = var_y = var_xy = var_x = 0.0
    for k, count in enumerate(_allocate(n, weights)):
        slices, face_bits = _grid_shape(count)
        cells = slices << face_bits
        # column j slices + i of a round is slice i of t^3 = c0 + (c1 - c0) u
        # over face cell j, the face cells taken in visit order from a random
        # start
        thick = (c1 - c0) / slices
        side, corners = _face_grid(face_bits)
        start = int(rng.integers(1 << face_bits))
        offset = np.empty((3, cells))
        offset[0] = np.tile(c0 + thick * np.arange(slices), 1 << face_bits)
        offset[1:] = np.repeat(corners[:, start : start + (1 << face_bits)], slices, axis=1)
        scale = np.vstack(([thick], side))
        span, base = steps[k][:, :2], steps[k][:, 2:]
        # the apex and the face corners p2, p1, p0 of the tetrahedron
        vertices = np.hstack((np.zeros((3, 1)), np.cumsum(steps[k][:, ::-1], axis=1)))
        near = _near_balls(balls, vertices + apex[:, None])
        block = max(1, _MC_CHUNK // cells) * cells
        y_sum = np.zeros(cells)
        y_sq = np.zeros(cells)
        x_sum = np.zeros(cells)
        for first in range(0, count, block):
            m = min(block, count - first)
            whole = m // cells * cells
            r = rng.random(out=work[: 3 * m].reshape(3, m))  # t^3, a, b once put into their cells
            face = work[3 * m : 5 * m].reshape(2, m)
            x = work[5 * m : 8 * m].reshape(3, m)
            r2, w, sums = work[8 * m : 9 * m], work[9 * m : 10 * m], work[10 * m : 10 * m + cells]
            r *= scale
            r[:, :whole].reshape(3, -1, cells)[...] += offset[:, None, :]
            r[:, whole:] += offset[:, : m - whole]
            np.minimum(r[1], r[2], out=face[0])
            np.maximum(r[1], r[2], out=face[1])
            np.matmul(span, face, out=x)
            x += base
            x *= np.cbrt(r[0], out=r[0])
            x += apex[:, None]
            np.einsum("ij,ij->j", x, x, out=r2)
            keep = r2 < 1.0
            if near:
                cut = _in_balls(x, r2, near)
                cut &= keep
                carved += int(np.count_nonzero(cut))
                _fold(~cut, cells, x_sum, sums)
                keep &= ~cut
            accepted += int(np.count_nonzero(keep))
            np.subtract(1.0, r2, out=w)
            w *= w
            np.maximum(w, 1e-300, out=w)  # finite where r2 = 1, a point never kept
            y = np.divide(keep, w, out=w)
            _fold(y, cells, y_sum, sums)
            _fold(np.multiply(y, y, out=r2), cells, y_sq, sums)
        # cells visited first hold q + 1 samples, the rest q >= 2
        q, rest = divmod(count, cells)
        if not near:
            x_sum = np.full(cells, float(q))
            x_sum[:rest] += 1.0
        for size, part in ((q + 1, slice(0, rest)), (q, slice(rest, cells))):
            sy, sx = y_sum[part], x_sum[part]
            share = weights[k] / cells / size  # W_c / n_c
            y_bar += share * sy.sum()
            x_bar += share * sx.sum()
            # W_c^2 s_c^2 / n_c, s_c^2 = (sum d^2 - (sum d)^2 / n_c) / (n_c - 1) for
            # d = y - R x, expanded in R by sum x y = sum y and sum x^2 = sum x
            coef = share * share * size / (size - 1)
            var_y += coef * (y_sq[part].sum() - sy @ sy / size)
            var_xy += coef * (sy.sum() - sy @ sx / size)
            var_x += coef * (sx.sum() - sx @ sx / size)
    if carved == n:
        return 0.0, 0.0, accepted, carved
    ratio = float(y_bar / x_bar)
    var = float(max(var_y - 2.0 * ratio * var_xy + ratio * ratio * var_x, 0.0) / (x_bar * x_bar))
    return ratio, var, accepted, carved


def monte_carlo_volume(region, faces, samples: int, seed: int, carve=None) -> VolumeResult:
    """Monte Carlo hyperbolic volume of a convex region in the Klein chart.

    ``region`` is a vertex set given as chart 3-vectors and ``faces`` its
    faces as index cycles in convex order (``_hull_fan``).  Draws points
    uniformly in the polyhedron, through the tetrahedral fan of its faces
    from the vertex mean, stratified by tetrahedron and on a grid inside each
    (``_stratum``), and averages the chart volume element
    1/(1 - x^2 - y^2 - z^2)^2 times the chart volume sampled.  Points on or
    outside the unit sphere count as rejected and contribute 0.
    Deterministic for a fixed (seed, samples).

    ``carve`` is one (centres, levels, volume, chart_volume) tuple of ideal
    balls: ball v has its ideal centre at the chart point centres[v] on the
    unit sphere and the chart Busemann level levels[v] (``horoball``).
    Points in any ball are excluded from the sampled region, the balls'
    hyperbolic ``volume`` inside the region is added back to the estimate
    and their Euclidean ``chart_volume`` inside it is taken off the hull's.
    Carving the cusps keeps the sampled integrand bounded when the region has
    ideal vertices, where naive sampling has infinite variance and a
    meaningless standard error.

    No ball reaches nearer the origin than the carve-free radius
    max(0, min_v s_v), s_v = (1 - h_v^2) / (1 + h_v^2) the type of ball v: a
    point p of ball v has (1 - t)^2 <= h_v^2 (1 - |p|^2) <= h_v^2 (1 - t^2)
    with t = p.c_v <= |p|, so |p| >= t >= s_v.  The ball lies in the
    half-space p.c_v >= s_v, whose plane touches it at s_v c_v.

    The hull is split into two radial parts of the fan: the core, the hull
    scaled about the apex by the largest t0 that keeps it within the
    carve-free radius of the origin (t0 = 0 unless the apex lies within that
    radius), and the shell, the rest.  The core meets no ball and the volume
    element is analytic on it, so it is integrated, not sampled
    (``_core_integral``, an order-16 tensor Gauss-Legendre rule), and the
    difference from the order-12 rule is booked as its error.  Every sample
    goes to the shell, one stratum t0^3 <= t^3 <= 1 (``_stratum``); its
    samples that are not carved are uniform in the shell less the balls,
    whose chart volume (1 - t0^3) H - ``chart_volume`` is known exactly
    from the hull's H.  This is the limit of Neyman allocation in which the
    core, whose variance is nil, gets no samples, and it needs no pilot run.
    The estimate is ``volume`` plus the core's integral plus the shell's
    chart volume times its ratio estimate, with standard error^2 = V^2
    var(R) + (Q16 - Q12)^2.  Carved samples add no variance and the grid
    cells remove most of it within the shell.  Without a carve-out, or with
    a ball that reaches the origin (h_v >= 1), the core is empty; when the
    whole hull is core the shell has no thickness and adds no volume.

    GeometryError unless the region's points are finite, its faces are
    valid and give no more than samples / 2 fan tetrahedra, the carve's
    centres form a (k, 3) array of k >= 1 finite points on the unit sphere
    with one positive finite real level each, and its ``volume`` and
    ``chart_volume`` are finite real numbers >= 0.
    """
    samples, seed = _integer(samples, "sample count"), _integer(seed, "seed")
    pts = np.asarray(region, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 4:
        raise GeometryError("region needs at least 4 chart points in 3-space")
    if not np.isfinite(pts).all():
        raise GeometryError("region points must be finite")
    if samples < MIN_SAMPLES:
        raise GeometryError("need at least 10^4 samples")
    if seed < 0:
        raise GeometryError(f"seed must be non-negative, got {seed}")
    if carve is None:
        balls, radius, exact, chart = None, 0.0, 0.0, 0.0
    else:
        centres, levels, exact, chart = carve
        balls, radius = _carve_balls(centres, levels)
        exact = _real(exact, "carved volume")
        chart = _real(chart, "carved chart volume")
    if not 0.0 <= exact < math.inf:
        raise GeometryError(f"carved volume {exact!r} must be finite and >= 0")
    if not 0.0 <= chart < math.inf:
        raise GeometryError(f"carved chart volume {chart!r} must be finite and >= 0")
    apex, steps, volumes = _hull_fan(pts, faces)
    if samples < 2 * len(volumes):
        raise GeometryError(
            f"{samples} samples leave fewer than 2 for each of {len(volumes)} fan tetrahedra"
        )
    hull_vol = float(volumes.sum())
    t0 = _core_scale(pts, apex, radius)
    shell_hull = hull_vol * (1.0 - t0**3)
    shell = shell_hull - chart
    if not (shell > 0.0 or shell == chart == 0.0):
        raise GeometryError(f"carved chart volume leaves {shell!r} of the shell's {shell_hull!r}")
    core = _core_integral(apex, steps, t0)
    core_error = core - _core_integral(apex, steps, t0, _CORE_CHECK_ORDER)

    rng = np.random.Generator(np.random.PCG64(seed))
    ratio, ratio_var, accepted, carved = _stratum(
        rng, apex, steps, volumes / hull_vol, samples, t0**3, 1.0, balls
    )
    if shell > 0.0 and carved == samples:
        raise GeometryError(f"all {samples} samples of the shell were carved out")
    est = exact + core + shell * ratio
    var = shell * shell * ratio_var + core_error * core_error
    rejected = samples - accepted - carved
    return VolumeResult(est, math.sqrt(var), accepted, rejected, carved)


# --- series constant ---------------------------------------------------------

# Length-6 blocks of the series summed term by term; the rest is the
# Euler-Maclaurin tail in closed form (``bf_constant``)
BF_SERIES_BLOCKS = 1000
# offsets a and signs of the terms sign_a / (6k + a)^2 of a block
_BF_OFFSETS = np.array([1, 2, 4, 5])
_BF_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def bf_series_tail_bound() -> float:
    """Bound on |bf_constant() - BF|, about 5.7e-16.

    - The Euler-Maclaurin remainder after the B4 term is at most |B4| / 4!
      = 1/720 times the integral of |g^(4)| over [K, inf), which is at most
      sum_a |f_a^(3)(K)| = 4! 6^3 sum_a (6K + a)^-5, so at most
      28.8 (6K + 1)^-5 = 3.7e-18.
    - With u = 2^-53: each term of the first K blocks is one rounded
      division of an exact square, together off by at most u pi^2/6; the
      correctly rounded sum of the terms, the tail (terms below 1/(6K),
      off by far less than u) and the sum of the two add at most u each,
      as the series lies in [1, 2).
    - The series exceeds 1, so its reciprocal moves by no more than the
      series does, and the final division adds half an ulp, u/2.
    """
    u = 2.0**-53
    return 28.8 / (6 * BF_SERIES_BLOCKS + 1) ** 5 + (math.pi**2 / 6.0 + 3.5) * u


@lru_cache(maxsize=1)
def bf_constant() -> float:
    """Simply transitive horoball packing density bound, about 0.85327609.

    Reciprocal of the series 1 + 1/2^2 - 1/4^2 - 1/5^2 + 1/7^2 + 1/8^2 - ...
    running over integers not divisible by 3 with the sign pattern + + - -.
    Equals sqrt(3)/(6 Lob(pi/3)); the identity is exercised by the tests.

    The first K = BF_SERIES_BLOCKS blocks g(k) = sum_a sign_a f_a(k),
    f_a(k) = (6k + a)^-2, are summed term by term by ``math.fsum``, and the
    rest by Euler-Maclaurin: with P(n) = sum_a sign_a (6K + a)^-n and
    g^(m)(K) = (-1)^m (m + 1)! 6^m P(m + 2),

        sum_{k >= K} g(k) = P(1)/6 + P(2)/2 + B2 6 P(3) + B4 6^3 P(5) + R
                          = P(1)/6 + P(2)/2 + P(3) - 36/5 P(5) + R,

    the integral, half the first term and the B2 and B4 corrections, with
    |R| and the rounding bounded in ``bf_series_tail_bound``.
    """
    n = 6 * np.arange(BF_SERIES_BLOCKS)[:, None] + _BF_OFFSETS  # squares exact below 2^53
    head = math.fsum((_BF_SIGNS / (n * n)).ravel().tolist())
    edge = 6.0 * BF_SERIES_BLOCKS + _BF_OFFSETS

    def moment(p: int) -> float:
        return float(_BF_SIGNS @ edge**-p)

    tail = moment(1) / 6.0 + moment(2) / 2.0 + moment(3) - 7.2 * moment(5)
    return 1.0 / (head + tail)
