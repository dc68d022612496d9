"""Lobachevsky function, the three-term volume of an orthoscheme with an
ideal vertex, series constant, and a Monte Carlo volume oracle for the
fully asymptotic cells in the Klein chart, which samples each cell along
rays from its cusps.

All volumes are hyperbolic volumes at curvature k = 1.
"""

from __future__ import annotations

import decimal
import math
import numbers
import operator
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
    """A Monte Carlo volume with its standard error and an account of every
    sample drawn: ``accepted + carved + rejected == samples``.  ``carved``
    counts the samples that fall in a neighbour ball: a sample on a ray from
    a ball's centre starts past that ball, so the ray's share in it is
    weighed out, not counted.
    """

    value: float
    stderr: float
    accepted: int
    rejected: int
    carved: int


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


def orthoscheme_volume(symbol) -> float:
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
    return 0.25 * vol


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

    Returns the apex, per-tetrahedron step matrices, Euclidean volumes and
    face triangles, the last as rows (i0, i1, i2) of indices into ``pts``.
    For sorted uniforms lo <= mid, apex + steps[k] @ (lo, mid, 1) is uniform
    on the face (P0, P1, P2) of tetrahedron k opposite the apex: its
    barycentric weights (lo, mid - lo, 1 - mid) are the spacings of two
    uniforms, which are uniform on the triangle.  Scaling that step by a
    gauge t with density 3 t^2 on [0, 1] makes the point uniform in the
    tetrahedron, and restricting t to [t0, t1] makes it uniform in the
    slab between the copies of that face scaled about the apex by t0 and t1.
    """
    triangles = np.array([(c[0], c[k], c[k + 1]) for c in faces for k in range(1, len(c) - 1)])
    apex = pts[np.unique(triangles)].mean(axis=0)
    p0, p1, p2 = (pts[triangles[:, i]] for i in range(3))
    steps = np.stack((p0 - p1, p1 - p2, p2 - apex), axis=2)
    volumes = np.abs(np.linalg.det(np.stack((p0, p1, p2), axis=1) - apex)) / 6.0
    return apex, steps, volumes, triangles


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


def _allocate(n: int, weights: np.ndarray, least: np.ndarray) -> list:
    """``n`` samples over the fan's tetrahedra: ``least`` each, and the rest
    in proportion to ``weights`` by cumulative rounding.  Needs n >=
    sum(least)."""
    cumulative = np.cumsum(weights)
    edges = np.rint((n - least.sum()) * cumulative / cumulative[-1]).astype(np.int64)
    return (least + np.diff(edges, prepend=0)).tolist()


def _grid_shape(count: int, pieces: int) -> tuple:
    """(slices, face_bits) of the cell grid of each of ``pieces`` pieces
    with ``count`` >= 2 samples each: count // 2 cells, at most
    2^_MC_GRID_BITS // pieces, so that every cell gets 2 or more samples and
    a round over the cells of all the pieces fits a block.  The gauge u is
    cut into 8 to 15 slices (fewer only below 8 cells) and the face uniforms
    (a, b) into 2^face_bits cells; at 10^6 samples on the four cells this
    split had 1.2 to 1.7 times less variance than a grid with about as many
    intervals along each uniform."""
    cells = min(count // 2, (1 << _MC_GRID_BITS) // pieces)
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


def _fold(values: np.ndarray, cells: int, into: np.ndarray) -> None:
    """Adds to ``into`` (pieces x ``cells``) the sums per cell of a
    (pieces, m) block whose point j of each piece lies in cell j mod
    ``cells``."""
    m = values.shape[1]
    for first in range(0, m - cells + 1, cells):
        into += values[:, first : first + cells]
    into[:, : m % cells] += values[:, m - m % cells :]


def _in_balls(e: np.ndarray, tau, gap: np.ndarray, balls) -> np.ndarray:
    """Membership of the chart points p = a + tau e, with 1 - |p|^2 =
    ``gap``, in any of the ``balls``: for the (3, m) points e (tau = 1) and
    the table of ``_carve_balls``, whose a is the origin, or for the
    (pieces, 3, m) ray directions of a block, their (pieces, 1, m) tau and
    the per-piece table of ``_near_balls``, whose a is each piece's apex.

    A point p of the open unit ball lies in the ball with ideal centre c and
    level h when (1 - p.c)^2 <= h^2 (1 - |p|^2), that is ((1 - p.c) / h)^2
    <= gap, where (1 - p.c) / h = (1 - a.c) / h - tau (c / h).e is positive;
    so one (k x 3) @ (3 x m) product and a minimum over the k balls test
    them all.  Points on or outside the unit sphere (gap <= 0) are in no
    ball.
    """
    _, at_apex, scaled, _ = balls
    depth = scaled @ e
    depth *= tau
    np.subtract(at_apex, depth, out=depth)
    nearest = depth[..., 0, :] if depth.shape[-2] == 1 else depth.min(axis=-2)
    nearest *= nearest
    return nearest <= gap


def _near_balls(balls, corners: np.ndarray, own: np.ndarray):
    """Per piece, the ``balls`` whose half-space p.c_v >= s_v
    (``monte_carlo_volume``) reaches one of the piece's (pieces, 3, 4)
    ``corners``, less its ``own`` ball (a vertex number per piece).  A
    linear function is largest over a tetrahedron at a corner, so a ball
    left out holds no point of it.

    The table has the layout of ``_carve_balls``'s with a leading piece
    axis, its second column the depth (1 - a.c) / h at the piece's apex a,
    the first corner, for ``_in_balls``; it is padded to the most balls a
    piece keeps by balls that hold no point (at depth inf)."""
    centres, inv_h, scaled, reach = balls
    near = (centres @ corners).max(axis=-1) >= reach
    near &= np.arange(len(centres)) != own[:, None]
    width = int(near.sum(axis=1).max())
    order = np.argsort(~near, axis=1, kind="stable")[:, :width]
    kept = np.take_along_axis(near, order, axis=1)[:, :, None]
    at_apex = inv_h[order] - scaled[order] @ corners[:, :, :1]
    return (
        np.where(kept, centres[order], 0.0),
        np.where(kept, at_apex, np.inf),
        np.where(kept, scaled[order], 0.0),
        np.where(kept[:, :, 0], reach[order], np.inf),
    )


def _carve_balls(centres: np.ndarray, h: np.ndarray) -> tuple:
    """The ``_in_balls`` table of ideal balls at the chart ``centres`` (a
    (k, 3) array of points on the unit sphere) with the levels ``h`` (an
    array of k), and the carve-free radius max(0, min_v s_v) of their types
    s_v = (1 - h_v^2) / (1 + h_v^2)."""
    inv_h = (1.0 / h)[:, None]
    types = (1.0 - h * h) / (1.0 + h * h)
    # the types less a slack that rounding in a corner's or a point's p.c
    # cannot cross
    return (centres, inv_h, centres * inv_h, types - 1e-12), max(0.0, float(types.min()))


def _piece_rows() -> np.ndarray:
    """The 18 pieces of a split fan tetrahedron as rows (apex, q0, q1, q2)
    of indices into its 14 points: the face corners p0, p1, p2, the edge
    midpoints m01, m12, m20 and the centroid g (0-6), then the same scaled
    about the fan's apex by t0 (7-13).  Corner i owns the frustum over the
    quad (p_i, m_ij, g, m_ik); its six rows fan it from p_i over the faces
    that do not hold p_i: the inner quad and the two sides through g."""
    rows, g, s = [], 6, 7
    for i, (a, b) in enumerate(((3, 5), (4, 3), (5, 4))):
        rows += [
            (i, i + s, a + s, g + s), (i, i + s, g + s, b + s),
            (i, a, g, g + s), (i, a, g + s, a + s),
            (i, g, b, b + s), (i, g, b + s, g + s),
        ]
    return np.array(rows)


_PIECE_ROWS = _piece_rows()


def _shell_pieces(apex, triangles, t0: float, balls) -> list:
    """The pieces the shell t0 <= t <= 1 of each fan tetrahedron is sampled
    in, one (apexes, steps, shares, h2, near) tuple per tetrahedron.

    Every face corner of a cell's fan is a vertex, and ball v sits at vertex
    v.  The shell of the tetrahedron over the face triangle (p0, p1, p2), a
    row of vertex numbers in ``triangles``, is split into one region per
    corner p_i: the frustum, between scales t0 and 1 about the fan's
    ``apex``, of the cone over the quad (p_i, m_ij, g, m_ik) of edge
    midpoints and centroid, fanned from p_i into 6 tetrahedra
    (``_PIECE_ROWS``; those of zero volume, when t0 = 0, are dropped).  A
    piece from p_i carries the squared level ``h2`` (pieces x 1) of ball
    p_i, which its rays cut exactly.  ``steps`` maps (lo, mid, 1) to a
    piece's face as ``_hull_fan``'s do, ``shares`` are the pieces' shares
    of the tetrahedron's shell, and ``near`` is the ``_near_balls`` table of
    the other balls that reach each piece, or None if none does.
    """
    centres, inv_h = balls[0], balls[1][:, 0]
    c = centres[triangles]  # (tetrahedra, 3, 3)
    points = np.concatenate((c, 0.5 * (c + np.roll(c, -1, axis=1)), c.mean(1, keepdims=True)), 1)
    points = np.concatenate((points, apex + t0 * (points - apex)), axis=1)
    rows = points[:, _PIECE_ROWS]  # (tetrahedra, 18, 4, 3): apex, q0, q1, q2
    a, q0, q1, q2 = (rows[:, :, i] for i in range(4))
    steps = np.stack((q0 - q1, q1 - q2, q2 - a), axis=3)
    volumes = np.abs(np.linalg.det(steps))  # 6 times the pieces' volumes
    ball = triangles[:, _PIECE_ROWS[:, 0]]
    h2 = inv_h[ball] ** -2.0
    near = _near_balls(balls, np.swapaxes(rows, 2, 3).reshape(-1, 3, 4), ball.ravel())
    pieces = []
    for k in range(len(triangles)):
        keep = np.flatnonzero(volumes[k] > 0.0)
        kept = tuple(table[k * len(_PIECE_ROWS) + keep] for table in near)
        shares = volumes[k, keep] / volumes[k, keep].sum()
        pieces.append((
            rows[k, keep, 0], steps[k, keep], shares, h2[k, keep, None],
            kept if np.isfinite(kept[1]).any() else None,
        ))
    return pieces


def _stratum(rng, pieces, weights, n: int):
    """Draw ``n`` points in the shell of the fan, in the ``pieces`` of
    ``_shell_pieces``, and estimate the mean chart volume element over the
    part of the shell outside the balls.

    Tetrahedron k gets a fixed share of the samples (``_allocate``: 2 or
    more per piece, the rest in proportion to its weight w_k), split evenly
    over its P pieces, one more for the first count mod P of them.  A
    piece's uniforms (u, a, b) are stratified on a grid of G equal cells
    (``_grid_shape``: 2 or more samples per cell), slices of u times a grid
    on the face uniforms, the same grid for every piece of the tetrahedron.
    A piece's apex is a ball's centre c, and a point is c + tau e, e = steps
    @ (lo, mid, 1) with lo, mid = sorted(a, b).  The ray lies in that ball
    exactly for tau <= tau_e = -2 h^2 (c.e) / ((c.e)^2 + h^2 |e|^2) (|c| =
    1), so with l = min(tau_e^3, 1) the point takes tau^3 = l + u (1 - l),
    uniform in tau^3 over [l, 1]: the ray skips its own ball and the point
    carries the weight 1 - l of the part of the ray it stands for.  Every
    cell is a known share w_k s_p / G of the shell's chart volume, s_p the
    piece's share of the tetrahedron's shell.  The samples visit the cells
    in whole rounds, then one partial round over the face cells that follow
    a random start in their visit order (``_face_grid``), so the cells with
    one sample more lie spread over the piece.  Every piece's points are
    tested by ``_in_balls`` against the balls that ``_near_balls`` keeps for
    it (on the four cells 0 or 1), its own ball excluded.  All the pieces of
    a tetrahedron share one block, with a leading piece axis.

    With y the weight times the volume element of a point not carved (0
    outside the unit ball) and x the weight of a point not carved, y = x =
    0 for a carved one, the combined ratio estimator (Cochran, Sampling
    Techniques, 3rd ed., 6.11-6.12) of the mean over the shell outside the
    balls is R = sum W_c ybar_c / sum W_c xbar_c, with variance sum W_c^2
    s_c^2 / n_c / (sum W_c xbar_c)^2, s_c^2 the within-cell variance of y -
    R x.

    Returns (R, variance of R, accepted, carved), with R = 0 and variance 0
    when no sample carries weight.
    """
    accepted = carved = 0
    # a block's arrays are views of this one allocation, which every block
    # reuses: allocated anew per block, their memory went back to the system
    # when freed and took minor page faults again in the next block
    # (the last 2 _MC_CHUNK hold a tetrahedron's sums of y and x per cell)
    work = np.empty(11 * _MC_CHUNK)
    sums = work[9 * _MC_CHUNK :]
    # sums over the cells of W_c ybar_c, W_c xbar_c and the variance terms
    # of y^2, x y and x^2
    totals = np.zeros(5)
    least = np.array([2 * len(piece[0]) for piece in pieces])
    for (apexes, steps, shares, h2, near), weight, count in zip(
        pieces, weights, _allocate(n, weights, least)
    ):
        n_pieces = len(apexes)
        each, extra = divmod(count, n_pieces)  # pieces below extra draw each + 1
        slots = each + (extra > 0)
        slices, face_bits = _grid_shape(each, n_pieces)
        cells = slices << face_bits
        # column j slices + i of a round is slice i of u over face cell j,
        # the face cells taken in visit order from a random start
        thick = 1.0 / slices
        side, corners = _face_grid(face_bits)
        start = int(rng.integers(1 << face_bits))
        offset = np.empty((3, 1, cells))
        offset[0, 0] = np.tile(thick * np.arange(slices), 1 << face_bits)
        offset[1:, 0] = np.repeat(corners[:, start : start + (1 << face_bits)], slices, axis=1)
        scale = np.vstack(([thick], side))[:, :, None]
        # d = -2 a.e and, as the apex a is a ball's centre (|a| = 1), 1 -
        # |p|^2 = tau (d - tau |e|^2) for p = a + tau e, and the own ball
        # ends at tau_e = d / (d^2 / (4 h^2) + |e|^2)
        minus_twice_apexes = -2.0 * apexes[:, None, :]
        quarter_inv_h2 = 0.25 / h2
        room = _MC_CHUNK // n_pieces  # the most samples per piece a block holds
        block = room // cells * cells
        per_cell = sums[: 2 * n_pieces * cells].reshape(2, n_pieces, cells)
        per_cell.fill(0.0)
        # the pieces that draw one sample more and the rest, each with its
        # samples per cell n_c, and 1 / (n_c (n_c - 1)) repeated over a block
        groups = []
        for rows, drawn in ((slice(0, extra), each + 1), (slice(extra, n_pieces), each)):
            if rows.start == rows.stop:
                continue
            q, rest = divmod(drawn, cells)
            n_c = np.full(cells, float(q))
            n_c[:rest] += 1.0
            inverse = np.tile(1.0 / (n_c * (n_c - 1.0)), -(-min(slots, room) // cells))
            groups.append((rows, n_c, inverse))
        # per piece, the sums over its samples of (y, x) (y, x)^T / (n_c (n_c - 1))
        second = np.zeros((n_pieces, 2, 2))
        first = 0
        while first < slots:
            m = slots - first if slots - first <= room else block
            b = n_pieces * m  # the block's arrays of b doubles each fill work in turn
            whole = m // cells * cells
            r = rng.random(out=work[: 3 * b].reshape(3, n_pieces, m))
            r *= scale
            rounds = r[:, :, :whole].reshape(3, n_pieces, -1, cells)
            np.add(rounds, offset[:, :, None, :], out=rounds)
            np.add(r[:, :, whole:], offset[:, :, : m - whole], out=r[:, :, whole:])
            face = work[3 * b : 6 * b].reshape(n_pieces, 3, m)  # (lo, mid, 1)
            np.minimum(r[1], r[2], out=face[:, 0])
            np.maximum(r[1], r[2], out=face[:, 1])
            face[:, 2] = 1.0
            e = work[6 * b : 9 * b].reshape(n_pieces, 3, m)
            np.matmul(steps, face, out=e)
            tau, d, ee = r
            np.matmul(minus_twice_apexes, e, out=d[:, None, :])
            np.einsum("pjm,pjm->pm", e, e, out=ee)
            # y and x, where face was
            yx = work[3 * b : 5 * b].reshape(2, n_pieces, m)
            y, x = yx
            gap = work[5 * b : 6 * b].reshape(n_pieces, m)
            np.multiply(d, d, out=y)
            y *= quarter_inv_h2
            y += ee
            np.divide(d, y, out=y)  # tau_e
            cut_off = np.multiply(y, y, out=gap)
            cut_off *= y
            np.minimum(cut_off, 1.0, out=cut_off)
            np.subtract(1.0, cut_off, out=x)  # the point's weight
            tau *= x
            tau += cut_off
            np.cbrt(tau, out=tau)
            np.multiply(tau, ee, out=gap)
            np.subtract(d, gap, out=gap)
            gap *= tau
            inside = gap > 0.0
            if extra and first + m == slots:
                # the last slot, which the pieces past extra do not draw
                inside[extra:, -1] = False
                x[extra:, -1] = 0.0
            accepted += int(np.count_nonzero(inside))
            if near:
                cut = _in_balls(e, tau[:, None, :], gap, near)
                cut &= inside
                hits = int(np.count_nonzero(cut))
                if hits:
                    carved += hits
                    accepted -= hits
                    x[cut] = 0.0
            np.multiply(gap, gap, out=y)
            np.maximum(y, 1e-300, out=y)  # finite where gap = 0, a point outside
            np.divide(x, y, out=y)
            if not inside.all():
                y[~inside] = 0.0
            _fold(y, cells, per_cell[0])
            _fold(x, cells, per_cell[1])
            weighted = work[: 2 * b].reshape(2, n_pieces, m)
            for rows, _, inverse in groups:
                np.multiply(yx[:, rows], inverse[:m], out=weighted[:, rows])
                second[rows] += np.matmul(
                    weighted[:, rows].transpose(1, 0, 2), yx[:, rows].transpose(1, 2, 0)
                )
            first += m
        # every cell of piece p has W_c = w_k s_p / G; the combined ratio
        # estimator needs sum W_c ybar_c, sum W_c xbar_c and, with d = y -
        # R x, sum W_c^2 s_c^2 / n_c, s_c^2 = (sum d^2 - (sum d)^2 / n_c) /
        # (n_c - 1), expanded in R
        share = weight * shares / cells
        share2 = share * share
        totals[2:] += share2 @ second.reshape(n_pieces, 4)[:, [0, 1, 3]]
        for rows, n_c, inverse in groups:
            sy, sx = per_cell[:, rows]
            totals[0] += share[rows] @ (sy @ (1.0 / n_c))
            totals[1] += share[rows] @ (sx @ (1.0 / n_c))
            spread = inverse[:cells] / n_c
            totals[2] -= share2[rows] @ ((sy * sy) @ spread)
            totals[3] -= share2[rows] @ ((sy * sx) @ spread)
            totals[4] -= share2[rows] @ ((sx * sx) @ spread)
    return (*_combined_ratio(*totals.tolist()), accepted, carved)


def _combined_ratio(y_bar, x_bar, var_y, var_xy, var_x) -> tuple:
    """R = sum W_c ybar_c / sum W_c xbar_c and its variance from the sums
    over the cells of W_c ybar_c and W_c xbar_c and of the terms of sum
    W_c^2 s_c^2 / n_c that multiply 1, -2 R and R^2; (0, 0) when no sample
    carries weight (x_bar = 0)."""
    if x_bar == 0.0:
        return 0.0, 0.0
    ratio = y_bar / x_bar
    return ratio, max(var_y - 2.0 * ratio * var_xy + ratio * ratio * var_x, 0.0) / (x_bar * x_bar)


def monte_carlo_volume(
    cell, levels, exact: float, chart: float, samples: int, seed: int
) -> VolumeResult:
    """Monte Carlo hyperbolic volume of a fully asymptotic cell in the Klein
    chart, with its cusps carved out by balls of known volume.

    ``cell`` is a ``build_cell`` cell and ``levels`` an array of one chart
    Busemann level per vertex: ball v has its ideal centre at vertex v and
    level levels[v] (``horoball``).  Points in any ball are excluded from
    the sampled region, the balls' hyperbolic volume ``exact`` inside the
    cell is added back to the estimate and their Euclidean ``chart`` volume
    inside it is taken off the hull's.  Carving the cusps keeps the sampled
    integrand, the chart volume element 1/(1 - x^2 - y^2 - z^2)^2, bounded,
    where naive sampling has infinite variance and a meaningless standard
    error.  Points on or outside the unit sphere count as rejected and
    contribute 0.  Deterministic for a fixed (seed, samples).

    No ball reaches nearer the origin than the carve-free radius
    max(0, min_v s_v), s_v = (1 - h_v^2) / (1 + h_v^2) the type of ball v: a
    point p of ball v has (1 - t)^2 <= h_v^2 (1 - |p|^2) <= h_v^2 (1 - t^2)
    with t = p.c_v <= |p|, so |p| >= t >= s_v.  The ball lies in the
    half-space p.c_v >= s_v, whose plane touches it at s_v c_v.

    The hull is coned from the vertex mean over its faces (``_hull_fan``)
    and split into two radial parts of the fan: the core, the hull scaled
    about the apex by the largest t0 that keeps it within the carve-free
    radius of the origin (t0 = 0 unless the apex lies within that radius),
    and the shell, the rest.  The core meets no ball and the volume element
    is analytic on it, so it is integrated, not sampled (``_core_integral``,
    an order-16 tensor Gauss-Legendre rule), and the difference from the
    order-12 rule is booked as its error.  Every sample goes to the shell,
    t0^3 <= t^3 <= 1, along rays from the cusps (``_shell_pieces``): the
    shell of each fan tetrahedron is cut into one region per face corner,
    fanned from the corner, and every ray skips the corner's own ball
    exactly and weighs the point by the share of the ray it stands for.
    The neighbour balls are still tested on each piece's points, and the
    pieces are stratified on a grid (``_stratum``).  The weighted samples
    not carved stand for the shell less the balls, whose chart volume
    (1 - t0^3) H - ``chart`` is known exactly from the hull's H.  This is
    the limit of Neyman allocation in which the core, whose variance is
    nil, gets no samples, and it needs no pilot run.  The estimate is
    ``exact`` plus the core's integral plus the shell's chart volume times
    its ratio estimate, with standard error^2 = V^2 var(R) + (Q16 - Q12)^2.
    The balls add no variance and the grid cells remove most of it within
    the shell.

    GeometryError unless ``samples`` is an integer >= ``MIN_SAMPLES`` and
    ``seed`` a non-negative integer.
    """
    samples, seed = _integer(samples, "sample count"), _integer(seed, "seed")
    if samples < MIN_SAMPLES:
        raise GeometryError("need at least 10^4 samples")
    if seed < 0:
        raise GeometryError(f"seed must be non-negative, got {seed}")
    pts = np.array([v.chart() for v in cell.vertices])
    balls, radius = _carve_balls(pts, levels)
    apex, steps, volumes, triangles = _hull_fan(pts, cell.faces)
    t0 = _core_scale(pts, apex, radius)
    pieces = _shell_pieces(apex, triangles, t0, balls)
    hull_vol = float(volumes.sum())
    shell = hull_vol * (1.0 - t0**3) - chart
    core = _core_integral(apex, steps, t0)
    core_error = core - _core_integral(apex, steps, t0, _CORE_CHECK_ORDER)

    rng = np.random.Generator(np.random.PCG64(seed))
    ratio, ratio_var, accepted, carved = _stratum(rng, pieces, volumes / hull_vol, samples)
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
