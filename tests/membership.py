"""Point-by-point membership of chart points in the Monte Carlo carve-out
balls: the test oracle for the ray intervals that ``volume._ray_block``
solves for in closed form.
"""

from __future__ import annotations

import numpy as np


def in_balls(e: np.ndarray, tau, gap: np.ndarray, balls) -> np.ndarray:
    """Membership of the chart points p = a + tau e, with 1 - |p|^2 =
    ``gap``, in any of the ``balls``, a table (alpha, c / h) of each ball's
    depth alpha = (1 - a.c) / h at a and its scaled centre: for the (3, m)
    points e (tau = 1) and the columns ``balls[1:3]`` of
    ``volume._carve_balls``, whose a is the origin, or for the (pieces, 3,
    m) ray directions of a block, their (pieces, 1, m) tau and the
    per-piece table of ``volume._near_balls``, whose a is each piece's
    apex.

    A point p of the open unit ball lies in the ball with ideal centre c and
    level h when (1 - p.c)^2 <= h^2 (1 - |p|^2), that is ((1 - p.c) / h)^2
    <= gap, where (1 - p.c) / h = (1 - a.c) / h - tau (c / h).e is positive;
    so one (k x 3) @ (3 x m) product and a minimum over the k balls test
    them all.  Points on or outside the unit sphere (gap <= 0) are in no
    ball.
    """
    at_apex, scaled = balls
    depth = scaled @ e
    depth *= tau
    np.subtract(at_apex, depth, out=depth)
    nearest = depth[..., 0, :] if depth.shape[-2] == 1 else depth.min(axis=-2)
    nearest *= nearest
    return nearest <= gap
