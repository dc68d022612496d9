"""Lobachevsky function, closed-form orthoscheme volumes, series constant,
and a Monte Carlo volume oracle in the Klein chart.

All volumes are hyperbolic volumes at curvature k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.special import zeta

from .lorentz import GeometryError


class VolumeMethod(Enum):
    CLOSED_FORM = "closed form"
    MONTE_CARLO = "monte carlo"


@dataclass(frozen=True)
class VolumeResult:
    value: float
    method: VolumeMethod
    stderr: float = 0.0


# --- Lobachevsky function ---------------------------------------------------

# Lob(t) = t - t*log(2t) + t * sum_n zeta(2n)/(n(2n+1)) (t/pi)^(2n), |t|<=pi/2.
# With the argument reduced to [0, pi/2] the ratio (t/pi)^2 <= 1/4, so the
# series gains two bits per term; 40 terms are far below double rounding.
_LOB_N = np.arange(1, 41)
_LOB_COEF = zeta(2 * _LOB_N) / (_LOB_N * (2 * _LOB_N + 1))


def lobachevsky(theta: float) -> float:
    """Lob(theta) = -integral_0^theta log|2 sin t| dt.

    Odd, pi-periodic; maximum at pi/6.  Evaluated by the zeta power series
    after reduction to [0, pi/2] via Lob(pi - t) = -Lob(t).
    """
    t = math.fmod(float(theta), math.pi)
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
    return sign * t * (1.0 - math.log(2.0 * t) + series)


# --- orthoscheme and cell volumes -------------------------------------------


def _weights(symbol):
    ws = getattr(symbol, "weights", None)
    if ws is None:
        ws = tuple(int(w) for w in symbol)
    return tuple(ws)


def orthoscheme_volume(symbol) -> VolumeResult:
    """Closed-form volume of the hyperbolic orthoscheme (n1, n2, n3).

    Uses the classical three-angle expression: with a_i = pi/n_i and the
    auxiliary angle theta given by

        tan(theta) = sqrt(cos^2 a2 - sin^2 a1 sin^2 a3) / (cos a1 cos a3),

    the volume is 1/4 [ Lob(a1+theta) - Lob(a1-theta) + Lob(a3+theta)
    - Lob(a3-theta) - Lob(pi/2 - a2 + theta) + Lob(pi/2 - a2 - theta)
    + 2 Lob(pi/2 - theta) ].
    """
    ws = _weights(symbol)
    if len(ws) != 3:
        raise GeometryError(f"orthoscheme volume needs a rank-4 symbol, got {ws}")
    a1, a2, a3 = (math.pi / n for n in ws)
    num = math.cos(a2) ** 2 - math.sin(a1) ** 2 * math.sin(a3) ** 2
    if num < -1e-15:
        raise GeometryError(f"symbol {ws} is not a hyperbolic orthoscheme")
    theta = math.atan2(math.sqrt(max(num, 0.0)), math.cos(a1) * math.cos(a3))
    lob = lobachevsky
    half_pi = math.pi / 2.0
    vol = 0.25 * (
        lob(a1 + theta)
        - lob(a1 - theta)
        + lob(a3 + theta)
        - lob(a3 - theta)
        - lob(half_pi - a2 + theta)
        + lob(half_pi - a2 - theta)
        + 2.0 * lob(half_pi - theta)
    )
    if vol <= 0.0:
        raise GeometryError(f"symbol {ws} has no positive hyperbolic volume")
    return VolumeResult(value=vol, method=VolumeMethod.CLOSED_FORM)


# --- Monte Carlo oracle -----------------------------------------------------

_MC_CHUNK = 1 << 20


def hyperbolic_ball_volume(klein_radius: float) -> float:
    """Closed-form volume pi*(sinh(2 rho) - 2 rho) of a ball of Klein radius r."""
    rho = math.atanh(klein_radius)
    return math.pi * (math.sinh(2.0 * rho) - 2.0 * rho)


def monte_carlo_volume(region, samples: int, seed: int, carve_outs=()) -> VolumeResult:
    """Rejection-sampled hyperbolic volume of a convex region in the Klein chart.

    ``region`` is a vertex set given as chart 3-vectors (or projective points
    with x0 = 1).  Samples the Euclidean bounding box, keeps points inside the
    convex hull and the unit ball, and averages the chart volume element
    1/(1 - x^2 - y^2 - z^2)^2.  Deterministic for a fixed (seed, samples).

    ``carve_outs`` is a sequence of (predicate, exact_volume) pairs: points
    where predicate(points) is True are excluded from the sampled region and
    exact_volume is added back to the estimate.  Carved regions must be
    pairwise disjoint subsets of the region.  This keeps the sampled integrand
    bounded when the region has ideal vertices, where naive sampling has
    infinite variance and a meaningless standard error.
    """
    pts = []
    for p in region:
        coords = getattr(p, "chart", None)
        pts.append(p.chart() if callable(coords) else np.asarray(p, dtype=float))
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 4:
        raise GeometryError("region needs at least 4 chart points in 3-space")
    if samples < 10_000:
        raise GeometryError("need at least 10^4 samples")
    if seed < 0:
        raise GeometryError(f"seed must be non-negative, got {seed}")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise GeometryError(f"degenerate region: {exc}") from exc
    if hull.volume <= 0.0:
        raise GeometryError("degenerate region: zero Euclidean volume")

    normals = hull.equations[:, :3]
    offsets = hull.equations[:, 3]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    box_vol = float(np.prod(hi - lo))

    rng = np.random.Generator(np.random.PCG64(seed))
    total = 0.0
    total_sq = 0.0
    remaining = int(samples)
    while remaining > 0:
        n = min(_MC_CHUNK, remaining)
        remaining -= n
        x = rng.random((n, 3)) * (hi - lo) + lo
        r2 = np.einsum("ij,ij->i", x, x)
        inside = r2 < 1.0
        inside &= np.all(x @ normals.T + offsets <= 0.0, axis=1)
        for predicate, _ in carve_outs:
            inside &= ~predicate(x)
        f = np.zeros(n)
        f[inside] = 1.0 / (1.0 - r2[inside]) ** 2
        total += float(f.sum())
        total_sq += float((f * f).sum())

    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    est = box_vol * mean
    stderr = box_vol * math.sqrt(var / samples)
    for _, exact in carve_outs:
        est += exact
    return VolumeResult(value=est, method=VolumeMethod.MONTE_CARLO, stderr=stderr)


# --- series constant ---------------------------------------------------------

# Number of length-6 blocks of the series; the tail after K blocks is below
# 1/(36 K^2), i.e. < 4.5e-13 here, well under the 1e-10 contract.
BF_SERIES_BLOCKS = 250_000


def bf_series_tail_bound(blocks: int = BF_SERIES_BLOCKS) -> float:
    return 1.0 / (36.0 * blocks * blocks)


@lru_cache(maxsize=1)
def bf_constant() -> float:
    """Simply transitive horoball packing density bound, about 0.85327609.

    Reciprocal of the series 1 + 1/2^2 - 1/4^2 - 1/5^2 + 1/7^2 + 1/8^2 - ...
    running over integers not divisible by 3 with the sign pattern + + - -.
    Equals sqrt(3)/(6 Lob(pi/3)); the identity is exercised by the tests.
    """
    k = np.arange(BF_SERIES_BLOCKS, dtype=float)
    s = np.sum(
        1.0 / (6 * k + 1) ** 2
        + 1.0 / (6 * k + 2) ** 2
        - 1.0 / (6 * k + 4) ** 2
        - 1.0 / (6 * k + 5) ** 2
    )
    return float(1.0 / s)
