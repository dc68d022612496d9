"""Horoball packing configurations on fully asymptotic Coxeter cells.

A configuration places one horoball at every ideal vertex of a cell.  Its
density is the total sector volume inside the cell divided by the cell
volume.  Each supported tiling carries a small set of one-parameter
configuration families: the anchor ball's type parameter s drives every
other level through a cascade of declared tangencies (the largest horoball
determines the rest), and the family is valid on the s-interval where no
ball crosses a non-adjacent face and no shared-edge pair overlaps.  The
cataloged named arrangements are the endpoint and branch-point states of
these families.

One evaluator, ``evaluate``, takes an (m, n) level matrix, one configuration
per row, and returns the sector volumes C_v h_v^2, the densities and each
row's first violation.  ``Family.level_matrix(grid)`` runs a family's cascade
over an s-grid on its own cell, so ``sweep`` prices the grid in one call;
``Family.levels(s)``, ``validate_packing`` and ``density`` are m = 1 views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .coxeter import Cell, SchlafliSymbol, as_symbol, build_cell
from .horoball import Horoball, _cell_sector_volume, horoball_level, ray_crossing
from .lorentz import GeometryError, ProjectivePoint

# slack on pair gaps and face tangency when validating, and the gap size
# below which two balls are recorded as tangent
PAIR_TOL = 1e-9
TANGENCY_TOL = 1e-9
DOMAIN_TOL = 1e-12


class InvalidPackingError(GeometryError):
    """Raised when an operation requires a valid packing and none is given."""


@dataclass(frozen=True)
class Tangency:
    pair: tuple[int, int]
    contact: ProjectivePoint


@dataclass(frozen=True)
class Violation:
    kind: str  # "pair" or "face"
    indices: tuple[int, ...]
    detail: str


@dataclass(frozen=True, eq=False)
class PackingConfiguration:
    """One horoball per ideal vertex of one cell.

    ``assignment`` holds canonical-chart type parameters s per vertex and
    ``levels`` the equivalent chart Busemann levels h.  The structure can
    represent invalid candidates; validity is checked by validate_packing.
    """

    tiling: SchlafliSymbol
    cell: Cell
    assignment: tuple[float, ...]
    levels: tuple[float, ...]
    label: Optional[str] = None

    def horoball(self, vertex: int) -> Horoball:
        return horoball_level(self.cell.vertices[vertex], self.levels[vertex])

    @cached_property
    def tangencies(self) -> tuple[Tangency, ...]:
        """Tangent vertex pairs and their contact points on the joining line.

        Every vertex pair is scanned (axis tangencies between non-adjacent
        vertices included); computed when first read.
        """
        cell, levels = self.cell, self.levels
        return tuple(
            Tangency(
                pair=(i, j),
                contact=ray_crossing(self.horoball(i), cell.vertices[j]),
            )
            for i in range(cell.n_vertices)
            for j in range(i + 1, cell.n_vertices)
            if abs(ball_gap(cell, levels, i, j)) <= TANGENCY_TOL
        )


@dataclass(frozen=True)
class DensityReport:
    density: float
    sector_volumes: tuple[float, ...]
    cell_volume: float
    config: PackingConfiguration


def ball_gap(cell: Cell, levels, i: int, j: int) -> float:
    """Signed boundary distance of balls i, j along their joining line.

    log(kappa / (2 h_i h_j)) with kappa = -<c_i, c_j>: zero at tangency,
    negative when the balls overlap.  Defined for any vertex pair, not just
    cell edges.
    """
    return math.log(cell.kappa(i, j) / (2.0 * levels[i] * levels[j]))


def all_pair_gaps(config: PackingConfiguration) -> dict[tuple[int, int], float]:
    """Gap of every vertex pair; diagnostic (validation is edge-scoped)."""
    n = config.cell.n_vertices
    return {
        (i, j): ball_gap(config.cell, config.levels, i, j)
        for i in range(n)
        for j in range(i + 1, n)
    }


def configuration(tiling, levels, label: Optional[str] = None) -> PackingConfiguration:
    """Build a configuration from finite, positive per-vertex levels."""
    symbol = as_symbol(tiling)
    cell = build_cell(symbol)
    levels = tuple(float(h) for h in levels)
    if len(levels) != cell.n_vertices:
        raise GeometryError(
            f"{symbol.weights} needs {cell.n_vertices} levels, got {len(levels)}"
        )
    if not all(map(math.isfinite, levels)):
        raise GeometryError(f"horoball levels must be finite, got {levels}")
    if min(levels) <= 0.0:
        raise GeometryError("horoball levels must be positive")
    return _configurations(symbol, cell, (levels,), label)[0]


class Evaluation(NamedTuple):
    """``evaluate`` of an (m, n) level matrix, one configuration per row."""

    sectors: np.ndarray  # (m, n) sector volumes C_v h_v^2
    density: np.ndarray  # (m,)
    violations: list  # (m,) first Violation of each row, None where valid


def evaluate(cell: Cell, levels) -> Evaluation:
    """Sector volumes, densities and first violations of many level rows.

    Valid means (a) on every shared edge the two balls' crossings do not
    interleave, which is exactly gap >= 0 for the pair, and (b) no ball
    exceeds the tangency bound of its nearest non-adjacent face plane.
    Both tests read the cell tables K and H; a NaN gap or level fails them.
    A row's violation is its first overlapping edge, else its first ball past
    the face bound.  Densities add the sectors left to right, like ``sum``.
    """
    h = np.asarray(levels, dtype=float)
    first, second = cell.edge_index
    sectors = cell.sector_coefficients * (h * h)
    dens = np.add.accumulate(sectors, axis=1)[:, -1] / cell.volume
    gaps = np.log(cell.gram[first, second] / (2.0 * h[:, first] * h[:, second]))
    overlaps = ~(gaps >= -PAIR_TOL)
    overflows = ~(h <= cell.face_bounds + PAIR_TOL)
    violations = [None] * len(h)
    for r in np.flatnonzero(overlaps.any(axis=1) | overflows.any(axis=1)).tolist():
        if overlaps[r].any():
            k = int(np.argmax(overlaps[r]))
            i, j = cell.edges[k]
            violations[r] = Violation("pair", (i, j), (
                f"balls at vertices {i},{j} overlap along their edge "
                f"(gap {gaps[r, k]:.6g})"))
        else:
            v = int(np.argmax(overflows[r]))
            bound, face = cell.face_bound(v)
            violations[r] = Violation("face", (v, face), (
                f"ball at vertex {v} (level {h[r, v]:.12g}) crosses "
                f"non-adjacent face {face} (bound {bound:.12g})"))
    return Evaluation(sectors, dens, violations)


def _configurations(tiling, cell: Cell, levels, label=None) -> list[PackingConfiguration]:
    """Configurations of the rows of a positive level matrix."""
    h = np.asarray(levels, dtype=float)
    s = (1.0 - h * h) / (1.0 + h * h)
    return [
        PackingConfiguration(tiling, cell, tuple(a), tuple(row), label)
        for row, a in zip(h.tolist(), s.tolist())
    ]


def _reports(configs, ev: Evaluation) -> list[DensityReport]:
    """Density reports of evaluated configurations, or InvalidPackingError."""
    bad = next((v for v in ev.violations if v is not None), None)
    if bad is not None:
        raise InvalidPackingError(bad.detail)
    return [
        DensityReport(d, tuple(sectors), config.cell.volume, config)
        for config, sectors, d in zip(configs, ev.sectors.tolist(), ev.density.tolist())
    ]


def validate_packing(config: PackingConfiguration) -> Optional[Violation]:
    """None if valid, else the first Violation found (``evaluate``, m = 1)."""
    return evaluate(config.cell, (config.levels,)).violations[0]


def density(config: PackingConfiguration) -> DensityReport:
    """Sector-volume sum over the cell volume (packing density in one cell),
    from ``evaluate`` with m = 1; raises InvalidPackingError when invalid."""
    return _reports((config,), evaluate(config.cell, (config.levels,)))[0]


def sector_coefficient(cell: Cell, vertex: int) -> float:
    """C with Vol(B(h) ∩ cell) = C h^2 for every admissible level h."""
    return float(cell.sector_coefficients[vertex])


def balanced_levels(cell: Cell, edge) -> tuple[float, float]:
    """Tangent levels on the edge with equal sector volumes on both sides.

    With sector coefficients C_i, C_j and tangency 2 h_i h_j = kappa, equal
    volumes C_i h_i^2 = C_j h_j^2 fix the balanced state used as x = 0 of
    the sliding-tangency volume function.  GeometryError unless the pair is
    a cell edge, in either orientation.
    """
    i, j = edge
    if not (0 <= i < cell.n_vertices and j in cell.neighbors[i]):
        raise GeometryError(f"vertex pair {i},{j} is not an edge of {cell.schlafli}")
    kappa = cell.kappa(i, j)
    ci = sector_coefficient(cell, i)
    cj = sector_coefficient(cell, j)
    hi = math.sqrt(0.5 * kappa * math.sqrt(cj / ci))
    return hi, 0.5 * kappa / hi


def admissible_interval(cell: Cell, edge) -> tuple[float, float]:
    """Range of the tangency offset x before a ball meets a non-adjacent face.

    Positive x enlarges the ball at edge[0] by e^x (and shrinks the other by
    the same factor); the interval ends where either ball reaches its face
    bound.
    """
    return _offset_interval(cell, edge, *balanced_levels(cell, edge))


def _offset_interval(cell: Cell, edge, hi0: float, hj0: float) -> tuple[float, float]:
    """admissible_interval from the edge's balanced levels hi0, hj0."""
    i, j = edge
    hi_max, _ = cell.face_bound(i)
    hj_max, _ = cell.face_bound(j)
    return -math.log(hj_max / hj0), math.log(hi_max / hi0)


class AdmissibilityError(GeometryError):
    """Offset outside the face-bound interval of a sliding tangent pair."""

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


def volume_function(config: PackingConfiguration, edge, x: float) -> float:
    """V(x): summed sector volumes of a tangent pair slid by offset x.

    x is the hyperbolic distance of the contact point from the balanced
    point (positive toward edge[1]); the pair stays tangent while one ball
    grows by e^x and the other shrinks by e^-x, so V(x) = V(0) cosh(2x).
    Both sector volumes are recomputed geometrically (Heron) at the slid
    levels; NaN and infinite offsets fail the interval check.
    """
    i, j = edge
    cell = config.cell
    hi0, hj0 = balanced_levels(cell, (i, j))
    if abs(ball_gap(cell, config.levels, i, j)) > 1e-6:
        raise InvalidPackingError(
            f"volume function needs tangent balls on edge {i},{j}"
        )
    lo, hi = _offset_interval(cell, (i, j), hi0, hj0)
    if not (lo - DOMAIN_TOL <= x <= hi + DOMAIN_TOL):
        raise AdmissibilityError(
            f"offset x = {x:.12g} outside admissible interval "
            f"[{lo:.12g}, {hi:.12g}] for edge {i},{j}",
            interval=(lo, hi),
        )
    return _cell_sector_volume(cell, i, hi0 * math.exp(x)) + _cell_sector_volume(
        cell, j, hj0 * math.exp(-x)
    )


def contact_offset(config: PackingConfiguration, edge) -> float:
    """Offset x of the configuration's contact on the edge from balance."""
    i, _ = edge
    hi0, _ = balanced_levels(config.cell, edge)
    return math.log(config.levels[i] / hi0)


# ---------------------------------------------------------------------------
# One-parameter families


@dataclass(frozen=True)
class Family:
    """One-parameter configuration family driven by the anchors' type s.

    The anchor balls take type s, h = sqrt((1 - s) / (1 + s)).  Every other
    level follows from the tangency cascade: an ordered tuple of links
    (target, source, kappa / 2), each shrinking the target ball to
    min(h_target, kappa / (2 h_source)), with +inf off the anchors.
    """

    name: str
    tiling: SchlafliSymbol
    s_range: tuple[float, float]
    primary_edge: tuple[int, int]
    description: str
    anchors: tuple[int, ...]
    cascade: tuple[tuple[int, int, float], ...]

    def level_matrix(self, grid) -> np.ndarray:
        """(m, n) levels at the anchor types s of ``grid`` on the tiling's
        cell; GeometryError names the first s outside the family's range."""
        s = np.asarray(grid, dtype=float).reshape(-1)
        lo, hi = self.s_range
        inside = (lo - DOMAIN_TOL <= s) & (s <= hi + DOMAIN_TOL)
        if not inside.all():
            raise GeometryError(
                f"family {self.name!r} of {self.tiling.weights} needs "
                f"s in [{lo:.12g}, {hi:.12g}], got {s[np.argmin(inside)]:.12g}"
            )
        # one row per vertex, so each link reads and writes contiguous rows
        h = np.full((build_cell(self.tiling).n_vertices, s.size), math.inf)
        h[list(self.anchors)] = np.sqrt((1.0 - s) / (1.0 + s))
        for t, p, half_kappa in self.cascade:
            np.minimum(h[t], half_kappa / h[p], out=h[t])
        return h.T

    def levels(self, s: float) -> tuple[float, ...]:
        """Per-vertex levels at anchor type s (``level_matrix``, m = 1)."""
        return tuple(self.level_matrix(s)[0].tolist())

    def at(self, s: float, label: Optional[str] = None) -> PackingConfiguration:
        return configuration(self.tiling, self.levels(s), label=label)


def _partners(cell: Cell, v: int, kappa: float, pool) -> tuple[int, ...]:
    hits = tuple(u for u in pool if u != v and abs(cell.kappa(v, u) - kappa) < 1e-9)
    if not hits:
        raise GeometryError(f"no vertices at kappa {kappa} from {v}")
    return hits


def _cube_orbit(cell: Cell) -> tuple[int, ...]:
    """The inscribed-cube vertices of the dodecahedral cell (pair parameters
    2/3, 4/3, 2 only among themselves)."""
    cube = tuple(range(8))
    for i in cube:
        for j in cube:
            if i < j:
                k = cell.kappa(i, j)
                if min(abs(k - t) for t in (2.0 / 3.0, 4.0 / 3.0, 2.0)) > 1e-9:
                    raise GeometryError("unexpected inscribed-cube geometry")
    return cube


# Vertex roles: the pole is vertex 3 of every cell; ring, mates and anti are
# the pole's partners at the listed kappa within the cube orbit (its nearest
# vertices, its alternating-tetrad mates, its antipode through the center).
# The cube orbit is the inscribed cube of the dodecahedral cell, whose other
# twelve vertices are the outer role, and the whole cell otherwise.
_POLE = 3
_ROLE_KAPPAS = {
    (3, 3, 6): {"ring": 1.0},
    (3, 4, 4): {"ring": 1.0, "anti": 2.0},
    (4, 3, 6): {"ring": 2.0 / 3.0, "mates": 4.0 / 3.0, "anti": 2.0},
    (5, 3, 6): {"ring": 2.0 / 3.0, "mates": 4.0 / 3.0, "anti": 2.0},
}


def _roles(cell: Cell) -> dict[str, tuple[int, ...]]:
    n = cell.n_vertices
    cube = _cube_orbit(cell) if cell.schlafli.weights == (5, 3, 6) else tuple(range(n))
    roles = {
        "pole": (_POLE,),
        "cube": cube,
        "outer": tuple(v for v in range(n) if v not in cube),
    }
    for role, kappa in _ROLE_KAPPAS[cell.schlafli.weights].items():
        roles[role] = _partners(cell, _POLE, kappa, cube)
    return roles


# kappa of a dodecahedral edge; the cube family ends at the uniform state
# 2 h^2 = kappa
_KAPPA_536 = (3.0 - math.sqrt(5.0)) / 3.0

# Per tiling: (name, s_range, primary_edge, anchors, steps, description).
# Anchors and the (targets, sources) of each step are role names.  Steps run
# in order; each target links to the sources nearest to it (smallest kappa),
# so a ball ends up touching the largest of its nearest neighbours.
_CASCADES = {
    (3, 3, 6): (
        ("main", (0.0, 0.5), (3, 0), "pole", (("ring", "pole"),),
         "apex ball of type s, base balls tangent to it"),
    ),
    (3, 4, 4): (
        # the south pole meets the north ball through the center or the
        # equator balls, whichever comes first
        ("main", (-1.0 / 3.0, 1.0 / 3.0), (3, 0), "pole",
         (("ring anti", "pole"), ("anti", "ring")),
         "polar ball of type s, equator tangent, opposite pole grown to "
         "first contact"),
    ),
    (4, 3, 6): (
        # the opposite ball matches the anchor type until the contact
        # through the cell center forces it smaller
        ("polar", (-1.0 / 3.0, 0.5), (3, 0), "pole anti",
         (("anti", "pole"), ("ring mates", "pole anti")),
         "ball at one cube vertex of type s, neighbors tangent, opposite "
         "ball grown to first contact"),
        ("tetra", (0.2, 0.5), (3, 0), "pole mates", (("ring anti", "pole mates"),),
         "alternating vertex tetrad of type s, the other four balls tangent "
         "along the edges"),
    ),
    (5, 3, 6): (
        ("cube", (0.5, (2.0 - _KAPPA_536) / (2.0 + _KAPPA_536)), (3, 15), "cube",
         (("outer", "cube"),),
         "inscribed-cube orbit of type s, the twelve other balls tangent "
         "along the edges"),
        ("polar", (0.0, 0.5), (3, 15), "pole anti",
         (("ring mates", "pole anti"), ("outer", "cube")),
         "two antipodal cube balls of type s, remaining cube balls tangent "
         "to a pole, outer balls tangent to their largest neighbor"),
        ("tetra", (0.2, 0.5), (3, 15), "pole mates",
         (("ring anti", "pole mates"), ("outer", "pole mates")),
         "alternating cube tetrad of type s, the other cube balls tangent "
         "to it, outer balls tangent to the tetrad"),
        ("apex", (0.0, 0.2), (3, 15), "pole",
         (("ring mates", "pole"), ("anti", "mates"), ("outer", "cube")),
         "single anchor ball of type s with six derived types cascading "
         "through the tangency graph"),
    ),
}


def _links(cell: Cell, targets, sources):
    """(target, source, kappa / 2) for each target's nearest sources."""
    for t in targets:
        kappas = {p: cell.kappa(t, p) for p in sources}
        nearest = min(kappas.values())
        for p, kappa in kappas.items():
            if kappa <= nearest + 1e-9:
                yield t, p, 0.5 * kappa


def families(tiling) -> tuple[Family, ...]:
    """The cataloged one-parameter configuration families of a tiling."""
    symbol = as_symbol(tiling)
    if symbol.weights not in _CASCADES:
        raise GeometryError(
            f"no packing families for {symbol.weights}; supported: "
            f"{sorted(_CASCADES)}"
        )
    return _resolve_families(symbol.weights)


@lru_cache(maxsize=None)
def _resolve_families(weights) -> tuple[Family, ...]:
    """The declared families of a tiling, their steps resolved into links."""
    symbol = SchlafliSymbol(weights)
    cell = build_cell(symbol)
    roles = _roles(cell)

    def vertices(names: str) -> tuple[int, ...]:
        return tuple(v for role in names.split() for v in roles[role])

    fams = []
    for name, s_range, edge, anchor_roles, steps, description in _CASCADES[weights]:
        if edge not in cell.edges and edge[::-1] not in cell.edges:
            raise GeometryError(f"family {name!r} primary edge is not a cell edge")
        anchors = vertices(anchor_roles)
        cascade = tuple(
            link
            for targets, sources in steps
            for link in _links(cell, vertices(targets), vertices(sources))
        )
        if set(anchors) | {t for t, _, _ in cascade} != set(range(cell.n_vertices)):
            raise GeometryError(f"family {name!r} leaves a vertex without a level")
        fams.append(Family(name, symbol, s_range, edge, description, anchors, cascade))
    return tuple(fams)


def family(tiling, name: str) -> Family:
    fams = families(tiling)
    for fam in fams:
        if fam.name == name:
            return fam
    raise GeometryError(
        f"unknown family {name!r} for {as_symbol(tiling).weights}; "
        f"available: {[f.name for f in fams]}"
    )


def sweep(tiling, fam, grid) -> list[DensityReport]:
    """Density reports along an s-grid of one configuration family, from one
    ``evaluate`` over the grid's level matrix."""
    if not isinstance(fam, Family):
        fam = family(tiling, fam)
    elif fam.tiling != as_symbol(tiling):
        raise GeometryError(
            f"family {fam.name!r} belongs to {fam.tiling.weights}, "
            f"not to {as_symbol(tiling).weights}"
        )
    cell = build_cell(fam.tiling)
    levels = fam.level_matrix(grid)
    return _reports(_configurations(fam.tiling, cell, levels), evaluate(cell, levels))


# ---------------------------------------------------------------------------
# Named arrangements

_CATALOG_STATES = {
    (3, 3, 6): (("B1", "main", 0.5), ("B2", "main", 0.0)),
    (3, 4, 4): (
        ("B1", "main", 1.0 / 3.0),
        ("B2", "main", 0.0),
        ("B3", "main", -1.0 / 3.0),
    ),
    (4, 3, 6): (
        ("B1", "polar", 0.5),
        ("B2", "polar", 0.0),
        ("B3", "tetra", 0.2),
        ("B4", "polar", -1.0 / 3.0),
    ),
    (5, 3, 6): (
        ("B1", "cube", None),  # upper end of the cube family (uniform state)
        ("B2", "cube", 0.5),
        ("B3", "polar", 0.0),
        ("B4", "tetra", 0.2),
        ("B5", "apex", 0.0),
    ),
}


def catalog(tiling) -> list[PackingConfiguration]:
    """The named arrangements of a tiling in their published order."""
    symbol = as_symbol(tiling)
    try:
        states = _CATALOG_STATES[symbol.weights]
    except KeyError:
        raise GeometryError(
            f"no arrangement catalog for {symbol.weights}; supported: "
            f"{sorted(_CATALOG_STATES)}"
        ) from None
    configs = []
    for label, fam_name, s in states:
        fam = family(symbol, fam_name)
        if s is None:
            s = fam.s_range[1]
        configs.append(fam.at(s, label=label))
    return configs


def certify_optimum(tiling) -> list[DensityReport]:
    """Maximal-density arrangement set among the catalog states.

    Every family endpoint has the levels of a catalog state, so the catalog
    is the whole candidate set; reports within 1e-6 of the maximum are
    returned as joint optima, in catalog order.
    """
    configs = catalog(tiling)
    cell = configs[0].cell
    reports = _reports(configs, evaluate(cell, [c.levels for c in configs]))
    best = max(r.density for r in reports)
    return [r for r in reports if r.density >= best - 1e-6]
