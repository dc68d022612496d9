"""Horoball packing configurations on fully asymptotic Coxeter cells.

A configuration is a cell and one horoball level h per ideal vertex; the
type s = (1 - h^2) / (1 + h^2) of each ball is read from its Horoball.  Its
density is the total sector volume C_v h_v^2 inside the cell divided by the
cell volume.  Each supported tiling carries a small set of one-parameter
configuration families: the anchor ball's type parameter s drives every
other level through a cascade of declared tangency steps (the largest
horoball determines the rest), and the family is valid on the s-interval
where no ball crosses a non-adjacent face and no shared-edge pair overlaps.
Each family holds its named arrangements, the endpoint and branch-point
states of Table 2, as (label, s) pairs; ``catalog`` lists them in label
order.

One evaluator, ``evaluate``, takes an (m, n) level matrix, one configuration
per row, and returns the sector volumes C_v h_v^2, the densities and each
row's first violation.  ``Family.level_matrix(grid)`` runs a family's cascade
over an s-grid on its own cell, so ``sweep`` prices the grid in one call;
``Family.levels(s)``, ``validate_packing`` and ``density`` are m = 1 views.
A cascade runs step by step: each step is one table of kappa / 2 from its
targets to its sources, and one gather, divide and minimum over the s-grid.
The sliding-tangency law of a tangent pair, ``volume_function``, reads one
row per directed edge from the cell's ``edge_law`` table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .coxeter import POLE, Cell, build_cell
from .horoball import (
    FACE_TOL,
    Horoball,
    _real,
    horoball_level,
    ray_crossing,
    vertex_sector_volume,
)
from .lorentz import GeometryError, ProjectivePoint
from .volume import _index, _integer

# slack on pair gaps when validating (face bounds take horoball.FACE_TOL), and
# the gap size below which two balls are recorded as tangent
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

    ``levels`` holds the chart Busemann level h of each vertex's ball, read
    by ``_real``; the type s of a ball is ``horoball(v).s``.  GeometryError
    unless there is one real level per vertex.  The structure can represent
    invalid candidates (NaN or non-positive levels); validate_packing checks.
    """

    cell: Cell
    levels: tuple[float, ...]
    label: Optional[str] = None

    def __post_init__(self):
        n = self.cell.n_vertices
        if len(self.levels) != n:
            raise GeometryError(
                f"{self.tiling} needs {n} levels, got {len(self.levels)}"
            )
        # from a list: tuple(map(...)) regrows its tuple, raising sweep's peak RSS
        object.__setattr__(self, "levels", tuple([_real(h) for h in self.levels]))

    @property
    def tiling(self) -> tuple[int, int, int]:
        return self.cell.tiling

    def horoball(self, vertex: int) -> Horoball:
        v = _index(vertex, self.cell.n_vertices, "vertex")
        return horoball_level(self.cell.vertices[v], self.levels[v])

    @cached_property
    def tangencies(self) -> tuple[Tangency, ...]:
        """Tangent vertex pairs and their contact points on the joining line.

        Every vertex pair of ``all_pair_gaps`` is read (axis tangencies
        between non-adjacent vertices included); computed when first read.
        """
        return tuple(
            Tangency(
                pair=(i, j),
                contact=ray_crossing(self.horoball(i), self.cell.vertices[j]),
            )
            for (i, j), gap in all_pair_gaps(self).items()
            if abs(gap) <= TANGENCY_TOL
        )


@dataclass(frozen=True)
class DensityReport:
    density: float
    sector_volumes: tuple[float, ...]
    config: PackingConfiguration


def ball_gap(cell: Cell, levels, i: int, j: int) -> float:
    """Signed boundary distance of balls i, j along their joining line.

    log(kappa / (2 h_i h_j)) with kappa = -<c_i, c_j>: zero at tangency,
    negative when the balls overlap.  Defined for any two distinct vertices,
    not just cell edges; GeometryError names a pair outside the cell or a
    level that is not positive and finite (a NaN level gives NaN).
    """
    n = cell.n_vertices
    i, j = _integer(i, "vertex index"), _integer(j, "vertex index")
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise GeometryError(
            f"vertex pair {i},{j} is not two distinct vertices of {cell.tiling}"
        )
    return _pair_gap(float(cell.gram[i, j]), levels, i, j)


def _pair_gap(kappa: float, levels, i: int, j: int) -> float:
    """log(kappa / (2 h_i h_j)) of two checked vertex indices; GeometryError
    names a level that is not positive and finite."""
    for v in (i, j):
        if levels[v] <= 0.0 or levels[v] == math.inf:
            raise GeometryError(
                f"level {levels[v]!r} at vertex {v} is not positive and finite"
            )
    return math.log(kappa / (2.0 * levels[i] * levels[j]))


def _gaps(cell: Cell, h: np.ndarray, first, second) -> np.ndarray:
    """log(K / (2 h h)) of the pairs (first[k], second[k]) in each row of h."""
    return np.log(cell.gram[first, second] / (2.0 * h[:, first] * h[:, second]))


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; GeometryError names ``what`` unless
    their dtype is numeric (numpy would read numeric strings)."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf":
        raise GeometryError(f"{what} must be real numbers, got dtype {a.dtype}")
    return np.asarray(a, dtype=float)


def all_pair_gaps(config: PackingConfiguration) -> dict[tuple[int, int], float]:
    """Gap of every vertex pair; diagnostic (validation is edge-scoped)."""
    first, second = np.triu_indices(config.cell.n_vertices, 1)
    gaps = _gaps(config.cell, np.array([config.levels]), first, second)[0]
    return dict(zip(zip(first.tolist(), second.tolist()), gaps.tolist()))


def configuration(tiling, levels, label: Optional[str] = None) -> PackingConfiguration:
    """Build a configuration from finite, positive per-vertex levels, each
    a real number."""
    config = PackingConfiguration(build_cell(tiling), tuple(levels), label)
    if not all(map(math.isfinite, config.levels)):
        raise GeometryError(f"horoball levels must be finite, got {config.levels}")
    if min(config.levels) <= 0.0:
        raise GeometryError("horoball levels must be positive")
    return config


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
    GeometryError unless the levels form an (m, n) array of numbers, n the
    cell's vertex count.
    """
    h = _float_array(levels, "levels")
    if h.ndim != 2 or h.shape[1] != cell.n_vertices:
        raise GeometryError(
            f"{cell.tiling} needs an (m, {cell.n_vertices}) level "
            f"array, got shape {h.shape}"
        )
    first, second = cell.edge_index
    sectors = cell.sector_coefficients * (h * h)
    dens = np.add.accumulate(sectors, axis=1)[:, -1] / cell.volume
    gaps = _gaps(cell, h, first, second)
    overlaps = ~(gaps >= -PAIR_TOL)
    overflows = ~(h <= cell.face_bounds + FACE_TOL)
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


def _require_valid(ev: Evaluation) -> None:
    """InvalidPackingError naming the first violation of ``ev``, if any."""
    bad = next((v for v in ev.violations if v is not None), None)
    if bad is not None:
        raise InvalidPackingError(bad.detail)


def _reports(configs, ev: Evaluation) -> list[DensityReport]:
    """Density reports of evaluated configurations, or InvalidPackingError."""
    _require_valid(ev)
    return [
        DensityReport(d, tuple(sectors), config)
        for config, sectors, d in zip(configs, ev.sectors.tolist(), ev.density.tolist())
    ]


def validate_packing(config: PackingConfiguration) -> Optional[Violation]:
    """None if valid, else the first Violation found (``evaluate``, m = 1)."""
    return evaluate(config.cell, (config.levels,)).violations[0]


def density(config: PackingConfiguration) -> DensityReport:
    """Sector-volume sum over the cell volume (packing density in one cell),
    from ``evaluate`` with m = 1; raises InvalidPackingError when invalid."""
    return _reports((config,), evaluate(config.cell, (config.levels,)))[0]


def _edge_row(cell: Cell, edge) -> tuple[int, int, tuple]:
    """The int indices of a directed edge and its row of ``Cell.edge_law``.

    Both indices are read by ``_integer`` before the lookup, since a float
    pair such as (0.0, 1.0) hashes like (0, 1); GeometryError unless the
    pair is a cell edge, in either orientation.
    """
    i, j = edge
    i, j = _integer(i, "vertex index"), _integer(j, "vertex index")
    row = cell.edge_law.get((i, j))
    if row is None:
        raise GeometryError(f"vertex pair {i},{j} is not an edge of {cell.tiling}")
    return i, j, row


def balanced_levels(cell: Cell, edge) -> tuple[float, float]:
    """Tangent levels on the edge with equal sector volumes on both sides.

    With sector coefficients C_i, C_j and tangency 2 h_i h_j = kappa, equal
    volumes C_i h_i^2 = C_j h_j^2 fix the balanced state used as x = 0 of
    the sliding-tangency volume function.  Read from the edge's row of
    ``Cell.edge_law``; GeometryError unless the pair is a cell edge, in
    either orientation.
    """
    _, _, (hi0, hj0, _, _, _) = _edge_row(cell, edge)
    return hi0, hj0


def admissible_interval(cell: Cell, edge) -> tuple[float, float]:
    """Range of the tangency offset x before a ball meets a non-adjacent face.

    Positive x enlarges the ball at edge[0] by e^x (and shrinks the other by
    the same factor); the interval ends where either ball reaches its face
    bound.  Read from the edge's row of ``Cell.edge_law``.
    """
    _, _, (_, _, lo, hi, _) = _edge_row(cell, edge)
    return lo, hi


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
    The law needs no per-call geometry: the balanced levels, the admissible
    interval and kappa are one row of the cell's ``edge_law`` table, and
    both sector volumes are priced at the slid levels by
    vertex_sector_volume (C_v h^2).  x is read like a level, so anything
    but a real number raises GeometryError; NaN and infinite offsets fail
    the interval check, and a NaN level fails the tangency check.
    """
    i, j = edge
    x = _real(x, "offset x")
    cell = config.cell
    i, j, (hi0, hj0, lo, hi, kappa) = _edge_row(cell, (i, j))
    if not abs(_pair_gap(kappa, config.levels, i, j)) <= 1e-6:
        raise InvalidPackingError(f"volume function needs tangent balls on edge {i},{j}")
    if not (lo - DOMAIN_TOL <= x <= hi + DOMAIN_TOL):
        raise AdmissibilityError(
            f"offset x = {x:.12g} outside admissible interval "
            f"[{lo:.12g}, {hi:.12g}] for edge {i},{j}",
            interval=(lo, hi),
        )
    return vertex_sector_volume(cell, i, hi0 * math.exp(x)) + vertex_sector_volume(
        cell, j, hj0 * math.exp(-x)
    )


def contact_offset(config: PackingConfiguration, edge) -> float:
    """Offset x of the configuration's contact on the edge from balance;
    GeometryError unless the level at edge[0] is positive and finite."""
    i, _, (hi0, _, _, _, _) = _edge_row(config.cell, edge)
    if not 0.0 < config.levels[i] < math.inf:
        raise GeometryError(
            f"level {config.levels[i]!r} at vertex {i} is not positive and finite"
        )
    return math.log(config.levels[i] / hi0)


# ---------------------------------------------------------------------------
# One-parameter families


@dataclass(frozen=True, eq=False)
class Family:
    """One-parameter configuration family driven by the anchors' type s.

    The anchor balls take type s, h = sqrt((1 - s) / (1 + s)).  Every other
    level follows from the tangency cascade, one (targets, sources,
    half_kappa) table per declared step: ``half_kappa[r, c]`` is kappa / 2 of
    ``targets[r]`` and ``sources[c]``, +inf unless that source is among the
    target's nearest.  A step shrinks each target ball to the minimum of its
    level and half_kappa / h over the sources, with +inf off the anchors.
    Every source is an anchor or an earlier target, so its level is finite
    and an +inf entry never wins.  ``states`` holds the family's named
    arrangements as (label, s) pairs.  The tiling is read from the family's
    cell.  Families compare by identity.
    """

    name: str
    cell: Cell
    s_range: tuple[float, float]
    primary_edge: tuple[int, int]
    anchors: tuple[int, ...]
    cascade: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    states: tuple[tuple[str, float], ...]

    @property
    def tiling(self) -> tuple[int, int, int]:
        return self.cell.tiling

    def level_matrix(self, grid) -> np.ndarray:
        """(m, n) levels at the anchor types s of ``grid`` on the family's
        cell; GeometryError names the first s outside the family's range."""
        s = _float_array(grid, "family type s").reshape(-1)
        lo, hi = self.s_range
        inside = (lo - DOMAIN_TOL <= s) & (s <= hi + DOMAIN_TOL)
        if not inside.all():
            raise GeometryError(
                f"family {self.name!r} of {self.tiling} needs "
                f"s in [{lo:.12g}, {hi:.12g}], got {s[np.argmin(inside)]:.12g}"
            )
        # one row per vertex, so each step gathers whole rows
        h = np.full((self.cell.n_vertices, s.size), math.inf)
        h[list(self.anchors)] = np.sqrt((1.0 - s) / (1.0 + s))
        for t, p, half_kappa in self.cascade:
            h[t] = np.minimum(h[t], (half_kappa[:, :, None] / h[p]).min(axis=1))
        return h.T

    def levels(self, s: float) -> tuple[float, ...]:
        """Per-vertex levels at anchor type s (``level_matrix``, m = 1)."""
        return tuple(self.level_matrix(s)[0].tolist())

    def at(self, s: float, label: Optional[str] = None) -> PackingConfiguration:
        return configuration(self.tiling, self.levels(s), label=label)


# Vertex roles: the pole, the cube (vertices 0-7 of the dodecahedral cell,
# the whole cell otherwise) and the outer vertices, and ring, mates and anti:
# the orbits on the cube of the symmetries that fix the pole and the cube,
# ranked by the pole's row of K (its nearest vertices, its alternating-tetrad
# mates, its antipode through the center), with no mates when there are two.
_RANKED_ROLES = {1: ("ring",), 2: ("ring", "anti"), 3: ("ring", "mates", "anti")}


def _roles(cell: Cell) -> dict[str, tuple[int, ...]]:
    n, g = cell.n_vertices, cell.symmetries
    k = 8 if cell.tiling == (5, 3, 6) else n
    fixing = g[(g[:, POLE] == POLE) & (g[:, :k] < k).all(axis=1)]
    orbits = {tuple(sorted(set(fixing[:, v].tolist()))) for v in range(k) if v != POLE}
    ranked = sorted(orbits, key=lambda orbit: cell.gram[POLE, orbit[0]])
    roles = {"pole": (POLE,), "cube": tuple(range(k)), "outer": tuple(range(k, n))}
    roles.update(zip(_RANKED_ROLES[len(ranked)], ranked))
    return roles


# kappa of a dodecahedral edge, and the type s of the uniform state
# 2 h^2 = kappa, where the cube family ends
_KAPPA_536 = (3.0 - math.sqrt(5.0)) / 3.0
_UNIFORM_536 = (2.0 - _KAPPA_536) / (2.0 + _KAPPA_536)

# Per tiling: (name, s_range, primary_edge, anchors, steps, states).
# Anchors and the (targets, sources) of each step are role names.  Steps run
# in order; each target takes the sources nearest to it (smallest kappa), so
# a ball ends up touching the largest of its nearest neighbours.  States are
# the family's named arrangements as (label, s).
_CASCADES = {
    (3, 3, 6): (
        ("main", (0.0, 0.5), (3, 0), "pole", (("ring", "pole"),),
         (("B1", 0.5), ("B2", 0.0))),
    ),
    (3, 4, 4): (
        # the south pole meets the north ball through the center or the
        # equator balls, whichever comes first
        ("main", (-1.0 / 3.0, 1.0 / 3.0), (3, 0), "pole",
         (("ring anti", "pole"), ("anti", "ring")),
         (("B1", 1.0 / 3.0), ("B2", 0.0), ("B3", -1.0 / 3.0))),
    ),
    (4, 3, 6): (
        # the opposite ball matches the anchor type until the contact
        # through the cell center forces it smaller
        ("polar", (-1.0 / 3.0, 0.5), (3, 0), "pole anti",
         (("anti", "pole"), ("ring mates", "pole anti")),
         (("B1", 0.5), ("B2", 0.0), ("B4", -1.0 / 3.0))),
        ("tetra", (0.2, 0.5), (3, 0), "pole mates", (("ring anti", "pole mates"),),
         (("B3", 0.2),)),
    ),
    (5, 3, 6): (
        ("cube", (0.5, _UNIFORM_536), (3, 15), "cube", (("outer", "cube"),),
         (("B1", _UNIFORM_536), ("B2", 0.5))),
        ("polar", (0.0, 0.5), (3, 15), "pole anti",
         (("ring mates", "pole anti"), ("outer", "cube")),
         (("B3", 0.0),)),
        ("tetra", (0.2, 0.5), (3, 15), "pole mates",
         (("ring anti", "pole mates"), ("outer", "pole mates")),
         (("B4", 0.2),)),
        # the anchor and five derived types; at s = 0.2 the levels are B4's
        ("apex", (0.0, 0.2), (3, 15), "pole",
         (("ring mates", "pole"), ("anti", "mates"), ("outer", "cube")),
         (("B5", 0.0),)),
    ),
}


def families(tiling) -> tuple[Family, ...]:
    """The cataloged one-parameter configuration families of a tiling."""
    key = tuple(_integer(w, "Schlafli weight") for w in tiling)
    if key not in _CASCADES:
        raise GeometryError(
            f"no packing families for {key}; supported: {sorted(_CASCADES)}"
        )
    return _resolve_families(key)


@lru_cache(maxsize=None)
def _resolve_families(tiling) -> tuple[Family, ...]:
    """The declared families of a tiling, each step resolved into its
    targets, sources and kappa / 2 table (+inf off a target's nearest sources)."""
    cell = build_cell(tiling)
    roles = _roles(cell)

    def vertices(names: str) -> np.ndarray:
        return np.array([v for role in names.split() for v in roles[role]])

    fams = []
    for name, s_range, edge, anchor_roles, steps, states in _CASCADES[tiling]:
        if edge not in cell.edges and edge[::-1] not in cell.edges:
            raise GeometryError(f"family {name!r} primary edge is not a cell edge")
        anchors = tuple(vertices(anchor_roles).tolist())
        cascade = []
        for target_roles, source_roles in steps:
            targets, sources = vertices(target_roles), vertices(source_roles)
            kappas = cell.gram[np.ix_(targets, sources)]
            nearest = kappas == kappas.min(axis=1, keepdims=True)
            step = (targets, sources, np.where(nearest, 0.5 * kappas, math.inf))
            for table in step:
                table.flags.writeable = False
            cascade.append(step)
        derived = {v for targets, _, _ in cascade for v in targets.tolist()}
        if set(anchors) | derived != set(range(cell.n_vertices)):
            raise GeometryError(f"family {name!r} leaves a vertex without a level")
        fams.append(
            Family(name, cell, s_range, edge, anchors, tuple(cascade), states)
        )
    return tuple(fams)


def family(tiling, name: str) -> Family:
    fams = families(tiling)
    for fam in fams:
        if fam.name == name:
            return fam
    raise GeometryError(
        f"unknown family {name!r} for {fams[0].tiling}; "
        f"available: {[f.name for f in fams]}"
    )


def sweep(tiling, fam, grid) -> list[DensityReport]:
    """Density reports along an s-grid of one configuration family, from one
    ``evaluate`` over the grid's level matrix."""
    if not isinstance(fam, Family):
        fam = family(tiling, fam)
    elif fam.cell is not build_cell(tiling):
        raise GeometryError(
            f"family {fam.name!r} belongs to {fam.tiling}, "
            f"not to {build_cell(tiling).tiling}"
        )
    levels = fam.level_matrix(grid)
    configs = [PackingConfiguration(fam.cell, row) for row in levels.tolist()]
    return _reports(configs, evaluate(fam.cell, levels))


# ---------------------------------------------------------------------------
# Named arrangements


def catalog(tiling) -> list[PackingConfiguration]:
    """The named states of every family of a tiling, in label order (the
    published order)."""
    states = [(label, s, fam) for fam in families(tiling) for label, s in fam.states]
    states.sort(key=lambda state: state[0])
    return [fam.at(s, label=label) for label, s, fam in states]


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
