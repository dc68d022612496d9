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
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .coxeter import Cell, SchlafliSymbol, as_symbol, build_cell
from .horoball import (
    FaceOverflowError,
    Horoball,
    horoball_level,
    ray_crossing,
    vertex_sector_volume,
)
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
    assignment = tuple((1.0 - h * h) / (1.0 + h * h) for h in levels)
    return PackingConfiguration(
        tiling=symbol,
        cell=cell,
        assignment=assignment,
        levels=levels,
        label=label,
    )


def validate_packing(config: PackingConfiguration) -> Optional[Violation]:
    """None if valid, else the first Violation found.

    Valid means (a) on every shared edge the two balls' crossings do not
    interleave, which is exactly gap >= 0 for the pair, and (b) no ball
    exceeds the tangency bound of its nearest non-adjacent face plane.
    Both tests read the cell tables K and H; a NaN gap or level fails them.
    """
    cell, levels = config.cell, config.levels
    h = np.array(levels)
    first, second = _edge_index(cell)
    gaps = np.log(cell.gram[first, second] / (2.0 * h[first] * h[second]))
    overlaps = np.flatnonzero(~(gaps >= -PAIR_TOL))
    if overlaps.size:
        k = overlaps[0]
        i, j = cell.edges[k]
        return Violation(
            kind="pair",
            indices=(i, j),
            detail=f"balls at vertices {i},{j} overlap along their edge "
            f"(gap {gaps[k]:.6g})",
        )
    overflows = np.flatnonzero(~(h <= cell.face_bounds + PAIR_TOL))
    if overflows.size:
        v = int(overflows[0])
        bound, face_idx = cell.face_bound(v)
        return Violation(
            kind="face",
            indices=(v, face_idx),
            detail=f"ball at vertex {v} (level {levels[v]:.12g}) crosses "
            f"non-adjacent face {face_idx} (bound {bound:.12g})",
        )
    return None


def density(config: PackingConfiguration) -> DensityReport:
    """Sector-volume sum over the cell volume (packing density in one cell).

    Sector volumes come from the closed-form law Vol(B ∩ P) = C_v h_v^2.
    """
    violation = validate_packing(config)
    if violation is not None:
        raise InvalidPackingError(violation.detail)
    h = np.array(config.levels)
    sectors = tuple((_sector_coefficients(config.cell) * h**2).tolist())
    return DensityReport(
        density=sum(sectors) / config.cell.volume,
        sector_volumes=sectors,
        cell_volume=config.cell.volume,
        config=config,
    )


def sector_coefficient(cell: Cell, vertex: int) -> float:
    """C with Vol(B(h) ∩ cell) = C h^2 for every admissible level h."""
    return float(_sector_coefficients(cell)[vertex])


# per-cell packing tables, filled on first use so build_cell does not pay for them
_COEFFICIENTS: "weakref.WeakKeyDictionary[Cell, np.ndarray]" = weakref.WeakKeyDictionary()
_EDGE_INDEX: "weakref.WeakKeyDictionary[Cell, tuple]" = weakref.WeakKeyDictionary()


def _sector_coefficients(cell: Cell) -> np.ndarray:
    """Every vertex's C, each derived once from a Heron sector volume."""
    table = _COEFFICIENTS.get(cell)
    if table is None:
        table = np.array([_heron_coefficient(cell, v) for v in range(cell.n_vertices)])
        table.setflags(write=False)
        _COEFFICIENTS[cell] = table
    return table


def _heron_coefficient(cell: Cell, vertex: int) -> float:
    h = 0.5 * min(math.sqrt(0.5 * cell.kappa(vertex, j)) for j in cell.neighbors[vertex])
    ball = horoball_level(cell.vertices[vertex], h)
    return vertex_sector_volume(ball, cell, vertex) / (h * h)


def _edge_index(cell: Cell) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint index arrays of the cell edges, in ``cell.edges`` order."""
    index = _EDGE_INDEX.get(cell)
    if index is None:
        index = _EDGE_INDEX[cell] = tuple(np.array(cell.edges).T)
    return index


def balanced_levels(cell: Cell, edge) -> tuple[float, float]:
    """Tangent levels on the edge with equal sector volumes on both sides.

    With sector coefficients C_i, C_j and tangency 2 h_i h_j = kappa, equal
    volumes C_i h_i^2 = C_j h_j^2 fix the balanced state used as x = 0 of
    the sliding-tangency volume function.
    """
    i, j = edge
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
    i, j = edge
    hi0, hj0 = balanced_levels(cell, edge)
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
    Both sector volumes are recomputed geometrically at the slid levels.
    """
    i, j = edge
    cell = config.cell
    if abs(ball_gap(cell, config.levels, i, j)) > 1e-6:
        raise InvalidPackingError(
            f"volume function needs tangent balls on edge {i},{j}"
        )
    lo, hi = admissible_interval(cell, (i, j))
    if not (lo - DOMAIN_TOL <= x <= hi + DOMAIN_TOL):
        raise AdmissibilityError(
            f"offset x = {x:.12g} outside admissible interval "
            f"[{lo:.12g}, {hi:.12g}] for edge {i},{j}",
            interval=(lo, hi),
        )
    hi0, hj0 = balanced_levels(cell, (i, j))
    ball_i = horoball_level(cell.vertices[i], hi0 * math.exp(x))
    ball_j = horoball_level(cell.vertices[j], hj0 * math.exp(-x))
    return vertex_sector_volume(ball_i, cell, i) + vertex_sector_volume(ball_j, cell, j)


def contact_offset(config: PackingConfiguration, edge) -> float:
    """Offset x of the configuration's contact on the edge from balance."""
    i, _ = edge
    hi0, _ = balanced_levels(config.cell, edge)
    return math.log(config.levels[i] / hi0)


# ---------------------------------------------------------------------------
# One-parameter families


def _hs(s: float) -> float:
    return math.sqrt((1.0 - s) / (1.0 + s))


@dataclass(frozen=True)
class Family:
    """One-parameter configuration family driven by the anchor ball's s."""

    name: str
    tiling: SchlafliSymbol
    s_range: tuple[float, float]
    anchor: int
    primary_edge: tuple[int, int]
    description: str
    rule: Callable[[Cell, float], tuple[float, ...]]

    def levels(self, cell: Cell, s: float) -> tuple[float, ...]:
        lo, hi = self.s_range
        if not (lo - DOMAIN_TOL <= s <= hi + DOMAIN_TOL):
            raise GeometryError(
                f"family {self.name!r} of {self.tiling.weights} needs "
                f"s in [{lo:.12g}, {hi:.12g}], got {s:.12g}"
            )
        return self.rule(cell, s)

    def at(self, s: float, label: Optional[str] = None) -> PackingConfiguration:
        cell = build_cell(self.tiling)
        return configuration(self.tiling, self.levels(cell, s), label=label)


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


def _families_336(symbol: SchlafliSymbol) -> tuple[Family, ...]:
    def rule(cell: Cell, s: float) -> tuple[float, ...]:
        # apex 3 drives; base balls tangent to it along the lateral edges
        h3 = _hs(s)
        base = 0.5 * cell.kappa(0, 3) / h3
        return (base, base, base, h3)

    return (
        Family(
            name="main",
            tiling=symbol,
            s_range=(0.0, 0.5),
            anchor=3,
            primary_edge=(3, 0),
            description="apex ball of type s, base balls tangent to it",
            rule=rule,
        ),
    )


def _families_344(symbol: SchlafliSymbol) -> tuple[Family, ...]:
    def rule(cell: Cell, s: float) -> tuple[float, ...]:
        # north pole 3 drives; equator tangent to it; south pole grows to
        # the first contact (equator balls, or the north ball through the
        # center along the polar axis)
        h3 = _hs(s)
        he = 0.5 * cell.kappa(0, 3) / h3
        h5 = min(0.5 * cell.kappa(0, 5) / he, 0.5 * cell.kappa(3, 5) / h3)
        return (he, he, he, h3, he, h5)

    return (
        Family(
            name="main",
            tiling=symbol,
            s_range=(-1.0 / 3.0, 1.0 / 3.0),
            anchor=3,
            primary_edge=(3, 0),
            description="polar ball of type s, equator tangent, opposite "
            "pole grown to first contact",
            rule=rule,
        ),
    )


def _families_436(symbol: SchlafliSymbol) -> tuple[Family, ...]:
    # vertex roles depend only on the cell: look them up once, not per s
    cell = build_cell(symbol)
    pole = 3
    anti = _partners(cell, pole, 2.0, range(cell.n_vertices))[0]
    upper = cell.neighbors[pole]
    lower = cell.neighbors[anti]
    # alternating vertex tetrad of the cube containing the pole
    tetra = (pole,) + _partners(cell, pole, 4.0 / 3.0, range(cell.n_vertices))

    def polar_rule(cell: Cell, s: float) -> tuple[float, ...]:
        h3 = _hs(s)
        hu = 0.5 * cell.kappa(pole, upper[0]) / h3
        # the opposite ball matches the anchor type until the contact
        # through the cell center forces it smaller
        h7 = min(h3, 0.5 * cell.kappa(pole, anti) / h3)
        hl = 0.5 * cell.kappa(anti, lower[0]) / h7
        levels = [0.0] * cell.n_vertices
        levels[pole], levels[anti] = h3, h7
        for u in upper:
            levels[u] = hu
        for u in lower:
            levels[u] = hl
        return tuple(levels)

    def tetra_rule(cell: Cell, s: float) -> tuple[float, ...]:
        # the tetrad shares the anchor type
        ht = _hs(s)
        other = 0.5 * cell.kappa(pole, upper[0]) / ht
        return tuple(ht if v in tetra else other for v in range(cell.n_vertices))

    return (
        Family(
            name="polar",
            tiling=symbol,
            s_range=(-1.0 / 3.0, 0.5),
            anchor=3,
            primary_edge=(3, 0),
            description="ball at one cube vertex of type s, neighbors "
            "tangent, opposite ball grown to first contact",
            rule=polar_rule,
        ),
        Family(
            name="tetra",
            tiling=symbol,
            s_range=(0.2, 0.5),
            anchor=3,
            primary_edge=(3, 0),
            description="alternating vertex tetrad of type s, the other "
            "four balls tangent along the edges",
            rule=tetra_rule,
        ),
    )


def _families_536(symbol: SchlafliSymbol) -> tuple[Family, ...]:
    # vertex roles depend only on the cell: look them up once, not per s
    cell = build_cell(symbol)
    cube = _cube_orbit(cell)
    pole = 3
    anti = _partners(cell, pole, 2.0, cube)[0]
    mates = _partners(cell, pole, 4.0 / 3.0, cube)  # pole's tetrad mates
    ring = _partners(cell, pole, 2.0 / 3.0, cube)
    tetra = {pole} | set(mates)
    caps = set(cell.neighbors[pole]) | set(cell.neighbors[anti])
    outer = tuple(
        (v, tuple(u for u in cell.neighbors[v] if u in cube))
        for v in range(8, cell.n_vertices)
    )

    # kappa on dodecahedral edges; cube-orbit pairs use 2/3 and 4/3
    def edge_kappa(cell: Cell) -> float:
        return cell.kappa(*cell.edges[0])

    def cube_rule(cell: Cell, s: float) -> tuple[float, ...]:
        ke = edge_kappa(cell)
        h = _hs(s)
        hn = 0.5 * ke / h
        return tuple(h if v in cube else hn for v in range(cell.n_vertices))

    def polar_rule(cell: Cell, s: float) -> tuple[float, ...]:
        ke = edge_kappa(cell)
        hp = _hs(s)
        hr = 0.5 * (2.0 / 3.0) / hp  # ring balls touch a pole between cells
        levels = [0.0] * cell.n_vertices
        for v in range(cell.n_vertices):
            if v in (pole, anti):
                levels[v] = hp
            elif v in cube:
                levels[v] = hr
            elif v in caps:
                levels[v] = 0.5 * ke / hp
            else:
                levels[v] = 0.5 * ke / hr
        return tuple(levels)

    def tetra_rule(cell: Cell, s: float) -> tuple[float, ...]:
        ke = edge_kappa(cell)
        ht = _hs(s)
        hc = 0.5 * (2.0 / 3.0) / ht
        levels = [0.0] * cell.n_vertices
        for v in range(cell.n_vertices):
            if v in tetra:
                levels[v] = ht
            elif v in cube:
                levels[v] = hc
            else:
                levels[v] = 0.5 * ke / ht  # tangent to the tetrad neighbor
        return tuple(levels)

    def apex_rule(cell: Cell, s: float) -> tuple[float, ...]:
        ke = edge_kappa(cell)
        h3 = _hs(s)
        levels = [0.0] * cell.n_vertices
        levels[pole] = h3
        for v in mates:
            levels[v] = 0.5 * (4.0 / 3.0) / h3
        levels[anti] = 0.5 * (2.0 / 3.0) / levels[mates[0]]
        for v in ring:
            levels[v] = 0.5 * (2.0 / 3.0) / h3
        for v, cube_neighbors in outer:
            # each outer ball touches the larger of its two cube neighbors
            levels[v] = 0.5 * ke / max(levels[u] for u in cube_neighbors)
        return tuple(levels)

    s_star = (2.0 - (3.0 - math.sqrt(5.0)) / 3.0) / (2.0 + (3.0 - math.sqrt(5.0)) / 3.0)
    edge = (pole, cell.neighbors[pole][0])
    return (
        Family(
            name="cube",
            tiling=symbol,
            s_range=(0.5, s_star),
            anchor=3,
            primary_edge=edge,
            description="inscribed-cube orbit of type s, the twelve other "
            "balls tangent along the edges",
            rule=cube_rule,
        ),
        Family(
            name="polar",
            tiling=symbol,
            s_range=(0.0, 0.5),
            anchor=3,
            primary_edge=edge,
            description="two antipodal cube balls of type s, remaining cube "
            "balls tangent to a pole, outer balls tangent to their largest "
            "neighbor",
            rule=polar_rule,
        ),
        Family(
            name="tetra",
            tiling=symbol,
            s_range=(0.2, 0.5),
            anchor=3,
            primary_edge=edge,
            description="alternating cube tetrad of type s, the other cube "
            "balls tangent to it, outer balls tangent to the tetrad",
            rule=tetra_rule,
        ),
        Family(
            name="apex",
            tiling=symbol,
            s_range=(0.0, 0.2),
            anchor=3,
            primary_edge=edge,
            description="single anchor ball of type s with six derived "
            "types cascading through the tangency graph",
            rule=apex_rule,
        ),
    )


_FAMILY_BUILDERS = {
    (3, 3, 6): _families_336,
    (3, 4, 4): _families_344,
    (4, 3, 6): _families_436,
    (5, 3, 6): _families_536,
}


def families(tiling) -> tuple[Family, ...]:
    """The cataloged one-parameter configuration families of a tiling."""
    symbol = as_symbol(tiling)
    try:
        builder = _FAMILY_BUILDERS[symbol.weights]
    except KeyError:
        raise GeometryError(
            f"no packing families for {symbol.weights}; supported: "
            f"{sorted(_FAMILY_BUILDERS)}"
        ) from None
    fams = builder(symbol)
    cell = build_cell(symbol)
    for fam in fams:
        if fam.primary_edge not in cell.edges and tuple(reversed(fam.primary_edge)) not in cell.edges:
            raise GeometryError(f"family {fam.name!r} primary edge is not a cell edge")
    return fams


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
    """Density reports along an s-grid of one configuration family."""
    if not isinstance(fam, Family):
        fam = family(tiling, fam)
    cell = build_cell(fam.tiling)
    reports = []
    for s in grid:
        config = configuration(fam.tiling, fam.levels(cell, float(s)))
        reports.append(density(config))
    return reports


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
    """Maximal-density arrangement set among catalog and family endpoints.

    Family endpoints are included on their own (they coincide with catalog
    states by construction); reports within 1e-6 of the maximum are returned
    as joint optima, in catalog order.
    """
    reports = [density(c) for c in catalog(tiling)]
    seen = {tuple(round(h, 12) for h in r.config.levels) for r in reports}
    for fam in families(tiling):
        for s in fam.s_range:
            config = fam.at(s)
            key = tuple(round(h, 12) for h in config.levels)
            if key not in seen:
                seen.add(key)
                reports.append(density(config))
    best = max(r.density for r in reports)
    return [r for r in reports if r.density >= best - 1e-6]
