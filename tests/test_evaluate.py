"""The batched evaluator against the per-point path it replaced.

The references below are the former scalar code: the tangency cascade as a
Python loop over links, ``validate_packing`` on one level tuple, and the
density as the sector volumes C_v h_v^2 added left to right.  The batched
path performs the same floating-point operations on every row, so every
comparison is exact (``==``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from horopack import cli
from horopack.coxeter import build_cell
from horopack.lorentz import GeometryError
from horopack.packing import (
    PAIR_TOL,
    InvalidPackingError,
    PackingConfiguration,
    Violation,
    balanced_levels,
    configuration,
    contact_offset,
    density,
    evaluate,
    families,
    family,
    sector_coefficient,
    sweep,
    validate_packing,
)

TILINGS = [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)]
FAMILIES = [(t, fam.name) for t in TILINGS for fam in families(t)]


# ---------------------------------------------------------------------------
# reference: the per-point path


def reference_levels(fam, cell, s: float) -> tuple[float, ...]:
    lo, hi = fam.s_range
    if not (lo - 1e-12 <= s <= hi + 1e-12):
        raise GeometryError(
            f"family {fam.name!r} of {fam.tiling.weights} needs "
            f"s in [{lo:.12g}, {hi:.12g}], got {s:.12g}"
        )
    h = [math.inf] * cell.n_vertices
    anchor = math.sqrt((1.0 - s) / (1.0 + s))
    for v in fam.anchors:
        h[v] = anchor
    for t, p, half_kappa in fam.cascade:
        level = half_kappa / h[p]
        if level < h[t]:
            h[t] = level
    return tuple(h)


def reference_violation(cell, levels):
    h = np.array(levels)
    first, second = np.array(cell.edges).T
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


def reference_sectors(cell, levels) -> tuple[float, tuple[float, ...]]:
    coefficients = np.array([sector_coefficient(cell, v) for v in range(cell.n_vertices)])
    sectors = tuple((coefficients * np.array(levels) ** 2).tolist())
    total = 0  # Python's sum, which adds left to right
    for volume in sectors:
        total += volume
    return total / cell.volume, sectors


def _grid(fam, steps: int) -> np.ndarray:
    return np.linspace(*fam.s_range, steps)


# ---------------------------------------------------------------------------
# sweeps: levels, sector volumes, densities and offsets


@pytest.mark.parametrize("key", FAMILIES, ids=[f"{t}-{n}" for t, n in FAMILIES])
def test_sweep_matches_per_point_path(key):
    tiling, name = key
    fam = family(tiling, name)
    cell = build_cell(tiling)
    grid = _grid(fam, 1001)
    reports = sweep(tiling, fam, grid)
    assert len(reports) == len(grid)
    for s, report in zip(grid.tolist(), reports):
        levels = reference_levels(fam, cell, s)
        assert reference_violation(cell, levels) is None
        dens, sectors = reference_sectors(cell, levels)
        assert report.config.levels == levels
        assert report.config.assignment == tuple(
            (1.0 - h * h) / (1.0 + h * h) for h in levels
        )
        assert report.sector_volumes == sectors
        assert report.density == dens
        # the m = 1 views agree with the batch row
        single = density(configuration(tiling, fam.levels(s)))
        assert single.config.levels == levels
        assert single.sector_volumes == sectors
        assert single.density == dens


@pytest.mark.parametrize("key", FAMILIES, ids=[f"{t}-{n}" for t, n in FAMILIES])
def test_sweep_rows_match_per_point_path(key):
    # the CLI's rows, offsets x included, before formatting
    tiling, name = key
    fam = family(tiling, name)
    cell = build_cell(tiling)
    argv = ["sweep", "".join(map(str, tiling)), "--family", name, "--steps", "1001"]
    _, _, rows, _ = cli._cmd_sweep(cli._build_parser().parse_args(argv))
    for s, row in zip(_grid(fam, 1001).tolist(), rows):
        levels = reference_levels(fam, cell, s)
        dens, sectors = reference_sectors(cell, levels)
        x = contact_offset(configuration(tiling, levels), fam.primary_edge)
        assert row == (s, x, dens) + sectors


@pytest.mark.parametrize("key", FAMILIES, ids=[f"{t}-{n}" for t, n in FAMILIES])
def test_single_point_sweeps_at_the_endpoints(key):
    tiling, name = key
    fam = family(tiling, name)
    cell = build_cell(tiling)
    for s in fam.s_range:
        (report,) = sweep(tiling, fam, [s])
        levels = reference_levels(fam, cell, s)
        assert report.config.levels == levels == fam.levels(s)
        assert (report.density, report.sector_volumes) == reference_sectors(cell, levels)
        assert contact_offset(report.config, fam.primary_edge) == math.log(
            levels[fam.primary_edge[0]] / balanced_levels(cell, fam.primary_edge)[0]
        )


# ---------------------------------------------------------------------------
# first violations of arbitrary level rows


def _random_rows(cell, rng, count: int = 1200) -> np.ndarray:
    """Valid, overlapping, overflowing, zero, negative and NaN level rows."""
    n = cell.n_vertices
    bounds = np.array(cell.face_bounds)
    rows = rng.uniform(0.05, 1.3, (count, n)) * bounds
    kinds = rng.integers(6, size=count)
    for row, kind in zip(rows, kinds):
        v = rng.integers(n)
        if kind == 0:  # small balls: valid
            row *= 0.3
        elif kind == 1:  # one ball above its face bound, the rest small
            row *= 0.05
            row[v] = bounds[v] * rng.uniform(1.0 + 1e-6, 2.0)
        elif kind == 2:  # one overlapping edge pair, the rest small
            i, j = cell.edges[rng.integers(len(cell.edges))]
            row *= 0.05
            row[i] = row[j] = math.sqrt(cell.kappa(i, j))
        elif kind == 3:
            row[v] = math.nan
        elif kind == 4:
            row[v] = 0.0 if rng.random() < 0.5 else -row[v]
    return rows


@pytest.mark.parametrize("tiling", TILINGS)
def test_first_violation_matches_scalar_validator(tiling):
    cell = build_cell(tiling)
    rows = _random_rows(cell, np.random.default_rng(sum(tiling)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = evaluate(cell, rows)
        expected = [reference_violation(cell, tuple(row)) for row in rows.tolist()]
        assert ev.violations == expected
        for row in rows.tolist()[:200]:
            config = PackingConfiguration(
                tiling=cell.schlafli, cell=cell, assignment=tuple(row), levels=tuple(row)
            )
            assert validate_packing(config) == reference_violation(cell, tuple(row))
    kinds = {v.kind if v else None for v in expected}
    assert kinds == {None, "pair", "face"}
    for row, violation, dens, sectors in zip(
        rows.tolist(), ev.violations, ev.density.tolist(), ev.sectors.tolist()
    ):
        if violation is None:
            assert (dens, tuple(sectors)) == reference_sectors(cell, row)


# ---------------------------------------------------------------------------
# errors


@pytest.mark.parametrize("key", FAMILIES, ids=[f"{t}-{n}" for t, n in FAMILIES])
def test_sweep_reports_the_first_bad_grid_point(key):
    tiling, name = key
    fam = family(tiling, name)
    cell = build_cell(tiling)
    lo, hi = fam.s_range
    for grid in (
        [lo, hi + 0.01, math.nan, lo - 0.01],
        [math.nan, hi + 0.01],
        [0.5 * (lo + hi), lo - 1e-6],
        [-1.0],
        [1.0],
    ):
        bad = next(s for s in grid if not (lo - 1e-12 <= s <= hi + 1e-12))
        with pytest.raises(GeometryError) as expected:
            fam.levels(bad)
        with pytest.raises(GeometryError) as batched:
            sweep(tiling, fam, grid)
        assert str(batched.value) == str(expected.value)
        assert type(batched.value) is type(expected.value)
        with pytest.raises(GeometryError) as reference:
            reference_levels(fam, cell, bad)
        assert str(reference.value) == str(expected.value)


def test_sweep_rejects_a_family_of_another_tiling():
    with pytest.raises(GeometryError, match=r"\(5, 3, 6\).*\(3, 3, 6\)"):
        sweep((3, 3, 6), family((5, 3, 6), "cube"), [0.5])


def test_invalid_rows_raise_the_density_error():
    bad = configuration((3, 3, 6), (0.9, 0.9, 0.9, 0.9))
    with pytest.raises(InvalidPackingError) as exc:
        density(bad)
    assert str(exc.value) == reference_violation(bad.cell, bad.levels).detail
