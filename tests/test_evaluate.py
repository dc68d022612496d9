"""The batched evaluator against the per-point path it replaced.

The references below are the former scalar code: the tangency cascade as a
Python loop over links, resolved from the role names of ``_CASCADES``, the
former catalog table of (label, family, s) states, ``validate_packing`` on
one level tuple, and the density as the sector volumes C_v h_v^2 added left
to right.  The batched path performs the same floating-point operations on
every row, so every comparison is exact (``==``).
"""

from __future__ import annotations

import functools
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
    catalog,
    configuration,
    contact_offset,
    density,
    evaluate,
    families,
    family,
    sweep,
    validate_packing,
    _CASCADES,
    _roles,
)

TILINGS = [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)]
FAMILIES = [(t, fam.name) for t in TILINGS for fam in families(t)]


# ---------------------------------------------------------------------------
# reference: the per-point path


def reference_links(cell, targets, sources):
    """(target, source, kappa / 2) for each target's nearest sources."""
    kappas = cell.gram[np.ix_(targets, sources)]
    nearest = kappas <= kappas.min(axis=1, keepdims=True) + 1e-9
    return [
        (targets[r], sources[c], 0.5 * kappas[r, c].item())
        for r, c in np.argwhere(nearest).tolist()
    ]


@functools.cache
def reference_cascade(weights, name: str):
    """Anchors and links of a family, from its declared role names."""
    cell = build_cell(weights)
    roles = _roles(cell)

    def vertices(names: str) -> tuple[int, ...]:
        return tuple(v for role in names.split() for v in roles[role])

    (row,) = [row for row in _CASCADES[weights] if row[0] == name]
    anchors, steps = row[3], row[4]
    links = [
        link
        for targets, sources in steps
        for link in reference_links(cell, vertices(targets), vertices(sources))
    ]
    return vertices(anchors), links


# (label, family, s) of each named state in published order; None is the
# upper end of the family's range
REFERENCE_CATALOG_STATES = {
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
        ("B1", "cube", None),
        ("B2", "cube", 0.5),
        ("B3", "polar", 0.0),
        ("B4", "tetra", 0.2),
        ("B5", "apex", 0.0),
    ),
}


def reference_levels(fam, cell, s: float) -> tuple[float, ...]:
    lo, hi = fam.s_range
    if not (lo - 1e-12 <= s <= hi + 1e-12):
        raise GeometryError(
            f"family {fam.name!r} of {fam.tiling} needs "
            f"s in [{lo:.12g}, {hi:.12g}], got {s:.12g}"
        )
    anchors, links = reference_cascade(fam.tiling, fam.name)
    h = [math.inf] * cell.n_vertices
    anchor = math.sqrt((1.0 - s) / (1.0 + s))
    for v in anchors:
        h[v] = anchor
    for t, p, half_kappa in links:
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
    coefficients = cell.sector_coefficients
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
        assert tuple(report.config.horoball(v).s for v in range(len(levels))) == tuple(
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


@pytest.mark.parametrize("key", FAMILIES, ids=[f"{t}-{n}" for t, n in FAMILIES])
def test_level_matrix_matches_per_link_loop(key):
    tiling, name = key
    fam = family(tiling, name)
    cell = build_cell(tiling)
    lo, hi = fam.s_range
    for grid in ([lo], [hi], np.linspace(lo, hi, 16), np.linspace(lo, hi, 1001)):
        expected = [reference_levels(fam, cell, s) for s in np.asarray(grid).tolist()]
        assert np.array_equal(fam.level_matrix(grid), np.array(expected))


@pytest.mark.parametrize("tiling", TILINGS)
def test_catalog_matches_former_table(tiling):
    cell = build_cell(tiling)
    expected = []
    for label, name, s in REFERENCE_CATALOG_STATES[tiling]:
        fam = family(tiling, name)
        s = fam.s_range[1] if s is None else s
        expected.append((label, reference_levels(fam, cell, s)))
    assert [(config.label, config.levels) for config in catalog(tiling)] == expected


@pytest.mark.parametrize("tiling", TILINGS)
def test_each_step_reads_no_level_it_writes(tiling):
    # disjoint target and source sets make one gather, divide and minimum
    # per step equal to the per-link loop
    for fam in families(tiling):
        (row,) = [row for row in _CASCADES[tiling] if row[0] == fam.name]
        assert len(fam.cascade) == len(row[4])
        for step in fam.cascade:
            targets, sources, half_kappa = step
            assert not any(table.flags.writeable for table in step)
            assert sources.shape == half_kappa.shape == (len(targets), sources.shape[1])
            assert len(set(targets.tolist())) == len(targets)
            assert not set(targets.tolist()) & set(sources.ravel().tolist())


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
            config = PackingConfiguration(cell=cell, levels=tuple(row))
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


def test_evaluate_rejects_level_arrays_that_are_not_m_by_n():
    cell = build_cell((3, 3, 6))
    expected = r"\(3, 3, 6\) needs an \(m, 4\) level array, got shape"
    for levels in (
        [0.5, 0.5, 0.5, 1.0],
        [[0.5, 0.5, 1.0]],
        [[0.5, 0.5, 0.5, 1.0, 0.5]],
        np.full((2, 1, 4), 0.5),
    ):
        with pytest.raises(GeometryError, match=expected):
            evaluate(cell, levels)
    with pytest.raises(GeometryError, match=r"\(3, 3, 6\) needs 4 levels, got 3"):
        PackingConfiguration(cell=cell, levels=(0.5, 0.5, 1.0))


def test_invalid_rows_raise_the_density_error():
    bad = configuration((3, 3, 6), (0.9, 0.9, 0.9, 0.9))
    with pytest.raises(InvalidPackingError) as exc:
        density(bad)
    assert str(exc.value) == reference_violation(bad.cell, bad.levels).detail
