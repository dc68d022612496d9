from __future__ import annotations

import math

import numpy as np
import pytest

from horopack.coxeter import build_cell
from horopack.horoball import pencil_value, vertex_sector_volume
from horopack.lorentz import GeometryError
from horopack.packing import (
    AdmissibilityError,
    InvalidPackingError,
    PackingConfiguration,
    admissible_interval,
    all_pair_gaps,
    balanced_levels,
    ball_gap,
    catalog,
    certify_optimum,
    configuration,
    contact_offset,
    density,
    families,
    family,
    sector_coefficient,
    sweep,
    validate_packing,
    volume_function,
)

SUPPORTED = [(3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)]

# frozen densities of the named arrangements
CATALOG_DENSITIES = {
    ((3, 3, 6), "B1"): 0.8532760883140813,
    ((3, 3, 6), "B2"): 0.8532760883140811,
    ((3, 4, 4), "B1"): 0.8188080477779293,
    ((3, 4, 4), "B2"): 0.8188080477779293,
    ((3, 4, 4), "B3"): 0.8188080477779293,
    ((4, 3, 6), "B1"): 0.682620870651238,
    ((4, 3, 6), "B2"): 0.682620870651238,
    ((4, 3, 6), "B3"): 0.8532760883140476,
    ((4, 3, 6), "B4"): 0.8532760883140477,
    ((5, 3, 6), "B1"): 0.5508411029553189,
    ((5, 3, 6), "B2"): 0.7030898393320728,
    ((5, 3, 6), "B3"): 0.7872508709034534,
    ((5, 3, 6), "B4"): 0.7841811386472877,
    ((5, 3, 6), "B5"): 0.7124588186824327,
}

FAMILY_NAMES = {
    (3, 3, 6): ["main"],
    (3, 4, 4): ["main"],
    (4, 3, 6): ["polar", "tetra"],
    (5, 3, 6): ["cube", "polar", "tetra", "apex"],
}

# Family.levels at lo, mid and hi of each family, recorded from the closure
# builders the tangency cascades replaced: a vertex -> group pattern and each
# group's level at the three points
FAMILY_LEVELS = {
    ((3, 3, 6), "main"): ("0001", (
        (0.5, 1.0),
        (0.6454972243679028, 0.7745966692414834),
        (0.8660254037844387, 0.5773502691896257))),
    ((3, 4, 4), "main"): ("000102", (
        (0.3535533905932738, 1.414213562373095, 0.7071067811865476),
        (0.5, 1.0, 1.0),
        (0.7071067811865475, 0.7071067811865476, 0.7071067811865476))),
    ((4, 3, 6), "polar"): ("01121003", (
        (0.2357022603955159, 0.4714045207910317, 1.414213562373095, 0.7071067811865476),
        (0.3623715376697394, 0.3623715376697394, 0.9198662110077999, 0.9198662110077999),
        (0.5773502691896258, 0.5773502691896258, 0.5773502691896257, 0.5773502691896257))),
    ((4, 3, 6), "tetra"): ("01111000", (
        (0.4082482904638631, 0.816496580927726),
        (0.4803844614152614, 0.693888666488711),
        (0.5773502691896258, 0.5773502691896257))),
    ((5, 3, 6), "cube"): ("00000000111111111111", (
        (0.5773502691896257, 0.22052817941653585),
        (0.47085434467224513, 0.27040634793050927),
        (0.35682208977308993, 0.35682208977308993))),
    ((5, 3, 6), "polar"): ("00010001223332233322", (
        (0.3333333333333333, 1.0, 0.38196601125010515, 0.12732200375003505),
        (0.4303314829119352, 0.7745966692414834, 0.29586960007778645, 0.16437200004321467),
        (0.5773502691896257, 0.5773502691896257, 0.22052817941653585, 0.22052817941653585))),
    ((5, 3, 6), "tetra"): ("01111000222222222222", (
        (0.408248290463863, 0.816496580927726, 0.1559369711081561),
        (0.48038446141526137, 0.693888666488711, 0.18349053659331743),
        (0.5773502691896257, 0.5773502691896257, 0.22052817941653585))),
    ((5, 3, 6), "apex"): ("01121003445444455444", (
        (0.3333333333333333, 0.6666666666666666, 1.0, 0.5,
         0.19098300562505258, 0.12732200375003505),
        (0.3685138655950444, 0.7370277311900888, 0.9045340337332909,
         0.45226701686664544, 0.1727506284525366, 0.14075977133169648),
        (0.408248290463863, 0.816496580927726, 0.816496580927726,
         0.408248290463863, 0.1559369711081561, 0.1559369711081561))),
}

OPTIMAL_LABELS = {
    (3, 3, 6): {"B1", "B2"},
    (3, 4, 4): {"B1", "B2", "B3"},
    (4, 3, 6): {"B3", "B4"},
    (5, 3, 6): {"B3"},
}


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_catalog_counts_labels_and_validity(symbol):
    configs = catalog(symbol)
    n = {(3, 3, 6): 2, (3, 4, 4): 3, (4, 3, 6): 4, (5, 3, 6): 5}[symbol]
    assert len(configs) == n
    assert [c.label for c in configs] == [f"B{k}" for k in range(1, n + 1)]
    for config in configs:
        assert validate_packing(config) is None
        assert len(config.levels) == config.cell.n_vertices
        for v, h in enumerate(config.levels):
            s = config.assignment[v]
            assert h == pytest.approx(math.sqrt((1.0 - s) / (1.0 + s)), abs=1e-12)
            assert config.horoball(v).h == pytest.approx(h, abs=1e-15)


@pytest.mark.parametrize("key", sorted(CATALOG_DENSITIES))
def test_catalog_density_oracles(key):
    symbol, label = key
    config = next(c for c in catalog(symbol) if c.label == label)
    assert density(config).density == pytest.approx(
        CATALOG_DENSITIES[key], abs=1e-12
    )


def test_density_report_structure():
    config = catalog((3, 3, 6))[0]
    report = density(config)
    assert len(report.sector_volumes) == 4
    assert report.cell_volume == pytest.approx(1.0149416064096537, rel=1e-13)
    assert report.density == pytest.approx(
        sum(report.sector_volumes) / report.cell_volume, rel=1e-14
    )
    assert report.config is config


def test_tangency_bookkeeping():
    full = catalog((3, 3, 6))[0]  # all six edges tangent
    assert len(full.tangencies) == 6
    partial = catalog((3, 3, 6))[1]  # only the three apex edges tangent
    assert len(partial.tangencies) == 3
    assert all(3 in t.pair for t in partial.tangencies)
    for config in (full, partial):
        for t in config.tangencies:
            i, j = t.pair
            assert abs(pencil_value(config.horoball(i), t.contact.coords)) < 1e-9
            assert abs(pencil_value(config.horoball(j), t.contact.coords)) < 1e-9


def test_tangencies_computed_on_first_read():
    config = catalog((3, 3, 6))[0]
    fresh = configuration(config.tiling, config.levels)
    assert "tangencies" not in vars(fresh)
    assert [t.pair for t in fresh.tangencies] == [t.pair for t in config.tangencies]
    assert "tangencies" in vars(fresh)


def test_ball_gap_values():
    cell = build_cell((3, 3, 6))
    levels = catalog((3, 3, 6))[1].levels  # (1/2, 1/2, 1/2, 1)
    assert ball_gap(cell, levels, 0, 3) == pytest.approx(0.0, abs=1e-12)
    assert ball_gap(cell, levels, 0, 1) == pytest.approx(math.log(3.0), abs=1e-12)
    gaps = all_pair_gaps(catalog((3, 3, 6))[1])
    assert set(gaps) == {(i, j) for i in range(4) for j in range(i + 1, 4)}
    assert min(gaps.values()) == pytest.approx(0.0, abs=1e-12)


def test_validate_packing_face_violation():
    # small partners keep every edge pair separated; only the apex ball
    # (face bound 1.0) pokes through its opposite face
    bad = configuration((3, 3, 6), (0.3, 0.3, 0.3, 1.2))
    violation = validate_packing(bad)
    assert violation is not None
    assert violation.kind == "face"
    assert 3 in violation.indices
    with pytest.raises(InvalidPackingError):
        density(bad)


def test_validate_packing_pair_violation():
    bad = configuration((3, 3, 6), (0.9, 0.9, 0.9, 0.9))
    violation = validate_packing(bad)
    assert violation is not None
    assert violation.kind == "pair"
    assert len(violation.indices) == 2
    with pytest.raises(InvalidPackingError):
        density(bad)


@pytest.mark.parametrize("levels", [[math.nan] * 4, [0.5, 0.5, math.nan, 1.0],
                                    [math.inf] * 4, [0.5, 0.5, 0.5, math.inf]])
def test_configuration_rejects_non_finite_levels(levels):
    with pytest.raises(GeometryError, match="finite"):
        configuration((3, 3, 6), levels)


def test_validate_packing_flags_nan_levels():
    # a configuration assembled without configuration() still fails validation
    good = catalog((3, 3, 6))[0]
    for levels in ((math.nan,) * 4, good.levels[:3] + (math.nan,)):
        config = PackingConfiguration(
            tiling=good.tiling, cell=good.cell, assignment=levels, levels=levels
        )
        assert validate_packing(config) is not None
        with pytest.raises(InvalidPackingError):
            density(config)


def _coefficient_path_states(symbol):
    yield from catalog(symbol)
    for fam in families(symbol):
        lo, hi = fam.s_range
        for s in (lo, hi, *np.linspace(lo, hi, 5)[1:-1]):
            yield fam.at(float(s))


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_coefficient_path_matches_heron(symbol):
    # density's C_v h_v^2 against the Heron sector volume at the same level
    for config in _coefficient_path_states(symbol):
        report = density(config)
        for v, volume in enumerate(report.sector_volumes):
            heron = vertex_sector_volume(config.horoball(v), config.cell, v)
            assert volume == pytest.approx(heron, rel=1e-12)


def test_sector_coefficients():
    cell336 = build_cell((3, 3, 6))
    assert sector_coefficient(cell336, 0) == pytest.approx(
        math.sqrt(3.0) / 6.0, rel=1e-12
    )
    assert sector_coefficient(cell336, 3) == pytest.approx(
        3.0 * math.sqrt(3.0) / 8.0, rel=1e-12
    )
    assert sector_coefficient(build_cell((3, 4, 4)), 0) == pytest.approx(
        1.0, rel=1e-12
    )
    assert sector_coefficient(build_cell((4, 3, 6)), 0) == pytest.approx(
        3.0 * math.sqrt(3.0) / 4.0, rel=1e-12
    )
    kappa_e = (3.0 - math.sqrt(5.0)) / 3.0
    assert sector_coefficient(build_cell((5, 3, 6)), 0) == pytest.approx(
        math.sqrt(3.0) / (6.0 * kappa_e * kappa_e), rel=1e-12
    )


def test_balanced_levels_tetrahedron():
    cell = build_cell((3, 3, 6))
    edge = family((3, 3, 6), "main").primary_edge
    hi0, hj0 = balanced_levels(cell, edge)
    # tangency and equal sector volumes
    assert 2.0 * hi0 * hj0 == pytest.approx(cell.kappa(*edge), abs=1e-12)
    ci = sector_coefficient(cell, edge[0])
    cj = sector_coefficient(cell, edge[1])
    assert ci * hi0 * hi0 == pytest.approx(cj * hj0 * hj0, rel=1e-12)


def test_volume_function_cosh_law():
    for symbol in SUPPORTED:
        fam = families(symbol)[0]
        edge = fam.primary_edge
        anchor_s = 0.5 * (fam.s_range[0] + fam.s_range[1])
        config = fam.at(anchor_s)
        lo, hi = admissible_interval(config.cell, edge)
        assert lo < 0 < hi
        v0 = volume_function(config, edge, 0.0)
        for x in np.linspace(lo, hi, 9):
            vx = volume_function(config, edge, float(x))
            assert abs(vx / v0 - math.cosh(2.0 * x)) < 1e-9
            # evenness inside the shared domain
            if lo <= -x <= hi:
                assert volume_function(config, edge, float(-x)) == pytest.approx(
                    vx, rel=1e-12
                )


def test_volume_function_balanced_value_tetrahedron():
    fam = family((3, 3, 6), "main")
    config = fam.at(0.25)
    v0 = volume_function(config, fam.primary_edge, 0.0)
    assert v0 == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-12)


def test_admissible_interval_tetrahedron():
    cell = build_cell((3, 3, 6))
    edge = family((3, 3, 6), "main").primary_edge
    lo, hi = admissible_interval(cell, edge)
    assert hi == pytest.approx(math.atanh(0.5), abs=1e-12)
    assert lo == pytest.approx(-math.atanh(0.5), abs=1e-12)
    config = family((3, 3, 6), "main").at(0.25)
    with pytest.raises(AdmissibilityError) as exc:
        volume_function(config, edge, hi + 1e-6)
    assert exc.value.interval[0] == pytest.approx(lo, abs=1e-12)
    assert exc.value.interval[1] == pytest.approx(hi, abs=1e-12)


def test_volume_function_requires_tangency():
    config = catalog((3, 3, 6))[1]
    # the base-base edges of this arrangement have a positive gap
    with pytest.raises(InvalidPackingError):
        volume_function(config, (0, 1), 0.0)


def test_interval_endpoint_matches_bisection():
    # independent check: bisect the largest valid slide against the full
    # packing validator instead of the closed-form face bound
    symbol = (3, 3, 6)
    cell = build_cell(symbol)
    edge = family(symbol, "main").primary_edge
    i, j = edge
    hi0, hj0 = balanced_levels(cell, edge)

    def valid(x: float) -> bool:
        levels = [0.05] * cell.n_vertices
        levels[i] = hi0 * math.exp(x)
        levels[j] = hj0 * math.exp(-x)
        return validate_packing(configuration(symbol, levels)) is None

    lo_good, hi_bad = 0.0, 2.0
    assert valid(lo_good) and not valid(hi_bad)
    while hi_bad - lo_good > 1e-12:
        mid = 0.5 * (lo_good + hi_bad)
        if valid(mid):
            lo_good = mid
        else:
            hi_bad = mid
    _, hi_closed = admissible_interval(cell, edge)
    assert lo_good == pytest.approx(hi_closed, abs=1e-9)


def test_contact_offset():
    fam = family((3, 3, 6), "main")
    edge = fam.primary_edge
    b1, b2 = catalog((3, 3, 6))
    assert contact_offset(b1, edge) == pytest.approx(0.0, abs=1e-12)
    assert contact_offset(b2, edge) == pytest.approx(math.atanh(0.5), abs=1e-12)


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_family_listing(symbol):
    fams = families(symbol)
    assert [f.name for f in fams] == FAMILY_NAMES[symbol]
    cell = build_cell(symbol)
    edge_set = {tuple(sorted(e)) for e in cell.edges}
    for fam in fams:
        assert tuple(sorted(fam.primary_edge)) in edge_set
        lo, hi = fam.s_range
        assert lo < hi
        for s in (lo, hi, 0.5 * (lo + hi)):
            config = fam.at(s)
            assert validate_packing(config) is None
            # the family keeps its primary edge tangent
            assert abs(
                ball_gap(cell, config.levels, *fam.primary_edge)
            ) < 1e-9


@pytest.mark.parametrize("key", sorted(FAMILY_LEVELS))
def test_family_levels_pinned(key):
    symbol, name = key
    pattern, values = FAMILY_LEVELS[key]
    fam = family(symbol, name)
    cell = build_cell(symbol)
    lo, hi = fam.s_range
    for s, groups in zip((lo, 0.5 * (lo + hi), hi), values):
        expected = [groups[int(g)] for g in pattern]
        assert fam.levels(s) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_family_cascade_tangencies(symbol):
    # each ball off the anchors touches one of the nearest sources it was
    # derived from, and no ball overlaps any of its sources
    cell = build_cell(symbol)
    for fam in families(symbol):
        sources = {}
        for t, p, _ in fam.cascade:
            sources.setdefault(t, []).append(p)
        assert set(fam.anchors) | set(sources) == set(range(cell.n_vertices))
        for s in np.linspace(*fam.s_range, 7):
            levels = fam.levels(float(s))
            for t, ps in sources.items():
                gaps = [ball_gap(cell, levels, t, p) for p in ps]
                assert min(gaps) >= -1e-12
                if t not in fam.anchors:
                    assert min(map(abs, gaps)) <= 1e-12


def test_family_domains():
    fam = family((3, 3, 6), "main")
    assert fam.s_range[0] == pytest.approx(0.0, abs=1e-12)
    assert fam.s_range[1] == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(GeometryError):
        fam.at(0.6)
    with pytest.raises(GeometryError):
        fam.at(-0.1)
    assert family((3, 4, 4), "main").s_range == pytest.approx(
        (-1.0 / 3.0, 1.0 / 3.0), abs=1e-12
    )
    assert fam.at(0.5, label="top").label == "top"


def test_family_lookup_errors():
    with pytest.raises(GeometryError, match="main"):
        family((3, 3, 6), "nope")
    with pytest.raises(GeometryError):
        families((3, 5, 3))


def test_sweep_tetrahedron_ends_beat_middle():
    reports = sweep((3, 3, 6), "main", [0.0, 0.25, 0.5])
    d = [r.density for r in reports]
    assert d[0] == pytest.approx(0.8532760883140811, abs=1e-12)
    assert d[2] == pytest.approx(0.8532760883140813, abs=1e-12)
    assert d[1] < d[0] and d[1] < d[2]
    single = sweep((3, 3, 6), "main", [0.5])
    assert len(single) == 1
    assert single[0].density == pytest.approx(d[2], abs=1e-15)


def test_sweep_octahedron_three_equal_maxima():
    reports = sweep((3, 4, 4), "main", [-1.0 / 3.0, 0.0, 1.0 / 3.0])
    d = [r.density for r in reports]
    for value in d:
        assert value == pytest.approx(0.8188080477779293, abs=1e-12)


def test_dodecahedron_b3_nonadjacent_overlap_diagnostic():
    # the published optimum keeps every cell edge contact-free, but a pair of
    # balls over a non-edge vertex pair interlocks; the validator is scoped
    # to edges and face bounds, the all-pair diagnostic reports the overlap
    config = next(c for c in catalog((5, 3, 6)) if c.label == "B3")
    assert validate_packing(config) is None
    gaps = all_pair_gaps(config)
    assert min(gaps.values()) == pytest.approx(-0.13618863854890298, abs=1e-9)
    edge_set = {tuple(sorted(e)) for e in config.cell.edges}
    worst_pair = min(gaps, key=gaps.get)
    assert tuple(sorted(worst_pair)) not in edge_set
    for pair in edge_set:
        assert gaps[pair] >= -1e-9


def test_octahedron_mirror_symmetry():
    # vertices 3 and 5 are antipodal; swapping their levels reflects the
    # packing through the equator plane and cannot change the density
    config = next(c for c in catalog((3, 4, 4)) if c.label == "B3")
    levels = list(config.levels)
    levels[3], levels[5] = levels[5], levels[3]
    mirrored = configuration((3, 4, 4), levels)
    assert validate_packing(mirrored) is None
    assert density(mirrored).density == pytest.approx(
        density(config).density, abs=1e-9
    )


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_family_endpoints_are_catalog_states(symbol):
    # certify_optimum searches the catalog alone, so every family endpoint
    # must have the levels of a catalog state
    states = {tuple(round(h, 12) for h in c.levels) for c in catalog(symbol)}
    for fam in families(symbol):
        for levels in fam.level_matrix(fam.s_range).tolist():
            assert tuple(round(h, 12) for h in levels) in states, (fam.name, levels)


@pytest.mark.parametrize("symbol", SUPPORTED)
def test_certify_optimum(symbol):
    reports = certify_optimum(symbol)
    labels = {r.config.label for r in reports}
    assert labels == OPTIMAL_LABELS[symbol]
    best = max(r.density for r in reports)
    expected = max(
        CATALOG_DENSITIES[key] for key in CATALOG_DENSITIES if key[0] == symbol
    )
    assert best == pytest.approx(expected, abs=1e-12)
    for r in reports:
        assert r.density >= best - 1e-6
