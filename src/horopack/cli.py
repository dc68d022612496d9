"""Command-line surface: density tables, sweeps, volumes, scene export.

Subcommands: ``table2`` (optimal densities per tiling with reference
comparison), ``sweep`` (one-parameter family sweeps as CSV/JSON), ``volumes``
(closed-form vs Monte Carlo cell volumes), ``scene`` (Klein-model mesh of a
cataloged arrangement), ``bf`` (the packing-density upper-bound constant).

Exit codes: 0 all requested checks pass, 1 a tolerance check failed, 2 usage
error (bad input, or an output path that cannot be written).  Machine outputs
(``--out``) are byte-identical across identical invocations; each output that
is a regular file gets a ``<out>.manifest.json`` sidecar holding the command
line, seed, tolerances, library version, and wall time (the wall time lives
only in the sidecar to keep the data files reproducible).  An output that is
not a regular file, such as a pipe or a device, gets no sidecar.

The argument parser is built once per process, on the first ``main`` call,
and reused by later calls; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import __version__
from .coxeter import FULLY_ASYMPTOTIC_TILINGS, build_cell
from .horoball import cell_volume_oracle, pencil_value, polar_point
from .lorentz import GeometryError
from .packing import (
    _require_valid, balanced_levels, catalog, certify_optimum, evaluate, family
)
from .volume import MIN_SAMPLES, bf_constant, bf_series_tail_bound, orthoscheme_volume

SCHEMA_VERSION = 1
DEFAULT_SEED = 20240816
DEFAULT_SAMPLES = 200_000
BOUND_MATCH_TOL = 1e-6

# published optimal densities and the digits they are printed to
TABLE2_TARGETS = {
    (3, 3, 6): (0.853276, 1e-5),
    (3, 4, 4): (0.818808, 1e-5),
    (4, 3, 6): (0.853276, 1e-4),
    (5, 3, 6): (0.787251, 1e-4),
}

# published cell volumes (see README on the (4,3,6) reference value)
VOLUME_TARGETS = {
    (3, 3, 6): 1.014942,
    (3, 4, 4): 3.66384,
    (4, 3, 6): 5.074708,
    (5, 3, 6): 20.580199,
}


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _parse_tiling(text: str) -> tuple[int, int, int]:
    digits = [c for c in text if c.isalnum()]
    if len(digits) == 3 and all(c in "0123456789" for c in digits):
        weights = tuple(int(c) for c in digits)
        if weights in FULLY_ASYMPTOTIC_TILINGS:
            return weights
    raise argparse.ArgumentTypeError(
        f"unsupported tiling {text!r}; choose from "
        + ", ".join("".join(map(str, w)) for w in FULLY_ASYMPTOTIC_TILINGS)
    )


def _tiling_name(weights) -> str:
    return "(" + ",".join(str(w) for w in weights) + ")"


def _write_text(path: str, text: str) -> None:
    """Write ``text`` over ``path`` in one call; a regular file is cut to the
    new length after the write, not emptied before it (ext4 flushes a file
    emptied by truncation when it is closed).  Pipes and devices work too."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _write_machine(path: str, fmt: str, columns, rows, meta) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        floats = ",".join(["%.15g"] * len(columns)) + "\r\n"  # csv.writer's bytes
        for row in rows:
            if {*map(type, row)} == {float}:
                buf.write(floats % tuple(row))
            else:
                writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            **meta,
            "columns": list(columns),
            "rows": [
                [v if not isinstance(v, float) else float(_fmt(v)) for v in row]
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    _write_text(path, text)


def _write_manifest(out_path: str, args, started: float, tolerances) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": ["horopack"] + list(args.raw_argv),
        "seed": getattr(args, "seed", None),
        "samples": getattr(args, "samples", None),
        "tolerances": tolerances,
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    _write_text(out_path + ".manifest.json", text)


def _cmd_table2(args) -> tuple[int, tuple, list, dict]:
    bf = bf_constant()
    columns = ("tiling", "arrangements", "density", "target", "tolerance", "at_bound")
    rows = []
    failed = False
    print("Optimal horoball packing densities")
    for weights in FULLY_ASYMPTOTIC_TILINGS:
        reports = certify_optimum(weights)
        best = max(r.density for r in reports)
        labels = ",".join(r.config.label or "?" for r in reports)
        target, default_tol = TABLE2_TARGETS[weights]
        tol = args.tol if args.tol is not None else default_tol
        ok = abs(best - target) <= tol
        failed = failed or not ok
        starred = abs(best - bf) <= BOUND_MATCH_TOL
        rows.append((_tiling_name(weights), labels, best, target, tol, int(starred)))
        mark = "*" if starred else " "
        status = "ok" if ok else "MISS"
        print(
            f"  {_tiling_name(weights):8s} {labels:12s} {best:.9f}{mark} "
            f"target {target:<9g} +-{tol:g}  {status}"
        )
    print("  (* density equals the universal upper bound for congruent balls)")
    tolerances = {"tol": args.tol, "bound_match": BOUND_MATCH_TOL}
    return (1 if failed else 0), columns, rows, tolerances


def _cmd_sweep(args) -> tuple[int, tuple, list, dict]:
    fam = family(args.tiling, args.family)
    lo, hi = fam.s_range if args.s_range is None else args.s_range
    grid = np.linspace(lo, hi, args.steps)
    cell, levels = fam.cell, fam.level_matrix(grid)
    ev = evaluate(cell, levels)
    _require_valid(ev)
    columns = ("s", "x", "density") + tuple(f"V{v}" for v in range(cell.n_vertices))
    i, balanced = fam.primary_edge[0], balanced_levels(cell, fam.primary_edge)[0]
    dens, anchor = ev.density.tolist(), levels[:, i].tolist()
    rows = [  # x is contact_offset, with the balanced level looked up once
        (s, math.log(h / balanced), d, *sectors)
        for s, h, d, sectors in zip(grid.tolist(), anchor, dens, ev.sectors.tolist())
    ]
    print(
        f"sweep {_tiling_name(fam.tiling)} family={fam.name} "
        f"s in [{_fmt(lo)}, {_fmt(hi)}] steps={len(grid)}"
    )
    print(
        f"  density min {min(dens):.9f}  max {max(dens):.9f}  "
        f"argmax s={grid[int(np.argmax(dens))]:.6g}"
    )
    return 0, columns, rows, {}


def _cmd_volumes(args) -> tuple[int, tuple, list, dict]:
    columns = (
        "tiling",
        "cell_volume",
        "reference",
        "orthoscheme_volume",
        "orthoschemes_per_cell",
        "mc_volume",
        "mc_stderr",
        "mc_sigmas",
    )
    rows = []
    failed = False
    print(f"Cell volumes (Monte Carlo: {args.samples} samples, seed {args.seed})")
    for weights in FULLY_ASYMPTOTIC_TILINGS:
        cell = build_cell(weights)
        ortho_volume = orthoscheme_volume(cell.orthoscheme_symbol).value
        mc = cell_volume_oracle(cell, args.samples, args.seed)
        sigmas = abs(mc.value - cell.volume) / mc.stderr if mc.stderr else 0.0
        ok = sigmas <= 3.0
        failed = failed or not ok
        rows.append(
            (
                _tiling_name(weights),
                cell.volume,
                VOLUME_TARGETS[weights],
                ortho_volume,
                cell.orthoschemes_per_cell,
                mc.value,
                mc.stderr,
                sigmas,
            )
        )
        print(
            f"  {_tiling_name(weights):8s} closed form {cell.volume:.9f} "
            f"({cell.orthoschemes_per_cell} x {ortho_volume:.9f})  "
            f"MC {mc.value:.6f} +- {mc.stderr:.6f} ({sigmas:.2f} sigma)"
            f"{'  ok' if ok else '  MISS'}"
        )
    return (1 if failed else 0), columns, rows, {"mc_sigmas": 3.0}


def _sphere_rows(theta_steps: int, phi_steps: int):
    for k in range(1, theta_steps):
        theta = math.pi * k / theta_steps
        for m in range(phi_steps):
            phi = 2.0 * math.pi * m / phi_steps
            yield theta, phi


def _grid_faces(base: int, theta_steps: int, phi_steps: int) -> list[tuple[int, ...]]:
    """Faces of a closed (theta, phi) grid: base is the apex vertex index,
    base+1 .. the ring vertices row by row, last vertex the bottom point."""
    faces = []
    ring = lambda k, m: base + 1 + (k - 1) * phi_steps + (m % phi_steps)
    for m in range(phi_steps):
        faces.append((base, ring(1, m + 1), ring(1, m)))
    for k in range(1, theta_steps - 1):
        for m in range(phi_steps):
            faces.append((ring(k, m), ring(k, m + 1), ring(k + 1, m + 1), ring(k + 1, m)))
    bottom = base + 1 + (theta_steps - 1) * phi_steps
    for m in range(phi_steps):
        faces.append((bottom, ring(theta_steps - 1, m), ring(theta_steps - 1, m + 1)))
    return faces


def _distinct_levels(levels) -> list[float]:
    """Sorted levels with values within a relative 1e-12 of a smaller listed
    one dropped, so congruent balls that differ by rounding are listed once."""
    distinct = []
    for h in sorted(levels):
        if not distinct or h > distinct[-1] * (1.0 + 1e-12):
            distinct.append(h)
    return distinct


def _cmd_scene(args) -> tuple[int, tuple, list, dict]:
    configs = catalog(args.tiling)
    labels = [c.label for c in configs]
    if args.label not in labels:
        listing = "\n".join(
            f"  {c.label}: levels " + ", ".join(_fmt(h) for h in _distinct_levels(c.levels))
            for c in configs
        )
        raise UsageError(
            f"unknown arrangement label {args.label!r} for "
            f"{_tiling_name(args.tiling)}; cataloged arrangements:\n{listing}"
        )
    config = configs[labels.index(args.label)]
    phi_steps, theta_steps = args.grid
    lines = [
        f"# horopack scene: tiling {_tiling_name(args.tiling)} "
        f"arrangement {args.label}",
        f"# grid {phi_steps}x{theta_steps}",
    ]
    vertex_count = 0

    def add_vertex(p) -> int:
        nonlocal vertex_count
        lines.append("v " + " ".join(_fmt(float(c)) for c in p))
        vertex_count += 1
        return vertex_count

    # unit sphere of ideal points
    lines.append("o absolute")
    base = vertex_count
    add_vertex((0.0, 0.0, 1.0))
    for theta, phi in _sphere_rows(theta_steps, phi_steps):
        add_vertex(
            (
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            )
        )
    add_vertex((0.0, 0.0, -1.0))
    for face in _grid_faces(base + 1, theta_steps, phi_steps):
        lines.append("f " + " ".join(str(i) for i in face))

    # cell edges as straight chart segments
    cell = config.cell
    lines.append("o cell_edges")
    edge_index = {}
    for v in range(cell.n_vertices):
        edge_index[v] = add_vertex(cell.vertices[v].chart())
    for i, j in cell.edges:
        lines.append(f"l {edge_index[i]} {edge_index[j]}")

    # one object per horoball
    worst_residual = 0.0
    for v in range(cell.n_vertices):
        ball = config.horoball(v)
        lines.append(f"o horoball_{v}")
        base = vertex_count
        apex = polar_point(ball, 0.0, 0.0)
        worst_residual = max(worst_residual, abs(pencil_value(ball, apex.coords)))
        add_vertex(apex.chart())
        for theta, phi in _sphere_rows(theta_steps, phi_steps):
            point = polar_point(ball, theta, phi)
            worst_residual = max(worst_residual, abs(pencil_value(ball, point.coords)))
            add_vertex(point.chart())
        add_vertex(polar_point(ball, math.pi, 0.0).chart())
        for face in _grid_faces(base + 1, theta_steps, phi_steps):
            lines.append("f " + " ".join(str(i) for i in face))

    _write_text(args.out, "\n".join(lines) + "\n")
    print(
        f"scene written to {args.out}: {cell.n_vertices} horoballs, "
        f"{vertex_count} mesh vertices, worst quadric residual {worst_residual:.3g}"
    )
    return 0, (), [], {"quadric_residual": worst_residual}


def _cmd_bf(args) -> tuple[int, tuple, list, dict]:
    value = bf_constant()
    bound = bf_series_tail_bound()
    best_336 = max(r.density for r in certify_optimum((3, 3, 6)))
    diff = abs(value - best_336)
    ok = diff <= 1e-6
    print("Packing-density upper bound for congruent horoballs")
    print(f"  series value       {_fmt(value)}")
    print(f"  truncation bound   {bound:.3e}")
    print(f"  optimal (3,3,6)    {_fmt(best_336)}")
    print(f"  |difference|       {diff:.3e}  {'ok' if ok else 'MISS'}")
    columns = ("bf_constant", "truncation_bound", "density_336", "difference")
    rows = [(value, bound, best_336, diff)]
    return (0 if ok else 1), columns, rows, {"match": 1e-6}


class UsageError(Exception):
    pass


def _s_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI, got {text!r}"
        ) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"LO and HI must be finite, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty s range, got {text!r}")
    return lo, hi


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and non-negative, got {text!r}"
        )
    return tol


def _at_least(minimum: int, message: str):
    """argparse type: an int of at least ``minimum``, else ``message``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{message}, got {text!r}")
        return value

    return parse


def _grid_spec(text: str) -> tuple[int, int]:
    try:
        phi, theta = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected PHIxTHETA, got {text!r}") from None
    if phi < 3 or theta < 2:
        raise argparse.ArgumentTypeError("grid needs at least 3x2")
    return phi, theta


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horopack",
        description="Horoball packings of fully asymptotic Coxeter cells.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="optimal densities for all four tilings")
    p.add_argument("--tol", type=_tolerance, default=None, help="override per-row tolerance")
    _output_flags(p)

    p = sub.add_parser("sweep", help="density along a one-parameter family")
    p.add_argument("tiling", type=_parse_tiling)
    p.add_argument("--family", required=True, help="family name (see module docs)")
    p.add_argument("--s-range", type=_s_range, default=None, metavar="LO:HI")
    p.add_argument("--steps", type=_at_least(1, "need at least 1 step"), default=51)
    _output_flags(p)

    p = sub.add_parser("volumes", help="closed-form and Monte Carlo cell volumes")
    samples = _at_least(MIN_SAMPLES, "need at least 10^4 samples")
    seed = _at_least(0, "seed must be non-negative")
    p.add_argument("--samples", type=samples, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=seed, default=DEFAULT_SEED)
    _output_flags(p)

    p = sub.add_parser("scene", help="Klein-model mesh of a cataloged arrangement")
    p.add_argument("tiling", type=_parse_tiling)
    p.add_argument("--label", default="", help="arrangement label, e.g. B1")
    p.add_argument("--out", required=True, help="output mesh path (.obj)")
    p.add_argument("--grid", type=_grid_spec, default=(64, 32), metavar="PHIxTHETA")

    p = sub.add_parser("bf", help="packing-density upper-bound constant")
    _output_flags(p)

    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write machine-readable output here")


_DISPATCH = {
    "table2": _cmd_table2,
    "sweep": _cmd_sweep,
    "volumes": _cmd_volumes,
    "scene": _cmd_scene,
    "bf": _cmd_bf,
}


def _join_s_range(argv: list) -> list:
    """Write ``--s-range LO:HI`` as ``--s-range=LO:HI``: argparse takes a
    value with a negative LO such as -0.3:0.1 for an option, not a value."""
    out = []
    for token in argv:
        if out and out[-1] == "--s-range" and ":" in token:
            out[-1] = f"--s-range={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser().parse_args(_join_s_range(argv))
    args.raw_argv = argv
    started = time.perf_counter()
    try:
        code, columns, rows, tolerances = _DISPATCH[args.command](args)
        out = getattr(args, "out", None)
        if out is not None:
            if args.command != "scene":
                meta = {"command": args.command, "version": __version__}
                _write_machine(out, args.format, columns, rows, meta)
                print(f"wrote {out}")
            if stat.S_ISREG(os.stat(out).st_mode):
                _write_manifest(out, args, started, tolerances)
    except (GeometryError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
