"""The benchmark's three workloads and the checks on their outputs.

A workload runs in passes.  ``inputs(rng)`` draws one pass's inputs from the
seeded generator, ``run(inputs)`` calls the program on them, timing only the
program calls, and checks every output afterwards.  Program functions are
looked up on their modules at call time, so the tracer's wrappers are seen.

Reference values used by the checks come from the paper and the literature,
not from the program, so a wrong program cannot vouch for itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from horopack import cli, coxeter, horoball, packing

TILINGS = ((3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6))

# Packing-density upper bound sqrt(3) / (6 Lob(pi/3)), by quadrature at 30 digits.
BF_CONSTANT = 0.8532760883140808

# Volumes of the ideal regular tetrahedron, octahedron, cube and dodecahedron
# with all vertices at infinity (dihedral angles pi/3, pi/2, pi/3, pi/3).
CELL_VOLUMES = {
    (3, 3, 6): 1.0149416064096536,
    (3, 4, 4): 3.6638623767088761,
    (4, 3, 6): 5.0747080320482681,
    (5, 3, 6): 20.580199353900,
}

# Table 2 optimal densities and the number of digits they are published to.
TABLE2 = {
    "(3,3,6)": (0.853276, 1e-5),
    "(3,4,4)": (0.818808, 1e-5),
    "(4,3,6)": (0.853276, 1e-4),
    "(5,3,6)": (0.787251, 1e-4),
}

BOUND_SLACK = 1e-6  # density may reach the upper bound, not pass it
SUM_RTOL = 1e-9  # CSV sector volumes over the cell volume against the density column
COSH_TOL = 1e-9  # |V(x) / V(0) - cosh 2x|, the paper's volume law
MC_SIGMAS = 5.0  # four cells at 3 sigma would miss by chance in about 1 run in 90
MC_TARGET_RSE = 1e-4  # relative standard error of the time-to-accuracy metric


@dataclass
class PassResult:
    """One pass: program time, units of work and the time they took, the
    workload's headline time, and the outputs checked."""

    wall_s: float = 0.0
    work: int = 0
    work_s: float = 0.0
    task_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    errors: list = field(default_factory=list)


def _call_cli(argv) -> tuple[int, float]:
    """Run the CLI in-process with its report lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed


def _remove(path: str) -> None:
    """Delete an earlier call's output, so a call that writes none is caught."""
    if os.path.exists(path):
        os.remove(path)


def _tiling_arg(weights) -> str:
    return "".join(str(w) for w in weights)


# ---------------------------------------------------------------------------
# sweep


def check_sweep_csv(path: str, weights, grid) -> tuple[int, list]:
    """Failed rows of a sweep CSV, and why.  One row is one grid point."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return len(grid), [f"{weights}: empty CSV"]
    header, body = rows[0], rows[1:]
    errors = []
    if len(body) != len(grid):
        errors.append(f"{len(body)} rows for {len(grid)} grid points")
        return len(grid), errors
    failed = 0
    volume = CELL_VOLUMES[tuple(weights)]
    n_sectors = sum(1 for name in header if name.startswith("V"))
    for row, s in zip(body, grid):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = [math.nan]
        problem = None
        if len(values) != 3 + n_sectors or not all(map(math.isfinite, values)):
            problem = "non-finite or short row"
        else:
            s_out, _, dens = values[:3]
            total = math.fsum(values[3:]) / volume
            if abs(s_out - s) > 1e-12 * max(1.0, abs(s)):
                problem = f"s {s_out!r} for grid point {s!r}"
            elif dens > BF_CONSTANT + BOUND_SLACK:
                problem = f"density {dens!r} above the upper bound"
            elif abs(total - dens) > SUM_RTOL * dens:
                problem = f"sector sum / volume {total!r} != density {dens!r}"
        if problem is not None:
            failed += 1
            errors.append(f"{weights} s={s!r}: {problem}")
    return failed, errors


class Sweep:
    """``horopack sweep`` over all eight families, ``steps`` points each.

    Each pass draws one offset per family, so a pass evaluates ``steps`` grid
    points spaced (hi - lo) / steps apart that no earlier pass evaluated.
    """

    def __init__(self, workdir: str, steps: int = 16):
        self.workdir = workdir
        self.steps = steps
        self.families = [
            (weights, fam.name, fam.s_range)
            for weights in TILINGS
            for fam in packing.families(weights)
        ]

    def inputs(self, rng):
        jobs = []
        for weights, name, (lo, hi) in self.families:
            pitch = (hi - lo) / self.steps
            start = lo + rng.random() * pitch
            jobs.append((weights, name, start, start + (self.steps - 1) * pitch))
        return jobs

    def run(self, jobs) -> PassResult:
        out = os.path.join(self.workdir, "sweep.csv")
        result = PassResult()
        for weights, name, lo, hi in jobs:
            argv = [
                "sweep", _tiling_arg(weights), "--family", name,
                f"--s-range={lo!r}:{hi!r}", "--steps", str(self.steps),
                "--format", "csv", "--out", out,
            ]
            result.attempted += self.steps
            _remove(out)
            try:
                code, elapsed = _call_cli(argv)
            except Exception:  # a crash fails every point of the call
                result.failed += self.steps
                result.errors.append(f"sweep {weights} {name} raised\n{traceback.format_exc()}")
                continue
            result.wall_s += elapsed
            result.work += self.steps
            result.work_s += elapsed
            if code != 0 or not os.path.exists(out):
                result.failed += self.steps
                result.errors.append(f"sweep {weights} {name} exited {code}")
                continue
            result.bytes_written += os.path.getsize(out)
            failed, errors = check_sweep_csv(out, weights, np.linspace(lo, hi, self.steps))
            result.failed += failed
            result.errors += errors
        result.task_s = result.wall_s
        return result

    def sizes(self) -> dict:
        return {"families": len(self.families), "steps_per_family": self.steps}


# ---------------------------------------------------------------------------
# certify


MALFORMED = (ValueError, KeyError, IndexError, TypeError)


def check_table2_json(path: str) -> list:
    """Problems with a ``table2`` JSON: each row is one published density."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        columns = payload["columns"]
        tiling, density = columns.index("tiling"), columns.index("density")
        rows = {row[tiling]: row[density] for row in payload["rows"]}
    except MALFORMED as exc:
        return [f"table2 output malformed: {exc!r}"]
    errors = []
    for tiling, (target, tol) in TABLE2.items():
        value = rows.get(tiling)
        if not isinstance(value, (int, float)) or not abs(value - target) <= tol:
            errors.append(f"table2 {tiling}: density {value!r}, published {target} +- {tol}")
    return errors


def check_bf_json(path: str) -> list:
    """Problems with a ``bf`` JSON: the constant and the (3,3,6) optimum."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        row = dict(zip(payload["columns"], payload["rows"][0]))
        constant, optimum = float(row["bf_constant"]), float(row["density_336"])
    except MALFORMED as exc:
        return [f"bf output malformed: {exc!r}"]
    errors = []
    if not abs(constant - BF_CONSTANT) <= 1e-10:
        errors.append(f"bf constant {constant!r}, expected {BF_CONSTANT!r}")
    if not abs(optimum - BF_CONSTANT) <= BOUND_SLACK:
        errors.append(f"(3,3,6) optimum {optimum!r} off the bound")
    return errors


def cosh_residual(v0: float, vx: float, x: float) -> float:
    return abs(vx / v0 - math.cosh(2.0 * x))


class Certify:
    """``horopack table2`` and ``horopack bf``, then the cosh volume law.

    The law is checked on every tangent edge of every catalog arrangement at
    ``offsets`` seeded offsets x in the edge's admissible interval.
    """

    def __init__(self, workdir: str, offsets: int = 2, pair_limit: int | None = None):
        self.workdir = workdir
        self.offsets = offsets
        self.pairs = [
            (config, edge)
            for weights in TILINGS
            for config in packing.catalog(weights)
            for edge in config.cell.edges
            if abs(packing.ball_gap(config.cell, config.levels, *edge)) <= 1e-9
        ][:pair_limit]

    def inputs(self, rng):
        return rng.random((len(self.pairs), self.offsets))

    def run(self, fractions) -> PassResult:
        table2_out = os.path.join(self.workdir, "table2.json")
        bf_out = os.path.join(self.workdir, "bf.json")
        result = PassResult()
        for argv, out, check in (
            (["table2", "--format", "json", "--out", table2_out], table2_out, check_table2_json),
            (["bf", "--format", "json", "--out", bf_out], bf_out, check_bf_json),
        ):
            result.attempted += 1
            _remove(out)
            try:
                code, elapsed = _call_cli(argv)
            except Exception:
                result.failed += 1
                result.errors.append(f"{argv[0]} raised\n{traceback.format_exc()}")
                continue
            result.task_s += elapsed
            result.wall_s += elapsed
            if code != 0 or not os.path.exists(out):
                errors = [f"{argv[0]} exited {code}"]
            else:
                result.bytes_written += os.path.getsize(out)
                errors = check(out)
            result.failed += bool(errors)
            result.errors += errors

        for (config, edge), row in zip(self.pairs, fractions):
            result.attempted += 1 + len(row)
            try:
                start = time.perf_counter()
                lo, hi = packing.admissible_interval(config.cell, edge)
                xs = [lo + f * (hi - lo) for f in row]
                v0 = packing.volume_function(config, edge, 0.0)
                values = [packing.volume_function(config, edge, x) for x in xs]
                elapsed = time.perf_counter() - start
                result.wall_s += elapsed
                result.work_s += elapsed
            except Exception:
                result.failed += 1 + len(row)
                result.errors.append(
                    f"volume law {config.tiling} {edge} raised\n{traceback.format_exc()}"
                )
                continue
            result.work += 1 + len(row)
            if not (math.isfinite(v0) and v0 > 0.0):
                result.failed += 1 + len(row)
                result.errors.append(f"V(0) = {v0!r} on {config.tiling} {edge}")
                continue
            for x, vx in zip(xs, values):
                resid = cosh_residual(v0, vx, x)
                if not resid <= COSH_TOL:
                    result.failed += 1
                    result.errors.append(
                        f"cosh law {config.tiling} {edge} x={x!r}: residual {resid:.3g}"
                    )
        return result

    def sizes(self) -> dict:
        return {
            "tangent_pairs": len(self.pairs),
            "offsets_per_pair": self.offsets,
            "evaluations_per_pass": len(self.pairs) * (1 + self.offsets),
        }


# ---------------------------------------------------------------------------
# montecarlo


def check_volume(weights, value: float, stderr: float) -> list:
    """The Monte Carlo estimate must sit within MC_SIGMAS of the closed form."""
    exact = CELL_VOLUMES[tuple(weights)]
    if not (math.isfinite(value) and stderr > 0.0):
        return [f"Monte Carlo {weights}: value {value!r} stderr {stderr!r}"]
    sigmas = abs(value - exact) / stderr
    if not sigmas <= MC_SIGMAS:
        return [f"Monte Carlo {weights}: {value!r} is {sigmas:.2f} sigma from {exact!r}"]
    return []


class MonteCarlo:
    """``cell_volume_oracle`` on the four cells, ``samples`` samples each.

    ``task_s`` is the time to a relative standard error of 1e-4 on every
    cell, sum over cells of wall * (rel_stderr / 1e-4)^2.
    """

    def __init__(self, workdir: str, samples: int = 1_000_000):
        # writes no files; takes workdir like the other workloads
        self.samples = samples
        self.cells = [(weights, coxeter.build_cell(weights)) for weights in TILINGS]

    def inputs(self, rng):
        return [int(seed) for seed in rng.integers(0, 2**63 - 1, size=len(self.cells))]

    def run(self, seeds) -> PassResult:
        result = PassResult()
        for (weights, cell), seed in zip(self.cells, seeds):
            result.attempted += 1
            try:
                start = time.perf_counter()
                estimate = horoball.cell_volume_oracle(cell, self.samples, seed)
                elapsed = time.perf_counter() - start
            except Exception:
                result.failed += 1
                result.errors.append(f"Monte Carlo {weights} raised\n{traceback.format_exc()}")
                continue
            result.wall_s += elapsed
            result.work += self.samples
            result.work_s += elapsed
            errors = check_volume(weights, estimate.value, estimate.stderr)
            if not errors:
                rse = estimate.stderr / estimate.value
                result.task_s += elapsed * (rse / MC_TARGET_RSE) ** 2
            result.failed += bool(errors)
            result.errors += errors
        return result

    def sizes(self) -> dict:
        return {"cells": len(self.cells), "samples_per_cell": self.samples}


WORKLOADS = {"sweep": Sweep, "certify": Certify, "montecarlo": MonteCarlo}

# pass sizes for the smoke test
TINY = {
    "sweep": {"steps": 2},
    "certify": {"offsets": 1, "pair_limit": 6},
    "montecarlo": {"samples": 20_000},
}
