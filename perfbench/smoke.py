"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced call counts repeat exactly for one seed, and that corrupted
outputs fed to the checkers count as failures.  Exits 1 on any failure.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

problems: list = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
    return result


def check_names(workload: str, section: str, metrics: dict) -> None:
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in metrics.items()}
    expect(got == wanted, f"{workload} {section}: metrics differ from BENCHMARK.json: "
           f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}, "
           f"units {[(n, got[n], wanted[n]) for n in wanted if n in got and got[n] != wanted[n]]}")
    for name, m in metrics.items():
        expect(math.isfinite(m["value"]), f"{workload} {name} = {m['value']!r}")


def check_runs() -> None:
    """Every metric with its unit; end-to-end values positive; counts repeat."""
    seed = 7
    for workload in (w["name"] for w in SPEC["workloads"]):
        untraced = run(workload, seed, 0)["metrics"]
        check_names(workload, "end_to_end", untraced)
        for name, m in untraced.items():
            expect(m["value"] > 0, f"{workload} {name} = {m['value']!r} is not positive")
        first, second = (run(workload, seed, 1)["metrics"] for _ in range(2))
        check_names(workload, "per_layer", first)
        counts = [n for n, m in first.items() if m["unit"] == "count"]
        expect(any(first[n]["value"] for n in counts), f"{workload}: every count is zero")
        for name in counts:
            expect(first[name]["value"] == second[name]["value"],
                   f"{workload} {name}: {first[name]['value']} then {second[name]['value']}")


def check_corrupt_outputs() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=out)
    try:
        sweep = workloads.Sweep(workdir, steps=3)
        (weights, name, lo, hi), = sweep.inputs(np.random.default_rng(3))[-1:]
        good = sweep.run([(weights, name, lo, hi)])
        expect(good.failed == 0 and good.attempted == 3, f"clean sweep: {good}")
        path = Path(workdir) / "sweep.csv"
        grid = np.linspace(lo, hi, 3)
        rows = list(csv.reader(path.open(newline="")))
        for column, value in ((2, "{:.15g}"), (3, "{:.15g}"), (4, "nan")):
            bad = [row[:] for row in rows]
            old = float(bad[2][column])
            bad[2][column] = value.format(old * 1.001) if "{" in value else value
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(bad)
            failed, _ = workloads.check_sweep_csv(str(path), weights, grid)
            expect(failed == 1, f"sweep row with column {column} corrupted: {failed} failed")
        bad = [row[:] for row in rows]
        bad[1][2] = repr(workloads.BF_CONSTANT + 1e-3)
        bad[1][3:] = [repr(float(v) * float(bad[1][2]) / float(rows[1][2])) for v in rows[1][3:]]
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(bad)
        failed, _ = workloads.check_sweep_csv(str(path), weights, grid)
        expect(failed == 1, f"sweep row above the upper bound: {failed} failed")

        certify = workloads.Certify(workdir, offsets=1, pair_limit=1)
        expect(certify.run(certify.inputs(np.random.default_rng(3))).failed == 0, "clean certify")
        table2 = Path(workdir) / "table2.json"
        payload = json.loads(table2.read_text())
        payload["rows"][3][2] += 2e-4
        table2.write_text(json.dumps(payload))
        errors = workloads.check_table2_json(str(table2))
        expect(len(errors) == 1, f"table2 row off its target: {errors}")
        expect(workloads.cosh_residual(1.0, math.cosh(0.6) * (1 + 1e-8), 0.3) > workloads.COSH_TOL,
               "cosh-law residual of 1e-8 passes")

        exact = workloads.CELL_VOLUMES[(5, 3, 6)]
        expect(workloads.check_volume((5, 3, 6), exact + 0.01, 0.02) == [], "MC estimate within 1 sigma")
        expect(len(workloads.check_volume((5, 3, 6), exact + 0.2, 0.02)) == 1, "MC estimate 10 sigma off")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    check_corrupt_outputs()
    check_runs()
    for message in problems:
        print(f"FAIL {message}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
