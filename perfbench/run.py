"""Benchmark for horopack: one workload per process, checked outputs, one JSON line.

    python3 perfbench/run.py --workload {sweep,certify,montecarlo} \
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  Workloads:

- ``sweep``: ``horopack sweep`` over the eight families of the four tilings,
  seeded grid offsets (the paper's density computation; packing, horoball,
  coxeter.face_bound and lorentz do the work, volume is idle).
- ``certify``: ``horopack table2`` and ``horopack bf``, then the law
  V(x) = V(0) cosh 2x at seeded offsets on every tangent catalog pair.
- ``montecarlo``: ``cell_volume_oracle`` on the four cells with seeded
  sample streams (volume and the horoball carve-outs do the work).

With ``--trace 0`` the metrics are end to end and untraced: ``setup_s``
(median over fresh interpreters of importing horopack and building the four
cells), ``peak_rss_mb``, ``work_per_s`` (the workload's units of work per
second over all timed passes: grid points, volume_function evaluations or
samples) and ``task_s`` (mean over passes of the workload's headline time:
one pass of all eight sweeps, in-process table2 + bf, or the Monte Carlo time
to a relative standard error of 1e-4 on every cell).  Means over the whole
run are used because on a shared 2-core host the speed drifts by up to a
factor of two over tens of seconds, and a whole-run mean follows such drift
less than a median of passes does.  The lines above the JSON also give the metrics under their
per-workload names, with ``failed_frac``.

With ``--trace 1`` the metrics are per layer, from a traced run (see
tracing.py): call counts cover the cold cell build plus the first traced pass
and repeat exactly for a seed; times are per traced pass.  The untraced
passes of the same run give the tracing overhead.  Spans are written to
``perfbench/out/spans-<workload>-<seed>.csv`` when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import horopack
for weights in ((3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6)):
    horopack.build_cell(weights)
print(repr(time.perf_counter() - start))
"""

# fresh interpreters timed for setup_s (after one untimed start that writes
# the bytecode cache), by size
SETUP_RUNS = {"full": 5, "tiny": 1}

# per-workload names of the two generic throughput and time metrics
NAMES = {
    "sweep": ("sweep.points_per_s", "sweep.pass_s"),
    "certify": ("certify.law_points_per_s", "certify.table2_s"),
    "montecarlo": ("montecarlo.samples_per_s", "montecarlo.time_to_accuracy_s"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="horopack benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="pass sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _locate_source() -> None:
    if not (SRC / "horopack" / "__init__.py").is_file():
        raise BenchmarkError(f"no horopack source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import horopack

    if Path(horopack.__file__).resolve().parent != SRC / "horopack":
        raise BenchmarkError(f"imported horopack from {horopack.__file__}, not {SRC}")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "horopack").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _manifest(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def measure_setup(runs: int) -> list:
    """Seconds to import horopack and build the four cells in fresh interpreters."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for index in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up interpreter failed:\n{proc.stderr}")
        if index > 0:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_pass(workload, rng, ledger: list):
    result = workload.run(workload.inputs(rng))
    ledger.append(result)
    return result


def run_passes(workload, rng, seconds: float, ledger: list) -> list:
    """Passes until ``seconds`` of wall time have gone, at least one."""
    start = time.perf_counter()
    passes = [run_pass(workload, rng, ledger)]
    while time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, rng, ledger))
    return passes


def _rng(seed: int, stream: int):
    import numpy as np

    return np.random.default_rng([seed, stream])


# streams of the seeded generator: timed passes, traced passes, warm-up
TIMED, TRACED, WARMUP = 0, 1, 2


def end_to_end(args, make_workload, ledger: list) -> tuple[dict, dict]:
    workload = make_workload()
    setup = measure_setup(SETUP_RUNS[args.size])
    workload.run(workload.inputs(_rng(args.seed, WARMUP)))
    passes = run_passes(workload, _rng(args.seed, TIMED), args.seconds, ledger)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work_s = sum(p.work_s for p in passes)  # zero only when every call raised
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "work_per_s": (sum(p.work for p in passes) / work_s if work_s else 0.0, "1/s"),
        "task_s": (statistics.fmean(p.task_s for p in passes), "s"),
    }, {"sizes": workload.sizes(), "setup_runs": len(setup), "passes": len(passes)}


def _lorentz_call_cost() -> float:
    """Seconds per ``bilinear_form`` call on two points, untraced."""
    from horopack import coxeter, lorentz

    a, b = coxeter.build_cell((5, 3, 6)).vertices[:2]
    form = lorentz.bilinear_form
    per_call = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20_000):
            form(a, b)
        per_call.append((time.perf_counter() - start) / 20_000)
    return statistics.median(per_call)


def per_layer(args, make_workload, ledger: list) -> tuple[dict, dict]:
    from tracing import LAYERS, Tracer
    from workloads import TILINGS
    from horopack import coxeter

    tracer = Tracer()
    tracer.install()
    cold_start = tracer.snapshot()
    for weights in TILINGS:
        coxeter.build_cell(weights)
    cold = tracer.window(cold_start, tracer.snapshot())
    tracer.uninstall()

    workload = make_workload()
    call_cost = _lorentz_call_cost()
    workload.run(workload.inputs(_rng(args.seed, WARMUP)))

    # the first traced pass fixes the call counts; then untraced and traced
    # passes alternate, so drifts in machine speed hit both sides alike
    plain_rng, traced_rng = _rng(args.seed, TIMED), _rng(args.seed, TRACED)
    tracer.install()
    first_start = tracer.snapshot()
    traced = [run_pass(workload, traced_rng, ledger)]
    first_end = tracer.snapshot()
    tracer.uninstall()
    plain = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        plain.append(run_pass(workload, plain_rng, ledger))
        tracer.install()
        traced.append(run_pass(workload, traced_rng, ledger))
        tracer.uninstall()
    every = tracer.window(first_start, tracer.snapshot())
    first = tracer.window(first_start, first_end)

    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.csv"))

    n_traced = len(traced)

    def calls(name):
        return cold.n(name) + first.n(name)

    def per_pass(value):
        return value / n_traced

    def self_us(name):
        count = every.calls[name]
        return 1e6 * every.self_time[name] / count if count else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    points = first.n("packing.density") + first.n("packing.volume_function")
    plain_s = statistics.median(p.wall_s for p in plain)
    traced_s = statistics.median(p.wall_s for p in traced)
    mc_total = every.total["volume.monte_carlo_volume"]
    mc_samples = sum(p.work for p in traced) if args.workload == "montecarlo" else 0

    metrics = {
        "cli.calls": (calls("cli.main"), "count"),
        "cli.self_s": (per_pass(every.layer_self("cli")), "s"),
        "cli.bytes_written": (traced[0].bytes_written, "B"),
    }
    for name in ("density", "configuration", "validate_packing", "family_levels", "volume_function"):
        metrics[f"packing.{name}.calls"] = (calls(f"packing.{name}"), "count")
        metrics[f"packing.{name}.self_us"] = (self_us(f"packing.{name}"), "us")
    metrics.update({
        "packing.certify_optimum.self_s": (per_pass(every.self_time["packing.certify_optimum"]), "s"),
        "packing.tangencies_per_config": (
            ratio(first.counts["packing.tangencies"], first.n("packing.configuration")), "ratio"),
        "packing.rejected": (calls("packing.rejected"), "count"),
        "packing.self_s": (per_pass(every.layer_self("packing")), "s"),
        "horoball.vertex_sector_volume.calls": (calls("horoball.vertex_sector_volume"), "count"),
        "horoball.vertex_sector_volume.self_us": (self_us("horoball.vertex_sector_volume"), "us"),
        "horoball.sectors_per_point": (
            ratio(first.n("horoball.vertex_sector_volume"), points), "ratio"),
        "horoball.ray_crossing.calls": (calls("horoball.ray_crossing"), "count"),
        "horoball.horoball_level.calls": (calls("horoball.horoball_level"), "count"),
        "horoball.cell_volume_oracle.self_s": (
            per_pass(every.self_time["horoball.cell_volume_oracle"]), "s"),
        "horoball.self_s": (per_pass(every.layer_self("horoball")), "s"),
        "coxeter.build_cell.cold_s": (cold.total["coxeter.build_cell"], "s"),
        "coxeter.build_cell.calls": (calls("coxeter.build_cell"), "count"),
        "coxeter.face_bound.calls": (calls("coxeter.face_bound"), "count"),
        "coxeter.self_s": (per_pass(every.layer_self("coxeter")), "s"),
        "lorentz.bilinear_form.calls": (calls("lorentz.bilinear_form"), "count"),
        "lorentz.bilinear_form_per_point": (
            ratio(first.n("lorentz.bilinear_form"), points), "ratio"),
        "lorentz.self_s.computed": (
            per_pass(every.n("lorentz.bilinear_form")) * call_cost, "s"),
        "volume.monte_carlo_volume.self_s": (
            per_pass(every.self_time["volume.monte_carlo_volume"]), "s"),
        "volume.monte_carlo_volume.samples_per_s": (ratio(mc_samples, mc_total), "1/s"),
        "volume.mc_rel_stderr": (
            ratio(first.counts["volume.mc_rel_stderr_sum"], first.counts["volume.mc_results"]),
            "ratio"),
        "volume.orthoscheme_volume.calls": (calls("volume.orthoscheme_volume"), "count"),
        "volume.lobachevsky.calls": (calls("volume.lobachevsky"), "count"),
        "volume.bf_constant.s": (per_pass(every.total["volume.bf_constant"]), "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_frac": (ratio(traced_s - plain_s, plain_s), "ratio"),
    })
    layer_self = {layer: per_pass(every.layer_self(layer)) for layer in LAYERS if layer != "lorentz"}
    layer_self["lorentz (computed, inside its callers)"] = metrics["lorentz.self_s.computed"][0]
    return metrics, {
        "traced_pass_s": traced_s,
        "sizes": workload.sizes(),
        "untraced_passes": len(plain),
        "traced_passes": n_traced,
        "spans": len(tracer.spans),
        "bilinear_form_cost_us": 1e6 * call_cost,
        "self_s_per_pass": layer_self,
    }


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        _locate_source()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        options = workloads.TINY[args.workload] if args.size == "tiny" else {}

        def make_workload():
            return workloads.WORKLOADS[args.workload](workdir, **options)

        ledger = []
        measure = per_layer if args.trace else end_to_end
        metrics, details = measure(args, make_workload, ledger)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in ledger)
    failed = sum(p.failed for p in ledger)
    errors = [e for p in ledger for e in p.errors]
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    print("manifest " + json.dumps({**_manifest(args), **details}, sort_keys=True))
    if args.trace:
        pass_s = details["traced_pass_s"]
        for layer, seconds in details["self_s_per_pass"].items():
            print(f"layer {layer}: self_s per traced pass = {seconds:.6g} s "
                  f"({seconds / pass_s:.1%} of {pass_s:.6g} s)")
    else:
        rate_name, task_name = NAMES[args.workload]
        named = {
            "setup_s": metrics["setup_s"],
            "peak_rss_mb": metrics["peak_rss_mb"],
            "failed_frac": (failed / attempted if attempted else 1.0, "ratio"),
            rate_name: metrics["work_per_s"],
            task_name: metrics["task_s"],
        }
        for name, (value, unit) in named.items():
            print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
