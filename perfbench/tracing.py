"""Layer tracing for the horopack benchmark, installed from outside the package.

Every layer is one module of ``horopack``.  The tracer replaces the public
entry points of each layer with wrappers, in every module namespace that holds
the same function object (``from .x import y`` re-imports included), and puts
the originals back on ``uninstall``.  Nothing under ``src/`` is edited.

Entry points get spans ``(name, start, end, parent, run_id)`` kept in memory;
hot leaf functions (``bilinear_form``, ``ray_crossing``, ``face_bound`` and a
few cheap helpers) are only counted, so the trace does not swamp them.  Each
call into the program from outside it is one request: its spans share a run
id.  A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import Counter

LAYERS = ("cli", "packing", "horoball", "coxeter", "volume", "lorentz")

# (layer, attribute path, span name); attribute paths with a dot are methods
SPANNED = (
    ("cli", "main", "cli.main"),
    ("packing", "configuration", "packing.configuration"),
    ("packing", "validate_packing", "packing.validate_packing"),
    ("packing", "density", "packing.density"),
    ("packing", "volume_function", "packing.volume_function"),
    ("packing", "certify_optimum", "packing.certify_optimum"),
    ("packing", "sweep", "packing.sweep"),
    ("packing", "catalog", "packing.catalog"),
    ("packing", "families", "packing.families"),
    ("packing", "family", "packing.family"),
    ("packing", "contact_offset", "packing.contact_offset"),
    ("packing", "admissible_interval", "packing.admissible_interval"),
    ("packing", "Family.levels", "packing.family_levels"),
    ("packing", "Family.at", "packing.family_at"),
    ("horoball", "vertex_sector_volume", "horoball.vertex_sector_volume"),
    ("horoball", "cell_volume_oracle", "horoball.cell_volume_oracle"),
    ("coxeter", "build_cell", "coxeter.build_cell"),
    ("coxeter", "build_orthoscheme", "coxeter.build_orthoscheme"),
    ("volume", "monte_carlo_volume", "volume.monte_carlo_volume"),
    ("volume", "bf_constant", "volume.bf_constant"),
)

COUNTED = (
    ("lorentz", "bilinear_form", "lorentz.bilinear_form"),
    ("horoball", "ray_crossing", "horoball.ray_crossing"),
    ("horoball", "horoball_level", "horoball.horoball_level"),
    ("coxeter", "Cell.face_bound", "coxeter.face_bound"),
    ("volume", "orthoscheme_volume", "volume.orthoscheme_volume"),
    ("volume", "lobachevsky", "volume.lobachevsky"),
)


def _modules():
    names = ["horopack"] + [f"horopack.{layer}" for layer in LAYERS]
    return [importlib.import_module(name) for name in names]


class Tracer:
    """Spans and counters for one benchmark process."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list = []
        self._patches: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {
            "packing.configuration": self._observe_configuration,
            "packing.validate_packing": self._observe_validation,
            "volume.monte_carlo_volume": self._observe_volume,
        }
        for layer, path, name in SPANNED:
            self._patch(layer, path, lambda fn, n=name: self._span(n, fn, observers.get(n)))
        for layer, path, name in COUNTED:
            self._patch(layer, path, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, layer: str, path: str, make) -> None:
        module = importlib.import_module(f"horopack.{layer}")
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for mod in _modules():
            if mod.__dict__.get(path) is original:
                self._patches.append((mod, path, original))
                setattr(mod, path, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
            else:  # a call from outside the program starts a new request
                parent = -1
                self.run_id += 1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_configuration(self, config) -> None:
        self.counts["packing.tangencies"] += len(config.tangencies)

    def _observe_validation(self, violation) -> None:
        if violation is not None:
            self.counts["packing.rejected"] += 1

    def _observe_volume(self, result) -> None:
        self.counts["volume.mc_results"] += 1
        self.counts["volume.mc_rel_stderr_sum"] += result.stderr / result.value

    # -- reading the trace ---------------------------------------------------

    def snapshot(self) -> tuple[int, Counter]:
        """Position in the trace: number of spans and a copy of the counters."""
        return len(self.spans), Counter(self.counts)

    def window(self, start, end) -> "Window":
        """Spans and counter increments between two snapshots."""
        (s0, c0), (s1, c1) = start, end
        counts = Counter(c1)
        counts.subtract(c0)
        return Window(self.spans, s0, s1, counts)

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_s", "end_s", "parent", "run_id"))
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                out.writerow((index, name, f"{start:.9f}", f"{end:.9f}", parent, run_id))


class Window:
    """Calls, total and self time per span name over a slice of the trace."""

    def __init__(self, spans, first: int, stop: int, counts: Counter):
        self.counts = counts
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        child_time: dict = {}
        for index in range(first, stop):
            name, start, end, parent, _ = spans[index]
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration
            if parent >= first:
                child_time[parent] = child_time.get(parent, 0.0) + duration
        for parent, covered in child_time.items():
            self.self_time[spans[parent][0]] -= covered

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))

    def n(self, name: str) -> int:
        """Calls of a spanned or counted entry point."""
        return self.calls[name] + self.counts[name]
