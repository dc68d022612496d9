"""Guards for the names the package exports and the benchmark patches."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import horopack

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_public_names_resolve_once():
    names = horopack.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(horopack, name), name


def test_benchmark_tracer_installs_on_the_source_tree():
    # the tracer wraps entry points by name; a renamed or deleted one fails
    # install() here instead of only in a benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
