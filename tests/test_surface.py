"""Guards for the names the package exports and the benchmark patches."""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import horopack
from horopack import horoball, packing

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_public_names_resolve_once():
    names = horopack.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(horopack, name), name


def _tracer():
    """A fresh benchmark Tracer, loaded from the benchmark's own file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_benchmark_tracer_installs_on_the_source_tree():
    # the tracer wraps entry points by name; a renamed or deleted one fails
    # install() here instead of only in a benchmark run
    tracer = _tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_benchmark_trace_sees_the_sector_work():
    # the sliding-tangency law and the Monte Carlo carve-out price their
    # balls through the public sector entry point, so the trace counts them
    config = packing.catalog((4, 3, 6))[0]
    cell = config.cell
    edge = next(
        e for e in cell.edges if abs(packing.ball_gap(cell, config.levels, *e)) < 1e-9
    )
    tracer = _tracer()
    tracer.install()
    try:
        start = tracer.snapshot()
        packing.volume_function(config, edge, 0.0)
        middle = tracer.snapshot()
        horoball.cell_volume_oracle(cell, 10_000, 1)
        end = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert tracer.window(start, middle).n("horoball.vertex_sector_volume") == 2
    assert tracer.window(middle, end).n("horoball.vertex_sector_volume") == cell.n_vertices


SOURCES = sorted((ROOT / "src" / "horopack").glob("*.py"))


def _corpus() -> str:
    """The package, the tests, the benchmark scripts and the README."""
    readers = [*SOURCES, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return "\n".join(path.read_text() for path in [*readers, ROOT / "README.md"])


def test_every_definition_in_src_is_referenced():
    # a function, class or module-level name whose name appears nowhere but
    # in its own definition is dead code; count definitions against all
    # mentions
    corpus = _corpus()
    definitions: dict[str, int] = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        names = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names += [t.id for target in targets for t in ast.walk(target)
                          if isinstance(t, ast.Name)]
        for name in names:
            definitions[name] = definitions.get(name, 0) + 1
    unreferenced = sorted(
        name
        for name, count in definitions.items()
        if not name.startswith("__")
        and len(re.findall(rf"\b{re.escape(name)}\b", corpus)) <= count
    )
    assert unreferenced == []


def _is_record(node: ast.ClassDef) -> bool:
    """A @dataclass (bare or called) or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
    )


def test_every_record_field_is_read():
    # a field that no code reads as ``.field`` is stored for nobody and can
    # disagree with what the record derives
    corpus = _corpus()
    unread = sorted(
        f"{node.name}.{field.target.id}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _is_record(node)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and not re.search(rf"\.{re.escape(field.target.id)}\b", corpus)
    )
    assert unread == []
