from __future__ import annotations

import csv
import decimal
import io
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import horopack
from horopack import cli
from horopack.cli import main
from horopack.horoball import pencil_value
from horopack.packing import Family, InvalidPackingError, catalog, family, sweep

DIGITS = decimal.Context(prec=40)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert horopack.__version__ in capsys.readouterr().out


def test_table2_output_and_stars(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    lines = {w: next(l for l in out.splitlines() if l.strip().startswith(w))
             for w in ("(3,3,6)", "(3,4,4)", "(4,3,6)", "(5,3,6)")}
    for line in lines.values():
        assert " ok" in line
    # only the simplex and cube tilings reach the universal bound
    assert "*" in lines["(3,3,6)"] and "*" in lines["(4,3,6)"]
    assert "*" not in lines["(3,4,4)"] and "*" not in lines["(5,3,6)"]


def test_table2_strict_tolerance_fails(capsys):
    # the published targets are 6-digit roundings, so 1e-9 must miss
    assert main(["table2", "--tol", "1e-9"]) == 1
    assert "MISS" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_table2_rejects_bad_tolerance(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table2", f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and repr(tol) in captured.err
    assert "MISS" not in captured.out


def test_table2_json_and_manifest(tmp_path, capsys):
    out = tmp_path / "table2.json"
    assert main(["table2", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["columns"][0] == "tiling"
    assert len(payload["rows"]) == 4
    starred = {row[0]: row[5] for row in payload["rows"]}
    assert starred == {"(3,3,6)": 1, "(3,4,4)": 0, "(4,3,6)": 1, "(5,3,6)": 0}
    manifest = json.loads((tmp_path / "table2.json.manifest.json").read_text())
    assert manifest["command"][:2] == ["horopack", "table2"]
    assert manifest["version"] == horopack.__version__
    assert manifest["wall_time_s"] > 0
    assert "tolerances" in manifest and "seed" in manifest


def test_sweep_csv_grid_and_endpoint_maxima(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "336", "--family", "main", "--steps", "51", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["s", "x", "density", "V0", "V1", "V2", "V3"]
    assert len(rows) == 51
    s = [float(r[0]) for r in rows]
    d = [float(r[2]) for r in rows]
    assert s[0] == pytest.approx(0.0) and s[-1] == pytest.approx(0.5)
    assert max(d) == pytest.approx(max(d[0], d[-1]), abs=1e-15)
    assert min(d) < max(d)
    assert "argmax" in capsys.readouterr().out


def test_sweep_deterministic_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "344", "--family", "main", "--steps", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_single_step_and_custom_range(tmp_path):
    out = tmp_path / "one.csv"
    rc = main(
        ["sweep", "336", "--family", "main", "--steps", "1", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0][0]) == pytest.approx(0.0)

    out2 = tmp_path / "range.csv"
    rc = main(
        [
            "sweep", "336", "--family", "main",
            "--s-range", "0.1:0.3", "--steps", "3", "--out", str(out2),
        ]
    )
    assert rc == 0
    _, rows = read_csv(out2)
    assert [float(r[0]) for r in rows] == pytest.approx([0.1, 0.2, 0.3])


def test_sweep_errors(capsys):
    assert main(["sweep", "336", "--family", "nope"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "main" in err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "336", "--family", "main", "--s-range", "0.4:0.1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "336", "--family", "main", "--s-range", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "535", "--family", "main"])
    assert exc.value.code == 2
    for steps in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "336", "--family", "main", "--steps", steps])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err


def test_tiling_arguments_are_three_digits_without_letters(tmp_path, capsys):
    # any punctuation around the three digits reads the same tiling
    outputs = []
    for k, spelling in enumerate(("336", "3,3,6", "(3,3,6)", "3-3-6")):
        out = tmp_path / f"spelling{k}.csv"
        argv = ["sweep", spelling, "--family", "main", "--steps", "3", "--out", str(out)]
        assert main(argv) == 0
        outputs.append(read_csv(out))
    assert all(o == outputs[0] for o in outputs)
    capsys.readouterr()
    for spelling in ("x3y3z6junk", "336a", "d336", "3e3,6", "33", "\u00b2336", "3\u0663\u0666"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", spelling, "--family", "main"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unsupported tiling" in err


def test_sweep_negative_range_both_forms(tmp_path):
    rows = []
    for k, form in enumerate((["--s-range", "-0.3:0.1"], ["--s-range=-0.3:0.1"])):
        out = tmp_path / f"neg{k}.csv"
        argv = ["sweep", "344", "--family", "main", *form, "--steps", "3"]
        assert main([*argv, "--out", str(out)]) == 0
        _, grid = read_csv(out)
        assert [float(r[0]) for r in grid] == pytest.approx([-0.3, -0.1, 0.1])
        rows.append([r[1:] for r in grid])
    assert rows[0] == rows[1]


def test_sweep_missing_range_value(capsys):
    for argv in (["--s-range"], ["--s-range", "--steps", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "344", "--family", "main", *argv])
        assert exc.value.code == 2
        assert "argument --s-range: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", ["inf:inf", "nan:0.3", "0.1:-inf"])
def test_sweep_rejects_non_finite_range(bounds, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "336", "--family", "main", f"--s-range={bounds}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and repr(bounds) in err


def test_volumes_subcommand(tmp_path, capsys):
    out = tmp_path / "volumes.csv"
    rc = main(["volumes", "--samples", "50000", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.count(" ok") == 4
    header, rows = read_csv(out)
    assert header[:3] == ["tiling", "cell_volume", "reference"]
    assert len(rows) == 4
    for row in rows:
        assert float(row[7]) <= 3.0  # mc_sigmas
    manifest = json.loads((tmp_path / "volumes.csv.manifest.json").read_text())
    assert manifest["samples"] == 50000
    assert manifest["seed"] == 20240816


def test_volumes_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["volumes", "--samples", "10000", "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "non-negative" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("samples", ["9999", "100", "0", "-5", "1e4", "many"])
def test_volumes_rejects_bad_sample_counts(samples, capsys):
    # rejected while parsing, so no report header comes first
    with pytest.raises(SystemExit) as exc:
        main(["volumes", "--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and repr(samples) in captured.err
    assert captured.out == ""


def parse_obj_objects(text):
    objects = {}
    current = None
    vertices = []
    for line in text.splitlines():
        if line.startswith("o "):
            current = line[2:].strip()
            objects[current] = {"v": [], "f": [], "l": []}
        elif line.startswith("v "):
            coords = tuple(float(t) for t in line[2:].split())
            vertices.append(coords)
            objects[current]["v"].append(coords)
        elif line.startswith("f "):
            objects[current]["f"].append(tuple(int(t) for t in line[2:].split()))
        elif line.startswith("l "):
            objects[current]["l"].append(tuple(int(t) for t in line[2:].split()))
    return objects, vertices


def test_scene_obj_export(tmp_path):
    out = tmp_path / "scene.obj"
    rc = main(["scene", "336", "--label", "B2", "--out", str(out), "--grid", "12x6"])
    assert rc == 0
    text = out.read_text()
    objects, vertices = parse_obj_objects(text)
    ball_names = [n for n in objects if n.startswith("horoball_")]
    assert sorted(ball_names) == [f"horoball_{v}" for v in range(4)]
    assert "absolute" in objects and "cell_edges" in objects
    assert len(objects["cell_edges"]["l"]) == 6
    # face indices reference existing vertices
    max_index = max(i for obj in objects.values() for f in obj["f"] for i in f)
    assert max_index <= len(vertices)

    config = next(c for c in catalog((3, 3, 6)) if c.label == "B2")
    extents = {}
    for name in ball_names:
        v = int(name.split("_")[1])
        pts = np.asarray(objects[name]["v"])
        ball = config.horoball(v)
        for p in pts:
            lifted = np.concatenate(([1.0], p))
            assert abs(pencil_value(ball, lifted)) < 1e-9
        extents[v] = float(np.max(pts.max(axis=0) - pts.min(axis=0)))
    # the apex ball of this arrangement is visibly larger than the others
    assert extents[3] > 1.4 * max(extents[v] for v in range(3))

    manifest = json.loads((tmp_path / "scene.obj.manifest.json").read_text())
    assert manifest["tolerances"]["quadric_residual"] < 1e-9


def test_scene_unknown_label(capsys):
    assert main(["scene", "336", "--label", "B9", "--out", "/tmp/unused.obj"]) == 2
    err = capsys.readouterr().err
    assert "B1" in err and "B2" in err
    assert main(["scene", "336", "--out", "/tmp/unused.obj"]) == 2


def test_scene_unknown_label_lists_congruent_levels_once(tmp_path, capsys):
    # the uniform dodecahedral arrangement B1 has one level, although its
    # balls' computed levels differ in the last bits; each listed level is
    # the 15-digit rounding of its exact value
    with decimal.localcontext(DIGITS):
        r3, r5 = Decimal(3).sqrt(), Decimal(5).sqrt()
        exact = {"B1": [((3 - r5) / 6).sqrt()], "B2": [(3 - r5) / (2 * r3), 1 / r3]}
    digits15 = decimal.Context(prec=15)
    assert main(["scene", "536", "--label", "X", "--out", str(tmp_path / "x.obj")]) == 2
    err = capsys.readouterr().err
    for label, levels in exact.items():
        line = next(line for line in err.splitlines() if line.strip().startswith(f"{label}:"))
        assert line.split("levels ")[1] == ", ".join(str(h.normalize(digits15)) for h in levels)


def test_scene_bad_grid():
    with pytest.raises(SystemExit) as exc:
        main(["scene", "336", "--label", "B1", "--out", "/tmp/x.obj", "--grid", "2x1"])
    assert exc.value.code == 2


def test_bf_subcommand(tmp_path, capsys):
    out = tmp_path / "bf.json"
    rc = main(["bf", "--format", "json", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "ok" in stdout
    payload = json.loads(out.read_text())
    assert payload["columns"] == [
        "bf_constant",
        "truncation_bound",
        "density_336",
        "difference",
    ]
    value, bound, best, diff = payload["rows"][0]
    assert value == pytest.approx(0.85327609, abs=1e-7)
    assert diff <= 1e-6
    assert bound < 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ["table2"],
        ["sweep", "336", "--family", "main", "--steps", "3"],
        ["volumes", "--samples", "10000"],
        ["bf"],
    ],
    ids=["table2", "sweep", "volumes", "bf"],
)
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.parent.exists()


def test_sweep_out_of_range_error_line(capsys):
    assert main(["sweep", "336", "--family", "main", "--s-range", "0.6:0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: family 'main' of (3, 3, 6) needs s in [0, 0.5], got 0.6\n"
    )
    assert captured.out == ""


SRC = str(Path(horopack.__file__).resolve().parent.parent)


def run_fresh(argv, cwd) -> int:
    """One CLI call in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "horopack.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    return done.returncode


def _without_wall_time(path) -> dict:
    manifest = json.loads(Path(path).read_text())
    del manifest["wall_time_s"]
    return manifest


def test_parser_is_built_once_and_not_at_import():
    code = (
        "from horopack import cli; "
        "assert cli._build_parser.cache_info().currsize == 0; "
        "assert cli._build_parser() is cli._build_parser()"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cached_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    calls = [
        (["sweep", "336", "--family", "main", "--s-range", "0.1:0.3", "--steps", "5"],
         "narrow.csv", 0),
        (["sweep", "336", "--family", "main", "--steps", "5"], "default.csv", 0),
        (["volumes", "--samples", "10000", "--seed", "7"], "volumes.csv", 0),
        (["table2", "--tol", "1"], "loose.csv", 0),
        (["table2"], "table2.csv", 0),
        (["sweep", "999"], None, None),
        (["bf", "--format", "json"], "bf.json", 0),
    ]
    here, fresh = tmp_path / "in_process", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    for argv, out, code in calls:
        argv = argv + ["--out", out] if out else argv
        if code is None:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == code
        assert run_fresh(argv, fresh) == (2 if code is None else code)
    capsys.readouterr()
    outputs = sorted(p.name for p in here.iterdir())
    assert outputs == sorted(p.name for p in fresh.iterdir())
    assert len(outputs) == 12
    for name in outputs:
        if name.endswith(".manifest.json"):
            assert _without_wall_time(here / name) == _without_wall_time(fresh / name)
        else:
            assert (here / name).read_bytes() == (fresh / name).read_bytes()
    # the family's default range came back after the narrowed call
    _, rows = read_csv(here / "default.csv")
    assert [float(r[0]) for r in rows] == pytest.approx([0.0, 0.125, 0.25, 0.375, 0.5])
    manifest = json.loads((here / "table2.csv.manifest.json").read_text())
    assert manifest["tolerances"]["tol"] is None and manifest["seed"] is None


# ---------------------------------------------------------------------------
# the output writer


def reference_machine_text(fmt, columns, rows, meta) -> str:
    """Data file text as the csv.writer + ``_fmt`` writer produced it."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{v:.15g}" if isinstance(v, float) else v for v in row])
        return buf.getvalue()
    payload = {
        "schema_version": 1,
        **meta,
        "columns": list(columns),
        "rows": [
            [v if not isinstance(v, float) else float(f"{v:.15g}") for v in row]
            for row in rows
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


EDGE_FLOATS = (-0.0, 5e-324, 1e-300, math.inf, -math.inf, math.nan, 0.1 + 0.2)


def machine_tables(capsys):
    """(name, columns, rows) of every subcommand with a data file, and edge rows."""
    parse = cli._build_parser().parse_args
    argvs = [["table2"], ["bf"], ["volumes", "--samples", "10000", "--seed", "7"]]
    argvs += [
        ["sweep", "".join(map(str, tiling)), "--family", fam.name, "--steps", "101"]
        for tiling in ((3, 3, 6), (3, 4, 4), (4, 3, 6), (5, 3, 6))
        for fam in horopack.families(tiling)
    ]
    tables = []
    for argv in argvs:
        _, columns, rows, _ = cli._DISPATCH[argv[0]](parse(argv))
        tables.append((" ".join(argv), columns, rows))
    columns = tuple("abcdefg")
    tables.append(("edge floats", columns, [EDGE_FLOATS, EDGE_FLOATS[::-1]]))
    tables.append(("mixed", columns[:4], [("x,y", 3, -0.0, math.nan), (1.5, "", 0, 2.0)]))
    capsys.readouterr()
    return tables


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_machine_writer_matches_reference_bytes(fmt, tmp_path, capsys):
    meta = {"command": "test", "version": horopack.__version__}
    out = tmp_path / f"out.{fmt}"
    for name, columns, rows in machine_tables(capsys):
        cli._write_machine(str(out), fmt, columns, rows, meta)
        expected = reference_machine_text(fmt, columns, rows, meta).encode()
        assert out.read_bytes() == expected, name


def test_out_may_be_a_pipe_or_a_device(tmp_path, capsys):
    # links keep the manifest sidecar in tmp_path; the data goes through them
    regular = tmp_path / "bf.csv"
    assert main(["bf", "--out", str(regular)]) == 0
    pipe, null = tmp_path / "pipe.csv", tmp_path / "null.csv"
    pipe.symlink_to("/dev/stdout")
    null.symlink_to("/dev/null")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "horopack.cli", "bf", "--out", str(pipe)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert regular.read_bytes() in done.stdout
    assert main(["bf", "--out", str(null)]) == 0
    assert _without_wall_time(tmp_path / "null.csv.manifest.json")["command"][-1] == str(null)


def _without_out(manifest_path, out) -> dict:
    manifest = _without_wall_time(manifest_path)
    command = manifest["command"]
    assert command[command.index("--out") + 1] == str(out)
    command[command.index("--out") + 1] = "OUT"
    return manifest


@pytest.mark.parametrize(
    "first, second",
    [
        (["sweep", "536", "--family", "cube", "--steps", "50"],
         ["sweep", "536", "--family", "cube", "--steps", "3"]),
        (["sweep", "536", "--family", "cube", "--steps", "50", "--format", "json"],
         ["sweep", "536", "--family", "cube", "--steps", "3", "--format", "json"]),
        (["scene", "336", "--label", "B1", "--grid", "24x12"],
         ["scene", "336", "--label", "B1", "--grid", "6x3"]),
    ],
    ids=["csv", "json", "scene"],
)
def test_shorter_overwrite_leaves_no_stale_tail(first, second, tmp_path, capsys):
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert main(first + ["--out", str(reused)]) == 0
    longer = reused.stat().st_size
    assert main(second + ["--out", str(reused)]) == 0
    assert main(second + ["--out", str(fresh)]) == 0
    assert reused.stat().st_size < longer
    assert reused.read_bytes() == fresh.read_bytes()
    assert _without_out(f"{reused}.manifest.json", reused) == _without_out(
        f"{fresh}.manifest.json", fresh
    )


def test_sweep_refuses_a_corrupted_row(monkeypatch, capsys):
    level_matrix = Family.level_matrix

    def corrupted(self, grid):
        levels = level_matrix(self, grid)
        levels[2] *= 3.0  # the balls of one row overlap
        return levels

    monkeypatch.setattr(Family, "level_matrix", corrupted)
    fam = family((4, 3, 6), "polar")
    with pytest.raises(InvalidPackingError) as expected:
        sweep((4, 3, 6), fam, np.linspace(*fam.s_range, 5))
    assert main(["sweep", "436", "--family", "polar", "--steps", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected.value}\n"
    assert captured.out == ""
