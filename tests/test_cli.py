from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

import horopack
from horopack.cli import main
from horopack.horoball import pencil_value
from horopack.packing import catalog


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
    assert main(["sweep", "336", "--family", "main", "--s-range", "0.4:0.1"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "336", "--family", "main", "--s-range", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "535", "--family", "main"])
    assert exc.value.code == 2
    for steps in ("0", "-3"):
        assert main(["sweep", "336", "--family", "main", "--steps", steps]) == 2
        assert "error:" in capsys.readouterr().err


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
    assert main(["volumes", "--samples", "10000", "--seed", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


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
