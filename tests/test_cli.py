"""Command dispatch, document round-trips, exit codes, and SVG output."""

import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

import hypergon.cli
import hypergon.extremal
from hypergon.cli import (
    RenderSpec,
    body_to_doc,
    body_to_json,
    main,
    polygon_from_doc,
    polygon_to_doc,
    render_svg,
)
from hypergon.errors import ConvergenceError, DomainError
from hypergon.extremal import FINDING_SLACK, minimax_objective, property_suite, sample_simplex, suite_names
from hypergon.measures import euclidean_area
from hypergon.polygon import Body, IdealPolygon, grow_body

from conftest import random_angle_vectors


def write_polygon(path, angles, rotation=0.0):
    doc = {"n": len(angles), "angles": list(angles), "rotation": rotation}
    path.write_text(json.dumps(doc))
    return path


# --- documents -------------------------------------------------------------


def test_polygon_document_round_trip(rng):
    for n in (3, 5, 8):
        angles = random_angle_vectors(rng, n, 1)[0]
        poly = IdealPolygon(tuple(angles), rotation=float(rng.uniform(0, 1)))
        doc = json.loads(json.dumps(polygon_to_doc(poly)))
        assert polygon_from_doc(doc) == poly  # float-exact


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"n": 3, "angles": [0.5, 0.25, 0.25]}, "alpha must be in"),
        ({"n": 4, "angles": [0.25, 0.25, 0.25]}, "n must match"),
        ({"n": 3, "angles": [0.2, 0.2, 0.2]}, "sum to 1"),
        ({"n": 3, "angles": "nope"}, "array of decimals"),
        ([1, 2], "JSON object"),
        ({"n": 3, "angles": [True, 0.5, 0.25]}, "array of decimals"),
        ({"n": 4, "angles": [0.25] * 4, "rotation": True}, "rotation must be a decimal"),
        ({"n": True, "angles": [0.25] * 4}, "n must be an integer"),
        ({"n": 3}, "must carry an 'angles' array"),
    ],
)
def test_polygon_document_diagnostics(doc, message):
    with pytest.raises(DomainError, match=message):
        polygon_from_doc(doc)


def test_body_document_fields():
    doc = body_to_doc(grow_body(IdealPolygon.regular(3), 1))
    assert doc["n"] == 3
    assert doc["generations"] == 1
    assert doc["polygon_counts"] == [1, 3]
    assert len(doc["boundary_angles"]) == 6
    assert doc["euclidean_area"] == pytest.approx(6 * (math.tan(math.pi / 6) * (1 - math.pi * math.tan(math.pi / 6) / 3)), abs=1e-12)
    assert len(doc["checksum"]) == 64
    assert doc["base"]["angles"] == [1 / 3, 1 / 3, 1 / 3]


# --- invert ----------------------------------------------------------------


def test_cmd_invert_prints_twelve_decimals(capsys):
    assert main(["invert", "--side", "0,0.25", "--beta", "0.5"]) == 0
    assert capsys.readouterr().out == "0.147583617650\n"


def test_cmd_invert_fixed_endpoint(capsys):
    assert main(["invert", "--side", "0,0.25", "--beta", "0"]) == 0
    assert capsys.readouterr().out == "0.000000000000\n"


def test_cmd_invert_rejects_bad_alpha(capsys):
    assert main(["invert", "--side", "0,0.6", "--beta", "0.8"]) == 1
    assert "alpha must be in (0, 0.5)" in capsys.readouterr().err


def test_cmd_invert_rejects_malformed_side(capsys):
    assert main(["invert", "--side", "zero", "--beta", "0.5"]) == 1


def test_cmd_invert_accepts_a_negative_side_start(capsys):
    # an option value may start with '-'; -0.1 is the vertex 0.9
    assert main(["invert", "--side", "-0.1,0.25", "--beta", "0.5"]) == 0
    negative = capsys.readouterr().out
    assert main(["invert", "--side", "0.9,0.25", "--beta", "0.5"]) == 0
    assert negative == capsys.readouterr().out


def test_cmd_invert_accepts_a_negative_beta(capsys):
    # -1e-3 is the boundary point 0.999
    assert main(["invert", "--side", "0,0.25", "--beta", "-1e-3"]) == 0
    assert capsys.readouterr().out == "0.000993756067\n"


# --- grow ------------------------------------------------------------------


def test_cmd_grow_regular_triangle(tmp_path, capsys):
    src = write_polygon(tmp_path / "d3.json", [1 / 3] * 3)
    out = tmp_path / "body.json"
    assert main(["grow", "--in", str(src), "--generations", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["polygon_counts"] == [1, 3]
    assert np.allclose(doc["boundary_angles"], 1 / 6, atol=1e-12)


def test_cmd_grow_zero_generations_echoes(tmp_path):
    angles = [0.2, 0.3, 0.1, 0.4]
    src = write_polygon(tmp_path / "p.json", angles)
    out = tmp_path / "body.json"
    assert main(["grow", "--in", str(src), "--generations", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # angles come back as vertex-gap differences, exact to the last ulp only
    assert np.allclose(sorted(doc["boundary_angles"]), sorted(angles), atol=1e-15)


def _grown_document_text(tmp_path, poly, generations):
    """The body file ``grow`` writes, checked against a reference built here:
    one json.dumps of the document's dict, with the arcs hashed apart."""
    src = write_polygon(tmp_path / "p.json", poly.angles, poly.rotation)
    out = tmp_path / "body.json"
    assert main(["grow", "--in", str(src), "--generations", str(generations), "--out", str(out)]) == 0
    text = out.read_text()
    body = grow_body(poly, generations)
    arcs = body.boundary_angles.tolist()
    doc = {
        "n": poly.n,
        "generations": generations,
        "polygon_counts": list(body.polygon_counts),
        "boundary_angles": arcs,
        "euclidean_area": euclidean_area(body.boundary_angles),
        "base": {"n": poly.n, "angles": list(poly.angles), "rotation": poly.rotation},
        "checksum": hashlib.sha256(json.dumps(arcs).encode()).hexdigest(),
    }
    assert text == json.dumps(doc) + "\n"
    assert body_to_doc(body) == doc
    boundary = text.split('"boundary_angles": ', 1)[1].split("]", 1)[0] + "]"
    assert json.loads(text)["checksum"] == hashlib.sha256(boundary.encode()).hexdigest()
    return text


def test_cmd_grow_writes_the_body_document(tmp_path):
    _grown_document_text(tmp_path, IdealPolygon((0.2, 0.3, 0.15, 0.35), 0.1), 3)


def test_cmd_grow_writes_exponent_form_arcs(tmp_path):
    # at s=6 the narrowest arcs are near 3.6e-8 and print in exponent form
    text = _grown_document_text(tmp_path, IdealPolygon((0.2, 0.3, 0.15, 0.35), 0.1), 6)
    assert "e-08" in text


# the seeded digests' near-regular triangle, whose last side ends in ...334
NEAR_REGULAR = (0.3333333333333333, 0.3333333333333333, 0.3333333333333334)


@pytest.mark.parametrize(
    "angles, blocks",
    [
        *[pytest.param(IdealPolygon.regular(n).angles, n, id=f"regular{n}") for n in range(3, 9)],
        pytest.param((0.2, 0.3, 0.2, 0.3), 2, id="pqpq"),
        pytest.param((0.2, 0.3, 0.3, 0.2), 1, id="pqqp"),
        pytest.param((0.3, 0.33, 0.37), 1, id="distinct"),
        pytest.param(NEAR_REGULAR, 1, id="near-regular"),
    ],
)
@pytest.mark.parametrize("rotation", [0.0, 0.37, 0.999])
def test_body_json_formats_one_repeating_block(monkeypatch, angles, blocks, rotation):
    # the rotation moves the smallest fraction, so the boundary starts at
    # a different arc of the repeating block
    body = grow_body(IdealPolygon(angles, rotation), 3)
    arcs = body.boundary_angles
    formatted = []

    def dumps(obj):
        if isinstance(obj, list):
            formatted.append(len(obj))
        return json.dumps(obj)

    monkeypatch.setattr(hypergon.cli, "json", SimpleNamespace(dumps=dumps))
    text = body_to_json(body)
    monkeypatch.undo()
    expected = json.dumps(arcs.tolist())
    boundary = text.split('"boundary_angles": ', 1)[1].split("]", 1)[0] + "]"
    assert boundary == expected
    assert json.loads(text)["checksum"] == hashlib.sha256(expected.encode()).hexdigest()
    assert formatted == [arcs.size // blocks]


def test_body_json_repeats_only_whole_blocks():
    # seven arcs under a square's base repeat with period 3, but two blocks
    # of three cannot make seven arcs, so the text must still hold all seven
    arcs = [0.1, 0.2, 0.15, 0.1, 0.2, 0.15, 0.1]
    body = Body(IdealPolygon.regular(4), 0, (), np.array(arcs))
    boundary = body_to_json(body).split('"boundary_angles": ', 1)[1].split("]", 1)[0] + "]"
    assert boundary == json.dumps(arcs)


def _arcs_body(sizes, n=4):
    """A hand-built body under the regular n-gon: one random block of arcs
    per entry of ``sizes``, each block repeated as many times as it is listed."""
    rng = np.random.default_rng(sum(sizes))
    blocks = {size: rng.uniform(0.5, 1.5, size) for size in set(sizes)}
    arcs = np.concatenate([blocks[size] for size in sizes])
    return Body(IdealPolygon.regular(n), 0, (), arcs / arcs.sum())


def _grow_into(tmp_path, monkeypatch, body, *extra):
    """Run ``grow`` with ``grow_body`` returning ``body``; returns the body file."""
    monkeypatch.setattr(hypergon.cli, "grow_body", lambda *args: body)
    src = write_polygon(tmp_path / "p.json", body.base.angles, body.base.rotation)
    out = tmp_path / "body.json"
    argv = ["grow", "--in", str(src), "--generations", str(body.generations), "--out", str(out), *extra]
    assert main(argv) == 0
    return out


@pytest.mark.parametrize(
    "body",
    [
        *[pytest.param(_arcs_body([size]), id=f"{size}-arcs") for size in (8191, 8192, 8193, 16385)],
        pytest.param(_arcs_body([8193, 8193]), id="two-blocks-of-8193"),
        pytest.param(grow_body(IdealPolygon.regular(8), 4), id="regular8-s4"),
    ],
)
def test_grow_writes_the_document_piece_by_piece(tmp_path, monkeypatch, body):
    # pieces end at 8,192 arcs, so these bodies end a piece one arc short of,
    # at, and one past a boundary, and one repeats a block of two pieces
    arcs = body.boundary_angles.tolist()
    doc = {
        "n": body.base.n,
        "generations": body.generations,
        "polygon_counts": list(body.polygon_counts),
        "boundary_angles": arcs,
        "euclidean_area": euclidean_area(body.boundary_angles),
        "base": polygon_to_doc(body.base),
        "checksum": hashlib.sha256(json.dumps(arcs).encode()).hexdigest(),
    }
    text = _grow_into(tmp_path, monkeypatch, body).read_text()
    assert text == body_to_json(body) + "\n" == json.dumps(doc) + "\n"


@pytest.mark.parametrize("figure", [False, True], ids=["document", "figure"])
def test_grow_writes_in_memory_bounded_by_its_output(tmp_path, monkeypatch, figure):
    # the document of 98,304 arcs peaks at the area check's list of the arcs
    # (32 bytes an arc), not at its text; the figure of 98,302 cells holds
    # one generation's vertex array and one piece of 8,192 cells as Python
    # floats, about a quarter of its text; a cache of every vertex cycle
    # would hold about its whole text
    body = grow_body(IdealPolygon((0.3, 0.33, 0.37)), 15)
    svg = tmp_path / "fig.svg"
    tracemalloc.start()
    try:
        out = _grow_into(tmp_path, monkeypatch, body, *(["--svg", str(svg)] if figure else []))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (0.5 if figure else 1.5) * (svg if figure else out).stat().st_size


def test_cmd_grow_depth_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERGON_MAX_SIDES", "10")
    src = write_polygon(tmp_path / "d4.json", [0.25] * 4)
    out = tmp_path / "body.json"
    assert main(["grow", "--in", str(src), "--generations", "2", "--out", str(out)]) == 1


@pytest.mark.parametrize("cap", ["0", "-1", "abc"])
def test_cmd_grow_rejects_non_positive_cap(tmp_path, monkeypatch, capsys, cap):
    monkeypatch.setenv("HYPERGON_MAX_SIDES", cap)
    src = write_polygon(tmp_path / "d4.json", [0.25] * 4)
    out = tmp_path / "body.json"
    assert main(["grow", "--in", str(src), "--generations", "1", "--out", str(out)]) == 1
    assert "HYPERGON_MAX_SIDES must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["grow", "render"])
def test_deep_growth_is_refused_without_a_traceback(tmp_path, command):
    # 3*2^20000 has 6,022 digits, past the default limit of int-to-text conversion
    if command == "grow":
        src = write_polygon(tmp_path / "d3.json", [1 / 3] * 3)
    else:
        doc = body_to_doc(grow_body(IdealPolygon.regular(3), 1))
        doc["generations"] = 20_000
        src = tmp_path / "b.json"
        src.write_text(json.dumps(doc))
    argv = [command, "--in", str(src), "--out", str(tmp_path / "out")]
    if command == "grow":
        argv += ["--generations", "20000"]
    proc = subprocess.run([sys.executable, "-m", "hypergon", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: projected boundary side count 3*2^20000 exceeds cap 1000000\n"
    assert not (tmp_path / "out").exists()


def test_cmd_grow_missing_input_is_io_error(tmp_path, capsys):
    assert main(["grow", "--in", str(tmp_path / "nope.json"), "--generations", "1", "--out", str(tmp_path / "o.json")]) == 3


def test_cmd_grow_invalid_json_is_invalid_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["grow", "--in", str(bad), "--generations", "1", "--out", str(tmp_path / "o.json")]) == 1


# a 5,000-digit integer where each document's checks would refuse it, for a
# Python whose decoder takes it
LONG_INTEGER = {
    "area": '{"angles": [%s, 0.5, 0.5]}',
    "grow": '{"angles": [%s, 0.5, 0.5]}',
    "render": '{"base": {"angles": [%s, 0.5, 0.5]}, "generations": 1}',
    "render-spec": '{"precision": %s}',
}


@pytest.mark.parametrize("bad", ["not-utf8", "deep", "long-integer"])
@pytest.mark.parametrize("command", list(LONG_INTEGER))
def test_unreadable_documents_are_refused_without_a_traceback(tmp_path, command, bad):
    data = {
        "not-utf8": b"\xff\xfe\x00",
        "deep": b"[" * 100_000 + b"]" * 100_000,
        "long-integer": (LONG_INTEGER[command] % ("1" * 5000)).encode(),
    }[bad]
    doc = tmp_path / "doc.json"
    doc.write_bytes(data)
    (tmp_path / "b.json").write_text(body_to_json(grow_body(IdealPolygon.regular(3), 1)))
    out = str(tmp_path / "out")
    argv = {
        "area": ["area", "--in", str(doc)],
        "grow": ["grow", "--in", str(doc), "--generations", "1", "--out", out],
        "render": ["render", "--in", str(doc), "--out", out],
        "render-spec": ["render", "--in", str(tmp_path / "b.json"), "--out", out, "--spec", str(doc)],
    }[command]
    proc = subprocess.run([sys.executable, "-m", "hypergon", *argv], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_cmd_grow_precision_exhausted_exits_four(tmp_path, capsys):
    # a valid polygon whose second generation has arcs below the guard
    src = write_polygon(tmp_path / "thin.json", [0.3, 0.3, 0.399, 0.001])
    out = tmp_path / "body.json"
    assert main(["grow", "--in", str(src), "--generations", "2", "--out", str(out)]) == 4
    assert "error: arc width underflow" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_grow_writes_svg(tmp_path):
    src = write_polygon(tmp_path / "d3.json", [1 / 3] * 3)
    svg = tmp_path / "fig.svg"
    assert main(["grow", "--in", str(src), "--generations", "2", "--out", str(tmp_path / "b.json"), "--svg", str(svg)]) == 0
    # the file, written cell by cell, is the figure's text
    assert svg.read_text() == render_svg(grow_body(IdealPolygon((1 / 3,) * 3), 2))


@pytest.mark.parametrize("bad", ["--svg", "--out"])
def test_cmd_grow_writes_no_result_when_an_output_cannot_be_opened(tmp_path, capsys, bad):
    # every output is opened before any is written; a file opened first may be left empty
    src = write_polygon(tmp_path / "p.json", [0.3, 0.3, 0.4])
    paths = {"--out": tmp_path / "b.json", "--svg": tmp_path / "f.svg"}
    paths[bad] = tmp_path / "nodir" / paths[bad].name
    argv = ["grow", "--in", str(src), "--generations", "1"]
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("i/o error: ")
    for path in paths.values():
        assert not path.exists() or path.stat().st_size == 0


def test_cmd_grow_refuses_one_file_for_both_outputs(tmp_path, capsys):
    # two handles on one file would interleave the document and the figure
    src = write_polygon(tmp_path / "p.json", [0.3, 0.3, 0.4])
    out = tmp_path / "x.out"
    assert main(["grow", "--in", str(src), "--generations", "1", "--out", str(out), "--svg", str(out)]) == 1
    assert "--out and --svg must name different files" in capsys.readouterr().err
    assert out.stat().st_size == 0


# --- area ------------------------------------------------------------------


def test_cmd_area_regular_four(tmp_path, capsys):
    src = write_polygon(tmp_path / "d4.json", [0.25] * 4)
    assert main(["area", "--in", str(src)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "euclidean_area 0.858407346410"
    assert out[1] == "upper_bound 0.858407346410"
    assert out[2] == "slack 0.000000000000"


def test_cmd_area_nonregular_has_positive_slack(tmp_path, capsys):
    src = write_polygon(tmp_path / "p.json", [0.2, 0.3, 0.1, 0.4])
    assert main(["area", "--in", str(src)]) == 0
    lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(lines["euclidean_area"]) < 4 - math.pi
    assert float(lines["slack"]) > 0


def test_cmd_area_next_to_a_half_turn_stays_under_the_bound(tmp_path, capsys):
    src = write_polygon(tmp_path / "t.json", [0.5 - 1e-10, 0.3, 0.2 + 1e-10])
    assert main(["area", "--in", str(src)]) == 0
    lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert 0 < float(lines["euclidean_area"]) < float(lines["upper_bound"])


def test_cmd_area_rejects_few_cells_before_printing(tmp_path, capsys):
    src = write_polygon(tmp_path / "d4.json", [0.25] * 4)
    assert main(["area", "--in", str(src), "--hyperbolic", "--cells", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "resolution too low" in err


@pytest.mark.parametrize(
    "doc",
    [{"angles": [10**400, 0.25, 0.25, 0.25]}, {"angles": [0.25] * 4, "rotation": 10**400}],
    ids=["angle", "rotation"],
)
def test_cmd_area_rejects_a_400_digit_integer_without_a_traceback(tmp_path, doc):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "hypergon", "area", "--in", str(path)], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_cmd_area_hyperbolic(tmp_path, capsys):
    src = write_polygon(tmp_path / "d4.json", [0.25] * 4)
    assert main(["area", "--in", str(src), "--hyperbolic", "--cells", "100000"]) == 0
    lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(lines["hyperbolic_area"]) == pytest.approx(math.pi / 2, rel=0.01)
    assert float(lines["hyperbolic_ideal"]) == pytest.approx(math.pi / 2, abs=1e-12)


def test_cmd_area_hyperbolic_next_to_a_cusp_is_finite(tmp_path, capsys):
    src = write_polygon(tmp_path / "narrow.json", [0.3, 0.3, 0.397, 0.003])
    assert main(["area", "--in", str(src), "--hyperbolic"]) == 0
    lines = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert lines["hyperbolic_area"] == "1.570796326795"


# --- extremal ----------------------------------------------------------------


def test_cmd_extremal_small_grid(capsys):
    assert main(["extremal", "--n", "4", "--grid", "1/100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["best_point"] == [0.25, 0.25, 0.25, 0.25]
    assert out["isolation_margin"] > 0
    assert out["seed"] == 0


def test_cmd_extremal_coarse_grid_rejected(capsys):
    assert main(["extremal", "--n", "4", "--grid", "1/3"]) == 1
    assert "too coarse" in capsys.readouterr().err


def test_cmd_extremal_unparsable_grid_rejected(capsys):
    assert main(["extremal", "--n", "4", "--grid", "1/x"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "cannot parse grid step '1/x'" in err


@pytest.mark.parametrize("below, code", [(2 * FINDING_SLACK, 2), (FINDING_SLACK / 2, 0)], ids=["finding", "within-slack"])
def test_cmd_extremal_refined_value_below_regular_is_a_finding(monkeypatch, capsys, below, code):
    regular = minimax_objective(IdealPolygon.regular(3))
    monkeypatch.setattr(hypergon.cli, "refine_minimum", lambda start, tol: (start, regular - below))
    assert main(["extremal", "--n", "3", "--grid", "1/100", "--refine", "--starts", "1"]) == code
    out = json.loads(capsys.readouterr().out)
    assert out["refine"]["best_refined_value"] == regular - below


@pytest.mark.parametrize("step", ["0", "-1/100"])
def test_cmd_extremal_non_positive_grid_rejected(capsys, step):
    assert main(["extremal", "--n", "4", f"--grid={step}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: grid step must be positive\n"


def test_cmd_extremal_negative_grid_step_as_its_own_argument_rejected(capsys):
    assert main(["extremal", "--n", "4", "--grid", "-1/100"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: grid step must be positive\n"


def test_cmd_extremal_negative_tolerance_rejected(capsys):
    argv = ["extremal", "--n", "3", "--grid", "1/100", "--refine", "--starts", "1", "--tol", "-1e-10"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: tolerance must be finite and at least 1e-12\n"


@pytest.mark.parametrize("tail", [["--grid"], ["--grid", "--refine"], ["--grid", "-x"]])
def test_cmd_extremal_missing_option_value_exits_one(capsys, tail):
    assert main(["extremal", "--n", "4", *tail]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --grid: expected one argument" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_cmd_extremal_non_finite_tolerance_rejected(capsys, tol):
    argv = ["extremal", "--n", "3", "--grid", "1/100", "--refine", "--starts", "1", "--tol", tol]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: tolerance must be finite and at least 1e-12\n"


def test_cmd_extremal_refine_reports_basins(capsys):
    assert main(["extremal", "--n", "4", "--grid", "1/100", "--refine", "--starts", "3", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["refine"]["starts"] == 3
    assert out["refine"]["best_refined_value"] <= out["best_value"] + 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "--n", "3", "--grid", "1/100", "--refine", "--starts", "1", "--seed", "-1"],
        ["extremal", "--n", "3", "--grid", "1/100", "--seed", "-1"],
        *(["check", "--suite", suite, "--samples", "5", "--seed", "-1"] for suite in ("lemma32ii", "lemma41", "conj52", "lemma34", "lemma31")),
    ],
)
def test_negative_seed_exits_one(capsys, argv):
    # numpy used to reject the seed with a traceback, after the lattice scan
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer\n"


@pytest.mark.parametrize(
    "tail,message",
    [
        (["--refine", "--tol", "0"], "tolerance must be finite and at least 1e-12"),
        (["--refine", "--starts", "-1"], "number of starts must be a non-negative integer"),
        (["--tol", "nan"], "tolerance must be finite and at least 1e-12"),
        (["--starts", "-3"], "number of starts must be a non-negative integer"),
    ],
    ids=["refine-tol-0", "refine-starts-minus-1", "tol-nan", "starts-minus-3"],
)
def test_cmd_extremal_checks_starts_and_tolerance_before_the_scan(monkeypatch, capsys, tail, message):
    # both used to be checked only by the refinement, after the whole lattice scan
    def scan(*args, **kwargs):
        raise AssertionError("the lattice scan ran")

    monkeypatch.setattr(hypergon.cli, "grid_scan", scan)
    assert main(["extremal", "--n", "5", "--grid", "1/100", *tail]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_cmd_extremal_refine_runs_without_scipy(capsys):
    argv = ["extremal", "--n", "3", "--grid", "1/100", "--refine", "--starts", "3", "--seed", "0"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    # None in sys.modules makes any import of scipy or mpmath fail
    code = "import sys; sys.modules['scipy'] = sys.modules['mpmath'] = None; from hypergon.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


def test_cmd_extremal_refines_the_lattice_minimum_then_each_start(monkeypatch, capsys):
    starts = []

    def recording(start, tol):
        starts.append(start.angles)
        return start, 1.0

    monkeypatch.setattr(hypergon.cli, "refine_minimum", recording)
    assert main(["extremal", "--n", "3", "--grid", "1/100", "--refine", "--starts", "2", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    drawn = sample_simplex(3, 2, np.random.default_rng(5))
    assert starts == [tuple(out["best_point"])] + [tuple(float(a) for a in row) for row in drawn]


def test_cmd_extremal_exits_4_when_refinement_hits_its_cap(monkeypatch, capsys):
    def capped(start, tol):
        raise ConvergenceError("simplex descent hit its iteration cap", start, 1.0)

    monkeypatch.setattr(hypergon.cli, "refine_minimum", capped)
    assert main(["extremal", "--n", "3", "--grid", "1/100", "--refine", "--starts", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: simplex descent hit its iteration cap\n"


# --- check -------------------------------------------------------------------


def test_cmd_check_lemma33(capsys):
    assert main(["check", "--suite", "lemma33"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = json.loads(lines[0])
    assert header == {
        "suite": "lemma33",
        "size": 11,
        "seed": 0,
        "evidence": False,
        "violations": 0,
    }
    assert len(lines) == 12
    case = json.loads(lines[1])
    assert case == {"suite": "lemma33", "case": 0, "status": "pass", "detail": None}


def test_cmd_check_conj52_reports_counterexamples(capsys):
    # exit code 2: the scan finds genuine majorization counterexamples
    assert main(["check", "--suite", "conj52", "--samples", "200", "--seed", "7"]) == 2
    lines = capsys.readouterr().out.splitlines()
    header = json.loads(lines[0])
    assert header["evidence"] is True
    assert header["violations"] > 0
    hits = [json.loads(l) for l in lines[1:] if json.loads(l)["status"] == "violation"]
    assert hits
    assert hits[0]["detail"]["violations"][0]["relation"].startswith("prefix sums")


@pytest.mark.parametrize("suite", suite_names())
def test_cmd_check_lines_match_the_report(capsys, suite):
    # seed 7 makes conj52 record violations at 200 samples
    samples, seed = 200, 7
    code = main(["check", "--suite", suite, "--samples", str(samples), "--seed", str(seed)])
    lines = capsys.readouterr().out.splitlines()
    report = property_suite(suite, samples, seed)
    assert code == (2 if report.violations else 0)
    if suite == "conj52":
        assert report.violations
    by_case = {}
    for v in report.violations:
        by_case.setdefault(v.case, []).append(v.as_dict())
    header = {
        "suite": report.name,
        "size": report.size,
        "seed": report.seed,
        "evidence": report.evidence,
        "violations": len(report.violations),
    }
    expected = [json.dumps(header)]
    for case in range(report.size):
        hits = by_case.get(case)
        line = {
            "suite": report.name,
            "case": case,
            "status": "violation" if hits else "pass",
            "detail": {"violations": hits} if hits else None,
        }
        expected.append(json.dumps(line))
    assert lines == expected
    assert all(json.dumps(json.loads(line)) == line for line in lines)


def test_cmd_check_unknown_suite(capsys):
    assert main(["check", "--suite", "nosuch"]) == 1


def test_cmd_check_is_byte_deterministic(capsys):
    assert main(["check", "--suite", "lemma32ii", "--samples", "300", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--suite", "lemma32ii", "--samples", "300", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


# --- render ------------------------------------------------------------------


def test_cmd_render_structure(tmp_path):
    src = write_polygon(tmp_path / "d3.json", [1 / 3] * 3)
    body_path = tmp_path / "b.json"
    main(["grow", "--in", str(src), "--generations", "2", "--out", str(body_path)])
    fig = tmp_path / "fig.svg"
    assert main(["render", "--in", str(body_path), "--out", str(fig)]) == 0
    root = ET.fromstring(fig.read_text())
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("viewBox") == "-1.05 -1.05 2.1 2.1"
    paths = root.findall("{http://www.w3.org/2000/svg}path")
    assert len(paths) == 1 + 3 + 6
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 1


def test_render_seed_polygon_arcs():
    # generation 0 of the regular 4-gon: four unit-radius arcs
    svg = render_svg(grow_body(IdealPolygon.regular(4), 0))
    root = ET.fromstring(svg)
    paths = root.findall("{http://www.w3.org/2000/svg}path")
    assert len(paths) == 1
    d = paths[0].get("d")
    assert d.count("A 1.000000 1.000000") == 4


ARC = re.compile(r"A (\S+) \S+ 0 0 ([01]) (\S+) (\S+)")


@pytest.mark.parametrize(
    "poly,s",
    [
        (IdealPolygon((0.45, 0.05, 4e-4, 0.4996)), 1),
        (IdealPolygon.regular(3, 0.37), 8),
        (IdealPolygon.regular(8, 0.9), 3),
    ],
)
def test_render_arcs_follow_their_side_widths(poly, s):
    # each arc spans its side's chord, lies on the orthogonal circle of its
    # width, and bulges toward the origin
    body = grow_body(poly, s)
    root = ET.fromstring(render_svg(body, RenderSpec(precision=12)))
    paths = root.findall("{http://www.w3.org/2000/svg}path")
    widths = np.concatenate(body.gaps)
    assert len(paths) == len(widths)
    for path, cell in zip(paths, widths.tolist()):
        d = path.get("d")
        x0, y0 = (float(v) for v in d.split()[1:3])
        arcs = ARC.findall(d)
        assert len(arcs) == len(cell)
        for (r, sweep, x1, y1), w in zip(arcs, cell):
            x1, y1 = float(x1), float(y1)
            chord = math.hypot(x1 - x0, y1 - y0)
            assert chord == pytest.approx(2.0 * math.sin(math.pi * w), abs=1e-11)
            assert abs(float(r) - math.tan(math.pi * min(w, 1.0 - w))) <= 1e-12
            # on screen (y down) a sweep-1 arc turns clockwise, so it bulges to
            # the left of its chord: the side where this cross product is < 0
            assert sweep == str(int((x1 - x0) * -y0 - (y1 - y0) * -x0 < 0))
            x0, y0 = x1, y1


def test_render_is_byte_deterministic():
    body = grow_body(IdealPolygon((0.2, 0.3, 0.15, 0.35)), 2)
    assert render_svg(body) == render_svg(body)


def test_render_spec_from_file(tmp_path):
    src = write_polygon(tmp_path / "d3.json", [1 / 3] * 3)
    body_path = tmp_path / "b.json"
    main(["grow", "--in", str(src), "--generations", "1", "--out", str(body_path)])
    spec_path = tmp_path / "render.json"
    spec_path.write_text(json.dumps({"canvas": 300, "precision": 4, "colors": ["#000000"]}))
    fig = tmp_path / "f.svg"
    assert main(["render", "--in", str(body_path), "--out", str(fig), "--spec", str(spec_path)]) == 0
    text = fig.read_text()
    assert 'width="300"' in text
    assert "#000000" in text


def test_render_spec_validation():
    with pytest.raises(DomainError):
        RenderSpec(precision=2)
    with pytest.raises(DomainError):
        RenderSpec(canvas=0)


def test_render_spec_takes_a_list_of_colors():
    assert RenderSpec(colors=["#000000", "#ffffff"]).colors == ("#000000", "#ffffff")
    with pytest.raises(DomainError, match="colors must be a list of strings"):
        RenderSpec(colors=["#000000", 0])


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"canvas": "720"}, "canvas and precision must be integers"),
        ({"precision": 4.5}, "canvas and precision must be integers"),
        ({"side_stroke": "thin"}, "strokes must be finite decimals"),
        ({"colors": "#000000"}, "colors must be a list of strings"),
        ({"colors": [0]}, "colors must be a list of strings"),
        ({"canvs": 900}, "unknown render spec key 'canvs'"),
        ([], "render spec must be a JSON object"),
        ({"colors": []}, "need at least one generation color"),
        ({"colors": ['red" onload="alert(1)']}, "hex digits, or a name of letters"),
        ({"colors": ["a<b&c"]}, "hex digits, or a name of letters"),
    ],
)
def test_cmd_render_rejects_bad_spec_types(tmp_path, capsys, spec, message):
    src = write_polygon(tmp_path / "d3.json", [1 / 3] * 3)
    body_path = tmp_path / "b.json"
    main(["grow", "--in", str(src), "--generations", "1", "--out", str(body_path)])
    spec_path = tmp_path / "render.json"
    spec_path.write_text(json.dumps(spec))
    fig = tmp_path / "f.svg"
    assert main(["render", "--in", str(body_path), "--out", str(fig), "--spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not fig.exists()


def test_cmd_render_requires_base(tmp_path):
    doc = {"n": 3, "generations": 1, "boundary_angles": [1 / 6] * 6}
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    assert main(["render", "--in", str(path), "--out", str(tmp_path / "f.svg")]) == 1


def test_cmd_render_rejects_boolean_generations(tmp_path, capsys):
    doc = body_to_doc(grow_body(IdealPolygon.regular(3), 1))
    doc["generations"] = True
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    fig = tmp_path / "f.svg"
    assert main(["render", "--in", str(path), "--out", str(fig)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-negative 'generations'" in err
    assert not fig.exists()


@pytest.mark.parametrize("command", ["extremal --dump", "grow --svg", "render --spec"])
def test_an_empty_path_is_an_io_error(tmp_path, monkeypatch, capsys, command):
    # an empty path cannot be opened, like any other such path; it is not a missing option
    src = write_polygon(tmp_path / "d3.json", [1 / 3] * 3)
    body_path, fig = tmp_path / "b.json", tmp_path / "f.svg"
    assert main(["grow", "--in", str(src), "--generations", "1", "--out", str(body_path)]) == 0
    monkeypatch.setattr(hypergon.extremal, "_lattice_classes", None)  # --dump fails before the scan
    argv = {
        "extremal --dump": ["extremal", "--n", "3", "--grid", "1/100", "--dump", ""],
        "grow --svg": ["grow", "--in", str(src), "--generations", "1", "--out", str(body_path), "--svg", ""],
        "render --spec": ["render", "--in", str(body_path), "--out", str(fig), "--spec", ""],
    }[command]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("i/o error: ")
    assert not fig.exists()


def test_cmd_render_write_failure_is_io_error(tmp_path):
    src = write_polygon(tmp_path / "d3.json", [1 / 3] * 3)
    body_path = tmp_path / "b.json"
    main(["grow", "--in", str(src), "--generations", "1", "--out", str(body_path)])
    assert main(["render", "--in", str(body_path), "--out", str(tmp_path / "no" / "dir" / "f.svg")]) == 3


# --- parser ------------------------------------------------------------------


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_missing_subcommand_exits_one():
    assert main([]) == 1


def test_module_entry_point_cross_process_determinism():
    # seeded output must be byte-identical across separate interpreter runs
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "hypergon", "check", "--suite", "conj52", "--samples", "100", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 2  # counterexamples are a finding
    assert second.returncode == 2
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b'{"suite": "conj52"')
