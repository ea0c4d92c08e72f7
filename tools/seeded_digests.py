"""Print a digest of every seeded command's output, to check byte-determinism.

    python3 tools/seeded_digests.py [--root PATH]

Runs a fixed list of seeded commands with ``PATH/src`` on ``PYTHONPATH``,
each in the same fresh temporary directory; ``PATH`` defaults to the
checkout this script is in, so one listing can run against the code of
another checkout.  The commands are the ``extremal`` scan with and without
``--refine`` and ``--dump``, every ``check`` suite, ``grow --svg``,
``render``, ``area``, three library ``majorization_scan`` calls, and
``grow`` and ``area`` of the regular octagon, a seed with exactly equal
sides, ``area --hyperbolic`` of a 4-gon with a side of 0.003, next to a
cusp, and a library ``refine_minimum`` of three draws at each side count
from 3 to 8 and of one start that takes the penalty; ``invert`` of one
point in a quarter-turn side; last, the ``extremal`` scan at n = 4, step
1/150, whose best rotation class has two members, and at n = 5, step
1/100, without ``--dump``; and ``grow`` of a seed with three distinct sides
to 393,216 arcs, a document of many pieces and no repeating block; and
``grow --svg`` of a 5-gon rotated by 0.9 turn, whose vertex fractions wrap
past a full turn; and the n = 4, step 1/150 scan again with ``--dump``, whose
report must not change with it; and ``invert`` of a point next to an end
of a side 1.6e-9 turn wide, across a side 0.4999 wide, of a negative
fraction across a side that wraps past 0, and of a side's midpoint.  New
commands go last, so the listing of an older checkout keeps its lines in
place.  For each command it prints one line: its label, exit code, the
SHA-256 of its stdout and the SHA-256 of each file it wrote.  Two runs of
the same checkout must print the same listing, and a change that keeps
every result must print the listing of its parent.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Input documents written into the working directory before any command.
INPUTS = {
    "quad.json": '{"angles": [0.2, 0.3, 0.15, 0.35]}',
    "tri.json": '{"angles": [0.3333333333333333, 0.3333333333333333, 0.3333333333333334]}',
    "spec.json": '{"canvas": 900, "precision": 12}',
    "oct.json": '{"angles": [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125]}',
    "narrow.json": '{"angles": [0.3, 0.3, 0.397, 0.003]}',
    "distinct.json": '{"angles": [0.3, 0.33, 0.37]}',
    "rot.json": '{"angles": [0.3, 0.15, 0.2, 0.25, 0.1], "rotation": 0.9}',
}

SUITES = (
    "conj51", "conj52", "lemma31", "lemma32i", "lemma32ii", "lemma32iii",
    "lemma33", "lemma34", "lemma41", "lemma42", "thm52",
)

MAJORIZATION = (
    "import json; from hypergon.extremal import majorization_scan; "
    "r = majorization_scan({n}, 20000, seed=3); "
    "print(json.dumps([r.detail, [v.as_dict() for v in r.violations]]))"
)

# Refinement of three draws at every side count, and of a start whose first
# simplex leaves the domain, so that the penalty runs too.
REFINE = """
import numpy as np
from hypergon import IdealPolygon, refine_minimum, sample_simplex
starts = [row for n in range(3, 9) for row in sample_simplex(n, 3, np.random.default_rng(n))]
for start in [*starts, (0.3, 0.3, 0.39, 0.01)]:
    point, value = refine_minimum(IdealPolygon(start))
    print(repr(point.angles), repr(value))
"""

# (label, arguments after the interpreter, files the command writes)
COMMANDS = [
    ("extremal-n4-200", ["-m", "hypergon", "extremal", "--n", "4", "--grid", "1/200"], []),
    ("extremal-n3-dump", ["-m", "hypergon", "extremal", "--n", "3", "--grid", "1/100", "--dump", "g3.csv"], ["g3.csv"]),
    ("extremal-n5-dump", ["-m", "hypergon", "extremal", "--n", "5", "--grid", "1/100", "--dump", "g5.csv"], ["g5.csv"]),
    (
        "extremal-n4-refine",
        ["-m", "hypergon", "extremal", "--n", "4", "--grid", "1/100", "--refine", "--starts", "10", "--seed", "3"],
        [],
    ),
    *[
        (f"check-{suite}", ["-m", "hypergon", "check", "--suite", suite, "--samples", "20000", "--seed", "5"], [])
        for suite in SUITES
    ],
    (
        "grow-quad-s5",
        ["-m", "hypergon", "grow", "--in", "quad.json", "--generations", "5", "--out", "quad-body.json", "--svg", "quad.svg"],
        ["quad-body.json", "quad.svg"],
    ),
    (
        "grow-tri-s12",
        ["-m", "hypergon", "grow", "--in", "tri.json", "--generations", "12", "--out", "tri-body.json", "--svg", "tri.svg"],
        ["tri-body.json", "tri.svg"],
    ),
    (
        "render-quad",
        ["-m", "hypergon", "render", "--in", "quad-body.json", "--out", "quad-render.svg", "--spec", "spec.json"],
        ["quad-render.svg"],
    ),
    ("area-quad", ["-m", "hypergon", "area", "--in", "quad.json", "--hyperbolic", "--cells", "200000"], []),
    *[(f"majorization-n{n}", ["-c", MAJORIZATION.format(n=n)], []) for n in (4, 5, 8)],
    (
        "grow-oct-s4",
        ["-m", "hypergon", "grow", "--in", "oct.json", "--generations", "4", "--out", "oct-body.json", "--svg", "oct.svg"],
        ["oct-body.json", "oct.svg"],
    ),
    ("area-oct", ["-m", "hypergon", "area", "--in", "oct.json", "--hyperbolic", "--cells", "200000"], []),
    ("area-narrow", ["-m", "hypergon", "area", "--in", "narrow.json", "--hyperbolic"], []),
    ("refine-n3-8", ["-c", REFINE], []),
    ("invert-quarter", ["-m", "hypergon", "invert", "--side", "0,0.25", "--beta", "0.5"], []),
    # lattice scans without --dump, one point per rotation class: the best class
    # at n = 4, step 1/150 has two members, and n = 5 runs without its dump
    ("extremal-n4-150", ["-m", "hypergon", "extremal", "--n", "4", "--grid", "1/150"], []),
    ("extremal-n5-100", ["-m", "hypergon", "extremal", "--n", "5", "--grid", "1/100"], []),
    (
        "grow-distinct-s17",
        ["-m", "hypergon", "grow", "--in", "distinct.json", "--generations", "17", "--out", "distinct-body.json"],
        ["distinct-body.json"],
    ),
    (
        "grow-rot-s3",
        ["-m", "hypergon", "grow", "--in", "rot.json", "--generations", "3", "--out", "rot-body.json", "--svg", "rot.svg"],
        ["rot-body.json", "rot.svg"],
    ),
    ("extremal-n4-150-dump", ["-m", "hypergon", "extremal", "--n", "4", "--grid", "1/150", "--dump", "g4.csv"], ["g4.csv"]),
    # inversions next to an end of a narrow side, across a side next to the
    # width cap, of a negative fraction across a side that wraps past 0, and
    # of the arc midpoint, which goes to its antipode
    (
        "invert-narrow",
        ["-m", "hypergon", "invert", "--side", "0,1.6378937069540648e-09", "--beta", "2.6378937053161708e-09"],
        [],
    ),
    ("invert-wide", ["-m", "hypergon", "invert", "--side", "0.3,0.4999", "--beta", "0.1"], []),
    ("invert-negative", ["-m", "hypergon", "invert", "--side", "0.9,0.2", "--beta", "-0.25"], []),
    ("invert-midpoint", ["-m", "hypergon", "invert", "--side", "0,0.25", "--beta", "0.125"], []),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ runs (default: this one)")
    root = parser.parse_args().root.resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in INPUTS.items():
            (work / name).write_text(text)
        for label, argv, written in COMMANDS:
            proc = subprocess.run([sys.executable, *argv], cwd=work, env=env, capture_output=True)
            files = " ".join(
                f"{name}={sha256((work / name).read_bytes()) if (work / name).exists() else 'missing'}"
                for name in written
            )
            print(f"{label} exit={proc.returncode} stdout={sha256(proc.stdout)} {files}".rstrip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
