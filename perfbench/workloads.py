"""The benchmark's workloads: one job each, its output checks, its oracle probe.

Every job drives public entry points in-process: ``hypergon.grid_scan`` and
``hypergon.cli.main`` with stdout captured in memory.  Only those calls are
timed; reading outputs back and checking them is not.  An operation (one
timed call) fails if it raises, exits with code 1 or 3, or its output fails
a check; exit code 2 is a mathematical finding and is expected where noted.

All jobs of a run get the same inputs, so an operation's timings differ
only by how busy the machine was; ``Ops.op_seconds`` keeps them apart by
label for the run's ``wall_s`` (see run.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import hypergon
import hypergon.cli
import hypergon.polygon
import oracle
import warmup

# Minimax objective of the regular 4-gon, the 40-digit value rounded to a double.
REGULAR4 = 0.10241638234956672
# The deepest non-regular seed of the growth-precision probe: s = 6 is its
# last generation before PrecisionError, with a smallest arc of 3.6e-8.
NONREGULAR = (0.2, 0.3, 0.15, 0.35)
# Fixed draws for the kernel precision probe of ``scan``: uniform on the
# simplex, as the suites draw them, so the smallest tables show how much
# absolute turn fractions lose on small arcs.
PROBE_SEED = 1507
PROBE_DRAWS = 20
# Fixed probe added to the refined points of ``refine``: the regular 4-gon
# under Gaussian noise of each scale, where refinement converges and the
# objective's rounding is largest (uniform draws stay lower).
PROBE_REFINE_SCALES = (1e-2, 1e-4, 1e-7)
PROBE_REFINE_DRAWS = 100


class Ops:
    """Times a job's public calls and records which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs: list[dict] = []
        self.begin_job()

    def begin_job(self) -> None:
        self.seconds = 0.0
        self.op_seconds: dict[str, float] = {}
        self.stdout_bytes = 0
        self.file_bytes = 0

    def call(self, label: str, fn, *args):
        """One timed operation; returns its result, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self._timed(label, time.perf_counter() - start)
            self.failed += 1
            print(f"operation {label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        self._timed(label, time.perf_counter() - start)
        return result

    def _timed(self, label: str, seconds: float) -> None:
        self.seconds += seconds
        self.op_seconds[label] = self.op_seconds.get(label, 0.0) + seconds

    def split(self, label: str, steps) -> None:
        """Move the seconds of each successive step of operation ``label``
        out of its entry into an entry of the step's own."""
        for i, seconds in enumerate(steps):
            self.op_seconds[label] -= seconds
            self.op_seconds[f"{label} / step {i}"] = seconds

    def cli(self, argv, expect: int):
        """Timed ``cli.main`` call; returns its stdout, or None if it failed."""
        argv = [str(a) for a in argv]
        label = cli_label(argv)
        result = self.call(label, warmup.cli, argv)
        if result is None:
            return None
        code, out = result
        data = out.encode()
        self.stdout_bytes += len(data)
        self.outputs.append(
            {"argv": label, "exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        )
        if code != expect:
            self.fail(label, [f"exit code {code}, expected {expect}"])
            return None
        return out

    def fail(self, label: str, problems) -> None:
        """Count an operation that returned but failed its output check."""
        if problems:
            self.failed += 1
            print(f"operation {label} failed its check: {'; '.join(problems)}", file=sys.stderr)


def cli_label(argv) -> str:
    return " ".join(str(a) for a in argv)


def _time_steps(name: str, steps: list, results: list | None = None) -> None:
    """Replace ``hypergon.cli.<name>`` with a wrapper that appends the
    seconds of each call to ``steps`` (and its result to ``results``);
    one clock read on each side of a call is all it adds."""
    fn = getattr(hypergon.cli, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        steps.append(time.perf_counter() - start)
        if results is not None:
            results.append(result)
        return result

    setattr(hypergon.cli, name, timed)


def _regular_optimum_problems(point, value) -> list[str]:
    problems = []
    if any(abs(a - 0.25) > 1e-12 for a in point):
        problems.append(f"optimum {point} is not the regular point")
    if abs(value - REGULAR4) > 1e-12 * REGULAR4:
        problems.append(f"optimum value {value!r} differs from {REGULAR4!r}")
    return problems


class Scan:
    """The batched side: one lattice scan and three property suites."""

    def __init__(self, workdir: str):
        self.optimum = None

    def job(self, ops: Ops, seed: int) -> None:
        report = ops.call("grid_scan(4, 1/200)", hypergon.grid_scan, 4, 1.0 / 200.0)
        if report is not None:
            problems = _regular_optimum_problems(report.best_point, report.best_value)
            if report.size != 646_899:
                problems.append(f"{report.size} lattice points, expected 646899")
            if report.violations:
                problems.append("lattice point below the regular value")
            ops.fail("grid_scan(4, 1/200)", problems)
            self.optimum = (report.best_point, report.best_value)
        for suite, samples, expect in (
            ("lemma32iii", 100_000, 0),
            ("conj52", 100_000, 2),
            ("lemma34", 2_000, 0),
        ):
            argv = ["check", "--suite", suite, "--samples", samples, "--seed", seed]
            out = ops.cli(argv, expect)
            if out is None:
                continue
            header = json.loads(out.split("\n", 1)[0])
            problems = []
            if out.count("\n") != header["size"] + 1:
                problems.append("one line per case expected after the header")
            if expect == 0 and header["violations"] != 0:
                problems.append(f"{header['violations']} violations, expected none")
            if expect == 2 and header["violations"] < 1:
                problems.append("no finding recorded")
            ops.fail(suite, problems)

    def max_rel_err(self) -> float:
        point, value = self.optimum
        errs = [oracle.rel_err(value, oracle.objective(point))]
        rng = np.random.default_rng(PROBE_SEED)
        for n in range(3, 9):
            rows = hypergon.sample_simplex(n, PROBE_DRAWS, rng)
            for row, table in zip(rows, hypergon.polygon.angle_tables(rows)):
                errs.append(oracle.table_rel_err(row, table))
        return max(errs)


class Refine:
    """Multi-start Nelder-Mead refinement, one polygon per objective call.

    Each refinement is timed as a step of the ``extremal`` operation.
    """

    STARTS = 40

    def __init__(self, workdir: str):
        self.refined: list[tuple] = []
        self.step_seconds: list[float] = []
        _time_steps("refine_minimum", self.step_seconds, self.refined)

    def job(self, ops: Ops, seed: int) -> None:
        argv = ["extremal", "--n", 4, "--grid", "1/100", "--refine", "--starts", self.STARTS, "--seed", seed]
        before = len(self.refined)
        out = ops.cli(argv, 0)
        ops.split(cli_label(argv), self.step_seconds[before:])
        if out is None:
            return
        doc = json.loads(out)
        problems = _regular_optimum_problems(doc["best_point"], doc["best_value"])
        if doc["lattice_points"] != 78_449:
            problems.append(f"{doc['lattice_points']} lattice points, expected 78449")
        values = [doc["refine"]["best_refined_value"]]
        values += [value for _, value in self.refined[before:]]
        if len(values) != self.STARTS + 2:
            problems.append(f"{len(values) - 2} refinements, expected {self.STARTS + 1}")
        if min(values) < REGULAR4 - 1e-12:
            problems.append(f"refined value {min(values)!r} below the regular value")
        ops.fail("extremal --refine", problems)

    def max_rel_err(self) -> float:
        """Objective at every refined point, at the fixed probe near the
        regular point, and at the images of both under D_n.

        The objective is invariant under cyclic shifts and reversal, so
        the images probe the same value through differently rounded
        inputs.  Every job of a run refines the same starts, so each point
        is replayed once; the fixed probe keeps the largest error from
        resting on the forty-odd points one seed refines.
        """
        errs = []
        distinct = {tuple(point.angles): (point, value) for point, value in self.refined}
        for point, value in distinct.values():
            exact = oracle.objective(point.angles)
            errs.append(oracle.rel_err(value, exact))
            errs += _image_errs(point.angles, exact)
        rng = np.random.default_rng(PROBE_SEED)
        for scale in PROBE_REFINE_SCALES:
            for _ in range(PROBE_REFINE_DRAWS):
                angles = 0.25 + scale * rng.standard_normal(4)
                angles = tuple(angles / angles.sum())
                errs += _image_errs(angles, oracle.objective(angles))
        return max(errs)


def _image_errs(angles, exact) -> list:
    """Relative errors of the objective at the 2n D_n images of ``angles``."""
    angles = list(angles)
    errs = []
    for shift in range(len(angles)):
        turned = angles[shift:] + angles[:shift]
        for image in (turned, turned[::-1]):
            errs.append(oracle.rel_err(hypergon.minimax_objective(hypergon.SimplexPoint(tuple(image))), exact))
    return errs


class Grow:
    """Scalar growth near the side cap, written out, then area quadrature.

    ``grow_body`` and ``body_to_doc`` are timed as steps of ``grow``.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.arcs = None
        self.step_seconds: list[float] = []
        for name in ("grow_body", "body_to_doc"):
            _time_steps(name, self.step_seconds)

    def job(self, ops: Ops, seed: int) -> None:
        rotations = np.random.default_rng(seed).random(2)
        for tag, angles, rotation, generations in (
            ("triangle", [1.0 / 3.0] * 3, float(rotations[0]), 17),
            ("octagon", [1.0 / 8.0] * 8, float(rotations[1]), 5),
            ("nonregular", list(NONREGULAR), 0.0, 6),
        ):
            poly = os.path.join(self.workdir, f"{tag}-poly.json")
            body = os.path.join(self.workdir, f"{tag}-body.json")
            warmup.write_polygon(poly, angles, rotation)
            label = f"grow {tag} s={generations}"
            argv = ["grow", "--in", poly, "--generations", generations, "--out", body]
            before = len(self.step_seconds)
            out = ops.cli(argv, 0)
            ops.split(cli_label(argv), self.step_seconds[before:])
            if out is not None:
                ops.file_bytes += os.path.getsize(body)
                with open(body) as fh:
                    arcs = _body_problems(json.load(fh), len(angles), generations, label, ops)
                if tag == "nonregular" and self.arcs is None:
                    self.arcs = arcs
            out = ops.cli(["area", "--in", poly, "--hyperbolic", "--cells", 1_000_000], 0)
            if out is not None:
                n = len(angles)
                lines = dict(line.split() for line in out.splitlines())
                area = float(lines["hyperbolic_area"])
                if abs(area - math.pi * (n - 2) / 4.0) > 1e-6:
                    ops.fail(f"area {tag}", [f"hyperbolic area {area!r} off pi*(n-2)/4"])

    def max_rel_err(self) -> float:
        exact = oracle.grown_arcs(NONREGULAR, 6)
        return max(oracle.rel_err(a, e) for a, e in zip(self.arcs, exact))


def _body_problems(doc: dict, n: int, generations: int, label: str, ops: Ops):
    """Check a body document; returns its arcs."""
    arcs = doc["boundary_angles"]
    problems = []
    counts = [1] + [n * (n - 1) ** (g - 1) for g in range(1, generations + 1)]
    if doc["polygon_counts"] != counts:
        problems.append(f"polygon counts {doc['polygon_counts']}, expected {counts}")
    if len(arcs) != n * (n - 1) ** generations:
        problems.append(f"{len(arcs)} sides, expected {n * (n - 1) ** generations}")
    if min(arcs) <= 0.0:
        problems.append("non-positive arc")
    if abs(math.fsum(arcs) - 1.0) > 1e-9:
        problems.append("arcs do not sum to 1")
    if doc["checksum"] != hashlib.sha256(json.dumps(arcs).encode()).hexdigest():
        problems.append("checksum does not match the written arcs")
    ops.fail(label, problems)
    return arcs


WORKLOADS = {"scan": Scan, "refine": Refine, "grow": Grow}
