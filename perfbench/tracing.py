"""Spans around calls into the library, recorded from outside ``src/``.

The tracer replaces a public name in the module that calls it (for example
``hypergon.polygon.invert_on_circle``, the name ``_reflect_cell`` looks up)
with a wrapper that times the call, charges its duration to the enclosing
traced call, and counts the work it did.  A layer's self time is its total
time minus the time of traced calls made inside it.

Kernel-level names, called up to a million times per job, are only
aggregated; every other call is also kept as a span (name, start, end,
parent) so a run can be inspected afterwards.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

# Traced names, keyed by "<home module>.<function>".  Each maps to the
# (module, attribute) pairs it is looked up through, and whether it is a
# kernel-level name that is aggregated without spans.
TARGETS = {
    "disk_geometry.invert_fractions": (
        [("hypergon.polygon", "invert_fractions"), ("hypergon.extremal", "invert_fractions")],
        True,
    ),
    "disk_geometry.invert_on_circle": (
        [("hypergon.polygon", "invert_on_circle"), ("hypergon.cli", "invert_on_circle")],
        True,
    ),
    "polygon.angle_tables": ([("hypergon.extremal", "angle_tables")], True),
    "measures.side_region_area": (
        [("hypergon.measures", "side_region_area"), ("hypergon.extremal", "side_region_area")],
        True,
    ),
    "polygon.grow_body": ([("hypergon.extremal", "grow_body"), ("hypergon.cli", "grow_body")], False),
    "measures.euclidean_area": (
        [("hypergon.cli", "euclidean_area"), ("hypergon.extremal", "euclidean_area")],
        False,
    ),
    "measures.hyperbolic_area_quadrature": ([("hypergon.cli", "hyperbolic_area_quadrature")], False),
    "extremal.grid_scan": ([("hypergon", "grid_scan"), ("hypergon.cli", "grid_scan")], False),
    "extremal.refine_minimum": ([("hypergon.cli", "refine_minimum")], False),
    "extremal.minimize": ([("hypergon.extremal", "minimize")], False),
    "extremal.property_suite": ([("hypergon.cli", "property_suite")], False),
    "cli.body_to_doc": ([("hypergon.cli", "body_to_doc")], False),
    "cli.main": ([("hypergon.cli", "main")], False),
}


class Stat:
    """Calls, total and self seconds, and named work counters of one name."""

    __slots__ = ("calls", "total", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.counts: dict = {}

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def _count(name: str, stat: Stat, args, kwargs, result, seconds: float) -> None:
    """Record the work a traced call did, read from its arguments and result."""
    if name == "disk_geometry.invert_fractions":
        stat.add("points", int(np.size(result)))
    elif name == "polygon.angle_tables":
        stat.add("polygons", int(result.shape[0]))
    elif name == "measures.side_region_area":
        stat.add("elements", int(np.size(args[0])))
    elif name == "polygon.grow_body":
        stat.add("cells", sum(result.polygon_counts))
        stat.add("sides", int(result.boundary_angles.size))
        arc = float(result.boundary_angles.min())
        stat.counts["min_arc"] = min(stat.counts.get("min_arc", math.inf), arc)
    elif name == "measures.hyperbolic_area_quadrature":
        poly = args[0]
        cells = args[1] if len(args) > 1 else kwargs.get("cells", 1_000_000)
        stat.add("cells", (int(cells) // (2 * poly.n)) * 2 * poly.n)
    elif name == "extremal.grid_scan":
        stat.add("points", result.size)
    elif name == "extremal.refine_minimum":
        stat.counts.setdefault("ms_per_start", []).append(1e3 * seconds)
        angles = result[0].angles
        stat.add("regular", int(max(abs(a - 1.0 / len(angles)) for a in angles) < 1e-6))
    elif name == "extremal.minimize":
        stat.add("fevals", int(result.nfev))
    elif name == "extremal.property_suite":
        stat.add("cases", result.size)
        stat.add("violations", len(result.violations))


class Tracer:
    """Installs timing wrappers on the traced names and collects their stats."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for name, (sites, hot) in TARGETS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hot))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.stats = {name: Stat() for name in TARGETS}
        self.spans = []

    def _wrap(self, name: str, fn, hot: bool):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, len(self.spans) if not hot else None]
            parent = stack[-1][1] if stack else None
            if not hot:
                self.spans.append(None)  # reserve the index children refer to
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                stat = self.stats[name]
                stat.calls += 1
                stat.total += seconds
                stat.self_s += seconds - frame[0]
                if not hot:
                    self.spans[frame[1]] = (name, start, start + seconds, parent)
            _count(name, stat, args, kwargs, result, seconds)
            return result

        return traced


def _rate(seconds: float, count, scale: float) -> float:
    return scale * seconds / count if count else 0.0


def job_metrics(stats: dict[str, Stat]) -> dict[str, float]:
    """Per-layer values of one traced job, named as in BENCHMARK.json."""
    inv_f = stats["disk_geometry.invert_fractions"]
    inv_c = stats["disk_geometry.invert_on_circle"]
    tables = stats["polygon.angle_tables"]
    grow = stats["polygon.grow_body"]
    quad = stats["measures.hyperbolic_area_quadrature"]
    grid = stats["extremal.grid_scan"]
    refine = stats["extremal.refine_minimum"]
    minimize = stats["extremal.minimize"]
    suite = stats["extremal.property_suite"]
    points = inv_f.counts.get("points", 0)
    cells = grow.counts.get("cells", 0)
    starts_ms = refine.counts.get("ms_per_start", [])
    p50, p90 = (np.percentile(starts_ms, [50, 90]) if starts_ms else (0.0, 0.0))
    min_arc = grow.counts.get("min_arc", 0.0)
    return {
        "disk_geometry.invert_fractions.points": points,
        "disk_geometry.invert_fractions.ns_per_point": _rate(inv_f.total, points, 1e9),
        "disk_geometry.invert_on_circle.calls": inv_c.calls,
        "disk_geometry.invert_on_circle.ns_per_call": _rate(inv_c.total, inv_c.calls, 1e9),
        "polygon.angle_tables.calls": tables.calls,
        "polygon.angle_tables.polygons": tables.counts.get("polygons", 0),
        "polygon.angle_tables.self_s": tables.self_s,
        "polygon.angle_tables.us_per_call": _rate(tables.total, tables.calls, 1e6),
        "polygon.grow_body.calls": grow.calls,
        "polygon.grow_body.cells": cells,
        "polygon.grow_body.sides": grow.counts.get("sides", 0),
        "polygon.grow_body.self_s": grow.self_s,
        "polygon.grow_body.us_per_cell": _rate(grow.total, cells, 1e6),
        "polygon.grow_body.min_arc": min_arc,
        "measures.side_region_area.elements": stats["measures.side_region_area"].counts.get("elements", 0),
        "measures.euclidean_area.self_s": stats["measures.euclidean_area"].self_s,
        "measures.hyperbolic_area_quadrature.cells": quad.counts.get("cells", 0),
        "measures.hyperbolic_area_quadrature.self_s": quad.self_s,
        "extremal.grid_scan.points": grid.counts.get("points", 0),
        "extremal.grid_scan.self_s": grid.self_s,
        "extremal.grid_scan.points_per_s": _rate(grid.counts.get("points", 0), grid.total, 1.0),
        "extremal.refine_minimum.starts": refine.calls,
        "extremal.refine_minimum.fevals": minimize.counts.get("fevals", 0),
        "extremal.refine_minimum.restarts": minimize.calls,
        "extremal.refine_minimum.ms_per_start_p50": float(p50),
        "extremal.refine_minimum.ms_per_start_p90": float(p90),
        "extremal.refine_minimum.regular_basin_share": _rate(refine.counts.get("regular", 0), refine.calls, 1.0),
        "extremal.minimize.self_s": minimize.self_s,
        "extremal.property_suite.self_s": suite.self_s,
        "extremal.property_suite.cases": suite.counts.get("cases", 0),
        "extremal.property_suite.violations": suite.counts.get("violations", 0),
        "cli.emit.self_s": stats["cli.main"].self_s,
        "cli.body_to_doc.self_s": stats["cli.body_to_doc"].self_s,
    }
