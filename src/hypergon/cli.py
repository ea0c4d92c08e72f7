"""Command-line front end: documents, scans, reports, and SVG figures.

Subcommands::

    invert    image fraction of a boundary point reflected across a side
    grow      grow a reflection body from a polygon document
    area      Euclidean area, sharp bound, and optional hyperbolic check
    extremal  lattice scan (and refinement) of the minimax objective
    check     run a property suite, one JSON report line per case
    render    draw a body as an SVG of geodesic arcs, colored by generation

Exit codes: 0 success, 1 invalid input, 2 mathematical finding (violation
or counterexample), 3 I/O failure, 4 precision exhausted (a valid polygon
grew arcs too close to separate, or refinement hit its iteration cap).
Polygon and body documents are JSON; angles are decimal turn fractions.
``HYPERGON_MAX_SIDES`` overrides the default growth cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from .disk_geometry import GeodesicSide, check_count, invert_on_circle, unit_point
from .errors import ConvergenceError, DomainError, HypergonError, PrecisionError
from .extremal import (
    FINDING_SLACK,
    SEED_MESSAGE,
    grid_scan,
    property_suite,
    refine_minimum,
    sample_simplex,
    suite_names,
)
from .measures import (
    area_upper_bound,
    euclidean_area,
    hyperbolic_area_ideal,
    hyperbolic_area_quadrature,
)
from .polygon import DEFAULT_MAX_SIDES, Body, IdealPolygon, grow_body

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FINDING = 2
EXIT_IO = 3
EXIT_PRECISION = 4


def _max_sides() -> int:
    raw = os.environ.get("HYPERGON_MAX_SIDES")
    if raw is None:
        return DEFAULT_MAX_SIDES
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError("HYPERGON_MAX_SIDES must be an integer") from exc
    if cap < 1:
        raise DomainError("HYPERGON_MAX_SIDES must be a positive integer")
    return cap


# ---------------------------------------------------------------------------
# documents


def polygon_to_doc(poly: IdealPolygon) -> dict:
    return {"n": poly.n, "angles": list(poly.angles), "rotation": poly.rotation}


def polygon_from_doc(doc) -> IdealPolygon:
    if not isinstance(doc, dict):
        raise DomainError("polygon document must be a JSON object")
    if "angles" not in doc:
        raise DomainError("polygon document must carry an 'angles' array")
    angles = doc["angles"]
    # JSON true/false load as bool, a subclass of int, so compare exact types
    if not isinstance(angles, list) or not all(type(a) in (int, float) for a in angles):
        raise DomainError("angles must be an array of decimals")
    n = doc.get("n", len(angles))
    if type(n) is not int:
        raise DomainError("n must be an integer")
    if n != len(angles):
        raise DomainError("n must match the number of angles")
    rotation = doc.get("rotation", 0.0)
    if type(rotation) not in (int, float):
        raise DomainError("rotation must be a decimal")
    return IdealPolygon(tuple(float(a) for a in angles), float(rotation))


def _arcs_json(arcs: np.ndarray, n: int) -> str:
    """``json.dumps(arcs.tolist())``, formatted from one repeating block.

    A seed with a k-fold rotational symmetry (k divides ``n``) grows k
    bitwise copies of one block of boundary arcs.  One comparison per
    divisor finds the largest such k; only that block is formatted, and the
    text is k copies of it, so equal floats print equal digits.
    """
    size = arcs.size
    block = size
    for k in range(n, 1, -1):
        if n % k == 0 and size % k == 0 and np.array_equal(arcs[size // k :], arcs[: size - size // k]):
            block = size // k
            break
    text = json.dumps(arcs[:block].tolist())[1:-1]
    return "[" + ", ".join([text] * (size // block)) + "]"


def body_to_json(body: Body) -> str:
    """The body document as JSON text; the boundary arcs are formatted once,
    and ``checksum`` is the SHA-256 of exactly that ``boundary_angles`` text,
    which is ``json.dumps`` of the arcs whatever the seed."""
    arcs = _arcs_json(body.boundary_angles, body.base.n)
    head = json.dumps(
        {"n": body.base.n, "generations": body.generations, "polygon_counts": body.polygon_counts}
    )
    area, base = euclidean_area(body.boundary_angles), polygon_to_doc(body.base)
    checksum = hashlib.sha256(arcs.encode()).hexdigest()
    tail = json.dumps({"euclidean_area": area, "base": base, "checksum": checksum})
    return f'{head[:-1]}, "boundary_angles": {arcs}, {tail[1:]}'


def body_to_doc(body: Body) -> dict:
    return json.loads(body_to_json(body))


# ---------------------------------------------------------------------------
# rendering


@dataclass(frozen=True)
class RenderSpec:
    """Figure parameters: canvas size, strokes, generation colors, precision."""

    canvas: int = 720
    circle_stroke: float = 0.008
    side_stroke: float = 0.004
    colors: tuple[str, ...] = (
        "#1f77b4",
        "#d62728",
        "#2ca02c",
        "#9467bd",
        "#ff7f0e",
        "#8c564b",
    )
    precision: int = 6

    def __post_init__(self):
        if not all(type(v) is int for v in (self.canvas, self.precision)):
            raise DomainError("render canvas and precision must be integers")
        strokes = (self.circle_stroke, self.side_stroke)
        if not all(type(v) in (int, float) and math.isfinite(v) for v in strokes):
            raise DomainError("render strokes must be finite decimals")
        if not isinstance(self.colors, tuple) or not all(isinstance(c, str) for c in self.colors):
            raise DomainError("render colors must be a list of strings")
        if self.canvas <= 0 or self.circle_stroke <= 0 or self.side_stroke <= 0:
            raise DomainError("render sizes must be positive")
        if not 3 <= self.precision <= 12:
            raise DomainError("render precision must be in 3..12")
        if not self.colors:
            raise DomainError("need at least one generation color")


def render_spec_from_doc(doc) -> RenderSpec:
    """Figure parameters from a JSON object keyed by ``RenderSpec`` fields."""
    if not isinstance(doc, dict):
        raise DomainError("render spec must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(RenderSpec)})
    if unknown:
        raise DomainError(f"unknown render spec key '{unknown[0]}'")
    kwargs = dict(doc)
    if isinstance(kwargs.get("colors"), list):
        kwargs["colors"] = tuple(kwargs["colors"])
    return RenderSpec(**kwargs)


def _cycle_path(verts: tuple[float, ...], widths: list[float], fmt) -> str:
    """SVG path of one cell: a geodesic arc per side, from the side widths.

    Coordinates are emitted y-flipped (screen orientation).  A side of width
    ``w`` lies on the orthogonal circle of radius ``tan(pi min(w, 1 - w))``;
    its arc spans less than half that circle, so the large-arc flag is 0,
    and it bulges toward the origin, which sets the sweep flag exactly when
    ``w < 1/2``.  Only the endpoints come from the vertex fractions.
    """
    p0 = unit_point(verts[0])
    cmds = [f"M {fmt(p0.x)} {fmt(-p0.y)}"]
    for t1, w in zip(verts[1:] + verts[:1], widths):
        r = fmt(math.tan(math.pi * min(w, 1.0 - w)))
        p1 = unit_point(t1)
        cmds.append(f"A {r} {r} 0 0 {int(w < 0.5)} {fmt(p1.x)} {fmt(-p1.y)}")
    cmds.append("Z")
    return " ".join(cmds)


def render_svg(body: Body, spec: RenderSpec | None = None) -> str:
    """Deterministic SVG of a body: the unit circle, then one path per cell."""
    spec = spec or RenderSpec()

    def fmt(v: float) -> str:
        s = f"{v:.{spec.precision}f}"
        if float(s) == 0.0:
            s = f"{0.0:.{spec.precision}f}"  # never emit -0
        return s

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.canvas}" '
        f'height="{spec.canvas}" viewBox="-1.05 -1.05 2.1 2.1">',
        f'<circle cx="0" cy="0" r="1" fill="none" stroke="#000000" '
        f'stroke-width="{spec.circle_stroke}"/>',
    ]
    for g, (cells, widths) in enumerate(zip(body.polygons, body.gaps)):
        color = spec.colors[g % len(spec.colors)]
        for verts, cell_widths in zip(cells, widths.tolist()):
            d = _cycle_path(verts, cell_widths, fmt)
            lines.append(
                f'<path d="{d}" fill="none" stroke="{color}" '
                f'stroke-width="{spec.side_stroke}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _load_json(path: str):
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON in {path}: {exc}") from exc


def _cmd_invert(args) -> int:
    side = GeodesicSide(args.side[0], args.side[1])
    x = invert_on_circle(args.beta, side)
    print(f"{x:.12f}")
    return EXIT_OK


def _cmd_grow(args) -> int:
    poly = polygon_from_doc(_load_json(args.infile))
    body = grow_body(poly, args.generations, _max_sides())
    with open(args.out, "w") as fh:
        fh.write(body_to_json(body))
        fh.write("\n")
    if args.svg:
        svg = render_svg(body)
        with open(args.svg, "w") as fh:
            fh.write(svg)
    return EXIT_OK


def _cmd_area(args) -> int:
    poly = polygon_from_doc(_load_json(args.infile))
    area = euclidean_area(poly.angles)
    bound = area_upper_bound(poly.n)
    # integrate first, so a rejected cell count prints nothing
    quad = hyperbolic_area_quadrature(poly, args.cells) if args.hyperbolic else None
    print(f"euclidean_area {area:.12f}")
    print(f"upper_bound {bound:.12f}")
    print(f"slack {bound - area:.12f}")
    if args.hyperbolic:
        print(f"hyperbolic_area {quad:.12f}")
        print(f"hyperbolic_ideal {hyperbolic_area_ideal(poly.n):.12f}")
    return EXIT_OK


def _parse_step(text: str) -> float:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse grid step '{text}'") from exc


def _cmd_extremal(args) -> int:
    check_count(args.seed, SEED_MESSAGE, lo=0)
    report = grid_scan(args.n, args.grid, dump_path=args.dump)
    out = {
        "n": args.n,
        "step": report.detail["step"],
        "lattice_points": report.size,
        "best_point": list(report.best_point),
        "best_value": report.best_value,
        "second_best_value": report.detail["second_best_value"],
        "isolation_margin": report.detail["isolation_margin"],
        "regular_value": report.detail["regular_value"],
        "margin_to_regular": report.detail["margin_to_regular"],
        "seed": args.seed,
    }
    finding = not report.passed
    if args.refine:
        rng = np.random.default_rng(args.seed)
        starts = sample_simplex(args.n, args.starts, rng)
        max_dist = 0.0
        best_refined = math.inf
        for row in [report.best_point, *starts]:
            point, value = refine_minimum(IdealPolygon(row), args.tol)
            best_refined = min(best_refined, value)
            max_dist = max(max_dist, max(abs(a - 1.0 / args.n) for a in point.angles))
        out["refine"] = {
            "starts": args.starts,
            "tol": args.tol,
            "best_refined_value": best_refined,
            "max_distance_to_regular": max_dist,
        }
        if best_refined < report.detail["regular_value"] - FINDING_SLACK:
            finding = True
    print(json.dumps(out))
    return EXIT_FINDING if finding else EXIT_OK


def _cmd_check(args) -> int:
    report = property_suite(args.suite, args.samples, args.seed)
    by_case: dict[int, list] = {}
    for v in report.violations:
        by_case.setdefault(v.case, []).append(v.as_dict())
    header = {
        "suite": report.name,
        "size": report.size,
        "seed": report.seed,
        "evidence": report.evidence,
        "violations": len(report.violations),
    }
    # the bytes json.dumps writes for a case without violations
    passed = '{"suite": ' + json.dumps(report.name) + ', "case": %d, "status": "pass", "detail": null}'
    out = [json.dumps(header)]
    for case in range(report.size):
        hits = by_case.get(case)
        if not hits:
            out.append(passed % case)
            continue
        line = {
            "suite": report.name,
            "case": case,
            "status": "violation",
            "detail": {"violations": hits},
        }
        out.append(json.dumps(line))
    print("\n".join(out))
    return EXIT_FINDING if report.violations else EXIT_OK


def _cmd_render(args) -> int:
    doc = _load_json(args.infile)
    if not isinstance(doc, dict) or "base" not in doc:
        raise DomainError("body document lacks the 'base' polygon needed for rendering")
    poly = polygon_from_doc(doc["base"])
    message = "body document must carry a non-negative 'generations'"
    generations = check_count(doc.get("generations"), message, lo=0)
    body = grow_body(poly, generations, _max_sides())
    spec = render_spec_from_doc(_load_json(args.spec)) if args.spec else RenderSpec()
    svg = render_svg(body, spec)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads a value that starts with '-' as an option unless it
        # is a plain decimal; let -1/100, -0.1,0.25 and -1e-3 through as
        # values too.  Subparsers are built from this class.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def _parse_side(text: str) -> tuple[float, float]:
    try:
        a, alpha = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"side must be 'a,alpha' with decimal fractions, got '{text}'"
        ) from exc
    return a, alpha


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hypergon", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invert", help="invert a boundary point across a side")
    p.add_argument("--side", type=_parse_side, required=True, metavar="A,ALPHA")
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("grow", help="grow a reflection body")
    p.add_argument("--in", dest="infile", required=True, metavar="POLY.JSON")
    p.add_argument("--generations", type=int, required=True)
    p.add_argument("--out", required=True, metavar="BODY.JSON")
    p.add_argument("--svg", metavar="FIG.SVG")
    p.set_defaults(func=_cmd_grow)

    p = sub.add_parser("area", help="areas and bounds of a polygon")
    p.add_argument("--in", dest="infile", required=True, metavar="POLY.JSON")
    p.add_argument("--hyperbolic", action="store_true")
    p.add_argument("--cells", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("extremal", help="minimax lattice scan and refinement")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--grid", type=_parse_step, default=1.0 / 200.0, metavar="STEP")
    p.add_argument("--refine", action="store_true")
    p.add_argument("--starts", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump", metavar="GRID.CSV")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("check", help="run a property suite")
    p.add_argument("--suite", required=True, choices=suite_names())
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("render", help="render a body document to SVG")
    p.add_argument("--in", dest="infile", required=True, metavar="BODY.JSON")
    p.add_argument("--out", required=True, metavar="FIG.SVG")
    p.add_argument("--spec", metavar="RENDER.JSON")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except HypergonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        exhausted = isinstance(exc, (PrecisionError, ConvergenceError))
        return EXIT_PRECISION if exhausted else EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
