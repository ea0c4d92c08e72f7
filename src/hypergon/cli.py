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
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

import numpy as np

from .disk_geometry import (
    MIN_POSITIVE,
    GeodesicSide,
    check_count,
    check_numbers,
    check_real,
    check_type,
    invert_on_circle,
)
from .errors import ConvergenceError, DomainError, HypergonError, PrecisionError
from .extremal import (
    FINDING_SLACK,
    SEED_MESSAGE,
    TOL_MESSAGE,
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
    except ValueError:
        cap = None
    return check_count(cap, "HYPERGON_MAX_SIDES must be a positive integer", lo=1)


# ---------------------------------------------------------------------------
# documents


def polygon_to_doc(poly: IdealPolygon) -> dict:
    return {"n": poly.n, "angles": list(poly.angles), "rotation": poly.rotation}


def polygon_from_doc(doc) -> IdealPolygon:
    check_type(doc, dict, "polygon document must be a JSON object")
    if "angles" not in doc:
        raise DomainError("polygon document must carry an 'angles' array")
    angles = check_numbers(doc["angles"], "angles must be an array of decimals")
    n = check_count(doc.get("n", angles.size), "n must be an integer of at least 3", lo=3)
    if n != angles.size:
        raise DomainError("n must match the number of angles")
    rotation = check_real(doc.get("rotation", 0.0), "rotation must be a decimal")
    return IdealPolygon(angles, rotation)


# Most arcs formatted by one json.dumps call, and most cells turned into
# Python floats at once, so a writer holds one piece (of one repeating
# block, for a symmetric seed), never the whole boundary or generation.
_PIECE = 8192


def _repeats(arcs: np.ndarray, n: int) -> int:
    """The largest k dividing ``n`` for which ``arcs`` is k bitwise copies
    of one block, 1 if there is none.

    A seed with a k-fold rotational symmetry grows k copies of one block of
    boundary arcs; one comparison per divisor finds the largest such k.
    """
    size = arcs.size
    for k in range(n, 1, -1):
        if n % k == 0 and size % k == 0 and np.array_equal(arcs[size // k :], arcs[: size - size // k]):
            return k
    return 1


def write_body_json(body: Body, fh) -> None:
    """Write the body document to the text file ``fh``, piece by piece.

    The boundary arcs go out in pieces of at most ``_PIECE`` arcs.  A seed
    whose arcs repeat k times formats one block, in pieces, and writes it k
    times, so equal floats print equal digits.  ``checksum`` is the SHA-256
    of exactly the ``boundary_angles`` text, which is ``json.dumps`` of the
    arcs whatever the seed; it is hashed as it is written.  The area and its
    checks, the block search and the head run before the first byte is
    written, so a call that fails leaves the file empty.
    """
    check_type(body, Body, "write_body_json takes a Body")
    arcs, n = body.boundary_angles, body.base.n
    area, base = euclidean_area(arcs), polygon_to_doc(body.base)
    copies = _repeats(arcs, n)
    head = json.dumps({"n": n, "generations": body.generations, "polygon_counts": body.polygon_counts})
    block = arcs[: arcs.size // copies]
    pieces = (json.dumps(block[i : i + _PIECE].tolist())[1:-1] for i in range(0, block.size, _PIECE))
    if copies > 1:
        pieces = list(pieces)  # formatted once, written k times
    digest = hashlib.sha256()

    def put(text: str) -> None:
        fh.write(text)
        digest.update(text.encode())

    fh.write(f'{head[:-1]}, "boundary_angles": ')
    put("[")
    sep = ""
    for _ in range(copies):
        for piece in pieces:
            put(sep + piece)
            sep = ", "
    put("]")
    tail = json.dumps({"euclidean_area": area, "base": base, "checksum": digest.hexdigest()})
    fh.write(f", {tail[1:]}")


def body_to_json(body: Body) -> str:
    """The body document as JSON text (see :func:`write_body_json`)."""
    out = io.StringIO()
    write_body_json(body, out)
    return out.getvalue()


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
        message = "render canvas and precision must be integers, canvas >= 1 and precision in 3..12"
        object.__setattr__(self, "canvas", check_count(self.canvas, message, lo=1))
        object.__setattr__(self, "precision", check_count(self.precision, message, lo=3, hi=12))
        message = "render strokes must be finite decimals > 0"
        for name in ("circle_stroke", "side_stroke"):
            object.__setattr__(self, name, check_real(getattr(self, name), message, lo=MIN_POSITIVE))
        if not isinstance(self.colors, (list, tuple)) or not all(isinstance(c, str) for c in self.colors):
            raise DomainError("render colors must be a list of strings")
        color = r"#([0-9a-fA-F]{3,4}|[0-9a-fA-F]{6}|[0-9a-fA-F]{8})|[A-Za-z]+"  # nothing an SVG attribute must escape
        if not all(re.fullmatch(color, c) for c in self.colors):
            raise DomainError("render colors must be '#' and 3, 4, 6 or 8 hex digits, or a name of letters")
        object.__setattr__(self, "colors", tuple(self.colors))
        if not self.colors:
            raise DomainError("need at least one generation color")


def render_spec_from_doc(doc) -> RenderSpec:
    """Figure parameters from a JSON object keyed by ``RenderSpec`` fields."""
    check_type(doc, dict, "render spec must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(RenderSpec)})
    if unknown:
        raise DomainError(f"unknown render spec key '{unknown[0]}'")
    return RenderSpec(**doc)


def _cycle_path(verts: list[float], widths: list[float], fmt) -> str:
    """SVG path of one cell: a geodesic arc per side, from the side widths.

    Coordinates are emitted y-flipped (screen orientation).  A side of width
    ``w`` lies on the orthogonal circle of radius ``tan(pi min(w, 1 - w))``;
    its arc spans less than half that circle, so the large-arc flag is 0,
    and it bulges toward the origin, which sets the sweep flag exactly when
    ``w < 1/2``.  Only the endpoints come from the vertex fractions.
    """
    points = [f"{fmt(math.cos(2.0 * math.pi * t))} {fmt(-math.sin(2.0 * math.pi * t))}" for t in verts]
    cmds = [f"M {points[0]}"]
    for p1, w in zip(points[1:] + points[:1], widths):
        r = fmt(math.tan(math.pi * min(w, 1.0 - w)))
        cmds.append(f"A {r} {r} 0 0 {int(w < 0.5)} {p1}")
    return " ".join(cmds) + " Z"


def write_svg(body: Body, fh, spec: RenderSpec | None = None) -> None:
    """Write a deterministic SVG of a body to the text file ``fh``: the unit
    circle, then one path per cell, each written as soon as it is formatted."""
    check_type(body, Body, "write_svg takes a Body")
    spec = RenderSpec() if spec is None else check_type(spec, RenderSpec, "write_svg takes a RenderSpec")

    def fmt(v: float) -> str:
        s = f"{v:.{spec.precision}f}"
        if float(s) == 0.0:
            s = f"{0.0:.{spec.precision}f}"  # never emit -0
        return s

    fh.write(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.canvas}" '
        f'height="{spec.canvas}" viewBox="-1.05 -1.05 2.1 2.1">\n'
        f'<circle cx="0" cy="0" r="1" fill="none" stroke="#000000" '
        f'stroke-width="{spec.circle_stroke}"/>\n'
    )
    for g, (verts, widths) in enumerate(zip(body._vertex_arrays(), body.gaps)):
        color = spec.colors[g % len(spec.colors)]
        for i in range(0, len(verts), _PIECE):
            for cell, cell_widths in zip(verts[i : i + _PIECE].tolist(), widths[i : i + _PIECE].tolist()):
                d = _cycle_path(cell, cell_widths, fmt)
                fh.write(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="{spec.side_stroke}"/>\n')
    fh.write("</svg>\n")


def render_svg(body: Body, spec: RenderSpec | None = None) -> str:
    """The SVG of a body as text (see :func:`write_svg`)."""
    out = io.StringIO()
    write_svg(body, out, spec)
    return out.getvalue()


# ---------------------------------------------------------------------------
# commands


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad JSON, text that is not UTF-8 and an
            # integer past the digit limit; RecursionError, deep nesting
            raise DomainError(f"invalid JSON in {path}: {exc}") from exc


def _cmd_invert(args) -> int:
    side = GeodesicSide(args.side[0], args.side[1])
    x = invert_on_circle(args.beta, side)
    print(f"{x:.12f}")
    return EXIT_OK


def _cmd_grow(args) -> int:
    poly = polygon_from_doc(_load_json(args.infile))
    body = grow_body(poly, args.generations, _max_sides())
    # open every output before writing any, so a path that cannot be opened writes no result
    with open(args.out, "w") as fh, (open(args.svg, "w") if args.svg is not None else contextlib.nullcontext()) as svg:
        if svg is not None and os.path.sameopenfile(fh.fileno(), svg.fileno()):
            raise DomainError("--out and --svg must name different files")
        write_body_json(body, fh)
        fh.write("\n")
        if svg is not None:
            write_svg(body, svg)
    return EXIT_OK


def _cmd_area(args) -> int:
    if args.hyperbolic:
        check_count(args.cells, "resolution too low: need at least 10000 cells", lo=10_000)
    poly = polygon_from_doc(_load_json(args.infile))
    area = euclidean_area(poly.angles)
    bound = area_upper_bound(poly.n)
    print(f"euclidean_area {area:.12f}")
    print(f"upper_bound {bound:.12f}")
    print(f"slack {bound - area:.12f}")
    if args.hyperbolic:
        print(f"hyperbolic_area {hyperbolic_area_quadrature(poly):.12f}")
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
    check_count(args.starts, "number of starts must be a non-negative integer", lo=0)
    check_real(args.tol, TOL_MESSAGE, lo=1e-12)
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
    spec = render_spec_from_doc(_load_json(args.spec)) if args.spec is not None else RenderSpec()
    with open(args.out, "w") as fh:
        write_svg(body, fh, spec)
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
    p.add_argument(
        "--cells",
        type=int,
        default=1_000_000,
        help="kept for old scripts: with --hyperbolic it must be at least 10000, and it changes nothing",
    )
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
