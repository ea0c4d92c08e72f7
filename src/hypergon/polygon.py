"""Ideal hyperbolic polygons, side reflections, and generational growth.

An ideal polygon is described by its vector of side angles (turn fractions
summing to one full turn) plus a base rotation; vertex ``j`` sits at the
rotation plus the cumulative sum of the first ``j - 1`` angles.  Reflecting
the polygon across side ``j`` maps every other vertex strictly inside that
side's arc, so the images of the remaining sides tile the arc; the table of
their widths is the inverted-angle matrix, whose row ``j`` sums back to the
angle of side ``j``.

Growing a body repeats the reflection: generation 0 is the seed polygon,
and each later generation reflects every polygon of the previous one across
each of its free sides (the side shared with its parent stays fixed).  The
union of all generations up to ``s`` is itself a convex ideal polygon whose
boundary angles are the gaps between all vertices produced along the way.
Tables and growth share one kernel on vectors of side widths, not vertex
fractions, which computes every image width without cancellation, so widths
keep their relative precision.  Growth reflects a whole generation in one
batched step and splices the boundary in creation order, without a sort.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .disk_geometry import (
    POINT_TOL,
    SUM_TOL,
    CirclePoint,
    GeodesicSide,
    check_count,
    check_numbers,
    check_real,
    check_type,
    check_widths,
    invert_fractions,  # noqa: F401  re-exported: perfbench's tracer wraps it here
    invert_on_circle,
    wrap_unit,
)
from .errors import DepthLimitError, DomainError, PrecisionError

# Below this arc width (in turns) vertices are no longer reliably separable.
ARC_GUARD = 100.0 * POINT_TOL

DEFAULT_MAX_SIDES = 10**6

REGULARITY_TOL = 1e-9


def _angle_vector(angles) -> np.ndarray:
    """Flat float vector of >= 3 angles; text, bytes and bools are not numbers."""
    arr = check_numbers(angles, "need a flat vector of decimal angles")
    if arr.ndim != 1 or arr.size < 3:
        raise DomainError("need a flat vector of at least 3 angles")
    return arr


def _validate_angles(angles) -> np.ndarray:
    """Flat float vector of >= 3 angles inside the width clamp whose fsum is within SUM_TOL of 1."""
    arr = check_widths(_angle_vector(angles))
    if abs(math.fsum(arr.tolist()) - 1.0) > SUM_TOL:
        raise DomainError("angles must sum to 1")
    return arr


@dataclass(frozen=True)
class IdealPolygon:
    """An ideal polygon: side angles in turns plus the rotation of vertex 1."""

    angles: tuple[float, ...]
    rotation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(_validate_angles(self.angles).tolist()))
        rotation = check_real(self.rotation, "rotation must be a finite real")
        object.__setattr__(self, "rotation", wrap_unit(rotation))

    @property
    def n(self) -> int:
        return len(self.angles)

    @classmethod
    def regular(cls, n: int, rotation: float = 0.0) -> "IdealPolygon":
        """The regular ideal n-gon: every side angle equal to 1/n."""
        n = check_count(n, "a polygon needs an integer side count n >= 3", lo=3)
        return cls((1.0 / n,) * n, rotation)


def vertex_fractions(poly: IdealPolygon) -> np.ndarray:
    """Vertex turn fractions in polygon order, reduced mod 1."""
    check_type(poly, IdealPolygon, "vertex_fractions takes an IdealPolygon")
    sums = np.concatenate(([0.0], np.cumsum(poly.angles)[:-1]))
    return (poly.rotation + sums) % 1.0


def vertices(poly: IdealPolygon) -> tuple[CirclePoint, ...]:
    """The polygon's vertices as circle points, starting at the rotation."""
    return tuple(CirclePoint(t) for t in vertex_fractions(poly))


def side(poly: IdealPolygon, j: int) -> GeodesicSide:
    """Side ``j`` (1-based), joining vertex ``j`` to vertex ``j + 1``."""
    fractions = vertex_fractions(poly)  # checks the polygon
    j = check_count(j, f"side index must be an integer in 1..{poly.n}", lo=1, hi=poly.n)
    return GeodesicSide(fractions[j - 1], poly.angles[j - 1])


def reflect_polygon(vertex_cycle, j: int) -> tuple[CirclePoint, ...]:
    """Reflect a vertex cycle across its side ``j`` (1-based).

    The side's endpoints stay fixed; every other vertex is replaced by its
    inversion image, which lands strictly inside the side's arc.  The result
    is re-sorted into positive orientation starting at the side's first
    endpoint.  If the cycle's arc from vertex ``j`` to vertex ``j + 1`` is
    the long way around (as for the closing side of a previously reflected
    cycle), the same geodesic is used via the complementary arc.
    """
    message = "a vertex cycle holds circle points or turn fractions"
    check_type(vertex_cycle, (Sequence, np.ndarray), message)
    points = [p.t if isinstance(p, CirclePoint) else p for p in vertex_cycle]
    ts = check_numbers(points, message)
    if ts.ndim != 1 or ts.size < 3:
        raise DomainError("a vertex cycle needs at least 3 points")
    gaps = np.diff(np.concatenate([ts, ts[:1]])) % 1.0
    if np.any(gaps <= 0.0) or abs(gaps.sum() - 1.0) > SUM_TOL:
        raise DomainError("vertex cycle must be strictly ordered in the positive direction")
    n = len(ts)
    j = check_count(j, f"side index must be an integer in 1..{n}", lo=1, hi=n)
    a = ts[j - 1]
    e = ts[j % n]
    w = (e - a) % 1.0
    geo = GeodesicSide(e, 1.0 - w) if w > 0.5 else GeodesicSide(a, w)
    out = [float(a), float(e)]
    for i, t in enumerate(ts):
        if i not in (j - 1, j % n):
            out.append(invert_on_circle(float(t), geo))
    out.sort(key=lambda t: (t - a) % 1.0)
    return tuple(CirclePoint(t) for t in out)


@dataclass(frozen=True)
class InvertedAngleMatrix:
    """The n x (n-1) table of reflected side widths.

    Entry ``(j, k)`` (1-based, ``k != j``) is the arc width of the image of
    side ``k`` under reflection of the polygon across side ``j``.  Stored as
    a full square table with NaN on the diagonal.
    """

    n: int
    table: np.ndarray = field(repr=False)

    def entry(self, j: int, k: int) -> float:
        message = "matrix indices must be distinct integers in 1..n"
        j, k = (check_count(i, message, lo=1, hi=self.n) for i in (j, k))
        if j == k:
            raise DomainError(message)
        return float(self.table[j - 1, k - 1])

    def row_sums(self) -> np.ndarray:
        """Per-row totals; row ``j`` tiles the arc of side ``j``."""
        return np.nansum(self.table, axis=1)

    def values(self) -> np.ndarray:
        """All ``n * (n - 1)`` entries in row-major order, diagonal skipped."""
        return self.table[~np.eye(self.n, dtype=bool)]


# Table entries per kernel pass (64 KB); no kernel temporary holds three
# times that, so the allocator reuses them instead of faulting in new pages.
_BLOCK_ENTRIES = 8192


def _block_rows(n: int) -> int:
    """Rows of n-gons per kernel pass."""
    return max(1, _BLOCK_ENTRIES // (n * n))


@lru_cache(maxsize=None)
def _rotations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Side indices of every cyclic rotation of an n-gon, and table cells.

    Column ``t`` runs from side ``t`` once round, column ``n + t`` backwards
    from side ``t - 1``; the image of side ``rotations[k, j]`` across side
    ``j`` goes to the flat table cell ``cells[k - 1, j]``.
    """
    side = np.arange(n)
    rotations = np.concatenate([side + side[:, None], side - 1 - side[:, None]], axis=1) % n
    return rotations, side * n + rotations[1:, :n]


def _image_widths(widths: np.ndarray, free: int) -> np.ndarray:
    """Image widths across each of the first ``free`` sides of every cell.

    ``widths`` is a ``(C, n)`` array of side widths in turns, and every
    reflecting side is narrower than 1/2.  Entry ``[k - 1, j, c]`` of the
    ``(n - 1, free, C)`` result is the image of the ``k``-th side after side
    ``j`` across side ``j``.  A vertex at offset ``delta`` in ``[w, 1]`` from
    the start of a reflecting side of width ``w`` maps to ``x`` with
    ``cot(pi x) = 2 cot(pi w) - cot(pi delta)``, so ``x = atan2(s, p) / pi``
    with ``s = sin(pi delta)`` and ``p = 2 s cot(pi w) - cos(pi delta)``.  A
    side of width ``g`` between two vertices then maps to ``atan2(sin(pi g),
    s1 s2 + p1 p2) / pi``, whose terms are all non-negative, so nothing
    cancels.  Each ``delta`` is summed from the nearer end of the reflecting
    side; its start, a full turn round, has ``s = 0`` and ``p = 1``, so the
    last denominator is ``p`` alone.  A side wider than 1/2 (a grown cell's
    shared side) enters only through its sine, from the sum of the others.
    """
    n = widths.shape[1]
    rotations = _rotations(n)[0]
    # cells run along the last axis, so every step is one contiguous pass
    arcs = np.pi * widths.T
    sums = arcs[rotations[: n - 1]]  # sums[m, t]: the first m + 1 widths of rotation t
    # a loop over contiguous slices; np.cumsum along this axis is several times slower
    for m in range(1, n - 1):
        sums[m] += sums[m - 1]
    from_end = sums[:, :free]
    from_start = sums[::-1, n : n + free]
    angle = np.minimum(from_end, from_start)
    s = np.sin(angle)
    # cos(pi delta) changes sign with the end delta is measured from
    cos = np.copysign(np.cos(angle), from_start - from_end)
    p = s * (2.0 / np.tan(arcs[:free])) - cos
    den = np.concatenate([s[:-1] * s[1:] + p[:-1] * p[1:], p[-1:]])
    sin_g = np.sin(np.minimum(arcs, sums[n - 2, n:]))
    return np.arctan2(sin_g[rotations[1:, :free]], den) / np.pi


def _image_blocks(widths: np.ndarray, free: int):
    """Yield ``(rows, images)`` for each block of ``_block_rows(n)`` rows.

    ``rows`` is a slice of ``widths`` (C, n) and ``images`` the
    :func:`_image_widths` of those rows across their first ``free`` sides.
    This is the one loop that splits a batch into kernel passes.
    """
    step = _block_rows(widths.shape[1])
    for lo in range(0, len(widths), step):
        rows = slice(lo, lo + step)
        yield rows, _image_widths(widths[rows], free)


def angle_tables(angle_rows: np.ndarray) -> np.ndarray:
    """Batch inverted-angle tables for angle vectors, shape (B, n, n).

    Entry ``(j, k)`` is the width of side ``k``'s image under reflection
    across side ``j``, from :func:`_image_blocks`; the diagonal is NaN.
    Tables do not depend on the rotation.
    """
    a = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    b, n = a.shape
    tables = np.empty((b, n * n))
    tables[:, :: n + 1] = np.nan
    cells = _rotations(n)[1]
    for rows, images in _image_blocks(a, n):
        tables[rows, cells] = images.transpose(2, 0, 1)
    return tables.reshape(b, n, n)


def inverted_angle_matrix(poly: IdealPolygon) -> InvertedAngleMatrix:
    """The table of inverted side angles of a polygon."""
    check_type(poly, IdealPolygon, "inverted_angle_matrix takes an IdealPolygon")
    return InvertedAngleMatrix(poly.n, angle_tables(poly.angles)[0])


def max_inverted_angle(poly: IdealPolygon) -> tuple[float, int, int]:
    """Largest inverted angle and its (row, column), 1-based.

    Ties resolve to the lexicographically smallest ``(j, k)``, which the
    row-major scan of the table guarantees.
    """
    table = inverted_angle_matrix(poly).table
    flat = int(np.nanargmax(table))
    j, k = divmod(flat, poly.n)
    return float(table[j, k]), j + 1, k + 1


def _regular_rows(rows: np.ndarray, tol: float = REGULARITY_TOL) -> np.ndarray:
    """Whether every entry of each ``rows[i]`` is within ``tol`` of 1/m, m its entry count.

    The largest ``|x - 1/m|`` comes from the extremes of ``rows[i]``:
    rounding keeps ``x - 1/m`` in the order of ``x``, so it is the same
    number without an array of differences.
    """
    tol = check_real(tol, "regularity tolerance must be finite and non-negative", lo=0.0)
    axes = tuple(range(1, rows.ndim))
    mean = 1.0 / math.prod(rows.shape[1:])
    return np.maximum(rows.max(axis=axes) - mean, mean - rows.min(axis=axes)) <= tol


def is_regular(angles, tol: float = REGULARITY_TOL) -> bool:
    """Whether all angles agree with 1/n within ``tol``, a finite number >= 0."""
    return bool(_regular_rows(_angle_vector(angles)[None, :], tol)[0])


@dataclass(frozen=True, eq=False)
class Body:
    """The union of all reflection generations up to ``generations``.

    ``gaps[g]`` is the ``(C_g, n)`` array of side widths of the generation-
    ``g`` cells, in creation order.  A grown cell starts at the first
    endpoint of the parent side it was reflected across: its first ``n - 1``
    widths tile that side's arc and come from :func:`_image_widths`, the
    kernel of the inverted-angle tables; its last one, ``1 - w``, is the
    shared side taken the long way round.  ``boundary_angles`` are the arcs
    between consecutive boundary vertices of the union, in positive
    orientation starting from the smallest fraction.  ``polygons[g]`` lists
    the vertex cycles (tuples of turn fractions) of generation ``g``; it is
    built from the widths on each access, not cached.
    """

    base: IdealPolygon
    generations: int
    gaps: tuple[np.ndarray, ...] = field(repr=False)
    boundary_angles: np.ndarray

    @property
    def polygon_counts(self) -> tuple[int, ...]:
        """Cells per generation."""
        return tuple(len(g) for g in self.gaps)

    @property
    def polygons(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        return tuple(tuple(map(tuple, verts.tolist())) for verts in self._vertex_arrays())

    def _vertex_arrays(self):
        """Yield each generation's ``(C_g, n)`` vertex fractions, keeping only the parent's."""
        verts = vertex_fractions(self.base)[None, :]
        yield verts
        for widths in self.gaps[1:]:
            free = widths.shape[0] // verts.shape[0]
            start = verts[:, :free].reshape(-1)
            end = np.roll(verts, -1, axis=1)[:, :free].reshape(-1)
            inner = (start[:, None] + np.cumsum(widths[:, :-2], axis=1)) % 1.0
            verts = np.column_stack([start, inner, end])
            yield verts


def _grow(seeds: np.ndarray, s: int) -> list[np.ndarray]:
    """Side widths of generations 0..s grown from a ``(B, n)`` batch of seeds.

    Generation 0 is the seeds; generation ``g + 1`` reflects every
    generation-``g`` cell across each of its free sides (all ``n`` sides
    for a seed, the ``n - 1`` non-shared ones afterwards), in one batched
    step through the kernel of :func:`angle_tables`.  A cell's children
    follow one another in creation order, so entry ``g`` of the result,
    shaped ``(B, C_g, n)``, holds each seed's cells together; every cell's
    widths come from that cell alone, so a seed grows the same widths in
    any batch.  Growth stops with ``PrecisionError`` once a new arc falls
    below ``ARC_GUARD``.  This is the one generation loop.
    """
    b, n = seeds.shape
    widths = seeds
    gaps = [seeds[:, None, :]]
    for g in range(s):
        free = n if g == 0 else n - 1
        children = np.empty((len(widths), free, n))
        for rows, images in _image_blocks(widths, free):
            children[rows, :, :-1] = images[::-1].T
        children[:, :, -1] = 1.0 - widths[:, :free]
        if not children[:, :, :-1].min() >= ARC_GUARD:
            raise PrecisionError("arc width underflow: vertices no longer separable")
        widths = children.reshape(-1, n)
        gaps.append(widths.reshape(b, -1, n))
    return gaps


def grow_body(poly: IdealPolygon, s: int, max_sides: int = DEFAULT_MAX_SIDES) -> Body:
    """Grow the reflection body of ``poly`` through ``s`` generations.

    The cells are :func:`_grow` of the one seed.  Children come out in
    creation order, which is also the positive order of the arcs they
    cover, so the boundary is the last generation's free widths in that
    order, rotated once to start at the smallest fraction; nothing is
    sorted.  Grown arcs keep their relative precision.
    """
    check_type(poly, IdealPolygon, "grow_body takes an IdealPolygon")
    s = check_count(s, "generation count must be a non-negative integer", lo=0)
    max_sides = check_count(max_sides, "side cap must be a positive integer", lo=1)
    n = poly.n
    # n - 1 >= 2: past the cap's bit length, any exponent is over the cap
    if n * (n - 1) ** min(s, max_sides.bit_length()) > max_sides:
        raise DepthLimitError(f"projected boundary side count {n}*{n - 1}^{s} exceeds cap {max_sides}")
    gaps = [cells[0] for cells in _grow(np.asarray(poly.angles, dtype=float)[None, :], s)]
    arcs = (gaps[-1] if s == 0 else gaps[-1][:, :-1]).reshape(-1)
    # the arcs start at the seed's first vertex; move the first vertex past
    # one full turn, the smallest fraction, to the front
    past = int(np.searchsorted(poly.rotation + np.cumsum(arcs[:-1]), 1.0))
    first = past + 1 if past < arcs.size - 1 else 0
    return Body(
        base=poly,
        generations=s,
        gaps=tuple(gaps),
        boundary_angles=np.roll(arcs, -first),
    )
