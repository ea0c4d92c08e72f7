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
Growth works on each cell's vector of side widths, not on absolute vertex
fractions.  A whole generation is reflected in one batched step, and every
new width is computed from its parent's widths without cancellation, so
arcs keep their relative precision.  The boundary is spliced from the
children's widths in creation order instead of sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .disk_geometry import (
    ALPHA_MIN,
    POINT_TOL,
    CirclePoint,
    GeodesicSide,
    invert_fractions,
    invert_on_circle,
    wrap_unit,
)
from .errors import DepthLimitError, DomainError, PrecisionError

# Below this arc width (in turns) vertices are no longer reliably separable.
ARC_GUARD = 100.0 * POINT_TOL

DEFAULT_MAX_SIDES = 10**6

REGULARITY_TOL = 1e-9


def _validate_angles(angles) -> tuple[float, ...]:
    angles = tuple(float(a) for a in angles)
    if len(angles) < 3:
        raise DomainError("a polygon needs at least 3 sides")
    for a in angles:
        if not (ALPHA_MIN <= a <= 0.5 - ALPHA_MIN):
            raise DomainError("alpha must be in (0, 0.5)")
    if abs(math.fsum(angles) - 1.0) > 1e-12:
        raise DomainError("angles must sum to 1")
    return angles


@dataclass(frozen=True)
class IdealPolygon:
    """An ideal polygon: side angles in turns plus the rotation of vertex 1."""

    angles: tuple[float, ...]
    rotation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "angles", _validate_angles(self.angles))
        if not math.isfinite(self.rotation):
            raise DomainError("rotation must be finite")
        object.__setattr__(self, "rotation", wrap_unit(self.rotation))

    @property
    def n(self) -> int:
        return len(self.angles)

    @classmethod
    def regular(cls, n: int, rotation: float = 0.0) -> "IdealPolygon":
        """The regular ideal n-gon: every side angle equal to 1/n."""
        if n < 3:
            raise DomainError("a polygon needs at least 3 sides")
        return cls((1.0 / n,) * n, rotation)


def vertex_fractions(poly: IdealPolygon) -> np.ndarray:
    """Vertex turn fractions in polygon order, reduced mod 1."""
    sums = np.concatenate(([0.0], np.cumsum(poly.angles)[:-1]))
    return (poly.rotation + sums) % 1.0


def vertices(poly: IdealPolygon) -> tuple[CirclePoint, ...]:
    """The polygon's vertices as circle points, starting at the rotation."""
    return tuple(CirclePoint(t) for t in vertex_fractions(poly))


def side(poly: IdealPolygon, j: int) -> GeodesicSide:
    """Side ``j`` (1-based), joining vertex ``j`` to vertex ``j + 1``."""
    if not 1 <= j <= poly.n:
        raise DomainError(f"side index must be in 1..{poly.n}")
    return GeodesicSide(vertex_fractions(poly)[j - 1], poly.angles[j - 1])


def _cycle_fractions(vertex_cycle) -> np.ndarray:
    ts = np.array([p.t if isinstance(p, CirclePoint) else float(p) for p in vertex_cycle])
    if len(ts) < 3:
        raise DomainError("a vertex cycle needs at least 3 points")
    gaps = np.diff(np.concatenate([ts, ts[:1]])) % 1.0
    if np.any(gaps <= 0.0) or abs(gaps.sum() - 1.0) > 1e-9:
        raise DomainError("vertex cycle must be strictly ordered in the positive direction")
    return ts


def _side_geodesic(t0: float, t1: float) -> GeodesicSide:
    """The geodesic through two boundary fractions, via the short arc."""
    w = (t1 - t0) % 1.0
    if w > 0.5:
        return GeodesicSide(t1, 1.0 - w)
    return GeodesicSide(t0, w)


def reflect_polygon(vertex_cycle, j: int) -> tuple[CirclePoint, ...]:
    """Reflect a vertex cycle across its side ``j`` (1-based).

    The side's endpoints stay fixed; every other vertex is replaced by its
    inversion image, which lands strictly inside the side's arc.  The result
    is re-sorted into positive orientation starting at the side's first
    endpoint.  If the cycle's arc from vertex ``j`` to vertex ``j + 1`` is
    the long way around (as for the closing side of a previously reflected
    cycle), the same geodesic is used via the complementary arc.
    """
    ts = _cycle_fractions(vertex_cycle)
    n = len(ts)
    if not 1 <= j <= n:
        raise DomainError(f"side index must be in 1..{n}")
    a = ts[j - 1]
    e = ts[j % n]
    geo = _side_geodesic(a, e)
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
        if not (1 <= j <= self.n and 1 <= k <= self.n) or j == k:
            raise DomainError("matrix indices must be distinct and in 1..n")
        return float(self.table[j - 1, k - 1])

    def row_sums(self) -> np.ndarray:
        """Per-row totals; row ``j`` tiles the arc of side ``j``."""
        return np.nansum(self.table, axis=1)

    def values(self) -> np.ndarray:
        """All ``n * (n - 1)`` entries in row-major order, diagonal skipped."""
        flat = self.table[~np.eye(self.n, dtype=bool)]
        return flat.copy()


# Table entries per broadcast pass: every (rows, n, n) temporary of a block
# holds at most this many doubles (512 KB), so working memory grows neither
# with the batch nor with n.
_BLOCK_ENTRIES = 65536


def _block_rows(n: int) -> int:
    """Rows of n-gons per broadcast pass."""
    return max(1, _BLOCK_ENTRIES // (n * n))


def _tables_from_vertices(verts: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Inverted-angle tables, shape (B, n, n), for a batch of polygons.

    ``verts`` and ``angles`` are (B, n) arrays of vertex fractions and side
    angles.  Each block of rows takes one broadcast pass: every vertex is
    inverted across every side at once.  Inversion reverses the circular
    order, so the image width of side ``k`` is the mod-1 difference of the
    images of its endpoints taken backwards; noise-level negative
    differences fold to 0 rather than to a full turn.  The diagonal is NaN.
    """
    b, n = verts.shape
    tables = np.empty((b, n, n))
    nxt = np.arange(1, n + 1) % n
    step = _block_rows(n)
    for lo in range(0, b, step):
        v = verts[lo : lo + step]
        # x[r, j, k]: vertex k inverted across side j
        x = invert_fractions(v[:, None, :], v[:, :, None], angles[lo : lo + step, :, None])
        ent = tables[lo : lo + step]
        np.subtract(x, x[:, :, nxt], out=ent)
        ent %= 1.0
        ent[ent > 0.5] = 0.0
    tables.reshape(b, n * n)[:, :: n + 1] = np.nan
    return tables


def angle_tables(angle_rows: np.ndarray) -> np.ndarray:
    """Batch inverted-angle tables for rotation-0 angle vectors, (B, n, n).

    One broadcast pass per block of rows; the diagonal is NaN.
    """
    a = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    v = np.zeros_like(a)
    np.cumsum(a[:, :-1], axis=1, out=v[:, 1:])
    v %= 1.0
    return _tables_from_vertices(v, a)


def inverted_angle_matrix(poly: IdealPolygon) -> InvertedAngleMatrix:
    """The table of inverted side angles of a polygon."""
    verts = vertex_fractions(poly)[None, :]
    angles = np.asarray(poly.angles)[None, :]
    table = _tables_from_vertices(verts, angles)[0]
    return InvertedAngleMatrix(poly.n, table)


def max_inverted_angle(poly: IdealPolygon) -> tuple[float, int, int]:
    """Largest inverted angle and its (row, column), 1-based.

    Ties resolve to the lexicographically smallest ``(j, k)``, which the
    row-major scan of the table guarantees.
    """
    table = inverted_angle_matrix(poly).table
    flat = int(np.nanargmax(table))
    j, k = divmod(flat, poly.n)
    return float(table[j, k]), j + 1, k + 1


def is_regular(angles, tol: float = REGULARITY_TOL) -> bool:
    """Whether all angles agree with 1/n within ``tol``."""
    arr = np.asarray(angles, dtype=float)
    if arr.ndim != 1 or arr.size < 3:
        raise DomainError("need a flat vector of at least 3 angles")
    return bool(np.max(np.abs(arr - 1.0 / arr.size)) <= tol)


@dataclass(frozen=True, eq=False)
class Body:
    """The union of all reflection generations up to ``generations``.

    ``gaps[g]`` is the ``(C_g, n)`` array of side widths of the generation-
    ``g`` cells, in creation order.  A grown cell starts at the first
    endpoint of the parent side it was reflected across: its first ``n - 1``
    widths tile that side's arc and its last one, ``1 - w``, is the shared
    side taken the long way round.  ``boundary_angles`` are the arcs between
    consecutive boundary vertices of the union, in positive orientation
    starting from the smallest fraction.  ``polygons[g]`` lists the vertex
    cycles (tuples of turn fractions) of generation ``g``; it is built from
    the widths on first access.
    """

    base: IdealPolygon
    generations: int
    gaps: tuple[np.ndarray, ...] = field(repr=False)
    boundary_angles: np.ndarray

    @property
    def polygon_counts(self) -> tuple[int, ...]:
        """Cells per generation."""
        return tuple(len(g) for g in self.gaps)

    @cached_property
    def polygons(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        n = self.base.n
        verts = vertex_fractions(self.base)[None, :]
        out = [tuple(map(tuple, verts.tolist()))]
        for widths in self.gaps[1:]:
            free = widths.shape[0] // verts.shape[0]
            start = verts[:, :free].reshape(-1)
            end = np.roll(verts, -1, axis=1)[:, :free].reshape(-1)
            inner = (start[:, None] + np.cumsum(widths[:, : n - 2], axis=1)) % 1.0
            verts = np.column_stack([start, inner, end])
            out.append(tuple(map(tuple, verts.tolist())))
        return tuple(out)


def _reflect_generation(widths: np.ndarray, free: int) -> np.ndarray:
    """Reflect every cell across each of its first ``free`` sides at once.

    ``widths`` is a ``(C, n)`` array of cell side widths; the result is the
    ``(C * free, n)`` array of the children's widths, cell by cell and side
    by side.  With offsets measured from the reflecting side's start ``a``
    (width ``w``), a vertex at offset ``delta`` maps to the offset ``x`` with
    ``cot(pi x) = 2 cot(pi w) - cot(pi delta)`` (the half-plane form of the
    reflection), which reverses the vertex order.  Each ``delta`` is a sum of
    widths taken from the nearer endpoint of the side, and each new width is
    evaluated directly rather than as a difference of fractions:

    * next to ``a``, the image of the vertex before ``a`` is ``x`` itself;
    * next to the side's end, the gap ``y`` from the image of the vertex
      after the end to the end satisfies
      ``cot(pi y) = 2 cot(pi w) + cot(pi (delta - w))``;
    * between two images, the chord law of inversion gives
      ``sin(pi dx) = sin(pi x1) sin(pi x2) sin(pi g) / (sin(pi delta1)
      sin(pi delta2))`` for the source width ``g``; where that sine is
      large the plain difference of the two offsets is used instead, which
      is accurate there and avoids an ill-conditioned arcsine.

    A cell's shared side spans the long way round; it only ever enters
    through its sine, taken from the sum of the other widths.
    """
    c, n = widths.shape
    turn = (np.arange(free)[:, None] + np.arange(n)) % n
    cells = widths[:, turn].reshape(c * free, n)
    w = cells[:, :1]
    rest = cells[:, 1:]  # widths from the side's end round to its start
    from_end = np.cumsum(rest[:, :-1], axis=1)
    from_start = np.cumsum(rest[:, :0:-1], axis=1)[:, ::-1]
    near_start = from_start < from_end
    arg = np.pi * np.where(near_start, from_start, w + from_end)
    # cot(pi delta) with delta = 1 - from_start or w + from_end
    cot_delta = np.where(near_start, -1.0, 1.0) / np.tan(arg)
    cot_w2 = 2.0 / np.tan(np.pi * w)
    x = np.arctan2(1.0, cot_w2 - cot_delta) / np.pi
    # sin(pi g) = sin(pi (1 - g)): the long way round keeps its digits in
    # the sum of the other widths
    source = rest[:, 1:-1]
    source = np.where(source > 0.5, w + from_end[:, :-1] + from_start[:, 1:], source)
    sin_x = np.sin(np.pi * x)
    sin_dx = sin_x[:, :-1] * sin_x[:, 1:] * np.sin(np.pi * source)
    sin_dx /= np.sin(arg[:, :-1]) * np.sin(arg[:, 1:])
    between = np.where(
        sin_dx < 0.5, np.arcsin(np.minimum(sin_dx, 0.5)) / np.pi, x[:, :-1] - x[:, 1:]
    )
    # cot(pi (delta - w)) for the vertex after the side's end
    after = np.where(near_start[:, 0], -1.0, 1.0) / np.tan(
        np.pi * np.where(near_start[:, 0], w[:, 0] + from_start[:, 0], from_end[:, 0])
    )
    children = np.empty_like(cells)
    children[:, 0] = x[:, -1]
    children[:, 1 : n - 2] = between[:, ::-1]
    children[:, n - 2] = np.arctan2(1.0, cot_w2[:, 0] + after) / np.pi
    children[:, n - 1] = 1.0 - w[:, 0]
    if not children[:, :-1].min() >= ARC_GUARD:
        raise PrecisionError("arc width underflow: vertices no longer separable")
    return children


def grow_body(poly: IdealPolygon, s: int, max_sides: int = DEFAULT_MAX_SIDES) -> Body:
    """Grow the reflection body of ``poly`` through ``s`` generations.

    Generation 0 is the seed; generation ``g + 1`` reflects every
    generation-``g`` cell across each of its free sides (all ``n`` sides
    for the seed, the ``n - 1`` non-shared ones afterwards), one batched
    step per generation on the cells' width vectors.  Children come out in
    creation order, which is also the positive order of the arcs they
    cover, so the boundary is the last generation's free widths in that
    order, rotated once to start at the smallest fraction; nothing is
    sorted.  Grown arcs keep their relative precision; growth stops with
    ``PrecisionError`` once a new arc falls below ``ARC_GUARD``.
    """
    if s < 0 or int(s) != s:
        raise DomainError("generation count must be a non-negative integer")
    s = int(s)
    n = poly.n
    projected = n * (n - 1) ** s
    if projected > max_sides:
        raise DepthLimitError(
            f"projected boundary side count {projected} exceeds cap {max_sides}"
        )
    widths = np.asarray(poly.angles, dtype=float)[None, :]
    gaps = [widths]
    for g in range(s):
        widths = _reflect_generation(widths, n if g == 0 else n - 1)
        gaps.append(widths)
    arcs = (widths if s == 0 else widths[:, :-1]).reshape(-1)
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
