"""Polygon construction, reflection, the inverted-angle table, and growth."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypergon.cli import body_to_doc
from hypergon.disk_geometry import CirclePoint, GeodesicSide, invert_fractions, invert_on_circle
from hypergon.errors import DepthLimitError, DomainError, PrecisionError
from hypergon.extremal import sample_simplex
from hypergon.polygon import (
    Body,
    IdealPolygon,
    _block_rows,
    _grow,
    _regular_rows,
    angle_tables,
    grow_body,
    inverted_angle_matrix,
    is_regular,
    max_inverted_angle,
    reflect_polygon,
    side,
    vertex_fractions,
    vertices,
)

from conftest import circular_gap, random_angle_vectors, replay_table

# frozen via the Euclidean oracle: reflecting the regular 4-gon across its
# first side sends the two far vertices to these fractions
IMG_FAR = math.atan(0.5) / math.pi        # 0.14758...
IMG_NEAR = 0.25 - IMG_FAR                 # 0.10241...
CORNER_4 = IMG_NEAR                       # largest inverted angle of the regular 4-gon
MIDDLE_4 = 2.0 * IMG_FAR - 0.25           # opposite-side image width


# --- construction ------------------------------------------------------------


def test_regular_polygon():
    p = IdealPolygon.regular(4)
    assert p.n == 4
    assert p.angles == (0.25, 0.25, 0.25, 0.25)


@pytest.mark.parametrize(
    "angles",
    [
        (0.5, 0.25, 0.25),          # angle at the closed end
        (0.2, 0.2, 0.2),            # sum != 1
        (0.6, 0.2, 0.2),            # angle beyond 1/2
        (0.5, 0.5),                 # too few sides
    ],
)
def test_rejects_bad_angle_vectors(angles):
    with pytest.raises(DomainError):
        IdealPolygon(tuple(angles))


def test_vertices_regular_four():
    assert np.allclose(vertex_fractions(IdealPolygon.regular(4)), [0, 0.25, 0.5, 0.75], atol=1e-15)


def test_vertices_cumulative():
    p = IdealPolygon((0.2, 0.3, 0.1, 0.4))
    assert np.allclose(vertex_fractions(p), [0.0, 0.2, 0.5, 0.6], atol=1e-15)


def test_vertices_rotated():
    p = IdealPolygon.regular(3, rotation=0.1)
    expect = [0.1, 0.1 + 1 / 3, 0.1 + 2 / 3]
    assert np.allclose(vertex_fractions(p), expect, atol=1e-15)
    assert all(isinstance(v, CirclePoint) for v in vertices(p))


def test_side_lookup():
    p = IdealPolygon.regular(4)
    s1 = side(p, 1)
    assert (s1.a, s1.alpha) == (0.0, 0.25)
    s4 = side(p, 4)
    assert (s4.a, s4.alpha) == (0.75, 0.25)
    p2 = IdealPolygon((0.2, 0.3, 0.1, 0.4))
    s3 = side(p2, 3)
    assert (s3.a, s3.alpha) == (0.5, 0.1)
    with pytest.raises(DomainError):
        side(p, 0)
    with pytest.raises(DomainError):
        side(p, 5)


# --- reflection ---------------------------------------------------------------


def test_reflect_regular_triangle_across_third_side():
    cyc = vertices(IdealPolygon.regular(3))
    out = [c.t for c in reflect_polygon(cyc, 3)]
    assert out[0] == pytest.approx(2 / 3, abs=1e-15)
    assert out[1] == pytest.approx(5 / 6, abs=1e-12)
    assert out[2] == pytest.approx(0.0, abs=1e-12)


def test_reflect_regular_four_across_first_side():
    out = [c.t for c in reflect_polygon(vertices(IdealPolygon.regular(4)), 1)]
    assert out == pytest.approx([0.0, IMG_NEAR, IMG_FAR, 0.25], abs=1e-12)


def test_reflect_twice_recovers_cycle(rng):
    for n in (3, 4, 6):
        angles = random_angle_vectors(rng, n, 1, floor=0.02)[0]
        cyc = vertices(IdealPolygon(tuple(angles)))
        j = int(rng.integers(1, n + 1))
        once = reflect_polygon(cyc, j)
        # the shared side is the closing side of the reflected cycle
        back = reflect_polygon(once, n)
        orig = sorted(c.t for c in cyc)
        again = sorted(c.t for c in back)
        assert np.all(circular_gap(orig, again) < 1e-12)


@pytest.mark.parametrize(
    "cycle",
    [0.5, None, CirclePoint(0.1), (0.0, 0.5), (0.0, 0.5, 0.25)],
    ids=["float", "None", "CirclePoint", "two-points", "unordered"],
)
def test_reflect_rejects_a_malformed_cycle(cycle):
    with pytest.raises(DomainError, match="vertex cycle"):
        reflect_polygon(cycle, 1)


def test_reflect_images_stay_inside_side_arc(rng):
    angles = random_angle_vectors(rng, 5, 1, floor=0.05)[0]
    poly = IdealPolygon(tuple(angles))
    cyc = vertices(poly)
    for j in range(1, 6):
        out = [c.t for c in reflect_polygon(cyc, j)]
        a = vertex_fractions(poly)[j - 1]
        w = poly.angles[j - 1]
        offsets = [(t - a) % 1.0 for t in out]
        assert max(offsets) <= w + 1e-12


# --- inverted-angle table -----------------------------------------------------


def test_matrix_regular_triangle_all_sixth():
    m = inverted_angle_matrix(IdealPolygon.regular(3))
    assert np.allclose(m.values(), 1 / 6, atol=1e-12)
    assert len(m.values()) == 6


def test_matrix_regular_four_first_row():
    m = inverted_angle_matrix(IdealPolygon.regular(4))
    row = [m.entry(1, k) for k in (2, 3, 4)]
    assert row == pytest.approx([CORNER_4, MIDDLE_4, CORNER_4], abs=1e-12)
    assert sum(row) == pytest.approx(0.25, abs=1e-12)


def test_matrix_row_sums_tile_sides(rng):
    for n in (3, 4, 6, 8):
        for angles in random_angle_vectors(rng, n, 50):
            m = inverted_angle_matrix(IdealPolygon(tuple(angles)))
            assert np.max(np.abs(m.row_sums() - angles)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=8),
    rotation=st.floats(0.0, 1.0, exclude_max=True),
)
def test_matrix_row_sums_tile_sides_property(raw, rotation):
    total = sum(raw)
    angles = tuple(v / total for v in raw)
    assume(max(angles) < 0.5 - 1e-9)
    m = inverted_angle_matrix(IdealPolygon(angles, rotation))
    assert np.max(np.abs(m.row_sums() - np.asarray(angles))) < 1e-12


def _tables_side_by_side(verts, angles):
    """Reference tables: one inversion per reflecting side, as a loop."""
    b, n = verts.shape
    tables = np.empty((b, n, n))
    for j in range(n):
        x = invert_fractions(verts, verts[:, j : j + 1], angles[:, j : j + 1])
        ent = (x - np.roll(x, -1, axis=1)) % 1.0
        tables[:, j, :] = np.where(ent > 0.5, 0.0, ent)
    idx = np.arange(n)
    tables[:, idx, idx] = np.nan
    return tables


# The width kernel and the vertex inversion round differently, so the loop
# agrees to an absolute 1e-14, not bit for bit.
@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("one_row", [True, False])
def test_angle_tables_match_side_by_side_loop_bit_for_bit(n, one_row):
    # past one row block, the last block is partial
    b = 1 if one_row else _block_rows(n) + 3
    rows = sample_simplex(n, b, np.random.default_rng(100 * n + b))
    verts = np.concatenate([np.zeros((b, 1)), np.cumsum(rows, axis=1)[:, :-1]], axis=1) % 1.0
    got = angle_tables(rows)
    want = _tables_side_by_side(verts, rows)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.nanmax(np.abs(got - want)) < 1e-14


def test_inverted_angle_matrix_matches_side_by_side_loop_bit_for_bit(rng):
    for n in range(3, 9):
        for angles in sample_simplex(n, 20, rng):
            poly = IdealPolygon(tuple(angles), rotation=0.6180339887)
            want = _tables_side_by_side(
                vertex_fractions(poly)[None, :], np.asarray(poly.angles)[None, :]
            )[0]
            got = inverted_angle_matrix(poly).table
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.nanmax(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("n", range(3, 9))
def test_angle_tables_hold_relative_precision(n):
    mpmath = pytest.importorskip("mpmath")
    rows = list(sample_simplex(n, 20, np.random.default_rng(n)))
    rows.append(np.array([1e-7] + [(1 - 1e-7) / (n - 1)] * (n - 1)))
    if n == 4:
        rows.append(np.array([1e-10, 0.3, 0.3, 0.4 - 1e-10]))
        rows.append(np.array([0.4999999, 0.25, 0.15, 0.1000001]))
    for row in rows:
        got = angle_tables(row)[0]
        exact = replay_table(mpmath, row)
        worst = max(abs(float((mpmath.mpf(float(got[jk])) - e) / e)) for jk, e in exact.items())
        assert worst < 1e-13


def test_matrix_entry_indexing():
    m = inverted_angle_matrix(IdealPolygon.regular(3))
    with pytest.raises(DomainError):
        m.entry(1, 1)
    with pytest.raises(DomainError):
        m.entry(0, 2)


def test_max_inverted_angle_regular_four():
    value, j, k = max_inverted_angle(IdealPolygon.regular(4))
    assert value == pytest.approx(CORNER_4, abs=1e-12)
    assert (j, k) == (1, 2)


def test_max_inverted_angle_regular_three_tie_break():
    value, j, k = max_inverted_angle(IdealPolygon.regular(3))
    assert value == pytest.approx(1 / 6, abs=1e-12)
    assert (j, k) == (1, 2)


def test_max_inverted_angle_nonregular_exceeds_regular(rng):
    for angles in random_angle_vectors(rng, 4, 50, floor=0.01):
        value, _, _ = max_inverted_angle(IdealPolygon(tuple(angles)))
        assert value > CORNER_4


# --- regularity ---------------------------------------------------------------


def test_regular_seed_corner_image_closed_form():
    # the next-nearest vertex of the regular n-gon reflects across the first
    # side to -1/2 + 2/n + atan(sin(3pi/n)/(cos(pi/n) - cos(3pi/n)))/pi; the
    # remaining corner gap differs from the equal split 1/(n(n-1)) for n >= 4,
    # which is why one growth step breaks regularity for every n except 3
    for n in range(4, 13):
        side = GeodesicSide(0.0, 1.0 / n)
        x = invert_on_circle(2.0 / n, side)
        closed = (
            -0.5
            + 2.0 / n
            + math.atan(math.sin(3 * math.pi / n) / (math.cos(math.pi / n) - math.cos(3 * math.pi / n)))
            / math.pi
        ) % 1.0
        assert x == pytest.approx(closed, abs=1e-15)
        corner_gap = 1.0 / n - x
        assert abs(corner_gap - 1.0 / (n * (n - 1))) > 1e-3
    # n = 3 is the exception: the image lands exactly at the arc midpoint
    assert invert_on_circle(2.0 / 3.0, GeodesicSide(0.0, 1.0 / 3.0)) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_is_regular_basic():
    assert is_regular((0.25, 0.25, 0.25, 0.25), 1e-9)
    assert not is_regular((0.25 + 1e-6, 0.25 - 1e-6, 0.25, 0.25), 1e-9)


def test_row_regularity_is_the_largest_deviation_at_its_exact_edge(rng):
    # each row's tolerance is its own largest |x - 1/m|, so the test sits on
    # the edge: any other rounding of the deviation flips some verdict
    for m in (3, 8, 56):
        rows = np.vstack([random_angle_vectors(rng, m, 200, floor=0.0), np.full((1, m), 1.0 / m)])
        deviation = np.max(np.abs(rows - 1.0 / m), axis=1)
        for row, dev in zip(rows, deviation):
            assert is_regular(row, dev) and _regular_rows(row[None, :], dev)[0]
            if dev > 0.0:
                assert not is_regular(row, np.nextafter(dev, 0.0))
        cells = rows.reshape(len(rows), 1, m)
        assert np.array_equal(_regular_rows(cells, 0.01), deviation <= 0.01)


def test_is_regular_of_grown_triangle():
    body = grow_body(IdealPolygon.regular(3), 1)
    assert is_regular(body.boundary_angles, 1e-9)


# --- growth -------------------------------------------------------------------


def test_grow_triangle_one_generation():
    body = grow_body(IdealPolygon.regular(3), 1)
    assert body.polygon_counts == (1, 3)
    assert len(body.boundary_angles) == 6
    assert np.allclose(body.boundary_angles, 1 / 6, atol=1e-12)


def test_grow_counts_and_sum():
    body = grow_body(IdealPolygon.regular(4), 2)
    assert body.polygon_counts == (1, 4, 12)
    assert len(body.boundary_angles) == 36
    assert abs(body.boundary_angles.sum() - 1.0) < 1e-9


def test_grow_zero_generations_echoes_angles():
    p = IdealPolygon((0.2, 0.3, 0.1, 0.4))
    body = grow_body(p, 0)
    assert np.allclose(np.sort(body.boundary_angles), np.sort(p.angles), atol=1e-15)
    assert body.polygon_counts == (1,)


def test_grow_body_laws_random(rng):
    for n, s in [(3, 3), (4, 2), (5, 2)]:
        angles = random_angle_vectors(rng, n, 1, floor=0.1)[0]
        body = grow_body(IdealPolygon(tuple(angles)), s)
        assert len(body.boundary_angles) == n * (n - 1) ** s
        assert abs(body.boundary_angles.sum() - 1.0) < 1e-9
        assert body.boundary_angles.max() < 0.5
        assert body.boundary_angles.min() > 0.0
        counts = body.polygon_counts
        assert counts[0] == 1
        assert all(counts[g] == n * (n - 1) ** (g - 1) for g in range(1, s + 1))


def test_grow_is_deterministic():
    p = IdealPolygon((0.2, 0.3, 0.1, 0.4))
    b1 = grow_body(p, 3)
    b2 = grow_body(p, 3)
    assert np.array_equal(b1.boundary_angles, b2.boundary_angles)
    assert b1.polygons == b2.polygons


def test_grow_depth_cap():
    with pytest.raises(DepthLimitError):
        grow_body(IdealPolygon.regular(4), 3, max_sides=100)
    # 4 * 3**3 = 108 sides: the cap is inclusive
    assert grow_body(IdealPolygon.regular(4), 3, max_sides=108).boundary_angles.size == 108
    with pytest.raises(DepthLimitError, match=r"count 4\*3\^3 exceeds cap 107"):
        grow_body(IdealPolygon.regular(4), 3, max_sides=107)
    # refused without building a 1.6-billion-bit count
    with pytest.raises(DepthLimitError, match=r"count 4\*3\^1000000000 exceeds"):
        grow_body(IdealPolygon.regular(4), 10**9)


def test_grow_arc_underflow_guard():
    # the tiny side's images shrink quadratically per generation
    thin = IdealPolygon((0.3, 0.3, 0.399, 0.001))
    grow_body(thin, 1)
    with pytest.raises(PrecisionError):
        grow_body(thin, 2)
    # the smallest arc is 3.6e-8 wide at s=6 and falls under the guard at s=7
    nonregular = IdealPolygon((0.2, 0.3, 0.15, 0.35))
    grow_body(nonregular, 6)
    with pytest.raises(PrecisionError):
        grow_body(nonregular, 7)


def test_grow_rejects_negative_generations():
    with pytest.raises(DomainError):
        grow_body(IdealPolygon.regular(3), -1)


def _mixed_seeds(rng, n, count):
    """Random seeds, the regular n-gon and one side near 1/2, in one batch."""
    wide = np.full(n, 0.5 / (n - 1))
    wide[n // 2] = 0.49
    wide /= wide.sum()
    return np.vstack([random_angle_vectors(rng, n, count, floor=0.02), np.full(n, 1.0 / n), wide])


@pytest.mark.parametrize("n", range(3, 9))
def test_batched_growth_matches_grow_body_bit_for_bit(rng, n):
    # enough seeds that a kernel block ends inside some seed's generation-2
    # cells, where that seed grown alone meets no block boundary
    seeds = _mixed_seeds(rng, n, 200)
    assert len(seeds) * n * (n - 1) > _block_rows(n) and _block_rows(n) % (n * (n - 1))
    for s in range(3):
        batch = _grow(seeds, s)
        assert [g.shape for g in batch] == [(len(seeds), 1 if g == 0 else n * (n - 1) ** (g - 1), n) for g in range(s + 1)]
        for b, row in enumerate(seeds):
            body = grow_body(IdealPolygon(tuple(row)), s)
            assert len(body.gaps) == s + 1
            for g, widths in enumerate(body.gaps):
                assert np.array_equal(batch[g][b], widths)


def test_batched_growth_stops_for_one_thin_seed(rng):
    # the thin seed grows one generation and stops at the second, as alone
    thin = (0.3, 0.3, 0.399, 0.001)
    seeds = np.vstack([random_angle_vectors(rng, 4, 20, floor=0.05), thin])
    assert np.array_equal(_grow(seeds, 1)[1][-1], grow_body(IdealPolygon(thin), 1).gaps[1])
    with pytest.raises(PrecisionError):
        _grow(seeds, 2)


def _replay_arcs(mpmath, angles, rotation, s):
    """Boundary arcs of a body replayed at 40 digits on absolute fractions.

    The replay reflects cells in the same order as ``grow_body`` through the
    closed-form inversion, then sorts every vertex, so arc ``i`` is the
    library's arc ``i``.
    """
    mp = mpmath.mp.clone()
    mp.dps = 40

    def invert(beta, a, alpha):
        d = beta - (a + alpha / 2)
        d -= mp.nint(d)
        gap = mp.atan2(mp.sin(2 * mp.pi * d), mp.cos(mp.pi * alpha) - mp.cos(2 * mp.pi * d))
        return (beta + mp.mpf(1) / 2 + gap / mp.pi) % 1

    n = len(angles)
    seed = [mp.mpf(rotation)]
    for a in angles[:-1]:
        seed.append(seed[-1] + mp.mpf(a))
    seed = tuple(t % 1 for t in seed)
    boundary = list(seed)
    frontier = [seed]
    for g in range(s):
        cells = []
        for verts in frontier:
            for i in range(n if g == 0 else n - 1):
                a, e = verts[i], verts[(i + 1) % n]
                w = (e - a) % 1
                others = (verts[m] for m in range(n) if m not in (i, (i + 1) % n))
                offsets = sorted((invert(t, a, w) - a) % 1 for t in others)
                images = [(a + off) % 1 for off in offsets]
                cells.append((a, *images, e))
                boundary.extend(images)
        frontier = cells
    boundary.sort()
    arcs = [boundary[i + 1] - boundary[i] for i in range(len(boundary) - 1)]
    return arcs + [1 + boundary[0] - boundary[-1]]


@pytest.mark.parametrize(
    "angles,rotation,s",
    [
        ((0.2, 0.3, 0.15, 0.35), 0.0, 6),
        ((0.4999, 0.25, 0.15, 0.1001), 0.0, 3),
        ((1 / 3, 1 / 3, 1 / 3), 0.37, 8),
        # a narrow side mirrored across the opposite one: offsets differ by
        # far less than they are wide
        ((0.45, 0.05, 4e-4, 0.4996), 0.0, 1),
    ],
)
def test_grown_arcs_hold_relative_precision(angles, rotation, s):
    mpmath = pytest.importorskip("mpmath")
    poly = IdealPolygon(angles, rotation)
    body = grow_body(poly, s)
    exact = _replay_arcs(mpmath, poly.angles, poly.rotation, s)
    assert len(exact) == body.boundary_angles.size
    worst = max(abs(float((mpmath.mpf(float(a)) - e) / e)) for a, e in zip(body.boundary_angles, exact))
    assert worst < 1e-13


def test_grown_cells_are_reflections_of_their_parents():
    body = grow_body(IdealPolygon((0.3, 0.15, 0.2, 0.25, 0.1), 0.9), 2)
    for g in (1, 2):
        parents, cells = body.polygons[g - 1], body.polygons[g]
        free = len(cells) // len(parents)
        for k, cell in enumerate(cells):
            expected = reflect_polygon(parents[k // free], k % free + 1)
            assert np.max(circular_gap([p.t for p in expected], cell)) < 1e-12


def test_grow_does_not_build_polygon_tuples():
    body = grow_body(IdealPolygon.regular(4), 3)
    assert body.polygon_counts == (1, 4, 12, 36)
    body_to_doc(body)
    assert "polygons" not in vars(body)
