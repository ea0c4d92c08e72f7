"""Area functionals, their oracles, and the majorization utilities."""

import math

import numpy as np
import pytest

from hypergon.errors import DomainError
from hypergon.extremal import FINDING_SLACK
from hypergon.measures import (
    AngleSpectrum,
    area_upper_bound,
    decreasing_rearrangement,
    euclidean_area,
    hyperbolic_area_ideal,
    hyperbolic_area_quadrature,
    majorizes,
    schur_concave_sum,
    side_region_area,
)
from hypergon.polygon import IdealPolygon, grow_body, inverted_angle_matrix

from conftest import random_angle_vectors

# frozen via the closed form and confirmed by the grid-count oracle below
F_QUARTER = 1.0 - math.pi / 4.0
F_THIRD = math.sqrt(3.0) - math.pi / 2.0
F_SIXTH = 0.22828441879075986


def _region_area_gridcount(alpha: float, cells_per_axis: int = 4000) -> float:
    """Independent 2D oracle: count grid cells inside the side region.

    The region is the disk sector of width ``alpha`` turns minus the lens
    beyond the side's orthogonal circle.
    """
    sec = 1.0 / math.cos(math.pi * alpha)
    rho = math.tan(math.pi * alpha)
    cx = sec * math.cos(math.pi * alpha)
    cy = sec * math.sin(math.pi * alpha)
    xs = (np.arange(cells_per_axis) + 0.5) / cells_per_axis * 2.0 - 1.0
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    ang = np.arctan2(gy, gx) % (2.0 * np.pi)
    inside = (gx * gx + gy * gy < 1.0) & (ang > 0.0) & (ang < 2.0 * np.pi * alpha)
    outside_ortho = (gx - cx) ** 2 + (gy - cy) ** 2 > rho * rho
    return np.count_nonzero(inside & outside_ortho) / cells_per_axis**2 * 4.0


# --- side region area -------------------------------------------------------


def test_side_region_area_closed_forms():
    assert side_region_area(0.25) == pytest.approx(F_QUARTER, abs=1e-14)
    assert side_region_area(1.0 / 3.0) == pytest.approx(F_THIRD, abs=1e-14)
    assert side_region_area(1.0 / 6.0) == pytest.approx(F_SIXTH, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.25, 1.0 / 6.0, 1.0 / 3.0])
def test_side_region_area_matches_grid_oracle(alpha):
    assert side_region_area(alpha) == pytest.approx(_region_area_gridcount(alpha), abs=1e-4)


def test_side_region_area_holds_relative_precision_at_both_ends():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    ends = np.logspace(-12, math.log10(0.25), 120)
    alphas = np.concatenate([ends, 0.5 - ends, np.linspace(0.2, 0.3, 41)])
    for alpha, got in zip(alphas, side_region_area(alphas)):
        a = mp.mpf(float(alpha))
        t = mp.tan(mp.pi * a)
        exact = t * (1 - mp.pi * t * (mp.mpf(1) / 2 - a))
        assert abs(float((mp.mpf(float(got)) - exact) / exact)) < 1e-13


@pytest.mark.parametrize("n", range(3, 9))
def test_area_bound_holds_next_to_a_half_turn(n):
    # the thm52 relation, with one angle 1e-10 short of a half turn
    alpha = 0.5 - 1e-10
    rows = np.array([[alpha] + [(1 - alpha) / (n - 1)] * (n - 1)])
    areas = np.sum(side_region_area(rows), axis=1)
    assert np.all(areas <= area_upper_bound(n) + FINDING_SLACK)


def test_side_region_area_vanishes_at_zero():
    assert side_region_area(1e-6) < 1e-5
    assert side_region_area(1e-9) < 1e-8


def test_side_region_area_positive_on_domain():
    grid = np.linspace(1e-4, 0.5 - 1e-4, 1001)
    assert np.all(side_region_area(grid) > 0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.1, 0.7])
def test_side_region_area_rejects_out_of_domain(alpha):
    with pytest.raises(DomainError):
        side_region_area(alpha)


def test_side_region_area_concavity():
    # strictly negative second differences where they carry signal; near the
    # 1/2 pole the evaluation noise (~sec^2 * eps) may reach ~1e-8
    for h in (1e-3, 1e-4):
        grid = np.linspace(2 * h, 0.5 - 2 * h, 2000)
        second = side_region_area(grid - h) + side_region_area(grid + h) - 2 * side_region_area(grid)
        assert np.all(second < 1e-8)
        interior = grid < 0.45
        assert np.all(second[interior] < 0.0)


# --- polygon areas ------------------------------------------------------------


def test_euclidean_area_regular_four():
    assert euclidean_area([0.25] * 4) == pytest.approx(4.0 - math.pi, abs=1e-14)


def test_euclidean_area_regular_three():
    assert euclidean_area([1 / 3] * 3) == pytest.approx(3 * math.sqrt(3) - 1.5 * math.pi, abs=1e-13)


def test_euclidean_area_monte_carlo_oracle():
    # region inside the disk and outside the four unit circles at (+-1, +-1)
    rng = np.random.default_rng(424242)
    pts = rng.uniform(-1, 1, (1_000_000, 2))
    keep = (pts**2).sum(axis=1) < 1.0
    for cx, cy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        keep &= (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 > 1.0
    estimate = np.count_nonzero(keep) / len(pts) * 4.0
    assert euclidean_area([0.25] * 4) == pytest.approx(estimate, abs=5e-3)


def test_euclidean_area_permutation_invariant(rng):
    angles = random_angle_vectors(rng, 5, 1)[0]
    base = euclidean_area(angles)
    for _ in range(5):
        assert euclidean_area(rng.permutation(angles)) == pytest.approx(base, abs=1e-14)


def test_euclidean_area_rejects_bad_vectors():
    with pytest.raises(DomainError):
        euclidean_area([0.2, 0.2, 0.2])
    with pytest.raises(DomainError):
        euclidean_area([[0.25] * 4])


# --- bounds -------------------------------------------------------------------


def test_area_upper_bound_four_is_four_minus_pi():
    assert abs(area_upper_bound(4) - (4.0 - math.pi)) < 1e-14


def test_area_upper_bound_three():
    assert area_upper_bound(3) == pytest.approx(3 * math.sqrt(3) - 1.5 * math.pi, abs=1e-14)


@pytest.mark.parametrize("n", range(3, 13))
def test_area_upper_bound_tight_at_regular(n):
    assert abs(area_upper_bound(n) - euclidean_area([1.0 / n] * n)) < 1e-14


def test_area_upper_bound_rejects_small_n():
    with pytest.raises(DomainError):
        area_upper_bound(2)


def test_jensen_bound_random(rng):
    for n in (3, 4, 6):
        rows = random_angle_vectors(rng, n, 200)
        bound = area_upper_bound(n)
        for row in rows:
            assert euclidean_area(row) <= bound + 1e-12


# --- hyperbolic area ----------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(3, math.pi / 4), (4, math.pi / 2), (6, math.pi)])
def test_hyperbolic_area_ideal_values(n, expected):
    assert hyperbolic_area_ideal(n) == pytest.approx(expected, abs=1e-15)


def test_hyperbolic_area_ideal_rejects_small_n():
    with pytest.raises(DomainError):
        hyperbolic_area_ideal(2)


@pytest.mark.parametrize("n", [3, 4])
def test_hyperbolic_quadrature_regular(n):
    got = hyperbolic_area_quadrature(IdealPolygon.regular(n), 1_000_000)
    assert got == pytest.approx(hyperbolic_area_ideal(n), rel=0.01)


def test_hyperbolic_quadrature_angle_independent(rng):
    angles = random_angle_vectors(rng, 4, 1, floor=0.05)[0]
    got = hyperbolic_area_quadrature(IdealPolygon(tuple(angles)), 1_000_000)
    assert got == pytest.approx(math.pi / 2, rel=0.01)


def test_hyperbolic_quadrature_converges_with_cells():
    p = IdealPolygon.regular(3)
    coarse = hyperbolic_area_quadrature(p, 10_000)
    fine = hyperbolic_area_quadrature(p, 1_000_000)
    assert coarse == pytest.approx(math.pi / 4, rel=0.01)
    assert abs(fine - math.pi / 4) <= abs(coarse - math.pi / 4) + 1e-9


def _per_side_quadrature(poly, cells):
    """The quadrature as it was before equal sides were shared: every side integrated."""
    per_half = max(1, cells // (2 * poly.n))
    nodes, weights = np.polynomial.legendre.leggauss(4)
    total = 0.0
    for w in poly.angles:
        sec = 1.0 / math.cos(math.pi * w)
        edges = np.linspace(0.0, math.sqrt(0.5 * w), per_half + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        u = (mid[:, None] + half * nodes[None, :]).ravel()
        wt = (half * weights[None, :] * np.ones_like(mid)[:, None]).ravel()
        cos_d = np.cos(2.0 * np.pi * (u * u - 0.5 * w))
        reach = sec * cos_d
        r = reach - np.sqrt(np.maximum(reach * reach - 1.0, 0.0))
        h = 0.5 * (1.0 / (1.0 - r * r) - 1.0)
        total += 2.0 * 4.0 * math.pi * float(np.sum(wt * h * u))
    return total


@pytest.mark.parametrize(
    "angles, distinct",
    [
        pytest.param(IdealPolygon.regular(5).angles, 1, id="regular5"),
        pytest.param((0.2, 0.3, 0.2, 0.3), 2, id="pqpq"),
        pytest.param((0.2, 0.3, 0.15, 0.35), 4, id="distinct"),
    ],
)
@pytest.mark.parametrize("cells", [10_000, 200_000])
def test_hyperbolic_quadrature_integrates_equal_sides_once(monkeypatch, angles, distinct, cells):
    poly = IdealPolygon(angles)
    expected = _per_side_quadrature(poly, cells)
    # each side the quadrature integrates lays out its cells with one linspace
    integrated = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *args, **kw: integrated.append(args[1]) or linspace(*args, **kw))
    got = hyperbolic_area_quadrature(poly, cells)
    monkeypatch.undo()
    assert got == expected
    assert len(integrated) == len(set(integrated)) == distinct


def test_hyperbolic_quadrature_rejects_low_resolution():
    with pytest.raises(DomainError):
        hyperbolic_area_quadrature(IdealPolygon.regular(3), 9_999)


# --- spectra and majorization ---------------------------------------------------


def test_decreasing_rearrangement_sorts():
    spec = decreasing_rearrangement([0.1, 0.3, 0.2])
    assert list(spec.values) == [0.3, 0.2, 0.1]


def test_decreasing_rearrangement_idempotent():
    spec = decreasing_rearrangement([0.3, 0.2, 0.1])
    again = decreasing_rearrangement(spec.values)
    assert np.array_equal(spec.values, again.values)


def test_decreasing_rearrangement_regular_triangle_matrix():
    values = inverted_angle_matrix(IdealPolygon.regular(3)).values()
    spec = decreasing_rearrangement(values)
    assert np.allclose(spec.values, 1 / 6, atol=1e-12)


def test_decreasing_rearrangement_rejects_empty():
    with pytest.raises(DomainError):
        decreasing_rearrangement([])


def test_spectrum_validates_order_and_sign():
    with pytest.raises(DomainError):
        AngleSpectrum(np.array([0.1, 0.2]))
    with pytest.raises(DomainError):
        AngleSpectrum(np.array([0.2, -0.1]))


def test_majorizes_examples():
    x = decreasing_rearrangement([0.5, 0.3, 0.2])
    y = decreasing_rearrangement([0.4, 0.4, 0.2])
    assert majorizes(x, y)
    assert majorizes(x, x)
    a = decreasing_rearrangement([0.5, 0.25, 0.25])
    b = decreasing_rearrangement([0.45, 0.45, 0.1])
    assert not majorizes(a, b)


def test_majorizes_requires_matching_spectra():
    x = decreasing_rearrangement([0.5, 0.5])
    with pytest.raises(DomainError):
        majorizes(x, decreasing_rearrangement([0.5, 0.3, 0.2]))
    with pytest.raises(DomainError):
        majorizes(x, decreasing_rearrangement([0.4, 0.4]))


def _pinch(rng, values, rounds):
    """Apply Robin Hood transfers; the result is majorized by the input."""
    out = values.copy()
    for _ in range(rounds):
        i, j = rng.choice(len(out), 2, replace=False)
        hi, lo = (i, j) if out[i] >= out[j] else (j, i)
        t = rng.uniform(0.0, 0.5) * (out[hi] - out[lo])
        out[hi] -= t
        out[lo] += t
    return out


def test_majorization_partial_order(rng):
    for _ in range(50):
        base = np.sort(rng.uniform(0.05, 0.45, 6))[::-1]
        x = decreasing_rearrangement(base)
        y = decreasing_rearrangement(_pinch(rng, base, 3))
        z = decreasing_rearrangement(_pinch(rng, y.values, 3))
        assert majorizes(x, y) and majorizes(y, z)
        assert majorizes(x, z)  # transitivity
        if majorizes(y, x):
            assert np.allclose(x.values, y.values, atol=1e-12)  # antisymmetry


def test_schur_concave_sum_regular_triangle():
    spec = decreasing_rearrangement(inverted_angle_matrix(IdealPolygon.regular(3)).values())
    assert schur_concave_sum(spec) == pytest.approx(6.0 * F_SIXTH, abs=1e-12)


def test_schur_concave_sum_order_invariant(rng):
    values = rng.uniform(0.01, 0.4, 8)
    spec = decreasing_rearrangement(values)
    total = float(np.sum(side_region_area(values)))
    assert schur_concave_sum(spec) == pytest.approx(total, abs=1e-14)


def test_schur_concavity_on_majorized_pairs(rng):
    for _ in range(100):
        base = np.sort(rng.uniform(0.05, 0.45, 6))[::-1]
        x = decreasing_rearrangement(base)
        y = decreasing_rearrangement(_pinch(rng, base, 4))
        assert majorizes(x, y)
        assert schur_concave_sum(x) <= schur_concave_sum(y) + 1e-12


def test_schur_sum_equals_first_generation_body_area(rng):
    angles = random_angle_vectors(rng, 4, 1, floor=0.05)[0]
    poly = IdealPolygon(tuple(angles))
    body = grow_body(poly, 1)
    spec = decreasing_rearrangement(inverted_angle_matrix(poly).values())
    assert schur_concave_sum(spec) == pytest.approx(euclidean_area(body.boundary_angles), abs=1e-12)
