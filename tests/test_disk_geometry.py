"""Inversion on the circle against the Euclidean oracle and its own laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergon.disk_geometry import (
    ALPHA_MAX,
    ALPHA_MIN,
    CirclePoint,
    GeodesicSide,
    OrthoCircle,
    PlanePoint,
    frac_distance,
    invert_euclidean,
    invert_fractions,
    invert_on_circle,
    inverse_distance,
    side_circle,
    unit_point,
    wrap_unit,
)
from hypergon.errors import DomainError, SingularInputError

from conftest import circular_gap, euclidean_image_fraction

ATAN_HALF_TURN = math.atan(0.5) / math.pi  # image of beta=1/2 across side (0, 1/4)


# --- points ---------------------------------------------------------------


@pytest.mark.parametrize(
    "t,x,y",
    [(0.0, 1.0, 0.0), (0.25, 0.0, 1.0), (0.5, -1.0, 0.0)],
)
def test_unit_point_cardinal(t, x, y):
    p = unit_point(t)
    assert abs(p.x - x) < 1e-15
    assert abs(p.y - y) < 1e-15


def test_unit_point_norm(rng):
    for t in rng.uniform(-10, 10, 500):
        assert abs(unit_point(t).norm() - 1.0) < 1e-15


def test_unit_point_rejects_nonfinite():
    with pytest.raises(DomainError):
        unit_point(math.nan)
    with pytest.raises(DomainError):
        PlanePoint(math.inf, 0.0)


def test_circle_point_reduces_mod_one():
    assert CirclePoint(1.25).t == 0.25
    assert CirclePoint(-0.25).t == 0.75
    assert CirclePoint(3.0).t == 0.0


def test_circle_point_tolerance_identity():
    p = CirclePoint(0.999999999999)
    assert p.approx_eq(CirclePoint(0.0))
    assert not p.approx_eq(CirclePoint(0.5))
    assert frac_distance(0.99, 0.01) == pytest.approx(0.02, abs=1e-15)


# --- sides and their circles ----------------------------------------------


def test_side_circle_quarter_turn():
    c = side_circle(GeodesicSide(0.0, 0.25))
    assert c.center_dist == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert c.radius == pytest.approx(1.0, abs=1e-15)
    assert c.center_arg == pytest.approx(0.125, abs=1e-15)


def test_side_circle_third_turn():
    c = side_circle(GeodesicSide(0.0, 1.0 / 3.0))
    assert c.center_dist == pytest.approx(2.0, abs=1e-14)
    assert c.radius == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_side_circle_sixth_turn():
    c = side_circle(GeodesicSide(0.0, 1.0 / 6.0))
    assert c.center_arg == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert c.center_dist == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)


def test_side_circle_orthogonality(rng):
    for _ in range(2000):
        side = GeodesicSide(rng.uniform(0, 1), rng.uniform(1e-6, 0.5 - 1e-6))
        c = side_circle(side)
        assert c.is_orthogonal(1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.6, -0.1, 1e-13])
def test_side_rejects_out_of_range_alpha(alpha):
    with pytest.raises(DomainError, match=r"alpha must be in \(0, 0.5\)"):
        GeodesicSide(0.0, alpha)


def test_side_endpoints():
    side = GeodesicSide(0.9, 0.2)
    assert side.end == pytest.approx(0.1, abs=1e-15)
    assert side.midpoint == pytest.approx(0.0, abs=1e-15)


# --- inversion on the circle ----------------------------------------------


def test_invert_fixed_endpoints_exact():
    side = GeodesicSide(0.0, 0.25)
    assert invert_on_circle(0.0, side) == 0.0
    assert invert_on_circle(0.25, side) == 0.25


def test_invert_derived_values():
    # frozen from the Euclidean oracle (circle centered sqrt(2)*e^{i*pi/4}, r=1)
    side = GeodesicSide(0.0, 0.25)
    assert invert_on_circle(0.5, side) == pytest.approx(ATAN_HALF_TURN, abs=1e-12)
    assert invert_on_circle(0.75, side) == pytest.approx(0.25 - ATAN_HALF_TURN, abs=1e-12)


def test_invert_midpoint_goes_antipodal():
    side = GeodesicSide(0.0, 0.25)
    assert invert_on_circle(0.125, side) == pytest.approx(0.625, abs=1e-15)


def test_invert_rejects_nonfinite_beta():
    with pytest.raises(DomainError):
        invert_on_circle(math.inf, GeodesicSide(0.0, 0.25))


@settings(max_examples=400, deadline=None)
@given(
    a=st.floats(0.0, 1.0, exclude_max=True),
    alpha=st.floats(0.02, 0.48),
    beta=st.floats(0.0, 1.0, exclude_max=True),
)
def test_involution(a, alpha, beta):
    side = GeodesicSide(a, alpha)
    x = invert_on_circle(beta, side)
    assert circular_gap(invert_on_circle(x, side), beta) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.0, 1.0, exclude_max=True),
    alpha=st.floats(1e-4, 0.02),
    beta=st.floats(0.0, 1.0, exclude_max=True),
)
def test_involution_small_alpha_conditioned(a, alpha, beta):
    # roundtrip conditioning grows like cot^2(pi*alpha/2); scale the bound
    side = GeodesicSide(a, alpha)
    x = invert_on_circle(beta, side)
    tol = 1e-12 + 2e-15 / math.tan(math.pi * alpha / 2.0) ** 2
    assert circular_gap(invert_on_circle(x, side), beta) < tol


@settings(max_examples=400, deadline=None)
@given(
    a=st.floats(0.0, 1.0, exclude_max=True),
    alpha=st.floats(0.02, 0.48),
    beta=st.floats(0.0, 1.0, exclude_max=True),
)
def test_matches_euclidean_oracle(a, alpha, beta):
    side = GeodesicSide(a, alpha)
    assert circular_gap(invert_on_circle(beta, side), euclidean_image_fraction(beta, side)) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.0, 1.0, exclude_max=True),
    alpha=st.floats(1e-6, 0.02),
    beta=st.floats(0.0, 1.0, exclude_max=True),
)
def test_matches_euclidean_oracle_small_alpha(a, alpha, beta):
    # near an endpoint of a tiny side the Cartesian route loses
    # ~1e-16/sin(pi*alpha) to cancellation; the bound scales accordingly
    side = GeodesicSide(a, alpha)
    tol = 1e-12 + 2e-15 / math.sin(math.pi * alpha)
    assert circular_gap(invert_on_circle(beta, side), euclidean_image_fraction(beta, side)) < tol


def _inversion_40_digits(mp, beta, a, alpha):
    """Image fraction by Cartesian inversion in the side's circle, at mp precision."""
    beta, a, alpha = mp.mpf(beta), mp.mpf(a), mp.mpf(alpha)
    center = mp.sec(mp.pi * alpha) * mp.expjpi(2 * a + alpha)
    radius = mp.tan(mp.pi * alpha)
    p = mp.expjpi(2 * beta)
    image = center + radius**2 / mp.conj(p - center)
    return mp.arg(image) / (2 * mp.pi) % 1


def test_inversion_holds_on_narrow_and_wide_sides():
    # a denominator written as cos(pi alpha) - cos(2 pi d) cancels on narrow
    # sides and is off by up to 1e-10 turns on this sweep
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    ends = np.logspace(-12, -1, 23)
    alphas = np.concatenate([ends, 0.5 - ends])
    fractions = (1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6)
    worst = 0.0
    for a in (0.0, 0.3):
        for alpha in np.clip(alphas, ALPHA_MIN, ALPHA_MAX):
            side = GeodesicSide(a, float(alpha))
            for f in fractions:
                # a point off the side's arc; its image lies on the arc
                beta = float((a + alpha + f * (1 - alpha)) % 1.0)
                exact = _inversion_40_digits(mp, beta, a, alpha)
                for got in (invert_on_circle(beta, side), invert_fractions(beta, a, alpha)):
                    err = abs(mp.mpf(float(got)) - exact)
                    worst = max(worst, float(min(err, 1 - err)))
    assert worst < 1e-15


def test_narrow_side_image_stays_on_the_arc():
    side = GeodesicSide(0.0, 1.6378937069540648e-09)
    x = invert_on_circle(2.6378937053161708e-09, side)
    assert 0.0 < x < side.alpha
    assert x == pytest.approx(1.18766e-9, rel=1e-5)
    assert f"{x:.12f}" == "0.000000001188"


def test_vectorized_matches_scalar(rng):
    betas = rng.uniform(0, 1, 3000)
    starts = rng.uniform(0, 1, 3000)
    alphas = rng.uniform(1e-6, 0.5 - 1e-6, 3000)
    # one formula: the scalar is the one-point call, bit for bit (an element of
    # a longer array may take another SIMD path, so it is not compared here)
    for b, a, w in zip(betas, starts, alphas):
        side = GeodesicSide(a, w)
        assert invert_on_circle(b, side) == wrap_unit(float(invert_fractions(b, side.a, side.alpha)))
    # the array path against the independent Cartesian route
    vec = invert_fractions(betas, starts, alphas)
    oracle = [euclidean_image_fraction(b, GeodesicSide(a, w)) for b, a, w in zip(betas, starts, alphas)]
    assert np.max(circular_gap(vec, oracle)) < 1e-12


def test_image_derivative_law(rng):
    # dx/dbeta = -2 sin^2(pi*alpha) / (3 - 2cos(2pi b) + cos(2pi a) - 2cos(2pi(b-a)))
    # on the complementary arc (side start normalized to 0)
    for _ in range(500):
        alpha = rng.uniform(0.05, 0.45)
        beta = rng.uniform(alpha + 0.02, 0.98)
        side = GeodesicSide(0.0, alpha)
        h = 1e-6
        x_lo = invert_on_circle(beta - h, side)
        x_hi = invert_on_circle(beta + h, side)
        fd = ((x_hi - x_lo + 0.5) % 1.0 - 0.5) / (2 * h)
        g = (
            3.0
            - 2.0 * math.cos(2 * math.pi * beta)
            + math.cos(2 * math.pi * alpha)
            - 2.0 * math.cos(2 * math.pi * (beta - alpha))
        )
        analytic = -2.0 * math.sin(math.pi * alpha) ** 2 / g
        assert fd == pytest.approx(analytic, abs=1e-8)
        assert analytic < 0.0


@settings(max_examples=400, deadline=None)
@given(
    a=st.floats(0.0, 1.0, exclude_max=True),
    alpha=st.floats(1e-4, 0.4999),
    beta=st.floats(0.0, 1.0, exclude_max=True),
)
def test_master_complex_identity(a, alpha, beta):
    # e^{2pi i x} = -e^{2pi i beta} (cos(pi a) - e^{-2pi i d}) / (cos(pi a) - e^{2pi i d})
    # with d the offset of beta from the arc midpoint; the right side is
    # evaluated at 40 digits, since in doubles cos(pi a) - cos(2 pi d)
    # cancels when beta is near an end of a narrow side
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    side = GeodesicSide(a, alpha)
    x = invert_on_circle(beta, side)
    d = mp.mpf(beta) - (mp.mpf(a) + mp.mpf(alpha) / 2)
    ca = mp.cos(mp.pi * mp.mpf(alpha))
    rhs = -mp.expjpi(2 * mp.mpf(beta)) * (ca - mp.expjpi(-2 * d)) / (ca - mp.expjpi(2 * d))
    lhs = complex(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x))
    assert abs(lhs - complex(rhs)) < 1e-12


def test_strictly_decreasing_on_complementary_arc():
    side = GeodesicSide(0.0, 0.3)
    betas = np.linspace(0.3, 1.0, 4001)[1:-1]
    xs = np.array([invert_on_circle(b, side) for b in betas])
    assert np.all(np.diff(xs) < 0.0)
    assert np.all((xs > 0.0) & (xs < 0.3))


def test_beta_inside_own_arc_lands_on_complementary_arc():
    # the formulas stay valid inside the side's own arc
    side = GeodesicSide(0.0, 0.25)
    for beta in (0.01, 0.1, 0.2, 0.24):
        x = invert_on_circle(beta, side)
        assert 0.25 < x < 1.0
        assert circular_gap(x, euclidean_image_fraction(beta, side)) < 1e-12


# --- Euclidean inversion ---------------------------------------------------


def test_invert_euclidean_unit_circle_at_origin():
    circle = OrthoCircle(center_arg=0.0, center_dist=0.0, radius=1.0)
    q = invert_euclidean(PlanePoint(2.0, 0.0), circle)
    assert (q.x, q.y) == pytest.approx((0.5, 0.0), abs=1e-15)


def test_invert_euclidean_fixes_circle_points():
    circle = OrthoCircle(center_arg=0.125, center_dist=math.sqrt(2.0), radius=1.0)
    q = invert_euclidean(PlanePoint(1.0, 0.0), circle)  # (1,0) lies on the circle
    assert (q.x, q.y) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_invert_euclidean_is_involution(rng):
    circle = OrthoCircle(center_arg=0.3, center_dist=1.7, radius=0.9)
    for _ in range(500):
        p = PlanePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if p.distance_to(circle.center) < 1e-3:
            continue
        q = invert_euclidean(invert_euclidean(p, circle), circle)
        assert p.distance_to(q) < 1e-12


def test_invert_euclidean_rejects_center():
    circle = OrthoCircle(center_arg=0.0, center_dist=1.5, radius=0.8)
    with pytest.raises(SingularInputError):
        invert_euclidean(PlanePoint(1.5, 0.0), circle)


@pytest.mark.parametrize(
    "pq,op,oq,r,expected",
    [(1.0, 2.0, 2.0, 1.0, 0.25), (3.0, 1.0, 1.0, 1.0, 3.0), (1.0, 1.0, 4.0, 2.0, 1.0)],
)
def test_inverse_distance_values(pq, op, oq, r, expected):
    assert inverse_distance(pq, op, oq, r) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_inverse_distance_rejects_nonpositive(bad):
    with pytest.raises(DomainError):
        inverse_distance(bad, 1.0, 1.0, 1.0)


def test_distance_law_on_random_pairs(rng):
    # |P'Q'| == r^2 |PQ| / (|OP||OQ|) for images under Euclidean inversion
    circle = OrthoCircle(center_arg=0.1, center_dist=1.9, radius=1.2)
    c = circle.center
    for _ in range(500):
        p = PlanePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = PlanePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if p.distance_to(c) < 0.05 or q.distance_to(c) < 0.05 or p.distance_to(q) < 1e-6:
            continue
        pi = invert_euclidean(p, circle)
        qi = invert_euclidean(q, circle)
        predicted = inverse_distance(p.distance_to(q), p.distance_to(c), q.distance_to(c), circle.radius)
        assert pi.distance_to(qi) == pytest.approx(predicted, rel=1e-12)
