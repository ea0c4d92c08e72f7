"""One check per kind of input: side counts, angle vectors and the width clamp.

Every entry point that takes a count accepts an ``int`` or a numpy integer
and rejects anything else with ``DomainError``; every entry point that takes
an angle vector or a side width applies the same clamp and the same sum test.
"""

import math

import numpy as np
import pytest

from hypergon import (
    GeodesicSide,
    IdealPolygon,
    SimplexPoint,
    area_upper_bound,
    euclidean_area,
    grid_scan,
    grow_body,
    hyperbolic_area_ideal,
    hyperbolic_area_quadrature,
    majorization_scan,
    property_suite,
    sample_simplex,
    side_region_area,
)
from hypergon.disk_geometry import ALPHA_MAX, ALPHA_MIN, SUM_TOL
from hypergon.errors import DomainError

SQUARE = IdealPolygon.regular(4)

COUNT_TAKERS = {
    "IdealPolygon.regular": lambda v: IdealPolygon.regular(v),
    "area_upper_bound": lambda v: area_upper_bound(v),
    "hyperbolic_area_ideal": lambda v: hyperbolic_area_ideal(v),
    "sample_simplex.n": lambda v: sample_simplex(v, 2, np.random.default_rng(0)),
    "sample_simplex.count": lambda v: sample_simplex(4, v, np.random.default_rng(0)),
    "grid_scan": lambda v: grid_scan(v, 1.0 / 100.0),
    "majorization_scan": lambda v: majorization_scan(4, v),
    "property_suite": lambda v: property_suite("lemma32ii", v),
    "hyperbolic_area_quadrature": lambda v: hyperbolic_area_quadrature(SQUARE, v),
    "grow_body.s": lambda v: grow_body(SQUARE, v),
    "grow_body.max_sides": lambda v: grow_body(SQUARE, 2, max_sides=v),
}


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, True], ids=["2.5", "nan", "inf", "True"])
@pytest.mark.parametrize("name", sorted(COUNT_TAKERS))
def test_counts_must_be_integers(name, value):
    with pytest.raises(DomainError):
        COUNT_TAKERS[name](value)


def test_counts_accept_numpy_integers():
    assert area_upper_bound(np.int64(4)) == area_upper_bound(4)
    assert hyperbolic_area_ideal(np.int32(5)) == hyperbolic_area_ideal(5)
    assert IdealPolygon.regular(np.int64(6)) == IdealPolygon.regular(6)
    body = grow_body(SQUARE, np.int64(2), max_sides=np.int64(36))
    assert body.polygon_counts == (1, 4, 12)


def test_nan_side_cap_does_not_switch_the_cap_off():
    # a NaN cap used to compare false against every projected side count
    with pytest.raises(DomainError):
        grow_body(SQUARE, 2, max_sides=math.nan)


def test_euclidean_area_applies_the_polygon_sum_test():
    # the exact total may be 1e-13 off one turn, not 1e-11 or 5e-10
    assert SUM_TOL == 1e-12
    for check in (IdealPolygon, euclidean_area):
        check([0.25, 0.25, 0.25, 0.25 + 1e-13])
        for off in ([0.25, 0.25, 0.25, 0.25 + 1e-11], [0.3, 0.3, 0.4 + 5e-10]):
            with pytest.raises(DomainError, match="sum to 1"):
                check(off)


def test_clamp_ends_agree_across_entry_points():
    below = np.nextafter(ALPHA_MIN, 0.0)
    above = np.nextafter(ALPHA_MAX, 1.0)
    assert ALPHA_MAX == 0.5 - ALPHA_MIN
    # ALPHA_MIN + ALPHA_MAX + 1/2 is 1 to within an ulp, far inside SUM_TOL
    accepted = [ALPHA_MIN, ALPHA_MAX, 0.25, 0.25]
    IdealPolygon(accepted)
    assert euclidean_area(accepted) > 0.0
    for alpha in (ALPHA_MIN, ALPHA_MAX):
        GeodesicSide(0.0, alpha)
        assert side_region_area(alpha) > 0.0
    for angles in ([below, ALPHA_MAX, 0.25, 0.25], [ALPHA_MIN, above, 0.25, 0.25]):
        for check in (IdealPolygon, euclidean_area):
            with pytest.raises(DomainError, match=r"alpha must be in \(0, 0.5\)"):
                check(angles)
    for alpha in (below, above):
        with pytest.raises(DomainError, match=r"alpha must be in \(0, 0.5\)"):
            GeodesicSide(0.0, alpha)
        with pytest.raises(DomainError, match=r"alpha must be in \(0, 0.5\)"):
            side_region_area(alpha)


def test_simplex_point_is_a_polygon_at_rotation_zero():
    assert SimplexPoint is IdealPolygon
    p = SimplexPoint((0.2, 0.3, 0.5 - 1e-3, 1e-3))
    assert p.rotation == 0.0
    assert p.angles == (0.2, 0.3, 0.5 - 1e-3, 1e-3)
