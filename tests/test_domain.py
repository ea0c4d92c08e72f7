"""One check per kind of input: counts, scalars, side indices, angle vectors and the width clamp.

Every entry point that takes a count or a side index accepts an ``int`` or a
numpy integer and rejects anything else with ``DomainError``; every entry
point that takes a scalar rejects text, bytes, None, bools, non-finite values
and integers past the largest float; every entry point that takes an angle
vector or a side width applies the same clamp and the same sum test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hypergon import (
    AngleSpectrum,
    CirclePoint,
    GeodesicSide,
    IdealPolygon,
    OrthoCircle,
    PlanePoint,
    SimplexPoint,
    area_upper_bound,
    decreasing_rearrangement,
    euclidean_area,
    frac_distance,
    grid_scan,
    grow_body,
    hyperbolic_area_ideal,
    hyperbolic_area_quadrature,
    inverse_distance,
    invert_on_circle,
    inverted_angle_matrix,
    is_regular,
    majorization_scan,
    majorizes,
    max_inverted_angle,
    minimax_objective,
    property_suite,
    reflect_polygon,
    refine_minimum,
    sample_simplex,
    schur_concave_sum,
    side,
    side_region_area,
    unit_point,
    vertices,
)
from hypergon.cli import RenderSpec, main, polygon_from_doc
from hypergon.disk_geometry import ALPHA_MAX, ALPHA_MIN, SUM_TOL
from hypergon.errors import DomainError, UnknownSuiteError
from hypergon.polygon import _regular_rows

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
    "grow_body.s": lambda v: grow_body(SQUARE, v),
    "grow_body.max_sides": lambda v: grow_body(SQUARE, 2, max_sides=v),
}


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, True], ids=["2.5", "nan", "inf", "True"])
@pytest.mark.parametrize("name", sorted(COUNT_TAKERS))
def test_counts_must_be_integers(name, value):
    with pytest.raises(DomainError):
        COUNT_TAKERS[name](value)


@pytest.mark.parametrize("value", ["2.5", "nan", "True"])
def test_cli_cells_must_be_an_integer(tmp_path, capsys, value):
    path = tmp_path / "p.json"
    path.write_text('{"angles": [0.25, 0.25, 0.25, 0.25]}')
    assert main(["area", "--in", str(path), "--hyperbolic", "--cells", value]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


SCALAR_TAKERS = {
    "IdealPolygon.rotation": lambda v: IdealPolygon([0.25] * 4, v),
    "PlanePoint.x": lambda v: PlanePoint(v, 0.0),
    "PlanePoint.y": lambda v: PlanePoint(0.0, v),
    "CirclePoint": lambda v: CirclePoint(v),
    "CirclePoint.approx_eq.tol": lambda v: CirclePoint(0.0).approx_eq(CirclePoint(0.5), v),
    "frac_distance.t1": lambda v: frac_distance(v, 0.2),
    "frac_distance.t2": lambda v: frac_distance(0.2, v),
    "GeodesicSide.a": lambda v: GeodesicSide(v, 0.25),
    "GeodesicSide.alpha": lambda v: GeodesicSide(0.0, v),
    "OrthoCircle.center_arg": lambda v: OrthoCircle(v, 2.0, 1.0),
    "OrthoCircle.center_dist": lambda v: OrthoCircle(0.0, v, 1.0),
    "OrthoCircle.radius": lambda v: OrthoCircle(0.0, 2.0, v),
    "OrthoCircle.is_orthogonal.tol": lambda v: OrthoCircle(0.0, 2.0, 1.0).is_orthogonal(v),
    "unit_point": lambda v: unit_point(v),
    "invert_on_circle": lambda v: invert_on_circle(v, GeodesicSide(0.0, 0.25)),
    "inverse_distance.pq": lambda v: inverse_distance(v, 1.0, 1.0, 1.0),
    "inverse_distance.r": lambda v: inverse_distance(1.0, 1.0, 1.0, v),
    "grid_scan.step": lambda v: grid_scan(4, v),
    "sample_simplex.floor": lambda v: sample_simplex(3, 2, np.random.default_rng(0), floor=v),
    "refine_minimum.tol": lambda v: refine_minimum(SQUARE, v),
    "RenderSpec.circle_stroke": lambda v: RenderSpec(circle_stroke=v),
    "RenderSpec.side_stroke": lambda v: RenderSpec(side_stroke=v),
}

NOT_REALS = ["0.1", b"0.1", None, True, math.nan, math.inf, 10**400]
NOT_REAL_IDS = ["str", "bytes", "None", "True", "nan", "inf", "10**400"]


@pytest.mark.parametrize("value", NOT_REALS, ids=NOT_REAL_IDS)
@pytest.mark.parametrize("name", sorted(SCALAR_TAKERS))
def test_scalars_must_be_finite_reals(name, value):
    with pytest.raises(DomainError):
        SCALAR_TAKERS[name](value)


def test_scalars_are_stored_as_floats():
    assert IdealPolygon([0.25] * 4, Fraction(1, 8)).rotation == 0.125
    assert type(CirclePoint(np.float32(0.5)).t) is float
    assert type(GeodesicSide(0, Fraction(1, 4)).alpha) is float
    spec = RenderSpec(canvas=np.int64(300), circle_stroke=Fraction(1, 100))
    assert type(spec.canvas) is int and type(spec.circle_stroke) is float


INDEX_TAKERS = {
    "side": lambda j: side(SQUARE, j),
    "reflect_polygon": lambda j: reflect_polygon(vertices(SQUARE), j),
    "InvertedAngleMatrix.entry.j": lambda j: inverted_angle_matrix(SQUARE).entry(j, 2),
    "InvertedAngleMatrix.entry.k": lambda j: inverted_angle_matrix(SQUARE).entry(2, j),
}


@pytest.mark.parametrize("j", [1.5, True, 0, SQUARE.n + 1], ids=["1.5", "True", "0", "n+1"])
@pytest.mark.parametrize("name", sorted(INDEX_TAKERS))
def test_side_indices_must_be_integers_in_range(name, j):
    with pytest.raises(DomainError):
        INDEX_TAKERS[name](j)


def test_side_indices_accept_numpy_integers():
    assert side(SQUARE, np.int64(3)) == side(SQUARE, 3)
    assert reflect_polygon(vertices(SQUARE), np.int32(2)) == reflect_polygon(vertices(SQUARE), 2)
    table = inverted_angle_matrix(SQUARE)
    assert table.entry(np.int64(1), np.int64(2)) == table.entry(1, 2)


VECTOR_TAKERS = {
    "IdealPolygon": IdealPolygon,
    "euclidean_area": euclidean_area,
    "is_regular": is_regular,
    "side_region_area": side_region_area,
    "AngleSpectrum": AngleSpectrum,
    "decreasing_rearrangement": decreasing_rearrangement,
    "reflect_polygon": lambda v: reflect_polygon(v, 1),
    "polygon_from_doc": lambda v: polygon_from_doc({"angles": v}),
}


@pytest.mark.parametrize("first", [True, 10**400], ids=["True", "10**400"])
@pytest.mark.parametrize("name", sorted(VECTOR_TAKERS))
def test_vectors_reject_bools_and_huge_integers(name, first):
    # True reads as 1.0, a full turn: a valid cycle point and a valid spectrum head
    with pytest.raises(DomainError):
        VECTOR_TAKERS[name]([first, 0.25, 0.5, 0.75] if name == "reflect_polygon" else [first, 0.5, 0.25, 0.25])


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
    # a non-finite width fails the same clamp test
    for alpha in (below, above, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=r"alpha must be in \(0, 0.5\)"):
            GeodesicSide(0.0, alpha)
        with pytest.raises(DomainError, match=r"alpha must be in \(0, 0.5\)"):
            side_region_area(alpha)


def test_simplex_point_is_a_polygon_at_rotation_zero():
    assert SimplexPoint is IdealPolygon
    p = SimplexPoint((0.2, 0.3, 0.5 - 1e-3, 1e-3))
    assert p.rotation == 0.0
    assert p.angles == (0.2, 0.3, 0.5 - 1e-3, 1e-3)


@pytest.mark.parametrize(
    "angles,message",
    [
        (("a", "b", "c"), "decimal angles"),
        (["x", "y", "z"], "decimal angles"),
        ([[0.3], 0.3, 0.4], "decimal angles"),
        ([1j, 0.5, 0.5], "decimal angles"),
        # None converts to NaN, which the clamp rejects
        ([None, 0.5, 0.5], r"alpha must be in \(0, 0.5\)"),
        # text that float() would parse is still not a number
        (("0.3", "0.3", "0.4"), "decimal angles"),
        (["0.3", "0.3", "0.4"], "decimal angles"),
        ((b"0.3", 0.3, 0.4), "decimal angles"),
        ((Fraction(3, 10), "0.3", Fraction(2, 5)), "decimal angles"),
        ([True, True, False], "decimal angles"),
    ],
    ids=["str-tuple", "str-list", "ragged", "complex", "None", "numeric-str-tuple",
         "numeric-str-list", "bytes", "str-among-objects", "bool"],
)
def test_non_numeric_angles_are_domain_errors(angles, message):
    for check in (IdealPolygon, euclidean_area):
        with pytest.raises(DomainError, match=message):
            check(angles)


@pytest.mark.parametrize("angles", [["0.25"] * 4, [b"0.25"] * 4], ids=["str", "bytes"])
def test_is_regular_rejects_text(angles):
    with pytest.raises(DomainError, match="decimal angles"):
        is_regular(angles)


def test_numeric_objects_convert_one_by_one():
    assert IdealPolygon((Fraction(1, 4),) * 4).angles == (0.25,) * 4
    assert is_regular([Fraction(1, 3)] * 3)


TEXT = ["0.3", "a", ["0.3", "0.2"], [b"0.3", b"0.2"], [0.3, "0.2"], np.array(["0.3", "0.2"])]
TEXT_IDS = ["numeric-str", "str", "numeric-str-list", "bytes-list", "str-among-floats", "str-array"]


@pytest.mark.parametrize("values", TEXT, ids=TEXT_IDS)
def test_side_region_area_rejects_text(values):
    with pytest.raises(DomainError, match="alpha must be a number"):
        side_region_area(values)


@pytest.mark.parametrize("values", TEXT, ids=TEXT_IDS)
@pytest.mark.parametrize("build", [AngleSpectrum, decreasing_rearrangement], ids=["AngleSpectrum", "rearrangement"])
def test_spectra_reject_text(build, values):
    with pytest.raises(DomainError, match="spectrum values must be numbers"):
        build(values)


OPERAND_TAKERS = {
    "CirclePoint.approx_eq.float": lambda: CirclePoint(0.1).approx_eq(0.1),
    "CirclePoint.approx_eq.None": lambda: CirclePoint(0.1).approx_eq(None),
    "majorizes.lists": lambda: majorizes([0.5, 0.3, 0.2], [0.4, 0.4, 0.2]),
    "majorizes.list": lambda: majorizes(decreasing_rearrangement([0.5, 0.3, 0.2]), [0.4, 0.4, 0.2]),
    "schur_concave_sum.list": lambda: schur_concave_sum([0.5, 0.3, 0.2]),
    "refine_minimum.tuple": lambda: refine_minimum((0.25,) * 4),
    "minimax_objective.tuple": lambda: minimax_objective((0.25,) * 4),
    "grow_body.tuple": lambda: grow_body((0.25,) * 4, 1),
    "hyperbolic_area_quadrature.tuple": lambda: hyperbolic_area_quadrature((0.25,) * 4),
    "inverted_angle_matrix.tuple": lambda: inverted_angle_matrix((0.25,) * 4),
    "max_inverted_angle.tuple": lambda: max_inverted_angle((0.25,) * 4),
    "grid_scan.dump_path.fd": lambda: grid_scan(3, 0.01, dump_path=1),
    "sample_simplex.seed": lambda: sample_simplex(4, 3, 7),
}


@pytest.mark.parametrize("name", sorted(OPERAND_TAKERS))
def test_operands_must_have_the_right_type(name):
    with pytest.raises(DomainError):
        OPERAND_TAKERS[name]()


def test_side_region_area_names_empty_input():
    with pytest.raises(DomainError, match="alpha must not be empty"):
        side_region_area([])


@pytest.mark.parametrize("name", [["lemma31"], {"lemma31": 1}], ids=["list", "dict"])
def test_unhashable_suite_names_are_unknown_suites(name):
    with pytest.raises(UnknownSuiteError):
        property_suite(name, 10)


def test_area_and_spectra_take_numbers_of_any_kind():
    assert side_region_area(Fraction(1, 4)) == side_region_area(0.25)
    assert np.array_equal(side_region_area(np.array([1, 2]) / 10), side_region_area([0.1, 0.2]))
    assert decreasing_rearrangement([Fraction(1, 5), 3, np.float32(0.5)]).values.tolist() == [3.0, 0.5, 0.2]
    assert AngleSpectrum(np.array([2, 1])).total == 3.0


@pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf, math.inf, "1e-9", b"0", None, True, [1e-9]])
def test_regularity_tolerance_must_be_finite_and_non_negative(tol):
    with pytest.raises(DomainError, match="regularity tolerance"):
        is_regular([1 / 3] * 3, tol)
    with pytest.raises(DomainError, match="regularity tolerance"):
        _regular_rows(np.full((2, 3), 1 / 3), tol)


def test_regularity_tolerance_accepts_zero_and_numpy_numbers():
    assert is_regular([1 / 3] * 3, 0)
    assert is_regular([0.25] * 4, np.float64(0.0))
    assert not is_regular([0.3, 0.3, 0.4], np.float32(0.05))
    assert is_regular([0.3, 0.3, 0.4], Fraction(1, 10))
