"""Area functionals and majorization utilities for ideal polygons.

The Euclidean area of an ideal polygon splits side by side: each side of
angle ``alpha`` contributes the area of the disk sector of width ``alpha``
turns that lies on the polygon's side of the geodesic,

    F(alpha) = tan(pi*alpha) * (1 - pi*tan(pi*alpha) * (1/2 - alpha)),

a concave function on (0, 1/2), which gives the Jensen upper bound
``n*F(1/n)`` attained exactly at the regular polygon.  The hyperbolic area
(for the metric ``|dz| / (1 - |z|^2)``) has the angle-independent value
``pi*(n - 2)/4`` for every ideal n-gon; :func:`hyperbolic_area_quadrature`
recovers it by direct numerical integration of ``(1 - |z|^2)**-2`` with
cusp-graded cells, serving as an oracle for the constant.

Majorization of sorted angle spectra (descending prefix-sum dominance at
equal totals) pairs with the concavity of F: summing F over a spectrum is
Schur-concave, so a spectrum that majorizes another has the smaller sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disk_geometry import ALPHA_MAX, ALPHA_MIN, check_count, check_numbers
from .errors import DomainError
from .polygon import IdealPolygon, _validate_angles

# Slack applied to prefix-sum comparisons; spectra come from floating-point
# inversions, so exact ties must not read as failures.
MAJORIZATION_SLACK = 1e-12

TOTAL_TOL = 1e-10

# 1 - x cot(x) in powers of x^2, 2^2k |B_2k| / (2k)!: within 6e-15 relative
# below x = 0.2, where the plain difference would lose too many digits.
_ONE_MINUS_X_COT_X = (0.0, 1 / 3, 1 / 45, 2 / 945, 1 / 4725, 2 / 93555, 1382 / 638512875)


def side_region_area(alpha):
    """Euclidean area cut off toward one side of angle ``alpha`` turns.

    Accepts a scalar or an ndarray of numbers (not text); every value must
    lie in (0, 1/2) within the standard clamp.
    """
    arr = check_numbers(alpha, "alpha must be a number")
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise DomainError("alpha must be finite")
    if np.any(arr < ALPHA_MIN) or np.any(arr > ALPHA_MAX):
        raise DomainError("alpha must be in (0, 0.5)")
    t = np.tan(np.pi * arr)
    out = np.atleast_1d(t * (1.0 - np.pi * t * (0.5 - arr)))
    # that form cancels near 1/2; there F = cot(x) (1 - x cot x) with x =
    # pi (1/2 - alpha), whose subtraction is exact for alpha >= 1/4
    x = np.pi * (0.5 - arr[arr > 0.25])
    cot = 1.0 / np.tan(x)
    small = np.polynomial.polynomial.polyval(x * x, _ONE_MINUS_X_COT_X)
    out[np.atleast_1d(arr > 0.25)] = cot * np.where(x < 0.2, small, 1.0 - x * cot)
    return float(out[0]) if arr.ndim == 0 else out


def euclidean_area(angles) -> float:
    """Euclidean area of the ideal polygon with the given side angles."""
    return float(np.sum(side_region_area(_validate_angles(angles))))


def area_upper_bound(n: int) -> float:
    """The sharp Euclidean area bound ``n * F(1/n)`` for ideal n-gons."""
    n = check_count(n, "need an integer side count n >= 3", lo=3)
    t = math.tan(math.pi / n)
    return n * t * (1.0 - math.pi * (n - 2) / (2.0 * n) * t)


def hyperbolic_area_ideal(n: int) -> float:
    """Hyperbolic area of any ideal n-gon: pi*(n - 2)/4.

    The metric ``|dz| / (1 - |z|^2)`` has curvature -4, so the ideal
    triangle measures pi/4 and each extra side adds the same.
    """
    n = check_count(n, "need an integer side count n >= 3", lo=3)
    return math.pi * (n - 2) / 4.0


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)


def hyperbolic_area_quadrature(poly: IdealPolygon, cells: int = 1_000_000) -> float:
    """Hyperbolic area of ``poly`` by numerical integration.

    Integrates the area element ``(1 - |z|^2)**-2`` over the polygon.  The
    polygon is star-shaped about the origin, so the radial direction is
    integrated in closed form; what remains is the boundary-angle integral
    of ``(1/(1 - R(theta)^2) - 1)/2`` with ``R(theta)`` the ray distance to
    the side's circle.  That integrand has inverse-square-root blowups at
    the cusps, absorbed by the substitution theta = cusp +/- u^2, and each
    half-side is then covered by ``cells // (2n)`` uniform Gauss cells in u.
    A side's integral depends on its width alone, so equal sides are
    integrated once; the total still adds one term per side, in side order.
    """
    cells = check_count(cells, "resolution too low: need at least 10000 cells", lo=10_000)
    n = poly.n
    per_half = max(1, cells // (2 * n))
    total = 0.0
    # inline, not a helper per side: a helper frees every temporary at its
    # return, the allocator hands the pages back, and the next side faults
    # them in again
    side_areas: dict[float, float] = {}
    for w in poly.angles:
        if w in side_areas:
            total += side_areas[w]
            continue
        sec = 1.0 / math.cos(math.pi * w)
        edges = np.linspace(0.0, math.sqrt(0.5 * w), per_half + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        u = (mid[:, None] + half * _GAUSS_NODES[None, :]).ravel()
        wt = (half * _GAUSS_WEIGHTS[None, :] * np.ones_like(mid)[:, None]).ravel()
        cos_d = np.cos(2.0 * np.pi * (u * u - 0.5 * w))
        reach = sec * cos_d
        r = reach - np.sqrt(np.maximum(reach * reach - 1.0, 0.0))
        h = 0.5 * (1.0 / (1.0 - r * r) - 1.0)
        # both halves of a side integrate identically (R is even around the
        # side midpoint), hence the factor 2
        side_areas[w] = 2.0 * 4.0 * math.pi * float(np.sum(wt * h * u))
        total += side_areas[w]
    return total


@dataclass(frozen=True, eq=False)
class AngleSpectrum:
    """A vector of positive turn fractions sorted in decreasing order."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = check_numbers(self.values, "spectrum values must be numbers")
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("spectrum must be a non-empty flat vector")
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise DomainError("spectrum values must be positive reals")
        if np.any(np.diff(arr) > 0.0):
            raise DomainError("spectrum values must be sorted decreasing")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def _sorted_spectra(values: np.ndarray) -> np.ndarray:
    """Decreasing rearrangements of ``values`` along the last axis."""
    return -np.sort(-values, axis=-1)


def _prefix_margins(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Prefix sums of spectra ``x`` less those of ``y``, along the last axis.

    ``x`` majorizes ``y`` while no margin is below ``-MAJORIZATION_SLACK``.
    """
    return np.cumsum(x, axis=-1) - np.cumsum(y, axis=-1)


def decreasing_rearrangement(values) -> AngleSpectrum:
    """Sort a vector into a decreasing spectrum."""
    arr = check_numbers(values, "spectrum values must be numbers").ravel()
    if arr.size == 0:
        raise DomainError("cannot rearrange an empty vector")
    return AngleSpectrum(_sorted_spectra(arr))


def majorizes(x: AngleSpectrum, y: AngleSpectrum) -> bool:
    """Whether ``x`` majorizes ``y``: descending prefix-sum dominance.

    Requires equal lengths and equal totals (within ``TOTAL_TOL``); prefix
    sums are compared with ``MAJORIZATION_SLACK`` so exact ties pass.
    """
    if len(x) != len(y):
        raise DomainError("spectra must have equal length")
    if abs(x.total - y.total) > TOTAL_TOL:
        raise DomainError("spectra must have equal totals")
    return bool(np.all(_prefix_margins(x.values, y.values) >= -MAJORIZATION_SLACK))


def schur_concave_sum(spectrum: AngleSpectrum) -> float:
    """Sum of the side-region areas over a spectrum.

    Order-invariant, and Schur-concave because the summand is concave: if
    ``x`` majorizes ``y`` then the sum at ``x`` is at most the sum at ``y``.
    For the spectrum of a polygon's inverted-angle table this equals the
    Euclidean area of the first-generation body.
    """
    return float(np.sum(side_region_area(spectrum.values)))
