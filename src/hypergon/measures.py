"""Area functionals and majorization utilities for ideal polygons.

The Euclidean area of an ideal polygon splits side by side: each side of
angle ``alpha`` contributes the area of the disk sector of width ``alpha``
turns that lies on the polygon's side of the geodesic,

    F(alpha) = tan(pi*alpha) * (1 - pi*tan(pi*alpha) * (1/2 - alpha)),

a concave function on (0, 1/2), which gives the Jensen upper bound
``n*F(1/n)`` attained exactly at the regular polygon.  The hyperbolic area
(for the metric ``|dz| / (1 - |z|^2)``) has the angle-independent value
``pi*(n - 2)/4`` for every ideal n-gon; :func:`hyperbolic_area_quadrature`
recovers it by direct numerical integration of ``(1 - |z|^2)**-2``, one
111-node tanh-sinh rule per side, serving as an oracle for the constant:
each side's term is within 1e-15 relative of ``pi*(1 - 2w)/4`` for widths
up to 0.45 and within 2e-15 absolute above.

Majorization of sorted angle spectra (descending prefix-sum dominance at
equal totals) pairs with the concavity of F: summing F over a spectrum is
Schur-concave, so a spectrum that majorizes another has the smaller sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .disk_geometry import check_count, check_finite, check_numbers, check_type, check_widths
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
    if arr.size == 0:
        raise DomainError("alpha must not be empty")
    check_widths(arr)
    t = np.tan(np.pi * arr)
    out = np.atleast_1d(t * (1.0 - np.pi * t * (0.5 - arr)))
    # that form cancels near 1/2; there F = cot(x) (1 - x cot x) with x =
    # pi (1/2 - alpha), whose subtraction is exact for alpha >= 1/4
    x = np.pi * (0.5 - arr[arr > 0.25])
    cot = 1.0 / np.tan(x)
    x2 = x * x
    small = _ONE_MINUS_X_COT_X[-1]
    for c in _ONE_MINUS_X_COT_X[-2::-1]:  # Horner, in polyval's order
        small = c + small * x2
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


def _tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the tanh-sinh rule on [0, 1] (Takahasi & Mori, 1974).

    ``x = (1 + tanh(pi/2 sinh t)) / 2`` at ``t = k/16``, written as a
    logistic so that nodes next to 0 keep their relative precision.  Within
    ``|t| <= 4`` nothing overflows; nodes whose weight is below 1e-20 of the
    largest are dropped, which leaves 111.
    """
    t = np.arange(-64, 65) / 16.0
    s = 0.5 * np.pi * np.sinh(t)
    nodes = 1.0 / (1.0 + np.exp(-2.0 * s))
    weights = np.pi / 64.0 * np.cosh(t) / np.cosh(s) ** 2
    keep = weights >= 1e-20 * weights.max()
    return nodes[keep], weights[keep]


_TS_NODES, _TS_WEIGHTS = _tanh_sinh_rule()


def _side_area(w: float) -> float:
    """Hyperbolic area between the origin and a side of width ``w`` turns.

    With theta = cusp + u^2 on a half-side, u in [0, sqrt(w/2)], the ray to
    the side's circle ends at ``R = 1/(reach + q)``, where ``reach = cos(2 pi
    (u^2 - w/2)) / cos(pi w)`` and ``q^2 = reach^2 - 1 = sin(2 pi u^2) sin(2
    pi (w - u^2)) / cos^2(pi w)``.  The radial integral is ``R / (4 q)``, so
    the u-integrand is ``4 pi R / (4 q/u)``, smooth and bounded.  ``q/u`` is
    formed with ``sinc``, and each sine and cosine from an angle that does
    not cancel, so nothing is lost next to a cusp or next to w = 1/2.
    """
    half = math.sqrt(0.5 * w)
    u = half * _TS_NODES
    uu = u * u
    d = 0.5 - w
    # g = cos(pi w) q/u, and sin(pi (d + 2 u^2)) = cos(pi w) reach; the
    # common cos(pi w) = sin(pi d) moves out of the sum as c^2
    g = np.sqrt(2.0 * np.pi * np.sinc(2.0 * uu) * np.sin(2.0 * np.pi * np.minimum(w - uu, d + uu)))
    c = math.sin(math.pi * d)
    integrand = 1.0 / (g * (np.sin(np.pi * (d + 2.0 * uu)) + g * u))
    # both halves of a side integrate identically (R is even around the side
    # midpoint), hence 2 * 4 pi * c^2 / 4; fsum, because a plain dot product
    # of these terms drifted to 1e-15 relative
    return 2.0 * math.pi * c * c * half * math.fsum(_TS_WEIGHTS * integrand)


def hyperbolic_area_quadrature(poly: IdealPolygon) -> float:
    """Hyperbolic area of ``poly`` by numerical integration.

    Integrates the area element ``(1 - |z|^2)**-2`` over the polygon.  The
    polygon is star-shaped about the origin, so the radial direction is
    integrated in closed form; what remains is a boundary-angle integral
    with inverse-square-root blowups at the cusps, absorbed by the
    substitution theta = cusp +/- u^2.  Each half-side is then one fixed
    111-node tanh-sinh rule in u.  The total adds one term per side, in side
    order.  Each term is within 1e-15 relative of ``pi*(1 - 2w)/4`` for
    widths up to 0.45 and within 2e-15 absolute above.
    """
    check_type(poly, IdealPolygon, "hyperbolic_area_quadrature takes an IdealPolygon")
    # not sum(): from CPython 3.12 it compensates, which would change bytes
    total = 0.0
    for w in poly.angles:
        total += _side_area(w)
    return total


@dataclass(frozen=True, eq=False)
class AngleSpectrum:
    """A vector of positive turn fractions sorted in decreasing order."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = check_numbers(self.values, "spectrum values must be numbers")
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("spectrum must be a non-empty flat vector")
        message = "spectrum values must be positive reals"
        if np.any(check_finite(arr, message) <= 0.0):
            raise DomainError(message)
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
    return AngleSpectrum(_sorted_spectra(arr))


def majorizes(x: AngleSpectrum, y: AngleSpectrum) -> bool:
    """Whether ``x`` majorizes ``y``: descending prefix-sum dominance.

    Requires equal lengths and equal totals (within ``TOTAL_TOL``); prefix
    sums are compared with ``MAJORIZATION_SLACK`` so exact ties pass.
    """
    x, y = (check_type(v, AngleSpectrum, "majorization compares two AngleSpectrum values") for v in (x, y))
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
    check_type(spectrum, AngleSpectrum, "schur_concave_sum takes an AngleSpectrum")
    return float(np.sum(side_region_area(spectrum.values)))
