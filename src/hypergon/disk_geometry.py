"""Boundary points of the unit disk, geodesic sides, and circular inversion.

Angles live as *turn fractions*: the fraction ``t`` names the boundary point
``exp(2*pi*i*t)``, one full turn equals 1, and radians appear only inside
trigonometric calls.  A geodesic side is the circular arc orthogonal to the
unit circle through two boundary points; for an arc of width ``alpha`` turns
the orthogonal circle has its Euclidean center at distance ``sec(pi*alpha)``
from the origin, in the direction of the arc midpoint, with radius
``tan(pi*alpha)``.

Two independent routes to the same reflection are provided and cross-checked
by the test suite:

* :func:`invert_on_circle` stays on the unit circle and evaluates a closed
  form for the argument of the inverted point, split into the two published
  branches around the arc midpoint;
* :func:`invert_euclidean` is plain Euclidean inversion of Cartesian points
  in an arbitrary circle (``|OP| * |OP'| = r**2`` along the ray from the
  center), with :func:`inverse_distance` giving the induced distance law.

Everything here is a pure function of immutable values; any number of
workers may call these concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularInputError

# Arc widths are clamped to [ALPHA_MIN, ALPHA_MAX]; the geometry
# degenerates at both ends of the open interval (0, 1/2).
ALPHA_MIN = 1e-12
ALPHA_MAX = 0.5 - ALPHA_MIN
_WIDTH_MESSAGE = "alpha must be in (0, 0.5)"

# Largest distance of a polygon's angle total (an exact ``fsum``) from 1.
SUM_TOL = 1e-12

# Turn-fraction tolerance under which two boundary points count as the same.
POINT_TOL = 1e-10

# The least positive float: ``check_real(v, message, lo=MIN_POSITIVE)`` takes exactly v > 0.
MIN_POSITIVE = math.ulp(0.0)

_TWO_PI = 2.0 * math.pi


def wrap_unit(t: float) -> float:
    """Reduce a turn fraction to [0, 1)."""
    t = t % 1.0
    # -1e-18 % 1.0 == 1.0 on some platforms; fold the closed end back.
    return t if t < 1.0 else 0.0


def wrap_signed(t: float) -> float:
    """Reduce a turn fraction to (-1/2, 1/2]."""
    t = t % 1.0
    return t - 1.0 if t > 0.5 else t


def frac_distance(t1: float, t2: float) -> float:
    """Circular distance between two turn fractions, in [0, 1/2]."""
    t1, t2 = (check_real(t, "turn fractions must be finite reals") for t in (t1, t2))
    return abs(wrap_signed(t1 - t2))


@dataclass(frozen=True)
class PlanePoint:
    """A Cartesian point of the Euclidean plane at unit-circle scale."""

    x: float
    y: float

    def __post_init__(self):
        for name in ("x", "y"):
            value = check_real(getattr(self, name), "plane point coordinates must be finite reals")
            object.__setattr__(self, name, value)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "PlanePoint") -> float:
        check_type(other, PlanePoint, "distance_to takes a PlanePoint")
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class CirclePoint:
    """A point on the unit circle stored as a turn fraction in [0, 1)."""

    t: float

    def __post_init__(self):
        object.__setattr__(self, "t", wrap_unit(check_real(self.t, "turn fraction must be a finite real")))

    def approx_eq(self, other: "CirclePoint", tol: float = POINT_TOL) -> bool:
        """Identity up to the point tolerance, after modular reduction."""
        check_type(other, CirclePoint, "can only compare with a CirclePoint")
        tol = check_real(tol, "tolerance must be a finite real >= 0", lo=0.0)
        return frac_distance(self.t, other.t) < tol


@dataclass(frozen=True)
class GeodesicSide:
    """A geodesic side: start fraction ``a`` plus arc width ``alpha``.

    The side runs from ``a`` to ``a + alpha`` in the positive direction;
    ``alpha`` must lie strictly inside (0, 1/2), enforced through the
    ``ALPHA_MIN`` clamp.
    """

    a: float
    alpha: float

    def __post_init__(self):
        a = check_real(self.a, "side start must be a finite real")
        alpha = check_real(self.alpha, _WIDTH_MESSAGE, lo=ALPHA_MIN, hi=ALPHA_MAX)
        object.__setattr__(self, "a", wrap_unit(a))
        object.__setattr__(self, "alpha", alpha)

    @property
    def end(self) -> float:
        """Fraction of the far endpoint, ``a + alpha`` mod 1."""
        return wrap_unit(self.a + self.alpha)

    @property
    def midpoint(self) -> float:
        """Fraction of the arc midpoint, ``a + alpha/2`` mod 1."""
        return wrap_unit(self.a + 0.5 * self.alpha)


@dataclass(frozen=True)
class OrthoCircle:
    """A circle given by center direction, center distance and radius.

    Circles produced by :func:`side_circle` are orthogonal to the unit
    circle (``center_dist**2 == 1 + radius**2``); the constructor does not
    force that relation so the Euclidean-inversion oracle can work with
    arbitrary circles, e.g. ones centered at the origin.
    """

    center_arg: float
    center_dist: float
    radius: float

    def __post_init__(self):
        arg = check_real(self.center_arg, "center direction must be a finite real")
        dist = check_real(self.center_dist, "center distance must be a finite real >= 0", lo=0.0)
        radius = check_real(self.radius, "radius must be a finite real > 0", lo=MIN_POSITIVE)
        object.__setattr__(self, "center_arg", wrap_unit(arg))
        object.__setattr__(self, "center_dist", dist)
        object.__setattr__(self, "radius", radius)

    @property
    def center(self) -> PlanePoint:
        phi = _TWO_PI * self.center_arg
        return PlanePoint(self.center_dist * math.cos(phi), self.center_dist * math.sin(phi))

    def is_orthogonal(self, tol: float = 1e-12) -> bool:
        """Whether the circle meets the unit circle at right angles."""
        tol = check_real(tol, "tolerance must be a finite real >= 0", lo=0.0)
        lhs = self.center_dist * self.center_dist
        rhs = 1.0 + self.radius * self.radius
        return abs(lhs - rhs) <= tol * rhs


def check_count(value, message: str, lo: int, hi: float = math.inf) -> int:
    """``value`` as an int if it is an int or numpy integer in ``lo..hi``, else DomainError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        raise DomainError(message)
    return int(value)


def check_real(value, message: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a float if it is a real number (not a bool), finite and in [lo, hi], else DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(message)
    try:
        number = float(value)
    except OverflowError as exc:  # an int past the largest float
        raise DomainError(message) from exc
    if not (math.isfinite(number) and lo <= number <= hi):
        raise DomainError(message)
    return number


def check_numbers(values, message: str) -> np.ndarray:
    """``values`` as a float array, else DomainError; text, bytes, bools and
    integers past the largest float are not numbers.

    A numeric ndarray passes on its dtype alone.  Anything else (a list, a
    tuple, a scalar) and an object array is looked through entry by entry,
    since a list mixing bools and floats would convert to a float array;
    None, Fraction and the like convert one by one.
    """
    try:
        arr = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        kind = arr.dtype.kind
        if kind not in "iufO" or kind == "O" and any(isinstance(a, (str, bytes, bool, np.bool_)) for a in arr.flat):
            raise TypeError("text and bools are not numbers")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(message) from exc


def check_type(value, types, message: str):
    """``value`` if it is an instance of ``types``, else DomainError."""
    if not isinstance(value, types):
        raise DomainError(message)
    return value


def check_widths(arr: np.ndarray) -> np.ndarray:
    """``arr`` if every width in it is in [ALPHA_MIN, ALPHA_MAX], else DomainError; NaN is not."""
    if not np.all((arr >= ALPHA_MIN) & (arr <= ALPHA_MAX)):
        raise DomainError(_WIDTH_MESSAGE)
    return arr


def unit_point(t: float) -> PlanePoint:
    """Cartesian coordinates of the boundary point at turn fraction ``t``."""
    phi = _TWO_PI * check_real(t, "turn fraction must be a finite real")
    return PlanePoint(math.cos(phi), math.sin(phi))


def side_circle(side: GeodesicSide) -> OrthoCircle:
    """Orthogonal circle carrying a geodesic side.

    Center direction is the arc midpoint; center distance ``sec(pi*alpha)``
    and radius ``tan(pi*alpha)`` make the circle orthogonal to the unit
    circle through the side's endpoints.
    """
    half = math.pi * check_type(side, GeodesicSide, "side_circle takes a GeodesicSide").alpha
    return OrthoCircle(
        center_arg=side.midpoint,
        center_dist=1.0 / math.cos(half),
        radius=math.tan(half),
    )


def invert_on_circle(beta: float, side: GeodesicSide) -> float:
    """Turn fraction of the inversion of ``exp(2*pi*i*beta)`` across a side.

    Let ``d`` be ``beta`` minus the arc midpoint, reduced to (-1/2, 1/2].
    The two published argument formulas (one per sign of ``d``) are applied
    with a two-argument arctangent so the endpoint case, where the
    denominator vanishes, resolves to a quarter turn; at ``d == 0`` both
    branches coincide at the antipode of the midpoint, which is returned
    directly.  The side's endpoints are fixed points of the map.
    """
    beta = wrap_unit(check_real(beta, "beta must be a finite real"))
    check_type(side, GeodesicSide, "invert_on_circle takes a GeodesicSide")
    d = wrap_signed(beta - side.midpoint)
    if d == 0.0:
        return wrap_unit(side.midpoint + 0.5)
    num = math.sin(_TWO_PI * abs(d))
    # cos(pi alpha) - cos(2 pi d) as a product: on a narrow side both
    # cosines round to 1 and their difference keeps no digit
    half = 0.5 * side.alpha
    den = 2.0 * math.sin(math.pi * (abs(d) + half)) * math.sin(math.pi * (abs(d) - half))
    gap = math.atan2(num, den) / math.pi
    if d > 0.0:
        x = beta - 0.5 + gap
    else:
        x = beta + 0.5 - gap
    return wrap_unit(x)


def invert_fractions(beta, a, alpha):
    """Vectorized :func:`invert_on_circle` on raw turn fractions.

    ``beta``, ``a`` and ``alpha`` are numbers or arrays of numbers (not
    text or bools) that broadcast together, every ``alpha`` inside the
    clamp; the two branches and the midpoint case collapse, modulo one turn,
    into a single two-argument arctangent expression, which is what is
    evaluated here.  Returns an ndarray (or scalar) of fractions in [0, 1).
    """
    beta = check_numbers(beta, "beta must be a number")
    a = check_numbers(a, "side start must be a number")
    alpha = check_widths(check_numbers(alpha, "alpha must be a number"))
    d = beta - (a + 0.5 * alpha)
    d = d - np.rint(d)
    dist = np.abs(d)
    # the product form of the denominator, as in invert_on_circle
    den = 2.0 * np.sin(np.pi * (dist + 0.5 * alpha)) * np.sin(np.pi * (dist - 0.5 * alpha))
    gap = np.arctan2(np.sin(_TWO_PI * d), den)
    return (beta + 0.5 + gap / np.pi) % 1.0


def invert_euclidean(p: PlanePoint, circle: OrthoCircle) -> PlanePoint:
    """Euclidean inversion of ``p`` in ``circle``.

    The image lies on the ray from the center through ``p`` with
    ``|center - p| * |center - image| == radius**2``.  Applying the map
    twice is the identity.
    """
    check_type(p, PlanePoint, "invert_euclidean inverts a PlanePoint")
    c = check_type(circle, OrthoCircle, "invert_euclidean inverts in an OrthoCircle").center
    dx = p.x - c.x
    dy = p.y - c.y
    dist2 = dx * dx + dy * dy
    if dist2 < 1e-28:
        raise SingularInputError("cannot invert the center of the circle")
    scale = circle.radius * circle.radius / dist2
    return PlanePoint(c.x + scale * dx, c.y + scale * dy)


def inverse_distance(pq: float, op_len: float, oq_len: float, r: float) -> float:
    """Distance between the images of two inverted points.

    For inverse pairs ``P, P'`` and ``Q, Q'`` with respect to a circle of
    radius ``r`` centered at ``O``, the image distance is
    ``r**2 * |PQ| / (|OP| * |OQ|)``.
    """
    pq, op_len, oq_len, r = (
        check_real(value, f"{name} must be a positive real", lo=MIN_POSITIVE)
        for name, value in (("pq", pq), ("op_len", op_len), ("oq_len", oq_len), ("r", r))
    )
    return r * r * pq / (op_len * oq_len)
