#!/usr/bin/env python3
"""
Area functionals and their sharp bounds
=======================================

The Euclidean area of an ideal polygon is a sum of one concave function of
each side angle, so Jensen's inequality bounds it by the regular polygon's
area.  The hyperbolic area, in contrast, ignores the angles entirely:
every ideal n-gon measures pi*(n-2)/4 in the metric |dz|/(1-|z|^2).  Both
facts are checked numerically here.
"""

import math

import numpy as np

from hypergon import (
    IdealPolygon,
    area_upper_bound,
    euclidean_area,
    hyperbolic_area_ideal,
    hyperbolic_area_quadrature,
    sample_simplex,
    side_region_area,
)

print("per-side area contribution F(alpha) = tan(pi a)(1 - pi tan(pi a)(1/2 - a)):")
for alpha, label in [(0.25, "1 - pi/4"), (1 / 3, "sqrt(3) - pi/2"), (1 / 6, "")]:
    note = f" = {label}" if label else ""
    print(f"  F({alpha:.6f}) = {side_region_area(alpha):.10f}{note}")
grid = np.linspace(0.01, 0.49, 9)
print(f"  F on a coarse grid: {np.round(side_region_area(grid), 6)}")
print("  (concave, vanishing at both ends, maximal near alpha ~ 0.19)")

print("\nJensen bound: area <= n*F(1/n), tight exactly at the regular polygon")
for n in (3, 4, 6):
    print(f"  n={n}: bound {area_upper_bound(n):.10f}, regular area {euclidean_area([1/n]*n):.10f}")

rng = np.random.default_rng(33)
print("\nrandom 4-gons never beat the bound:")
for angles in sample_simplex(4, 5, rng):
    area = euclidean_area(angles)
    print(f"  area {area:.9f}  slack {area_upper_bound(4) - area:.9f}  angles {np.round(angles, 4)}")

print("\nhyperbolic area is angle-independent: quadrature vs pi*(n-2)/4")
for poly, label in [
    (IdealPolygon.regular(3), "regular triangle"),
    (IdealPolygon.regular(4), "regular 4-gon"),
    (IdealPolygon((0.4, 0.3, 0.2, 0.1)), "skewed 4-gon"),
    (IdealPolygon((0.3, 0.3, 0.397, 0.003)), "narrow-side 4-gon"),
]:
    quad = hyperbolic_area_quadrature(poly)
    ideal = hyperbolic_area_ideal(poly.n)
    print(f"  {label:18s}: {quad:.10f} vs {ideal:.10f} (rel err {abs(quad-ideal)/ideal:.2e})")
print(f"  pi/4 = {math.pi/4:.10f} for reference")
