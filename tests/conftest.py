"""Shared oracles and samplers for the test suite.

The Euclidean route (Cartesian inversion in the side's orthogonal circle)
serves as the independent oracle for the turn-fraction inversion formula;
test modules keep expected values frozen from it rather than from the code
path under test.
"""

import math

import numpy as np
import pytest

from hypergon.disk_geometry import GeodesicSide, invert_euclidean, side_circle, unit_point


def euclidean_image_fraction(beta: float, side: GeodesicSide) -> float:
    """Image fraction computed via the Cartesian inversion route only."""
    q = invert_euclidean(unit_point(beta), side_circle(side))
    return (math.atan2(q.y, q.x) / (2.0 * math.pi)) % 1.0


def circular_gap(t1, t2):
    """Shortest distance between turn fractions, elementwise."""
    d = np.abs((np.asarray(t1) - np.asarray(t2)) % 1.0)
    return np.minimum(d, 1.0 - d)


def random_angle_vectors(rng: np.random.Generator, n: int, count: int, floor: float = 1e-6):
    """Uniform simplex draws with every angle in (floor, 1/2)."""
    out = []
    while len(out) < count:
        block = rng.standard_exponential((count * 3, n))
        block /= block.sum(axis=1, keepdims=True)
        ok = (block.max(axis=1) < 0.5 - 1e-9) & (block.min(axis=1) > floor)
        out.extend(block[ok][: count - len(out)])
    return np.asarray(out)


def replay_table(mpmath, angles):
    """Inverted-angle table replayed at 40 digits from the widths as given.

    Widths may be floats or mpmath numbers, each taken exactly.  A vertex at offset ``delta`` from the reflecting side's start maps to
    ``x`` with ``cot(pi x) = 2 cot(pi w) - cot(pi delta)``.  Each source
    side's first vertex is summed from the nearer end of the reflecting
    side and its second one lies the side's own width further on, so a row
    that sums to 1 only in double precision still replays every width.
    """
    mp = mpmath.mp.clone()
    mp.dps = 40
    a = [mp.mpf(x) for x in angles]
    n = len(a)

    def image(w, delta):
        if delta == 1:
            return mp.mpf(0)
        return mp.atan2(1, 2 * mp.cot(mp.pi * w) - mp.cot(mp.pi * delta)) / mp.pi

    table = {}
    for j in range(n):
        r = [a[(j + i) % n] for i in range(n)]
        for k in range(1, n):
            from_end, from_start = sum(r[:k]), sum(r[k:])
            delta = from_end if from_end <= from_start else 1 - from_start
            table[j, (j + k) % n] = image(r[0], delta) - image(r[0], delta + r[k])
    return table


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
