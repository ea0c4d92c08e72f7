"""40-digit mpmath replays of the library's numbers, for ``max_rel_err``.

Each replay repeats the library's own formulas at high precision from the
same double inputs, so the reported error is what double arithmetic lost,
not a difference between two algorithms.  Nothing here runs inside a timed
region.
"""

from __future__ import annotations

import mpmath

mp = mpmath.mp.clone()
mp.dps = 40

HALF = mp.mpf(1) / 2


def invert(beta, a, alpha):
    """Turn fraction of ``beta`` inverted across the side ``(a, alpha)``."""
    d = beta - (a + alpha / 2)
    d -= mp.nint(d)
    gap = mp.atan2(mp.sin(2 * mp.pi * d), mp.cos(mp.pi * alpha) - mp.cos(2 * mp.pi * d))
    x = beta + HALF + gap / mp.pi
    return x - mp.floor(x)


def _vertices(angles):
    verts = [mp.mpf(0)]
    for a in angles[:-1]:
        verts.append(verts[-1] + a)
    return verts


def table(angles) -> dict:
    """Inverted-angle table ``{(j, k): width}`` of a rotation-0 polygon."""
    a = [mp.mpf(float(x)) for x in angles]
    n = len(a)
    v = _vertices(a)
    out = {}
    for j in range(n):
        x = [invert(v[i], v[j], a[j]) for i in range(n)]
        for k in range(n):
            if k != j:
                out[j, k] = (x[k] - x[(k + 1) % n]) % 1
    return out


def objective(angles):
    """Largest inverted angle of the polygon with the given side angles."""
    return max(table(angles).values())


def rel_err(value, exact) -> float:
    return float(abs(mp.mpf(float(value)) - exact) / abs(exact))


def table_rel_err(angles, float_table) -> float:
    """Largest relative error of a float (n, n) table against the replay."""
    return max(rel_err(float_table[j][k], e) for (j, k), e in table(angles).items())


def grown_arcs(angles, generations: int) -> list:
    """Boundary arcs of the reflection body, replaying ``grow_body``.

    Cells are reflected in the library's order (every side of the seed,
    then the free sides of each later cell) and the boundary vertices are
    sorted, so arc ``i`` corresponds to the library's arc ``i``.
    """
    a = [mp.mpf(float(x)) for x in angles]
    n = len(a)
    seed = tuple(_vertices(a))
    boundary = list(seed)
    frontier = [seed]
    for g in range(generations):
        cells = []
        for verts in frontier:
            for i in range(n if g == 0 else n - 1):
                start, end = verts[i], verts[(i + 1) % n]
                width = (end - start) % 1
                offsets = sorted(
                    (invert(verts[m], start, width) - start) % 1
                    for m in range(n)
                    if m not in (i, (i + 1) % n)
                )
                images = [(start + off) % 1 for off in offsets]
                cells.append((start, *images, end))
                boundary.extend(images)
        frontier = cells
    boundary.sort()
    arcs = [boundary[i + 1] - boundary[i] for i in range(len(boundary) - 1)]
    arcs.append(1 + boundary[0] - boundary[-1])
    return arcs
