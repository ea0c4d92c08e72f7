"""Numerical verification engine for the extremal and monotonicity claims.

The central objective is the largest inverted angle of a polygon, as a
function of its angle vector on the simplex (rotation is irrelevant).  A
deterministic lattice scan plus derivative-free local refinement verifies,
at desk scale, that the regular 4-gon minimizes it.  The remaining claims
(row monotonicity, pairwise side monotonicity, regularity breaking of grown
bodies, the area bound, and the two open majorization/area conjectures) run
as seeded property suites that record every violation verbatim.

Conjecture suites are evidence gatherers: they never assert the statement,
and a counterexample is reported as a first-class finding, not an error.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .disk_geometry import ALPHA_MAX, ALPHA_MIN, check_count, check_real, invert_fractions
from .errors import ConvergenceError, DomainError, UnknownSuiteError
from .measures import MAJORIZATION_SLACK, _prefix_margins, _sorted_spectra, area_upper_bound
from .measures import euclidean_area, side_region_area
from .polygon import IdealPolygon, _grow, _image_blocks, _regular_rows
from .polygon import angle_tables, grow_body, is_regular


@dataclass(frozen=True)
class Descent:
    """End of one simplex descent: best vertex, its value, objective calls, convergence."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


def minimize(fun, x0, *, fatol: float, maxfev: int) -> Descent:
    """Nelder–Mead descent of ``fun`` from ``x0`` (Nelder & Mead, 1965).

    ``fun`` maps a ``(k, N)`` array of points to their ``k`` values, and a
    point's value must not depend on the rest of its batch.  The descent is
    scipy 1.17's ``_minimize_neldermead`` without bounds or adaptive
    coefficients: the same vertices, operations and order, so the same
    points, values and call counts.  Vertices and values are Python floats;
    ranking stays ``np.argsort``, which orders tied values as scipy does.  A
    vertex moves by 5 % of its entry (0.00025 from a zero entry) and the
    coefficients are reflection 1, expansion 2, contraction and shrink 1/2.

    Each iteration evaluates its reflection, expansion and both
    contractions in one call of ``fun``, and a shrink its ``N`` points in
    one more; ``nfev`` counts only the points that one-at-a-time descent
    evaluates.  The descent stops when vertices lie within
    ``_REFINE_XATOL`` and values within ``fatol`` of the best, or,
    unconverged, after ``maxfev`` counted calls, even partway through a
    shrink, where the vertex whose call the cap denies has already moved.
    scipy's iteration cap is left out: every iteration makes at least one
    call, so a cap of ``maxfev`` or more iterations never ends a descent.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    x0 = np.asarray(x0, dtype=float).flatten().tolist()
    n = len(x0)
    sim = [list(x0) for _ in range(n + 1)]
    for k in range(n):
        sim[k + 1][k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = [math.inf] * (n + 1)

    def evaluate(points):  # values of the points, in one call of fun
        return fun(np.array(points).reshape(len(points), n)).tolist() if points else []

    def ranked():  # vertices and values, best first
        order = np.array(fsim).argsort().tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    nfev = min(n + 1, maxfev)
    fsim[:nfev] = evaluate(sim[:nfev])
    sim, fsim = ranked()
    sim, fsim = ranked()  # scipy ranks twice; from 17 vertices on, numpy may reorder ranked NaNs
    while nfev < maxfev:
        best, worst = sim[0], sim[-1]
        if all(abs(v - b) <= _REFINE_XATOL for x in sim[1:] for v, b in zip(x, best)) and all(
            abs(fsim[0] - f) <= fatol for f in fsim[1:]
        ):
            break
        total = best
        for x in sim[1:-1]:  # np.add.reduce adds the vertices one after another
            total = [t + v for t, v in zip(total, x)]
        xbar = [t / n for t in total]
        xr = [(1 + rho) * b - rho * w for b, w in zip(xbar, worst)]
        xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
        xo = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]  # outside contraction
        xi = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]  # inside contraction
        fxr, fxe, fxo, fxi = evaluate([xr, xe, xo, xi])
        nfev += 1
        # a second call the cap denies leaves the simplex as it is
        if fxr < fsim[0]:
            if nfev < maxfev:
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            nfev += 1
            if fxr < fsim[-1]:
                xc, fxc, accept = xo, fxo, fxo <= fxr
            else:
                xc, fxc, accept = xi, fxi, fxi < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex; a cap stops it after moving one more vertex
                k = min(n, maxfev - nfev)
                moved = min(n, k + 1)
                sim[1 : moved + 1] = [[b + sigma * (v - b) for b, v in zip(best, x)] for x in sim[1 : moved + 1]]
                fsim[1 : k + 1] = evaluate(sim[1 : k + 1])
                nfev += k
        sim, fsim = ranked()
    return Descent(x=np.array(sim[0]), fun=float(np.min(fsim)), nfev=nfev, success=nfev < maxfev)


# Lattice steps coarser than 1/100 cannot isolate the regular point.
MAX_GRID_STEP = 1.0 / 100.0

# Objective improvements below this slack are floating-point noise, not
# counterexamples.
FINDING_SLACK = 1e-12

EQUALITY_TOL = 1e-12

SEED_MESSAGE = "seed must be a non-negative integer"


# A point of the angle simplex is a polygon at rotation 0.
SimplexPoint = IdealPolygon


@dataclass(frozen=True)
class Violation:
    """One failed check: the input, the expected relation, the observations."""

    case: int
    input: dict
    relation: str
    observed: dict

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "input": self.input,
            "relation": self.relation,
            "observed": self.observed,
        }


def _violations(relation: str, cases, inputs: dict, observed: dict) -> list[Violation]:
    """One violation per entry of ``cases``, in order; the one place records are built.

    ``inputs`` and ``observed`` map each record key to a column holding one
    value per case.  A scalar is shared by every case, and so is a one-row
    array (an angle vector counts as one value).  Each column becomes
    Python values (int, float, bool, str) in one conversion.
    """
    cases = np.asarray(cases, dtype=int).tolist()

    def records(columns: dict) -> list[dict]:
        values = [np.broadcast_to(c, (len(cases), *np.shape(c)[1:])).tolist() for c in columns.values()]
        return [dict(zip(columns, row)) for row in zip(*values)]

    return [
        Violation(case, given, relation, seen)
        for case, given, seen in zip(cases, records(inputs), records(observed))
    ]


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Outcome of a scan or suite; passed iff no violations were recorded."""

    name: str
    size: int
    seed: int | None
    best_value: float | None
    best_point: tuple[float, ...] | None
    violations: tuple[Violation, ...]
    evidence: bool = False
    detail: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


def _objective_batch(rows: np.ndarray) -> np.ndarray:
    """Largest inverted angle for each angle vector in ``rows`` (B, n)."""
    out = np.empty(len(rows))
    for part, images in _image_blocks(rows, rows.shape[1]):
        out[part] = images.max(axis=(0, 1))
    return out


def minimax_objective(p: IdealPolygon) -> float:
    """Largest inverted angle of the polygon with angles ``p``.

    Bitwise invariant under cyclic shifts of the angle vector; reversal sums
    the widths in the other order, so about half the values change, by up to
    1e-15 relative.
    """
    if not isinstance(p, IdealPolygon):
        raise DomainError("minimax_objective takes an IdealPolygon")
    return float(_objective_batch(np.asarray(p.angles)[None, :])[0])


def sample_simplex(
    n: int, count: int, rng: np.random.Generator, floor: float = ALPHA_MIN
) -> np.ndarray:
    """Uniform draws from the angle simplex, rejected to the (0, 1/2) domain.

    Normalized exponential draws are uniform on the simplex; vectors with
    an entry at or beyond the clamp are redrawn.  A larger ``floor`` keeps
    every angle above it, which callers growing deep bodies use to stay
    clear of the arc-underflow guard.  Below 1 % acceptance, draws map onto
    the truncated simplex as ``floor + (1 - n floor) y``, uniform there too.
    """
    n = check_count(n, "need an integer n >= 3", lo=3)
    count = check_count(count, "need a non-negative integer count", lo=0)
    if not isinstance(rng, np.random.Generator):
        raise DomainError("sample_simplex draws from a numpy Generator, not a seed")
    message = "floor must be at least the clamp and below 1/n"
    floor = check_real(floor, message, lo=ALPHA_MIN)
    if floor >= 1.0 / n:
        raise DomainError(message)
    out = np.empty((count, n))
    have = 0
    while have < count:
        block = rng.standard_exponential((max(count - have, 16) * 2, n))
        block /= block.sum(axis=1, keepdims=True)
        if (1.0 - n * floor) ** (n - 1) < 1e-2:  # the share of plain draws above the floor
            block = floor + (1.0 - n * floor) * block
        ok = (block.max(axis=1) < ALPHA_MAX) & (block.min(axis=1) > floor)
        block = block[ok]
        take = min(len(block), count - have)
        out[have : have + take] = block[:take]
        have += take
    return out


def _lattice_rows(n: int, total: int, m_max: int, least_first: bool = False):
    """Yield integer lattice rows (B, n) summing to ``total``, parts in [1, m_max].

    Rows come in lexicographic order, one block per choice of the first
    ``n - 3`` parts; the last three are every pair of parts in range whose
    remainder is in range too, at most ``m_max ** 2`` rows.  With
    ``least_first`` only the rows whose first part is their least come,
    still in lexicographic order.
    """
    parts = np.arange(1, m_max + 1)
    pairs = np.stack(np.meshgrid(parts, parts, indexing="ij"), axis=-1).reshape(-1, 2)
    pair_sums = pairs.sum(axis=1)
    for prefix in itertools.product(range(1, m_max + 1), repeat=n - 3):
        if least_first and prefix and min(prefix) < prefix[0]:
            continue
        last = total - sum(prefix) - pair_sums
        keep = (last >= 1) & (last <= m_max)
        if least_first:
            least = prefix[0] if prefix else pairs[:, 0]
            keep &= (pairs[:, 0] >= least) & (pairs[:, 1] >= least) & (last >= least)
        if keep.any():
            rows = np.empty((np.count_nonzero(keep), n))
            rows[:, : n - 3] = prefix
            rows[:, n - 3 : n - 1] = pairs[keep]
            rows[:, n - 1] = last[keep]
            yield rows


def _lattice_classes(n: int, total: int, m_max: int):
    """Yield ``(rows, sizes)``: one lattice row per rotation class, with its class size.

    The row is the class's least rotation, so also its first member in
    lattice order, and rows come in lattice order.  A row whose first part
    is its only least part is such a row, with ``n`` distinct rotations;
    only rows whose least part repeats are compared with their rotations,
    and a class's size is its row's least period.
    """
    rotations = (np.arange(1, n + 1)[:, None] + np.arange(n)) % n  # row r - 1 reads rotation r
    for rows in _lattice_rows(n, total, m_max, least_first=True):
        sizes = np.full(len(rows), n)
        tied = np.nonzero((rows[:, 1:] == rows[:, :1]).any(axis=1))[0]
        diff = rows[tied][:, rotations] - rows[tied, None]  # [i, r - 1, k]: rotation r minus the row, part k
        first = (diff != 0).argmax(axis=2)  # the first differing part, 0 when none differs
        lead = np.take_along_axis(diff, first[..., None], axis=2)[..., 0]
        sizes[tied] = (lead == 0).argmax(axis=1) + 1  # rotation n is the row itself
        sizes[tied[(lead < 0).any(axis=1)]] = 0  # a smaller rotation is the class's row
        keep = sizes > 0
        if keep.any():
            yield rows[keep], sizes[keep]


def grid_scan(n: int, step: float, dump_path: str | None = None) -> ScanReport:
    """Evaluate the minimax objective on the step-lattice of the simplex.

    Scans every angle vector whose entries are positive multiples of
    ``step`` summing to 1 and lying in the domain, tracking the two smallest
    objective values.  The report carries the minimizing lattice point, the
    value at the regular polygon, and the margins; a lattice point beating
    the regular value beyond slack is recorded as a violation.  Fully
    deterministic.

    The objective is bitwise invariant under cyclic shifts of the angle
    vector (the width kernel sums every rotation from its own start), so
    the scan evaluates one lattice point per rotation class, its least
    rotation, and counts it once per distinct rotation.  ``size`` and the
    two smallest values are the whole lattice's, and the least rotation is
    its class's first point in lattice order, so the first minimizer in
    lattice order still wins ties.  With ``dump_path`` every lattice point
    is evaluated and written out as CSV, in lattice order.

    The lattice has roughly ``binomial(1/step - 1, n - 1)`` points, streamed
    block by block: n = 4 at step 1/200 covers 646,899 points with 161,750
    evaluations in a tenth of a second, and n = 6 at step 1/100
    58,810,584 points with 9,801,960 evaluations in 13 to 16 s at a 33 MB
    peak on 2 shared vCPUs, recording the alternating-hexagon finding (so
    ``hypergon extremal --n 6 --grid 1/100`` exits 2).
    """
    n = check_count(n, "side count must be an integer in 3..8", lo=3, hi=8)
    # from the smallest normal float up, 1 / step is finite
    step = check_real(step, "grid step must be positive", lo=np.finfo(float).tiny)
    if step > MAX_GRID_STEP:
        raise DomainError("grid step too coarse")
    # open() would take an integer as a file descriptor, and close it
    if dump_path is not None and not isinstance(dump_path, (str, os.PathLike)):
        raise DomainError("dump path must be a path")
    total = round(1.0 / step)
    if abs(total * step - 1.0) > 1e-9:
        raise DomainError("grid step must divide a full turn")
    m_max = (total - 1) // 2  # strict alpha < 1/2
    t0 = time.perf_counter()
    regular_value = minimax_objective(IdealPolygon.regular(n))

    best_val = np.inf
    second_val = np.inf
    best_row = None
    count = 0
    if dump_path:
        blocks = ((rows, np.ones(len(rows), dtype=int)) for rows in _lattice_rows(n, total, m_max))
    else:
        blocks = _lattice_classes(n, total, m_max)
    with open(dump_path, "w") if dump_path else nullcontext() as dump:
        if dump:
            dump.write(",".join(f"alpha_{i + 1}" for i in range(n)) + ",objective\n")
        for points, sizes in blocks:
            points /= total  # each block is a fresh array: divide it in place
            vals = _objective_batch(points)
            count += int(sizes.sum())
            if dump:
                dump.writelines(",".join(map(repr, r)) + "\n" for r in np.column_stack([points, vals]).tolist())
            # the two smallest values of the block, counting each class size times;
            # the first minimizer in lattice order wins ties
            i = int(np.argmin(vals))
            low = float(vals[i])
            if sizes[i] == 1:  # no other member shares the value: the next one is another row's
                vals[i] = np.inf
            next_low = float(vals.min())
            if low < best_val:
                second_val = min(best_val, next_low)
                best_val = low
                best_row = points[i]
            elif low < second_val:
                second_val = low

    best_point = tuple(best_row.tolist())
    violations = _violations(
        "lattice objective >= regular objective",
        [0] if best_val < regular_value - FINDING_SLACK else [],
        {"angles": [best_point]},
        {"lattice": best_val, "regular": regular_value},
    )
    return ScanReport(
        name=f"minimax-grid-n{n}",
        size=count,
        seed=None,
        best_value=best_val,
        best_point=best_point,
        violations=tuple(violations),
        detail={
            "step": 1.0 / total,
            "second_best_value": float(second_val),
            "isolation_margin": float(second_val - best_val),
            "regular_value": regular_value,
            "margin_to_regular": float(best_val - regular_value),
        },
        elapsed=time.perf_counter() - t0,
    )


_REFINE_MAX_ITER = 4000
_REFINE_XATOL = 1e-9
_REFINE_RESTARTS = 4


def refine_minimum(start: IdealPolygon, tol: float = 1e-10) -> tuple[IdealPolygon, float]:
    """Derivative-free simplex descent of the minimax objective.

    Works in the first ``n - 1`` angles (the last is pinned by the unit
    total); points leaving the domain are clamped back and penalized.
    Terminates when the objective spread across the search simplex drops
    below ``tol``; restarts the descent from the incumbent a few times to
    escape premature collapse.  Deterministic given the start.
    """
    if not isinstance(start, IdealPolygon):
        raise DomainError("refine_minimum starts from an IdealPolygon")
    tol = check_real(tol, "tolerance must be finite and at least 1e-12", lo=1e-12)
    n = start.n
    lo, hi = ALPHA_MIN, ALPHA_MAX

    def objective(points: np.ndarray) -> np.ndarray:  # (k, n - 1) reduced points, row by row
        rows = np.concatenate([points, 1.0 - points.sum(axis=1, keepdims=True)], axis=1)
        if lo <= rows.min() and rows.max() <= hi:
            return _objective_batch(rows)
        out = ~((lo <= rows.min(axis=1)) & (rows.max(axis=1) <= hi))
        a = rows[out]
        excess = np.sum(np.maximum(lo - a, 0.0) + np.maximum(a - hi, 0.0), axis=1)
        clipped = np.clip(a, lo, hi)
        rows[out] = clipped / clipped.sum(axis=1, keepdims=True)
        values = _objective_batch(rows)
        values[out] += 10.0 * excess
        return values

    y = np.asarray(start.angles[: n - 1])
    best_y = y
    best_val = float(objective(y[None, :])[0])
    converged = False
    for _ in range(_REFINE_RESTARTS):
        res = minimize(objective, best_y, fatol=tol, maxfev=_REFINE_MAX_ITER)
        improved = best_val - res.fun
        if res.fun < best_val:
            best_val = float(res.fun)
            best_y = res.x
        converged = bool(res.success)
        if converged and improved < tol:
            break
    point = _point_from_reduced(best_y)
    if not converged:
        raise ConvergenceError(
            "simplex descent hit its iteration cap",
            best_point=point,
            best_value=best_val,
        )
    return point, float(minimax_objective(point))


def _point_from_reduced(y: np.ndarray) -> IdealPolygon:
    angles = np.clip(np.append(y, 1.0 - y.sum()), ALPHA_MIN, ALPHA_MAX)
    # normalizing can push a clamped angle back past the clamp by an ulp
    return IdealPolygon(np.clip(angles / angles.sum(), ALPHA_MIN, ALPHA_MAX))


def _spectra(rows: np.ndarray):
    """Yield ``(rows slice, descending spectra (b, n*(n-1)))`` per kernel block.

    A spectrum is the angle vector's table entries off the diagonal, sorted.
    """
    for part, images in _image_blocks(rows, rows.shape[1]):
        yield part, _sorted_spectra(images.reshape(-1, images.shape[2]).T)


def _regular_spectrum(n: int) -> np.ndarray:
    return next(_spectra(np.full((1, n), 1.0 / n)))[1][0]


def _majorization_violations(rows: np.ndarray, cases) -> tuple[list[Violation], float]:
    """Rows (B, n) whose sorted spectrum fails to majorize the regular one.

    Compares the prefix sums of each row's descending spectrum with the
    regular polygon's; a row fails when any prefix falls short by more than
    ``MAJORIZATION_SLACK``, and is recorded at its smallest margin with case
    number ``cases[i]``.  Returns the violations and the smallest margin.
    """
    n = rows.shape[1]
    regular = _regular_spectrum(n)
    regular_prefixes = np.cumsum(regular)
    cases = np.asarray(cases)
    violations = []
    min_margin = np.inf
    for part, spectra in _spectra(rows):
        margins = _prefix_margins(spectra, regular)
        min_margin = min(min_margin, float(margins.min()))
        bad = np.nonzero(np.any(margins < -MAJORIZATION_SLACK, axis=1))[0]
        k = np.argmin(margins[bad], axis=1)
        prefixes = np.cumsum(spectra[bad], axis=1)
        violations += _violations(
            "prefix sums dominate the regular spectrum",
            cases[part][bad],
            {"angles": rows[part][bad]},
            {
                "prefix_index": k + 1,
                "sample_prefix": prefixes[np.arange(bad.size), k],
                "regular_prefix": regular_prefixes[k],
            },
        )
    return violations, min_margin


def _seeded_scan(name: str, scan, samples: int, seed: int, evidence: bool) -> ScanReport:
    """Check ``samples`` and ``seed``, then time and report ``scan(samples, rng) -> (size, violations, detail)``."""
    samples = check_count(samples, "need at least one sample", lo=1)
    seed = check_count(seed, SEED_MESSAGE, lo=0)
    t0 = time.perf_counter()
    size, violations, detail = scan(samples, np.random.default_rng(seed))
    return ScanReport(
        name=name,
        size=size,
        seed=seed,
        best_value=None,
        best_point=None,
        violations=tuple(violations),
        evidence=evidence,
        detail=detail,
        elapsed=time.perf_counter() - t0,
    )


def majorization_scan(n: int, samples: int, seed: int = 0) -> ScanReport:
    """Evidence scan: does every sampled spectrum majorize the regular one?

    Draws angle vectors uniformly from the domain simplex, sorts the
    flattened inverted-angle table of each, and compares its prefix sums to
    the regular polygon's.  Every failure is recorded verbatim; zero
    violations is evidence for the conjecture, never a proof.
    """

    def scan(samples: int, rng: np.random.Generator):
        violations, min_margin = _majorization_violations(sample_simplex(n, samples, rng), range(samples))
        return samples, violations, {"n": n, "min_prefix_margin": min_margin}

    return _seeded_scan(f"majorization-scan-n{n}", scan, samples, seed, evidence=True)


def _mixed_rows(samples: int, rng: np.random.Generator, n_lo: int, floor: float = ALPHA_MIN):
    """Mixed-n draws from ``rng``: yield ``(n, cases, rows)`` per side count.

    Every case first draws its side count uniformly from ``n_lo..8``; then,
    for each count in increasing order, its cases' angle vectors are drawn
    with ``sample_simplex`` (angles above ``floor``).  ``cases`` holds their
    indices among all ``samples``; counts no case drew are skipped.
    """
    ns = rng.integers(n_lo, 9, size=samples)
    for n in range(n_lo, 9):
        cases = np.nonzero(ns == n)[0]
        if cases.size:
            yield n, cases, sample_simplex(n, cases.size, rng, floor)


def _suite_row_monotone(samples: int, rng: np.random.Generator):
    """Regular-polygon rows decay strictly away from the reflecting side."""
    violations = []
    cases = list(range(3, 13))
    for case, n in enumerate(cases):
        table = angle_tables(np.full((1, n), 1.0 / n))[0]
        j = np.arange(n)[:, None]
        ents = table[j, (j + np.arange(1, n // 2 + 1)) % n]  # row j, side distance 1..n//2
        row, d = np.nonzero(~(ents[:, :-1] > ents[:, 1:]))
        violations += _violations(
            "row entries decrease with side distance",
            np.full(row.size, case),
            {"n": n, "row": row + 1, "distance": d + 1},
            {"nearer": ents[row, d], "farther": ents[row, d + 1]},
        )
    return len(cases), violations, {"n_range": [3, 12]}


def _suite_point_monotone(samples: int, rng: np.random.Generator):
    """Image fraction decreases as the source moves along the far arc."""
    alphas = rng.uniform(0.01, 0.49, samples)
    u = rng.uniform(0.0, 1.0, (samples, 2))
    u.sort(axis=1)
    b1 = alphas + (1.0 - alphas) * u[:, 0]
    b2 = alphas + (1.0 - alphas) * u[:, 1]
    x1 = invert_fractions(b1, 0.0, alphas)
    x2 = invert_fractions(b2, 0.0, alphas)
    bad = np.nonzero(x1 <= x2)[0]
    violations = _violations(
        "x(beta_1) > x(beta_2) on the complementary arc",
        bad,
        {"alpha": alphas[bad], "beta_1": b1[bad], "beta_2": b2[bad]},
        {"x_1": x1[bad], "x_2": x2[bad]},
    )
    return samples, violations, {}


def _entry_pair_violations(rows, cases, pairs, failed, relation, names):
    """Rows failing ``failed(alpha_j, alpha_k, ent_jk, ent_kj)`` on an ordered side pair.

    The predicate runs on per-row vectors for each ``(j, k)`` of ``pairs``.
    Violations carry case ``cases[i]``, key sides and entries by the two letters
    of ``names``, and come row by row, then in the order of ``pairs``.
    """
    tables = angle_tables(rows)
    a, b = names
    bad = np.stack([failed(rows[:, j], rows[:, k], tables[:, j, k], tables[:, k, j]) for j, k in pairs], axis=1)
    i, m = np.nonzero(bad)  # row by row, then pair by pair
    j, k = np.asarray(pairs)[m].T
    return _violations(
        relation,
        np.asarray(cases)[i],
        {"angles": rows[i], a: j + 1, b: k + 1},
        {f"ent_{a}{b}": tables[i, j, k], f"ent_{b}{a}": tables[i, k, j]},
    )


def _suite_side_monotone(samples: int, rng: np.random.Generator, adjacent: bool):
    """Shorter side inverts shorter: alpha_k < alpha_l implies ent(k,l) < ent(l,k)."""
    n_lo, kind = (3, "adjacent") if adjacent else (4, "non-adjacent")
    relation = f"{kind} sides: ent(k,l) < ent(l,k) when alpha_k < alpha_l"

    def failed(alpha_k, alpha_l, ent_kl, ent_lk):
        return (alpha_k < alpha_l) & (ent_kl >= ent_lk)

    violations = []
    for n, cases, rows in _mixed_rows(samples, rng, n_lo):
        if adjacent:
            pairs = [(k, (k + 1) % n) for k in range(n)]
        else:
            pairs = [(k, l) for k in range(n) for l in range(k + 2, n) if (k, l) != (0, n - 1)]
        ordered = [kl for pair in pairs for kl in (pair, pair[::-1])]
        violations += _entry_pair_violations(rows, cases, ordered, failed, relation, "kl")
    return samples, violations, {"n_range": [n_lo, 8]}


def _suite_regularity_break(samples: int, rng: np.random.Generator):
    """Growing a regular seed stays regular only for the triangle at s=1."""
    cases = [(3, 1, True), (3, 2, False)] + [(n, 1, False) for n in range(4, 13)]
    got = np.array([is_regular(grow_body(IdealPolygon.regular(n), s).boundary_angles) for n, s, _ in cases])
    n, s, expected = (np.array(column) for column in zip(*cases))
    bad = np.nonzero(got != expected)[0]
    violations = _violations(
        "body regularity matches the regular-seed law",
        bad,
        {"n": n[bad], "generations": s[bad]},
        {"expected_regular": expected[bad], "observed_regular": got[bad]},
    )
    return len(cases), violations, {"cases": [[n, s] for n, s, _ in cases]}


def _suite_nonregular_stays(samples: int, rng: np.random.Generator):
    """Bodies of non-regular seeds are non-regular at s = 1 and s = 2.

    Seeds keep every angle above 0.05 so two generations of growth stay
    clear of the arc-underflow guard.  All seeds of a side count grow
    together, once, to s = 2.  The boundary arcs of a seed's body at s are
    the free widths of its generation-s cells, rotated, and regularity does
    not depend on where the boundary starts.  Seeds that read regular (a
    random draw never does) are skipped.
    """
    violations = []
    for _, cases, rows in _mixed_rows(samples, rng, 3, floor=0.05):
        skipped = _regular_rows(rows)
        gaps = _grow(rows, 2)
        # entry [i, s - 1]: the body of row i at s is regular
        regular = np.stack([_regular_rows(gaps[s][:, :, :-1]) for s in (1, 2)], axis=1)
        del gaps  # the next side count's cells need the room
        i, s = np.nonzero(regular & ~skipped[:, None])  # row by row, s = 1 first
        violations += _violations(
            "non-regular seed grows a non-regular body",
            cases[i],
            {"angles": rows[i], "generations": s + 1},
            {"observed_regular": True},
        )
    return samples, violations, {"n_range": [3, 8]}


def _suite_pair_symmetry(samples: int, rng: np.random.Generator, opposite: bool):
    """4-gons with two pairs of equal sides have symmetric entries across them.

    Lemma 4.1 pairs equal adjacent sides, ``(p, 1/2 - p, 1/2 - p, p)``;
    Lemma 4.2 equal opposite sides, ``(p, 1/2 - p, p, 1/2 - p)``.
    """
    p = rng.uniform(2 * ALPHA_MIN, 0.5 - 2 * ALPHA_MIN, samples)
    q = 0.5 - p
    if opposite:
        rows = np.stack([p, q, p, q], axis=1)
        pairs = [(0, 2), (1, 3)]
        relation = "equal opposite sides force ent(1,3)=ent(3,1), ent(2,4)=ent(4,2)"
    else:
        rows = np.stack([p, q, q, p], axis=1)
        pairs = [(0, 3), (1, 2)]
        relation = "equal adjacent sides force ent(1,4)=ent(4,1), ent(2,3)=ent(3,2)"

    def failed(alpha_j, alpha_k, ent_jk, ent_kj):
        return np.abs(ent_jk - ent_kj) > EQUALITY_TOL

    return samples, _entry_pair_violations(rows, range(samples), pairs, failed, relation, "jk"), {}


def _suite_area_bound(samples: int, rng: np.random.Generator):
    """Euclidean area never exceeds the Jensen bound; tight at regular.

    Cases 0..5 are the deterministic tightness checks at the regular
    polygon for n = 3..8; random samples follow.
    """
    slack = np.array([abs(area_upper_bound(n) - euclidean_area([1.0 / n] * n)) for n in range(3, 9)])
    bad = np.nonzero(slack > EQUALITY_TOL)[0]
    violations = _violations(
        "bound is attained at the regular polygon",
        bad,
        {"n": bad + 3, "angles": "regular"},
        {"slack": slack[bad]},
    )
    offset = slack.size
    for n, cases, rows in _mixed_rows(samples, rng, 3):
        bound = area_upper_bound(n)
        areas = np.sum(side_region_area(rows), axis=1)
        bad = np.nonzero(areas > bound + FINDING_SLACK)[0]
        violations += _violations(
            "euclidean area <= upper bound",
            offset + cases[bad],
            {"angles": rows[bad]},
            {"area": areas[bad], "bound": bound},
        )
    return samples + offset, violations, {"max_regular_slack": float(slack.max())}


def _suite_area_dominance(samples: int, rng: np.random.Generator):
    """Evidence: first-generation body area is maximal for the regular seed.

    The boundary angles of a first-generation body are exactly the entries
    of the inverted-angle table, so the body area is the side-region sum
    over the table.  Seeds keep every angle above 0.01 so all reflected
    arcs stay inside the area formula's clamped domain.
    """
    violations = []
    min_margin = np.inf
    for n, cases, rows in _mixed_rows(samples, rng, 3, floor=0.01):
        regular_area = float(np.sum(side_region_area(_regular_spectrum(n))))
        spectra = np.concatenate([block for _, block in _spectra(rows)])
        areas = np.sum(side_region_area(spectra), axis=1)
        min_margin = min(min_margin, float((regular_area - areas).min()))
        bad = np.nonzero(areas > regular_area + FINDING_SLACK)[0]
        violations += _violations(
            "body area <= regular body area (s=1)",
            cases[bad],
            {"angles": rows[bad]},
            {"area": areas[bad], "regular_area": regular_area},
        )
    return samples, violations, {"n_range": [3, 8], "min_area_margin": min_margin}


def _suite_majorization(samples: int, rng: np.random.Generator):
    """Evidence: sampled spectra majorize the regular spectrum (mixed n)."""
    violations = []
    min_margin = np.inf
    for _, cases, rows in _mixed_rows(samples, rng, 3):
        found, margin = _majorization_violations(rows, cases)
        violations.extend(found)
        min_margin = min(min_margin, margin)
    return samples, violations, {"n_range": [3, 8], "min_prefix_margin": min_margin}


_SUITES = {
    "lemma31": _suite_row_monotone,
    "lemma32i": _suite_point_monotone,
    "lemma32ii": lambda samples, rng: _suite_side_monotone(samples, rng, adjacent=True),
    "lemma32iii": lambda samples, rng: _suite_side_monotone(samples, rng, adjacent=False),
    "lemma33": _suite_regularity_break,
    "lemma34": _suite_nonregular_stays,
    "lemma41": lambda samples, rng: _suite_pair_symmetry(samples, rng, opposite=False),
    "lemma42": lambda samples, rng: _suite_pair_symmetry(samples, rng, opposite=True),
    "thm52": _suite_area_bound,
    "conj51": _suite_area_dominance,
    "conj52": _suite_majorization,
}


def suite_names() -> tuple[str, ...]:
    """The known property-suite ids."""
    return tuple(sorted(_SUITES))


def property_suite(name: str, samples: int = 10_000, seed: int = 0) -> ScanReport:
    """Run a named property suite over seeded randomized instances.

    ``lemma31`` and ``lemma33`` are deterministic over their side-count
    range and ignore ``samples``.  Suites named after conjectures
    (``conj*``) are marked as evidence in the report.
    """
    if not isinstance(name, str) or name not in _SUITES:
        raise UnknownSuiteError(f"unknown suite '{name}'; known: {', '.join(suite_names())}")
    return _seeded_scan(name, _SUITES[name], samples, seed, evidence=name.startswith("conj"))
