"""Minimax objective, lattice scan, refinement, and the property suites."""

import ast
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from hypergon import extremal
from hypergon.errors import ConvergenceError, DomainError, UnknownSuiteError
from hypergon.extremal import (
    ALPHA_MIN,
    SimplexPoint,
    grid_scan,
    majorization_scan,
    minimax_objective,
    property_suite,
    refine_minimum,
    sample_simplex,
    suite_names,
)
from hypergon.disk_geometry import invert_fractions
from hypergon.measures import MAJORIZATION_SLACK, area_upper_bound, decreasing_rearrangement, majorizes
from hypergon.measures import euclidean_area, side_region_area
from hypergon.polygon import REGULARITY_TOL, IdealPolygon, _block_rows, _regular_rows, angle_tables, grow_body
from hypergon.polygon import inverted_angle_matrix, is_regular

from conftest import replay_table

M_STAR = 0.25 - math.atan(0.5) / math.pi  # objective at the regular 4-gon

# second, non-global local minimum of the objective on the 4-gon simplex
# (opposite-equal family; six entries tie there; located by bisecting the
# entry crossing, confirmed by directional probes)
LOCAL_MIN_POINT = (0.322235687437787, 0.177764312562213, 0.322235687437787, 0.177764312562213)
LOCAL_MIN_VALUE = 0.107411895812596


# --- objective -----------------------------------------------------------------


def test_objective_regular_four():
    assert minimax_objective(SimplexPoint((0.25,) * 4)) == pytest.approx(M_STAR, abs=1e-13)


def test_objective_symmetric_start_above_regular():
    assert minimax_objective(SimplexPoint((0.3, 0.2, 0.3, 0.2))) > M_STAR


def test_objective_dihedral_invariance(rng):
    rows = sample_simplex(4, 20, rng)
    for row in rows:
        base = minimax_objective(SimplexPoint(tuple(row)))
        for shift in range(1, 4):
            rolled = minimax_objective(SimplexPoint(tuple(np.roll(row, shift))))
            assert rolled == base
        reverse = minimax_objective(SimplexPoint(tuple(row[::-1])))
        assert abs(reverse - base) < 1e-13


@pytest.mark.parametrize("n", range(3, 9))
def test_objective_is_bitwise_invariant_under_cyclic_shifts(n):
    # the lattice scan evaluates one point per rotation class on this
    rows = sample_simplex(n, 300, np.random.default_rng(100 + n))
    base = extremal._objective_batch(rows)
    for shift in range(1, n):
        assert np.array_equal(extremal._objective_batch(np.roll(rows, shift, axis=1)), base)


@pytest.mark.parametrize("n", range(3, 9))
def test_block_seams_leave_objective_and_spectra_unchanged(n):
    # past one kernel block, the last block is partial
    rows = sample_simplex(n, _block_rows(n) + 3, np.random.default_rng(7 * n))
    tables = angle_tables(rows)
    assert np.array_equal(extremal._objective_batch(rows), np.fmax.reduce(tables, axis=(1, 2)))
    spectra = np.concatenate([block for _, block in extremal._spectra(rows)])
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(spectra, np.sort(tables[:, off], axis=1)[:, ::-1])


def test_objective_matches_matrix_maximum(rng):
    row = sample_simplex(5, 1, rng)[0]
    table_max = float(np.nanmax(inverted_angle_matrix(IdealPolygon(tuple(row))).table))
    assert minimax_objective(SimplexPoint(tuple(row))) == pytest.approx(table_max, abs=1e-15)


def test_simplex_point_validation():
    with pytest.raises(DomainError):
        SimplexPoint((0.5, 0.25, 0.25))
    with pytest.raises(DomainError):
        SimplexPoint((0.3, 0.3, 0.3))


# --- sampling -------------------------------------------------------------------


def test_sample_simplex_domain_and_determinism():
    a = sample_simplex(4, 200, np.random.default_rng(7))
    b = sample_simplex(4, 200, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert a.max() < 0.5
    assert a.min() > 0.0


@pytest.mark.parametrize("floor", [ALPHA_MIN, 0.01, 0.05], ids=["clamp", "0.01", "0.05"])
@pytest.mark.parametrize("n", range(3, 9))
def test_sample_simplex_rows_are_polygons(n, floor):
    # the suites grow and tabulate these rows without checking them again
    for row in sample_simplex(n, 500, np.random.default_rng(n), floor):
        IdealPolygon(tuple(row))


def test_sample_simplex_floor():
    rows = sample_simplex(3, 100, np.random.default_rng(1), floor=0.1)
    assert rows.min() > 0.1


def test_sample_simplex_floor_near_one_over_n_returns():
    # plain rejection keeps about 1e-14 of the draws at this floor and would
    # never return, so the draw runs in a child process with a timeout
    code = (
        "import numpy as np; from hypergon.extremal import sample_simplex; "
        "print(sample_simplex(3, 4, np.random.default_rng(0), floor=0.3333333).tolist())"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    rows = np.array(ast.literal_eval(child.stdout))
    assert rows.shape == (4, 3)
    assert rows.min() > 0.3333333
    for row in rows:
        IdealPolygon(tuple(row))  # in the clamp, summing to 1


def test_sample_simplex_rejects_bad_args():
    with pytest.raises(DomainError):
        sample_simplex(2, 10, np.random.default_rng(0))
    with pytest.raises(DomainError):
        sample_simplex(4, 10, np.random.default_rng(0), floor=0.3)


# --- grid scan ------------------------------------------------------------------


def test_grid_scan_finds_regular_four():
    report = grid_scan(4, 1.0 / 100.0)
    assert report.best_point == (0.25, 0.25, 0.25, 0.25)
    assert report.best_value == pytest.approx(M_STAR, abs=1e-13)
    assert report.detail["isolation_margin"] > 0.0
    assert report.detail["margin_to_regular"] == 0.0
    assert report.passed


@pytest.mark.parametrize("n,total", [(3, 9), (3, 12), (4, 10), (4, 15), (5, 12), (5, 17), (4, 100)])
def test_lattice_rows_match_a_brute_force_in_lexicographic_order(n, total):
    # lattice order fixes the reported minimizer on ties and the dump's rows
    m_max = (total - 1) // 2
    got = np.concatenate(list(extremal._lattice_rows(n, total, m_max)))
    want = [
        (*head, total - sum(head))
        for head in itertools.product(range(1, m_max + 1), repeat=n - 1)
        if 1 <= total - sum(head) <= m_max
    ]
    assert got.tolist() == [list(map(float, row)) for row in want]


@pytest.mark.parametrize("n,total", [(3, 9), (3, 12), (4, 10), (4, 15), (5, 12), (5, 17), (6, 13), (7, 14)])
def test_lattice_classes_match_a_brute_force(n, total):
    # one row per rotation class, the class's first member in lattice order
    m_max = (total - 1) // 2
    lattice = [row for row in itertools.product(range(1, m_max + 1), repeat=n) if sum(row) == total]
    rotations = {row: {row[k:] + row[:k] for k in range(n)} for row in lattice}
    firsts = [row for row in lattice if row == min(rotations[row])]
    blocks = list(extremal._lattice_classes(n, total, m_max))
    assert np.concatenate([rows for rows, _ in blocks]).tolist() == [list(map(float, row)) for row in firsts]
    sizes = np.concatenate([sizes for _, sizes in blocks]).tolist()
    assert sizes == [len(rotations[row]) for row in firsts]
    assert sum(sizes) == len(lattice)


GRID_CASES = [(3, 9), (3, 10), (3, 100), (4, 12), (4, 30), (4, 150), (5, 15), (5, 17), (6, 18), (6, 20)]


@pytest.mark.parametrize(
    "n,total,dump",
    [pytest.param(n, total, dump, id=f"{n}-{total}" + "-dump" * dump) for dump in (False, True) for n, total in GRID_CASES],
)
def test_grid_scan_matches_the_whole_lattice_bit_for_bit(monkeypatch, tmp_path, n, total, dump):
    # totals n divides put the regular point in a class of one; at n = 4 and
    # totals 30 and 150 the best class has two members, so the second-best
    # value equals the best.  The dump writes every row and changes no field.
    monkeypatch.setattr(extremal, "MAX_GRID_STEP", 1.0)
    rows = np.concatenate(list(extremal._lattice_rows(n, total, (total - 1) // 2))) / total
    values = extremal._objective_batch(rows)
    best, second = (float(v) for v in np.sort(values)[:2])
    regular = minimax_objective(IdealPolygon.regular(n))
    path = tmp_path / "grid.csv"
    report = grid_scan(n, 1.0 / total, dump_path=str(path) if dump else None)
    assert report.size == len(rows)
    assert report.best_point == tuple(rows[np.argmin(values)].tolist())
    assert report.best_value == best
    assert report.detail == {
        "step": 1.0 / total,
        "second_best_value": second,
        "isolation_margin": second - best,
        "regular_value": regular,
        "margin_to_regular": best - regular,
    }
    assert path.exists() == dump
    if dump:
        header = ",".join(f"alpha_{k + 1}" for k in range(n)) + ",objective"
        lines = [",".join(map(repr, row)) for row in np.column_stack([rows, values]).tolist()]
        assert path.read_text() == "\n".join([header, *lines]) + "\n"


@pytest.mark.parametrize("n,total", [(4, 12), (4, 100), (5, 15), (6, 18)])
def test_grid_scan_does_not_rely_on_the_order_of_its_classes(monkeypatch, n, total):
    # the all-equal class of one comes first when the blocks are reversed, so
    # a merge that only updated the second value on a new best reported inf
    classes = extremal._lattice_classes
    monkeypatch.setattr(extremal, "_lattice_classes", lambda *args: reversed(list(classes(*args))))
    monkeypatch.setattr(extremal, "MAX_GRID_STEP", 1.0)
    rows = np.concatenate(list(extremal._lattice_rows(n, total, (total - 1) // 2))) / total
    best, second = (float(v) for v in np.sort(extremal._objective_batch(rows))[:2])
    report = grid_scan(n, 1.0 / total)
    assert (report.size, report.best_value, report.detail["second_best_value"]) == (len(rows), best, second)


def test_grid_scan_lattice_count_matches_brute_force():
    report = grid_scan(3, 1.0 / 100.0)
    total = 100
    m_max = (total - 1) // 2
    brute = sum(
        1
        for m1, m2 in itertools.product(range(1, m_max + 1), repeat=2)
        if 1 <= total - m1 - m2 <= m_max
    )
    assert report.size == brute


def test_grid_scan_near_regular_for_three(rng):
    # 1/3 is off-lattice at step 1/100; the best point straddles it
    report = grid_scan(3, 1.0 / 100.0)
    assert max(abs(a - 1 / 3) for a in report.best_point) <= 0.01
    assert report.detail["margin_to_regular"] >= 0.0


@pytest.mark.parametrize("step", [1.0 / 3.0, 0.02, 1.0 / 99.0])
def test_grid_scan_rejects_coarse_steps(step):
    with pytest.raises(DomainError, match="too coarse"):
        grid_scan(4, step)


@pytest.mark.parametrize("step", ["0.01", b"0.01", None, True, math.nan, 0.0, -0.01, 5e-324])
def test_grid_scan_rejects_a_step_that_is_not_a_positive_number(step):
    # text used to raise a bare TypeError, and a subnormal step overflowed 1 / step
    with pytest.raises(DomainError, match="grid step must be positive"):
        grid_scan(4, step)


def test_grid_scan_opens_an_empty_dump_path_before_the_scan(monkeypatch):
    # an empty path used to read as no path: the scan ran and nothing was written
    monkeypatch.setattr(extremal, "_lattice_classes", None)
    with pytest.raises(FileNotFoundError):
        grid_scan(3, 0.01, dump_path="")


def test_grid_scan_rejects_non_divisor_step():
    with pytest.raises(DomainError):
        grid_scan(4, 1.0 / 100.5)


def test_grid_scan_rejects_bad_n():
    with pytest.raises(DomainError):
        grid_scan(9, 1.0 / 100.0)
    with pytest.raises(DomainError, match="integer"):
        grid_scan(4.0, 1.0 / 100.0)


# --- refinement -----------------------------------------------------------------


def test_refine_from_documented_start():
    point, value = refine_minimum(SimplexPoint((0.3, 0.2, 0.3, 0.2)), 1e-10)
    assert max(abs(a - 0.25) for a in point.angles) < 1e-6
    assert value == pytest.approx(M_STAR, abs=1e-9)


def test_refine_from_regular_stays():
    point, value = refine_minimum(SimplexPoint((0.25,) * 4), 1e-10)
    assert point.angles == (0.25, 0.25, 0.25, 0.25)
    assert value == pytest.approx(M_STAR, abs=1e-13)


def test_refine_improves_on_best_grid_point():
    report = grid_scan(4, 1.0 / 100.0)
    point, value = refine_minimum(SimplexPoint(report.best_point), 1e-10)
    assert value <= report.best_value + 1e-12
    assert max(abs(a - 0.25) for a in point.angles) < 1e-5


def test_refine_at_its_cap_raises_with_the_best_point(monkeypatch):
    monkeypatch.setattr(extremal, "_REFINE_MAX_ITER", 5)
    start = SimplexPoint((0.3, 0.2, 0.3, 0.2))
    with pytest.raises(ConvergenceError, match="iteration cap") as info:
        refine_minimum(start, 1e-10)
    best = info.value.best_point
    assert isinstance(best, IdealPolygon) and best.n == 4
    assert math.isfinite(info.value.best_value)
    assert info.value.best_value <= minimax_objective(start)


def test_refine_rejects_tiny_tolerance():
    # NaN compares false against the floor and infinity passes it; text and
    # None are not numbers, True is a bool, not a tolerance of 1, and 10**400
    # is past the largest float
    for tol in (1e-13, math.nan, math.inf, "a", None, True, 10**400):
        with pytest.raises(DomainError, match="tolerance"):
            refine_minimum(SimplexPoint((0.25,) * 4), tol)


def test_refine_accepts_numpy_tolerance():
    start = SimplexPoint((0.28, 0.22, 0.27, 0.23))
    p1, v1 = refine_minimum(start, np.float64(1e-10))
    p2, v2 = refine_minimum(start, 1e-10)
    assert p1.angles == p2.angles and v1 == v2


def test_refine_is_deterministic():
    p1, v1 = refine_minimum(SimplexPoint((0.28, 0.22, 0.27, 0.23)), 1e-10)
    p2, v2 = refine_minimum(SimplexPoint((0.28, 0.22, 0.27, 0.23)), 1e-10)
    assert p1.angles == p2.angles
    assert v1 == v2


def _scipy_refine(start, seen):
    """refine_minimum written out on scipy's Nelder-Mead and ``angle_tables``.

    Returns the refined angles, their value and each descent's ``nfev``;
    every evaluation is appended to ``seen`` as ``(y, value, penalized)``.
    """
    from scipy.optimize import minimize

    lo, hi = ALPHA_MIN, 0.5 - ALPHA_MIN

    def objective(y):
        a = np.append(y, 1.0 - y.sum())
        excess = np.sum(np.maximum(lo - a, 0.0) + np.maximum(a - hi, 0.0))
        if excess > 0.0:
            a = np.clip(a, lo, hi)
            a = a / a.sum()
            value = float(np.nanmax(angle_tables(a[None, :]))) + 10.0 * float(excess)
        else:
            value = float(np.nanmax(angle_tables(a[None, :])))
        seen.append((y.copy(), value, excess > 0.0))
        return value

    options = {"xatol": 1e-9, "fatol": 1e-10, "maxiter": 4000, "maxfev": 4000}
    best_y = np.asarray(start[:-1])
    best_val = objective(best_y)
    nfevs = []
    for _ in range(4):
        res = minimize(objective, best_y, method="Nelder-Mead", options=options)
        nfevs.append(res.nfev)
        improved = best_val - res.fun
        if res.fun < best_val:
            best_val, best_y = float(res.fun), res.x
        if res.success and improved < 1e-10:
            break
    assert res.success
    angles = np.clip(np.append(best_y, 1.0 - best_y.sum()), lo, hi)
    angles = np.clip(angles / angles.sum(), lo, hi)
    return tuple(float(a) for a in angles), float(np.nanmax(angle_tables(angles[None, :]))), nfevs


def test_refine_matches_scipy_on_the_plain_objective_bit_for_bit(monkeypatch):
    # the first start's simplex leaves the domain, so the penalty runs too;
    # mixed starts follow, one draw from each of two seeds per side count
    starts = [(0.3, 0.3, 0.39, 0.01)]
    starts += [tuple(sample_simplex(n, 1, np.random.default_rng(seed))[0]) for n in range(3, 7) for seed in (1, 2)]
    # from 5 vertices on ties can rank in more than one order, so reach n = 8
    starts += [tuple(sample_simplex(n, 1, np.random.default_rng(1))[0]) for n in (7, 8)]
    objectives, nfevs = [], []
    minimize = extremal.minimize

    def spy(fun, x0, **kwargs):
        objectives.append(lambda y: fun(y[None, :])[0])
        res = minimize(fun, x0, **kwargs)
        nfevs.append(res.nfev)
        return res

    monkeypatch.setattr(extremal, "minimize", spy)
    penalized = []
    for start in starts:
        seen = []
        want_angles, want_value, want_nfevs = _scipy_refine(start, seen)
        del objectives[:], nfevs[:]
        point, value = refine_minimum(SimplexPoint(start), 1e-10)
        assert point.angles == want_angles, start
        assert value == want_value, start
        assert nfevs == want_nfevs, start
        # Nelder-Mead only ranks values, so compare every evaluation as well
        assert all(objectives[0](y) == v for y, v, _ in seen), start
        penalized.append(any(p for _, _, p in seen))
    assert penalized[0]


@pytest.mark.parametrize("n", range(3, 9))
def test_objective_values_do_not_depend_on_the_batch(n, monkeypatch):
    # minimize evaluates its trial points in one call, so each point must get
    # the value it gets alone, in the kernel and in refine_minimum's objective
    class Captured(Exception):
        pass

    def capture(fun, x0, **kwargs):
        raise Captured(fun)

    monkeypatch.setattr(extremal, "minimize", capture)
    with pytest.raises(Captured) as caught:
        refine_minimum(SimplexPoint((1.0 / n,) * n), 1e-10)
    objective = caught.value.args[0]

    rng = np.random.default_rng(60 + n)
    points = sample_simplex(n, 3 * (n + 1), rng)[:, :-1]
    points[1::3, 0] = -0.01  # the first angle below the clamp
    points[2::3, 0] = 0.6  # the first angle past 1/2
    rows = np.column_stack([points, 1.0 - points.sum(axis=1)])
    outside = (rows.min(axis=1) < ALPHA_MIN) | (rows.max(axis=1) > 0.5 - ALPHA_MIN)
    assert outside.sum() == 2 * (n + 1)
    # the kernel also sees the clamped rows the penalty path hands it
    clamped = np.clip(rows[outside], ALPHA_MIN, 0.5 - ALPHA_MIN)
    rows[outside] = clamped / clamped.sum(axis=1, keepdims=True)
    for fun, batch in ((objective, points), (extremal._objective_batch, rows)):
        alone = np.concatenate([fun(batch[i : i + 1]) for i in range(len(batch))])
        for size in range(2, n + 2):
            for i in range(len(batch) - size + 1):
                assert fun(batch[i : i + size]).tobytes() == alone[i : i + size].tobytes(), (size, i)


def _rosenbrock(x):
    # with (1 - x_i)^2 on every coordinate, so that one dimension is not flat
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2) + np.sum((1.0 - x) ** 2))


def _kinked(x):
    return float(np.max(np.abs(x - 0.3)))


def _stairs(x):
    # flat steps make contractions fail, so the simplex shrinks from about
    # the 20th call on (never on the two objectives above)
    return float(np.floor(8.0 * np.sum((x - 0.3) ** 2)))


def _rows(objective):
    """``objective`` over the rows of a (k, N) array, as ``extremal.minimize`` calls it."""
    return lambda points: np.array([objective(x) for x in points])


@pytest.mark.parametrize("objective", [_rosenbrock, _kinked, _stairs])
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_minimize_matches_scipy_nelder_mead_at_every_cap(objective, dim):
    # a cap can fall between the vertices of the first simplex or partway
    # through a shrink; both engines must stop at the same call
    from scipy.optimize import minimize

    starts = [np.array([0.0, -1.2, 1.0, 0.5, 2.0][:dim]), np.array([1.7, 0.0, -0.4, 0.0, 0.9][:dim])]
    for x0 in starts:
        for maxfev in [*range(1, 41), 100, 4000]:
            got = extremal.minimize(_rows(objective), x0, fatol=1e-10, maxfev=maxfev)
            for maxiter in (maxfev, 4000):
                options = {"xatol": 1e-9, "fatol": 1e-10, "maxiter": maxiter, "maxfev": maxfev}
                want = minimize(objective, x0, method="Nelder-Mead", options=options)
                case = (list(x0), maxfev, maxiter)
                assert got.x.tobytes() == want.x.tobytes(), case
                assert got.fun == want.fun, case
                assert got.nfev == want.nfev, case
                assert got.success == want.success, case


def test_minimize_matches_scipy_nelder_mead_on_nan_values():
    # with 17 vertices numpy's argsort can reorder NaN values that are
    # already ranked, so the second ranking of the first simplex matters
    from scipy.optimize import minimize

    def objective(x):
        return float(np.sum((x - 0.3) ** 2)) if np.sum(x) <= 16.01 else math.nan

    x0 = np.ones(16)  # every vertex but the first is NaN
    for maxfev in (20, 100, 400, 4000):
        options = {"xatol": 1e-9, "fatol": 1e-10, "maxiter": 4000, "maxfev": maxfev}
        want = minimize(objective, x0, method="Nelder-Mead", options=options)
        got = extremal.minimize(_rows(objective), x0, fatol=1e-10, maxfev=maxfev)
        assert got.x.tobytes() == want.x.tobytes(), maxfev
        assert np.array_equal(got.fun, want.fun, equal_nan=True), maxfev
        assert (got.nfev, got.success) == (want.nfev, want.success), maxfev


def test_refine_finds_second_basin():
    # the objective has a genuine non-global local minimum on the
    # opposite-equal family; descent from inside that basin stays there
    point, value = refine_minimum(SimplexPoint((0.34, 0.16, 0.34, 0.16)), 1e-10)
    assert max(abs(a - b) for a, b in zip(point.angles, LOCAL_MIN_POINT)) < 1e-5
    assert value == pytest.approx(LOCAL_MIN_VALUE, abs=1e-8)
    assert value > M_STAR + 4e-3


@pytest.mark.parametrize(
    "n,a_star,f_star,regular,ties",
    [
        (4, 0.177764312562, 0.1074118958126, 0.10241638234957, 6),
        (6, 0.0903842367393, 0.0570744288089, 0.0605188591618, 12),
        (8, 0.0616370815221, 0.0392182148531, 0.0436732966935, 16),
    ],
    ids=["n4", "n6", "n8"],
)
def test_alternating_family_minimum_at_40_digits(n, a_star, f_star, regular, ties):
    # f(a) is the objective at (a, 2/n - a) repeated n/2 times; f is unimodal
    # on [0.4/n, 0.76/n], so golden-section search finds its kink minimum.
    # At n = 4 that is the second basin, above the regular value; at n = 6
    # and 8 it beats the regular polygon, so the regular n-gon is not the
    # minimizer there; 2n entries tie at those minimizers, six at n = 4
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40

    def table(a):
        return replay_table(mpmath, [a, mp.mpf(2) / n - a] * (n // 2)).values()

    def f(a):
        return max(table(a))

    lo, hi = mp.mpf(0.4) / n, mp.mpf(0.76) / n
    g = (mp.sqrt(5) - 1) / 2
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-13:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = f(x2)
    a = (lo + hi) / 2
    value = f(a)
    assert abs(a - a_star) < 1e-9
    assert abs(value - f_star) < 1e-12 * f_star
    assert sum(value - e < 1e-9 for e in table(a)) == ties
    point = IdealPolygon([float(a), float(mp.mpf(2) / n - a)] * (n // 2))
    assert abs(minimax_objective(point) - value) < 1e-12 * value
    if n == 4:
        assert value > regular
    else:
        assert value < regular - 3e-3


def test_refine_returns_a_valid_polygon_from_a_vanishing_side():
    # start 11 of this draw descends onto the face where side 1 vanishes, at
    # the 4-gon's second basin; normalizing the clamped end point used to
    # leave side 1 just below ALPHA_MIN
    start = sample_simplex(5, 30, np.random.default_rng(3))[11]
    point, value = refine_minimum(IdealPolygon(start), 1e-10)
    assert point.angles[0] == ALPHA_MIN
    assert value == pytest.approx(LOCAL_MIN_VALUE, abs=1e-8)


# --- majorization scan ------------------------------------------------------------


def test_majorization_scan_triangles_never_violate():
    # the regular triangle's spectrum is uniform, which every equal-total
    # spectrum majorizes
    report = majorization_scan(3, 500, seed=11)
    assert report.passed
    assert report.evidence
    assert report.detail["min_prefix_margin"] >= -1e-12


def test_majorization_scan_four_gons_find_counterexamples():
    # genuine finding: near-regular 4-gons fail prefix-8 dominance, so the
    # scan records violations rather than evidence for the conjecture
    report = majorization_scan(4, 500, seed=42)
    assert not report.passed
    assert report.evidence
    first = report.violations[0]
    assert first.observed["sample_prefix"] < first.observed["regular_prefix"] - 1e-12


def test_majorization_scan_regular_input_is_reflexive():
    spec = decreasing_rearrangement(inverted_angle_matrix(IdealPolygon.regular(4)).values())
    assert majorizes(spec, spec)


def test_majorization_scan_totals():
    report = majorization_scan(5, 100, seed=3)
    assert report.size == 100  # every sample processed; totals tile the circle


# --- property suites ---------------------------------------------------------------


def test_suite_names_cover_the_registry():
    assert set(suite_names()) == {
        "lemma31",
        "lemma32i",
        "lemma32ii",
        "lemma32iii",
        "lemma33",
        "lemma34",
        "lemma41",
        "lemma42",
        "thm52",
        "conj51",
        "conj52",
    }


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seeded_scans_reject_a_seed_numpy_cannot_take(seed):
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        majorization_scan(4, 10, seed=seed)
    for name in ("lemma31", "lemma32ii"):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            property_suite(name, 10, seed)


def test_property_suite_rejects_unknown():
    with pytest.raises(UnknownSuiteError):
        property_suite("nosuch", 10, 0)


@pytest.mark.parametrize(
    "name",
    ["lemma31", "lemma32i", "lemma32ii", "lemma32iii", "lemma33", "lemma34", "lemma41", "lemma42", "thm52", "conj51"],
)
def test_suites_pass_at_small_scale(name):
    report = property_suite(name, samples=300, seed=42)
    assert report.passed, report.violations[:3]


def test_conjecture_majorization_suite_reports_findings():
    report = property_suite("conj52", samples=300, seed=42)
    assert report.evidence
    assert not report.passed  # the known counterexamples


def test_suite_reports_are_deterministic():
    r1 = property_suite("lemma32ii", samples=200, seed=9)
    r2 = property_suite("lemma32ii", samples=200, seed=9)
    assert r1.size == r2.size
    assert r1.violations == r2.violations
    assert r1.detail == r2.detail


def test_suite_sizes():
    assert property_suite("lemma31", 5, 0).size == 10  # n = 3..12
    assert property_suite("lemma33", 5, 0).size == 11  # (3,1),(3,2),(4..12,1)
    assert property_suite("thm52", 50, 0).size == 56  # 6 regular cases + samples


@pytest.mark.parametrize("name", sorted(suite_names()))
def test_evidence_flag_follows_the_suite_id(name):
    assert property_suite(name, samples=20, seed=1).evidence == name.startswith("conj")


@pytest.mark.parametrize(
    "name,pairs,relation",
    [
        ("lemma41", [(1, 4), (2, 3)], "equal adjacent sides force ent(1,4)=ent(4,1), ent(2,3)=ent(3,2)"),
        ("lemma42", [(1, 3), (2, 4)], "equal opposite sides force ent(1,3)=ent(3,1), ent(2,4)=ent(4,2)"),
    ],
)
def test_pair_symmetry_suites_record_asymmetric_entries(monkeypatch, name, pairs, relation):
    # no sample has ever broken these lemmas, so plant asymmetries: one in
    # the second pair of row 1, and one in each pair of row 3, where the first
    # pair's ent(k,j) moves instead; a 5e-13 bump on row 0 stays inside the
    # equality tolerance.  Row-major order puts (1, pair 2) before row 3.
    (j1, k1), (j2, k2) = [(j - 1, k - 1) for j, k in pairs]
    seen = {}

    def planted(rows):
        t = angle_tables(rows).copy()
        t[0, j1, k1] += 5e-13
        t[1, j2, k2] += 1e-6
        t[3, k1, j1] += 2e-6
        t[3, j2, k2] -= 3e-6
        seen["rows"], seen["tables"] = rows, t
        return t

    monkeypatch.setattr(extremal, "angle_tables", planted)
    report = property_suite(name, samples=5, seed=4)
    rows, t = seen["rows"], seen["tables"]
    expected = [(1, j2, k2), (3, j1, k1), (3, j2, k2)]
    assert [(v.case, v.input["j"] - 1, v.input["k"] - 1) for v in report.violations] == expected
    for v, (i, j, k) in zip(report.violations, expected):
        assert v.input["angles"] == [float(a) for a in rows[i]]
        assert v.relation == relation
        assert v.observed == {"ent_jk": float(t[i, j, k]), "ent_kj": float(t[i, k, j])}
        assert v.observed["ent_jk"] != v.observed["ent_kj"]


@pytest.mark.parametrize(
    "name,pairs,relation",
    [
        ("lemma32ii", [(1, 2), (2, 3)], "adjacent sides: ent(k,l) < ent(l,k) when alpha_k < alpha_l"),
        ("lemma32iii", [(1, 3), (2, 4)], "non-adjacent sides: ent(k,l) < ent(l,k) when alpha_k < alpha_l"),
    ],
)
def test_side_monotone_suites_record_inverted_entries(monkeypatch, name, pairs, relation):
    # no sample has ever broken Lemma 3.2, so plant breaks in the first side
    # count drawn at least twice: in the second pair of its first row, and in
    # both pairs of its second row, where the first pair's entries tie
    # exactly.  Row-major order puts (row 0, pair 2) before (row 1, pair 1).
    samples, seed, n_lo = 12, 4, 3 if name == "lemma32ii" else 4
    ns = np.random.default_rng(seed).integers(n_lo, 9, size=samples)
    n = next(m for m in range(n_lo, 9) if np.count_nonzero(ns == m) >= 2)
    cases = np.nonzero(ns == n)[0]
    breaks = [(0, pairs[1], 1e-6), (1, pairs[0], 0.0), (1, pairs[1], 2e-6)]
    seen = {}

    def shorter_first(row, p, q):
        return (p - 1, q - 1) if row[p - 1] < row[q - 1] else (q - 1, p - 1)

    def planted(rows):
        t = angle_tables(rows).copy()
        if rows.shape[1] == n:
            for i, (p, q), bump in breaks:
                k, l = shorter_first(rows[i], p, q)
                t[i, k, l] = t[i, l, k] + bump
            seen["rows"], seen["tables"] = rows, t
        return t

    monkeypatch.setattr(extremal, "angle_tables", planted)
    report = property_suite(name, samples=samples, seed=seed)
    rows, t = seen["rows"], seen["tables"]
    expected = [(i, *shorter_first(rows[i], p, q)) for i, (p, q), _ in breaks]
    got = [(v.case, v.input["k"] - 1, v.input["l"] - 1) for v in report.violations]
    assert got == [(int(cases[i]), k, l) for i, k, l in expected]
    for v, (i, k, l) in zip(report.violations, expected):
        assert v.input["angles"] == [float(a) for a in rows[i]]
        assert v.relation == relation
        assert v.observed == {"ent_kl": float(t[i, k, l]), "ent_lk": float(t[i, l, k])}
        assert rows[i, k] < rows[i, l]
        assert v.observed["ent_kl"] >= v.observed["ent_lk"]


# n = 8 spans four kernel blocks of 128 rows; n = 4 fits in one of 512
@pytest.mark.parametrize("n", [4, 8])
def test_majorization_scan_matches_a_written_out_reference(n):
    samples, seed = 500, 42
    rows = sample_simplex(n, samples, np.random.default_rng(seed))
    off = ~np.eye(n, dtype=bool)
    spectra = np.sort(angle_tables(rows)[:, off], axis=1)[:, ::-1]
    regular = np.sort(angle_tables(np.full((1, n), 1.0 / n))[0][off])[::-1]
    prefixes = np.cumsum(spectra, axis=1)
    reg_prefix = np.cumsum(regular)
    margins = prefixes - reg_prefix
    expected = []
    for i in range(samples):
        if np.any(margins[i] < -MAJORIZATION_SLACK):
            k = int(np.argmin(margins[i]))
            expected.append(
                {
                    "case": i,
                    "input": {"angles": [float(a) for a in rows[i]]},
                    "relation": "prefix sums dominate the regular spectrum",
                    "observed": {
                        "prefix_index": k + 1,
                        "sample_prefix": float(prefixes[i, k]),
                        "regular_prefix": float(reg_prefix[k]),
                    },
                }
            )
    report = majorization_scan(n, samples, seed=seed)
    assert expected  # the known prefix-2n counterexamples
    assert [v.as_dict() for v in report.violations] == expected
    assert report.detail == {"n": n, "min_prefix_margin": float(margins.min())}


def test_conj52_numbers_each_violation_by_its_draw():
    # mixed-n suites draw every side count first, then the angle vectors of
    # each count in turn; a violation carries the index of its own draw
    samples, seed = 300, 42
    rng = np.random.default_rng(seed)
    ns = rng.integers(3, 9, size=samples)
    drawn = {}
    for n in range(3, 9):
        cases = np.nonzero(ns == n)[0]
        for case, row in zip(cases, sample_simplex(n, cases.size, rng)):
            drawn[int(case)] = [float(a) for a in row]
    report = property_suite("conj52", samples=samples, seed=seed)
    assert len(report.violations) > 1
    for v in report.violations:
        assert v.input["angles"] == drawn[v.case]


# --- planted records -----------------------------------------------------------
#
# No sample has ever broken these suites, so each test below plants failures
# through one module-level name and checks every record: case, input,
# relation, observed, their Python types, and their order.


def _types(value):
    """The Python types of a record, element by element."""
    if isinstance(value, dict):
        return {key: _types(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_types(v) for v in value]
    return type(value)


def _assert_records(report, expected):
    got = [v.as_dict() for v in report.violations]
    assert got == expected
    assert _types(got) == _types(expected)


def _record(case, inputs, relation, observed):
    return {"case": case, "input": inputs, "relation": relation, "observed": observed}


def _drawn(samples, seed, floor=ALPHA_MIN):
    """``(n, cases, rows)`` per side count, drawn as the mixed-n suites draw them."""
    rng = np.random.default_rng(seed)
    ns = rng.integers(3, 9, size=samples)
    out = []
    for n in range(3, 9):
        cases = np.nonzero(ns == n)[0]
        if cases.size:
            out.append((n, cases, sample_simplex(n, cases.size, rng, floor)))
    return out


def test_lemma31_records_planted_row_breaks(monkeypatch):
    # (n, row, distance, how): a tie, an entry dropped below the next one,
    # an entry raised above the previous one, and a tie in the last case
    breaks = [(5, 1, 1, "tie"), (8, 4, 2, "drop"), (8, 8, 3, "raise"), (12, 1, 1, "tie")]
    tables = {}

    def planted(rows):
        t = angle_tables(rows).copy()
        n = rows.shape[1]
        for m, j, d, how in breaks:
            if m == n:
                near, far = (j - 1, (j - 1 + d) % n), (j - 1, (j + d) % n)
                if how == "tie":
                    t[0][near] = t[0][far]
                elif how == "drop":
                    t[0][near] = t[0][far] - 1e-3
                else:
                    t[0][far] = t[0][near] + 1e-3
        tables[n] = t[0]
        return t

    monkeypatch.setattr(extremal, "angle_tables", planted)
    report = property_suite("lemma31", samples=5, seed=0)
    expected = []
    for n, j, d, _ in breaks:
        t = tables[n]
        observed = {"nearer": float(t[j - 1, (j - 1 + d) % n]), "farther": float(t[j - 1, (j + d) % n])}
        relation = "row entries decrease with side distance"
        expected.append(_record(n - 3, {"n": n, "row": j, "distance": d}, relation, observed))
    _assert_records(report, expected)


def test_lemma32i_records_planted_image_orders(monkeypatch):
    # the second image of case 4 ties the first; that of case 11 passes it
    calls = []

    def planted(beta, a, alpha):
        x = invert_fractions(beta, a, alpha).copy()
        if calls:
            x[4] = calls[0][1][4]
            x[11] = calls[0][1][11] + 0.25
        calls.append((beta, x, alpha))
        return x

    monkeypatch.setattr(extremal, "invert_fractions", planted)
    report = property_suite("lemma32i", samples=20, seed=3)
    (b1, x1, alphas), (b2, x2, _) = calls
    relation = "x(beta_1) > x(beta_2) on the complementary arc"
    expected = [
        _record(
            i,
            {"alpha": float(alphas[i]), "beta_1": float(b1[i]), "beta_2": float(b2[i])},
            relation,
            {"x_1": float(x1[i]), "x_2": float(x2[i])},
        )
        for i in (4, 11)
    ]
    _assert_records(report, expected)


def test_lemma33_records_planted_regularity(monkeypatch):
    # the regular triangle's body (case 0) reads non-regular, and the
    # regular hexagon's (case 4) reads regular
    calls = []

    def planted(angles):
        got = is_regular(angles)
        flip = len(calls) in (0, 4)
        calls.append(angles)
        return (not got) if flip else got

    monkeypatch.setattr(extremal, "is_regular", planted)
    report = property_suite("lemma33", samples=5, seed=0)
    relation = "body regularity matches the regular-seed law"
    expected = [
        _record(0, {"n": 3, "generations": 1}, relation, {"expected_regular": True, "observed_regular": False}),
        _record(4, {"n": 6, "generations": 1}, relation, {"expected_regular": False, "observed_regular": True}),
    ]
    _assert_records(report, expected)


def test_lemma34_records_planted_regular_bodies(monkeypatch):
    # each side count asks the row-wise check three times: for its seeds,
    # then for their bodies at s = 1 and at s = 2.  Plant regular bodies for
    # seeds 0 (s = 1), 1 (s = 2), 2 (both) and 4 (s = 2) of the first count
    # and for the last seed of the last count (s = 2); seed 3 reads regular
    # itself, so its planted bodies must be skipped.
    samples, seed = 30, 3
    drawn = _drawn(samples, seed, floor=0.05)
    assert len(drawn[0][1]) >= 5 and drawn[-1][0] > drawn[0][0]
    planted_rows = {(0, 0): [3], (0, 1): [0, 2, 3], (0, 2): [1, 2, 3, 4], (len(drawn) - 1, 2): [-1]}
    shapes = [(len(cases), n * (n - 1) ** s) for n, cases, _ in drawn for s in range(3)]
    calls = []

    def planted(rows, tol=REGULARITY_TOL):
        regular = _regular_rows(rows, tol)
        regular[planted_rows.get(divmod(len(calls), 3), [])] = True
        calls.append((len(rows), math.prod(rows.shape[1:])))
        return regular

    monkeypatch.setattr(extremal, "_regular_rows", planted)
    report = property_suite("lemma34", samples=samples, seed=seed)
    assert calls == shapes
    relation = "non-regular seed grows a non-regular body"
    (_, cases, rows), (_, last_cases, last_rows) = drawn[0], drawn[-1]
    hits = [(cases, rows, 0, 1), (cases, rows, 1, 2), (cases, rows, 2, 1), (cases, rows, 2, 2)]
    hits += [(cases, rows, 4, 2), (last_cases, last_rows, -1, 2)]
    expected = [
        _record(
            int(c[i]),
            {"angles": [float(a) for a in r[i]], "generations": s},
            relation,
            {"observed_regular": True},
        )
        for c, r, i, s in hits
    ]
    _assert_records(report, expected)
    assert int(cases[3]) not in [v.case for v in report.violations]


@pytest.mark.parametrize("tol", [REGULARITY_TOL, 0.05], ids=["default", "loose"])
def test_lemma34_verdicts_match_grow_body_seed_by_seed(monkeypatch, tol):
    # at the loose tolerance some seeds read regular and are skipped, and
    # some bodies of the others read regular at s = 1, at s = 2 or at both
    samples, seed = 300, 8
    expected, skipped = [], 0
    for _, cases, rows in _drawn(samples, seed, floor=0.05):
        for case, row in zip(cases, rows):
            if is_regular(row, tol):
                skipped += 1
                continue
            poly = IdealPolygon(tuple(row))
            expected += [(int(case), s) for s in (1, 2) if is_regular(grow_body(poly, s).boundary_angles, tol)]
    monkeypatch.setattr(extremal, "_regular_rows", lambda rows, _=None: _regular_rows(rows, tol))
    report = property_suite("lemma34", samples=samples, seed=seed)
    assert [(v.case, v.input["generations"]) for v in report.violations] == expected
    if tol == REGULARITY_TOL:
        assert expected == [] and skipped == 0
    else:
        assert {1, 2} <= {s for _, s in expected} and len(expected) < 2 * samples and skipped > 0


def test_thm52_records_planted_bounds(monkeypatch):
    # the first six calls are the regular cases (n = 3..8): the 5-gon's
    # bound moves by 1e-9; then each drawn side count asks once, and the
    # 4-gons and 6-gons get bounds some of their areas exceed
    samples, seed = 40, 3
    low = {4: 0.7, 6: 1.0}
    calls = []

    def planted(n):
        calls.append(n)
        bound = area_upper_bound(n)
        if len(calls) <= 6:
            return bound + 1e-9 if n == 5 else bound
        return low.get(n, bound)

    monkeypatch.setattr(extremal, "area_upper_bound", planted)
    report = property_suite("thm52", samples=samples, seed=seed)
    slack = abs(area_upper_bound(5) + 1e-9 - euclidean_area([0.2] * 5))
    expected = [_record(2, {"n": 5, "angles": "regular"}, "bound is attained at the regular polygon", {"slack": slack})]
    for n, cases, rows in _drawn(samples, seed):
        if n in low:
            areas = np.sum(side_region_area(rows), axis=1)
            bad = np.nonzero(areas > low[n] + extremal.FINDING_SLACK)[0]
            assert 0 < bad.size < cases.size
            expected += [
                _record(
                    6 + int(cases[i]),
                    {"angles": [float(a) for a in rows[i]]},
                    "euclidean area <= upper bound",
                    {"area": float(areas[i]), "bound": low[n]},
                )
                for i in bad
            ]
    _assert_records(report, expected)
    assert report.detail == {"max_regular_slack": slack}


def test_grid_scan_records_a_lattice_point_below_the_regular_value(monkeypatch):
    # raise the regular value so that the lattice minimum beats it
    regular = minimax_objective(IdealPolygon.regular(3)) + 0.01

    def planted(poly):
        return regular

    monkeypatch.setattr(extremal, "minimax_objective", planted)
    report = grid_scan(3, 1.0 / 100.0)
    expected = [
        _record(
            0,
            {"angles": [0.33, 0.33, 0.34]},
            "lattice objective >= regular objective",
            {"lattice": report.best_value, "regular": regular},
        )
    ]
    assert report.best_point == (0.33, 0.33, 0.34)
    assert type(report.best_value) is float
    _assert_records(report, expected)
