"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  Two
criteria encode expectations that the numerical landscape refutes; they are
asserted faithfully and fail with the witnesses printed:

* criterion 3's multi-start clause: the minimax objective has a second,
  non-global local minimum near (0.3222, 0.1778, 0.3222, 0.1778), so
  uniform-simplex descent starts do not all reach the regular point;
* criterion 8: 4-gon spectra generically fail prefix-8 dominance against
  the regular spectrum (the failure index is 2n for every tested n), and
  for n >= 6 some seeds grow strictly larger first-generation bodies than
  the regular seed, e.g. the alternating hexagon
  (0.206755, 0.126578, ...) with area excess +3.7e-3.
"""

import json
import math
import time

import numpy as np
import pytest

from hypergon.cli import main, render_svg
from hypergon.disk_geometry import invert_fractions
from hypergon.extremal import (
    SimplexPoint,
    grid_scan,
    majorization_scan,
    property_suite,
    refine_minimum,
    sample_simplex,
)
from hypergon.measures import area_upper_bound, hyperbolic_area_ideal, hyperbolic_area_quadrature, side_region_area
from hypergon.polygon import IdealPolygon, angle_tables, grow_body, is_regular

M_STAR = 0.102416382  # 1/4 - atan(1/2)/pi, rounded as asserted


def _line(cid: str, ok: bool, msg: str) -> None:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {msg}")


def test_criterion_1_inversion_oracle_equivalence():
    """Formula vs Euclidean oracle and involution, 1e5 pairs, 1e-12, <10s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    count = 100_000
    a = rng.uniform(0.0, 1.0, count)
    alpha = rng.uniform(0.02, 0.48, count)  # conditioning-safe side widths
    beta = rng.uniform(0.0, 1.0, count)

    x = invert_fractions(beta, a, alpha)

    # independent Euclidean oracle, vectorized
    half = np.pi * alpha
    sec = 1.0 / np.cos(half)
    rho = np.tan(half)
    mid = 2.0 * np.pi * (a + 0.5 * alpha)
    cx, cy = sec * np.cos(mid), sec * np.sin(mid)
    px, py = np.cos(2 * np.pi * beta), np.sin(2 * np.pi * beta)
    dx, dy = px - cx, py - cy
    scale = rho * rho / (dx * dx + dy * dy)
    qx, qy = cx + scale * dx, cy + scale * dy
    x_oracle = (np.arctan2(qy, qx) / (2.0 * np.pi)) % 1.0

    gap = np.abs(x - x_oracle) % 1.0
    gap = np.minimum(gap, 1.0 - gap)
    worst_oracle = float(gap.max())

    back = invert_fractions(x, a, alpha)
    gap2 = np.abs(back - beta) % 1.0
    gap2 = np.minimum(gap2, 1.0 - gap2)
    worst_involution = float(gap2.max())

    elapsed = time.perf_counter() - t0
    ok = worst_oracle < 1e-12 and worst_involution < 1e-12 and elapsed < 10.0
    _line(
        "1",
        ok,
        f"oracle gap {worst_oracle:.2e}, involution gap {worst_involution:.2e}, {elapsed:.1f}s",
    )
    assert worst_oracle < 1e-12
    assert worst_involution < 1e-12
    assert elapsed < 10.0


def test_criterion_2_regular_triangle_hexagon():
    """D3 at s=1 is the regular hexagon; deeper and larger seeds break it."""
    body = grow_body(IdealPolygon.regular(3), 1)
    hex_dev = float(np.max(np.abs(body.boundary_angles - 1.0 / 6.0)))
    deeper = not is_regular(grow_body(IdealPolygon.regular(3), 2).boundary_angles, 1e-9)
    larger = all(
        not is_regular(grow_body(IdealPolygon.regular(n), 1).boundary_angles, 1e-9)
        for n in range(4, 13)
    )
    ok = hex_dev <= 1e-12 and deeper and larger
    _line("2", ok, f"hexagon deviation {hex_dev:.2e}, s=2 breaks: {deeper}, n=4..12 break: {larger}")
    assert hex_dev <= 1e-12
    assert deeper
    assert larger


def test_criterion_3_minimax_grid_and_refinement():
    """Grid 1/200 isolates the regular 4-gon; seeded multi-start descent.

    The multi-start clause fails: descent is local and the objective has a
    second basin (local minimum 0.10741190 at the opposite-equal family).
    """
    t0 = time.perf_counter()
    report = grid_scan(4, 1.0 / 200.0)
    at_regular = report.best_point == (0.25, 0.25, 0.25, 0.25)
    value_ok = abs(report.best_value - M_STAR) <= 1e-9
    isolated = report.detail["isolation_margin"] > 0.0

    rng = np.random.default_rng(42)
    starts = sample_simplex(4, 100, rng)
    distances = []
    for row in starts:
        point, _ = refine_minimum(SimplexPoint(tuple(row)), 1e-10)
        distances.append(max(abs(v - 0.25) for v in point.angles))
    strayed = [i for i, d in enumerate(distances) if d > 1e-5]
    all_converge = not strayed
    elapsed = time.perf_counter() - t0

    ok = at_regular and value_ok and isolated and all_converge and elapsed < 300.0
    _line(
        "3",
        ok,
        f"lattice min at regular: {at_regular}, value {report.best_value:.9f}, "
        f"isolation {report.detail['isolation_margin']:.2e}, "
        f"stray starts {len(strayed)}/100 (second basin), {elapsed:.0f}s",
    )
    if strayed:
        i = strayed[0]
        point, value = refine_minimum(SimplexPoint(tuple(starts[i])), 1e-10)
        print(
            f"  witness: start {list(np.round(starts[i], 6))} descends to "
            f"{list(np.round(point.angles, 6))} with objective {value:.9f} > {M_STAR}"
        )
    assert at_regular
    assert value_ok
    assert isolated
    assert elapsed < 300.0
    assert all_converge, (
        f"{len(strayed)} of 100 starts descend into the non-global basin near "
        "(0.3222, 0.1778, 0.3222, 0.1778); local descent cannot certify uniqueness"
    )


@pytest.mark.parametrize("suite", ["lemma31", "lemma32i", "lemma32ii", "lemma32iii"])
def test_criterion_4_monotonicity_suites(suite):
    """Row decay and pairwise monotonicity: zero violations, <1 min each."""
    t0 = time.perf_counter()
    report = property_suite(suite, samples=100_000, seed=4242)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 60.0
    _line(f"4[{suite}]", ok, f"{report.size} cases, {len(report.violations)} violations, {elapsed:.1f}s")
    assert report.passed, report.violations[:3]
    assert elapsed < 60.0


def test_criterion_5_area_bound():
    """1e5 random vectors respect the bound; equality exactly at regular."""
    rng = np.random.default_rng(505)
    worst_slack = math.inf
    min_nonregular_slack = math.inf
    for n in range(3, 9):
        per = 100_000 // 6 + 1
        rows = sample_simplex(n, per, rng)
        areas = np.sum(side_region_area(rows), axis=1)
        slack = area_upper_bound(n) - areas
        worst_slack = min(worst_slack, float(slack.min()))
        min_nonregular_slack = min(min_nonregular_slack, float(slack.min()))
    regular_ok = all(
        abs(area_upper_bound(n) - float(np.sum(side_region_area(np.full(n, 1.0 / n))))) <= 1e-12
        for n in range(3, 9)
    )
    bound4_ok = abs(area_upper_bound(4) - (4.0 - math.pi)) < 1e-14
    ok = worst_slack >= -1e-12 and min_nonregular_slack > 1e-12 and regular_ok and bound4_ok
    _line(
        "5",
        ok,
        f"worst slack {worst_slack:.2e}, regular tight: {regular_ok}, bound(4)=4-pi: {bound4_ok}",
    )
    assert worst_slack >= -1e-12
    assert min_nonregular_slack > 1e-12  # strict off the regular point
    assert regular_ok
    assert bound4_ok


def test_criterion_6_row_sums_and_body_laws():
    """Row sums tile sides (1e4 polygons); body laws for s<=4, n<=5."""
    rng = np.random.default_rng(606)
    worst_row = 0.0
    for n in range(3, 9):
        rows = sample_simplex(n, 10_000 // 6 + 1, rng)
        tables = angle_tables(rows)
        sums = np.nansum(tables, axis=2)
        worst_row = max(worst_row, float(np.max(np.abs(sums - rows))))
    rows_ok = worst_row < 1e-12

    # bodies: angles floored at 0.12 keep four generations above the
    # arc-separation guard
    laws_ok = True
    checked = 0
    worst_sum = 0.0
    for i in range(10_000):
        n = 3 + i % 3
        s = (i // 3) % 5
        angles = sample_simplex(n, 1, rng, floor=0.12)[0]
        body = grow_body(IdealPolygon(tuple(angles)), s)
        checked += 1
        if len(body.boundary_angles) != n * (n - 1) ** s:
            laws_ok = False
            break
        dev = abs(float(body.boundary_angles.sum()) - 1.0)
        worst_sum = max(worst_sum, dev)
        if dev > 1e-9 or body.boundary_angles.max() >= 0.5:
            laws_ok = False
            break
    ok = rows_ok and laws_ok
    _line(
        "6",
        ok,
        f"worst row-sum dev {worst_row:.2e}; {checked} bodies, worst angle-sum dev {worst_sum:.2e}",
    )
    assert rows_ok
    assert laws_ok


def test_criterion_7_hyperbolic_area_constant():
    """Quadrature returns pi*(n-2)/4 within 1%, <1 min each."""
    rng = np.random.default_rng(707)
    cases = [
        IdealPolygon.regular(3),
        IdealPolygon.regular(4),
        IdealPolygon(tuple(sample_simplex(3, 1, rng, floor=0.05)[0])),
        IdealPolygon(tuple(sample_simplex(4, 1, rng, floor=0.05)[0])),
    ]
    worst_rel = 0.0
    slow = False
    for poly in cases:
        t0 = time.perf_counter()
        got = hyperbolic_area_quadrature(poly)
        dt = time.perf_counter() - t0
        target = hyperbolic_area_ideal(poly.n)
        worst_rel = max(worst_rel, abs(got - target) / target)
        slow = slow or dt >= 60.0
    ok = worst_rel < 0.01 and not slow
    _line("7", ok, f"worst relative error {worst_rel:.2e} over regular/random D3, D4")
    assert worst_rel < 0.01
    assert not slow


def test_criterion_8_conjecture_evidence():
    """Seeded evidence scans for area dominance and spectrum majorization.

    Both clauses fail with genuine counterexamples: majorization breaks
    generically at prefix 2n, and for n >= 6 some seeds grow strictly
    larger first-generation bodies than the regular one.  Witnesses are
    printed verbatim.
    """
    area_report = property_suite("conj51", samples=10_000, seed=8001)
    area_ok = area_report.passed

    maj_report = majorization_scan(4, 10_000, seed=42)
    maj_ok = maj_report.passed

    ok = area_ok and maj_ok
    _line(
        "8",
        ok,
        f"area-dominance violations {len(area_report.violations)}/10000, "
        f"majorization violations {len(maj_report.violations)}/10000",
    )
    for v in area_report.violations[:3]:
        print(f"  area witness: {json.dumps(v.as_dict())}")
    for v in maj_report.violations[:3]:
        print(f"  majorization witness: {json.dumps(v.as_dict())}")
    assert area_report.evidence and maj_report.evidence
    assert area_ok, (
        f"{len(area_report.violations)} of 10000 seeds grow first-generation "
        "bodies strictly larger than the regular seed's (n >= 6 counterexamples)"
    )
    assert maj_ok, (
        f"{len(maj_report.violations)} of 10000 spectra fail prefix dominance "
        "against the regular spectrum (counterexamples to the majorization claim)"
    )


def test_criterion_9_determinism(capsys, tmp_path):
    """Seeded commands and rendering are byte-identical across re-runs."""
    assert main(["check", "--suite", "conj51", "--samples", "500", "--seed", "99"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--suite", "conj51", "--samples", "500", "--seed", "99"]) == 0
    check_same = capsys.readouterr().out == first

    assert main(["extremal", "--n", "4", "--grid", "1/100", "--refine", "--starts", "2", "--seed", "3"]) == 0
    ex1 = capsys.readouterr().out
    assert main(["extremal", "--n", "4", "--grid", "1/100", "--refine", "--starts", "2", "--seed", "3"]) == 0
    extremal_same = capsys.readouterr().out == ex1

    body = grow_body(IdealPolygon((0.2, 0.3, 0.15, 0.35)), 2)
    svg_same = render_svg(body) == render_svg(body)

    src = tmp_path / "p.json"
    src.write_text(json.dumps({"n": 4, "angles": [0.2, 0.3, 0.15, 0.35], "rotation": 0.0}))
    out1, out2 = tmp_path / "f1.svg", tmp_path / "f2.svg"
    main(["grow", "--in", str(src), "--generations", "2", "--out", str(tmp_path / "b.json"), "--svg", str(out1)])
    main(["grow", "--in", str(src), "--generations", "2", "--out", str(tmp_path / "b.json"), "--svg", str(out2)])
    file_same = out1.read_bytes() == out2.read_bytes()

    ok = check_same and extremal_same and svg_same and file_same
    _line("9", ok, f"check: {check_same}, extremal: {extremal_same}, svg: {svg_same}, files: {file_same}")
    assert check_same
    assert extremal_same
    assert svg_same
    assert file_same
