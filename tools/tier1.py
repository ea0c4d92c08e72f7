"""Run the Tier-1 test suite and check it fails exactly as expected.

    python3 tools/tier1.py [extra pytest arguments]

Runs ``python -m pytest -q --continue-on-collection-errors`` from the root
of the checkout with ``src/`` on ``PYTHONPATH``, writing a JUnit XML report
to a temporary directory.  Two tests fail on purpose, because each asserts a
real finding: criterion 3's multi-start clause meets a second basin, and
criterion 8 meets genuine counterexamples.  The exit status is 0 only when
the failed or errored tests are exactly those two and no test is skipped;
any other failure, a collection error, one of the two passing, or a skipped
test (the 40-digit oracle tests skip when mpmath is missing, which would
leave the precision claims unchecked) exits 1, naming each such test.  The
result line ends with the wall time of the pytest run, in seconds, and the
line count of ``src/hypergon/*.py`` (what ``cat src/hypergon/*.py | wc -l``
prints), the size of the library.  CI reads only the exit status.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FAILURES = {
    "test_criterion_3_minimax_grid_and_refinement",
    "test_criterion_8_conjecture_evidence",
}


def marked_tests(report: Path, *marks: str) -> set[str]:
    """Names of the test cases a JUnit XML report marks with any of ``marks``."""
    names = set()
    for case in ET.parse(report).getroot().iter("testcase"):
        if any(case.find(mark) is not None for mark in marks):
            names.add(case.get("name"))
    return names


def src_lines() -> int:
    """Newlines in ``src/hypergon/*.py``, which is what ``wc -l`` counts."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "hypergon").glob("*.py"))


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        cmd = [
            sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            f"--junitxml={report}", *argv,
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env)
        summary = f"pytest wall {time.perf_counter() - t0:.1f} s; src {src_lines():,} lines"
        if not report.exists():
            print(f"tier1: pytest wrote no report (exit {proc.returncode}); {summary}", file=sys.stderr)
            return 1
        failed = marked_tests(report, "failure", "error")
        skipped = marked_tests(report, "skipped")
    if failed == EXPECTED_FAILURES and not skipped:
        print(f"tier1: OK, only the two expected failures and no skipped test; {summary}")
        return 0
    for name in sorted(failed - EXPECTED_FAILURES):
        print(f"tier1: unexpected failure: {name}", file=sys.stderr)
    for name in sorted(EXPECTED_FAILURES - failed):
        print(f"tier1: expected failure did not fail: {name}", file=sys.stderr)
    for name in sorted(skipped):
        print(f"tier1: skipped: {name}", file=sys.stderr)
    print(f"tier1: FAILED; {summary}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
