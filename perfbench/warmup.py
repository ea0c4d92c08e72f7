"""One small call into each workload's entry points.

``setup_s`` times ``import hypergon`` plus this call in a fresh interpreter,
so work that a change moves out of the import into first calls (lazy
imports, caches) still shows.  The timed jobs run only after the same
call has been made in their own process.  This module imports nothing
beyond the standard library and the package, so it adds nothing to the
time it helps measure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os


def cli(argv) -> tuple[int, str]:
    """Run ``hypergon.cli.main`` in-process; returns (exit code, stdout)."""
    import hypergon.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hypergon.cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def write_polygon(path: str, angles, rotation: float = 0.0) -> None:
    with open(path, "w") as fh:
        json.dump({"n": len(angles), "angles": list(angles), "rotation": rotation}, fh)


def _expect(code: int, argv) -> None:
    if code != 0:
        raise RuntimeError(f"warm-up call {argv} exited with {code}")


def warm_up(workload: str, workdir: str) -> None:
    """The small first call for ``workload``; files go under ``workdir``."""
    import hypergon

    if workload == "scan":
        hypergon.grid_scan(3, 1.0 / 100.0)
        argv = ["check", "--suite", "lemma34", "--samples", 1, "--seed", 0]
        _expect(cli(argv)[0], argv)
    elif workload == "refine":
        argv = ["extremal", "--n", 3, "--grid", "1/100", "--refine", "--starts", 1, "--seed", 0]
        _expect(cli(argv)[0], argv)
    elif workload == "grow":
        poly = os.path.join(workdir, "warm-poly.json")
        write_polygon(poly, [0.25] * 4)
        for argv in (
            ["grow", "--in", poly, "--generations", 1, "--out", os.path.join(workdir, "warm-body.json")],
            ["area", "--in", poly, "--hyperbolic", "--cells", 10_000],
        ):
            _expect(cli(argv)[0], argv)
    else:
        raise ValueError(f"unknown workload '{workload}'")
