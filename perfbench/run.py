"""Benchmark of the hypergon library and CLI.

    python3 perfbench/run.py --workload scan|refine|grow --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (why each exists is in BENCHMARK.json):

    scan    grid_scan(4, 1/200), then ``check`` lemma32iii and conj52 at
            1e5 samples and lemma34 at 2000 samples
    refine  ``extremal --n 4 --grid 1/100 --refine --starts 40``
    grow    ``grow`` of the regular triangle to s=17, the regular 8-gon to
            s=5 and (0.2, 0.3, 0.15, 0.35) to s=6, each followed by
            ``area --hyperbolic --cells 1000000``

One process runs one workload.  It first times ``import hypergon`` plus a
small warm-up call in fresh interpreters (``setup_s``, median of
SETUP_REPEATS), then repeats the workload's job, always on the same inputs
drawn from ``--seed``, for about ``--seconds`` seconds, checking every
output.  After timing, ``max_rel_err`` compares a probe of the outputs with
a 40-digit mpmath replay.

``wall_s`` is the time of one job with each of its operations at the
slowest of its timings in the run; ``refine`` times each refinement apart,
``grow`` its ``grow_body`` and ``body_to_doc`` calls.  On a shared host the
same work runs at a steady contended speed with passing faster spells; a
job median moves with how much of a run those spells cover, the slowest
timing of each short operation much less.

With ``--trace 1`` each job runs twice, untraced and then traced with the
same inputs, and the per-layer metrics come from the traced runs (see
tracing.py); ``trace.overhead_s`` is the median difference.  Spans are
written to ``.perfbench/``.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``; ``failed / attempted`` is the failure ratio.  The line before
it holds run information: versions, ``nproc``, load, and the SHA-256 and
size of every CLI stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
SCIPY_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Units of per-layer values that are timings; these are medians over the
# traced jobs.  Every other value is a count of work done and comes from
# the first traced job, so it repeats exactly for a seed.
TIME_UNITS = {"s", "ms", "us", "ns", "1/s"}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "refine", "grow"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child(*args: str) -> dict:
    """Run setup_child.py in a fresh interpreter and return its JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(ROOT), *args],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _machine() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a plain checkout; src_sha256 identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hypergon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def _slowest_each(job_ops: list[dict]) -> float:
    """Sum over a job's operations of the slowest timing of each."""
    return sum(max(ops.get(label, 0.0) for ops in job_ops) for label in job_ops[0])


def _measure(args, workdir: str, spec: dict):
    """Set-up, timed jobs and oracle for one workload; returns (result, info)."""
    setups = [_child(args.workload, workdir) for _ in range(SETUP_REPEATS)]

    import numpy as np

    import tracing
    import warmup
    import workloads

    warmup.warm_up(args.workload, workdir)
    workload = workloads.WORKLOADS[args.workload](workdir)
    ops = workloads.Ops()
    rng = np.random.default_rng(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    seed = int(rng.integers(2**31))
    job_seconds, job_ops, overheads, layers, spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        ops.begin_job()
        workload.job(ops, seed)
        job_seconds.append(ops.seconds)
        job_ops.append(ops.op_seconds)
        spent = ops.seconds
        if tracer:
            tracer.reset()
            tracer.install()
            ops.begin_job()
            try:
                workload.job(ops, seed)
            finally:
                tracer.uninstall()
            overheads.append(ops.seconds - job_seconds[-1])
            spent += ops.seconds
            layer = tracing.job_metrics(tracer.stats)
            layer["cli.stdout_bytes"] = ops.stdout_bytes
            layer["cli.file_bytes"] = ops.file_bytes
            layers.append(layer)
            spans.append([(name, t0 - start, t1 - start, parent) for name, t0, t1, parent in tracer.spans])
        if time.perf_counter() - start + spent > args.seconds:
            break
    if tracer:
        scipy_s = [_child("scipy")["import_scipy_optimize_s"] for _ in range(SCIPY_REPEATS)]
        values = {
            "setup.import_s": statistics.median(s["import_s"] for s in setups),
            "setup.import_scipy_optimize_s": statistics.median(scipy_s),
            "trace.overhead_s": statistics.median(overheads),
        }
        kind = "per_layer"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        for name in layers[0]:
            series = [layer[name] for layer in layers]
            values[name] = statistics.median(series) if units[name] in TIME_UNITS else series[0]
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"jobs": spans, "layers": layers}))
    else:
        values = {
            "wall_s": _slowest_each(job_ops),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_rel_err": workload.max_rel_err(),
        }
        kind = "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        metrics[metric["name"]] = {"value": float(values.pop(metric["name"])), "unit": metric["unit"]}
    if values:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "job_seconds": job_seconds,
        "op_seconds": job_ops,
        "fail_ratio": ops.failed / ops.attempted,
        "machine": _machine(),
        "outputs": ops.outputs,
    }
    return result, info


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "hypergon" / "__init__.py").is_file():
        print(f"error: no hypergon package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One workload process at a time; no BLAS threads beyond it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        result, info = _measure(args, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
