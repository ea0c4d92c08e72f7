"""Set-up cost in a fresh interpreter; prints one JSON object.

    python3 perfbench/setup_child.py ROOT WORKLOAD WORKDIR
        import_s: ``import hypergon`` from ROOT/src
        setup_s:  that import plus the workload's warm-up call
    python3 perfbench/setup_child.py ROOT scipy
        import_scipy_optimize_s: ``import scipy.optimize`` after numpy,
        the share of the package import that a lazy import would save
"""

import json
import os
import sys
import time

import warmup


def main() -> None:
    root, what = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    if what == "scipy":
        import numpy  # noqa: F401  (loaded first, as the package does)

        start = time.perf_counter()
        import scipy.optimize  # noqa: F401

        print(json.dumps({"import_scipy_optimize_s": time.perf_counter() - start}))
        return
    start = time.perf_counter()
    import hypergon  # noqa: F401

    imported = time.perf_counter()
    warmup.warm_up(what, sys.argv[3])
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))


if __name__ == "__main__":
    main()
