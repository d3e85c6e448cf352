"""Time load_libsvm, and the sparse gather, on generated wide LIBSVM files.

For each row count, perfbench/gen_wide.py writes a file under a fresh
temporary directory, and a new Python process loads it once with
trish.ingest.load_libsvm.  Each size prints one row: the file's rows and
MB, the load's seconds, lines/s and MB/s, the peak RSS (ru_maxrss) of
the process that loaded it, read before anything else runs, the peak
RSS of the largest child that load_libsvm forked to parse a part of the
file (RUSAGE_CHILDREN; 0 when the file was parsed in one process), and
gather_us, the microseconds per sparse LogisticProblem.block_gradient
call on the loaded data at one point, one seed and a batch of 100 (the
mean of 1000 calls, timed in the same process after the load).  The file
is deleted before the next size is written.  The file is written by a
process of its own as well: on Linux a child's ru_maxrss starts at its
parent's peak, so a parent that held a generated file in memory would
report that peak as the load's.

    python scripts/ingest_scaling.py               # 1e5, 3e5 and 1e6 rows
    python scripts/ingest_scaling.py --rows 2000   # a quick check
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # gen_wide's seed for every size

_GENERATE = """
import sys, gen_wide
gen_wide.generate(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
"""

# Run in a new process, so that its peak RSS is the load's alone.
_LOAD = """
import json, resource, sys, time
import numpy as np
from trish import problems
from trish.ingest import load_libsvm
start = time.perf_counter()
data, _ = load_libsvm(sys.argv[1])
seconds = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
problems._DENSE_GATHER_BYTES = 0  # the sparse gather at every size, as from ~110 rows up
problem = problems.LogisticProblem(data)
W = np.zeros((1, data.width))
draws = np.random.default_rng(0).integers(len(data), size=(1000, 1, 100))
start = time.perf_counter()
for indices in draws:
    problem.block_gradient(indices, W)
gather_us = (time.perf_counter() - start) / len(draws) * 1e6
print(json.dumps({
    "rows": len(data), "seconds": seconds, "peak_rss_mb": peak_kb / 1024,
    "children_maxrss_mb": children_kb / 1024, "gather_us": gather_us,
}))
"""


def _python(code: str, *args: str) -> str:
    """The stdout of `code` run with `args` in a new process that sees src/ and perfbench/."""
    pythonpath = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    child = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return child.stdout


def load_once(path: str) -> dict:
    """Rows, seconds, peak RSS, children's peak RSS and gather_us of one
    load_libsvm(path) in a new process."""
    return json.loads(_python(_LOAD, path))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[100_000, 300_000, 1_000_000])
    args = parser.parse_args(argv)
    print(
        f"{'rows':>9} {'MB':>8} {'seconds':>8} {'lines/s':>9} {'MB/s':>6} {'peak_rss_mb':>11} "
        f"{'children_maxrss_mb':>18} {'gather_us':>9}"
    )
    with tempfile.TemporaryDirectory(prefix="ingest-scaling-") as tmp:
        for rows in args.rows:
            path = os.path.join(tmp, f"wide-{rows}.libsvm")
            _python(_GENERATE, path, str(rows), str(SEED))
            mb = os.path.getsize(path) / 1e6
            load = load_once(path)
            os.remove(path)
            if load["rows"] != rows:
                raise SystemExit(f"loaded {load['rows']} rows of {rows}")
            seconds = load["seconds"]
            print(
                f"{rows:>9} {mb:>8.1f} {seconds:>8.3f} {rows / seconds:>9.0f} "
                f"{mb / seconds:>6.1f} {load['peak_rss_mb']:>11.1f} "
                f"{load['children_maxrss_mb']:>18.1f} {load['gather_us']:>9.1f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
