"""Time load_libsvm on generated wide LIBSVM files of growing size.

For each row count, perfbench/gen_wide.py writes a file under a fresh
temporary directory, and a new Python process loads it once with
trish.ingest.load_libsvm.  Each size prints one row: the file's rows
and MB, the load's seconds, lines/s and MB/s, and the peak RSS
(ru_maxrss) of the process that loaded it.  The file is deleted before
the next size is written.  trish imports scipy.sparse on first use, so
the child imports it before its timer starts: the seconds are the
parse's, not the import's.

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
sys.path.insert(0, str(ROOT / "perfbench"))

import gen_wide  # noqa: E402

SEED = 1  # gen_wide's seed for every size

# Run in a new process, so that its peak RSS is the load's alone.
_CHILD = """
import json, resource, sys, time
import scipy.sparse
from trish.ingest import load_libsvm
start = time.perf_counter()
data, _ = load_libsvm(sys.argv[1])
seconds = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"rows": len(data), "seconds": seconds, "peak_rss_mb": peak_kb / 1024}))
"""


def load_once(path: str) -> dict:
    """Rows, seconds and peak RSS of one load_libsvm(path) in a new process."""
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, path], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(child.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[100_000, 300_000, 1_000_000])
    args = parser.parse_args(argv)
    print(f"{'rows':>9} {'MB':>8} {'seconds':>8} {'lines/s':>9} {'MB/s':>6} {'peak_rss_mb':>11}")
    with tempfile.TemporaryDirectory(prefix="ingest-scaling-") as tmp:
        for rows in args.rows:
            path = os.path.join(tmp, f"wide-{rows}.libsvm")
            gen_wide.generate(path, rows, SEED)
            mb = os.path.getsize(path) / 1e6
            load = load_once(path)
            os.remove(path)
            if load["rows"] != rows:
                raise SystemExit(f"loaded {load['rows']} rows of {rows}")
            seconds = load["seconds"]
            print(
                f"{rows:>9} {mb:>8.1f} {seconds:>8.3f} {rows / seconds:>9.0f} "
                f"{mb / seconds:>6.1f} {load['peak_rss_mb']:>11.1f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
