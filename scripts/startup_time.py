"""Time trish's start-up and the five verify commands, each in a new process.

Each command runs --repeats times, and the script prints one JSON object:
for `import trish.cli` and for each `trish verify --theorem N --seeds
2000`, the median wall time in seconds and the largest peak RSS (the
child's own ru_maxrss, from os.wait4) in MB, plus the sum of the five
verify medians.

    python scripts/startup_time.py               # 5 runs of each command
    python scripts/startup_time.py --repeats 11
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(argv: list[str], env: dict) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one child process."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {child.returncode}")
    return seconds, usage.ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    commands = {"import": ["-c", "import trish.cli"]}
    for theorem in "12345":
        commands[f"verify_{theorem}"] = ["-m", "trish.cli", "verify", "--theorem", theorem,
                                         "--seeds", "2000"]
    report = {"python": sys.version.split()[0], "repeats": args.repeats}
    for name, command in commands.items():
        runs = [run_once([sys.executable, *command], env) for _ in range(args.repeats)]
        report[name] = {"median_s": round(statistics.median(s for s, _ in runs), 4),
                        "peak_rss_mb": round(max(mb for _, mb in runs), 1)}
    report["verify_total_s"] = round(sum(report[f"verify_{t}"]["median_s"] for t in "12345"), 4)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
