"""Time trish's start-up and its first commands, each in a new process.

Each command runs --repeats times, and the script prints one JSON object:
for `import trish.cli`, for each `trish verify --theorem N --seeds 2000`,
for `trish stats` on the bundled training set, for a five-seed `trish run`
on the bundled train and test sets and for `trish tune` on the
criterion-10 safeguarded grid, the median wall time in seconds and the
largest peak RSS (the child's own ru_maxrss, from os.wait4) in MB, plus
the sum of the five verify medians.  The last three are a fresh process's
first LIBSVM commands, so they include the parse of the bundled data.

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
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "trish" / "data"
# The criterion-10 safeguarded grid; gamma2 follows gamma1 at the tune command's ratio.
TUNE_CONFIG = f"""method = trish
problem = logistic
dataset = {DATA / "train.libsvm"}
test_dataset = {DATA / "test.libsvm"}
epochs = 1
n_seeds = 5
tune_gamma1 = 2, 4, 8, 16
tune_alpha = 0.1, 0.25, 0.5, 1, 2
tune_batch_size = 5, 10, 20
"""


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
    commands["stats"] = ["-m", "trish.cli", "stats", "--dataset", str(DATA / "train.libsvm")]
    commands["run"] = ["-m", "trish.cli", "run", "--dataset", str(DATA / "train.libsvm"),
                       "--test-dataset", str(DATA / "test.libsvm"), "--method", "trish",
                       "--gamma1", "2", "--gamma2", "0.8", "--alpha", "0.5", "--seeds", "5"]
    report = {"python": sys.version.split()[0], "repeats": args.repeats}
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "tune.conf"
        config.write_text(TUNE_CONFIG, encoding="utf-8")
        commands["tune"] = ["-m", "trish.cli", "tune", "--config", str(config)]
        for name, command in commands.items():
            runs = [run_once([sys.executable, *command], env) for _ in range(args.repeats)]
            report[name] = {"median_s": round(statistics.median(s for s, _ in runs), 4),
                            "peak_rss_mb": round(max(mb for _, mb in runs), 1)}
    report["verify_total_s"] = round(sum(report[f"verify_{t}"]["median_s"] for t in "12345"), 4)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
