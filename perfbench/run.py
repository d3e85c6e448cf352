"""trishlib benchmark: one workload, one seed, one run of fixed length.

    python3 perfbench/run.py --workload logistic-tune --seed 0 --seconds 35 --trace 0

Run it from anywhere inside a checkout of the repository; it uses the
checkout's src/ and writes only under .bench_work/ at its root.

A run generates the workload's inputs from --seed, times set-up in
fresh processes, and then runs the workload in one more fresh process
(worker.py), which calls `trish.cli.main([...])` pass after pass for
--seconds and checks every output.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it reports the
per-layer metrics from a traced run in which the tracer wraps the calls
between trish modules from outside (tracing.py).

The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller report (environment, input sizes, every sample, errors) goes
to .bench_work/results/ and a summary to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"
SETUP_PROBES = 3  # before the workload, and as many again after it
PROBE_TIMEOUT_S = 60
RUN_LIMIT_S = 170  # the whole run, inputs and set-up included
BLAS_THREADS = 1  # pinned; at most nproc, and the workloads are not BLAS-bound

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def time_setup(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until trish is imported and ready."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), "--probe"],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    ) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = perf_counter() - start
        if line.strip() != "ready":
            proc.kill()
            raise BenchError(f"set-up probe did not become ready: {line!r}")
    return elapsed


def run_worker(env: dict, spec_path: Path, seconds: int, trace: int, timeout: float) -> dict:
    argv = [sys.executable, str(WORKER), "--spec", str(spec_path),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, capture_output=True, cwd=ROOT, env=env, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "trish").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def end_to_end(setup: list[float], worker: dict) -> tuple[dict, dict]:
    """Metric values and their sample counts from the untraced run.

    Pass times are expressed in reference-kernel units (see worker.py):
    both slow down together when other tenants load the host, so their
    ratio holds still where raw seconds swing by a fifth from run to run.
    """
    wall_ref = worker["wall_ref"]
    passes = len(worker["command_wall_s"])
    values = {
        "setup_s": statistics.median(setup),
        "wall_ref": wall_ref,
        "steps_per_ref": statistics.median(worker["steps_per_pass"]) / wall_ref,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    samples = {"setup_s": len(setup), "wall_ref": passes, "steps_per_ref": passes,
               "reference_kernel": len(worker["reference_samples_s"]), "peak_rss_mb": 1}
    return values, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    began = perf_counter()
    if args.seed < 0:
        raise BenchError(f"--seed must be non-negative, got {args.seed}")
    if not (ROOT / "src" / "trish" / "cli.py").is_file():
        raise BenchError(f"no trish sources under {ROOT / 'src'}; run inside a checkout")

    units = declared_metrics()[args.trace]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = WORKLOADS[args.workload].prepare(ROOT, work, args.seed)
    spec.update(workload=args.workload, seed=args.seed)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1), encoding="utf-8")

    env = child_env()
    # Probes on both sides of the workload see two different moments of
    # the host's load, which steadies their median.
    probes = 0 if args.trace else SETUP_PROBES
    setup = [time_setup(env) for _ in range(probes)]
    timeout = RUN_LIMIT_S - (perf_counter() - began) - probes * 2
    if timeout < args.seconds + 10:
        raise BenchError(f"{args.seconds} s runs do not fit in {RUN_LIMIT_S} s")
    worker = run_worker(env, spec_path, args.seconds, args.trace, timeout)
    setup += [time_setup(env) for _ in range(probes)]

    if args.trace:
        values, samples = worker["per_layer"], {"traced_passes": len(worker["traced_command_wall_s"])}
    else:
        values, samples = end_to_end(setup, worker)
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"no value for declared metrics {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "sizes": {**spec["sizes"], "steps_per_pass": worker["steps_per_pass"][0]},
        "metrics": metrics,
        "samples": samples,
        "failed_ops_ratio": worker["failed"] / worker["attempted"],
        "worker": worker,
        "setup_s": setup,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    for error in worker["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    shown = metrics if not args.trace else {k: metrics[k] for k in ("trace.overhead_ratio",)}
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(worker['command_wall_s'])} untraced passes, {samples}, "
        f"{worker['attempted']} commands, {worker['failed']} failed; "
        + ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in shown.items()),
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
