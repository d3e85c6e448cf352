"""Time the layers of a tune block: the margin kernel, one gradient, one step.

For each layout, the script times problems._margins over the split's
problems._slot_view, and the reference loop it replaced (one np.bincount
over the split's entries per row of W, binned by each entry's row),
at R = 1, 5 and 100 rows of W drawn at unit scale.  The layouts are the
bundled training split, a perfbench/gen_wide.py file of --rows rows
(written under a temporary directory and deleted after the load) and a
generated power-law layout: --rows // 10 rows of lognormal values whose
stored lengths are 1 + floor(Pareto(1.2)), capped at 5000.  Then it times
one LogisticProblem.block_gradient call on the bundled split at 5 seeds of
a batch of 10, for one point (as a run) and for 20 points (as on the
criterion-10 grids), and one core._trish_step_batch call on the 20-point
block.  Last come verify's layers at guarantee 5's 2000 x 1 block: one
core._trish_step_batch call, one step of its march (the gradient, the
stepsize, the noise draw and the step), and one chunk fill, the
standard_normal call that draws a chunk of harness._CHUNK_BYTES (16 steps
of the block) on the march's helper thread.  Each line prints the median
milliseconds per call over --repeats timed rounds.

    python scripts/kernel_timing.py                          # 40 000 gen_wide rows
    python scripts/kernel_timing.py --rows 2000 --repeats 1  # a quick check
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen_wide  # noqa: E402

from trish import harness, problems  # noqa: E402
from trish.core import _trish_step_batch  # noqa: E402
from trish.harness import verification_setup  # noqa: E402
from trish.ingest import LibsvmData, load_libsvm  # noqa: E402

SEED = 1  # every generated layout and draw
ROWS_OF_W = (1, 5, 100)


def reference_margins(W: np.ndarray, data: LibsvmData, rows: np.ndarray) -> np.ndarray:
    """The margins one row of W at a time, one np.bincount over the entries
    each, whose rows are rows."""
    margins = np.empty((len(W), len(data)))
    for w, out in zip(W, margins):
        out[:] = np.bincount(rows, data.values * np.take(w, data.indices), minlength=len(data))
    return margins


def power_law(rows: int) -> LibsvmData:
    """rows rows whose stored lengths follow 1 + floor(Pareto(1.2)), capped at 5000."""
    rng = np.random.default_rng(SEED)
    width = 5000
    lengths = np.minimum(1 + rng.pareto(1.2, rows).astype(np.int64), width)
    columns = [np.sort(rng.choice(width, size=n, replace=False)) for n in lengths.tolist()]
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    indices = np.concatenate(columns).astype(np.int32)
    return LibsvmData(np.ones(rows), indptr, indices, rng.lognormal(size=indices.size), width)


def ms_per_call(call, repeats: int) -> float:
    """Median milliseconds of call() over repeats rounds, after one untimed call."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=40_000, help="gen_wide rows")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    train, _ = load_libsvm(str(ROOT / "src" / "trish" / "data" / "train.libsvm"))
    with tempfile.TemporaryDirectory(prefix="kernel-timing-") as tmp:
        path = os.path.join(tmp, "wide.libsvm")
        gen_wide.generate(path, args.rows, SEED)
        wide, _ = load_libsvm(path)
    layouts = {"train": train, "gen_wide": wide, "power_law": power_law(max(1, args.rows // 10))}
    rng = np.random.default_rng(SEED)
    print(f"{'layer':<16} {'layout':<10} {'rows':>8} {'nnz':>9} {'R':>4} {'ms':>9}")
    for name, data in layouts.items():
        # each kernel's view of the split, built once, as LogisticProblem holds it
        view = problems._slot_view(data)
        rows = np.repeat(np.arange(len(data)), np.diff(data.indptr))
        kernels = {"margins": lambda W: problems._margins(W, view),
                   "reference_loop": lambda W: reference_margins(W, data, rows)}
        for R in ROWS_OF_W:
            W = rng.standard_normal((R, data.width))
            for layer, kernel in kernels.items():
                ms = ms_per_call(lambda: kernel(W), args.repeats)
                print(f"{layer:<16} {name:<10} {len(data):>8} {data.values.size:>9} {R:>4} "
                      f"{ms:>9.3f}", flush=True)
    labels = problems.normalize_binary_labels(train.labels)
    problem = problems.LogisticProblem(dataclasses.replace(train, labels=labels))
    seeds, batch, points = 5, 10, 20
    indices = rng.integers(0, len(train), size=(seeds, batch))
    X = 0.1 * rng.standard_normal((points * seeds, train.width))
    G = problem.block_gradient(indices, X)
    for layer, R, call in (
        ("block_gradient", seeds, lambda: problem.block_gradient(indices, X[:seeds])),
        ("block_gradient", points * seeds, lambda: problem.block_gradient(indices, X)),
        ("trish_step", points * seeds, lambda: _trish_step_batch(X, G, 0.5, 2.0, 0.8)),
    ):
        ms = ms_per_call(call, args.repeats)
        print(f"{layer:<16} {'train':<10} {len(train):>8} {train.values.size:>9} "
              f"{R:>4} {ms:>9.3f}", flush=True)
    setup = verification_setup(5)
    gammas = (setup.params.gamma1, setup.params.gamma2)
    X = np.full((setup.n_seeds, 1), setup.x1)
    G = setup.oracle.sample(setup.problem.gradient(X), 1, rng.standard_normal(X.shape),
                            setup.schedule.alpha(1))

    def march_step():
        # what verify's march does at each k: the gradient, alpha_k, the draw, the step
        grad = setup.problem.gradient(X)
        alpha_k = setup.schedule.alpha(2)
        G = setup.oracle.sample(grad, 2, rng.standard_normal(X.shape), alpha_k)
        return _trish_step_batch(X, G, alpha_k, *gammas)

    per_chunk = harness._CHUNK_BYTES // (8 * X.size)  # the steps of one verify chunk
    for layer, call in (
        ("trish_step", lambda: _trish_step_batch(X, G, setup.schedule.alpha(1), *gammas)),
        ("theta5_step", march_step),
        ("chunk_fill", lambda: rng.standard_normal((per_chunk, *X.shape))),
    ):
        ms = ms_per_call(call, args.repeats)
        print(f"{layer:<16} {'theta5':<10} {'-':>8} {'-':>9} {len(X):>4} {ms:>9.3f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
