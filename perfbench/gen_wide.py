"""Seeded wide LIBSVM file for the ingest-wide workload.

The value and label model is the one the bundled data was made with
(scripts/generate_bundled_dataset.py): positive lognormal(-0.5, 1.2)
feature values capped at 40 and rounded to four decimals, and labels
from a random linear model with unit Gaussian margin noise.  Rows are
wider and more numerous: 20000 features and 5 to 30 nonzeros per row.

The statistics are counted while the text is written, without the
package parser, so they are an independent reference for `trish stats`.
"""

from __future__ import annotations

import numpy as np

N_FEATURES = 20_000
MIN_NNZ = 5
MAX_NNZ = 30


def generate(path: str, rows: int, seed: int) -> dict:
    """Write `rows` examples to `path`; return count, max_index, nnz, label_balance."""
    rng = np.random.default_rng(seed)
    w_star = rng.normal(0.0, 1.0, size=N_FEATURES)
    max_index = 0
    nnz = 0
    positive = 0
    lines = []
    for _ in range(rows):
        k = int(rng.integers(MIN_NNZ, MAX_NNZ + 1))
        indices = np.sort(rng.choice(N_FEATURES, size=k, replace=False)) + 1
        values = np.round(np.minimum(rng.lognormal(-0.5, 1.2, size=k), 40.0), 4)
        values = np.maximum(values, 0.0001)
        margin = float(np.dot(w_star[indices - 1], values))
        label = 1 if margin + rng.normal(0.0, 1.0) > 0.0 else -1
        positive += label > 0
        nnz += k
        max_index = max(max_index, int(indices[-1]))
        pairs = " ".join(f"{i}:{v!r}" for i, v in zip(indices.tolist(), values.tolist()))
        lines.append(f"{label} {pairs}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return {
        "count": rows,
        "max_index": max_index,
        "nnz": nnz,
        "label_balance": positive / rows,
    }

