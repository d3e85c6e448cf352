"""run_experiment against an independent, per-seed and per-step reference.

The reference reads the LIBSVM text itself into dense rows, steps one seed
at a time with its own default_rng(base_seed + i), one integers(0, n, b)
call per step, computes each gradient, sigmoid and loss with the math
module, and picks the safeguard's branch with an explicit if.  It shares
no code with the engine: not the parser, the draw chunks, the mini-batch
gather, the step kernel, the margin kernel or the checkpoint rule.
Seeds, iterations and case counts must match exactly; losses and
accuracies, whose sums run in another order, within 1e-12 relative.
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest

from trish.harness import ExperimentConfig, run_experiment

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "trish" / "data"
TRAIN = str(DATA_DIR / "train.libsvm")
TEST = str(DATA_DIR / "test.libsvm")


@functools.cache
def _dense(path: str) -> tuple[list[list[float]], list[float]]:
    """Dense rows over the columns both bundled splits span, and labels
    mapped onto -1/+1."""
    lines = {p: Path(p).read_text(encoding="utf-8").splitlines() for p in (TRAIN, TEST)}
    width = max(int(pair.split(":")[0]) for text in lines.values() for line in text
                for pair in line.split()[1:])
    rows, labels = [], []
    for line in lines[path]:
        label, *pairs = line.split()
        row = [0.0] * width
        for pair in pairs:
            index, value = pair.split(":")
            row[int(index) - 1] = float(value)
        rows.append(row)
        labels.append(1.0 if float(label) > 0.0 else -1.0)
    return rows, labels


def _dot(row: list[float], w: list[float]) -> float:
    return sum(z * v for z, v in zip(row, w))


def _sigmoid(t: float) -> float:
    return 1.0 / (1.0 + math.exp(-t)) if t > -700.0 else 0.0


def _metrics(rows, labels, w) -> tuple[float, float]:
    """Mean logistic loss log(1 + exp(-y z.w)) and the share of y z.w > 0."""
    loss = correct = 0.0
    for row, y in zip(rows, labels):
        t = -y * _dot(row, w)
        loss += t + math.log1p(math.exp(-t)) if t > 0.0 else math.log1p(math.exp(t))
        correct += t < 0.0  # y z.w > 0
    return loss / len(rows), correct / len(rows)


def reference_run(config: ExperimentConfig) -> list[tuple]:
    """Each seed's records as (seed, fraction, iteration, train_loss, train_acc,
    test_loss, test_acc, case1, case2, case3), seed by seed, on the bundled data."""
    (train, train_y), (test, test_y) = _dense(TRAIN), _dense(TEST)
    width = len(train[0])
    n, b = len(train), config.batch_size
    total = -(-n // b) * config.epochs
    checkpoints = {}
    for fraction in config.checkpoint_fractions:
        checkpoints.setdefault(max(1, math.ceil(fraction * total)), fraction)
    records = []
    for i in range(config.n_seeds):
        rng = np.random.default_rng(config.base_seed + i)
        w, cases = [0.0] * width, [0, 0, 0]
        for k in range(1, max(checkpoints) + 1):
            g = [0.0] * width
            for j in rng.integers(0, n, size=b).tolist():
                y = train_y[j]
                coeff = -y * _sigmoid(-y * _dot(train[j], w)) / b
                g = [gi + coeff * z for gi, z in zip(g, train[j])]
            if config.alpha is not None:
                alpha = config.alpha
            else:
                alpha = config.schedule_a / (config.schedule_b + k)
            norm = math.sqrt(sum(gi * gi for gi in g))
            if config.method == "sg":
                scale = alpha
            elif norm < 1.0 / config.gamma1:
                scale = config.gamma1 * alpha
                cases[0] += 1
            elif norm <= 1.0 / config.gamma2:
                scale = alpha / norm
                cases[1] += 1
            else:
                scale = config.gamma2 * alpha
                cases[2] += 1
            w = [wi - scale * gi for wi, gi in zip(w, g)]
            if k in checkpoints:
                records.append((
                    config.base_seed + i, checkpoints[k], k,
                    *_metrics(train, train_y, w), *_metrics(test, test_y, w), *cases,
                ))
    return records


_CONFIGS = [
    dict(method=method, batch_size=batch, **stepsize)
    for method in ("trish", "sg")
    for stepsize in (dict(alpha=0.5), dict(schedule_a=5.0, schedule_b=10.0))
    for batch in (5, 20)
]


@pytest.mark.parametrize(
    "fields", _CONFIGS, ids=lambda f: "-".join(f"{k}={v}" for k, v in f.items())
)
def test_run_matches_the_reference(fields):
    config = ExperimentConfig(
        problem="logistic", dataset=TRAIN, test_dataset=TEST, gamma1=2.0, gamma2=0.8,
        n_seeds=2, base_seed=7, checkpoint_fractions=(0.25, 0.5, 1.0), **fields,
    )
    want = reference_run(config)
    if config.method == "trish":
        assert min(want[-1][7:]) > 0  # every branch fires
    got = [
        (r.seed, r.checkpoint_fraction, r.iteration, r.train_loss, r.train_acc, r.test_loss,
         r.test_acc, r.case1, r.case2, r.case3)
        for r in run_experiment(config).records
    ]
    assert [r[:3] + r[7:] for r in got] == [r[:3] + r[7:] for r in want]
    np.testing.assert_allclose([r[3:7] for r in got], [r[3:7] for r in want], rtol=1e-12, atol=0)
