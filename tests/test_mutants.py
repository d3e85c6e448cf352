"""A mutation gate: wrong step rules must end `trish verify` with exit 4.

Each mutant replaces the step kernel that verify's march calls
(`trish.harness._trish_step_batch`) and keeps the kernel's branch masks,
so only the iterates go wrong.  The layer that catches each one, at the
default 2000 seeds:

- Case 3 normalized (a gradient above the band takes the normalized step
  alpha g/||g|| in place of the damped gamma2 alpha g): the bound check of
  guarantee 4, the running average of E||grad f||^2 under a fixed
  stepsize, which the undamped steps push above its bound (198 of 200
  points violate).  Guarantee 3 does not see it.
- Every step normalized (case 1 too, in place of gamma1 alpha g): the
  bound check of guarantee 3, the optimality gap under geometrically
  decaying noise, which stalls once small gradients stop taking
  amplified steps (93 of 100 points violate).

In `trish.core` itself both mutants, and two that no bound sees (gamma1
and gamma2 swapped, a normalized step 10% short: 0 violations on all five
guarantees), fail the exact step values of tests/test_core.py.  This gate
shows that `verify` reaches exit 4 through a real march.
"""

import numpy as np
import pytest

import trish.harness
from trish.cli import EXIT_VIOLATION, main
from trish.core import _trish_step_batch


def _normalizing(normalized_cases):
    """The step kernel with the normalized step taken in `normalized_cases`."""

    def step(X, G, alpha, gamma1, gamma2):
        X_next, case1, case3 = _trish_step_batch(X, G, alpha, gamma1, gamma2)
        norms = np.linalg.norm(G, axis=1, keepdims=True)
        normalized = X - np.reshape(alpha, (-1, 1)) * G / np.where(norms > 0.0, norms, 1.0)
        rows = np.isin(2 - case1 + case3, normalized_cases)
        X_next[rows] = normalized[rows]
        return X_next, case1, case3

    return step


@pytest.mark.parametrize(
    "normalized_cases, theorem",
    [((3,), "4"), ((1, 2, 3), "3")],
    ids=["case-3-normalized", "always-normalized"],
)
def test_mutant_step_exits_with_violations(normalized_cases, theorem, monkeypatch, capsys):
    monkeypatch.setattr(trish.harness, "_trish_step_batch", _normalizing(normalized_cases))
    assert main(["verify", "--theorem", theorem]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    violations = int(out.split("violations=")[1].split()[0])
    assert violations > 0
