"""Smoke tests for the narrative scripts under demos/.

The demos call the library's public API but are not imported by any other
test, so an API change could break one silently.  Each demo is imported
from its file, and the cheap ones that march trajectories or tune a grid
are run; ascent_counterexample takes tens of seconds, so it is only
imported.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = ["ascent_counterexample", "convergence_bounds", "logistic_experiment", "step_rule_shapes"]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"demos_{name}", DEMOS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", DEMOS)
def test_demo_imports(name):
    assert callable(_load(name).main)


def test_convergence_bounds_show_runs(capsys):
    _load("convergence_bounds").show(1)
    out = capsys.readouterr().out
    assert "guarantee 1: mean optimality gap, horizon 200" in out
    assert "-> all k within bound" in out


def test_logistic_experiment_runs(capsys):
    _load("logistic_experiment").main()
    out = capsys.readouterr().out
    assert "winner: {" in out
    assert "best mean train loss anywhere on the grids: safeguarded " in out
