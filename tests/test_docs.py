"""Checks that the names README.md cites still exist.

Every backticked dotted name whose first part the package exports, such
as `LogisticProblem.block_gradient` or `theorem_bound(tc, k)` (the call's
arguments are dropped), must resolve on `trish`.  A README that still
names a removed function, class or method fails here.
"""

import re
from pathlib import Path

import trish

README = Path(__file__).resolve().parents[1] / "README.md"
# A dotted name, optionally called: `a.b.c` or `a.b(x, y)`.
CITED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`")


def cited_names() -> list[str]:
    names = CITED.findall(README.read_text(encoding="utf-8"))
    return sorted({name for name in names if name.split(".")[0] in trish.__all__})


def test_readme_cites_exported_names():
    assert {"LogisticProblem.block_gradient", "theorem_bound"} <= set(cited_names())


def test_every_cited_name_resolves():
    missing = []
    for name in cited_names():
        target = trish
        for part in name.split("."):
            if not hasattr(target, part):
                missing.append(name)
                break
            target = getattr(target, part)
    assert missing == []
